//! Between bursts: the per-core timer pass (flush timeouts, inactivity
//! expiry, and on core 0 the capture-wide machinery — governor, FDIR
//! retries and timeouts, gauges), stream termination, and end of capture.

use super::hw::Owner;
use super::lane::Lane;
use super::ledger::At;
use super::probe::{Flags, StreamKState};
use super::ScapKernel;
use crate::event::EventKind;
use scap_flight::{DropReason, FlightEvent, FlightKind, FlightLayer};
use scap_flow::{StreamId, StreamRecord, StreamStatus};
use scap_memory::{ChunkAssembler, ChunkBuf};
use scap_telemetry::{Gauge, Metric};
use scap_wire::Direction;

/// Streams expired per timer pass (bounds softirq latency).
const EXPIRE_BATCH: usize = 256;

impl ScapKernel {
    /// Periodic kernel timers for one core: flush timeouts, inactivity
    /// expiration, and (on core 0) FDIR filter timeouts.
    pub fn kernel_timers(&mut self, core: usize, now: u64) {
        self.imager.excuse_blackout(&mut self.flows, now);
        self.flush_due_chunks(core, now);

        // Inactivity expiration.
        let idle = self.cfg.inactivity_timeout_ns;
        let expired = self.flows.cores[core].expire_inactive(now, idle, EXPIRE_BATCH);
        for (id, rec) in expired {
            self.ledger.tele.inc(core, Metric::KernelTimerOps);
            let Some(ks) = self.flows.cores[core].take_state(id) else {
                // TIME_WAIT tombstone aging out: already reported.
                continue;
            };
            let expired = FlightEvent::new(FlightKind::StreamExpired, FlightLayer::Kernel, now);
            self.ledger.journal(At::new(core, now, ks.uid()), expired);
            self.ledger.stats.expired_streams += 1;
            self.finish_removed_stream(core, id, rec, ks, now);
        }

        // Capture-wide machinery runs on core 0, which owns the single
        // hardware table and the (single) governor instance.
        if core == 0 {
            self.place.apply_pressure_faults(now);
            // Governor: pressure is the worst of arena occupancy, RX-ring
            // fill and event-queue backlog across all cores.
            let mut pressure = self.place.arena.used_fraction().max(self.emit.pressure());
            for c in 0..self.ncores() {
                pressure = pressure.max(self.nic.nic.queue(c).fill_level());
            }
            let level_before = self.governor.level();
            self.governor.tick(now, pressure);
            let level = self.governor.level();
            if level != level_before {
                self.ledger.tele.inc(0, Metric::GovernorTransitions);
                let change =
                    FlightEvent::new(FlightKind::GovernorChange, FlightLayer::Governor, now);
                let change = change.with_vals(level_before.into(), level.into());
                self.ledger.journal(At::new(0, now, 0), change);
            }
            let quota = self.governor.evict_quota();
            if quota > 0 {
                self.evict_low_priority(quota, now);
            }
            let (hw, mut deps) = self.hw();
            hw.drain_retries(&mut deps, now);
            let gauges = self.sample_gauges();
            self.ledger.sample(now, gauges);
            let (hw, mut deps) = self.hw();
            hw.expire(&mut deps, now);
        }
    }

    /// Flush timeouts: a partial chunk that has waited out its timer, and
    /// has not been completed or flushed since, is delivered as it is.
    fn flush_due_chunks(&mut self, core: usize, now: u64) {
        while let Some((id, dir, armed_offset)) = self.place.due_flush(core, now) {
            // A timer outlives a stream that ended first: its id no
            // longer resolves (not even once the slot is reused).
            let (Some(ks), Some(rec)) = self.flows.cores[core].stream_mut(id) else {
                continue;
            };
            let d = dir.index();
            self.ledger.tele.inc(core, Metric::KernelTimerOps);
            ks.flags.set(Flags::FLUSH_ARMED[d], false);
            let Some(seg) = ks.seg.as_deref_mut() else {
                continue;
            };
            let asm = &mut seg.asm[d];
            if !asm.has_pending() || asm.stream_offset() < armed_offset {
                continue;
            }
            let mut tail = Vec::new();
            self.place.flush_tail(asm, &mut tail);
            if tail.is_empty() {
                continue;
            }
            let packets = std::mem::take(&mut seg.pkt_records[d]);
            let uid = ks.uid();
            let mut lane = Lane {
                cfg: &self.cfg,
                governor: &self.governor,
                place: &mut self.place,
                emit: &mut self.emit,
                ledger: &mut self.ledger,
                ks,
                rec,
                at: At::new(core, now, uid),
                id,
                dir,
            };
            lane.emit_data(tail, packets, now);
        }
    }

    /// Current gauge values, in [`Gauge::ALL`] order.
    fn sample_gauges(&self) -> [u64; Gauge::COUNT] {
        let nic = &self.nic.nic;
        let mut fill = 0.0f64;
        let mut backlog = 0usize;
        let mut streams = 0usize;
        let mut flow_load = 0u64;
        let mut flow_probes = 0u64;
        for (c, core) in self.flows.cores.iter().enumerate() {
            fill = fill.max(nic.queue(c).fill_level());
            backlog += self.emit.backlog(c);
            streams += core.len();
            flow_load = flow_load.max(core.load_permille());
            flow_probes += core.probes;
        }
        let mut g = [0u64; Gauge::COUNT];
        g[Gauge::RingFillPermille.idx()] = (fill * 1000.0) as u64;
        g[Gauge::ArenaUsedPermille.idx()] = (self.place.arena.used_fraction() * 1000.0) as u64;
        g[Gauge::EventBacklog.idx()] = backlog as u64;
        g[Gauge::GovernorLevel.idx()] = u64::from(self.governor.level());
        g[Gauge::FdirFilters.idx()] = nic.fdir().len() as u64;
        g[Gauge::TrackedStreams.idx()] = streams as u64;
        g[Gauge::WorkerHeartbeats.idx()] = self.ledger.worker_heartbeats;
        g[Gauge::FlowLoadPermille.idx()] = flow_load;
        g[Gauge::FlowProbeCentigroups.idx()] = flow_probes * 100 / self.flows.lookups.max(1);
        g[Gauge::FastpathFillPermille.idx()] = self.nic.fp_stats.fill_permille();
        g[Gauge::OffloadRules.idx()] = nic.offload().len() as u64;
        g[Gauge::OffloadLoadPermille.idx()] = nic.offload().load_permille();
        g
    }

    /// Governor level 3: reclaim the pending arena memory of the
    /// lowest-priority streams and stop collecting their data. The streams
    /// stay in the table with `discarded` set, so their statistics keep
    /// accumulating (§3.3.1 semantics) while their memory is freed.
    /// Candidates are ordered by uid so eviction is deterministic.
    fn evict_low_priority(&mut self, quota: usize, now: u64) {
        let candidates = self.flows.by_uid(|rec| rec.priority == 0 && !rec.discarded);
        for (uid, c, id) in candidates.into_iter().take(quota) {
            let (ks, rec) = self.flows.cores[c].stream_mut(id);
            if let Some(rec) = rec {
                rec.discarded = true;
            }
            let mut freed: Vec<ChunkBuf> = Vec::new();
            if let Some(ks) = ks {
                ks.flags
                    .set(Flags::FLUSH_ARMED[0] | Flags::FLUSH_ARMED[1], false);
                if let Some(seg) = ks.seg.as_deref_mut() {
                    for d in [0usize, 1] {
                        freed.extend(seg.kept[d].take());
                        freed.extend(seg.asm[d].flush());
                    }
                }
            }
            let (at, why) = (At::new(c, now, uid), DropReason::PriorityEvict);
            for chunk in freed {
                let lost = chunk.len() as u64;
                self.ledger.dropped(at, FlightLayer::Memory, why, 0, lost);
                self.place.arena.release(chunk);
            }
            let evicted = FlightEvent::new(FlightKind::StreamEvicted, FlightLayer::Governor, now);
            self.ledger.journal(at, evicted.with_reason(why));
            self.ledger.stats.resilience.evicted_streams += 1;
            self.ledger.tele.inc(c, Metric::KernelTimerOps);
        }
    }

    /// Terminate an in-table stream: remove it, flush everything, emit
    /// final events. With `timewait`, a tombstone record stays in the
    /// table so late packets of the 5-tuple are absorbed silently.
    pub(super) fn terminate_stream(
        &mut self,
        core: usize,
        id: StreamId,
        status: StreamStatus,
        now: u64,
        timewait: bool,
    ) {
        let flows = &mut self.flows.cores[core];
        let Some(mut rec) = flows.remove(id) else {
            return;
        };
        let Some(ks) = flows.take_state(id) else {
            // Already-reported tombstone: drop silently.
            return;
        };
        rec.status = status;
        let (key, last_ts) = (rec.key, rec.last_ts_ns);
        self.finish_removed_stream(core, id, rec, ks, now);
        if timewait {
            // A full table just means no tombstone: late packets of the
            // 5-tuple will create a fresh (noise) stream instead.
            let flows = &mut self.flows.cores[core];
            if let Ok(lookup) = flows.lookup_or_insert(&key, last_ts) {
                if let Some(t) = flows.get_mut(lookup.id) {
                    t.status = status;
                }
            }
        }
    }

    /// Flush and report stream `id`, whose record and state are already
    /// out of the tables.
    fn finish_removed_stream(
        &mut self,
        core: usize,
        id: StreamId,
        mut rec: StreamRecord,
        mut ks: StreamKState,
        now: u64,
    ) {
        let at = At::new(core, now, ks.uid());
        self.emit.forget(ks.uid());
        // The box goes with the stream: what it holds is flushed or
        // released here, and it is dropped with the state once the
        // stream is reported.
        for kept in (ks.seg.iter_mut()).flat_map(|s| s.kept.iter_mut().filter_map(Option::take)) {
            self.place.arena.release(kept);
        }
        for dir in [Direction::Forward, Direction::Reverse] {
            let d = dir.index();
            let mut completed: Vec<ChunkBuf> = Vec::new();
            let mut packets = Vec::new();
            let opened = ks.opened(d);
            if let Some(seg) = ks.seg.as_deref_mut() {
                let a = &mut seg.asm[d];
                if let Some(conn) = seg.conn.as_mut() {
                    // Drain buffered out-of-order data, into a fresh
                    // assembler of the capture's geometry when the
                    // direction had none.
                    if !opened {
                        *a = ChunkAssembler::new(self.cfg.chunk_size, self.cfg.overlap);
                    }
                    let arena = &mut self.place.arena;
                    let mut copied = 0u64;
                    conn.dir_mut(dir).flush(&mut |_, data: &[u8]| {
                        copied += data.len() as u64;
                        let _ = a.append(arena, data, &mut completed);
                    });
                    self.ledger
                        .tele
                        .add(core, Metric::KernelBytesCopied, copied);
                    self.ledger.delivered(core, 0, copied);
                }
                self.place.flush_tail(a, &mut completed);
                packets = std::mem::take(&mut seg.pkt_records[d]);
            }
            let mut lane = Lane {
                cfg: &self.cfg,
                governor: &self.governor,
                place: &mut self.place,
                emit: &mut self.emit,
                ledger: &mut self.ledger,
                id,
                ks: &mut ks,
                rec: &mut rec,
                at,
                dir,
            };
            lane.emit_data(completed, packets, now);
        }
        let owner = Owner {
            core,
            id,
            uid: ks.uid(),
        };
        let steered = self.cfg.use_fdir_balancing;
        let (hw, mut deps) = self.hw();
        hw.release(&mut deps, owner, rec.key, ks.flags, steered);

        let (total_bytes, total_pkts) = (rec.total_bytes(), rec.total_pkts());
        let last = rec.last_ts_ns;
        let ended = FlightEvent::new(FlightKind::StreamTerminated, FlightLayer::Kernel, last);
        self.ledger
            .journal(at, ended.with_vals(total_bytes, total_pkts));
        let (arena, ended) = (&mut self.place.arena, EventKind::Terminated);
        self.emit
            .enqueue(&mut self.ledger, arena, at, (&rec, &ks), ended, now);
        self.ledger.stats.stack.streams_reported += 1;
    }

    /// End of capture: drain ring backlogs and terminate every remaining
    /// stream so final events and statistics are complete.
    pub fn finish(&mut self, now: u64) {
        self.nic.drain_mode = true;
        for core in 0..self.ncores() {
            while self.kernel_poll(core, now).is_some() {}
            let ids: Vec<StreamId> = self.flows.cores[core].iter().map(|(id, _)| id).collect();
            for id in ids {
                self.terminate_stream(core, id, StreamStatus::ClosedTimeout, now, false);
            }
        }
    }
}
