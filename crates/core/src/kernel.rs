//! The Scap kernel module, emulated: per-core flow tracking, in-kernel
//! TCP/UDP stream reassembly into arena chunks, event creation, cutoffs,
//! PPL, inactivity expiration, and dynamic NIC filter management (§4–§5
//! of the paper).
//!
//! The type is driver-agnostic: the simulation driver pulls packets
//! through it under cycle budgets and collects the returned [`Work`]
//! receipts; the live threaded driver calls the same methods and ignores
//! the receipts. All algorithmic behaviour (what gets tracked, copied,
//! discarded, dropped, reported) lives here, once.
//!
//! [`ScapKernel`] itself is a composer. The state lives in stages along
//! the data path, one file each, each owning the fields only it writes
//! (DESIGN §4.2):
//!
//! ```text
//! admit ══ rings ══▶ probe ──▶ lane: gate ▶ reassemble ▶ place ▶ emit     ledger
//! (NIC)              (flow tables,          (arena, flush      (event     (stats, telemetry,
//!   ▲                 stream state)          timers)            queues)    flight, pulse, work)
//!   └── hw (FDIR / offload cutoff filters) ◀── owed by a stream past its cutoff
//!                                                                          imager (checkpoints)
//! ```
//!
//! The burst loop (`burst.rs`) and the timer pass (`timers.rs`) walk a
//! packet or a tick through them, lending each stage the disjoint `&mut`
//! borrows it needs; no stage holds a reference to another.

mod admit;
mod burst;
mod emit;
mod hw;
mod imager;
mod lane;
mod ledger;
mod place;
mod probe;
#[cfg(test)]
mod tests;
mod timers;

pub use ledger::{ResilienceStats, ScapStats};

use crate::config::{ConfigDelta, ScapConfig};
use crate::event::{Event, StreamRef, StreamUid};
use crate::governor::OverloadGovernor;
use admit::NicStage;
use emit::Emitter;
use hw::{HwCutoff, HwDeps, Owner};
use imager::Imager;
use ledger::Ledger;
use place::Placer;
use probe::{classify, Flags, FlowProbe};
use scap_fastpath::BurstStats;
use scap_faults::FrameFaultStats;
use scap_flight::FlightRecorder;
use scap_flow::{StreamErrors, StreamId, StreamRecord};
use scap_memory::ChunkBuf;
use scap_nic::OffloadRule;
use scap_sim::CacheSim;
use scap_telemetry::{Metric, PlainRegistry, PulseSnapshot, Sampler, Snapshot};
use scap_wire::{Direction, FlowKey};

/// Per-stream control operations (the `scap_set_stream_*` family and
/// `scap_discard_stream` / `scap_keep_stream_chunk` of Table 1), each
/// naming its stream by uid and canonical key — a [`StreamRef`], made
/// from any snapshot of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlOp {
    /// Stop collecting data for this stream (`scap_discard_stream`).
    Discard(StreamRef),
    /// Change the stream's cutoff; `None` direction applies to both.
    SetCutoff(StreamRef, Option<Direction>, Option<u64>),
    /// Change the stream's priority (`scap_set_stream_priority`).
    SetPriority(StreamRef, u8),
    /// Merge the stream's last chunk into the next one
    /// (`scap_keep_stream_chunk`); takes effect when the delivered chunk
    /// is returned via [`ScapKernel::release_data`].
    KeepChunk(StreamRef, Direction),
    /// Change the stream's chunk size and overlap
    /// (`scap_set_stream_parameter`); applies from the next chunk.
    SetChunkGeometry(StreamRef, u32, u32),
}

impl ControlOp {
    fn stream(&self) -> StreamRef {
        match *self {
            ControlOp::Discard(s)
            | ControlOp::SetCutoff(s, ..)
            | ControlOp::SetPriority(s, _)
            | ControlOp::KeepChunk(s, _)
            | ControlOp::SetChunkGeometry(s, ..) => s,
        }
    }
}

/// The emulated kernel module.
pub struct ScapKernel {
    cfg: ScapConfig,
    /// Admission: the NIC and its RX rings.
    nic: NicStage,
    /// Hardware cutoff: FDIR / offload filter management.
    hw: HwCutoff,
    /// Flow probe: per-core flow tables, stream state, the uid counter.
    flows: FlowProbe,
    /// Placement: the chunk arena and flush timers.
    place: Placer,
    /// Emit: per-core event queues.
    emit: Emitter,
    /// Accounting: counters, telemetry, flight journal, pulse plane.
    ledger: Ledger,
    /// Checkpoint images and what a restore carries over.
    imager: Imager,
    /// Overload governor (escalating degradation under pressure).
    governor: OverloadGovernor,
}

impl ScapKernel {
    /// Build the kernel side from a configuration.
    pub fn new(cfg: ScapConfig) -> Self {
        let ncores = cfg.cores.max(1);
        let flight_cap = match &cfg.faults {
            Some(plan) => plan.flight.effective_cap(cfg.flight_ring_cap),
            None => cfg.flight_ring_cap,
        };
        ScapKernel {
            nic: NicStage::new(&cfg, ncores),
            hw: HwCutoff::default(),
            flows: FlowProbe::new(ncores),
            place: Placer::new(&cfg, ncores),
            emit: Emitter::new(ncores, cfg.event_queue_cap),
            ledger: Ledger::new(&cfg, ncores, flight_cap),
            imager: Imager::default(),
            governor: OverloadGovernor::new(cfg.governor),
            cfg,
        }
    }

    /// Attach a cache model. The kernel then traces its memory touches —
    /// DMA'd frame headers, flow records, per-stream chunk writes — and
    /// [`ScapKernel::user_touch_chunk`] traces the worker's reads.
    pub fn set_cache(&mut self, cache: CacheSim) {
        self.ledger.cache = Some(cache);
    }

    /// Total cache misses recorded (0 when no cache model is attached).
    pub fn cache_misses(&self) -> u64 {
        self.ledger.cache.as_ref().map_or(0, |c| c.misses)
    }

    /// Record the worker reading a delivered chunk; returns misses.
    pub fn user_touch_chunk(&mut self, chunk: &ChunkBuf) -> u64 {
        match self.ledger.cache.as_mut() {
            Some(c) if chunk.sim_addr != 0 => c.access(chunk.sim_addr, chunk.len()),
            _ => 0,
        }
    }

    /// The hardware-cutoff stage with what it borrows: the NIC, the
    /// streams, the ledger.
    fn hw(&mut self) -> (&mut HwCutoff, HwDeps<'_>) {
        let deps = HwDeps {
            cfg: &self.cfg,
            nic: &mut self.nic.nic,
            flows: &mut self.flows,
            ledger: &mut self.ledger,
        };
        (&mut self.hw, deps)
    }

    /// Apply a per-stream control operation (`scap_set_stream_*`). The
    /// stream is looked up by key in the flow table of the core the NIC
    /// queues the key to, then in the other cores' tables, and only a
    /// slot that holds its uid is acted on. Operations on
    /// already-terminated streams — on a TIME_WAIT tombstone, or on a
    /// 5-tuple a newer stream has taken since — are silently ignored,
    /// matching the racy-but-safe semantics of the real socket calls.
    pub fn control(&mut self, op: ControlOp) {
        let stream = op.stream();
        let home = self.nic.nic.rss_queue(&stream.key);
        let Some((core, id)) = self.flows.find(home, &stream) else {
            return;
        };
        let (Some(ks), Some(rec)) = self.flows.cores[core].stream_mut(id) else {
            return;
        };
        let uid = stream.uid;
        match op {
            ControlOp::Discard(_) => rec.discarded = true,
            ControlOp::SetCutoff(_, dir, value) => {
                let dirs = dir.map_or(0..2, |d| d.index()..d.index() + 1);
                for d in dirs {
                    ks.set_cutoff(rec, &self.cfg, d, value);
                }
                // A widened cutoff may re-open a stream whose old,
                // narrower cutoff had tripped.
                let cutoffs = ks.cutoffs(rec, &self.cfg);
                self.reopen_if_within(Owner { core, id, uid }, cutoffs);
            }
            ControlOp::SetPriority(_, prio) => rec.priority = prio,
            ControlOp::KeepChunk(_, dir) => self.emit.keep(uid, dir, (core, id)),
            ControlOp::SetChunkGeometry(_, chunk_size, overlap) => {
                let chunk_size = chunk_size.max(1);
                let overlap = overlap.min(chunk_size - 1);
                ks.set_geometry(&self.cfg, chunk_size, overlap);
            }
        }
    }

    /// After a cutoff change: if the stream had tripped its (narrower)
    /// cutoff but every direction is within `cutoffs` now, re-open it —
    /// clear the exceeded flag, pull the NIC drop filters, and reset the
    /// stream's FDIR bookkeeping so data collection resumes. Shared by
    /// [`ControlOp::SetCutoff`] and the hot-reload path.
    fn reopen_if_within(&mut self, o: Owner, cutoffs: [Option<u64>; 2]) {
        let flows = &mut self.flows.cores[o.core];
        let (Some(ks), Some(rec)) = flows.stream_mut(o.id) else {
            return; // tombstone: nothing to re-open
        };
        let still_beyond = (0..2).any(|d| cutoffs[d].is_some_and(|c| ks.offset(d) >= c));
        if !rec.cutoff_exceeded || still_beyond {
            return;
        }
        rec.cutoff_exceeded = false;
        let key = rec.key;
        let (hw, mut deps) = self.hw();
        hw.reopen(&mut deps, o, key);
    }

    /// The configuration in force.
    pub fn config(&self) -> &ScapConfig {
        &self.cfg
    }

    /// Number of cores / RX queues.
    pub fn ncores(&self) -> usize {
        self.flows.cores.len()
    }

    /// Aggregate statistics: a view over the registry for the facts that
    /// have a cell, the ledger's plain fields for the rest, NIC counters
    /// merged in.
    pub fn stats(&self) -> ScapStats {
        let mut s = self.ledger.stats;
        let t = &self.ledger.tele;
        let nic = &self.nic.nic;
        let n = nic.stats();
        s.stack.wire_packets = t.total(Metric::WirePackets);
        s.stack.wire_bytes = t.total(Metric::WireBytes);
        s.stack.delivered_packets = t.total(Metric::DeliveredPackets);
        s.stack.delivered_bytes = t.total(Metric::DeliveredBytes);
        s.stack.dropped_packets = t.total(Metric::DroppedPackets) + n.ring_dropped_frames;
        s.stack.dropped_bytes = t.total(Metric::DroppedBytes) + n.ring_dropped_bytes;
        s.stack.discarded_packets = t.total(Metric::DiscardedPackets);
        s.stack.discarded_bytes = t.total(Metric::DiscardedBytes);
        s.chunks = t.total(Metric::KernelChunksPlaced);
        s.events_dropped = t.total(Metric::KernelEventsDropped);
        s.stack.nic_filtered_packets =
            n.fdir_dropped_frames + n.offload_dropped_frames + n.offload_sampled_frames;
        s.resilience.fdir_transient_failures = nic.fdir().transient_failures;
        s.resilience.fdir_slow_installs = nic.fdir().slow_installs;
        if let Some(inj) = &self.nic.ring_faults {
            s.resilience.ring_stall_windows = inj.windows_seen();
        }
        if let Some(inj) = &self.place.arena_faults {
            s.resilience.arena_spikes = inj.spikes_seen();
        }
        let g = self.governor.stats();
        s.resilience.governor_level = self.governor.level();
        s.resilience.governor_max_level = g.max_level;
        s.resilience.governor_transitions = g.transitions;
        s
    }

    /// The always-on flight recorder (read side: journal export, drop
    /// attribution, black-box dumps).
    pub fn flight(&self) -> &FlightRecorder {
        &self.ledger.flight
    }

    /// Export the pulse plane: per-stage latency histograms plus the
    /// tail exemplars, re-filtered against the final quantile estimates.
    pub fn pulse_snapshot(&self) -> PulseSnapshot {
        self.ledger.pulse.snapshot()
    }

    /// Record end-to-end delivery latency for one event: the delta from
    /// the producing packet's NIC-ingress timestamp to `now_ns`, the
    /// moment a worker actually received the event. Exemplar-eligible —
    /// the stream uid and the flight-journal cursor ride along so tail
    /// deliveries can be reconstructed with `scapcat --trace <uid>`.
    pub fn note_delivery(&mut self, ev: &Event, now_ns: u64) {
        self.ledger.note_delivery(ev, now_ns);
    }

    /// Mutable flight-recorder access for drivers: the live watchdog
    /// records worker panic/stall/restart events through this.
    pub fn flight_mut(&mut self) -> &mut FlightRecorder {
        &mut self.ledger.flight
    }

    /// The kernel's own telemetry registry (one shard per core).
    pub fn telemetry(&self) -> &PlainRegistry {
        &self.ledger.tele
    }

    /// The gauge time-series sampled so far.
    pub fn telemetry_series(&self) -> &Sampler {
        &self.ledger.sampler
    }

    /// Report the drivers' worker heartbeat count (events delivered to
    /// application callbacks); surfaces as the `worker_heartbeats` gauge.
    pub fn set_worker_heartbeats(&mut self, n: u64) {
        self.ledger.worker_heartbeats = n;
    }

    /// Capture-wide telemetry: the kernel's per-core registry merged
    /// with the NIC's per-queue registry and the arena's. Mirrors
    /// [`ScapKernel::stats`]: ring-overflowed frames are already counted
    /// as `dropped_packets` by the NIC layer, so the conservation
    /// identity holds on the merged snapshot.
    pub fn telemetry_snapshot(&self) -> Snapshot {
        let mut s = self.ledger.tele.snapshot();
        s.merge(&self.nic.nic.telemetry().snapshot());
        s.merge(&self.place.arena.telemetry().snapshot());
        s
    }

    /// Poll-mode burst-fill statistics (zeroed unless the fast path ran).
    pub fn fastpath_stats(&self) -> BurstStats {
        self.nic.fp_stats
    }

    /// Merge frame-level fault counters observed by the driver at the
    /// trace boundary (the kernel never sees those frames pre-mangling).
    pub fn note_frame_faults(&mut self, f: FrameFaultStats) {
        let r = &mut self.ledger.stats.resilience;
        r.frames_corrupted = f.corrupted;
        r.frames_truncated = f.truncated;
        r.frames_duplicated = f.duplicated;
        r.ts_anomalies = f.ts_anomalies;
        r.frames_reordered = f.reordered;
    }

    /// Mutable access to the resilience counters (the live driver's
    /// watchdog reports worker panics/stalls/restarts through this).
    pub fn resilience_mut(&mut self) -> &mut ResilienceStats {
        &mut self.ledger.stats.resilience
    }

    /// Set an error flag on a live stream (the live driver's watchdog
    /// marks streams whose worker died mid-dispatch). No-op if the stream
    /// already terminated. The watchdog knows only the uid, so this walks
    /// the flow tables: it runs once per worker panic or stall, while
    /// handing it the key would cost the worker a 40-byte store per
    /// event where it now stores the uid.
    pub fn flag_stream_error(&mut self, uid: StreamUid, err: StreamErrors) {
        let Some((core, id)) = self.flows.scan(uid) else {
            return;
        };
        if let Some(rec) = self.flows.cores[core].get_mut(id) {
            rec.errors.set(err);
        }
    }

    /// Raw NIC counters (diagnostics).
    pub fn nic_stats(&self) -> scap_nic::NicStats {
        self.nic.nic.stats()
    }

    /// Overload-governor level in force (0 = configured behaviour).
    pub fn governor_level(&self) -> u8 {
        self.governor.level()
    }

    /// Current arena fill fraction (diagnostics).
    pub fn memory_used_fraction(&self) -> f64 {
        self.place.arena.used_fraction()
    }

    /// Arena allocation failures (diagnostics).
    pub fn arena_failures(&self) -> u64 {
        self.place.arena.failures
    }

    /// Live FDIR filter count (diagnostics).
    pub fn fdir_filters(&self) -> usize {
        self.nic.nic.fdir().len()
    }

    /// Live offload-rule count (diagnostics).
    pub fn offload_rules(&self) -> usize {
        self.nic.nic.offload().len()
    }

    /// Offload-table counters: hits, per-action frames/bytes, evictions
    /// (diagnostics; the eviction fold keeps these conservation-exact).
    pub fn offload_stats(&self) -> scap_nic::OffloadStats {
        self.nic.nic.offload().stats()
    }

    /// Offload-table fill, in permille of its rule capacity.
    pub fn offload_load_permille(&self) -> u64 {
        self.nic.nic.offload().load_permille()
    }

    /// Install an application-supplied offload rule (`Mark`, `Sample`,
    /// `Bypass`, or a manual `Drop`) directly into the NIC table.
    pub fn offload_install(&mut self, rule: OffloadRule) -> Result<(), scap_nic::OffloadError> {
        self.ledger.stats.offload_ops += 1;
        self.nic.nic.offload_install(rule)
    }

    /// Remove an application-supplied offload rule by flow key.
    pub fn offload_uninstall(
        &mut self,
        key: &FlowKey,
    ) -> Result<OffloadRule, scap_nic::OffloadError> {
        self.ledger.stats.offload_ops += 1;
        let r = self.nic.nic.offload_uninstall(key);
        if r.is_ok() {
            self.hw.disown_offload(key);
        }
        r
    }

    /// Pending events on a core's queue.
    pub fn event_backlog(&self, core: usize) -> usize {
        self.emit.backlog(core)
    }

    /// Streams currently tracked on a core.
    pub fn tracked_streams(&self, core: usize) -> usize {
        self.flows.cores[core].len()
    }

    /// Iterate live records, with their handles, on a core (tests and
    /// diagnostics).
    pub fn streams_on_core(&self, core: usize) -> impl Iterator<Item = (StreamId, &StreamRecord)> {
        self.flows.cores[core].iter()
    }

    /// Pop the next event from a core's queue (user side).
    pub fn next_event(&mut self, core: usize) -> Option<Event> {
        self.emit.pop(core)
    }

    /// Return a consumed data chunk's memory to the arena.
    pub fn release_chunk(&mut self, chunk: ChunkBuf) {
        self.place.arena.release(chunk);
    }

    /// Return a consumed data chunk, honouring any pending keep-chunk
    /// request for the stream (live-mode workers and the sim stack both
    /// route chunk returns through here).
    pub fn release_data(&mut self, uid: StreamUid, dir: Direction, chunk: ChunkBuf) {
        // Not asked for, or the stream no longer in the slot it was
        // found at: a plain release. A returned chunk was placed, so its
        // stream has its box.
        let keeper = self
            .emit
            .take_keep(uid, dir)
            .filter(|&(core, id)| self.flows.holds(core, id, uid))
            .and_then(|(core, id)| self.flows.cores[core].state_mut(id))
            .and_then(|ks| ks.seg.as_deref_mut());
        let done = match keeper {
            Some(seg) => seg.kept[dir.index()].replace(chunk),
            None => Some(chunk),
        };
        if let Some(chunk) = done {
            self.place.arena.release(chunk);
        }
    }

    /// Hot-reload a configuration delta onto the running kernel without
    /// stopping dispatch. Cutoff and priority changes propagate to every
    /// live stream through the same [`ControlOp`] path applications use;
    /// a *widened* cutoff re-opens streams whose old, narrower cutoff
    /// had tripped (clearing their NIC drop filters), exactly like
    /// `union_requirements` generalizes cutoffs for tenants. Filter
    /// changes take effect on the next packet.
    pub fn try_apply_config(&mut self, delta: ConfigDelta) -> Result<(), crate::ConfigError> {
        delta.validate(&self.cfg)?;
        self.apply_config(delta);
        Ok(())
    }

    /// [`ScapKernel::try_apply_config`] without the validation step —
    /// callers must have validated the delta against the installed
    /// configuration themselves (e.g. via [`ConfigDelta::validate`]).
    pub fn apply_config(&mut self, delta: ConfigDelta) {
        let cutoff_changed = delta.cutoff_default.is_some() || delta.cutoff_classes.is_some();
        let priorities_changed = delta.priorities.is_some();
        let before = cutoff_changed.then(|| self.cfg.clone());
        // `apply_to` owns the widening rule (generalize vs narrow); the
        // per-stream re-open below is driven by each stream's own state.
        let _widened = delta.apply_to(&mut self.cfg);
        if !cutoff_changed && !priorities_changed {
            return;
        }
        for (uid, core, id) in self.flows.by_uid(|_| true) {
            let (Some(ks), Some(rec)) = self.flows.cores[core].stream_mut(id) else {
                continue;
            };
            if priorities_changed {
                rec.priority = self.cfg.priorities.for_key(&rec.key);
            }
            let Some(before) = &before else {
                continue;
            };
            // Every cutoff becomes its class's under the new policy: the
            // class is looked up again and the application's cutoffs go.
            // The stream is re-opened as if its directions were set one
            // after the other, forward first.
            let old = ks.cutoffs(rec, before);
            ks.flags
                .set(Flags::OWN_CUTOFF[0] | Flags::OWN_CUTOFF[1], false);
            classify(ks, rec, &self.cfg);
            let new = ks.cutoffs(rec, &self.cfg);
            let o = Owner { core, id, uid };
            self.reopen_if_within(o, [new[0], old[1]]);
            self.reopen_if_within(o, new);
        }
    }
}
