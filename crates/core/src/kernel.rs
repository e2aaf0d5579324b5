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

use crate::checkpoint::{
    self, AsmImage, CheckpointError, CheckpointGlobals, CheckpointImage, ConnView, KStateView,
    StreamImage,
};
use crate::config::{ConfigDelta, ScapConfig};
use crate::event::{Event, EventKind, PacketRecord, StreamSnapshot, StreamUid};
use crate::governor::OverloadGovernor;
use scap_fastpath::{hash_key, BurstStats, HashedKey};
use scap_faults::{ArenaInjector, FaultPlan, FrameFaultStats, RingInjector};
use scap_flight::{DropReason, FlightEvent, FlightKind, FlightLayer, FlightRecorder};
use scap_flow::{
    FlowTable, FlowTableConfig, SideTable, StreamErrors, StreamId, StreamRecord, StreamStatus,
};
use scap_memory::{Arena, ChunkAssembler, ChunkBuf, PplVerdict};
use scap_nic::{FdirError, FdirFilter, Nic, NicVerdict, OffloadAction, OffloadError, OffloadRule};
use scap_reassembly::{CloseKind, ReasmConfig, ReasmFlags, TcpConn};
use scap_sim::{CacheSim, StackStats, Work};
use scap_telemetry::pulse::cost;
use scap_telemetry::{
    cycles_to_ns, Gauge, Metric, PlainRegistry, Pulse, PulseSnapshot, PulseStage, Sampler,
    Snapshot, Stage,
};
use scap_trace::Packet;
use scap_wire::{parse_frame, Direction, FlowKey, ParsedPacket, TcpFlags, TcpMeta, Transport};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Range;

/// Approximate header bytes the kernel touches per packet.
const HDR_TOUCH_BYTES: u64 = 64;
/// Streams expired per timer pass (bounds softirq latency).
const EXPIRE_BATCH: usize = 256;
/// Initial FDIR filter timeout; doubles on each reinstall (§5.5).
const FDIR_INITIAL_TIMEOUT_NS: u64 = 2_000_000_000;
/// Delay before the first retry of a transiently failed FDIR install;
/// doubles per attempt (exponential backoff with deterministic jitter).
const FDIR_RETRY_BASE_NS: u64 = 50_000;
/// Hard ceiling on any single FDIR retry delay, jitter included: the
/// backoff curve flattens here instead of growing without bound.
const FDIR_RETRY_CAP_NS: u64 = 5_000_000;
/// Install attempts (beyond the first) before falling back to software
/// cutoff enforcement for good.
const FDIR_RETRY_MAX_ATTEMPTS: u32 = 5;
/// Entries the offload table's clock hand examines per eviction (bounds
/// the worst-case install latency at million-rule scale).
const OFFLOAD_EVICT_SCAN: usize = 64;

/// Per-stream kernel-side state (parallel to the flow record).
struct StreamKState {
    uid: StreamUid,
    /// Allocated on the first TCP segment, so that UDP streams, and the
    /// empty side-table slots under TIME_WAIT tombstones, do not carry it.
    conn: Option<Box<TcpConn>>,
    asm: [Option<ChunkAssembler>; 2],
    pkt_records: [Vec<PacketRecord>; 2],
    flush_armed: [bool; 2],
    fdir_installed: bool,
    fdir_timeout_ns: u64,
    /// A transiently failed install is parked on the retry queue.
    fdir_retry_pending: bool,
    /// Retries exhausted: the cutoff is enforced in software only.
    fdir_software_fallback: bool,
    /// A `Drop` rule for this stream is live in the NIC offload table.
    offload_installed: bool,
    /// Chunks held back by `scap_keep_stream_chunk` for merging.
    kept: [Option<ChunkBuf>; 2],
}

impl StreamKState {
    fn new(uid: StreamUid) -> Self {
        StreamKState {
            uid,
            conn: None,
            asm: [None, None],
            pkt_records: [Vec::new(), Vec::new()],
            flush_armed: [false, false],
            fdir_installed: false,
            fdir_timeout_ns: FDIR_INITIAL_TIMEOUT_NS,
            fdir_retry_pending: false,
            fdir_software_fallback: false,
            offload_installed: false,
            kept: [None, None],
        }
    }
}

/// A fresh chunk assembler with the geometry the stream's record carries.
fn assembler_for(rec: &StreamRecord) -> ChunkAssembler {
    let chunk = rec.chunk_size.max(1) as usize;
    ChunkAssembler::new(chunk, (rec.overlap as usize).min(chunk - 1))
}

/// A transiently failed FDIR install awaiting its next attempt.
#[derive(Debug, Clone, Copy)]
struct FdirRetry {
    core: usize,
    id: StreamId,
    uid: StreamUid,
    attempts: u32,
    next_try_ns: u64,
}

/// Per-stream control operations (the `scap_set_stream_*` family and
/// `scap_discard_stream` / `scap_keep_stream_chunk` of Table 1),
/// addressed by the capture-wide stream uid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlOp {
    /// Stop collecting data for this stream (`scap_discard_stream`).
    Discard(StreamUid),
    /// Change the stream's cutoff; `None` direction applies to both.
    SetCutoff(StreamUid, Option<Direction>, Option<u64>),
    /// Change the stream's priority (`scap_set_stream_priority`).
    SetPriority(StreamUid, u8),
    /// Merge the stream's last chunk into the next one
    /// (`scap_keep_stream_chunk`); takes effect when the delivered chunk
    /// is returned via [`ScapKernel::release_data`].
    KeepChunk(StreamUid, Direction),
    /// Change the stream's chunk size and overlap
    /// (`scap_set_stream_parameter`); applies from the next chunk.
    SetChunkGeometry(StreamUid, u32, u32),
}

/// What the kernel keeps of the last checkpoint image it wrote, so that
/// the next one re-encodes only the streams touched since (DESIGN §7,
/// "Incremental images").
#[derive(Default)]
struct LastImage {
    /// The image, byte for byte, in the kernel's own copy: whatever
    /// happens to the bytes handed to the caller — a fault plan corrupts
    /// stored images — never reaches the next one.
    bytes: Vec<u8>,
    /// `frames[core][slot]`: where the framed stream record of that flow
    /// slot sits in `bytes`; empty for a slot no image has covered.
    frames: Vec<Vec<Range<usize>>>,
}

/// One core's kernel instance.
struct CoreState {
    flows: FlowTable,
    /// Kernel-side state of every live stream, at its record's pool slot:
    /// the flow probe's `StreamId` indexes it, nothing is hashed twice.
    kstates: SideTable<StreamKState>,
    events: VecDeque<Event>,
    /// (deadline, stream, dir, chunk offset when armed) flush timers.
    flush_timers: VecDeque<(u64, StreamId, Direction, u64)>,
}

/// Aggregate capture statistics (`scap_get_stats`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ScapStats {
    /// Engine-comparable statistics.
    pub stack: StackStats,
    /// Chunks delivered.
    pub chunks: u64,
    /// Streams expired by inactivity.
    pub expired_streams: u64,
    /// FDIR install/remove operations performed.
    pub fdir_ops: u64,
    /// Offload-table install/remove/evict operations performed.
    pub offload_ops: u64,
    /// Events dropped because a queue overflowed.
    pub events_dropped: u64,
    /// Streams steered to a colder core by dynamic load balancing (§2.4).
    pub rebalanced_streams: u64,
    /// Wire packets per priority level (indices above the configured
    /// level count collapse into the top slot).
    pub wire_by_priority: [u64; 4],
    /// Overload-dropped packets per priority level (the Fig. 9 metric).
    pub dropped_by_priority: [u64; 4],
    /// Fault/recovery counters (injection, retries, governor, watchdog).
    pub resilience: ResilienceStats,
}

/// Counters for every fault handled and every degradation the pipeline
/// took to survive it. All zero in a fault-free, unloaded run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// FDIR installs rejected transiently by the hardware.
    pub fdir_transient_failures: u64,
    /// Install retry attempts made from the backoff queue.
    pub fdir_retries: u64,
    /// Retries that eventually installed the filters.
    pub fdir_retry_successes: u64,
    /// Streams whose retries were exhausted: their cutoff is enforced in
    /// software (kernel discard path) instead of at the NIC.
    pub fdir_fallback_software: u64,
    /// Installs that succeeded but took an injected latency spike.
    pub fdir_slow_installs: u64,
    /// Distinct RX descriptor-ring stall windows endured.
    pub ring_stall_windows: u64,
    /// Distinct arena pressure spikes endured.
    pub arena_spikes: u64,
    /// Frames corrupted at the trace boundary.
    pub frames_corrupted: u64,
    /// Frames truncated at the trace boundary.
    pub frames_truncated: u64,
    /// Frames duplicated at the trace boundary.
    pub frames_duplicated: u64,
    /// Timestamp anomalies (skew/repeat) injected.
    pub ts_anomalies: u64,
    /// Frames reordered at the trace boundary.
    pub frames_reordered: u64,
    /// Governor level at the time the stats were read.
    pub governor_level: u8,
    /// Highest governor level reached.
    pub governor_max_level: u8,
    /// Governor level changes (up or down).
    pub governor_transitions: u64,
    /// Packets discarded only because the governor tightened a cutoff
    /// below its configured value.
    pub governor_cutoff_clamps: u64,
    /// Low-priority streams whose pending data the governor evicted.
    pub evicted_streams: u64,
    /// Worker threads that died mid-capture (live driver watchdog).
    pub worker_panics: u64,
    /// Worker stalls detected by the heartbeat watchdog.
    pub worker_stalls_detected: u64,
    /// Replacement workers spawned by the watchdog.
    pub worker_restarts: u64,
    /// Warm restarts this capture lineage has been through (carried
    /// forward through every checkpoint and incremented on restore).
    pub restarts: u64,
    /// Checkpoints written by this instance (periodic and final).
    pub checkpoints_written: u64,
    /// Live streams restored from the checkpoint at the last restart.
    pub resumed_streams: u64,
    /// Estimated recovery latency of the last restore, in virtual
    /// cycles (deterministic cost model, not wall time).
    pub recovery_virtual_cycles: u64,
    /// Total bytes skipped across all streams in warm-restart blackout
    /// windows (the sum of per-stream `resume_gap_bytes`).
    pub resume_gap_bytes: u64,
    /// Worker slots parked by the watchdog's circuit breaker (too many
    /// panics/stalls inside the breaker window — respawning stopped).
    pub watchdog_breaker_trips: u64,
}

/// The emulated kernel module.
pub struct ScapKernel {
    cfg: ScapConfig,
    nic: Nic<Packet>,
    cores: Vec<CoreState>,
    arena: Arena,
    /// FDIR filter deadlines: (deadline, uid) → (core, id, key).
    fdir_expiries: BTreeMap<(u64, StreamUid), (usize, StreamId, FlowKey)>,
    /// Host-side shadow of stream-owned offload `Drop` rules: canonical
    /// key → owning stream, so a hardware eviction can clear the owner's
    /// `offload_installed` flag (the table itself knows only keys).
    offload_owners: HashMap<FlowKey, (usize, StreamId, StreamUid)>,
    /// Capture-wide uid → (core, id) for control operations.
    uid_index: HashMap<StreamUid, (usize, StreamId)>,
    /// Keep-chunk requests awaiting the chunk's return.
    pending_keep: std::collections::HashSet<(StreamUid, u8)>,
    uid_counter: u64,
    stats: ScapStats,
    /// Optional cache model (Fig. 7 locality experiment).
    cache: Option<CacheSim>,
    /// Synthetic DMA-buffer cursor for frame-header touches.
    dma_cursor: u64,
    /// Overload governor (escalating degradation under pressure).
    governor: OverloadGovernor,
    /// Transiently failed FDIR installs awaiting retry (backoff queue).
    fdir_retry: VecDeque<FdirRetry>,
    /// RX ring stall injection (None without a fault plan).
    ring_faults: Option<RingInjector>,
    /// Arena pressure-spike injection (None without a fault plan).
    arena_faults: Option<ArenaInjector>,
    /// `finish()` drains rings unconditionally, stall windows included.
    drain_mode: bool,
    /// Per-core telemetry counters (shard = core; the NIC-admission path
    /// records into shard 0 because no core is involved yet).
    tele: PlainRegistry,
    /// Bounded gauge time-series, sampled on core 0's timer pass and
    /// keyed on the caller's clock (virtual/trace time), so a seeded
    /// run produces a byte-identical series.
    sampler: Sampler,
    /// Always-on flight recorder: per-core ring journals of typed events
    /// with drop provenance. Every stack-level loss recorded by the
    /// accounting funnel below also lands here, so event sums reconcile
    /// with the telemetry counters by construction.
    flight: FlightRecorder,
    /// Last worker-heartbeat count reported by the driver (gauge input;
    /// 0 under the sim driver until the stack reports deliveries).
    worker_heartbeats: u64,
    /// Set by [`ScapKernel::from_image`]: the first clock observed after
    /// a warm restart re-stamps every restored flow's activity so the
    /// blackout never counts as inactivity (the process was down, the
    /// streams were not idle).
    resume_epoch_pending: bool,
    /// The multi-tenant attachment table (`scapd`), carried opaquely so
    /// tenant attachments survive checkpoint/restore with the capture.
    /// Empty for single-tenant captures.
    tenant_table: Vec<checkpoint::TenantImage>,
    /// Poll-mode burst-fill statistics (fast path only).
    fp_stats: BurstStats,
    /// Flow-table lookups performed (denominator of the mean
    /// probe-length gauge; `Metric::KernelHashProbes` is the numerator).
    flow_lookups: u64,
    /// The latency pulse plane (scap-pulse): one histogram per
    /// [`PulseStage`] plus tail-sampled exemplars. Clock-difference
    /// stages (dispatch, delivery) measure on the trace clock;
    /// processing stages record the deterministic virtual costs from
    /// [`scap_telemetry::pulse::cost`], so seeded runs are reproducible.
    pulse: Pulse,
    /// The previous checkpoint image and where each stream sits in it.
    last_image: LastImage,
    /// [`ScapKernel::poll_burst`]'s packet and hashed-key buffers, taken
    /// for the length of a burst and put back empty.
    burst_pkts: Vec<Packet>,
    burst_hashed: Vec<Option<HashedKey>>,
}

impl ScapKernel {
    /// Build the kernel side from a configuration.
    pub fn new(cfg: ScapConfig) -> Self {
        let ncores = cfg.cores.max(1);
        let cores = (0..ncores)
            .map(|i| CoreState {
                flows: FlowTable::new(FlowTableConfig::default(), 0x5CA9_0000 + i as u64),
                kstates: SideTable::new(),
                events: VecDeque::new(),
                flush_timers: VecDeque::new(),
            })
            .collect();
        let mut nic = Nic::new(ncores, cfg.rx_ring_slots);
        if cfg.use_offload {
            // The million-entry table is only allocated when the offload
            // stage is on; disabled captures keep the power-on stub.
            nic.set_offload_capacity(cfg.offload_capacity);
        }
        let mut ring_faults = None;
        let mut arena_faults = None;
        let mut flight_cap = cfg.flight_ring_cap;
        if let Some(plan) = &cfg.faults {
            nic.fdir_mut().set_fault_injector(plan.fdir_injector());
            nic.offload_mut().set_fault_injector(plan.fdir_injector());
            ring_faults = Some(plan.ring_injector());
            arena_faults = Some(plan.arena_injector(cfg.memory_bytes as u64));
            flight_cap = plan.flight.effective_cap(flight_cap);
        }
        ScapKernel {
            nic,
            arena: Arena::new(cfg.memory_bytes),
            cores,
            fdir_expiries: BTreeMap::new(),
            offload_owners: HashMap::new(),
            uid_index: HashMap::new(),
            pending_keep: std::collections::HashSet::new(),
            uid_counter: 0,
            stats: ScapStats::default(),
            cache: None,
            dma_cursor: 0,
            governor: OverloadGovernor::new(cfg.governor),
            fdir_retry: VecDeque::new(),
            ring_faults,
            arena_faults,
            drain_mode: false,
            tele: PlainRegistry::new(ncores),
            sampler: Sampler::new(cfg.telemetry_sample_interval_ns, cfg.telemetry_series_cap),
            flight: FlightRecorder::new(ncores, flight_cap),
            worker_heartbeats: 0,
            resume_epoch_pending: false,
            tenant_table: Vec::new(),
            fp_stats: BurstStats::default(),
            flow_lookups: 0,
            pulse: Pulse::new(cfg.pulse_exemplar_permille, cfg.pulse_exemplar_cap),
            last_image: LastImage::default(),
            burst_pkts: Vec::new(),
            burst_hashed: Vec::new(),
            cfg,
        }
    }

    /// First clock observation after a restore: excuse the blackout from
    /// every restored flow's idle clock. Without this, a blackout longer
    /// than the inactivity timeout would reap every resumed stream before
    /// its first post-restart packet, splitting each into a second uid.
    fn excuse_blackout(&mut self, now: u64) {
        if !self.resume_epoch_pending {
            return;
        }
        self.resume_epoch_pending = false;
        for core in 0..self.cores.len() {
            let ids: Vec<StreamId> = self.cores[core].flows.iter().map(|r| r.id).collect();
            for id in ids {
                self.cores[core].flows.touch(id, now);
            }
        }
    }

    /// Attach a cache model. The kernel then traces its memory touches —
    /// DMA'd frame headers, flow records, per-stream chunk writes — and
    /// [`ScapKernel::user_touch_chunk`] traces the worker's reads.
    pub fn set_cache(&mut self, cache: CacheSim) {
        self.cache = Some(cache);
    }

    /// Total cache misses recorded (0 when no cache model is attached).
    pub fn cache_misses(&self) -> u64 {
        self.cache.as_ref().map_or(0, |c| c.misses)
    }

    /// Synthetic per-stream chunk-region address (128 MB stride per
    /// stream, one half per direction — the "stream-specific memory
    /// regions" of the paper, laid out for the cache model).
    fn chunk_region_addr(uid: StreamUid, dir: Direction, offset: u64) -> u64 {
        0x100_0000_0000
            + uid * 0x800_0000
            + (dir.index() as u64) * 0x400_0000
            + (offset % 0x400_0000)
    }

    /// Record the worker reading a delivered chunk; returns misses.
    pub fn user_touch_chunk(&mut self, chunk: &ChunkBuf) -> u64 {
        match self.cache.as_mut() {
            Some(c) if chunk.sim_addr != 0 => c.access(chunk.sim_addr, chunk.len),
            _ => 0,
        }
    }

    /// Apply a per-stream control operation (`scap_set_stream_*`).
    /// Operations on already-terminated streams are silently ignored,
    /// matching the racy-but-safe semantics of the real socket calls.
    pub fn control(&mut self, op: ControlOp) {
        match op {
            ControlOp::Discard(uid) => {
                if let Some(&(core, id)) = self.uid_index.get(&uid) {
                    if let Some(rec) = self.cores[core].flows.get_mut(id) {
                        rec.discarded = true;
                    }
                }
            }
            ControlOp::SetCutoff(uid, dir, value) => {
                if let Some(&(core, id)) = self.uid_index.get(&uid) {
                    if let Some(rec) = self.cores[core].flows.get_mut(id) {
                        match dir {
                            Some(d) => rec.cutoff[d.index()] = value,
                            None => rec.cutoff = [value, value],
                        }
                    }
                    // A widened cutoff may re-open a stream whose old,
                    // narrower cutoff had tripped.
                    self.reopen_if_within_cutoff(core, id, uid);
                }
            }
            ControlOp::SetPriority(uid, prio) => {
                if let Some(&(core, id)) = self.uid_index.get(&uid) {
                    if let Some(rec) = self.cores[core].flows.get_mut(id) {
                        rec.priority = prio;
                    }
                }
            }
            ControlOp::KeepChunk(uid, dir) => {
                self.pending_keep.insert((uid, dir.index() as u8));
            }
            ControlOp::SetChunkGeometry(uid, chunk_size, overlap) => {
                let chunk_size = chunk_size.max(1);
                let overlap = overlap.min(chunk_size - 1);
                if let Some(&(core, id)) = self.uid_index.get(&uid) {
                    if let Some(rec) = self.cores[core].flows.get_mut(id) {
                        rec.chunk_size = chunk_size;
                        rec.overlap = overlap;
                    }
                    if let Some(ks) = self.cores[core].kstates.get_mut(id) {
                        for asm in ks.asm.iter_mut().flatten() {
                            asm.set_geometry(chunk_size as usize, overlap as usize);
                        }
                    }
                }
            }
        }
    }

    /// After a cutoff change: if the stream had tripped its (narrower)
    /// cutoff but every direction is now within the new one, re-open it —
    /// clear the exceeded flag, pull the NIC drop filters, and reset the
    /// stream's FDIR bookkeeping so data collection resumes. Shared by
    /// [`ControlOp::SetCutoff`] and the hot-reload path, which both go
    /// through [`ScapKernel::control`].
    fn reopen_if_within_cutoff(&mut self, core: usize, id: StreamId, uid: StreamUid) {
        let Some((cutoff, key, exceeded)) = self.cores[core]
            .flows
            .get(id)
            .map(|r| (r.cutoff, r.key, r.cutoff_exceeded))
        else {
            return;
        };
        if !exceeded {
            return;
        }
        let Some(ks) = self.cores[core].kstates.get(id) else {
            return; // tombstone: nothing to re-open
        };
        let still_beyond = (0..2).any(|d| {
            let off = ks.asm[d].as_ref().map_or(0, |a| a.stream_offset());
            cutoff[d].is_some_and(|c| off >= c)
        });
        if still_beyond {
            return;
        }
        let had_filters = ks.fdir_installed;
        let had_offload = ks.offload_installed;
        if let Some(rec) = self.cores[core].flows.get_mut(id) {
            rec.cutoff_exceeded = false;
        }
        let mut work = Work::default();
        if had_filters {
            self.remove_fdir_filters(key, &mut work);
            self.fdir_expiries.retain(|&(_, euid), _| euid != uid);
        }
        if had_offload {
            self.remove_offload_rule(key, &mut work);
        }
        if let Some(ks) = self.cores[core].kstates.get_mut(id) {
            ks.fdir_installed = false;
            ks.fdir_timeout_ns = FDIR_INITIAL_TIMEOUT_NS;
            ks.fdir_retry_pending = false;
            ks.fdir_software_fallback = false;
            ks.offload_installed = false;
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ScapConfig {
        &self.cfg
    }

    /// Number of cores / RX queues.
    pub fn ncores(&self) -> usize {
        self.cores.len()
    }

    /// Aggregate statistics (NIC counters merged in).
    pub fn stats(&self) -> ScapStats {
        let mut s = self.stats;
        let n = self.nic.stats();
        s.stack.nic_filtered_packets =
            n.fdir_dropped_frames + n.offload_dropped_frames + n.offload_sampled_frames;
        s.stack.dropped_packets += n.ring_dropped_frames;
        s.stack.dropped_bytes += n.ring_dropped_bytes;
        s.resilience.fdir_transient_failures = self.nic.fdir().transient_failures;
        s.resilience.fdir_slow_installs = self.nic.fdir().slow_installs;
        if let Some(inj) = &self.ring_faults {
            s.resilience.ring_stall_windows = inj.windows_seen();
        }
        if let Some(inj) = &self.arena_faults {
            s.resilience.arena_spikes = inj.spikes_seen();
        }
        let g = self.governor.stats();
        s.resilience.governor_level = self.governor.level();
        s.resilience.governor_max_level = g.max_level;
        s.resilience.governor_transitions = g.transitions;
        s
    }

    /// Stack-level delivered accounting. `ScapStats` and the telemetry
    /// registry move in lockstep through these three helpers, so the
    /// conservation identity `wire = delivered + dropped + discarded`
    /// can be cross-checked against either source.
    #[inline]
    fn acct_delivered(&mut self, core: usize, pkts: u64, bytes: u64) {
        self.stats.stack.delivered_packets += pkts;
        self.stats.stack.delivered_bytes += bytes;
        self.tele.add(core, Metric::DeliveredPackets, pkts);
        self.tele.add(core, Metric::DeliveredBytes, bytes);
    }

    /// Stack-level dropped accounting (overload losses). Every loss also
    /// lands in the flight journal with `{layer, reason, uid}` provenance
    /// — counters and events cannot diverge because they share this one
    /// funnel.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn acct_dropped(
        &mut self,
        core: usize,
        now: u64,
        uid: StreamUid,
        layer: FlightLayer,
        reason: DropReason,
        pkts: u64,
        bytes: u64,
    ) {
        self.stats.stack.dropped_packets += pkts;
        self.stats.stack.dropped_bytes += bytes;
        self.tele.add(core, Metric::DroppedPackets, pkts);
        self.tele.add(core, Metric::DroppedBytes, bytes);
        self.flight.emit(
            core,
            FlightEvent::new(FlightKind::Drop, layer, now)
                .with_reason(reason)
                .with_uid(uid)
                .with_vals(pkts, bytes),
        );
    }

    /// Stack-level discarded accounting (deliberate early discards);
    /// same funnel discipline as [`ScapKernel::acct_dropped`].
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn acct_discarded(
        &mut self,
        core: usize,
        now: u64,
        uid: StreamUid,
        layer: FlightLayer,
        reason: DropReason,
        pkts: u64,
        bytes: u64,
    ) {
        self.stats.stack.discarded_packets += pkts;
        self.stats.stack.discarded_bytes += bytes;
        self.tele.add(core, Metric::DiscardedPackets, pkts);
        self.tele.add(core, Metric::DiscardedBytes, bytes);
        self.flight.emit(
            core,
            FlightEvent::new(FlightKind::Discard, layer, now)
                .with_reason(reason)
                .with_uid(uid)
                .with_vals(pkts, bytes),
        );
    }

    /// A dispatched packet whose record or kernel state is missing (a
    /// broken internal invariant): discarded, so conservation holds.
    fn discard_internal(&mut self, core: usize, now: u64, uid: StreamUid, pkt: &Packet) {
        self.acct_discarded(
            core,
            now,
            uid,
            FlightLayer::Kernel,
            DropReason::Internal,
            1,
            pkt.len() as u64,
        );
    }

    /// The always-on flight recorder (read side: journal export, drop
    /// attribution, black-box dumps).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Export the pulse plane: per-stage latency histograms plus the
    /// tail exemplars, re-filtered against the final quantile estimates.
    pub fn pulse_snapshot(&self) -> PulseSnapshot {
        self.pulse.snapshot()
    }

    /// Mutable access to the pulse plane (drivers append spans the
    /// kernel cannot see, e.g. store-seal latency in single-process
    /// harnesses).
    pub fn pulse_mut(&mut self) -> &mut Pulse {
        &mut self.pulse
    }

    /// Record end-to-end delivery latency for one event: the delta from
    /// the producing packet's NIC-ingress timestamp to `now_ns`, the
    /// moment a worker actually received the event. Exemplar-eligible —
    /// the stream uid and the flight-journal cursor ride along so tail
    /// deliveries can be reconstructed with `scapcat --trace <uid>`.
    pub fn note_delivery(&mut self, ev: &Event, now_ns: u64) {
        let delay = now_ns.saturating_sub(ev.ingress_ns);
        let cursor = self.flight.total_recorded();
        if self
            .pulse
            .record_uid(PulseStage::Delivery, delay, ev.stream.uid, cursor)
        {
            // Journal the outlier so the exported exemplar's uid always
            // resolves in the journal its cursor points into. Delivery
            // happens on the worker side of the queue; core 0 hosts the
            // capture-wide ring, matching NIC-layer attribution.
            self.flight.emit(
                0,
                FlightEvent::new(FlightKind::PulseExemplar, FlightLayer::Worker, now_ns)
                    .with_uid(ev.stream.uid)
                    .with_vals(PulseStage::Delivery.idx() as u64, delay),
            );
        }
    }

    /// Mutable flight-recorder access for drivers: the live watchdog
    /// records worker panic/stall/restart events through this.
    pub fn flight_mut(&mut self) -> &mut FlightRecorder {
        &mut self.flight
    }

    /// The kernel's own telemetry registry (one shard per core).
    pub fn telemetry(&self) -> &PlainRegistry {
        &self.tele
    }

    /// The gauge time-series sampled so far.
    pub fn telemetry_series(&self) -> &Sampler {
        &self.sampler
    }

    /// Report the drivers' worker heartbeat count (events delivered to
    /// application callbacks); surfaces as the `worker_heartbeats` gauge.
    pub fn set_worker_heartbeats(&mut self, n: u64) {
        self.worker_heartbeats = n;
    }

    /// Capture-wide telemetry: the kernel's per-core registry merged
    /// with the NIC's per-queue registry and the arena's. Mirrors
    /// [`ScapKernel::stats`]: ring-overflowed frames are already counted
    /// as `dropped_packets` by the NIC layer, so the conservation
    /// identity holds on the merged snapshot.
    pub fn telemetry_snapshot(&self) -> Snapshot {
        let mut s = self.tele.snapshot();
        s.merge(&self.nic.telemetry().snapshot());
        s.merge(&self.arena.telemetry().snapshot());
        s
    }

    /// Current gauge values, in [`Gauge::ALL`] order.
    fn sample_gauges(&self) -> [u64; Gauge::COUNT] {
        let mut fill = 0.0f64;
        let mut backlog = 0usize;
        let mut streams = 0usize;
        let mut flow_load = 0u64;
        let mut flow_probes = 0u64;
        for c in 0..self.cores.len() {
            fill = fill.max(self.nic.queue(c).fill_level());
            backlog += self.cores[c].events.len();
            streams += self.cores[c].flows.len();
            flow_load = flow_load.max(self.cores[c].flows.load_permille());
            flow_probes += self.cores[c].flows.probes;
        }
        let mut g = [0u64; Gauge::COUNT];
        g[Gauge::RingFillPermille.idx()] = (fill * 1000.0) as u64;
        g[Gauge::ArenaUsedPermille.idx()] = (self.arena.used_fraction() * 1000.0) as u64;
        g[Gauge::EventBacklog.idx()] = backlog as u64;
        g[Gauge::GovernorLevel.idx()] = u64::from(self.governor.level());
        g[Gauge::FdirFilters.idx()] = self.nic.fdir().len() as u64;
        g[Gauge::TrackedStreams.idx()] = streams as u64;
        g[Gauge::WorkerHeartbeats.idx()] = self.worker_heartbeats;
        g[Gauge::FlowLoadPermille.idx()] = flow_load;
        g[Gauge::FlowProbeCentigroups.idx()] = flow_probes * 100 / self.flow_lookups.max(1);
        g[Gauge::FastpathFillPermille.idx()] = self.fp_stats.fill_permille();
        g[Gauge::OffloadRules.idx()] = self.nic.offload().len() as u64;
        g[Gauge::OffloadLoadPermille.idx()] = self.nic.offload().load_permille();
        g
    }

    /// Poll-mode burst-fill statistics (zeroed unless the fast path ran).
    pub fn fastpath_stats(&self) -> BurstStats {
        self.fp_stats
    }

    /// Merge frame-level fault counters observed by the driver at the
    /// trace boundary (the kernel never sees those frames pre-mangling).
    pub fn note_frame_faults(&mut self, f: FrameFaultStats) {
        let r = &mut self.stats.resilience;
        r.frames_corrupted = f.corrupted;
        r.frames_truncated = f.truncated;
        r.frames_duplicated = f.duplicated;
        r.ts_anomalies = f.ts_anomalies;
        r.frames_reordered = f.reordered;
    }

    /// Mutable access to the resilience counters (the live driver's
    /// watchdog reports worker panics/stalls/restarts through this).
    pub fn resilience_mut(&mut self) -> &mut ResilienceStats {
        &mut self.stats.resilience
    }

    /// Set an error flag on a live stream (the live driver's watchdog
    /// marks streams whose worker died mid-dispatch). No-op if the stream
    /// already terminated.
    pub fn flag_stream_error(&mut self, uid: StreamUid, err: StreamErrors) {
        if let Some(&(core, id)) = self.uid_index.get(&uid) {
            if let Some(rec) = self.cores[core].flows.get_mut(id) {
                rec.errors.set(err);
            }
        }
    }

    /// Raw NIC counters (diagnostics).
    pub fn nic_stats(&self) -> scap_nic::NicStats {
        self.nic.stats()
    }

    /// Overload-governor level in force (0 = configured behaviour).
    pub fn governor_level(&self) -> u8 {
        self.governor.level()
    }

    /// Current arena fill fraction (diagnostics).
    pub fn memory_used_fraction(&self) -> f64 {
        self.arena.used_fraction()
    }

    /// Peak arena fill fraction over the capture (diagnostics).
    pub fn memory_peak_fraction(&self) -> f64 {
        if self.cfg.memory_bytes == 0 {
            1.0
        } else {
            self.arena.peak_used as f64 / self.cfg.memory_bytes as f64
        }
    }

    /// Arena allocation failures (diagnostics).
    pub fn arena_failures(&self) -> u64 {
        self.arena.failures
    }

    /// Live FDIR filter count (diagnostics).
    pub fn fdir_filters(&self) -> usize {
        self.nic.fdir().len()
    }

    /// Live offload-rule count (diagnostics).
    pub fn offload_rules(&self) -> usize {
        self.nic.offload().len()
    }

    /// Offload-table counters: hits, per-action frames/bytes, evictions
    /// (diagnostics; the eviction fold keeps these conservation-exact).
    pub fn offload_stats(&self) -> scap_nic::OffloadStats {
        self.nic.offload().stats()
    }

    /// Offload-table fill, in permille of its rule capacity.
    pub fn offload_load_permille(&self) -> u64 {
        self.nic.offload().load_permille()
    }

    /// Install an application-supplied offload rule (`Mark`, `Sample`,
    /// `Bypass`, or a manual `Drop`) directly into the NIC table.
    pub fn offload_install(&mut self, rule: OffloadRule) -> Result<(), scap_nic::OffloadError> {
        self.stats.offload_ops += 1;
        self.nic.offload_install(rule)
    }

    /// Remove an application-supplied offload rule by flow key.
    pub fn offload_uninstall(
        &mut self,
        key: &FlowKey,
    ) -> Result<OffloadRule, scap_nic::OffloadError> {
        self.stats.offload_ops += 1;
        let r = self.nic.offload_uninstall(key);
        if r.is_ok() {
            self.offload_owners.remove(&key.canonical().0);
        }
        r
    }

    /// Pending events on a core's queue.
    pub fn event_backlog(&self, core: usize) -> usize {
        self.cores[core].events.len()
    }

    /// Streams currently tracked on a core.
    pub fn tracked_streams(&self, core: usize) -> usize {
        self.cores[core].flows.len()
    }

    /// Iterate live records on a core (tests and diagnostics).
    pub fn streams_on_core(&self, core: usize) -> impl Iterator<Item = &StreamRecord> {
        self.cores[core].flows.iter()
    }

    /// NIC admission (hardware path, not CPU-budgeted): RSS/FDIR decide
    /// the fate and queue. Returns the verdict for telemetry.
    pub fn nic_receive(&mut self, pkt: &Packet) -> NicVerdict {
        self.nic_receive_parsed(pkt, parse_frame(&pkt.frame).ok().as_ref())
    }

    /// [`ScapKernel::nic_receive`] for a caller that has already parsed
    /// the frame (a fleet parses it to pick the shard): `parsed` is
    /// `parse_frame(&pkt.frame)`, `None` where that failed.
    pub fn nic_receive_parsed(
        &mut self,
        pkt: &Packet,
        parsed: Option<&ParsedPacket<'_>>,
    ) -> NicVerdict {
        self.excuse_blackout(pkt.ts_ns);
        self.stats.stack.wire_packets += 1;
        self.stats.stack.wire_bytes += pkt.len() as u64;
        self.tele.inc(0, Metric::WirePackets);
        self.tele.add(0, Metric::WireBytes, pkt.len() as u64);
        let Some(parsed) = parsed else {
            self.acct_discarded(
                0,
                pkt.ts_ns,
                0,
                FlightLayer::Nic,
                DropReason::ParseError,
                1,
                0,
            );
            return NicVerdict::DroppedByFilter;
        };
        // Dynamic load balancing (§2.4): a brand-new stream whose RSS
        // target core is overloaded gets steered — both directions — to
        // the least-loaded core before it is ever tracked.
        if self.cfg.use_fdir_balancing {
            if let (Some(key), Some(meta)) = (parsed.key, parsed.tcp) {
                if meta.flags.is_syn_only() {
                    self.maybe_rebalance(&key);
                }
            }
        }
        let verdict = self.nic.receive(parsed, pkt.clone());
        // Pulse: deterministic admission cost, plus the offload-stage
        // consult when that stage is enabled.
        self.pulse.record(
            PulseStage::NicVerdict,
            cycles_to_ns(cost::nic_verdict_cycles(pkt.len() as u64)),
        );
        if self.cfg.use_offload {
            let hit = matches!(
                verdict,
                NicVerdict::DroppedByOffload
                    | NicVerdict::SampledByOffload
                    | NicVerdict::BypassedByOffload
            );
            self.pulse
                .record(PulseStage::Offload, cycles_to_ns(cost::offload_cycles(hit)));
        }
        match verdict {
            NicVerdict::DroppedByFilter => {
                // Subzero copy: never reaches main memory.
                self.acct_discarded(
                    0,
                    pkt.ts_ns,
                    0,
                    FlightLayer::Nic,
                    DropReason::FdirFilter,
                    1,
                    pkt.len() as u64,
                );
            }
            NicVerdict::DroppedByOffload => {
                // Programmable offload stage: a per-flow `Drop` rule cut
                // the frame off before the memory budget (subzero copy).
                self.acct_discarded(
                    0,
                    pkt.ts_ns,
                    0,
                    FlightLayer::Offload,
                    DropReason::OffloadDrop,
                    1,
                    pkt.len() as u64,
                );
            }
            NicVerdict::SampledByOffload => {
                // Deterministic 1-in-N sampling: the non-kept frames are
                // deliberate discards, same funnel as cutoff losses.
                self.acct_discarded(
                    0,
                    pkt.ts_ns,
                    0,
                    FlightLayer::Offload,
                    DropReason::OffloadSample,
                    1,
                    pkt.len() as u64,
                );
            }
            NicVerdict::BypassedByOffload => {
                // Shunted past the kernel straight to delivery accounting:
                // the stack never touches the frame but conservation still
                // must balance, so it counts as delivered here.
                self.acct_delivered(0, 1, pkt.len() as u64);
            }
            NicVerdict::DroppedRingFull(_) => {
                // The NIC layer mirrors this loss into its own registry
                // (merged in `telemetry_snapshot`), so only the flight
                // event is recorded here — no kernel-side counter bump.
                self.flight.emit(
                    0,
                    FlightEvent::new(FlightKind::Drop, FlightLayer::Nic, pkt.ts_ns)
                        .with_reason(DropReason::RingFull)
                        .with_vals(1, pkt.len() as u64),
                );
            }
            _ => {}
        }
        verdict
    }

    /// Steer a new stream away from an overloaded core (§2.4).
    fn maybe_rebalance(&mut self, key: &FlowKey) {
        let target = self.nic.rss_queue(key);
        // One pass: total, the target's count, and the first coldest core.
        let (mut total, mut coldest) = (0usize, 0usize);
        for (c, core) in self.cores.iter().enumerate() {
            total += core.flows.len();
            if core.flows.len() < self.cores[coldest].flows.len() {
                coldest = c;
            }
        }
        if total < self.cores.len() * 8 {
            return; // too few streams for imbalance to mean anything
        }
        let avg = total as f64 / self.cores.len() as f64;
        if (self.cores[target].flows.len() as f64) <= avg * self.cfg.balance_threshold {
            return;
        }
        if coldest == target || self.nic.fdir().free() < 2 {
            return;
        }
        // Steer both directions so the whole connection lands on one
        // core (the same property the symmetric RSS seed provides).
        let _ = self
            .nic
            .fdir_install(scap_nic::FdirFilter::steer(*key, coldest));
        let _ = self
            .nic
            .fdir_install(scap_nic::FdirFilter::steer(key.reversed(), coldest));
        self.stats.fdir_ops += 2;
        self.stats.rebalanced_streams += 1;
    }

    /// Process one packet from a core's RX ring. Returns the work done,
    /// or `None` when the ring was empty.
    pub fn kernel_poll(&mut self, core: usize, now: u64) -> Option<Work> {
        // An injected descriptor-ring stall: the DMA engine is wedged, so
        // polls see an empty ring. Frames keep arriving and overflow the
        // ring at the NIC; `finish()` drains regardless.
        if !self.drain_mode {
            if let Some(inj) = self.ring_faults.as_mut() {
                if inj.stalled(now) {
                    return None;
                }
            }
        }
        let pkt = self.nic.queue_mut(core).pop()?;
        let mut work = Work {
            k_packets: 1,
            k_bytes_touched: HDR_TOUCH_BYTES.min(pkt.len() as u64),
            ..Default::default()
        };
        self.process_packet(core, &pkt, now, &mut work);
        Some(work)
    }

    /// Poll-mode fast path: pull up to `fastpath_burst` packets from a
    /// core's RX ring and run the burst through the batched pipeline —
    /// parse all → hash all → flow lookup → reassembly/cutoff →
    /// delivery. Returns the burst's work receipt, or `None` when the
    /// ring was empty.
    ///
    /// Delivered streams are byte-identical to per-packet
    /// [`ScapKernel::kernel_poll`] dispatch: both funnel into the same
    /// per-packet processing and accounting, so the conservation
    /// identity and flight reconciliation hold unchanged. What differs
    /// is the cost structure: the ring pull is paid once per burst
    /// (`fp_bursts`), each packet is charged the amortized batched rate
    /// (`fp_packets`) instead of the softirq entry, and payload reaches
    /// the arena chunks by reference (no kernel copy charge).
    pub fn poll_burst(&mut self, core: usize, now: u64) -> Option<Work> {
        if !self.drain_mode {
            if let Some(inj) = self.ring_faults.as_mut() {
                if inj.stalled(now) {
                    return None;
                }
            }
        }
        let burst = self.cfg.fastpath_burst.max(1);
        let mut pkts = std::mem::take(&mut self.burst_pkts);
        scap_fastpath::pull_burst(self.nic.queue_mut(core), burst, &mut pkts);
        self.fp_stats.record(pkts.len(), burst);
        if pkts.is_empty() {
            self.burst_pkts = pkts;
            return None;
        }
        // Stage 1: parse the whole burst (header lines only).
        let parsed: Vec<Option<ParsedPacket<'_>>> =
            pkts.iter().map(|p| parse_frame(&p.frame).ok()).collect();
        // Stage 2: canonicalize + hash every key against this core's
        // table seed in one arithmetic-only sweep.
        let seed = self.cores[core].flows.seed();
        let mut hashed = std::mem::take(&mut self.burst_hashed);
        scap_fastpath::hash_burst(
            seed,
            parsed.iter().map(|p| p.as_ref().and_then(|p| p.key)),
            &mut hashed,
        );
        // Stages 3–5: prehashed flow lookup, reassembly/cutoff, delivery
        // — the same per-packet funnel the classic path uses.
        let mut work = Work {
            fp_bursts: 1,
            fp_packets: pkts.len() as u64,
            ..Default::default()
        };
        self.tele.inc(core, Metric::FastpathBursts);
        self.tele
            .add(core, Metric::FastpathPackets, pkts.len() as u64);
        for i in 0..pkts.len() {
            work.k_bytes_touched += HDR_TOUCH_BYTES.min(pkts[i].len() as u64);
            match parsed[i].as_ref() {
                None => {
                    self.acct_discarded(
                        core,
                        now,
                        0,
                        FlightLayer::Kernel,
                        DropReason::ParseError,
                        1,
                        0,
                    );
                }
                Some(p) => {
                    self.process_parsed(core, &pkts[i], p, hashed[i].as_ref(), now, &mut work)
                }
            }
        }
        // Zero-copy delivery: chunk payload is handed over by reference
        // into the arena, so the per-byte kernel copy charge of the
        // emulated path does not apply here.
        work.k_bytes_copied = 0;
        pkts.clear();
        self.burst_pkts = pkts;
        self.burst_hashed = hashed;
        Some(work)
    }

    fn next_uid(&mut self) -> StreamUid {
        self.uid_counter += 1;
        self.uid_counter
    }

    /// Memory-pressure input to the PPL verdict: arena occupancy plus the
    /// governor's per-level watermark tightening.
    fn ppl_pressure(arena: &Arena, governor: &OverloadGovernor) -> f64 {
        (arena.used_fraction() + governor.ppl_boost()).min(1.0)
    }

    fn snapshot_rec(rec: &StreamRecord, uid: StreamUid) -> StreamSnapshot {
        StreamSnapshot {
            uid,
            key: rec.key,
            first_dir: rec.first_dir,
            status: rec.status,
            errors: rec.errors,
            priority: rec.priority,
            cutoff_exceeded: rec.cutoff_exceeded,
            dirs: rec.dirs,
            first_ts_ns: rec.first_ts_ns,
            last_ts_ns: rec.last_ts_ns,
            chunks: rec.chunks,
            processing_time_ns: rec.processing_time_ns,
            resume_gap_bytes: rec.resume_gap_bytes,
        }
    }

    fn enqueue_event(&mut self, core: usize, mut ev: Event, now: u64, work: &mut Work) {
        if self.cores[core].events.len() >= self.cfg.event_queue_cap {
            self.stats.events_dropped += 1;
            self.tele.inc(core, Metric::KernelEventsDropped);
            let (uid, ts) = (ev.stream.uid, ev.stream.last_ts_ns);
            if let EventKind::Data { chunk, .. } = ev.kind {
                self.acct_dropped(
                    core,
                    ts,
                    uid,
                    FlightLayer::EventQueue,
                    DropReason::EventQueueFull,
                    0,
                    chunk.len as u64,
                );
                self.arena.release(chunk);
            }
            return;
        }
        work.k_events += 1;
        self.tele.inc(core, Metric::KernelEventsEnqueued);
        if matches!(ev.kind, EventKind::Data { .. }) {
            self.stats.chunks += 1;
            self.tele.inc(core, Metric::KernelChunksPlaced);
        }
        // Pulse: dispatch latency — NIC ingress of the producing packet
        // to event-queue admission (ring residency + kernel processing).
        ev.enqueued_ns = now;
        let cursor = self.flight.total_recorded();
        let delay = now.saturating_sub(ev.ingress_ns);
        if self
            .pulse
            .record_uid(PulseStage::KernelDispatch, delay, ev.stream.uid, cursor)
        {
            self.flight.emit(
                core,
                FlightEvent::new(FlightKind::PulseExemplar, FlightLayer::EventQueue, now)
                    .with_uid(ev.stream.uid)
                    .with_vals(PulseStage::KernelDispatch.idx() as u64, delay),
            );
        }
        self.cores[core].events.push_back(ev);
    }

    fn process_packet(&mut self, core: usize, pkt: &Packet, now: u64, work: &mut Work) {
        let Ok(parsed) = parse_frame(&pkt.frame) else {
            self.acct_discarded(
                core,
                now,
                0,
                FlightLayer::Kernel,
                DropReason::ParseError,
                1,
                0,
            );
            return;
        };
        self.process_parsed(core, pkt, &parsed, None, now, work);
    }

    /// Per-packet processing past the parse stage, shared by both
    /// dispatch paths. `prehashed` carries the canonical key, direction
    /// and table hash when the batched hash stage already computed them;
    /// the classic path passes `None` and pays for them inline. Either
    /// way the flow-table probe, stream machinery, and accounting are
    /// identical, which is what makes the two paths byte-equivalent.
    fn process_parsed(
        &mut self,
        core: usize,
        pkt: &Packet,
        parsed: &ParsedPacket<'_>,
        prehashed: Option<&HashedKey>,
        now: u64,
        work: &mut Work,
    ) {
        // Socket-wide BPF filter: discard early, in the kernel.
        if let Some(f) = &self.cfg.filter {
            if !f.matches_frame(&pkt.frame) {
                self.acct_discarded(
                    core,
                    now,
                    0,
                    FlightLayer::Kernel,
                    DropReason::BpfFilter,
                    1,
                    pkt.len() as u64,
                );
                return;
            }
        }

        let Some(key) = parsed.key else {
            self.acct_discarded(
                core,
                now,
                0,
                FlightLayer::Kernel,
                DropReason::NoFlowKey,
                1,
                0,
            );
            return;
        };

        // Flow lookup / creation. The open-addressed probe runs on the
        // canonical key and its symmetric hash; the batched path hands
        // those in precomputed, the classic path derives them here.
        let hk = match prehashed {
            Some(hk) => *hk,
            None => hash_key(self.cores[core].flows.seed(), &key),
        };
        let probes_before = self.cores[core].flows.probes;
        self.flow_lookups += 1;
        let lookup = match self.cores[core]
            .flows
            .lookup_or_insert_prehashed(&hk.canon, hk.dir, hk.hash, now)
        {
            Ok(l) => l,
            Err(_) => {
                // Flow table at its configured cap (a flood can get here):
                // the stream is lost but the capture survives.
                self.acct_dropped(
                    core,
                    now,
                    0,
                    FlightLayer::Kernel,
                    DropReason::FlowTableFull,
                    1,
                    pkt.len() as u64,
                );
                self.stats.stack.streams_lost += 1;
                return;
            }
        };
        let probes = (self.cores[core].flows.probes - probes_before).max(1);
        self.pulse.record(
            PulseStage::FlowTable,
            cycles_to_ns(cost::flow_table_cycles(probes)),
        );
        work.k_hash_probes += probes;
        self.tele.add(core, Metric::KernelHashProbes, probes);
        let id = lookup.id;
        let dir = lookup.direction;

        let probe_group = self.cores[core].flows.probe_group(hk.hash) as u64;
        if let Some(c) = self.cache.as_mut() {
            // Freshly DMA'd frame: the header lines are cold.
            self.dma_cursor = (self.dma_cursor + 2048) % (512 << 20);
            work.k_cache_misses += c.access(0x6000_0000 + self.dma_cursor, 64);
            // The open-addressed index: each probe step reads one ctrl
            // group (16 tag bytes, four groups per 64-byte line).
            let ctrl_base = 0x98_0000_0000 + ((core as u64) << 28);
            for p in 0..probes {
                work.k_cache_misses += c.access(
                    ctrl_base + (probe_group + p) * scap_flow::table::GROUP as u64,
                    scap_flow::table::GROUP,
                );
            }
            // The flow record.
            let rec_addr = 0xA0_0000_0000 + ((core as u64) << 28) + (id.slot() as u64) * 256;
            work.k_cache_misses += c.access(rec_addr, 128);
        }

        // TIME_WAIT tombstone: a stream that already terminated keeps its
        // table slot until the inactivity timeout so stray teardown ACKs
        // and late retransmissions do not spawn ghost streams. Tombstones
        // are exactly the records without kernel-side state.
        if !lookup.created && self.cores[core].kstates.get(id).is_none() {
            self.acct_discarded(
                core,
                now,
                0,
                FlightLayer::Kernel,
                DropReason::TimeWait,
                1,
                pkt.len() as u64,
            );
            self.cores[core].flows.touch(id, now);
            return;
        }

        if lookup.created {
            let uid = self.next_uid();
            let cutoffs = self.cfg.cutoff.effective(&key);
            // A `Mark` rule in the NIC offload table overrides the
            // configured priority policy: the tag rides the descriptor
            // and the PPL consumes it from stream creation on.
            let priority = self
                .nic
                .offload()
                .mark_for(&key)
                .unwrap_or_else(|| self.cfg.priorities.for_key(&key));
            // Invariant: `lookup.created` implies the slot is live.
            debug_assert!(self.cores[core].flows.get(id).is_some());
            let snap = self.cores[core].flows.get_mut(id).map(|rec| {
                rec.cutoff = cutoffs;
                rec.priority = priority;
                rec.chunk_size = self.cfg.chunk_size as u32;
                rec.overlap = self.cfg.overlap as u32;
                Self::snapshot_rec(rec, uid)
            });
            self.cores[core].kstates.insert(id, StreamKState::new(uid));
            self.uid_index.insert(uid, (core, id));
            self.stats.stack.streams_created += 1;
            self.flight.emit(
                core,
                FlightEvent::new(FlightKind::StreamCreated, FlightLayer::Kernel, now).with_uid(uid),
            );
            if let Some(snap) = snap {
                self.enqueue_event(
                    core,
                    Event {
                        stream: snap,
                        kind: EventKind::Created,
                        core,
                        ingress_ns: pkt.ts_ns,
                        enqueued_ns: 0,
                    },
                    now,
                    work,
                );
            }
        }

        // Wire accounting.
        if let Some(rec) = self.cores[core].flows.get_mut(id) {
            rec.dirs[dir.index()].total_pkts += 1;
            rec.dirs[dir.index()].total_bytes += pkt.len() as u64;
        }
        self.cores[core].flows.touch(id, now);

        match key.transport() {
            Transport::Tcp => self.process_tcp(core, id, dir, pkt, parsed, now, work),
            Transport::Udp => self.process_udp(core, id, dir, pkt, parsed, now, work),
            Transport::Other(_) => {
                // Tracked for statistics only; processing is complete.
                self.acct_delivered(core, 1, 0);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn process_tcp(
        &mut self,
        core: usize,
        id: StreamId,
        dir: Direction,
        pkt: &Packet,
        parsed: &ParsedPacket<'_>,
        now: u64,
        work: &mut Work,
    ) {
        let d = dir.index();
        let ks = self.cores[core].kstates.get(id);
        let uid = ks.map_or(0, |k| k.uid);
        let asm_offset = ks.map(|k| k.asm[d].as_ref().map_or(0, |a| a.stream_offset()));
        let Some(meta) = parsed.tcp else {
            // Transport said TCP but the header would not parse: nothing
            // to reassemble.
            self.acct_discarded(
                core,
                now,
                uid,
                FlightLayer::Kernel,
                DropReason::NoTcpHeader,
                1,
                pkt.len() as u64,
            );
            return;
        };
        let payload = parsed.payload();

        // Invariant: process_packet only dispatches live, tracked streams.
        let rec = self.cores[core].flows.get(id);
        debug_assert!(asm_offset.is_some() && rec.is_some());
        let (Some(asm_offset), Some((priority, cutoff, discarded_flag, cutoff_exceeded))) = (
            asm_offset,
            rec.map(|r| (r.priority, r.cutoff[d], r.discarded, r.cutoff_exceeded)),
        ) else {
            self.discard_internal(core, now, uid, pkt);
            return;
        };

        // Governor levels 2+ tighten every cutoff to a dynamic cap.
        let effective_cutoff = match (cutoff, self.governor.cutoff_cap()) {
            (Some(c), Some(cap)) => Some(c.min(cap)),
            (None, Some(cap)) => Some(cap),
            (c, None) => c,
        };

        let is_control = meta
            .flags
            .intersects(TcpFlags::SYN | TcpFlags::FIN | TcpFlags::RST);

        // Zero cutoff (flow-stats-only applications, §3.3.1) and
        // exceeded cutoffs: discard data before any reassembly work.
        let beyond_cutoff = effective_cutoff.is_some_and(|c| asm_offset >= c);
        let beyond_configured = cutoff.is_some_and(|c| asm_offset >= c);
        if (beyond_cutoff || discarded_flag) && !is_control && !payload.is_empty() {
            if let Some(rec) = self.cores[core].flows.get_mut(id) {
                rec.dirs[d].discarded_pkts += 1;
                rec.dirs[d].discarded_bytes += pkt.len() as u64;
                rec.cutoff_exceeded = rec.cutoff_exceeded || beyond_cutoff;
            }
            let reason = if discarded_flag && !beyond_cutoff {
                DropReason::AppDiscard
            } else if beyond_cutoff && !beyond_configured && !discarded_flag {
                DropReason::GovernorClamp
            } else {
                DropReason::Cutoff
            };
            self.acct_discarded(
                core,
                now,
                uid,
                FlightLayer::Kernel,
                reason,
                1,
                pkt.len() as u64,
            );
            if beyond_cutoff && !cutoff_exceeded {
                self.flight.emit(
                    core,
                    FlightEvent::new(FlightKind::CutoffHit, FlightLayer::Kernel, now)
                        .with_reason(reason)
                        .with_uid(uid)
                        .with_vals(asm_offset, 0),
                );
            }
            if beyond_cutoff && !beyond_configured && !discarded_flag {
                self.stats.resilience.governor_cutoff_clamps += 1;
            }
            // (Re-)install NIC drop filters: the programmable offload
            // stage first (one bidirectional rule, no timeout), falling
            // back to classic FDIR — first time normally, again with a
            // doubled timeout when an expired filter let a data packet
            // back through (§5.5).
            let offloaded = self.cfg.use_offload && self.install_offload(core, id, now, work);
            if !offloaded && self.cfg.use_fdir {
                let reinstall = cutoff_exceeded;
                self.install_fdir(core, id, now, reinstall, work);
            }
            return;
        }

        self.stats.wire_by_priority[priority.min(3) as usize] += 1;

        // Prioritized packet loss: decided before memory is spent. The
        // governor's watermark tightening rides on the pressure input.
        if !payload.is_empty()
            && self.cfg.ppl.verdict_recorded(
                Self::ppl_pressure(&self.arena, &self.governor),
                priority,
                asm_offset,
                &self.tele,
                core,
            ) != PplVerdict::Accept
        {
            if let Some(rec) = self.cores[core].flows.get_mut(id) {
                rec.dirs[d].dropped_pkts += 1;
                rec.dirs[d].dropped_bytes += pkt.len() as u64;
            }
            self.acct_dropped(
                core,
                now,
                uid,
                FlightLayer::Memory,
                DropReason::Ppl,
                1,
                pkt.len() as u64,
            );
            self.stats.dropped_by_priority[priority.min(3) as usize] += 1;
            return;
        }

        // Reassemble in place: the stream's state, its record, the
        // core's timers and the arena are disjoint borrows, so the
        // delivery sink writes chunks without anything being lifted out.
        let cs = &mut self.cores[core];
        let (Some(ks), Some(rec)) = (cs.kstates.get_mut(id), cs.flows.get_mut(id)) else {
            self.discard_internal(core, now, uid, pkt);
            return;
        };
        let conn = ks.conn.get_or_insert_with(|| {
            Box::new(TcpConn::new(
                ReasmConfig::for_mode(self.cfg.reassembly_mode)
                    .with_policy(self.cfg.overlap_policy),
            ))
        });
        let asm = ks.asm[d].get_or_insert_with(|| assembler_for(rec));

        let copied_before = asm.bytes_copied;
        let mut completed: Vec<ChunkBuf> = Vec::new();
        let mut oom = false;
        let mut first_delivery: Option<u64> = None;
        let cutoff_cap = effective_cutoff.unwrap_or(u64::MAX);
        let outcome = {
            let arena = &mut self.arena;
            let mut sink = |off: u64, data: &[u8]| {
                first_delivery.get_or_insert(off);
                if off >= cutoff_cap {
                    return;
                }
                let allowed = ((cutoff_cap - off) as usize).min(data.len());
                if asm.append(arena, &data[..allowed], &mut completed).is_err() {
                    oom = true;
                }
            };
            conn.on_segment(dir, &meta, payload, &mut sink)
        };

        let copied = asm.bytes_copied - copied_before;
        let offset_after = asm.stream_offset();
        work.k_bytes_copied += copied;
        self.tele.add(core, Metric::KernelBytesCopied, copied);
        if copied > 0 {
            if let Some(c) = self.cache.as_mut() {
                let base = Self::chunk_region_addr(uid, dir, offset_after.saturating_sub(copied));
                work.k_cache_misses += c.access(base, copied as usize);
            }
        }

        if self.cfg.need_pkts && !payload.is_empty() {
            ks.pkt_records[d].push(PacketRecord {
                ts_ns: pkt.ts_ns,
                wire_len: pkt.len() as u32,
                payload_len: payload.len() as u32,
                chunk_off: first_delivery
                    .map(|o| o.min(u64::from(u32::MAX)) as u32)
                    .unwrap_or(u32::MAX),
            });
        }

        // Per-stream accounting and error mapping.
        let captured = outcome.data.delivered > 0 || outcome.data.buffered > 0;
        let dup_only = !captured && outcome.data.duplicate > 0;
        let dstats = &mut rec.dirs[d];
        if captured {
            dstats.captured_pkts += 1;
            dstats.captured_bytes +=
                (outcome.data.delivered + outcome.data.buffered).min(payload.len() as u64);
        }
        if oom {
            dstats.dropped_pkts += 1;
            dstats.dropped_bytes += pkt.len() as u64;
        } else if dup_only {
            dstats.discarded_pkts += 1;
            dstats.discarded_bytes += outcome.data.duplicate;
        }
        // First segment after a warm restart: the hole it skipped is
        // the blackout window, annotated on the record (bounded by
        // the traffic between the checkpoint and the crash).
        if outcome.data.resume_gap > 0 {
            rec.resume_gap_bytes += outcome.data.resume_gap;
            self.stats.resilience.resume_gap_bytes += outcome.data.resume_gap;
        }
        let f = conn.flags();
        for (rf, sf) in [
            (
                ReasmFlags::INCOMPLETE_HANDSHAKE,
                StreamErrors::INCOMPLETE_HANDSHAKE,
            ),
            (ReasmFlags::SEQUENCE_GAP, StreamErrors::SEQUENCE_GAP),
            (
                ReasmFlags::INCONSISTENT_OVERLAP,
                StreamErrors::INCONSISTENT_OVERLAP,
            ),
            (ReasmFlags::INVALID_SEQUENCE, StreamErrors::INVALID_SEQUENCE),
        ] {
            if f.contains(rf) {
                rec.errors.set(sf);
            }
        }

        // Newly exceeded cutoff: flush the final partial chunk now and
        // install NIC filters so the tail never reaches memory.
        let newly_beyond = !cutoff_exceeded && effective_cutoff.is_some_and(|c| offset_after >= c);
        if newly_beyond {
            rec.cutoff_exceeded = true;
            if let Some(tail) = asm.flush() {
                if tail.len > 0 {
                    completed.push(tail);
                } else {
                    self.arena.release(tail);
                }
            }
        }

        // Flush-timer arming for the partial chunk.
        if asm.has_pending() && !ks.flush_armed[d] {
            ks.flush_armed[d] = true;
            cs.flush_timers
                .push_back((now + self.cfg.flush_timeout_ns, id, dir, offset_after));
        }
        let mut packets = Vec::new();
        if !completed.is_empty() {
            ks.flush_armed[d] = false;
            packets = std::mem::take(&mut ks.pkt_records[d]);
        }

        // Stack-level accounting. Every packet that reached this point
        // takes exactly one exit — dropped (OOM), discarded (pure
        // duplicate), or delivered — so the conservation identity
        // `wire = delivered + dropped + discarded` holds.
        if oom {
            self.acct_dropped(
                core,
                now,
                uid,
                FlightLayer::Memory,
                DropReason::ArenaOom,
                1,
                pkt.len() as u64,
            );
            self.stats.dropped_by_priority[priority.min(3) as usize] += 1;
        } else if dup_only {
            self.acct_discarded(
                core,
                now,
                uid,
                FlightLayer::Kernel,
                DropReason::Duplicate,
                1,
                outcome.data.duplicate,
            );
        } else {
            self.acct_delivered(core, 1, 0);
        }
        self.acct_delivered(core, 0, copied);

        if newly_beyond {
            let reason = if cutoff.is_some_and(|c| offset_after >= c) {
                DropReason::Cutoff
            } else {
                DropReason::GovernorClamp
            };
            self.flight.emit(
                core,
                FlightEvent::new(FlightKind::CutoffHit, FlightLayer::Kernel, now)
                    .with_reason(reason)
                    .with_uid(uid)
                    .with_vals(offset_after, 0),
            );
        }

        self.emit_data_events(core, id, dir, completed, packets, pkt.ts_ns, now, work);

        if newly_beyond && (self.cfg.use_fdir || self.cfg.use_offload) {
            let offloaded = self.cfg.use_offload && self.install_offload(core, id, now, work);
            if !offloaded && self.cfg.use_fdir {
                self.install_fdir(core, id, now, false, work);
            }
        }

        if let Some(kind) = outcome.closed_now {
            let status = match kind {
                CloseKind::Fin => StreamStatus::ClosedFin,
                CloseKind::Rst => StreamStatus::ClosedRst,
            };
            self.estimate_fdir_sizes(core, id, &meta, dir);
            self.terminate_stream(core, id, status, now, true, work);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn process_udp(
        &mut self,
        core: usize,
        id: StreamId,
        dir: Direction,
        pkt: &Packet,
        parsed: &ParsedPacket<'_>,
        now: u64,
        work: &mut Work,
    ) {
        let payload = parsed.payload();
        if payload.is_empty() {
            // Nothing to capture; the packet is fully processed.
            self.acct_delivered(core, 1, 0);
            return;
        }
        let d = dir.index();
        // Invariant: process_packet only dispatches live, tracked streams.
        // State, record and timers are borrowed in place, side by side.
        let cs = &mut self.cores[core];
        let (ks, rec) = (cs.kstates.get_mut(id), cs.flows.get_mut(id));
        debug_assert!(ks.is_some() && rec.is_some());
        let uid = ks.as_ref().map_or(0, |k| k.uid);
        let (Some(ks), Some(rec)) = (ks, rec) else {
            self.discard_internal(core, now, uid, pkt);
            return;
        };
        let (priority, cutoff, discarded_flag) = (rec.priority, rec.cutoff[d], rec.discarded);
        let effective_cutoff = match (cutoff, self.governor.cutoff_cap()) {
            (Some(c), Some(cap)) => Some(c.min(cap)),
            (None, Some(cap)) => Some(cap),
            (c, None) => c,
        };
        let asm = ks.asm[d].get_or_insert_with(|| assembler_for(rec));
        let offset = asm.stream_offset();

        let beyond_configured = cutoff.is_some_and(|c| offset >= c);
        let beyond_effective = effective_cutoff.is_some_and(|c| offset >= c);
        if beyond_effective || discarded_flag {
            let cutoff_exceeded = std::mem::replace(&mut rec.cutoff_exceeded, true);
            rec.dirs[d].discarded_pkts += 1;
            rec.dirs[d].discarded_bytes += pkt.len() as u64;
            let reason = if discarded_flag && !beyond_effective {
                DropReason::AppDiscard
            } else if beyond_effective && !beyond_configured && !discarded_flag {
                DropReason::GovernorClamp
            } else {
                DropReason::Cutoff
            };
            self.acct_discarded(
                core,
                now,
                uid,
                FlightLayer::Kernel,
                reason,
                1,
                pkt.len() as u64,
            );
            if beyond_effective && !cutoff_exceeded {
                self.flight.emit(
                    core,
                    FlightEvent::new(FlightKind::CutoffHit, FlightLayer::Kernel, now)
                        .with_reason(reason)
                        .with_uid(uid)
                        .with_vals(offset, 0),
                );
            }
            if beyond_effective && !beyond_configured && !discarded_flag {
                self.stats.resilience.governor_cutoff_clamps += 1;
            }
            return;
        }
        if self.cfg.ppl.verdict_recorded(
            Self::ppl_pressure(&self.arena, &self.governor),
            priority,
            offset,
            &self.tele,
            core,
        ) != PplVerdict::Accept
        {
            rec.dirs[d].dropped_pkts += 1;
            rec.dirs[d].dropped_bytes += pkt.len() as u64;
            self.acct_dropped(
                core,
                now,
                uid,
                FlightLayer::Memory,
                DropReason::Ppl,
                1,
                pkt.len() as u64,
            );
            return;
        }

        let cap = effective_cutoff.unwrap_or(u64::MAX);
        let allowed = ((cap - offset) as usize).min(payload.len());
        let mut completed = Vec::new();
        let oom = asm
            .append(&mut self.arena, &payload[..allowed], &mut completed)
            .is_err();
        work.k_bytes_copied += allowed as u64;
        self.tele
            .add(core, Metric::KernelBytesCopied, allowed as u64);
        if allowed > 0 {
            if let Some(c) = self.cache.as_mut() {
                let base = Self::chunk_region_addr(uid, dir, offset);
                work.k_cache_misses += c.access(base, allowed);
            }
        }

        if self.cfg.need_pkts {
            ks.pkt_records[d].push(PacketRecord {
                ts_ns: pkt.ts_ns,
                wire_len: pkt.len() as u32,
                payload_len: payload.len() as u32,
                chunk_off: offset.min(u64::from(u32::MAX)) as u32,
            });
        }
        let dstats = &mut rec.dirs[d];
        dstats.captured_pkts += 1;
        dstats.captured_bytes += allowed as u64;
        if oom {
            dstats.dropped_pkts += 1;
            dstats.dropped_bytes += pkt.len() as u64;
        }

        if asm.has_pending() && !ks.flush_armed[d] {
            ks.flush_armed[d] = true;
            cs.flush_timers.push_back((
                now + self.cfg.flush_timeout_ns,
                id,
                dir,
                asm.stream_offset(),
            ));
        }
        let mut packets = Vec::new();
        if !completed.is_empty() {
            ks.flush_armed[d] = false;
            packets = std::mem::take(&mut ks.pkt_records[d]);
        }

        // One stack-level exit per packet (conservation identity).
        if oom {
            self.acct_dropped(
                core,
                now,
                uid,
                FlightLayer::Memory,
                DropReason::ArenaOom,
                1,
                pkt.len() as u64,
            );
        } else {
            self.acct_delivered(core, 1, 0);
        }
        self.acct_delivered(core, 0, allowed as u64);
        self.emit_data_events(core, id, dir, completed, packets, pkt.ts_ns, now, work);
    }

    /// Emit data events for completed chunks of a live stream; `packets`
    /// are the records of the packets that filled them. `ingress_ns` is
    /// the NIC-ingress timestamp of the packet that completed the chunk
    /// (the flush tick for timer-driven flushes); `now` is the
    /// processing clock at emission.
    #[allow(clippy::too_many_arguments)]
    fn emit_data_events(
        &mut self,
        core: usize,
        id: StreamId,
        dir: Direction,
        completed: Vec<ChunkBuf>,
        packets: Vec<PacketRecord>,
        ingress_ns: u64,
        now: u64,
        work: &mut Work,
    ) {
        let mut packets = Some(packets);
        for chunk in completed {
            // `scap_keep_stream_chunk`: a held-back previous chunk is
            // merged in front of this one (§3.2).
            let ks = self.cores[core].kstates.get_mut(id);
            let uid = ks.as_ref().map_or(0, |k| k.uid);
            let mut chunk = match ks.and_then(|ks| ks.kept[dir.index()].take()) {
                Some(kept) => self.merge_chunks(core, kept, chunk, work),
                None => chunk,
            };
            if self.cache.is_some() {
                chunk.sim_addr = Self::chunk_region_addr(uid, dir, chunk.start_offset);
            }
            let Some(rec) = self.cores[core].flows.get_mut(id) else {
                // Record vanished mid-delivery: reclaim the chunk.
                self.arena.release(chunk);
                continue;
            };
            rec.chunks += 1;
            let ev = Event {
                stream: Self::snapshot_rec(rec, uid),
                kind: EventKind::Data {
                    dir,
                    chunk,
                    packets: packets.take().unwrap_or_default(),
                },
                core,
                ingress_ns,
                enqueued_ns: 0,
            };
            self.enqueue_event(core, ev, now, work);
        }
    }

    /// Concatenate a kept chunk with its successor into one larger chunk.
    fn merge_chunks(
        &mut self,
        core: usize,
        kept: ChunkBuf,
        next: ChunkBuf,
        work: &mut Work,
    ) -> ChunkBuf {
        let total = kept.len + next.len;
        match self.arena.alloc(total.max(1), kept.start_offset) {
            Ok(mut merged) => {
                merged.data[..kept.len].copy_from_slice(kept.bytes());
                merged.data[kept.len..total].copy_from_slice(next.bytes());
                merged.len = total;
                merged.had_error = kept.had_error || next.had_error;
                work.k_bytes_copied += total as u64;
                self.tele.add(core, Metric::KernelBytesCopied, total as u64);
                self.arena.release(kept);
                self.arena.release(next);
                merged
            }
            Err(_) => {
                // No memory to merge: deliver the newer chunk unmerged.
                self.arena.release(kept);
                next
            }
        }
    }

    /// Return a consumed data chunk, honouring any pending keep-chunk
    /// request for the stream (live-mode workers and the sim stack both
    /// route chunk returns through here).
    pub fn release_data(&mut self, uid: StreamUid, dir: Direction, chunk: ChunkBuf) {
        if self.pending_keep.remove(&(uid, dir.index() as u8)) {
            if let Some(&(core, id)) = self.uid_index.get(&uid) {
                if let Some(ks) = self.cores[core].kstates.get_mut(id) {
                    if let Some(old) = ks.kept[dir.index()].replace(chunk) {
                        self.arena.release(old);
                    }
                    return;
                }
            }
            // Stream already gone; fall through to plain release.
        }
        self.arena.release(chunk);
    }

    /// Install a per-flow `Drop` rule in the programmable offload table
    /// for a stream past its cutoff. One canonical-key rule covers both
    /// directions (vs. FDIR's four perfect-match filters) and has no
    /// timeout — it stays until the stream terminates or its cutoff is
    /// widened. Control packets (SYN/FIN/RST) keep punting to the host,
    /// so FIN/RST size estimation and termination still work. Returns
    /// `true` when the rule is live; on a transient hardware failure the
    /// caller composes with the classic FDIR install/retry path instead.
    fn install_offload(&mut self, core: usize, id: StreamId, now: u64, work: &mut Work) -> bool {
        let Some(rec) = self.cores[core].flows.get(id) else {
            return false;
        };
        let key = rec.key;
        let priority = rec.priority;
        let uid = match self.cores[core].kstates.get(id) {
            Some(ks) if ks.offload_installed => return true, // already shunting
            Some(ks) => ks.uid,
            None => return false,
        };
        // Make room under table pressure: the clock hand displaces the
        // coldest lowest-priority rule, folding its hit counters into
        // the aggregates so accounting never loses a frame.
        if self.nic.offload().free() == 0 {
            work.k_fdir_ops += 1;
            self.stats.offload_ops += 1;
            if let Some(evicted) = self.nic.offload_evict(OFFLOAD_EVICT_SCAN) {
                let ekey = evicted.key.canonical().0;
                if let Some((ecore, eid, _euid)) = self.offload_owners.remove(&ekey) {
                    if let Some(eks) = self.cores[ecore].kstates.get_mut(eid) {
                        eks.offload_installed = false;
                    }
                }
                self.flight.emit(
                    core,
                    FlightEvent::new(FlightKind::OffloadEvicted, FlightLayer::Offload, now)
                        .with_uid(uid)
                        .with_vals(u64::from(evicted.priority), 0),
                );
            }
        }
        let rule = OffloadRule::new(key, OffloadAction::Drop, priority);
        work.k_fdir_ops += 1;
        self.stats.offload_ops += 1;
        match self.nic.offload_install(rule) {
            Ok(()) | Err(OffloadError::Duplicate) => {}
            Err(_) => return false, // Busy/TableFull: fall back to FDIR
        }
        if let Some(ks) = self.cores[core].kstates.get_mut(id) {
            ks.offload_installed = true;
        }
        self.offload_owners.insert(rule.key, (core, id, uid));
        self.flight.emit(
            core,
            FlightEvent::new(FlightKind::OffloadInstalled, FlightLayer::Offload, now)
                .with_uid(uid)
                .with_vals(u64::from(rule.action.discriminant()), 1),
        );
        true
    }

    /// Remove a stream's offload rule (the canonical key covers both
    /// directions). The table folds the rule's per-entry counters into
    /// its aggregates, so no hit is ever lost to a remove.
    fn remove_offload_rule(&mut self, key: FlowKey, work: &mut Work) {
        if self.nic.offload_uninstall(&key).is_ok() {
            work.k_fdir_ops += 1;
            self.stats.offload_ops += 1;
        }
        self.offload_owners.remove(&key.canonical().0);
    }

    /// Install the paper's two FDIR drop filters for both directions of a
    /// stream past its cutoff; `reinstall` doubles the timeout.
    fn install_fdir(
        &mut self,
        core: usize,
        id: StreamId,
        now: u64,
        reinstall: bool,
        work: &mut Work,
    ) {
        let Some(rec) = self.cores[core].flows.get(id) else {
            return;
        };
        if rec.key.transport() != Transport::Tcp {
            return;
        }
        let key = rec.key;
        let uid;
        let timeout;
        {
            let Some(ks) = self.cores[core].kstates.get_mut(id) else {
                return;
            };
            if ks.fdir_installed || ks.fdir_retry_pending || ks.fdir_software_fallback {
                return;
            }
            if reinstall {
                ks.fdir_timeout_ns = ks.fdir_timeout_ns.saturating_mul(2);
            }
            uid = ks.uid;
            timeout = ks.fdir_timeout_ns;
        }

        // Make room (4 filters: two flag patterns × two directions) by
        // evicting the filters with the nearest deadline — short timeout
        // means not a long-lived stream (§5.5).
        while self.nic.fdir().free() < 4 {
            let Some((&(deadline, euid), &(ecore, eid, ekey))) = self.fdir_expiries.iter().next()
            else {
                return;
            };
            let _ = deadline;
            self.remove_fdir_filters(ekey, work);
            if let Some(ks) = self.cores[ecore].kstates.get_mut(eid) {
                ks.fdir_installed = false;
            }
            self.fdir_expiries.remove(&(deadline, euid));
            self.flight.emit(
                ecore,
                FlightEvent::new(FlightKind::FdirEvicted, FlightLayer::Fdir, now).with_uid(euid),
            );
        }

        if self.try_install_fdir_filters(key, work) {
            if let Some(ks) = self.cores[core].kstates.get_mut(id) {
                ks.fdir_installed = true;
            }
            self.fdir_expiries
                .insert((now + timeout, uid), (core, id, key));
            self.flight.emit(
                core,
                FlightEvent::new(FlightKind::FdirInstalled, FlightLayer::Fdir, now)
                    .with_uid(uid)
                    .with_vals(timeout, 0),
            );
        } else {
            self.enqueue_fdir_retry(core, id, uid, 0, now);
        }
    }

    /// Program the paper's four drop filters for a stream. On a transient
    /// hardware failure the filters already added are rolled back with
    /// targeted removes (steering filters on the same tuple survive) and
    /// `false` is returned so the caller can schedule a retry.
    fn try_install_fdir_filters(&mut self, key: FlowKey, work: &mut Work) -> bool {
        let mut added: Vec<FdirFilter> = Vec::new();
        for dkey in [key, key.reversed()] {
            for flags in [TcpFlags::ACK, TcpFlags::ACK | TcpFlags::PSH] {
                let filter = FdirFilter::drop_tcp_flags(dkey, flags);
                work.k_fdir_ops += 1;
                self.stats.fdir_ops += 1;
                match self.nic.fdir_install(filter) {
                    Ok(()) => added.push(filter),
                    Err(FdirError::Busy) => {
                        for f in &added {
                            let _ = self.nic.fdir_uninstall(&f.key, f.flex);
                            work.k_fdir_ops += 1;
                            self.stats.fdir_ops += 1;
                        }
                        return false;
                    }
                    Err(_) => {}
                }
            }
        }
        true
    }

    /// Park a transiently failed install on the backoff queue.
    fn enqueue_fdir_retry(
        &mut self,
        core: usize,
        id: StreamId,
        uid: StreamUid,
        attempts: u32,
        now: u64,
    ) {
        if let Some(ks) = self.cores[core].kstates.get_mut(id) {
            ks.fdir_retry_pending = true;
        }
        // Exponential backoff, capped, with deterministic jitter: up to
        // 25% of the raw delay, derived from the stream uid and attempt
        // number, so retriers that failed together de-synchronize
        // instead of hammering the hardware in lockstep — while a
        // seeded run stays byte-identical.
        let retry_seed = self.cfg.faults.as_ref().map_or(0, |f| f.seed);
        let delay = scap_shard::Backoff::new(FDIR_RETRY_BASE_NS, FDIR_RETRY_CAP_NS, retry_seed)
            .delay_ns(attempts, uid);
        self.tele.add(core, Metric::FdirRetriesQueued, 1);
        self.tele.add(core, Metric::FdirRetryBackoffNs, delay);
        self.flight.emit(
            core,
            FlightEvent::new(FlightKind::FdirRetryQueued, FlightLayer::Fdir, now)
                .with_uid(uid)
                .with_vals(u64::from(attempts), delay),
        );
        self.fdir_retry.push_back(FdirRetry {
            core,
            id,
            uid,
            attempts,
            next_try_ns: now.saturating_add(delay),
        });
    }

    /// Retry transiently failed FDIR installs whose backoff has elapsed.
    /// Deadlines are not monotonic across the queue (fresh failures and
    /// old backoffs interleave), so the whole queue is examined each pass
    /// and not-yet-due entries are requeued.
    fn drain_fdir_retries(&mut self, now: u64, work: &mut Work) {
        if self.fdir_retry.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.fdir_retry);
        for r in pending {
            // The stream may have terminated (and its uid been recycled
            // into a different slot) while the retry was parked.
            if self.uid_index.get(&r.uid) != Some(&(r.core, r.id)) {
                continue;
            }
            if r.next_try_ns > now {
                self.fdir_retry.push_back(r);
                continue;
            }
            self.stats.resilience.fdir_retries += 1;
            work.k_timer_ops += 1;
            if self.try_install_fdir_filters_for_retry(r, now, work) {
                self.stats.resilience.fdir_retry_successes += 1;
            }
        }
    }

    /// One retry attempt: install, or re-park with doubled backoff, or —
    /// once the attempt budget is spent — fall back to software cutoff
    /// enforcement for the stream's remaining lifetime.
    fn try_install_fdir_filters_for_retry(
        &mut self,
        r: FdirRetry,
        now: u64,
        work: &mut Work,
    ) -> bool {
        let Some(rec) = self.cores[r.core].flows.get(r.id) else {
            return false;
        };
        let key = rec.key;
        let timeout = self.cores[r.core]
            .kstates
            .get(r.id)
            .map_or(FDIR_INITIAL_TIMEOUT_NS, |ks| ks.fdir_timeout_ns);
        if self.nic.fdir().free() >= 4 && self.try_install_fdir_filters(key, work) {
            if let Some(ks) = self.cores[r.core].kstates.get_mut(r.id) {
                ks.fdir_retry_pending = false;
                ks.fdir_installed = true;
            }
            self.fdir_expiries
                .insert((now + timeout, r.uid), (r.core, r.id, key));
            self.flight.emit(
                r.core,
                FlightEvent::new(FlightKind::FdirRetryOk, FlightLayer::Fdir, now)
                    .with_uid(r.uid)
                    .with_vals(u64::from(r.attempts + 1), 0),
            );
            return true;
        }
        if r.attempts + 1 >= FDIR_RETRY_MAX_ATTEMPTS {
            // Give up on the hardware: the kernel discard path already
            // enforces the cutoff; it just costs a DMA + header touch.
            if let Some(ks) = self.cores[r.core].kstates.get_mut(r.id) {
                ks.fdir_retry_pending = false;
                ks.fdir_software_fallback = true;
            }
            self.stats.resilience.fdir_fallback_software += 1;
            self.flight.emit(
                r.core,
                FlightEvent::new(FlightKind::FdirFallback, FlightLayer::Fdir, now)
                    .with_uid(r.uid)
                    .with_vals(u64::from(r.attempts + 1), 0),
            );
        } else {
            self.enqueue_fdir_retry(r.core, r.id, r.uid, r.attempts + 1, now);
        }
        false
    }

    /// Governor level 3: reclaim the pending arena memory of the
    /// lowest-priority streams and stop collecting their data. The streams
    /// stay in the table with `discarded` set, so their statistics keep
    /// accumulating (§3.3.1 semantics) while their memory is freed.
    /// Candidates are ordered by uid so eviction is deterministic.
    fn evict_low_priority(&mut self, quota: usize, now: u64, work: &mut Work) {
        let mut candidates: Vec<(StreamUid, usize, StreamId)> = Vec::new();
        for (c, core) in self.cores.iter().enumerate() {
            for rec in core.flows.iter() {
                if rec.priority != 0 || rec.discarded {
                    continue;
                }
                if let Some(ks) = core.kstates.get(rec.id) {
                    candidates.push((ks.uid, c, rec.id));
                }
            }
        }
        candidates.sort_unstable_by_key(|&(uid, ..)| uid);
        for (uid, c, id) in candidates.into_iter().take(quota) {
            if let Some(rec) = self.cores[c].flows.get_mut(id) {
                rec.discarded = true;
            }
            let mut freed: Vec<ChunkBuf> = Vec::new();
            if let Some(ks) = self.cores[c].kstates.get_mut(id) {
                for d in [0usize, 1] {
                    if let Some(kept) = ks.kept[d].take() {
                        freed.push(kept);
                    }
                    if let Some(asm) = ks.asm[d].as_mut() {
                        if let Some(tail) = asm.flush() {
                            freed.push(tail);
                        }
                    }
                    ks.flush_armed[d] = false;
                }
            }
            for chunk in freed {
                self.acct_dropped(
                    c,
                    now,
                    uid,
                    FlightLayer::Memory,
                    DropReason::PriorityEvict,
                    0,
                    chunk.len as u64,
                );
                self.arena.release(chunk);
            }
            self.flight.emit(
                c,
                FlightEvent::new(FlightKind::StreamEvicted, FlightLayer::Governor, now)
                    .with_reason(DropReason::PriorityEvict)
                    .with_uid(uid),
            );
            self.stats.resilience.evicted_streams += 1;
            work.k_timer_ops += 1;
        }
    }

    /// Remove a stream's NIC filters by key (both directions).
    fn remove_fdir_filters(&mut self, key: FlowKey, work: &mut Work) {
        let removed = self.nic.fdir_uninstall_all_for(&key)
            + self.nic.fdir_uninstall_all_for(&key.reversed());
        if removed > 0 {
            work.k_fdir_ops += 1;
            self.stats.fdir_ops += 1;
        }
    }

    /// On FIN/RST of an FDIR-filtered stream, estimate per-direction
    /// totals from sequence numbers (per-filter NIC counters don't exist,
    /// §5.5).
    fn estimate_fdir_sizes(&mut self, core: usize, id: StreamId, meta: &TcpMeta, dir: Direction) {
        let Some(ks) = self.cores[core].kstates.get(id) else {
            return;
        };
        if !ks.fdir_installed {
            return;
        }
        let Some(conn) = ks.conn.as_ref() else { return };
        let fwd_est = conn.dir(dir).rel_offset_of(meta.seq);
        let rev_est = conn.dir(dir.flip()).rel_offset_of(meta.ack);
        if let Some(rec) = self.cores[core].flows.get_mut(id) {
            if let Some(e) = fwd_est {
                let d = &mut rec.dirs[dir.index()];
                d.total_bytes = d.total_bytes.max(e);
            }
            if let Some(e) = rev_est {
                let d = &mut rec.dirs[dir.flip().index()];
                d.total_bytes = d.total_bytes.max(e);
            }
        }
    }

    /// Terminate an in-table stream: remove it, flush everything, emit
    /// final events. With `timewait`, a tombstone record stays in the
    /// table so late packets of the 5-tuple are absorbed silently.
    fn terminate_stream(
        &mut self,
        core: usize,
        id: StreamId,
        status: StreamStatus,
        now: u64,
        timewait: bool,
        work: &mut Work,
    ) {
        let Some(mut rec) = self.cores[core].flows.remove(id) else {
            return;
        };
        let ks = self.cores[core].kstates.remove(id);
        if ks.is_none() {
            // Already-reported tombstone: drop silently.
            return;
        }
        rec.status = status;
        let key = rec.key;
        let last_ts = rec.last_ts_ns;
        self.finish_removed_stream(core, rec, ks, now, work);
        if timewait {
            // A full table just means no tombstone: late packets of the
            // 5-tuple will create a fresh (noise) stream instead.
            if let Ok(lookup) = self.cores[core].flows.lookup_or_insert(&key, last_ts) {
                if let Some(t) = self.cores[core].flows.get_mut(lookup.id) {
                    t.status = status;
                }
            }
        }
    }

    /// Flush and report a stream whose record is already out of the table.
    fn finish_removed_stream(
        &mut self,
        core: usize,
        mut rec: StreamRecord,
        ks: Option<StreamKState>,
        now: u64,
        work: &mut Work,
    ) {
        let uid = ks.as_ref().map(|k| k.uid).unwrap_or(0);
        self.uid_index.remove(&uid);
        self.pending_keep.remove(&(uid, 0));
        self.pending_keep.remove(&(uid, 1));
        if let Some(mut ks) = ks {
            for d in [0usize, 1] {
                if let Some(kept) = ks.kept[d].take() {
                    self.arena.release(kept);
                }
            }
            for d in [Direction::Forward, Direction::Reverse] {
                let mut completed: Vec<ChunkBuf> = Vec::new();
                let mut asm = ks.asm[d.index()].take();
                if let Some(conn) = ks.conn.as_mut() {
                    // Drain buffered out-of-order data.
                    let arena = &mut self.arena;
                    let chunk_size = self.cfg.chunk_size;
                    let overlap = self.cfg.overlap;
                    let mut copied = 0u64;
                    let a = asm.get_or_insert_with(|| ChunkAssembler::new(chunk_size, overlap));
                    conn.dir_mut(d).flush(&mut |_, data: &[u8]| {
                        copied += data.len() as u64;
                        let _ = a.append(arena, data, &mut completed);
                    });
                    work.k_bytes_copied += copied;
                    self.tele.add(core, Metric::KernelBytesCopied, copied);
                    self.acct_delivered(core, 0, copied);
                }
                if let Some(mut a) = asm {
                    if let Some(tail) = a.flush() {
                        if tail.len > 0 {
                            completed.push(tail);
                        } else {
                            self.arena.release(tail);
                        }
                    }
                }
                let packets = std::mem::take(&mut ks.pkt_records[d.index()]);
                let mut packets = Some(packets);
                for mut chunk in completed {
                    if self.cache.is_some() {
                        chunk.sim_addr = Self::chunk_region_addr(uid, d, chunk.start_offset);
                    }
                    rec.chunks += 1;
                    let snap = Self::snapshot_rec(&rec, uid);
                    self.enqueue_event(
                        core,
                        Event {
                            stream: snap,
                            kind: EventKind::Data {
                                dir: d,
                                chunk,
                                packets: packets.take().unwrap_or_default(),
                            },
                            core,
                            ingress_ns: now,
                            enqueued_ns: 0,
                        },
                        now,
                        work,
                    );
                }
            }
            if ks.fdir_installed || self.cfg.use_fdir_balancing {
                let key = rec.key;
                self.remove_fdir_filters(key, work);
                self.fdir_expiries.retain(|_, (_, _, k)| *k != key);
            }
            if ks.offload_installed {
                self.remove_offload_rule(rec.key, work);
            }
        }
        let snap = Self::snapshot_rec(&rec, uid);
        let (total_bytes, total_pkts) = snap.dirs.iter().fold((0u64, 0u64), |(b, p), d| {
            (b + d.total_bytes, p + d.total_pkts)
        });
        self.flight.emit(
            core,
            FlightEvent::new(
                FlightKind::StreamTerminated,
                FlightLayer::Kernel,
                rec.last_ts_ns,
            )
            .with_uid(uid)
            .with_vals(total_bytes, total_pkts),
        );
        self.enqueue_event(
            core,
            Event {
                stream: snap,
                kind: EventKind::Terminated,
                core,
                ingress_ns: now,
                enqueued_ns: 0,
            },
            now,
            work,
        );
        self.stats.stack.streams_reported += 1;
    }

    /// Periodic kernel timers for one core: flush timeouts, inactivity
    /// expiration, and (on core 0) FDIR filter timeouts.
    pub fn kernel_timers(&mut self, core: usize, now: u64) -> Work {
        self.excuse_blackout(now);
        let mut work = Work::default();

        // Flush timeouts.
        loop {
            let due = match self.cores[core].flush_timers.front() {
                Some((deadline, ..)) if *deadline <= now => {
                    self.cores[core].flush_timers.pop_front()
                }
                _ => None,
            };
            let Some((_, id, dir, armed_offset)) = due else {
                break;
            };
            // A timer outlives a stream that ended first: its id no
            // longer resolves (not even once the slot is reused).
            let Some(ks) = self.cores[core].kstates.get_mut(id) else {
                continue;
            };
            work.k_timer_ops += 1;
            ks.flush_armed[dir.index()] = false;
            let Some(asm) = ks.asm[dir.index()].as_mut() else {
                continue;
            };
            if !asm.has_pending() || asm.stream_offset() < armed_offset {
                continue;
            }
            if let Some(tail) = asm.flush() {
                if tail.len > 0 {
                    let packets = std::mem::take(&mut ks.pkt_records[dir.index()]);
                    self.emit_data_events(core, id, dir, vec![tail], packets, now, now, &mut work);
                } else {
                    self.arena.release(tail);
                }
            }
        }

        // Inactivity expiration.
        let expired = self.cores[core].flows.expire_inactive(
            now,
            self.cfg.inactivity_timeout_ns,
            EXPIRE_BATCH,
        );
        for rec in expired {
            work.k_timer_ops += 1;
            let id = rec.id;
            let ks = self.cores[core].kstates.remove(id);
            let Some(ks) = ks else {
                // TIME_WAIT tombstone aging out: already reported.
                continue;
            };
            self.flight.emit(
                core,
                FlightEvent::new(FlightKind::StreamExpired, FlightLayer::Kernel, now)
                    .with_uid(ks.uid),
            );
            self.stats.expired_streams += 1;
            self.finish_removed_stream(core, rec, Some(ks), now, &mut work);
        }

        // Capture-wide resilience machinery runs on core 0, which owns
        // the single hardware table and the (single) governor instance.
        if core == 0 {
            // Injected arena pressure spikes squeeze the budget.
            if let Some(inj) = self.arena_faults.as_mut() {
                let reserved = inj.reserved_at(now);
                self.arena.set_reserved(reserved as usize);
            }
            // Governor: pressure is the worst of arena occupancy, RX-ring
            // fill and event-queue backlog across all cores.
            let mut pressure = self.arena.used_fraction();
            for c in 0..self.cores.len() {
                pressure = pressure.max(self.nic.queue(c).fill_level());
                pressure = pressure.max(
                    self.cores[c].events.len() as f64 / self.cfg.event_queue_cap.max(1) as f64,
                );
            }
            let level_before = self.governor.level();
            self.governor.tick(now, pressure);
            if self.governor.level() != level_before {
                self.tele.inc(0, Metric::GovernorTransitions);
                self.flight.emit(
                    0,
                    FlightEvent::new(FlightKind::GovernorChange, FlightLayer::Governor, now)
                        .with_vals(u64::from(level_before), u64::from(self.governor.level())),
                );
            }
            let quota = self.governor.evict_quota();
            if quota > 0 {
                self.evict_low_priority(quota, now, &mut work);
            }
            self.drain_fdir_retries(now, &mut work);
            // Gauge refresh + bounded time-series sampling, keyed on the
            // caller's clock (deterministic per seed under simulation).
            let gauges = self.sample_gauges();
            for g in Gauge::ALL {
                self.tele.gauge_set(0, g, gauges[g.idx()]);
            }
            if self.sampler.due(now) {
                self.sampler.record(now, gauges);
            }
        }

        // FDIR filter timeouts (single hardware table; core 0 owns it).
        if core == 0 {
            // Not a while-let: the loop must end the borrow of
            // `fdir_expiries` before mutating it and the kstates.
            #[allow(clippy::while_let_loop)]
            loop {
                let Some((&(deadline, uid), &(ecore, eid, ekey))) =
                    self.fdir_expiries.iter().next()
                else {
                    break;
                };
                if deadline > now {
                    break;
                }
                self.fdir_expiries.remove(&(deadline, uid));
                self.remove_fdir_filters(ekey, &mut work);
                if let Some(ks) = self.cores[ecore].kstates.get_mut(eid) {
                    ks.fdir_installed = false;
                }
                self.flight.emit(
                    ecore,
                    FlightEvent::new(FlightKind::FdirExpired, FlightLayer::Fdir, now).with_uid(uid),
                );
                work.k_timer_ops += 1;
            }
        }
        work
    }

    /// Pop the next event from a core's queue (user side).
    pub fn next_event(&mut self, core: usize) -> Option<Event> {
        self.cores[core].events.pop_front()
    }

    /// Return a consumed data chunk's memory to the arena.
    pub fn release_chunk(&mut self, chunk: ChunkBuf) {
        self.arena.release(chunk);
    }

    /// End of capture: drain ring backlogs and terminate every remaining
    /// stream so final events and statistics are complete.
    pub fn finish(&mut self, now: u64) {
        self.drain_mode = true;
        for core in 0..self.cores.len() {
            while self.kernel_poll(core, now).is_some() {}
            let ids: Vec<StreamId> = self.cores[core].flows.iter().map(|r| r.id).collect();
            let mut work = Work::default();
            for id in ids {
                self.terminate_stream(core, id, StreamStatus::ClosedTimeout, now, false, &mut work);
            }
        }
    }

    // -----------------------------------------------------------------
    // Warm restart: checkpoint / restore / hot-reload
    // -----------------------------------------------------------------

    /// Install the multi-tenant attachment table carried in checkpoints.
    /// The kernel treats it as opaque payload: `scapd` keeps it current
    /// as tenants attach/detach so every checkpoint written through the
    /// normal path is crash-consistent with the tenant registry.
    pub fn set_tenant_table(&mut self, tenants: Vec<checkpoint::TenantImage>) {
        self.tenant_table = tenants;
    }

    /// The tenant table restored from a checkpoint (empty when the
    /// capture is single-tenant).
    pub fn tenant_table(&self) -> &[checkpoint::TenantImage] {
        &self.tenant_table
    }

    /// Snapshot the full kernel state into checkpoint-file bytes. The
    /// capture keeps running — this is the §4 two-instance trick applied
    /// to one instance: the snapshot is taken between packets, so it is
    /// always consistent. The caller persists the bytes with
    /// [`checkpoint::write_atomic`].
    pub fn checkpoint_bytes(&mut self, now_ns: u64, seq: u64) -> Vec<u8> {
        let mut out = Vec::new();
        self.checkpoint_into(now_ns, seq, &mut out);
        out
    }

    /// [`ScapKernel::checkpoint_bytes`] into a caller-owned buffer,
    /// replacing its contents: a periodic checkpointer passes the image
    /// it is about to retire and pays for no allocation.
    ///
    /// The encode is incremental. The kernel keeps its own copy of the
    /// last image and where each stream's framed record sits in it; a
    /// stream whose flow record and kernel state nobody has borrowed
    /// mutably since (the flow and side tables stamp every such borrow)
    /// is copied frame and all, and only the rest are encoded — straight
    /// from the flow tables, the assemblers' pending chunks and the
    /// reassemblers' buffered segments — and checksummed. The result is
    /// byte for byte the image a from-scratch encode produces, which a
    /// fresh or just-restored kernel, with every stream touched, does.
    pub fn checkpoint_into(&mut self, now_ns: u64, seq: u64, out: &mut Vec<u8>) {
        let globals = CheckpointGlobals {
            ts_ns: now_ns,
            uid_counter: self.uid_counter,
            governor_level: self.governor.level(),
            restarts: self.stats.resilience.restarts,
        };
        let mut last = std::mem::take(&mut self.last_image);
        out.clear();
        out.reserve(last.bytes.len());
        self.write_image(&globals, seq, out, &mut last);
        #[cfg(debug_assertions)]
        {
            let mut full = Vec::new();
            self.write_image(&globals, seq, &mut full, &mut LastImage::default());
            assert!(
                *out == full,
                "incremental checkpoint {seq} differs from a full encode"
            );
        }
        last.bytes.clone_from(out);
        self.last_image = last;
        for core in &mut self.cores {
            core.flows.next_epoch();
            core.kstates.next_epoch();
        }
        self.stats.resilience.checkpoints_written += 1;
        // Pulse: checkpoint span from the deterministic encode+sync
        // model over the image size.
        self.pulse.record(
            PulseStage::Checkpoint,
            cycles_to_ns(cost::checkpoint_cycles(out.len() as u64)),
        );
        self.flight.emit(
            0,
            FlightEvent::new(
                FlightKind::CheckpointWritten,
                FlightLayer::Checkpoint,
                now_ns,
            )
            .with_vals(seq, out.len() as u64),
        );
    }

    /// Write one image into `out`, copying from `last` the frame of every
    /// stream untouched since `last` was written and encoding the others,
    /// and leave in `last.frames` where each stream's frame now sits in
    /// `out` (the caller makes `last.bytes` match). With an empty `last`
    /// every stream is encoded.
    fn write_image(
        &self,
        globals: &CheckpointGlobals,
        seq: u64,
        out: &mut Vec<u8>,
        last: &mut LastImage,
    ) {
        // Ascending uid; the stable sort keeps TIME_WAIT tombstones
        // (uid 0) in table order.
        let mut order = Vec::new();
        for (c, core) in self.cores.iter().enumerate() {
            for rec in core.flows.iter() {
                let ks = core.kstates.get(rec.id);
                order.push((ks.map_or(0, |k| k.uid), c, rec, ks));
            }
        }
        order.sort_by_key(|&(uid, ..)| uid);
        last.frames.resize_with(self.cores.len(), Vec::new);
        let mut image = checkpoint::ImageWriter::begin(out, seq, &self.cfg, globals);
        for (uid, c, rec, ks) in order {
            let core = &self.cores[c];
            let frames = &mut last.frames[c];
            let slot = rec.id.slot();
            if slot >= frames.len() {
                frames.resize(slot + 1, 0..0);
            }
            let kept = frames[slot].clone();
            let at = image.position();
            if !kept.is_empty() && !core.flows.touched(rec.id) && !core.kstates.touched(rec.id) {
                image.stream_frame(&last.bytes[kept]);
            } else {
                image.stream(&StreamImage {
                    core: c as u32,
                    uid,
                    key: rec.key,
                    first_dir: rec.first_dir,
                    first_ts_ns: rec.first_ts_ns,
                    last_ts_ns: rec.last_ts_ns,
                    status: rec.status,
                    errors: rec.errors.0,
                    priority: rec.priority,
                    cutoff: rec.cutoff,
                    cutoff_exceeded: rec.cutoff_exceeded,
                    discarded: rec.discarded,
                    dirs: rec.dirs,
                    chunk_size: rec.chunk_size,
                    overlap: rec.overlap,
                    reassembly_policy: rec.reassembly_policy,
                    processing_time_ns: rec.processing_time_ns,
                    chunks: rec.chunks,
                    resume_gap_bytes: rec.resume_gap_bytes,
                    kstate: ks.map(|ks| KStateView {
                        fdir_installed: ks.fdir_installed,
                        fdir_timeout_ns: ks.fdir_timeout_ns,
                        fdir_software_fallback: ks.fdir_software_fallback,
                        conn: ks.conn.as_deref().map(ConnView::Live),
                        asm: ks.asm.each_ref().map(|a| {
                            a.as_ref().map(|a| AsmImage {
                                committed: a.stream_offset(),
                                pending: a.pending_bytes(),
                            })
                        }),
                    }),
                });
            }
            frames[slot] = at..image.position();
        }
        image.finish(
            &self.nic.fdir().filters(),
            &self.nic.offload().rules(),
            &self.tenant_table,
        );
    }

    /// Rebuild a kernel mid-capture from a decoded checkpoint (warm
    /// restart). Stream uids stay stable, every direction re-anchors at
    /// its committed offset, NIC drop filters are re-installed, and each
    /// restored live stream is marked [`StreamErrors::RESUMED`]. `faults`
    /// re-attaches a fault plan — plans are deliberately not part of the
    /// checkpoint, so the restarted instance chooses its own.
    pub fn from_image(
        img: CheckpointImage,
        faults: Option<FaultPlan>,
    ) -> Result<ScapKernel, CheckpointError> {
        let recovery = checkpoint::recovery_cycles(&img);
        let mut cfg = img.config.clone();
        cfg.faults = faults;
        let mut k = ScapKernel::new(cfg);
        k.uid_counter = img.globals.uid_counter;
        // Re-anchor the governor's hysteresis clock at the checkpoint
        // timestamp: the first post-restart tick sees transient pressure
        // (refilling arena, replayed backlog) and must not re-escalate.
        k.governor
            .restore_level(img.globals.governor_level, img.globals.ts_ns);
        k.tenant_table = img.tenants.clone();
        let reasm_cfg =
            ReasmConfig::for_mode(k.cfg.reassembly_mode).with_policy(k.cfg.overlap_policy);
        let mut resumed = 0u64;
        for s in &img.streams {
            let core = s.core as usize;
            let id = k.cores[core]
                .flows
                .lookup_or_insert(&s.key, s.first_ts_ns)
                .map_err(|_| {
                    CheckpointError::Corrupt(format!(
                        "flow table full restoring stream uid {}",
                        s.uid
                    ))
                })?
                .id;
            if let Some(rec) = k.cores[core].flows.get_mut(id) {
                rec.first_dir = s.first_dir;
                rec.first_ts_ns = s.first_ts_ns;
                rec.last_ts_ns = s.last_ts_ns;
                rec.status = s.status;
                rec.errors = StreamErrors(s.errors);
                rec.priority = s.priority;
                rec.cutoff = s.cutoff;
                rec.cutoff_exceeded = s.cutoff_exceeded;
                rec.discarded = s.discarded;
                rec.dirs = s.dirs;
                rec.chunk_size = s.chunk_size;
                rec.overlap = s.overlap;
                rec.reassembly_policy = s.reassembly_policy;
                rec.processing_time_ns = s.processing_time_ns;
                rec.chunks = s.chunks;
                rec.resume_gap_bytes = s.resume_gap_bytes;
            }
            k.cores[core].flows.touch(id, s.last_ts_ns);
            let Some(ksi) = &s.kstate else {
                // TIME_WAIT tombstone: the record alone absorbs stray
                // late packets, exactly as before the restart.
                continue;
            };
            resumed += 1;
            let mut ks = StreamKState::new(s.uid);
            ks.fdir_installed = ksi.fdir_installed;
            ks.fdir_timeout_ns = ksi.fdir_timeout_ns;
            ks.fdir_software_fallback = ksi.fdir_software_fallback;
            ks.conn = ksi
                .conn
                .as_ref()
                .map(|ck| Box::new(TcpConn::restore(reasm_cfg, ck)));
            let chunk_size = if s.chunk_size == 0 {
                k.cfg.chunk_size.max(1)
            } else {
                s.chunk_size as usize
            };
            let overlap = (s.overlap as usize).min(chunk_size - 1);
            for d in [0usize, 1] {
                let Some(a) = &ksi.asm[d] else { continue };
                if a.pending.len() > chunk_size {
                    return Err(CheckpointError::Corrupt(format!(
                        "stream uid {}: pending chunk larger than chunk size",
                        s.uid
                    )));
                }
                let asm = ChunkAssembler::resume(
                    &mut k.arena,
                    chunk_size,
                    overlap,
                    a.committed,
                    &a.pending,
                )
                .map_err(|_| {
                    CheckpointError::Corrupt(format!(
                        "arena exhausted restoring pending chunk of stream uid {}",
                        s.uid
                    ))
                })?;
                ks.asm[d] = Some(asm);
            }
            if ks.fdir_installed {
                k.fdir_expiries.insert(
                    (img.globals.ts_ns + ks.fdir_timeout_ns, s.uid),
                    (core, id, s.key),
                );
            }
            k.cores[core].kstates.insert(id, ks);
            k.uid_index.insert(s.uid, (core, id));
            if let Some(rec) = k.cores[core].flows.get_mut(id) {
                rec.errors.set(StreamErrors::RESUMED);
            }
            k.flight.emit(
                core,
                FlightEvent::new(
                    FlightKind::StreamResumed,
                    FlightLayer::Checkpoint,
                    img.globals.ts_ns,
                )
                .with_uid(s.uid),
            );
        }
        for f in img.fdir {
            if k.nic.fdir_install(f).is_ok() {
                k.stats.fdir_ops += 1;
            }
        }
        for r in img.offload {
            if k.nic.offload_install(r).is_ok() {
                k.stats.offload_ops += 1;
            }
        }
        // Re-derive stream ownership of `Drop` rules: the flag is a pure
        // function of (restored rules × restored streams), so it does
        // not travel in the per-stream kstate record.
        for s in &img.streams {
            if s.kstate.is_none() {
                continue;
            }
            if matches!(
                k.nic.offload().action_for(&s.key),
                Some(OffloadAction::Drop)
            ) {
                if let Some(&(core, id)) = k.uid_index.get(&s.uid) {
                    if let Some(ks) = k.cores[core].kstates.get_mut(id) {
                        ks.offload_installed = true;
                    }
                    k.offload_owners
                        .insert(s.key.canonical().0, (core, id, s.uid));
                }
            }
        }
        k.resume_epoch_pending = true;
        k.stats.resilience.restarts = img.globals.restarts + 1;
        k.stats.resilience.resumed_streams = resumed;
        k.stats.resilience.recovery_virtual_cycles = recovery;
        k.tele.record_stage(0, Stage::Restart, recovery);
        k.flight.emit(
            0,
            FlightEvent::new(
                FlightKind::Restarted,
                FlightLayer::Checkpoint,
                img.globals.ts_ns,
            )
            .with_vals(k.stats.resilience.restarts, resumed),
        );
        Ok(k)
    }

    /// Hot-reload a configuration delta onto the running kernel without
    /// stopping dispatch. Cutoff and priority changes propagate to every
    /// live stream through the same [`ControlOp`] path applications use;
    /// a *widened* cutoff re-opens streams whose old, narrower cutoff
    /// had tripped (clearing their NIC drop filters), exactly like
    /// `union_config` generalizes cutoffs for shared captures. Filter
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
        // `apply_to` owns the widening rule (generalize vs narrow); the
        // per-stream re-open below is driven by each stream's own state.
        let _widened = delta.apply_to(&mut self.cfg);
        if !cutoff_changed && !priorities_changed {
            return;
        }
        let mut uids: Vec<StreamUid> = self.uid_index.keys().copied().collect();
        uids.sort_unstable();
        for uid in uids {
            let Some(&(core, id)) = self.uid_index.get(&uid) else {
                continue;
            };
            let Some(key) = self.cores[core].flows.get(id).map(|r| r.key) else {
                continue;
            };
            if cutoff_changed {
                let cutoffs = self.cfg.cutoff.effective(&key);
                for d in [Direction::Forward, Direction::Reverse] {
                    self.control(ControlOp::SetCutoff(uid, Some(d), cutoffs[d.index()]));
                }
            }
            if priorities_changed {
                let prio = self.cfg.priorities.for_key(&key);
                self.control(ControlOp::SetPriority(uid, prio));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap_trace::gen::{CampusMix, CampusMixConfig};
    use scap_wire::PacketBuilder;

    fn kernel(cfg: ScapConfig) -> ScapKernel {
        ScapKernel::new(cfg)
    }

    fn drive(k: &mut ScapKernel, pkts: &[Packet]) {
        for (i, p) in pkts.iter().enumerate() {
            k.nic_receive(p);
            for c in 0..k.ncores() {
                while k.kernel_poll(c, p.ts_ns).is_some() {}
            }
            if i % 64 == 0 {
                for c in 0..k.ncores() {
                    k.kernel_timers(c, p.ts_ns);
                }
            }
        }
    }

    fn collect_events(k: &mut ScapKernel) -> Vec<Event> {
        let mut out = Vec::new();
        for c in 0..k.ncores() {
            while let Some(ev) = k.next_event(c) {
                out.push(ev);
            }
        }
        out
    }

    /// A simple two-direction TCP session as raw packets.
    fn http_session(payload_c: &[u8], payload_s: &[u8]) -> Vec<Packet> {
        let c = [10, 0, 0, 1];
        let s = [93, 184, 216, 34];
        let (cp, sp) = (43210, 80);
        let (ic, is) = (1000u32, 5000u32);
        let mut t = 0u64;
        let mut nt = || {
            t += 1_000_000;
            t
        };
        let mut pkts = vec![
            Packet::new(
                nt(),
                PacketBuilder::tcp_v4(c, s, cp, sp, ic, 0, TcpFlags::SYN, b""),
            ),
            Packet::new(
                nt(),
                PacketBuilder::tcp_v4(s, c, sp, cp, is, ic + 1, TcpFlags::SYN | TcpFlags::ACK, b""),
            ),
            Packet::new(
                nt(),
                PacketBuilder::tcp_v4(c, s, cp, sp, ic + 1, is + 1, TcpFlags::ACK, b""),
            ),
        ];
        let mut seq = ic + 1;
        for chunk in payload_c.chunks(1000) {
            pkts.push(Packet::new(
                nt(),
                PacketBuilder::tcp_v4(
                    c,
                    s,
                    cp,
                    sp,
                    seq,
                    is + 1,
                    TcpFlags::ACK | TcpFlags::PSH,
                    chunk,
                ),
            ));
            seq += chunk.len() as u32;
        }
        let mut sseq = is + 1;
        for chunk in payload_s.chunks(1000) {
            pkts.push(Packet::new(
                nt(),
                PacketBuilder::tcp_v4(s, c, sp, cp, sseq, seq, TcpFlags::ACK, chunk),
            ));
            sseq += chunk.len() as u32;
        }
        pkts.push(Packet::new(
            nt(),
            PacketBuilder::tcp_v4(s, c, sp, cp, sseq, seq, TcpFlags::FIN | TcpFlags::ACK, b""),
        ));
        pkts.push(Packet::new(
            nt(),
            PacketBuilder::tcp_v4(
                c,
                s,
                cp,
                sp,
                seq,
                sseq + 1,
                TcpFlags::FIN | TcpFlags::ACK,
                b"",
            ),
        ));
        pkts
    }

    #[test]
    fn session_produces_create_data_terminate() {
        let mut k = kernel(ScapConfig {
            chunk_size: 4096,
            ..Default::default()
        });
        let req = vec![b'Q'; 2000];
        let resp = vec![b'R'; 6000];
        drive(&mut k, &http_session(&req, &resp));
        let events = collect_events(&mut k);

        let created = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Created))
            .count();
        let terminated = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Terminated))
            .count();
        assert_eq!(created, 1);
        assert_eq!(terminated, 1);

        let mut fwd = Vec::new();
        let mut rev = Vec::new();
        for e in &events {
            if let EventKind::Data { dir, chunk, .. } = &e.kind {
                match dir {
                    Direction::Forward => fwd.extend_from_slice(chunk.bytes()),
                    Direction::Reverse => rev.extend_from_slice(chunk.bytes()),
                }
            }
        }
        let (a, b) = if fwd.len() == 2000 {
            (fwd, rev)
        } else {
            (rev, fwd)
        };
        assert_eq!(a, req);
        assert_eq!(b, resp);

        let st = k.stats();
        assert_eq!(st.stack.streams_created, 1);
        assert_eq!(st.stack.streams_reported, 1);
        assert_eq!(st.stack.dropped_packets, 0);
    }

    #[test]
    fn cutoff_discards_tail_and_reports_flag() {
        let mut k = kernel(ScapConfig {
            cutoff: crate::config::CutoffPolicy {
                default: Some(1000),
                ..Default::default()
            },
            chunk_size: 4096,
            ..Default::default()
        });
        let resp = vec![b'R'; 20_000];
        drive(&mut k, &http_session(b"Q", &resp));
        let events = collect_events(&mut k);
        let mut data_bytes = 0usize;
        let mut cutoff_seen = false;
        for e in &events {
            if let EventKind::Data { chunk, .. } = &e.kind {
                data_bytes += chunk.len;
            }
            if e.stream.cutoff_exceeded {
                cutoff_seen = true;
            }
        }
        assert!(data_bytes <= 2100, "data {data_bytes}");
        assert!(cutoff_seen);
        let st = k.stats();
        assert!(st.stack.discarded_packets > 10);
        let term = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Terminated))
            .unwrap();
        assert!(term.stream.total_bytes() > 20_000);
    }

    #[test]
    fn zero_cutoff_keeps_statistics_without_data() {
        let mut k = kernel(ScapConfig {
            cutoff: crate::config::CutoffPolicy {
                default: Some(0),
                ..Default::default()
            },
            ..Default::default()
        });
        drive(&mut k, &http_session(&vec![b'Q'; 3000], &vec![b'R'; 9000]));
        let events = collect_events(&mut k);
        let data: usize = events.iter().map(|e| e.data_len()).sum();
        assert_eq!(data, 0);
        let term = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Terminated))
            .unwrap();
        assert!(term.stream.total_bytes() > 12_000);
        assert!(term.stream.total_pkts() >= 15);
    }

    #[test]
    fn fdir_cutoff_drops_at_nic_but_still_terminates() {
        let mut k = kernel(ScapConfig {
            cutoff: crate::config::CutoffPolicy {
                default: Some(1000),
                ..Default::default()
            },
            use_fdir: true,
            chunk_size: 4096,
            ..Default::default()
        });
        let resp = vec![b'R'; 40_000];
        drive(&mut k, &http_session(b"Q", &resp));
        let st = k.stats();
        assert!(
            st.stack.nic_filtered_packets > 10,
            "nic filtered {}",
            st.stack.nic_filtered_packets
        );
        assert!(st.fdir_ops >= 4);
        let events = collect_events(&mut k);
        let term = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Terminated))
            .count();
        assert_eq!(term, 1);
        assert_eq!(k.fdir_filters(), 0, "filters must be removed at close");
    }

    #[test]
    fn fdir_termination_estimates_flow_size_from_fin() {
        let mut k = kernel(ScapConfig {
            cutoff: crate::config::CutoffPolicy {
                default: Some(1000),
                ..Default::default()
            },
            use_fdir: true,
            chunk_size: 4096,
            ..Default::default()
        });
        let resp = vec![b'R'; 40_000];
        drive(&mut k, &http_session(b"Q", &resp));
        let events = collect_events(&mut k);
        let term = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Terminated))
            .unwrap();
        // Even though most data packets were dropped at the NIC, the
        // FIN-sequence estimate recovers the true response size.
        assert!(
            term.stream.total_bytes() >= 40_000,
            "estimated bytes {} too small",
            term.stream.total_bytes()
        );
    }

    #[test]
    fn offload_cutoff_drops_at_nic_and_reconciles_with_flight() {
        let mut k = kernel(ScapConfig {
            cutoff: crate::config::CutoffPolicy {
                default: Some(1000),
                ..Default::default()
            },
            use_offload: true,
            offload_capacity: 1024,
            chunk_size: 4096,
            ..Default::default()
        });
        let resp = vec![b'R'; 40_000];
        drive(&mut k, &http_session(b"Q", &resp));
        let st = k.stats();
        let n = k.nic_stats();
        assert!(
            n.offload_dropped_frames > 10,
            "offload dropped {}",
            n.offload_dropped_frames
        );
        assert_eq!(st.stack.nic_filtered_packets, n.offload_dropped_frames);
        assert!(st.offload_ops >= 1);
        assert_eq!(st.fdir_ops, 0, "offload must not fall back to FDIR here");

        // Conservation: every wire packet is delivered, dropped, or
        // deliberately discarded — offload drops land in `discarded`.
        assert_eq!(
            st.stack.wire_packets,
            st.stack.delivered_packets + st.stack.dropped_packets + st.stack.discarded_packets
        );

        // Exact flight reconciliation: the journal's offload-drop events
        // sum to the NIC's counters, packets and bytes both.
        let (mut ev_pkts, mut ev_bytes) = (0u64, 0u64);
        for e in k.flight().events() {
            if e.kind == FlightKind::Discard && e.reason == DropReason::OffloadDrop {
                ev_pkts += e.a;
                ev_bytes += e.b;
            }
        }
        assert_eq!(ev_pkts, n.offload_dropped_frames);
        assert_eq!(ev_bytes, n.offload_dropped_bytes);

        // FIN punts through the drop rule, so the stream terminates and
        // its rule is uninstalled.
        let events = collect_events(&mut k);
        let term = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Terminated))
            .count();
        assert_eq!(term, 1);
        assert_eq!(k.offload_rules(), 0, "rule must be removed at close");
    }

    #[test]
    fn offload_preferred_over_fdir_when_both_enabled() {
        let mut k = kernel(ScapConfig {
            cutoff: crate::config::CutoffPolicy {
                default: Some(1000),
                ..Default::default()
            },
            use_fdir: true,
            use_offload: true,
            chunk_size: 4096,
            ..Default::default()
        });
        drive(&mut k, &http_session(b"Q", &vec![b'R'; 40_000]));
        let st = k.stats();
        assert!(st.offload_ops >= 1);
        assert_eq!(
            st.fdir_ops, 0,
            "a healthy offload table must absorb all cutoff rules"
        );
    }

    #[test]
    fn offload_mark_rule_overrides_priority_policy() {
        let mut k = kernel(ScapConfig {
            use_offload: true,
            chunk_size: 4096,
            ..Default::default()
        });
        // The application marks the flow before its first packet; the
        // stream is created with the marked priority, not the policy's.
        let key = FlowKey::new_v4([10, 0, 0, 1], [93, 184, 216, 34], 43210, 80, Transport::Tcp);
        k.offload_install(OffloadRule::new(key, OffloadAction::Mark(3), 3))
            .unwrap();
        drive(&mut k, &http_session(b"Q", b"R"));
        let events = collect_events(&mut k);
        let created = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Created))
            .unwrap();
        assert_eq!(created.stream.priority, 3);
    }

    #[test]
    fn offload_rules_survive_warm_restart() {
        let mut k = kernel(ScapConfig {
            cutoff: crate::config::CutoffPolicy {
                default: Some(1000),
                ..Default::default()
            },
            use_offload: true,
            chunk_size: 4096,
            ..Default::default()
        });
        // Drive data past the cutoff but stop before FIN, so the drop
        // rule is still installed at checkpoint time.
        let pkts = http_session(b"Q", &vec![b'R'; 40_000]);
        let data_only = &pkts[..pkts.len() - 2];
        drive(&mut k, data_only);
        assert_eq!(k.offload_rules(), 1);
        let last_ts = data_only.last().unwrap().ts_ns;

        let bytes = k.checkpoint_bytes(last_ts, 1);
        let img = CheckpointImage::decode(&bytes).expect("checkpoint decodes");
        assert_eq!(img.offload.len(), 1, "rule must travel in the image");
        let mut k2 = ScapKernel::from_image(img, None).expect("restore");
        assert_eq!(k2.offload_rules(), 1, "rule re-programmed on restore");

        // A post-restart data packet of the shunted flow still dies at
        // the NIC — the restored stream owns its rule again.
        let before = k2.nic_stats().offload_dropped_frames;
        let late = Packet::new(
            last_ts + 1_000_000,
            PacketBuilder::tcp_v4(
                [93, 184, 216, 34],
                [10, 0, 0, 1],
                80,
                43210,
                45_001,
                1002,
                TcpFlags::ACK,
                &[b'R'; 500],
            ),
        );
        let verdict = k2.nic_receive(&late);
        assert_eq!(verdict, NicVerdict::DroppedByOffload);
        assert_eq!(k2.nic_stats().offload_dropped_frames, before + 1);
    }

    #[test]
    fn inactivity_timeout_expires_streams() {
        let mut k = kernel(ScapConfig {
            inactivity_timeout_ns: 1_000_000_000,
            ..Default::default()
        });
        let p1 = Packet::new(
            0,
            PacketBuilder::udp_v4([1, 1, 1, 1], [2, 2, 2, 2], 100, 53, b"q1"),
        );
        let p2 = Packet::new(
            1_000_000,
            PacketBuilder::udp_v4([2, 2, 2, 2], [1, 1, 1, 1], 53, 100, b"r1"),
        );
        drive(&mut k, &[p1, p2]);
        for c in 0..k.ncores() {
            k.kernel_timers(c, 5_000_000_000);
        }
        let events = collect_events(&mut k);
        let term: Vec<&Event> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Terminated))
            .collect();
        assert_eq!(term.len(), 1);
        assert_eq!(term[0].stream.status, StreamStatus::ClosedTimeout);
        assert_eq!(k.stats().expired_streams, 1);
        let data: usize = events.iter().map(|e| e.data_len()).sum();
        assert_eq!(data, 4);
    }

    #[test]
    fn flush_timeout_delivers_partial_chunks() {
        let mut k = kernel(ScapConfig {
            flush_timeout_ns: 50_000_000,
            chunk_size: 1 << 20, // chunk will never fill on its own
            ..Default::default()
        });
        // Handshake + one data packet, no close.
        let pkts = &http_session(&vec![b'Q'; 500], b"")[..5];
        drive(&mut k, pkts);
        // Before the flush timeout: no data event.
        let before: usize = {
            let evs = collect_events(&mut k);
            evs.iter().map(|e| e.data_len()).sum()
        };
        assert_eq!(before, 0);
        // After the timeout fires the partial chunk is delivered.
        for c in 0..k.ncores() {
            k.kernel_timers(c, 1_000_000_000);
        }
        let after: usize = collect_events(&mut k).iter().map(|e| e.data_len()).sum();
        assert_eq!(after, 500);
    }

    /// Flush timers are not scrubbed when a stream ends; the fire path
    /// tells a dead stream's timer from its slot's next tenant by id.
    #[test]
    fn a_dead_streams_flush_timer_spares_the_successor_in_its_slot() {
        let mut k = kernel(ScapConfig {
            cores: 1,
            flush_timeout_ns: 50_000_000,
            chunk_size: 1 << 20,
            ..Default::default()
        });
        let data_len =
            |k: &mut ScapKernel| -> usize { collect_events(k).iter().map(|e| e.data_len()).sum() };
        // Stream A arms a timer (due at 54 ms) and ends before it fires.
        drive(&mut k, &http_session(&[b'A'; 500], b"")[..4]);
        let a = k.streams_on_core(0).next().unwrap().id;
        assert_eq!(k.cores[0].flush_timers.len(), 1);
        let mut work = Work::default();
        k.terminate_stream(
            0,
            a,
            StreamStatus::ClosedTimeout,
            5_000_000,
            false,
            &mut work,
        );
        assert_eq!(data_len(&mut k), 500);
        // Stream B moves into A's slot and arms its own (due at 80 ms).
        let b_frame = PacketBuilder::udp_v4([10, 0, 0, 2], [10, 0, 0, 3], 5000, 53, &[b'B'; 300]);
        drive(&mut k, &[Packet::new(30_000_000, b_frame)]);
        let b = k.streams_on_core(0).next().unwrap().id;
        assert_eq!(b.slot(), a.slot());
        assert_ne!(b, a);
        // A's timer comes due: no flush, no timer work, B stays armed.
        assert_eq!(k.kernel_timers(0, 60_000_000).k_timer_ops, 0);
        assert_eq!(data_len(&mut k), 0);
        assert!(k.cores[0]
            .kstates
            .get(b)
            .unwrap()
            .flush_armed
            .contains(&true));
        // B's own timer still delivers its partial chunk.
        assert_eq!(k.kernel_timers(0, 90_000_000).k_timer_ops, 1);
        assert_eq!(data_len(&mut k), 300);
    }

    #[test]
    fn ppl_sheds_low_priority_first_under_memory_pressure() {
        use scap_filter::Filter;
        let mut cfg = ScapConfig {
            memory_bytes: 64 << 10,
            chunk_size: 4 << 10,
            ppl: scap_memory::PplConfig {
                base_threshold: 0.25,
                num_priorities: 2,
                overload_cutoff: None,
            },
            ..Default::default()
        };
        cfg.priorities
            .classes
            .push((Filter::new("port 80").unwrap(), 1));
        let mut k = kernel(cfg);

        let mut pkts = Vec::new();
        for f in 0..20u8 {
            let port = if f % 2 == 0 { 80 } else { 9000 + u16::from(f) };
            let c = [10, 0, 1, f];
            let s = [20, 0, 0, 1];
            let isn = 100u32;
            let mut v = Vec::new();
            v.push(PacketBuilder::tcp_v4(
                c,
                s,
                5000,
                port,
                isn,
                0,
                TcpFlags::SYN,
                b"",
            ));
            v.push(PacketBuilder::tcp_v4(
                s,
                c,
                port,
                5000,
                7,
                isn + 1,
                TcpFlags::SYN | TcpFlags::ACK,
                b"",
            ));
            let mut seq = isn + 1;
            for _ in 0..8 {
                let payload = vec![0x41u8; 1400];
                v.push(PacketBuilder::tcp_v4(
                    c,
                    s,
                    5000,
                    port,
                    seq,
                    8,
                    TcpFlags::ACK,
                    &payload,
                ));
                seq += 1400;
            }
            for (i, frame) in v.into_iter().enumerate() {
                pkts.push(Packet::new((i as u64) * 1000, frame));
            }
        }
        pkts.sort_by_key(|p| p.ts_ns);
        // Events are never consumed, so the arena fills and PPL must act.
        drive(&mut k, &pkts);

        let st = k.stats();
        assert!(st.stack.dropped_packets > 0, "no PPL drops under pressure");

        let mut hi_drops = 0u64;
        let mut lo_drops = 0u64;
        for c in 0..k.ncores() {
            for rec in k.streams_on_core(c) {
                let drops = rec.dirs[0].dropped_pkts + rec.dirs[1].dropped_pkts;
                if rec.priority == 1 {
                    hi_drops += drops;
                } else {
                    lo_drops += drops;
                }
            }
        }
        assert!(
            hi_drops <= lo_drops,
            "high-priority drops {hi_drops} exceed low-priority {lo_drops}"
        );
    }

    #[test]
    fn campus_trace_roundtrip_accounting() {
        let mut k = kernel(ScapConfig {
            memory_bytes: 64 << 20,
            ..Default::default()
        });
        let pkts = CampusMix::new(CampusMixConfig::sized(11, 4 << 20)).collect_all();
        drive(&mut k, &pkts);
        k.finish(u64::MAX / 2);
        let events = collect_events(&mut k);
        let st = k.stats();
        assert_eq!(st.stack.wire_packets, pkts.len() as u64);
        assert_eq!(st.stack.dropped_packets, 0, "no overload expected");
        assert!(st.stack.streams_created > 10);
        assert_eq!(st.stack.streams_created, st.stack.streams_reported);
        let created = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Created))
            .count();
        let terminated = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Terminated))
            .count();
        assert_eq!(created as u64, st.stack.streams_created);
        assert_eq!(terminated as u64, st.stack.streams_reported);
    }

    #[test]
    fn need_pkts_produces_packet_records() {
        let mut k = kernel(ScapConfig {
            need_pkts: true,
            chunk_size: 2048,
            ..Default::default()
        });
        drive(&mut k, &http_session(&vec![b'Q'; 3000], &vec![b'R'; 3000]));
        let events = collect_events(&mut k);
        let mut recs = 0;
        for e in &events {
            if let EventKind::Data { packets, .. } = &e.kind {
                recs += packets.len();
            }
        }
        assert!(recs >= 6, "packet records missing: {recs}");
    }

    #[test]
    fn fdir_load_balancing_spreads_a_skewed_workload() {
        use scap_nic::RssHasher;
        use scap_wire::{FlowKey, Transport};
        // Craft client ports so every flow RSS-hashes to queue 0: a
        // worst-case skew no static hash can fix.
        let rss = RssHasher::symmetric(4);
        let server = [192, 0, 2, 1];
        let client = [10, 0, 0, 1];
        let mut skewed_ports = Vec::new();
        let mut port = 1024u16;
        while skewed_ports.len() < 64 {
            let key = FlowKey::new_v4(client, server, port, 80, Transport::Tcp);
            if rss.queue_for(&key) == 0 {
                skewed_ports.push(port);
            }
            port += 1;
        }

        let run = |balance: bool| -> (Vec<usize>, u64) {
            let mut k = kernel(ScapConfig {
                cores: 4,
                use_fdir_balancing: balance,
                balance_threshold: 1.2,
                ..Default::default()
            });
            let mut pkts = Vec::new();
            for (i, &p) in skewed_ports.iter().enumerate() {
                let t0 = i as u64 * 1_000_000;
                pkts.push(Packet::new(
                    t0,
                    PacketBuilder::tcp_v4(client, server, p, 80, 1, 0, TcpFlags::SYN, b""),
                ));
                pkts.push(Packet::new(
                    t0 + 1000,
                    PacketBuilder::tcp_v4(
                        server,
                        client,
                        80,
                        p,
                        9,
                        2,
                        TcpFlags::SYN | TcpFlags::ACK,
                        b"",
                    ),
                ));
                pkts.push(Packet::new(
                    t0 + 2000,
                    PacketBuilder::tcp_v4(
                        client,
                        server,
                        p,
                        80,
                        2,
                        10,
                        TcpFlags::ACK,
                        &[0x41; 100],
                    ),
                ));
            }
            drive(&mut k, &pkts);
            let counts = (0..k.ncores()).map(|c| k.tracked_streams(c)).collect();
            (counts, k.stats().rebalanced_streams)
        };

        let (skew_counts, rebalanced_off) = run(false);
        assert_eq!(rebalanced_off, 0);
        assert_eq!(skew_counts[0], 64, "skew setup failed: {skew_counts:?}");

        let (bal_counts, rebalanced_on) = run(true);
        assert!(
            rebalanced_on > 10,
            "only {rebalanced_on} streams rebalanced"
        );
        let max = *bal_counts.iter().max().unwrap();
        assert!(max < 64, "balancing had no effect: {bal_counts:?}");
        // Streams ended up on more than one core.
        assert!(bal_counts.iter().filter(|&&c| c > 0).count() >= 2);
    }

    #[test]
    fn bpf_filter_discards_early() {
        use scap_filter::Filter;
        let mut k = kernel(ScapConfig {
            filter: Some(Filter::new("port 9999").unwrap()),
            ..Default::default()
        });
        drive(&mut k, &http_session(&vec![b'Q'; 500], &vec![b'R'; 500]));
        let st = k.stats();
        assert_eq!(st.stack.streams_created, 0);
        assert!(st.stack.discarded_packets > 0);
    }

    /// Drive with the same group cadence through either dispatch path
    /// and transcribe everything delivered: for each event, the stream
    /// uid plus the exact chunk payload (or record kind). Byte-identical
    /// transcripts mean byte-identical delivery.
    fn delivery_transcript(fastpath: bool, pkts: &[Packet]) -> (Vec<u8>, ScapStats, Vec<u8>) {
        let mut k = kernel(ScapConfig {
            dispatch: if fastpath {
                crate::DispatchMode::Fastpath
            } else {
                crate::DispatchMode::Classic
            },
            fastpath_burst: 32,
            memory_bytes: 64 << 20,
            ..Default::default()
        });
        let mut transcript = Vec::new();
        for group in pkts.chunks(48) {
            let now = group.last().unwrap().ts_ns;
            for p in group {
                k.nic_receive(p);
            }
            for c in 0..k.ncores() {
                if fastpath {
                    while k.poll_burst(c, now).is_some() {}
                } else {
                    while k.kernel_poll(c, now).is_some() {}
                }
                k.kernel_timers(c, now);
            }
            for ev in collect_events(&mut k) {
                transcript.extend_from_slice(&ev.stream.uid.to_le_bytes());
                match ev.kind {
                    EventKind::Data { dir, chunk, .. } => {
                        transcript.push(0x10 | dir.index() as u8);
                        transcript.extend_from_slice(&chunk.start_offset.to_le_bytes());
                        transcript.extend_from_slice(&chunk.data[..chunk.len]);
                        k.release_data(ev.stream.uid, dir, chunk);
                    }
                    EventKind::Created => transcript.push(1),
                    EventKind::Terminated => transcript.push(2),
                }
            }
        }
        k.finish(pkts.last().map_or(1, |p| p.ts_ns + 1));
        for ev in collect_events(&mut k) {
            transcript.extend_from_slice(&ev.stream.uid.to_le_bytes());
            if let EventKind::Data { dir, chunk, .. } = ev.kind {
                transcript.push(0x10 | dir.index() as u8);
                transcript.extend_from_slice(&chunk.start_offset.to_le_bytes());
                transcript.extend_from_slice(&chunk.data[..chunk.len]);
                k.release_data(ev.stream.uid, dir, chunk);
            } else {
                transcript.push(0);
            }
        }
        let flight = k.flight().encode();
        (transcript, k.stats(), flight)
    }

    #[test]
    fn fastpath_delivers_byte_identical_streams() {
        let pkts = CampusMix::new(CampusMixConfig::sized(23, 2 << 20)).collect_all();
        let (classic, classic_stats, _) = delivery_transcript(false, &pkts);
        let (fast, fast_stats, fast_flight) = delivery_transcript(true, &pkts);
        assert!(!classic.is_empty());
        assert_eq!(classic, fast, "fast-path delivery diverged from classic");

        // Conservation identity holds exactly on the fast path.
        let s = fast_stats.stack;
        assert_eq!(
            s.wire_packets,
            s.delivered_packets + s.dropped_packets + s.discarded_packets,
            "fast-path conservation identity violated"
        );
        assert_eq!(s.wire_packets, classic_stats.stack.wire_packets);
        assert_eq!(s.delivered_packets, classic_stats.stack.delivered_packets);
        assert_eq!(s.streams_created, classic_stats.stack.streams_created);

        // Same seed, same path: the full flight journal is reproducible
        // byte for byte.
        let (_, _, fast_flight2) = delivery_transcript(true, &pkts);
        assert_eq!(fast_flight, fast_flight2);
    }

    #[test]
    fn fastpath_counts_bursts_and_checkpoints_dispatch_mode() {
        let pkts = CampusMix::new(CampusMixConfig::sized(5, 256 << 10)).collect_all();
        let mut k = kernel(ScapConfig {
            dispatch: crate::DispatchMode::Fastpath,
            fastpath_burst: 16,
            ..Default::default()
        });
        for p in &pkts {
            k.nic_receive(p);
        }
        let now = pkts.last().unwrap().ts_ns;
        for c in 0..k.ncores() {
            while k.poll_burst(c, now).is_some() {}
            k.kernel_timers(c, now);
        }
        let fp = k.fastpath_stats();
        assert!(fp.bursts > 0, "no bursts recorded");
        assert_eq!(fp.packets, pkts.len() as u64);
        assert!(fp.fill_permille() > 0);
        let snap = k.telemetry_snapshot();
        assert_eq!(snap.total(Metric::FastpathPackets), pkts.len() as u64);
        assert_eq!(snap.total(Metric::FastpathBursts), fp.bursts);

        // The dispatch mode and burst size survive checkpoint/restore,
        // so a warm-restarted capture resumes on the same path.
        let bytes = k.checkpoint_bytes(now, 1);
        let img = CheckpointImage::decode(&bytes).unwrap();
        let restored = ScapKernel::from_image(img, None).unwrap();
        assert_eq!(restored.config().dispatch, crate::DispatchMode::Fastpath);
        assert_eq!(restored.config().fastpath_burst, 16);
    }

    /// Feed `pkts` through whichever dispatch path the kernel is
    /// configured for, handing every chunk straight back.
    fn service_all(k: &mut ScapKernel, pkts: &[Packet]) {
        for p in pkts {
            k.nic_receive(p);
            k.service(p.ts_ns, |k, ev| k.release_event(ev));
        }
    }

    /// A kernel stopped mid-`CampusMix` with partial chunks pending and
    /// out-of-order segments buffered, and the trace it was fed.
    fn mid_capture(dispatch: crate::DispatchMode) -> (ScapKernel, Vec<Packet>, usize) {
        let pkts = CampusMix::new(CampusMixConfig::sized(9, 2 << 20)).collect_all();
        let mut k = kernel(ScapConfig {
            dispatch,
            chunk_size: 4096,
            inactivity_timeout_ns: 2_000_000_000,
            ..Default::default()
        });
        // Stop at the first packet (past the middle) that leaves both
        // kinds of borrowed payload in the kernel.
        let mut stop = pkts.len() / 2;
        service_all(&mut k, &pkts[..stop]);
        let both = |k: &ScapKernel| {
            let states = || k.cores.iter().flat_map(|c| c.kstates.values());
            states().any(|ks| {
                ks.asm
                    .iter()
                    .flatten()
                    .any(|a| !a.pending_bytes().is_empty())
            }) && states().any(|ks| {
                ks.conn.as_ref().is_some_and(|c| {
                    c.dir(Direction::Forward).buffered_bytes()
                        + c.dir(Direction::Reverse).buffered_bytes()
                        > 0
                })
            })
        };
        while !both(&k) {
            service_all(&mut k, &pkts[stop..stop + 1]);
            stop += 1;
        }
        (k, pkts, stop)
    }

    #[test]
    fn one_pass_image_equals_the_owned_re_encode_and_resumes() {
        for dispatch in [crate::DispatchMode::Classic, crate::DispatchMode::Fastpath] {
            let (mut k, pkts, stop) = mid_capture(dispatch);
            let now = pkts[stop - 1].ts_ns;
            let mut bytes = Vec::new();
            k.checkpoint_into(now, 4, &mut bytes);
            let img = CheckpointImage::decode(&bytes).expect("image decodes");
            assert!(img.streams.len() > 10, "{dispatch:?}: trivial image");
            assert_eq!(
                img.to_bytes(),
                bytes,
                "{dispatch:?}: borrowed and owned encodings differ"
            );

            // … and the capture resumes from it to the end of the trace.
            let live_streams = img.streams.iter().filter(|s| s.kstate.is_some()).count();
            let mut k2 = ScapKernel::from_image(img, None).expect("restore");
            service_all(&mut k2, &pkts[stop..]);
            k2.finish(pkts.last().unwrap().ts_ns + 1);
            for ev in collect_events(&mut k2) {
                k2.release_event(ev);
            }
            let st = k2.stats();
            assert_eq!(st.resilience.restarts, 1);
            assert_eq!(st.resilience.resumed_streams, live_streams as u64);
            assert!(st.stack.streams_created > 0);
        }
    }

    #[test]
    fn checkpoint_into_leaves_no_stale_tail_in_a_reused_buffer() {
        let (mut k, pkts, stop) = mid_capture(crate::DispatchMode::Classic);
        let now = pkts[stop - 1].ts_ns;
        let fresh = k.checkpoint_bytes(now, 1);
        // A buffer that held a larger image (and arbitrary bytes).
        let mut reused = vec![0xEE; fresh.len() * 2 + 13];
        k.checkpoint_into(now, 1, &mut reused);
        assert_eq!(reused, fresh);
        // … and one that held a smaller one.
        let mut small = fresh[..fresh.len() / 3].to_vec();
        k.checkpoint_into(now, 1, &mut small);
        assert_eq!(small, fresh);
        assert_eq!(k.stats().resilience.checkpoints_written, 3);
    }

    /// A timer can change a stream's kernel state with no packet of the
    /// stream in sight (its NIC filters swallow them): the side table's
    /// stamp alone must get the stream re-encoded.
    #[test]
    fn a_filter_timeout_alone_reaches_the_next_image() {
        let mut k = kernel(ScapConfig {
            cutoff: crate::config::CutoffPolicy {
                default: Some(1000),
                ..Default::default()
            },
            use_fdir: true,
            chunk_size: 4096,
            ..Default::default()
        });
        let pkts = http_session(b"Q", &vec![b'R'; 40_000]);
        // Stop mid-response, past the cutoff: filters are installed.
        let stop = pkts.len() - 6;
        service_all(&mut k, &pkts[..stop]);
        let now = pkts[stop - 1].ts_ns;
        let fdir_installed = |bytes: &[u8]| {
            let img = CheckpointImage::decode(bytes).expect("image decodes");
            assert_eq!(img.streams.len(), 1);
            img.streams[0].kstate.as_ref().unwrap().fdir_installed
        };
        let mut image = Vec::new();
        k.checkpoint_into(now, 1, &mut image);
        assert!(fdir_installed(&image));
        // Nothing touched since: every frame is copied, same image.
        let first = image.clone();
        k.checkpoint_into(now, 1, &mut image);
        assert_eq!(image, first);
        // The filters time out on core 0's timer pass.
        let later = now + FDIR_INITIAL_TIMEOUT_NS + 1;
        k.kernel_timers(0, later);
        assert_eq!(k.fdir_filters(), 0);
        k.checkpoint_into(later, 2, &mut image);
        assert!(!fdir_installed(&image));
        assert_eq!(CheckpointImage::decode(&image).unwrap().to_bytes(), image);
    }

    /// The kernel copies clean frames from its own copy of the last
    /// image: what happens to the bytes it handed out (the fleet's fault
    /// plan flips some in a stored image) never reaches the next one.
    #[test]
    fn a_corrupted_copy_of_the_last_image_does_not_propagate() {
        let (mut k, pkts, stop) = mid_capture(crate::DispatchMode::Classic);
        let now = pkts[stop - 1].ts_ns;
        let mut image = Vec::new();
        k.checkpoint_into(now, 1, &mut image);
        let clean = image.clone();
        for b in image.iter_mut().skip(clean.len() / 2).take(8) {
            *b ^= 0xFF;
        }
        assert!(CheckpointImage::decode(&image).is_err());
        // Into the corrupted buffer itself, as a rotation would.
        k.checkpoint_into(now, 1, &mut image);
        assert_eq!(image, clean);
        // … and the traffic that follows dirties only part of the image.
        service_all(&mut k, &pkts[stop..stop + 40]);
        k.checkpoint_into(pkts[stop + 39].ts_ns, 2, &mut image);
        let img = CheckpointImage::decode(&image).expect("next image decodes clean");
        assert_eq!(img.to_bytes(), image);
    }
}
