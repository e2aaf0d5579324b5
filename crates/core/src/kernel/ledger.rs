//! The accounting ledger: the capture's counters, telemetry registry,
//! flight journal, latency pulse plane, gauge series, the work receipt
//! of the call in progress and the optional cache model, with the three
//! funnels every packet's conservation exit goes through. The other
//! stages record into it through the `&mut Ledger` the burst loop hands
//! down; none of them keeps a counter of its own.

use super::probe::Probed;
use crate::config::ScapConfig;
use crate::event::{Event, StreamUid};
use scap_flight::{DropReason, FlightEvent, FlightKind, FlightLayer, FlightRecorder};
use scap_memory::ChunkBuf;
use scap_sim::{CacheSim, StackStats, Work};
use scap_telemetry::{Gauge, Metric, PlainRegistry, Pulse, PulseStage, Sampler};
use scap_wire::Direction;

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

/// Where, when and for which stream (0: none yet) something is booked.
#[derive(Debug, Clone, Copy)]
pub(crate) struct At {
    pub core: usize,
    pub now: u64,
    pub uid: StreamUid,
}

impl At {
    pub(super) fn new(core: usize, now: u64, uid: StreamUid) -> Self {
        At { core, now, uid }
    }
}

pub(crate) struct Ledger {
    /// The facts that have no registry cell. Those that have one
    /// (`stack.{wire,delivered,dropped,discarded}_*`, `chunks`,
    /// `events_dropped`) stay zero here: `tele` is their only store.
    pub(super) stats: ScapStats,
    /// Per-core telemetry counters (shard = core; the NIC-admission path
    /// records into shard 0 because no core is involved yet).
    pub(super) tele: PlainRegistry,
    /// Always-on flight recorder: per-core ring journals of typed events
    /// with drop provenance. Every stack-level loss recorded by the
    /// funnels below also lands here, so event sums reconcile with the
    /// telemetry counters by construction.
    pub(super) flight: FlightRecorder,
    /// The latency pulse plane (scap-pulse): one histogram per
    /// [`PulseStage`] plus tail-sampled exemplars. Clock-difference
    /// stages (dispatch, delivery) measure on the trace clock;
    /// processing stages record the deterministic virtual costs from
    /// [`scap_telemetry::pulse::cost`], so seeded runs are reproducible.
    pub(super) pulse: Pulse,
    /// Bounded gauge time-series, sampled on core 0's timer pass and
    /// keyed on the caller's clock (virtual/trace time), so a seeded
    /// run produces a byte-identical series.
    pub(super) sampler: Sampler,
    /// Last worker-heartbeat count reported by the driver (gauge input;
    /// 0 under the sim driver until the stack reports deliveries).
    pub(super) worker_heartbeats: u64,
    /// The receipt of the poll or timer pass in progress: its entry
    /// point starts it afresh and hands it to the driver on return.
    pub(super) work: Work,
    /// Optional cache model (Fig. 7 locality experiment).
    pub(super) cache: Option<CacheSim>,
    /// Synthetic DMA-buffer cursor for frame-header touches.
    dma_cursor: u64,
}

/// Synthetic per-stream chunk-region address (128 MB stride per stream,
/// one half per direction — the "stream-specific memory regions" of the
/// paper, laid out for the cache model).
fn chunk_region_addr(uid: StreamUid, dir: Direction, offset: u64) -> u64 {
    0x100_0000_0000 + uid * 0x800_0000 + (dir.index() as u64) * 0x400_0000 + (offset % 0x400_0000)
}

impl Ledger {
    pub(super) fn new(cfg: &ScapConfig, ncores: usize, flight_cap: usize) -> Self {
        Ledger {
            stats: ScapStats::default(),
            tele: PlainRegistry::new(ncores),
            flight: FlightRecorder::new(ncores, flight_cap),
            pulse: Pulse::new(cfg.pulse_exemplar_permille, cfg.pulse_exemplar_cap),
            sampler: Sampler::new(cfg.telemetry_sample_interval_ns, cfg.telemetry_series_cap),
            worker_heartbeats: 0,
            work: Work::default(),
            cache: None,
            dma_cursor: 0,
        }
    }

    /// Stack-level delivered accounting. The conservation counters are
    /// booked once, in their registry cells, through these three funnels;
    /// [`super::ScapKernel::stats`] reads them back from there.
    #[inline]
    pub(super) fn delivered(&mut self, core: usize, pkts: u64, bytes: u64) {
        self.tele.add(core, Metric::DeliveredPackets, pkts);
        self.tele.add(core, Metric::DeliveredBytes, bytes);
    }

    /// Stack-level dropped accounting (overload losses). Every loss also
    /// lands in the flight journal with `{layer, reason, uid}` provenance
    /// — counters and events cannot diverge because they share this one
    /// funnel.
    #[inline]
    pub(super) fn dropped(
        &mut self,
        at: At,
        layer: FlightLayer,
        why: DropReason,
        pkts: u64,
        bytes: u64,
    ) {
        self.tele.add(at.core, Metric::DroppedPackets, pkts);
        self.tele.add(at.core, Metric::DroppedBytes, bytes);
        let loss = FlightEvent::new(FlightKind::Drop, layer, at.now).with_reason(why);
        self.journal(at, loss.with_vals(pkts, bytes));
    }

    /// Stack-level discarded accounting (deliberate early discards);
    /// same funnel discipline as [`Ledger::dropped`].
    #[inline]
    pub(super) fn discarded(
        &mut self,
        at: At,
        layer: FlightLayer,
        why: DropReason,
        pkts: u64,
        bytes: u64,
    ) {
        self.tele.add(at.core, Metric::DiscardedPackets, pkts);
        self.tele.add(at.core, Metric::DiscardedBytes, bytes);
        let loss = FlightEvent::new(FlightKind::Discard, layer, at.now).with_reason(why);
        self.journal(at, loss.with_vals(pkts, bytes));
    }

    /// Journal one event about stream `at.uid` (0: none) on `at.core`'s
    /// ring at `at.now`.
    #[inline]
    pub(super) fn journal(&mut self, at: At, ev: FlightEvent) {
        self.flight.emit(at.core, ev.with_uid(at.uid));
    }

    /// Record one latency sample for `stage` against a stream; a tail
    /// outlier is also journalled (on `at.core`, attributed to `layer`)
    /// so the exported exemplar's uid always resolves in the journal its
    /// cursor points into.
    pub(super) fn latency(&mut self, stage: PulseStage, layer: FlightLayer, at: At, delay: u64) {
        let cursor = self.flight.total_recorded();
        if self.pulse.record_uid(stage, delay, at.uid, cursor) {
            let outlier = FlightEvent::new(FlightKind::PulseExemplar, layer, at.now);
            self.journal(at, outlier.with_vals(stage.idx() as u64, delay));
        }
    }

    /// End-to-end delivery latency of one event: NIC ingress of the
    /// producing packet to `now_ns`, the moment a worker received it.
    /// Delivery happens on the worker side of the queue; core 0 hosts
    /// the capture-wide ring, matching NIC-layer attribution.
    pub(super) fn note_delivery(&mut self, ev: &Event, now_ns: u64) {
        let at = At::new(0, now_ns, ev.stream.uid);
        let delay = now_ns.saturating_sub(ev.ingress_ns);
        self.latency(PulseStage::Delivery, FlightLayer::Worker, at, delay);
    }

    /// Gauge refresh + bounded time-series sampling, keyed on the
    /// caller's clock (deterministic per seed under simulation).
    pub(super) fn sample(&mut self, now: u64, gauges: [u64; Gauge::COUNT]) {
        for g in Gauge::ALL {
            self.tele.gauge_set(0, g, gauges[g.idx()]);
        }
        if self.sampler.due(now) {
            self.sampler.record(now, gauges);
        }
    }

    /// Cache model: one packet's lookup — the cold header line, the ctrl
    /// groups the probe walked, the flow record.
    #[inline]
    pub(super) fn cache_probe(&mut self, core: usize, p: &Probed) {
        let Some(c) = self.cache.as_mut() else { return };
        // Freshly DMA'd frame: the header lines are cold.
        self.dma_cursor = (self.dma_cursor + 2048) % (512 << 20);
        let mut misses = c.access(0x6000_0000 + self.dma_cursor, 64);
        // The open-addressed index: each probe step reads one ctrl
        // group (16 tag bytes, four groups per 64-byte line).
        let ctrl_base = 0x98_0000_0000 + ((core as u64) << 28);
        let group = scap_flow::table::GROUP;
        for step in 0..p.probes {
            misses += c.access(ctrl_base + (p.group + step) * group as u64, group);
        }
        let rec_addr = 0xA0_0000_0000 + ((core as u64) << 28) + (p.id.slot() as u64) * 256;
        self.work.k_cache_misses += misses + c.access(rec_addr, 128);
    }

    /// Cache model: `len` payload bytes written into a stream's chunk
    /// region at `offset`.
    #[inline]
    pub(super) fn cache_write(&mut self, uid: StreamUid, dir: Direction, offset: u64, len: u64) {
        if let Some(c) = self.cache.as_mut() {
            self.work.k_cache_misses += c.access(chunk_region_addr(uid, dir, offset), len as usize);
        }
    }

    /// Cache model: give a chunk about to be delivered the address its
    /// reader ([`super::ScapKernel::user_touch_chunk`]) touches.
    #[inline]
    pub(super) fn cache_stamp(&self, chunk: &mut ChunkBuf, uid: StreamUid, dir: Direction) {
        if self.cache.is_some() {
            chunk.sim_addr = chunk_region_addr(uid, dir, chunk.start_offset);
        }
    }
}
