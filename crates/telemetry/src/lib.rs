#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # scap-telemetry
//!
//! A zero-dependency observability subsystem for the Scap reproduction:
//! the always-on instrumentation layer every other crate records into.
//!
//! * [`Registry`] — a sharded (per-core) metrics registry of monotonic
//!   counters, gauges, and log2-bucketed stage histograms. Metric
//!   identities are static enums ([`Metric`], [`Gauge`], [`Stage`]), so a
//!   hot-path record is an indexed add into a preallocated cell — never a
//!   hashmap lookup or an allocation. The cell type is generic:
//!   [`PlainRegistry`] (`Cell<u64>`) for the single-threaded-driven
//!   kernel/sim path, [`AtomicRegistry`] (`AtomicU64`, relaxed) for the
//!   live driver's worker threads.
//! * [`Hist64`] — a fixed 64-bucket log2 histogram; bucket boundaries are
//!   powers of two, so recording is a `leading_zeros` and one add.
//! * [`Sampler`] — a periodic gauge sampler writing bounded in-memory
//!   time-series rings, keyed on the *caller's* clock: virtual/trace time
//!   under simulation (deterministic per seed), wall-derived trace time
//!   live.
//! * [`SpanTimer`] — wall-clock stage timing for the live driver; the
//!   simulation records virtual cycles into the same stage histograms.
//! * [`export`] — hand-rolled JSON-lines / CSV / aligned-table exporters
//!   (plus a JSON-lines parser for round-trip verification). No serde.
//!
//! Everything is deterministic given deterministic inputs: snapshots are
//! plain data (`PartialEq`), iteration orders are the declaration orders
//! of the static enums, and nothing here reads the wall clock except
//! [`SpanTimer`], which only the live driver uses.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

pub mod export;
mod hist;
mod registry;
mod sampler;

pub use hist::{bucket_of, bucket_range, Hist64, HistSnapshot, BUCKETS};
pub use pulse::{cycles_to_ns, Exemplar, Pulse, PulseSnapshot, CORE_HZ};
pub use registry::{AtomicRegistry, PlainRegistry, Registry, ShardSnapshot, Snapshot};
pub use sampler::{SamplePoint, Sampler};

/// A counter/gauge cell: the one storage primitive the registry is
/// generic over. Implemented by `Cell<u64>` (plain, single-threaded
/// driver) and `AtomicU64` (relaxed, live worker threads).
pub trait MetricCell: Default {
    /// Add `v` (monotonic counters, histogram buckets).
    fn add(&self, v: u64);
    /// Overwrite with `v` (gauges).
    fn set(&self, v: u64);
    /// Read the current value.
    fn get(&self) -> u64;
}

impl MetricCell for Cell<u64> {
    #[inline]
    fn add(&self, v: u64) {
        self.set(self.get().wrapping_add(v));
    }
    #[inline]
    fn set(&self, v: u64) {
        Cell::set(self, v);
    }
    #[inline]
    fn get(&self) -> u64 {
        Cell::get(self)
    }
}

impl MetricCell for AtomicU64 {
    #[inline]
    fn add(&self, v: u64) {
        self.fetch_add(v, Ordering::Relaxed);
    }
    #[inline]
    fn set(&self, v: u64) {
        self.store(v, Ordering::Relaxed);
    }
    #[inline]
    fn get(&self) -> u64 {
        self.load(Ordering::Relaxed)
    }
}

macro_rules! static_ids {
    ($(#[$meta:meta])* $name:ident {
        $($(#[$vmeta:meta])* $var:ident => $s:literal,)+
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum $name {
            $($(#[$vmeta])* $var,)+
        }

        impl $name {
            /// Number of variants (array dimension for registries).
            pub const COUNT: usize = [$($name::$var),+].len();
            /// All variants in declaration (and export) order.
            pub const ALL: [$name; Self::COUNT] = [$($name::$var),+];

            /// Stable wire name used by every exporter.
            pub const fn name(self) -> &'static str {
                match self { $($name::$var => $s,)+ }
            }

            /// Reverse lookup by wire name.
            pub fn from_name(s: &str) -> Option<Self> {
                match s { $($s => Some($name::$var),)+ _ => None }
            }

            /// Index into a registry array.
            #[inline]
            pub const fn idx(self) -> usize {
                self as usize
            }
        }
    };
}

static_ids! {
    /// Monotonic counters. Declaration order is the stable export order;
    /// indices are the registry array layout, so only append.
    Metric {
        /// Packets seen on the wire (pre-NIC-filter).
        WirePackets => "wire_packets",
        /// Bytes seen on the wire.
        WireBytes => "wire_bytes",
        /// Packets whose payload reached the application (stack exit 1).
        DeliveredPackets => "delivered_packets",
        /// Payload bytes copied into stream memory.
        DeliveredBytes => "delivered_bytes",
        /// Packets lost to overload (stack exit 2).
        DroppedPackets => "dropped_packets",
        /// Bytes lost to overload.
        DroppedBytes => "dropped_bytes",
        /// Packets intentionally not captured (stack exit 3).
        DiscardedPackets => "discarded_packets",
        /// Bytes intentionally not captured.
        DiscardedBytes => "discarded_bytes",
        /// Frames the NIC received from the wire.
        NicRxFrames => "nic_rx_frames",
        /// Bytes the NIC received from the wire.
        NicRxBytes => "nic_rx_bytes",
        /// Frames dropped in hardware by FDIR filters (subzero copy).
        NicFdirDropFrames => "nic_fdir_drop_frames",
        /// Frames steered by FDIR to an explicit queue.
        NicFdirSteeredFrames => "nic_fdir_steered_frames",
        /// Frames accepted into an RX descriptor ring.
        NicRingPushes => "nic_ring_pushes",
        /// Frames dropped because the target ring was full.
        NicRingFullDrops => "nic_ring_full_drops",
        /// FDIR programming operations (install/remove).
        NicFdirOps => "nic_fdir_ops",
        /// FDIR programming operations that failed (table full, busy).
        NicFdirOpFailures => "nic_fdir_op_failures",
        /// Flow-table hash probes in the kernel lookup path.
        KernelHashProbes => "kernel_hash_probes",
        /// Completed chunks placed into stream memory.
        KernelChunksPlaced => "kernel_chunks_placed",
        /// Payload bytes the kernel copied into chunk memory.
        KernelBytesCopied => "kernel_bytes_copied",
        /// Events enqueued onto per-core event queues.
        KernelEventsEnqueued => "kernel_events_enqueued",
        /// Events dropped because an event queue was at capacity.
        KernelEventsDropped => "kernel_events_dropped",
        /// Successful arena chunk allocations.
        ArenaAllocs => "arena_allocs",
        /// Arena chunk releases.
        ArenaReleases => "arena_releases",
        /// Failed arena allocations (memory pressure).
        ArenaAllocFailures => "arena_alloc_failures",
        /// PPL verdicts that accepted the packet.
        PplAccepts => "ppl_accepts",
        /// PPL verdicts dropped by a priority watermark.
        PplWatermarkDrops => "ppl_watermark_drops",
        /// PPL verdicts dropped by the overload cutoff.
        PplCutoffDrops => "ppl_cutoff_drops",
        /// Overload-governor level changes (up or down).
        GovernorTransitions => "governor_transitions",
        /// Events a worker thread pulled and dispatched.
        WorkerEventsHandled => "worker_events_handled",
        /// Streams sealed into the on-disk archive (`scap-store`).
        StoreStreamsArchived => "store_streams_archived",
        /// Payload bytes appended to archive segment files.
        StoreBytesWritten => "store_bytes_written",
        /// Archive segment files opened (initial + rotations).
        StoreSegmentsCreated => "store_segments_created",
        /// Archived streams pruned by the disk-budget retention policy.
        StoreStreamsPruned => "store_streams_pruned",
        /// Bytes reclaimed by archive compaction.
        StoreBytesReclaimed => "store_bytes_reclaimed",
        /// Torn-tail bytes dropped during archive recovery.
        StoreTornBytesRecovered => "store_torn_bytes_recovered",
        /// Bytes handed to tenant delivery queues (`scapd` demux).
        TenantDeliveredBytes => "tenant_delivered_bytes",
        /// Bytes dropped on full tenant queues (slow consumers).
        TenantDroppedBytes => "tenant_dropped_bytes",
        /// Bytes withheld from tenants by quota policy (degraded cutoff
        /// or disconnected tenant).
        TenantDiscardedBytes => "tenant_discarded_bytes",
        /// Tenants forcibly disconnected by the slow-consumer ladder.
        TenantDisconnects => "tenant_disconnects",
        /// Non-empty burst pulls on the poll-mode fast path.
        FastpathBursts => "fastpath_bursts",
        /// Packets dispatched through the poll-mode fast path.
        FastpathPackets => "fastpath_packets",
        /// Frames matched by any offload rule (all actions).
        NicOffloadHits => "nic_offload_hits",
        /// Frames dropped by offload `Drop` rules (subzero copy).
        NicOffloadDropFrames => "nic_offload_drop_frames",
        /// Frames shunted by offload `Bypass` rules.
        NicOffloadBypassFrames => "nic_offload_bypass_frames",
        /// Frames tagged by offload `Mark` rules.
        NicOffloadMarkFrames => "nic_offload_mark_frames",
        /// Frames dropped by offload `Sample` rules (non-kept 1-in-N).
        NicOffloadSampleDrops => "nic_offload_sample_drops",
        /// Offload rule add/remove operations.
        NicOffloadOps => "nic_offload_ops",
        /// Offload rule operations that failed.
        NicOffloadOpFailures => "nic_offload_op_failures",
        /// Offload rules evicted under table pressure.
        NicOffloadEvictions => "nic_offload_evictions",
        /// Cumulative backoff delay scheduled for FDIR install retries,
        /// in nanoseconds (with `ResilienceStats::fdir_retries` this
        /// exposes the exponential-backoff schedule's shape).
        FdirRetryBackoffNs => "fdir_retry_backoff_ns",
        /// FDIR install retries parked on the backoff queue.
        FdirRetriesQueued => "fdir_retries_queued",
        /// Header bytes the kernel examined, `min(64, frame length)` each.
        KernelBytesTouched => "kernel_bytes_touched",
        /// Flush timeouts, expiries, evictions, FDIR retries and timeouts.
        KernelTimerOps => "kernel_timer_ops",
    }
}

static_ids! {
    /// Point-in-time gauges, sampled into [`Sampler`] time series.
    Gauge {
        /// Worst RX descriptor-ring fill across queues, in permille.
        RingFillPermille => "ring_fill_permille",
        /// Stream-arena occupancy, in permille of the budget.
        ArenaUsedPermille => "arena_used_permille",
        /// Total queued events across all per-core event queues.
        EventBacklog => "event_backlog",
        /// Current overload-governor level (0–3).
        GovernorLevel => "governor_level",
        /// Perfect-match filters currently installed in the FDIR table.
        FdirFilters => "fdir_filters",
        /// Streams currently tracked across all flow tables.
        TrackedStreams => "tracked_streams",
        /// Sum of worker heartbeat counters (live) or delivered events
        /// (simulation) — a liveness signal.
        WorkerHeartbeats => "worker_heartbeats",
        /// Flow-table index occupancy, in permille (worst core).
        FlowLoadPermille => "flow_load_permille",
        /// Mean flow-table probe length this sample window, in
        /// hundredths of a cache-line group per lookup.
        FlowProbeCentigroups => "flow_probe_centigroups",
        /// Mean fast-path burst fill, in permille of the burst size.
        FastpathFillPermille => "fastpath_fill_permille",
        /// Offload rules currently installed.
        OffloadRules => "offload_rules",
        /// Offload-table occupancy, in permille of rule capacity.
        OffloadLoadPermille => "offload_load_permille",
    }
}

static_ids! {
    /// Packet-path stages timed by the span tracer. The simulation
    /// records virtual cycles; the live driver records wall nanoseconds.
    Stage {
        /// NIC admission: FDIR lookup + RSS dispatch + ring push.
        Nic => "nic",
        /// Kernel processing: flow lookup, reassembly, timers.
        Kernel => "kernel",
        /// Memory placement: payload copies into arena chunks.
        Memory => "memory",
        /// Event-queue handoff to the user side.
        EventQueue => "event_queue",
        /// Worker callback execution.
        Worker => "worker",
        /// Archive seal: segment append + index commit (`scap-store`).
        Store => "store",
        /// Warm restart: checkpoint decode + kernel state restore.
        Restart => "restart",
        /// Poll-mode fast path: burst pull + batched dispatch.
        Fastpath => "fastpath",
    }
}

static_ids! {
    /// Stages of the pulse latency plane (`scap-pulse`): each gets one
    /// log2 latency histogram plus a tail-sampled exemplar ring.
    /// Clock-difference stages record trace-clock deltas against the
    /// packet's NIC-ingress timestamp; processing stages record virtual
    /// nanoseconds from the deterministic per-op cost models in
    /// [`pulse::cost`].
    PulseStage {
        /// NIC admission verdict: filter + RSS + ring push cost.
        NicVerdict => "nic_verdict",
        /// Offload rule-table consult (and action on a hit).
        Offload => "offload",
        /// Flow-table lookup cost, scaled by probe length.
        FlowTable => "flow_table",
        /// NIC ingress → event enqueued on a per-core queue.
        KernelDispatch => "kernel_dispatch",
        /// Residency in a tenant delivery queue until drain.
        TenantQueue => "tenant_queue",
        /// NIC ingress → payload handed to the application.
        Delivery => "delivery",
        /// Archive seal: segment append + index commit.
        StoreSeal => "store_seal",
        /// Checkpoint encode + write, from the image size.
        Checkpoint => "checkpoint",
    }
}

// Declared after `static_ids!` so the modules can use the macro.
pub mod openmetrics;
pub mod pulse;

/// Wall-clock span timing for the live driver. The simulation never uses
/// this — it derives virtual-cycle spans from work receipts instead, so
/// simulated telemetry stays deterministic.
#[derive(Debug)]
pub struct SpanTimer(std::time::Instant);

impl SpanTimer {
    /// Start timing now.
    #[inline]
    pub fn start() -> Self {
        SpanTimer(std::time::Instant::now())
    }

    /// Nanoseconds elapsed since [`SpanTimer::start`].
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        let e = self.0.elapsed();
        e.as_secs()
            .saturating_mul(1_000_000_000)
            .saturating_add(u64::from(e.subsec_nanos()))
    }

    /// Stop and record the elapsed nanoseconds into a stage histogram.
    #[inline]
    pub fn finish<C: MetricCell>(self, reg: &Registry<C>, shard: usize, stage: Stage) -> u64 {
        let ns = self.elapsed_ns();
        reg.record_stage(shard, stage, ns);
        ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_names_round_trip() {
        for m in Metric::ALL {
            assert_eq!(Metric::from_name(m.name()), Some(m));
        }
        for g in Gauge::ALL {
            assert_eq!(Gauge::from_name(g.name()), Some(g));
        }
        for s in Stage::ALL {
            assert_eq!(Stage::from_name(s.name()), Some(s));
        }
        assert_eq!(Metric::from_name("no_such_metric"), None);
    }

    #[test]
    fn cells_add_set_get() {
        let c = Cell::new(0u64);
        MetricCell::add(&c, 3);
        MetricCell::add(&c, 4);
        assert_eq!(MetricCell::get(&c), 7);
        MetricCell::set(&c, 1);
        assert_eq!(MetricCell::get(&c), 1);

        let a = AtomicU64::new(0);
        a.add(3);
        a.add(4);
        assert_eq!(MetricCell::get(&a), 7);
        MetricCell::set(&a, 1);
        assert_eq!(MetricCell::get(&a), 1);
    }

    #[test]
    fn span_timer_measures_forward_time() {
        let t = SpanTimer::start();
        let reg: Registry<Cell<u64>> = Registry::new(1);
        let ns = t.finish(&reg, 0, Stage::Worker);
        assert_eq!(reg.snapshot().stage(Stage::Worker).count(), 1);
        let _ = ns; // any value is legal; monotonic clock only
    }
}
