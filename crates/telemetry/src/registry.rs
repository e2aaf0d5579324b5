//! The sharded metrics registry and its plain-data snapshots.

use crate::hist::{Hist64, HistSnapshot};
use crate::{Gauge, Metric, MetricCell, Stage};
use std::cell::Cell;
use std::fmt;
use std::sync::atomic::AtomicU64;

/// One shard of cells — one per core/worker, so the hot path never
/// contends (atomics) or aliases (plain cells).
struct Shard<C> {
    counters: [C; Metric::COUNT],
    gauges: [C; Gauge::COUNT],
    stages: [Hist64<C>; Stage::COUNT],
}

impl<C: MetricCell> Default for Shard<C> {
    fn default() -> Self {
        Shard {
            counters: std::array::from_fn(|_| C::default()),
            gauges: std::array::from_fn(|_| C::default()),
            stages: std::array::from_fn(|_| Hist64::default()),
        }
    }
}

/// A sharded registry of counters, gauges and stage histograms.
///
/// All recording methods take `&self`: cells are interior-mutable, so a
/// component can hold the registry by value and still record from deep
/// inside its call tree.
pub struct Registry<C> {
    shards: Vec<Shard<C>>,
}

/// Plain (non-atomic) registry for single-threaded-driven components:
/// the kernel, the NIC model, the arena, and the whole sim driver.
pub type PlainRegistry = Registry<Cell<u64>>;

/// Atomic registry shared across the live driver's worker threads.
pub type AtomicRegistry = Registry<AtomicU64>;

impl<C: MetricCell> Registry<C> {
    /// A registry with `nshards` shards (at least one).
    pub fn new(nshards: usize) -> Self {
        Registry {
            shards: (0..nshards.max(1)).map(|_| Shard::default()).collect(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Add `v` to a counter: one bounds check and one add.
    #[inline]
    pub fn add(&self, shard: usize, m: Metric, v: u64) {
        self.shards[shard].counters[m.idx()].add(v);
    }

    /// Increment a counter by one.
    #[inline]
    pub fn inc(&self, shard: usize, m: Metric) {
        self.add(shard, m, 1);
    }

    /// Read a counter back (tests, conservation checks).
    pub fn counter(&self, shard: usize, m: Metric) -> u64 {
        self.shards[shard].counters[m.idx()].get()
    }

    /// A counter summed over every shard, read in place (no snapshot, no
    /// histogram copy): what a stats view reads for a fact whose only
    /// store is its cell.
    pub fn total(&self, m: Metric) -> u64 {
        self.shards.iter().map(|s| s.counters[m.idx()].get()).sum()
    }

    /// Overwrite a gauge.
    #[inline]
    pub fn gauge_set(&self, shard: usize, g: Gauge, v: u64) {
        self.shards[shard].gauges[g.idx()].set(v);
    }

    /// Read a gauge.
    pub fn gauge(&self, shard: usize, g: Gauge) -> u64 {
        self.shards[shard].gauges[g.idx()].get()
    }

    /// Record one observation into a stage histogram.
    #[inline]
    pub fn record_stage(&self, shard: usize, stage: Stage, v: u64) {
        self.shards[shard].stages[stage.idx()].record(v);
    }

    /// Copy the full registry state out as plain data.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            shards: self
                .shards
                .iter()
                .map(|s| ShardSnapshot {
                    counters: std::array::from_fn(|i| s.counters[i].get()),
                    gauges: std::array::from_fn(|i| s.gauges[i].get()),
                    stages: std::array::from_fn(|i| s.stages[i].snapshot()),
                })
                .collect(),
        }
    }
}

impl<C> fmt::Debug for Registry<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Registry({} shards)", self.shards.len())
    }
}

/// Plain-data state of one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Counter values in [`Metric::ALL`] order.
    pub counters: [u64; Metric::COUNT],
    /// Gauge values in [`Gauge::ALL`] order.
    pub gauges: [u64; Gauge::COUNT],
    /// Stage histograms in [`Stage::ALL`] order.
    pub stages: [HistSnapshot; Stage::COUNT],
}

impl Default for ShardSnapshot {
    fn default() -> Self {
        ShardSnapshot {
            counters: [0; Metric::COUNT],
            gauges: [0; Gauge::COUNT],
            stages: std::array::from_fn(|_| HistSnapshot::default()),
        }
    }
}

/// Plain-data state of a whole registry — what exporters serialize,
/// tests compare, and drivers merge (kernel + NIC + arena registries
/// combine into one capture-wide snapshot).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Per-shard state.
    pub shards: Vec<ShardSnapshot>,
}

impl Snapshot {
    /// An all-zero snapshot with `nshards` shards.
    pub fn empty(nshards: usize) -> Self {
        Snapshot {
            shards: (0..nshards.max(1))
                .map(|_| ShardSnapshot::default())
                .collect(),
        }
    }

    /// A counter summed across all shards.
    pub fn total(&self, m: Metric) -> u64 {
        self.shards.iter().map(|s| s.counters[m.idx()]).sum()
    }

    /// One shard's counter.
    pub fn counter(&self, shard: usize, m: Metric) -> u64 {
        self.shards[shard].counters[m.idx()]
    }

    /// One shard's gauge.
    pub fn gauge(&self, shard: usize, g: Gauge) -> u64 {
        self.shards[shard].gauges[g.idx()]
    }

    /// Maximum of a gauge across shards.
    pub fn gauge_max(&self, g: Gauge) -> u64 {
        self.shards
            .iter()
            .map(|s| s.gauges[g.idx()])
            .max()
            .unwrap_or(0)
    }

    /// A stage histogram merged across all shards.
    pub fn stage(&self, stage: Stage) -> HistSnapshot {
        let mut out = HistSnapshot::default();
        for s in &self.shards {
            out.merge(&s.stages[stage.idx()]);
        }
        out
    }

    /// Accumulate another snapshot element-wise. Shard counts may differ
    /// (a single-shard arena registry merges into a per-core kernel one);
    /// the result has `max` of the two shard counts, and counters,
    /// gauges and histograms all add. Merged registries record disjoint
    /// metric sets, so adding gauges is exact too.
    pub fn merge(&mut self, other: &Snapshot) {
        if other.shards.len() > self.shards.len() {
            self.shards
                .resize_with(other.shards.len(), ShardSnapshot::default);
        }
        for (dst, src) in self.shards.iter_mut().zip(other.shards.iter()) {
            for (a, b) in dst.counters.iter_mut().zip(src.counters.iter()) {
                *a += b;
            }
            for (a, b) in dst.gauges.iter_mut().zip(src.gauges.iter()) {
                *a += b;
            }
            for (a, b) in dst.stages.iter_mut().zip(src.stages.iter()) {
                a.merge(b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_snapshot_total() {
        let r = PlainRegistry::new(4);
        r.inc(0, Metric::WirePackets);
        r.add(3, Metric::WirePackets, 9);
        r.gauge_set(1, Gauge::GovernorLevel, 2);
        r.record_stage(2, Stage::Kernel, 300);
        let s = r.snapshot();
        assert_eq!(s.total(Metric::WirePackets), 10);
        assert_eq!(s.counter(0, Metric::WirePackets), 1);
        assert_eq!(s.gauge(1, Gauge::GovernorLevel), 2);
        assert_eq!(s.gauge_max(Gauge::GovernorLevel), 2);
        assert_eq!(s.stage(Stage::Kernel).count(), 1);
        assert_eq!(s.stage(Stage::Nic).count(), 0);
    }

    #[test]
    fn atomic_registry_is_shared_across_threads() {
        let r = std::sync::Arc::new(AtomicRegistry::new(2));
        std::thread::scope(|sc| {
            for w in 0..2 {
                let r = r.clone();
                sc.spawn(move || {
                    for _ in 0..1000 {
                        r.inc(w, Metric::WorkerEventsHandled);
                        r.record_stage(w, Stage::Worker, 17);
                    }
                });
            }
        });
        let s = r.snapshot();
        assert_eq!(s.total(Metric::WorkerEventsHandled), 2000);
        assert_eq!(s.stage(Stage::Worker).count(), 2000);
    }

    #[test]
    fn merge_pads_shards_and_adds() {
        let a = PlainRegistry::new(1);
        a.add(0, Metric::ArenaAllocs, 5);
        let b = PlainRegistry::new(3);
        b.add(2, Metric::KernelHashProbes, 7);
        b.record_stage(1, Stage::Memory, 64);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.shards.len(), 3);
        assert_eq!(s.total(Metric::ArenaAllocs), 5);
        assert_eq!(s.counter(2, Metric::KernelHashProbes), 7);
        assert_eq!(s.stage(Stage::Memory).count(), 1);
    }
}
