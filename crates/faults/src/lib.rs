#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # scap-faults
//!
//! Deterministic, seeded fault injection for the Scap pipeline.
//!
//! The paper's headline claim is *graceful degradation under overload*
//! (§2.2, §6.5): Prioritized Packet Loss, per-stream cutoffs, and FDIR
//! early-drop keep the system useful when the CPU or memory budget is
//! exceeded. Exercising that claim requires faults, and production
//! capture boxes see a characteristic set of them:
//!
//! * **wire-level** — corrupted, truncated, and duplicated frames;
//!   timestamps that jump, repeat, or go backwards (broken taps, buggy
//!   aggregation switches);
//! * **hardware-offload** — flow-director filter installs that fail
//!   transiently or take milliseconds (MMIO/firmware contention), RX
//!   descriptor rings that stall while the host is descheduled;
//! * **resource-level** — memory pressure spikes from co-located work;
//! * **software** — an analysis worker that wedges or panics.
//!
//! A [`FaultPlan`] describes a seeded schedule of all of the above.
//! Each pipeline seam pulls a per-layer *injector* from the plan
//! ([`FrameInjector`], [`FdirInjector`], [`RingInjector`],
//! [`ArenaInjector`], plus the [`WorkerFault`] list consumed by the
//! live driver). Every injector derives its stream from the plan seed
//! and a fixed per-layer salt, so the same seed always produces the
//! same fault sequence regardless of which layers are enabled —
//! experiment output is byte-identical across runs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Wire-level fault rates applied at the trace boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FrameFaultConfig {
    /// Probability a frame gets random bytes flipped.
    pub corrupt_prob: f64,
    /// Probability a frame is truncated at a random byte.
    pub truncate_prob: f64,
    /// Probability a frame is delivered twice.
    pub duplicate_prob: f64,
    /// Probability a timestamp jumps (forward or backward) by up to
    /// [`FrameFaultConfig::ts_skew_ns`].
    pub ts_skew_prob: f64,
    /// Maximum magnitude of a timestamp jump.
    pub ts_skew_ns: u64,
    /// Probability a timestamp exactly repeats its predecessor.
    pub ts_repeat_prob: f64,
    /// Probability a frame is held back one slot and swapped with its
    /// successor (bounded reordering).
    pub reorder_prob: f64,
}

/// Flow-director install faults (transient failures and latency spikes).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FdirFaultConfig {
    /// Probability an install attempt fails with a transient error.
    pub transient_fail_prob: f64,
    /// Upper bound on consecutive transient failures, so a bounded
    /// retry policy is guaranteed to eventually succeed.
    pub max_consecutive_failures: u32,
    /// Probability an install succeeds but takes abnormally long.
    pub latency_spike_prob: f64,
    /// Duration of a latency spike.
    pub latency_spike_ns: u64,
}

/// RX descriptor-ring stall windows (host descheduled, PCIe hiccups).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RingFaultConfig {
    /// Number of stall windows over the run.
    pub stall_count: u32,
    /// Length of each stall window.
    pub stall_ns: u64,
    /// Grid spacing between candidate window starts; each window is
    /// placed pseudo-randomly within its grid cell.
    pub period_ns: u64,
}

/// Arena-exhaustion spikes (co-located memory pressure).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ArenaFaultConfig {
    /// Number of pressure spikes over the run.
    pub spike_count: u32,
    /// Fraction of the arena budget held hostage during a spike.
    pub spike_fraction: f64,
    /// Length of each spike.
    pub spike_ns: u64,
    /// Grid spacing between candidate spike starts.
    pub period_ns: u64,
}

/// Archive (`scap-store`) segment-append faults: torn writes and
/// mid-write kills, exercising the store's torn-tail recovery.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StoreFaultConfig {
    /// Probability a segment append is torn: only a prefix of the frame
    /// reaches disk before the writer dies.
    pub torn_append_prob: f64,
    /// Kill the writer mid-write after this many successful appends
    /// (0 = never): the frame lands in the segment but its index record
    /// is never written.
    pub kill_after_appends: u64,
}

/// Flight-recorder ring faults: force wrap-around so overwrite
/// accounting (`FlightDropped`) is exercised — tracing must never
/// silently lose its own loss.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlightFaultConfig {
    /// Shrink every per-core flight ring to this many slots
    /// (0 = leave the configured capacity alone).
    pub shrink_ring_to: usize,
}

impl FlightFaultConfig {
    /// The ring capacity to use given the configured one.
    pub fn effective_cap(&self, configured: usize) -> usize {
        if self.shrink_ring_to > 0 {
            self.shrink_ring_to
        } else {
            configured
        }
    }
}

/// What a scheduled worker fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFaultKind {
    /// The worker thread panics mid-event.
    Panic,
    /// The worker wedges (sleeps) for this many nanoseconds.
    Stall(u64),
}

/// One scheduled fault in a live-capture worker thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerFault {
    /// Index of the worker thread the fault targets.
    pub worker: usize,
    /// The fault fires when the worker has processed this many events.
    pub after_events: u64,
    /// What happens when it fires.
    pub kind: WorkerFaultKind,
}

/// What a scheduled tenant fault does (multi-tenant `scapd` captures).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantFaultKind {
    /// The tenant's consumer stops draining its delivery queue after
    /// this many delivered events (a stalled client).
    StallConsumer {
        /// Deliveries the tenant consumes normally before wedging.
        after_events: u64,
    },
    /// The tenant attaches with a quota-busting configuration: an
    /// unlimited cutoff and the largest representable share request.
    QuotaBuster,
    /// The tenant detaches abruptly mid-stream after this many
    /// delivered events (no drain, no goodbye).
    Disconnect {
        /// Deliveries before the tenant vanishes.
        after_events: u64,
    },
    /// The tenant detaches and immediately re-attaches this many times
    /// in a row (attach/detach storm against admission control).
    AttachStorm {
        /// Detach/re-attach cycles to perform.
        cycles: u32,
    },
}

/// One scheduled fault against a tenant of a shared capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantFault {
    /// Index of the tenant (attach order) the fault targets.
    pub tenant: usize,
    /// What happens.
    pub kind: TenantFaultKind,
}

/// What a scheduled shard fault does (supervised `ShardFleet` captures).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFaultKind {
    /// The shard engine dies outright (crash): the supervisor must
    /// detect the death, back off, and respawn from a checkpoint.
    Kill,
    /// The shard wedges for this many nanoseconds: it stops beating its
    /// heartbeat lease while work keeps arriving, forcing a deadline
    /// takedown.
    StallHeartbeat(u64),
    /// The shard's *latest* checkpoint is corrupted in place, so the
    /// next respawn must fall back to the previous image (or cold-start)
    /// and attribute the larger blackout.
    CorruptCheckpoint,
}

/// One scheduled fault against a supervised capture shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardFault {
    /// Index of the shard the fault targets.
    pub shard: usize,
    /// The fault fires when the shard has been offered this many
    /// packets (shard-local ordinal, counted across incarnations).
    pub at_packet: u64,
    /// What happens when it fires.
    pub kind: ShardFaultKind,
}

/// A complete seeded fault schedule for one capture run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Master seed; all per-layer streams derive from it.
    pub seed: u64,
    /// Wire-level faults at the trace boundary.
    pub frames: FrameFaultConfig,
    /// Flow-director install faults.
    pub fdir: FdirFaultConfig,
    /// RX ring stall windows.
    pub ring: RingFaultConfig,
    /// Arena pressure spikes.
    pub arena: ArenaFaultConfig,
    /// Archive segment-append faults (`scap-store`).
    pub store: StoreFaultConfig,
    /// Flight-recorder ring faults (forced wrap-around).
    pub flight: FlightFaultConfig,
    /// Scheduled worker stalls/panics (live driver only).
    pub workers: Vec<WorkerFault>,
    /// Scheduled tenant misbehaviour (multi-tenant `scapd` captures).
    pub tenants: Vec<TenantFault>,
    /// Scheduled shard kills/stalls/corruptions (supervised
    /// `ShardFleet` captures).
    pub shards: Vec<ShardFault>,
    /// Kill the whole capture process after this many packets have been
    /// admitted at the NIC (live driver only; `None` = never). The
    /// capture stops dead — no drain, no final events — exactly like a
    /// crash, exercising checkpoint/restore.
    pub kill_at_packet: Option<u64>,
}

/// Per-layer salts keep the fault streams independent: enabling or
/// disabling one layer never perturbs another layer's schedule.
const SALT_FRAMES: u64 = 0x66726d73; // "frms"
const SALT_FDIR: u64 = 0x66646972; // "fdir"
const SALT_RING: u64 = 0x72696e67; // "ring"
const SALT_ARENA: u64 = 0x6172656e; // "aren"
const SALT_STORE: u64 = 0x73746f72; // "stor"
const SALT_TENANT: u64 = 0x746e6e74; // "tnnt"
const SALT_SHARD: u64 = 0x73687264; // "shrd"

impl FaultPlan {
    /// A quiet plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Default::default()
        }
    }

    /// The canonical "storm" preset used by the chaos test and the
    /// `--exp faults` experiment: every fault class enabled at rates
    /// high enough to force retries, fallbacks, governor escalation,
    /// and (in the live driver) one worker panic plus one stall.
    pub fn storm(seed: u64) -> Self {
        FaultPlan {
            seed,
            frames: FrameFaultConfig {
                corrupt_prob: 0.05,
                truncate_prob: 0.03,
                duplicate_prob: 0.02,
                ts_skew_prob: 0.02,
                ts_skew_ns: 5_000_000,
                ts_repeat_prob: 0.02,
                reorder_prob: 0.03,
            },
            fdir: FdirFaultConfig {
                transient_fail_prob: 0.35,
                max_consecutive_failures: 6,
                latency_spike_prob: 0.10,
                latency_spike_ns: 2_000_000,
            },
            ring: RingFaultConfig {
                stall_count: 3,
                stall_ns: 40_000_000,
                period_ns: 400_000_000,
            },
            arena: ArenaFaultConfig {
                spike_count: 3,
                spike_fraction: 0.70,
                spike_ns: 150_000_000,
                period_ns: 500_000_000,
            },
            // The storm leaves the archive layer quiet: store faults are
            // opted into per test/experiment so the live chaos runs stay
            // byte-stable across plans.
            store: StoreFaultConfig::default(),
            flight: FlightFaultConfig::default(),
            workers: vec![
                WorkerFault {
                    worker: 0,
                    after_events: 40,
                    kind: WorkerFaultKind::Panic,
                },
                WorkerFault {
                    worker: 1,
                    after_events: 60,
                    kind: WorkerFaultKind::Stall(80_000_000),
                },
            ],
            tenants: Vec::new(),
            shards: Vec::new(),
            kill_at_packet: None,
        }
    }

    /// The canonical hostile-tenant preset used by the isolation chaos
    /// test and `--exp tenants`: one tenant (the *hostile* one, chosen
    /// deterministically from the seed) stalls its consumer early,
    /// attaches with a quota-busting configuration, and later
    /// disconnects mid-stream, while a second scheduled fault hammers
    /// admission control with an attach/detach storm. All offsets are
    /// derived from `seed ^ SALT_TENANT`, so the schedule is a pure
    /// function of the seed and independent of every other fault layer.
    pub fn tenant_storm(seed: u64, ntenants: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ SALT_TENANT);
        let n = ntenants.max(1);
        let hostile = rng.random_range(0..n);
        let stall_after = rng.random_range(8..64);
        let disconnect_after = stall_after + rng.random_range(200..500);
        let storm_cycles = rng.random_range(3..8);
        FaultPlan {
            seed,
            tenants: vec![
                TenantFault {
                    tenant: hostile,
                    kind: TenantFaultKind::QuotaBuster,
                },
                TenantFault {
                    tenant: hostile,
                    kind: TenantFaultKind::StallConsumer {
                        after_events: stall_after,
                    },
                },
                TenantFault {
                    tenant: hostile,
                    kind: TenantFaultKind::Disconnect {
                        after_events: disconnect_after,
                    },
                },
                TenantFault {
                    tenant: (hostile + 1) % n,
                    kind: TenantFaultKind::AttachStorm {
                        cycles: storm_cycles,
                    },
                },
            ],
            ..Default::default()
        }
    }

    /// The canonical shard-storm preset used by the sharding chaos test
    /// and `--exp soak`: every shard of an `nshards`-wide fleet is hit
    /// at least once — kills, heartbeat stalls, and one checkpoint
    /// corruption — at seeded packet ordinals, so a run exercises the
    /// full lease/backoff/respawn/fallback state machine. All offsets
    /// derive from `seed ^ SALT_SHARD`; the schedule is a pure function
    /// of `(seed, nshards)` and independent of every other fault layer.
    pub fn shard_storm(seed: u64, nshards: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ SALT_SHARD);
        let n = nshards.max(1);
        let mut shards = Vec::new();
        for shard in 0..n {
            let first = rng.random_range(400..1_200);
            shards.push(ShardFault {
                shard,
                at_packet: first,
                kind: ShardFaultKind::Kill,
            });
            // Every other shard also wedges later in the run, forcing a
            // lease-deadline takedown rather than a clean death.
            if shard % 2 == 1 {
                shards.push(ShardFault {
                    shard,
                    at_packet: first + rng.random_range(800..2_000),
                    kind: ShardFaultKind::StallHeartbeat(rng.random_range(5..20) * 1_000_000),
                });
            }
        }
        // One deterministically chosen shard has its latest checkpoint
        // corrupted before a follow-up kill, exercising the fallback to
        // the previous image.
        let victim = rng.random_range(0..n);
        let corrupt_at = rng.random_range(2_400..3_200);
        shards.push(ShardFault {
            shard: victim,
            at_packet: corrupt_at,
            kind: ShardFaultKind::CorruptCheckpoint,
        });
        shards.push(ShardFault {
            shard: victim,
            at_packet: corrupt_at + rng.random_range(50..200),
            kind: ShardFaultKind::Kill,
        });
        FaultPlan {
            seed,
            shards,
            ..Default::default()
        }
    }

    /// The scheduled faults for one shard index, in firing order.
    pub fn shard_faults(&self, shard: usize) -> Vec<ShardFault> {
        let mut v: Vec<ShardFault> = self
            .shards
            .iter()
            .copied()
            .filter(|f| f.shard == shard)
            .collect();
        v.sort_by_key(|f| f.at_packet);
        v
    }

    /// The scheduled faults for one tenant index, in schedule order.
    pub fn tenant_faults(&self, tenant: usize) -> Vec<TenantFault> {
        self.tenants
            .iter()
            .copied()
            .filter(|f| f.tenant == tenant)
            .collect()
    }

    /// Injector for the trace boundary.
    pub fn frame_injector(&self) -> FrameInjector {
        FrameInjector {
            rng: StdRng::seed_from_u64(self.seed ^ SALT_FRAMES),
            cfg: self.frames,
            last_ts: None,
            stats: FrameFaultStats::default(),
        }
    }

    /// Injector for flow-director installs.
    pub fn fdir_injector(&self) -> FdirInjector {
        FdirInjector {
            rng: StdRng::seed_from_u64(self.seed ^ SALT_FDIR),
            cfg: self.fdir,
            consecutive: 0,
        }
    }

    /// Injector for RX ring stalls.
    pub fn ring_injector(&self) -> RingInjector {
        RingInjector {
            windows: schedule_windows(
                self.seed ^ SALT_RING,
                self.ring.stall_count,
                self.ring.stall_ns,
                self.ring.period_ns,
            ),
            anchor: None,
            active: None,
            windows_seen: 0,
        }
    }

    /// Injector for archive segment appends.
    pub fn store_injector(&self) -> StoreInjector {
        StoreInjector {
            rng: StdRng::seed_from_u64(self.seed ^ SALT_STORE),
            cfg: self.store,
            appends: 0,
        }
    }

    /// Injector for arena pressure spikes.
    pub fn arena_injector(&self, budget: u64) -> ArenaInjector {
        ArenaInjector {
            windows: schedule_windows(
                self.seed ^ SALT_ARENA,
                self.arena.spike_count,
                self.arena.spike_ns,
                self.arena.period_ns,
            ),
            reserve: (budget as f64 * self.arena.spike_fraction) as u64,
            anchor: None,
            active: None,
            spikes_seen: 0,
        }
    }
}

/// Place `count` windows of length `len` on a `period` grid, each
/// offset pseudo-randomly within its cell. Returned as (start, end)
/// pairs relative to an anchor chosen at first observation.
fn schedule_windows(seed: u64, count: u32, len: u64, period: u64) -> Vec<(u64, u64)> {
    if count == 0 || len == 0 || period == 0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count as u64)
        .map(|i| {
            let slack = period.saturating_sub(len).max(1);
            let start = i * period + rng.random_range(0..slack);
            (start, start + len)
        })
        .collect()
}

/// Counters kept by [`FrameInjector`]; folded into `ResilienceStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameFaultStats {
    /// Frames with flipped bytes.
    pub corrupted: u64,
    /// Frames truncated.
    pub truncated: u64,
    /// Frames the caller was told to deliver twice.
    pub duplicated: u64,
    /// Timestamp anomalies introduced (skew + repeat).
    pub ts_anomalies: u64,
    /// Frames the caller was told to swap with their successor.
    pub reordered: u64,
}

/// What the trace boundary should do with the frame it just offered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameDirective {
    /// Deliver a second copy of this frame immediately after.
    pub duplicate: bool,
    /// Hold this frame one slot and emit it after the next frame.
    pub swap_with_next: bool,
}

/// Mutates frames and timestamps at the trace boundary.
#[derive(Debug, Clone)]
pub struct FrameInjector {
    rng: StdRng,
    cfg: FrameFaultConfig,
    last_ts: Option<u64>,
    stats: FrameFaultStats,
}

impl FrameInjector {
    /// Apply wire-level faults to one frame in place. The caller
    /// implements the returned directive (duplication/reordering),
    /// since only it owns the packet container type.
    pub fn apply(&mut self, ts_ns: &mut u64, frame: &mut Vec<u8>) -> FrameDirective {
        let cfg = self.cfg;
        let mut directive = FrameDirective::default();

        if !frame.is_empty() && self.rng.random_bool(cfg.corrupt_prob) {
            let flips = self.rng.random_range(1..=4usize).min(frame.len());
            for _ in 0..flips {
                let i = self.rng.random_range(0..frame.len());
                frame[i] ^= self.rng.random::<u8>() | 1;
            }
            self.stats.corrupted += 1;
        }
        if frame.len() > 1 && self.rng.random_bool(cfg.truncate_prob) {
            let keep = self.rng.random_range(1..frame.len());
            frame.truncate(keep);
            self.stats.truncated += 1;
        }
        if self.rng.random_bool(cfg.ts_skew_prob) && cfg.ts_skew_ns > 0 {
            let mag = self.rng.random_range(1..=cfg.ts_skew_ns);
            if self.rng.random::<bool>() {
                *ts_ns = ts_ns.saturating_add(mag);
            } else {
                *ts_ns = ts_ns.saturating_sub(mag);
            }
            self.stats.ts_anomalies += 1;
        } else if self.rng.random_bool(cfg.ts_repeat_prob) {
            if let Some(prev) = self.last_ts {
                *ts_ns = prev;
                self.stats.ts_anomalies += 1;
            }
        }
        if self.rng.random_bool(cfg.duplicate_prob) {
            directive.duplicate = true;
            self.stats.duplicated += 1;
        }
        if self.rng.random_bool(cfg.reorder_prob) {
            directive.swap_with_next = true;
            self.stats.reordered += 1;
        }
        self.last_ts = Some(*ts_ns);
        directive
    }

    /// Counters so far.
    pub fn stats(&self) -> FrameFaultStats {
        self.stats
    }
}

/// Outcome of consulting the FDIR injector for one install attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FdirInstallFault {
    /// Install proceeds normally.
    None,
    /// Install fails transiently; retrying later may succeed.
    TransientFail,
    /// Install succeeds but takes this long.
    Latency(u64),
}

/// Decides the fate of each flow-director install attempt.
#[derive(Debug, Clone)]
pub struct FdirInjector {
    rng: StdRng,
    cfg: FdirFaultConfig,
    consecutive: u32,
}

impl FdirInjector {
    /// Consult the schedule for the next install attempt.
    pub fn on_install(&mut self) -> FdirInstallFault {
        if self.cfg.transient_fail_prob > 0.0
            && self.consecutive < self.cfg.max_consecutive_failures
            && self.rng.random_bool(self.cfg.transient_fail_prob)
        {
            self.consecutive += 1;
            return FdirInstallFault::TransientFail;
        }
        self.consecutive = 0;
        if self.cfg.latency_spike_prob > 0.0 && self.rng.random_bool(self.cfg.latency_spike_prob) {
            return FdirInstallFault::Latency(self.cfg.latency_spike_ns);
        }
        FdirInstallFault::None
    }
}

/// Tracks RX descriptor-ring stall windows against capture time.
#[derive(Debug, Clone)]
pub struct RingInjector {
    windows: Vec<(u64, u64)>,
    anchor: Option<u64>,
    active: Option<usize>,
    windows_seen: u64,
}

impl RingInjector {
    /// Is the ring stalled at `now_ns`? The first call anchors the
    /// schedule, so windows are relative to capture start.
    pub fn stalled(&mut self, now_ns: u64) -> bool {
        let anchor = *self.anchor.get_or_insert(now_ns);
        let t = now_ns.saturating_sub(anchor);
        let hit = self.windows.iter().position(|&(s, e)| t >= s && t < e);
        if let Some(i) = hit {
            if self.active != Some(i) {
                self.active = Some(i);
                self.windows_seen += 1;
            }
            true
        } else {
            self.active = None;
            false
        }
    }

    /// Number of distinct stall windows entered so far.
    pub fn windows_seen(&self) -> u64 {
        self.windows_seen
    }
}

/// Tracks arena pressure-spike windows against capture time.
#[derive(Debug, Clone)]
pub struct ArenaInjector {
    windows: Vec<(u64, u64)>,
    reserve: u64,
    anchor: Option<u64>,
    active: Option<usize>,
    spikes_seen: u64,
}

impl ArenaInjector {
    /// Bytes of the arena budget held hostage at `now_ns` (0 outside
    /// spike windows). The first call anchors the schedule.
    pub fn reserved_at(&mut self, now_ns: u64) -> u64 {
        let anchor = *self.anchor.get_or_insert(now_ns);
        let t = now_ns.saturating_sub(anchor);
        let hit = self.windows.iter().position(|&(s, e)| t >= s && t < e);
        if let Some(i) = hit {
            if self.active != Some(i) {
                self.active = Some(i);
                self.spikes_seen += 1;
            }
            self.reserve
        } else {
            self.active = None;
            0
        }
    }

    /// Number of distinct spikes entered so far.
    pub fn spikes_seen(&self) -> u64 {
        self.spikes_seen
    }
}

/// Outcome of consulting the store injector for one segment append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFault {
    /// Append proceeds normally.
    None,
    /// Only a prefix of the frame reaches disk; the writer dies.
    TornAppend,
    /// The writer is killed after the frame lands but before the index
    /// record is written.
    Kill,
}

/// Decides the fate of each archive segment append.
#[derive(Debug, Clone)]
pub struct StoreInjector {
    rng: StdRng,
    cfg: StoreFaultConfig,
    appends: u64,
}

impl StoreInjector {
    /// Consult the schedule for the next append.
    pub fn on_append(&mut self) -> StoreFault {
        if self.cfg.kill_after_appends > 0 && self.appends >= self.cfg.kill_after_appends {
            return StoreFault::Kill;
        }
        if self.cfg.torn_append_prob > 0.0 && self.rng.random_bool(self.cfg.torn_append_prob) {
            return StoreFault::TornAppend;
        }
        self.appends += 1;
        StoreFault::None
    }

    /// Appends that completed cleanly so far.
    pub fn appends(&self) -> u64 {
        self.appends
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let plan = FaultPlan::storm(42);
        let mut a = plan.frame_injector();
        let mut b = plan.frame_injector();
        for i in 0..500u64 {
            let mut ta = i * 1000;
            let mut tb = i * 1000;
            let mut fa = vec![(i % 251) as u8; 64];
            let mut fb = fa.clone();
            assert_eq!(a.apply(&mut ta, &mut fa), b.apply(&mut tb, &mut fb));
            assert_eq!(ta, tb);
            assert_eq!(fa, fb);
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn tenant_storm_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::tenant_storm(42, 4);
        let b = FaultPlan::tenant_storm(42, 4);
        assert_eq!(a, b, "same seed must produce an identical schedule");
        let c = FaultPlan::tenant_storm(43, 4);
        assert_ne!(a.tenants, c.tenants, "different seeds should differ");
        // The hostile tenant gets the quota-buster, the stall, and the
        // disconnect; some other tenant gets the attach storm.
        let hostile = a.tenants[0].tenant;
        assert_eq!(a.tenant_faults(hostile).len(), 3);
        assert!(a
            .tenants
            .iter()
            .any(|f| matches!(f.kind, TenantFaultKind::AttachStorm { .. }) && f.tenant != hostile));
        // The tenant layer stays quiet in every other injector: the
        // schedule lives in its own salted stream.
        assert_eq!(a.frames, FrameFaultConfig::default());
        assert_eq!(a.kill_at_packet, None);
    }

    #[test]
    fn layers_are_independent() {
        // Disabling the frame layer must not change the FDIR stream.
        let full = FaultPlan::storm(7);
        let mut quiet_frames = FaultPlan::storm(7);
        quiet_frames.frames = FrameFaultConfig::default();
        let mut a = full.fdir_injector();
        let mut b = quiet_frames.fdir_injector();
        for _ in 0..200 {
            assert_eq!(a.on_install(), b.on_install());
        }
    }

    #[test]
    fn fdir_failures_are_bounded() {
        let plan = FaultPlan::storm(3);
        let mut inj = plan.fdir_injector();
        let mut consecutive = 0u32;
        for _ in 0..10_000 {
            match inj.on_install() {
                FdirInstallFault::TransientFail => {
                    consecutive += 1;
                    assert!(consecutive <= plan.fdir.max_consecutive_failures);
                }
                _ => consecutive = 0,
            }
        }
    }

    #[test]
    fn windows_anchor_at_first_observation() {
        let plan = FaultPlan::storm(9);
        let mut r = plan.ring_injector();
        // Probe a long span; all scheduled windows must be entered.
        let base = 5_000_000_000u64;
        for t in 0..3000u64 {
            r.stalled(base + t * 1_000_000);
        }
        assert_eq!(r.windows_seen(), plan.ring.stall_count as u64);
    }

    #[test]
    fn arena_spikes_reserve_budget() {
        let plan = FaultPlan::storm(11);
        let mut a = plan.arena_injector(1 << 20);
        let mut saw_zero = false;
        let mut saw_reserve = false;
        for t in 0..3000u64 {
            let r = a.reserved_at(t * 1_000_000);
            if r == 0 {
                saw_zero = true;
            } else {
                assert_eq!(
                    r,
                    (((1u64 << 20) as f64) * plan.arena.spike_fraction) as u64
                );
                saw_reserve = true;
            }
        }
        assert!(saw_zero && saw_reserve);
        assert_eq!(a.spikes_seen(), plan.arena.spike_count as u64);
    }

    #[test]
    fn store_injector_kills_after_configured_appends() {
        let mut plan = FaultPlan::new(5);
        plan.store = StoreFaultConfig {
            torn_append_prob: 0.0,
            kill_after_appends: 3,
        };
        let mut inj = plan.store_injector();
        assert_eq!(inj.on_append(), StoreFault::None);
        assert_eq!(inj.on_append(), StoreFault::None);
        assert_eq!(inj.on_append(), StoreFault::None);
        assert_eq!(inj.on_append(), StoreFault::Kill);
        assert_eq!(inj.appends(), 3);
    }

    #[test]
    fn store_injector_is_deterministic() {
        let mut plan = FaultPlan::new(6);
        plan.store = StoreFaultConfig {
            torn_append_prob: 0.2,
            kill_after_appends: 0,
        };
        let mut a = plan.store_injector();
        let mut b = plan.store_injector();
        let mut saw_torn = false;
        for _ in 0..200 {
            let fa = a.on_append();
            assert_eq!(fa, b.on_append());
            saw_torn |= fa == StoreFault::TornAppend;
        }
        assert!(saw_torn, "0.2 torn probability never fired in 200 draws");
    }

    #[test]
    fn quiet_plan_is_a_noop() {
        let plan = FaultPlan::new(1);
        let mut inj = plan.frame_injector();
        let mut ts = 123;
        let mut frame = vec![1, 2, 3, 4];
        let d = inj.apply(&mut ts, &mut frame);
        assert_eq!(ts, 123);
        assert_eq!(frame, vec![1, 2, 3, 4]);
        assert_eq!(d, FrameDirective::default());
        assert_eq!(plan.fdir_injector().on_install(), FdirInstallFault::None);
    }
}
