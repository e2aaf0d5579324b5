#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # scap-shard
//!
//! Scale-out sharding primitives for a supervised capture fleet: the
//! leaf mechanisms the `scap::shard` supervisor composes into a
//! fault-tolerant multi-shard capture.
//!
//! * [`ShardMap`] — RSS-consistent partitioning: a flow key is hashed
//!   with the same symmetric Toeplitz-style hash the fast path and the
//!   flow table use ([`scap_fastpath::hash_key`]), so **both directions
//!   of a flow land on the same shard** for any shard count ≥ 1, and a
//!   shard's partition is a pure function of `(seed, nshards)`.
//! * [`Lease`] — a per-shard heartbeat lease with deadline detection:
//!   the supervisor beats the lease on every observed unit of progress
//!   and declares the shard stalled when work is pending and the lease
//!   age passes the deadline.
//! * [`Backoff`] — exponential backoff with deterministic, seeded
//!   jitter and a hard cap. The same policy paces shard respawns and
//!   the kernel's FDIR install retries.
//! * [`CircuitBreaker`] — M failures inside a sliding window trips the
//!   breaker; the supervisor then parks the shard (or stops respawning
//!   a worker slot) instead of thrashing forever.
//!
//! Everything here is deterministic: no wall clock, no global RNG.
//! Timestamps are the caller's (virtual) clock and jitter derives from
//! [`scap_wire::splitmix64`] over caller-provided tokens, so a seeded
//! run schedules byte-identical respawns.

use scap_wire::{splitmix64, FlowKey};
use std::collections::VecDeque;

// ---------------------------------------------------------------------------
// Partitioning
// ---------------------------------------------------------------------------

/// RSS-consistent symmetric partitioning of flows onto shards.
///
/// `shard_of(key) == shard_of(key.reversed())` for every key, because
/// the underlying hash is computed over the canonical (direction
/// normalized) key — the property NIC RSS needs symmetric Toeplitz
/// keys for, inherited here from `FlowKey::sym_hash`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    nshards: usize,
    seed: u64,
}

impl ShardMap {
    /// A map over `nshards` shards (clamped to ≥ 1) with the given
    /// hash seed. The seed must match across restarts for partitions
    /// to remain stable.
    pub fn new(nshards: usize, seed: u64) -> Self {
        ShardMap {
            nshards: nshards.max(1),
            seed,
        }
    }

    /// Number of shards.
    pub fn nshards(&self) -> usize {
        self.nshards
    }

    /// The hash seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shard owning `key` (either direction maps identically).
    pub fn shard_of(&self, key: &FlowKey) -> usize {
        let hashed = scap_fastpath::hash_key(self.seed, key);
        self.shard_of_hash(hashed.hash)
    }

    /// The shard owning a pre-computed symmetric hash.
    pub fn shard_of_hash(&self, hash: u64) -> usize {
        // Multiply-shift reduction keeps all 64 hash bits in play
        // (plain modulo would only use the low bits' entropy).
        ((u128::from(hash) * self.nshards as u128) >> 64) as usize
    }
}

// ---------------------------------------------------------------------------
// Heartbeat leases
// ---------------------------------------------------------------------------

/// A per-shard heartbeat lease. The supervisor beats it on every unit
/// of observed progress; [`Lease::expired`] reports a deadline miss
/// only while work is pending (an idle shard never expires).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    deadline_ns: u64,
    last_beat_ns: u64,
    /// Offers made to the shard since the last beat — pending work.
    pending: u64,
}

impl Lease {
    /// A fresh lease with the given deadline, anchored at `now_ns`.
    pub fn new(deadline_ns: u64, now_ns: u64) -> Self {
        Lease {
            deadline_ns: deadline_ns.max(1),
            last_beat_ns: now_ns,
            pending: 0,
        }
    }

    /// Record progress: the shard processed work at `now_ns`.
    pub fn beat(&mut self, now_ns: u64) {
        self.last_beat_ns = self.last_beat_ns.max(now_ns);
        self.pending = 0;
    }

    /// Record an offer the shard has not yet acknowledged.
    pub fn offered(&mut self) {
        self.pending += 1;
    }

    /// Age of the lease at `now_ns`.
    pub fn age(&self, now_ns: u64) -> u64 {
        now_ns.saturating_sub(self.last_beat_ns)
    }

    /// Work offered since the last beat.
    pub fn pending(&self) -> u64 {
        self.pending
    }

    /// Deadline miss: work is pending and the lease age passed the
    /// deadline.
    pub fn expired(&self, now_ns: u64) -> bool {
        self.pending > 0 && self.age(now_ns) > self.deadline_ns
    }
}

// ---------------------------------------------------------------------------
// Backoff
// ---------------------------------------------------------------------------

/// Exponential backoff with deterministic jitter and a hard cap.
///
/// The raw schedule is `base << attempt`, capped at `cap`; up to 25%
/// of the raw delay is added as jitter derived from
/// `splitmix64(seed ^ token ^ attempt)`, so concurrent retriers with
/// distinct tokens de-synchronize while a seeded run stays
/// byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// First delay, in nanoseconds.
    pub base_ns: u64,
    /// Hard ceiling on any single delay (jitter included).
    pub cap_ns: u64,
    /// Jitter seed.
    pub seed: u64,
}

impl Backoff {
    /// A policy with the given base and cap (cap clamped to ≥ base).
    pub fn new(base_ns: u64, cap_ns: u64, seed: u64) -> Self {
        Backoff {
            base_ns: base_ns.max(1),
            cap_ns: cap_ns.max(base_ns.max(1)),
            seed,
        }
    }

    /// The delay before retry number `attempt` (0-based) for the
    /// retrier identified by `token` (a shard index, stream uid, …).
    pub fn delay_ns(&self, attempt: u32, token: u64) -> u64 {
        let raw = self
            .base_ns
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.cap_ns);
        let jitter_span = raw / 4 + 1;
        let jitter = splitmix64(self.seed ^ token ^ u64::from(attempt)) % jitter_span;
        raw.saturating_add(jitter).min(self.cap_ns)
    }
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

/// M-failures-in-a-window circuit breaker.
///
/// Failures are recorded with the caller's clock; when `threshold`
/// failures land inside `window_ns`, the breaker trips and stays
/// tripped (the supervisor parks the shard — there is no half-open
/// probing state, recovery is an operator decision).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitBreaker {
    threshold: u32,
    window_ns: u64,
    failures: VecDeque<u64>,
    tripped: bool,
}

impl CircuitBreaker {
    /// A breaker tripping after `threshold` failures inside
    /// `window_ns` (threshold clamped to ≥ 1).
    pub fn new(threshold: u32, window_ns: u64) -> Self {
        CircuitBreaker {
            threshold: threshold.max(1),
            window_ns: window_ns.max(1),
            failures: VecDeque::new(),
            tripped: false,
        }
    }

    /// Record a failure at `now_ns`; returns `true` when this failure
    /// trips the breaker (exactly once — later failures on a tripped
    /// breaker return `false`).
    pub fn record_failure(&mut self, now_ns: u64) -> bool {
        if self.tripped {
            return false;
        }
        self.failures.push_back(now_ns);
        while let Some(&t) = self.failures.front() {
            if now_ns.saturating_sub(t) > self.window_ns {
                self.failures.pop_front();
            } else {
                break;
            }
        }
        if self.failures.len() >= self.threshold as usize {
            self.tripped = true;
            return true;
        }
        false
    }

    /// Is the breaker tripped?
    pub fn is_tripped(&self) -> bool {
        self.tripped
    }

    /// Failures currently inside the window.
    pub fn failures_in_window(&self) -> u32 {
        self.failures.len() as u32
    }
}

// ---------------------------------------------------------------------------
// Shard state
// ---------------------------------------------------------------------------

/// Lifecycle state of one shard under supervision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Running and holding its lease.
    Up,
    /// Killed (crash or stall takedown); waiting out its backoff
    /// before the supervisor respawns it from a checkpoint.
    Respawning,
    /// Circuit breaker tripped: no further respawns; the partition's
    /// loss is accounted until the capture ends.
    Parked,
}

impl ShardState {
    /// Stable lowercase name (status tables, CSV columns).
    pub const fn name(self) -> &'static str {
        match self {
            ShardState::Up => "up",
            ShardState::Respawning => "respawning",
            ShardState::Parked => "parked",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap_wire::{FlowKey, Transport};

    fn key(a: u8, b: u8, pa: u16, pb: u16) -> FlowKey {
        FlowKey::new_v4([10, 0, 0, a], [10, 0, 0, b], pa, pb, Transport::Tcp)
    }

    #[test]
    fn partitioning_is_direction_symmetric() {
        let map = ShardMap::new(7, 0xABCD);
        for i in 0..200u8 {
            let k = key(i, i.wrapping_add(1), 1000 + u16::from(i), 80);
            assert_eq!(map.shard_of(&k), map.shard_of(&k.reversed()));
        }
    }

    #[test]
    fn partitioning_covers_all_shards_and_is_stable() {
        let map = ShardMap::new(8, 42);
        let again = ShardMap::new(8, 42);
        let mut seen = [false; 8];
        for i in 0..255u8 {
            let k = key(i, 1, 40_000 + u16::from(i), 443);
            let s = map.shard_of(&k);
            assert!(s < 8);
            assert_eq!(s, again.shard_of(&k), "same map, same shard");
            seen[s] = true;
        }
        assert!(seen.iter().all(|&s| s), "255 flows must touch all 8 shards");
    }

    #[test]
    fn single_shard_takes_everything() {
        let map = ShardMap::new(1, 7);
        for i in 0..50u8 {
            assert_eq!(map.shard_of(&key(i, 2, 1, 2)), 0);
        }
    }

    #[test]
    fn lease_expires_only_with_pending_work() {
        let mut l = Lease::new(1_000, 0);
        // Idle forever: never expired.
        assert!(!l.expired(1_000_000));
        l.offered();
        assert!(!l.expired(500));
        assert!(l.expired(1_001));
        l.beat(1_200);
        assert!(!l.expired(2_000));
        assert_eq!(l.pending(), 0);
    }

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let b = Backoff::new(1_000, 64_000, 9);
        let d0 = b.delay_ns(0, 3);
        let d3 = b.delay_ns(3, 3);
        assert!((1_000..=1_250).contains(&d0));
        assert!((8_000..=10_000).contains(&d3));
        assert_eq!(d3, Backoff::new(1_000, 64_000, 9).delay_ns(3, 3));
        for a in 0..30 {
            assert!(b.delay_ns(a, 1) <= 64_000, "cap must hold at attempt {a}");
        }
        // Distinct tokens de-synchronize.
        assert_ne!(b.delay_ns(2, 1), b.delay_ns(2, 2));
    }

    #[test]
    fn breaker_trips_on_threshold_inside_window() {
        let mut cb = CircuitBreaker::new(3, 1_000);
        assert!(!cb.record_failure(0));
        assert!(!cb.record_failure(100));
        assert!(cb.record_failure(200), "third failure in window trips");
        assert!(cb.is_tripped());
        assert!(!cb.record_failure(300), "trips only once");
    }

    #[test]
    fn breaker_forgets_failures_outside_the_window() {
        let mut cb = CircuitBreaker::new(3, 1_000);
        assert!(!cb.record_failure(0));
        assert!(!cb.record_failure(100));
        // The first two fall out of the window before the third lands.
        assert!(!cb.record_failure(5_000));
        assert!(!cb.is_tripped());
        assert_eq!(cb.failures_in_window(), 1);
    }

    #[test]
    fn shard_state_names_are_stable() {
        assert_eq!(ShardState::Up.name(), "up");
        assert_eq!(ShardState::Respawning.name(), "respawning");
        assert_eq!(ShardState::Parked.name(), "parked");
    }
}
