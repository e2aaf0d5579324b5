#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # scap-fastpath
//!
//! Poll-mode kernel-bypass primitives: the batched building blocks of
//! Scap's fast dispatch path. It polls the NIC descriptor rings and
//! takes packets in bursts (DPDK-style, ~64 frames at a time); a ring
//! entry carries what admission parsed out of its frame, so a burst
//! is ready, where it sits at the front of the ring, for a pipeline of
//! stages that each sweep the whole burst:
//!
//! ```text
//! burst at the ──► hash all ──► stage the table walk ──► per packet: probe ─► lane ──► drain
//! ring's front     (canonical    (loads only, three        (every line it needs         the burst
//! (frames +         key, dir,     sweeps: index lines →     already on its way
//!  their parse)     sym_hash)     record + state → list     into cache)
//!                                 neighbours)
//! ```
//!
//! Batching amortizes the per-burst entry cost (ring access, poll
//! bookkeeping) over its frames. Its larger gift is that a burst knows
//! its next few dozen flow-table probes ahead of time: hashing the burst
//! up front yields every address the first link of each probe's miss
//! chain needs, the staging sweeps issue those loads for all keys before
//! any is used, and the cache misses of different flows overlap instead
//! of queueing one packet behind another (`scap_flow::table`, "Staging a
//! burst"; DESIGN §9.1 has the measurements).
//!
//! This crate is deliberately a leaf: it knows about keys
//! ([`scap_wire::FlowKey`]) — not about rings, the flow table, kernel,
//! arena, or event machinery. The `scap` core composes these primitives
//! with the ring it borrows and the table's staging calls into its
//! `poll_burst` dispatch loop, so both the classic and fast paths share
//! one set of processing and accounting funnels.

use scap_wire::{Direction, FlowKey};

/// Default frames per burst (the DPDK sweet spot: large enough to
/// amortize the ring access, small enough to stay L1-resident).
pub const DEFAULT_BURST: usize = 64;

/// A canonicalized, pre-hashed flow key: the output of the batched
/// hash stage, ready for a prehashed flow-table probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashedKey {
    /// The canonical (direction-normalized) key.
    pub canon: FlowKey,
    /// Direction of the original key relative to `canon`.
    pub dir: Direction,
    /// `canon.sym_hash(seed)` — the flow table's hash function.
    pub hash: u64,
}

/// Canonicalize and hash one key with the flow table's `seed`.
#[inline]
pub fn hash_key(seed: u64, key: &FlowKey) -> HashedKey {
    let (canon, dir) = key.canonical();
    HashedKey {
        canon,
        dir,
        hash: canon.sym_hash(seed),
    }
}

/// The batched hash stage: canonicalize + hash every key of a burst in
/// one arithmetic-only sweep (no table memory is touched). `None`
/// entries (unparseable or keyless frames) pass through as `None`.
pub fn hash_burst(
    seed: u64,
    keys: impl Iterator<Item = Option<FlowKey>>,
    out: &mut Vec<Option<HashedKey>>,
) {
    out.clear();
    out.extend(keys.map(|k| k.map(|k| hash_key(seed, &k))));
}

/// Rolling burst-fill statistics for a poll-mode loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BurstStats {
    /// Burst pulls that returned at least one frame.
    pub bursts: u64,
    /// Frames pulled across all non-empty bursts.
    pub packets: u64,
    /// Total capacity of those bursts (`bursts * burst_size`).
    pub capacity: u64,
    /// Polls that found the ring empty.
    pub empty_polls: u64,
}

impl BurstStats {
    /// Record one pull of `pulled` frames against a `max`-sized burst.
    pub fn record(&mut self, pulled: usize, max: usize) {
        if pulled == 0 {
            self.empty_polls += 1;
            return;
        }
        self.bursts += 1;
        self.packets += pulled as u64;
        self.capacity += max as u64;
    }

    /// Mean burst fill ratio in permille (1000 = every burst full).
    pub fn fill_permille(&self) -> u64 {
        (self.packets * 1000)
            .checked_div(self.capacity)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap_wire::Transport;

    fn key(i: u32) -> FlowKey {
        FlowKey::new_v4(
            [10, 0, (i >> 8) as u8, i as u8],
            [192, 168, 0, 1],
            1024 + (i % 60000) as u16,
            80,
            Transport::Tcp,
        )
    }

    #[test]
    fn hash_burst_matches_scalar_path() {
        let seed = 0xFEED;
        let keys: Vec<Option<FlowKey>> = (0..32).map(|i| (i % 5 != 0).then(|| key(i))).collect();
        let mut out = Vec::new();
        hash_burst(seed, keys.iter().copied(), &mut out);
        assert_eq!(out.len(), keys.len());
        for (k, h) in keys.iter().zip(&out) {
            match (k, h) {
                (Some(k), Some(h)) => {
                    let (canon, dir) = k.canonical();
                    assert_eq!(h.canon, canon);
                    assert_eq!(h.dir, dir);
                    assert_eq!(h.hash, canon.sym_hash(seed));
                }
                (None, None) => {}
                _ => panic!("None entries must pass through"),
            }
        }
    }

    #[test]
    fn hashed_key_is_direction_symmetric() {
        let k = key(7);
        let a = hash_key(9, &k);
        let b = hash_key(9, &k.reversed());
        assert_eq!(a.canon, b.canon);
        assert_eq!(a.hash, b.hash);
        assert_ne!(a.dir, b.dir);
    }

    #[test]
    fn burst_stats_fill_ratio() {
        let mut s = BurstStats::default();
        s.record(64, 64);
        s.record(32, 64);
        s.record(0, 64);
        assert_eq!(s.bursts, 2);
        assert_eq!(s.packets, 96);
        assert_eq!(s.empty_polls, 1);
        assert_eq!(s.fill_permille(), 750);
    }
}
