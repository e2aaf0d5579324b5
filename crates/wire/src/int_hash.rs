//! A multiplicative hasher for integer keys the capture assigns itself.
//!
//! Stream uids, block sizes and the like are not chosen by whoever sends
//! the traffic, so the maps keyed by them need no flood-resistant hash:
//! std's SipHash costs more than the map operation around it on the
//! create and terminate path of every stream. Keys a sender controls
//! (flow keys) keep their own seeded hash ([`FlowKey::sym_hash`]).
//!
//! [`FlowKey::sym_hash`]: crate::FlowKey::sym_hash

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd 64-bit multiplier (⌊2⁶⁴ / φ⌋, as in Fibonacci hashing).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folds each integer written into one word with a rotate, a xor and a
/// multiply. Not for keys an adversary picks.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(K);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    /// The product's high bits carry the most entropy and the table
    /// indexes by the low ones: rotate them down.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` keyed by capture-assigned integers.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` of capture-assigned integers.
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash<T: std::hash::Hash>(v: T) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(v)
    }

    /// Sequential uids and power-of-two block sizes — the keys the maps
    /// hold — land in distinct buckets of a small table.
    #[test]
    fn dense_and_aligned_keys_spread_over_the_low_bits() {
        let buckets = |keys: &mut dyn Iterator<Item = u64>| {
            let mut seen: Vec<u64> = keys.map(|k| hash(k) & 1023).collect();
            seen.sort_unstable();
            seen.dedup();
            seen.len()
        };
        assert!(buckets(&mut (1..=512u64)) > 400);
        assert!(buckets(&mut (6..30).map(|s| 1u64 << s)) >= 23);
        assert_ne!(hash((7u64, 0u8)), hash((7u64, 1u8)));
    }

    #[test]
    fn maps_behave_as_maps() {
        let mut m: IntMap<u64, u32> = IntMap::default();
        for k in 0..10_000u64 {
            m.insert(k * 3, k as u32);
        }
        assert_eq!(m.len(), 10_000);
        assert_eq!(m.remove(&2_997), Some(999));
        assert_eq!(m.get(&3), Some(&1));
        let mut s: IntSet<(u64, u8)> = IntSet::default();
        assert!(s.insert((5, 1)) && !s.insert((5, 1)) && s.remove(&(5, 1)));
    }
}
