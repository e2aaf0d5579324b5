//! Fixed 64-bucket log2 histograms.
//!
//! Bucket 0 holds exactly the value 0; bucket `b ≥ 1` holds the range
//! `[2^(b-1), 2^b - 1]` (the top bucket is open-ended). Recording a value
//! is therefore one `leading_zeros` and one indexed add — cheap enough
//! for the per-packet path.

use crate::MetricCell;

/// Number of histogram buckets (covers the full `u64` range).
pub const BUCKETS: usize = 64;

/// The bucket a value lands in.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Inclusive `(low, high)` range of values a bucket holds.
pub fn bucket_range(b: usize) -> (u64, u64) {
    assert!(b < BUCKETS, "bucket {b} out of range");
    match b {
        0 => (0, 0),
        63 => (1u64 << 62, u64::MAX),
        _ => (1u64 << (b - 1), (1u64 << b) - 1),
    }
}

/// A log2 histogram over generic cells (plain or atomic).
pub struct Hist64<C> {
    buckets: [C; BUCKETS],
    sum: C,
}

impl<C: MetricCell> Default for Hist64<C> {
    fn default() -> Self {
        Hist64 {
            buckets: std::array::from_fn(|_| C::default()),
            sum: C::default(),
        }
    }
}

impl<C: MetricCell> Hist64<C> {
    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].add(1);
        self.sum.add(v);
    }

    /// Record `n` observations of the same value in one add — the
    /// batched fast path uses this for amortized per-packet costs.
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        self.buckets[bucket_of(v)].add(n);
        self.sum.add(v.wrapping_mul(n));
    }

    /// Copy the current state out as plain data.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].get()),
            sum: self.sum.get(),
        }
    }
}

/// Plain-data histogram state (what exporters and tests consume).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket observation counts.
    pub buckets: [u64; BUCKETS],
    /// Sum of all recorded values (for means).
    pub sum: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            buckets: [0; BUCKETS],
            sum: 0,
        }
    }
}

impl HistSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0 ≤ q ≤ 1.0`) with linear
    /// interpolation inside the containing bucket: the `r`-th of `c`
    /// observations in bucket `[lo, hi]` is placed at the midpoint of
    /// its 1/c-wide slice (`lo + (hi-lo)·(2r-1)/(2c)`), so a
    /// single-observation bucket estimates its midpoint rather than its
    /// lower bound. The estimate always stays inside the bucket that
    /// holds the true rank-`⌈q·n⌉` sample, i.e. within 2× of the true
    /// quantile. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, c) in self.buckets.iter().enumerate() {
            if *c == 0 {
                continue;
            }
            if seen + c >= rank {
                let (lo, hi) = bucket_range(b);
                let r = rank - seen; // 1-based rank within this bucket
                let width = hi - lo;
                let off = (width as u128 * (2 * r as u128 - 1) / (2 * *c as u128)) as u64;
                return lo + off;
            }
            seen += c;
        }
        bucket_range(BUCKETS - 1).0
    }

    /// Conservative quantile: the lower bound of the containing bucket,
    /// guaranteed ≤ the true quantile. The pulse plane's exemplar
    /// threshold uses this so the tail-sample set is never vacuously
    /// empty (an interpolated estimate can overshoot the true sample
    /// maximum when the quantile bucket is the top occupied one).
    pub(crate) fn quantile_floor(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_range(b).0;
            }
        }
        bucket_range(BUCKETS - 1).0
    }

    /// Element-wise accumulate another histogram into this one. The sum
    /// wraps like the recording path does, so merging shard snapshots
    /// of extreme values cannot panic.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.wrapping_add(*b);
        }
        self.sum = self.sum.wrapping_add(other.sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_range(1), (1, 1));
        assert_eq!(bucket_range(2), (2, 3));
        assert_eq!(bucket_range(63).1, u64::MAX);
    }

    proptest! {
        /// Satellite: value → bucket → range round-trip. Every value lands
        /// in a bucket whose range contains it, and both range endpoints
        /// map back to that same bucket.
        #[test]
        fn bucket_round_trip(v in any::<u64>()) {
            let b = bucket_of(v);
            let (lo, hi) = bucket_range(b);
            prop_assert!(lo <= v && v <= hi, "value {v} outside bucket {b} range [{lo},{hi}]");
            prop_assert_eq!(bucket_of(lo), b);
            prop_assert_eq!(bucket_of(hi), b);
        }

        #[test]
        fn buckets_partition_the_u64_line(b in 0usize..BUCKETS) {
            // Adjacent buckets tile the line with no gap or overlap.
            let (lo, hi) = bucket_range(b);
            prop_assert!(lo <= hi);
            if b + 1 < BUCKETS {
                let (next_lo, _) = bucket_range(b + 1);
                prop_assert_eq!(hi + 1, next_lo);
            }
        }
    }

    #[test]
    fn quantiles_and_mean() {
        let h: Hist64<std::cell::Cell<u64>> = Hist64::default();
        for v in [1u64, 1, 1, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 4);
        assert_eq!(s.sum, 1003);
        // p50 falls in bucket 1 (the single-value bucket [1,1]), so
        // interpolation cannot move it; p99 interpolates to the midpoint
        // of 1000's bucket [512,1023] rather than its lower bound.
        assert_eq!(s.quantile(0.5), 1);
        let (lo, hi) = bucket_range(bucket_of(1000));
        assert_eq!(s.quantile(0.99), lo + (hi - lo) / 2);
        assert_eq!(s.quantile_floor(0.99), lo);
        assert_eq!(s.quantile_floor(0.5), 1);
        assert!((s.mean() - 250.75).abs() < 1e-9);
        assert_eq!(HistSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let a: Hist64<std::cell::Cell<u64>> = Hist64::default();
        let b: Hist64<std::cell::Cell<u64>> = Hist64::default();
        for _ in 0..7 {
            a.record(900);
        }
        b.record_n(900, 7);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    fn hist_of(samples: &[u64]) -> HistSnapshot {
        let h: Hist64<std::cell::Cell<u64>> = Hist64::default();
        for &v in samples {
            h.record(v);
        }
        h.snapshot()
    }

    /// True rank-based quantile of a raw sample set.
    fn true_quantile(samples: &mut [u64], q: f64) -> u64 {
        samples.sort_unstable();
        let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
        samples[rank - 1]
    }

    proptest! {
        /// Satellite: merging per-shard histograms is commutative and
        /// associative — the fleet harvest may absorb shards in any order.
        #[test]
        fn merge_is_commutative_and_associative(
            a in proptest::collection::vec(any::<u64>(), 0..40),
            b in proptest::collection::vec(any::<u64>(), 0..40),
            c in proptest::collection::vec(any::<u64>(), 0..40),
        ) {
            let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
            // a+b == b+a
            let mut ab = ha.clone();
            ab.merge(&hb);
            let mut ba = hb.clone();
            ba.merge(&ha);
            prop_assert_eq!(&ab, &ba);
            // (a+b)+c == a+(b+c)
            let mut ab_c = ab.clone();
            ab_c.merge(&hc);
            let mut bc = hb.clone();
            bc.merge(&hc);
            let mut a_bc = ha.clone();
            a_bc.merge(&bc);
            prop_assert_eq!(ab_c, a_bc);
        }

        /// Satellite: a merged histogram's quantile estimate lands in the
        /// same log2 bucket as the true quantile of the concatenated
        /// sample streams — i.e. the estimate is bounded within a factor
        /// of two of the exact order statistic, and the interpolated
        /// value never escapes the containing bucket.
        #[test]
        fn merged_quantile_bounds_true_quantile(
            a in proptest::collection::vec(any::<u64>(), 1..60),
            b in proptest::collection::vec(any::<u64>(), 1..60),
            qm in 1u32..1000,
        ) {
            let q = f64::from(qm) / 1000.0;
            let mut merged = hist_of(&a);
            merged.merge(&hist_of(&b));
            let mut all: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
            let exact = true_quantile(&mut all, q);
            let est = merged.quantile(q);
            let (lo, hi) = bucket_range(bucket_of(exact));
            prop_assert!(
                lo <= est && est <= hi,
                "estimate {est} escaped bucket [{lo},{hi}] of true quantile {exact}"
            );
            let cons = merged.quantile_floor(q);
            prop_assert!(cons <= exact, "conservative estimate {cons} > true {exact}");
        }
    }
}
