//! Order statistics over small samples: median, quartiles, and the
//! percentile a sample is large enough to support.

/// Sorted copy of `v` (NaN-free by construction: every sample is a
/// measured duration, rate or count).
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// Median; 0 for an empty sample.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// `(q1, median, q3)` by the exclusive method — the one Python's
/// `statistics.quantiles(v, n=4)` uses, so numbers printed here can be
/// checked against it. A sample of one has no spread: all three are it.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v);
    let n = s.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    if n == 1 {
        return (s[0], s[0], s[0]);
    }
    let cut = |i: usize| {
        // Position i*(n+1)/4 on a 1-based scale; at the ends of a tiny
        // sample the method extrapolates from the outermost pair.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median (0 when the median
/// is 0): the spread the acceptance rule compares with a metric's bound.
pub fn iqr_share(v: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(v);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it in a sample of `n` (choosing-metrics §1); `None`
/// when even the 50th has fewer.
///
/// Percentiles are written in permille (990 = p99) so that ranks are
/// exact integers.
pub fn supported_percentile(n: usize) -> Option<u32> {
    [999, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|p| n - rank(n, *p).min(n) >= 10)
}

/// Nearest-rank position (1-based) of permille `p` in `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (p as usize * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile (`p` in permille); 0 for an empty sample.
pub fn percentile(v: &[f64], p: u32) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    s[rank(s.len(), p) - 1]
}

/// `p` capped at what the sample supports: the value at permille
/// `min(p, supported)` and the permille actually used.
pub fn capped_percentile(v: &[f64], p: u32) -> (f64, u32) {
    let used = supported_percentile(v.len()).map_or(500, |s| s.min(p));
    (percentile(v, used), used)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), (10.0, 20.0, 30.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // [1,2,3,4,5,6,7] -> [2.0, 4.0, 6.0]
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.0, 4.0, 6.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(iqr_share(&v), 1.0);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples sits at rank 990: exactly ten beyond.
        assert_eq!(supported_percentile(1000), Some(990));
        assert_eq!(supported_percentile(999), Some(950));
        assert_eq!(supported_percentile(10_000), Some(999));
        assert_eq!(supported_percentile(200), Some(950));
        assert_eq!(supported_percentile(100), Some(900));
        assert_eq!(supported_percentile(40), Some(750));
        assert_eq!(supported_percentile(20), Some(500));
        assert_eq!(supported_percentile(19), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&v, 990), 99.0);
        assert_eq!(percentile(&v, 1000), 100.0);
        assert_eq!(percentile(&[], 990), 0.0);
        // 100 samples support p90 at most: p99 is capped to it.
        assert_eq!(capped_percentile(&v, 990), (90.0, 900));
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(capped_percentile(&big, 990), (1980.0, 990));
    }
}
