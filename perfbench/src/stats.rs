//! Exact order statistics over client-side samples.
//!
//! Every quantile the benchmark reports is a nearest-rank order
//! statistic of the raw samples: the value at 1-based rank
//! `ceil(q * n)` of the sorted sample. Percentiles are kept in
//! per-mille so the rank is integer arithmetic, never a rounded float.
//! A request that did not come back OK is an infinitely slow sample, so
//! it sorts past every real latency and drags the tail with it.

/// A percentile in per-mille: `Pct(500)` is the median, `Pct(990)` p99.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pct(pub u32);

impl Pct {
    pub const P50: Self = Self(500);
    pub const P90: Self = Self(900);
    pub const P95: Self = Self(950);
    pub const P99: Self = Self(990);

    /// The tail candidates, highest first.
    pub const TAILS: [Self; 3] = [Self::P99, Self::P95, Self::P90];

    /// `p50`, `p90`, `p99`, ...
    pub fn label(self) -> String {
        format!("p{}", self.0 / 10)
    }

    /// The 1-based nearest rank among `n` samples: `ceil(q * n)`, at
    /// least 1.
    pub fn rank(self, n: usize) -> usize {
        (self.0 as usize * n).div_ceil(1000).max(1)
    }

    /// How many of `n` samples sort strictly beyond this percentile.
    pub fn beyond(self, n: usize) -> usize {
        n.saturating_sub(self.rank(n))
    }
}

/// The highest of p99, p95 and p90 that leaves at least ten samples
/// beyond it among `n`; `None` when even p90 has fewer than ten.
pub fn tail_pct(n: usize) -> Option<Pct> {
    Pct::TAILS.into_iter().find(|p| p.beyond(n) >= 10)
}

/// Latency samples in milliseconds, ascending: the OK latencies plus
/// `failed` infinitely slow ones.
pub fn latency_ms(ok_ns: impl IntoIterator<Item = u64>, failed: usize) -> Vec<f64> {
    let mut v: Vec<f64> = ok_ns.into_iter().map(|ns| ns as f64 / 1e6).collect();
    v.extend(std::iter::repeat_n(f64::INFINITY, failed));
    sorted(v)
}

/// `v` sorted ascending (total order, so infinities sort last).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The nearest-rank percentile of an ascending sample; NaN when empty.
pub fn quantile(sorted: &[f64], p: Pct) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[p.rank(sorted.len()) - 1]
}

/// The median of an unsorted sample; NaN when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), Pct::P50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_order_statistics() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, Pct::P50), 50.0);
        assert_eq!(quantile(&v, Pct::P90), 90.0);
        assert_eq!(quantile(&v, Pct::P99), 99.0);
        // nearest rank rounds the rank up, never interpolates
        let odd = [1.0, 2.0, 3.0];
        assert_eq!(quantile(&odd, Pct::P50), 2.0);
        assert_eq!(quantile(&[7.5], Pct::P99), 7.5);
        assert!(quantile(&[], Pct::P50).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.0);
    }

    #[test]
    fn ranks_are_integer_exact_at_the_thresholds() {
        // 0.99 * 1000 is not exactly 990 in binary floating point; the
        // per-mille rank must still be exactly 990
        assert_eq!(Pct::P99.rank(1000), 990);
        assert_eq!(Pct::P99.beyond(1000), 10);
        assert_eq!(Pct::P99.rank(999), 990);
        assert_eq!(Pct::P99.beyond(999), 9);
        assert_eq!(Pct::P50.rank(1), 1);
        assert_eq!(Pct::P50.rank(0), 1);
        assert_eq!(Pct::P99.label(), "p99");
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_pct(100_000), Some(Pct::P99));
        assert_eq!(tail_pct(1000), Some(Pct::P99));
        assert_eq!(tail_pct(999), Some(Pct::P95));
        assert_eq!(tail_pct(200), Some(Pct::P95));
        assert_eq!(tail_pct(199), Some(Pct::P90));
        assert_eq!(tail_pct(100), Some(Pct::P90));
        assert_eq!(tail_pct(99), None);
        assert_eq!(tail_pct(0), None);
    }

    #[test]
    fn failed_requests_are_infinitely_slow_samples() {
        // 95 fast answers and 5 failures: the median is untouched, the
        // tail lands on the failures
        let v = latency_ms((1..=95).map(|i| i * 1_000_000), 5);
        assert_eq!(v.len(), 100);
        assert_eq!(quantile(&v, Pct::P50), 50.0);
        assert_eq!(quantile(&v, Pct::P95), 95.0);
        assert_eq!(quantile(&v, Pct::P99), f64::INFINITY);
        // a run where most requests fail has an infinite median
        let bad = latency_ms([1_000_000], 3);
        assert_eq!(quantile(&bad, Pct::P50), f64::INFINITY);
    }
}
