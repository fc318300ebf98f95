//! Property test of the log-linear [`canti_obs::Histogram`] layout: every
//! quantile reads the exact order statistic `x` of its rank below 16 and
//! lies in `[x, x + x/16]` (clamped to the max) above, the exact
//! aggregates are exact, and the Prometheus exposition's octave edges are
//! cumulative, exact bucket edges that end at the octave holding the max,
//! with `+Inf` equal to `_count`.

use canti_obs::expose::render_prometheus;
use canti_obs::Metrics;
use proptest::prelude::*;

/// Log-uniform magnitudes from 0 to 2^40, so every octave and the exact
/// range below 16 are drawn.
fn up_to_2_pow_40() -> impl Strategy<Value = u64> {
    (0u32..41, 0u64..u64::MAX).prop_map(|(bits, r)| r.checked_shr(64 - bits).unwrap_or(0))
}

/// Values within 1024 of `u64::MAX`, `u64::MAX` included.
fn near_u64_max() -> impl Strategy<Value = u64> {
    (0u64..1025).prop_map(|d| u64::MAX - d)
}

/// The exact order statistic of the rank a quantile estimate reads.
fn order_statistic(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn quantiles_are_within_a_sixteenth_and_the_exposition_is_cumulative(
        samples in prop::collection::vec(
            prop_oneof![up_to_2_pow_40(), up_to_2_pow_40(), up_to_2_pow_40(), near_u64_max()],
            1..300,
        )
    ) {
        let metrics = Metrics::new();
        let h = metrics.histogram("lat");
        for &v in &samples {
            h.record(v);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let max = *sorted.last().expect("at least one sample");

        let s = h.snapshot();
        prop_assert_eq!(s.count, samples.len() as u64);
        prop_assert_eq!((s.min, s.max), (sorted[0], max));
        let sum = samples.iter().fold(0u64, |acc, &v| acc.saturating_add(v));
        prop_assert_eq!((s.sum, h.sum(), h.count()), (sum, sum, s.count));
        for (q, reading) in [(0.50, s.p50), (0.95, s.p95), (0.99, s.p99)] {
            let x = order_statistic(&sorted, q);
            if x < 16 {
                prop_assert_eq!(reading, x, "q {} below 16 must be exact", q);
            } else {
                let bound = x.saturating_add(x / 16).min(max);
                prop_assert!(
                    (x..=bound).contains(&reading),
                    "q {}: read {} for order statistic {} (bound {})",
                    q,
                    reading,
                    x,
                    bound
                );
            }
        }

        let text = render_prometheus(&metrics);
        let mut edges: Vec<(u64, u64)> = Vec::new();
        let (mut inf, mut count) = (None, None);
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            let value: u64 = value.parse().expect("integer sample");
            if let Some(le) = series
                .strip_prefix("lat_bucket{le=\"")
                .and_then(|rest| rest.strip_suffix("\"}"))
            {
                match le {
                    "+Inf" => inf = Some(value),
                    edge => edges.push((edge.parse().expect("integer edge"), value)),
                }
            } else if series == "lat_count" {
                count = Some(value);
            }
        }
        prop_assert_eq!(inf, count, "+Inf must equal _count");
        prop_assert_eq!(count, Some(samples.len() as u64));
        prop_assert!(
            edges.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1),
            "edges ascend and counts never decrease: {:?}",
            edges
        );
        for &(edge, cumulative) in &edges {
            prop_assert!(edge == u64::MAX || (edge + 1).is_power_of_two(), "edge {}", edge);
            let exact = sorted.partition_point(|&v| v <= edge) as u64;
            prop_assert_eq!(cumulative, exact, "edge {} is an exact bucket edge", edge);
        }
        let last = edges.last().expect("at least the 0 edge").0;
        prop_assert!(last >= max, "the edges reach the max");
        prop_assert!(
            edges.len() < 2 || edges[edges.len() - 2].0 < max,
            "the edges stop at the octave holding the max"
        );
    }
}
