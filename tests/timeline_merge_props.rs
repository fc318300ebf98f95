//! Property tests for the timeline (vendored proptest).
//!
//! `timeline::merge_timelines`: the merged view is exactly the
//! per-window fold of the per-shard snapshots — no series or window
//! invented, none dropped, counts and sums added, min and max widened,
//! each series' kind taken from the first shard that carries it — and
//! the fold is order-independent. The merged `/debug/timeline` view,
//! SLO verdicts included, relies on it.
//!
//! `TimelineRecorder::record`: recording by resolved id, in any grouping
//! of the observations, leaves the same snapshot and NDJSON as recording
//! by name, and resolving series that are never observed changes
//! neither.

use std::collections::BTreeMap;

use canti::obs::{
    merge_timelines, SeriesKind, SeriesPoint, SeriesWindows, TimelineConfig, TimelineRecorder,
};
use proptest::prelude::*;

/// Series names, with the kind each carries when every shard agrees.
const SERIES: [(&str, SeriesKind); 4] = [
    ("farm.batches", SeriesKind::Delta),
    ("serve.queue_depth", SeriesKind::Sample),
    ("slo.breached", SeriesKind::Delta),
    ("slo.good", SeriesKind::Delta),
];

/// A fold of windows: index -> (count, sum, min, max).
type Windows = BTreeMap<u64, (u64, u64, u64, u64)>;

/// An arbitrary shard snapshot shaped the way a recorder reports one:
/// series sorted by name, each holding sparse non-empty windows sorted
/// by index. Values stay small enough to add without saturating
/// (saturation has its own unit test). With `mixed_kinds` a series'
/// kind is drawn per shard; otherwise it follows its name.
fn shard_snapshot(mixed_kinds: bool) -> impl Strategy<Value = Vec<SeriesWindows>> {
    let window = (0u64..24, 1u64..50, 0u64..1_000, 0u64..1_000);
    let series = (
        0usize..SERIES.len(),
        0u8..2,
        proptest::collection::vec(window, 1..8),
    );
    proptest::collection::vec(series, 0..6).prop_map(move |rows| {
        let mut folded: BTreeMap<usize, (SeriesKind, BTreeMap<u64, SeriesPoint>)> = BTreeMap::new();
        for (name, drawn, windows) in rows {
            let kind = match (mixed_kinds, drawn) {
                (true, 0) => SeriesKind::Delta,
                (true, _) => SeriesKind::Sample,
                (false, _) => SERIES[name].1,
            };
            let (_, points) = folded.entry(name).or_insert((kind, BTreeMap::new()));
            for (index, count, a, b) in windows {
                let (min, max) = (a.min(b), a.max(b));
                let p = points.entry(index).or_insert(SeriesPoint {
                    index,
                    count: 0,
                    sum: 0,
                    min,
                    max,
                });
                p.count += count;
                p.sum += count * (min + max) / 2;
                p.min = p.min.min(min);
                p.max = p.max.max(max);
            }
        }
        folded
            .into_iter()
            .map(|(name, (kind, points))| SeriesWindows {
                name: SERIES[name].0.to_owned(),
                kind,
                points: points.into_values().collect(),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// merged == the per-window fold of the shards, series by series.
    #[test]
    fn merged_equals_the_per_window_fold(
        shards in proptest::collection::vec(shard_snapshot(true), 0..6),
    ) {
        let merged = merge_timelines(&shards);

        let mut expected: BTreeMap<&str, (SeriesKind, Windows)> = BTreeMap::new();
        for shard in &shards {
            for series in shard {
                let (_, windows) = expected
                    .entry(series.name.as_str())
                    .or_insert((series.kind, BTreeMap::new()));
                for p in &series.points {
                    let w = windows.entry(p.index).or_insert((0, 0, u64::MAX, 0));
                    w.0 += p.count;
                    w.1 += p.sum;
                    w.2 = w.2.min(p.min);
                    w.3 = w.3.max(p.max);
                }
            }
        }
        prop_assert_eq!(merged.len(), expected.len(), "exactly the observed series");
        for (series, (name, (kind, windows))) in merged.iter().zip(&expected) {
            prop_assert_eq!(series.name.as_str(), *name, "sorted by series name");
            prop_assert_eq!(series.kind, *kind, "kind from the first shard carrying it");
            let folded: Vec<(u64, u64, u64, u64, u64)> = windows
                .iter()
                .map(|(&index, &(count, sum, min, max))| (index, count, sum, min, max))
                .collect();
            let got: Vec<(u64, u64, u64, u64, u64)> = series
                .points
                .iter()
                .map(|p| (p.index, p.count, p.sum, p.min, p.max))
                .collect();
            prop_assert_eq!(got, folded, "window by window, sorted by index");
        }
    }

    /// Shard order never matters: merging is a commutative fold.
    #[test]
    fn merge_is_shard_order_independent(
        shards in proptest::collection::vec(shard_snapshot(false), 2..5),
    ) {
        let forward = merge_timelines(&shards);
        let mut reversed = shards.clone();
        reversed.reverse();
        prop_assert_eq!(forward, merge_timelines(&reversed));
    }
}

/// One observation: series (an index into [`SERIES`]'s names, so names
/// repeat), kind draw (0 = delta), value, `t_ns`, and whether the id
/// writer flushes its pending group after it (on 0).
type Observation = (usize, u8, u64, u64, u8);

/// Observation sequences over 100 ns windows spread across 20 windows,
/// out of clock order, so a 4-window ring evicts and late observations
/// land in older windows. A name's first draw fixes its kind; later
/// draws of the other kind exercise the sticky-kind rule.
fn observations() -> impl Strategy<Value = Vec<Observation>> {
    proptest::collection::vec(
        (
            0usize..SERIES.len(),
            0u8..2,
            0u64..1_000,
            0u64..2_000,
            0u8..3,
        ),
        0..64,
    )
}

fn kind(draw: u8) -> SeriesKind {
    if draw == 0 {
        SeriesKind::Delta
    } else {
        SeriesKind::Sample
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `series` + `record` in random groupings == `record_delta` /
    /// `sample` one observation at a time, with extra series resolved
    /// before and after the observations but never observed.
    #[test]
    fn recording_by_id_equals_recording_by_name(
        observations in observations(),
        unobserved in 0usize..4,
    ) {
        let config = TimelineConfig { window_ns: 100, max_windows: 4 };
        let by_name = TimelineRecorder::new(config);
        for &(name, draw, value, t_ns, _) in &observations {
            match kind(draw) {
                SeriesKind::Delta => by_name.record_delta(SERIES[name].0, value, t_ns),
                SeriesKind::Sample => by_name.sample(SERIES[name].0, value, t_ns),
            }
        }

        let by_id = TimelineRecorder::new(config);
        let resolve_unobserved = |tag: &str| {
            for i in 0..unobserved {
                by_id.series(&format!("unobserved.{tag}{i}"), kind(i as u8 % 2));
            }
        };
        resolve_unobserved("before");
        let mut group = Vec::new();
        for &(name, draw, value, t_ns, flush) in &observations {
            group.push((by_id.series(SERIES[name].0, kind(draw)), value, t_ns));
            if flush == 0 {
                by_id.record(&group);
                group.clear();
            }
        }
        by_id.record(&group);
        resolve_unobserved("after");

        prop_assert_eq!(by_id.snapshot(), by_name.snapshot());
        prop_assert_eq!(by_id.to_ndjson(), by_name.to_ndjson());
    }
}
