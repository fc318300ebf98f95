//! A lock-cheap metrics registry: counters, gauges and log-linear
//! histograms.
//!
//! The registry ([`Metrics`]) hands out `Arc`-shared instruments keyed by
//! name. Registration takes a short mutex; every *update* after that is a
//! single atomic operation, so instruments can sit on per-sample hot
//! paths. Instrument names are kept in a `BTreeMap` so summaries and
//! NDJSON dumps come out in a stable (sorted) order — important for
//! reproducible artifacts.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::ndjson::{self, JsonValue};

/// A monotonic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`, saturating at `u64::MAX` — a long-lived instrument's
    /// counter must never wrap back past zero and fake a reset.
    pub fn add(&self, n: u64) {
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(cur.saturating_add(n))
            });
    }

    /// The current count.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable signed gauge (e.g. queue depth, workers busy).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Linear sub-buckets per power-of-two octave (values below this are
/// counted exactly, one bucket each).
const SUB_BUCKETS: u64 = 16;

/// 16 exact buckets for 0–15, then 16 per octave `[2^k, 2^(k+1))` for
/// k = 4..=63: 976.
const BUCKETS: usize = bucket_index(u64::MAX) + 1;

/// The bucket holding `v`: `v` itself below 32; above, `v`'s leading one
/// and the 4 bits after it (16–31), offset by 16 per octave past the
/// first.
const fn bucket_index(v: u64) -> usize {
    let shift = (u64::BITS - v.leading_zeros()).saturating_sub(5);
    (shift as u64 * SUB_BUCKETS + (v >> shift)) as usize
}

/// The largest value bucket `index` holds (its inclusive upper edge).
fn bucket_upper(index: usize) -> u64 {
    let index = index as u64;
    let shift = (index / SUB_BUCKETS).saturating_sub(1);
    let lower = (index - shift * SUB_BUCKETS) << shift;
    lower + ((1u64 << shift) - 1)
}

/// A log-linear histogram of `u64` samples (conventionally nanoseconds).
///
/// One fixed layout serves every caller: values 0–15 land in exact
/// buckets, and each power-of-two octave above splits into 16 linear
/// sub-buckets, up to `u64::MAX` (976 buckets, indexed from the sample's
/// leading zeros). `min`/`max`/`sum`/`count` are tracked exactly; a
/// quantile reads its bucket's upper edge clamped to the exact max, so
/// it equals the exact order statistic `x` below 16 and lies in
/// `[x, x + x/16]` above.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // saturating, like `Counter::add`: a wrapped sum fakes a reset
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            });
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of all samples, saturating at `u64::MAX`.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Cumulative sample counts at each power-of-two octave's upper edge
    /// `2^j - 1` (an exact bucket edge), from 0 up to the first edge at
    /// or above the max, as `(edge, samples <= edge)` pairs; the last
    /// count is every sample.
    #[must_use]
    pub(crate) fn octave_counts(&self) -> Vec<(u64, u64)> {
        let max = self.max.load(Ordering::Relaxed);
        let mut out = Vec::new();
        let mut cumulative = 0u64;
        let mut next = 0;
        for j in 0..=u64::BITS {
            let edge = u64::MAX.checked_shr(u64::BITS - j).unwrap_or(0);
            let last = bucket_index(edge);
            for bucket in &self.buckets[next..=last] {
                cumulative += bucket.load(Ordering::Relaxed);
            }
            next = last + 1;
            out.push((edge, cumulative));
            if edge >= max {
                break;
            }
        }
        out
    }

    /// A point-in-time copy of the aggregate view.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let max = self.max.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum(),
            min: if count == 0 { 0 } else { min },
            max,
            p50: quantile_from_buckets(&counts, count, 0.50, max),
            p95: quantile_from_buckets(&counts, count, 0.95, max),
            p99: quantile_from_buckets(&counts, count, 0.99, max),
        }
    }
}

/// Estimates quantile `q` from bucket counts: the upper edge of the
/// bucket the rank lands in, clamped to the observed max.
fn quantile_from_buckets(counts: &[u64], total: u64, q: f64, max: u64) -> u64 {
    if total == 0 {
        return 0;
    }
    // rank in 1..=total; ceil so p50 of a single sample is that sample
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bucket_upper(i).min(max);
        }
    }
    max
}

/// Aggregate view of a [`Histogram`] at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Exact sum of all samples, saturating at `u64::MAX`.
    pub sum: u64,
    /// Exact smallest sample (0 when empty).
    pub min: u64,
    /// Exact largest sample.
    pub max: u64,
    /// Estimated median (bucket upper bound, clamped to `max`).
    pub p50: u64,
    /// Estimated 95th percentile (bucket upper bound, clamped to `max`).
    pub p95: u64,
    /// Estimated 99th percentile (bucket upper bound, clamped to `max`).
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[derive(Debug, Default)]
struct Registry {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
    descriptions: BTreeMap<String, String>,
}

/// The metrics registry: named instruments shared via `Arc`.
///
/// # Examples
///
/// ```
/// use canti_obs::metrics::Metrics;
///
/// let metrics = Metrics::new();
/// let hits = metrics.counter("cache.hits");
/// hits.inc();
/// hits.add(2);
/// assert_eq!(metrics.counter("cache.hits").get(), 3);
/// let h = metrics.histogram("solve_ns");
/// h.record(1500);
/// assert_eq!(h.snapshot().count, 1);
/// assert!(metrics.summary().contains("cache.hits"));
/// ```
#[derive(Debug, Default)]
pub struct Metrics {
    registry: Mutex<Registry>,
}

impl Metrics {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Registry> {
        self.registry.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The counter named `name`, created on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut reg = self.lock();
        Arc::clone(
            reg.counters
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(Counter::default())),
        )
    }

    /// The gauge named `name`, created on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut reg = self.lock();
        Arc::clone(
            reg.gauges
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(Gauge::default())),
        )
    }

    /// The histogram named `name`, created on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut reg = self.lock();
        Arc::clone(
            reg.histograms
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Attaches a human-readable help text to the instrument named
    /// `name` — the Prometheus exposition renders it as a `# HELP` line.
    /// The first non-empty description wins (call sites register once).
    pub fn describe(&self, name: &str, help: &str) {
        if help.is_empty() {
            return;
        }
        let mut reg = self.lock();
        reg.descriptions
            .entry(name.to_owned())
            .or_insert_with(|| help.to_owned());
    }

    /// Every registered `(name, help)` pair, sorted by name.
    #[must_use]
    pub fn descriptions(&self) -> Vec<(String, String)> {
        self.lock()
            .descriptions
            .iter()
            .map(|(n, h)| (n.clone(), h.clone()))
            .collect()
    }

    /// Every histogram's `(name, snapshot)`, sorted by name.
    #[must_use]
    pub fn histogram_snapshots(&self) -> Vec<(String, HistogramSnapshot)> {
        let reg = self.lock();
        reg.histograms
            .iter()
            .map(|(n, h)| (n.clone(), h.snapshot()))
            .collect()
    }

    /// Every counter's `(name, instrument)`, sorted by name.
    #[must_use]
    pub fn counters(&self) -> Vec<(String, Arc<Counter>)> {
        let reg = self.lock();
        reg.counters
            .iter()
            .map(|(n, c)| (n.clone(), Arc::clone(c)))
            .collect()
    }

    /// Every gauge's `(name, instrument)`, sorted by name.
    #[must_use]
    pub fn gauges(&self) -> Vec<(String, Arc<Gauge>)> {
        let reg = self.lock();
        reg.gauges
            .iter()
            .map(|(n, g)| (n.clone(), Arc::clone(g)))
            .collect()
    }

    /// Every histogram's `(name, instrument)`, sorted by name.
    #[must_use]
    pub fn histograms(&self) -> Vec<(String, Arc<Histogram>)> {
        let reg = self.lock();
        reg.histograms
            .iter()
            .map(|(n, h)| (n.clone(), Arc::clone(h)))
            .collect()
    }

    /// A human-readable dump of every instrument, sorted by name.
    #[must_use]
    pub fn summary(&self) -> String {
        let reg = self.lock();
        let mut out = String::new();
        for (name, c) in &reg.counters {
            let _ = writeln!(out, "counter {name} = {}", c.get());
        }
        for (name, g) in &reg.gauges {
            let _ = writeln!(out, "gauge {name} = {}", g.get());
        }
        for (name, h) in &reg.histograms {
            let s = h.snapshot();
            let _ = writeln!(
                out,
                "histogram {name}: n={} mean={:.1} p50={} p95={} p99={} max={} (ns)",
                s.count,
                s.mean(),
                s.p50,
                s.p95,
                s.p99,
                s.max
            );
        }
        out
    }

    /// One NDJSON line per instrument, sorted by name.
    #[must_use]
    pub fn to_ndjson(&self) -> String {
        let reg = self.lock();
        let mut out = String::new();
        for (name, c) in &reg.counters {
            out.push_str(&ndjson::object(&[
                ("metric", JsonValue::from(name.clone())),
                ("type", JsonValue::from("counter")),
                ("value", JsonValue::U64(c.get())),
            ]));
            out.push('\n');
        }
        for (name, g) in &reg.gauges {
            out.push_str(&ndjson::object(&[
                ("metric", JsonValue::from(name.clone())),
                ("type", JsonValue::from("gauge")),
                ("value", JsonValue::I64(g.get())),
            ]));
            out.push('\n');
        }
        for (name, h) in &reg.histograms {
            let s = h.snapshot();
            out.push_str(&ndjson::object(&[
                ("metric", JsonValue::from(name.clone())),
                ("type", JsonValue::from("histogram")),
                ("count", JsonValue::U64(s.count)),
                ("sum", JsonValue::U64(s.sum)),
                ("min", JsonValue::U64(s.min)),
                ("max", JsonValue::U64(s.max)),
                ("p50", JsonValue::U64(s.p50)),
                ("p95", JsonValue::U64(s.p95)),
                ("p99", JsonValue::U64(s.p99)),
            ]));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let m = Metrics::new();
        m.counter("a").inc();
        m.counter("a").add(4);
        assert_eq!(m.counter("a").get(), 5);
        m.gauge("g").set(7);
        m.gauge("g").add(-2);
        assert_eq!(m.gauge("g").get(), 5);
    }

    #[test]
    fn layout_is_976_contiguous_buckets_indexed_by_leading_zeros() {
        assert_eq!(BUCKETS, 976);
        for v in 0..32 {
            assert_eq!(bucket_index(v), v as usize, "exact below 32");
        }
        // each bucket's upper edge is its own, and the next value opens
        // the next bucket: the buckets tile 0..=u64::MAX with no gap
        for i in 0..BUCKETS {
            let upper = bucket_upper(i);
            assert_eq!(bucket_index(upper), i, "bucket {i}");
            if i + 1 < BUCKETS {
                assert_eq!(bucket_index(upper + 1), i + 1, "bucket {i}");
            }
        }
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
        // 16 sub-buckets per octave: [1024, 2048) in steps of 64
        assert_eq!(
            (bucket_index(1024), bucket_index(1087), bucket_index(1088)),
            (112, 112, 113)
        );
        assert_eq!(bucket_upper(112), 1087);
    }

    #[test]
    fn histogram_exact_aggregates() {
        let h = Histogram::new();
        for v in [1, 5, 50, 500, 5000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 5556);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 5000);
        assert!((s.mean() - 1111.2).abs() < 1e-9);
    }

    #[test]
    fn quantiles_read_the_bucket_upper_edge_clamped_to_max() {
        let h = Histogram::new();
        // 90 samples of 7 (an exact bucket), 10 in 700's bucket [672, 703]
        for _ in 0..90 {
            h.record(7);
        }
        for _ in 0..10 {
            h.record(700);
        }
        let s = h.snapshot();
        assert_eq!(s.p50, 7, "values below 16 read exactly");
        assert_eq!(s.max, 700);
        assert_eq!(s.p95, 700, "the bucket edge 703 clamps to the max");
        assert_eq!(s.p99, 700);
        // a larger max lifts the clamp: the tail reads the edge, < 1/16 up
        h.record(1_000);
        let s = h.snapshot();
        assert_eq!((s.p95, s.p99, s.max), (703, 703, 1_000));
    }

    #[test]
    fn empty_and_single_sample_histograms() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!((s.count, s.min, s.max, s.p50, s.p95), (0, 0, 0, 0, 0));
        h.record(123_456);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.min, 123_456);
        assert_eq!(s.max, 123_456);
        // single sample: every quantile is clamped to the sample itself
        assert_eq!(s.p50, 123_456);
        assert_eq!(s.p95, 123_456);
        assert_eq!(s.p99, 123_456);
    }

    #[test]
    fn registry_is_shared_and_sorted() {
        let m = Metrics::new();
        let h1 = m.histogram("z.last");
        let h2 = m.histogram("a.first");
        h1.record(5);
        h2.record(9);
        let snaps = m.histogram_snapshots();
        assert_eq!(snaps[0].0, "a.first");
        assert_eq!(snaps[1].0, "z.last");
        let nd = m.to_ndjson();
        assert_eq!(nd.lines().count(), 2);
        assert!(nd.lines().next().unwrap().contains("a.first"));
    }

    #[test]
    fn counter_saturates_at_u64_max_without_wrapping() {
        let c = Counter::default();
        c.add(u64::MAX - 1);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
        // any further increment pins at MAX instead of wrapping to 0/1
        c.inc();
        c.add(12345);
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn histogram_sum_saturates_at_u64_max_without_wrapping() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(2);
        let snap = h.snapshot();
        assert_eq!(snap.sum, u64::MAX, "a wrapped sum would read 1");
        assert_eq!(snap.count, 2);
    }

    #[test]
    fn octave_counts_partition_the_samples_exactly() {
        let h = Histogram::new();
        for v in [3, 10, 55, 101, 1_000, u64::MAX] {
            h.record(v);
        }
        let octaves = h.octave_counts();
        assert_eq!(octaves.len(), 65, "edges 2^j - 1 for j = 0..=64");
        let at = |edge: u64| octaves.iter().find(|&&(e, _)| e == edge).unwrap().1;
        assert_eq!((at(0), at(3), at(7), at(15)), (0, 1, 1, 2));
        assert_eq!((at(63), at(127), at(1_023)), (3, 4, 5));
        assert_eq!(at(u64::MAX >> 1), 5);
        assert_eq!(
            octaves.last(),
            Some(&(u64::MAX, 6)),
            "the last edge holds every sample"
        );
        let s = h.snapshot();
        assert_eq!((s.count, s.max), (6, u64::MAX));
        // the top bucket's quantiles clamp to the observed max
        assert_eq!(s.p95, u64::MAX);
        // the edges stop at the octave holding the max
        let small = Histogram::new();
        small.record(5);
        assert_eq!(small.octave_counts(), vec![(0, 0), (1, 0), (3, 0), (7, 1)]);
    }

    #[test]
    fn zero_count_snapshot_is_all_zero() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(
            (s.count, s.sum, s.min, s.max, s.p50, s.p95),
            (0, 0, 0, 0, 0, 0)
        );
        assert_eq!(s.mean(), 0.0);
        assert_eq!((h.count(), h.sum()), (0, 0));
        assert_eq!(h.octave_counts(), vec![(0, 0)]);
    }

    #[test]
    fn describe_is_first_write_wins_and_ignores_empty() {
        let m = Metrics::new();
        m.describe("serve.admitted", "");
        assert_eq!(m.descriptions(), vec![]);
        m.describe("serve.admitted", "requests accepted");
        m.describe("serve.admitted", "a later, losing description");
        m.describe("farm.jobs_ok", "jobs completed");
        assert_eq!(
            m.descriptions(),
            vec![
                ("farm.jobs_ok".to_owned(), "jobs completed".to_owned()),
                ("serve.admitted".to_owned(), "requests accepted".to_owned()),
            ]
        );
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let m = Arc::new(Metrics::new());
        let c = m.counter("hits");
        let h = m.histogram("lat");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(h.snapshot().count, 4000);
    }
}
