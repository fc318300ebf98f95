//! Farm observability: the observer handle wired into [`crate::Farm`]
//! and the [`FarmTelemetry`] section it deposits in
//! [`crate::BatchReport`].
//!
//! # Determinism contract
//!
//! Telemetry is strictly additive: it never touches job RNG streams,
//! job inputs or the cache contents, so a batch's numerical payload is
//! bit-identical with telemetry on or off (and report equality ignores
//! the telemetry section entirely — see [`crate::BatchReport`]).
//! Timestamps come from the observer's injected [`ObsClock`]: the
//! default [`FarmObserver::deterministic`] uses a virtual clock (all
//! durations 0, counts still exact), while
//! [`FarmObserver::profiling`] opts into wall-clock timing for real
//! latency numbers.

use std::fmt::Write as _;
use std::sync::Arc;

use canti_obs::ndjson::{self, JsonValue};
use canti_obs::{
    Histogram, HistogramSnapshot, Metrics, ObsClock, RingCollector, TimelineRecorder, Tracer,
    VirtualClock, WallClock,
};

use crate::cache::CacheStats;
use crate::pool::WorkerStat;

/// Bundles the tracer, metrics registry and clock a [`crate::Farm`]
/// records into.
#[derive(Debug, Clone)]
pub struct FarmObserver {
    metrics: Arc<Metrics>,
    tracer: Tracer,
    clock: Arc<dyn ObsClock>,
    timeline: Option<Arc<TimelineRecorder>>,
}

impl FarmObserver {
    /// An observer from explicit parts.
    #[must_use]
    pub fn from_parts(metrics: Arc<Metrics>, tracer: Tracer, clock: Arc<dyn ObsClock>) -> Self {
        metrics.describe("farm.batches", "farm batches executed");
        metrics.describe("farm.workers", "resolved worker count of the last batch");
        metrics.describe("farm.jobs_ok", "jobs that completed successfully");
        metrics.describe("farm.jobs_failed", "jobs that returned an error");
        metrics.describe(
            "farm.queue_wait_ns",
            "batch start to job claim, nanoseconds",
        );
        metrics.describe("farm.precompute_ns", "shared-cache fetch time, nanoseconds");
        metrics.describe("farm.solve_ns", "job execution time, nanoseconds");
        Self {
            metrics,
            tracer,
            clock,
            timeline: None,
        }
    }

    /// Attaches a per-window timeline recorder: every finished batch
    /// deposits its aggregate deltas (jobs ok/failed, per-stage time,
    /// summed worker busy time) into the batch-end window. Aggregates
    /// only — per-worker series would break the bit-identity of
    /// `/debug/timeline` across worker counts.
    #[must_use]
    pub fn with_timeline(mut self, timeline: Arc<TimelineRecorder>) -> Self {
        self.timeline = Some(timeline);
        self
    }

    /// The attached timeline recorder, if any.
    #[must_use]
    pub fn timeline(&self) -> Option<&Arc<TimelineRecorder>> {
        self.timeline.as_ref()
    }

    /// A deterministic observer: virtual clock, in-memory ring collector
    /// (`capacity` events). Durations are all zero unless the code under
    /// observation advances the clock; counts, cache statistics and the
    /// event stream are exact and reproducible.
    #[must_use]
    pub fn deterministic(capacity: usize) -> (Self, Arc<RingCollector>) {
        let ring = Arc::new(RingCollector::new(capacity));
        let clock: Arc<dyn ObsClock> = Arc::new(VirtualClock::new());
        let tracer = Tracer::new(Arc::clone(&ring) as _, Arc::clone(&clock));
        (
            Self::from_parts(Arc::new(Metrics::new()), tracer, clock),
            ring,
        )
    }

    /// A profiling observer: **wall clock**, in-memory ring collector.
    /// Only for opt-in profiling paths (`sensor_farm --telemetry`,
    /// benches); never use in determinism-checked tests.
    #[must_use]
    pub fn profiling(capacity: usize) -> (Self, Arc<RingCollector>) {
        let ring = Arc::new(RingCollector::new(capacity));
        let clock: Arc<dyn ObsClock> = Arc::new(WallClock::new());
        let tracer = Tracer::new(Arc::clone(&ring) as _, Arc::clone(&clock));
        (
            Self::from_parts(Arc::new(Metrics::new()), tracer, clock),
            ring,
        )
    }

    /// The observer's metrics registry.
    #[must_use]
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The observer's tracer (cheap to clone).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The observer's clock.
    #[must_use]
    pub fn clock(&self) -> &Arc<dyn ObsClock> {
        &self.clock
    }
}

/// Per-job stage instruments handed down into job execution. Owned
/// (`Arc`-backed) rather than borrowed so the per-job closures carrying
/// them are `'static` and can cross into a persistent
/// [`crate::WorkerPool`].
pub(crate) struct JobInstruments {
    pub(crate) tracer: Tracer,
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) precompute_ns: Arc<Histogram>,
}

/// The three per-stage histograms every batch (plain or supervised)
/// records into, registered once per batch on the observer's metrics
/// registry.
pub(crate) struct StageInstruments {
    pub(crate) queue_wait: Arc<Histogram>,
    pub(crate) precompute: Arc<Histogram>,
    pub(crate) solve: Arc<Histogram>,
}

impl StageInstruments {
    pub(crate) fn register(observer: &FarmObserver) -> Self {
        Self {
            queue_wait: observer.metrics.histogram("farm.queue_wait_ns"),
            precompute: observer.metrics.histogram("farm.precompute_ns"),
            solve: observer.metrics.histogram("farm.solve_ns"),
        }
    }
}

/// Times `f` as stage `name` into `obs` (when observing); transparent
/// otherwise.
pub(crate) fn timed_stage<T>(
    obs: Option<&JobInstruments>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match obs {
        None => f(),
        Some(o) => {
            let span = o.tracer.span(name, &[]);
            let out = f();
            o.precompute_ns.record(span.end());
            out
        }
    }
}

/// The telemetry section of a completed batch. Excluded from
/// [`crate::BatchReport`] equality by design — scheduling and (under a
/// wall clock) timing legitimately differ between equal batches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FarmTelemetry {
    /// Resolved worker count the batch ran on.
    pub workers: usize,
    /// Jobs submitted.
    pub jobs: usize,
    /// Time from batch start until each job was claimed by a worker, ns.
    pub queue_wait_ns: HistogramSnapshot,
    /// Time inside shared-cache fetches (chain characterization /
    /// resonant baseline), ns. Samples only for jobs that hit the cache
    /// layer at all.
    pub precompute_ns: HistogramSnapshot,
    /// Time inside job execution (includes precompute), ns.
    pub solve_ns: HistogramSnapshot,
    /// Shared precompute-cache counters at batch end.
    pub cache: CacheStats,
    /// Per-worker utilization, indexed by worker slot.
    pub per_worker: Vec<WorkerStat>,
}

impl FarmTelemetry {
    /// The named per-stage histograms, in pipeline order.
    #[must_use]
    pub fn stages(&self) -> [(&'static str, HistogramSnapshot); 3] {
        [
            ("queue_wait", self.queue_wait_ns),
            ("precompute", self.precompute_ns),
            ("solve", self.solve_ns),
        ]
    }

    /// A compact human-readable summary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "telemetry: {} jobs on {} workers",
            self.jobs, self.workers
        );
        for (name, s) in self.stages() {
            let _ = writeln!(
                out,
                "  stage {name}: n={} mean={:.0} p50={} p95={} p99={} max={} (ns)",
                s.count,
                s.mean(),
                s.p50,
                s.p95,
                s.p99,
                s.max
            );
        }
        let _ = writeln!(
            out,
            "  cache: {} hits / {} misses, {} entries, ~{} B",
            self.cache.hits, self.cache.misses, self.cache.entries, self.cache.bytes_estimate
        );
        for (w, stat) in self.per_worker.iter().enumerate() {
            let _ = writeln!(
                out,
                "  worker {w}: {} jobs, busy {} ns",
                stat.jobs, stat.busy_ns
            );
        }
        out
    }

    /// One NDJSON line per stage/cache/worker record.
    #[must_use]
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for (name, s) in self.stages() {
            out.push_str(&ndjson::object(&[
                ("record", JsonValue::from("farm_stage")),
                ("stage", JsonValue::from(name)),
                ("count", JsonValue::U64(s.count)),
                ("sum_ns", JsonValue::U64(s.sum)),
                ("p50_ns", JsonValue::U64(s.p50)),
                ("p95_ns", JsonValue::U64(s.p95)),
                ("p99_ns", JsonValue::U64(s.p99)),
                ("max_ns", JsonValue::U64(s.max)),
            ]));
            out.push('\n');
        }
        out.push_str(&ndjson::object(&[
            ("record", JsonValue::from("farm_cache")),
            ("hits", JsonValue::U64(self.cache.hits)),
            ("misses", JsonValue::U64(self.cache.misses)),
            ("entries", JsonValue::U64(self.cache.entries)),
            ("bytes_estimate", JsonValue::U64(self.cache.bytes_estimate)),
        ]));
        out.push('\n');
        for (w, stat) in self.per_worker.iter().enumerate() {
            out.push_str(&ndjson::object(&[
                ("record", JsonValue::from("farm_worker")),
                ("worker", JsonValue::from(w)),
                ("jobs", JsonValue::U64(stat.jobs)),
                ("busy_ns", JsonValue::U64(stat.busy_ns)),
            ]));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(count: u64) -> HistogramSnapshot {
        HistogramSnapshot {
            count,
            sum: count * 10,
            min: if count > 0 { 10 } else { 0 },
            max: if count > 0 { 10 } else { 0 },
            p50: if count > 0 { 10 } else { 0 },
            p95: if count > 0 { 10 } else { 0 },
            p99: if count > 0 { 10 } else { 0 },
        }
    }

    fn telemetry() -> FarmTelemetry {
        FarmTelemetry {
            workers: 2,
            jobs: 4,
            queue_wait_ns: snapshot(4),
            precompute_ns: snapshot(3),
            solve_ns: snapshot(4),
            cache: CacheStats {
                hits: 3,
                misses: 1,
                entries: 1,
                bytes_estimate: 24,
            },
            per_worker: vec![
                WorkerStat {
                    jobs: 3,
                    busy_ns: 30,
                },
                WorkerStat {
                    jobs: 1,
                    busy_ns: 10,
                },
            ],
        }
    }

    #[test]
    fn render_mentions_every_stage_and_worker() {
        let text = telemetry().render();
        for needle in [
            "queue_wait",
            "precompute",
            "solve",
            "3 hits",
            "worker 0",
            "worker 1",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn ndjson_has_one_line_per_record() {
        let t = telemetry();
        let nd = t.to_ndjson();
        // 3 stages + 1 cache + 2 workers
        assert_eq!(nd.lines().count(), 6);
        assert!(nd.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(nd.contains("\"stage\":\"solve\""));
        assert!(nd.contains("\"record\":\"farm_cache\""));
    }

    #[test]
    fn observers_construct() {
        let (det, ring) = FarmObserver::deterministic(64);
        assert!(det.tracer().is_enabled());
        det.tracer().event("x", &[]);
        assert_eq!(ring.events().len(), 1);
        assert_eq!(det.clock().now_ns(), 0, "virtual clock starts at zero");

        let (prof, _ring) = FarmObserver::profiling(64);
        assert!(prof.tracer().is_enabled());
    }
}
