//! Farm observability: the observer handle wired into [`crate::Farm`]
//! and the per-batch instruments it records through.
//!
//! An observed batch reports only through its observer: the `farm.*`
//! counters, gauge and histograms of the metrics registry, the
//! span/event trace stream, and (when attached) the per-window
//! timeline. The [`crate::BatchReport`] carries the payload alone.
//!
//! # Determinism contract
//!
//! Telemetry is strictly additive: it never touches job RNG streams,
//! job inputs or the cache contents, so a batch's numerical payload is
//! bit-identical with telemetry on or off.
//! Timestamps come from the observer's injected [`ObsClock`]: the
//! default [`FarmObserver::deterministic`] uses a virtual clock (all
//! durations 0, counts still exact), while
//! [`FarmObserver::profiling`] opts into wall-clock timing for real
//! latency numbers.

use std::sync::Arc;

use canti_obs::{
    Histogram, Metrics, ObsClock, RingCollector, TimelineRecorder, Tracer, VirtualClock, WallClock,
};

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
        metrics.describe(
            "farm.worker_busy_ns",
            "one worker's time inside jobs over one batch, nanoseconds",
        );
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
        let tracer = Tracer::new(Arc::clone(&ring), Arc::clone(&clock));
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
        let tracer = Tracer::new(Arc::clone(&ring), Arc::clone(&clock));
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

/// The per-stage histograms' registry names, in pipeline order.
const STAGES: [&str; 3] = ["farm.queue_wait_ns", "farm.precompute_ns", "farm.solve_ns"];

/// The three per-stage histograms every batch records into, registered
/// once per batch on the observer's metrics registry, with each one's
/// sum at registration: the histograms are cumulative across batches, so
/// a batch's share is post minus pre.
pub(crate) struct StageInstruments {
    pub(crate) queue_wait: Arc<Histogram>,
    pub(crate) precompute: Arc<Histogram>,
    pub(crate) solve: Arc<Histogram>,
    start_sums: [u64; 3],
}

impl StageInstruments {
    pub(crate) fn register(observer: &FarmObserver) -> Self {
        let [queue_wait, precompute, solve] = STAGES.map(|name| observer.metrics.histogram(name));
        let start_sums = [&queue_wait, &precompute, &solve].map(|h| h.sum());
        Self {
            queue_wait,
            precompute,
            solve,
            start_sums,
        }
    }

    /// Each stage's name and the nanoseconds recorded into it since
    /// [`Self::register`].
    pub(crate) fn batch_sums(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let sums = [&self.queue_wait, &self.precompute, &self.solve].map(|h| h.sum());
        STAGES
            .into_iter()
            .zip(sums.into_iter().zip(self.start_sums))
            .map(|(name, (post, pre))| (name, post.saturating_sub(pre)))
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

#[cfg(test)]
mod tests {
    use super::*;

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
