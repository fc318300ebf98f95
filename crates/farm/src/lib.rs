//! `canti-farm`: a parallel, deterministic sensor-farm engine.
//!
//! The paper's pitch is arrays: "the sensor and the readout circuitry
//! can be integrated monolithically" scales to many cantilevers on many
//! chips. This crate simulates such farms — batches of dose-response
//! sweeps, Monte-Carlo process-variation trials and cross-reactivity
//! panels — sharded across a hand-rolled worker pool.
//!
//! # Determinism contract
//!
//! A batch's result is a pure function of `(batch_seed, jobs)`. Each job
//! derives its own counter-based RNG stream from the batch seed and its
//! index, results are written to index-addressed slots, and the shared
//! precompute cache only memoizes values that are themselves
//! deterministic. Consequence: [`Farm::run`] returns **bit-identical**
//! [`BatchReport`]s for any worker count — `threads = 1` is the oracle
//! the parallel schedule is tested against.
//!
//! # Fault isolation
//!
//! A job that errors or panics occupies its own slot of
//! [`BatchReport::outcomes`] as a [`FarmError`]; it never poisons the
//! rest of the batch.
//!
//! # Examples
//!
//! ```
//! use canti_farm::{dose_response_sweep, Farm, FarmConfig};
//!
//! let farm = Farm::new(FarmConfig { batch_seed: 42, threads: 2 });
//! let jobs = dose_response_sweep(&[1.0, 10.0, 100.0]);
//! let report = farm.run(&jobs);
//! assert_eq!(report.ok_count(), 3);
//! let peaks = report.metric_values("peak_volts");
//! assert!(peaks[0] < peaks[2], "more analyte, more signal");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod job;
mod pool;
pub mod report;
pub mod supervisor;
pub mod telemetry;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

pub use cache::{CacheStats, PrecomputeCache, ResonantBaseline};
pub use job::{
    chaos_scan_batch, cross_reactivity_panel, dose_response_sweep, process_variation_batch,
    JobSpec, ProbeMode, Receptor,
};
pub use pool::{PoolHook, WorkerPool, WorkerStat};
pub use report::{BatchReport, FarmError, JobOutput};
pub use supervisor::{BreakerPosition, FarmSupervisor, SupervisedReport, SupervisorConfig};
pub use telemetry::{FarmObserver, FarmTelemetry};

/// Farm-wide settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FarmConfig {
    /// Seed every job's RNG stream is derived from.
    pub batch_seed: u64,
    /// Worker threads; `0` means "use the machine's available
    /// parallelism".
    pub threads: usize,
}

impl Default for FarmConfig {
    fn default() -> Self {
        Self {
            batch_seed: 0x0CA7_F00D,
            threads: 0,
        }
    }
}

/// The batch engine: a worker pool plus a shared precompute cache,
/// optionally observed by a [`FarmObserver`].
pub struct Farm {
    config: FarmConfig,
    cache: Arc<PrecomputeCache>,
    observer: Option<FarmObserver>,
    /// Attached by [`Self::with_pool`], or built by [`Self::dispatch`] on
    /// the first batch that needs more than one thread; kept for the
    /// farm's lifetime either way.
    pool: OnceLock<Arc<WorkerPool>>,
    sabotage: Option<PoolHook>,
}

impl std::fmt::Debug for Farm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Farm")
            .field("config", &self.config)
            .field("observed", &self.observer.is_some())
            .field("pooled", &self.pool.get().is_some())
            .field("sabotaged", &self.sabotage.is_some())
            .finish()
    }
}

impl Farm {
    /// Creates a farm with a fresh precompute cache.
    #[must_use]
    pub fn new(config: FarmConfig) -> Self {
        Self::with_cache(config, Arc::new(PrecomputeCache::new()))
    }

    /// Creates a farm sharing an existing cache (e.g. pre-warmed, or
    /// shared across successive batches).
    #[must_use]
    pub fn with_cache(config: FarmConfig, cache: Arc<PrecomputeCache>) -> Self {
        Self {
            config,
            cache,
            observer: None,
            pool: OnceLock::new(),
            sabotage: None,
        }
    }

    /// Runs this farm's batches on `pool`, in place of the pool a
    /// multi-thread farm would build on its first batch — so several
    /// farms can share one set of long-lived threads (each serve shard
    /// attaches one). The report is bit-identical either way (the
    /// determinism contract does not depend on the scheduling
    /// substrate); [`Self::threads`] reports the pool's size, overriding
    /// `config.threads`, and even a 1-thread pool takes the pooled path.
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = OnceLock::from(pool);
        self
    }

    /// Attaches a [`PoolHook`] the pool's workers call before each job,
    /// outside the per-job panic harness — the serve chaos seam for
    /// simulating harness-level worker deaths. It fires on every pooled
    /// farm: one with an attached pool, or with more than one thread.
    /// The sequential 1-thread oracle stays hook-free.
    #[must_use]
    pub fn with_sabotage(mut self, hook: PoolHook) -> Self {
        self.sabotage = Some(hook);
        self
    }

    /// Attaches an observer: subsequent [`Self::run`]s record per-job
    /// spans (queue-wait / precompute / solve), cache counters and
    /// per-worker utilization, and deposit a [`FarmTelemetry`] section in
    /// the report. Telemetry is strictly additive — the report's
    /// numerical payload is bit-identical with or without it.
    #[must_use]
    pub fn with_observer(mut self, observer: FarmObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// The attached observer, if any.
    #[must_use]
    pub fn observer(&self) -> Option<&FarmObserver> {
        self.observer.as_ref()
    }

    /// The resolved worker count: the pool's size once the farm has
    /// one, else `config.threads` with `0` mapped to the machine's
    /// available parallelism.
    #[must_use]
    pub fn threads(&self) -> usize {
        if let Some(pool) = self.pool.get() {
            pool.threads()
        } else if self.config.threads > 0 {
            self.config.threads
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }
    }

    /// Hit/miss counters of the shared precompute cache.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Builds the owned per-batch execution state shared by the plain
    /// and supervised paths. `batch_start_ns` anchors queue-wait
    /// samples; `seeds` switches the RNG derivation to explicit per-job
    /// seeds (the sharded serve path); `contexts` stamps each job span
    /// with the owning request's trace context (telemetry only — it
    /// never reaches the payload path).
    pub(crate) fn batch_runner(
        &self,
        jobs: Arc<Vec<JobSpec>>,
        seeds: Option<Vec<u64>>,
        contexts: Option<Vec<canti_obs::TraceContext>>,
        batch_start_ns: u64,
    ) -> BatchRunner {
        BatchRunner {
            batch_seed: self.config.batch_seed,
            seeds: seeds.map(Arc::new),
            contexts: contexts.map(Arc::new),
            jobs,
            cache: Arc::clone(&self.cache),
            observer: self.observer.clone(),
            stages: self
                .observer
                .as_ref()
                .map(telemetry::StageInstruments::register),
            batch_start_ns,
        }
    }

    /// Runs one wave of jobs — the one place that picks the execution
    /// path. A farm with one thread and no attached pool runs the wave
    /// sequentially on the calling thread: the oracle every other
    /// schedule is tested against. Every other farm runs it on its
    /// [`WorkerPool`], the attached one or one of [`Self::threads`]
    /// workers built here on first use. `items` maps wave slots to batch
    /// job indexes (`None` runs the whole batch, slot `i` = job `i`).
    pub(crate) fn dispatch(
        &self,
        runner: &Arc<BatchRunner>,
        items: Option<Arc<Vec<usize>>>,
        attempt: u32,
        deadline_ns: Option<u64>,
    ) -> (Vec<Result<JobOutput, FarmError>>, Vec<WorkerStat>) {
        let n = items.as_ref().map_or(runner.jobs.len(), |v| v.len());
        let wave = items.is_some();
        let clock = runner.observer.as_ref().map(|o| Arc::clone(o.clock()));
        let r = Arc::clone(runner);
        let job = move |slot: usize| {
            let i = items.as_ref().map_or(slot, |v| v[slot]);
            r.run_job(i, attempt, wave, deadline_ns)
        };
        if self.pool.get().is_none() && self.threads() == 1 {
            let mut stat = WorkerStat::default();
            let outcomes = (0..n)
                .map(|slot| {
                    let t0 = clock.as_ref().map(|c| c.now_ns());
                    let outcome = job(slot);
                    if let (Some(t0), Some(c)) = (t0, &clock) {
                        stat.busy_ns += c.now_ns().saturating_sub(t0);
                    }
                    stat.jobs += 1;
                    outcome
                })
                .collect();
            return (outcomes, vec![stat]);
        }
        let pool = self
            .pool
            .get_or_init(|| Arc::new(WorkerPool::new(self.threads())));
        pool.run(n, job, clock, self.sabotage.clone())
    }

    /// Runs a batch, returning one outcome per job in submission order.
    ///
    /// Jobs run on [`Self::threads`] workers; errors and panics are
    /// captured per job as [`FarmError`]s without aborting the batch.
    /// The report is bit-identical for any worker count, with or without
    /// an attached observer, and with or without an attached pool.
    #[must_use]
    pub fn run(&self, jobs: &[JobSpec]) -> BatchReport {
        self.run_inner(jobs, None, None)
    }

    /// Like [`Self::run`], but each job's RNG stream derives from its
    /// explicit seed instead of `(batch_seed, index)`. This is the
    /// sharded serve path's hook: per-request seeds make a request's
    /// payload independent of which batch slot — and which shard — it
    /// lands in.
    ///
    /// # Panics
    ///
    /// Panics unless `seeds.len() == jobs.len()`.
    #[must_use]
    pub fn run_seeded(&self, jobs: &[JobSpec], seeds: &[u64]) -> BatchReport {
        assert_eq!(jobs.len(), seeds.len(), "one seed per job");
        self.run_inner(jobs, Some(seeds.to_vec()), None)
    }

    /// [`Self::run_seeded`] with one [`canti_obs::TraceContext`] per
    /// job: each job span additionally carries the owning request's
    /// `request`/`trace` fields, so a request can be followed from its
    /// admission span into the farm. Strictly additive — the report is
    /// bit-identical to the untraced run, and farm-only callers that
    /// never pass contexts keep byte-identical telemetry.
    ///
    /// # Panics
    ///
    /// Panics unless `seeds` and `contexts` both match `jobs` in length.
    #[must_use]
    pub fn run_traced(
        &self,
        jobs: &[JobSpec],
        seeds: &[u64],
        contexts: &[canti_obs::TraceContext],
    ) -> BatchReport {
        assert_eq!(jobs.len(), seeds.len(), "one seed per job");
        assert_eq!(jobs.len(), contexts.len(), "one trace context per job");
        self.run_inner(jobs, Some(seeds.to_vec()), Some(contexts.to_vec()))
    }

    fn run_inner(
        &self,
        jobs: &[JobSpec],
        seeds: Option<Vec<u64>>,
        contexts: Option<Vec<canti_obs::TraceContext>>,
    ) -> BatchReport {
        let threads = self.threads();
        let obs = self.observer.as_ref();

        let batch_span = obs.map(|o| {
            o.tracer().span(
                "batch",
                &[
                    ("jobs", jobs.len().into()),
                    ("workers", threads.into()),
                    ("batch_seed", self.config.batch_seed.into()),
                ],
            )
        });
        let batch_start_ns = obs.map_or(0, |o| o.clock().now_ns());
        let runner =
            Arc::new(self.batch_runner(Arc::new(jobs.to_vec()), seeds, contexts, batch_start_ns));

        // Stage histograms are registry-backed and cumulative across
        // batches, so this batch's contribution is a post-minus-pre
        // snapshot delta.
        let pre_stages = obs.filter(|o| o.timeline().is_some()).map(|_| {
            let stages = runner
                .stages
                .as_ref()
                .expect("observer implies instruments");
            (
                stages.queue_wait.snapshot(),
                stages.precompute.snapshot(),
                stages.solve.snapshot(),
            )
        });

        let (outcomes, worker_stats) = self.dispatch(&runner, None, 0, None);

        let telemetry = obs.map(|o| {
            let ok = outcomes.iter().filter(|r| r.is_ok()).count() as u64;
            o.metrics().counter("farm.batches").add(1);
            o.metrics().gauge("farm.workers").set(threads as i64);
            o.metrics().counter("farm.jobs_ok").add(ok);
            o.metrics()
                .counter("farm.jobs_failed")
                .add(outcomes.len() as u64 - ok);
            let stages = runner
                .stages
                .as_ref()
                .expect("observer implies instruments");
            let telemetry = FarmTelemetry {
                workers: threads,
                jobs: jobs.len(),
                queue_wait_ns: stages.queue_wait.snapshot(),
                precompute_ns: stages.precompute.snapshot(),
                solve_ns: stages.solve.snapshot(),
                cache: self.cache.stats(),
                per_worker: worker_stats,
            };
            if let (Some(timeline), Some((pre_wait, pre_pre, pre_solve))) =
                (o.timeline(), pre_stages.as_ref())
            {
                // Aggregate per-batch deltas only, stamped at batch end.
                // Per-worker series are deliberately absent: they would
                // depend on the worker count and break the timeline's
                // bit-identity contract.
                let now_ns = o.clock().now_ns();
                timeline.record_delta("farm.batches", 1, now_ns);
                timeline.record_delta("farm.jobs_ok", ok, now_ns);
                timeline.record_delta("farm.jobs_failed", outcomes.len() as u64 - ok, now_ns);
                let busy: u64 = telemetry.per_worker.iter().map(|w| w.busy_ns).sum();
                timeline.record_delta("farm.busy_ns", busy, now_ns);
                for (series, post, pre) in [
                    ("farm.queue_wait_ns", &telemetry.queue_wait_ns, pre_wait),
                    ("farm.precompute_ns", &telemetry.precompute_ns, pre_pre),
                    ("farm.solve_ns", &telemetry.solve_ns, pre_solve),
                ] {
                    timeline.record_delta(series, post.sum.saturating_sub(pre.sum), now_ns);
                }
            }
            telemetry
        });
        drop(batch_span);

        BatchReport {
            batch_seed: self.config.batch_seed,
            outcomes,
            telemetry,
        }
    }
}

/// Everything one batch execution needs, owned, so per-job closures are
/// `'static` and can cross into a persistent [`WorkerPool`]. Shared by
/// [`Farm::run`] and the supervisor's retry waves.
pub(crate) struct BatchRunner {
    batch_seed: u64,
    seeds: Option<Arc<Vec<u64>>>,
    contexts: Option<Arc<Vec<canti_obs::TraceContext>>>,
    pub(crate) jobs: Arc<Vec<JobSpec>>,
    cache: Arc<PrecomputeCache>,
    pub(crate) observer: Option<FarmObserver>,
    pub(crate) stages: Option<telemetry::StageInstruments>,
    batch_start_ns: u64,
}

impl BatchRunner {
    /// The per-job, per-attempt RNG stream. The canonical derivation is
    /// a splitmix-style spread of the batch seed XOR-ed with the job
    /// index, so neighboring jobs land in distant ChaCha streams; the
    /// seeded path substitutes an explicit per-job seed for that base.
    /// Attempt `0` is the canonical stream; supervisor retries salt it
    /// with the attempt number so a re-run is a genuinely fresh (but
    /// still deterministic) draw sequence.
    fn job_rng(&self, job_index: usize, attempt: u32) -> ChaCha8Rng {
        let base = match &self.seeds {
            Some(seeds) => seeds[job_index],
            None => self.batch_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ job_index as u64,
        };
        ChaCha8Rng::seed_from_u64(base ^ u64::from(attempt).wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Runs one job through the catch-unwind boundary, mapping the three
    /// failure shapes into the job's outcome slot.
    fn execute(
        &self,
        i: usize,
        attempt: u32,
        obs: Option<&telemetry::JobInstruments>,
    ) -> Result<JobOutput, FarmError> {
        let spec = &self.jobs[i];
        let mut rng = self.job_rng(i, attempt);
        let run = catch_unwind(AssertUnwindSafe(|| {
            job::execute(spec, &mut rng, &self.cache, obs)
        }));
        match run {
            Ok(Ok(metrics)) => Ok(JobOutput {
                job_index: i,
                kind: spec.kind(),
                metrics,
            }),
            Ok(Err(reason)) => Err(FarmError::Job {
                job_index: i,
                reason,
            }),
            Err(payload) => Err(FarmError::Panic {
                job_index: i,
                message: panic_message(payload.as_ref()),
            }),
        }
    }

    /// The full per-job pipeline: queue-wait sample, `job` span (with
    /// the attempt field on supervised waves), stage instruments, and
    /// the optional observer-clock deadline.
    pub(crate) fn run_job(
        &self,
        i: usize,
        attempt: u32,
        wave: bool,
        deadline_ns: Option<u64>,
    ) -> Result<JobOutput, FarmError> {
        let (Some(o), Some(stages)) = (self.observer.as_ref(), self.stages.as_ref()) else {
            return self.execute(i, attempt, None);
        };
        stages
            .queue_wait
            .record(o.clock().now_ns().saturating_sub(self.batch_start_ns));
        let kind = self.jobs[i].kind();
        let mut fields: Vec<(&'static str, canti_obs::JsonValue)> =
            vec![("job", i.into()), ("kind", kind.into())];
        if let Some(ctx) = self.contexts.as_ref().map(|c| c[i]) {
            fields.push(("request", ctx.request.into()));
            fields.push(("trace", ctx.trace.into()));
        }
        if wave {
            fields.push(("attempt", u64::from(attempt).into()));
        }
        let job_span = o.tracer().span("job", &fields);
        let instruments = telemetry::JobInstruments {
            tracer: o.tracer().clone(),
            metrics: Arc::clone(o.metrics()),
            precompute_ns: Arc::clone(&stages.precompute),
        };
        let t0 = o.clock().now_ns();
        let outcome = self.execute(i, attempt, Some(&instruments));
        let elapsed = o.clock().now_ns().saturating_sub(t0);
        stages.solve.record(job_span.end());
        match deadline_ns {
            Some(deadline) if elapsed > deadline => Err(FarmError::DeadlineExceeded {
                job_index: i,
                elapsed_ns: elapsed,
                deadline_ns: deadline,
            }),
            _ => outcome,
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn farm(threads: usize) -> Farm {
        Farm::new(FarmConfig {
            batch_seed: 0xBEEF,
            threads,
        })
    }

    #[test]
    fn probe_batch_is_worker_count_invariant() {
        let jobs: Vec<JobSpec> = (0..32)
            .map(|i| JobSpec::Probe(ProbeMode::Draws(1 + i % 5)))
            .collect();
        let oracle = farm(1).run(&jobs);
        for threads in [2, 4, 8] {
            assert_eq!(farm(threads).run(&jobs), oracle, "{threads} threads");
        }
    }

    #[test]
    fn panics_are_isolated_per_job() {
        let jobs = vec![
            JobSpec::Probe(ProbeMode::Value(1.0)),
            JobSpec::Probe(ProbeMode::Panic),
            JobSpec::Probe(ProbeMode::Value(3.0)),
        ];
        let report = farm(2).run(&jobs);
        assert_eq!(report.ok_count(), 2);
        match &report.outcomes[1] {
            Err(FarmError::Panic { job_index, message }) => {
                assert_eq!(*job_index, 1);
                assert!(message.contains("intentional"), "{message}");
            }
            other => panic!("expected panic error, got {other:?}"),
        }
        // neighbors unaffected
        assert_eq!(
            report.outcomes[0].as_ref().unwrap().metric("value"),
            Some(1.0)
        );
        assert_eq!(
            report.outcomes[2].as_ref().unwrap().metric("value"),
            Some(3.0)
        );
    }

    #[test]
    fn batch_seed_changes_the_draws() {
        let jobs = vec![JobSpec::Probe(ProbeMode::Draws(4))];
        let a = Farm::new(FarmConfig {
            batch_seed: 1,
            threads: 1,
        })
        .run(&jobs);
        let b = Farm::new(FarmConfig {
            batch_seed: 2,
            threads: 1,
        })
        .run(&jobs);
        assert_ne!(a.outcomes, b.outcomes);
        assert_eq!(a.batch_seed, 1);
    }

    #[test]
    fn threads_zero_resolves_to_machine_parallelism() {
        let f = Farm::new(FarmConfig {
            batch_seed: 0,
            threads: 0,
        });
        assert!(f.threads() >= 1);
        let fixed = farm(3);
        assert_eq!(fixed.threads(), 3);
    }

    #[test]
    fn empty_batch_is_fine() {
        let report = farm(4).run(&[]);
        assert!(report.outcomes.is_empty());
        assert_eq!(report.ok_count(), 0);
    }

    #[test]
    fn observed_run_is_bit_identical_and_carries_telemetry() {
        let jobs: Vec<JobSpec> = (0..12)
            .map(|i| JobSpec::Probe(ProbeMode::Draws(1 + i % 4)))
            .collect();
        let plain = farm(4).run(&jobs);
        assert!(plain.telemetry.is_none());

        let (observer, ring) = FarmObserver::deterministic(4096);
        let observed = farm(4).with_observer(observer).run(&jobs);
        let telemetry = observed.telemetry.as_ref().expect("observer => telemetry");
        assert_eq!(observed, plain, "telemetry must not perturb results");
        assert_eq!(telemetry.jobs, 12);
        assert_eq!(telemetry.workers, 4);
        assert_eq!(telemetry.queue_wait_ns.count, 12);
        assert_eq!(telemetry.solve_ns.count, 12);
        assert_eq!(
            telemetry.precompute_ns.count, 0,
            "probe jobs skip the cache"
        );
        assert_eq!(telemetry.per_worker.iter().map(|w| w.jobs).sum::<u64>(), 12);
        // trace stream: one batch span + one job span per job
        let events = ring.events();
        assert_eq!(events.first().map(|e| e.name), Some("batch"));
        assert_eq!(events.last().map(|e| e.name), Some("batch"));
        let job_starts = events
            .iter()
            .filter(|e| e.name == "job" && e.kind == canti_obs::EventKind::SpanStart)
            .count();
        assert_eq!(job_starts, 12);
    }

    #[test]
    fn persistent_pool_run_is_bit_identical_to_sequential() {
        let jobs: Vec<JobSpec> = (0..16)
            .map(|i| JobSpec::Probe(ProbeMode::Draws(1 + i % 5)))
            .collect();
        let oracle = farm(1).run(&jobs);
        for threads in [1, 2, 8] {
            let pool = Arc::new(WorkerPool::new(threads));
            let pooled = farm(threads).with_pool(Arc::clone(&pool));
            assert_eq!(pooled.threads(), threads);
            // reuse the same pool across several batches
            for _ in 0..3 {
                assert_eq!(pooled.run(&jobs), oracle, "{threads} pooled workers");
            }
        }
    }

    #[test]
    fn run_seeded_with_canonical_seeds_matches_run() {
        let jobs: Vec<JobSpec> = (0..8)
            .map(|i| JobSpec::Probe(ProbeMode::Draws(1 + i % 3)))
            .collect();
        let f = farm(2);
        let canonical: Vec<u64> = (0..jobs.len())
            .map(|i| 0xBEEFu64.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64)
            .collect();
        assert_eq!(
            f.run_seeded(&jobs, &canonical),
            f.run(&jobs),
            "explicit canonical seeds reproduce the derived streams"
        );
        // and seeds actually matter: permuting them changes the payload
        let mut permuted = canonical.clone();
        permuted.swap(0, 7);
        assert_ne!(
            f.run_seeded(&jobs, &permuted).outcomes,
            f.run(&jobs).outcomes
        );
    }

    #[test]
    #[should_panic(expected = "one seed per job")]
    fn run_seeded_rejects_mismatched_lengths() {
        let _ = farm(1).run_seeded(&[JobSpec::Probe(ProbeMode::Value(1.0))], &[1, 2]);
    }

    #[test]
    fn cache_is_shared_across_jobs() {
        let jobs = dose_response_sweep(&[1.0, 10.0, 100.0, 1000.0]);
        let f = farm(2);
        let report = f.run(&jobs);
        assert_eq!(report.ok_count(), 4);
        let stats = f.cache_stats();
        assert_eq!(stats.misses, 1, "one chain precompute for the whole batch");
        assert_eq!(stats.hits, 3);
    }
}
