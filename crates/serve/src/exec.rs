//! Batch execution against the farm, plus the serve-side instruments.
//!
//! The executor is intentionally `&self`-only: it owns no queue state,
//! so the threaded driver can run a batch *outside* the engine lock —
//! submissions keep getting fast admit/reject answers while a batch
//! computes. It is also the one holder of its shard's clock, observer,
//! instruments and result cache; the engine reaches them through it.

use std::sync::{Arc, Mutex, PoisonError};

use canti_farm::{Farm, FarmConfig, FarmObserver, JobSpec, PrecomputeCache, WorkerPool};
use canti_fault::ServeChaos;
use canti_obs::serve::{SLO_BREACHED, SLO_GOOD};
use canti_obs::{
    Counter, Gauge, Histogram, ObsClock, RequestLog, RequestRecord, SeriesId, SeriesKind, ServeObs,
    SloConfig, TimelineConfig, TimelineRecorder, TraceContext,
};

use crate::cache::ReportCache;
use crate::queue::FormedBatch;
use crate::response::{Disposition, LatencyBreakdown, ServeResponse};

/// Finished requests retained for `/debug/requests`, per shard.
pub(crate) const REQUEST_LOG_CAPACITY: usize = 1024;

/// A registry counter and the timeline delta series of the same name.
#[derive(Debug)]
pub(crate) struct Tally {
    pub counter: Arc<Counter>,
    pub series: SeriesId,
}

impl Tally {
    /// Counts one event: bumps the counter and returns the event's delta
    /// at `t_ns` for the caller's timeline write.
    pub(crate) fn one(&self, t_ns: u64) -> (SeriesId, u64, u64) {
        self.counter.inc();
        (self.series, 1, t_ns)
    }
}

/// A shard's observer and the serve-layer metrics handles registered
/// in it once.
///
/// Names follow the `serve.` prefix the exposition layer sanitizes into
/// `serve_*` Prometheus series. Every timeline series the layer writes
/// is resolved here once, so a request's writes skip the name lookup.
/// Request-scoped deltas count every contribution exactly once, so
/// their merged windows are invariant under re-sharding; the batch and
/// queue-depth series follow how the queue partitioned, so they are
/// not. The shard's [`ServeObs`] rides alongside because its request
/// log and timeline cannot be re-derived from the name-keyed registry:
/// the shard's executor holds its one set, and the engine records
/// through it.
#[derive(Debug)]
pub(crate) struct ServeInstruments {
    /// The shard's observer, recording the farm's per-batch aggregates
    /// into [`ServeObs::timeline`] so serve.* and farm.* series share one
    /// window grid.
    pub observer: FarmObserver,
    pub admitted: Tally,
    pub rejected: Tally,
    pub expired: Tally,
    pub completed: Tally,
    pub batches: Tally,
    pub failed: Tally,
    pub cache_hit: Tally,
    pub cache_miss: Tally,
    pub coalesced: Tally,
    pub slo_good: Tally,
    pub slo_breached: Tally,
    pub failovers: Arc<Counter>,
    pub shard_restarts: Arc<Counter>,
    pub queue_depth: Arc<Gauge>,
    pub batch_size: Arc<Histogram>,
    pub request_latency_ns: Arc<Histogram>,
    // the timeline series of the gauge and the histograms above, then
    // the latency breakdown's phases
    pub depth_series: SeriesId,
    pub batch_size_series: SeriesId,
    pub latency_series: SeriesId,
    pub cache_ns: SeriesId,
    pub queue_ns: SeriesId,
    pub form_ns: SeriesId,
    pub exec_ns: SeriesId,
    pub respond_ns: SeriesId,
    pub obs: ServeObs,
}

impl ServeInstruments {
    pub(crate) fn new(observer: FarmObserver, slo: SloConfig, timeline: TimelineConfig) -> Self {
        let obs = ServeObs {
            slo,
            requests: Arc::new(RequestLog::new(REQUEST_LOG_CAPACITY)),
            timeline: Arc::new(TimelineRecorder::new(timeline)),
        };
        let observer = observer.with_timeline(Arc::clone(&obs.timeline));
        let m = observer.metrics();
        let delta = |name| obs.timeline.series(name, SeriesKind::Delta);
        let sample = |name| obs.timeline.series(name, SeriesKind::Sample);
        // an empty help text registers no description
        let tally = |name, help| {
            m.describe(name, help);
            Tally {
                counter: m.counter(name),
                series: delta(name),
            }
        };
        m.describe(
            "serve.queue_depth",
            "requests currently waiting for a batch",
        );
        m.describe("serve.batch_size", "requests per executed batch");
        m.describe(
            "serve.request_latency_ns",
            "admission-to-answer latency in nanoseconds",
        );
        m.describe(
            "serve.failovers",
            "requests rerouted here because their primary shard was down",
        );
        m.describe(
            "serve.shard_restarts",
            "times this shard was restarted after its backoff",
        );
        Self {
            admitted: tally("serve.admitted", "requests accepted into the queue"),
            rejected: tally("serve.rejected", "submissions refused at the door"),
            expired: tally(
                "serve.expired",
                "admitted requests that missed their deadline",
            ),
            completed: tally("serve.completed", "requests answered by a finished batch"),
            batches: tally("serve.batches", "farm batches executed"),
            failed: tally(
                "serve.failed",
                "admitted requests abandoned because their shard died",
            ),
            cache_hit: tally(
                "serve.cache_hit",
                "requests answered from the content-addressed result cache",
            ),
            cache_miss: tally(
                "serve.cache_miss",
                "cache lookups that went to the farm instead",
            ),
            coalesced: tally(
                "serve.coalesced",
                "requests that rode an identical in-flight leader",
            ),
            slo_good: tally(SLO_GOOD, ""),
            slo_breached: tally(SLO_BREACHED, ""),
            failovers: m.counter("serve.failovers"),
            shard_restarts: m.counter("serve.shard_restarts"),
            queue_depth: m.gauge("serve.queue_depth"),
            batch_size: m.histogram("serve.batch_size"),
            request_latency_ns: m.histogram("serve.request_latency_ns"),
            depth_series: sample("serve.queue_depth"),
            batch_size_series: sample("serve.batch_size"),
            latency_series: delta("serve.request_latency_ns"),
            cache_ns: delta("serve.cache_ns"),
            queue_ns: delta("serve.queue_ns"),
            form_ns: delta("serve.form_ns"),
            exec_ns: delta("serve.exec_ns"),
            respond_ns: delta("serve.respond_ns"),
            obs,
            observer,
        }
    }

    /// Records one terminal answer: the one place the SLO rule is
    /// applied and a [`RequestRecord`] written. An answer — a batch
    /// completion or a cache hit — lands in the latency histogram and is
    /// good within the objective. An expired or failed request always
    /// breaches, however briefly it waited, and its wait since
    /// `admitted_ns` stands as its latency and queue time. One timeline
    /// write carries the verdict, the outcome's tallies and its phase
    /// series at `now_ns` (a hit also counts its admission, at
    /// `admitted_ns`); then the request log gets the row. A served
    /// `follower` rode a coalesced leader's job and logs as `coalesced`.
    pub(crate) fn finish(&self, r: &ServeResponse, follower: bool, admitted_ns: u64, now_ns: u64) {
        let at = |series, value| (series, value, now_ns);
        let timeline = &self.obs.timeline;
        let answer = |latency_ns| {
            self.request_latency_ns.record(latency_ns);
            let verdict = if latency_ns <= self.obs.slo.objective_ns {
                &self.slo_good
            } else {
                &self.slo_breached
            };
            [
                verdict.one(now_ns),
                self.completed.one(now_ns),
                at(self.latency_series, latency_ns),
            ]
        };
        let (outcome, batch, latency_ns, b) = match &r.disposition {
            Disposition::Completed {
                batch,
                latency_ns,
                breakdown: b,
                result,
            } => {
                let [verdict, completed, latency] = answer(*latency_ns);
                timeline.record(&[
                    verdict,
                    completed,
                    latency,
                    at(self.queue_ns, b.queue_ns),
                    at(self.form_ns, b.form_ns),
                    at(self.exec_ns, b.exec_ns),
                    at(self.respond_ns, b.respond_ns),
                ]);
                let served_follower = follower && result.is_ok();
                let outcome = if served_follower {
                    "coalesced"
                } else {
                    r.disposition.label()
                };
                (outcome, Some(*batch), *latency_ns, *b)
            }
            Disposition::CacheHit {
                latency_ns,
                breakdown: b,
                ..
            } => {
                let [verdict, completed, latency] = answer(*latency_ns);
                timeline.record(&[
                    verdict,
                    completed,
                    latency,
                    at(self.cache_ns, b.cache_ns),
                    self.admitted.one(admitted_ns),
                    self.cache_hit.one(now_ns),
                ]);
                ("cache_hit", None, *latency_ns, *b)
            }
            Disposition::Expired { .. } | Disposition::Failed => {
                let tally = match r.disposition {
                    Disposition::Expired { .. } => &self.expired,
                    _ => &self.failed,
                };
                timeline.record(&[tally.one(now_ns), self.slo_breached.one(now_ns)]);
                let waited_ns = now_ns.saturating_sub(admitted_ns);
                let b = LatencyBreakdown {
                    queue_ns: waited_ns,
                    ..LatencyBreakdown::default()
                };
                (r.disposition.label(), None, waited_ns, b)
            }
        };
        self.obs.requests.push(RequestRecord {
            request: r.request_id,
            trace: r.trace,
            outcome,
            batch,
            latency_ns,
            queue_ns: b.queue_ns,
            form_ns: b.form_ns,
            exec_ns: b.exec_ns,
            respond_ns: b.respond_ns,
            finished_ns: now_ns,
        });
    }
}

/// Runs formed batches on the farm engine.
///
/// Construction fixes the worker count, the service's shared precompute
/// cache and the (optional) observer; execution is then a pure mapping
/// from a formed batch to per-request responses, bit-identical at any
/// worker count because the farm itself is.
#[derive(Debug)]
pub(crate) struct BatchExecutor {
    pool: Arc<WorkerPool>,
    cache: Arc<PrecomputeCache>,
    /// The shard's content-addressed result cache: the engine looks up
    /// at admission, and the executor inserts batch results in admission
    /// order. `None` with caching off.
    report_cache: Option<Mutex<ReportCache>>,
    clock: Arc<dyn ObsClock>,
    instruments: Option<ServeInstruments>,
    chaos: Option<Mutex<ServeChaos>>,
}

impl BatchExecutor {
    /// An executor running `threads` farm workers per batch (`0` =
    /// machine parallelism) over `cache`, timing requests on `clock`.
    /// The workers live in a persistent [`WorkerPool`] for the executor's
    /// lifetime, restarts of its shard included, so successive batches
    /// pay no thread-spawn cost.
    pub(crate) fn new(
        threads: usize,
        clock: Arc<dyn ObsClock>,
        cache: Arc<PrecomputeCache>,
    ) -> Self {
        Self {
            pool: Arc::new(WorkerPool::new(threads)),
            cache,
            report_cache: None,
            clock,
            instruments: None,
            chaos: None,
        }
    }

    /// Attaches the shard's result cache: the engine serves hits from
    /// it, and successful batch outputs are inserted (in admission order)
    /// after each batch lands.
    pub(crate) fn with_report_cache(mut self, cache: ReportCache) -> Self {
        self.report_cache = Some(Mutex::new(cache));
        self
    }

    /// Attaches a serve-chaos injector. A restarted shard keeps its
    /// executor, so kills already fired stay fired.
    pub(crate) fn with_chaos(mut self, chaos: ServeChaos) -> Self {
        self.chaos = Some(Mutex::new(chaos));
        self
    }

    /// The shard's observer and instrument set, when observed.
    pub(crate) fn instruments(&self) -> Option<&ServeInstruments> {
        self.instruments.as_ref()
    }

    /// The clock every serve timestamp of the shard reads.
    pub(crate) fn clock(&self) -> &dyn ObsClock {
        &*self.clock
    }

    /// The shard's result cache, when caching is on.
    pub(crate) fn report_cache(&self) -> Option<&Mutex<ReportCache>> {
        self.report_cache.as_ref()
    }

    /// Attaches the shard's observer and instrument set, which the
    /// engine records through: batches run with farm telemetry, and the
    /// serve-side counters, histograms and spans land in the same
    /// registry and trace stream.
    pub(crate) fn with_instruments(mut self, instruments: ServeInstruments) -> Self {
        self.instruments = Some(instruments);
        self
    }

    /// The worker threads the persistent pool actually runs (resolved
    /// machine parallelism when constructed with `0`).
    pub(crate) fn pool_threads(&self) -> usize {
        self.pool.threads()
    }

    /// The attached observer, if any.
    pub(crate) fn observer(&self) -> Option<&FarmObserver> {
        self.instruments.as_ref().map(|i| &i.observer)
    }

    /// [`Self::execute`] with a panic (a chaos kill, or a job panic the
    /// pool re-raises once its batch completes) caught and returned for
    /// the engine's failure path. Either way the pool is left idle with
    /// every worker alive, so the shard restarts on this executor.
    pub(crate) fn try_execute(
        &self,
        batch: &FormedBatch,
    ) -> std::thread::Result<Vec<ServeResponse>> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.execute(batch)))
    }

    /// Executes `batch` on a farm riding this executor's persistent
    /// pool and precompute cache, returning one response per member
    /// request in admission order. Payloads derive from each member's
    /// per-request seed (fixed at admission), not its batch slot.
    pub(crate) fn execute(&self, batch: &FormedBatch) -> Vec<ServeResponse> {
        // held for the whole execution so the farm's spans nest inside
        let _span = self.observer().map(|o| {
            o.tracer().span(
                "serve_batch",
                &[
                    ("batch", batch.index.into()),
                    ("size", batch.len().into()),
                    ("trigger", batch.trigger.label().into()),
                ],
            )
        });
        // scripted chaos: decided on this (single) batcher thread from
        // the shard-local batch index, so it fires identically at any
        // worker count
        let killed = self.chaos.as_ref().is_some_and(|c| {
            c.lock()
                .expect("serve chaos injector poisoned")
                .on_batch(batch.index)
        });
        assert!(
            !killed,
            "canti-serve chaos: shard killed before batch {}",
            batch.index
        );
        let jobs: Vec<JobSpec> = batch.items.iter().map(|p| p.job.clone()).collect();
        let seeds: Vec<u64> = batch.items.iter().map(|p| p.seed).collect();
        let contexts: Vec<TraceContext> = batch
            .items
            .iter()
            .map(|p| TraceContext {
                request: p.id,
                trace: p.trace,
            })
            .collect();
        let mut farm = Farm::with_cache(
            FarmConfig {
                batch_seed: batch.seed,
                threads: self.pool.threads(),
            },
            Arc::clone(&self.cache),
        )
        .with_pool(Arc::clone(&self.pool));
        if let Some(o) = self.observer() {
            farm = farm.with_observer(o.clone());
        }
        let exec_start_ns = self.clock.now_ns();
        let report = farm.run_traced(&jobs, &seeds, &contexts);
        let exec_end_ns = self.clock.now_ns();
        // the respond anchor: read before the batch-level metrics below
        // are recorded, so their cost falls outside every answer's latency
        let now_ns = self.clock.now_ns();
        if let Some(ins) = &self.instruments {
            ins.batch_size.record(batch.len() as u64);
            ins.obs.timeline.record(&[
                ins.batches.one(now_ns),
                (ins.batch_size_series, batch.len() as u64, now_ns),
            ]);
        }
        let answered = batch.items.iter().map(|p| 1 + p.followers.len()).sum();
        let mut responses = Vec::with_capacity(answered);
        for (pending, result) in batch.items.iter().zip(report.outcomes) {
            // feed the result cache in admission order, successes only —
            // a per-job failure (or an injected fault) never poisons it
            if let (Some(cache), Some(key), Ok(out)) =
                (&self.report_cache, pending.job_key, result.as_ref())
            {
                cache
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(key, out.clone());
            }
            // the leader's answer fans out to every coalesced follower —
            // each ticket answered exactly once, with the same payload
            // bits. The phases tile admission→answer exactly: each anchor
            // subtraction reuses the previous anchor, so on a monotone
            // clock cache+queue+form+exec+respond == latency, and a
            // follower's queue_ns runs from its own (later) arrival.
            for (i, (id, trace, enqueued_ns)) in pending.members().enumerate() {
                let response = ServeResponse {
                    request_id: id,
                    trace,
                    disposition: Disposition::Completed {
                        batch: batch.index,
                        latency_ns: now_ns.saturating_sub(enqueued_ns),
                        breakdown: LatencyBreakdown {
                            cache_ns: 0,
                            queue_ns: batch.formed_ns.saturating_sub(enqueued_ns),
                            form_ns: exec_start_ns.saturating_sub(batch.formed_ns),
                            exec_ns: exec_end_ns.saturating_sub(exec_start_ns),
                            respond_ns: now_ns.saturating_sub(exec_end_ns),
                        },
                        result: result.clone(),
                    },
                };
                if let Some(ins) = &self.instruments {
                    ins.finish(&response, i > 0, enqueued_ns, now_ns);
                }
                responses.push(response);
            }
        }
        responses
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::queue::AdmissionQueue;
    use crate::ServeConfig;
    use canti_farm::ProbeMode;
    use canti_obs::VirtualClock;

    /// Holds `executor`'s chaos injector: no batch gets past its fault
    /// decision until the guard drops.
    pub(crate) fn hold_chaos(executor: &BatchExecutor) -> std::sync::MutexGuard<'_, ServeChaos> {
        executor
            .chaos
            .as_ref()
            .expect("a chaos plan is armed")
            .lock()
            .expect("serve chaos injector poisoned")
    }

    /// What `executor`'s precompute cache counted: one miss per chain
    /// characterization, one hit per lookup it answered.
    pub(crate) fn precompute_stats(executor: &BatchExecutor) -> canti_farm::CacheStats {
        executor.cache.stats()
    }

    /// Jobs for global ids 0, 1, ... until each of `shards` shards has
    /// been routed exactly one dose-response request; the ids in between
    /// carry probes, which need no precompute.
    pub(crate) fn one_dose_per_shard(shards: usize) -> Vec<JobSpec> {
        let mut dosed = vec![false; shards];
        let mut jobs = Vec::new();
        while dosed.contains(&false) {
            let shard = crate::route_request(jobs.len() as u64, shards);
            jobs.push(if std::mem::replace(&mut dosed[shard], true) {
                JobSpec::Probe(ProbeMode::Value(0.0))
            } else {
                canti_farm::dose_response_sweep(&[1.0]).remove(0)
            });
        }
        jobs
    }

    fn formed(jobs: usize, clock_now: u64) -> FormedBatch {
        let mut q = AdmissionQueue::new(ServeConfig {
            max_batch: jobs,
            ..ServeConfig::default()
        });
        for i in 0..jobs {
            let job = JobSpec::Probe(ProbeMode::Draws(1 + i));
            q.submit(clock_now, i as u64, job, None, None).unwrap();
        }
        q.pop_ready(clock_now).expect("size-triggered batch")
    }

    #[test]
    fn execution_answers_every_request_in_admission_order() {
        let clock = Arc::new(VirtualClock::new());
        clock.set_ns(500);
        let exec = BatchExecutor::new(2, clock.clone(), Arc::default());
        let batch = formed(4, 100);
        let responses = exec.execute(&batch);
        assert_eq!(responses.len(), 4);
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(r.request_id, i as u64);
            assert_eq!(r.trace, canti_obs::trace_id(i as u64));
            match &r.disposition {
                Disposition::Completed {
                    batch: 0,
                    latency_ns,
                    breakdown,
                    result: Ok(out),
                } => {
                    assert_eq!(*latency_ns, 400, "admitted at 100, done at 500");
                    assert_eq!(breakdown.total_ns(), *latency_ns, "phases tile the latency");
                    assert_eq!(
                        (breakdown.queue_ns, breakdown.form_ns),
                        (0, 400),
                        "formed at admission, executed 400 ns later"
                    );
                    assert_eq!(out.job_index, i);
                }
                other => panic!("request {i}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn worker_count_does_not_change_payloads() {
        let clock = Arc::new(VirtualClock::new());
        let oracle = BatchExecutor::new(1, clock.clone(), Arc::default()).execute(&formed(8, 0));
        for threads in [2, 8] {
            let run =
                BatchExecutor::new(threads, clock.clone(), Arc::default()).execute(&formed(8, 0));
            assert_eq!(run, oracle, "{threads} farm workers");
        }
    }

    #[test]
    fn observed_execution_records_serve_metrics() {
        let clock = Arc::new(VirtualClock::new());
        let (observer, ring) = FarmObserver::deterministic(4096);
        let instruments =
            ServeInstruments::new(observer, SloConfig::default(), TimelineConfig::default());
        let exec = BatchExecutor::new(2, clock, Arc::default()).with_instruments(instruments);
        let responses = exec.execute(&formed(3, 0));
        assert_eq!(responses.len(), 3);
        let m = exec.observer().expect("observer").metrics();
        assert_eq!(m.counter("serve.batches").get(), 1);
        assert_eq!(m.counter("serve.completed").get(), 3);
        assert_eq!(m.histogram("serve.batch_size").snapshot().count, 1);
        assert_eq!(m.histogram("serve.request_latency_ns").snapshot().count, 3);
        assert_eq!(
            m.counter("slo.good").get(),
            3,
            "all within default objective"
        );
        let names: Vec<String> = ring.events().iter().map(|e| e.name.to_owned()).collect();
        assert!(
            names.contains(&"serve_batch".to_owned()),
            "serve_batch span missing from {names:?}"
        );
        assert!(
            names.contains(&"batch".to_owned()),
            "farm batch span nests under the serve span"
        );
    }
}
