//! Batch execution against the farm, plus the serve-side instruments.
//!
//! The executor is intentionally `&self`-only: it owns no queue state,
//! so the threaded driver can run a batch *outside* the engine lock —
//! submissions keep getting fast admit/reject answers while a batch
//! computes.

use std::sync::{Arc, Mutex};

use canti_farm::{Farm, FarmConfig, FarmObserver, JobSpec, PrecomputeCache, WorkerPool};
use canti_fault::ServeChaos;
use canti_obs::{
    Counter, Gauge, Histogram, ObsClock, RequestLog, RequestRecord, ServeObs, SloConfig,
    TimelineConfig, TimelineRecorder, TraceContext,
};

use crate::queue::FormedBatch;
use crate::response::{Disposition, LatencyBreakdown, ServeResponse};

/// Finished requests retained for `/debug/requests`, per front.
pub(crate) const REQUEST_LOG_CAPACITY: usize = 1024;

/// The serve-layer metrics handles, registered once per observer.
///
/// Names follow the `serve.` prefix the exposition layer sanitizes into
/// `serve_*` Prometheus series. The shard's [`ServeObs`] rides alongside
/// because its request log and timeline cannot be re-derived from the
/// name-keyed registry — engine and executor must share ONE
/// `ServeInstruments` so both record into the same timeline and log.
#[derive(Debug, Clone)]
pub(crate) struct ServeInstruments {
    pub admitted: Arc<Counter>,
    pub rejected: Arc<Counter>,
    pub expired: Arc<Counter>,
    pub completed: Arc<Counter>,
    pub batches: Arc<Counter>,
    pub failed: Arc<Counter>,
    pub shed: Arc<Counter>,
    pub failovers: Arc<Counter>,
    pub shard_restarts: Arc<Counter>,
    pub cache_hit: Arc<Counter>,
    pub cache_miss: Arc<Counter>,
    pub coalesced: Arc<Counter>,
    pub queue_depth: Arc<Gauge>,
    pub batch_size: Arc<Histogram>,
    pub request_latency_ns: Arc<Histogram>,
    pub slo_good: Arc<Counter>,
    pub slo_breached: Arc<Counter>,
    pub obs: ServeObs,
}

impl ServeInstruments {
    pub(crate) fn new(observer: &FarmObserver, slo: SloConfig, timeline: TimelineConfig) -> Self {
        let m = observer.metrics();
        m.describe("serve.admitted", "requests accepted into the queue");
        m.describe("serve.rejected", "submissions refused at the door");
        m.describe(
            "serve.expired",
            "admitted requests that missed their deadline",
        );
        m.describe("serve.completed", "requests answered by a finished batch");
        m.describe("serve.batches", "farm batches executed");
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
            "serve.failed",
            "admitted requests abandoned because their shard died",
        );
        m.describe("serve.shed", "admitted requests evicted under brownout");
        m.describe(
            "serve.failovers",
            "requests rerouted here because their primary shard was down",
        );
        m.describe("serve.shard_restarts", "times this shard was resurrected");
        m.describe(
            "serve.cache_hit",
            "requests answered from the content-addressed result cache",
        );
        m.describe(
            "serve.cache_miss",
            "cache lookups that went to the farm instead",
        );
        m.describe(
            "serve.coalesced",
            "requests that rode an identical in-flight leader",
        );
        Self {
            admitted: m.counter("serve.admitted"),
            rejected: m.counter("serve.rejected"),
            expired: m.counter("serve.expired"),
            completed: m.counter("serve.completed"),
            batches: m.counter("serve.batches"),
            failed: m.counter("serve.failed"),
            shed: m.counter("serve.shed"),
            failovers: m.counter("serve.failovers"),
            shard_restarts: m.counter("serve.shard_restarts"),
            cache_hit: m.counter("serve.cache_hit"),
            cache_miss: m.counter("serve.cache_miss"),
            coalesced: m.counter("serve.coalesced"),
            queue_depth: m.gauge("serve.queue_depth"),
            batch_size: m.histogram("serve.batch_size"),
            request_latency_ns: m.histogram("serve.request_latency_ns"),
            slo_good: m.counter("slo.good"),
            slo_breached: m.counter("slo.breached"),
            obs: ServeObs {
                slo,
                requests: Arc::new(RequestLog::new(REQUEST_LOG_CAPACITY)),
                timeline: Arc::new(TimelineRecorder::new(timeline)),
            },
        }
    }

    /// Scores one finished request: a cumulative `slo.good` or
    /// `slo.breached` count, plus the same verdict in its timeline
    /// window at `now_ns`.
    pub(crate) fn verdict(&self, good: bool, now_ns: u64) {
        if good {
            self.slo_good.inc();
        } else {
            self.slo_breached.inc();
        }
        self.obs.record_verdict(good, now_ns);
    }
}

/// Runs [`FormedBatch`]es on the farm engine.
///
/// Construction fixes the worker count, the shared precompute cache and
/// the (optional) observer; execution is then a pure mapping from a
/// formed batch to per-request responses, bit-identical at any worker
/// count because the farm itself is.
#[derive(Debug)]
pub struct BatchExecutor {
    threads: usize,
    pool: Arc<WorkerPool>,
    cache: Arc<PrecomputeCache>,
    /// The shard's content-addressed result cache, shared with the
    /// admission front (which looks up at admission; the executor
    /// inserts batch results in admission order). `None` with caching
    /// off.
    report_cache: Option<Arc<Mutex<crate::cache::ReportCache>>>,
    clock: Arc<dyn ObsClock>,
    observer: Option<FarmObserver>,
    instruments: Option<ServeInstruments>,
    chaos: Option<Arc<Mutex<ServeChaos>>>,
}

impl BatchExecutor {
    /// An executor running `threads` farm workers per batch (`0` =
    /// machine parallelism), timing requests on `clock`. The workers
    /// live in a persistent [`WorkerPool`] for the executor's lifetime,
    /// so successive batches pay no thread-spawn cost.
    #[must_use]
    pub fn new(threads: usize, clock: Arc<dyn ObsClock>) -> Self {
        Self {
            threads,
            pool: Arc::new(WorkerPool::new(threads)),
            cache: Arc::new(PrecomputeCache::new()),
            report_cache: None,
            clock,
            observer: None,
            instruments: None,
            chaos: None,
        }
    }

    /// Attaches the shard's result cache: successful batch outputs are
    /// inserted (in admission order) after each batch lands. The handle
    /// is shared with the admission front, which serves hits.
    pub(crate) fn with_report_cache(
        mut self,
        cache: Arc<Mutex<crate::cache::ReportCache>>,
    ) -> Self {
        self.report_cache = Some(cache);
        self
    }

    /// Attaches a serve-chaos injector. The injector lives behind a
    /// shared handle so a resurrected executor keeps consuming the same
    /// plan state — events already fired stay fired across restarts.
    pub(crate) fn with_chaos(mut self, chaos: Arc<Mutex<ServeChaos>>) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// A replacement executor after shard failure: a **fresh**
    /// [`WorkerPool`] (the old one may hold poisoned or dead workers),
    /// but the same clock, cache, observer, instruments and chaos state
    /// — telemetry continues in the same registry, and a restart warms
    /// up against the cache exactly as a real redeploy would.
    pub(crate) fn resurrected(&self) -> Self {
        Self {
            threads: self.threads,
            pool: Arc::new(WorkerPool::new(self.threads)),
            cache: Arc::clone(&self.cache),
            report_cache: self.report_cache.clone(),
            clock: Arc::clone(&self.clock),
            observer: self.observer.clone(),
            instruments: self.instruments.clone(),
            chaos: self.chaos.clone(),
        }
    }

    /// The shared instrument set, when observed.
    pub(crate) fn instruments(&self) -> Option<&ServeInstruments> {
        self.instruments.as_ref()
    }

    /// Attaches a farm observer: batches run with farm telemetry and the
    /// serve-side counters/histograms/spans are recorded into the same
    /// registry and trace stream. Requests are scored against the
    /// default [`SloConfig`] on the default [`TimelineConfig`] grid; an
    /// engine instead shares one instrument set built from its
    /// [`crate::ServeConfig::slo`] and [`crate::ServeConfig::timeline`].
    #[must_use]
    pub fn with_observer(self, observer: FarmObserver) -> Self {
        let instruments =
            ServeInstruments::new(&observer, SloConfig::default(), TimelineConfig::default());
        self.with_instruments(observer, instruments)
    }

    /// Attaches an observer together with an already-built instrument
    /// set, so the engine front and the executor record into the same
    /// timeline and fill the same request log.
    #[must_use]
    pub(crate) fn with_instruments(
        mut self,
        observer: FarmObserver,
        instruments: ServeInstruments,
    ) -> Self {
        // The farm records its per-batch aggregates into the same
        // recorder, so serve.* and farm.* series share one window grid.
        self.observer = Some(observer.with_timeline(Arc::clone(&instruments.obs.timeline)));
        self.instruments = Some(instruments);
        self
    }

    /// The worker threads the persistent pool actually runs (resolved
    /// machine parallelism when constructed with `0`).
    #[must_use]
    pub fn pool_threads(&self) -> usize {
        self.pool.threads()
    }

    /// The attached observer, if any.
    #[must_use]
    pub fn observer(&self) -> Option<&FarmObserver> {
        self.observer.as_ref()
    }

    /// The clock requests are timed on.
    #[must_use]
    pub fn clock(&self) -> &Arc<dyn ObsClock> {
        &self.clock
    }

    /// [`Self::execute`] with a panic (a chaos kill, a poisoned pool, a
    /// real bug) caught and returned for the engine's failure path.
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
    #[must_use]
    pub fn execute(&self, batch: &FormedBatch) -> Vec<ServeResponse> {
        // held for the whole execution so the farm's spans nest inside
        let _span = self.observer.as_ref().map(|o| {
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
        let faults = self
            .chaos
            .as_ref()
            .map(|c| {
                c.lock()
                    .expect("serve chaos injector poisoned")
                    .on_batch(batch.index, batch.len())
            })
            .unwrap_or_default();
        if let Some(ns) = faults.stall_ns {
            if let Some(o) = &self.observer {
                o.tracer().event(
                    "batcher_stall",
                    &[("batch", batch.index.into()), ("ns", ns.into())],
                );
            }
            // wall-clock stall, capped so a plan typo cannot wedge CI;
            // under a virtual clock the trace event is the observable
            std::thread::sleep(std::time::Duration::from_nanos(ns.min(50_000_000)));
        }
        assert!(
            !faults.kill,
            "canti-serve chaos: shard killed before batch {}",
            batch.index
        );
        let jobs: Vec<JobSpec> = batch.items.iter().map(|p| p.job.clone()).collect();
        let seeds: Vec<u64> = batch.items.iter().map(|p| p.seed).collect();
        let contexts: Vec<TraceContext> = batch
            .items
            .iter()
            .map(|p| TraceContext {
                request: p.key,
                trace: p.trace,
            })
            .collect();
        let mut farm = Farm::with_cache(
            FarmConfig {
                batch_seed: batch.seed,
                threads: self.threads,
            },
            Arc::clone(&self.cache),
        )
        .with_pool(Arc::clone(&self.pool));
        if let Some(o) = &self.observer {
            farm = farm.with_observer(o.clone());
        }
        if let Some(slot) = faults.panic_job {
            // harness-level sabotage: the worker that claims this slot
            // dies, poisoning the slot; the farm re-raises the payload on
            // this thread once the batch settles, so the whole batch is
            // answered by the shard-failure path regardless of which
            // worker drew the job
            farm = farm.with_sabotage(Arc::new(move |job| {
                if job == slot {
                    panic!("canti-serve chaos: worker killed on job slot {slot}");
                }
            }));
        }
        let exec_start_ns = self.clock.now_ns();
        let report = farm.run_traced(&jobs, &seeds, &contexts);
        let exec_end_ns = self.clock.now_ns();

        let now_ns = self.clock.now_ns();
        let answered: u64 = batch
            .items
            .iter()
            .map(|p| 1 + p.followers.len() as u64)
            .sum();
        if let Some(ins) = &self.instruments {
            ins.batches.inc();
            ins.batch_size.record(batch.len() as u64);
            ins.completed.add(answered);
            // batch cadence depends on how the queue partitioned, so
            // these are not shard-count invariant — tagged accordingly
            ins.obs.timeline.record_delta("serve.batches", 1, now_ns);
            ins.obs
                .timeline
                .sample("serve.batch_size", batch.len() as u64, now_ns);
        }
        let formed_ns = batch.formed_ns;
        let index = batch.index;
        let mut responses = Vec::with_capacity(answered as usize);
        for (pending, result) in batch.items.iter().zip(report.outcomes) {
            // feed the result cache in admission order, successes only —
            // a per-job failure (or an injected fault) never poisons it
            if let (Some(cache), Some(key), Ok(out)) =
                (&self.report_cache, pending.job_key, result.as_ref())
            {
                cache
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .insert(key, out.clone());
            }
            // the phases tile admission→answer exactly: each anchor
            // subtraction reuses the previous anchor, so on a monotone
            // clock cache+queue+form+exec+respond == latency. Followers
            // measure queue_ns against their own (later) arrival, so
            // their breakdowns tile too.
            let record = |enqueued_ns: u64| {
                let breakdown = LatencyBreakdown {
                    cache_ns: 0,
                    queue_ns: formed_ns.saturating_sub(enqueued_ns),
                    form_ns: exec_start_ns.saturating_sub(formed_ns),
                    exec_ns: exec_end_ns.saturating_sub(exec_start_ns),
                    respond_ns: now_ns.saturating_sub(exec_end_ns),
                };
                let latency_ns = now_ns.saturating_sub(enqueued_ns);
                (breakdown, latency_ns)
            };
            let instrument =
                |key: u64, trace: u64, outcome: &'static str, b: &LatencyBreakdown, lat: u64| {
                    if let Some(ins) = &self.instruments {
                        ins.request_latency_ns.record(lat);
                        ins.verdict(lat <= ins.obs.slo.objective_ns, now_ns);
                        // request-scoped deltas: every contribution
                        // counted exactly once, so the merged per-window
                        // series are invariant under re-sharding
                        let tl = &ins.obs.timeline;
                        tl.record_delta("serve.completed", 1, now_ns);
                        tl.record_delta("serve.request_latency_ns", lat, now_ns);
                        tl.record_delta("serve.queue_ns", b.queue_ns, now_ns);
                        tl.record_delta("serve.form_ns", b.form_ns, now_ns);
                        tl.record_delta("serve.exec_ns", b.exec_ns, now_ns);
                        tl.record_delta("serve.respond_ns", b.respond_ns, now_ns);
                        ins.obs.requests.push(RequestRecord {
                            request: key,
                            trace,
                            outcome,
                            batch: Some(index),
                            latency_ns: lat,
                            queue_ns: b.queue_ns,
                            form_ns: b.form_ns,
                            exec_ns: b.exec_ns,
                            respond_ns: b.respond_ns,
                            finished_ns: now_ns,
                        });
                    }
                };
            let (breakdown, latency_ns) = record(pending.enqueued_ns);
            instrument(
                pending.key,
                pending.trace,
                if result.is_ok() { "ok" } else { "job_failed" },
                &breakdown,
                latency_ns,
            );
            responses.push(ServeResponse {
                request_id: pending.id,
                trace: pending.trace,
                disposition: Disposition::Completed {
                    batch: index,
                    latency_ns,
                    breakdown,
                    result: result.clone(),
                },
            });
            // fan the leader's answer out to every coalesced follower —
            // each ticket answered exactly once, with the same payload
            // bits
            for f in &pending.followers {
                let (breakdown, latency_ns) = record(f.enqueued_ns);
                instrument(
                    f.key,
                    f.trace,
                    if result.is_ok() {
                        "coalesced"
                    } else {
                        "job_failed"
                    },
                    &breakdown,
                    latency_ns,
                );
                responses.push(ServeResponse {
                    request_id: f.id,
                    trace: f.trace,
                    disposition: Disposition::Completed {
                        batch: index,
                        latency_ns,
                        breakdown,
                        result: result.clone(),
                    },
                });
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

    fn formed(jobs: usize, clock_now: u64) -> FormedBatch {
        let mut q = AdmissionQueue::new(ServeConfig {
            max_batch: jobs,
            ..ServeConfig::default()
        });
        for i in 0..jobs {
            q.submit(clock_now, JobSpec::Probe(ProbeMode::Draws(1 + i)), None)
                .unwrap();
        }
        q.pop_ready(clock_now).expect("size-triggered batch")
    }

    #[test]
    fn execution_answers_every_request_in_admission_order() {
        let clock = Arc::new(VirtualClock::new());
        clock.set_ns(500);
        let exec = BatchExecutor::new(2, clock.clone());
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
        let oracle = BatchExecutor::new(1, clock.clone()).execute(&formed(8, 0));
        for threads in [2, 8] {
            let run = BatchExecutor::new(threads, clock.clone()).execute(&formed(8, 0));
            assert_eq!(run, oracle, "{threads} farm workers");
        }
    }

    #[test]
    fn observed_execution_records_serve_metrics() {
        let clock = Arc::new(VirtualClock::new());
        let (observer, ring) = FarmObserver::deterministic(4096);
        let exec = BatchExecutor::new(2, clock).with_observer(observer);
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
