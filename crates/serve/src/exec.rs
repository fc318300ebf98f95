//! Batch execution against the farm, plus the serve-side instruments.
//!
//! The executor is intentionally `&self`-only: it owns no queue state,
//! so the threaded driver can run a batch *outside* the engine lock —
//! submissions keep getting fast admit/reject answers while a batch
//! computes.

use std::sync::{Arc, Mutex};

use canti_farm::{Farm, FarmConfig, FarmObserver, JobSpec, PrecomputeCache, WorkerPool};
use canti_fault::ServeChaos;
use canti_obs::serve::{SLO_BREACHED, SLO_GOOD};
use canti_obs::{
    Counter, Gauge, Histogram, ObsClock, RequestLog, RequestRecord, SeriesId, SeriesKind, ServeObs,
    SloConfig, TimelineConfig, TimelineRecorder, TraceContext,
};

use crate::queue::FormedBatch;
use crate::response::{Disposition, LatencyBreakdown, ServeResponse};

/// Finished requests retained for `/debug/requests`, per front.
pub(crate) const REQUEST_LOG_CAPACITY: usize = 1024;

/// A registry counter and the timeline delta series of the same name.
#[derive(Debug, Clone)]
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

/// The serve-layer metrics handles, registered once per observer.
///
/// Names follow the `serve.` prefix the exposition layer sanitizes into
/// `serve_*` Prometheus series. Every timeline series the layer writes
/// is resolved here once, so a request's writes skip the name lookup.
/// Request-scoped deltas count every contribution exactly once, so
/// their merged windows are invariant under re-sharding; the batch and
/// queue-depth series follow how the queue partitioned, so they are
/// not. The shard's [`ServeObs`] rides alongside because its request
/// log and timeline cannot be re-derived from the name-keyed registry —
/// engine and executor must share ONE `ServeInstruments` so both record
/// into the same timeline and log.
#[derive(Debug, Clone)]
pub(crate) struct ServeInstruments {
    pub admitted: Tally,
    pub rejected: Tally,
    pub expired: Tally,
    pub completed: Tally,
    pub batches: Tally,
    pub failed: Tally,
    pub shed: Tally,
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
    pub(crate) fn new(observer: &FarmObserver, slo: SloConfig, timeline: TimelineConfig) -> Self {
        let m = observer.metrics();
        let obs = ServeObs {
            slo,
            requests: Arc::new(RequestLog::new(REQUEST_LOG_CAPACITY)),
            timeline: Arc::new(TimelineRecorder::new(timeline)),
        };
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
        m.describe("serve.shard_restarts", "times this shard was resurrected");
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
            shed: tally("serve.shed", "admitted requests evicted under brownout"),
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
        }
    }

    /// The `slo.good` or `slo.breached` tally a finished request's
    /// verdict counts in.
    pub(crate) fn verdict(&self, good: bool) -> &Tally {
        if good {
            &self.slo_good
        } else {
            &self.slo_breached
        }
    }
}

/// Runs formed batches on the farm engine.
///
/// Construction fixes the worker count, the shared precompute cache and
/// the (optional) observer; execution is then a pure mapping from a
/// formed batch to per-request responses, bit-identical at any worker
/// count because the farm itself is.
#[derive(Debug)]
pub(crate) struct BatchExecutor {
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
    pub(crate) fn new(threads: usize, clock: Arc<dyn ObsClock>) -> Self {
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

    /// Attaches a farm observer together with the instrument set the
    /// engine front records into, so both write the same timeline and
    /// fill the same request log: batches run with farm telemetry, and
    /// the serve-side counters, histograms and spans land in the same
    /// registry and trace stream.
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
    pub(crate) fn pool_threads(&self) -> usize {
        self.pool.threads()
    }

    /// The attached observer, if any.
    pub(crate) fn observer(&self) -> Option<&FarmObserver> {
        self.observer.as_ref()
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
    pub(crate) fn execute(&self, batch: &FormedBatch) -> Vec<ServeResponse> {
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
                request: p.id,
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
            ins.batch_size.record(batch.len() as u64);
            ins.obs.timeline.record(&[
                ins.batches.one(now_ns),
                (ins.batch_size_series, batch.len() as u64, now_ns),
            ]);
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
                |id: u64, trace: u64, outcome: &'static str, b: &LatencyBreakdown, lat: u64| {
                    if let Some(ins) = &self.instruments {
                        ins.request_latency_ns.record(lat);
                        ins.obs.timeline.record(&[
                            ins.verdict(lat <= ins.obs.slo.objective_ns).one(now_ns),
                            ins.completed.one(now_ns),
                            (ins.latency_series, lat, now_ns),
                            (ins.queue_ns, b.queue_ns, now_ns),
                            (ins.form_ns, b.form_ns, now_ns),
                            (ins.exec_ns, b.exec_ns, now_ns),
                            (ins.respond_ns, b.respond_ns, now_ns),
                        ]);
                        ins.obs.requests.push(RequestRecord {
                            request: id,
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
                pending.id,
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
                    f.id,
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
            let job = JobSpec::Probe(ProbeMode::Draws(1 + i));
            q.submit(clock_now, i as u64, job, None, None).unwrap();
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
        let instruments =
            ServeInstruments::new(&observer, SloConfig::default(), TimelineConfig::default());
        let exec = BatchExecutor::new(2, clock).with_instruments(observer, instruments);
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
