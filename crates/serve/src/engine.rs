//! One shard's serving state machine.
//!
//! `ServeEngine` holds what one shard keeps behind its lock — the
//! bounded queue, the serve tallies, the shard's liveness record, the
//! pumped-only hit buffer and batch log — and the `BatchExecutor` its
//! batches run on, which alone holds the shard's clock, observer,
//! instruments and result cache. It keeps no span per request: admission
//! writes a request span's start, and the executor's finish path its end.
//! Its pass runs in three steps — form, execute, land — so a driver can
//! execute batches outside its lock. It is crate-internal:
//! [`crate::ShardedEngine`] runs one per shard, and every request it
//! sees carries the global id that engine allocated.

use std::sync::{Arc, PoisonError};

use canti_farm::{FarmObserver, JobOutput, JobSpec, PrecomputeCache};
use canti_obs::{EventKind, ObsClock, TraceContext};

use crate::cache::ReportCache;
use crate::exec::{BatchExecutor, ServeInstruments};
use crate::queue::{AdmissionQueue, Admitted, BatchTrigger, FormedBatch, Pending, RejectReason};
use crate::response::{Disposition, LatencyBreakdown, ServeResponse};
use crate::shard::{ShardHealth, SupervisorConfig};
use crate::ServeConfig;

/// Running tallies of everything the serving layer decided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Submissions rejected at the door (queue full or draining).
    pub rejected: u64,
    /// Admitted requests that expired before entering a batch.
    pub expired: u64,
    /// Requests answered by a completed batch.
    pub completed: u64,
    /// Batches executed.
    pub batches: u64,
    /// Admitted requests answered [`Disposition::Failed`] because their
    /// shard died before their batch completed.
    pub failed: u64,
    /// Always 0. A full queue refuses at the door
    /// ([`RejectReason::QueueFull`]), so the serving layer never sheds a
    /// request it admitted. The field stays because the benchmark's
    /// stats delta (`delta` in `perfbench/src/drive.rs`) names every
    /// `ServeStats` field.
    pub shed: u64,
    /// Requests answered straight from the content-addressed result
    /// cache (also counted in `admitted` and `completed`).
    pub cache_hits: u64,
    /// Requests that coalesced onto an identical in-flight leader (also
    /// counted in `admitted`; counted in `completed` when the leader's
    /// batch lands).
    pub coalesced: u64,
}

impl ServeStats {
    /// One-line human rendering.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "serve: {} admitted, {} rejected, {} expired, {} completed, {} failed in {} batches ({} cache hits, {} coalesced)",
            self.admitted,
            self.rejected,
            self.expired,
            self.completed,
            self.failed,
            self.batches,
            self.cache_hits,
            self.coalesced
        )
    }
}

/// One formed batch as the engine logged it: membership, trigger, seed.
///
/// The log is part of the determinism contract — two runs of the same
/// arrival script produce `==` batch logs at any worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRecord {
    /// Zero-based batch index.
    pub index: u64,
    /// What fired the batch.
    pub trigger: BatchTrigger,
    /// The farm seed the batch ran with.
    pub seed: u64,
    /// Member request ids in admission order.
    pub request_ids: Vec<u64>,
}

impl BatchRecord {
    fn of(batch: &FormedBatch) -> Self {
        Self {
            index: batch.index,
            trigger: batch.trigger,
            seed: batch.seed,
            request_ids: batch.request_ids(),
        }
    }
}

/// How [`ServeEngine::admit`] placed an admitted request.
#[derive(Debug)]
pub(crate) enum Admission {
    /// Queued, or coalesced onto a queued leader: a batch answers it
    /// later.
    Queued {
        /// The clock reading at admission, which the request's wait and
        /// latency run from.
        admitted_ns: u64,
    },
    /// Answered from the result cache at admission. The response is
    /// terminal and already fully accounted (stats, counters, SLO,
    /// request log); the caller only delivers it.
    Hit(ServeResponse),
}

/// One shard's serving state machine: admission, expiry and batch
/// formation under one lock, and the executor its batches run on.
/// [`crate::ShardedEngine`] pumps it explicitly and
/// [`crate::ShardedService`] drives it from a batcher thread; either way
/// a pass runs [`Self::form`], the executor, then [`Self::land`].
#[derive(Debug)]
pub(crate) struct ServeEngine {
    queue: AdmissionQueue,
    stats: ServeStats,
    /// The shard's one clock, observer, instruments and result cache;
    /// shared so a threaded driver can run a batch outside its lock.
    executor: Arc<BatchExecutor>,
    /// Cache hits answered at admission, delivered at the next pump
    /// (pumped admissions only).
    hits: Vec<ServeResponse>,
    /// Every batch formed so far, in formation order (pumped passes
    /// only).
    batch_log: Vec<BatchRecord>,
    /// How long a dead shard stays down.
    supervisor: SupervisorConfig,
    /// The shard's one liveness record: while it is dead, the instant
    /// its restart falls due; `None` while it serves.
    restart_at_ns: Option<u64>,
    /// Deaths since the shard's last clean batch.
    deaths: u32,
    /// Restarts over the shard's lifetime.
    restarts: u64,
}

impl ServeEngine {
    /// An engine under `config`, timing everything on `clock`, whose
    /// executor shares the service's `precompute` cache.
    pub(crate) fn new(
        config: ServeConfig,
        clock: Arc<dyn ObsClock>,
        precompute: Arc<PrecomputeCache>,
    ) -> Self {
        let mut executor = BatchExecutor::new(config.threads, clock, precompute);
        if let Some(c) = config.cache {
            executor = executor.with_report_cache(ReportCache::new(c));
        }
        Self {
            queue: AdmissionQueue::new(config),
            stats: ServeStats::default(),
            executor: Arc::new(executor),
            hits: Vec::new(),
            batch_log: Vec::new(),
            supervisor: SupervisorConfig::default(),
            restart_at_ns: None,
            deaths: 0,
            restarts: 0,
        }
    }

    /// Replaces the restart policy.
    pub(crate) fn set_supervisor(&mut self, config: SupervisorConfig) {
        self.supervisor = config;
    }

    /// Arms a [`canti_fault::ServeFaultPlan`]: this engine consumes the
    /// plan's slice for `shard`. An empty slice installs nothing at all,
    /// so a default plan is provably identical to no plan.
    pub(crate) fn with_chaos_plan(
        mut self,
        plan: &canti_fault::ServeFaultPlan,
        shard: usize,
    ) -> Self {
        let chaos = canti_fault::ServeChaos::new(plan, shard);
        if !chaos.is_empty() {
            self.executor = Arc::new(unshared(self.executor).with_chaos(chaos));
        }
        self
    }

    /// Attaches a farm observer: serve counters/histograms, request and
    /// batch spans, the timeline (SLO verdicts included), the request
    /// log and the farm's own telemetry all record into it, through the
    /// executor's one instrument set. For coherent timestamps construct
    /// the observer over the same clock the engine was given.
    pub(crate) fn with_observer(mut self, observer: FarmObserver) -> Self {
        let config = self.queue.config();
        let instruments = ServeInstruments::new(observer, config.slo, config.timeline);
        self.executor = Arc::new(unshared(self.executor).with_instruments(instruments));
        self
    }

    /// The shard's health: `Down` from its death until its restart.
    /// Routing sends a `Down` shard nothing, and its passes form nothing.
    pub(crate) fn health(&self) -> ShardHealth {
        match self.restart_at_ns {
            Some(_) => ShardHealth::Down,
            None => ShardHealth::Healthy,
        }
    }

    /// The instant a dead shard's restart falls due; `None` while it
    /// serves.
    pub(crate) fn next_restart_ns(&self) -> Option<u64> {
        self.restart_at_ns
    }

    /// Restarts performed over the shard's lifetime.
    pub(crate) fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Brings the dead shard back: clears its restart instant, bumps
    /// `serve.shard_restarts` and emits `shard_recovered`. The shard
    /// keeps its executor, whose pool is idle with every worker alive: a
    /// chaos kill fires before the batch reaches the pool, a job panic
    /// re-raises only after the pool has finished the batch, and a
    /// batcher panic outside `execute` leaves no batch on it.
    fn restart(&mut self) {
        self.restart_at_ns = None;
        self.restarts += 1;
        if let Some(ins) = self.executor.instruments() {
            ins.shard_restarts.inc();
            ins.observer
                .tracer()
                .event("shard_recovered", &[("restarts", self.restarts.into())]);
        }
    }

    /// Admits `job` under its global request `id` (deadline relative to
    /// now) or rejects it, keeping tallies, the queue-depth gauge, the
    /// request span's start and the admission/rejection events, all at
    /// one clock reading. A cache hit comes back answered; the pumped
    /// engine then [`hold`](Self::hold)s it for the next pump. This is the
    /// serving path's only caller of [`crate::cache::job_key`]: a miss
    /// hands its key to the queue.
    pub(crate) fn admit(
        &mut self,
        id: u64,
        job: JobSpec,
        deadline_ns: Option<u64>,
    ) -> Result<Admission, RejectReason> {
        let ex = &self.executor;
        let now_ns = ex.clock().now_ns();
        let kind = job.kind();
        // Content-addressed fast path: a cached answer satisfies any
        // deadline, so the lookup precedes the capacity gate (a hit
        // occupies no queue slot). A draining shard refuses before any
        // lookup, in the queue; a dead one is never routed to.
        let cache = ex.report_cache().filter(|_| !self.queue.is_draining());
        let job_key = cache.map(|_| crate::cache::job_key(&job));
        if let (Some(cache), Some(k)) = (cache, job_key) {
            let hit = cache
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .lookup(k);
            if let Some(output) = hit {
                return Ok(Admission::Hit(self.complete_hit(id, kind, output, now_ns)));
            }
            // the miss names only the kind: the admission or rejection
            // that follows accounts for the request
            if let Some(ins) = ex.instruments() {
                ins.observer
                    .tracer()
                    .event("cache_miss", &[("kind", kind.into())]);
                ins.cache_miss.counter.inc();
            }
        }
        let submitted = self.queue.submit(now_ns, id, job, job_key, deadline_ns);
        // A lookup ran exactly when `job_key` is set, and a hit returned
        // above, so the miss's delta (counted at the lookup) leads the
        // outcome's in one write.
        let from = usize::from(job_key.is_none());
        let admitted = match submitted {
            Ok(admitted) => admitted,
            Err(reason) => {
                self.stats.rejected += 1;
                if let Some(ins) = ex.instruments() {
                    ins.observer.tracer().event(
                        "request_rejected",
                        &[("kind", kind.into()), ("reason", reason.label().into())],
                    );
                    let deltas = [(ins.cache_miss.series, 1, now_ns), ins.rejected.one(now_ns)];
                    ins.obs.timeline.record(&deltas[from..]);
                }
                return Err(reason);
            }
        };
        self.stats.admitted += 1;
        let ctx = TraceContext::from_admission(id);
        if let Some(ins) = ex.instruments() {
            // the span starts at the reading the request's latency runs
            // from; its global id and trace id keep the chain joinable at
            // any shard count
            let [request, trace] = ctx.fields();
            let start = [request, trace, ("kind", kind.into())];
            ins.observer
                .tracer()
                .emit(now_ns, EventKind::SpanStart, "request", &start);
            let coalesced = matches!(admitted, Admitted::Coalesced { .. });
            let deltas = [
                (ins.cache_miss.series, 1, now_ns),
                ins.admitted.one(now_ns),
                (ins.coalesced.series, 1, now_ns),
            ];
            ins.obs
                .timeline
                .record(&deltas[from..2 + usize::from(coalesced)]);
        }
        match admitted {
            Admitted::Queued => self.observe_depth(),
            Admitted::Coalesced { leader } => {
                // no depth change: the follower rides the leader's slot
                self.stats.coalesced += 1;
                if let Some(ins) = ex.instruments() {
                    let [request, trace] = ctx.fields();
                    let fields = [request, trace, ("leader", leader.into())];
                    ins.observer.tracer().event("coalesced", &fields);
                    ins.coalesced.counter.inc();
                }
            }
        }
        Ok(Admission::Queued {
            admitted_ns: now_ns,
        })
    }

    /// One request answered from the result cache at admission: tallied,
    /// its `cache_hit` event emitted at the answer's clock reading, its
    /// answer recorded, and returned as its terminal response. No span
    /// opens — the request never enters the queue. On a virtual clock the
    /// lookup is instantaneous (`cache_ns` 0), so scripted traces stay
    /// pinned; on the wall clock `cache_ns` is the real lookup cost and
    /// the breakdown still tiles exactly.
    fn complete_hit(
        &mut self,
        id: u64,
        kind: &'static str,
        output: JobOutput,
        admitted_ns: u64,
    ) -> ServeResponse {
        self.stats.admitted += 1;
        self.stats.cache_hits += 1;
        self.stats.completed += 1;
        let ex = &self.executor;
        let ctx = TraceContext::from_admission(id);
        let done_ns = ex.clock().now_ns();
        let cache_ns = done_ns.saturating_sub(admitted_ns);
        let response = ServeResponse {
            request_id: id,
            trace: ctx.trace,
            disposition: Disposition::CacheHit {
                latency_ns: cache_ns,
                breakdown: LatencyBreakdown {
                    cache_ns,
                    ..LatencyBreakdown::default()
                },
                result: Ok(output),
            },
        };
        if let Some(ins) = ex.instruments() {
            let [request, trace] = ctx.fields();
            let fields = [request, trace, ("kind", kind.into())];
            ins.observer
                .tracer()
                .emit(done_ns, EventKind::Event, "cache_hit", &fields);
            ins.finish(&response, false, admitted_ns, done_ns);
        }
        response
    }

    /// Ends one admitted request that got no answer — expired, or
    /// stranded by its shard's death — as `disposition`: tallied, its
    /// `request_expired` or `request_abandoned` event emitted, recorded
    /// as a breach and its span ended, both by the finish path.
    fn unanswered(
        &mut self,
        (id, trace, admitted_ns): (u64, u64, u64),
        disposition: Disposition,
        now_ns: u64,
    ) -> ServeResponse {
        let event = if matches!(disposition, Disposition::Failed) {
            self.stats.failed += 1;
            "request_abandoned"
        } else {
            self.stats.expired += 1;
            "request_expired"
        };
        let response = ServeResponse {
            request_id: id,
            trace,
            disposition,
        };
        if let Some(ins) = self.executor.instruments() {
            ins.observer
                .tracer()
                .event(event, &[("request", id.into()), ("trace", trace.into())]);
            ins.finish(&response, false, admitted_ns, now_ns);
        }
        response
    }

    /// The pumped half of an admission: buffers a hit's response for the
    /// next pump.
    pub(crate) fn hold(&mut self, admission: Admission) {
        if let Admission::Hit(response) = admission {
            self.hits.push(response);
        }
    }

    /// The executor the next batch runs on: a handle a driver holds
    /// while it executes outside its lock.
    pub(crate) fn executor(&self) -> Arc<BatchExecutor> {
        Arc::clone(&self.executor)
    }

    /// Step 1 of a pass: answers into `out` the cache hits buffered
    /// since the last pump (they were admitted before anything that
    /// follows), then expiries, and releases the batches now due.
    /// `drain` stops admission and releases everything queued. A dead
    /// shard first restarts once its backoff has elapsed (a drain
    /// restarts nothing); until then it forms nothing, because its
    /// queue was already answered terminally.
    pub(crate) fn form(&mut self, drain: bool, out: &mut Vec<ServeResponse>) -> Vec<FormedBatch> {
        let now_ns = self.executor.clock().now_ns();
        if let Some(due) = self.restart_at_ns {
            if drain || now_ns < due {
                if drain {
                    self.queue.begin_drain();
                }
                return Vec::new();
            }
            self.restart();
        }
        out.append(&mut self.hits);
        let expired = self.queue.take_expired(now_ns);
        if !expired.is_empty() {
            for p in &expired {
                let waited_ns = now_ns.saturating_sub(p.enqueued_ns);
                let deadline_ns = p.deadline_ns.unwrap_or(now_ns);
                let expiry = Disposition::Expired {
                    waited_ns,
                    deadline_ns,
                };
                out.push(self.unanswered((p.id, p.trace, p.enqueued_ns), expiry, now_ns));
            }
            self.observe_depth();
        }
        if drain {
            self.queue.begin_drain();
            let batches = std::iter::from_fn(|| self.queue.pop_drain(now_ns)).collect();
            self.observe_depth();
            return batches;
        }
        let batches: Vec<FormedBatch> =
            std::iter::from_fn(|| self.queue.pop_ready(now_ns)).collect();
        if !batches.is_empty() {
            self.observe_depth();
        }
        batches
    }

    /// Steps 2 and 3 on this thread, for the pumped forms: logs the
    /// formed batches, then executes and lands each in turn.
    pub(crate) fn run(&mut self, batches: Vec<FormedBatch>) -> Vec<ServeResponse> {
        self.batch_log.extend(batches.iter().map(BatchRecord::of));
        let executor = self.executor();
        let mut out = Vec::new();
        let mut batches = batches.into_iter();
        while let Some(batch) = batches.next() {
            let ran = executor.try_execute(&batch);
            out.extend(self.land(&batch, ran, &mut batches));
        }
        out
    }

    /// Step 3 of a pass: lands one executed batch. A clean run (the
    /// executor already recorded its answers and ended their spans)
    /// bumps the tallies and resets the shard's death streak. An
    /// executor panic (a chaos kill or a real bug) fails the shard and
    /// answers **every** outstanding request terminally — the batch that
    /// died, the batches formed behind it in `rest`, and everything still
    /// queued. No admitted request is ever left hanging.
    pub(crate) fn land(
        &mut self,
        batch: &FormedBatch,
        ran: std::thread::Result<Vec<ServeResponse>>,
        rest: &mut impl Iterator<Item = FormedBatch>,
    ) -> Vec<ServeResponse> {
        if let Ok(responses) = ran {
            self.stats.completed += responses.len() as u64;
            self.stats.batches += 1;
            self.deaths = 0;
            responses
        } else {
            if let Some(o) = self.executor.observer() {
                o.tracer()
                    .event("shard_down", &[("batch", batch.index.into())]);
            }
            let stranded: Vec<FormedBatch> = rest.collect();
            let queued = self.queue.take_all();
            let doomed = batch
                .items
                .iter()
                .chain(stranded.iter().flat_map(|b| &b.items))
                .chain(&queued);
            self.fail(doomed.flat_map(Pending::members))
        }
    }

    /// Fails the shard — it takes no traffic until restarted — drops
    /// what is still queued, and answers [`Disposition::Failed`] to each
    /// `(id, trace, admitted_ns)` in `open`: the members of a batch that
    /// died, or every ticket a driver that panicked outside a batch
    /// still held. The `k`-th death since the last clean batch schedules
    /// the restart [`SupervisorConfig::backoff_ns`]`(k)` from now; a
    /// shard already down keeps its schedule.
    pub(crate) fn fail(
        &mut self,
        open: impl IntoIterator<Item = (u64, u64, u64)>,
    ) -> Vec<ServeResponse> {
        let now_ns = self.executor.clock().now_ns();
        if self.restart_at_ns.is_none() {
            self.deaths += 1;
            let backoff_ns = self.supervisor.backoff_ns(self.deaths);
            self.restart_at_ns = Some(now_ns.saturating_add(backoff_ns));
        }
        self.queue.take_all();
        let out = open
            .into_iter()
            .map(|m| self.unanswered(m, Disposition::Failed, now_ns))
            .collect();
        self.observe_depth();
        out
    }

    /// Samples the queue depth into the gauge and the timeline; called
    /// whenever the depth changes.
    fn observe_depth(&self) {
        if let Some(ins) = self.executor.instruments() {
            let depth = self.queue.depth();
            ins.queue_depth.set(depth as i64);
            ins.obs.timeline.record(&[(
                ins.depth_series,
                depth as u64,
                self.executor.clock().now_ns(),
            )]);
        }
    }

    /// Requests currently queued.
    pub(crate) fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// The earliest future instant at which queued state can change on
    /// its own (linger or deadline); `None` while the queue is empty.
    pub(crate) fn next_wakeup_ns(&self) -> Option<u64> {
        self.queue.next_wakeup_ns()
    }

    /// The running tallies.
    pub(crate) fn stats(&self) -> ServeStats {
        self.stats
    }

    /// The result cache's counters, when [`ServeConfig::cache`] is set.
    pub(crate) fn cache_stats(&self) -> Option<crate::cache::CacheStats> {
        let cache = self.executor.report_cache()?;
        Some(cache.lock().unwrap_or_else(PoisonError::into_inner).stats())
    }

    /// Every batch formed so far, in formation order.
    pub(crate) fn batch_log(&self) -> &[BatchRecord] {
        &self.batch_log
    }

    /// The executor's observer, if one was attached.
    pub(crate) fn observer(&self) -> Option<&FarmObserver> {
        self.executor.observer()
    }

    /// This engine's debug handles — objective, request log and
    /// timeline — behind the `/debug/*` routes (present once an observer
    /// is attached).
    pub(crate) fn obs(&self) -> Option<canti_obs::ServeObs> {
        self.executor.instruments().map(|i| i.obs.clone())
    }
}

/// Takes back sole ownership of an executor while its engine is still
/// being built, before any batch could hold a handle to it.
fn unshared(executor: Arc<BatchExecutor>) -> BatchExecutor {
    Arc::try_unwrap(executor).expect("an engine under construction shares no executor")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::BatchTrigger;
    use crate::{CacheConfig, ServeFaultPlan, ShardedConfig, ShardedEngine};
    use canti_farm::ProbeMode;
    use canti_obs::VirtualClock;

    fn probe(v: f64) -> JobSpec {
        JobSpec::Probe(ProbeMode::Value(v))
    }

    fn engine(clock: &Arc<VirtualClock>, config: ServeConfig) -> ShardedEngine {
        ShardedEngine::new(
            ShardedConfig {
                shards: 1,
                base: config,
            },
            Arc::clone(clock) as Arc<dyn ObsClock>,
        )
    }

    #[test]
    fn size_threshold_executes_a_batch() {
        let clock = Arc::new(VirtualClock::new());
        let mut e = engine(
            &clock,
            ServeConfig {
                max_batch: 2,
                threads: 1,
                ..ServeConfig::default()
            },
        );
        assert_eq!(e.submit(probe(1.0)), Ok(0));
        assert_eq!(e.submit(probe(2.0)), Ok(1));
        assert_eq!(e.submit(probe(3.0)), Ok(2));
        let responses = e.pump();
        assert_eq!(responses.len(), 2, "one full batch fires, one queued");
        assert_eq!(e.queue_depth(), 1);
        assert_eq!(e.batch_log(0).len(), 1);
        assert_eq!(e.batch_log(0)[0].trigger, BatchTrigger::Size);
        assert_eq!(e.batch_log(0)[0].request_ids, vec![0, 1]);
        assert_eq!(e.stats().completed, 2);
    }

    #[test]
    fn linger_fires_only_after_the_clock_advances() {
        let clock = Arc::new(VirtualClock::new());
        let mut e = engine(
            &clock,
            ServeConfig {
                max_batch: 8,
                linger_ns: 1_000,
                threads: 1,
                ..ServeConfig::default()
            },
        );
        e.submit(probe(1.0)).unwrap();
        assert!(e.pump().is_empty(), "no time passed, nothing fires");
        clock.advance_ns(999);
        assert!(e.pump().is_empty(), "1 ns short of the linger");
        clock.advance_ns(1);
        let responses = e.pump();
        assert_eq!(responses.len(), 1);
        assert_eq!(e.batch_log(0)[0].trigger, BatchTrigger::Linger);
        match &responses[0].disposition {
            Disposition::Completed { latency_ns, .. } => assert_eq!(*latency_ns, 1_000),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn deadlines_expire_before_batching() {
        let clock = Arc::new(VirtualClock::new());
        let mut e = engine(
            &clock,
            ServeConfig {
                max_batch: 8,
                linger_ns: 500,
                threads: 1,
                ..ServeConfig::default()
            },
        );
        e.submit_with_deadline(probe(1.0), 400).unwrap();
        e.submit(probe(2.0)).unwrap();
        clock.advance_ns(500); // linger AND deadline both due
        let responses = e.pump();
        assert_eq!(responses.len(), 2);
        assert_eq!(
            responses[0].disposition,
            Disposition::Expired {
                waited_ns: 500,
                deadline_ns: 400
            },
            "expiry wins over batching"
        );
        assert!(responses[1].disposition.is_ok());
        assert_eq!(e.batch_log(0)[0].request_ids, vec![1]);
        assert_eq!(e.stats().expired, 1);
    }

    #[test]
    fn drain_flushes_and_then_rejects() {
        let clock = Arc::new(VirtualClock::new());
        let mut e = engine(
            &clock,
            ServeConfig {
                max_batch: 4,
                linger_ns: u64::MAX,
                threads: 1,
                ..ServeConfig::default()
            },
        );
        for i in 0..3 {
            e.submit(probe(f64::from(i))).unwrap();
        }
        assert!(e.pump().is_empty(), "below threshold, linger unreachable");
        let responses = e.drain();
        assert_eq!(responses.len(), 3);
        assert_eq!(e.batch_log(0)[0].trigger, BatchTrigger::Drain);
        assert_eq!(e.submit(probe(9.0)), Err(RejectReason::Draining));
        let stats = e.stats();
        assert_eq!(
            (
                stats.admitted,
                stats.rejected,
                stats.completed,
                stats.batches
            ),
            (3, 1, 3, 1)
        );
        assert!(stats.render().contains("3 admitted"));
    }

    #[test]
    fn queue_full_rejections_carry_the_capacity() {
        let clock = Arc::new(VirtualClock::new());
        let mut e = engine(
            &clock,
            ServeConfig {
                queue_capacity: 2,
                max_batch: 8,
                linger_ns: u64::MAX,
                threads: 1,
                ..ServeConfig::default()
            },
        );
        e.submit(probe(1.0)).unwrap();
        e.submit(probe(2.0)).unwrap();
        assert_eq!(
            e.submit(probe(3.0)),
            Err(RejectReason::QueueFull { capacity: 2 })
        );
        assert_eq!(e.stats().rejected, 1);
    }

    #[test]
    fn observed_engine_tracks_metrics_and_spans() {
        let (observer, ring) = FarmObserver::deterministic(8192);
        let clock = Arc::new(VirtualClock::new());
        let mut e = engine(
            &clock,
            ServeConfig {
                max_batch: 2,
                threads: 2,
                ..ServeConfig::default()
            },
        )
        .with_observers(vec![observer]);
        e.submit(probe(1.0)).unwrap();
        e.submit(probe(2.0)).unwrap();
        let responses = e.pump();
        assert_eq!(responses.len(), 2);
        let m = e.shard(0).observer().expect("observer").metrics();
        assert_eq!(m.counter("serve.admitted").get(), 2);
        assert_eq!(m.counter("serve.completed").get(), 2);
        assert_eq!(m.gauge("serve.queue_depth").get(), 0);
        // request spans open at admission and close in the batch
        let request_starts = ring
            .events()
            .iter()
            .filter(|e| e.name == "request" && e.kind == canti_obs::EventKind::SpanStart)
            .count();
        let request_ends = ring
            .events()
            .iter()
            .filter(|e| e.name == "request" && e.kind == canti_obs::EventKind::SpanEnd)
            .count();
        assert_eq!((request_starts, request_ends), (2, 2));
    }

    #[test]
    fn stats_equal_their_counters_when_a_kill_strands_batches() {
        // max batch 1: the pump forms one batch per leader; under the
        // kill the first dies and the ones behind it are stranded, never
        // executed
        for plan in [ServeFaultPlan::default(), ServeFaultPlan::kill_shard(0, 0)] {
            for cache in [None, Some(CacheConfig::default())] {
                let (observer, _ring) = FarmObserver::deterministic(4096);
                let clock = Arc::new(VirtualClock::new());
                let config = ServeConfig {
                    max_batch: 1,
                    threads: 1,
                    cache,
                    ..ServeConfig::default()
                };
                let mut e = engine(&clock, config)
                    .with_observers(vec![observer])
                    .with_chaos_plan(&plan);
                // the repeat coalesces onto its queued leader when cached
                for v in [0.0, 1.0, 1.0] {
                    e.submit(probe(v)).unwrap();
                }
                let _ = e.pump();
                let _ = e.drain();
                let ServeStats {
                    admitted,
                    rejected,
                    expired,
                    completed,
                    batches,
                    failed,
                    shed: _,
                    cache_hits,
                    coalesced,
                } = e.stats();
                let m = e.shard(0).observer().expect("observer").metrics();
                let counters = [
                    "serve.admitted",
                    "serve.rejected",
                    "serve.expired",
                    "serve.completed",
                    "serve.batches",
                    "serve.failed",
                    "serve.cache_hit",
                    "serve.coalesced",
                ]
                .map(|name| m.counter(name).get());
                let fields = [
                    admitted, rejected, expired, completed, batches, failed, cache_hits, coalesced,
                ];
                let case = format!("{plan:?}, cache {}", cache.is_some());
                assert_eq!(fields, counters, "{case}");
                assert_eq!(completed + failed, 3, "{case}");
            }
        }
    }

    #[test]
    fn next_wakeup_reflects_linger_and_deadline() {
        let clock = Arc::new(VirtualClock::new());
        let mut e = engine(
            &clock,
            ServeConfig {
                max_batch: 8,
                linger_ns: 1_000,
                threads: 1,
                ..ServeConfig::default()
            },
        );
        assert_eq!(e.next_wakeup_ns(0), None);
        clock.advance_ns(10);
        e.submit_with_deadline(probe(1.0), 400).unwrap();
        assert_eq!(e.next_wakeup_ns(0), Some(410), "deadline before linger");
    }
}
