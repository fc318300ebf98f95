//! The admission front and the single-threaded serving engine.
//!
//! `Front` (crate-internal) bundles the lock-scoped half of one shard:
//! the bounded queue, the request spans and the serve tallies.
//! [`ServeEngine`] glues a `Front` to a [`BatchExecutor`] into one
//! shard's state machine. Its pass runs in three steps — form, execute,
//! land — so a driver can execute batches outside its lock; [`pump`]
//! runs them in a row, which is the deterministic, explicitly pumped
//! form the scripted determinism tests drive.
//!
//! [`pump`]: ServeEngine::pump

use std::collections::BTreeMap;
use std::sync::Arc;

use canti_farm::{FarmObserver, JobSpec};
use canti_obs::trace::SpanGuard;
use canti_obs::ObsClock;

use crate::exec::BatchExecutor;
use crate::queue::{AdmissionQueue, BatchTrigger, FormedBatch, Pending, RejectReason};
use crate::response::{Disposition, ServeResponse};
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
    /// Admitted requests answered [`RejectReason::ShardFailed`] because
    /// their shard died before their batch completed.
    pub failed: u64,
    /// Admitted requests evicted by brownout shedding.
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
            "serve: {} admitted, {} rejected, {} expired, {} completed, {} failed, {} shed in {} batches ({} cache hits, {} coalesced)",
            self.admitted,
            self.rejected,
            self.expired,
            self.completed,
            self.failed,
            self.shed,
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

/// How [`Front::admit`] placed an admitted request.
#[derive(Debug)]
pub(crate) enum Admission {
    /// Queued, or coalesced onto a queued leader, under this id: a batch
    /// answers it later.
    Queued(u64),
    /// Answered from the result cache at admission. The response is
    /// terminal and already fully accounted (stats, counters, SLO,
    /// request log); the caller only delivers it.
    Hit(ServeResponse),
}

/// The lock-scoped half of the serving layer: admission, expiry, batch
/// formation, spans and tallies. No execution happens here — formed
/// batches are handed out for the caller to run, so the threaded
/// driver can execute them outside its lock.
#[derive(Debug)]
pub(crate) struct Front {
    queue: AdmissionQueue,
    clock: Arc<dyn ObsClock>,
    observer: Option<FarmObserver>,
    instruments: Option<crate::exec::ServeInstruments>,
    spans: BTreeMap<u64, SpanGuard>,
    stats: ServeStats,
    /// The shard's content-addressed result cache, shared with the
    /// executor. `None` with caching off.
    cache: Option<Arc<std::sync::Mutex<crate::cache::ReportCache>>>,
}

impl Front {
    /// `instruments` must be the same set the executor records into —
    /// SLO windows and the request log live on the instrument struct
    /// itself (not in the name-keyed registry), so a second construction
    /// would silently split the debug views in half. Likewise `cache`
    /// must be the same handle the executor inserts into.
    pub(crate) fn new(
        config: ServeConfig,
        clock: Arc<dyn ObsClock>,
        observer: Option<FarmObserver>,
        instruments: Option<crate::exec::ServeInstruments>,
        cache: Option<Arc<std::sync::Mutex<crate::cache::ReportCache>>>,
    ) -> Self {
        Self {
            queue: AdmissionQueue::new(config),
            clock,
            observer,
            instruments,
            spans: BTreeMap::new(),
            stats: ServeStats::default(),
            cache,
        }
    }

    /// The shard's result-cache tallies (hits, misses, entries, ...),
    /// when caching is on.
    pub(crate) fn cache_stats(&self) -> Option<crate::cache::CacheStats> {
        self.cache.as_ref().map(|c| {
            c.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .stats()
        })
    }

    pub(crate) fn stats(&self) -> ServeStats {
        self.stats
    }

    pub(crate) fn depth(&self) -> usize {
        self.queue.depth()
    }

    pub(crate) fn instruments(&self) -> Option<&crate::exec::ServeInstruments> {
        self.instruments.as_ref()
    }

    /// Admits `job` (deadline relative to now, falling back to the
    /// config default) or rejects it, keeping tallies, the queue-depth
    /// gauge, the request span and the admission/rejection events.
    /// `key` is the seed key (the global request id under a sharded
    /// front — see [`crate::queue::AdmissionQueue::submit_keyed`]) and
    /// `priority` the brownout class. A cache hit comes back answered.
    pub(crate) fn admit(
        &mut self,
        job: JobSpec,
        deadline_ns: Option<u64>,
        key: Option<u64>,
        priority: u8,
    ) -> Result<Admission, RejectReason> {
        let now_ns = self.clock.now_ns();
        let kind = job.kind();
        // Content-addressed fast path: a cached answer satisfies any
        // deadline, so the lookup precedes the feasibility check and the
        // capacity gate (a hit occupies no queue slot). Failed/draining
        // still refuse first, inside allocate_cached.
        if self.cache.is_some() && !self.queue.is_failed() && !self.queue.is_draining() {
            let job_key = crate::cache::job_key(&job);
            let hit = self
                .cache
                .as_ref()
                .expect("checked above")
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .lookup(job_key);
            match hit {
                Some(output) => {
                    let id = self
                        .queue
                        .allocate_cached()
                        .expect("failed/draining gated above");
                    let response = self.complete_hit(id, key.unwrap_or(id), kind, output, now_ns);
                    return Ok(Admission::Hit(response));
                }
                None => {
                    // no request field: the id is not allocated yet at
                    // miss time (the normal admission below assigns it)
                    if let Some(o) = &self.observer {
                        o.tracer().event("cache_miss", &[("kind", kind.into())]);
                    }
                    if let Some(ins) = &self.instruments {
                        ins.cache_miss.inc();
                        ins.timeline.record_delta("serve.cache_miss", 1, now_ns);
                    }
                }
            }
        }
        let submitted = match self.feasibility_reject(deadline_ns) {
            Some(reason) => Err(reason),
            None => self
                .queue
                .submit_prioritized(now_ns, job, deadline_ns, key, priority),
        };
        match submitted {
            Ok(admitted) => {
                let id = admitted.id();
                self.stats.admitted += 1;
                if let Some(o) = &self.observer {
                    // span fields carry the global key and trace id, so
                    // the chain stays joinable at any shard count
                    let ctx = canti_obs::TraceContext::from_admission(key.unwrap_or(id));
                    let span = o.tracer().span(
                        "request",
                        &[
                            ("request", ctx.request.into()),
                            ("trace", ctx.trace.into()),
                            ("kind", kind.into()),
                        ],
                    );
                    self.spans.insert(id, span);
                }
                if let Some(ins) = &self.instruments {
                    ins.admitted.inc();
                    ins.timeline.record_delta("serve.admitted", 1, now_ns);
                }
                match admitted {
                    crate::queue::Admitted::Queued(_) => self.observe_depth(),
                    crate::queue::Admitted::Coalesced { leader, .. } => {
                        // no depth change: the follower rides the
                        // leader's slot
                        self.stats.coalesced += 1;
                        if let Some(o) = &self.observer {
                            let ctx = canti_obs::TraceContext::from_admission(key.unwrap_or(id));
                            o.tracer().event(
                                "coalesced",
                                &[
                                    ("request", ctx.request.into()),
                                    ("trace", ctx.trace.into()),
                                    ("leader", leader.into()),
                                ],
                            );
                        }
                        if let Some(ins) = &self.instruments {
                            ins.coalesced.inc();
                            ins.timeline.record_delta("serve.coalesced", 1, now_ns);
                        }
                    }
                }
                Ok(Admission::Queued(id))
            }
            Err(reason) => {
                self.stats.rejected += 1;
                if let Some(o) = &self.observer {
                    o.tracer().event(
                        "request_rejected",
                        &[("kind", kind.into()), ("reason", reason.label().into())],
                    );
                }
                if let Some(ins) = &self.instruments {
                    ins.rejected.inc();
                    ins.timeline.record_delta("serve.rejected", 1, now_ns);
                }
                Err(reason)
            }
        }
    }

    /// One request answered from the result cache at admission: fully
    /// accounted (tallies, counters, SLO, request log, trace event) and
    /// returned as its terminal response. No span opens — the request
    /// never enters the queue. On a virtual clock the lookup is
    /// instantaneous (`cache_ns` 0), so scripted traces stay pinned; on
    /// the wall clock `cache_ns` is the real lookup cost and the
    /// breakdown still tiles exactly.
    fn complete_hit(
        &mut self,
        id: u64,
        seed_key: u64,
        kind: &'static str,
        output: canti_farm::JobOutput,
        admitted_ns: u64,
    ) -> ServeResponse {
        self.stats.admitted += 1;
        self.stats.cache_hits += 1;
        self.stats.completed += 1;
        let trace = canti_obs::trace_id(seed_key);
        let done_ns = self.clock.now_ns();
        let cache_ns = done_ns.saturating_sub(admitted_ns);
        if let Some(o) = &self.observer {
            o.tracer().event(
                "cache_hit",
                &[
                    ("request", seed_key.into()),
                    ("trace", trace.into()),
                    ("kind", kind.into()),
                ],
            );
        }
        if let Some(ins) = &self.instruments {
            ins.admitted.inc();
            ins.cache_hit.inc();
            ins.completed.inc();
            ins.request_latency_ns.record(cache_ns);
            ins.slo.record(cache_ns, done_ns);
            ins.timeline.record_delta("serve.admitted", 1, admitted_ns);
            ins.timeline.record_delta("serve.cache_hit", 1, done_ns);
            ins.timeline.record_delta("serve.completed", 1, done_ns);
            ins.timeline
                .record_delta("serve.request_latency_ns", cache_ns, done_ns);
            ins.timeline
                .record_delta("serve.cache_ns", cache_ns, done_ns);
            ins.requests.push(canti_obs::RequestRecord {
                request: seed_key,
                trace,
                outcome: "cache_hit",
                batch: None,
                latency_ns: cache_ns,
                queue_ns: 0,
                form_ns: 0,
                exec_ns: 0,
                respond_ns: 0,
                finished_ns: done_ns,
            });
        }
        ServeResponse {
            request_id: id,
            trace,
            disposition: Disposition::CacheHit {
                latency_ns: cache_ns,
                breakdown: crate::response::LatencyBreakdown {
                    cache_ns,
                    ..Default::default()
                },
                result: Ok(output),
            },
        }
    }

    /// The deadline-feasibility fast reject: refuses a request whose
    /// relative deadline is shorter than this shard's own p95
    /// admission-to-completion estimate. Opt-in via
    /// [`crate::FeasibilityConfig`] and inert until the latency
    /// histogram holds `min_samples` completions.
    fn feasibility_reject(&self, deadline_ns: Option<u64>) -> Option<RejectReason> {
        let policy = self.queue.config().feasibility?;
        let ins = self.instruments.as_ref()?;
        let deadline = deadline_ns.or(self.queue.config().default_deadline_ns)?;
        let snap = ins.request_latency_ns.snapshot();
        if snap.count >= policy.min_samples && deadline < snap.p95 {
            Some(RejectReason::Infeasible {
                needed_ns: snap.p95,
                deadline_ns: deadline,
            })
        } else {
            None
        }
    }

    /// Brownout shedding: evicts the lowest-priority waiting requests
    /// down to the configured high-water mark, answering each
    /// [`Disposition::Failed`] / [`RejectReason::Shed`]. Inert without a
    /// [`crate::BrownoutConfig`].
    pub(crate) fn take_shed(&mut self) -> Vec<ServeResponse> {
        let Some(policy) = self.queue.config().brownout else {
            return Vec::new();
        };
        let victims = self.queue.take_shed(policy.high_water);
        if victims.is_empty() {
            return Vec::new();
        }
        let now_ns = self.clock.now_ns();
        let mut responses = Vec::new();
        for p in &victims {
            self.stats.shed += 1;
            responses.push(self.abandon(
                p.id,
                p.key,
                p.trace,
                p.enqueued_ns,
                RejectReason::Shed,
                now_ns,
            ));
            // a shed leader takes its coalesced followers with it
            for f in &p.followers {
                self.stats.shed += 1;
                responses.push(self.abandon(
                    f.id,
                    f.key,
                    f.trace,
                    f.enqueued_ns,
                    RejectReason::Shed,
                    now_ns,
                ));
            }
        }
        self.observe_depth();
        responses
    }

    /// Marks the shard failed (later submissions get
    /// [`RejectReason::ShardFailed`]) and answers everything still
    /// queued terminally.
    fn fail_queued(&mut self) -> Vec<ServeResponse> {
        self.queue.fail();
        let victims = self.queue.take_all();
        let now_ns = self.clock.now_ns();
        let responses = victims
            .iter()
            .flat_map(|p| self.fail_pending_at(p, now_ns))
            .collect();
        self.observe_depth();
        responses
    }

    /// Answers one admitted request — and every follower coalesced onto
    /// it — [`RejectReason::ShardFailed`]. Used for batch members whose
    /// execution died underneath them.
    fn fail_pending(&mut self, p: &Pending) -> Vec<ServeResponse> {
        let now_ns = self.clock.now_ns();
        self.fail_pending_at(p, now_ns)
    }

    fn fail_pending_at(&mut self, p: &Pending, now_ns: u64) -> Vec<ServeResponse> {
        let mut out = Vec::with_capacity(1 + p.followers.len());
        self.stats.failed += 1;
        out.push(self.abandon(
            p.id,
            p.key,
            p.trace,
            p.enqueued_ns,
            RejectReason::ShardFailed,
            now_ns,
        ));
        for f in &p.followers {
            self.stats.failed += 1;
            out.push(self.abandon(
                f.id,
                f.key,
                f.trace,
                f.enqueued_ns,
                RejectReason::ShardFailed,
                now_ns,
            ));
        }
        out
    }

    /// Answers [`RejectReason::ShardFailed`] to requests known only by
    /// what a driver's ticket table holds: `(local id, key, enqueued_ns)`
    /// per request.
    fn abandon_open(&mut self, known: &[(u64, u64, u64)]) -> Vec<ServeResponse> {
        let now_ns = self.clock.now_ns();
        known
            .iter()
            .map(|&(id, key, enqueued_ns)| {
                self.stats.failed += 1;
                let trace = canti_obs::trace_id(key);
                self.abandon(
                    id,
                    key,
                    trace,
                    enqueued_ns,
                    RejectReason::ShardFailed,
                    now_ns,
                )
            })
            .collect()
    }

    /// One abandoned request: span closed, SLO breached, debug record
    /// written, terminal [`Disposition::Failed`] response built. The
    /// caller bumps the matching `ServeStats` tally.
    fn abandon(
        &mut self,
        id: u64,
        key: u64,
        trace: u64,
        enqueued_ns: u64,
        reason: RejectReason,
        now_ns: u64,
    ) -> ServeResponse {
        let waited_ns = now_ns.saturating_sub(enqueued_ns);
        if let Some(o) = &self.observer {
            o.tracer().event(
                "request_abandoned",
                &[
                    ("request", key.into()),
                    ("trace", trace.into()),
                    ("reason", reason.label().into()),
                ],
            );
        }
        if let Some(ins) = &self.instruments {
            let (counter, series) = if matches!(reason, RejectReason::Shed) {
                (&ins.shed, "serve.shed")
            } else {
                (&ins.failed, "serve.failed")
            };
            counter.inc();
            ins.timeline.record_delta(series, 1, now_ns);
            // an abandoned request always burns error budget
            ins.slo.record_outcome(false, now_ns);
            ins.requests.push(canti_obs::RequestRecord {
                request: key,
                trace,
                outcome: reason.label(),
                batch: None,
                latency_ns: waited_ns,
                queue_ns: waited_ns,
                form_ns: 0,
                exec_ns: 0,
                respond_ns: 0,
                finished_ns: now_ns,
            });
        }
        if let Some(span) = self.spans.remove(&id) {
            span.end();
        }
        ServeResponse {
            request_id: id,
            trace,
            disposition: Disposition::Failed { reason },
        }
    }

    /// Expires overdue queued requests, answering each with
    /// [`Disposition::Expired`].
    pub(crate) fn take_expired(&mut self) -> Vec<ServeResponse> {
        let now_ns = self.clock.now_ns();
        let expired = self.queue.take_expired(now_ns);
        let responses: Vec<ServeResponse> = expired
            .into_iter()
            .map(|p: Pending| {
                self.stats.expired += 1;
                let waited_ns = now_ns.saturating_sub(p.enqueued_ns);
                if let Some(o) = &self.observer {
                    o.tracer().event(
                        "request_expired",
                        &[("request", p.key.into()), ("trace", p.trace.into())],
                    );
                }
                if let Some(ins) = &self.instruments {
                    ins.expired.inc();
                    ins.timeline.record_delta("serve.expired", 1, now_ns);
                    // an expiry always burns error budget, however
                    // briefly the request waited
                    ins.slo.record_outcome(false, now_ns);
                    ins.requests.push(canti_obs::RequestRecord {
                        request: p.key,
                        trace: p.trace,
                        outcome: "expired",
                        batch: None,
                        latency_ns: waited_ns,
                        queue_ns: waited_ns,
                        form_ns: 0,
                        exec_ns: 0,
                        respond_ns: 0,
                        finished_ns: now_ns,
                    });
                }
                if let Some(span) = self.spans.remove(&p.id) {
                    span.end();
                }
                ServeResponse {
                    request_id: p.id,
                    trace: p.trace,
                    disposition: Disposition::Expired {
                        waited_ns,
                        deadline_ns: p.deadline_ns.unwrap_or(now_ns),
                    },
                }
            })
            .collect();
        if !responses.is_empty() {
            self.observe_depth();
        }
        responses
    }

    /// Releases every currently ready batch (size threshold first, then
    /// linger).
    pub(crate) fn form_ready(&mut self) -> Vec<FormedBatch> {
        let now_ns = self.clock.now_ns();
        let batches: Vec<FormedBatch> =
            std::iter::from_fn(|| self.queue.pop_ready(now_ns)).collect();
        if !batches.is_empty() {
            self.observe_depth();
        }
        batches
    }

    /// Stops admission and releases the remaining queue as drain
    /// batches.
    pub(crate) fn begin_drain(&mut self) -> Vec<FormedBatch> {
        let now_ns = self.clock.now_ns();
        self.queue.begin_drain();
        let batches = std::iter::from_fn(|| self.queue.pop_drain(now_ns)).collect();
        self.observe_depth();
        batches
    }

    /// Closes the request spans of completed responses and bumps the
    /// completion tallies (batch metrics themselves are recorded by the
    /// executor).
    pub(crate) fn finish(&mut self, responses: &[ServeResponse]) {
        for r in responses {
            if let Some(span) = self.spans.remove(&r.request_id) {
                span.end();
            }
            if matches!(r.disposition, Disposition::Completed { .. }) {
                self.stats.completed += 1;
            }
        }
        self.stats.batches = self.queue.batches_formed();
    }

    fn observe_depth(&self) {
        if let Some(ins) = &self.instruments {
            let depth = self.queue.depth();
            ins.queue_depth.set(depth as i64);
            // sampled whenever the depth changes; the cadence depends on
            // batch formation, so this series is not shard-invariant
            ins.timeline
                .sample("serve.queue_depth", depth as u64, self.clock.now_ns());
        }
    }
}

/// The single-threaded serving engine: submit requests, then [`pump`]
/// whenever the clock has moved (or a threshold may have been crossed)
/// to expire, batch and execute them.
///
/// This is the deterministic form of the serving layer: given the same
/// [`ServeConfig`] and the same scripted sequence of submissions and
/// clock advances, the batch log, every response payload and the final
/// [`ServeStats`] are bit-identical at any worker count.
///
/// [`pump`]: Self::pump
#[derive(Debug)]
pub struct ServeEngine {
    front: Front,
    /// Shared so a threaded driver can run a batch outside its lock.
    executor: Arc<BatchExecutor>,
    /// Cache hits answered at admission, delivered at the next pump
    /// (pumped admissions only).
    hits: Vec<ServeResponse>,
    /// Every batch formed so far, in formation order (pumped passes
    /// only).
    batch_log: Vec<BatchRecord>,
    failed: bool,
    restarts: u64,
}

impl ServeEngine {
    /// An engine under `config`, timing everything on `clock`.
    #[must_use]
    pub fn new(config: ServeConfig, clock: Arc<dyn ObsClock>) -> Self {
        // one result cache per shard, shared by front (lookups) and
        // executor (inserts)
        let cache = config
            .cache
            .map(|c| Arc::new(std::sync::Mutex::new(crate::cache::ReportCache::new(c))));
        let mut executor = BatchExecutor::new(config.threads, Arc::clone(&clock));
        if let Some(c) = &cache {
            executor = executor.with_report_cache(Arc::clone(c));
        }
        Self {
            front: Front::new(config, clock, None, None, cache),
            executor: Arc::new(executor),
            hits: Vec::new(),
            batch_log: Vec::new(),
            failed: false,
            restarts: 0,
        }
    }

    /// Arms a [`canti_fault::ServeFaultPlan`]: this engine consumes the
    /// plan's slice for `shard`. An empty slice installs nothing at all,
    /// so a default plan is provably identical to no plan.
    #[must_use]
    pub fn with_chaos_plan(mut self, plan: &canti_fault::ServeFaultPlan, shard: usize) -> Self {
        let chaos = canti_fault::ServeChaos::new(plan, shard);
        if !chaos.is_empty() {
            let chaos = Arc::new(std::sync::Mutex::new(chaos));
            self.executor = Arc::new(unshared(self.executor).with_chaos(chaos));
        }
        self
    }

    /// Attaches a farm observer: serve counters/histograms, request and
    /// batch spans, SLO windows, the request log and the farm's own
    /// telemetry all record into it. For coherent timestamps construct
    /// the observer over the same clock the engine was given.
    #[must_use]
    pub fn with_observer(mut self, observer: FarmObserver) -> Self {
        let config = *self.front.queue.config();
        let instruments =
            crate::exec::ServeInstruments::new(&observer, config.slo, config.timeline);
        self.front = Front::new(
            config,
            Arc::clone(&self.front.clock),
            Some(observer.clone()),
            Some(instruments.clone()),
            self.front.cache.clone(), // keep the executor's cache handle
        );
        self.executor = Arc::new(unshared(self.executor).with_instruments(observer, instruments));
        self
    }

    /// Whether the engine's shard has died (executor panic) and awaits
    /// [`Self::resurrect`]. Submissions meanwhile are rejected with
    /// [`RejectReason::ShardFailed`]; pumps are no-ops.
    #[must_use]
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Times the engine was resurrected after a shard failure.
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Rebuilds the dead shard: a fresh executor over a **fresh** worker
    /// pool (same clock, cache, observer, instruments and chaos state),
    /// admission re-opened. Returns `false` when the engine is healthy.
    pub fn resurrect(&mut self) -> bool {
        if !self.failed {
            return false;
        }
        let fresh = self.executor.resurrected();
        drop(self.restart(fresh));
        true
    }

    /// [`Self::resurrect`] onto `fresh`, the dead executor's
    /// [`BatchExecutor::resurrected`] copy, returning the dead executor:
    /// a threaded driver spawns the fresh pool and joins the dead one
    /// outside its lock.
    pub(crate) fn restart(&mut self, fresh: BatchExecutor) -> Arc<BatchExecutor> {
        let dead = std::mem::replace(&mut self.executor, Arc::new(fresh));
        self.front.queue.restore();
        self.failed = false;
        self.restarts += 1;
        if let Some(ins) = self.executor.instruments() {
            ins.shard_restarts.inc();
        }
        if let Some(o) = self.executor.observer() {
            o.tracer()
                .event("shard_recovered", &[("restarts", self.restarts.into())]);
        }
        dead
    }

    /// Submits a request without an explicit deadline (the config
    /// default, if any, applies).
    ///
    /// # Errors
    ///
    /// Rejected with a [`RejectReason`] when the queue is full or the
    /// engine is draining.
    pub fn submit(&mut self, job: JobSpec) -> Result<u64, RejectReason> {
        self.admit(job, None, 0)
    }

    /// Submits a request that expires `deadline_ns` after admission if
    /// still queued.
    ///
    /// # Errors
    ///
    /// Rejected with a [`RejectReason`] when the queue is full or the
    /// engine is draining.
    pub fn submit_with_deadline(
        &mut self,
        job: JobSpec,
        deadline_ns: u64,
    ) -> Result<u64, RejectReason> {
        self.admit(job, Some(deadline_ns), 0)
    }

    /// Submits a request with an explicit brownout priority class:
    /// higher priorities survive shedding longer. [`Self::submit`] uses
    /// priority 0.
    ///
    /// # Errors
    ///
    /// Rejected with a [`RejectReason`] when the queue is full, the
    /// engine is draining, or the shard has failed.
    pub fn submit_prioritized(
        &mut self,
        job: JobSpec,
        deadline_ns: Option<u64>,
        priority: u8,
    ) -> Result<u64, RejectReason> {
        self.admit(job, deadline_ns, priority)
    }

    /// Admits through the front, holding a cache hit's response for the
    /// next pump.
    fn admit(
        &mut self,
        job: JobSpec,
        deadline_ns: Option<u64>,
        priority: u8,
    ) -> Result<u64, RejectReason> {
        let admission = self.front.admit(job, deadline_ns, None, priority)?;
        Ok(self.hold(admission))
    }

    /// Admits through the front under an explicit seed key — the
    /// sharded front passes the global request id, so payloads are
    /// shard-count-invariant. A cache hit comes back answered; the
    /// pumped front then [`hold`](Self::hold)s it for the next pump.
    pub(crate) fn place(
        &mut self,
        job: JobSpec,
        deadline_ns: Option<u64>,
        key: u64,
    ) -> Result<Admission, RejectReason> {
        self.front.admit(job, deadline_ns, Some(key), 0)
    }

    /// The pumped half of an admission: buffers a hit's response for the
    /// next pump and returns the admitted local id.
    pub(crate) fn hold(&mut self, admission: Admission) -> u64 {
        match admission {
            Admission::Queued(id) => id,
            Admission::Hit(response) => {
                let id = response.request_id;
                self.hits.push(response);
                id
            }
        }
    }

    /// The shared instrument set, when observed (for the sharded front's
    /// failover counters).
    pub(crate) fn instruments(&self) -> Option<&crate::exec::ServeInstruments> {
        self.front.instruments()
    }

    /// The executor the next batch runs on: a handle a driver holds
    /// while it executes outside its lock.
    pub(crate) fn executor(&self) -> Arc<BatchExecutor> {
        Arc::clone(&self.executor)
    }

    /// Advances the serving state machine at the current clock reading:
    /// expires overdue requests, sheds over the brownout mark, then
    /// forms and executes every ready batch. Returns all responses
    /// produced — expirations, then shed evictions, then batch
    /// completions in admission order. A failed engine pumps to nothing
    /// until resurrected (its queue was already answered terminally).
    pub fn pump(&mut self) -> Vec<ServeResponse> {
        self.pass(false)
    }

    /// Stops admission and flushes everything still queued as final
    /// batches (expiring overdue requests first). After draining, every
    /// submission is rejected with [`RejectReason::Draining`].
    pub fn drain(&mut self) -> Vec<ServeResponse> {
        self.pass(true)
    }

    fn pass(&mut self, drain: bool) -> Vec<ServeResponse> {
        let mut out = Vec::new();
        let batches = self.form(drain, &mut out);
        out.extend(self.run(batches));
        out
    }

    /// Step 1 of a pass: answers into `out` the cache hits buffered
    /// since the last pump (they were admitted before anything that
    /// follows), then expiries, then — outside a drain — brownout
    /// sheds, and releases the batches now due. `drain` stops admission
    /// and releases everything queued. A failed engine forms nothing:
    /// its queue was already answered terminally.
    pub(crate) fn form(&mut self, drain: bool, out: &mut Vec<ServeResponse>) -> Vec<FormedBatch> {
        if self.failed {
            if drain {
                self.front.queue.begin_drain();
            }
            return Vec::new();
        }
        out.append(&mut self.hits);
        out.extend(self.front.take_expired());
        if drain {
            return self.front.begin_drain();
        }
        out.extend(self.front.take_shed());
        self.front.form_ready()
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

    /// Step 3 of a pass: lands one executed batch. A clean run closes
    /// its members' spans and bumps the tallies. An executor panic (a
    /// chaos kill or a real bug) fails the shard and answers **every**
    /// outstanding request terminally — the batch that died, the batches
    /// formed behind it in `rest`, and everything still queued. No
    /// admitted request is ever left hanging.
    pub(crate) fn land(
        &mut self,
        batch: &FormedBatch,
        ran: std::thread::Result<Vec<ServeResponse>>,
        rest: &mut impl Iterator<Item = FormedBatch>,
    ) -> Vec<ServeResponse> {
        if let Ok(responses) = ran {
            self.front.finish(&responses);
            return responses;
        }
        self.failed = true;
        if let Some(o) = self.executor.observer() {
            o.tracer()
                .event("shard_down", &[("batch", batch.index.into())]);
        }
        let stranded: Vec<FormedBatch> = rest.collect();
        let mut out = Vec::new();
        for p in batch
            .items
            .iter()
            .chain(stranded.iter().flat_map(|b| &b.items))
        {
            out.extend(self.front.fail_pending(p));
        }
        out.extend(self.front.fail_queued());
        self.front.finish(&[]); // keeps `stats.batches` at the batches formed
        out
    }

    /// Fails the shard after its driver panicked outside a batch: drops
    /// the queue and answers every request in `open` — `(local id, key,
    /// enqueued_ns)` of each ticket the driver still holds, queued or in
    /// a batch that never landed.
    pub(crate) fn fail(&mut self, open: &[(u64, u64, u64)]) -> Vec<ServeResponse> {
        self.failed = true;
        self.front.queue.fail();
        self.front.queue.take_all();
        self.front.observe_depth();
        self.front.abandon_open(open)
    }

    /// Requests currently queued.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.front.depth()
    }

    /// Whether the engine has drained and admits nothing new.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.front.queue.is_draining()
    }

    /// The earliest future instant at which queued state can change on
    /// its own (linger or deadline); `None` while the queue is empty.
    #[must_use]
    pub fn next_wakeup_ns(&self) -> Option<u64> {
        self.front.queue.next_wakeup_ns()
    }

    /// The running tallies.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        self.front.stats()
    }

    /// The result cache's counters, when [`ServeConfig::cache`] is set.
    #[must_use]
    pub fn cache_stats(&self) -> Option<crate::cache::CacheStats> {
        self.front.cache_stats()
    }

    /// Every batch formed so far, in formation order.
    #[must_use]
    pub fn batch_log(&self) -> &[BatchRecord] {
        &self.batch_log
    }

    /// The executor's observer, if one was attached.
    #[must_use]
    pub fn observer(&self) -> Option<&FarmObserver> {
        self.executor.observer()
    }

    /// The SLO tracker scoring this engine's requests (present once an
    /// observer is attached).
    #[must_use]
    pub fn slo(&self) -> Option<Arc<canti_obs::SloTracker>> {
        self.front.instruments().map(|i| Arc::clone(&i.slo))
    }

    /// The bounded finished-request log behind `/debug/requests`
    /// (present once an observer is attached).
    #[must_use]
    pub fn request_log(&self) -> Option<Arc<canti_obs::RequestLog>> {
        self.front.instruments().map(|i| Arc::clone(&i.requests))
    }

    /// The per-window timeline recorder behind `/debug/timeline`
    /// (present once an observer is attached).
    #[must_use]
    pub fn timeline(&self) -> Option<Arc<canti_obs::TimelineRecorder>> {
        self.front.instruments().map(|i| Arc::clone(&i.timeline))
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
    use canti_farm::ProbeMode;
    use canti_obs::VirtualClock;

    fn probe(v: f64) -> JobSpec {
        JobSpec::Probe(ProbeMode::Value(v))
    }

    fn engine(clock: &Arc<VirtualClock>, config: ServeConfig) -> ServeEngine {
        ServeEngine::new(config, Arc::clone(clock) as Arc<dyn ObsClock>)
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
        assert_eq!(e.batch_log().len(), 1);
        assert_eq!(e.batch_log()[0].trigger, BatchTrigger::Size);
        assert_eq!(e.batch_log()[0].request_ids, vec![0, 1]);
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
        assert_eq!(e.batch_log()[0].trigger, BatchTrigger::Linger);
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
        assert_eq!(e.batch_log()[0].request_ids, vec![1]);
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
        assert_eq!(e.batch_log()[0].trigger, BatchTrigger::Drain);
        assert!(e.is_draining());
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
        .with_observer(observer);
        e.submit(probe(1.0)).unwrap();
        e.submit(probe(2.0)).unwrap();
        let responses = e.pump();
        assert_eq!(responses.len(), 2);
        let m = e.observer().expect("observer").metrics();
        assert_eq!(m.counter("serve.admitted").get(), 2);
        assert_eq!(m.counter("serve.completed").get(), 2);
        assert_eq!(m.gauge("serve.queue_depth").get(), 0);
        // request spans open at admission and close after the batch
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
        assert_eq!(e.next_wakeup_ns(), None);
        clock.advance_ns(10);
        e.submit_with_deadline(probe(1.0), 400).unwrap();
        assert_eq!(e.next_wakeup_ns(), Some(410), "deadline before linger");
    }
}
