//! The threaded serving front: concurrent submitters, one batcher.
//!
//! [`ServeService`] wraps the same admission/batching core as
//! [`crate::ServeEngine`] behind a mutex and runs a background batcher
//! thread. Submitters get an immediate admit/reject answer plus a
//! [`Ticket`] they can block on (or poll); the batcher forms batches
//! *under* the lock but executes them *outside* it, so admission stays
//! reject-fast while the farm computes.
//!
//! # Failure and revival
//!
//! Every admitted request gets a **terminal** answer — that promise
//! holds even when execution dies underneath it. A batch whose executor
//! panics (a poisoned pool, an armed chaos kill) is caught at the
//! batcher; the service marks itself [`ShardHealth::Down`], answers the
//! doomed batch, every later formed batch and the whole queue with
//! [`crate::Disposition::Failed`] / [`RejectReason::ShardFailed`], and
//! rejects new submissions the same way. [`Ticket::wait`] therefore
//! never hangs on a dead shard. A down service stays down until
//! [`ServeService::revive`] (called by the sharded supervisor after its
//! backoff) swaps in a fresh executor — fresh worker pool, same shared
//! cache, clock and instruments — and reopens admission as
//! [`ShardHealth::Recovering`].

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use canti_farm::{FarmObserver, JobSpec};
use canti_fault::{ServeChaos, ServeFaultPlan};
use canti_obs::{ObsClock, WallClock};

use crate::engine::{Admission, Front, ServeStats};
use crate::exec::BatchExecutor;
use crate::queue::{FormedBatch, RejectReason};
use crate::response::{Disposition, ServeResponse};
use crate::shard::ShardHealth;
use crate::ServeConfig;

/// How long the batcher sleeps when the queue is empty and nothing can
/// change without a new submission (a submission kicks it immediately).
const IDLE_WAIT: Duration = Duration::from_millis(50);

/// A claim on one admitted request's eventual response.
///
/// Fulfilled exactly once — by a cache hit inside `submit`, batch
/// completion, deadline expiry, shard failure, or the drain flush at
/// shutdown. Dropping the ticket discards the response.
#[derive(Debug)]
pub struct Ticket {
    id: u64,
    slot: Arc<Slot>,
}

#[derive(Debug, Default)]
struct Slot {
    response: Mutex<Option<ServeResponse>>,
    ready: Condvar,
}

impl Ticket {
    /// A ticket that already holds its response (a cache hit).
    fn answered(response: ServeResponse) -> Self {
        Self {
            id: response.request_id,
            slot: Arc::new(Slot {
                response: Mutex::new(Some(response)),
                ready: Condvar::new(),
            }),
        }
    }

    /// The request id this ticket redeems.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the response arrives and returns it.
    ///
    /// Every admitted request is answered terminally — completion,
    /// expiry, shard failure, or the shutdown drain — so this cannot
    /// wait forever: a dying batcher fails its outstanding tickets
    /// before the shard goes down.
    #[must_use]
    pub fn wait(self) -> ServeResponse {
        let mut guard = self
            .slot
            .response
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(response) = guard.take() {
                return response;
            }
            guard = self
                .slot
                .ready
                .wait(guard)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Takes the response if it has already arrived, without blocking.
    #[must_use]
    pub fn poll(&self) -> Option<ServeResponse> {
        self.slot
            .response
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
    }
}

/// What the ticket table remembers about an outstanding request — enough
/// to answer it terminally even if its `Pending` was consumed by a batch
/// that died taking the batcher thread with it.
#[derive(Debug)]
struct TicketCell {
    slot: Arc<Slot>,
    key: u64,
    trace: u64,
    enqueued_ns: u64,
}

struct State {
    front: Front,
    tickets: BTreeMap<u64, TicketCell>,
}

struct Shared {
    state: Mutex<State>,
    wake: Condvar,
    executor: Mutex<BatchExecutor>,
    clock: Arc<dyn ObsClock>,
    stop: AtomicBool,
    health: AtomicU8,
    restarts: AtomicU64,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn executor(&self) -> MutexGuard<'_, BatchExecutor> {
        self.executor
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn health(&self) -> ShardHealth {
        ShardHealth::from_u8(self.health.load(Ordering::SeqCst))
    }

    /// One clean batch moves the health ladder one rung:
    /// `Recovering → Degraded → Healthy`.
    fn promote_health(&self) {
        let next = match self.health() {
            ShardHealth::Recovering => ShardHealth::Degraded,
            ShardHealth::Degraded => ShardHealth::Healthy,
            other => other,
        };
        self.health.store(next.as_u8(), Ordering::SeqCst);
    }

    fn fulfil(state: &mut State, responses: Vec<ServeResponse>) {
        for response in responses {
            if let Some(cell) = state.tickets.remove(&response.request_id) {
                *cell
                    .slot
                    .response
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(response);
                cell.slot.ready.notify_all();
            }
        }
    }
}

/// The multi-threaded serving service.
///
/// ```
/// use canti_farm::{JobSpec, ProbeMode};
/// use canti_serve::{ServeConfig, ServeService};
///
/// let service = ServeService::start(ServeConfig {
///     max_batch: 2,
///     linger_ns: 1_000, // 1 µs: fire quickly even for a lone request
///     threads: 1,
///     ..ServeConfig::default()
/// });
/// let ticket = service.submit(JobSpec::Probe(ProbeMode::Value(1.0))).unwrap();
/// let response = ticket.wait();
/// assert!(response.disposition.is_ok());
/// let stats = service.shutdown();
/// assert_eq!(stats.completed, 1);
/// ```
pub struct ServeService {
    shared: Arc<Shared>,
    batcher: Mutex<Option<JoinHandle<()>>>,
}

impl ServeService {
    /// Starts a service on the wall clock with no observer.
    #[must_use]
    pub fn start(config: ServeConfig) -> Self {
        Self::start_with(config, Arc::new(WallClock::new()), None, None)
    }

    /// Starts a service recording serve metrics, spans and farm
    /// telemetry into `observer`, timed on the observer's own clock.
    #[must_use]
    pub fn start_observed(config: ServeConfig, observer: FarmObserver) -> Self {
        let clock = Arc::clone(observer.clock());
        Self::start_with(config, clock, Some(observer), None)
    }

    /// [`Self::start_observed`] with this shard's slice of a serve fault
    /// plan armed on the executor.
    pub(crate) fn start_chaos(
        config: ServeConfig,
        observer: FarmObserver,
        plan: &ServeFaultPlan,
        shard: usize,
    ) -> Self {
        let clock = Arc::clone(observer.clock());
        Self::start_with(config, clock, Some(observer), Some((plan, shard)))
    }

    fn start_with(
        config: ServeConfig,
        clock: Arc<dyn ObsClock>,
        observer: Option<FarmObserver>,
        chaos: Option<(&ServeFaultPlan, usize)>,
    ) -> Self {
        let mut executor = BatchExecutor::new(config.threads, Arc::clone(&clock));
        // one result cache shared by front (lookups) and executor
        // (inserts); revive keeps it — resurrected() clones the handle
        let cache = config
            .cache
            .map(|c| Arc::new(Mutex::new(crate::cache::ReportCache::new(c))));
        if let Some(c) = &cache {
            executor = executor.with_report_cache(Arc::clone(c));
        }
        // one instrument set shared between front and executor: SLO
        // windows and the request log must see both halves of a request
        let instruments = observer
            .as_ref()
            .map(|o| crate::exec::ServeInstruments::new(o, config.slo, config.timeline));
        if let Some(o) = &observer {
            executor = executor.with_instruments(
                o.clone(),
                instruments.clone().expect("built above with the observer"),
            );
        }
        if let Some((plan, shard)) = chaos {
            let injector = ServeChaos::new(plan, shard);
            if !injector.is_empty() {
                executor = executor.with_chaos(Arc::new(Mutex::new(injector)));
            }
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                front: Front::new(config, Arc::clone(&clock), observer, instruments, cache),
                tickets: BTreeMap::new(),
            }),
            wake: Condvar::new(),
            executor: Mutex::new(executor),
            clock,
            stop: AtomicBool::new(false),
            health: AtomicU8::new(ShardHealth::Healthy.as_u8()),
            restarts: AtomicU64::new(0),
        });
        let batcher = spawn_batcher(Arc::clone(&shared));
        Self {
            shared,
            batcher: Mutex::new(Some(batcher)),
        }
    }

    /// Submits a request (config default deadline, if any, applies) and
    /// returns its ticket.
    ///
    /// # Errors
    ///
    /// Rejected immediately with a [`RejectReason`] when the queue is
    /// full, the shard is down, or the service is shutting down.
    pub fn submit(&self, job: JobSpec) -> Result<Ticket, RejectReason> {
        self.admit(job, None, None)
    }

    /// Submits a request that expires `deadline_ns` after admission if
    /// still queued.
    ///
    /// # Errors
    ///
    /// Rejected immediately with a [`RejectReason`] when the queue is
    /// full, the shard is down, or the service is shutting down.
    pub fn submit_with_deadline(
        &self,
        job: JobSpec,
        deadline_ns: u64,
    ) -> Result<Ticket, RejectReason> {
        self.admit(job, Some(deadline_ns), None)
    }

    /// Submission with an explicit seed key: the sharded front passes
    /// the global request id so payloads are shard-count-invariant.
    pub(crate) fn submit_keyed(
        &self,
        job: JobSpec,
        deadline_ns: Option<u64>,
        key: u64,
    ) -> Result<Ticket, RejectReason> {
        self.admit(job, deadline_ns, Some(key))
    }

    fn admit(
        &self,
        job: JobSpec,
        deadline_ns: Option<u64>,
        key: Option<u64>,
    ) -> Result<Ticket, RejectReason> {
        let ticket = {
            let mut state = self.shared.lock();
            let id = match state.front.admit(job, deadline_ns, key, 0)? {
                Admission::Queued(id) => id,
                // a hit changes no queue state: its ticket holds the
                // answer, with no table entry and no batcher wake-up
                Admission::Hit(response) => return Ok(Ticket::answered(response)),
            };
            let slot = Arc::new(Slot::default());
            let seed_key = key.unwrap_or(id);
            state.tickets.insert(
                id,
                TicketCell {
                    slot: Arc::clone(&slot),
                    key: seed_key,
                    trace: canti_obs::TraceContext::from_admission(seed_key).trace,
                    enqueued_ns: self.shared.clock.now_ns(),
                },
            );
            Ticket { id, slot }
        };
        self.shared.wake.notify_all();
        Ok(ticket)
    }

    /// Requests currently queued (admitted, not yet batched or expired).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared.lock().front.depth()
    }

    /// The running serve tallies.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        self.shared.lock().front.stats()
    }

    /// The result cache's counters, when [`ServeConfig::cache`] is set.
    #[must_use]
    pub fn cache_stats(&self) -> Option<crate::cache::CacheStats> {
        self.shared.lock().front.cache_stats()
    }

    /// This shard's current health. `Down` means the executor died and
    /// the service is refusing work until [`Self::revive`].
    #[must_use]
    pub fn health(&self) -> ShardHealth {
        self.shared.health()
    }

    /// Whether the shard is down (dead executor, refusing work).
    #[must_use]
    pub fn is_down(&self) -> bool {
        !self.health().is_live()
    }

    /// Times the executor was replaced by [`Self::revive`].
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.shared.restarts.load(Ordering::SeqCst)
    }

    /// Brings a `Down` shard back: swaps in a fresh executor (new worker
    /// pool; same shared cache, clock, observer and instruments), reopens
    /// admission and moves health to `Recovering`. Also respawns the
    /// batcher thread in the unlikely case the thread itself died (the
    /// normal executor-panic path keeps it alive). Returns `false` when
    /// the shard was not down.
    pub fn revive(&self) -> bool {
        if self
            .shared
            .health
            .compare_exchange(
                ShardHealth::Down.as_u8(),
                ShardHealth::Recovering.as_u8(),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_err()
        {
            return false;
        }
        let restarts = self.shared.restarts.fetch_add(1, Ordering::SeqCst) + 1;
        {
            let mut executor = self.shared.executor();
            let fresh = executor.resurrected();
            *executor = fresh;
            if let Some(ins) = executor.instruments() {
                ins.shard_restarts.inc();
            }
            if let Some(o) = executor.observer() {
                o.tracer()
                    .event("shard_recovered", &[("restarts", restarts.into())]);
            }
        }
        self.shared.lock().front.mark_recovered();
        {
            let mut batcher = self
                .batcher
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if batcher.as_ref().is_some_and(JoinHandle::is_finished) {
                if let Some(dead) = batcher.take() {
                    let _ = dead.join();
                }
                *batcher = Some(spawn_batcher(Arc::clone(&self.shared)));
            }
        }
        self.shared.wake.notify_all();
        true
    }

    /// Records a request failed over *to* this shard (counter + trace
    /// event on this shard's observer).
    pub(crate) fn note_failover(&self, request_id: u64, from_shard: usize) {
        {
            let state = self.shared.lock();
            if let Some(ins) = state.front.instruments() {
                ins.failovers.inc();
            }
        }
        let executor = self.shared.executor();
        if let Some(o) = executor.observer() {
            o.tracer().event(
                "failover",
                &[("request", request_id.into()), ("from", from_shard.into())],
            );
        }
    }

    /// The attached observer, if the service was started observed.
    #[must_use]
    pub fn observer(&self) -> Option<FarmObserver> {
        self.shared.executor().observer().cloned()
    }

    /// The SLO tracker scoring this service's requests (present when
    /// started observed).
    #[must_use]
    pub fn slo(&self) -> Option<Arc<canti_obs::SloTracker>> {
        self.shared
            .lock()
            .front
            .instruments()
            .map(|i| Arc::clone(&i.slo))
    }

    /// The bounded finished-request log behind `/debug/requests`
    /// (present when started observed).
    #[must_use]
    pub fn request_log(&self) -> Option<Arc<canti_obs::RequestLog>> {
        self.shared
            .lock()
            .front
            .instruments()
            .map(|i| Arc::clone(&i.requests))
    }

    /// The per-window timeline recorder behind `/debug/timeline`
    /// (present when started observed).
    #[must_use]
    pub fn timeline(&self) -> Option<Arc<canti_obs::TimelineRecorder>> {
        self.shared
            .lock()
            .front
            .instruments()
            .map(|i| Arc::clone(&i.timeline))
    }

    /// The worker threads the executor's persistent pool actually runs.
    #[must_use]
    pub fn pool_threads(&self) -> usize {
        self.shared.executor().pool_threads()
    }

    /// Graceful shutdown: stop admitting (later submissions get
    /// [`RejectReason::Draining`]), flush everything still queued as
    /// final batches, fulfil every outstanding ticket, join the batcher
    /// and return the final tallies.
    #[must_use = "the drain summary reports what the service did"]
    pub fn shutdown(self) -> ServeStats {
        self.shutdown_ref()
    }

    /// [`Self::shutdown`] through a shared reference, for fronts that
    /// hold the service in an [`Arc`] (idempotent: later calls just
    /// return the tallies).
    pub(crate) fn shutdown_ref(&self) -> ServeStats {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.wake.notify_all();
        let handle = self
            .batcher
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
        self.shared.lock().front.stats()
    }
}

impl Drop for ServeService {
    fn drop(&mut self) {
        let running = self
            .batcher
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .is_some();
        if running {
            let _ = self.shutdown_ref();
        }
    }
}

impl std::fmt::Debug for ServeService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeService")
            .field("health", &self.health())
            .field("queue_depth", &self.queue_depth())
            .field("stats", &self.stats())
            .finish()
    }
}

fn spawn_batcher(shared: Arc<Shared>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("canti-serve-batcher".into())
        .spawn(move || {
            if catch_unwind(AssertUnwindSafe(|| batcher_loop(&shared))).is_err() {
                // Safety net for panics outside batch execution (those
                // are caught per-batch in run_formed): mark the shard
                // down and answer every outstanding ticket terminally so
                // no waiter hangs on the dead thread.
                shared
                    .health
                    .store(ShardHealth::Down.as_u8(), Ordering::SeqCst);
                let mut state = shared.lock();
                let responses = state.front.fail_queued();
                Shared::fulfil(&mut state, responses);
                let known: Vec<(u64, u64, u64, u64)> = state
                    .tickets
                    .iter()
                    .map(|(&id, c)| (id, c.key, c.trace, c.enqueued_ns))
                    .collect();
                let responses = state.front.fail_inflight(&known);
                Shared::fulfil(&mut state, responses);
            }
        })
        .expect("spawn batcher thread")
}

/// One batcher pass: expire, shed and form under the lock, execute each
/// formed batch outside it, fulfil tickets back under the lock. Returns
/// whether anything happened.
fn pump_once(shared: &Shared) -> bool {
    let (worked, batches) = {
        let mut state = shared.lock();
        let expired = state.front.take_expired();
        let shed = state.front.take_shed();
        let worked = !expired.is_empty() || !shed.is_empty();
        Shared::fulfil(&mut state, expired);
        Shared::fulfil(&mut state, shed);
        (worked, state.front.form_ready())
    };
    run_formed(shared, batches) || worked
}

/// Executes formed batches in order, fulfilling tickets after each. An
/// executor panic (poisoned pool, chaos kill) marks the shard `Down` and
/// answers the doomed batch's members, every later formed batch and the
/// whole queue with [`RejectReason::ShardFailed`] — terminally, so no
/// ticket is left hanging. Returns whether any batch ran.
fn run_formed(shared: &Shared, batches: Vec<FormedBatch>) -> bool {
    let mut worked = false;
    let mut batches = batches.into_iter();
    while let Some(batch) = batches.next() {
        worked = true;
        let members = batch.items.clone();
        let index = batch.index;
        let result = {
            let executor = shared.executor();
            catch_unwind(AssertUnwindSafe(|| executor.execute(batch)))
        };
        match result {
            Ok(responses) => {
                let clean = responses
                    .iter()
                    .any(|r| matches!(r.disposition, Disposition::Completed { .. }));
                if clean {
                    // promote before fulfilment so a waiter that wakes on
                    // its ticket already sees the stepped-up health
                    shared.promote_health();
                }
                let mut state = shared.lock();
                state.front.finish(&responses);
                Shared::fulfil(&mut state, responses);
            }
            Err(_) => {
                shared
                    .health
                    .store(ShardHealth::Down.as_u8(), Ordering::SeqCst);
                {
                    let executor = shared.executor();
                    if let Some(o) = executor.observer() {
                        o.tracer().event("shard_down", &[("batch", index.into())]);
                    }
                }
                let mut state = shared.lock();
                let mut responses: Vec<ServeResponse> = members
                    .iter()
                    .flat_map(|p| state.front.fail_pending(p))
                    .collect();
                for stranded in batches.by_ref() {
                    for p in &stranded.items {
                        responses.extend(state.front.fail_pending(p));
                    }
                }
                responses.extend(state.front.fail_queued());
                Shared::fulfil(&mut state, responses);
                break;
            }
        }
    }
    worked
}

fn batcher_loop(shared: &Shared) {
    loop {
        let worked = pump_once(shared);
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        if worked {
            continue; // more may already be ready
        }
        let state = shared.lock();
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let _unused = shared.wake.wait_timeout(state, IDLE_WAIT);
    }
    // Drain: stop admission, flush the remainder, answer every ticket.
    // (A down shard already answered everything; its drain is empty.)
    let batches = {
        let mut state = shared.lock();
        let expired = state.front.take_expired();
        Shared::fulfil(&mut state, expired);
        state.front.begin_drain()
    };
    let _ = run_formed(shared, batches);
}

#[cfg(test)]
mod tests {
    use super::*;
    use canti_farm::ProbeMode;

    fn probe(v: f64) -> JobSpec {
        JobSpec::Probe(ProbeMode::Value(v))
    }

    #[test]
    fn tickets_resolve_for_size_triggered_batches() {
        let service = ServeService::start(ServeConfig {
            max_batch: 4,
            linger_ns: 1_000_000_000, // 1 s: only size can fire
            threads: 2,
            ..ServeConfig::default()
        });
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| service.submit(probe(f64::from(i))).expect("admitted"))
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let r = t.wait();
            assert_eq!(r.request_id, i as u64);
            assert!(r.disposition.is_ok(), "request {i}: {r}");
        }
        assert_eq!(service.health(), ShardHealth::Healthy);
        let stats = service.shutdown();
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.batches, 1);
    }

    #[test]
    fn full_queue_rejects_fast() {
        // Huge linger + threshold so nothing drains the queue.
        let service = ServeService::start(ServeConfig {
            queue_capacity: 2,
            max_batch: 64,
            linger_ns: u64::MAX,
            threads: 1,
            ..ServeConfig::default()
        });
        let a = service.submit(probe(1.0)).expect("first admitted");
        let b = service.submit(probe(2.0)).expect("second admitted");
        assert_eq!(
            service.submit(probe(3.0)).map(|t| t.id()),
            Err(RejectReason::QueueFull { capacity: 2 })
        );
        assert_eq!(service.queue_depth(), 2);
        // Shutdown drains the two queued requests and answers them.
        let stats = service.shutdown();
        assert!(a.wait().disposition.is_ok());
        assert!(b.wait().disposition.is_ok());
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn expired_requests_get_expiry_responses() {
        let service = ServeService::start(ServeConfig {
            max_batch: 64,
            linger_ns: u64::MAX, // batches can never fire...
            threads: 1,
            ..ServeConfig::default()
        });
        // ...so a 1 ns deadline must expire the request instead.
        let ticket = service
            .submit_with_deadline(probe(1.0), 1)
            .expect("admitted");
        let response = ticket.wait();
        match response.disposition {
            Disposition::Expired { .. } => {}
            other => panic!("expected expiry, got {other:?}"),
        }
        let stats = service.shutdown();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.completed, 0);
    }

    #[test]
    fn shutdown_drains_outstanding_requests() {
        let service = ServeService::start(ServeConfig {
            max_batch: 64,
            linger_ns: u64::MAX,
            threads: 2,
            ..ServeConfig::default()
        });
        let tickets: Vec<Ticket> = (0..5)
            .map(|i| service.submit(probe(f64::from(i))).expect("admitted"))
            .collect();
        let stats = service.shutdown();
        assert_eq!(stats.admitted, 5);
        assert_eq!(stats.completed, 5, "drain answered everything");
        for t in tickets {
            let r = t.poll().expect("fulfilled before shutdown returned");
            assert!(r.disposition.is_ok());
        }
    }

    #[test]
    fn observed_service_counts_through_the_shared_registry() {
        let (observer, _ring) = FarmObserver::profiling(4096);
        let service = ServeService::start_observed(
            ServeConfig {
                max_batch: 3,
                linger_ns: 1_000_000_000,
                threads: 1,
                ..ServeConfig::default()
            },
            observer,
        );
        let tickets: Vec<Ticket> = (0..3)
            .map(|i| service.submit(probe(f64::from(i))).expect("admitted"))
            .collect();
        for t in tickets {
            assert!(t.wait().disposition.is_ok());
        }
        let observer = service.observer().expect("observer");
        let m = observer.metrics();
        assert_eq!(m.counter("serve.admitted").get(), 3);
        assert_eq!(m.counter("serve.completed").get(), 3);
        let _ = service.shutdown();
    }

    #[test]
    fn drop_performs_shutdown() {
        let service = ServeService::start(ServeConfig {
            max_batch: 64,
            linger_ns: u64::MAX,
            threads: 1,
            ..ServeConfig::default()
        });
        let ticket = service.submit(probe(1.0)).expect("admitted");
        drop(service); // must drain, not leak the batcher or the ticket
        assert!(ticket.wait().disposition.is_ok());
    }

    #[test]
    fn executor_panic_answers_every_ticket_terminally() {
        // A chaos plan that kills this shard on its first batch: the
        // executor panics under the batch, and *every* waiter — batch
        // members and still-queued requests alike — must get a terminal
        // Failed answer, never a hang.
        let (observer, _ring) = FarmObserver::profiling(4096);
        let plan = ServeFaultPlan::kill_shard(0, 0);
        let service = ServeService::start_chaos(
            ServeConfig {
                max_batch: 2,
                linger_ns: u64::MAX, // only size fires: 2 ride, 1 queues
                threads: 1,
                ..ServeConfig::default()
            },
            observer,
            &plan,
            0,
        );
        let tickets: Vec<Ticket> = (0..3)
            .map(|i| service.submit(probe(f64::from(i))).expect("admitted"))
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let r = t.wait();
            match r.disposition {
                Disposition::Failed {
                    reason: RejectReason::ShardFailed,
                } => {}
                other => panic!("request {i}: expected ShardFailed, got {other:?}"),
            }
        }
        assert_eq!(service.health(), ShardHealth::Down);
        assert!(service.is_down());
        // a down shard refuses new work with the same terminal reason
        assert_eq!(
            service.submit(probe(9.0)).map(|t| t.id()),
            Err(RejectReason::ShardFailed)
        );
        let stats = service.shutdown();
        assert_eq!(stats.admitted, 3);
        assert_eq!(stats.failed, 3);
        assert_eq!(stats.completed, 0);
    }

    #[test]
    fn a_hit_skips_the_ticket_table_and_a_down_shard_refuses_before_lookup() {
        let (observer, _ring) = FarmObserver::profiling(4096);
        let service = ServeService::start_chaos(
            ServeConfig {
                max_batch: 1,
                linger_ns: u64::MAX,
                threads: 1,
                cache: Some(crate::CacheConfig::default()),
                ..ServeConfig::default()
            },
            observer,
            &ServeFaultPlan::kill_shard(0, 1),
            0,
        );
        let cold = service.submit(probe(1.0)).expect("admitted").wait();
        assert!(cold.disposition.is_ok());
        let hit = service.submit(probe(1.0)).expect("admitted");
        assert!(matches!(
            hit.poll().map(|r| r.disposition),
            Some(Disposition::CacheHit { .. })
        ));
        assert!(
            service.shared.lock().tickets.is_empty(),
            "a hit makes no ticket-table entry"
        );
        // the next distinct spec rides batch 1, which the plan kills
        let doomed = service.submit(probe(2.0)).expect("admitted").wait();
        assert_eq!(
            doomed.disposition,
            Disposition::Failed {
                reason: RejectReason::ShardFailed
            }
        );
        let lookups = || service.cache_stats().map(|c| c.hits + c.misses);
        let before = lookups();
        assert_eq!(
            service.submit(probe(1.0)).map(|t| t.id()),
            Err(RejectReason::ShardFailed)
        );
        assert_eq!(lookups(), before, "refused before any lookup");
        let _ = service.shutdown();
    }

    #[test]
    fn revive_brings_a_down_shard_back() {
        let (observer, _ring) = FarmObserver::profiling(4096);
        let plan = ServeFaultPlan::kill_shard(0, 0);
        let service = ServeService::start_chaos(
            ServeConfig {
                max_batch: 1,
                linger_ns: u64::MAX,
                threads: 1,
                ..ServeConfig::default()
            },
            observer,
            &plan,
            0,
        );
        let doomed = service.submit(probe(1.0)).expect("admitted");
        assert!(matches!(
            doomed.wait().disposition,
            Disposition::Failed { .. }
        ));
        assert_eq!(service.health(), ShardHealth::Down);

        assert!(service.revive(), "down shard revives");
        assert!(!service.revive(), "second revive is a no-op");
        assert_eq!(service.health(), ShardHealth::Recovering);
        assert_eq!(service.restarts(), 1);

        // the revived shard serves again (the kill event already fired)
        let ticket = service.submit(probe(2.0)).expect("readmitted");
        assert!(ticket.wait().disposition.is_ok());
        assert!(
            matches!(
                service.health(),
                ShardHealth::Degraded | ShardHealth::Healthy
            ),
            "clean batches walk the ladder up, got {:?}",
            service.health()
        );
        let observer = service.observer().expect("observer");
        assert_eq!(observer.metrics().counter("serve.shard_restarts").get(), 1);
        let stats = service.shutdown();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
    }
}
