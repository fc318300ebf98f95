//! The threaded driver: [`ShardedService`] runs the [`ShardedEngine`]
//! state machine on the wall clock for concurrent callers.
//!
//! One mutex holds the engine and the ticket table, so routing,
//! failover and each shard's liveness record — its engine's restart
//! instant — change together. A submission takes that lock once: the
//! engine routes, fails over and admits it, and the caller gets a
//! [`ShardTicket`] — already answered when the result cache hit. Each
//! shard has one batcher thread with its own [`Condvar`], which runs
//! the engine's shard pass in its three steps: form under the lock,
//! execute with the lock released (so admission stays reject-fast while
//! the farm computes), land back under the lock, where the answered
//! requests' tickets are fulfilled.
//!
//! # Failure and restart
//!
//! Every admitted request gets a **terminal** answer. A batch whose
//! executor panics (an armed chaos kill, a job panic the pool re-raised)
//! lands through the engine's failure path: the shard goes
//! [`ShardHealth::Down`] until its backoff elapses, and the doomed
//! batch, the batches formed behind it and the whole queue are answered
//! [`crate::Disposition::Failed`]. A `Down` shard's batcher sleeps until
//! its engine's restart instant, and its next pass restarts the shard in
//! place, under the pass's lock: the shard keeps its executor and worker
//! pool, whose workers all outlive the failure. A panic outside
//! `execute` fails the shard the same way and answers every ticket it
//! held, so [`ShardTicket::wait`] never hangs on a dead shard.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use canti_farm::{FarmObserver, JobSpec};
use canti_fault::ServeFaultPlan;
use canti_obs::{ObsClock, WallClock};

use crate::engine::{Admission, ServeStats};
use crate::queue::{FormedBatch, RejectReason};
use crate::response::ServeResponse;
use crate::shard::{ShardHealth, ShardedConfig, ShardedEngine, SupervisorConfig};

/// How long a batcher sleeps after a pass that changed nothing (a
/// submission to its shard wakes it at once).
const IDLE_WAIT: Duration = Duration::from_millis(50);

/// A claim on one request's response, under its global id.
///
/// Fulfilled exactly once — by a cache hit inside `submit`, batch
/// completion, deadline expiry, shard failure, or the drain at
/// shutdown. Dropping the ticket discards the response.
#[derive(Debug)]
pub struct ShardTicket {
    id: u64,
    shard: usize,
    slot: Held,
}

/// Where a ticket's response lands.
#[derive(Debug)]
enum Held {
    /// A cache hit's answer, ready when `submit` returns: the ticket
    /// holds it, and nothing else ever touches it.
    Ready(Slot),
    /// Shared with the ticket table until a batcher answers.
    Open(Arc<Slot>),
}

#[derive(Debug, Default)]
struct Slot {
    response: Mutex<Option<ServeResponse>>,
    ready: Condvar,
}

impl ShardTicket {
    /// The global request id this ticket redeems.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The shard serving this request (after failover, when it applied).
    #[must_use]
    pub fn shard(&self) -> usize {
        self.shard
    }

    fn slot(&self) -> &Slot {
        match &self.slot {
            Held::Ready(slot) => slot,
            Held::Open(slot) => slot,
        }
    }

    /// Blocks until the response arrives and returns it. Always
    /// terminal: if the serving shard dies, the response is
    /// [`crate::Disposition::Failed`] — never a hang.
    #[must_use]
    pub fn wait(self) -> ServeResponse {
        let slot = self.slot();
        let mut guard = slot.response.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(response) = guard.take() {
                return response;
            }
            guard = slot
                .ready
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Takes the response if it has already arrived, without blocking.
    #[must_use]
    pub fn poll(&self) -> Option<ServeResponse> {
        self.slot()
            .response
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }
}

/// An open ticket as the table remembers it: enough to answer it
/// terminally even when its batch never lands.
#[derive(Debug)]
struct Open {
    admitted_ns: u64,
    slot: Arc<Slot>,
}

#[derive(Debug)]
struct State {
    engine: ShardedEngine,
    /// Open tickets by (shard, request id).
    tickets: BTreeMap<(usize, u64), Open>,
    stopping: bool,
}

impl State {
    /// Fulfils the tickets of `shard`'s answered requests.
    fn deliver(&mut self, shard: usize, responses: Vec<ServeResponse>) {
        for response in responses {
            if let Some(open) = self.tickets.remove(&(shard, response.request_id)) {
                *open
                    .slot
                    .response
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner) = Some(response);
                open.slot.ready.notify_all();
            }
        }
    }
}

#[derive(Debug)]
struct Driver {
    state: Mutex<State>,
    /// Per shard: wakes that shard's batcher.
    wake: Vec<Condvar>,
    clock: Arc<dyn ObsClock>,
}

impl Driver {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One shard's batcher: pass after pass until shutdown; the last
    /// pass drains, stopping admission and answering every ticket left.
    fn serve(&self, shard: usize) {
        loop {
            let mut state = self.lock();
            let drain = state.stopping;
            let mut answered = Vec::new();
            let batches = state.engine.shard_mut(shard).form(drain, &mut answered);
            let idle = answered.is_empty() && batches.is_empty();
            state.deliver(shard, answered);
            if !batches.is_empty() {
                self.run(shard, state, batches);
            } else if idle && !drain {
                // waits under the pass's own lock, so no wake-up is
                // lost; a Down shard sleeps until its restart falls due
                let wait = state
                    .engine
                    .shard(shard)
                    .next_restart_ns()
                    .map_or(IDLE_WAIT, |due| {
                        Duration::from_nanos(due.saturating_sub(self.clock.now_ns()))
                    });
                drop(self.wake[shard].wait_timeout(state, wait));
            }
            if drain {
                return;
            }
        }
    }

    /// Steps 2 and 3 of a pass: executes each formed batch with the lock
    /// released and lands it back under the lock. The pass ends
    /// unlocked: callers whose tickets just landed can submit before the
    /// next pass forms.
    fn run<'a>(
        &'a self,
        shard: usize,
        mut state: MutexGuard<'a, State>,
        batches: Vec<FormedBatch>,
    ) {
        let executor = state.engine.shard(shard).executor();
        let mut batches = batches.into_iter();
        while let Some(batch) = batches.next() {
            drop(state);
            let ran = executor.try_execute(&batch);
            state = self.lock();
            let answered = state
                .engine
                .shard_mut(shard)
                .land(&batch, ran, &mut batches);
            state.deliver(shard, answered);
        }
    }

    /// The safety net for a batcher that panicked outside `execute`
    /// (those panics land through the engine): fails its shard and
    /// answers every ticket the shard still held.
    fn fail(&self, shard: usize) {
        let mut state = self.lock();
        let open: Vec<(u64, u64)> = state
            .tickets
            .range((shard, 0)..(shard + 1, 0))
            .map(|(&(_, id), o)| (id, o.admitted_ns))
            .collect();
        let answered = state.engine.fail_shard(shard, &open);
        state.deliver(shard, answered);
    }
}

/// The threaded serving layer: a [`ShardedEngine`] behind one lock,
/// one batcher thread per shard, and blocking [`ShardTicket`]s for
/// concurrent callers.
///
/// ```
/// use canti_farm::{JobSpec, ProbeMode};
/// use canti_serve::{ServeConfig, ShardedConfig, ShardedService};
///
/// let service = ShardedService::start(ShardedConfig {
///     shards: 1,
///     base: ServeConfig {
///         max_batch: 2,
///         linger_ns: 1_000, // 1 µs: fire quickly even for a lone request
///         threads: 1,
///         ..ServeConfig::default()
///     },
/// });
/// let ticket = service.submit(JobSpec::Probe(ProbeMode::Value(1.0))).unwrap();
/// assert!(ticket.wait().disposition.is_ok());
/// let per_shard = service.shutdown();
/// assert_eq!(per_shard[0].completed, 1);
/// ```
#[derive(Debug)]
pub struct ShardedService {
    driver: Arc<Driver>,
    batchers: Vec<JoinHandle<()>>,
}

impl ShardedService {
    /// Starts `config.shard_count()` shards on one wall clock.
    #[must_use]
    pub fn start(config: ShardedConfig) -> Self {
        Self::start_with(
            config,
            None,
            &ServeFaultPlan::default(),
            SupervisorConfig::default(),
        )
    }

    /// Starts one observed shard per observer, every shard timed on the
    /// first observer's clock (construct the observers over one shared
    /// clock for coherent timestamps).
    ///
    /// # Panics
    ///
    /// Panics unless `observers.len()` equals the shard count.
    #[must_use]
    pub fn start_observed(config: ShardedConfig, observers: Vec<FarmObserver>) -> Self {
        Self::start_with(
            config,
            Some(observers),
            &ServeFaultPlan::default(),
            SupervisorConfig::default(),
        )
    }

    /// [`Self::start_observed`] with a serve fault plan armed and an
    /// explicit restart policy — the chaos entry point.
    ///
    /// # Panics
    ///
    /// Panics unless `observers.len()` equals the shard count.
    #[must_use]
    pub fn start_chaos(
        config: ShardedConfig,
        observers: Vec<FarmObserver>,
        plan: &ServeFaultPlan,
        supervision: SupervisorConfig,
    ) -> Self {
        Self::start_with(config, Some(observers), plan, supervision)
    }

    fn start_with(
        config: ShardedConfig,
        observers: Option<Vec<FarmObserver>>,
        plan: &ServeFaultPlan,
        supervision: SupervisorConfig,
    ) -> Self {
        let clock: Arc<dyn ObsClock> = match observers.as_ref().and_then(|o| o.first()) {
            Some(first) => Arc::clone(first.clock()),
            None => Arc::new(WallClock::new()),
        };
        let mut engine = ShardedEngine::new(config, Arc::clone(&clock))
            .with_supervisor(supervision)
            .with_chaos_plan(plan);
        if let Some(observers) = observers {
            engine = engine.with_observers(observers);
        }
        let shards = engine.shard_count();
        let driver = Arc::new(Driver {
            state: Mutex::new(State {
                engine,
                tickets: BTreeMap::new(),
                stopping: false,
            }),
            wake: (0..shards).map(|_| Condvar::new()).collect(),
            clock,
        });
        let batchers = (0..shards)
            .map(|shard| spawn_batcher(Arc::clone(&driver), shard))
            .collect();
        Self { driver, batchers }
    }

    /// The shard count.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.driver.wake.len()
    }

    /// Submits a request, routed by the global id rule (with failover
    /// when the primary shard is down).
    ///
    /// # Errors
    ///
    /// Rejected immediately with the target shard's [`RejectReason`];
    /// [`RejectReason::ShardFailed`] when no live shard remains.
    pub fn submit(&self, job: JobSpec) -> Result<ShardTicket, RejectReason> {
        self.admit(job, None)
    }

    /// Submits a request that expires `deadline_ns` after admission.
    ///
    /// # Errors
    ///
    /// Rejected immediately with the target shard's [`RejectReason`].
    pub fn submit_with_deadline(
        &self,
        job: JobSpec,
        deadline_ns: u64,
    ) -> Result<ShardTicket, RejectReason> {
        self.admit(job, Some(deadline_ns))
    }

    fn admit(&self, job: JobSpec, deadline_ns: Option<u64>) -> Result<ShardTicket, RejectReason> {
        let mut state = self.driver.lock();
        let (shard, id, admission) = state.engine.admit(job, deadline_ns)?;
        let slot = match admission {
            // a hit changes no queue state: its ticket holds the answer
            // itself, with no shared slot, no table entry and no batcher
            // wake-up
            Admission::Hit(response) => {
                drop(state);
                Held::Ready(Slot {
                    response: Mutex::new(Some(response)),
                    ready: Condvar::new(),
                })
            }
            Admission::Queued { admitted_ns } => {
                let slot = Arc::new(Slot::default());
                let open = Open {
                    admitted_ns,
                    slot: Arc::clone(&slot),
                };
                state.tickets.insert((shard, id), open);
                drop(state);
                self.driver.wake[shard].notify_one();
                Held::Open(slot)
            }
        };
        Ok(ShardTicket { id, shard, slot })
    }

    fn read<T>(&self, view: impl FnOnce(&ShardedEngine) -> T) -> T {
        view(&self.driver.lock().engine)
    }

    /// Total requests queued across all shards.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.read(ShardedEngine::queue_depth)
    }

    /// Summed tallies across shards.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        self.read(ShardedEngine::stats)
    }

    /// Summed result-cache counters across shards (`None` when the
    /// config has caching off).
    #[must_use]
    pub fn cache_stats(&self) -> Option<crate::cache::CacheStats> {
        self.read(ShardedEngine::cache_stats)
    }

    /// Per-shard tallies, in shard order.
    #[must_use]
    pub fn shard_stats(&self) -> Vec<ServeStats> {
        self.read(ShardedEngine::shard_stats)
    }

    /// Per-shard health, in shard order: `Down` from a shard's death
    /// until its restart.
    #[must_use]
    pub fn healths(&self) -> Vec<ShardHealth> {
        self.read(ShardedEngine::healths)
    }

    /// Requests rerouted off a down primary so far.
    #[must_use]
    pub fn failovers(&self) -> u64 {
        self.read(ShardedEngine::failovers)
    }

    /// Shard restarts performed so far, across all shards.
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.read(ShardedEngine::restarts)
    }

    /// Per-shard observers (empty entries when started unobserved).
    #[must_use]
    pub fn observers(&self) -> Vec<Option<FarmObserver>> {
        self.read(|e| {
            (0..e.shard_count())
                .map(|s| e.shard(s).observer().cloned())
                .collect()
        })
    }

    /// Per-shard debug handles, in shard order (empty entries when
    /// started unobserved).
    #[must_use]
    pub fn obs(&self) -> Vec<Option<canti_obs::ServeObs>> {
        self.read(ShardedEngine::obs)
    }

    /// Per-shard pool widths (the worker threads each shard's executor
    /// actually runs), in shard order.
    #[must_use]
    pub fn pool_threads(&self) -> Vec<usize> {
        self.read(|e| {
            (0..e.shard_count())
                .map(|s| e.shard(s).executor().pool_threads())
                .collect()
        })
    }

    /// Graceful shutdown: each shard stops admitting (later submissions
    /// get [`RejectReason::Draining`]), flushes its queue as final
    /// batches and answers every outstanding ticket; returns the final
    /// per-shard tallies. Dropping the service does the same.
    #[must_use = "the drain summaries report what each shard did"]
    pub fn shutdown(mut self) -> Vec<ServeStats> {
        self.stop();
        self.shard_stats()
    }

    fn stop(&mut self) {
        self.driver.lock().stopping = true;
        for wake in &self.driver.wake {
            wake.notify_all();
        }
        for batcher in self.batchers.drain(..) {
            let _ = batcher.join();
        }
    }
}

impl Drop for ShardedService {
    fn drop(&mut self) {
        self.stop();
    }
}

fn spawn_batcher(driver: Arc<Driver>, shard: usize) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("canti-serve-batcher".into())
        .spawn(move || {
            // the batcher outlives a panic outside `execute`: its shard
            // fails, and its next pass past the backoff restarts it
            while catch_unwind(AssertUnwindSafe(|| driver.serve(shard))).is_err() {
                driver.fail(shard);
            }
        })
        .expect("spawn batcher thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{job_key, request_seed, CacheConfig, Disposition, ServeConfig};
    use canti_farm::{Farm, FarmConfig, JobOutput, ProbeMode};
    use canti_fault::ServeFaultEvent;
    use canti_obs::{Metrics, RingCollector, Trace, Tracer, VirtualClock};
    use std::sync::{mpsc, Barrier};
    use std::time::Instant;

    fn probe(v: f64) -> JobSpec {
        JobSpec::Probe(ProbeMode::Value(v))
    }

    /// A driver over one shard: routing out of the way.
    fn one_shard(base: ServeConfig) -> ShardedService {
        ShardedService::start(ShardedConfig { shards: 1, base })
    }

    /// One observed shard with `plan` armed under `supervision`.
    fn one_chaos_shard(
        base: ServeConfig,
        plan: &ServeFaultPlan,
        supervision: SupervisorConfig,
    ) -> ShardedService {
        let (observer, _ring) = FarmObserver::profiling(4096);
        ShardedService::start_chaos(
            ShardedConfig { shards: 1, base },
            vec![observer],
            plan,
            supervision,
        )
    }

    /// Lone requests batch only by size, one per batch.
    fn one_per_batch() -> ServeConfig {
        ServeConfig {
            max_batch: 1,
            linger_ns: u64::MAX,
            threads: 1,
            ..ServeConfig::default()
        }
    }

    /// Supervision whose restart backoff starts at `backoff_base_ns`.
    fn backoff(backoff_base_ns: u64) -> SupervisorConfig {
        SupervisorConfig { backoff_base_ns }
    }

    /// Never restarted while a test runs.
    const NEVER_NS: u64 = 3_600_000_000_000;

    /// Waits for `ticket` under a watchdog, so a hung ticket fails the
    /// test instead of wedging it.
    fn wait(ticket: ShardTicket) -> ServeResponse {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(ticket.wait());
        });
        rx.recv_timeout(Duration::from_secs(30))
            .expect("a ticket hung: its response never arrived")
    }

    /// Polls until shard 0 is live again after a restart.
    fn until_restarted(service: &ShardedService) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !service.healths()[0].is_live() {
            assert!(Instant::now() < deadline, "the shard never restarted");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn shard_failed(r: &ServeResponse) -> bool {
        r.disposition == Disposition::Failed
    }

    #[test]
    fn tickets_resolve_for_size_triggered_batches() {
        let service = one_shard(ServeConfig {
            max_batch: 4,
            linger_ns: 1_000_000_000, // 1 s: only size can fire
            threads: 2,
            ..ServeConfig::default()
        });
        let tickets: Vec<ShardTicket> = (0..4)
            .map(|i| service.submit(probe(f64::from(i))).expect("admitted"))
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let r = t.wait();
            assert_eq!(r.request_id, i as u64);
            assert!(r.disposition.is_ok(), "request {i}: {r}");
        }
        assert_eq!(service.healths(), vec![ShardHealth::Healthy]);
        let stats = service.shutdown()[0];
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.batches, 1);
    }

    #[test]
    fn full_queue_rejects_fast() {
        // Huge linger + threshold so nothing drains the queue.
        let service = one_shard(ServeConfig {
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
        let stats = service.shutdown()[0];
        assert!(a.wait().disposition.is_ok());
        assert!(b.wait().disposition.is_ok());
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn expired_requests_get_expiry_responses() {
        let service = one_shard(ServeConfig {
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
        let stats = service.shutdown()[0];
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.completed, 0);
    }

    #[test]
    fn shutdown_drains_outstanding_requests() {
        let service = one_shard(ServeConfig {
            max_batch: 64,
            linger_ns: u64::MAX,
            threads: 2,
            ..ServeConfig::default()
        });
        let tickets: Vec<ShardTicket> = (0..5)
            .map(|i| service.submit(probe(f64::from(i))).expect("admitted"))
            .collect();
        let stats = service.shutdown()[0];
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
        let service = ShardedService::start_observed(
            ShardedConfig {
                shards: 1,
                base: ServeConfig {
                    max_batch: 3,
                    linger_ns: 1_000_000_000,
                    threads: 1,
                    ..ServeConfig::default()
                },
            },
            vec![observer],
        );
        let tickets: Vec<ShardTicket> = (0..3)
            .map(|i| service.submit(probe(f64::from(i))).expect("admitted"))
            .collect();
        for t in tickets {
            assert!(t.wait().disposition.is_ok());
        }
        let observer = service.observers()[0].clone().expect("observer");
        let m = observer.metrics();
        assert_eq!(m.counter("serve.admitted").get(), 3);
        assert_eq!(m.counter("serve.completed").get(), 3);
        let _ = service.shutdown();
    }

    #[test]
    fn drop_performs_shutdown() {
        let service = one_shard(ServeConfig {
            max_batch: 64,
            linger_ns: u64::MAX,
            threads: 1,
            ..ServeConfig::default()
        });
        let ticket = service.submit(probe(1.0)).expect("admitted");
        drop(service); // must drain, not leak the batchers or the ticket
        assert!(wait(ticket).disposition.is_ok());
    }

    #[test]
    fn executor_panic_answers_every_ticket_terminally() {
        // A chaos plan that kills this shard on its first batch: the
        // executor panics under the batch, and *every* waiter — batch
        // members and still-queued requests alike — must get a terminal
        // Failed answer, never a hang.
        let service = one_chaos_shard(
            ServeConfig {
                max_batch: 2,
                linger_ns: u64::MAX, // only size fires: 2 ride, 1 queues
                threads: 1,
                ..ServeConfig::default()
            },
            &ServeFaultPlan::kill_shard(0, 0),
            backoff(NEVER_NS),
        );
        // the batch cannot reach its kill before all three are admitted
        let executor = service.driver.lock().engine.shard(0).executor();
        let gate = crate::exec::tests::hold_chaos(&executor);
        let tickets: Vec<ShardTicket> = (0..3)
            .map(|i| service.submit(probe(f64::from(i))).expect("admitted"))
            .collect();
        drop(gate);
        for (i, t) in tickets.into_iter().enumerate() {
            let r = wait(t);
            assert!(
                shard_failed(&r),
                "request {i}: expected ShardFailed, got {r}"
            );
        }
        assert_eq!(service.healths(), vec![ShardHealth::Down]);
        // a down shard refuses new work with the same terminal reason
        assert_eq!(
            service.submit(probe(9.0)).map(|t| t.id()),
            Err(RejectReason::ShardFailed)
        );
        let stats = service.shutdown()[0];
        assert_eq!(stats.admitted, 3);
        assert_eq!(stats.failed, 3);
        assert_eq!(stats.completed, 0);
    }

    #[test]
    fn a_hit_skips_the_ticket_table_and_a_down_shard_refuses_before_lookup() {
        let service = one_chaos_shard(
            ServeConfig {
                cache: Some(CacheConfig::default()),
                ..one_per_batch()
            },
            &ServeFaultPlan::kill_shard(0, 1),
            backoff(NEVER_NS),
        );
        let cold = service.submit(probe(1.0)).expect("admitted").wait();
        assert!(cold.disposition.is_ok());
        let hit = service.submit(probe(1.0)).expect("admitted");
        assert!(matches!(
            hit.poll().map(|r| r.disposition),
            Some(Disposition::CacheHit { .. })
        ));
        assert!(
            service.driver.lock().tickets.is_empty(),
            "a hit makes no ticket-table entry"
        );
        // the next distinct spec rides batch 1, which the plan kills
        let doomed = wait(service.submit(probe(2.0)).expect("admitted"));
        assert!(shard_failed(&doomed), "{doomed}");
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
    fn a_down_shard_restarts_when_its_backoff_is_due() {
        // on a virtual clock the backoff elapses when the test says so
        let clock = Arc::new(VirtualClock::new());
        let observer = FarmObserver::from_parts(
            Arc::new(Metrics::new()),
            Tracer::new(
                Arc::new(RingCollector::new(4096)) as _,
                Arc::clone(&clock) as _,
            ),
            Arc::clone(&clock) as _,
        );
        let backoff_ns = 20_000_000;
        let service = ShardedService::start_chaos(
            ShardedConfig {
                shards: 1,
                base: one_per_batch(),
            },
            vec![observer],
            &ServeFaultPlan::kill_shard(0, 0),
            backoff(backoff_ns),
        );
        let doomed = wait(service.submit(probe(1.0)).expect("admitted"));
        assert!(shard_failed(&doomed), "{doomed}");
        assert_eq!(service.healths(), vec![ShardHealth::Down]);
        assert_eq!(service.restarts(), 0, "no restart before the backoff");

        clock.advance_ns(backoff_ns);
        until_restarted(&service);
        assert_eq!(service.healths(), vec![ShardHealth::Healthy]);
        assert_eq!(service.restarts(), 1);

        // the restarted shard serves again (the kill event already fired)
        let ticket = service.submit(probe(2.0)).expect("readmitted");
        assert!(wait(ticket).disposition.is_ok());
        assert_eq!(service.healths(), vec![ShardHealth::Healthy]);
        assert_eq!(service.restarts(), 1, "a live shard is not restarted");
        let observer = service.observers()[0].clone().expect("observer");
        assert_eq!(observer.metrics().counter("serve.shard_restarts").get(), 1);
        let stats = service.shutdown()[0];
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
    }

    /// On the wall clock a killed shard stays down for at least its
    /// backoff, then serves again. Only the lower bound is asserted: a
    /// loaded host can restart the shard late, never early.
    #[test]
    fn a_killed_shard_stays_down_for_its_backoff_on_the_wall_clock() {
        let backoff_ns = 100_000_000; // 100 ms
        let service = one_chaos_shard(
            one_per_batch(),
            &ServeFaultPlan::kill_shard(0, 0),
            backoff(backoff_ns),
        );
        let before_death = Instant::now();
        let doomed = wait(service.submit(probe(1.0)).expect("admitted"));
        assert!(shard_failed(&doomed), "{doomed}");
        until_restarted(&service);
        let down = before_death.elapsed();
        assert!(
            down >= Duration::from_nanos(backoff_ns),
            "restarted {down:?} after the kill, inside its 100 ms backoff"
        );
        let served = wait(service.submit(probe(2.0)).expect("readmitted"));
        assert!(served.disposition.is_ok(), "{served}");
        assert_eq!(service.restarts(), 1);
    }

    #[test]
    fn a_shard_killed_twenty_times_answers_every_ticket_and_serves_again() {
        let kills = (0..20)
            .map(|batch| ServeFaultEvent { shard: 0, batch })
            .collect();
        let service = one_chaos_shard(one_per_batch(), &ServeFaultPlan::new(kills), backoff(0));
        let mut failed = 0;
        let mut i = 0.0;
        while failed < 20 {
            i += 1.0;
            match service.submit(probe(i)) {
                Ok(ticket) => {
                    let r = wait(ticket);
                    assert!(shard_failed(&r), "kill {failed}: {r}");
                    failed += 1;
                }
                // raced the restart of the shard that just died
                Err(RejectReason::ShardFailed) => std::thread::yield_now(),
                Err(other) => panic!("unexpected rejection: {other}"),
            }
        }
        until_restarted(&service);
        assert_eq!(service.restarts(), 20);
        let served = wait(service.submit(probe(0.0)).expect("admitted"));
        assert!(served.disposition.is_ok(), "{served}");
        let stats = service.shutdown()[0];
        assert_eq!((stats.failed, stats.completed), (20, 1));
    }

    #[test]
    fn concurrent_shards_characterize_the_chain_once() {
        let service = ShardedService::start(ShardedConfig {
            shards: 4,
            base: ServeConfig {
                max_batch: 1,
                threads: 1,
                ..ServeConfig::default()
            },
        });
        let tickets: Vec<ShardTicket> = crate::exec::tests::one_dose_per_shard(4)
            .into_iter()
            .map(|job| service.submit(job).expect("admitted"))
            .collect();
        for t in tickets {
            let r = wait(t);
            assert!(r.disposition.is_ok(), "{r}");
        }
        let state = service.driver.lock();
        for s in 0..4 {
            let stats = crate::exec::tests::precompute_stats(&state.engine.shard(s).executor());
            assert_eq!(
                (stats.misses, stats.hits),
                (1, 3),
                "shard {s}: four concurrent lookups, one characterization"
            );
        }
        drop(state);
        let _ = service.shutdown();
    }

    #[test]
    fn concurrent_submitters_on_four_shards_get_the_oracle_payloads() {
        for cache in [None, Some(CacheConfig::default())] {
            let base = ServeConfig {
                max_batch: 4,
                linger_ns: 0, // no request waits on the batcher's idle sleep
                threads: 1,
                cache,
                ..ServeConfig::default()
            };
            // with the cache on, 8 distinct specs repeat, so hits and
            // coalescing can happen; a Draws payload depends on the seed
            let distinct = if cache.is_some() { 8 } else { 64 };
            let spec = move |i: usize| JobSpec::Probe(ProbeMode::Draws(1 + i % distinct));
            let service = Arc::new(ShardedService::start(ShardedConfig { shards: 4, base }));
            let submitters: Vec<_> = (0..4)
                .map(|w| {
                    let service = Arc::clone(&service);
                    std::thread::spawn(move || {
                        (0..16)
                            .map(|i| {
                                let job = spec(w * 16 + i);
                                let ticket = service.submit(job.clone()).expect("admitted");
                                let id = ticket.id();
                                (id, job, wait(ticket))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut answered: Vec<(u64, JobSpec, ServeResponse)> = submitters
                .into_iter()
                .flat_map(|s| s.join().expect("submitter thread"))
                .collect();
            answered.sort_by_key(|(id, ..)| *id);
            let ids: Vec<u64> = answered.iter().map(|(id, ..)| *id).collect();
            assert_eq!(ids, (0..64).collect::<Vec<u64>>(), "cache {cache:?}");
            assert_eq!(service.stats().completed, 64, "cache {cache:?}");
            for (shard, stats) in service.shard_stats().iter().enumerate() {
                assert!(stats.completed > 0, "shard {shard} answered nothing");
            }

            // the oracle: each request re-solved alone on a 1-worker farm,
            // under the seed the service fixed at admission
            let farm = Farm::new(FarmConfig {
                batch_seed: base.batch_seed,
                threads: 1,
            });
            let bits = |o: &JobOutput| {
                let metrics = o.metrics.iter().map(|&(n, v)| (n, v.to_bits()));
                (o.kind, metrics.collect::<Vec<_>>())
            };
            for (id, job, response) in &answered {
                assert_eq!(response.request_id, *id);
                let served = response
                    .disposition
                    .output()
                    .unwrap_or_else(|| panic!("not answered Ok: {response}"));
                let key = if cache.is_some() {
                    job_key(job).fold()
                } else {
                    *id
                };
                let seed = request_seed(base.batch_seed, key);
                let oracle = farm.run_seeded(std::slice::from_ref(job), &[seed]).outcomes;
                let oracle = oracle[0].as_ref().expect("oracle solve");
                assert_eq!(bits(served), bits(oracle), "request {id}, cache {cache:?}");
            }
        }
    }

    // a ticket crosses threads and is shared between them, ready or not
    const _: () = {
        const fn send_sync<T: Send + Sync>() {}
        send_sync::<ShardTicket>();
    };

    /// On the wall clock a request's span is its recorded latency: the
    /// span's two records carry the clock readings its latency runs
    /// between, however many submitters overlap on the two shards.
    #[test]
    fn each_request_span_lasts_exactly_its_latency_on_the_wall_clock() {
        let (observers, rings): (Vec<_>, Vec<_>) =
            (0..2).map(|_| FarmObserver::profiling(4096)).unzip();
        let base = ServeConfig {
            max_batch: 4,
            linger_ns: 0,
            threads: 1,
            ..ServeConfig::default()
        };
        let service = Arc::new(ShardedService::start_observed(
            ShardedConfig { shards: 2, base },
            observers,
        ));
        let release = Arc::new(Barrier::new(4));
        let submitters: Vec<_> = (0..4)
            .map(|w| {
                let (service, release) = (Arc::clone(&service), Arc::clone(&release));
                std::thread::spawn(move || {
                    release.wait();
                    let tickets: Vec<ShardTicket> = (0..4)
                        .map(|i| {
                            service
                                .submit(probe(f64::from(w * 4 + i)))
                                .expect("admitted")
                        })
                        .collect();
                    tickets.into_iter().map(wait).collect::<Vec<_>>()
                })
            })
            .collect();
        let answered: Vec<ServeResponse> = submitters
            .into_iter()
            .flat_map(|s| s.join().expect("submitter thread"))
            .collect();
        let service = Arc::into_inner(service).expect("every submitter joined");
        let _ = service.shutdown();

        let traces: Vec<Trace> = rings
            .iter()
            .map(|ring| Trace::from_ndjson(&ring.to_ndjson()).expect("trace parses"))
            .collect();
        assert_eq!(answered.len(), 16);
        for r in &answered {
            let Disposition::Completed { latency_ns, .. } = r.disposition else {
                panic!("not answered by a batch: {r}");
            };
            let spans: Vec<Option<u64>> = traces
                .iter()
                .flat_map(|t| t.request_paths(r.request_id))
                .filter_map(|p| p.last().filter(|s| s.name == "request").map(|s| s.dur_ns))
                .collect();
            assert_eq!(spans, [Some(latency_ns)], "request {}", r.request_id);
        }
    }

    #[test]
    fn sharded_service_round_trips_with_global_ids() {
        let service = ShardedService::start(ShardedConfig {
            shards: 3,
            base: ServeConfig {
                max_batch: 2,
                linger_ns: 1_000, // 1 µs: lone requests fire quickly
                threads: 1,
                ..ServeConfig::default()
            },
        });
        let tickets: Vec<ShardTicket> = (0..9)
            .map(|i| service.submit(probe(f64::from(i))).expect("admitted"))
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.id(), i as u64);
            assert_eq!(t.shard(), crate::route_request(i as u64, 3));
            let r = t.wait();
            assert_eq!(r.request_id, i as u64, "answered under its global id");
            assert!(r.disposition.is_ok(), "request {i}: {r}");
        }
        assert_eq!(service.healths(), vec![ShardHealth::Healthy; 3]);
        let per_shard = service.shutdown();
        assert_eq!(per_shard.len(), 3);
        assert_eq!(per_shard.iter().map(|s| s.completed).sum::<u64>(), 9);
    }
}
