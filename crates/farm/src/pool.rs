//! A hand-rolled persistent worker pool over `std::thread`: the farm's
//! only parallel execution path.
//!
//! Jobs are claimed from a per-batch atomic counter, so load balances
//! naturally across uneven job costs; results land in pre-allocated,
//! index-addressed slots, so the output order is the submission order no
//! matter which worker ran which job. That slot discipline — not the
//! scheduling — is what makes the farm's output independent of the
//! worker count, and the farm's 1-thread sequential run is the oracle
//! the pool is tested against.
//!
//! # Panic discipline
//!
//! Workers catch job panics themselves and mark the job's slot
//! **poisoned** instead of unwinding through the pool: the remaining jobs
//! still run, the batch still completes, and only then does the pool
//! re-raise the first panic payload on the caller's thread. The farm
//! wraps every job in its own `catch_unwind`, so a poisoned slot here
//! means a bug in the farm harness itself — which is exactly when
//! "finish the batch, then fail loudly" beats hanging the caller.
//!
//! A panic that escapes the job harness itself (the sabotage hook is the
//! one deliberate source) kills the worker thread: the claimed job's slot
//! is poisoned and the job is retired so the caller can never hang. If
//! the *last* live worker dies, every still-queued job is retired as
//! poisoned too — callers always get an answer (a re-raise), never a
//! wedge — and later submissions panic. A pool is never repaired in
//! place; a restarted serve shard builds a fresh one.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use canti_obs::ObsClock;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A per-job hook the pool calls **outside** the job harness's own
/// `catch_unwind`, with the batch-local job index about to run. A panic
/// here unwinds the worker thread itself — this is the serve chaos
/// seam's way of simulating a worker death rather than a job failure.
pub type PoolHook = Arc<dyn Fn(usize) + Send + Sync>;

/// Per-worker utilization tallies from one pool run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerStat {
    /// Jobs this worker executed.
    pub jobs: u64,
    /// Time this worker spent inside job closures, ns (0 without a
    /// clock, or under a virtual clock that nothing advances).
    pub busy_ns: u64,
}

/// A result slot: explicitly distinguishes "never ran", "done" and
/// "panicked" so a crashed job can never masquerade as a missing result.
enum Slot<T> {
    Empty,
    Done(T),
    Poisoned(Box<dyn std::any::Any + Send>),
}

/// One submitted batch on a [`WorkerPool`], type-erased so batches of
/// different result types can share the same queue. The typed closure
/// built by [`WorkerPool::run`] owns the slot vector; the pool
/// only needs "run index `i`" plus claim/retire bookkeeping.
struct BatchTask {
    /// Jobs in the batch.
    n: usize,
    /// Next unclaimed job index (claims may overshoot past `n`).
    next: AtomicUsize,
    /// Jobs not yet finished; the worker that retires the last one marks
    /// the batch complete and wakes the submitting caller.
    pending: AtomicUsize,
    /// Set under the pool lock when `pending` hits zero.
    complete: AtomicBool,
    /// Runs one job and records its result in the caller's slot vector.
    run: Box<dyn Fn(usize) + Send + Sync>,
    /// Records a harness-level panic payload in the job's slot, so a
    /// dying (or orphan-aborting) worker can poison without running.
    poison: Box<dyn Fn(usize, Box<dyn std::any::Any + Send>) + Send + Sync>,
    /// Chaos seam: called outside the job harness's `catch_unwind`, so a
    /// panic here kills the worker thread (see [`PoolHook`]).
    sabotage: Option<PoolHook>,
    /// Busy-time clock, when the caller wants utilization timed.
    clock: Option<Arc<dyn ObsClock>>,
    /// Per-worker tallies, indexed by worker slot (pool thread index).
    stats: Vec<Mutex<WorkerStat>>,
}

struct PoolState {
    queue: VecDeque<Arc<BatchTask>>,
    shutdown: bool,
    /// Worker threads still running their loop. Mutated only under this
    /// lock so submission's liveness check and a worker's death are
    /// serialized: a batch admitted while `live > 0` is either finished
    /// by surviving workers or orphan-aborted by the last one to die.
    live: usize,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Wakes workers: new batch enqueued, or shutdown.
    work: Condvar,
    /// Wakes submitting callers: some batch completed.
    done: Condvar,
}

/// A persistent worker pool: long-lived threads parked on a condvar,
/// pulling job indices from queued batches and reused across batches.
///
/// The pool pays the thread-spawn cost once, at construction; every
/// batch is then a queue push plus condvar wakeups, so a stream of the
/// serve layer's micro-batches costs no spawns. Results come back in
/// submission order from index-addressed slots, with panic poisoning
/// per slot and the first panic re-raised on the caller after the batch
/// finishes — so a batch's output is byte-identical to the farm's
/// sequential 1-thread run at any width.
///
/// # Shutdown
///
/// [`WorkerPool::shutdown`] is graceful and idempotent: workers finish
/// every batch already queued (callers blocked in [`WorkerPool::run`]
/// still get their results), then exit and are joined. Dropping the
/// pool shuts it down. Submitting to a pool that is already shut down
/// panics.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: usize,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = lock(&self.shared.state);
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("queued_batches", &state.queue.len())
            .field("shutdown", &state.shutdown)
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `threads` parked workers (`0` means the
    /// machine's available parallelism).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = if threads > 0 {
            threads
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        };
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
                live: threads,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("canti-farm-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn farm worker thread")
            })
            .collect();
        Self {
            shared,
            threads,
            handles: Mutex::new(handles),
        }
    }

    /// The resolved worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(i)` for every `i in 0..n` on the pool's workers and
    /// returns the results in index order, plus per-worker utilization:
    /// job counts always, busy time when `clock` is provided (one entry
    /// per pool thread; idle workers report zero jobs). `sabotage`, when
    /// set, is a [`PoolHook`] the workers call outside the job harness —
    /// the serve chaos seam: a hook panic kills the running worker (its
    /// job's slot poisons, the batch still completes or orphan-aborts,
    /// the payload re-raises here).
    ///
    /// # Panics
    ///
    /// Panics if the pool is shut down or every worker has died (a
    /// worker dies only by a [`PoolHook`] panic). If `f` panics, the
    /// batch still completes (and later batches still run — the worker
    /// thread survives); the first panic payload is then re-raised here.
    pub fn run<T, F>(
        &self,
        n: usize,
        f: F,
        clock: Option<Arc<dyn ObsClock>>,
        sabotage: Option<PoolHook>,
    ) -> (Vec<T>, Vec<WorkerStat>)
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        if n == 0 {
            return (Vec::new(), vec![WorkerStat::default(); self.threads]);
        }
        let slots: Arc<Vec<Mutex<Slot<T>>>> =
            Arc::new((0..n).map(|_| Mutex::new(Slot::Empty)).collect());
        let run = {
            let slots = Arc::clone(&slots);
            Box::new(move |i: usize| {
                let result = catch_unwind(AssertUnwindSafe(|| f(i)));
                // a poisoned mutex is irrelevant here: the slot content
                // is what records job failure
                *lock(&slots[i]) = match result {
                    Ok(v) => Slot::Done(v),
                    Err(payload) => Slot::Poisoned(payload),
                };
            }) as Box<dyn Fn(usize) + Send + Sync>
        };
        let poison = {
            let slots = Arc::clone(&slots);
            Box::new(move |i: usize, payload: Box<dyn std::any::Any + Send>| {
                *lock(&slots[i]) = Slot::Poisoned(payload);
            }) as Box<dyn Fn(usize, Box<dyn std::any::Any + Send>) + Send + Sync>
        };
        let task = Arc::new(BatchTask {
            n,
            next: AtomicUsize::new(0),
            pending: AtomicUsize::new(n),
            complete: AtomicBool::new(false),
            run,
            poison,
            sabotage,
            clock,
            stats: (0..self.threads)
                .map(|_| Mutex::new(WorkerStat::default()))
                .collect(),
        });
        {
            let mut state = lock(&self.shared.state);
            assert!(!state.shutdown, "worker pool is shut down");
            assert!(state.live > 0, "worker pool has no live workers");
            state.queue.push_back(Arc::clone(&task));
        }
        self.shared.work.notify_all();

        // Wait for the whole batch to retire. The completing worker sets
        // `complete` under the state lock, so this check-then-wait can't
        // miss the wakeup.
        let mut state = lock(&self.shared.state);
        while !task.complete.load(Ordering::Acquire) {
            state = self
                .shared
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(state);

        let stats: Vec<WorkerStat> = task.stats.iter().map(|m| *lock(m)).collect();
        let mut out = Vec::with_capacity(n);
        let mut first_payload: Option<(usize, Box<dyn std::any::Any + Send>)> = None;
        for (i, slot) in slots.iter().enumerate() {
            match std::mem::replace(&mut *lock(slot), Slot::Empty) {
                Slot::Done(v) => out.push(v),
                Slot::Poisoned(payload) => {
                    if first_payload.is_none() {
                        first_payload = Some((i, payload));
                    }
                }
                Slot::Empty => panic!("job {i} produced no result"),
            }
        }
        if let Some((i, payload)) = first_payload {
            eprintln!("canti-farm pool: job {i} panicked; batch completed, re-raising");
            resume_unwind(payload);
        }
        (out, stats)
    }

    /// Graceful, idempotent shutdown: stops accepting new batches,
    /// drains every batch already queued (blocked [`Self::run`] callers
    /// get their results), then joins every worker. Calling it again is
    /// a no-op.
    pub fn shutdown(&self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.work.notify_all();
        let handles = std::mem::take(&mut *lock(&self.handles));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &PoolShared, worker: usize) {
    loop {
        // Park until some queued batch still has unclaimed work. Batches
        // drain front-first; fully-claimed batches stay queued until
        // their last job retires them, so a worker may skip past one to
        // help a later batch.
        let task: Arc<BatchTask> = {
            let mut state = lock(&shared.state);
            loop {
                if let Some(task) = state
                    .queue
                    .iter()
                    .find(|t| t.next.load(Ordering::Relaxed) < t.n)
                {
                    break Arc::clone(task);
                }
                if state.shutdown {
                    return;
                }
                state = shared
                    .work
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        loop {
            let i = task.next.fetch_add(1, Ordering::Relaxed);
            if i >= task.n {
                break;
            }
            let t0 = task.clock.as_ref().map(|c| c.now_ns());
            // `run` catches the job's own panics internally (slot
            // poisoning); a panic escaping THIS catch is harness-level —
            // in practice the sabotage hook — and kills the worker.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if let Some(hook) = &task.sabotage {
                    hook(i);
                }
                (task.run)(i);
            }));
            {
                let mut stat = lock(&task.stats[worker]);
                if let (Some(t0), Some(c)) = (t0, task.clock.as_ref()) {
                    stat.busy_ns += c.now_ns().saturating_sub(t0);
                }
                stat.jobs += 1;
            }
            let fatal = match outcome {
                Ok(()) => false,
                Err(payload) => {
                    (task.poison)(i, payload);
                    true
                }
            };
            // stats are written before the retire below, so the caller's
            // post-completion read sees them
            retire_job(shared, &task);
            if fatal {
                worker_died(shared);
                return;
            }
        }
    }
}

/// Retires one finished (or poisoned) job; the worker that retires the
/// last one marks the batch complete and wakes the submitting caller.
fn retire_job(shared: &PoolShared, task: &Arc<BatchTask>) {
    if task.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
        let mut state = lock(&shared.state);
        task.complete.store(true, Ordering::Release);
        state.queue.retain(|t| !Arc::ptr_eq(t, task));
        drop(state);
        shared.done.notify_all();
        shared.work.notify_all();
    }
}

/// Books a harness-level worker death. The dying worker already retired
/// the job it was running; if it was the LAST live worker, it also
/// claims and poisons every job still queued (in any batch) so blocked
/// callers re-raise instead of wedging. The liveness decrement and the
/// orphan snapshot happen under the state lock, mutually exclusive with
/// submission's `live > 0` check — no batch can slip in unanswered.
fn worker_died(shared: &PoolShared) {
    let orphans: Vec<Arc<BatchTask>> = {
        let mut state = lock(&shared.state);
        state.live -= 1;
        if state.live == 0 {
            state.queue.iter().cloned().collect()
        } else {
            Vec::new()
        }
    };
    for task in orphans {
        loop {
            let i = task.next.fetch_add(1, Ordering::Relaxed);
            if i >= task.n {
                break;
            }
            (task.poison)(
                i,
                Box::new(format!(
                    "canti-farm pool: job {i} abandoned — no live workers"
                )),
            );
            retire_job(shared, &task);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canti_obs::VirtualClock;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_in_submission_order() {
        let out = WorkerPool::new(4).run(64, |i| i, None, None).0;
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_job_batches() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.run(0, |i| i, None, None).0, Vec::<usize>::new());
        assert_eq!(pool.run(1, |i| i + 10, None, None).0, vec![10]);
    }

    #[test]
    fn more_threads_than_jobs() {
        assert_eq!(
            WorkerPool::new(16).run(3, |i| i, None, None).0,
            vec![0, 1, 2]
        );
    }

    /// Regression: a panic in the FIRST job of a multi-job batch must not
    /// deadlock the pool. Every other job still runs, the batch completes,
    /// and the original panic payload is re-raised afterwards.
    #[test]
    fn panic_in_first_job_poisons_its_slot_without_deadlocking_the_pool() {
        let pool = WorkerPool::new(4);
        let completed = Arc::new(AtomicUsize::new(0));
        let job_completed = Arc::clone(&completed);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(
                16,
                move |i| {
                    if i == 0 {
                        panic!("first job dies");
                    }
                    job_completed.fetch_add(1, Ordering::Relaxed);
                    i
                },
                None,
                None,
            )
            .0
        }));
        let payload = result.expect_err("pool must re-raise the job panic");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("string payload survives the round trip");
        assert_eq!(message, "first job dies");
        assert_eq!(
            completed.load(Ordering::Relaxed),
            15,
            "all surviving jobs must have completed before the re-raise"
        );
    }

    #[test]
    fn worker_stats_cover_every_job() {
        let (out, stats) = WorkerPool::new(4).run(40, |i| i, None, None);
        assert_eq!(out.len(), 40);
        assert_eq!(stats.len(), 4);
        assert_eq!(stats.iter().map(|s| s.jobs).sum::<u64>(), 40);
    }

    #[test]
    fn wall_clock_accumulates_busy_time_but_an_unadvanced_virtual_clock_does_not() {
        // The same spinning workload, observed under both clock kinds.
        let spin = |_| {
            let mut acc = 0u64;
            for i in 0..50_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            std::hint::black_box(acc)
        };
        let pool = WorkerPool::new(2);

        let wall: Arc<dyn ObsClock> = Arc::new(canti_obs::WallClock::new());
        let (_, stats) = pool.run(8, spin, Some(wall), None);
        assert!(
            stats.iter().map(|s| s.busy_ns).sum::<u64>() > 0,
            "real work under a wall clock must accumulate busy time"
        );

        let frozen: Arc<dyn ObsClock> = Arc::new(VirtualClock::new());
        let (_, stats) = pool.run(8, spin, Some(frozen), None);
        assert_eq!(stats.iter().map(|s| s.jobs).sum::<u64>(), 8);
        assert!(
            stats.iter().all(|s| s.busy_ns == 0),
            "a virtual clock nothing advances reports zero busy time"
        );
    }

    #[test]
    fn persistent_pool_matches_the_sequential_oracle() {
        let f = |i: usize| (i * i) as u64;
        let oracle: Vec<u64> = (0..100).map(f).collect();
        for threads in [1, 2, 3, 8] {
            let pool = WorkerPool::new(threads);
            assert_eq!(
                pool.run(100, f, None, None).0,
                oracle,
                "{threads} persistent workers"
            );
        }
    }

    #[test]
    fn persistent_pool_is_reused_across_batches() {
        let pool = WorkerPool::new(3);
        for round in 0..10u64 {
            let out = pool.run(16, move |i| i as u64 + round, None, None).0;
            assert_eq!(out, (0..16).map(|i| i + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn persistent_pool_empty_batch_and_stats_shape() {
        let pool = WorkerPool::new(4);
        let (out, stats) = pool.run(0, |i| i, None, None);
        assert_eq!(out, Vec::<usize>::new());
        assert_eq!(stats.len(), 4, "one stat slot per pool thread");
        let (out, stats) = pool.run(40, |i| i, None, None);
        assert_eq!(out.len(), 40);
        assert_eq!(stats.iter().map(|s| s.jobs).sum::<u64>(), 40);
    }

    #[test]
    fn persistent_pool_busy_time_comes_from_the_injected_clock() {
        let clock = Arc::new(VirtualClock::new());
        let pool = WorkerPool::new(1);
        let job_clock = Arc::clone(&clock);
        let (_, stats) = pool.run(
            5,
            move |_| job_clock.advance_ns(10),
            Some(clock as Arc<dyn ObsClock>),
            None,
        );
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].jobs, 5);
        assert_eq!(stats[0].busy_ns, 50);
    }

    /// Satellite: a panicking job poisons only its own slot; the batch
    /// completes, the panic is re-raised, and the SAME pool then runs
    /// later batches normally (its workers never unwound).
    #[test]
    fn pool_survives_a_job_panic_and_runs_subsequent_batches() {
        let pool = Arc::new(WorkerPool::new(4));
        let completed = Arc::new(AtomicUsize::new(0));
        let run_completed = Arc::clone(&completed);
        let run_pool = Arc::clone(&pool);
        let result = catch_unwind(AssertUnwindSafe(move || {
            run_pool
                .run(
                    16,
                    move |i| {
                        if i == 3 {
                            panic!("third job dies");
                        }
                        run_completed.fetch_add(1, Ordering::Relaxed);
                        i
                    },
                    None,
                    None,
                )
                .0
        }));
        let payload = result.expect_err("pool must re-raise the job panic");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("third job dies")
        );
        assert_eq!(
            completed.load(Ordering::Relaxed),
            15,
            "all surviving jobs completed before the re-raise"
        );
        // subsequent batches still run on the same workers
        assert_eq!(
            pool.run(8, |i| i * 2, None, None).0,
            vec![0, 2, 4, 6, 8, 10, 12, 14]
        );
    }

    /// Satellite: shutdown is graceful — work already queued completes
    /// and the blocked caller gets its full result set.
    #[test]
    fn shutdown_completes_queued_work() {
        let pool = Arc::new(WorkerPool::new(2));
        let started = Arc::new(AtomicUsize::new(0));
        let job_started = Arc::clone(&started);
        let run_pool = Arc::clone(&pool);
        let caller = std::thread::spawn(move || {
            run_pool
                .run(
                    8,
                    move |i| {
                        job_started.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        i
                    },
                    None,
                    None,
                )
                .0
        });
        // wait until the batch is genuinely in flight, then shut down
        while started.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        pool.shutdown();
        let out = caller.join().expect("caller thread");
        assert_eq!(out, (0..8).collect::<Vec<_>>(), "queued work completed");
    }

    /// Satellite: double shutdown is a no-op, and submitting afterwards
    /// panics loudly instead of hanging.
    #[test]
    fn double_shutdown_is_a_noop_and_late_submission_panics() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.run(4, |i| i, None, None).0, vec![0, 1, 2, 3]);
        pool.shutdown();
        pool.shutdown(); // second call must return immediately
        let late = catch_unwind(AssertUnwindSafe(|| pool.run(1, |i| i, None, None).0));
        let payload = late.expect_err("submission after shutdown must panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default();
        assert!(message.contains("shut down"), "unexpected panic: {message}");
    }

    #[test]
    fn pool_threads_zero_resolves_to_machine_parallelism() {
        let pool = WorkerPool::new(0);
        assert!(pool.threads() >= 1);
        assert_eq!(WorkerPool::new(3).threads(), 3);
    }

    #[test]
    fn concurrent_batches_from_multiple_callers_all_complete() {
        let pool = Arc::new(WorkerPool::new(4));
        let callers: Vec<_> = (0..4u64)
            .map(|c| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || pool.run(32, move |i| i as u64 * 10 + c, None, None).0)
            })
            .collect();
        for (c, handle) in callers.into_iter().enumerate() {
            let out = handle.join().expect("caller");
            assert_eq!(out, (0..32).map(|i| i * 10 + c as u64).collect::<Vec<_>>());
        }
    }
}
