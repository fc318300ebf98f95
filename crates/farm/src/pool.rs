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
//! Nothing else a worker runs can panic: the slot write drops only
//! `Slot::Empty`, because each job index is claimed once, and every lock
//! recovers from poisoning. So a worker lives as long as its pool, and a
//! pool that re-raised a job panic serves the next batch at full width.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use canti_obs::ObsClock;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

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
    /// Runs one job and records its result, or its panic, in the
    /// caller's slot vector.
    run: Box<dyn Fn(usize) + Send + Sync>,
    /// Busy-time clock, when the caller wants utilization timed.
    clock: Option<Arc<dyn ObsClock>>,
    /// Per-worker tallies, indexed by worker slot (pool thread index).
    stats: Vec<Mutex<WorkerStat>>,
}

struct PoolState {
    queue: VecDeque<Arc<BatchTask>>,
    shutdown: bool,
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
    /// per pool thread; idle workers report zero jobs).
    ///
    /// # Panics
    ///
    /// Panics if the pool is shut down. If `f` panics, the batch still
    /// completes (and later batches still run — the worker thread
    /// survives); the first panic payload is then re-raised here.
    pub fn run<T, F>(
        &self,
        n: usize,
        f: F,
        clock: Option<Arc<dyn ObsClock>>,
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
        let task = Arc::new(BatchTask {
            n,
            next: AtomicUsize::new(0),
            pending: AtomicUsize::new(n),
            complete: AtomicBool::new(false),
            run,
            clock,
            stats: (0..self.threads)
                .map(|_| Mutex::new(WorkerStat::default()))
                .collect(),
        });
        {
            let mut state = lock(&self.shared.state);
            assert!(!state.shutdown, "worker pool is shut down");
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
            // `run` catches the job's own panic into its slot
            (task.run)(i);
            {
                let mut stat = lock(&task.stats[worker]);
                if let (Some(t0), Some(c)) = (t0, task.clock.as_ref()) {
                    stat.busy_ns += c.now_ns().saturating_sub(t0);
                }
                stat.jobs += 1;
            }
            // stats are written before the retire below, so the caller's
            // post-completion read sees them
            retire_job(shared, &task);
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

#[cfg(test)]
mod tests {
    use super::*;
    use canti_obs::VirtualClock;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_in_submission_order() {
        let out = WorkerPool::new(4).run(64, |i| i, None).0;
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_job_batches() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.run(0, |i| i, None).0, Vec::<usize>::new());
        assert_eq!(pool.run(1, |i| i + 10, None).0, vec![10]);
    }

    #[test]
    fn more_threads_than_jobs() {
        assert_eq!(WorkerPool::new(16).run(3, |i| i, None).0, vec![0, 1, 2]);
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
        let (out, stats) = WorkerPool::new(4).run(40, |i| i, None);
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
        let (_, stats) = pool.run(8, spin, Some(wall));
        assert!(
            stats.iter().map(|s| s.busy_ns).sum::<u64>() > 0,
            "real work under a wall clock must accumulate busy time"
        );

        let frozen: Arc<dyn ObsClock> = Arc::new(VirtualClock::new());
        let (_, stats) = pool.run(8, spin, Some(frozen));
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
                pool.run(100, f, None).0,
                oracle,
                "{threads} persistent workers"
            );
        }
    }

    #[test]
    fn persistent_pool_is_reused_across_batches() {
        let pool = WorkerPool::new(3);
        for round in 0..10u64 {
            let out = pool.run(16, move |i| i as u64 + round, None).0;
            assert_eq!(out, (0..16).map(|i| i + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn persistent_pool_empty_batch_and_stats_shape() {
        let pool = WorkerPool::new(4);
        let (out, stats) = pool.run(0, |i| i, None);
        assert_eq!(out, Vec::<usize>::new());
        assert_eq!(stats.len(), 4, "one stat slot per pool thread");
        let (out, stats) = pool.run(40, |i| i, None);
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
            pool.run(8, |i| i * 2, None).0,
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
        assert_eq!(pool.run(4, |i| i, None).0, vec![0, 1, 2, 3]);
        pool.shutdown();
        pool.shutdown(); // second call must return immediately
        let late = catch_unwind(AssertUnwindSafe(|| pool.run(1, |i| i, None).0));
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
                std::thread::spawn(move || pool.run(32, move |i| i as u64 * 10 + c, None).0)
            })
            .collect();
        for (c, handle) in callers.into_iter().enumerate() {
            let out = handle.join().expect("caller");
            assert_eq!(out, (0..32).map(|i| i * 10 + c as u64).collect::<Vec<_>>());
        }
    }

    /// A multi-thread farm with no attached pool builds one pool on its
    /// first batch and keeps it: three batches all run on that pool, and
    /// every report still equals the 1-thread oracle. The jobs are the
    /// golden-scenario mix, so the pin covers the real simulation
    /// substrates.
    #[test]
    fn an_unattached_multi_thread_farm_runs_every_batch_on_one_pool() {
        use crate::{
            cross_reactivity_panel, dose_response_sweep, process_variation_batch, Farm, FarmConfig,
            JobSpec, ProbeMode,
        };

        let concentrations: Vec<f64> = (0..20)
            .map(|i| 0.2 * 10f64.powf(0.2 * f64::from(i)))
            .collect();
        let interferents: Vec<f64> = (0..6).map(|i| f64::from(i) * 40.0).collect();
        let mut jobs = dose_response_sweep(&concentrations);
        jobs.extend(cross_reactivity_panel(25.0, &interferents));
        jobs.extend(process_variation_batch(6, 0.05));
        jobs.extend((1..5).map(|d| JobSpec::Probe(ProbeMode::Draws(d))));
        let config = |threads| FarmConfig {
            batch_seed: 0x0E0E_5EED,
            threads,
        };
        let oracle = Farm::new(config(1)).run(&jobs);

        let farm = Farm::new(config(2));
        assert!(farm.pool.get().is_none(), "no pool before the first batch");
        assert_eq!(
            farm.run(&jobs),
            oracle,
            "round 0: report diverged from the oracle"
        );
        let pool = Arc::clone(farm.pool.get().expect("the first batch builds the pool"));
        assert_eq!(pool.threads(), 2);
        for round in 1..3 {
            assert_eq!(
                farm.run(&jobs),
                oracle,
                "round {round}: report diverged from the oracle"
            );
            assert!(
                Arc::ptr_eq(farm.pool.get().expect("kept"), &pool),
                "round {round} ran on another pool"
            );
        }
    }
}
