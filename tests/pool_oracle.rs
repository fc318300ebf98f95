//! The persistent worker pool against the sequential 1-thread oracle:
//! reusing long-lived workers across batches must never change a single
//! `BatchReport` bit, and telemetry must stay strictly additive on the
//! pool path. A multi-thread farm runs every batch on one pool, and a
//! worker death never wedges it.
//!
//! The jobs are the golden-scenario mix (dose-response sweep,
//! cross-reactivity panel, Monte-Carlo process variation, probes) so the
//! pin covers the real simulation substrates, not just toy probes.

use std::sync::Arc;

use canti::farm::{
    cross_reactivity_panel, dose_response_sweep, process_variation_batch, BatchReport, Farm,
    FarmConfig, FarmObserver, FarmSupervisor, JobSpec, ProbeMode, SupervisorConfig, WorkerPool,
};
use proptest::prelude::*;

/// The golden-scenario job mix: 20 dose-response points, a 6-point
/// cross-reactivity panel, 6 Monte-Carlo variation draws and 4 probes.
fn golden_jobs() -> Vec<JobSpec> {
    let concentrations: Vec<f64> = (0..20)
        .map(|i| 0.2 * 10f64.powf(0.2 * f64::from(i)))
        .collect();
    let interferents: Vec<f64> = (0..6).map(|i| f64::from(i) * 40.0).collect();
    let mut jobs = dose_response_sweep(&concentrations);
    jobs.extend(cross_reactivity_panel(25.0, &interferents));
    jobs.extend(process_variation_batch(6, 0.05));
    jobs.extend((1..5).map(|d| JobSpec::Probe(ProbeMode::Draws(d))));
    jobs
}

/// A farm with no attached pool: the sequential oracle at 1 thread.
fn spawn_run(seed: u64, threads: usize, jobs: &[JobSpec]) -> BatchReport {
    Farm::new(FarmConfig {
        batch_seed: seed,
        threads,
    })
    .run(jobs)
}

fn pool_run(seed: u64, pool: &Arc<WorkerPool>, jobs: &[JobSpec]) -> BatchReport {
    Farm::new(FarmConfig {
        batch_seed: seed,
        threads: pool.threads(),
    })
    .with_pool(Arc::clone(pool))
    .run(jobs)
}

/// The satellite contract: the persistent pool's `BatchReport` is
/// byte-identical to the sequential 1-thread farm's, for the golden
/// job mix, at every pool width — and stays identical when the same
/// pool is reused for further batches.
#[test]
fn persistent_pool_matches_the_fresh_spawn_oracle_on_golden_jobs() {
    let jobs = golden_jobs();
    let oracle = spawn_run(0x901D_5EED, 1, &jobs);
    assert_eq!(oracle.ok_count(), jobs.len(), "golden jobs all succeed");
    for width in [1, 2, 8] {
        let pool = Arc::new(WorkerPool::new(width));
        // three consecutive batches on the SAME pool: reuse must not
        // leak any state into the reports
        for round in 0..3 {
            let report = pool_run(0x901D_5EED, &pool, &jobs);
            assert_eq!(
                report, oracle,
                "pool width {width}, round {round}: report diverged from the spawn oracle"
            );
        }
    }
}

/// Telemetry is additive on the pool path: running the same golden batch
/// with a deterministic observer attached produces the same report bits
/// as running it bare.
#[test]
fn pool_path_telemetry_is_strictly_additive() {
    let jobs = golden_jobs();
    let pool = Arc::new(WorkerPool::new(2));
    let bare = pool_run(0x0B5E_55ED, &pool, &jobs);

    let (observer, ring) = FarmObserver::deterministic(1 << 14);
    let observed = Farm::new(FarmConfig {
        batch_seed: 0x0B5E_55ED,
        threads: pool.threads(),
    })
    .with_pool(Arc::clone(&pool))
    .with_observer(observer)
    .run(&jobs);

    assert_eq!(observed, bare, "telemetry changed the report bits");
    assert!(
        !ring.events().is_empty(),
        "the observer must actually have recorded something"
    );
}

/// At one worker, the pool path and the sequential path emit byte-identical
/// deterministic trace streams: same spans, same fields, same order,
/// same NDJSON bytes.
#[test]
fn single_worker_trace_bytes_match_between_pool_and_spawn_paths() {
    let jobs = golden_jobs();
    let observed = |pool: Option<Arc<WorkerPool>>| {
        let (observer, ring) = FarmObserver::deterministic(1 << 14);
        let mut farm = Farm::new(FarmConfig {
            batch_seed: 0x71AC_E5ED,
            threads: 1,
        })
        .with_observer(observer);
        if let Some(pool) = pool {
            farm = farm.with_pool(pool);
        }
        let report = farm.run(&jobs);
        (report, ring.to_ndjson())
    };
    let (spawn_report, spawn_trace) = observed(None);
    let (pool_report, pool_trace) = observed(Some(Arc::new(WorkerPool::new(1))));
    assert_eq!(pool_report, spawn_report);
    assert_eq!(
        pool_trace, spawn_trace,
        "the execution substrate must be invisible in the trace bytes"
    );
}

/// A multi-thread farm with no attached pool builds one pool on its
/// first batch and keeps it: three batches and a supervisor's retry
/// waves all run on the same two workers, and every report still equals
/// the 1-thread oracle. The sabotage hook never panics here; it only
/// records which threads ran jobs.
#[test]
fn an_unattached_multi_thread_farm_runs_every_batch_and_retry_wave_on_one_pool() {
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    let jobs = golden_jobs();
    let oracle = spawn_run(0x0E0E_5EED, 1, &jobs);
    let ran_on: Arc<Mutex<HashSet<ThreadId>>> = Arc::default();
    let hook = {
        let ran_on = Arc::clone(&ran_on);
        Arc::new(move |_job: usize| {
            ran_on
                .lock()
                .expect("thread-id set")
                .insert(std::thread::current().id());
        })
    };
    let farm = Farm::new(FarmConfig {
        batch_seed: 0x0E0E_5EED,
        threads: 2,
    })
    .with_sabotage(hook);
    for round in 0..3 {
        assert_eq!(
            farm.run(&jobs),
            oracle,
            "round {round}: report diverged from the oracle"
        );
    }

    let mut supervisor = FarmSupervisor::new(
        farm,
        SupervisorConfig {
            max_attempts: 4,
            breaker_threshold: 0,
            ..SupervisorConfig::default()
        },
    );
    let flaky = vec![JobSpec::Probe(ProbeMode::Flaky { p_fail: 0.5 }); 24];
    let supervised = supervisor.run(&flaky);
    assert!(
        supervised.retried_jobs > 0,
        "a 0.5 failure rate must force retry waves"
    );

    let threads = ran_on.lock().expect("thread-id set").len();
    assert!(
        (1..=2).contains(&threads),
        "{threads} distinct threads ran jobs; one 2-worker pool has at most 2"
    );
}

/// Kills one worker of a `width`-worker pool on its first job, then
/// checks what the pool does next: with no live worker left it refuses
/// the next batch, otherwise its survivors reproduce the oracle.
fn worker_death_drill(width: usize, jobs: &[JobSpec], oracle: &BatchReport) {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};

    let pool = Arc::new(WorkerPool::new(width));
    let fired = Arc::new(AtomicBool::new(false));
    let hook = {
        let fired = Arc::clone(&fired);
        Arc::new(move |_job: usize| {
            if !fired.swap(true, Ordering::Relaxed) {
                panic!("sabotage: worker death (intentional)");
            }
        })
    };
    let sabotaged = catch_unwind(AssertUnwindSafe(|| {
        let _ = Farm::new(FarmConfig {
            batch_seed: 0xDEAD_5EED,
            threads: width,
        })
        .with_pool(Arc::clone(&pool))
        .with_sabotage(hook)
        .run(jobs);
    }));
    assert!(
        sabotaged.is_err(),
        "width {width}: the killed worker's job must re-raise"
    );

    if width == 1 {
        // the last worker died and orphan-aborted its batch; the next
        // submission must fail loudly rather than wait forever
        let refused = catch_unwind(AssertUnwindSafe(|| pool_run(0xDEAD_5EED, &pool, jobs)));
        let payload = refused.expect_err("a pool with no live workers must refuse a batch");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default();
        assert!(
            message.contains("no live workers"),
            "unexpected panic: {message}"
        );
    } else {
        for round in 0..3 {
            assert_eq!(
                pool_run(0xDEAD_5EED, &pool, jobs),
                *oracle,
                "width {width}, round {round}: the surviving workers diverged from the oracle"
            );
        }
    }
}

/// The worker-death paths a pool keeps without in-place repair, at
/// widths 1, 2 and 8. Each width runs on its own thread under a 60 s
/// watchdog, so a wedged pool fails the test instead of hanging it.
#[test]
fn a_worker_death_re_raises_and_never_wedges_the_pool() {
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::time::Duration;

    let jobs = Arc::new(golden_jobs());
    let oracle = Arc::new(spawn_run(0xDEAD_5EED, 1, &jobs));
    for width in [1, 2, 8] {
        let (done, finished) = mpsc::channel();
        let drill = {
            let (jobs, oracle) = (Arc::clone(&jobs), Arc::clone(&oracle));
            std::thread::spawn(move || {
                worker_death_drill(width, &jobs, &oracle);
                let _ = done.send(());
            })
        };
        // a drill that panics drops `done` unsent: Disconnected
        match finished.recv_timeout(Duration::from_secs(60)) {
            Ok(()) | Err(RecvTimeoutError::Disconnected) => {
                if let Err(payload) = drill.join() {
                    std::panic::resume_unwind(payload);
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                panic!("width {width}: a worker death wedged the pool for 60 s")
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property form of the oracle: for any seed and any probe batch,
    /// a persistent pool (reused across *all* cases of this test, so
    /// genuinely long-lived) reports the same bytes as the sequential
    /// 1-thread farm.
    #[test]
    fn pool_reuse_never_changes_report_bytes(
        seed in 0u64..u64::MAX,
        draws in prop::collection::vec(1usize..8, 1..40),
        width in 1usize..9,
    ) {
        let jobs: Vec<JobSpec> =
            draws.iter().map(|&d| JobSpec::Probe(ProbeMode::Draws(d))).collect();
        let oracle = spawn_run(seed, 1, &jobs);
        let pool = Arc::new(WorkerPool::new(width));
        prop_assert_eq!(&pool_run(seed, &pool, &jobs), &oracle, "width={}", width);
        // and again on the same (now warm) pool
        prop_assert_eq!(&pool_run(seed, &pool, &jobs), &oracle, "warm width={}", width);
    }
}
