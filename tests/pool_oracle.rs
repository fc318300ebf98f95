//! The persistent worker pool against the sequential 1-thread oracle:
//! reusing long-lived workers across batches must never change a single
//! `BatchReport` bit, and telemetry must stay strictly additive on the
//! pool path.
//!
//! The jobs are the golden-scenario mix (dose-response sweep,
//! cross-reactivity panel, Monte-Carlo process variation, probes) so the
//! pin covers the real simulation substrates, not just toy probes.

use std::sync::Arc;

use canti::farm::{
    cross_reactivity_panel, dose_response_sweep, process_variation_batch, BatchReport, Farm,
    FarmConfig, FarmObserver, JobSpec, ProbeMode, WorkerPool,
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
