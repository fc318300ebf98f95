//! Farm scaling bench: wall time of a 256-job dose-response sweep at one
//! worker vs several, on a pre-warmed precompute cache.
//!
//! ```text
//! cargo bench -p canti-bench --bench farm              # default threads
//! CANTI_FARM_THREADS=8 cargo bench -p canti-bench --bench farm
//! CANTI_FARM_JOBS=64   cargo bench -p canti-bench --bench farm
//! ```
//!
//! Reports the speedup and re-checks the determinism contract on the
//! way: the multi-thread and observed reports must be bit-identical to
//! the sequential 1-thread one. The archived telemetry
//! (`CANTI_BENCH_JSON`) comes from an observed run on a [`WorkerPool`]
//! built before the batch starts, so the `queue_wait` stage in
//! `BENCH_farm.json` reflects parked-worker pickup, not thread spawn.

use std::sync::Arc;
use std::time::{Duration, Instant};

use canti_bench::report::ExperimentReport;
use canti_farm::{Farm, FarmConfig, FarmObserver, JobSpec, PrecomputeCache, Receptor, WorkerPool};
use canti_units::{Molar, Seconds};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

fn sweep(jobs: usize) -> Vec<JobSpec> {
    // log-spaced 0.1 nM .. 1 µM, wrapped as often as needed; dt = 50 ms
    // gives 9000-point sensorgrams so each job carries real work (the
    // quick-assay default of dt = 5 s is analytic-cheap and would let
    // pool overhead dominate the measurement)
    (0..jobs)
        .map(|i| JobSpec::StaticDoseResponse {
            receptor: Receptor::AntiIgg,
            concentration: Molar::from_nanomolar(0.1 * 10f64.powf(4.0 * (i % 64) as f64 / 63.0)),
            baseline: Seconds::new(30.0),
            association: Seconds::new(300.0),
            wash: Seconds::new(120.0),
            dt: Seconds::new(0.05),
            averaging: 256,
        })
        .collect()
}

fn timed_run(threads: usize, jobs: &[JobSpec], cache: &Arc<PrecomputeCache>) -> (Duration, u64) {
    let farm = Farm::with_cache(
        FarmConfig {
            batch_seed: 0xFA12_2026,
            threads,
        },
        Arc::clone(cache),
    );
    let start = Instant::now();
    let report = farm.run(jobs);
    let elapsed = start.elapsed();
    assert_eq!(report.ok_count(), jobs.len(), "all jobs must succeed");
    // cheap content fingerprint so the comparison below means something
    let sum: f64 = report.metric_values("peak_volts").iter().sum();
    (elapsed, sum.to_bits())
}

fn main() {
    let jobs_n = env_usize("CANTI_FARM_JOBS", 256);
    let threads = env_usize(
        "CANTI_FARM_THREADS",
        std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get),
    );
    let jobs = sweep(jobs_n);

    // warm the shared cache so both timings measure job work, not the
    // one-off chain precompute
    let cache = Arc::new(PrecomputeCache::new());
    let _ = Farm::with_cache(FarmConfig::default(), Arc::clone(&cache)).run(&jobs[..1]);

    println!("farm bench: {jobs_n}-job dose-response sweep");
    let (t1, fp1) = timed_run(1, &jobs, &cache);
    println!("  1 thread : {:>10.2?}", t1);
    let (tn, fpn) = timed_run(threads, &jobs, &cache);
    println!("  {threads} threads: {:>10.2?}", tn);
    assert_eq!(
        fp1, fpn,
        "determinism contract violated across thread counts"
    );

    let speedup = t1.as_secs_f64() / tn.as_secs_f64().max(1e-9);
    println!("  speedup  : {speedup:.2}x  (results bit-identical)");

    // one more observed run — on a pool built up front, so the archived
    // queue_wait histogram measures parked-worker pickup — and a second
    // check that attaching the observer does not perturb the numbers
    let (observer, _ring) = FarmObserver::profiling(4096);
    let farm = Farm::with_cache(
        FarmConfig {
            batch_seed: 0xFA12_2026,
            threads,
        },
        Arc::clone(&cache),
    )
    .with_pool(Arc::new(WorkerPool::new(threads)))
    .with_observer(observer);
    let report = farm.run(&jobs);
    let fp: f64 = report.metric_values("peak_volts").iter().sum();
    assert_eq!(fp.to_bits(), fp1, "telemetry must not perturb results");
    let telemetry = report.telemetry.expect("observed run carries telemetry");
    println!("\n{}", telemetry.render());

    let mut exp = ExperimentReport::new("FARM", "sensor-farm stage telemetry", &["stage"]);
    for (name, snapshot) in telemetry.stages() {
        exp.push_timing(name, snapshot);
    }
    println!("{}", exp.to_json());
    // CANTI_BENCH_JSON=<path> additionally archives the document for the
    // obsctl diff perf gate in scripts/ci.sh
    if let canti_bench::artifact::BenchSink::File(_) = canti_bench::artifact::sink_from_env() {
        canti_bench::artifact::emit_report(&exp);
    }
}
