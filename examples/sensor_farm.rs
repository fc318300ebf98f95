//! Sensor-farm screening campaign: a mixed batch of dose-response points,
//! Monte-Carlo process-variation trials and cross-reactivity panels, run
//! in parallel on the deterministic farm engine.
//!
//! Run with: `cargo run --release --example sensor_farm [jobs] [--telemetry] [--serve]`
//! (`jobs` defaults to 48; the CI smoke target uses 16).
//!
//! `--telemetry` attaches a wall-clock [`FarmObserver`]: the run prints
//! the observer's metrics registry (the queue-wait / precompute / solve
//! stage histograms, job counters, worker gauge and per-worker busy
//! time `farm.worker_busy_ns`), exits non-zero if a stage histogram is
//! empty, and writes the registry's NDJSON dump followed by the trace
//! events to `target/farm_telemetry.ndjson`. Telemetry is strictly
//! additive — the report stays bit-identical to the untelemetered run,
//! which the determinism check at the end re-verifies.
//!
//! `--serve` (implies `--telemetry`) additionally binds a live
//! `/metrics` + `/healthz` exposition server on an ephemeral loopback
//! port for the duration of the run, self-scrapes it after the batch,
//! prints the first Prometheus text lines and shuts the server down.
//! For a long-lived endpoint use `examples/farm_service.rs` instead.
//!
//! `--chaos <seed>` switches to a fault-injection campaign instead: a
//! batch of chaos scans (full autonomous instruments under seeded fault
//! plans, resilient per-channel recovery) plus flaky probes. The run
//! prints the degradation summary and the per-job failures, with
//! `--telemetry` writes `target/chaos_telemetry.ndjson`, and re-verifies
//! that the report is bit-identical to a single-threaded oracle.

use std::sync::Arc;
use std::time::Instant;

use canti::farm::{
    chaos_scan_batch, cross_reactivity_panel, dose_response_sweep, process_variation_batch, Farm,
    FarmConfig, FarmObserver, JobSpec, ProbeMode,
};
use canti::obs::{Exposition, ExpositionServer, Registry};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let serve_on = args.iter().any(|a| a == "--serve");
    let telemetry_on = serve_on || args.iter().any(|a| a == "--telemetry");
    let chaos_at = args.iter().position(|a| a == "--chaos");
    if let Some(at) = chaos_at {
        let seed: u64 = args
            .get(at + 1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xC405);
        run_chaos(seed, telemetry_on);
        return;
    }
    let total: usize = args
        .iter()
        .find_map(|a| a.parse().ok())
        .filter(|&n| n >= 3)
        .unwrap_or(48);

    // one third each: dose sweep, process MC, cross-reactivity panel
    let per_kind = total / 3;
    let concentrations: Vec<f64> = (0..per_kind)
        .map(|i| 0.5 * 10f64.powf(3.0 * i as f64 / per_kind.max(2) as f64))
        .collect();
    let interferents: Vec<f64> = (0..total - 2 * per_kind).map(|i| i as f64 * 25.0).collect();

    let mut jobs: Vec<JobSpec> = dose_response_sweep(&concentrations);
    jobs.extend(process_variation_batch(per_kind, 0.04));
    jobs.extend(cross_reactivity_panel(10.0, &interferents));

    let observer = telemetry_on.then(|| FarmObserver::profiling(8192));
    let server = observer.as_ref().filter(|_| serve_on).map(|(obs, _)| {
        let exposition = Exposition::new(Registry::Single(Arc::clone(obs.metrics())));
        let server =
            ExpositionServer::bind("127.0.0.1:0", exposition).expect("bind exposition server");
        println!("serving /metrics on http://{}", server.local_addr());
        server
    });
    let mut farm = Farm::new(FarmConfig {
        batch_seed: 0xFA12,
        threads: 0, // machine parallelism
    });
    if let Some((obs, _)) = &observer {
        farm = farm.with_observer(obs.clone());
    }
    println!(
        "running {} jobs on {} worker threads...",
        jobs.len(),
        farm.threads()
    );
    let start = Instant::now();
    let report = farm.run(&jobs);
    println!("done in {:.2?}\n{}", start.elapsed(), report.render());

    let stats = farm.cache_stats();
    println!(
        "precompute cache: {} hits / {} misses",
        stats.hits, stats.misses
    );

    if let Some((observer, ring)) = observer {
        print!("\n{}", observer.metrics().summary());

        // a stage with zero samples means the instrumentation came unwired
        for name in ["farm.queue_wait_ns", "farm.precompute_ns", "farm.solve_ns"] {
            if observer.metrics().histogram(name).count() == 0 {
                eprintln!("stage histogram '{name}' has zero samples");
                std::process::exit(1);
            }
        }

        let mut ndjson = observer.metrics().to_ndjson();
        ndjson.push_str(&ring.to_ndjson());
        let path = "target/farm_telemetry.ndjson";
        std::fs::write(path, &ndjson).expect("write telemetry artifact");
        println!(
            "telemetry: {} NDJSON records ({} trace events dropped) -> {path}",
            ndjson.lines().count(),
            ring.dropped()
        );
    }

    if let Some(server) = server {
        assert_eq!(
            server.scrape("/healthz").expect("self-scrape /healthz"),
            "{\"status\":\"ok\",\"shards\":1,\"pool_threads\":0,\"draining\":false}\n"
        );
        let exposition = server.scrape("/metrics").expect("self-scrape /metrics");
        assert!(
            exposition.contains("farm_jobs_ok_total"),
            "live scrape must expose farm counters"
        );
        let preview: Vec<&str> = exposition.lines().take(12).collect();
        println!("\n--- /metrics (first lines) ---\n{}", preview.join("\n"));
        server.shutdown();
        println!("exposition server shut down cleanly");
    }

    // determinism spot-check: a single-threaded rerun must be identical
    let oracle = Farm::new(FarmConfig {
        batch_seed: 0xFA12,
        threads: 1,
    })
    .run(&jobs);
    assert_eq!(
        report, oracle,
        "parallel run must match the 1-thread oracle"
    );
    println!("determinism check: parallel report bit-identical to 1-thread oracle");
}

/// The `--chaos <seed>` campaign: fault injection across the farm, with
/// a degradation summary and a determinism re-check.
fn run_chaos(seed: u64, telemetry_on: bool) {
    let mut jobs = chaos_scan_batch(6, seed, 4);
    jobs.extend((0..10).map(|_| JobSpec::Probe(ProbeMode::Flaky { p_fail: 0.5 })));

    let observer = telemetry_on.then(|| FarmObserver::profiling(16_384));
    let batch_seed = seed ^ 0xC4A0_5EED;
    let mut farm = Farm::new(FarmConfig {
        batch_seed,
        threads: 0, // machine parallelism
    });
    if let Some((obs, _)) = &observer {
        farm = farm.with_observer(obs.clone());
    }
    println!(
        "chaos campaign: {} jobs (6 chaos scans + 10 flaky probes), fault seed {seed:#x}, {} workers...",
        jobs.len(),
        farm.threads()
    );
    let start = Instant::now();
    let report = farm.run(&jobs);
    println!("done in {:.2?}\n{}", start.elapsed(), report.render());

    let sum = |name: &str| report.metric_values(name).iter().sum::<f64>();
    println!(
        "degradation across chaos scans: {:.0} channels ok, {:.0} retried ({:.0} retry attempts), {:.0} quarantined",
        sum("channels_ok"),
        sum("channels_retried"),
        sum("retry_attempts"),
        sum("channels_quarantined"),
    );

    if let Some((observer, ring)) = observer {
        print!("\n{}", observer.metrics().summary());
        let mut ndjson = observer.metrics().to_ndjson();
        ndjson.push_str(&ring.to_ndjson());
        let path = "target/chaos_telemetry.ndjson";
        std::fs::write(path, &ndjson).expect("write chaos telemetry artifact");
        println!(
            "telemetry: {} NDJSON records ({} trace events dropped) -> {path}",
            ndjson.lines().count(),
            ring.dropped()
        );
    }

    // determinism spot-check: a single-threaded rerun must reproduce
    // every outcome, failures included, exactly
    let oracle = Farm::new(FarmConfig {
        batch_seed,
        threads: 1,
    })
    .run(&jobs);
    assert_eq!(report, oracle, "chaos run must match the 1-thread oracle");
    println!("determinism check: chaos report bit-identical to 1-thread oracle");
}
