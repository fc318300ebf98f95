//! Long-lived farm service: runs screening batches in a loop while a
//! live Prometheus exposition endpoint serves the accumulating metrics.
//!
//! Run with:
//! `cargo run --release --example farm_service [jobs] [--batches N] [--addr HOST:PORT]`
//!
//! * `jobs` — jobs per batch (default 24),
//! * `--batches N` — how many batches to run before shutting down
//!   (default 3; the example always terminates so CI can drive it),
//! * `--addr HOST:PORT` — where to bind `/metrics` + `/healthz`
//!   (default `127.0.0.1:0`, an ephemeral port printed at startup).
//!
//! While batches run, scrape the printed address:
//!
//! ```text
//! curl http://127.0.0.1:<port>/metrics
//! curl http://127.0.0.1:<port>/healthz
//! ```
//!
//! The service self-scrapes after the last batch and prints the
//! exposition text, so a plain run (no curl) still shows the format.
//! One worker pool and one precompute cache live as long as the
//! service: every batch runs on the same threads, and the static chain
//! is characterized once. `/healthz` reports that pool's width.

use std::sync::Arc;

use canti::farm::{
    cross_reactivity_panel, dose_response_sweep, process_variation_batch, Farm, FarmConfig,
    FarmObserver, JobSpec, PrecomputeCache, WorkerPool,
};
use canti::obs::{Exposition, ExpositionServer, Readiness, Registry};

fn usage() -> ! {
    eprintln!(
        "usage: farm_service [jobs] [--batches N] [--addr HOST:PORT]\n\
         serves /metrics and /healthz while running farm batches"
    );
    std::process::exit(2);
}

fn main() {
    let mut jobs_per_batch = 24usize;
    let mut batches = 3usize;
    let mut addr = "127.0.0.1:0".to_owned();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--batches" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => batches = n,
                _ => usage(),
            },
            "--addr" => match it.next() {
                Some(a) => addr = a.clone(),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            n => match n.parse() {
                Ok(v) if v >= 3 => jobs_per_batch = v,
                _ => usage(),
            },
        }
    }

    // Wall-clock observer: this is a service, latencies should be real.
    let (observer, _ring) = FarmObserver::profiling(8192);
    let pool = Arc::new(WorkerPool::new(0));
    let server = ExpositionServer::bind(
        &addr,
        Exposition {
            readiness: Some(Readiness {
                pool_threads: pool.threads(),
                ..Readiness::default()
            }),
            ..Exposition::new(Registry::Single(Arc::clone(observer.metrics())))
        },
    )
    .expect("bind exposition server");
    println!(
        "serving /metrics and /healthz on http://{}  ({} batches x {} jobs)",
        server.local_addr(),
        batches,
        jobs_per_batch
    );

    let per_kind = jobs_per_batch / 3;
    let concentrations: Vec<f64> = (0..per_kind)
        .map(|i| 0.5 * 10f64.powf(3.0 * i as f64 / per_kind.max(2) as f64))
        .collect();
    let interferents: Vec<f64> = (0..jobs_per_batch - 2 * per_kind)
        .map(|i| i as f64 * 25.0)
        .collect();

    let cache = Arc::new(PrecomputeCache::new());
    for batch in 0..batches {
        let mut jobs: Vec<JobSpec> = dose_response_sweep(&concentrations);
        jobs.extend(process_variation_batch(per_kind, 0.04));
        jobs.extend(cross_reactivity_panel(10.0, &interferents));

        let farm = Farm::with_cache(
            FarmConfig {
                batch_seed: 0xFA12 + batch as u64,
                threads: 0,
            },
            Arc::clone(&cache),
        )
        .with_pool(Arc::clone(&pool))
        .with_observer(observer.clone());
        let report = farm.run(&jobs);
        println!(
            "batch {batch}: {} ok / {} failed  ({} scrapes served so far)",
            report.ok_count(),
            report.err_count(),
            server.requests_served()
        );
    }

    let health = server.scrape("/healthz").expect("self-scrape /healthz");
    assert_eq!(
        health,
        format!(
            "{{\"status\":\"ok\",\"shards\":1,\"pool_threads\":{},\"draining\":false}}\n",
            pool.threads()
        ),
        "health endpoint reports the width of the pool every batch ran on"
    );
    let exposition = server.scrape("/metrics").expect("self-scrape /metrics");
    println!("\n--- /metrics ---\n{exposition}");

    server.shutdown();
    println!("server drained and shut down");
}
