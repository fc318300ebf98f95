//! Serving-layer load bench: push a burst of concurrent assay requests
//! through the (optionally sharded) serving layer and report the latency
//! and batch-shape histograms the serve instruments collected, merged
//! across shards.
//!
//! ```text
//! cargo bench -p canti-bench --bench serve               # defaults
//! CANTI_SERVE_REQUESTS=512 cargo bench -p canti-bench --bench serve
//! CANTI_SERVE_BATCH=32     cargo bench -p canti-bench --bench serve
//! CANTI_SERVE_THREADS=8    cargo bench -p canti-bench --bench serve
//! CANTI_SERVE_SUBMITTERS=4 cargo bench -p canti-bench --bench serve
//! CANTI_SERVE_SHARDS=4     cargo bench -p canti-bench --bench serve
//! CANTI_SERVE_CACHE=1      cargo bench -p canti-bench --bench serve
//! ```
//!
//! `CANTI_SERVE_CACHE=1` turns on the content-addressed result cache
//! and narrows the request mix from 64 distinct specs to 8, so repeats
//! dominate and the cached/coalesced path is what gets measured
//! (`scripts/ci.sh` archives that run as `BENCH_serve_cached.json`).
//!
//! `CANTI_BENCH_JSON=<path>` archives the report for the `obsctl diff`
//! perf gate in `scripts/ci.sh`, which runs this bench at shard counts
//! {1, 4} and gates each artifact against its own previous archive. On
//! the way out the bench replays a scripted arrival sequence on a
//! virtual clock and asserts the serving determinism contract end to
//! end: across farm worker counts at one shard, and again at the
//! configured shard count (at least two).

use std::sync::Arc;
use std::time::Instant;

use canti_bench::report::ExperimentReport;
use canti_farm::{FarmObserver, JobSpec, Receptor};
use canti_obs::{Histogram, HistogramSnapshot, Metrics, ObsClock, VirtualClock};
use canti_serve::{
    CacheConfig, ServeConfig, ServeResponse, ShardedConfig, ShardedEngine, ShardedService,
};
use canti_units::{Molar, Seconds};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// A request mix with real per-job work: log-spaced dose-response
/// assays, the same substrate the farm bench exercises but shorter.
/// `distinct` sets how many unique specs the mix cycles through — 64
/// for the uncached load shape, 8 when benching the result cache so
/// that repeats dominate.
fn request(i: usize, distinct: usize) -> JobSpec {
    JobSpec::StaticDoseResponse {
        receptor: Receptor::AntiIgg,
        concentration: Molar::from_nanomolar(0.1 * 10f64.powf(4.0 * (i % distinct) as f64 / 63.0)),
        baseline: Seconds::new(30.0),
        association: Seconds::new(120.0),
        wash: Seconds::new(60.0),
        dt: Seconds::new(0.25),
        averaging: 64,
    }
}

fn scripted_config(threads: usize, cached: bool) -> ServeConfig {
    ServeConfig {
        max_batch: 8,
        linger_ns: 1_000,
        threads,
        cache: cached.then(CacheConfig::default),
        ..ServeConfig::default()
    }
}

/// Replays `requests` as a scripted arrival sequence on a virtual clock
/// at `shards` shards and returns every response, for the cross-worker
/// check at a fixed shard count. The script runs in the same cache mode
/// as the load phase, so the cached bench also pins the
/// cached/coalesced path's determinism.
fn scripted_run(
    requests: usize,
    threads: usize,
    shards: usize,
    distinct: usize,
    cached: bool,
) -> Vec<ServeResponse> {
    let clock = Arc::new(VirtualClock::new());
    let mut engine = ShardedEngine::new(
        ShardedConfig {
            shards,
            base: scripted_config(threads, cached),
        },
        Arc::clone(&clock) as Arc<dyn ObsClock>,
    );
    let mut responses = Vec::new();
    for i in 0..requests {
        engine.submit(request(i, distinct)).expect("admitted");
        clock.advance_ns(100);
        responses.extend(engine.pump());
    }
    clock.advance_ns(1_000);
    responses.extend(engine.pump());
    responses.extend(engine.drain());
    responses
}

/// Merges one named histogram across the per-shard registries into a
/// single snapshot: exact count/sum/min/max, and p50/p95/p99 re-estimated
/// from the summed bucket counts (all shards share the registry's
/// default bounds for a given name).
fn merged_snapshot(shard_metrics: &[Arc<Metrics>], name: &str) -> HistogramSnapshot {
    let hists: Vec<Arc<Histogram>> = shard_metrics.iter().map(|m| m.histogram(name)).collect();
    let bounds = hists[0].bounds().to_vec();
    let mut counts = vec![0u64; bounds.len() + 1];
    let mut merged = HistogramSnapshot::default();
    let mut min = u64::MAX;
    for h in &hists {
        let s = h.snapshot();
        merged.count += s.count;
        merged.sum += s.sum;
        if s.count > 0 {
            min = min.min(s.min);
        }
        merged.max = merged.max.max(s.max);
        for (slot, c) in counts.iter_mut().zip(h.bucket_counts()) {
            *slot += c;
        }
    }
    merged.min = if merged.count == 0 { 0 } else { min };
    let quantile = |q: f64| -> u64 {
        if merged.count == 0 {
            return 0;
        }
        let rank = ((q * merged.count as f64).ceil() as u64).clamp(1, merged.count);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bounds.get(i).copied().unwrap_or(merged.max).min(merged.max);
            }
        }
        merged.max
    };
    merged.p50 = quantile(0.50);
    merged.p95 = quantile(0.95);
    merged.p99 = quantile(0.99);
    merged
}

fn main() {
    let requests = env_usize("CANTI_SERVE_REQUESTS", 256);
    let max_batch = env_usize("CANTI_SERVE_BATCH", 16);
    let threads = env_usize(
        "CANTI_SERVE_THREADS",
        std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get),
    );
    let submitters = env_usize("CANTI_SERVE_SUBMITTERS", 4);
    let shards = env_usize("CANTI_SERVE_SHARDS", 1);
    let cached = env_usize("CANTI_SERVE_CACHE", 0) > 0;
    let distinct = if cached { 8 } else { 64 };

    println!(
        "serve bench: {requests} requests ({distinct} distinct), {submitters} submitters, \
         batch<={max_batch}, {threads} farm workers, {shards} shard(s), cache {}",
        if cached { "on" } else { "off" }
    );

    let mut observers = Vec::with_capacity(shards);
    let mut rings = Vec::with_capacity(shards);
    let mut shard_metrics: Vec<Arc<Metrics>> = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (observer, ring) = FarmObserver::profiling(1 << 14);
        shard_metrics.push(Arc::clone(observer.metrics()));
        observers.push(observer);
        rings.push(ring);
    }
    let service = Arc::new(ShardedService::start_observed(
        ShardedConfig {
            shards,
            base: ServeConfig {
                max_batch,
                linger_ns: 200_000, // 0.2 ms
                threads,
                cache: cached.then(CacheConfig::default),
                ..ServeConfig::default()
            },
        },
        observers,
    ));

    let start = Instant::now();
    let workers: Vec<_> = (0..submitters)
        .map(|w| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let mut ok = 0usize;
                let mut rejected = 0usize;
                for i in (w..requests).step_by(submitters.max(1)) {
                    match service.submit(request(i, distinct)) {
                        Ok(ticket) => {
                            let response = ticket.wait();
                            assert!(response.disposition.is_ok(), "request failed: {response}");
                            ok += 1;
                        }
                        Err(_) => rejected += 1,
                    }
                }
                (ok, rejected)
            })
        })
        .collect();
    let mut ok = 0;
    let mut rejected = 0;
    for handle in workers {
        let (o, r) = handle.join().expect("submitter thread");
        ok += o;
        rejected += r;
    }
    let elapsed = start.elapsed();
    let cache_stats = service.cache_stats();
    let per_shard = Arc::try_unwrap(service)
        .expect("submitters have exited")
        .shutdown();

    println!("  completed: {ok} ok, {rejected} rejected in {elapsed:.2?}");
    println!(
        "  throughput: {:.0} req/s",
        ok as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    let mut completed_total = 0u64;
    let mut batches_total = 0u64;
    for (s, stats) in per_shard.iter().enumerate() {
        println!("  shard {s}: {}", stats.render());
        completed_total += stats.completed;
        batches_total += stats.batches;
    }
    assert_eq!(completed_total as usize, ok, "every ticket resolved");
    if let Some(c) = cache_stats {
        println!(
            "  cache: {} hits, {} misses, {} insertions, {} evictions, {} resident",
            c.hits, c.misses, c.insertions, c.evictions, c.entries
        );
    }

    // Worker-count invariance on a scripted arrival sequence: the whole
    // serving path (admission -> batching -> farm) must be bit-identical,
    // at one shard and again at the configured shard count.
    let check_n = requests.min(48);
    let check_shards = shards.max(2);
    for n in [1, check_shards] {
        let oracle = scripted_run(check_n, 1, n, distinct, cached);
        for t in [2, 8] {
            assert_eq!(
                scripted_run(check_n, t, n, distinct, cached),
                oracle,
                "serve determinism contract violated at {t} workers x {n} shards"
            );
        }
    }
    println!(
        "  determinism: {check_n}-request script bit-identical at 1/2/8 workers \
         (1 and {check_shards} shards)"
    );

    let mut exp = ExperimentReport::new("SERVE", "serving-layer load bench", &["metric", "value"]);
    exp.push_row(vec!["requests".into(), requests.to_string()]);
    exp.push_row(vec!["submitters".into(), submitters.to_string()]);
    exp.push_row(vec!["shards".into(), shards.to_string()]);
    exp.push_row(vec![
        "cache".into(),
        if cached { "on" } else { "off" }.into(),
    ]);
    exp.push_row(vec!["completed".into(), completed_total.to_string()]);
    exp.push_row(vec!["batches".into(), batches_total.to_string()]);
    for (s, stats) in per_shard.iter().enumerate() {
        exp.push_row(vec![
            format!("shard{s}.completed"),
            stats.completed.to_string(),
        ]);
    }
    exp.push_timing(
        "request_latency_ns",
        merged_snapshot(&shard_metrics, "serve.request_latency_ns"),
    );
    exp.push_timing(
        "batch_size",
        merged_snapshot(&shard_metrics, "serve.batch_size"),
    );
    // farm-side queue_wait is deliberately NOT archived from this bench:
    // under concurrent submitters its tail is scheduler noise, and the
    // farm bench already gates queue_wait from a controlled batch run
    println!("{}", exp.to_json());
    // CANTI_BENCH_JSON=<path> additionally archives the document for the
    // obsctl diff perf gate in scripts/ci.sh
    if let canti_bench::artifact::BenchSink::File(_) = canti_bench::artifact::sink_from_env() {
        canti_bench::artifact::emit_report(&exp);
    }
}
