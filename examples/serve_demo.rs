//! Serving-layer demo: concurrent submitters push assay requests through
//! the sharded batching serve layer while a live Prometheus exposition
//! endpoint serves the **merged** per-shard metrics view (queue depth,
//! batch sizes, request latencies, admitted/rejected/expired counters,
//! every series labelled `shard="<i>"`) plus the observability debug
//! routes: a JSON `/healthz` readiness body, the per-request
//! `/debug/requests` log (trace id + latency breakdown), and the
//! per-window `/debug/timeline` NDJSON series, SLO verdicts included —
//! both served from each shard's `ServeObs` handle. Each shard's trace
//! stream lands in a profiling ring.
//!
//! Run with:
//! `cargo run --release --example serve_demo [requests] [--submitters N] [--batch N] [--shards N] [--chaos-serve SEED] [--telemetry] [--addr HOST:PORT]`
//!
//! * `requests` — total requests to push (default 48),
//! * `--submitters N` — concurrent submitter threads (default 4),
//! * `--batch N` — batch size threshold per shard (default 8),
//! * `--shards N` — independent farm shards behind deterministic
//!   request routing (default 1),
//! * `--chaos-serve SEED` — self-healing drill: arm a seeded
//!   [`ServeFaultPlan`] that kills one shard on its first batch, then
//!   prove the failure answered every ticket terminally (watchdogged —
//!   a hung waiter fails the run), traffic failed over to the
//!   survivors, the supervisor restarted the dead shard, and the
//!   revived shard served again. Forces ≥ 2 shards,
//! * `--cache` — result-cache drill: run a repeat-heavy workload through
//!   a service with the content-addressed result cache on, prove that
//!   concurrent identical requests coalesce onto one in-flight leader,
//!   that repeats are answered from the cache, and that every answer is
//!   bit-identical, and that the scraped `/debug/timeline` counts
//!   every hit in its merged `serve.cache_hit` windows; under
//!   `--telemetry` writes shard 0's stream to
//!   `target/serve_cache_telemetry.ndjson` and that timeline body to
//!   `target/serve_cache_timeline.ndjson` for the CI cache gates,
//! * `--telemetry` — write shard 0's full trace stream (request spans,
//!   serve_batch/batch/job spans, metrics) to
//!   `target/serve_telemetry.ndjson` for `obsctl trace`
//!   (`target/serve_chaos_telemetry.ndjson` under `--chaos-serve`), and
//!   — outside chaos mode — the scraped `/debug/timeline` body to
//!   `target/serve_timeline.ndjson` for `obsctl timeline` / `anomaly`,
//! * `--addr HOST:PORT` — where to bind the endpoint
//!   (default `127.0.0.1:0`, an ephemeral port printed at startup).
//!
//! The demo deliberately includes one hopeless deadline (to show an
//! expiry burning SLO budget), prints the per-request latency breakdown
//! table, self-scrapes every route (the SLO window view among them),
//! then drains gracefully.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use canti::farm::{FarmObserver, JobSpec, ProbeMode, Receptor};
use canti::obs::{
    parse_ndjson, Exposition, ExpositionServer, Json, Metrics, ObsClock, Readiness, Registry,
    RingCollector, ServeObs, Tracer, WallClock,
};
use canti::serve::{
    CacheConfig, Disposition, RejectReason, ServeConfig, ServeFaultPlan, ServeResponse,
    ShardTicket, ShardedConfig, ShardedService, SupervisorConfig,
};
use canti::units::{Molar, Seconds};

fn usage() -> ! {
    eprintln!(
        "usage: serve_demo [requests] [--submitters N] [--batch N] [--shards N] [--chaos-serve SEED] [--cache] [--telemetry] [--addr HOST:PORT]\n\
         pushes concurrent assay requests through the sharded batching serve layer"
    );
    std::process::exit(2);
}

fn request(i: usize) -> JobSpec {
    JobSpec::StaticDoseResponse {
        receptor: Receptor::AntiIgg,
        concentration: Molar::from_nanomolar(0.5 * 10f64.powf(3.0 * (i % 16) as f64 / 15.0)),
        baseline: Seconds::new(30.0),
        association: Seconds::new(120.0),
        wash: Seconds::new(60.0),
        dt: Seconds::new(1.0),
        averaging: 32,
    }
}

/// One ring + wall-clock observer per shard, with the per-shard metrics
/// sources for the merged exposition view.
#[allow(clippy::type_complexity)]
fn build_observers(
    shards: usize,
) -> (
    Vec<FarmObserver>,
    Vec<Arc<RingCollector>>,
    Vec<(String, Arc<Metrics>)>,
) {
    let mut observers = Vec::with_capacity(shards);
    let mut rings = Vec::with_capacity(shards);
    let mut sources: Vec<(String, Arc<Metrics>)> = Vec::with_capacity(shards);
    for s in 0..shards {
        let ring = Arc::new(RingCollector::new(1 << 15));
        let clock: Arc<dyn ObsClock> = Arc::new(WallClock::new());
        let tracer = Tracer::new(Arc::clone(&ring), Arc::clone(&clock));
        let observer = FarmObserver::from_parts(Arc::new(Metrics::new()), tracer, clock);
        sources.push((s.to_string(), Arc::clone(observer.metrics())));
        observers.push(observer);
        rings.push(ring);
    }
    (observers, rings, sources)
}

/// The observed shards' debug handles, labelled by shard index, for
/// [`Exposition::shards`].
fn labelled(obs: Vec<Option<ServeObs>>) -> Vec<(String, ServeObs)> {
    obs.into_iter()
        .enumerate()
        .filter_map(|(s, o)| o.map(|o| (s.to_string(), o)))
        .collect()
}

/// Waits every ticket on a helper thread under a hard timeout: in a
/// chaos drill, a hung waiter is exactly the bug the self-healing layer
/// exists to prevent, so a hang fails the run instead of wedging it.
fn wait_all_watchdog(tickets: Vec<ShardTicket>, label: &str) -> Vec<ServeResponse> {
    let (tx, rx) = std::sync::mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let responses: Vec<ServeResponse> = tickets.into_iter().map(ShardTicket::wait).collect();
        let _ = tx.send(responses);
    });
    let responses = rx
        .recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|_| {
            panic!("{label}: a ticket hung — a waiter never got a terminal answer")
        });
    waiter.join().expect("watchdog waiter thread");
    responses
}

/// The `--chaos-serve` drill: kill one shard under load, prove every
/// ticket still resolves, traffic fails over, the supervisor restarts
/// the shard, and the revived shard serves again.
fn run_chaos(batch: usize, shards: usize, seed: u64, telemetry: bool) {
    let shards = shards.max(2); // failover needs somewhere to go
    let plan = ServeFaultPlan::generate(seed, shards);
    let victim = plan.events[0].shard;
    println!(
        "chaos-serve: seed {seed:#x} kills shard {victim}'s first batch ({shards} shards, batch<={batch})"
    );

    let (observers, rings, sources) = build_observers(shards);
    let shard0_metrics = Arc::clone(&sources[0].1);
    let service = Arc::new(ShardedService::start_chaos(
        ShardedConfig {
            shards,
            base: ServeConfig {
                max_batch: batch,
                linger_ns: 500_000, // 0.5 ms
                threads: 0,
                ..ServeConfig::default()
            },
        },
        observers,
        &plan,
        SupervisorConfig {
            // long enough that wave 1's remaining completions and the
            // whole failover wave land while the victim is down, short
            // enough to watch it come back
            backoff_base_ns: 1_000_000_000, // 1 s
        },
    ));

    // Wave 1: flood every shard; the victim forms its first batch and
    // dies under it. Every ticket must still resolve terminally.
    let wave1: Vec<ShardTicket> = (0..2 * shards * batch)
        .filter_map(|i| service.submit(request(i)).ok())
        .collect();
    let admitted1 = wave1.len();
    let responses = wait_all_watchdog(wave1, "chaos-serve wave 1");
    let failed1 = responses
        .iter()
        .filter(|r| matches!(r.disposition, Disposition::Failed { .. }))
        .count();
    println!(
        "chaos-serve wave 1: {admitted1} admitted, {} completed, {failed1} failed terminally",
        responses.len() - failed1
    );
    assert!(
        failed1 > 0,
        "the kill must fail at least the victim's first batch"
    );

    // Wave 2: the victim is down for the whole backoff; keep submitting
    // until the failover rule reroutes at least one victim-primary
    // request onto a survivor.
    let mut wave2 = Vec::new();
    for i in 0..64 * shards {
        if service.failovers() > 0 {
            break;
        }
        match service.submit(request(i)) {
            Ok(t) => wave2.push(t),
            Err(RejectReason::ShardFailed) => {} // raced the failure
            Err(reason) => panic!("chaos-serve wave 2: unexpected rejection: {reason}"),
        }
    }
    assert!(
        service.failovers() > 0,
        "no failover landed while shard {victim} was down"
    );
    let responses = wait_all_watchdog(wave2, "chaos-serve wave 2");
    assert!(
        responses
            .iter()
            .all(|r| !matches!(r.disposition, Disposition::Expired { .. })),
        "failover wave must answer by completion or terminal failure"
    );
    println!(
        "chaos-serve wave 2: {} answered with shard {victim} down, {} failovers",
        responses.len(),
        service.failovers()
    );

    // Recovery: the wall-clock supervisor revives the victim after its
    // backoff; wait for the health cell to leave Down.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !service.healths()[victim].is_live() {
        assert!(
            Instant::now() < deadline,
            "shard {victim} never restarted: {:?}",
            service.healths()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    println!(
        "chaos-serve: shard {victim} restarted ({} restart(s)), healths now {:?}",
        service.restarts(),
        service
            .healths()
            .iter()
            .map(|h| h.label())
            .collect::<Vec<_>>()
    );

    // Wave 3: re-admission — the revived shard takes its routed share
    // and everything completes (the kill event already fired).
    let wave3: Vec<ShardTicket> = (0..2 * shards * batch)
        .map(|i| service.submit(request(i)).expect("revived service admits"))
        .collect();
    let responses = wait_all_watchdog(wave3, "chaos-serve wave 3");
    assert!(
        responses.iter().all(|r| r.disposition.is_ok()),
        "post-restart requests must all complete"
    );
    println!(
        "chaos-serve wave 3: {} completed after restart",
        responses.len()
    );

    let stats = service.stats();
    assert!(stats.failed >= failed1 as u64);
    assert!(service.restarts() >= 1);
    println!(
        "chaos-serve: {} failovers, {} restarts | {}",
        service.failovers(),
        service.restarts(),
        stats.render()
    );

    if telemetry {
        // shard 0 always survives generate()'s kill (the victim is never
        // shard 0), so its stream is gap-free and carries the failover
        // events and counters the CI gate reads
        let mut ndjson = rings[0].to_ndjson();
        ndjson.push_str(&shard0_metrics.to_ndjson());
        let path = "target/serve_chaos_telemetry.ndjson";
        std::fs::write(path, &ndjson).expect("write chaos telemetry artifact");
        println!(
            "telemetry: {} NDJSON records ({} trace events dropped) -> {path}",
            ndjson.lines().count(),
            rings[0].dropped()
        );
    }

    let per_shard = Arc::try_unwrap(service)
        .expect("all waiters joined")
        .shutdown();
    for (s, stats) in per_shard.iter().enumerate() {
        println!("shard {s}: {}", stats.render());
    }
    println!("chaos-serve: every ticket answered terminally; self-healing drill passed");
}

/// The `--cache` drill: a repeat-heavy workload through a cached sharded
/// service, proving (a) concurrent identical requests coalesce onto one
/// in-flight leader, (b) repeats of an already-served spec are answered
/// from the content-addressed result cache, and (c) every answer —
/// computed, coalesced or cached — carries bit-identical payloads.
fn run_cache(shards: usize, telemetry: bool) {
    let (observers, rings, sources) = build_observers(shards);
    let shard0_metrics = Arc::clone(&sources[0].1);
    let service = Arc::new(ShardedService::start_observed(
        ShardedConfig {
            shards,
            base: ServeConfig {
                max_batch: 16,
                // long linger: the coalescing burst below must ride one
                // queued leader, so no batch may fire mid-burst
                linger_ns: 20_000_000, // 20 ms
                threads: 0,
                cache: Some(CacheConfig::default()),
                ..ServeConfig::default()
            },
        },
        observers,
    ));

    // /healthz with live result-cache counters, summed across shards.
    let cache_source = Arc::downgrade(&service);
    let readiness = Readiness {
        shards,
        pool_threads: service.pool_threads().first().copied().unwrap_or(0),
        cache: Some(Arc::new(move || {
            cache_source
                .upgrade()
                .and_then(|s| s.cache_stats())
                .map(|c| [c.hits, c.misses, c.insertions, c.evictions, c.entries])
                .unwrap_or_default()
        })),
        ..Readiness::default()
    };
    let exposition = Exposition {
        shards: labelled(service.obs()),
        readiness: Some(readiness),
        ..Exposition::new(Registry::Sharded(sources))
    };
    let server = ExpositionServer::bind("127.0.0.1:0", exposition).expect("bind server");
    println!(
        "cache drill: {shards} shard(s), capacity {} per shard, http://{}",
        CacheConfig::default().capacity,
        server.local_addr()
    );

    // Phase 1 — coalescing: a burst of identical deadline-free requests.
    // Each shard's first arrival queues as the leader; every later
    // identical arrival on that shard rides it instead of occupying a
    // queue slot. The linger is far longer than the burst takes to
    // submit, so the leaders are still queued while the burst lands.
    let burst = (4 * shards).max(24);
    let tickets: Vec<ShardTicket> = (0..burst)
        .map(|_| service.submit(request(0)).expect("admitted"))
        .collect();
    let responses = wait_all_watchdog(tickets, "cache drill burst");
    let burst_bits: Vec<Vec<(&'static str, u64)>> = responses
        .iter()
        .map(|r| {
            let out = r
                .disposition
                .output()
                .unwrap_or_else(|| panic!("burst request {} must complete: {r}", r.request_id));
            out.metrics.iter().map(|&(n, v)| (n, v.to_bits())).collect()
        })
        .collect();
    assert!(
        burst_bits.windows(2).all(|w| w[0] == w[1]),
        "every coalesced answer must be bit-identical to its leader's"
    );
    let after_burst = service.stats();
    println!(
        "cache drill burst: {burst} identical requests -> {} coalesced onto {} leader(s)",
        after_burst.coalesced,
        burst as u64 - after_burst.coalesced
    );
    assert!(
        after_burst.coalesced > 0,
        "a {burst}-deep identical burst over {shards} shard(s) must coalesce"
    );

    // Phase 2 — cache hits: sequential repeats of one spec. Each shard
    // misses at most once (warming its own cache); every later repeat
    // routed to a warmed shard is answered at admission, bit-identically
    // to the computed original.
    let repeats = 8 + 2 * shards;
    let mut baseline: Option<Vec<(&'static str, u64)>> = None;
    let mut hits = 0u64;
    for i in 0..repeats {
        let ticket = service.submit(request(1)).expect("admitted");
        let response = ticket.wait();
        let out = response
            .disposition
            .output()
            .unwrap_or_else(|| panic!("repeat {i} must complete: {response}"));
        let bits: Vec<(&'static str, u64)> =
            out.metrics.iter().map(|&(n, v)| (n, v.to_bits())).collect();
        match &baseline {
            None => baseline = Some(bits),
            Some(first) => assert_eq!(
                first, &bits,
                "cached response bits must equal the recomputed original"
            ),
        }
        if matches!(response.disposition, Disposition::CacheHit { .. }) {
            hits += 1;
        }
    }
    println!("cache drill repeats: {repeats} sequential repeats -> {hits} cache hits");
    assert!(
        hits > 0,
        "{repeats} sequential repeats over {shards} warmed shard(s) must hit"
    );

    let stats = service.stats();
    let cache = service.cache_stats().expect("cache is enabled");
    println!(
        "cache drill: hits={} misses={} insertions={} evictions={} entries={} | {}",
        cache.hits,
        cache.misses,
        cache.insertions,
        cache.evictions,
        cache.entries,
        stats.render()
    );
    assert!(stats.cache_hits > 0 && stats.coalesced > 0);

    // The same counters over HTTP: /healthz carries the cache object,
    // /debug/requests the per-request cache_hit / coalesced outcomes.
    let health = server.scrape("/healthz").expect("self-scrape /healthz");
    println!("--- /healthz ---\n{health}");
    assert!(
        health.contains("\"cache\":{\"hits\":"),
        "healthz must carry live cache counters: {health}"
    );
    let debug_requests = server
        .scrape("/debug/requests")
        .expect("self-scrape /debug/requests");
    assert!(
        debug_requests.contains("\"outcome\":\"cache_hit\"")
            && debug_requests.contains("\"outcome\":\"coalesced\""),
        "request log must record cache_hit and coalesced outcomes"
    );
    // The threaded hit path reaches the timeline: the merged
    // serve.cache_hit windows count every hit the service answered.
    let debug_timeline = server
        .scrape("/debug/timeline")
        .expect("self-scrape /debug/timeline");
    let timeline_hits: u64 = parse_ndjson(&debug_timeline)
        .expect("/debug/timeline is NDJSON")
        .iter()
        .filter(|r| {
            r.get("shard").and_then(Json::as_str) == Some("merged")
                && r.get("series").and_then(Json::as_str) == Some("serve.cache_hit")
        })
        .filter_map(|r| r.get("count").and_then(Json::as_u64))
        .sum();
    println!("cache drill timeline: merged serve.cache_hit x{timeline_hits}");
    assert_eq!(
        timeline_hits, stats.cache_hits,
        "merged serve.cache_hit windows vs the service's hit tally"
    );

    if telemetry {
        // shard 0's stream is self-contained (its own seq sequence) and
        // carries the cache_hit / cache_miss / coalesced events the CI
        // cache-effectiveness gate reads
        let mut ndjson = rings[0].to_ndjson();
        ndjson.push_str(&shard0_metrics.to_ndjson());
        let path = "target/serve_cache_telemetry.ndjson";
        std::fs::write(path, &ndjson).expect("write cache telemetry artifact");
        println!(
            "telemetry: {} NDJSON records ({} trace events dropped) -> {path}",
            ndjson.lines().count(),
            rings[0].dropped()
        );
        let timeline_path = "target/serve_cache_timeline.ndjson";
        std::fs::write(timeline_path, &debug_timeline).expect("write cache timeline artifact");
        println!(
            "telemetry: {} timeline records -> {timeline_path}",
            debug_timeline.lines().count()
        );
    }

    server.shutdown();
    let per_shard = Arc::try_unwrap(service)
        .expect("all waiters joined")
        .shutdown();
    for (s, stats) in per_shard.iter().enumerate() {
        println!("shard {s}: {}", stats.render());
    }
    println!("cache drill passed: coalesced and cached answers are bit-identical");
}

fn main() {
    let mut requests = 48usize;
    let mut submitters = 4usize;
    let mut batch = 8usize;
    let mut shards = 1usize;
    let mut chaos_serve: Option<u64> = None;
    let mut cache_drill = false;
    let mut telemetry = false;
    let mut addr = "127.0.0.1:0".to_owned();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--submitters" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => submitters = n,
                _ => usage(),
            },
            "--batch" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => batch = n,
                _ => usage(),
            },
            "--shards" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => shards = n,
                _ => usage(),
            },
            "--chaos-serve" => match it.next().and_then(|v| v.parse().ok()) {
                Some(seed) => chaos_serve = Some(seed),
                None => usage(),
            },
            "--cache" => cache_drill = true,
            "--telemetry" => telemetry = true,
            "--addr" => match it.next() {
                Some(a) => addr = a.clone(),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            n => match n.parse() {
                Ok(v) if v > 0 => requests = v,
                _ => usage(),
            },
        }
    }

    if let Some(seed) = chaos_serve {
        run_chaos(batch, shards, seed, telemetry);
        return;
    }
    if cache_drill {
        run_cache(shards, telemetry);
        return;
    }

    // Wall-clock observers (one per shard): this is a service, latencies
    // should be real. Each shard records into its own registry; the
    // exposition endpoint merges them under per-shard labels.
    let (observers, rings, sources) = build_observers(shards);

    let service = Arc::new(ShardedService::start_observed(
        ShardedConfig {
            shards,
            base: ServeConfig {
                max_batch: batch,
                linger_ns: 500_000, // 0.5 ms
                threads: 0,
                ..ServeConfig::default()
            },
        },
        observers,
    ));

    // The debug routes read the live serve state: per-shard request logs
    // and timelines, plus the readiness snapshot behind /healthz.
    // live per-shard health in the /healthz body; Weak so the readiness
    // closure doesn't keep the service alive past its shutdown
    let health_source = Arc::downgrade(&service);
    let readiness = Readiness {
        shards,
        pool_threads: service.pool_threads().first().copied().unwrap_or(0),
        shard_health: Some(Arc::new(move || {
            health_source
                .upgrade()
                .map(|s| s.healths().iter().map(|h| h.label()).collect())
                .unwrap_or_default()
        })),
        ..Readiness::default()
    };
    let draining = Arc::clone(&readiness.draining);
    let shard0_metrics = Arc::clone(&sources[0].1);
    let exposition = Exposition {
        shards: labelled(service.obs()),
        readiness: Some(readiness),
        ..Exposition::new(Registry::Sharded(sources))
    };
    let server = ExpositionServer::bind(&addr, exposition).expect("bind exposition server");
    println!(
        "serving /metrics /healthz /debug/requests /debug/timeline on http://{}  \
         ({requests} requests, {submitters} submitters, batch<={batch}, {shards} shard(s))",
        server.local_addr()
    );

    let workers: Vec<_> = (0..submitters)
        .map(|w| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let mut answered: Vec<ServeResponse> = Vec::new();
                for i in (w..requests).step_by(submitters) {
                    match service.submit(request(i)) {
                        Ok(ticket) => {
                            let response = ticket.wait();
                            assert!(response.disposition.is_ok(), "{response}");
                            answered.push(response);
                        }
                        Err(reason) => println!("request {i} rejected: {reason}"),
                    }
                }
                answered
            })
        })
        .collect();
    let mut answered: Vec<ServeResponse> = workers
        .into_iter()
        .flat_map(|h| h.join().expect("submitter"))
        .collect();
    answered.sort_by_key(|r| r.request_id);
    println!("{}/{requests} requests completed", answered.len());

    // Per-request latency attribution: where each request's time went.
    println!(
        "\n{:>7} {:>18} {:>5} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "request", "trace", "batch", "latency_ns", "queue_ns", "form_ns", "exec_ns", "respond_ns"
    );
    for r in &answered {
        if let Disposition::Completed {
            batch,
            latency_ns,
            breakdown,
            ..
        } = &r.disposition
        {
            assert_eq!(breakdown.total_ns(), *latency_ns, "phases tile the latency");
            println!(
                "{:>7} {:>18x} {:>5} {:>12} {:>12} {:>12} {:>12} {:>12}",
                r.request_id,
                r.trace,
                batch,
                latency_ns,
                breakdown.queue_ns,
                breakdown.form_ns,
                breakdown.exec_ns,
                breakdown.respond_ns
            );
        }
    }

    // One hopeless deadline so the expiry path shows up in the metrics
    // and burns SLO budget. A relative deadline of 0 makes the absolute
    // deadline the admission instant itself, and every batch-formation
    // path expires the queue first (`now >= deadline`), so this request
    // expires deterministically — it cannot race the batcher.
    let ticket = service
        .submit_with_deadline(JobSpec::Probe(ProbeMode::Draws(2)), 0)
        .expect("admitted");
    println!(
        "\ndeadline demo: request {} routed to shard {}",
        ticket.id(),
        ticket.shard()
    );
    match ticket.wait().disposition {
        Disposition::Expired { waited_ns, .. } => {
            println!("deadline demo: request expired after {waited_ns} ns");
        }
        other => panic!("deadline demo: a 0 ns deadline must expire, got {other:?}"),
    }

    // The debug endpoints serve the live state over HTTP.
    let debug_requests = server
        .scrape("/debug/requests")
        .expect("self-scrape /debug/requests");
    println!(
        "\n--- /debug/requests (first lines of {}) ---",
        debug_requests.lines().count()
    );
    for line in debug_requests.lines().take(4) {
        println!("{line}");
    }
    // The per-window timeline: per-shard series followed by the merged
    // view, one fixed-field NDJSON record per (series, window).
    let debug_timeline = server
        .scrape("/debug/timeline")
        .expect("self-scrape /debug/timeline");
    println!(
        "\n--- /debug/timeline (first lines of {}) ---",
        debug_timeline.lines().count()
    );
    for line in debug_timeline.lines().take(6) {
        println!("{line}");
    }
    assert!(
        debug_timeline.contains("\"shard\":\"merged\"")
            && debug_timeline.contains("\"series\":\"serve.completed\""),
        "timeline route serves merged serve series"
    );
    // The SLO verdicts are two of its series, per shard and merged
    // across shards: every answered request and the expiry above land
    // in slo.good or slo.breached.
    let merged_verdicts: Vec<&str> = debug_timeline
        .lines()
        .filter(|l| {
            l.contains("\"shard\":\"merged\",\"series\":\"slo.good\"")
                || l.contains("\"shard\":\"merged\",\"series\":\"slo.breached\"")
        })
        .collect();
    println!("\n--- merged SLO verdict windows ---");
    for line in &merged_verdicts {
        println!("{line}");
    }
    assert!(
        !merged_verdicts.is_empty(),
        "terminal requests must fill the merged slo windows: {debug_timeline}"
    );

    let health = server.scrape("/healthz").expect("self-scrape /healthz");
    println!("--- /healthz ---\n{health}");
    assert!(
        health.starts_with("{\"status\":\"ok\"")
            && health.contains(&format!("\"shards\":{shards}")),
        "health endpoint answers with the readiness body: {health}"
    );

    // Flip the draining flag before shutdown so scrapers see it: the
    // route answers 503 with the draining body, so inspect the raw
    // response instead of the 200-only `scrape`.
    draining.store(true, Ordering::SeqCst);
    let (head, health) = server
        .scrape_response("/healthz")
        .expect("self-scrape /healthz while draining");
    assert!(
        head.contains(" 503 ") && health.starts_with("{\"status\":\"draining\""),
        "draining flag reaches /healthz as a 503: {head} {health}"
    );

    let per_shard = Arc::try_unwrap(service)
        .expect("submitters have exited")
        .shutdown();
    for (s, stats) in per_shard.iter().enumerate() {
        println!("shard {s}: {}", stats.render());
    }

    if telemetry {
        // shard 0's stream is self-contained (its own seq sequence), so
        // obsctl trace can gate on it without cross-shard stitching
        let mut ndjson = rings[0].to_ndjson();
        ndjson.push_str(&shard0_metrics.to_ndjson());
        let path = "target/serve_telemetry.ndjson";
        std::fs::write(path, &ndjson).expect("write serve telemetry artifact");
        println!(
            "telemetry: {} NDJSON records ({} trace events dropped) -> {path}",
            ndjson.lines().count(),
            rings[0].dropped()
        );

        // The timeline artifact is the scraped route body verbatim, so
        // `obsctl timeline` / `obsctl anomaly` gate exactly what a live
        // scraper would have seen.
        let timeline_path = "target/serve_timeline.ndjson";
        std::fs::write(timeline_path, &debug_timeline).expect("write serve timeline artifact");
        println!(
            "telemetry: {} timeline records -> {timeline_path}",
            debug_timeline.lines().count()
        );
    }

    let exposition = server.scrape("/metrics").expect("self-scrape /metrics");
    let serve_lines: Vec<&str> = exposition
        .lines()
        .filter(|l| l.starts_with("serve_") || l.starts_with("slo_"))
        .collect();
    println!("\n--- /metrics (serve_* and slo_* series, per shard) ---");
    for line in serve_lines {
        println!("{line}");
    }

    server.shutdown();
    println!("server drained and shut down");
}
