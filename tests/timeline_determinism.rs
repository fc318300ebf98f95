//! The determinism contract of the telemetry time-dimension: per-window
//! timelines (SLO verdicts included) and the request logs, driven by the
//! same scripted virtual-clock style `shard_determinism.rs` uses.
//!
//! The script is **solo-paced** — at most one request is ever queued, so
//! every batch holds exactly one request at any shard count and the
//! merged delta series are fully shard-count invariant (a burst would
//! legitimately change queue waits when re-partitioned). The contract:
//!
//! 1. **Across worker counts, at a fixed shard count** — the composed
//!    `/debug/timeline` NDJSON body and every shard's request log are
//!    bit-identical at 1/2/8 farm workers.
//! 2. **Across shard counts** — the merged [`SeriesKind::Delta`] series
//!    (`slo.good` and `slo.breached` among them) and the union of the
//!    requests the logs keep are invariant at 1/2/4 shards (sample-kind
//!    series like queue depth legitimately differ).
//! 3. The merged `serve.*` delta lines match a hand-computed golden.
//! 4. `obsctl timeline --spans` recomputes the request-latency windows
//!    offline from each shard's span artifact and they match the live
//!    windows exactly, also when a killed shard abandons requests and
//!    the cache answers others.
//! 5. The SLO verdict series account for every terminal request, on a
//!    script extended with a coalesced pair, a burst that overfills the
//!    queue and a cache hit: one verdict per answered request, equal to
//!    the registry counters, each in its terminal delta's window, and
//!    the burst's overflow is refused at the door.
//! 6. With the cache on, that extended script's merged `serve.*` and
//!    `slo.*` delta lines match a golden taken at one shard.
//! 7. The request logs agree with the responses: one row per response,
//!    carrying its trace, outcome, latency and phases.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use canti::farm::{dose_response_sweep, FarmObserver, JobSpec, ProbeMode};
use canti::obs::timeline::{config_line, point_line};
use canti::obs::{
    merge_timelines, Metrics, ObsClock, RequestRecord, RingCollector, SeriesKind, SeriesPoint,
    SeriesWindows, SloConfig, TimelineConfig, Tracer, VirtualClock,
};
use canti::serve::{
    route_request, CacheConfig, Disposition, RejectReason, ServeConfig, ServeFaultPlan,
    ServeResponse, ShardedConfig, ShardedEngine, SupervisorConfig,
};
use canti_obsctl::{timeline_report, TimelineOptions};

const WORKER_GRID: [usize; 3] = [1, 2, 8];
const SHARD_GRID: [usize; 3] = [1, 2, 4];

enum Step {
    Submit(JobSpec),
    SubmitDeadline(JobSpec, u64),
    Pump,
    AdvanceNs(u64),
    Drain,
}

/// The solo-paced arrival script. Fast solos complete 1 100 ns after
/// admission (linger-triggered, under the 2 µs objective), slow solos
/// wait 2 600 ns (SLO breach), one scripted deadline probe expires
/// (error taint), one straggler is flushed by the drain at zero latency,
/// and a post-drain submission is refused.
fn script() -> Vec<Step> {
    let concentrations: Vec<f64> = (0..6)
        .map(|i| 0.5 * 10f64.powf(0.4 * f64::from(i)))
        .collect();
    let jobs = dose_response_sweep(&concentrations);
    assert_eq!(jobs.len(), 6);

    let mut steps = Vec::new();
    // Four fast solos: r0..r3 admitted at t = 0, 1100, 2200, 3300.
    for job in &jobs[0..4] {
        steps.push(Step::Submit(job.clone()));
        steps.push(Step::AdvanceNs(1_100));
        steps.push(Step::Pump);
    }
    // Two slow solos: r4 at t=4400, r5 at t=7000, each waiting 2600 ns.
    for job in &jobs[4..6] {
        steps.push(Step::Submit(job.clone()));
        steps.push(Step::AdvanceNs(2_600));
        steps.push(Step::Pump);
    }
    // r6 at t=9600: deadline 200 ns, pumped 250 ns later — expires alone
    // in its (empty) shard at any shard count.
    steps.push(Step::SubmitDeadline(
        JobSpec::Probe(ProbeMode::Draws(3)),
        200,
    ));
    steps.push(Step::AdvanceNs(250));
    steps.push(Step::Pump);
    // r7 at t=9850: flushed by the shutdown drain at zero latency, then
    // a post-drain refusal.
    steps.push(Step::Submit(jobs[0].clone()));
    steps.push(Step::Drain);
    steps.push(Step::Submit(JobSpec::Probe(ProbeMode::Value(1.0))));
    steps
}

fn config(workers: usize) -> ServeConfig {
    ServeConfig {
        queue_capacity: 64,
        max_batch: 3,
        linger_ns: 1_000,
        batch_seed: 0x5AAD_D15C,
        threads: workers,
        slo: Default::default(),
        // 500 ns windows spread the script over ~20 windows so eviction
        // order, window naming and merging all get exercised
        timeline: TimelineConfig {
            window_ns: 500,
            max_windows: 64,
        },
        cache: None,
    }
}

/// Everything the timeline contract observes about one scripted run.
struct ObservedRun {
    admissions: Vec<Result<u64, RejectReason>>,
    responses: Vec<ServeResponse>,
    /// The composed `/debug/timeline` NDJSON body (config line, per-shard
    /// point lines, merged point lines) — byte-compatible with what
    /// `canti_obs::serve` renders for the same recorders.
    body: String,
    /// Each shard's timeline snapshot, in shard order.
    per_shard: Vec<Vec<SeriesWindows>>,
    merged: Vec<SeriesWindows>,
    /// Each shard's metrics registry, in shard order.
    metrics: Vec<Arc<Metrics>>,
    /// Sorted union of `(request, outcome, latency_ns)` over what the
    /// shards' request logs keep.
    kept_union: Vec<(u64, &'static str, u64)>,
    /// Every row the shards' request logs keep, in shard order.
    records: Vec<RequestRecord>,
    /// Per-shard request logs, one JSON record per line.
    request_ndjson: Vec<String>,
    /// Per-shard raw span/event NDJSON from the ring collectors.
    span_ndjson: Vec<String>,
}

fn observed_run(workers: usize, shards: usize) -> ObservedRun {
    run(
        config(workers),
        shards,
        script(),
        &ServeFaultPlan::default(),
        SupervisorConfig::default(),
    )
}

/// Runs `steps` on `shards` observed shards sharing one virtual clock,
/// with `plan` armed under `supervision`.
fn run(
    base: ServeConfig,
    shards: usize,
    steps: Vec<Step>,
    plan: &ServeFaultPlan,
    supervision: SupervisorConfig,
) -> ObservedRun {
    let clock = Arc::new(VirtualClock::new());
    let mut observers = Vec::new();
    let mut rings = Vec::new();
    for _ in 0..shards {
        let ring = Arc::new(RingCollector::new(1 << 12));
        let tracer = Tracer::new(Arc::clone(&ring), Arc::clone(&clock) as Arc<dyn ObsClock>);
        observers.push(FarmObserver::from_parts(
            Arc::new(Metrics::new()),
            tracer,
            Arc::clone(&clock) as Arc<dyn ObsClock>,
        ));
        rings.push(ring);
    }
    let metrics = observers.iter().map(|o| Arc::clone(o.metrics())).collect();
    let mut engine = ShardedEngine::new(
        ShardedConfig { shards, base },
        Arc::clone(&clock) as Arc<dyn ObsClock>,
    )
    .with_supervisor(supervision)
    .with_chaos_plan(plan)
    .with_observers(observers);

    let mut admissions = Vec::new();
    let mut responses = Vec::new();
    for step in steps {
        match step {
            Step::Submit(job) => admissions.push(engine.submit(job)),
            Step::SubmitDeadline(job, d) => {
                admissions.push(engine.submit_with_deadline(job, d));
            }
            Step::Pump => responses.extend(engine.pump()),
            Step::AdvanceNs(ns) => clock.advance_ns(ns),
            Step::Drain => responses.extend(engine.drain()),
        }
    }

    let obs: Vec<_> = engine
        .obs()
        .into_iter()
        .map(|o| o.expect("every shard is observed"))
        .collect();
    let config = obs[0].timeline.config();
    let width = config.width();
    let mut body = config_line(config);
    body.push('\n');
    let mut per_shard = Vec::with_capacity(obs.len());
    for (s, o) in obs.iter().enumerate() {
        let label = s.to_string();
        let snapshot = o.timeline.snapshot();
        for series in &snapshot {
            for p in &series.points {
                body.push_str(&point_line(
                    Some(&label),
                    &series.name,
                    series.kind,
                    width,
                    p,
                ));
                body.push('\n');
            }
        }
        per_shard.push(snapshot);
    }
    let merged = merge_timelines(&per_shard);
    for series in &merged {
        for p in &series.points {
            body.push_str(&point_line(
                Some("merged"),
                &series.name,
                series.kind,
                width,
                p,
            ));
            body.push('\n');
        }
    }

    let mut kept_union: Vec<(u64, &'static str, u64)> = obs
        .iter()
        .flat_map(|o| o.requests.records())
        .map(|r| (r.request, r.outcome, r.latency_ns))
        .collect();
    kept_union.sort_unstable();
    let request_ndjson = obs
        .iter()
        .map(|o| {
            o.requests
                .records()
                .iter()
                .map(|r| r.to_json() + "\n")
                .collect()
        })
        .collect();
    let records = obs.iter().flat_map(|o| o.requests.records()).collect();
    ObservedRun {
        admissions,
        responses,
        body,
        per_shard,
        merged,
        metrics,
        kept_union,
        records,
        request_ndjson,
        span_ndjson: rings.iter().map(|r| r.to_ndjson()).collect(),
    }
}

/// Contract scope 1: at every shard count, the timeline body and each
/// shard's request log are bit-identical across farm worker counts.
#[test]
fn timeline_and_request_logs_are_bit_identical_across_worker_counts() {
    for shards in SHARD_GRID {
        let oracle = observed_run(WORKER_GRID[0], shards);
        for workers in [WORKER_GRID[1], WORKER_GRID[2]] {
            let run = observed_run(workers, shards);
            assert_eq!(
                run.body, oracle.body,
                "/debug/timeline diverged at {workers} workers x {shards} shards"
            );
            assert_eq!(
                run.request_ndjson, oracle.request_ndjson,
                "request logs diverged at {workers} workers x {shards} shards"
            );
        }
    }
}

/// The merged delta series as `name -> points` (sample-kind series are
/// the documented shard-dependent remainder and are excluded).
fn delta_view(merged: &[SeriesWindows]) -> BTreeMap<&str, &[SeriesPoint]> {
    merged
        .iter()
        .filter(|s| s.kind == SeriesKind::Delta)
        .map(|s| (s.name.as_str(), s.points.as_slice()))
        .collect()
}

/// Contract scope 2: across shard counts, the admission stream, every
/// merged delta series (the SLO verdicts included) and the union of
/// kept requests are invariant.
#[test]
fn merged_delta_series_and_kept_set_are_shard_count_invariant() {
    let oracle = observed_run(1, 1);
    assert_eq!(oracle.admissions.len(), 9);
    assert_eq!(
        oracle.admissions.iter().filter(|a| a.is_err()).count(),
        1,
        "exactly the post-drain refusal"
    );
    let deltas = delta_view(&oracle.merged);
    assert!(
        deltas.len() >= 10
            && deltas.contains_key("slo.good")
            && deltas.contains_key("slo.breached"),
        "serve + farm + slo delta series present: {:?}",
        deltas.keys().collect::<Vec<_>>()
    );
    assert_eq!(
        oracle.kept_union.len(),
        8,
        "the logs keep every answered request"
    );
    for shards in [SHARD_GRID[1], SHARD_GRID[2]] {
        let run = observed_run(1, shards);
        assert_eq!(
            run.admissions, oracle.admissions,
            "admission stream diverged at {shards} shards"
        );
        assert_eq!(
            delta_view(&run.merged),
            delta_view(&oracle.merged),
            "merged delta series diverged at {shards} shards"
        );
        assert_eq!(
            run.kept_union, oracle.kept_union,
            "kept request set diverged at {shards} shards"
        );
    }
}

/// Contract scope 3: the merged `serve.*` delta lines match the script's
/// hand-computed expectation, byte for byte and in body order.
#[test]
fn merged_serve_delta_lines_match_the_scripted_golden() {
    // admissions at t = 0, 1100, 2200, 3300, 4400, 7000, 9600, 9850;
    // completions at 1100, 2200, 3300, 4400, 7000, 9600, 9850; the
    // expiry and refusal both land at t=9850 (window 19).
    let golden = [
        r#"{"record":"timeline","shard":"merged","series":"serve.admitted","kind":"delta","window":0,"t_ns":0,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.admitted","kind":"delta","window":2,"t_ns":1000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.admitted","kind":"delta","window":4,"t_ns":2000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.admitted","kind":"delta","window":6,"t_ns":3000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.admitted","kind":"delta","window":8,"t_ns":4000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.admitted","kind":"delta","window":14,"t_ns":7000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.admitted","kind":"delta","window":19,"t_ns":9500,"count":2,"sum":2,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.completed","kind":"delta","window":2,"t_ns":1000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.completed","kind":"delta","window":4,"t_ns":2000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.completed","kind":"delta","window":6,"t_ns":3000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.completed","kind":"delta","window":8,"t_ns":4000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.completed","kind":"delta","window":14,"t_ns":7000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.completed","kind":"delta","window":19,"t_ns":9500,"count":2,"sum":2,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.exec_ns","kind":"delta","window":19,"t_ns":9500,"count":2,"sum":0,"min":0,"max":0}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.expired","kind":"delta","window":19,"t_ns":9500,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.queue_ns","kind":"delta","window":19,"t_ns":9500,"count":2,"sum":2600,"min":0,"max":2600}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.rejected","kind":"delta","window":19,"t_ns":9500,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.request_latency_ns","kind":"delta","window":2,"t_ns":1000,"count":1,"sum":1100,"min":1100,"max":1100}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.request_latency_ns","kind":"delta","window":14,"t_ns":7000,"count":1,"sum":2600,"min":2600,"max":2600}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.request_latency_ns","kind":"delta","window":19,"t_ns":9500,"count":2,"sum":2600,"min":0,"max":2600}"#,
    ];
    for shards in SHARD_GRID {
        let run = observed_run(2, shards);
        assert!(
            run.body
                .starts_with(r#"{"record":"timeline_config","window_ns":500,"max_windows":64}"#),
            "config header at {shards} shards:\n{}",
            run.body.lines().next().unwrap_or_default()
        );
        let mut cursor = 0;
        for line in golden {
            let Some(at) = run.body[cursor..].find(line) else {
                let series = line
                    .split("\"series\":\"")
                    .nth(1)
                    .and_then(|s| s.split('"').next());
                let actual: Vec<&str> = run
                    .body
                    .lines()
                    .filter(|l| {
                        l.contains("\"shard\":\"merged\"")
                            && series.is_some_and(|name| l.contains(name))
                    })
                    .collect();
                panic!(
                    "missing merged golden line at {shards} shards:\n{line}\nactual {} lines:\n{}",
                    series.unwrap_or("?"),
                    actual.join("\n")
                );
            };
            cursor += at + line.len();
        }
    }
}

/// Contract scope 4: `obsctl timeline --spans` recomputes each shard's
/// request-latency windows offline from the raw span artifact and they
/// match the live `/debug/timeline` windows exactly.
#[test]
fn offline_recompute_from_spans_matches_the_live_windows() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    for shards in SHARD_GRID {
        let run = observed_run(1, shards);
        let tl_path = dir.join(format!("canti_timeline_det_{pid}_{shards}.ndjson"));
        std::fs::write(&tl_path, &run.body).expect("write timeline artifact");
        let completed_on: BTreeSet<usize> = run
            .responses
            .iter()
            .filter(|r| matches!(r.disposition, Disposition::Completed { .. }))
            .map(|r| route_request(r.request_id, shards))
            .collect();
        assert!(
            !completed_on.is_empty(),
            "some shard serves a completed request at {shards} shards"
        );
        for &s in &completed_on {
            let sp_path = dir.join(format!(
                "canti_timeline_det_spans_{pid}_{shards}_{s}.ndjson"
            ));
            std::fs::write(&sp_path, &run.span_ndjson[s]).expect("write span artifact");
            let out = timeline_report(
                &tl_path,
                Some(&sp_path),
                &TimelineOptions {
                    shard: s.to_string(),
                    series: vec!["serve.request_latency_ns".to_owned()],
                    json: false,
                },
            )
            .unwrap_or_else(|e| panic!("crosscheck failed at {shards} shards, shard {s}: {e}"));
            assert!(
                out.contains("matches live serve.request_latency_ns"),
                "no match verdict at {shards} shards, shard {s}:\n{out}"
            );
            let _ = std::fs::remove_file(&sp_path);
        }
        let _ = std::fs::remove_file(&tl_path);
    }
}

/// Contract scope 4 where spans and the live latency series part ways:
/// two shards on one virtual clock, the cache on, shard 1 killed before
/// its first batch and restarted 2 µs later, and the six-dose sweep sent
/// twice (submit, 1.1 µs, pump), then drained. Shard 1's killed request
/// closes a span but records no latency, and shard 0 answers two cache
/// hits, which record a 0-ns latency but open no span. Both shards'
/// offline recomputes must still match their live windows.
#[test]
fn offline_recompute_skips_abandoned_requests_and_counts_cache_hits() {
    let concentrations: Vec<f64> = (0..6)
        .map(|i| 0.5 * 10f64.powf(0.4 * f64::from(i)))
        .collect();
    let jobs = dose_response_sweep(&concentrations);
    let mut steps = Vec::new();
    for job in jobs.iter().chain(&jobs) {
        steps.push(Step::Submit(job.clone()));
        steps.push(Step::AdvanceNs(1_100));
        steps.push(Step::Pump);
    }
    steps.push(Step::Drain);
    let run = run(
        accounting_config(),
        2,
        steps,
        &ServeFaultPlan::kill_shard(1, 0),
        SupervisorConfig {
            backoff_base_ns: 2_000,
        },
    );
    assert_eq!(
        run.metrics[1].counter("serve.failed").get(),
        1,
        "shard 1's batch 0 dies"
    );
    assert_eq!(
        run.metrics[0].counter("serve.cache_hit").get(),
        2,
        "shard 0 answers two hits"
    );

    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let tl_path = dir.join(format!("canti_timeline_chaos_{pid}.ndjson"));
    std::fs::write(&tl_path, &run.body).expect("write timeline artifact");
    for (s, spans) in run.span_ndjson.iter().enumerate() {
        let sp_path = dir.join(format!("canti_timeline_chaos_spans_{pid}_{s}.ndjson"));
        std::fs::write(&sp_path, spans).expect("write span artifact");
        let checked = timeline_report(
            &tl_path,
            Some(&sp_path),
            &TimelineOptions {
                shard: s.to_string(),
                series: vec!["serve.request_latency_ns".to_owned()],
                json: false,
            },
        );
        let _ = std::fs::remove_file(&sp_path);
        let out = checked.unwrap_or_else(|e| panic!("crosscheck failed on shard {s}: {e}"));
        assert!(
            out.contains("matches live serve.request_latency_ns"),
            "no match verdict on shard {s}:\n{out}"
        );
    }
    let _ = std::fs::remove_file(&tl_path);
}

/// The solo-paced script with the coalescing and refusal paths spliced
/// in before its final submission: a leader and its coalesced follower
/// answered by one batch, then a burst of three at a queue of two (one
/// refused at the door, two linger into a batch). Under
/// [`accounting_config`] the final submission repeats r0's spec, so the
/// cache answers it.
fn accounting_script() -> Vec<Step> {
    let probe = |v: f64| JobSpec::Probe(ProbeMode::Value(v));
    let mut steps = script();
    let tail = steps.split_off(steps.len() - 3); // r7, drain, refusal
    steps.push(Step::Submit(probe(10.0)));
    steps.push(Step::Submit(probe(10.0)));
    steps.push(Step::AdvanceNs(1_100));
    steps.push(Step::Pump);
    for v in [11.0, 12.0, 13.0] {
        steps.push(Step::Submit(probe(v)));
    }
    steps.push(Step::Pump);
    steps.push(Step::AdvanceNs(1_100));
    steps.push(Step::Pump);
    steps.extend(tail);
    steps
}

/// [`config`] with the cache on, a queue of two and a 2 µs objective,
/// so the slow solos breach on latency.
fn accounting_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 2,
        slo: SloConfig {
            objective_ns: 2_000,
        },
        cache: Some(CacheConfig::default()),
        ..config(1)
    }
}

/// `name`'s per-window counts in one timeline snapshot.
fn counts(snapshot: &[SeriesWindows], name: &str) -> BTreeMap<u64, u64> {
    snapshot
        .iter()
        .filter(|s| s.name == name)
        .flat_map(|s| s.points.iter().map(|p| (p.index, p.count)))
        .collect()
}

/// Contract scope 5: every path that answers a request — batch
/// completion, coalesced follower, cache hit, expiry — records exactly
/// one SLO verdict, in the window of its terminal delta, and the verdict
/// series agree with the registry counters. A refusal at the door
/// answers no admitted request and records no verdict.
#[test]
fn slo_verdicts_account_for_every_terminal_request() {
    for shards in SHARD_GRID {
        let run = run(
            accounting_config(),
            shards,
            accounting_script(),
            &ServeFaultPlan::default(),
            SupervisorConfig::default(),
        );
        let objective_ns = accounting_config().slo.objective_ns;
        let good_expected = run
            .responses
            .iter()
            .filter(|r| match &r.disposition {
                Disposition::Completed { latency_ns, .. }
                | Disposition::CacheHit { latency_ns, .. } => *latency_ns <= objective_ns,
                Disposition::Expired { .. } | Disposition::Failed { .. } => false,
            })
            .count() as u64;
        let mut verdicts = (0, 0);
        for (s, snapshot) in run.per_shard.iter().enumerate() {
            let good = counts(snapshot, "slo.good");
            let breached = counts(snapshot, "slo.breached");
            let shard_good: u64 = good.values().sum();
            let shard_breached: u64 = breached.values().sum();
            assert_eq!(
                (shard_good, shard_breached),
                (
                    run.metrics[s].counter("slo.good").get(),
                    run.metrics[s].counter("slo.breached").get()
                ),
                "verdict series vs registry counters, shard {s} of {shards}"
            );
            verdicts.0 += shard_good;
            verdicts.1 += shard_breached;

            let mut terminal: BTreeMap<u64, u64> = BTreeMap::new();
            for name in ["serve.completed", "serve.expired", "serve.failed"] {
                for (index, n) in counts(snapshot, name) {
                    *terminal.entry(index).or_default() += n;
                }
            }
            let mut scored: BTreeMap<u64, u64> = good;
            for (index, n) in breached {
                *scored.entry(index).or_default() += n;
            }
            assert_eq!(
                scored, terminal,
                "verdicts per window vs terminal deltas per window, shard {s} of {shards}"
            );
        }
        assert_eq!(
            verdicts,
            (good_expected, run.responses.len() as u64 - good_expected),
            "one verdict per terminal request at {shards} shards"
        );

        if shards == 1 {
            let outcomes: BTreeSet<&str> = run.kept_union.iter().map(|&(_, o, _)| o).collect();
            for outcome in ["ok", "coalesced", "cache_hit", "expired"] {
                assert!(
                    outcomes.contains(outcome),
                    "the script reaches the {outcome} path: {outcomes:?}"
                );
            }
            let full = run
                .admissions
                .iter()
                .filter(|a| **a == Err(RejectReason::QueueFull { capacity: 2 }))
                .count();
            assert_eq!(full, 1, "the burst's third request is refused at the door");
            assert_eq!(verdicts.1, 3, "two latency breaches join the expiry");
        }
    }
}

/// The merged `serve.*` and `slo.*` delta lines of [`accounting_script`]
/// under [`accounting_config`] at one shard, where the script reaches
/// the ok, coalesced, cache-hit, expired and refused paths. Unlike
/// [`merged_serve_delta_lines_match_the_scripted_golden`], the cache is
/// on, so the hit's series (`serve.cache_hit`, `serve.cache_ns`,
/// `serve.cache_miss`) are pinned too. The list is exact: every line,
/// in body order, and no other.
#[test]
fn merged_cache_on_delta_lines_match_the_accounting_golden() {
    let golden = [
        r#"{"record":"timeline","shard":"merged","series":"serve.admitted","kind":"delta","window":0,"t_ns":0,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.admitted","kind":"delta","window":2,"t_ns":1000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.admitted","kind":"delta","window":4,"t_ns":2000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.admitted","kind":"delta","window":6,"t_ns":3000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.admitted","kind":"delta","window":8,"t_ns":4000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.admitted","kind":"delta","window":14,"t_ns":7000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.admitted","kind":"delta","window":19,"t_ns":9500,"count":3,"sum":3,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.admitted","kind":"delta","window":21,"t_ns":10500,"count":2,"sum":2,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.admitted","kind":"delta","window":24,"t_ns":12000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.batches","kind":"delta","window":2,"t_ns":1000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.batches","kind":"delta","window":4,"t_ns":2000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.batches","kind":"delta","window":6,"t_ns":3000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.batches","kind":"delta","window":8,"t_ns":4000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.batches","kind":"delta","window":14,"t_ns":7000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.batches","kind":"delta","window":19,"t_ns":9500,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.batches","kind":"delta","window":21,"t_ns":10500,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.batches","kind":"delta","window":24,"t_ns":12000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.cache_hit","kind":"delta","window":24,"t_ns":12000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.cache_miss","kind":"delta","window":0,"t_ns":0,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.cache_miss","kind":"delta","window":2,"t_ns":1000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.cache_miss","kind":"delta","window":4,"t_ns":2000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.cache_miss","kind":"delta","window":6,"t_ns":3000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.cache_miss","kind":"delta","window":8,"t_ns":4000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.cache_miss","kind":"delta","window":14,"t_ns":7000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.cache_miss","kind":"delta","window":19,"t_ns":9500,"count":3,"sum":3,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.cache_miss","kind":"delta","window":21,"t_ns":10500,"count":3,"sum":3,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.cache_ns","kind":"delta","window":24,"t_ns":12000,"count":1,"sum":0,"min":0,"max":0}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.coalesced","kind":"delta","window":19,"t_ns":9500,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.completed","kind":"delta","window":2,"t_ns":1000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.completed","kind":"delta","window":4,"t_ns":2000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.completed","kind":"delta","window":6,"t_ns":3000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.completed","kind":"delta","window":8,"t_ns":4000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.completed","kind":"delta","window":14,"t_ns":7000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.completed","kind":"delta","window":19,"t_ns":9500,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.completed","kind":"delta","window":21,"t_ns":10500,"count":2,"sum":2,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.completed","kind":"delta","window":24,"t_ns":12000,"count":3,"sum":3,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.exec_ns","kind":"delta","window":2,"t_ns":1000,"count":1,"sum":0,"min":0,"max":0}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.exec_ns","kind":"delta","window":4,"t_ns":2000,"count":1,"sum":0,"min":0,"max":0}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.exec_ns","kind":"delta","window":6,"t_ns":3000,"count":1,"sum":0,"min":0,"max":0}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.exec_ns","kind":"delta","window":8,"t_ns":4000,"count":1,"sum":0,"min":0,"max":0}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.exec_ns","kind":"delta","window":14,"t_ns":7000,"count":1,"sum":0,"min":0,"max":0}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.exec_ns","kind":"delta","window":19,"t_ns":9500,"count":1,"sum":0,"min":0,"max":0}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.exec_ns","kind":"delta","window":21,"t_ns":10500,"count":2,"sum":0,"min":0,"max":0}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.exec_ns","kind":"delta","window":24,"t_ns":12000,"count":2,"sum":0,"min":0,"max":0}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.expired","kind":"delta","window":19,"t_ns":9500,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.form_ns","kind":"delta","window":2,"t_ns":1000,"count":1,"sum":0,"min":0,"max":0}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.form_ns","kind":"delta","window":4,"t_ns":2000,"count":1,"sum":0,"min":0,"max":0}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.form_ns","kind":"delta","window":6,"t_ns":3000,"count":1,"sum":0,"min":0,"max":0}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.form_ns","kind":"delta","window":8,"t_ns":4000,"count":1,"sum":0,"min":0,"max":0}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.form_ns","kind":"delta","window":14,"t_ns":7000,"count":1,"sum":0,"min":0,"max":0}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.form_ns","kind":"delta","window":19,"t_ns":9500,"count":1,"sum":0,"min":0,"max":0}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.form_ns","kind":"delta","window":21,"t_ns":10500,"count":2,"sum":0,"min":0,"max":0}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.form_ns","kind":"delta","window":24,"t_ns":12000,"count":2,"sum":0,"min":0,"max":0}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.queue_ns","kind":"delta","window":2,"t_ns":1000,"count":1,"sum":1100,"min":1100,"max":1100}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.queue_ns","kind":"delta","window":4,"t_ns":2000,"count":1,"sum":1100,"min":1100,"max":1100}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.queue_ns","kind":"delta","window":6,"t_ns":3000,"count":1,"sum":1100,"min":1100,"max":1100}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.queue_ns","kind":"delta","window":8,"t_ns":4000,"count":1,"sum":1100,"min":1100,"max":1100}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.queue_ns","kind":"delta","window":14,"t_ns":7000,"count":1,"sum":2600,"min":2600,"max":2600}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.queue_ns","kind":"delta","window":19,"t_ns":9500,"count":1,"sum":2600,"min":2600,"max":2600}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.queue_ns","kind":"delta","window":21,"t_ns":10500,"count":2,"sum":2200,"min":1100,"max":1100}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.queue_ns","kind":"delta","window":24,"t_ns":12000,"count":2,"sum":2200,"min":1100,"max":1100}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.rejected","kind":"delta","window":21,"t_ns":10500,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.rejected","kind":"delta","window":24,"t_ns":12000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.request_latency_ns","kind":"delta","window":2,"t_ns":1000,"count":1,"sum":1100,"min":1100,"max":1100}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.request_latency_ns","kind":"delta","window":4,"t_ns":2000,"count":1,"sum":1100,"min":1100,"max":1100}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.request_latency_ns","kind":"delta","window":6,"t_ns":3000,"count":1,"sum":1100,"min":1100,"max":1100}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.request_latency_ns","kind":"delta","window":8,"t_ns":4000,"count":1,"sum":1100,"min":1100,"max":1100}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.request_latency_ns","kind":"delta","window":14,"t_ns":7000,"count":1,"sum":2600,"min":2600,"max":2600}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.request_latency_ns","kind":"delta","window":19,"t_ns":9500,"count":1,"sum":2600,"min":2600,"max":2600}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.request_latency_ns","kind":"delta","window":21,"t_ns":10500,"count":2,"sum":2200,"min":1100,"max":1100}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.request_latency_ns","kind":"delta","window":24,"t_ns":12000,"count":3,"sum":2200,"min":0,"max":1100}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.respond_ns","kind":"delta","window":2,"t_ns":1000,"count":1,"sum":0,"min":0,"max":0}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.respond_ns","kind":"delta","window":4,"t_ns":2000,"count":1,"sum":0,"min":0,"max":0}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.respond_ns","kind":"delta","window":6,"t_ns":3000,"count":1,"sum":0,"min":0,"max":0}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.respond_ns","kind":"delta","window":8,"t_ns":4000,"count":1,"sum":0,"min":0,"max":0}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.respond_ns","kind":"delta","window":14,"t_ns":7000,"count":1,"sum":0,"min":0,"max":0}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.respond_ns","kind":"delta","window":19,"t_ns":9500,"count":1,"sum":0,"min":0,"max":0}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.respond_ns","kind":"delta","window":21,"t_ns":10500,"count":2,"sum":0,"min":0,"max":0}"#,
        r#"{"record":"timeline","shard":"merged","series":"serve.respond_ns","kind":"delta","window":24,"t_ns":12000,"count":2,"sum":0,"min":0,"max":0}"#,
        r#"{"record":"timeline","shard":"merged","series":"slo.breached","kind":"delta","window":14,"t_ns":7000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"slo.breached","kind":"delta","window":19,"t_ns":9500,"count":2,"sum":2,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"slo.good","kind":"delta","window":2,"t_ns":1000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"slo.good","kind":"delta","window":4,"t_ns":2000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"slo.good","kind":"delta","window":6,"t_ns":3000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"slo.good","kind":"delta","window":8,"t_ns":4000,"count":1,"sum":1,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"slo.good","kind":"delta","window":21,"t_ns":10500,"count":2,"sum":2,"min":1,"max":1}"#,
        r#"{"record":"timeline","shard":"merged","series":"slo.good","kind":"delta","window":24,"t_ns":12000,"count":3,"sum":3,"min":1,"max":1}"#,
    ];
    let run = run(
        accounting_config(),
        1,
        accounting_script(),
        &ServeFaultPlan::default(),
        SupervisorConfig::default(),
    );
    let actual: Vec<&str> = run
        .body
        .lines()
        .filter(|l| {
            l.contains(r#""shard":"merged""#)
                && l.contains(r#""kind":"delta""#)
                && (l.contains(r#""series":"serve."#) || l.contains(r#""series":"slo."#))
        })
        .collect();
    assert_eq!(actual, golden, "merged serve.* and slo.* delta lines");
}

/// Contract scope 7: at every shard count, each response of
/// [`accounting_script`] has exactly one request-log row, under its
/// trace, and the row says what the response says: a completion's batch,
/// latency and four phases, a hit's latency, an expiry's wait as both
/// latency and queue time, and the disposition's label as the outcome —
/// except `coalesced` for a served follower.
#[test]
fn request_log_agrees_with_every_response() {
    for shards in SHARD_GRID {
        let run = run(
            accounting_config(),
            shards,
            accounting_script(),
            &ServeFaultPlan::default(),
            SupervisorConfig::default(),
        );
        assert_eq!(
            run.records.len(),
            run.responses.len(),
            "one row per response at {shards} shards"
        );
        let mut followers = 0;
        for r in &run.responses {
            let rows: Vec<&RequestRecord> = run
                .records
                .iter()
                .filter(|row| row.request == r.request_id)
                .collect();
            let [row] = rows[..] else {
                panic!(
                    "request {} has {} rows at {shards} shards",
                    r.request_id,
                    rows.len()
                );
            };
            let at = format!("request {} at {shards} shards", r.request_id);
            assert_eq!(row.trace, r.trace, "{at}: trace");
            let label = r.disposition.label();
            if row.outcome == "coalesced" {
                assert_eq!(label, "ok", "{at}: only a served follower is coalesced");
                followers += 1;
            } else {
                assert_eq!(row.outcome, label, "{at}: outcome");
            }
            match &r.disposition {
                Disposition::Completed {
                    batch,
                    latency_ns,
                    breakdown,
                    ..
                } => {
                    assert_eq!(row.batch, Some(*batch), "{at}: batch");
                    assert_eq!(row.latency_ns, *latency_ns, "{at}: latency");
                    assert_eq!(
                        (row.queue_ns, row.form_ns, row.exec_ns, row.respond_ns),
                        (
                            breakdown.queue_ns,
                            breakdown.form_ns,
                            breakdown.exec_ns,
                            breakdown.respond_ns
                        ),
                        "{at}: phases"
                    );
                }
                Disposition::CacheHit { latency_ns, .. } => {
                    assert_eq!(row.latency_ns, *latency_ns, "{at}: latency");
                }
                Disposition::Expired { waited_ns, .. } => {
                    assert_eq!(
                        (row.latency_ns, row.queue_ns),
                        (*waited_ns, *waited_ns),
                        "{at}: an expiry's latency is its wait"
                    );
                }
                Disposition::Failed { .. } => {}
            }
        }
        if shards == 1 {
            assert!(followers > 0, "the script serves a coalesced follower");
        }
    }
}
