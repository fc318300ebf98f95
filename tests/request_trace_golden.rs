//! Golden pins for the request-scoped observability surface: a scripted
//! virtual-clock serve run whose `/debug/requests` body, SLO verdict
//! lines of the `/debug/timeline` body and `obsctl trace` rendering are
//! pinned byte-for-byte. The run
//! shares one [`VirtualClock`] between the engine and its observer, so
//! every timestamp, latency phase and trace id in both artifacts is a
//! pure function of the script — any drift in the emission paths shows
//! up as a byte diff here before it reaches an operator's dashboards.
//! A second script overlaps two requests' spans and checks that each
//! keeps its own duration, in the rebuilt trace and in `obsctl timeline
//! --spans`.

use std::sync::Arc;

use canti::farm::{FarmObserver, JobSpec, ProbeMode};
use canti::obs::{
    Exposition, ExpositionServer, Metrics, ObsClock, Registry, RingCollector, SloConfig,
    TimelineConfig, Trace, Tracer, VirtualClock,
};
use canti::serve::{Disposition, ServeConfig, ServeResponse, ShardedConfig, ShardedEngine};
use canti_obsctl::TimelineOptions;

/// Everything the scripted run produces: the responses, the ring's
/// NDJSON trace stream, the live `/debug/requests` body scraped over
/// HTTP, and the `slo.good` / `slo.breached` lines of the scraped
/// `/debug/timeline` body.
struct Scripted {
    responses: Vec<ServeResponse>,
    trace_ndjson: String,
    requests_body: String,
    slo_lines: String,
}

/// A fixed script on a shared virtual clock: two probes size-batched at
/// t=250 (good against the 300 ns objective), one straggler lingering
/// out at t=1400 (breached), then a drain.
fn scripted_observed_run(threads: usize) -> Scripted {
    let ring = Arc::new(RingCollector::new(4096));
    let clock = Arc::new(VirtualClock::new());
    let obs_clock: Arc<dyn ObsClock> = Arc::clone(&clock) as Arc<dyn ObsClock>;
    let tracer = Tracer::new(Arc::clone(&ring), Arc::clone(&obs_clock));
    let metrics = Arc::new(Metrics::new());
    let observer = FarmObserver::from_parts(Arc::clone(&metrics), tracer, Arc::clone(&obs_clock));
    let mut engine = ShardedEngine::new(
        ShardedConfig {
            shards: 1,
            base: ServeConfig {
                max_batch: 2,
                linger_ns: 1_000,
                batch_seed: 0x601D,
                threads,
                slo: SloConfig { objective_ns: 300 },
                timeline: TimelineConfig {
                    window_ns: 1_000,
                    max_windows: 8,
                },
                ..ServeConfig::default()
            },
        },
        Arc::clone(&obs_clock),
    )
    .with_observers(vec![observer]);

    engine.submit(JobSpec::Probe(ProbeMode::Draws(1))).unwrap();
    engine.submit(JobSpec::Probe(ProbeMode::Draws(2))).unwrap();
    clock.advance_ns(250);
    let mut responses = engine.pump();
    engine
        .submit(JobSpec::Probe(ProbeMode::Value(2.0)))
        .unwrap();
    clock.set_ns(1_400);
    responses.extend(engine.pump());
    responses.extend(engine.drain());

    let [requests_body, timeline_body] =
        scrape(&engine, metrics, ["/debug/requests", "/debug/timeline"]);
    let slo_lines = timeline_body
        .lines()
        .filter(|l| l.contains("\"series\":\"slo."))
        .map(|l| format!("{l}\n"))
        .collect();

    Scripted {
        responses,
        trace_ndjson: ring.to_ndjson(),
        requests_body,
        slo_lines,
    }
}

/// The bodies of `routes`, scraped from a debug server over the one
/// observed shard of `engine` and its registry `metrics`.
fn scrape<const N: usize>(
    engine: &ShardedEngine,
    metrics: Arc<Metrics>,
    routes: [&str; N],
) -> [String; N] {
    let obs = engine
        .obs()
        .remove(0)
        .expect("observed engine keeps debug handles");
    let exposition = Exposition {
        shards: vec![("0".to_owned(), obs)],
        ..Exposition::new(Registry::Single(metrics))
    };
    let server = ExpositionServer::bind("127.0.0.1:0", exposition).expect("bind debug server");
    let bodies = routes.map(|route| server.scrape(route).expect("scrape a debug route"));
    server.shutdown();
    bodies
}

/// The `/debug/requests` body, byte for byte: shard label first, fixed
/// field order, rows sorted by global request id, trace ids the salted
/// splitmix64 of the admission id, phases tiling each latency.
const GOLDEN_REQUESTS: &str = "\
{\"shard\":\"0\",\"request\":0,\"trace\":17993490073209127803,\"outcome\":\"ok\",\"batch\":0,\"latency_ns\":250,\"queue_ns\":250,\"form_ns\":0,\"exec_ns\":0,\"respond_ns\":0,\"finished_ns\":250}\n\
{\"shard\":\"0\",\"request\":1,\"trace\":14234191361360560413,\"outcome\":\"ok\",\"batch\":0,\"latency_ns\":250,\"queue_ns\":250,\"form_ns\":0,\"exec_ns\":0,\"respond_ns\":0,\"finished_ns\":250}\n\
{\"shard\":\"0\",\"request\":2,\"trace\":5814461512456608474,\"outcome\":\"ok\",\"batch\":1,\"latency_ns\":1150,\"queue_ns\":1150,\"form_ns\":0,\"exec_ns\":0,\"respond_ns\":0,\"finished_ns\":1400}\n";

/// The SLO verdict lines of the `/debug/timeline` body, shard 0 then
/// the merged view: the two size-batched probes land good in window 0,
/// the lingered straggler breaches in window 1.
const GOLDEN_SLO: &str = "\
{\"record\":\"timeline\",\"shard\":\"0\",\"series\":\"slo.breached\",\"kind\":\"delta\",\"window\":1,\"t_ns\":1000,\"count\":1,\"sum\":1,\"min\":1,\"max\":1}\n\
{\"record\":\"timeline\",\"shard\":\"0\",\"series\":\"slo.good\",\"kind\":\"delta\",\"window\":0,\"t_ns\":0,\"count\":2,\"sum\":2,\"min\":1,\"max\":1}\n\
{\"record\":\"timeline\",\"shard\":\"merged\",\"series\":\"slo.breached\",\"kind\":\"delta\",\"window\":1,\"t_ns\":1000,\"count\":1,\"sum\":1,\"min\":1,\"max\":1}\n\
{\"record\":\"timeline\",\"shard\":\"merged\",\"series\":\"slo.good\",\"kind\":\"delta\",\"window\":0,\"t_ns\":0,\"count\":2,\"sum\":2,\"min\":1,\"max\":1}\n";

/// `obsctl trace` for request 1: its admission-side span, the farm job
/// that executed it and the critical path from the slower of the two.
/// Both request spans are open while the batch runs, and each ends
/// inside `serve_batch`, naming its request: so each closes its own
/// span, neither nests under the other, and `serve_batch` nests under
/// neither.
const GOLDEN_TRACE_1: &str = "request 1: trace 0xc58a01a08ed4811d, 2 owning span(s)
  request [250 ns] (0 events)
  serve_batch -> batch -> job [0 ns] (0 events)
critical path: request (250 ns)
";

#[test]
fn debug_requests_and_slo_bodies_are_pinned() {
    let run = scripted_observed_run(1);
    assert_eq!(run.responses.len(), 3, "script answers all three probes");
    assert_eq!(run.requests_body, GOLDEN_REQUESTS);
    assert_eq!(run.slo_lines, GOLDEN_SLO);
}

/// The debug bodies are invariant under farm worker count: every value
/// in them is a pure function of the script and the virtual clock.
#[test]
fn debug_bodies_are_bit_identical_across_worker_counts() {
    let oracle = scripted_observed_run(1);
    for threads in [2, 8] {
        let run = scripted_observed_run(threads);
        assert_eq!(
            run.requests_body, oracle.requests_body,
            "/debug/requests diverged at {threads} workers"
        );
        assert_eq!(
            run.slo_lines, oracle.slo_lines,
            "/debug/timeline SLO verdicts diverged at {threads} workers"
        );
        assert_eq!(
            run.responses, oracle.responses,
            "responses diverged at {threads} workers"
        );
    }
}

#[test]
fn obsctl_trace_rendering_is_pinned() {
    let run = scripted_observed_run(1);
    let path = std::env::temp_dir().join(format!(
        "request-trace-golden-{}.ndjson",
        std::process::id()
    ));
    std::fs::write(&path, &run.trace_ndjson).expect("write trace artifact");
    let rendered = canti_obsctl::trace_request(&path, 1).expect("request 1 reconstructs");
    assert_eq!(rendered, GOLDEN_TRACE_1);

    // the straggler's chain reconstructs too, and an id the script never
    // admitted is a gate failure, not empty output
    let straggler = canti_obsctl::trace_request(&path, 2).expect("request 2 reconstructs");
    assert!(
        straggler.contains("request 2: trace 0x50b11df072281ada"),
        "{straggler}"
    );
    let err = canti_obsctl::trace_request(&path, 99).expect_err("unknown request gates");
    assert_eq!(err.exit_code(), 1);
}

/// At higher worker counts the ring interleaves job spans
/// nondeterministically, so the bytes are not pinned — but the chain
/// must still reconstruct: spans all close, the sequence stays gap-free,
/// and the admission span is found for every scripted request.
#[test]
fn obsctl_trace_reconstructs_at_any_worker_count() {
    for threads in [2, 8] {
        let run = scripted_observed_run(threads);
        let path = std::env::temp_dir().join(format!(
            "request-trace-golden-w{threads}-{}.ndjson",
            std::process::id()
        ));
        std::fs::write(&path, &run.trace_ndjson).expect("write trace artifact");
        for request in 0..3u64 {
            let rendered = canti_obsctl::trace_request(&path, request)
                .unwrap_or_else(|e| panic!("request {request} at {threads} workers: {e}"));
            assert!(
                rendered.contains(&format!("request {request}: trace 0x")),
                "{rendered}"
            );
        }
    }
}

/// Two requests whose spans overlap on one virtual clock: A is admitted
/// at t=0, B at t=100 fills the two-request batch, and the batch answers
/// both at t=100. Each span end names its request, so the rebuilt spans
/// read A = 100 ns and B = 0 ns, as their latencies do; matched by name
/// alone, A's end would close B's span and the two durations would
/// swap. `obsctl timeline --spans` recomputes the live 100 ns windows
/// from the same ends.
#[test]
fn overlapping_requests_keep_their_own_span_durations() {
    let ring = Arc::new(RingCollector::new(256));
    let clock = Arc::new(VirtualClock::new());
    let obs_clock: Arc<dyn ObsClock> = Arc::clone(&clock) as Arc<dyn ObsClock>;
    let tracer = Tracer::new(Arc::clone(&ring), Arc::clone(&obs_clock));
    let metrics = Arc::new(Metrics::new());
    let observer = FarmObserver::from_parts(Arc::clone(&metrics), tracer, Arc::clone(&obs_clock));
    let mut engine = ShardedEngine::new(
        ShardedConfig {
            shards: 1,
            base: ServeConfig {
                max_batch: 2,
                threads: 1,
                timeline: TimelineConfig {
                    window_ns: 100,
                    max_windows: 8,
                },
                ..ServeConfig::default()
            },
        },
        Arc::clone(&obs_clock),
    )
    .with_observers(vec![observer]);

    let a = engine.submit(JobSpec::Probe(ProbeMode::Draws(1))).unwrap();
    clock.advance_ns(100);
    let b = engine.submit(JobSpec::Probe(ProbeMode::Draws(2))).unwrap();
    let responses = engine.pump();
    let latency = |id: u64| {
        responses
            .iter()
            .find(|r| r.request_id == id)
            .and_then(|r| match r.disposition {
                Disposition::Completed { latency_ns, .. } => Some(latency_ns),
                _ => None,
            })
    };
    assert_eq!((latency(a), latency(b)), (Some(100), Some(0)));

    let trace_ndjson = ring.to_ndjson();
    let trace = Trace::from_ndjson(&trace_ndjson).expect("trace parses");
    let span_ns = |id: u64| -> Vec<Option<u64>> {
        let paths = trace.request_paths(id);
        let owners = paths.iter().filter_map(|p| p.last());
        owners
            .filter(|s| s.name == "request")
            .map(|s| s.dur_ns)
            .collect()
    };
    assert_eq!((span_ns(a), span_ns(b)), (vec![Some(100)], vec![Some(0)]));

    let [timeline_body] = scrape(&engine, metrics, ["/debug/timeline"]);
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let timeline_path = dir.join(format!("request-trace-overlap-timeline-{pid}.ndjson"));
    let spans_path = dir.join(format!("request-trace-overlap-spans-{pid}.ndjson"));
    std::fs::write(&timeline_path, &timeline_body).expect("write timeline artifact");
    std::fs::write(&spans_path, &trace_ndjson).expect("write span artifact");
    let checked = canti_obsctl::timeline_report(
        &timeline_path,
        Some(&spans_path),
        &TimelineOptions {
            shard: "0".to_owned(),
            series: vec!["serve.request_latency_ns".to_owned()],
        },
    );
    let _ = std::fs::remove_file(&timeline_path);
    let _ = std::fs::remove_file(&spans_path);
    let out = checked.unwrap_or_else(|e| panic!("--spans disagrees with the live windows: {e}"));
    assert!(
        out.contains("2 request span(s), 1 window(s) — matches live"),
        "{out}"
    );
}
