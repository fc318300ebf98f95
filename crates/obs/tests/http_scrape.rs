//! Loopback test of the HTTP exposition path: start the server on an
//! ephemeral port, GET `/metrics` and `/healthz` over a real TCP
//! connection, then shut down cleanly (workers joined, port released);
//! and read a scraped `/debug/timeline` body back through its parser.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use canti_obs::serve::{Exposition, ExpositionServer, Registry, ServeObs, SloConfig};
use canti_obs::timeline::{
    merge_timelines, point_line, SeriesWindows, TimelineConfig, TimelineDump, TimelineRecorder,
};
use canti_obs::{Metrics, RequestLog};

fn raw_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

#[test]
fn live_scrape_returns_prometheus_text() {
    let metrics = Arc::new(Metrics::new());
    metrics.counter("farm.jobs_ok").add(42);
    metrics.gauge("farm.queue_depth").set(3);
    metrics.histogram("farm.solve_ns").record(250);

    let server = ExpositionServer::bind(
        "127.0.0.1:0",
        Exposition::new(Registry::Single(Arc::clone(&metrics))),
    )
    .expect("bind ephemeral");
    let addr = server.local_addr();

    // /metrics: correct status, content type, and all three instrument kinds
    let response = raw_get(addr, "/metrics");
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
    assert!(
        head.contains("Content-Type: text/plain; version=0.0.4"),
        "{head}"
    );
    assert!(body.contains("farm_jobs_ok_total 42"), "{body}");
    assert!(body.contains("farm_queue_depth 3"), "{body}");
    assert!(
        body.contains("farm_solve_ns_bucket{le=\"255\"} 1"),
        "{body}"
    );
    assert!(body.contains("farm_solve_ns_count 1"), "{body}");

    // scrapes see live updates, not a bind-time snapshot
    metrics.counter("farm.jobs_ok").add(8);
    let body = server.scrape("/metrics").expect("self-scrape");
    assert!(body.contains("farm_jobs_ok_total 50"), "{body}");

    // /healthz liveness: a JSON readiness body (no Readiness attached,
    // so the defaults report a healthy single-shard server)
    let response = raw_get(addr, "/healthz");
    assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
    assert!(
        response.contains("Content-Type: application/json"),
        "{response}"
    );
    assert!(
        response
            .ends_with("{\"status\":\"ok\",\"shards\":1,\"pool_threads\":0,\"draining\":false}\n"),
        "{response}"
    );

    assert!(server.requests_served() >= 3);
    server.shutdown();

    // after shutdown the port no longer accepts (give the OS a moment)
    std::thread::sleep(Duration::from_millis(50));
    match TcpStream::connect_timeout(&addr, Duration::from_millis(250)) {
        Err(_) => {}
        Ok(mut stream) => {
            // a connect may still succeed while the socket drains; a
            // request must go unanswered either way
            let _ = write!(stream, "GET /healthz HTTP/1.0\r\n\r\n");
            stream
                .set_read_timeout(Some(Duration::from_millis(250)))
                .unwrap();
            let mut buf = String::new();
            assert!(
                stream.read_to_string(&mut buf).is_err() || buf.is_empty(),
                "server answered after shutdown: {buf}"
            );
        }
    }
}

#[test]
fn concurrent_scrapes_on_a_bounded_pool() {
    let metrics = Arc::new(Metrics::new());
    metrics.counter("hits").inc();
    let server = ExpositionServer::bind(
        "127.0.0.1:0",
        Exposition {
            workers: 3,
            ..Exposition::new(Registry::Single(metrics))
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(move || {
                let response = raw_get(addr, "/metrics");
                assert!(response.contains("hits_total 1"), "{response}");
            });
        }
    });
    assert!(server.requests_served() >= 8);
    server.shutdown();
}

/// A `/debug/timeline` body scraped from two shards, each with delta and
/// sample series over more windows than it retains, reads back through
/// `TimelineDump::parse` as each shard's snapshot under its label and
/// their merge under `"merged"`, and every parsed point re-emits through
/// `point_line` as a line of the body.
#[test]
fn a_scraped_debug_timeline_parses_back_into_its_shards_and_their_merge() {
    let config = TimelineConfig {
        window_ns: 1_000,
        max_windows: 4,
    };
    let shard = |offset: u64| {
        let timeline = TimelineRecorder::new(config);
        for t_ns in [2_500, 100, 4_200, 1_100, 5_900] {
            timeline.record_delta("serve.request_latency_ns", t_ns / 3 + offset, t_ns);
            timeline.sample("serve.queue_depth", offset + t_ns % 7, t_ns);
        }
        timeline.record_delta("slo.good", 1, 300 + offset);
        ServeObs {
            slo: SloConfig::default(),
            requests: Arc::new(RequestLog::new(8)),
            timeline: Arc::new(timeline),
        }
    };
    let shards = vec![("0".to_owned(), shard(0)), ("1".to_owned(), shard(7))];
    let snapshots: Vec<Vec<SeriesWindows>> =
        shards.iter().map(|(_, o)| o.timeline.snapshot()).collect();
    let server = ExpositionServer::bind(
        "127.0.0.1:0",
        Exposition {
            shards,
            ..Exposition::new(Registry::Single(Arc::new(Metrics::new())))
        },
    )
    .expect("bind ephemeral");
    let body = server.scrape("/debug/timeline").expect("scrape");
    server.shutdown();

    let dump = TimelineDump::parse(&body).expect("the body parses");
    assert_eq!(dump.config, config);
    let section = |label: &str| -> Vec<SeriesWindows> {
        dump.sections
            .iter()
            .filter(|(l, _)| l == label)
            .map(|(_, s)| s.clone())
            .collect()
    };
    assert_eq!(section("0"), snapshots[0]);
    assert_eq!(section("1"), snapshots[1]);
    assert_eq!(section("merged"), merge_timelines(&snapshots));

    let lines: HashSet<&str> = body.lines().collect();
    let mut points = 0;
    for (label, s) in &dump.sections {
        for p in &s.points {
            let line = point_line(Some(label), &s.name, s.kind, config.width(), p);
            assert!(lines.contains(line.as_str()), "{line} is not in\n{body}");
            points += 1;
        }
    }
    assert!(points > 8, "{body}");
    assert_eq!(body.lines().count(), points + 1, "one config line: {body}");
}
