//! Loopback test of the HTTP exposition path: start the server on an
//! ephemeral port, GET `/metrics` and `/healthz` over a real TCP
//! connection, then shut down cleanly (workers joined, port released).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use canti_obs::serve::{Exposition, ExpositionServer, Registry};
use canti_obs::Metrics;

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
