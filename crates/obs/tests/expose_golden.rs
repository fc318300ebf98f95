//! Golden-file test for the Prometheus text exposition: a known
//! `Metrics` snapshot must render byte-for-byte to
//! `tests/golden/metrics.prom`. If the format changes intentionally,
//! update the golden file alongside this test.

use canti_obs::expose::render_prometheus;
use canti_obs::Metrics;

fn known_snapshot() -> Metrics {
    let m = Metrics::new();
    m.counter("farm.jobs_ok").add(12);
    m.describe("farm.jobs_ok", "jobs that completed successfully");
    m.counter("farm.jobs_failed").add(1);
    m.describe("farm.jobs_failed", "jobs that returned an error");
    m.gauge("farm.workers_busy").set(4);
    m.describe("farm.workers_busy", "workers currently executing a job");
    let h = m.histogram("farm.solve_ns");
    for v in [500, 1_500, 2_000, 50_000, 2_000_000] {
        h.record(v);
    }
    m.describe(
        "farm.solve_ns",
        "per-job solve stage latency in nanoseconds",
    );
    m
}

#[test]
fn prometheus_rendering_matches_golden_file() {
    let golden = include_str!("golden/metrics.prom");
    let rendered = render_prometheus(&known_snapshot());
    assert_eq!(
        rendered, golden,
        "Prometheus exposition drifted from tests/golden/metrics.prom"
    );
}

#[test]
fn golden_file_is_well_formed_exposition() {
    // every non-comment line is `name[{labels}] value`, and the +Inf
    // bucket matches the histogram's _count series
    let golden = include_str!("golden/metrics.prom");
    let mut inf_bucket = None;
    let mut count = None;
    for line in golden.lines().filter(|l| !l.starts_with('#')) {
        let (name, value) = line.rsplit_once(' ').expect("sample line");
        assert!(!name.is_empty());
        assert!(value.parse::<i64>().is_ok(), "non-numeric value {value}");
        if name.contains("le=\"+Inf\"") {
            inf_bucket = Some(value.parse::<i64>().unwrap());
        }
        if name == "farm_solve_ns_count" {
            count = Some(value.parse::<i64>().unwrap());
        }
    }
    assert_eq!(inf_bucket, count, "+Inf bucket must equal _count");
}
