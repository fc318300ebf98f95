//! End-to-end observability pipeline test: a deterministic farm batch is
//! observed, its NDJSON artifact is parsed back, the span tree is
//! reconstructed and analyzed, and the metrics registry renders to
//! Prometheus text — the same path `sensor_farm --telemetry`, `obsctl`
//! and the CI gates exercise, but fully in-process and deterministic.

use canti::farm::{dose_response_sweep, Farm, FarmConfig, FarmObserver};
use canti::obs::{parse_ndjson, render_prometheus, Json, Trace};

fn observed_batch() -> (FarmObserver, String) {
    let (observer, ring) = FarmObserver::deterministic(4096);
    let jobs = dose_response_sweep(&[0.5, 5.0, 50.0, 500.0]);
    let farm = Farm::new(FarmConfig {
        batch_seed: 0x0B5,
        threads: 3,
    })
    .with_observer(observer.clone());
    let report = farm.run(&jobs);
    assert_eq!(report.ok_count(), 4, "all jobs succeed");

    let mut stream = observer.metrics().to_ndjson();
    stream.push_str(&ring.to_ndjson());
    (observer, stream)
}

#[test]
fn farm_ndjson_parses_and_reconstructs_a_healthy_span_tree() {
    let (_observer, stream) = observed_batch();

    // every line of the mixed artifact parses
    let docs = parse_ndjson(&stream).expect("artifact parses");
    assert_eq!(docs.len(), stream.lines().count());

    // the trace subset reconstructs: one batch root, one job span each
    let trace = Trace::from_ndjson(&stream).expect("trace parses");
    assert!(trace.seq_gaps.is_empty(), "gap-free: {:?}", trace.seq_gaps);
    assert!(trace.unclosed.is_empty(), "all spans closed");
    assert_eq!(trace.roots.len(), 1, "single batch root");
    assert_eq!(trace.roots[0].name, "batch");
    // Workers interleave and trace events carry no thread IDs, so
    // concurrent job spans may reconstruct as nested — but every job
    // span must be somewhere under the batch root.
    fn count_jobs(node: &canti::obs::SpanNode) -> usize {
        usize::from(node.name == "job") + node.children.iter().map(count_jobs).sum::<usize>()
    }
    assert_eq!(count_jobs(&trace.roots[0]), 4, "one job span per job");

    let stats = trace.stage_stats();
    let job_stats = stats
        .iter()
        .find(|(name, _)| name == "job")
        .map(|(_, s)| s)
        .expect("job stage aggregated");
    assert_eq!(job_stats.count, 4);
    let summary = trace.render_summary();
    assert!(summary.contains("critical path"));

    // folded stacks cover the whole tree
    let folded = trace.folded_stacks();
    assert!(folded.lines().any(|l| l.starts_with("batch")), "{folded}");
}

#[test]
fn farm_metrics_render_to_prometheus_text() {
    let (observer, _stream) = observed_batch();
    let text = render_prometheus(observer.metrics());

    for needle in [
        "# TYPE farm_batches_total counter",
        "farm_batches_total 1",
        "farm_jobs_ok_total 4",
        "farm_jobs_failed_total 0",
        "# TYPE farm_workers gauge",
        "farm_workers 3",
        "# TYPE farm_solve_ns histogram",
        "farm_solve_ns_count 4",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

#[test]
fn stage_records_feed_the_diff_shape() {
    // each stage's registry histogram line carries its full summary
    // (CI's farm smoke greps these lines for a non-zero count)
    let (_observer, stream) = observed_batch();
    let docs = parse_ndjson(&stream).expect("artifact parses");
    for stage in ["farm.queue_wait_ns", "farm.precompute_ns", "farm.solve_ns"] {
        let line = docs
            .iter()
            .find(|d| {
                d.get("type").and_then(Json::as_str) == Some("histogram")
                    && d.get("metric").and_then(Json::as_str) == Some(stage)
            })
            .unwrap_or_else(|| panic!("no {stage} histogram line"));
        for key in ["count", "sum", "p50", "p95", "p99", "max"] {
            assert!(line.get(key).is_some(), "{stage} missing {key}");
        }
    }
}
