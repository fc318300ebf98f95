//! Prometheus text-format exposition for [`Metrics`] snapshots.
//!
//! Renders the registry in the Prometheus text exposition format
//! (version 0.0.4): counters as `<name>_total`, gauges verbatim, and
//! histograms as cumulative `_bucket{le="..."}` series plus `_sum` /
//! `_count`, exactly what a `/metrics` scrape endpoint must return.
//! Output order is deterministic (the registry is name-sorted), so the
//! rendering is golden-file testable.
//!
//! [`render_prometheus_sharded`] is the merged form: several registries
//! (one per serving shard) render as a single exposition in which every
//! series carries a `shard="<label>"` label and each metric name gets
//! exactly one `# TYPE` line, so one scrape covers the whole sharded
//! service and per-shard series stay distinguishable.
//!
//! # Examples
//!
//! ```
//! use canti_obs::expose::render_prometheus;
//! use canti_obs::Metrics;
//!
//! let m = Metrics::new();
//! m.counter("farm.jobs_ok").add(3);
//! let text = render_prometheus(&m);
//! assert!(text.contains("# TYPE farm_jobs_ok_total counter"));
//! assert!(text.contains("farm_jobs_ok_total 3"));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use crate::metrics::Metrics;

/// Maps an instrument name onto the Prometheus metric-name charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`: invalid characters (the registry
/// convention uses dots) become `_`, and a leading digit gets a `_`
/// prefix.
#[must_use]
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let valid =
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if valid {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Renders every instrument in `metrics` in the Prometheus text format.
///
/// Counters are suffixed `_total` per convention; a histogram renders the
/// cumulative count at each power-of-two octave's upper edge `2^j - 1`
/// (an exact bucket edge of its log-linear layout) up to the octave
/// holding its max, then an explicit `le="+Inf"` series whose value
/// equals `_count`.
#[must_use]
pub fn render_prometheus(metrics: &Metrics) -> String {
    render(&[(None, metrics)])
}

/// Escapes a `# HELP` text per the Prometheus text format: backslash
/// and newline must be backslash-escaped (help text is unquoted, so
/// double quotes pass through verbatim).
fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Escapes a label *value* per the Prometheus text format: backslash,
/// double quote and newline must be backslash-escaped inside the
/// `label="value"` quoting.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Renders several labelled registries — `(shard label, registry)`
/// pairs — as **one** merged Prometheus exposition.
///
/// Every series carries a `shard="<label>"` label; metric names present
/// in more than one registry get a single `# TYPE` line followed by one
/// series per shard (histograms: one full bucket/`_sum`/`_count` block
/// per shard). Ordering is deterministic: names sort ascending, and
/// within a name shards appear in `sources` order, so the merged view
/// is as golden-file testable as [`render_prometheus`].
#[must_use]
pub fn render_prometheus_sharded(sources: &[(String, Arc<Metrics>)]) -> String {
    let labels: Vec<String> = sources
        .iter()
        .map(|(label, _)| escape_label(label))
        .collect();
    let sources: Vec<(Option<&str>, &Metrics)> = labels
        .iter()
        .zip(sources)
        .map(|(label, (_, metrics))| (Some(label.as_str()), &**metrics))
        .collect();
    render(&sources)
}

/// The label set `{shard="..",le=".."}` of one sample, holding whichever
/// of the two labels it has; empty when it has neither.
fn labels(shard: Option<&str>, le: Option<&str>) -> String {
    match (shard, le) {
        (None, None) => String::new(),
        (Some(shard), None) => format!("{{shard=\"{shard}\"}}"),
        (None, Some(le)) => format!("{{le=\"{le}\"}}"),
        (Some(shard), Some(le)) => format!("{{shard=\"{shard}\",le=\"{le}\"}}"),
    }
}

/// The one rendering loop: `(escaped shard label, registry)` pairs, an
/// unlabelled registry carrying `None`. Each sanitized metric name gets
/// one `# HELP` line (from the first source describing it) and one
/// `# TYPE` line, then its samples in source order; counters render
/// before gauges before histograms, each kind sorted by name.
fn render(sources: &[(Option<&str>, &Metrics)]) -> String {
    type Samples = BTreeMap<String, Vec<String>>;
    let (mut counters, mut gauges, mut histograms) =
        (Samples::new(), Samples::new(), Samples::new());
    let mut help: BTreeMap<String, String> = BTreeMap::new();
    for &(shard, metrics) in sources {
        let plain = labels(shard, None);
        for (name, text) in metrics.descriptions() {
            help.entry(sanitize_name(&name)).or_insert(text);
        }
        for (name, counter) in metrics.counters() {
            let name = sanitize_name(&name);
            let line = format!("{name}_total{plain} {}", counter.get());
            counters.entry(name).or_default().push(line);
        }
        for (name, gauge) in metrics.gauges() {
            let name = sanitize_name(&name);
            let line = format!("{name}{plain} {}", gauge.get());
            gauges.entry(name).or_default().push(line);
        }
        for (name, histogram) in metrics.histograms() {
            let name = sanitize_name(&name);
            let octaves = histogram.octave_counts();
            let mut lines = Vec::with_capacity(octaves.len() + 3);
            for (edge, cumulative) in octaves {
                let le = labels(shard, Some(&edge.to_string()));
                lines.push(format!("{name}_bucket{le} {cumulative}"));
            }
            let count = histogram.count();
            let le = labels(shard, Some("+Inf"));
            lines.push(format!("{name}_bucket{le} {count}"));
            lines.push(format!("{name}_sum{plain} {}", histogram.sum()));
            lines.push(format!("{name}_count{plain} {count}"));
            histograms.entry(name).or_default().extend(lines);
        }
    }

    let mut out = String::new();
    for (samples, suffix, kind) in [
        (counters, "_total", "counter"),
        (gauges, "", "gauge"),
        (histograms, "", "histogram"),
    ] {
        for (name, lines) in samples {
            if let Some(text) = help.get(&name) {
                let _ = writeln!(out, "# HELP {name}{suffix} {}", escape_help(text));
            }
            let _ = writeln!(out, "# TYPE {name}{suffix} {kind}");
            for line in lines {
                out.push_str(&line);
                out.push('\n');
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_sanitized() {
        assert_eq!(sanitize_name("farm.queue_wait_ns"), "farm_queue_wait_ns");
        assert_eq!(sanitize_name("a b/c-d"), "a_b_c_d");
        assert_eq!(sanitize_name("0abc"), "_0abc");
        assert_eq!(sanitize_name("ok:name_9"), "ok:name_9");
        assert_eq!(sanitize_name(""), "_");
    }

    #[test]
    fn counters_and_gauges_render() {
        let m = Metrics::new();
        m.counter("cache.hits").add(7);
        m.gauge("queue.depth").set(-3);
        let text = render_prometheus(&m);
        assert!(text.contains("# TYPE cache_hits_total counter\ncache_hits_total 7\n"));
        assert!(text.contains("# TYPE queue_depth gauge\nqueue_depth -3\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_inf_matches_count() {
        let m = Metrics::new();
        let h = m.histogram("lat");
        for v in [5, 7, 50, 5_000] {
            h.record(v);
        }
        let text = render_prometheus(&m);
        assert!(text.contains("lat_bucket{le=\"0\"} 0\n"), "{text}");
        assert!(text.contains("lat_bucket{le=\"7\"} 2\n"), "{text}");
        assert!(text.contains("lat_bucket{le=\"63\"} 3\n"), "{text}");
        assert!(text.contains("lat_bucket{le=\"4095\"} 3\n"), "{text}");
        assert!(text.contains("lat_bucket{le=\"8191\"} 4\n"), "{text}");
        assert!(
            !text.contains("le=\"16383\""),
            "past the max's octave: {text}"
        );
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 4\n"), "{text}");
        assert!(text.contains("lat_sum 5062\n"), "{text}");
        assert!(text.contains("lat_count 4\n"), "{text}");
    }

    #[test]
    fn empty_registry_renders_empty() {
        assert_eq!(render_prometheus(&Metrics::new()), "");
    }

    #[test]
    fn output_is_name_sorted_and_stable() {
        let m = Metrics::new();
        m.counter("z.second").inc();
        m.counter("a.first").inc();
        let a = render_prometheus(&m);
        let b = render_prometheus(&m);
        assert_eq!(a, b);
        let first = a.find("a_first_total").unwrap();
        let second = a.find("z_second_total").unwrap();
        assert!(first < second);
    }

    fn shard_pair() -> Vec<(String, Arc<Metrics>)> {
        let s0 = Arc::new(Metrics::new());
        s0.counter("serve.admitted").add(5);
        s0.gauge("serve.queue_depth").set(2);
        let s1 = Arc::new(Metrics::new());
        s1.counter("serve.admitted").add(7);
        s1.gauge("serve.queue_depth").set(0);
        vec![("0".to_owned(), s0), ("1".to_owned(), s1)]
    }

    #[test]
    fn sharded_render_merges_series_under_one_type_line() {
        let text = render_prometheus_sharded(&shard_pair());
        assert_eq!(
            text.matches("# TYPE serve_admitted_total counter").count(),
            1,
            "one TYPE line per metric name:\n{text}"
        );
        assert!(
            text.contains("serve_admitted_total{shard=\"0\"} 5"),
            "{text}"
        );
        assert!(
            text.contains("serve_admitted_total{shard=\"1\"} 7"),
            "{text}"
        );
        assert!(text.contains("serve_queue_depth{shard=\"0\"} 2"), "{text}");
        assert!(text.contains("serve_queue_depth{shard=\"1\"} 0"), "{text}");
    }

    #[test]
    fn sharded_render_is_deterministic_and_name_sorted() {
        let sources = shard_pair();
        let a = render_prometheus_sharded(&sources);
        let b = render_prometheus_sharded(&sources);
        assert_eq!(a, b);
        let counter = a.find("serve_admitted_total").unwrap();
        let gauge = a.find("serve_queue_depth").unwrap();
        assert!(counter < gauge, "counters render before gauges:\n{a}");
        let s0 = a.find("serve_admitted_total{shard=\"0\"}").unwrap();
        let s1 = a.find("serve_admitted_total{shard=\"1\"}").unwrap();
        assert!(s0 < s1, "shards render in source order:\n{a}");
    }

    #[test]
    fn sharded_histograms_carry_shard_and_le_labels() {
        let s0 = Arc::new(Metrics::new());
        s0.histogram("lat").record(7);
        let s1 = Arc::new(Metrics::new());
        let h1 = s1.histogram("lat");
        h1.record(50);
        h1.record(5_000);
        let text = render_prometheus_sharded(&[("0".to_owned(), s0), ("1".to_owned(), s1)]);
        assert_eq!(text.matches("# TYPE lat histogram").count(), 1, "{text}");
        assert!(
            text.contains("lat_bucket{shard=\"0\",le=\"7\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("lat_bucket{shard=\"0\",le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("lat_bucket{shard=\"1\",le=\"127\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("lat_bucket{shard=\"1\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("lat_sum{shard=\"0\"} 7"), "{text}");
        assert!(text.contains("lat_sum{shard=\"1\"} 5050"), "{text}");
        assert!(text.contains("lat_count{shard=\"1\"} 2"), "{text}");
    }

    #[test]
    fn shard_labels_are_escaped_and_disjoint_registries_merge() {
        let s0 = Arc::new(Metrics::new());
        s0.counter("only.on.zero").inc();
        let s1 = Arc::new(Metrics::new());
        s1.counter("only.on.one").inc();
        let text =
            render_prometheus_sharded(&[("a\"b\\c\nd".to_owned(), s0), ("1".to_owned(), s1)]);
        assert!(
            text.contains("only_on_zero_total{shard=\"a\\\"b\\\\c\\nd\"} 1"),
            "{text}"
        );
        assert!(text.contains("only_on_one_total{shard=\"1\"} 1"), "{text}");
    }

    #[test]
    fn help_lines_precede_type_lines_for_described_metrics() {
        let m = Metrics::new();
        m.counter("serve.admitted").add(2);
        m.describe("serve.admitted", "requests accepted into the queue");
        m.gauge("serve.queue_depth").set(1);
        m.describe("serve.queue_depth", "requests awaiting a batch");
        m.histogram("lat").record(4);
        m.describe("lat", "per-request latency in ns\\with a newline:\n");
        let text = render_prometheus(&m);
        assert!(
            text.contains(
                "# HELP serve_admitted_total requests accepted into the queue\n\
                 # TYPE serve_admitted_total counter\n"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "# HELP serve_queue_depth requests awaiting a batch\n\
                 # TYPE serve_queue_depth gauge\n"
            ),
            "{text}"
        );
        // backslash and newline are escaped in help text
        assert!(
            text.contains("# HELP lat per-request latency in ns\\\\with a newline:\\n\n"),
            "{text}"
        );
    }

    #[test]
    fn undescribed_metrics_render_without_help_lines() {
        let m = Metrics::new();
        m.counter("plain").inc();
        let text = render_prometheus(&m);
        assert!(!text.contains("# HELP"), "{text}");
    }

    #[test]
    fn sharded_render_emits_one_help_line_from_first_describing_shard() {
        let sources = shard_pair();
        sources[1].1.describe("serve.admitted", "from shard one");
        let text = render_prometheus_sharded(&sources);
        assert_eq!(text.matches("# HELP").count(), 1, "{text}");
        assert!(
            text.contains(
                "# HELP serve_admitted_total from shard one\n\
                 # TYPE serve_admitted_total counter\n"
            ),
            "{text}"
        );
        // shard 0 describing too does not duplicate; shard 0 wins
        sources[0].1.describe("serve.admitted", "from shard zero");
        let text = render_prometheus_sharded(&sources);
        assert_eq!(text.matches("# HELP").count(), 1, "{text}");
        assert!(
            text.contains("# HELP serve_admitted_total from shard zero\n"),
            "{text}"
        );
    }

    #[test]
    fn single_source_sharded_render_matches_plain_render_modulo_labels() {
        let m = Arc::new(Metrics::new());
        m.counter("c").add(3);
        m.describe("c", "a described counter");
        m.gauge("g").set(-1);
        m.histogram("h").record(4);
        let plain = render_prometheus(&m);
        let sharded = render_prometheus_sharded(&[("0".to_owned(), Arc::clone(&m))]);
        // stripping the shard label (and re-bracing histogram le labels)
        // recovers the plain rendering exactly
        let stripped = sharded
            .replace("{shard=\"0\",", "{")
            .replace("{shard=\"0\"}", "");
        assert_eq!(stripped, plain);
    }
}
