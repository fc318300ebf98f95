//! `obsctl` — the consumption-side CLI over canti telemetry artifacts.
//!
//! Six subcommands, all pure functions in this library so tests (and
//! CI) can drive them without spawning the binary:
//!
//! * [`summary`] — parse a telemetry NDJSON artifact, reconstruct the
//!   span tree, print per-stage aggregates, the critical path and the
//!   [`EventTally`] of fault, shard and cache events; **fails** (the CI
//!   gate) when the span tree is empty or the trace sequence has gaps,
//! * [`flame`] — folded-stack flamegraph lines from the same artifact
//!   (pipe into `flamegraph.pl` / inferno),
//! * [`diff`] — compare per-stage `p50`/`p95`/`p99` between two bench or
//!   telemetry JSON files and report regressions beyond a configurable
//!   threshold; the binary exits non-zero on any regression, which is
//!   the perf-regression gate `scripts/ci.sh` runs,
//! * [`trace_request`] — reconstruct one request's span chain (admission
//!   `request` span through the farm `job` span that executed it) and
//!   its critical path; **fails** when the request is absent, orphaned
//!   (no admission-side span), unclosed, or the sequence has gaps —
//!   the serve-artifact health gate,
//! * [`timeline_report`] — render the per-window series of a
//!   `/debug/timeline` NDJSON artifact as tables with count sparklines
//!   (the SLO verdicts are its `slo.good` / `slo.breached` series), and
//!   optionally recompute the request-latency windows offline from a
//!   span artifact as a cross-check (**fails** when they disagree),
//! * [`anomaly`] — compare a timeline artifact against an archived
//!   baseline, per-series, and report count drift beyond a threshold;
//!   the binary exits non-zero on drift or a missing series — the
//!   timeline anomaly gate `scripts/ci.sh` runs between smoke runs.
//!
//! `timeline` and `anomaly` read their artifacts through
//! `canti_obs::timeline::TimelineDump`, the reader of the format
//! `canti_obs::timeline` writes, and `timeline --json` re-emits through
//! that module's own line writers.
//!
//! `diff` understands both timing shapes the workspace writes: the
//! `ExperimentReport::to_json` document (`"timings": [...]`) and NDJSON
//! metric-dump histogram lines (a farm telemetry artifact's
//! `farm.*_ns` stage histograms among them).
//! [`summary`] and [`trace_request`] have `*_json` twins emitting
//! fixed-field NDJSON for machine consumers (`--json` on the binary).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fmt::Write as _;
use std::path::Path;

use canti_obs::parse::{parse_json, parse_ndjson, Json};
use canti_obs::timeline::{
    config_line, point_line, SeriesId, SeriesKind, SeriesPoint, SeriesWindows, TimelineDump,
    TimelineRecorder,
};
use canti_obs::Trace;

/// What went wrong, and how the process should exit.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation (unknown flag, missing file argument…) — exit 2.
    Usage(String),
    /// A file could not be read or parsed — exit 2.
    Input(String),
    /// A gate tripped (regression found, empty span tree, seq gaps) —
    /// exit 1.
    Gate(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Usage(msg) => write!(f, "usage error: {msg}"),
            Self::Input(msg) => write!(f, "input error: {msg}"),
            Self::Gate(msg) => write!(f, "gate failed: {msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl CliError {
    /// The process exit code this error maps to.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        match self {
            Self::Gate(_) => 1,
            Self::Usage(_) | Self::Input(_) => 2,
        }
    }
}

fn read_file(path: &Path) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::Input(format!("{}: {e}", path.display())))
}

/// One named stage's latency summary extracted from an artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSummary {
    /// Median, ns.
    pub p50_ns: u64,
    /// 95th percentile, ns.
    pub p95_ns: u64,
    /// 99th percentile, ns — `None` for artifacts written before the
    /// histogram summaries carried tail quantiles (archived baselines
    /// keep diffing cleanly).
    pub p99_ns: Option<u64>,
    /// Largest sample, ns — `None` for the same legacy artifacts.
    pub max_ns: Option<u64>,
    /// Samples behind the quantiles.
    pub count: u64,
}

/// Extracts `(stage name, summary)` pairs from a bench/telemetry file.
///
/// Accepted shapes, unioned (first occurrence of a name wins):
/// * `ExperimentReport::to_json`: `{"timings": [{"name", "p50_ns", ...}]}`
/// * NDJSON metric dumps: `{"metric":..,"type":"histogram","p50":..}`
///
/// # Errors
///
/// [`CliError::Input`] when the file is unreadable, unparsable, or
/// contains no recognizable timings.
pub fn load_stages(path: &Path) -> Result<Vec<(String, StageSummary)>, CliError> {
    let text = read_file(path)?;
    let docs = match parse_json(&text) {
        Ok(doc) => vec![doc],
        Err(_) => {
            parse_ndjson(&text).map_err(|e| CliError::Input(format!("{}: {e}", path.display())))?
        }
    };

    let mut stages: Vec<(String, StageSummary)> = Vec::new();
    let mut push = |name: &str, summary: StageSummary| {
        if !stages.iter().any(|(n, _)| n == name) {
            stages.push((name.to_owned(), summary));
        }
    };

    // the bench shape suffixes keys with `_ns`; metric dumps don't
    let summarize = |doc: &Json, suffix: &str| -> Option<StageSummary> {
        let field = |key: &str| doc.get(&format!("{key}{suffix}")).and_then(Json::as_u64);
        Some(StageSummary {
            p50_ns: field("p50")?,
            p95_ns: field("p95")?,
            p99_ns: field("p99"),
            max_ns: field("max"),
            count: doc.get("count").and_then(Json::as_u64).unwrap_or(0),
        })
    };

    for doc in &docs {
        // ExperimentReport document
        if let Some(timings) = doc.get("timings").and_then(Json::as_array) {
            for t in timings {
                if let (Some(name), Some(summary)) =
                    (t.get("name").and_then(Json::as_str), summarize(t, "_ns"))
                {
                    push(name, summary);
                }
            }
        }
        // metrics histogram dump line
        if doc.get("type").and_then(Json::as_str) == Some("histogram") {
            if let (Some(name), Some(summary)) =
                (doc.get("metric").and_then(Json::as_str), summarize(doc, ""))
            {
                push(name, summary);
            }
        }
    }

    if stages.is_empty() {
        return Err(CliError::Input(format!(
            "{}: no stage timings found (expected ExperimentReport timings \
             or histogram metric lines)",
            path.display()
        )));
    }
    Ok(stages)
}

/// Tuning for [`diff`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffOptions {
    /// Relative slack: a stage regresses when `new > old * (1 + pct/100)`.
    pub threshold_pct: f64,
    /// Absolute noise floor: deltas of at most this many ns never count.
    pub min_delta_ns: u64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        Self {
            threshold_pct: 25.0,
            min_delta_ns: 10_000,
        }
    }
}

/// One quantile comparison inside a [`DiffReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Stage name.
    pub stage: String,
    /// `"p50"`, `"p95"` or `"p99"`.
    pub quantile: &'static str,
    /// Baseline value, ns.
    pub old_ns: u64,
    /// Candidate value, ns.
    pub new_ns: u64,
    /// Signed relative change, percent.
    pub delta_pct: f64,
    /// Whether this row trips the gate.
    pub regressed: bool,
}

/// The outcome of comparing two artifacts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DiffReport {
    /// All compared rows (two per common stage).
    pub rows: Vec<DiffRow>,
    /// Stages present in only one file (name, which side).
    pub unmatched: Vec<(String, &'static str)>,
}

impl DiffReport {
    /// Whether any row regressed.
    #[must_use]
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| r.regressed)
    }

    /// An aligned human-readable table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>4} {:>14} {:>14} {:>9}  verdict",
            "stage", "q", "old (ns)", "new (ns)", "delta"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<24} {:>4} {:>14} {:>14} {:>+8.1}%  {}",
                r.stage,
                r.quantile,
                r.old_ns,
                r.new_ns,
                r.delta_pct,
                if r.regressed { "REGRESSED" } else { "ok" }
            );
        }
        for (name, side) in &self.unmatched {
            let _ = writeln!(out, "{name:<24} (only in {side} file, skipped)");
        }
        out
    }
}

/// Compares per-stage `p50`/`p95` (and `p99`, when both artifacts carry
/// it) between a baseline and a candidate.
///
/// A quantile regresses when it grew by more than
/// [`DiffOptions::threshold_pct`] **and** by more than
/// [`DiffOptions::min_delta_ns`] (so nanosecond jitter on fast stages
/// cannot trip the gate). Improvements never fail.
///
/// # Errors
///
/// [`CliError::Input`] when either file is unreadable or carries no
/// timings; [`CliError::Gate`] is *not* returned here — callers check
/// [`DiffReport::regressed`] (the binary maps it to exit 1).
pub fn diff(old: &Path, new: &Path, opts: DiffOptions) -> Result<DiffReport, CliError> {
    let old_stages = load_stages(old)?;
    let new_stages = load_stages(new)?;
    let mut report = DiffReport::default();

    for (name, old_summary) in &old_stages {
        let Some((_, new_summary)) = new_stages.iter().find(|(n, _)| n == name) else {
            report.unmatched.push((name.clone(), "old"));
            continue;
        };
        let mut quantiles = vec![
            ("p50", old_summary.p50_ns, new_summary.p50_ns),
            ("p95", old_summary.p95_ns, new_summary.p95_ns),
        ];
        // tail rows only when both sides carry them, so archived
        // baselines written before p99/max keep diffing cleanly
        if let (Some(old_p99), Some(new_p99)) = (old_summary.p99_ns, new_summary.p99_ns) {
            quantiles.push(("p99", old_p99, new_p99));
        }
        for (quantile, old_ns, new_ns) in quantiles {
            let delta = new_ns as f64 - old_ns as f64;
            let delta_pct = if old_ns == 0 {
                if new_ns == 0 {
                    0.0
                } else {
                    100.0
                }
            } else {
                delta / old_ns as f64 * 100.0
            };
            let regressed =
                delta_pct > opts.threshold_pct && new_ns.saturating_sub(old_ns) > opts.min_delta_ns;
            report.rows.push(DiffRow {
                stage: name.clone(),
                quantile,
                old_ns,
                new_ns,
                delta_pct,
                regressed,
            });
        }
    }
    for (name, _) in &new_stages {
        if !old_stages.iter().any(|(n, _)| n == name) {
            report.unmatched.push((name.clone(), "new"));
        }
    }
    Ok(report)
}

/// The event families `summary` reports, in report order: `(heading,
/// --json record name, line printed when none of them fired, event
/// names in reporting order)`. Instrument-side fault injection and
/// recovery; the serve layer's shard lifecycle (down → failover →
/// recovered); its result cache (admission-time hits and misses,
/// in-flight coalescing).
const EVENT_FAMILIES: [(&str, &str, &str, &[&str]); 3] = [
    (
        "fault health",
        "fault",
        "fault health: clean (no fault or recovery events)",
        &[
            "fault_injected",
            "measure_retry",
            "channel_quarantined",
            "channel_skipped",
            "watchdog_trip",
            "recovered",
            "scan_fault",
        ],
    ),
    (
        "shard health",
        "shard",
        "shard health: clean (no shard failures or failovers)",
        &["shard_down", "failover", "shard_recovered"],
    ),
    (
        "cache",
        "cache",
        "cache: quiet (no cache activity recorded)",
        &["cache_hit", "cache_miss", "coalesced"],
    ),
];

/// Every event record of one telemetry artifact, counted by name
/// ([`Trace::event_counts`]): an event fired while no span was open
/// (a cache hit between request spans, a restarted shard's
/// `shard_recovered`) counts like any other.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EventTally {
    counts: Vec<(String, u64)>,
}

impl EventTally {
    /// Tallies `trace`'s event records.
    #[must_use]
    pub fn new(trace: &Trace) -> Self {
        Self {
            counts: trace.event_counts(),
        }
    }

    /// Occurrences of one event name (0 when absent).
    #[must_use]
    pub fn count(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, c)| c)
    }

    /// `(event name, occurrences)` for each of `names` that fired, in
    /// `names` order.
    fn fired<'a>(
        &'a self,
        names: &'a [&'static str],
    ) -> impl Iterator<Item = (&'static str, u64)> + 'a {
        names
            .iter()
            .map(|&name| (name, self.count(name)))
            .filter(|&(_, count)| count > 0)
    }

    /// The sections `summary` appends to its report, one per family.
    fn render(&self) -> String {
        let mut out = String::new();
        for (heading, _, quiet, names) in EVENT_FAMILIES {
            let mut fired = self.fired(names).peekable();
            if fired.peek().is_none() {
                out.push_str(quiet);
                out.push('\n');
                continue;
            }
            let _ = writeln!(out, "{heading}:");
            for (name, count) in fired {
                let _ = writeln!(out, "  {name:<20} {count}");
            }
        }
        out
    }
}

/// The gates [`summary`] and [`summary_json`] share: the artifact parses
/// into a non-empty span tree on a gap-free sequence.
fn load_summarizable(path: &Path) -> Result<Trace, CliError> {
    let trace = load_trace(path)?;
    if trace.span_count() == 0 {
        return Err(CliError::Gate(format!(
            "{}: span tree is empty ({} trace records, {} non-trace lines)",
            path.display(),
            trace.trace_records,
            trace.skipped_records
        )));
    }
    gate_gaps(&trace, path)?;
    Ok(trace)
}

/// Fails when the trace sequence has gaps: an artifact missing records
/// cannot vouch for anything it holds.
fn gate_gaps(trace: &Trace, path: &Path) -> Result<(), CliError> {
    if trace.seq_gaps.is_empty() {
        return Ok(());
    }
    Err(CliError::Gate(format!(
        "{}: trace sequence has {} gap(s): {:?}",
        path.display(),
        trace.seq_gaps.len(),
        trace.seq_gaps
    )))
}

/// Parses a telemetry NDJSON artifact into a [`Trace`] and renders the
/// span-tree summary plus the [`EventTally`] sections, gating on
/// artifact health.
///
/// # Errors
///
/// [`CliError::Gate`] when the span tree is empty or the trace sequence
/// has gaps; [`CliError::Input`] on unreadable/unparsable files.
pub fn summary(path: &Path) -> Result<String, CliError> {
    let trace = load_summarizable(path)?;
    let mut out = trace.render_summary();
    out.push_str(&EventTally::new(&trace).render());
    Ok(out)
}

/// Folded-stack flamegraph lines for a telemetry NDJSON artifact.
///
/// # Errors
///
/// [`CliError::Gate`] when no spans reconstruct (nothing to graph);
/// [`CliError::Input`] on unreadable/unparsable files.
pub fn flame(path: &Path) -> Result<String, CliError> {
    let trace = load_trace(path)?;
    let folded = trace.folded_stacks();
    if folded.is_empty() {
        return Err(CliError::Gate(format!(
            "{}: no spans to graph",
            path.display()
        )));
    }
    Ok(folded)
}

/// The gates [`trace_request`] and [`trace_request_json`] share: a
/// healthy sequence, a present and non-orphaned request, closed owners.
fn request_paths_checked<'t>(
    trace: &'t Trace,
    path: &Path,
    request: u64,
) -> Result<Vec<Vec<&'t canti_obs::SpanNode>>, CliError> {
    gate_gaps(trace, path)?;
    let paths = trace.request_paths(request);
    if paths.is_empty() {
        return Err(CliError::Gate(format!(
            "{}: no span carries request {request} ({} spans total)",
            path.display(),
            trace.span_count()
        )));
    }
    let owners: Vec<&canti_obs::SpanNode> = paths
        .iter()
        .map(|p| *p.last().expect("request path is never empty"))
        .collect();
    if let Some(open) = owners.iter().find(|s| s.dur_ns.is_none()) {
        return Err(CliError::Gate(format!(
            "{}: span '{}' (seq {}) owning request {request} never closed",
            path.display(),
            open.name,
            open.seq
        )));
    }
    if !owners.iter().any(|s| s.name == "request") {
        return Err(CliError::Gate(format!(
            "{}: request {request} is orphaned — {} span(s) executed on \
             its behalf but no admission-side 'request' span exists",
            path.display(),
            owners.len()
        )));
    }
    Ok(paths)
}

/// Reconstructs one request's span chain from a serve telemetry
/// artifact: the admission-side `request` span plus every farm `job`
/// span that executed on its behalf, each with its ancestry path, then
/// the critical path under the slowest owning span.
///
/// # Errors
///
/// [`CliError::Gate`] when the artifact is unhealthy for this request —
/// the trace sequence has gaps, no span carries the request id, the
/// request is orphaned (farm spans reference it but no admission-side
/// `request` span exists), or an owning span never closed.
/// [`CliError::Input`] on unreadable/unparsable files.
pub fn trace_request(path: &Path, request: u64) -> Result<String, CliError> {
    let trace = load_trace(path)?;
    let paths = request_paths_checked(&trace, path, request)?;
    let owners: Vec<&canti_obs::SpanNode> = paths
        .iter()
        .map(|p| *p.last().expect("request path is never empty"))
        .collect();

    let trace_id = owners.iter().find_map(|s| s.trace_id);
    let mut out = String::new();
    match trace_id {
        Some(id) => {
            let _ = writeln!(
                out,
                "request {request}: trace {id:#018x}, {} owning span(s)",
                owners.len()
            );
        }
        None => {
            let _ = writeln!(out, "request {request}: {} owning span(s)", owners.len());
        }
    }
    for p in &paths {
        let owner = p.last().expect("non-empty");
        let chain: Vec<&str> = p.iter().map(|s| s.name.as_str()).collect();
        let _ = writeln!(
            out,
            "  {} [{} ns] ({} events)",
            chain.join(" -> "),
            owner.duration_ns(),
            owner.events.len()
        );
    }
    let slowest = owners
        .iter()
        .max_by_key(|s| s.duration_ns())
        .expect("at least one owning span");
    let critical: Vec<String> = slowest
        .critical_path()
        .iter()
        .map(|s| format!("{} ({} ns)", s.name, s.duration_ns()))
        .collect();
    let _ = writeln!(out, "critical path: {}", critical.join(" -> "));
    Ok(out)
}

/// One closed admission-side `request` span.
struct ClosedRequest {
    /// The request's global admission id.
    request: u64,
    /// The span's duration: the request's latency.
    latency_ns: u64,
    /// Where the span ended on the observer clock, saturating so a
    /// crafted artifact cannot overflow it.
    end_ns: u64,
}

/// Every closed admission-side `request` span in `trace`, in tree order:
/// the samples `timeline --spans` recomputes the latency windows from.
fn closed_requests(trace: &Trace) -> Vec<ClosedRequest> {
    fn walk(node: &canti_obs::SpanNode, out: &mut Vec<ClosedRequest>) {
        if let (Some(request), Some(latency_ns)) = (node.request, node.dur_ns) {
            if node.name == "request" {
                out.push(ClosedRequest {
                    request,
                    latency_ns,
                    end_ns: node.start_ns.saturating_add(latency_ns),
                });
            }
        }
        for child in &node.children {
            walk(child, out);
        }
    }
    let mut out = Vec::new();
    for root in &trace.roots {
        walk(root, &mut out);
    }
    out
}

fn load_trace(path: &Path) -> Result<Trace, CliError> {
    let text = read_file(path)?;
    Trace::from_ndjson(&text).map_err(|e| CliError::Input(format!("{}: {e}", path.display())))
}

/// Machine-readable [`summary`]: the same artifact-health gates, but
/// fixed-field NDJSON output — one `trace_health` line, one `stage`
/// line per span name, one `critical` line per critical-path hop, then
/// one `fault`, `shard` or `cache` line per [`EventTally`] event that
/// fired.
///
/// # Errors
///
/// Identical to [`summary`].
pub fn summary_json(path: &Path) -> Result<String, CliError> {
    use canti_obs::ndjson::{self, JsonValue};

    let trace = load_summarizable(path)?;
    let mut out = String::new();
    out.push_str(&ndjson::object(&[
        ("record", JsonValue::from("trace_health")),
        ("spans", JsonValue::from(trace.span_count())),
        ("trace_records", JsonValue::from(trace.trace_records)),
        ("skipped_records", JsonValue::from(trace.skipped_records)),
    ]));
    out.push('\n');
    for (stage, stats) in trace.stage_stats() {
        out.push_str(&ndjson::object(&[
            ("record", JsonValue::from("stage")),
            ("stage", JsonValue::from(stage)),
            ("count", JsonValue::U64(stats.count)),
            ("sum_ns", JsonValue::U64(stats.sum_ns)),
            ("min_ns", JsonValue::U64(stats.min_ns)),
            ("max_ns", JsonValue::U64(stats.max_ns)),
        ]));
        out.push('\n');
    }
    for (depth, span) in trace.critical_path().iter().enumerate() {
        out.push_str(&ndjson::object(&[
            ("record", JsonValue::from("critical")),
            ("depth", JsonValue::from(depth)),
            ("span", JsonValue::from(span.name.clone())),
            ("dur_ns", JsonValue::U64(span.duration_ns())),
        ]));
        out.push('\n');
    }
    let tally = EventTally::new(&trace);
    for (_, record, _, names) in EVENT_FAMILIES {
        for (name, count) in tally.fired(names) {
            out.push_str(&ndjson::object(&[
                ("record", JsonValue::from(record)),
                ("name", JsonValue::from(name)),
                ("count", JsonValue::U64(count)),
            ]));
            out.push('\n');
        }
    }
    Ok(out)
}

/// Machine-readable [`trace_request`]: the same gates, fixed-field
/// NDJSON output — one `request` line, one `owning_span` line per
/// ancestry path, one `critical` line per critical-path hop.
///
/// # Errors
///
/// Identical to [`trace_request`].
pub fn trace_request_json(path: &Path, request: u64) -> Result<String, CliError> {
    use canti_obs::ndjson::{self, JsonValue};

    let trace = load_trace(path)?;
    let paths = request_paths_checked(&trace, path, request)?;
    let owners: Vec<&canti_obs::SpanNode> = paths
        .iter()
        .map(|p| *p.last().expect("request path is never empty"))
        .collect();

    let mut out = String::new();
    let mut header: Vec<(&str, JsonValue)> = vec![
        ("record", JsonValue::from("request")),
        ("request", JsonValue::U64(request)),
    ];
    if let Some(id) = owners.iter().find_map(|s| s.trace_id) {
        header.push(("trace", JsonValue::U64(id)));
    }
    header.push(("owners", JsonValue::from(owners.len())));
    out.push_str(&ndjson::object(&header));
    out.push('\n');
    for p in &paths {
        let owner = p.last().expect("non-empty");
        let chain: Vec<&str> = p.iter().map(|s| s.name.as_str()).collect();
        out.push_str(&ndjson::object(&[
            ("record", JsonValue::from("owning_span")),
            ("chain", JsonValue::from(chain.join(" -> "))),
            ("dur_ns", JsonValue::U64(owner.duration_ns())),
            ("events", JsonValue::from(owner.events.len())),
        ]));
        out.push('\n');
    }
    let slowest = owners
        .iter()
        .max_by_key(|s| s.duration_ns())
        .expect("at least one owning span");
    for (depth, span) in slowest.critical_path().iter().enumerate() {
        out.push_str(&ndjson::object(&[
            ("record", JsonValue::from("critical")),
            ("depth", JsonValue::from(depth)),
            ("span", JsonValue::from(span.name.clone())),
            ("dur_ns", JsonValue::U64(span.duration_ns())),
        ]));
        out.push('\n');
    }
    Ok(out)
}

/// Reads a `/debug/timeline` NDJSON artifact through [`TimelineDump`].
fn load_timeline(path: &Path) -> Result<TimelineDump, CliError> {
    TimelineDump::parse(&read_file(path)?)
        .map_err(|e| CliError::Input(format!("{}: {e}", path.display())))
}

/// `(count, sum)` over a series' retained windows, saturating.
fn totals(series: &SeriesWindows) -> (u64, u64) {
    series.points.iter().fold((0u64, 0u64), |(count, sum), p| {
        (count.saturating_add(p.count), sum.saturating_add(p.sum))
    })
}

/// What [`timeline_report`] shows and in which format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineOptions {
    /// Shard section to render (`"merged"` for the cross-shard fold).
    pub shard: String,
    /// Series-name filter; empty means every series of the shard.
    pub series: Vec<String>,
    /// Emit fixed-field NDJSON instead of tables.
    pub json: bool,
}

impl Default for TimelineOptions {
    fn default() -> Self {
        Self {
            shard: "0".to_owned(),
            series: Vec::new(),
            json: false,
        }
    }
}

/// One sparkline glyph per recorded window, count-scaled to the
/// series' busiest window.
fn sparkline(points: &[SeriesPoint]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = points.iter().map(|p| p.count).max().unwrap_or(0);
    points
        .iter()
        .map(|p| {
            if max == 0 || p.count == 0 {
                GLYPHS[0]
            } else {
                // ceil-scaled so any activity clears the baseline glyph
                let level = p.count.saturating_mul(7).div_ceil(max);
                GLYPHS[level.min(7) as usize]
            }
        })
        .collect()
}

/// Renders the selected shard's per-window series from a
/// `/debug/timeline` artifact — a table plus count sparkline per
/// series, or fixed-field NDJSON with `--json`. With `spans`, also
/// recomputes the request-latency windows offline from the closed
/// `request` spans and `cache_hit` events in that telemetry artifact
/// and cross-checks them against the live `serve.request_latency_ns`
/// section.
///
/// # Errors
///
/// [`CliError::Gate`] when nothing matches the shard/series selection,
/// or when the offline recompute disagrees with the live windows;
/// [`CliError::Input`] on unreadable/unparsable files.
pub fn timeline_report(
    path: &Path,
    spans: Option<&Path>,
    opts: &TimelineOptions,
) -> Result<String, CliError> {
    let dump = load_timeline(path)?;
    let selected: Vec<&SeriesWindows> = dump
        .sections
        .iter()
        .filter(|(shard, _)| *shard == opts.shard)
        .map(|(_, s)| s)
        .filter(|s| opts.series.is_empty() || opts.series.contains(&s.name))
        .collect();
    if selected.is_empty() {
        return Err(CliError::Gate(format!(
            "{}: no timeline series match shard {:?}{}",
            path.display(),
            opts.shard,
            if opts.series.is_empty() {
                String::new()
            } else {
                format!(" and series filter {:?}", opts.series)
            }
        )));
    }

    let width = dump.config.width();
    let mut out = String::new();
    if opts.json {
        out.push_str(&config_line(dump.config));
        out.push('\n');
        for s in &selected {
            for p in &s.points {
                out.push_str(&point_line(Some(&opts.shard), &s.name, s.kind, width, p));
                out.push('\n');
            }
        }
    } else {
        let _ = writeln!(
            out,
            "timeline: window={width} ns, {} window(s) retained, shard {:?}, {} series",
            dump.config.max_windows,
            opts.shard,
            selected.len()
        );
        for s in &selected {
            let (count, sum) = totals(s);
            let _ = writeln!(
                out,
                "{} ({}): {} window(s) count={count} sum={sum}  {}",
                s.name,
                s.kind.as_str(),
                s.points.len(),
                sparkline(&s.points)
            );
            for p in &s.points {
                let mean = p.sum.checked_div(p.count).unwrap_or(0);
                let _ = writeln!(
                    out,
                    "  window {} [t={} ns): count={} sum={} mean={} min={} max={}",
                    p.index,
                    p.index.saturating_mul(width),
                    p.count,
                    p.sum,
                    mean,
                    p.min,
                    p.max
                );
            }
        }
    }

    if let Some(spans_path) = spans {
        out.push_str(&timeline_crosscheck(
            &dump,
            &opts.shard,
            path,
            spans_path,
            opts.json,
        )?);
    }
    Ok(out)
}

/// Recomputes the per-window request-latency series offline from the
/// closed `request` spans of a telemetry artifact and compares it to
/// the live `serve.request_latency_ns` section, window by window. It
/// applies the serve layer's recording rule: an expired or stranded
/// request (a `request_expired` or `request_abandoned` event)
/// closes its span without a latency sample, and a cache hit opens no
/// span but records one, a 0-ns lookup at its `cache_hit` event on the
/// virtual clock where this check is exact. The samples go through a
/// [`TimelineRecorder`] on the artifact's window policy, so windowing
/// and retention are the live recorder's own.
fn timeline_crosscheck(
    dump: &TimelineDump,
    shard: &str,
    artifact_path: &Path,
    spans_path: &Path,
    json: bool,
) -> Result<String, CliError> {
    use canti_obs::ndjson::{self, JsonValue};
    use std::collections::BTreeSet;

    let Some(live) = dump.section(shard, "serve.request_latency_ns") else {
        return Err(CliError::Gate(format!(
            "{}: shard {:?} has no serve.request_latency_ns series to cross-check",
            artifact_path.display(),
            shard
        )));
    };

    let text = read_file(spans_path)?;
    let docs = parse_ndjson(&text)
        .map_err(|e| CliError::Input(format!("{}: {e}", spans_path.display())))?;
    let mut unanswered: BTreeSet<u64> = BTreeSet::new();
    let mut hits_ns: Vec<u64> = Vec::new();
    for doc in docs
        .iter()
        .filter(|d| d.get("kind").and_then(Json::as_str) == Some("event"))
    {
        match doc.get("name").and_then(Json::as_str) {
            Some("request_expired" | "request_abandoned") => unanswered.extend(
                doc.get("fields")
                    .and_then(|f| f.get("request"))
                    .and_then(Json::as_u64),
            ),
            Some("cache_hit") => hits_ns.extend(doc.get("t_ns").and_then(Json::as_u64)),
            _ => {}
        }
    }

    let mut spans = closed_requests(&Trace::from_docs(&docs));
    spans.retain(|s| !unanswered.contains(&s.request));
    let recorder = TimelineRecorder::new(dump.config);
    let latency = recorder.series("serve.request_latency_ns", SeriesKind::Delta);
    // (series, latency_ns, end_ns) per recorded latency
    let samples: Vec<(SeriesId, u64, u64)> = spans
        .iter()
        .map(|s| (latency, s.latency_ns, s.end_ns))
        .chain(hits_ns.iter().map(|&t_ns| (latency, 0, t_ns)))
        .collect();
    if samples.is_empty() {
        return Err(CliError::Gate(format!(
            "{}: no closed, answered 'request' spans or cache hits to recompute from",
            spans_path.display()
        )));
    }
    recorder.record(&samples);
    let recomputed: Vec<SeriesPoint> = recorder
        .snapshot()
        .into_iter()
        .flat_map(|s| s.points)
        .collect();

    if recomputed != live.points {
        let detail = recomputed
            .iter()
            .zip(&live.points)
            .find(|(r, l)| r != l)
            .map_or_else(
                || {
                    format!(
                        "{} recomputed window(s) vs {} live",
                        recomputed.len(),
                        live.points.len()
                    )
                },
                |(r, l)| format!("first divergence: recomputed {r:?} vs live {l:?}"),
            );
        return Err(CliError::Gate(format!(
            "{}: offline recompute from {} disagrees with live \
             serve.request_latency_ns windows ({detail})",
            artifact_path.display(),
            spans_path.display()
        )));
    }

    if json {
        let mut line = ndjson::object(&[
            ("record", JsonValue::from("timeline_crosscheck")),
            ("shard", JsonValue::from(shard.to_owned())),
            ("requests", JsonValue::from(samples.len())),
            ("windows", JsonValue::from(recomputed.len())),
            ("verdict", JsonValue::from("match")),
        ]);
        line.push('\n');
        Ok(line)
    } else {
        let hits = match hits_ns.len() {
            0 => String::new(),
            n => format!("{n} cache hit(s), "),
        };
        Ok(format!(
            "offline recompute ({}): {} request span(s), {hits}{} window(s) — \
             matches live serve.request_latency_ns\n",
            spans_path.display(),
            spans.len(),
            recomputed.len()
        ))
    }
}

/// Tuning for [`anomaly`].
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyOptions {
    /// Relative slack: a series is anomalous when its total count
    /// drifted (either direction) by more than this percentage.
    pub threshold_pct: f64,
    /// Shard section to compare — the merged fold by default, so the
    /// verdict does not depend on how requests happened to shard.
    pub shard: String,
    /// Series to compare; empty means every series present in either
    /// artifact's shard section. A named series missing on either side
    /// is itself an anomaly.
    pub series: Vec<String>,
}

impl Default for AnomalyOptions {
    fn default() -> Self {
        Self {
            threshold_pct: 25.0,
            shard: "merged".to_owned(),
            series: Vec::new(),
        }
    }
}

/// One series comparison inside an [`AnomalyReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyRow {
    /// Series name.
    pub series: String,
    /// Baseline total count.
    pub baseline: u64,
    /// Current total count.
    pub current: u64,
    /// Absolute relative drift, percent.
    pub drift_pct: f64,
    /// Whether this row trips the gate.
    pub anomalous: bool,
}

/// The outcome of comparing a timeline artifact against a baseline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AnomalyReport {
    /// All compared series.
    pub rows: Vec<AnomalyRow>,
    /// Series present on only one side: `(name, missing side)` where
    /// the side is `"baseline"` or `"current"`.
    pub missing: Vec<(String, &'static str)>,
}

impl AnomalyReport {
    /// Whether any series drifted beyond the threshold or went missing.
    #[must_use]
    pub fn anomalous(&self) -> bool {
        !self.missing.is_empty() || self.rows.iter().any(|r| r.anomalous)
    }

    /// An aligned human-readable table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>12} {:>12} {:>9}  verdict",
            "series", "baseline", "current", "drift"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<28} {:>12} {:>12} {:>8.1}%  {}",
                r.series,
                r.baseline,
                r.current,
                r.drift_pct,
                if r.anomalous { "ANOMALOUS" } else { "ok" }
            );
        }
        for (name, side) in &self.missing {
            let _ = writeln!(out, "{name:<28} missing in {side}  ANOMALOUS");
        }
        out
    }
}

/// Compares the per-series total observation counts of a current
/// `/debug/timeline` artifact against an archived baseline.
///
/// Counts — not sums — carry the verdict: on a wall clock the nanosecond
/// sums jitter run to run, while the number of admissions, completions
/// and expiries of a scripted smoke run is stable. Drift in **either**
/// direction beyond [`AnomalyOptions::threshold_pct`] is anomalous (a
/// vanished series is a worse regression than a slow one), as is a
/// series present on only one side.
///
/// # Errors
///
/// [`CliError::Gate`] when the shard/series selection matches nothing
/// at all; [`CliError::Input`] on unreadable/unparsable artifacts.
/// Drift itself is *not* an error — callers check
/// [`AnomalyReport::anomalous`] (the binary maps it to exit 1).
pub fn anomaly(
    current: &Path,
    baseline: &Path,
    opts: &AnomalyOptions,
) -> Result<AnomalyReport, CliError> {
    let cur = load_timeline(current)?;
    let base = load_timeline(baseline)?;

    let names: Vec<String> = if opts.series.is_empty() {
        let mut names: Vec<String> = cur
            .sections
            .iter()
            .chain(&base.sections)
            .filter(|(shard, _)| *shard == opts.shard)
            .map(|(_, s)| s.name.clone())
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    } else {
        opts.series.clone()
    };
    if names.is_empty() {
        return Err(CliError::Gate(format!(
            "neither {} nor {} has timeline series for shard {:?}",
            current.display(),
            baseline.display(),
            opts.shard
        )));
    }

    let mut report = AnomalyReport::default();
    for name in names {
        let cur_total = cur.section(&opts.shard, &name).map(|s| totals(s).0);
        let base_total = base.section(&opts.shard, &name).map(|s| totals(s).0);
        match (base_total, cur_total) {
            (None, None) => {
                report.missing.push((name.clone(), "baseline"));
                report.missing.push((name, "current"));
            }
            (None, Some(_)) => report.missing.push((name, "baseline")),
            (Some(_), None) => report.missing.push((name, "current")),
            (Some(b), Some(c)) => {
                let drift_pct = if b == 0 {
                    if c == 0 {
                        0.0
                    } else {
                        100.0
                    }
                } else {
                    (c as f64 - b as f64).abs() / b as f64 * 100.0
                };
                report.rows.push(AnomalyRow {
                    series: name,
                    baseline: b,
                    current: c,
                    drift_pct,
                    anomalous: drift_pct > opts.threshold_pct,
                });
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("obsctl-unit-{name}-{}", std::process::id()));
        std::fs::write(&path, content).expect("write temp fixture");
        path
    }

    #[test]
    fn load_stages_reads_both_shapes() {
        let report = write_temp(
            "report",
            r#"{"timings": [{"name": "solve", "count": 5, "sum_ns": 50, "min_ns": 1, "max_ns": 20, "p50_ns": 10, "p95_ns": 20, "p99_ns": 20}]}"#,
        );
        let stages = load_stages(&report).unwrap();
        assert_eq!(
            stages,
            vec![(
                "solve".to_owned(),
                StageSummary {
                    p50_ns: 10,
                    p95_ns: 20,
                    p99_ns: Some(20),
                    max_ns: Some(20),
                    count: 5
                }
            )]
        );

        let ndjson = write_temp(
            "ndjson",
            "{\"metric\":\"farm.queue_wait_ns\",\"type\":\"histogram\",\"count\":4,\"sum\":40,\"p50\":9,\"p95\":11,\"max\":12}\n\
             {\"metric\":\"farm.solve_ns\",\"type\":\"histogram\",\"count\":4,\"sum\":40,\"min\":1,\"max\":30,\"p50\":8,\"p95\":30,\"p99\":30}\n",
        );
        let stages = load_stages(&ndjson).unwrap();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].0, "farm.queue_wait_ns");
        // a legacy record without p99 still loads, with the tail absent
        assert_eq!((stages[0].1.p99_ns, stages[0].1.max_ns), (None, Some(12)));
        assert_eq!(stages[1].0, "farm.solve_ns");
        assert_eq!(stages[1].1.p95_ns, 30);
        assert_eq!(stages[1].1.p99_ns, Some(30));
    }

    #[test]
    fn summary_reports_fault_health() {
        let artifact = write_temp(
            "fault-health",
            "{\"seq\":0,\"t_ns\":0,\"kind\":\"span_start\",\"name\":\"scan\"}\n\
             {\"seq\":1,\"t_ns\":1,\"kind\":\"event\",\"name\":\"fault_injected\"}\n\
             {\"seq\":2,\"t_ns\":2,\"kind\":\"event\",\"name\":\"measure_retry\"}\n\
             {\"seq\":3,\"t_ns\":3,\"kind\":\"event\",\"name\":\"measure_retry\"}\n\
             {\"seq\":4,\"t_ns\":4,\"kind\":\"event\",\"name\":\"channel_quarantined\"}\n\
             {\"seq\":5,\"t_ns\":5,\"kind\":\"span_end\",\"name\":\"scan\",\"dur_ns\":5}\n",
        );
        let text = summary(&artifact).unwrap();
        assert!(text.contains("fault health:"), "{text}");
        assert!(text.contains("fault_injected       1"), "{text}");
        assert!(text.contains("measure_retry        2"), "{text}");
        assert!(text.contains("channel_quarantined  1"), "{text}");
    }

    #[test]
    fn clean_trace_reports_quiet_fault_health() {
        let artifact = write_temp(
            "fault-quiet",
            "{\"seq\":0,\"t_ns\":0,\"kind\":\"span_start\",\"name\":\"scan\"}\n\
             {\"seq\":1,\"t_ns\":9,\"kind\":\"span_end\",\"name\":\"scan\",\"dur_ns\":9}\n",
        );
        let text = summary(&artifact).unwrap();
        assert!(
            text.contains("fault health: clean"),
            "a fault-free artifact must say so: {text}"
        );
    }

    #[test]
    fn summary_reports_shard_health() {
        let artifact = write_temp(
            "shard-health",
            "{\"seq\":0,\"t_ns\":0,\"kind\":\"span_start\",\"name\":\"serve_batch\"}\n\
             {\"seq\":1,\"t_ns\":1,\"kind\":\"event\",\"name\":\"shard_down\",\"fields\":{\"batch\":0}}\n\
             {\"seq\":2,\"t_ns\":2,\"kind\":\"event\",\"name\":\"failover\",\"fields\":{\"request\":7,\"from\":1,\"to\":0}}\n\
             {\"seq\":3,\"t_ns\":3,\"kind\":\"event\",\"name\":\"failover\",\"fields\":{\"request\":9,\"from\":1,\"to\":0}}\n\
             {\"seq\":4,\"t_ns\":4,\"kind\":\"event\",\"name\":\"shard_recovered\",\"fields\":{\"restarts\":1}}\n\
             {\"seq\":5,\"t_ns\":5,\"kind\":\"span_end\",\"name\":\"serve_batch\",\"dur_ns\":5}\n",
        );
        let text = summary(&artifact).unwrap();
        assert!(text.contains("shard health:"), "{text}");
        assert!(text.contains("shard_down           1"), "{text}");
        assert!(text.contains("failover             2"), "{text}");
        assert!(text.contains("shard_recovered      1"), "{text}");

        let tally = EventTally::new(&load_trace(&artifact).unwrap());
        assert_eq!(tally.count("failover"), 2);
        assert_eq!(tally.count("shard_vanished"), 0, "absent reads as zero");

        let json = summary_json(&artifact).unwrap();
        assert!(
            json.contains("{\"record\":\"shard\",\"name\":\"failover\",\"count\":2}"),
            "{json}"
        );
    }

    #[test]
    fn clean_trace_reports_quiet_shard_health() {
        let artifact = write_temp(
            "shard-quiet",
            "{\"seq\":0,\"t_ns\":0,\"kind\":\"span_start\",\"name\":\"scan\"}\n\
             {\"seq\":1,\"t_ns\":9,\"kind\":\"span_end\",\"name\":\"scan\",\"dur_ns\":9}\n",
        );
        let text = summary(&artifact).unwrap();
        assert!(
            text.contains("shard health: clean"),
            "a failure-free artifact must say so: {text}"
        );
    }

    #[test]
    fn summary_reports_cache_activity() {
        let artifact = write_temp(
            "cache-activity",
            "{\"seq\":0,\"t_ns\":0,\"kind\":\"span_start\",\"name\":\"serve_batch\"}\n\
             {\"seq\":1,\"t_ns\":1,\"kind\":\"event\",\"name\":\"cache_miss\",\"fields\":{\"kind\":\"probe\"}}\n\
             {\"seq\":2,\"t_ns\":2,\"kind\":\"event\",\"name\":\"coalesced\",\"fields\":{\"request\":2,\"leader\":1}}\n\
             {\"seq\":3,\"t_ns\":3,\"kind\":\"event\",\"name\":\"cache_hit\",\"fields\":{\"request\":3,\"kind\":\"probe\"}}\n\
             {\"seq\":4,\"t_ns\":4,\"kind\":\"event\",\"name\":\"cache_hit\",\"fields\":{\"request\":4,\"kind\":\"probe\"}}\n\
             {\"seq\":5,\"t_ns\":5,\"kind\":\"span_end\",\"name\":\"serve_batch\",\"dur_ns\":5}\n\
             {\"seq\":6,\"t_ns\":6,\"kind\":\"event\",\"name\":\"cache_hit\",\"fields\":{\"request\":5,\"kind\":\"probe\"}}\n",
        );
        let text = summary(&artifact).unwrap();
        assert!(text.contains("cache:"), "{text}");
        // the seq-6 hit fired outside any span and must still be counted
        assert!(text.contains("cache_hit            3"), "{text}");
        assert!(text.contains("cache_miss           1"), "{text}");
        assert!(text.contains("coalesced            1"), "{text}");

        let tally = EventTally::new(&load_trace(&artifact).unwrap());
        assert_eq!(tally.count("cache_hit"), 3);
        assert_eq!(tally.count("cache_miss"), 1);
        assert_eq!(tally.count("coalesced"), 1);

        let json = summary_json(&artifact).unwrap();
        assert!(
            json.contains("{\"record\":\"cache\",\"name\":\"cache_hit\",\"count\":3}"),
            "{json}"
        );
        assert!(
            json.contains("{\"record\":\"cache\",\"name\":\"coalesced\",\"count\":1}"),
            "{json}"
        );
    }

    #[test]
    fn uncached_trace_reports_quiet_cache() {
        let artifact = write_temp(
            "cache-quiet",
            "{\"seq\":0,\"t_ns\":0,\"kind\":\"span_start\",\"name\":\"scan\"}\n\
             {\"seq\":1,\"t_ns\":9,\"kind\":\"span_end\",\"name\":\"scan\",\"dur_ns\":9}\n",
        );
        let text = summary(&artifact).unwrap();
        assert!(
            text.contains("cache: quiet"),
            "a cache-free artifact must say so: {text}"
        );
    }

    #[test]
    fn no_timings_is_an_input_error() {
        let path = write_temp(
            "empty",
            "{\"seq\":0,\"t_ns\":0,\"kind\":\"event\",\"name\":\"x\"}\n",
        );
        let err = load_stages(&path).unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn trace_request_renders_the_chain_and_critical_path() {
        let artifact = write_temp(
            "trace-chain",
            "{\"seq\":0,\"t_ns\":100,\"kind\":\"span_start\",\"name\":\"request\",\"fields\":{\"request\":7,\"trace\":153,\"kind\":\"probe\"}}\n\
             {\"seq\":1,\"t_ns\":150,\"kind\":\"span_end\",\"name\":\"request\",\"fields\":{\"dur_ns\":50}}\n\
             {\"seq\":2,\"t_ns\":150,\"kind\":\"span_start\",\"name\":\"serve_batch\",\"fields\":{\"batch\":0}}\n\
             {\"seq\":3,\"t_ns\":150,\"kind\":\"span_start\",\"name\":\"job\",\"fields\":{\"request\":7,\"trace\":153}}\n\
             {\"seq\":4,\"t_ns\":450,\"kind\":\"span_end\",\"name\":\"job\",\"fields\":{\"dur_ns\":300}}\n\
             {\"seq\":5,\"t_ns\":460,\"kind\":\"span_start\",\"name\":\"job\",\"fields\":{\"request\":8,\"trace\":154}}\n\
             {\"seq\":6,\"t_ns\":470,\"kind\":\"span_end\",\"name\":\"job\",\"fields\":{\"dur_ns\":10}}\n\
             {\"seq\":7,\"t_ns\":480,\"kind\":\"span_end\",\"name\":\"serve_batch\",\"fields\":{\"dur_ns\":330}}\n",
        );
        let text = trace_request(&artifact, 7).unwrap();
        assert!(
            text.contains("request 7: trace 0x0000000000000099, 2 owning span(s)"),
            "{text}"
        );
        assert!(text.contains("request [50 ns]"), "{text}");
        assert!(text.contains("serve_batch -> job [300 ns]"), "{text}");
        assert!(text.contains("critical path: job (300 ns)"), "{text}");

        // a request id nothing carries is a gate failure, not silence
        let err = trace_request(&artifact, 6).unwrap_err();
        assert_eq!(err.exit_code(), 1, "{err}");
    }

    #[test]
    fn trace_request_gates_on_orphaned_and_unclosed_requests() {
        // a farm job references request 9 but no admission span exists
        let orphan = write_temp(
            "trace-orphan",
            "{\"seq\":0,\"t_ns\":0,\"kind\":\"span_start\",\"name\":\"job\",\"fields\":{\"request\":9}}\n\
             {\"seq\":1,\"t_ns\":5,\"kind\":\"span_end\",\"name\":\"job\",\"fields\":{\"dur_ns\":5}}\n",
        );
        let err = trace_request(&orphan, 9).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        assert!(err.to_string().contains("orphaned"), "{err}");

        // an admission span that never closed (request stuck in flight)
        let unclosed = write_temp(
            "trace-unclosed",
            "{\"seq\":0,\"t_ns\":0,\"kind\":\"span_start\",\"name\":\"request\",\"fields\":{\"request\":3,\"trace\":9}}\n",
        );
        let err = trace_request(&unclosed, 3).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        assert!(err.to_string().contains("never closed"), "{err}");

        // a sequence gap poisons the whole artifact for tracing
        let gapped = write_temp(
            "trace-gap",
            "{\"seq\":0,\"t_ns\":0,\"kind\":\"span_start\",\"name\":\"request\",\"fields\":{\"request\":3}}\n\
             {\"seq\":2,\"t_ns\":5,\"kind\":\"span_end\",\"name\":\"request\",\"fields\":{\"dur_ns\":5}}\n",
        );
        let err = trace_request(&gapped, 3).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        assert!(err.to_string().contains("gap"), "{err}");
    }

    /// A request span ending past `u64::MAX` saturates into the last
    /// window of the `--spans` recompute instead of overflowing (or
    /// wrapping into window 0), so it matches a live window recorded
    /// there.
    #[test]
    fn timeline_spans_saturate_a_span_ending_past_the_clock_range() {
        let start = u64::MAX - 5;
        let last = u64::MAX / 1_000;
        let timeline = write_temp(
            "spans-overflow-timeline",
            &format!(
                "{{\"record\":\"timeline_config\",\"window_ns\":1000,\"max_windows\":8}}\n\
                 {{\"record\":\"timeline\",\"shard\":\"0\",\"series\":\"serve.request_latency_ns\",\
                 \"kind\":\"delta\",\"window\":{last},\"t_ns\":{},\"count\":1,\"sum\":100,\
                 \"min\":100,\"max\":100}}\n",
                last * 1_000
            ),
        );
        let spans = write_temp(
            "spans-overflow",
            &format!(
                "{{\"seq\":0,\"t_ns\":{start},\"kind\":\"span_start\",\"name\":\"request\",\"fields\":{{\"request\":1}}}}\n\
                 {{\"seq\":1,\"t_ns\":{start},\"kind\":\"span_end\",\"name\":\"request\",\"fields\":{{\"dur_ns\":100}}}}\n"
            ),
        );
        let text = timeline_report(&timeline, Some(&spans), &TimelineOptions::default()).unwrap();
        assert!(
            text.contains("1 request span(s), 1 window(s) — matches live"),
            "{text}"
        );
    }

    #[test]
    fn diff_thresholds_and_noise_floor() {
        let old = write_temp(
            "diff-old",
            r#"{"timings": [{"name": "solve", "count": 5, "p50_ns": 1000000, "p95_ns": 2000000}, {"name": "tiny", "count": 5, "p50_ns": 100, "p95_ns": 200}]}"#,
        );
        // solve p95 +100% (regression), tiny +100% but only +200 ns (noise)
        let new = write_temp(
            "diff-new",
            r#"{"timings": [{"name": "solve", "count": 5, "p50_ns": 1000000, "p95_ns": 4000000}, {"name": "tiny", "count": 5, "p50_ns": 200, "p95_ns": 400}]}"#,
        );
        let report = diff(&old, &new, DiffOptions::default()).unwrap();
        assert!(report.regressed());
        let regressed: Vec<_> = report
            .rows
            .iter()
            .filter(|r| r.regressed)
            .map(|r| (r.stage.as_str(), r.quantile))
            .collect();
        assert_eq!(regressed, vec![("solve", "p95")]);
        assert!(report.render().contains("REGRESSED"));

        // identical inputs never regress
        let report = diff(&old, &old, DiffOptions::default()).unwrap();
        assert!(!report.regressed());
    }

    #[test]
    fn diff_compares_p99_only_when_both_sides_carry_it() {
        let legacy = write_temp(
            "p99-legacy",
            r#"{"timings": [{"name": "solve", "count": 5, "p50_ns": 100, "p95_ns": 200}]}"#,
        );
        let tailed = write_temp(
            "p99-tailed",
            r#"{"timings": [{"name": "solve", "count": 5, "p50_ns": 100, "p95_ns": 200, "p99_ns": 900, "max_ns": 1000}]}"#,
        );
        // legacy baseline: no p99 row, so archived artifacts keep diffing
        let report = diff(&legacy, &tailed, DiffOptions::default()).unwrap();
        assert!(report.rows.iter().all(|r| r.quantile != "p99"));

        // both sides tailed: the p99 row exists and can trip the gate
        let worse = write_temp(
            "p99-worse",
            r#"{"timings": [{"name": "solve", "count": 5, "p50_ns": 100, "p95_ns": 200, "p99_ns": 2000000, "max_ns": 3000000}]}"#,
        );
        let report = diff(&tailed, &worse, DiffOptions::default()).unwrap();
        let p99: Vec<_> = report.rows.iter().filter(|r| r.quantile == "p99").collect();
        assert_eq!(p99.len(), 1);
        assert!(p99[0].regressed, "{:?}", p99[0]);
    }

    #[test]
    fn improvements_do_not_regress_and_unmatched_are_listed() {
        let old = write_temp(
            "imp-old",
            r#"{"timings": [{"name": "solve", "count": 5, "p50_ns": 2000000, "p95_ns": 4000000}, {"name": "gone", "count": 1, "p50_ns": 5, "p95_ns": 6}]}"#,
        );
        let new = write_temp(
            "imp-new",
            r#"{"timings": [{"name": "solve", "count": 5, "p50_ns": 1000000, "p95_ns": 2000000}, {"name": "fresh", "count": 1, "p50_ns": 5, "p95_ns": 6}]}"#,
        );
        let report = diff(&old, &new, DiffOptions::default()).unwrap();
        assert!(!report.regressed());
        assert!(report.unmatched.contains(&("gone".to_owned(), "old")));
        assert!(report.unmatched.contains(&("fresh".to_owned(), "new")));
    }
}
