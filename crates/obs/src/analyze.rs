//! Trace analysis: span-tree reconstruction, per-stage aggregation,
//! critical-path extraction and folded-stack flamegraph output.
//!
//! Consumes the NDJSON telemetry a [`crate::trace::Tracer`] emits (after
//! [`crate::parse`] has read it back): `span_start` / `span_end` /
//! `event` records on one gap-free sequence. Non-trace lines in the same
//! artifact (metric dumps, farm stage records) are counted and skipped,
//! so the analyzer can be pointed at a whole `farm_telemetry.ndjson`.
//!
//! Because workers interleave their spans on the shared sequence, strict
//! nesting does not hold. A `span_end` that names its request (the serve
//! layer's `request` span ends carry a `request` field) closes that
//! request's open span, so overlapping requests keep their own
//! durations. Any other `span_end` closes the **innermost open span of
//! the same name** (LIFO per name), which is exact for single-threaded
//! traces and a deterministic, conservative approximation for
//! interleaved ones. Spans opened after the matched one stay open —
//! under interleaving they belong to other workers — so every span that
//! has an end record closes with a duration.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use canti_obs::analyze::Trace;
//! use canti_obs::clock::VirtualClock;
//! use canti_obs::trace::{RingCollector, Tracer};
//!
//! let ring = Arc::new(RingCollector::new(64));
//! let clock = Arc::new(VirtualClock::new());
//! let tracer = Tracer::new(Arc::clone(&ring), Arc::clone(&clock) as _);
//! {
//!     let _batch = tracer.span("batch", &[]);
//!     let job = tracer.span("job", &[]);
//!     clock.advance_ns(500);
//!     drop(job);
//! }
//! let trace = Trace::from_ndjson(&ring.to_ndjson()).unwrap();
//! assert_eq!(trace.roots.len(), 1);
//! assert_eq!(trace.roots[0].children[0].name, "job");
//! assert!(trace.seq_gaps.is_empty());
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::parse::{parse_ndjson, Json, ParseError};

/// One reconstructed span and everything that happened inside it.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Sequence number of the `span_start` record.
    pub seq: u64,
    /// Start timestamp, ns.
    pub start_ns: u64,
    /// Duration from the matching `span_end` (its `dur_ns` field, else
    /// the timestamp difference). `None` while unclosed.
    pub dur_ns: Option<u64>,
    /// The owning request's global admission id, when the `span_start`
    /// record carried a `request` field (serve request spans, farm job
    /// spans executing on behalf of a request).
    pub request: Option<u64>,
    /// The request-scoped trace id, when the `span_start` record carried
    /// a `trace` field.
    pub trace_id: Option<u64>,
    /// Child spans, in start order.
    pub children: Vec<SpanNode>,
    /// Instantaneous events recorded inside this span (names only).
    pub events: Vec<String>,
}

impl SpanNode {
    /// The span's duration, treating unclosed spans as zero-length.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.dur_ns.unwrap_or(0)
    }

    /// Spans in this subtree (including self).
    #[must_use]
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(SpanNode::size).sum::<usize>()
    }

    /// Duration not attributed to any child (clamped at zero).
    #[must_use]
    pub fn self_ns(&self) -> u64 {
        let children: u64 = self.children.iter().map(SpanNode::duration_ns).sum();
        self.duration_ns().saturating_sub(children)
    }

    /// The chain of slowest spans from this span down — the subtree's
    /// critical path, starting with `self`.
    #[must_use]
    pub fn critical_path(&self) -> Vec<&SpanNode> {
        let mut path = vec![self];
        let mut cursor = self.children.iter().max_by_key(|s| s.duration_ns());
        while let Some(node) = cursor {
            path.push(node);
            cursor = node.children.iter().max_by_key(|s| s.duration_ns());
        }
        path
    }
}

/// Exact aggregate over one span name's durations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageStats {
    /// Closed spans aggregated.
    pub count: u64,
    /// Total duration, ns.
    pub sum_ns: u64,
    /// Smallest duration, ns.
    pub min_ns: u64,
    /// Largest duration, ns.
    pub max_ns: u64,
    /// Exact median (lower-rank convention), ns.
    pub p50_ns: u64,
    /// Exact 95th percentile (lower-rank convention), ns.
    pub p95_ns: u64,
    /// Exact 99th percentile (lower-rank convention), ns.
    pub p99_ns: u64,
}

impl StageStats {
    fn from_durations(durations: &mut [u64]) -> Self {
        durations.sort_unstable();
        let count = durations.len() as u64;
        if count == 0 {
            return Self::default();
        }
        let rank = |q: f64| {
            let idx = ((q * count as f64).ceil() as usize).clamp(1, durations.len());
            durations[idx - 1]
        };
        Self {
            count,
            sum_ns: durations.iter().sum(),
            min_ns: durations[0],
            max_ns: *durations.last().expect("non-empty"),
            p50_ns: rank(0.50),
            p95_ns: rank(0.95),
            p99_ns: rank(0.99),
        }
    }
}

/// A fully reconstructed trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Top-level spans (spans opened while no other span was open).
    pub roots: Vec<SpanNode>,
    /// Trace records consumed (span starts/ends + events).
    pub trace_records: usize,
    /// Non-trace NDJSON lines skipped (metric dumps, farm records).
    pub skipped_records: usize,
    /// Half-open gaps `(after, before)` in the sequence numbers — a
    /// correct artifact from one tracer has none.
    pub seq_gaps: Vec<(u64, u64)>,
    /// Spans that never closed (name, seq).
    pub unclosed: Vec<(String, u64)>,
    /// Names of instantaneous events recorded while no span was open
    /// (seq order). Admission-time telemetry (cache hits, coalescing)
    /// lands here whenever it fires outside a request span, and so does
    /// a restarted shard's `shard_recovered`; [`Self::event_counts`]
    /// tallies them with the rest.
    pub orphan_events: Vec<String>,
}

impl Trace {
    /// Parses an NDJSON artifact and reconstructs the span forest.
    ///
    /// # Errors
    ///
    /// Fails only on malformed JSON; unknown record shapes are skipped
    /// and counted in [`Self::skipped_records`].
    pub fn from_ndjson(input: &str) -> Result<Self, ParseError> {
        Ok(Self::from_docs(&parse_ndjson(input)?))
    }

    /// Reconstruction from already-parsed documents.
    #[must_use]
    pub fn from_docs(docs: &[Json]) -> Self {
        struct Rec {
            seq: u64,
            t_ns: u64,
            kind: String,
            name: String,
            dur_ns: Option<u64>,
            request: Option<u64>,
            trace_id: Option<u64>,
        }
        // a trace record has seq + kind + name; anything else is skipped
        let mut records: Vec<Rec> = Vec::new();
        let mut skipped = 0usize;
        for doc in docs {
            let (Some(seq), Some(kind), Some(name)) = (
                doc.get("seq").and_then(Json::as_u64),
                doc.get("kind").and_then(Json::as_str),
                doc.get("name").and_then(Json::as_str),
            ) else {
                skipped += 1;
                continue;
            };
            let fields = doc.get("fields");
            let field = |key: &str| fields.and_then(|f| f.get(key)).and_then(Json::as_u64);
            records.push(Rec {
                seq,
                t_ns: doc.get("t_ns").and_then(Json::as_u64).unwrap_or(0),
                kind: kind.to_owned(),
                name: name.to_owned(),
                dur_ns: field("dur_ns"),
                request: field("request"),
                trace_id: field("trace"),
            });
        }
        records.sort_by_key(|r| r.seq);

        let seq_gaps = records
            .windows(2)
            .filter(|w| w[1].seq > w[0].seq + 1)
            .map(|w| (w[0].seq, w[1].seq))
            .collect();

        // open-span stack; a span_end naming a request pops that
        // request's frame, any other the innermost same-name frame
        let mut roots: Vec<SpanNode> = Vec::new();
        let mut stack: Vec<SpanNode> = Vec::new();
        let mut orphan_events: Vec<String> = Vec::new();
        for rec in &records {
            let Rec {
                seq,
                t_ns,
                kind,
                name,
                dur_ns,
                request,
                trace_id,
            } = rec;
            match kind.as_str() {
                "span_start" => stack.push(SpanNode {
                    name: name.clone(),
                    seq: *seq,
                    start_ns: *t_ns,
                    dur_ns: None,
                    request: *request,
                    trace_id: *trace_id,
                    children: Vec::new(),
                    events: Vec::new(),
                }),
                "span_end" => {
                    let owns = |s: &SpanNode| request.is_none() || s.request == *request;
                    let Some(pos) = stack.iter().rposition(|s| &s.name == name && owns(s)) else {
                        continue; // stray end (e.g. ring evicted the start)
                    };
                    // frames opened after the match stay open: with
                    // interleaved workers they belong to other threads
                    // and close on their own ends
                    let mut node = stack.remove(pos);
                    node.dur_ns =
                        Some(dur_ns.unwrap_or_else(|| t_ns.saturating_sub(node.start_ns)));
                    match pos.checked_sub(1) {
                        Some(parent) => stack[parent].children.push(node),
                        None => roots.push(node),
                    }
                }
                "event" => {
                    if let Some(open) = stack.last_mut() {
                        open.events.push(name.clone());
                    } else {
                        orphan_events.push(name.clone());
                    }
                }
                _ => skipped += 1,
            }
        }
        let unclosed: Vec<(String, u64)> = stack.iter().map(|s| (s.name.clone(), s.seq)).collect();
        for orphan in stack {
            roots.push(orphan);
        }

        Trace {
            roots,
            trace_records: records.len(),
            skipped_records: skipped,
            seq_gaps,
            unclosed,
            orphan_events,
        }
    }

    /// Total spans in the forest.
    #[must_use]
    pub fn span_count(&self) -> usize {
        self.roots.iter().map(SpanNode::size).sum()
    }

    /// Exact per-name duration aggregates over all closed spans, sorted
    /// by name.
    #[must_use]
    pub fn stage_stats(&self) -> Vec<(String, StageStats)> {
        let mut by_name: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        fn walk(node: &SpanNode, by_name: &mut BTreeMap<String, Vec<u64>>) {
            if let Some(dur) = node.dur_ns {
                by_name.entry(node.name.clone()).or_default().push(dur);
            }
            for child in &node.children {
                walk(child, by_name);
            }
        }
        for root in &self.roots {
            walk(root, &mut by_name);
        }
        by_name
            .into_iter()
            .map(|(name, mut durs)| (name, StageStats::from_durations(&mut durs)))
            .collect()
    }

    /// The chain of slowest spans from the slowest root down — the
    /// critical path a latency fix should start from. Empty for an empty
    /// trace.
    #[must_use]
    pub fn critical_path(&self) -> Vec<&SpanNode> {
        self.roots
            .iter()
            .max_by_key(|s| s.duration_ns())
            .map(SpanNode::critical_path)
            .unwrap_or_default()
    }

    /// Every span owned by `request` (its `span_start` carried
    /// `request == id`), each with its ancestry path from a root —
    /// `path.last()` is the owning span itself. Paths come back in span
    /// start (sequence) order, so the admission-side `request` span
    /// precedes the farm-side `job` span executing it.
    #[must_use]
    pub fn request_paths(&self, request: u64) -> Vec<Vec<&SpanNode>> {
        fn walk<'t>(
            node: &'t SpanNode,
            request: u64,
            ancestry: &mut Vec<&'t SpanNode>,
            out: &mut Vec<Vec<&'t SpanNode>>,
        ) {
            ancestry.push(node);
            if node.request == Some(request) {
                out.push(ancestry.clone());
            }
            for child in &node.children {
                walk(child, request, ancestry, out);
            }
            ancestry.pop();
        }
        let mut out = Vec::new();
        let mut ancestry = Vec::new();
        for root in &self.roots {
            walk(root, request, &mut ancestry, &mut out);
        }
        out.sort_by_key(|path| path.last().map_or(0, |s| s.seq));
        out
    }

    /// Folded-stack flamegraph lines (`a;b;c <self_ns>`), the input
    /// format of the standard `flamegraph.pl` / inferno toolchain, with
    /// self-time (ns) as the sample weight. Identical stacks are merged;
    /// zero-weight stacks are kept only if they have no children (so
    /// leaf spans always show up).
    #[must_use]
    pub fn folded_stacks(&self) -> String {
        let mut weights: BTreeMap<String, u64> = BTreeMap::new();
        fn walk(node: &SpanNode, prefix: &str, weights: &mut BTreeMap<String, u64>) {
            let stack = if prefix.is_empty() {
                node.name.clone()
            } else {
                format!("{prefix};{}", node.name)
            };
            let self_ns = node.self_ns();
            if self_ns > 0 || node.children.is_empty() {
                *weights.entry(stack.clone()).or_insert(0) += self_ns;
            }
            for child in &node.children {
                walk(child, &stack, weights);
            }
        }
        for root in &self.roots {
            walk(root, "", &mut weights);
        }
        let mut out = String::new();
        for (stack, weight) in weights {
            let _ = writeln!(out, "{stack} {weight}");
        }
        out
    }

    /// Tallies every event record in the artifact by name, sorted by
    /// name: the events inside the span forest plus the
    /// [`Self::orphan_events`] fired while no span was open. Fault,
    /// recovery and supervision telemetry (`fault_injected`,
    /// `shard_recovered`, …) and admission-time cache activity surface
    /// here without the consumer having to walk the tree, and without
    /// depending on whether a span happened to be open when they fired.
    #[must_use]
    pub fn event_counts(&self) -> Vec<(String, u64)> {
        fn walk(node: &SpanNode, counts: &mut BTreeMap<String, u64>) {
            for event in &node.events {
                *counts.entry(event.clone()).or_insert(0) += 1;
            }
            for child in &node.children {
                walk(child, counts);
            }
        }
        let mut counts = BTreeMap::new();
        for root in &self.roots {
            walk(root, &mut counts);
        }
        for name in &self.orphan_events {
            *counts.entry(name.clone()).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// A human-readable span-tree rendering with durations and per-stage
    /// aggregates, suitable for terminal output.
    #[must_use]
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} spans / {} trace records ({} non-trace lines skipped)",
            self.span_count(),
            self.trace_records,
            self.skipped_records
        );
        if !self.seq_gaps.is_empty() {
            let _ = writeln!(out, "  !! sequence gaps: {:?}", self.seq_gaps);
        }
        if !self.unclosed.is_empty() {
            let _ = writeln!(out, "  !! unclosed spans: {:?}", self.unclosed);
        }
        fn walk(node: &SpanNode, depth: usize, out: &mut String, budget: &mut usize) {
            if *budget == 0 {
                return;
            }
            *budget -= 1;
            let dur = node
                .dur_ns
                .map_or_else(|| "open".to_owned(), |d| format!("{d} ns"));
            let _ = writeln!(
                out,
                "  {:indent$}{} [{dur}] ({} events)",
                "",
                node.name,
                node.events.len(),
                indent = depth * 2
            );
            for child in &node.children {
                walk(child, depth + 1, out, budget);
            }
        }
        let mut budget = 64; // keep giant farm traces readable
        for root in &self.roots {
            walk(root, 0, &mut out, &mut budget);
        }
        if self.span_count() > 64 {
            let _ = writeln!(out, "  … ({} spans not shown)", self.span_count() - 64);
        }
        let _ = writeln!(out, "per-stage aggregates (exact, ns):");
        for (name, s) in self.stage_stats() {
            let _ = writeln!(
                out,
                "  {name:<16} n={:<6} p50={} p95={} p99={} max={} sum={}",
                s.count, s.p50_ns, s.p95_ns, s.p99_ns, s.max_ns, s.sum_ns
            );
        }
        let path: Vec<String> = self
            .critical_path()
            .iter()
            .map(|s| format!("{} ({} ns)", s.name, s.duration_ns()))
            .collect();
        if !path.is_empty() {
            let _ = writeln!(out, "critical path: {}", path.join(" -> "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::trace::{EventKind, RingCollector, Tracer};
    use std::sync::Arc;

    fn traced<F: FnOnce(&Tracer, &VirtualClock)>(f: F) -> Trace {
        let ring = Arc::new(RingCollector::new(1024));
        let clock = Arc::new(VirtualClock::new());
        let tracer = Tracer::new(Arc::clone(&ring) as _, Arc::clone(&clock) as _);
        f(&tracer, &clock);
        Trace::from_ndjson(&ring.to_ndjson()).expect("trace parses")
    }

    #[test]
    fn nested_spans_build_a_tree() {
        let trace = traced(|tracer, clock| {
            let batch = tracer.span("batch", &[]);
            for _ in 0..2 {
                let job = tracer.span("job", &[]);
                clock.advance_ns(100);
                tracer.event("sample", &[]);
                let solve = tracer.span("solve", &[]);
                clock.advance_ns(40);
                drop(solve);
                drop(job);
            }
            drop(batch);
        });
        assert_eq!(trace.roots.len(), 1);
        let batch = &trace.roots[0];
        assert_eq!(batch.name, "batch");
        assert_eq!(batch.children.len(), 2);
        assert_eq!(batch.children[0].name, "job");
        assert_eq!(batch.children[0].children[0].name, "solve");
        assert_eq!(batch.children[0].children[0].dur_ns, Some(40));
        assert_eq!(batch.children[0].dur_ns, Some(140));
        assert_eq!(batch.dur_ns, Some(280));
        assert_eq!(batch.children[0].events, vec!["sample".to_owned()]);
        assert!(trace.seq_gaps.is_empty());
        assert!(trace.unclosed.is_empty());
        assert_eq!(trace.span_count(), 5);
    }

    #[test]
    fn span_less_events_survive_as_orphans() {
        // a cache hit firing between request spans must not vanish: it
        // is kept out of the span tree but tallied in event_counts
        let trace = traced(|tracer, clock| {
            tracer.event("cache_miss", &[]);
            let span = tracer.span("request", &[]);
            clock.advance_ns(10);
            tracer.event("cache_miss", &[]);
            drop(span);
            tracer.event("cache_hit", &[]);
            tracer.event("cache_hit", &[]);
        });
        assert_eq!(
            trace.orphan_events,
            vec!["cache_miss", "cache_hit", "cache_hit"]
        );
        // the span keeps only what fired inside it...
        assert_eq!(trace.roots[0].events, vec!["cache_miss"]);
        // ...while the tally counts every event record
        assert_eq!(
            trace.event_counts(),
            vec![("cache_hit".to_owned(), 2), ("cache_miss".to_owned(), 2)]
        );
    }

    #[test]
    fn interleaved_same_name_spans_match_lifo() {
        // two "job" spans open concurrently; ends pop innermost first
        let trace = traced(|tracer, clock| {
            let a = tracer.span("job", &[]);
            clock.advance_ns(10);
            let b = tracer.span("job", &[]);
            clock.advance_ns(5);
            b.end();
            clock.advance_ns(1);
            a.end();
        });
        assert_eq!(trace.roots.len(), 1);
        assert_eq!(trace.roots[0].dur_ns, Some(16));
        assert_eq!(trace.roots[0].children[0].dur_ns, Some(5));
    }

    #[test]
    fn an_end_naming_its_request_closes_that_request_span() {
        // request 1 opens inside request 0 and both end stamped by their
        // caller: each end closes its own request, not the innermost
        let trace = traced(|tracer, _clock| {
            let start = |request: u64| [("request", request.into())];
            let end =
                |request: u64, dur: u64| [("dur_ns", dur.into()), ("request", request.into())];
            tracer.emit(0, EventKind::SpanStart, "request", &start(0));
            tracer.emit(100, EventKind::SpanStart, "request", &start(1));
            tracer.emit(100, EventKind::SpanEnd, "request", &end(0, 100));
            tracer.emit(100, EventKind::SpanEnd, "request", &end(1, 0));
        });
        let durations: Vec<(Option<u64>, Option<u64>)> =
            trace.roots.iter().map(|s| (s.request, s.dur_ns)).collect();
        assert_eq!(durations, [(Some(0), Some(100)), (Some(1), Some(0))]);
        assert!(trace.unclosed.is_empty());
    }

    #[test]
    fn stage_stats_are_exact() {
        let trace = traced(|tracer, clock| {
            for dur in [10u64, 20, 30, 40, 100] {
                let span = tracer.span("solve", &[]);
                clock.advance_ns(dur);
                drop(span);
            }
        });
        let stats = trace.stage_stats();
        assert_eq!(stats.len(), 1);
        let (name, s) = &stats[0];
        assert_eq!(name, "solve");
        assert_eq!(s.count, 5);
        assert_eq!(s.sum_ns, 200);
        assert_eq!((s.min_ns, s.max_ns), (10, 100));
        assert_eq!(s.p50_ns, 30);
        assert_eq!(s.p95_ns, 100);
        assert_eq!(s.p99_ns, 100);
    }

    #[test]
    fn request_paths_follow_the_request_field() {
        let trace = traced(|tracer, clock| {
            let req = tracer.span(
                "request",
                &[("request", 7u64.into()), ("trace", 99u64.into())],
            );
            drop(req);
            let batch = tracer.span("serve_batch", &[("batch", 0u64.into())]);
            let job = tracer.span("job", &[("request", 7u64.into())]);
            clock.advance_ns(50);
            drop(job);
            let other = tracer.span("job", &[("request", 8u64.into())]);
            drop(other);
            drop(batch);
        });
        let paths = trace.request_paths(7);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].last().unwrap().name, "request");
        assert_eq!(paths[0].last().unwrap().trace_id, Some(99));
        let job_path: Vec<&str> = paths[1].iter().map(|s| s.name.as_str()).collect();
        assert_eq!(job_path, ["serve_batch", "job"]);
        assert!(trace.request_paths(6).is_empty());
    }

    #[test]
    fn critical_path_follows_the_slowest_child() {
        let trace = traced(|tracer, clock| {
            let batch = tracer.span("batch", &[]);
            let fast = tracer.span("fast", &[]);
            clock.advance_ns(10);
            drop(fast);
            let slow = tracer.span("slow", &[]);
            let inner = tracer.span("inner", &[]);
            clock.advance_ns(90);
            drop(inner);
            drop(slow);
            drop(batch);
        });
        let names: Vec<&str> = trace
            .critical_path()
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(names, ["batch", "slow", "inner"]);
    }

    #[test]
    fn folded_stacks_attribute_self_time() {
        let trace = traced(|tracer, clock| {
            let outer = tracer.span("outer", &[]);
            clock.advance_ns(30); // outer self-time
            let inner = tracer.span("inner", &[]);
            clock.advance_ns(70);
            drop(inner);
            drop(outer);
        });
        let folded = trace.folded_stacks();
        assert!(folded.contains("outer 30\n"), "{folded}");
        assert!(folded.contains("outer;inner 70\n"), "{folded}");
    }

    #[test]
    fn interleaved_same_name_spans_each_close_with_a_duration() {
        // worker B's job opens inside worker A's precompute stage, as
        // interleaved workers do on one sequence
        let trace = traced(|tracer, clock| {
            let batch = tracer.span("batch", &[]);
            let a = tracer.span("job", &[]);
            let a_stage = tracer.span("precompute", &[]);
            let b = tracer.span("job", &[]);
            clock.advance_ns(10);
            drop(a_stage);
            drop(a);
            drop(b);
            drop(batch);
        });
        assert!(trace.unclosed.is_empty());
        assert_eq!(trace.roots.len(), 1);
        assert_eq!(trace.span_count(), 4);
        let stats = trace.stage_stats();
        let jobs = stats.iter().find(|(name, _)| name == "job").expect("jobs");
        assert_eq!(jobs.1.count, 2, "both job spans closed");
    }

    #[test]
    fn gaps_and_unclosed_spans_are_reported() {
        // drop the middle record to fake a gap + an unclosed span
        let ring = Arc::new(RingCollector::new(1024));
        let clock = Arc::new(VirtualClock::new());
        let tracer = Tracer::new(Arc::clone(&ring) as _, Arc::clone(&clock) as _);
        let span = tracer.span("work", &[]);
        tracer.event("mid", &[]);
        drop(span);
        let lines: Vec<String> = ring
            .events()
            .iter()
            .filter(|e| e.seq != 1)
            .map(crate::trace::TraceEvent::to_ndjson)
            .collect();
        let trace = Trace::from_ndjson(&lines.join("\n")).unwrap();
        assert_eq!(trace.seq_gaps, vec![(0, 2)]);

        let unclosed = traced(|tracer, _clock| {
            let span = tracer.span("leak", &[]);
            std::mem::forget(span);
        });
        assert_eq!(unclosed.unclosed, vec![("leak".to_owned(), 0)]);
        assert_eq!(unclosed.roots[0].dur_ns, None);
    }

    #[test]
    fn non_trace_lines_are_skipped_not_fatal() {
        let input = "{\"metric\":\"farm.jobs_ok\",\"type\":\"counter\",\"value\":3}\n\
                     {\"record\":\"farm_stage\",\"stage\":\"solve\",\"count\":4}\n\
                     {\"seq\":0,\"t_ns\":0,\"kind\":\"event\",\"name\":\"hello\"}\n";
        let trace = Trace::from_ndjson(input).unwrap();
        assert_eq!(trace.skipped_records, 2);
        assert_eq!(trace.trace_records, 1);
        assert_eq!(trace.span_count(), 0);
    }

    #[test]
    fn summary_renders() {
        let trace = traced(|tracer, clock| {
            let span = tracer.span("batch", &[]);
            clock.advance_ns(5);
            drop(span);
        });
        let text = trace.render_summary();
        assert!(text.contains("batch [5 ns]"), "{text}");
        assert!(text.contains("per-stage aggregates"), "{text}");
        assert!(text.contains("critical path: batch (5 ns)"), "{text}");
    }
}
