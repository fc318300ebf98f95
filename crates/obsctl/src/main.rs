//! The `obsctl` binary: thin argv/exit-code shell over [`canti_obsctl`].

use std::path::PathBuf;
use std::process::ExitCode;

use canti_obsctl::{
    diff, flame, summary, timeline_report, trace_request, CliError, DiffOptions, TimelineOptions,
};

const HELP: &str = "\
obsctl — consume canti telemetry artifacts

USAGE:
    obsctl summary  <telemetry.ndjson>
    obsctl flame    <telemetry.ndjson>
    obsctl diff     <old.json> <new.json> [--threshold-pct <P>] [--min-ns <N>]
    obsctl trace    <telemetry.ndjson> <request-id>
    obsctl timeline <timeline.ndjson> [--shard <S>] [--series <NAME>]...
                    [--spans <telemetry.ndjson>]
    obsctl --help

SUBCOMMANDS:
    summary   Reconstruct the span tree from a telemetry NDJSON artifact
              and print per-stage aggregates, the critical path and the
              fault, shard and cache event tallies (every event record
              counts, whether or not a span was open when it fired).
              Fails (exit 1) when the span tree is empty or the trace
              sequence has gaps — CI uses this as an artifact-health gate.
    flame     Print folded-stack flamegraph lines (`a;b;c <self_ns>`)
              for the same artifact; pipe into flamegraph.pl / inferno.
    diff      Compare per-stage p50/p95/p99 latencies between a baseline
              and a candidate ExperimentReport JSON file (\"timings\":
              [...], as the benches archive them). Exits 1 when any
              stage regressed beyond the threshold — the CI perf gate.
              The p99 row appears only when both files carry it, so
              archived baselines keep diffing.
    trace     Reconstruct one request's span chain — the admission-side
              'request' span plus every farm 'job' span executed on its
              behalf — and print it with the critical path. Exits 1 when
              the request is absent, orphaned (no admission span),
              unclosed, or the sequence has gaps — the serve-artifact
              health gate CI runs on the smoke telemetry.
    timeline  Render the per-window series of a /debug/timeline NDJSON
              artifact as tables with count sparklines; the SLO verdicts
              are its slo.good and slo.breached series. With --spans,
              recompute the request-latency windows offline from the
              closed 'request' spans of that telemetry artifact (less
              the expired and failed requests, plus each cache hit as
              a 0-ns sample) and cross-check them against the
              live windows; exits 1 when they disagree. The
              cross-check is exact only for artifacts
              recorded on a virtual clock: on a wall clock a request
              span opens after admission reads the clock and closes
              after the batch's answer time, so span durations exceed
              the recorded latencies and the check fails.

OPTIONS (diff):
    --threshold-pct <P>   Relative slack in percent; a quantile regresses
                          only when it grew by more than P% (default 25).
    --min-ns <N>          Absolute noise floor in nanoseconds; deltas of
                          at most N ns never count (default 10000).

OPTIONS (timeline):
    --shard <S>           Shard section to render: a shard label or
                          'merged' (default 0).
    --series <NAME>       Restrict to this series; repeatable.
    --spans <FILE>        Telemetry NDJSON artifact to recompute the
                          request-latency windows from as a cross-check
                          (exact only on a virtual clock; see above).

EXIT CODES:
    0   success / no regression
    1   gate failed (regression, empty span tree, sequence gaps,
        missing/orphaned/unclosed request, empty timeline selection,
        no request spans, timeline recompute mismatch)
    2   usage, I/O or parse error
";

fn run() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return Err(CliError::Usage("missing subcommand (try --help)".into()));
    };

    match cmd.as_str() {
        "--help" | "-h" | "help" => {
            print!("{HELP}");
            Ok(())
        }
        "summary" | "flame" => {
            let [path] = &args[1..] else {
                return Err(CliError::Usage(format!(
                    "{cmd} takes exactly one file argument"
                )));
            };
            let path = PathBuf::from(path);
            let out = if cmd == "summary" {
                summary(&path)?
            } else {
                flame(&path)?
            };
            print!("{out}");
            Ok(())
        }
        "trace" => {
            let [path, request] = &args[1..] else {
                return Err(CliError::Usage(
                    "trace takes exactly two arguments: <telemetry.ndjson> <request-id>".into(),
                ));
            };
            let request: u64 = request.parse().map_err(|_| {
                CliError::Usage(format!("trace: cannot parse request id {request:?}"))
            })?;
            print!("{}", trace_request(&PathBuf::from(path), request)?);
            Ok(())
        }
        "timeline" => {
            let mut opts = TimelineOptions::default();
            let mut spans: Option<PathBuf> = None;
            let mut files: Vec<PathBuf> = Vec::new();
            let mut rest = args[1..].iter();
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--shard" => {
                        opts.shard = require_value(rest.next(), "--shard")?;
                    }
                    "--series" => {
                        opts.series.push(require_value(rest.next(), "--series")?);
                    }
                    "--spans" => {
                        spans = Some(PathBuf::from(require_value(rest.next(), "--spans")?));
                    }
                    flag if flag.starts_with('-') => {
                        return Err(CliError::Usage(format!("unknown flag {flag}")));
                    }
                    path => files.push(PathBuf::from(path)),
                }
            }
            let [path] = files.as_slice() else {
                return Err(CliError::Usage(
                    "timeline takes exactly one file argument: <timeline.ndjson>".into(),
                ));
            };
            let out = timeline_report(path, spans.as_deref(), &opts)?;
            print!("{out}");
            Ok(())
        }
        "diff" => {
            let mut opts = DiffOptions::default();
            let mut files: Vec<PathBuf> = Vec::new();
            let mut rest = args[1..].iter();
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--threshold-pct" => {
                        opts.threshold_pct = parse_flag(rest.next(), "--threshold-pct")?;
                    }
                    "--min-ns" => {
                        opts.min_delta_ns = parse_flag(rest.next(), "--min-ns")?;
                    }
                    flag if flag.starts_with('-') => {
                        return Err(CliError::Usage(format!("unknown flag {flag}")));
                    }
                    path => files.push(PathBuf::from(path)),
                }
            }
            let [old, new] = files.as_slice() else {
                return Err(CliError::Usage(
                    "diff takes exactly two file arguments: <old> <new>".into(),
                ));
            };
            let report = diff(old, new, opts)?;
            print!("{}", report.render());
            if report.regressed() {
                return Err(CliError::Gate(format!(
                    "{} stage quantile(s) regressed beyond {}% (+{} ns floor)",
                    report.rows.iter().filter(|r| r.regressed).count(),
                    opts.threshold_pct,
                    opts.min_delta_ns
                )));
            }
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown subcommand {other} (try --help)"
        ))),
    }
}

fn parse_flag<T: std::str::FromStr>(value: Option<&String>, flag: &str) -> Result<T, CliError> {
    let raw = value.ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?;
    raw.parse()
        .map_err(|_| CliError::Usage(format!("{flag}: cannot parse {raw:?}")))
}

fn require_value(value: Option<&String>, flag: &str) -> Result<String, CliError> {
    value
        .cloned()
        .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("obsctl: {err}");
            ExitCode::from(u8::try_from(err.exit_code()).unwrap_or(2))
        }
    }
}
