//! `canti-perfbench`: the steady end-to-end benchmark of the
//! serve → farm → kernel stack, with a traced per-layer run.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_saturated --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process runs one workload against the public API of
//! `canti-serve` and `canti-farm`: a 1-shard `ShardedService` (max batch
//! 16, 0.2 ms linger, 64-slot queue, one farm worker per CPU, one
//! wall-clock `FarmObserver` with a bounded ring), driven as a closed
//! loop from the main thread, which is the only thread that generates
//! load. The workloads:
//!
//! * `serve_light` — one request at a time, every spec distinct, cache
//!   off: the lone request waits for the batcher's linger deadline, which
//!   the batcher today only notices when its 50 ms idle wait ends.
//! * `serve_saturated` — 48 outstanding (3 × max batch), distinct specs,
//!   cache off: full batches, a busy pool, no refusals. Runnable by hand
//!   but not listed in `BENCHMARK.json`: on a 2-vCPU host whose speed
//!   drifts by tens of percent, its ten-run spread reached the 0.25
//!   bound, while `serve_cached`'s misses load the same pool.
//! * `serve_cached` — 48 outstanding, cache on, 75 % repeats of 64 hot
//!   specs and 25 % fresh ones: the median is a hit answered inside
//!   `submit`, the tail a miss.
//!
//! With `--trace 0` the run prints `latency_p50_ms`, `latency_tail_ms`,
//! `throughput_per_s`, `setup_s` and `peak_rss_mb` with their units and
//! sample counts. Quantiles are exact order statistics of client-side
//! samples; a refused, failed, expired or wrong answer counts as failed
//! and as an infinitely slow sample. Outside the timed window every
//! answered payload is solved again on 1-worker farms and compared bit
//! for bit; any mismatch makes the run exit non-zero.
//!
//! With `--trace 1` the run measures three legs of the same workload, a
//! third of the run length each — untraced, traced and unobserved — then
//! replays the traced leg's jobs through the farm, the kernels and the
//! cache, and prints the per-layer metrics, each layer's self time, the
//! tracing overhead (traced against untraced) and the observer overhead
//! (observed against unobserved). The spans are written to
//! `perfbench/out/trace-<workload>.ndjson`.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--workload all` runs
//! the three workloads in turn, each in a fresh process.

#![forbid(unsafe_code)]

mod drive;
mod layers;
mod oracle;
mod stats;
mod stream;

use std::process::ExitCode;

use drive::{run_leg, Leg, LegPlan, Outcome, Workload, RING_EVENTS};
use layers::{replay, SpanLog};
use oracle::Oracle;
use stats::{latency_ms, median, quantile, sorted, tail_pct, Pct};

const USAGE: &str = "usage: canti-perfbench \
                     --workload <serve_light|serve_saturated|serve_cached|all> \
                     --seed <u64> --seconds <s> --trace <0|1>";

/// Set-ups per leg; `setup_s` is their median.
const SETUPS: usize = 5;

/// The tail percentile each workload reports: the highest of p99, p95
/// and p90 with at least ten samples beyond it at a 10 s run. Fixed per
/// workload so a run never switches percentile between runs.
fn tail_of(workload: Workload) -> Pct {
    match workload {
        Workload::Light => Pct::P90,
        Workload::Saturated | Workload::Cached => Pct::P99,
    }
}

struct Args {
    /// `None` (`--workload all`) runs every workload in turn.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if value == "all" => workload = Some(None),
            "--workload" => workload = Some(Some(Workload::parse(&value).ok_or_else(bad)?)),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = args.workload else {
        return run_all(&args);
    };
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "# canti-perfbench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# machine: nproc={threads} cpu=\"{}\"", cpu_model());
    println!(
        "# service: 1 shard, max_batch 16, linger 0.2 ms, queue 64, {threads} farm workers, \
         wall-clock observer (ring {RING_EVENTS} events), cache {}",
        if w.cached() {
            "on (256 entries)"
        } else {
            "off"
        }
    );
    println!(
        "# load: closed loop from the main thread, {} outstanding, {SETUPS} set-ups per leg",
        w.depth()
    );
    let oracle = Oracle::new(threads);
    let plan = |observed, seconds| LegPlan {
        workload: w,
        seed: args.seed,
        seconds,
        threads,
        setups: SETUPS,
        observed,
    };
    let correct = if args.trace {
        traced(w, &args, threads, &oracle, plan)
    } else {
        untraced(&oracle, &plan(true, args.seconds))
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload all`: every workload in turn, each in a fresh process of
/// this executable so that `setup_s` and `peak_rss_mb` stay its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut correct = true;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        correct &= status.is_ok_and(|s| s.success());
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `--trace 0` run: one observed leg, the five end-to-end metrics.
fn untraced(oracle: &Oracle, plan: &LegPlan) -> bool {
    let mut leg = run_leg(plan, None);
    let (solved, mismatches) = oracle.check(&mut leg.book);
    let e = EndToEnd::of(&leg, tail_of(plan.workload));
    print_leg("", &leg, &e, solved, mismatches);
    print_properties(plan.workload, &leg);
    let correct = mismatches == 0 && e.failed == 0;
    println!(
        "{}",
        result_line(
            correct,
            e.sent,
            e.failed,
            &[
                ("latency_p50_ms", e.p50_ms, "ms"),
                ("latency_tail_ms", e.tail_ms, "ms"),
                ("throughput_per_s", e.throughput, "1/s"),
                ("setup_s", e.setup_s, "s"),
                ("peak_rss_mb", e.peak_rss_mb, "MB"),
            ],
        )
    );
    correct
}

/// The `--trace 1` run: untraced, traced and unobserved legs of a third
/// of the run length each, the replays, and the per-layer metrics.
fn traced(
    w: Workload,
    args: &Args,
    threads: usize,
    oracle: &Oracle,
    plan: impl Fn(bool, f64) -> LegPlan,
) -> bool {
    let third = args.seconds / 3.0;
    let mut log = SpanLog::new();
    let mut legs = [
        run_leg(&plan(true, third), None),
        run_leg(&plan(true, third), Some(&mut log)),
        run_leg(&plan(false, third), None),
    ];
    let mut mismatches = [0; 3];
    let mut ends = Vec::with_capacity(3);
    for ((label, leg), bad) in ["untraced", "traced", "unobserved"]
        .into_iter()
        .zip(legs.iter_mut())
        .zip(mismatches.iter_mut())
    {
        let (solved, marked) = oracle.check(&mut leg.book);
        *bad = marked;
        println!("## leg {label}");
        let e = EndToEnd::of(leg, tail_of(w));
        print_leg(label, leg, &e, solved, marked);
        ends.push(e);
    }
    let spanned = &legs[1];
    let (e_plain, e_spanned, e_bare) = (&ends[0], &ends[1], &ends[2]);
    print_properties(w, spanned);
    let pct = |a: f64, b: f64| (a / b - 1.0) * 100.0;
    println!(
        "tracing overhead (traced vs untraced): latency_p50_ms {:+.2} %, latency_tail_ms {:+.2} %, \
         throughput_per_s {:+.2} %",
        pct(e_spanned.p50_ms, e_plain.p50_ms),
        pct(e_spanned.tail_ms, e_plain.tail_ms),
        pct(e_spanned.throughput, e_plain.throughput)
    );
    println!(
        "observer ratio (observed / unobserved): throughput {:.4}, latency_p50 {:.4}",
        e_plain.throughput / e_bare.throughput,
        e_plain.p50_ms / e_bare.p50_ms
    );

    let hot_set = w.stream(args.seed).hot_set().to_vec();
    let r = replay(
        spanned,
        w.cached(),
        &hot_set,
        oracle.cache(),
        threads,
        &mut log,
    );

    println!("## self time per layer (spans from the benchmark's own calls)");
    println!(
        "{:<18} {:>9} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, n, total, own) in log.self_times() {
        println!(
            "{name:<18} {n:>9} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    println!(
        "kernel replay: {} of {} jobs reproduced the served peak_volts bit for bit",
        r.kernel_agree, r.jobs
    );

    let served: Vec<_> = spanned.timed().filter_map(|rec| rec.served()).collect();
    let phase = |f: fn(&canti_serve::LatencyBreakdown) -> u64, scale: f64| -> Vec<f64> {
        sorted(served.iter().map(|b| f(b) as f64 / scale).collect())
    };
    let queue_ms = phase(|b| b.queue_ns, 1e6);
    let submit_us: Vec<f64> = sorted(
        spanned
            .timed()
            .map(|rec| (rec.ret_ns - rec.sub_ns) as f64 / 1e3)
            .collect(),
    );
    let stats = spanned.stats;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let solves = spanned.farm_jobs.unwrap_or(0);
    let metrics = [
        ("serve.queue_ms.p50", quantile(&queue_ms, Pct::P50), "ms"),
        ("serve.queue_ms.p99", quantile(&queue_ms, Pct::P99), "ms"),
        (
            "serve.batch_size.mean",
            ratio(served.len() as u64, stats.batches),
            "count",
        ),
        (
            "serve.form_us.p50",
            quantile(&phase(|b| b.form_ns, 1e3), Pct::P50),
            "us",
        ),
        (
            "serve.respond_us.p50",
            quantile(&phase(|b| b.respond_ns, 1e3), Pct::P50),
            "us",
        ),
        ("serve.submit_us.p50", quantile(&submit_us, Pct::P50), "us"),
        ("serve.submit_us.p99", quantile(&submit_us, Pct::P99), "us"),
        (
            "serve.exec_ms.p50",
            quantile(&phase(|b| b.exec_ns, 1e6), Pct::P50),
            "ms",
        ),
        ("farm.batch_ms.p50", median(&r.batch_ms), "ms"),
        ("farm.parallel_eff", r.parallel_eff, "ratio"),
        ("kernel.kinetics_us.p50", median(&r.kinetics_us), "us"),
        ("kernel.transduce_us.p50", median(&r.transduce_us), "us"),
        (
            "cache.hit_ratio",
            ratio(stats.cache_hits, stats.admitted),
            "ratio",
        ),
        (
            "cache.solves_per_distinct",
            ratio(solves, spanned.distinct_sent as u64),
            "ratio",
        ),
        ("cache.key_us.p50", median(&r.key_us), "us"),
        ("cache.lookup_us.p50", median(&r.lookup_us), "us"),
        ("setup.start_ms", median(&spanned.starts_s) * 1e3, "ms"),
        ("setup.chain_ms", median(&r.chain_ms), "ms"),
        (
            "obs.overhead_pct.throughput",
            -pct(e_plain.throughput, e_bare.throughput),
            "%",
        ),
        (
            "obs.overhead_pct.p50",
            pct(e_plain.p50_ms, e_bare.p50_ms),
            "%",
        ),
    ];
    println!("## per-layer metrics");
    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:>14.4} {unit}");
    }
    println!(
        "boundary counts (traced leg): submits {}, answered ok {}, refused {}, failed {}, \
         batches {}, hits {}, coalesced {}, farm jobs {solves}, distinct specs {}, mismatches {}",
        e_spanned.sent,
        e_spanned.sent - e_spanned.failed,
        e_spanned.refused,
        e_spanned.failed,
        stats.batches,
        stats.cache_hits,
        stats.coalesced,
        spanned.distinct_sent,
        mismatches[1]
    );

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.ndjson", w.name()));
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"nproc\":{threads},\"cpu\":\"{}\"}}",
        w.name(),
        args.seed,
        args.seconds,
        cpu_model()
    );
    match log.write_ndjson(&path, &header) {
        Ok(()) => println!("spans: written to {}", path.display()),
        Err(e) => println!("spans: not written ({e})"),
    }

    let attempted = ends.iter().map(|e| e.sent).sum();
    let failed = ends.iter().map(|e| e.failed).sum();
    let correct = mismatches.iter().all(|&m| m == 0) && failed == 0;
    println!("{}", result_line(correct, attempted, failed, &metrics));
    correct
}

/// The end-to-end view of one leg's timed window.
struct EndToEnd {
    sent: usize,
    failed: usize,
    refused: usize,
    p50_ms: f64,
    tail_ms: f64,
    tail: Pct,
    throughput: f64,
    in_window: usize,
    window_s: f64,
    setup_s: f64,
    setups: usize,
    peak_rss_mb: f64,
}

impl EndToEnd {
    fn of(leg: &Leg, tail: Pct) -> Self {
        let ok: Vec<u64> = leg
            .timed()
            .filter(|r| r.ok())
            .map(drive::Record::latency_ns)
            .collect();
        let sent = leg.timed().count();
        let failed = sent - ok.len();
        let samples = latency_ms(ok, failed);
        // OK answers per second of the window, counted up to the last
        // answer that landed inside it (a closed loop's window rarely
        // ends exactly on an answer)
        let end = leg.window_start_ns + leg.window_ns;
        let inside: Vec<u64> = leg
            .timed()
            .filter(|r| r.ok() && r.done_ns <= end)
            .map(|r| r.done_ns)
            .collect();
        let in_window = inside.len();
        let last = inside.iter().max().copied().unwrap_or(end);
        let window_s = last.saturating_sub(leg.window_start_ns) as f64 / 1e9;
        Self {
            sent,
            failed,
            refused: leg
                .timed()
                .filter(|r| r.outcome == Outcome::Refused)
                .count(),
            p50_ms: quantile(&samples, Pct::P50),
            tail_ms: quantile(&samples, tail),
            tail,
            throughput: in_window as f64 / window_s,
            in_window,
            window_s,
            setup_s: median(&leg.setups_s),
            setups: leg.setups_s.len(),
            peak_rss_mb: leg.peak_rss_mb,
        }
    }

    fn print(&self, label: &str) {
        let n = self.sent;
        let supported = match tail_pct(n) {
            Some(p) if p.0 >= self.tail.0 => "",
            _ => " (fewer than ten samples beyond it)",
        };
        let prefix = if label.is_empty() {
            String::new()
        } else {
            format!("{label} ")
        };
        println!("{prefix}latency_p50_ms   {:>12.4} ms   n={n}", self.p50_ms);
        println!(
            "{prefix}latency_tail_ms  {:>12.4} ms   {} n={n} beyond={}{supported}",
            self.tail_ms,
            self.tail.label(),
            self.tail.beyond(n)
        );
        println!(
            "{prefix}throughput_per_s {:>12.4} 1/s  {} answered OK in {:.3} s",
            self.throughput, self.in_window, self.window_s
        );
        println!(
            "{prefix}setup_s          {:>12.4} s    median of {} set-ups",
            self.setup_s, self.setups
        );
        println!(
            "{prefix}peak_rss_mb      {:>12.4} MB   VmHWM",
            self.peak_rss_mb
        );
    }
}

/// Steadiness readout: per whole second of the window, the answers that
/// landed in it and the median latency of the requests sent in it.
fn print_seconds(leg: &Leg) {
    let second = |ns: u64| (ns.saturating_sub(leg.window_start_ns) / 1_000_000_000) as usize;
    let slices = (leg.window_ns / 1_000_000_000) as usize;
    let mut answered = vec![0usize; slices];
    let mut latency: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for r in leg.timed().filter(|r| r.ok()) {
        if let Some(a) = answered.get_mut(second(r.done_ns)) {
            *a += 1;
        }
        if let Some(l) = latency.get_mut(second(r.sub_ns)) {
            l.push(r.latency_ns() as f64 / 1e6);
        }
    }
    let p50s: Vec<String> = latency
        .iter()
        .map(|l| format!("{:.4}", median(l)))
        .collect();
    println!(
        "per second: answered {answered:?} | latency_p50_ms [{}]",
        p50s.join(", ")
    );
}

/// One leg's end-to-end metrics, per-second readout and request counts.
fn print_leg(label: &str, leg: &Leg, e: &EndToEnd, solved: usize, mismatches: usize) {
    e.print(label);
    print_seconds(leg);
    println!(
        "requests: sent {}, answered ok {}, refused {}, failed {} | oracle: {solved} payloads \
         re-solved on 1-worker farms, {mismatches} mismatches",
        e.sent,
        e.sent - e.failed,
        e.refused,
        e.failed
    );
}

/// The property each workload exists for, read from the run itself.
fn print_properties(workload: Workload, leg: &Leg) {
    let served: Vec<_> = leg.timed().filter_map(|r| r.served()).collect();
    let batch_mean = served.len() as f64 / leg.stats.batches.max(1) as f64;
    let queue: u64 = served.iter().map(|b| b.queue_ns).sum();
    let total: u64 = served.iter().map(|b| b.total_ns()).sum();
    let hit_ratio = leg.stats.cache_hits as f64 / leg.stats.admitted.max(1) as f64;
    let refused = leg.stats.rejected;
    let focus = match workload {
        Workload::Light => format!(
            "requests per batch {batch_mean:.3}, queue share of latency {:.4}",
            queue as f64 / total.max(1) as f64
        ),
        Workload::Saturated => format!("mean batch size {batch_mean:.3} of 16, refused {refused}"),
        Workload::Cached => format!("cache hit ratio {hit_ratio:.4}, refused {refused}"),
    };
    println!("property: {focus} ({} batches)", leg.stats.batches);
}

/// The first `model name` of `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| {
                    v.trim_start_matches([' ', '\t', ':'])
                        .trim()
                        .replace('"', "'")
                })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The final JSON line. Non-finite values (a run whose samples are all
/// failures) print as `null`.
fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let num = |v: f64| {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_owned()
        }
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
