//! The traced run's layer view: an in-memory span log recorded from the
//! benchmark's own code around each call into a layer, and the replays
//! that time the farm, kernel and cache layers directly.
//!
//! No span is recorded inside the program: `submit` and `wait` bracket
//! the serve calls (the response's latency breakdown rides on `wait` as
//! fields), and the replays bracket `Farm::run_seeded`,
//! `AssayProtocol::run`, `run_static_assay_precomputed`, `job_key` and
//! `ReportCache::lookup`/`insert`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use canti_bio::assay::AssayProtocol;
use canti_bio::kinetics::LangmuirKinetics;
use canti_core::assay::run_static_assay_precomputed;
use canti_core::static_system::StaticReadoutConfig;
use canti_farm::{Farm, FarmConfig, JobOutput, JobSpec, PrecomputeCache, WorkerPool};
use canti_serve::{job_key, CacheConfig, LatencyBreakdown, ReportCache};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::drive::{Leg, Outcome, Record};
use crate::oracle::{base_seed, request_seed_of};
use crate::stream::spec;

/// Jobs the farm and kernel replays re-run.
const REPLAY_JOBS: usize = 512;
/// Jobs per replayed farm batch (the service's `max_batch`).
const REPLAY_BATCH: usize = 16;
/// Fresh-cache chain characterizations timed for `setup.chain_ms`.
const CHAIN_SAMPLES: usize = 3;

/// One span: a named interval (ns from the log's origin) under an
/// optional parent.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub request: Option<u64>,
    pub breakdown: Option<LatencyBreakdown>,
}

/// Spans kept in memory until the run writes them out.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn add(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        u32::try_from(self.spans.len() - 1).expect("fewer than 2^32 spans")
    }

    /// Records a finished span.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
    ) -> u32 {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.add(Span {
            name,
            parent,
            start_ns,
            end_ns,
            request: None,
            breakdown: None,
        })
    }

    /// Opens a span now; [`Self::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>) -> u32 {
        let now = Instant::now();
        self.push(name, now, now, parent)
    }

    pub fn close(&mut self, id: u32) {
        let end = self.ns(Instant::now());
        self.spans[id as usize].end_ns = end;
    }

    /// Runs `f` inside a span; returns its result and duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.push(name, t0, t1, Some(parent));
        (out, t1 - t0)
    }

    /// The `submit` and `wait` spans of one request whose times are ns
    /// from `origin`.
    pub fn request(&mut self, r: &Record, parent: u32, origin: Instant) {
        let shift = self.ns(origin);
        self.add(Span {
            name: "submit",
            parent: Some(parent),
            start_ns: shift + r.sub_ns,
            end_ns: shift + r.ret_ns,
            request: r.id,
            breakdown: None,
        });
        let breakdown = match r.outcome {
            Outcome::Refused => return,
            Outcome::Hit(b) | Outcome::Served(b) => Some(b),
            Outcome::Pending | Outcome::Failed => None,
        };
        self.add(Span {
            name: "wait",
            parent: Some(parent),
            start_ns: shift + r.ret_ns,
            end_ns: shift + r.done_ns,
            request: r.id,
            breakdown,
        });
    }

    /// Per span name, in order of first appearance: count, total time
    /// and self time (duration minus the union of its children's
    /// intervals), ns.
    pub fn self_times(&self) -> Vec<(&'static str, usize, u64, u64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut order: Vec<&'static str> = Vec::new();
        let mut rows: HashMap<&'static str, (usize, u64, u64)> = HashMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = union_within(kids, s.start_ns, s.end_ns);
            let row = rows.entry(s.name).or_insert_with(|| {
                order.push(s.name);
                (0, 0, 0)
            });
            row.0 += 1;
            row.1 += dur;
            row.2 += dur - covered;
        }
        order
            .into_iter()
            .map(|name| {
                let (n, total, own) = rows[name];
                (name, n, total, own)
            })
            .collect()
    }

    /// Writes `header` and then one NDJSON line per span to `path`.
    pub fn write_ndjson(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        let mut line = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            line.clear();
            let _ = write!(
                line,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}",
                s.name,
                s.start_ns,
                s.end_ns.saturating_sub(s.start_ns)
            );
            if let Some(p) = s.parent {
                let _ = write!(line, ",\"parent\":{p}");
            }
            if let Some(r) = s.request {
                let _ = write!(line, ",\"request\":{r}");
            }
            if let Some(b) = s.breakdown {
                let _ = write!(
                    line,
                    ",\"cache_ns\":{},\"queue_ns\":{},\"form_ns\":{},\"exec_ns\":{},\"respond_ns\":{}",
                    b.cache_ns, b.queue_ns, b.form_ns, b.exec_ns, b.respond_ns
                );
            }
            line.push('}');
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]` (sorts them).
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// What the replays measured (times in the unit their name says).
#[derive(Debug, Default)]
pub struct Replay {
    pub batch_ms: Vec<f64>,
    pub parallel_eff: f64,
    pub kinetics_us: Vec<f64>,
    pub transduce_us: Vec<f64>,
    /// Replayed jobs, and those whose kernels reproduced the served
    /// `peak_volts` bit for bit.
    pub jobs: usize,
    pub kernel_agree: usize,
    pub key_us: Vec<f64>,
    pub lookup_us: Vec<f64>,
    pub chain_ms: Vec<f64>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Replays the traced leg's work layer by layer, under one `replay`
/// span. `cache` must be a precompute cache the caller already warmed.
pub fn replay(
    leg: &Leg,
    cached: bool,
    hot_set: &[f64],
    cache: &Arc<PrecomputeCache>,
    threads: usize,
    log: &mut SpanLog,
) -> Replay {
    let root = log.open("replay", None);
    let mut out = Replay::default();

    // the set-up's lazy chain characterization, each on a fresh cache
    for _ in 0..CHAIN_SAMPLES {
        let fresh = PrecomputeCache::new();
        let (chain, took) = log.time("setup.chain", root, || {
            fresh.static_chain(&StaticReadoutConfig::default())
        });
        black_box(chain.expect("chain characterizes"));
        out.chain_ms.push(ms(took));
    }

    // the jobs the farm solved in the window, with their served payloads
    let served: Vec<(ReplayJob, &JobOutput)> = leg
        .timed()
        .filter(|r| r.served().is_some())
        .filter_map(|r| Some((ReplayJob::of(r, cached), leg.book.payload(r)?)))
        .take(REPLAY_JOBS)
        .collect();
    out.jobs = served.len();
    let jobs: Vec<&ReplayJob> = served.iter().map(|(j, _)| j).collect();

    // farm: 16-job batches on a pool of `threads` workers, then on one
    let wide = farm_replay(&jobs, cache, threads, log, root);
    let single = farm_replay(&jobs, cache, 1, log, root);
    let (wide_s, single_s): (f64, f64) = (wide.iter().sum(), single.iter().sum());
    out.parallel_eff = single_s / (threads as f64 * wide_s);
    out.batch_ms = wide;

    // kernels: per job, the kinetics sensorgram, then the
    // stress → volts → noise transduction through the memoized chain
    let chain = cache
        .static_chain(&StaticReadoutConfig::default())
        .expect("chain characterizes");
    for (job, served) in &served {
        let JobSpec::StaticDoseResponse {
            receptor,
            concentration,
            baseline,
            association,
            wash,
            dt,
            averaging,
        } = &job.spec
        else {
            unreachable!("every request is a dose-response assay");
        };
        let layer = receptor.layer();
        let protocol = AssayProtocol::standard(*baseline, *concentration, *association, *wash);
        let kinetics = LangmuirKinetics::from_receptor(&layer);
        let (sensorgram, took) = log.time("kinetics", root, || protocol.run(&kinetics, *dt, 0.0));
        let sensorgram = sensorgram.expect("kinetics run");
        out.kinetics_us.push(us(took));
        let noise_seed: u64 = ChaCha8Rng::seed_from_u64(job.seed).gen();
        let (trace, took) = log.time("transduce", root, || {
            run_static_assay_precomputed(&chain, &layer, &sensorgram, *averaging, noise_seed)
        });
        let trace = trace.expect("transduction runs");
        out.transduce_us.push(us(took));
        if served.metric("peak_volts").map(f64::to_bits) == Some(trace.peak_signal().to_bits()) {
            out.kernel_agree += 1;
        }
    }

    // cache: the content hash and the LRU, over the window's key stream
    let outputs: HashMap<u64, &JobOutput> = leg
        .book
        .payloads
        .iter()
        .map(|p| (p.concentration.to_bits(), &p.output))
        .collect();
    let mut lru = ReportCache::new(CacheConfig::default());
    if cached {
        for c in hot_set {
            if let Some(o) = outputs.get(&c.to_bits()) {
                lru.insert(job_key(&spec(*c)), (*o).clone());
            }
        }
    }
    for r in leg.timed() {
        let job = spec(r.concentration);
        let fill = outputs
            .get(&r.concentration.to_bits())
            .map(|o| (*o).clone());
        let (key, took) = log.time("job_key", root, || job_key(black_box(&job)));
        out.key_us.push(us(took));
        let ((), took) = log.time("lookup", root, || {
            if lru.lookup(key).is_none() {
                if let Some(o) = fill {
                    lru.insert(key, o);
                }
            }
        });
        out.lookup_us.push(us(took));
    }
    log.close(root);
    out
}

/// A replayed job: the spec and the seed the service ran it with.
#[derive(Debug)]
struct ReplayJob {
    spec: JobSpec,
    seed: u64,
}

impl ReplayJob {
    fn of(r: &Record, cached: bool) -> Self {
        Self {
            spec: spec(r.concentration),
            seed: request_seed_of(cached, r.concentration, r.id.expect("admitted")),
        }
    }
}

/// Runs `jobs` as `REPLAY_BATCH`-job `run_seeded` batches on a
/// `workers`-thread pool; returns each batch's wall time, ms.
fn farm_replay(
    jobs: &[&ReplayJob],
    cache: &Arc<PrecomputeCache>,
    workers: usize,
    log: &mut SpanLog,
    root: u32,
) -> Vec<f64> {
    let farm = Farm::with_cache(
        FarmConfig {
            batch_seed: base_seed(),
            threads: workers,
        },
        Arc::clone(cache),
    )
    .with_pool(Arc::new(WorkerPool::new(workers)));
    jobs.chunks(REPLAY_BATCH)
        .map(|batch| {
            let specs: Vec<JobSpec> = batch.iter().map(|j| j.spec.clone()).collect();
            let seeds: Vec<u64> = batch.iter().map(|j| j.seed).collect();
            let (report, took) =
                log.time("farm.run_seeded", root, || farm.run_seeded(&specs, &seeds));
            black_box(report);
            ms(took)
        })
        .collect()
}
