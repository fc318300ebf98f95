//! The service under test and the closed loop that drives it.
//!
//! One process, one load thread: the caller keeps `depth` requests
//! outstanding and replaces each one as its answer arrives. Stamps are
//! exact when answers arrive out of order: a cache hit is stamped when
//! `submit` returns; otherwise the loop waits on the oldest ticket, then
//! polls every other outstanding ticket and stamps all answers already
//! there. A polled ticket holds no response any more, so it is retired
//! and never waited on.
//!
//! The client keeps one compact [`Record`] per request and one payload
//! per distinct answer (see [`Book`]), so the process's resident set is
//! mostly the service's own.

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

use canti_farm::{FarmObserver, JobOutput};
use canti_serve::{
    CacheConfig, Disposition, LatencyBreakdown, ServeConfig, ServeResponse, ServeStats,
    ShardTicket, ShardedConfig, ShardedService,
};

use crate::layers::SpanLog;
use crate::stream::{spec, Stream};

/// Events the observer's ring keeps (the oldest are evicted past this).
pub const RING_EVENTS: usize = 1 << 15;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One caller, one request at a time, distinct specs, cache off.
    Light,
    /// 48 outstanding distinct specs, cache off.
    Saturated,
    /// 48 outstanding, cache on, 75 % repeats of 64 hot specs.
    Cached,
}

impl Workload {
    pub const ALL: [Self; 3] = [Self::Light, Self::Saturated, Self::Cached];

    pub fn name(self) -> &'static str {
        match self {
            Self::Light => "serve_light",
            Self::Saturated => "serve_saturated",
            Self::Cached => "serve_cached",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests the caller keeps outstanding: 1, or 3 × `max_batch`.
    pub fn depth(self) -> usize {
        match self {
            Self::Light => 1,
            Self::Saturated | Self::Cached => 3 * MAX_BATCH,
        }
    }

    pub fn cached(self) -> bool {
        self == Self::Cached
    }

    /// A fresh stream for this workload.
    pub fn stream(self, seed: u64) -> Stream {
        if self.cached() {
            Stream::cached(seed)
        } else {
            Stream::distinct(seed)
        }
    }
}

const MAX_BATCH: usize = 16;

/// The service under test: one shard, `max_batch` 16, a 0.2 ms linger,
/// the default 64-slot queue and `threads` farm workers.
fn config(workload: Workload, threads: usize) -> ShardedConfig {
    ShardedConfig {
        shards: 1,
        base: ServeConfig {
            max_batch: MAX_BATCH,
            linger_ns: 200_000,
            threads,
            cache: workload.cached().then(CacheConfig::default),
            ..ServeConfig::default()
        },
    }
}

/// How a request ended, as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Submitted, not answered yet.
    Pending,
    /// Refused by `submit`.
    Refused,
    /// Answered without a successful payload (expired, failed, job error).
    Failed,
    /// Answered from the result cache inside `submit`.
    Hit(LatencyBreakdown),
    /// Answered by a farm batch.
    Served(LatencyBreakdown),
}

/// One request as the client saw it. Times are ns from the leg's origin.
#[derive(Debug)]
pub struct Record {
    pub concentration: f64,
    /// The global request id ([`ShardTicket::id`]); unset when refused.
    pub id: Option<u64>,
    pub sub_ns: u64,
    pub ret_ns: u64,
    pub done_ns: u64,
    pub outcome: Outcome,
    /// Index of the answer's payload in [`Book::payloads`].
    pub payload: Option<u32>,
    /// Sent while the timed window was open (not a set-up request).
    pub timed: bool,
    /// The payload differs from an earlier answer for its spec or from
    /// the oracle.
    pub mismatch: bool,
}

impl Record {
    /// Answered with a successful payload that matched.
    pub fn ok(&self) -> bool {
        !self.mismatch && matches!(self.outcome, Outcome::Hit(_) | Outcome::Served(_))
    }

    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.sub_ns
    }

    /// The serve-side breakdown of a request a batch answered.
    pub fn served(&self) -> Option<&LatencyBreakdown> {
        match &self.outcome {
            Outcome::Served(b) => Some(b),
            _ => None,
        }
    }
}

/// A successful payload and the request that first carried it.
#[derive(Debug)]
pub struct Payload {
    pub concentration: f64,
    pub id: u64,
    pub output: JobOutput,
}

/// Every request of a leg and its payloads. With the cache on a
/// payload depends only on the spec, so each concentration keeps one
/// payload and every later answer for it must match that one; with the
/// cache off each answer keeps its own.
#[derive(Debug)]
pub struct Book {
    pub records: Vec<Record>,
    pub payloads: Vec<Payload>,
    /// Concentration bits → payload index (cache on only).
    by_spec: HashMap<u64, u32>,
    pub cached: bool,
}

impl Book {
    fn new(cached: bool) -> Self {
        Self {
            records: Vec::new(),
            payloads: Vec::new(),
            by_spec: HashMap::new(),
            cached,
        }
    }

    /// The payload an answered record carried.
    pub fn payload(&self, r: &Record) -> Option<&JobOutput> {
        r.payload.map(|i| &self.payloads[i as usize].output)
    }

    /// Records the answer to request `idx`, stamped `done_ns`.
    fn finish(&mut self, idx: usize, response: ServeResponse, done_ns: u64) {
        let (outcome, output) = match response.disposition {
            Disposition::Completed {
                breakdown,
                result: Ok(out),
                ..
            } => (Outcome::Served(breakdown), Some(out)),
            Disposition::CacheHit {
                breakdown,
                result: Ok(out),
                ..
            } => (Outcome::Hit(breakdown), Some(out)),
            _ => (Outcome::Failed, None),
        };
        let r = &mut self.records[idx];
        r.done_ns = done_ns;
        r.outcome = outcome;
        let (Some(output), Some(id)) = (output, r.id) else {
            return;
        };
        let concentration = r.concentration;
        let fresh = u32::try_from(self.payloads.len()).expect("fewer than 2^32 payloads");
        let slot = if self.cached {
            *self.by_spec.entry(concentration.to_bits()).or_insert(fresh)
        } else {
            fresh
        };
        if slot == fresh {
            self.payloads.push(Payload {
                concentration,
                id,
                output,
            });
        } else if !same_payload(&self.payloads[slot as usize].output, &output) {
            self.records[idx].mismatch = true;
        }
        self.records[idx].payload = Some(slot);
    }
}

/// `kind` and every metric name and value bit equal; `job_index` is the
/// batch slot and is skipped.
pub fn same_payload(a: &JobOutput, b: &JobOutput) -> bool {
    a.kind == b.kind
        && a.metrics.len() == b.metrics.len()
        && a.metrics
            .iter()
            .zip(&b.metrics)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// Everything one leg (set-ups plus one timed window) produced.
#[derive(Debug)]
pub struct Leg {
    /// Set-up and window requests, in submission order, and their
    /// payloads.
    pub book: Book,
    /// Wall time of each set-up, seconds.
    pub setups_s: Vec<f64>,
    /// Wall time of each `ShardedService::start*` call, seconds.
    pub starts_s: Vec<f64>,
    /// The timed window: its opening (ns from the leg's origin) and
    /// length.
    pub window_start_ns: u64,
    pub window_ns: u64,
    /// Serve tallies accrued by the window's requests.
    pub stats: ServeStats,
    /// Farm jobs the window's service ran over its whole life (`None`
    /// when unobserved), and the distinct specs sent to it.
    pub farm_jobs: Option<u64>,
    pub distinct_sent: usize,
    /// `VmHWM` right after the window drained, MB.
    pub peak_rss_mb: f64,
}

impl Leg {
    pub fn timed(&self) -> impl Iterator<Item = &Record> {
        self.book.records.iter().filter(|r| r.timed)
    }
}

/// How a leg runs.
pub struct LegPlan {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub threads: usize,
    pub setups: usize,
    /// Attach the wall-clock observer (the deployed shape).
    pub observed: bool,
}

/// Runs `plan.setups` set-ups (keeping the service of the last one),
/// then the timed window, recording spans into `spans` when given.
pub fn run_leg(plan: &LegPlan, mut spans: Option<&mut SpanLog>) -> Leg {
    let mut stream = plan.workload.stream(plan.seed);
    let origin = Instant::now();
    let mut book = Book::new(plan.workload.cached());
    let mut setups_s = Vec::new();
    let mut starts_s = Vec::new();
    let mut service = None;
    let mut last_setup_from = 0;
    for _ in 0..plan.setups {
        if let Some(old) = service.take() {
            shut_down(old);
        }
        last_setup_from = book.records.len();
        let t0 = Instant::now();
        let svc = start(plan);
        let t1 = Instant::now();
        warm(&svc, plan.workload, &mut stream, origin, &mut book);
        let t2 = Instant::now();
        setups_s.push((t2 - t0).as_secs_f64());
        starts_s.push((t1 - t0).as_secs_f64());
        if let Some(log) = spans.as_deref_mut() {
            let root = log.push("setup", t0, t2, None);
            log.push("setup.start", t0, t1, Some(root));
            let warm = log.push("setup.warm", t1, t2, Some(root));
            for r in &book.records[last_setup_from..] {
                log.request(r, warm, origin);
            }
        }
        service = Some(svc);
    }
    let service = service.expect("at least one set-up");
    let before = service.stats();
    let window = Duration::from_secs_f64(plan.seconds);
    let root = spans.as_deref_mut().map(|log| log.open("window", None));
    let t0 = Instant::now();
    closed_loop(
        &service,
        &mut stream,
        plan.workload.depth(),
        t0 + window,
        origin,
        &mut book,
        spans.as_deref_mut().zip(root),
    );
    if let (Some(log), Some(root)) = (spans, root) {
        log.close(root);
    }
    let peak_rss_mb = peak_rss_mb();
    let stats = delta(before, service.stats());
    let farm_jobs = service.observers()[0].as_ref().map(|o| {
        let m = o.metrics();
        m.counter("farm.jobs_ok").get() + m.counter("farm.jobs_failed").get()
    });
    let distinct_sent = book.records[last_setup_from..]
        .iter()
        .map(|r| r.concentration.to_bits())
        .collect::<HashSet<_>>()
        .len();
    shut_down(service);
    Leg {
        book,
        setups_s,
        starts_s,
        window_start_ns: (t0 - origin).as_nanos() as u64,
        window_ns: window.as_nanos() as u64,
        stats,
        farm_jobs,
        distinct_sent,
        peak_rss_mb,
    }
}

fn start(plan: &LegPlan) -> ShardedService {
    let config = config(plan.workload, plan.threads);
    if plan.observed {
        let (observer, _ring) = FarmObserver::profiling(RING_EVENTS);
        ShardedService::start_observed(config, vec![observer])
    } else {
        ShardedService::start(config)
    }
}

fn shut_down(service: ShardedService) {
    let _final_stats = service.shutdown();
}

/// Readies a fresh service: one request pays the lazy chain
/// characterization; the cached workload instead fills its hot set.
fn warm(
    service: &ShardedService,
    workload: Workload,
    stream: &mut Stream,
    origin: Instant,
    book: &mut Book,
) {
    let concentrations: Vec<f64> = if workload.cached() {
        stream.hot_set().to_vec()
    } else {
        vec![stream.next_draw().concentration]
    };
    let mut tickets = Vec::new();
    for c in concentrations {
        let (idx, ticket) = submit(service, c, origin, book, false);
        if let Some(t) = ticket {
            tickets.push((idx, t));
        }
    }
    for (idx, ticket) in tickets {
        let response = ticket.wait();
        book.finish(idx, response, stamp(origin));
    }
}

fn stamp(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// Submits one request and records it. Returns the record index and the
/// ticket still to be redeemed (`None` when refused or answered inside
/// `submit` by the cache).
fn submit(
    service: &ShardedService,
    concentration: f64,
    origin: Instant,
    book: &mut Book,
    timed: bool,
) -> (usize, Option<ShardTicket>) {
    let job = spec(concentration);
    let sub_ns = stamp(origin);
    let result = service.submit(job);
    let ret_ns = stamp(origin);
    let idx = book.records.len();
    book.records.push(Record {
        concentration,
        id: result.as_ref().ok().map(ShardTicket::id),
        sub_ns,
        ret_ns,
        done_ns: ret_ns,
        outcome: if result.is_ok() {
            Outcome::Pending
        } else {
            Outcome::Refused
        },
        payload: None,
        timed,
        mismatch: false,
    });
    let Ok(ticket) = result else {
        return (idx, None);
    };
    // a cache hit is fulfilled inside submit: stamped at its return
    match ticket.poll() {
        Some(response) => {
            book.finish(idx, response, ret_ns);
            (idx, None)
        }
        None => (idx, Some(ticket)),
    }
}

/// The closed loop: keep `depth` outstanding until `deadline`, then
/// drain. Window requests are appended to the book.
fn closed_loop(
    service: &ShardedService,
    stream: &mut Stream,
    depth: usize,
    deadline: Instant,
    origin: Instant,
    book: &mut Book,
    mut spans: Option<(&mut SpanLog, u32)>,
) {
    let mut outstanding: VecDeque<(usize, ShardTicket)> = VecDeque::with_capacity(depth);
    let mut landed: Vec<(usize, ServeResponse)> = Vec::with_capacity(depth);
    let mut open = true;
    loop {
        while open && outstanding.len() < depth {
            if Instant::now() >= deadline {
                open = false;
                break;
            }
            let c = stream.next_draw().concentration;
            let (idx, ticket) = submit(service, c, origin, book, true);
            match ticket {
                Some(t) => outstanding.push_back((idx, t)),
                None => {
                    if let Some((log, root)) = spans.as_mut() {
                        log.request(&book.records[idx], *root, origin);
                    }
                }
            }
        }
        let Some((idx, ticket)) = outstanding.pop_front() else {
            break;
        };
        let response = ticket.wait();
        landed.push((idx, response));
        outstanding.retain(|(i, t)| match t.poll() {
            Some(response) => {
                landed.push((*i, response));
                false
            }
            None => true,
        });
        let done_ns = stamp(origin);
        for (i, response) in landed.drain(..) {
            book.finish(i, response, done_ns);
            if let Some((log, root)) = spans.as_mut() {
                log.request(&book.records[i], *root, origin);
            }
        }
    }
}

fn delta(before: ServeStats, after: ServeStats) -> ServeStats {
    ServeStats {
        admitted: after.admitted - before.admitted,
        rejected: after.rejected - before.rejected,
        expired: after.expired - before.expired,
        completed: after.completed - before.completed,
        batches: after.batches - before.batches,
        failed: after.failed - before.failed,
        shed: after.shed - before.shed,
        cache_hits: after.cache_hits - before.cache_hits,
        coalesced: after.coalesced - before.coalesced,
    }
}

/// The process's peak resident set (`VmHWM`), MB; NaN where `/proc` has
/// no such line.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output(job_index: usize, peak: f64) -> JobOutput {
        JobOutput {
            job_index,
            kind: "dose_response",
            metrics: vec![("peak_volts", peak), ("snr", 2.0)],
        }
    }

    fn hit(id: u64, out: JobOutput) -> ServeResponse {
        ServeResponse {
            request_id: id,
            trace: 0,
            disposition: Disposition::CacheHit {
                latency_ns: 5,
                breakdown: LatencyBreakdown {
                    cache_ns: 5,
                    ..LatencyBreakdown::default()
                },
                result: Ok(out),
            },
        }
    }

    fn book_with(cached: bool, answers: &[(f64, JobOutput)]) -> Book {
        let mut book = Book::new(cached);
        for (id, (c, out)) in answers.iter().enumerate() {
            book.records.push(Record {
                concentration: *c,
                id: Some(id as u64),
                sub_ns: 0,
                ret_ns: 1,
                done_ns: 1,
                outcome: Outcome::Pending,
                payload: None,
                timed: true,
                mismatch: false,
            });
            book.finish(id, hit(id as u64, out.clone()), 7);
        }
        book
    }

    #[test]
    fn payloads_compare_kind_names_and_bits_but_not_the_slot() {
        assert!(same_payload(&output(0, 1.5), &output(9, 1.5)));
        assert!(!same_payload(
            &output(0, 1.5),
            &output(0, 1.5000000000000002)
        ));
        assert!(!same_payload(&output(0, 0.0), &output(0, -0.0)));
        let mut renamed = output(0, 1.5);
        renamed.metrics[1].0 = "noise_volts";
        assert!(!same_payload(&output(0, 1.5), &renamed));
        let mut other_kind = output(0, 1.5);
        other_kind.kind = "probe";
        assert!(!same_payload(&output(0, 1.5), &other_kind));
    }

    #[test]
    fn cached_book_keeps_one_payload_per_spec_and_flags_a_differing_repeat() {
        let book = book_with(
            true,
            &[
                (1e-9, output(0, 1.0)),
                (1e-9, output(3, 1.0)),
                (2e-9, output(0, 2.0)),
                (1e-9, output(0, 1.25)),
            ],
        );
        assert_eq!(book.payloads.len(), 2, "one payload per concentration");
        let flags: Vec<bool> = book.records.iter().map(|r| r.mismatch).collect();
        assert_eq!(flags, [false, false, false, true]);
        assert!(book
            .records
            .iter()
            .all(|r| r.done_ns == 7 && r.payload.is_some()));
        assert!(!book.records[3].ok() && book.records[1].ok());
        // with the cache off every answer keeps its own payload
        let uncached = book_with(false, &[(1e-9, output(0, 1.0)), (1e-9, output(0, 1.25))]);
        assert_eq!(uncached.payloads.len(), 2);
        assert!(uncached.records.iter().all(Record::ok));
    }
}
