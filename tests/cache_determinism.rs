//! The content-addressed result cache's determinism contract, pinned
//! end to end the way `serve_determinism.rs` pins the uncached path:
//!
//! 1. **Cached ≡ recomputed** — a cache hit's payload is bit-identical
//!    to the payload a fresh computation of the same spec produces
//!    (with the cache on, the request seed derives from the job's
//!    content hash, so this holds on any shard).
//! 2. **Eviction order is deterministic** — a scripted arrival sequence
//!    with a capacity-starved cache yields the same hit/miss/eviction
//!    sequence (and therefore the same full response trace) at every
//!    worker count {1, 2, 8} and shard count {1, 2, 4}.
//! 3. **Coalescing answers every ticket exactly once** — N identical
//!    in-flight submissions collapse onto one farm job whose answer
//!    fans out to every follower, bit-identically.
//! 4. **Cold / warm / failover golden trace** — a scripted chaos run
//!    (shard kill mid-batch) with the cache on is bit-identical across
//!    worker counts, answers every ticket terminally, and every
//!    successful payload — cold, warm, failed-over or post-restart —
//!    carries the same bits.
//! 5. **Hits are answered inside `submit`** — on the threaded fronts a
//!    repeat's ticket already holds its `CacheHit`, runs no batch, and
//!    a down shard refuses before any lookup.
//!
//! `job_key` is pinned against golden keys for every `JobSpec` variant.
//! A spec's derived `Debug` text serves as its identity: it keeps `-0.0`
//! and prints every NaN as `NaN`, the key's own equality classes.
//! Property tests (vendored proptest) check that keys follow that
//! identity over random spec pairs, that NaN payloads collapse, and that
//! dense `JobSpec` neighborhoods are collision-free.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use canti::farm::{FarmObserver, JobSpec, ProbeMode, Receptor};
use canti::fault::ServeFaultPlan;
use canti::obs::{EventKind, JsonValue, ObsClock, VirtualClock};
use canti::serve::{
    job_key, BatchRecord, CacheConfig, CacheStats, Disposition, JobKey, RejectReason, ReportCache,
    ServeConfig, ServeResponse, ShardedConfig, ShardedEngine, ShardedService, SupervisorConfig,
};
use canti::units::{Molar, Seconds};
use proptest::prelude::*;

fn config(workers: usize, capacity: usize) -> ServeConfig {
    ServeConfig {
        queue_capacity: 64,
        max_batch: 3,
        linger_ns: 1_000,
        batch_seed: 0xCAC4_E5EE,
        threads: workers,
        slo: Default::default(),
        timeline: Default::default(),
        cache: Some(CacheConfig { capacity }),
    }
}

fn probe(v: f64) -> JobSpec {
    JobSpec::Probe(ProbeMode::Value(v))
}

fn assay(concentration_nm: f64, averaging: usize) -> JobSpec {
    JobSpec::StaticDoseResponse {
        receptor: Receptor::AntiIgg,
        concentration: Molar::from_nanomolar(concentration_nm),
        baseline: Seconds::new(30.0),
        association: Seconds::new(120.0),
        wash: Seconds::new(60.0),
        dt: Seconds::new(0.25),
        averaging,
    }
}

/// A successful payload as raw bits, so `f64` comparison is exact and
/// NaN-proof.
fn output_bits(r: &ServeResponse) -> Option<Vec<(String, u64)>> {
    r.disposition.output().map(|out| {
        out.metrics
            .iter()
            .map(|(name, v)| ((*name).to_owned(), v.to_bits()))
            .collect()
    })
}

/// Contract 1: the hit's payload is the recomputed payload, bit for bit,
/// across job kinds.
#[test]
fn cached_responses_are_bitwise_identical_to_recomputed() {
    for spec in [
        probe(2.5),
        assay(10.0, 16),
        JobSpec::Probe(ProbeMode::Draws(5)),
    ] {
        let clock = Arc::new(VirtualClock::new());
        let mut engine = ShardedEngine::new(
            ShardedConfig {
                shards: 1,
                base: config(2, 8),
            },
            Arc::clone(&clock) as Arc<dyn ObsClock>,
        );

        engine.submit(spec.clone()).expect("cold admission");
        clock.advance_ns(1_001); // past the linger
        let cold = engine.pump();
        assert_eq!(cold.len(), 1, "cold run answers");
        let cold_bits = output_bits(&cold[0]).expect("cold run succeeds");

        engine.submit(spec.clone()).expect("warm admission");
        let warm = engine.pump();
        assert_eq!(warm.len(), 1, "hits are delivered on the next pump");
        assert!(
            matches!(warm[0].disposition, Disposition::CacheHit { .. }),
            "second submission must be served from the cache, got {:?}",
            warm[0].disposition
        );
        assert_eq!(
            output_bits(&warm[0]).expect("hit carries the output"),
            cold_bits,
            "cached payload diverged from the recomputed payload"
        );

        let stats = engine.stats();
        assert_eq!(stats.cache_hits, 1);
        let cache = engine.cache_stats().expect("cache is on");
        assert_eq!((cache.hits, cache.misses, cache.insertions), (1, 1, 1));
        engine.drain();
    }
}

/// Contract 3: N identical in-flight submissions form ONE single-member
/// batch; the leader's answer fans out so every ticket is answered
/// exactly once with identical bits.
#[test]
fn coalesced_fanout_answers_every_ticket_exactly_once() {
    let clock = Arc::new(VirtualClock::new());
    let mut engine = ShardedEngine::new(
        ShardedConfig {
            shards: 1,
            base: config(2, 8),
        },
        Arc::clone(&clock) as Arc<dyn ObsClock>,
    );

    let ids: Vec<u64> = (0..6)
        .map(|_| engine.submit(assay(3.0, 8)).expect("admitted"))
        .collect();
    assert_eq!(
        ids,
        (0..6).collect::<Vec<u64>>(),
        "dense ids, followers included"
    );
    assert_eq!(engine.queue_depth(), 1, "followers ride the leader's slot");

    clock.advance_ns(1_001);
    let responses = engine.pump();
    let mut answered: Vec<u64> = responses.iter().map(|r| r.request_id).collect();
    answered.sort_unstable();
    assert_eq!(answered, ids, "every ticket answered exactly once");

    let leader_bits = output_bits(&responses[0]).expect("leader succeeded");
    for r in &responses {
        assert_eq!(
            output_bits(r).as_ref(),
            Some(&leader_bits),
            "request {} got different bits than its leader",
            r.request_id
        );
    }

    let batches: Vec<BatchRecord> = engine.batch_log(0);
    assert_eq!(batches.len(), 1, "one farm job for six tickets");
    assert_eq!(batches[0].request_ids.len(), 1);
    let stats = engine.stats();
    assert_eq!(stats.coalesced, 5);
    assert_eq!(stats.completed, 6);
    engine.drain();
}

/// A coalesced follower names its leader by the leader's global request
/// id, the id every span and response carries: on each shard, every
/// `coalesced` event's `leader` is the `request` field of a request span
/// that opened in that shard's ring.
#[test]
fn coalesced_events_name_their_leader_by_global_id() {
    for shards in [2, 4] {
        let (observers, rings): (Vec<FarmObserver>, Vec<_>) = (0..shards)
            .map(|_| FarmObserver::deterministic(4096))
            .unzip();
        let clock = Arc::new(VirtualClock::new());
        let mut engine = ShardedEngine::new(
            ShardedConfig {
                shards,
                base: ServeConfig {
                    max_batch: 64,
                    ..config(1, 8)
                },
            },
            Arc::clone(&clock) as Arc<dyn ObsClock>,
        )
        .with_observers(observers);
        for _ in 0..3 * shards {
            engine.submit(assay(3.0, 8)).expect("admitted");
        }
        clock.advance_ns(1_001);
        let responses = engine.pump();
        assert_eq!(responses.len(), 3 * shards, "every ticket answered");

        let u64_field = |ev: &canti::obs::TraceEvent, key: &str| match ev.field(key) {
            Some(JsonValue::U64(v)) => *v,
            other => panic!("{} event: {key} = {other:?}", ev.name),
        };
        let mut checked = 0;
        for (shard, ring) in rings.iter().enumerate() {
            let events = ring.events();
            let opened: BTreeSet<u64> = events
                .iter()
                .filter(|ev| ev.name == "request" && ev.kind == EventKind::SpanStart)
                .map(|ev| u64_field(ev, "request"))
                .collect();
            for ev in events.iter().filter(|ev| ev.name == "coalesced") {
                let leader = u64_field(ev, "leader");
                assert!(
                    opened.contains(&leader),
                    "{shards} shards: shard {shard} follower {} names leader {leader}, \
                     but the shard's request spans are {opened:?}",
                    u64_field(ev, "request")
                );
                checked += 1;
            }
        }
        assert_eq!(
            checked,
            engine.stats().coalesced,
            "{shards} shards: one coalesced event per follower"
        );
        assert!(checked > 0, "{shards} shards: the script must coalesce");
    }
}

/// Everything observable about one scripted capacity-starved run.
#[derive(Debug, PartialEq)]
struct EvictionTrace {
    admissions: Vec<Result<u64, RejectReason>>,
    responses: Vec<ServeResponse>,
    cache: CacheStats,
}

/// A scripted stream of 40 arrivals cycling 6 distinct specs through
/// per-shard caches of capacity 2, so eviction churn is constant. The
/// revisit pattern deliberately interleaves (i*3 + i/7) so recency, not
/// insertion order, decides the victims.
fn eviction_run(workers: usize, shards: usize) -> EvictionTrace {
    let clock = Arc::new(VirtualClock::new());
    let mut engine = ShardedEngine::new(
        ShardedConfig {
            shards,
            base: config(workers, 2),
        },
        Arc::clone(&clock) as Arc<dyn ObsClock>,
    );
    let mut trace = EvictionTrace {
        admissions: Vec::new(),
        responses: Vec::new(),
        cache: CacheStats::default(),
    };
    for i in 0..40usize {
        let spec = probe(((i * 3 + i / 7) % 6) as f64);
        trace.admissions.push(engine.submit(spec));
        clock.advance_ns(100);
        trace.responses.extend(engine.pump());
    }
    clock.advance_ns(2_000);
    trace.responses.extend(engine.pump());
    trace.responses.extend(engine.drain());
    trace.cache = engine.cache_stats().expect("cache is on");
    trace
}

/// Contract 2: the full trace — and with it the hit/miss/eviction
/// sequence — is bit-identical at every worker count, at every shard
/// count, and the script really does evict.
#[test]
fn eviction_sequence_is_identical_at_any_worker_and_shard_count() {
    let mut bits_by_spec_line: BTreeMap<String, Vec<(String, u64)>> = BTreeMap::new();
    for shards in [1, 2, 4] {
        let oracle = eviction_run(1, shards);
        assert!(
            oracle.cache.evictions > 0,
            "{shards} shards: the script must starve the cache (stats {:?})",
            oracle.cache
        );
        assert!(
            oracle.cache.hits > 0,
            "{shards} shards: the script must hit"
        );
        for workers in [2, 8] {
            assert_eq!(
                eviction_run(workers, shards),
                oracle,
                "eviction trace diverged at {workers} workers x {shards} shards"
            );
        }
        // Content-derived seeds: a given spec's payload bits are the
        // same no matter which shard count (and so which shard) served
        // it, hit or miss.
        for r in &oracle.responses {
            let Some(bits) = output_bits(r) else { continue };
            let spec = probe(((r.request_id as usize * 3 + r.request_id as usize / 7) % 6) as f64);
            let line = format!("{spec:?}");
            match bits_by_spec_line.get(&line) {
                Some(prior) => assert_eq!(
                    prior, &bits,
                    "payload for {line} changed across shard counts"
                ),
                None => {
                    bits_by_spec_line.insert(line, bits);
                }
            }
        }
    }
    assert_eq!(
        bits_by_spec_line.len(),
        6,
        "all six specs completed somewhere"
    );
}

/// Everything observable about one scripted cold/warm/failover run.
#[derive(Debug, PartialEq)]
struct CacheChaosTrace {
    admissions: Vec<Result<u64, RejectReason>>,
    responses: Vec<ServeResponse>,
    label_counts: BTreeMap<&'static str, usize>,
    cache: CacheStats,
    failovers: u64,
    restarts: u64,
}

/// Contract 4's script: one spec, shards = 2, the victim shard's first
/// batch killed mid-execution. Cold burst → kill → warm burst while the
/// victim is down (hits + failover) → restart → post-restart burst.
fn chaos_cache_run(workers: usize, plan: Option<&ServeFaultPlan>) -> CacheChaosTrace {
    let clock = Arc::new(VirtualClock::new());
    let mut engine = ShardedEngine::new(
        ShardedConfig {
            shards: 2,
            base: config(workers, 8),
        },
        Arc::clone(&clock) as Arc<dyn ObsClock>,
    )
    .with_supervisor(SupervisorConfig {
        backoff_base_ns: 1_000,
    });
    if let Some(plan) = plan {
        engine = engine.with_chaos_plan(plan);
    }

    let mut trace = CacheChaosTrace {
        admissions: Vec::new(),
        responses: Vec::new(),
        label_counts: BTreeMap::new(),
        cache: CacheStats::default(),
        failovers: 0,
        restarts: 0,
    };
    let spec = assay(7.5, 8);

    // Cold burst at t=0; the linger fires the leaders at t=1001 and the
    // chaos plan kills the victim's batch mid-execution.
    for _ in 0..8 {
        trace.admissions.push(engine.submit(spec.clone()));
    }
    trace.responses.extend(engine.pump());
    clock.advance_ns(1_001);
    trace.responses.extend(engine.pump());

    // Warm burst while the victim is down: survivors' shard answers from
    // its cache, victim-routed ids fail over.
    clock.advance_ns(100);
    for _ in 0..8 {
        trace.admissions.push(engine.submit(spec.clone()));
    }
    trace.responses.extend(engine.pump());
    clock.advance_ns(1_001);
    trace.responses.extend(engine.pump());

    // Past the backoff: the pump restarts the victim; a final burst
    // re-admits traffic to it.
    clock.set_ns(10_000);
    trace.responses.extend(engine.pump());
    for _ in 0..8 {
        trace.admissions.push(engine.submit(spec.clone()));
    }
    trace.responses.extend(engine.pump());
    clock.advance_ns(2_000);
    trace.responses.extend(engine.pump());
    trace.responses.extend(engine.drain());

    for r in &trace.responses {
        *trace.label_counts.entry(r.disposition.label()).or_insert(0) += 1;
    }
    trace.cache = engine.cache_stats().expect("cache is on");
    trace.failovers = engine.failovers();
    trace.restarts = engine.restarts();
    trace
}

/// Contract 4: the golden cold/warm/failover trace. Bit-identical across
/// worker counts; every ticket answered terminally exactly once; every
/// successful payload carries the same bits whether it was computed
/// cold, served warm from the cache, failed over, or recomputed after
/// the restart — and a clean (no-plan) run produces those same bits.
#[test]
fn cold_warm_failover_trace_is_golden() {
    let plan = ServeFaultPlan::kill_shard(1, 0);
    let oracle = chaos_cache_run(1, Some(&plan));

    assert!(oracle.failovers > 0, "the victim's traffic must fail over");
    assert_eq!(
        oracle.restarts, 1,
        "the supervisor restarts the victim once"
    );
    assert!(oracle.cache.hits > 0, "the warm burst must hit");
    assert!(
        oracle.label_counts.get("cache_hit").copied().unwrap_or(0) > 0
            || oracle.label_counts.contains_key("coalesced"),
        "no cached activity in {:?}",
        oracle.label_counts
    );

    // Terminal, exactly-once delivery.
    let mut admitted: Vec<u64> = oracle
        .admissions
        .iter()
        .filter_map(|a| a.as_ref().ok().copied())
        .collect();
    admitted.sort_unstable();
    let mut answered: Vec<u64> = oracle.responses.iter().map(|r| r.request_id).collect();
    answered.sort_unstable();
    assert_eq!(
        answered, admitted,
        "every admitted id answered exactly once"
    );

    // One spec, one payload: every successful response in the chaos run
    // carries identical bits.
    let ok_bits: Vec<Vec<(String, u64)>> =
        oracle.responses.iter().filter_map(output_bits).collect();
    assert!(!ok_bits.is_empty(), "some requests must succeed");
    for bits in &ok_bits {
        assert_eq!(
            bits, &ok_bits[0],
            "payload bits diverged inside the chaos run"
        );
    }

    // ...and they are the bits a fault-free run computes.
    let clean = chaos_cache_run(1, None);
    let clean_bits = clean
        .responses
        .iter()
        .find_map(output_bits)
        .expect("clean run succeeds");
    assert_eq!(ok_bits[0], clean_bits, "failover changed the payload bits");
    assert_eq!(clean.failovers, 0);

    // Bit-identical at 2 and 8 workers.
    for workers in [2, 8] {
        assert_eq!(
            chaos_cache_run(workers, Some(&plan)),
            oracle,
            "cache chaos trace diverged at {workers} workers"
        );
    }
}

/// One spec of every `JobSpec` variant (every receptor and probe mode),
/// with non-finite and signed-zero floats among the values.
fn every_variant() -> Vec<JobSpec> {
    let dose = |receptor, concentration: Molar, averaging| JobSpec::StaticDoseResponse {
        receptor,
        concentration,
        baseline: Seconds::new(30.0),
        association: Seconds::new(120.0),
        wash: Seconds::new(60.0),
        dt: Seconds::new(0.25),
        averaging,
    };
    vec![
        dose(Receptor::AntiIgg, Molar::from_nanomolar(3.0), 16),
        dose(Receptor::AntiPsa, Molar::new(1.0e-12), 1),
        dose(Receptor::Dna20mer, Molar::new(f64::INFINITY), 0),
        JobSpec::ProcessVariation {
            thickness_sigma_rel: 0.02,
        },
        JobSpec::ProcessVariation {
            thickness_sigma_rel: f64::NAN,
        },
        JobSpec::CrossReactivity {
            target: Molar::new(1.0e-9),
            interferent: Molar::new(f64::NEG_INFINITY),
        },
        JobSpec::Probe(ProbeMode::Value(-0.0)),
        JobSpec::Probe(ProbeMode::Value(1.0e300)),
        JobSpec::Probe(ProbeMode::Draws(7)),
        JobSpec::Probe(ProbeMode::Panic),
        JobSpec::Probe(ProbeMode::Fail),
        JobSpec::Probe(ProbeMode::Flaky { p_fail: 0.25 }),
        JobSpec::ChaosScan {
            fault_seed: u64::MAX,
            faults: 3,
            samples: 2048,
        },
    ]
}

/// The key of each [`every_variant`] spec, in order, pinned bit for bit.
const GOLDEN_KEYS: [[u64; 2]; 13] = [
    [0xb6fb_484a_b28a_75cc, 0x218d_919d_4296_5438], // anti-IgG dose, 3 nM
    [0x9ac4_70ae_6ca3_0cdb, 0x9aea_4020_2556_1edf], // anti-PSA dose, 1 pM
    [0xcc78_8b36_1af9_b336, 0xe9a0_ed73_84c3_35f0], // DNA dose, infinite concentration
    [0x0fc4_d729_6011_3916, 0xadf1_d629_1b8a_dd75], // process variation, 0.02
    [0x3497_177c_c646_f977, 0x57f3_6c97_f765_949d], // process variation, NaN
    [0xc21f_6245_6a43_bc3d, 0xf91e_bbf3_43c6_8cbb], // cross-reactivity, -inf interferent
    [0x639e_74f5_15d2_a9ac, 0x92d6_6993_203c_d3d8], // probe value -0.0
    [0xce8f_c7d1_d346_f239, 0xc9ac_6c8c_6bd2_cbc6], // probe value 1e300
    [0x295f_ac4b_b1cf_4e09, 0xd89e_1437_e29b_925b], // probe draws 7
    [0x666f_0f50_0564_6bf4, 0xc4dc_d39a_1bd9_3955], // probe panic
    [0x40a8_03f3_e82c_65dd, 0x2e36_10d3_ba92_11b7], // probe fail
    [0x2bc2_4c16_f73a_bfa1, 0xb320_4e29_3214_706e], // probe flaky 0.25
    [0xd55a_eb88_0347_f3a3, 0x0f1c_4a7d_7c92_9469], // chaos scan
];

#[test]
fn keys_match_the_golden_table() {
    let specs = every_variant();
    assert_eq!(specs.len(), GOLDEN_KEYS.len());
    for (spec, key) in specs.iter().zip(GOLDEN_KEYS) {
        assert_eq!(job_key(spec), JobKey(key), "{spec:?}");
    }
}

/// Float values whose keys are easy to get wrong: signed zeros, NaNs of
/// either sign and several payloads, infinities and 1-ulp neighbours.
const TRICKY_FLOATS: [f64; 10] = [
    0.0,
    -0.0,
    f64::NAN,
    -f64::NAN,
    f64::from_bits(0x7FF8_0000_0000_0001),
    f64::INFINITY,
    f64::NEG_INFINITY,
    1.0,
    f64::from_bits(0x3FF0_0000_0000_0001),
    0.25,
];

/// A spec of variant `variant % 6` (the probe modes split across two)
/// whose floats are `TRICKY_FLOATS[a]` and `[b]` and whose integers and
/// enum tags come from `n`.
fn tricky_spec(variant: usize, a: usize, b: usize, n: usize) -> JobSpec {
    let (x, y) = (TRICKY_FLOATS[a], TRICKY_FLOATS[b]);
    let receptors = [Receptor::AntiIgg, Receptor::AntiPsa, Receptor::Dna20mer];
    match variant % 6 {
        0 => JobSpec::StaticDoseResponse {
            receptor: receptors[n % 3],
            concentration: Molar::new(x),
            baseline: Seconds::new(30.0),
            association: Seconds::new(y),
            wash: Seconds::new(60.0),
            dt: Seconds::new(0.25),
            averaging: n,
        },
        1 => JobSpec::ProcessVariation {
            thickness_sigma_rel: x,
        },
        2 => JobSpec::CrossReactivity {
            target: Molar::new(x),
            interferent: Molar::new(y),
        },
        3 => JobSpec::Probe(ProbeMode::Value(x)),
        4 => JobSpec::Probe(match n % 4 {
            0 => ProbeMode::Draws(n),
            1 => ProbeMode::Panic,
            2 => ProbeMode::Fail,
            _ => ProbeMode::Flaky { p_fail: x },
        }),
        _ => JobSpec::ChaosScan {
            fault_seed: x.to_bits(),
            faults: n,
            samples: 2048,
        },
    }
}

/// A spec's answer as a threaded front gave it: the ticket's poll taken
/// as `submit` returned, and the final response (that poll, or a wait).
type Answer = (Option<ServeResponse>, ServeResponse);

/// Contract 5 on one threaded front: a repeat's ticket holds its
/// `CacheHit` when `submit` returns, with the cold answer's bits and no
/// batch; a following miss is still batched and answered. `submit`
/// admits a spec; `batches` reads the front's batch tally.
fn assert_hits_answer_inside_submit(submit: impl Fn(JobSpec) -> Answer, batches: impl Fn() -> u64) {
    let (_, cold) = submit(probe(2.5));
    let cold_bits = output_bits(&cold).expect("the cold request is solved");
    let before = batches();

    let (polled, _) = submit(probe(2.5));
    let hit = polled.expect("a repeat is answered inside submit");
    assert!(
        matches!(hit.disposition, Disposition::CacheHit { .. }),
        "expected a cache hit, got {hit}"
    );
    assert_eq!(output_bits(&hit), Some(cold_bits), "hit bits diverged");
    assert_eq!(batches(), before, "a hit runs no batch");

    let (_, miss) = submit(probe(3.5));
    assert!(
        matches!(miss.disposition, Disposition::Completed { .. }),
        "expected a batched answer, got {miss}"
    );
    assert_eq!(batches(), before + 1, "the miss rode one batch");
}

#[test]
fn threaded_service_answers_a_hit_inside_submit() {
    let service = ShardedService::start(ShardedConfig {
        shards: 1,
        base: config(1, 8),
    });
    assert_hits_answer_inside_submit(
        |spec| {
            let ticket = service.submit(spec).expect("admitted");
            let polled = ticket.poll();
            let answer = polled.clone().unwrap_or_else(|| ticket.wait());
            (polled, answer)
        },
        || service.stats().batches,
    );
    let stats = service.shutdown()[0];
    assert_eq!((stats.cache_hits, stats.completed), (1, 3));
}

/// The sharded front on one shard whose third batch is killed: the hit
/// path as above, then a down shard refuses a cached spec before its
/// cache is consulted.
#[test]
fn threaded_sharded_service_answers_a_hit_inside_submit_and_refuses_when_down() {
    let (observer, _ring) = FarmObserver::profiling(4096);
    let service = ShardedService::start_chaos(
        ShardedConfig {
            shards: 1,
            base: config(1, 8),
        },
        vec![observer],
        &ServeFaultPlan::kill_shard(0, 2),
        SupervisorConfig {
            // never restarted while the test runs
            backoff_base_ns: 3_600_000_000_000,
        },
    );
    assert_hits_answer_inside_submit(
        |spec| {
            let ticket = service.submit(spec).expect("admitted");
            let polled = ticket.poll();
            let answer = polled.clone().unwrap_or_else(|| ticket.wait());
            (polled, answer)
        },
        || service.stats().batches,
    );

    let doomed = service.submit(probe(4.5)).expect("admitted").wait();
    assert_eq!(
        doomed.disposition,
        Disposition::Failed {
            reason: RejectReason::ShardFailed
        }
    );
    let lookups = |c: CacheStats| c.hits + c.misses;
    let before = lookups(service.cache_stats().expect("cache is on"));
    assert_eq!(
        service.submit(probe(2.5)).map(|t| t.id()),
        Err(RejectReason::ShardFailed),
        "a down shard refuses even a cached spec"
    );
    assert_eq!(
        lookups(service.cache_stats().expect("cache is on")),
        before,
        "the refusal came before any lookup"
    );
    let _ = service.shutdown();
}

/// The scripted LRU rule replayed directly against [`ReportCache`]: the
/// recency order after a fixed access script is a pure function of that
/// script (logical ticks, never wall time), so two replays agree key for
/// key and the victim is always the least recently touched entry.
#[test]
fn report_cache_recency_order_is_a_pure_function_of_the_access_script() {
    let script = |c: &mut ReportCache| {
        let keys: Vec<_> = (0..3).map(|i| job_key(&probe(f64::from(i)))).collect();
        for (i, k) in keys.iter().enumerate() {
            c.insert(
                *k,
                canti::farm::JobOutput {
                    job_index: i,
                    kind: "probe",
                    metrics: vec![("value", i as f64)],
                },
            );
        }
        c.lookup(keys[0]); // refresh 0: the LRU entry is now 1
        c.insert(
            job_key(&probe(9.0)),
            canti::farm::JobOutput {
                job_index: 9,
                kind: "probe",
                metrics: vec![("value", 9.0)],
            },
        );
        (keys, c.keys_by_recency())
    };
    let mut a = ReportCache::new(CacheConfig { capacity: 3 });
    let mut b = ReportCache::new(CacheConfig { capacity: 3 });
    let (keys, order_a) = script(&mut a);
    let (_, order_b) = script(&mut b);
    assert_eq!(order_a, order_b, "replays must agree exactly");
    assert_eq!(
        order_a,
        vec![keys[2], keys[0], job_key(&probe(9.0))],
        "LRU order after the script: 2 (stale), 0 (refreshed), 9 (fresh)"
    );
    assert_eq!(a.stats(), b.stats());
    assert!(a.lookup(keys[1]).is_none(), "1 was the eviction victim");
}

/// Fails unless, for every pair of `specs`, the two keys are equal
/// exactly when the two `Debug` texts are.
fn keys_follow_debug_texts(specs: &[JobSpec]) -> Result<(), proptest::TestCaseError> {
    let keyed: Vec<(JobKey, String)> = specs
        .iter()
        .map(|s| (job_key(s), format!("{s:?}")))
        .collect();
    for (i, (key_a, text_a)) in keyed.iter().enumerate() {
        for (key_b, text_b) in &keyed[i + 1..] {
            prop_assert_eq!(
                key_a == key_b,
                text_a == text_b,
                "{text_a} vs {text_b}: keys {key_a:?} and {key_b:?}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The canonical form is a pure function of the spec's values — two
    /// constructions from the same values always agree, line and key —
    /// and distinct finite payload values get distinct keys.
    #[test]
    fn canonical_form_is_pure_and_value_sensitive(
        v in -1.0e12f64..1.0e12,
        averaging in 1usize..128,
    ) {
        let once = assay(v, averaging);
        let again = assay(v, averaging);
        prop_assert_eq!(format!("{once:?}"), format!("{again:?}"));
        prop_assert_eq!(job_key(&once), job_key(&again));
        // nudging any single field moves the key
        prop_assert!(job_key(&once) != job_key(&assay(v, averaging + 1)));
        let nudged = f64::from_bits(v.to_bits() ^ 1);
        prop_assert!(job_key(&probe(v)) != job_key(&probe(nudged)),
            "adjacent bit patterns must hash apart");
    }

    /// Every NaN payload collapses to the one canonical "NaN" spelling,
    /// so all-NaN specs share a single key (the stack never branches on
    /// a NaN payload, so serving them one cached answer is sound).
    #[test]
    fn nan_payloads_collapse_to_one_key(payload in 1u64..(1u64 << 51)) {
        let weird_nan = f64::from_bits(0x7FF8_0000_0000_0000 | payload);
        prop_assert!(weird_nan.is_nan());
        prop_assert_eq!(
            format!("{:?}", probe(weird_nan)),
            format!("{:?}", probe(f64::NAN))
        );
        prop_assert_eq!(job_key(&probe(weird_nan)), job_key(&probe(f64::NAN)));
        // the sign bit is part of the payload too
        let negative_nan = f64::from_bits(weird_nan.to_bits() | (1u64 << 63));
        prop_assert_eq!(job_key(&probe(negative_nan)), job_key(&probe(f64::NAN)));
    }

    /// No collisions over dense spec neighborhoods: across a window of
    /// adjacent f64 bit patterns pushed through two different job kinds,
    /// distinct canonical lines always get distinct 128-bit keys. (The
    /// assay's nanomolar→molar conversion may round neighbors together —
    /// those share a line by design, so the tally is over lines.)
    #[test]
    fn keys_are_collision_free_over_dense_spec_neighborhoods(
        base_bits in 0x3FF0_0000_0000_0000u64..0x4330_0000_0000_0000,
        averaging in 1usize..64,
    ) {
        let mut lines = BTreeSet::new();
        let mut keys = BTreeSet::new();
        for i in 0..512u64 {
            let c = f64::from_bits(base_bits + i);
            lines.insert(format!("{:?}", assay(c, averaging)));
            keys.insert(job_key(&assay(c, averaging)));
            // the probe hashes its value raw: every bit pattern is a
            // distinct line, so this leg alone contributes 512
            lines.insert(format!("{:?}", probe(f64::from_bits(base_bits + i))));
            keys.insert(job_key(&probe(f64::from_bits(base_bits + i))));
        }
        prop_assert!(lines.len() > 512, "window too degenerate to test");
        prop_assert_eq!(keys.len(), lines.len(), "key collision in a dense window");
    }

    /// Keys follow `Debug` identity over random spec pairs of every
    /// variant: tricky floats (signed zeros, NaNs, infinities, 1-ulp
    /// neighbours), every receptor and probe mode, and the golden specs.
    #[test]
    fn keys_are_equal_exactly_when_debug_texts_are_for_every_variant(
        picks in prop::collection::vec((0usize..6, 0usize..10, 0usize..10, 0usize..8), 24..25),
    ) {
        let mut specs = every_variant();
        specs.extend(picks.iter().map(|&(variant, a, b, n)| tricky_spec(variant, a, b, n)));
        keys_follow_debug_texts(&specs)?;
    }

    /// Keys follow `Debug` identity over the dense neighbourhoods the
    /// tests above walk: assay values and averaging, NaN payloads of
    /// either sign and windows of adjacent bit patterns, set against the
    /// golden spec of every variant.
    #[test]
    fn keys_are_equal_exactly_when_debug_texts_are_over_dense_neighborhoods(
        v in -1.0e12f64..1.0e12,
        averaging in 1usize..128,
        payload in 1u64..(1u64 << 51),
        base_bits in 0x3FF0_0000_0000_0000u64..0x4330_0000_0000_0000,
    ) {
        let nan = f64::from_bits(0x7FF8_0000_0000_0000 | payload);
        let mut specs = every_variant();
        specs.extend([assay(v, averaging), probe(v), probe(nan), probe(-nan)]);
        for i in 0..64u64 {
            let c = f64::from_bits(base_bits + i);
            specs.push(assay(c, averaging));
            specs.push(probe(c));
        }
        keys_follow_debug_texts(&specs)?;
    }
}
