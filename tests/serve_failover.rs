//! The self-healing serve layer's determinism contract under scripted
//! chaos, pinned the same way `shard_determinism.rs` pins the healthy
//! path.
//!
//! One scripted run on a virtual clock kills a shard's first batch
//! ([`ServeFaultPlan::kill_shard`]), watches traffic fail over, lets
//! the supervisor's backoff elapse, restarts the shard, and re-admits
//! traffic to it. The contract:
//!
//! 1. **Bit-identity across worker counts** — the whole chaos trace
//!    (admissions, responses in emission order, batch logs, stats,
//!    health checkpoints, failover and restart tallies) is identical at
//!    1/2/8 farm workers, at every tested shard count.
//! 2. **Every ticket is answered terminally** — each admitted global id
//!    appears in the responses exactly once, as `Completed`, `Expired`
//!    or `Failed`. A dead shard never swallows a request.
//! 3. **Failover follows the routing rule** — every request served off
//!    its primary lands exactly where [`route_failover`] says it must.
//! 4. **The empty plan is inert** — a run armed with
//!    [`ServeFaultPlan::default`] is bit-identical to a run with no
//!    plan installed at all.
//! 5. **The victim's telemetry tallies its whole lifecycle** — observed
//!    per shard, the victim's ring gives `obsctl summary` one
//!    `shard_down` and one `shard_recovered`, although the restart
//!    fires the latter while no span is open.
//!
//! A threaded companion test drives the same fault plan through
//! [`ShardedService`] under a watchdog: every ticket must resolve
//! within the timeout even while the victim shard is down.

use std::collections::BTreeMap;
use std::sync::Arc;

use canti::farm::{FarmObserver, JobSpec, ProbeMode};
use canti::fault::{ServeFaultEvent, ServeFaultPlan};
use canti::obs::{ObsClock, VirtualClock};
use canti::serve::{
    route_failover, route_request, BatchRecord, Disposition, RejectReason, ServeConfig,
    ServeResponse, ServeStats, ShardHealth, ShardedConfig, ShardedEngine, ShardedService,
    SupervisorConfig,
};

/// The shard whose first batch the scripted plan kills. Non-zero so the
/// run matches what [`ServeFaultPlan::generate`] would produce, valid at
/// every tested shard count.
const VICTIM: usize = 1;

fn config(workers: usize) -> ServeConfig {
    ServeConfig {
        queue_capacity: 64,
        max_batch: 3,
        linger_ns: 1_000,
        batch_seed: 0xC4A0_5D15,
        threads: workers,
        slo: Default::default(),
        timeline: Default::default(),
        cache: None,
    }
}

/// Supervision on virtual time: first restart due 1 µs after the
/// failure, one clean batch of probation after the first.
fn supervision() -> SupervisorConfig {
    SupervisorConfig {
        backoff_base_ns: 1_000,
    }
}

fn probe(i: u64) -> JobSpec {
    JobSpec::Probe(ProbeMode::Value(i as f64))
}

/// Everything observable about one scripted chaos run.
#[derive(Debug, PartialEq)]
struct ChaosTrace {
    admissions: Vec<Result<u64, RejectReason>>,
    responses: Vec<ServeResponse>,
    shard_batches: Vec<Vec<BatchRecord>>,
    shard_stats: Vec<ServeStats>,
    /// Per-shard health captured after each phase of the script.
    health_log: Vec<Vec<ShardHealth>>,
    failovers: u64,
    restarts: u64,
}

/// The scripted chaos run: kill → failover → backoff → restart →
/// re-admission, all on the virtual clock.
fn chaos_run(workers: usize, shards: usize, plan: Option<&ServeFaultPlan>) -> ChaosTrace {
    observed_chaos_run(workers, shards, plan, Vec::new())
}

/// [`chaos_run`] with one observer per shard (none when `observers` is
/// empty).
fn observed_chaos_run(
    workers: usize,
    shards: usize,
    plan: Option<&ServeFaultPlan>,
    observers: Vec<FarmObserver>,
) -> ChaosTrace {
    let clock = Arc::new(VirtualClock::new());
    let mut engine = ShardedEngine::new(
        ShardedConfig {
            shards,
            base: config(workers),
        },
        Arc::clone(&clock) as Arc<dyn ObsClock>,
    )
    .with_supervisor(supervision());
    if !observers.is_empty() {
        engine = engine.with_observers(observers);
    }
    if let Some(plan) = plan {
        engine = engine.with_chaos_plan(plan);
    }

    let mut trace = ChaosTrace {
        admissions: Vec::new(),
        responses: Vec::new(),
        shard_batches: Vec::new(),
        shard_stats: Vec::new(),
        health_log: Vec::new(),
        failovers: 0,
        restarts: 0,
    };
    let submit = |engine: &mut ShardedEngine, trace: &mut ChaosTrace, n: u64| {
        let base = trace.admissions.len() as u64;
        for i in 0..n {
            trace.admissions.push(engine.submit(probe(base + i)));
        }
    };

    // Phase 1, t=0: a burst big enough that every shard forms a batch.
    // The victim's batch 0 is killed mid-execution: its members and its
    // queued survivors must all be answered terminally, and the
    // supervisor marks the shard Down.
    submit(&mut engine, &mut trace, 24);
    trace.responses.extend(engine.pump());
    trace.health_log.push(engine.healths());

    // Phase 2, t=100: traffic while the victim is down. Ids whose
    // primary is the victim fail over deterministically; the backoff
    // (due at t=1000) has not elapsed, so the pump must not restart it.
    clock.advance_ns(100);
    submit(&mut engine, &mut trace, 12);
    trace.responses.extend(engine.pump());
    trace.health_log.push(engine.healths());

    // Phase 3, t=1500: past both the backoff and every survivor's
    // linger. The pump restarts the victim (Recovering) and flushes all
    // queues.
    clock.set_ns(1_500);
    trace.responses.extend(engine.pump());
    trace.health_log.push(engine.healths());

    // Phase 4: two re-admission rounds. Each round's second pump fires
    // the lingered leftovers, so the victim serves clean batches and
    // walks Recovering → Degraded → Healthy.
    for round in 0..2u64 {
        submit(&mut engine, &mut trace, 12);
        trace.responses.extend(engine.pump());
        clock.advance_ns(2_000 * (round + 1));
        trace.responses.extend(engine.pump());
        trace.health_log.push(engine.healths());
    }

    // Drain flushes any stragglers; a post-drain submit is refused.
    trace.responses.extend(engine.drain());
    trace.admissions.push(engine.submit(probe(9_999)));

    trace.shard_batches = (0..engine.shard_count())
        .map(|s| engine.batch_log(s))
        .collect();
    trace.shard_stats = engine.shard_stats();
    trace.failovers = engine.failovers();
    trace.restarts = engine.restarts();
    trace
}

fn kill_plan() -> ServeFaultPlan {
    ServeFaultPlan::kill_shard(VICTIM, 0)
}

/// Contract 1: the whole chaos trace is bit-identical at 1/2/8 farm
/// workers, at 2 and 4 shards, under the one-kill plan and under a plan
/// that also kills the victim's batch 1. Where batch 1 was stranded
/// behind the first kill (2 shards), that kill fires before the
/// victim's first batch after the restart; either way the victim
/// restarts twice.
#[test]
fn chaos_traces_are_bit_identical_across_worker_counts() {
    for shards in [2, 4] {
        let single = chaos_run(1, shards, Some(&kill_plan()));
        let twice = ServeFaultPlan::new(vec![
            ServeFaultEvent {
                shard: VICTIM,
                batch: 0,
            },
            ServeFaultEvent {
                shard: VICTIM,
                batch: 1,
            },
        ]);
        let double = chaos_run(1, shards, Some(&twice));
        assert_eq!(
            double.restarts, 2,
            "{shards} shards: the victim restarts twice"
        );
        for (plan, oracle) in [(kill_plan(), single), (twice, double)] {
            for workers in [2, 8] {
                let run = chaos_run(workers, shards, Some(&plan));
                assert_eq!(
                    run.health_log, oracle.health_log,
                    "health checkpoints diverged at {workers} workers x {shards} shards"
                );
                assert_eq!(
                    run.shard_batches, oracle.shard_batches,
                    "batch formation diverged at {workers} workers x {shards} shards"
                );
                assert_eq!(
                    run, oracle,
                    "chaos trace diverged at {workers} workers x {shards} shards"
                );
            }
        }
    }
}

/// Contract 2: every admitted id is answered terminally, exactly once —
/// including every request on the killed shard.
#[test]
fn every_admitted_request_is_answered_terminally_exactly_once() {
    for shards in [2, 4] {
        let trace = chaos_run(2, shards, Some(&kill_plan()));
        let mut admitted: Vec<u64> = trace
            .admissions
            .iter()
            .filter_map(|a| a.as_ref().ok().copied())
            .collect();
        admitted.sort_unstable();
        let mut answered: Vec<u64> = trace.responses.iter().map(|r| r.request_id).collect();
        answered.sort_unstable();
        assert_eq!(
            answered, admitted,
            "{shards} shards: every admitted id answered exactly once"
        );
        for r in &trace.responses {
            assert!(
                matches!(
                    r.disposition,
                    Disposition::Completed { .. }
                        | Disposition::Expired { .. }
                        | Disposition::Failed { .. }
                ),
                "request {} left non-terminal: {r}",
                r.request_id
            );
        }
    }
}

/// The script actually exercises the self-healing path end to end: the
/// kill fails requests, failovers land, the restart happens after the
/// backoff (not before), and the victim walks back up to Healthy and
/// serves again.
#[test]
fn the_script_kills_fails_over_restarts_and_readmits() {
    for shards in [2, 4] {
        let trace = chaos_run(2, shards, Some(&kill_plan()));
        let failed = trace
            .responses
            .iter()
            .filter(|r| matches!(r.disposition, Disposition::Failed { .. }))
            .count() as u64;
        assert!(failed > 0, "{shards} shards: the kill fails requests");
        assert_eq!(
            trace.shard_stats.iter().map(|s| s.failed).sum::<u64>(),
            failed,
            "{shards} shards: failure tallies match the responses"
        );
        assert!(
            trace.failovers > 0,
            "{shards} shards: down-shard traffic fails over"
        );
        assert_eq!(trace.restarts, 1, "{shards} shards: exactly one restart");

        // health checkpoints: Down after the kill, still Down at t=100
        // (backoff not elapsed), Recovering right after the restart,
        // Healthy by the end of the re-admission rounds
        assert_eq!(trace.health_log[0][VICTIM], ShardHealth::Down);
        assert_eq!(trace.health_log[1][VICTIM], ShardHealth::Down);
        assert_eq!(trace.health_log[2][VICTIM], ShardHealth::Recovering);
        assert_eq!(
            *trace.health_log.last().unwrap(),
            vec![ShardHealth::Healthy; shards],
            "{shards} shards: every shard ends Healthy"
        );

        // re-admission: the victim completes requests after its restart
        assert!(
            trace.shard_stats[VICTIM].completed > 0,
            "{shards} shards: the restarted victim serves again"
        );
    }
}

/// Contract 3: while the victim is down, every rerouted request lands
/// exactly where [`route_failover`] says; everything else stays on its
/// primary.
#[test]
fn failovers_follow_the_routing_rule() {
    for shards in [2, 4] {
        let trace = chaos_run(1, shards, Some(&kill_plan()));
        let mask: Vec<bool> = (0..shards).map(|s| s != VICTIM).collect();

        // shard of record for each id, from the batch logs
        let mut served_on: BTreeMap<u64, usize> = BTreeMap::new();
        for (s, log) in trace.shard_batches.iter().enumerate() {
            for batch in log {
                for &id in &batch.request_ids {
                    assert!(
                        served_on.insert(id, s).is_none(),
                        "{shards} shards: id {id} batched twice"
                    );
                }
            }
        }

        // phase-2 ids (admissions 24..36) were submitted while the
        // victim was down
        let mut rerouted = 0u64;
        for id in 24..36u64 {
            let primary = route_request(id, shards);
            let expected = if primary == VICTIM {
                route_failover(id, &mask).expect("live shards remain")
            } else {
                primary
            };
            assert_eq!(
                served_on.get(&id),
                Some(&expected),
                "{shards} shards: id {id} served off the failover rule"
            );
            if primary == VICTIM {
                rerouted += 1;
            }
        }
        assert_eq!(
            trace.failovers, rerouted,
            "{shards} shards: the failover tally counts exactly the rerouted ids"
        );
    }
}

/// Contract 4: a run armed with the empty plan is bit-identical to a
/// run with no plan installed at all — chaos instrumentation is free
/// when unused.
#[test]
fn the_default_plan_is_bit_identical_to_no_plan() {
    let empty = ServeFaultPlan::default();
    for (workers, shards) in [(1, 2), (2, 4)] {
        let armed = chaos_run(workers, shards, Some(&empty));
        let bare = chaos_run(workers, shards, None);
        assert_eq!(
            armed, bare,
            "empty plan diverged from no plan at {workers} workers x {shards} shards"
        );
        assert_eq!(armed.failovers, 0, "no faults, no failovers");
        assert_eq!(armed.restarts, 0, "no faults, no restarts");
        assert!(
            armed
                .responses
                .iter()
                .all(|r| matches!(r.disposition, Disposition::Completed { .. })),
            "no faults: everything completes"
        );
    }
}

/// Contract 5: the victim's ring, summarized by `obsctl`, counts the
/// kill and the restart once each. The restart's `shard_recovered`
/// fires between batches, outside every span, so a tally that counted
/// only span-attached events would miss it.
#[test]
fn summary_tallies_the_victims_shard_down_and_shard_recovered() {
    let (observers, rings): (Vec<FarmObserver>, Vec<_>) =
        (0..2).map(|_| FarmObserver::deterministic(1 << 14)).unzip();
    let trace = observed_chaos_run(1, 2, Some(&kill_plan()), observers);
    assert_eq!(trace.restarts, 1, "the script restarts the victim once");
    assert_eq!(rings[VICTIM].dropped(), 0, "the ring holds the whole run");

    let path = std::env::temp_dir().join(format!(
        "serve-failover-victim-{}.ndjson",
        std::process::id()
    ));
    std::fs::write(&path, rings[VICTIM].to_ndjson()).expect("write the victim's ring");
    let summary = canti_obsctl::summary(&path).expect("the victim's ring is a healthy artifact");
    let json = canti_obsctl::summary_json(&path).expect("the same gates pass in --json mode");
    let _ = std::fs::remove_file(&path);

    assert!(summary.contains("  shard_down           1\n"), "{summary}");
    assert!(summary.contains("  shard_recovered      1\n"), "{summary}");
    assert!(
        json.contains("{\"record\":\"shard\",\"name\":\"shard_down\",\"count\":1}"),
        "{json}"
    );
    assert!(
        json.contains("{\"record\":\"shard\",\"name\":\"shard_recovered\",\"count\":1}"),
        "{json}"
    );
}

/// The threaded layer under the same fault plan, watchdog-asserted:
/// every ticket resolves terminally within the timeout even while the
/// victim shard is down, failed-over traffic completes, and the
/// supervisor brings the victim back.
#[test]
fn threaded_sharded_service_answers_every_ticket_under_chaos() {
    use std::sync::mpsc;
    use std::time::Duration;

    let shards = 2;
    let observers: Vec<FarmObserver> = (0..shards)
        .map(|_| FarmObserver::profiling(256).0)
        .collect();
    let service = Arc::new(ShardedService::start_chaos(
        ShardedConfig {
            shards,
            base: ServeConfig {
                max_batch: 2,
                linger_ns: 1_000, // 1 µs: lone requests fire quickly
                threads: 1,
                ..ServeConfig::default()
            },
        },
        observers,
        &ServeFaultPlan::kill_shard(VICTIM, 0),
        SupervisorConfig {
            backoff_base_ns: 50_000_000, // 50 ms
        },
    ));

    // watchdog: a waiter thread funnels every response through a
    // channel; recv_timeout turns a hung ticket into a test failure
    // instead of a wedged run
    let wait_all = |tickets: Vec<canti::serve::ShardTicket>| -> Vec<ServeResponse> {
        let (tx, rx) = mpsc::channel();
        let n = tickets.len();
        std::thread::spawn(move || {
            for t in tickets {
                let _ = tx.send(t.wait());
            }
        });
        (0..n)
            .map(|i| {
                rx.recv_timeout(Duration::from_secs(30))
                    .unwrap_or_else(|_| panic!("ticket {i} hung: a response never arrived"))
            })
            .collect()
    };

    // wave 1: enough traffic that the victim forms (and loses) a batch
    let wave1: Vec<_> = (0..16)
        .map(|i| service.submit(probe(i)).expect("admitted"))
        .collect();
    let responses = wave_summary(wait_all(wave1));
    assert!(responses.failed > 0, "the kill fails wave-1 requests");
    assert_eq!(
        responses.failed + responses.completed,
        16,
        "wave 1 answered terminally"
    );

    // wave 2: submit until a failover lands (the victim may already
    // have revived if the backoff raced; tolerate ShardFailed from the
    // submit race)
    let mut wave2 = Vec::new();
    for i in 16..16 + 64 {
        match service.submit(probe(i)) {
            Ok(t) => wave2.push(t),
            Err(RejectReason::ShardFailed) => {}
            Err(e) => panic!("unexpected rejection: {e:?}"),
        }
        if service.failovers() > 0 {
            break;
        }
    }
    let responses = wave_summary(wait_all(wave2));
    assert_eq!(responses.expired, 0, "no deadline in play, nothing expires");

    // the supervisor must bring the victim back
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !service.healths()[VICTIM].is_live() {
        assert!(
            std::time::Instant::now() < deadline,
            "victim never restarted; healths {:?}",
            service.healths()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(service.restarts() >= 1);

    // wave 3: after the restart everything completes again
    let wave3: Vec<_> = (1_000..1_016)
        .map(|i| service.submit(probe(i)).expect("admitted"))
        .collect();
    let responses = wave_summary(wait_all(wave3));
    assert_eq!(responses.completed, 16, "post-restart traffic completes");

    let per_shard = Arc::try_unwrap(service)
        .expect("all waiters joined")
        .shutdown();
    assert_eq!(per_shard.len(), shards);
}

struct WaveSummary {
    completed: u64,
    failed: u64,
    expired: u64,
}

fn wave_summary(responses: Vec<ServeResponse>) -> WaveSummary {
    let mut s = WaveSummary {
        completed: 0,
        failed: 0,
        expired: 0,
    };
    for r in responses {
        match r.disposition {
            Disposition::Completed { .. } | Disposition::CacheHit { .. } => s.completed += 1,
            Disposition::Failed { .. } => s.failed += 1,
            Disposition::Expired { .. } => s.expired += 1,
        }
    }
    s
}
