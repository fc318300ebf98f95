//! The sharded serving layer's determinism contract, pinned the same way
//! `serve_determinism.rs` pins the single-queue engine.
//!
//! The contract has two scopes:
//!
//! 1. **Across worker counts, at a fixed shard count** — the *whole*
//!    trace (admissions, responses in emission order, per-shard batch
//!    logs, per-shard stats) is bit-identical at 1/2/8 farm workers.
//! 2. **Across shard counts** — re-partitioning the queues legitimately
//!    changes batch membership and indices, but per-request payload bits
//!    (seeds derive from the global id, not the batch slot), the routing
//!    assignment, scripted deadline expiries and the admission stream
//!    itself are invariant at 1/2/4 shards.

use std::collections::BTreeMap;
use std::sync::Arc;

use canti::farm::{dose_response_sweep, process_variation_batch, JobOutput, JobSpec, ProbeMode};
use canti::obs::{ObsClock, VirtualClock};
use canti::serve::{
    route_request, BatchRecord, BatchTrigger, Disposition, RejectReason, ServeConfig,
    ServeResponse, ServeStats, ShardedConfig, ShardedEngine,
};

const SHARD_GRID: [usize; 3] = [1, 2, 4];

/// One step of the arrival script. The same step sequence drives every
/// shard count, so their traces are comparable.
enum Step {
    Submit(JobSpec),
    SubmitDeadline(JobSpec, u64),
    Pump,
    AdvanceNs(u64),
    SetNs(u64),
    Drain,
}

/// The fixed arrival script, over real simulation jobs. It deliberately
/// avoids queue-capacity pressure (capacity 64 vs 13 submissions) so
/// every admission outcome is shard-count-independent, and it flushes
/// all queues by linger before the scripted expiry so the expiry is a
/// lone request in an empty shard at any shard count.
fn script() -> Vec<Step> {
    let concentrations: Vec<f64> = (0..6)
        .map(|i| 0.5 * 10f64.powf(0.4 * f64::from(i)))
        .collect();
    let mut jobs = dose_response_sweep(&concentrations);
    jobs.extend(process_variation_batch(4, 0.05));
    assert_eq!(jobs.len(), 10);

    let mut steps = Vec::new();
    // Burst of 6 at t=0: two size batches at one shard, partial queues
    // at higher shard counts.
    for job in &jobs[0..6] {
        steps.push(Step::Submit(job.clone()));
    }
    steps.push(Step::Pump);
    // Second burst at t=100.
    steps.push(Step::AdvanceNs(100));
    for job in &jobs[6..10] {
        steps.push(Step::Submit(job.clone()));
    }
    steps.push(Step::Pump);
    // t=1200: every queued survivor has waited >= 1100 > linger, so this
    // pump drains every shard's queue regardless of shard count.
    steps.push(Step::SetNs(1_200));
    steps.push(Step::Pump);
    // Scripted expiry: alone in its (empty) shard, deadline 200 shorter
    // than the 1000 ns linger — it must expire, never batch, at any
    // shard count.
    steps.push(Step::SubmitDeadline(
        JobSpec::Probe(ProbeMode::Draws(3)),
        200,
    ));
    steps.push(Step::AdvanceNs(250));
    steps.push(Step::Pump);
    // Two stragglers flushed by the shutdown drain, then a post-drain
    // refusal.
    steps.push(Step::Submit(jobs[0].clone()));
    steps.push(Step::Submit(jobs[1].clone()));
    steps.push(Step::Drain);
    steps.push(Step::Submit(JobSpec::Probe(ProbeMode::Value(1.0))));
    steps
}

fn config(workers: usize) -> ServeConfig {
    ServeConfig {
        queue_capacity: 64,
        max_batch: 3,
        linger_ns: 1_000,
        batch_seed: 0x5AAD_D15C,
        threads: workers,
        slo: Default::default(),
        timeline: Default::default(),
        cache: None,
    }
}

/// Everything observable about one scripted sharded run.
#[derive(Debug, PartialEq)]
struct ShardTrace {
    admissions: Vec<Result<u64, RejectReason>>,
    responses: Vec<ServeResponse>,
    shard_batches: Vec<Vec<BatchRecord>>,
    shard_stats: Vec<ServeStats>,
}

fn sharded_run(workers: usize, shards: usize) -> ShardTrace {
    let clock = Arc::new(VirtualClock::new());
    let mut engine = ShardedEngine::new(
        ShardedConfig {
            shards,
            base: config(workers),
        },
        Arc::clone(&clock) as Arc<dyn ObsClock>,
    );
    let mut trace = ShardTrace {
        admissions: Vec::new(),
        responses: Vec::new(),
        shard_batches: Vec::new(),
        shard_stats: Vec::new(),
    };
    for step in script() {
        match step {
            Step::Submit(job) => trace.admissions.push(engine.submit(job)),
            Step::SubmitDeadline(job, d) => {
                trace.admissions.push(engine.submit_with_deadline(job, d));
            }
            Step::Pump => trace.responses.extend(engine.pump()),
            Step::AdvanceNs(ns) => clock.advance_ns(ns),
            Step::SetNs(ns) => clock.set_ns(ns),
            Step::Drain => trace.responses.extend(engine.drain()),
        }
    }
    trace.shard_batches = (0..engine.shard_count())
        .map(|s| engine.batch_log(s))
        .collect();
    trace.shard_stats = engine.shard_stats();
    trace
}

/// A request's payload: the job kind and every metric as raw `f64` bits.
type Payload = (&'static str, Vec<(&'static str, u64)>);

/// Global id → farm payload, for the cross-shard-count comparison. The
/// batch-relative coordinates (`JobOutput::job_index`, the response's
/// batch index and latency) are *not* payload — re-partitioning the
/// queues legitimately moves a request to a different batch slot.
fn payload_view(trace: &ShardTrace) -> BTreeMap<u64, Payload> {
    trace
        .responses
        .iter()
        .filter_map(|r| match &r.disposition {
            Disposition::Completed { result, .. } | Disposition::CacheHit { result, .. } => {
                let out: &JobOutput = result.as_ref().expect("scripted jobs all succeed");
                let bits = out.metrics.iter().map(|&(n, v)| (n, v.to_bits())).collect();
                Some((r.request_id, (out.kind, bits)))
            }
            Disposition::Expired { .. } | Disposition::Failed { .. } => None,
        })
        .collect()
}

/// Global id → (waited, absolute deadline) for every expiry.
fn expiry_view(trace: &ShardTrace) -> BTreeMap<u64, (u64, u64)> {
    trace
        .responses
        .iter()
        .filter_map(|r| match r.disposition {
            Disposition::Expired {
                waited_ns,
                deadline_ns,
            } => Some((r.request_id, (waited_ns, deadline_ns))),
            Disposition::Completed { .. }
            | Disposition::CacheHit { .. }
            | Disposition::Failed { .. } => None,
        })
        .collect()
}

/// Contract scope 1: at every shard count, the whole trace is
/// bit-identical across farm worker counts.
#[test]
fn scripted_traces_are_bit_identical_across_worker_counts_at_every_shard_count() {
    for shards in SHARD_GRID {
        let oracle = sharded_run(1, shards);
        for workers in [2, 8] {
            let run = sharded_run(workers, shards);
            assert_eq!(
                run.shard_batches, oracle.shard_batches,
                "batch formation diverged at {workers} workers x {shards} shards"
            );
            assert_eq!(
                run, oracle,
                "sharded trace diverged at {workers} workers x {shards} shards"
            );
        }
    }
}

/// Global id → trace id for every response. Trace ids derive from the
/// global admission id alone, so this view must be invariant across
/// shard counts (unlike batch membership).
fn trace_view(trace: &ShardTrace) -> BTreeMap<u64, u64> {
    trace
        .responses
        .iter()
        .map(|r| (r.request_id, r.trace))
        .collect()
}

/// Contract scope 2: across shard counts, the admission stream, every
/// request's payload bits, its trace id and the scripted expiry are
/// invariant.
#[test]
fn payloads_expiries_and_admissions_are_shard_count_invariant() {
    let oracle = sharded_run(1, 1);
    assert_eq!(payload_view(&oracle).len(), 12, "12 completed requests");
    assert_eq!(expiry_view(&oracle).len(), 1, "1 scripted expiry");
    for (&id, &trace) in &trace_view(&oracle) {
        assert_eq!(trace, canti::obs::trace_id(id), "foreign trace id");
    }
    for shards in [2, 4] {
        let run = sharded_run(1, shards);
        assert_eq!(
            run.admissions, oracle.admissions,
            "admission stream diverged at {shards} shards"
        );
        assert_eq!(
            payload_view(&run),
            payload_view(&oracle),
            "per-request payload bits diverged at {shards} shards"
        );
        assert_eq!(
            trace_view(&run),
            trace_view(&oracle),
            "trace ids diverged at {shards} shards"
        );
        assert_eq!(
            expiry_view(&run),
            expiry_view(&oracle),
            "expiry decisions diverged at {shards} shards"
        );
    }
}

/// Every batched request sits on exactly the shard the routing rule
/// names, and the batch logs cover exactly the completed requests.
#[test]
fn batch_logs_respect_the_routing_rule_and_cover_every_completed_request() {
    for shards in SHARD_GRID {
        let trace = sharded_run(2, shards);
        let mut logged = Vec::new();
        for (s, log) in trace.shard_batches.iter().enumerate() {
            for batch in log {
                for &id in &batch.request_ids {
                    assert_eq!(
                        route_request(id, shards),
                        s,
                        "request {id} logged on the wrong shard ({shards} shards)"
                    );
                    logged.push(id);
                }
            }
        }
        logged.sort_unstable();
        let mut completed: Vec<u64> = trace
            .responses
            .iter()
            .filter(|r| matches!(r.disposition, Disposition::Completed { .. }))
            .map(|r| r.request_id)
            .collect();
        completed.sort_unstable();
        assert_eq!(logged, completed, "{shards} shards");
    }
}

/// The script really exercises the contract's edges: one expiry with the
/// scripted timings, one post-drain refusal, and (at one shard) the
/// full trigger progression size → linger → drain.
#[test]
fn the_script_covers_expiry_drain_refusal_and_every_trigger() {
    let trace = sharded_run(2, 1);

    let rejections: Vec<&RejectReason> = trace
        .admissions
        .iter()
        .filter_map(|a| a.as_ref().err())
        .collect();
    assert_eq!(
        rejections,
        vec![&RejectReason::Draining],
        "exactly one post-drain refusal"
    );

    let expiries = expiry_view(&trace);
    assert_eq!(expiries.len(), 1);
    let (&id, &(waited_ns, deadline_ns)) = expiries.iter().next().unwrap();
    assert_eq!(id, 10, "the deadline probe is the 11th admission");
    assert_eq!(
        deadline_ns, 1_400,
        "admitted at t=1200 with a 200 ns deadline"
    );
    assert_eq!(waited_ns, 250, "pumped at t=1450");

    let triggers: Vec<BatchTrigger> = trace.shard_batches[0].iter().map(|b| b.trigger).collect();
    assert_eq!(
        triggers,
        vec![
            BatchTrigger::Size,
            BatchTrigger::Size,
            BatchTrigger::Size,
            BatchTrigger::Linger,
            BatchTrigger::Drain,
        ]
    );

    let stats = &trace.shard_stats[0];
    assert_eq!(
        stats,
        &ServeStats {
            admitted: 13,
            rejected: 1,
            expired: 1,
            completed: 12,
            failed: 0,
            shed: 0,
            batches: 5,
            cache_hits: 0,
            coalesced: 0,
        }
    );
}
