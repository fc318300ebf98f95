//! The serving layer's determinism contract, pinned end to end the same
//! way `farm_determinism.rs` pins the farm: a scripted arrival sequence
//! on a virtual clock must produce bit-identical batch formation
//! (membership, trigger, seed), bit-identical response payloads, and
//! identical rejection/expiry decisions at any farm worker count.

use std::sync::Arc;

use canti::farm::{dose_response_sweep, process_variation_batch, JobSpec, ProbeMode};
use canti::obs::{ObsClock, VirtualClock};
use canti::serve::{
    BatchRecord, BatchTrigger, Disposition, RejectReason, ServeConfig, ServeResponse, ServeStats,
    ShardedConfig, ShardedEngine,
};

/// Everything observable about one scripted run.
#[derive(Debug, PartialEq)]
struct RunTrace {
    admissions: Vec<Result<u64, RejectReason>>,
    responses: Vec<ServeResponse>,
    batches: Vec<BatchRecord>,
    stats: ServeStats,
}

/// A fixed arrival script over real simulation jobs, exercising every
/// admission outcome: size-triggered batches, a linger-triggered partial
/// batch, a full-queue rejection, an expired deadline, and a drain flush.
fn scripted_run(threads: usize) -> RunTrace {
    let clock = Arc::new(VirtualClock::new());
    let mut engine = ShardedEngine::new(
        ShardedConfig {
            shards: 1,
            base: ServeConfig {
                queue_capacity: 4,
                max_batch: 3,
                linger_ns: 1_000,
                batch_seed: 0x5E4E_D15C,
                threads,
                slo: Default::default(),
                timeline: Default::default(),
                cache: None,
            },
        },
        Arc::clone(&clock) as Arc<dyn ObsClock>,
    );

    let concentrations: Vec<f64> = (0..6)
        .map(|i| 0.5 * 10f64.powf(0.4 * f64::from(i)))
        .collect();
    let mut jobs = dose_response_sweep(&concentrations);
    jobs.extend(process_variation_batch(4, 0.05));

    let mut trace = RunTrace {
        admissions: Vec::new(),
        responses: Vec::new(),
        batches: Vec::new(),
        stats: ServeStats::default(),
    };

    // Burst of 3 at t=0: hits the size threshold on the first pump.
    for job in &jobs[0..3] {
        trace.admissions.push(engine.submit(job.clone()));
    }
    trace.responses.extend(engine.pump());

    // Overfill at t=100: capacity is 4, so the 5th submission of this
    // burst must be rejected with QueueFull.
    clock.advance_ns(100);
    for job in &jobs[3..8] {
        trace.admissions.push(engine.submit(job.clone()));
    }
    trace.responses.extend(engine.pump()); // size batch of 3, one left queued

    // A deadline shorter than the linger: the request must expire in the
    // queue, never reaching a batch.
    clock.advance_ns(50);
    trace
        .admissions
        .push(engine.submit_with_deadline(JobSpec::Probe(ProbeMode::Draws(3)), 200));
    clock.advance_ns(200);
    trace.responses.extend(engine.pump());

    // Let the survivor of the overfill burst linger out into a partial
    // batch (it arrived at t=100; linger fires at t=1100).
    clock.set_ns(1_100);
    trace.responses.extend(engine.pump());

    // Two stragglers flushed by the shutdown drain.
    trace.admissions.push(engine.submit(jobs[8].clone()));
    trace.admissions.push(engine.submit(jobs[9].clone()));
    trace.responses.extend(engine.drain());

    // Post-drain submissions are refused.
    trace
        .admissions
        .push(engine.submit(JobSpec::Probe(ProbeMode::Value(1.0))));

    trace.batches = engine.batch_log(0);
    trace.stats = engine.stats();
    trace
}

/// The tentpole contract: the whole trace — admissions, rejections,
/// expiries, batch log and every response payload (`f64`s compare
/// bitwise) — is identical at 1, 2 and 8 farm workers.
#[test]
fn scripted_arrivals_are_bit_identical_across_worker_counts() {
    let oracle = scripted_run(1);
    for threads in [2, 8] {
        let run = scripted_run(threads);
        assert_eq!(
            run.batches, oracle.batches,
            "batch formation diverged at {threads} workers"
        );
        assert_eq!(run, oracle, "serve trace diverged at {threads} workers");
    }
}

/// Trace ids and latency breakdowns are part of the contract: every
/// response carries `trace_id(request_id)`, and a completed response's
/// phases tile its latency exactly. (Being fields of [`ServeResponse`],
/// both are also covered by the bit-identity assertion above.)
#[test]
fn responses_carry_trace_ids_and_tiling_breakdowns() {
    let trace = scripted_run(2);
    assert!(!trace.responses.is_empty());
    for r in &trace.responses {
        assert_eq!(
            r.trace,
            canti::obs::trace_id(r.request_id),
            "request {} carries a foreign trace id",
            r.request_id
        );
        if let Disposition::Completed {
            latency_ns,
            breakdown,
            ..
        } = &r.disposition
        {
            assert_eq!(
                breakdown.total_ns(),
                *latency_ns,
                "request {}: phases must sum to the latency",
                r.request_id
            );
        }
    }
}

/// The script really exercises the contract's edge cases — one
/// full-queue rejection, one expired deadline, one post-drain refusal —
/// and the batch log shows all three triggers.
#[test]
fn script_covers_rejection_expiry_and_every_trigger() {
    let trace = scripted_run(2);

    let rejections: Vec<&RejectReason> = trace
        .admissions
        .iter()
        .filter_map(|a| a.as_ref().err())
        .collect();
    assert_eq!(
        rejections,
        vec![
            &RejectReason::QueueFull { capacity: 4 },
            &RejectReason::Draining
        ],
        "expected exactly one overfill rejection and one post-drain refusal"
    );

    let expired: Vec<&ServeResponse> = trace
        .responses
        .iter()
        .filter(|r| matches!(r.disposition, Disposition::Expired { .. }))
        .collect();
    assert_eq!(expired.len(), 1, "exactly one deadline expiry");
    assert!(matches!(
        expired[0].disposition,
        Disposition::Expired {
            waited_ns: 200,
            deadline_ns: 350,
        }
    ));

    let triggers: Vec<BatchTrigger> = trace.batches.iter().map(|b| b.trigger).collect();
    assert_eq!(
        triggers,
        vec![
            BatchTrigger::Size,
            BatchTrigger::Size,
            BatchTrigger::Linger,
            BatchTrigger::Drain,
        ]
    );

    // Every admitted-and-not-expired request completed with a payload.
    let completed = trace
        .responses
        .iter()
        .filter(|r| matches!(r.disposition, Disposition::Completed { .. }))
        .count();
    assert_eq!(trace.stats.completed as usize, completed);
    assert_eq!(
        trace.stats,
        ServeStats {
            admitted: 10,
            rejected: 2,
            expired: 1,
            completed: 9,
            failed: 0,
            shed: 0,
            batches: 4,
            cache_hits: 0,
            coalesced: 0,
        }
    );
}

/// Batch seeds derive from the configured base and the batch index, so
/// replaying the same script with a different base seed changes payloads
/// (the farm actually consumes the seed) while batch *shape* is
/// unchanged.
#[test]
fn batch_seed_feeds_the_farm_but_not_the_shape() {
    let run = |seed: u64| -> (Vec<BatchRecord>, Vec<ServeResponse>) {
        let clock = Arc::new(VirtualClock::new());
        let mut engine = ShardedEngine::new(
            ShardedConfig {
                shards: 1,
                base: ServeConfig {
                    max_batch: 4,
                    batch_seed: seed,
                    threads: 2,
                    ..ServeConfig::default()
                },
            },
            Arc::clone(&clock) as Arc<dyn ObsClock>,
        );
        for d in 1..=4usize {
            engine.submit(JobSpec::Probe(ProbeMode::Draws(d))).unwrap();
        }
        let responses = engine.pump();
        (engine.batch_log(0), responses)
    };
    let (shape_a, payload_a) = run(1);
    let (shape_b, payload_b) = run(2);
    assert_eq!(
        shape_a
            .iter()
            .map(|b| b.request_ids.clone())
            .collect::<Vec<_>>(),
        shape_b
            .iter()
            .map(|b| b.request_ids.clone())
            .collect::<Vec<_>>(),
        "membership must not depend on the seed"
    );
    assert_ne!(shape_a[0].seed, shape_b[0].seed);
    assert_ne!(
        payload_a, payload_b,
        "the farm must actually consume the batch seed"
    );
}
