//! Chaos regression suite: the fault-injection and recovery layer is
//! deterministic and strictly additive.
//!
//! Three contracts are pinned here:
//!
//! 1. a chaos batch (fault-injected instruments with resilient
//!    per-channel recovery, plus flaky probes) is bit-identical at 1/2/8
//!    workers,
//! 2. an instrument carrying an **empty** fault plan produces the same
//!    output bits and the same trace byte stream as one carrying no
//!    injector at all — the injection seam is free when unused,
//! 3. the chaos batch partitioned by the serve routing rule stays
//!    bit-identical per shard across the (workers × shards) grid.

use std::sync::Arc;

use canti::farm::{chaos_scan_batch, Farm, FarmConfig, JobSpec, ProbeMode, WorkerPool};
use canti::fault::{FaultPlan, PlannedInjector};
use canti::obs::clock::VirtualClock;
use canti::obs::trace::RingCollector;
use canti::obs::Tracer;
use canti::serve::route_request;
use canti::system::autonomous::AutonomousInstrument;
use canti::system::chip::BiosensorChip;
use canti::system::static_system::{StaticCantileverSystem, StaticReadoutConfig, CHANNELS};
use canti::units::SurfaceStress;

fn chaos_jobs() -> Vec<JobSpec> {
    let mut jobs = chaos_scan_batch(2, 0xC4A0, 4);
    jobs.extend((0..6).map(|_| JobSpec::Probe(ProbeMode::Flaky { p_fail: 0.5 })));
    jobs
}

fn farm(threads: usize) -> Farm {
    Farm::new(FarmConfig {
        batch_seed: 0xC4A0_5EED,
        threads,
    })
}

/// Same seed ⇒ bit-identical degraded reports at any worker count.
#[test]
fn chaos_batch_is_worker_count_invariant() {
    let jobs = chaos_jobs();
    let oracle = farm(1).run(&jobs);
    assert_eq!(oracle.outcomes.len(), jobs.len(), "every job gets a slot");
    // the chaos scans must actually have been stressed: with four fault
    // events per plan, at least one channel across the batch degrades
    let degraded: f64 = oracle
        .metric_values("channels_retried")
        .iter()
        .chain(oracle.metric_values("channels_quarantined").iter())
        .sum();
    assert!(
        degraded > 0.0,
        "fault plans must degrade something: {}",
        oracle.render()
    );

    for threads in [2, 8] {
        assert_eq!(
            farm(threads).run(&jobs),
            oracle,
            "chaos report diverged at {threads} threads"
        );
    }
}

/// An empty fault plan is indistinguishable from no injector: same
/// output bits, same trace bytes.
#[test]
fn empty_fault_plan_is_byte_identical_to_no_injector() {
    let run = |injector: bool| {
        let system = StaticCantileverSystem::new(
            BiosensorChip::paper_static_chip().unwrap(),
            StaticReadoutConfig::default(),
        )
        .unwrap();
        let mut instrument = AutonomousInstrument::new(system).unwrap();
        if injector {
            instrument.set_fault_injector(Box::new(PlannedInjector::new(FaultPlan::empty())));
        }
        let ring = Arc::new(RingCollector::new(4096));
        let tracer = Tracer::new(Arc::clone(&ring), Arc::new(VirtualClock::new()));
        instrument.set_tracer(tracer);
        instrument.power_on().unwrap();
        let mut sigmas = [SurfaceStress::zero(); CHANNELS];
        sigmas[1] = SurfaceStress::from_millinewtons_per_meter(3.0);
        let a = instrument
            .run_scan([SurfaceStress::zero(); CHANNELS], 400)
            .unwrap();
        let b = instrument.run_scan(sigmas, 400).unwrap();
        (a, b, ring.to_ndjson())
    };

    let (base_a, base_b, base_trace) = run(false);
    let (inj_a, inj_b, inj_trace) = run(true);
    for ch in 0..CHANNELS {
        assert_eq!(
            base_a.outputs[ch].value().to_bits(),
            inj_a.outputs[ch].value().to_bits(),
            "baseline scan bit-diverged on channel {ch}"
        );
        assert_eq!(
            base_b.outputs[ch].value().to_bits(),
            inj_b.outputs[ch].value().to_bits(),
            "loaded scan bit-diverged on channel {ch}"
        );
    }
    assert_eq!(base_a.status, inj_a.status);
    assert_eq!(base_b.status, inj_b.status);
    assert_eq!(
        base_trace, inj_trace,
        "an idle injector must leave the trace byte stream untouched"
    );
}

/// The chaos batch partitioned by the serve routing rule into
/// independent per-shard farms — each riding a persistent worker pool —
/// keeps every shard's degraded report bit-identical at 1/2/8 workers ×
/// 1/2/4 shards.
#[test]
fn sharded_chaos_batches_are_bit_identical_across_workers_and_shards() {
    let jobs = chaos_jobs();
    for shards in [1usize, 2, 4] {
        // deterministic partition of the batch by global job id, exactly
        // the serve layer's routing rule
        let parts: Vec<Vec<JobSpec>> = (0..shards)
            .map(|s| {
                jobs.iter()
                    .enumerate()
                    .filter(|&(i, _)| route_request(i as u64, shards) == s)
                    .map(|(_, job)| job.clone())
                    .collect()
            })
            .collect();
        assert_eq!(
            parts.iter().map(Vec::len).sum::<usize>(),
            jobs.len(),
            "the partition covers every job exactly once"
        );

        // oracle: every shard's farm at 1 worker on the sequential path
        let oracle: Vec<_> = parts.iter().map(|part| farm(1).run(part)).collect();

        for workers in [1usize, 2, 8] {
            for (s, part) in parts.iter().enumerate() {
                let pool = Arc::new(WorkerPool::new(workers));
                assert_eq!(
                    farm(workers).with_pool(pool).run(part),
                    oracle[s],
                    "shard {s}/{shards}: chaos report diverged at {workers} workers"
                );
            }
        }
    }
}
