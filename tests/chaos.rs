//! Chaos regression suite: the fault-injection and recovery layer is
//! deterministic and strictly additive.
//!
//! Three contracts are pinned here:
//!
//! 1. a supervised chaos batch (fault-injected instruments + flaky
//!    probes, retries, breaker) is bit-identical at 1/2/8 workers,
//! 2. an instrument carrying an **empty** fault plan produces the same
//!    output bits and the same trace byte stream as one carrying no
//!    injector at all — the injection seam is free when unused,
//! 3. the circuit breaker trips and recovers on exactly the same jobs
//!    regardless of worker count, including across batches.

use std::sync::Arc;

use canti::farm::{
    chaos_scan_batch, Farm, FarmConfig, FarmError, FarmSupervisor, JobSpec, ProbeMode,
    SupervisorConfig, WorkerPool,
};
use canti::fault::{FaultPlan, PlannedInjector};
use canti::obs::clock::VirtualClock;
use canti::obs::trace::{Collector, RingCollector};
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

fn supervisor(threads: usize, config: SupervisorConfig) -> FarmSupervisor {
    FarmSupervisor::new(
        Farm::new(FarmConfig {
            batch_seed: 0xC4A0_5EED,
            threads,
        }),
        config,
    )
}

/// Same seed ⇒ bit-identical degraded reports at any worker count.
#[test]
fn supervised_chaos_batch_is_worker_count_invariant() {
    let jobs = chaos_jobs();
    let config = SupervisorConfig {
        max_attempts: 3,
        ..SupervisorConfig::default()
    };
    let oracle = supervisor(1, config).run(&jobs);
    assert_eq!(
        oracle.report.outcomes.len(),
        jobs.len(),
        "every job gets a slot"
    );
    // the chaos scans must actually have been stressed: with four fault
    // events per plan, at least one channel across the batch degrades
    let degraded: f64 = oracle
        .report
        .metric_values("channels_retried")
        .iter()
        .chain(oracle.report.metric_values("channels_quarantined").iter())
        .sum();
    assert!(
        degraded > 0.0,
        "fault plans must degrade something: {}",
        oracle.report.render()
    );

    for threads in [2, 8] {
        let run = supervisor(threads, config).run(&jobs);
        assert_eq!(
            run, oracle,
            "supervised chaos report diverged at {threads} threads"
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
        let tracer = Tracer::new(
            Arc::clone(&ring) as Arc<dyn Collector>,
            Arc::new(VirtualClock::new()),
        );
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

/// Sharded supervision across the full (workers × shards) grid: the
/// chaos batch partitioned by the serve routing rule into independent
/// per-shard supervisors — each riding a persistent worker pool — keeps
/// every shard's retry waves, degraded report and breaker walk
/// bit-identical at 1/2/8 workers × 1/2/4 shards, including breaker
/// state carried across a second supervised batch on the same shard.
#[test]
fn sharded_supervision_is_bit_identical_across_workers_and_shards() {
    let jobs = chaos_jobs();
    let config = SupervisorConfig {
        max_attempts: 3,
        breaker_threshold: 2,
        breaker_cooldown: 2,
        job_deadline_ns: None,
    };
    // the follow-up batch each shard-supervisor runs after the chaos
    // batch, so breaker/cooldown carry-over is inside the grid too
    let followup = vec![JobSpec::Probe(ProbeMode::Value(2.0)); 3];

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

        // oracle: every shard supervised at 1 worker on the sequential path
        let oracle: Vec<_> = parts
            .iter()
            .map(|part| {
                let mut sup = supervisor(1, config);
                let first = sup.run(part);
                let second = sup.run(&followup);
                (first, second, sup.breaker_states())
            })
            .collect();

        for workers in [2usize, 8] {
            for (s, part) in parts.iter().enumerate() {
                let pool = Arc::new(WorkerPool::new(workers));
                let mut sup = FarmSupervisor::new(
                    Farm::new(FarmConfig {
                        batch_seed: 0xC4A0_5EED,
                        threads: workers,
                    })
                    .with_pool(pool),
                    config,
                );
                let first = sup.run(part);
                assert_eq!(
                    first, oracle[s].0,
                    "shard {s}/{shards}: chaos report diverged at {workers} workers"
                );
                let second = sup.run(&followup);
                assert_eq!(
                    second, oracle[s].1,
                    "shard {s}/{shards}: carried-over batch diverged at {workers} workers"
                );
                assert_eq!(
                    sup.breaker_states(),
                    oracle[s].2,
                    "shard {s}/{shards}: breaker state diverged at {workers} workers"
                );
            }
        }
    }
}

/// The breaker's trip and recovery land on exactly the same jobs at any
/// worker count, and its state carries across batches.
#[test]
fn breaker_trips_and_recovers_deterministically() {
    let config = SupervisorConfig {
        max_attempts: 1,
        breaker_threshold: 2,
        breaker_cooldown: 2,
        job_deadline_ns: None,
    };
    for threads in [1, 2, 8] {
        let mut sup = supervisor(threads, config);

        // batch 1: three guaranteed failures — consecutive failures 1, 2
        // (trip), then one cooldown rejection
        let run1 = sup.run(&vec![JobSpec::Probe(ProbeMode::Fail); 3]);
        assert_eq!(run1.breaker_trips, 1, "{threads} threads");
        assert_eq!(run1.rejected_jobs, 1, "{threads} threads");
        assert!(matches!(
            run1.report.outcomes[2],
            Err(FarmError::BreakerOpen { job_index: 2, .. })
        ));

        // batch 2: the carried-over cooldown rejects job 0 WITHOUT
        // running it, job 1 is the half-open probe (succeeds, breaker
        // closes), job 2 flows normally
        let run2 = sup.run(&vec![JobSpec::Probe(ProbeMode::Value(1.0)); 3]);
        assert_eq!(run2.rejected_jobs, 1, "{threads} threads");
        assert_eq!(run2.attempts, vec![0, 1, 1], "{threads} threads");
        assert!(matches!(
            run2.report.outcomes[0],
            Err(FarmError::BreakerOpen { job_index: 0, .. })
        ));
        assert!(run2.report.outcomes[1].is_ok(), "half-open probe passes");
        assert!(run2.report.outcomes[2].is_ok());
        assert_eq!(
            sup.breaker_states(),
            vec![("probe", canti::farm::BreakerPosition::Closed)],
            "{threads} threads"
        );
    }
}
