//! The observability layer's additivity contract, end to end: attaching
//! telemetry must never change a single bit of any numerical result —
//! farm batch payloads, autonomous-instrument scans — at any worker
//! count, and deterministic (virtual-clock) telemetry must itself be
//! reproducible run over run.

use std::sync::Arc;

use canti::farm::{
    cross_reactivity_panel, dose_response_sweep, process_variation_batch, Farm, FarmConfig,
    FarmObserver, JobSpec,
};
use canti::obs::clock::VirtualClock;
use canti::obs::trace::RingCollector;
use canti::obs::Tracer;
use canti::system::autonomous::AutonomousInstrument;
use canti::system::chip::BiosensorChip;
use canti::system::static_system::{StaticCantileverSystem, StaticReadoutConfig, CHANNELS};
use canti::units::SurfaceStress;

fn mixed_jobs() -> Vec<JobSpec> {
    let concentrations: Vec<f64> = (0..8).map(|i| 0.4 * 10f64.powf(0.4 * i as f64)).collect();
    let interferents: Vec<f64> = (0..6).map(|i| i as f64 * 30.0).collect();
    let mut jobs = dose_response_sweep(&concentrations);
    jobs.extend(process_variation_batch(6, 0.04));
    jobs.extend(cross_reactivity_panel(20.0, &interferents));
    jobs
}

fn farm(threads: usize) -> Farm {
    Farm::new(FarmConfig {
        batch_seed: 0x0B5_CAFE,
        threads,
    })
}

/// The tentpole guarantee: telemetry on or off, 1 or 8 workers, the
/// batch payload is the same bits.
#[test]
fn batch_payload_is_bit_identical_with_telemetry_on_or_off() {
    let jobs = mixed_jobs();
    let oracle = farm(1).run(&jobs);
    assert_eq!(oracle.ok_count(), jobs.len(), "all jobs must succeed");

    for threads in [1, 2, 8] {
        let (observer, _ring) = FarmObserver::deterministic(16_384);
        let observed = farm(threads).with_observer(observer.clone()).run(&jobs);
        // BatchReport equality covers seed + outcomes, and the report
        // holds nothing else — this IS the payload comparison
        assert_eq!(observed, oracle, "payload diverged at {threads} threads");
        let m = observer.metrics();
        let n = jobs.len() as u64;
        assert_eq!(
            m.counter("farm.jobs_ok").get() + m.counter("farm.jobs_failed").get(),
            n
        );
        assert_eq!(m.gauge("farm.workers").get(), threads as i64);
        assert_eq!(m.histogram("farm.queue_wait_ns").count(), n);
        assert_eq!(m.histogram("farm.solve_ns").count(), n);
        assert!(
            m.histogram("farm.precompute_ns").count() > 0,
            "cache-backed jobs must sample the precompute stage"
        );
        assert_eq!(
            m.histogram("farm.worker_busy_ns").count(),
            threads as u64,
            "one busy-time sample per worker"
        );
    }
}

/// Deterministic telemetry is reproducible: two virtual-clock observed
/// runs at one worker produce identical trace streams, event for event.
#[test]
fn deterministic_trace_streams_are_reproducible() {
    let jobs = mixed_jobs();
    let run_traced = || {
        let (observer, ring) = FarmObserver::deterministic(16_384);
        let report = farm(1).with_observer(observer).run(&jobs);
        (report, ring.events())
    };
    let (report_a, events_a) = run_traced();
    let (report_b, events_b) = run_traced();
    assert_eq!(report_a, report_b);
    assert!(!events_a.is_empty());
    assert_eq!(events_a, events_b, "virtual-clock traces must be identical");
    assert_eq!(events_a.first().map(|e| e.name), Some("batch"));
    assert_eq!(events_a.last().map(|e| e.name), Some("batch"));
}

/// Tracing the autonomous instrument must not move a single output bit.
#[test]
fn traced_instrument_scan_matches_untraced_scan() {
    let build = || {
        let system = StaticCantileverSystem::new(
            BiosensorChip::paper_static_chip().unwrap(),
            StaticReadoutConfig::default(),
        )
        .unwrap();
        AutonomousInstrument::new(system).unwrap()
    };
    let sigmas = {
        let mut s = [SurfaceStress::zero(); CHANNELS];
        s[2] = SurfaceStress::from_millinewtons_per_meter(3.0);
        s
    };

    let mut plain = build();
    plain.power_on().unwrap();
    let plain_report = plain.run_scan(sigmas, 200).unwrap();

    let ring = Arc::new(RingCollector::new(1024));
    let tracer = Tracer::new(Arc::clone(&ring), Arc::new(VirtualClock::new()));
    let mut traced = build();
    traced.set_tracer(tracer);
    traced.power_on().unwrap();
    let traced_report = traced.run_scan(sigmas, 200).unwrap();

    assert_eq!(
        plain_report, traced_report,
        "tracing must not perturb the scan outputs"
    );
    let names: Vec<String> = ring.events().iter().map(|e| e.name.to_owned()).collect();
    for needle in ["power_on", "scan", "measure", "state_change", "scan_report"] {
        assert!(
            names.iter().any(|n| n == needle),
            "missing {needle} in {names:?}"
        );
    }
}
