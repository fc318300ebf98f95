//! The farm's determinism contract, exercised end to end: for any batch
//! seed and any mix of jobs, worker counts {1, 2, 8} must produce
//! bit-identical `BatchReport`s, and a panicking job must surface as a
//! per-job `FarmError` without poisoning the batch.
//!
//! The dose-response kernel is pinned too: the farm streams each job
//! through one fold, and its payloads must keep the bits the collecting
//! runners produce (a golden table recorded from them, and a property
//! against them), with the same error strings.

use std::sync::OnceLock;

use canti::bio::assay::AssayProtocol;
use canti::bio::kinetics::LangmuirKinetics;
use canti::farm::{
    cross_reactivity_panel, dose_response_sweep, process_variation_batch, Farm, FarmConfig,
    FarmError, JobSpec, PrecomputeCache, ProbeMode, Receptor,
};
use canti::system::assay::{run_static_assay_precomputed, static_assay_peaks, StaticChainResponse};
use canti::system::static_system::StaticReadoutConfig;
use canti::units::{Molar, Seconds};
use proptest::prelude::*;

fn run(batch_seed: u64, threads: usize, jobs: &[JobSpec]) -> canti::farm::BatchReport {
    Farm::new(FarmConfig {
        batch_seed,
        threads,
    })
    .run(jobs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Cheap probe batches: any seed, any draw counts, any batch length —
    /// the 1-thread oracle and the parallel schedules agree bitwise.
    #[test]
    fn probe_batches_are_worker_count_invariant(
        seed in 0u64..u64::MAX,
        draws in prop::collection::vec(1usize..8, 1..40),
    ) {
        let jobs: Vec<JobSpec> = draws.iter().map(|&d| JobSpec::Probe(ProbeMode::Draws(d))).collect();
        let oracle = run(seed, 1, &jobs);
        for threads in [2, 8] {
            prop_assert_eq!(&run(seed, threads, &jobs), &oracle, "threads={}", threads);
        }
    }

    /// A panic at a random position surfaces as `FarmError::Panic` in
    /// exactly that slot; every other job completes normally, at every
    /// worker count.
    #[test]
    fn panics_stay_in_their_slot(
        seed in 0u64..u64::MAX,
        len in 3usize..24,
        panic_frac in 0.0f64..1.0,
    ) {
        let panic_at = ((len - 1) as f64 * panic_frac) as usize;
        let jobs: Vec<JobSpec> = (0..len)
            .map(|i| {
                if i == panic_at {
                    JobSpec::Probe(ProbeMode::Panic)
                } else {
                    JobSpec::Probe(ProbeMode::Value(i as f64))
                }
            })
            .collect();
        for threads in [1, 2, 8] {
            let report = run(seed, threads, &jobs);
            prop_assert_eq!(report.ok_count(), len - 1, "threads={}", threads);
            match &report.outcomes[panic_at] {
                Err(FarmError::Panic { job_index, message }) => {
                    prop_assert_eq!(*job_index, panic_at);
                    prop_assert!(message.contains("intentional"), "{}", message);
                }
                other => prop_assert!(false, "expected panic at {}, got {:?}", panic_at, other),
            }
            for (i, outcome) in report.outcomes.iter().enumerate() {
                if i != panic_at {
                    let out = outcome.as_ref().expect("non-panicking job");
                    prop_assert_eq!(out.metric("value"), Some(i as f64));
                }
            }
        }
    }
}

/// The full-fat contract on real simulation jobs: a 66-job mixed batch
/// (dose-response sweep, Monte-Carlo process variation, cross-reactivity
/// panel) is bit-identical at 1, 2 and 8 workers.
#[test]
fn mixed_64_job_batch_is_bit_identical_across_worker_counts() {
    let concentrations: Vec<f64> = (0..22).map(|i| 0.2 * 10f64.powf(0.2 * i as f64)).collect();
    let interferents: Vec<f64> = (0..22).map(|i| i as f64 * 20.0).collect();
    let mut jobs = dose_response_sweep(&concentrations);
    jobs.extend(process_variation_batch(22, 0.05));
    jobs.extend(cross_reactivity_panel(25.0, &interferents));
    assert!(
        jobs.len() >= 64,
        "need a >=64-job batch, got {}",
        jobs.len()
    );

    let oracle = run(0xD15C_0B07, 1, &jobs);
    assert_eq!(oracle.ok_count(), jobs.len(), "all jobs must succeed");
    for threads in [2, 8] {
        let report = run(0xD15C_0B07, threads, &jobs);
        assert_eq!(report, oracle, "report diverged at {threads} threads");
    }
}

/// Cache traffic is part of the determinism story: the lock is held
/// across a miss's compute-and-insert, so for one distinct config the
/// first requester misses and every other job hits — at *any* worker
/// count. Racy caches leak duplicate misses under contention; this pins
/// the invariant down.
#[test]
fn cache_hit_counts_are_worker_count_invariant() {
    let concentrations: Vec<f64> = (0..12).map(|i| 0.5 * 10f64.powf(0.25 * i as f64)).collect();
    let jobs = dose_response_sweep(&concentrations);
    for threads in [1, 2, 8] {
        let farm = Farm::new(FarmConfig {
            batch_seed: 0xCAC4E,
            threads,
        });
        let report = farm.run(&jobs);
        assert_eq!(report.ok_count(), jobs.len());
        let stats = farm.cache_stats();
        assert_eq!(
            stats.misses, 1,
            "exactly one chain precompute at {threads} threads"
        );
        assert_eq!(
            stats.hits,
            jobs.len() as u64 - 1,
            "every other job must hit at {threads} threads"
        );
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes_estimate > 0);
    }
}

/// A job-level substrate error (not a panic) also stays in its slot.
#[test]
fn job_errors_stay_in_their_slot() {
    let jobs = vec![
        JobSpec::Probe(ProbeMode::Value(0.5)),
        // negative thickness sigma is rejected by the variation substrate
        JobSpec::ProcessVariation {
            thickness_sigma_rel: -1.0,
        },
        JobSpec::Probe(ProbeMode::Value(1.5)),
    ];
    for threads in [1, 4] {
        let report = run(7, threads, &jobs);
        assert_eq!(report.ok_count(), 2);
        assert!(
            matches!(
                &report.outcomes[1],
                Err(FarmError::Job { job_index: 1, .. })
            ),
            "{:?}",
            report.outcomes[1]
        );
    }
}

/// The anti-IgG dose point on the quick-immunoassay protocol
/// (30/300/120 s) at `concentration_nm`, sampled every `dt` seconds.
fn dose_spec(concentration_nm: f64, dt: f64, averaging: usize) -> JobSpec {
    JobSpec::StaticDoseResponse {
        receptor: Receptor::AntiIgg,
        concentration: Molar::from_nanomolar(concentration_nm),
        baseline: Seconds::new(30.0),
        association: Seconds::new(300.0),
        wash: Seconds::new(120.0),
        dt: Seconds::new(dt),
        averaging,
    }
}

/// Bits of `peak_volts`, `peak_coverage`, `noise_volts` and `snr` per
/// `(dt, concentration nM, job seed)`: eight concentrations from 0.1 nM
/// to 1 uM at two seeds on each protocol, recorded from the collecting
/// runners (`AssayProtocol::run`, `run_static_assay_precomputed`,
/// `peak_signal`). `dt` 0.05 s is the steady benchmark's spec (averaging
/// 256, a 9 001-point sensorgram); `dt` 5 s is `JobSpec::dose_point`.
#[rustfmt::skip]
const DOSE_RESPONSE_GOLDEN: [(f64, f64, u64, [u64; 4]); 32] = [
    (0.05, 0.1, 0x1, [0x3F1B6032A430CDF0, 0x3F682CC78E62A4A0, 0x3EF340D72109AA0D, 0x4016C000A0912599]),
    (0.05, 0.4, 0x1, [0x3F29616A9DC6A4DD, 0x3F88112A754C21A0, 0x3EF340D72109AA0D, 0x40251787800A7739]),
    (0.05, 2.0, 0x1, [0x3F45AA719A37170E, 0x3FAD60CECB4955E0, 0x3EF340D72109AA0D, 0x4042013EC468E74D]),
    (0.05, 7.5, 0x1, [0x3F614673A73C6C35, 0x3FC96BD3784A8618, 0x3EF340D72109AA0D, 0x405CB65ACECA1CCE]),
    (0.05, 30.0, 0x1, [0x3F78EB32A9AA5F05, 0x3FE2BFD26AA86A4F, 0x3EF340D72109AA0D, 0x4074B549558071AF]),
    (0.05, 120.0, 0x1, [0x3F847721407B24D4, 0x3FEEE4DF452F0BBF, 0x3EF340D72109AA0D, 0x408101DBE90BA12D]),
    (0.05, 450.0, 0x1, [0x3F852C287B359B51, 0x3FEFEDD3362C61A0, 0x3EF340D72109AA0D, 0x4081984C640BEFF8]),
    (0.05, 1000.0, 0x1, [0x3F853372A152B1E5, 0x3FEFF7D0F16C2AD3, 0x3EF340D72109AA0D, 0x40819E5B360D2086]),
    (0.05, 0.1, 0xC0FFEE00D05E, [0x3F1EE021A2042633, 0x3F682CC78E62A4A0, 0x3EF340D72109AA0D, 0x4019A88C2B5E5577]),
    (0.05, 0.4, 0xC0FFEE00D05E, [0x3F2A388B86B85D53, 0x3F88112A754C21A0, 0x3EF340D72109AA0D, 0x4025CA4E94F7B04C]),
    (0.05, 2.0, 0xC0FFEE00D05E, [0x3F45E5E5FFAFA35D, 0x3FAD60CECB4955E0, 0x3EF340D72109AA0D, 0x404232A75452DACD]),
    (0.05, 7.5, 0xC0FFEE00D05E, [0x3F6159C80CCE7FF0, 0x3FC96BD3784A8618, 0x3EF340D72109AA0D, 0x405CD67B4FC4553A]),
    (0.05, 30.0, 0xC0FFEE00D05E, [0x3F78F5FA5FC76905, 0x3FE2BFD26AA86A4F, 0x3EF340D72109AA0D, 0x4074BE3EBA9F3C34]),
    (0.05, 120.0, 0xC0FFEE00D05E, [0x3F84759B4D382756, 0x3FEEE4DF452F0BBF, 0x3EF340D72109AA0D, 0x40810097D9E23645]),
    (0.05, 450.0, 0xC0FFEE00D05E, [0x3F852FEF4F0F0543, 0x3FEFEDD3362C61A0, 0x3EF340D72109AA0D, 0x40819B6FD9C825DE]),
    (0.05, 1000.0, 0xC0FFEE00D05E, [0x3F85368650537C4C, 0x3FEFF7D0F16C2AD3, 0x3EF340D72109AA0D, 0x4081A0E9CC2DF67C]),
    (5.0, 0.1, 0x1, [0x3F1365FE480AD51E, 0x3F682CC78E638A80, 0x3EF340D72109AA0D, 0x40101EE0068ADD77]),
    (5.0, 0.4, 0x1, [0x3F24F97DBABCE2E6, 0x3F88112A754CA5A0, 0x3EF340D72109AA0D, 0x40216E31582143DC]),
    (5.0, 2.0, 0x1, [0x3F445BEBFE02A066, 0x3FAD60CECB499390, 0x3EF340D72109AA0D, 0x4040EB3F9735C87D]),
    (5.0, 7.5, 0x1, [0x3F60F9763EC1FAE8, 0x3FC96BD3784A7FD8, 0x3EF340D72109AA0D, 0x405C3664B3D2BCEC]),
    (5.0, 30.0, 0x1, [0x3F78C8CCDAB44F8C, 0x3FE2BFD26AA86B33, 0x3EF340D72109AA0D, 0x407498B377E67F88]),
    (5.0, 120.0, 0x1, [0x3F84607A8E60087F, 0x3FEEE4DF452F0BAE, 0x3EF340D72109AA0D, 0x4080EF090973D51E]),
    (5.0, 450.0, 0x1, [0x3F851853E95C6AD7, 0x3FEFEDD3362C61A6, 0x3EF340D72109AA0D, 0x408187D19FAA4B08]),
    (5.0, 1000.0, 0x1, [0x3F851EE821AB5CE0, 0x3FEFF7D0F16C2AD7, 0x3EF340D72109AA0D, 0x40818D4941931971]),
    (5.0, 0.1, 0xC0FFEE00D05E, [0x3F16F6718634066B, 0x3F682CC78E638A80, 0x3EF340D72109AA0D, 0x401315255BF86965]),
    (5.0, 0.4, 0xC0FFEE00D05E, [0x3F27338A830065D5, 0x3F88112A754CA5A0, 0x3EF340D72109AA0D, 0x402347EB71AD69D1]),
    (5.0, 2.0, 0xC0FFEE00D05E, [0x3F44FDD367EA4465, 0x3FAD60CECB499390, 0x3EF340D72109AA0D, 0x404171CB83F7EDA3]),
    (5.0, 7.5, 0xC0FFEE00D05E, [0x3F61022880556186, 0x3FC96BD3784A7FD8, 0x3EF340D72109AA0D, 0x405C44D8DC65167A]),
    (5.0, 30.0, 0xC0FFEE00D05E, [0x3F78C68C950CA3B6, 0x3FE2BFD26AA86B33, 0x3EF340D72109AA0D, 0x407496D492148734]),
    (5.0, 120.0, 0xC0FFEE00D05E, [0x3F84603D69286869, 0x3FEEE4DF452F0BAE, 0x3EF340D72109AA0D, 0x4080EED6393452C4]),
    (5.0, 450.0, 0xC0FFEE00D05E, [0x3F851CECF872DA79, 0x3FEFEDD3362C61A6, 0x3EF340D72109AA0D, 0x40818BA3CAA5A6B3]),
    (5.0, 1000.0, 0xC0FFEE00D05E, [0x3F852399003BE24B, 0x3FEFF7D0F16C2AD7, 0x3EF340D72109AA0D, 0x4081912F3610264C]),
];

/// The streamed dose-response kernel reproduces the golden payload bits
/// of the collecting runners on both protocols, at two seeds each.
#[test]
fn dose_response_payloads_match_the_golden_table() {
    let jobs: Vec<JobSpec> = DOSE_RESPONSE_GOLDEN
        .iter()
        .map(|&(dt, c, _, _)| {
            if dt == 5.0 {
                JobSpec::dose_point(Receptor::AntiIgg, Molar::from_nanomolar(c))
            } else {
                dose_spec(c, dt, 256)
            }
        })
        .collect();
    let seeds: Vec<u64> = DOSE_RESPONSE_GOLDEN.iter().map(|row| row.2).collect();
    let report = Farm::new(FarmConfig {
        batch_seed: 0,
        threads: 2,
    })
    .run_seeded(&jobs, &seeds);
    for ((dt, c, seed, bits), outcome) in DOSE_RESPONSE_GOLDEN.iter().zip(&report.outcomes) {
        let out = outcome.as_ref().expect("dose point solves");
        let got: Vec<u64> = ["peak_volts", "peak_coverage", "noise_volts", "snr"]
            .iter()
            .map(|m| out.metric(m).expect("metric present").to_bits())
            .collect();
        assert_eq!(got, bits, "dt {dt} s, {c} nM, seed {seed:#x}");
    }
}

/// The default static chain, characterized once per test binary.
fn default_chain() -> StaticChainResponse {
    static CHAIN: OnceLock<StaticChainResponse> = OnceLock::new();
    *CHAIN.get_or_init(|| {
        *PrecomputeCache::new()
            .static_chain(&StaticReadoutConfig::default())
            .expect("chain characterizes")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fold the farm runs equals the collecting runners bit for bit:
    /// `run_static_assay_precomputed(..).peak_signal()` and
    /// `Sensorgram::peak_coverage()` over the same protocol.
    #[test]
    fn streamed_peaks_equal_the_collected_trace(
        log_c in -10.0f64..-6.0,
        dt in (0usize..3).prop_map(|i| [0.05, 0.5, 5.0][i]),
        averaging in (0usize..3).prop_map(|i| [1, 16, 256][i]),
        receptor in (0usize..3).prop_map(|i| [Receptor::AntiIgg, Receptor::AntiPsa, Receptor::Dna20mer][i]),
        seed in 0u64..u64::MAX,
    ) {
        let chain = default_chain();
        let layer = receptor.layer();
        let kinetics = LangmuirKinetics::from_receptor(&layer);
        let protocol = AssayProtocol::standard(
            Seconds::new(30.0),
            Molar::new(10f64.powf(log_c)),
            Seconds::new(300.0),
            Seconds::new(120.0),
        );
        let dt = Seconds::new(dt);
        let gram = protocol.run(&kinetics, dt, 0.0).expect("kinetics");
        let trace = run_static_assay_precomputed(&chain, &layer, &gram, averaging, seed)
            .expect("transduction");
        let stream = protocol.samples(&kinetics, dt, 0.0).expect("kinetics");
        let peaks = static_assay_peaks(&chain, &layer, stream, averaging, seed).expect("fold");
        prop_assert_eq!(peaks.peak_signal.to_bits(), trace.peak_signal().to_bits());
        prop_assert_eq!(peaks.peak_coverage.to_bits(), gram.peak_coverage().to_bits());
    }
}

/// Bad intervals and zero averaging fail with the collecting runners'
/// error strings, interval first, whichever path reports them.
#[test]
fn dose_response_errors_keep_their_strings() {
    const AVERAGING: &str = "configuration: averaging must be at least 1";
    const ZERO_DT: &str = "sample interval must be positive, got 0";
    const NOT_FINITE: &str = "sample interval must be finite";
    let cases = [
        (dose_spec(10.0, 5.0, 0), AVERAGING),
        (dose_spec(10.0, 0.0, 256), ZERO_DT),
        (
            dose_spec(10.0, -1.0, 256),
            "sample interval must be positive, got -1",
        ),
        (dose_spec(10.0, f64::NAN, 256), NOT_FINITE),
        (dose_spec(10.0, f64::INFINITY, 256), NOT_FINITE),
        (dose_spec(10.0, 0.0, 0), ZERO_DT),
    ];
    let jobs: Vec<JobSpec> = cases.iter().map(|(job, _)| job.clone()).collect();
    let report = run(7, 2, &jobs);
    for (i, ((_, want), outcome)) in cases.iter().zip(&report.outcomes).enumerate() {
        match outcome {
            Err(FarmError::Job { job_index, reason }) => {
                assert_eq!(*job_index, i);
                assert_eq!(reason, want, "job {i}");
            }
            other => panic!("job {i}: expected a job error, got {other:?}"),
        }
    }

    // the crate-level runners and the fold agree on the same strings
    let chain = default_chain();
    let layer = Receptor::AntiIgg.layer();
    let kinetics = LangmuirKinetics::from_receptor(&layer);
    let protocol = AssayProtocol::standard(
        Seconds::new(1.0),
        Molar::from_nanomolar(1.0),
        Seconds::new(1.0),
        Seconds::new(1.0),
    );
    let gram = protocol.run(&kinetics, Seconds::new(1.0), 0.0).unwrap();
    let collected = run_static_assay_precomputed(&chain, &layer, &gram, 0, 1).unwrap_err();
    let stream = protocol.samples(&kinetics, Seconds::new(1.0), 0.0).unwrap();
    let folded = static_assay_peaks(&chain, &layer, stream, 0, 1).unwrap_err();
    assert_eq!(collected.to_string(), AVERAGING);
    assert_eq!(folded.to_string(), AVERAGING);
    for (dt, want) in [
        (0.0, ZERO_DT),
        (-2.5, "sample interval must be positive, got -2.5"),
        (f64::NAN, NOT_FINITE),
    ] {
        let dt = Seconds::new(dt);
        assert_eq!(
            protocol.run(&kinetics, dt, 0.0).unwrap_err().to_string(),
            want
        );
        assert_eq!(
            protocol
                .samples(&kinetics, dt, 0.0)
                .unwrap_err()
                .to_string(),
            want
        );
    }
}

/// A dose point whose `dt` asks for ~10^11 samples or more is refused in
/// its own slot before it allocates or steps anything, and the job next to
/// it keeps its normal payload. (Sizing the sensorgram buffer from that
/// `dt` used to abort the whole process, which no `catch_unwind` can
/// contain.)
#[test]
fn an_oversampled_dose_point_fails_in_its_own_slot() {
    let normal = dose_spec(25.0, 5.0, 256);
    let seeded = |threads: usize, jobs: &[JobSpec], seeds: &[u64]| {
        Farm::new(FarmConfig {
            batch_seed: 0,
            threads,
        })
        .run_seeded(jobs, seeds)
    };
    let alone = seeded(1, std::slice::from_ref(&normal), &[2]);
    let expected = alone.outcomes[0].as_ref().expect("normal dose point");
    for dt in [1e-9, 1e-15] {
        let jobs = [dose_spec(25.0, dt, 256), normal.clone()];
        for threads in [1, 2] {
            let report = seeded(threads, &jobs, &[1, 2]);
            match &report.outcomes[0] {
                Err(FarmError::Job {
                    job_index: 0,
                    reason,
                }) => assert!(reason.contains("samples"), "dt {dt}: {reason}"),
                other => panic!("dt {dt}: expected a job error, got {other:?}"),
            }
            let out = report.outcomes[1].as_ref().expect("normal dose point");
            assert_eq!(out.metrics, expected.metrics, "dt {dt}");
        }
    }
}
