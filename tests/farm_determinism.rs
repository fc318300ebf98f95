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
    (0.05, 0.1, 0x1, [0x3F245D08CCFEC507, 0x3F682CC78E62A4A0, 0x3EFEE134672E10BC, 0x40151A28DCEF4C09]),
    (0.05, 0.4, 0x1, [0x3F2F2D421CFB41EF, 0x3F88112A754C21A0, 0x3EFEE134672E10BC, 0x402027680760A7ED]),
    (0.05, 2.0, 0x1, [0x3F471D677A043E54, 0x3FAD60CECB4955E0, 0x3EFEE134672E10BC, 0x4037F4155FD904C4]),
    (0.05, 7.5, 0x1, [0x3F61A3311F2FB606, 0x3FC96BD3784A8618, 0x3EFEE134672E10BC, 0x405246FFF89EBA12]),
    (0.05, 30.0, 0x1, [0x3F79199165A403EE, 0x3FE2BFD26AA86A4F, 0x3EFEE134672E10BC, 0x406A02AEDDBE8C43]),
    (0.05, 120.0, 0x1, [0x3F848E509E77F747, 0x3FEEE4DF452F0BBF, 0x3EFEE134672E10BC, 0x40754D3A5FD55F2E]),
    (0.05, 450.0, 0x1, [0x3F8546DC392134C9, 0x3FEFEDD3362C61A0, 0x3EFEE134672E10BC, 0x40760C77F184897D]),
    (0.05, 1000.0, 0x1, [0x3F854E265F3E4B5D, 0x3FEFF7D0F16C2AD3, 0x3EFEE134672E10BC, 0x40761405CB7DB526]),
    (0.05, 0.1, 0xC0FFEE00D05E, [0x3F2693EA27DD0540, 0x3F682CC78E62A4A0, 0x3EFEE134672E10BC, 0x4017659B1E8A20E1]),
    (0.05, 0.4, 0xC0FFEE00D05E, [0x3F30AE326EC9A7BD, 0x3F88112A754C21A0, 0x3EFEE134672E10BC, 0x4021491DE454B1F3]),
    (0.05, 2.0, 0xC0FFEE00D05E, [0x3F477758D67CD998, 0x3FAD60CECB4955E0, 0x3EFEE134672E10BC, 0x4038514A1462A52E]),
    (0.05, 7.5, 0xC0FFEE00D05E, [0x3F61BE24C281CD7E, 0x3FC96BD3784A8618, 0x3EFEE134672E10BC, 0x405262EDEC55EA5C]),
    (0.05, 30.0, 0xC0FFEE00D05E, [0x3F792828BAA10FCD, 0x3FE2BFD26AA86A4F, 0x3EFEE134672E10BC, 0x406A11CDB6A1EDF6]),
    (0.05, 120.0, 0xC0FFEE00D05E, [0x3F848EB27AA4FABA, 0x3FEEE4DF452F0BBF, 0x3EFEE134672E10BC, 0x40754D9FC8E27EA1]),
    (0.05, 450.0, 0xC0FFEE00D05E, [0x3F854C7EB46A710C, 0x3FEFEDD3362C61A0, 0x3EFEE134672E10BC, 0x4076124EC1DA6146]),
    (0.05, 1000.0, 0xC0FFEE00D05E, [0x3F855315B5AEE815, 0x3FEFF7D0F16C2AD3, 0x3EFEE134672E10BC, 0x40761922F72E452A]),
    (5.0, 0.1, 0x1, [0x3F1A8C2565DECAAE, 0x3F682CC78E638A80, 0x3EFEE134672E10BC, 0x400B82B49CA1C77E]),
    (5.0, 0.4, 0x1, [0x3F288C9149A6DDAD, 0x3F88112A754CA5A0, 0x3EFEE134672E10BC, 0x40197091371A240E]),
    (5.0, 2.0, 0x1, [0x3F44FD53A89B7466, 0x3FAD60CECB499390, 0x3EFEE134672E10BC, 0x4035C0446FD51197]),
    (5.0, 7.5, 0x1, [0x3F6121D029682FE7, 0x3FC96BD3784A7FD8, 0x3EFEE134672E10BC, 0x4051C0ED67E39DBF]),
    (5.0, 30.0, 0x1, [0x3F78DCF9D0076A0D, 0x3FE2BFD26AA86B33, 0x3EFEE134672E10BC, 0x4069C3E48846A7A1]),
    (5.0, 120.0, 0x1, [0x3F846A91090995BE, 0x3FEEE4DF452F0BAE, 0x3EFEE134672E10BC, 0x4075282EC70F1630]),
    (5.0, 450.0, 0x1, [0x3F8526A0379812C2, 0x3FEFEDD3362C61A6, 0x3EFEE134672E10BC, 0x4075EB108F77B8B4]),
    (5.0, 1000.0, 0x1, [0x3F852D346FE704CB, 0x3FEFF7D0F16C2AD7, 0x3EFEE134672E10BC, 0x4075F1E1E1F87BF1]),
    (5.0, 0.1, 0xC0FFEE00D05E, [0x3F200A933EB328E8, 0x3F682CC78E638A80, 0x3EFEE134672E10BC, 0x40109F8F10F11D52]),
    (5.0, 0.4, 0xC0FFEE00D05E, [0x3F2BC2E4FE998B88, 0x3F88112A754CA5A0, 0x3EFEE134672E10BC, 0x401CC4BA48E60287]),
    (5.0, 2.0, 0xC0FFEE00D05E, [0x3F4621AA06D08DD1, 0x3FAD60CECB499390, 0x3EFEE134672E10BC, 0x4036EF35E3760DAC]),
    (5.0, 7.5, 0xC0FFEE00D05E, [0x3F61499D135F56ED, 0x3FC96BD3784A7FD8, 0x3EFEE134672E10BC, 0x4051EA2BF7674389]),
    (5.0, 30.0, 0xC0FFEE00D05E, [0x3F78DACCA1DAE4D6, 0x3FE2BFD26AA86B33, 0x3EFEE134672E10BC, 0x4069C1A32349F1C2]),
    (5.0, 120.0, 0xC0FFEE00D05E, [0x3F8468C2E74492FB, 0x3FEEE4DF452F0BAE, 0x3EFEE134672E10BC, 0x4075264FE13D1DDC]),
    (5.0, 450.0, 0xC0FFEE00D05E, [0x3F852E0E710D0EA3, 0x3FEFEDD3362C61A6, 0x3EFEE134672E10BC, 0x4075F2C3CBD60C7B]),
    (5.0, 1000.0, 0xC0FFEE00D05E, [0x3F8534BA78D61675, 0x3FEFF7D0F16C2AD7, 0x3EFEE134672E10BC, 0x4075F9ADCAF4A502]),
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
