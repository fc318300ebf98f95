//! Statistical guard on the static chain's noise floor.
//!
//! The bit goldens pin one seed's draw, and they are regenerated whenever
//! the noise stream changes on purpose, so a regenerated golden cannot
//! catch a noise bank with the wrong spectrum. This test pins the
//! distribution of the memoized noise estimate instead. It runs 16 chain
//! characterizations, so it lives in the crate's tests (run in release)
//! rather than in the root package's debug suite.

use canti_core::assay::StaticChainResponse;
use canti_core::chip::BiosensorChip;
use canti_core::static_system::{StaticCantileverSystem, StaticReadoutConfig};

/// The median of `StaticChainResponse::noise_rms_volts` over config seeds
/// 1–16, each characterized as the farm does (offset trim, then the
/// 16 k-sample noise burst), lies inside 331–415 µV: the interquartile
/// range EXPERIMENTS.md E9 quotes for 41 seeds of the flicker bank that
/// stepped every section every sample.
#[test]
fn median_chain_noise_lies_in_the_survey_iqr() {
    let mut noise: Vec<f64> = (1..=16)
        .map(|seed| {
            let mut system = StaticCantileverSystem::new(
                BiosensorChip::paper_static_chip().expect("chip"),
                StaticReadoutConfig {
                    seed,
                    ..StaticReadoutConfig::default()
                },
            )
            .expect("system");
            system.calibrate_offsets().expect("calibration");
            StaticChainResponse::measure(&mut system)
                .expect("chain")
                .noise_rms_volts
        })
        .collect();
    noise.sort_by(f64::total_cmp);
    let median = (noise[7] + noise[8]) / 2.0;
    assert!(
        (331e-6..=415e-6).contains(&median),
        "median chain noise {median:.4e} V over seeds 1-16: {noise:?}"
    );
}
