//! End-to-end regression goldens: the canned scenarios pinned to the
//! exact values they produce today.
//!
//! These scenarios are fully deterministic (seeded RNG streams all the
//! way down), so the tolerances below are tight — they allow only
//! last-bit float noise, not behavioral drift. If an intentional physics
//! or DSP change moves an output, re-derive the goldens (run the
//! scenarios, paste the printed values) and say so in the changelog;
//! anything else tripping these tests is a regression.

use canti::system::scenario::{dna_hybridization_resonant, igg_immunoassay_quick};

/// Relative-tolerance check that also handles exact-zero goldens.
fn assert_close(name: &str, actual: f64, golden: f64, rel_tol: f64) {
    let scale = golden.abs().max(f64::MIN_POSITIVE);
    let rel = (actual - golden).abs() / scale;
    assert!(
        rel <= rel_tol,
        "{name}: actual {actual:.17e} vs golden {golden:.17e} (rel err {rel:.3e} > {rel_tol:.1e})"
    );
}

#[test]
fn igg_immunoassay_quick_matches_golden() {
    let o = igg_immunoassay_quick().expect("scenario");
    assert_close(
        "peak_output_volts",
        o.peak_output_volts,
        7.991_113_076_465_8e-3,
        1e-9,
    );
    assert_close(
        "peak_coverage",
        o.peak_coverage,
        7.681_022_869_450_908e-1,
        1e-12,
    );
    assert_close(
        "responsivity",
        o.responsivity,
        2.055_592_530_263_994e0,
        1e-12,
    );
    assert_close(
        "noise_rms_volts",
        o.noise_rms_volts,
        1.836_136_113_057_313e-5,
        1e-9,
    );
}

#[test]
fn dna_hybridization_resonant_matches_golden() {
    let o = dna_hybridization_resonant().expect("scenario");
    // the shift is quantized by the frequency counter's resolution, hence
    // the exact-looking value
    assert_close(
        "peak_shift_hz",
        o.peak_shift_hz,
        -6.400_000_000_023_283e0,
        1e-9,
    );
    assert_close(
        "peak_coverage",
        o.peak_coverage,
        9.990_009_990_009_989e-1,
        1e-12,
    );
    assert_close(
        "baseline_frequency_hz",
        o.baseline_frequency_hz,
        3.392_360_868_350_591e5,
        1e-12,
    );
    assert_close(
        "responsivity_hz_per_kg",
        o.responsivity_hz_per_kg,
        5.045_974_848_843_729e14,
        1e-12,
    );
}

/// The scenarios are deterministic call to call — the precondition for
/// golden pinning in the first place.
#[test]
fn scenarios_are_run_to_run_deterministic() {
    let a = igg_immunoassay_quick().expect("scenario");
    let b = igg_immunoassay_quick().expect("scenario");
    assert_eq!(a, b);
    let c = dna_hybridization_resonant().expect("scenario");
    let d = dna_hybridization_resonant().expect("scenario");
    assert_eq!(c, d);
}
