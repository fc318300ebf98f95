//! Running biochemical assays through the two systems.
//!
//! Binding kinetics evolve over seconds-to-minutes while the electronics
//! run at megahertz; simulating every electrical sample across a 20-minute
//! assay would be pointless. The assay runners therefore work
//! **quasi-statically**: the binding ODE sets the instantaneous surface
//! stress / bound mass, the system's calibrated transfer maps it to the
//! output quantity, and the measured output noise (from a real sampled
//! burst of the full chain) is added at the decimated assay rate. The full
//! sample-level simulations remain available on the systems themselves for
//! the electrical experiments.

use canti_analog::noise::WhiteNoise;
use canti_bio::analyte::Analyte;
use canti_bio::assay::{peak_coverage_step, Sensorgram, SensorgramSample};
use canti_bio::receptor::ReceptorLayer;
use canti_obs::Tracer;
use canti_units::{Hertz, Seconds, SurfaceStress};

use crate::resonant_system::ResonantCantileverSystem;
use crate::static_system::StaticCantileverSystem;
use crate::CoreError;

/// One point of a transduced assay trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssayPoint {
    /// Time from assay start.
    pub time: Seconds,
    /// Receptor coverage at this time.
    pub coverage: f64,
    /// The transduced output (V for static, Hz for resonant).
    pub output: f64,
}

/// A transduced assay trace.
#[derive(Debug, Clone, PartialEq)]
pub struct AssayTrace {
    /// The points, in time order.
    pub points: Vec<AssayPoint>,
    /// Unit string of `output` (`"V"` or `"Hz"`).
    pub unit: &'static str,
}

impl AssayTrace {
    /// The output extremum relative to the first point (signed, largest
    /// magnitude).
    #[must_use]
    pub fn peak_signal(&self) -> f64 {
        let Some(first) = self.points.first() else {
            return 0.0;
        };
        self.points
            .iter()
            .map(|p| p.output - first.output)
            .fold(0.0f64, peak_signal_step)
    }

    /// Output at (the sample closest to) `t`.
    #[must_use]
    pub fn output_at(&self, t: Seconds) -> Option<f64> {
        self.points
            .iter()
            .min_by(|a, b| {
                (a.time.value() - t.value())
                    .abs()
                    .partial_cmp(&(b.time.value() - t.value()).abs())
                    .expect("finite times")
            })
            .map(|p| p.output)
    }
}

/// One step of the signed-extremum fold behind
/// [`AssayTrace::peak_signal`] and [`static_assay_peaks`]: keeps whichever
/// of the running peak and the next deviation from the first point has
/// the larger magnitude (the earlier one on a tie).
fn peak_signal_step(peak: f64, deviation: f64) -> f64 {
    if deviation.abs() > peak.abs() {
        deviation
    } else {
        peak
    }
}

/// The static readout chain's measured small-signal response — everything
/// an assay run needs from the (expensive) sample-level electrical
/// simulation, captured once and reusable across any number of assays.
///
/// This is the unit the sensor-farm engine memoizes per chip/config: the
/// transfer and the noise floor are properties of the chain, not of the
/// sensorgram being pushed through it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticChainResponse {
    /// Small-signal transfer, V per (N/m).
    pub transfer_volts_per_stress: f64,
    /// Output noise (1σ) of a single electrical sample, V.
    pub noise_rms_volts: f64,
}

impl StaticChainResponse {
    /// Measures the chain response of `system`: the design transfer and
    /// the output noise over a 16 k-sample burst at zero stress on
    /// channel 0 (the same burst [`run_static_assay`] has always used).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on transfer/noise-measurement failures.
    pub fn measure(system: &mut StaticCantileverSystem) -> Result<Self, CoreError> {
        let transfer_volts_per_stress = system.transfer_volts_per_stress()?;
        let noise_rms_volts = system
            .output_noise_rms(0, SurfaceStress::zero(), 16_000)?
            .value();
        Ok(Self {
            transfer_volts_per_stress,
            noise_rms_volts,
        })
    }

    /// The per-point noise (1σ) after averaging `averaging` electrical
    /// samples per assay point.
    #[must_use]
    pub fn per_point_noise(&self, averaging: usize) -> f64 {
        self.noise_rms_volts / (averaging.max(1) as f64).sqrt()
    }
}

/// Runs a sensorgram through the static system: coverage → surface stress
/// → calibrated output volts, with measured output noise added at the
/// assay sample rate.
///
/// `averaging` is the number of electrical output samples averaged per
/// assay point (reduces the added noise by √averaging).
///
/// # Errors
///
/// Returns [`CoreError`] on transfer/noise-measurement failures.
pub fn run_static_assay(
    system: &mut StaticCantileverSystem,
    receptor: &ReceptorLayer,
    sensorgram: &Sensorgram,
    averaging: usize,
) -> Result<AssayTrace, CoreError> {
    run_static_assay_traced(system, receptor, sensorgram, averaging, &Tracer::disabled())
}

/// [`run_static_assay`] with structured tracing: a `static_assay` span
/// wrapping a `chain_measure` span (the expensive sample-level electrical
/// characterization) and a `transduce` span (the cheap sensorgram →
/// output mapping). Tracing is strictly additive — the returned trace is
/// bit-identical to the untraced runner's.
///
/// # Errors
///
/// Returns [`CoreError`] on zero averaging or transfer/noise-measurement
/// failures.
pub fn run_static_assay_traced(
    system: &mut StaticCantileverSystem,
    receptor: &ReceptorLayer,
    sensorgram: &Sensorgram,
    averaging: usize,
    tracer: &Tracer,
) -> Result<AssayTrace, CoreError> {
    // refuse before the expensive (and state-advancing) chain measurement
    ensure_averaging(averaging)?;
    let _assay_span = tracer.span(
        "static_assay",
        &[
            ("points", sensorgram.len().into()),
            ("averaging", averaging.into()),
        ],
    );
    let chain_span = tracer.span("chain_measure", &[]);
    let chain = StaticChainResponse::measure(system)?;
    chain_span.end();
    let transduce_span = tracer.span("transduce", &[]);
    let trace = run_static_assay_precomputed(
        &chain,
        receptor,
        sensorgram,
        averaging,
        system.config().seed.wrapping_add(0xA55A),
    );
    transduce_span.end();
    trace
}

/// The per-point static transduction: coverage → surface stress →
/// calibrated output volts, plus one draw of the per-point white noise.
///
/// This is the only implementation of that arithmetic: the collecting
/// [`run_static_assay_precomputed`] and the streaming
/// [`static_assay_peaks`] both push every sample through
/// [`Self::point`], so their outputs agree bit for bit.
#[derive(Debug, Clone)]
pub(crate) struct StaticTransducer<'a> {
    receptor: &'a ReceptorLayer,
    transfer: f64,
    noise: WhiteNoise,
}

impl<'a> StaticTransducer<'a> {
    /// A transducer through `chain` for a surface coated with `receptor`,
    /// averaging `averaging` electrical samples per assay point (the
    /// added noise shrinks by √averaging); `noise_seed` seeds the noise.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on zero averaging or a noise floor the
    /// generator refuses.
    pub(crate) fn new(
        chain: &StaticChainResponse,
        receptor: &'a ReceptorLayer,
        averaging: usize,
        noise_seed: u64,
    ) -> Result<Self, CoreError> {
        ensure_averaging(averaging)?;
        let noise = WhiteNoise::new(
            // density such that sigma = per-point noise at fs = 1
            chain.per_point_noise(averaging) * std::f64::consts::SQRT_2,
            1.0,
            noise_seed,
        )?;
        Ok(Self {
            receptor,
            transfer: chain.transfer_volts_per_stress,
            noise,
        })
    }

    /// Transduces the next sample; points must come in time order, since
    /// each draws the next noise sample.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if the sample's coverage has no surface
    /// stress (outside `[0, 1]`).
    pub(crate) fn point(&mut self, sample: &SensorgramSample) -> Result<AssayPoint, CoreError> {
        let sigma = self.receptor.surface_stress_at(sample.coverage)?;
        Ok(AssayPoint {
            time: sample.time,
            coverage: sample.coverage,
            output: self.transfer * sigma.value() + self.noise.sample(),
        })
    }
}

fn ensure_averaging(averaging: usize) -> Result<(), CoreError> {
    if averaging == 0 {
        return Err(CoreError::Config {
            reason: "averaging must be at least 1".to_owned(),
        });
    }
    Ok(())
}

/// [`run_static_assay`] against an already-measured chain response: each
/// sample through the per-point transduction, collected. `noise_seed`
/// seeds the per-point white noise (the plain runner derives it from the
/// system config's seed).
///
/// # Errors
///
/// Returns [`CoreError`] on zero averaging or coverage→stress failures.
pub fn run_static_assay_precomputed(
    chain: &StaticChainResponse,
    receptor: &ReceptorLayer,
    sensorgram: &Sensorgram,
    averaging: usize,
    noise_seed: u64,
) -> Result<AssayTrace, CoreError> {
    let mut transducer = StaticTransducer::new(chain, receptor, averaging, noise_seed)?;
    let mut points = Vec::with_capacity(sensorgram.len());
    for sample in sensorgram.samples() {
        points.push(transducer.point(sample)?);
    }
    Ok(AssayTrace { points, unit: "V" })
}

/// The two peaks a static dose-response point reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticAssayPeaks {
    /// Signed output extremum relative to the first point, V — the
    /// trace's [`AssayTrace::peak_signal`].
    pub peak_signal: f64,
    /// Highest coverage reached — the sensorgram's
    /// [`Sensorgram::peak_coverage`].
    pub peak_coverage: f64,
}

/// Streams `samples` through the per-point transduction of
/// [`run_static_assay_precomputed`] and folds both peaks as it goes,
/// keeping no buffer that grows with the sample count: the path the
/// sensor farm takes for a dose-response job.
///
/// Bit for bit, `peak_signal` is
/// `run_static_assay_precomputed(..).peak_signal()` and `peak_coverage`
/// is the sensorgram's `peak_coverage()` over the same samples, because
/// the per-point arithmetic and the fold steps are the ones those use.
///
/// # Errors
///
/// Returns [`CoreError`] on zero averaging or coverage→stress failures.
pub fn static_assay_peaks(
    chain: &StaticChainResponse,
    receptor: &ReceptorLayer,
    samples: impl IntoIterator<Item = SensorgramSample>,
    averaging: usize,
    noise_seed: u64,
) -> Result<StaticAssayPeaks, CoreError> {
    let mut transducer = StaticTransducer::new(chain, receptor, averaging, noise_seed)?;
    let mut first = None;
    let mut peaks = StaticAssayPeaks {
        peak_signal: 0.0,
        peak_coverage: 0.0,
    };
    for sample in samples {
        let output = transducer.point(&sample)?.output;
        let deviation = output - *first.get_or_insert(output);
        peaks.peak_signal = peak_signal_step(peaks.peak_signal, deviation);
        peaks.peak_coverage = peak_coverage_step(peaks.peak_coverage, sample.coverage);
    }
    Ok(peaks)
}

/// Runs a sensorgram through the resonant system: coverage → bound mass →
/// loaded oscillation frequency, with counter quantization at the given
/// gate time.
///
/// # Errors
///
/// Returns [`CoreError`] on invalid gate time or mass evaluation.
pub fn run_resonant_assay(
    system: &ResonantCantileverSystem,
    receptor: &ReceptorLayer,
    analyte: &Analyte,
    sensorgram: &Sensorgram,
    counter_gate: Seconds,
) -> Result<AssayTrace, CoreError> {
    if counter_gate.value() <= 0.0 {
        return Err(CoreError::Config {
            reason: "counter gate must be positive".to_owned(),
        });
    }
    let area = system.chip().geometry().plan_area();
    let loading = system.mass_loading();
    let quant = 1.0 / counter_gate.value();

    let points = sensorgram
        .samples()
        .iter()
        .map(|s| {
            let mass = receptor.bound_mass(analyte, area, s.coverage)?;
            let f = loading.loaded_frequency(mass);
            // gated-counter quantization: floor to whole counts in the gate
            let counted = (f.value() * counter_gate.value()).floor() / counter_gate.value();
            Ok(AssayPoint {
                time: s.time,
                coverage: s.coverage,
                output: counted,
            })
        })
        .collect::<Result<Vec<_>, CoreError>>()?;

    let _ = Hertz::new(quant);
    Ok(AssayTrace { points, unit: "Hz" })
}

/// Converts a resonant trace (Hz) into frequency *shift* relative to its
/// first point — the quantity Figure 2 sketches.
#[must_use]
pub fn to_frequency_shift(trace: &AssayTrace) -> Vec<(Seconds, f64)> {
    let Some(first) = trace.points.first() else {
        return Vec::new();
    };
    trace
        .points
        .iter()
        .map(|p| (p.time, p.output - first.output))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::{BiosensorChip, Environment};
    use crate::resonant_system::ResonantLoopConfig;
    use crate::static_system::StaticReadoutConfig;
    use canti_bio::assay::AssayProtocol;
    use canti_bio::kinetics::LangmuirKinetics;
    use canti_units::Molar;

    fn sensorgram() -> Sensorgram {
        let protocol = AssayProtocol::standard(
            Seconds::new(30.0),
            Molar::from_nanomolar(50.0),
            Seconds::new(600.0),
            Seconds::new(300.0),
        );
        let kinetics = LangmuirKinetics::from_receptor(&ReceptorLayer::anti_igg());
        protocol.run(&kinetics, Seconds::new(5.0), 0.0).unwrap()
    }

    #[test]
    fn static_assay_produces_rising_voltage() {
        let mut sys = StaticCantileverSystem::new(
            BiosensorChip::paper_static_chip().unwrap(),
            StaticReadoutConfig::default(),
        )
        .unwrap();
        let trace =
            run_static_assay(&mut sys, &ReceptorLayer::anti_igg(), &sensorgram(), 100).unwrap();
        assert_eq!(trace.unit, "V");
        assert_eq!(trace.points.len(), sensorgram().len());
        let peak = trace.peak_signal();
        assert!(peak.abs() > 1e-3, "binding must move the output: {peak} V");
        // baseline flat-ish: before injection the output stays near zero
        let baseline = trace.output_at(Seconds::new(20.0)).unwrap();
        assert!(
            baseline.abs() < peak.abs() / 5.0,
            "baseline {baseline} vs peak {peak}"
        );
        assert!(run_static_assay(&mut sys, &ReceptorLayer::anti_igg(), &sensorgram(), 0).is_err());
    }

    #[test]
    fn streamed_peaks_match_the_collected_trace() {
        let chain = StaticChainResponse {
            transfer_volts_per_stress: 2.0,
            noise_rms_volts: 1e-3,
        };
        let layer = ReceptorLayer::anti_igg();
        let gram = sensorgram();
        let trace = run_static_assay_precomputed(&chain, &layer, &gram, 4, 9).unwrap();
        assert_eq!(trace.points.capacity(), gram.len());
        let peaks =
            static_assay_peaks(&chain, &layer, gram.samples().iter().copied(), 4, 9).unwrap();
        assert_eq!(peaks.peak_signal.to_bits(), trace.peak_signal().to_bits());
        assert_eq!(
            peaks.peak_coverage.to_bits(),
            gram.peak_coverage().to_bits()
        );

        // an empty stream folds to the empty trace's and sensorgram's zeros
        let empty = static_assay_peaks(&chain, &layer, std::iter::empty(), 4, 9).unwrap();
        assert_eq!(empty.peak_signal, 0.0);
        assert_eq!(empty.peak_coverage, Sensorgram::default().peak_coverage());
        assert!(static_assay_peaks(&chain, &layer, std::iter::empty(), 0, 9).is_err());
    }

    #[test]
    fn traced_static_assay_is_bit_identical_and_emits_stage_spans() {
        use canti_obs::clock::VirtualClock;
        use canti_obs::trace::{EventKind, RingCollector};
        use std::sync::Arc;

        let fresh = || {
            StaticCantileverSystem::new(
                BiosensorChip::paper_static_chip().unwrap(),
                StaticReadoutConfig::default(),
            )
            .unwrap()
        };
        let sg = sensorgram();
        let plain = run_static_assay(&mut fresh(), &ReceptorLayer::anti_igg(), &sg, 100).unwrap();

        let ring = Arc::new(RingCollector::new(64));
        let tracer = Tracer::new(Arc::clone(&ring), Arc::new(VirtualClock::new()));
        let traced =
            run_static_assay_traced(&mut fresh(), &ReceptorLayer::anti_igg(), &sg, 100, &tracer)
                .unwrap();
        assert_eq!(plain, traced, "tracing must not perturb the assay");

        let stream: Vec<(EventKind, String)> = ring
            .events()
            .iter()
            .map(|e| (e.kind, e.name.to_owned()))
            .collect();
        use EventKind as K;
        let expected: Vec<(EventKind, String)> = [
            (K::SpanStart, "static_assay"),
            (K::SpanStart, "chain_measure"),
            (K::SpanEnd, "chain_measure"),
            (K::SpanStart, "transduce"),
            (K::SpanEnd, "transduce"),
            (K::SpanEnd, "static_assay"),
        ]
        .into_iter()
        .map(|(k, n)| (k, n.to_owned()))
        .collect();
        assert_eq!(stream, expected);
    }

    #[test]
    fn resonant_assay_frequency_falls_with_binding() {
        let sys = ResonantCantileverSystem::new(
            BiosensorChip::paper_resonant_chip().unwrap(),
            Environment::air(),
            ResonantLoopConfig::default(),
        )
        .unwrap();
        let trace = run_resonant_assay(
            &sys,
            &ReceptorLayer::anti_igg(),
            &Analyte::igg(),
            &sensorgram(),
            Seconds::new(10.0),
        )
        .unwrap();
        assert_eq!(trace.unit, "Hz");
        let shift = trace.peak_signal();
        assert!(shift < 0.0, "bound mass lowers the frequency: {shift} Hz");
        let shifts = to_frequency_shift(&trace);
        assert_eq!(shifts.len(), trace.points.len());
        assert_eq!(shifts[0].1, 0.0);
        // gate quantization: all outputs land on the 0.1 Hz grid
        for p in &trace.points {
            let on_grid = (p.output * 10.0).round() / 10.0;
            assert!((p.output - on_grid).abs() < 1e-9);
        }
        assert!(run_resonant_assay(
            &sys,
            &ReceptorLayer::anti_igg(),
            &Analyte::igg(),
            &sensorgram(),
            Seconds::zero()
        )
        .is_err());
    }

    #[test]
    fn trace_helpers() {
        let trace = AssayTrace {
            points: vec![
                AssayPoint {
                    time: Seconds::new(0.0),
                    coverage: 0.0,
                    output: 1.0,
                },
                AssayPoint {
                    time: Seconds::new(1.0),
                    coverage: 0.5,
                    output: 3.0,
                },
                AssayPoint {
                    time: Seconds::new(2.0),
                    coverage: 0.4,
                    output: 2.5,
                },
            ],
            unit: "V",
        };
        assert_eq!(trace.peak_signal(), 2.0);
        assert_eq!(trace.output_at(Seconds::new(1.1)).unwrap(), 3.0);
        let empty = AssayTrace {
            points: vec![],
            unit: "V",
        };
        assert_eq!(empty.peak_signal(), 0.0);
        assert!(empty.output_at(Seconds::zero()).is_none());
        assert!(to_frequency_shift(&empty).is_empty());
    }
}
