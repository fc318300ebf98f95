//! The resonant cantilever system — Figure 5 of the paper.
//!
//! The cantilever sits inside a self-sustaining electromechanical loop:
//!
//! ```text
//!  PMOS Wheatstone bridge ──► DDA instrumentation amp ──► HPFs ──► VGA+AGC
//!        ▲                                                            │
//!        │ (piezoresistive                                            ▼
//!        │  sensing of x)                                    non-linear limiter
//!   cantilever ◄── Lorentz force ◄── coil ◄── class-AB buffer ◄──────┘
//! ```
//!
//! "The actuation of the cantilever is performed by a coil along the
//! cantilever edges … together with a permanent magnet … the acting
//! Lorentz force leads to a bending of the cantilever. … A feedback loop
//! has been designed in order to stabilize the resonant mode. … High-pass
//! filters in the feedback loop improve the signal-to-noise ratio by
//! damping the low-frequency noise originating in the MOS-based Wheatstone
//! bridge. A variable gain amplifier allows to adjust to different
//! mechanical damping … A non-linear amplifier limits the amplitude of the
//! feedback loop for stable operation and drives the low-resistance coil
//! via a class AB output buffer."
//!
//! The loop needs ≈ +90° of electrical phase at the oscillation frequency
//! (the mechanical response contributes −90° at resonance); here — as in
//! many such loops — one of the high-pass filters is placed *above* the
//! resonance so its leading phase provides it, and the oscillation settles
//! at the loop's phase-balance point slightly below the mechanical f₀.
//! Mass-induced *shifts* of f₀ translate one-to-one.

use canti_analog::blocks::{
    AgcVga, Block, ClassAbBuffer, DdaInstrumentationAmplifier, HighPassFilter, NonlinearLimiter,
};
use canti_analog::bridge::WheatstoneBridge;
use canti_analog::noise::{CompositeNoise, FlickerNoise, WhiteNoise};
use canti_digital::comparator::ZeroCrossingDetector;
use canti_mems::dynamics::{Resonator, ResonatorState};
use canti_mems::mass_loading::{MassLoading, MassPlacement};
use canti_mems::piezo::{bridge_deltas, full_bridge_gauges, LoadCase};
use canti_obs::Tracer;
use canti_units::{Amperes, Hertz, Kilograms, Meters, Newtons, Seconds, Volts};

use crate::chip::{BiosensorChip, Environment};
use crate::CoreError;

/// Electrical configuration of the resonant feedback loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ResonantLoopConfig {
    /// Simulation samples per (fluid-loaded) oscillation period.
    pub oversample: f64,
    /// DDA differential gain.
    pub dda_gain: f64,
    /// DDA common-mode rejection ratio (linear).
    pub dda_cmrr: f64,
    /// DDA input white noise, V/√Hz.
    pub dda_white_noise: f64,
    /// Bridge+DDA flicker noise at 1 Hz, V/√Hz (the MOS bridge's 1/f the
    /// high-pass filters are there to kill).
    pub flicker_at_1hz: f64,
    /// Low high-pass corner as a fraction of f₀ (flicker removal).
    pub hpf_low_fraction: f64,
    /// Phase-lead high-pass corner as a multiple of f₀.
    pub hpf_lead_factor: f64,
    /// VGA gain range.
    pub vga_min: f64,
    /// VGA maximum gain.
    pub vga_max: f64,
    /// AGC amplitude target at the VGA output, V.
    pub agc_target: Volts,
    /// AGC time constant in oscillation periods.
    pub agc_periods: f64,
    /// Limiter output bound, V.
    pub limiter_limit: Volts,
    /// Limiter small-signal gain.
    pub limiter_gain: f64,
    /// Class-AB output current limit.
    pub buffer_i_max: Amperes,
    /// Class-AB slew rate, V/s.
    pub buffer_slew: f64,
    /// Noise seed.
    pub seed: u64,
}

impl Default for ResonantLoopConfig {
    fn default() -> Self {
        Self {
            oversample: 40.0,
            dda_gain: 50.0,
            dda_cmrr: 1e5,
            dda_white_noise: 20e-9,
            flicker_at_1hz: 5e-6,
            hpf_low_fraction: 0.01,
            hpf_lead_factor: 5.0,
            vga_min: 1.0,
            vga_max: 2000.0,
            agc_target: Volts::from_millivolts(50.0),
            agc_periods: 60.0,
            limiter_limit: Volts::new(0.5),
            limiter_gain: 10.0,
            buffer_i_max: Amperes::from_milliamps(2.0),
            buffer_slew: 5e6,
            seed: 0x0511,
        }
    }
}

/// A recorded run of the closed loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopRecord {
    /// Cantilever tip displacement waveform, m.
    pub displacement: Vec<f64>,
    /// Coil drive voltage waveform, V.
    pub drive: Vec<f64>,
    /// Bridge output waveform, V.
    pub bridge: Vec<f64>,
    /// Simulation sample rate, Hz.
    pub sample_rate: f64,
}

impl LoopRecord {
    /// Peak displacement over the last `fraction` of the record.
    #[must_use]
    pub fn tail_amplitude(&self, fraction: f64) -> Meters {
        let start = ((1.0 - fraction.clamp(0.0, 1.0)) * self.displacement.len() as f64) as usize;
        Meters::new(
            self.displacement[start..]
                .iter()
                .fold(0.0f64, |m, &x| m.max(x.abs())),
        )
    }

    /// Estimates the oscillation frequency from interpolated rising-edge
    /// times of the displacement, by least-squares regression of edge time
    /// against edge index (far below the ±1-count quantization of a simple
    /// gated counter).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OscillationFailed`] when fewer than 8 cycles
    /// are present.
    pub fn oscillation_frequency(&self) -> Result<Hertz, CoreError> {
        // use only the settled second half
        let half = &self.displacement[self.displacement.len() / 2..];
        let amp = half.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        if amp <= 0.0 {
            return Err(CoreError::OscillationFailed {
                reason: "no displacement in the record".to_owned(),
            });
        }
        let normalized: Vec<f64> = half.iter().map(|&x| x / amp).collect();
        let mut det = ZeroCrossingDetector::new(0.1).map_err(CoreError::Digital)?;
        let edges = det.rising_edges(&normalized);
        if edges.len() < 8 {
            return Err(CoreError::OscillationFailed {
                reason: format!("only {} cycles in the record", edges.len()),
            });
        }
        // least-squares slope of t_i (seconds) vs i
        let n = edges.len() as f64;
        let mean_i = (n - 1.0) / 2.0;
        let mean_t = edges.iter().sum::<f64>() / n / self.sample_rate;
        let mut num = 0.0;
        let mut den = 0.0;
        for (i, &e) in edges.iter().enumerate() {
            let di = i as f64 - mean_i;
            num += di * (e / self.sample_rate - mean_t);
            den += di * di;
        }
        let period = num / den;
        if period <= 0.0 {
            return Err(CoreError::OscillationFailed {
                reason: "non-positive period fit".to_owned(),
            });
        }
        Ok(Hertz::new(1.0 / period))
    }
}

/// Steady-state summary of a running loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OscillationSummary {
    /// Measured oscillation frequency.
    pub frequency: Hertz,
    /// Steady displacement amplitude.
    pub amplitude: Meters,
    /// The VGA gain the AGC settled at — the "knob" that absorbs liquid
    /// damping.
    pub vga_gain: f64,
    /// Drive amplitude at the coil.
    pub drive_amplitude: Volts,
}

/// The complete resonant-mode biosensor system.
///
/// # Examples
///
/// ```no_run
/// use canti_core::chip::{BiosensorChip, Environment};
/// use canti_core::resonant_system::{ResonantCantileverSystem, ResonantLoopConfig};
///
/// let chip = BiosensorChip::paper_resonant_chip()?;
/// let mut sys = ResonantCantileverSystem::new(chip, Environment::air(), ResonantLoopConfig::default())?;
/// let summary = sys.steady_state(400)?;
/// assert!(summary.frequency.as_kilohertz() > 10.0);
/// # Ok::<(), canti_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct ResonantCantileverSystem {
    chip: BiosensorChip,
    environment: Environment,
    config: ResonantLoopConfig,
    resonator: Resonator,
    /// The unloaded (no analyte) resonator, kept for Δf bookkeeping.
    unloaded: Resonator,
    /// Bridge ΔR/R per meter of tip displacement, `[L, T, L, T]`.
    dr_per_meter: [f64; 4],
    bridge: WheatstoneBridge,
    sample_rate: f64,
    dda: DdaInstrumentationAmplifier,
    hpf_low: HighPassFilter,
    hpf_lead: HighPassFilter,
    vga: AgcVga,
    limiter: NonlinearLimiter,
    buffer: ClassAbBuffer,
    thermal_force: WhiteNoise,
    state: ResonatorState,
    added_mass: Kilograms,
}

impl ResonantCantileverSystem {
    /// Builds the loop around `chip` operating in `environment`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] when the chip has no coil or the configuration
    /// is invalid.
    pub fn new(
        chip: BiosensorChip,
        environment: Environment,
        config: ResonantLoopConfig,
    ) -> Result<Self, CoreError> {
        if chip.coil().is_none() {
            return Err(CoreError::Config {
                reason: "resonant system requires an actuation coil".to_owned(),
            });
        }
        let resonator =
            Resonator::from_beam_in_fluid(chip.beam(), &environment.medium, chip.intrinsic_q())?;
        let f0 = resonator.resonant_frequency();
        let fs = config.oversample * f0.value();

        // piezoresistive transduction, linear in amplitude: evaluate at 1 nm
        let gauges = full_bridge_gauges(chip.beam(), true, (0.0, 0.15))?;
        let per_nm = bridge_deltas(
            &gauges,
            chip.beam(),
            LoadCase::Mode1TipAmplitude(Meters::from_nanometers(1.0)),
        )?;
        let dr_per_meter = [
            per_nm[0] * 1e9,
            per_nm[1] * 1e9,
            per_nm[2] * 1e9,
            per_nm[3] * 1e9,
        ];

        let noise = CompositeNoise::new(
            WhiteNoise::new(config.dda_white_noise, fs, config.seed)?,
            FlickerNoise::new(
                config.flicker_at_1hz,
                f0.value() * 1e-4,
                fs / 4.0,
                fs,
                config.seed.wrapping_add(3),
            )?,
        );
        // wide-band first stage: corner an octave+ above the lead HPF so
        // its lag at f0 stays small, but safely below Nyquist
        let dda_bandwidth = (2.0 * config.hpf_lead_factor * f0.value()).min(fs / 4.0);
        let dda = DdaInstrumentationAmplifier::new(
            config.dda_gain,
            config.dda_cmrr,
            noise,
            dda_bandwidth,
            fs,
        )?;
        let hpf_low = HighPassFilter::new(config.hpf_low_fraction * f0.value(), fs)?;
        let hpf_lead = HighPassFilter::new(config.hpf_lead_factor * f0.value(), fs)?;
        let vga = AgcVga::new(
            config.vga_min,
            config.vga_max,
            config.agc_target.value(),
            config.agc_periods * config.oversample,
        )?;
        let limiter = NonlinearLimiter::new(config.limiter_limit, config.limiter_gain)?;
        let coil = chip.coil().expect("checked above");
        let buffer = ClassAbBuffer::new(
            config.buffer_i_max,
            coil.resistance(),
            config.buffer_slew,
            fs,
        )?;
        let thermal_force = WhiteNoise::new(
            resonator.thermal_force_noise_density(environment.temperature),
            fs,
            config.seed.wrapping_add(11),
        )?;

        let bridge = chip.bridge().clone();
        Ok(Self {
            chip,
            environment,
            config,
            resonator,
            unloaded: resonator,
            dr_per_meter,
            bridge,
            sample_rate: fs,
            dda,
            hpf_low,
            hpf_lead,
            vga,
            limiter,
            buffer,
            thermal_force,
            state: ResonatorState { x: 1e-12, v: 0.0 },
            added_mass: Kilograms::zero(),
        })
    }

    /// The chip in use.
    #[must_use]
    pub fn chip(&self) -> &BiosensorChip {
        &self.chip
    }

    /// The operating environment.
    #[must_use]
    pub fn environment(&self) -> &Environment {
        &self.environment
    }

    /// The fluid-loaded resonator currently in the loop (including any
    /// added mass).
    #[must_use]
    pub fn resonator(&self) -> Resonator {
        self.resonator
    }

    /// Simulation sample rate.
    #[must_use]
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Currently applied analyte mass.
    #[must_use]
    pub fn added_mass(&self) -> Kilograms {
        self.added_mass
    }

    /// The analytic mass-loading model of the unloaded resonator
    /// (distributed placement — a bound monolayer covers the whole beam).
    #[must_use]
    pub fn mass_loading(&self) -> MassLoading {
        MassLoading::new(self.unloaded, MassPlacement::Distributed)
    }

    /// Applies (replaces) the bound analyte mass; the resonator is
    /// re-derived, the loop state carries over — like binding happening
    /// while the oscillator runs.
    pub fn set_added_mass(&mut self, dm: Kilograms) {
        self.added_mass = dm;
        let dm_eff = dm.value().max(0.0) * MassPlacement::Distributed.modal_weight();
        self.resonator = self.unloaded.with_added_tip_mass(Kilograms::new(dm_eff));
    }

    /// Advances the loop by `n` samples, recording waveforms.
    pub fn run(&mut self, n: usize) -> LoopRecord {
        let mut displacement = Vec::with_capacity(n);
        let mut drive_v = Vec::with_capacity(n);
        let mut bridge_v = Vec::with_capacity(n);
        let coil = self.chip.coil().expect("coil checked at construction");
        let r_coil = coil.resistance().value();
        let field = self.chip.magnet_field();
        let dt = Seconds::new(1.0 / self.sample_rate);
        let vb = self.chip.bridge_bias();

        for _ in 0..n {
            // sense
            let x = self.state.x;
            let deltas = [
                self.dr_per_meter[0] * x,
                self.dr_per_meter[1] * x,
                self.dr_per_meter[2] * x,
                self.dr_per_meter[3] * x,
            ];
            let v_bridge = self.bridge.output_from_gauges(vb, deltas).value();

            // amplify, filter, control, limit, drive
            let v1 = self.dda.process(v_bridge);
            let v2 = self.hpf_low.process(v1);
            let v3 = self.hpf_lead.process(v2);
            let v4 = self.vga.process(v3);
            let v5 = self.limiter.process(v4);
            let v_drive = self.buffer.process(v5);

            // actuate
            let i = Amperes::new(v_drive / r_coil);
            let force = coil.force(field, i);
            let noise_force = Newtons::new(self.thermal_force.sample());
            self.state = self.resonator.step(self.state, force + noise_force, dt);

            displacement.push(self.state.x);
            drive_v.push(v_drive);
            bridge_v.push(v_bridge);
        }

        LoopRecord {
            displacement,
            drive: drive_v,
            bridge: bridge_v,
            sample_rate: self.sample_rate,
        }
    }

    /// Runs the loop for `periods` oscillation periods and summarizes the
    /// settled behaviour (frequency from the second half of the record).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OscillationFailed`] if no oscillation builds
    /// up.
    pub fn steady_state(&mut self, periods: usize) -> Result<OscillationSummary, CoreError> {
        self.steady_state_traced(periods, &Tracer::disabled())
    }

    /// [`Self::steady_state`] with structured tracing: a `ring_up` span
    /// around the closed-loop simulation, then an `oscillation_settled`
    /// event (frequency/amplitude/VGA gain) or an `oscillation_failed`
    /// event with the failure reason. Tracing is strictly additive — the
    /// returned summary is bit-identical to the untraced runner's.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OscillationFailed`] if no oscillation builds
    /// up.
    pub fn steady_state_traced(
        &mut self,
        periods: usize,
        tracer: &Tracer,
    ) -> Result<OscillationSummary, CoreError> {
        let n = (periods as f64 * self.config.oversample) as usize;
        let ring_up = tracer.span(
            "ring_up",
            &[("periods", periods.into()), ("samples", n.into())],
        );
        let record = self.run(n);
        ring_up.end();
        let amplitude = record.tail_amplitude(0.2);
        if amplitude.value() < 1e-12 {
            let reason = format!(
                "amplitude {:.3e} m after {periods} periods",
                amplitude.value()
            );
            tracer.event("oscillation_failed", &[("reason", reason.clone().into())]);
            return Err(CoreError::OscillationFailed { reason });
        }
        let frequency = match record.oscillation_frequency() {
            Ok(f) => f,
            Err(e) => {
                tracer.event("oscillation_failed", &[("reason", e.to_string().into())]);
                return Err(e);
            }
        };
        let tail = record.drive.len() * 4 / 5;
        let drive_amplitude = record.drive[tail..]
            .iter()
            .fold(0.0f64, |m, &v| m.max(v.abs()));
        let summary = OscillationSummary {
            frequency,
            amplitude,
            vga_gain: self.vga.gain(),
            drive_amplitude: Volts::new(drive_amplitude),
        };
        tracer.event(
            "oscillation_settled",
            &[
                ("frequency_hz", frequency.value().into()),
                ("amplitude_m", amplitude.value().into()),
                ("vga_gain", summary.vga_gain.into()),
            ],
        );
        Ok(summary)
    }

    /// The loop's small-signal electrical forward gain from bridge output
    /// to drive voltage at mid-band (VGA at its current gain) — a design
    /// diagnostic.
    #[must_use]
    pub fn forward_gain_estimate(&self) -> f64 {
        self.config.dda_gain * self.vga.gain() * self.config.limiter_gain
    }

    /// Open-loop frequency response: drives the coil directly with a tone
    /// at each frequency (feedback opened) and measures the bridge-output
    /// amplitude per volt of drive — the literal "resonance curve" of the
    /// paper's Figure 2, measured through the real transducer path.
    ///
    /// Each point settles for ~5·Q/π cycles before measuring, so sweeping
    /// a high-Q beam in air takes a few seconds.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if a drive frequency is at/above Nyquist.
    pub fn open_loop_response(
        &mut self,
        frequencies: &[Hertz],
        drive_amplitude: Volts,
    ) -> Result<Vec<(Hertz, f64)>, CoreError> {
        let coil = self.chip.coil().expect("coil checked at construction");
        let r_coil = coil.resistance().value();
        let field = self.chip.magnet_field();
        let dt = Seconds::new(1.0 / self.sample_rate);
        let vb = self.chip.bridge_bias();
        let q = self.resonator.quality_factor();

        let mut out = Vec::with_capacity(frequencies.len());
        for &f in frequencies {
            if f.value() >= self.sample_rate / 2.0 {
                return Err(CoreError::Config {
                    reason: format!(
                        "drive frequency {} above Nyquist for fs {}",
                        f.value(),
                        self.sample_rate
                    ),
                });
            }
            // settle ~5 ring-up time constants, then measure 30 cycles
            let cycles_settle = (5.0 * q / std::f64::consts::PI).ceil().max(20.0);
            let samples_per_cycle = self.sample_rate / f.value();
            let n_settle = (cycles_settle * samples_per_cycle) as usize;
            let n_measure = (30.0 * samples_per_cycle) as usize;

            let mut state = ResonatorState::default();
            let mut record = Vec::with_capacity(n_measure);
            for i in 0..(n_settle + n_measure) {
                let t = i as f64 * dt.value();
                let v_drive = drive_amplitude.value() * (f.angular() * t).sin();
                let current = Amperes::new(v_drive / r_coil);
                let force = coil.force(field, current);
                state = self.resonator.step(state, force, dt);
                if i >= n_settle {
                    let deltas = [
                        self.dr_per_meter[0] * state.x,
                        self.dr_per_meter[1] * state.x,
                        self.dr_per_meter[2] * state.x,
                        self.dr_per_meter[3] * state.x,
                    ];
                    record.push(self.bridge.output_from_gauges(vb, deltas).value());
                }
            }
            let amp =
                canti_analog::spectrum::goertzel_amplitude(&record, self.sample_rate, f.value())
                    .map_err(CoreError::Analog)?;
            out.push((f, amp / drive_amplitude.value()));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canti_bio::liquid::Liquid;
    use canti_units::Kelvin;

    fn build(env: Environment) -> ResonantCantileverSystem {
        ResonantCantileverSystem::new(
            BiosensorChip::paper_resonant_chip().unwrap(),
            env,
            ResonantLoopConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn loop_starts_and_sustains_in_air() {
        use canti_obs::clock::VirtualClock;
        use canti_obs::ndjson::JsonValue;
        use canti_obs::trace::{Collector, RingCollector};
        use std::sync::Arc;

        let ring = Arc::new(RingCollector::new(16));
        let tracer = Tracer::new(
            Arc::clone(&ring) as Arc<dyn Collector>,
            Arc::new(VirtualClock::new()),
        );
        let mut sys = build(Environment::air());
        let summary = sys.steady_state_traced(1200, &tracer).unwrap();
        let f0 = sys.resonator().resonant_frequency().value();
        // oscillates near (slightly below) the mechanical resonance
        assert!(
            summary.frequency.value() > 0.9 * f0 && summary.frequency.value() < 1.01 * f0,
            "oscillation at {} vs f0 {f0}",
            summary.frequency.value()
        );
        assert!(summary.amplitude.value() > 1e-9, "visible amplitude");
        assert!(summary.drive_amplitude.value() > 1e-3, "real drive");
        // the ring-up span and the settled event carry the same numbers
        let events = ring.events();
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["ring_up", "ring_up", "oscillation_settled"]);
        let settled = &events[2];
        assert_eq!(
            settled.field("frequency_hz"),
            Some(&JsonValue::F64(summary.frequency.value()))
        );
        assert_eq!(
            settled.field("vga_gain"),
            Some(&JsonValue::F64(summary.vga_gain))
        );
    }

    #[test]
    fn loop_starts_in_water_with_higher_vga_gain() {
        let t = Kelvin::from_celsius(25.0);
        let mut air = build(Environment::air());
        let mut water = build(Environment::liquid(Liquid::water(t)));
        let sa = air.steady_state(1200).unwrap();
        let sw = water.steady_state(1200).unwrap();
        // water: heavier damping -> the AGC must serve more gain
        assert!(
            sw.vga_gain > sa.vga_gain,
            "VGA in water {} must exceed air {}",
            sw.vga_gain,
            sa.vga_gain
        );
        // and the oscillation frequency is pulled far down by fluid mass
        assert!(sw.frequency.value() < 0.8 * sa.frequency.value());
    }

    #[test]
    fn added_mass_lowers_oscillation_frequency() {
        let mut sys = build(Environment::air());
        let _ = sys.steady_state(800).unwrap();
        let f_before = sys.steady_state(600).unwrap().frequency.value();
        // 2 ng calibration mass
        sys.set_added_mass(Kilograms::from_nanograms(2.0));
        let _ = sys.run(20_000); // re-settle
        let f_after = sys.steady_state(600).unwrap().frequency.value();
        assert!(
            f_after < f_before,
            "mass must pull frequency down: {f_before} -> {f_after}"
        );
        // shift magnitude in the analytically expected ballpark
        let expected = sys
            .mass_loading()
            .frequency_shift(Kilograms::from_nanograms(2.0))
            .value()
            .abs();
        let measured = f_before - f_after;
        assert!(
            measured > expected * 0.5 && measured < expected * 2.0,
            "measured shift {measured} Hz vs analytic {expected} Hz"
        );
    }

    #[test]
    fn chip_without_coil_is_rejected() {
        let chip = BiosensorChip::paper_static_chip().unwrap();
        assert!(matches!(
            ResonantCantileverSystem::new(chip, Environment::air(), ResonantLoopConfig::default()),
            Err(CoreError::Config { .. })
        ));
    }

    #[test]
    fn record_frequency_estimator_rejects_empty() {
        let record = LoopRecord {
            displacement: vec![0.0; 1000],
            drive: vec![0.0; 1000],
            bridge: vec![0.0; 1000],
            sample_rate: 1e6,
        };
        assert!(record.oscillation_frequency().is_err());
    }

    #[test]
    fn open_loop_response_peaks_at_resonance() {
        // sweep in water (low Q => fast settling, wide peak)
        let t = Kelvin::from_celsius(25.0);
        let mut sys = build(Environment::liquid(Liquid::water(t)));
        let f0 = sys.resonator().resonant_frequency();
        let q = sys.resonator().quality_factor();
        let freqs: Vec<canti_units::Hertz> = [0.2, 0.6, 0.9, 1.0, 1.1, 1.5, 2.5]
            .iter()
            .map(|&r| canti_units::Hertz::new(r * f0.value()))
            .collect();
        let response = sys
            .open_loop_response(&freqs, Volts::from_millivolts(10.0))
            .unwrap();
        // the on-resonance point is the maximum
        let peak_idx = response
            .iter()
            .enumerate()
            .max_by(|a, b| a.1 .1.partial_cmp(&b.1 .1).unwrap())
            .unwrap()
            .0;
        assert_eq!(freqs[peak_idx].value(), f0.value(), "{response:?}");
        // peak-to-DC ratio ~ Q (within 30 %: finite settling + off-grid tones)
        let dc_ish = response[0].1;
        let peak = response[peak_idx].1;
        let ratio = peak / dc_ish;
        assert!((ratio / q - 1.0).abs() < 0.3, "peak/DC {ratio} vs Q {q}");
        // Nyquist guard
        let too_fast = [canti_units::Hertz::new(sys.sample_rate())];
        assert!(sys
            .open_loop_response(&too_fast, Volts::from_millivolts(1.0))
            .is_err());
    }

    #[test]
    fn amplitude_is_limited_not_runaway() {
        let mut sys = build(Environment::air());
        let s1 = sys.steady_state(800).unwrap();
        let s2 = sys.steady_state(400).unwrap();
        // amplitude stable between successive windows (limiter + buffer cap)
        let ratio = s2.amplitude.value() / s1.amplitude.value();
        assert!(
            (0.5..2.0).contains(&ratio),
            "amplitude must be regulated: {} -> {}",
            s1.amplitude.value(),
            s2.amplitude.value()
        );
        // and physically sane: below a micron
        assert!(s2.amplitude.value() < 1e-6);
    }
}
