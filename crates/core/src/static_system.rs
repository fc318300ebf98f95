//! The static cantilever system — Figure 4 of the paper.
//!
//! "An array of four cantilevers is connected to the readout amplifiers by
//! an analog multiplexer. A chopper-stabilized amplifier as first stage
//! performs a low-noise, low-offset amplification of the weak sensor
//! signal. This first stage is followed by a low-pass filter to improve
//! the signal-to-noise ratio, a programmable offset compensation stage and
//! two additional gain stages."
//!
//! Channel 3 is conventionally the *reference* cantilever (not
//! functionalized): subtracting it from a sensing channel rejects
//! common-mode drifts (temperature, non-specific adsorption).

use canti_analog::blocks::{
    AnalogMux, Block, ButterworthLowPass, ChopperAmplifier, GainStage, OffsetCompensation,
    ProgrammableGainAmplifier,
};
use canti_analog::bridge::WheatstoneBridge;
use canti_analog::noise::{CompositeNoise, FlickerNoise, WhiteNoise};
use canti_analog::spectrum::rms;
use canti_fault::{FaultInjector, MeasurementFaults};
use canti_mems::piezo::{bridge_deltas, full_bridge_gauges, LoadCase, PiezoGauge};
use canti_units::{SurfaceStress, Volts};

use crate::chip::BiosensorChip;
use crate::CoreError;

/// Number of cantilevers behind the multiplexer.
pub const CHANNELS: usize = 4;

/// Index of the non-functionalized reference cantilever.
pub const REFERENCE_CHANNEL: usize = 3;

/// Electrical configuration of the static readout chain.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticReadoutConfig {
    /// Simulation sample rate, Hz.
    pub sample_rate: f64,
    /// Chopper clock, Hz.
    pub chop_frequency: f64,
    /// First-stage (chopper amplifier) gain.
    pub chopper_gain: f64,
    /// Post-chopper low-pass corner, Hz.
    pub lpf_corner: f64,
    /// Gain ladder of the programmable second stage.
    pub pga_gains: Vec<f64>,
    /// Third-stage gain.
    pub output_gain: f64,
    /// Output saturation (supply rail), V.
    pub supply_rail: f64,
    /// Chopper amplifier input white noise, V/√Hz.
    pub amp_white_noise: f64,
    /// Chopper amplifier input flicker noise at 1 Hz, V/√Hz.
    pub amp_flicker_at_1hz: f64,
    /// Chopper amplifier input offset, V.
    pub amp_offset: Volts,
    /// Residual output offset after chopping, V.
    pub residual_offset: Volts,
    /// Offset-compensation DAC range, V.
    pub offset_dac_range: Volts,
    /// Offset-compensation DAC resolution, bits.
    pub offset_dac_bits: u32,
    /// Noise seed (simulations are reproducible per seed).
    pub seed: u64,
}

impl Default for StaticReadoutConfig {
    fn default() -> Self {
        Self {
            sample_rate: 1e6,
            chop_frequency: 20e3,
            chopper_gain: 100.0,
            lpf_corner: 500.0,
            pga_gains: vec![1.0, 2.0, 5.0, 10.0],
            output_gain: 10.0,
            supply_rail: 3.0,
            amp_white_noise: 15e-9,
            amp_flicker_at_1hz: 2e-6,
            amp_offset: Volts::from_millivolts(2.0),
            residual_offset: Volts::from_microvolts(50.0),
            offset_dac_range: Volts::new(2.0),
            offset_dac_bits: 10,
            seed: 0x0CA7,
        }
    }
}

/// The complete static-mode biosensor system.
///
/// # Examples
///
/// ```
/// use canti_core::chip::BiosensorChip;
/// use canti_core::static_system::{StaticCantileverSystem, StaticReadoutConfig};
/// use canti_units::SurfaceStress;
///
/// let chip = BiosensorChip::paper_static_chip()?;
/// let mut sys = StaticCantileverSystem::new(chip, StaticReadoutConfig::default())?;
/// sys.calibrate_offsets()?;
/// let v = sys.measure(0, SurfaceStress::from_millinewtons_per_meter(5.0), 20_000)?;
/// assert!(v.value().abs() > 1e-3, "5 mN/m must give a mV-scale output");
/// # Ok::<(), canti_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct StaticCantileverSystem {
    chip: BiosensorChip,
    config: StaticReadoutConfig,
    gauges: [PiezoGauge; 4],
    /// One bridge per cantilever, each with its own mismatch.
    bridges: Vec<WheatstoneBridge>,
    mux: AnalogMux,
    chopper: ChopperAmplifier,
    lpf: ButterworthLowPass,
    lpf2: ButterworthLowPass,
    offset_comp: OffsetCompensation,
    pga: ProgrammableGainAmplifier,
    output_stage: GainStage,
    /// Per-channel programmed DAC corrections (the shared DAC is reloaded
    /// on each channel switch).
    channel_offset_corrections: [Volts; CHANNELS],
    selected: usize,
    /// Optional fault-injection seam. `None` (the default) and an
    /// injector that never returns faults are provably equivalent: the
    /// fault effects are only applied when non-trivial.
    injector: Option<Box<dyn FaultInjector>>,
}

impl StaticCantileverSystem {
    /// Builds the system around `chip`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for invalid configuration.
    pub fn new(chip: BiosensorChip, config: StaticReadoutConfig) -> Result<Self, CoreError> {
        // distributed bridge over the full beam (uniform curvature)
        let gauges = full_bridge_gauges(chip.beam(), false, (0.0, 1.0))?;
        let bridges: Vec<WheatstoneBridge> = (0..CHANNELS)
            .map(|ch| {
                chip.bridge()
                    .clone()
                    .with_random_mismatch(0.002, config.seed.wrapping_add(ch as u64))
            })
            .collect();

        let noise = CompositeNoise::new(
            WhiteNoise::new(config.amp_white_noise, config.sample_rate, config.seed)?,
            FlickerNoise::new(
                config.amp_flicker_at_1hz,
                0.1,
                config.sample_rate / 4.0,
                config.sample_rate,
                config.seed.wrapping_add(17),
            )?,
        );
        let chopper = ChopperAmplifier::new(
            config.chopper_gain,
            config.chop_frequency,
            config.sample_rate,
            config.amp_offset,
            noise,
            config.residual_offset,
        )?;
        // 4th-order filtering (two cascaded biquads): the demodulated
        // amplifier offset is a square wave at f_chop and must be crushed
        // well below the microvolt-scale signal before further gain.
        let lpf = ButterworthLowPass::new(config.lpf_corner, config.sample_rate)?;
        let lpf2 = ButterworthLowPass::new(config.lpf_corner, config.sample_rate)?;
        let offset_comp = OffsetCompensation::new(config.offset_dac_range, config.offset_dac_bits)?;
        let pga = ProgrammableGainAmplifier::new(config.pga_gains.clone())?;
        let output_stage = GainStage::new(config.output_gain, Some(config.supply_rail));
        let mux = AnalogMux::new(CHANNELS, Volts::from_millivolts(10.0), 20.0)?;

        Ok(Self {
            chip,
            config,
            gauges,
            bridges,
            mux,
            chopper,
            lpf,
            lpf2,
            offset_comp,
            pga,
            output_stage,
            channel_offset_corrections: [Volts::zero(); CHANNELS],
            selected: 0,
            injector: None,
        })
    }

    /// Attaches a fault injector: every subsequent measurement draws its
    /// fault effects from it (one draw per attempt per channel, in call
    /// order — the injector's determinism contract).
    pub fn set_fault_injector(&mut self, injector: Box<dyn FaultInjector>) {
        self.injector = Some(injector);
    }

    /// Detaches the fault injector, returning it (e.g. to inspect its
    /// per-channel attempt counters).
    pub fn take_fault_injector(&mut self) -> Option<Box<dyn FaultInjector>> {
        self.injector.take()
    }

    /// Advances the injector one measurement attempt on `channel` and
    /// returns the faults active for it ([`MeasurementFaults::none`]
    /// without an injector). Callers pairing this with
    /// [`Self::measure_with_faults`] get exactly one draw per attempt;
    /// [`Self::measure`] does the pairing itself.
    pub fn draw_faults(&mut self, channel: usize) -> MeasurementFaults {
        match self.injector.as_mut() {
            Some(injector) => injector.next_faults(channel),
            None => MeasurementFaults::none(),
        }
    }

    /// The chip in use.
    #[must_use]
    pub fn chip(&self) -> &BiosensorChip {
        &self.chip
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &StaticReadoutConfig {
        &self.config
    }

    /// Small-signal transfer from surface stress to output voltage,
    /// V per (N/m) — the system's design responsivity (offsets and noise
    /// aside).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if the gauge evaluation fails.
    pub fn transfer_volts_per_stress(&self) -> Result<f64, CoreError> {
        let unit = SurfaceStress::new(1.0);
        let deltas = bridge_deltas(
            &self.gauges,
            self.chip.beam(),
            LoadCase::UniformSurfaceStress(unit),
        )?;
        // balanced-bridge incremental output (ignore mismatch for the
        // small-signal number)
        let bridge = self.chip.bridge().clone().with_mismatch([0.0; 4]);
        let v_bridge = bridge
            .output_from_gauges(self.chip.bridge_bias(), deltas)
            .value();
        Ok(v_bridge * self.total_gain())
    }

    /// Total electrical chain gain (chopper × PGA × output stage).
    #[must_use]
    pub fn total_gain(&self) -> f64 {
        self.config.chopper_gain * self.pga.gain() * self.output_stage.gain()
    }

    /// Raw bridge output of `channel` under surface stress `sigma`
    /// (including that channel's mismatch offset).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for a bad channel or gauge failure.
    pub fn bridge_output(&self, channel: usize, sigma: SurfaceStress) -> Result<Volts, CoreError> {
        let bridge = self.bridge_for(channel)?;
        let deltas = bridge_deltas(
            &self.gauges,
            self.chip.beam(),
            LoadCase::UniformSurfaceStress(sigma),
        )?;
        Ok(bridge.output_from_gauges(self.chip.bridge_bias(), deltas))
    }

    fn bridge_for(&self, channel: usize) -> Result<&WheatstoneBridge, CoreError> {
        self.bridges.get(channel).ok_or_else(|| CoreError::Config {
            reason: format!("channel {channel} out of range (0..{CHANNELS})"),
        })
    }

    /// Selects a mux channel (loads that channel's offset correction into
    /// the shared DAC).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for a bad channel.
    pub fn select_channel(&mut self, channel: usize) -> Result<(), CoreError> {
        if channel >= CHANNELS {
            return Err(CoreError::Config {
                reason: format!("channel {channel} out of range (0..{CHANNELS})"),
            });
        }
        self.mux.select(channel)?;
        self.selected = channel;
        let correction = self.channel_offset_corrections[channel];
        self.offset_comp.calibrate(correction);
        Ok(())
    }

    /// Runs `n` samples of the chain with the given bridge voltage at the
    /// mux input, yielding the output waveform one sample at a time; a
    /// burst that is only settled through or averaged is never collected.
    fn run_samples(&mut self, v_bridge: f64, n: usize) -> impl Iterator<Item = f64> + '_ {
        (0..n).map(move |_| {
            let x = self.mux.process(v_bridge);
            let x = self.chopper.process(x);
            let x = self.lpf.process(x);
            let x = self.lpf2.process(x);
            let x = self.offset_comp.process(x);
            let x = self.pga.process(x);
            self.output_stage.process(x)
        })
    }

    /// Mean of the next `n` output samples.
    fn burst_mean(&mut self, v_bridge: f64, n: usize) -> f64 {
        self.run_samples(v_bridge, n).sum::<f64>() / n as f64
    }

    /// Measures the settled DC output of `channel` under stress `sigma`,
    /// averaging `n` samples after an equal settling period.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for a bad channel.
    pub fn measure(
        &mut self,
        channel: usize,
        sigma: SurfaceStress,
        n: usize,
    ) -> Result<Volts, CoreError> {
        let faults = self.draw_faults(channel);
        self.measure_with_faults(channel, sigma, n, &faults)
    }

    /// [`Self::measure`] with an explicit set of fault effects — the
    /// analog half of the fault-injection seam. Every effect is guarded
    /// on being non-trivial, so `MeasurementFaults::none()` runs the
    /// exact same floating-point operations as the pre-fault chain and
    /// the result is bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for a bad channel.
    pub fn measure_with_faults(
        &mut self,
        channel: usize,
        sigma: SurfaceStress,
        n: usize,
        faults: &MeasurementFaults,
    ) -> Result<Volts, CoreError> {
        self.select_channel(channel)?;
        if faults.open_bridge {
            // an open bridge arm gives the ADC nothing valid to convert;
            // the burst is skipped entirely so non-finite samples never
            // poison the filter state shared with the healthy channels
            return Ok(Volts::new(f64::NAN));
        }
        let mut v_bridge = self.bridge_output(channel, sigma)?.value();
        if faults.bridge_offset_volts != 0.0 {
            v_bridge += faults.bridge_offset_volts;
        }
        let was_chopping = self.chopper.chopping();
        if faults.chopper_dropout {
            self.chopper.set_chopping(false);
        }
        self.run_samples(v_bridge, n).for_each(drop);
        let mut v = self.burst_mean(v_bridge, n);
        if faults.chopper_dropout {
            self.chopper.set_chopping(was_chopping);
        }
        if faults.glitch_volts != 0.0 {
            // a spike on the settled output still cannot exceed the rail
            let rail = self.config.supply_rail;
            v = (v + faults.glitch_volts).clamp(-rail, rail);
        }
        if faults.adc_saturated {
            let rail = self.config.supply_rail;
            v = if v.is_sign_negative() { -rail } else { rail };
        }
        Ok(Volts::new(v))
    }

    /// Measures the output noise (RMS about the mean) of `channel` at
    /// constant stress.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for a bad channel.
    pub fn output_noise_rms(
        &mut self,
        channel: usize,
        sigma: SurfaceStress,
        n: usize,
    ) -> Result<Volts, CoreError> {
        self.select_channel(channel)?;
        let v_bridge = self.bridge_output(channel, sigma)?.value();
        self.run_samples(v_bridge, n).for_each(drop);
        // RMS about the mean takes two passes, so this burst is kept
        let data: Vec<f64> = self.run_samples(v_bridge, n).collect();
        Ok(Volts::new(rms(&data)))
    }

    /// Calibrates the per-channel offset corrections: measures each
    /// channel at zero stress and programs the DAC to cancel what it sees
    /// (at the DAC's input node, i.e. after the LPF).
    ///
    /// Each channel is selected and settled once (4 000 samples), then
    /// every bisection step reads the mean of the next 2 000. No step
    /// needs its own settle: within a channel the bridge voltage is fixed
    /// and the mux is not switched, so the only state that changes is the
    /// DAC code, and the DAC, the PGA and the output stage that follow it
    /// are memoryless — the chopper and filter states a step would settle
    /// do not depend on the code. With the default 10-bit DAC (12 steps) a
    /// full trim runs 4 × (4 000 + 12 × 2 000) = 112 000 chain samples,
    /// against 288 000 with a settle before every step.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on channel/selection failures.
    pub fn calibrate_offsets(&mut self) -> Result<(), CoreError> {
        // Bisection on the DAC correction, using only the *sign* of the
        // settled output — robust even while the output stage is clipped at
        // the rail (which a raw offset measurement is not). This mirrors
        // the successive-approximation offset trims real chips use.
        let range = self.config.offset_dac_range.value();
        for ch in 0..CHANNELS {
            let v_bridge = self.bridge_output(ch, SurfaceStress::zero())?.value();
            let (mut lo, mut hi) = (-range, range);
            self.select_channel(ch)?;
            self.run_samples(v_bridge, 4_000).for_each(drop);
            for _ in 0..(self.config.offset_dac_bits as usize + 2) {
                let mid = (lo + hi) / 2.0;
                self.offset_comp.calibrate(Volts::new(mid));
                if self.burst_mean(v_bridge, 2_000) > 0.0 {
                    // output positive: correction too small
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            self.channel_offset_corrections[ch] = Volts::new((lo + hi) / 2.0);
        }
        // reload the selected channel's correction
        self.select_channel(self.selected)?;
        Ok(())
    }

    /// Scans all four channels under the given per-channel stresses,
    /// returning the settled outputs — one pass of the array readout.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on measurement failures.
    pub fn scan(
        &mut self,
        sigmas: [SurfaceStress; CHANNELS],
        samples_per_channel: usize,
    ) -> Result<[Volts; CHANNELS], CoreError> {
        let mut out = [Volts::zero(); CHANNELS];
        for ch in 0..CHANNELS {
            out[ch] = self.measure(ch, sigmas[ch], samples_per_channel)?;
        }
        Ok(out)
    }

    /// Differential reading: sensing channel minus reference channel,
    /// rejecting common-mode stress (temperature drift, non-specific
    /// binding).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on measurement failures.
    pub fn differential(
        &mut self,
        sensing: usize,
        sigma_sensing: SurfaceStress,
        sigma_common: SurfaceStress,
        n: usize,
    ) -> Result<Volts, CoreError> {
        let vs = self.measure(sensing, sigma_sensing + sigma_common, n)?;
        let vr = self.measure(REFERENCE_CHANNEL, sigma_common, n)?;
        Ok(vs - vr)
    }

    /// Switches the chopper on or off — for the paper's implicit
    /// with/without comparison.
    pub fn set_chopping(&mut self, on: bool) {
        self.chopper.set_chopping(on);
    }

    /// Selects a PGA gain setting.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for a bad setting.
    pub fn select_pga(&mut self, setting: usize) -> Result<(), CoreError> {
        self.pga.select(setting)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> StaticCantileverSystem {
        StaticCantileverSystem::new(
            BiosensorChip::paper_static_chip().unwrap(),
            StaticReadoutConfig::default(),
        )
        .unwrap()
    }

    fn mn(x: f64) -> SurfaceStress {
        SurfaceStress::from_millinewtons_per_meter(x)
    }

    #[test]
    fn transfer_is_microvolt_scale_at_bridge() {
        let sys = system();
        // 5 mN/m -> uV-scale at bridge, mV-to-tens-of-mV at output
        let v_bridge = sys.bridge_output(0, mn(5.0)).unwrap().value()
            - sys.bridge_output(0, SurfaceStress::zero()).unwrap().value();
        assert!(
            v_bridge.abs() > 1e-6 && v_bridge.abs() < 1e-3,
            "bridge signal {v_bridge} V"
        );
        let t = sys.transfer_volts_per_stress().unwrap();
        assert!(t.abs() > 0.1, "output responsivity {t} V/(N/m)");
    }

    #[test]
    fn uncalibrated_offset_dominates_then_calibration_fixes_it() {
        let mut sys = system();
        let zero = sys.measure(0, SurfaceStress::zero(), 10_000).unwrap();
        // amplified mismatch offset: large compared to a 5 mN/m signal
        let signal = sys.transfer_volts_per_stress().unwrap() * 5e-3;
        assert!(
            zero.value().abs() > signal.abs(),
            "uncalibrated offset {zero} should dwarf signal {signal}"
        );
        sys.calibrate_offsets().unwrap();
        let zero_cal = sys.measure(0, SurfaceStress::zero(), 10_000).unwrap();
        assert!(
            zero_cal.value().abs() < zero.value().abs() / 10.0,
            "calibration must reduce offset: {zero} -> {zero_cal}"
        );
    }

    #[test]
    fn output_tracks_stress_linearly() {
        let mut sys = system();
        sys.calibrate_offsets().unwrap();
        let v0 = sys
            .measure(0, SurfaceStress::zero(), 15_000)
            .unwrap()
            .value();
        let v1 = sys.measure(0, mn(2.0), 15_000).unwrap().value() - v0;
        let v2 = sys.measure(0, mn(4.0), 15_000).unwrap().value() - v0;
        assert!(v1.abs() > 1e-3, "2 mN/m gives {v1} V");
        assert!(
            (v2 / v1 - 2.0).abs() < 0.15,
            "linearity: {v1} vs {v2} (ratio {})",
            v2 / v1
        );
    }

    #[test]
    fn channels_have_distinct_offsets() {
        let sys = system();
        let o0 = sys.bridge_output(0, SurfaceStress::zero()).unwrap().value();
        let o1 = sys.bridge_output(1, SurfaceStress::zero()).unwrap().value();
        assert_ne!(o0, o1, "per-channel mismatch must differ");
        assert!(sys.bridge_output(7, SurfaceStress::zero()).is_err());
    }

    #[test]
    fn differential_rejects_common_mode() {
        let mut sys = system();
        sys.calibrate_offsets().unwrap();
        let common = mn(3.0);
        // record the pre-injection baseline (zero analyte, zero common),
        // as a real assay does, to remove residual DAC-quantized offsets
        let base_diff = sys
            .differential(0, SurfaceStress::zero(), SurfaceStress::zero(), 15_000)
            .unwrap();
        let base_plain = sys.measure(0, SurfaceStress::zero(), 15_000).unwrap();
        let v_diff = sys.differential(0, mn(2.0), common, 15_000).unwrap() - base_diff;
        let v_plain = sys.measure(0, mn(2.0) + common, 15_000).unwrap() - base_plain;
        let expected_signal = sys.transfer_volts_per_stress().unwrap() * 2e-3;
        // differential reading ~ signal only; plain reading carries the
        // common-mode term too
        assert!(
            (v_diff.value() - expected_signal).abs() < expected_signal.abs() * 0.3,
            "differential {} vs expected {expected_signal}",
            v_diff.value()
        );
        assert!(
            (v_plain.value() - expected_signal).abs()
                > (v_diff.value() - expected_signal).abs() * 2.0,
            "plain reading must carry the common-mode term: plain {}, diff {}",
            v_plain.value(),
            v_diff.value()
        );
    }

    #[test]
    fn chopper_off_makes_offset_worse() {
        // calibrate with chopping on (cancels the bridge mismatch offset),
        // then turn chopping off: the amplifier's own 2 mV offset — no
        // longer chopped out — reappears at the output, amplified.
        let mut sys = system();
        sys.calibrate_offsets().unwrap();
        let with = sys.measure(0, SurfaceStress::zero(), 10_000).unwrap();
        sys.set_chopping(false);
        let without = sys.measure(0, SurfaceStress::zero(), 10_000).unwrap();
        assert!(
            without.value().abs() > with.value().abs() * 3.0,
            "chopper must suppress amp offset: with {with}, without {without}"
        );
        assert!(
            without.value().abs() > 0.5,
            "unchopped amp offset should be volt-scale: {without}"
        );
    }

    #[test]
    fn scan_reads_all_channels() {
        let mut sys = system();
        sys.calibrate_offsets().unwrap();
        // baseline scan (pre-injection), then loaded scan: the difference
        // is the per-channel signal, free of residual DAC offsets
        let baseline = sys.scan([SurfaceStress::zero(); CHANNELS], 12_000).unwrap();
        let sigmas = [mn(1.0), mn(2.0), mn(4.0), SurfaceStress::zero()];
        let out = sys.scan(sigmas, 12_000).unwrap();
        let t = sys.transfer_volts_per_stress().unwrap();
        // channel ordering must be preserved: outputs scale with inputs
        let s1 = (out[1] - baseline[1]).value() / t / 1e-3;
        let s2 = (out[2] - baseline[2]).value() / t / 1e-3;
        let s_ref = (out[REFERENCE_CHANNEL] - baseline[REFERENCE_CHANNEL]).value() / t / 1e-3;
        assert!((s1 - 2.0).abs() < 0.5, "channel 1 reads {s1} mN/m");
        assert!((s2 - 4.0).abs() < 0.7, "channel 2 reads {s2} mN/m");
        assert!(s_ref.abs() < 0.5, "reference channel reads {s_ref} mN/m");
    }

    #[test]
    fn pga_changes_gain() {
        let mut sys = system();
        sys.calibrate_offsets().unwrap();
        let v1 = sys.measure(0, mn(2.0), 12_000).unwrap().value();
        sys.select_pga(3).unwrap(); // gain 10 instead of 1
        sys.calibrate_offsets().unwrap();
        let v10 = sys.measure(0, mn(2.0), 12_000).unwrap().value();
        assert!(
            (v10 / v1 - 10.0).abs() < 2.0,
            "PGA x10: {v1} -> {v10} (ratio {})",
            v10 / v1
        );
        assert!(sys.select_pga(9).is_err());
    }

    /// The offset trim's decisions, bit for bit: the four DAC corrections
    /// for the default config and for seeds 1–5. These depend on the sign
    /// of each bisection step's settled mean, not on the noise bits behind
    /// it, so they hold across changes to how much noise the trim draws.
    /// (Seeds 12–14 are left out: their mismatch-seed-14 bridge sits on a
    /// DAC code boundary, where the noise decides the last code.)
    #[test]
    fn offset_trim_decisions_are_pinned() {
        #[rustfmt::skip]
        const GOLDEN: [(u64, [f64; CHANNELS]); 6] = [
            (0x0CA7, [-0.17333984375, -0.37255859375, 0.28662109375, 0.39599609375]),
            (1, [0.21630859375, 0.06396484375, 0.21240234375, 0.20458984375]),
            (2, [0.06396484375, 0.21240234375, 0.20458984375, -0.74755859375]),
            (3, [0.21240234375, 0.20458984375, -0.74755859375, -0.61474609375]),
            (4, [0.20458984375, -0.74755859375, -0.61474609375, 0.32177734375]),
            (5, [-0.74755859375, -0.61474609375, 0.32177734375, 0.22021484375]),
        ];
        for (seed, want) in GOLDEN {
            let mut sys = StaticCantileverSystem::new(
                BiosensorChip::paper_static_chip().unwrap(),
                StaticReadoutConfig {
                    seed,
                    ..StaticReadoutConfig::default()
                },
            )
            .unwrap();
            sys.calibrate_offsets().unwrap();
            let got = sys.channel_offset_corrections.map(Volts::value);
            assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "seed {seed}: trimmed to {got:?}, pinned {want:?}"
            );
        }
    }

    #[test]
    fn noise_floor_is_sub_millivolt() {
        let mut sys = system();
        sys.calibrate_offsets().unwrap();
        let noise = sys
            .output_noise_rms(0, SurfaceStress::zero(), 20_000)
            .unwrap();
        assert!(
            noise.value() > 0.0 && noise.value() < 5e-3,
            "output noise {noise}"
        );
        // min detectable stress: noise / responsivity, should be sub-mN/m
        let t = sys.transfer_volts_per_stress().unwrap().abs();
        let sigma_min = noise.value() / t;
        assert!(
            sigma_min < 2e-3,
            "minimum detectable stress {sigma_min} N/m should be < 2 mN/m"
        );
    }
}
