//! Seeded noise generators with calibrated spectral densities.
//!
//! Two shapes cover everything the readout chain needs:
//!
//! * **white** (thermal/shot): flat one-sided PSD `S = d²` where `d` is the
//!   amplitude density in unit/√Hz. Sampled at `fs`, the per-sample
//!   standard deviation is `d·√(fs/2)` (the full Nyquist band carries the
//!   power).
//! * **flicker (1/f)**: one-sided PSD `S(f) = a²/f` where `a` is the
//!   density at 1 Hz. Synthesized as a sum of first-order AR(1)
//!   (Ornstein–Uhlenbeck) processes with poles logarithmically spaced over
//!   the band of interest — the standard filter-bank construction (N. J.
//!   Kasdin, Proc. IEEE 83(5), 1995). For the static chain's band
//!   (0.1 Hz–250 kHz at 1 MHz), f·S(f)/a² stays within about 0.6 dB from
//!   10 Hz to 60 kHz and falls to −0.8 dB at 100 kHz and −1.9 dB at
//!   240 kHz. Each section steps only as often as its pole needs (see
//!   [`FlickerNoise`]), which leaves that spectrum as it is and draws ~3.67
//!   Gaussians per sample for that band where a full-rate bank draws 10.
//!
//! Chopper stabilization exists because MOS amplifiers are flicker-noise
//! dominated at the slow signal frequencies of a biosensor; these
//! generators are what the chopper in [`crate::blocks`] is fighting.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::error::ensure_positive;
use crate::AnalogError;

/// White (flat-PSD) noise source.
///
/// # Examples
///
/// ```
/// use canti_analog::noise::WhiteNoise;
///
/// // 4 nV/sqrt(Hz) over a 500 kHz band -> ~2.8 uV rms
/// let mut n = WhiteNoise::new(4e-9, 1e6, 7)?;
/// let rms = (0..10_000).map(|_| n.sample().powi(2)).sum::<f64>() / 10_000.0;
/// assert!(rms.sqrt() < 10e-6);
/// # Ok::<(), canti_analog::AnalogError>(())
/// ```
#[derive(Debug, Clone)]
pub struct WhiteNoise {
    sigma: f64,
    density: f64,
    sample_rate: f64,
    rng: ChaCha8Rng,
}

impl WhiteNoise {
    /// Creates a white source with amplitude density `density` (unit/√Hz)
    /// sampled at `sample_rate` Hz.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError`] unless the sample rate is strictly positive
    /// and the density non-negative.
    pub fn new(density: f64, sample_rate: f64, seed: u64) -> Result<Self, AnalogError> {
        ensure_positive("sample rate", sample_rate)?;
        if !density.is_finite() || density < 0.0 {
            return Err(AnalogError::NonPositive {
                what: "noise density (must be >= 0)",
                value: density,
            });
        }
        Ok(Self {
            sigma: density * (sample_rate / 2.0).sqrt(),
            density,
            sample_rate,
            rng: ChaCha8Rng::seed_from_u64(seed),
        })
    }

    /// A zero-noise source (useful for noiseless reference runs).
    #[must_use]
    pub fn silent(sample_rate: f64) -> Self {
        Self {
            sigma: 0.0,
            density: 0.0,
            sample_rate,
            rng: ChaCha8Rng::seed_from_u64(0),
        }
    }

    /// Amplitude density in unit/√Hz.
    #[must_use]
    pub fn density(&self) -> f64 {
        self.density
    }

    /// Sample rate in Hz.
    #[must_use]
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Per-sample standard deviation.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Draws the next sample.
    pub fn sample(&mut self) -> f64 {
        if self.sigma == 0.0 {
            return 0.0;
        }
        self.sigma * gaussian(&mut self.rng)
    }

    /// Resets the generator to its seeded initial state.
    pub fn reset(&mut self, seed: u64) {
        self.rng = ChaCha8Rng::seed_from_u64(seed);
    }
}

/// 1/f (flicker) noise source built from a multirate AR(1) filter bank.
///
/// Section *i* steps once every `stride_i` samples and holds its value in
/// between. `stride_i` is the largest power of two that leaves at least
/// 256 samples per corner period, `fs / (stride_i · fc_i) ≥ 256`, so any
/// section with fewer than 512 samples per corner period steps every
/// sample. Each step is the exact AR(1) transition over the stride
/// (pole `α^stride`, innovation variance `σ²(1 − α^(2·stride))`), so a
/// section's values at its update instants have the same joint
/// distribution as a section stepped every sample. The default static
/// chain's bank (1 MHz, 0.1 Hz–250 kHz) has strides
/// [16384, 4096, 512, 128, 32, 8, 2, 1, 1, 1] and draws ~3.67 Gaussians
/// per sample, where stepping every section every sample would draw 10.
///
/// # Examples
///
/// ```
/// use canti_analog::noise::FlickerNoise;
///
/// // 1 uV/sqrt(Hz) at 1 Hz, shaped between 0.1 Hz and 10 kHz:
/// let mut n = FlickerNoise::new(1e-6, 0.1, 1e4, 1e6, 11)?;
/// assert!(n.sample().is_finite());
/// # Ok::<(), canti_analog::AnalogError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FlickerNoise {
    /// Sections from the slowest pole to the fastest, so strides never
    /// grow along the bank.
    sections: Vec<Section>,
    /// Samples drawn since the last reset.
    tick: u64,
    density_at_1hz: f64,
    sample_rate: f64,
    rng: ChaCha8Rng,
}

/// One AR(1) section of a [`FlickerNoise`] bank, stepped over its stride.
#[derive(Debug, Clone)]
struct Section {
    state: f64,
    /// Pole over one stride, `α^stride`.
    alpha: f64,
    /// Innovation standard deviation over one stride.
    beta: f64,
    /// `stride − 1`: the section steps on the ticks where `tick & mask`
    /// is zero.
    mask: u64,
}

impl FlickerNoise {
    /// Sections per decade of shaped bandwidth.
    const SECTIONS_PER_DECADE: f64 = 1.5;

    /// Fewest samples per corner period a held section may have. Holding
    /// a section for its stride adds staircase noise near and above
    /// `fs / stride`; at 256 the bank's spectrum matches the full-rate
    /// bank's within estimator noise from 1 Hz to 0.24·fs, hold rates
    /// included (the wide-band test below).
    const MIN_SAMPLES_PER_CORNER: f64 = 256.0;

    /// Creates a flicker source with amplitude density `density_at_1hz`
    /// (unit/√Hz at 1 Hz), shaped over `[f_low, f_high]`, sampled at
    /// `sample_rate`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError`] on non-positive band edges/sample rate, a
    /// band that is empty, or `f_high` at/above Nyquist.
    pub fn new(
        density_at_1hz: f64,
        f_low: f64,
        f_high: f64,
        sample_rate: f64,
        seed: u64,
    ) -> Result<Self, AnalogError> {
        ensure_positive("sample rate", sample_rate)?;
        ensure_positive("flicker band low edge", f_low)?;
        ensure_positive("flicker band high edge", f_high - f_low)?;
        crate::error::ensure_below_nyquist(f_high, sample_rate)?;
        if !density_at_1hz.is_finite() || density_at_1hz < 0.0 {
            return Err(AnalogError::NonPositive {
                what: "flicker density (must be >= 0)",
                value: density_at_1hz,
            });
        }

        let (poles, section_var) = Self::poles(density_at_1hz, f_low, f_high);
        let dt = 1.0 / sample_rate;
        let sections = poles
            .into_iter()
            .map(|fc| {
                let stride = Self::stride(sample_rate, fc);
                let alpha = (-2.0 * std::f64::consts::PI * fc * (dt * stride as f64)).exp();
                // stationary variance of AR(1): beta^2 / (1 - alpha^2) = section_var
                let beta = (section_var * (1.0 - alpha * alpha)).sqrt();
                Section {
                    state: 0.0,
                    alpha,
                    beta,
                    mask: stride - 1,
                }
            })
            .collect();

        Ok(Self {
            sections,
            tick: 0,
            density_at_1hz,
            sample_rate,
            rng: ChaCha8Rng::seed_from_u64(seed),
        })
    }

    /// Pole frequencies of the bank over `[f_low, f_high]`, slowest first,
    /// and the variance each section carries.
    ///
    /// Pole frequencies are logarithmically spaced; each section is an OU
    /// process with variance chosen so the summed PSD ~ a²/f across the
    /// band. For an OU process with pole fc and innovation variance q, the
    /// one-sided PSD is S(f) = 2 q τ / (1 + (f/fc)²) with τ = 1/(2π fc);
    /// choosing the per-section low-frequency plateau proportional to 1/fc
    /// (i.e. equal variance per section in log spacing) approximates 1/f.
    fn poles(density_at_1hz: f64, f_low: f64, f_high: f64) -> (Vec<f64>, f64) {
        let decades = (f_high / f_low).log10();
        let n = (decades * Self::SECTIONS_PER_DECADE).ceil().max(1.0) as usize;
        let ratio = (f_high / f_low).powf(1.0 / n as f64);
        // Per-section variance: integral of a^2/f over the section band =
        // a^2 ln(ratio).
        let section_var = density_at_1hz * density_at_1hz * ratio.ln();
        let poles = (0..n).map(|i| f_low * ratio.powf(i as f64 + 0.5)).collect();
        (poles, section_var)
    }

    /// The stride of a section with pole `fc` at `sample_rate`: the largest
    /// power of two that leaves [`Self::MIN_SAMPLES_PER_CORNER`] samples
    /// per corner period, and 1 when even a doubled stride would not.
    fn stride(sample_rate: f64, fc: f64) -> u64 {
        let mut stride: u64 = 1;
        while stride < 1 << 62
            && sample_rate / ((2 * stride) as f64 * fc) >= Self::MIN_SAMPLES_PER_CORNER
        {
            stride *= 2;
        }
        stride
    }

    /// A zero-noise flicker source.
    #[must_use]
    pub fn silent(sample_rate: f64) -> Self {
        Self {
            sections: vec![],
            tick: 0,
            density_at_1hz: 0.0,
            sample_rate,
            rng: ChaCha8Rng::seed_from_u64(0),
        }
    }

    /// Amplitude density at 1 Hz in unit/√Hz.
    #[must_use]
    pub fn density_at_1hz(&self) -> f64 {
        self.density_at_1hz
    }

    /// Sample rate in Hz.
    #[must_use]
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Number of AR(1) sections in the bank.
    #[must_use]
    pub fn sections(&self) -> usize {
        self.sections.len()
    }

    /// Draws the next sample.
    pub fn sample(&mut self) -> f64 {
        // Fastest section first: strides are powers of two that never
        // shrink along the way, so every slower stride is a multiple of
        // the first one not due, and no section after it is due either.
        for section in self.sections.iter_mut().rev() {
            if self.tick & section.mask != 0 {
                break;
            }
            section.state = section.alpha * section.state + section.beta * gaussian(&mut self.rng);
        }
        self.tick = self.tick.wrapping_add(1);
        self.sections.iter().fold(0.0, |sum, s| sum + s.state)
    }

    /// Resets all filter state and the tick count, and reseeds.
    pub fn reset(&mut self, seed: u64) {
        for s in &mut self.sections {
            s.state = 0.0;
        }
        self.tick = 0;
        self.rng = ChaCha8Rng::seed_from_u64(seed);
    }
}

/// Combined white + flicker noise of one amplifier input, with the corner
/// frequency where the two densities cross.
#[derive(Debug, Clone)]
pub struct CompositeNoise {
    /// White floor component.
    pub white: WhiteNoise,
    /// Flicker component.
    pub flicker: FlickerNoise,
}

impl CompositeNoise {
    /// Creates a composite source from the two components.
    #[must_use]
    pub fn new(white: WhiteNoise, flicker: FlickerNoise) -> Self {
        Self { white, flicker }
    }

    /// A silent composite source at `sample_rate`.
    #[must_use]
    pub fn silent(sample_rate: f64) -> Self {
        Self {
            white: WhiteNoise::silent(sample_rate),
            flicker: FlickerNoise::silent(sample_rate),
        }
    }

    /// Corner frequency f_c where flicker density equals white density:
    /// a²/f = d² → f_c = (a/d)². `None` when either component is silent.
    #[must_use]
    pub fn corner_frequency(&self) -> Option<f64> {
        let d = self.white.density();
        let a = self.flicker.density_at_1hz();
        if d == 0.0 || a == 0.0 {
            None
        } else {
            Some((a / d).powi(2))
        }
    }

    /// Draws the next sample (sum of both components).
    pub fn sample(&mut self) -> f64 {
        self.white.sample() + self.flicker.sample()
    }

    /// Resets both components.
    pub fn reset(&mut self, seed: u64) {
        self.white.reset(seed.wrapping_mul(2).wrapping_add(1));
        self.flicker.reset(seed.wrapping_mul(2));
    }
}

/// One standard-normal draw via Box–Muller (single value; the pair's twin
/// is discarded, so each draw costs two uniforms, an `ln`, a `sqrt` and a
/// `cos`). That cost matters: a static-chain sample makes one white draw
/// plus one per flicker section due at that sample (~4.67 in all with the
/// default band), so this is most of a chain characterization's time and
/// most of a dose-response point's.
fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            let u2: f64 = rng.gen::<f64>();
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectrum::{welch_psd, PowerSpectrum};

    #[test]
    fn white_noise_rms_matches_density() {
        let fs = 1e6;
        let d = 10e-9;
        let mut n = WhiteNoise::new(d, fs, 1).unwrap();
        let count = 200_000;
        let var: f64 = (0..count).map(|_| n.sample().powi(2)).sum::<f64>() / count as f64;
        let expected = d * d * fs / 2.0;
        assert!(
            (var - expected).abs() / expected < 0.02,
            "variance {var} vs {expected}"
        );
    }

    #[test]
    fn white_noise_is_deterministic_per_seed() {
        let mut a = WhiteNoise::new(1e-6, 1e5, 99).unwrap();
        let mut b = WhiteNoise::new(1e-6, 1e5, 99).unwrap();
        for _ in 0..100 {
            assert_eq!(a.sample(), b.sample());
        }
        let mut c = WhiteNoise::new(1e-6, 1e5, 100).unwrap();
        assert_ne!(a.sample(), c.sample());
    }

    #[test]
    fn white_psd_is_flat() {
        let fs = 100e3;
        let d = 1e-6;
        let mut n = WhiteNoise::new(d, fs, 3).unwrap();
        let data: Vec<f64> = (0..1 << 16).map(|_| n.sample()).collect();
        let psd = welch_psd(&data, fs, 4096).unwrap();
        // compare PSD at a low and a high bin: both ~ d^2
        let low = psd.density_at(2e3).unwrap();
        let high = psd.density_at(40e3).unwrap();
        assert!((low / (d * d) - 1.0).abs() < 0.3, "low-bin PSD {low}");
        assert!((high / (d * d) - 1.0).abs() < 0.3, "high-bin PSD {high}");
    }

    /// Band-averaged PSD at `f`: the mean of f·S(f) over the bins within
    /// ±25 % of `f`, divided by `f`. For a 1/f spectrum f·S(f) is flat, so
    /// the mean is unbiased, and it reads ~0.5·f/Δf bins instead of one.
    fn band_density(psd: &PowerSpectrum, f: f64) -> f64 {
        let band = 0.75 * f..=1.25 * f;
        let (sum, bins) = psd
            .frequencies
            .iter()
            .zip(&psd.densities)
            .filter(|(fk, _)| band.contains(fk))
            .fold((0.0, 0), |(sum, bins), (fk, s)| (sum + fk * s, bins + 1));
        sum / f64::from(bins) / f
    }

    /// The −10 dB/decade check on 2^18 samples of `source` at `fs` (after
    /// a 50 000-sample settle): the band-averaged PSD drops ~10× per
    /// decade from 100 Hz to 10 kHz and sits at a²/f at 1 kHz.
    fn check_flicker_slope(mut source: impl FnMut() -> f64, fs: f64, a: f64) -> Result<(), String> {
        for _ in 0..50_000 {
            source();
        }
        let data: Vec<f64> = (0..1 << 18).map(|_| source()).collect();
        let psd = welch_psd(&data, fs, 8192).unwrap();
        let s100 = band_density(&psd, 100.0);
        let s1k = band_density(&psd, 1e3);
        let s10k = band_density(&psd, 1e4);
        // each decade up should drop the PSD by ~10x (within 45 %)
        if (s100 / s1k - 10.0).abs() >= 4.5 {
            return Err(format!("100->1k ratio {}", s100 / s1k));
        }
        if (s1k / s10k - 10.0).abs() >= 4.5 {
            return Err(format!("1k->10k ratio {}", s1k / s10k));
        }
        let expected = a * a / 1e3;
        if (s1k / expected - 1.0).abs() >= 0.6 {
            return Err(format!("S(1kHz) {s1k} vs {expected}"));
        }
        Ok(())
    }

    #[test]
    fn flicker_psd_slopes_at_minus_10db_per_decade() {
        let (fs, a) = (100e3, 1e-5);
        let mut n = FlickerNoise::new(a, 1.0, 40e3, fs, 6).unwrap();
        if let Err(e) = check_flicker_slope(|| n.sample(), fs, a) {
            panic!("{e}");
        }
        // negative control: a flat spectrum at the same 1 kHz level fails
        let mut w = WhiteNoise::new(a / 1e3f64.sqrt(), fs, 6).unwrap();
        let control = check_flicker_slope(|| w.sample(), fs, a);
        assert!(control.is_err(), "white noise passed the slope check");
    }

    #[test]
    fn corner_frequency() {
        let fs = 1e6;
        let white = WhiteNoise::new(10e-9, fs, 1).unwrap();
        let flicker = FlickerNoise::new(1e-6, 0.1, 100e3, fs, 2).unwrap();
        let c = CompositeNoise::new(white, flicker);
        // (1e-6/1e-8)^2 = 1e4 Hz
        assert!((c.corner_frequency().unwrap() - 1e4).abs() < 1e-6);
        assert!(CompositeNoise::silent(fs).corner_frequency().is_none());
    }

    #[test]
    fn silent_sources_stay_zero() {
        let mut w = WhiteNoise::silent(1e6);
        let mut f = FlickerNoise::silent(1e6);
        for _ in 0..10 {
            assert_eq!(w.sample(), 0.0);
            assert_eq!(f.sample(), 0.0);
        }
    }

    #[test]
    fn validation() {
        assert!(WhiteNoise::new(-1.0, 1e6, 0).is_err());
        assert!(WhiteNoise::new(1e-9, 0.0, 0).is_err());
        assert!(FlickerNoise::new(1e-6, 0.0, 1e3, 1e6, 0).is_err());
        assert!(FlickerNoise::new(1e-6, 10.0, 5.0, 1e6, 0).is_err());
        assert!(
            FlickerNoise::new(1e-6, 1.0, 6e5, 1e6, 0).is_err(),
            "above nyquist"
        );
    }

    #[test]
    fn reset_reproduces_stream() {
        // 2 500 samples run past the bank's longest stride (1 024) and end
        // between two of its steps, so a reset must restart the tick count
        let mut n = FlickerNoise::new(1e-6, 1.0, 1e4, 1e6, 42).unwrap();
        assert_eq!(strides(&n).first(), Some(&1024));
        let first: Vec<f64> = (0..2_500).map(|_| n.sample()).collect();
        n.reset(42);
        let second: Vec<f64> = (0..2_500).map(|_| n.sample()).collect();
        assert_eq!(first, second);
    }

    fn strides(bank: &FlickerNoise) -> Vec<u64> {
        bank.sections.iter().map(|s| s.mask + 1).collect()
    }

    #[test]
    fn strides_are_the_largest_powers_of_two_leaving_256_samples_per_corner() {
        let fs = 1e6;
        let samples_per_corner = |stride: u64, fc: f64| fs / (stride as f64 * fc);
        for k in 0..=330 {
            let fc = 1e-3 * 10f64.powf(f64::from(k) / 40.0);
            let stride = FlickerNoise::stride(fs, fc);
            assert!(stride.is_power_of_two(), "fc {fc} Hz: stride {stride}");
            assert!(
                stride == 1 || samples_per_corner(stride, fc) >= 256.0,
                "fc {fc} Hz: stride {stride} leaves too few samples"
            );
            assert!(
                samples_per_corner(2 * stride, fc) < 256.0,
                "fc {fc} Hz: stride {stride} is not the largest"
            );
        }
        // the static chain's bank: 2 uV/sqrt(Hz), 0.1 Hz to fs/4 at 1 MHz
        let chain = FlickerNoise::new(2e-6, 0.1, 250e3, fs, 0).unwrap();
        assert_eq!(strides(&chain), [16384, 4096, 512, 128, 32, 8, 2, 1, 1, 1]);
    }

    /// The full-rate reference bank: every section steps every sample with
    /// its one-sample AR(1) transition, slowest first.
    fn full_rate_bank(a: f64, f_low: f64, f_high: f64, fs: f64, seed: u64) -> impl FnMut() -> f64 {
        let (poles, section_var) = FlickerNoise::poles(a, f_low, f_high);
        let dt = 1.0 / fs;
        let (alphas, betas): (Vec<f64>, Vec<f64>) = poles
            .iter()
            .map(|fc| {
                let alpha = (-2.0 * std::f64::consts::PI * fc * dt).exp();
                (alpha, (section_var * (1.0 - alpha * alpha)).sqrt())
            })
            .unzip();
        let mut states = vec![0.0; poles.len()];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        move || {
            let mut sum = 0.0;
            for i in 0..states.len() {
                let g = gaussian(&mut rng);
                states[i] = alphas[i] * states[i] + betas[i] * g;
                sum += states[i];
            }
            sum
        }
    }

    /// Band-averaged f·S(f) of the multirate bank against the full-rate
    /// reference over 1 Hz .. 0.24·fs: 4 log-spaced points per decade, the
    /// top of the range, and every hold rate fs/stride in it.
    #[test]
    fn multirate_bank_matches_the_full_rate_spectrum() {
        // The static chain's bank scaled to fs = 10 kHz: the same fc/fs,
        // so the same strides, and 2^20 samples resolve 1 Hz.
        let fs = 1e4;
        let (a, f_low, f_high, seed) = (1e-5, 1e-3, fs / 4.0, 1);
        let mut bank = FlickerNoise::new(a, f_low, f_high, fs, seed).unwrap();
        let hold_rates: Vec<f64> = strides(&bank).iter().map(|&s| fs / s as f64).collect();
        let multirate: Vec<f64> = (0..1 << 20).map(|_| bank.sample()).collect();
        let mut full = full_rate_bank(a, f_low, f_high, fs, seed ^ 0x5EED);
        let reference: Vec<f64> = (0..1 << 20).map(|_| full()).collect();
        let got = welch_psd(&multirate, fs, 1 << 16).unwrap();
        let want = welch_psd(&reference, fs, 1 << 16).unwrap();
        let top = 0.24 * fs;
        let grid = (0..).map(|k| 10f64.powf(f64::from(k) / 4.0));
        let points = grid
            .take_while(|&f| f < top)
            .chain([top])
            .chain(hold_rates.into_iter().filter(|&f| (1.0..=top).contains(&f)));
        for f in points {
            let db = 10.0 * (band_density(&got, f) / band_density(&want, f)).log10();
            // Over seeds 0-39 the deviation had no mean offset at any point
            // (hold rates included) and a standard deviation of about
            // 0.9 dB/sqrt(f/Hz), as between two full-rate banks: the band
            // holds ~3.3 bins per Hz of f. The tolerance is five of those;
            // the worst of the 40 seeds reached 3.3.
            let tolerance = 4.5 / f.sqrt();
            assert!(
                db.abs() < tolerance,
                "{f:.2} Hz: multirate f*S(f) {db:+.3} dB off the full-rate bank (tolerance {tolerance:.3})"
            );
        }
    }
}
