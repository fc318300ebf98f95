//! Assay protocols and sensorgram generation.
//!
//! A real biosensor experiment is a timeline: flow buffer to establish a
//! baseline, inject the sample (association), then wash with buffer
//! (dissociation). [`AssayProtocol`] captures that timeline and
//! [`AssayProtocol::run`] integrates the binding kinetics through it,
//! producing a [`Sensorgram`] — the coverage-vs-time trace that the
//! transducer (and eventually the paper's readout electronics) converts to
//! volts or hertz. [`AssayProtocol::samples`] yields the same samples one
//! at a time, for callers that fold the trace instead of keeping it.

use canti_units::{Molar, Seconds};

use crate::error::{ensure_coverage, ensure_positive, BioError};
use crate::kinetics::LangmuirKinetics;

/// One phase of an assay timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AssayPhase {
    /// Buffer flow — zero analyte concentration.
    Baseline {
        /// Phase duration.
        duration: Seconds,
    },
    /// Sample injection at a fixed analyte concentration.
    Inject {
        /// Analyte concentration during the injection.
        concentration: Molar,
        /// Phase duration.
        duration: Seconds,
    },
    /// Buffer wash — dissociation phase (zero concentration).
    Wash {
        /// Phase duration.
        duration: Seconds,
    },
}

impl AssayPhase {
    /// Phase duration.
    #[must_use]
    pub fn duration(&self) -> Seconds {
        match *self {
            Self::Baseline { duration }
            | Self::Wash { duration }
            | Self::Inject { duration, .. } => duration,
        }
    }

    /// Analyte concentration during the phase.
    #[must_use]
    pub fn concentration(&self) -> Molar {
        match *self {
            Self::Inject { concentration, .. } => concentration,
            _ => Molar::zero(),
        }
    }
}

/// A full assay timeline.
///
/// # Examples
///
/// ```
/// use canti_bio::assay::AssayProtocol;
/// use canti_bio::kinetics::LangmuirKinetics;
/// use canti_units::{Molar, Seconds};
///
/// let protocol = AssayProtocol::standard(
///     Seconds::new(60.0),                 // baseline
///     Molar::from_nanomolar(10.0),        // sample
///     Seconds::new(300.0),                // association
///     Seconds::new(300.0),                // wash
/// );
/// let kinetics = LangmuirKinetics::new(1e5, 1e-4)?;
/// let gram = protocol.run(&kinetics, Seconds::new(1.0), 0.0)?;
/// // coverage peaks at the end of the injection:
/// let peak = gram.peak_coverage();
/// assert!(peak > 0.0 && peak < 1.0);
/// # Ok::<(), canti_bio::BioError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AssayProtocol {
    phases: Vec<AssayPhase>,
}

impl AssayProtocol {
    /// An empty protocol; add phases with [`Self::push`].
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The classic three-phase protocol: baseline → inject → wash.
    #[must_use]
    pub fn standard(
        baseline: Seconds,
        concentration: Molar,
        association: Seconds,
        wash: Seconds,
    ) -> Self {
        Self {
            phases: vec![
                AssayPhase::Baseline { duration: baseline },
                AssayPhase::Inject {
                    concentration,
                    duration: association,
                },
                AssayPhase::Wash { duration: wash },
            ],
        }
    }

    /// A titration series: repeated inject/wash cycles with rising
    /// concentrations (for dose–response curves).
    #[must_use]
    pub fn titration(
        baseline: Seconds,
        concentrations: &[Molar],
        association: Seconds,
        wash: Seconds,
    ) -> Self {
        let mut phases = vec![AssayPhase::Baseline { duration: baseline }];
        for &c in concentrations {
            phases.push(AssayPhase::Inject {
                concentration: c,
                duration: association,
            });
            phases.push(AssayPhase::Wash { duration: wash });
        }
        Self { phases }
    }

    /// Appends a phase.
    pub fn push(&mut self, phase: AssayPhase) -> &mut Self {
        self.phases.push(phase);
        self
    }

    /// The timeline's phases.
    #[must_use]
    pub fn phases(&self) -> &[AssayPhase] {
        &self.phases
    }

    /// Total protocol duration.
    #[must_use]
    pub fn total_duration(&self) -> Seconds {
        self.phases.iter().map(AssayPhase::duration).sum()
    }

    /// Analyte concentration at absolute time `t` from protocol start.
    /// Times past the end return the last phase's concentration.
    #[must_use]
    pub fn concentration_at(&self, t: Seconds) -> Molar {
        let mut elapsed = 0.0;
        for phase in &self.phases {
            elapsed += phase.duration().value();
            if t.value() < elapsed {
                return phase.concentration();
            }
        }
        self.phases
            .last()
            .map_or(Molar::zero(), AssayPhase::concentration)
    }

    /// Integrates Langmuir kinetics through the protocol with sample
    /// interval `dt`, starting from coverage `theta0`: the
    /// [`Self::samples`] stream, collected.
    ///
    /// Uses the exact exponential update inside each phase, so `dt` only
    /// sets the output sampling, not the accuracy.
    ///
    /// # Errors
    ///
    /// Returns [`BioError`] if `dt` is not strictly positive, `theta0` is
    /// outside `[0, 1]`, or the run would exceed [`MAX_ASSAY_SAMPLES`].
    pub fn run(
        &self,
        kinetics: &LangmuirKinetics,
        dt: Seconds,
        theta0: f64,
    ) -> Result<Sensorgram, BioError> {
        let stream = self.samples(kinetics, dt, theta0)?;
        let mut samples = Vec::with_capacity(stream.len());
        samples.extend(stream);
        Ok(Sensorgram { samples })
    }

    /// The samples [`Self::run`] records, produced one at a time: a
    /// caller that only folds the trace keeps no buffer that grows with
    /// the sample count. `run` is this stream collected, so the two agree
    /// bit for bit.
    ///
    /// The checks run here, before the first sample.
    ///
    /// # Errors
    ///
    /// Returns [`BioError`] if `dt` is not strictly positive, `theta0` is
    /// outside `[0, 1]`, or the run would exceed [`MAX_ASSAY_SAMPLES`].
    pub fn samples(
        &self,
        kinetics: &LangmuirKinetics,
        dt: Seconds,
        theta0: f64,
    ) -> Result<AssaySamples<'_>, BioError> {
        ensure_positive("sample interval", dt.value())?;
        ensure_coverage(theta0)?;
        let total = self.total_duration().value();
        let steps = (total / dt.value()).ceil();
        // a NaN or negative step count falls through to zero steps below
        if steps >= MAX_ASSAY_SAMPLES as f64 {
            return Err(BioError::TooManySamples {
                requested: steps + 1.0,
                limit: MAX_ASSAY_SAMPLES,
            });
        }
        Ok(AssaySamples {
            protocol: self,
            kinetics: *kinetics,
            dt: dt.value(),
            total,
            steps: steps as usize,
            next: 0,
            theta: theta0,
        })
    }
}

/// Most samples one assay run may produce: 2²² (4 194 304), about 466×
/// a 450 s protocol sampled every 50 ms. [`AssayProtocol::samples`] and
/// [`AssayProtocol::run`] refuse a longer run with
/// [`BioError::TooManySamples`] before stepping or allocating anything,
/// so a pathological `dt` fails its own caller instead of exhausting the
/// process's memory or time.
pub const MAX_ASSAY_SAMPLES: usize = 1 << 22;

/// The stream of sensorgram samples an assay run produces; see
/// [`AssayProtocol::samples`].
#[derive(Debug, Clone)]
pub struct AssaySamples<'a> {
    protocol: &'a AssayProtocol,
    kinetics: LangmuirKinetics,
    dt: f64,
    total: f64,
    steps: usize,
    /// Index of the next sample (sample 0 is the starting state).
    next: usize,
    theta: f64,
}

impl Iterator for AssaySamples<'_> {
    type Item = SensorgramSample;

    // without the hint this stays an outlined call, and collecting a
    // 9 001-point run through it took ~24 % longer than the loop it
    // replaced; callers in other crates (the farm's fold) need the hint to
    // inline it at all
    #[inline]
    fn next(&mut self) -> Option<SensorgramSample> {
        let i = self.next;
        if i > self.steps {
            return None;
        }
        self.next += 1;
        if i == 0 {
            return Some(SensorgramSample {
                time: Seconds::zero(),
                coverage: self.theta,
                concentration: self.protocol.concentration_at(Seconds::zero()),
            });
        }
        let t = Seconds::new((i as f64 * self.dt).min(self.total));
        let t_prev = Seconds::new((i - 1) as f64 * self.dt);
        let step = Seconds::new(t.value() - t_prev.value());
        let c = self.protocol.concentration_at(t_prev);
        self.theta = self.kinetics.step(self.theta, c, step);
        Some(SensorgramSample {
            time: t,
            coverage: self.theta,
            concentration: c,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.steps + 1 - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for AssaySamples<'_> {}

/// One step of the running maximum behind [`Sensorgram::peak_coverage`]:
/// a streamed run that starts its peak at `0.0` and steps it with every
/// sample's coverage ends with the same bits.
#[must_use]
pub fn peak_coverage_step(peak: f64, coverage: f64) -> f64 {
    peak.max(coverage)
}

/// One time point of a sensorgram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorgramSample {
    /// Time from protocol start.
    pub time: Seconds,
    /// Fractional receptor coverage.
    pub coverage: f64,
    /// Analyte concentration the surface saw during this step.
    pub concentration: Molar,
}

/// Coverage-vs-time trace produced by running an assay.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Sensorgram {
    samples: Vec<SensorgramSample>,
}

impl Sensorgram {
    /// The recorded samples, in time order.
    #[must_use]
    pub fn samples(&self) -> &[SensorgramSample] {
        &self.samples
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Maximum coverage reached: [`peak_coverage_step`] folded over the
    /// samples from `0.0`.
    #[must_use]
    pub fn peak_coverage(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| s.coverage)
            .fold(0.0, peak_coverage_step)
    }

    /// Final coverage.
    #[must_use]
    pub fn final_coverage(&self) -> f64 {
        self.samples.last().map_or(0.0, |s| s.coverage)
    }

    /// Coverage at (the closest sample to) time `t`.
    #[must_use]
    pub fn coverage_at(&self, t: Seconds) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let idx = self
            .samples
            .binary_search_by(|s| {
                s.time
                    .value()
                    .partial_cmp(&t.value())
                    .expect("finite times")
            })
            .unwrap_or_else(|i| i.min(self.samples.len() - 1));
        Some(self.samples[idx].coverage)
    }

    /// Iterates over `(time, coverage)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Seconds, f64)> + '_ {
        self.samples.iter().map(|s| (s.time, s.coverage))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinetics() -> LangmuirKinetics {
        LangmuirKinetics::new(1e5, 1e-4).unwrap()
    }

    #[test]
    fn standard_protocol_shape() {
        let p = AssayProtocol::standard(
            Seconds::new(60.0),
            Molar::from_nanomolar(10.0),
            Seconds::new(300.0),
            Seconds::new(240.0),
        );
        assert_eq!(p.phases().len(), 3);
        assert_eq!(p.total_duration().value(), 600.0);
        assert_eq!(p.concentration_at(Seconds::new(30.0)).value(), 0.0);
        assert!((p.concentration_at(Seconds::new(100.0)).as_nanomolar() - 10.0).abs() < 1e-9);
        assert_eq!(p.concentration_at(Seconds::new(500.0)).value(), 0.0);
    }

    #[test]
    fn sensorgram_rises_then_falls() {
        let p = AssayProtocol::standard(
            Seconds::new(60.0),
            Molar::from_nanomolar(50.0),
            Seconds::new(600.0),
            Seconds::new(600.0),
        );
        let gram = p.run(&kinetics(), Seconds::new(1.0), 0.0).unwrap();
        // flat baseline
        assert_eq!(gram.coverage_at(Seconds::new(59.0)).unwrap(), 0.0);
        // rising during association
        let mid = gram.coverage_at(Seconds::new(300.0)).unwrap();
        let end_assoc = gram.coverage_at(Seconds::new(659.0)).unwrap();
        assert!(end_assoc > mid && mid > 0.0);
        // falling during wash
        let end = gram.final_coverage();
        assert!(end < end_assoc, "wash must reduce coverage");
        assert!(end > 0.0, "slow k_off leaves residual coverage");
        assert_eq!(gram.peak_coverage(), end_assoc.max(gram.peak_coverage()));
    }

    #[test]
    fn titration_increases_peak_with_concentration() {
        let concs: Vec<Molar> = [1.0, 10.0, 100.0]
            .iter()
            .map(|&c| Molar::from_nanomolar(c))
            .collect();
        let p = AssayProtocol::titration(
            Seconds::new(10.0),
            &concs,
            Seconds::new(200.0),
            Seconds::new(50.0),
        );
        assert_eq!(p.phases().len(), 1 + 3 * 2);
        let gram = p.run(&kinetics(), Seconds::new(1.0), 0.0).unwrap();
        // coverage at the end of each injection grows with the dose
        let c1 = gram.coverage_at(Seconds::new(209.0)).unwrap();
        let c2 = gram.coverage_at(Seconds::new(459.0)).unwrap();
        let c3 = gram.coverage_at(Seconds::new(709.0)).unwrap();
        assert!(c1 < c2 && c2 < c3, "{c1} {c2} {c3}");
    }

    #[test]
    fn run_validates_inputs() {
        let p = AssayProtocol::standard(
            Seconds::new(1.0),
            Molar::from_nanomolar(1.0),
            Seconds::new(1.0),
            Seconds::new(1.0),
        );
        assert!(p.run(&kinetics(), Seconds::new(0.0), 0.0).is_err());
        assert!(p.run(&kinetics(), Seconds::new(1.0), 2.0).is_err());
    }

    #[test]
    fn run_is_the_sample_stream_collected_at_exact_capacity() {
        let p = AssayProtocol::standard(
            Seconds::new(30.0),
            Molar::from_nanomolar(20.0),
            Seconds::new(300.0),
            Seconds::new(120.0),
        );
        for dt in [0.05, 0.7, 5.0, 1000.0] {
            let dt = Seconds::new(dt);
            let gram = p.run(&kinetics(), dt, 0.1).unwrap();
            assert_eq!(gram.samples.capacity(), gram.len());
            let stream = p.samples(&kinetics(), dt, 0.1).unwrap();
            assert_eq!(stream.len(), gram.len());
            let streamed: Vec<SensorgramSample> = stream.collect();
            assert_eq!(streamed, gram.samples());
            let peak = streamed
                .iter()
                .fold(0.0, |m, s| peak_coverage_step(m, s.coverage));
            assert_eq!(peak.to_bits(), gram.peak_coverage().to_bits());
        }
        let mut stream = p.samples(&kinetics(), Seconds::new(200.0), 0.0).unwrap();
        assert_eq!(stream.size_hint(), (4, Some(4)));
        stream.by_ref().for_each(drop);
        assert_eq!(stream.size_hint(), (0, Some(0)));
        assert!(stream.next().is_none());
    }

    #[test]
    fn sample_count_is_bounded_before_anything_runs() {
        let p = AssayProtocol::standard(
            Seconds::new(30.0),
            Molar::from_nanomolar(20.0),
            Seconds::new(300.0),
            Seconds::new(120.0),
        );
        for dt in [1e-9, 1e-15, f64::MIN_POSITIVE] {
            match p.run(&kinetics(), Seconds::new(dt), 0.0) {
                Err(BioError::TooManySamples { requested, limit }) => {
                    assert_eq!(limit, MAX_ASSAY_SAMPLES);
                    assert!(requested > 4e11, "dt {dt}: {requested}");
                }
                other => panic!("dt {dt}: expected TooManySamples, got {other:?}"),
            }
        }
        // the bound is inclusive: exactly MAX_ASSAY_SAMPLES samples pass
        let edge = |steps: usize| {
            let mut p = AssayProtocol::new();
            p.push(AssayPhase::Baseline {
                duration: Seconds::new(steps as f64),
            });
            p.samples(&kinetics(), Seconds::new(1.0), 0.0)
                .map(|s| s.len())
        };
        assert_eq!(edge(MAX_ASSAY_SAMPLES - 1), Ok(MAX_ASSAY_SAMPLES));
        assert!(matches!(
            edge(MAX_ASSAY_SAMPLES),
            Err(BioError::TooManySamples { .. })
        ));
        // the interval and coverage checks still come first
        assert!(matches!(
            p.samples(&kinetics(), Seconds::new(0.0), 0.0),
            Err(BioError::NonPositive { .. })
        ));
        assert!(matches!(
            p.samples(&kinetics(), Seconds::new(1e-9), 2.0),
            Err(BioError::CoverageOutOfRange { .. })
        ));
    }

    #[test]
    fn sensorgram_sample_count_and_timing() {
        let p = AssayProtocol::standard(
            Seconds::new(5.0),
            Molar::from_nanomolar(1.0),
            Seconds::new(5.0),
            Seconds::new(5.0),
        );
        let gram = p.run(&kinetics(), Seconds::new(1.0), 0.0).unwrap();
        assert_eq!(gram.len(), 16); // 0..=15 s
        assert_eq!(gram.samples().first().unwrap().time.value(), 0.0);
        assert_eq!(gram.samples().last().unwrap().time.value(), 15.0);
        assert!(!gram.is_empty());
        let pairs: Vec<_> = gram.iter().collect();
        assert_eq!(pairs.len(), gram.len());
    }

    #[test]
    fn empty_protocol_yields_single_sample() {
        let p = AssayProtocol::new();
        let gram = p.run(&kinetics(), Seconds::new(1.0), 0.25).unwrap();
        assert_eq!(gram.len(), 1);
        assert_eq!(gram.final_coverage(), 0.25);
        assert!(Sensorgram::default().coverage_at(Seconds::zero()).is_none());
    }
}
