//! Job specifications and their execution.
//!
//! A [`JobSpec`] is a pure value describing one simulation; execution
//! turns it into named scalar metrics using only (a) the job's own seeded
//! RNG stream and (b) the shared [`PrecomputeCache`]. Nothing else flows
//! between jobs — that independence is what makes batches bit-identical
//! across worker counts.

use canti_bio::assay::AssayProtocol;
use canti_bio::kinetics::{CompetitiveKinetics, LangmuirKinetics};
use canti_bio::receptor::{BindingConstants, ReceptorLayer};
use canti_core::assay::static_assay_peaks;
use canti_core::chip::BiosensorChip;
use canti_core::static_system::StaticReadoutConfig;
use canti_fab::variation::Distribution;
use canti_units::{Kilograms, Meters, Molar, Seconds};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::cache::PrecomputeCache;
use crate::telemetry::{timed_stage, JobInstruments};

/// Receptor chemistries a job can request (value-typed so specs stay
/// `Clone + Send + Sync`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Receptor {
    /// Anti-IgG antibody layer (the paper's motivating immunoassay).
    AntiIgg,
    /// Anti-PSA antibody layer.
    AntiPsa,
    /// 20-mer ssDNA probe layer.
    Dna20mer,
}

impl Receptor {
    /// Instantiates the receptor layer.
    #[must_use]
    pub fn layer(&self) -> ReceptorLayer {
        match self {
            Self::AntiIgg => ReceptorLayer::anti_igg(),
            Self::AntiPsa => ReceptorLayer::anti_psa(),
            Self::Dna20mer => ReceptorLayer::dna_probe_20mer(),
        }
    }
}

/// Synthetic probe behaviours for exercising the farm itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProbeMode {
    /// Echo a value plus one draw from the job's RNG stream.
    Value(f64),
    /// Sum `n` Gaussian draws from the job's RNG stream.
    Draws(usize),
    /// Panic (tests per-job fault isolation).
    Panic,
    /// Always fail (tests per-job error isolation).
    Fail,
    /// Fail when the job's next RNG draw falls below `p_fail`: a seeded
    /// failure rate, so the same batch fails the same jobs at any worker
    /// count.
    Flaky {
        /// Failure probability in `[0, 1]`.
        p_fail: f64,
    },
}

/// One simulation job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// One dose point of a static-mode dose-response sweep: run the full
    /// assay protocol at `concentration` and report the transduced peak.
    StaticDoseResponse {
        /// Receptor chemistry on the sensing cantilever.
        receptor: Receptor,
        /// Analyte concentration injected.
        concentration: Molar,
        /// Pre-injection baseline duration.
        baseline: Seconds,
        /// Association (injection) duration.
        association: Seconds,
        /// Wash duration.
        wash: Seconds,
        /// Assay sampling period.
        dt: Seconds,
        /// Electrical samples averaged per assay point.
        averaging: usize,
    },
    /// One Monte-Carlo trial of resonant-chip process variation: draw a
    /// silicon core thickness from `Normal(nominal, rel sigma)` and report
    /// the resulting resonator small-signal figures.
    ProcessVariation {
        /// Relative (fractional) 1σ of the core thickness.
        thickness_sigma_rel: f64,
    },
    /// One point of a cross-reactivity panel: competitive equilibrium of
    /// the target against an interferent, transduced through the static
    /// chain.
    CrossReactivity {
        /// Target analyte concentration.
        target: Molar,
        /// Interferent concentration.
        interferent: Molar,
    },
    /// A synthetic probe job (farm self-tests and benches).
    Probe(ProbeMode),
    /// One full autonomous scan of the paper's four-channel static chip
    /// under a seeded fault plan: the instrument runs with the resilient
    /// recovery policy, so transient faults are retried and persistent
    /// ones quarantined, and the job reports the degradation tally
    /// instead of aborting.
    ChaosScan {
        /// Seed of the generated [`canti_fault::FaultPlan`].
        fault_seed: u64,
        /// Number of fault events in the plan.
        faults: usize,
        /// Electrical samples per channel measurement (keep ≳2000 so the
        /// readout chain settles and healthy channels do not rail).
        samples: usize,
    },
}

impl JobSpec {
    /// A dose point with the quick-immunoassay protocol defaults.
    #[must_use]
    pub fn dose_point(receptor: Receptor, concentration: Molar) -> Self {
        Self::StaticDoseResponse {
            receptor,
            concentration,
            baseline: Seconds::new(30.0),
            association: Seconds::new(300.0),
            wash: Seconds::new(120.0),
            dt: Seconds::new(5.0),
            averaging: 256,
        }
    }

    /// The job's kind tag (matches [`crate::JobOutput::kind`]).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::StaticDoseResponse { .. } => "dose_response",
            Self::ProcessVariation { .. } => "process_variation",
            Self::CrossReactivity { .. } => "cross_reactivity",
            Self::Probe(_) => "probe",
            Self::ChaosScan { .. } => "chaos_scan",
        }
    }
}

/// A dose-response sweep over `concentrations_nm` (nanomolar), anti-IgG.
#[must_use]
pub fn dose_response_sweep(concentrations_nm: &[f64]) -> Vec<JobSpec> {
    concentrations_nm
        .iter()
        .map(|&c| JobSpec::dose_point(Receptor::AntiIgg, Molar::from_nanomolar(c)))
        .collect()
}

/// `trials` Monte-Carlo process-variation jobs at relative sigma
/// `sigma_rel`.
#[must_use]
pub fn process_variation_batch(trials: usize, sigma_rel: f64) -> Vec<JobSpec> {
    (0..trials)
        .map(|_| JobSpec::ProcessVariation {
            thickness_sigma_rel: sigma_rel,
        })
        .collect()
}

/// A cross-reactivity panel: fixed target (nanomolar) against a sweep of
/// interferent levels (micromolar).
#[must_use]
pub fn cross_reactivity_panel(target_nm: f64, interferent_um: &[f64]) -> Vec<JobSpec> {
    interferent_um
        .iter()
        .map(|&c| JobSpec::CrossReactivity {
            target: Molar::from_nanomolar(target_nm),
            interferent: Molar::from_micromolar(c),
        })
        .collect()
}

/// A batch of `scans` chaos scans with consecutive fault-plan seeds
/// derived from `fault_seed`, `faults` events each.
#[must_use]
pub fn chaos_scan_batch(scans: usize, fault_seed: u64, faults: usize) -> Vec<JobSpec> {
    (0..scans)
        .map(|i| JobSpec::ChaosScan {
            fault_seed: fault_seed.wrapping_add(i as u64),
            faults,
            samples: 2_000,
        })
        .collect()
}

/// Nominal silicon core thickness of the paper's resonant beam, m.
const NOMINAL_CORE_THICKNESS: f64 = 5.0e-6;

/// Executes one job against its private RNG stream and the shared cache.
///
/// Returns the metrics (kind-specific fixed order) or a failure reason.
/// Panics are *not* caught here — the farm catches them at the job
/// boundary. `obs`, when present, times the shared-cache fetches as the
/// "precompute" stage; it never influences results.
pub(crate) fn execute(
    spec: &JobSpec,
    rng: &mut ChaCha8Rng,
    cache: &PrecomputeCache,
    obs: Option<&JobInstruments>,
) -> Result<Vec<(&'static str, f64)>, String> {
    match spec {
        JobSpec::StaticDoseResponse {
            receptor,
            concentration,
            baseline,
            association,
            wash,
            dt,
            averaging,
        } => {
            let chain = timed_stage(obs, "precompute", || {
                cache.static_chain(&StaticReadoutConfig::default())
            })
            .map_err(|e| e.to_string())?;
            let layer = receptor.layer();
            let protocol = AssayProtocol::standard(*baseline, *concentration, *association, *wash);
            let kinetics = LangmuirKinetics::from_receptor(&layer);
            // one streamed pass: no per-point buffer, the collecting
            // runners' bits
            let samples = protocol
                .samples(&kinetics, *dt, 0.0)
                .map_err(|e| e.to_string())?;
            let noise_seed: u64 = rng.gen();
            let peaks = static_assay_peaks(&chain, &layer, samples, *averaging, noise_seed)
                .map_err(|e| e.to_string())?;
            let peak = peaks.peak_signal;
            let noise = chain.per_point_noise(*averaging);
            Ok(vec![
                ("peak_volts", peak),
                ("peak_coverage", peaks.peak_coverage),
                ("noise_volts", noise),
                ("snr", peak.abs() / noise),
            ])
        }
        JobSpec::ProcessVariation {
            thickness_sigma_rel,
        } => {
            let dist = Distribution::Normal {
                mean: NOMINAL_CORE_THICKNESS,
                sigma: thickness_sigma_rel * NOMINAL_CORE_THICKNESS,
            };
            dist.validate().map_err(|e| e.to_string())?;
            let thickness = dist.sample(rng);
            if thickness <= 0.0 {
                return Err(format!(
                    "drawn core thickness {thickness} m is non-physical"
                ));
            }
            let base = timed_stage(obs, "precompute", || cache.resonant_baseline())
                .map_err(|e| e.to_string())?;
            let nominal = BiosensorChip::paper_resonant_chip().map_err(|e| e.to_string())?;
            let geometry = nominal
                .geometry()
                .with_core_thickness(Meters::new(thickness));
            let chip = nominal.with_geometry(geometry).map_err(|e| e.to_string())?;
            let system = canti_core::resonant_system::ResonantCantileverSystem::new(
                chip,
                canti_core::chip::Environment::air(),
                canti_core::resonant_system::ResonantLoopConfig::default(),
            )
            .map_err(|e| e.to_string())?;
            let loading = system.mass_loading();
            let f0 = loading.resonator().resonant_frequency().value();
            let resp = loading.responsivity();
            let min_mass = loading
                .min_detectable_mass(canti_units::Hertz::new(0.1))
                .map_err(|e| e.to_string())?;
            let _: Kilograms = min_mass;
            Ok(vec![
                ("core_thickness_um", thickness * 1e6),
                ("f0_hz", f0),
                ("f0_shift_rel", f0 / base.baseline_frequency_hz - 1.0),
                ("responsivity_hz_per_kg", resp),
                ("min_detectable_kg", min_mass.value()),
            ])
        }
        JobSpec::CrossReactivity {
            target,
            interferent,
        } => {
            let chain = timed_stage(obs, "precompute", || {
                cache.static_chain(&StaticReadoutConfig::default())
            })
            .map_err(|e| e.to_string())?;
            let layer = ReceptorLayer::anti_igg();
            // weak cross-reactive binder: 1000x poorer affinity than the
            // target (the A5 experiment's interferent model)
            let weak = BindingConstants::new(1e3, 1e-2).map_err(|e| e.to_string())?;
            let competitive = CompetitiveKinetics::new(layer.binding(), weak);
            let clean = competitive.equilibrium(*target, Molar::zero()).target;
            let eq = competitive.equilibrium(*target, *interferent);
            let sigma = layer
                .surface_stress_at(eq.target)
                .map_err(|e| e.to_string())?;
            let specific_err_pct = if clean > 0.0 {
                (eq.target - clean) / clean * 100.0
            } else {
                0.0
            };
            Ok(vec![
                ("target_coverage", eq.target),
                ("interferent_coverage", eq.interferent),
                ("specific_err_pct", specific_err_pct),
                (
                    "output_volts",
                    chain.transfer_volts_per_stress * sigma.value(),
                ),
            ])
        }
        JobSpec::Probe(mode) => match mode {
            ProbeMode::Value(v) => Ok(vec![("value", *v), ("draw", rng.gen::<f64>())]),
            ProbeMode::Draws(n) => {
                let dist = Distribution::Normal {
                    mean: 0.0,
                    sigma: 1.0,
                };
                let sum: f64 = (0..*n).map(|_| dist.sample(rng)).sum();
                Ok(vec![("sum", sum)])
            }
            ProbeMode::Panic => panic!("probe job panic (intentional)"),
            ProbeMode::Fail => Err("probe job failure (intentional)".to_owned()),
            ProbeMode::Flaky { p_fail } => {
                let draw = rng.gen::<f64>();
                if draw < *p_fail {
                    Err(format!("flaky probe failed (drew {draw:.3} < {p_fail})"))
                } else {
                    Ok(vec![("draw", draw)])
                }
            }
        },
        JobSpec::ChaosScan {
            fault_seed,
            faults,
            samples,
        } => {
            use canti_core::autonomous::{AutonomousInstrument, ChannelStatus, RecoveryPolicy};
            use canti_core::static_system::{StaticCantileverSystem, CHANNELS};
            use canti_fault::{ChaosConfig, FaultPlan, PlannedInjector};

            let chip = BiosensorChip::paper_static_chip().map_err(|e| e.to_string())?;
            let system = StaticCantileverSystem::new(chip, StaticReadoutConfig::default())
                .map_err(|e| e.to_string())?;
            let mut instrument = AutonomousInstrument::new(system).map_err(|e| e.to_string())?;
            // when the batch is observed, the instrument's fault/recovery
            // events and counters flow into the farm's trace and metrics
            // streams (the obsctl fault-health gate reads them there)
            if let Some(o) = obs {
                instrument.set_tracer(o.tracer.clone());
                instrument.set_metrics(std::sync::Arc::clone(&o.metrics));
            }
            instrument.set_recovery_policy(RecoveryPolicy::resilient());
            let chaos = ChaosConfig {
                faults: *faults,
                ..ChaosConfig::default()
            };
            let plan = FaultPlan::generate(*fault_seed, CHANNELS, &chaos);
            instrument.set_fault_injector(Box::new(PlannedInjector::new(plan)));
            instrument.power_on().map_err(|e| e.to_string())?;

            // a known stress pattern so healthy channels carry signal
            let mut sigmas = [canti_units::SurfaceStress::zero(); CHANNELS];
            sigmas[1] = canti_units::SurfaceStress::from_millinewtons_per_meter(2.0);
            let report = instrument
                .run_scan(sigmas, *samples)
                .map_err(|e| e.to_string())?;

            let ok = report
                .status
                .iter()
                .filter(|s| **s == ChannelStatus::Ok)
                .count();
            let retry_attempts: u32 = report
                .status
                .iter()
                .map(|s| match s {
                    ChannelStatus::Retried { attempts } => *attempts,
                    _ => 0,
                })
                .sum();
            let usable: Vec<f64> = report
                .status
                .iter()
                .zip(report.outputs.iter())
                .filter(|(s, _)| s.is_usable())
                .map(|(_, v)| v.value())
                .collect();
            // quarantined channels carry NaN outputs; keep them out of the
            // mean so the metric stays comparable (NaN breaks report ==)
            let mean_usable = if usable.is_empty() {
                0.0
            } else {
                usable.iter().sum::<f64>() / usable.len() as f64
            };
            Ok(vec![
                ("channels_ok", ok as f64),
                ("channels_retried", report.retried_channels() as f64),
                ("channels_quarantined", report.quarantined_channels() as f64),
                ("retry_attempts", f64::from(retry_attempts)),
                ("mean_usable_volts", mean_usable),
            ])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn builders_shape_batches() {
        let sweep = dose_response_sweep(&[1.0, 10.0, 100.0]);
        assert_eq!(sweep.len(), 3);
        assert!(matches!(sweep[0], JobSpec::StaticDoseResponse { .. }));
        assert_eq!(sweep[0].kind(), "dose_response");

        let mc = process_variation_batch(5, 0.02);
        assert_eq!(mc.len(), 5);
        assert_eq!(mc[0].kind(), "process_variation");

        let panel = cross_reactivity_panel(1.0, &[0.0, 10.0]);
        assert_eq!(panel.len(), 2);
        assert_eq!(panel[0].kind(), "cross_reactivity");
    }

    #[test]
    fn probe_jobs_are_deterministic_per_seed() {
        let cache = PrecomputeCache::new();
        let a = execute(
            &JobSpec::Probe(ProbeMode::Draws(16)),
            &mut rng(5),
            &cache,
            None,
        )
        .unwrap();
        let b = execute(
            &JobSpec::Probe(ProbeMode::Draws(16)),
            &mut rng(5),
            &cache,
            None,
        )
        .unwrap();
        assert_eq!(a, b);
        let c = execute(
            &JobSpec::Probe(ProbeMode::Draws(16)),
            &mut rng(6),
            &cache,
            None,
        )
        .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn process_variation_tracks_thickness() {
        let cache = PrecomputeCache::new();
        // zero sigma: the drawn thickness is exactly nominal
        let spec = JobSpec::ProcessVariation {
            thickness_sigma_rel: 0.0,
        };
        let m = execute(&spec, &mut rng(1), &cache, None).unwrap();
        let get = |n: &str| m.iter().find(|(k, _)| *k == n).unwrap().1;
        assert!((get("core_thickness_um") - 5.0).abs() < 1e-12);
        assert!(
            get("f0_shift_rel").abs() < 1e-9,
            "nominal draw shifts nothing"
        );
        assert!(get("f0_hz") > 10e3);
        assert!(get("min_detectable_kg") > 0.0);
        // thicker beam -> stiffer -> higher f0: check monotonicity through
        // a forced draw by sampling with a wide sigma until above nominal
        let wide = JobSpec::ProcessVariation {
            thickness_sigma_rel: 0.05,
        };
        let mut r = rng(3);
        let v = execute(&wide, &mut r, &cache, None).unwrap();
        let t = v.iter().find(|(k, _)| *k == "core_thickness_um").unwrap().1;
        let f = v.iter().find(|(k, _)| *k == "f0_hz").unwrap().1;
        let f_nominal = get("f0_hz");
        if t > 5.0 {
            assert!(f > f_nominal, "thicker ({t} um) must be faster");
        } else {
            assert!(f < f_nominal, "thinner ({t} um) must be slower");
        }
    }

    #[test]
    fn cross_reactivity_interferent_suppresses_target() {
        let cache = PrecomputeCache::new();
        let clean = execute(
            &JobSpec::CrossReactivity {
                target: Molar::from_nanomolar(1.0),
                interferent: Molar::zero(),
            },
            &mut rng(0),
            &cache,
            None,
        )
        .unwrap();
        let heavy = execute(
            &JobSpec::CrossReactivity {
                target: Molar::from_nanomolar(1.0),
                interferent: Molar::from_micromolar(100.0),
            },
            &mut rng(0),
            &cache,
            None,
        )
        .unwrap();
        let get = |m: &[(&str, f64)], n: &str| m.iter().find(|(k, _)| *k == n).unwrap().1;
        assert_eq!(get(&clean, "specific_err_pct"), 0.0);
        assert!(
            get(&heavy, "target_coverage") < get(&clean, "target_coverage"),
            "competition must displace the target"
        );
        assert!(get(&heavy, "specific_err_pct") < 0.0);
        assert!(get(&heavy, "interferent_coverage") > 0.0);
    }
}
