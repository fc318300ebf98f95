//! Integration: the complete static-mode pipeline, fab → mechanics →
//! biochemistry → electronics → sensorgram.

use canti::bio::analyte::Analyte;
use canti::bio::assay::AssayProtocol;
use canti::bio::kinetics::LangmuirKinetics;
use canti::bio::receptor::ReceptorLayer;
use canti::fab::process::{PostCmosFlow, WaferSpec};
use canti::mems::beam::CompositeBeam;
use canti::mems::surface_stress::SurfaceStressLoad;
use canti::system::assay::{run_static_assay, StaticChainResponse};
use canti::system::chip::BiosensorChip;
use canti::system::static_system::{
    StaticCantileverSystem, StaticReadoutConfig, REFERENCE_CHANNEL,
};
use canti::units::{Molar, Seconds, SurfaceStress};

/// The fabricated beam thickness (etch-stop) must match what the chip
/// model assumes, and the released beam must actually be released.
#[test]
fn fabrication_feeds_the_chip_model() {
    let flow_result = PostCmosFlow::paper()
        .run(&WaferSpec::nominal())
        .expect("flow");
    assert!(flow_result.released);

    let chip = BiosensorChip::paper_static_chip().expect("chip");
    let core = &chip.geometry().layers()[0];
    assert!(
        (core.thickness.value() - flow_result.beam_thickness.value()).abs() < 1e-9,
        "chip model core thickness must equal the etch-stop-defined membrane"
    );
}

/// The full chain: 50 nM IgG sample → coverage → surface stress →
/// deflection → bridge → chopper chain → volts, with every conversion
/// consistent with its substrate model.
#[test]
fn full_static_pipeline_consistency() {
    let receptor = ReceptorLayer::anti_igg();
    let analyte = Analyte::igg();
    let chip = BiosensorChip::paper_static_chip().expect("chip");
    let beam = CompositeBeam::new(chip.geometry()).expect("beam");

    // biochemistry: equilibrium coverage at 50 nM with KD = 1 nM
    let kinetics = LangmuirKinetics::from_receptor(&receptor);
    let c = Molar::from_nanomolar(50.0);
    let theta_eq = kinetics.equilibrium_coverage(c);
    assert!(theta_eq > 0.97, "50 nM >> KD");

    // transduction: coverage -> stress -> deflection
    let sigma = receptor.surface_stress_at(theta_eq).expect("stress");
    let deflection = SurfaceStressLoad::new(&beam).tip_deflection(sigma);
    assert!(
        deflection.as_nanometers() > 0.1 && deflection.as_nanometers() < 100.0,
        "deflection {} nm",
        deflection.as_nanometers()
    );

    // electronics: the measured output matches transfer * stress within
    // noise + DAC residuals
    let mut system =
        StaticCantileverSystem::new(chip, StaticReadoutConfig::default()).expect("system");
    system.calibrate_offsets().expect("calibration");
    let baseline = system
        .measure(0, SurfaceStress::zero(), 15_000)
        .expect("baseline");
    let loaded = system.measure(0, sigma, 15_000).expect("loaded");
    let measured = loaded.value() - baseline.value();
    let predicted = system.transfer_volts_per_stress().expect("transfer") * sigma.value();
    assert!(
        (measured - predicted).abs() / predicted.abs() < 0.1,
        "measured {measured} V vs predicted {predicted} V"
    );

    // the analyte's bound mass is picograms (sanity tie-in to bio)
    let mass = receptor
        .bound_mass(&analyte, system.chip().geometry().plan_area(), theta_eq)
        .expect("mass");
    assert!(mass.as_picograms() > 10.0 && mass.as_picograms() < 1e4);
}

/// An assay sensorgram through the static system: rises during
/// association, falls during wash, and the reference channel stays flat.
#[test]
fn assay_sensorgram_shape() {
    let receptor = ReceptorLayer::anti_igg();
    let chip = BiosensorChip::paper_static_chip().expect("chip");
    let mut system =
        StaticCantileverSystem::new(chip, StaticReadoutConfig::default()).expect("system");
    system.calibrate_offsets().expect("calibration");

    let protocol = AssayProtocol::standard(
        Seconds::new(60.0),
        Molar::from_nanomolar(50.0),
        Seconds::new(600.0),
        Seconds::new(600.0),
    );
    let kinetics = LangmuirKinetics::from_receptor(&receptor);
    let gram = protocol
        .run(&kinetics, Seconds::new(5.0), 0.0)
        .expect("gram");
    let trace = run_static_assay(&mut system, &receptor, &gram, 256).expect("trace");

    let v = |t: f64| trace.output_at(Seconds::new(t)).expect("point");
    let baseline = v(30.0);
    let end_assoc = v(655.0);
    let end_wash = v(1255.0);
    assert!(end_assoc > baseline + 1e-3, "association must raise output");
    assert!(end_wash < end_assoc, "wash must lower output");
    assert!(end_wash > baseline, "slow k_off leaves residual signal");
}

/// Four-channel operation: stressing one channel must not move the others
/// (beyond noise), and the reference channel tracks zero.
#[test]
fn channel_isolation() {
    let chip = BiosensorChip::paper_static_chip().expect("chip");
    let mut system =
        StaticCantileverSystem::new(chip, StaticReadoutConfig::default()).expect("system");
    system.calibrate_offsets().expect("calibration");

    let zero = [SurfaceStress::zero(); 4];
    let baseline = system.scan(zero, 10_000).expect("baseline");

    let mut sigmas = zero;
    sigmas[1] = SurfaceStress::from_millinewtons_per_meter(5.0);
    let loaded = system.scan(sigmas, 10_000).expect("loaded");

    let delta: Vec<f64> = (0..4)
        .map(|i| (loaded[i] - baseline[i]).value().abs())
        .collect();
    assert!(delta[1] > 5e-3, "stressed channel moves: {delta:?}");
    for (i, d) in delta.iter().enumerate() {
        if i != 1 {
            assert!(
                *d < delta[1] / 5.0,
                "channel {i} must stay quiet: {delta:?}"
            );
        }
    }
    const { assert!(REFERENCE_CHANNEL != 1) };
}

/// The chain characterization's floating-point results are pinned bit for
/// bit for the default config: the transfer and noise floor the farm
/// memoizes, and a calibrated channel's settled mean and noise. The
/// settling and averaging bursts stream through the chain uncollected;
/// the noise bits were cross-checked against a run that collects every
/// burst first, so they also pin the streaming.
#[test]
fn chain_characterization_bits_are_pinned() {
    let fresh = || {
        StaticCantileverSystem::new(
            BiosensorChip::paper_static_chip().expect("chip"),
            StaticReadoutConfig::default(),
        )
        .expect("system")
    };
    let chain = StaticChainResponse::measure(&mut fresh()).expect("chain");
    assert_eq!(
        chain.transfer_volts_per_stress.to_bits(),
        0x4000_71DA_7F1B_1602
    );
    assert_eq!(chain.noise_rms_volts.to_bits(), 0x3F3A_008E_AB7E_F822);

    let mut system = fresh();
    system.calibrate_offsets().expect("calibration");
    let settled = system
        .measure(0, SurfaceStress::from_millinewtons_per_meter(5.0), 20_000)
        .expect("measure");
    let noise = system
        .output_noise_rms(1, SurfaceStress::zero(), 4_000)
        .expect("noise");
    assert_eq!(settled.value().to_bits(), 0xBF78_F0BE_5715_664B);
    assert_eq!(noise.value().to_bits(), 0x3F50_4A1E_C7AA_40DF);
}
