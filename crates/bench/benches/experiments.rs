//! Bench harness: one timed kernel per paper figure/claim experiment.
//!
//! The build environment is offline (no criterion), so this is a
//! `harness = false` micro-benchmark driver on `std::time::Instant`: each
//! kernel is warmed up, then run in batches until a time budget is spent,
//! reporting the per-iteration median-of-batches.
//!
//! ```text
//! cargo bench -p canti-bench --bench experiments            # everything
//! cargo bench -p canti-bench --bench experiments fig2 e7    # a subset
//! ```

use canti_analog::blocks::{Block, ButterworthLowPass, ChopperAmplifier};
use canti_analog::noise::{CompositeNoise, FlickerNoise, WhiteNoise};
use canti_bench::timing::Bencher;
use canti_bio::assay::AssayProtocol;
use canti_bio::kinetics::LangmuirKinetics;
use canti_bio::receptor::ReceptorLayer;
use canti_core::assay::{run_static_assay_precomputed, static_assay_peaks};
use canti_core::chip::{BiosensorChip, Environment};
use canti_core::resonant_system::{ResonantCantileverSystem, ResonantLoopConfig};
use canti_core::static_system::StaticReadoutConfig;
use canti_fab::drc::full_deck;
use canti_fab::layout::cantilever_cell;
use canti_fab::process::{PostCmosFlow, WaferSpec};
use canti_fab::variation::{Distribution, MonteCarlo};
use canti_farm::PrecomputeCache;
use canti_mems::beam::CompositeBeam;
use canti_mems::geometry::CantileverGeometry;
use canti_mems::surface_stress::SurfaceStressLoad;
use canti_units::{Meters, Molar, Seconds, Volts};

fn resonant_system() -> ResonantCantileverSystem {
    ResonantCantileverSystem::new(
        BiosensorChip::paper_resonant_chip().expect("chip"),
        Environment::air(),
        ResonantLoopConfig::default(),
    )
    .expect("system")
}

fn main() {
    // `cargo bench` passes `--bench` to harness = false binaries; only
    // bare words are kernel-name filters
    let filter: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .map(|a| a.to_lowercase())
        .collect();
    let mut b = Bencher::from_env(filter);

    b.bench("fig1_static_bending_point", || {
        let receptor = ReceptorLayer::anti_igg();
        let kinetics = LangmuirKinetics::from_receptor(&receptor);
        let geom = CantileverGeometry::paper_static().expect("geometry");
        let beam = CompositeBeam::new(&geom).expect("beam");
        move || {
            let theta = kinetics.coverage_at(Molar::from_nanomolar(10.0), 0.0, Seconds::new(300.0));
            let sigma = receptor.surface_stress_at(theta).expect("stress");
            std::hint::black_box(SurfaceStressLoad::new(&beam).tip_deflection(sigma));
        }
    });

    b.bench("fig2_resonant_loop_2000_samples", || {
        let mut sys = resonant_system();
        move || {
            std::hint::black_box(sys.run(2000));
        }
    });

    b.bench("fig3_process_flow_single", || {
        || {
            std::hint::black_box(PostCmosFlow::paper().run(&WaferSpec::nominal())).expect("flow");
        }
    });

    b.bench("fig3_process_flow_mc100", || {
        let mc = MonteCarlo::new(1, 100).expect("mc");
        let nwell = Distribution::Normal {
            mean: 5e-6,
            sigma: 0.1e-6,
        };
        move || {
            std::hint::black_box(mc.run(|rng, _| {
                let mut spec = WaferSpec::nominal();
                spec.nwell_depth = Meters::new(nwell.sample(rng));
                PostCmosFlow::paper()
                    .run(&spec)
                    .expect("flow")
                    .beam_thickness
            }));
        }
    });

    b.bench("fig4_readout_chain_10k_samples", || {
        let fs = 500e3;
        let noise = CompositeNoise::new(
            WhiteNoise::new(15e-9, fs, 1).expect("noise"),
            FlickerNoise::new(2e-6, 0.5, fs / 4.0, fs, 2).expect("noise"),
        );
        let mut amp = ChopperAmplifier::new(
            100.0,
            10e3,
            fs,
            Volts::from_millivolts(2.0),
            noise,
            Volts::zero(),
        )
        .expect("chopper");
        let mut lpf = ButterworthLowPass::new(500.0, fs).expect("lpf");
        move || {
            let mut acc = 0.0;
            for i in 0..10_000 {
                let x = 1e-5 * (i as f64 * 0.001).sin();
                acc += lpf.process(amp.process(x));
            }
            std::hint::black_box(acc);
        }
    });

    b.bench("fig5_feedback_startup_200_periods", || {
        || {
            let mut sys = resonant_system();
            std::hint::black_box(sys.steady_state(200)).expect("steady state");
        }
    });

    b.bench("e6_interference_referral", || {
        use canti_analog::interference::ReadoutTopology;
        let mono = ReadoutTopology::paper_monolithic(100.0);
        let disc = ReadoutTopology::conventional_discrete();
        move || {
            let (mono, disc, v) = std::hint::black_box((&mono, &disc, Volts::from_millivolts(1.0)));
            std::hint::black_box(mono.rejection_vs(disc, v));
        }
    });

    b.bench("e7_bridge_solve", || {
        use canti_analog::bridge::WheatstoneBridge;
        let bridge = WheatstoneBridge::paper_pmos().expect("bridge");
        move || {
            let (bridge, supply, strains) =
                std::hint::black_box((&bridge, Volts::new(2.5), [-1e-4, 1e-4, 1e-4, -1e-4]));
            std::hint::black_box(bridge.output(supply, strains));
        }
    });

    b.bench("e8_cost_crossover", || {
        use canti_fab::cost::CostModel;
        let wl = CostModel::wafer_level();
        let dl = CostModel::die_level();
        move || {
            let _ = std::hint::black_box(wl.crossover_volume(&dl));
        }
    });

    b.bench("e9_allan_deviation_m100", || {
        use canti_digital::allan::FrequencyRecord;
        let samples: Vec<f64> = (0..10_000)
            .map(|i| 1e-6 * (((i * 2654435761usize) % 997) as f64 / 500.0 - 1.0))
            .collect();
        let record = FrequencyRecord::new(samples, Seconds::new(0.01)).expect("record");
        move || {
            std::hint::black_box(record.allan_deviation(100)).expect("allan");
        }
    });

    b.bench("fig3_drc_full_deck", || {
        let cell = cantilever_cell(150.0, 140.0);
        let deck = full_deck();
        move || {
            std::hint::black_box(deck.run(&cell));
        }
    });

    b.bench("beam_reduction", || {
        let geom = CantileverGeometry::paper_resonant().expect("geometry");
        move || {
            std::hint::black_box(CompositeBeam::new(&geom)).expect("beam");
        }
    });

    b.bench("beam_mode_frequency", || {
        let geom = CantileverGeometry::paper_resonant().expect("geometry");
        let beam = CompositeBeam::new(&geom).expect("beam");
        move || {
            let (beam, mode) = std::hint::black_box((&beam, 1));
            std::hint::black_box(beam.mode_frequency(mode)).expect("mode");
        }
    });

    // Service start-up's floor: a fresh cache per iteration, so every
    // call builds the default chain, trims its offsets and measures its
    // noise burst.
    b.bench("static_chain_characterization", || {
        || {
            std::hint::black_box(
                PrecomputeCache::new().static_chain(&StaticReadoutConfig::default()),
            )
            .expect("chain");
        }
    });

    // The farm's dose-response kernel on the steady benchmark's spec
    // (anti-IgG, 30/300/120 s at dt 0.05 s, so 9 001 points; averaging
    // 256) through the memoized default chain: the streamed fold the farm
    // runs, then the collecting runners with the same bits.
    let chains = PrecomputeCache::new();
    let dose_point = || {
        let chain = *chains
            .static_chain(&StaticReadoutConfig::default())
            .expect("chain");
        let layer = ReceptorLayer::anti_igg();
        let kinetics = LangmuirKinetics::from_receptor(&layer);
        let protocol = AssayProtocol::standard(
            Seconds::new(30.0),
            Molar::from_nanomolar(10.0),
            Seconds::new(300.0),
            Seconds::new(120.0),
        );
        (chain, layer, kinetics, protocol)
    };
    let dt = Seconds::new(0.05);

    b.bench("dose_point_9001_fold", || {
        let (chain, layer, kinetics, protocol) = dose_point();
        move || {
            let samples = protocol.samples(&kinetics, dt, 0.0).expect("kinetics");
            std::hint::black_box(static_assay_peaks(&chain, &layer, samples, 256, 7))
                .expect("fold");
        }
    });

    b.bench("dose_point_9001_collect", || {
        let (chain, layer, kinetics, protocol) = dose_point();
        move || {
            let gram = protocol.run(&kinetics, dt, 0.0).expect("kinetics");
            let trace =
                run_static_assay_precomputed(&chain, &layer, &gram, 256, 7).expect("transduce");
            std::hint::black_box((trace.peak_signal(), gram.peak_coverage()));
        }
    });

    if !matches!(
        canti_bench::artifact::sink_from_env(),
        canti_bench::artifact::BenchSink::Disabled
    ) {
        use canti_bench::report::ExperimentReport;
        let mut rep = ExperimentReport::new("BENCH", "kernel per-iteration timings", &[]);
        for m in b.results() {
            rep.push_timing(&m.name, m.per_iter_ns);
        }
        canti_bench::artifact::emit_report(&rep);
    }
    b.finish();
}
