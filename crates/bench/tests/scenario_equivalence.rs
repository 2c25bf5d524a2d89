//! The scenario engine's acceptance contract.
//!
//! 1. Every committed spec under `scenarios/` parses and compiles through
//!    `ScenarioSpec::build()` (what CI's `scenario_run --check` gates on).
//! 2. The committed throughput baseline carries exactly the workload the
//!    results binary hard-coded before the scenario engine (its report now
//!    lives in `reports/`), and the pipelines built from its specs are
//!    **byte-identical** to independent hand-coded constructions of the same
//!    defenses.
//!
//! The shorthand grammar itself is pinned by `scenario::spec`'s unit tests;
//! here every named defense only has to read back from its own label.

use bench::scenario::{default_scenarios_dir, load_spec, spec_files, AdversaryMode, DefenseSpec};
use bench::ExperimentConfig;
use defenses::morphing::{paper_morphing_target, TrafficMorpher};
use defenses::spec::{StageContext, LIVE_CALIBRATION_SEED};
use defenses::stage::StagePipeline;
use defenses::{FrequencyHopper, PacketPadder, PseudonymRotator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use reshape_core::ranges::SizeRanges;
use reshape_core::scheduler::{
    OrthogonalModulo, OrthogonalRanges, RandomAssign, ReshapeAlgorithm, RoundRobin,
};
use reshape_core::stage::ReshapeStage;
use traffic_gen::app::AppKind;
use traffic_gen::generator::SessionGenerator;
use traffic_gen::packet::PacketRecord;
use traffic_gen::trace::Trace;

#[test]
fn every_committed_scenario_spec_parses_and_builds() {
    let dir = default_scenarios_dir();
    let files = spec_files(&dir).expect("scenarios/ exists");
    assert!(
        files.len() >= 4,
        "expected the committed scenario families, found {files:?}"
    );
    for file in files {
        let spec = load_spec(&file).unwrap_or_else(|e| panic!("{e}"));
        let scenario = spec
            .build()
            .unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        assert!(scenario.station_count() > 0, "{}", file.display());
    }
}

#[test]
fn throughput_baseline_spec_pins_the_historical_bench_json_workload() {
    // The exact parameters hard-coded before the scenario engine:
    // BitTorrent seed 1 for 60 s, W = 5 s, 3 interfaces, quick()-sized
    // adversary, stations in padding/morphing/morph∘OR order.
    let spec = load_spec(&default_scenarios_dir().join("throughput_baseline.toml"))
        .expect("committed baseline parses");
    let scenario = spec.build().expect("committed baseline builds");
    assert_eq!(scenario.window.as_secs_f64(), 5.0);
    assert_eq!(scenario.calib_secs, 60.0);
    assert_eq!(scenario.adversary.mode, AdversaryMode::Batch);
    assert_eq!(scenario.adversary.train, ExperimentConfig::quick());
    let defenses: Vec<DefenseSpec> = (0..scenario.station_count())
        .map(|i| scenario.station(i).defense)
        .collect();
    let expected: Vec<DefenseSpec> = ["padding", "morphing", "morph_or"]
        .into_iter()
        .map(|shorthand| DefenseSpec::parse(shorthand).unwrap())
        .collect();
    assert_eq!(defenses, expected);
    for station in (0..scenario.station_count()).map(|i| scenario.station(i)) {
        assert_eq!(station.traffic.app, AppKind::BitTorrent);
        assert_eq!(station.traffic.seed, 1);
        assert_eq!(station.traffic.secs, Some(60.0));
        assert_eq!(station.interfaces, 3);
    }
}

/// Streams `trace` through `pipeline` and collects every emitted
/// `(flow, packet)` pair.
fn staged(mut pipeline: StagePipeline, trace: &Trace) -> Vec<(u32, PacketRecord)> {
    let mut out = Vec::new();
    pipeline.process_batch(trace.packets(), |flow, p| out.push((flow, *p)));
    pipeline.finish(|flow, p| out.push((flow, *p)));
    out
}

/// Every named defense, by shorthand.
const NAMED: [&str; 10] = [
    "none",
    "fh",
    "ra",
    "rr",
    "or",
    "or_mod",
    "pseudonym",
    "padding",
    "morphing",
    "morph_or",
];

#[test]
fn kind_round_trips_through_the_declarative_form() {
    // Every named defense reads back unchanged from the label it prints.
    for shorthand in NAMED {
        let spec = DefenseSpec::parse(shorthand).unwrap();
        assert_eq!(
            DefenseSpec::parse(&spec.label()).unwrap(),
            spec,
            "{shorthand}"
        );
    }
    // A stage with a parameter is NOT a named defense: its label names the
    // stage only, so it reads back with the default parameter.
    let custom = DefenseSpec {
        stages: vec![bench::scenario::StageSpec::Defense(
            defenses::spec::DefenseStageSpec::Padding { size: Some(400) },
        )],
    };
    assert_eq!(custom.label(), "padding");
    assert_ne!(DefenseSpec::parse(&custom.label()).unwrap(), custom);
}

/// The historical hand-coded pipeline of a named defense, reconstructed
/// independently of the declarative path.
fn hand_coded_pipeline(
    shorthand: &str,
    app: AppKind,
    interfaces: usize,
    seed: u64,
    calib_secs: f64,
    source: Option<&Trace>,
) -> StagePipeline {
    let scheduler: Option<Box<dyn ReshapeAlgorithm>> = match shorthand {
        "ra" => Some(Box::new(RandomAssign::new(interfaces, seed))),
        "rr" => Some(Box::new(RoundRobin::new(interfaces))),
        "or" => Some(Box::new(OrthogonalRanges::new(
            SizeRanges::for_interface_count(interfaces).expect("valid"),
        ))),
        "or_mod" => Some(Box::new(OrthogonalModulo::new(interfaces))),
        _ => None,
    };
    if let Some(algorithm) = scheduler {
        return StagePipeline::new().with_stage(ReshapeStage::new(algorithm));
    }
    // A materialised source seeds the target session from the station; a
    // live station calibrates both sessions from the shared constant.
    let morphing = |app: AppKind| {
        let target_app = paper_morphing_target(app);
        let calib_seed = if source.is_some() {
            seed
        } else {
            LIVE_CALIBRATION_SEED
        };
        let target =
            SessionGenerator::new(target_app, calib_seed ^ 0xfeed).generate_secs(calib_secs);
        let morpher = TrafficMorpher::from_target_trace(&target);
        match source {
            Some(trace) => morpher.stage_for_source_trace(trace),
            None => {
                let calib =
                    SessionGenerator::new(app, calib_seed ^ 0xca1b).generate_secs(calib_secs);
                morpher.stage_for_source_trace(&calib)
            }
        }
    };
    match shorthand {
        "none" => StagePipeline::new(),
        "fh" => StagePipeline::new().with_stage(FrequencyHopper::default().stage()),
        "pseudonym" => StagePipeline::new()
            .with_stage(PseudonymRotator::default().stage_with_rng(StdRng::seed_from_u64(seed))),
        "padding" => StagePipeline::new().with_stage(PacketPadder::new().stage()),
        "morphing" => StagePipeline::new().with_stage(morphing(app)),
        "morph_or" => StagePipeline::new()
            .with_stage(morphing(app))
            .with_stage(ReshapeStage::new(Box::new(OrthogonalRanges::new(
                SizeRanges::for_interface_count(interfaces).expect("valid"),
            )))),
        other => unreachable!("no hand-coded pipeline for `{other}`"),
    }
}

#[test]
fn spec_built_pipelines_are_byte_identical_to_the_hand_coded_constructions() {
    let trace = SessionGenerator::new(AppKind::BitTorrent, 1).generate_secs(40.0);
    // Batch (a materialised source) and live (calibration sessions only).
    for source in [Some(&trace), None] {
        for shorthand in NAMED {
            let ctx = StageContext {
                source,
                ..StageContext::live(AppKind::BitTorrent, 1, 40.0)
            };
            let from_spec = DefenseSpec::parse(shorthand)
                .unwrap()
                .build(&ctx, 3)
                .expect("valid spec");
            let reference = hand_coded_pipeline(shorthand, AppKind::BitTorrent, 3, 1, 40.0, source);
            assert_eq!(
                staged(from_spec, &trace),
                staged(reference, &trace),
                "{shorthand} (source {}): spec-built pipeline diverged from the \
                 historical construction",
                source.is_some()
            );
        }
    }
}
