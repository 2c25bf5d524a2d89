//! The sliced feature-extraction plane's machine-level acceptance contract.
//!
//! The streaming machine now routes every drain slice's staged output
//! through `FlowWindowers::push_slice` — grouping, bank dispatch and run
//! folding all slice-grained. Two properties license that:
//!
//! 1. **Hand-rolled per-packet reference**: an independent evaluation built
//!    from public APIs only — `StagePipeline::process` one packet at a time,
//!    `FlowWindowers::push` one packet at a time, every window scored the
//!    moment it closes — reproduces `StationRun::run`'s windows, hits and
//!    prequential timeline **bit for bit**, frozen and live, across defense
//!    kinds. (PR 7 pinned `process_batch == process`; this pins the whole
//!    sliced plane downstream of it.)
//! 2. **Committed families across executors**: with sliced windowing on the
//!    hot path, every committed scenario family's report stays bit-identical
//!    between the pool and the virtual-time executor at 1, 2 and 8 workers,
//!    and a mixed live population's prequential timelines survive the same
//!    sweep unchanged.

mod common;

use bench::pipeline::{train_adversary, train_adversary_online};
use bench::scenario::{
    default_scenarios_dir, execute_scenario, load_spec, spec_files, train_for, DefenseSpec,
    ScenarioSpec,
};
use bench::streaming::STATION_CALIB_SECS;
use bench::{Executor, ExperimentConfig, FrozenScorer, StationRun};
use classifier::online::{OnlineAdversary, PrequentialEvaluator, PrequentialPoint};
use classifier::stream::FlowWindowers;
use classifier::window::{FeatureMode, DEFAULT_MIN_PACKETS};
use common::per_station;
use defenses::spec::StageContext;
use proptest::prelude::*;
use traffic_gen::app::AppKind;
use traffic_gen::spec::TrafficSpec;
use traffic_gen::stream::PacketSource;
use wlan_sim::time::SimDuration;

const WINDOW_SECS: u64 = 2;
const SESSION_SECS: f64 = 20.0;

/// The per-packet reference: the same traffic, defense and windowing
/// configuration as [`station_run`], evaluated one packet at a time with no
/// slice anywhere — `process` per packet, `push` per packet, one `score`
/// call per closed window. Returns `(windows, hits)` and leaves the live
/// evaluator (when given) in its end-of-session state.
fn per_packet_reference(
    app: AppKind,
    seed: u64,
    kind: &str,
    mut score: impl FnMut(&classifier::stream::WindowExample) -> usize,
) -> (u64, u64) {
    let ctx = StageContext::live(app, seed, STATION_CALIB_SECS);
    let mut pipeline = DefenseSpec::parse(kind)
        .unwrap()
        .build(&ctx, 3)
        .expect("committed kinds build");
    let mut windowers = FlowWindowers::for_app(
        SimDuration::from_secs(WINDOW_SECS),
        DEFAULT_MIN_PACKETS,
        FeatureMode::Full,
        app,
    );
    let mut windows = 0u64;
    let mut hits = 0u64;
    let mut on_window = |example: &classifier::stream::WindowExample| {
        windows += 1;
        if score(example) == example.1 {
            hits += 1;
        }
    };
    let mut source = TrafficSpec::bounded(app, seed, SESSION_SECS).build();
    while let Some(packet) = source.next_packet() {
        pipeline.process(&packet, |flow, staged| {
            if let Some(example) = windowers.push(flow as usize, staged) {
                on_window(&example);
            }
        });
    }
    pipeline.finish(|flow, staged| {
        if let Some(example) = windowers.push(flow as usize, staged) {
            on_window(&example);
        }
    });
    for example in windowers.finish() {
        on_window(&example);
    }
    (windows, hits)
}

/// The sliced path under test, configured identically to the reference.
fn station_run(app: AppKind, seed: u64, kind: &str) -> StationRun {
    StationRun::new(TrafficSpec::bounded(app, seed, SESSION_SECS))
        .defense(DefenseSpec::parse(kind).unwrap())
        .interfaces(3)
        .window(SimDuration::from_secs(WINDOW_SECS))
        .feature_mode(FeatureMode::Full)
}

proptest! {
    // Each case trains both adversaries and sweeps four defense kinds, so a
    // couple of cases already covers the plane broadly.
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn sliced_machine_matches_a_hand_rolled_per_packet_evaluation(
        seed in 0u64..10_000,
    ) {
        let frozen = train_adversary(&ExperimentConfig::quick(), FeatureMode::Full);
        let base = train_adversary_online(&ExperimentConfig::quick(), FeatureMode::Full)
            .into_adversary();
        let kinds = [
            "none",
            "padding",
            "or",
            "morphing",
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            let app = AppKind::ALL[i % AppKind::COUNT];
            let station_seed = seed.wrapping_add(i as u64);

            // Frozen: the stateless batch ensemble.
            let (windows, hits) = per_packet_reference(app, station_seed, kind, |example| {
                frozen.predict_majority(&example.0)
            });
            let report = station_run(app, station_seed, kind)
                .run(&mut FrozenScorer::new(&frozen))
                .expect("station runs");
            prop_assert!(report.windows() == windows, "frozen windows diverged: {:?}", kind);
            prop_assert!(report.windows_identified() == hits, "frozen hits diverged: {:?}", kind);

            // Live: test-then-train, so the evaluator's whole trajectory —
            // not just the counts — must match window for window.
            let mut reference_eval = PrequentialEvaluator::new(base.clone(), 5);
            let (windows, hits) = per_packet_reference(app, station_seed, kind, |example| {
                reference_eval.absorb(example)
            });
            let mut live_eval = PrequentialEvaluator::new(base.clone(), 5);
            let report = station_run(app, station_seed, kind)
                .run(&mut live_eval)
                .expect("station runs");
            prop_assert!(report.windows() == windows, "live windows diverged: {:?}", kind);
            prop_assert!(report.windows_identified() == hits, "live hits diverged: {:?}", kind);
            prop_assert!(
                reference_eval.timeline() == live_eval.timeline(),
                "prequential timelines diverged: {:?}",
                kind
            );
            prop_assert_eq!(reference_eval.examples(), live_eval.examples());
        }
    }
}

/// Shrinks a committed spec to an equivalence-test size (the same reduction
/// rule `executor_equivalence` uses).
fn reduced(mut spec: ScenarioSpec, target: usize) -> ScenarioSpec {
    let total: usize = spec.stations.iter().map(|g| g.count).sum();
    if total > target {
        for group in &mut spec.stations {
            group.count = (group.count * target / total).max(1);
        }
    }
    let total: usize = spec.stations.iter().map(|g| g.count).sum();
    for group in &mut spec.stations {
        group.secs = group.secs.min(30.0);
    }
    spec.events
        .retain(|event| event.station.is_none_or(|s| s < total));
    spec
}

fn executors() -> [Executor; 4] {
    [
        Executor::Pooled,
        Executor::VirtualTime {
            workers: Some(1),
            max_slice: None,
        },
        Executor::VirtualTime {
            workers: Some(2),
            max_slice: None,
        },
        Executor::VirtualTime {
            workers: Some(8),
            max_slice: None,
        },
    ]
}

#[test]
fn sliced_windowing_keeps_every_committed_family_executor_invariant() {
    let files = spec_files(&default_scenarios_dir()).expect("scenarios/ exists");
    assert!(
        files.len() >= 5,
        "expected the committed families, found {files:?}"
    );
    for file in files {
        let spec = reduced(load_spec(&file).unwrap_or_else(|e| panic!("{e}")), 6);
        let scenario = spec
            .build()
            .unwrap_or_else(|e| panic!("{}: reduced spec must build: {e}", file.display()));
        let adversary = train_for(&scenario);
        let mut baseline = None;
        for executor in executors() {
            let (report, _) = execute_scenario(&scenario, &adversary, executor)
                .unwrap_or_else(|e| panic!("{}: {executor:?}: {e}", file.display()));
            match &baseline {
                None => baseline = Some(report),
                Some(expected) => assert_eq!(
                    &report,
                    expected,
                    "{}: {executor:?} diverged from the pool",
                    file.display()
                ),
            }
        }
    }
}

#[test]
fn sliced_windowing_keeps_live_timelines_executor_invariant() {
    // A mixed live population (different apps and defenses): the prequential
    // timelines — the strictest observable, one point per scored window —
    // must be identical on every executor shape.
    let base: OnlineAdversary =
        train_adversary_online(&ExperimentConfig::quick(), FeatureMode::Full).into_adversary();
    let kinds = ["padding", "or", "morphing", "none"];
    let run_of = |i: usize| {
        station_run(
            AppKind::ALL[i % AppKind::COUNT],
            41 + i as u64,
            kinds[i % kinds.len()],
        )
    };
    let mut baseline: Option<Vec<(u64, Vec<PrequentialPoint>)>> = None;
    for executor in executors() {
        let results: Vec<(u64, Vec<PrequentialPoint>)> = per_station(
            executor,
            4,
            run_of,
            |_| PrequentialEvaluator::new(base.clone(), 5),
            |report, evaluator| (report.windows(), evaluator.timeline().to_vec()),
        )
        .expect("live run");
        assert!(
            results.iter().any(|(windows, _)| *windows > 0),
            "the population must close windows"
        );
        match &baseline {
            None => baseline = Some(results),
            Some(expected) => assert_eq!(&results, expected, "{executor:?} diverged"),
        }
    }
}
