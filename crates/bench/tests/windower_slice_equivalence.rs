//! The sliced feature-extraction plane's machine-level acceptance contract.
//!
//! The streaming machine routes every drain slice's staged output through
//! `FlowWindowers::push_slice` — grouping, bank dispatch and run folding all
//! slice-grained — and scores closed windows in `WINDOW_BATCH` blocks. Two
//! properties license that:
//!
//! 1. **Hand-rolled per-packet reference**: an independent evaluation built
//!    from public APIs only — `StagePipeline::process` one packet at a time,
//!    `FlowWindowers::push` one packet at a time, every window scored the
//!    moment it closes, and at each splice second `StagePipeline::finish`,
//!    then `FlowWindowers::finish`, then a fresh bank — reproduces
//!    `StationRun::run`'s whole report (packets, and per phase the windows,
//!    hits, overhead and prequential segment) and the prequential timeline
//!    **bit for bit**, frozen and live, across defense kinds and splice
//!    schedules: mid-session, at second 0, past the session end, and one
//!    station with more than `WINDOW_BATCH` windows in a phase, so the
//!    machine's block flush falls mid-phase.
//! 2. **Committed families across worker counts**: with sliced windowing on
//!    the hot path, every committed scenario family's report stays
//!    bit-identical on the executor at 1, 2 and 8 workers, and a mixed live
//!    population's prequential timelines survive the same sweep unchanged.

mod common;

use bench::pipeline::{train_adversary, train_adversary_online};
use bench::scenario::{
    default_scenarios_dir, execute_scenario, load_spec, spec_files, train_for, DefenseSpec,
    ScenarioSpec,
};
use bench::streaming::{PhaseReport, ScheduledReport, STATION_CALIB_SECS};
use bench::{ExperimentConfig, FrozenScorer, StationRun, WindowScorer, WINDOW_BATCH};
use classifier::online::{OnlineAdversary, PrequentialEvaluator, PrequentialPoint};
use classifier::stream::{FlowWindowers, WindowExample};
use classifier::window::{FeatureMode, DEFAULT_MIN_PACKETS};
use common::{on_workers, per_station};
use defenses::spec::StageContext;
use defenses::stage::StagePipeline;
use proptest::prelude::*;
use traffic_gen::app::AppKind;
use traffic_gen::packet::PacketRecord;
use traffic_gen::spec::TrafficSpec;
use traffic_gen::stream::PacketSource;
use wlan_sim::time::SimDuration;

const WINDOW_SECS: u64 = 2;
const SESSION_SECS: f64 = 20.0;

/// One station of the reference sweep: its initial defense, session length
/// and splice schedule (ascending session-relative seconds).
struct Case {
    app: AppKind,
    defense: &'static str,
    secs: f64,
    splices: &'static [(f64, &'static str)],
}

const CASES: [Case; 5] = [
    Case {
        app: AppKind::Browsing,
        defense: "none",
        secs: SESSION_SECS,
        splices: &[(9.0, "padding")],
    },
    Case {
        app: AppKind::Chatting,
        defense: "padding",
        secs: SESSION_SECS,
        splices: &[],
    },
    Case {
        app: AppKind::Gaming,
        defense: "or",
        secs: SESSION_SECS,
        splices: &[(7.5, "morphing"), (1e6, "or")],
    },
    Case {
        app: AppKind::Downloading,
        defense: "morphing",
        secs: SESSION_SECS,
        splices: &[(0.0, "or"), (12.0, "none")],
    },
    // More than WINDOW_BATCH windows close before the splice.
    Case {
        app: AppKind::BitTorrent,
        defense: "or",
        secs: 150.0,
        splices: &[(120.0, "padding")],
    },
];

/// The running phase of the per-packet reference.
struct Phase {
    from_secs: f64,
    pipeline: StagePipeline,
    windowers: FlowWindowers,
    windows: u64,
    hits: u64,
}

impl Phase {
    fn new(from_secs: f64, pipeline: StagePipeline, app: AppKind) -> Self {
        Phase {
            from_secs,
            pipeline,
            windowers: FlowWindowers::for_app(
                SimDuration::from_secs(WINDOW_SECS),
                DEFAULT_MIN_PACKETS,
                FeatureMode::Full,
                app,
            ),
            windows: 0,
            hits: 0,
        }
    }

    /// Scores one window the moment it closes.
    fn score(
        windows: &mut u64,
        hits: &mut u64,
        scorer: &mut dyn WindowScorer,
        example: &WindowExample,
    ) {
        *windows += 1;
        if scorer.score(example) == example.1 {
            *hits += 1;
        }
    }

    fn feed(&mut self, packet: &PacketRecord, scorer: &mut dyn WindowScorer) {
        let Phase {
            pipeline,
            windowers,
            windows,
            hits,
            ..
        } = self;
        pipeline.process(packet, |flow, staged| {
            if let Some(example) = windowers.push(flow as usize, staged) {
                Phase::score(windows, hits, scorer, &example);
            }
        });
    }

    /// Flushes the pipeline, then the windower bank, and reports the phase.
    fn close(mut self, scorer: &mut dyn WindowScorer) -> PhaseReport {
        let Phase {
            pipeline,
            windowers,
            windows,
            hits,
            ..
        } = &mut self;
        pipeline.finish(|flow, staged| {
            if let Some(example) = windowers.push(flow as usize, staged) {
                Phase::score(windows, hits, scorer, &example);
            }
        });
        for example in windowers.finish() {
            Phase::score(windows, hits, scorer, &example);
        }
        PhaseReport {
            from_secs: self.from_secs,
            windows: self.windows,
            windows_identified: self.hits,
            overhead: self.pipeline.overhead(),
            segment: scorer.end_phase(),
        }
    }
}

/// The per-packet reference: the same traffic, defense schedule and
/// windowing configuration as [`station_run`], evaluated one packet at a
/// time with no slice anywhere — `process` per packet, `push` per packet,
/// one `score` call per closed window, and at each splice second the
/// running phase's pipeline and bank flushed before a fresh bank starts.
fn per_packet_reference(case: &Case, seed: u64, scorer: &mut dyn WindowScorer) -> ScheduledReport {
    let ctx = StageContext::live(case.app, seed, STATION_CALIB_SECS);
    let build = |defense: &str| {
        DefenseSpec::parse(defense)
            .unwrap()
            .build(&ctx, 3)
            .expect("committed kinds build")
    };
    let mut phases = Vec::new();
    let mut phase = Phase::new(0.0, build(case.defense), case.app);
    let mut splices = case.splices.iter().peekable();
    let mut packets = 0;
    let mut source = TrafficSpec::bounded(case.app, seed, case.secs).build();
    while let Some(packet) = source.next_packet() {
        while let Some((at, defense)) = splices.next_if(|(at, _)| packet.time.as_secs_f64() >= *at)
        {
            phases.push(phase.close(scorer));
            phase = Phase::new(*at, build(defense), case.app);
        }
        packets += 1;
        phase.feed(&packet, scorer);
    }
    phases.push(phase.close(scorer));
    // Splices past the session end report empty phases.
    for (at, defense) in splices {
        phases.push(Phase::new(*at, build(defense), case.app).close(scorer));
    }
    ScheduledReport {
        app: case.app,
        packets,
        phases,
    }
}

/// The sliced path under test, configured identically to the reference.
fn station_run(case: &Case, seed: u64) -> StationRun {
    let splices = case
        .splices
        .iter()
        .map(|(at, defense)| (*at, DefenseSpec::parse(defense).unwrap()))
        .collect();
    StationRun::new(TrafficSpec::bounded(case.app, seed, case.secs))
        .defense(DefenseSpec::parse(case.defense).unwrap())
        .splices(splices)
        .interfaces(3)
        .window(SimDuration::from_secs(WINDOW_SECS))
        .feature_mode(FeatureMode::Full)
}

proptest! {
    // Each case trains both adversaries and sweeps five stations, so a
    // couple of cases already covers the plane broadly.
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn sliced_machine_matches_a_hand_rolled_per_packet_evaluation(
        seed in 0u64..10_000,
    ) {
        let frozen = train_adversary(&ExperimentConfig::quick(), FeatureMode::Full);
        let base = train_adversary_online(&ExperimentConfig::quick(), FeatureMode::Full)
            .into_adversary();
        let mut largest_phase = 0;
        for (i, case) in CASES.iter().enumerate() {
            let station_seed = seed.wrapping_add(i as u64);

            // Frozen: the stateless batch ensemble.
            let reference =
                per_packet_reference(case, station_seed, &mut FrozenScorer::new(&frozen));
            let report = station_run(case, station_seed)
                .run(&mut FrozenScorer::new(&frozen))
                .expect("station runs");
            prop_assert!(report == reference, "frozen report diverged: {}", case.defense);
            prop_assert_eq!(report.phases.len(), case.splices.len() + 1);
            largest_phase = report.phases.iter().map(|p| p.windows).fold(largest_phase, u64::max);

            // Live: test-then-train, so the evaluator's whole trajectory —
            // not just the counts — must match window for window.
            let mut reference_eval = PrequentialEvaluator::new(base.clone(), 5);
            let reference = per_packet_reference(case, station_seed, &mut reference_eval);
            let mut live_eval = PrequentialEvaluator::new(base.clone(), 5);
            let report = station_run(case, station_seed)
                .run(&mut live_eval)
                .expect("station runs");
            prop_assert!(report == reference, "live report diverged: {}", case.defense);
            prop_assert!(
                reference_eval.timeline() == live_eval.timeline(),
                "prequential timelines diverged: {}",
                case.defense
            );
        }
        prop_assert!(
            largest_phase > WINDOW_BATCH as u64,
            "no phase closed more than {} windows (largest {})",
            WINDOW_BATCH,
            largest_phase
        );
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

fn executors() -> [bench::Executor; 3] {
    [on_workers(1), on_workers(2), on_workers(8)]
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
                    "{}: {executor:?} diverged from one worker",
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
    // must be identical at every worker count.
    let base: OnlineAdversary =
        train_adversary_online(&ExperimentConfig::quick(), FeatureMode::Full).into_adversary();
    let run_of = |i: usize| station_run(&CASES[i], 41 + i as u64);
    let mut baseline: Option<Vec<(u64, Vec<PrequentialPoint>)>> = None;
    for executor in executors() {
        let results: Vec<(u64, Vec<PrequentialPoint>)> = per_station(
            executor,
            CASES.len(),
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
