//! Executes compiled scenarios and reports results.
//!
//! A scenario runs in two steps. [`train_for`] trains the adversary the spec
//! asks for (a frozen batch ensemble, or a warm-started online adversary
//! forked per station), and [`execute_scenario`] hands the population to the
//! virtual-time [`Executor`] as its arrivals in canonical order. Each station
//! is compiled into a [`StationRun`] at its
//! admission and folded into its worker's tally when it retires. Station
//! outcomes are deterministic per seed whatever the worker count, and every
//! part of the tally folds independently of order, so the returned
//! [`ScenarioReport`] is a pure function of the spec. It serializes straight
//! to JSON through the serde shim, which is what `scenario_run` writes per
//! scenario to `reports/`, where every committed report is a golden.

use crate::pipeline::{train_adversary, train_adversary_online};
use crate::scenario::exact_sum::ExactSum;
use crate::scenario::spec::{
    AdversaryMode, CompiledScenario, ScenarioStation, SCENARIO_FEATURE_MODE,
};
use crate::streaming::{Executor, ExecutorStats, Fold, FrozenScorer, ScheduledReport, StationRun};
use classifier::ensemble::AdversaryEnsemble;
use classifier::online::{OnlineAdversary, PrequentialEvaluator};
use serde::Serialize;
use traffic_gen::app::AppKind;

/// One phase of one station, as reported (and serialized).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PhaseOutcome {
    /// Session-relative second the phase's defense took over.
    pub from_secs: f64,
    /// The defense's label (`"padding"`, `"morphing+or"`, …).
    pub defense: String,
    /// Windows the adversary scored during the phase.
    pub windows: u64,
    /// Windows identified correctly during the phase.
    pub windows_identified: u64,
    /// The phase pipeline's byte overhead, as a percentage.
    pub overhead_pct: f64,
}

/// One station's outcome.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StationOutcome {
    /// The station's ground-truth application.
    pub app: AppKind,
    /// The station's traffic seed.
    pub seed: u64,
    /// Wall-clock second the station arrived.
    pub arrival_secs: f64,
    /// The station's effective session length (clipped by departure).
    pub session_secs: f64,
    /// Packets the station streamed.
    pub packets: u64,
    /// Windows scored across all phases.
    pub windows: u64,
    /// Windows identified correctly across all phases.
    pub windows_identified: u64,
    /// The adversary's per-station recognition rate.
    pub identification_rate: f64,
    /// The station's end-to-end byte overhead, as a percentage.
    pub overhead_pct: f64,
    /// Per-phase breakdown, in schedule order.
    pub phases: Vec<PhaseOutcome>,
}

/// The result of one scenario run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioReport {
    /// The scenario's name.
    pub scenario: String,
    /// `"batch"` or `"online"`.
    pub adversary_mode: String,
    /// Station count.
    pub stations: usize,
    /// Packets streamed across all stations.
    pub packets: u64,
    /// Windows scored across all stations.
    pub windows: u64,
    /// Windows identified correctly across all stations.
    pub windows_identified: u64,
    /// The adversary's overall recognition rate (the paper's metric, over
    /// the whole population).
    pub identification_rate: f64,
    /// Mean of per-station overhead percentages (Table VI's convention).
    pub mean_overhead_pct: f64,
    /// Per-station outcomes, in population order; capped by the spec's
    /// `max_station_reports` (aggregates above always cover everyone).
    pub station_reports: Vec<StationOutcome>,
}

/// A scenario's trained adversary, reusable across executions — training is
/// the expensive part, so equivalence tests train once and execute many
/// times.
pub enum TrainedAdversary {
    /// A frozen batch ensemble, shared by reference across all stations.
    Frozen(AdversaryEnsemble),
    /// A warm-started online adversary, forked (cloned) per station.
    Warm {
        /// The warm base every station forks.
        adversary: OnlineAdversary,
        /// Timeline cadence (windows per snapshot) of the per-station forks.
        snapshot_every: u64,
    },
}

/// Trains the adversary a scenario's spec asks for.
pub fn train_for(scenario: &CompiledScenario) -> TrainedAdversary {
    match scenario.adversary.mode {
        AdversaryMode::Batch => TrainedAdversary::Frozen(train_adversary(
            &scenario.adversary.train,
            SCENARIO_FEATURE_MODE,
        )),
        AdversaryMode::Online => TrainedAdversary::Warm {
            adversary: train_adversary_online(&scenario.adversary.train, SCENARIO_FEATURE_MODE)
                .into_adversary(),
            snapshot_every: scenario.adversary.snapshot_every,
        },
    }
}

/// The scenario report's running totals, one per executor worker: the
/// aggregate counters over every station folded in, the exact sum of their
/// overhead percentages, and the full outcome of each station below the
/// report cap. Every part merges independently of order, so the report does
/// not depend on the executor or its worker count.
#[derive(Debug, Default)]
struct ScenarioTally {
    packets: u64,
    windows: u64,
    windows_identified: u64,
    overhead_pct: ExactSum,
    outcomes: Vec<(usize, StationOutcome)>,
}

impl Fold for ScenarioTally {
    fn merge(&mut self, other: Self) {
        self.packets += other.packets;
        self.windows += other.windows;
        self.windows_identified += other.windows_identified;
        self.overhead_pct.merge(&other.overhead_pct);
        self.outcomes.extend(other.outcomes);
    }
}

impl ScenarioTally {
    /// Folds a finished station in; `detail` is the station itself when it
    /// is below the report cap.
    fn add(&mut self, index: usize, report: &ScheduledReport, detail: Option<ScenarioStation>) {
        let overhead_pct = report.overhead().percent();
        self.packets += report.packets;
        self.windows += report.windows();
        self.windows_identified += report.windows_identified();
        self.overhead_pct.add(overhead_pct);
        if let Some(station) = detail {
            self.outcomes
                .push((index, station_outcome(&station, report, overhead_pct)));
        }
    }
}

/// A compiled station as the builder the executor consumes.
fn station_run(scenario: &CompiledScenario, station: ScenarioStation) -> StationRun {
    let ScenarioStation {
        traffic,
        interfaces,
        defense,
        arrival_secs,
        departure_secs: _,
        splices,
    } = station;
    StationRun::new(traffic)
        .defense(defense)
        .splices(splices)
        .interfaces(interfaces)
        .calib_secs(scenario.calib_secs)
        .window(scenario.window)
        .feature_mode(SCENARIO_FEATURE_MODE)
        .arrival_secs(arrival_secs)
}

/// A reported station's full outcome.
fn station_outcome(
    station: &ScenarioStation,
    report: &ScheduledReport,
    overhead_pct: f64,
) -> StationOutcome {
    let mut labels: Vec<String> = vec![station.defense.label()];
    labels.extend(station.splices.iter().map(|(_, d)| d.label()));
    let phases = report
        .phases
        .iter()
        .zip(&labels)
        .map(|(phase, label)| PhaseOutcome {
            from_secs: phase.from_secs,
            defense: label.clone(),
            windows: phase.windows,
            windows_identified: phase.windows_identified,
            overhead_pct: phase.overhead.percent(),
        })
        .collect();
    StationOutcome {
        app: station.traffic.app,
        seed: station.traffic.seed,
        arrival_secs: station.arrival_secs,
        session_secs: station.session_secs(),
        packets: report.packets,
        windows: report.windows(),
        windows_identified: report.windows_identified(),
        identification_rate: report.identification_rate(),
        overhead_pct,
        phases,
    }
}

/// Executes a compiled scenario on `executor` with an already-trained
/// adversary. The report is identical for every worker count;
/// the returned [`ExecutorStats`] describe how this particular run was
/// scheduled (and are deliberately not part of the report).
pub fn execute_scenario(
    scenario: &CompiledScenario,
    adversary: &TrainedAdversary,
    executor: Executor,
) -> Result<(ScenarioReport, ExecutorStats), String> {
    // Each station is materialised once, at admission; a station below the
    // report cap keeps a copy of itself as its ticket for the outcome.
    let count = scenario.station_count();
    let arrivals = scenario.population.arrivals();
    let station_of = |i| {
        let station = scenario.station(i);
        let detail = (i < scenario.max_station_reports).then(|| station.clone());
        (station_run(scenario, station), detail)
    };
    // One executor call per adversary mode, so each station holds its
    // scorer inline.
    let outcome = match adversary {
        TrainedAdversary::Frozen(ensemble) => executor.run(
            count,
            arrivals,
            |i| {
                let (run, detail) = station_of(i);
                (run, FrozenScorer::new(ensemble), detail)
            },
            |tally: &mut ScenarioTally, i, report, _, detail| tally.add(i, &report, detail),
        ),
        TrainedAdversary::Warm {
            adversary,
            snapshot_every,
        } => executor.run(
            count,
            arrivals,
            |i| {
                let (run, detail) = station_of(i);
                let scorer = PrequentialEvaluator::new(adversary.clone(), *snapshot_every);
                (run, scorer, detail)
            },
            |tally: &mut ScenarioTally, i, report, _, detail| tally.add(i, &report, detail),
        ),
    }?;
    let mut tally = outcome.folded;
    tally.outcomes.sort_unstable_by_key(|(i, _)| *i);
    // Mean of per-station percentages, Table VI's convention.
    let mean_overhead_pct = if count == 0 {
        0.0
    } else {
        tally.overhead_pct.value() / count as f64
    };
    let report = ScenarioReport {
        scenario: scenario.name.clone(),
        adversary_mode: match scenario.adversary.mode {
            AdversaryMode::Batch => "batch".to_string(),
            AdversaryMode::Online => "online".to_string(),
        },
        stations: count,
        packets: tally.packets,
        windows: tally.windows,
        windows_identified: tally.windows_identified,
        identification_rate: if tally.windows == 0 {
            0.0
        } else {
            tally.windows_identified as f64 / tally.windows as f64
        },
        mean_overhead_pct,
        station_reports: tally.outcomes.into_iter().map(|(_, o)| o).collect(),
    };
    Ok((report, outcome.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::spec::{
        AdversarySpec, DefenseSpec, EventKind, EventSpec, ScenarioSpec, StationGroupSpec,
    };
    use crate::scenario::toml::Lines;
    use crate::streaming::StationScratch;

    /// Runs a compiled scenario end to end, as `scenario_run` does: trains
    /// the spec'd adversary, then executes on the spec'd executor.
    fn run_scenario(scenario: &CompiledScenario) -> Result<ScenarioReport, String> {
        let adversary = train_for(scenario);
        execute_scenario(scenario, &adversary, scenario.executor).map(|(report, _)| report)
    }

    fn small_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "unit".to_string(),
            seed: 5,
            window_secs: 5.0,
            calib_secs: 30.0,
            interfaces: 3,
            stations: vec![
                StationGroupSpec {
                    app: AppKind::BitTorrent,
                    count: 2,
                    seed: Some(700),
                    secs: 30.0,
                    interfaces: None,
                    defense: DefenseSpec::parse("or").unwrap(),
                    stagger_secs: 0.0,
                    lines: Lines::default(),
                },
                StationGroupSpec {
                    app: AppKind::Video,
                    count: 1,
                    seed: Some(800),
                    secs: 30.0,
                    interfaces: None,
                    defense: DefenseSpec::none(),
                    stagger_secs: 0.0,
                    lines: Lines::default(),
                },
            ],
            adversary: AdversarySpec::default(),
            events: Vec::new(),
            executor: Executor::virtual_time(),
            max_station_reports: usize::MAX,
            lines: Lines::default(),
        }
    }

    #[test]
    fn scenario_runs_are_deterministic_on_the_pool() {
        let scenario = small_spec().build().expect("valid spec");
        let first = run_scenario(&scenario).expect("runs");
        let second = run_scenario(&scenario).expect("runs");
        assert_eq!(first, second, "scheduling must not leak into results");
        assert_eq!(first.stations, 3);
        assert!(first.packets > 1000);
        assert!(first.windows > 0);
        // The undefended Video station is the easy one; OR-defended BT should
        // not be easier to identify than it.
        let video = &first.station_reports[2];
        assert_eq!(video.app, AppKind::Video);
        for bt in &first.station_reports[..2] {
            assert!(bt.identification_rate <= video.identification_rate + 1e-9);
        }
    }

    #[test]
    fn the_virtual_time_executor_reproduces_the_pool_report() {
        let mut spec = small_spec();
        spec.events = vec![EventSpec {
            at_secs: 12.0,
            station: Some(2),
            kind: EventKind::Arrive,
            lines: Lines::default(),
        }];
        let scenario = spec.build().expect("valid spec");
        let adversary = train_for(&scenario);
        let (baseline, _) =
            execute_scenario(&scenario, &adversary, Executor::on_workers(1)).expect("runs");
        for workers in [2usize, 8] {
            let (report, stats) =
                execute_scenario(&scenario, &adversary, Executor::on_workers(workers))
                    .expect("runs");
            assert_eq!(
                report, baseline,
                "{workers}-worker virtual time diverged from one worker"
            );
            assert_eq!(stats.admitted, 3);
            assert_eq!(
                stats.peak_active, 3,
                "station 2 arrives at 12 s while the other two are still live"
            );
        }
        let (aliased, stats) =
            execute_scenario(&scenario, &adversary, Executor::Pooled).expect("runs");
        assert_eq!(aliased, baseline, "the pooled alias runs as virtual time");
        assert!(stats.workers <= 3, "at most one shard per station");
    }

    #[test]
    fn each_worker_calibrates_each_morphing_pair_once() {
        // Four BitTorrent stations share the BT→video calibration, the video
        // station adds video→downloading: two pairs, two sessions each.
        let mut spec = small_spec();
        spec.stations[0].count = 4;
        spec.stations[0].defense = DefenseSpec::parse("morphing").unwrap();
        spec.stations[1].defense = DefenseSpec::parse("morph_or").unwrap();
        let scenario = spec.build().expect("valid spec");
        let adversary = train_for(&scenario);
        let run = |workers| {
            execute_scenario(&scenario, &adversary, Executor::on_workers(workers)).expect("runs")
        };
        let (one, stats) = run(1);
        assert_eq!(stats.calibrations, 4);
        // Worker 0 holds stations 0, 2 and 4 (both pairs), worker 1 stations
        // 1 and 3 (one pair).
        let (two, stats) = run(2);
        assert_eq!(stats.calibrations, 6);
        assert_eq!(one, two);
        let (by_default, stats) =
            execute_scenario(&scenario, &adversary, Executor::virtual_time()).expect("runs");
        assert!((4..=4 * stats.workers as u64).contains(&stats.calibrations));
        assert_eq!(one, by_default);
    }

    #[test]
    fn the_report_cap_keeps_aggregates_over_everyone() {
        let mut spec = small_spec();
        spec.max_station_reports = 1;
        let scenario = spec.build().expect("valid spec");
        let capped = run_scenario(&scenario).expect("runs");
        assert_eq!(capped.station_reports.len(), 1);
        assert_eq!(capped.stations, 3);

        let mut full_spec = small_spec();
        full_spec.max_station_reports = usize::MAX;
        let full = run_scenario(&full_spec.build().expect("valid")).expect("runs");
        assert_eq!(full.packets, capped.packets, "aggregates cover everyone");
        assert_eq!(full.windows, capped.windows);
        assert_eq!(full.station_reports[0], capped.station_reports[0]);
    }

    #[test]
    fn departed_stations_stream_less_than_their_peers() {
        let mut spec = small_spec();
        spec.events = vec![EventSpec {
            at_secs: 10.0,
            station: Some(1),
            kind: EventKind::Depart,
            lines: Lines::default(),
        }];
        let report = run_scenario(&spec.build().expect("valid")).expect("runs");
        let [full, departed, _] = &report.station_reports[..] else {
            panic!("expected 3 stations");
        };
        assert_eq!(departed.session_secs, 10.0);
        assert!(
            departed.packets < full.packets / 2,
            "a station departing at 10 s of 30 s must stream far less \
             ({} vs {})",
            departed.packets,
            full.packets
        );
    }

    #[test]
    fn online_scenarios_report_per_phase_prequential_counts() {
        let mut spec = small_spec();
        spec.adversary.mode = crate::scenario::spec::AdversaryMode::Online;
        spec.events = vec![EventSpec {
            at_secs: 15.0,
            station: None,
            kind: EventKind::Splice(DefenseSpec::parse("padding").unwrap()),
            lines: Lines::default(),
        }];
        let report = run_scenario(&spec.build().expect("valid")).expect("runs");
        assert_eq!(report.adversary_mode, "online");
        for station in &report.station_reports {
            assert_eq!(station.phases.len(), 2, "initial phase + splice");
            assert_eq!(station.phases[1].from_secs, 15.0);
            assert_eq!(station.phases[1].defense, "padding");
            assert!(station.phases[1].overhead_pct > 0.0);
            let total: u64 = station.phases.iter().map(|p| p.windows).sum();
            assert_eq!(total, station.windows);
        }
    }

    #[test]
    fn an_empty_morphing_calibration_is_an_error_not_a_panic() {
        // calib_secs passes `--check` (positive, finite) but is too short
        // for the calibration session to hold a packet: admission fails and
        // the run reports it, whatever the worker count.
        let mut spec = small_spec();
        spec.calib_secs = 1e-6;
        spec.stations[1].defense = DefenseSpec::parse("morphing").unwrap();
        let scenario = spec.build().expect("passes the static checks");
        for executor in [Executor::virtual_time(), Executor::on_workers(1)] {
            let scenario = CompiledScenario {
                executor,
                ..scenario.clone()
            };
            let err = run_scenario(&scenario).unwrap_err();
            assert!(
                err.contains("station 2") && err.contains("calib_secs"),
                "{err}"
            );
        }
        // Every morphing station of a worker fails, the later ones with the
        // error the memo cached from the first.
        let mut spec = small_spec();
        spec.calib_secs = 1e-6;
        spec.stations[0].defense = DefenseSpec::parse("morph_or").unwrap();
        let scenario = spec.build().expect("passes the static checks");
        let mut scratch = StationScratch::default();
        for i in 0..2 {
            let Err(err) = station_run(&scenario, scenario.station(i)).admit(&mut scratch) else {
                panic!("station {i} must fail to admit");
            };
            assert!(err.contains("calib_secs"), "station {i}: {err}");
        }
        assert_eq!(
            scratch.calibrations.sessions(),
            1,
            "the failed calibration is cached"
        );
    }
}
