//! The benchmark's own tests, on tiny versions of every workload.

use bench::scenario::execute_scenario;
use perfbench::e2e::{self, check_report, Options, E2E_METRICS};
use perfbench::trace::{self, compare_station, Layer, Tracer, LAYER_METRICS};
use perfbench::workload::{Shrink, Workload, WORKLOADS};
use perfbench::{Metric, RunResult};

/// At most 8 stations per group, sessions of at most 30 s.
fn tiny() -> Options {
    Options {
        seconds: 0.0,
        shrink: Some(Shrink {
            stations_per_group: 8,
            secs: 30.0,
        }),
    }
}

fn assert_metrics(workload: Workload, result: &RunResult, expected: &[(&str, &str)]) {
    assert!(
        result.correct(),
        "{}: {} of {} runs failed: {:?}",
        workload.name,
        result.failed,
        result.attempted,
        result.errors
    );
    let names: Vec<&str> = result.metrics.iter().map(|m| m.name).collect();
    let expected_names: Vec<&str> = expected.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, expected_names, "{}", workload.name);
    for (Metric { name, value, unit }, (_, expected_unit)) in result.metrics.iter().zip(expected) {
        assert_eq!(unit, expected_unit, "{}: {name}", workload.name);
        assert!(value.is_finite(), "{}: {name} = {value}", workload.name);
    }
}

#[test]
fn every_workload_emits_every_named_metric_with_a_unit() {
    for workload in WORKLOADS {
        let result = e2e::run(workload, 3, &tiny()).expect("tiny workload runs");
        assert_metrics(workload, &result, &E2E_METRICS);
        assert_eq!(
            result.attempted,
            1 + e2e::MIN_REPS as u64,
            "warm-up plus the minimum"
        );

        let traced = trace::run(workload, 3, &tiny()).expect("tiny workload traces");
        assert_metrics(workload, &traced.result, &LAYER_METRICS);
        let stations = traced.result.attempted - result.attempted;
        assert!(stations > 0, "{}: every station is replayed", workload.name);
    }
}

#[test]
fn benchmark_json_names_every_workload_and_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits next to perfbench/");
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(E2E_METRICS.iter().map(|(name, _)| *name))
        .chain(LAYER_METRICS.iter().map(|(name, _)| *name));
    for name in names {
        assert!(
            json.contains(&format!("\"name\": \"{name}\"")),
            "BENCHMARK.json does not name {name}"
        );
    }
    for (name, unit) in E2E_METRICS.iter().chain(&LAYER_METRICS) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "BENCHMARK.json gives {name} another unit than {unit}"
        );
    }
}

#[test]
fn the_ledger_closes() {
    let traced = trace::run(WORKLOADS[0], 5, &tiny()).expect("tiny workload traces");
    let ledger = &traced.ledger;
    assert_eq!(ledger.layers.len(), Layer::ALL.len());
    let closed = ledger.attributed_ns() + ledger.unattributed_ns();
    assert!(
        (closed - ledger.e2e_ns).abs() <= 1e-9 * ledger.e2e_ns.max(1.0),
        "Σ layers + unattributed = {closed}, e2e = {}",
        ledger.e2e_ns
    );
    let share = traced
        .result
        .metrics
        .iter()
        .find(|m| m.name == "executor.unattributed_share")
        .expect("the share is reported");
    assert_eq!(share.value, ledger.unattributed_share());
    let table = ledger.render();
    for layer in Layer::ALL {
        assert!(
            table.contains(layer.name()),
            "ledger lists {}",
            layer.name()
        );
    }
    assert!(table.contains("unattributed") && table.contains("e2e"));
}

#[test]
fn the_output_check_trips_on_a_perturbed_report() {
    let prepared = e2e::prepare(WORKLOADS[0], 9, &tiny()).expect("tiny workload sets up");
    let stations = prepared.scenario.station_count();
    let (report, run) = e2e::execute(&prepared).expect("tiny workload runs");
    let check = |report: &_, stats: &_| check_report(report, stats, stations, prepared.executor);
    assert!(check(&report, &run.stats).is_empty());

    let mut bad = report.clone();
    bad.packets += 1;
    assert!(
        !check(&bad, &run.stats).is_empty(),
        "packet totals disagree"
    );
    let mut bad = report.clone();
    bad.windows = 0;
    bad.windows_identified = 0;
    assert!(!check(&bad, &run.stats).is_empty(), "no windows");
    let mut bad = report.clone();
    bad.identification_rate = 1.5;
    assert!(!check(&bad, &run.stats).is_empty(), "rate above 1");
    let mut stats = run.stats;
    stats.events_popped += 1;
    assert!(!check(&report, &stats).is_empty(), "events != 2 × stations");

    // The replay check trips on a perturbed station outcome too.
    let mut detailed = prepared.scenario.clone();
    detailed.max_station_reports = stations;
    let (full, _) = execute_scenario(&detailed, &prepared.adversary, prepared.executor)
        .expect("tiny workload runs");
    let mut tracer = Tracer::default();
    let tally = trace::replay_station(&prepared.scenario, &prepared.adversary, 0, &mut tracer)
        .expect("station 0 replays");
    let outcome = &full.station_reports[0];
    assert!(compare_station(0, &tally, outcome).is_empty());
    let mut bad = outcome.clone();
    bad.windows_identified += 1;
    assert!(!compare_station(0, &tally, &bad).is_empty());

    // A failed check is a failed run against the runs attempted.
    let mut result = RunResult::default();
    result.record(check(&report, &run.stats));
    result.record(check(&bad_report(&report), &run.stats));
    assert_eq!((result.attempted, result.failed), (2, 1));
    assert!(!result.correct());
}

fn bad_report(report: &bench::scenario::ScenarioReport) -> bench::scenario::ScenarioReport {
    let mut bad = report.clone();
    bad.packets = 0;
    bad
}
