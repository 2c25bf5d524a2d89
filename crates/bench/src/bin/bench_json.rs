//! Deterministic results of the committed workloads, as JSON.
//!
//! ```text
//! cargo run --release -p bench --bin bench_json [OUTPUT.json]
//! ```
//!
//! Writes `BENCH_pipeline.json` (or `OUTPUT.json`): the science the
//! reproduction commits to, with no timings in it. Every value is a pure
//! function of the committed specs, so regenerating the file leaves it
//! byte-identical unless a change moves a result — CI runs `make bench-json`
//! and fails on any diff. Speed is measured by `perfbench` instead.
//!
//! * `packets` and the `defended_*_overhead_pct` keys: the stations of the
//!   committed `scenarios/throughput_baseline.toml` (BitTorrent, seed 1,
//!   60 s, padding / morphing / morph∘OR), each pipeline built through
//!   `ScenarioSpec::build` and driven once over the station's trace.
//! * `adversary_{batch,online}_accuracy_*`: the frozen and the prequential
//!   adversary configured by that spec, against padding and morph∘OR (mean
//!   accuracy, the paper's metric).
//! * `scenario_<family>_*`: the report of each small committed scenario
//!   family (`mixed_population`, `station_churn`, `staged_defense`).

use bench::pipeline::{
    evaluate_defense, evaluate_defense_online, train_adversary, train_adversary_online,
};
use bench::scenario::{default_scenarios_dir, load_spec, run_scenario, DefenseSpec, Scenario};
use classifier::window::FeatureMode;
use defenses::spec::StageContext;
use traffic_gen::generator::SessionGenerator;
use traffic_gen::trace::Trace;

/// Loads and compiles one committed scenario spec, or dies with its error.
fn committed_scenario(file: &str) -> Scenario {
    let path = default_scenarios_dir().join(file);
    load_spec(&path)
        .and_then(|spec| spec.build())
        .unwrap_or_else(|e| panic!("committed scenario {file} must build: {e}"))
}

/// The batch trace of one spec'd station's traffic.
fn station_trace(scenario: &Scenario, index: usize) -> Trace {
    let station = scenario.station(index);
    SessionGenerator::new(station.traffic.app, station.traffic.seed)
        .generate_secs(station.session_secs())
}

/// The byte overhead (in percent) of one spec'd station's defense pipeline
/// after one pass over the station's own trace.
fn defended_overhead_pct(scenario: &Scenario, index: usize) -> f64 {
    let station = scenario.station(index);
    let trace = station_trace(scenario, index);
    let ctx = StageContext::batch(
        station.traffic.app,
        station.traffic.seed,
        scenario.calib_secs,
        &trace,
    );
    let mut pipeline = station
        .defense
        .build(&ctx, station.interfaces)
        .expect("validated at build time");
    pipeline.run(&mut trace.stream(), |_, _| {});
    pipeline.overhead().percent()
}

fn main() {
    let output = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pipeline.json".to_string());
    let baseline = committed_scenario("throughput_baseline.toml");
    let packets = station_trace(&baseline, 0).len();
    let padding_overhead_pct = defended_overhead_pct(&baseline, 0);
    let morphing_overhead_pct = defended_overhead_pct(&baseline, 1);
    let morph_or_overhead_pct = defended_overhead_pct(&baseline, 2);

    // Online-vs-batch adversary accuracy against the transforming and
    // composed defenses (mean accuracy, the paper's metric).
    let config = baseline.adversary.train;
    let warm_evaluator = train_adversary_online(&config, FeatureMode::Full);
    let batch_adversary = train_adversary(&config, FeatureMode::Full);
    let eval_corpus = config.evaluation_corpus();
    let accuracy_pair = |defense: &DefenseSpec| {
        let batch = evaluate_defense(
            &batch_adversary,
            &eval_corpus,
            defense,
            &config,
            FeatureMode::Full,
        )
        .mean_accuracy();
        let mut evaluator = warm_evaluator.clone();
        let online = evaluate_defense_online(
            &mut evaluator,
            &eval_corpus,
            defense,
            &config,
            config.eval_seed,
            FeatureMode::Full,
        )
        .mean_accuracy();
        (batch, online)
    };
    let (batch_acc_padding, online_acc_padding) = accuracy_pair(&baseline.station(0).defense);
    let (batch_acc_morph_or, online_acc_morph_or) = accuracy_pair(&baseline.station(2).defense);

    let mut scenario_json = String::new();
    for family in ["mixed_population", "station_churn", "staged_defense"] {
        let scenario = committed_scenario(&format!("{family}.toml"));
        let report = run_scenario(&scenario)
            .unwrap_or_else(|e| panic!("committed scenario {family} must run: {e}"));
        scenario_json.push_str(&format!(
            ",\n  \"scenario_{family}_stations\": {},\n  \"scenario_{family}_packets\": {},\n  \"scenario_{family}_windows\": {},\n  \"scenario_{family}_identification\": {:.3},\n  \"scenario_{family}_mean_overhead_pct\": {:.2}",
            report.stations,
            report.packets,
            report.windows,
            report.identification_rate,
            report.mean_overhead_pct
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"pipeline\",\n  \"workload\": \"scenarios/throughput_baseline.toml (BitTorrent 60s, OR over 3 vifs, W=5s)\",\n  \"packets\": {packets},\n  \"defended_padding_overhead_pct\": {padding_overhead_pct:.2},\n  \"defended_morphing_overhead_pct\": {morphing_overhead_pct:.2},\n  \"defended_morph_or_overhead_pct\": {morph_or_overhead_pct:.2},\n  \"adversary_batch_accuracy_padding\": {batch_acc_padding:.3},\n  \"adversary_online_accuracy_padding\": {online_acc_padding:.3},\n  \"adversary_batch_accuracy_morph_or\": {batch_acc_morph_or:.3},\n  \"adversary_online_accuracy_morph_or\": {online_acc_morph_or:.3}{scenario_json}\n}}\n"
    );
    std::fs::write(&output, &json).expect("write results json");
    println!("{json}");
    println!("wrote {output}");
}
