//! Regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! experiments [quick|paper] [fig1|fig4|fig5|table1|table2|table3|table4|table5|table6|power|combined|ablation|all]...
//! ```
//!
//! With no arguments the `paper` preset and `all` experiments are run. The
//! `quick` preset uses smaller corpora (useful for smoke tests). An unknown
//! name exits with status 2 and lists the valid ones.

use bench::corpus::ExperimentConfig;
use bench::figures::{figure1, figure4, figure5, OrFigure};
use bench::power::power_analysis;
use bench::report::{bytes, percent, raw_percent, seconds, TextTable};
use bench::tables::{
    combined_defense, table1, table2, table3, table4, table5, table6, AccuracyTable,
};

/// Every experiment, in the order they run.
const EXPERIMENTS: [&str; 12] = [
    "fig1", "fig4", "fig5", "table1", "table2", "table3", "table4", "table5", "table6", "power",
    "combined", "ablation",
];

/// Splits the arguments into the preset (`paper` unless `quick` or `paper`
/// is given first) and the experiments to run (all of them when none is
/// named, or for `all`). Any other argument is an error naming the valid ones.
fn select(args: &[String]) -> Result<(&'static str, Vec<&'static str>), String> {
    let mut preset = None;
    let mut selected = Vec::new();
    for arg in args {
        match arg.as_str() {
            "quick" => preset = preset.or(Some("quick")),
            "paper" => preset = preset.or(Some("paper")),
            "all" => selected.extend(EXPERIMENTS),
            name => selected.push(*EXPERIMENTS.iter().find(|&&e| e == name).ok_or_else(|| {
                format!(
                    "unknown experiment `{name}`; expected quick, paper, all or one of: {}",
                    EXPERIMENTS.join(", ")
                )
            })?),
        }
    }
    if selected.is_empty() {
        selected = EXPERIMENTS.to_vec();
    }
    Ok((preset.unwrap_or("paper"), selected))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (preset, selected) = select(&args).unwrap_or_else(|e| {
        eprintln!("experiments: {e}");
        std::process::exit(2);
    });
    let wants = |name: &str| selected.contains(&name);

    let config5 = if preset == "quick" {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::paper(5.0)
    };
    let config60 = if preset == "quick" {
        ExperimentConfig {
            window_secs: 20.0,
            ..ExperimentConfig::quick()
        }
    } else {
        ExperimentConfig::paper(60.0)
    };

    println!("traffic reshaping reproduction — preset: {preset}\n");

    if wants("fig1") {
        print_figure1(&config5);
    }
    if wants("fig4") {
        print_or_figure(
            "Figure 4 — OR schedules BitTorrent by packet-size ranges",
            &figure4(config5.eval_seed, config5.eval_session_secs),
        );
    }
    if wants("fig5") {
        print_or_figure(
            "Figure 5 — OR schedules BitTorrent by packet size modulo I",
            &figure5(config5.eval_seed, config5.eval_session_secs),
        );
    }
    if wants("table1") {
        print_table1(&config5);
    }
    if wants("table2") {
        let table = table2(&config5);
        print_accuracy_table("Table II — accuracy of classification", &table);
    }
    if wants("table3") {
        let table = table3(&config60);
        print_accuracy_table("Table III — accuracy of classification", &table);
    }
    if wants("table4") {
        print_table4(&config5, &config60);
    }
    if wants("table5") {
        let table = table5(&config5, &[2, 3, 5]);
        print_accuracy_table(
            "Table V — OR accuracy vs. number of virtual interfaces",
            &table,
        );
    }
    if wants("table6") {
        print_table6(&config5);
    }
    if wants("power") {
        print_power();
    }
    if wants("combined") {
        print_combined(&config5);
    }
    if wants("ablation") {
        print_ablation(&config5);
    }
}

fn print_ablation(config: &ExperimentConfig) {
    use bench::ablation::{interface_count_ablation, scheduler_ablation};
    use reshape_core::params::entropy_gain_bits;
    use traffic_gen::app::AppKind;
    println!(
        "Ablation — scheduling flavour (I = 3, W = {}s)",
        config.window_secs
    );
    let mut table = TextTable::new(["variant", "mean accuracy (%)", "mean FP (%)"]);
    for outcome in scheduler_ablation(config) {
        table.row([
            outcome.variant.clone(),
            percent(outcome.mean_accuracy),
            percent(outcome.mean_false_positive),
        ]);
    }
    println!("{}", table.render());

    println!("Ablation — number of virtual interfaces (OR)");
    let mut table = TextTable::new([
        "variant",
        "mean accuracy (%)",
        "mean FP (%)",
        "entropy gain (bits)",
    ]);
    let counts = [1, 2, 3, 4, 5];
    // §III-C3's privacy entropy over a WLAN of one station per application.
    let clients = AppKind::ALL.len() as u64;
    for (outcome, interfaces) in interface_count_ablation(config, &counts).iter().zip(counts) {
        table.row([
            outcome.variant.clone(),
            percent(outcome.mean_accuracy),
            percent(outcome.mean_false_positive),
            format!("{:.2}", entropy_gain_bits(clients, interfaces as u64)),
        ]);
    }
    println!("{}", table.render());
}

fn print_figure1(config: &ExperimentConfig) {
    println!("Figure 1 — packet-size PDF of seven applications (receiver side)");
    let mut table = TextTable::new([
        "App.",
        "packets",
        "mean size (B)",
        "P(size <= 232)",
        "P(size >= 1546)",
        "CDF@200",
        "CDF@800",
        "CDF@1400",
    ]);
    for series in figure1(config.eval_seed, config.eval_session_secs) {
        let cdf = |x: usize| {
            series
                .cdf_samples
                .iter()
                .find(|(s, _)| *s == x)
                .map(|(_, c)| format!("{c:.3}"))
                .unwrap_or_default()
        };
        table.row([
            series.app.abbrev().to_string(),
            series.packets.to_string(),
            bytes(series.mean_size),
            format!("{:.3}", series.small_fraction),
            format!("{:.3}", series.large_fraction),
            cdf(200),
            cdf(800),
            cdf(1400),
        ]);
    }
    println!("{}", table.render());
}

fn print_or_figure(title: &str, figure: &OrFigure) {
    println!("{title} (algorithm: {})", figure.algorithm);
    let mut table = TextTable::new(["series", "packets", "mean size (B)", "min", "max"]);
    table.row([
        "original".to_string(),
        figure.original.packets.to_string(),
        bytes(figure.original.mean_size),
        figure.original.min_size.to_string(),
        figure.original.max_size.to_string(),
    ]);
    for series in &figure.interfaces {
        table.row([
            format!("interface {}", series.interface),
            series.packets.to_string(),
            bytes(series.mean_size),
            series.min_size.to_string(),
            series.max_size.to_string(),
        ]);
    }
    println!("{}", table.render());
}

fn print_table1(config: &ExperimentConfig) {
    println!("Table I — features on virtual interfaces (from AP to the user)");
    let mut table = TextTable::new([
        "App.", "Feature", "Paper", "Original", "i = 1", "i = 2", "i = 3",
    ]);
    for row in table1(config) {
        table.row([
            row.app.abbrev().to_string(),
            "Avg. packet size".to_string(),
            bytes(row.paper.0),
            bytes(row.original.0),
            bytes(row.per_interface[0].0),
            bytes(row.per_interface[1].0),
            bytes(row.per_interface[2].0),
        ]);
        table.row([
            row.app.abbrev().to_string(),
            "Interarrival time".to_string(),
            seconds(row.paper.1),
            seconds(row.original.1),
            seconds(row.per_interface[0].1),
            seconds(row.per_interface[1].1),
            seconds(row.per_interface[2].1),
        ]);
    }
    println!("{}", table.render());
}

fn print_accuracy_table(title: &str, table: &AccuracyTable) {
    println!("{title} (W = {}s)", table.window_secs);
    let mut text = TextTable::new(
        std::iter::once("App.".to_string())
            .chain(table.columns.iter().map(|c| format!("{c} (%)")))
            .collect::<Vec<_>>(),
    );
    for (app, accs) in &table.rows {
        text.row(
            std::iter::once(app.abbrev().to_string())
                .chain(accs.iter().map(|a| percent(*a)))
                .collect::<Vec<_>>(),
        );
    }
    text.row(
        std::iter::once("Mean".to_string())
            .chain(table.mean.iter().map(|a| percent(*a)))
            .collect::<Vec<_>>(),
    );
    println!("{}", text.render());
}

fn print_table4(config5: &ExperimentConfig, config60: &ExperimentConfig) {
    println!("Table IV — FP of classification");
    let t5 = table4(config5);
    let t60 = table4(config60);
    let mut table = TextTable::new([
        "App.",
        &format!("W={}s Original (%)", t5.window_secs),
        &format!("W={}s OR (%)", t5.window_secs),
        &format!("W={}s Original (%)", t60.window_secs),
        &format!("W={}s OR (%)", t60.window_secs),
    ]);
    for ((app, o5, r5), (_, o60, r60)) in t5.rows.iter().zip(&t60.rows) {
        table.row([
            app.abbrev().to_string(),
            percent(*o5),
            percent(*r5),
            percent(*o60),
            percent(*r60),
        ]);
    }
    table.row([
        "Mean".to_string(),
        percent(t5.mean.0),
        percent(t5.mean.1),
        percent(t60.mean.0),
        percent(t60.mean.1),
    ]);
    println!("{}", table.render());
}

fn print_table6(config: &ExperimentConfig) {
    println!(
        "Table VI — efficiency comparison (W = {}s)",
        config.window_secs
    );
    let t = table6(config);
    let mut table = TextTable::new([
        "App.",
        "Accuracy padding/morphing (%)",
        "Accuracy OR (%)",
        "Overhead padding (%)",
        "Overhead morphing (%)",
    ]);
    for row in &t.rows {
        table.row([
            row.app.abbrev().to_string(),
            percent(row.accuracy_padding_morphing),
            percent(row.accuracy_reshaping),
            raw_percent(row.padding_overhead),
            raw_percent(row.morphing_overhead),
        ]);
    }
    table.row([
        "Mean".to_string(),
        percent(t.mean.0),
        percent(t.mean.1),
        raw_percent(t.mean.2),
        raw_percent(t.mean.3),
    ]);
    println!("{}", table.render());
}

fn print_power() {
    println!("Section V-A — power analysis and per-packet TPC");
    let result = power_analysis(5, 3, 120, 0xbeef);
    let mut table = TextTable::new(["metric", "without TPC", "with TPC"]);
    table.row([
        "frames attributed to the correct station".to_string(),
        percent(result.attribution_without_tpc),
        percent(result.attribution_with_tpc),
    ]);
    table.row([
        "per-interface RSSI spread (dB)".to_string(),
        format!("{:.2}", result.rssi_spread_without_tpc),
        format!("{:.2}", result.rssi_spread_with_tpc),
    ]);
    println!("{}", table.render());
}

fn print_combined(config: &ExperimentConfig) {
    println!("Section V-C — traffic reshaping combined with morphing");
    let result = combined_defense(config);
    let mut table = TextTable::new(["defense", "mean accuracy (%)", "overhead (%)"]);
    table.row([
        "OR alone".to_string(),
        percent(result.or_accuracy),
        "0.00".to_string(),
    ]);
    table.row([
        "OR + morphing (interface 1 -> gaming)".to_string(),
        percent(result.combined_accuracy),
        raw_percent(result.combined_overhead),
    ]);
    println!("{}", table.render());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_arguments_run_every_experiment_on_the_paper_preset() {
        let (preset, selected) = select(&[]).unwrap();
        assert_eq!(preset, "paper");
        assert_eq!(selected, EXPERIMENTS);
        assert_eq!(select(&args(&["quick", "all"])).unwrap().1, selected);
    }

    #[test]
    fn named_experiments_select_only_themselves() {
        let (preset, selected) = select(&args(&["table2", "quick", "fig4"])).unwrap();
        assert_eq!(preset, "quick");
        assert_eq!(selected, ["table2", "fig4"]);
        assert_eq!(select(&args(&["ablation"])).unwrap().1, ["ablation"]);
    }

    #[test]
    fn unknown_names_are_rejected_with_the_valid_list() {
        let err = select(&args(&["quick", "tabel2"])).unwrap_err();
        assert!(err.contains("`tabel2`"), "{err}");
        for name in EXPERIMENTS.iter().chain(&["all"]) {
            assert!(err.contains(name), "{err} must list {name}");
        }
    }
}
