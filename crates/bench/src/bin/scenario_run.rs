//! Runs (or validates) declarative scenario specs.
//!
//! ```text
//! cargo run --release -p bench --bin scenario_run -- \
//!     [--check] [--out DIR] [PATH ...]
//! ```
//!
//! Each `PATH` is a spec file or a directory of `*.toml` specs; the committed
//! `scenarios/` directory is the default. Every spec is parsed and compiled
//! through `ScenarioSpec::build()`; with `--check` that is all (CI gates on
//! it, so a malformed committed spec fails the build — compilation is
//! O(groups + events), so even the million-station metropolis spec checks in
//! milliseconds), otherwise each scenario runs on its spec'd executor and its
//! report is written to `DIR/<name>.json` (default `scenario-results/`).
//! Each run's stats line ends with the process's peak resident set so far
//! (`VmHWM` from `/proc/self/status`, `n/a` where that is absent), so a run
//! of the million-station metropolis family shows its memory bound.

use bench::scenario::{default_scenarios_dir, execute_scenario, load_spec, spec_files, train_for};
use std::path::PathBuf;

fn main() {
    let mut check_only = false;
    let mut out_dir = PathBuf::from("scenario-results");
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check_only = true,
            "--out" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => fail("--out needs a directory argument"),
            },
            "--help" | "-h" => {
                println!("usage: scenario_run [--check] [--out DIR] [PATH ...]");
                return;
            }
            other => paths.push(PathBuf::from(other)),
        }
    }
    if paths.is_empty() {
        paths.push(default_scenarios_dir());
    }

    let mut files = Vec::new();
    for path in &paths {
        match spec_files(path) {
            Ok(found) => files.extend(found),
            Err(e) => fail(&e),
        }
    }
    if files.is_empty() {
        fail("no scenario spec files found");
    }

    let mut failures = 0usize;
    let mut seen_names: std::collections::HashSet<String> = std::collections::HashSet::new();
    for file in &files {
        let outcome = load_spec(file).and_then(|spec| spec.build().map(|s| (spec, s)));
        let (spec, scenario) = match outcome {
            Ok(built) => built,
            Err(e) => {
                eprintln!("FAIL {e}");
                failures += 1;
                continue;
            }
        };
        // Names key the per-scenario report files; a duplicate would silently
        // overwrite another scenario's JSON.
        if !seen_names.insert(scenario.name.clone()) {
            eprintln!(
                "FAIL {}: duplicate scenario name `{}`",
                file.display(),
                scenario.name
            );
            failures += 1;
            continue;
        }
        if check_only {
            println!(
                "ok {} ({} stations, {} events)",
                scenario.name,
                scenario.station_count(),
                spec.events.len()
            );
            continue;
        }
        let adversary = train_for(&scenario);
        let start = std::time::Instant::now();
        match execute_scenario(&scenario, &adversary, scenario.executor) {
            Ok((report, stats)) => {
                let secs = start.elapsed().as_secs_f64().max(1e-9);
                let json = serde_json::to_string(&report).expect("reports always serialize");
                if let Err(e) = std::fs::create_dir_all(&out_dir) {
                    fail(&format!("{}: cannot create: {e}", out_dir.display()));
                }
                let out_path = out_dir.join(format!("{}.json", report.scenario));
                if let Err(e) = std::fs::write(&out_path, &json) {
                    fail(&format!("{}: cannot write: {e}", out_path.display()));
                }
                println!(
                    "ran {}: {} stations, {} packets, {} windows, identification {:.3}, \
                     mean overhead {:.2}% -> {}",
                    report.scenario,
                    report.stations,
                    report.packets,
                    report.windows,
                    report.identification_rate,
                    report.mean_overhead_pct,
                    out_path.display()
                );
                println!(
                    "    [{}: {} workers, {:.0} stations/s, peak_active {}, \
                     {} events, {:.1} packets/event, {} calibrations, peak RSS {}]",
                    scenario.executor.name(),
                    stats.workers,
                    report.stations as f64 / secs,
                    stats.peak_active,
                    stats.events_popped,
                    stats.packets_per_event(),
                    stats.calibrations,
                    peak_rss()
                );
            }
            Err(e) => {
                eprintln!("FAIL {}: {e}", scenario.name);
                failures += 1;
            }
        }
    }
    if failures > 0 {
        fail(&format!("{failures} scenario(s) failed"));
    }
}

/// The process's peak resident set size so far (`VmHWM`, in 10^6 bytes as
/// perfbench's `peak_rss_mb`), or `n/a`.
fn peak_rss() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(format!("{:.1} MB", kb * 1024.0 / 1e6))
        })
        .unwrap_or_else(|| "n/a".to_string())
}

fn fail(msg: &str) -> ! {
    eprintln!("scenario_run: {msg}");
    std::process::exit(1);
}
