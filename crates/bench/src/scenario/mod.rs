//! The declarative scenario engine: experiments as committed TOML specs.
//!
//! The paper's evaluation is a grid of scenarios — applications × defenses ×
//! adversary modes — and this module makes that grid **data** instead of
//! hand-coded Rust. A spec file under `scenarios/` describes a station
//! population (per-station [`TrafficSpec`](traffic_gen::spec::TrafficSpec)),
//! a [`DefenseSpec`] stage list per station, an [`AdversarySpec`] (batch or
//! prequential online), and an optional event schedule (mid-session defense
//! splices, station arrival/departure churn). [`load_spec`] reads it (only
//! [`spec`] reads keys, citing `path:line: key`), and [`ScenarioSpec::build`]
//! compiles it into a [`CompiledScenario`] — population kept symbolic, so a
//! million-station spec compiles in O(groups + events) — [`train_for`]
//! trains its adversary, and [`execute_scenario`] runs it on the
//! virtual-time [`Executor`](crate::streaming::Executor), which holds memory
//! only for the stations on air. The result serializes to JSON.
//!
//! Adding an experiment is writing a TOML file:
//!
//! 1. drop a spec into `scenarios/` (see the committed families for the
//!    schema),
//! 2. `cargo run --release -p bench --bin scenario_run -- scenarios/x.toml`,
//! 3. CI validates every committed spec with `scenario_run --check` and
//!    uploads the per-scenario JSON as artifacts.

mod exact_sum;
pub mod run;
pub mod spec;
pub mod toml;

pub use run::{
    execute_scenario, train_for, PhaseOutcome, ScenarioReport, StationOutcome, TrainedAdversary,
};
pub use spec::{
    AdversaryMode, AdversarySpec, AlgorithmSpec, Arrivals, CompiledScenario, DefenseSpec,
    EventKind, EventSpec, Population, ScenarioSpec, ScenarioStation, StageSpec, StationGroupSpec,
};

use std::path::{Path, PathBuf};

/// Loads one scenario spec from a TOML file; the file stem names the
/// scenario unless the spec sets `name` itself. Every error reads
/// `path:line: key: message`, and the loaded scenario, station groups and
/// events keep their key lines, so `build()` errors point into the file too.
pub fn load_spec(path: &Path) -> Result<ScenarioSpec, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    let mut spec = parse_spec(&path.display().to_string(), &text)?;
    if spec.name.is_empty() {
        spec.name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "scenario".to_string());
    }
    Ok(spec)
}

/// Reads one scenario spec from TOML text, citing `file` in its errors.
fn parse_spec(file: &str, text: &str) -> Result<ScenarioSpec, String> {
    let root = toml::parse(text).map_err(|e| format!("{file}:{e}"))?;
    let mut fields = toml::Fields::new(file, &root);
    let spec = ScenarioSpec::read(&mut fields)?;
    fields.finish()?;
    Ok(spec)
}

/// Lists the spec files of a path: the file itself, or every `*.toml`
/// directly inside a directory (sorted by name, so runs are deterministic).
pub fn spec_files(path: &Path) -> Result<Vec<PathBuf>, String> {
    if path.is_file() {
        return Ok(vec![path.to_path_buf()]);
    }
    if !path.is_dir() {
        return Err(format!("{}: no such file or directory", path.display()));
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("{}: cannot list: {e}", path.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    files.sort();
    Ok(files)
}

/// The committed scenario directory, resolved from the working directory
/// (repo root) or from the source tree (tests run inside `crates/bench`).
pub fn default_scenarios_dir() -> PathBuf {
    let local = PathBuf::from("scenarios");
    if local.is_dir() {
        local
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_errors_name_the_line_of_their_own_header_however_it_is_spelt() {
        // Three spellings of the same header; the second event leaves out
        // the station a departure needs, so its error falls back to the
        // header's line.
        let text = "\
[[stations]]
app = \"bt\"

[[ events ]]
at_secs = 1.0
kind = \"splice\"
defense = \"padding\"

[[\"events\"]]
at_secs = 2.0
kind = \"depart\"

[[events]]
at_secs = 3.0
station = 9
kind = \"depart\"
";
        let spec = parse_spec("t.toml", text).expect("parses");
        let err = spec.build().unwrap_err();
        assert_eq!(
            err,
            "t.toml:9: station: missing: arrive and depart events need one"
        );
        let mut spec = parse_spec("t.toml", text).expect("parses");
        spec.events.remove(1);
        let err = spec.build().unwrap_err();
        assert_eq!(err, "t.toml:15: station: 9 is out of range (0..1)");
    }

    #[test]
    fn load_errors_start_with_the_path_and_line() {
        let err = parse_spec("t.toml", "seed = 1\nseed = 2").unwrap_err();
        assert_eq!(err, "t.toml:2: duplicate key `seed`");
        let err = load_spec(Path::new("no/such.toml")).unwrap_err();
        assert!(err.starts_with("no/such.toml: cannot read: "), "{err}");
    }
}
