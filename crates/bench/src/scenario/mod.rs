//! The declarative scenario engine: experiments as committed TOML specs.
//!
//! The paper's evaluation is a grid of scenarios — applications × defenses ×
//! adversary modes — and this module makes that grid **data** instead of
//! hand-coded Rust. A spec file under `scenarios/` describes a station
//! population (per-station [`TrafficSpec`](traffic_gen::spec::TrafficSpec)),
//! a [`DefenseSpec`] stage list per station, an [`AdversarySpec`] (batch or
//! prequential online), and an optional event schedule (mid-session defense
//! splices, station arrival/departure churn). [`ScenarioSpec::build`]
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

use serde::Deserialize;
use std::path::{Path, PathBuf};

/// Loads one scenario spec from a TOML file; the file stem names the
/// scenario unless the spec sets `name` itself. Each `[[events]]` entry is
/// annotated with its header's line number, so `build()` errors point into
/// the file.
pub fn load_spec(path: &Path) -> Result<ScenarioSpec, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    let mut spec = parse_spec(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if spec.name.is_empty() {
        spec.name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "scenario".to_string());
    }
    Ok(spec)
}

/// Parses one scenario spec from TOML text, giving the i-th `[[events]]`
/// entry the line of the i-th `[[events]]` header the reader accepted.
fn parse_spec(text: &str) -> Result<ScenarioSpec, String> {
    let document = toml::parse(text)?;
    let mut spec = ScenarioSpec::from_value(&document.value).map_err(|e| e.to_string())?;
    let header_lines = document
        .array_headers
        .iter()
        .filter(|(path, _)| *path == ["events"])
        .map(|&(_, line)| line as u32);
    for (event, line) in spec.events.iter_mut().zip(header_lines) {
        event.line = Some(line);
    }
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
        // Three spellings of the same header; the second event targets a
        // station that does not exist.
        let text = "\
[[stations]]
app = \"bt\"

[[ events ]]
at_secs = 1.0
kind = \"splice\"
defense = \"padding\"

[[\"events\"]]
at_secs = 2.0
station = 9
kind = \"depart\"

[[events]]
at_secs = 3.0
kind = \"splice\"
defense = \"or\"
";
        let spec = parse_spec(text).expect("parses");
        let lines: Vec<_> = spec.events.iter().map(|e| e.line).collect();
        assert_eq!(lines, [Some(4), Some(9), Some(14)]);
        let err = spec.build().unwrap_err();
        assert!(err.contains("entry #2 (line 9)"), "{err}");
    }
}
