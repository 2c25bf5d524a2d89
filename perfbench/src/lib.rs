//! The repository's end-to-end benchmark, driven from outside the library.
//!
//! One binary runs a named workload — a scenario spec under `workloads/` —
//! through the public scenario API:
//!
//! * with tracing off ([`e2e::run`]) it times `load_spec` +
//!   `ScenarioSpec::build` + `train_for` as set-up and `execute_scenario` as
//!   the run, checks every report, and prints the end-to-end metrics;
//! * with tracing on ([`trace::run`]) it replays the same stations
//!   single-threaded through each layer's public entry points, checks that the
//!   replay reproduces the executor's per-station reports, and prints the
//!   per-layer ledger, whose `unattributed` line is the share of the
//!   tracing-off CPU time the layers do not explain.
//!
//! `README.md` next to this crate explains the workloads, the layer →
//! metric → workload map, and how to compare two commits.

pub mod e2e;
pub mod host;
pub mod probe;
pub mod trace;
pub mod workload;

use std::fmt::Write as _;

/// One reported measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// The value's unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What one benchmark invocation produced: the metrics plus the tally of
/// checked runs (a run whose output check failed counts as failed).
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Runs attempted (executions, or replayed stations in a traced run).
    pub attempted: u64,
    /// Runs whose output check failed.
    pub failed: u64,
    /// Human-readable descriptions of the failed checks.
    pub errors: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Records one attempted run and the errors its check found.
    pub fn record(&mut self, errors: Vec<String>) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            self.errors.extend(errors);
        }
    }

    /// Whether every attempted run passed its check and every metric is a
    /// finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics` (each `{"value", "unit"}`), in that order.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, metric) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; `correct()` already reports
            // them as a failure, so write them as 0. `{:?}` is the shortest
            // round-tripping form, with every significant digit.
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                0.0
            };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The median of `values` (mean of the middle pair for even counts; 0 when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_json_has_exactly_the_four_keys_in_order() {
        let mut result = RunResult::default();
        result.record(Vec::new());
        result.metrics.push(Metric::new("latency_ms", 1.25, "ms"));
        assert_eq!(
            result.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn a_failed_check_or_a_non_finite_metric_is_incorrect() {
        let mut result = RunResult::default();
        result.record(vec!["boom".to_string()]);
        assert!(!result.correct());
        assert_eq!((result.attempted, result.failed), (1, 1));

        let mut result = RunResult::default();
        result.record(Vec::new());
        result.metrics.push(Metric::new("x", f64::NAN, "ns"));
        assert!(!result.correct());
        assert!(result.to_json().contains("\"value\": 0.0"));
    }
}
