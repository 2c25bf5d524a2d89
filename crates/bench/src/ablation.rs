//! Ablation experiments over the design choices DESIGN.md calls out.
//!
//! The paper fixes a handful of design parameters without a full sweep: the
//! size-range boundaries (observation-driven `(0,232],(232,1540],(1540,1576]`
//! vs. simple equal-width splits), and the flavour of orthogonal scheduling
//! (range-ownership vs. size-modulo). These ablations quantify how much each
//! choice actually matters for the defense's effectiveness.

use classifier::metrics::ConfusionMatrix;
use classifier::window::FeatureMode;
use serde::{Deserialize, Serialize};

use crate::corpus::ExperimentConfig;
use crate::pipeline;
use crate::scenario::DefenseSpec;

/// One ablation variant and its outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationOutcome {
    /// Human-readable name of the variant.
    pub variant: String,
    /// Mean classification accuracy the adversary still achieves.
    pub mean_accuracy: f64,
    /// Mean false-positive rate.
    pub mean_false_positive: f64,
}

/// The scheduler variants of [`scheduler_ablation`]: the printed label and
/// the defense's shorthand.
const SCHEDULERS: [(&str, &str); 4] = [
    ("RA", "ra"),
    ("RR", "rr"),
    ("OR", "or"),
    ("OR-mod", "or_mod"),
];

/// Ablation 1 — scheduling flavour: Orthogonal Reshaping over the paper's
/// observation-driven ranges vs. the size-modulo variant vs. the naive RA/RR
/// baselines, all with `I = 3`.
pub fn scheduler_ablation(config: &ExperimentConfig) -> Vec<AblationOutcome> {
    let adversary = pipeline::train_adversary(config, FeatureMode::Full);
    let eval = config.evaluation_corpus();
    SCHEDULERS
        .iter()
        .map(|&(label, shorthand)| {
            let matrix = pipeline::evaluate_defense(
                &adversary,
                &eval,
                &DefenseSpec::parse(shorthand).expect("valid shorthand"),
                config,
                FeatureMode::Full,
            );
            outcome(label.to_string(), &matrix)
        })
        .collect()
}

/// Ablation 2 — number of virtual interfaces beyond the paper's Table V
/// points, including the degenerate `I = 1` case (no reshaping at all, just a
/// second MAC address), which isolates the contribution of the partitioning
/// itself.
pub fn interface_count_ablation(
    config: &ExperimentConfig,
    counts: &[usize],
) -> Vec<AblationOutcome> {
    let adversary = pipeline::train_adversary(config, FeatureMode::Full);
    let eval = config.evaluation_corpus();
    counts
        .iter()
        .map(|&interfaces| {
            let cfg = ExperimentConfig {
                interfaces,
                ..*config
            };
            let defense = if interfaces == 1 {
                DefenseSpec::none()
            } else {
                DefenseSpec::parse("or").expect("valid shorthand")
            };
            let matrix =
                pipeline::evaluate_defense(&adversary, &eval, &defense, &cfg, FeatureMode::Full);
            outcome(format!("OR, I = {interfaces}"), &matrix)
        })
        .collect()
}

fn outcome(variant: String, matrix: &ConfusionMatrix) -> AblationOutcome {
    AblationOutcome {
        variant,
        mean_accuracy: matrix.mean_accuracy(),
        mean_false_positive: matrix.mean_false_positive_rate(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orthogonal_variants_beat_naive_partitioning() {
        let results = scheduler_ablation(&ExperimentConfig::quick());
        assert_eq!(results.len(), 4);
        let by_name = |name: &str| {
            results
                .iter()
                .find(|r| r.variant == name)
                .unwrap_or_else(|| panic!("missing variant {name}"))
                .mean_accuracy
        };
        let or = by_name("OR");
        assert!(or < by_name("RA"), "OR must beat random assignment");
        assert!(or < by_name("RR"), "OR must beat round robin");
        for r in &results {
            assert!((0.0..=1.0).contains(&r.mean_accuracy));
            assert!((0.0..=1.0).contains(&r.mean_false_positive));
        }
    }

    #[test]
    fn more_interfaces_never_help_the_adversary() {
        let results = interface_count_ablation(&ExperimentConfig::quick(), &[1, 2, 3]);
        assert_eq!(results.len(), 3);
        // I = 1 is the undefended baseline; any real reshaping must not make
        // the adversary stronger than that.
        assert!(results[1].mean_accuracy <= results[0].mean_accuracy + 0.05);
        assert!(results[2].mean_accuracy <= results[0].mean_accuracy + 0.05);
    }
}
