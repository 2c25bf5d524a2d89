//! Train the traffic-analysis adversary and attack original vs. reshaped traffic.
//!
//! ```text
//! cargo run --release --example adversary_eval
//! ```
//!
//! The adversary (an ensemble of an SVM, a neural network and naive Bayes,
//! scored by its best member) is trained on windows of original traffic
//! from all seven applications, then evaluated
//! twice: against fresh original traffic and against the per-interface
//! sub-flows produced by Orthogonal Reshaping. The printed per-application
//! accuracies reproduce the headline result of the paper (Tables II/III):
//! reshaping roughly halves the adversary's mean accuracy.

use classifier::ensemble::{AdversaryEnsemble, EnsembleConfig};
use classifier::features::FEATURE_DIM;
use classifier::window::{build_dataset, windowed_examples, FeatureMode, DEFAULT_MIN_PACKETS};
use classifier::Dataset;
use traffic_reshaping::reshape::ranges::SizeRanges;
use traffic_reshaping::reshape::reshaper::Reshaper;
use traffic_reshaping::reshape::scheduler::OrthogonalRanges;
use traffic_reshaping::traffic::app::AppKind;
use traffic_reshaping::traffic::generator::SessionGenerator;
use traffic_reshaping::traffic::trace::Trace;
use traffic_reshaping::wlan::time::SimDuration;

const WINDOW_SECS: u64 = 5;

fn corpus(seed: u64, sessions: usize, secs: f64) -> Vec<Trace> {
    AppKind::ALL
        .iter()
        .flat_map(|&app| SessionGenerator::new(app, seed).generate_sessions(sessions, secs))
        .collect()
}

fn main() {
    let window = SimDuration::from_secs(WINDOW_SECS);

    // --- Train on original traffic. ------------------------------------------
    println!("training the SVM/NN/naive-Bayes adversary on original traffic …");
    let training = corpus(1, 3, 120.0);
    let train_set = build_dataset(&training, window, DEFAULT_MIN_PACKETS, FeatureMode::Full);
    println!(
        "  {} training windows, {} features each",
        train_set.len(),
        train_set.dim()
    );
    let adversary = AdversaryEnsemble::train(&train_set, &EnsembleConfig::default());

    // --- Evaluate against original traffic. ----------------------------------
    let evaluation = corpus(99, 2, 120.0);
    let eval_original = build_dataset(&evaluation, window, DEFAULT_MIN_PACKETS, FeatureMode::Full);
    let (best_name, original_matrix) = adversary.evaluate_best(&eval_original);
    println!(
        "\nwithout any defense ({} windows, best classifier: {best_name}):",
        eval_original.len()
    );
    print_per_app(&original_matrix);

    // --- Evaluate against OR-reshaped traffic. --------------------------------
    let mut eval_reshaped = Dataset::new(FEATURE_DIM);
    for trace in &evaluation {
        let mut reshaper =
            Reshaper::new(Box::new(OrthogonalRanges::new(SizeRanges::paper_default())));
        for sub in reshaper.reshape(trace).sub_traces() {
            for (features, label) in
                windowed_examples(sub, window, DEFAULT_MIN_PACKETS, FeatureMode::Full)
            {
                eval_reshaped.push(features.to_vec(), label);
            }
        }
    }
    let (best_name, reshaped_matrix) = adversary.evaluate_best(&eval_reshaped);
    println!(
        "\nwith Orthogonal Reshaping over 3 virtual interfaces ({} windows, best classifier: {best_name}):",
        eval_reshaped.len()
    );
    print_per_app(&reshaped_matrix);

    println!(
        "\nmean accuracy: {:.2}% without defense vs {:.2}% under traffic reshaping",
        original_matrix.mean_accuracy() * 100.0,
        reshaped_matrix.mean_accuracy() * 100.0
    );
}

fn print_per_app(matrix: &classifier::ConfusionMatrix) {
    for app in AppKind::ALL {
        println!(
            "  {:4} accuracy {:6.2}%   false positives {:6.2}%",
            app.abbrev(),
            matrix.class_accuracy(app.class_index()) * 100.0,
            matrix.false_positive_rate(app.class_index()) * 100.0
        );
    }
}
