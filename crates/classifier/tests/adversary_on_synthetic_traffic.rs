//! Integration test: the full adversary pipeline (windowing → features →
//! normalisation → SVM/NN ensemble) on the synthetic application corpus.
//!
//! These tests pin down the adversary's behaviour that the reproduction of
//! Tables II/III relies on: high accuracy on held-out original traffic, the
//! known downloading/video confusion, and robustness of the metrics.

use classifier::ensemble::{AdversaryEnsemble, EnsembleConfig};
use classifier::window::{build_dataset, FeatureMode, DEFAULT_MIN_PACKETS};
use traffic_gen::app::AppKind;
use traffic_gen::generator::SessionGenerator;
use traffic_gen::trace::Trace;
use wlan_sim::time::SimDuration;

fn corpus(seed: u64, sessions: usize, secs: f64) -> Vec<Trace> {
    AppKind::ALL
        .iter()
        .flat_map(|&app| SessionGenerator::new(app, seed).generate_sessions(sessions, secs))
        .collect()
}

#[test]
fn adversary_identifies_held_out_original_traffic() {
    let window = SimDuration::from_secs(5);
    let train = build_dataset(
        &corpus(1, 3, 90.0),
        window,
        DEFAULT_MIN_PACKETS,
        FeatureMode::Full,
    );
    let test = build_dataset(
        &corpus(2, 1, 90.0),
        window,
        DEFAULT_MIN_PACKETS,
        FeatureMode::Full,
    );
    assert!(train.len() > 100);
    assert!(test.len() > 30);

    let adversary = AdversaryEnsemble::train(&train, &EnsembleConfig::default());
    let (name, matrix) = adversary.evaluate_best(&test);
    assert!(["svm", "nn", "naive-bayes"].contains(&name));
    assert!(
        matrix.mean_accuracy() > 0.75,
        "adversary should identify most applications: mean accuracy {}",
        matrix.mean_accuracy()
    );
    // The classes that the paper reports as easiest stay easy here too.
    for app in [AppKind::Uploading, AppKind::Chatting] {
        assert!(
            matrix.class_accuracy(app.class_index()) > 0.7,
            "{app} accuracy {}",
            matrix.class_accuracy(app.class_index())
        );
    }
}

#[test]
fn misclassifications_mostly_stay_within_the_full_size_pair() {
    // Downloading and online video share the near-MTU size mode; when the
    // adversary errs on them it should confuse them with each other rather
    // than with small-packet applications.
    let window = SimDuration::from_secs(5);
    let train = build_dataset(
        &corpus(5, 3, 90.0),
        window,
        DEFAULT_MIN_PACKETS,
        FeatureMode::Full,
    );
    let test = build_dataset(
        &corpus(6, 1, 90.0),
        window,
        DEFAULT_MIN_PACKETS,
        FeatureMode::Full,
    );
    let adversary = AdversaryEnsemble::train(&train, &EnsembleConfig::default());
    let (_, matrix) = adversary.evaluate_best(&test);

    for app in [AppKind::Downloading, AppKind::Video] {
        let idx = app.class_index();
        let errors: u64 = (0..AppKind::COUNT)
            .filter(|&p| p != idx)
            .map(|p| matrix.count(idx, p))
            .sum();
        let to_small_apps: u64 = [AppKind::Chatting, AppKind::Uploading]
            .iter()
            .map(|a| matrix.count(idx, a.class_index()))
            .sum();
        assert!(
            to_small_apps * 2 <= errors.max(1),
            "{app}: errors should not flow to small-packet classes ({to_small_apps}/{errors})"
        );
    }
}

#[test]
fn timing_only_features_still_separate_rate_distinct_applications() {
    // Table VI's premise: even with all size features zeroed, packet counts and
    // inter-arrival statistics distinguish fast flows from slow ones.
    let window = SimDuration::from_secs(5);
    let train = build_dataset(
        &corpus(9, 3, 90.0),
        window,
        DEFAULT_MIN_PACKETS,
        FeatureMode::TimingOnly,
    );
    let test = build_dataset(
        &corpus(10, 1, 90.0),
        window,
        DEFAULT_MIN_PACKETS,
        FeatureMode::TimingOnly,
    );
    let adversary = AdversaryEnsemble::train(&train, &EnsembleConfig::default());
    let (_, matrix) = adversary.evaluate_best(&test);
    assert!(
        matrix.mean_accuracy() > 0.6,
        "timing features alone should still identify most applications, got {}",
        matrix.mean_accuracy()
    );
    // Chatting (seconds between packets) vs downloading (milliseconds) must be separable.
    assert!(matrix.class_accuracy(AppKind::Chatting.class_index()) > 0.6);
    assert!(matrix.class_accuracy(AppKind::Downloading.class_index()) > 0.4);
}
