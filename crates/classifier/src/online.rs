//! The streaming adversary: incremental learning and prequential evaluation.
//!
//! The paper's threat model is an eavesdropper observing MAC-layer traffic
//! *live*. The batch [`AdversaryEnsemble`](crate::ensemble::AdversaryEnsemble)
//! models the strongest version of that adversary — trained offline on a
//! materialised dataset — while this module models the *online* one, closing
//! the streaming loop the rest of the pipeline already runs:
//!
//! * [`OnlineAdversary`] — the incremental counterpart of the ensemble: a
//!   [`RunningNormalizer`] (statistics evolve with the stream) in front of
//!   one [`OnlineClassifier`] per member (SVM, NN and optionally naive
//!   Bayes), all learning one [`WindowExample`] at a time.
//! * [`PrequentialEvaluator`] — the standard online-learning protocol:
//!   **test, then train**. Every example is first classified with the model
//!   as it stands (counted into a live majority-vote [`ConfusionMatrix`]
//!   and an accuracy timeline), and only then used for learning. The
//!   timeline is what exposes concept drift: splice a defense into the
//!   session and the curve drops.
//!
//! The packet-facing driver is the station runner (`bench::streaming`): its
//! per-sub-flow [`FlowWindowers`](crate::stream::FlowWindowers) hand every
//! closed window to [`PrequentialEvaluator::absorb`], so the adversary learns
//! and scores as the windows close — no dataset, no second pass,
//! O(flows + models) state.

use crate::dataset::RunningNormalizer;
use crate::ensemble::{short_circuit_vote, EnsembleConfig};
use crate::kernel;
use crate::metrics::ConfusionMatrix;
use crate::nn::NeuralNet;
use crate::stream::WindowExample;
use crate::svm::LinearSvm;
use crate::{bayes::GaussianNaiveBayes, OnlineClassifier};

/// The incremental adversary: a running normalizer plus one online classifier
/// per ensemble member.
///
/// Clone a trained (or warm-started) adversary to fork it — e.g. one
/// independent copy per station in a multi-station scenario.
#[derive(Debug, Clone)]
pub struct OnlineAdversary {
    normalizer: RunningNormalizer,
    members: Vec<Box<dyn OnlineClassifier>>,
    classes: usize,
    examples_seen: u64,
    /// Reused buffers for the `partial_fit` hot loop (stateless between
    /// calls; cloning an adversary clones only their capacity).
    fit_normalized: Vec<f64>,
    fit_kernel: kernel::Scratch,
}

impl OnlineAdversary {
    /// Creates an untrained online adversary for `dim`-dimensional features
    /// over `classes` classes, with the same member line-up and seeding rule
    /// as the batch ensemble.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is zero.
    pub fn new(dim: usize, classes: usize, config: &EnsembleConfig) -> Self {
        assert!(classes > 0, "the adversary needs at least one class");
        let mut members: Vec<Box<dyn OnlineClassifier>> = Vec::new();
        members.push(Box::new(LinearSvm::new(dim, classes, &config.svm)));
        members.push(Box::new(NeuralNet::new(
            dim,
            classes,
            &config.nn,
            config.seed ^ 0x55,
        )));
        if config.include_bayes {
            members.push(Box::new(GaussianNaiveBayes::new(dim, classes)));
        }
        OnlineAdversary {
            normalizer: RunningNormalizer::new(dim),
            members,
            classes,
            examples_seen: 0,
            fit_normalized: Vec::new(),
            fit_kernel: kernel::Scratch::new(),
        }
    }

    /// The number of classes the adversary distinguishes.
    pub fn class_count(&self) -> usize {
        self.classes
    }

    /// Examples absorbed so far.
    pub fn examples_seen(&self) -> u64 {
        self.examples_seen
    }

    /// Absorbs one labelled example: the normalizer observes the raw
    /// features first, then every member takes one incremental step on the
    /// freshly-normalised vector. Buffer reuse keeps the loop
    /// allocation-free in steady state.
    pub fn partial_fit(&mut self, features: &[f64], label: usize) {
        let OnlineAdversary {
            normalizer,
            members,
            fit_normalized,
            fit_kernel,
            ..
        } = self;
        normalizer.observe(features);
        fit_normalized.clear();
        normalizer.transform_into(features, fit_normalized);
        for member in members.iter_mut() {
            member.partial_fit_with(fit_normalized, label, fit_kernel);
        }
        self.examples_seen += 1;
    }

    /// The majority vote for one feature vector, normalised once into
    /// `normalized` with the current running statistics. The vote is the
    /// frozen ensemble's rule ([`short_circuit_vote`]): naive Bayes, when
    /// present, predicts only when the SVM and the NN disagree.
    fn predict_majority(&self, features: &[f64], normalized: &mut Vec<f64>) -> usize {
        normalized.clear();
        self.normalizer.transform_into(features, normalized);
        let [svm, nn, rest @ ..] = self.members.as_slice() else {
            unreachable!("the adversary always has an SVM and an NN");
        };
        let arbiter = rest.first().map(|bayes| || bayes.predict(normalized));
        short_circuit_vote(
            svm.predict(normalized),
            nn.predict(normalized),
            arbiter,
            self.classes,
        )
    }
}

/// One point of a prequential accuracy timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrequentialPoint {
    /// Cumulative examples scored when the snapshot was taken.
    pub examples: u64,
    /// Cumulative majority-vote prequential accuracy at that point.
    pub accuracy: f64,
}

/// Prequential counts since the last [`PrequentialEvaluator::take_segment`]
/// call — the building block of before/after comparisons (e.g. around a
/// mid-session defense splice).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SegmentStats {
    /// Examples scored in the segment.
    pub total: u64,
    /// Majority-vote hits in the segment.
    pub majority_correct: u64,
}

/// Test-then-train evaluation of an [`OnlineAdversary`].
///
/// Every example is scored against the model *before* the model learns from
/// it, so the cumulative confusion matrices measure honest out-of-sample
/// performance over the whole stream, and the [`timeline`](Self::timeline)
/// tracks how that accuracy evolves — flat stream, convergence; mid-stream
/// defense splice, a visible drop.
#[derive(Debug, Clone)]
pub struct PrequentialEvaluator {
    adversary: OnlineAdversary,
    majority: ConfusionMatrix,
    timeline: Vec<PrequentialPoint>,
    snapshot_every: u64,
    segment: SegmentStats,
    correct: u64,
    scored: u64,
    /// Reused per-example buffer of normalised features.
    normalized: Vec<f64>,
}

impl PrequentialEvaluator {
    /// Wraps an adversary, snapshotting the cumulative accuracy onto the
    /// timeline every `snapshot_every` examples (clamped to at least 1).
    pub fn new(adversary: OnlineAdversary, snapshot_every: u64) -> Self {
        let classes = adversary.class_count();
        PrequentialEvaluator {
            adversary,
            majority: ConfusionMatrix::new(classes),
            timeline: Vec::new(),
            snapshot_every: snapshot_every.max(1),
            segment: SegmentStats::default(),
            correct: 0,
            scored: 0,
            normalized: Vec::new(),
        }
    }

    /// Scores one labelled example with the current model, then trains on
    /// it. Returns the majority-vote prediction.
    ///
    /// # Panics
    ///
    /// Panics if `label` is out of range for the adversary's class count.
    pub fn test_then_train(&mut self, features: &[f64], label: usize) -> usize {
        let Self {
            adversary,
            majority,
            timeline,
            snapshot_every,
            segment,
            correct,
            scored,
            normalized,
        } = &mut *self;
        let predicted = adversary.predict_majority(features, normalized);
        majority.record(label, predicted);
        *scored += 1;
        segment.total += 1;
        if predicted == label {
            *correct += 1;
            segment.majority_correct += 1;
        }
        if scored.is_multiple_of(*snapshot_every) {
            timeline.push(PrequentialPoint {
                examples: *scored,
                accuracy: *correct as f64 / *scored as f64,
            });
        }
        adversary.partial_fit(features, label);
        predicted
    }

    /// Scores and trains on one [`WindowExample`].
    pub fn absorb(&mut self, example: &WindowExample) -> usize {
        self.test_then_train(&example.0, example.1)
    }

    /// Examples scored so far.
    pub fn examples(&self) -> u64 {
        self.scored
    }

    /// Cumulative majority-vote prequential accuracy (0 when empty).
    pub fn accuracy(&self) -> f64 {
        if self.scored == 0 {
            0.0
        } else {
            self.correct as f64 / self.scored as f64
        }
    }

    /// The live cumulative majority-vote confusion matrix.
    pub fn matrix(&self) -> &ConfusionMatrix {
        &self.majority
    }

    /// The accuracy timeline recorded so far.
    pub fn timeline(&self) -> &[PrequentialPoint] {
        &self.timeline
    }

    /// Returns the prequential counts accumulated since the previous call
    /// (or since construction) and starts a fresh segment.
    pub fn take_segment(&mut self) -> SegmentStats {
        std::mem::take(&mut self.segment)
    }

    /// Unwraps the (now trained) adversary.
    pub fn into_adversary(self) -> OnlineAdversary {
        self.adversary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blob_stream(seed: u64, n_per_class: usize) -> Vec<(Vec<f64>, usize)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers = [[0.0, 0.0, 0.0], [8.0, 0.0, 4.0], [0.0, 8.0, -4.0]];
        let mut examples = Vec::new();
        // Interleave classes so the stream does not arrive sorted by label.
        for _ in 0..n_per_class {
            for (label, c) in centers.iter().enumerate() {
                let f: Vec<f64> = c.iter().map(|m| m + rng.gen_range(-1.0..1.0)).collect();
                examples.push((f, label));
            }
        }
        examples
    }

    #[test]
    fn online_adversary_learns_blobs_incrementally() {
        let mut adversary = OnlineAdversary::new(3, 3, &EnsembleConfig::default());
        assert_eq!(adversary.class_count(), 3);
        let names: Vec<_> = adversary.members.iter().map(|m| m.name()).collect();
        assert_eq!(names, ["svm", "nn", "naive-bayes"]);
        for (f, l) in blob_stream(1, 100) {
            adversary.partial_fit(&f, l);
        }
        assert_eq!(adversary.examples_seen(), 300);
        // Score through the production vote (what `test_then_train` does
        // per window).
        let test = blob_stream(2, 30);
        let mut normalized = Vec::new();
        let correct = test
            .iter()
            .filter(|(f, l)| adversary.predict_majority(f, &mut normalized) == *l)
            .count();
        assert!(
            correct as f64 / test.len() as f64 > 0.9,
            "online accuracy {}",
            correct as f64 / test.len() as f64
        );
    }

    #[test]
    fn prequential_accuracy_converges_on_a_stationary_stream() {
        let adversary = OnlineAdversary::new(3, 3, &EnsembleConfig::default());
        let mut evaluator = PrequentialEvaluator::new(adversary, 30);
        for (f, l) in blob_stream(3, 120) {
            evaluator.test_then_train(&f, l);
        }
        assert_eq!(evaluator.examples(), 360);
        assert_eq!(evaluator.matrix().total(), 360);
        // The timeline was snapshotted every 30 examples.
        assert_eq!(evaluator.timeline().len(), 12);
        // Later accuracy beats the cold-start prefix.
        let first = evaluator.timeline().first().expect("non-empty").accuracy;
        let last = evaluator.timeline().last().expect("non-empty").accuracy;
        assert!(
            last > first,
            "prequential accuracy should improve: {first} -> {last}"
        );
        assert!(last > 0.8, "converged accuracy {last}");
    }

    #[test]
    fn segments_split_the_stream_without_losing_counts() {
        let adversary = OnlineAdversary::new(3, 3, &EnsembleConfig::default());
        let mut evaluator = PrequentialEvaluator::new(adversary, 1000);
        let stream = blob_stream(5, 60);
        let (a, b) = stream.split_at(90);
        for (f, l) in a {
            evaluator.test_then_train(f, *l);
        }
        let first = evaluator.take_segment();
        for (f, l) in b {
            evaluator.test_then_train(f, *l);
        }
        let second = evaluator.take_segment();
        assert_eq!(first.total, 90);
        assert_eq!(second.total, 90);
        assert_eq!(
            first.majority_correct + second.majority_correct,
            (evaluator.accuracy() * 180.0).round() as u64
        );
        // The warmed-up second segment (of equal length) is at least as accurate.
        assert!(second.majority_correct >= first.majority_correct);
    }
}
