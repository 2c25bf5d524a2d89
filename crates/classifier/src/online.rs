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
//!   the SVM, the NN and naive Bayes, held as concrete members
//!   like the ensemble's, all learning one [`WindowExample`] at a time. Its
//!   per-window buffers live on the stack, so a clone (a per-station fork)
//!   copies model state only.
//! * [`PrequentialEvaluator`] — the standard online-learning protocol:
//!   **test, then train**. Every example is first classified with the model
//!   as it stands (counted into per-phase [`SegmentStats`] and an accuracy
//!   timeline), and only then used for learning. The
//!   timeline is what exposes concept drift: splice a defense into the
//!   session and the curve drops.
//!
//! The vote asks the SVM and naive Bayes first and the NN only when those
//! two disagree: two agreeing votes out of three are already the majority,
//! so the NN can change a vote only there (on about one window in ten of
//! the churn population).
//!
//! Training is **deferred** to the moment it can be observed. The running
//! normaliser, the SVM and naive Bayes learn from window k just before
//! window k+1 is tested (or when [`PrequentialEvaluator::into_adversary`]
//! hands the model out). The NN's step for window k waits longer, in a
//! buffer of at most 16 normalised rows: the NN takes its waiting steps, in
//! order, when the buffer is full, before it is next asked, and in
//! `into_adversary`. Every prediction is the one an eager test-then-train
//! loop makes, and a fork dropped at station retirement skips every step
//! nothing would ever read: its last window's, and the NN's steps after
//! its last NN prediction.
//!
//! The packet-facing driver is the station runner (`bench::streaming`): its
//! per-sub-flow [`FlowWindowers`](crate::stream::FlowWindowers) hand every
//! closed window to [`PrequentialEvaluator::absorb`], so the adversary learns
//! and scores as the windows close — no dataset, no second pass,
//! O(flows + models) state.

use crate::bayes::GaussianNaiveBayes;
use crate::dataset::RunningNormalizer;
use crate::ensemble::{short_circuit_vote, EnsembleConfig};
use crate::nn::{NeuralNet, STACK_HIDDEN};
use crate::stream::WindowExample;
use crate::svm::LinearSvm;
use crate::{Classifier, OnlineClassifier};

/// The most NN training steps a [`PrequentialEvaluator`] holds back: the
/// bound of its row buffer (16 rows of 18 features are 2.3 KB).
const NN_STEPS: usize = 16;

/// The incremental adversary: a running normalizer plus the online SVM, NN
/// and naive Bayes.
///
/// Clone a trained (or warm-started) adversary to fork it — e.g. one
/// independent copy per station in a multi-station scenario.
#[derive(Debug, Clone)]
pub struct OnlineAdversary {
    normalizer: RunningNormalizer,
    svm: LinearSvm,
    nn: NeuralNet,
    bayes: GaussianNaiveBayes,
    classes: usize,
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
        OnlineAdversary {
            normalizer: RunningNormalizer::new(dim),
            svm: LinearSvm::new(dim, classes, &config.svm),
            nn: NeuralNet::new(dim, classes, &config.nn, config.seed ^ 0x55),
            bayes: GaussianNaiveBayes::new(dim, classes),
            classes,
        }
    }

    /// One labelled example's training step, all but the NN's: the
    /// normalizer observes the raw features first, then the SVM and naive
    /// Bayes take one incremental step on the freshly normalised vector.
    /// Returns that vector, written into `stack` (or `heap` past
    /// [`STACK_HIDDEN`] columns), for the NN's step.
    fn fit_all_but_nn<'a>(
        &mut self,
        features: &[f64],
        label: usize,
        stack: &'a mut [f64; STACK_HIDDEN],
        heap: &'a mut Vec<f64>,
    ) -> &'a [f64] {
        self.normalizer.observe(features);
        let x = self
            .normalizer
            .scale()
            .transform_onto(features, stack, heap);
        self.svm.partial_fit(x, label);
        self.bayes.partial_fit(x, label);
        x
    }

    /// The majority vote for one feature vector, normalised onto the stack
    /// with the current running statistics. The vote is the frozen
    /// ensemble's rule ([`short_circuit_vote`]) with the SVM and naive Bayes
    /// asked first: the NN is asked, after `catch_up` has brought it up to
    /// date, only when they disagree. For votes in range that rule is
    /// symmetric in its second and third member, so the vote is the
    /// majority of all three.
    fn vote(&mut self, features: &[f64], catch_up: impl FnOnce(&mut NeuralNet)) -> usize {
        let (mut stack, mut heap) = ([0.0; STACK_HIDDEN], Vec::new());
        let x: &[f64] = self
            .normalizer
            .scale()
            .transform_onto(features, &mut stack, &mut heap);
        let svm = self.svm.predict(x);
        let nn = &mut self.nn;
        let ask_nn = || {
            catch_up(nn);
            nn.predict(x)
        };
        short_circuit_vote(svm, self.bayes.predict(x), ask_nn, self.classes)
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

/// The training a [`PrequentialEvaluator`] has not done yet, in one buffer
/// reused from window to window: the normalised rows of the NN steps not
/// yet taken, in order, then the raw features of the example scored last,
/// which nothing has learnt yet.
#[derive(Debug, Clone, Default)]
struct Deferred {
    rows: Vec<f64>,
    /// The label and the end in `rows` of each NN step not yet taken.
    nn_steps: [(usize, usize); NN_STEPS],
    /// How many of `nn_steps` are waiting.
    nn_waiting: usize,
    /// The raw example's label; `None` when there is none.
    label: Option<usize>,
}

impl Deferred {
    /// Holds a scored example back for its training step.
    fn hold(&mut self, features: &[f64], label: usize) {
        debug_assert!(self.label.is_none(), "an example is already held");
        // The one allocation: the buffer peaks at `NN_STEPS` rows this wide.
        if self.rows.capacity() == 0 {
            self.rows.reserve_exact(NN_STEPS * features.len());
        }
        self.rows.extend_from_slice(features);
        self.label = Some(label);
    }

    /// The held example's training step: every member but the NN learns
    /// now, and the NN's step joins the waiting ones. When `NN_STEPS` are
    /// waiting, the NN takes them.
    fn learn_held(&mut self, adversary: &mut OnlineAdversary) {
        let Some(label) = self.label.take() else {
            return;
        };
        let start = self.nn_rows_end();
        let (mut stack, mut heap) = ([0.0; STACK_HIDDEN], Vec::new());
        let x = adversary.fit_all_but_nn(&self.rows[start..], label, &mut stack, &mut heap);
        self.rows.truncate(start);
        self.rows.extend_from_slice(x);
        self.nn_steps[self.nn_waiting] = (label, self.rows.len());
        self.nn_waiting += 1;
        if self.nn_waiting == NN_STEPS {
            self.train_nn(&mut adversary.nn);
        }
    }

    /// The NN takes its waiting steps, in order.
    fn train_nn(&mut self, nn: &mut NeuralNet) {
        let mut start = 0;
        for &(label, end) in &self.nn_steps[..self.nn_waiting] {
            nn.partial_fit(&self.rows[start..end], label);
            start = end;
        }
        // Only ever called between `learn_held` and `hold`.
        debug_assert!(self.label.is_none(), "the held example would be lost");
        self.rows.clear();
        self.nn_waiting = 0;
    }

    fn nn_rows_end(&self) -> usize {
        self.nn_steps[..self.nn_waiting]
            .last()
            .map_or(0, |&(_, end)| end)
    }
}

/// Test-then-train evaluation of an [`OnlineAdversary`].
///
/// Every example is scored against the model *before* the model learns from
/// it, so the segment counts measure honest out-of-sample performance over
/// the whole stream, and the [`timeline`](Self::timeline)
/// tracks how that accuracy evolves — flat stream, convergence; mid-stream
/// defense splice, a visible drop.
///
/// Each window is voted on by the SVM and naive Bayes first; the NN is
/// asked only when they disagree. The last
/// example scored is kept **pending**: the normaliser, the SVM and naive
/// Bayes learn from it at the next [`test_then_train`](Self::test_then_train),
/// just before the next test, or in [`into_adversary`](Self::into_adversary).
/// Its NN step then waits with the others, at most 16, until the buffer is
/// full, the NN is asked, or `into_adversary` runs. An evaluator dropped
/// without either never pays for the steps it held back.
#[derive(Debug, Clone)]
pub struct PrequentialEvaluator {
    adversary: OnlineAdversary,
    timeline: Vec<PrequentialPoint>,
    snapshot_every: u64,
    segment: SegmentStats,
    correct: u64,
    scored: u64,
    deferred: Deferred,
}

impl PrequentialEvaluator {
    /// Wraps an adversary, snapshotting the cumulative accuracy onto the
    /// timeline every `snapshot_every` examples (clamped to at least 1).
    pub fn new(adversary: OnlineAdversary, snapshot_every: u64) -> Self {
        PrequentialEvaluator {
            adversary,
            timeline: Vec::new(),
            snapshot_every: snapshot_every.max(1),
            segment: SegmentStats::default(),
            correct: 0,
            scored: 0,
            deferred: Deferred::default(),
        }
    }

    /// Scores one labelled example with the current model, then trains on
    /// it. Returns the majority-vote prediction.
    ///
    /// The model first learns from the previous example, which is the last
    /// moment that step can wait for: window k is learnt just before window
    /// k+1 is tested, except for the NN's step, which waits until the NN is
    /// asked. This example becomes the pending one, so each prediction
    /// equals an eager test-then-train loop's.
    ///
    /// # Panics
    ///
    /// Panics if `label` is out of range for the adversary's class count.
    pub fn test_then_train(&mut self, features: &[f64], label: usize) -> usize {
        self.deferred.learn_held(&mut self.adversary);
        let deferred = &mut self.deferred;
        let predicted = self.adversary.vote(features, |nn| deferred.train_nn(nn));
        self.scored += 1;
        self.segment.total += 1;
        if predicted == label {
            self.correct += 1;
            self.segment.majority_correct += 1;
        }
        if self.scored.is_multiple_of(self.snapshot_every) {
            self.timeline.push(PrequentialPoint {
                examples: self.scored,
                accuracy: self.correct as f64 / self.scored as f64,
            });
        }
        self.deferred.hold(features, label);
        predicted
    }

    /// Scores and trains on one [`WindowExample`].
    pub fn absorb(&mut self, example: &WindowExample) -> usize {
        self.test_then_train(&example.0, example.1)
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

    /// Unwraps the adversary, trained on every example scored: the pending
    /// example is learnt first, then the NN takes every step it holds back.
    pub fn into_adversary(mut self) -> OnlineAdversary {
        self.deferred.learn_held(&mut self.adversary);
        self.deferred.train_nn(&mut self.adversary.nn);
        self.adversary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::majority_vote;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The eager reference of the evaluator's deferred steps and reordered
    /// vote.
    impl OnlineAdversary {
        /// One whole training step at once.
        fn partial_fit(&mut self, features: &[f64], label: usize) {
            let (mut stack, mut heap) = ([0.0; STACK_HIDDEN], Vec::new());
            let x = self.fit_all_but_nn(features, label, &mut stack, &mut heap);
            self.nn.partial_fit(x, label);
        }

        /// The majority vote of every member, each asked.
        fn predict_majority(&self, features: &[f64]) -> usize {
            let x = self.normalizer.scale().apply(features);
            let votes =
                [&self.svm as &dyn Classifier, &self.nn, &self.bayes].map(|c| c.predict(&x));
            majority_vote(&votes, self.classes)
        }
    }

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
        assert_eq!(
            [
                adversary.svm.name(),
                adversary.nn.name(),
                adversary.bayes.name()
            ],
            ["svm", "nn", "naive-bayes"]
        );
        for (f, l) in blob_stream(1, 100) {
            adversary.partial_fit(&f, l);
        }
        assert_eq!(adversary.svm.examples_seen(), 300);
        // Score through the production vote (what `test_then_train` does
        // per window); the NN has no step to catch up on.
        let test = blob_stream(2, 30);
        let correct = test
            .iter()
            .filter(|(f, l)| adversary.vote(f, |_| {}) == *l)
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
        assert_eq!(evaluator.take_segment().total, 360);
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

    /// Test-then-train done eagerly: every example is scored, recorded and
    /// learnt at once. The reference the deferred evaluator must reproduce.
    struct EagerEvaluator {
        adversary: OnlineAdversary,
        timeline: Vec<PrequentialPoint>,
        segment: SegmentStats,
        snapshot_every: u64,
        correct: u64,
        scored: u64,
    }

    impl EagerEvaluator {
        fn test_then_train(&mut self, features: &[f64], label: usize) -> usize {
            let predicted = self.adversary.predict_majority(features);
            self.scored += 1;
            self.segment.total += 1;
            if predicted == label {
                self.correct += 1;
                self.segment.majority_correct += 1;
            }
            if self.scored.is_multiple_of(self.snapshot_every) {
                self.timeline.push(PrequentialPoint {
                    examples: self.scored,
                    accuracy: self.correct as f64 / self.scored as f64,
                });
            }
            self.adversary.partial_fit(features, label);
            predicted
        }
    }

    #[test]
    fn deferred_training_predicts_like_an_eager_loop() {
        let mut rng = StdRng::seed_from_u64(41);
        // Calls that filled the NN's buffer to its bound, and hand-outs
        // that found NN steps still waiting: both paths must be exercised.
        let (mut full_buffers, mut waiting_at_hand_out) = (0, 0);
        for case in 0..40u64 {
            let snapshot_every = 1 + case % 5;
            let dim = rng.gen_range(1..6);
            let classes = rng.gen_range(2..7);
            // Labels come from the first `seen` classes only, so the
            // classes above them are never seen and the ones below appear
            // for the first time at random points of the stream.
            let seen = rng.gen_range(1..=classes);
            let config = EnsembleConfig {
                seed: case,
                ..EnsembleConfig::default()
            };
            let base = OnlineAdversary::new(dim, classes, &config);
            let mut eager = EagerEvaluator {
                adversary: base.clone(),
                timeline: Vec::new(),
                segment: SegmentStats::default(),
                snapshot_every,
                correct: 0,
                scored: 0,
            };
            let mut deferred = PrequentialEvaluator::new(base, snapshot_every);
            let example = |rng: &mut StdRng| {
                let label = rng.gen_range(0..seen);
                let features: Vec<f64> = (0..dim)
                    .map(|j| rng.gen_range(-2.0..2.0) + if j == label % dim { 3.0 } else { 0.0 })
                    .collect();
                (features, label)
            };
            // Streams shorter and longer than the NN's buffer.
            for i in 0..rng.gen_range(1..8 * NN_STEPS) {
                let (features, label) = example(&mut rng);
                let held = &deferred.deferred;
                full_buffers +=
                    usize::from(held.label.is_some() && held.nn_waiting == NN_STEPS - 1);
                assert_eq!(
                    deferred.test_then_train(&features, label),
                    eager.test_then_train(&features, label),
                    "case {case}, example {i}"
                );
                if rng.gen_bool(0.1) {
                    assert_eq!(deferred.take_segment(), std::mem::take(&mut eager.segment));
                }
            }
            assert_eq!(
                deferred.timeline(),
                eager.timeline.as_slice(),
                "case {case}"
            );
            assert_eq!(deferred.take_segment(), eager.segment, "case {case}");
            waiting_at_hand_out += usize::from(deferred.deferred.nn_waiting > 0);
            let trained = deferred.into_adversary();
            assert_eq!(trained.svm, eager.adversary.svm, "case {case}");
            assert_eq!(trained.nn, eager.adversary.nn, "case {case}");
            assert_eq!(trained.bayes, eager.adversary.bayes, "case {case}");
            for _ in 0..20 {
                let (probe, _) = example(&mut rng);
                assert_eq!(
                    trained.predict_majority(&probe),
                    eager.adversary.predict_majority(&probe),
                    "case {case}: probe {probe:?}"
                );
            }
        }
        assert!(full_buffers > 0, "no stream filled the NN's buffer");
        assert!(
            waiting_at_hand_out > 0,
            "no hand-out found NN steps waiting"
        );
    }

    #[test]
    fn segments_split_the_stream_without_losing_counts() {
        let adversary = OnlineAdversary::new(3, 3, &EnsembleConfig::default());
        let mut evaluator = PrequentialEvaluator::new(adversary, 1000);
        let stream = blob_stream(5, 60);
        let (a, b) = stream.split_at(90);
        let mut correct = 0;
        for (f, l) in a {
            correct += u64::from(evaluator.test_then_train(f, *l) == *l);
        }
        let first = evaluator.take_segment();
        for (f, l) in b {
            correct += u64::from(evaluator.test_then_train(f, *l) == *l);
        }
        let second = evaluator.take_segment();
        assert_eq!(first.total, 90);
        assert_eq!(second.total, 90);
        assert_eq!(first.majority_correct + second.majority_correct, correct);
        // The warmed-up second segment (of equal length) is at least as accurate.
        assert!(second.majority_correct >= first.majority_correct);
    }
}
