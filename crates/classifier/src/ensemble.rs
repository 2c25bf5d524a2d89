//! The adversary the paper reports: the best of its members.
//!
//! §IV-C: *"We present the highest classification accuracy based on these
//! features."* The paper names an SVM and a neural network;
//! [`AdversaryEnsemble`] trains those two and Gaussian naive Bayes, always
//! all three, normalises features with statistics fitted on the training set
//! only, and reports per evaluation set whichever member scores the highest
//! mean accuracy ([`AdversaryEnsemble::best_of`]), naive Bayes included.
//!
//! The eavesdropper labels every window it captures by the members' majority
//! vote ([`AdversaryEnsemble::predict_majority`]), in which naive Bayes
//! settles every window the SVM and the NN disagree on. Training ends by
//! packing the frozen members into an inference plan — the SVM's and the
//! NN's weights in lane panels ([`kernel::pack_panels`]), naive Bayes's log
//! priors as constants — so each window is voted on with no heap use and
//! bit-identically to the members' own `predict`.

use crate::bayes::GaussianNaiveBayes;
use crate::dataset::{Dataset, Normalizer};
use crate::kernel;
use crate::metrics::ConfusionMatrix;
use crate::nn::{self, NeuralNet, NnConfig, STACK_HIDDEN};
use crate::svm::{self, LinearSvm, SvmConfig};
use crate::Classifier;

/// Training configuration for the ensemble.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnsembleConfig {
    /// SVM hyper-parameters.
    pub svm: SvmConfig,
    /// Neural-network hyper-parameters.
    pub nn: NnConfig,
    /// Seed for the stochastic trainers.
    pub seed: u64,
}

impl Default for EnsembleConfig {
    fn default() -> Self {
        EnsembleConfig {
            svm: SvmConfig::default(),
            nn: NnConfig::default(),
            seed: 0xC1A5_51F1,
        }
    }
}

/// The trained adversary: a normaliser, the SVM, the NN and naive Bayes,
/// and the inference plan its majority vote runs on.
#[derive(Debug)]
pub struct AdversaryEnsemble {
    normalizer: Normalizer,
    svm: LinearSvm,
    nn: NeuralNet,
    bayes: GaussianNaiveBayes,
    class_count: usize,
    plan: InferencePlan,
}

/// What the frozen vote reads per window, derived once from the trained
/// members: the SVM's decision layer and both NN layers packed into lane
/// panels ([`kernel::pack_panels`]), and the naive-Bayes log priors, which
/// never move once the model is frozen.
#[derive(Debug)]
struct InferencePlan {
    svm: PanelLayer,
    hidden: PanelLayer,
    logits: PanelLayer,
    bayes_log_priors: Vec<f64>,
}

/// One linear layer in lane panels.
#[derive(Debug)]
struct PanelLayer {
    panels: Vec<f64>,
    biases: Vec<f64>,
    w_dim: usize,
}

impl PanelLayer {
    /// Packs a `(row-major weights, biases, row width)` layer.
    fn pack((weights, biases, w_dim): (&[f64], &[f64], usize)) -> Self {
        PanelLayer {
            panels: kernel::pack_panels(weights, biases.len(), w_dim),
            biases: biases.to_vec(),
            w_dim,
        }
    }

    /// `out = W x + b`, bit-identical to the member's row-major kernel.
    fn apply(&self, x: &[f64], out: &mut [f64]) {
        kernel::matvec_panels(&self.panels, &self.biases, x, self.w_dim, out);
    }

    fn rows(&self) -> usize {
        self.biases.len()
    }
}

impl AdversaryEnsemble {
    /// Trains the ensemble on a labelled training set and builds its
    /// inference plan.
    ///
    /// # Panics
    ///
    /// Panics if the training set is empty.
    pub fn train(training: &Dataset, config: &EnsembleConfig) -> Self {
        assert!(
            !training.is_empty(),
            "cannot train the adversary on an empty dataset"
        );
        let normalizer = training.fit_normalizer();
        let normalized = training.normalized(&normalizer);
        // The three members are seeded independently (SVM from `seed`, NN
        // from `seed ^ 0x55` with its own rng, Bayes deterministic), so they
        // train concurrently on scoped threads with the same result as one
        // after another. The SVM and NN train on spawned threads while Bayes
        // runs on the caller's; joins happen in the fixed member order.
        let (svm, nn, bayes) = std::thread::scope(|s| {
            let svm = s.spawn(|| LinearSvm::train(&normalized, &config.svm, config.seed));
            let nn = s.spawn(|| NeuralNet::train(&normalized, &config.nn, config.seed ^ 0x55));
            let bayes = GaussianNaiveBayes::train(&normalized);
            (
                svm.join().expect("the SVM trainer panicked"),
                nn.join().expect("the NN trainer panicked"),
                bayes,
            )
        });
        let [hidden, logits] = nn.layers().map(PanelLayer::pack);
        let plan = InferencePlan {
            svm: PanelLayer::pack(svm.layer()),
            hidden,
            logits,
            bayes_log_priors: bayes.log_priors(),
        };
        AdversaryEnsemble {
            normalizer,
            svm,
            nn,
            bayes,
            class_count: training.class_count(),
            plan,
        }
    }

    /// The members in vote order: SVM, NN, naive Bayes.
    fn members(&self) -> [&dyn Classifier; 3] {
        [&self.svm, &self.nn, &self.bayes]
    }

    /// Evaluates one member classifier on an evaluation set, returning its
    /// confusion matrix.
    fn evaluate_member(&self, member: &dyn Classifier, eval: &Dataset) -> ConfusionMatrix {
        let mut matrix = ConfusionMatrix::new(self.class_count.max(eval.class_count()));
        let mut features = Vec::new();
        for ex in eval.examples() {
            features.clear();
            self.normalizer.transform_into(&ex.features, &mut features);
            matrix.record(ex.label, member.predict(&features));
        }
        matrix
    }

    /// Evaluates every member and returns `(name, confusion matrix)` pairs.
    pub fn evaluate_all(&self, eval: &Dataset) -> Vec<(&'static str, ConfusionMatrix)> {
        self.members()
            .into_iter()
            .map(|c| (c.name(), self.evaluate_member(c, eval)))
            .collect()
    }

    /// Evaluates the ensemble the way the paper reports results: the member
    /// with the highest *mean accuracy* on the evaluation set is selected and
    /// its confusion matrix returned together with its name.
    ///
    /// Runs every member exactly once ([`evaluate_all`](Self::evaluate_all))
    /// and selects with [`best_of`](Self::best_of); callers that already hold
    /// `evaluate_all` results should call `best_of` directly instead of
    /// re-running the evaluations.
    pub fn evaluate_best(&self, eval: &Dataset) -> (&'static str, ConfusionMatrix) {
        Self::best_of(self.evaluate_all(eval))
    }

    /// Selects the best member from **cached** `(name, confusion matrix)`
    /// evaluation results: highest mean accuracy, with exact ties broken
    /// deterministically in favour of the lexicographically smallest member
    /// name (so "naive-bayes" beats "nn" beats "svm" at equal accuracy,
    /// regardless of training order).
    ///
    /// # Panics
    ///
    /// Panics if `results` is empty.
    pub fn best_of(
        results: Vec<(&'static str, ConfusionMatrix)>,
    ) -> (&'static str, ConfusionMatrix) {
        results
            .into_iter()
            .max_by(|(name_a, a), (name_b, b)| {
                a.mean_accuracy()
                    .partial_cmp(&b.mean_accuracy())
                    .expect("accuracies are finite")
                    // On an exact accuracy tie the *smaller* name must rank
                    // higher, hence the reversed comparison.
                    .then_with(|| name_b.cmp(name_a))
            })
            .expect("ensemble has at least one classifier")
    }

    /// The majority vote of the members on one raw feature vector (ties
    /// broken in favour of the SVM), scored through the inference plan with
    /// no heap use for layers up to 64 wide (`STACK_HIDDEN`):
    ///
    /// 1. normalise the features into a stack buffer;
    /// 2. the SVM's vote: the argmax of its panel decision values;
    /// 3. the NN's vote: layer-1 panels, ReLU, layer-2 panels, argmax of the
    ///    logits (softmax is monotonic, so it is skipped as in
    ///    [`NeuralNet`]'s `predict`);
    /// 4. `short_circuit_vote`: naive Bayes, with the plan's log priors,
    ///    runs only when the SVM and the NN disagree.
    ///
    /// Every step reproduces the member's own `predict` bit for bit, so the
    /// vote equals [`majority_vote`] over every member's prediction on
    /// [`Normalizer::apply`]'s output.
    pub fn predict_majority(&self, features: &[f64]) -> usize {
        let plan = &self.plan;
        let mut stacks = [[0.0; STACK_HIDDEN]; 3];
        let mut heaps: [Vec<f64>; 3] = Default::default();
        let [x_stack, hidden_stack, scores_stack] = &mut stacks;
        let [x_heap, hidden_heap, scores_heap] = &mut heaps;
        let x = self.normalizer.transform_onto(features, x_stack, x_heap);
        let scores = nn::stack_or_heap(scores_stack, scores_heap, plan.svm.rows());
        plan.svm.apply(x, scores);
        let svm_vote = svm::argmax(scores);
        let hidden = nn::stack_or_heap(hidden_stack, hidden_heap, plan.hidden.rows());
        plan.hidden.apply(x, hidden);
        for z in hidden.iter_mut() {
            *z = z.max(0.0);
        }
        let logits = &mut scores[..plan.logits.rows()];
        plan.logits.apply(hidden, logits);
        let nn_vote = svm::argmax(logits);
        let arbiter = || {
            self.bayes
                .argmax_posterior(plan.bayes_log_priors.iter().copied(), x)
        };
        short_circuit_vote(svm_vote, nn_vote, arbiter, self.class_count)
    }
}

/// The vote of the SVM, a second member and an arbiter: two agreeing
/// members decide it, and the arbiter runs only when they disagree. Equals
/// [`majority_vote`] over the three members' predictions, since two equal
/// votes out of three are already a majority; for votes in range it is
/// therefore symmetric in the second member and the arbiter. The frozen
/// ensemble asks the NN second with naive Bayes as the arbiter, the live
/// adversary naive Bayes second with the NN as the arbiter.
pub(crate) fn short_circuit_vote(
    svm: usize,
    second: usize,
    arbiter: impl FnOnce() -> usize,
    classes: usize,
) -> usize {
    if svm == second {
        return svm;
    }
    majority_vote(&[svm, second, arbiter()], classes)
}

/// The shared majority-vote rule of the batch and online adversaries: the
/// most-voted class wins, with ties broken in favour of the first member's
/// prediction (the SVM).
///
/// Votes outside `0..classes` count for nothing. When the first member's
/// class is not among the most voted, the highest-numbered most-voted class
/// wins. Counting rescans the (few) votes per candidate instead of
/// allocating a per-class tally.
///
/// # Panics
///
/// Panics if `predictions` is empty.
pub fn majority_vote(predictions: &[usize], classes: usize) -> usize {
    let classes = classes.max(1);
    let votes = |class: usize| {
        if class < classes {
            predictions.iter().filter(|&&p| p == class).count()
        } else {
            0
        }
    };
    let first_choice = predictions[0];
    let first_votes = votes(first_choice);
    let mut max_votes = 0;
    let mut top = first_choice;
    for &p in predictions {
        let v = votes(p);
        if v > max_votes || (v == max_votes && p > top) {
            max_votes = v;
            top = p;
        }
    }
    if first_votes == max_votes {
        first_choice
    } else {
        top
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blobs(seed: u64, spread: f64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Dataset::new(3);
        let centers = [[0.0, 0.0, 0.0], [8.0, 0.0, 4.0], [0.0, 8.0, -4.0]];
        for (label, c) in centers.iter().enumerate() {
            for _ in 0..60 {
                let f: Vec<f64> = c
                    .iter()
                    .map(|m| m + rng.gen_range(-spread..spread))
                    .collect();
                data.push(f, label);
            }
        }
        data
    }

    fn member_names(ensemble: &AdversaryEnsemble) -> Vec<&'static str> {
        ensemble.members().map(|c| c.name()).to_vec()
    }

    #[test]
    fn ensemble_trains_and_evaluates() {
        let train = blobs(1, 1.0);
        let test = blobs(2, 1.0);
        let ensemble = AdversaryEnsemble::train(&train, &EnsembleConfig::default());
        assert_eq!(ensemble.class_count, 3);
        assert_eq!(member_names(&ensemble), ["svm", "nn", "naive-bayes"]);
        let (name, matrix) = ensemble.evaluate_best(&test);
        assert!(["svm", "nn", "naive-bayes"].contains(&name));
        assert!(
            matrix.mean_accuracy() > 0.9,
            "mean accuracy {}",
            matrix.mean_accuracy()
        );
    }

    #[test]
    fn best_member_is_at_least_as_good_as_every_member() {
        let train = blobs(3, 2.5);
        let test = blobs(4, 2.5);
        let ensemble = AdversaryEnsemble::train(&train, &EnsembleConfig::default());
        // One evaluation pass, cached; selection re-uses the matrices.
        let all = ensemble.evaluate_all(&test);
        let (_, best) = AdversaryEnsemble::best_of(all.clone());
        for (_, m) in &all {
            assert!(best.mean_accuracy() >= m.mean_accuracy() - 1e-12);
        }
        // evaluate_best agrees with best_of over the cached results.
        let (name, matrix) = ensemble.evaluate_best(&test);
        let (cached_name, cached_matrix) = AdversaryEnsemble::best_of(all);
        assert_eq!(name, cached_name);
        assert_eq!(matrix, cached_matrix);
    }

    #[test]
    fn accuracy_ties_break_deterministically_by_member_name() {
        use crate::metrics::ConfusionMatrix;
        let from_pairs = |pairs: &[(usize, usize)]| {
            let mut m = ConfusionMatrix::new(2);
            for &(t, p) in pairs {
                m.record(t, p);
            }
            m
        };
        let perfect = from_pairs(&[(0, 0), (1, 1)]);
        // Equal accuracy in every order: the lexicographically smallest name
        // wins, so "nn" beats "svm" and "naive-bayes" beats both.
        let ties: [(&[&'static str], &str); 8] = [
            (&["svm", "nn"], "nn"),
            (&["nn", "svm"], "nn"),
            (&["svm", "nn", "naive-bayes"], "naive-bayes"),
            (&["svm", "naive-bayes", "nn"], "naive-bayes"),
            (&["nn", "svm", "naive-bayes"], "naive-bayes"),
            (&["nn", "naive-bayes", "svm"], "naive-bayes"),
            (&["naive-bayes", "svm", "nn"], "naive-bayes"),
            (&["naive-bayes", "nn", "svm"], "naive-bayes"),
        ];
        for (names, winner) in ties {
            let results = names.iter().map(|&n| (n, perfect.clone())).collect();
            let (name, _) = AdversaryEnsemble::best_of(results);
            assert_eq!(name, winner, "order {names:?}");
        }
        // A strictly better member still wins regardless of its name.
        let worse = from_pairs(&[(0, 0), (1, 0)]);
        let (name, _) = AdversaryEnsemble::best_of(vec![("aaa", worse), ("svm", perfect.clone())]);
        assert_eq!(name, "svm");
    }

    #[test]
    fn majority_vote_predicts_sensible_classes() {
        let train = blobs(5, 1.0);
        let ensemble = AdversaryEnsemble::train(&train, &EnsembleConfig::default());
        assert_eq!(ensemble.predict_majority(&[0.0, 0.0, 0.0]), 0);
        assert_eq!(ensemble.predict_majority(&[8.0, 0.0, 4.0]), 1);
        assert_eq!(ensemble.predict_majority(&[0.0, 8.0, -4.0]), 2);
    }

    #[test]
    fn short_circuit_vote_matches_the_general_majority_rule() {
        let train = blobs(7, 3.0);
        let ensemble = AdversaryEnsemble::train(&train, &EnsembleConfig::default());
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..500 {
            // Points all over the space, including far between the blobs,
            // so the members genuinely disagree on a fraction of them.
            let f: Vec<f64> = (0..3).map(|_| rng.gen_range(-4.0..12.0)).collect();
            let predictions = row_major_votes(&ensemble, &f);
            assert_eq!(
                ensemble.predict_majority(&f),
                majority_vote(&predictions, ensemble.class_count),
                "members voted {predictions:?}"
            );
        }
    }

    /// Every member's own row-major `predict` on `Normalizer::apply`'s
    /// output: the reference the plan's panel vote must reproduce.
    fn row_major_votes(ensemble: &AdversaryEnsemble, features: &[f64]) -> Vec<usize> {
        let normalized = ensemble.normalizer.apply(features);
        ensemble.members().map(|c| c.predict(&normalized)).to_vec()
    }

    #[test]
    fn plan_vote_matches_the_row_major_members_on_every_shape() {
        let mut rng = StdRng::seed_from_u64(23);
        // SVM/NN disagreements, and the ones Bayes settled for the NN.
        let (mut disagreements, mut arbiter_decided) = (0, 0);
        // Hidden widths on both sides of the stack limit, class counts of
        // one partial panel and of more than one, query rows narrower and
        // wider than the normaliser (empty ones included), and normalisers
        // 0 and 1 wide: at 0 wide only the biases decide.
        for (case, hidden_units) in [1, 5, 8, 9, 31, 63, 64, 65, 99].into_iter().enumerate() {
            let dim = match case {
                0 | 1 => 0,
                2 | 3 => 1,
                _ => rng.gen_range(2..12),
            };
            let classes = [3, 7, 9][case % 3];
            let mut data = Dataset::new(dim);
            for label in 0..classes {
                for _ in 0..12 {
                    let f = (0..dim)
                        .map(|j| {
                            rng.gen_range(-3.0..3.0) + if j == label % dim { 4.0 } else { 0.0 }
                        })
                        .collect();
                    data.push(f, label);
                }
            }
            let config = EnsembleConfig {
                svm: SvmConfig {
                    epochs: 3,
                    ..SvmConfig::default()
                },
                nn: NnConfig {
                    hidden_units,
                    epochs: 3,
                    ..NnConfig::default()
                },
                seed: case as u64,
            };
            let ensemble = AdversaryEnsemble::train(&data, &config);
            for _ in 0..60 {
                let width = rng.gen_range(dim.saturating_sub(2)..dim + 3);
                let f: Vec<f64> = (0..width).map(|_| rng.gen_range(-5.0..9.0)).collect();
                let votes = row_major_votes(&ensemble, &f);
                if votes[0] != votes[1] {
                    disagreements += 1;
                    arbiter_decided += usize::from(votes[2] == votes[1]);
                }
                assert_eq!(
                    ensemble.predict_majority(&f),
                    majority_vote(&votes, classes),
                    "hidden {hidden_units}, width {width} of {dim}: members voted {votes:?}"
                );
            }
        }
        assert!(disagreements > 0, "the SVM and the NN never disagreed");
        assert!(arbiter_decided > 0, "the arbiter never decided a vote");
    }

    /// `majority_vote` as it was with a per-class tally: the reference its
    /// allocation-free body must reproduce.
    fn tally_majority_vote(predictions: &[usize], classes: usize) -> usize {
        let mut votes = vec![0usize; classes.max(1)];
        for &p in predictions {
            if p < votes.len() {
                votes[p] += 1;
            }
        }
        let first_choice = predictions[0];
        let max_votes = votes.iter().copied().max().unwrap_or(0);
        if votes.get(first_choice).copied().unwrap_or(0) == max_votes {
            first_choice
        } else {
            votes
                .iter()
                .enumerate()
                .max_by_key(|(_, v)| **v)
                .map(|(i, _)| i)
                .unwrap_or(first_choice)
        }
    }

    #[test]
    fn majority_vote_keeps_the_tally_tie_rule_on_every_pattern() {
        // Every 2- and 3-member pattern over 7 labels, against class counts
        // from 1 to 8 so out-of-range votes are covered too.
        for classes in 1..=8 {
            for a in 0..7 {
                for b in 0..7 {
                    let pair = [a, b];
                    assert_eq!(
                        majority_vote(&pair, classes),
                        tally_majority_vote(&pair, classes),
                        "votes {pair:?}, {classes} classes"
                    );
                    for c in 0..7 {
                        let triple = [a, b, c];
                        assert_eq!(
                            majority_vote(&triple, classes),
                            tally_majority_vote(&triple, classes),
                            "votes {triple:?}, {classes} classes"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn short_circuit_vote_is_the_majority_rule_on_every_in_range_pattern() {
        for classes in 1..=6 {
            for (svm, nn) in (0..classes).flat_map(|a| (0..classes).map(move |b| (a, b))) {
                for bayes in 0..classes {
                    let votes = [svm, nn, bayes];
                    // The frozen order: Bayes arbitrates the SVM and the NN.
                    let arbiter = || {
                        assert_ne!(svm, nn, "Bayes ran on agreeing votes");
                        bayes
                    };
                    assert_eq!(
                        short_circuit_vote(svm, nn, arbiter, classes),
                        majority_vote(&votes, classes),
                        "votes {votes:?}"
                    );
                    // The live order: the NN arbitrates the SVM and Bayes.
                    let arbiter = || {
                        assert_ne!(svm, bayes, "the NN ran on agreeing votes");
                        nn
                    };
                    assert_eq!(
                        short_circuit_vote(svm, bayes, arbiter, classes),
                        majority_vote(&votes, classes),
                        "votes {votes:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn empty_training_set_panics() {
        let _ = AdversaryEnsemble::train(&Dataset::new(2), &EnsembleConfig::default());
    }
}
