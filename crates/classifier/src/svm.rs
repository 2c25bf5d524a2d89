//! A multi-class linear support vector machine.
//!
//! One-vs-rest linear SVMs trained with stochastic sub-gradient descent on the
//! L2-regularised hinge loss (the Pegasos formulation). A linear SVM over the
//! 18 aggregate traffic features is sufficient to reproduce the accuracy
//! levels the paper reports for its SVM-based adversary: the application
//! classes are nearly linearly separable in this feature space.
//!
//! Pegasos is inherently **online**: each update touches one example. The
//! model therefore implements [`OnlineClassifier`] — `partial_fit` performs
//! exactly one sub-gradient step with the internal step-count learning-rate
//! schedule — and the batch [`train`](LinearSvm::train) entry point is a thin
//! wrapper: `epochs` passes of `partial_fit` over a seeded shuffle of the
//! dataset (equivalence property-tested in `tests/online_equivalence.rs`).

use crate::dataset::Dataset;
use crate::kernel;
use crate::nn::{stack_or_heap, STACK_HIDDEN};
use crate::{Classifier, OnlineClassifier};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Hyper-parameters of the SVM trainer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvmConfig {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Regularisation strength λ.
    pub lambda: f64,
    /// Base learning rate.
    pub learning_rate: f64,
}

impl Default for SvmConfig {
    fn default() -> Self {
        SvmConfig {
            epochs: 60,
            lambda: 1e-4,
            learning_rate: 0.1,
        }
    }
}

/// A one-vs-rest linear SVM (trainable incrementally).
#[derive(Debug, Clone, PartialEq)]
pub struct LinearSvm {
    /// Flat row-major `classes × dim` weight matrix (the layout
    /// [`kernel::matvec_bias`] consumes directly).
    weights: Vec<f64>,
    /// Feature dimensionality (the weight row width).
    dim: usize,
    biases: Vec<f64>,
    /// Regularisation strength λ of the Pegasos schedule.
    lambda: f64,
    /// Base learning rate of the Pegasos schedule.
    learning_rate: f64,
    /// SGD steps taken so far (drives the decaying learning rate).
    step: u64,
}

impl LinearSvm {
    /// Creates an untrained SVM for `dim`-dimensional features over `classes`
    /// classes. Absorb examples with
    /// [`partial_fit`](OnlineClassifier::partial_fit).
    ///
    /// # Panics
    ///
    /// Panics if `classes` is zero.
    pub fn new(dim: usize, classes: usize, config: &SvmConfig) -> Self {
        assert!(classes > 0, "an SVM needs at least one class");
        LinearSvm {
            weights: vec![0.0; classes * dim],
            dim,
            biases: vec![0.0; classes],
            lambda: config.lambda,
            learning_rate: config.learning_rate,
            step: 0,
        }
    }

    /// Trains the SVM on a dataset — a thin wrapper over
    /// [`new`](Self::new) plus `config.epochs` passes of
    /// [`partial_fit`](OnlineClassifier::partial_fit), each pass visiting the
    /// examples in a fresh `SliceRandom::shuffle` order drawn from
    /// `StdRng::seed_from_u64(seed)` (the contract the equivalence proptest
    /// in `tests/online_equivalence.rs` enforces).
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn train(data: &Dataset, config: &SvmConfig, seed: u64) -> Self {
        assert!(!data.is_empty(), "cannot train an SVM on an empty dataset");
        let mut svm = LinearSvm::new(data.dim(), data.class_count(), config);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let examples = data.examples();
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for &idx in &order {
                let ex = &examples[idx];
                svm.partial_fit(&ex.features, ex.label);
            }
        }
        svm
    }

    /// Per-class decision values for a feature vector.
    pub fn decision_values(&self, features: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.biases.len()];
        self.decision_values_into(features, &mut out);
        out
    }

    /// [`decision_values`](Self::decision_values) into a caller buffer
    /// (resized to the class count) — the allocation-free form the hot
    /// paths use, via the blocked [`kernel::matvec_bias`].
    pub fn decision_values_into(&self, features: &[f64], out: &mut Vec<f64>) {
        out.resize(self.biases.len(), 0.0);
        kernel::matvec_bias(&self.weights, &self.biases, features, self.dim, out);
    }

    /// The decision layer as `(row-major classes × dim weights, biases,
    /// dim)`, for packing into lane panels.
    pub(crate) fn layer(&self) -> (&[f64], &[f64], usize) {
        (&self.weights, &self.biases, self.dim)
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

impl Classifier for LinearSvm {
    fn predict(&self, features: &[f64]) -> usize {
        // The [`argmax`] of the decision values, scored into a stack buffer
        // unless there are more than `STACK_HIDDEN` classes. With 0-wide
        // features every value is its class's bias.
        let (mut stack, mut heap) = ([0.0; STACK_HIDDEN], Vec::new());
        let scores = stack_or_heap(&mut stack, &mut heap, self.biases.len());
        kernel::matvec_bias(&self.weights, &self.biases, features, self.dim, scores);
        argmax(scores)
    }

    fn name(&self) -> &'static str {
        "svm"
    }
}

impl OnlineClassifier for LinearSvm {
    fn partial_fit(&mut self, features: &[f64], label: usize) {
        self.step += 1;
        let eta = self.learning_rate / (1.0 + self.lambda * self.step as f64);
        let dim = self.dim;
        for c in 0..self.biases.len() {
            let y = if label == c { 1.0 } else { -1.0 };
            let w = &mut self.weights[c * dim..(c + 1) * dim];
            let margin = y * (dot(w, features) + self.biases[c]);
            // L2 shrinkage.
            for wi in w.iter_mut() {
                *wi *= 1.0 - eta * self.lambda;
            }
            if margin < 1.0 {
                for (wi, xi) in w.iter_mut().zip(features) {
                    *wi += eta * y * xi;
                }
                self.biases[c] += eta * y;
            }
        }
    }

    fn examples_seen(&self) -> u64 {
        self.step
    }
}

/// The first index of the maximum value: the rule every `predict` applies
/// (the NN's and naive Bayes's inline), and the one the frozen adversary's
/// plan applies to its panel outputs.
pub(crate) fn argmax(values: &[f64]) -> usize {
    let mut best = 0;
    let mut best_value = f64::NEG_INFINITY;
    for (i, &v) in values.iter().enumerate() {
        if v > best_value {
            best_value = v;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn separable_dataset(classes: usize, per_class: usize, seed: u64) -> Dataset {
        // Class c lives around 10 * e_c (a one-hot corner) with small noise, so
        // every class is linearly separable from the union of the others.
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = classes.max(2);
        let mut data = Dataset::new(dim);
        for c in 0..classes {
            for _ in 0..per_class {
                let mut features: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                features[c] += 10.0;
                data.push(features, c);
            }
        }
        data
    }

    #[test]
    fn learns_binary_separation() {
        let data = separable_dataset(2, 60, 1);
        let svm = LinearSvm::train(&data, &SvmConfig::default(), 2);
        assert_eq!(svm.biases.len(), 2);
        let correct = svm
            .predict_dataset(&data)
            .iter()
            .filter(|(t, p)| t == p)
            .count();
        assert!(correct as f64 / data.len() as f64 > 0.95);
    }

    #[test]
    fn learns_multi_class_separation() {
        let data = separable_dataset(5, 40, 3);
        let svm = LinearSvm::train(&data, &SvmConfig::default(), 4);
        let correct = svm
            .predict_dataset(&data)
            .iter()
            .filter(|(t, p)| t == p)
            .count();
        assert!(
            correct as f64 / data.len() as f64 > 0.9,
            "accuracy {}",
            correct as f64 / data.len() as f64
        );
    }

    #[test]
    fn training_is_deterministic_given_a_seed() {
        let data = separable_dataset(3, 30, 7);
        let a = LinearSvm::train(&data, &SvmConfig::default(), 11);
        let b = LinearSvm::train(&data, &SvmConfig::default(), 11);
        assert_eq!(a, b);
    }

    #[test]
    fn decision_values_have_one_entry_per_class() {
        let data = separable_dataset(4, 20, 9);
        let svm = LinearSvm::train(&data, &SvmConfig::default(), 1);
        assert_eq!(svm.decision_values(&[0.0, 0.0]).len(), 4);
        assert_eq!(svm.name(), "svm");
    }

    #[test]
    #[should_panic]
    fn empty_dataset_panics() {
        let _ = LinearSvm::train(&Dataset::new(2), &SvmConfig::default(), 0);
    }

    #[test]
    fn argmax_picks_first_maximum() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[-5.0]), 0);
    }

    #[test]
    fn streaming_predict_matches_argmax_over_decision_values() {
        let data = separable_dataset(4, 30, 11);
        let svm = LinearSvm::train(&data, &SvmConfig::default(), 11);
        for e in data.examples() {
            assert_eq!(
                svm.predict(&e.features),
                argmax(&svm.decision_values(&e.features))
            );
        }
    }

    #[test]
    fn partial_fit_learns_without_a_materialised_dataset() {
        let data = separable_dataset(3, 40, 5);
        let mut svm = LinearSvm::new(data.dim(), data.class_count(), &SvmConfig::default());
        assert_eq!(svm.examples_seen(), 0);
        for _ in 0..10 {
            for e in data.examples() {
                svm.partial_fit(&e.features, e.label);
            }
        }
        assert_eq!(svm.examples_seen(), 10 * data.len() as u64);
        let correct = svm
            .predict_dataset(&data)
            .iter()
            .filter(|(t, p)| t == p)
            .count();
        assert!(correct as f64 / data.len() as f64 > 0.9);
    }

    #[test]
    fn predict_reads_the_biases_on_empty_features() {
        // 0-wide features leave only the biases to decide, and the majority
        // class's bias wins.
        let mut data = Dataset::new(0);
        for label in [0; 5].into_iter().chain([1; 20]) {
            data.push(Vec::new(), label);
        }
        let svm = LinearSvm::train(&data, &SvmConfig::default(), 3);
        let values = svm.decision_values(&[]);
        assert_eq!(svm.predict(&[]), 1, "decision values {values:?}");
        assert_eq!(svm.predict(&[]), argmax(&values));
    }
}
