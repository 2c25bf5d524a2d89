//! A multi-layer perceptron classifier.
//!
//! One hidden layer with ReLU activations and a softmax output trained with
//! mini-batch stochastic gradient descent on the cross-entropy loss. This is
//! the "NN" half of the paper's SVM/NN adversary.
//!
//! The trainer is SGD, so the network is also an [`OnlineClassifier`]:
//! [`partial_fit`](OnlineClassifier::partial_fit) performs one
//! single-example gradient step (a mini-batch of one), sharing the forward
//! pass with the batch [`train`](NeuralNet::train) loop. Both keep their
//! per-example activations on the stack up to 64 units (`STACK_HIDDEN`), so a
//! network holds nothing but its parameters.

use crate::dataset::Dataset;
use crate::kernel;
use crate::{Classifier, OnlineClassifier};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Hyper-parameters of the MLP trainer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NnConfig {
    /// Number of hidden units.
    pub hidden_units: usize,
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Mini-batch size.
    pub batch_size: usize,
}

impl Default for NnConfig {
    fn default() -> Self {
        NnConfig {
            hidden_units: 32,
            epochs: 120,
            learning_rate: 0.05,
            batch_size: 16,
        }
    }
}

/// A multi-layer perceptron (trainable incrementally).
#[derive(Debug, Clone, PartialEq)]
pub struct NeuralNet {
    /// Layer 1 weights: flat row-major `hidden_units × dim`.
    w1: Vec<f64>,
    b1: Vec<f64>,
    /// Layer 2 weights: flat row-major `classes × hidden_units`.
    w2: Vec<f64>,
    b2: Vec<f64>,
    /// Feature dimensionality (the `w1` row width).
    dim: usize,
    /// Learning rate used by single-example `partial_fit` steps.
    learning_rate: f64,
    /// Examples absorbed so far (counting repeats across epochs).
    seen: u64,
}

/// Accumulated gradients for one mini-batch (or one example), in the same
/// flat row-major layout as the weights so applying them is a pair of
/// [`kernel::axpy`] sweeps.
struct Gradients {
    gw1: Vec<f64>,
    gb1: Vec<f64>,
    gw2: Vec<f64>,
    gb2: Vec<f64>,
}

impl Gradients {
    fn zeroed(dim: usize, hidden: usize, classes: usize) -> Self {
        Gradients {
            gw1: vec![0.0; hidden * dim],
            gb1: vec![0.0; hidden],
            gw2: vec![0.0; classes * hidden],
            gb2: vec![0.0; classes],
        }
    }

    /// Resets every accumulator without giving the buffers back.
    fn zero(&mut self) {
        self.gw1.fill(0.0);
        self.gb1.fill(0.0);
        self.gw2.fill(0.0);
        self.gb2.fill(0.0);
    }
}

impl NeuralNet {
    /// Creates a randomly-initialised, untrained network for
    /// `dim`-dimensional features over `classes` classes. Absorb examples
    /// with [`partial_fit`](OnlineClassifier::partial_fit).
    ///
    /// # Panics
    ///
    /// Panics if `classes` is zero.
    pub fn new(dim: usize, classes: usize, config: &NnConfig, seed: u64) -> Self {
        Self::init_with_rng(dim, classes, config, &mut StdRng::seed_from_u64(seed))
    }

    /// Random initialisation drawing from the caller's rng (so the batch
    /// trainer can keep drawing its shuffles from the same stream).
    fn init_with_rng(dim: usize, classes: usize, config: &NnConfig, rng: &mut StdRng) -> Self {
        assert!(classes > 0, "a network needs at least one class");
        let hidden = config.hidden_units.max(1);
        let scale1 = (2.0 / dim as f64).sqrt();
        let scale2 = (2.0 / hidden as f64).sqrt();
        // Row-major draw order matches the historical per-row Vec layout, so
        // a given rng stream still initialises the same network.
        NeuralNet {
            w1: (0..hidden * dim)
                .map(|_| rng.gen_range(-scale1..scale1))
                .collect(),
            b1: vec![0.0; hidden],
            w2: (0..classes * hidden)
                .map(|_| rng.gen_range(-scale2..scale2))
                .collect(),
            b2: vec![0.0; classes],
            dim,
            learning_rate: config.learning_rate,
            seen: 0,
        }
    }

    /// Trains the network on a dataset: [`new`](Self::new) plus
    /// `config.epochs` mini-batch passes over a seeded shuffle. Each
    /// mini-batch shares the gradient accumulation with
    /// [`partial_fit`](OnlineClassifier::partial_fit) (which is a mini-batch
    /// of one).
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn train(data: &Dataset, config: &NnConfig, seed: u64) -> Self {
        assert!(
            !data.is_empty(),
            "cannot train a network on an empty dataset"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = NeuralNet::init_with_rng(data.dim(), data.class_count(), config, &mut rng);

        let mut order: Vec<usize> = (0..data.len()).collect();
        let examples = data.examples();
        // One gradient accumulator for the whole run — each mini-batch
        // zeroes the accumulators instead of reallocating them.
        let mut grads = Gradients::zeroed(net.dim, net.b1.len(), net.b2.len());
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for batch in order.chunks(config.batch_size.max(1)) {
                grads.zero();
                for &idx in batch {
                    let ex = &examples[idx];
                    net.accumulate(&ex.features, ex.label, &mut grads);
                    net.seen += 1;
                }
                net.apply(&grads, config.learning_rate / batch.len() as f64);
            }
        }
        net
    }

    /// Adds one example's softmax cross-entropy gradient into `grads`.
    fn accumulate(&self, features: &[f64], label: usize, grads: &mut Gradients) {
        let hidden = self.b1.len();
        let mut stacks = [[0.0; STACK_HIDDEN]; 2];
        let mut heaps: [Vec<f64>; 2] = Default::default();
        let [hidden_stack, probs_stack] = &mut stacks;
        let [hidden_heap, probs_heap] = &mut heaps;
        let hidden_out = stack_or_heap(hidden_stack, hidden_heap, hidden);
        let delta_out = stack_or_heap(probs_stack, probs_heap, self.b2.len());
        self.forward_onto(features, hidden_out, delta_out);
        // Output delta: softmax cross-entropy gradient, in place over the
        // probabilities.
        delta_out[label] -= 1.0;
        for (c, &delta) in delta_out.iter().enumerate() {
            for (g, h_out) in grads.gw2[c * hidden..(c + 1) * hidden]
                .iter_mut()
                .zip(&*hidden_out)
            {
                *g += delta * h_out;
            }
            grads.gb2[c] += delta;
        }
        // Hidden delta through ReLU.
        for h in 0..hidden {
            if hidden_out[h] <= 0.0 {
                continue;
            }
            let d: f64 = delta_out
                .iter()
                .zip(self.w2.chunks_exact(hidden))
                .map(|(dc, w2c)| dc * w2c[h])
                .sum();
            let dim = self.dim;
            for (g, x) in grads.gw1[h * dim..(h + 1) * dim].iter_mut().zip(features) {
                *g += d * x;
            }
            grads.gb1[h] += d;
        }
    }

    /// Applies accumulated gradients with step size `step` — a flat
    /// [`kernel::axpy`] per parameter block (bit-identical to the historical
    /// per-element `w -= step * g`).
    fn apply(&mut self, grads: &Gradients, step: f64) {
        kernel::axpy(&mut self.w1, &grads.gw1, -step);
        kernel::axpy(&mut self.b1, &grads.gb1, -step);
        kernel::axpy(&mut self.w2, &grads.gw2, -step);
        kernel::axpy(&mut self.b2, &grads.gb2, -step);
    }

    /// Forward pass into caller buffers: `hidden` (one slot per hidden
    /// unit) receives the ReLU activations, `probs` (one slot per class)
    /// the class probabilities.
    fn forward_onto(&self, features: &[f64], hidden: &mut [f64], probs: &mut [f64]) {
        kernel::matvec_bias(&self.w1, &self.b1, features, self.dim, hidden);
        for z in hidden.iter_mut() {
            *z = z.max(0.0);
        }
        kernel::matvec_bias(&self.w2, &self.b2, hidden, self.b1.len(), probs);
        softmax_in_place(probs);
    }

    /// Both layers as `(row-major weights, biases, row width)`: layer 1 is
    /// `hidden × dim`, layer 2 `classes × hidden`. For packing into lane
    /// panels.
    pub(crate) fn layers(&self) -> [(&[f64], &[f64], usize); 2] {
        [
            (&self.w1, &self.b1, self.dim),
            (&self.w2, &self.b2, self.b1.len()),
        ]
    }
}

/// Softmax in place: max-shifted exponentials normalised by their sum, with
/// the same accumulation order as the historical collecting version.
fn softmax_in_place(logits: &mut [f64]) {
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for l in logits.iter_mut() {
        *l = (*l - max).exp();
        sum += *l;
    }
    for e in logits.iter_mut() {
        *e /= sum;
    }
}

/// Hidden layers up to this width run `predict`, `partial_fit` and the
/// batch trainer's forward pass without allocating (the default `NnConfig`
/// has 32 units); both adversaries keep every per-window buffer up to this
/// width on the stack too.
pub(crate) const STACK_HIDDEN: usize = 64;

/// A `len`-wide buffer: the front of `stack` when `len` fits in
/// [`STACK_HIDDEN`], otherwise `heap` resized to `len`.
pub(crate) fn stack_or_heap<'a>(
    stack: &'a mut [f64; STACK_HIDDEN],
    heap: &'a mut Vec<f64>,
    len: usize,
) -> &'a mut [f64] {
    if len <= STACK_HIDDEN {
        &mut stack[..len]
    } else {
        heap.resize(len, 0.0);
        heap
    }
}

#[cfg(test)]
fn softmax(logits: &[f64]) -> Vec<f64> {
    let mut out = logits.to_vec();
    softmax_in_place(&mut out);
    out
}

impl Classifier for NeuralNet {
    fn predict(&self, features: &[f64]) -> usize {
        // Softmax is strictly monotonic, so the argmax of the logits is the
        // argmax of the probabilities — the exp/normalise pass (and its
        // vectors) would be dead work here. The hidden layer is computed
        // exactly as in `forward_onto`, on the stack unless the layer is wider
        // than `STACK_HIDDEN`.
        let hidden_units = self.b1.len();
        let (mut stack, mut heap) = ([0.0; STACK_HIDDEN], Vec::new());
        let hidden = stack_or_heap(&mut stack, &mut heap, hidden_units);
        kernel::matvec_bias(&self.w1, &self.b1, features, self.dim, hidden);
        for z in hidden.iter_mut() {
            *z = z.max(0.0);
        }
        let mut best = 0;
        let mut best_value = f64::NEG_INFINITY;
        for (i, (w, b)) in self
            .w2
            .chunks_exact(hidden_units.max(1))
            .zip(&self.b2)
            .enumerate()
        {
            let logit: f64 = w.iter().zip(&*hidden).map(|(wi, hi)| wi * hi).sum::<f64>() + b;
            if logit > best_value {
                best_value = logit;
                best = i;
            }
        }
        best
    }

    fn name(&self) -> &'static str {
        "nn"
    }
}

impl OnlineClassifier for NeuralNet {
    /// One fused SGD step without gradient materialisation: the hidden
    /// deltas are computed against the **pre-update** output weights before
    /// either layer moves, so every parameter sees exactly the update the
    /// accumulate/apply path would have produced (`w -= lr * (δ ·
    /// activation)`, identical expression tree). The activations, the
    /// output deltas and the hidden deltas live on the stack up to 64
    /// units (`STACK_HIDDEN`).
    fn partial_fit(&mut self, features: &[f64], label: usize) {
        let hidden = self.b1.len();
        let lr = self.learning_rate;
        let mut stacks = [[0.0; STACK_HIDDEN]; 3];
        let mut heaps: [Vec<f64>; 3] = Default::default();
        let [hidden_stack, delta_stack, hidden_delta_stack] = &mut stacks;
        let [hidden_heap, delta_heap, hidden_delta_heap] = &mut heaps;
        let hidden_out = stack_or_heap(hidden_stack, hidden_heap, hidden);
        let delta_out = stack_or_heap(delta_stack, delta_heap, self.b2.len());
        let hidden_delta = stack_or_heap(hidden_delta_stack, hidden_delta_heap, hidden);
        self.forward_onto(features, hidden_out, delta_out);
        delta_out[label] -= 1.0;
        // Hidden deltas first — they read the output weights pre-update.
        for (h, d) in hidden_delta.iter_mut().enumerate() {
            *d = if hidden_out[h] <= 0.0 {
                0.0
            } else {
                delta_out
                    .iter()
                    .zip(self.w2.chunks_exact(hidden))
                    .map(|(dc, w2c)| dc * w2c[h])
                    .sum()
            };
        }
        // Output layer.
        for (c, &delta) in delta_out.iter().enumerate() {
            for (w, h_out) in self.w2[c * hidden..(c + 1) * hidden]
                .iter_mut()
                .zip(&*hidden_out)
            {
                *w -= lr * (delta * h_out);
            }
            self.b2[c] -= lr * delta;
        }
        // Hidden layer.
        let dim = self.dim;
        for h in 0..hidden {
            if hidden_out[h] <= 0.0 {
                continue;
            }
            let d = hidden_delta[h];
            for (w, x) in self.w1[h * dim..(h + 1) * dim].iter_mut().zip(features) {
                *w -= lr * (d * x);
            }
            self.b1[h] -= lr * d;
        }
        self.seen += 1;
    }

    fn examples_seen(&self) -> u64 {
        self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference `predict` is pinned against.
    impl NeuralNet {
        /// Class probabilities for a feature vector.
        fn probabilities(&self, features: &[f64]) -> Vec<f64> {
            let mut hidden = vec![0.0; self.b1.len()];
            let mut probs = vec![0.0; self.b2.len()];
            self.forward_onto(features, &mut hidden, &mut probs);
            probs
        }
    }

    fn ring_dataset(seed: u64) -> Dataset {
        // A non-linearly-separable problem: class 0 near the origin, class 1 on a ring.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Dataset::new(2);
        for _ in 0..150 {
            let a: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            let r_inner: f64 = rng.gen_range(0.0..1.0);
            data.push(vec![r_inner * a.cos(), r_inner * a.sin()], 0);
            let r_outer: f64 = rng.gen_range(3.0..4.0);
            data.push(vec![r_outer * a.cos(), r_outer * a.sin()], 1);
        }
        data
    }

    #[test]
    fn learns_a_nonlinear_boundary() {
        let data = ring_dataset(1);
        let nn = NeuralNet::train(&data, &NnConfig::default(), 2);
        let correct = nn
            .predict_dataset(&data)
            .iter()
            .filter(|(t, p)| t == p)
            .count();
        let accuracy = correct as f64 / data.len() as f64;
        assert!(accuracy > 0.9, "accuracy {accuracy}");
        assert_eq!(nn.b2.len(), 2);
        assert_eq!(nn.name(), "nn");
    }

    #[test]
    fn streaming_predict_matches_argmax_over_probabilities() {
        use crate::svm::argmax;
        let data = ring_dataset(7);
        let nn = NeuralNet::train(&data, &NnConfig::default(), 8);
        for e in data.examples() {
            assert_eq!(
                nn.predict(&e.features),
                argmax(&nn.probabilities(&e.features))
            );
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let data = ring_dataset(3);
        let nn = NeuralNet::train(
            &data,
            &NnConfig {
                epochs: 10,
                ..NnConfig::default()
            },
            4,
        );
        let p = nn.probabilities(&[0.5, -0.5]);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn training_is_deterministic_given_a_seed() {
        let data = ring_dataset(5);
        let cfg = NnConfig {
            epochs: 5,
            ..NnConfig::default()
        };
        let a = NeuralNet::train(&data, &cfg, 9);
        let b = NeuralNet::train(&data, &cfg, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[101.0, 102.0, 103.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic]
    fn empty_dataset_panics() {
        let _ = NeuralNet::train(&Dataset::new(2), &NnConfig::default(), 0);
    }

    #[test]
    fn partial_fit_learns_the_ring_incrementally() {
        let data = ring_dataset(7);
        let mut net = NeuralNet::new(data.dim(), data.class_count(), &NnConfig::default(), 11);
        for _ in 0..30 {
            for e in data.examples() {
                net.partial_fit(&e.features, e.label);
            }
        }
        assert_eq!(net.examples_seen(), 30 * data.len() as u64);
        let correct = net
            .predict_dataset(&data)
            .iter()
            .filter(|(t, p)| t == p)
            .count();
        let accuracy = correct as f64 / data.len() as f64;
        assert!(accuracy > 0.85, "online accuracy {accuracy}");
    }
}
