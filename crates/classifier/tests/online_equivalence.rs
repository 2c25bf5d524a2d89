//! Batch == online equivalence for the adversary's trainers, mirroring the
//! stage-equivalence suites of the defenses: every batch `train` entry point
//! must be a thin wrapper over epochs of `partial_fit`.
//!
//! * `GaussianNaiveBayes::train` is one `partial_fit` pass in dataset order —
//!   the resulting sufficient statistics are **identical**, and replaying
//!   extra epochs never changes a prediction (statistics scale uniformly).
//! * `LinearSvm::train(data, config, seed)` is `new` + `config.epochs`
//!   passes of `partial_fit`, each pass visiting a fresh
//!   `SliceRandom::shuffle` order drawn from `StdRng::seed_from_u64(seed)` —
//!   replaying that contract externally reproduces the trained model
//!   **bit for bit**.
//! * `Normalizer::fit` is a `RunningNormalizer` absorbing the dataset once
//!   and snapshotting.
//! * `RunningNormalizer`'s kept scale is exact: after every `observe`,
//!   `transform_into` equals an inline `(x − mean) / safe_std(std_dev)`
//!   over the running statistics bit for bit, and so does applying
//!   `snapshot` (which derives the scale afresh), which also equals a
//!   `Normalizer::fit` of the rows observed so far.
//! * Naive Bayes's cached `(variance, ln variance)` table is exact: after
//!   every `partial_fit` step, `predict` and `log_posteriors` equal a
//!   reference that recomputes each variance and its `ln` from the
//!   sufficient statistics on every read.

use classifier::bayes::GaussianNaiveBayes;
use classifier::dataset::{Dataset, Normalizer, RunningNormalizer};
use classifier::stream::RunningStats;
use classifier::svm::{LinearSvm, SvmConfig};
use classifier::{Classifier, OnlineClassifier};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A random labelled dataset with `classes` loosely-separated clusters.
fn random_dataset(seed: u64, classes: usize, per_class: usize, dim: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Dataset::new(dim);
    for c in 0..classes {
        for _ in 0..per_class {
            let features: Vec<f64> = (0..dim)
                .map(|f| {
                    let center = if f == c % dim {
                        6.0 * (c as f64 + 1.0)
                    } else {
                        0.0
                    };
                    center + rng.gen_range(-2.0..2.0)
                })
                .collect();
            data.push(features, c);
        }
    }
    data
}

/// Naive Bayes with no cached table: nested per-class Welford statistics,
/// and every read recomputes `(m2 / n).max(VARIANCE_FLOOR)` and its `ln`
/// inline.
struct ReferenceBayes {
    dim: usize,
    total: u64,
    counts: Vec<u64>,
    means: Vec<Vec<f64>>,
    m2s: Vec<Vec<f64>>,
}

/// The model's variance floor.
const VARIANCE_FLOOR: f64 = 1e-6;

impl ReferenceBayes {
    fn new(dim: usize, classes: usize) -> Self {
        ReferenceBayes {
            dim,
            total: 0,
            counts: vec![0; classes],
            means: vec![vec![0.0; dim]; classes],
            m2s: vec![vec![0.0; dim]; classes],
        }
    }

    fn partial_fit(&mut self, features: &[f64], label: usize) {
        self.counts[label] += 1;
        self.total += 1;
        let n = self.counts[label] as f64;
        for ((&x, m), m2) in features
            .iter()
            .take(self.dim)
            .zip(&mut self.means[label])
            .zip(&mut self.m2s[label])
        {
            let delta = x - *m;
            *m += delta / n;
            *m2 += delta * (x - *m);
        }
    }

    fn log_posteriors(&self, features: &[f64]) -> Vec<f64> {
        let total = self.total.max(1) as f64;
        (0..self.counts.len())
            .map(|c| {
                let prior = (self.counts[c] as f64 / total).max(1e-12);
                let n = self.counts[c] as f64;
                let mut lp = prior.ln();
                for ((x, m), m2) in features
                    .iter()
                    .take(self.dim)
                    .zip(&self.means[c])
                    .zip(&self.m2s[c])
                {
                    let v = if self.counts[c] == 0 {
                        VARIANCE_FLOOR
                    } else {
                        (m2 / n).max(VARIANCE_FLOOR)
                    };
                    lp += -0.5 * ((x - m).powi(2) / v + v.ln() + (2.0 * std::f64::consts::PI).ln());
                }
                lp
            })
            .collect()
    }

    /// The first class with the highest log posterior.
    fn predict(&self, features: &[f64]) -> usize {
        let mut best = 0;
        let mut best_value = f64::NEG_INFINITY;
        for (c, lp) in self.log_posteriors(features).into_iter().enumerate() {
            if lp > best_value {
                best_value = lp;
                best = c;
            }
        }
        best
    }
}

/// One random feature vector: some features pinned to a constant (so the
/// variance floor engages), the rest spread over a few orders of magnitude.
fn random_features(rng: &mut StdRng, dim: usize, label: usize) -> Vec<f64> {
    (0..dim)
        .map(|f| {
            if f % 3 == 2 {
                1.0
            } else {
                let scale = 10f64.powi((f % 4) as i32 - 1);
                scale * (label as f64 + rng.gen_range(-1.5..1.5))
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn bayes_variance_table_matches_inline_recomputation(
        seed in 0u64..500,
        classes in 1usize..8,
        seen in 1usize..8,
        steps in 1usize..60,
        dim in 1usize..19,
    ) {
        // Labels come from the first `seen` classes only, so classes past
        // them stay unseen (and on the floor) for the whole sequence.
        let seen = seen.min(classes);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = GaussianNaiveBayes::new(dim, classes);
        let mut reference = ReferenceBayes::new(dim, classes);
        for _ in 0..steps {
            let label = rng.gen_range(0..seen);
            let features = random_features(&mut rng, dim, label);
            model.partial_fit(&features, label);
            reference.partial_fit(&features, label);

            let queries: Vec<Vec<f64>> = (0..4)
                .map(|_| {
                    let near = rng.gen_range(0..classes);
                    random_features(&mut rng, dim, near)
                })
                .collect();
            for q in &queries {
                let got: Vec<u64> = model.log_posteriors(q).iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> = reference.log_posteriors(q).iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(got, want);
                prop_assert_eq!(model.predict(q), reference.predict(q));
            }
        }
        prop_assert_eq!(model.examples_seen(), steps as u64);
    }

    #[test]
    fn bayes_batch_train_is_one_partial_fit_pass(
        seed in 0u64..500,
        classes in 2usize..5,
        per_class in 5usize..40,
        dim in 1usize..6,
    ) {
        let data = random_dataset(seed, classes, per_class, dim);
        let batch = GaussianNaiveBayes::train(&data);
        let mut online = GaussianNaiveBayes::new(data.dim(), data.class_count());
        for e in data.examples() {
            online.partial_fit(&e.features, e.label);
        }
        // The sufficient statistics are identical, not merely close.
        prop_assert_eq!(&batch, &online);
        prop_assert_eq!(online.examples_seen(), data.len() as u64);
    }

    #[test]
    fn bayes_predictions_survive_extra_epochs(
        seed in 0u64..500,
        epochs in 2usize..5,
    ) {
        let data = random_dataset(seed, 3, 25, 4);
        let one_epoch = GaussianNaiveBayes::train(&data);
        let mut multi = GaussianNaiveBayes::new(data.dim(), data.class_count());
        for _ in 0..epochs {
            for e in data.examples() {
                multi.partial_fit(&e.features, e.label);
            }
        }
        for e in data.examples() {
            prop_assert_eq!(one_epoch.predict(&e.features), multi.predict(&e.features));
        }
    }

    #[test]
    fn svm_batch_train_is_seeded_epochs_of_partial_fit(
        data_seed in 0u64..500,
        train_seed in 0u64..500,
        classes in 2usize..4,
        per_class in 5usize..25,
        epochs in 1usize..8,
    ) {
        let data = random_dataset(data_seed, classes, per_class, 3);
        let config = SvmConfig { epochs, ..SvmConfig::default() };
        let batch = LinearSvm::train(&data, &config, train_seed);

        // Replay the documented contract of `train`: the same seeded shuffle
        // per epoch, one `partial_fit` step per visited example.
        let mut online = LinearSvm::new(data.dim(), data.class_count(), &config);
        let mut rng = StdRng::seed_from_u64(train_seed);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let examples = data.examples();
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for &idx in &order {
                online.partial_fit(&examples[idx].features, examples[idx].label);
            }
        }
        // Bit-for-bit: same update sequence, same floating-point operations.
        prop_assert_eq!(&batch, &online);
        prop_assert_eq!(online.examples_seen(), (config.epochs * data.len()) as u64);
    }

    #[test]
    fn normalizer_fit_is_a_running_snapshot(
        seed in 0u64..500,
        rows in 1usize..60,
        dim in 1usize..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Dataset::new(dim);
        for _ in 0..rows {
            let features: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1e3..1e3)).collect();
            data.push(features, 0);
        }
        let batch = Normalizer::fit(&data);
        let mut running = RunningNormalizer::new(dim);
        for e in data.examples() {
            running.observe(&e.features);
        }
        prop_assert_eq!(&running.snapshot(), &batch);
        let probe: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1e3..1e3)).collect();
        prop_assert_eq!(running.scale().apply(&probe), batch.apply(&probe));
    }

    #[test]
    fn running_normalizer_scale_matches_inline_recomputation(
        seed in 0u64..500,
        rows in 1usize..40,
        dim in 1usize..8,
    ) {
        // The normaliser's divisor: the standard deviation, or 1 for a
        // degenerate (constant or NaN) column.
        fn safe_std(s: f64) -> f64 {
            if s > 1e-12 {
                s
            } else {
                1.0
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        // Some streams hold one column constant, so the fallback divisor
        // is exercised past the first row too.
        let constant = rng.gen_bool(0.5).then(|| rng.gen_range(0..dim));
        let mut running = RunningNormalizer::new(dim);
        let mut stats = vec![RunningStats::default(); dim];
        let mut observed = Dataset::new(dim);
        let mut out = Vec::new();
        for _ in 0..rows {
            let features: Vec<f64> = (0..dim)
                .map(|j| if constant == Some(j) { 42.0 } else { rng.gen_range(-1e3..1e3) })
                .collect();
            running.observe(&features);
            for (s, &x) in stats.iter_mut().zip(&features) {
                s.push(x);
            }
            observed.push(features, 0);
            // Probes one column short, exact and one column long.
            let width = rng.gen_range(dim - 1..=dim + 1);
            let probe: Vec<f64> = (0..width).map(|_| rng.gen_range(-2e3..2e3)).collect();
            out.clear();
            running.scale().transform_into(&probe, &mut out);
            let inline: Vec<u64> = probe
                .iter()
                .zip(&stats)
                .map(|(x, s)| ((x - s.mean()) / safe_std(s.std_dev())).to_bits())
                .collect();
            let bits: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&bits, &inline);
            // The snapshot derives the scale afresh: it must be the one the
            // transform applied, and the one a batch fit of the same rows
            // derives.
            let snapshot = running.snapshot();
            let frozen: Vec<u64> = snapshot.apply(&probe).iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(frozen, inline);
            prop_assert_eq!(snapshot, Normalizer::fit(&observed));
        }
    }
}
