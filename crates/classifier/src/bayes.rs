//! Gaussian naive Bayes.
//!
//! The third member of both adversaries, next to the paper's SVM and NN. In
//! their majority votes it decides every window the SVM and the NN disagree
//! on, and the batch adversary's
//! [`best_of`](crate::ensemble::AdversaryEnsemble::best_of) ranks it with
//! the other two, so it is the reported classifier whenever its mean
//! accuracy is the highest.
//!
//! The model is stored as **incremental sufficient statistics** — per-class
//! counts plus Welford-style running means and centred second moments — so it
//! learns online via [`OnlineClassifier::partial_fit`] in O(classes × dim)
//! state; the batch [`train`](GaussianNaiveBayes::train) entry point is a
//! thin wrapper that feeds the dataset through `partial_fit` once, in dataset
//! order. Welford's update is numerically stable for the same reason the
//! shifted accumulation in [`RunningStats`](crate::stream::RunningStats) is:
//! the second moment is accumulated already centred, so large means with tiny
//! spreads never catastrophically cancel.
//!
//! Derived state is kept current where the model changes, not where it is
//! read: next to the statistics sits a `(variance, ln variance)` table, and
//! `partial_fit` rewrites the touched class's row (one `ln` per feature).
//! Every read — [`predict`](Classifier::predict) and
//! [`log_posteriors`](GaussianNaiveBayes::log_posteriors) — goes through the
//! one log-likelihood formula over that table, so none of them takes a
//! per-feature `ln`; only the class priors (which move with every example of
//! any class) take one `ln` per class per call. A frozen model's priors no
//! longer move, so the batch adversary's inference plan takes them once
//! (`log_priors`) and arbitrates through `argmax_posterior`.

use crate::dataset::Dataset;
use crate::{Classifier, OnlineClassifier};

/// A Gaussian naive Bayes classifier over incremental sufficient statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianNaiveBayes {
    dim: usize,
    /// Examples absorbed in total (cached sum of `counts`).
    total: u64,
    /// Examples absorbed per class.
    counts: Vec<u64>,
    /// Welford running mean, flat row-major `classes × dim`.
    means: Vec<f64>,
    /// Welford centred second moment `M₂ = Σ (x − mean)²`, flat row-major
    /// `classes × dim` (variance = `M₂ / count`).
    m2s: Vec<f64>,
    /// `(variance, ln variance)` per class and feature, flat row-major
    /// `classes × dim`: the floored variance of the statistics above,
    /// refreshed row by row in `partial_fit`.
    variances: Vec<(f64, f64)>,
}

/// Variance floor to keep the log-likelihood finite for constant features.
const VARIANCE_FLOOR: f64 = 1e-6;

impl GaussianNaiveBayes {
    /// Creates an untrained model for `dim`-dimensional features over
    /// `classes` classes. Absorb examples with
    /// [`partial_fit`](OnlineClassifier::partial_fit).
    ///
    /// # Panics
    ///
    /// Panics if `classes` is zero.
    pub fn new(dim: usize, classes: usize) -> Self {
        assert!(classes > 0, "naive Bayes needs at least one class");
        GaussianNaiveBayes {
            dim,
            total: 0,
            counts: vec![0; classes],
            means: vec![0.0; classes * dim],
            m2s: vec![0.0; classes * dim],
            // An unseen class reads the floor on every feature.
            variances: vec![(VARIANCE_FLOOR, VARIANCE_FLOOR.ln()); classes * dim],
        }
    }

    /// Fits per-class feature means/variances and class priors — a thin
    /// wrapper over one [`partial_fit`](OnlineClassifier::partial_fit) pass in
    /// dataset order (the equivalence is property-tested).
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn train(data: &Dataset) -> Self {
        assert!(
            !data.is_empty(),
            "cannot train naive Bayes on an empty dataset"
        );
        let mut nb = GaussianNaiveBayes::new(data.dim(), data.class_count());
        for e in data.examples() {
            nb.partial_fit(&e.features, e.label);
        }
        nb
    }

    /// Per-class log posterior (up to a constant) for a feature vector.
    pub fn log_posteriors(&self, features: &[f64]) -> Vec<f64> {
        let total = self.total.max(1) as f64;
        (0..self.counts.len())
            .map(|c| self.log_posterior(c, self.log_prior(c, total), features))
            .collect()
    }

    /// Every class's log prior, as [`predict`](Classifier::predict) takes
    /// them on each call.
    pub(crate) fn log_priors(&self) -> Vec<f64> {
        let total = self.total.max(1) as f64;
        (0..self.counts.len())
            .map(|c| self.log_prior(c, total))
            .collect()
    }

    /// `ln` of class `c`'s prior, with `total` the examples absorbed (at
    /// least 1).
    fn log_prior(&self, c: usize, total: f64) -> f64 {
        (self.counts[c] as f64 / total).max(1e-12).ln()
    }

    /// Class `c`'s log posterior: `log_prior` plus the Gaussian
    /// log-likelihood of each feature, read off the variance table.
    fn log_posterior(&self, c: usize, log_prior: f64, features: &[f64]) -> f64 {
        let ln_2pi = (2.0 * std::f64::consts::PI).ln();
        let row = c * self.dim..(c + 1) * self.dim;
        let mut lp = log_prior;
        for ((x, m), (v, ln_v)) in features
            .iter()
            .take(self.dim)
            .zip(&self.means[row.clone()])
            .zip(&self.variances[row])
        {
            lp += -0.5 * ((x - m).powi(2) / v + ln_v + ln_2pi);
        }
        lp
    }

    /// The first class with the highest log posterior, given every class's
    /// log prior.
    pub(crate) fn argmax_posterior(
        &self,
        log_priors: impl Iterator<Item = f64>,
        features: &[f64],
    ) -> usize {
        let mut best = 0;
        let mut best_value = f64::NEG_INFINITY;
        for (c, log_prior) in log_priors.enumerate() {
            let lp = self.log_posterior(c, log_prior, features);
            if lp > best_value {
                best_value = lp;
                best = c;
            }
        }
        best
    }
}

impl Classifier for GaussianNaiveBayes {
    fn predict(&self, features: &[f64]) -> usize {
        // Streaming argmax over `log_posteriors`, never collected.
        let total = self.total.max(1) as f64;
        let log_priors = (0..self.counts.len()).map(|c| self.log_prior(c, total));
        self.argmax_posterior(log_priors, features)
    }

    fn name(&self) -> &'static str {
        "naive-bayes"
    }
}

impl OnlineClassifier for GaussianNaiveBayes {
    fn partial_fit(&mut self, features: &[f64], label: usize) {
        assert!(
            label < self.counts.len(),
            "label {label} out of range for {} classes",
            self.counts.len()
        );
        self.counts[label] += 1;
        self.total += 1;
        let n = self.counts[label] as f64;
        let row = label * self.dim..(label + 1) * self.dim;
        for ((&x, m), m2) in features
            .iter()
            .take(self.dim)
            .zip(&mut self.means[row.clone()])
            .zip(&mut self.m2s[row.clone()])
        {
            // Welford: centre against the running mean before and after the
            // mean update.
            let delta = x - *m;
            *m += delta / n;
            *m2 += delta * (x - *m);
        }
        // The count moved, so every variance of the row did.
        for (vl, m2) in self.variances[row.clone()].iter_mut().zip(&self.m2s[row]) {
            let v = (m2 / n).max(VARIANCE_FLOOR);
            *vl = (v, v.ln());
        }
    }

    fn examples_seen(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn gaussian_blobs(seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Dataset::new(3);
        let centers = [[0.0, 0.0, 0.0], [5.0, 5.0, 0.0], [0.0, 5.0, 5.0]];
        for (label, c) in centers.iter().enumerate() {
            for _ in 0..80 {
                let features: Vec<f64> = c.iter().map(|m| m + rng.gen_range(-1.0..1.0)).collect();
                data.push(features, label);
            }
        }
        data
    }

    #[test]
    fn separates_gaussian_blobs() {
        let data = gaussian_blobs(1);
        let nb = GaussianNaiveBayes::train(&data);
        assert_eq!(nb.counts.len(), 3);
        let correct = nb
            .predict_dataset(&data)
            .iter()
            .filter(|(t, p)| t == p)
            .count();
        assert!(correct as f64 / data.len() as f64 > 0.95);
        assert_eq!(nb.name(), "naive-bayes");
    }

    #[test]
    fn streaming_predict_matches_argmax_over_log_posteriors() {
        use crate::svm::argmax;
        let data = gaussian_blobs(9);
        let nb = GaussianNaiveBayes::train(&data);
        for e in data.examples() {
            assert_eq!(
                nb.predict(&e.features),
                argmax(&nb.log_posteriors(&e.features))
            );
        }
    }

    #[test]
    fn constant_features_do_not_break_log_likelihood() {
        let mut data = Dataset::new(2);
        for i in 0..20 {
            data.push(vec![1.0, i as f64], 0);
            data.push(vec![1.0, 100.0 + i as f64], 1);
        }
        let nb = GaussianNaiveBayes::train(&data);
        let lp = nb.log_posteriors(&[1.0, 5.0]);
        assert!(lp.iter().all(|v| v.is_finite()));
        assert_eq!(nb.predict(&[1.0, 5.0]), 0);
        assert_eq!(nb.predict(&[1.0, 110.0]), 1);
    }

    #[test]
    fn priors_reflect_class_imbalance() {
        let mut data = Dataset::new(1);
        for _ in 0..90 {
            data.push(vec![0.0], 0);
        }
        for _ in 0..10 {
            data.push(vec![0.1], 1);
        }
        let nb = GaussianNaiveBayes::train(&data);
        // With heavily overlapping likelihoods the prior dominates.
        assert_eq!(nb.predict(&[0.05]), 0);
    }

    #[test]
    fn partial_fit_matches_batch_train_exactly() {
        let data = gaussian_blobs(7);
        let batch = GaussianNaiveBayes::train(&data);
        let mut online = GaussianNaiveBayes::new(data.dim(), data.class_count());
        for e in data.examples() {
            online.partial_fit(&e.features, e.label);
        }
        assert_eq!(batch, online);
        assert_eq!(online.examples_seen(), data.len() as u64);
    }

    #[test]
    fn replayed_epochs_do_not_change_predictions() {
        // Duplicating the data k times scales every sufficient statistic by k,
        // leaving priors, means and variances (hence predictions) unchanged.
        let data = gaussian_blobs(9);
        let one = GaussianNaiveBayes::train(&data);
        let mut three = GaussianNaiveBayes::new(data.dim(), data.class_count());
        for _ in 0..3 {
            for e in data.examples() {
                three.partial_fit(&e.features, e.label);
            }
        }
        for e in data.examples() {
            assert_eq!(one.predict(&e.features), three.predict(&e.features));
        }
    }

    #[test]
    fn untrained_class_keeps_posteriors_finite() {
        let mut nb = GaussianNaiveBayes::new(2, 3);
        nb.partial_fit(&[1.0, 2.0], 0);
        let lp = nb.log_posteriors(&[1.0, 2.0]);
        assert_eq!(lp.len(), 3);
        assert!(lp.iter().all(|v| v.is_finite()));
        assert_eq!(nb.predict(&[1.0, 2.0]), 0);
    }

    #[test]
    #[should_panic]
    fn empty_dataset_panics() {
        let _ = GaussianNaiveBayes::train(&Dataset::new(2));
    }
}
