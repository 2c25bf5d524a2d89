//! Evaluation metrics: confusion matrix, per-class accuracy and the paper's
//! false-positive rate.
//!
//! The paper uses two metrics (§IV):
//!
//! * **accuracy** — per application, the fraction of that application's
//!   instances classified correctly (i.e. recall), and **mean accuracy**, the
//!   average recognition probability over the seven applications;
//! * **false positive (FP)** — per application X, the fraction of *other*
//!   applications' instances that were classified as X.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A confusion matrix over `n` classes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    classes: usize,
    /// Flat row-major `classes × classes` counts: `counts[true · classes +
    /// predicted]`, so a fresh matrix is one allocation.
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// Creates an empty matrix for `classes` classes.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is zero.
    pub fn new(classes: usize) -> Self {
        assert!(classes > 0, "a confusion matrix needs at least one class");
        ConfusionMatrix {
            classes,
            counts: vec![0; classes * classes],
        }
    }

    /// The row of counts for instances whose true label is `class`.
    fn row(&self, class: usize) -> &[u64] {
        &self.counts[class * self.classes..(class + 1) * self.classes]
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes
    }

    /// Records one classification outcome.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn record(&mut self, true_label: usize, predicted: usize) {
        assert!(
            true_label < self.classes && predicted < self.classes,
            "label out of range: true {true_label}, predicted {predicted}, classes {}",
            self.classes
        );
        self.counts[true_label * self.classes + predicted] += 1;
    }

    /// Records `count` identical classification outcomes at once — the O(1)
    /// bulk form of [`record`](Self::record).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn add_counts(&mut self, true_label: usize, predicted: usize, count: u64) {
        assert!(
            true_label < self.classes && predicted < self.classes,
            "label out of range: true {true_label}, predicted {predicted}, classes {}",
            self.classes
        );
        self.counts[true_label * self.classes + predicted] += count;
    }

    /// Returns a copy of this matrix widened to `classes` classes, with every
    /// cell carried over in one addition (no per-instance replay).
    ///
    /// # Panics
    ///
    /// Panics if `classes` is smaller than the current class count.
    pub fn widen_to(&self, classes: usize) -> ConfusionMatrix {
        assert!(
            classes >= self.classes,
            "cannot widen a {}-class matrix to {classes} classes",
            self.classes
        );
        if classes == self.classes {
            return self.clone();
        }
        let mut wide = ConfusionMatrix::new(classes);
        for t in 0..self.classes {
            for p in 0..self.classes {
                let count = self.count(t, p);
                if count > 0 {
                    wide.add_counts(t, p, count);
                }
            }
        }
        wide
    }

    /// The raw count of instances of `true_label` predicted as `predicted`.
    pub fn count(&self, true_label: usize, predicted: usize) -> u64 {
        self.row(true_label)[predicted]
    }

    /// Total number of recorded instances.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Number of instances whose true label is `class`.
    pub fn class_total(&self, class: usize) -> u64 {
        self.row(class).iter().sum()
    }

    /// Per-class accuracy (recall): fraction of class-`c` instances predicted
    /// as `c`. Returns 0 for classes with no instances.
    pub fn class_accuracy(&self, class: usize) -> f64 {
        let total = self.class_total(class);
        if total == 0 {
            return 0.0;
        }
        self.count(class, class) as f64 / total as f64
    }

    /// The paper's mean accuracy: average per-class accuracy over the classes
    /// that actually have instances.
    pub fn mean_accuracy(&self) -> f64 {
        let present: Vec<usize> = (0..self.classes)
            .filter(|&c| self.class_total(c) > 0)
            .collect();
        if present.is_empty() {
            return 0.0;
        }
        present.iter().map(|&c| self.class_accuracy(c)).sum::<f64>() / present.len() as f64
    }

    /// The paper's false-positive rate for `class`: the fraction of instances
    /// whose true label is *not* `class` that were nevertheless predicted as
    /// `class`.
    pub fn false_positive_rate(&self, class: usize) -> f64 {
        let mut fp = 0u64;
        let mut negatives = 0u64;
        for t in 0..self.classes {
            if t == class {
                continue;
            }
            negatives += self.class_total(t);
            fp += self.count(t, class);
        }
        if negatives == 0 {
            0.0
        } else {
            fp as f64 / negatives as f64
        }
    }

    /// Mean false-positive rate over classes that have at least one negative instance.
    pub fn mean_false_positive_rate(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        let rates: Vec<f64> = (0..self.classes)
            .map(|c| self.false_positive_rate(c))
            .collect();
        rates.iter().sum::<f64>() / rates.len() as f64
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "confusion matrix ({} classes, {} instances):",
            self.classes,
            self.total()
        )?;
        for (t, row) in self.counts.chunks_exact(self.classes).enumerate() {
            write!(f, "  true {t}:")?;
            for c in row {
                write!(f, " {c:6}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a matrix from `(true, predicted)` pairs.
    fn from_pairs(classes: usize, pairs: &[(usize, usize)]) -> ConfusionMatrix {
        let mut m = ConfusionMatrix::new(classes);
        for &(t, p) in pairs {
            m.record(t, p);
        }
        m
    }

    #[test]
    fn perfect_classifier_metrics() {
        let mut m = ConfusionMatrix::new(3);
        for c in 0..3 {
            for _ in 0..10 {
                m.record(c, c);
            }
        }
        assert_eq!(m.total(), 30);
        assert_eq!(m.mean_accuracy(), 1.0);
        for c in 0..3 {
            assert_eq!(m.class_accuracy(c), 1.0);
            assert_eq!(m.false_positive_rate(c), 0.0);
        }
    }

    #[test]
    fn degenerate_always_predicts_class_zero() {
        let mut m = ConfusionMatrix::new(2);
        for _ in 0..30 {
            m.record(0, 0);
        }
        for _ in 0..70 {
            m.record(1, 0);
        }
        assert_eq!(m.class_accuracy(0), 1.0);
        assert_eq!(m.class_accuracy(1), 0.0);
        assert!((m.mean_accuracy() - 0.5).abs() < 1e-12);
        // All 70 class-1 instances are false positives for class 0.
        assert!((m.false_positive_rate(0) - 1.0).abs() < 1e-12);
        assert_eq!(m.false_positive_rate(1), 0.0);
    }

    #[test]
    fn from_pairs_and_counts() {
        let m = from_pairs(3, &[(0, 0), (0, 1), (1, 1), (2, 1)]);
        assert_eq!(m.count(0, 1), 1);
        assert_eq!(m.class_total(0), 2);
        assert_eq!(m.class_count(), 3);
        assert!((m.class_accuracy(0) - 0.5).abs() < 1e-12);
        // FP for class 1: true 0 predicted 1 (1) + true 2 predicted 1 (1) over 3 negatives.
        assert!((m.false_positive_rate(1) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_metrics_are_zero() {
        let m = ConfusionMatrix::new(4);
        assert_eq!(m.mean_accuracy(), 0.0);
        assert_eq!(m.mean_false_positive_rate(), 0.0);
        assert_eq!(m.class_accuracy(2), 0.0);
    }

    #[test]
    fn display_contains_counts() {
        let m = from_pairs(2, &[(0, 0), (1, 0)]);
        let s = m.to_string();
        assert!(s.contains("confusion matrix"));
        assert!(s.contains("true 0"));
    }

    /// A 7-class matrix touched by every constructor and combinator: a
    /// 5-class `from_pairs` widened to 7, plus bulk counts, one of them wider
    /// than the six-character column.
    fn seven_class_golden() -> ConfusionMatrix {
        let pairs: Vec<(usize, usize)> = (0..40).map(|i| (i % 5, (i * 3) % 5)).collect();
        let mut m = from_pairs(5, &pairs).widen_to(7);
        m.add_counts(5, 5, 123);
        m.add_counts(6, 2, 4_567_890);
        m.add_counts(0, 6, 7);
        m.record(6, 6);
        m
    }

    #[test]
    fn display_and_accuracies_are_pinned_for_seven_classes() {
        // Captured from the nested-row storage this layout replaced.
        let m = seven_class_golden();
        assert_eq!(
            m.to_string(),
            "confusion matrix (7 classes, 4568061 instances):\n\
             \x20 true 0:      8      0      0      0      0      0      7\n\
             \x20 true 1:      0      0      0      8      0      0      0\n\
             \x20 true 2:      0      8      0      0      0      0      0\n\
             \x20 true 3:      0      0      0      0      8      0      0\n\
             \x20 true 4:      0      0      8      0      0      0      0\n\
             \x20 true 5:      0      0      0      0      0    123      0\n\
             \x20 true 6:      0      0 4567890      0      0      0      1\n"
        );
        assert_eq!(m.total(), 4_568_061);
        assert_eq!(m.mean_accuracy(), 0.2190476503218204);
        assert_eq!(m.mean_false_positive_rate(), 0.148735399023235);
        let accs: Vec<f64> = (0..7).map(|c| m.class_accuracy(c)).collect();
        assert_eq!(
            accs,
            [
                0.5333333333333333,
                0.0,
                0.0,
                0.0,
                0.0,
                1.0,
                2.1891940941673082e-7
            ]
        );
        let fp: Vec<f64> = (0..7).map(|c| m.false_positive_rate(c)).collect();
        assert_eq!(
            fp,
            [
                0.0,
                1.7512931658192231e-6,
                0.9999660686949122,
                1.7512931658192231e-6,
                1.7512931658192231e-6,
                0.0,
                0.041176470588235294
            ]
        );
        // Widening to the same size is a copy; widening further pads with
        // empty rows and columns.
        assert_eq!(m.widen_to(7), m);
        let wide = m.widen_to(9);
        assert_eq!(wide.total(), m.total());
        assert_eq!(wide.count(6, 2), 4_567_890);
        assert_eq!(wide.class_total(8), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_label_panics() {
        let mut m = ConfusionMatrix::new(2);
        m.record(0, 2);
    }
}
