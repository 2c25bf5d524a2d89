//! Labelled datasets, normalisation and train/test splitting.

use crate::nn::{stack_or_heap, STACK_HIDDEN};
use crate::stream::RunningStats;

/// One labelled training/evaluation example.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledExample {
    /// The feature vector.
    pub features: Vec<f64>,
    /// The class label (a dense index).
    pub label: usize,
}

/// A collection of labelled examples with a fixed feature dimension.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dataset {
    dim: usize,
    examples: Vec<LabeledExample>,
}

impl Dataset {
    /// Creates an empty dataset for `dim`-dimensional features.
    pub fn new(dim: usize) -> Self {
        Dataset {
            dim,
            examples: Vec::new(),
        }
    }

    /// The feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The examples.
    pub fn examples(&self) -> &[LabeledExample] {
        &self.examples
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// Returns `true` if there are no examples.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Adds an example.
    ///
    /// # Panics
    ///
    /// Panics if the feature vector does not match the dataset dimension.
    pub fn push(&mut self, features: Vec<f64>, label: usize) {
        assert_eq!(
            features.len(),
            self.dim,
            "feature vector has {} dimensions, dataset expects {}",
            features.len(),
            self.dim
        );
        self.examples.push(LabeledExample { features, label });
    }

    /// The number of distinct classes (`max label + 1`, 0 when empty).
    pub fn class_count(&self) -> usize {
        self.examples.iter().map(|e| e.label + 1).max().unwrap_or(0)
    }

    /// Fits a z-score normaliser on this dataset.
    pub fn fit_normalizer(&self) -> Normalizer {
        Normalizer::fit(self)
    }

    /// Returns a copy with every feature column z-score normalised by `norm`.
    pub fn normalized(&self, norm: &Normalizer) -> Dataset {
        let examples = self
            .examples
            .iter()
            .map(|e| LabeledExample {
                features: norm.apply(&e.features),
                label: e.label,
            })
            .collect();
        Dataset {
            dim: self.dim,
            examples,
        }
    }
}

/// Per-column z-score normalisation fitted on a training set.
///
/// This is the **frozen snapshot** form: fixed means and standard deviations
/// fitted once (on a batch training set, or taken from a
/// [`RunningNormalizer`] at any point of a stream).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Normalizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

/// Replaces a degenerate scale with 1.0 so constant (zero-variance) columns
/// pass through centred instead of dividing by zero into NaN/inf features.
/// The `s > …` comparison is false for a NaN scale (conceivable only through
/// pathological float accumulation), so that also takes the safe fallback.
fn safe_std(s: f64) -> f64 {
    if s > 1e-12 {
        s
    } else {
        1.0
    }
}

impl Normalizer {
    /// Fits means and standard deviations per feature column: the dataset
    /// folds into a [`RunningNormalizer`]'s statistics, and the scale is
    /// derived once, by the final [`snapshot`](RunningNormalizer::snapshot).
    pub fn fit(data: &Dataset) -> Self {
        let mut running = RunningNormalizer::new(data.dim());
        for e in data.examples() {
            running.fold(&e.features);
        }
        running.snapshot()
    }

    /// The scale of per-column statistics: each column's mean and safe
    /// standard deviation.
    fn derive(stats: &[RunningStats]) -> Self {
        Normalizer {
            means: stats.iter().map(RunningStats::mean).collect(),
            stds: stats.iter().map(|s| safe_std(s.std_dev())).collect(),
        }
    }

    /// Applies the normalisation to one feature vector.
    pub fn apply(&self, features: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(features.len().min(self.means.len()));
        self.transform_into(features, &mut out);
        out
    }

    /// Appends the normalised form of `features` to `out` — the
    /// allocation-free counterpart of [`apply`](Self::apply).
    pub fn transform_into(&self, features: &[f64], out: &mut Vec<f64>) {
        out.extend(self.transformed(features));
    }

    /// The normalised form of `features`, one value per column that both
    /// `features` and the normaliser cover (`apply`'s values, uncollected).
    fn transformed<'a>(&'a self, features: &'a [f64]) -> impl Iterator<Item = f64> + 'a {
        features
            .iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(x, (m, s))| (x - m) / s)
    }

    /// `apply`'s values written into the front of `stack`, or into `heap`
    /// when more than [`STACK_HIDDEN`] columns are covered: the per-window
    /// buffer of the adversaries' votes and training steps.
    pub(crate) fn transform_onto<'a>(
        &self,
        features: &[f64],
        stack: &'a mut [f64; STACK_HIDDEN],
        heap: &'a mut Vec<f64>,
    ) -> &'a mut [f64] {
        let x = stack_or_heap(stack, heap, features.len().min(self.dim()));
        for (xi, v) in x.iter_mut().zip(self.transformed(features)) {
            *xi = v;
        }
        x
    }

    /// The feature dimensionality the normaliser was fitted on.
    pub fn dim(&self) -> usize {
        self.means.len()
    }
}

/// Streaming z-score normalisation: per-column [`RunningStats`] updated one
/// example at a time, applying the **current** statistics to each vector.
///
/// This is the online adversary's replacement for the static [`Normalizer`]:
/// there is no training set to fit on up front, so the scale estimates evolve
/// with the stream. O(dim) state. The scale the statistics derive (each
/// column's mean and safe standard deviation) is kept as a [`Normalizer`]
/// and refreshed in [`observe`](Self::observe), where the statistics move,
/// so every transform is the frozen normaliser's formula and derives
/// nothing; [`snapshot`](Self::snapshot) hands that scale out.
#[derive(Debug, Clone, Default)]
pub struct RunningNormalizer {
    stats: Vec<RunningStats>,
    scale: Normalizer,
}

impl RunningNormalizer {
    /// Creates a normalizer for `dim`-dimensional features.
    pub fn new(dim: usize) -> Self {
        let stats = vec![RunningStats::default(); dim];
        RunningNormalizer {
            scale: Normalizer::derive(&stats),
            stats,
        }
    }

    /// Absorbs one feature vector into the per-column statistics and
    /// re-derives the kept scale of every column it moved.
    pub fn observe(&mut self, features: &[f64]) {
        let Normalizer { means, stds } = &mut self.scale;
        for (((s, m), sd), &x) in self
            .stats
            .iter_mut()
            .zip(means.iter_mut())
            .zip(stds.iter_mut())
            .zip(features)
        {
            s.push(x);
            *m = s.mean();
            *sd = safe_std(s.std_dev());
        }
    }

    /// Absorbs one feature vector into the statistics only, leaving the kept
    /// scale behind them: for a normalizer that is snapshotted, not applied.
    fn fold(&mut self, features: &[f64]) {
        for (s, &x) in self.stats.iter_mut().zip(features) {
            s.push(x);
        }
    }

    /// The scale of the current statistics, the normalisation every
    /// prediction and training step applies.
    pub fn scale(&self) -> &Normalizer {
        &self.scale
    }

    /// Freezes the current statistics into a static [`Normalizer`], derived
    /// afresh from them. After [`observe`](Self::observe) it equals the kept
    /// scale, so applying the snapshot is bit-identical to applying
    /// [`scale`](Self::scale).
    pub fn snapshot(&self) -> Normalizer {
        Normalizer::derive(&self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_dataset() -> Dataset {
        let mut d = Dataset::new(2);
        for i in 0..40 {
            d.push(vec![i as f64, 100.0], 0);
            d.push(vec![i as f64, 200.0], 1);
        }
        d
    }

    #[test]
    fn push_and_accessors() {
        let d = toy_dataset();
        assert_eq!(d.dim(), 2);
        assert_eq!(d.len(), 80);
        assert!(!d.is_empty());
        assert_eq!(d.class_count(), 2);
        assert_eq!(d.examples().iter().filter(|e| e.label == 0).count(), 40);
        assert_eq!(d.examples().iter().filter(|e| e.label == 1).count(), 40);
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let mut d = Dataset::new(3);
        d.push(vec![1.0, 2.0], 0);
    }

    #[test]
    fn normalizer_zero_means_unit_std() {
        let d = toy_dataset();
        let norm = d.fit_normalizer();
        let nd = d.normalized(&norm);
        for col in 0..2 {
            let values: Vec<f64> = nd.examples().iter().map(|e| e.features[col]).collect();
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
            assert!(mean.abs() < 1e-9, "column {col} mean {mean}");
            // Column 1 has two distinct values, std must be 1 after scaling.
            assert!(var.sqrt() > 0.5, "column {col} std {}", var.sqrt());
        }
    }

    #[test]
    fn constant_columns_do_not_divide_by_zero() {
        // Regression test: a zero-variance (constant) feature column must not
        // produce NaN/inf features on either the batch or the running path.
        let mut d = Dataset::new(2);
        for i in 0..5 {
            d.push(vec![3.0, i as f64], 0);
        }
        let norm = d.fit_normalizer();
        let out = norm.apply(&[3.0, 2.0]);
        assert!(out[0].abs() < 1e-12);
        assert!(out.iter().all(|v| v.is_finite()), "batch: {out:?}");
        // Off-mean values of the constant column stay finite too (centred,
        // unscaled).
        let off = norm.apply(&[7.5, 2.0]);
        assert!(off.iter().all(|v| v.is_finite()), "batch off-mean: {off:?}");
        assert!((off[0] - 4.5).abs() < 1e-12);

        let mut running = RunningNormalizer::new(2);
        for e in d.examples() {
            running.observe(&e.features);
        }
        let out = running.scale().apply(&[3.0, 2.0]);
        assert!(out.iter().all(|v| v.is_finite()), "running: {out:?}");
        let off = running.scale().apply(&[7.5, 2.0]);
        assert!(
            off.iter().all(|v| v.is_finite()),
            "running off-mean: {off:?}"
        );
    }

    #[test]
    fn running_normalizer_matches_batch_fit() {
        let d = toy_dataset();
        let batch = d.fit_normalizer();
        let mut running = RunningNormalizer::new(d.dim());
        for e in d.examples() {
            running.observe(&e.features);
        }
        // Normalizer::fit is literally a running snapshot, so the frozen
        // statistics agree exactly, and apply() agrees between the running
        // and snapshot forms.
        assert_eq!(running.snapshot(), batch);
        let x = &d.examples()[7].features;
        assert_eq!(running.scale().apply(x), batch.apply(x));
    }

    #[test]
    fn running_normalizer_evolves_with_the_stream() {
        let mut running = RunningNormalizer::new(1);
        running.observe(&[0.0]);
        // One sample: zero variance, centred but unscaled.
        assert_eq!(running.scale().apply(&[1.0]), vec![1.0]);
        running.observe(&[10.0]);
        // Mean 5, std 5 now.
        let z = running.scale().apply(&[10.0]);
        assert!((z[0] - 1.0).abs() < 1e-12);
    }
}
