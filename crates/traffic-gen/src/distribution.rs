//! Empirical packet-size distributions (histograms, PDF, CDF).
//!
//! Figure 1 of the paper plots the packet-size PDF of the seven applications;
//! Figures 4(e) and 5(e) plot the PDFs of the original traffic and of each
//! virtual interface under Orthogonal Reshaping. This module provides the
//! histogram machinery those figures (and the morphing defense) are built on.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// An empirical distribution over packet sizes, stored as a fixed-width
/// histogram over `0..=max_size`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SizeHistogram {
    bin_width: usize,
    max_size: usize,
    counts: Vec<u64>,
    total: u64,
}

impl SizeHistogram {
    /// Creates an empty histogram covering sizes `0..=max_size` with bins of
    /// `bin_width` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is zero or larger than `max_size`.
    pub fn new(max_size: usize, bin_width: usize) -> Self {
        assert!(bin_width > 0, "bin width must be positive");
        assert!(
            bin_width <= max_size,
            "bin width {bin_width} larger than max size {max_size}"
        );
        let bins = max_size / bin_width + 1;
        SizeHistogram {
            bin_width,
            max_size,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Builds a histogram from an iterator of sizes.
    pub fn from_sizes<I: IntoIterator<Item = usize>>(
        sizes: I,
        max_size: usize,
        bin_width: usize,
    ) -> Self {
        let mut h = SizeHistogram::new(max_size, bin_width);
        for s in sizes {
            h.add(s);
        }
        h
    }

    /// The configured bin width in bytes.
    pub fn bin_width(&self) -> usize {
        self.bin_width
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    fn bin_of(&self, size: usize) -> usize {
        (size.min(self.max_size)) / self.bin_width
    }

    /// Records one observation. Sizes above `max_size` are clamped into the
    /// last bin.
    pub fn add(&mut self, size: usize) {
        let bin = self.bin_of(size);
        self.counts[bin] += 1;
        self.total += 1;
    }

    /// The lower edge (inclusive) of bin `i`, in bytes.
    pub fn bin_lower_edge(&self, i: usize) -> usize {
        i * self.bin_width
    }

    /// The empirical probability mass per bin (sums to 1 unless empty).
    pub fn pdf(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// The empirical cumulative distribution function per bin upper edge.
    pub fn cdf(&self) -> Vec<f64> {
        let pdf = self.pdf();
        let mut acc = 0.0;
        pdf.iter()
            .map(|p| {
                acc += p;
                acc
            })
            .collect()
    }

    /// The mean observed size (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let midpoint = (self.bin_lower_edge(i) + self.bin_width / 2).min(self.max_size);
                c as f64 * midpoint as f64
            })
            .sum();
        sum / self.total as f64
    }

    /// The smallest size `s` such that `CDF(s) >= q`, for `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> usize {
        let q = q.clamp(0.0, 1.0);
        let cdf = self.cdf();
        for (i, c) in cdf.iter().enumerate() {
            if *c >= q {
                return self.bin_lower_edge(i) + self.bin_width / 2;
            }
        }
        self.max_size
    }

    /// Samples a size from the empirical distribution (uniform within a bin).
    ///
    /// # Panics
    ///
    /// Panics if the histogram is empty.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        assert!(self.total > 0, "cannot sample from an empty histogram");
        let target = rng.gen_range(0..self.total);
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if target < acc {
                let lo = self.bin_lower_edge(i);
                let hi = (lo + self.bin_width - 1).min(self.max_size);
                return if lo == hi { lo } else { rng.gen_range(lo..=hi) };
            }
        }
        self.max_size
    }
}

/// Summary statistics of a sequence of f64 samples (sizes or inter-arrival times).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SummaryStats {
    /// Number of samples.
    pub count: usize,
    /// Minimum (0 when empty).
    pub min: f64,
    /// Maximum (0 when empty).
    pub max: f64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Population standard deviation (0 when empty).
    pub std_dev: f64,
}

impl SummaryStats {
    /// Computes summary statistics over a slice of samples.
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return SummaryStats::default();
        }
        let count = samples.len();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &s in samples {
            min = min.min(s);
            max = max.max(s);
            sum += s;
        }
        let mean = sum / count as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / count as f64;
        SummaryStats {
            count,
            min,
            max,
            mean,
            std_dev: var.sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn histogram_counts_and_pdf() {
        let mut h = SizeHistogram::new(1576, 100);
        for s in [50, 150, 150, 1570, 2000] {
            h.add(s);
        }
        assert_eq!(h.total(), 5);
        assert!(!h.is_empty());
        let pdf = h.pdf();
        assert_eq!(pdf[0], 1.0 / 5.0);
        assert_eq!(pdf[1], 2.0 / 5.0);
        // 2000 clamps into the last bin together with 1570.
        assert_eq!(pdf[15], 2.0 / 5.0);
        assert!((pdf.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let cdf = h.cdf();
        assert!((cdf.last().unwrap() - 1.0).abs() < 1e-12);
        assert!(cdf.windows(2).all(|w| w[1] >= w[0]), "cdf must be monotone");
    }

    #[test]
    fn empty_histogram_behaviour() {
        let h = SizeHistogram::new(1576, 8);
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert!(h.pdf().iter().all(|&p| p == 0.0));
    }

    #[test]
    fn mean_and_quantile_are_sane() {
        let sizes = vec![100usize; 500].into_iter().chain(vec![1500usize; 500]);
        let h = SizeHistogram::from_sizes(sizes, 1576, 8);
        let mean = h.mean();
        assert!((mean - 800.0).abs() < 20.0, "mean {mean}");
        assert!(h.quantile(0.25) < 200);
        assert!(h.quantile(0.75) > 1400);
    }

    #[test]
    fn sampling_reproduces_the_distribution() {
        let mut rng = StdRng::seed_from_u64(3);
        let source: Vec<usize> = (0..5_000)
            .map(|i| if i % 4 == 0 { 150 } else { 1550 })
            .collect();
        let h = SizeHistogram::from_sizes(source, 1576, 8);
        let resampled: Vec<usize> = (0..5_000).map(|_| h.sample(&mut rng)).collect();
        let h2 = SizeHistogram::from_sizes(resampled, 1576, 8);
        let total_variation: f64 = 0.5
            * h.pdf()
                .iter()
                .zip(h2.pdf())
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>();
        assert!(total_variation < 0.05);
    }

    #[test]
    fn summary_stats() {
        let s = SummaryStats::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
        let empty = SummaryStats::from_samples(&[]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.mean, 0.0);
    }
}
