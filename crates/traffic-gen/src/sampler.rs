//! Self-contained random samplers.
//!
//! The traffic models need a handful of continuous and discrete distributions
//! (exponential inter-arrivals, normal jitter, categorical packet-size
//! mixtures). To keep the dependency
//! footprint to the pre-approved `rand` crate, the samplers are implemented
//! here directly from uniform variates.

use rand::Rng;
use std::sync::Arc;

/// Samples from an exponential distribution with the given mean (seconds,
/// bytes, …).
///
/// # Panics
///
/// Panics if `mean` is not strictly positive and finite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential sampler with mean `mean`.
    pub fn new(mean: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive, got {mean}"
        );
        Exponential { mean }
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        -self.mean * u.ln()
    }
}

/// Samples from a normal distribution via the Box–Muller transform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal sampler.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or either parameter is not finite.
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(
            mean.is_finite() && std_dev.is_finite() && std_dev >= 0.0,
            "invalid normal parameters mean={mean} std_dev={std_dev}"
        );
        Normal { mean, std_dev }
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.std_dev == 0.0 {
            return self.mean;
        }
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        self.mean + z * self.std_dev
    }

    /// Draws one sample clamped to `[lo, hi]`.
    pub fn sample_clamped<R: Rng + ?Sized>(&self, rng: &mut R, lo: f64, hi: f64) -> f64 {
        self.sample(rng).clamp(lo, hi)
    }
}

/// Samples an index according to a set of non-negative weights.
///
/// Draws are O(1): a guide table maps the uniform variate to a starting
/// index that a short fix-up scan then corrects, preserving the exact
/// variate→category mapping of a cumulative-weight search.
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    cumulative: Vec<f64>,
    /// `guide[b]` is the answer for the smallest variate in bucket `b`, so
    /// the fix-up scan almost always terminates immediately.
    guide: Vec<u32>,
    /// Multiplying a variate by this maps it onto a guide bucket.
    guide_scale: f64,
}

impl Categorical {
    /// Creates a categorical sampler from weights (they do not need to sum to 1).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative or non-finite value,
    /// or sums to zero.
    pub fn new(weights: impl IntoIterator<Item = f64>) -> Self {
        let mut acc = 0.0;
        let cumulative: Vec<f64> = weights
            .into_iter()
            .map(|w| {
                assert!(w.is_finite() && w >= 0.0, "invalid categorical weight {w}");
                acc += w;
                acc
            })
            .collect();
        assert!(
            !cumulative.is_empty(),
            "categorical needs at least one weight"
        );
        assert!(acc > 0.0, "categorical weights must not all be zero");
        // Over-provision buckets 4× so most buckets span at most one
        // category boundary and the fix-up scan in `index_of` is O(1).
        let buckets = (cumulative.len() * 4).max(8);
        let last = cumulative.len() - 1;
        let mut guide = Vec::with_capacity(buckets);
        let mut idx = 0usize;
        for b in 0..buckets {
            let lo = acc * (b as f64) / (buckets as f64);
            while idx < last && cumulative[idx] <= lo {
                idx += 1;
            }
            guide.push(idx as u32);
        }
        let guide_scale = buckets as f64 / acc;
        Categorical {
            cumulative,
            guide,
            guide_scale,
        }
    }

    /// Maps a variate in `[0, total)` to the first category whose cumulative
    /// weight exceeds it (clamped to the last category) — the same mapping a
    /// binary search over `cumulative` produces, but O(1) via the guide
    /// table. The two scans absorb any float rounding in the bucket
    /// computation, so the mapping is exact, not approximate.
    fn index_of(&self, x: f64) -> usize {
        let bucket = ((x * self.guide_scale) as usize).min(self.guide.len() - 1);
        let mut i = self.guide[bucket] as usize;
        while i > 0 && self.cumulative[i - 1] > x {
            i -= 1;
        }
        let last = self.cumulative.len() - 1;
        while i < last && self.cumulative[i] <= x {
            i += 1;
        }
        i
    }

    /// Draws one category index (a single uniform draw, then the O(1)
    /// guide-table lookup).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty by construction");
        let x: f64 = rng.gen_range(0.0..total);
        self.index_of(x)
    }
}

/// Samples a packet size uniformly from an inclusive byte range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl SizeRange {
    /// Creates an inclusive size range.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: usize, hi: usize) -> Self {
        assert!(lo <= hi, "size range lo {lo} > hi {hi}");
        SizeRange { lo, hi }
    }

    /// Draws one size.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        if self.lo == self.hi {
            self.lo
        } else {
            rng.gen_range(self.lo..=self.hi)
        }
    }
}

/// A mixture of size ranges with weights: the workhorse behind the bimodal
/// packet-size PDFs of Fig. 1.
///
/// Its tables are built once and shared: a clone is a reference count, so
/// a model cloned for every station allocates nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeMixture {
    tables: Arc<MixtureTables>,
}

/// The component weights' sampler and the components' size ranges.
#[derive(Debug, PartialEq)]
struct MixtureTables {
    categorical: Categorical,
    ranges: Vec<SizeRange>,
}

impl SizeMixture {
    /// Creates a mixture from `(weight, lo, hi)` components.
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty or any weight/range is invalid.
    pub fn new(components: &[(f64, usize, usize)]) -> Self {
        let categorical = Categorical::new(components.iter().map(|(w, _, _)| *w));
        let ranges = components
            .iter()
            .map(|(_, lo, hi)| SizeRange::new(*lo, *hi))
            .collect();
        SizeMixture {
            tables: Arc::new(MixtureTables {
                categorical,
                ranges,
            }),
        }
    }

    /// Draws one packet size.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let tables = &*self.tables;
        let idx = tables.categorical.sample(rng);
        tables.ranges[idx].sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1234)
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = rng();
        let exp = Exponential::new(0.05);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| exp.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 0.05).abs() < 0.003, "sample mean {mean}");
        assert_eq!(exp.mean, 0.05);
    }

    #[test]
    #[should_panic]
    fn exponential_rejects_non_positive_mean() {
        let _ = Exponential::new(0.0);
    }

    #[test]
    fn normal_mean_and_spread() {
        let mut rng = rng();
        let n = Normal::new(10.0, 2.0);
        let samples: Vec<f64> = (0..20_000).map(|_| n.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
        let clamped = n.sample_clamped(&mut rng, 9.9, 10.1);
        assert!((9.9..=10.1).contains(&clamped));
        assert_eq!(Normal::new(5.0, 0.0).sample(&mut rng), 5.0);
    }

    #[test]
    fn categorical_follows_weights() {
        let mut rng = rng();
        let c = Categorical::new([0.7, 0.2, 0.1]);
        let mut counts = [0usize; 3];
        let n = 30_000;
        for _ in 0..n {
            counts[c.sample(&mut rng)] += 1;
        }
        let freqs: Vec<f64> = counts.iter().map(|&c| c as f64 / n as f64).collect();
        assert!((freqs[0] - 0.7).abs() < 0.02, "{freqs:?}");
        assert!((freqs[1] - 0.2).abs() < 0.02, "{freqs:?}");
        assert!((freqs[2] - 0.1).abs() < 0.02, "{freqs:?}");
    }

    #[test]
    #[should_panic]
    fn categorical_rejects_all_zero_weights() {
        let _ = Categorical::new([0.0, 0.0]);
    }

    #[test]
    fn guide_table_matches_the_former_binary_search_exactly() {
        // The O(1) lookup must reproduce the retired binary-search mapping
        // bit for bit, or every seeded trace in the repo changes.
        let mut rng = rng();
        let weight_sets: Vec<Vec<f64>> = vec![
            vec![1.0],
            vec![0.7, 0.2, 0.1],
            vec![1.0, 0.0, 1.0], // zero-weight category in the middle
            vec![0.0, 1.0],      // zero-weight first category
            vec![1e-9, 1.0, 1e-9],
            (0..97).map(|i| (i % 7) as f64 + 0.25).collect(),
        ];
        for weights in &weight_sets {
            let c = Categorical::new(weights.iter().copied());
            let total = *c.cumulative.last().unwrap();
            for _ in 0..5_000 {
                let x: f64 = rng.gen_range(0.0..total);
                let old = match c
                    .cumulative
                    .binary_search_by(|v| v.partial_cmp(&x).expect("finite"))
                {
                    Ok(i) => (i + 1).min(c.cumulative.len() - 1),
                    Err(i) => i,
                };
                assert_eq!(c.index_of(x), old, "weights {weights:?}, x {x}");
            }
            // Boundary variates (exact cumulative values and their
            // neighbours) stress the fix-up scans.
            for &edge in &c.cumulative {
                for x in [edge * (1.0 - 1e-15), edge, edge * (1.0 + 1e-15)] {
                    if !(0.0..total).contains(&x) {
                        continue;
                    }
                    let expect = c
                        .cumulative
                        .iter()
                        .position(|&v| v > x)
                        .unwrap_or(c.cumulative.len() - 1);
                    assert_eq!(c.index_of(x), expect, "weights {weights:?}, x {x}");
                }
            }
        }
    }

    #[test]
    fn size_range_and_mixture() {
        let mut rng = rng();
        let r = SizeRange::new(100, 200);
        for _ in 0..500 {
            let s = r.sample(&mut rng);
            assert!((100..=200).contains(&s));
        }
        assert_eq!(SizeRange::new(5, 5).sample(&mut rng), 5);

        let mix = SizeMixture::new(&[(0.5, 100, 200), (0.5, 1500, 1576)]);
        let samples: Vec<usize> = (0..10_000).map(|_| mix.sample(&mut rng)).collect();
        assert!(samples.iter().any(|&s| s <= 200));
        assert!(samples.iter().any(|&s| s >= 1500));
        let mean = samples.iter().sum::<usize>() as f64 / samples.len() as f64;
        // Uniform inside each range: 0.5 × 150 + 0.5 × 1538.
        assert!((mean - 844.0).abs() < 20.0, "mean {mean}");
    }
}
