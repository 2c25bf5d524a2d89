//! A correctly rounded floating-point sum that does not depend on the order
//! of its terms.
//!
//! Executor workers fold finished stations in whatever order they retire,
//! and each worker folds a different share of the population, so a naive
//! `f64` running sum would differ in its last bits from one worker count to
//! the next. [`ExactSum`] keeps the running total exactly, as Shewchuk's
//! non-overlapping partials (the algorithm behind Python's `math.fsum`), and
//! rounds once, at the end: the result is the exact sum of the terms rounded
//! to the nearest `f64` (ties to even), whatever the order of the terms and
//! however they were split between workers and merged.

/// The exact running sum of finite `f64` terms, as non-overlapping partials
/// in increasing magnitude. Non-finite terms are summed on the side, so an
/// infinity or NaN among the terms makes the result what the naive sum
/// would be (`inf + -inf` is NaN).
///
/// The partials stay exact as long as no intermediate sum overflows, which
/// holds for any sum whose magnitude stays below `f64::MAX`.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ExactSum {
    partials: Vec<f64>,
    nonfinite: Option<f64>,
}

impl ExactSum {
    /// Adds one term.
    pub(crate) fn add(&mut self, mut x: f64) {
        if !x.is_finite() {
            self.nonfinite = Some(self.nonfinite.map_or(x, |s| s + x));
            return;
        }
        // Shewchuk's grow-expansion: fold `x` through the partials, keeping
        // each non-zero rounding error as a partial of its own.
        let mut kept = 0;
        for i in 0..self.partials.len() {
            let mut y = self.partials[i];
            if x.abs() < y.abs() {
                std::mem::swap(&mut x, &mut y);
            }
            let hi = x + y;
            let lo = y - (hi - x);
            if lo != 0.0 {
                self.partials[kept] = lo;
                kept += 1;
            }
            x = hi;
        }
        self.partials.truncate(kept);
        self.partials.push(x);
    }

    /// Adds every term of `other` (its partials are exact, so adding them is
    /// adding the terms they came from).
    pub(crate) fn merge(&mut self, other: &ExactSum) {
        for &partial in &other.partials {
            self.add(partial);
        }
        if let Some(s) = other.nonfinite {
            self.add(s);
        }
    }

    /// The sum, correctly rounded to the nearest `f64` (ties to even).
    pub(crate) fn value(&self) -> f64 {
        if let Some(s) = self.nonfinite {
            return s;
        }
        let p = &self.partials;
        let Some(mut n) = p.len().checked_sub(1) else {
            return 0.0;
        };
        // Sum from the largest partial down until a rounding error appears;
        // the partials below it can then only decide a tie.
        let mut hi = p[n];
        let mut lo = 0.0;
        while n > 0 {
            let x = hi;
            n -= 1;
            let y = p[n];
            hi = x + y;
            lo = y - (hi - x);
            if lo != 0.0 {
                break;
            }
        }
        // `hi + lo` is exact, but if `lo` is exactly half an ulp of `hi`, the
        // tie was broken to even: the next partial (same sign as `lo`) says
        // the true sum lies beyond the halfway point, so round away instead.
        if n > 0 && ((lo < 0.0 && p[n - 1] < 0.0) || (lo > 0.0 && p[n - 1] > 0.0)) {
            let y = lo * 2.0;
            let x = hi + y;
            if y == x - hi {
                hi = x;
            }
        }
        hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    fn sum_of(terms: &[f64]) -> f64 {
        let mut sum = ExactSum::default();
        for &t in terms {
            sum.add(t);
        }
        sum.value()
    }

    /// Up to 40 terms spread over 120 binades, both signs, some of them
    /// cancelling an earlier term exactly.
    fn terms(rng: &mut TestRng) -> Vec<f64> {
        let mut terms: Vec<f64> = Vec::new();
        for _ in 0..rng.below(40) {
            let term = match terms.last() {
                Some(&last) if rng.below(4) == 0 => -last,
                _ => (rng.unit_f64() * 2.0 - 1.0) * 2f64.powi(rng.below(120) as i32 - 60),
            };
            terms.push(term);
        }
        terms
    }

    #[test]
    fn cancellation_keeps_the_small_term() {
        // The naive left-to-right sum loses the 1.0 to rounding.
        let terms = [1e16, 1.0, -1e16];
        assert_eq!(terms.iter().sum::<f64>(), 0.0);
        assert_eq!(sum_of(&terms), 1.0);
        assert_eq!(sum_of(&[1e100, 1.0, -1e100, 1e-100]), 1.0);
        assert_eq!(sum_of(&[]), 0.0);
    }

    #[test]
    fn halfway_cases_round_to_even_only_when_exact() {
        // 2^53 + 1 is halfway between two doubles; the extra 2^-60 pushes
        // the exact sum past the midpoint, so it rounds up, not to even.
        let two53 = 2f64.powi(53);
        assert_eq!(sum_of(&[two53, 1.0]), two53);
        assert_eq!(sum_of(&[two53, 1.0, 2f64.powi(-60)]), two53 + 2.0);
        assert_eq!(sum_of(&[two53, 1.0, -(2f64.powi(-60))]), two53);
    }

    #[test]
    fn non_finite_terms_sum_like_the_naive_sum() {
        assert_eq!(sum_of(&[1.0, f64::INFINITY, 2.0]), f64::INFINITY);
        assert!(sum_of(&[f64::INFINITY, 1.0, f64::NEG_INFINITY]).is_nan());
        assert!(sum_of(&[f64::NAN, 1.0]).is_nan());
    }

    proptest! {
        #[test]
        fn the_sum_does_not_depend_on_the_order(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            let terms = terms(&mut rng);
            // A Fisher–Yates shuffle, and the reverse order.
            let mut shuffled = terms.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let mut reversed = terms.clone();
            reversed.reverse();
            let expected = sum_of(&terms);
            prop_assert_eq!(sum_of(&shuffled).to_bits(), expected.to_bits());
            prop_assert_eq!(sum_of(&reversed).to_bits(), expected.to_bits());
        }

        #[test]
        fn merged_parts_sum_like_the_whole(seed in 0u64..u64::MAX) {
            // Split the terms at random cuts, sum each part on its own and
            // merge the parts in reverse, as workers' tallies merge.
            let mut rng = TestRng::new(seed);
            let terms = terms(&mut rng);
            let mut cuts: Vec<usize> = (0..rng.below(5))
                .map(|_| rng.below(terms.len() as u64 + 1) as usize)
                .collect();
            cuts.push(0);
            cuts.push(terms.len());
            cuts.sort_unstable();
            let mut merged = ExactSum::default();
            for part in cuts.windows(2).rev() {
                let mut sum = ExactSum::default();
                for &t in &terms[part[0]..part[1]] {
                    sum.add(t);
                }
                merged.merge(&sum);
            }
            prop_assert_eq!(merged.value().to_bits(), sum_of(&terms).to_bits());
        }

        #[test]
        fn small_integers_sum_like_the_naive_sum(seed in 0u64..u64::MAX) {
            // Every partial sum is an integer below 2^53, so the naive sum
            // is exact too.
            let mut rng = TestRng::new(seed);
            let terms: Vec<i64> = (0..rng.below(100))
                .map(|_| rng.below(2_000_000) as i64 - 1_000_000)
                .collect();
            let floats: Vec<f64> = terms.iter().map(|&t| t as f64).collect();
            prop_assert_eq!(sum_of(&floats), floats.iter().sum::<f64>());
            prop_assert_eq!(sum_of(&floats), terms.iter().sum::<i64>() as f64);
        }
    }
}
