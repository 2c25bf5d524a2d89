//! Target distributions φ and the orthogonality criterion.
//!
//! For every virtual interface `i` the reshaping algorithm aims at a target
//! packet-size distribution `φ^i = [φ^i_1 … φ^i_L]` over the `L` size ranges.
//! Orthogonal Reshaping (OR) requires the targets of any two interfaces to be
//! orthogonal — their dot product must be zero (Eq. 2) — which, with
//! probabilities in `[0, 1]`, means every size range is "owned" by exactly one
//! interface. That property is what lets the online scheduler achieve the
//! optimum of Eq. 1 without knowing future traffic (§III-C2).

use crate::error::{Error, Result};
use crate::vif::VifIndex;

/// A target packet-size distribution over `L` ranges for one virtual interface.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetDistribution {
    probabilities: Vec<f64>,
}

impl TargetDistribution {
    /// The probabilities `φ^i_j`.
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// Dot product with another target distribution (Eq. 2).
    pub fn dot(&self, other: &TargetDistribution) -> f64 {
        self.probabilities
            .iter()
            .zip(&other.probabilities)
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Euclidean distance to a realized distribution `p^i` (one term of Eq. 1).
    pub fn distance_to(&self, realized: &[f64]) -> f64 {
        self.probabilities
            .iter()
            .zip(realized)
            .map(|(phi, p)| (phi - p).powi(2))
            .sum::<f64>()
            .sqrt()
    }
}

/// A complete set of target distributions, one per virtual interface.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetSet {
    targets: Vec<TargetDistribution>,
}

impl TargetSet {
    /// The canonical OR target set for `interfaces` interfaces over `ranges`
    /// ranges: range `j` is owned by interface `j % interfaces`. With
    /// `ranges == interfaces` this is exactly the paper's
    /// `φ^1 = [1,0,0], φ^2 = [0,1,0], φ^3 = [0,0,1]` example.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInterfaceCount`] when `interfaces` is zero and
    /// [`Error::InvalidTargetDistribution`] when `ranges` is zero.
    pub fn orthogonal(interfaces: usize, ranges: usize) -> Result<Self> {
        if interfaces == 0 {
            return Err(Error::InvalidInterfaceCount(0));
        }
        if ranges == 0 {
            return Err(Error::InvalidTargetDistribution("no ranges".into()));
        }
        let mut per_interface = vec![vec![0.0f64; ranges]; interfaces];
        let mut owned_counts = vec![0usize; interfaces];
        for (owner, (probs, count)) in per_interface
            .iter_mut()
            .zip(owned_counts.iter_mut())
            .enumerate()
        {
            // Interface `owner` owns ranges owner, owner + I, owner + 2I, …
            for p in probs.iter_mut().skip(owner).step_by(interfaces) {
                *p = 1.0;
                *count += 1;
            }
        }
        // Normalise interfaces that own several ranges so each target sums to 1.
        let targets = per_interface
            .into_iter()
            .zip(owned_counts)
            .map(|(mut probs, owned)| {
                if owned > 1 {
                    for p in &mut probs {
                        *p /= owned as f64;
                    }
                } else if owned == 0 {
                    // An interface owning no range keeps an all-zero vector; it
                    // is unreachable for OR and flagged by validation below, so
                    // give it ownership of nothing but keep the vector valid by
                    // assigning a uniform distribution (it will simply never be
                    // selected by the range-owner map).
                    let uniform = 1.0 / probs.len() as f64;
                    probs.fill(uniform);
                }
                TargetDistribution {
                    probabilities: probs,
                }
            })
            .collect();
        Ok(TargetSet { targets })
    }

    /// Number of interfaces `I`.
    pub fn interface_count(&self) -> usize {
        self.targets.len()
    }

    /// The target for one interface.
    pub fn target(&self, vif: VifIndex) -> Option<&TargetDistribution> {
        self.targets.get(vif.index())
    }

    /// Checks the pairwise orthogonality condition of Eq. 2.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotOrthogonal`] identifying the first offending pair.
    pub fn check_orthogonality(&self) -> Result<()> {
        for i in 0..self.targets.len() {
            for j in (i + 1)..self.targets.len() {
                let dot = self.targets[i].dot(&self.targets[j]);
                if dot.abs() > 1e-9 {
                    return Err(Error::NotOrthogonal {
                        first: i,
                        second: j,
                        dot,
                    });
                }
            }
        }
        Ok(())
    }

    /// For orthogonal sets: the interface that owns range `j`, i.e. the unique
    /// `i` with `φ^i_j > 0`. Returns `None` if no interface owns the range.
    pub fn owner_of_range(&self, range: usize) -> Option<VifIndex> {
        self.targets
            .iter()
            .position(|t| t.probabilities().get(range).copied().unwrap_or(0.0) > 0.0)
            .map(VifIndex::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A target over `probabilities`, as written.
    fn target(probabilities: &[f64]) -> TargetDistribution {
        TargetDistribution {
            probabilities: probabilities.to_vec(),
        }
    }

    #[test]
    fn paper_example_is_orthogonal() {
        // φ1 = [1,0,0], φ2 = [0,1,0], φ3 = [0,0,1] from §III-C2.
        let set = TargetSet::orthogonal(3, 3).unwrap();
        assert_eq!(set.interface_count(), 3);
        assert!(set.targets.iter().all(|t| t.probabilities().len() == 3));
        set.check_orthogonality().unwrap();
        for (i, t) in set.targets.iter().enumerate() {
            let expected: Vec<f64> = (0..3).map(|j| if i == j { 1.0 } else { 0.0 }).collect();
            assert_eq!(t.probabilities(), expected.as_slice());
        }
        assert_eq!(set.owner_of_range(0), Some(VifIndex::new(0)));
        assert_eq!(set.owner_of_range(2), Some(VifIndex::new(2)));
        assert_eq!(
            set.target(VifIndex::new(1)).unwrap().probabilities()[1],
            1.0
        );
        assert!(set.target(VifIndex::new(5)).is_none());
    }

    #[test]
    fn more_ranges_than_interfaces_still_orthogonal() {
        // L = 6, I = 3: each interface owns two ranges with probability 1/2 each.
        let set = TargetSet::orthogonal(3, 6).unwrap();
        set.check_orthogonality().unwrap();
        for t in &set.targets {
            assert!((t.probabilities().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
        assert_eq!(set.owner_of_range(3), Some(VifIndex::new(0)));
        assert_eq!(set.owner_of_range(4), Some(VifIndex::new(1)));
    }

    #[test]
    fn non_orthogonal_sets_are_detected() {
        let set = TargetSet {
            targets: vec![target(&[0.5, 0.5, 0.0]), target(&[0.0, 0.5, 0.5])],
        };
        let err = set.check_orthogonality().unwrap_err();
        assert!(matches!(
            err,
            Error::NotOrthogonal {
                first: 0,
                second: 1,
                ..
            }
        ));
    }

    #[test]
    fn empty_orthogonal_sets_are_rejected() {
        assert!(TargetSet::orthogonal(0, 3).is_err());
        assert!(TargetSet::orthogonal(3, 0).is_err());
    }

    #[test]
    fn distance_to_realized_distribution() {
        let t = target(&[1.0, 0.0, 0.0]);
        assert_eq!(t.distance_to(&[1.0, 0.0, 0.0]), 0.0);
        let d = t.distance_to(&[0.0, 1.0, 0.0]);
        assert!((d - 2f64.sqrt()).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn orthogonal_construction_always_passes_its_own_check(
            interfaces in 1usize..8,
            ranges in 1usize..12,
        ) {
            // Interfaces that own no range get a uniform placeholder, which
            // breaks pairwise orthogonality only when I > L; restrict to I <= L,
            // which is also the paper's regime (L >= I).
            prop_assume!(interfaces <= ranges);
            let set = TargetSet::orthogonal(interfaces, ranges).unwrap();
            prop_assert!(set.check_orthogonality().is_ok());
            // Every range has exactly one owner.
            for j in 0..ranges {
                let owners = set
                    .targets
                    .iter()
                    .filter(|t| t.probabilities()[j] > 0.0)
                    .count();
                prop_assert_eq!(owners, 1);
            }
        }
    }
}
