//! Packet-size range partitioning.
//!
//! The reshaping algorithm describes packet-size distributions over `L`
//! half-open ranges `(ℓ_{j-1}, ℓ_j]` with `ℓ_L = ℓ_max` (§III-C1). The paper
//! uses three default ranges derived from the observation that most packets
//! cluster in `[108, 232]` and `[1546, 1576]` bytes: `(0, 232]`, `(232, 1540]`
//! and `(1540, 1576]`. Table V additionally evaluates 2-range and 5-range
//! splits, and Fig. 4 uses three equal-width ranges.

use crate::error::{Error, Result};
use serde::{Deserialize, Serialize};
use traffic_gen::MAX_PACKET_SIZE;

/// A partition of `(0, ℓ_max]` into `L` half-open ranges.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SizeRanges {
    /// Strictly increasing upper boundaries `ℓ_1 < ℓ_2 < … < ℓ_L = ℓ_max`.
    boundaries: Vec<usize>,
}

impl SizeRanges {
    /// Creates a partition from its upper boundaries.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRanges`] when the boundary list is empty, not
    /// strictly increasing, or starts at zero.
    pub fn new(boundaries: Vec<usize>) -> Result<Self> {
        if boundaries.is_empty() {
            return Err(Error::InvalidRanges("no boundaries given".into()));
        }
        if boundaries[0] == 0 {
            return Err(Error::InvalidRanges(
                "first boundary must be positive".into(),
            ));
        }
        if boundaries.windows(2).any(|w| w[0] >= w[1]) {
            return Err(Error::InvalidRanges(format!(
                "boundaries must be strictly increasing, got {boundaries:?}"
            )));
        }
        Ok(SizeRanges { boundaries })
    }

    /// The paper's default three ranges: `(0, 232]`, `(232, 1540]`, `(1540, 1576]`
    /// (§III-C3 and §IV-B).
    pub fn paper_default() -> Self {
        SizeRanges {
            boundaries: vec![232, 1540, MAX_PACKET_SIZE],
        }
    }

    /// The two ranges used for `I = 2` in Table V: `(0, 1500]`, `(1500, 1576]`.
    pub fn paper_two() -> Self {
        SizeRanges {
            boundaries: vec![1500, MAX_PACKET_SIZE],
        }
    }

    /// The five ranges used for `I = 5` in Table V:
    /// `(0, 232]`, `(232, 500]`, `(500, 1000]`, `(1000, 1540]`, `(1540, 1576]`.
    pub fn paper_five() -> Self {
        SizeRanges {
            boundaries: vec![232, 500, 1000, 1540, MAX_PACKET_SIZE],
        }
    }

    /// `count` equal-width ranges over `(0, max_size]`, as used by the Fig. 4
    /// example (three ranges of ~525 bytes each over `(0, 1576]`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRanges`] when `count` is zero or larger than `max_size`.
    pub fn equal_width(count: usize, max_size: usize) -> Result<Self> {
        if count == 0 {
            return Err(Error::InvalidRanges("need at least one range".into()));
        }
        if count > max_size {
            return Err(Error::InvalidRanges(format!(
                "cannot split {max_size} bytes into {count} non-empty ranges"
            )));
        }
        let mut boundaries: Vec<usize> = (1..=count)
            .map(|j| (max_size * j).div_ceil(count))
            .collect();
        *boundaries.last_mut().expect("count >= 1") = max_size;
        Self::new(boundaries)
    }

    /// The ranges the paper uses for a given interface count in Table V.
    pub fn for_interface_count(interfaces: usize) -> Result<Self> {
        match interfaces {
            0 => Err(Error::InvalidInterfaceCount(0)),
            2 => Ok(Self::paper_two()),
            3 => Ok(Self::paper_default()),
            5 => Ok(Self::paper_five()),
            other => Self::equal_width(other, MAX_PACKET_SIZE),
        }
    }

    /// Number of ranges (the paper's `L`).
    pub fn len(&self) -> usize {
        self.boundaries.len()
    }

    /// Returns `true` if the partition has no ranges (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.boundaries.is_empty()
    }

    /// The index of the range containing `size`. Sizes above `ℓ_max` fall into
    /// the last range; a size of zero falls into the first.
    pub fn range_of(&self, size: usize) -> usize {
        match self.boundaries.binary_search(&size) {
            Ok(idx) => idx,
            Err(idx) => idx.min(self.boundaries.len() - 1),
        }
    }
}

impl Default for SizeRanges {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_default_ranges() {
        let r = SizeRanges::paper_default();
        assert_eq!(r.len(), 3);
        assert_eq!(r.boundaries, [232, 1540, 1576]);
        assert_eq!(SizeRanges::default(), r);
    }

    #[test]
    fn range_lookup_follows_half_open_semantics() {
        let r = SizeRanges::paper_default();
        assert_eq!(r.range_of(1), 0);
        assert_eq!(r.range_of(232), 0, "boundary belongs to the lower range");
        assert_eq!(r.range_of(233), 1);
        assert_eq!(r.range_of(1540), 1);
        assert_eq!(r.range_of(1541), 2);
        assert_eq!(r.range_of(1576), 2);
        assert_eq!(
            r.range_of(5000),
            2,
            "oversized packets clamp to the last range"
        );
        assert_eq!(r.range_of(0), 0);
    }

    #[test]
    fn table_five_configurations() {
        assert_eq!(SizeRanges::paper_two().len(), 2);
        assert_eq!(SizeRanges::paper_five().len(), 5);
        assert_eq!(
            SizeRanges::for_interface_count(2).unwrap(),
            SizeRanges::paper_two()
        );
        assert_eq!(
            SizeRanges::for_interface_count(3).unwrap(),
            SizeRanges::paper_default()
        );
        assert_eq!(
            SizeRanges::for_interface_count(5).unwrap(),
            SizeRanges::paper_five()
        );
        assert_eq!(SizeRanges::for_interface_count(4).unwrap().len(), 4);
        assert!(SizeRanges::for_interface_count(0).is_err());
    }

    #[test]
    fn equal_width_matches_figure_four() {
        // Fig. 4 splits (0, 1576] into three ranges of similar length with
        // boundaries 525 / 1050 / 1576 (rounded).
        let r = SizeRanges::equal_width(3, 1576).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.boundaries[2], 1576);
        assert!((524..=526).contains(&r.boundaries[0]));
        assert!(SizeRanges::equal_width(0, 100).is_err());
        assert!(SizeRanges::equal_width(200, 100).is_err());
    }

    #[test]
    fn invalid_boundaries_are_rejected() {
        assert!(SizeRanges::new(vec![]).is_err());
        assert!(SizeRanges::new(vec![0, 100]).is_err());
        assert!(SizeRanges::new(vec![100, 100]).is_err());
        assert!(SizeRanges::new(vec![200, 100]).is_err());
        assert!(SizeRanges::new(vec![100, 200, 1576]).is_ok());
    }

    proptest! {
        #[test]
        fn every_size_maps_to_exactly_one_valid_range(size in 0usize..4000) {
            let r = SizeRanges::paper_default();
            let j = r.range_of(size);
            prop_assert!(j < r.len());
            let lo = if j == 0 { 0 } else { r.boundaries[j - 1] };
            let hi = r.boundaries[j];
            if size <= r.boundaries[r.len() - 1] && size > 0 {
                prop_assert!(size > lo && size <= hi, "size {size} not in ({lo}, {hi}]");
            }
        }

        #[test]
        fn equal_width_covers_whole_space(count in 1usize..12, max in 100usize..3000) {
            let r = SizeRanges::equal_width(count, max).unwrap();
            prop_assert_eq!(r.len(), count);
            prop_assert_eq!(r.boundaries[count - 1], max);
            // Boundaries strictly increase.
            prop_assert!(r.boundaries.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
