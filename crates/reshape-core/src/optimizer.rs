//! The scheduling objective (Eq. 1) and realized-distribution tracking: a
//! test oracle. No production path tracks Eq. 1; the OR tests recompute the
//! realized distributions from the batch [`Reshaper`](crate::reshaper::Reshaper)'s
//! sub-traces and check the objective is zero and the aggregate conserves
//! the original traffic (`reshaper` unit tests, `tests/streaming_equivalence.rs`).
//! The orthogonality check of Eq. 2 lives beside the targets, in
//! [`TargetSet::check_orthogonality`](crate::target::TargetSet::check_orthogonality).
//!
//! The reshaping algorithm is formulated as an online optimisation problem:
//! minimise the sum, over interfaces, of the Euclidean distance between the
//! interface's target distribution `φ^i` and the distribution `p^i` actually
//! realized by the packets scheduled onto it, subject to conservation
//! constraints (every packet goes to exactly one interface). Orthogonal
//! Reshaping achieves the optimum value of zero online because each size range
//! is owned by exactly one interface, so `p^i = φ^i` by construction.

use crate::ranges::SizeRanges;
use crate::target::TargetSet;
use crate::vif::VifIndex;

/// Tracks, for every interface, how many packets of each size range have been
/// scheduled onto it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RealizedDistributions {
    ranges: SizeRanges,
    /// `counts[interface][range]`.
    counts: Vec<Vec<u64>>,
}

impl RealizedDistributions {
    /// Creates an empty tracker for `interfaces` interfaces.
    pub fn new(interfaces: usize, ranges: SizeRanges) -> Self {
        RealizedDistributions {
            counts: vec![vec![0; ranges.len()]; interfaces],
            ranges,
        }
    }

    /// Number of interfaces tracked.
    pub fn interface_count(&self) -> usize {
        self.counts.len()
    }

    /// Records that a packet of `size` bytes was scheduled on `vif`.
    ///
    /// # Panics
    ///
    /// Panics if the interface index is out of range.
    pub fn record(&mut self, vif: VifIndex, size: usize) {
        let range = self.ranges.range_of(size);
        self.counts[vif.index()][range] += 1;
    }

    /// Number of packets scheduled on interface `vif` (the paper's `N(i)`).
    pub fn packets_on(&self, vif: VifIndex) -> u64 {
        self.counts[vif.index()].iter().sum()
    }

    /// Total packets scheduled across all interfaces (the paper's `N`).
    pub fn total_packets(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// The realized distribution `p^i` of one interface (all zeros when the
    /// interface has no packets).
    pub fn realized(&self, vif: VifIndex) -> Vec<f64> {
        let total = self.packets_on(vif);
        if total == 0 {
            return vec![0.0; self.ranges.len()];
        }
        self.counts[vif.index()]
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }

    /// The aggregate distribution `P_j` over all interfaces (i.e. of the
    /// original traffic), used to verify the conservation constraint
    /// `Σ_i p^i_j N(i) = P_j N`.
    pub fn aggregate(&self) -> Vec<f64> {
        let total = self.total_packets();
        if total == 0 {
            return vec![0.0; self.ranges.len()];
        }
        (0..self.ranges.len())
            .map(|j| self.counts.iter().map(|row| row[j]).sum::<u64>() as f64 / total as f64)
            .collect()
    }

    /// Evaluates the objective of Eq. 1 against a target set:
    /// `Σ_i sqrt( Σ_j |φ^i_j − p^i_j|² )`.
    ///
    /// Interfaces that have received no packets contribute nothing (their
    /// realized distribution is undefined until they carry traffic).
    pub fn objective(&self, targets: &TargetSet) -> f64 {
        let mut total = 0.0;
        for i in 0..self.interface_count().min(targets.interface_count()) {
            let vif = VifIndex::new(i);
            if self.packets_on(vif) == 0 {
                continue;
            }
            let realized = self.realized(vif);
            total += targets
                .target(vif)
                .expect("interface index within target set")
                .distance_to(&realized);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::TargetSet;

    fn tracker() -> RealizedDistributions {
        RealizedDistributions::new(3, SizeRanges::paper_default())
    }

    #[test]
    fn counts_and_realized_distribution() {
        let mut t = tracker();
        assert_eq!(t.interface_count(), 3);
        assert_eq!(t.ranges.len(), 3);
        t.record(VifIndex::new(0), 100);
        t.record(VifIndex::new(0), 200);
        t.record(VifIndex::new(0), 1576);
        t.record(VifIndex::new(2), 1570);
        assert_eq!(t.packets_on(VifIndex::new(0)), 3);
        assert_eq!(t.packets_on(VifIndex::new(1)), 0);
        assert_eq!(t.total_packets(), 4);
        let p0 = t.realized(VifIndex::new(0));
        assert!((p0[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((p0[2] - 1.0 / 3.0).abs() < 1e-12);
        assert!(t.realized(VifIndex::new(1)).iter().all(|&p| p == 0.0));
    }

    #[test]
    fn aggregate_matches_original_traffic() {
        let mut t = tracker();
        // 4 small, 4 large packets spread over interfaces arbitrarily.
        for (i, size) in [
            (0, 100),
            (1, 150),
            (2, 200),
            (0, 120),
            (1, 1576),
            (2, 1570),
            (0, 1560),
            (1, 1576),
        ] {
            t.record(VifIndex::new(i), size);
        }
        let agg = t.aggregate();
        assert!((agg[0] - 0.5).abs() < 1e-12);
        assert!((agg[2] - 0.5).abs() < 1e-12);
        assert!((agg.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_or_scheduling_achieves_zero_objective() {
        let targets = TargetSet::orthogonal(3, 3).unwrap();
        let mut t = tracker();
        // Send every packet to the interface owning its range.
        for size in [100, 200, 150, 800, 900, 1576, 1570, 1556] {
            let range = t.ranges.range_of(size);
            let owner = targets.owner_of_range(range).unwrap();
            t.record(owner, size);
        }
        assert!(t.objective(&targets) < 1e-12);
    }

    #[test]
    fn misrouted_packets_increase_the_objective() {
        let targets = TargetSet::orthogonal(3, 3).unwrap();
        let mut t = tracker();
        // Interface 0 is supposed to carry only small packets, but gets a large one.
        t.record(VifIndex::new(0), 100);
        t.record(VifIndex::new(0), 1576);
        let obj = t.objective(&targets);
        assert!(obj > 0.5, "objective should be clearly positive, got {obj}");
        // Empty tracker has zero objective.
        assert_eq!(tracker().objective(&targets), 0.0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_interface_panics() {
        let mut t = tracker();
        t.record(VifIndex::new(3), 100);
    }
}
