//! Round-robin assignment (RR).
//!
//! The `k`-th packet is dispatched to interface `k mod I` (§III-C1). Like RA,
//! RR partitions the traffic evenly but leaves each interface's size
//! distribution looking exactly like the original application, so it barely
//! affects the classifier (Tables II and III).

use super::ReshapeAlgorithm;
use crate::vif::VifIndex;
use traffic_gen::packet::PacketRecord;

/// The RR scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRobin {
    interfaces: usize,
    next: usize,
}

impl RoundRobin {
    /// Creates an RR scheduler over `interfaces` interfaces.
    ///
    /// # Panics
    ///
    /// Panics if `interfaces` is zero.
    pub fn new(interfaces: usize) -> Self {
        assert!(interfaces > 0, "need at least one virtual interface");
        RoundRobin {
            interfaces,
            next: 0,
        }
    }
}

impl ReshapeAlgorithm for RoundRobin {
    fn assign(&mut self, _packet: &PacketRecord) -> VifIndex {
        let vif = VifIndex::new(self.next % self.interfaces);
        self.next = self.next.wrapping_add(1);
        vif
    }

    fn interface_count(&self) -> usize {
        self.interfaces
    }

    fn name(&self) -> &'static str {
        "RR"
    }

    fn reset(&mut self) {
        self.next = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::test_support::packet;

    #[test]
    fn cycles_through_interfaces_in_order() {
        let mut rr = RoundRobin::new(3);
        assert_eq!(rr.name(), "RR");
        assert_eq!(rr.interface_count(), 3);
        let order: Vec<usize> = (0..7)
            .map(|i| rr.assign(&packet(i, 1000)).index())
            .collect();
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(rr.next, 7);
    }

    #[test]
    fn packet_counts_are_balanced() {
        let mut rr = RoundRobin::new(4);
        let mut counts = [0usize; 4];
        for i in 0..1000 {
            counts[rr.assign(&packet(i, 64)).index()] += 1;
        }
        assert_eq!(counts, [250, 250, 250, 250]);
    }

    #[test]
    fn reset_restarts_the_cycle() {
        let mut rr = RoundRobin::new(2);
        rr.assign(&packet(0, 10));
        rr.assign(&packet(1, 10));
        rr.assign(&packet(2, 10));
        rr.reset();
        assert_eq!(rr.assign(&packet(3, 10)).index(), 0);
    }

    #[test]
    fn single_interface_always_returns_zero() {
        let mut rr = RoundRobin::new(1);
        for i in 0..10 {
            assert_eq!(rr.assign(&packet(i, 10)).index(), 0);
        }
    }

    #[test]
    #[should_panic]
    fn zero_interfaces_panics() {
        let _ = RoundRobin::new(0);
    }
}
