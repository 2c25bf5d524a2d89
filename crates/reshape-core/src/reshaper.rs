//! The batch view of reshaping: partitioning a whole trace into
//! per-interface sub-flows.
//!
//! [`Reshaper`] is a thin wrapper over [`ReshapeStage`], the one reshaping
//! engine: it feeds a whole [`Trace`] through the stage from
//! [`ROOT_FLOW`](defenses::stage::ROOT_FLOW), maps each output sub-flow back
//! to its interface (`vif_of`), and builds one sub-trace per virtual
//! interface (the sets `S_i` of §III-C1). It does not track the Eq. 1
//! realized distributions: the OR tests recompute them from the sub-traces
//! with the test oracle
//! [`RealizedDistributions`](crate::optimizer::RealizedDistributions) and
//! check the objective is zero; Eq. 2's oracle is
//! [`TargetSet::check_orthogonality`](crate::target::TargetSet::check_orthogonality).
//! Batch and streaming assignments are byte-identical for the same algorithm
//! and seed (property-tested in `tests/streaming_equivalence.rs`). Two
//! invariants are enforced and tested:
//!
//! * **partition**: every packet lands on exactly one interface
//!   (`∪_i S_i = S`, `S_i ∩ S_j = ∅`), and
//! * **zero overhead**: the total number of packets and bytes is unchanged —
//!   reshaping never adds noise traffic.

use crate::scheduler::ReshapeAlgorithm;
use crate::stage::ReshapeStage;
use crate::vif::VifIndex;
use defenses::stage::{stage_trace, PacketStage};
use traffic_gen::trace::Trace;

/// The result of reshaping one trace.
#[derive(Debug)]
pub struct ReshapeOutcome {
    sub_traces: Vec<Trace>,
    assignments: Vec<(usize, VifIndex)>,
}

impl ReshapeOutcome {
    /// The per-interface sub-traces, indexed by interface.
    pub fn sub_traces(&self) -> &[Trace] {
        &self.sub_traces
    }

    /// The per-packet assignments as `(original packet index, interface)`
    /// pairs, in original packet order.
    ///
    /// Packets are not duplicated here — they already live in the sub-traces;
    /// zip with the original trace's packets to recover the full pairing.
    pub fn assignments(&self) -> &[(usize, VifIndex)] {
        &self.assignments
    }

    /// Number of virtual interfaces.
    pub fn interface_count(&self) -> usize {
        self.sub_traces.len()
    }

    /// Total packets across all interfaces (equals the original trace length).
    pub fn total_packets(&self) -> usize {
        self.sub_traces.iter().map(Trace::len).sum()
    }

    /// Total bytes across all interfaces (equals the original trace bytes —
    /// the zero-overhead property).
    pub fn total_bytes(&self) -> u64 {
        self.sub_traces.iter().map(Trace::total_bytes).sum()
    }
}

/// Applies a reshaping algorithm to whole traces (the batch façade of
/// [`ReshapeStage`]).
#[derive(Debug)]
pub struct Reshaper {
    stage: ReshapeStage,
}

impl Reshaper {
    /// Creates a reshaper around an algorithm.
    pub fn new(algorithm: Box<dyn ReshapeAlgorithm>) -> Self {
        Reshaper {
            stage: ReshapeStage::new(algorithm),
        }
    }

    /// The name of the underlying algorithm.
    pub fn algorithm_name(&self) -> &'static str {
        self.stage.name()
    }

    /// Reshapes a trace into per-interface sub-flows.
    ///
    /// The stage is reset first, so a single `Reshaper` can be reused across
    /// traces without leaking state between them.
    pub fn reshape(&mut self, trace: &Trace) -> ReshapeOutcome {
        self.stage.reset();
        let interfaces = self.stage.interface_count();
        let mut sub_packets = vec![Vec::new(); interfaces];
        let mut assignments = Vec::with_capacity(trace.len());
        for (index, (flow, packet)) in stage_trace(&mut self.stage, trace).into_iter().enumerate() {
            let vif = self
                .stage
                .vif_of(flow)
                .expect("the stage maps every output flow to an interface");
            sub_packets[vif.index()].push(packet);
            assignments.push((index, vif));
        }
        ReshapeOutcome {
            sub_traces: sub_packets
                .into_iter()
                .map(|packets| Trace::from_packets(trace.app(), packets))
                .collect(),
            assignments,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::RealizedDistributions;
    use crate::ranges::SizeRanges;
    use crate::scheduler::{OrthogonalRanges, RandomAssign, RoundRobin};
    use crate::target::TargetSet;
    use proptest::prelude::*;
    use traffic_gen::app::AppKind;
    use traffic_gen::generator::SessionGenerator;
    use traffic_gen::packet::Direction;

    fn bt_trace(seed: u64, secs: f64) -> Trace {
        SessionGenerator::new(AppKind::BitTorrent, seed).generate_secs(secs)
    }

    #[test]
    fn reshaping_is_a_partition_with_zero_overhead() {
        let trace = bt_trace(1, 20.0);
        let mut reshaper =
            Reshaper::new(Box::new(OrthogonalRanges::new(SizeRanges::paper_default())));
        assert_eq!(reshaper.algorithm_name(), "OR");
        let outcome = reshaper.reshape(&trace);
        assert_eq!(outcome.interface_count(), 3);
        assert_eq!(outcome.total_packets(), trace.len());
        assert_eq!(outcome.total_bytes(), trace.total_bytes());
        assert_eq!(outcome.assignments().len(), trace.len());
        // Sub-traces keep the ground-truth label for evaluation purposes.
        for sub in outcome.sub_traces() {
            assert_eq!(sub.app(), Some(AppKind::BitTorrent));
        }
    }

    #[test]
    fn or_sub_flows_have_pure_size_ranges() {
        let trace = bt_trace(2, 30.0);
        let ranges = SizeRanges::paper_default();
        let mut reshaper = Reshaper::new(Box::new(OrthogonalRanges::new(ranges.clone())));
        let outcome = reshaper.reshape(&trace);
        for (i, sub) in outcome.sub_traces().iter().enumerate() {
            for p in sub.packets() {
                assert_eq!(
                    ranges.range_of(p.size),
                    i,
                    "packet of {} bytes must stay on the interface owning its range",
                    p.size
                );
            }
        }
        // OR achieves the Eq. 1 optimum (objective zero).
        let mut realized = RealizedDistributions::new(3, ranges);
        for (i, sub) in outcome.sub_traces().iter().enumerate() {
            for p in sub.packets() {
                realized.record(VifIndex::new(i), p.size);
            }
        }
        let targets = TargetSet::orthogonal(3, 3).unwrap();
        assert!(realized.objective(&targets) < 1e-12);
    }

    #[test]
    fn or_changes_per_interface_features_versus_original() {
        // The Table I effect: per-interface mean sizes differ from the original.
        let trace = bt_trace(3, 60.0);
        let original_mean = trace.mean_packet_size();
        let mut reshaper =
            Reshaper::new(Box::new(OrthogonalRanges::new(SizeRanges::paper_default())));
        let outcome = reshaper.reshape(&trace);
        let small = &outcome.sub_traces()[0];
        let large = &outcome.sub_traces()[2];
        assert!(small.mean_packet_size() < 250.0);
        assert!(large.mean_packet_size() > 1540.0);
        assert!((small.mean_packet_size() - original_mean).abs() > 300.0);
        // Inter-arrival on each interface is larger than the original (fewer packets, same span).
        assert!(
            small.mean_interarrival_secs(Direction::Downlink)
                >= trace.mean_interarrival_secs(Direction::Downlink)
        );
    }

    #[test]
    fn rr_and_ra_preserve_per_interface_means() {
        // The reason FH/RA/RR fail (§IV-C): per-interface mean size stays close
        // to the original application's.
        let trace = bt_trace(4, 60.0);
        let original_mean = trace.mean_packet_size();
        for algorithm in [
            Box::new(RoundRobin::new(3)) as Box<dyn ReshapeAlgorithm>,
            Box::new(RandomAssign::new(3, 9)) as Box<dyn ReshapeAlgorithm>,
        ] {
            let mut reshaper = Reshaper::new(algorithm);
            let outcome = reshaper.reshape(&trace);
            for sub in outcome.sub_traces() {
                let mean = sub.mean_packet_size();
                assert!(
                    (mean - original_mean).abs() / original_mean < 0.15,
                    "{}: sub-flow mean {mean} vs original {original_mean}",
                    reshaper.algorithm_name()
                );
            }
        }
    }

    #[test]
    fn reshaper_state_does_not_leak_between_traces() {
        let mut reshaper = Reshaper::new(Box::new(RoundRobin::new(3)));
        let a = bt_trace(5, 5.0);
        let first = reshaper.reshape(&a);
        let second = reshaper.reshape(&a);
        for (x, y) in first.assignments().iter().zip(second.assignments()) {
            assert_eq!(x.1, y.1, "round-robin must restart for every trace");
        }
    }

    #[test]
    fn empty_trace_reshapes_to_empty_sub_traces() {
        let mut reshaper =
            Reshaper::new(Box::new(OrthogonalRanges::new(SizeRanges::paper_default())));
        let outcome = reshaper.reshape(&Trace::new());
        assert_eq!(outcome.total_packets(), 0);
        assert_eq!(outcome.total_bytes(), 0);
        assert!(outcome.sub_traces().iter().all(Trace::is_empty));
        assert!(outcome.sub_traces().get(5).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn partition_invariant_holds_for_all_algorithms(seed in 0u64..50, interfaces in 1usize..4) {
            let trace = bt_trace(seed, 5.0);
            let algorithms: Vec<Box<dyn ReshapeAlgorithm>> = vec![
                Box::new(RoundRobin::new(interfaces)),
                Box::new(RandomAssign::new(interfaces, seed)),
                Box::new(OrthogonalRanges::with_interfaces(SizeRanges::paper_default(), interfaces.min(3))),
            ];
            for algorithm in algorithms {
                let mut reshaper = Reshaper::new(algorithm);
                let outcome = reshaper.reshape(&trace);
                prop_assert_eq!(outcome.total_packets(), trace.len());
                prop_assert_eq!(outcome.total_bytes(), trace.total_bytes());
            }
        }
    }
}
