//! Traffic reshaping combined with morphing (§V-C).
//!
//! Reshaping composes with other defenses: after the packets have been split
//! across virtual interfaces, the sub-flow of any single interface can
//! additionally be morphed toward another application's size distribution.
//! Because only one interface's sub-flow is morphed (and only upward, never
//! splitting packets), the extra overhead is far smaller than morphing the
//! full flow, while the classification accuracy drops further.

use crate::reshaper::{ReshapeOutcome, Reshaper};
use crate::scheduler::ReshapeAlgorithm;
use crate::vif::VifIndex;
use defenses::morphing::TrafficMorpher;
use defenses::overhead::Overhead;
use traffic_gen::trace::Trace;

/// The result of applying reshaping plus per-interface morphing.
#[derive(Debug)]
pub struct CombinedOutcome {
    /// The per-interface sub-traces after morphing was applied.
    pub sub_traces: Vec<Trace>,
    /// Which interfaces were morphed.
    pub morphed_interfaces: Vec<VifIndex>,
    /// The byte overhead introduced by the morphing step (reshaping itself adds none).
    pub overhead: Overhead,
}

/// Reshaping followed by morphing on selected virtual interfaces.
#[derive(Debug)]
pub struct CombinedDefense {
    reshaper: Reshaper,
    morphers: Vec<(VifIndex, TrafficMorpher)>,
}

impl CombinedDefense {
    /// Creates the combined defense: `morphers` lists the interfaces whose
    /// sub-flow should additionally be morphed and the morpher to apply.
    pub fn new(
        algorithm: Box<dyn ReshapeAlgorithm>,
        morphers: Vec<(VifIndex, TrafficMorpher)>,
    ) -> Self {
        CombinedDefense {
            reshaper: Reshaper::new(algorithm),
            morphers,
        }
    }

    /// Applies reshaping and then morphs the configured interfaces.
    pub fn apply(&mut self, trace: &Trace) -> CombinedOutcome {
        let outcome: ReshapeOutcome = self.reshaper.reshape(trace);
        let mut sub_traces: Vec<Trace> = outcome.sub_traces().to_vec();
        let mut overhead = Overhead::default();
        let mut morphed_interfaces = Vec::new();
        for (vif, morpher) in &self.morphers {
            if let Some(sub) = sub_traces.get_mut(vif.index()) {
                let (morphed, o) = morpher.apply(sub);
                overhead = overhead.combined(&o);
                *sub = morphed;
                morphed_interfaces.push(*vif);
            }
        }
        // Account for the un-morphed interfaces so the percentage is relative
        // to the full original traffic, as in the paper's comparison.
        for (i, sub) in outcome.sub_traces().iter().enumerate() {
            if !self.morphers.iter().any(|(v, _)| v.index() == i) {
                let bytes = sub.total_bytes();
                overhead = overhead.combined(&Overhead::from_bytes(bytes, bytes));
            }
        }
        CombinedOutcome {
            sub_traces,
            morphed_interfaces,
            overhead,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranges::SizeRanges;
    use crate::scheduler::OrthogonalRanges;
    use defenses::morphing::TrafficMorpher;
    use defenses::padding::PacketPadder;
    use traffic_gen::app::AppKind;
    use traffic_gen::generator::SessionGenerator;

    fn trace_of(app: AppKind, seed: u64) -> Trace {
        SessionGenerator::new(app, seed).generate_secs(60.0)
    }

    fn combined_for_bt() -> CombinedDefense {
        // Morph the small-packet interface of a BT flow to look like gaming.
        let gaming = trace_of(AppKind::Gaming, 7);
        let morpher = TrafficMorpher::from_target_trace(&gaming);
        CombinedDefense::new(
            Box::new(OrthogonalRanges::new(SizeRanges::paper_default())),
            vec![(VifIndex::new(0), morpher)],
        )
    }

    #[test]
    fn packet_count_is_preserved_and_only_selected_interfaces_morph() {
        let bt = trace_of(AppKind::BitTorrent, 1);
        let mut defense = combined_for_bt();
        let outcome = defense.apply(&bt);
        assert_eq!(
            outcome.sub_traces.iter().map(Trace::len).sum::<usize>(),
            bt.len()
        );
        assert_eq!(outcome.morphed_interfaces, vec![VifIndex::new(0)]);
        // The morphed interface's mean grows; the others keep their OR shape.
        assert!(outcome.sub_traces[0].mean_packet_size() > 232.0);
        assert!(outcome.sub_traces[2].mean_packet_size() > 1540.0);
    }

    #[test]
    fn combined_overhead_is_modest_and_far_below_padding() {
        // §V-C: reshaping + morphing on a single virtual interface costs much
        // less than blanket defenses because only one sub-flow grows.
        let bt = trace_of(AppKind::BitTorrent, 2);
        let mut defense = combined_for_bt();
        let combined = defense.apply(&bt);
        let (_, padding) = PacketPadder::new().apply(&bt);
        assert!(
            combined.overhead.percent() < 40.0,
            "combined overhead should stay below the paper's full-morphing cost, got {}",
            combined.overhead.percent()
        );
        assert!(
            combined.overhead.percent() < padding.percent(),
            "combined {} vs padding {}",
            combined.overhead.percent(),
            padding.percent()
        );
    }

    #[test]
    fn no_morphers_means_zero_overhead() {
        let bt = trace_of(AppKind::BitTorrent, 3);
        let mut defense = CombinedDefense::new(
            Box::new(OrthogonalRanges::new(SizeRanges::paper_default())),
            vec![],
        );
        let outcome = defense.apply(&bt);
        assert_eq!(outcome.overhead.percent(), 0.0);
        assert!(outcome.morphed_interfaces.is_empty());
        assert_eq!(
            outcome.sub_traces.iter().map(Trace::len).sum::<usize>(),
            bt.len()
        );
    }
}
