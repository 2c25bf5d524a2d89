//! Packet padding.
//!
//! The oldest countermeasure against size-based traffic analysis: every packet
//! is padded up to a fixed target (the paper pads to the maximum observed
//! packet size of 1576 bytes). The paper's point — which Table VI reproduces —
//! is that padding is extremely expensive (121 % mean overhead) and still
//! leaves timing features intact, so the adversary barely loses accuracy.
//!
//! Padding is inherently per-packet, so [`PaddingStage`] is the primary
//! implementation: a one-in/one-out [`PacketStage`] that pads as packets
//! stream by. The batch [`PacketPadder::apply`] is a thin wrapper that drives
//! a stage over a materialised trace (byte-identical, property-tested in
//! `tests/stage_equivalence.rs`).

use crate::overhead::Overhead;
use crate::stage::{stage_trace, FlowId, PacketStage, StageOutput};
use serde::{Deserialize, Serialize};
use traffic_gen::packet::PacketRecord;
use traffic_gen::trace::Trace;
use traffic_gen::MAX_PACKET_SIZE;

/// Pads every packet of a trace to a fixed size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketPadder {
    target_size: usize,
}

impl Default for PacketPadder {
    fn default() -> Self {
        PacketPadder {
            target_size: MAX_PACKET_SIZE,
        }
    }
}

impl PacketPadder {
    /// Creates a padder that pads to the paper's maximum packet size (1576 bytes).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a padder with a custom target size.
    ///
    /// # Panics
    ///
    /// Panics if `target_size` is zero.
    pub fn to_size(target_size: usize) -> Self {
        assert!(target_size > 0, "padding target must be positive");
        PacketPadder { target_size }
    }

    /// The padding target in bytes.
    pub fn target_size(&self) -> usize {
        self.target_size
    }

    /// The streaming padding stage for this configuration.
    pub fn stage(&self) -> PaddingStage {
        PaddingStage::new(*self)
    }

    /// Pads a trace, returning the transformed trace and its overhead — a
    /// thin batch wrapper over [`PaddingStage`].
    ///
    /// Packets already larger than the target keep their size (padding never
    /// truncates); timestamps and directions are untouched, which is exactly
    /// why the timing-based attack of Table VI still works.
    pub fn apply(&self, trace: &Trace) -> (Trace, Overhead) {
        let mut stage = self.stage();
        let packets = stage_trace(&mut stage, trace)
            .into_iter()
            .map(|(_, p)| p)
            .collect();
        (Trace::from_packets(trace.app(), packets), stage.overhead())
    }
}

/// The streaming padding defense: pads each packet as it flows by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaddingStage {
    padder: PacketPadder,
    ledger: Overhead,
}

impl PaddingStage {
    /// Creates a stage padding to `padder`'s target size.
    pub fn new(padder: PacketPadder) -> Self {
        PaddingStage {
            padder,
            ledger: Overhead::default(),
        }
    }
}

impl PacketStage for PaddingStage {
    fn name(&self) -> &'static str {
        "padding"
    }

    fn on_packet(&mut self, flow: FlowId, packet: &PacketRecord, out: &mut StageOutput) {
        let padded = packet.with_size(packet.size.max(self.padder.target_size()));
        self.ledger.record(packet.size as u64, padded.size as u64);
        out.push((flow, padded));
    }

    fn overhead(&self) -> Overhead {
        self.ledger
    }

    fn reset(&mut self) {
        self.ledger = Overhead::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::ROOT_FLOW;
    use traffic_gen::app::AppKind;
    use traffic_gen::generator::SessionGenerator;
    use traffic_gen::packet::{Direction, PacketRecord};
    use wlan_sim::time::SimTime;

    #[test]
    fn pads_everything_to_the_target() {
        let trace = SessionGenerator::new(AppKind::Chatting, 1).generate_secs(30.0);
        let (padded, overhead) = PacketPadder::new().apply(&trace);
        assert_eq!(padded.len(), trace.len());
        assert!(padded.packets().iter().all(|p| p.size == MAX_PACKET_SIZE));
        assert!(overhead.percent() > 100.0, "chat padding is very expensive");
        assert_eq!(overhead.original_packets, trace.len() as u64);
        assert_eq!(
            overhead.transformed_packets, overhead.original_packets,
            "padding never adds packets"
        );
    }

    #[test]
    fn preserves_timestamps_directions_and_label() {
        let trace = SessionGenerator::new(AppKind::Gaming, 2).generate_secs(10.0);
        let (padded, _) = PacketPadder::new().apply(&trace);
        assert_eq!(padded.app(), trace.app());
        for (a, b) in trace.packets().iter().zip(padded.packets()) {
            assert_eq!(a.time, b.time);
            assert_eq!(a.direction, b.direction);
            assert!(b.size >= a.size);
        }
    }

    #[test]
    fn never_truncates_oversized_packets() {
        let trace = Trace::from_packets(
            Some(AppKind::Downloading),
            vec![PacketRecord::new(
                SimTime::from_secs_f64(0.0),
                1576,
                Direction::Downlink,
                AppKind::Downloading,
            )],
        );
        let (padded, overhead) = PacketPadder::to_size(500).apply(&trace);
        assert_eq!(padded.packets()[0].size, 1576);
        assert_eq!(overhead.added_bytes(), 0);
    }

    #[test]
    fn downloading_downlink_has_negligible_padding_overhead() {
        // Matches Table VI: the downloading data stream is already all
        // full-size packets, so padding it costs almost nothing (the paper
        // reports 0.04 %). The uplink ACK stream is excluded, as in the paper.
        let trace = SessionGenerator::new(AppKind::Downloading, 3).generate_secs(10.0);
        let downlink = Trace::from_packets(
            trace.app(),
            trace.packets_in(Direction::Downlink).copied().collect(),
        );
        let (_, overhead) = PacketPadder::new().apply(&downlink);
        assert!(overhead.percent() < 2.0, "got {}", overhead.percent());
    }

    #[test]
    fn stage_is_one_in_one_out_on_the_incoming_flow() {
        let mut stage = PacketPadder::new().stage();
        assert_eq!(stage.name(), "padding");
        let p = PacketRecord::new(
            SimTime::from_secs_f64(0.0),
            100,
            Direction::Uplink,
            AppKind::Chatting,
        );
        let mut out = StageOutput::new();
        stage.on_packet(ROOT_FLOW, &p, &mut out);
        stage.on_packet(3, &p, &mut out);
        stage.flush(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, ROOT_FLOW);
        assert_eq!(out[1].0, 3, "transforming stages preserve the flow id");
        assert!(out.iter().all(|(_, q)| q.size == MAX_PACKET_SIZE));
        assert_eq!(stage.overhead().added_bytes(), 2 * (1576 - 100));
        stage.reset();
        assert_eq!(stage.overhead(), Overhead::default());
    }

    #[test]
    fn accessors() {
        assert_eq!(PacketPadder::new().target_size(), MAX_PACKET_SIZE);
        assert_eq!(PacketPadder::to_size(1000).target_size(), 1000);
    }

    #[test]
    #[should_panic]
    fn zero_target_panics() {
        let _ = PacketPadder::to_size(0);
    }
}
