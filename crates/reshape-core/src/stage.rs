//! The reshaping engine: one packet in, one virtual-interface assignment out.
//!
//! The paper's Fig. 3 data path dispatches each packet to a virtual interface
//! the moment it leaves the TCP/IP stack. [`ReshapeStage`] is that data path,
//! and the only one: it owns a [`ReshapeAlgorithm`], calls it once per packet
//! and emits the packet on one output sub-flow per `(incoming flow,
//! interface)` pair, keeping O(flows × interfaces) state and no per-packet
//! storage, so sessions of unbounded length stream through it.
//!
//! As a [`PacketStage`] it slots into a [`StagePipeline`] anywhere a defense
//! does: morph-then-reshape puts a `MorphingStage` in front of it,
//! reshape-then-pad puts a `PaddingStage` behind it (per-vif padding, since
//! the padding stage sees one sub-flow per virtual interface), and so on.
//! [`vif_of`](ReshapeStage::vif_of) maps an output sub-flow back to its
//! interface; the batch [`Reshaper`](crate::reshaper::Reshaper) records
//! each packet's interface through it, which is how the bridge picks each
//! frame's virtual MAC. The Eq. 1 realized distributions are an analysis
//! quantity and live in that batch wrapper, not here.
//!
//! [`StagePipeline`]: defenses::stage::StagePipeline

use crate::scheduler::ReshapeAlgorithm;
use crate::vif::VifIndex;
use defenses::overhead::Overhead;
use defenses::stage::{FlowId, PacketStage, StageOutput};
use traffic_gen::packet::PacketRecord;

/// Sentinel marking an unallocated `(incoming flow, interface)` slot in the
/// dense flow table.
const NO_FLOW: FlowId = FlowId::MAX;

/// The reshaping engine as a composable [`PacketStage`]: every packet is
/// dispatched to a virtual interface, and each `(incoming flow, interface)`
/// pair becomes one output sub-flow.
///
/// Reshaping is zero-overhead by construction, which the stage's ledger
/// reports: bytes in equals bytes out, packet for packet.
#[derive(Debug)]
pub struct ReshapeStage {
    algorithm: Box<dyn ReshapeAlgorithm>,
    /// The algorithm's interface count, read once at construction.
    interfaces: usize,
    /// Dense flow table indexed by `incoming flow × interfaces + vif`,
    /// [`NO_FLOW`] where unallocated. The interface count is fixed by the
    /// algorithm, so this replaces the per-packet `FlowMap` hash lookup with
    /// one bounds-checked load while allocating the same dense ids in the
    /// same first-appearance order.
    flow_table: Vec<FlowId>,
    next_flow: FlowId,
    vifs: Vec<VifIndex>,
    ledger: Overhead,
}

impl ReshapeStage {
    /// Creates a stage dispatching through `algorithm`.
    pub fn new(algorithm: Box<dyn ReshapeAlgorithm>) -> Self {
        ReshapeStage {
            interfaces: algorithm.interface_count(),
            algorithm,
            flow_table: Vec::new(),
            next_flow: 0,
            vifs: Vec::new(),
            ledger: Overhead::default(),
        }
    }

    /// The number of virtual interfaces the algorithm schedules over.
    pub fn interface_count(&self) -> usize {
        self.interfaces
    }

    /// Returns the output flow for `(flow, vif)`, allocating the next dense
    /// id on first sight (same contract as `FlowMap::id_of`).
    #[inline]
    fn id_of(&mut self, flow: FlowId, vif: VifIndex) -> (FlowId, bool) {
        let slot = flow as usize * self.interfaces + vif.index();
        if slot >= self.flow_table.len() {
            self.flow_table
                .resize((flow as usize + 1) * self.interfaces, NO_FLOW);
        }
        let entry = &mut self.flow_table[slot];
        if *entry != NO_FLOW {
            return (*entry, false);
        }
        let id = self.next_flow;
        self.next_flow += 1;
        *entry = id;
        (id, true)
    }

    /// The virtual interface carrying output sub-flow `flow`.
    pub fn vif_of(&self, flow: FlowId) -> Option<VifIndex> {
        self.vifs.get(flow as usize).copied()
    }
}

impl PacketStage for ReshapeStage {
    fn name(&self) -> &'static str {
        self.algorithm.name()
    }

    fn on_packet(&mut self, flow: FlowId, packet: &PacketRecord, out: &mut StageOutput) {
        let vif = self.algorithm.assign(packet);
        assert!(
            vif.index() < self.interfaces,
            "algorithm {} returned out-of-range {vif}",
            self.algorithm.name()
        );
        let (out_flow, fresh) = self.id_of(flow, vif);
        if fresh {
            self.vifs.push(vif);
        }
        self.ledger.record(packet.size as u64, packet.size as u64);
        out.push((out_flow, *packet));
    }

    fn overhead(&self) -> Overhead {
        self.ledger
    }

    fn reset(&mut self) {
        self.algorithm.reset();
        self.flow_table.clear();
        self.next_flow = 0;
        self.vifs.clear();
        self.ledger = Overhead::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranges::SizeRanges;
    use crate::reshaper::Reshaper;
    use crate::scheduler::{OrthogonalRanges, RoundRobin};
    use defenses::stage::{StagePipeline, ROOT_FLOW};
    use defenses::PacketPadder;
    use traffic_gen::app::AppKind;
    use traffic_gen::generator::SessionGenerator;
    use traffic_gen::packet::Direction;
    use traffic_gen::stream::{PacketSource, StreamingSession};
    use traffic_gen::trace::Trace;
    use traffic_gen::MAX_PACKET_SIZE;
    use wlan_sim::time::SimTime;

    fn or_stage() -> ReshapeStage {
        ReshapeStage::new(Box::new(OrthogonalRanges::new(SizeRanges::paper_default())))
    }

    fn bt_trace(seed: u64) -> Trace {
        SessionGenerator::new(AppKind::BitTorrent, seed).generate_secs(20.0)
    }

    #[test]
    fn stage_assignments_match_the_batch_reshaper() {
        let trace = bt_trace(1);
        let mut stage = or_stage();
        assert_eq!(stage.name(), "OR");
        assert_eq!(stage.interface_count(), 3);
        let mut out = StageOutput::new();
        let mut staged = Vec::new();
        for packet in trace.packets() {
            out.clear();
            stage.on_packet(ROOT_FLOW, packet, &mut out);
            staged.extend(out.iter().copied());
        }
        let outcome = Reshaper::new(Box::new(OrthogonalRanges::new(SizeRanges::paper_default())))
            .reshape(&trace);
        assert_eq!(staged.len(), outcome.assignments().len());
        for ((flow, packet), (&(index, vif), original)) in staged
            .iter()
            .zip(outcome.assignments().iter().zip(trace.packets()))
        {
            assert_eq!(packet, original, "reshaping never rewrites packets");
            assert_eq!(
                stage.vif_of(*flow),
                Some(vif),
                "packet {index}: stage flow must map to the batch vif"
            );
        }
        // Zero overhead, ledger-verified.
        assert_eq!(stage.overhead().percent(), 0.0);
        assert_eq!(stage.overhead().original_bytes, trace.total_bytes());
        assert_eq!(stage.overhead().original_packets, trace.len() as u64);
    }

    #[test]
    fn pad_then_reshape_sends_every_packet_to_the_large_range() {
        // Pad-then-reshape: every packet reaches the engine at the padded
        // size, so OR sees only full-size packets and opens one sub-flow, on
        // the interface owning the large range.
        let trace = bt_trace(2);
        let mut pre = StagePipeline::new().with_stage(PacketPadder::new().stage());
        let mut stage = or_stage();
        let mut out = StageOutput::new();
        let mut sink =
            |flow: FlowId, packet: &PacketRecord| stage.on_packet(flow, packet, &mut out);
        pre.process_batch(trace.packets(), &mut sink);
        pre.finish(sink);
        assert_eq!(out.len(), trace.len());
        assert!(out.iter().all(|&(flow, _)| flow == 0));
        let large_range = SizeRanges::paper_default().range_of(MAX_PACKET_SIZE);
        assert_eq!(stage.next_flow, 1);
        assert_eq!(stage.vif_of(0), Some(VifIndex::new(large_range)));
        assert_eq!(pre.overhead().original_bytes, trace.total_bytes());
        assert!(pre.overhead().percent() > 0.0);
    }

    #[test]
    fn reshape_then_pad_pads_every_sub_flow() {
        // The per-vif padding composition: the padding stage sits downstream
        // of the reshaper and pads each interface's sub-flow independently.
        let trace = bt_trace(3);
        let mut pipeline = StagePipeline::new()
            .with_stage(or_stage())
            .with_stage(PacketPadder::new().stage());
        let mut flows: Vec<Vec<usize>> = Vec::new();
        let mut sink = |flow: FlowId, p: &PacketRecord| {
            let idx = flow as usize;
            while flows.len() <= idx {
                flows.push(Vec::new());
            }
            flows[idx].push(p.size);
        };
        pipeline.process_batch(trace.packets(), &mut sink);
        pipeline.finish(sink);
        assert_eq!(flows.iter().map(Vec::len).sum::<usize>(), trace.len());
        assert!(flows.len() > 1, "BT covers more than one size range");
        for sizes in &flows {
            assert!(sizes.iter().all(|&s| s == MAX_PACKET_SIZE));
        }
        assert!(pipeline.overhead().percent() > 0.0);
    }

    #[test]
    fn stage_reset_replays_deterministically() {
        let trace = bt_trace(4);
        let mut stage = ReshapeStage::new(Box::new(RoundRobin::new(3)));
        let mut out = StageOutput::new();
        let mut first = Vec::new();
        for p in trace.packets() {
            out.clear();
            stage.on_packet(ROOT_FLOW, p, &mut out);
            first.extend(out.iter().copied());
        }
        stage.reset();
        assert_eq!(stage.next_flow, 0);
        assert_eq!(stage.overhead(), Overhead::default());
        let mut second = Vec::new();
        for p in trace.packets() {
            out.clear();
            stage.on_packet(ROOT_FLOW, p, &mut out);
            second.extend(out.iter().copied());
        }
        assert_eq!(first, second);
    }

    #[test]
    fn or_keeps_unbounded_sub_flows_pure() {
        // 20k packets of an infinite session stream through without any
        // per-packet storage, and every OR sub-flow carries only its own
        // interface's size range.
        let ranges = SizeRanges::paper_default();
        let mut session = StreamingSession::from_model(
            traffic_gen::models::spec_for(AppKind::BitTorrent),
            3,
            None,
        );
        let mut stage = or_stage();
        let mut out = StageOutput::new();
        for _ in 0..20_000 {
            let packet = session.next_packet().expect("infinite source");
            out.clear();
            stage.on_packet(ROOT_FLOW, &packet, &mut out);
            let (flow, emitted) = out[0];
            let vif = stage.vif_of(flow).expect("every output flow has a vif");
            assert_eq!(ranges.range_of(emitted.size), vif.index());
        }
        assert_eq!(stage.overhead().original_packets, 20_000);
        assert_eq!(stage.next_flow, 3, "one sub-flow per interface");
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn out_of_range_assignment_panics() {
        // A scheduler that lies about its interface count is caught.
        #[derive(Debug)]
        struct Rogue;
        impl ReshapeAlgorithm for Rogue {
            fn assign(&mut self, _p: &PacketRecord) -> VifIndex {
                VifIndex::new(7)
            }
            fn interface_count(&self) -> usize {
                2
            }
            fn name(&self) -> &'static str {
                "rogue"
            }
        }
        let mut stage = ReshapeStage::new(Box::new(Rogue));
        let p = PacketRecord::new(
            SimTime::from_secs_f64(0.0),
            100,
            Direction::Downlink,
            AppKind::Video,
        );
        stage.on_packet(ROOT_FLOW, &p, &mut StageOutput::new());
    }
}
