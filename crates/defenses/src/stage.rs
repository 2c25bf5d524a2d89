//! The composable streaming defense pipeline: [`PacketStage`] and
//! [`StagePipeline`].
//!
//! Every defense in this crate — and the reshaping engine in `reshape-core` —
//! implements one per-packet contract: a **stage** consumes one packet from an
//! upstream sub-flow and emits zero or more packets onto downstream sub-flows,
//! plus a [`flush`](PacketStage::flush) at session end for stages that buffer.
//! Stages therefore run on unbounded sessions without materialising traffic:
//! a transforming stage keeps O(1) state, while a partitioning stage keeps a
//! few dozen bytes per sub-flow it has opened (pseudonym rotation, which
//! opens one sub-flow per period, grows by one `FlowMap` entry and one MAC
//! per rotation — linear in session length but with a tiny constant). Stages
//! compose:
//! a [`StagePipeline`] chains any number of stages into one stage, so
//! morph-then-reshape, reshape-then-pad or any other defense∘defense ordering
//! is a first-class data path rather than a bespoke batch rewrite.
//!
//! Sub-flows are identified by dense [`FlowId`]s. A transforming stage
//! (padding, morphing) preserves the incoming flow id; a partitioning stage
//! (frequency hopping, pseudonyms, reshaping) allocates fresh output ids via
//! [`FlowMap`], one per `(incoming flow, local partition)` pair, so the flow
//! space stays dense through arbitrary compositions. The input stream itself
//! is the single flow [`ROOT_FLOW`].
//!
//! Overhead accounting lives in the trait: every stage reports the bytes and
//! packets it absorbed and emitted through the shared
//! [`Overhead`] ledger, and a pipeline reports its end-to-end ledger, so every
//! defense and every composition is costed the same way (Table VI's metric).

use crate::overhead::Overhead;
use std::collections::HashMap;
use traffic_gen::packet::PacketRecord;
use traffic_gen::trace::Trace;

/// Identifies one sub-flow in a stage pipeline (dense, starting at 0).
pub type FlowId = u32;

/// The flow id of the undivided input stream entering a pipeline.
pub const ROOT_FLOW: FlowId = 0;

/// The buffer a stage emits `(flow, packet)` pairs into.
pub type StageOutput = Vec<(FlowId, PacketRecord)>;

/// Packets per micro-batch on the batched fast path
/// ([`StagePipeline::process_batch`] and [`PacketStage::process_slice`]). Small enough that a batch of
/// `(FlowId, PacketRecord)` pairs stays in L1, large enough to amortise the
/// per-batch virtual dispatch and buffer bookkeeping to noise.
pub const STAGE_BATCH: usize = 128;

/// A per-packet defense stage: packet in, zero or more packets out.
///
/// Implementations must emit packets in non-decreasing timestamp order (the
/// order every [`PacketSource`](traffic_gen::stream::PacketSource)
/// guarantees) so downstream stages and windowers can stay streaming.
pub trait PacketStage: std::fmt::Debug + Send {
    /// A short name used in logs and experiment tables.
    fn name(&self) -> &'static str;

    /// Consumes one packet arriving on sub-flow `flow`, pushing the
    /// transformed packet(s) and their output sub-flows into `out`.
    fn on_packet(&mut self, flow: FlowId, packet: &PacketRecord, out: &mut StageOutput);

    /// Streams a micro-batch through the stage — the batched fast path.
    ///
    /// **Must** be byte-identical to calling [`on_packet`](Self::on_packet)
    /// once per element in order (property-tested for every registered
    /// defense in the bench crate's `slice_equivalence` suite); the default
    /// does exactly that. The win is mechanical: one virtual dispatch per
    /// batch instead of per packet, with the monomorphised per-packet kernel
    /// inlined into the loop, so stage state stays in registers across the
    /// whole slice. Override only to exploit batch structure further.
    fn process_slice(&mut self, batch: &[(FlowId, PacketRecord)], out: &mut StageOutput) {
        for (flow, packet) in batch {
            self.on_packet(*flow, packet, out);
        }
    }

    /// Signals end of session: stages that buffer packets emit the remainder.
    /// The default is a no-op (none of the paper's defenses buffer).
    fn flush(&mut self, _out: &mut StageOutput) {}

    /// The bytes/packets absorbed and emitted by this stage so far — the
    /// shared overhead ledger of Table VI.
    fn overhead(&self) -> Overhead;

    /// Resets per-session state (flow allocations, counters, ledgers) so the
    /// stage can be reused on a fresh stream.
    fn reset(&mut self);
}

/// Allocates dense output [`FlowId`]s for `(incoming flow, local key)` pairs.
///
/// The helper every partitioning stage uses: the first packet of a new
/// partition allocates the next id (so ids are assigned in first-appearance
/// order, which is what makes streaming and batch partitioning byte-identical
/// per seed), later packets reuse it.
#[derive(Debug, Clone, Default)]
pub struct FlowMap<K: Eq + std::hash::Hash> {
    ids: HashMap<(FlowId, K), FlowId>,
    next: FlowId,
}

impl<K: Eq + std::hash::Hash> FlowMap<K> {
    /// Creates an empty map.
    pub fn new() -> Self {
        FlowMap {
            ids: HashMap::new(),
            next: 0,
        }
    }

    /// Returns the output flow for `(flow, key)`, allocating the next dense id
    /// on first sight. The boolean is `true` exactly when the id is new.
    pub fn id_of(&mut self, flow: FlowId, key: K) -> (FlowId, bool) {
        match self.ids.entry((flow, key)) {
            std::collections::hash_map::Entry::Occupied(e) => (*e.get(), false),
            std::collections::hash_map::Entry::Vacant(e) => {
                let id = self.next;
                self.next += 1;
                e.insert(id);
                (id, true)
            }
        }
    }

    /// Number of output flows allocated so far.
    pub fn len(&self) -> usize {
        self.next as usize
    }

    /// Returns `true` when no flow has been allocated yet.
    pub fn is_empty(&self) -> bool {
        self.next == 0
    }

    /// Forgets all allocations.
    pub fn reset(&mut self) {
        self.ids.clear();
        self.next = 0;
    }
}

/// A chain of stages driven packet by packet — itself a [`PacketStage`], so
/// pipelines nest and compose associatively.
///
/// An empty pipeline is the identity stage: packets pass through unchanged on
/// [`ROOT_FLOW`]. The pipeline keeps its own end-to-end [`Overhead`] ledger
/// (input bytes/packets vs. what the final stage emitted), independent of the
/// per-stage ledgers.
#[derive(Debug, Default)]
pub struct StagePipeline {
    stages: Vec<Box<dyn PacketStage>>,
    ledger: Overhead,
    /// Scratch buffers ping-ponged between stages (reused across packets so
    /// the steady-state hot path allocates nothing).
    buf_a: StageOutput,
    buf_b: StageOutput,
}

impl StagePipeline {
    /// Creates an empty (identity) pipeline.
    pub fn new() -> Self {
        StagePipeline::default()
    }

    /// Appends a stage (builder style): packets flow through stages in the
    /// order they were added.
    pub fn with_stage(mut self, stage: impl PacketStage + 'static) -> Self {
        self.push_stage(Box::new(stage));
        self
    }

    /// Appends a boxed stage.
    pub fn push_stage(&mut self, stage: Box<dyn PacketStage>) {
        self.stages.push(stage);
    }

    /// The stages, in flow order.
    pub fn stages(&self) -> &[Box<dyn PacketStage>] {
        &self.stages
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Returns `true` for the identity pipeline.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Seeds the ping-pong scratch with recycled buffers, keeping their
    /// capacity so a freshly built pipeline skips the first batches' growth.
    /// A no-op for buffers that already have capacity.
    pub fn adopt_scratch(&mut self, a: StageOutput, b: StageOutput) {
        if self.buf_a.capacity() < a.capacity() {
            self.buf_a = a;
            self.buf_a.clear();
        }
        if self.buf_b.capacity() < b.capacity() {
            self.buf_b = b;
            self.buf_b.clear();
        }
    }

    /// Hands the ping-pong scratch back for recycling (the pipeline keeps
    /// working afterwards, it just re-grows fresh buffers on demand).
    pub fn release_scratch(&mut self) -> (StageOutput, StageOutput) {
        (
            std::mem::take(&mut self.buf_a),
            std::mem::take(&mut self.buf_b),
        )
    }

    /// Feeds one packet through every stage, handing each final
    /// `(flow, packet)` pair to `sink` in emission order.
    pub fn process<F: FnMut(FlowId, &PacketRecord)>(&mut self, packet: &PacketRecord, sink: F) {
        self.ledger.absorb(packet.size as u64);
        self.buf_a.clear();
        self.buf_a.push((ROOT_FLOW, *packet));
        self.propagate(0, sink);
    }

    /// Feeds a micro-batch of root-flow packets through every stage — the
    /// batched fast path, byte-identical to calling
    /// [`process`](Self::process) once per packet in order (each stage is
    /// causal, so emissions for packet *i* precede packet *i + 1*'s at every
    /// hop). Emission order and the ledger are exactly those of the
    /// per-packet path; only the number of virtual dispatches changes.
    pub fn process_batch<F: FnMut(FlowId, &PacketRecord)>(
        &mut self,
        packets: &[PacketRecord],
        sink: F,
    ) {
        self.buf_a.clear();
        self.buf_a.reserve(packets.len());
        for packet in packets {
            self.ledger.absorb(packet.size as u64);
            self.buf_a.push((ROOT_FLOW, *packet));
        }
        self.propagate(0, sink);
    }

    /// Signals end of session: flushes every stage in order, cascading each
    /// stage's buffered packets through the stages after it.
    pub fn finish<F: FnMut(FlowId, &PacketRecord)>(&mut self, mut sink: F) {
        for i in 0..self.stages.len() {
            self.buf_a.clear();
            self.stages[i].flush(&mut self.buf_a);
            if !self.buf_a.is_empty() {
                self.propagate(i + 1, &mut sink);
            }
        }
    }

    /// The end-to-end ledger: everything that entered the pipeline vs.
    /// everything the final stage emitted.
    pub fn overhead(&self) -> Overhead {
        self.ledger
    }

    /// Resets every stage and the pipeline ledger for a fresh stream.
    pub fn reset(&mut self) {
        for stage in &mut self.stages {
            stage.reset();
        }
        self.ledger = Overhead::default();
    }

    /// Runs whatever sits in `buf_a` through stages `start..`, emitting the
    /// survivors to `sink` (and recording them in the pipeline ledger).
    fn propagate<F: FnMut(FlowId, &PacketRecord)>(&mut self, start: usize, mut sink: F) {
        for stage in self.stages[start..].iter_mut() {
            if self.buf_a.is_empty() {
                return;
            }
            self.buf_b.clear();
            stage.process_slice(&self.buf_a, &mut self.buf_b);
            self.buf_a.clear();
            std::mem::swap(&mut self.buf_a, &mut self.buf_b);
        }
        for (flow, packet) in self.buf_a.drain(..) {
            self.ledger.emit(packet.size as u64);
            sink(flow, &packet);
        }
    }
}

impl PacketStage for StagePipeline {
    fn name(&self) -> &'static str {
        "pipeline"
    }

    fn on_packet(&mut self, flow: FlowId, packet: &PacketRecord, out: &mut StageOutput) {
        // Like `process`, but entering on the caller's flow id instead of
        // ROOT_FLOW (a nested pipeline must preserve upstream sub-flows).
        self.ledger.absorb(packet.size as u64);
        self.buf_a.clear();
        self.buf_a.push((flow, *packet));
        self.propagate(0, |f, p| out.push((f, *p)));
    }

    fn process_slice(&mut self, batch: &[(FlowId, PacketRecord)], out: &mut StageOutput) {
        // Nested pipelines stream the whole slice through each inner stage in
        // turn instead of re-entering `on_packet` per element.
        for (_, packet) in batch {
            self.ledger.absorb(packet.size as u64);
        }
        self.buf_a.clear();
        self.buf_a.extend_from_slice(batch);
        self.propagate(0, |f, p| out.push((f, *p)));
    }

    fn flush(&mut self, out: &mut StageOutput) {
        self.finish(|f, p| out.push((f, *p)));
    }

    fn overhead(&self) -> Overhead {
        self.ledger
    }

    fn reset(&mut self) {
        StagePipeline::reset(self);
    }
}

/// Drives a whole trace through one stage (including the final flush) and
/// returns every emitted `(flow, packet)` pair in order — the workhorse of
/// the batch wrappers.
pub fn stage_trace(stage: &mut dyn PacketStage, trace: &Trace) -> Vec<(FlowId, PacketRecord)> {
    let mut out = StageOutput::with_capacity(trace.len());
    for packet in trace.packets() {
        stage.on_packet(ROOT_FLOW, packet, &mut out);
    }
    stage.flush(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::padding::PaddingStage;
    use crate::PacketPadder;
    use traffic_gen::app::AppKind;
    use traffic_gen::generator::SessionGenerator;
    use traffic_gen::MAX_PACKET_SIZE;

    fn trace() -> Trace {
        SessionGenerator::new(AppKind::Chatting, 1).generate_secs(20.0)
    }

    #[test]
    fn empty_pipeline_is_the_identity() {
        let trace = trace();
        let mut pipeline = StagePipeline::new();
        assert!(pipeline.is_empty());
        let mut collected = Vec::new();
        let mut sink = |flow: FlowId, p: &PacketRecord| {
            assert_eq!(flow, ROOT_FLOW);
            collected.push(*p);
        };
        pipeline.process_batch(trace.packets(), &mut sink);
        pipeline.finish(sink);
        assert_eq!(collected, trace.packets());
        let overhead = pipeline.overhead();
        assert_eq!(overhead.percent(), 0.0);
        assert_eq!(overhead.original_packets, trace.len() as u64);
        assert_eq!(overhead.transformed_packets, trace.len() as u64);
    }

    #[test]
    fn pipeline_of_one_stage_equals_the_stage_directly() {
        // The compose-associativity smoke test: wrapping a stage in a
        // pipeline must not change a single byte of its output.
        let trace = trace();
        let direct = stage_trace(&mut PaddingStage::new(PacketPadder::new()), &trace);
        let mut pipeline = StagePipeline::new().with_stage(PaddingStage::new(PacketPadder::new()));
        let mut staged = Vec::new();
        pipeline.process_batch(trace.packets(), |flow, p| staged.push((flow, *p)));
        pipeline.finish(|flow, p| staged.push((flow, *p)));
        assert_eq!(direct, staged);
        // The pipeline ledger matches the stage's own ledger for 1:1 stages.
        assert_eq!(pipeline.overhead(), pipeline.stages()[0].overhead());
    }

    #[test]
    fn nested_pipelines_compose_associatively() {
        // (pad . pad-to-400) as one flat pipeline == inner pipeline nested as
        // a stage of an outer one.
        let trace = trace();
        let mut flat = StagePipeline::new()
            .with_stage(PaddingStage::new(PacketPadder::to_size(400)))
            .with_stage(PaddingStage::new(PacketPadder::new()));
        let inner = StagePipeline::new().with_stage(PaddingStage::new(PacketPadder::to_size(400)));
        let mut nested = StagePipeline::new()
            .with_stage(inner)
            .with_stage(PaddingStage::new(PacketPadder::new()));
        let mut flat_out = Vec::new();
        flat.process_batch(trace.packets(), |f, p| flat_out.push((f, *p)));
        flat.finish(|f, p| flat_out.push((f, *p)));
        let mut nested_out = Vec::new();
        nested.process_batch(trace.packets(), |f, p| nested_out.push((f, *p)));
        nested.finish(|f, p| nested_out.push((f, *p)));
        assert_eq!(flat_out, nested_out);
        assert!(flat_out.iter().all(|(_, p)| p.size == MAX_PACKET_SIZE));
        assert_eq!(flat.overhead(), nested.overhead());
    }

    #[test]
    fn reset_clears_state_and_replays_identically() {
        let trace = trace();
        let mut pipeline = StagePipeline::new().with_stage(PaddingStage::new(PacketPadder::new()));
        let mut first = Vec::new();
        pipeline.process_batch(trace.packets(), |f, p| first.push((f, *p)));
        pipeline.finish(|f, p| first.push((f, *p)));
        pipeline.reset();
        assert_eq!(pipeline.overhead(), Overhead::default());
        let mut second = Vec::new();
        pipeline.process_batch(trace.packets(), |f, p| second.push((f, *p)));
        pipeline.finish(|f, p| second.push((f, *p)));
        assert_eq!(first, second);
    }

    #[test]
    fn flow_map_allocates_dense_ids_in_first_seen_order() {
        let mut map: FlowMap<usize> = FlowMap::new();
        assert!(map.is_empty());
        assert_eq!(map.id_of(0, 7), (0, true));
        assert_eq!(map.id_of(0, 3), (1, true));
        assert_eq!(map.id_of(0, 7), (0, false));
        assert_eq!(map.id_of(1, 7), (2, true), "keyed per incoming flow");
        assert_eq!(map.len(), 3);
        map.reset();
        assert_eq!(map.id_of(0, 3), (0, true));
    }
}
