//! Glue between the WLAN simulator, the reshaping engine and the adversary.
//!
//! The member crates are deliberately decoupled: `wlan-sim` knows about frames
//! and RSSI, `traffic-gen` about packet streams, `classifier` about feature
//! vectors. The bridge converts between those views so the examples and
//! integration tests can run a *complete* pipeline: application traffic →
//! reshaping → frames on the air → sniffer captures → classifier input.
//!
//! Two data paths are provided:
//!
//! * the batch [`trace_to_frames`], which converts a whole materialised
//!   [`Trace`] at once, and
//! * the streaming [`FrameStream`] (built by [`stream_frames`]), the online
//!   Fig. 3 path: packets are pulled from any [`PacketSource`], dispatched
//!   through the [`ReshapeStage`] — the one reshaping engine — and emitted
//!   as on-air frames one at a time, so memory stays O(1) even for unbounded
//!   sessions.
//!
//! The streaming adapter accepts a defense [`StagePipeline`] in front of
//! the reshaper ([`stream_frames_staged`]): packets are padded, morphed or
//! otherwise transformed stage by stage before the engine dispatches them, so
//! composed defense∘reshape scenarios reach the air with no extra plumbing.
//! On-air identity always comes from the stage's vif ([`ReshapeStage::vif_of`])
//! through the vif → MAC translation: every staged packet enters the engine
//! on [`ROOT_FLOW`], so upstream sub-flow ids are deliberately collapsed.
//! Use transforming stages here — a partitioning stage (pseudonyms, FH)
//! changes nothing on the air and belongs in the evaluation pipeline instead.
//!
//! Both paths resolve a packet's virtual MAC through the installed
//! [`TranslationTable`], exactly as the paper's data path does, and produce
//! byte-identical frames for the same packets, algorithm and seed.
//!
//! On the receive side the loop closes at the sniffer: [`captures_to_trace`]
//! reassembles a materialised per-device trace for the batch adversary, and
//! [`captures_into_sink`] feeds the same frames straight into a live
//! [`AdversarySink`] — the streaming adversary windows, scores and learns as
//! frames are captured, so the whole
//! generator → defense → air → sniffer → classifier chain runs without one
//! materialised trace.

use crate::analysis::online::AdversarySink;
use crate::defense::stage::{PacketStage, StageOutput, StagePipeline, ROOT_FLOW, STAGE_BATCH};
use crate::reshape::reshaper::Reshaper;
use crate::reshape::stage::ReshapeStage;
use crate::reshape::translation::TranslationTable;
use crate::reshape::vif::VifIndex;
use crate::traffic::app::AppKind;
use crate::traffic::packet::{Direction, PacketRecord};
use crate::traffic::stream::PacketSource;
use crate::traffic::trace::Trace;
use crate::wlan::channel::{Medium, Position};
use crate::wlan::frame::{Frame, MAC_OVERHEAD_BYTES};
use crate::wlan::mac::MacAddress;
use crate::wlan::phy::Channel;
use crate::wlan::sniffer::{CapturedFrame, Sniffer};
use crate::wlan::time::SimTime;
use rand::Rng;

/// Converts one packet record into an on-air frame between a station (or one
/// of its virtual interfaces) and the AP.
///
/// Downlink packets become `AP -> station_addr` frames, uplink packets become
/// `station_addr -> AP` frames. The frame's on-air size equals the packet's
/// recorded size (payload is zero-filled; only its length matters).
pub fn packet_to_frame(packet: &PacketRecord, station_addr: MacAddress, ap: MacAddress) -> Frame {
    let (src, dst) = match packet.direction {
        Direction::Downlink => (ap, station_addr),
        Direction::Uplink => (station_addr, ap),
    };
    let air_size = packet.size.max(MAC_OVERHEAD_BYTES);
    Frame::data_of_air_size(src, dst, air_size)
}

/// Resolves the on-air address for a packet assigned to `vif`: the station's
/// virtual MAC from the translation table, falling back to the physical
/// address when no mapping is installed (reshaping disabled).
fn on_air_address(table: &TranslationTable, physical: MacAddress, vif: VifIndex) -> MacAddress {
    table.virtual_of(physical, vif).unwrap_or(physical)
}

/// Converts a whole trace into frames, dispatching every packet through the
/// reshaping engine so each frame carries the virtual MAC address chosen by
/// the scheduler. Returns `(time, frame)` pairs in transmission order.
///
/// The installed [`TranslationTable`] is the single source of vif→MAC truth —
/// the produced frames are exactly what the paper's Fig. 3 data path would
/// put on the air. Stations without an installed mapping transmit under their
/// physical address.
pub fn trace_to_frames(
    trace: &Trace,
    reshaper: &mut Reshaper,
    table: &TranslationTable,
    physical: MacAddress,
    ap: MacAddress,
) -> Vec<(SimTime, Frame)> {
    let outcome = reshaper.reshape(trace);
    trace
        .packets()
        .iter()
        .zip(outcome.assignments())
        .map(|(packet, &(_, vif))| {
            let addr = on_air_address(table, physical, vif);
            (packet.time, packet_to_frame(packet, addr, ap))
        })
        .collect()
}

/// The streaming packets → stages → reshaper → frames adapter.
///
/// Pulls packets from a [`PacketSource`], runs each through an optional
/// defense [`StagePipeline`] (identity by default), dispatches every
/// surviving packet to a virtual interface through the [`ReshapeStage`] and
/// yields the on-air frame immediately: at most one source packet in flight
/// at a time, no trace materialisation. Create one with [`stream_frames`] or
/// [`stream_frames_staged`].
#[derive(Debug)]
pub struct FrameStream<'a, S: PacketSource> {
    source: S,
    stages: StagePipeline,
    /// Staged packets not yet dispatched (a stage may emit several packets,
    /// or none, per source packet).
    pending: std::collections::VecDeque<PacketRecord>,
    /// Source-packet buffer [`next_chunk`](FrameStream::next_chunk) stages
    /// in one [`StagePipeline::process_batch`] call.
    batch: Vec<PacketRecord>,
    flushed: bool,
    reshaper: &'a mut ReshapeStage,
    /// The reshaper's output for the packet being dispatched.
    dispatched: StageOutput,
    table: &'a TranslationTable,
    physical: MacAddress,
    ap: MacAddress,
}

impl<S: PacketSource> FrameStream<'_, S> {
    /// Packets emitted so far (the reshaper's ledger, which counts across
    /// every source the stage has dispatched since its last reset).
    pub fn packets_emitted(&self) -> u64 {
        self.reshaper.overhead().transformed_packets
    }

    /// The defense pipeline in front of the reshaper (its overhead ledger
    /// reports what the stages cost so far).
    pub fn stages(&self) -> &StagePipeline {
        &self.stages
    }

    /// Fills `out` (cleared first) with the next chunk of on-air frames —
    /// the sliced twin of the per-frame `Iterator` path: up to
    /// [`STAGE_BATCH`] source packets are staged in one
    /// [`StagePipeline::process_batch`] call, then every staged packet is
    /// dispatched through the reshaper and converted in exactly the order
    /// the per-frame path would have produced (`process_batch` is pinned
    /// byte-identical to per-packet `process`). Returns the number of frames
    /// appended; `0` means the stream is exhausted. Chunked and per-frame
    /// pulls may interleave freely — both drain the same staged queue.
    pub fn next_chunk(&mut self, out: &mut Vec<(SimTime, Frame)>) -> usize {
        out.clear();
        while self.pending.is_empty() && !self.flushed {
            self.batch.clear();
            while self.batch.len() < STAGE_BATCH {
                match self.source.next_packet() {
                    Some(packet) => self.batch.push(packet),
                    None => {
                        self.flushed = true;
                        break;
                    }
                }
            }
            let pending = &mut self.pending;
            self.stages
                .process_batch(&self.batch, |_, staged| pending.push_back(*staged));
            if self.flushed {
                self.stages.finish(|_, staged| pending.push_back(*staged));
            }
        }
        while let Some(packet) = self.pending.pop_front() {
            out.push(self.dispatch(&packet));
        }
        out.len()
    }

    /// Dispatches one staged packet through the reshaper and converts it to
    /// the on-air frame of the virtual interface it was assigned to.
    fn dispatch(&mut self, packet: &PacketRecord) -> (SimTime, Frame) {
        self.dispatched.clear();
        self.reshaper
            .on_packet(ROOT_FLOW, packet, &mut self.dispatched);
        let (flow, _) = self.dispatched[0];
        let vif = self
            .reshaper
            .vif_of(flow)
            .expect("the stage maps every output flow to an interface");
        let addr = on_air_address(self.table, self.physical, vif);
        (packet.time, packet_to_frame(packet, addr, self.ap))
    }
}

impl<S: PacketSource> Iterator for FrameStream<'_, S> {
    type Item = (SimTime, Frame);

    fn next(&mut self) -> Option<(SimTime, Frame)> {
        loop {
            if let Some(packet) = self.pending.pop_front() {
                return Some(self.dispatch(&packet));
            }
            if self.flushed {
                return None;
            }
            let pending = &mut self.pending;
            match self.source.next_packet() {
                Some(packet) => self
                    .stages
                    .process(&packet, |_, staged| pending.push_back(*staged)),
                None => {
                    self.flushed = true;
                    self.stages.finish(|_, staged| pending.push_back(*staged));
                }
            }
        }
    }
}

/// Builds the streaming packets → reshaper → frames pipeline over any packet
/// source. The reshaper stage is **not** reset, so one engine can span
/// multiple sources when a session is delivered in segments.
pub fn stream_frames<'a, S: PacketSource>(
    source: S,
    reshaper: &'a mut ReshapeStage,
    table: &'a TranslationTable,
    physical: MacAddress,
    ap: MacAddress,
) -> FrameStream<'a, S> {
    stream_frames_staged(source, StagePipeline::new(), reshaper, table, physical, ap)
}

/// Builds the streaming pipeline with a defense [`StagePipeline`] spliced in
/// before the reshaper: packets → stages → reshaper → frames. The stages run
/// per packet, so the composition streams in O(1) memory like the plain path.
///
/// The stages should be **transforming** (padding, morphing, a nested
/// pipeline of both): every staged packet enters the reshaper on
/// [`ROOT_FLOW`], and its vif → MAC translation alone decides the on-air
/// address, so any sub-flow partitioning an upstream stage performs is
/// collapsed here.
pub fn stream_frames_staged<'a, S: PacketSource>(
    source: S,
    stages: StagePipeline,
    reshaper: &'a mut ReshapeStage,
    table: &'a TranslationTable,
    physical: MacAddress,
    ap: MacAddress,
) -> FrameStream<'a, S> {
    FrameStream {
        source,
        stages,
        pending: std::collections::VecDeque::new(),
        batch: Vec::new(),
        flushed: false,
        reshaper,
        dispatched: StageOutput::with_capacity(1),
        table,
        physical,
        ap,
    }
}

/// Feeds a frame stream into a `wlan-sim` sniffer through the PHY model:
/// every frame is transmitted from the AP's or the station's position
/// (depending on direction) and captured subject to channel and signal
/// conditions. Returns the number of frames the sniffer actually captured.
#[allow(clippy::too_many_arguments)]
pub fn inject_frames<I, R>(
    frames: I,
    sniffer: &mut Sniffer,
    ap: MacAddress,
    ap_view: (Position, f64),
    station_view: (Position, f64),
    channel: Channel,
    medium: &Medium,
    rng: &mut R,
) -> usize
where
    I: IntoIterator<Item = (SimTime, Frame)>,
    R: Rng + ?Sized,
{
    let mut captured = 0;
    for (time, frame) in frames {
        let (position, power_dbm) = if frame.header().src() == ap {
            ap_view
        } else {
            station_view
        };
        if sniffer.observe(time, &frame, position, power_dbm, channel, medium, rng) {
            captured += 1;
        }
    }
    captured
}

/// Feeds sniffer captures for one observed device straight into a live
/// [`AdversarySink`]: every data frame involving `device` is converted back
/// into a packet record (the adversary's per-"user" flow reassembly) and
/// pushed into the sink's windowers, so the online adversary tests-then-trains
/// the moment each eavesdropping window closes — the paper's live
/// eavesdropper, end to end on sniffed frames instead of materialised traces.
///
/// All of a device's frames form one sub-flow (the sniffer already separates
/// devices by address; feed each virtual MAC its own sink to mirror the
/// per-interface view). `label` is the ground-truth application used for
/// scoring; a real adversary obviously does not know it. Returns the number
/// of frames absorbed. The caller finishes the sink at end of capture
/// (`sink.finish()`).
pub fn captures_into_sink(
    captures: &[CapturedFrame],
    device: MacAddress,
    label: AppKind,
    sink: &mut AdversarySink,
) -> usize {
    // All of the device's packets form one sub-flow, so the reassembled
    // stream rides the sink's single-run sliced entry in blocks — one
    // windower dispatch per block, bit-identical to pushing each packet.
    const SINK_CHUNK: usize = 256;
    let mut absorbed = 0;
    let mut run: Vec<PacketRecord> = Vec::with_capacity(SINK_CHUNK);
    for packet in device_packets(captures, device, label) {
        run.push(packet);
        if run.len() == SINK_CHUNK {
            sink.push_run(0, &run);
            absorbed += run.len();
            run.clear();
        }
    }
    sink.push_run(0, &run);
    absorbed += run.len();
    absorbed
}

/// The shared receive-side reassembly rule: the data frames captured for
/// `device`, as packet records whose direction is relative to the device.
/// Both [`captures_to_trace`] and [`captures_into_sink`] are built on this,
/// so the batch and live receive paths can never diverge.
fn device_packets(
    captures: &[CapturedFrame],
    device: MacAddress,
    label: AppKind,
) -> impl Iterator<Item = PacketRecord> + '_ {
    captures
        .iter()
        .filter(move |c| c.is_data && (c.src == device || c.dst == device))
        .map(move |c| {
            let direction = if c.dst == device {
                Direction::Downlink
            } else {
                Direction::Uplink
            };
            PacketRecord::new(c.time, c.size, direction, label)
        })
}

/// Converts sniffer captures back into a labelled trace for one observed
/// device address (the adversary's per-"user" flow reassembly).
///
/// `label` is the ground-truth application used when scoring the classifier;
/// a real adversary obviously does not know it.
pub fn captures_to_trace(
    captures: &[CapturedFrame],
    device: MacAddress,
    label: Option<AppKind>,
) -> Trace {
    let packets = device_packets(captures, device, label.unwrap_or(AppKind::Browsing)).collect();
    let mut trace = Trace::from_packets(label, packets);
    if label.is_none() {
        trace.set_app(None);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reshape::ranges::SizeRanges;
    use crate::reshape::scheduler::OrthogonalRanges;
    use crate::reshape::vif::VirtualInterfaceSet;
    use crate::traffic::generator::SessionGenerator;
    use crate::traffic::stream::StreamingSession;
    use crate::wlan::channel::PathLossModel;
    use crate::wlan::time::SimTime;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn station() -> MacAddress {
        MacAddress::new([0x00, 0x11, 0x22, 0, 0, 1])
    }

    fn ap() -> MacAddress {
        MacAddress::new([0x00, 0x1f, 0x3a, 0, 0, 0xaa])
    }

    fn installed_vifs(seed: u64, n: usize) -> (VirtualInterfaceSet, TranslationTable) {
        let mut rng = StdRng::seed_from_u64(seed);
        let macs: Vec<MacAddress> = (0..n)
            .map(|_| MacAddress::random_locally_administered(&mut rng))
            .collect();
        let vifs = VirtualInterfaceSet::from_macs(&macs);
        let mut table = TranslationTable::new();
        table.install(station(), &vifs);
        (vifs, table)
    }

    fn or_reshaper() -> Reshaper {
        Reshaper::new(Box::new(OrthogonalRanges::new(SizeRanges::paper_default())))
    }

    fn or_stage() -> ReshapeStage {
        ReshapeStage::new(Box::new(OrthogonalRanges::new(SizeRanges::paper_default())))
    }

    #[test]
    fn packet_to_frame_maps_directions() {
        let down = PacketRecord::at_secs(0.0, 1400, Direction::Downlink, AppKind::Video);
        let up = PacketRecord::at_secs(0.1, 200, Direction::Uplink, AppKind::Video);
        let f_down = packet_to_frame(&down, station(), ap());
        assert_eq!(f_down.header().src(), ap());
        assert_eq!(f_down.header().dst(), station());
        assert_eq!(f_down.air_size(), 1400);
        let f_up = packet_to_frame(&up, station(), ap());
        assert_eq!(f_up.header().src(), station());
        assert_eq!(f_up.header().dst(), ap());
        assert_eq!(f_up.air_size(), 200);
        // Tiny packets are clamped to the MAC overhead.
        let tiny = PacketRecord::at_secs(0.2, 10, Direction::Uplink, AppKind::Video);
        assert_eq!(
            packet_to_frame(&tiny, station(), ap()).air_size(),
            MAC_OVERHEAD_BYTES
        );
    }

    #[test]
    fn trace_to_frames_uses_virtual_addresses() {
        let (vifs, table) = installed_vifs(3, 3);
        let macs = vifs.macs();
        let trace = SessionGenerator::new(AppKind::BitTorrent, 1).generate_secs(5.0);
        let mut reshaper = or_reshaper();
        let frames = trace_to_frames(&trace, &mut reshaper, &table, station(), ap());
        assert_eq!(frames.len(), trace.len());
        // Every frame involves the AP and one of the virtual addresses.
        for (_, frame) in &frames {
            let other = if frame.header().src() == ap() {
                frame.header().dst()
            } else {
                frame.header().src()
            };
            assert!(macs.contains(&other), "unexpected device address {other}");
        }
        // All three virtual addresses appear (BT covers all three size ranges).
        for mac in &macs {
            assert!(frames
                .iter()
                .any(|(_, f)| f.header().src() == *mac || f.header().dst() == *mac));
        }
    }

    #[test]
    fn translation_table_is_the_source_of_vif_addresses() {
        // Regression test for the dead-table bug: vif→MAC resolution must go
        // through the *installed* translation table. Each frame's device
        // address has to be exactly `table.virtual_of(physical, vif)` for the
        // vif the scheduler picked — recomputed here with an identical,
        // independently-built scheduler.
        let (_, table) = installed_vifs(7, 3);
        let trace = SessionGenerator::new(AppKind::BitTorrent, 2).generate_secs(5.0);
        let frames = trace_to_frames(&trace, &mut or_reshaper(), &table, station(), ap());
        let outcome = or_reshaper().reshape(&trace);
        assert_eq!(frames.len(), outcome.assignments().len());
        for ((_, frame), &(index, vif)) in frames.iter().zip(outcome.assignments()) {
            let expected = table
                .virtual_of(station(), vif)
                .expect("table maps every scheduled vif");
            let device = if frame.header().src() == ap() {
                frame.header().dst()
            } else {
                frame.header().src()
            };
            assert_eq!(
                device, expected,
                "packet {index}: frame must carry the table's address for {vif}"
            );
        }
    }

    #[test]
    fn uninstalled_station_falls_back_to_its_physical_address() {
        // No mapping installed: the station transmits under its physical MAC.
        let table = TranslationTable::new();
        let trace = SessionGenerator::new(AppKind::Video, 4).generate_secs(3.0);
        let frames = trace_to_frames(&trace, &mut or_reshaper(), &table, station(), ap());
        for (_, frame) in &frames {
            let device = if frame.header().src() == ap() {
                frame.header().dst()
            } else {
                frame.header().src()
            };
            assert_eq!(device, station());
        }
    }

    #[test]
    fn streaming_frames_are_byte_identical_to_batch() {
        // The tentpole equivalence at the bridge layer: same packets, same
        // algorithm, same seed -> identical frames from both data paths.
        let (_, table) = installed_vifs(5, 3);
        let trace = SessionGenerator::new(AppKind::BitTorrent, 9).generate_secs(10.0);
        let batch = trace_to_frames(&trace, &mut or_reshaper(), &table, station(), ap());
        let mut stage = or_stage();
        let streamed: Vec<(SimTime, Frame)> =
            stream_frames(trace.stream(), &mut stage, &table, station(), ap()).collect();
        assert_eq!(batch, streamed);
        assert_eq!(stage.overhead().transformed_packets as usize, trace.len());
    }

    #[test]
    fn staged_frame_stream_applies_defenses_before_reshaping() {
        // Padding stage ∘ OR through the frames adapter: every frame leaves
        // the air at the padded size, and the reshaper only ever saw
        // full-size packets (they all land on the large-size interface).
        use crate::defense::PacketPadder;
        let (_, table) = installed_vifs(13, 3);
        let trace = SessionGenerator::new(AppKind::BitTorrent, 17).generate_secs(5.0);
        let mut stage = or_stage();
        let stages = StagePipeline::new().with_stage(PacketPadder::new().stage());
        let frames: Vec<(SimTime, Frame)> =
            stream_frames_staged(trace.stream(), stages, &mut stage, &table, station(), ap())
                .collect();
        assert_eq!(frames.len(), trace.len());
        assert!(frames.iter().all(|(_, f)| f.air_size() == 1576));
        let large = SizeRanges::paper_default().range_of(1576);
        assert_eq!(stage.overhead().transformed_packets, trace.len() as u64);
        assert_eq!(stage.flow_count(), 1, "one interface carries every packet");
        assert_eq!(
            stage.vif_of(0),
            Some(VifIndex::new(large)),
            "padded packets all belong to the large-size interface"
        );
        // The staged and plain adapters agree when the pipeline is empty.
        let mut plain = or_stage();
        let unstaged: Vec<(SimTime, Frame)> =
            stream_frames(trace.stream(), &mut plain, &table, station(), ap()).collect();
        let mut identity = or_stage();
        let staged_identity: Vec<(SimTime, Frame)> = stream_frames_staged(
            trace.stream(),
            StagePipeline::new(),
            &mut identity,
            &table,
            station(),
            ap(),
        )
        .collect();
        assert_eq!(unstaged, staged_identity);
    }

    #[test]
    fn chunked_frame_stream_is_byte_identical_to_per_frame() {
        // next_chunk == next, frame for frame, with and without stages in
        // front — the bridge-layer half of the sliced-windowing equivalence.
        use crate::defense::PacketPadder;
        let (_, table) = installed_vifs(19, 3);
        let trace = SessionGenerator::new(AppKind::BitTorrent, 23).generate_secs(10.0);
        for staged in [false, true] {
            let stages = || {
                if staged {
                    StagePipeline::new().with_stage(PacketPadder::new().stage())
                } else {
                    StagePipeline::new()
                }
            };
            let mut per_frame_engine = or_stage();
            let per_frame: Vec<(SimTime, Frame)> = stream_frames_staged(
                trace.stream(),
                stages(),
                &mut per_frame_engine,
                &table,
                station(),
                ap(),
            )
            .collect();

            let mut chunked_engine = or_stage();
            let mut stream = stream_frames_staged(
                trace.stream(),
                stages(),
                &mut chunked_engine,
                &table,
                station(),
                ap(),
            );
            let mut chunked = Vec::new();
            let mut chunk = Vec::new();
            while stream.next_chunk(&mut chunk) > 0 {
                chunked.append(&mut chunk);
            }
            assert_eq!(per_frame, chunked, "staged={staged}");
            assert_eq!(per_frame_engine.overhead(), chunked_engine.overhead());
        }
    }

    #[test]
    fn sliced_sink_feed_matches_per_packet_push() {
        // captures_into_sink now rides AdversarySink::push_run; the live
        // adversary must end in exactly the state a per-packet feed reaches.
        use crate::analysis::ensemble::EnsembleConfig;
        use crate::analysis::features::FEATURE_DIM;
        use crate::analysis::online::{OnlineAdversary, PrequentialEvaluator};
        use crate::analysis::stream::FlowWindowers;
        use crate::analysis::window::{FeatureMode, DEFAULT_MIN_PACKETS};
        use crate::wlan::channel::PathLossModel;
        use crate::wlan::time::SimDuration;

        let table = TranslationTable::new();
        let mut stage = or_stage();
        let session = StreamingSession::bounded(AppKind::Video, 39, 45.0);
        let frames = stream_frames(session, &mut stage, &table, station(), ap());
        let medium = Medium::new(PathLossModel::deterministic(40.0, 2.0), -96.0);
        let mut sniffer = Sniffer::new(Position::new(4.0, 4.0), ap(), Channel::CH6);
        let mut rng = StdRng::seed_from_u64(13);
        inject_frames(
            frames,
            &mut sniffer,
            ap(),
            (Position::new(0.0, 0.0), 20.0),
            (Position::new(3.0, 0.0), 15.0),
            Channel::CH6,
            &medium,
            &mut rng,
        );

        let window = SimDuration::from_secs(5);
        let fresh_sink = || {
            AdversarySink::new(
                FlowWindowers::for_app(
                    window,
                    DEFAULT_MIN_PACKETS,
                    FeatureMode::Full,
                    AppKind::Video,
                ),
                PrequentialEvaluator::new(
                    OnlineAdversary::new(FEATURE_DIM, AppKind::COUNT, &EnsembleConfig::default()),
                    5,
                ),
            )
        };

        let mut sliced = fresh_sink();
        let absorbed =
            captures_into_sink(sniffer.captures(), station(), AppKind::Video, &mut sliced);
        sliced.finish();

        let mut per_packet = fresh_sink();
        let mut fed = 0;
        for packet in device_packets(sniffer.captures(), station(), AppKind::Video) {
            per_packet.push(0, &packet);
            fed += 1;
        }
        per_packet.finish();

        assert_eq!(absorbed, fed);
        assert!(absorbed > 0, "the sniffer captured nothing");
        assert_eq!(sliced.windows(), per_packet.windows());
        assert_eq!(
            sliced.evaluator().timeline(),
            per_packet.evaluator().timeline(),
            "prequential timelines must match window for window"
        );
        assert_eq!(sliced.evaluator().matrix(), per_packet.evaluator().matrix());
    }

    #[test]
    fn frame_stream_feeds_wlan_injection_end_to_end() {
        // Streaming generator -> reshaping stage -> frames -> sniffer:
        // the full Fig. 3 pipeline without a single materialised trace.
        let (vifs, table) = installed_vifs(11, 3);
        let mut stage = or_stage();
        let session = StreamingSession::bounded(AppKind::BitTorrent, 21, 10.0);
        let frames = stream_frames(session, &mut stage, &table, station(), ap());

        let medium = Medium::new(PathLossModel::deterministic(40.0, 2.0), -96.0);
        let mut sniffer = Sniffer::new(Position::new(5.0, 5.0), ap(), Channel::CH6);
        let mut rng = StdRng::seed_from_u64(1);
        let captured = inject_frames(
            frames,
            &mut sniffer,
            ap(),
            (Position::new(0.0, 0.0), 20.0),
            (Position::new(3.0, 0.0), 15.0),
            Channel::CH6,
            &medium,
            &mut rng,
        );
        assert!(captured > 0, "a nearby sniffer captures the stream");
        assert_eq!(captured, sniffer.len());
        // Per-interface reassembly: every virtual address yields a trace.
        let mut recovered = 0;
        for mac in vifs.macs() {
            recovered += captures_to_trace(sniffer.captures(), mac, None).len();
        }
        assert_eq!(recovered as u64, stage.overhead().transformed_packets);
    }

    #[test]
    fn captures_feed_the_live_adversary_sink() {
        // Sniffed frames → AdversarySink: the live adversary must score
        // exactly the windows the batch reassembly (captures_to_trace →
        // streamed windowing) produces for the same device.
        use crate::analysis::ensemble::EnsembleConfig;
        use crate::analysis::features::FEATURE_DIM;
        use crate::analysis::online::{OnlineAdversary, PrequentialEvaluator};
        use crate::analysis::stream::{streamed_examples, FlowWindowers};
        use crate::analysis::window::{FeatureMode, DEFAULT_MIN_PACKETS};
        use crate::wlan::channel::PathLossModel;
        use crate::wlan::time::SimDuration;

        let table = TranslationTable::new(); // physical address on the air
        let mut stage = or_stage();
        let session = StreamingSession::bounded(AppKind::Video, 33, 45.0);
        let frames = stream_frames(session, &mut stage, &table, station(), ap());

        let medium = Medium::new(PathLossModel::deterministic(40.0, 2.0), -96.0);
        let mut sniffer = Sniffer::new(Position::new(4.0, 4.0), ap(), Channel::CH6);
        let mut rng = StdRng::seed_from_u64(7);
        inject_frames(
            frames,
            &mut sniffer,
            ap(),
            (Position::new(0.0, 0.0), 20.0),
            (Position::new(3.0, 0.0), 15.0),
            Channel::CH6,
            &medium,
            &mut rng,
        );

        let window = SimDuration::from_secs(5);
        let adversary =
            OnlineAdversary::new(FEATURE_DIM, AppKind::COUNT, &EnsembleConfig::default());
        let mut sink = AdversarySink::new(
            FlowWindowers::for_app(
                window,
                DEFAULT_MIN_PACKETS,
                FeatureMode::Full,
                AppKind::Video,
            ),
            PrequentialEvaluator::new(adversary, 5),
        );
        let absorbed = captures_into_sink(sniffer.captures(), station(), AppKind::Video, &mut sink);
        sink.finish();

        let reassembled = captures_to_trace(sniffer.captures(), station(), Some(AppKind::Video));
        assert_eq!(absorbed, reassembled.len());
        assert!(absorbed > 0, "the sniffer captured nothing");
        let reference = streamed_examples(
            &mut reassembled.stream(),
            AppKind::Video,
            window,
            DEFAULT_MIN_PACKETS,
            FeatureMode::Full,
        );
        assert_eq!(sink.windows(), reference.len() as u64);
        assert_eq!(
            sink.evaluator().adversary().examples_seen(),
            reference.len() as u64
        );
    }

    #[test]
    fn captures_round_trip_back_to_traces() {
        let captures: Vec<CapturedFrame> = vec![
            CapturedFrame {
                time: SimTime::from_millis(0),
                size: 1500,
                src: ap(),
                dst: station(),
                bssid: ap(),
                channel: Channel::CH6,
                rssi_dbm: -50.0,
                is_data: true,
                from_ap: true,
            },
            CapturedFrame {
                time: SimTime::from_millis(10),
                size: 200,
                src: station(),
                dst: ap(),
                bssid: ap(),
                channel: Channel::CH6,
                rssi_dbm: -48.0,
                is_data: true,
                from_ap: false,
            },
            // Management frame: ignored.
            CapturedFrame {
                time: SimTime::from_millis(20),
                size: 60,
                src: station(),
                dst: ap(),
                bssid: ap(),
                channel: Channel::CH6,
                rssi_dbm: -48.0,
                is_data: false,
                from_ap: false,
            },
        ];
        let trace = captures_to_trace(&captures, station(), Some(AppKind::Video));
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.app(), Some(AppKind::Video));
        assert_eq!(trace.packets()[0].direction, Direction::Downlink);
        assert_eq!(trace.packets()[1].direction, Direction::Uplink);
        let unlabelled = captures_to_trace(&captures, station(), None);
        assert_eq!(unlabelled.app(), None);
    }
}
