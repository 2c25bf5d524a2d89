//! Traffic morphing.
//!
//! Wright, Coull and Monrose (NDSS'09) propose rewriting the packet-size
//! distribution of one application so that it matches the distribution of a
//! *target* application, paying far less overhead than blanket padding. This
//! module implements a CDF-matching variant of the idea:
//!
//! * the empirical size CDF of the source and target applications are
//!   computed,
//! * each packet's size is mapped to the target size at the same quantile,
//! * because link-layer morphing cannot drop payload bytes, a packet is never
//!   shrunk below its original size (those bytes would have to be split into
//!   extra packets, which the paper also avoids in its comparison).
//!
//! Like the original morphing matrix, both CDFs are fixed **before** traffic
//! flows: [`MorphingStage`] then morphs each packet independently as it
//! streams by (a one-in/one-out [`PacketStage`]), so morphing runs on
//! unbounded sessions and composes with reshaping. The batch
//! [`TrafficMorpher::apply`] estimates the source CDF from the given trace and
//! drives a stage over it — a thin wrapper, byte-identical per seed
//! (property-tested in `tests/stage_equivalence.rs`).
//!
//! The paper pairs applications in a cycle (§IV-D): chatting→gaming,
//! gaming→browsing, browsing→BitTorrent, BitTorrent→video, video→downloading;
//! downloading and uploading are left as-is (they are already at the extremes
//! of the size spectrum).

use crate::overhead::Overhead;
use crate::stage::{stage_trace, FlowId, PacketStage, StageOutput};
use traffic_gen::app::AppKind;
use traffic_gen::distribution::SizeHistogram;
use traffic_gen::generator::SessionGenerator;
use traffic_gen::packet::PacketRecord;
use traffic_gen::trace::Trace;
use traffic_gen::MAX_PACKET_SIZE;

/// Bin width used for the morphing CDFs.
const MORPH_BIN_WIDTH: usize = 8;

/// The application pairing used by the paper when morphing each class
/// (`source → target`). Applications not present map to themselves.
pub fn paper_morphing_target(source: AppKind) -> AppKind {
    match source {
        AppKind::Chatting => AppKind::Gaming,
        AppKind::Gaming => AppKind::Browsing,
        AppKind::Browsing => AppKind::BitTorrent,
        AppKind::BitTorrent => AppKind::Video,
        AppKind::Video => AppKind::Downloading,
        // Downloading / uploading keep their own shape in the paper's setup.
        other => other,
    }
}

/// A trace's packet sizes over the morphing bins.
fn morphing_histogram(trace: &Trace) -> SizeHistogram {
    SizeHistogram::from_sizes(
        trace.packets().iter().map(|p| p.size),
        MAX_PACKET_SIZE,
        MORPH_BIN_WIDTH,
    )
}

/// The size histogram, over the morphing bins, of the generated session
/// `SessionGenerator::new(app, seed).generate_secs(secs)`, streamed without
/// materialising the session (bit-identical to binning the trace).
pub(crate) fn calibration_histogram(app: AppKind, seed: u64, secs: f64) -> SizeHistogram {
    SessionGenerator::new(app, seed).size_histogram_secs(secs, MAX_PACKET_SIZE, MORPH_BIN_WIDTH)
}

/// Morphs packet sizes of a source trace toward a target application's
/// empirical size distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficMorpher {
    target_cdf: Vec<f64>,
    bin_width: usize,
}

impl TrafficMorpher {
    /// Builds a morpher whose target distribution is estimated from a trace of
    /// the target application.
    ///
    /// # Panics
    ///
    /// Panics if the target trace is empty.
    pub fn from_target_trace(target_trace: &Trace) -> Self {
        Self::from_target_histogram(&morphing_histogram(target_trace))
    }

    /// Builds a morpher from a size histogram of the target application
    /// over the morphing bins (e.g. [`calibration_histogram`]).
    ///
    /// # Panics
    ///
    /// Panics if the histogram is empty or uses other bins.
    pub(crate) fn from_target_histogram(target: &SizeHistogram) -> Self {
        assert!(
            !target.is_empty(),
            "cannot build a morphing target from an empty trace"
        );
        assert_eq!(
            target.bin_width(),
            MORPH_BIN_WIDTH,
            "not a morphing histogram"
        );
        TrafficMorpher {
            target_cdf: target.cdf(),
            bin_width: MORPH_BIN_WIDTH,
        }
    }

    /// Maps a quantile in `[0, 1]` to a size drawn from the target CDF (the
    /// first bin whose cumulative mass reaches `q`).
    fn target_size_at_quantile(&self, q: f64) -> usize {
        let q = q.clamp(0.0, 1.0);
        let i = self.target_cdf.partition_point(|c| *c < q);
        if i == self.target_cdf.len() {
            return MAX_PACKET_SIZE;
        }
        ((i * self.bin_width) + self.bin_width / 2).min(MAX_PACKET_SIZE)
    }

    /// The streaming morphing stage, with the source size distribution
    /// estimated from `source_trace` (e.g. a recorded calibration session of
    /// the application being disguised).
    ///
    /// # Panics
    ///
    /// Panics if the source trace is empty.
    pub fn stage_for_source_trace(&self, source_trace: &Trace) -> MorphingStage {
        self.stage_for_source_histogram(&morphing_histogram(source_trace))
    }

    /// The streaming morphing stage for a source size histogram over the
    /// morphing bins (e.g. [`calibration_histogram`]).
    ///
    /// # Panics
    ///
    /// Panics if the histogram is empty or uses other bins.
    pub(crate) fn stage_for_source_histogram(&self, source: &SizeHistogram) -> MorphingStage {
        assert!(
            !source.is_empty(),
            "cannot estimate a source CDF from an empty trace"
        );
        assert_eq!(
            source.bin_width(),
            self.bin_width,
            "not a morphing histogram"
        );
        MorphingStage::new(self.clone(), source.cdf())
    }

    /// Morphs a source trace: every packet's size is replaced by the target
    /// size at the same quantile of the *source* distribution, but never made
    /// smaller than the original packet. Returns the morphed trace and the
    /// byte overhead.
    ///
    /// This is the thin batch wrapper over [`MorphingStage`]: the source CDF
    /// is estimated from `source` itself, then the packets stream through the
    /// stage one at a time.
    pub fn apply(&self, source: &Trace) -> (Trace, Overhead) {
        if source.is_empty() {
            return (source.clone(), Overhead::default());
        }
        let mut stage = self.stage_for_source_trace(source);
        let packets = stage_trace(&mut stage, source)
            .into_iter()
            .map(|(_, p)| p)
            .collect();
        (Trace::from_packets(source.app(), packets), stage.overhead())
    }
}

/// The streaming morphing defense: maps each packet's size to the target
/// distribution's size at the same quantile of the (pre-estimated) source
/// distribution, never shrinking a packet.
#[derive(Debug, Clone, PartialEq)]
pub struct MorphingStage {
    morpher: TrafficMorpher,
    source_cdf: Vec<f64>,
    /// Source bin → morphed size, precomputed at construction so the
    /// per-packet kernel is one bounded table load instead of a CDF walk.
    bin_to_target: Vec<usize>,
    ledger: Overhead,
}

impl MorphingStage {
    /// Creates a stage from a morpher (target CDF) and a pre-computed source
    /// CDF over the morpher's bin width (as returned by
    /// [`SizeHistogram::cdf`]).
    ///
    /// # Panics
    ///
    /// Panics if the source CDF is empty.
    pub fn new(morpher: TrafficMorpher, source_cdf: Vec<f64>) -> Self {
        assert!(!source_cdf.is_empty(), "source CDF must not be empty");
        // Both CDFs are fixed before traffic flows, so the whole
        // quantile-matching composition collapses into one lookup table.
        let bin_to_target = source_cdf
            .iter()
            .map(|&q| morpher.target_size_at_quantile(q))
            .collect();
        MorphingStage {
            morpher,
            source_cdf,
            bin_to_target,
            ledger: Overhead::default(),
        }
    }

    /// Morphs one size (the per-packet kernel shared with the batch path).
    fn morph_size(&self, size: usize) -> usize {
        debug_assert!(
            size <= MAX_PACKET_SIZE,
            "packet size {size} exceeds MAX_PACKET_SIZE ({MAX_PACKET_SIZE}); \
             upstream stages must emit link-layer-sized packets"
        );
        let bin = size.min(MAX_PACKET_SIZE) / self.morpher.bin_width;
        // Never shrink: link-layer morphing cannot delete payload bytes.
        self.bin_to_target[bin.min(self.bin_to_target.len() - 1)].max(size)
    }
}

impl PacketStage for MorphingStage {
    fn name(&self) -> &'static str {
        "morphing"
    }

    fn on_packet(&mut self, flow: FlowId, packet: &PacketRecord, out: &mut StageOutput) {
        let morphed = packet.with_size(self.morph_size(packet.size));
        self.ledger.record(packet.size as u64, morphed.size as u64);
        out.push((flow, morphed));
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
    use traffic_gen::packet::Direction;

    fn trace_of(app: AppKind, seed: u64, secs: f64) -> Trace {
        SessionGenerator::new(app, seed).generate_secs(secs)
    }

    #[test]
    fn paper_pairing_is_a_partial_cycle() {
        assert_eq!(paper_morphing_target(AppKind::Chatting), AppKind::Gaming);
        assert_eq!(paper_morphing_target(AppKind::Gaming), AppKind::Browsing);
        assert_eq!(
            paper_morphing_target(AppKind::Browsing),
            AppKind::BitTorrent
        );
        assert_eq!(paper_morphing_target(AppKind::BitTorrent), AppKind::Video);
        assert_eq!(paper_morphing_target(AppKind::Video), AppKind::Downloading);
        assert_eq!(
            paper_morphing_target(AppKind::Downloading),
            AppKind::Downloading
        );
        assert_eq!(
            paper_morphing_target(AppKind::Uploading),
            AppKind::Uploading
        );
    }

    #[test]
    fn morphing_moves_the_mean_toward_the_target() {
        let chat = trace_of(AppKind::Chatting, 1, 120.0);
        let gaming = trace_of(AppKind::Gaming, 2, 120.0);
        let morpher = TrafficMorpher::from_target_trace(&gaming);
        let (morphed, overhead) = morpher.apply(&chat);
        assert_eq!(morphed.len(), chat.len());
        let before = chat.mean_packet_size();
        let after = morphed.mean_packet_size();
        let target = gaming.mean_packet_size();
        assert!(
            (after - target).abs() < (before - target).abs(),
            "morphing should move the mean toward the target: before {before:.0}, after {after:.0}, target {target:.0}"
        );
        assert!(overhead.percent() > 0.0);
        assert_eq!(
            overhead.transformed_packets, overhead.original_packets,
            "morphing never adds packets"
        );
    }

    #[test]
    fn packets_are_never_shrunk() {
        let video = trace_of(AppKind::Video, 3, 30.0);
        let chat = trace_of(AppKind::Chatting, 4, 120.0);
        // Morphing large-packet video toward small-packet chat must not shrink anything.
        let morpher = TrafficMorpher::from_target_trace(&chat);
        let (morphed, overhead) = morpher.apply(&video);
        for (orig, new) in video.packets().iter().zip(morphed.packets()) {
            assert!(new.size >= orig.size);
            assert!(new.size <= MAX_PACKET_SIZE);
        }
        // Nothing to grow either: overhead is tiny.
        assert!(overhead.percent() < 5.0);
    }

    #[test]
    fn timing_is_unchanged() {
        let chat = trace_of(AppKind::Chatting, 5, 60.0);
        let gaming = trace_of(AppKind::Gaming, 6, 60.0);
        let (morphed, _) = TrafficMorpher::from_target_trace(&gaming).apply(&chat);
        for (a, b) in chat.packets().iter().zip(morphed.packets()) {
            assert_eq!(a.time, b.time);
            assert_eq!(a.direction, b.direction);
        }
        assert_eq!(
            chat.mean_interarrival_secs(Direction::Downlink),
            morphed.mean_interarrival_secs(Direction::Downlink)
        );
    }

    #[test]
    fn morphing_is_cheaper_than_padding() {
        // Table VI: morphing overhead (39 %) is far below padding (121 %).
        let mut morph_total = 0.0;
        let mut pad_total = 0.0;
        for (i, app) in AppKind::ALL.iter().enumerate() {
            let source = trace_of(*app, 10 + i as u64, 60.0);
            let target_app = paper_morphing_target(*app);
            let target = trace_of(target_app, 100 + i as u64, 60.0);
            let (_, morph) = TrafficMorpher::from_target_trace(&target).apply(&source);
            let (_, pad) = crate::padding::PacketPadder::new().apply(&source);
            morph_total += morph.percent();
            pad_total += pad.percent();
        }
        assert!(
            morph_total < pad_total,
            "morphing ({morph_total:.1}) must be cheaper than padding ({pad_total:.1})"
        );
    }

    #[test]
    fn stage_streams_packets_one_at_a_time() {
        // The stage with a pre-estimated source CDF morphs a live stream
        // without ever seeing the whole trace.
        let chat = trace_of(AppKind::Chatting, 7, 60.0);
        let gaming = trace_of(AppKind::Gaming, 8, 60.0);
        let morpher = TrafficMorpher::from_target_trace(&gaming);
        let mut stage = morpher.stage_for_source_trace(&chat);
        assert_eq!(stage.name(), "morphing");
        let mut out = StageOutput::new();
        for p in chat.packets() {
            stage.on_packet(ROOT_FLOW, p, &mut out);
        }
        stage.flush(&mut out);
        assert_eq!(out.len(), chat.len());
        for ((flow, morphed), orig) in out.iter().zip(chat.packets()) {
            assert_eq!(*flow, ROOT_FLOW);
            assert!(morphed.size >= orig.size);
            assert_eq!(morphed.time, orig.time);
        }
        assert_eq!(stage.overhead().original_bytes, chat.total_bytes());
        stage.reset();
        assert_eq!(stage.overhead(), Overhead::default());
    }

    #[test]
    fn empty_source_is_a_no_op() {
        let gaming = trace_of(AppKind::Gaming, 9, 30.0);
        let morpher = TrafficMorpher::from_target_trace(&gaming);
        let (out, overhead) = morpher.apply(&Trace::new());
        assert!(out.is_empty());
        assert_eq!(overhead.percent(), 0.0);
    }

    #[test]
    #[should_panic]
    fn empty_target_trace_panics() {
        let _ = TrafficMorpher::from_target_trace(&Trace::new());
    }

    #[test]
    #[should_panic]
    fn empty_source_trace_panics_for_the_stage() {
        let gaming = trace_of(AppKind::Gaming, 10, 30.0);
        let _ = TrafficMorpher::from_target_trace(&gaming).stage_for_source_trace(&Trace::new());
    }

    fn stage_for_tests() -> MorphingStage {
        let chat = trace_of(AppKind::Chatting, 11, 60.0);
        let gaming = trace_of(AppKind::Gaming, 12, 60.0);
        TrafficMorpher::from_target_trace(&gaming).stage_for_source_trace(&chat)
    }

    #[test]
    fn lut_matches_the_quantile_walk_for_every_size() {
        // The precomputed bin→target table must agree with recomputing the
        // quantile match from the CDFs for every admissible size.
        let stage = stage_for_tests();
        for size in 0..=MAX_PACKET_SIZE {
            let bin = size / stage.morpher.bin_width;
            let q = stage.source_cdf[bin.min(stage.source_cdf.len() - 1)];
            let walked = stage.morpher.target_size_at_quantile(q).max(size);
            assert_eq!(stage.morph_size(size), walked, "size {size}");
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "exceeds MAX_PACKET_SIZE")]
    fn oversize_packet_trips_the_debug_assert() {
        // Sizes above the link MTU are an upstream bug: loudly reject them in
        // debug builds instead of silently saturating.
        let stage = stage_for_tests();
        let _ = stage.morph_size(MAX_PACKET_SIZE + 1);
    }

    #[test]
    fn sizes_past_the_last_source_bin_clamp_to_the_last_quantile() {
        // A source CDF estimated from a trace may cover fewer bins than the
        // MTU allows; any larger (still admissible) size must clamp to the
        // last bin's quantile rather than index out of bounds.
        let gaming = trace_of(AppKind::Gaming, 13, 60.0);
        let morpher = TrafficMorpher::from_target_trace(&gaming);
        // Short source CDF: two bins covering sizes 0..16 only.
        let stage = MorphingStage::new(morpher, vec![0.5, 1.0]);
        let at_last_bin = stage.morph_size(8);
        for size in [16, 100, MAX_PACKET_SIZE] {
            assert_eq!(stage.morph_size(size), at_last_bin.max(size), "size {size}");
        }
    }

    #[test]
    fn degenerate_single_bin_cdf_morphs_every_size_to_the_top_quantile() {
        let gaming = trace_of(AppKind::Gaming, 14, 60.0);
        let morpher = TrafficMorpher::from_target_trace(&gaming);
        let top = morpher.target_size_at_quantile(1.0);
        let stage = MorphingStage::new(morpher, vec![1.0]);
        for size in [0, 1, 64, 700, MAX_PACKET_SIZE] {
            assert_eq!(stage.morph_size(size), top.max(size), "size {size}");
        }
    }
}
