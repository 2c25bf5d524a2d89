//! Packet sources, and [`FlowStream`]: the crate's one packet generator.
//!
//! The paper's Fig. 3 data path is online — every packet is dispatched to a
//! virtual interface the moment it leaves the TCP/IP stack — so the data
//! plane should be able to *touch a packet once* instead of materialising
//! whole traces. This module provides that substrate:
//!
//! * [`PacketSource`] — the pull-based trait every streaming stage consumes;
//! * [`TraceStream`] — adapts an existing batch [`Trace`] to the trait, which
//!   is how the batch and streaming paths are proven byte-identical;
//! * [`FlowStream`] — one direction of an application model, generated lazily.
//!   It is the only engine: batch sessions
//!   ([`SessionGenerator::generate_secs`](crate::generator::SessionGenerator::generate_secs))
//!   drain one per direction with a single sequential RNG, downlink then
//!   uplink;
//! * [`StreamingSession`] — a full bidirectional session, merged on the fly
//!   by timestamp. With no duration bound it is an *infinite* session: the
//!   long-running and multi-station scenarios that can never fit in memory as
//!   batch traces.
//!
//! A lazy merge cannot share the batch path's single sequential RNG, so a
//! [`StreamingSession`] gives each direction its own derived RNG stream: it
//! is distribution-identical but not packet-identical to
//! [`SessionGenerator::generate_secs`](crate::generator::SessionGenerator::generate_secs).
//! Reshaping equivalence is therefore stated where it matters: feeding the
//! *same* packets (via [`TraceStream`]) through the reshaping stage yields
//! byte-identical assignments to the batch reshaper.

use crate::app::AppKind;
use crate::models::{make_packet, ArrivalProcess, BidirectionalModel, FlowSpec};
use crate::packet::PacketRecord;
use crate::sampler::{Exponential, Normal};
use crate::trace::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A pull-based stream of packets in non-decreasing timestamp order.
///
/// This is the contract every streaming pipeline stage consumes: the online
/// reshaper pulls packets one at a time, assigns each to a virtual interface
/// and forgets it. Sources may be finite (a recorded trace, a bounded
/// session) or infinite (an unbounded [`StreamingSession`]).
pub trait PacketSource {
    /// Pulls the next packet, or `None` when the source is exhausted.
    fn next_packet(&mut self) -> Option<PacketRecord>;

    /// The ground-truth application label of the stream, if known.
    fn label(&self) -> Option<AppKind> {
        None
    }
}

impl<S: PacketSource + ?Sized> PacketSource for &mut S {
    fn next_packet(&mut self) -> Option<PacketRecord> {
        (**self).next_packet()
    }

    fn label(&self) -> Option<AppKind> {
        (**self).label()
    }
}

impl<S: PacketSource + ?Sized> PacketSource for Box<S> {
    fn next_packet(&mut self) -> Option<PacketRecord> {
        (**self).next_packet()
    }

    fn label(&self) -> Option<AppKind> {
        (**self).label()
    }
}

/// A [`PacketSource`] with one packet of lookahead: the next event's
/// timestamp can be inspected without consuming the packet.
///
/// This is the primitive the virtual-time executor schedules on — an active
/// station is represented in the event heap only by the wall-clock time of
/// its next packet, held here, while inactive stations hold no source (and
/// therefore no buffered state) at all. The buffered packet is re-emitted by
/// [`next_packet`](PacketSource::next_packet) in order, so wrapping a source
/// never changes the stream.
#[derive(Debug, Clone)]
pub struct PeekableSource<S> {
    inner: S,
    slot: Option<PacketRecord>,
}

impl<S: PacketSource> PeekableSource<S> {
    /// Wraps a source; nothing is pulled until the first peek or pull.
    pub fn new(inner: S) -> Self {
        PeekableSource { inner, slot: None }
    }

    /// The next packet, without consuming it (`None` once exhausted).
    pub fn peek(&mut self) -> Option<&PacketRecord> {
        if self.slot.is_none() {
            self.slot = self.inner.next_packet();
        }
        self.slot.as_ref()
    }

    /// The timestamp of the next packet, in seconds from the stream origin.
    pub fn next_time_secs(&mut self) -> Option<f64> {
        self.peek().map(|p| p.time.as_secs_f64())
    }

    /// Unwraps the inner source (the buffered packet, if any, is dropped).
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: PacketSource> PacketSource for PeekableSource<S> {
    fn next_packet(&mut self) -> Option<PacketRecord> {
        self.slot.take().or_else(|| self.inner.next_packet())
    }

    fn label(&self) -> Option<AppKind> {
        self.inner.label()
    }
}

/// A [`PacketSource`] view over a batch [`Trace`].
///
/// Used to drive streaming stages with pre-recorded packets — in particular
/// by the equivalence tests that prove the reshaping stage reproduces the
/// batch reshaper exactly.
#[derive(Debug, Clone)]
pub struct TraceStream<'a> {
    label: Option<AppKind>,
    packets: &'a [PacketRecord],
    next: usize,
}

impl<'a> TraceStream<'a> {
    /// Creates a stream over a trace's packets.
    pub fn new(trace: &'a Trace) -> Self {
        TraceStream {
            label: trace.app(),
            packets: trace.packets(),
            next: 0,
        }
    }

    /// Number of packets not yet pulled.
    pub fn remaining(&self) -> usize {
        self.packets.len() - self.next
    }
}

impl PacketSource for TraceStream<'_> {
    fn next_packet(&mut self) -> Option<PacketRecord> {
        let packet = self.packets.get(self.next)?;
        self.next += 1;
        Some(*packet)
    }

    fn label(&self) -> Option<AppKind> {
        self.label
    }
}

impl Iterator for TraceStream<'_> {
    type Item = PacketRecord;

    fn next(&mut self) -> Option<PacketRecord> {
        self.next_packet()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining(), Some(self.remaining()))
    }
}

impl Trace {
    /// A [`PacketSource`] over this trace's packets (borrowing, zero-copy).
    pub fn stream(&self) -> TraceStream<'_> {
        TraceStream::new(self)
    }
}

/// Progress through the current ON burst of an [`ArrivalProcess::OnOff`] flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BurstState {
    /// Packets in the current burst.
    total: usize,
    /// Packets of the current burst already emitted.
    emitted: usize,
    /// Whether any burst has been started (the first burst is not preceded by
    /// an OFF gap).
    started: bool,
}

/// One direction of an application's traffic, generated lazily.
///
/// Every generated packet comes from here, batch or streaming. A test-only
/// reference generator with one loop per arrival process pins the RNG
/// consumption order (property-tested in `stream::tests`). Without a
/// duration bound the flow never ends.
#[derive(Debug, Clone)]
pub struct FlowStream {
    spec: FlowSpec,
    app: AppKind,
    rng: StdRng,
    clock_secs: f64,
    limit_secs: Option<f64>,
    burst: BurstState,
    done: bool,
}

impl FlowStream {
    /// Creates a lazy flow for `spec`, bounded to `limit_secs` when given
    /// (`None` streams forever).
    pub fn new(spec: FlowSpec, app: AppKind, rng: StdRng, limit_secs: Option<f64>) -> Self {
        FlowStream {
            spec,
            app,
            rng,
            clock_secs: 0.0,
            limit_secs,
            burst: BurstState {
                total: 0,
                emitted: 0,
                started: false,
            },
            done: false,
        }
    }

    /// Unwraps the RNG in its current state, so a second flow can continue
    /// the same sequential stream where this one stopped.
    pub fn into_rng(self) -> StdRng {
        self.rng
    }
}

impl PacketSource for FlowStream {
    fn next_packet(&mut self) -> Option<PacketRecord> {
        if self.done {
            return None;
        }
        let limit = self.limit_secs.unwrap_or(f64::INFINITY);
        let rng = &mut self.rng;
        match &self.spec.arrivals {
            ArrivalProcess::Poisson { mean_gap_secs } => {
                self.clock_secs += Exponential::new(*mean_gap_secs).sample(rng);
            }
            ArrivalProcess::ConstantRate {
                gap_secs,
                jitter_secs,
            } => {
                let jitter = Normal::new(*gap_secs, *jitter_secs);
                self.clock_secs += jitter.sample_clamped(rng, gap_secs * 0.1, gap_secs * 4.0);
            }
            ArrivalProcess::OnOff {
                mean_burst_packets,
                in_burst_gap_secs,
                off_gap_secs,
            } => {
                if self.burst.emitted >= self.burst.total {
                    // Between bursts: the first burst starts at the clock
                    // origin, later ones after an exponential think-time.
                    if self.burst.started {
                        self.clock_secs += Exponential::new(*off_gap_secs).sample(rng);
                        if self.clock_secs > limit {
                            self.done = true;
                            return None;
                        }
                    }
                    // Geometric burst length with the requested mean (>= 1).
                    let p_stop = 1.0 / mean_burst_packets.max(1.0);
                    let mut total = 1usize;
                    while rng.gen::<f64>() > p_stop && total < 10_000 {
                        total += 1;
                    }
                    self.burst = BurstState {
                        total,
                        emitted: 0,
                        started: true,
                    };
                }
                if self.burst.emitted > 0 {
                    self.clock_secs += Exponential::new(*in_burst_gap_secs).sample(rng);
                }
                self.burst.emitted += 1;
            }
        }
        if self.clock_secs > limit {
            self.done = true;
            return None;
        }
        Some(make_packet(
            &self.spec,
            self.app,
            self.clock_secs,
            &mut self.rng,
        ))
    }

    fn label(&self) -> Option<AppKind> {
        Some(self.app)
    }
}

impl Iterator for FlowStream {
    type Item = PacketRecord;

    fn next(&mut self) -> Option<PacketRecord> {
        self.next_packet()
    }
}

/// A full application session generated lazily: downlink and uplink flows
/// merged by timestamp as they are pulled.
///
/// With `limit_secs = None` the session is infinite — the workload the batch
/// path cannot express, since an unbounded session never fits in memory as a
/// [`Trace`]. Each flow draws from its own seed-derived RNG stream, so the
/// merge needs only one packet of lookahead per direction: memory stays O(1)
/// regardless of session length.
#[derive(Debug, Clone)]
pub struct StreamingSession {
    app: AppKind,
    downlink: FlowStream,
    uplink: FlowStream,
    pending_down: Option<PacketRecord>,
    pending_up: Option<PacketRecord>,
}

impl StreamingSession {
    /// Creates an **infinite** session for `app` from the calibrated default
    /// model, seeded like the batch generator.
    pub fn unbounded(app: AppKind, seed: u64) -> Self {
        Self::from_model(&crate::models::spec_for(app), seed, None)
    }

    /// Creates a session bounded to `duration_secs` seconds.
    pub fn bounded(app: AppKind, seed: u64, duration_secs: f64) -> Self {
        Self::from_model(&crate::models::spec_for(app), seed, Some(duration_secs))
    }

    /// Creates a session from an explicit bidirectional model.
    pub fn from_model(model: &BidirectionalModel, seed: u64, limit_secs: Option<f64>) -> Self {
        let app = model.app_kind();
        // The same seed-mixing as the batch generator, then one derived
        // stream per direction (a lazy merge cannot share one sequential RNG).
        let base = seed ^ ((app.class_index() as u64) << 56);
        let derive = |lane: u64| {
            StdRng::seed_from_u64(
                base.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(lane)
                    .rotate_left(17),
            )
        };
        StreamingSession {
            app,
            downlink: FlowStream::new(model.downlink().clone(), app, derive(1), limit_secs),
            uplink: FlowStream::new(model.uplink().clone(), app, derive(2), limit_secs),
            pending_down: None,
            pending_up: None,
        }
    }

    /// The application being generated.
    pub fn app(&self) -> AppKind {
        self.app
    }

    /// Collects the whole (necessarily bounded) session into a batch trace.
    ///
    /// # Panics
    ///
    /// Panics if the session is unbounded — an infinite session cannot be
    /// materialised.
    pub fn collect_trace(mut self) -> Trace {
        assert!(
            self.downlink.limit_secs.is_some(),
            "cannot collect an unbounded streaming session into a trace"
        );
        let mut packets = Vec::new();
        while let Some(p) = self.next_packet() {
            packets.push(p);
        }
        Trace::from_packets(Some(self.app), packets)
    }
}

impl PacketSource for StreamingSession {
    fn next_packet(&mut self) -> Option<PacketRecord> {
        if self.pending_down.is_none() {
            self.pending_down = self.downlink.next_packet();
        }
        if self.pending_up.is_none() {
            self.pending_up = self.uplink.next_packet();
        }
        // Emit the earlier packet; ties go downlink-first, matching the
        // stable sort of the batch path (downlink generated before uplink).
        match (&self.pending_down, &self.pending_up) {
            (Some(d), Some(u)) => {
                if d.time <= u.time {
                    self.pending_down.take()
                } else {
                    self.pending_up.take()
                }
            }
            (Some(_), None) => self.pending_down.take(),
            (None, Some(_)) => self.pending_up.take(),
            (None, None) => None,
        }
    }

    fn label(&self) -> Option<AppKind> {
        Some(self.app)
    }
}

impl Iterator for StreamingSession {
    type Item = PacketRecord;

    fn next(&mut self) -> Option<PacketRecord> {
        self.next_packet()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::SessionGenerator;
    use crate::models::test_support::generate_flow;
    use crate::packet::Direction;
    use proptest::prelude::*;

    #[test]
    fn trace_stream_replays_packets_in_order() {
        let trace = SessionGenerator::new(AppKind::Gaming, 3).generate_secs(10.0);
        let mut stream = trace.stream();
        assert_eq!(stream.label(), Some(AppKind::Gaming));
        assert_eq!(stream.remaining(), trace.len());
        let replayed: Vec<PacketRecord> = (&mut stream).collect();
        assert_eq!(replayed.as_slice(), trace.packets());
        assert_eq!(stream.next_packet(), None, "exhausted source stays empty");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn flow_stream_matches_batch_generate_flow(seed in 0u64..200, app_index in 0usize..7) {
            // The streaming flow must consume its RNG exactly like the batch
            // path: identical packets for every arrival-process family.
            let app = AppKind::ALL[app_index];
            let model = crate::models::spec_for(app);
            for spec in [model.downlink(), model.uplink()] {
                let mut rng = StdRng::seed_from_u64(seed);
                let batch = generate_flow(spec, app, &mut rng, 10.0);
                let stream = FlowStream::new(spec.clone(), app, StdRng::seed_from_u64(seed), Some(10.0));
                let streamed: Vec<PacketRecord> = stream.collect();
                prop_assert_eq!(&streamed, &batch);
            }
        }
    }

    #[test]
    fn session_stream_is_sorted_labelled_and_bounded() {
        for app in AppKind::ALL {
            let packets: Vec<PacketRecord> = StreamingSession::bounded(app, 9, 15.0).collect();
            assert!(!packets.is_empty(), "{app} streamed no packets");
            assert!(packets.windows(2).all(|w| w[0].time <= w[1].time));
            assert!(packets.iter().all(|p| p.time.as_secs_f64() <= 15.0 + 1e-9));
            assert!(packets.iter().all(|p| p.app == app));
            assert!(packets
                .iter()
                .all(|p| p.size >= crate::MIN_PACKET_SIZE && p.size <= crate::MAX_PACKET_SIZE));
        }
    }

    #[test]
    fn session_stream_is_deterministic_per_seed() {
        let a: Vec<PacketRecord> = StreamingSession::bounded(AppKind::Video, 5, 10.0).collect();
        let b: Vec<PacketRecord> = StreamingSession::bounded(AppKind::Video, 5, 10.0).collect();
        let c: Vec<PacketRecord> = StreamingSession::bounded(AppKind::Video, 6, 10.0).collect();
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds give different streams");
    }

    #[test]
    fn bounded_collect_matches_incremental_pulls() {
        let collected = StreamingSession::bounded(AppKind::Browsing, 2, 12.0).collect_trace();
        let mut session = StreamingSession::bounded(AppKind::Browsing, 2, 12.0);
        let mut pulled = Vec::new();
        while let Some(p) = session.next_packet() {
            pulled.push(p);
        }
        assert_eq!(collected.packets(), pulled.as_slice());
        assert_eq!(collected.app(), Some(AppKind::Browsing));
    }

    #[test]
    fn unbounded_session_streams_past_any_batch_horizon() {
        // Pull far enough to cross minutes of session time without ever
        // materialising a trace; memory stays O(1).
        let mut session = StreamingSession::unbounded(AppKind::BitTorrent, 7);
        assert_eq!(session.app(), AppKind::BitTorrent);
        let mut last = 0.0f64;
        for _ in 0..50_000 {
            let p = session.next_packet().expect("infinite source never ends");
            let t = p.time.as_secs_f64();
            assert!(t >= last, "stream must stay time-ordered");
            last = t;
        }
        assert!(
            last > 60.0,
            "50k BitTorrent packets should span minutes, got {last:.1}s"
        );
    }

    #[test]
    fn both_directions_appear_in_streamed_sessions() {
        let packets: Vec<PacketRecord> =
            StreamingSession::bounded(AppKind::Chatting, 11, 30.0).collect();
        assert!(packets.iter().any(|p| p.direction == Direction::Downlink));
        assert!(packets.iter().any(|p| p.direction == Direction::Uplink));
    }

    #[test]
    #[should_panic(expected = "unbounded streaming session")]
    fn collecting_an_unbounded_session_panics() {
        let _ = StreamingSession::unbounded(AppKind::Video, 1).collect_trace();
    }

    #[test]
    fn peeking_never_perturbs_the_stream() {
        let direct: Vec<PacketRecord> =
            StreamingSession::bounded(AppKind::Gaming, 4, 10.0).collect();
        let mut peeked = PeekableSource::new(StreamingSession::bounded(AppKind::Gaming, 4, 10.0));
        assert_eq!(peeked.label(), Some(AppKind::Gaming));
        let mut replayed = Vec::new();
        while let Some(&next) = peeked.peek() {
            // Peeking twice is idempotent, and the peeked packet is exactly
            // what the next pull returns.
            assert_eq!(peeked.next_time_secs(), Some(next.time.as_secs_f64()));
            assert_eq!(peeked.next_packet(), Some(next));
            replayed.push(next);
        }
        assert_eq!(replayed, direct);
        assert_eq!(peeked.next_time_secs(), None, "exhausted stays exhausted");
        assert_eq!(peeked.next_packet(), None);
    }

    #[test]
    fn boxed_sources_forward_the_trait() {
        let mut boxed: Box<dyn PacketSource> =
            Box::new(StreamingSession::bounded(AppKind::Video, 2, 5.0));
        assert_eq!(boxed.label(), Some(AppKind::Video));
        let direct: Vec<PacketRecord> = StreamingSession::bounded(AppKind::Video, 2, 5.0).collect();
        let mut pulled = Vec::new();
        while let Some(p) = boxed.next_packet() {
            pulled.push(p);
        }
        assert_eq!(pulled, direct);
    }
}
