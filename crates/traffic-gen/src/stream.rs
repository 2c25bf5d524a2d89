//! Packet sources, and [`FlowStream`]: the crate's one packet generator.
//!
//! The paper's Fig. 3 data path is online — every packet is dispatched to a
//! virtual interface the moment it leaves the TCP/IP stack — so the data
//! plane should be able to *touch a packet once* instead of materialising
//! whole traces. This module provides that substrate:
//!
//! * [`PacketSource`] — the pull-based trait every streaming stage consumes;
//! * [`FlowStream`] — one direction of an application model, generated lazily
//!   a run of packets per call ([`FlowStream::fill_run`]). It is the only
//!   engine: batch sessions
//!   ([`SessionGenerator::generate_secs`](crate::generator::SessionGenerator::generate_secs))
//!   drain one per direction with a single sequential RNG, downlink then
//!   uplink;
//! * [`StreamingSession`] — a full bidirectional session, merged on the fly
//!   by timestamp from one fixed run per direction, straight into the
//!   caller's batch ([`StreamingSession::fill`]). With no duration
//!   bound it is an *infinite* session: the long-running and multi-station
//!   scenarios that can never fit in memory as batch traces.
//!
//! A lazy merge cannot share the batch path's single sequential RNG, so a
//! [`StreamingSession`] gives each direction its own derived RNG stream: it
//! is distribution-identical but not packet-identical to
//! [`SessionGenerator::generate_secs`](crate::generator::SessionGenerator::generate_secs).
//! The same independence lets each direction generate ahead in runs without
//! changing a packet. Reshaping equivalence is stated where it matters:
//! feeding the *same* packets through the reshaping stage yields
//! byte-identical assignments to the batch reshaper.

use crate::app::AppKind;
use crate::models::{make_packet, ArrivalProcess, BidirectionalModel, FlowSpec};
use crate::packet::{Direction, PacketRecord};
use crate::sampler::{Exponential, Normal};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wlan_sim::time::SimTime;

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

/// Packets a [`FlowStream`] generates per run when a caller drains it: the
/// inline lane of a [`StreamingSession`] and the stack buffer of
/// [`FlowStream::drain_runs`]. Two lanes of 16 cost a live station 768 bytes;
/// runs of 32 generated no faster and cost twice that.
const RUN: usize = 16;

/// Placeholder contents of a run buffer before the flow overwrites them.
const BLANK: PacketRecord = PacketRecord {
    time: SimTime::ZERO,
    size: 0,
    direction: Direction::Downlink,
    app: AppKind::Browsing,
};

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
/// Every generated packet comes from [`fill_run`](Self::fill_run), batch or
/// streaming; [`next_packet`](PacketSource::next_packet) is a run of one. A
/// test-only reference generator with one loop per arrival process pins the
/// RNG consumption order (property-tested in `stream::tests`). Without a
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

    /// Writes the flow's next packets into `out`, in order, and returns how
    /// many it wrote. It writes fewer than `out.len()` only when the flow
    /// ends, and none on every later call.
    ///
    /// The arrival process is matched and its samplers are built once per
    /// run. However the flow is split into runs, it yields the same packets
    /// from the same RNG draws.
    pub fn fill_run(&mut self, out: &mut [PacketRecord]) -> usize {
        if self.done {
            return 0;
        }
        match self.spec.arrivals {
            ArrivalProcess::Poisson { mean_gap_secs } => {
                let gaps = Exponential::new(mean_gap_secs);
                self.fill_spaced(out, |rng| gaps.sample(rng))
            }
            ArrivalProcess::ConstantRate {
                gap_secs,
                jitter_secs,
            } => {
                let jitter = Normal::new(gap_secs, jitter_secs);
                let (lo, hi) = (gap_secs * 0.1, gap_secs * 4.0);
                self.fill_spaced(out, |rng| jitter.sample_clamped(rng, lo, hi))
            }
            ArrivalProcess::OnOff {
                mean_burst_packets,
                in_burst_gap_secs,
                off_gap_secs,
            } => self.fill_bursts(
                out,
                1.0 / mean_burst_packets.max(1.0),
                Exponential::new(in_burst_gap_secs),
                Exponential::new(off_gap_secs),
            ),
        }
    }

    /// The run loop of the renewal processes (Poisson, constant rate):
    /// `gap` draws the spacing before each packet.
    fn fill_spaced(
        &mut self,
        out: &mut [PacketRecord],
        mut gap: impl FnMut(&mut StdRng) -> f64,
    ) -> usize {
        let limit = self.limit_secs.unwrap_or(f64::INFINITY);
        let mut clock = self.clock_secs;
        let mut written = 0;
        for slot in out.iter_mut() {
            clock += gap(&mut self.rng);
            if clock > limit {
                self.done = true;
                break;
            }
            *slot = make_packet(&self.spec, self.app, clock, &mut self.rng);
            written += 1;
        }
        self.clock_secs = clock;
        written
    }

    /// The run loop of ON/OFF flows, carrying the burst state across runs.
    /// `p_stop` ends a burst after each packet (a geometric burst length).
    fn fill_bursts(
        &mut self,
        out: &mut [PacketRecord],
        p_stop: f64,
        in_burst: Exponential,
        off: Exponential,
    ) -> usize {
        let limit = self.limit_secs.unwrap_or(f64::INFINITY);
        let mut clock = self.clock_secs;
        let mut burst = self.burst;
        let mut written = 0;
        for slot in out.iter_mut() {
            if burst.emitted >= burst.total {
                // Between bursts: the first burst starts at the clock
                // origin, later ones after an exponential think-time.
                if burst.started {
                    clock += off.sample(&mut self.rng);
                    if clock > limit {
                        self.done = true;
                        break;
                    }
                }
                let mut total = 1usize;
                while self.rng.gen::<f64>() > p_stop && total < 10_000 {
                    total += 1;
                }
                burst = BurstState {
                    total,
                    emitted: 0,
                    started: true,
                };
            }
            if burst.emitted > 0 {
                clock += in_burst.sample(&mut self.rng);
            }
            burst.emitted += 1;
            if clock > limit {
                self.done = true;
                break;
            }
            *slot = make_packet(&self.spec, self.app, clock, &mut self.rng);
            written += 1;
        }
        self.clock_secs = clock;
        self.burst = burst;
        written
    }

    /// Drains the (bounded) flow run by run into `sink`, then returns the
    /// RNG where the flow stopped, so a second flow can continue the same
    /// sequential stream.
    pub(crate) fn drain_runs(mut self, mut sink: impl FnMut(&[PacketRecord])) -> StdRng {
        let mut run = [BLANK; RUN];
        loop {
            let written = self.fill_run(&mut run);
            sink(&run[..written]);
            if written < RUN {
                return self.rng;
            }
        }
    }
}

impl PacketSource for FlowStream {
    fn next_packet(&mut self) -> Option<PacketRecord> {
        let mut one = [BLANK];
        (self.fill_run(&mut one) == 1).then_some(one[0])
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

/// One direction of a [`StreamingSession`]: its flow and the run generated
/// ahead of the merge, of which `run[pos..len]` is not yet emitted.
#[derive(Debug, Clone)]
struct Lane {
    flow: FlowStream,
    run: [PacketRecord; RUN],
    len: usize,
    pos: usize,
}

impl Lane {
    fn new(flow: FlowStream) -> Self {
        Lane {
            flow,
            run: [BLANK; RUN],
            len: 0,
            pos: 0,
        }
    }

    /// The time of the lane's next packet, generating the next run once the
    /// current one is spent (`None` once the flow has ended).
    #[inline]
    fn head_time(&mut self) -> Option<SimTime> {
        if self.pos == self.len {
            self.len = self.flow.fill_run(&mut self.run);
            self.pos = 0;
        }
        self.run[..self.len].get(self.pos).map(|p| p.time)
    }

    /// Emits the head packet; only valid after `head_time` returned `Some`.
    #[inline]
    fn take(&mut self) -> PacketRecord {
        self.pos += 1;
        self.run[self.pos - 1]
    }
}

/// The RNG of one direction (`lane` 1 downlink, 2 uplink) of a
/// [`StreamingSession`]: the same seed-mixing as the batch generator, then
/// one derived stream per direction (a lazy merge cannot share one
/// sequential RNG).
fn lane_rng(app: AppKind, seed: u64, lane: u64) -> StdRng {
    let base = seed ^ ((app.class_index() as u64) << 56);
    StdRng::seed_from_u64(
        base.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(lane)
            .rotate_left(17),
    )
}

/// A full application session generated lazily: downlink and uplink flows
/// merged by timestamp as they are pulled.
///
/// With `limit_secs = None` the session is infinite — the workload the batch
/// path cannot express, since an unbounded session never fits in memory as a
/// [`Trace`](crate::trace::Trace). Each flow draws from its own seed-derived RNG stream, so each
/// direction can generate ahead of the merge without changing the packets:
/// the session holds one fixed run of up to 16 packets per direction, inline,
/// and its memory stays O(1) regardless of session length.
/// [`fill`](Self::fill) merges the runs straight into a caller's
/// batch; [`next_packet`](PacketSource::next_packet) reads the same runs one
/// packet at a time.
#[derive(Debug, Clone)]
pub struct StreamingSession {
    app: AppKind,
    downlink: Lane,
    uplink: Lane,
}

impl StreamingSession {
    /// Creates a session bounded to `duration_secs` seconds.
    pub fn bounded(app: AppKind, seed: u64, duration_secs: f64) -> Self {
        Self::from_model(crate::models::spec_for(app), seed, Some(duration_secs))
    }

    /// Creates a session from an explicit bidirectional model, which the
    /// session's two flows take over.
    pub fn from_model(model: BidirectionalModel, seed: u64, limit_secs: Option<f64>) -> Self {
        let app = model.app_kind();
        let (downlink, uplink) = model.into_flows();
        StreamingSession {
            app,
            downlink: Lane::new(FlowStream::new(
                downlink,
                app,
                lane_rng(app, seed, 1),
                limit_secs,
            )),
            uplink: Lane::new(FlowStream::new(
                uplink,
                app,
                lane_rng(app, seed, 2),
                limit_secs,
            )),
        }
    }

    /// The application being generated.
    pub fn app(&self) -> AppKind {
        self.app
    }

    /// The lane holding the next packet in merge order, or `None` once both
    /// flows have ended. Ties go downlink-first, matching the stable sort of
    /// the batch path (downlink generated before uplink).
    #[inline]
    fn next_lane(&mut self) -> Option<&mut Lane> {
        match (self.downlink.head_time(), self.uplink.head_time()) {
            (Some(down), Some(up)) if down > up => Some(&mut self.uplink),
            (Some(_), _) => Some(&mut self.downlink),
            (None, Some(_)) => Some(&mut self.uplink),
            (None, None) => None,
        }
    }

    /// Appends up to `max` packets to `out`, in merge order; fewer only when
    /// the session ends.
    pub fn fill(&mut self, out: &mut Vec<PacketRecord>, max: usize) {
        let mut room = max;
        while room > 0 {
            let (down, up) = (&mut self.downlink, &mut self.uplink);
            let lane = match (down.head_time(), up.head_time()) {
                (Some(_), Some(_)) => {
                    // Neither run is spent within `steps` packets, so this
                    // stretch of the merge needs no refill checks.
                    let steps = room.min(down.len - down.pos).min(up.len - up.pos);
                    for _ in 0..steps {
                        let (d, u) = (down.run[down.pos], up.run[up.pos]);
                        let take_up = d.time > u.time;
                        out.push(if take_up { u } else { d });
                        up.pos += usize::from(take_up);
                        down.pos += usize::from(!take_up);
                    }
                    room -= steps;
                    continue;
                }
                (Some(_), None) => down,
                (None, Some(_)) => up,
                (None, None) => return,
            };
            // One flow has ended: the other's packets follow in order.
            let run = &lane.run[lane.pos..lane.len];
            let take = run.len().min(room);
            out.extend_from_slice(&run[..take]);
            lane.pos += take;
            room -= take;
        }
    }
}

impl PacketSource for StreamingSession {
    fn next_packet(&mut self) -> Option<PacketRecord> {
        self.next_lane().map(Lane::take)
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
    use crate::models::test_support::generate_flow;
    use proptest::prelude::*;

    /// One to eight run lengths in 1..=64, drawn from `seed`.
    fn run_lengths(seed: u64) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..rng.gen_range(1..=8))
            .map(|_| rng.gen_range(1..=64))
            .collect()
    }

    /// Drains `flow` with `fill_run` calls whose lengths cycle through
    /// `runs`, then checks that an ended flow stays ended.
    fn fill_in_runs(flow: &mut FlowStream, runs: &[usize]) -> Vec<PacketRecord> {
        let mut filled = Vec::new();
        let mut buf = [BLANK; 64];
        for &len in runs.iter().cycle() {
            let written = flow.fill_run(&mut buf[..len]);
            filled.extend_from_slice(&buf[..written]);
            if written < len {
                break;
            }
        }
        assert_eq!(flow.fill_run(&mut buf), 0, "an ended flow stays ended");
        filled
    }

    /// An ON/OFF flow of long bursts and short think-times, so most limits
    /// fall inside a burst.
    fn long_burst_spec() -> FlowSpec {
        FlowSpec::new(
            Direction::Uplink,
            crate::sampler::SizeMixture::new(&[(0.5, 100, 200), (0.5, 1500, 1576)]),
            ArrivalProcess::OnOff {
                mean_burst_packets: 40.0,
                in_burst_gap_secs: 0.01,
                off_gap_secs: 0.05,
            },
        )
    }

    /// The per-packet merge the session's runs replaced, over two fresh
    /// flows with the session's RNGs: one packet of lookahead per direction,
    /// ties downlink-first.
    fn per_packet_merge(
        app: AppKind,
        seed: u64,
        limit: Option<f64>,
    ) -> impl Iterator<Item = PacketRecord> {
        let (downlink, uplink) = crate::models::spec_for(app).into_flows();
        let flow =
            |spec, lane| FlowStream::new(spec, app, lane_rng(app, seed, lane), limit).peekable();
        let (mut down, mut up) = (flow(downlink, 1), flow(uplink, 2));
        std::iter::from_fn(move || match (down.peek(), up.peek()) {
            (Some(d), Some(u)) if d.time > u.time => up.next(),
            (Some(_), _) => down.next(),
            (None, _) => up.next(),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn flow_stream_matches_batch_generate_flow(
            seed in 0u64..200,
            app_index in 0usize..7,
            runs_seed in 0u64..1_000_000,
        ) {
            // The streaming flow must consume its RNG exactly like the batch
            // path: identical packets for every arrival-process family,
            // pulled one at a time or in runs of any length.
            let app = AppKind::ALL[app_index];
            let (downlink, uplink) = crate::models::spec_for(app).into_flows();
            for spec in [&downlink, &uplink] {
                let batch = generate_flow(spec, app, &mut StdRng::seed_from_u64(seed), 10.0);
                let stream = FlowStream::new(spec.clone(), app, StdRng::seed_from_u64(seed), Some(10.0));
                let streamed: Vec<PacketRecord> = stream.collect();
                prop_assert_eq!(&streamed, &batch);
                let mut flow = FlowStream::new(spec.clone(), app, StdRng::seed_from_u64(seed), Some(10.0));
                prop_assert_eq!(&fill_in_runs(&mut flow, &run_lengths(runs_seed)), &batch);
            }
        }

        #[test]
        fn fill_run_carries_bursts_across_runs(
            seed in 0u64..1_000,
            limit in 0.5f64..20.0,
            runs_seed in 0u64..1_000_000,
        ) {
            let spec = long_burst_spec();
            let batch = generate_flow(&spec, AppKind::Browsing, &mut StdRng::seed_from_u64(seed), limit);
            let mut flow = FlowStream::new(spec, AppKind::Browsing, StdRng::seed_from_u64(seed), Some(limit));
            prop_assert_eq!(fill_in_runs(&mut flow, &run_lengths(runs_seed)), batch);
        }

        #[test]
        fn fill_until_matches_the_per_packet_merge(
            app_index in 0usize..7,
            seed in 0u64..1_000,
            bounded in 0usize..2,
            limit in 1.0f64..8.0,
            steps_seed in 0u64..1_000_000,
        ) {
            // Batches filled up to random sizes, with single packets pulled
            // between them, concatenate to the session's packet-at-a-time
            // stream, which is the merge the runs replaced; every batch
            // leaves the right packet next.
            let app = AppKind::ALL[app_index];
            let limit = (bounded == 1).then_some(limit);
            let model = || crate::models::spec_for(app);
            // 40 batches of at most 300 packets and 40 single pulls never
            // pass packet 12,040.
            let merged: Vec<PacketRecord> = per_packet_merge(app, seed, limit).take(12_041).collect();
            let pulled: Vec<PacketRecord> = StreamingSession::from_model(model(), seed, limit)
                .take(12_041)
                .collect();
            prop_assert_eq!(&pulled, &merged);

            let mut session = StreamingSession::from_model(model(), seed, limit);
            let mut filled = Vec::new();
            let mut rng = StdRng::seed_from_u64(steps_seed);
            for _ in 0..rng.gen_range(1..=40) {
                let max = rng.gen_range(1..=300);
                let before = filled.len();
                session.fill(&mut filled, max);
                let added = filled.len() - before;
                prop_assert!(added <= max);
                // A short batch stops only at the session end.
                prop_assert!(added == max || merged.len() == filled.len());
                let next = session.next_packet();
                prop_assert_eq!(next, merged.get(filled.len()).copied());
                filled.extend(next);
            }
            prop_assert_eq!(&filled[..], &merged[..filled.len()]);
        }
    }

    #[test]
    fn onoff_limits_fall_mid_burst() {
        // The burst proptest exercises the mid-burst end it is named for.
        let mid_burst = (0..20)
            .filter(|&seed| {
                let mut flow = FlowStream::new(
                    long_burst_spec(),
                    AppKind::Browsing,
                    StdRng::seed_from_u64(seed),
                    Some(3.0 + seed as f64 / 7.0),
                );
                fill_in_runs(&mut flow, &[32]);
                flow.burst.emitted < flow.burst.total
            })
            .count();
        assert!(mid_burst >= 10, "only {mid_burst}/20 limits fell mid-burst");
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
    fn unbounded_session_streams_past_any_batch_horizon() {
        // Pull far enough to cross minutes of session time without ever
        // materialising a trace; memory stays O(1).
        let mut session =
            StreamingSession::from_model(crate::models::spec_for(AppKind::BitTorrent), 7, None);
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
