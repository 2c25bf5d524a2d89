//! Per-application traffic models.
//!
//! Every application gets its own module whose `model()` returns a
//! [`BidirectionalModel`] calibrated against the packet-size PDFs of Fig. 1
//! and the downlink statistics of Table I; [`spec_for`] looks one up by
//! [`AppKind`]. The models share a small toolkit defined here: a [`FlowSpec`]
//! describes one direction of traffic as a packet-size mixture plus an
//! arrival process, and [`FlowStream`] turns a spec into packets.

pub mod bittorrent;
pub mod browsing;
pub mod chatting;
pub mod downloading;
pub mod gaming;
pub mod uploading;
pub mod video;

use crate::app::AppKind;
use crate::distribution::SizeHistogram;
use crate::packet::{Direction, PacketRecord};
use crate::sampler::SizeMixture;
use crate::stream::FlowStream;
use crate::trace::Trace;
use rand::rngs::StdRng;
use rand::RngCore;
use wlan_sim::time::SimTime;

/// How packets of a flow are spaced in time.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals with exponential gaps of the given mean (seconds).
    Poisson {
        /// Mean inter-arrival gap in seconds.
        mean_gap_secs: f64,
    },
    /// Near-constant spacing with Gaussian jitter (streaming video).
    ConstantRate {
        /// Nominal gap in seconds.
        gap_secs: f64,
        /// Standard deviation of the jitter in seconds.
        jitter_secs: f64,
    },
    /// ON/OFF bursts (web browsing): a burst of geometrically many packets
    /// separated by short exponential gaps, followed by an exponential
    /// think-time before the next burst.
    OnOff {
        /// Mean number of packets per burst.
        mean_burst_packets: f64,
        /// Mean gap between packets inside a burst, in seconds.
        in_burst_gap_secs: f64,
        /// Mean think-time between bursts, in seconds.
        off_gap_secs: f64,
    },
}

/// One direction of an application's traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// The direction of this flow.
    pub direction: Direction,
    /// Packet-size mixture.
    pub sizes: SizeMixture,
    /// Arrival process.
    pub arrivals: ArrivalProcess,
}

impl FlowSpec {
    /// Creates a flow spec.
    pub fn new(direction: Direction, sizes: SizeMixture, arrivals: ArrivalProcess) -> Self {
        FlowSpec {
            direction,
            sizes,
            arrivals,
        }
    }
}

pub(crate) fn make_packet<R: RngCore + ?Sized>(
    spec: &FlowSpec,
    app: AppKind,
    t: f64,
    rng: &mut R,
) -> PacketRecord {
    let size = spec
        .sizes
        .sample(rng)
        .clamp(crate::MIN_PACKET_SIZE, crate::MAX_PACKET_SIZE);
    PacketRecord::new(SimTime::from_secs_f64(t), size, spec.direction, app)
}

/// A two-flow (downlink + uplink) application model; each of the seven
/// applications is one calibrated instance.
#[derive(Debug, Clone, PartialEq)]
pub struct BidirectionalModel {
    app: AppKind,
    downlink: FlowSpec,
    uplink: FlowSpec,
}

impl BidirectionalModel {
    /// Creates a model from its two flow specs.
    pub fn new(app: AppKind, downlink: FlowSpec, uplink: FlowSpec) -> Self {
        debug_assert_eq!(downlink.direction, Direction::Downlink);
        debug_assert_eq!(uplink.direction, Direction::Uplink);
        BidirectionalModel {
            app,
            downlink,
            uplink,
        }
    }

    /// The application this model imitates.
    pub fn app_kind(&self) -> AppKind {
        self.app
    }

    /// Hands the two flow specs over, downlink first.
    pub(crate) fn into_flows(self) -> (FlowSpec, FlowSpec) {
        (self.downlink, self.uplink)
    }

    /// Generates a labelled trace spanning `duration_secs` seconds.
    ///
    /// Both flows share `rng` sequentially: the downlink [`FlowStream`] is
    /// drained first and hands its RNG on to the uplink, so a seed
    /// reproduces the whole trace.
    pub fn generate(&self, rng: StdRng, duration_secs: f64) -> Trace {
        let limit = Some(duration_secs);
        let mut packets = Vec::new();
        let rng = FlowStream::new(self.downlink.clone(), self.app, rng, limit)
            .drain_runs(|run| packets.extend_from_slice(run));
        // Collected on its own and appended with one reservation: pushing
        // straight into `packets` grows it by doubling, and freeing that
        // larger buffer raises glibc's dynamic mmap threshold (1-2 MB more
        // peak RSS measured on the benchmark workloads).
        let mut uplink = Vec::new();
        FlowStream::new(self.uplink.clone(), self.app, rng, limit)
            .drain_runs(|run| uplink.extend_from_slice(run));
        packets.extend_from_slice(&uplink);
        Trace::from_packets(Some(self.app), packets)
    }

    /// The size histogram of the trace [`generate`](Self::generate) would
    /// return for the same `rng` and duration, streamed: the downlink is
    /// drained first and hands its RNG on to the uplink, exactly as
    /// `generate` consumes it, but no packet is kept. A histogram ignores
    /// order, so it equals `SizeHistogram::from_sizes` over the trace.
    pub fn size_histogram(
        &self,
        rng: StdRng,
        duration_secs: f64,
        max_size: usize,
        bin_width: usize,
    ) -> SizeHistogram {
        let limit = Some(duration_secs);
        let mut hist = SizeHistogram::new(max_size, bin_width);
        let mut add = |run: &[PacketRecord]| run.iter().for_each(|p| hist.add(p.size));
        let rng = FlowStream::new(self.downlink.clone(), self.app, rng, limit).drain_runs(&mut add);
        FlowStream::new(self.uplink.clone(), self.app, rng, limit).drain_runs(&mut add);
        hist
    }
}

/// Returns the calibrated model of an application.
pub fn spec_for(app: AppKind) -> BidirectionalModel {
    match app {
        AppKind::Browsing => browsing::model(),
        AppKind::Chatting => chatting::model(),
        AppKind::Gaming => gaming::model(),
        AppKind::Downloading => downloading::model(),
        AppKind::Uploading => uploading::model(),
        AppKind::Video => video::model(),
        AppKind::BitTorrent => bittorrent::model(),
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared assertions used by the per-application model tests, and the
    //! reference batch flow generator [`FlowStream`] is pinned against.

    use super::*;
    use crate::profile::paper_profile;
    use crate::sampler::{Exponential, Normal};
    use rand::{Rng, SeedableRng};

    /// Generates the packets of a single flow over `duration_secs` seconds in
    /// one loop per arrival process: the reference that `FlowStream` must
    /// reproduce packet for packet.
    pub(crate) fn generate_flow(
        spec: &FlowSpec,
        app: AppKind,
        rng: &mut dyn RngCore,
        duration_secs: f64,
    ) -> Vec<PacketRecord> {
        let mut packets = Vec::new();
        let mut t = 0.0f64;
        match &spec.arrivals {
            ArrivalProcess::Poisson { mean_gap_secs } => {
                let gaps = Exponential::new(*mean_gap_secs);
                loop {
                    t += gaps.sample(rng);
                    if t > duration_secs {
                        break;
                    }
                    packets.push(make_packet(spec, app, t, rng));
                }
            }
            ArrivalProcess::ConstantRate {
                gap_secs,
                jitter_secs,
            } => {
                let jitter = Normal::new(*gap_secs, *jitter_secs);
                loop {
                    t += jitter.sample_clamped(rng, gap_secs * 0.1, gap_secs * 4.0);
                    if t > duration_secs {
                        break;
                    }
                    packets.push(make_packet(spec, app, t, rng));
                }
            }
            ArrivalProcess::OnOff {
                mean_burst_packets,
                in_burst_gap_secs,
                off_gap_secs,
            } => {
                let in_burst = Exponential::new(*in_burst_gap_secs);
                let off = Exponential::new(*off_gap_secs);
                'outer: loop {
                    // Geometric burst length with the requested mean (>= 1 packet).
                    let p_stop = 1.0 / mean_burst_packets.max(1.0);
                    let mut remaining = 1usize;
                    while rng.gen::<f64>() > p_stop && remaining < 10_000 {
                        remaining += 1;
                    }
                    for i in 0..remaining {
                        if i > 0 {
                            t += in_burst.sample(rng);
                        }
                        if t > duration_secs {
                            break 'outer;
                        }
                        packets.push(make_packet(spec, app, t, rng));
                    }
                    t += off.sample(rng);
                    if t > duration_secs {
                        break;
                    }
                }
            }
        }
        packets
    }

    /// Generates a long trace and asserts its downlink mean size and mean
    /// inter-arrival time are within the given relative tolerances of the
    /// paper's Table I values.
    pub fn assert_calibrated(model: &BidirectionalModel, size_tolerance: f64, gap_tolerance: f64) {
        let profile = paper_profile(model.app_kind());
        // Long enough that rare large-packet mixture components are well
        // sampled; at 120 s the chat model's mean wobbles by more than the
        // tolerance from seed to seed.
        let trace = model.generate(StdRng::seed_from_u64(2024), 600.0);
        let sizes = trace.sizes(Direction::Downlink);
        assert!(
            sizes.len() > 20,
            "{}: too few downlink packets",
            model.app_kind()
        );
        let mean_size = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        let rel_size = (mean_size - profile.mean_packet_size).abs() / profile.mean_packet_size;
        assert!(
            rel_size <= size_tolerance,
            "{}: mean size {mean_size:.1} vs paper {:.1} (rel err {rel_size:.3})",
            model.app_kind(),
            profile.mean_packet_size
        );
        let mean_gap = trace.mean_interarrival_secs(Direction::Downlink);
        let rel_gap =
            (mean_gap - profile.mean_interarrival_secs).abs() / profile.mean_interarrival_secs;
        assert!(
            rel_gap <= gap_tolerance,
            "{}: mean gap {mean_gap:.4} vs paper {:.4} (rel err {rel_gap:.3})",
            model.app_kind(),
            profile.mean_interarrival_secs
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn poisson_flow_respects_duration_and_rate() {
        let spec = FlowSpec::new(
            Direction::Downlink,
            SizeMixture::new(&[(1.0, 1576, 1576)]),
            ArrivalProcess::Poisson {
                mean_gap_secs: 0.01,
            },
        );
        let packets: Vec<PacketRecord> = FlowStream::new(
            spec,
            AppKind::Downloading,
            StdRng::seed_from_u64(7),
            Some(10.0),
        )
        .collect();
        assert!(packets.iter().all(|p| p.time.as_secs_f64() <= 10.0));
        // Expected ~1000 packets; allow wide slack.
        assert!(
            packets.len() > 700 && packets.len() < 1300,
            "{}",
            packets.len()
        );
        assert!(packets.iter().all(|p| p.size == 1576));
    }

    #[test]
    fn onoff_flow_is_bursty() {
        let spec = FlowSpec::new(
            Direction::Downlink,
            SizeMixture::new(&[(1.0, 1000, 1576)]),
            ArrivalProcess::OnOff {
                mean_burst_packets: 30.0,
                in_burst_gap_secs: 0.005,
                off_gap_secs: 1.0,
            },
        );
        let packets: Vec<PacketRecord> = FlowStream::new(
            spec,
            AppKind::Browsing,
            StdRng::seed_from_u64(8),
            Some(60.0),
        )
        .collect();
        assert!(packets.len() > 100);
        let gaps: Vec<f64> = packets
            .windows(2)
            .map(|w| w[1].time.as_secs_f64() - w[0].time.as_secs_f64())
            .collect();
        let short = gaps.iter().filter(|g| **g < 0.05).count();
        let long = gaps.iter().filter(|g| **g > 0.3).count();
        assert!(short > long, "bursty traffic has mostly short gaps");
        assert!(long > 0, "bursty traffic has think times");
    }

    #[test]
    fn constant_rate_flow_has_low_jitter() {
        let spec = FlowSpec::new(
            Direction::Downlink,
            SizeMixture::new(&[(1.0, 1546, 1576)]),
            ArrivalProcess::ConstantRate {
                gap_secs: 0.02,
                jitter_secs: 0.002,
            },
        );
        let packets: Vec<PacketRecord> =
            FlowStream::new(spec, AppKind::Video, StdRng::seed_from_u64(9), Some(20.0)).collect();
        let gaps: Vec<f64> = packets
            .windows(2)
            .map(|w| w[1].time.as_secs_f64() - w[0].time.as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let std = (gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64).sqrt();
        assert!((mean - 0.02).abs() < 0.003, "mean gap {mean}");
        assert!(std < 0.01, "video jitter should be small, got {std}");
    }
}
