//! Frequency hopping.
//!
//! The paper's FH baseline (§IV, footnote 2) uses VirtualWiFi to hop between
//! channels 1, 6 and 11 with a 500 ms dwell per channel. An eavesdropper
//! tuned to a single channel therefore only observes the slices of traffic
//! transmitted while the client sat on that channel. As the paper argues,
//! this partitions the traffic in *time* but does not change the features of
//! any partition, so the classifier barely suffers.
//!
//! Hopping is an online mechanism, so [`FrequencyHoppingStage`] is the
//! primary implementation: a partitioning [`PacketStage`] that routes each
//! packet onto the sub-flow of the channel the schedule is currently dwelling
//! on. The batch [`FrequencyHopper::partition`] is a thin wrapper driving a
//! stage over a materialised trace (identical partitions, property-tested in
//! `tests/stage_equivalence.rs`).

use crate::overhead::Overhead;
use crate::stage::{stage_trace, FlowId, FlowMap, PacketStage, StageOutput};
use serde::{Deserialize, Serialize};
use traffic_gen::packet::PacketRecord;
use traffic_gen::trace::Trace;
use wlan_sim::phy::Channel;
use wlan_sim::time::{SimDuration, SimTime};

/// A deterministic channel-hopping schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrequencyHopper {
    channels: Vec<Channel>,
    dwell: SimDuration,
}

impl Default for FrequencyHopper {
    fn default() -> Self {
        // The paper's configuration: channels 1, 6, 11 with 500 ms dwell.
        FrequencyHopper {
            channels: Channel::hop_set().to_vec(),
            dwell: SimDuration::from_millis(500),
        }
    }
}

impl FrequencyHopper {
    /// Creates a hopping schedule.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is empty or the dwell time is zero.
    pub fn new(channels: Vec<Channel>, dwell: SimDuration) -> Self {
        assert!(!channels.is_empty(), "need at least one channel");
        assert!(!dwell.is_zero(), "dwell time must be positive");
        FrequencyHopper { channels, dwell }
    }

    /// The hop set.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// The index into [`channels`](Self::channels) in use at `elapsed` time.
    fn channel_index_at(&self, elapsed: SimDuration) -> usize {
        let slot = (elapsed.as_micros() / self.dwell.as_micros().max(1)) as usize;
        slot % self.channels.len()
    }

    /// The streaming hopping stage for this schedule.
    pub fn stage(&self) -> FrequencyHoppingStage {
        FrequencyHoppingStage::new(self.clone())
    }

    /// Splits a trace into per-channel partitions: `partition[i]` contains the
    /// packets transmitted while the schedule was on `channels[i]`. This is
    /// what an adversary with one radio per channel would collect; an
    /// adversary with a single radio sees exactly one of the partitions.
    ///
    /// Thin batch wrapper over [`FrequencyHoppingStage`]: the packets stream
    /// through the stage and are grouped back into channel-ordered traces
    /// (channels the schedule never visited stay empty).
    pub fn partition(&self, trace: &Trace) -> Vec<(Channel, Trace)> {
        let mut partitions: Vec<(Channel, Trace)> = self
            .channels
            .iter()
            .map(|&c| {
                let mut t = Trace::new();
                t.set_app(trace.app());
                (c, t)
            })
            .collect();
        let mut stage = self.stage();
        let staged = stage_trace(&mut stage, trace);
        for (flow, packet) in staged {
            let idx = stage
                .channel_index_of(flow)
                .expect("stage emitted an unallocated flow");
            partitions[idx].1.push(packet);
        }
        partitions
    }
}

/// The streaming frequency-hopping defense: routes each packet onto the
/// sub-flow of the channel the schedule dwells on at the packet's timestamp.
///
/// The schedule clock starts at the first packet the stage sees (matching the
/// batch partitioning, which measures from a trace's first packet). Sub-flows
/// are allocated per `(incoming flow, channel)` in first-appearance order.
#[derive(Debug, Clone)]
pub struct FrequencyHoppingStage {
    hopper: FrequencyHopper,
    origin: Option<SimTime>,
    flows: FlowMap<usize>,
    channel_indices: Vec<usize>,
    ledger: Overhead,
}

impl FrequencyHoppingStage {
    /// Creates a stage for the given schedule.
    pub fn new(hopper: FrequencyHopper) -> Self {
        FrequencyHoppingStage {
            hopper,
            origin: None,
            flows: FlowMap::new(),
            channel_indices: Vec::new(),
            ledger: Overhead::default(),
        }
    }

    /// Number of channel sub-flows opened so far.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// The index into the schedule's hop set that sub-flow `flow` carries.
    pub fn channel_index_of(&self, flow: FlowId) -> Option<usize> {
        self.channel_indices.get(flow as usize).copied()
    }
}

impl PacketStage for FrequencyHoppingStage {
    fn name(&self) -> &'static str {
        "frequency-hopping"
    }

    fn on_packet(&mut self, flow: FlowId, packet: &PacketRecord, out: &mut StageOutput) {
        let origin = *self.origin.get_or_insert(packet.time);
        let idx = self
            .hopper
            .channel_index_at(packet.time.saturating_since(origin));
        let (out_flow, fresh) = self.flows.id_of(flow, idx);
        if fresh {
            self.channel_indices.push(idx);
        }
        self.ledger.record(packet.size as u64, packet.size as u64);
        out.push((out_flow, *packet));
    }

    fn overhead(&self) -> Overhead {
        self.ledger
    }

    fn reset(&mut self) {
        self.origin = None;
        self.flows.reset();
        self.channel_indices.clear();
        self.ledger = Overhead::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic_gen::app::AppKind;
    use traffic_gen::generator::SessionGenerator;

    #[test]
    fn default_schedule_matches_the_paper() {
        let fh = FrequencyHopper::default();
        assert_eq!(fh.channels().len(), 3);
        let channel_at = |ms| fh.channels()[fh.channel_index_at(SimDuration::from_millis(ms))];
        assert_eq!(channel_at(0), Channel::CH1);
        assert_eq!(channel_at(600), Channel::CH6);
        assert_eq!(channel_at(1100), Channel::CH11);
        assert_eq!(channel_at(1600), Channel::CH1);
    }

    #[test]
    fn partition_is_complete_and_disjoint() {
        let trace = SessionGenerator::new(AppKind::BitTorrent, 1).generate_secs(30.0);
        let fh = FrequencyHopper::default();
        let partitions = fh.partition(&trace);
        assert_eq!(partitions.len(), 3);
        let total: usize = partitions.iter().map(|(_, t)| t.len()).sum();
        assert_eq!(total, trace.len());
        for (_, t) in &partitions {
            assert_eq!(t.app(), Some(AppKind::BitTorrent));
            assert!(!t.is_empty(), "30 s of BT should hit every channel");
        }
    }

    #[test]
    fn per_channel_partitions_keep_the_original_mean_size() {
        // The paper's criticism of FH: each partition still looks like the app.
        let trace = SessionGenerator::new(AppKind::Video, 2).generate_secs(30.0);
        let original_mean = trace.mean_packet_size();
        for (_, part) in FrequencyHopper::default().partition(&trace) {
            assert!(
                (part.mean_packet_size() - original_mean).abs() < 100.0,
                "channel partition mean {} vs original {original_mean}",
                part.mean_packet_size()
            );
        }
    }

    #[test]
    fn stage_routes_packets_by_dwell_slot() {
        let fh = FrequencyHopper::default();
        let mut stage = fh.stage();
        assert_eq!(stage.name(), "frequency-hopping");
        let p = |secs: f64| {
            PacketRecord::new(
                SimTime::from_secs_f64(secs),
                300,
                traffic_gen::packet::Direction::Uplink,
                AppKind::Gaming,
            )
        };
        let mut out = StageOutput::new();
        for secs in [0.0, 0.2, 0.6, 1.2, 1.6] {
            stage.on_packet(crate::stage::ROOT_FLOW, &p(secs), &mut out);
        }
        stage.flush(&mut out);
        let channels: Vec<Channel> = out
            .iter()
            .map(|(f, _)| fh.channels()[stage.channel_index_of(*f).unwrap()])
            .collect();
        assert_eq!(
            channels,
            vec![
                Channel::CH1,
                Channel::CH1,
                Channel::CH6,
                Channel::CH11,
                Channel::CH1
            ]
        );
        assert_eq!(stage.flow_count(), 3);
        assert_eq!(stage.channel_index_of(9), None);
        assert_eq!(stage.overhead().percent(), 0.0, "FH adds no bytes");
        stage.reset();
        assert_eq!(stage.flow_count(), 0);
        assert_eq!(stage.overhead(), Overhead::default());
    }

    #[test]
    fn empty_trace_gives_empty_partitions() {
        let partitions = FrequencyHopper::default().partition(&Trace::new());
        assert_eq!(partitions.len(), 3);
        assert!(partitions.iter().all(|(_, t)| t.is_empty()));
    }

    #[test]
    #[should_panic]
    fn empty_channel_set_panics() {
        let _ = FrequencyHopper::new(vec![], SimDuration::from_millis(500));
    }

    #[test]
    #[should_panic]
    fn zero_dwell_panics() {
        let _ = FrequencyHopper::new(vec![Channel::CH1], SimDuration::ZERO);
    }
}
