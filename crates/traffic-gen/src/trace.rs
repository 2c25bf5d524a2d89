//! Traffic traces: ordered collections of packet records.
//!
//! A [`Trace`] is the unit of data the whole reproduction pipeline works on:
//! generators produce traces, the reshaping engine partitions them into
//! per-virtual-interface sub-traces, the classifier cuts them into
//! eavesdropping windows of `W` seconds and extracts features, and the
//! baseline defenses rewrite their packet sizes.

use crate::app::AppKind;
use crate::packet::{Direction, PacketRecord};
use serde::{Deserialize, Serialize};
use wlan_sim::time::SimDuration;

/// The idle-gap threshold used by the paper when computing inter-arrival
/// times: gaps longer than the eavesdropping window (5 s) are considered idle
/// time and excluded (§IV-B).
pub const IDLE_GAP_SECS: f64 = 5.0;

/// An ordered trace of packets, optionally labelled with the application that
/// produced it.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Trace {
    app: Option<AppKind>,
    packets: Vec<PacketRecord>,
}

impl Trace {
    /// Creates an empty, unlabelled trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Creates an empty trace labelled with `app`.
    pub fn for_app(app: AppKind) -> Self {
        Trace {
            app: Some(app),
            packets: Vec::new(),
        }
    }

    /// Builds a trace from packets; the packets are sorted by timestamp.
    pub fn from_packets(app: Option<AppKind>, mut packets: Vec<PacketRecord>) -> Self {
        packets.sort_by_key(|p| p.time);
        Trace { app, packets }
    }

    /// The ground-truth application label, if known.
    pub fn app(&self) -> Option<AppKind> {
        self.app
    }

    /// Sets the ground-truth label.
    pub fn set_app(&mut self, app: Option<AppKind>) {
        self.app = app;
    }

    /// The packets in timestamp order.
    pub fn packets(&self) -> &[PacketRecord] {
        &self.packets
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Returns `true` when the trace has no packets.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Appends a packet, keeping the trace sorted.
    pub fn push(&mut self, packet: PacketRecord) {
        match self.packets.last() {
            Some(last) if last.time > packet.time => {
                let idx = self.packets.partition_point(|p| p.time <= packet.time);
                self.packets.insert(idx, packet);
            }
            _ => self.packets.push(packet),
        }
    }

    /// Iterates over packets travelling in `direction`.
    pub fn packets_in(&self, direction: Direction) -> impl Iterator<Item = &PacketRecord> {
        self.packets
            .iter()
            .filter(move |p| p.direction == direction)
    }

    /// Total number of bytes across all packets.
    pub fn total_bytes(&self) -> u64 {
        self.packets.iter().map(|p| p.size as u64).sum()
    }

    /// Mean packet size in bytes (0 when empty).
    pub fn mean_packet_size(&self) -> f64 {
        if self.packets.is_empty() {
            return 0.0;
        }
        self.total_bytes() as f64 / self.packets.len() as f64
    }

    /// Packet sizes in `direction`, in order.
    pub fn sizes(&self, direction: Direction) -> Vec<usize> {
        self.packets_in(direction).map(|p| p.size).collect()
    }

    /// Inter-arrival times (seconds) of packets in `direction`, with gaps
    /// longer than `idle_gap_secs` filtered out, following §IV-B of the paper.
    pub fn interarrival_secs(&self, direction: Direction, idle_gap_secs: f64) -> Vec<f64> {
        let times: Vec<f64> = self
            .packets_in(direction)
            .map(|p| p.time.as_secs_f64())
            .collect();
        times
            .windows(2)
            .map(|w| w[1] - w[0])
            .filter(|gap| *gap <= idle_gap_secs)
            .collect()
    }

    /// Mean inter-arrival time in seconds (with idle filtering), 0 when fewer
    /// than two packets survive.
    pub fn mean_interarrival_secs(&self, direction: Direction) -> f64 {
        let gaps = self.interarrival_secs(direction, IDLE_GAP_SECS);
        if gaps.is_empty() {
            0.0
        } else {
            gaps.iter().sum::<f64>() / gaps.len() as f64
        }
    }

    /// Splits the trace into consecutive windows of `window` duration,
    /// starting at the first packet. Empty windows are skipped. Each returned
    /// trace inherits the label.
    ///
    /// This models the adversary's eavesdropping duration `W`: every window is
    /// one classification instance.
    pub fn windows(&self, window: SimDuration) -> Vec<Trace> {
        if self.packets.is_empty() || window.is_zero() {
            return Vec::new();
        }
        let start = self.packets[0].time;
        let mut out: Vec<Trace> = Vec::new();
        let mut current: Vec<PacketRecord> = Vec::new();
        let mut window_index: u64 = 0;
        for p in &self.packets {
            let idx = p.time.saturating_since(start).as_micros() / window.as_micros().max(1);
            if idx != window_index && !current.is_empty() {
                out.push(Trace::from_packets(self.app, std::mem::take(&mut current)));
            }
            window_index = idx;
            current.push(*p);
        }
        if !current.is_empty() {
            out.push(Trace::from_packets(self.app, current));
        }
        out
    }

    /// Serializes the trace to a JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trace serialization cannot fail")
    }
}

impl FromIterator<PacketRecord> for Trace {
    fn from_iter<T: IntoIterator<Item = PacketRecord>>(iter: T) -> Self {
        Trace::from_packets(None, iter.into_iter().collect())
    }
}

impl Extend<PacketRecord> for Trace {
    fn extend<T: IntoIterator<Item = PacketRecord>>(&mut self, iter: T) {
        for p in iter {
            self.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_sim::time::SimTime;

    fn pkt(secs: f64, size: usize, dir: Direction) -> PacketRecord {
        PacketRecord::new(SimTime::from_secs_f64(secs), size, dir, AppKind::Browsing)
    }

    #[test]
    fn construction_sorts_by_time() {
        let t = Trace::from_packets(
            Some(AppKind::Browsing),
            vec![
                pkt(2.0, 100, Direction::Downlink),
                pkt(1.0, 200, Direction::Downlink),
                pkt(3.0, 300, Direction::Uplink),
            ],
        );
        let times: Vec<f64> = t.packets().iter().map(|p| p.time.as_secs_f64()).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0]);
        assert_eq!(t.app(), Some(AppKind::Browsing));
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn push_keeps_order_even_for_out_of_order_inserts() {
        let mut t = Trace::new();
        t.push(pkt(1.0, 10, Direction::Downlink));
        t.push(pkt(3.0, 30, Direction::Downlink));
        t.push(pkt(2.0, 20, Direction::Downlink));
        let times: Vec<f64> = t.packets().iter().map(|p| p.time.as_secs_f64()).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn aggregate_statistics() {
        let t = Trace::from_packets(
            None,
            vec![
                pkt(0.0, 100, Direction::Downlink),
                pkt(1.0, 200, Direction::Downlink),
                pkt(2.0, 600, Direction::Uplink),
            ],
        );
        assert_eq!(t.total_bytes(), 900);
        assert!((t.mean_packet_size() - 300.0).abs() < 1e-9);
        assert_eq!(t.packets()[2].time.as_secs_f64(), 2.0);
        assert_eq!(t.sizes(Direction::Downlink), vec![100, 200]);
        assert_eq!(t.sizes(Direction::Uplink), vec![600]);
        assert_eq!(Trace::new().mean_packet_size(), 0.0);
    }

    #[test]
    fn interarrival_filters_idle_gaps() {
        let t = Trace::from_packets(
            None,
            vec![
                pkt(0.0, 100, Direction::Downlink),
                pkt(0.5, 100, Direction::Downlink),
                pkt(10.0, 100, Direction::Downlink), // 9.5 s idle gap, filtered
                pkt(10.2, 100, Direction::Downlink),
            ],
        );
        let gaps = t.interarrival_secs(Direction::Downlink, IDLE_GAP_SECS);
        assert_eq!(gaps.len(), 2);
        assert!((t.mean_interarrival_secs(Direction::Downlink) - 0.35).abs() < 1e-9);
        assert_eq!(t.mean_interarrival_secs(Direction::Uplink), 0.0);
    }

    #[test]
    fn windows_cover_all_packets_without_overlap() {
        let packets: Vec<PacketRecord> = (0..100)
            .map(|i| pkt(i as f64 * 0.2, 100 + i, Direction::Downlink))
            .collect();
        let t = Trace::from_packets(Some(AppKind::Browsing), packets);
        let windows = t.windows(SimDuration::from_secs(5));
        let total: usize = windows.iter().map(|w| w.len()).sum();
        assert_eq!(total, t.len());
        assert_eq!(windows.len(), 4, "20 s of traffic in 5 s windows");
        for w in &windows {
            assert_eq!(w.app(), Some(AppKind::Browsing));
            let span = w.packets()[w.len() - 1]
                .time
                .saturating_since(w.packets()[0].time);
            assert!(span.as_secs_f64() <= 5.0 + 1e-9);
        }
        assert!(t.windows(SimDuration::ZERO).is_empty());
        assert!(Trace::new().windows(SimDuration::from_secs(5)).is_empty());
    }

    #[test]
    fn json_round_trip() {
        let t = Trace::from_packets(
            Some(AppKind::BitTorrent),
            vec![
                pkt(0.0, 1576, Direction::Downlink),
                pkt(0.01, 108, Direction::Uplink),
            ],
        );
        let json = t.to_json();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
        assert!(serde_json::from_str::<Trace>("not json").is_err());
    }

    #[test]
    fn collect_and_extend() {
        let t: Trace = (0..5)
            .map(|i| pkt(i as f64, 100, Direction::Downlink))
            .collect();
        assert_eq!(t.len(), 5);
        let mut t2 = Trace::new();
        t2.extend(vec![
            pkt(1.0, 1, Direction::Uplink),
            pkt(0.5, 2, Direction::Uplink),
        ]);
        assert_eq!(t2.len(), 2);
        assert!(t2.packets()[0].time < t2.packets()[1].time);
    }
}
