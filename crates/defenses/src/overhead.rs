//! The byte/packet-overhead ledger shared by every defense.
//!
//! The paper quantifies the cost of padding and morphing as the relative
//! increase in transmitted bytes (e.g. 121.42 % mean overhead for padding,
//! 39.44 % for morphing in Table VI), while traffic reshaping adds zero bytes.
//!
//! [`Overhead`] is the single accounting helper used by all defenses: the
//! streaming stages of [`crate::stage`] record every packet they absorb and
//! emit through [`absorb`](Overhead::absorb) / [`emit`](Overhead::emit) /
//! [`record`](Overhead::record), and the batch entry points simply return
//! their stage's ledger — there is no per-defense bookkeeping anywhere else.

use serde::{Deserialize, Serialize};
use traffic_gen::trace::Trace;

/// The byte and packet overhead a defense (or a whole stage pipeline) added
/// to a traffic stream.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Overhead {
    /// Bytes of the original traffic absorbed so far.
    pub original_bytes: u64,
    /// Bytes emitted after the defense was applied.
    pub transformed_bytes: u64,
    /// Packets of the original traffic absorbed so far.
    pub original_packets: u64,
    /// Packets emitted after the defense was applied.
    pub transformed_packets: u64,
}

impl Overhead {
    /// Computes the overhead between an original and a transformed trace.
    pub fn between(original: &Trace, transformed: &Trace) -> Self {
        Overhead {
            original_bytes: original.total_bytes(),
            transformed_bytes: transformed.total_bytes(),
            original_packets: original.len() as u64,
            transformed_packets: transformed.len() as u64,
        }
    }

    /// Creates an overhead record directly from byte counts (packet counts
    /// unknown, left at zero).
    pub fn from_bytes(original_bytes: u64, transformed_bytes: u64) -> Self {
        Overhead {
            original_bytes,
            transformed_bytes,
            original_packets: 0,
            transformed_packets: 0,
        }
    }

    /// Records one packet of `bytes` entering the defense.
    pub fn absorb(&mut self, bytes: u64) {
        self.original_packets += 1;
        self.original_bytes += bytes;
    }

    /// Records one packet of `bytes` leaving the defense.
    pub fn emit(&mut self, bytes: u64) {
        self.transformed_packets += 1;
        self.transformed_bytes += bytes;
    }

    /// Records a one-in/one-out transformation of a single packet — the
    /// common case for padding, morphing and the partitioning stages.
    pub fn record(&mut self, original_bytes: u64, transformed_bytes: u64) {
        self.absorb(original_bytes);
        self.emit(transformed_bytes);
    }

    /// Extra bytes added by the defense (saturating at zero).
    pub fn added_bytes(&self) -> u64 {
        self.transformed_bytes.saturating_sub(self.original_bytes)
    }

    /// Overhead as a percentage of the original bytes, the metric of Table VI.
    /// Returns 0 for an empty original trace.
    pub fn percent(&self) -> f64 {
        if self.original_bytes == 0 {
            return 0.0;
        }
        self.added_bytes() as f64 / self.original_bytes as f64 * 100.0
    }

    /// Combines two overhead records (e.g. downlink + uplink, or several apps).
    pub fn combined(&self, other: &Overhead) -> Overhead {
        Overhead {
            original_bytes: self.original_bytes + other.original_bytes,
            transformed_bytes: self.transformed_bytes + other.transformed_bytes,
            original_packets: self.original_packets + other.original_packets,
            transformed_packets: self.transformed_packets + other.transformed_packets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic_gen::app::AppKind;
    use traffic_gen::packet::{Direction, PacketRecord};
    use wlan_sim::time::SimTime;

    fn trace_with_sizes(sizes: &[usize]) -> Trace {
        Trace::from_packets(
            Some(AppKind::Browsing),
            sizes
                .iter()
                .enumerate()
                .map(|(i, &s)| {
                    PacketRecord::new(
                        SimTime::from_secs_f64(i as f64),
                        s,
                        Direction::Downlink,
                        AppKind::Browsing,
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn percent_overhead() {
        let original = trace_with_sizes(&[500, 500]);
        let padded = trace_with_sizes(&[1500, 1500]);
        let o = Overhead::between(&original, &padded);
        assert_eq!(o.added_bytes(), 2000);
        assert_eq!(o.original_packets, 2);
        assert_eq!(o.transformed_packets, 2);
        assert!((o.percent() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn zero_original_bytes_gives_zero_percent() {
        let o = Overhead::from_bytes(0, 100);
        assert_eq!(o.percent(), 0.0);
    }

    #[test]
    fn shrinking_never_reports_negative_overhead() {
        let o = Overhead::from_bytes(1000, 800);
        assert_eq!(o.added_bytes(), 0);
        assert_eq!(o.percent(), 0.0);
    }

    #[test]
    fn per_packet_ledger_matches_whole_trace_accounting() {
        let original = trace_with_sizes(&[100, 700, 1400]);
        let padded = trace_with_sizes(&[1576, 1576, 1576]);
        let whole = Overhead::between(&original, &padded);
        let mut ledger = Overhead::default();
        for (o, t) in original.packets().iter().zip(padded.packets()) {
            ledger.record(o.size as u64, t.size as u64);
        }
        assert_eq!(ledger, whole);
    }

    #[test]
    fn asymmetric_absorb_emit_tracks_added_packets() {
        let mut ledger = Overhead::default();
        ledger.absorb(500);
        ledger.emit(500);
        ledger.emit(60); // e.g. a cover packet injected by a future defense
        assert_eq!(ledger.transformed_packets - ledger.original_packets, 1);
        assert_eq!(ledger.added_bytes(), 60);
    }

    #[test]
    fn combination_and_mean() {
        let a = Overhead::from_bytes(100, 200); // 100 %
        let b = Overhead::from_bytes(1000, 1000); // 0 %
        let c = a.combined(&b);
        assert_eq!(c.original_bytes, 1100);
        assert_eq!(c.transformed_bytes, 1200);
    }
}
