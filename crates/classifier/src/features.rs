//! The feature set used by the traffic-analysis adversary.
//!
//! §IV-C of the paper lists the features fed to the classifiers: number of
//! packets, max/min/average/standard deviation of packet size, and packet
//! inter-arrival time — for downlink and uplink separately. We compute nine
//! values per direction (count, four size statistics, four inter-arrival
//! statistics), giving an 18-dimensional feature vector per eavesdropping
//! window.

use serde::{Deserialize, Serialize};
use traffic_gen::distribution::SummaryStats;
use traffic_gen::packet::Direction;
use traffic_gen::trace::{Trace, IDLE_GAP_SECS};

/// Number of features computed per direction.
pub const FEATURES_PER_DIRECTION: usize = 9;

/// Total dimensionality of the feature vector (downlink + uplink).
pub const FEATURE_DIM: usize = FEATURES_PER_DIRECTION * 2;

/// An extracted feature vector for one eavesdropping window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureVector {
    values: Vec<f64>,
}

impl FeatureVector {
    /// Extracts the paper's feature set from a window of traffic.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut values = Vec::with_capacity(FEATURE_DIM);
        for direction in Direction::ALL {
            let sizes: Vec<f64> = trace.packets_in(direction).map(|p| p.size as f64).collect();
            let size_stats = SummaryStats::from_samples(&sizes);
            let gaps = trace.interarrival_secs(direction, IDLE_GAP_SECS);
            let gap_stats = SummaryStats::from_samples(&gaps);
            values.push(size_stats.count as f64);
            values.push(size_stats.min);
            values.push(size_stats.max);
            values.push(size_stats.mean);
            values.push(size_stats.std_dev);
            values.push(gap_stats.min);
            values.push(gap_stats.max);
            values.push(gap_stats.mean);
            values.push(gap_stats.std_dev);
        }
        FeatureVector { values }
    }

    /// A feature vector restricted to timing features only: packet counts and
    /// inter-arrival statistics, with all size features zeroed. Used by the
    /// Table VI experiment, where the adversary attacks padded/morphed traffic
    /// through inter-arrival times alone (§IV-D).
    pub fn timing_only(trace: &Trace) -> Self {
        let mut fv = Self::from_trace(trace);
        for dir in 0..2 {
            let base = dir * FEATURES_PER_DIRECTION;
            // Zero the size min/max/mean/std (indices 1..=4 within the block).
            for i in 1..=4 {
                fv.values[base + i] = 0.0;
            }
        }
        fv
    }

    /// The raw feature values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Consumes the vector and returns the underlying values.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// The dimensionality (always [`FEATURE_DIM`]).
    pub fn dim(&self) -> usize {
        self.values.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic_gen::app::AppKind;
    use traffic_gen::generator::SessionGenerator;
    use traffic_gen::packet::PacketRecord;
    use wlan_sim::time::SimTime;

    /// Positions of the mean downlink size, mean downlink inter-arrival and
    /// mean uplink size in the vector.
    const DOWN_MEAN_SIZE: usize = 3;
    const DOWN_MEAN_IAT: usize = 7;
    const UP_MEAN_SIZE: usize = FEATURES_PER_DIRECTION + 3;

    fn pkt(secs: f64, size: usize, dir: Direction) -> PacketRecord {
        PacketRecord::new(SimTime::from_secs_f64(secs), size, dir, AppKind::Gaming)
    }

    #[test]
    fn features_of_a_simple_trace() {
        let trace = Trace::from_packets(
            Some(AppKind::Gaming),
            vec![
                pkt(0.0, 100, Direction::Downlink),
                pkt(1.0, 300, Direction::Downlink),
                pkt(2.0, 200, Direction::Downlink),
                pkt(0.5, 1000, Direction::Uplink),
            ],
        );
        let fv = FeatureVector::from_trace(&trace);
        assert_eq!(fv.dim(), FEATURE_DIM);
        let v = fv.values();
        assert_eq!(v[0], 3.0); // downlink packet count
        assert_eq!(v[1], 100.0); // min size
        assert_eq!(v[2], 300.0); // max size
        assert!((v[3] - 200.0).abs() < 1e-9); // mean size
        assert!((fv.values()[DOWN_MEAN_SIZE] - 200.0).abs() < 1e-9);
        assert!((fv.values()[DOWN_MEAN_IAT] - 1.0).abs() < 1e-9);
        assert_eq!(v[9], 1.0); // uplink packet count
        assert!((fv.values()[UP_MEAN_SIZE] - 1000.0).abs() < 1e-9);
        // Single uplink packet: no inter-arrival statistics.
        assert_eq!(v[16], 0.0);
    }

    #[test]
    fn empty_and_single_direction_traces_do_not_panic() {
        let empty = Trace::new();
        let fv = FeatureVector::from_trace(&empty);
        assert!(fv.values().iter().all(|&v| v == 0.0));
        let only_up = Trace::from_packets(None, vec![pkt(0.0, 500, Direction::Uplink)]);
        let fv = FeatureVector::from_trace(&only_up);
        assert_eq!(fv.values()[0], 0.0);
        assert_eq!(fv.values()[9], 1.0);
    }

    #[test]
    fn timing_only_zeroes_size_features() {
        let trace = SessionGenerator::new(AppKind::Downloading, 1).generate_secs(5.0);
        let full = FeatureVector::from_trace(&trace);
        let timing = FeatureVector::timing_only(&trace);
        assert!(full.values()[DOWN_MEAN_SIZE] > 1000.0);
        assert_eq!(timing.values()[DOWN_MEAN_SIZE], 0.0);
        assert_eq!(timing.values()[0], full.values()[0], "counts preserved");
        assert_eq!(timing.values()[7], full.values()[7], "iat preserved");
    }

    #[test]
    fn different_apps_have_different_features() {
        let a = SessionGenerator::new(AppKind::Chatting, 2).generate_secs(30.0);
        let b = SessionGenerator::new(AppKind::Downloading, 2).generate_secs(30.0);
        let fa = FeatureVector::from_trace(&a);
        let fb = FeatureVector::from_trace(&b);
        assert!(fb.values()[DOWN_MEAN_SIZE] > fa.values()[DOWN_MEAN_SIZE] + 500.0);
        assert!(fa.values()[DOWN_MEAN_IAT] > fb.values()[DOWN_MEAN_IAT]);
    }

    #[test]
    fn into_values_round_trip() {
        let trace = Trace::from_packets(None, vec![pkt(0.0, 100, Direction::Downlink)]);
        let fv = FeatureVector::from_trace(&trace);
        let values = fv.clone().into_values();
        assert_eq!(values, fv.values());
    }
}
