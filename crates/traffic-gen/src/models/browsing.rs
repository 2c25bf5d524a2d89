//! Web browsing: bursty downloads of page objects separated by think times.
//!
//! Fig. 1 shows browsing traffic as a mixture of small control/ACK-sized
//! packets and full-size data packets; Table I reports a mean downlink size of
//! about 1013 bytes with a 28 ms mean gap. The model uses an ON/OFF arrival
//! process: bursts of packets while a page loads, pauses while the user reads.

use super::{ArrivalProcess, BidirectionalModel, FlowSpec};
use crate::app::AppKind;
use crate::packet::Direction;
use crate::sampler::SizeMixture;

/// The calibrated web-browsing traffic model.
pub fn model() -> BidirectionalModel {
    let downlink = FlowSpec::new(
        Direction::Downlink,
        SizeMixture::new(&[
            (0.32, 108, 232),   // TCP ACKs, small objects
            (0.08, 400, 1000),  // medium objects (css, small images)
            (0.60, 1546, 1576), // full-size data segments
        ]),
        ArrivalProcess::OnOff {
            mean_burst_packets: 40.0,
            in_burst_gap_secs: 0.010,
            off_gap_secs: 0.80,
        },
    );
    let uplink = FlowSpec::new(
        Direction::Uplink,
        SizeMixture::new(&[(0.88, 108, 320), (0.12, 320, 760)]),
        ArrivalProcess::OnOff {
            mean_burst_packets: 12.0,
            in_burst_gap_secs: 0.015,
            off_gap_secs: 0.9,
        },
    );
    BidirectionalModel::new(AppKind::Browsing, downlink, uplink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::test_support::assert_calibrated;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_table_one_statistics() {
        assert_calibrated(&model(), 0.12, 0.45);
    }

    #[test]
    fn downlink_sizes_are_bimodal() {
        let trace = model().generate(StdRng::seed_from_u64(33), 60.0);
        let sizes = trace.sizes(Direction::Downlink);
        let small = sizes.iter().filter(|s| **s <= 232).count();
        let large = sizes.iter().filter(|s| **s >= 1546).count();
        assert!(small > 0 && large > 0);
        assert!(large > small, "browsing is dominated by full-size packets");
    }

    #[test]
    fn burstiness_shows_in_gap_distribution() {
        let trace = model().generate(StdRng::seed_from_u64(34), 60.0);
        let gaps = trace.interarrival_secs(Direction::Downlink, 5.0);
        let short = gaps.iter().filter(|g| **g < 0.05).count();
        assert!(short as f64 / gaps.len() as f64 > 0.5);
    }
}
