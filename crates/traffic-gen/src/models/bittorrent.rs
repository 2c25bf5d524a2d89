//! BitTorrent: bidirectional peer-to-peer transfer with bimodal packet sizes.
//!
//! Table I: mean downlink size ≈ 962 bytes, mean gap ≈ 24.7 ms. BitTorrent is
//! the paper's running example for Orthogonal Reshaping (Figures 4 and 5): its
//! size distribution mixes small protocol messages (have/request/ACK) with
//! full-size piece data in both directions, which makes the per-interface
//! separation after reshaping particularly visible.

use super::{ArrivalProcess, BidirectionalModel, FlowSpec};
use crate::app::AppKind;
use crate::packet::Direction;
use crate::sampler::SizeMixture;

/// The calibrated BitTorrent traffic model.
pub fn model() -> BidirectionalModel {
    let downlink = FlowSpec::new(
        Direction::Downlink,
        SizeMixture::new(&[
            (0.36, 108, 232),   // protocol chatter, ACKs
            (0.09, 400, 1200),  // partial blocks
            (0.55, 1546, 1576), // full piece segments
        ]),
        ArrivalProcess::Poisson {
            mean_gap_secs: 0.024,
        },
    );
    let uplink = FlowSpec::new(
        Direction::Uplink,
        SizeMixture::new(&[(0.45, 108, 232), (0.15, 400, 1200), (0.40, 1546, 1576)]),
        ArrivalProcess::Poisson {
            mean_gap_secs: 0.050,
        },
    );
    BidirectionalModel::new(AppKind::BitTorrent, downlink, uplink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::test_support::assert_calibrated;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_table_one_statistics() {
        assert_calibrated(&model(), 0.10, 0.25);
    }

    #[test]
    fn size_distribution_is_bimodal_in_both_directions() {
        let trace = model().generate(StdRng::seed_from_u64(70), 60.0);
        for dir in Direction::ALL {
            let sizes = trace.sizes(dir);
            let small = sizes.iter().filter(|s| **s <= 232).count() as f64 / sizes.len() as f64;
            let large = sizes.iter().filter(|s| **s >= 1546).count() as f64 / sizes.len() as f64;
            assert!(small > 0.2, "{dir}: small fraction {small}");
            assert!(large > 0.2, "{dir}: large fraction {large}");
        }
    }

    #[test]
    fn uplink_carries_substantial_traffic() {
        let trace = model().generate(StdRng::seed_from_u64(71), 30.0);
        let up_bytes: usize = trace.sizes(Direction::Uplink).iter().sum();
        let down_bytes: usize = trace.sizes(Direction::Downlink).iter().sum();
        let ratio = up_bytes as f64 / down_bytes as f64;
        assert!(ratio > 0.2, "BT seeds as well as leeches (up/down {ratio})");
    }
}
