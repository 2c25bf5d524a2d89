//! Bulk downloading: a saturated downlink of full-size frames.
//!
//! Table I: mean downlink size ≈ 1575 bytes (essentially every packet is
//! MTU-sized) with a 2.3 ms mean gap — the fastest downlink of the seven
//! applications. The uplink carries only TCP acknowledgements.

use super::{ArrivalProcess, BidirectionalModel, FlowSpec};
use crate::app::AppKind;
use crate::packet::Direction;
use crate::sampler::SizeMixture;

/// The calibrated bulk-download traffic model.
pub fn model() -> BidirectionalModel {
    let downlink = FlowSpec::new(
        Direction::Downlink,
        SizeMixture::new(&[
            (0.999, 1576, 1576), // full-size TCP segments
            (0.001, 108, 232),   // rare control packets
        ]),
        ArrivalProcess::Poisson {
            mean_gap_secs: 0.0023,
        },
    );
    let uplink = FlowSpec::new(
        Direction::Uplink,
        SizeMixture::new(&[(1.0, 60, 120)]), // TCP ACKs
        ArrivalProcess::Poisson {
            mean_gap_secs: 0.0046,
        },
    );
    BidirectionalModel::new(AppKind::Downloading, downlink, uplink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::test_support::assert_calibrated;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_table_one_statistics() {
        assert_calibrated(&model(), 0.05, 0.25);
    }

    #[test]
    fn downlink_is_nearly_all_full_size_packets() {
        let trace = model().generate(StdRng::seed_from_u64(40), 10.0);
        let sizes = trace.sizes(Direction::Downlink);
        let full = sizes.iter().filter(|s| **s == 1576).count();
        assert!(full as f64 / sizes.len() as f64 > 0.99);
    }

    #[test]
    fn uplink_is_tiny_acks() {
        let trace = model().generate(StdRng::seed_from_u64(41), 10.0);
        let up = trace.sizes(Direction::Uplink);
        assert!(!up.is_empty());
        assert!(up.iter().all(|s| *s <= 232));
        // Downlink carries far more bytes than uplink.
        let down_bytes: usize = trace.sizes(Direction::Downlink).iter().sum();
        let up_bytes: usize = up.iter().sum();
        assert!(down_bytes > 10 * up_bytes);
    }
}
