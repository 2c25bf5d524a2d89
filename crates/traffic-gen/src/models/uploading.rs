//! Bulk uploading: the mirror image of downloading.
//!
//! Table I reports the *downlink* of an upload session: mean size ≈ 133 bytes
//! (TCP acknowledgements only) with a 30 ms gap, while the uplink carries the
//! full-size data segments. The paper notes uploading is the only application
//! with low downlink but high uplink traffic, which is why it remains
//! identifiable even under Orthogonal Reshaping (§IV-C).

use super::{ArrivalProcess, BidirectionalModel, FlowSpec};
use crate::app::AppKind;
use crate::packet::Direction;
use crate::sampler::SizeMixture;

/// The calibrated bulk-upload traffic model.
pub fn model() -> BidirectionalModel {
    let downlink = FlowSpec::new(
        Direction::Downlink,
        SizeMixture::new(&[(1.0, 108, 158)]), // TCP ACKs from the server
        ArrivalProcess::Poisson {
            mean_gap_secs: 0.030,
        },
    );
    let uplink = FlowSpec::new(
        Direction::Uplink,
        SizeMixture::new(&[(0.98, 1546, 1576), (0.02, 108, 232)]),
        ArrivalProcess::Poisson {
            mean_gap_secs: 0.0060,
        },
    );
    BidirectionalModel::new(AppKind::Uploading, downlink, uplink)
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
    fn traffic_asymmetry_is_reversed_compared_to_downloading() {
        let trace = model().generate(StdRng::seed_from_u64(50), 10.0);
        let up_bytes: usize = trace.sizes(Direction::Uplink).iter().sum();
        let down_bytes: usize = trace.sizes(Direction::Downlink).iter().sum();
        assert!(
            up_bytes > 10 * down_bytes,
            "uploading must be uplink-heavy (up {up_bytes} vs down {down_bytes})"
        );
    }

    #[test]
    fn uplink_is_full_size_segments() {
        let trace = model().generate(StdRng::seed_from_u64(51), 10.0);
        let up = trace.sizes(Direction::Uplink);
        let full = up.iter().filter(|s| **s >= 1546).count();
        assert!(full as f64 / up.len() as f64 > 0.9);
    }
}
