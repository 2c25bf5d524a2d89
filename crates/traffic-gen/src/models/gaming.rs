//! Online gaming: frequent small state updates with occasional asset loads.
//!
//! Table I: mean downlink size ≈ 460 bytes, mean gap ≈ 0.31 s. Gaming sits
//! between chat and the bulk applications: most packets are small position /
//! state updates, with a tail of larger content packets.

use super::{ArrivalProcess, BidirectionalModel, FlowSpec};
use crate::app::AppKind;
use crate::packet::Direction;
use crate::sampler::SizeMixture;

/// The calibrated online-gaming traffic model.
pub fn model() -> BidirectionalModel {
    let downlink = FlowSpec::new(
        Direction::Downlink,
        SizeMixture::new(&[
            (0.62, 108, 232),   // state updates
            (0.23, 400, 900),   // aggregated updates
            (0.15, 1500, 1576), // asset / map data
        ]),
        ArrivalProcess::Poisson {
            mean_gap_secs: 0.30,
        },
    );
    let uplink = FlowSpec::new(
        Direction::Uplink,
        SizeMixture::new(&[(0.80, 108, 232), (0.20, 300, 800)]),
        ArrivalProcess::Poisson {
            mean_gap_secs: 0.28,
        },
    );
    BidirectionalModel::new(AppKind::Gaming, downlink, uplink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::test_support::assert_calibrated;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_table_one_statistics() {
        assert_calibrated(&model(), 0.15, 0.30);
    }

    #[test]
    fn gaming_mean_size_sits_between_chat_and_bulk() {
        let trace = model().generate(StdRng::seed_from_u64(21), 120.0);
        let sizes = trace.sizes(Direction::Downlink);
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!(mean > 300.0 && mean < 700.0, "gaming mean size {mean}");
    }

    #[test]
    fn uplink_and_downlink_rates_are_comparable() {
        let trace = model().generate(StdRng::seed_from_u64(22), 120.0);
        let down = trace.packets_in(Direction::Downlink).count() as f64;
        let up = trace.packets_in(Direction::Uplink).count() as f64;
        let ratio = down / up;
        assert!(
            ratio > 0.5 && ratio < 2.0,
            "interactive game traffic is symmetric-ish ({ratio})"
        );
    }
}
