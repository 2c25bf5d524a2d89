//! Instant messaging / chat: sparse, small packets.
//!
//! Table I: mean downlink size ≈ 269 bytes, mean gap ≈ 0.99 s — by far the
//! slowest of the seven applications, dominated by short text messages and
//! keep-alives with an occasional larger packet (inline image, file snippet).

use super::{ArrivalProcess, BidirectionalModel, FlowSpec};
use crate::app::AppKind;
use crate::packet::Direction;
use crate::sampler::SizeMixture;

/// The calibrated chat traffic model.
pub fn model() -> BidirectionalModel {
    let downlink = FlowSpec::new(
        Direction::Downlink,
        SizeMixture::new(&[
            (0.84, 108, 232),   // text messages, presence updates
            (0.12, 300, 700),   // stickers / formatted messages
            (0.04, 1546, 1576), // occasional media chunk
        ]),
        ArrivalProcess::Poisson {
            mean_gap_secs: 0.95,
        },
    );
    let uplink = FlowSpec::new(
        Direction::Uplink,
        SizeMixture::new(&[(0.85, 108, 232), (0.15, 300, 700)]),
        ArrivalProcess::Poisson { mean_gap_secs: 1.1 },
    );
    BidirectionalModel::new(AppKind::Chatting, downlink, uplink)
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
    fn chat_is_a_low_rate_small_packet_application() {
        let trace = model().generate(StdRng::seed_from_u64(10), 300.0);
        // Low rate: far fewer packets than a bulk transfer would produce.
        assert!(
            trace.len() < 1500,
            "chat generated {} packets in 5 min",
            trace.len()
        );
        let small = trace
            .sizes(Direction::Downlink)
            .iter()
            .filter(|s| **s <= 232)
            .count();
        assert!(
            small as f64 / trace.sizes(Direction::Downlink).len() as f64 > 0.7,
            "chat should be dominated by small packets"
        );
    }
}
