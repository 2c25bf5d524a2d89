//! Online video streaming: a steady stream of near-full-size packets.
//!
//! Table I: mean downlink size ≈ 1548 bytes, mean gap ≈ 11.9 ms, and the paper
//! notes that online video "demonstrates a relatively stable data rate"
//! (§II-A), so the model uses a constant-rate arrival process with small
//! jitter rather than a memoryless one.

use super::{ArrivalProcess, BidirectionalModel, FlowSpec};
use crate::app::AppKind;
use crate::packet::Direction;
use crate::sampler::SizeMixture;

/// The calibrated video-streaming traffic model.
pub fn model() -> BidirectionalModel {
    let downlink = FlowSpec::new(
        Direction::Downlink,
        SizeMixture::new(&[
            (0.975, 1546, 1576), // media segments
            (0.025, 108, 232),   // control / manifest packets
        ]),
        ArrivalProcess::ConstantRate {
            gap_secs: 0.0119,
            jitter_secs: 0.0020,
        },
    );
    let uplink = FlowSpec::new(
        Direction::Uplink,
        SizeMixture::new(&[(1.0, 60, 140)]), // ACKs and player telemetry
        ArrivalProcess::Poisson {
            mean_gap_secs: 0.024,
        },
    );
    BidirectionalModel::new(AppKind::Video, downlink, uplink)
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
    fn data_rate_is_stable() {
        let trace = model().generate(StdRng::seed_from_u64(60), 30.0);
        // Compare per-second downlink byte counts: the coefficient of variation
        // should be small for a constant-rate stream.
        let mut per_second = vec![0u64; 30];
        for p in trace.packets_in(Direction::Downlink) {
            let s = p.time.as_secs_f64() as usize;
            if s < per_second.len() {
                per_second[s] += p.size as u64;
            }
        }
        let mean = per_second.iter().sum::<u64>() as f64 / per_second.len() as f64;
        let var = per_second
            .iter()
            .map(|b| (*b as f64 - mean).powi(2))
            .sum::<f64>()
            / per_second.len() as f64;
        let cv = var.sqrt() / mean;
        assert!(
            cv < 0.2,
            "video rate should be stable, coefficient of variation {cv}"
        );
    }

    #[test]
    fn most_packets_are_near_mtu() {
        let trace = model().generate(StdRng::seed_from_u64(61), 10.0);
        let sizes = trace.sizes(Direction::Downlink);
        let large = sizes.iter().filter(|s| **s >= 1546).count();
        assert!(large as f64 / sizes.len() as f64 > 0.9);
    }
}
