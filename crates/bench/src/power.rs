//! The §V-A power-analysis experiment.
//!
//! Reshaping hides MAC-layer features, but an adversary can still try to link
//! the virtual interfaces of one client through received signal strength: all
//! of a card's transmissions arrive at the sniffer at a similar RSSI, so the
//! adversary can attribute each captured frame to a physical transmitter by
//! comparing its RSSI against per-station signatures (Bauer et al., PETS'09).
//! The paper's countermeasure is per-packet transmission power control (TPC).
//!
//! This experiment simulates several clients plus a sniffer and measures
//! (a) how accurately a nearest-signature adversary attributes individual
//! frames to their true transmitter and (b) the per-interface RSSI spread,
//! with and without TPC.

use rand::rngs::StdRng;
use rand::SeedableRng;
use reshape_core::power::{PowerController, RssiLinker};
use wlan_sim::channel::{Medium, Position};

/// The outcome of the power-analysis experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerAnalysisResult {
    /// Fraction of frames attributed to the correct station without TPC.
    pub attribution_without_tpc: f64,
    /// Fraction of frames attributed to the correct station with TPC.
    pub attribution_with_tpc: f64,
    /// Mean per-interface RSSI standard deviation without TPC (dB).
    pub rssi_spread_without_tpc: f64,
    /// Mean per-interface RSSI standard deviation with TPC (dB).
    pub rssi_spread_with_tpc: f64,
}

fn station_position(index: usize) -> Position {
    // Stations on a line, 2 m apart, starting 3 m from the origin; the sniffer
    // sits 12 m away so per-station path losses differ by only a few dB —
    // the regime in which TPC jitter actually matters.
    Position::new(3.0 + 2.0 * index as f64, 4.0)
}

/// Runs the experiment: `stations` clients, each with `interfaces` virtual
/// interfaces sending `packets_per_interface` frames observed by a sniffer.
pub fn power_analysis(
    stations: usize,
    interfaces: usize,
    packets_per_interface: usize,
    seed: u64,
) -> PowerAnalysisResult {
    let medium = Medium::default();
    let sniffer_position = Position::new(12.0, 0.0);
    let mut rng = StdRng::seed_from_u64(seed);

    // The adversary's calibration: the expected (mean) RSSI of each station at
    // the nominal transmit power, e.g. learned during association when no
    // defense is active yet.
    let nominal_power = 15.0;
    let signatures: Vec<f64> = (0..stations)
        .map(|s| {
            medium.path_loss().mean_rssi_dbm(
                nominal_power,
                station_position(s).distance_to(&sniffer_position),
            )
        })
        .collect();

    let run = |tpc: &PowerController, rng: &mut StdRng| -> (f64, f64) {
        let mut correct = 0usize;
        let mut total = 0usize;
        let mut spreads = Vec::new();
        for s in 0..stations {
            let position = station_position(s);
            for _ in 0..interfaces {
                let mut samples = Vec::with_capacity(packets_per_interface);
                for _ in 0..packets_per_interface {
                    let tx_power = if tpc.is_active() {
                        tpc.next_tx_power_dbm(rng)
                    } else {
                        nominal_power
                    };
                    let rssi = medium.observe_rssi(position, sniffer_position, tx_power, rng);
                    samples.push(rssi);
                    // Nearest-signature attribution of this single frame.
                    let guess = signatures
                        .iter()
                        .enumerate()
                        .min_by(|(_, a), (_, b)| {
                            (rssi - **a)
                                .abs()
                                .partial_cmp(&(rssi - **b).abs())
                                .expect("finite")
                        })
                        .map(|(i, _)| i)
                        .expect("at least one station");
                    if guess == s {
                        correct += 1;
                    }
                    total += 1;
                }
                spreads.push(RssiLinker::spread(&samples));
            }
        }
        (
            correct as f64 / total.max(1) as f64,
            spreads.iter().sum::<f64>() / spreads.len().max(1) as f64,
        )
    };

    let (attribution_without_tpc, rssi_spread_without_tpc) =
        run(&PowerController::disabled(nominal_power), &mut rng);
    let (attribution_with_tpc, rssi_spread_with_tpc) =
        run(&PowerController::new(nominal_power, 8.0), &mut rng);
    PowerAnalysisResult {
        attribution_without_tpc,
        attribution_with_tpc,
        rssi_spread_without_tpc,
        rssi_spread_with_tpc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tpc_blurs_the_rssi_signature() {
        let result = power_analysis(4, 3, 60, 7);
        assert!(
            result.attribution_without_tpc > 0.6,
            "without TPC the adversary should attribute most frames correctly, got {}",
            result.attribution_without_tpc
        );
        assert!(
            result.attribution_with_tpc < result.attribution_without_tpc - 0.1,
            "TPC must reduce attribution accuracy ({} vs {})",
            result.attribution_with_tpc,
            result.attribution_without_tpc
        );
        assert!(result.rssi_spread_with_tpc > result.rssi_spread_without_tpc + 1.0);
    }

    #[test]
    fn result_is_deterministic_for_a_seed() {
        assert_eq!(power_analysis(3, 3, 30, 1), power_analysis(3, 3, 30, 1));
        assert_ne!(power_analysis(3, 3, 30, 1), power_analysis(3, 3, 30, 2));
    }
}
