//! Per-packet transmission power control (TPC) against power analysis (§V-A).
//!
//! RSSI readings let an adversary cluster frames by transmitter even when MAC
//! addresses change, because all of one card's frames arrive at a similar
//! signal strength. The paper's suggested countermeasure is per-packet TPC:
//! vary the transmit power packet by packet so the RSSI of different virtual
//! interfaces no longer clusters around a single value. This module provides
//! the TPC model and the RSSI statistics of a linking adversary so the
//! experiment in `§V-A` of EXPERIMENTS.md can quantify the effect.

use rand::Rng;

/// A per-packet transmission power controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerController {
    /// Nominal transmit power in dBm.
    pub nominal_dbm: f64,
    /// Maximum deviation (±) applied per packet, in dB.
    pub jitter_db: f64,
}

impl Default for PowerController {
    fn default() -> Self {
        // 802.11 cards commonly allow 0–18 dBm; a ±6 dB swing around 12 dBm
        // keeps packets decodable at home-WLAN distances while spreading RSSI.
        PowerController {
            nominal_dbm: 12.0,
            jitter_db: 6.0,
        }
    }
}

impl PowerController {
    /// Creates a controller.
    ///
    /// # Panics
    ///
    /// Panics if `jitter_db` is negative.
    pub fn new(nominal_dbm: f64, jitter_db: f64) -> Self {
        assert!(jitter_db >= 0.0, "jitter must be non-negative");
        PowerController {
            nominal_dbm,
            jitter_db,
        }
    }

    /// A controller that always transmits at the nominal power (TPC disabled).
    pub fn disabled(nominal_dbm: f64) -> Self {
        PowerController {
            nominal_dbm,
            jitter_db: 0.0,
        }
    }

    /// Returns `true` when per-packet jitter is active.
    pub fn is_active(&self) -> bool {
        self.jitter_db > 0.0
    }

    /// The transmit power to use for the next packet.
    pub fn next_tx_power_dbm<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.jitter_db == 0.0 {
            self.nominal_dbm
        } else {
            self.nominal_dbm + rng.gen_range(-self.jitter_db..=self.jitter_db)
        }
    }
}

/// The statistics of an RSSI-linking adversary, which judges two sets of
/// RSSI observations to come from the *same* physical transmitter when their
/// mean RSSI is close; per-packet TPC defeats it by widening the spread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RssiLinker;

impl RssiLinker {
    /// Mean of a set of RSSI observations (`None` when empty).
    pub fn mean(observations: &[f64]) -> Option<f64> {
        if observations.is_empty() {
            None
        } else {
            Some(observations.iter().sum::<f64>() / observations.len() as f64)
        }
    }

    /// The spread (standard deviation) of a set of observations, a proxy for
    /// how much TPC has blurred the per-transmitter RSSI signature.
    pub fn spread(observations: &[f64]) -> f64 {
        let Some(mean) = Self::mean(observations) else {
            return 0.0;
        };
        (observations.iter().map(|o| (o - mean).powi(2)).sum::<f64>() / observations.len() as f64)
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn disabled_controller_is_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let tpc = PowerController::disabled(15.0);
        assert!(!tpc.is_active());
        for _ in 0..10 {
            assert_eq!(tpc.next_tx_power_dbm(&mut rng), 15.0);
        }
    }

    #[test]
    fn active_controller_spreads_power_within_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let tpc = PowerController::new(12.0, 6.0);
        assert!(tpc.is_active());
        let samples: Vec<f64> = (0..2000).map(|_| tpc.next_tx_power_dbm(&mut rng)).collect();
        assert!(samples.iter().all(|p| (6.0..=18.0).contains(p)));
        let spread = RssiLinker::spread(&samples);
        assert!(spread > 2.0, "TPC must spread the power, got std {spread}");
        assert_eq!(RssiLinker::mean(&[]), None);
        assert_eq!(RssiLinker::spread(&[]), 0.0);
    }

    #[test]
    fn default_controller_matches_documented_values() {
        let tpc = PowerController::default();
        assert_eq!(tpc.nominal_dbm, 12.0);
        assert_eq!(tpc.jitter_db, 6.0);
    }

    #[test]
    #[should_panic]
    fn negative_jitter_panics() {
        let _ = PowerController::new(10.0, -1.0);
    }
}
