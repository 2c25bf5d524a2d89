//! Wireless channel model: path loss, shadowing and RSSI.
//!
//! The paper's measurements were taken in residential environments with a
//! received signal strength around −50 dBm (footnote to Fig. 1), and the
//! power-analysis discussion (§V-A) notes that RSSI values can be used to link
//! packets back to a physical transmitter. The channel model below is a
//! standard log-distance path-loss model with optional log-normal shadowing,
//! which is enough to (a) produce plausible RSSI readings at the sniffer and
//! (b) demonstrate per-packet transmission-power control as a countermeasure.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A position in the 2-D simulation plane, in meters.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Position {
    /// X coordinate in meters.
    pub x: f64,
    /// Y coordinate in meters.
    pub y: f64,
}

impl Position {
    /// Creates a position.
    pub fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to another position, in meters.
    pub fn distance_to(&self, other: &Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// Log-distance path-loss model with optional log-normal shadowing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathLossModel {
    /// Path loss at the reference distance, in dB.
    pub reference_loss_db: f64,
    /// Reference distance in meters.
    pub reference_distance_m: f64,
    /// Path-loss exponent (2 = free space, 3–4 = indoor).
    pub exponent: f64,
    /// Standard deviation of the log-normal shadowing term, in dB.
    pub shadowing_sigma_db: f64,
}

impl Default for PathLossModel {
    fn default() -> Self {
        // Indoor residential defaults: with a 15 dBm transmitter these yield
        // roughly −50 dBm at ~5 m, matching the paper's measurement setting.
        PathLossModel {
            reference_loss_db: 40.0,
            reference_distance_m: 1.0,
            exponent: 3.0,
            shadowing_sigma_db: 2.0,
        }
    }
}

impl PathLossModel {
    /// Mean path loss in dB at distance `d` meters (no shadowing).
    pub fn mean_path_loss_db(&self, distance_m: f64) -> f64 {
        let d = distance_m.max(self.reference_distance_m);
        self.reference_loss_db + 10.0 * self.exponent * (d / self.reference_distance_m).log10()
    }

    /// Samples the path loss at distance `d`, including shadowing.
    pub fn sample_path_loss_db<R: Rng + ?Sized>(&self, distance_m: f64, rng: &mut R) -> f64 {
        let mean = self.mean_path_loss_db(distance_m);
        if self.shadowing_sigma_db == 0.0 {
            return mean;
        }
        // Box-Muller transform; avoids pulling in rand_distr.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + z * self.shadowing_sigma_db
    }

    /// Received signal strength in dBm for a transmission at `tx_power_dbm`
    /// over `distance_m` meters (mean, no shadowing).
    pub fn mean_rssi_dbm(&self, tx_power_dbm: f64, distance_m: f64) -> f64 {
        tx_power_dbm - self.mean_path_loss_db(distance_m)
    }

    /// Samples an RSSI value including shadowing.
    pub fn sample_rssi_dbm<R: Rng + ?Sized>(
        &self,
        tx_power_dbm: f64,
        distance_m: f64,
        rng: &mut R,
    ) -> f64 {
        tx_power_dbm - self.sample_path_loss_db(distance_m, rng)
    }
}

/// Parameters of the wireless medium shared by all nodes of a WLAN.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Medium {
    path_loss: PathLossModel,
    noise_floor_dbm: f64,
}

impl Default for Medium {
    fn default() -> Self {
        Medium {
            path_loss: PathLossModel::default(),
            noise_floor_dbm: -95.0,
        }
    }
}

impl Medium {
    /// Creates a medium with the given path-loss model and noise floor.
    pub fn new(path_loss: PathLossModel, noise_floor_dbm: f64) -> Self {
        Medium {
            path_loss,
            noise_floor_dbm,
        }
    }

    /// The configured path-loss model.
    pub fn path_loss(&self) -> &PathLossModel {
        &self.path_loss
    }

    /// Whether a transmission from `tx` at `tx_power_dbm` is decodable at `rx`
    /// (mean RSSI at least 6 dB above the noise floor).
    pub fn is_receivable(&self, tx: Position, rx: Position, tx_power_dbm: f64) -> bool {
        self.path_loss
            .mean_rssi_dbm(tx_power_dbm, tx.distance_to(&rx))
            >= self.noise_floor_dbm + 6.0
    }

    /// Samples the RSSI observed at `rx` for a transmission from `tx`.
    pub fn observe_rssi<R: Rng + ?Sized>(
        &self,
        tx: Position,
        rx: Position,
        tx_power_dbm: f64,
        rng: &mut R,
    ) -> f64 {
        self.path_loss
            .sample_rssi_dbm(tx_power_dbm, tx.distance_to(&rx), rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A model without shadowing (deterministic RSSI).
    fn deterministic(reference_loss_db: f64, exponent: f64) -> PathLossModel {
        PathLossModel {
            reference_loss_db,
            exponent,
            shadowing_sigma_db: 0.0,
            ..PathLossModel::default()
        }
    }

    #[test]
    fn distance_is_euclidean() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(3.0, 4.0);
        assert!((a.distance_to(&b) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance_to(&a), 0.0);
    }

    #[test]
    fn path_loss_monotone_in_distance() {
        let m = deterministic(40.0, 3.0);
        let mut last = 0.0;
        for d in [1.0, 2.0, 5.0, 10.0, 20.0, 50.0] {
            let pl = m.mean_path_loss_db(d);
            assert!(pl > last);
            last = pl;
        }
    }

    #[test]
    fn distances_below_reference_are_clamped() {
        let m = deterministic(40.0, 3.0);
        assert_eq!(m.mean_path_loss_db(0.0), m.mean_path_loss_db(1.0));
        assert_eq!(m.mean_path_loss_db(0.5), 40.0);
    }

    #[test]
    fn default_model_matches_paper_measurement_setting() {
        // Paper footnote: RSSI around -50 dBm in the residential measurements.
        let m = PathLossModel::default();
        let rssi = m.mean_rssi_dbm(15.0, 5.0);
        assert!(
            (-62.0..=-42.0).contains(&rssi),
            "default model should yield around -50 dBm at 5 m, got {rssi}"
        );
    }

    #[test]
    fn shadowing_varies_but_stays_near_mean() {
        let m = PathLossModel {
            shadowing_sigma_db: 3.0,
            ..PathLossModel::default()
        };
        let mut rng = StdRng::seed_from_u64(4);
        let mean = m.mean_path_loss_db(10.0);
        let samples: Vec<f64> = (0..2000)
            .map(|_| m.sample_path_loss_db(10.0, &mut rng))
            .collect();
        let avg = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(
            (avg - mean).abs() < 0.5,
            "sample mean {avg} too far from {mean}"
        );
        assert!(
            samples.iter().any(|s| (s - mean).abs() > 1.0),
            "shadowing should vary"
        );
    }

    #[test]
    fn deterministic_model_has_no_shadowing() {
        let m = deterministic(40.0, 3.0);
        let mut rng = StdRng::seed_from_u64(4);
        let a = m.sample_path_loss_db(7.0, &mut rng);
        let b = m.sample_path_loss_db(7.0, &mut rng);
        assert_eq!(a, b);
    }

    #[test]
    fn receivability_threshold() {
        let medium = Medium::new(deterministic(40.0, 3.5), -95.0);
        let ap = Position::new(0.0, 0.0);
        assert!(medium.is_receivable(ap, Position::new(5.0, 0.0), 15.0));
        assert!(!medium.is_receivable(ap, Position::new(500.0, 0.0), 15.0));
    }

    #[test]
    fn observed_rssi_decreases_with_distance() {
        let medium = Medium::default();
        let mut rng = StdRng::seed_from_u64(9);
        let tx = Position::new(0.0, 0.0);
        let near: f64 = medium.observe_rssi(tx, Position::new(2.0, 0.0), 15.0, &mut rng);
        let far: f64 = medium.observe_rssi(tx, Position::new(40.0, 0.0), 15.0, &mut rng);
        assert!(near > far);
    }
}
