//! PHY-layer parameters: data rates, channels and airtime computation.
//!
//! The paper's traces were collected on 802.11a/b/g links whose data rate
//! fluctuates between 1 and 54 Mb/s (§IV-A). The simulator exposes the same
//! rate set and computes per-frame airtime so inter-arrival times on the
//! medium are physically plausible.

use crate::error::{Error, Result};
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An 802.11a/b/g data rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum PhyRate {
    /// 1 Mb/s (802.11b DSSS).
    Mbps1,
    /// 2 Mb/s (802.11b DSSS).
    Mbps2,
    /// 5.5 Mb/s (802.11b CCK).
    Mbps5_5,
    /// 6 Mb/s (802.11a/g OFDM).
    Mbps6,
    /// 11 Mb/s (802.11b CCK).
    Mbps11,
    /// 12 Mb/s (802.11a/g OFDM).
    Mbps12,
    /// 24 Mb/s (802.11a/g OFDM).
    Mbps24,
    /// 36 Mb/s (802.11a/g OFDM).
    Mbps36,
    /// 48 Mb/s (802.11a/g OFDM).
    Mbps48,
    /// 54 Mb/s (802.11a/g OFDM).
    Mbps54,
}

impl PhyRate {
    /// All supported rates, in increasing order.
    pub const ALL: [PhyRate; 10] = [
        PhyRate::Mbps1,
        PhyRate::Mbps2,
        PhyRate::Mbps5_5,
        PhyRate::Mbps6,
        PhyRate::Mbps11,
        PhyRate::Mbps12,
        PhyRate::Mbps24,
        PhyRate::Mbps36,
        PhyRate::Mbps48,
        PhyRate::Mbps54,
    ];

    /// The rate in bits per second.
    pub fn bits_per_second(self) -> u64 {
        match self {
            PhyRate::Mbps1 => 1_000_000,
            PhyRate::Mbps2 => 2_000_000,
            PhyRate::Mbps5_5 => 5_500_000,
            PhyRate::Mbps6 => 6_000_000,
            PhyRate::Mbps11 => 11_000_000,
            PhyRate::Mbps12 => 12_000_000,
            PhyRate::Mbps24 => 24_000_000,
            PhyRate::Mbps36 => 36_000_000,
            PhyRate::Mbps48 => 48_000_000,
            PhyRate::Mbps54 => 54_000_000,
        }
    }

    /// Airtime needed to transmit `bytes` payload bytes at this rate, including
    /// a fixed PHY preamble/PLCP overhead of 20 µs.
    pub fn airtime(self, bytes: usize) -> SimDuration {
        const PREAMBLE_US: u64 = 20;
        let bits = bytes as u64 * 8;
        let us = (bits * 1_000_000).div_ceil(self.bits_per_second());
        SimDuration::from_micros(PREAMBLE_US + us)
    }
}

impl fmt::Display for PhyRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mbps = self.bits_per_second() as f64 / 1e6;
        write!(f, "{mbps} Mb/s")
    }
}

/// A 2.4 GHz 802.11 channel number (1..=14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Channel(u8);

impl Channel {
    /// Channel 1 (2412 MHz) — part of the frequency-hopping schedule in §IV.
    pub const CH1: Channel = Channel(1);
    /// Channel 6 (2437 MHz).
    pub const CH6: Channel = Channel(6);
    /// Channel 11 (2462 MHz).
    pub const CH11: Channel = Channel(11);

    /// Creates a channel, validating the number.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidChannel`] unless `1 <= number <= 14`.
    pub fn new(number: u8) -> Result<Channel> {
        if (1..=14).contains(&number) {
            Ok(Channel(number))
        } else {
            Err(Error::InvalidChannel(number))
        }
    }

    /// The non-overlapping hop set `1, 6, 11` used by the paper's
    /// frequency-hopping baseline (VirtualWiFi with a 500 ms dwell).
    pub fn hop_set() -> [Channel; 3] {
        [Channel::CH1, Channel::CH6, Channel::CH11]
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_ordering_and_bits() {
        let mut last = 0;
        for r in PhyRate::ALL {
            assert!(r.bits_per_second() > last);
            last = r.bits_per_second();
        }
        assert_eq!(PhyRate::Mbps54.bits_per_second(), 54_000_000);
    }

    #[test]
    fn airtime_scales_with_size_and_rate() {
        let small = PhyRate::Mbps54.airtime(100);
        let large = PhyRate::Mbps54.airtime(1500);
        assert!(large > small);
        let slow = PhyRate::Mbps1.airtime(1500);
        let fast = PhyRate::Mbps54.airtime(1500);
        assert!(slow > fast);
        // 1500 bytes at 54 Mb/s = 12000 bits / 54 = ~222 µs + 20 µs preamble.
        assert_eq!(fast.as_micros(), 20 + 223);
    }

    #[test]
    fn channels_validate_and_display() {
        assert!(Channel::new(0).is_err());
        assert!(Channel::new(15).is_err());
        assert_eq!(Channel::new(14).unwrap().to_string(), "ch14");
        assert_eq!(Channel::hop_set().len(), 3);
        assert_eq!(Channel::CH6.to_string(), "ch6");
        assert_eq!(PhyRate::Mbps5_5.to_string(), "5.5 Mb/s");
    }
}
