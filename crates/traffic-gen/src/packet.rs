//! Packet records: the atoms of a traffic trace.

use crate::app::AppKind;
use serde::{Deserialize, Serialize};
use std::fmt;
use wlan_sim::time::SimTime;

/// The direction of a packet relative to the wireless client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Direction {
    /// From the AP to the client (the receiver side of Fig. 1).
    Downlink,
    /// From the client to the AP.
    Uplink,
}

impl Direction {
    /// Both directions, downlink first.
    pub const ALL: [Direction; 2] = [Direction::Downlink, Direction::Uplink];

    /// The opposite direction.
    pub fn reverse(self) -> Direction {
        match self {
            Direction::Downlink => Direction::Uplink,
            Direction::Uplink => Direction::Downlink,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::Downlink => write!(f, "downlink"),
            Direction::Uplink => write!(f, "uplink"),
        }
    }
}

/// One observed (or generated) packet.
///
/// This is deliberately exactly the information the eavesdropper of the paper
/// can extract from an encrypted 802.11 capture: when the packet was sent, how
/// big it was on the air, and which way it travelled. The `app` label is the
/// ground truth used for training and scoring the classifier; a real
/// adversary does not see it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PacketRecord {
    /// Transmission timestamp.
    pub time: SimTime,
    /// On-air packet size in bytes.
    pub size: usize,
    /// Direction relative to the client.
    pub direction: Direction,
    /// Ground-truth application label.
    pub app: AppKind,
}

impl PacketRecord {
    /// Creates a packet record.
    pub fn new(time: SimTime, size: usize, direction: Direction, app: AppKind) -> Self {
        PacketRecord {
            time,
            size,
            direction,
            app,
        }
    }

    /// Returns a copy with a different size (used by padding / morphing).
    pub fn with_size(mut self, size: usize) -> Self {
        self.size = size;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_reverse_is_involution() {
        for d in Direction::ALL {
            assert_eq!(d.reverse().reverse(), d);
        }
        assert_eq!(Direction::Downlink.reverse(), Direction::Uplink);
        assert_eq!(Direction::Downlink.to_string(), "downlink");
        assert_eq!(Direction::Uplink.to_string(), "uplink");
    }

    #[test]
    fn packet_constructors() {
        let p = PacketRecord::new(
            SimTime::from_secs_f64(1.5),
            1400,
            Direction::Downlink,
            AppKind::Video,
        );
        assert_eq!(p.time.as_micros(), 1_500_000);
        assert_eq!(p.size, 1400);
        let resized = p.with_size(1576);
        assert_eq!(resized.size, 1576);
        assert_eq!(resized.time, p.time);
    }

    #[test]
    fn serde_round_trip() {
        let p = PacketRecord::new(
            SimTime::from_secs_f64(0.25),
            232,
            Direction::Uplink,
            AppKind::Chatting,
        );
        let json = serde_json::to_string(&p).unwrap();
        let back: PacketRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
