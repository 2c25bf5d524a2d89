//! # wlan-sim
//!
//! An 802.11-style MAC/PHY simulator used as the substrate for the
//! traffic-reshaping reproduction (Zhang, He, Liu — ICDCS 2011).
//!
//! The paper's defense runs inside a modified MadWifi driver on real Atheros
//! hardware. Everything the defense (and the adversary) observes, however, is a
//! MAC-layer packet stream: frame sizes, timestamps, MAC addresses, channels and
//! received signal strength. This crate provides exactly that observable surface:
//!
//! * [`mac`] — MAC addresses and the AP-side address pool used to hand out
//!   virtual interface addresses.
//! * [`time`] — microsecond-resolution virtual time.
//! * [`frame`] — management/control/data frames with wire encoding.
//! * [`phy`] — data rates, channels, airtime computation.
//! * [`channel`] — log-distance path loss and RSSI.
//! * [`crypto`] — payload opacity (the adversary sees lengths, not contents).
//! * [`station`] / [`ap`] — client and access-point state machines.
//! * [`sniffer`] — the passive eavesdropper.
//!
//! # Example
//!
//! ```rust
//! use wlan_sim::mac::MacAddress;
//! use wlan_sim::frame::{Frame, FrameType};
//! use wlan_sim::time::SimTime;
//!
//! let src = MacAddress::new([0x02, 0, 0, 0, 0, 1]);
//! let dst = MacAddress::new([0x02, 0, 0, 0, 0, 2]);
//! let frame = Frame::data(src, dst, vec![0u8; 1400]);
//! assert!(frame.air_size() > 1400);
//! assert_eq!(frame.header().src(), src);
//! let _t = SimTime::from_secs_f64(1.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ap;
pub mod association;
pub mod channel;
pub mod crypto;
pub mod error;
pub mod frame;
pub mod mac;
pub mod phy;
pub mod sniffer;
pub mod station;
pub mod time;

pub use ap::AccessPoint;
pub use error::{Error, Result};
pub use frame::{Frame, FrameHeader, FrameType};
pub use mac::{MacAddress, MacAddressPool};
pub use sniffer::{CapturedFrame, Sniffer};
pub use station::Station;
pub use time::{SimDuration, SimTime};
