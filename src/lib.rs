//! # traffic-reshaping
//!
//! Umbrella crate for the reproduction of *"Defending Against Traffic Analysis
//! in Wireless Networks Through Traffic Reshaping"* (Zhang, He, Liu — ICDCS
//! 2011).
//!
//! The workspace is split into focused crates; this facade re-exports them and
//! adds the small amount of glue ([`bridge`]) that puts reshaped traffic on
//! the simulated air: packets become frames carrying the virtual MAC of the
//! interface the reshaping engine picked.
//!
//! * [`wlan`] — 802.11-style MAC/PHY simulator (stations, AP, sniffer).
//! * [`traffic`] — synthetic application traffic and trace handling.
//! * [`analysis`] — the adversary: features, SVM/NN classifiers, metrics.
//! * [`defense`] — baseline defenses: padding, morphing, pseudonyms, FH.
//! * [`reshape`] — the paper's contribution: virtual MAC interfaces and
//!   reshaping algorithms (RA, RR, OR).
//!
//! # Quickstart
//!
//! ```rust
//! use traffic_reshaping::reshape::scheduler::{OrthogonalRanges, ReshapeAlgorithm};
//! use traffic_reshaping::reshape::ranges::SizeRanges;
//! use traffic_reshaping::traffic::app::AppKind;
//! use traffic_reshaping::traffic::generator::SessionGenerator;
//!
//! // Generate a BitTorrent-like trace and reshape it over three virtual interfaces.
//! let trace = SessionGenerator::new(AppKind::BitTorrent, 42).generate_secs(10.0);
//! let ranges = SizeRanges::paper_default();
//! let mut algorithm = OrthogonalRanges::new(ranges);
//! let first = &trace.packets()[0];
//! let interface = algorithm.assign(first);
//! assert!(interface.index() < 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use classifier as analysis;
pub use defenses as defense;
pub use reshape_core as reshape;
pub use traffic_gen as traffic;
pub use wlan_sim as wlan;

pub mod bridge;
