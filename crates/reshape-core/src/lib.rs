//! # reshape-core
//!
//! The primary contribution of *"Defending Against Traffic Analysis in
//! Wireless Networks Through Traffic Reshaping"* (Zhang, He, Liu — ICDCS
//! 2011): create several **virtual MAC interfaces** over one wireless card and
//! dispatch every packet to one of them with a **reshaping algorithm**, so
//! that the traffic observed on any single MAC address no longer carries the
//! features of the original application.
//!
//! The crate is organised around the paper's Section III:
//!
//! * [`config`] — the encrypted four-step configuration protocol through which
//!   the AP assigns virtual MAC addresses (Fig. 2).
//! * [`translation`] — MAC-address translation on the client and the AP so the
//!   virtualisation stays invisible to upper layers and remote servers (Fig. 3).
//! * [`vif`] — virtual interfaces and per-interface statistics.
//! * [`ranges`] — packet-size range partitioning `(ℓ_{j-1}, ℓ_j]`.
//! * [`target`] — target distributions φ and the orthogonality criterion (Eq. 2).
//! * [`optimizer`] — the scheduling objective of Eq. 1 over realized
//!   distributions: a test oracle the OR tests recompute from the batch
//!   sub-traces (Eq. 2's check, [`TargetSet::check_orthogonality`](target::TargetSet::check_orthogonality),
//!   is the oracle for the targets OR routes by).
//! * [`scheduler`] — the reshaping algorithms: Random (RA), Round-Robin (RR),
//!   Orthogonal Reshaping over size ranges (OR, Fig. 4) and the size-modulo
//!   OR variant (Fig. 5).
//! * [`stage`] — the reshaping engine (Fig. 3's actual data path): one packet
//!   in, one assignment out, as a composable `PacketStage` of the `defenses`
//!   stage pipeline, so defense∘reshaping orderings (morph-then-reshape,
//!   per-vif padding, …) are first-class streaming data paths.
//! * [`reshaper`] — the batch façade over the stage: partitions a whole trace
//!   into per-interface sub-flows and verifies the zero-overhead invariant.
//! * [`params`] — the privacy entropy of §III-C3.
//! * [`power`] — per-packet transmission power control against RSSI linking (§V-A).
//! * [`combined`] — traffic reshaping combined with morphing on a virtual
//!   interface (§V-C).
//!
//! # Example
//!
//! ```rust
//! use reshape_core::ranges::SizeRanges;
//! use reshape_core::reshaper::Reshaper;
//! use reshape_core::scheduler::OrthogonalRanges;
//! use traffic_gen::app::AppKind;
//! use traffic_gen::generator::SessionGenerator;
//!
//! // Reshape a BitTorrent session over three virtual interfaces (Fig. 4).
//! let trace = SessionGenerator::new(AppKind::BitTorrent, 42).generate_secs(10.0);
//! let scheduler = OrthogonalRanges::new(SizeRanges::paper_default());
//! let mut reshaper = Reshaper::new(Box::new(scheduler));
//! let outcome = reshaper.reshape(&trace);
//! assert_eq!(outcome.interface_count(), 3);
//! // Zero overhead: every original packet appears on exactly one interface.
//! assert_eq!(outcome.total_packets(), trace.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod combined;
pub mod config;
pub mod error;
pub mod optimizer;
pub mod params;
pub mod power;
pub mod ranges;
pub mod reshaper;
pub mod scheduler;
pub mod stage;
pub mod target;
pub mod translation;
pub mod vif;

pub use error::{Error, Result};
pub use ranges::SizeRanges;
pub use reshaper::{ReshapeOutcome, Reshaper};
pub use scheduler::{
    OrthogonalModulo, OrthogonalRanges, RandomAssign, ReshapeAlgorithm, RoundRobin,
};
pub use stage::ReshapeStage;
pub use vif::{VifIndex, VirtualInterface, VirtualInterfaceSet};
