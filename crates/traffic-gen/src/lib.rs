//! # traffic-gen
//!
//! Synthetic application traffic for the traffic-reshaping reproduction
//! (Zhang, He, Liu — ICDCS 2011).
//!
//! The paper's evaluation is driven by ~50 hours of real home-WLAN traces
//! covering seven applications: web browsing, chatting, online gaming,
//! downloading, uploading, online video and BitTorrent. Those traces are not
//! publicly available, so this crate provides parametric traffic models
//! calibrated to the statistics the paper publishes:
//!
//! * the packet-size PDFs of Figure 1 (bimodal mixtures concentrated around
//!   the ranges `[108, 232]` and `[1546, 1576]` bytes), and
//! * the per-application mean packet size and mean inter-arrival time of
//!   Table I (downlink, i.e. AP → user).
//!
//! The traffic-analysis classifier only consumes aggregate per-window
//! features, so traces that match these first- and second-order statistics
//! reproduce the same classification geometry as the real captures.
//!
//! Each application is one [`BidirectionalModel`](models::BidirectionalModel)
//! (two [`FlowSpec`](models::FlowSpec)s, looked up with
//! [`models::spec_for`]), and [`FlowStream`] is the one engine that turns a
//! flow spec into packets. [`SessionGenerator::generate_secs`] drains the two
//! flows with one sequential RNG into a batch [`Trace`]; training corpora are
//! built this way, and morphing calibration sessions consume the RNG the
//! same way but keep only a size histogram
//! ([`SessionGenerator::size_histogram_secs`]). [`StreamingSession`] merges the
//! flows lazily for live stations with one derived RNG stream per direction,
//! so it is distribution-identical but not packet-identical to the batch
//! session.
//!
//! # Example
//!
//! ```rust
//! use traffic_gen::app::AppKind;
//! use traffic_gen::generator::SessionGenerator;
//! use traffic_gen::packet::Direction;
//!
//! let trace = SessionGenerator::new(AppKind::Downloading, 1).generate_secs(5.0);
//! let downlink: Vec<_> = trace.packets_in(Direction::Downlink).collect();
//! assert!(!downlink.is_empty());
//! // Downloading is dominated by full-size frames.
//! let mean: f64 = downlink.iter().map(|p| p.size as f64).sum::<f64>() / downlink.len() as f64;
//! assert!(mean > 1400.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod app;
pub mod distribution;
pub mod generator;
pub mod models;
pub mod packet;
pub mod profile;
pub mod sampler;
pub mod spec;
pub mod stream;
pub mod trace;

pub use app::AppKind;
pub use generator::SessionGenerator;
pub use packet::{Direction, PacketRecord};
pub use spec::TrafficSpec;
pub use stream::{FlowStream, PacketSource, StreamingSession};
pub use trace::Trace;

/// Maximum on-air packet size observed in the paper's traces (`ℓ_max`).
pub const MAX_PACKET_SIZE: usize = 1576;

/// Minimum on-air packet size used by the generators (a bare MAC header plus
/// a minimal payload; the paper's smallest observed data packets are ~108 bytes).
pub const MIN_PACKET_SIZE: usize = 60;
