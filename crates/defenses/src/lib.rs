//! # defenses
//!
//! Baseline defenses against traffic analysis, reimplemented so the
//! traffic-reshaping reproduction can compare against them exactly as the
//! paper does (§II-B, §IV-D):
//!
//! * [`padding`] — pad every packet to a fixed size (the paper pads to the
//!   maximum observed size, 1576 bytes).
//! * [`morphing`] — traffic morphing à la Wright et al. (NDSS'09): rewrite the
//!   packet-size distribution of one application to look like another's,
//!   without ever shrinking a packet below its original payload.
//! * [`pseudonym`] — periodically rotate the client's MAC address
//!   (Gruteser/Grunwald, Jiang et al.); partitions traffic at a coarse
//!   granularity without changing per-partition features.
//! * [`frequency_hopping`] — hop between channels 1/6/11 with a fixed dwell
//!   (the VirtualWiFi-based baseline of §IV); an eavesdropper camped on one
//!   channel sees only that channel's partition.
//! * [`stage`] — the composable streaming pipeline every defense plugs into:
//!   the per-packet [`PacketStage`] trait and the [`StagePipeline`] that
//!   chains stages (defense∘defense, defense∘reshaping, …).
//! * [`overhead`] — the byte/packet-overhead ledger shared by every stage.
//!
//! Every defense is implemented as a streaming [`PacketStage`] (packet in,
//! zero or more packets out) so it runs on unbounded sessions and composes
//! with the reshaping engine; the batch entry points (`apply` / `partition`)
//! are thin wrappers that drive a stage over a materialised
//! [`traffic_gen::Trace`], property-tested byte-identical per seed in
//! `tests/stage_equivalence.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod frequency_hopping;
pub mod morphing;
pub mod overhead;
pub mod padding;
pub mod pseudonym;
pub mod spec;
pub mod stage;

pub use frequency_hopping::{FrequencyHopper, FrequencyHoppingStage};
pub use morphing::{MorphingStage, TrafficMorpher};
pub use overhead::Overhead;
pub use padding::{PacketPadder, PaddingStage};
pub use pseudonym::{PseudonymRotator, PseudonymStage};
pub use spec::{DefenseStageSpec, MorphCalibrations, StageContext, LIVE_CALIBRATION_SEED};
pub use stage::{FlowId, FlowMap, PacketStage, StagePipeline, ROOT_FLOW};
