//! Reshaping algorithms: the function `F(s_k) = i` that maps every packet to a
//! virtual interface in real time (§III-C).
//!
//! Four algorithms are provided, matching the paper's evaluation:
//!
//! * [`RandomAssign`] (RA) — uniformly random interface per packet.
//! * [`RoundRobin`] (RR) — interface `k mod I` for the `k`-th packet.
//! * [`OrthogonalRanges`] (OR) — the interface owning the packet's size range
//!   (the headline algorithm; Fig. 4).
//! * [`OrthogonalModulo`] — the OR variant `i = L(s_k) mod I` that hashes the
//!   exact packet size instead of a coarse range (Fig. 5).
//!
//! The frequency-hopping baseline is *not* a scheduler over interfaces — it
//! partitions traffic in time over channels — and lives in
//! `defenses::frequency_hopping`.

mod modulo;
mod orthogonal;
mod random;
mod round_robin;

pub use modulo::OrthogonalModulo;
pub use orthogonal::OrthogonalRanges;
pub use random::RandomAssign;
pub use round_robin::RoundRobin;

use crate::vif::VifIndex;
use traffic_gen::packet::PacketRecord;

/// A reshaping algorithm: an online function from packets to virtual interfaces.
///
/// Implementations may keep internal state (e.g. the round-robin counter or
/// the random number generator), which is why [`assign`](Self::assign) takes
/// `&mut self`.
pub trait ReshapeAlgorithm: std::fmt::Debug + Send {
    /// Chooses the virtual interface for the next packet.
    fn assign(&mut self, packet: &PacketRecord) -> VifIndex;

    /// The number of virtual interfaces this algorithm schedules over (the paper's `I`).
    fn interface_count(&self) -> usize;

    /// A short name used in experiment tables ("RA", "RR", "OR", …).
    fn name(&self) -> &'static str;

    /// Resets any per-flow state so the algorithm can be reused on a new trace.
    fn reset(&mut self) {}
}

#[cfg(test)]
pub(crate) mod test_support {
    use traffic_gen::app::AppKind;
    use traffic_gen::packet::{Direction, PacketRecord};
    use wlan_sim::time::SimTime;

    /// A simple packet of the given size at `index * 10 ms`.
    pub fn packet(index: usize, size: usize) -> PacketRecord {
        PacketRecord::new(
            SimTime::from_secs_f64(index as f64 * 0.01),
            size,
            Direction::Downlink,
            AppKind::BitTorrent,
        )
    }
}
