//! Virtual MAC interfaces.
//!
//! Each virtual interface is "treated as a fully functional, regular network
//! interface" (§III-A) with its own MAC address; traffic reshaping dispatches
//! every packet to exactly one of them. The types here track the interfaces
//! configured on a station together with per-interface traffic statistics.

use serde::{Deserialize, Serialize};
use std::fmt;
use wlan_sim::mac::MacAddress;

/// The index of a virtual interface, in `0..I`.
///
/// The paper numbers interfaces `1..=I`; we use zero-based indices internally
/// and keep the paper's numbering in display output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VifIndex(usize);

impl VifIndex {
    /// Creates an index.
    pub const fn new(index: usize) -> Self {
        VifIndex(index)
    }

    /// The zero-based index.
    pub const fn index(self) -> usize {
        self.0
    }

    /// The one-based interface number used in the paper's tables.
    pub const fn paper_number(self) -> usize {
        self.0 + 1
    }
}

impl fmt::Display for VifIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "interface {}", self.paper_number())
    }
}

impl From<usize> for VifIndex {
    fn from(index: usize) -> Self {
        VifIndex(index)
    }
}

/// Running statistics for one virtual interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct VifStats {
    /// Number of packets dispatched to this interface.
    pub packets: u64,
    /// Number of bytes dispatched to this interface.
    pub bytes: u64,
}

impl VifStats {
    /// Records one packet of `size` bytes.
    pub fn record(&mut self, size: usize) {
        self.packets += 1;
        self.bytes += size as u64;
    }

    /// Mean packet size on this interface (0 when no packets).
    pub fn mean_packet_size(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.bytes as f64 / self.packets as f64
        }
    }
}

/// One virtual MAC interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VirtualInterface {
    index: VifIndex,
    mac: MacAddress,
    stats: VifStats,
}

impl VirtualInterface {
    /// Creates a virtual interface with the given index and MAC address.
    pub fn new(index: VifIndex, mac: MacAddress) -> Self {
        VirtualInterface {
            index,
            mac,
            stats: VifStats::default(),
        }
    }

    /// The interface index.
    pub fn index(&self) -> VifIndex {
        self.index
    }

    /// The interface's virtual MAC address.
    pub fn mac(&self) -> MacAddress {
        self.mac
    }

    /// The interface statistics.
    pub fn stats(&self) -> VifStats {
        self.stats
    }

    /// Records one dispatched packet.
    pub fn record(&mut self, size: usize) {
        self.stats.record(size);
    }
}

/// The ordered set of virtual interfaces configured on a station.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct VirtualInterfaceSet {
    interfaces: Vec<VirtualInterface>,
}

impl VirtualInterfaceSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a set from the MAC addresses assigned by the AP, in interface order.
    pub fn from_macs(macs: &[MacAddress]) -> Self {
        VirtualInterfaceSet {
            interfaces: macs
                .iter()
                .enumerate()
                .map(|(i, &mac)| VirtualInterface::new(VifIndex::new(i), mac))
                .collect(),
        }
    }

    /// Number of interfaces (the paper's `I`).
    pub fn len(&self) -> usize {
        self.interfaces.len()
    }

    /// Returns `true` when no interfaces are configured.
    pub fn is_empty(&self) -> bool {
        self.interfaces.is_empty()
    }

    /// The interfaces in index order.
    pub fn interfaces(&self) -> &[VirtualInterface] {
        &self.interfaces
    }

    /// Looks up an interface by index.
    pub fn get(&self, index: VifIndex) -> Option<&VirtualInterface> {
        self.interfaces.get(index.index())
    }

    /// Mutable lookup by index.
    pub fn get_mut(&mut self, index: VifIndex) -> Option<&mut VirtualInterface> {
        self.interfaces.get_mut(index.index())
    }

    /// The MAC addresses of all interfaces, in index order.
    pub fn macs(&self) -> Vec<MacAddress> {
        self.interfaces.iter().map(|v| v.mac()).collect()
    }

    /// Total packets recorded across all interfaces.
    pub fn total_packets(&self) -> u64 {
        self.interfaces.iter().map(|v| v.stats().packets).sum()
    }

    /// Total bytes recorded across all interfaces.
    pub fn total_bytes(&self) -> u64 {
        self.interfaces.iter().map(|v| v.stats().bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn macs(n: usize) -> Vec<MacAddress> {
        let mut rng = StdRng::seed_from_u64(1);
        (0..n)
            .map(|_| MacAddress::random_locally_administered(&mut rng))
            .collect()
    }

    #[test]
    fn index_numbering_matches_the_paper() {
        let idx = VifIndex::new(0);
        assert_eq!(idx.index(), 0);
        assert_eq!(idx.paper_number(), 1);
        assert_eq!(idx.to_string(), "interface 1");
        assert_eq!(VifIndex::from(2).paper_number(), 3);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = VifStats::default();
        assert_eq!(s.mean_packet_size(), 0.0);
        s.record(100);
        s.record(300);
        assert_eq!(s.packets, 2);
        assert_eq!(s.bytes, 400);
        assert!((s.mean_packet_size() - 200.0).abs() < 1e-12);
    }

    #[test]
    fn set_construction_and_lookup() {
        let addrs = macs(3);
        let mut set = VirtualInterfaceSet::from_macs(&addrs);
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        assert_eq!(set.macs(), addrs);
        assert_eq!(set.get(VifIndex::new(1)).unwrap().mac(), addrs[1]);
        assert!(set.get(VifIndex::new(3)).is_none());

        set.get_mut(VifIndex::new(0)).unwrap().record(1576);
        set.get_mut(VifIndex::new(0)).unwrap().record(100);
        set.get_mut(VifIndex::new(2)).unwrap().record(50);
        assert_eq!(set.total_packets(), 3);
        assert_eq!(set.total_bytes(), 1726);
        assert_eq!(set.get(VifIndex::new(1)).unwrap().stats().packets, 0);
    }

    #[test]
    fn empty_set() {
        let set = VirtualInterfaceSet::new();
        assert!(set.is_empty());
        assert_eq!(set.total_packets(), 0);
        assert_eq!(set.macs(), Vec::<MacAddress>::new());
    }
}
