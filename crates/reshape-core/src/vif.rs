//! Virtual MAC interfaces.
//!
//! Each virtual interface is "treated as a fully functional, regular network
//! interface" (§III-A) with its own MAC address; traffic reshaping dispatches
//! every packet to exactly one of them. The types here track the interfaces
//! configured on a station together with per-interface traffic statistics.

use std::fmt;
use wlan_sim::mac::MacAddress;

/// The index of a virtual interface, in `0..I`.
///
/// The paper numbers interfaces `1..=I`; we use zero-based indices internally
/// and keep the paper's numbering in display output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
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

/// One virtual MAC interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtualInterface {
    index: VifIndex,
    mac: MacAddress,
}

impl VirtualInterface {
    /// Creates a virtual interface with the given index and MAC address.
    pub fn new(index: VifIndex, mac: MacAddress) -> Self {
        VirtualInterface { index, mac }
    }

    /// The interface index.
    pub fn index(&self) -> VifIndex {
        self.index
    }

    /// The interface's virtual MAC address.
    pub fn mac(&self) -> MacAddress {
        self.mac
    }
}

/// The ordered set of virtual interfaces configured on a station.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VirtualInterfaceSet {
    interfaces: Vec<VirtualInterface>,
}

impl VirtualInterfaceSet {
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

    /// The MAC addresses of all interfaces, in index order.
    pub fn macs(&self) -> Vec<MacAddress> {
        self.interfaces.iter().map(|v| v.mac()).collect()
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
    fn set_construction_and_lookup() {
        let addrs = macs(3);
        let set = VirtualInterfaceSet::from_macs(&addrs);
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        assert_eq!(set.macs(), addrs);
        assert_eq!(set.interfaces()[1].mac(), addrs[1]);
        assert_eq!(set.interfaces()[2].index(), VifIndex::new(2));
    }

    #[test]
    fn empty_set() {
        let set = VirtualInterfaceSet::default();
        assert!(set.is_empty());
        assert_eq!(set.macs(), Vec::<MacAddress>::new());
    }
}
