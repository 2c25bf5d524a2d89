//! MAC-address translation (the data path of Fig. 3).
//!
//! Traffic reshaping must stay invisible above the MAC layer: remote servers
//! and the ARP machinery only ever see the client's unique physical address,
//! while the air interface only ever shows virtual addresses. Both the client
//! and the AP therefore keep a translation table:
//!
//! * **uplink** — the client picks a virtual interface, stamps the frame with
//!   that virtual source address; the AP looks the address up and rewrites it
//!   back to the physical address before forwarding upstream (the simulated
//!   AP's `wlan_sim::ap::AccessPoint::translate_uplink`);
//! * **downlink** — the AP picks a virtual interface for the destination and
//!   rewrites the physical destination to that virtual address; the client
//!   accepts any of its virtual addresses and rewrites the destination back to
//!   the physical address before handing the packet to upper layers.

use crate::error::{Error, Result};
use crate::vif::{VifIndex, VirtualInterfaceSet};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use wlan_sim::frame::Frame;
use wlan_sim::mac::MacAddress;

/// A bidirectional mapping between one station's physical address and its
/// virtual interface addresses.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TranslationTable {
    /// virtual address -> physical address.
    to_physical: HashMap<MacAddress, MacAddress>,
    /// physical address -> virtual addresses in interface order.
    to_virtual: HashMap<MacAddress, Vec<MacAddress>>,
}

impl TranslationTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs (or replaces) the mapping for one station.
    pub fn install(&mut self, physical: MacAddress, vifs: &VirtualInterfaceSet) {
        self.remove(physical);
        let macs = vifs.macs();
        for &v in &macs {
            self.to_physical.insert(v, physical);
        }
        self.to_virtual.insert(physical, macs);
    }

    /// Removes the mapping for one station, returning `true` if it existed.
    pub fn remove(&mut self, physical: MacAddress) -> bool {
        match self.to_virtual.remove(&physical) {
            Some(virtuals) => {
                for v in virtuals {
                    self.to_physical.remove(&v);
                }
                true
            }
            None => false,
        }
    }

    /// Number of stations with installed mappings.
    pub fn station_count(&self) -> usize {
        self.to_virtual.len()
    }

    /// Resolves a virtual address to the owning physical address. Physical
    /// addresses known to the table resolve to themselves.
    pub fn physical_of(&self, addr: MacAddress) -> Option<MacAddress> {
        if self.to_virtual.contains_key(&addr) {
            return Some(addr);
        }
        self.to_physical.get(&addr).copied()
    }

    /// The virtual address of interface `vif` for a station.
    pub fn virtual_of(&self, physical: MacAddress, vif: VifIndex) -> Option<MacAddress> {
        self.to_virtual
            .get(&physical)
            .and_then(|v| v.get(vif.index()))
            .copied()
    }

    /// Rewrites a downlink frame's physical destination to the virtual address
    /// of the chosen interface (the AP-side scheduling of Fig. 3).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownAddress`] if the destination has no installed
    /// mapping or the interface index is out of range.
    pub fn translate_downlink(&self, frame: &Frame, vif: VifIndex) -> Result<Frame> {
        let dst = frame.header().dst();
        let virtual_addr = self
            .virtual_of(dst, vif)
            .ok_or(Error::UnknownAddress(dst))?;
        Ok(frame.clone().with_dst(virtual_addr))
    }

    /// Rewrites a received downlink frame's virtual destination back to the
    /// physical address (the client-side translation of Fig. 3).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownAddress`] if the destination is not a known
    /// virtual address.
    pub fn deliver_to_upper_layers(&self, frame: &Frame) -> Result<Frame> {
        let dst = frame.header().dst();
        let physical = self.physical_of(dst).ok_or(Error::UnknownAddress(dst))?;
        Ok(frame.clone().with_dst(physical))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn physical(last: u8) -> MacAddress {
        MacAddress::new([0x00, 0x11, 0x22, 0, 0, last])
    }

    fn vifs(seed: u64, n: usize) -> VirtualInterfaceSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let macs: Vec<MacAddress> = (0..n)
            .map(|_| MacAddress::random_locally_administered(&mut rng))
            .collect();
        VirtualInterfaceSet::from_macs(&macs)
    }

    #[test]
    fn install_resolve_remove() {
        let mut table = TranslationTable::new();
        let set = vifs(1, 3);
        table.install(physical(1), &set);
        assert_eq!(table.station_count(), 1);
        for (i, mac) in set.macs().iter().enumerate() {
            assert_eq!(table.physical_of(*mac), Some(physical(1)));
            assert_eq!(table.virtual_of(physical(1), VifIndex::new(i)), Some(*mac));
        }
        assert_eq!(table.physical_of(physical(1)), Some(physical(1)));
        assert_eq!(table.physical_of(physical(9)), None);
        assert_eq!(table.virtual_of(physical(1), VifIndex::new(3)), None);
        assert!(table.remove(physical(1)));
        assert!(!table.remove(physical(1)));
        assert_eq!(table.physical_of(set.macs()[0]), None);
    }

    #[test]
    fn reinstall_replaces_old_mapping() {
        let mut table = TranslationTable::new();
        let old = vifs(2, 3);
        let new = vifs(3, 2);
        table.install(physical(1), &old);
        table.install(physical(1), &new);
        assert_eq!(
            table.physical_of(old.macs()[0]),
            None,
            "stale aliases removed"
        );
        assert_eq!(table.physical_of(new.macs()[1]), Some(physical(1)));
        assert_eq!(
            table.virtual_of(physical(1), VifIndex::new(1)),
            Some(new.macs()[1])
        );
        assert_eq!(table.virtual_of(physical(1), VifIndex::new(2)), None);
    }

    #[test]
    fn downlink_translation_round_trip() {
        let mut table = TranslationTable::new();
        let set = vifs(4, 3);
        let ap = MacAddress::new([0x00, 0x1f, 0x3a, 0, 0, 0xaa]);
        table.install(physical(1), &set);

        // Downlink: AP rewrites the physical destination to virtual interface 2;
        // the client maps it back before handing the packet to upper layers.
        let downlink = Frame::data(ap, physical(1), vec![0u8; 1500]);
        let on_air = table
            .translate_downlink(&downlink, VifIndex::new(2))
            .unwrap();
        assert_eq!(on_air.header().dst(), set.macs()[2]);
        let delivered = table.deliver_to_upper_layers(&on_air).unwrap();
        assert_eq!(delivered.header().dst(), physical(1));
        assert_eq!(delivered.air_size(), downlink.air_size());
    }

    #[test]
    fn unknown_addresses_are_rejected() {
        let table = TranslationTable::new();
        let ap = MacAddress::new([0x00, 0x1f, 0x3a, 0, 0, 0xaa]);
        let down = Frame::data(ap, physical(7), vec![0u8; 100]);
        assert!(matches!(
            table.translate_downlink(&down, VifIndex::new(0)),
            Err(Error::UnknownAddress(_))
        ));
        assert!(table.deliver_to_upper_layers(&down).is_err());
    }

    #[test]
    fn out_of_range_interface_is_an_error() {
        let mut table = TranslationTable::new();
        let set = vifs(5, 2);
        let ap = MacAddress::new([0x00, 0x1f, 0x3a, 0, 0, 0xaa]);
        table.install(physical(1), &set);
        let down = Frame::data(ap, physical(1), vec![0u8; 100]);
        assert!(table.translate_downlink(&down, VifIndex::new(5)).is_err());
    }

    proptest! {
        #[test]
        fn translation_never_changes_frame_size(payload in 0usize..1500, vif in 0usize..3) {
            let mut table = TranslationTable::new();
            let set = vifs(6, 3);
            let ap = MacAddress::new([0x00, 0x1f, 0x3a, 0, 0, 0xaa]);
            table.install(physical(1), &set);
            let down = Frame::data(ap, physical(1), vec![0u8; payload]);
            let translated = table.translate_downlink(&down, VifIndex::new(vif)).unwrap();
            prop_assert_eq!(translated.air_size(), down.air_size());
            let delivered = table.deliver_to_upper_layers(&translated).unwrap();
            prop_assert_eq!(delivered.air_size(), down.air_size());
        }
    }
}
