//! The access point.
//!
//! Beyond standard association bookkeeping, the AP carries the pieces the
//! paper adds for traffic reshaping (§III-B):
//!
//! * a [`MacAddressPool`] from which virtual interface addresses are drawn,
//! * a per-station list of configured virtual addresses, and
//! * an *alias table* mapping every virtual address back to the owning
//!   station's physical address, used to translate source addresses of uplink
//!   frames (so ARP and the distribution system never see virtual addresses)
//!   and destination addresses of downlink frames (so the reshaping scheduler
//!   can pick any virtual interface).

use crate::association::AssociationRecord;
use crate::channel::Position;
use crate::error::{Error, Result};
use crate::frame::{Frame, FrameType, ManagementSubtype};
use crate::mac::{MacAddress, MacAddressPool};
use parking_lot::RwLock;
use rand::Rng;
use std::collections::HashMap;

/// Default AP transmit power in dBm.
pub const DEFAULT_AP_TX_POWER_DBM: f64 = 18.0;

/// An 802.11 access point with traffic-reshaping support.
#[derive(Debug)]
pub struct AccessPoint {
    bssid: MacAddress,
    position: Position,
    tx_power_dbm: f64,
    next_aid: u16,
    sequence: u16,
    associations: HashMap<MacAddress, AssociationRecord>,
    /// virtual address -> physical address of the owning station.
    alias_table: RwLock<HashMap<MacAddress, MacAddress>>,
    pool: MacAddressPool,
    frames_forwarded: u64,
}

impl AccessPoint {
    /// Creates an AP with the given BSSID at a position.
    pub fn new(bssid: MacAddress, position: Position) -> Self {
        let mut pool = MacAddressPool::new();
        // The AP's own address must never be handed out as a virtual address.
        pool.register(bssid)
            .expect("fresh pool cannot contain the bssid");
        AccessPoint {
            bssid,
            position,
            tx_power_dbm: DEFAULT_AP_TX_POWER_DBM,
            next_aid: 1,
            sequence: 0,
            associations: HashMap::new(),
            alias_table: RwLock::new(HashMap::new()),
            pool,
            frames_forwarded: 0,
        }
    }

    /// The AP's BSSID / MAC address.
    pub fn bssid(&self) -> MacAddress {
        self.bssid
    }

    /// The AP's position.
    pub fn position(&self) -> Position {
        self.position
    }

    /// The AP's transmit power in dBm.
    pub fn tx_power_dbm(&self) -> f64 {
        self.tx_power_dbm
    }

    /// Number of currently associated stations.
    pub fn station_count(&self) -> usize {
        self.associations.len()
    }

    /// Total number of data frames the AP has forwarded (either direction).
    pub fn frames_forwarded(&self) -> u64 {
        self.frames_forwarded
    }

    fn next_sequence(&mut self) -> u16 {
        let s = self.sequence;
        self.sequence = self.sequence.wrapping_add(1);
        s
    }

    /// Handles an association request and produces the association response.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AlreadyAssociated`] if the station is already in the
    /// association table.
    pub fn handle_association_request(&mut self, station: MacAddress) -> Result<(Frame, u16)> {
        if self.associations.contains_key(&station) {
            return Err(Error::AlreadyAssociated(station));
        }
        let aid = self.next_aid;
        self.next_aid += 1;
        self.associations
            .insert(station, AssociationRecord::new(station, aid));
        // Physical addresses are reserved in the pool so that a virtual
        // interface can never collide with an associated station.
        let _ = self.pool.register(station);
        let seq = self.next_sequence();
        let response = Frame::builder(
            FrameType::Management(ManagementSubtype::AssociationResponse),
            self.bssid,
            station,
        )
        .bssid(self.bssid)
        .sequence(seq)
        .payload(aid.to_be_bytes().to_vec())
        .build();
        Ok((response, aid))
    }

    /// Removes a station, releasing its virtual addresses back to the pool.
    pub fn disassociate(&mut self, station: MacAddress) -> Result<()> {
        let record = self
            .associations
            .remove(&station)
            .ok_or(Error::NotAssociated(station))?;
        let mut table = self.alias_table.write();
        for v in record.virtual_addrs {
            table.remove(&v);
            self.pool.release(v);
        }
        self.pool.release(station);
        Ok(())
    }

    /// The association record for a station, if associated.
    pub fn association(&self, station: MacAddress) -> Option<&AssociationRecord> {
        self.associations.get(&station)
    }

    /// Allocates `count` virtual MAC addresses for an associated station and
    /// installs them in the alias table. Any previously configured virtual
    /// addresses for the station are recycled first.
    ///
    /// This is the AP-side half of the configuration protocol (Fig. 2,
    /// steps 2–3); building and parsing the encrypted request/response
    /// messages lives in `reshape-core::config`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotAssociated`] if the station is unknown, or
    /// [`Error::AddressPoolExhausted`] if the pool cannot satisfy the request.
    pub fn allocate_virtual_addrs<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        station: MacAddress,
        count: usize,
    ) -> Result<Vec<MacAddress>> {
        if !self.associations.contains_key(&station) {
            return Err(Error::NotAssociated(station));
        }
        self.recycle_virtual_addrs(station)?;
        let addrs = self.pool.allocate_many(rng, count)?;
        let record = self
            .associations
            .get_mut(&station)
            .expect("checked above that the station is associated");
        record.virtual_addrs = addrs.clone();
        let mut table = self.alias_table.write();
        for &v in &addrs {
            table.insert(v, station);
        }
        Ok(addrs)
    }

    /// Releases every virtual address configured for `station` back to the pool.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotAssociated`] if the station is unknown.
    pub fn recycle_virtual_addrs(&mut self, station: MacAddress) -> Result<()> {
        let record = self
            .associations
            .get_mut(&station)
            .ok_or(Error::NotAssociated(station))?;
        let mut table = self.alias_table.write();
        for v in record.virtual_addrs.drain(..) {
            table.remove(&v);
            self.pool.release(v);
        }
        Ok(())
    }

    /// Resolves a (possibly virtual) address to the owning station's physical
    /// address. Physical addresses resolve to themselves.
    pub fn resolve_physical(&self, addr: MacAddress) -> Option<MacAddress> {
        if self.associations.contains_key(&addr) {
            return Some(addr);
        }
        self.alias_table.read().get(&addr).copied()
    }

    /// The virtual addresses configured for a station (empty slice when reshaping is off).
    pub fn virtual_addrs_of(&self, station: MacAddress) -> Vec<MacAddress> {
        self.associations
            .get(&station)
            .map(|r| r.virtual_addrs.clone())
            .unwrap_or_default()
    }

    /// Processes an uplink data frame received from the wireless side.
    ///
    /// The source address — which may be a virtual interface — is translated
    /// to the station's unique physical address before the frame is handed to
    /// the distribution system, so that ARP and remote servers never see
    /// virtual addresses (Fig. 3).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownDestination`] if the source address cannot be
    /// attributed to any associated station.
    pub fn translate_uplink(&mut self, frame: &Frame) -> Result<Frame> {
        let physical = self
            .resolve_physical(frame.header().src())
            .ok_or(Error::UnknownDestination(frame.header().src()))?;
        self.frames_forwarded += 1;
        Ok(frame.clone().with_src(physical))
    }

    /// Processes a downlink data frame arriving from the distribution system,
    /// destined for a station's physical address, and rewrites the destination
    /// to the virtual address selected by the caller (the reshaping scheduler).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotAssociated`] if the physical destination is not an
    /// associated station, or [`Error::UnknownDestination`] if the selected
    /// virtual address does not belong to that station.
    pub fn translate_downlink(
        &mut self,
        frame: &Frame,
        selected_virtual: MacAddress,
    ) -> Result<Frame> {
        let station = frame.header().dst();
        let record = self
            .associations
            .get(&station)
            .ok_or(Error::NotAssociated(station))?;
        if selected_virtual != station && !record.virtual_addrs.contains(&selected_virtual) {
            return Err(Error::UnknownDestination(selected_virtual));
        }
        self.frames_forwarded += 1;
        let seq = self.next_sequence();
        Ok(frame
            .clone()
            .with_src(self.bssid)
            .with_dst(selected_virtual)
            .with_sequence(seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ap() -> AccessPoint {
        AccessPoint::new(
            MacAddress::new([0x00, 0x1f, 0x3a, 0, 0, 0xaa]),
            Position::new(0.0, 0.0),
        )
    }

    fn sta(last: u8) -> MacAddress {
        MacAddress::new([0x00, 0x11, 0x22, 0, 0, last])
    }

    #[test]
    fn association_assigns_increasing_aids() {
        let mut ap = ap();
        let (_, aid1) = ap.handle_association_request(sta(1)).unwrap();
        let (_, aid2) = ap.handle_association_request(sta(2)).unwrap();
        assert_eq!(aid1, 1);
        assert_eq!(aid2, 2);
        assert_eq!(ap.station_count(), 2);
        assert!(ap.handle_association_request(sta(1)).is_err());
    }

    #[test]
    fn association_response_carries_aid() {
        let mut ap = ap();
        let (resp, aid) = ap.handle_association_request(sta(1)).unwrap();
        assert_eq!(
            resp.header().frame_type(),
            FrameType::Management(ManagementSubtype::AssociationResponse)
        );
        match resp.payload() {
            crate::frame::Payload::Clear(b) => {
                assert_eq!(u16::from_be_bytes([b[0], b[1]]), aid);
            }
            other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn virtual_address_allocation_and_resolution() {
        let mut ap = ap();
        let mut rng = StdRng::seed_from_u64(1);
        ap.handle_association_request(sta(1)).unwrap();
        let addrs = ap.allocate_virtual_addrs(&mut rng, sta(1), 3).unwrap();
        assert_eq!(addrs.len(), 3);
        assert_eq!(ap.virtual_addrs_of(sta(1)), addrs);
        for a in &addrs {
            assert_ne!(a.octets()[0] & 0x02, 0, "locally administered");
            assert_eq!(ap.resolve_physical(*a), Some(sta(1)));
        }
        assert_eq!(ap.resolve_physical(sta(1)), Some(sta(1)));
        assert_eq!(ap.resolve_physical(sta(99)), None);
    }

    #[test]
    fn allocation_requires_association() {
        let mut ap = ap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            ap.allocate_virtual_addrs(&mut rng, sta(9), 3),
            Err(Error::NotAssociated(_))
        ));
    }

    #[test]
    fn reallocation_recycles_old_addresses() {
        let mut ap = ap();
        let mut rng = StdRng::seed_from_u64(2);
        ap.handle_association_request(sta(1)).unwrap();
        let first = ap.allocate_virtual_addrs(&mut rng, sta(1), 3).unwrap();
        let second = ap.allocate_virtual_addrs(&mut rng, sta(1), 2).unwrap();
        assert_eq!(second.len(), 2);
        for a in &first {
            assert_eq!(
                ap.resolve_physical(*a),
                None,
                "old aliases must be recycled"
            );
        }
        for a in &second {
            assert_eq!(ap.resolve_physical(*a), Some(sta(1)));
        }
    }

    #[test]
    fn disassociation_releases_everything() {
        let mut ap = ap();
        let mut rng = StdRng::seed_from_u64(3);
        ap.handle_association_request(sta(1)).unwrap();
        let addrs = ap.allocate_virtual_addrs(&mut rng, sta(1), 3).unwrap();
        ap.disassociate(sta(1)).unwrap();
        assert_eq!(ap.station_count(), 0);
        for a in addrs {
            assert_eq!(ap.resolve_physical(a), None);
        }
        assert!(ap.disassociate(sta(1)).is_err());
    }

    #[test]
    fn uplink_translation_rewrites_virtual_source() {
        let mut ap = ap();
        let mut rng = StdRng::seed_from_u64(4);
        ap.handle_association_request(sta(1)).unwrap();
        let addrs = ap.allocate_virtual_addrs(&mut rng, sta(1), 3).unwrap();
        let uplink = Frame::data(addrs[1], ap.bssid(), vec![0u8; 700]);
        let translated = ap.translate_uplink(&uplink).unwrap();
        assert_eq!(translated.header().src(), sta(1));
        assert_eq!(translated.air_size(), uplink.air_size());
        // Frames from unknown sources are rejected.
        let rogue = Frame::data(sta(77), ap.bssid(), vec![0u8; 10]);
        assert!(ap.translate_uplink(&rogue).is_err());
    }

    #[test]
    fn downlink_translation_targets_selected_virtual_interface() {
        let mut ap = ap();
        let mut rng = StdRng::seed_from_u64(5);
        ap.handle_association_request(sta(1)).unwrap();
        let addrs = ap.allocate_virtual_addrs(&mut rng, sta(1), 3).unwrap();
        let downlink = Frame::data(
            MacAddress::new([0xde, 0xad, 0, 0, 0, 1]),
            sta(1),
            vec![0u8; 900],
        );
        let f = ap.translate_downlink(&downlink, addrs[2]).unwrap();
        assert_eq!(f.header().dst(), addrs[2]);
        assert_eq!(f.header().src(), ap.bssid());
        assert_eq!(f.air_size(), downlink.air_size());
        // Selecting a virtual address of another station is rejected.
        ap.handle_association_request(sta(2)).unwrap();
        let other = ap.allocate_virtual_addrs(&mut rng, sta(2), 1).unwrap();
        assert!(ap.translate_downlink(&downlink, other[0]).is_err());
        // Without reshaping the physical address itself is a valid target.
        let plain = ap.translate_downlink(&downlink, sta(1)).unwrap();
        assert_eq!(plain.header().dst(), sta(1));
        assert!(ap.frames_forwarded() >= 2);
    }
}
