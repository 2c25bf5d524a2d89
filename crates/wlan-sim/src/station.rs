//! Client stations.
//!
//! A [`Station`] models one wireless client: a physical MAC address, a
//! position, a transmit power, an association state and — once the reshaping
//! configuration protocol has run — a set of virtual MAC addresses it accepts
//! frames for. The station's MAC layer filters received frames exactly the way
//! the paper describes (§III-B2): any frame whose destination is one of the
//! station's virtual addresses is accepted and translated back to the physical
//! address before being handed to upper layers.

use crate::association::AssociationState;
use crate::channel::Position;
use crate::frame::{Frame, FrameType, ManagementSubtype};
use crate::mac::MacAddress;
use std::collections::HashSet;

/// Default transmit power in dBm for client stations.
pub const DEFAULT_TX_POWER_DBM: f64 = 15.0;

/// A wireless client station.
#[derive(Debug, Clone)]
pub struct Station {
    physical_addr: MacAddress,
    position: Position,
    tx_power_dbm: f64,
    association: AssociationState,
    virtual_addrs: Vec<MacAddress>,
    accept_set: HashSet<MacAddress>,
    sequence: u16,
}

impl Station {
    /// Creates a station with the given physical MAC address at a position.
    pub fn new(physical_addr: MacAddress, position: Position) -> Self {
        let mut accept_set = HashSet::new();
        accept_set.insert(physical_addr);
        Station {
            physical_addr,
            position,
            tx_power_dbm: DEFAULT_TX_POWER_DBM,
            association: AssociationState::Unassociated,
            virtual_addrs: Vec::new(),
            accept_set,
            sequence: 0,
        }
    }

    /// The station's burned-in physical MAC address.
    pub fn physical_addr(&self) -> MacAddress {
        self.physical_addr
    }

    /// The station's position in the simulation plane.
    pub fn position(&self) -> Position {
        self.position
    }

    /// Current transmit power in dBm.
    pub fn tx_power_dbm(&self) -> f64 {
        self.tx_power_dbm
    }

    /// The association state.
    pub fn association(&self) -> AssociationState {
        self.association
    }

    /// Builds an association request frame addressed to `ap` and moves the
    /// station into the pending state.
    pub fn start_association(&mut self, ap: MacAddress) -> Frame {
        self.association = AssociationState::Pending;
        Frame::builder(
            FrameType::Management(ManagementSubtype::AssociationRequest),
            self.physical_addr,
            ap,
        )
        .bssid(ap)
        .sequence(self.next_sequence())
        .build()
    }

    /// Completes association with the AID assigned by the AP.
    pub fn complete_association(&mut self, aid: u16) {
        self.association = AssociationState::Associated { aid };
    }

    /// Installs the virtual MAC addresses received from the AP's configuration
    /// response, replacing any previous set.
    pub fn configure_virtual_addrs(&mut self, addrs: &[MacAddress]) {
        self.clear_virtual_addrs();
        for &a in addrs {
            self.virtual_addrs.push(a);
            self.accept_set.insert(a);
        }
    }

    /// Removes all virtual interfaces (recycling, §V-B).
    pub fn clear_virtual_addrs(&mut self) {
        for a in self.virtual_addrs.drain(..) {
            self.accept_set.remove(&a);
        }
    }

    /// Returns `true` if `addr` is the physical address or a configured virtual address.
    pub fn accepts(&self, addr: MacAddress) -> bool {
        addr.is_broadcast() || self.accept_set.contains(&addr)
    }

    /// The next MAC sequence number.
    pub fn next_sequence(&mut self) -> u16 {
        let s = self.sequence;
        self.sequence = self.sequence.wrapping_add(1);
        s
    }

    /// Builds an uplink data frame with the given source address (either the
    /// physical address or one of the virtual addresses chosen by the
    /// reshaping scheduler) and payload size.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `src` is not an address owned by this station.
    pub fn build_uplink_frame(
        &mut self,
        src: MacAddress,
        ap: MacAddress,
        payload: Vec<u8>,
    ) -> Frame {
        debug_assert!(
            self.accepts(src),
            "station {} asked to transmit with foreign source {src}",
            self.physical_addr
        );
        Frame::builder(FrameType::Data, src, ap)
            .bssid(ap)
            .sequence(self.next_sequence())
            .payload(payload)
            .build()
    }

    /// Processes a received frame.
    ///
    /// Frames not addressed to this station (any of its identities) are
    /// filtered out and `None` is returned. Accepted frames have their
    /// destination translated back to the physical address so upper layers see
    /// a single interface, exactly as in Fig. 3 of the paper.
    pub fn receive(&mut self, frame: &Frame) -> Option<Frame> {
        if !self.accepts(frame.header().dst()) {
            return None;
        }
        Some(frame.clone().with_dst(self.physical_addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(last: u8) -> MacAddress {
        MacAddress::new([0x02, 0, 0, 0, 0, last])
    }

    fn ap() -> MacAddress {
        MacAddress::new([0x00, 0x1f, 0x3a, 0, 0, 0xaa])
    }

    #[test]
    fn association_flow() {
        let mut sta = Station::new(addr(1), Position::new(3.0, 4.0));
        assert_eq!(sta.position(), Position::new(3.0, 4.0));
        assert_eq!(sta.tx_power_dbm(), DEFAULT_TX_POWER_DBM);
        assert!(!sta.association().is_associated());
        let req = sta.start_association(ap());
        assert_eq!(
            req.header().frame_type(),
            FrameType::Management(ManagementSubtype::AssociationRequest)
        );
        assert_eq!(req.header().bssid(), ap());
        assert_eq!(sta.association(), AssociationState::Pending);
        sta.complete_association(5);
        assert_eq!(sta.association(), AssociationState::Associated { aid: 5 });
    }

    #[test]
    fn virtual_addresses_extend_the_accept_set() {
        let mut sta = Station::new(addr(1), Position::default());
        assert!(sta.accepts(addr(1)));
        assert!(!sta.accepts(addr(10)));
        sta.configure_virtual_addrs(&[addr(10), addr(11), addr(12)]);
        for a in [addr(10), addr(11), addr(12)] {
            assert!(sta.accepts(a));
        }
        // Reconfiguration replaces the old set.
        sta.configure_virtual_addrs(&[addr(20)]);
        assert!(!sta.accepts(addr(10)));
        assert!(sta.accepts(addr(20)));
        sta.clear_virtual_addrs();
        assert!(!sta.accepts(addr(20)));
        assert!(sta.accepts(addr(1)), "physical address always accepted");
    }

    #[test]
    fn receive_translates_virtual_destination_to_physical() {
        let mut sta = Station::new(addr(1), Position::default());
        sta.configure_virtual_addrs(&[addr(10), addr(11)]);
        let downlink = Frame::data(ap(), addr(11), vec![0u8; 500]);
        let delivered = sta.receive(&downlink).expect("frame for our virtual mac");
        assert_eq!(
            delivered.header().dst(),
            addr(1),
            "upper layers see the physical mac"
        );
        assert_eq!(delivered.air_size(), downlink.air_size());
    }

    #[test]
    fn receive_filters_foreign_frames_and_accepts_broadcast() {
        let mut sta = Station::new(addr(1), Position::default());
        let foreign = Frame::data(ap(), addr(99), vec![0u8; 100]);
        assert!(sta.receive(&foreign).is_none());
        let bcast = Frame::data(ap(), MacAddress::BROADCAST, vec![0u8; 100]);
        assert!(sta.receive(&bcast).is_some());
    }

    #[test]
    fn uplink_frames_carry_chosen_source_and_increment_counters() {
        let mut sta = Station::new(addr(1), Position::default());
        sta.configure_virtual_addrs(&[addr(10)]);
        let f1 = sta.build_uplink_frame(addr(10), ap(), vec![0u8; 200]);
        let f2 = sta.build_uplink_frame(addr(1), ap(), vec![0u8; 300]);
        assert_eq!(f1.header().src(), addr(10));
        assert_eq!(f2.header().src(), addr(1));
        assert_ne!(f1.header().sequence, f2.header().sequence);
    }
}
