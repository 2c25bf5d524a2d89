//! Association state machine shared by stations and the access point.

use crate::mac::MacAddress;
use std::fmt;

/// The association state of a station with respect to an AP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AssociationState {
    /// Not associated with any AP.
    #[default]
    Unassociated,
    /// Association request sent, waiting for the response.
    Pending,
    /// Associated; the AP has assigned an association ID.
    Associated {
        /// The association ID assigned by the AP.
        aid: u16,
    },
}

impl AssociationState {
    /// Returns `true` if the station is fully associated.
    pub fn is_associated(&self) -> bool {
        matches!(self, AssociationState::Associated { .. })
    }
}

impl fmt::Display for AssociationState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssociationState::Unassociated => write!(f, "unassociated"),
            AssociationState::Pending => write!(f, "pending"),
            AssociationState::Associated { aid } => write!(f, "associated (aid {aid})"),
        }
    }
}

/// A record the AP keeps for every associated station.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssociationRecord {
    /// The station's unique physical MAC address.
    pub physical_addr: MacAddress,
    /// The association ID assigned to the station.
    pub aid: u16,
    /// Virtual MAC addresses currently configured for the station
    /// (empty when traffic reshaping is not in use).
    pub virtual_addrs: Vec<MacAddress>,
}

impl AssociationRecord {
    /// Creates a record with no virtual interfaces yet.
    pub fn new(physical_addr: MacAddress, aid: u16) -> Self {
        AssociationRecord {
            physical_addr,
            aid,
            virtual_addrs: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_state_is_unassociated() {
        let s = AssociationState::default();
        assert_eq!(s, AssociationState::Unassociated);
        assert!(!s.is_associated());
        assert_eq!(s.to_string(), "unassociated");
    }

    #[test]
    fn associated_state_reports_aid() {
        let s = AssociationState::Associated { aid: 3 };
        assert!(s.is_associated());
        assert_eq!(s.to_string(), "associated (aid 3)");
        assert_eq!(AssociationState::Pending.to_string(), "pending");
    }
}
