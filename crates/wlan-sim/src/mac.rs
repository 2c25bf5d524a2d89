//! MAC addresses and the AP-side address pool.
//!
//! The configuration protocol of the paper (§III-B1) has the access point hand
//! out *unused* MAC addresses from a local pool to become the client's virtual
//! interface addresses. Because a MAC address has 48 bits, randomly chosen
//! addresses collide with negligible probability in a small WLAN (the paper
//! quotes the birthday-paradox bound); the pool still rejects a duplicate.

use crate::error::{Error, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;
use std::str::FromStr;

/// A 48-bit IEEE 802 MAC address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MacAddress([u8; 6]);

impl MacAddress {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddress = MacAddress([0xff; 6]);

    /// The all-zero address, used as a placeholder before assignment.
    pub const NULL: MacAddress = MacAddress([0; 6]);

    /// Creates an address from its six octets.
    pub const fn new(octets: [u8; 6]) -> Self {
        MacAddress(octets)
    }

    /// Returns the six octets of the address.
    pub const fn octets(self) -> [u8; 6] {
        self.0
    }

    /// Returns `true` if this is the broadcast address.
    pub fn is_broadcast(self) -> bool {
        self == Self::BROADCAST
    }

    /// Returns `true` for group (multicast/broadcast) addresses, i.e. the
    /// least-significant bit of the first octet is set.
    pub fn is_multicast(self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// Generates a random unicast, locally-administered address.
    ///
    /// Virtual interface addresses handed out by the AP are always
    /// locally administered so they can never clash with burned-in addresses.
    pub fn random_locally_administered<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut octets = [0u8; 6];
        rng.fill(&mut octets);
        octets[0] |= 0x02; // locally administered
        octets[0] &= !0x01; // unicast
        MacAddress(octets)
    }
}

impl fmt::Display for MacAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

impl fmt::Debug for MacAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MacAddress({self})")
    }
}

impl FromStr for MacAddress {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self> {
        let parts: Vec<&str> = s.split([':', '-']).collect();
        if parts.len() != 6 {
            return Err(Error::ParseMacAddress(s.to_string()));
        }
        let mut octets = [0u8; 6];
        for (i, p) in parts.iter().enumerate() {
            octets[i] =
                u8::from_str_radix(p, 16).map_err(|_| Error::ParseMacAddress(s.to_string()))?;
        }
        Ok(MacAddress(octets))
    }
}

impl serde::MapKey for MacAddress {
    fn to_key(&self) -> String {
        self.to_string()
    }

    fn from_key(s: &str) -> std::result::Result<Self, serde::Error> {
        s.parse()
            .map_err(|_| serde::Error::custom(format!("invalid MAC address map key {s:?}")))
    }
}

impl From<[u8; 6]> for MacAddress {
    fn from(octets: [u8; 6]) -> Self {
        MacAddress(octets)
    }
}

impl From<MacAddress> for [u8; 6] {
    fn from(addr: MacAddress) -> Self {
        addr.0
    }
}

/// The AP-local pool of MAC addresses used for virtual interfaces (§III-B1).
///
/// The pool tracks every address it has handed out (plus any externally
/// registered address such as the physical addresses of associated stations)
/// and guarantees it never hands out a duplicate.
#[derive(Debug, Clone, Default)]
pub struct MacAddressPool {
    in_use: HashSet<MacAddress>,
}

impl MacAddressPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        MacAddressPool::default()
    }

    /// Registers an externally chosen address (e.g. a station's physical MAC)
    /// so that the pool never allocates it for a virtual interface.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AddressInUse`] if the address is already registered.
    pub fn register(&mut self, addr: MacAddress) -> Result<()> {
        if !self.in_use.insert(addr) {
            return Err(Error::AddressInUse(addr));
        }
        Ok(())
    }

    /// Returns `true` when the address is currently reserved or allocated.
    pub fn contains(&self, addr: MacAddress) -> bool {
        self.in_use.contains(&addr)
    }

    /// Number of addresses currently reserved or allocated.
    pub fn len(&self) -> usize {
        self.in_use.len()
    }

    /// Returns `true` if no addresses are reserved.
    pub fn is_empty(&self) -> bool {
        self.in_use.is_empty()
    }

    /// Allocates one unused, locally-administered unicast address.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AddressPoolExhausted`] if no unused address could be
    /// found after a bounded number of random draws (practically impossible
    /// unless the pool already contains billions of addresses).
    pub fn allocate<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Result<MacAddress> {
        // 2^46 usable locally-administered unicast addresses; 4096 draws is
        // astronomically more than enough for any simulated WLAN.
        for _ in 0..4096 {
            let candidate = MacAddress::random_locally_administered(rng);
            if !self.in_use.contains(&candidate) {
                self.in_use.insert(candidate);
                return Ok(candidate);
            }
        }
        Err(Error::AddressPoolExhausted)
    }

    /// Allocates `count` distinct unused addresses.
    ///
    /// # Errors
    ///
    /// Propagates [`Error::AddressPoolExhausted`] from [`allocate`](Self::allocate);
    /// on error no addresses are leaked (all partially allocated addresses are
    /// released again).
    pub fn allocate_many<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        count: usize,
    ) -> Result<Vec<MacAddress>> {
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            match self.allocate(rng) {
                Ok(a) => out.push(a),
                Err(e) => {
                    for a in out {
                        self.release(a);
                    }
                    return Err(e);
                }
            }
        }
        Ok(out)
    }

    /// Returns an address to the pool (recycling, §III-B1 step 4 / §V-B).
    ///
    /// Returns `true` if the address was actually reserved.
    pub fn release(&mut self, addr: MacAddress) -> bool {
        self.in_use.remove(&addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn display_and_parse_round_trip() {
        let a = MacAddress::new([0x02, 0xab, 0x00, 0x10, 0xff, 0x7f]);
        let s = a.to_string();
        assert_eq!(s, "02:ab:00:10:ff:7f");
        let parsed: MacAddress = s.parse().unwrap();
        assert_eq!(parsed, a);
        let dashed: MacAddress = "02-ab-00-10-ff-7f".parse().unwrap();
        assert_eq!(dashed, a);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!("02:ab:00".parse::<MacAddress>().is_err());
        assert!("gg:ab:00:10:ff:7f".parse::<MacAddress>().is_err());
        assert!("".parse::<MacAddress>().is_err());
        assert!("02:ab:00:10:ff:7f:00".parse::<MacAddress>().is_err());
    }

    #[test]
    fn address_bits() {
        assert!(MacAddress::BROADCAST.is_broadcast());
        assert!(MacAddress::BROADCAST.is_multicast());
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let la = MacAddress::random_locally_administered(&mut rng);
            assert_ne!(la.octets()[0] & 0x02, 0, "locally administered");
            assert!(!la.is_multicast());
        }
    }

    #[test]
    fn pool_allocates_distinct_locally_administered_addresses() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut pool = MacAddressPool::new();
        let addrs = pool.allocate_many(&mut rng, 64).unwrap();
        let unique: HashSet<_> = addrs.iter().copied().collect();
        assert_eq!(unique.len(), 64);
        assert_eq!(pool.len(), 64);
        for a in &addrs {
            assert_ne!(a.octets()[0] & 0x02, 0, "locally administered");
            assert!(pool.contains(*a));
        }
    }

    #[test]
    fn pool_register_and_release() {
        let mut pool = MacAddressPool::new();
        let phys = MacAddress::new([0x00, 0x11, 0x22, 0x33, 0x44, 0x55]);
        pool.register(phys).unwrap();
        assert!(pool.register(phys).is_err());
        assert!(pool.contains(phys));
        assert!(pool.release(phys));
        assert!(!pool.release(phys));
        assert!(pool.is_empty());
    }
}
