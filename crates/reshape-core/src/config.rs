//! The configuration protocol (Fig. 2).
//!
//! Before reshaping can start, the client and the AP run a four-step,
//! encrypted exchange:
//!
//! 1. the client sends a request carrying its unique physical address and a
//!    fresh nonce;
//! 2. the AP decides how many virtual interfaces to create (privacy
//!    requirement vs. resource availability);
//! 3. the AP draws that many unused addresses from its local MAC address pool;
//! 4. the AP replies with the nonce and the assigned virtual MAC addresses.
//!
//! Both messages travel inside encrypted data frames, so an eavesdropper never
//! learns the mapping between the physical and the virtual addresses. The
//! client verifies the echoed nonce before configuring its interfaces.

use crate::error::{Error, Result};
use crate::vif::VirtualInterfaceSet;
use rand::Rng;
use serde::{Deserialize, Serialize};
use wlan_sim::ap::AccessPoint;
use wlan_sim::crypto::{open, seal, LinkKey, SealedPayload};
use wlan_sim::frame::Frame;
use wlan_sim::mac::MacAddress;

/// Step 1: the client's request for virtual interfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfigRequest {
    /// The client's unique physical MAC address (`uni_addr` in Fig. 2).
    pub uni_addr: MacAddress,
    /// A fresh nonce binding the response to this request.
    pub nonce: u64,
    /// The number of virtual interfaces the client would like (the AP may
    /// grant fewer depending on resource availability).
    pub requested_interfaces: usize,
}

/// Step 4: the AP's response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfigResponse {
    /// The client's physical address, echoed back.
    pub uni_addr: MacAddress,
    /// The nonce from the request, echoed back.
    pub nonce: u64,
    /// The assigned virtual MAC addresses, in interface order.
    pub virtual_addrs: Vec<MacAddress>,
}

/// Client-side state for one configuration exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigClient {
    physical: MacAddress,
    key: LinkKey,
    pending_nonce: Option<u64>,
    counter: u64,
}

impl ConfigClient {
    /// Creates a client for a station holding the link key shared with the AP.
    pub fn new(physical: MacAddress, key: LinkKey) -> Self {
        ConfigClient {
            physical,
            key,
            pending_nonce: None,
            counter: 0,
        }
    }

    /// Builds the encrypted request frame (step 1).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInterfaceCount`] when `interfaces` is zero.
    pub fn build_request<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        ap: MacAddress,
        interfaces: usize,
    ) -> Result<(Frame, ConfigRequest)> {
        if interfaces == 0 {
            return Err(Error::InvalidInterfaceCount(0));
        }
        let request = ConfigRequest {
            uni_addr: self.physical,
            nonce: rng.gen(),
            requested_interfaces: interfaces,
        };
        self.pending_nonce = Some(request.nonce);
        self.counter += 1;
        let body = serde_json::to_vec(&request).expect("configuration request serializes to json");
        let sealed = seal(&self.key, self.counter, &body);
        let frame = Frame::protected_data(self.physical, ap, sealed);
        Ok((frame, request))
    }

    /// Parses and verifies the AP's encrypted response (step 4), returning the
    /// configured virtual interface set.
    ///
    /// # Errors
    ///
    /// * [`Error::MalformedConfigMessage`] if decryption or parsing fails, no
    ///   request is pending, or the echoed address is not ours;
    /// * [`Error::NonceMismatch`] if the response does not echo our nonce.
    pub fn accept_response(&mut self, sealed: &SealedPayload) -> Result<VirtualInterfaceSet> {
        let body = open(&self.key, sealed)
            .map_err(|e| Error::MalformedConfigMessage(format!("decryption failed: {e}")))?;
        let response: ConfigResponse = serde_json::from_slice(&body)
            .map_err(|e| Error::MalformedConfigMessage(e.to_string()))?;
        let expected = self.pending_nonce.ok_or_else(|| {
            Error::MalformedConfigMessage("no configuration request pending".into())
        })?;
        if response.nonce != expected {
            return Err(Error::NonceMismatch {
                expected,
                found: response.nonce,
            });
        }
        if response.uni_addr != self.physical {
            return Err(Error::MalformedConfigMessage(format!(
                "response addressed to {} instead of {}",
                response.uni_addr, self.physical
            )));
        }
        self.pending_nonce = None;
        Ok(VirtualInterfaceSet::from_macs(&response.virtual_addrs))
    }
}

/// Policy the AP uses to pick the number of interfaces it grants (step 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApConfigPolicy {
    /// The maximum number of virtual interfaces the AP grants per client.
    pub max_interfaces_per_client: usize,
    /// The default grant when a client asks for zero or an unreasonable number.
    pub default_interfaces: usize,
}

impl Default for ApConfigPolicy {
    fn default() -> Self {
        // §IV-C / §V-B: three interfaces are enough for OR to work well.
        ApConfigPolicy {
            max_interfaces_per_client: 8,
            default_interfaces: 3,
        }
    }
}

impl ApConfigPolicy {
    /// The number of interfaces the AP will actually grant for a request.
    pub fn grant(&self, requested: usize) -> usize {
        if requested == 0 {
            self.default_interfaces
        } else {
            requested.min(self.max_interfaces_per_client)
        }
    }
}

/// AP-side handler for one configuration request (steps 2–4).
///
/// The AP must already have the requesting station in its association table.
/// On success the virtual addresses are installed in the AP's alias table and
/// the encrypted response payload is returned (ready to be placed in a frame
/// addressed to the client).
///
/// # Errors
///
/// * [`Error::MalformedConfigMessage`] if decryption or parsing fails;
/// * [`Error::Wlan`] if the station is not associated or the address pool is
///   exhausted.
pub fn ap_handle_request<R: Rng + ?Sized>(
    ap: &mut AccessPoint,
    policy: &ApConfigPolicy,
    key: &LinkKey,
    rng: &mut R,
    sealed_request: &SealedPayload,
) -> Result<(SealedPayload, ConfigResponse)> {
    let body = open(key, sealed_request)
        .map_err(|e| Error::MalformedConfigMessage(format!("decryption failed: {e}")))?;
    let request: ConfigRequest =
        serde_json::from_slice(&body).map_err(|e| Error::MalformedConfigMessage(e.to_string()))?;
    let count = policy.grant(request.requested_interfaces);
    let addrs = ap.allocate_virtual_addrs(rng, request.uni_addr, count)?;
    let response = ConfigResponse {
        uni_addr: request.uni_addr,
        nonce: request.nonce,
        virtual_addrs: addrs,
    };
    let response_body =
        serde_json::to_vec(&response).expect("configuration response serializes to json");
    let sealed = seal(key, request.nonce ^ 0x5a5a_5a5a, &response_body);
    Ok((sealed, response))
}

/// Runs the complete four-step exchange between a client and an AP in one call
/// (a convenience wrapper used by the examples and experiments).
///
/// # Errors
///
/// Propagates any error from the client or AP side of the exchange.
pub fn run_configuration<R: Rng + ?Sized>(
    client: &mut ConfigClient,
    ap: &mut AccessPoint,
    policy: &ApConfigPolicy,
    key: &LinkKey,
    rng: &mut R,
    requested_interfaces: usize,
) -> Result<VirtualInterfaceSet> {
    let (request_frame, _request) = client.build_request(rng, ap.bssid(), requested_interfaces)?;
    let sealed_request = match request_frame.payload() {
        wlan_sim::frame::Payload::Sealed(s) => s.clone(),
        other => {
            return Err(Error::MalformedConfigMessage(format!(
                "request payload must be sealed, got {other:?}"
            )))
        }
    };
    let (sealed_response, _response) = ap_handle_request(ap, policy, key, rng, &sealed_request)?;
    client.accept_response(&sealed_response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wlan_sim::channel::Position;

    fn setup() -> (AccessPoint, ConfigClient, LinkKey, StdRng) {
        let bssid = MacAddress::new([0x00, 0x1f, 0x3a, 0, 0, 0xaa]);
        let station = MacAddress::new([0x00, 0x11, 0x22, 0, 0, 0x01]);
        let mut ap = AccessPoint::new(bssid, Position::new(0.0, 0.0));
        ap.handle_association_request(station).unwrap();
        let key = LinkKey::from_seed(77);
        let client = ConfigClient::new(station, key);
        (ap, client, key, StdRng::seed_from_u64(42))
    }

    #[test]
    fn full_exchange_configures_the_client() {
        let (mut ap, mut client, key, mut rng) = setup();
        let vifs = run_configuration(
            &mut client,
            &mut ap,
            &ApConfigPolicy::default(),
            &key,
            &mut rng,
            3,
        )
        .unwrap();
        assert_eq!(vifs.len(), 3);
        // The AP's alias table resolves every virtual address to the station.
        for mac in vifs.macs() {
            assert_ne!(mac.octets()[0] & 0x02, 0, "locally administered");
            assert_eq!(
                ap.resolve_physical(mac),
                Some(MacAddress::new([0x00, 0x11, 0x22, 0, 0, 0x01]))
            );
        }
    }

    #[test]
    fn request_is_encrypted_on_the_air() {
        let (_ap, mut client, _key, mut rng) = setup();
        let bssid = MacAddress::new([0x00, 0x1f, 0x3a, 0, 0, 0xaa]);
        let (frame, request) = client.build_request(&mut rng, bssid, 3).unwrap();
        assert!(frame.header().is_protected());
        // The ciphertext must not contain the plaintext physical address bytes.
        match frame.payload() {
            wlan_sim::frame::Payload::Sealed(sealed) => {
                let plaintext = serde_json::to_vec(&request).unwrap();
                assert_ne!(sealed.ciphertext(), &plaintext[..]);
            }
            other => panic!("expected sealed payload, got {other:?}"),
        }
    }

    #[test]
    fn nonce_mismatch_is_rejected() {
        let (mut ap, mut client, key, mut rng) = setup();
        let (frame, _) = client.build_request(&mut rng, ap.bssid(), 3).unwrap();
        let sealed_request = match frame.payload() {
            wlan_sim::frame::Payload::Sealed(s) => s.clone(),
            _ => unreachable!(),
        };
        let (_, mut response) = ap_handle_request(
            &mut ap,
            &ApConfigPolicy::default(),
            &key,
            &mut rng,
            &sealed_request,
        )
        .unwrap();
        // Tamper with the nonce and re-seal: the client must refuse it.
        response.nonce ^= 1;
        let forged = seal(&key, 999, &serde_json::to_vec(&response).unwrap());
        assert!(matches!(
            client.accept_response(&forged),
            Err(Error::NonceMismatch { .. })
        ));
    }

    #[test]
    fn wrong_key_and_garbage_are_rejected() {
        let (mut ap, mut client, key, mut rng) = setup();
        let wrong_key = LinkKey::from_seed(1234);
        let (frame, _) = client.build_request(&mut rng, ap.bssid(), 2).unwrap();
        let sealed_request = match frame.payload() {
            wlan_sim::frame::Payload::Sealed(s) => s.clone(),
            _ => unreachable!(),
        };
        // AP with the wrong key cannot even read the request.
        assert!(ap_handle_request(
            &mut ap,
            &ApConfigPolicy::default(),
            &wrong_key,
            &mut rng,
            &sealed_request
        )
        .is_err());
        // A response sealed under the wrong key is rejected by the client.
        let garbage = seal(&wrong_key, 1, b"{\"not\":\"a response\"}");
        assert!(client.accept_response(&garbage).is_err());
        // A well-encrypted but malformed body is also rejected.
        let malformed = seal(&key, 5, b"not json at all");
        assert!(matches!(
            client.accept_response(&malformed),
            Err(Error::MalformedConfigMessage(_))
        ));
    }

    #[test]
    fn response_without_pending_request_is_rejected() {
        let (mut ap, mut client, key, mut rng) = setup();
        let vifs = run_configuration(
            &mut client,
            &mut ap,
            &ApConfigPolicy::default(),
            &key,
            &mut rng,
            2,
        )
        .unwrap();
        assert_eq!(vifs.len(), 2);
        // Replaying the same response after completion must fail (nonce consumed).
        let response = ConfigResponse {
            uni_addr: MacAddress::new([0x00, 0x11, 0x22, 0, 0, 0x01]),
            nonce: 7,
            virtual_addrs: vifs.macs(),
        };
        let replay = seal(&key, 8, &serde_json::to_vec(&response).unwrap());
        assert!(client.accept_response(&replay).is_err());
    }

    #[test]
    fn unassociated_station_cannot_configure() {
        let bssid = MacAddress::new([0x00, 0x1f, 0x3a, 0, 0, 0xaa]);
        let stranger = MacAddress::new([0x00, 0x99, 0x88, 0, 0, 0x07]);
        let mut ap = AccessPoint::new(bssid, Position::new(0.0, 0.0));
        let key = LinkKey::from_seed(3);
        let mut client = ConfigClient::new(stranger, key);
        let mut rng = StdRng::seed_from_u64(5);
        let err = run_configuration(
            &mut client,
            &mut ap,
            &ApConfigPolicy::default(),
            &key,
            &mut rng,
            3,
        )
        .unwrap_err();
        assert!(matches!(err, Error::Wlan(_)));
    }

    #[test]
    fn policy_grant_logic() {
        let policy = ApConfigPolicy::default();
        assert_eq!(policy.grant(0), 3);
        assert_eq!(policy.grant(3), 3);
        assert_eq!(policy.grant(5), 5);
        assert_eq!(policy.grant(100), 8);
        let strict = ApConfigPolicy {
            max_interfaces_per_client: 2,
            default_interfaces: 2,
        };
        assert_eq!(strict.grant(3), 2);
    }

    #[test]
    fn zero_interface_request_is_rejected_client_side() {
        let (_ap, mut client, _key, mut rng) = setup();
        let bssid = MacAddress::new([0x00, 0x1f, 0x3a, 0, 0, 0xaa]);
        assert!(matches!(
            client.build_request(&mut rng, bssid, 0),
            Err(Error::InvalidInterfaceCount(0))
        ));
    }
}
