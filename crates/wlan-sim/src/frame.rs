//! 802.11-style frames.
//!
//! Only the pieces the reshaping defense and the eavesdropper care about are
//! modelled: frame type, the three address fields (source, destination,
//! BSSID), a sequence number, an optional encrypted payload and the resulting
//! on-air size. Frames can be encoded to and decoded from a compact wire
//! format so that integration tests can exercise a genuine
//! serialize → transmit → capture → parse pipeline.

use crate::crypto::SealedPayload;
use crate::error::{Error, Result};
use crate::mac::MacAddress;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Size in bytes of the modelled MAC header (frame control, duration, three
/// addresses, sequence control) plus the frame check sequence.
pub const MAC_OVERHEAD_BYTES: usize = 34;

/// Management frame subtypes used by the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ManagementSubtype {
    /// Beacon broadcast by the AP.
    Beacon,
    /// Association request from a station.
    AssociationRequest,
    /// Association response from the AP.
    AssociationResponse,
    /// Disassociation notification.
    Disassociation,
}

/// Control frame subtypes used by the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ControlSubtype {
    /// Link-layer acknowledgement.
    Ack,
    /// Request-to-send.
    Rts,
    /// Clear-to-send.
    Cts,
}

/// The type of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FrameType {
    /// Management frames (association, beacons, …).
    Management(ManagementSubtype),
    /// Control frames (ACK/RTS/CTS).
    Control(ControlSubtype),
    /// Data frames carrying upper-layer payload.
    Data,
}

impl FrameType {
    fn to_code(self) -> u8 {
        match self {
            FrameType::Management(ManagementSubtype::Beacon) => 0x00,
            FrameType::Management(ManagementSubtype::AssociationRequest) => 0x01,
            FrameType::Management(ManagementSubtype::AssociationResponse) => 0x02,
            FrameType::Management(ManagementSubtype::Disassociation) => 0x03,
            FrameType::Control(ControlSubtype::Ack) => 0x10,
            FrameType::Control(ControlSubtype::Rts) => 0x11,
            FrameType::Control(ControlSubtype::Cts) => 0x12,
            FrameType::Data => 0x20,
        }
    }

    fn from_code(code: u8) -> Result<Self> {
        Ok(match code {
            0x00 => FrameType::Management(ManagementSubtype::Beacon),
            0x01 => FrameType::Management(ManagementSubtype::AssociationRequest),
            0x02 => FrameType::Management(ManagementSubtype::AssociationResponse),
            0x03 => FrameType::Management(ManagementSubtype::Disassociation),
            0x10 => FrameType::Control(ControlSubtype::Ack),
            0x11 => FrameType::Control(ControlSubtype::Rts),
            0x12 => FrameType::Control(ControlSubtype::Cts),
            0x20 => FrameType::Data,
            other => {
                return Err(Error::FrameDecode(format!(
                    "unknown frame type code {other:#04x}"
                )))
            }
        })
    }

    /// Returns `true` for management frames.
    pub fn is_management(self) -> bool {
        matches!(self, FrameType::Management(_))
    }
}

/// The addressing and control portion of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FrameHeader {
    frame_type: FrameType,
    src: MacAddress,
    dst: MacAddress,
    bssid: MacAddress,
    sequence: u16,
    protected: bool,
}

impl FrameHeader {
    /// Creates a header.
    pub fn new(frame_type: FrameType, src: MacAddress, dst: MacAddress) -> Self {
        FrameHeader {
            frame_type,
            src,
            dst,
            bssid: MacAddress::NULL,
            sequence: 0,
            protected: false,
        }
    }

    /// The frame type.
    pub fn frame_type(&self) -> FrameType {
        self.frame_type
    }

    /// Transmitter (source) address. Under reshaping this is a virtual MAC.
    pub fn src(&self) -> MacAddress {
        self.src
    }

    /// Receiver (destination) address.
    pub fn dst(&self) -> MacAddress {
        self.dst
    }

    /// BSSID of the serving AP.
    pub fn bssid(&self) -> MacAddress {
        self.bssid
    }

    /// MAC-layer sequence number.
    pub fn sequence(&self) -> u16 {
        self.sequence
    }

    /// Whether the payload is link-encrypted (Protected Frame bit).
    pub fn is_protected(&self) -> bool {
        self.protected
    }
}

/// A complete frame: header plus payload.
///
/// The payload can be in one of three states: absent (control frames), clear
/// bytes, or a [`SealedPayload`] when link encryption is on. In every state the
/// on-air size reported by [`Frame::air_size`] is header overhead plus payload
/// length, which is the quantity the eavesdropper observes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Frame {
    header: FrameHeader,
    payload: Payload,
}

/// Payload variants of a [`Frame`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Payload {
    /// No payload (control frames).
    None,
    /// Cleartext payload bytes.
    Clear(Vec<u8>),
    /// Encrypted payload (same length as the plaintext).
    Sealed(SealedPayload),
}

impl Payload {
    /// Length of the payload in bytes.
    pub fn len(&self) -> usize {
        match self {
            Payload::None => 0,
            Payload::Clear(b) => b.len(),
            Payload::Sealed(s) => s.len(),
        }
    }

    /// Returns `true` if the payload carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Frame {
    /// Builder for a frame of arbitrary type.
    pub fn builder(frame_type: FrameType, src: MacAddress, dst: MacAddress) -> FrameBuilder {
        FrameBuilder {
            header: FrameHeader::new(frame_type, src, dst),
            payload: Payload::None,
        }
    }

    /// Convenience constructor for a cleartext data frame.
    pub fn data(src: MacAddress, dst: MacAddress, payload: Vec<u8>) -> Frame {
        Frame::builder(FrameType::Data, src, dst)
            .payload(payload)
            .build()
    }

    /// Convenience constructor for an encrypted data frame.
    pub fn protected_data(src: MacAddress, dst: MacAddress, sealed: SealedPayload) -> Frame {
        Frame::builder(FrameType::Data, src, dst)
            .sealed_payload(sealed)
            .build()
    }

    /// Convenience constructor for a data frame of a given on-air size. The
    /// payload is zero-filled; only its length matters to the eavesdropper.
    ///
    /// # Panics
    ///
    /// Panics if `air_size` is smaller than [`MAC_OVERHEAD_BYTES`].
    pub fn data_of_air_size(src: MacAddress, dst: MacAddress, air_size: usize) -> Frame {
        assert!(
            air_size >= MAC_OVERHEAD_BYTES,
            "air size {air_size} smaller than MAC overhead {MAC_OVERHEAD_BYTES}"
        );
        Frame::data(src, dst, vec![0u8; air_size - MAC_OVERHEAD_BYTES])
    }

    /// The frame header.
    pub fn header(&self) -> &FrameHeader {
        &self.header
    }

    /// The frame payload.
    pub fn payload(&self) -> &Payload {
        &self.payload
    }

    /// Total on-air size in bytes (MAC overhead plus payload length).
    pub fn air_size(&self) -> usize {
        MAC_OVERHEAD_BYTES + self.payload.len()
    }

    /// Replaces the source address, returning the modified frame.
    ///
    /// This is the primitive that MAC-address translation (paper Fig. 3) is
    /// built on: the AP rewrites a virtual source address to the physical one
    /// before forwarding upstream and vice versa for downlink traffic.
    pub fn with_src(mut self, src: MacAddress) -> Frame {
        self.header.src = src;
        self
    }

    /// Replaces the destination address, returning the modified frame.
    pub fn with_dst(mut self, dst: MacAddress) -> Frame {
        self.header.dst = dst;
        self
    }

    /// Replaces the sequence number, returning the modified frame.
    pub fn with_sequence(mut self, sequence: u16) -> Frame {
        self.header.sequence = sequence;
        self
    }

    /// Encodes the frame to its wire representation.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.air_size() + 16);
        buf.put_u8(self.header.frame_type.to_code());
        buf.put_u8(u8::from(self.header.protected));
        buf.put_u16(self.header.sequence);
        buf.put_slice(&self.header.src.octets());
        buf.put_slice(&self.header.dst.octets());
        buf.put_slice(&self.header.bssid.octets());
        match &self.payload {
            Payload::None => {
                buf.put_u8(0);
                buf.put_u32(0);
            }
            Payload::Clear(bytes) => {
                buf.put_u8(1);
                buf.put_u32(bytes.len() as u32);
                buf.put_slice(bytes);
            }
            Payload::Sealed(sealed) => {
                buf.put_u8(2);
                let body = serde_json::to_vec(sealed).expect("sealed payload serializes");
                buf.put_u32(body.len() as u32);
                buf.put_slice(&body);
            }
        }
        buf.freeze()
    }

    /// Decodes a frame from its wire representation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::FrameDecode`] if the buffer is truncated or contains an
    /// unknown frame-type code.
    pub fn decode(mut data: &[u8]) -> Result<Frame> {
        const FIXED: usize = 1 + 1 + 2 + 18 + 1 + 4;
        if data.len() < FIXED {
            return Err(Error::FrameDecode(format!(
                "buffer too short: {} bytes, need at least {FIXED}",
                data.len()
            )));
        }
        let frame_type = FrameType::from_code(data.get_u8())?;
        let protected = data.get_u8() != 0;
        let sequence = data.get_u16();
        let mut addr = [0u8; 6];
        data.copy_to_slice(&mut addr);
        let src = MacAddress::new(addr);
        data.copy_to_slice(&mut addr);
        let dst = MacAddress::new(addr);
        data.copy_to_slice(&mut addr);
        let bssid = MacAddress::new(addr);
        let payload_kind = data.get_u8();
        let payload_len = data.get_u32() as usize;
        if data.remaining() < payload_len {
            return Err(Error::FrameDecode(format!(
                "payload truncated: want {payload_len} bytes, have {}",
                data.remaining()
            )));
        }
        let body = data.copy_to_bytes(payload_len);
        let payload = match payload_kind {
            0 => Payload::None,
            1 => Payload::Clear(body.to_vec()),
            2 => Payload::Sealed(
                serde_json::from_slice(&body)
                    .map_err(|e| Error::FrameDecode(format!("sealed payload: {e}")))?,
            ),
            other => {
                return Err(Error::FrameDecode(format!("unknown payload kind {other}")));
            }
        };
        Ok(Frame {
            header: FrameHeader {
                frame_type,
                src,
                dst,
                bssid,
                sequence,
                protected,
            },
            payload,
        })
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} {} -> {} ({} bytes)",
            self.header.frame_type,
            self.header.src,
            self.header.dst,
            self.air_size()
        )
    }
}

/// Builder for [`Frame`] values.
#[derive(Debug, Clone)]
pub struct FrameBuilder {
    header: FrameHeader,
    payload: Payload,
}

impl FrameBuilder {
    /// Sets a cleartext payload.
    pub fn payload(mut self, payload: Vec<u8>) -> Self {
        self.payload = Payload::Clear(payload);
        self
    }

    /// Sets an encrypted payload and marks the frame as protected.
    pub fn sealed_payload(mut self, sealed: SealedPayload) -> Self {
        self.payload = Payload::Sealed(sealed);
        self.header.protected = true;
        self
    }

    /// Sets the BSSID.
    pub fn bssid(mut self, bssid: MacAddress) -> Self {
        self.header.bssid = bssid;
        self
    }

    /// Sets the sequence number.
    pub fn sequence(mut self, sequence: u16) -> Self {
        self.header.sequence = sequence;
        self
    }

    /// Finalizes the frame.
    pub fn build(self) -> Frame {
        Frame {
            header: self.header,
            payload: self.payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::{seal, LinkKey};

    fn addr(last: u8) -> MacAddress {
        MacAddress::new([0x02, 0, 0, 0, 0, last])
    }

    #[test]
    fn air_size_includes_mac_overhead() {
        let f = Frame::data(addr(1), addr(2), vec![0; 1400]);
        assert_eq!(f.air_size(), 1400 + MAC_OVERHEAD_BYTES);
        let ack = Frame::builder(FrameType::Control(ControlSubtype::Ack), addr(1), addr(2)).build();
        assert_eq!(ack.air_size(), MAC_OVERHEAD_BYTES);
    }

    #[test]
    fn data_of_air_size_round_trips_size() {
        // Up to the paper's largest observed packet, `ℓ_max = 1576` bytes.
        for size in [MAC_OVERHEAD_BYTES, 100, 232, 525, 1050, 1576] {
            let f = Frame::data_of_air_size(addr(1), addr(2), size);
            assert_eq!(f.air_size(), size);
        }
    }

    #[test]
    #[should_panic]
    fn data_of_air_size_rejects_too_small() {
        let _ = Frame::data_of_air_size(addr(1), addr(2), MAC_OVERHEAD_BYTES - 1);
    }

    #[test]
    fn encode_decode_round_trip_clear() {
        let f = Frame::builder(FrameType::Data, addr(3), addr(4))
            .payload(vec![7u8; 321])
            .bssid(addr(9))
            .sequence(1234)
            .build();
        let decoded = Frame::decode(&f.encode()).unwrap();
        assert_eq!(decoded, f);
        assert_eq!(decoded.header().bssid(), addr(9));
        assert_eq!(decoded.header().sequence(), 1234);
    }

    #[test]
    fn encode_decode_round_trip_sealed() {
        let key = LinkKey::from_seed(5);
        let sealed = seal(&key, 1, b"configuration request");
        let f = Frame::protected_data(addr(3), addr(4), sealed);
        assert!(f.header().is_protected());
        let decoded = Frame::decode(&f.encode()).unwrap();
        assert_eq!(decoded, f);
    }

    #[test]
    fn decode_rejects_truncated_and_garbage() {
        assert!(Frame::decode(&[]).is_err());
        assert!(Frame::decode(&[0u8; 10]).is_err());
        let f = Frame::data(addr(1), addr(2), vec![0; 64]);
        let encoded = f.encode();
        assert!(Frame::decode(&encoded[..encoded.len() - 10]).is_err());
        let mut bad_type = encoded.to_vec();
        bad_type[0] = 0xee;
        assert!(Frame::decode(&bad_type).is_err());
    }

    #[test]
    fn address_rewriting() {
        let f = Frame::data(addr(1), addr(2), vec![0; 10]);
        let g = f
            .clone()
            .with_src(addr(7))
            .with_dst(addr(8))
            .with_sequence(3);
        assert_eq!(g.header().src(), addr(7));
        assert_eq!(g.header().dst(), addr(8));
        assert_eq!(g.header().sequence(), 3);
        assert_eq!(
            g.air_size(),
            f.air_size(),
            "translation must not change size"
        );
    }

    #[test]
    fn frame_type_codes_round_trip() {
        let types = [
            FrameType::Management(ManagementSubtype::Beacon),
            FrameType::Management(ManagementSubtype::AssociationRequest),
            FrameType::Management(ManagementSubtype::AssociationResponse),
            FrameType::Management(ManagementSubtype::Disassociation),
            FrameType::Control(ControlSubtype::Ack),
            FrameType::Control(ControlSubtype::Rts),
            FrameType::Control(ControlSubtype::Cts),
            FrameType::Data,
        ];
        for t in types {
            assert_eq!(FrameType::from_code(t.to_code()).unwrap(), t);
        }
        assert!(!FrameType::Data.is_management());
        assert!(FrameType::Management(ManagementSubtype::Beacon).is_management());
    }

    #[test]
    fn display_mentions_addresses_and_size() {
        let f = Frame::data(addr(1), addr(2), vec![0; 10]);
        let s = f.to_string();
        assert!(s.contains("02:00:00:00:00:01"));
        assert!(s.contains("44 bytes"));
    }
}
