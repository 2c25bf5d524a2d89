//! Error types for the WLAN simulator.

use std::fmt;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the WLAN simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The MAC address pool has no unused addresses left.
    AddressPoolExhausted,
    /// The requested address is already allocated.
    AddressInUse(crate::mac::MacAddress),
    /// A station attempted an operation that requires association first.
    NotAssociated(crate::mac::MacAddress),
    /// The station is already associated.
    AlreadyAssociated(crate::mac::MacAddress),
    /// A frame could not be decoded from its wire representation.
    FrameDecode(String),
    /// A frame was addressed to a MAC address unknown to the receiver.
    UnknownDestination(crate::mac::MacAddress),
    /// Text could not be parsed as a MAC address.
    ParseMacAddress(String),
    /// An invalid channel number was supplied (valid 2.4 GHz channels are 1..=14).
    InvalidChannel(u8),
    /// Decryption failed because the key did not match.
    DecryptionFailed,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::AddressPoolExhausted => write!(f, "mac address pool exhausted"),
            Error::AddressInUse(a) => write!(f, "mac address {a} already in use"),
            Error::NotAssociated(a) => write!(f, "station {a} is not associated"),
            Error::AlreadyAssociated(a) => write!(f, "station {a} is already associated"),
            Error::FrameDecode(msg) => write!(f, "frame decode error: {msg}"),
            Error::UnknownDestination(a) => write!(f, "unknown destination address {a}"),
            Error::ParseMacAddress(s) => write!(f, "invalid mac address syntax: {s:?}"),
            Error::InvalidChannel(c) => write!(f, "invalid 802.11 channel number {c}"),
            Error::DecryptionFailed => write!(f, "decryption failed: wrong key"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::MacAddress;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let samples: Vec<Error> = vec![
            Error::AddressPoolExhausted,
            Error::AddressInUse(MacAddress::BROADCAST),
            Error::NotAssociated(MacAddress::BROADCAST),
            Error::AlreadyAssociated(MacAddress::BROADCAST),
            Error::FrameDecode("short".into()),
            Error::UnknownDestination(MacAddress::BROADCAST),
            Error::ParseMacAddress("xx".into()),
            Error::InvalidChannel(99),
            Error::DecryptionFailed,
        ];
        for e in samples {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
            assert!(!s.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
