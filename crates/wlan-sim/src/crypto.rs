//! Payload opacity for the simulated link layer.
//!
//! The paper assumes WPA-style link encryption: the eavesdropper can observe
//! frame lengths, addresses and timing but not payload contents, and the
//! reshaping configuration exchange is itself encrypted so the adversary never
//! learns the mapping between physical and virtual addresses (§III-B1).
//!
//! This module provides a deliberately simple keystream cipher that models
//! that opacity inside the simulator. It is **not** a real cipher and must
//! never be used outside the simulation: its only purpose is to make
//! "encrypted" payloads unreadable to simulator components that do not hold
//! the key, while keeping the ciphertext length equal to the plaintext length
//! (as a stream cipher would), so packet-size features are unaffected.

use crate::error::{Error, Result};
use serde::{Deserialize, Serialize};

/// A symmetric link key shared between a station and its AP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkKey([u8; 16]);

impl LinkKey {
    /// Derives a deterministic per-session key from a seed (test/simulation helper).
    pub fn from_seed(seed: u64) -> Self {
        let mut bytes = [0u8; 16];
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        for b in &mut bytes {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *b = (state & 0xff) as u8;
        }
        LinkKey(bytes)
    }

    fn keystream_byte(&self, counter: u64, index: usize) -> u8 {
        // A small xorshift-style mixing function keyed by the link key. This is
        // a simulation artifact, not cryptography.
        let k = u64::from_le_bytes(self.0[0..8].try_into().expect("key slice is 8 bytes"));
        let k2 = u64::from_le_bytes(self.0[8..16].try_into().expect("key slice is 8 bytes"));
        let mut x =
            k ^ counter.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ (index as u64).wrapping_mul(k2 | 1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x & 0xff) as u8
    }
}

/// An encrypted payload, together with a short integrity tag.
///
/// Length is preserved: `ciphertext.len() == plaintext.len()`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SealedPayload {
    counter: u64,
    ciphertext: Vec<u8>,
    tag: u64,
}

impl SealedPayload {
    /// The length of the (equal-length) plaintext and ciphertext.
    pub fn len(&self) -> usize {
        self.ciphertext.len()
    }

    /// Returns `true` for an empty payload.
    pub fn is_empty(&self) -> bool {
        self.ciphertext.is_empty()
    }

    /// The opaque ciphertext bytes (what the eavesdropper sees).
    pub fn ciphertext(&self) -> &[u8] {
        &self.ciphertext
    }
}

fn tag_of(key: &LinkKey, counter: u64, data: &[u8]) -> u64 {
    let mut acc = counter ^ 0x51ed_270b_7a1f_c4d3;
    for (i, b) in data.iter().enumerate() {
        acc = acc
            .rotate_left(7)
            .wrapping_add(u64::from(*b))
            .wrapping_mul(0x100_0000_01b3)
            ^ u64::from(key.keystream_byte(counter ^ 0xabcd, i));
    }
    acc
}

/// Encrypts `plaintext` under `key` with a caller-supplied replay counter.
pub fn seal(key: &LinkKey, counter: u64, plaintext: &[u8]) -> SealedPayload {
    let ciphertext: Vec<u8> = plaintext
        .iter()
        .enumerate()
        .map(|(i, b)| b ^ key.keystream_byte(counter, i))
        .collect();
    let tag = tag_of(key, counter, plaintext);
    SealedPayload {
        counter,
        ciphertext,
        tag,
    }
}

/// Decrypts a sealed payload.
///
/// # Errors
///
/// Returns [`Error::DecryptionFailed`] when the key does not match the one
/// used for sealing (detected through the integrity tag).
pub fn open(key: &LinkKey, sealed: &SealedPayload) -> Result<Vec<u8>> {
    let plaintext: Vec<u8> = sealed
        .ciphertext
        .iter()
        .enumerate()
        .map(|(i, b)| b ^ key.keystream_byte(sealed.counter, i))
        .collect();
    if tag_of(key, sealed.counter, &plaintext) != sealed.tag {
        return Err(Error::DecryptionFailed);
    }
    Ok(plaintext)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_round_trip() {
        let key = LinkKey::from_seed(42);
        let msg = b"request: uni_addr | nonce 0xdeadbeef".to_vec();
        let sealed = seal(&key, 7, &msg);
        assert_eq!(sealed.len(), msg.len());
        assert_ne!(
            sealed.ciphertext(),
            &msg[..],
            "ciphertext must differ from plaintext"
        );
        let opened = open(&key, &sealed).unwrap();
        assert_eq!(opened, msg);
    }

    #[test]
    fn wrong_key_is_rejected() {
        let key = LinkKey::from_seed(1);
        let wrong = LinkKey::from_seed(2);
        let sealed = seal(&key, 0, b"secret configuration");
        assert_eq!(open(&wrong, &sealed), Err(Error::DecryptionFailed));
    }

    #[test]
    fn length_is_preserved_for_all_sizes() {
        let key = LinkKey::from_seed(99);
        for len in [0usize, 1, 16, 100, 1500] {
            let data = vec![0xa5u8; len];
            let sealed = seal(&key, len as u64, &data);
            assert_eq!(sealed.len(), len);
            assert_eq!(sealed.is_empty(), len == 0);
            assert_eq!(open(&key, &sealed).unwrap(), data);
        }
    }

    #[test]
    fn different_counters_produce_different_ciphertexts() {
        let key = LinkKey::from_seed(3);
        let msg = vec![0u8; 64];
        let a = seal(&key, 1, &msg);
        let b = seal(&key, 2, &msg);
        assert_ne!(a.ciphertext(), b.ciphertext());
    }

    #[test]
    fn deterministic_key_derivation() {
        assert_eq!(LinkKey::from_seed(5), LinkKey::from_seed(5));
        assert_ne!(LinkKey::from_seed(5), LinkKey::from_seed(6));
    }
}
