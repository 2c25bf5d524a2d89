//! The privacy-entropy argument of §III-C3.
//!
//! Privacy is quantified by the entropy `H = log2(N)` where `N` is the number
//! of MAC addresses visible in the WLAN: each virtual interface adds one more
//! candidate identity the adversary has to consider. The section's other
//! selection rules (`L >= I`, `I = 3` by default) live in
//! [`SizeRanges::for_interface_count`](crate::ranges::SizeRanges::for_interface_count).

/// The privacy entropy of a WLAN with `visible_identities` MAC addresses:
/// `H = log2(N)` bits (§III-C3). Returns 0 for zero identities.
pub fn privacy_entropy_bits(visible_identities: u64) -> f64 {
    if visible_identities == 0 {
        0.0
    } else {
        (visible_identities as f64).log2()
    }
}

/// The increase in privacy entropy obtained by giving each of `clients`
/// stations `interfaces` virtual interfaces instead of a single address.
pub fn entropy_gain_bits(clients: u64, interfaces: u64) -> f64 {
    privacy_entropy_bits(clients.saturating_mul(interfaces.max(1))) - privacy_entropy_bits(clients)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_matches_log2() {
        assert_eq!(privacy_entropy_bits(0), 0.0);
        assert_eq!(privacy_entropy_bits(1), 0.0);
        assert!((privacy_entropy_bits(8) - 3.0).abs() < 1e-12);
        // 10 clients with 3 interfaces each: log2(30) - log2(10) = log2(3).
        assert!((entropy_gain_bits(10, 3) - 3f64.log2()).abs() < 1e-12);
        assert_eq!(entropy_gain_bits(10, 1), 0.0);
        assert_eq!(entropy_gain_bits(0, 3), 0.0);
    }
}
