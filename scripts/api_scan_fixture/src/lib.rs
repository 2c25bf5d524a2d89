//! The fixture of scripts/api_scan_selftest.sh. `main` calls
//! `Report::label` and serialises `Report`; nothing but the tests below
//! calls `Report::reference`, `Unread::label` or `spare`, and nothing
//! serialises `Unread`.

use serde::Serialize;

/// Labelled and serialised by `main`.
#[derive(Debug, Serialize)]
pub struct Report {
    /// Packets counted.
    pub packets: u64,
}

impl Report {
    /// Called by `main`: used.
    pub fn label(&self) -> String {
        format!("{} packets", self.packets)
    }

    /// Called only by the tests; the self-test allowlists it.
    pub fn reference(&self) -> u64 {
        self.packets
    }
}

/// Built by `main`, never serialised. Its derive list spans lines, as
/// rustfmt writes a long one.
#[derive(
    Debug,
    Serialize,
)]
pub struct Unread {
    /// Packets counted.
    pub packets: u64,
}

impl Unread {
    /// Shares its name with `Report::label`, which `main` calls: unused.
    pub fn label(&self) -> &'static str {
        "unread"
    }
}

/// Called by nothing: unused.
pub fn spare() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_tests_call_these() {
        assert_eq!(Report { packets: 2 }.reference(), 2);
        assert_eq!(Unread { packets: 1 }.label(), "unread");
        spare();
    }
}
