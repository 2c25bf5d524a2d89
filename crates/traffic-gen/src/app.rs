//! The seven online activities profiled by the paper.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// One of the seven popular online applications whose traffic the paper
/// profiles and the adversary tries to identify (§II-A, Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AppKind {
    /// Web browsing — bursty traffic, mixed packet sizes.
    Browsing,
    /// Instant-messaging / chat — low rate, small packets.
    Chatting,
    /// Online gaming — frequent small-to-medium packets.
    Gaming,
    /// Bulk downloading — saturated downlink of full-size packets.
    Downloading,
    /// Bulk uploading — saturated uplink; downlink carries only ACKs.
    Uploading,
    /// Online video streaming — steady rate of near-full packets.
    Video,
    /// BitTorrent — bidirectional, bimodal packet sizes.
    BitTorrent,
}

impl AppKind {
    /// Every application, in the order the paper's tables list them
    /// (br., ch., ga., do., up., vo., bt.).
    pub const ALL: [AppKind; 7] = [
        AppKind::Browsing,
        AppKind::Chatting,
        AppKind::Gaming,
        AppKind::Downloading,
        AppKind::Uploading,
        AppKind::Video,
        AppKind::BitTorrent,
    ];

    /// Number of application classes.
    pub const COUNT: usize = 7;

    /// The abbreviation used in the paper's tables.
    pub fn abbrev(self) -> &'static str {
        match self {
            AppKind::Browsing => "br.",
            AppKind::Chatting => "ch.",
            AppKind::Gaming => "ga.",
            AppKind::Downloading => "do.",
            AppKind::Uploading => "up.",
            AppKind::Video => "vo.",
            AppKind::BitTorrent => "bt.",
        }
    }

    /// A human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Browsing => "web browsing",
            AppKind::Chatting => "chatting",
            AppKind::Gaming => "online gaming",
            AppKind::Downloading => "downloading",
            AppKind::Uploading => "uploading",
            AppKind::Video => "online video",
            AppKind::BitTorrent => "BitTorrent",
        }
    }

    /// A dense class index in `0..AppKind::COUNT`, used as the label by the
    /// classifiers.
    pub fn class_index(self) -> usize {
        match self {
            AppKind::Browsing => 0,
            AppKind::Chatting => 1,
            AppKind::Gaming => 2,
            AppKind::Downloading => 3,
            AppKind::Uploading => 4,
            AppKind::Video => 5,
            AppKind::BitTorrent => 6,
        }
    }
}

impl fmt::Display for AppKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for AppKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lowered = s.trim().to_ascii_lowercase();
        let kind = match lowered.as_str() {
            "br" | "br." | "browsing" | "web browsing" | "web" => AppKind::Browsing,
            "ch" | "ch." | "chat" | "chatting" => AppKind::Chatting,
            "ga" | "ga." | "gaming" | "game" | "online gaming" => AppKind::Gaming,
            "do" | "do." | "download" | "downloading" => AppKind::Downloading,
            "up" | "up." | "upload" | "uploading" => AppKind::Uploading,
            "vo" | "vo." | "video" | "online video" | "streaming" => AppKind::Video,
            "bt" | "bt." | "bittorrent" | "torrent" => AppKind::BitTorrent,
            _ => return Err(format!("unknown application name: {s:?}")),
        };
        Ok(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_has_seven_distinct_entries_in_paper_order() {
        assert_eq!(AppKind::ALL.len(), AppKind::COUNT);
        let abbrevs: Vec<&str> = AppKind::ALL.iter().map(|a| a.abbrev()).collect();
        assert_eq!(
            abbrevs,
            vec!["br.", "ch.", "ga.", "do.", "up.", "vo.", "bt."]
        );
    }

    #[test]
    fn class_index_round_trips() {
        for (i, app) in AppKind::ALL.iter().enumerate() {
            assert_eq!(app.class_index(), i);
            assert_eq!(AppKind::ALL[app.class_index()], *app);
        }
    }

    #[test]
    fn parsing_accepts_abbreviations_and_names() {
        assert_eq!("br.".parse::<AppKind>().unwrap(), AppKind::Browsing);
        assert_eq!(
            "BitTorrent".parse::<AppKind>().unwrap(),
            AppKind::BitTorrent
        );
        assert_eq!("VIDEO".parse::<AppKind>().unwrap(), AppKind::Video);
        assert_eq!(
            " uploading ".parse::<AppKind>().unwrap(),
            AppKind::Uploading
        );
        assert!("telnet".parse::<AppKind>().is_err());
    }

    #[test]
    fn display_uses_readable_names() {
        assert_eq!(AppKind::Gaming.to_string(), "online gaming");
        assert_eq!(AppKind::Chatting.to_string(), "chatting");
    }
}
