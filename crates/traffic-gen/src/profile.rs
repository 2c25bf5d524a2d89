//! Published per-application statistics used to calibrate the traffic models.
//!
//! Table I of the paper reports, for each of the seven applications, the mean
//! downlink packet size (bytes) and the mean downlink inter-arrival time
//! (seconds) of the original traces. These values anchor our synthetic
//! generators: the model unit tests assert that generated traffic lands close
//! to them, and the Table I experiment compares the reproduction against them.

use crate::app::AppKind;

/// First-order statistics of an application's downlink traffic as reported in
/// Table I of the paper ("Original" column).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppProfile {
    /// The application.
    pub app: AppKind,
    /// Mean downlink packet size in bytes.
    pub mean_packet_size: f64,
    /// Mean downlink inter-arrival time in seconds (idle gaps excluded).
    pub mean_interarrival_secs: f64,
}

/// The paper's Table I "Original" downlink statistics for every application.
pub fn paper_profiles() -> [AppProfile; 7] {
    [
        AppProfile {
            app: AppKind::Browsing,
            mean_packet_size: 1013.2,
            mean_interarrival_secs: 0.0284,
        },
        AppProfile {
            app: AppKind::Chatting,
            mean_packet_size: 269.1,
            mean_interarrival_secs: 0.9901,
        },
        AppProfile {
            app: AppKind::Gaming,
            mean_packet_size: 459.5,
            mean_interarrival_secs: 0.3084,
        },
        AppProfile {
            app: AppKind::Downloading,
            mean_packet_size: 1575.3,
            mean_interarrival_secs: 0.0023,
        },
        AppProfile {
            app: AppKind::Uploading,
            mean_packet_size: 132.8,
            mean_interarrival_secs: 0.0301,
        },
        AppProfile {
            app: AppKind::Video,
            mean_packet_size: 1547.6,
            mean_interarrival_secs: 0.0119,
        },
        AppProfile {
            app: AppKind::BitTorrent,
            mean_packet_size: 962.04,
            mean_interarrival_secs: 0.0247,
        },
    ]
}

/// The Table I profile for a single application.
pub fn paper_profile(app: AppKind) -> AppProfile {
    paper_profiles()
        .into_iter()
        .find(|p| p.app == app)
        .expect("all seven applications are present")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_cover_all_apps_exactly_once() {
        let profiles = paper_profiles();
        assert_eq!(profiles.len(), 7);
        for app in AppKind::ALL {
            let matching: Vec<_> = profiles.iter().filter(|p| p.app == app).collect();
            assert_eq!(matching.len(), 1, "{app} must appear exactly once");
        }
    }

    #[test]
    fn profile_lookup_matches_table_one() {
        assert_eq!(paper_profile(AppKind::Downloading).mean_packet_size, 1575.3);
        assert_eq!(
            paper_profile(AppKind::Chatting).mean_interarrival_secs,
            0.9901
        );
        assert_eq!(paper_profile(AppKind::BitTorrent).mean_packet_size, 962.04);
    }

    #[test]
    fn downlink_sizes_are_within_frame_limits() {
        for p in paper_profiles() {
            assert!(p.mean_packet_size > 0.0);
            assert!(p.mean_packet_size <= crate::MAX_PACKET_SIZE as f64);
            assert!(p.mean_interarrival_secs > 0.0);
        }
    }
}
