//! Traffic specifications: generation as **data**.
//!
//! The scenario engine describes whole experiments declaratively (TOML specs,
//! read by `bench::scenario`, compiled into the streaming machinery);
//! [`TrafficSpec`] is the traffic-gen end of that contract. One spec names an application, a seed and an optional
//! duration, and builds the lazy [`StreamingSession`] of that application's
//! calibrated model, so a committed spec file reproduces a workload exactly
//! (same seed, same packets) without a line of Rust.

use crate::app::AppKind;
use crate::models::spec_for;
use crate::stream::StreamingSession;

/// One station's traffic, as data: the application model to run, the seed
/// that makes it reproducible, and how long the session lasts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSpec {
    /// The application whose calibrated model generates the traffic.
    pub app: AppKind,
    /// Seed of the session's random streams.
    pub seed: u64,
    /// Session length in seconds; `None` streams forever (the workload a
    /// batch trace can never express).
    pub secs: Option<f64>,
}

impl TrafficSpec {
    /// Creates a bounded spec.
    pub fn bounded(app: AppKind, seed: u64, secs: f64) -> Self {
        TrafficSpec {
            app,
            seed,
            secs: Some(secs),
        }
    }

    /// Builds the spec's lazy packet source (bounded by `secs` when given,
    /// infinite otherwise).
    pub fn build(&self) -> StreamingSession {
        StreamingSession::from_model(spec_for(self.app), self.seed, self.secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::PacketSource;

    #[test]
    fn spec_builds_the_same_stream_as_the_direct_constructor() {
        let spec = TrafficSpec::bounded(AppKind::BitTorrent, 7, 20.0);
        let from_spec: Vec<_> = spec.build().collect();
        let direct: Vec<_> =
            StreamingSession::from_model(spec_for(AppKind::BitTorrent), 7, Some(20.0)).collect();
        assert_eq!(from_spec, direct);
        assert!(!from_spec.is_empty());
    }

    #[test]
    fn unbounded_spec_streams_forever() {
        let spec = TrafficSpec {
            app: AppKind::Video,
            seed: 1,
            secs: None,
        };
        let mut session = spec.build();
        for _ in 0..1000 {
            assert!(session.next_packet().is_some());
        }
    }
}
