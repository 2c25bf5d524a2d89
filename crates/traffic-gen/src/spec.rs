//! Serde-buildable traffic specifications: generation as **data**.
//!
//! The scenario engine describes whole experiments declaratively (TOML specs
//! compiled into the streaming machinery); [`TrafficSpec`] is the traffic-gen
//! end of that contract. One spec names an application, a seed and an optional
//! duration, and builds the lazy [`StreamingSession`] of that application's
//! calibrated model, so a committed spec file reproduces a workload exactly
//! (same seed, same packets) without a line of Rust.

use crate::app::AppKind;
use crate::models::spec_for;
use crate::stream::StreamingSession;
use serde::{Deserialize, Error, Serialize, Value};

/// One station's traffic, as data: the application model to run, the seed
/// that makes it reproducible, and how long the session lasts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
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

/// Parses an application from a spec value: either the enum variant name
/// (`"BitTorrent"`) or any of the paper's abbreviations/aliases accepted by
/// [`AppKind::from_str`](std::str::FromStr) (`"bt"`, `"bittorrent"`, …).
pub fn app_from_value(v: &Value) -> Result<AppKind, Error> {
    match v {
        Value::Str(s) => s.parse::<AppKind>().map_err(Error::custom),
        other => Err(Error::custom(format!(
            "expected application name string, found {other:?}"
        ))),
    }
}

impl Deserialize for TrafficSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let map = v
            .as_map()
            .ok_or_else(|| Error::custom("expected a table for TrafficSpec"))?;
        serde::value_deny_unknown(map, &["app", "seed", "secs"], "traffic spec")?;
        let app = app_from_value(
            serde::value_get(map, "app")
                .ok_or_else(|| Error::custom("traffic spec is missing `app`"))?,
        )?;
        let seed = match serde::value_get(map, "seed") {
            Some(s) => u64::from_value(s)?,
            None => 0,
        };
        let secs = match serde::value_get(map, "secs") {
            Some(s) => Some(f64::from_value(s)?),
            None => None,
        };
        // A bound that is NaN or infinite never ends the session (the flow
        // clock is never past it), and one that is not positive ends it
        // before the first packet.
        if let Some(secs) = secs.filter(|s| !(s.is_finite() && *s > 0.0)) {
            return Err(Error::custom(format!(
                "traffic spec `secs` must be positive and finite, got {secs}"
            )));
        }
        Ok(TrafficSpec { app, seed, secs })
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
        let direct: Vec<_> = StreamingSession::bounded(AppKind::BitTorrent, 7, 20.0).collect();
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

    #[test]
    fn deserializes_from_a_spec_value_with_defaults() {
        let v = Value::Map(vec![
            ("app".into(), Value::Str("bt".into())),
            ("seed".into(), Value::U64(9)),
            ("secs".into(), Value::F64(30.0)),
        ]);
        let spec = TrafficSpec::from_value(&v).expect("valid spec");
        assert_eq!(spec, TrafficSpec::bounded(AppKind::BitTorrent, 9, 30.0));
        // `seed` and `secs` default; variant names parse too.
        let v = Value::Map(vec![("app".into(), Value::Str("BitTorrent".into()))]);
        let spec = TrafficSpec::from_value(&v).expect("valid spec");
        assert_eq!(spec.seed, 0);
        assert_eq!(spec.secs, None);
        // Unknown applications are rejected.
        let v = Value::Map(vec![("app".into(), Value::Str("telnet".into()))]);
        assert!(TrafficSpec::from_value(&v).is_err());
    }

    #[test]
    fn rejects_a_secs_that_is_not_positive_and_finite() {
        for secs in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let v = Value::Map(vec![
                ("app".into(), Value::Str("video".into())),
                ("secs".into(), Value::F64(secs)),
            ]);
            let err = TrafficSpec::from_value(&v).expect_err("unusable secs");
            assert!(err.to_string().contains("`secs`"), "{secs}: {err}");
        }
    }
}
