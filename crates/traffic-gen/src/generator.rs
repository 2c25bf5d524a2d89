//! The seeded [`SessionGenerator`]: batch sessions of an application's
//! calibrated model.
//!
//! A batch session drains the model's two [`FlowStream`](crate::stream::FlowStream)s
//! with one sequential RNG, downlink first and then uplink (see
//! [`BidirectionalModel::generate`]), so a seed reproduces every packet.

use crate::app::AppKind;
use crate::distribution::SizeHistogram;
use crate::models::{spec_for, BidirectionalModel};
use crate::trace::Trace;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Owns an application's calibrated model and a seed, and produces traces.
///
/// # Example
///
/// ```rust
/// use traffic_gen::app::AppKind;
/// use traffic_gen::generator::SessionGenerator;
///
/// let trace = SessionGenerator::new(AppKind::Chatting, 7).generate_secs(30.0);
/// assert_eq!(trace.app(), Some(AppKind::Chatting));
/// ```
#[derive(Debug)]
pub struct SessionGenerator {
    model: BidirectionalModel,
    seed: u64,
}

impl SessionGenerator {
    /// Creates a generator for `app` using the calibrated default model.
    pub fn new(app: AppKind, seed: u64) -> Self {
        SessionGenerator {
            model: spec_for(app),
            seed,
        }
    }

    /// The application being generated.
    pub fn app(&self) -> AppKind {
        self.model.app_kind()
    }

    /// Generates a trace of the given duration (seconds).
    pub fn generate_secs(&self, duration_secs: f64) -> Trace {
        self.model.generate(self.session_rng(), duration_secs)
    }

    /// The size histogram of [`generate_secs`](Self::generate_secs)'s trace,
    /// streamed without materialising it (see
    /// [`BidirectionalModel::size_histogram`]).
    pub fn size_histogram_secs(
        &self,
        duration_secs: f64,
        max_size: usize,
        bin_width: usize,
    ) -> SizeHistogram {
        self.model
            .size_histogram(self.session_rng(), duration_secs, max_size, bin_width)
    }

    /// The RNG of the single session [`generate_secs`](Self::generate_secs)
    /// draws.
    fn session_rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ (self.app().class_index() as u64) << 56)
    }

    /// Generates `count` independent session traces, each of `duration_secs`,
    /// using per-session derived seeds.
    pub fn generate_sessions(&self, count: usize, duration_secs: f64) -> Vec<Trace> {
        (0..count)
            .map(|i| {
                let rng = StdRng::seed_from_u64(
                    self.seed
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(i as u64 + 1)
                        ^ ((self.app().class_index() as u64) << 56),
                );
                self.model.generate(rng, duration_secs)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Direction;

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let a = SessionGenerator::new(AppKind::Gaming, 99).generate_secs(20.0);
        let b = SessionGenerator::new(AppKind::Gaming, 99).generate_secs(20.0);
        assert_eq!(a, b);
        let c = SessionGenerator::new(AppKind::Gaming, 100).generate_secs(20.0);
        assert_ne!(a, c, "different seeds give different traces");
    }

    #[test]
    fn traces_are_labelled_sorted_and_bounded() {
        for app in AppKind::ALL {
            let gen = SessionGenerator::new(app, 5);
            assert_eq!(gen.app(), app);
            let trace = gen.generate_secs(15.0);
            assert_eq!(trace.app(), Some(app));
            assert!(!trace.is_empty(), "{app} produced no packets");
            let packets = trace.packets();
            assert!(packets.windows(2).all(|w| w[0].time <= w[1].time));
            assert!(packets.iter().all(|p| p.time.as_secs_f64() <= 15.0 + 1e-9));
            assert!(packets
                .iter()
                .all(|p| p.size >= crate::MIN_PACKET_SIZE && p.size <= crate::MAX_PACKET_SIZE));
        }
    }

    #[test]
    fn every_app_has_both_directions() {
        for app in AppKind::ALL {
            let trace = SessionGenerator::new(app, 11).generate_secs(30.0);
            assert!(
                trace.packets_in(Direction::Downlink).count() > 0,
                "{app} has no downlink packets"
            );
            assert!(
                trace.packets_in(Direction::Uplink).count() > 0,
                "{app} has no uplink packets"
            );
        }
    }

    #[test]
    fn streamed_size_histogram_equals_the_generated_traces() {
        // The streamed histogram consumes the RNG exactly as the batch
        // session does, so it is bit-identical to binning the trace.
        use crate::MAX_PACKET_SIZE;
        for app in AppKind::ALL {
            for seed in [0, 1, 7, 0xca1b, u64::MAX] {
                let gen = SessionGenerator::new(app, seed);
                let trace = gen.generate_secs(20.0);
                let binned = SizeHistogram::from_sizes(
                    trace.packets().iter().map(|p| p.size),
                    MAX_PACKET_SIZE,
                    8,
                );
                let streamed = gen.size_histogram_secs(20.0, MAX_PACKET_SIZE, 8);
                assert_eq!(streamed.cdf(), binned.cdf(), "{app} seed {seed}");
                assert_eq!(streamed, binned, "{app} seed {seed}");
            }
        }
    }

    #[test]
    fn sessions_are_independent() {
        let sessions = SessionGenerator::new(AppKind::Browsing, 3).generate_sessions(3, 10.0);
        assert_eq!(sessions.len(), 3);
        assert_ne!(sessions[0], sessions[1]);
        assert_ne!(sessions[1], sessions[2]);
    }
}
