//! Experiment configuration and corpus generation.
//!
//! The paper trains and evaluates on ~50 hours of real traces; we generate a
//! configurable number of synthetic sessions per application. Two presets are
//! provided: [`ExperimentConfig::paper`] (the sizes used by the `experiments`
//! binary and EXPERIMENTS.md) and [`ExperimentConfig::quick`] (small sizes for
//! unit tests and the default training corpus of scenario adversaries).

use traffic_gen::app::AppKind;
use traffic_gen::generator::SessionGenerator;
use traffic_gen::trace::Trace;
use wlan_sim::time::SimDuration;

/// Sizing and seeding of one experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Base seed for the training corpus.
    pub train_seed: u64,
    /// Base seed for the evaluation corpus (disjoint from training).
    pub eval_seed: u64,
    /// Number of training sessions per application.
    pub train_sessions: usize,
    /// Duration of each training session in seconds.
    pub train_session_secs: f64,
    /// Number of evaluation sessions per application.
    pub eval_sessions: usize,
    /// Duration of each evaluation session in seconds.
    pub eval_session_secs: f64,
    /// The eavesdropping window `W` in seconds.
    pub window_secs: f64,
    /// Number of virtual interfaces `I` for the reshaping defenses.
    pub interfaces: usize,
}

impl ExperimentConfig {
    /// The configuration used to regenerate the paper's tables (window `W` in
    /// seconds is a parameter because Tables II/III differ only in `W`).
    pub fn paper(window_secs: f64) -> Self {
        ExperimentConfig {
            train_seed: 0xA11CE,
            eval_seed: 0xB0B,
            train_sessions: 4,
            train_session_secs: 150.0,
            eval_sessions: 3,
            eval_session_secs: 240.0,
            window_secs,
            interfaces: 3,
        }
    }

    /// A small configuration for unit tests and benches.
    pub fn quick() -> Self {
        ExperimentConfig {
            train_seed: 11,
            eval_seed: 23,
            train_sessions: 2,
            train_session_secs: 40.0,
            eval_sessions: 1,
            eval_session_secs: 40.0,
            window_secs: 5.0,
            interfaces: 3,
        }
    }

    /// The eavesdropping window as a [`SimDuration`].
    pub fn window(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.window_secs)
    }

    /// Generates the training corpus: `train_sessions` labelled traces per application.
    pub fn training_corpus(&self) -> Vec<Trace> {
        corpus(
            self.train_seed,
            self.train_sessions,
            self.train_session_secs,
        )
    }

    /// Generates the evaluation corpus: `eval_sessions` labelled traces per application.
    pub fn evaluation_corpus(&self) -> Vec<Trace> {
        corpus(self.eval_seed, self.eval_sessions, self.eval_session_secs)
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::paper(5.0)
    }
}

/// Generates `sessions` independent traces of `secs` seconds for every application.
pub fn corpus(base_seed: u64, sessions: usize, secs: f64) -> Vec<Trace> {
    let mut traces = Vec::with_capacity(sessions * AppKind::COUNT);
    for app in AppKind::ALL {
        let generator = SessionGenerator::new(app, base_seed);
        traces.extend(generator.generate_sessions(sessions, secs));
    }
    traces
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpora_cover_every_app_with_disjoint_seeds() {
        let config = ExperimentConfig::quick();
        let train = config.training_corpus();
        let eval = config.evaluation_corpus();
        assert_eq!(train.len(), config.train_sessions * AppKind::COUNT);
        assert_eq!(eval.len(), config.eval_sessions * AppKind::COUNT);
        for app in AppKind::ALL {
            assert!(train.iter().any(|t| t.app() == Some(app)));
            assert!(eval.iter().any(|t| t.app() == Some(app)));
        }
        // Different seeds: the two corpora are not identical.
        assert_ne!(train[0], eval[0]);
    }

    #[test]
    fn presets_are_sane() {
        let paper = ExperimentConfig::paper(60.0);
        assert_eq!(paper.window_secs, 60.0);
        assert_eq!(paper.interfaces, 3);
        assert!(paper.eval_session_secs >= paper.window_secs);
        let quick = ExperimentConfig::quick();
        assert!(quick.train_session_secs < paper.train_session_secs);
        assert_eq!(ExperimentConfig::default().window_secs, 5.0);
        assert_eq!(quick.window().as_secs_f64(), 5.0);
    }
}
