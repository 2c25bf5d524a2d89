//! Building datasets from traces via eavesdropping windows.
//!
//! The adversary observes traffic for an eavesdropping duration `W` and
//! classifies each window independently (§IV-A). This module turns labelled
//! traces into [`Dataset`]s by cutting them into windows and extracting the
//! feature vector of every window.
//!
//! The windowing itself is a [`StreamingWindower`] fed packet by packet:
//! packets are folded into per-window running statistics instead of being
//! copied into per-window sub-traces, so a trace is traversed exactly once
//! with O(1) window state.

use crate::dataset::Dataset;
use crate::features::FEATURE_DIM;
use crate::stream::{StreamingWindower, WindowExample};
use traffic_gen::trace::Trace;
use wlan_sim::time::SimDuration;

/// How features are extracted from each window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FeatureMode {
    /// The full feature set (packet counts, size statistics, inter-arrival statistics).
    #[default]
    Full,
    /// Timing features only (packet counts and inter-arrival statistics); used
    /// by the Table VI experiment where the adversary attacks padded or
    /// morphed traffic whose sizes carry no information.
    TimingOnly,
}

/// Splits a labelled trace into windows of `window` seconds and returns one
/// example per non-empty window.
///
/// Windows with fewer than `min_packets` packets are skipped: a couple of
/// stray packets do not give the adversary (or the defender) a meaningful
/// sample, and the paper's per-window features assume a populated window.
pub fn windowed_examples(
    trace: &Trace,
    window: SimDuration,
    min_packets: usize,
    mode: FeatureMode,
) -> Vec<WindowExample> {
    let Some(app) = trace.app() else {
        return Vec::new();
    };
    // Packet by packet rather than through `push_slice`: the slice path's
    // per-trace scratch buffers shift glibc's dynamic mmap threshold and,
    // with it, the peak RSS of morph-defended runs by up to ~2 MB.
    let mut windower = StreamingWindower::for_app(window, min_packets, mode, app);
    let mut examples: Vec<_> = trace
        .packets()
        .iter()
        .filter_map(|packet| windower.push(packet))
        .collect();
    examples.extend(windower.finish());
    examples
}

/// Builds a dataset from many labelled traces.
///
/// Every trace must carry an application label; unlabelled traces are skipped.
pub fn build_dataset(
    traces: &[Trace],
    window: SimDuration,
    min_packets: usize,
    mode: FeatureMode,
) -> Dataset {
    let mut data = Dataset::new(FEATURE_DIM);
    for trace in traces {
        for (features, label) in windowed_examples(trace, window, min_packets, mode) {
            data.push(features.to_vec(), label);
        }
    }
    data
}

/// Default minimum number of packets for a window to become an example.
pub const DEFAULT_MIN_PACKETS: usize = 2;

#[cfg(test)]
mod tests {
    use super::*;
    use traffic_gen::app::AppKind;
    use traffic_gen::generator::SessionGenerator;

    #[test]
    fn windows_become_labelled_examples() {
        let trace = SessionGenerator::new(AppKind::Video, 1).generate_secs(30.0);
        let examples = windowed_examples(
            &trace,
            SimDuration::from_secs(5),
            DEFAULT_MIN_PACKETS,
            FeatureMode::Full,
        );
        assert!(examples.len() >= 5, "30 s of video in 5 s windows");
        for (features, label) in &examples {
            assert_eq!(features.len(), FEATURE_DIM);
            assert_eq!(*label, AppKind::Video.class_index());
        }
    }

    #[test]
    fn unlabelled_traces_are_skipped() {
        let mut trace = SessionGenerator::new(AppKind::Video, 1).generate_secs(10.0);
        trace.set_app(None);
        assert!(
            windowed_examples(&trace, SimDuration::from_secs(5), 1, FeatureMode::Full).is_empty()
        );
    }

    #[test]
    fn dataset_covers_all_apps() {
        let traces: Vec<Trace> = AppKind::ALL
            .iter()
            .map(|&app| SessionGenerator::new(app, 3).generate_secs(60.0))
            .collect();
        let data = build_dataset(
            &traces,
            SimDuration::from_secs(5),
            DEFAULT_MIN_PACKETS,
            FeatureMode::Full,
        );
        assert_eq!(data.dim(), FEATURE_DIM);
        assert_eq!(data.class_count(), AppKind::COUNT);
        for app in AppKind::ALL {
            assert!(
                data.examples().iter().any(|e| e.label == app.class_index()),
                "{app} produced no examples"
            );
        }
    }

    #[test]
    fn timing_only_mode_zeroes_size_columns() {
        let trace = SessionGenerator::new(AppKind::Downloading, 2).generate_secs(20.0);
        let full = windowed_examples(&trace, SimDuration::from_secs(5), 2, FeatureMode::Full);
        let timing = windowed_examples(
            &trace,
            SimDuration::from_secs(5),
            2,
            FeatureMode::TimingOnly,
        );
        assert_eq!(full.len(), timing.len());
        // Column 3 is the downlink mean size.
        assert!(full[0].0[3] > 1000.0);
        assert_eq!(timing[0].0[3], 0.0);
    }

    #[test]
    fn min_packets_filters_sparse_windows() {
        let trace = SessionGenerator::new(AppKind::Chatting, 5).generate_secs(60.0);
        let lenient = windowed_examples(&trace, SimDuration::from_secs(5), 1, FeatureMode::Full);
        let strict = windowed_examples(&trace, SimDuration::from_secs(5), 8, FeatureMode::Full);
        assert!(strict.len() <= lenient.len());
    }
}
