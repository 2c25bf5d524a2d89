//! Table experiments: Tables I through VI of the paper, plus the §V-C
//! reshaping + morphing combination.

use classifier::metrics::ConfusionMatrix;
use classifier::window::FeatureMode;
use defenses::morphing::{paper_morphing_target, TrafficMorpher};
use defenses::overhead::Overhead;
use defenses::padding::PacketPadder;
use reshape_core::combined::CombinedDefense;
use reshape_core::ranges::SizeRanges;
use reshape_core::reshaper::Reshaper;
use reshape_core::scheduler::OrthogonalRanges;
use reshape_core::vif::VifIndex;
use traffic_gen::app::AppKind;
use traffic_gen::generator::SessionGenerator;
use traffic_gen::packet::Direction;
use traffic_gen::profile::paper_profile;
use traffic_gen::trace::Trace;

use crate::corpus::ExperimentConfig;
use crate::pipeline;
use crate::scenario::DefenseSpec;

// ---------------------------------------------------------------------------
// Table I — traffic features on virtual interfaces (AP -> user direction)
// ---------------------------------------------------------------------------

/// One row of Table I: an application's downlink features as the paper
/// publishes them, on the original traffic and on each of the three OR
/// virtual interfaces.
#[derive(Debug, Clone)]
pub struct FeatureRow {
    /// The application.
    pub app: AppKind,
    /// `(mean packet size, mean inter-arrival)` of the paper's original
    /// downlink traces (Table I, "Original").
    pub paper: (f64, f64),
    /// `(mean packet size, mean inter-arrival)` of the original downlink traffic.
    pub original: (f64, f64),
    /// `(mean packet size, mean inter-arrival)` per virtual interface, in order.
    pub per_interface: Vec<(f64, f64)>,
}

/// Table I: features of the original downlink traffic vs. the three OR
/// virtual interfaces, for every application, beside the paper's values.
pub fn table1(config: &ExperimentConfig) -> Vec<FeatureRow> {
    AppKind::ALL
        .iter()
        .map(|&app| {
            let trace = SessionGenerator::new(app, config.eval_seed)
                .generate_secs(config.eval_session_secs);
            let downlink = Trace::from_packets(
                Some(app),
                trace.packets_in(Direction::Downlink).copied().collect(),
            );
            let mut reshaper = Reshaper::new(Box::new(OrthogonalRanges::new(
                SizeRanges::for_interface_count(config.interfaces).expect("valid interface count"),
            )));
            let outcome = reshaper.reshape(&downlink);
            let stats = |t: &Trace| {
                (
                    t.mean_packet_size(),
                    t.mean_interarrival_secs(Direction::Downlink),
                )
            };
            let paper = paper_profile(app);
            FeatureRow {
                app,
                paper: (paper.mean_packet_size, paper.mean_interarrival_secs),
                original: stats(&downlink),
                per_interface: outcome.sub_traces().iter().map(stats).collect(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Tables II / III — classification accuracy per defense
// ---------------------------------------------------------------------------

/// An accuracy table (Tables II, III and V share this shape): per-application
/// accuracy for a set of defense columns, plus the mean row.
#[derive(Debug, Clone)]
pub struct AccuracyTable {
    /// The eavesdropping window in seconds.
    pub window_secs: f64,
    /// Column labels.
    pub columns: Vec<String>,
    /// Per-application accuracies (fractions in 0..=1), one entry per column.
    pub rows: Vec<(AppKind, Vec<f64>)>,
    /// Mean accuracy per column.
    pub mean: Vec<f64>,
}

impl AccuracyTable {
    fn from_matrices(window_secs: f64, results: Vec<(String, ConfusionMatrix)>) -> Self {
        let columns: Vec<String> = results.iter().map(|(name, _)| name.clone()).collect();
        let rows = AppKind::ALL
            .iter()
            .map(|&app| {
                let accs = results
                    .iter()
                    .map(|(_, m)| m.class_accuracy(app.class_index()))
                    .collect();
                (app, accs)
            })
            .collect();
        let mean = results.iter().map(|(_, m)| m.mean_accuracy()).collect();
        AccuracyTable {
            window_secs,
            columns,
            rows,
            mean,
        }
    }
}

/// The columns of Tables II and III in paper order: the printed label and
/// the defense's shorthand.
const TABLE23: [(&str, &str); 5] = [
    ("Original", "none"),
    ("FH", "fh"),
    ("RA", "ra"),
    ("RR", "rr"),
    ("OR", "or"),
];

/// The defense a table column names by its shorthand.
fn defense(shorthand: &str) -> DefenseSpec {
    DefenseSpec::parse(shorthand).expect("table defenses are valid shorthands")
}

/// Tables II and III: classification accuracy of the original traffic and of
/// FH / RA / RR / OR, for the eavesdropping window of `config`.
pub fn accuracy_table(config: &ExperimentConfig) -> AccuracyTable {
    let adversary = pipeline::train_adversary(config, FeatureMode::Full);
    let eval = config.evaluation_corpus();
    let results = TABLE23
        .iter()
        .map(|&(label, shorthand)| {
            let matrix = pipeline::evaluate_defense(
                &adversary,
                &eval,
                &defense(shorthand),
                config,
                FeatureMode::Full,
            );
            (label.to_string(), matrix)
        })
        .collect();
    AccuracyTable::from_matrices(config.window_secs, results)
}

/// Table II (W = 5 s).
pub fn table2(config: &ExperimentConfig) -> AccuracyTable {
    accuracy_table(config)
}

/// Table III (W = 60 s): same pipeline with a larger window.
pub fn table3(config: &ExperimentConfig) -> AccuracyTable {
    accuracy_table(config)
}

// ---------------------------------------------------------------------------
// Table IV — false positives
// ---------------------------------------------------------------------------

/// Table IV: per-application false-positive rate of the classifier on the
/// original traffic and under OR.
#[derive(Debug, Clone)]
pub struct FalsePositiveTable {
    /// The eavesdropping window in seconds.
    pub window_secs: f64,
    /// Per-application `(original FP, OR FP)` rates (fractions).
    pub rows: Vec<(AppKind, f64, f64)>,
    /// Mean FP over applications, `(original, OR)`.
    pub mean: (f64, f64),
}

/// Table IV runner.
pub fn table4(config: &ExperimentConfig) -> FalsePositiveTable {
    let adversary = pipeline::train_adversary(config, FeatureMode::Full);
    let eval = config.evaluation_corpus();
    let evaluate = |shorthand| {
        pipeline::evaluate_defense(
            &adversary,
            &eval,
            &defense(shorthand),
            config,
            FeatureMode::Full,
        )
    };
    let original = &evaluate("none");
    let reshaped = &evaluate("or");
    let rows: Vec<(AppKind, f64, f64)> = AppKind::ALL
        .iter()
        .map(|&app| {
            (
                app,
                original.false_positive_rate(app.class_index()),
                reshaped.false_positive_rate(app.class_index()),
            )
        })
        .collect();
    let mean = (
        rows.iter().map(|(_, o, _)| o).sum::<f64>() / rows.len() as f64,
        rows.iter().map(|(_, _, r)| r).sum::<f64>() / rows.len() as f64,
    );
    FalsePositiveTable {
        window_secs: config.window_secs,
        rows,
        mean,
    }
}

// ---------------------------------------------------------------------------
// Table V — accuracy vs. number of virtual interfaces
// ---------------------------------------------------------------------------

/// Table V: OR accuracy when the number of virtual interfaces changes.
pub fn table5(config: &ExperimentConfig, interface_counts: &[usize]) -> AccuracyTable {
    let adversary = pipeline::train_adversary(config, FeatureMode::Full);
    let eval = config.evaluation_corpus();
    let results: Vec<(String, ConfusionMatrix)> = interface_counts
        .iter()
        .map(|&interfaces| {
            let cfg = ExperimentConfig {
                interfaces,
                ..*config
            };
            let matrix = pipeline::evaluate_defense(
                &adversary,
                &eval,
                &defense("or"),
                &cfg,
                FeatureMode::Full,
            );
            (format!("I = {interfaces}"), matrix)
        })
        .collect();
    AccuracyTable::from_matrices(config.window_secs, results)
}

// ---------------------------------------------------------------------------
// Table VI — efficiency comparison (padding / morphing vs. reshaping)
// ---------------------------------------------------------------------------

/// One row of Table VI.
#[derive(Debug, Clone)]
pub struct EfficiencyRow {
    /// The application.
    pub app: AppKind,
    /// Accuracy of the timing-feature attack against padded/morphed traffic
    /// (identical for both since neither touches timing).
    pub accuracy_padding_morphing: f64,
    /// Accuracy of the full-feature attack against OR-reshaped traffic.
    pub accuracy_reshaping: f64,
    /// Padding overhead in percent.
    pub padding_overhead: f64,
    /// Morphing overhead in percent.
    pub morphing_overhead: f64,
}

/// Restricts a trace to its dominant direction (the one carrying more bytes),
/// which is where the byte-overhead of padding and morphing is accounted.
fn dominant_direction_trace(trace: &Trace) -> Trace {
    let down_bytes: u64 = trace
        .packets_in(Direction::Downlink)
        .map(|p| p.size as u64)
        .sum();
    let up_bytes: u64 = trace
        .packets_in(Direction::Uplink)
        .map(|p| p.size as u64)
        .sum();
    let direction = if up_bytes > down_bytes {
        Direction::Uplink
    } else {
        Direction::Downlink
    };
    Trace::from_packets(trace.app(), trace.packets_in(direction).copied().collect())
}

/// Table VI: the timing-only attack succeeds against padding and morphing at
/// great cost, while reshaping reduces accuracy at zero byte overhead.
#[derive(Debug, Clone)]
pub struct EfficiencyTable {
    /// Per-application rows.
    pub rows: Vec<EfficiencyRow>,
    /// Mean of each numeric column:
    /// `(accuracy padding/morphing, accuracy reshaping, padding %, morphing %)`.
    pub mean: (f64, f64, f64, f64),
}

/// Table VI runner.
pub fn table6(config: &ExperimentConfig) -> EfficiencyTable {
    // Timing-only adversary against padded traffic (padding and morphing leave
    // timing untouched, so the accuracy is the same for both — §IV-D).
    let timing_adversary = pipeline::train_adversary(config, FeatureMode::TimingOnly);
    let full_adversary = pipeline::train_adversary(config, FeatureMode::Full);
    let eval = config.evaluation_corpus();

    let padded_matrix = pipeline::evaluate_defense(
        &timing_adversary,
        &eval,
        &defense("padding"),
        config,
        FeatureMode::TimingOnly,
    );
    let reshaped_matrix = pipeline::evaluate_defense(
        &full_adversary,
        &eval,
        &defense("or"),
        config,
        FeatureMode::Full,
    );

    // Overheads are computed per application over the evaluation traces.
    // Like the paper, the overhead is measured on the application's dominant
    // (data-carrying) direction: padding the downlink ACK stream of an upload
    // session, for example, is not part of the comparison.
    let mut rows = Vec::new();
    for app in AppKind::ALL {
        let traces: Vec<&Trace> = eval.iter().filter(|t| t.app() == Some(app)).collect();
        let mut padding_overhead = Overhead::default();
        let mut morphing_overhead = Overhead::default();
        for trace in &traces {
            let dominant = dominant_direction_trace(trace);
            let (_, pad) = PacketPadder::new().apply(&dominant);
            padding_overhead = padding_overhead.combined(&pad);
            let target_app = paper_morphing_target(app);
            let target = SessionGenerator::new(target_app, config.train_seed ^ 0x0f0f)
                .generate_secs(config.train_session_secs);
            let (_, morph) = TrafficMorpher::from_target_trace(&target).apply(&dominant);
            morphing_overhead = morphing_overhead.combined(&morph);
        }
        rows.push(EfficiencyRow {
            app,
            accuracy_padding_morphing: padded_matrix.class_accuracy(app.class_index()),
            accuracy_reshaping: reshaped_matrix.class_accuracy(app.class_index()),
            padding_overhead: padding_overhead.percent(),
            morphing_overhead: morphing_overhead.percent(),
        });
    }
    let n = rows.len() as f64;
    let mean = (
        rows.iter()
            .map(|r| r.accuracy_padding_morphing)
            .sum::<f64>()
            / n,
        rows.iter().map(|r| r.accuracy_reshaping).sum::<f64>() / n,
        rows.iter().map(|r| r.padding_overhead).sum::<f64>() / n,
        rows.iter().map(|r| r.morphing_overhead).sum::<f64>() / n,
    );
    EfficiencyTable { rows, mean }
}

// ---------------------------------------------------------------------------
// §V-C — reshaping combined with morphing
// ---------------------------------------------------------------------------

/// Result of the §V-C experiment: OR alone vs. OR plus morphing on the
/// small-packet interface.
#[derive(Debug, Clone)]
pub struct CombinedResult {
    /// Mean accuracy under OR alone.
    pub or_accuracy: f64,
    /// Mean accuracy under OR + per-interface morphing.
    pub combined_accuracy: f64,
    /// Byte overhead of the combined defense in percent.
    pub combined_overhead: f64,
}

/// §V-C runner: morph the small-packet interface (interface 1) toward gaming
/// on top of OR and measure accuracy and overhead.
pub fn combined_defense(config: &ExperimentConfig) -> CombinedResult {
    use classifier::dataset::Dataset;
    use classifier::features::FEATURE_DIM;
    use classifier::window::{windowed_examples, DEFAULT_MIN_PACKETS};

    let adversary = pipeline::train_adversary(config, FeatureMode::Full);
    let eval = config.evaluation_corpus();

    let or_matrix =
        pipeline::evaluate_defense(&adversary, &eval, &defense("or"), config, FeatureMode::Full);

    // OR + morphing of interface 1 (small packets) toward gaming.
    let gaming = SessionGenerator::new(AppKind::Gaming, config.train_seed ^ 0xcafe)
        .generate_secs(config.train_session_secs);
    let mut dataset = Dataset::new(FEATURE_DIM);
    let mut overhead = Overhead::default();
    for trace in &eval {
        let morpher = TrafficMorpher::from_target_trace(&gaming);
        let mut defense = CombinedDefense::new(
            Box::new(OrthogonalRanges::new(
                SizeRanges::for_interface_count(config.interfaces).expect("valid count"),
            )),
            vec![(VifIndex::new(0), morpher)],
        );
        let outcome = defense.apply(trace);
        overhead = overhead.combined(&outcome.overhead);
        for sub in &outcome.sub_traces {
            for (features, label) in
                windowed_examples(sub, config.window(), DEFAULT_MIN_PACKETS, FeatureMode::Full)
            {
                dataset.push(features.to_vec(), label);
            }
        }
    }
    let combined_accuracy = if dataset.is_empty() {
        0.0
    } else {
        adversary.evaluate_best(&dataset).1.mean_accuracy()
    };
    CombinedResult {
        or_accuracy: or_matrix.mean_accuracy(),
        combined_accuracy,
        combined_overhead: overhead.percent(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentConfig {
        ExperimentConfig::quick()
    }

    #[test]
    fn table1_reproduces_the_per_interface_feature_shift() {
        let rows = table1(&quick());
        assert_eq!(rows.len(), 7);
        for row in &rows {
            assert_eq!(row.per_interface.len(), 3);
            // Interface 1 carries only small packets, interface 3 only near-MTU ones.
            assert!(row.per_interface[0].0 <= 232.0, "{:?}", row);
            assert!(
                row.per_interface[2].0 >= 1540.0 || row.per_interface[2].1 == 0.0,
                "{:?}",
                row
            );
            // Inter-arrival per interface is at least the original (fewer packets in the same span).
            for (_, gap) in &row.per_interface {
                assert!(*gap >= 0.0);
            }
        }
        // Downloading keeps a near-MTU mean on the original trace.
        let downloads = rows.iter().find(|r| r.app == AppKind::Downloading).unwrap();
        assert!(downloads.original.0 > 1500.0);
    }

    #[test]
    fn accuracy_table_has_the_papers_shape() {
        let table = table2(&quick());
        assert_eq!(table.columns, vec!["Original", "FH", "RA", "RR", "OR"]);
        assert_eq!(table.rows.len(), 7);
        assert_eq!(table.mean.len(), 5);
        let (original, or) = (table.mean[0], table.mean[4]);
        assert!(
            original > or,
            "OR must reduce mean accuracy ({original} vs {or})"
        );
        let (_, downloading) = &table.rows[AppKind::Downloading.class_index()];
        assert!(downloading[0] > 0.5);
    }

    #[test]
    fn table4_false_positives_increase_under_or() {
        let table = table4(&quick());
        assert_eq!(table.rows.len(), 7);
        assert!(
            table.mean.1 >= table.mean.0,
            "OR should raise the mean false-positive rate ({} vs {})",
            table.mean.1,
            table.mean.0
        );
    }

    #[test]
    fn table6_shows_zero_overhead_reshaping_beating_padding() {
        let table = table6(&quick());
        assert_eq!(table.rows.len(), 7);
        let (acc_pad, acc_or, pad_overhead, morph_overhead) = table.mean;
        assert!(
            pad_overhead > morph_overhead,
            "padding {pad_overhead} > morphing {morph_overhead}"
        );
        assert!(pad_overhead > 50.0);
        assert!(
            acc_pad > acc_or,
            "timing attack on padding ({acc_pad}) beats attack on OR ({acc_or})"
        );
        // Downloading is already MTU-sized: negligible padding overhead.
        let download = table
            .rows
            .iter()
            .find(|r| r.app == AppKind::Downloading)
            .unwrap();
        assert!(download.padding_overhead < 40.0);
    }
}
