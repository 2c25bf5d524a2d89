//! Cross-crate integration test of the paper's headline claim: the classifier
//! that identifies users' online activities on original traffic loses most of
//! its accuracy against Orthogonal Reshaping, while naive partitioning (RR)
//! barely helps.
//!
//! Since the stage refactor the defenses run through the **streaming** data
//! path — a [`StagePipeline`] with a [`ReshapeStage`] feeding per-sub-flow
//! [`StreamingWindower`]s — and the old batch composition (Reshaper →
//! sub-traces → windowed examples) is kept only as the independent reference
//! the streaming datasets are checked against (same multiset of examples).

use classifier::dataset::Dataset;
use classifier::ensemble::{AdversaryEnsemble, EnsembleConfig};
use classifier::features::FEATURE_DIM;
use classifier::stream::FlowWindowers;
use classifier::window::{build_dataset, windowed_examples, FeatureMode, DEFAULT_MIN_PACKETS};
use traffic_reshaping::defense::stage::{FlowId, StagePipeline};
use traffic_reshaping::reshape::ranges::SizeRanges;
use traffic_reshaping::reshape::reshaper::Reshaper;
use traffic_reshaping::reshape::scheduler::{OrthogonalRanges, ReshapeAlgorithm, RoundRobin};
use traffic_reshaping::reshape::stage::ReshapeStage;
use traffic_reshaping::traffic::app::AppKind;
use traffic_reshaping::traffic::generator::SessionGenerator;
use traffic_reshaping::traffic::packet::PacketRecord;
use traffic_reshaping::traffic::trace::Trace;
use wlan_sim::time::SimDuration;

fn corpus(seed: u64, sessions: usize, secs: f64) -> Vec<Trace> {
    AppKind::ALL
        .iter()
        .flat_map(|&app| SessionGenerator::new(app, seed).generate_sessions(sessions, secs))
        .collect()
}

/// The streaming path: every trace flows through a fresh stage pipeline into
/// one windower per emitted sub-flow, one packet at a time.
fn streamed_reshaped_dataset(
    traces: &[Trace],
    make_algorithm: impl Fn() -> Box<dyn ReshapeAlgorithm>,
    window: SimDuration,
) -> Dataset {
    let mut dataset = Dataset::new(FEATURE_DIM);
    for trace in traces {
        let app = trace.app().expect("corpus traces are labelled");
        let mut pipeline = StagePipeline::new().with_stage(ReshapeStage::new(make_algorithm()));
        let mut windowers =
            FlowWindowers::for_app(window, DEFAULT_MIN_PACKETS, FeatureMode::Full, app);
        let mut examples = Vec::new();
        let mut sink = |flow: FlowId, packet: &PacketRecord| {
            if let Some(example) = windowers.push(flow as usize, packet) {
                examples.push(example);
            }
        };
        pipeline.process_batch(trace.packets(), &mut sink);
        pipeline.finish(sink);
        examples.extend(windowers.finish());
        for (features, label) in examples {
            dataset.push(features.to_vec(), label);
        }
    }
    dataset
}

/// The batch reference: materialise sub-traces, then window each copy. Kept
/// as the second implementation only to assert equivalence with the
/// streaming path — the evaluation itself uses the pipeline above.
fn batch_reference_dataset(
    traces: &[Trace],
    make_algorithm: impl Fn() -> Box<dyn ReshapeAlgorithm>,
    window: SimDuration,
) -> Dataset {
    let mut dataset = Dataset::new(FEATURE_DIM);
    for trace in traces {
        let mut reshaper = Reshaper::new(make_algorithm());
        for sub in reshaper.reshape(trace).sub_traces() {
            for (features, label) in
                windowed_examples(sub, window, DEFAULT_MIN_PACKETS, FeatureMode::Full)
            {
                dataset.push(features.to_vec(), label);
            }
        }
    }
    dataset
}

/// Sorts a dataset's examples into a canonical order so the streaming path
/// (windows interleaved across sub-flows in time order) can be compared
/// against the batch path (windows grouped per sub-flow) bit for bit.
fn canonical(dataset: &Dataset) -> Vec<(Vec<u64>, usize)> {
    let mut rows: Vec<(Vec<u64>, usize)> = dataset
        .examples()
        .iter()
        .map(|e| (e.features.iter().map(|f| f.to_bits()).collect(), e.label))
        .collect();
    rows.sort();
    rows
}

/// Builds the streaming dataset and asserts it is example-for-example
/// identical (as a multiset) to the batch reference.
fn reshaped_dataset_checked(
    traces: &[Trace],
    make_algorithm: impl Fn() -> Box<dyn ReshapeAlgorithm> + Copy,
    window: SimDuration,
) -> Dataset {
    let streamed = streamed_reshaped_dataset(traces, make_algorithm, window);
    let batch = batch_reference_dataset(traces, make_algorithm, window);
    assert_eq!(
        streamed.len(),
        batch.len(),
        "streaming and batch paths must observe the same number of windows"
    );
    assert_eq!(
        canonical(&streamed),
        canonical(&batch),
        "streaming examples must be a permutation of the batch examples"
    );
    streamed
}

#[test]
fn orthogonal_reshaping_halves_the_adversarys_mean_accuracy() {
    let window = SimDuration::from_secs(5);
    let training = corpus(10, 2, 60.0);
    let evaluation = corpus(20, 1, 60.0);

    let train_set = build_dataset(&training, window, DEFAULT_MIN_PACKETS, FeatureMode::Full);
    assert!(
        train_set.len() > 50,
        "training set too small: {}",
        train_set.len()
    );
    let adversary = AdversaryEnsemble::train(&train_set, &EnsembleConfig::default());

    // Original traffic.
    let eval_original = build_dataset(&evaluation, window, DEFAULT_MIN_PACKETS, FeatureMode::Full);
    let (_, original) = adversary.evaluate_best(&eval_original);

    // Round-robin partitioning, streamed (and checked against batch).
    let eval_rr = reshaped_dataset_checked(&evaluation, || Box::new(RoundRobin::new(3)), window);
    let (_, round_robin) = adversary.evaluate_best(&eval_rr);

    // Orthogonal Reshaping, streamed (and checked against batch).
    let eval_or = reshaped_dataset_checked(
        &evaluation,
        || Box::new(OrthogonalRanges::new(SizeRanges::paper_default())),
        window,
    );
    let (_, orthogonal) = adversary.evaluate_best(&eval_or);

    let acc_original = original.mean_accuracy();
    let acc_rr = round_robin.mean_accuracy();
    let acc_or = orthogonal.mean_accuracy();

    // Shape of Tables II/III: original is high, RR barely changes it, OR
    // roughly halves it (or better).
    assert!(acc_original > 0.7, "original accuracy {acc_original}");
    assert!(
        acc_rr > acc_or,
        "round robin ({acc_rr}) should leave the adversary stronger than OR ({acc_or})"
    );
    assert!(
        acc_or < acc_original * 0.75,
        "OR should cut mean accuracy substantially: original {acc_original}, OR {acc_or}"
    );
}

#[test]
fn under_reshaping_false_positives_concentrate_on_small_and_large_packet_apps() {
    // Table IV's mechanism: OR sub-flows look like chatting (small packets) or
    // downloading (full-size packets), so those classes absorb wrong labels.
    let window = SimDuration::from_secs(5);
    let training = corpus(30, 2, 60.0);
    let evaluation = corpus(40, 1, 60.0);
    let adversary = AdversaryEnsemble::train(
        &build_dataset(&training, window, DEFAULT_MIN_PACKETS, FeatureMode::Full),
        &EnsembleConfig::default(),
    );
    let eval_or = reshaped_dataset_checked(
        &evaluation,
        || Box::new(OrthogonalRanges::new(SizeRanges::paper_default())),
        window,
    );
    let (_, matrix) = adversary.evaluate_best(&eval_or);

    let fp = |app: AppKind| matrix.false_positive_rate(app.class_index());
    let absorbers = fp(AppKind::Chatting)
        + fp(AppKind::Downloading)
        + fp(AppKind::Uploading)
        + fp(AppKind::Video);
    let others = fp(AppKind::Browsing) + fp(AppKind::Gaming) + fp(AppKind::BitTorrent);
    assert!(
        absorbers > others,
        "the small/large-packet classes should absorb the misclassifications \
         (absorbers {absorbers:.3} vs others {others:.3})"
    );
    // Mean FP under OR is clearly above the near-zero FP on original traffic.
    assert!(matrix.mean_false_positive_rate() > 0.02);
}

#[test]
fn transforming_defenses_stream_through_the_same_unified_path() {
    // The bench evaluation's single streaming path handles transforming
    // defenses too: padding examples streamed through the stage pipeline
    // match the batch wrapper -> windowing reference exactly.
    use bench::pipeline::{apply_defense, defended_examples};
    use bench::{DefenseSpec, ExperimentConfig};

    let config = ExperimentConfig::quick();
    let trace = SessionGenerator::new(AppKind::Chatting, 77).generate_secs(45.0);
    for shorthand in ["padding", "morphing"] {
        let defense = DefenseSpec::parse(shorthand).unwrap();
        let streamed = defended_examples(&trace, &defense, &config, 3, FeatureMode::Full);
        let mut batch = Vec::new();
        for observed in apply_defense(&trace, &defense, &config, 3) {
            batch.extend(windowed_examples(
                &observed,
                config.window(),
                DEFAULT_MIN_PACKETS,
                FeatureMode::Full,
            ));
        }
        assert!(!streamed.is_empty(), "{shorthand} produced no examples");
        assert_eq!(streamed, batch, "{shorthand} paths diverge");
    }
}
