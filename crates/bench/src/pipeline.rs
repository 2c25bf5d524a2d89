//! The evaluation pipeline shared by every table experiment.
//!
//! 1. Train the adversary (SVM + NN ensemble) on *original*, un-defended
//!    traffic, cut into eavesdropping windows of `W` seconds.
//! 2. Apply a defense to each evaluation trace, producing the sub-flows the
//!    adversary actually observes (one per virtual interface / channel / MAC
//!    pseudonym, or the trace itself when no defense is active).
//! 3. Window each observed sub-flow, classify every window, and score the
//!    prediction against the ground-truth application of the original trace.
//!
//! That is exactly the paper's methodology: the adversary knows what original
//! application traffic looks like, and the defense succeeds when per-interface
//! sub-flows no longer resemble it.
//!
//! There is exactly **one** defended data path: [`defended_examples`] builds
//! the streaming stage pipeline of any [`DefenseSpec`] — padding, morphing,
//! pseudonyms, frequency hopping, the reshaping schedulers, or compositions
//! of them — and streams packets through it into one `StreamingWindower` per
//! emitted sub-flow, touching each packet exactly once. There is no defense-specific batch plumbing left in the evaluation;
//! the batch wrappers survive only inside [`apply_defense`], which is kept as
//! the independent reference the equivalence tests check the streaming path
//! against.

use classifier::dataset::Dataset;
use classifier::ensemble::{AdversaryEnsemble, EnsembleConfig};
use classifier::features::FEATURE_DIM;
use classifier::metrics::ConfusionMatrix;
use classifier::online::{OnlineAdversary, PrequentialEvaluator};
use classifier::stream::{FlowWindowers, WindowExample};
use classifier::window::{build_dataset, FeatureMode, DEFAULT_MIN_PACKETS};
use defenses::frequency_hopping::FrequencyHopper;
use defenses::morphing::{paper_morphing_target, TrafficMorpher};
use defenses::padding::PacketPadder;
use defenses::pseudonym::PseudonymRotator;
use defenses::spec::{DefenseStageSpec, StageContext};
use defenses::stage::{FlowId, STAGE_BATCH};
use rand::rngs::StdRng;
use rand::SeedableRng;
use reshape_core::reshaper::Reshaper;
use std::sync::atomic::{AtomicUsize, Ordering};
use traffic_gen::app::AppKind;
use traffic_gen::generator::SessionGenerator;
use traffic_gen::packet::PacketRecord;
use traffic_gen::trace::Trace;
use wlan_sim::time::SimDuration;

use crate::corpus::ExperimentConfig;
use crate::scenario::spec::OrSchedulers;
use crate::scenario::{DefenseSpec, StageSpec};

/// Trains the paper's adversary on original traffic windows.
pub fn train_adversary(config: &ExperimentConfig, mode: FeatureMode) -> AdversaryEnsemble {
    let training = config.training_corpus();
    let dataset = build_dataset(&training, config.window(), DEFAULT_MIN_PACKETS, mode);
    AdversaryEnsemble::train(&dataset, &adversary_config(config))
}

/// The members' hyper-parameters and seed, shared by the batch and the
/// online adversary.
fn adversary_config(config: &ExperimentConfig) -> EnsembleConfig {
    EnsembleConfig {
        seed: config.train_seed ^ 0xD15C,
        ..EnsembleConfig::default()
    }
}

/// Applies a defense to one labelled trace, returning the sub-flows the
/// adversary observes. Each sub-flow keeps the ground-truth label so the
/// evaluation can score predictions.
///
/// This is the **batch reference** built on the per-stage batch wrappers
/// (`apply` / `partition` / `Reshaper`), kept so the equivalence tests can
/// check the streaming path against an independent composition; the
/// evaluation itself never calls it. Each stage's wrapper is folded over the
/// sub-traces the previous stages produced, in order, so the reference
/// matches the streaming path wherever the stages behind a partitioning
/// stage treat each packet on its own (padding, the reshaping schedulers).
///
/// # Panics
/// If a stage's parameters or interface count are invalid.
pub fn apply_defense(
    trace: &Trace,
    defense: &DefenseSpec,
    config: &ExperimentConfig,
    seed: u64,
) -> Vec<Trace> {
    defense
        .stages
        .iter()
        .fold(vec![trace.clone()], |observed, stage| {
            observed
                .iter()
                .flat_map(|sub| apply_stage(stage, sub, config, seed))
                .collect()
        })
}

/// One stage's batch wrapper over one (sub-)trace, seeded like the
/// streaming stage [`DefenseSpec::build`] constructs.
fn apply_stage(
    stage: &StageSpec,
    trace: &Trace,
    config: &ExperimentConfig,
    seed: u64,
) -> Vec<Trace> {
    match *stage {
        StageSpec::Defense(DefenseStageSpec::Padding { size }) => {
            let padder = size.map_or_else(PacketPadder::new, PacketPadder::to_size);
            vec![padder.apply(trace).0]
        }
        StageSpec::Defense(DefenseStageSpec::Morphing { target }) => {
            vec![morphed_reference(trace, target, config, seed)]
        }
        StageSpec::Defense(DefenseStageSpec::Pseudonym { period_secs }) => {
            let rotator = period_secs.map_or_else(PseudonymRotator::default, |secs| {
                PseudonymRotator::new(SimDuration::from_secs_f64(secs))
            });
            let mut rng = StdRng::seed_from_u64(seed);
            let parts = rotator.partition(trace, &mut rng);
            parts.into_iter().map(|(_, t)| t).collect()
        }
        StageSpec::Defense(DefenseStageSpec::FrequencyHopping { dwell_ms }) => {
            let hopper = dwell_ms.map_or_else(FrequencyHopper::default, |ms| {
                let channels = FrequencyHopper::default().channels().to_vec();
                FrequencyHopper::new(channels, SimDuration::from_millis(ms))
            });
            let parts = hopper.partition(trace);
            parts.into_iter().map(|(_, t)| t).collect()
        }
        StageSpec::Reshape {
            algorithm,
            interfaces,
        } => {
            let scheduler = algorithm
                .build(
                    interfaces.unwrap_or(config.interfaces),
                    seed,
                    &OrSchedulers::default(),
                )
                .expect("reference interface count is valid");
            Reshaper::new(scheduler)
                .reshape(trace)
                .sub_traces()
                .to_vec()
        }
    }
}

/// The batch morphing reference: the paper pairing (unless `target`
/// overrides it) with the same seeds as the streaming morphing stage.
fn morphed_reference(
    trace: &Trace,
    target: Option<AppKind>,
    config: &ExperimentConfig,
    seed: u64,
) -> Trace {
    let app = trace.app().expect("evaluation traces are labelled");
    let target_app = target.unwrap_or_else(|| paper_morphing_target(app));
    let target_trace =
        SessionGenerator::new(target_app, seed ^ 0xfeed).generate_secs(config.train_session_secs);
    TrafficMorpher::from_target_trace(&target_trace)
        .apply(trace)
        .0
}

/// Streams one evaluation trace through a defense and returns every window
/// example the adversary observes.
///
/// Every defense — transforming, partitioning, reshaping or composed — runs
/// through the same stage pipeline: packets go through the stages in
/// [`STAGE_BATCH`]-sized slices (`StagePipeline::process_batch`), and each
/// staged slice goes into one
/// [`StreamingWindower`](classifier::stream::StreamingWindower) per emitted sub-flow via
/// [`FlowWindowers::push_slice`] — the slice path a scenario station takes —
/// touching each packet exactly once with no sub-trace or window
/// materialisation.
///
/// The pipeline is built with the materialised trace as its
/// [`StageContext::source`], so morphing estimates its source CDF from the
/// actual traffic, and its target calibration session (seeded from `seed`)
/// lasts `config.train_session_secs`.
///
/// # Panics
/// If `defense` does not build for `config.interfaces`, or a morphing
/// calibration session holds no packets. The evaluated defenses are
/// constants or specs `ScenarioSpec::build` has already validated.
pub fn defended_examples(
    trace: &Trace,
    defense: &DefenseSpec,
    config: &ExperimentConfig,
    seed: u64,
    mode: FeatureMode,
) -> Vec<WindowExample> {
    let Some(app) = trace.app() else {
        return Vec::new();
    };
    let ctx = StageContext::batch(app, seed, config.train_session_secs, trace);
    let mut pipeline = defense
        .build(&ctx, config.interfaces)
        .expect("evaluated defenses are constants or validated specs");
    let mut windowers = FlowWindowers::for_app(config.window(), DEFAULT_MIN_PACKETS, mode, app);
    let mut out = Vec::new();
    let mut flows = Vec::with_capacity(STAGE_BATCH);
    let mut staged = Vec::with_capacity(STAGE_BATCH);
    // Every slice of the trace, then `None` for the end-of-session flush.
    for batch in trace.packets().chunks(STAGE_BATCH).map(Some).chain([None]) {
        flows.clear();
        staged.clear();
        let collect = |flow: FlowId, packet: &PacketRecord| {
            flows.push(flow as usize);
            staged.push(*packet);
        };
        match batch {
            Some(batch) => pipeline.process_batch(batch, collect),
            None => pipeline.finish(collect),
        }
        windowers.push_slice(&flows, &staged, &mut out);
    }
    out.extend(windowers.finish());
    out
}

/// Evaluates one defense: the adversary classifies every window of every
/// observed sub-flow; the resulting confusion matrix is returned.
///
/// The evaluation is sharded with scoped threads — one shard per evaluation
/// trace, at most `available_parallelism` workers — and each shard streams
/// its trace through the defense via [`defended_examples`]. Shard results are
/// joined in trace order, so the outcome is deterministic regardless of
/// thread scheduling.
pub fn evaluate_defense(
    adversary: &AdversaryEnsemble,
    eval_traces: &[Trace],
    defense: &DefenseSpec,
    config: &ExperimentConfig,
    mode: FeatureMode,
) -> ConfusionMatrix {
    let shards = defended_example_shards(eval_traces, defense, config, config.eval_seed, mode);
    let mut dataset = Dataset::new(FEATURE_DIM);
    for (features, label) in shards.into_iter().flatten() {
        dataset.push(features.to_vec(), label);
    }
    if dataset.is_empty() {
        return ConfusionMatrix::new(AppKind::COUNT);
    }
    let (_, matrix) = adversary.evaluate_best(&dataset);
    // The matrix always covers all seven classes for table printing.
    matrix.widen_to(AppKind::COUNT)
}

/// Streams every trace through a defense in parallel, returning the
/// per-trace example shards in trace order. At most `available_parallelism`
/// scoped workers each take the next unprocessed trace until none is left,
/// so a corpus costs that many thread spawns, not one per trace. The shared
/// body of the batch and online evaluation modes.
fn defended_example_shards(
    eval_traces: &[Trace],
    defense: &DefenseSpec,
    config: &ExperimentConfig,
    seed_base: u64,
    mode: FeatureMode,
) -> Vec<Vec<WindowExample>> {
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(8)
        .min(eval_traces.len());
    let next = AtomicUsize::new(0);
    let mut shards: Vec<Vec<WindowExample>> = eval_traces.iter().map(|_| Vec::new()).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(trace) = eval_traces.get(i) else {
                            break done;
                        };
                        let seed = seed_base ^ (i as u64) << 8;
                        done.push((i, defended_examples(trace, defense, config, seed, mode)));
                    }
                })
            })
            .collect();
        for handle in handles {
            for (i, examples) in handle.join().expect("evaluation shard panicked") {
                shards[i] = examples;
            }
        }
    });
    shards
}

/// Interleaves per-trace example shards round-robin (first window of every
/// trace, then second window of every trace, …), which is the order a live
/// eavesdropper watching all sessions concurrently would see windows close.
/// An online learner must not receive the stream sorted by application.
fn interleave_shards(shards: Vec<Vec<WindowExample>>) -> Vec<WindowExample> {
    let total: usize = shards.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut shards: Vec<std::vec::IntoIter<WindowExample>> =
        shards.into_iter().map(Vec::into_iter).collect();
    while out.len() < total {
        for shard in &mut shards {
            if let Some(example) = shard.next() {
                out.push(example);
            }
        }
    }
    out
}

/// Creates the untrained online counterpart of [`train_adversary`]'s
/// ensemble: same members, same seeding rule, but learning one window at a
/// time behind a running normalizer.
pub fn online_adversary(config: &ExperimentConfig) -> OnlineAdversary {
    OnlineAdversary::new(FEATURE_DIM, AppKind::COUNT, &adversary_config(config))
}

/// Trains the streaming adversary prequentially on the **undefended**
/// training corpus — the online-mode analogue of [`train_adversary`]. The
/// returned evaluator carries the warm adversary, which every online
/// scenario station forks.
pub fn train_adversary_online(
    config: &ExperimentConfig,
    mode: FeatureMode,
) -> PrequentialEvaluator {
    let mut evaluator = PrequentialEvaluator::new(online_adversary(config), 25);
    let training = config.training_corpus();
    score_undefended_online(&mut evaluator, &training, config, config.train_seed, mode);
    evaluator
}

/// Scores undefended traffic in **online-adversary mode**: the window
/// examples of all traces are interleaved round-robin (the order a live
/// eavesdropper sees windows close across concurrent sessions) and scored
/// test-then-train through the evaluator's adversary, which learns from
/// every window it scores.
fn score_undefended_online(
    evaluator: &mut PrequentialEvaluator,
    traces: &[Trace],
    config: &ExperimentConfig,
    seed_base: u64,
    mode: FeatureMode,
) {
    let shards = defended_example_shards(traces, &DefenseSpec::none(), config, seed_base, mode);
    for (features, label) in &interleave_shards(shards) {
        evaluator.test_then_train(features, *label);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classifier::window::windowed_examples;

    /// Parses a shorthand the tests name literally.
    fn spec(shorthand: &str) -> DefenseSpec {
        DefenseSpec::parse(shorthand).expect("valid shorthand")
    }

    #[test]
    fn streaming_evaluation_sees_the_same_windows_as_the_batch_path() {
        // The unified stage-pipeline evaluation must observe exactly the
        // windows the independent batch reference (per-stage wrappers ->
        // sub-traces -> windowed_examples) does — for every defense,
        // including the composed pipelines in either order.
        let config = ExperimentConfig::quick();
        let trace = SessionGenerator::new(AppKind::BitTorrent, 5).generate_secs(40.0);
        for shorthand in [
            "none",
            "ra",
            "rr",
            "or",
            "or_mod",
            "fh",
            "pseudonym",
            "padding",
            "morphing",
            "morph_or",
            "padding+or",
            "or+padding",
        ] {
            let defense = spec(shorthand);
            let streamed = defended_examples(&trace, &defense, &config, 1, FeatureMode::Full);
            let batch: usize = apply_defense(&trace, &defense, &config, 1)
                .iter()
                .map(|observed| {
                    windowed_examples(
                        observed,
                        config.window(),
                        DEFAULT_MIN_PACKETS,
                        FeatureMode::Full,
                    )
                    .len()
                })
                .sum();
            assert_eq!(streamed.len(), batch, "{shorthand} window counts diverge");
            assert!(!streamed.is_empty(), "{shorthand} produced no examples");
        }
    }

    #[test]
    fn apply_defense_preserves_packets_for_partitioning_defenses() {
        let config = ExperimentConfig::quick();
        let trace = SessionGenerator::new(AppKind::BitTorrent, 5).generate_secs(20.0);
        for shorthand in ["none", "fh", "ra", "rr", "or", "or_mod", "pseudonym"] {
            let observed = apply_defense(&trace, &spec(shorthand), &config, 1);
            let total: usize = observed.iter().map(Trace::len).sum();
            assert_eq!(
                total,
                trace.len(),
                "{shorthand} must not add or drop packets"
            );
        }
        // Padding, morphing and the compositions keep the packet count but
        // may grow bytes.
        for shorthand in ["padding", "morphing", "morph_or", "or+padding"] {
            let observed = apply_defense(&trace, &spec(shorthand), &config, 1);
            let total: usize = observed.iter().map(Trace::len).sum();
            assert_eq!(total, trace.len());
            let bytes: u64 = observed.iter().map(Trace::total_bytes).sum();
            assert!(bytes >= trace.total_bytes());
        }
    }

    #[test]
    fn composed_pipeline_reports_overhead_through_the_shared_ledger() {
        // Morph-then-reshape: the pipeline ledger shows the morphing bytes
        // (reshaping adds none), and the per-stage ledgers agree.
        let config = ExperimentConfig::quick();
        let trace = SessionGenerator::new(AppKind::Chatting, 9).generate_secs(40.0);
        let ctx = StageContext::batch(AppKind::Chatting, 7, config.train_session_secs, &trace);
        let mut pipeline = spec("morph_or")
            .build(&ctx, config.interfaces)
            .expect("valid composition");
        let mut emitted = 0usize;
        pipeline.process_batch(trace.packets(), |_, _| emitted += 1);
        pipeline.finish(|_, _| emitted += 1);
        assert_eq!(emitted, trace.len());
        let end_to_end = pipeline.overhead();
        assert!(end_to_end.percent() > 0.0, "morphing chat adds bytes");
        assert_eq!(end_to_end.transformed_packets, end_to_end.original_packets);
        let morph = pipeline.stages()[0].overhead();
        let reshape = pipeline.stages()[1].overhead();
        assert_eq!(end_to_end.added_bytes(), morph.added_bytes());
        assert_eq!(reshape.percent(), 0.0, "reshaping is zero-overhead");
        assert_eq!(reshape.original_bytes, morph.transformed_bytes);
    }

    #[test]
    fn composed_overhead_covers_each_components_contribution() {
        // Regression for the observation that morphing and morph∘OR report
        // the *same* overhead (reports/throughput_baseline.json: 16.51% for
        // both).
        // Verified correct, not a ledger bug: ReshapeStage records every
        // byte through its own ledger (absorbed == emitted) but adds none,
        // so the composed end-to-end overhead equals the morphing
        // contribution exactly. The invariant this pins: wherever padding
        // (or any byte-adding stage) applies, the composed pipeline's
        // overhead is at least every component's added bytes.
        use crate::scenario::AlgorithmSpec;

        let trace = SessionGenerator::new(AppKind::BitTorrent, 3).generate_secs(40.0);
        let ctx = StageContext::batch(AppKind::BitTorrent, 3, 40.0, &trace);
        let pad = StageSpec::Defense(DefenseStageSpec::Padding { size: None });
        let morph = StageSpec::Defense(DefenseStageSpec::Morphing { target: None });
        let or = StageSpec::Reshape {
            algorithm: AlgorithmSpec::Orthogonal,
            interfaces: None,
        };
        for stages in [
            vec![pad, or],    // pad upstream of the dispatcher
            vec![or, pad],    // per-vif padding downstream
            vec![morph, or],  // the paper's composition
            vec![morph, pad], // two byte-adding stages chained
        ] {
            let labels: Vec<_> = stages.iter().map(StageSpec::name).collect();
            let mut pipeline = DefenseSpec { stages }
                .build(&ctx, 3)
                .expect("valid composition");
            let mut emitted = 0usize;
            pipeline.process_batch(trace.packets(), |_, _| emitted += 1);
            pipeline.finish(|_, _| emitted += 1);
            assert_eq!(emitted, trace.len(), "{labels:?}");
            let end_to_end = pipeline.overhead();
            assert!(end_to_end.added_bytes() > 0, "{labels:?} adds bytes");
            for (stage, label) in pipeline.stages().iter().zip(&labels) {
                let component = stage.overhead();
                // Every stage accounts every byte it saw...
                assert!(component.original_bytes > 0, "{labels:?}/{label} ledger");
                // ...and the composition never under-reports a component.
                assert!(
                    end_to_end.added_bytes() >= component.added_bytes(),
                    "{labels:?}: end-to-end {} < component {label} {}",
                    end_to_end.added_bytes(),
                    component.added_bytes()
                );
            }
        }

        // The observed equality itself, pinned: morph∘OR costs exactly what
        // morphing alone costs, because the reshape stage is zero-overhead
        // while still recording every byte through the shared ledger.
        let run_overhead = |shorthand: &str| {
            let mut pipeline = spec(shorthand).build(&ctx, 3).expect("valid defense");
            pipeline.process_batch(trace.packets(), |_, _| {});
            pipeline.finish(|_, _| {});
            pipeline.overhead()
        };
        let morphing_only = run_overhead("morphing");
        let composed = run_overhead("morph_or");
        assert_eq!(morphing_only.added_bytes(), composed.added_bytes());
        assert_eq!(morphing_only.percent(), composed.percent());
    }

    #[test]
    fn adversary_identifies_original_traffic_far_better_than_chance() {
        let config = ExperimentConfig::quick();
        let adversary = train_adversary(&config, FeatureMode::Full);
        let eval = config.evaluation_corpus();
        let matrix = evaluate_defense(
            &adversary,
            &eval,
            &DefenseSpec::none(),
            &config,
            FeatureMode::Full,
        );
        let acc = matrix.mean_accuracy();
        assert!(
            acc > 0.5,
            "mean accuracy on original traffic {acc} should beat chance (1/7)"
        );
    }

    #[test]
    fn online_prequential_accuracy_converges_to_the_batch_ensemble() {
        // The acceptance criterion of the online-adversary refactor: on the
        // same seeded undefended workload, the prequential (online) ensemble
        // converges to within 5 percentage points of the batch-trained
        // ensemble.
        let config = ExperimentConfig {
            train_sessions: 4,
            train_session_secs: 90.0,
            eval_sessions: 2,
            eval_session_secs: 60.0,
            ..ExperimentConfig::quick()
        };
        let mode = FeatureMode::Full;
        let eval = config.evaluation_corpus();

        let batch = train_adversary(&config, mode);
        let batch_acc =
            evaluate_defense(&batch, &eval, &DefenseSpec::none(), &config, mode).mean_accuracy();

        let mut evaluator = train_adversary_online(&config, mode);
        let warmup_examples = evaluator.take_segment().total;
        assert!(
            warmup_examples > 100,
            "warm-up saw {warmup_examples} windows"
        );
        // The evaluation windows, in the order the online pass scores them.
        let shards =
            defended_example_shards(&eval, &DefenseSpec::none(), &config, config.eval_seed, mode);
        let mut online = ConfusionMatrix::new(AppKind::COUNT);
        for (features, label) in &interleave_shards(shards) {
            online.record(*label, evaluator.test_then_train(features, *label));
        }
        let online_acc = online.mean_accuracy();
        eprintln!("batch mean accuracy {batch_acc:.3}, online mean accuracy {online_acc:.3}");
        assert!(
            online_acc >= batch_acc - 0.05,
            "online mean accuracy {online_acc:.3} must converge to within 5pp \
             of the batch ensemble {batch_acc:.3}"
        );
    }

    #[test]
    fn orthogonal_reshaping_hurts_the_adversary_more_than_round_robin() {
        let config = ExperimentConfig::quick();
        let adversary = train_adversary(&config, FeatureMode::Full);
        let eval = config.evaluation_corpus();
        let acc: Vec<f64> = ["none", "rr", "or"]
            .into_iter()
            .map(|shorthand| {
                evaluate_defense(
                    &adversary,
                    &eval,
                    &spec(shorthand),
                    &config,
                    FeatureMode::Full,
                )
                .mean_accuracy()
            })
            .collect();
        // Original >= RR accuracy >= OR accuracy (with a small tolerance for noise).
        assert!(
            acc[0] > acc[2],
            "original {} must beat OR {}",
            acc[0],
            acc[2]
        );
        assert!(
            acc[1] > acc[2] - 0.05,
            "RR {} should not be (much) worse than OR {}",
            acc[1],
            acc[2]
        );
    }
}
