//! The window-batch deferral's acceptance contract.
//!
//! The streaming machine buffers windows closed inside a drain slice and
//! flushes them through `WindowScorer::score_slice` in `WINDOW_BATCH`
//! blocks. Deferral is legal only because nothing observable depends on
//! *when* a window is scored between its close and the next phase boundary:
//! windows flush in exact close order, the frozen scorer is stateless, and
//! the prequential evaluator's default `score_slice` runs the same
//! test-then-train loop per example. These tests pin that contract:
//!
//! 1. For a mixed population (different apps, defenses, a mid-session
//!    splice), every batch size — per-window `1`, an arbitrary small block,
//!    the default `WINDOW_BATCH`, and one larger than any station's window
//!    count — produces **bit-identical** `ScheduledReport`s against a frozen
//!    ensemble, on the pool and on the virtual-time executor at 1, 2, and 8
//!    workers (coalesced and slice-bounded).
//! 2. The same holds for live prequential scoring **including the accuracy
//!    timeline**: the test-then-train ordering survives batching bit for
//!    bit, so a deferred flush can never let a window train before an
//!    earlier window tested.

mod common;

use bench::pipeline::{train_adversary, train_adversary_online};
use bench::{DefenseSpec, Executor, ExperimentConfig, FrozenScorer, StationRun, WINDOW_BATCH};
use classifier::ensemble::AdversaryEnsemble;
use classifier::online::{OnlineAdversary, PrequentialEvaluator, PrequentialPoint};
use classifier::window::FeatureMode;
use common::per_station;
use proptest::prelude::*;
use traffic_gen::app::AppKind;
use traffic_gen::spec::TrafficSpec;
use wlan_sim::time::SimDuration;

const STATIONS: usize = 4;
const WINDOW_SECS: u64 = 2;

/// Station `i` of the mixed population: apps and defenses cycle, station 0
/// splices its defense mid-session so a phase boundary closes with windows
/// still pending in the batch buffer.
fn run_of(i: usize, seed: u64, batch: usize) -> StationRun {
    let kinds = ["padding", "or", "morphing", "none"];
    let mut run = StationRun::new(TrafficSpec::bounded(
        AppKind::ALL[i % AppKind::COUNT],
        seed.wrapping_add(i as u64),
        20.0,
    ))
    .defense(DefenseSpec::parse(kinds[i % kinds.len()]).unwrap())
    .interfaces(3)
    .window(SimDuration::from_secs(WINDOW_SECS))
    .feature_mode(FeatureMode::Full)
    .window_batch(batch);
    if i == 0 {
        run = run.splices(vec![(9.0, DefenseSpec::parse("padding").unwrap())]);
    }
    run
}

/// Every executor shape the contract covers: the work-stealing pool, the
/// coalescing virtual-time executor at several worker counts, and a
/// slice-bounded virtual-time run whose horizon lands splices mid-slice.
fn executors() -> Vec<Executor> {
    let mut shapes = vec![Executor::Pooled];
    for workers in [1usize, 2, 8] {
        shapes.push(Executor::VirtualTime {
            workers: Some(workers),
            max_slice: None,
        });
    }
    shapes.push(Executor::VirtualTime {
        workers: Some(2),
        max_slice: Some(SimDuration::from_secs_f64(3.7)),
    });
    shapes
}

fn frozen_reports(
    adversary: &AdversaryEnsemble,
    executor: Executor,
    seed: u64,
    batch: usize,
) -> Vec<bench::streaming::ScheduledReport> {
    per_station(
        executor,
        STATIONS,
        |i| run_of(i, seed, batch),
        |_| FrozenScorer::new(adversary),
        |report, _| report,
    )
    .expect("frozen run")
}

fn live_reports(
    base: &OnlineAdversary,
    executor: Executor,
    seed: u64,
    batch: usize,
) -> Vec<(bench::streaming::ScheduledReport, Vec<PrequentialPoint>)> {
    per_station(
        executor,
        STATIONS,
        |i| run_of(i, seed, batch),
        |_| PrequentialEvaluator::new(base.clone(), 5),
        |report, evaluator| (report, evaluator.timeline().to_vec()),
    )
    .expect("live run")
}

proptest! {
    // Each case trains the quick adversary and runs the population on every
    // executor shape at four batch sizes, so two cases is already a broad
    // sweep.
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn any_window_batch_reproduces_the_per_window_reports(
        seed in 0u64..10_000,
        small_batch in 2usize..7,
    ) {
        let frozen = train_adversary(&ExperimentConfig::quick(), FeatureMode::Full);
        let base = train_adversary_online(&ExperimentConfig::quick(), FeatureMode::Full)
            .into_adversary();

        // The reference: per-window scoring (batch 1) on the pool.
        let frozen_baseline = frozen_reports(&frozen, Executor::Pooled, seed, 1);
        let live_baseline = live_reports(&base, Executor::Pooled, seed, 1);
        prop_assert!(
            frozen_baseline.iter().any(|r| r.windows() > 10),
            "the population must close enough windows to exercise batching"
        );
        prop_assert!(
            live_baseline.iter().any(|(_, timeline)| !timeline.is_empty()),
            "the live runs must record prequential timelines"
        );

        for executor in executors() {
            for batch in [1, small_batch, WINDOW_BATCH, 10_000] {
                let frozen_run = frozen_reports(&frozen, executor, seed, batch);
                prop_assert!(
                    frozen_run == frozen_baseline,
                    "frozen reports diverged: {executor:?}, batch {batch}, seed {seed}"
                );
                let live_run = live_reports(&base, executor, seed, batch);
                prop_assert!(
                    live_run == live_baseline,
                    "live reports or timelines diverged: {executor:?}, batch {batch}, seed {seed}"
                );
            }
        }
    }
}
