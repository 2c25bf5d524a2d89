//! Allocation budgets of the adversary's scoring, on the committed shape
//! (18 features, 7 classes, a 32-unit hidden layer, naive Bayes as arbiter).
//!
//! * Frozen: the ensemble votes on each window through its inference plan,
//!   with every per-window buffer on the stack, and `FrozenScorer` holds
//!   nothing but the ensemble. So scoring a block of windows allocates
//!   nothing beyond the capacity of the prediction buffer.
//! * Live: a per-station fork of the warm online adversary copies model
//!   state only (its members are concrete and its per-window buffers live
//!   on the stack), so forking plus the first two windows stays within 14
//!   allocations, and every later window allocates nothing but the accuracy
//!   timeline's growth.
//!
//! The allocator counts per thread, so the test harness's own threads (and
//! the adversaries' training threads) do not leak into the count.

use bench::pipeline::{train_adversary, train_adversary_online};
use bench::streaming::{FrozenScorer, WindowScorer, WINDOW_BATCH};
use bench::ExperimentConfig;
use classifier::features::FEATURE_DIM;
use classifier::online::PrequentialEvaluator;
use classifier::stream::WindowExample;
use classifier::window::{build_dataset, FeatureMode, DEFAULT_MIN_PACKETS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations and reallocations.
struct Counting;

thread_local! {
    /// Allocations this thread has made so far.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread may still allocate while its locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter has no effect on memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` was allocated by `System` with `layout`; the caller
        // guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// A dataset example's features as the fixed row a windower emits.
fn row(features: &[f64]) -> [f64; FEATURE_DIM] {
    features.try_into().expect("FEATURE_DIM features")
}

#[test]
fn scoring_a_block_of_windows_allocates_nothing() {
    let config = ExperimentConfig::quick();
    let ensemble = train_adversary(&config, FeatureMode::Full);
    let data = build_dataset(
        &config.training_corpus(),
        config.window(),
        DEFAULT_MIN_PACKETS,
        FeatureMode::Full,
    );
    let members: Vec<_> = ensemble
        .evaluate_all(&data)
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert_eq!(members, ["svm", "nn", "naive-bayes"]);
    // Real windows, plus the same windows scaled off the training
    // distribution so that the SVM and the NN disagree on some and naive
    // Bayes arbitrates.
    let windows: Vec<WindowExample> = data
        .examples()
        .iter()
        .flat_map(|e| {
            let scaled = row(&e.features).map(|v| v * 3.5 - 1.0);
            [(row(&e.features), e.label), (scaled, e.label)]
        })
        .take(WINDOW_BATCH)
        .collect();
    assert_eq!(windows.len(), WINDOW_BATCH);

    let start = allocations();
    let votes: usize = windows
        .iter()
        .map(|(features, _)| ensemble.predict_majority(features))
        .sum();
    let voted = allocations() - start;
    assert_eq!(voted, 0, "predict_majority allocated {voted} times");

    let mut out = Vec::with_capacity(WINDOW_BATCH);
    let start = allocations();
    let mut scorer = FrozenScorer::new(&ensemble);
    scorer.score_slice(&windows, &mut out);
    let scored = allocations() - start;
    assert_eq!(
        scored, 0,
        "FrozenScorer::score_slice allocated {scored} times"
    );
    assert_eq!(out.len(), WINDOW_BATCH);
    assert_eq!(out.iter().sum::<usize>(), votes);
}

/// Allocations a fork may make, from `PrequentialEvaluator::new` of the
/// clone through its first two windows: 13 heap blocks of model state (the
/// running statistics and the scale they derive, the SVM's 2, the NN's 4
/// and naive Bayes's 4) and, at the first window, the buffer of deferred
/// training (the pending window and the NN's waiting rows).
const LIVE_FORK_BUDGET: usize = 14;

#[test]
fn a_live_fork_copies_only_model_state_and_scores_without_allocating() {
    let config = ExperimentConfig::quick();
    let adversary = train_adversary_online(&config, FeatureMode::Full).into_adversary();
    let data = build_dataset(
        &config.training_corpus(),
        config.window(),
        DEFAULT_MIN_PACKETS,
        FeatureMode::Full,
    );
    let windows: Vec<WindowExample> = data
        .examples()
        .iter()
        .map(|e| (row(&e.features), e.label))
        .take(WINDOW_BATCH)
        .collect();
    assert_eq!(windows.len(), WINDOW_BATCH);
    assert_eq!(windows[0].0.len(), 18);

    // The stations' timeline cadence.
    let snapshot_every = 10;
    let start = allocations();
    let mut evaluator = PrequentialEvaluator::new(adversary.clone(), snapshot_every);
    evaluator.absorb(&windows[0]);
    evaluator.absorb(&windows[1]);
    let forked = allocations() - start;
    assert!(
        forked <= LIVE_FORK_BUDGET,
        "forking and two windows allocated {forked} times, budget {LIVE_FORK_BUDGET}"
    );

    for (i, window) in windows.iter().enumerate().skip(2) {
        let points = evaluator.timeline().len();
        let start = allocations();
        evaluator.absorb(window);
        let scored = allocations() - start;
        // A window that appends a timeline point may grow the timeline.
        let snapshot = usize::from(evaluator.timeline().len() > points);
        assert!(
            scored <= snapshot,
            "window {i} allocated {scored} times (timeline points appended: {snapshot})"
        );
    }
    assert_eq!(evaluator.take_segment().total, WINDOW_BATCH as u64);
}
