//! The executor's memory holds the stations on air, not the population.
//!
//! A counting global allocator tracks the process's live and peak heap
//! bytes. A metropolis-shaped population (97% chat behind OR, 3% gaming,
//! 20 s sessions arriving 10 ms apart, so about 2,000 stations are live at
//! once) runs at N stations and at 4N: the same live count, four times the
//! population. The peak live heap above the level before `execute_scenario`
//! must be the same for both, within a small constant, on one worker and on
//! two. An executor that kept a few hundred bytes of bookkeeping per station
//! (a result slot, churn records, a seeded admission) would grow by about
//! 1.3 MB between the two runs.
//!
//! The file holds one test, so no other test thread allocates while it
//! measures.

mod common;

use bench::scenario::{default_scenarios_dir, execute_scenario, load_spec, train_for};
use common::on_workers;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Counts live heap bytes process-wide and keeps their high-water mark.
/// The counters publish no other data, so relaxed atomics suffice.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters have no effect on memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` pass through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` was allocated by `System` with `layout`; the caller
        // guarantees `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// How far the population's size may move the peak live heap.
const SLACK_BYTES: usize = 64 * 1024;

#[test]
fn peak_heap_does_not_grow_with_the_population() {
    let path = default_scenarios_dir().join("metropolis.toml");
    let committed = load_spec(&path).unwrap_or_else(|e| panic!("{e}"));
    let sized = |stations: usize| {
        let mut spec = committed.clone();
        spec.stations[0].count = stations * 97 / 100;
        spec.stations[1].count = stations * 3 / 100;
        spec.build().expect("a resized metropolis builds")
    };
    let (small, large) = (sized(2_000), sized(8_000));
    // Both sizes share the spec's adversary; train it outside the
    // measurement.
    let adversary = train_for(&small);
    for workers in [1usize, 2] {
        let executor = on_workers(workers);
        let mut peaks = Vec::new();
        for scenario in [&small, &large] {
            let before = LIVE.load(Relaxed);
            PEAK.store(before, Relaxed);
            let (report, stats) =
                execute_scenario(scenario, &adversary, executor).expect("metropolis runs");
            let peak = PEAK.load(Relaxed) - before;
            assert_eq!(report.stations, scenario.station_count());
            assert!(
                stats.peak_active > 1_500,
                "the shape keeps ~2,000 stations on air, got {}",
                stats.peak_active
            );
            drop(report);
            eprintln!(
                "{workers} worker(s), {} stations: peak live heap {peak} B above the start",
                scenario.station_count()
            );
            peaks.push(peak);
        }
        assert!(
            peaks[1] <= peaks[0] + SLACK_BYTES,
            "{workers} worker(s): the peak live heap grew from {} B at {} stations to {} B \
             at {} stations",
            peaks[0],
            small.station_count(),
            peaks[1],
            large.station_count()
        );
    }
}
