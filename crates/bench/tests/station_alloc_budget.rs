//! Allocations per station of a metropolis-shaped population.
//!
//! A station is admitted, drained and retired in a few microseconds on
//! churning populations, so what its admission and retirement allocate is
//! paid once per station. A counting global allocator counts every
//! allocation and reallocation of the process. A metropolis-shaped
//! population (97% chat behind OR, 3% undefended gaming, 20 s sessions
//! arriving 10 ms apart) runs on one worker at N stations and at 2N. The
//! set-up of an execution, the worker's memos and the growth of its
//! recycled buffers cost the same at both sizes, so the difference is what
//! the N extra stations allocate, and it is pinned exactly.
//!
//! The file holds one test, so no other test thread allocates while it
//! counts.

mod common;

use bench::scenario::{default_scenarios_dir, execute_scenario, load_spec, train_for};
use common::on_workers;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting allocations and reallocations
/// process-wide. The counter publishes no other data, so relaxed atomics
/// suffice.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter has no effect on memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: `ptr` was allocated by `System` with `layout`; the caller
        // guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations the N extra stations of the 2N-station run make, 7.83 per
/// station. A chat station behind OR (97%) makes 8: its copy of the
/// defense's stage list, its phase list, the pipeline's stage list, the
/// reshape stage and its scheduler, the stage's flow and interface tables,
/// and its phase reports. An undefended gaming station (3%) makes 2: the
/// phase list and the phase reports. The rest is the retirement seconds
/// the worker sends to the timeline sweep, one batch per 256 stations.
const EXTRA_STATIONS_ALLOCATE: usize = 15_654;

/// The population of the N-station run.
const N: usize = 2_000;

#[test]
fn a_metropolis_station_makes_a_fixed_number_of_allocations() {
    let path = default_scenarios_dir().join("metropolis.toml");
    let committed = load_spec(&path).unwrap_or_else(|e| panic!("{e}"));
    let sized = |stations: usize| {
        let mut spec = committed.clone();
        spec.stations[0].count = stations * 97 / 100;
        spec.stations[1].count = stations * 3 / 100;
        spec.build().expect("a resized metropolis builds")
    };
    let (small, large) = (sized(N), sized(2 * N));
    // Both sizes share the spec's adversary; train it outside the count.
    let adversary = train_for(&small);
    let count = |scenario| {
        let before = ALLOCATIONS.load(Relaxed);
        let (report, stats) =
            execute_scenario(scenario, &adversary, on_workers(1)).expect("metropolis runs");
        let made = ALLOCATIONS.load(Relaxed) - before;
        assert_eq!(report.stations, scenario.station_count());
        assert!(
            stats.peak_active > 1_500,
            "the shape keeps ~2,000 stations on air, got {}",
            stats.peak_active
        );
        made
    };
    // The first execution also sets up the calling thread's wait on the
    // worker's retirement channel, once per thread.
    count(&small);
    // A worker that finds the channel full sets up its own wait, which
    // depends on thread timing, not on the stations; the fewest of three
    // executions is one whose worker never waited.
    let fewest = |scenario| (0..3).map(|_| count(scenario)).min().expect("three runs");
    let extra = fewest(&large) - fewest(&small);
    eprintln!(
        "{N} extra stations made {extra} allocations, {:.3} per station",
        extra as f64 / N as f64
    );
    assert!(extra <= 10 * N, "more than 10 allocations per station");
    assert_eq!(extra, EXTRA_STATIONS_ALLOCATE);
}
