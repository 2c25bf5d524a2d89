//! Allocation budget of a station's packet source.
//!
//! Every admitted station builds one `StreamingSession` from its
//! `TrafficSpec`, so the allocations of that build are paid once per station
//! on churning populations, and generation must allocate nothing after it.
//! The allocator counts per thread, so the test harness's own threads do not
//! leak into the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use traffic_gen::app::AppKind;
use traffic_gen::spec::TrafficSpec;
use traffic_gen::stream::PacketSource;

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

#[test]
fn building_a_session_allocates_only_its_model_and_draining_it_nothing() {
    const BATCH: usize = 128;
    let mut batch = Vec::with_capacity(BATCH);
    for app in AppKind::ALL {
        let spec = TrafficSpec::bounded(app, 7, 30.0);
        let start = allocations();
        let mut session = spec.build();
        let built = allocations() - start;
        // Two flows, each a size mixture: its ranges, the categorical's
        // cumulative weights and guide table, and the weights it is built
        // from.
        assert!(
            built <= 8,
            "{app}: building the session made {built} allocations"
        );

        let start = allocations();
        let mut packets = 0;
        // Whole batches with a single packet pulled between them, so both
        // ways of reading the session are counted.
        loop {
            batch.clear();
            session.fill(&mut batch, BATCH);
            packets += batch.len();
            if batch.len() < BATCH {
                break;
            }
            packets += usize::from(session.next_packet().is_some());
        }
        let drained = allocations() - start;
        assert!(packets > 0, "{app}: no packets");
        assert_eq!(drained, 0, "{app}: draining {packets} packets allocated");
    }
}
