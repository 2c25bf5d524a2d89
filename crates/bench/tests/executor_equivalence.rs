//! The virtual-time event core's acceptance contract.
//!
//! 1. For every committed spec under `scenarios/` — reduced to a handful of
//!    stations so the property is cheap to check — the virtual-time executor
//!    reproduces the work-stealing pool's `ScenarioReport` **bit for bit**,
//!    at 1, 2, and 8 workers, for arbitrary scenario seeds (proptest), and
//!    for arbitrary coalescing horizons: a 1 µs `max_slice` (one packet per
//!    slice — the per-packet executor, emulated), a random mid-range
//!    horizon, and the unbounded default (whole sessions per event).
//! 2. For a fixed horizon the scheduling statistics (`events_popped`,
//!    `packets`) are sharding-invariant: every event's timestamp derives
//!    from its station alone, never from the worker that pops it.
//! 3. The executor admits every station but only ever holds the stations
//!    whose intervals overlap (`peak_active` ≪ population), asserted on the
//!    reduced metropolis family; `executor_memory.rs` checks the memory
//!    bound itself.
//! 4. A phase splice landing strictly inside a coalesced slice is handled
//!    by the batched path exactly as per packet (the regression case for
//!    slice-grained draining).
//!
//! Together these license `executor = "virtual_time"` (with any
//! `max_slice_secs`) in any committed spec: it changes how a scenario is
//! scheduled, never what it reports.

use bench::scenario::{
    default_scenarios_dir, execute_scenario, load_spec, spec_files, train_for, ScenarioSpec,
};
use bench::Executor;
use proptest::prelude::*;
use wlan_sim::time::SimDuration;

/// Shrinks a committed spec to an equivalence-test size: at most `target`
/// stations (group counts scaled proportionally), sessions capped at 30 s,
/// and events aimed at stations that no longer exist dropped. Everything
/// else — defenses, staggers, adversary, window — stays as committed.
fn reduced(mut spec: ScenarioSpec, target: usize) -> ScenarioSpec {
    let total: usize = spec.stations.iter().map(|g| g.count).sum();
    if total > target {
        for group in &mut spec.stations {
            group.count = (group.count * target / total).max(1);
        }
    }
    let total: usize = spec.stations.iter().map(|g| g.count).sum();
    for group in &mut spec.stations {
        group.secs = group.secs.min(30.0);
    }
    spec.events
        .retain(|event| event.station.is_none_or(|s| s < total));
    spec
}

proptest! {
    // Each case re-trains an adversary per scenario family, so a handful of
    // cases is already hundreds of station sessions.
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn virtual_time_reproduces_the_pool_on_every_committed_family(
        seed in 0u64..10_000,
        horizon_secs in 0.05f64..20.0,
    ) {
        let files = spec_files(&default_scenarios_dir()).expect("scenarios/ exists");
        prop_assert!(files.len() >= 5, "expected the committed families, found {files:?}");
        for file in files {
            let mut spec = reduced(load_spec(&file).unwrap_or_else(|e| panic!("{e}")), 8);
            spec.seed = seed;
            let scenario = spec
                .build()
                .unwrap_or_else(|e| panic!("{}: reduced spec must build: {e}", file.display()));
            let adversary = train_for(&scenario);
            let (pool_report, pool_stats) = execute_scenario(&scenario, &adversary, Executor::Pooled)
                .unwrap_or_else(|e| panic!("{}: pool run: {e}", file.display()));
            // One packet per slice (the per-packet executor, emulated), an
            // arbitrary horizon, and unbounded coalescing: all of them must
            // reproduce the pool bit for bit at every worker count.
            let horizons = [
                Some(SimDuration::from_secs_f64(1e-6)),
                Some(SimDuration::from_secs_f64(horizon_secs)),
                None,
            ];
            for max_slice in horizons {
                let mut events_popped = None;
                for workers in [1usize, 2, 8] {
                    let executor = Executor::VirtualTime {
                        workers: Some(workers),
                        max_slice,
                    };
                    let (vt_report, stats) = execute_scenario(&scenario, &adversary, executor)
                        .unwrap_or_else(|e| panic!("{}: virtual-time run: {e}", file.display()));
                    prop_assert!(
                        vt_report == pool_report,
                        "{}: seed {} diverged at {} workers, max_slice {:?}",
                        file.display(),
                        seed,
                        workers,
                        max_slice
                    );
                    prop_assert_eq!(stats.admitted, scenario.station_count());
                    prop_assert!(
                        stats.packets == pool_stats.packets,
                        "both executors drain the same packets"
                    );
                    // For a fixed horizon, the event count is a property of
                    // the stations, not of the sharding.
                    match events_popped {
                        None => events_popped = Some(stats.events_popped),
                        Some(expected) => prop_assert!(
                            expected == stats.events_popped,
                            "events popped must not depend on the worker count"
                        ),
                    }
                }
            }
        }
    }
}

#[test]
fn the_event_core_holds_only_the_overlapping_stations() {
    // The metropolis family reduced to 60 stations, with the stagger
    // stretched so sessions barely overlap: a 20 s session every 10 s means
    // at most a few stations are ever live together, out of 60 admitted.
    let path = default_scenarios_dir().join("metropolis.toml");
    let mut spec = reduced(load_spec(&path).unwrap_or_else(|e| panic!("{e}")), 60);
    for group in &mut spec.stations {
        group.stagger_secs = 10.0;
    }
    // The committed events are scheduled against the 10 ms stagger; against
    // the stretched one they'd fire outside their stations' intervals.
    spec.events.clear();
    let scenario = spec.build().expect("stretched metropolis builds");
    let total = scenario.station_count();
    assert!(
        total >= 50,
        "reduction kept a meaningful population: {total}"
    );
    let adversary = train_for(&scenario);
    let (report, stats) = execute_scenario(&scenario, &adversary, Executor::virtual_time())
        .expect("virtual-time run");
    assert_eq!(stats.admitted, total, "every station was admitted");
    assert!(
        stats.peak_active <= 8,
        "only overlapping sessions are live at once, got peak_active = {}",
        stats.peak_active
    );
    assert!(
        stats.virtual_secs > 500.0,
        "the virtual clock spans the stagger"
    );
    // Unbounded coalescing drains each station in one go: exactly one
    // admission and one retirement event per station.
    assert_eq!(stats.events_popped, 2 * total as u64);
    assert!(
        stats.packets_per_event() > 10.0,
        "whole sessions coalesce into single events, got {:.1} packets/event",
        stats.packets_per_event()
    );
    // And the schedule-aware execution still reports exactly what the pool
    // reports station by station.
    let (pool_report, _) =
        execute_scenario(&scenario, &adversary, Executor::Pooled).expect("pool run");
    assert_eq!(report, pool_report);
}

#[test]
fn a_splice_landing_mid_slice_matches_the_pool() {
    // The committed metropolis events splice station 7 at session-relative
    // 9 s and station 2 at 10 s. With horizons that are neither divisors
    // nor multiples of those times, the splice boundary lands strictly
    // inside a coalesced slice, so `offer_slice` must split the batch at
    // the boundary exactly where a per-packet feed would have advanced the
    // schedule.
    let path = default_scenarios_dir().join("metropolis.toml");
    let mut spec = reduced(load_spec(&path).unwrap_or_else(|e| panic!("{e}")), 8);
    spec.seed = 41;
    assert!(
        !spec.events.is_empty(),
        "the reduced metropolis keeps its committed splice/churn events"
    );
    let scenario = spec.build().expect("reduced metropolis builds");
    let adversary = train_for(&scenario);
    let (pool_report, _) =
        execute_scenario(&scenario, &adversary, Executor::Pooled).expect("pool run");
    for horizon_secs in [3.7, 9.9, 60.0] {
        let executor =
            Executor::virtual_time().with_max_slice(SimDuration::from_secs_f64(horizon_secs));
        let (vt_report, _) =
            execute_scenario(&scenario, &adversary, executor).expect("virtual-time run");
        assert_eq!(
            vt_report, pool_report,
            "a splice inside a {horizon_secs} s slice diverged from the pool"
        );
    }
    // The unbounded default coalesces the whole session — splices included
    // — into the admission event.
    let (vt_report, stats) = execute_scenario(&scenario, &adversary, Executor::virtual_time())
        .expect("virtual-time run");
    assert_eq!(vt_report, pool_report);
    assert_eq!(stats.events_popped, 2 * scenario.station_count() as u64);
}
