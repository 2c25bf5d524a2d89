//! The virtual-time event core's acceptance contract.
//!
//! 1. For every committed spec under `scenarios/` — reduced to a handful of
//!    stations so the property is cheap to check — the executor's
//!    `ScenarioReport` is **bit for bit** the same at 2 and 8 workers as at
//!    one, for arbitrary scenario seeds (proptest).
//! 2. The scheduling statistics (`events_popped`, `packets`) are
//!    sharding-invariant: every event's timestamp derives from its station
//!    alone, never from the worker that pops it.
//! 3. The executor admits every station but only ever holds the stations
//!    whose intervals overlap (`peak_active` ≪ population), asserted on the
//!    reduced metropolis family; `executor_memory.rs` checks the memory
//!    bound itself.
//!
//! A station's drain against a per-packet evaluation, phase splices
//! included, is pinned in `windower_slice_equivalence.rs`. Together these
//! license any worker count for any committed spec: it changes how a
//! scenario is scheduled, never what it reports.

mod common;

use bench::scenario::{
    default_scenarios_dir, execute_scenario, load_spec, spec_files, train_for, ScenarioSpec,
};
use bench::Executor;
use common::on_workers;
use proptest::prelude::*;
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
            let (one_report, one_stats) = execute_scenario(&scenario, &adversary, on_workers(1))
                .unwrap_or_else(|e| panic!("{}: one-worker run: {e}", file.display()));
            prop_assert_eq!(one_stats.admitted, scenario.station_count());
            prop_assert_eq!(one_stats.events_popped, 2 * scenario.station_count() as u64);
            for workers in [2usize, 8] {
                let (report, stats) = execute_scenario(&scenario, &adversary, on_workers(workers))
                    .unwrap_or_else(|e| panic!("{}: {workers}-worker run: {e}", file.display()));
                prop_assert!(
                    report == one_report,
                    "{}: seed {} diverged at {} workers",
                    file.display(),
                    seed,
                    workers
                );
                prop_assert_eq!(stats.admitted, one_stats.admitted);
                prop_assert!(
                    stats.packets == one_stats.packets,
                    "every worker count drains the same packets"
                );
                prop_assert!(
                    stats.events_popped == one_stats.events_popped,
                    "events popped must not depend on the worker count"
                );
                prop_assert_eq!(stats.peak_active, one_stats.peak_active);
                prop_assert_eq!(stats.virtual_secs, one_stats.virtual_secs);
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
    // Each station drains in one go: exactly one admission and one
    // retirement event per station.
    assert_eq!(stats.events_popped, 2 * total as u64);
    assert!(
        stats.packets_per_event() > 10.0,
        "whole sessions coalesce into single events, got {:.1} packets/event",
        stats.packets_per_event()
    );
    // And the report is the one a single worker produces.
    let (one_report, _) =
        execute_scenario(&scenario, &adversary, on_workers(1)).expect("one-worker run");
    assert_eq!(report, one_report);
}
