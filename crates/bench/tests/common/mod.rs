//! Shared by the executor and equivalence suites: the executor on a fixed
//! shard count, and a population executed as one result per station, in
//! station order.

use bench::streaming::ScheduledReport;
use bench::{Executor, StationRun, WindowScorer};
use std::collections::BTreeMap;

/// The executor on exactly `workers` shards.
pub fn on_workers(workers: usize) -> Executor {
    Executor::VirtualTime {
        workers: Some(workers),
        max_slice: None,
    }
}

/// Runs `count` stations on `executor`, handing it their arrivals in
/// canonical `(second, index)` order, and returns `finish`'s value per
/// station, in station order.
#[allow(dead_code)] // not every suite that shares this module runs stations one by one
pub fn per_station<S: WindowScorer, T: Send>(
    executor: Executor,
    count: usize,
    run_of: impl Fn(usize) -> StationRun + Sync,
    scorer_of: impl Fn(usize) -> S + Sync,
    finish: impl Fn(ScheduledReport, S) -> T + Sync,
) -> Result<Vec<T>, String> {
    let mut arrivals: Vec<(f64, usize)> = (0..count).map(|i| (run_of(i).arrival(), i)).collect();
    arrivals.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let outcome = executor.run(
        count,
        arrivals.into_iter(),
        |i| (run_of(i), scorer_of(i), ()),
        |acc: &mut BTreeMap<usize, T>, i, report, scorer, ()| {
            acc.insert(i, finish(report, scorer));
        },
    )?;
    Ok(outcome.folded.into_values().collect())
}
