//! The benchmark's workloads: scenario specs kept under `workloads/`.

use bench::scenario::{load_spec, EventKind, ScenarioSpec};
use bench::streaming::Executor;
use std::path::PathBuf;

/// A named workload. Why each exists is in `BENCHMARK.json` and
/// `README.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// The workload's name (and its spec's file stem).
    pub name: &'static str,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "metropolis_churn",
    },
    Workload {
        name: "morph_admission",
    },
    Workload {
        name: "online_churn",
    },
    Workload {
        name: "long_sessions",
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Result<Workload, String> {
    WORKLOADS
        .iter()
        .copied()
        .find(|w| w.name == name)
        .ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload `{name}` (expected one of {names:?})")
        })
}

/// A size cap that turns a workload into a tiny one (for the benchmark's own
/// tests): at most `stations_per_group` members per group and sessions of at
/// most `secs`. Events that no longer fit the shrunken population are
/// dropped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shrink {
    /// Members kept per station group.
    pub stations_per_group: usize,
    /// Longest session kept, in seconds.
    pub secs: f64,
}

impl Workload {
    /// The workload's spec file.
    pub fn spec_path(&self) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("workloads")
            .join(format!("{}.toml", self.name))
    }

    /// Loads the workload's spec with `seed` as the scenario seed, shrunk
    /// when `shrink` is given. This is the set-up's "load" step.
    pub fn load(&self, seed: u64, shrink: Option<Shrink>) -> Result<ScenarioSpec, String> {
        let mut spec = load_spec(&self.spec_path())?;
        spec.seed = seed;
        if let Some(shrink) = shrink {
            shrink_spec(&mut spec, shrink);
        }
        Ok(spec)
    }
}

fn shrink_spec(spec: &mut ScenarioSpec, shrink: Shrink) {
    for group in &mut spec.stations {
        group.count = group.count.min(shrink.stations_per_group.max(1));
        group.secs = group.secs.min(shrink.secs);
    }
    let total: usize = spec.stations.iter().map(|g| g.count).sum();
    let shortest = spec
        .stations
        .iter()
        .map(|g| g.secs)
        .fold(f64::INFINITY, f64::min);
    spec.events.retain(|event| {
        let in_range = event.station.is_none_or(|s| s < total);
        // Keep departures and splices inside the shortest session so the
        // shrunken schedule stays coherent.
        let in_time = match event.kind {
            EventKind::Arrive => true,
            EventKind::Depart | EventKind::Splice(_) => event.at_secs < shortest,
        };
        in_range && in_time
    });
}

/// Executor workers every workload runs on.
///
/// One, on purpose: on a shared host of a few vCPUs, two workers also
/// measure the other tenants. On the 2-vCPU development host, interleaved
/// `metropolis_churn` runs over six seeds spread (interquartile range over
/// median of the per-run median execution time) 0.131 on two workers and
/// 0.049 on one, and two workers spent 15% more CPU per packet.
pub const WORKERS: usize = 1;

/// The executor a workload runs on: the spec's, with the virtual-time core
/// on [`WORKERS`] shards. The pool sizes itself from the machine's available
/// parallelism, which is why no workload uses it.
pub fn executor(spec_executor: Executor) -> Executor {
    match spec_executor {
        Executor::VirtualTime { max_slice, .. } => Executor::VirtualTime {
            workers: Some(WORKERS),
            max_slice,
        },
        Executor::Pooled => Executor::Pooled,
    }
}

/// The machine's available parallelism (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}
