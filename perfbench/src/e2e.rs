//! The tracing-off run: set-up and execution timed end to end, every report
//! checked.

use crate::probe;
use crate::workload::{self, Shrink, Workload};
use crate::{median, Metric, RunResult};
use bench::scenario::{
    execute_scenario, train_for, CompiledScenario, ScenarioReport, TrainedAdversary,
};
use bench::streaming::{Executor, ExecutorStats};
use std::time::{Duration, Instant};

/// The end-to-end metrics, in report order: `(name, unit)`.
pub const E2E_METRICS: [(&str, &str); 5] = [
    ("packets_per_s", "packets/s"),
    ("stations_per_s", "stations/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_s_per_mpacket", "s/Mpacket"),
];

/// Executions measured even when the time budget runs out first.
pub const MIN_REPS: usize = 3;

/// Set-ups timed before each execution, so set-up is sampled across the
/// whole run rather than in one burst at its start.
pub const SETUPS_PER_EXECUTION: usize = 2;

/// How long a run measures, and on what size of workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Measurement budget for executions (after the warm-up execution).
    pub seconds: f64,
    /// Shrinks the workload (the benchmark's own tests).
    pub shrink: Option<Shrink>,
}

/// One timed set-up: spec load + compile, then adversary training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetupTiming {
    /// `load_spec` + `ScenarioSpec::build`.
    pub compile: Duration,
    /// `train_for`.
    pub train: Duration,
}

/// Sets `workload` up once: loads its spec with `seed`, compiles it and
/// trains its adversary, timing both steps.
pub fn set_up(
    workload: Workload,
    seed: u64,
    shrink: Option<Shrink>,
) -> Result<(CompiledScenario, TrainedAdversary, SetupTiming), String> {
    let start = Instant::now();
    let scenario = workload.load(seed, shrink)?.build()?;
    let compiled = Instant::now();
    let adversary = train_for(&scenario);
    let trained = Instant::now();
    let timing = SetupTiming {
        compile: compiled - start,
        train: trained - compiled,
    };
    Ok((scenario, adversary, timing))
}

/// A workload set up and ready to execute.
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// The compiled scenario.
    pub scenario: CompiledScenario,
    /// Its trained adversary.
    pub adversary: TrainedAdversary,
    /// The executor it runs on.
    pub executor: Executor,
    /// Executor workers.
    pub workers: usize,
    /// The set-up that produced it.
    pub setup: SetupTiming,
}

/// Sets `workload` up for execution.
pub fn prepare(workload: Workload, seed: u64, options: &Options) -> Result<Prepared, String> {
    let (scenario, adversary, setup) = set_up(workload, seed, options.shrink)?;
    Ok(Prepared {
        workload,
        seed,
        executor: workload::executor(scenario.executor),
        scenario,
        adversary,
        workers: workload::WORKERS,
        setup,
    })
}

/// One measured execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Execution {
    /// Wall time of `execute_scenario`.
    pub wall: Duration,
    /// Process CPU time spent during it.
    pub cpu: Duration,
    /// Its executor statistics.
    pub stats: ExecutorStats,
}

/// Checks one report against its executor statistics: packet totals agree,
/// every station ran, virtual time popped exactly one admission and one
/// retirement per station, windows were scored, and identification is a
/// rate. Returns one message per violated property.
pub fn check_report(
    report: &ScenarioReport,
    stats: &ExecutorStats,
    stations: usize,
    executor: Executor,
) -> Vec<String> {
    let mut errors = Vec::new();
    if report.packets != stats.packets {
        errors.push(format!(
            "report packets {} != executor packets {}",
            report.packets, stats.packets
        ));
    }
    if report.stations != stations || stats.admitted != stations {
        errors.push(format!(
            "{stations} stations compiled, report has {}, executor admitted {}",
            report.stations, stats.admitted
        ));
    }
    if matches!(
        executor,
        Executor::VirtualTime {
            max_slice: None,
            ..
        }
    ) && stats.events_popped != 2 * stations as u64
    {
        errors.push(format!(
            "virtual time popped {} events for {stations} stations (expected 2 per station)",
            stats.events_popped
        ));
    }
    if report.windows == 0 {
        errors.push("no windows were scored".to_string());
    }
    if report.windows_identified > report.windows {
        errors.push(format!(
            "{} windows identified out of {}",
            report.windows_identified, report.windows
        ));
    }
    if !(0.0..=1.0).contains(&report.identification_rate) {
        errors.push(format!(
            "identification rate {} outside [0, 1]",
            report.identification_rate
        ));
    }
    errors
}

/// Executes the prepared workload once, timing wall and process CPU time.
pub fn execute(prepared: &Prepared) -> Result<(ScenarioReport, Execution), String> {
    let cpu_start = process_cpu();
    let start = Instant::now();
    let (report, stats) =
        execute_scenario(&prepared.scenario, &prepared.adversary, prepared.executor)?;
    let wall = start.elapsed();
    let cpu = process_cpu().saturating_sub(cpu_start);
    Ok((report, Execution { wall, cpu, stats }))
}

/// What [`measure`] timed.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// The measured executions (the warm-up excluded).
    pub runs: Vec<Execution>,
    /// Every timed set-up, the prepared one first.
    pub setups: Vec<SetupTiming>,
    /// One host speed probe timing after each measured execution.
    pub probes: Vec<Duration>,
    /// Peak resident set size, in bytes, once the process has set the
    /// workload up and executed it once. Later executions only fragment the
    /// allocator further, so the peak after them depends on how many ran.
    pub peak_rss_bytes: u64,
}

impl Measured {
    /// The smallest `f` over the measured executions.
    pub fn runs_min(&self, f: impl Fn(&Execution) -> f64) -> f64 {
        self.runs.iter().map(f).fold(f64::INFINITY, f64::min)
    }

    /// The median of `f` over the measured executions.
    pub fn runs_median(&self, f: impl Fn(&Execution) -> f64) -> f64 {
        median(&self.runs.iter().map(f).collect::<Vec<_>>())
    }

    /// The median of `f` over the set-ups, in seconds.
    pub fn setups_median(&self, f: impl Fn(&SetupTiming) -> Duration) -> f64 {
        median(
            &self
                .setups
                .iter()
                .map(|s| f(s).as_secs_f64())
                .collect::<Vec<_>>(),
        )
    }

    /// How much slower than the development host this run's host was:
    /// [`probe::slowdown`] of the fastest probe timing.
    pub fn slowdown(&self) -> f64 {
        probe::slowdown(self.probes.iter().copied().min().unwrap_or_default())
    }
}

/// Executes the prepared workload once unmeasured (the reference report),
/// then repeatedly for `options.seconds` (and at least [`MIN_REPS`] times),
/// timing [`SETUPS_PER_EXECUTION`] fresh set-ups before each execution and
/// the host speed probe after it. Every report is checked and must equal the
/// reference, since a scenario report is a pure function of its spec.
pub fn measure(
    prepared: &Prepared,
    options: &Options,
    result: &mut RunResult,
) -> Result<Measured, String> {
    let stations = prepared.scenario.station_count();
    let mut measured = Measured {
        runs: Vec::new(),
        setups: vec![prepared.setup],
        probes: Vec::new(),
        peak_rss_bytes: 0,
    };
    let set_ups = |measured: &mut Measured| -> Result<(), String> {
        for _ in 0..SETUPS_PER_EXECUTION {
            let (_, _, timing) = set_up(prepared.workload, prepared.seed, options.shrink)?;
            measured.setups.push(timing);
        }
        Ok(())
    };
    set_ups(&mut measured)?;
    let (reference, warm) = execute(prepared)?;
    measured.peak_rss_bytes = peak_rss_bytes();
    result.record(check_report(
        &reference,
        &warm.stats,
        stations,
        prepared.executor,
    ));
    let budget = Duration::from_secs_f64(options.seconds.max(0.0));
    let start = Instant::now();
    while measured.runs.len() < MIN_REPS || start.elapsed() < budget {
        set_ups(&mut measured)?;
        let (report, run) = execute(prepared)?;
        let mut errors = check_report(&report, &run.stats, stations, prepared.executor);
        if report != reference {
            errors.push("report differs from the first execution of the same spec".to_string());
        }
        result.record(errors);
        measured.runs.push(run);
        measured.probes.push(probe::time());
    }
    Ok(measured)
}

/// The tracing-off run of `workload` at `seed`: every end-to-end metric.
///
/// Other tenants of a shared host only ever slow an execution down, in
/// bursts of a second or less, so the execution timings are those of the
/// fastest of the run's many short executions. Over minutes they also shift
/// the host's speed as a whole, so those timings are divided by the run's
/// [`Measured::slowdown`]: each time reads as on the development host. Every
/// rate derives from that time. Set-up time is the median of its many short
/// samples, divided the same way. Standard error gets the slowdown and the
/// figures as timed.
pub fn run(workload: Workload, seed: u64, options: &Options) -> Result<RunResult, String> {
    let prepared = prepare(workload, seed, options)?;
    let mut result = RunResult::default();
    let measured = measure(&prepared, options, &mut result)?;
    let packets = measured.runs[0].stats.packets as f64;
    let slowdown = measured.slowdown();
    let wall = measured.runs_min(|r| r.wall.as_secs_f64());
    let setup = measured.setups_median(|s| s.compile + s.train);
    let cpu = measured.runs_min(|r| r.cpu.as_secs_f64());
    let values = [
        packets * slowdown / wall,
        prepared.scenario.station_count() as f64 * slowdown / wall,
        setup / slowdown,
        measured.peak_rss_bytes as f64 / 1e6,
        cpu / slowdown / (packets / 1e6),
    ];
    eprintln!(
        "host slowdown {slowdown:.4} (fastest of {} probe timings / {} s); as timed: \
         {:.0} packets/s, setup {setup:.5} s, {:.4} cpu s/Mpacket",
        measured.probes.len(),
        probe::QUIET_SECS,
        packets / wall,
        cpu / (packets / 1e6),
    );
    result.metrics = E2E_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, value, unit))
        .collect();
    Ok(result)
}

/// CPU time this process has used (user + system), from `/proc/self/stat`
/// in clock ticks of 10 ms; zero where procfs is unavailable.
pub fn process_cpu() -> Duration {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return Duration::ZERO;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return Duration::ZERO;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // `rest` starts at field 3 (state), so field n is index n - 3.
    Duration::from_millis((ticks(11) + ticks(12)) * 10)
}

/// Peak resident set size of this process in bytes (`VmHWM`), or 0 where
/// procfs is unavailable. Kept here rather than borrowed from
/// `bench::stagebench`, so the benchmark does not depend on the
/// measurement tooling it supersedes.
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}
