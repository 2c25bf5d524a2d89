//! The execution substrate: the virtual-time core, behind the [`Executor`]
//! selector.
//!
//! The executor streams its population. It is handed the stations' arrivals
//! in canonical `(second, index)` order (a scenario's come from
//! [`Population::arrivals`](crate::scenario::Population::arrivals)) and
//! materialises each station once, at its admission. Each worker folds a
//! finished station into its own accumulator ([`Fold`]) the moment it has
//! drained, and the accumulators merge after the join. Memory is therefore
//! O(workers × live stations + groups + events), never O(population):
//! full-size `scenarios/metropolis.toml` (a million stations, about 2,000
//! on air at once) peaks under 6 MB resident on two workers, where the
//! executor that kept a result slot, two churn records and a seeded
//! admission per station peaked at 221 MB.
//!
//! Station *i* runs on worker *i* mod *W*. Each worker reads the arrival
//! stream itself and runs its own stations in arrival order, one after the
//! other, each to exhaustion. It sends the second each station retires at
//! to the calling thread in batches, through a bounded channel.
//!
//! # Event coalescing
//!
//! Events are **station-grained**, not packet-grained. At its admission a
//! station drains its whole source through the batched
//! [`StationMachine::offer_slice`](super::machine::StationMachine) path,
//! folds its report and drops every byte of its state; only its retirement
//! second, its last packet's, goes on to the timeline. Coalescing is
//! **unobservable by construction**: stations are mutually independent (the
//! shared adversary is only read; live scorers are per-station forks), so
//! no station's report can depend on how packets of *other* stations were
//! interleaved between its own; and the executor's own statistics derive
//! from admission/retirement timestamps (arrival and last-packet time),
//! which the station's source alone determines. `tests/executor_equivalence.rs`
//! pins the reports across 1, 2 and 8 workers, and
//! `tests/windower_slice_equivalence.rs` pins the batched drain against a
//! per-packet evaluation across phase splices.
//!
//! # The churn timeline
//!
//! The calling thread sweeps the timeline once. It reads the arrival stream
//! too and takes station *s*'s retirement from worker *s* mod *W*'s channel.
//! Before it counts an admission `(at, s)` it retires every live station
//! `(r, s')` with `(r, s') < (at, s)`, which is the canonical `(time,
//! station, admit-before-retire)` order. It holds a heap of the live
//! stations only, and folds the sweep into the peak-active count of
//! [`ExecutorStats`]. The count is the same for 1, 2 or 8 workers: each
//! timestamp derives from its station alone, never from scheduling.
//!
//! # The arrival contract
//!
//! The arrivals must list every station exactly once, ascending by
//! `(second, index)`, at the second its run arrives. The executor checks
//! this as it reads the stream and fails with an error that names the
//! station: one that goes backwards, repeats, lies out of range or arrives
//! at another second than its run, or (when exactly one is missing) the
//! station the stream left out. A failure, of the contract or of a
//! station's admission, is reported at the earliest stream position any
//! worker failed at — the one a single worker meets first. A worker that
//! fails hangs up its channel; the sweep stops there and hangs up every
//! other, so no worker stays blocked on a full channel.

use super::machine::{ScheduledReport, WindowScorer};
use super::run::{StationRun, StationScratch};
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap};
use std::iter::Fuse;
use std::sync::mpsc::{sync_channel, SyncSender};

/// How a population of [`StationRun`]s executes: always on the virtual-time
/// core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// An alias of [`Executor::virtual_time`], kept because the benchmark
    /// package still names it; it runs exactly as `virtual_time()` does.
    Pooled,
    /// Shard stations over workers and sweep their admissions and
    /// retirements in virtual time, with memory in the live stations.
    VirtualTime {
        /// Worker (shard) count; the machine's parallelism, at most one per
        /// station, when `None`. Reports are identical for every worker
        /// count.
        workers: Option<usize>,
        /// Always `None`: the type admits no horizon, since every station
        /// drains to exhaustion at its admission. Kept because the benchmark
        /// package still names it.
        max_slice: Option<std::convert::Infallible>,
    },
}

impl Default for Executor {
    fn default() -> Self {
        Executor::virtual_time()
    }
}

impl Executor {
    /// The virtual-time executor on the default shard count.
    pub fn virtual_time() -> Self {
        Executor::VirtualTime {
            workers: None,
            max_slice: None,
        }
    }

    /// Parses a spec tag: `"virtual_time"`, or its alias `"pooled"`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "virtual_time" | "pooled" => Ok(Executor::virtual_time()),
            other => Err(format!(
                "unknown executor `{other}` (expected `virtual_time` or its alias `pooled`)"
            )),
        }
    }
}

/// Scheduling statistics of one execution. Deliberately **not** part of any
/// scenario report: reports must be identical across worker counts, while
/// these describe how the run was scheduled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutorStats {
    /// Virtual-time shards used.
    pub workers: usize,
    /// Stations admitted (the whole population).
    pub admitted: usize,
    /// Most stations simultaneously on air, from the timeline sweep.
    pub peak_active: usize,
    /// Events the timeline sweep counted: one admission and one retirement
    /// per station, whatever the worker count, so always exactly twice
    /// [`admitted`](Self::admitted). It counts the population, not work: a
    /// station drains its whole source at admission.
    pub events_popped: u64,
    /// Packets pulled from every station's source.
    pub packets: u64,
    /// Morphing calibration sessions generated, summed over workers. Each
    /// worker calibrates an `(app, target)` pair once per execution, so this
    /// is at most two sessions per pair per worker, whatever the population.
    pub calibrations: u64,
}

impl ExecutorStats {
    /// Packets per event (0 when no events fired). Every station counts
    /// exactly two events, so this is half the mean packets per station; it
    /// moves with the population's traffic, not with how the executor
    /// batches work.
    pub fn packets_per_event(&self) -> f64 {
        if self.events_popped == 0 {
            0.0
        } else {
            self.packets as f64 / self.events_popped as f64
        }
    }
}

/// A per-worker accumulator of finished stations. Each worker folds the
/// stations it drains into its own (in its stations' arrival order), and
/// the executor merges the workers' accumulators after the join, so a fold
/// that must not depend on the worker count has to be order-independent.
pub trait Fold: Default + Send {
    /// Absorbs another worker's accumulator.
    fn merge(&mut self, other: Self);
}

/// One value per station, keyed by station index.
impl<T: Send> Fold for BTreeMap<usize, T> {
    fn merge(&mut self, mut other: Self) {
        self.append(&mut other);
    }
}

/// A population's execution: the merged accumulator of every station, plus
/// the scheduling statistics.
#[derive(Debug, Clone)]
pub struct ExecutionOutcome<A> {
    /// Every station folded in, the workers' accumulators merged.
    pub folded: A,
    /// How the run was scheduled.
    pub stats: ExecutorStats,
}

/// A point of the timeline in canonical order: by second
/// ([`f64::total_cmp`]), then by station index.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Canonical(pub(crate) f64, pub(crate) usize);

impl Ord for Canonical {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

impl PartialOrd for Canonical {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Canonical {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Canonical {}

/// A failed execution: the arrival-stream position it failed at, and why.
type Failure = (usize, String);

/// The arrivals handed to an execution, checked against the arrival
/// contract as they are pulled, in O(1) state.
struct CheckedArrivals<I> {
    arrivals: Fuse<I>,
    count: usize,
    /// Arrivals pulled so far: the stream position of the next one.
    pulled: usize,
    /// Sum of the pulled station indices, to name a single missing one.
    index_sum: u128,
    last: Option<Canonical>,
}

impl<I: Iterator<Item = (f64, usize)>> CheckedArrivals<I> {
    fn new(arrivals: I, count: usize) -> Self {
        CheckedArrivals {
            arrivals: arrivals.fuse(),
            count,
            pulled: 0,
            index_sum: 0,
            last: None,
        }
    }

    /// The next arrival as `(position, second, station)`, `None` once every
    /// station arrived, or the first breach of the contract.
    fn pull(&mut self) -> Result<Option<(usize, f64, usize)>, Failure> {
        let position = self.pulled;
        let Some((at, station)) = self.arrivals.next() else {
            let expected = self.count as u128 * (self.count as u128).saturating_sub(1) / 2;
            return match self.count - self.pulled {
                0 => Ok(None),
                1 => Err((
                    position,
                    format!(
                        "station {}: missing from the arrivals",
                        expected - self.index_sum
                    ),
                )),
                missing => Err((
                    position,
                    format!("the arrivals miss {missing} of {} stations", self.count),
                )),
            };
        };
        let fail = |why: String| Err((position, format!("station {station}: {why}")));
        if station >= self.count {
            return fail(format!("out of range (0..{})", self.count));
        }
        if position == self.count {
            return fail(format!(
                "arrives again after all {} stations arrived",
                self.count
            ));
        }
        let here = Canonical(at, station);
        if let Some(last) = self.last {
            match last.cmp(&here) {
                Ordering::Less => {}
                Ordering::Equal => return fail(format!("arrives twice at {at} s")),
                Ordering::Greater => {
                    return fail(format!(
                        "arrives at {at} s after station {} at {} s; arrivals \
                         must ascend by (second, index)",
                        last.1, last.0
                    ))
                }
            }
        }
        self.pulled += 1;
        self.index_sum += station as u128;
        self.last = Some(here);
        Ok(Some((position, at, station)))
    }
}

/// Materialises the station arriving at `at` on the worker's `scratch`,
/// drains it to exhaustion and folds its report into `folded`. Its run must
/// arrive at `at` too. Returns the packets it drained and the second it
/// retires at: its last packet's, or `at` for a station that sent none.
fn run_station<S: WindowScorer, A>(
    at: f64,
    station: usize,
    admit: &impl Fn(usize) -> (StationRun, S),
    fold: &impl Fn(&mut A, usize, ScheduledReport, S),
    scratch: &mut StationScratch,
    folded: &mut A,
) -> Result<(u64, f64), String> {
    let (run, mut scorer) = admit(station);
    if run.arrival().total_cmp(&at) != Ordering::Equal {
        return Err(format!(
            "station {station}: handed an arrival at {at} s, but its run arrives at {} s",
            run.arrival()
        ));
    }
    let (report, last_secs) = run
        .run_on(scratch, &mut scorer)
        .map_err(|e| format!("station {station}: {e}"))?;
    let packets = report.packets;
    fold(folded, station, report, scorer);
    Ok((packets, last_secs.unwrap_or(at)))
}

/// What one worker hands back after the join.
#[derive(Default)]
struct WorkerTally<A> {
    folded: A,
    packets: u64,
    calibrations: u64,
}

impl Executor {
    /// Executes a population of `count` stations.
    ///
    /// * `arrivals` lists every station's `(arrival second, index)` once,
    ///   ascending by `(second, index)`; it is read lazily, once per worker
    ///   and once by the timeline sweep (it must be cheap to clone);
    /// * `admit(i)` materialises station `i` at its admission: its run and
    ///   its scorer (a frozen borrow or a live per-station fork);
    /// * `fold(acc, i, report, scorer)` folds a finished station into the
    ///   worker's accumulator.
    ///
    /// Per-station reports are identical whatever the worker count:
    /// stations share no mutable state, and each one sees exactly its own
    /// packets in order. Fails on the first station (in stream order) that
    /// breaches the arrival contract or cannot be admitted.
    pub fn run<S, A>(
        &self,
        count: usize,
        arrivals: impl Iterator<Item = (f64, usize)> + Clone + Send,
        admit: impl Fn(usize) -> (StationRun, S) + Sync,
        fold: impl Fn(&mut A, usize, ScheduledReport, S) + Sync,
    ) -> Result<ExecutionOutcome<A>, String>
    where
        S: WindowScorer,
        A: Fold,
    {
        let workers = match *self {
            Executor::VirtualTime {
                workers: Some(workers),
                ..
            } => workers.max(1),
            // The machine's parallelism (8 when unknown), at most one shard
            // per station.
            _ => std::thread::available_parallelism()
                .map_or(8, std::num::NonZeroUsize::get)
                .min(count.max(1)),
        };
        // One shard per worker reads the arrival stream for its own
        // stations, while the calling thread sweeps their retirements.
        let (results, (peak_active, events_popped)) = std::thread::scope(|scope| {
            let mut lanes = Vec::with_capacity(workers);
            let mut handles = Vec::with_capacity(workers);
            for worker in 0..workers {
                let (tx, rx) = sync_channel(RETIRE_BATCHES_IN_FLIGHT);
                let arrivals = CheckedArrivals::new(arrivals.clone(), count);
                let (admit, fold) = (&admit, &fold);
                handles.push(
                    scope.spawn(move || drive_shard(worker, workers, arrivals, tx, admit, fold)),
                );
                lanes.push(rx.into_iter().flatten());
            }
            // The sweep drops every lane before the join.
            let timeline = sweep(arrivals, lanes);
            let results: Vec<Result<WorkerTally<A>, Failure>> = handles
                .into_iter()
                .map(|handle| handle.join().expect("virtual-time shard panicked"))
                .collect();
            (results, timeline)
        });
        let mut tallies = Vec::with_capacity(workers);
        let mut failures = Vec::new();
        for result in results {
            match result {
                Ok(tally) => tallies.push(tally),
                Err(failure) => failures.push(failure),
            }
        }
        // The failure at the earliest stream position wins.
        if let Some((_, e)) = failures.into_iter().min_by_key(|(position, _)| *position) {
            return Err(e);
        }
        let mut stats = ExecutorStats {
            workers,
            admitted: count,
            peak_active,
            events_popped,
            packets: 0,
            calibrations: 0,
        };
        for tally in &tallies {
            stats.packets += tally.packets;
            stats.calibrations += tally.calibrations;
        }
        // The other workers' accumulators merge into the first one.
        let folded = tallies
            .into_iter()
            .map(|tally| tally.folded)
            .reduce(|mut folded, other| {
                folded.merge(other);
                folded
            })
            .unwrap_or_default();
        Ok(ExecutionOutcome { folded, stats })
    }
}

/// Retirement seconds per batch a shard sends to the timeline sweep.
const RETIRE_BATCH: usize = 256;

/// Batches in flight per shard before the shard waits for the sweep.
const RETIRE_BATCHES_IN_FLIGHT: usize = 4;

/// Sweeps the timeline once: admits the stations in arrival order, taking
/// station *s*'s retirement second from lane *s* mod `lanes.len()`, and
/// retires every live station that precedes an admission canonically
/// before counting it. Returns `(peak active, admissions + retirements)`.
/// Stops at the first lane that hangs up before it hands the retirement
/// asked for: its shard failed.
fn sweep(
    arrivals: impl Iterator<Item = (f64, usize)>,
    mut lanes: Vec<impl Iterator<Item = f64>>,
) -> (usize, u64) {
    let mut live = BinaryHeap::new();
    let (mut peak_active, mut events) = (0, 0u64);
    for (at, station) in arrivals {
        let lane = station % lanes.len();
        let Some(retire) = lanes[lane].next() else {
            break;
        };
        let admission = Canonical(at, station);
        while live.peek().is_some_and(|Reverse(r)| *r < admission) {
            live.pop();
            events += 1;
        }
        live.push(Reverse(Canonical(retire, station)));
        peak_active = peak_active.max(live.len());
        events += 1;
    }
    (peak_active, events + live.len() as u64)
}

/// Drives one shard: runs each of its own stations in arrival order and
/// sends their retirement seconds to the sweep in batches. Returns its
/// tally, or its first failure in stream order; the channel hangs up either
/// way. A shard whose sweep hung up stops early: another shard failed.
fn drive_shard<S, A, I>(
    worker: usize,
    workers: usize,
    mut arrivals: CheckedArrivals<I>,
    tx: SyncSender<Vec<f64>>,
    admit: &impl Fn(usize) -> (StationRun, S),
    fold: &impl Fn(&mut A, usize, ScheduledReport, S),
) -> Result<WorkerTally<A>, Failure>
where
    S: WindowScorer,
    A: Default,
    I: Iterator<Item = (f64, usize)>,
{
    let mut tally = WorkerTally::default();
    let mut scratch = StationScratch::new();
    let mut retirements = Vec::with_capacity(RETIRE_BATCH);
    while let Some((position, at, station)) = arrivals.pull()? {
        if station % workers != worker {
            continue;
        }
        let (packets, retire) =
            run_station(at, station, admit, fold, &mut scratch, &mut tally.folded)
                .map_err(|e| (position, e))?;
        tally.packets += packets;
        retirements.push(retire);
        if retirements.len() == RETIRE_BATCH {
            let batch = std::mem::replace(&mut retirements, Vec::with_capacity(RETIRE_BATCH));
            if tx.send(batch).is_err() {
                break;
            }
        }
    }
    // Fails only when the sweep already stopped at another shard's failure.
    let _ = tx.send(retirements);
    tally.calibrations = scratch.calibrations.sessions();
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use classifier::stream::WindowExample;
    use traffic_gen::app::AppKind;
    use traffic_gen::spec::TrafficSpec;

    /// Four short stations; stations 0 and 1 arrive at second 0, stations
    /// 2 and 3 at second 1.
    const STATIONS: usize = 4;

    fn run_of(i: usize) -> StationRun {
        StationRun::new(TrafficSpec::bounded(AppKind::Chatting, 50 + i as u64, 2.0))
            .arrival_secs((i / 2) as f64)
    }

    fn valid() -> Vec<(f64, usize)> {
        (0..STATIONS).map(|i| ((i / 2) as f64, i)).collect()
    }

    /// A scorer that needs no training.
    struct Blind;

    impl WindowScorer for Blind {
        fn score(&mut self, _: &WindowExample) -> usize {
            0
        }
    }

    impl Executor {
        /// The executor on exactly `workers` shards.
        pub(crate) fn on_workers(workers: usize) -> Self {
            Executor::VirtualTime {
                workers: Some(workers),
                max_slice: None,
            }
        }
    }

    fn executors() -> [Executor; 3] {
        [
            Executor::virtual_time(),
            Executor::on_workers(1),
            Executor::on_workers(3),
        ]
    }

    #[test]
    fn the_pooled_alias_runs_as_virtual_time() {
        let run = |executor: Executor| {
            executor
                .run(
                    STATIONS,
                    valid().into_iter(),
                    |i| (run_of(i), Blind),
                    |acc: &mut BTreeMap<usize, ScheduledReport>, i, report, _| {
                        acc.insert(i, report);
                    },
                )
                .expect("a valid stream runs")
        };
        assert_eq!(Executor::default(), Executor::virtual_time());
        let (alias, canonical) = (run(Executor::Pooled), run(Executor::virtual_time()));
        assert_eq!(alias.folded, canonical.folded);
        assert_eq!(alias.stats, canonical.stats);
        // The default shard count never exceeds the population.
        assert!(canonical.stats.workers <= STATIONS);
        assert_eq!(canonical.stats.events_popped, 2 * STATIONS as u64);
    }

    /// Runs the four stations on `arrivals` on every executor shape,
    /// expecting each to fail with the same error, which it returns.
    fn failure(arrivals: &[(f64, usize)]) -> String {
        let mut errors = Vec::new();
        for executor in executors() {
            let outcome = executor.run(
                STATIONS,
                arrivals.iter().copied(),
                |i| (run_of(i), Blind),
                |acc: &mut BTreeMap<usize, u64>, i, report, _| {
                    acc.insert(i, report.packets);
                },
            );
            match outcome {
                Ok(_) => panic!("{executor:?} accepted {arrivals:?}"),
                Err(e) => errors.push(e),
            }
        }
        assert!(
            errors.windows(2).all(|w| w[0] == w[1]),
            "every executor names the same breach: {errors:?}"
        );
        errors.remove(0)
    }

    #[test]
    fn valid_arrivals_run_every_station_once() {
        for executor in executors() {
            let outcome = executor
                .run(
                    STATIONS,
                    valid().into_iter(),
                    |i| (run_of(i), Blind),
                    |acc: &mut BTreeMap<usize, u64>, i, report, _| {
                        assert!(report.packets > 0);
                        assert!(acc.insert(i, report.packets).is_none());
                    },
                )
                .expect("a valid stream runs");
            let folded: Vec<usize> = outcome.folded.into_keys().collect();
            let expected: Vec<usize> = (0..STATIONS).collect();
            assert_eq!(folded, expected, "{executor:?}");
            assert_eq!(outcome.stats.admitted, STATIONS);
        }
    }

    #[test]
    fn arrivals_that_go_backwards_are_an_error() {
        let e = failure(&[(0.0, 0), (1.0, 2), (0.0, 1), (1.0, 3)]);
        assert!(
            e.starts_with("station 1: arrives at 0 s after station 2 at 1 s"),
            "{e}"
        );
        // Equal seconds must ascend by index.
        let e = failure(&[(0.0, 1), (0.0, 0), (1.0, 2), (1.0, 3)]);
        assert!(e.starts_with("station 0:") && e.contains("ascend"), "{e}");
    }

    #[test]
    fn a_repeated_station_is_an_error() {
        let e = failure(&[(0.0, 0), (0.0, 1), (0.0, 1), (1.0, 3)]);
        assert!(e.starts_with("station 1: arrives twice"), "{e}");
        // Repeated at another second, which is not when its run arrives.
        let e = failure(&[(0.0, 0), (0.0, 1), (1.0, 2), (1.5, 1)]);
        assert!(
            e.starts_with("station 1:") && e.contains("its run arrives at 0 s"),
            "{e}"
        );
        // Repeated after every station arrived.
        let mut arrivals = valid();
        arrivals.push((9.0, 3));
        let e = failure(&arrivals);
        assert!(e.starts_with("station 3: arrives again"), "{e}");
    }

    #[test]
    fn a_missing_station_is_an_error() {
        let mut arrivals = valid();
        arrivals.remove(2);
        let e = failure(&arrivals);
        assert_eq!(e, "station 2: missing from the arrivals");
        let e = failure(&valid()[..1]);
        assert_eq!(e, "the arrivals miss 3 of 4 stations");
        let mut arrivals = valid();
        arrivals.push((4.0, 4));
        let e = failure(&arrivals);
        assert!(e.starts_with("station 4: out of range"), "{e}");
    }

    #[test]
    fn the_earliest_failure_in_stream_order_wins() {
        // Station 1 is handed the wrong second and station 3's arrival goes
        // backwards later: every executor shape reports station 1.
        let e = failure(&[(0.0, 0), (0.5, 1), (1.0, 2), (0.0, 3)]);
        assert!(
            e.starts_with("station 1: handed an arrival at 0.5 s"),
            "{e}"
        );
    }

    #[test]
    fn a_failure_wakes_shards_blocked_on_a_full_channel() {
        // Station 1 is handed the wrong second, so shard 1 fails at once.
        // Station 0's admission waits until shard 2 has filled its channel
        // and blocked on the next batch; the sweep then reaches station 1,
        // finds its lane hung up and must hang up shard 2's.
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        const WORKERS: usize = 3;
        let blocked_at = RETIRE_BATCH * (RETIRE_BATCHES_IN_FLIGHT + 1);
        let count = WORKERS * (blocked_at + RETIRE_BATCH);
        let shard_2_admitted = AtomicUsize::new(0);
        let admit = |i: usize| {
            if i == 0 {
                while shard_2_admitted.load(SeqCst) < blocked_at {
                    std::thread::yield_now();
                }
            } else if i % WORKERS == 2 {
                shard_2_admitted.fetch_add(1, SeqCst);
            }
            let run = StationRun::new(TrafficSpec::bounded(AppKind::Chatting, i as u64, 0.01));
            (run.arrival_secs(if i == 1 { 1.0 } else { 0.0 }), Blind)
        };
        let e = Executor::on_workers(WORKERS)
            .run(
                count,
                (0..count).map(|i| (0.0, i)),
                admit,
                |acc: &mut BTreeMap<usize, u64>, i, report, _| {
                    acc.insert(i, report.packets);
                },
            )
            .expect_err("station 1 cannot be admitted");
        assert_eq!(
            e,
            "station 1: handed an arrival at 0 s, but its run arrives at 1 s"
        );
        assert_eq!(
            shard_2_admitted.load(SeqCst),
            blocked_at,
            "shard 2 stopped where the full channel blocked it"
        );
    }

    /// Runs the sweep over stations given as `(arrival, session)` pairs on
    /// `workers` lanes.
    fn swept(stations: &[(f64, f64)], workers: usize) -> (usize, u64) {
        let mut arrivals: Vec<(f64, usize)> = stations
            .iter()
            .enumerate()
            .map(|(i, &(at, _))| (at, i))
            .collect();
        arrivals.sort_by_key(|&(at, i)| Canonical(at, i));
        let mut lanes = vec![Vec::new(); workers];
        for &(at, i) in &arrivals {
            lanes[i % workers].push(at + stations[i].1);
        }
        sweep(
            arrivals.into_iter(),
            lanes.into_iter().map(Vec::into_iter).collect(),
        )
    }

    proptest::proptest! {
        #[test]
        fn the_sweep_counts_what_a_brute_force_overlap_count_does(
            seed in 0u64..u64::MAX,
            workers in 1usize..=4,
        ) {
            // Up to 40 stations on half-second grids: equal seconds and
            // zero-length sessions are common.
            let mut rng = proptest::TestRng::new(seed);
            let stations: Vec<(f64, f64)> = (0..rng.below(41))
                .map(|_| (rng.below(6) as f64 * 0.5, rng.below(4) as f64 * 0.5))
                .collect();
            let admission = |i: usize| Canonical(stations[i].0, i);
            let retirement = |i: usize| Canonical(stations[i].0 + stations[i].1, i);
            // Station j is on air at i's admission when it was admitted no
            // later and retires no earlier, in canonical order.
            let brute = (0..stations.len())
                .map(|i| {
                    (0..stations.len())
                        .filter(|&j| admission(j) <= admission(i) && retirement(j) >= admission(i))
                        .count()
                })
                .max()
                .unwrap_or(0);
            let (peak_active, events) = swept(&stations, workers);
            proptest::prop_assert_eq!(peak_active, brute);
            proptest::prop_assert_eq!(events, 2 * stations.len() as u64);
        }
    }
}
