//! The execution substrate: the virtual-time discrete-event core, behind the
//! [`Executor`] selector.
//!
//! The executor streams its population. It is handed the stations' arrivals
//! in canonical `(second, index)` order (a scenario's come from
//! [`Population::arrivals`](crate::scenario::Population::arrivals)) and
//! materialises each station once, at its admission. Each worker folds a
//! finished station into its own accumulator ([`Fold`]) the moment the
//! station retires, and the accumulators merge after the join. Memory is
//! therefore O(workers × live stations + groups + events), never
//! O(population): full-size `scenarios/metropolis.toml` (a million stations,
//! about 2,000 on air at once) peaks under 6 MB resident on two workers,
//! where the executor that kept a result slot, two churn records and a
//! seeded admission per station peaked at 221 MB.
//!
//! Station *i* runs on worker *i* mod *W*. Each worker reads the arrival
//! stream itself and keeps its next own admission beside a **binary heap
//! keyed on virtual timestamps** that holds its stations' retirements. It
//! always takes the earlier of the two, by `(time, station, admit before
//! retire)`.
//!
//! # Event coalescing
//!
//! Events are **station-grained**, not packet-grained. At its admission a
//! station drains its whole source through the batched
//! [`StationMachine::offer_slice`](super::machine::StationMachine) path,
//! folds its report, drops every byte of its state and leaves only its
//! retirement in the heap, at its last packet's time. Coalescing is
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
//! Every worker writes its admissions and retirements in pop order, which is
//! exactly the canonical `(time, station, admit-before-retire)` order,
//! because retirements are heap events themselves. It sends them in batches
//! through a bounded channel to the calling thread, which k-way merges the
//! workers' batches as they arrive into one canonical timeline, and folds
//! that into the peak-active count and the last virtual second of
//! [`ExecutorStats`]. The timeline is the same for 1, 2 or 8 workers: each
//! record's timestamp derives from its station alone, never from
//! scheduling. No batch outlives the merge step that consumes it.
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
//! worker failed at — the one a single worker meets first.

use super::machine::{ScheduledReport, WindowScorer};
use super::run::{StationRun, StationScratch};
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap};
use std::iter::Fuse;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

/// How a population of [`StationRun`]s executes: always on the virtual-time
/// core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// An alias of [`Executor::virtual_time`], kept because the benchmark
    /// package still names it; it runs exactly as `virtual_time()` does.
    Pooled,
    /// Interleave stations on per-worker virtual-time event heaps, admitting
    /// and retiring them by schedule with memory in the live stations.
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

    /// Parses a spec tag; `"pooled"` is an alias of `"virtual_time"`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "virtual_time" | "virtual-time" | "vtime" | "event" | "pooled" | "pool" => {
                Ok(Executor::virtual_time())
            }
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
    /// Most stations simultaneously on air, from the merged cross-shard
    /// timeline.
    pub peak_active: usize,
    /// Last virtual second of the run.
    pub virtual_secs: f64,
    /// Events popped across all shards: one admission and one retirement
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
    /// Packets per heap event (0 when no events fired). Every station pops
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
/// stations it retires into its own (in whatever order they retire), and the
/// executor merges the workers' accumulators after the join, so a fold that
/// must not depend on the worker count has to be order-independent.
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
    last: Option<(f64, usize)>,
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
        if let Some((last_at, last)) = self.last {
            match last_at.total_cmp(&at).then(last.cmp(&station)) {
                Ordering::Less => {}
                Ordering::Equal => return fail(format!("arrives twice at {at} s")),
                Ordering::Greater => {
                    return fail(format!(
                        "arrives at {at} s after station {last} at {last_at} s; arrivals \
                         must ascend by (second, index)"
                    ))
                }
            }
        }
        self.pulled += 1;
        self.index_sum += station as u128;
        self.last = Some((at, station));
        Ok(Some((position, at, station)))
    }
}

/// Materialises the station arriving at `at` on the worker's `scratch`,
/// drains it to exhaustion and folds its report into `folded`. Its run must
/// arrive at `at` too. Returns the packets it drained and the second it
/// retires at: its last packet's, or `at` for a station that sent none.
fn run_station<S: WindowScorer, C, A>(
    at: f64,
    station: usize,
    admit: &impl Fn(usize) -> (StationRun, S, C),
    fold: &impl Fn(&mut A, usize, ScheduledReport, S, C),
    scratch: &mut StationScratch,
    folded: &mut A,
) -> Result<(u64, f64), String> {
    let (run, mut scorer, ticket) = admit(station);
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
    fold(folded, station, report, scorer, ticket);
    Ok((packets, last_secs.unwrap_or(at)))
}

/// What one worker hands back after the join.
#[derive(Default)]
struct WorkerTally<A> {
    folded: A,
    events_popped: u64,
    packets: u64,
    calibrations: u64,
}

impl Executor {
    /// Executes a population of `count` stations.
    ///
    /// * `arrivals` lists every station's `(arrival second, index)` once,
    ///   ascending by `(second, index)`; it is read lazily, once per worker
    ///   (it must be cheap to clone);
    /// * `admit(i)` materialises station `i` at its admission: its run, its
    ///   scorer (a frozen borrow or a live per-station fork) and a ticket
    ///   the caller wants back at the fold;
    /// * `fold(acc, i, report, scorer, ticket)` folds a finished station into
    ///   the worker's accumulator.
    ///
    /// Per-station reports are identical whatever the worker count:
    /// stations share no mutable state, and each one sees exactly its own
    /// packets in order. Fails on the first station (in stream order) that
    /// breaches the arrival contract or cannot be admitted.
    pub fn run<S, C, A>(
        &self,
        count: usize,
        arrivals: impl Iterator<Item = (f64, usize)> + Clone + Send,
        admit: impl Fn(usize) -> (StationRun, S, C) + Sync,
        fold: impl Fn(&mut A, usize, ScheduledReport, S, C) + Sync,
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
        let (tallies, timeline) = virtual_time(workers, count, arrivals, &admit, &fold)?;
        let mut stats = ExecutorStats {
            workers,
            admitted: count,
            peak_active: timeline.peak_active,
            virtual_secs: timeline.virtual_secs,
            events_popped: 0,
            packets: 0,
            calibrations: 0,
        };
        for tally in &tallies {
            stats.events_popped += tally.events_popped;
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

/// Churn records per batch a shard sends to the timeline merge.
const CHURN_BATCH: usize = 256;

/// Batches in flight per shard before the shard waits for the merge.
const CHURN_BATCHES_IN_FLIGHT: usize = 4;

/// One entry of a shard's admission/retirement log: `(virtual second,
/// station index, +1 admit / -1 retire)`. Records order canonically, by
/// `(time, station, admit-before-retire)`; shards append them in exactly
/// this order (see [`drive_shard`]), which is what makes the streaming k-way
/// merge sufficient.
#[derive(Debug, Clone, Copy)]
struct ChurnRecord {
    at_secs: f64,
    station: usize,
    delta: i8,
}

impl Ord for ChurnRecord {
    fn cmp(&self, other: &Self) -> Ordering {
        self.at_secs
            .total_cmp(&other.at_secs)
            .then_with(|| self.station.cmp(&other.station))
            .then_with(|| other.delta.cmp(&self.delta))
    }
}

impl PartialOrd for ChurnRecord {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for ChurnRecord {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for ChurnRecord {}

/// The cross-shard timeline's statistics.
#[derive(Debug, Default)]
struct Timeline {
    peak_active: usize,
    virtual_secs: f64,
}

/// A shard's churn log as the merge reads it: the batch being read and the
/// channel the next ones come through (`None` once the shard hung up).
struct Lane {
    batch: Vec<ChurnRecord>,
    next: usize,
    rx: Option<Receiver<Vec<ChurnRecord>>>,
}

impl Lane {
    /// The lane's next record, waiting for the shard's next batch if needed
    /// (`None` once the shard finished and every record was read).
    fn head(&mut self) -> Option<ChurnRecord> {
        while self.next == self.batch.len() {
            match self.rx.as_ref()?.recv() {
                Ok(batch) => {
                    self.batch = batch;
                    self.next = 0;
                }
                Err(_) => self.rx = None,
            }
        }
        Some(self.batch[self.next])
    }
}

/// Folds the shards' churn logs, merged in canonical order as they stream
/// in, into the timeline's statistics. Returns once every shard hung up.
fn merge_timeline(lanes: &mut [Lane]) -> Timeline {
    let mut timeline = Timeline::default();
    let mut active = 0usize;
    let mut last: Option<ChurnRecord> = None;
    loop {
        let mut best: Option<(usize, ChurnRecord)> = None;
        for (lane, log) in lanes.iter_mut().enumerate() {
            if let Some(record) = log.head() {
                if best.is_none_or(|(_, b)| record < b) {
                    best = Some((lane, record));
                }
            }
        }
        let Some((lane, record)) = best else {
            return timeline;
        };
        lanes[lane].next += 1;
        debug_assert!(last.is_none_or(|l| l <= record));
        last = Some(record);
        if record.delta > 0 {
            active += 1;
            timeline.peak_active = timeline.peak_active.max(active);
        } else {
            active -= 1;
        }
        timeline.virtual_secs = timeline.virtual_secs.max(record.at_secs);
    }
}

/// The virtual-time core: one shard per worker, each reading the arrival
/// stream for its own stations, while the calling thread merges their churn
/// logs. Returns the workers' tallies and the merged timeline, or the
/// failure at the earliest stream position.
fn virtual_time<S, C, A, I>(
    workers: usize,
    count: usize,
    arrivals: I,
    admit: &(impl Fn(usize) -> (StationRun, S, C) + Sync),
    fold: &(impl Fn(&mut A, usize, ScheduledReport, S, C) + Sync),
) -> Result<(Vec<WorkerTally<A>>, Timeline), String>
where
    S: WindowScorer,
    A: Fold,
    I: Iterator<Item = (f64, usize)> + Clone + Send,
{
    let (results, timeline) = std::thread::scope(|scope| {
        let mut lanes = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for worker in 0..workers {
            let (tx, rx) = sync_channel(CHURN_BATCHES_IN_FLIGHT);
            let arrivals = CheckedArrivals::new(arrivals.clone(), count);
            handles.push(scope.spawn(move || {
                let shard = Shard {
                    worker,
                    workers,
                    arrivals,
                    retiring: BinaryHeap::new(),
                    scratch: StationScratch::new(),
                    log: Vec::with_capacity(CHURN_BATCH),
                    tx,
                    tally: WorkerTally::default(),
                };
                drive_shard(shard, admit, fold)
            }));
            lanes.push(Lane {
                batch: Vec::new(),
                next: 0,
                rx: Some(rx),
            });
        }
        let timeline = merge_timeline(&mut lanes);
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
    match failures.into_iter().min_by_key(|(position, _)| *position) {
        Some((_, e)) => Err(e),
        None => Ok((tallies, timeline)),
    }
}

/// One virtual-time worker's state: its view of the arrival stream, the
/// heap of its drained stations' retirements, and its churn log batch.
struct Shard<A, I> {
    worker: usize,
    workers: usize,
    arrivals: CheckedArrivals<I>,
    /// Retirements not yet logged, earliest on top. A drain learns a
    /// station's retirement far ahead of the shard's clock; holding it here
    /// until the clock reaches it keeps the log in canonical order.
    retiring: BinaryHeap<Reverse<ChurnRecord>>,
    scratch: StationScratch,
    log: Vec<ChurnRecord>,
    tx: SyncSender<Vec<ChurnRecord>>,
    tally: WorkerTally<A>,
}

impl<A, I: Iterator<Item = (f64, usize)>> Shard<A, I> {
    /// The shard's next own arrival, checking every arrival it skips.
    fn next_own(&mut self) -> Result<Option<(usize, f64, usize)>, Failure> {
        while let Some(arrival) = self.arrivals.pull()? {
            if arrival.2 % self.workers == self.worker {
                return Ok(Some(arrival));
            }
        }
        Ok(None)
    }

    /// Appends a churn record, sending the batch once it is full.
    fn record(&mut self, record: ChurnRecord) {
        self.log.push(record);
        if self.log.len() == CHURN_BATCH {
            self.send_log();
        }
    }

    fn send_log(&mut self) {
        let batch = std::mem::replace(&mut self.log, Vec::with_capacity(CHURN_BATCH));
        // The merge only hangs up after every shard did.
        let _ = self.tx.send(batch);
    }
}

/// Drives one shard until its stations all retired. Returns its tally, or
/// its first failure in stream order (the channel hangs up either way).
fn drive_shard<S, C, A, I>(
    mut shard: Shard<A, I>,
    admit: &impl Fn(usize) -> (StationRun, S, C),
    fold: &impl Fn(&mut A, usize, ScheduledReport, S, C),
) -> Result<WorkerTally<A>, Failure>
where
    S: WindowScorer,
    I: Iterator<Item = (f64, usize)>,
{
    let mut next_admit = shard.next_own()?;
    loop {
        let admission = next_admit.map(|(_, at_secs, station)| ChurnRecord {
            at_secs,
            station,
            delta: 1,
        });
        let retirement = shard.retiring.peek().map(|Reverse(top)| *top);
        // The earlier of the next admission and the earliest retirement.
        let Some(event) = admission.into_iter().chain(retirement).min() else {
            break;
        };
        shard.tally.events_popped += 1;
        shard.record(event);
        if event.delta < 0 {
            shard.retiring.pop();
            continue;
        }
        let (position, ..) = next_admit.expect("the earlier event is the pending admission");
        let (packets, retire_secs) = run_station(
            event.at_secs,
            event.station,
            admit,
            fold,
            &mut shard.scratch,
            &mut shard.tally.folded,
        )
        .map_err(|e| (position, e))?;
        shard.tally.packets += packets;
        shard.retiring.push(Reverse(ChurnRecord {
            at_secs: retire_secs,
            station: event.station,
            delta: -1,
        }));
        next_admit = shard.next_own()?;
    }
    if !shard.log.is_empty() {
        shard.send_log();
    }
    shard.tally.calibrations = shard.scratch.calibrations.sessions();
    Ok(shard.tally)
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
                    |i| (run_of(i), Blind, ()),
                    |acc: &mut BTreeMap<usize, ScheduledReport>, i, report, _, _| {
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
                |i| (run_of(i), Blind, ()),
                |acc: &mut BTreeMap<usize, u64>, i, report, _, _| {
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
                    |i| (run_of(i), Blind, i * 10),
                    |acc: &mut BTreeMap<usize, usize>, i, report, _, ticket| {
                        assert!(report.packets > 0);
                        assert!(acc.insert(i, ticket).is_none());
                    },
                )
                .expect("a valid stream runs");
            let folded: Vec<(usize, usize)> = outcome.folded.into_iter().collect();
            let expected: Vec<(usize, usize)> = (0..STATIONS).map(|i| (i, i * 10)).collect();
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
}
