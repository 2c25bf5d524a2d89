//! The execution substrate: the work-stealing pool and the virtual-time
//! discrete-event core, behind one [`Executor`] selector.
//!
//! Both executors stream their population. They are handed the stations'
//! arrivals in canonical `(second, index)` order (a scenario's come from
//! [`Population::arrivals`](crate::scenario::Population::arrivals)) and
//! materialise each station once, at its admission. Each worker folds a
//! finished station into its own accumulator ([`Fold`]) the moment the
//! station retires, and the accumulators merge after the join. Memory is
//! therefore O(workers × live stations + groups + events), never
//! O(population): full-size `scenarios/metropolis.toml` (a million stations,
//! about 2,000 on air at once) peaks under 6 MB resident on two workers,
//! where the executor that kept a result slot, two churn records and a
//! seeded admission per station peaked at 221 MB.
//!
//! [`Executor::Pooled`] is the historical strategy: each worker pulls the
//! next arrival from the shared stream and runs that station to completion.
//!
//! [`Executor::VirtualTime`] is the discrete-event core: station *i* runs on
//! worker *i* mod *W*. Each worker reads the arrival stream itself and keeps
//! its next own admission beside a **binary heap keyed on virtual
//! timestamps** that holds only its live stations' events. It always pops
//! the earlier of the two, by `(time, station, Admit < Resume < Retire)`. A
//! station that waits between slices is parked in a slab that its `Resume`
//! event indexes. When a source is exhausted the station retires and every
//! byte of its state drops.
//!
//! # Event coalescing
//!
//! Events are **slice-grained**, not packet-grained. When a station's event
//! fires, the worker drains a whole run of its packets through the batched
//! [`StationMachine::offer_slice`](super::machine::StationMachine) path —
//! to source exhaustion by default, or to a configurable `max_slice`
//! horizon — and re-enters the heap only at that horizon. Coalescing is
//! **unobservable by construction**: stations are mutually independent (the
//! shared adversary is only read; live scorers are per-station forks), so
//! no station's report can depend on how packets of *other* stations were
//! interleaved between its own; and the executor's own statistics derive
//! from admission/retirement timestamps (arrival and last-packet time),
//! which the station's source alone determines. Draining a million packets
//! at one event is therefore bit-identical to popping a million heap events
//! — the equivalence `tests/executor_equivalence.rs` pins against both the
//! pooled executor and per-packet-sized horizons at 1/2/8 workers.
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
//! `(second, index)`, at the second its run arrives. The executors check
//! this as they read the stream and fail with an error that names the
//! station: one that goes backwards, repeats, lies out of range or arrives
//! at another second than its run, or (when exactly one is missing) the
//! station the stream left out. A failure, of the contract or of a
//! station's admission, is reported at the earliest stream position any
//! worker failed at — the one a single worker meets first.

use super::machine::{ScheduledReport, WindowScorer};
use super::run::{AdmittedStation, StationRun, StationScratch};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::iter::Fuse;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Mutex;
use wlan_sim::time::SimDuration;

/// The machine's available parallelism (8 when unknown).
fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(8)
}

/// How a population of [`StationRun`]s executes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Executor {
    /// Run each station to completion on the bounded work-stealing pool.
    #[default]
    Pooled,
    /// Interleave stations on per-worker virtual-time event heaps, admitting
    /// and retiring them by schedule with memory in the live stations.
    VirtualTime {
        /// Worker (shard) count; the machine's parallelism when `None`.
        /// Reports are identical for every worker count.
        workers: Option<usize>,
        /// Longest virtual span one station drains per event before
        /// re-entering the heap; `None` (the default) drains to source
        /// exhaustion. Purely a scheduling knob: reports are identical for
        /// every horizon, only the coalescing ratio changes. Must be
        /// positive — a horizon of at least 1 µs guarantees every resume
        /// event makes progress.
        max_slice: Option<SimDuration>,
    },
}

impl Executor {
    /// The default virtual-time executor (parallelism-sized shard count,
    /// unbounded coalescing).
    pub fn virtual_time() -> Self {
        Executor::VirtualTime {
            workers: None,
            max_slice: None,
        }
    }

    /// Caps the virtual span one station drains per event (a no-op on
    /// [`Executor::Pooled`]).
    pub fn with_max_slice(self, max_slice: SimDuration) -> Self {
        match self {
            Executor::VirtualTime { workers, .. } => Executor::VirtualTime {
                workers,
                max_slice: Some(max_slice),
            },
            other => other,
        }
    }

    /// The executor's spec tag (`"pooled"` / `"virtual_time"`).
    pub fn name(&self) -> &'static str {
        match self {
            Executor::Pooled => "pooled",
            Executor::VirtualTime { .. } => "virtual_time",
        }
    }

    /// Parses a spec tag.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "pooled" | "pool" => Ok(Executor::Pooled),
            "virtual_time" | "virtual-time" | "vtime" | "event" => Ok(Executor::virtual_time()),
            other => Err(format!(
                "unknown executor `{other}` (expected `pooled` or `virtual_time`)"
            )),
        }
    }
}

/// Scheduling statistics of one execution. Deliberately **not** part of any
/// scenario report: reports must be identical across executors, while these
/// describe how the run was scheduled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutorStats {
    /// Workers (pool threads or virtual-time shards) used.
    pub workers: usize,
    /// Stations admitted (the whole population).
    pub admitted: usize,
    /// Most stations simultaneously on air, from the merged cross-shard
    /// timeline (virtual time); the worker count under the pool, which keeps
    /// at most one station live per worker.
    pub peak_active: usize,
    /// Last virtual second of the run (0 under the pool, which has no
    /// common clock).
    pub virtual_secs: f64,
    /// Events popped across all shards (admissions + resumes + retirements;
    /// 0 under the pool). Invariant across worker counts for a fixed
    /// `max_slice`: every event's timestamp — and hence every run's extent —
    /// derives from its station alone.
    pub events_popped: u64,
    /// Packets pulled from every station's source.
    pub packets: u64,
    /// Morphing calibration sessions generated, summed over workers. Each
    /// worker calibrates an `(app, target)` pair once per execution, so this
    /// is at most two sessions per pair per worker, whatever the population.
    pub calibrations: u64,
}

impl ExecutorStats {
    /// Packets drained per heap event — the coalescing ratio (0 when no
    /// events fired, i.e. under the pool).
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

/// Keeps the failure at the earliest stream position.
fn keep_first(slot: &Mutex<Option<Failure>>, failure: Failure) {
    let mut slot = slot.lock().expect("failure slot poisoned");
    if slot.as_ref().is_none_or(|(at, _)| failure.0 < *at) {
        *slot = Some(failure);
    }
}

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
    /// The first breach, repeated to every later pull.
    failed: Option<Failure>,
}

impl<I: Iterator<Item = (f64, usize)>> CheckedArrivals<I> {
    fn new(arrivals: I, count: usize) -> Self {
        CheckedArrivals {
            arrivals: arrivals.fuse(),
            count,
            pulled: 0,
            index_sum: 0,
            last: None,
            failed: None,
        }
    }

    /// The next arrival as `(position, second, station)`, `None` once every
    /// station arrived, or the first breach of the contract.
    fn pull(&mut self) -> Result<Option<(usize, f64, usize)>, Failure> {
        if let Some(failed) = &self.failed {
            return Err(failed.clone());
        }
        let checked = self.check();
        if let Err(failure) = &checked {
            self.failed = Some(failure.clone());
        }
        checked
    }

    fn check(&mut self) -> Result<Option<(usize, f64, usize)>, Failure> {
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

/// A station on air: its admitted machine and source, its own scorer and
/// the caller's ticket for its fold.
struct LiveStation<S, C> {
    inner: AdmittedStation,
    scorer: S,
    ticket: C,
}

/// Materialises the station arriving at `at` and admits it, on the worker's
/// `scratch`. Its run must arrive at `at` too.
fn admit_station<S, C>(
    at: f64,
    station: usize,
    admit: &impl Fn(usize) -> (StationRun, S, C),
    scratch: &mut StationScratch,
) -> Result<LiveStation<S, C>, String> {
    let (run, scorer, ticket) = admit(station);
    if run.arrival().total_cmp(&at) != Ordering::Equal {
        return Err(format!(
            "station {station}: handed an arrival at {at} s, but its run arrives at {} s",
            run.arrival()
        ));
    }
    let mut inner = run
        .admit(&scratch.calibrations)
        .map_err(|e| format!("station {station}: {e}"))?;
    inner.adopt_scratch(scratch);
    Ok(LiveStation {
        inner,
        scorer,
        ticket,
    })
}

impl<S: WindowScorer, C> LiveStation<S, C> {
    /// Finishes the station and folds its report into `folded`, reclaiming
    /// its scratch buffers.
    fn retire_into<A>(
        self,
        station: usize,
        scratch: &mut StationScratch,
        folded: &mut A,
        fold: &impl Fn(&mut A, usize, ScheduledReport, S, C),
    ) {
        let LiveStation {
            inner,
            mut scorer,
            ticket,
        } = self;
        let report = inner.finish_into(&mut scorer, scratch);
        fold(folded, station, report, scorer, ticket);
    }
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
    ///   under virtual time (it must be cheap to clone);
    /// * `admit(i)` materialises station `i` at its admission: its run, its
    ///   scorer (a frozen borrow or a live per-station fork) and a ticket
    ///   the caller wants back at the fold;
    /// * `fold(acc, i, report, scorer, ticket)` folds a finished station into
    ///   the worker's accumulator.
    ///
    /// Per-station reports are identical whichever executor (and worker
    /// count) runs them: stations share no mutable state, and each one sees
    /// exactly its own packets in order. Fails on the first station (in
    /// stream order) that breaches the arrival contract or cannot be
    /// admitted.
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
        let (workers, tallies, timeline) = match *self {
            Executor::Pooled => {
                let workers = default_parallelism().min(count.max(1));
                let tallies = pooled(workers, count, arrivals, &admit, &fold)?;
                // The pool has no common clock, and keeps at most one
                // station live per worker.
                let timeline = Timeline {
                    peak_active: workers.min(count),
                    virtual_secs: 0.0,
                };
                (workers, tallies, timeline)
            }
            Executor::VirtualTime { workers, max_slice } => {
                let workers = workers.unwrap_or_else(default_parallelism).max(1);
                let max_slice_secs = max_slice.map(|d| d.as_secs_f64());
                let (tallies, timeline) =
                    virtual_time(workers, max_slice_secs, count, arrivals, &admit, &fold)?;
                (workers, tallies, timeline)
            }
        };
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

/// The bounded work-stealing pool: each of `workers` threads pulls the next
/// arrival from the shared stream and runs that station to completion. Once
/// a failure is recorded no worker pulls again; the stations already pulled
/// finish, so the earliest failure is always among those recorded.
fn pooled<S, C, A>(
    workers: usize,
    count: usize,
    arrivals: impl Iterator<Item = (f64, usize)> + Send,
    admit: &(impl Fn(usize) -> (StationRun, S, C) + Sync),
    fold: &(impl Fn(&mut A, usize, ScheduledReport, S, C) + Sync),
) -> Result<Vec<WorkerTally<A>>, String>
where
    S: WindowScorer,
    A: Fold,
{
    let queue = Mutex::new(CheckedArrivals::new(arrivals, count));
    let failure: Mutex<Option<Failure>> = Mutex::new(None);
    let tallies = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut scratch = StationScratch::new();
                    let mut tally = WorkerTally::<A>::default();
                    while failure.lock().expect("failure slot poisoned").is_none() {
                        let pulled = queue.lock().expect("arrival queue poisoned").pull();
                        let (position, at, station) = match pulled {
                            Ok(Some(arrival)) => arrival,
                            Ok(None) => break,
                            Err(failed) => {
                                keep_first(&failure, failed);
                                break;
                            }
                        };
                        let mut live = match admit_station(at, station, admit, &mut scratch) {
                            Ok(live) => live,
                            Err(e) => {
                                keep_first(&failure, (position, e));
                                break;
                            }
                        };
                        let run = live.inner.drain_until(None, &mut scratch, &mut live.scorer);
                        tally.packets += run.packets;
                        live.retire_into(station, &mut scratch, &mut tally.folded, fold);
                    }
                    tally.calibrations = scratch.calibrations.sessions();
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("pool worker panicked"))
            .collect()
    });
    match failure.into_inner().expect("failure slot poisoned") {
        Some((_, e)) => Err(e),
        None => Ok(tallies),
    }
}

/// Churn records per batch a shard sends to the timeline merge.
const CHURN_BATCH: usize = 256;

/// Batches in flight per shard before the shard waits for the merge.
const CHURN_BATCHES_IN_FLIGHT: usize = 4;

/// One entry of a shard's admission/retirement log: `(virtual second,
/// station index, +1 admit / -1 retire)`.
#[derive(Debug, Clone, Copy)]
struct ChurnRecord {
    at_secs: f64,
    station: usize,
    delta: i8,
}

/// The canonical timeline order: `(time, station, admit-before-retire)`.
/// Shards append records in exactly this order (see [`drive_shard`]), which
/// is what makes the streaming k-way merge sufficient.
fn churn_order(a: &ChurnRecord, b: &ChurnRecord) -> Ordering {
    a.at_secs
        .total_cmp(&b.at_secs)
        .then_with(|| a.station.cmp(&b.station))
        .then_with(|| b.delta.cmp(&a.delta))
}

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
                if best.is_none_or(|(_, b)| churn_order(&record, &b) == Ordering::Less) {
                    best = Some((lane, record));
                }
            }
        }
        let Some((lane, record)) = best else {
            return timeline;
        };
        lanes[lane].next += 1;
        debug_assert!(last.is_none_or(|l| churn_order(&l, &record) != Ordering::Greater));
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
    max_slice_secs: Option<f64>,
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
                    max_slice_secs,
                    arrivals,
                    heap: BinaryHeap::new(),
                    parked: Vec::new(),
                    free: Vec::new(),
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

/// An event in a shard's heap. Only live stations have events: admissions
/// come from the arrival stream, beside the heap.
#[derive(Debug, Clone, Copy)]
struct Event {
    at_secs: f64,
    station: usize,
    kind: EventKind,
    /// The parked station's slab slot (for `Resume`).
    slot: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// Build the station's state and drain its first slice.
    Admit,
    /// Drain the next slice of a parked station (only exists under a
    /// `max_slice` horizon).
    Resume,
    /// Log the departure of a station whose state already dropped. Carried
    /// as a heap event so the shard's log is written in pop order — i.e.
    /// already canonically sorted — even though an unbounded drain learns
    /// the retirement time far ahead of the virtual clock.
    Retire,
}

impl Event {
    /// Canonical event order: `(time, station, kind)`.
    fn order(&self, other: &Self) -> Ordering {
        self.at_secs
            .total_cmp(&other.at_secs)
            .then_with(|| self.station.cmp(&other.station))
            .then_with(|| self.kind.cmp(&other.kind))
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.order(other) == Ordering::Equal
    }
}

impl Eq for Event {}

/// `BinaryHeap` is a max-heap, so the order is reversed to pop the earliest
/// event first.
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        self.order(other).reverse()
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One virtual-time worker's state: its view of the arrival stream, the
/// heap of its live stations' events, the slab of parked stations, and its
/// churn log batch.
struct Shard<S, C, A, I> {
    worker: usize,
    workers: usize,
    max_slice_secs: Option<f64>,
    arrivals: CheckedArrivals<I>,
    heap: BinaryHeap<Event>,
    parked: Vec<Option<LiveStation<S, C>>>,
    free: Vec<usize>,
    scratch: StationScratch,
    log: Vec<ChurnRecord>,
    tx: SyncSender<Vec<ChurnRecord>>,
    tally: WorkerTally<A>,
}

impl<S, C, A, I> Shard<S, C, A, I>
where
    S: WindowScorer,
    I: Iterator<Item = (f64, usize)>,
{
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
    fn record(&mut self, at_secs: f64, station: usize, delta: i8) {
        self.log.push(ChurnRecord {
            at_secs,
            station,
            delta,
        });
        if self.log.len() == CHURN_BATCH {
            self.send_log();
        }
    }

    fn send_log(&mut self) {
        let batch = std::mem::replace(&mut self.log, Vec::with_capacity(CHURN_BATCH));
        // The merge only hangs up after every shard did.
        let _ = self.tx.send(batch);
    }

    /// Drains one coalesced slice of `live` from `at`: everything up to
    /// `at + max_slice` (everything, when unbounded). The station then
    /// either parks until its next packet or retires on the spot — folding
    /// its result and pushing a `Retire` event at its last packet's wall
    /// time, so the departure is logged in canonical order.
    fn drain(
        &mut self,
        at: f64,
        station: usize,
        mut live: LiveStation<S, C>,
        fold: &impl Fn(&mut A, usize, ScheduledReport, S, C),
    ) {
        // A resume event sits at its station's next packet time, so any
        // positive horizon admits at least that packet: slices always
        // progress.
        let horizon = self.max_slice_secs.map(|d| at + d);
        let run = live
            .inner
            .drain_until(horizon, &mut self.scratch, &mut live.scorer);
        self.tally.packets += run.packets;
        match live.inner.next_wall_secs() {
            Some(next) => {
                let slot = match self.free.pop() {
                    Some(slot) => {
                        self.parked[slot] = Some(live);
                        slot
                    }
                    None => {
                        self.parked.push(Some(live));
                        self.parked.len() - 1
                    }
                };
                self.heap.push(Event {
                    at_secs: next,
                    station,
                    kind: EventKind::Resume,
                    slot,
                });
            }
            None => {
                live.retire_into(station, &mut self.scratch, &mut self.tally.folded, fold);
                // The retirement timestamp: the last packet's wall time, or
                // the arrival for a station with no packets — exactly the
                // per-packet executor's timestamps.
                self.heap.push(Event {
                    at_secs: run.last_secs.unwrap_or(at),
                    station,
                    kind: EventKind::Retire,
                    slot: 0,
                });
            }
        }
    }
}

/// Drives one shard until its stations all retired. Returns its tally, or
/// its first failure in stream order (the channel hangs up either way).
fn drive_shard<S, C, A, I>(
    mut shard: Shard<S, C, A, I>,
    admit: &impl Fn(usize) -> (StationRun, S, C),
    fold: &impl Fn(&mut A, usize, ScheduledReport, S, C),
) -> Result<WorkerTally<A>, Failure>
where
    S: WindowScorer,
    I: Iterator<Item = (f64, usize)>,
{
    let mut next_admit = shard.next_own()?;
    loop {
        // The earlier of the next admission and the heap's top.
        let admit_next = match (shard.heap.peek(), next_admit) {
            (None, None) => break,
            (top, Some((_, at, station))) => top.is_none_or(|top| {
                let admission = Event {
                    at_secs: at,
                    station,
                    kind: EventKind::Admit,
                    slot: 0,
                };
                admission.order(top) == Ordering::Less
            }),
            (Some(_), None) => false,
        };
        shard.tally.events_popped += 1;
        if admit_next {
            let (position, at, station) = next_admit.expect("an admission is pending");
            let live =
                admit_station(at, station, admit, &mut shard.scratch).map_err(|e| (position, e))?;
            shard.record(at, station, 1);
            shard.drain(at, station, live, fold);
            next_admit = shard.next_own()?;
            continue;
        }
        let event = shard.heap.pop().expect("the heap has a top");
        match event.kind {
            EventKind::Resume => {
                let live = shard.parked[event.slot]
                    .take()
                    .expect("a resume event names a parked station");
                shard.free.push(event.slot);
                shard.drain(event.at_secs, event.station, live, fold);
            }
            EventKind::Retire => shard.record(event.at_secs, event.station, -1),
            EventKind::Admit => unreachable!("admissions never enter the heap"),
        }
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

    fn executors() -> [Executor; 3] {
        [
            Executor::Pooled,
            Executor::VirtualTime {
                workers: Some(1),
                max_slice: None,
            },
            Executor::VirtualTime {
                workers: Some(3),
                max_slice: Some(SimDuration::from_secs_f64(0.5)),
            },
        ]
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
