//! The execution substrate: the work-stealing pool and the virtual-time
//! discrete-event core, behind one [`Executor`] selector.
//!
//! [`Executor::Pooled`] is the historical strategy: each station runs to
//! completion on the bounded work-stealing pool — maximum throughput for
//! populations whose stations never need to coexist in time.
//!
//! [`Executor::VirtualTime`] is the discrete-event core: stations are
//! sharded across workers (station *i* on worker *i* mod *W*), and each
//! worker drives a **binary event heap keyed on virtual timestamps**. A
//! station is represented by an *admission event* at its wall-clock arrival
//! until that event fires — no generator, pipeline or windower state exists
//! before admission. When a source is exhausted the station retires and
//! every byte of its state drops. Peak memory is therefore O(active
//! stations), not O(population): a million-station day can stream through a
//! heap that never holds more than the few thousand stations on air at once
//! (`scenarios/metropolis.toml` is the committed proof).
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
//! The cross-shard view is deterministic too: every worker appends
//! admissions and retirements to its log **in heap pop order** — which is
//! exactly the canonical `(time, station, admit-before-retire)` order,
//! because retirements are heap events themselves — and the per-shard logs
//! are k-way merged after the join into one canonical timeline (and its
//! peak-active statistic in [`ExecutorStats`]) that is the same for 1, 2 or
//! 8 workers: each record's timestamp derives from the station alone, never
//! from scheduling.

use super::machine::{ScheduledReport, WindowScorer};
use super::run::{StationRun, StationScratch};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Mutex;
use wlan_sim::time::SimDuration;

/// The bounded work-stealing pool: at most `available_parallelism` workers,
/// each owning one `state()`, steal the next unprocessed index from a shared
/// atomic queue and run `body` on it. Results come back in index order, the
/// worker states after them.
fn pooled<W: Send, T: Send>(
    count: usize,
    state: impl Fn() -> W + Sync,
    body: impl Fn(&mut W, usize) -> T + Sync,
) -> (Vec<T>, Vec<W>) {
    let workers = default_parallelism().min(count.max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let states = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut worker = state();
                    loop {
                        let i = next.fetch_add(1, AtomicOrdering::Relaxed);
                        if i >= count {
                            break worker;
                        }
                        let result = body(&mut worker, i);
                        *slots[i].lock().expect("result slot poisoned") = Some(result);
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("pool worker panicked"))
            .collect()
    });
    let results = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every stolen index produced a result")
        })
        .collect();
    (results, states)
}

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
    /// and retiring them by schedule with O(active stations) memory.
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
    /// Heap events popped across all shards (admissions + resumes +
    /// retirements; 0 under the pool). Invariant across worker counts for a
    /// fixed `max_slice`: every event's timestamp — and hence every run's
    /// extent — derives from its station alone.
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

/// A population's execution: per-station results in station order, plus the
/// scheduling statistics.
#[derive(Debug, Clone)]
pub struct ExecutionOutcome<T> {
    /// One result per station, in station (not completion) order.
    pub results: Vec<T>,
    /// How the run was scheduled.
    pub stats: ExecutorStats,
}

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
/// is what makes the post-join k-way merge sufficient.
fn churn_order(a: &ChurnRecord, b: &ChurnRecord) -> Ordering {
    a.at_secs
        .total_cmp(&b.at_secs)
        .then_with(|| a.station.cmp(&b.station))
        .then_with(|| b.delta.cmp(&a.delta))
}

/// One shard's contribution to an execution: its churn log (already in
/// canonical order) plus its event/packet/calibration counters.
#[derive(Debug, Default)]
struct ShardLog {
    records: Vec<ChurnRecord>,
    events_popped: u64,
    packets: u64,
    calibrations: u64,
}

/// An event in a shard's heap, ordered by `(time, station, kind)` with
/// admissions before resumes before retirements at equal timestamps.
/// `BinaryHeap` is a max-heap, so `Ord` is reversed here to pop the
/// earliest event first.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    at_secs: f64,
    station: usize,
    kind: EventKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// Build the station's state and drain its first slice.
    Admit,
    /// Drain the next slice of a live station (only exists under a
    /// `max_slice` horizon).
    Resume,
    /// Log the departure of a station whose state already dropped. Carried
    /// as a heap event so the shard's log is written in pop order — i.e.
    /// already canonically sorted — even though an unbounded drain learns
    /// the retirement time far ahead of the virtual clock.
    Retire,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        self.at_secs
            .total_cmp(&other.at_secs)
            .then_with(|| self.station.cmp(&other.station))
            .then_with(|| self.kind.cmp(&other.kind))
            .reverse()
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Executor {
    /// Executes a population of `count` stations.
    ///
    /// * `run_of(i)` describes station `i` — it must be cheap and
    ///   deterministic (the virtual-time executor calls it once to learn the
    ///   arrival time and once at admission, so descriptions are never held
    ///   for inactive stations);
    /// * `scorer_of(i)` creates station `i`'s scorer (a frozen borrow or a
    ///   live per-station fork);
    /// * `finish(i, report, scorer)` folds a finished station into the
    ///   caller's result type.
    ///
    /// Per-station results are identical whichever executor (and worker
    /// count) runs them: stations share no mutable state, and each one sees
    /// exactly its own packets in order.
    pub fn run<S, T>(
        &self,
        count: usize,
        run_of: impl Fn(usize) -> StationRun + Sync,
        scorer_of: impl Fn(usize) -> S + Sync,
        finish: impl Fn(usize, ScheduledReport, S) -> T + Sync,
    ) -> Result<ExecutionOutcome<T>, String>
    where
        S: WindowScorer,
        T: Send,
    {
        match *self {
            Executor::Pooled => {
                let (results, scratches) = pooled(count, StationScratch::new, |scratch, i| {
                    let mut scorer = scorer_of(i);
                    let report = run_of(i)
                        .run_in(&mut scorer, scratch)
                        .map_err(|e| format!("station {i}: {e}"))?;
                    let packets = report.packets;
                    Ok((finish(i, report, scorer), packets))
                });
                let workers = scratches.len();
                let calibrations = scratches.iter().map(|s| s.calibrations.sessions()).sum();
                let pairs = results
                    .into_iter()
                    .collect::<Result<Vec<(T, u64)>, String>>()?;
                let packets = pairs.iter().map(|(_, p)| p).sum();
                Ok(ExecutionOutcome {
                    results: pairs.into_iter().map(|(t, _)| t).collect(),
                    stats: ExecutorStats {
                        workers,
                        admitted: count,
                        peak_active: workers.min(count),
                        virtual_secs: 0.0,
                        events_popped: 0,
                        packets,
                        calibrations,
                    },
                })
            }
            Executor::VirtualTime { workers, max_slice } => {
                let workers = workers.unwrap_or_else(default_parallelism).max(1);
                virtual_time(workers, max_slice, count, &run_of, &scorer_of, &finish)
            }
        }
    }
}

/// The virtual-time core: per-worker event heaps over station shards, then
/// a deterministic k-way merge of the per-shard churn logs.
fn virtual_time<S, T>(
    workers: usize,
    max_slice: Option<SimDuration>,
    count: usize,
    run_of: &(impl Fn(usize) -> StationRun + Sync),
    scorer_of: &(impl Fn(usize) -> S + Sync),
    finish: &(impl Fn(usize, ScheduledReport, S) -> T + Sync),
) -> Result<ExecutionOutcome<T>, String>
where
    S: WindowScorer,
    T: Send,
{
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let logs: Vec<Mutex<ShardLog>> = (0..workers)
        .map(|_| Mutex::new(ShardLog::default()))
        .collect();
    // The first error by station index, so failures are deterministic too.
    let first_error: Mutex<Option<(usize, String)>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let slots = &slots;
            let logs = &logs;
            let first_error = &first_error;
            scope.spawn(move || {
                let result = drive_shard(
                    worker, workers, max_slice, count, run_of, scorer_of, finish, slots,
                );
                match result {
                    Ok(log) => *logs[worker].lock().expect("log poisoned") = log,
                    Err((station, e)) => {
                        let mut slot = first_error.lock().expect("error slot poisoned");
                        if slot.as_ref().is_none_or(|(s, _)| station < *s) {
                            *slot = Some((station, e));
                        }
                    }
                }
            });
        }
    });
    if let Some((station, e)) = first_error.into_inner().expect("error slot poisoned") {
        return Err(format!("station {station}: {e}"));
    }
    let shards: Vec<ShardLog> = logs
        .into_iter()
        .map(|log| log.into_inner().expect("log poisoned"))
        .collect();
    // Deterministic cross-shard time merging: the union of the per-shard
    // logs is the same multiset for every worker count (each record's
    // timestamp derives from its station alone), and each shard wrote its
    // log in heap pop order — already the canonical (time, station,
    // admit-before-retire) order — so a streaming k-way merge folds the
    // canonical timeline without ever materialising or sorting it.
    debug_assert!(shards.iter().all(|log| {
        log.records
            .windows(2)
            .all(|w| churn_order(&w[0], &w[1]) != Ordering::Greater)
    }));
    let events_popped = shards.iter().map(|log| log.events_popped).sum();
    let packets = shards.iter().map(|log| log.packets).sum();
    let calibrations = shards.iter().map(|log| log.calibrations).sum();
    let total: usize = shards.iter().map(|log| log.records.len()).sum();
    let mut cursors = vec![0usize; shards.len()];
    let mut active = 0usize;
    let mut peak_active = 0usize;
    let mut virtual_secs = 0.0f64;
    for _ in 0..total {
        let mut best: Option<(usize, &ChurnRecord)> = None;
        for (shard, log) in shards.iter().enumerate() {
            if let Some(record) = log.records.get(cursors[shard]) {
                if best.is_none_or(|(_, b)| churn_order(record, b) == Ordering::Less) {
                    best = Some((shard, record));
                }
            }
        }
        let (shard, record) = best.expect("merge pops exactly the counted records");
        cursors[shard] += 1;
        if record.delta > 0 {
            active += 1;
            peak_active = peak_active.max(active);
        } else {
            active -= 1;
        }
        virtual_secs = virtual_secs.max(record.at_secs);
    }
    let results = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every admitted station produced a result")
        })
        .collect();
    Ok(ExecutionOutcome {
        results,
        stats: ExecutorStats {
            workers,
            admitted: count,
            peak_active,
            virtual_secs,
            events_popped,
            packets,
            calibrations,
        },
    })
}

/// Drives one shard's heap to exhaustion. Returns the shard's churn log and
/// counters, or the lowest-index station whose admission failed.
#[allow(clippy::too_many_arguments)]
fn drive_shard<S, T>(
    worker: usize,
    workers: usize,
    max_slice: Option<SimDuration>,
    count: usize,
    run_of: &impl Fn(usize) -> StationRun,
    scorer_of: &impl Fn(usize) -> S,
    finish: &impl Fn(usize, ScheduledReport, S) -> T,
    slots: &[Mutex<Option<T>>],
) -> Result<ShardLog, (usize, String)>
where
    S: WindowScorer,
{
    let max_slice_secs = max_slice.map(|d| d.as_secs_f64());
    // One live station per entry; station i lives at local slot (i - worker)
    // / workers. A `None` is 8 bytes of bookkeeping — the O(population)
    // floor — while the boxed state behind a `Some` is the O(active) part.
    let shard_len = count.saturating_sub(worker).div_ceil(workers.max(1));
    let mut live: Vec<Option<Box<LiveStation<S>>>> = Vec::new();
    live.resize_with(shard_len, || None);
    let local = |station: usize| (station - worker) / workers;
    // Seed the heap with one admission event per station of the shard. The
    // run description is dropped immediately: until admission a station
    // costs 16 bytes of heap entry, nothing more.
    let mut heap: BinaryHeap<Event> = BinaryHeap::with_capacity(shard_len);
    for station in (worker..count).step_by(workers.max(1)) {
        heap.push(Event {
            at_secs: run_of(station).arrival(),
            station,
            kind: EventKind::Admit,
        });
    }
    let mut scratch = StationScratch::new();
    let mut log = ShardLog {
        records: Vec::with_capacity(2 * shard_len),
        ..ShardLog::default()
    };
    while let Some(event) = heap.pop() {
        log.events_popped += 1;
        match event.kind {
            EventKind::Admit => {
                let mut admitted = run_of(event.station)
                    .admit(&scratch.calibrations)
                    .map_err(|e| (event.station, e))?;
                admitted.adopt_scratch(&mut scratch);
                let station = Box::new(LiveStation {
                    inner: admitted,
                    scorer: scorer_of(event.station),
                });
                log.records.push(ChurnRecord {
                    at_secs: event.at_secs,
                    station: event.station,
                    delta: 1,
                });
                let slot = local(event.station);
                drain_slice(
                    event,
                    station,
                    max_slice_secs,
                    &mut heap,
                    &mut live[slot],
                    &mut scratch,
                    finish,
                    slots,
                    &mut log,
                );
            }
            EventKind::Resume => {
                let slot = local(event.station);
                let station = live[slot].take().expect("resume event for a live station");
                drain_slice(
                    event,
                    station,
                    max_slice_secs,
                    &mut heap,
                    &mut live[slot],
                    &mut scratch,
                    finish,
                    slots,
                    &mut log,
                );
            }
            EventKind::Retire => log.records.push(ChurnRecord {
                at_secs: event.at_secs,
                station: event.station,
                delta: -1,
            }),
        }
    }
    log.calibrations = scratch.calibrations.sessions();
    Ok(log)
}

/// A station on air: its admitted machine/source plus its own scorer.
struct LiveStation<S> {
    inner: super::run::AdmittedStation,
    scorer: S,
}

/// Drains one coalesced slice of `station` starting at `event`: everything
/// up to `event time + max_slice` (everything, when unbounded), then either
/// re-enters the heap at the next packet's time or retires on the spot —
/// finishing the machine, reclaiming its scratch, storing the result, and
/// pushing a `Retire` event at the last packet's wall time so the departure
/// is logged in canonical order.
#[allow(clippy::too_many_arguments)]
fn drain_slice<S, T>(
    event: Event,
    mut station: Box<LiveStation<S>>,
    max_slice_secs: Option<f64>,
    heap: &mut BinaryHeap<Event>,
    slot: &mut Option<Box<LiveStation<S>>>,
    scratch: &mut StationScratch,
    finish: &impl Fn(usize, ScheduledReport, S) -> T,
    slots: &[Mutex<Option<T>>],
    log: &mut ShardLog,
) where
    S: WindowScorer,
{
    // A resume event sits at its station's next packet time, so any
    // positive horizon admits at least that packet: slices always progress.
    let horizon = max_slice_secs.map(|d| event.at_secs + d);
    let run = {
        let LiveStation { inner, scorer } = &mut *station;
        inner.drain_until(horizon, scratch, scorer)
    };
    log.packets += run.packets;
    match station.inner.next_wall_secs() {
        Some(at_secs) => {
            heap.push(Event {
                at_secs,
                station: event.station,
                kind: EventKind::Resume,
            });
            *slot = Some(station);
        }
        None => {
            // The source is exhausted: finish now so the station's state
            // drops immediately, but log the departure via a heap event at
            // the retirement timestamp (last packet's wall time; arrival
            // for a station with no packets — exactly the per-packet
            // executor's timestamps).
            let LiveStation { inner, mut scorer } = *station;
            let report = inner.finish_into(&mut scorer, scratch);
            *slots[event.station].lock().expect("result slot poisoned") =
                Some(finish(event.station, report, scorer));
            heap.push(Event {
                at_secs: run.last_secs.unwrap_or(event.at_secs),
                station: event.station,
                kind: EventKind::Retire,
            });
        }
    }
}
