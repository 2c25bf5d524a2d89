//! The traced run: the workload's stations replayed single-threaded through
//! each layer's public entry points, one timed span per call, folded into a
//! per-layer ledger against the tracing-off run's CPU time.
//!
//! The replay drives every station exactly the way the executors'
//! per-station machine does (`StationMachine::offer_slice`):
//!
//! 1. admission builds every phase pipeline with `DefenseSpec::build` over
//!    `StageContext::live` (morphing calibration included), the source with
//!    `TrafficSpec::build`, and the station's scorer (a `FrozenScorer`, or a
//!    `PrequentialEvaluator` over a clone of the warm online adversary);
//! 2. the source is cut into `STAGE_BATCH` slices, each split at splice
//!    times and pushed through `StagePipeline::process_batch`;
//! 3. staged output goes to `FlowWindowers::push_slice`;
//! 4. closed windows are scored in `WINDOW_BATCH` blocks through
//!    `WindowScorer::score_slice`;
//! 5. each splice and the session end close the phase (`finish` on the
//!    pipeline and the windowers, then the closing score flush).
//!
//! Each replayed station's packets, windows, identified windows and overhead
//! must equal the executor's report for that station, which is what shows
//! the replay measures the production path.

use crate::e2e::{self, Options};
use crate::workload::Workload;
use crate::{median, Metric, RunResult};
use bench::scenario::spec::SCENARIO_FEATURE_MODE;
use bench::scenario::{
    execute_scenario, CompiledScenario, DefenseSpec, StationOutcome, TrainedAdversary,
};
use bench::streaming::{FrozenScorer, WindowScorer, WINDOW_BATCH};
use classifier::online::{PrequentialEvaluator, SegmentStats};
use classifier::stream::{FlowWindowers, WindowExample};
use classifier::window::DEFAULT_MIN_PACKETS;
use defenses::overhead::Overhead;
use defenses::spec::StageContext;
use defenses::stage::{StagePipeline, STAGE_BATCH};
use std::hint::black_box;
use std::time::Instant;
use traffic_gen::app::AppKind;
use traffic_gen::packet::PacketRecord;
use traffic_gen::stream::PacketSource;
use wlan_sim::time::SimDuration;

/// The per-layer metrics, in report order: `(name, unit)`.
pub const LAYER_METRICS: [(&str, &str); 23] = [
    ("setup.compile_ms", "ms"),
    ("setup.train_ms", "ms"),
    ("source.ns_per_packet", "ns"),
    ("admit.source_us_per_station", "us"),
    ("admit.defense_us_per_station", "us"),
    ("stages.ns_per_packet", "ns"),
    ("stages.padding.ns_per_packet", "ns"),
    ("stages.morphing.ns_per_packet", "ns"),
    ("stages.or.ns_per_packet", "ns"),
    ("stages.morph_or.ns_per_packet", "ns"),
    ("stages.packets_out_per_in", "ratio"),
    ("window.ns_per_packet", "ns"),
    ("window.windows_per_kpacket", "count"),
    ("score.ns_per_window", "ns"),
    ("score.fork_us_per_station", "us"),
    ("score.windows_per_flush", "count"),
    ("retire.us_per_station", "us"),
    ("executor.events_popped", "count"),
    ("executor.packets_per_event", "ratio"),
    ("executor.peak_active", "count"),
    ("executor.cpu_util", "ratio"),
    ("executor.unattributed_share", "ratio"),
    ("timer.ns_per_call", "ns"),
];

/// A timed layer of the replay. Every span belongs to exactly one layer, so
/// layer times are self times and add up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `TrafficSpec::build` at admission.
    AdmitSource,
    /// `DefenseSpec::build` of every phase at admission.
    AdmitDefense,
    /// Creating the station's scorer (the online adversary's clone).
    Fork,
    /// `PacketSource::next_packet`, one span per `STAGE_BATCH` slice.
    Source,
    /// `StagePipeline::process_batch`, and `finish` at a mid-session splice.
    Stages,
    /// `FlowWindowers::push_slice`, and `finish` at a mid-session splice.
    Window,
    /// `WindowScorer::score_slice` + `end_phase`, wherever the flush happens.
    Score,
    /// The final phase close's pipeline flush and windower finish, and
    /// dropping the station's state (self time: its closing score flush is
    /// [`Layer::Score`]'s).
    Retire,
}

impl Layer {
    /// Every layer, in ledger order.
    pub const ALL: [Layer; 8] = [
        Layer::AdmitSource,
        Layer::AdmitDefense,
        Layer::Fork,
        Layer::Source,
        Layer::Stages,
        Layer::Window,
        Layer::Score,
        Layer::Retire,
    ];

    /// The layer's ledger name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::AdmitSource => "admit.source",
            Layer::AdmitDefense => "admit.defense",
            Layer::Fork => "score.fork",
            Layer::Source => "source",
            Layer::Stages => "stages",
            Layer::Window => "window",
            Layer::Score => "score",
            Layer::Retire => "retire",
        }
    }
}

/// `DefenseSpec::label`s with their own stage metric, in `LAYER_METRICS`
/// order (`morphing+or` is `stages.morph_or`). Any other defense only counts
/// toward `stages.ns_per_packet`.
const STAGE_LABELS: [&str; 4] = ["padding", "morphing", "or", "morphing+or"];

/// Index of `defense` in [`STAGE_LABELS`], or `STAGE_LABELS.len()` for any
/// other defense.
fn label_slot(defense: &DefenseSpec) -> usize {
    let label = defense.label();
    STAGE_LABELS
        .iter()
        .position(|l| *l == label)
        .unwrap_or(STAGE_LABELS.len())
}

/// Accumulated span time and span count per layer, plus per-label stage
/// time.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    ns: [u64; Layer::ALL.len()],
    calls: [u64; Layer::ALL.len()],
    label_ns: [u64; STAGE_LABELS.len() + 1],
    label_calls: [u64; STAGE_LABELS.len() + 1],
    /// Score time spent in final phase closes (already part of
    /// [`Layer::Score`]): with [`Layer::Retire`] it makes up the inclusive
    /// retirement time.
    closing_score_ns: u64,
    closing_score_calls: u64,
}

impl Spans {
    fn add(&mut self, layer: Layer, start: Instant) -> u64 {
        let ns = start.elapsed().as_nanos() as u64;
        self.ns[layer as usize] += ns;
        self.calls[layer as usize] += 1;
        ns
    }

    fn add_stage(&mut self, label: usize, start: Instant) {
        let ns = self.add(Layer::Stages, start);
        self.label_ns[label] += ns;
        self.label_calls[label] += 1;
    }

    /// Spans recorded in total.
    pub fn calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// A layer's self time in ns, less the timer's own cost per span.
    pub fn self_ns(&self, layer: Layer, timer_ns: f64) -> f64 {
        let i = layer as usize;
        (self.ns[i] as f64 - self.calls[i] as f64 * timer_ns).max(0.0)
    }

    fn label_self_ns(&self, label: usize, timer_ns: f64) -> f64 {
        (self.label_ns[label] as f64 - self.label_calls[label] as f64 * timer_ns).max(0.0)
    }

    /// Retirement time including its closing score flush, in ns.
    fn retire_inclusive_ns(&self, timer_ns: f64) -> f64 {
        let closing =
            (self.closing_score_ns as f64 - self.closing_score_calls as f64 * timer_ns).max(0.0);
        self.self_ns(Layer::Retire, timer_ns) + closing
    }
}

/// Work counted by the replay.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Stations replayed.
    pub stations: u64,
    /// Packets pulled from sources.
    pub packets_in: u64,
    /// Packets the stage pipelines emitted.
    pub packets_out: u64,
    /// Windows scored.
    pub windows: u64,
    /// `score_slice` calls.
    pub flushes: u64,
    /// Packets pulled per defense label slot.
    pub label_packets: [u64; STAGE_LABELS.len() + 1],
}

/// What the replay found for one station — the fields the executor's
/// report must match.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StationTally {
    /// Packets pulled from the source.
    pub packets: u64,
    /// Windows scored across all phases.
    pub windows: u64,
    /// Windows identified correctly across all phases.
    pub windows_identified: u64,
    /// The station's end-to-end byte overhead, as a percentage.
    pub overhead_pct: f64,
}

/// Compares a replayed station with the executor's outcome for it.
pub fn compare_station(
    index: usize,
    tally: &StationTally,
    outcome: &StationOutcome,
) -> Vec<String> {
    let expected = StationTally {
        packets: outcome.packets,
        windows: outcome.windows,
        windows_identified: outcome.windows_identified,
        overhead_pct: outcome.overhead_pct,
    };
    if *tally == expected {
        Vec::new()
    } else {
        vec![format!(
            "station {index}: replay {tally:?} != executor report {expected:?}"
        )]
    }
}

/// Either adversary mode behind one scorer type, as the scenario runner
/// builds them.
enum Scorer<'a> {
    Frozen(FrozenScorer<'a>),
    Live(PrequentialEvaluator),
}

impl<'a> Scorer<'a> {
    fn for_station(adversary: &'a TrainedAdversary) -> Self {
        match adversary {
            TrainedAdversary::Frozen(ensemble) => Scorer::Frozen(FrozenScorer::new(ensemble)),
            TrainedAdversary::Warm {
                adversary,
                snapshot_every,
            } => Scorer::Live(PrequentialEvaluator::new(
                adversary.clone(),
                *snapshot_every,
            )),
        }
    }
}

impl WindowScorer for Scorer<'_> {
    fn score(&mut self, example: &WindowExample) -> usize {
        match self {
            Scorer::Frozen(scorer) => scorer.score(example),
            Scorer::Live(evaluator) => evaluator.score(example),
        }
    }

    fn score_slice(&mut self, examples: &[WindowExample], out: &mut Vec<usize>) {
        match self {
            Scorer::Frozen(scorer) => scorer.score_slice(examples, out),
            Scorer::Live(evaluator) => evaluator.score_slice(examples, out),
        }
    }

    fn end_phase(&mut self) -> Option<SegmentStats> {
        match self {
            Scorer::Frozen(scorer) => scorer.end_phase(),
            Scorer::Live(evaluator) => evaluator.end_phase(),
        }
    }
}

/// The replay's timers, counters and reusable buffers.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Time per layer.
    pub spans: Spans,
    /// Work done.
    pub counts: Counts,
    batch: Vec<PacketRecord>,
    flows: Vec<usize>,
    staged: Vec<PacketRecord>,
    pending: Vec<WindowExample>,
    predictions: Vec<usize>,
}

/// One station's running state: the phase schedule and its counters.
struct Station {
    phases: Vec<(f64, StagePipeline, usize)>,
    index: usize,
    windowers: FlowWindowers,
    window: SimDuration,
    app: AppKind,
    windows: u64,
    hits: u64,
    packets: u64,
    closed: Vec<(u64, u64, Overhead)>,
}

impl Station {
    /// Scores every pending window in `WINDOW_BATCH` blocks.
    fn flush(&mut self, tracer: &mut Tracer, scorer: &mut dyn WindowScorer) {
        for block in tracer.pending.chunks(WINDOW_BATCH) {
            scorer.score_slice(block, &mut tracer.predictions);
            self.windows += block.len() as u64;
            self.hits += block
                .iter()
                .zip(&tracer.predictions)
                .filter(|(example, &predicted)| predicted == example.1)
                .count() as u64;
            tracer.counts.flushes += 1;
        }
        tracer.counts.windows += tracer.pending.len() as u64;
        tracer.pending.clear();
    }

    /// Closes the running phase. The pipeline flush and windower finish
    /// count as [`Layer::Stages`] and [`Layer::Window`] at a mid-session
    /// splice and as [`Layer::Retire`] at the session end (`last`); the
    /// closing score flush is always [`Layer::Score`], and at the session end
    /// it is also the part of the retirement that [`Spans::closing_score_ns`]
    /// keeps.
    fn close_phase(&mut self, tracer: &mut Tracer, scorer: &mut dyn WindowScorer, last: bool) {
        let pick = |layer| if last { Layer::Retire } else { layer };
        let start = Instant::now();
        let (windowers, pending) = (&mut self.windowers, &mut tracer.pending);
        let mut emitted = 0u64;
        self.phases[self.index].1.finish(|flow, packet| {
            emitted += 1;
            if let Some(example) = windowers.push(flow as usize, packet) {
                pending.push(example);
            }
        });
        tracer.counts.packets_out += emitted;
        tracer.spans.add(pick(Layer::Stages), start);
        let start = Instant::now();
        tracer.pending.extend(self.windowers.finish());
        tracer.spans.add(pick(Layer::Window), start);
        let start = Instant::now();
        self.flush(tracer, scorer);
        scorer.end_phase();
        self.closed.push((
            self.windows,
            self.hits,
            self.phases[self.index].1.overhead(),
        ));
        self.windows = 0;
        self.hits = 0;
        let ns = tracer.spans.add(Layer::Score, start);
        if last {
            tracer.spans.closing_score_ns += ns;
            tracer.spans.closing_score_calls += 1;
        }
    }

    fn advance_schedule(&mut self, now: f64, tracer: &mut Tracer, scorer: &mut dyn WindowScorer) {
        while self.index + 1 < self.phases.len() && now >= self.phases[self.index + 1].0 {
            self.close_phase(tracer, scorer, false);
            self.windowers = windowers_for(self.window, self.app);
            self.index += 1;
        }
    }

    /// `StationMachine::offer_slice`, one span per layer call.
    fn offer_slice(&mut self, tracer: &mut Tracer, scorer: &mut dyn WindowScorer) {
        let batch = std::mem::take(&mut tracer.batch);
        let mut rest = &batch[..];
        while !rest.is_empty() {
            self.advance_schedule(rest[0].time.as_secs_f64(), tracer, scorer);
            let run_len = if self.index + 1 < self.phases.len() {
                let next = self.phases[self.index + 1].0;
                rest.partition_point(|p| p.time.as_secs_f64() < next)
            } else {
                rest.len()
            };
            let (run, tail) = rest.split_at(run_len);
            self.packets += run.len() as u64;
            let label = self.phases[self.index].2;
            tracer.counts.label_packets[label] += run.len() as u64;
            tracer.flows.clear();
            tracer.staged.clear();
            let (flows, staged) = (&mut tracer.flows, &mut tracer.staged);
            let start = Instant::now();
            self.phases[self.index]
                .1
                .process_batch(run, |flow, packet| {
                    flows.push(flow as usize);
                    staged.push(*packet);
                });
            tracer.spans.add_stage(label, start);
            tracer.counts.packets_out += tracer.staged.len() as u64;
            let start = Instant::now();
            self.windowers
                .push_slice(&tracer.flows, &tracer.staged, &mut tracer.pending);
            tracer.spans.add(Layer::Window, start);
            if tracer.pending.len() >= WINDOW_BATCH {
                let start = Instant::now();
                self.flush(tracer, scorer);
                tracer.spans.add(Layer::Score, start);
            }
            rest = tail;
        }
        tracer.batch = batch;
    }
}

/// A fresh windower bank, configured as the executors configure theirs.
fn windowers_for(window: SimDuration, app: AppKind) -> FlowWindowers {
    FlowWindowers::for_app(window, DEFAULT_MIN_PACKETS, SCENARIO_FEATURE_MODE, app)
}

/// Replays station `index` of `scenario` against `adversary`.
pub fn replay_station(
    scenario: &CompiledScenario,
    adversary: &TrainedAdversary,
    index: usize,
    tracer: &mut Tracer,
) -> Result<StationTally, String> {
    let station = scenario.station(index);
    let app = station.traffic.app;

    let start = Instant::now();
    let ctx = StageContext::live(app, station.traffic.seed, scenario.calib_secs);
    let mut phases = Vec::with_capacity(1 + station.splices.len());
    phases.push((
        0.0,
        station.defense.build(&ctx, station.interfaces)?,
        label_slot(&station.defense),
    ));
    for (at, defense) in &station.splices {
        phases.push((
            *at,
            defense.build(&ctx, station.interfaces)?,
            label_slot(defense),
        ));
    }
    tracer.spans.add(Layer::AdmitDefense, start);

    let start = Instant::now();
    let mut source = station.traffic.build();
    tracer.spans.add(Layer::AdmitSource, start);

    let start = Instant::now();
    let mut scorer = Scorer::for_station(adversary);
    tracer.spans.add(Layer::Fork, start);

    let mut state = Station {
        phases,
        index: 0,
        windowers: windowers_for(scenario.window, app),
        window: scenario.window,
        app,
        windows: 0,
        hits: 0,
        packets: 0,
        closed: Vec::new(),
    };

    loop {
        let start = Instant::now();
        tracer.batch.clear();
        while tracer.batch.len() < STAGE_BATCH {
            match source.next_packet() {
                Some(packet) => tracer.batch.push(packet),
                None => break,
            }
        }
        tracer.spans.add(Layer::Source, start);
        let pulled = tracer.batch.len();
        if pulled == 0 {
            break;
        }
        state.offer_slice(tracer, &mut scorer);
        if pulled < STAGE_BATCH {
            break;
        }
    }

    state.close_phase(tracer, &mut scorer, true);
    let start = Instant::now();
    // Phases scheduled past the session end report empty, as the machine's
    // `finish` does.
    for (_, pipeline, _) in &state.phases[state.index + 1..] {
        scorer.end_phase();
        state.closed.push((0, 0, pipeline.overhead()));
    }
    let overhead = state
        .closed
        .iter()
        .fold(Overhead::default(), |acc, (_, _, o)| acc.combined(o));
    let tally = StationTally {
        packets: state.packets,
        windows: state.closed.iter().map(|(w, _, _)| w).sum(),
        windows_identified: state.closed.iter().map(|(_, h, _)| h).sum(),
        overhead_pct: overhead.percent(),
    };
    tracer.counts.packets_in += state.packets;
    tracer.counts.stations += 1;
    drop(state);
    drop(scorer);
    tracer.spans.add(Layer::Retire, start);
    Ok(tally)
}

/// Cost of one `Instant::now()` call in ns: the median over blocks of
/// back-to-back calls. Each span's measured interval contains about one such
/// call, which [`Spans::self_ns`] subtracts.
pub fn timer_ns_per_call() -> f64 {
    const BLOCK: u32 = 20_000;
    let blocks: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..BLOCK {
                black_box(Instant::now());
            }
            start.elapsed().as_nanos() as f64 / f64::from(BLOCK)
        })
        .collect();
    median(&blocks)
}

/// The per-layer cost ledger of one workload: layer self times against the
/// tracing-off run's CPU time for the same population.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// Process CPU ns of one tracing-off execution (median).
    pub e2e_ns: f64,
    /// Packets of one execution.
    pub packets: u64,
    /// `(layer, self ns)` in ledger order.
    pub layers: Vec<(&'static str, f64)>,
    /// Measured cost of one timer call, in ns.
    pub timer_ns_per_call: f64,
    /// Spans the replay recorded (each one timer cost subtracted).
    pub timer_calls: u64,
}

impl Ledger {
    /// Builds the ledger from the replay's spans.
    pub fn new(e2e_ns: f64, packets: u64, spans: &Spans, timer_ns_per_call: f64) -> Self {
        Ledger {
            e2e_ns,
            packets,
            layers: Layer::ALL
                .iter()
                .map(|&layer| (layer.name(), spans.self_ns(layer, timer_ns_per_call)))
                .collect(),
            timer_ns_per_call,
            timer_calls: spans.calls(),
        }
    }

    /// Σ layer self time, in ns.
    pub fn attributed_ns(&self) -> f64 {
        self.layers.iter().map(|(_, ns)| ns).sum()
    }

    /// End-to-end CPU time the layers do not explain, in ns (negative when
    /// the single-threaded replay costs more than the executor run).
    pub fn unattributed_ns(&self) -> f64 {
        self.e2e_ns - self.attributed_ns()
    }

    /// [`unattributed_ns`](Self::unattributed_ns) as a share of the
    /// end-to-end CPU time.
    pub fn unattributed_share(&self) -> f64 {
        if self.e2e_ns > 0.0 {
            self.unattributed_ns() / self.e2e_ns
        } else {
            0.0
        }
    }

    /// The ledger as a table, one line per layer plus `unattributed` and
    /// `e2e`, in ms, ns per packet and share of `e2e`.
    pub fn render(&self) -> String {
        let per_packet = |ns: f64| ns / self.packets.max(1) as f64;
        let share = |ns: f64| {
            if self.e2e_ns > 0.0 {
                100.0 * ns / self.e2e_ns
            } else {
                0.0
            }
        };
        let mut out = format!(
            "{:<16} {:>12} {:>12} {:>8}\n",
            "layer", "self_ms", "ns/packet", "share%"
        );
        let mut line = |name: &str, ns: f64| {
            out.push_str(&format!(
                "{name:<16} {:>12.3} {:>12.2} {:>8.2}\n",
                ns / 1e6,
                per_packet(ns),
                share(ns)
            ));
        };
        for &(name, ns) in &self.layers {
            line(name, ns);
        }
        line("unattributed", self.unattributed_ns());
        line("e2e", self.e2e_ns);
        out.push_str(&format!(
            "timer: {} spans x {:.2} ns per call = {:.3} ms subtracted from the layers\n",
            self.timer_calls,
            self.timer_ns_per_call,
            self.timer_calls as f64 * self.timer_ns_per_call / 1e6
        ));
        out
    }
}

/// What a traced run produced: the result line plus its ledger.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Metrics (every [`LAYER_METRICS`] entry) and the checked-run tally.
    pub result: RunResult,
    /// The per-layer ledger.
    pub ledger: Ledger,
}

/// The traced run of `workload` at `seed`: tracing-off executions for the
/// end-to-end CPU time, one execution with every station's outcome kept,
/// then the single-threaded replay of every station checked against it.
pub fn run(workload: Workload, seed: u64, options: &Options) -> Result<Traced, String> {
    let prepared = e2e::prepare(workload, seed, options)?;
    let mut result = RunResult::default();
    let off = Options {
        seconds: options.seconds / 2.0,
        ..*options
    };
    let measured = e2e::measure(&prepared, &off, &mut result)?;

    let mut detailed = prepared.scenario.clone();
    detailed.max_station_reports = detailed.station_count();
    let (report, _) = execute_scenario(&detailed, &prepared.adversary, prepared.executor)?;

    let timer_ns = timer_ns_per_call();
    let mut tracer = Tracer::default();
    for index in 0..prepared.scenario.station_count() {
        let errors =
            match replay_station(&prepared.scenario, &prepared.adversary, index, &mut tracer) {
                Ok(tally) => match report.station_reports.get(index) {
                    Some(outcome) => compare_station(index, &tally, outcome),
                    None => vec![format!("station {index}: missing from the executor report")],
                },
                Err(e) => vec![format!("station {index}: {e}")],
            };
        result.record(errors);
    }

    // The replay is one pass, so it meets a typical execution: compare it
    // with the median, not the fastest execution the end-to-end metrics use.
    let e2e_ns = measured.runs_median(|r| r.cpu.as_nanos() as f64);
    let workers = prepared.workers as f64;
    let cpu_util = measured.runs_median(|r| r.cpu.as_secs_f64() / (r.wall.as_secs_f64() * workers));
    let stats = measured.runs[0].stats;
    let ledger = Ledger::new(e2e_ns, stats.packets, &tracer.spans, timer_ns);

    let spans = &tracer.spans;
    let counts = &tracer.counts;
    let ratio = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let self_ns = |layer| spans.self_ns(layer, timer_ns);
    let label_ns = |slot: usize| {
        ratio(
            spans.label_self_ns(slot, timer_ns),
            counts.label_packets[slot],
        )
    };
    let values = [
        measured.setups_median(|s| s.compile) * 1e3,
        measured.setups_median(|s| s.train) * 1e3,
        ratio(self_ns(Layer::Source), counts.packets_in),
        ratio(self_ns(Layer::AdmitSource) / 1e3, counts.stations),
        ratio(self_ns(Layer::AdmitDefense) / 1e3, counts.stations),
        ratio(self_ns(Layer::Stages), counts.packets_in),
        label_ns(0),
        label_ns(1),
        label_ns(2),
        label_ns(3),
        ratio(counts.packets_out as f64, counts.packets_in),
        ratio(self_ns(Layer::Window), counts.packets_out),
        ratio(counts.windows as f64 * 1e3, counts.packets_out),
        ratio(self_ns(Layer::Score), counts.windows),
        ratio(self_ns(Layer::Fork) / 1e3, counts.stations),
        ratio(counts.windows as f64, counts.flushes),
        ratio(spans.retire_inclusive_ns(timer_ns) / 1e3, counts.stations),
        stats.events_popped as f64,
        stats.packets_per_event(),
        stats.peak_active as f64,
        cpu_util,
        ledger.unattributed_share(),
        timer_ns,
    ];
    result.metrics = LAYER_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, value, unit))
        .collect();
    Ok(Traced { result, ledger })
}
