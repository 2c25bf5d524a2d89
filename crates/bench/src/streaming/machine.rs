//! The per-station evaluation machine: one packet in, phase splices and
//! window scoring out.
//!
//! [`StationMachine`] is the single evaluation body every station runs
//! through, alone ([`StationRun::run`](super::StationRun::run)) or on the
//! executor. It owns a station's defense schedule (`(session-relative
//! second, pipeline)` phases), its per-sub-flow windower bank and its phase
//! counters; [`offer_slice`](StationMachine::offer_slice) advances the
//! schedule and processes a time-ordered micro-batch (splitting it at
//! phase-splice boundaries, so batching is byte-identical to a per-packet
//! feed), [`finish`](StationMachine::finish) flushes the running phase and
//! returns the [`ScheduledReport`]. Windows closed inside a drain slice are
//! buffered and pushed through [`WindowScorer::score_slice`] in
//! [`WINDOW_BATCH`]-sized blocks, in close order — so live test-then-train
//! scorers still see each window exactly where a per-window feed would have
//! scored it (`tests/windower_slice_equivalence.rs` pins this against a
//! per-packet, per-window evaluation). Because the machine only ever sees
//! its own station's packets in order, a station's report is the same
//! whichever worker runs it and whatever runs beside it — stations share no
//! mutable state, so interleaving cannot leak between them.

use classifier::ensemble::AdversaryEnsemble;
use classifier::online::{PrequentialEvaluator, SegmentStats};
use classifier::stream::{FlowWindowers, WindowExample};
use classifier::window::{FeatureMode, DEFAULT_MIN_PACKETS};
use defenses::overhead::Overhead;
use defenses::stage::{StageOutput, StagePipeline};
use traffic_gen::app::AppKind;
use traffic_gen::packet::PacketRecord;
use wlan_sim::time::SimDuration;

/// Scores the windows a scheduled station closes. Both adversary modes
/// implement it: the frozen batch ensemble ([`FrozenScorer`]) and the live
/// prequential evaluator (which tests-then-trains and reports per-phase
/// [`SegmentStats`]).
pub trait WindowScorer {
    /// Scores one window example, returning the predicted class.
    fn score(&mut self, example: &WindowExample) -> usize;

    /// Scores a slice of window examples in close order, appending one
    /// prediction per example to `out` (cleared first). The default loops
    /// [`score`](Self::score), so test-then-train scorers keep their exact
    /// per-window ordering; an override must stay **bit-identical** to that
    /// loop.
    fn score_slice(&mut self, examples: &[WindowExample], out: &mut Vec<usize>) {
        out.clear();
        out.extend(examples.iter().map(|e| self.score(e)));
    }

    /// Called when a phase ends (splice boundary or session end); live
    /// scorers return the prequential counts of the finished phase.
    fn end_phase(&mut self) -> Option<SegmentStats> {
        None
    }
}

/// How many closed windows `StationMachine` buffers before it pushes them
/// through [`WindowScorer::score_slice`] as one block. Scoring itself is per
/// window; the bound keeps a drain slice's buffered windows cache-resident.
pub const WINDOW_BATCH: usize = 64;

/// A frozen batch ensemble as a [`WindowScorer`] (majority vote, no
/// learning). It holds only the ensemble: each window is voted on through
/// the ensemble's inference plan
/// ([`predict_majority`](AdversaryEnsemble::predict_majority)) on the stack,
/// so a scorer costs nothing to create per station and scoring allocates
/// nothing.
#[derive(Debug, Clone, Copy)]
pub struct FrozenScorer<'a> {
    ensemble: &'a AdversaryEnsemble,
}

impl<'a> FrozenScorer<'a> {
    /// Wraps a trained ensemble as a scorer.
    pub fn new(ensemble: &'a AdversaryEnsemble) -> Self {
        FrozenScorer { ensemble }
    }
}

impl WindowScorer for FrozenScorer<'_> {
    fn score(&mut self, example: &WindowExample) -> usize {
        self.ensemble.predict_majority(&example.0)
    }
}

impl WindowScorer for PrequentialEvaluator {
    fn score(&mut self, example: &WindowExample) -> usize {
        self.absorb(example)
    }

    fn end_phase(&mut self) -> Option<SegmentStats> {
        Some(self.take_segment())
    }
}

/// What one phase of a station's defense schedule looked like to the
/// adversary.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// Session-relative second the phase's pipeline took over.
    pub from_secs: f64,
    /// Windows closed (and scored) during the phase.
    pub windows: u64,
    /// Windows the adversary identified correctly during the phase.
    pub windows_identified: u64,
    /// The phase pipeline's overhead ledger.
    pub overhead: Overhead,
    /// Prequential counts of the phase (live scorers only).
    pub segment: Option<SegmentStats>,
}

/// The record of one station streamed through a defense **schedule**.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledReport {
    /// The station's ground-truth application.
    pub app: AppKind,
    /// Packets pulled from the station's source.
    pub packets: u64,
    /// One report per scheduled phase, in schedule order. Phases scheduled
    /// past the end of the session report zero windows.
    pub phases: Vec<PhaseReport>,
}

impl ScheduledReport {
    /// Windows scored across all phases.
    pub fn windows(&self) -> u64 {
        self.phases.iter().map(|p| p.windows).sum()
    }

    /// Correctly identified windows across all phases.
    pub fn windows_identified(&self) -> u64 {
        self.phases.iter().map(|p| p.windows_identified).sum()
    }

    /// The adversary's whole-session recognition rate (0 when no windows).
    pub fn identification_rate(&self) -> f64 {
        let windows = self.windows();
        if windows == 0 {
            0.0
        } else {
            self.windows_identified() as f64 / windows as f64
        }
    }

    /// The combined overhead ledger of every phase pipeline.
    pub fn overhead(&self) -> Overhead {
        self.phases
            .iter()
            .fold(Overhead::default(), |acc, p| acc.combined(&p.overhead))
    }
}

/// Scores every buffered window in [`WINDOW_BATCH`]-at-most blocks through
/// [`WindowScorer::score_slice`] and folds the predictions into the phase
/// counters — the one scoring rule every site of the machine shares. Windows
/// are scored in exactly their close order, so deferring them into blocks is
/// bit-identical to scoring each as it closed.
fn flush_windows(
    scorer: &mut dyn WindowScorer,
    pending: &mut Vec<WindowExample>,
    out: &mut Vec<usize>,
    windows: &mut u64,
    hits: &mut u64,
) {
    for block in pending.chunks(WINDOW_BATCH) {
        scorer.score_slice(block, out);
        debug_assert_eq!(out.len(), block.len(), "one prediction per window");
        *windows += block.len() as u64;
        *hits += block
            .iter()
            .zip(out.iter())
            .filter(|(example, &predicted)| predicted == example.1)
            .count() as u64;
    }
    pending.clear();
}

/// Reusable staged-output buffers one drain slice fills and the windower
/// bank consumes. Owned per worker (inside its
/// [`StationScratch`](super::run::StationScratch)) so routing a slice from
/// the stage pipeline into [`FlowWindowers::push_slice`] allocates nothing
/// after warm-up.
#[derive(Debug, Default)]
pub(crate) struct StagedScratch {
    /// Sub-flow of each staged packet, in emission order.
    flows: Vec<usize>,
    /// The staged packets themselves, in emission order.
    packets: Vec<PacketRecord>,
}

/// What a retired machine leaves its worker for the next admission: the
/// windower bank, the window and prediction buffers, and a pool of stage
/// scratch buffers. Owned per worker (inside its
/// [`StationScratch`](super::run::StationScratch)), so a churning population
/// pays their growth once per worker instead of once per station. Every
/// buffer is empty and the bank reset before a station uses it, so nothing
/// carries over from one station to the next.
#[derive(Debug, Default)]
pub(crate) struct MachineBuffers {
    windowers: Option<FlowWindowers>,
    pending: Vec<WindowExample>,
    slice_out: Vec<usize>,
    stage_outputs: Vec<StageOutput>,
}

/// Closes the running phase: flushes its pipeline through the windower bank,
/// closes every trailing window, and scores everything still buffered.
fn close_phase(
    pipeline: &mut StagePipeline,
    windowers: &mut FlowWindowers,
    scorer: &mut dyn WindowScorer,
    pending: &mut Vec<WindowExample>,
    out: &mut Vec<usize>,
    windows: &mut u64,
    hits: &mut u64,
) {
    pipeline.finish(|flow, packet| {
        if let Some(example) = windowers.push(flow as usize, packet) {
            pending.push(example);
        }
    });
    pending.extend(windowers.finish());
    flush_windows(scorer, pending, out, windows, hits);
}

/// One station's evaluation, driven one packet at a time.
///
/// The machine holds everything a running station needs — schedule, the
/// active phase's pipeline, windower bank, counters — and nothing about the
/// packet source, which stays with the caller. That split is what lets the
/// virtual-time executor interleave thousands of machines on one clock while
/// each holds only O(stages + sub-flows) state.
#[derive(Debug)]
pub(crate) struct StationMachine {
    app: AppKind,
    phases: Vec<(f64, StagePipeline)>,
    index: usize,
    window: SimDuration,
    mode: FeatureMode,
    windowers: FlowWindowers,
    reports: Vec<PhaseReport>,
    windows: u64,
    hits: u64,
    packets: u64,
    /// Windows closed during the current drain slice, awaiting a batched
    /// [`WindowScorer::score_slice`] flush (in close order).
    pending: Vec<WindowExample>,
    /// Prediction buffer the flushes reuse.
    slice_out: Vec<usize>,
}

impl StationMachine {
    /// Creates the machine over a non-empty phase schedule, on the buffers
    /// the worker's last retired machine left in `recycled`: its windower
    /// bank and window buffers, and stage scratch for every phase pipeline
    /// (see [`StagePipeline::adopt_scratch`]), so admission skips the growth
    /// a fresh station's first batches would otherwise pay.
    pub(crate) fn new(
        app: AppKind,
        mut phases: Vec<(f64, StagePipeline)>,
        window: SimDuration,
        mode: FeatureMode,
        recycled: &mut MachineBuffers,
    ) -> Self {
        assert!(!phases.is_empty(), "a schedule needs at least one phase");
        let pool = &mut recycled.stage_outputs;
        for (_, pipeline) in &mut phases {
            let a = pool.pop().unwrap_or_default();
            let b = pool.pop().unwrap_or_default();
            pipeline.adopt_scratch(a, b);
        }
        let windowers = match recycled.windowers.take() {
            Some(mut bank) => {
                bank.reset_for_app(window, DEFAULT_MIN_PACKETS, mode, app);
                bank
            }
            None => FlowWindowers::for_app(window, DEFAULT_MIN_PACKETS, mode, app),
        };
        StationMachine {
            app,
            phases,
            index: 0,
            window,
            mode,
            windowers,
            reports: Vec::new(),
            windows: 0,
            hits: 0,
            packets: 0,
            pending: std::mem::take(&mut recycled.pending),
            slice_out: std::mem::take(&mut recycled.slice_out),
        }
    }

    /// Splices in every phase whose time has come at `now` (possibly several
    /// between two packets).
    fn advance_schedule(&mut self, now: f64, scorer: &mut dyn WindowScorer) {
        while self.index + 1 < self.phases.len() && now >= self.phases[self.index + 1].0 {
            close_phase(
                &mut self.phases[self.index].1,
                &mut self.windowers,
                scorer,
                &mut self.pending,
                &mut self.slice_out,
                &mut self.windows,
                &mut self.hits,
            );
            self.reports.push(PhaseReport {
                from_secs: self.phases[self.index].0,
                windows: self.windows,
                windows_identified: self.hits,
                overhead: self.phases[self.index].1.overhead(),
                segment: scorer.end_phase(),
            });
            self.windows = 0;
            self.hits = 0;
            self.windowers
                .reset_for_app(self.window, DEFAULT_MIN_PACKETS, self.mode, self.app);
            self.index += 1;
        }
    }

    /// Feeds a time-ordered micro-batch — the batched fast path, byte-
    /// identical to feeding each packet in turn through
    /// [`StagePipeline::process`]: the slice is split at phase-splice
    /// boundaries, so each sub-run flows through exactly the pipeline a
    /// per-packet feed would have used, in one
    /// [`StagePipeline::process_batch`] call instead of one per packet. The
    /// staged output of each sub-run is collected into `staged` and routed
    /// through [`FlowWindowers::push_slice`] — one windower-bank dispatch per
    /// same-flow run instead of one per packet — then any block of closed
    /// windows is flushed in close order (flush-block boundaries never
    /// change a report: `tests/windower_slice_equivalence.rs` scores a
    /// station of more than [`WINDOW_BATCH`] windows one window at a time).
    pub(crate) fn offer_slice(
        &mut self,
        packets: &[PacketRecord],
        staged: &mut StagedScratch,
        scorer: &mut dyn WindowScorer,
    ) {
        let mut rest = packets;
        while !rest.is_empty() {
            self.advance_schedule(rest[0].time.as_secs_f64(), scorer);
            // After advancing at rest[0], at least one packet precedes the
            // next splice, so every iteration consumes a non-empty run.
            let run_len = if self.index + 1 < self.phases.len() {
                let next = self.phases[self.index + 1].0;
                rest.partition_point(|p| p.time.as_secs_f64() < next)
            } else {
                rest.len()
            };
            let (run, tail) = rest.split_at(run_len);
            self.packets += run.len() as u64;
            staged.flows.clear();
            staged.packets.clear();
            self.phases[self.index]
                .1
                .process_batch(run, |flow, packet| {
                    staged.flows.push(flow as usize);
                    staged.packets.push(*packet);
                });
            self.windowers
                .push_slice(&staged.flows, &staged.packets, &mut self.pending);
            if self.pending.len() >= WINDOW_BATCH {
                flush_windows(
                    scorer,
                    &mut self.pending,
                    &mut self.slice_out,
                    &mut self.windows,
                    &mut self.hits,
                );
            }
            rest = tail;
        }
    }

    /// Session end: closes the running phase, reports any phase scheduled
    /// past the end as empty, hands every buffer (the phase pipelines'
    /// scratch included) back to `recycled` for the next admission, and
    /// returns the station's report.
    pub(crate) fn finish(
        mut self,
        scorer: &mut dyn WindowScorer,
        recycled: &mut MachineBuffers,
    ) -> ScheduledReport {
        close_phase(
            &mut self.phases[self.index].1,
            &mut self.windowers,
            scorer,
            &mut self.pending,
            &mut self.slice_out,
            &mut self.windows,
            &mut self.hits,
        );
        self.reports.push(PhaseReport {
            from_secs: self.phases[self.index].0,
            windows: self.windows,
            windows_identified: self.hits,
            overhead: self.phases[self.index].1.overhead(),
            segment: scorer.end_phase(),
        });
        let index = self.index;
        for (i, (from_secs, mut pipeline)) in self.phases.into_iter().enumerate() {
            if i > index {
                self.reports.push(PhaseReport {
                    from_secs,
                    windows: 0,
                    windows_identified: 0,
                    overhead: pipeline.overhead(),
                    segment: scorer.end_phase(),
                });
            }
            let (mut a, mut b) = pipeline.release_scratch();
            a.clear();
            b.clear();
            recycled.stage_outputs.push(a);
            recycled.stage_outputs.push(b);
        }
        debug_assert!(
            self.pending.is_empty(),
            "the last flush scored every window"
        );
        self.slice_out.clear();
        recycled.windowers = Some(self.windowers);
        recycled.pending = self.pending;
        recycled.slice_out = self.slice_out;
        ScheduledReport {
            app: self.app,
            packets: self.packets,
            phases: self.reports,
        }
    }
}
