//! [`StationRun`]: the one way to describe a station's evaluation.
//!
//! Every historical entry point — single station, pooled populations, live
//! adversaries, drift splices, arbitrary schedules — is a point in the same
//! configuration space: a packet source, a defense schedule, a window, a
//! feature mode and a [`WindowScorer`]. `StationRun` is that space as a
//! builder. A run describes **what** to evaluate; **where** it executes is
//! the [`Executor`](super::Executor)'s choice, so the same run streams
//! unchanged on the work-stealing pool or the virtual-time event core.
//!
//! ```no_run
//! use bench::streaming::{FrozenScorer, StationRun};
//! use bench::scenario::DefenseSpec;
//! use traffic_gen::spec::TrafficSpec;
//! use traffic_gen::app::AppKind;
//! # let adversary: classifier::ensemble::AdversaryEnsemble = unimplemented!();
//! let report = StationRun::new(TrafficSpec::bounded(AppKind::BitTorrent, 7, 120.0))
//!     .defense(DefenseSpec::parse("or")?)
//!     .splices(vec![(60.0, DefenseSpec::parse("padding")?)])
//!     .run(&mut FrozenScorer::new(&adversary))?;
//! # Ok::<(), String>(())
//! ```

use super::machine::{ScheduledReport, StagedScratch, StationMachine, WindowScorer, WINDOW_BATCH};
use crate::scenario::spec::DefenseSpec;
use classifier::window::FeatureMode;
use defenses::spec::{MorphCalibrations, StageContext};
use defenses::stage::STAGE_BATCH;
use std::cmp::Ordering;
use traffic_gen::app::AppKind;
use traffic_gen::packet::PacketRecord;
use traffic_gen::spec::TrafficSpec;
use traffic_gen::stream::StreamingSession;
use wlan_sim::time::SimDuration;

/// Session length of the calibration traces generated for morphing stations
/// (the live stream never materialises, so the source CDF comes from a
/// short generated session of the same application). The sessions do not
/// depend on the station (see [`defenses::spec::LIVE_CALIBRATION_SEED`]), so
/// an executor worker calibrates each `(app, target)` pair once per run.
pub const STATION_CALIB_SECS: f64 = 60.0;

/// One station's evaluation, as a value: traffic, a defense schedule, the
/// eavesdropping window and an arrival time. Execute it directly with
/// [`run`](StationRun::run), or hand many of them to an
/// [`Executor`](super::Executor).
pub struct StationRun {
    /// Generated lazily **at admission time** — until then the station holds
    /// no generator state at all.
    traffic: TrafficSpec,
    /// The defense active from the session start.
    initial: DefenseSpec,
    /// `(session-relative second, defense)` splices, built into pipelines
    /// at admission.
    splices: Vec<(f64, DefenseSpec)>,
    interfaces: usize,
    calib_secs: f64,
    window: SimDuration,
    mode: FeatureMode,
    arrival_secs: f64,
    window_batch: usize,
}

impl StationRun {
    /// A run over generated traffic, undefended by default.
    ///
    /// Defaults: no defense, 3 virtual interfaces, a 5 s window, the full
    /// feature set, arrival at wall-clock 0, morphing calibration over
    /// [`STATION_CALIB_SECS`].
    pub fn new(traffic: TrafficSpec) -> Self {
        StationRun {
            traffic,
            initial: DefenseSpec::none(),
            splices: Vec::new(),
            interfaces: 3,
            calib_secs: STATION_CALIB_SECS,
            window: SimDuration::from_secs(5),
            mode: FeatureMode::Full,
            arrival_secs: 0.0,
            window_batch: WINDOW_BATCH,
        }
    }

    /// Sets the defense active from the session start.
    pub fn defense(mut self, defense: DefenseSpec) -> Self {
        self.initial = defense;
        self
    }

    /// Sets the splice schedule: `(session-relative second, defense)` pairs,
    /// each spliced in at its second (any number of splices; they are sorted
    /// at build time, and a non-finite time makes [`run`](Self::run) fail).
    pub fn splices(mut self, schedule: Vec<(f64, DefenseSpec)>) -> Self {
        self.splices = schedule;
        self
    }

    /// Virtual-interface count for reshape stages (default 3).
    pub fn interfaces(mut self, interfaces: usize) -> Self {
        self.interfaces = interfaces;
        self
    }

    /// Length of generated morphing-calibration sessions, in seconds.
    pub fn calib_secs(mut self, calib_secs: f64) -> Self {
        self.calib_secs = calib_secs;
        self
    }

    /// The eavesdropping window `W` (default 5 s).
    pub fn window(mut self, window: SimDuration) -> Self {
        self.window = window;
        self
    }

    /// The adversary's feature mode (default [`FeatureMode::Full`]).
    pub fn feature_mode(mut self, mode: FeatureMode) -> Self {
        self.mode = mode;
        self
    }

    /// Wall-clock second the station arrives (default 0); packet times are
    /// session-relative, so the virtual-time executor schedules this run's
    /// events at `arrival + packet time`.
    pub fn arrival_secs(mut self, arrival_secs: f64) -> Self {
        self.arrival_secs = arrival_secs;
        self
    }

    /// How many closed windows buffer before a batched
    /// [`WindowScorer::score_slice`] flush (default
    /// [`WINDOW_BATCH`](super::WINDOW_BATCH); clamped to at least 1). Purely
    /// a scheduling knob: reports are bit-identical for every batch size.
    pub fn window_batch(mut self, window_batch: usize) -> Self {
        self.window_batch = window_batch.max(1);
        self
    }

    /// The station's ground-truth application.
    pub fn app(&self) -> AppKind {
        self.traffic.app
    }

    /// The station's wall-clock arrival second.
    pub fn arrival(&self) -> f64 {
        self.arrival_secs
    }

    /// Admits the station: builds its defense pipelines and packet source.
    /// This is the moment a station starts holding state — before it, a run
    /// is just a description. Morphing stages come from the worker's memo of
    /// `calibrations`.
    pub(crate) fn admit(self, calibrations: &MorphCalibrations) -> Result<AdmittedStation, String> {
        let mut splices = self.splices;
        if let Some((at, _)) = splices.iter().find(|(at, _)| !at.is_finite()) {
            return Err(format!("splice time {at} is not finite"));
        }
        // Finite times always compare; the sort is stable, so equal times
        // (`-0.0` and `0.0` included) keep their insertion order.
        splices.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal));
        let ctx = StageContext {
            calibrations: Some(calibrations),
            ..StageContext::live(self.traffic.app, self.traffic.seed, self.calib_secs)
        };
        let mut phases = vec![(0.0, self.initial.build(&ctx, self.interfaces)?)];
        for (at, defense) in &splices {
            phases.push((*at, defense.build(&ctx, self.interfaces)?));
        }
        Ok(AdmittedStation {
            machine: StationMachine::new(
                self.traffic.app,
                phases,
                self.window,
                self.mode,
                self.window_batch,
            ),
            source: self.traffic.build(),
            arrival_secs: self.arrival_secs,
        })
    }

    /// Runs the station to completion with `scorer`, returning its report.
    /// Fails if a splice time is not finite or a defense stage cannot be
    /// built (e.g. an invalid interface count for orthogonal reshaping).
    pub fn run(self, scorer: &mut dyn WindowScorer) -> Result<ScheduledReport, String> {
        let scratch = &mut StationScratch::new();
        let mut station = self.admit(&scratch.calibrations)?;
        station.adopt_scratch(scratch);
        station.drain_until(None, scratch, scorer);
        Ok(station.finish_into(scorer, scratch))
    }
}

/// Per-worker recycled state: the drain micro-batch, a pool of stage scratch
/// buffers handed to pipelines at admission
/// ([`AdmittedStation::adopt_scratch`]) and reclaimed at retirement
/// ([`AdmittedStation::finish_into`]), and the memo of morphing
/// calibrations, so high-churn populations pay the buffer growth and each
/// `(app, target)` calibration once per worker instead of once per
/// admission. It lives for one execution.
#[derive(Debug, Default)]
pub(crate) struct StationScratch {
    batch: Vec<PacketRecord>,
    staged: StagedScratch,
    outputs: Vec<defenses::stage::StageOutput>,
    pub(crate) calibrations: MorphCalibrations,
}

impl StationScratch {
    pub(crate) fn new() -> Self {
        StationScratch {
            batch: Vec::with_capacity(STAGE_BATCH),
            ..StationScratch::default()
        }
    }
}

/// What one coalesced [`drain_until`](AdmittedStation::drain_until) run did.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DrainRun {
    /// Wall-clock second of the last packet processed (`None` when the run
    /// processed no packet at all).
    pub(crate) last_secs: Option<f64>,
    /// Packets processed during the run.
    pub(crate) packets: u64,
}

/// A station that has been admitted: live pipelines, its streaming session,
/// and the machine driving both. Only admitted stations hold per-station state.
pub(crate) struct AdmittedStation {
    machine: StationMachine,
    source: StreamingSession,
    arrival_secs: f64,
}

impl AdmittedStation {
    /// Wall-clock time of the station's next packet (`None` once the source
    /// is exhausted) — the timestamp its next event carries in the
    /// virtual-time heap.
    pub(crate) fn next_wall_secs(&mut self) -> Option<f64> {
        self.source.next_time_secs().map(|t| self.arrival_secs + t)
    }

    /// Seeds the station's phase pipelines with recycled scratch buffers.
    pub(crate) fn adopt_scratch(&mut self, scratch: &mut StationScratch) {
        self.machine.adopt_scratch(&mut scratch.outputs);
    }

    /// Drains every packet whose wall-clock time is strictly before
    /// `horizon` (the whole source when `None`) in [`STAGE_BATCH`]-sized
    /// micro-batches — the coalesced fast path, byte-identical to stepping
    /// per packet because [`StationMachine::offer_slice`] splits each batch
    /// at phase-splice boundaries. The session fills each batch in one
    /// [`StreamingSession::fill_until`] call. The caller's `scratch` batch is
    /// reused across runs and stations.
    pub(crate) fn drain_until(
        &mut self,
        horizon: Option<f64>,
        scratch: &mut StationScratch,
        scorer: &mut dyn WindowScorer,
    ) -> DrainRun {
        let mut run = DrainRun {
            last_secs: None,
            packets: 0,
        };
        let StationScratch { batch, staged, .. } = scratch;
        loop {
            batch.clear();
            self.source
                .fill_until(self.arrival_secs, horizon, batch, STAGE_BATCH);
            let Some(last) = batch.last() else { break };
            run.last_secs = Some(self.arrival_secs + last.time.as_secs_f64());
            run.packets += batch.len() as u64;
            self.machine.offer_slice(batch, staged, scorer);
            if batch.len() < STAGE_BATCH {
                break;
            }
        }
        run
    }

    /// Retires the station and returns its report, reclaiming the phase
    /// pipelines' scratch buffers into the per-worker pool for the next
    /// admission.
    pub(crate) fn finish_into(
        self,
        scorer: &mut dyn WindowScorer,
        scratch: &mut StationScratch,
    ) -> ScheduledReport {
        self.machine.finish(scorer, &mut scratch.outputs)
    }
}
