//! [`StationRun`]: the one way to describe a station's evaluation.
//!
//! Every historical entry point — single station, populations, live
//! adversaries, drift splices, arbitrary schedules — is a point in the same
//! configuration space: a packet source, a defense schedule, a window, a
//! feature mode and a [`WindowScorer`]. `StationRun` is that space as a
//! builder. A run describes **what** to evaluate; **when** it executes is
//! the [`Executor`](super::Executor)'s choice, so the same run streams
//! unchanged alone ([`StationRun::run`]) or among a population on the
//! virtual-time event core.
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

use super::machine::{
    MachineBuffers, ScheduledReport, StagedScratch, StationMachine, WindowScorer,
};
use crate::scenario::spec::{DefenseSpec, OrSchedulers};
use classifier::window::FeatureMode;
use defenses::spec::{MorphCalibrations, StageContext};
use defenses::stage::STAGE_BATCH;
use std::cmp::Ordering;
use traffic_gen::models::AppModels;
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

    /// The station's wall-clock arrival second.
    pub fn arrival(&self) -> f64 {
        self.arrival_secs
    }

    /// Admits the station on a worker's `scratch`: builds its defense
    /// pipelines and packet source, and hands the machine the buffers the
    /// worker's last station left. This is the moment a station starts
    /// holding state — before it, a run is just a description. The source's
    /// model, OR schedulers and morphing stages come from the worker's memos.
    pub(crate) fn admit(
        self,
        scratch: &mut StationScratch,
    ) -> Result<(StationMachine, StreamingSession), String> {
        let mut splices = self.splices;
        if let Some((at, _)) = splices.iter().find(|(at, _)| !at.is_finite()) {
            return Err(format!("splice time {at} is not finite"));
        }
        // Finite times always compare; the sort is stable, so equal times
        // (`-0.0` and `0.0` included) keep their insertion order.
        splices.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal));
        let ctx = StageContext {
            calibrations: Some(&scratch.calibrations),
            ..StageContext::live(self.traffic.app, self.traffic.seed, self.calib_secs)
        };
        let build =
            |defense: &DefenseSpec| defense.build_with(&ctx, self.interfaces, &scratch.schedulers);
        let mut phases = Vec::with_capacity(1 + splices.len());
        phases.push((0.0, build(&self.initial)?));
        for (at, defense) in &splices {
            phases.push((*at, build(defense)?));
        }
        let source = self.traffic.build_from(&scratch.models);
        let machine = StationMachine::new(
            self.traffic.app,
            phases,
            self.window,
            self.mode,
            &mut scratch.recycled,
        );
        Ok((machine, source))
    }

    /// Runs the station to completion with `scorer`, returning its report.
    /// Fails if a splice time is not finite or a defense stage cannot be
    /// built (e.g. an invalid interface count for orthogonal reshaping).
    pub fn run(self, scorer: &mut dyn WindowScorer) -> Result<ScheduledReport, String> {
        self.run_on(&mut StationScratch::new(), scorer)
            .map(|(report, _)| report)
    }

    /// Admits the station on a worker's `scratch` and drains its whole
    /// source in [`STAGE_BATCH`]-sized micro-batches, each filled by one
    /// [`StreamingSession::fill`] call — byte-identical to stepping per
    /// packet, because [`StationMachine::offer_slice`] splits each batch at
    /// phase-splice boundaries. Returns the report and the wall-clock second
    /// of the last packet (`None` when the source sent none). The phase
    /// pipelines borrow recycled stage buffers from `scratch` and hand them
    /// back at retirement, for the worker's next admission.
    pub(crate) fn run_on(
        self,
        scratch: &mut StationScratch,
        scorer: &mut dyn WindowScorer,
    ) -> Result<(ScheduledReport, Option<f64>), String> {
        let arrival_secs = self.arrival_secs;
        let (mut machine, mut source) = self.admit(scratch)?;
        let mut last_secs = None;
        let StationScratch { batch, staged, .. } = scratch;
        loop {
            batch.clear();
            source.fill(batch, STAGE_BATCH);
            let Some(last) = batch.last() else { break };
            last_secs = Some(arrival_secs + last.time.as_secs_f64());
            machine.offer_slice(batch, staged, scorer);
            if batch.len() < STAGE_BATCH {
                break;
            }
        }
        Ok((machine.finish(scorer, &mut scratch.recycled), last_secs))
    }
}

/// Per-worker recycled state and memos, living for one execution. The
/// drain micro-batch, the staged-output buffers and the buffers a retired
/// machine leaves (its windower bank, window and prediction buffers and
/// stage scratch) are reused by the worker's next admission
/// ([`StationRun::run_on`]). The memos hold what admission would otherwise
/// rebuild per station: each application's compiled traffic model, each OR
/// scheduler's range and owner tables, and each `(app, target)` morphing
/// calibration. So high-churn populations pay the buffer growth and the
/// memo entries once per worker instead of once per admission. Nothing is
/// shared between workers or kept past the execution.
#[derive(Debug, Default)]
pub(crate) struct StationScratch {
    batch: Vec<PacketRecord>,
    staged: StagedScratch,
    recycled: MachineBuffers,
    models: AppModels,
    schedulers: OrSchedulers,
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
