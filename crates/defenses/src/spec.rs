//! Defense stages as **data**: stage specifications.
//!
//! The scenario engine composes whole experiments from committed spec files
//! (read by `bench::scenario`, the one place the schema is parsed).
//! [`DefenseStageSpec`] is this crate's end of that contract: one value names
//! a defense stage (padding, morphing, pseudonym rotation, frequency hopping)
//! plus its parameters, [`validate`](DefenseStageSpec::validate) checks them
//! and [`build`](DefenseStageSpec::build) constructs the streaming
//! [`PacketStage`] from it. The seeding rules match the hand-coded
//! pipelines the bench crate used before the refactor, so a spec-built stage
//! is byte-identical per seed to its historical construction — with one
//! exception: live morphing calibration (below).
//!
//! Morphing is the one stage that needs context beyond its own parameters:
//! its source/target CDFs are fixed before traffic flows, estimated from
//! calibration sessions (or the materialised source trace when one exists).
//! [`StageContext`] carries exactly that: the station's application, seed,
//! calibration-session length and optional source trace.
//!
//! With a source trace (the batch path behind the paper's tables) the
//! target session is seeded from the context's seed, as it always was. A
//! live station has no trace, and its morphing stage is calibrated like the
//! offline morphing matrices of Wright, Coull & Monrose (NDSS 2009): one per
//! `(application, target)` pair. Both calibration sessions are seeded by
//! [`LIVE_CALIBRATION_SEED`], never by the station, so the stage is a pure
//! function of `(app, target, calib_secs)` and a [`MorphCalibrations`] memo
//! can compute it once and hand out clones.

use crate::frequency_hopping::FrequencyHopper;
use crate::morphing::{
    calibration_histogram, paper_morphing_target, MorphingStage, TrafficMorpher,
};
use crate::padding::PacketPadder;
use crate::pseudonym::PseudonymRotator;
use crate::stage::PacketStage;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::{Cell, OnceCell};
use traffic_gen::app::AppKind;
use traffic_gen::trace::Trace;
use wlan_sim::time::SimDuration;

/// Seed of a live station's two morphing calibration sessions (the source
/// session draws `LIVE_CALIBRATION_SEED ^ 0xca1b`, the target session
/// `LIVE_CALIBRATION_SEED ^ 0xfeed`): ASCII `morphing`. A constant, so every
/// station of an `(app, target)` pair shares one calibration.
pub const LIVE_CALIBRATION_SEED: u64 = 0x6d6f_7270_6869_6e67;

/// The per-station context a stage spec is built in: everything a stage needs
/// that is not a parameter of the stage itself.
#[derive(Debug, Clone, Copy)]
pub struct StageContext<'a> {
    /// The application of the traffic the stage will defend (selects the
    /// paper's morphing pairing).
    pub app: AppKind,
    /// Seed for seeded stages: pseudonym draws, and the morphing target
    /// session when [`source`](Self::source) is given. Live morphing
    /// calibration ignores it (see [`LIVE_CALIBRATION_SEED`]).
    pub seed: u64,
    /// Length in seconds of the generated calibration sessions the morphing
    /// stage estimates its CDFs from: the target session always, the source
    /// session when there is no source trace.
    pub calib_secs: f64,
    /// The materialised source trace, when the whole session is known up
    /// front (the batch-equivalent path); live streams pass `None` and the
    /// source CDF comes from a generated calibration session instead.
    pub source: Option<&'a Trace>,
    /// A memo of live morphing calibrations shared by the stations built in
    /// this context's scope. `None` calibrates on every build, with the same
    /// result.
    pub calibrations: Option<&'a MorphCalibrations>,
}

impl<'a> StageContext<'a> {
    /// A context for a live stream (no materialised source trace, no memo).
    pub fn live(app: AppKind, seed: u64, calib_secs: f64) -> Self {
        StageContext {
            app,
            seed,
            calib_secs,
            source: None,
            calibrations: None,
        }
    }

    /// A context for a materialised session: morphing estimates its source
    /// CDF from `source`.
    pub fn batch(app: AppKind, seed: u64, calib_secs: f64, source: &'a Trace) -> Self {
        StageContext {
            source: Some(source),
            ..StageContext::live(app, seed, calib_secs)
        }
    }
}

/// One calibration per `(application, target)` pair: a memo of live morphing
/// stages, filled on first use. It is not `Sync`; each executor worker owns
/// one for one execution, so every run pays for its own calibrations.
#[derive(Debug)]
pub struct MorphCalibrations {
    /// Slot `app * APPS + target`: the `calib_secs` the slot was built for
    /// and the stage (or the build error).
    slots: [OnceCell<(f64, Result<MorphingStage, String>)>; APPS * APPS],
    sessions: Cell<u64>,
}

const APPS: usize = AppKind::ALL.len();

impl Default for MorphCalibrations {
    fn default() -> Self {
        MorphCalibrations {
            slots: std::array::from_fn(|_| OnceCell::new()),
            sessions: Cell::new(0),
        }
    }
}

impl MorphCalibrations {
    /// Calibration sessions generated through this memo so far.
    pub fn sessions(&self) -> u64 {
        self.sessions.get()
    }

    /// The live morphing stage of `app` disguised as `target`, calibrated on
    /// first use. A request for another `calib_secs` than the slot holds
    /// calibrates afresh, so the memo never changes a result.
    fn stage(
        &self,
        app: AppKind,
        target: AppKind,
        calib_secs: f64,
    ) -> Result<MorphingStage, String> {
        let calibrate = || {
            let mut sessions = 0;
            let stage = live_morphing_stage(app, target, calib_secs, &mut sessions);
            self.sessions.set(self.sessions.get() + sessions);
            stage
        };
        let slot = &self.slots[app.class_index() * APPS + target.class_index()];
        match slot.get_or_init(|| (calib_secs, calibrate())) {
            (secs, stage) if secs.to_bits() == calib_secs.to_bits() => stage.clone(),
            _ => calibrate(),
        }
    }
}

/// One defense stage, as data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DefenseStageSpec {
    /// Pad every packet up to `size` bytes (the paper's maximum size when
    /// `None`).
    Padding {
        /// Target size in bytes; defaults to the maximum packet size.
        size: Option<usize>,
    },
    /// Morph packet sizes toward `target`'s distribution (the paper's
    /// application pairing when `None`).
    Morphing {
        /// Explicit morphing target; defaults to the paper's pairing for the
        /// context's application.
        target: Option<AppKind>,
    },
    /// Rotate the MAC pseudonym every `period_secs` (60 s when `None`).
    Pseudonym {
        /// Rotation period in seconds; defaults to 60.
        period_secs: Option<f64>,
    },
    /// Hop channels 1/6/11 with a dwell of `dwell_ms` (500 ms when `None`).
    FrequencyHopping {
        /// Dwell time per channel in milliseconds; defaults to 500.
        dwell_ms: Option<u64>,
    },
}

impl DefenseStageSpec {
    /// The spec's tag in spec files and reports.
    pub fn name(&self) -> &'static str {
        match self {
            DefenseStageSpec::Padding { .. } => "padding",
            DefenseStageSpec::Morphing { .. } => "morphing",
            DefenseStageSpec::Pseudonym { .. } => "pseudonym",
            DefenseStageSpec::FrequencyHopping { .. } => "frequency_hopping",
        }
    }

    /// Checks the stage's parameters, returning the bad key with its error:
    /// a padding `size` of at least one byte, a pseudonym `period_secs` that
    /// [`duration_secs`] accepts, and a hopping `dwell_ms` of at least one
    /// millisecond that fits [`SimDuration`]'s range. Everything else the
    /// constructors would assert on.
    pub fn validate(&self) -> Result<(), (&'static str, String)> {
        match *self {
            DefenseStageSpec::Padding { size: Some(0) } => {
                Err(("size", "must be at least 1 byte, got 0".to_string()))
            }
            DefenseStageSpec::Pseudonym {
                period_secs: Some(secs),
            } => duration_secs(secs).map_err(|e| ("period_secs", e)),
            DefenseStageSpec::FrequencyHopping { dwell_ms: Some(ms) }
                if ms == 0 || ms > u64::MAX / 1_000 =>
            {
                Err((
                    "dwell_ms",
                    format!("must be between 1 and {}, got {ms}", u64::MAX / 1_000),
                ))
            }
            _ => Ok(()),
        }
    }

    /// Constructs the streaming stage this spec describes.
    ///
    /// Fails when [`validate`](Self::validate) does, or when a morphing
    /// calibration session (or the context's source trace) holds no packets,
    /// since no size distribution can be estimated from it.
    pub fn build(&self, ctx: &StageContext<'_>) -> Result<Box<dyn PacketStage>, String> {
        self.validate()
            .map_err(|(key, e)| format!("{}: {key}: {e}", self.name()))?;
        Ok(match self {
            DefenseStageSpec::Padding { size } => {
                let padder = match size {
                    Some(s) => PacketPadder::to_size(*s),
                    None => PacketPadder::new(),
                };
                Box::new(padder.stage())
            }
            DefenseStageSpec::Morphing { target } => Box::new(morphing_stage(target, ctx)?),
            DefenseStageSpec::Pseudonym { period_secs } => {
                let rotator = match period_secs {
                    Some(secs) => PseudonymRotator::new(SimDuration::from_secs_f64(*secs)),
                    None => PseudonymRotator::default(),
                };
                Box::new(rotator.stage_with_rng(StdRng::seed_from_u64(ctx.seed)))
            }
            DefenseStageSpec::FrequencyHopping { dwell_ms } => {
                let hopper = match dwell_ms {
                    Some(ms) => FrequencyHopper::new(
                        FrequencyHopper::default().channels().to_vec(),
                        SimDuration::from_millis(*ms),
                    ),
                    None => FrequencyHopper::default(),
                };
                Box::new(hopper.stage())
            }
        })
    }
}

/// Builds the morphing stage for the context's application: the target CDF
/// comes from a generated session of the morphing target (the paper's pairing
/// unless overridden), the source CDF from the materialised trace when one is
/// given or from a generated calibration session otherwise. With a source
/// trace the target session is seeded from the context, exactly as the
/// historical hand-coded pipeline did; live calibration is station-independent
/// (see [`live_morphing_stage`]). Fails, naming the session, when either side
/// has no packets.
fn morphing_stage(
    target: &Option<AppKind>,
    ctx: &StageContext<'_>,
) -> Result<MorphingStage, String> {
    let target_app = target.unwrap_or_else(|| paper_morphing_target(ctx.app));
    let Some(source) = ctx.source else {
        return match ctx.calibrations {
            Some(memo) => memo.stage(ctx.app, target_app, ctx.calib_secs),
            None => live_morphing_stage(ctx.app, target_app, ctx.calib_secs, &mut 0),
        };
    };
    let morpher = calibrated_morpher(target_app, ctx.seed ^ 0xfeed, ctx.calib_secs)?;
    if source.is_empty() {
        return Err(no_packets(ctx.app, ctx.calib_secs));
    }
    Ok(morpher.stage_for_source_trace(source))
}

/// The live morphing stage of `app` disguised as `target`: a pure function
/// of its arguments, both calibration sessions seeded by
/// [`LIVE_CALIBRATION_SEED`]. Adds the sessions it generates to `sessions`.
fn live_morphing_stage(
    app: AppKind,
    target: AppKind,
    calib_secs: f64,
    sessions: &mut u64,
) -> Result<MorphingStage, String> {
    *sessions += 1;
    let morpher = calibrated_morpher(target, LIVE_CALIBRATION_SEED ^ 0xfeed, calib_secs)?;
    *sessions += 1;
    let source = calibration_histogram(app, LIVE_CALIBRATION_SEED ^ 0xca1b, calib_secs);
    if source.is_empty() {
        return Err(no_packets(app, calib_secs));
    }
    Ok(morpher.stage_for_source_histogram(&source))
}

/// A morpher toward `target`, its CDF streamed from a generated session.
fn calibrated_morpher(
    target: AppKind,
    seed: u64,
    calib_secs: f64,
) -> Result<TrafficMorpher, String> {
    let hist = calibration_histogram(target, seed, calib_secs);
    if hist.is_empty() {
        return Err(no_packets(target, calib_secs));
    }
    Ok(TrafficMorpher::from_target_histogram(target, &hist))
}

/// Accepts a duration in seconds only when it is positive, finite (`x <=
/// 0.0` alone lets NaN through) and within [`SimDuration`]'s range: whole
/// microseconds, at least one, in a u64. Every duration key of a spec is
/// checked by it.
pub fn duration_secs(secs: f64) -> Result<(), String> {
    if !(secs.is_finite() && secs > 0.0) {
        return Err(format!(
            "must be a positive, finite number of seconds, got {secs:?}"
        ));
    }
    if !(0.5..u64::MAX as f64).contains(&(secs * 1e6)) {
        return Err(format!(
            "{secs:?} s is outside the simulator's time range (1 µs to {:.3e} s)",
            u64::MAX as f64 / 1e6
        ));
    }
    Ok(())
}

/// The error of a calibration session (or source trace) without packets.
fn no_packets(app: AppKind, calib_secs: f64) -> String {
    format!(
        "morphing: no {app} packets to estimate a size distribution from \
         (calib_secs = {calib_secs:?} s)"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::{stage_trace, StagePipeline, ROOT_FLOW};
    use traffic_gen::generator::SessionGenerator;
    use traffic_gen::packet::PacketRecord;
    use traffic_gen::MAX_PACKET_SIZE;

    fn trace() -> Trace {
        SessionGenerator::new(AppKind::BitTorrent, 5).generate_secs(20.0)
    }

    #[test]
    fn padding_spec_builds_the_default_padder() {
        let trace = trace();
        let ctx = StageContext::live(AppKind::BitTorrent, 1, 20.0);
        let mut stage = DefenseStageSpec::Padding { size: None }
            .build(&ctx)
            .unwrap();
        let out = stage_trace(stage.as_mut(), &trace);
        assert_eq!(out.len(), trace.len());
        assert!(out.iter().all(|(_, p)| p.size == MAX_PACKET_SIZE));
        let mut sized = DefenseStageSpec::Padding { size: Some(400) }
            .build(&ctx)
            .unwrap();
        let out = stage_trace(sized.as_mut(), &trace);
        assert!(out.iter().all(|(_, p)| p.size >= 400.min(MAX_PACKET_SIZE)));
    }

    #[test]
    fn seeded_spec_stages_match_their_hand_coded_constructions() {
        // The contract the scenario engine rests on: a spec-built stage is
        // byte-identical per seed to the direct construction.
        let trace = trace();
        let ctx = StageContext::batch(AppKind::BitTorrent, 42, 20.0, &trace);
        // Pseudonym: same seed, same pseudonym draws, same partitions.
        let mut from_spec = DefenseStageSpec::Pseudonym { period_secs: None }
            .build(&ctx)
            .unwrap();
        let mut direct =
            PseudonymRotator::default().stage_with_rng(StdRng::seed_from_u64(ctx.seed));
        assert_eq!(
            stage_trace(from_spec.as_mut(), &trace),
            stage_trace(&mut direct, &trace)
        );
        // Morphing with a materialised source: same seeds, same CDFs.
        let mut from_spec = DefenseStageSpec::Morphing { target: None }
            .build(&ctx)
            .unwrap();
        let target_trace =
            SessionGenerator::new(AppKind::Video, ctx.seed ^ 0xfeed).generate_secs(20.0);
        let mut direct = TrafficMorpher::from_target_trace(AppKind::Video, &target_trace)
            .stage_for_source_trace(&trace);
        assert_eq!(
            stage_trace(from_spec.as_mut(), &trace),
            stage_trace(&mut direct, &trace)
        );
    }

    #[test]
    fn spec_stages_compose_in_a_pipeline() {
        let trace = trace();
        let ctx = StageContext::live(AppKind::BitTorrent, 9, 20.0);
        let mut pipeline = StagePipeline::new();
        pipeline.push_stage(
            DefenseStageSpec::Morphing { target: None }
                .build(&ctx)
                .unwrap(),
        );
        pipeline.push_stage(
            DefenseStageSpec::Padding { size: None }
                .build(&ctx)
                .unwrap(),
        );
        let mut out = Vec::new();
        pipeline.process_batch(trace.packets(), |flow, p| out.push((flow, *p)));
        pipeline.finish(|flow, p| out.push((flow, *p)));
        assert_eq!(out.len(), trace.len());
        assert!(out
            .iter()
            .all(|(f, p)| *f == ROOT_FLOW && p.size == MAX_PACKET_SIZE));
    }

    #[test]
    fn morphing_without_calibration_packets_is_an_error() {
        // A calibration session too short to hold a packet cannot define a
        // size distribution: the build fails instead of panicking.
        let spec = DefenseStageSpec::Morphing { target: None };
        let err = spec
            .build(&StageContext::live(AppKind::BitTorrent, 3, 1e-6))
            .unwrap_err();
        assert!(err.contains("calib_secs"), "{err}");
        let empty = Trace::new();
        let with_empty_source = StageContext::batch(AppKind::BitTorrent, 3, 20.0, &empty);
        assert!(spec.build(&with_empty_source).is_err());
        assert!(spec
            .build(&StageContext::live(AppKind::BitTorrent, 3, 20.0))
            .is_ok());
        // The memo caches the error and returns it on every build.
        let memo = MorphCalibrations::default();
        let ctx = StageContext {
            calibrations: Some(&memo),
            ..StageContext::live(AppKind::BitTorrent, 3, 1e-6)
        };
        for _ in 0..2 {
            let err = spec.build(&ctx).unwrap_err();
            assert!(err.contains("calib_secs"), "{err}");
        }
        assert_eq!(
            memo.sessions(),
            1,
            "the empty target session ends calibration"
        );
    }

    /// Streams `trace` through the stage `spec` builds in `ctx`.
    fn morphed(
        spec: DefenseStageSpec,
        ctx: &StageContext<'_>,
        trace: &Trace,
    ) -> Vec<(u32, PacketRecord)> {
        let mut stage = spec.build(ctx).expect("calibrates");
        stage_trace(stage.as_mut(), trace)
    }

    #[test]
    fn live_morphing_is_independent_of_the_station_seed_and_equals_the_memo() {
        let trace = trace();
        let spec = DefenseStageSpec::Morphing { target: None };
        let memo = MorphCalibrations::default();
        let reference = morphed(
            spec,
            &StageContext::live(AppKind::BitTorrent, 0, 20.0),
            &trace,
        );
        for seed in [1, 42, u64::MAX] {
            let live = StageContext::live(AppKind::BitTorrent, seed, 20.0);
            assert_eq!(morphed(spec, &live, &trace), reference, "seed {seed}");
            let memoised = StageContext {
                calibrations: Some(&memo),
                ..live
            };
            assert_eq!(
                morphed(spec, &memoised, &trace),
                reference,
                "memo, seed {seed}"
            );
        }
        // Both sessions are seeded by the documented constant.
        let mut direct = TrafficMorpher::from_target_trace(
            AppKind::Video,
            &SessionGenerator::new(AppKind::Video, LIVE_CALIBRATION_SEED ^ 0xfeed)
                .generate_secs(20.0),
        )
        .stage_for_source_trace(
            &SessionGenerator::new(AppKind::BitTorrent, LIVE_CALIBRATION_SEED ^ 0xca1b)
                .generate_secs(20.0),
        );
        assert_eq!(stage_trace(&mut direct, &trace), reference);
    }

    #[test]
    fn the_memo_calibrates_each_app_target_pair_once() {
        let memo = MorphCalibrations::default();
        let build = |app, target, calib_secs| {
            let ctx = StageContext {
                calibrations: Some(&memo),
                ..StageContext::live(app, 7, calib_secs)
            };
            DefenseStageSpec::Morphing { target }.build(&ctx).unwrap();
        };
        for _ in 0..3 {
            build(AppKind::BitTorrent, None, 20.0);
        }
        assert_eq!(memo.sessions(), 2, "one source and one target session");
        build(AppKind::BitTorrent, Some(AppKind::Video), 20.0);
        assert_eq!(memo.sessions(), 2, "the paper's pairing is the same slot");
        build(AppKind::BitTorrent, Some(AppKind::Gaming), 20.0);
        build(AppKind::Chatting, None, 20.0);
        build(AppKind::Chatting, None, 20.0);
        assert_eq!(memo.sessions(), 6, "two more pairs, one calibration each");
        // Another session length bypasses the slot rather than reuse it.
        build(AppKind::BitTorrent, None, 10.0);
        build(AppKind::BitTorrent, None, 10.0);
        assert_eq!(memo.sessions(), 10);
    }

    #[test]
    fn out_of_range_parameters_fail_to_build_instead_of_panicking() {
        let ctx = StageContext::live(AppKind::BitTorrent, 1, 20.0);
        let size = |s| DefenseStageSpec::Padding { size: Some(s) };
        let period = |secs| DefenseStageSpec::Pseudonym {
            period_secs: Some(secs),
        };
        let dwell = |ms| DefenseStageSpec::FrequencyHopping { dwell_ms: Some(ms) };
        let mut rejected = vec![
            (size(0), "size"),
            (dwell(0), "dwell_ms"),
            (dwell(u64::MAX), "dwell_ms"),
        ];
        // Zero, negative, NaN, below one microsecond, beyond u64 microseconds.
        for secs in [0.0, -1.0, f64::NAN, 1e-9, 1e300] {
            rejected.push((period(secs), "period_secs"));
        }
        for (spec, key) in rejected {
            let Err(err) = spec.build(&ctx) else {
                panic!("{spec:?} must be rejected");
            };
            assert!(err.contains(key), "{spec:?}: {err}");
        }
        // The smallest valid values still build.
        for spec in [size(1), period(1e-6), dwell(1)] {
            assert!(spec.build(&ctx).is_ok(), "{spec:?}");
        }
    }
}
