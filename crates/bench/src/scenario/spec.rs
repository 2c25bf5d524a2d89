//! The declarative scenario schema and its compiler.
//!
//! A [`ScenarioSpec`] is the paper's whole evaluation grid as data: a station
//! population (each station a [`TrafficSpec`] plus a [`DefenseSpec`] stage
//! list), an [`AdversarySpec`] (batch or online/prequential), and an optional
//! [`EventSpec`] schedule for mid-session defense splices and station
//! arrival/departure churn. [`ScenarioSpec::build`] compiles the spec into
//! the existing streaming machinery — [`TrafficSpec`] → `StreamingSession`,
//! [`DefenseSpec`] → [`StagePipeline`], adversary spec → ensemble/evaluator —
//! after validating everything that can fail statically, so `--check` passes
//! imply a runnable scenario.
//!
//! The schema (see `scenarios/*.toml` for committed examples):
//!
//! ```toml
//! name = "staged-defense"
//! seed = 7
//! window_secs = 5.0
//!
//! [[stations]]
//! app = "bt"            # any AppKind alias
//! count = 4             # expands into 4 stations with consecutive seeds
//! secs = 120.0          # session length per station
//! defense = "padding"   # "+"-joined stage tags, or a [[stations.defense]] stage list
//!
//! [adversary]
//! mode = "online"        # "batch" (frozen ensemble) or "online" (prequential)
//!
//! [[events]]
//! at_secs = 60.0
//! kind = "splice"        # or "arrive" / "depart" (station churn)
//! defense = "morph_or"
//! ```

use crate::corpus::ExperimentConfig;
use crate::streaming::Executor;
use classifier::window::FeatureMode;
use defenses::spec::{DefenseStageSpec, StageContext};
use defenses::stage::StagePipeline;
use reshape_core::ranges::SizeRanges;
use reshape_core::scheduler::{
    OrthogonalModulo, OrthogonalRanges, RandomAssign, ReshapeAlgorithm, RoundRobin,
};
use reshape_core::stage::ReshapeStage;
use serde::{Deserialize, Error, Serialize, Value};
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap};
use traffic_gen::app::AppKind;
use traffic_gen::spec::{app_from_value, TrafficSpec};
use wlan_sim::time::SimDuration;

/// A reshaping scheduler, as data (Tables II/III's four algorithms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmSpec {
    /// Random assignment over virtual interfaces (RA).
    Random,
    /// Round-robin assignment (RR).
    RoundRobin,
    /// Orthogonal reshaping over packet-size ranges (OR).
    Orthogonal,
    /// The size-modulo OR variant of Fig. 5.
    OrthogonalModulo,
}

impl AlgorithmSpec {
    /// The spec tag (and report label).
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmSpec::Random => "ra",
            AlgorithmSpec::RoundRobin => "rr",
            AlgorithmSpec::Orthogonal => "or",
            AlgorithmSpec::OrthogonalModulo => "or_mod",
        }
    }

    /// Parses an algorithm tag.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "ra" | "random" => Ok(AlgorithmSpec::Random),
            "rr" | "round_robin" | "roundrobin" => Ok(AlgorithmSpec::RoundRobin),
            "or" | "orthogonal" => Ok(AlgorithmSpec::Orthogonal),
            "or_mod" | "or-mod" | "orthogonal_modulo" | "modulo" => {
                Ok(AlgorithmSpec::OrthogonalModulo)
            }
            other => Err(format!("unknown reshape algorithm `{other}`")),
        }
    }

    /// Constructs the scheduler, seeded exactly like the historical
    /// hand-coded pipelines.
    pub fn build(self, interfaces: usize, seed: u64) -> Result<Box<dyn ReshapeAlgorithm>, String> {
        Ok(match self {
            AlgorithmSpec::Random => Box::new(RandomAssign::new(interfaces, seed)),
            AlgorithmSpec::RoundRobin => Box::new(RoundRobin::new(interfaces)),
            AlgorithmSpec::Orthogonal => Box::new(OrthogonalRanges::new(
                SizeRanges::for_interface_count(interfaces)
                    .map_err(|e| format!("invalid interface count {interfaces}: {e}"))?,
            )),
            AlgorithmSpec::OrthogonalModulo => Box::new(OrthogonalModulo::new(interfaces)),
        })
    }

    /// Whether the algorithm is valid for `interfaces` virtual interfaces.
    fn validate(self, interfaces: usize) -> Result<(), String> {
        match self {
            AlgorithmSpec::Orthogonal => SizeRanges::for_interface_count(interfaces)
                .map(|_| ())
                .map_err(|e| format!("invalid interface count {interfaces}: {e}")),
            _ if interfaces == 0 => Err("interface count must be positive".to_string()),
            _ => Ok(()),
        }
    }
}

/// One stage of a defense pipeline: a defense-crate stage or the reshaping
/// engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StageSpec {
    /// A transforming/partitioning defense stage (padding, morphing,
    /// pseudonym rotation, frequency hopping).
    Defense(DefenseStageSpec),
    /// The reshaping engine over a scheduling algorithm.
    Reshape {
        /// The scheduler dispatching packets to virtual interfaces.
        algorithm: AlgorithmSpec,
        /// Virtual-interface count; the station's count when `None`.
        interfaces: Option<usize>,
    },
}

impl StageSpec {
    /// The stage's report label.
    pub fn name(&self) -> &'static str {
        match self {
            StageSpec::Defense(d) => d.name(),
            StageSpec::Reshape { algorithm, .. } => algorithm.name(),
        }
    }
}

impl Serialize for StageSpec {
    fn to_value(&self) -> Value {
        match self {
            StageSpec::Defense(d) => d.to_value(),
            StageSpec::Reshape {
                algorithm,
                interfaces,
            } => {
                let mut entries = vec![
                    ("stage".to_string(), Value::Str("reshape".to_string())),
                    (
                        "algorithm".to_string(),
                        Value::Str(algorithm.name().to_string()),
                    ),
                ];
                if let Some(i) = interfaces {
                    entries.push(("interfaces".to_string(), Value::U64(*i as u64)));
                }
                Value::Map(entries)
            }
        }
    }
}

impl Deserialize for StageSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        // A bare algorithm tag is a reshape stage; any other bare tag (or a
        // table without `stage = "reshape"`) is a defense stage.
        if let Value::Str(s) = v {
            if let Ok(algorithm) = AlgorithmSpec::parse(s) {
                return Ok(StageSpec::Reshape {
                    algorithm,
                    interfaces: None,
                });
            }
            return DefenseStageSpec::from_value(v).map(StageSpec::Defense);
        }
        let map = v
            .as_map()
            .ok_or_else(|| Error::custom("expected a stage table or tag"))?;
        let tag = match serde::value_get(map, "stage") {
            Some(Value::Str(s)) => s.as_str(),
            _ => return Err(Error::custom("stage table is missing `stage`")),
        };
        if tag == "reshape" {
            serde::value_deny_unknown(map, &["stage", "algorithm", "interfaces"], "reshape stage")?;
            let algorithm = match serde::value_get(map, "algorithm") {
                Some(Value::Str(s)) => AlgorithmSpec::parse(s).map_err(Error::custom)?,
                Some(other) => {
                    return Err(Error::custom(format!(
                        "expected algorithm tag, found {other:?}"
                    )))
                }
                None => AlgorithmSpec::Orthogonal,
            };
            let interfaces = serde::value_get(map, "interfaces")
                .map(usize::from_value)
                .transpose()?;
            Ok(StageSpec::Reshape {
                algorithm,
                interfaces,
            })
        } else {
            DefenseStageSpec::from_value(v).map(StageSpec::Defense)
        }
    }
}

/// A whole defense pipeline, as an ordered stage list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DefenseSpec {
    /// The stages, in packet-flow order; empty is the undefended identity.
    pub stages: Vec<StageSpec>,
}

impl DefenseSpec {
    /// The undefended (identity) pipeline.
    pub fn none() -> Self {
        DefenseSpec::default()
    }

    /// Parses the `defense = "…"` shorthand: the grammar [`label`](Self::label)
    /// prints. The string is trimmed and lower-cased; `none` (or `original`)
    /// is the empty list, anything else is `+`-joined stage tags, each read
    /// like a bare `[[stations.defense]]` tag. `morph_or` and
    /// `morph_then_reshape` stay as aliases of `morphing+or`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let lowered = s.trim().to_ascii_lowercase();
        let tags = match lowered.as_str() {
            "none" | "original" => return Ok(DefenseSpec::none()),
            "morph_or" | "morph_then_reshape" => "morphing+or",
            tags => tags,
        };
        let stages = tags
            .split('+')
            .map(|tag| StageSpec::from_value(&Value::Str(tag.to_string())))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("unknown defense `{s}`: {e}"))?;
        Ok(DefenseSpec { stages })
    }

    /// A human-readable label (`"morphing+or"`, `"none"`).
    pub fn label(&self) -> String {
        if self.stages.is_empty() {
            "none".to_string()
        } else {
            self.stages
                .iter()
                .map(StageSpec::name)
                .collect::<Vec<_>>()
                .join("+")
        }
    }

    /// Builds the streaming stage pipeline: each spec'd stage constructed in
    /// order, reshape stages defaulting to `interfaces` virtual interfaces.
    pub fn build(
        &self,
        ctx: &StageContext<'_>,
        interfaces: usize,
    ) -> Result<StagePipeline, String> {
        let mut pipeline = StagePipeline::new();
        for stage in &self.stages {
            match stage {
                StageSpec::Defense(d) => pipeline.push_stage(d.build(ctx)?),
                StageSpec::Reshape {
                    algorithm,
                    interfaces: stage_interfaces,
                } => {
                    let count = stage_interfaces.unwrap_or(interfaces);
                    pipeline.push_stage(Box::new(ReshapeStage::new(
                        algorithm.build(count, ctx.seed)?,
                    )));
                }
            }
        }
        Ok(pipeline)
    }

    /// Everything that can fail in [`build`](Self::build), checked without
    /// constructing stages (morphing calibration is expensive).
    pub fn validate(&self, interfaces: usize) -> Result<(), String> {
        for stage in &self.stages {
            match stage {
                StageSpec::Defense(d) => d.validate()?,
                StageSpec::Reshape {
                    algorithm,
                    interfaces: stage_interfaces,
                } => algorithm.validate(stage_interfaces.unwrap_or(interfaces))?,
            }
        }
        Ok(())
    }
}

impl Serialize for DefenseSpec {
    fn to_value(&self) -> Value {
        Value::Seq(self.stages.iter().map(Serialize::to_value).collect())
    }
}

impl Deserialize for DefenseSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            // The shorthand (`defense = "morph_or"`).
            Value::Str(s) => DefenseSpec::parse(s).map_err(Error::custom),
            Value::Seq(stages) => Ok(DefenseSpec {
                stages: stages
                    .iter()
                    .map(StageSpec::from_value)
                    .collect::<Result<_, _>>()?,
            }),
            other => Err(Error::custom(format!(
                "expected defense shorthand or stage list, found {other:?}"
            ))),
        }
    }
}

/// A group of identical stations (traffic model + defense), expanded into
/// `count` stations with consecutive seeds by the compiler.
#[derive(Debug, Clone, PartialEq)]
pub struct StationGroupSpec {
    /// The application every station in the group runs.
    pub app: AppKind,
    /// How many stations the group expands to.
    pub count: usize,
    /// Base seed of the group (member `i` uses `seed + i`); derived from the
    /// scenario seed and group index when `None`.
    pub seed: Option<u64>,
    /// Session length per station, in seconds.
    pub secs: f64,
    /// Virtual interfaces for reshape stages; scenario default when `None`.
    pub interfaces: Option<usize>,
    /// The defense pipeline protecting the group.
    pub defense: DefenseSpec,
    /// Arrival stagger within the group: member `i` arrives at wall-clock
    /// `i * stagger_secs` (0 = everyone at once). This is how large
    /// populations state continuous churn in O(1) spec space.
    pub stagger_secs: f64,
}

impl Deserialize for StationGroupSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let map = v
            .as_map()
            .ok_or_else(|| Error::custom("expected a station table"))?;
        serde::value_deny_unknown(
            map,
            &[
                "app",
                "count",
                "seed",
                "secs",
                "interfaces",
                "defense",
                "stagger_secs",
            ],
            "station group",
        )?;
        let app = app_from_value(
            serde::value_get(map, "app")
                .ok_or_else(|| Error::custom("station group is missing `app`"))?,
        )?;
        let count = serde::value_get(map, "count")
            .map(usize::from_value)
            .transpose()?
            .unwrap_or(1);
        let seed = serde::value_get(map, "seed")
            .map(u64::from_value)
            .transpose()?;
        let secs = serde::value_get(map, "secs")
            .map(f64::from_value)
            .transpose()?
            .unwrap_or(60.0);
        let interfaces = serde::value_get(map, "interfaces")
            .map(usize::from_value)
            .transpose()?;
        let defense = serde::value_get(map, "defense")
            .map(DefenseSpec::from_value)
            .transpose()?
            .unwrap_or_default();
        let stagger_secs = serde::value_get(map, "stagger_secs")
            .map(f64::from_value)
            .transpose()?
            .unwrap_or(0.0);
        Ok(StationGroupSpec {
            app,
            count,
            seed,
            secs,
            interfaces,
            defense,
            stagger_secs,
        })
    }
}

/// Which adversary scores the scenario's windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryMode {
    /// A frozen ensemble trained offline on undefended traffic.
    Batch,
    /// A live prequential adversary: warm-started on undefended traffic,
    /// then forked per station and learning test-then-train as it scores.
    Online,
}

/// The adversary configuration of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversarySpec {
    /// Batch (frozen) or online (prequential) scoring.
    pub mode: AdversaryMode,
    /// Corpus sizing and seeding of the training phase; fields overlay
    /// [`ExperimentConfig::quick`].
    pub train: ExperimentConfig,
    /// Timeline cadence (windows per snapshot) for online stations.
    pub snapshot_every: u64,
}

impl Default for AdversarySpec {
    fn default() -> Self {
        AdversarySpec {
            mode: AdversaryMode::Batch,
            train: ExperimentConfig::quick(),
            snapshot_every: 10,
        }
    }
}

impl Deserialize for AdversarySpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let map = v
            .as_map()
            .ok_or_else(|| Error::custom("expected an adversary table"))?;
        serde::value_deny_unknown(map, &["mode", "train", "snapshot_every"], "adversary spec")?;
        let mode = match serde::value_get(map, "mode") {
            None => AdversaryMode::Batch,
            Some(Value::Str(s)) => match s.as_str() {
                "batch" => AdversaryMode::Batch,
                "online" | "prequential" => AdversaryMode::Online,
                other => return Err(Error::custom(format!("unknown adversary mode `{other}`"))),
            },
            Some(other) => {
                return Err(Error::custom(format!(
                    "expected adversary mode string, found {other:?}"
                )))
            }
        };
        let train = match serde::value_get(map, "train") {
            Some(t) => config_overlay(t)?,
            None => ExperimentConfig::quick(),
        };
        let snapshot_every = serde::value_get(map, "snapshot_every")
            .map(u64::from_value)
            .transpose()?
            .unwrap_or(10);
        Ok(AdversarySpec {
            mode,
            train,
            snapshot_every,
        })
    }
}

/// Reads an [`ExperimentConfig`] table where every field is optional,
/// overlaying [`ExperimentConfig::quick`] — spec files only state what they
/// change.
fn config_overlay(v: &Value) -> Result<ExperimentConfig, Error> {
    let map = v
        .as_map()
        .ok_or_else(|| Error::custom("expected a train-config table"))?;
    serde::value_deny_unknown(
        map,
        &[
            "train_seed",
            "eval_seed",
            "train_sessions",
            "train_session_secs",
            "eval_sessions",
            "eval_session_secs",
            "window_secs",
            "interfaces",
        ],
        "train config",
    )?;
    let mut config = ExperimentConfig::quick();
    if let Some(x) = serde::value_get(map, "train_seed") {
        config.train_seed = u64::from_value(x)?;
    }
    if let Some(x) = serde::value_get(map, "eval_seed") {
        config.eval_seed = u64::from_value(x)?;
    }
    if let Some(x) = serde::value_get(map, "train_sessions") {
        config.train_sessions = usize::from_value(x)?;
    }
    if let Some(x) = serde::value_get(map, "train_session_secs") {
        config.train_session_secs = f64::from_value(x)?;
    }
    if let Some(x) = serde::value_get(map, "eval_sessions") {
        config.eval_sessions = usize::from_value(x)?;
    }
    if let Some(x) = serde::value_get(map, "eval_session_secs") {
        config.eval_session_secs = f64::from_value(x)?;
    }
    if let Some(x) = serde::value_get(map, "window_secs") {
        config.window_secs = f64::from_value(x)?;
    }
    if let Some(x) = serde::value_get(map, "interfaces") {
        config.interfaces = usize::from_value(x)?;
    }
    Ok(config)
}

/// What happens at one point of a scenario's event schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// Splice a new defense pipeline into the running session.
    Splice(DefenseSpec),
    /// The station joins the network at the event time (churn).
    Arrive,
    /// The station leaves the network at the event time (churn).
    Depart,
}

/// One scheduled event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventSpec {
    /// Scenario wall-clock second the event fires at.
    pub at_secs: f64,
    /// Global station index the event applies to; `None` applies a splice to
    /// every station (arrive/depart always need a station).
    pub station: Option<usize>,
    /// What happens.
    pub kind: EventKind,
    /// The `[[events]]` header's line in the spec file, when loaded from
    /// one — build errors cite it.
    pub line: Option<u32>,
}

impl EventSpec {
    /// How a build error names this event (`[[events]] entry #2 (line 31)`).
    fn describe(&self, index: usize) -> String {
        match self.line {
            Some(line) => format!("[[events]] entry #{} (line {line})", index + 1),
            None => format!("[[events]] entry #{}", index + 1),
        }
    }
}

impl Deserialize for EventSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let map = v
            .as_map()
            .ok_or_else(|| Error::custom("expected an event table"))?;
        serde::value_deny_unknown(map, &["at_secs", "station", "kind", "defense"], "event")?;
        let at_secs = f64::from_value(
            serde::value_get(map, "at_secs")
                .ok_or_else(|| Error::custom("event is missing `at_secs`"))?,
        )?;
        let station = serde::value_get(map, "station")
            .map(usize::from_value)
            .transpose()?;
        let kind = match serde::value_get(map, "kind") {
            Some(Value::Str(s)) => match s.as_str() {
                "splice" => {
                    let defense = serde::value_get(map, "defense")
                        .ok_or_else(|| Error::custom("splice event is missing `defense`"))?;
                    EventKind::Splice(DefenseSpec::from_value(defense)?)
                }
                "arrive" | "depart" => {
                    if serde::value_get(map, "defense").is_some() {
                        return Err(Error::custom(format!(
                            "`defense` does not apply to a {s} event"
                        )));
                    }
                    if s == "arrive" {
                        EventKind::Arrive
                    } else {
                        EventKind::Depart
                    }
                }
                other => return Err(Error::custom(format!("unknown event kind `{other}`"))),
            },
            _ => return Err(Error::custom("event is missing `kind`")),
        };
        Ok(EventSpec {
            at_secs,
            station,
            kind,
            line: None,
        })
    }
}

/// A whole experiment, as data.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The scenario's name (defaults to the spec file's stem).
    pub name: String,
    /// Base seed; per-station seeds derive from it unless a group pins one.
    pub seed: u64,
    /// The eavesdropping window `W` in seconds.
    pub window_secs: f64,
    /// Length of generated morphing-calibration sessions, in seconds.
    pub calib_secs: f64,
    /// Default virtual-interface count for reshape stages.
    pub interfaces: usize,
    /// The station population.
    pub stations: Vec<StationGroupSpec>,
    /// The adversary.
    pub adversary: AdversarySpec,
    /// The event schedule (splices and churn).
    pub events: Vec<EventSpec>,
    /// Which executor runs the population: the optional `executor` key
    /// accepts `"virtual_time"` and its alias `"pooled"`, which both run the
    /// virtual-time core.
    pub executor: Executor,
    /// How many stations keep a full per-station outcome in the report
    /// (aggregates always cover everyone). Caps report size for
    /// million-station scenarios.
    pub max_station_reports: usize,
}

impl Deserialize for ScenarioSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let map = v
            .as_map()
            .ok_or_else(|| Error::custom("expected a scenario table"))?;
        serde::value_deny_unknown(
            map,
            &[
                "name",
                "seed",
                "window_secs",
                "calib_secs",
                "interfaces",
                "stations",
                "adversary",
                "events",
                "executor",
                "max_station_reports",
            ],
            "scenario",
        )?;
        let name = serde::value_get(map, "name")
            .map(String::from_value)
            .transpose()?
            .unwrap_or_default();
        let seed = serde::value_get(map, "seed")
            .map(u64::from_value)
            .transpose()?
            .unwrap_or(0);
        let window_secs = serde::value_get(map, "window_secs")
            .map(f64::from_value)
            .transpose()?
            .unwrap_or(5.0);
        let calib_secs = serde::value_get(map, "calib_secs")
            .map(f64::from_value)
            .transpose()?
            .unwrap_or(60.0);
        let interfaces = serde::value_get(map, "interfaces")
            .map(usize::from_value)
            .transpose()?
            .unwrap_or(3);
        let stations = serde::value_get(map, "stations")
            .map(Vec::<StationGroupSpec>::from_value)
            .transpose()?
            .unwrap_or_default();
        let adversary = serde::value_get(map, "adversary")
            .map(AdversarySpec::from_value)
            .transpose()?
            .unwrap_or_default();
        let events = serde::value_get(map, "events")
            .map(Vec::<EventSpec>::from_value)
            .transpose()?
            .unwrap_or_default();
        let executor = match serde::value_get(map, "executor") {
            None => Executor::default(),
            Some(Value::Str(s)) => Executor::parse(s).map_err(Error::custom)?,
            Some(other) => {
                return Err(Error::custom(format!(
                    "expected executor tag string, found {other:?}"
                )))
            }
        };
        let max_station_reports = serde::value_get(map, "max_station_reports")
            .map(usize::from_value)
            .transpose()?
            .unwrap_or(usize::MAX);
        Ok(ScenarioSpec {
            name,
            seed,
            window_secs,
            calib_secs,
            interfaces,
            stations,
            adversary,
            events,
            executor,
            max_station_reports,
        })
    }
}

/// One compiled station: resolved traffic, defense, churn interval and
/// session-relative splice schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioStation {
    /// The station's traffic (seed resolved, duration clipped by departure).
    pub traffic: TrafficSpec,
    /// Virtual interfaces for its reshape stages.
    pub interfaces: usize,
    /// The defense active from session start.
    pub defense: DefenseSpec,
    /// Wall-clock second the station arrives (0 unless churned in).
    pub arrival_secs: f64,
    /// Wall-clock second the station departs, when churned out.
    pub departure_secs: Option<f64>,
    /// Mid-session defense splices, as `(session-relative second, defense)`
    /// sorted by time.
    pub splices: Vec<(f64, DefenseSpec)>,
}

impl ScenarioStation {
    /// The station's effective session length: its traffic duration clipped
    /// by its departure.
    pub fn session_secs(&self) -> f64 {
        self.traffic.secs.expect("compiled stations are bounded")
    }
}

/// One compiled station group: seeds resolved, interfaces defaulted.
/// `Population` materialises members on demand from these.
#[derive(Debug, Clone, PartialEq)]
struct CompiledGroup {
    /// Global index of the group's first member.
    first: usize,
    /// Member count.
    count: usize,
    /// The application every member runs.
    app: AppKind,
    /// Member `i` streams with seed `base_seed + i`.
    base_seed: u64,
    /// Session length per member, before departure clipping.
    secs: f64,
    /// Resolved virtual-interface count.
    interfaces: usize,
    /// The group's defense pipeline.
    defense: DefenseSpec,
    /// Member `i` arrives at `i * stagger_secs` unless an arrive event
    /// overrides it.
    stagger_secs: f64,
}

/// A station's churn override from explicit `[[events]]` entries.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct ChurnOverride {
    arrival: Option<f64>,
    departure: Option<f64>,
}

/// The compiled station population, stored by *rule*, not by member: group
/// descriptors, per-station churn overrides and the splice schedule. A
/// million-station population is a handful of groups plus its explicit
/// events, and [`station`](Population::station) materialises any member on
/// demand — the representation that lets the virtual-time executor hold
/// state only for stations currently on air.
#[derive(Debug, Clone, PartialEq)]
pub struct Population {
    groups: Vec<CompiledGroup>,
    churn: BTreeMap<usize, ChurnOverride>,
    /// The stations an arrive event moves out of their stagger slot, as
    /// `(arrival second, index)` in canonical order.
    moved: Vec<(f64, usize)>,
    /// `(wall-clock second, target station or all, defense)` in spec order.
    splices: Vec<(f64, Option<usize>, DefenseSpec)>,
    total: usize,
}

/// The canonical arrival order: by second ([`f64::total_cmp`]), then by
/// station index.
fn canonical(a: (f64, usize), b: (f64, usize)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

impl Population {
    /// Total station count.
    pub fn station_count(&self) -> usize {
        self.total
    }

    /// Every station's `(arrival second, index)`, in canonical order: by
    /// arrival, ties by index. Lazy, in O(groups + events) state: each
    /// group's stagger slots arrive in index order, so the iterator merges
    /// one head per group with the stations arrive events moved.
    pub fn arrivals(&self) -> Arrivals<'_> {
        let mut heads = BinaryHeap::with_capacity(self.groups.len());
        for group in 0..self.groups.len() {
            heads.extend(self.slot_head(group, 0));
        }
        Arrivals {
            population: self,
            heads,
            moved: 0,
        }
    }

    /// The first member from `member` on of `group` that arrives in its
    /// stagger slot (no arrive event moved it), as a merge head.
    fn slot_head(&self, group: usize, mut member: usize) -> Option<Reverse<ArrivalHead>> {
        let g = &self.groups[group];
        while member < g.count
            && self
                .churn
                .get(&(g.first + member))
                .is_some_and(|c| c.arrival.is_some())
        {
            member += 1;
        }
        (member < g.count).then(|| {
            Reverse(ArrivalHead {
                at_secs: member as f64 * g.stagger_secs,
                station: g.first + member,
                group,
            })
        })
    }

    fn group_of(&self, index: usize) -> &CompiledGroup {
        &self.groups[self.groups.partition_point(|g| g.first + g.count <= index)]
    }

    /// The station's wall-clock arrival second (override or stagger).
    fn arrival_of(&self, index: usize) -> f64 {
        self.churn
            .get(&index)
            .and_then(|c| c.arrival)
            .unwrap_or_else(|| {
                let group = self.group_of(index);
                (index - group.first) as f64 * group.stagger_secs
            })
    }

    /// The station's active wall-clock interval `[arrival, end]`.
    fn interval_of(&self, index: usize) -> (f64, f64) {
        let arrival = self.arrival_of(index);
        let mut secs = self.group_of(index).secs;
        if let Some(depart) = self.churn.get(&index).and_then(|c| c.departure) {
            secs = secs.min((depart - arrival).max(0.0));
        }
        (arrival, arrival + secs)
    }

    /// Materialises station `index`: resolved seed, arrival, departure-
    /// clipped duration and its session-relative splice schedule.
    ///
    /// # Panics
    /// If `index` is out of range.
    pub fn station(&self, index: usize) -> ScenarioStation {
        assert!(
            index < self.total,
            "station {index} out of range (0..{})",
            self.total
        );
        let group = self.group_of(index);
        let member = index - group.first;
        let over = self.churn.get(&index).copied().unwrap_or_default();
        let arrival_secs = over.arrival.unwrap_or(member as f64 * group.stagger_secs);
        let mut secs = group.secs;
        if let Some(depart) = over.departure {
            // Clip the session at departure: a departed station generates
            // nothing past its departure.
            secs = secs.min((depart - arrival_secs).max(0.0));
        }
        // Session-relative: a splice before the station arrives applies from
        // its first packet (the t=0 edge case).
        let mut splices: Vec<(f64, DefenseSpec)> = self
            .splices
            .iter()
            .filter(|(_, target, _)| target.is_none_or(|t| t == index))
            .map(|(at, _, defense)| ((at - arrival_secs).max(0.0), defense.clone()))
            .collect();
        splices.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("splice times are finite"));
        ScenarioStation {
            traffic: TrafficSpec::bounded(
                group.app,
                group.base_seed.wrapping_add(member as u64),
                secs,
            ),
            interfaces: group.interfaces,
            defense: group.defense.clone(),
            arrival_secs,
            departure_secs: over.departure,
            splices,
        }
    }
}

/// The next stagger-slot arrival of one group, ordered canonically.
#[derive(Debug, Clone, Copy)]
struct ArrivalHead {
    at_secs: f64,
    station: usize,
    group: usize,
}

impl PartialEq for ArrivalHead {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for ArrivalHead {}

impl PartialOrd for ArrivalHead {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ArrivalHead {
    fn cmp(&self, other: &Self) -> Ordering {
        canonical((self.at_secs, self.station), (other.at_secs, other.station))
    }
}

/// The iterator of [`Population::arrivals`].
#[derive(Debug, Clone)]
pub struct Arrivals<'a> {
    population: &'a Population,
    /// Each group's next stagger-slot arrival (a min-heap).
    heads: BinaryHeap<Reverse<ArrivalHead>>,
    /// The next entry of `population.moved`.
    moved: usize,
}

impl Iterator for Arrivals<'_> {
    type Item = (f64, usize);

    fn next(&mut self) -> Option<(f64, usize)> {
        let moved = self.population.moved.get(self.moved).copied();
        let slot = self.heads.peek().map(|h| (h.0.at_secs, h.0.station));
        let take_moved = match (moved, slot) {
            (Some(m), Some(s)) => canonical(m, s) == Ordering::Less,
            (m, _) => m.is_some(),
        };
        if take_moved {
            self.moved += 1;
            return moved;
        }
        let Reverse(head) = self.heads.pop()?;
        let group = &self.population.groups[head.group];
        let next = self
            .population
            .slot_head(head.group, head.station - group.first + 1);
        self.heads.extend(next);
        Some((head.at_secs, head.station))
    }
}

/// A compiled, validated scenario ready to run on the executor.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledScenario {
    /// The scenario's name (report key and output file stem).
    pub name: String,
    /// The eavesdropping window.
    pub window: SimDuration,
    /// Morphing-calibration session length, in seconds.
    pub calib_secs: f64,
    /// The adversary.
    pub adversary: AdversarySpec,
    /// Which executor runs the population.
    pub executor: Executor,
    /// How many stations keep a full per-station outcome in the report.
    pub max_station_reports: usize,
    /// The compiled station population (materialised on demand).
    pub population: Population,
}

impl CompiledScenario {
    /// Total station count.
    pub fn station_count(&self) -> usize {
        self.population.station_count()
    }

    /// Materialises station `index` (see [`Population::station`]).
    pub fn station(&self, index: usize) -> ScenarioStation {
        self.population.station(index)
    }
}

impl ScenarioSpec {
    /// Compiles the spec into a [`CompiledScenario`], validating everything
    /// that can fail statically: station population non-empty, positive
    /// durations, event indices in range, reshape stages valid for their
    /// interface counts, a coherent event schedule (a station cannot depart
    /// before it arrives, and targeted splices must land inside the target's
    /// active interval) and a name that is one plain file name. The
    /// population itself stays symbolic, so compiling a million-station spec
    /// is O(groups + events).
    pub fn build(&self) -> Result<CompiledScenario, String> {
        report_file_name(&self.name)?;
        if self.stations.is_empty() {
            return Err(format!("scenario `{}` has no stations", self.name));
        }
        window_secs("window_secs", self.window_secs)?;
        positive_secs("calib_secs", self.calib_secs)?;
        validate_train(&self.adversary.train)?;
        let mut groups = Vec::with_capacity(self.stations.len());
        let mut first = 0usize;
        for (group_index, group) in self.stations.iter().enumerate() {
            if group.count == 0 {
                return Err(format!("station group {group_index} has count 0"));
            }
            positive_secs("secs", group.secs)
                .map_err(|e| format!("station group {group_index}: {e}"))?;
            if !group.stagger_secs.is_finite() || group.stagger_secs < 0.0 {
                return Err(format!(
                    "station group {group_index} has invalid stagger_secs {}",
                    group.stagger_secs
                ));
            }
            let interfaces = group.interfaces.unwrap_or(self.interfaces);
            group
                .defense
                .validate(interfaces)
                .map_err(|e| format!("station group {group_index} ({}): {e}", group.app))?;
            let base_seed = group
                .seed
                .unwrap_or_else(|| derive_group_seed(self.seed, group_index));
            groups.push(CompiledGroup {
                first,
                count: group.count,
                app: group.app,
                base_seed,
                secs: group.secs,
                interfaces,
                defense: group.defense.clone(),
                stagger_secs: group.stagger_secs,
            });
            first = first.checked_add(group.count).ok_or_else(|| {
                format!(
                    "station group {group_index}: count {} takes the population past {} stations",
                    group.count,
                    usize::MAX
                )
            })?;
        }
        let total = first;
        // Churn first (splice times are relative to the arrival they follow,
        // and departure checks need the final arrival).
        let mut churn: BTreeMap<usize, ChurnOverride> = BTreeMap::new();
        let mut splices: Vec<(f64, Option<usize>, DefenseSpec)> = Vec::new();
        for (index, event) in self.events.iter().enumerate() {
            if !event.at_secs.is_finite() {
                return Err(format!("{}: at_secs must be finite", event.describe(index)));
            }
            match &event.kind {
                EventKind::Arrive | EventKind::Depart => {
                    let station = event.station.ok_or_else(|| {
                        format!(
                            "{}: arrive/depart events need a `station` index",
                            event.describe(index)
                        )
                    })?;
                    if station >= total {
                        return Err(format!(
                            "{}: station {station} out of range (0..{total})",
                            event.describe(index)
                        ));
                    }
                    let entry = churn.entry(station).or_default();
                    match event.kind {
                        EventKind::Arrive => entry.arrival = Some(event.at_secs),
                        EventKind::Depart => entry.departure = Some(event.at_secs),
                        _ => unreachable!(),
                    }
                }
                EventKind::Splice(defense) => {
                    if let Some(i) = event.station {
                        if i >= total {
                            return Err(format!(
                                "{}: station {i} out of range (0..{total})",
                                event.describe(index)
                            ));
                        }
                    }
                    splices.push((event.at_secs, event.station, defense.clone()));
                }
            }
        }
        let mut moved: Vec<(f64, usize)> = churn
            .iter()
            .filter_map(|(&station, over)| over.arrival.map(|at| (at, station)))
            .collect();
        moved.sort_by(|&a, &b| canonical(a, b));
        let population = Population {
            groups,
            churn,
            moved,
            splices,
            total,
        };
        // Schedule-coherence pass, now that every arrival is final. Global
        // splices keep the historical clamp-to-arrival semantics; targeted
        // ones must land inside the target's active interval.
        for (index, event) in self.events.iter().enumerate() {
            match &event.kind {
                EventKind::Depart => {
                    let station = event.station.expect("validated above");
                    let arrival = population.arrival_of(station);
                    if event.at_secs <= arrival {
                        return Err(format!(
                            "{}: station {station} departs at {} s but arrives at {} s \
                             — its session would be empty",
                            event.describe(index),
                            event.at_secs,
                            arrival
                        ));
                    }
                }
                EventKind::Splice(defense) => match event.station {
                    Some(i) => {
                        defense
                            .validate(population.group_of(i).interfaces)
                            .map_err(|e| {
                                format!("{}: splice on station {i}: {e}", event.describe(index))
                            })?;
                        let (arrival, end) = population.interval_of(i);
                        if event.at_secs < arrival || event.at_secs > end {
                            return Err(format!(
                                "{}: splice at {} s lands outside station {i}'s active \
                                 interval [{arrival} s, {end} s]",
                                event.describe(index),
                                event.at_secs
                            ));
                        }
                    }
                    None => {
                        for (gi, group) in population.groups.iter().enumerate() {
                            defense.validate(group.interfaces).map_err(|e| {
                                format!(
                                    "{}: splice on station group {gi} ({}): {e}",
                                    event.describe(index),
                                    group.app
                                )
                            })?;
                        }
                    }
                },
                EventKind::Arrive => {}
            }
        }
        Ok(CompiledScenario {
            name: self.name.clone(),
            window: SimDuration::from_secs_f64(self.window_secs),
            calib_secs: self.calib_secs,
            adversary: self.adversary.clone(),
            executor: self.executor,
            max_station_reports: self.max_station_reports,
            population,
        })
    }
}

/// Accepts a duration key only when it is a positive, finite number of
/// seconds (`x <= 0.0` alone lets NaN through).
fn positive_secs(key: &str, secs: f64) -> Result<(), String> {
    if secs.is_finite() && secs > 0.0 {
        Ok(())
    } else {
        Err(format!(
            "{key} must be a positive, finite number of seconds, got {secs}"
        ))
    }
}

/// Accepts a scenario name only when it is one plain path component: the
/// name keys the report file `<name>.json` under the output directory, so a
/// separator or `..` would write outside it, and an absolute path would
/// replace the directory.
fn report_file_name(name: &str) -> Result<(), String> {
    if name == "." || name == ".." || name.contains(['/', '\\', '\0']) {
        return Err(format!(
            "name `{}` must be a plain file name: no `/`, `\\` or NUL, and not `.` or `..`",
            name.escape_debug()
        ));
    }
    Ok(())
}

/// Accepts a window length only when [`positive_secs`] does and it fits
/// [`SimDuration`], which counts whole microseconds in a u64.
fn window_secs(key: &str, secs: f64) -> Result<(), String> {
    positive_secs(key, secs)?;
    if !(0.5..u64::MAX as f64).contains(&(secs * 1e6)) {
        return Err(format!(
            "{key} {secs} is outside the simulator's time range (1 µs to {:.3e} s)",
            u64::MAX as f64 / 1e6
        ));
    }
    Ok(())
}

/// Validates the `[adversary.train]` overlay: training on an empty corpus
/// panics, and an infinite session never finishes generating.
fn validate_train(train: &ExperimentConfig) -> Result<(), String> {
    let key = |name: &str| format!("adversary.train.{name}");
    positive_secs(&key("train_session_secs"), train.train_session_secs)?;
    positive_secs(&key("eval_session_secs"), train.eval_session_secs)?;
    window_secs(&key("window_secs"), train.window_secs)?;
    for (name, sessions) in [
        ("train_sessions", train.train_sessions),
        ("eval_sessions", train.eval_sessions),
    ] {
        if sessions == 0 {
            return Err(format!("{} must be at least 1, got 0", key(name)));
        }
    }
    Ok(())
}

/// Derives a station group's base seed from the scenario seed (the same
/// golden-ratio mixing the corpus generators use), leaving room for
/// consecutive member seeds.
fn derive_group_seed(scenario_seed: u64, group_index: usize) -> u64 {
    scenario_seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(((group_index as u64) + 1) << 16)
}

/// The feature mode scenarios evaluate with (the paper's full feature set).
pub const SCENARIO_FEATURE_MODE: FeatureMode = FeatureMode::Full;

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "demo".to_string(),
            seed: 7,
            window_secs: 5.0,
            calib_secs: 30.0,
            interfaces: 3,
            stations: vec![
                StationGroupSpec {
                    app: AppKind::BitTorrent,
                    count: 2,
                    seed: Some(100),
                    secs: 40.0,
                    interfaces: None,
                    defense: DefenseSpec::parse("or").unwrap(),
                    stagger_secs: 0.0,
                },
                StationGroupSpec {
                    app: AppKind::Video,
                    count: 1,
                    seed: None,
                    secs: 40.0,
                    interfaces: Some(5),
                    defense: DefenseSpec::none(),
                    stagger_secs: 0.0,
                },
            ],
            adversary: AdversarySpec::default(),
            events: Vec::new(),
            executor: Executor::virtual_time(),
            max_station_reports: usize::MAX,
        }
    }

    #[test]
    fn build_expands_groups_with_consecutive_seeds() {
        let scenario = demo_spec().build().expect("valid spec");
        assert_eq!(scenario.station_count(), 3);
        assert_eq!(scenario.station(0).traffic.seed, 100);
        assert_eq!(scenario.station(1).traffic.seed, 101);
        assert_eq!(scenario.station(0).interfaces, 3);
        assert_eq!(scenario.station(2).interfaces, 5);
        assert_eq!(
            scenario.station(2).traffic.seed,
            derive_group_seed(7, 1),
            "unpinned groups derive their seed from the scenario seed"
        );
        assert_eq!(scenario.station_count(), 3);
    }

    #[test]
    fn staggered_groups_spread_arrivals_without_events() {
        let mut spec = demo_spec();
        spec.stations[0].stagger_secs = 7.5;
        let scenario = spec.build().expect("valid spec");
        assert_eq!(scenario.station(0).arrival_secs, 0.0);
        assert_eq!(scenario.station(1).arrival_secs, 7.5);
        assert_eq!(
            scenario.station(2).arrival_secs,
            0.0,
            "stagger is per-group"
        );
        // An explicit arrive event overrides the stagger.
        spec.events = vec![EventSpec {
            at_secs: 3.0,
            station: Some(1),
            kind: EventKind::Arrive,
            line: None,
        }];
        let scenario = spec.build().expect("valid spec");
        assert_eq!(scenario.station(1).arrival_secs, 3.0);
    }

    #[test]
    fn events_compile_into_churn_and_splice_schedules() {
        let mut spec = demo_spec();
        spec.events = vec![
            EventSpec {
                at_secs: 10.0,
                station: Some(1),
                kind: EventKind::Arrive,
                line: None,
            },
            EventSpec {
                at_secs: 30.0,
                station: Some(1),
                kind: EventKind::Depart,
                line: None,
            },
            EventSpec {
                at_secs: 20.0,
                station: None,
                kind: EventKind::Splice(DefenseSpec::parse("padding").unwrap()),
                line: None,
            },
        ];
        let scenario = spec.build().expect("valid spec");
        let churned = scenario.station(1);
        assert_eq!(churned.arrival_secs, 10.0);
        assert_eq!(churned.departure_secs, Some(30.0));
        // 40 s of traffic clipped to the 20 s the station is on air.
        assert_eq!(churned.session_secs(), 20.0);
        // The global splice lands session-relative: 20 - 10 = 10 s in.
        assert_eq!(churned.splices.len(), 1);
        assert_eq!(churned.splices[0].0, 10.0);
        // Un-churned stations see it at wall-clock = session time.
        assert_eq!(scenario.station(0).splices[0].0, 20.0);
    }

    #[test]
    fn incoherent_event_schedules_are_rejected_with_their_entry() {
        // Departing before arriving used to clip silently to an empty
        // session; now it is a build error naming the offending entry.
        let mut spec = demo_spec();
        spec.events = vec![
            EventSpec {
                at_secs: 50.0,
                station: Some(1),
                kind: EventKind::Arrive,
                line: Some(12),
            },
            EventSpec {
                at_secs: 20.0,
                station: Some(1),
                kind: EventKind::Depart,
                line: Some(17),
            },
        ];
        let err = spec.build().expect_err("depart before arrive");
        assert!(
            err.contains("[[events]] entry #2 (line 17)") && err.contains("departs"),
            "unexpected error: {err}"
        );

        // A targeted splice after the station's departure is equally dead.
        spec.events = vec![
            EventSpec {
                at_secs: 10.0,
                station: Some(0),
                kind: EventKind::Depart,
                line: None,
            },
            EventSpec {
                at_secs: 25.0,
                station: Some(0),
                kind: EventKind::Splice(DefenseSpec::parse("padding").unwrap()),
                line: Some(31),
            },
        ];
        let err = spec.build().expect_err("splice outside the interval");
        assert!(
            err.contains("(line 31)") && err.contains("active interval"),
            "unexpected error: {err}"
        );

        // Global splices keep the historical clamp semantics (the committed
        // scenarios rely on a global splice landing mid-churn).
        spec.events = vec![
            EventSpec {
                at_secs: 10.0,
                station: Some(0),
                kind: EventKind::Depart,
                line: None,
            },
            EventSpec {
                at_secs: 25.0,
                station: None,
                kind: EventKind::Splice(DefenseSpec::parse("padding").unwrap()),
                line: None,
            },
        ];
        assert!(spec.build().is_ok());
    }

    #[test]
    fn invalid_specs_are_rejected_at_build_time() {
        let mut no_stations = demo_spec();
        no_stations.stations.clear();
        assert!(no_stations.build().is_err());

        let mut bad_interfaces = demo_spec();
        bad_interfaces.stations[0].interfaces = Some(0);
        assert!(bad_interfaces.build().unwrap_err().contains('0'));

        let mut bad_event = demo_spec();
        bad_event.events = vec![EventSpec {
            at_secs: 1.0,
            station: Some(9),
            kind: EventKind::Depart,
            line: None,
        }];
        assert!(bad_event.build().is_err());

        let mut bad_stagger = demo_spec();
        bad_stagger.stations[0].stagger_secs = -1.0;
        assert!(bad_stagger.build().unwrap_err().contains("stagger"));
    }

    #[test]
    fn bad_durations_are_rejected_naming_their_key() {
        // `x <= 0.0` is false for NaN, so every duration key needs an
        // explicit finiteness check.
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut spec = demo_spec();
            spec.calib_secs = bad;
            assert!(spec.build().unwrap_err().contains("calib_secs"), "{bad}");
            let mut spec = demo_spec();
            spec.window_secs = bad;
            assert!(spec.build().unwrap_err().contains("window_secs"), "{bad}");
            let mut spec = demo_spec();
            spec.stations[1].secs = bad;
            let err = spec.build().unwrap_err();
            assert!(err.contains("station group 1: secs"), "{bad}: {err}");
        }
        // Beyond SimDuration's u64 microseconds, or below one microsecond.
        for bad in [1e300, 1.9e13, 1e-9] {
            let mut spec = demo_spec();
            spec.window_secs = bad;
            assert!(spec.build().unwrap_err().contains("window_secs"), "{bad}");
        }
        // The same keys through the TOML front end `--check` uses
        // (`1e400` parses to infinity).
        for (doc, key) in [
            ("calib_secs = 0.0\n[[stations]]\napp = \"bt\"", "calib_secs"),
            (
                "calib_secs = -5.0\n[[stations]]\napp = \"bt\"",
                "calib_secs",
            ),
            (
                "window_secs = 1e400\n[[stations]]\napp = \"bt\"",
                "window_secs",
            ),
            (
                "window_secs = 1e300\n[[stations]]\napp = \"bt\"",
                "window_secs",
            ),
            ("[[stations]]\napp = \"bt\"\nsecs = 1e400", "secs"),
        ] {
            let value = crate::scenario::toml::parse(doc)
                .expect("well-formed TOML")
                .value;
            let spec = ScenarioSpec::from_value(&value).expect("parses");
            assert!(spec.build().unwrap_err().contains(key), "{doc}");
        }
    }

    #[test]
    fn names_that_leave_the_report_directory_are_rejected() {
        for bad in ["../x", "/tmp/x", "a/b", "a\\b", "a\0b", ".", ".."] {
            let mut spec = demo_spec();
            spec.name = bad.to_string();
            let err = spec.build().unwrap_err();
            assert!(err.starts_with("name `"), "{bad:?}: {err}");
        }
        for fine in ["demo", "a.b", "..x", "x.."] {
            let mut spec = demo_spec();
            spec.name = fine.to_string();
            assert!(spec.build().is_ok(), "{fine:?}");
        }
        // The same through the TOML front end `--check` uses.
        for name in ["../x", "/tmp/x", "..", "a\\\\b"] {
            let doc = format!("name = \"{name}\"\n[[stations]]\napp = \"bt\"");
            let value = crate::scenario::toml::parse(&doc)
                .expect("well-formed TOML")
                .value;
            let spec = ScenarioSpec::from_value(&value).expect("parses");
            assert!(spec.build().unwrap_err().contains("name `"), "{doc}");
        }
    }

    /// Asserts that a spec whose `[adversary.train]` table holds `train`
    /// parses, as `--check` did before the overlay was validated, but fails
    /// to build with an error naming `adversary.train.<key>`.
    fn assert_train_rejected(train: &str, key: &str) {
        let doc = format!("[[stations]]\napp = \"bt\"\n[adversary.train]\n{train}");
        let value = crate::scenario::toml::parse(&doc)
            .expect("well-formed TOML")
            .value;
        let spec = ScenarioSpec::from_value(&value).expect("parses");
        let err = spec.build().unwrap_err();
        assert!(
            err.contains(&format!("adversary.train.{key}")),
            "{train}: {err}"
        );
    }

    #[test]
    fn negative_train_session_secs_is_rejected() {
        // Trains on an empty dataset, which panics.
        assert_train_rejected("train_session_secs = -1.0", "train_session_secs");
    }

    #[test]
    fn zero_train_sessions_is_rejected() {
        assert_train_rejected("train_sessions = 0", "train_sessions");
    }

    #[test]
    fn infinite_train_session_secs_is_rejected() {
        // `1e400` parses to infinity: generation would never end.
        assert_train_rejected("train_session_secs = 1e400", "train_session_secs");
    }

    #[test]
    fn negative_train_window_secs_is_rejected() {
        assert_train_rejected("window_secs = -5.0", "window_secs");
    }

    #[test]
    fn infinite_train_window_secs_is_rejected() {
        // Beyond `SimDuration`'s range, finite or not.
        assert_train_rejected("window_secs = 1e400", "window_secs");
        assert_train_rejected("window_secs = 1e300", "window_secs");
    }

    #[test]
    fn empty_eval_corpus_is_rejected() {
        assert_train_rejected("eval_sessions = 0", "eval_sessions");
        assert_train_rejected("eval_session_secs = 0.0", "eval_session_secs");
    }

    #[test]
    fn typoed_spec_keys_are_rejected_not_defaulted() {
        // The `--check` CI gate must catch misspelled keys instead of
        // silently running with defaults.
        let cases = [
            "windows_secs = 2.0\n[[stations]]\napp = \"bt\"",
            "[[stations]]\napp = \"bt\"\nsecss = 9.0",
            "[[stations]]\napp = \"bt\"\n[adversary]\nmod = \"online\"",
            "[[stations]]\napp = \"bt\"\n[adversary.train]\ntrain_sesions = 2",
            "[[stations]]\napp = \"bt\"\n[[events]]\nat_secs = 1.0\nkind = \"splice\"\nstations = 0\ndefense = \"padding\"",
            "[[stations]]\napp = \"bt\"\n[[stations.defense]]\nstage = \"padding\"\nsizes = 400",
            // `defense` on churn events is meaningless, not ignored.
            "[[stations]]\napp = \"bt\"\n[[events]]\nat_secs = 1.0\nkind = \"depart\"\nstation = 0\ndefense = \"padding\"",
            // The executor has no horizon to cap, and no tag but
            // `virtual_time` and its alias `pooled`.
            "max_slice_secs = 1.0\n[[stations]]\napp = \"bt\"",
            "executor = \"threads\"\n[[stations]]\napp = \"bt\"",
        ];
        for doc in cases {
            let value = crate::scenario::toml::parse(doc)
                .expect("well-formed TOML")
                .value;
            assert!(
                ScenarioSpec::from_value(&value).is_err(),
                "should reject: {doc}"
            );
        }
        // The un-typoed sibling parses fine.
        let good = crate::scenario::toml::parse(
            "window_secs = 2.0\n[[stations]]\napp = \"bt\"\nsecs = 9.0",
        )
        .expect("well-formed TOML")
        .value;
        let spec = ScenarioSpec::from_value(&good).expect("valid spec");
        assert_eq!(spec.window_secs, 2.0);
        assert_eq!(spec.stations[0].secs, 9.0);
    }

    #[test]
    fn every_executor_tag_builds_the_virtual_time_core() {
        for doc in [
            "executor = \"pooled\"\n[[stations]]\napp = \"bt\"",
            "executor = \"virtual_time\"\n[[stations]]\napp = \"bt\"",
            "[[stations]]\napp = \"bt\"",
        ] {
            let value = crate::scenario::toml::parse(doc)
                .expect("well-formed TOML")
                .value;
            let spec = ScenarioSpec::from_value(&value).expect("valid spec");
            let scenario = spec.build().expect("builds");
            assert_eq!(scenario.executor, Executor::virtual_time(), "{doc}");
        }
    }

    #[test]
    fn a_population_past_usize_max_is_an_error_naming_its_group() {
        let doc = format!(
            "[[stations]]\napp = \"bt\"\ncount = {max}\n[[stations]]\napp = \"video\"\ncount = {max}",
            max = usize::MAX
        );
        let value = crate::scenario::toml::parse(&doc)
            .expect("well-formed TOML")
            .value;
        let spec = ScenarioSpec::from_value(&value).expect("parses");
        let err = spec.build().unwrap_err();
        assert!(err.starts_with("station group 1: count"), "{err}");
    }

    /// Asserts that a one-station `bt` spec with the `[[stations.defense]]`
    /// entry `stage` parses but fails to build with an error naming `key`:
    /// these values used to pass `--check` and then panic at admission.
    fn assert_stage_rejected(stage: &str, key: &str) {
        let doc = format!("[[stations]]\napp = \"bt\"\n[[stations.defense]]\n{stage}");
        let value = crate::scenario::toml::parse(&doc)
            .expect("well-formed TOML")
            .value;
        let spec = ScenarioSpec::from_value(&value).expect("parses");
        let err = spec.build().unwrap_err();
        assert!(err.contains(key), "{stage}: {err}");
    }

    #[test]
    fn zero_padding_size_is_rejected() {
        assert_stage_rejected("stage = \"padding\"\nsize = 0", "size");
    }

    #[test]
    fn zero_pseudonym_period_is_rejected() {
        assert_stage_rejected("stage = \"pseudonym\"\nperiod_secs = 0.0", "period_secs");
    }

    #[test]
    fn negative_pseudonym_period_is_rejected() {
        assert_stage_rejected("stage = \"pseudonym\"\nperiod_secs = -1.0", "period_secs");
    }

    #[test]
    fn zero_hopping_dwell_is_rejected() {
        assert_stage_rejected("stage = \"frequency_hopping\"\ndwell_ms = 0", "dwell_ms");
    }

    #[test]
    fn invalid_splice_stages_are_rejected() {
        // Splices validate their stages like station groups do.
        let mut spec = demo_spec();
        spec.events = vec![EventSpec {
            at_secs: 10.0,
            station: None,
            kind: EventKind::Splice(DefenseSpec {
                stages: vec![StageSpec::Defense(DefenseStageSpec::Padding {
                    size: Some(0),
                })],
            }),
            line: Some(4),
        }];
        let err = spec.build().unwrap_err();
        assert!(err.contains("(line 4)") && err.contains("size"), "{err}");
    }

    #[test]
    fn shorthand_grammar_reads_every_named_defense() {
        let reshape = |algorithm| StageSpec::Reshape {
            algorithm,
            interfaces: None,
        };
        let fh = StageSpec::Defense(DefenseStageSpec::FrequencyHopping { dwell_ms: None });
        let pseudonym = StageSpec::Defense(DefenseStageSpec::Pseudonym { period_secs: None });
        let padding = StageSpec::Defense(DefenseStageSpec::Padding { size: None });
        let morphing = StageSpec::Defense(DefenseStageSpec::Morphing { target: None });
        let ra = reshape(AlgorithmSpec::Random);
        let rr = reshape(AlgorithmSpec::RoundRobin);
        let or = reshape(AlgorithmSpec::Orthogonal);
        let or_mod = reshape(AlgorithmSpec::OrthogonalModulo);
        // Every string the retired enum shorthand accepted, with the stage
        // list it expanded to.
        let named: [(&str, Vec<StageSpec>); 23] = [
            ("none", vec![]),
            ("original", vec![]),
            ("fh", vec![fh]),
            ("frequency_hopping", vec![fh]),
            ("ra", vec![ra]),
            ("random", vec![ra]),
            ("rr", vec![rr]),
            ("round_robin", vec![rr]),
            ("or", vec![or]),
            ("orthogonal", vec![or]),
            ("or_mod", vec![or_mod]),
            ("or-mod", vec![or_mod]),
            ("orthogonal_modulo", vec![or_mod]),
            ("pseudonym", vec![pseudonym]),
            ("padding", vec![padding]),
            ("morphing", vec![morphing]),
            ("morph_or", vec![morphing, or]),
            ("morph+or", vec![morphing, or]),
            ("morph_then_reshape", vec![morphing, or]),
            // Case and surrounding whitespace are ignored.
            (" OR ", vec![or]),
            ("Original", vec![]),
            ("\tMorph_Or\n", vec![morphing, or]),
            ("PADDING", vec![padding]),
        ];
        for (shorthand, stages) in named {
            let spec = DefenseSpec::from_value(&Value::Str(shorthand.to_string()))
                .unwrap_or_else(|e| panic!("{shorthand:?}: {e}"));
            assert_eq!(spec.stages, stages, "{shorthand:?}");
            // The table form reads back the same list.
            assert_eq!(DefenseSpec::from_value(&spec.to_value()).unwrap(), spec);
        }

        for bad in ["bogus", "or+", "+", "none+or", ""] {
            assert!(
                DefenseSpec::from_value(&Value::Str(bad.to_string())).is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn defense_spec_round_trips_every_kind() {
        let reshape = |algorithm| StageSpec::Reshape {
            algorithm,
            interfaces: None,
        };
        let fh = StageSpec::Defense(DefenseStageSpec::FrequencyHopping { dwell_ms: None });
        let pseudonym = StageSpec::Defense(DefenseStageSpec::Pseudonym { period_secs: None });
        let padding = StageSpec::Defense(DefenseStageSpec::Padding { size: None });
        let morphing = StageSpec::Defense(DefenseStageSpec::Morphing { target: None });
        let ra = reshape(AlgorithmSpec::Random);
        let rr = reshape(AlgorithmSpec::RoundRobin);
        let or = reshape(AlgorithmSpec::Orthogonal);
        let or_mod = reshape(AlgorithmSpec::OrthogonalModulo);
        // `label()` prints the shorthand: every parameter-free named
        // defense, and compositions in either order, read back unchanged,
        // from the label and from the table form alike.
        for stages in [
            vec![],
            vec![fh],
            vec![ra],
            vec![rr],
            vec![or],
            vec![or_mod],
            vec![pseudonym],
            vec![padding],
            vec![morphing],
            vec![morphing, or],
            vec![padding, or],
            vec![or, padding],
        ] {
            let spec = DefenseSpec { stages };
            let label = spec.label();
            assert_eq!(
                DefenseSpec::from_value(&Value::Str(label.clone())).unwrap(),
                spec,
                "{label}"
            );
            assert_eq!(
                DefenseSpec::from_value(&spec.to_value()).unwrap(),
                spec,
                "{label}"
            );
        }
        assert_eq!(DefenseSpec::none().label(), "none");
        assert_eq!(
            DefenseSpec::parse("morph_or").unwrap().label(),
            "morphing+or"
        );
    }

    proptest::proptest! {
        #[test]
        fn arrivals_are_every_station_sorted_by_arrival_then_index(seed in 0u64..u64::MAX) {
            // One to four groups with staggers of 0 (every member at once),
            // 0.5 s or 1.3 s. Arrive events land either on the half-second
            // grid, where they tie with other stations' stagger slots, or
            // off it, before or after the station's own slot; some stations
            // also depart.
            let mut rng = proptest::TestRng::new(seed);
            let mut spec = demo_spec();
            let template = spec.stations[0].clone();
            spec.stations = (0..1 + rng.below(4))
                .map(|_| StationGroupSpec {
                    count: 1 + rng.below(12) as usize,
                    stagger_secs: [0.0, 0.5, 1.3][rng.below(3) as usize],
                    ..template.clone()
                })
                .collect();
            let total: usize = spec.stations.iter().map(|g| g.count).sum();
            spec.events = (0..rng.below(8))
                .map(|_| {
                    let slot = rng.below(65) as f64 - 5.0;
                    EventSpec {
                        at_secs: if rng.below(2) == 0 { slot * 0.5 } else { slot * 0.37 },
                        station: Some(rng.below(total as u64) as usize),
                        kind: EventKind::Arrive,
                        line: None,
                    }
                })
                .collect();
            let population = spec.build().expect("arrivals alone always build").population;
            for _ in 0..rng.below(4) {
                let station = rng.below(total as u64) as usize;
                spec.events.push(EventSpec {
                    at_secs: population.arrival_of(station) + 0.5 + rng.below(40) as f64,
                    station: Some(station),
                    kind: EventKind::Depart,
                    line: None,
                });
            }
            let population = spec.build().expect("departures after arrival build").population;
            let mut expected: Vec<(f64, usize)> =
                (0..total).map(|i| (population.arrival_of(i), i)).collect();
            expected.sort_by(|&a, &b| canonical(a, b));
            let arrivals: Vec<(f64, usize)> = population.arrivals().collect();
            proptest::prop_assert_eq!(arrivals.len(), total);
            for (got, want) in arrivals.iter().zip(&expected) {
                proptest::prop_assert_eq!(got.0.to_bits(), want.0.to_bits());
                proptest::prop_assert_eq!(got.1, want.1);
            }
        }
    }
}
