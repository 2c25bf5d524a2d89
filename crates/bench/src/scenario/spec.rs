//! The declarative scenario schema, its reader and its compiler.
//!
//! A [`ScenarioSpec`] is the paper's whole evaluation grid as data: a station
//! population (each station a [`TrafficSpec`] plus a [`DefenseSpec`] stage
//! list), an [`AdversarySpec`] (batch or online/prequential), and an optional
//! [`EventSpec`] schedule for mid-session defense splices and station
//! arrival/departure churn. The schema is read here alone, each type from
//! its own table through the field reader of [`toml`](super::toml); loaded
//! elements keep their key [`Lines`]. [`ScenarioSpec::build`] checks every
//! value, citing its key, and compiles the spec into the existing streaming
//! machinery — [`TrafficSpec`] → `StreamingSession`, [`DefenseSpec`] →
//! [`StagePipeline`], adversary spec → ensemble/evaluator — so `--check`
//! passes imply a runnable scenario.
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

use super::toml::{Fields, Lines, Value};
use crate::corpus::ExperimentConfig;
use crate::streaming::Executor;
use classifier::window::FeatureMode;
use defenses::spec::{duration_secs, DefenseStageSpec, StageContext};
use defenses::stage::StagePipeline;
use reshape_core::ranges::SizeRanges;
use reshape_core::scheduler::{
    OrthogonalModulo, OrthogonalRanges, RandomAssign, ReshapeAlgorithm, RoundRobin,
};
use reshape_core::stage::ReshapeStage;
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap};
use traffic_gen::app::AppKind;
use traffic_gen::spec::TrafficSpec;
use traffic_gen::MAX_PACKET_SIZE;
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
    /// hand-coded pipelines. Fails on no interfaces, or on more OR ranges
    /// than packet sizes.
    pub fn build(self, interfaces: usize, seed: u64) -> Result<Box<dyn ReshapeAlgorithm>, String> {
        self.validate(interfaces)?;
        Ok(match self {
            AlgorithmSpec::Random => Box::new(RandomAssign::new(interfaces, seed)),
            AlgorithmSpec::RoundRobin => Box::new(RoundRobin::new(interfaces)),
            AlgorithmSpec::Orthogonal => Box::new(OrthogonalRanges::new(
                SizeRanges::for_interface_count(interfaces).map_err(|e| e.to_string())?,
            )),
            AlgorithmSpec::OrthogonalModulo => Box::new(OrthogonalModulo::new(interfaces)),
        })
    }

    /// Checks the virtual-interface count: at least one for every
    /// algorithm, and for OR at most one per packet size.
    fn validate(self, interfaces: usize) -> Result<(), String> {
        at_least_one(interfaces)?;
        if self == AlgorithmSpec::Orthogonal && interfaces > MAX_PACKET_SIZE {
            return Err(format!(
                "or splits {MAX_PACKET_SIZE} packet sizes into at most as many ranges, \
                 got {interfaces}"
            ));
        }
        Ok(())
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

    /// The stage a bare tag names, with default parameters: an algorithm
    /// tag is a reshape stage over the station's interfaces, any other tag
    /// a defense stage.
    fn from_tag(tag: &str) -> Result<Self, String> {
        if let Ok(algorithm) = AlgorithmSpec::parse(tag) {
            return Ok(StageSpec::Reshape {
                algorithm,
                interfaces: None,
            });
        }
        Ok(StageSpec::Defense(match tag {
            "padding" | "pad" => DefenseStageSpec::Padding { size: None },
            "morphing" | "morph" => DefenseStageSpec::Morphing { target: None },
            "pseudonym" => DefenseStageSpec::Pseudonym { period_secs: None },
            "frequency_hopping" | "fh" => DefenseStageSpec::FrequencyHopping { dwell_ms: None },
            other => return Err(format!("unknown defense stage `{other}`")),
        }))
    }

    /// Reads a stage table: `stage = "reshape"` with an `algorithm` (OR by
    /// default) and `interfaces`, or a defense tag with its parameter.
    fn read(f: &mut Fields) -> Result<Self, String> {
        let tag: String = f.required("stage")?;
        let defense = match StageSpec::from_tag(&tag) {
            _ if tag == "reshape" => {
                return Ok(StageSpec::Reshape {
                    algorithm: f
                        .parse("algorithm", AlgorithmSpec::parse)?
                        .unwrap_or(AlgorithmSpec::Orthogonal),
                    interfaces: f.optional("interfaces")?,
                })
            }
            Ok(StageSpec::Defense(defense)) => defense,
            _ => return Err(f.error("stage", format!("unknown defense stage `{tag}`"))),
        };
        Ok(StageSpec::Defense(match defense {
            DefenseStageSpec::Padding { .. } => DefenseStageSpec::Padding {
                size: f.optional("size")?,
            },
            DefenseStageSpec::Morphing { .. } => DefenseStageSpec::Morphing {
                target: f.parse("target", str::parse)?,
            },
            DefenseStageSpec::Pseudonym { .. } => DefenseStageSpec::Pseudonym {
                period_secs: f.optional("period_secs")?,
            },
            DefenseStageSpec::FrequencyHopping { .. } => DefenseStageSpec::FrequencyHopping {
                dwell_ms: f.optional("dwell_ms")?,
            },
        }))
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
            .map(StageSpec::from_tag)
            .collect::<Result<_, _>>()?;
        Ok(DefenseSpec { stages })
    }

    /// Reads the `defense` key of a station group or splice event: the
    /// shorthand, or a stage list of tables and bare tags.
    fn read(f: &mut Fields) -> Result<Option<Self>, String> {
        let Some(value) = f.value("defense") else {
            return Ok(None);
        };
        let at = |e: String| f.error("defense", e);
        let stages = match value {
            Value::Str(s) => DefenseSpec::parse(s).map_err(at)?.stages,
            Value::Array(items) => items
                .iter()
                .map(|item| match item {
                    Value::Str(tag) => StageSpec::from_tag(tag).map_err(at),
                    table => f.nested("defense", table, StageSpec::read),
                })
                .collect::<Result<_, _>>()?,
            other => {
                return Err(at(format!(
                    "expected a defense or a stage list, found {other}"
                )))
            }
        };
        Ok(Some(DefenseSpec { stages }))
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
    /// The lines of the group's keys in its spec file, when loaded from one.
    pub lines: Lines,
}

impl StationGroupSpec {
    /// Reads a `[[stations]]` table.
    fn read(f: &mut Fields) -> Result<Self, String> {
        let app = f.parse("app", str::parse)?;
        Ok(StationGroupSpec {
            app: app.ok_or_else(|| f.error("app", "missing"))?,
            count: f.optional("count")?.unwrap_or(1),
            seed: f.optional("seed")?,
            secs: f.optional("secs")?.unwrap_or(60.0),
            interfaces: f.optional("interfaces")?,
            defense: DefenseSpec::read(f)?.unwrap_or_default(),
            stagger_secs: f.optional("stagger_secs")?.unwrap_or(0.0),
            lines: f.lines(),
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

impl AdversarySpec {
    /// Reads the `[adversary]` table; absent keys keep their defaults.
    fn read(f: &mut Fields) -> Result<Self, String> {
        let mode = f.parse("mode", |mode| match mode {
            "batch" => Ok(AdversaryMode::Batch),
            "online" | "prequential" => Ok(AdversaryMode::Online),
            other => Err(format!("unknown adversary mode `{other}`")),
        })?;
        let default = AdversarySpec::default();
        Ok(AdversarySpec {
            mode: mode.unwrap_or(default.mode),
            train: f.table("train", read_train)?.unwrap_or(default.train),
            snapshot_every: f
                .optional("snapshot_every")?
                .unwrap_or(default.snapshot_every),
        })
    }
}

/// Reads the `[adversary.train]` table, overlaying
/// [`ExperimentConfig::quick`]: spec files only state what they change.
fn read_train(f: &mut Fields) -> Result<ExperimentConfig, String> {
    let mut config = ExperimentConfig::quick();
    macro_rules! overlay {
        ($($key:ident),*) => {$(
            if let Some(value) = f.optional(stringify!($key))? {
                config.$key = value;
            }
        )*};
    }
    overlay!(train_seed, eval_seed, train_sessions, train_session_secs);
    overlay!(eval_sessions, eval_session_secs, window_secs);
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
    /// The lines of the event's keys in its spec file, when loaded from one.
    pub lines: Lines,
}

impl EventSpec {
    /// Reads an `[[events]]` table: a splice needs a `defense`, which
    /// arrive and depart events do not take.
    fn read(f: &mut Fields) -> Result<Self, String> {
        let at_secs = f.required("at_secs")?;
        let station = f.optional("station")?;
        let kind: String = f.required("kind")?;
        let kind = match (kind.as_str(), DefenseSpec::read(f)?) {
            ("splice", Some(defense)) => EventKind::Splice(defense),
            ("splice", None) => return Err(f.error("defense", "missing from a splice event")),
            ("arrive", None) => EventKind::Arrive,
            ("depart", None) => EventKind::Depart,
            ("arrive" | "depart", Some(_)) => {
                return Err(f.error("defense", format!("does not apply to a {kind} event")))
            }
            (other, _) => return Err(f.error("kind", format!("unknown event kind `{other}`"))),
        };
        Ok(EventSpec {
            at_secs,
            station,
            kind,
            lines: f.lines(),
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
    /// The lines of the root table's keys (`[adversary]` and
    /// `[adversary.train]` included), when loaded from a spec file.
    pub lines: Lines,
}

impl ScenarioSpec {
    /// Reads a scenario from the root table of a spec file.
    pub(crate) fn read(f: &mut Fields) -> Result<Self, String> {
        Ok(ScenarioSpec {
            name: f.optional("name")?.unwrap_or_default(),
            seed: f.optional("seed")?.unwrap_or(0),
            window_secs: f.optional("window_secs")?.unwrap_or(5.0),
            calib_secs: f.optional("calib_secs")?.unwrap_or(60.0),
            interfaces: f.optional("interfaces")?.unwrap_or(3),
            stations: f.tables("stations", StationGroupSpec::read)?,
            adversary: f
                .table("adversary", AdversarySpec::read)?
                .unwrap_or_default(),
            events: f.tables("events", EventSpec::read)?,
            executor: f.parse("executor", Executor::parse)?.unwrap_or_default(),
            max_station_reports: f.optional("max_station_reports")?.unwrap_or(usize::MAX),
            lines: f.lines(),
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

    /// The index of the group station `index` belongs to.
    fn group_index(&self, index: usize) -> usize {
        self.groups.partition_point(|g| g.first + g.count <= index)
    }

    fn group_of(&self, index: usize) -> &CompiledGroup {
        &self.groups[self.group_index(index)]
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
    /// Compiles the spec into a [`CompiledScenario`], checking every value
    /// that can fail statically and citing its key (`path:line: key:` for a
    /// loaded spec): a non-empty population, durations that
    /// [`duration_secs`] accepts, counts of at least one, event indices in
    /// range, reshape stages valid for their interface counts, a coherent
    /// event schedule (a station cannot depart before it arrives, and
    /// targeted splices must land inside the target's active interval) and a
    /// name that is one plain file name. The population itself stays
    /// symbolic, so compiling a million-station spec is O(groups + events).
    pub fn build(&self) -> Result<CompiledScenario, String> {
        let at = |key: &str, e: String| self.lines.cite(key, e);
        for (key, check) in [
            ("name", report_file_name(&self.name)),
            ("stations", at_least_one(self.stations.len())),
            ("window_secs", duration_secs(self.window_secs)),
            ("calib_secs", duration_secs(self.calib_secs)),
            (
                "adversary.snapshot_every",
                at_least_one(self.adversary.snapshot_every),
            ),
        ] {
            check.map_err(|e| at(key, e))?;
        }
        let train = &self.adversary.train;
        for (key, check) in [
            ("train_sessions", at_least_one(train.train_sessions)),
            (
                "train_session_secs",
                duration_secs(train.train_session_secs),
            ),
            ("eval_sessions", at_least_one(train.eval_sessions)),
            ("eval_session_secs", duration_secs(train.eval_session_secs)),
            ("window_secs", duration_secs(train.window_secs)),
        ] {
            check.map_err(|e| at(&format!("adversary.train.{key}"), e))?;
        }
        let mut groups = Vec::with_capacity(self.stations.len());
        let mut first = 0usize;
        for (gi, group) in self.stations.iter().enumerate() {
            let at = |key: &str, e: String| group.lines.cite(key, e);
            for (key, check) in [
                ("count", at_least_one(group.count)),
                ("secs", duration_secs(group.secs)),
                ("stagger_secs", stagger_secs(group.stagger_secs)),
            ] {
                check.map_err(|e| at(key, e))?;
            }
            let interfaces = group.interfaces.unwrap_or(self.interfaces);
            self.check_defense(&group.defense, gi, &at)?;
            let base_seed = group
                .seed
                .unwrap_or_else(|| derive_group_seed(self.seed, gi));
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
            let past = || format!("{} takes the population past usize::MAX", group.count);
            first = first
                .checked_add(group.count)
                .ok_or_else(|| at("count", past()))?;
        }
        let total = first;
        // Churn first (splice times are relative to the arrival they follow,
        // and departure checks need the final arrival); the event checks
        // follow.
        let mut churn: BTreeMap<usize, ChurnOverride> = BTreeMap::new();
        let mut splices: Vec<(f64, Option<usize>, DefenseSpec)> = Vec::new();
        for event in &self.events {
            let at_secs = Some(event.at_secs);
            match (&event.kind, event.station) {
                (EventKind::Arrive, Some(i)) => churn.entry(i).or_default().arrival = at_secs,
                (EventKind::Depart, Some(i)) => churn.entry(i).or_default().departure = at_secs,
                (EventKind::Splice(defense), i) => {
                    splices.push((event.at_secs, i, defense.clone()))
                }
                (_, None) => {}
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
        // Every arrival is final now. Global splices keep the historical
        // clamp-to-arrival semantics; targeted ones must land inside the
        // target's active interval.
        for event in &self.events {
            let at = |key: &str, e: String| event.lines.cite(key, e);
            let at_secs = event.at_secs;
            if !at_secs.is_finite() {
                return Err(at("at_secs", format!("must be finite, got {at_secs:?}")));
            }
            match (&event.kind, event.station) {
                (_, Some(i)) if i >= total => {
                    return Err(at("station", format!("{i} is out of range (0..{total})")));
                }
                (EventKind::Arrive | EventKind::Depart, None) => {
                    let missing = "missing: arrive and depart events need one";
                    return Err(at("station", missing.to_string()));
                }
                (EventKind::Depart, Some(i)) => {
                    let arrival = population.arrival_of(i);
                    if at_secs <= arrival {
                        return Err(at(
                            "at_secs",
                            format!(
                                "station {i} departs at {at_secs:?} s but arrives at \
                                 {arrival:?} s — its session would be empty"
                            ),
                        ));
                    }
                }
                (EventKind::Splice(defense), Some(i)) => {
                    self.check_defense(defense, population.group_index(i), &at)?;
                    let (arrival, end) = population.interval_of(i);
                    if at_secs < arrival || at_secs > end {
                        return Err(at(
                            "at_secs",
                            format!(
                                "splice at {at_secs:?} s lands outside station {i}'s active \
                                 interval [{arrival:?} s, {end:?} s]"
                            ),
                        ));
                    }
                }
                (EventKind::Splice(defense), None) => {
                    for gi in 0..self.stations.len() {
                        self.check_defense(defense, gi, &at)?;
                    }
                }
                (EventKind::Arrive, Some(_)) => {}
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

    /// Checks every stage of `defense` on the stations of group `gi` without
    /// constructing it (morphing calibration is expensive). `at` cites a key
    /// of the element the defense belongs to; a reshape stage without its own
    /// `interfaces` is cited at the key its count comes from.
    fn check_defense(
        &self,
        defense: &DefenseSpec,
        gi: usize,
        at: &dyn Fn(&str, String) -> String,
    ) -> Result<(), String> {
        let (count, lines) = match self.stations[gi].interfaces {
            Some(count) => (count, &self.stations[gi].lines),
            None => (self.interfaces, &self.lines),
        };
        for (i, stage) in defense.stages.iter().enumerate() {
            match *stage {
                StageSpec::Defense(d) => d
                    .validate()
                    .map_err(|(key, e)| at(&format!("defense[{i}].{key}"), e))?,
                StageSpec::Reshape {
                    algorithm,
                    interfaces: Some(own),
                } => algorithm
                    .validate(own)
                    .map_err(|e| at(&format!("defense[{i}].interfaces"), e))?,
                StageSpec::Reshape { algorithm, .. } => algorithm
                    .validate(count)
                    .map_err(|e| lines.cite("interfaces", e))?,
            }
        }
        Ok(())
    }
}

/// Accepts a stagger only when it is a non-negative, finite number of
/// seconds.
fn stagger_secs(secs: f64) -> Result<(), String> {
    if secs.is_finite() && secs >= 0.0 {
        return Ok(());
    }
    Err(format!(
        "must be a non-negative, finite number of seconds, got {secs:?}"
    ))
}

/// Accepts a count of at least one.
fn at_least_one<T: Default + PartialEq>(count: T) -> Result<(), String> {
    if count == T::default() {
        return Err("must be at least 1, got 0".to_string());
    }
    Ok(())
}

/// Accepts a scenario name only when it is one plain path component: the
/// name keys the report file `<name>.json` under the output directory, so a
/// separator or `..` would write outside it, and an absolute path would
/// replace the directory.
fn report_file_name(name: &str) -> Result<(), String> {
    if name == "." || name == ".." || name.contains(['/', '\\', '\0']) {
        return Err(format!(
            "`{}` must be a plain file name: no `/`, `\\` or NUL, and not `.` or `..`",
            name.escape_debug()
        ));
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

    /// Reads `text` as the spec file `t.toml`.
    fn load(text: &str) -> Result<ScenarioSpec, String> {
        crate::scenario::parse_spec("t.toml", text)
    }

    /// [`demo_spec`] as a spec file, one key a line: the groups' headers sit
    /// on lines 4 and 10, and events appended to it start on line 14.
    const DEMO: &str = "name = \"demo\"\nseed = 7\ncalib_secs = 30.0\n\
        [[stations]]\napp = \"bt\"\ncount = 2\nseed = 100\nsecs = 40.0\ndefense = \"or\"\n\
        [[stations]]\napp = \"video\"\nsecs = 40.0\ninterfaces = 5\n";

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
                    lines: Lines::default(),
                },
                StationGroupSpec {
                    app: AppKind::Video,
                    count: 1,
                    seed: None,
                    secs: 40.0,
                    interfaces: Some(5),
                    defense: DefenseSpec::none(),
                    stagger_secs: 0.0,
                    lines: Lines::default(),
                },
            ],
            adversary: AdversarySpec::default(),
            events: Vec::new(),
            executor: Executor::virtual_time(),
            max_station_reports: usize::MAX,
            lines: Lines::default(),
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
    fn a_loaded_spec_compiles_like_the_same_spec_built_in_code() {
        // Every key the file leaves out takes the default `demo_spec` spells
        // out.
        let loaded = load(DEMO).expect("valid spec");
        assert_eq!(loaded.build(), demo_spec().build());
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
            lines: Lines::default(),
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
                lines: Lines::default(),
            },
            EventSpec {
                at_secs: 30.0,
                station: Some(1),
                kind: EventKind::Depart,
                lines: Lines::default(),
            },
            EventSpec {
                at_secs: 20.0,
                station: None,
                kind: EventKind::Splice(DefenseSpec::parse("padding").unwrap()),
                lines: Lines::default(),
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
        // session; now it is a build error citing the offending key.
        let churn = "[[events]]\nat_secs = 50.0\nstation = 1\nkind = \"arrive\"\n\
            [[events]]\nat_secs = 20.0\nstation = 1\nkind = \"depart\"\n";
        let spec = load(&format!("{DEMO}{churn}")).expect("valid spec");
        let err = spec.build().expect_err("depart before arrive");
        assert!(
            err.starts_with(
                "t.toml:19: at_secs: station 1 departs at 20.0 s but arrives at 50.0 s"
            ),
            "unexpected error: {err}"
        );
        // Built in code, the error names the key alone.
        let mut spec = demo_spec();
        spec.events = load(&format!("{DEMO}{churn}")).unwrap().events;
        spec.events
            .iter_mut()
            .for_each(|e| e.lines = Lines::default());
        let err = spec.build().expect_err("depart before arrive");
        assert!(err.starts_with("at_secs: station 1"), "{err}");

        // A targeted splice after the station's departure is equally dead.
        let dead = "[[events]]\nat_secs = 10.0\nstation = 0\nkind = \"depart\"\n\
            [[events]]\nat_secs = 25.0\nstation = 0\nkind = \"splice\"\ndefense = \"padding\"\n";
        let err = load(&format!("{DEMO}{dead}")).unwrap().build();
        let err = err.expect_err("splice outside the interval");
        assert!(
            err.starts_with("t.toml:19: at_secs: splice at 25.0 s lands outside station 0's")
                && err.contains("active interval"),
            "unexpected error: {err}"
        );

        // Global splices keep the historical clamp semantics (the committed
        // scenarios rely on a global splice landing mid-churn).
        let mut spec = demo_spec();
        spec.events = vec![
            EventSpec {
                at_secs: 10.0,
                station: Some(0),
                kind: EventKind::Depart,
                lines: Lines::default(),
            },
            EventSpec {
                at_secs: 25.0,
                station: None,
                kind: EventKind::Splice(DefenseSpec::parse("padding").unwrap()),
                lines: Lines::default(),
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
        let err = bad_interfaces.build().unwrap_err();
        assert_eq!(err, "interfaces: must be at least 1, got 0");

        let mut bad_event = demo_spec();
        bad_event.events = vec![EventSpec {
            at_secs: 1.0,
            station: Some(9),
            kind: EventKind::Depart,
            lines: Lines::default(),
        }];
        let err = bad_event.build().unwrap_err();
        assert_eq!(err, "station: 9 is out of range (0..3)");

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
            assert!(
                spec.build().unwrap_err().starts_with("calib_secs: "),
                "{bad}"
            );
            let mut spec = demo_spec();
            spec.window_secs = bad;
            assert!(
                spec.build().unwrap_err().starts_with("window_secs: "),
                "{bad}"
            );
            let mut spec = demo_spec();
            spec.stations[1].secs = bad;
            let err = spec.build().unwrap_err();
            assert!(err.starts_with("secs: "), "{bad}: {err}");
        }
        // Beyond SimDuration's u64 microseconds, or below one microsecond.
        for bad in [1e300, 1.9e13, 1e-9] {
            let mut spec = demo_spec();
            spec.window_secs = bad;
            assert!(spec.build().unwrap_err().contains("window_secs"), "{bad}");
        }
        // The same keys through the TOML front end `--check` uses
        // (`1e400` parses to infinity); values print as they are written.
        for (doc, want) in [
            (
                "calib_secs = 0.0\n[[stations]]\napp = \"bt\"",
                "t.toml:1: calib_secs: must be a positive, finite number of seconds, got 0.0",
            ),
            (
                "calib_secs = -5\n[[stations]]\napp = \"bt\"",
                "t.toml:1: calib_secs: must be a positive, finite number of seconds, got -5.0",
            ),
            (
                "window_secs = 1e400\n[[stations]]\napp = \"bt\"",
                "t.toml:1: window_secs: must be a positive, finite number of seconds, got inf",
            ),
            (
                "window_secs = 1e300\n[[stations]]\napp = \"bt\"",
                "t.toml:1: window_secs: 1e300 s is outside the simulator's time range",
            ),
            (
                "[[stations]]\napp = \"bt\"\nsecs = 1e400",
                "t.toml:3: secs: must be a positive",
            ),
        ] {
            let err = load(doc).expect("parses").build().unwrap_err();
            assert!(err.starts_with(want), "{doc}: {err}");
        }
    }

    #[test]
    fn names_that_leave_the_report_directory_are_rejected() {
        for bad in ["../x", "/tmp/x", "a/b", "a\\b", "a\0b", ".", ".."] {
            let mut spec = demo_spec();
            spec.name = bad.to_string();
            let err = spec.build().unwrap_err();
            assert!(err.starts_with("name: `"), "{bad:?}: {err}");
        }
        for fine in ["demo", "a.b", "..x", "x.."] {
            let mut spec = demo_spec();
            spec.name = fine.to_string();
            assert!(spec.build().is_ok(), "{fine:?}");
        }
        // The same through the TOML front end `--check` uses.
        for name in ["../x", "/tmp/x", "..", "a\\\\b"] {
            let doc = format!("name = \"{name}\"\n[[stations]]\napp = \"bt\"");
            let err = load(&doc).expect("parses").build().unwrap_err();
            assert!(err.starts_with("t.toml:1: name: `"), "{doc}: {err}");
        }
    }

    /// Asserts that a spec whose `[adversary.train]` table holds `train`
    /// parses, as `--check` did before the overlay was validated, but fails
    /// to build with an error citing `key` on line 4.
    fn assert_train_rejected(train: &str, key: &str) {
        let doc = format!("[[stations]]\napp = \"bt\"\n[adversary.train]\n{train}");
        let err = load(&doc).expect("parses").build().unwrap_err();
        assert!(
            err.starts_with(&format!("t.toml:4: {key}: ")),
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
        // Built in code, the error names the whole key path.
        let mut spec = demo_spec();
        spec.adversary.train.window_secs = 0.0;
        let err = spec.build().unwrap_err();
        assert!(err.starts_with("adversary.train.window_secs: "), "{err}");
    }

    #[test]
    fn empty_eval_corpus_is_rejected() {
        assert_train_rejected("eval_sessions = 0", "eval_sessions");
        assert_train_rejected("eval_session_secs = 0.0", "eval_session_secs");
    }

    #[test]
    fn zero_snapshot_every_is_rejected() {
        let doc = "[[stations]]\napp = \"bt\"\n[adversary]\nmode = \"online\"\nsnapshot_every = 0";
        let err = load(doc).expect("parses").build().unwrap_err();
        assert!(
            err.starts_with("t.toml:5: snapshot_every: must be at least 1, got 0"),
            "{err}"
        );
        // Built in code, the error names the whole key path.
        let mut spec = demo_spec();
        spec.adversary.snapshot_every = 0;
        let err = spec.build().unwrap_err();
        assert!(
            err.starts_with("adversary.snapshot_every: must be at least 1, got 0"),
            "{err}"
        );
    }

    #[test]
    fn typoed_spec_keys_are_rejected_not_defaulted() {
        // The `--check` CI gate must catch misspelled keys instead of
        // silently running with defaults, and say where they are.
        let cases = [
            (
                "windows_secs = 2.0\n[[stations]]\napp = \"bt\"",
                "t.toml:1: windows_secs: unknown key",
            ),
            (
                "[[stations]]\napp = \"bt\"\nsecss = 9.0",
                "t.toml:3: secss: unknown key",
            ),
            (
                "[[stations]]\napp = \"bt\"\n[adversary]\nmod = \"online\"",
                "t.toml:4: mod: unknown key",
            ),
            (
                "[[stations]]\napp = \"bt\"\n[adversary.train]\ntrain_sesions = 2",
                "t.toml:4: train_sesions: unknown key",
            ),
            // Training runs on undefended corpora, so an interface count
            // there would be accepted and never read.
            (
                "[[stations]]\napp = \"bt\"\n[adversary.train]\ninterfaces = 3",
                "t.toml:4: interfaces: unknown key",
            ),
            (
                "[[stations]]\napp = \"bt\"\n[[events]]\nat_secs = 1.0\nkind = \"splice\"\nstations = 0\ndefense = \"padding\"",
                "t.toml:6: stations: unknown key",
            ),
            (
                "[[stations]]\napp = \"bt\"\n[[stations.defense]]\nstage = \"padding\"\nsizes = 400",
                "t.toml:5: sizes: unknown key",
            ),
            // `defense` on churn events is meaningless, not ignored.
            (
                "[[stations]]\napp = \"bt\"\n[[events]]\nat_secs = 1.0\nkind = \"depart\"\nstation = 0\ndefense = \"padding\"",
                "t.toml:7: defense: does not apply to a depart event",
            ),
            // The executor has no horizon to cap, and no tag but
            // `virtual_time` and its alias `pooled`.
            (
                "max_slice_secs = 1.0\n[[stations]]\napp = \"bt\"",
                "t.toml:1: max_slice_secs: unknown key",
            ),
            (
                "executor = \"threads\"\n[[stations]]\napp = \"bt\"",
                "t.toml:1: executor: unknown executor `threads`",
            ),
        ];
        for (doc, want) in cases {
            let err = load(doc).expect_err(doc);
            assert!(err.starts_with(want), "{doc}: {err}");
        }
        // The un-typoed sibling parses fine.
        let spec =
            load("window_secs = 2.0\n[[stations]]\napp = \"bt\"\nsecs = 9.0").expect("valid spec");
        assert_eq!(spec.window_secs, 2.0);
        assert_eq!(spec.stations[0].secs, 9.0);
    }

    #[test]
    fn values_of_the_wrong_type_are_errors_citing_their_key() {
        for (doc, want) in [
            (
                "seed = 1.5",
                "t.toml:1: seed: expected an integer, found 1.5",
            ),
            (
                "seed = \"7\"",
                "t.toml:1: seed: expected an integer, found \"7\"",
            ),
            (
                "seed = 18446744073709551616",
                "t.toml:1: seed: expected an integer from 0 to 18446744073709551615, \
                 found 18446744073709551616",
            ),
            (
                "[[stations]]\napp = \"bt\"\ncount = -3",
                "t.toml:3: count: expected an integer from 0 to",
            ),
            ("[[stations]]\ncount = 1", "t.toml:1: app: missing"),
            (
                "[[stations]]\napp = 3",
                "t.toml:2: app: expected a string, found 3",
            ),
            (
                "[[stations]]\napp = \"telnet\"",
                "t.toml:2: app: unknown application name: \"telnet\"",
            ),
            (
                "[adversary]\nmode = 3",
                "t.toml:2: mode: expected a string, found 3",
            ),
            (
                "adversary = 3",
                "t.toml:1: adversary: expected a table, found 3",
            ),
            (
                "stations = \"bt\"",
                "t.toml:1: stations: expected tables, found \"bt\"",
            ),
            (
                "[[stations]]\napp = \"bt\"\ndefense = 3",
                "t.toml:3: defense: expected a defense or a stage list, found 3",
            ),
            (
                "[[stations]]\napp = \"bt\"\ndefense = \"bogus\"",
                "t.toml:3: defense: unknown defense stage `bogus`",
            ),
            (
                "[[events]]\nat_secs = 1.0\nkind = \"splice\"",
                "t.toml:1: defense: missing from a splice event",
            ),
        ] {
            let err = load(doc).expect_err(doc);
            assert!(err.starts_with(want), "{doc}: {err}");
        }
    }

    #[test]
    fn every_executor_tag_builds_the_virtual_time_core() {
        for doc in [
            "executor = \"pooled\"\n[[stations]]\napp = \"bt\"",
            "executor = \"virtual_time\"\n[[stations]]\napp = \"bt\"",
            "[[stations]]\napp = \"bt\"",
        ] {
            let spec = load(doc).expect("valid spec");
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
        let err = load(&doc).expect("parses").build().unwrap_err();
        assert!(
            err.starts_with(
                "t.toml:6: count: 18446744073709551615 takes the population past usize::MAX"
            ),
            "{err}"
        );
    }

    /// Asserts that a one-station `bt` spec with the `[[stations.defense]]`
    /// entry `stage` parses but fails to build with an error citing `key` on
    /// line 5: these values used to pass `--check` and then panic at
    /// admission.
    fn assert_stage_rejected(stage: &str, key: &str) {
        let doc = format!("[[stations]]\napp = \"bt\"\n[[stations.defense]]\n{stage}");
        let err = load(&doc).expect("parses").build().unwrap_err();
        assert!(
            err.starts_with(&format!("t.toml:5: {key}: ")),
            "{stage}: {err}"
        );
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
    fn an_interface_count_of_zero_is_one_error_for_every_algorithm() {
        for algorithm in ["or", "rr"] {
            // The stage's own count, the group's and the scenario's.
            for (doc, line) in [
                (
                    format!(
                        "[[stations]]\napp = \"bt\"\n[[stations.defense]]\nstage = \"reshape\"\n\
                         algorithm = \"{algorithm}\"\ninterfaces = 0"
                    ),
                    6,
                ),
                (
                    format!(
                        "[[stations]]\napp = \"bt\"\ninterfaces = 0\ndefense = \"{algorithm}\""
                    ),
                    3,
                ),
                (
                    format!(
                        "interfaces = 0\n[[stations]]\napp = \"bt\"\ndefense = \"{algorithm}\""
                    ),
                    1,
                ),
            ] {
                let err = load(&doc).expect("parses").build().unwrap_err();
                assert_eq!(
                    err,
                    format!("t.toml:{line}: interfaces: must be at least 1, got 0")
                );
            }
        }
        // OR needs a packet size per range; round-robin does not.
        let doc = |algorithm| {
            format!("[[stations]]\napp = \"bt\"\ninterfaces = 2000\ndefense = \"{algorithm}\"")
        };
        assert!(load(&doc("rr")).unwrap().build().is_ok());
        let err = load(&doc("or")).unwrap().build().unwrap_err();
        assert!(
            err.starts_with("t.toml:3: interfaces: or splits 1576"),
            "{err}"
        );
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
            lines: Lines::default(),
        }];
        let err = spec.build().unwrap_err();
        assert_eq!(err, "defense[0].size: must be at least 1 byte, got 0");
        let splice = "[[events]]\nat_secs = 10.0\nkind = \"splice\"\n\
            [[events.defense]]\nstage = \"padding\"\nsize = 0\n";
        let err = load(&format!("{DEMO}{splice}"))
            .unwrap()
            .build()
            .unwrap_err();
        assert_eq!(err, "t.toml:19: size: must be at least 1 byte, got 0");
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
            let spec =
                DefenseSpec::parse(shorthand).unwrap_or_else(|e| panic!("{shorthand:?}: {e}"));
            assert_eq!(spec.stages, stages, "{shorthand:?}");
            // The table form reads back the same list.
            assert_eq!(
                load(&stage_tables(&spec)).unwrap().stations[0].defense,
                spec
            );
        }

        for bad in ["bogus", "or+", "+", "none+or", ""] {
            assert!(DefenseSpec::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    /// A one-group spec whose defense is `defense` as a
    /// `[[stations.defense]]` stage list.
    fn stage_tables(defense: &DefenseSpec) -> String {
        let mut doc = "[[stations]]\napp = \"bt\"\n".to_string();
        for stage in &defense.stages {
            doc += &match stage {
                StageSpec::Reshape { algorithm, .. } => format!(
                    "[[stations.defense]]\nstage = \"reshape\"\nalgorithm = \"{}\"\n",
                    algorithm.name()
                ),
                StageSpec::Defense(d) => {
                    format!("[[stations.defense]]\nstage = \"{}\"\n", d.name())
                }
            };
        }
        doc
    }

    #[test]
    fn stage_lists_read_every_parameter() {
        let doc = "[[stations]]\napp = \"bt\"\n\
            [[stations.defense]]\nstage = \"padding\"\nsize = 1576\n\
            [[stations.defense]]\nstage = \"morph\"\ntarget = \"video\"\n\
            [[stations.defense]]\nstage = \"pseudonym\"\nperiod_secs = 30\n\
            [[stations.defense]]\nstage = \"fh\"\ndwell_ms = 200\n\
            [[stations.defense]]\nstage = \"reshape\"\nalgorithm = \"rr\"\ninterfaces = 4\n\
            [[stations.defense]]\nstage = \"reshape\"\n";
        let stages = load(doc).unwrap().stations[0].defense.stages.clone();
        assert_eq!(
            stages,
            [
                StageSpec::Defense(DefenseStageSpec::Padding { size: Some(1576) }),
                StageSpec::Defense(DefenseStageSpec::Morphing {
                    target: Some(AppKind::Video)
                }),
                StageSpec::Defense(DefenseStageSpec::Pseudonym {
                    period_secs: Some(30.0)
                }),
                StageSpec::Defense(DefenseStageSpec::FrequencyHopping {
                    dwell_ms: Some(200)
                }),
                StageSpec::Reshape {
                    algorithm: AlgorithmSpec::RoundRobin,
                    interfaces: Some(4)
                },
                StageSpec::Reshape {
                    algorithm: AlgorithmSpec::Orthogonal,
                    interfaces: None
                },
            ]
        );
        // An inline list mixes bare tags and tables.
        let doc = "[[stations]]\napp = \"bt\"\n\
            defense = [\"morphing\", { stage = \"padding\", size = 400 }, \"OR\"]";
        assert_eq!(
            load(doc).unwrap().stations[0].defense.label(),
            "morphing+padding+or"
        );
        // A reshape algorithm is not a stage table's tag.
        let err = load("[[stations]]\napp = \"bt\"\n[[stations.defense]]\nstage = \"or\"");
        assert_eq!(
            err.unwrap_err(),
            "t.toml:4: stage: unknown defense stage `or`"
        );
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
            assert_eq!(DefenseSpec::parse(&label).unwrap(), spec, "{label}");
            let tables = load(&stage_tables(&spec)).unwrap();
            assert_eq!(tables.stations[0].defense, spec, "{label}");
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
                        lines: Lines::default(),
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
                    lines: Lines::default(),
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
