//! Canonical sweep descriptions: [`SweepSpec`] is the single serializable
//! job type every sweep flows through.
//!
//! A spec names *what* to run — graph family × oracle × scheme × fault
//! plan × seeds × runtime knobs — without touching *how* it runs (thread
//! counts and journal paths stay in the caller). The
//! bench grids construct from a spec, the `sweep` CLI lowers its flags
//! into one, and the sweep service ships specs over the wire verbatim:
//! one description type, three front doors.
//!
//! The JSON form is the canonical [`Json`] render (insertion-ordered
//! objects, unsigned integers only). Probabilities are stored as
//! parts-per-million integers so the encoding never touches floats;
//! [`from_ppm`]/[`to_ppm`] round-trip every probability the experiments
//! use. Parsing is strict: unknown or mis-typed fields are rejected with
//! a first-error message naming the offending path, so a typo in a
//! submitted job fails loudly instead of silently running the default.

use oraclesize_sim::{AdviceAdversary, FaultPlan, SchedulerKind, SimConfig};

use crate::batch::{Aggregate, RunReport};
use crate::json::{Fields, Json};

/// Converts a probability in `[0, 1]` to parts-per-million.
pub fn to_ppm(prob: f64) -> u64 {
    (prob * 1_000_000.0).round() as u64
}

/// Converts parts-per-million back to a probability in `[0, 1]`.
pub fn from_ppm(ppm: u64) -> f64 {
    ppm as f64 / 1_000_000.0
}

/// A complete, serializable description of one sweep job.
///
/// `instances` lists the graph/oracle pairs the cells share (building a
/// graph is the expensive part, so cells reference instances by index),
/// and `cells` lists one `(instance, scheme, config, seed)` combination
/// per grid cell, in artifact order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Spec format version; this module reads version `1`.
    pub version: u64,
    /// Experiment name — becomes the artifact's `"experiment"` field and
    /// the `BENCH_<NAME>.json` file stem.
    pub name: String,
    /// The sweep's master seed — becomes the artifact's `"seed"` field.
    pub master_seed: u64,
    /// Shared graph/oracle pairs, referenced by `cells[*].instance`.
    pub instances: Vec<InstanceSpec>,
    /// One entry per grid cell, in artifact order.
    pub cells: Vec<CellSpec>,
    /// Supervision knobs shared by the whole sweep.
    pub knobs: KnobSpec,
}

/// A graph construction plus the oracle that labels it.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceSpec {
    /// Graph family name (`"cycle"`, `"random-connected"`, …); the bench
    /// crate owns the name → constructor table.
    pub family: String,
    /// Family size parameter (nodes, or the family's natural order).
    pub n: u64,
    /// Seed for the family's RNG; ignored by deterministic families.
    pub seed: u64,
    /// Edge probability in parts-per-million, for the families that take
    /// one (`"random-connected"`).
    pub p_ppm: Option<u64>,
    /// Source node for the task.
    pub source: u64,
    /// Oracle name (`"empty"`, `"spanning-tree"`, `"light-tree"`,
    /// `"robust-wakeup"`).
    pub oracle: String,
}

/// Asynchronous delivery order for one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerSpec {
    /// Scheduler name as reported by
    /// [`SchedulerKind::name`] (`"fifo"`, `"lifo"`, `"random"`,
    /// `"starve"`).
    pub kind: String,
    /// Seed for the `"random"` scheduler; carried but unused by the
    /// deterministic kinds.
    pub seed: u64,
}

impl SchedulerSpec {
    /// The spec form of an engine scheduler.
    pub fn of(kind: SchedulerKind) -> SchedulerSpec {
        let seed = match kind {
            SchedulerKind::Random { seed } => seed,
            _ => 0,
        };
        SchedulerSpec {
            kind: kind.name().to_string(),
            seed,
        }
    }

    /// Lowers to the engine scheduler.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown scheduler kind.
    pub fn scheduler(&self) -> Result<SchedulerKind, String> {
        Ok(match self.kind.as_str() {
            "fifo" => SchedulerKind::Fifo,
            "lifo" => SchedulerKind::Lifo,
            "random" => SchedulerKind::Random { seed: self.seed },
            "starve" => SchedulerKind::Starve,
            other => return Err(format!("unknown scheduler kind {other:?}")),
        })
    }
}

/// One grid cell: which instance to run, under which scheme and engine
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Cell label for the JSON artifact.
    pub label: String,
    /// Index into [`SweepSpec::instances`].
    pub instance: u64,
    /// Scheme name (`"tree-wakeup"`, `"scheme-b"`, `"flood"`,
    /// `"robust-tree-wakeup"`, `"retry-broadcast"`); the bench crate owns
    /// the name → protocol table.
    pub scheme: String,
    /// Retry budget for `"retry-broadcast"`; meaningless otherwise.
    pub retries: Option<u32>,
    /// Task rules: `"broadcast"` or `"wakeup"`.
    pub mode: String,
    /// Asynchronous delivery order; `None` keeps synchronous rounds.
    pub scheduler: Option<SchedulerSpec>,
    /// Erase node identities (the anonymous model).
    pub anonymous: bool,
    /// Bound every payload to this many bits.
    pub max_message_bits: Option<u64>,
    /// Quiescence-poll budget override.
    pub quiescence_polls: Option<u32>,
    /// The cell's checkpoint seed, recorded in journals and validated on
    /// resume.
    pub seed: u64,
    /// Faults injected into this cell's run.
    pub faults: FaultSpec,
}

impl CellSpec {
    /// Lowers this cell's engine configuration.
    ///
    /// # Errors
    ///
    /// Returns a first-error message for an unknown mode or scheduler.
    pub fn sim_config(&self) -> Result<SimConfig, String> {
        let mut config = match self.mode.as_str() {
            "broadcast" => SimConfig::broadcast(),
            "wakeup" => SimConfig::wakeup(),
            other => return Err(format!("unknown mode {other:?}")),
        };
        if let Some(sched) = &self.scheduler {
            config = config.with_scheduler(sched.scheduler()?);
        }
        config = config.with_anonymous(self.anonymous);
        if let Some(bits) = self.max_message_bits {
            config = config.with_max_message_bits(bits);
        }
        if let Some(polls) = self.quiescence_polls {
            config = config.with_quiescence_polls(polls);
        }
        // An inert plan makes the engine take the exact fault-free code
        // path, so installing the default plan is byte-identical to
        // leaving it out.
        Ok(config.with_faults(self.faults.plan()))
    }
}

/// A serializable [`FaultPlan`]: probabilities in parts-per-million,
/// crash schedules as `[node, k]` pairs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    /// Seed for every fault decision.
    pub seed: u64,
    /// In-flight drop probability, parts-per-million.
    pub drop_ppm: u64,
    /// Duplicate-delivery probability, parts-per-million.
    pub duplicate_ppm: u64,
    /// Payload bit-flip probability, parts-per-million.
    pub bit_flip_ppm: u64,
    /// Crash-stop schedule: `(node, k)` — the node transmits its first
    /// `k` messages, then halts.
    pub crashes: Vec<(u64, u64)>,
    /// Pre-run advice corruption.
    pub advice: AdviceSpec,
}

impl FaultSpec {
    /// Lowers to the engine's fault plan.
    pub fn plan(&self) -> FaultPlan {
        FaultPlan {
            seed: self.seed,
            drop_prob: from_ppm(self.drop_ppm),
            duplicate_prob: from_ppm(self.duplicate_ppm),
            bit_flip_prob: from_ppm(self.bit_flip_ppm),
            crashes: self.crashes.iter().map(|&(v, k)| (v as usize, k)).collect(),
            advice: self.advice.adversary(),
        }
    }
}

/// A serializable [`AdviceAdversary`].
#[derive(Debug, Clone, PartialEq, Default)]
pub enum AdviceSpec {
    /// Leave the advice untouched.
    #[default]
    None,
    /// Flip each advice bit with the given parts-per-million probability.
    FlipBits {
        /// Per-bit flip probability, parts-per-million.
        prob_ppm: u64,
    },
    /// Keep only the leading fraction of each advice string.
    Truncate {
        /// Fraction kept, parts-per-million.
        keep_ppm: u64,
    },
    /// Swap the advice strings of two nodes.
    SwapPair {
        /// First node.
        a: u64,
        /// Second node.
        b: u64,
    },
    /// Replace advice with uniformly random bits, per node.
    Garbage {
        /// Per-node replacement probability, parts-per-million.
        prob_ppm: u64,
        /// Replacement string length in bits.
        bits: u64,
    },
}

impl AdviceSpec {
    /// Lowers to the engine adversary.
    pub fn adversary(&self) -> AdviceAdversary {
        match *self {
            AdviceSpec::None => AdviceAdversary::None,
            AdviceSpec::FlipBits { prob_ppm } => AdviceAdversary::FlipBits {
                prob: from_ppm(prob_ppm),
            },
            AdviceSpec::Truncate { keep_ppm } => AdviceAdversary::Truncate {
                keep: from_ppm(keep_ppm),
            },
            AdviceSpec::SwapPair { a, b } => AdviceAdversary::SwapPair {
                a: a as usize,
                b: b as usize,
            },
            AdviceSpec::Garbage { prob_ppm, bits } => AdviceAdversary::Garbage {
                prob: from_ppm(prob_ppm),
                bits: bits as usize,
            },
        }
    }

    fn to_json(&self) -> Json {
        match *self {
            AdviceSpec::None => Json::obj().field("kind", "none"),
            AdviceSpec::FlipBits { prob_ppm } => Json::obj()
                .field("kind", "flip-bits")
                .field("prob_ppm", prob_ppm),
            AdviceSpec::Truncate { keep_ppm } => Json::obj()
                .field("kind", "truncate")
                .field("keep_ppm", keep_ppm),
            AdviceSpec::SwapPair { a, b } => Json::obj()
                .field("kind", "swap-pair")
                .field("a", a)
                .field("b", b),
            AdviceSpec::Garbage { prob_ppm, bits } => Json::obj()
                .field("kind", "garbage")
                .field("prob_ppm", prob_ppm)
                .field("bits", bits),
        }
    }

    fn from_json(f: Fields) -> Result<AdviceSpec, String> {
        f.end(match f.str("kind")?.as_str() {
            "none" => AdviceSpec::None,
            "flip-bits" => AdviceSpec::FlipBits {
                prob_ppm: f.u64("prob_ppm")?,
            },
            "truncate" => AdviceSpec::Truncate {
                keep_ppm: f.u64("keep_ppm")?,
            },
            "swap-pair" => AdviceSpec::SwapPair {
                a: f.u64("a")?,
                b: f.u64("b")?,
            },
            "garbage" => AdviceSpec::Garbage {
                prob_ppm: f.u64("prob_ppm")?,
                bits: f.u64("bits")?,
            },
            other => return Err(format!("{}.kind: unknown adversary {other:?}", f.path())),
        })
    }
}

/// Supervision knobs shared by a whole sweep.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KnobSpec {
    /// Retry budget for failed cells.
    pub max_retries: u32,
    /// Per-cell watchdog step budget.
    pub cell_timeout: Option<u64>,
}

impl SweepSpec {
    /// An empty version-1 spec with the given name and master seed.
    pub fn new(name: impl Into<String>, master_seed: u64) -> SweepSpec {
        SweepSpec {
            version: 1,
            name: name.into(),
            master_seed,
            instances: Vec::new(),
            cells: Vec::new(),
            knobs: KnobSpec::default(),
        }
    }

    /// The canonical JSON form.
    pub fn to_json(&self) -> Json {
        let instances: Vec<Json> = self.instances.iter().map(instance_json).collect();
        let cells: Vec<Json> = self.cells.iter().map(cell_json).collect();
        let mut knobs = Json::obj().field("max_retries", self.knobs.max_retries);
        if let Some(t) = self.knobs.cell_timeout {
            knobs = knobs.field("cell_timeout", t);
        }
        Json::obj()
            .field("version", self.version)
            .field("name", self.name.as_str())
            .field("master_seed", self.master_seed)
            .field("instances", instances)
            .field("cells", cells)
            .field("knobs", knobs)
    }

    /// The canonical rendered form — the wire and submit format.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Job identity: the FNV-1a digest of the canonical render. Two specs
    /// share a digest iff they describe the same sweep.
    pub fn digest(&self) -> u64 {
        crate::journal::fnv1a64(self.render().as_bytes())
    }

    /// Parses a rendered spec.
    ///
    /// # Errors
    ///
    /// Returns a first-error message: malformed JSON, an unknown or
    /// mis-typed field (with its path), or a structural violation such
    /// as an out-of-range instance index.
    pub fn parse(s: &str) -> Result<SweepSpec, String> {
        let j = crate::json::parse(s).ok_or_else(|| {
            "spec is not canonical JSON (render with `oraclesize spec` or SweepSpec::render)"
                .to_string()
        })?;
        SweepSpec::from_json(&j)
    }

    /// Decodes a parsed [`Json`] value; same errors as [`SweepSpec::parse`].
    ///
    /// # Errors
    ///
    /// Returns a first-error message naming the offending field path.
    pub fn from_json(j: &Json) -> Result<SweepSpec, String> {
        let f = Fields::new(j, "spec")?;
        let version = f.u64("version")?;
        if version != 1 {
            return Err(format!(
                "spec.version: unsupported version {version} (this build reads 1)"
            ));
        }
        let spec = f.end(SweepSpec {
            version,
            name: f.str("name")?,
            master_seed: f.u64("master_seed")?,
            instances: f
                .array("instances")?
                .iter()
                .enumerate()
                .map(|(i, j)| instance_from_json(j, format!("instances[{i}]")))
                .collect::<Result<_, _>>()?,
            cells: f
                .array("cells")?
                .iter()
                .enumerate()
                .map(|(i, j)| cell_from_json(j, format!("cells[{i}]")))
                .collect::<Result<_, _>>()?,
            knobs: knobs_from_json(f.value("knobs")?)?,
        })?;
        spec.validate()?;
        Ok(spec)
    }

    /// Structural checks beyond field shapes.
    ///
    /// # Errors
    ///
    /// Returns a first-error message for an instance index out of range.
    pub fn validate(&self) -> Result<(), String> {
        for (i, cell) in self.cells.iter().enumerate() {
            if cell.instance >= self.instances.len() as u64 {
                return Err(format!(
                    "cells[{i}].instance: index {} out of range ({} instances)",
                    cell.instance,
                    self.instances.len()
                ));
            }
        }
        Ok(())
    }
}

fn instance_json(inst: &InstanceSpec) -> Json {
    let mut j = Json::obj()
        .field("family", inst.family.as_str())
        .field("n", inst.n)
        .field("seed", inst.seed);
    if let Some(p) = inst.p_ppm {
        j = j.field("p_ppm", p);
    }
    j.field("source", inst.source)
        .field("oracle", inst.oracle.as_str())
}

fn instance_from_json(j: &Json, path: String) -> Result<InstanceSpec, String> {
    let f = Fields::new(j, path)?;
    f.end(InstanceSpec {
        family: f.str("family")?,
        n: f.u64("n")?,
        seed: f.u64("seed")?,
        p_ppm: f.opt_u64("p_ppm")?,
        source: f.u64("source")?,
        oracle: f.str("oracle")?,
    })
}

fn cell_json(cell: &CellSpec) -> Json {
    let mut j = Json::obj()
        .field("label", cell.label.as_str())
        .field("instance", cell.instance)
        .field("scheme", cell.scheme.as_str());
    if let Some(r) = cell.retries {
        j = j.field("retries", r);
    }
    j = j.field("mode", cell.mode.as_str());
    if let Some(s) = &cell.scheduler {
        j = j.field(
            "scheduler",
            Json::obj()
                .field("kind", s.kind.as_str())
                .field("seed", s.seed),
        );
    }
    j = j.field("anonymous", cell.anonymous);
    if let Some(b) = cell.max_message_bits {
        j = j.field("max_message_bits", b);
    }
    if let Some(p) = cell.quiescence_polls {
        j = j.field("quiescence_polls", p);
    }
    j.field("seed", cell.seed)
        .field("faults", fault_json(&cell.faults))
}

fn cell_from_json(j: &Json, path: String) -> Result<CellSpec, String> {
    let f = Fields::new(j, path)?;
    f.end(CellSpec {
        label: f.str("label")?,
        instance: f.u64("instance")?,
        scheme: f.str("scheme")?,
        retries: f.opt_u32("retries")?,
        mode: f.str("mode")?,
        scheduler: match f.opt_object("scheduler")? {
            None => None,
            Some(s) => Some(s.end(SchedulerSpec {
                kind: s.str("kind")?,
                seed: s.u64("seed")?,
            })?),
        },
        anonymous: f.bool("anonymous")?,
        max_message_bits: f.opt_u64("max_message_bits")?,
        quiescence_polls: f.opt_u32("quiescence_polls")?,
        seed: f.u64("seed")?,
        faults: fault_from_json(f.object("faults")?)?,
    })
}

fn fault_json(faults: &FaultSpec) -> Json {
    let crashes: Vec<Json> = faults
        .crashes
        .iter()
        .map(|&(v, k)| Json::Array(vec![Json::U64(v), Json::U64(k)]))
        .collect();
    Json::obj()
        .field("seed", faults.seed)
        .field("drop_ppm", faults.drop_ppm)
        .field("duplicate_ppm", faults.duplicate_ppm)
        .field("bit_flip_ppm", faults.bit_flip_ppm)
        .field("crashes", crashes)
        .field("advice", faults.advice.to_json())
}

fn fault_from_json(f: Fields) -> Result<FaultSpec, String> {
    f.end(FaultSpec {
        seed: f.u64("seed")?,
        drop_ppm: f.u64("drop_ppm")?,
        duplicate_ppm: f.u64("duplicate_ppm")?,
        bit_flip_ppm: f.u64("bit_flip_ppm")?,
        crashes: f
            .array("crashes")?
            .iter()
            .enumerate()
            .map(|(i, j)| match j {
                Json::Array(pair) => match pair.as_slice() {
                    [Json::U64(v), Json::U64(k)] => Ok((*v, *k)),
                    _ => Err(i),
                },
                _ => Err(i),
            })
            .collect::<Result<_, _>>()
            .map_err(|i| format!("{}.crashes[{i}]: expected a [node, k] pair", f.path()))?,
        advice: AdviceSpec::from_json(f.object("advice")?)?,
    })
}

fn knobs_from_json(j: &Json) -> Result<KnobSpec, String> {
    let f = Fields::new(j, "knobs")?;
    f.end(KnobSpec {
        max_retries: f.u32("max_retries")?,
        cell_timeout: f.opt_u64("cell_timeout")?,
    })
}

// ---- artifact rendering --------------------------------------------------

/// Renders labeled reports as the deterministic grid fragment used by
/// every `BENCH_*.json` artifact: one record per cell plus an aggregate,
/// folded in cell order. This is the single renderer behind
/// `CellGrid::to_json` and the sweep service's merged artifacts — the
/// byte-identity contract between local and distributed runs rests on
/// both calling it.
pub fn grid_json(labels: &[String], reports: &[RunReport]) -> Json {
    let cells: Vec<Json> = labels
        .iter()
        .zip(reports)
        .enumerate()
        .map(|(i, (label, report))| {
            let base = Json::obj().field("cell", i).field("label", label.as_str());
            match &report.result {
                Ok(out) => base
                    .field("completed", out.completed)
                    .field("uninformed", out.uninformed)
                    .field("crashed_nodes", out.crashed_nodes)
                    .field("oracle_bits", out.oracle_bits)
                    .field("messages", out.metrics.messages)
                    .field("payload_bits", out.metrics.payload_bits)
                    .field("max_message_bits", out.metrics.max_message_bits)
                    .field("rounds", out.metrics.rounds)
                    .field("steps", out.metrics.steps)
                    .field("informed_nodes", out.metrics.informed_nodes)
                    .field("dropped", out.metrics.faults.dropped)
                    .field("duplicated", out.metrics.faults.duplicated)
                    .field("payload_flips", out.metrics.faults.payload_flips)
                    .field("advice_mutations", out.metrics.faults.advice_mutations),
                Err(e) => base.field("error", e.as_str()),
            }
        })
        .collect();
    Json::obj()
        .field("cells", cells)
        .field("aggregate", Aggregate::of(reports).to_json())
}

/// Wraps an experiment body in the committed artifact envelope:
/// `{"experiment": …, "seed": …, "body": …}`. The file on disk is this
/// render plus a trailing newline.
pub fn artifact_json(name: &str, master_seed: u64, body: Json) -> Json {
    Json::obj()
        .field("experiment", name.to_lowercase())
        .field("seed", master_seed)
        .field("body", body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rich_spec() -> SweepSpec {
        let mut spec = SweepSpec::new("demo", 2006);
        spec.instances.push(InstanceSpec {
            family: "random-connected".to_string(),
            n: 32,
            seed: 7,
            p_ppm: Some(to_ppm(0.08)),
            source: 0,
            oracle: "spanning-tree".to_string(),
        });
        spec.instances.push(InstanceSpec {
            family: "cycle".to_string(),
            n: 6,
            seed: 0,
            p_ppm: None,
            source: 2,
            oracle: "empty".to_string(),
        });
        spec.cells.push(CellSpec {
            label: "wakeup/fifo".to_string(),
            instance: 0,
            scheme: "tree-wakeup".to_string(),
            retries: None,
            mode: "wakeup".to_string(),
            scheduler: Some(SchedulerSpec {
                kind: "random".to_string(),
                seed: 41,
            }),
            anonymous: true,
            max_message_bits: Some(0),
            quiescence_polls: None,
            seed: 0,
            faults: FaultSpec::default(),
        });
        spec.cells.push(CellSpec {
            label: "flood".to_string(),
            instance: 1,
            scheme: "flood".to_string(),
            retries: Some(2),
            mode: "broadcast".to_string(),
            scheduler: None,
            anonymous: false,
            max_message_bits: None,
            quiescence_polls: Some(16),
            seed: 9,
            faults: FaultSpec {
                seed: 3,
                drop_ppm: to_ppm(0.3),
                duplicate_ppm: 0,
                bit_flip_ppm: to_ppm(0.1),
                crashes: vec![(1, 0), (4, 2)],
                advice: AdviceSpec::Garbage {
                    prob_ppm: to_ppm(0.75),
                    bits: 40,
                },
            },
        });
        spec.knobs = KnobSpec {
            max_retries: 2,
            cell_timeout: Some(100_000),
        };
        spec
    }

    #[test]
    fn round_trip_is_lossless() {
        let spec = rich_spec();
        let rendered = spec.render();
        let parsed = SweepSpec::parse(&rendered).expect("parse");
        assert_eq!(parsed, spec);
        assert_eq!(parsed.render(), rendered);
        assert_eq!(parsed.digest(), spec.digest());
    }

    #[test]
    fn ppm_round_trips_experiment_probabilities() {
        for p in [0.0, 0.08, 0.1, 0.25, 0.3, 0.5, 0.75, 1.0] {
            assert_eq!(from_ppm(to_ppm(p)), p, "{p}");
        }
    }

    #[test]
    fn unknown_fields_are_rejected_with_a_path() {
        let j = rich_spec().to_json().field("extra", 1u64);
        let err = SweepSpec::from_json(&j).unwrap_err();
        assert_eq!(err, "spec: unknown field \"extra\"");
    }

    #[test]
    fn mistyped_fields_are_rejected_with_a_path() {
        let rendered = rich_spec()
            .render()
            .replace("\"master_seed\": 2006", "\"master_seed\": \"2006\"");
        let err = SweepSpec::parse(&rendered).unwrap_err();
        assert_eq!(err, "spec.master_seed: expected an unsigned integer");
    }

    #[test]
    fn u32_fields_reject_values_past_u32_max_with_a_path() {
        let rendered = rich_spec().render();
        for (from, to, path) in [
            (
                "\"max_retries\": 2",
                "\"max_retries\": 4294967297",
                "knobs.max_retries",
            ),
            (
                "\"quiescence_polls\": 16",
                "\"quiescence_polls\": 4294967312",
                "cells[1].quiescence_polls",
            ),
            (
                "\"retries\": 2",
                "\"retries\": 4294967296",
                "cells[1].retries",
            ),
        ] {
            assert!(rendered.contains(from), "{from}");
            let err = SweepSpec::parse(&rendered.replace(from, to)).unwrap_err();
            assert_eq!(err, format!("{path}: expected an unsigned 32-bit integer"));
        }
        // u32::MAX itself still fits.
        let max = rendered.replace("\"max_retries\": 2", "\"max_retries\": 4294967295");
        assert_eq!(
            SweepSpec::parse(&max).map(|s| s.knobs.max_retries),
            Ok(u32::MAX)
        );
    }

    #[test]
    fn the_retired_chunk_knob_is_rejected() {
        let rendered = rich_spec().render().replace(
            "\"cell_timeout\": 100000",
            "\"cell_timeout\": 100000, \"chunk\": 4",
        );
        let err = SweepSpec::parse(&rendered).unwrap_err();
        assert_eq!(err, "knobs: unknown field \"chunk\"");
    }

    #[test]
    fn nested_unknown_fields_name_the_cell() {
        let rendered = rich_spec().render().replace(
            "\"label\": \"flood\"",
            "\"typo\": true, \"label\": \"flood\"",
        );
        let err = SweepSpec::parse(&rendered).unwrap_err();
        assert_eq!(err, "cells[1]: unknown field \"typo\"");
    }

    #[test]
    fn instance_index_out_of_range_is_rejected() {
        let mut spec = rich_spec();
        spec.cells[0].instance = 9;
        let err = SweepSpec::parse(&spec.render()).unwrap_err();
        assert_eq!(err, "cells[0].instance: index 9 out of range (2 instances)");
    }

    #[test]
    fn sim_config_lowering_matches_builders() {
        let spec = rich_spec();
        let cfg = spec.cells[0].sim_config().expect("config");
        assert!(!cfg.synchronous);
        assert_eq!(cfg.scheduler, SchedulerKind::Random { seed: 41 });
        assert!(cfg.anonymous);
        assert_eq!(cfg.max_message_bits, Some(0));
        let cfg = spec.cells[1].sim_config().expect("config");
        assert!(cfg.synchronous);
        assert_eq!(cfg.max_quiescence_polls, 16);
        assert_eq!(cfg.faults.crashes.len(), 2);
        assert_eq!(cfg.faults.drop_prob, 0.3);
        let mut bad = spec.cells[0].clone();
        bad.mode = "gossip".to_string();
        assert!(bad.sim_config().unwrap_err().contains("unknown mode"));
    }

    #[test]
    fn scheduler_spec_round_trips_kinds() {
        for kind in SchedulerKind::sweep(99) {
            assert_eq!(SchedulerSpec::of(kind).scheduler(), Ok(kind));
        }
        let bad = SchedulerSpec {
            kind: "psychic".to_string(),
            seed: 0,
        };
        assert!(bad.scheduler().unwrap_err().contains("psychic"));
    }

    #[test]
    fn artifact_envelope_matches_emit_json_shape() {
        let j = artifact_json("T10", 2006, Json::obj().field("cells", Vec::<Json>::new()));
        assert_eq!(
            j.render(),
            "{\"experiment\": \"t10\", \"seed\": 2006, \"body\": {\"cells\": []}}"
        );
    }
}
