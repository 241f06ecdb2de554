//! The `oraclesize` command-line tool: run any task on any family and
//! print the knowledge/communication costs.
//!
//! ```text
//! oraclesize run --family complete --n 64 --task broadcast
//! oraclesize run --family random-sparse --n 128 --task election --scheduler lifo
//! oraclesize run --family grid --n 100 --task spanner --stretch 3
//! oraclesize sweep --task broadcast --n 128 --runs 64 --threads 4 --drop 0.1
//! oraclesize trace --task broadcast --n 32 --out run.jsonl
//! oraclesize trace-diff left.jsonl right.jsonl
//! oraclesize experiments --threads 4 --json-dir out t10 t20
//! oraclesize spec t10 > t10.json
//! oraclesize serve --addr 127.0.0.1:7401 --journal-dir ckpt
//! oraclesize work --connect 127.0.0.1:7401 --threads 4 --journal-dir ckpt
//! oraclesize submit --connect 127.0.0.1:7401 --spec t10.json --out BENCH_T10.json
//! oraclesize list
//! ```
//!
//! `sweep` and `trace` lower their flags into the runtime's canonical
//! [`SweepSpec`] and materialize it with [`CellGrid::from_spec`]: `sweep`
//! dispatches the grid to the `oraclesize-runtime` pool — `--threads N`
//! changes wall-clock time only, never the report — and `trace` streams
//! its one cell's event trace as deterministic JSONL (to `--out` or
//! stdout); `trace-diff` compares two such artifacts and reports the
//! first divergence with node/round context.
//!
//! `experiments` regenerates the EXPERIMENTS.md report and, with
//! `--json-dir`, the `BENCH_*.json` artifacts. `spec` prints a committed
//! experiment's canonical spec JSON; `serve`, `work`, and `submit` run
//! the same spec distributed across the sweep service — the merged
//! artifact is byte-identical to a local run.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::str::FromStr;

use oraclesize_bench::experiments::{self, EXPERIMENTS, SPECS};
use oraclesize_bench::grid::{CellGrid, ExpOptions};
use oraclesize_bench::harness::MASTER_SEED;
use oraclesize_core::broadcast::{LightTreeOracle, SchemeB};
use oraclesize_core::construction::{
    collect_parent_ports, verify_bfs_tree, verify_mst, BfsTreeOracle, DistributedBfs, MstOracle,
    ZeroMessageTree,
};
use oraclesize_core::election::{
    verify_election, AnnouncedLeader, ElectionOracle, FloodMax, HirschbergSinclair,
};
use oraclesize_core::gossip::{decode_gossip_output, GossipOracle, TreeGossip};
use oraclesize_core::oracle::EmptyOracle;
use oraclesize_core::spanner::{collect_port_sets, verify_spanner, SpannerOracle};
use oraclesize_core::wakeup::{SpanningTreeOracle, TreeWakeup};
use oraclesize_core::{execute, OracleRun};
use oraclesize_graph::families::Family;
use oraclesize_graph::PortGraph;
use oraclesize_runtime::spec::to_ppm;
use oraclesize_runtime::{
    drain, run_supervised_batch, Aggregate, CellSpec, FaultSpec, InstanceSpec, JsonlSink, KnobSpec,
    Pool, SchedStats, SchedulerSpec, SweepOptions, SweepSpec,
};
use oraclesize_service::{Server, ServerConfig, WorkerConfig, WorkerOutcome};
use oraclesize_sim::protocol::FloodOnce;
use oraclesize_sim::trace::diff_lines;
use oraclesize_sim::{run_streamed, SchedulerKind, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The tasks the CLI can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Theorem 3.1: light-tree oracle + Scheme B.
    Broadcast,
    /// Theorem 2.1: spanning-tree oracle + tree wakeup.
    Wakeup,
    /// Oracle-free flooding baseline.
    Flood,
    /// Tree gossip.
    Gossip,
    /// Oracle-assisted leader election.
    Election,
    /// FloodMax election baseline.
    FloodMax,
    /// Hirschberg–Sinclair ring election (cycle family only).
    HsElection,
    /// Zero-message BFS-tree construction.
    Bfs,
    /// Zero-message MST construction.
    Mst,
    /// Flooding-based distributed BFS baseline.
    DistBfs,
    /// Zero-message t-spanner construction (`--stretch`).
    Spanner,
}

impl Task {
    /// Every task with its name, in `list` order.
    pub const ALL: [(&'static str, Task); 11] = [
        ("broadcast", Task::Broadcast),
        ("wakeup", Task::Wakeup),
        ("flood", Task::Flood),
        ("gossip", Task::Gossip),
        ("election", Task::Election),
        ("floodmax", Task::FloodMax),
        ("hs-election", Task::HsElection),
        ("bfs", Task::Bfs),
        ("mst", Task::Mst),
        ("dist-bfs", Task::DistBfs),
        ("spanner", Task::Spanner),
    ];

    /// Parses a task name.
    pub fn parse(s: &str) -> Option<Task> {
        Task::ALL
            .into_iter()
            .find(|(name, _)| *name == s)
            .map(|(_, t)| t)
    }

    /// The task's name.
    pub fn name(self) -> &'static str {
        Task::ALL
            .into_iter()
            .find(|&(_, t)| t == self)
            .map_or("", |(name, _)| name)
    }

    /// The `(oracle, scheme, mode)` spec names that lower this task into
    /// a sweep cell, or an error naming the tasks `cmd` supports.
    fn spec_names(self, cmd: &str) -> Result<(&'static str, &'static str, &'static str), String> {
        match self {
            Task::Broadcast => Ok(("light-tree", "scheme-b", "broadcast")),
            Task::Wakeup => Ok(("spanning-tree", "tree-wakeup", "wakeup")),
            Task::Flood => Ok(("empty", "flood", "broadcast")),
            _ => Err(format!("{cmd} supports --task broadcast, wakeup, or flood")),
        }
    }
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `run …`
    Run(RunArgs),
    /// `sweep …`
    Sweep(SweepArgs),
    /// `trace …`
    Trace(TraceArgs),
    /// `trace-diff <left> <right>`
    TraceDiff(TraceDiffArgs),
    /// `experiments …`
    Experiments(ExperimentsArgs),
    /// `spec <name>`
    Spec(SpecArgs),
    /// `serve …`
    Serve(ServeArgs),
    /// `work …`
    Work(WorkArgs),
    /// `submit …`
    Submit(SubmitArgs),
    /// `list`
    List,
    /// `help` (also the zero-argument default)
    Help,
}

/// Arguments of the `experiments` subcommand: regenerate experiment
/// reports and, with `json_dir`, their `BENCH_<ID>.json` artifacts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExperimentsArgs {
    /// Experiment ids as given (known, case-insensitive), in run order.
    pub ids: Vec<String>,
    /// Run the bigger (slower) sweeps.
    pub large: bool,
    /// Worker threads for the grid experiments (`0`/`1` ⇒ serial).
    pub threads: usize,
    /// Where to write `BENCH_<ID>.json` artifacts.
    pub json_dir: Option<PathBuf>,
    /// Where the grid journals live (`<dir>/<spec name>.journal`).
    pub journal_dir: Option<PathBuf>,
    /// Skip cells the journals already hold.
    pub resume: bool,
}

/// Arguments of the `spec` subcommand: print a committed experiment's
/// canonical [`SweepSpec`] JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecArgs {
    /// Experiment name (`t10`, `t20-corruption`, `t20-drops`,
    /// `t20-crashes`, `scale`).
    pub name: String,
    /// Use the bigger grid for the sweeps that have one (`scale`).
    pub large: bool,
}

/// Arguments of the `serve` subcommand: run the sweep service's job
/// server until every job has been delivered.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Listen address.
    pub addr: String,
    /// Job journal directory; `None` disables server-side resume.
    pub journal_dir: Option<String>,
    /// Number of jobs to serve before exiting.
    pub jobs: usize,
    /// Expected worker count — a sharding hint, not a limit.
    pub workers: usize,
}

/// Arguments of the `work` subcommand: run one sweep worker against a
/// server.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkArgs {
    /// Server address to pull shards from.
    pub connect: String,
    /// Local pool threads.
    pub threads: usize,
    /// Segment journal directory; share it between workers for crash
    /// handoff.
    pub journal_dir: Option<String>,
    /// Fault drill: abandon the Nth claimed shard half-journaled.
    pub die_mid_shard: Option<u64>,
    /// Idle poll interval in milliseconds.
    pub poll_ms: u64,
    /// Worker name for server logs.
    pub name: String,
}

/// Arguments of the `submit` subcommand: send a spec to a server and
/// collect the merged artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitArgs {
    /// Server address.
    pub connect: String,
    /// Path of the sweep spec JSON file.
    pub spec: String,
    /// Write the artifact here instead of returning it on stdout.
    pub out: Option<String>,
    /// Poll interval in milliseconds.
    pub poll_ms: u64,
    /// Skip server-side journal resume and recompute every cell.
    pub fresh: bool,
}

/// The flags `run`, `sweep` and `trace` share: one task on one graph.
#[derive(Debug, Clone, PartialEq)]
pub struct CellArgs {
    /// Graph family.
    pub family: Family,
    /// Approximate size (at least 4).
    pub n: usize,
    /// Task to execute.
    pub task: Task,
    /// Source / root node.
    pub source: usize,
    /// Asynchronous scheduler; `None` = synchronous. A `random` scheduler
    /// is seeded with `seed`, wherever the two flags sat.
    pub scheduler: Option<SchedulerKind>,
    /// RNG seed (graph generation, scheduling, faults).
    pub seed: u64,
}

/// Arguments of the `run` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Task, graph and schedule.
    pub cell: CellArgs,
    /// Erase node identities.
    pub anonymous: bool,
    /// Spanner stretch (at least 1).
    pub stretch: usize,
}

/// Arguments of the `sweep` subcommand: a declarative grid of seeded
/// runs over one shared instance, dispatched to the runtime pool.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepArgs {
    /// Task (`broadcast`, `wakeup`, or `flood`), graph and schedule; a
    /// `random` scheduler is re-seeded per cell so the cells stay
    /// independent.
    pub cell: CellArgs,
    /// Cells in the grid (one seeded run each).
    pub runs: usize,
    /// Worker threads for dispatch.
    pub threads: usize,
    /// Per-message drop probability (`0.0` = fault-free).
    pub drop: f64,
    /// Checkpoint journal path; `None` disables checkpointing.
    pub journal: Option<String>,
    /// Resume from the journal (skip checkpointed cells) instead of
    /// starting fresh.
    pub resume: bool,
    /// Failed cells are re-run up to this many times.
    pub max_retries: u32,
    /// Per-cell watchdog step budget; `None` leaves the engine default.
    pub cell_timeout: Option<u64>,
    /// Exit zero even when cells degraded (needed retries, or finished
    /// with uninformed nodes under faults).
    pub allow_degraded: bool,
}

/// Arguments of the `trace` subcommand: one fully-traced run, streamed to
/// JSONL through the engine's sink API.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceArgs {
    /// Task (`broadcast`, `wakeup`, or `flood`), graph and schedule.
    pub cell: CellArgs,
    /// Per-message drop probability (`0.0` = fault-free).
    pub drop: f64,
    /// Write the JSONL here instead of returning it on stdout.
    pub out: Option<String>,
}

/// Arguments of the `trace-diff` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDiffArgs {
    /// Left JSONL artifact.
    pub left: String,
    /// Right JSONL artifact.
    pub right: String,
}

/// The arguments after the subcommand.
type Args<'a> = std::slice::Iter<'a, String>;

/// Takes the value of flag `name`.
fn value<'a>(it: &mut Args<'a>, name: &str) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{name} needs a value"))
}

/// Takes flag `name`'s value and parses it; a bad value reads
/// "`name` needs `what`".
fn parsed<T: FromStr>(it: &mut Args, name: &str, what: &str) -> Result<T, String> {
    value(it, name)?
        .parse()
        .map_err(|_| format!("{name} needs {what}"))
}

/// Takes an integer flag's value.
fn int<T: FromStr>(it: &mut Args, name: &str) -> Result<T, String> {
    parsed(it, name, "an integer")
}

/// Takes an integer flag's value and checks it is at least `min`.
fn at_least(it: &mut Args, name: &str, min: usize) -> Result<usize, String> {
    match int(it, name)? {
        v if v < min => Err(format!("{name} must be at least {min}")),
        v => Ok(v),
    }
}

/// Takes the `--drop` probability.
fn drop_prob(it: &mut Args) -> Result<f64, String> {
    let p = parsed(it, "--drop", "a probability")?;
    if !(0.0..=1.0).contains(&p) {
        return Err("--drop must be within [0, 1]".into());
    }
    Ok(p)
}

/// Hands each remaining argument to `read`, which takes any value it
/// needs and returns `false` for a flag it does not know.
fn each_flag<'a>(
    it: &mut Args<'a>,
    mut read: impl FnMut(&str, &mut Args<'a>) -> Result<bool, String>,
) -> Result<(), String> {
    while let Some(flag) = it.next() {
        if !read(flag, it)? {
            return Err(format!("unknown flag {flag:?}"));
        }
    }
    Ok(())
}

/// Reads the flags `run`, `sweep` and `trace` share, handing the others
/// to `extra`; `n` is the subcommand's default size. The scheduler is
/// resolved after every flag is read, so `--scheduler random` takes the
/// final `--seed`.
fn cell_flags<'a>(
    it: &mut Args<'a>,
    cmd: &str,
    n: usize,
    mut extra: impl FnMut(&str, &mut Args<'a>) -> Result<bool, String>,
) -> Result<CellArgs, String> {
    let (mut family, mut n, mut task, mut source) = (Family::RandomSparse, n, None, 0);
    let (mut scheduler, mut seed) = (None, 2006);
    each_flag(it, |flag, it| {
        match flag {
            "--family" => {
                let v = value(it, "--family")?;
                family = Family::ALL
                    .into_iter()
                    .find(|f| f.name() == v)
                    .ok_or_else(|| format!("unknown family {v:?}"))?;
            }
            "--n" => n = at_least(it, "--n", 4)?,
            "--task" => {
                let v = value(it, "--task")?;
                task = Some(Task::parse(v).ok_or_else(|| format!("unknown task {v:?}"))?);
            }
            "--source" => source = int(it, "--source")?,
            "--scheduler" => scheduler = Some(value(it, "--scheduler")?),
            "--seed" => seed = int(it, "--seed")?,
            _ => return extra(flag, it),
        }
        Ok(true)
    })?;
    let scheduler = scheduler
        .map(|name| {
            SchedulerKind::sweep(seed)
                .into_iter()
                .find(|k| k.name() == name.as_str())
                .ok_or_else(|| format!("unknown scheduler {name:?}"))
        })
        .transpose()?;
    Ok(CellArgs {
        family,
        n,
        task: task.ok_or_else(|| format!("{cmd} requires --task"))?,
        source,
        scheduler,
        seed,
    })
}

/// Parses command-line arguments (without the program name).
///
/// # Errors
///
/// A usage message describing the problem.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => Ok(Command::Help),
        Some("list") => Ok(Command::List),
        Some("run") => {
            let (mut anonymous, mut stretch) = (false, 3);
            let cell = cell_flags(&mut it, "run", 64, |flag, it| {
                match flag {
                    "--anonymous" => anonymous = true,
                    "--stretch" => stretch = at_least(it, "--stretch", 1)?,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            Ok(Command::Run(RunArgs {
                cell,
                anonymous,
                stretch,
            }))
        }
        Some("sweep") => {
            let (mut runs, mut threads, mut drop) = (16, 1, 0.0);
            let (mut journal, mut resume, mut max_retries) = (None, false, 0);
            let (mut cell_timeout, mut allow_degraded) = (None, false);
            let cell = cell_flags(&mut it, "sweep", 64, |flag, it| {
                match flag {
                    "--runs" => runs = at_least(it, "--runs", 1)?,
                    "--threads" => threads = int(it, "--threads")?,
                    "--drop" => drop = drop_prob(it)?,
                    "--journal" => journal = Some(value(it, "--journal")?.clone()),
                    "--resume" => resume = true,
                    "--max-retries" => max_retries = int(it, "--max-retries")?,
                    "--cell-timeout" => {
                        cell_timeout = Some(parsed(it, "--cell-timeout", "a step count")?);
                    }
                    "--allow-degraded" => allow_degraded = true,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            cell.task.spec_names("sweep")?;
            if resume && journal.is_none() {
                return Err("--resume requires --journal".into());
            }
            Ok(Command::Sweep(SweepArgs {
                cell,
                runs,
                threads,
                drop,
                journal,
                resume,
                max_retries,
                cell_timeout,
                allow_degraded,
            }))
        }
        Some("trace") => {
            let (mut drop, mut out) = (0.0, None);
            let cell = cell_flags(&mut it, "trace", 32, |flag, it| {
                match flag {
                    "--drop" => drop = drop_prob(it)?,
                    "--out" => out = Some(value(it, "--out")?.clone()),
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            cell.task.spec_names("trace")?;
            Ok(Command::Trace(TraceArgs { cell, drop, out }))
        }
        Some("trace-diff") => {
            let mut file = || {
                it.next()
                    .cloned()
                    .ok_or("trace-diff needs two JSONL files".to_string())
            };
            let (left, right) = (file()?, file()?);
            if let Some(extra) = it.next() {
                return Err(format!("unexpected argument {extra:?}"));
            }
            Ok(Command::TraceDiff(TraceDiffArgs { left, right }))
        }
        Some("experiments") => {
            let (mut a, mut all, mut seen) = (ExperimentsArgs::default(), false, Vec::new());
            each_flag(&mut it, |arg, it| {
                if arg.starts_with("--") {
                    if seen.contains(&arg.to_string()) {
                        return Err(format!("repeated flag {arg:?}"));
                    }
                    seen.push(arg.to_string());
                }
                match arg {
                    "--large" => a.large = true,
                    "--threads" => a.threads = int(it, "--threads")?,
                    "--json-dir" => a.json_dir = Some(value(it, "--json-dir")?.into()),
                    "--journal-dir" => a.journal_dir = Some(value(it, "--journal-dir")?.into()),
                    "--resume" => a.resume = true,
                    "all" => all = true,
                    flag if flag.starts_with("--") => return Ok(false),
                    id if experiments::find(id).is_some() => a.ids.push(id.to_string()),
                    id => {
                        return Err(format!(
                            "unknown experiment id {id:?} (known: {})",
                            names(&EXPERIMENTS, " ")
                        ))
                    }
                }
                Ok(true)
            })?;
            if a.resume && a.journal_dir.is_none() {
                return Err("--resume requires --journal-dir".into());
            }
            if all || a.ids.is_empty() {
                a.ids = EXPERIMENTS.map(|(id, _)| id.to_string()).to_vec();
            }
            Ok(Command::Experiments(a))
        }
        Some("spec") => {
            let name = it
                .next()
                .ok_or_else(|| format!("spec needs an experiment name ({})", names(&SPECS, ", ")))?
                .clone();
            let mut large = false;
            each_flag(&mut it, |flag, _| {
                large |= flag == "--large";
                Ok(flag == "--large")
            })?;
            Ok(Command::Spec(SpecArgs { name, large }))
        }
        Some("serve") => {
            let mut a = ServeArgs {
                addr: "127.0.0.1:7401".to_string(),
                journal_dir: None,
                jobs: 1,
                workers: 2,
            };
            each_flag(&mut it, |flag, it| {
                match flag {
                    "--addr" => a.addr = value(it, "--addr")?.clone(),
                    "--journal-dir" => a.journal_dir = Some(value(it, "--journal-dir")?.clone()),
                    "--jobs" => a.jobs = at_least(it, "--jobs", 1)?,
                    "--workers" => a.workers = int(it, "--workers")?,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            Ok(Command::Serve(a))
        }
        Some("work") => {
            let mut a = WorkArgs {
                connect: "127.0.0.1:7401".to_string(),
                threads: 2,
                journal_dir: None,
                die_mid_shard: None,
                poll_ms: 50,
                name: "worker".to_string(),
            };
            each_flag(&mut it, |flag, it| {
                match flag {
                    "--connect" => a.connect = value(it, "--connect")?.clone(),
                    "--threads" => a.threads = int(it, "--threads")?,
                    "--journal-dir" => a.journal_dir = Some(value(it, "--journal-dir")?.clone()),
                    "--die-mid-shard" => match int(it, "--die-mid-shard")? {
                        0 => return Err("--die-mid-shard counts claimed shards from 1".into()),
                        k => a.die_mid_shard = Some(k),
                    },
                    "--poll-ms" => a.poll_ms = int(it, "--poll-ms")?,
                    "--name" => a.name = value(it, "--name")?.clone(),
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            Ok(Command::Work(a))
        }
        Some("submit") => {
            let (mut connect, mut spec, mut out) = ("127.0.0.1:7401".to_string(), None, None);
            let (mut poll_ms, mut fresh) = (100, false);
            each_flag(&mut it, |flag, it| {
                match flag {
                    "--connect" => connect = value(it, "--connect")?.clone(),
                    "--spec" => spec = Some(value(it, "--spec")?.clone()),
                    "--out" => out = Some(value(it, "--out")?.clone()),
                    "--poll-ms" => poll_ms = int(it, "--poll-ms")?,
                    "--fresh" => fresh = true,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            Ok(Command::Submit(SubmitArgs {
                connect,
                spec: spec.ok_or("submit requires --spec".to_string())?,
                out,
                poll_ms,
                fresh,
            }))
        }
        Some(other) => Err(format!("unknown subcommand {other:?}")),
    }
}

/// The names of a `(name, …)` table, joined by `sep`.
fn names<T>(table: &[(&str, T)], sep: &str) -> String {
    table
        .iter()
        .map(|(name, _)| *name)
        .collect::<Vec<_>>()
        .join(sep)
}

/// The `help` text.
pub fn usage() -> String {
    format!(
        "oraclesize — run oracle-assisted communication tasks (PODC 2006)\n\n\
         USAGE:\n  oraclesize run --task <task> [--family <family>] [--n <size>]\n\
         \x20                [--source <node>] [--scheduler fifo|lifo|random|starve]\n\
         \x20                [--anonymous] [--seed <u64>] [--stretch <t>]\n\
         \x20 oraclesize sweep --task broadcast|wakeup|flood [--runs <k>]\n\
         \x20                [--threads <t>] [--drop <p>] [--family <family>]\n\
         \x20                [--n <size>] [--scheduler <s>] [--seed <u64>]\n\
         \x20                [--journal <file>] [--resume] [--max-retries <k>]\n\
         \x20                [--cell-timeout <steps>] [--allow-degraded]\n\
         \x20 oraclesize trace --task broadcast|wakeup|flood [--family <family>]\n\
         \x20                [--n <size>] [--source <node>] [--scheduler <s>]\n\
         \x20                [--drop <p>] [--seed <u64>] [--out <file.jsonl>]\n\
         \x20 oraclesize trace-diff <left.jsonl> <right.jsonl>\n\
         \x20 oraclesize experiments [--large] [--threads <t>] [--json-dir <dir>]\n\
         \x20                [--journal-dir <dir>] [--resume]\n\
         \x20                [<id>...|all]\n\
         \x20 oraclesize spec <{}> [--large]\n\
         \x20 oraclesize serve [--addr <host:port>] [--journal-dir <dir>]\n\
         \x20                [--jobs <k>] [--workers <k>]\n\
         \x20 oraclesize work [--connect <host:port>] [--threads <t>]\n\
         \x20                [--journal-dir <dir>] [--die-mid-shard <k>]\n\
         \x20                [--poll-ms <ms>] [--name <worker>]\n\
         \x20 oraclesize submit --spec <file.json> [--connect <host:port>]\n\
         \x20                [--out <file.json>] [--poll-ms <ms>] [--fresh]\n\
         \x20 oraclesize list\n\n\
         TASKS:    {}\nFAMILIES: {}\nEXPERIMENTS: {}\nSPECS:    {}\n",
        names(&SPECS, "|"),
        names(&Task::ALL, " "),
        Family::ALL.map(|f| f.name()).join(" "),
        names(&EXPERIMENTS, " "),
        names(&SPECS, ", "),
    )
}

/// Executes a parsed command and renders its report.
///
/// # Errors
///
/// Engine errors, verification failures, or invalid combinations (e.g.
/// `hs-election` off a cycle).
pub fn run_command(cmd: &Command) -> Result<String, String> {
    run_command_status(cmd).map(|(report, _)| report)
}

/// Like [`run_command`], but also reports whether the run is *healthy*:
/// `false` means the report is valid yet the process should exit nonzero
/// — a sweep finished with degraded cells (retries were needed, or faults
/// left nodes uninformed) and `--allow-degraded` was not passed.
///
/// # Errors
///
/// Same as [`run_command`]; aborted sweep cells are errors, not
/// degradation.
pub fn run_command_status(cmd: &Command) -> Result<(String, bool), String> {
    match cmd {
        Command::Help => Ok((usage(), true)),
        Command::List => {
            let mut out = String::new();
            let _ = writeln!(out, "families: {}", Family::ALL.map(|f| f.name()).join(" "));
            let _ = writeln!(out, "tasks:    {}", names(&Task::ALL, " "));
            let _ = writeln!(out, "experiments: {}", names(&EXPERIMENTS, " "));
            let _ = writeln!(out, "specs:    {}", names(&SPECS, " "));
            Ok((out, true))
        }
        Command::Run(args) => run_task(args).map(|r| (r, true)),
        Command::Sweep(args) => run_sweep(args),
        Command::Trace(args) => run_trace(args).map(|r| (r, true)),
        Command::TraceDiff(args) => run_trace_diff(args).map(|r| (r, true)),
        Command::Experiments(args) => {
            let mut out = String::new();
            run_experiments(args, &mut |s| out.push_str(s), &mut |_, _| String::new())?;
            Ok((out, true))
        }
        Command::Spec(args) => render_spec(args).map(|r| (r, true)),
        Command::Serve(args) => run_serve(args).map(|r| (r, true)),
        Command::Work(args) => run_work(args).map(|r| (r, true)),
        Command::Submit(args) => run_submit(args).map(|r| (r, true)),
    }
}

/// Runs the requested experiments in order, streaming the report to
/// `out`: a header, then each experiment's section followed by
/// `footer(id, stats)` and a blank line, where `stats` is that
/// experiment's share of the scheduling telemetry. Everything but the
/// footers is identical at any thread count.
///
/// # Errors
///
/// The first experiment failure: an unwritable `--json-dir`, or an
/// interrupted grid sweep.
pub fn run_experiments(
    args: &ExperimentsArgs,
    out: &mut dyn FnMut(&str),
    footer: &mut dyn FnMut(&str, &SchedStats) -> String,
) -> Result<(), String> {
    let opts = ExpOptions {
        large: args.large,
        threads: args.threads,
        json_dir: args.json_dir.clone(),
        journal_dir: args.journal_dir.clone(),
        resume: args.resume,
        ..ExpOptions::default()
    };
    out(&format!(
        "# oraclesize experiment report\n\n\
         generated by `experiments {}{}` (seed {MASTER_SEED})\n\n",
        if args.large { "--large " } else { "" },
        args.ids.join(" "),
    ));
    for id in &args.ids {
        let (id, run) =
            experiments::find(id).ok_or_else(|| format!("unknown experiment id {id:?}"))?;
        let report = run(&opts)?;
        let stats = opts.take_stats();
        out(&format!("{report}\n{}\n", footer(id, &stats)));
    }
    Ok(())
}

/// Looks up a committed experiment's canonical spec and renders it as
/// one JSON document (what `submit --spec` consumes).
fn render_spec(args: &SpecArgs) -> Result<String, String> {
    let (_, build) = SPECS
        .into_iter()
        .find(|(name, _)| *name == args.name)
        .ok_or_else(|| {
            format!(
                "unknown spec {:?} (expected {})",
                args.name,
                names(&SPECS, ", ")
            )
        })?;
    Ok(format!("{}\n", build(args.large).render()))
}

/// Runs the sweep service's server until every job has been delivered.
fn run_serve(args: &ServeArgs) -> Result<String, String> {
    let server = Server::bind(ServerConfig {
        addr: args.addr.clone(),
        journal_dir: args.journal_dir.as_ref().map(std::path::PathBuf::from),
        jobs: args.jobs,
        workers_hint: args.workers,
    })
    .map_err(|e| format!("bind {}: {e}", args.addr))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    eprintln!("serve: listening on {addr} ({} job(s))", args.jobs);
    server.run().map_err(|e| format!("serve: {e}"))?;
    Ok(format!("served {} job(s) on {addr}\n", args.jobs))
}

/// Runs one sweep worker until the server signals shutdown.
fn run_work(args: &WorkArgs) -> Result<String, String> {
    let outcome = oraclesize_service::run_worker(&WorkerConfig {
        connect: args.connect.clone(),
        threads: args.threads,
        journal_dir: args.journal_dir.as_ref().map(std::path::PathBuf::from),
        poll_ms: args.poll_ms,
        die_mid_shard: args.die_mid_shard,
        name: args.name.clone(),
    })?;
    Ok(match outcome {
        WorkerOutcome::Finished { shards, cells } => format!(
            "worker {}: finished ({shards} shard(s), {cells} cell(s))\n",
            args.name
        ),
        WorkerOutcome::Died { shards } => format!(
            "worker {}: die-mid-shard drill fired after {shards} completed shard(s)\n",
            args.name
        ),
    })
}

/// Submits a spec file to a running server and returns (or writes) the
/// merged artifact.
fn run_submit(args: &SubmitArgs) -> Result<String, String> {
    let text = std::fs::read_to_string(&args.spec)
        .map_err(|e| format!("cannot read {:?}: {e}", args.spec))?;
    let artifact = oraclesize_service::submit(&args.connect, &text, !args.fresh, args.poll_ms)?;
    match &args.out {
        Some(path) => {
            if let Some(dir) = std::path::Path::new(path)
                .parent()
                .filter(|d| !d.as_os_str().is_empty())
            {
                std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
            }
            std::fs::write(path, &artifact).map_err(|e| format!("cannot write {path:?}: {e}"))?;
            Ok(format!("wrote:        {path} ({} bytes)\n", artifact.len()))
        }
        None => Ok(artifact),
    }
}

fn run_task(args: &RunArgs) -> Result<String, String> {
    let cell = &args.cell;
    if cell.task == Task::HsElection && cell.family != Family::Cycle {
        return Err("hs-election requires --family cycle".into());
    }
    let mut rng = StdRng::seed_from_u64(cell.seed);
    let g = cell.family.build(cell.n, &mut rng);
    if cell.source >= g.num_nodes() {
        return Err(format!(
            "--source {} out of range (graph has {} nodes)",
            cell.source,
            g.num_nodes()
        ));
    }
    let mut config = if cell.task == Task::Wakeup {
        SimConfig::wakeup()
    } else {
        SimConfig::broadcast()
    };
    if let Some(kind) = cell.scheduler {
        config = config.with_scheduler(kind);
    }
    let config = config.with_anonymous(args.anonymous);
    if args.anonymous
        && matches!(
            cell.task,
            Task::Gossip | Task::Election | Task::FloodMax | Task::HsElection
        )
    {
        return Err("this task needs node identities; drop --anonymous".into());
    }

    let exec = |oracle: &dyn oraclesize_sim::Oracle,
                protocol: &dyn oraclesize_sim::Protocol|
     -> Result<OracleRun, String> {
        execute(&g, cell.source, oracle, protocol, &config).map_err(|e| e.to_string())
    };

    let informed = |r: OracleRun| {
        let v = verdict(r.outcome.all_informed());
        (r, v.to_string())
    };
    let (run, verification) = match cell.task {
        Task::Broadcast => informed(exec(&LightTreeOracle, &SchemeB)?),
        Task::Wakeup => informed(exec(&SpanningTreeOracle::default(), &TreeWakeup)?),
        Task::Flood => informed(exec(&EmptyOracle, &FloodOnce)?),
        Task::Gossip => {
            let r = exec(&GossipOracle::default(), &TreeGossip)?;
            let complete = r.outcome.outputs.len() == g.num_nodes()
                && r.outcome.outputs.iter().all(|o| {
                    o.as_ref()
                        .and_then(decode_gossip_output)
                        .is_some_and(|s| s.len() == g.num_nodes())
                });
            let v = if complete {
                "all nodes know all values"
            } else {
                "INCOMPLETE"
            };
            (r, v.to_string())
        }
        Task::Election => {
            let r = exec(&ElectionOracle, &AnnouncedLeader)?;
            let leader = verify_election(&g, &r.outcome.outputs, false)?;
            (r, format!("leader {leader} agreed everywhere"))
        }
        Task::FloodMax => {
            let r = exec(&EmptyOracle, &FloodMax)?;
            let leader = verify_election(&g, &r.outcome.outputs, true)?;
            (r, format!("maximum {leader} elected everywhere"))
        }
        Task::HsElection => {
            let r = exec(&EmptyOracle, &HirschbergSinclair)?;
            let leader = verify_election(&g, &r.outcome.outputs, true)?;
            (r, format!("maximum {leader} elected everywhere"))
        }
        Task::Bfs => {
            let r = exec(&BfsTreeOracle, &ZeroMessageTree)?;
            let ports =
                collect_parent_ports(&r.outcome.outputs).ok_or("outputs failed to decode")?;
            verify_bfs_tree(&g, cell.source, &ports)?;
            (r, "verified BFS tree".to_string())
        }
        Task::Mst => {
            let r = exec(&MstOracle, &ZeroMessageTree)?;
            let ports =
                collect_parent_ports(&r.outcome.outputs).ok_or("outputs failed to decode")?;
            verify_mst(&g, cell.source, &ports)?;
            (r, "verified minimum spanning tree".to_string())
        }
        Task::DistBfs => {
            let r = exec(&EmptyOracle, &DistributedBfs)?;
            let ports =
                collect_parent_ports(&r.outcome.outputs).ok_or("outputs failed to decode")?;
            let v = if cell.scheduler.is_none() {
                verify_bfs_tree(&g, cell.source, &ports)?;
                "verified BFS tree".to_string()
            } else {
                "spanning tree (async: BFS property not guaranteed)".to_string()
            };
            (r, v)
        }
        Task::Spanner => {
            let r = exec(&SpannerOracle::new(args.stretch), &ZeroMessageTree)?;
            let sets = collect_port_sets(&r.outcome.outputs).ok_or("outputs failed to decode")?;
            let edges = verify_spanner(&g, &sets, args.stretch)?;
            (
                r,
                format!("verified {}-spanner with {edges} edges", args.stretch),
            )
        }
    };

    let mut out = graph_line(cell.family, &g);
    let _ = writeln!(
        out,
        "execution:    {}{}",
        cell.scheduler.map_or("synchronous", |k| k.name()),
        if args.anonymous { ", anonymous" } else { "" }
    );
    let _ = writeln!(out, "oracle bits:  {}", run.oracle_bits);
    let _ = writeln!(out, "messages:     {}", run.outcome.metrics.messages);
    let _ = writeln!(out, "payload bits: {}", run.outcome.metrics.payload_bits);
    let _ = writeln!(out, "rounds:       {}", run.outcome.metrics.rounds);
    let _ = writeln!(out, "result:       {verification}");
    Ok(out)
}

/// Lowers the sweep flags into the runtime's canonical [`SweepSpec`] —
/// the same job description the bench grids and the sweep service
/// consume, so a CLI sweep can be replayed (or distributed) verbatim.
/// One instance, one cell per seeded run.
pub fn sweep_spec(args: &SweepArgs) -> Result<SweepSpec, String> {
    let seeds = (0..args.runs).map(|k| {
        (
            format!("run-{k}"),
            args.cell.seed.wrapping_add(k as u64 + 1),
        )
    });
    let mut spec = lower_cells("sweep", &args.cell, args.drop, seeds)?;
    spec.knobs = KnobSpec {
        max_retries: args.max_retries,
        cell_timeout: args.cell_timeout,
    };
    Ok(spec)
}

/// Lowers a task on one instance into a spec named `{cmd}-{task}` with
/// one cell per `(label, seed)`. A `random` scheduler and any fault plan
/// take the cell's seed, so the cells stay independent; a drop
/// probability is quantized to parts-per-million.
fn lower_cells(
    cmd: &str,
    cell: &CellArgs,
    drop: f64,
    seeds: impl IntoIterator<Item = (String, u64)>,
) -> Result<SweepSpec, String> {
    let (oracle, scheme, mode) = cell.task.spec_names(cmd)?;
    let mut spec = SweepSpec::new(format!("{cmd}-{}", cell.task.name()), cell.seed);
    spec.instances.push(InstanceSpec {
        family: cell.family.name().to_string(),
        n: cell.n as u64,
        seed: cell.seed,
        p_ppm: None,
        source: cell.source as u64,
        oracle: oracle.to_string(),
    });
    for (label, seed) in seeds {
        let scheduler = cell.scheduler.map(|kind| match kind {
            SchedulerKind::Random { .. } => SchedulerSpec {
                kind: "random".to_string(),
                seed,
            },
            kind => SchedulerSpec::of(kind),
        });
        let faults = if drop > 0.0 {
            FaultSpec {
                seed,
                drop_ppm: to_ppm(drop),
                ..FaultSpec::default()
            }
        } else {
            FaultSpec::default()
        };
        spec.cells.push(CellSpec {
            label,
            instance: 0,
            scheme: scheme.to_string(),
            retries: None,
            mode: mode.to_string(),
            scheduler,
            anonymous: false,
            max_message_bits: None,
            quiescence_polls: (drop > 0.0).then_some(16),
            seed,
            faults,
        });
    }
    Ok(spec)
}

/// Lowers the flags into a [`SweepSpec`], materializes the grid with
/// [`CellGrid::from_spec`], dispatches it across the pool under
/// supervision, and folds the reports in cell order — the output is
/// identical at any `--threads` value, and (with `--journal`) across
/// kill/resume boundaries.
fn run_sweep(args: &SweepArgs) -> Result<(String, bool), String> {
    let spec = sweep_spec(args)?;
    let grid = CellGrid::from_spec(&spec)?;
    let g = &grid.requests()[0].instance.graph;

    // The spec's knobs carry the retry/watchdog flags, and its
    // per-cell seeds land in journal records, so a resume against a
    // different `--seed` re-runs cells instead of replaying them.
    let sweep_opts = SweepOptions {
        journal: args.journal.as_ref().map(std::path::PathBuf::from),
        resume: args.resume,
        ..SweepOptions::from_spec(&spec)
    };
    let sweep = run_supervised_batch(&Pool::new(args.threads), grid.requests(), &sweep_opts);
    let reports = sweep.reports();
    let mut agg = Aggregate::new();
    drain(&mut agg, &reports);
    if agg.errors > 0 {
        let first = reports
            .iter()
            .find_map(|r| r.result.as_ref().err())
            .expect("errors counted");
        return Err(format!(
            "{} of {} cells aborted: {first}",
            agg.errors, agg.cells
        ));
    }

    let cells = agg.cells;
    let mut out = graph_line(args.cell.family, g);
    let _ = writeln!(
        out,
        "sweep:        {} cells, {} thread(s), drop = {:.2}",
        cells,
        args.threads.max(1),
        args.drop
    );
    let _ = writeln!(
        out,
        "execution:    {}",
        args.cell.scheduler.map_or("synchronous", |k| k.name())
    );
    let _ = writeln!(out, "oracle bits:  {}", agg.oracle_bits / cells);
    let _ = writeln!(out, "completed:    {}/{}", agg.completed, cells);
    let _ = writeln!(
        out,
        "outcomes:     {}",
        sweep.summary().trim_start_matches("outcomes: ")
    );
    let _ = writeln!(
        out,
        "messages:     total {}, mean {:.1}, max {}",
        agg.totals.messages,
        agg.totals.messages as f64 / cells as f64,
        agg.max_messages
    );
    let _ = writeln!(
        out,
        "rounds:       total {}, max {}",
        agg.totals.rounds, agg.max_rounds
    );
    if args.drop > 0.0 {
        let _ = writeln!(out, "dropped:      {}", agg.totals.faults.dropped);
    }
    for warning in &sweep.warnings {
        let _ = writeln!(out, "warning:      {warning}");
    }
    // Scheduling telemetry varies with thread count and claim timing, so
    // this footer is never part of any byte-pinned artifact — the CI
    // smoke jobs and the determinism tests below filter it out before
    // diffing. (Runs/sec is appended by the binary, which owns the wall
    // clock; the library never reads it.)
    let _ = writeln!(out, "throughput:   {}", sweep.sched.footer(None));
    let healthy = !sweep.any_degraded() && agg.completed == cells;
    Ok((out, healthy || args.allow_degraded))
}

/// Lowers the flags into a one-cell [`SweepSpec`] — the sweep's lowering,
/// with the scheduler and fault seeds equal to `--seed` — materializes it
/// with [`CellGrid::from_spec`], and streams the cell's fully-traced run
/// through a JSONL sink: events are rendered as they are emitted, never
/// accumulated, and the bytes are identical on every machine for the
/// same arguments.
fn run_trace(args: &TraceArgs) -> Result<String, String> {
    let cell = [("trace".to_string(), args.cell.seed)];
    let grid = CellGrid::from_spec(&lower_cells("trace", &args.cell, args.drop, cell)?)?;
    let request = &grid.requests()[0];
    let g = &request.instance.graph;
    let mut sink = JsonlSink::new(0);
    let outcome = run_streamed(
        &request.instance,
        request.protocol.as_ref(),
        &request.config,
        &mut sink,
    )
    .map_err(|e| e.to_string())?;
    let events = sink.len();
    let jsonl = sink.into_string();
    match &args.out {
        Some(path) => {
            std::fs::write(path, &jsonl).map_err(|e| format!("cannot write {path:?}: {e}"))?;
            let mut out = format!("wrote:        {path} ({events} events)\n");
            out += &graph_line(args.cell.family, g);
            let _ = writeln!(out, "messages:     {}", outcome.metrics.messages);
            let _ = writeln!(out, "rounds:       {}", outcome.metrics.rounds);
            let _ = writeln!(out, "result:       {}", verdict(outcome.all_informed()));
            Ok(out)
        }
        None => Ok(jsonl),
    }
}

/// The `graph:` line that opens a report.
fn graph_line(family: Family, g: &PortGraph) -> String {
    let (n, m) = (g.num_nodes(), g.num_edges());
    format!("graph:        {} (n = {n}, m = {m})\n", family.name())
}

/// The `result:` line of a dissemination run.
fn verdict(all_informed: bool) -> &'static str {
    if all_informed {
        "all informed"
    } else {
        "INCOMPLETE"
    }
}

/// Compares two JSONL trace artifacts line by line and reports either
/// byte-identity or the first divergence with its node/round context.
/// Divergence is a *finding*, not a usage error, so it renders as normal
/// output.
fn run_trace_diff(args: &TraceDiffArgs) -> Result<String, String> {
    let read = |path: &String| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))
    };
    let left = read(&args.left)?;
    let right = read(&args.right)?;
    let mut out = diff_lines(&left, &right).render();
    out.push('\n');
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_help_and_list() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&args(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&args(&["list"])).unwrap(), Command::List);
        assert!(parse_args(&args(&["bogus"])).is_err());
    }

    #[test]
    fn parse_run_defaults_and_flags() {
        let cmd = parse_args(&args(&[
            "run",
            "--task",
            "broadcast",
            "--family",
            "complete",
            "--n",
            "32",
            "--scheduler",
            "lifo",
            "--anonymous",
            "--seed",
            "7",
        ]))
        .unwrap();
        let Command::Run(a) = cmd else {
            panic!("not run")
        };
        assert_eq!(a.cell.task, Task::Broadcast);
        assert_eq!(a.cell.family, Family::Complete);
        assert_eq!(a.cell.n, 32);
        assert_eq!(a.cell.scheduler, Some(SchedulerKind::Lifo));
        assert!(a.anonymous);
        assert_eq!(a.cell.seed, 7);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse_args(&args(&["run"])).is_err()); // no task
        assert!(parse_args(&args(&["run", "--task", "nope"])).is_err());
        assert!(parse_args(&args(&["run", "--task", "wakeup", "--family", "nope"])).is_err());
        assert!(parse_args(&args(&["run", "--task", "wakeup", "--n"])).is_err());
        assert!(parse_args(&args(&["run", "--task", "wakeup", "--wat"])).is_err());
        // Every family needs at least four nodes; smaller sizes are usage
        // errors, not constructor panics.
        for cmd in ["run", "sweep", "trace"] {
            let err = parse_args(&args(&[cmd, "--task", "wakeup", "--n", "3"])).unwrap_err();
            assert_eq!(err, "--n must be at least 4", "{cmd}");
        }
        // A 0-spanner does not exist; the stretch is not silently raised.
        let err = parse_args(&args(&["run", "--task", "spanner", "--stretch", "0"])).unwrap_err();
        assert_eq!(err, "--stretch must be at least 1");
    }

    #[test]
    fn random_scheduler_takes_the_final_seed() {
        for argv in [
            [
                "run",
                "--task",
                "flood",
                "--scheduler",
                "random",
                "--seed",
                "9",
            ],
            [
                "run",
                "--task",
                "flood",
                "--seed",
                "9",
                "--scheduler",
                "random",
            ],
        ] {
            let Command::Run(a) = parse_args(&args(&argv)).unwrap() else {
                panic!("not run")
            };
            assert_eq!(a.cell.scheduler, Some(SchedulerKind::Random { seed: 9 }));
        }
        let err = parse_args(&args(&["run", "--task", "flood", "--scheduler", "psychic"]));
        assert_eq!(err.unwrap_err(), "unknown scheduler \"psychic\"");
    }

    #[test]
    fn parse_experiments_flags() {
        let cmd = parse_args(&args(&[
            "experiments",
            "--large",
            "--threads",
            "4",
            "--json-dir",
            "out",
            "--journal-dir",
            "ckpt",
            "--resume",
            "T10",
            "scale",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Experiments(ExperimentsArgs {
                ids: vec!["T10".to_string(), "scale".to_string()],
                large: true,
                threads: 4,
                json_dir: Some(PathBuf::from("out")),
                journal_dir: Some(PathBuf::from("ckpt")),
                resume: true,
            })
        );
        // No ids, or `all` anywhere, selects every experiment in order.
        let every: Vec<String> = EXPERIMENTS.iter().map(|(id, _)| id.to_string()).collect();
        for argv in [&["experiments"][..], &["experiments", "t9", "all"]] {
            let Command::Experiments(a) = parse_args(&args(argv)).unwrap() else {
                panic!("not experiments")
            };
            assert_eq!(a.ids, every, "{argv:?}");
        }
    }

    #[test]
    fn experiments_reject_bad_input_before_running() {
        let reject = |argv: &[&str]| {
            let mut full = vec!["experiments"];
            full.extend_from_slice(argv);
            parse_args(&args(&full)).unwrap_err()
        };
        assert!(reject(&["t9", "t99"]).starts_with("unknown experiment id \"t99\" (known: t1 t2"));
        assert_eq!(
            reject(&["t9", "--jsondir", "x"]),
            "unknown flag \"--jsondir\""
        );
        assert_eq!(
            reject(&["--threads", "2", "--threads", "3", "t9"]),
            "repeated flag \"--threads\""
        );
        assert_eq!(reject(&["--large", "--large"]), "repeated flag \"--large\"");
        assert_eq!(reject(&["--threads"]), "--threads needs a value");
        assert_eq!(reject(&["--threads", "x"]), "--threads needs an integer");
        assert_eq!(reject(&["--chunk", "1"]), "unknown flag \"--chunk\"");
        assert_eq!(
            reject(&["--resume", "t10"]),
            "--resume requires --journal-dir"
        );
    }

    #[test]
    fn experiments_report_matches_the_committed_header() {
        let cmd = parse_args(&args(&["experiments", "T9", "t9"])).unwrap();
        let report = run_command(&cmd).unwrap();
        let head = "# oraclesize experiment report\n\ngenerated by `experiments T9 t9` (seed 2006)\n\n## T9";
        assert!(report.starts_with(head), "{report}");
        // Each section ends in a blank line; without the binary's timing
        // footers nothing else separates them.
        assert_eq!(report.matches("\n\n## T9").count(), 2, "{report}");
        assert!(report.ends_with("\n\n"), "{report}");
        assert!(!report.contains("completed in"), "{report}");
    }

    #[test]
    fn every_task_runs_and_verifies() {
        for (task, _) in Task::ALL {
            let family = if task == "hs-election" {
                "cycle"
            } else {
                "random-sparse"
            };
            let cmd = parse_args(&args(&[
                "run", "--task", task, "--family", family, "--n", "24",
            ]))
            .unwrap();
            let report = run_command(&cmd).unwrap_or_else(|e| panic!("{task}: {e}"));
            assert!(report.contains("result:"), "{task}");
            assert!(!report.contains("INCOMPLETE"), "{task}");
        }
    }

    #[test]
    fn hs_election_requires_cycle() {
        let cmd = parse_args(&args(&["run", "--task", "hs-election", "--family", "grid"])).unwrap();
        assert!(run_command(&cmd).is_err());
    }

    #[test]
    fn anonymous_labeled_tasks_rejected() {
        let cmd = parse_args(&args(&[
            "run",
            "--task",
            "gossip",
            "--anonymous",
            "--family",
            "cycle",
        ]))
        .unwrap();
        assert!(run_command(&cmd).is_err());
    }

    #[test]
    fn async_runs_work() {
        let cmd = parse_args(&args(&[
            "run",
            "--task",
            "broadcast",
            "--family",
            "hypercube",
            "--n",
            "32",
            "--scheduler",
            "random",
        ]))
        .unwrap();
        let report = run_command(&cmd).unwrap();
        assert!(report.contains("all informed"));
    }

    #[test]
    fn starve_scheduler_is_exposed() {
        let cmd = parse_args(&args(&[
            "run",
            "--task",
            "broadcast",
            "--family",
            "cycle",
            "--n",
            "16",
            "--scheduler",
            "starve",
        ]))
        .unwrap();
        let Command::Run(ref a) = cmd else {
            panic!("not run")
        };
        assert_eq!(a.cell.scheduler, Some(SchedulerKind::Starve));
        let report = run_command(&cmd).unwrap();
        assert!(report.contains("all informed"));
    }

    #[test]
    fn parse_sweep_flags() {
        let cmd = parse_args(&args(&[
            "sweep",
            "--task",
            "flood",
            "--family",
            "cycle",
            "--n",
            "20",
            "--runs",
            "8",
            "--threads",
            "3",
            "--drop",
            "0.25",
            "--seed",
            "11",
            "--journal",
            "ckpt.journal",
            "--resume",
            "--max-retries",
            "2",
            "--cell-timeout",
            "5000",
            "--allow-degraded",
        ]))
        .unwrap();
        let Command::Sweep(a) = cmd else {
            panic!("not sweep")
        };
        assert_eq!(a.cell.task, Task::Flood);
        assert_eq!(a.cell.family, Family::Cycle);
        assert_eq!(a.runs, 8);
        assert_eq!(a.threads, 3);
        assert_eq!(a.drop, 0.25);
        assert_eq!(a.cell.seed, 11);
        assert_eq!(a.journal.as_deref(), Some("ckpt.journal"));
        assert!(a.resume);
        assert_eq!(a.max_retries, 2);
        assert_eq!(a.cell_timeout, Some(5000));
        assert!(a.allow_degraded);
    }

    #[test]
    fn sweep_rejects_unsupported_input() {
        assert!(parse_args(&args(&["sweep"])).is_err()); // no task
        assert!(parse_args(&args(&["sweep", "--task", "gossip"])).is_err());
        assert!(parse_args(&args(&["sweep", "--task", "flood", "--drop", "1.5"])).is_err());
        assert!(parse_args(&args(&["sweep", "--task", "flood", "--runs", "0"])).is_err());
        assert!(parse_args(&args(&["sweep", "--task", "flood", "--max-retries", "x"])).is_err());
        // Chunk sizes come from cost hints; there is no knob.
        assert_eq!(
            parse_args(&args(&["sweep", "--task", "flood", "--chunk", "1"])).unwrap_err(),
            "unknown flag \"--chunk\""
        );
        // --resume without a journal has nothing to resume from.
        assert!(parse_args(&args(&["sweep", "--task", "flood", "--resume"])).is_err());
    }

    #[test]
    fn sweep_output_is_thread_count_invariant() {
        let base = ["sweep", "--task", "wakeup", "--n", "24", "--runs", "6"];
        let serial = {
            let cmd = parse_args(&args(&base)).unwrap();
            run_command(&cmd).unwrap()
        };
        assert!(serial.contains("completed:    6/6"), "{serial}");
        assert!(serial.contains("throughput:"), "{serial}");
        for threads in ["2", "8", "16"] {
            let mut argv: Vec<&str> = base.to_vec();
            argv.extend(["--threads", threads]);
            let cmd = parse_args(&args(&argv)).unwrap();
            let parallel = run_command(&cmd).unwrap();
            // The thread count is echoed in the header and the
            // throughput footer is scheduling telemetry; everything
            // else must match the serial run byte for byte.
            let tail = |s: &str| {
                s.lines()
                    .filter(|l| !l.starts_with("sweep:") && !l.starts_with("throughput:"))
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            assert_eq!(tail(&serial), tail(&parallel), "threads = {threads}");
        }
    }

    #[test]
    fn sweep_with_drops_degrades_not_errors() {
        let cmd = parse_args(&args(&[
            "sweep",
            "--task",
            "broadcast",
            "--n",
            "24",
            "--runs",
            "4",
            "--drop",
            "0.3",
        ]))
        .unwrap();
        let (report, healthy) = run_command_status(&cmd).unwrap();
        assert!(report.contains("dropped:"), "{report}");
        // The health flag mirrors the completion count: exit zero iff
        // every cell finished its task despite the drops.
        assert_eq!(healthy, report.contains("completed:    4/4"), "{report}");
    }

    #[test]
    fn degraded_sweeps_fail_unless_allowed() {
        let base = [
            "sweep",
            "--task",
            "broadcast",
            "--n",
            "24",
            "--runs",
            "2",
            "--drop",
            "0.9",
        ];
        let cmd = parse_args(&args(&base)).unwrap();
        let (report, healthy) = run_command_status(&cmd).unwrap();
        assert!(
            !healthy,
            "90% drop should leave nodes uninformed:\n{report}"
        );
        assert!(!report.contains("completed:    2/2"), "{report}");

        let mut argv = base.to_vec();
        argv.push("--allow-degraded");
        let cmd = parse_args(&args(&argv)).unwrap();
        let (_, healthy) = run_command_status(&cmd).unwrap();
        assert!(healthy, "--allow-degraded must forgive degradation");
    }

    #[test]
    fn sweep_journal_resume_replays_cells() {
        let dir =
            std::env::temp_dir().join(format!("oraclesize-cli-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("wakeup.journal");
        let journal = journal.to_str().unwrap();
        let base = ["sweep", "--task", "wakeup", "--n", "24", "--runs", "6"];
        let run = |extra: &[&str]| {
            let mut argv = base.to_vec();
            argv.extend_from_slice(extra);
            let cmd = parse_args(&args(&argv)).unwrap();
            run_command_status(&cmd).unwrap()
        };
        let (fresh, healthy) = run(&["--journal", journal]);
        assert!(healthy);
        assert!(fresh.contains("6 completed, 0 resumed"), "{fresh}");
        let (resumed, healthy) = run(&["--journal", journal, "--resume"]);
        assert!(healthy);
        assert!(resumed.contains("0 completed, 6 resumed"), "{resumed}");
        // Only the outcome classification (and scheduling telemetry) may
        // differ; every measured number is replayed byte for byte from
        // the checkpoints.
        let tail = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("outcomes:") && !l.starts_with("throughput:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(tail(&fresh), tail(&resumed));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_service_subcommands() {
        let cmd = parse_args(&args(&[
            "serve",
            "--addr",
            "0.0.0.0:9000",
            "--journal-dir",
            "ckpt",
            "--jobs",
            "3",
            "--workers",
            "4",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve(ServeArgs {
                addr: "0.0.0.0:9000".to_string(),
                journal_dir: Some("ckpt".to_string()),
                jobs: 3,
                workers: 4,
            })
        );
        let cmd = parse_args(&args(&[
            "work",
            "--connect",
            "10.0.0.1:9000",
            "--threads",
            "8",
            "--die-mid-shard",
            "2",
            "--poll-ms",
            "25",
            "--name",
            "w-a",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Work(WorkArgs {
                connect: "10.0.0.1:9000".to_string(),
                threads: 8,
                journal_dir: None,
                die_mid_shard: Some(2),
                poll_ms: 25,
                name: "w-a".to_string(),
            })
        );
        let cmd = parse_args(&args(&[
            "submit",
            "--spec",
            "t10.json",
            "--out",
            "merged.json",
            "--fresh",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Submit(SubmitArgs {
                connect: "127.0.0.1:7401".to_string(),
                spec: "t10.json".to_string(),
                out: Some("merged.json".to_string()),
                poll_ms: 100,
                fresh: true,
            })
        );
        assert_eq!(
            parse_args(&args(&["spec", "scale", "--large"])).unwrap(),
            Command::Spec(SpecArgs {
                name: "scale".to_string(),
                large: true,
            })
        );
    }

    #[test]
    fn service_subcommands_reject_bad_input() {
        assert!(parse_args(&args(&["serve", "--jobs", "0"])).is_err());
        assert!(parse_args(&args(&["serve", "--wat"])).is_err());
        assert!(parse_args(&args(&["work", "--die-mid-shard", "0"])).is_err());
        assert!(parse_args(&args(&["submit"])).is_err()); // no spec
        assert!(parse_args(&args(&["spec"])).is_err()); // no name
        let err = run_command(&parse_args(&args(&["spec", "t99"])).unwrap()).unwrap_err();
        assert!(err.contains("unknown spec"), "{err}");
    }

    #[test]
    fn spec_subcommand_prints_canonical_parseable_specs() {
        for name in ["t10", "t20-corruption", "t20-drops", "t20-crashes", "scale"] {
            let cmd = parse_args(&args(&["spec", name])).unwrap();
            let text = run_command(&cmd).unwrap();
            let spec = SweepSpec::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(spec.name.to_lowercase(), spec.name, "{name}");
            assert!(!spec.cells.is_empty(), "{name}");
            // The printed form is canonical: it re-renders byte for byte.
            assert_eq!(format!("{}\n", spec.render()), text, "{name}");
        }
    }

    #[test]
    fn sweep_flags_lower_into_the_canonical_spec() {
        let cmd = parse_args(&args(&[
            "sweep",
            "--task",
            "broadcast",
            "--family",
            "hypercube",
            "--n",
            "32",
            "--runs",
            "3",
            "--scheduler",
            "random",
            "--drop",
            "0.25",
            "--seed",
            "100",
            "--max-retries",
            "2",
        ]))
        .unwrap();
        let Command::Sweep(a) = cmd else {
            panic!("not sweep")
        };
        let spec = sweep_spec(&a).unwrap();
        assert_eq!(spec.name, "sweep-broadcast");
        assert_eq!(spec.master_seed, 100);
        assert_eq!(spec.instances.len(), 1);
        assert_eq!(spec.instances[0].family, "hypercube");
        assert_eq!(spec.instances[0].oracle, "light-tree");
        assert_eq!(spec.cells.len(), 3);
        for (k, cell) in spec.cells.iter().enumerate() {
            let cell_seed = 100 + k as u64 + 1;
            assert_eq!(cell.seed, cell_seed);
            assert_eq!(cell.scheme, "scheme-b");
            assert_eq!(cell.mode, "broadcast");
            // The random scheduler and the fault plan are re-seeded per
            // cell, exactly like the pre-spec construction path.
            assert_eq!(
                cell.scheduler,
                Some(SchedulerSpec {
                    kind: "random".to_string(),
                    seed: cell_seed,
                })
            );
            assert_eq!(cell.faults.seed, cell_seed);
            assert_eq!(cell.faults.drop_ppm, 250_000);
            assert_eq!(cell.quiescence_polls, Some(16));
        }
        assert_eq!(spec.knobs.max_retries, 2);
        // The lowered spec survives the wire format losslessly.
        assert_eq!(SweepSpec::parse(&spec.render()).unwrap(), spec);

        // Fault-free sweeps keep the engine's quiescence default.
        let Command::Sweep(a) =
            parse_args(&args(&["sweep", "--task", "wakeup", "--runs", "2"])).unwrap()
        else {
            panic!("not sweep")
        };
        let spec = sweep_spec(&a).unwrap();
        assert_eq!(spec.instances[0].oracle, "spanning-tree");
        assert_eq!(spec.cells[0].mode, "wakeup");
        assert_eq!(spec.cells[0].quiescence_polls, None);
        assert_eq!(spec.cells[0].faults, FaultSpec::default());
        assert_eq!(spec.cells[0].scheduler, None);
    }

    #[test]
    fn usage_lists_everything() {
        let u = usage();
        for (t, _) in Task::ALL {
            assert!(u.contains(t), "usage missing task {t}");
        }
        assert!(u.contains("sweep"), "usage missing sweep subcommand");
        assert!(u.contains("--threads"), "usage missing --threads");
        assert!(!u.contains("--chunk"), "usage still lists --chunk");
        assert!(u.contains("trace-diff"), "usage missing trace-diff");
        assert!(u.contains("--out"), "usage missing --out");
        assert!(u.contains("--journal"), "usage missing --journal");
        assert!(u.contains("--resume"), "usage missing --resume");
        assert!(u.contains("--max-retries"), "usage missing --max-retries");
        assert!(u.contains("--cell-timeout"), "usage missing --cell-timeout");
        assert!(
            u.contains("--allow-degraded"),
            "usage missing --allow-degraded"
        );
        for sub in ["spec", "serve", "work", "submit"] {
            assert!(u.contains(sub), "usage missing {sub} subcommand");
        }
        assert!(
            u.contains("--die-mid-shard"),
            "usage missing --die-mid-shard"
        );
        assert!(u.contains("--journal-dir"), "usage missing --journal-dir");
        assert!(u.contains("t20-crashes"), "usage missing spec names");
    }

    #[test]
    fn parse_trace_flags() {
        let cmd = parse_args(&args(&[
            "trace",
            "--task",
            "flood",
            "--family",
            "torus",
            "--n",
            "16",
            "--scheduler",
            "lifo",
            "--drop",
            "0.1",
            "--seed",
            "5",
            "--out",
            "t.jsonl",
        ]))
        .unwrap();
        let Command::Trace(a) = cmd else {
            panic!("not trace")
        };
        assert_eq!(a.cell.task, Task::Flood);
        assert_eq!(a.cell.family, Family::Torus);
        assert_eq!(a.cell.n, 16);
        assert_eq!(a.cell.scheduler, Some(SchedulerKind::Lifo));
        assert_eq!(a.drop, 0.1);
        assert_eq!(a.cell.seed, 5);
        assert_eq!(a.out.as_deref(), Some("t.jsonl"));
    }

    #[test]
    fn trace_rejects_unsupported_input() {
        assert!(parse_args(&args(&["trace"])).is_err()); // no task
        assert!(parse_args(&args(&["trace", "--task", "gossip"])).is_err());
        assert!(parse_args(&args(&["trace", "--task", "flood", "--drop", "2.0"])).is_err());
        assert!(parse_args(&args(&["trace-diff", "only-one.jsonl"])).is_err());
        assert!(parse_args(&args(&["trace-diff", "a", "b", "c"])).is_err());
    }

    #[test]
    fn trace_streams_parseable_deterministic_jsonl() {
        let argv = [
            "trace",
            "--task",
            "broadcast",
            "--family",
            "hypercube",
            "--n",
            "16",
        ];
        let run = || {
            let cmd = parse_args(&args(&argv)).unwrap();
            run_command(&cmd).unwrap()
        };
        let jsonl = run();
        assert!(!jsonl.is_empty());
        for line in jsonl.lines() {
            assert!(oraclesize_runtime::json::parse(line).is_some(), "{line}");
        }
        assert!(jsonl.contains("\"kind\": \"deliver\""), "{jsonl}");
        assert!(jsonl.contains("\"kind\": \"rollup\""), "{jsonl}");
        // Same arguments, same bytes: the artifact is reproducible.
        assert_eq!(jsonl, run());
    }

    /// FNV-1a over the artifact bytes: a compact pin for a whole trace.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn trace_bytes_are_pinned() {
        // (task, scheduler flags, drop) -> (JSONL length, FNV-1a digest).
        // `--seed` follows `--scheduler random` so the pin also covers
        // the seed being resolved after every flag is read.
        const SYNC: &[&str] = &[];
        const RANDOM: &[&str] = &["--scheduler", "random"];
        let pins: [(&str, &[&str], &str, usize, u64); 12] = [
            ("broadcast", SYNC, "0", 8153, 0x92c9_2ed2_7c6d_9a5a),
            ("broadcast", SYNC, "0.1", 6950, 0xac43_04e4_87d7_511e),
            ("broadcast", RANDOM, "0", 7641, 0x41d6_5b7c_fd63_daf6),
            ("broadcast", RANDOM, "0.1", 6612, 0x847b_da5d_9801_ef72),
            ("wakeup", SYNC, "0", 5462, 0x2f5b_ff2e_35e9_1776),
            ("wakeup", SYNC, "0.1", 5344, 0x0c99_66d5_cae6_d842),
            ("wakeup", RANDOM, "0", 4953, 0xcac3_3d49_25a4_7fff),
            ("wakeup", RANDOM, "0.1", 4835, 0x8b2f_dd10_a1d5_fb4f),
            ("flood", SYNC, "0", 13860, 0x79d7_1e94_8b98_4164),
            ("flood", SYNC, "0.1", 13552, 0x9581_34ab_5e74_674a),
            ("flood", RANDOM, "0", 13164, 0x4e65_b2b1_a079_1753),
            ("flood", RANDOM, "0.1", 12857, 0x0e76_b09b_8a9e_beb0),
        ];
        for (task, sched, drop, len, digest) in pins {
            let mut argv = vec![
                "trace",
                "--task",
                task,
                "--family",
                "hypercube",
                "--n",
                "16",
            ];
            argv.extend_from_slice(sched);
            argv.extend(["--seed", "7", "--drop", drop]);
            let jsonl = run_command(&parse_args(&args(&argv)).unwrap()).unwrap();
            assert_eq!(
                (jsonl.len(), fnv1a(jsonl.as_bytes())),
                (len, digest),
                "{argv:?}"
            );
        }
    }

    #[test]
    fn trace_out_writes_artifact_and_diff_reads_it() {
        let dir = std::env::temp_dir().join("oraclesize-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let left = dir.join("left.jsonl");
        let right = dir.join("right.jsonl");
        let write = |path: &std::path::Path, seed: &str| {
            let cmd = parse_args(&args(&[
                "trace",
                "--task",
                "wakeup",
                "--n",
                "12",
                "--seed",
                seed,
                "--out",
                path.to_str().unwrap(),
            ]))
            .unwrap();
            run_command(&cmd).unwrap()
        };
        let summary = write(&left, "3");
        assert!(summary.contains("wrote:"), "{summary}");
        assert!(summary.contains("all informed"), "{summary}");
        write(&right, "3");

        let diff = |l: &std::path::Path, r: &std::path::Path| {
            let cmd = parse_args(&args(&[
                "trace-diff",
                l.to_str().unwrap(),
                r.to_str().unwrap(),
            ]))
            .unwrap();
            run_command(&cmd).unwrap()
        };
        assert!(diff(&left, &right).contains("traces identical"));

        // A different seed gives a different schedule; the diff names the
        // first diverging line rather than erroring out.
        write(&right, "4");
        assert!(diff(&left, &right).contains("traces diverge at line"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
