//! The supervision layer: the runtime's one batch executor,
//! [`run_supervised_batch`], with panic isolation, a per-cell watchdog,
//! and journal-backed resume.
//!
//! A bare pool dispatch assumes every cell runs to a report; a panicking
//! protocol or a runaway cell would take the whole sweep down with it.
//! [`run_supervised_batch`] wraps each cell in a failure model:
//!
//! * **panic isolation** — each cell runs under `catch_unwind`; a panic
//!   becomes an `Err("panic: …")` report for that cell instead of
//!   unwinding through the pool,
//! * **watchdog** — [`SuperviseConfig::cell_timeout`] caps each cell's
//!   step budget; a cell that exceeds it aborts with the engine's
//!   `StepLimit` error instead of hanging the sweep,
//! * **resume** — with a [journal] configured, completed
//!   cells are checkpointed as they finish and skipped on the next run.
//!
//! A cell runs once. Every cell is a seeded, self-contained engine run,
//! so running a failed cell again would reach the same panic, the same
//! engine abort or the same step limit: there is nothing to retry.
//!
//! Dispatch goes through the pool ([`crate::pool`]): cells are grouped
//! into chunks sized by the requests' cost hints, but supervision is
//! strictly **per sub-task** — isolation and the watchdog wrap each cell
//! inside a chunk individually, so one failing cell never aborts its
//! chunk-mates. Journal records stay per-cell and
//! are committed **in cell order** through an in-order committer:
//! out-of-order completions buffer until every lower-indexed cell has
//! settled, so the journal's bytes are identical at any thread count and
//! in any claim order — a guarantee the tests and the CI
//! determinism job diff, not a timing accident.
//!
//! A service worker runs a server-leased shard as a sweep of its own: it
//! passes the leased slice of the requests (and of their seeds) and maps
//! the returned cells back to sweep-wide indices itself.
//!
//! Every cell ends in a [`CellStatus`]: `Completed` (ran to an `Ok`
//! report), `Resumed` (replayed from the journal), or `Aborted` (failed,
//! or never ran because the sweep was interrupted). The *reports* are
//! those of [`run_cell_report`] whenever the cells themselves are
//! deterministic, so merged artifacts stay byte-identical across
//! crash/resume boundaries and supervision levels alike.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

use crate::batch::{run_cell_report, RunReport, RunRequest};
use crate::chaos::ChaosPlan;
use crate::journal::{self, Journal};
use crate::pool::{ChunkPlan, Pool, SchedStats};
use crate::spec::SweepSpec;

/// How one cell of a supervised sweep concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// Ran to an `Ok` report.
    Completed,
    /// Skipped: replayed from the checkpoint journal.
    Resumed,
    /// The cell failed (or the sweep was interrupted before it ran); the
    /// report carries the error.
    Aborted,
}

/// Watchdog policy for supervised execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SuperviseConfig {
    /// Per-cell step budget: each cell's `max_steps` is clamped to
    /// this, so a runaway cell aborts with the engine's `StepLimit`
    /// instead of hanging the sweep. `None` leaves the request's own
    /// budget in force.
    pub cell_timeout: Option<u64>,
}

/// A cell report plus its supervision verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisedReport {
    /// The report the sweep's merge step consumes — identical to
    /// [`run_cell_report`]'s for a deterministic cell.
    pub report: RunReport,
    /// How the cell concluded.
    pub status: CellStatus,
    /// 1 for a cell that ran; 0 for a `Resumed` cell or one the sweep
    /// never reached.
    pub attempts: u32,
}

/// Everything a supervised sweep needs beyond the requests themselves.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Watchdog policy.
    pub supervise: SuperviseConfig,
    /// Checkpoint journal path; `None` disables checkpointing.
    pub journal: Option<PathBuf>,
    /// `true`: load the journal at [`SweepOptions::journal`] and skip the
    /// cells it already holds. `false`: start fresh (truncating any
    /// existing file).
    pub resume: bool,
    /// Per-cell seeds recorded in (and checked against) journal records,
    /// indexed by cell; defaults to the cell index when absent. A seed
    /// mismatch on resume re-runs the cell instead of replaying a stale
    /// record.
    pub seeds: Option<Vec<u64>>,
    /// Failure injection (inert by default; see [`crate::chaos`]).
    pub chaos: ChaosPlan,
    /// Per-cell cost hints, indexed by cell, used to size chunks so cheap
    /// cells amortize scheduling overhead while expensive cells get
    /// chunks of their own. `None` takes each request's
    /// [`RunRequest::cost_hint`].
    pub costs: Option<Vec<u64>>,
}

impl SweepOptions {
    /// The run options a spec describes: the watchdog from its knobs, and
    /// the per-cell seeds its journal records carry. This is the only
    /// place a spec becomes run options; callers add their
    /// execution-only choices (journal, resume, chaos) on top.
    pub fn from_spec(spec: &SweepSpec) -> SweepOptions {
        SweepOptions {
            supervise: SuperviseConfig {
                cell_timeout: spec.knobs.cell_timeout,
            },
            seeds: Some(spec.cells.iter().map(|c| c.seed).collect()),
            ..SweepOptions::default()
        }
    }

    /// The seed journal records carry for cell `cell`.
    fn seed(&self, cell: usize) -> u64 {
        self.seeds
            .as_ref()
            .and_then(|s| s.get(cell).copied())
            .unwrap_or(cell as u64)
    }

    /// The chunk plan for running `requests` on `pool`, sized by the
    /// cells' cost hints.
    fn chunk_plan(&self, requests: &[RunRequest], pool: &Pool) -> ChunkPlan {
        let costs: Vec<u64> = match &self.costs {
            Some(costs) if costs.len() == requests.len() => costs.clone(),
            _ => requests.iter().map(RunRequest::cost_hint).collect(),
        };
        ChunkPlan::from_costs(&costs, pool.threads())
    }
}

/// The outcome of one supervised sweep.
#[derive(Debug)]
pub struct SweepRun {
    /// Per-cell verdicts, in cell order.
    pub cells: Vec<SupervisedReport>,
    /// Journal anomalies and checkpoint failures, for the report footer.
    pub warnings: Vec<String>,
    /// `true` when chaos killed the sweep mid-flight: some cells never
    /// ran and the merge step must not publish an artifact.
    pub interrupted: bool,
    /// Scheduling telemetry for the dispatch (chunks, per-worker busy
    /// shares). Nondeterministic by nature — rendered into
    /// human-readable footers only, never into artifacts or journals.
    pub sched: SchedStats,
}

impl SweepRun {
    /// The plain reports, in cell order — the input the merge step and
    /// metric sinks already understand.
    pub fn reports(&self) -> Vec<RunReport> {
        self.cells.iter().map(|c| c.report.clone()).collect()
    }

    /// One deterministic footer line, e.g.
    /// `outcomes: 5 completed, 2 resumed, 1 aborted`.
    pub fn summary(&self) -> String {
        let count = |status| self.cells.iter().filter(|c| c.status == status).count();
        format!(
            "outcomes: {} completed, {} resumed, {} aborted",
            count(CellStatus::Completed),
            count(CellStatus::Resumed),
            count(CellStatus::Aborted)
        )
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque payload".to_string()
    }
}

/// Executes one cell under the supervision policy: the watchdog caps its
/// step budget and a panic becomes an `Err("panic: …")` report.
pub fn run_cell_supervised(
    cell: usize,
    request: &RunRequest,
    sup: &SuperviseConfig,
    chaos: &ChaosPlan,
) -> SupervisedReport {
    let mut config = request.config.clone();
    if let Some(timeout) = sup.cell_timeout {
        config.max_steps = config.max_steps.min(timeout);
    }
    let request = RunRequest {
        instance: Arc::clone(&request.instance),
        protocol: Arc::clone(&request.protocol),
        config,
    };
    let caught = catch_unwind(AssertUnwindSafe(|| {
        if chaos.panics(cell) {
            crate::chaos::trigger_panic(cell);
        }
        run_cell_report(cell, &request)
    }));
    let report = caught.unwrap_or_else(|payload| RunReport {
        cell,
        result: Err(format!("panic: {}", panic_text(payload.as_ref()))),
    });
    let status = if report.result.is_ok() {
        CellStatus::Completed
    } else {
        CellStatus::Aborted
    };
    SupervisedReport {
        report,
        status,
        attempts: 1,
    }
}

/// Buffers checkpoint appends until every lower-indexed cell has
/// settled, so journal records hit the file in **cell order** no matter
/// which worker finished which cell first. With several workers,
/// completion order varies run to run; without this buffer the journal's
/// bytes would too, and the CI smoke jobs diff those bytes against a
/// serial run. The cost is a crash-safety trade: a straggler cell holds
/// back the checkpoints of later-finished cells until it settles, so a
/// hard kill may lose a few more checkpoints than completion-order
/// appends would — a resume just re-runs those cells.
///
/// The committer is also where "only settled reports are journaled"
/// holds, for the local executor and the sweep server alike: an `Err`
/// report (an aborted cell) may be transient, so it is never appended
/// and a resume re-runs the cell.
pub struct OrderedCommitter {
    journal: Option<Journal>,
    /// Cells that settled ahead of the commit cursor; `Some` holds a
    /// record still owed to the journal, `None` means the cell produced
    /// no append (resumed, interrupted or aborted).
    pending: BTreeMap<usize, Option<(u64, RunReport)>>,
    /// The next cell index the journal is waiting on.
    next: usize,
    warnings: Vec<String>,
}

impl OrderedCommitter {
    /// A committer whose cursor starts at cell 0. Every cell must
    /// eventually settle for the cursor to advance past it.
    pub fn new(journal: Option<Journal>) -> Self {
        OrderedCommitter {
            journal,
            pending: BTreeMap::new(),
            next: 0,
            warnings: Vec::new(),
        }
    }

    /// Marks `cell` settled with the report it ran to, if any, under
    /// `seed`, and flushes every record the cursor can now reach. Only an
    /// `Ok` report earns a checkpoint record.
    pub fn settle(&mut self, cell: usize, record: Option<(u64, &RunReport)>) {
        let record = record
            .filter(|(_, report)| report.result.is_ok())
            .map(|(seed, report)| (seed, report.clone()));
        self.pending.insert(cell, record);
        while let Some(entry) = self.pending.remove(&self.next) {
            if let Some((seed, report)) = entry {
                if let Some(j) = self.journal.as_mut() {
                    if let Err(e) = j.append(self.next, seed, &report) {
                        self.warnings.push(format!(
                            "journal {}: checkpoint for cell {} failed: {e}",
                            j.path().display(),
                            self.next
                        ));
                    }
                }
            }
            self.next += 1;
        }
    }
}

/// Runs a sweep's cells across the pool under supervision, checkpointing
/// and resuming through the journal when one is configured. This is the
/// runtime's only batch executor: local sweeps, bench grids, the CLI and
/// service workers all dispatch through it.
///
/// Cell `i` is `requests[i]`: every report, journal record, seed and
/// chaos decision uses that index.
///
/// The journal is opened with [`journal::open`]. Cells it replays
/// (matching seed, valid digest) return [`CellStatus::Resumed`] without
/// executing; everything else runs through [`run_cell_supervised`] and
/// settles with the [`OrderedCommitter`], which journals it unless it
/// aborted.
///
/// Journal problems never fail the sweep; they surface as warnings and
/// the sweep simply runs without checkpoints.
pub fn run_supervised_batch(pool: &Pool, requests: &[RunRequest], opts: &SweepOptions) -> SweepRun {
    let (journal, loaded) = opts.journal.as_ref().map_or_else(Default::default, |path| {
        journal::open(path, requests.len(), opts.resume, |c| opts.seed(c))
    });
    let mut done: Vec<Option<RunReport>> = vec![None; requests.len()];
    for rec in loaded.records {
        done[rec.cell] = Some(rec.report);
    }
    let mut warnings = loaded.warnings;
    let committer = Mutex::new(OrderedCommitter::new(journal));
    // Dispatch through the pool. Supervision wraps each *sub-task*
    // (cell) individually — the `catch_unwind` and the watchdog clamp
    // live inside this closure — so a panic or timeout in one sub-task
    // never aborts the rest of its chunk. Every path
    // settles the cell with the committer so the commit cursor always
    // reaches the end of the sweep.
    let plan = opts.chunk_plan(requests, pool);
    let (cells, sched): (Vec<SupervisedReport>, SchedStats) = pool.run_chunked(&plan, |cell| {
        let settle = |record: Option<(u64, &RunReport)>| {
            committer
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .settle(cell, record);
        };
        if let Some(report) = &done[cell] {
            settle(None);
            return SupervisedReport {
                report: report.clone(),
                status: CellStatus::Resumed,
                attempts: 0,
            };
        }
        if opts.chaos.dies_before(cell) {
            settle(None);
            return SupervisedReport {
                report: RunReport {
                    cell,
                    result: Err("sweep interrupted before cell ran".to_string()),
                },
                status: CellStatus::Aborted,
                attempts: 0,
            };
        }
        let sup = run_cell_supervised(cell, &requests[cell], &opts.supervise, &opts.chaos);
        settle(Some((opts.seed(cell), &sup.report)));
        sup
    });
    warnings.extend(
        committer
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .warnings,
    );
    let interrupted = cells
        .iter()
        .any(|c| c.attempts == 0 && matches!(c.status, CellStatus::Aborted));
    SweepRun {
        cells,
        warnings,
        interrupted,
        sched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CellSpec, FaultSpec, KnobSpec};

    #[test]
    fn from_spec_carries_knobs_and_seeds() {
        let mut spec = SweepSpec::new("knobs", 2006);
        for seed in [7u64, 3, 11] {
            spec.cells.push(CellSpec {
                label: format!("cell-{seed}"),
                instance: 0,
                scheme: "flood".to_string(),
                retries: None,
                mode: "broadcast".to_string(),
                scheduler: None,
                anonymous: false,
                max_message_bits: None,
                quiescence_polls: None,
                seed,
                faults: FaultSpec::default(),
            });
        }
        spec.knobs = KnobSpec {
            cell_timeout: Some(100_000),
        };
        let opts = SweepOptions::from_spec(&spec);
        assert_eq!(opts.supervise.cell_timeout, Some(100_000));
        assert_eq!(opts.seeds, Some(vec![7, 3, 11]));
        // Execution-only choices stay at their defaults.
        assert_eq!(opts.journal, None);
        assert!(!opts.resume);
        assert_eq!(opts.costs, None);
    }
}
