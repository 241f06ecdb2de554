//! The sweep worker: pulls shards from a server, runs them through the
//! supervised runtime, and streams per-cell results back.
//!
//! A leased shard `lo..hi` runs as a sweep of its own: the worker passes
//! the leased slice of the grid's requests and of the spec's seeds to
//! [`run_supervised_batch`], on top of the spec's own
//! [`SweepOptions::from_spec`] lowering, and adds `lo` back to each
//! returned cell before reporting it. It is the same executor and the
//! same options a local sweep uses, which is what makes the server's
//! merged artifact byte-identical to a local run. The worker keeps one
//! lowered grid, the current job's: a shard of another job replaces it,
//! so a worker serving many jobs holds one job's graphs and advice. The
//! server sends a job's spec only with a lease whose job differs from
//! the connection's previous one, which is exactly when this cache
//! misses.
//!
//! A `Want` is answered when a shard is pending, so the worker never
//! sleeps between leases; `NoWork` means the server has finished its
//! jobs and the worker exits.
//!
//! With a journal directory configured, each shard checkpoints to its
//! own segment file (`job-<digest>-shard-<lo>-<hi>.journal`, an ordinary
//! journal of the shard's `hi - lo` cells), always opened in resume mode:
//! a fresh shard finds no file (an empty resume), while a shard requeued
//! after a worker death finds its predecessor's partial segment and
//! replays the completed cells instead of re-running them. Workers that
//! share a journal directory therefore hand work off across deaths
//! without coordination beyond the server's requeue. Once the server
//! acknowledges a shard's results the segment is deleted.

use std::path::PathBuf;

use oraclesize_bench::grid::CellGrid;
use oraclesize_runtime::journal::JournalRecord;
use oraclesize_runtime::{
    run_supervised_batch, ChaosPlan, Pool, RunReport, SweepOptions, SweepSpec,
};

use crate::connect_with_retries;
use crate::proto::{recv, send, Message};

/// How one worker connects and runs.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Server address, e.g. `127.0.0.1:7401`.
    pub connect: String,
    /// Local pool threads for running shard cells.
    pub threads: usize,
    /// Directory for per-shard segment journals; share it between
    /// workers (and their replacements) to get crash handoff.
    pub journal_dir: Option<PathBuf>,
    /// Pause in milliseconds between connect attempts while the server
    /// is not yet listening. The worker never waits for work on a timer:
    /// the server answers `Want` when a shard is pending.
    pub poll_ms: u64,
    /// Fault drill: run the Nth claimed shard (1-based) only up to its
    /// midpoint (cell `lo + (hi - lo) / 2`), journal that progress, then
    /// stop without reporting —
    /// the in-process stand-in for `kill -9` that the CI smoke job and
    /// the resume tests drive.
    pub die_mid_shard: Option<u64>,
    /// Worker name, echoed in server logs.
    pub name: String,
}

/// How a worker's session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerOutcome {
    /// The server reported all jobs done (or went away after serving
    /// them); normal shutdown.
    Finished {
        /// Shards completed and acknowledged.
        shards: u64,
        /// Cells across those shards.
        cells: u64,
    },
    /// The [`WorkerConfig::die_mid_shard`] drill fired: the shard was
    /// abandoned half-journaled and the connection dropped.
    Died {
        /// Shards completed before the drill.
        shards: u64,
    },
}

/// Runs the worker loop until the server signals shutdown.
///
/// # Errors
///
/// Returns a message when the server is unreachable before any work was
/// done, rejects a request, or sends a spec this build cannot lower.
pub fn run_worker(config: &WorkerConfig) -> Result<WorkerOutcome, String> {
    let pool = Pool::new(config.threads.max(1));
    // The job being served, lowered once for all of its shards.
    let mut current: Option<(u64, SweepSpec, CellGrid)> = None;
    let mut shards_done = 0u64;
    let mut cells_done = 0u64;
    let mut claimed = 0u64;
    let mut sessions = 0u32;
    'session: loop {
        sessions += 1;
        // After the first session, a dead server most likely finished
        // its job budget and exited while we were between requests —
        // shut down quietly rather than erroring a completed sweep.
        if sessions > 5 {
            return Ok(WorkerOutcome::Finished {
                shards: shards_done,
                cells: cells_done,
            });
        }
        let mut stream = match connect_with_retries(&config.connect, 50, config.poll_ms) {
            Ok(s) => s,
            Err(e) if sessions == 1 => return Err(format!("connect {}: {e}", config.connect)),
            Err(_) => {
                return Ok(WorkerOutcome::Finished {
                    shards: shards_done,
                    cells: cells_done,
                })
            }
        };
        loop {
            let want = Message::Want {
                worker: config.name.clone(),
            };
            if send(&mut stream, &want).is_err() {
                continue 'session;
            }
            let msg = match recv(&mut stream) {
                Ok(m) => m,
                Err(_) => continue 'session,
            };
            match msg {
                Message::Shard {
                    job,
                    shard,
                    lo,
                    hi,
                    total,
                    spec,
                } => {
                    let (lo, hi, total) = (lo as usize, hi as usize, total as usize);
                    // A shard of another job drops the previous job's grid
                    // (its graphs and advice) before lowering its own spec,
                    // so a long-lived worker holds one job's grid at most.
                    let (_, parsed, grid) = match (current.take(), spec) {
                        (Some(entry), _) if entry.0 == job => current.insert(entry),
                        (_, None) => {
                            return Err(format!(
                                "server leased shard {shard} of job {job:016x} without its spec"
                            ))
                        }
                        (stale, Some(spec)) => {
                            drop(stale);
                            let parsed = SweepSpec::from_json(&spec)
                                .map_err(|e| format!("server sent a bad spec: {e}"))?;
                            let grid = CellGrid::from_spec(&parsed)
                                .map_err(|e| format!("cannot lower job {job:016x}: {e}"))?;
                            current.insert((job, parsed, grid))
                        }
                    };
                    // The range comes off the wire: check it before slicing.
                    if hi > grid.len() || lo > hi || total != grid.len() {
                        return Err(format!(
                            "shard {lo}..{hi} of {total} does not fit the {}-cell grid",
                            grid.len()
                        ));
                    }
                    claimed += 1;
                    let dying = config.die_mid_shard == Some(claimed);
                    let opts = SweepOptions {
                        journal: config
                            .journal_dir
                            .as_ref()
                            .map(|d| d.join(format!("job-{job:016x}-shard-{lo}-{hi}.journal"))),
                        // Resuming is always safe: a fresh shard loads an
                        // empty journal, a requeued one replays its
                        // predecessor's checkpoints.
                        resume: true,
                        seeds: Some(parsed.cells[lo..hi].iter().map(|c| c.seed).collect()),
                        chaos: if dying {
                            ChaosPlan::new().die_before((hi - lo) / 2)
                        } else {
                            ChaosPlan::new()
                        },
                        ..SweepOptions::from_spec(parsed)
                    };
                    let run = run_supervised_batch(&pool, &grid.requests()[lo..hi], &opts);
                    for w in &run.warnings {
                        eprintln!("work[{}]: {w}", config.name);
                    }
                    if dying {
                        eprintln!(
                            "work[{}]: die-mid-shard drill fired on shard {shard} \
                             (cells {lo}..{hi}); abandoning it",
                            config.name
                        );
                        return Ok(WorkerOutcome::Died {
                            shards: shards_done,
                        });
                    }
                    let records: Vec<JournalRecord> = run
                        .cells
                        .into_iter()
                        .map(|c| {
                            let cell = lo + c.report.cell;
                            JournalRecord {
                                cell,
                                seed: parsed.cells[cell].seed,
                                report: RunReport { cell, ..c.report },
                            }
                        })
                        .collect();
                    let result = Message::Result {
                        job,
                        shard,
                        records,
                    };
                    if send(&mut stream, &result).is_err() {
                        continue 'session;
                    }
                    match recv(&mut stream) {
                        Ok(Message::Ack { .. }) => {}
                        Ok(Message::Error { text }) => return Err(text),
                        Ok(_) | Err(_) => continue 'session,
                    }
                    // The server holds these cells now; the segment is spent.
                    if let Some(Err(e)) = opts.journal.as_ref().map(std::fs::remove_file) {
                        if e.kind() != std::io::ErrorKind::NotFound {
                            eprintln!("work[{}]: cannot delete finished segment: {e}", config.name);
                        }
                    }
                    shards_done += 1;
                    cells_done += (hi - lo) as u64;
                }
                Message::NoWork => {
                    return Ok(WorkerOutcome::Finished {
                        shards: shards_done,
                        cells: cells_done,
                    })
                }
                Message::Error { text } => return Err(text),
                other => {
                    return Err(format!(
                        "unexpected message kind {} from server",
                        other.kind()
                    ))
                }
            }
        }
    }
}
