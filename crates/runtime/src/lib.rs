//! Parallel experiment runtime: a dependency-free worker pool and a
//! deterministic batch API for running many engine executions at once.
//!
//! Every theorem-scale experiment in this workspace sweeps *cells* — one
//! `(instance, scheme, config, seed)` combination per cell — and each cell
//! is an independent, seeded, deterministic engine run. This crate turns
//! such sweeps into a batch:
//!
//! * [`pool`] — a [`Pool`] of `std::thread` scoped workers (the
//!   workspace is offline, so no rayon; plain scoped threads are all that
//!   is needed): cells chunked by cost hints ([`ChunkPlan`]), chunks
//!   claimed off one shared atomic cursor, results merged by cell index,
//!   and out-of-band scheduling telemetry ([`SchedStats`]) for report
//!   footers,
//! * [`batch`] — [`RunRequest`] → [`RunReport`]: the cell description,
//!   the comparable, fully deterministic result record, and the one-cell
//!   runner [`run_cell_report`], and [`Aggregate`], the totals that fold
//!   reports **in cell order**, never completion order, so any thread
//!   count produces byte-identical output. Cells are built over
//!   [`oraclesize_sim::Instance`], the `Arc`-shared immutable
//!   `(graph, advice)` pair,
//! * [`json`] — the one JSON writer (insertion-ordered objects, integers
//!   only; the `BENCH_T*.json` artifacts) and the one reader ([`json::parse`]
//!   plus the strict [`json::Fields`] object reader every decoder shares),
//! * [`trace`] — deterministic JSONL rendering of engine traces
//!   ([`trace::JsonlSink`], [`trace::event_json`]) for the `trace` and
//!   `trace-diff` subcommands,
//! * [`spec`] — the canonical serializable [`SweepSpec`] job description:
//!   every sweep (bench grid, CLI flags, service submission) lowers into
//!   one spec type, [`SweepOptions::from_spec`] lowers it into run
//!   options, and the artifact renderer lives beside it,
//! * [`journal`] — the append-only checkpoint file that makes sweeps
//!   resumable: completed cells are recorded as they finish and skipped
//!   after a crash,
//! * [`supervise`] — the one batch executor, [`run_supervised_batch`]:
//!   panic isolation, bounded retries, a per-cell watchdog,
//!   journal-backed resume, and shard ranges for service workers,
//! * [`chaos`] — deterministic failure injection (worker panics, stalls,
//!   torn journal writes) for tests only.
//!
//! # Determinism contract
//!
//! For a fixed request list, [`run_supervised_batch`] returns the same
//! reports — byte for byte — at any thread count and under any chunk
//! plan. This holds because (a) every engine run is seeded and
//! self-contained, (b) reports are written into per-cell slots, not
//! appended, and (c) [`Aggregate`] folds reports in cell order. The
//! property tests in `tests/determinism.rs` pin this down.
//!
//! The contract extends across crash/resume boundaries and shards: a
//! sweep killed at any cell and resumed any number of times, or split
//! into shard ranges, yields the same reports — and therefore
//! byte-identical merged artifacts — as an uninterrupted run
//! (`tests/resume.rs`, `tests/shard.rs`, plus the bench crate's
//! artifact-level proptests).
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use oraclesize_core::oracle::EmptyOracle;
//! use oraclesize_graph::families;
//! use oraclesize_runtime::{run_supervised_batch, Pool, RunRequest, SweepOptions};
//! use oraclesize_sim::protocol::FloodOnce;
//! use oraclesize_sim::{Instance, SimConfig};
//!
//! let g = Arc::new(families::cycle(8));
//! let instance = Instance::build(g, 0, &EmptyOracle);
//! let protocol = Arc::new(FloodOnce);
//! let requests: Vec<RunRequest> = (0..4)
//!     .map(|_| RunRequest::new(Arc::clone(&instance), protocol.clone(), SimConfig::default()))
//!     .collect();
//! let run = run_supervised_batch(&Pool::new(2), &requests, &SweepOptions::default());
//! assert!(run.reports().iter().all(|r| r.outcome().unwrap().completed));
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod chaos;
pub mod journal;
pub mod json;
pub mod pool;
pub mod spec;
pub mod supervise;
pub mod trace;

pub use batch::{run_cell_report, Aggregate, CellOutcome, RunReport, RunRequest};
pub use chaos::ChaosPlan;
pub use journal::Journal;
pub use json::Json;
pub use pool::{Chunk, ChunkPlan, Pool, SchedStats};
pub use spec::{AdviceSpec, CellSpec, FaultSpec, InstanceSpec, KnobSpec, SchedulerSpec, SweepSpec};
pub use supervise::{
    run_cell_supervised, run_supervised_batch, CellStatus, OrderedCommitter, SuperviseConfig,
    SupervisedReport, SweepOptions, SweepRun,
};
pub use trace::JsonlSink;
