//! The sweep service: distributed execution of [`SweepSpec`] jobs with
//! byte-identical artifacts.
//!
//! A sweep described by the runtime's canonical [`SweepSpec`] can run
//! three ways — in process ([`run_local`]), through the bench grids, or
//! distributed across this crate's server and workers — and all three
//! produce the **same artifact bytes**. The distribution layer:
//!
//! * [`frame`] — the length-prefixed, digest-checked binary frame every
//!   message travels in (dependency-free, over `std::net::TcpStream`),
//! * [`proto`] — the typed messages: submit/poll on the client side,
//!   want/shard/result on the worker side,
//! * [`server`] — admits jobs, shards grids by the pool's cost
//!   hints, leases shards to workers, requeues them when a worker dies,
//!   and merges results in cell order through the runtime's
//!   `OrderedCommitter`,
//! * [`worker`] — runs shards through [`run_supervised_batch`] with a
//!   shard range and per-shard segment journals, so a replacement worker
//!   resumes a dead one's checkpoints,
//! * [`client`] — submits a spec and polls until the merged artifact
//!   comes back.
//!
//! The byte-identity contract is pinned by this crate's integration
//! tests (local vs 1 worker vs 3 workers vs kill-and-resume) and by the
//! CI `service-smoke` job, which diffs a distributed `BENCH_T10.json`
//! against the committed artifact.

#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod proto;
pub mod server;
pub mod worker;

use std::io;
use std::net::TcpStream;
use std::time::Duration;

use oraclesize_bench::grid::CellGrid;
use oraclesize_runtime::spec::{artifact_json, grid_json};
use oraclesize_runtime::{run_supervised_batch, Pool, RunReport, SweepOptions, SweepSpec};

pub use client::submit;
pub use server::{Server, ServerConfig};
pub use worker::{run_worker, WorkerConfig, WorkerOutcome};

/// Renders a sweep's merged artifact file contents: the committed
/// `BENCH_<NAME>.json` envelope around the cell-ordered grid fragment,
/// plus the trailing newline the files on disk carry. Every execution
/// path — local, bench grid, distributed — funnels through this (or the
/// identical `emit_json` path in the bench crate), which is what the
/// byte-identity tests pin.
pub fn render_artifact(spec: &SweepSpec, reports: &[RunReport]) -> String {
    let labels: Vec<String> = spec.cells.iter().map(|c| c.label.clone()).collect();
    let body = grid_json(&labels, reports);
    format!(
        "{}\n",
        artifact_json(&spec.name, spec.master_seed, body).render()
    )
}

/// Runs a spec start-to-finish in this process — the reference the
/// distributed path must match byte for byte.
///
/// # Errors
///
/// Returns the grid lowering error for a spec this build cannot run.
pub fn run_local(spec: &SweepSpec, threads: usize) -> Result<String, String> {
    let grid = CellGrid::from_spec(spec)?;
    let opts = SweepOptions::from_spec(spec);
    let run = run_supervised_batch(&Pool::new(threads.max(1)), grid.requests(), &opts);
    Ok(render_artifact(spec, &run.reports()))
}

/// Connects to `addr`, retrying `tries` times with `pause_ms` sleeps —
/// workers and clients routinely start before the server has bound.
pub(crate) fn connect_with_retries(addr: &str, tries: u32, pause_ms: u64) -> io::Result<TcpStream> {
    let mut last = None;
    for attempt in 0..tries.max(1) {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => last = Some(e),
        }
        if attempt + 1 < tries {
            std::thread::sleep(Duration::from_millis(pause_ms.max(1)));
        }
    }
    Err(last.unwrap_or_else(|| io::Error::other("no connect attempts")))
}
