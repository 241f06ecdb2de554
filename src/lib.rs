//! # oraclesize
//!
//! A full reproduction of **"Oracle size: a new measure of difficulty for
//! communication tasks"** (Fraigniaud, Ilcinkas, Pelc; PODC 2006) as a Rust
//! workspace: the port-labeled network model, advice oracles, the wakeup
//! and broadcast schemes with their size/message guarantees, the
//! edge-discovery adversary and counting machinery behind both lower
//! bounds, and the experiment harness that regenerates every result.
//!
//! This crate re-exports the workspace members under stable module names:
//!
//! | module | contents |
//! |---|---|
//! | [`bits`] | bit strings and self-delimiting advice codecs |
//! | [`graph`] | port-labeled graphs, families, gadgets, spanning trees |
//! | [`sim`] | the message-passing execution engine |
//! | [`core`] | oracles and dissemination schemes (the paper's results) |
//! | [`lowerbound`] | adversary, counting bounds, trade-off experiments |
//! | [`analysis`] | model fitting, statistics, table rendering |
//! | [`runtime`] | worker pool + deterministic batch/sweep execution |
//! | [`bench`](mod@bench) | experiment grids and the committed `BENCH_*.json` artifacts |
//! | [`service`] | distributed sweep server/workers over a framed protocol |
//!
//! ## Quickstart
//!
//! ```
//! use oraclesize::prelude::*;
//!
//! // Broadcast on a 64-node hypercube with the 8n-bit oracle of Thm 3.1.
//! let g = families::hypercube(6);
//! let run = execute(&g, 0, &LightTreeOracle, &SchemeB, &SimConfig::default())?;
//! assert!(run.outcome.all_informed());
//! assert!(run.oracle_bits <= 8 * 64);
//! # Ok::<(), oraclesize::sim::SimError>(())
//! ```

#![warn(missing_docs)]

pub mod cli;

pub use oraclesize_analysis as analysis;
pub use oraclesize_bench as bench;
pub use oraclesize_bits as bits;
pub use oraclesize_core as core;
pub use oraclesize_explore as explore;
pub use oraclesize_graph as graph;
pub use oraclesize_lowerbound as lowerbound;
pub use oraclesize_runtime as runtime;
pub use oraclesize_service as service;
pub use oraclesize_sim as sim;

/// The most common imports, for examples and downstream experiments.
pub mod prelude {
    pub use oraclesize_core::baselines::{FullMapOracle, MapWakeup};
    pub use oraclesize_core::broadcast::{LightTreeOracle, SchemeB};
    pub use oraclesize_core::construction::{
        BfsTreeOracle, DistributedBfs, MstOracle, ZeroMessageTree,
    };
    pub use oraclesize_core::election::{AnnouncedLeader, ElectionOracle, FloodMax};
    pub use oraclesize_core::gossip::{GossipOracle, TreeGossip};
    pub use oraclesize_core::neighborhood::NeighborhoodOracle;
    pub use oraclesize_core::oracle::EmptyOracle;
    pub use oraclesize_core::wakeup::{SpanningTreeOracle, TreeWakeup};
    pub use oraclesize_core::{execute, OracleRun};
    pub use oraclesize_graph::families;
    pub use oraclesize_graph::{PortGraph, PortGraphBuilder, RootedTree};
    pub use oraclesize_runtime::{run_supervised_batch, JsonlSink, Pool, RunRequest, SweepOptions};
    pub use oraclesize_sim::protocol::FloodOnce;
    pub use oraclesize_sim::{
        advice_size, Advice, Instance, Oracle, RunMetrics, SchedulerKind, SimConfig, TaskMode,
    };
}
