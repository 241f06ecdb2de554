//! Message-passing execution engine for oracle-assisted communication
//! schemes.
//!
//! The paper's model (§1.4): each node runs a *scheme* — a function from its
//! local history (advice string, status bit, identity, degree, messages
//! received so far with their arrival ports) to a set of messages to send on
//! its ports. This crate executes such schemes on a
//! [`PortGraph`](oraclesize_graph::PortGraph):
//!
//! * [`protocol`] — the [`Protocol`]/[`NodeBehavior`] traits mirroring the
//!   scheme signature `A(f(v), s(v), id(v), deg(v))`, and the [`NodeView`]
//!   a node is allowed to see,
//! * [`oracle`] — the [`Oracle`] trait assigning per-node advice, the
//!   [`Advice`] slot table it returns, and the paper's oracle-size
//!   accounting,
//! * [`instance`] — frozen `Arc`-shared problem instances,
//! * [`engine`] — the executor, [`engine::run`](engine::run()) (untraced)
//!   and [`engine::run_with_sink`] (streaming a trace into a caller's
//!   sink), with **synchronous** (round-based) and
//!   **asynchronous** (adversarially scheduled) delivery, mechanical
//!   enforcement of the *wakeup rule* (non-source nodes stay silent until
//!   informed), informedness tracking (the source message piggybacks on any
//!   message sent by an informed node), and bit-exact accounting,
//! * [`trace`] — the streaming observability layer: the event taxonomy,
//!   [`TraceSink`]s, per-round rollups, and trace diffing,
//! * [`scheduler`] — delivery orders: FIFO, LIFO, seeded-random, and the
//!   starving adversary that delays source-carrying messages,
//! * [`faults`] — seeded fault injection: message drop/duplication/bit
//!   flips, crash-stop nodes, and the advice-corruption adversary,
//! * [`metrics`] — message/bit/round/fault counts used by every experiment,
//! * [`testkit`] — shared helpers (e.g. the trivial no-advice oracle) used
//!   by tests across the workspace.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use oraclesize_sim::engine;
//! use oraclesize_sim::prelude::*;
//! use oraclesize_graph::families;
//!
//! let g = Arc::new(families::cycle(5));
//! let inst = Instance::with_advice(g, 0, Advice::empty(5));
//! let config = SimConfig::default();
//! let outcome = engine::run(&inst.graph, inst.source, &inst.advice, &FloodOnce, &config).unwrap();
//! assert!(outcome.all_informed());
//! ```

#![warn(missing_docs)]
// P001: the engine returns errors instead of panicking; a panic kept on
// purpose carries an `#[expect]` with its reason.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod engine;
pub mod faults;
pub mod history;
pub mod instance;
pub mod metrics;
pub mod oracle;
pub mod protocol;
pub mod scheduler;
pub mod testkit;
pub mod trace;

pub use engine::{Completion, RunOutcome, SimConfig, SimError, TaskMode};
pub use faults::{AdviceAdversary, FaultCounts, FaultPlan};
pub use history::{History, HistoryProtocol};
pub use instance::Instance;
pub use metrics::RunMetrics;
pub use oracle::{advice_size, Advice, Oracle};
pub use protocol::{ForwardOnce, Message, NodeBehavior, NodeView, Outgoing, Protocol};
pub use scheduler::SchedulerKind;
pub use trace::{TraceEvent, TraceSink};

/// The most common imports for running schemes on instances.
///
/// ```
/// use oraclesize_sim::prelude::*;
/// ```
pub mod prelude {
    pub use crate::engine::{Completion, RunOutcome, SimConfig, SimError, TaskMode};
    pub use crate::faults::FaultPlan;
    pub use crate::instance::Instance;
    pub use crate::metrics::RunMetrics;
    pub use crate::oracle::{advice_size, Advice, Oracle};
    pub use crate::protocol::{FloodOnce, Message, NodeBehavior, NodeView, Outgoing, Protocol};
    pub use crate::scheduler::SchedulerKind;
    pub use crate::trace::{NullSink, RingSink, TraceEvent, TraceSink, VecSink};
}
