//! The executor: delivers messages, enforces the task rules, accounts.
//!
//! The engine is split along its concerns:
//!
//! * [`config`] — what to run: [`TaskMode`], [`SimConfig`] and its
//!   builder;
//! * [`delivery`] — the network state machine: validation, accounting,
//!   fault injection, and the zero-clone delivery hot path (payloads move
//!   out of the send queue; a clone happens only when a duplication fault
//!   manufactures an extra delivery);
//! * `frontier` — the forward-once frontier kernel that synchronous,
//!   untraced runs of flood-like schemes without transport faults take
//!   instead of the per-message loop;
//! * [`outcome`] — what came back: [`RunOutcome`], [`Completion`], and
//!   the [`SimError`] abort reasons;
//! * [`run`](mod@run) — the driver loop tying them together, emitting
//!   [`crate::trace`] events through a
//!   [`TraceSink`](crate::trace::TraceSink) as it goes.
//!
//! All public names are re-exported here, so `engine::run`,
//! `engine::SimConfig`, … keep working exactly as before the split.
//! [`run()`] and [`run_with_sink`] are the engine's only entry points; an
//! [`Instance`](crate::Instance) runs by passing them its fields.

pub mod config;
pub mod delivery;
mod frontier;
pub mod outcome;
pub mod run;

pub use config::{SimConfig, TaskMode};
pub use outcome::{Completion, RunOutcome, SimError};
pub use run::{run, run_with_sink};

#[cfg(test)]
mod tests;
