//! Structured execution traces: the event taxonomy, streaming sinks, and
//! first-divergence comparison.
//!
//! A trace is whatever the caller's sink makes of the engine's event
//! stream: [`run_with_sink`](crate::engine::run_with_sink) and
//! [`run_streamed`](crate::run_streamed) take the sink as an argument, and
//! [`run`](crate::engine::run()) drives a [`NullSink`]. The pieces:
//!
//! * [`TraceEvent`] — the taxonomy: message lifecycle ([`Enqueue`]
//!   → [`Deliver`]/[`Drop`], with [`Corrupt`] and [`Wake`] annotations),
//!   phase structure ([`PhaseStart`], [`Quiescence`]), and per-round
//!   [`Rollup`] records carrying informed-count / message-count /
//!   frontier-size;
//! * [`TraceSink`] — the streaming consumer trait. Events are emitted as
//!   they happen, so a sink with bounded memory (a ring, a line writer)
//!   traces arbitrarily long runs without accumulating a vector;
//! * [`NullSink`] / [`VecSink`] / [`RingSink`] — the stock sinks;
//! * [`InvariantSink`] — an online checker of the trace contract
//!   (every message resolved once, wakes only of uninformed nodes, the
//!   wakeup rule, rollup informed counts and frontiers);
//! * [`diff`] — first-divergence comparison of two rendered trace files.
//!
//! # Determinism
//!
//! Every event is emitted from the (serial) engine loop in execution
//! order, and message ids ([`MsgId`]) are assigned in enqueue order, so the
//! trace of a seeded run is a pure function of `(graph, source, advice,
//! protocol, config)`. The JSONL writer in `oraclesize_runtime::trace`
//! relies on this: `oraclesize trace` prints the same bytes on every run.
//!
//! # Cost when off
//!
//! A [`NullSink`] reports itself disabled: every emission site is guarded
//! by one boolean test and the trace path performs **zero allocations** —
//! the same discipline as the zero-clone delivery path
//! (`payload_copies == 0` on fault-free runs).
//!
//! [`Enqueue`]: TraceEvent::Enqueue
//! [`Deliver`]: TraceEvent::Deliver
//! [`Drop`]: TraceEvent::Drop
//! [`Corrupt`]: TraceEvent::Corrupt
//! [`Wake`]: TraceEvent::Wake
//! [`PhaseStart`]: TraceEvent::PhaseStart
//! [`Quiescence`]: TraceEvent::Quiescence
//! [`Rollup`]: TraceEvent::Rollup

pub mod diff;
pub mod invariant;
pub mod sink;

pub use diff::{diff_lines, Divergence, TraceDiff};
pub use invariant::{InvariantSink, Violation};
pub use sink::{NullSink, RingSink, TraceSink, VecSink};

use oraclesize_graph::{NodeId, Port};

/// Causal message identifier: assigned serially in enqueue order, so ids
/// are stable across schedulers and across batch thread counts. A
/// duplication fault's extra copy gets its own id (it is a distinct
/// in-flight delivery with its own fate).
pub type MsgId = u64;

/// Which part of the run an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The spontaneous phase: `on_start` sends, before any delivery.
    Spontaneous,
    /// A synchronous round (1-based; round 0's sends are the spontaneous
    /// phase draining). Asynchronous runs stay in one implicit round.
    Round(u64),
    /// A quiescence poll (1-based).
    QuiescencePoll(u32),
}

/// Why a message left the network without being processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropFault {
    /// A drop fault consumed it in flight.
    Lost,
    /// The wire delivered it to a crash-stopped node; nobody was listening.
    ToCrashed,
}

/// One message processed by a live receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Message id (see [`MsgId`]).
    pub msg: MsgId,
    /// Delivery step (0-based, equals `RunMetrics::steps` at delivery).
    pub step: u64,
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Arrival port at the receiver.
    pub arrival_port: Port,
    /// Payload size in bits.
    pub bits: u64,
    /// Whether the message carried the source message.
    pub carries_source: bool,
}

/// Per-round progress snapshot, emitted at each synchronous round boundary
/// and once at quiescence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rollup {
    /// The round that just finished (0 = the spontaneous sends' round).
    pub round: u64,
    /// Nodes informed at the boundary.
    pub informed: u64,
    /// Messages accepted so far (cumulative).
    pub messages: u64,
    /// In-flight messages scheduled for the next round (the frontier).
    pub frontier: u64,
}

/// One observation from the engine, in execution order.
///
/// All variants are `Copy` and heap-free: emitting an event never
/// allocates, so sinks alone decide the memory profile of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A new phase began.
    PhaseStart {
        /// Which phase.
        phase: Phase,
    },
    /// A send was accepted into the network.
    Enqueue {
        /// Message id.
        msg: MsgId,
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Payload size in bits.
        bits: u64,
        /// Whether the message carries the source message.
        carries_source: bool,
    },
    /// An in-flight message was removed without a live delivery.
    Drop {
        /// Message id.
        msg: MsgId,
        /// Sending node.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
        /// Why it vanished.
        fault: DropFault,
    },
    /// A bit-flip fault mutated an in-flight payload.
    Corrupt {
        /// Message id.
        msg: MsgId,
        /// Index of the flipped payload bit.
        bit: u64,
    },
    /// A message was processed by a live receiver.
    Deliver(Delivery),
    /// A delivery informed a previously-uninformed node.
    Wake {
        /// The newly informed node.
        node: NodeId,
        /// Delivery step of the informing message.
        step: u64,
        /// The informing message.
        msg: MsgId,
    },
    /// A quiescence poll ran.
    Quiescence {
        /// Poll index (1-based).
        poll: u32,
        /// Whether any node returned sends.
        spoke: bool,
    },
    /// Per-round progress record.
    Rollup(Rollup),
}

impl TraceEvent {
    /// The delivery record, if this event is a [`TraceEvent::Deliver`].
    pub fn as_delivery(&self) -> Option<&Delivery> {
        match self {
            TraceEvent::Deliver(d) => Some(d),
            _ => None,
        }
    }

    /// The rollup record, if this event is a [`TraceEvent::Rollup`].
    pub fn as_rollup(&self) -> Option<&Rollup> {
        match self {
            TraceEvent::Rollup(r) => Some(r),
            _ => None,
        }
    }

    /// Stable lowercase tag for rendering (`"deliver"`, `"rollup"`, …).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::PhaseStart { .. } => "phase",
            TraceEvent::Enqueue { .. } => "enqueue",
            TraceEvent::Drop { .. } => "drop",
            TraceEvent::Corrupt { .. } => "corrupt",
            TraceEvent::Deliver(_) => "deliver",
            TraceEvent::Wake { .. } => "wake",
            TraceEvent::Quiescence { .. } => "quiescence",
            TraceEvent::Rollup(_) => "rollup",
        }
    }
}

/// Engine-side wrapper around a sink: caches `enabled()` so the hot path
/// pays one branch.
pub(crate) struct Recorder<'a> {
    sink: &'a mut dyn TraceSink,
    /// Cached `sink.enabled()`; emission sites may pre-check this to skip
    /// computing event fields (e.g. the per-round informed scan).
    pub on: bool,
}

impl<'a> Recorder<'a> {
    pub fn new(sink: &'a mut dyn TraceSink) -> Self {
        let on = sink.enabled();
        Recorder { sink, on }
    }

    #[inline]
    pub fn emit(&mut self, event: TraceEvent) {
        if self.on {
            self.sink.emit(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_tags_are_stable() {
        assert_eq!(
            TraceEvent::PhaseStart {
                phase: Phase::Spontaneous
            }
            .kind(),
            "phase"
        );
        assert_eq!(
            TraceEvent::Rollup(Rollup {
                round: 0,
                informed: 1,
                messages: 0,
                frontier: 0,
            })
            .kind(),
            "rollup"
        );
    }

    #[test]
    fn recorder_with_null_sink_is_off() {
        let mut sink = NullSink;
        let rec = Recorder::new(&mut sink);
        assert!(!rec.on);
    }
}
