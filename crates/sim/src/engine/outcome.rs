//! What an execution returns: errors, traces, and the run outcome.

use std::error::Error;
use std::fmt;

use oraclesize_bits::BitString;
use oraclesize_graph::{NodeId, Port};

use crate::metrics::RunMetrics;
use crate::trace::{Delivery, TraceEvent, TraceStats};

/// Errors that abort an execution.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A non-source node transmitted before being informed, in wakeup mode.
    WakeupViolation {
        /// The offending node.
        node: NodeId,
    },
    /// A payload exceeded [`SimConfig::max_message_bits`](crate::engine::SimConfig::max_message_bits).
    MessageTooLarge {
        /// The sending node.
        node: NodeId,
        /// Payload size.
        bits: u64,
        /// Configured limit.
        limit: u64,
    },
    /// The delivery budget ran out before quiescence.
    StepLimit {
        /// The configured limit.
        limit: u64,
    },
    /// A scheme addressed a port `≥ deg(v)`.
    PortOutOfRange {
        /// The sending node.
        node: NodeId,
        /// The bogus port.
        port: Port,
        /// The node's degree.
        degree: usize,
    },
    /// `advice.len()` differed from the number of nodes.
    AdviceCount {
        /// Nodes in the graph.
        expected: usize,
        /// Advice strings supplied.
        got: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::WakeupViolation { node } => {
                write!(f, "node {node} transmitted before being woken up")
            }
            SimError::MessageTooLarge { node, bits, limit } => {
                write!(f, "node {node} sent {bits} bits, limit {limit}")
            }
            SimError::StepLimit { limit } => write!(f, "step limit {limit} exhausted"),
            SimError::PortOutOfRange { node, port, degree } => {
                write!(f, "node {node} sent on port {port} but has degree {degree}")
            }
            SimError::AdviceCount { expected, got } => {
                write!(f, "expected {expected} advice strings, got {got}")
            }
        }
    }
}

impl Error for SimError {}

/// How a quiescent run is judged once faults are possible: reaching
/// quiescence alone is *not* success — a scheme whose messages were dropped
/// quiesces with part of the network still asleep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// Every surviving (non-crashed) node ended up informed.
    Completed,
    /// The run quiesced with surviving nodes still uninformed — the
    /// silent failure mode that message loss and advice corruption induce.
    Degraded {
        /// Surviving nodes left uninformed.
        uninformed: usize,
    },
}

/// The result of a completed (quiescent) execution.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Accounting.
    pub metrics: RunMetrics,
    /// Which nodes ended up informed.
    pub informed: Vec<bool>,
    /// Which nodes crash-stopped during the run (all `false` without a
    /// fault plan).
    pub crashed: Vec<bool>,
    /// Captured trace events: all of them under
    /// [`TraceSpec::Full`](crate::trace::TraceSpec::Full), the retained
    /// tail under [`TraceSpec::Ring`](crate::trace::TraceSpec::Ring),
    /// empty (no allocation) when tracing is off or events streamed to an
    /// external sink via [`run_with_sink`](crate::engine::run::run_with_sink).
    pub trace: Vec<TraceEvent>,
    /// Constant-size tallies of everything emitted, kept even when the
    /// events themselves streamed through a bounded sink. All-zero when
    /// tracing is off.
    pub trace_stats: TraceStats,
    /// Per-node outputs collected from
    /// [`crate::protocol::NodeBehavior::output`] at quiescence, one entry
    /// per node — or empty (no allocation) when no node produced an
    /// output, as in every flooding or wakeup run. A consumer that needs
    /// every node's output must check the length.
    pub outputs: Vec<Option<BitString>>,
}

impl RunOutcome {
    /// `true` iff every node — crashed or not — is informed. The strict,
    /// fault-free notion of task completion.
    pub fn all_informed(&self) -> bool {
        self.informed.iter().all(|&x| x)
    }

    /// Number of informed nodes.
    pub fn informed_count(&self) -> usize {
        self.informed.iter().filter(|&&x| x).count()
    }

    /// The delivery records in the captured [`trace`](RunOutcome::trace),
    /// in execution order — the view the old flat delivery trace offered.
    pub fn deliveries(&self) -> impl Iterator<Item = &Delivery> {
        self.trace.iter().filter_map(TraceEvent::as_delivery)
    }

    /// Judges the run against the surviving nodes: crashed nodes are
    /// excused, but a quiesced run with live uninformed nodes is
    /// [`Degraded`](Completion::Degraded), never a success.
    pub fn classify(&self) -> Completion {
        let uninformed = self
            .informed
            .iter()
            .zip(&self.crashed)
            .filter(|&(&informed, &crashed)| !informed && !crashed)
            .count();
        if uninformed == 0 {
            Completion::Completed
        } else {
            Completion::Degraded { uninformed }
        }
    }
}
