//! The forward-once frontier kernel: a synchronous, fault-free, untraced
//! run of a [`ForwardOnce`] scheme, computed level by level without
//! instantiating a single node.
//!
//! [`run_with_sink`](crate::engine::run_with_sink) takes this path when
//! the config is synchronous, the fault plan is inert, the sink is
//! disabled and the protocol returns a rule. Under those conditions a
//! forward-once run is a breadth-first expansion: the nodes woken by the
//! round-`r` deliveries are exactly the new nodes behind the ports the
//! level-`r` nodes send on, and each of them sends once, one round later.
//! Every message carries the source message (only informed nodes send),
//! none carries payload, and no delivery is lost or duplicated — so the
//! outcome is the per-message engine's, field for field.

use oraclesize_bits::BitSet;
use oraclesize_graph::{NodeId, PortGraph};

use crate::engine::outcome::{RunOutcome, SimError};
use crate::metrics::RunMetrics;
use crate::oracle::Advice;
use crate::protocol::ForwardOnce;

/// Runs `rule` from `source` to quiescence.
///
/// # Errors
///
/// [`SimError::StepLimit`] exactly when the run would deliver more than
/// `max_steps` messages.
pub(crate) fn run_forward_once(
    g: &PortGraph,
    source: NodeId,
    advice: &Advice,
    rule: ForwardOnce,
    max_steps: u64,
) -> Result<RunOutcome, SimError> {
    let n = g.num_nodes();
    let mut informed = BitSet::new(n);
    informed.set(source, true);
    // Nodes in wake order; each level is the range woken by the one
    // before, so one buffer of capacity `n` serves the whole run.
    let mut order: Vec<NodeId> = Vec::with_capacity(n);
    order.push(source);
    let mut start = 0;
    let mut messages: u64 = 0;
    let mut rounds: u64 = 0;
    let mut level: u64 = 0;
    while start < order.len() {
        let end = order.len();
        let mut sent: u64 = 0;
        for i in start..end {
            let v = order[i];
            let mut wake = |u: NodeId| {
                if !informed.get(u) {
                    informed.set(u, true);
                    order.push(u);
                }
            };
            match (rule.0)(&advice[v], g.degree(v)) {
                Some(ports) => {
                    sent += ports.len() as u64;
                    ports.iter().for_each(|&p| wake(g.neighbor_via(v, p).0));
                }
                None => {
                    // The excluded arrival neighbour sent the waking message,
                    // so it is informed already: expanding over every
                    // neighbour reaches the same nodes.
                    let neighbors = g.neighbors(v);
                    sent += (neighbors.len() - usize::from(v != source)) as u64;
                    neighbors.for_each(wake);
                }
            }
        }
        if sent > 0 {
            // Level-`r` sends are delivered in round `r`.
            rounds = level;
            messages += sent;
            if messages > max_steps {
                return Err(SimError::StepLimit { limit: max_steps });
            }
        }
        start = end;
        level += 1;
    }
    let informed_nodes = informed.count_ones() as u64;
    Ok(RunOutcome {
        metrics: RunMetrics {
            messages,
            informed_messages: messages,
            rounds,
            steps: messages,
            informed_nodes,
            ..RunMetrics::default()
        },
        informed: informed.to_bools(),
        crashed: vec![false; n],
        // No forward-once node outputs.
        outputs: Vec::new(),
    })
}
