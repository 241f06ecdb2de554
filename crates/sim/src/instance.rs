//! `Arc`-shared immutable problem instances. To run a scheme on one,
//! pass its fields to [`engine::run`](crate::engine::run()) (or
//! [`engine::run_with_sink`](crate::engine::run_with_sink) to trace it).

use std::sync::Arc;

use oraclesize_graph::{NodeId, PortGraph};

use crate::oracle::{advice_size, Advice, Oracle};

/// One immutable problem instance: a port-labeled graph, a source, and the
/// advice an oracle assigned — built **once**, then shared by every cell
/// and every worker thread through an `Arc`.
///
/// Building dense instances (and running oracles on them) dominates many
/// sweeps; sharing removes both the rebuild and the per-seed advice
/// recomputation from the hot path. The graph itself is held behind its
/// own `Arc` so several instances (e.g. one per scheme, whose oracles
/// assign different advice) can still share a single adjacency structure.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The shared network.
    pub graph: Arc<PortGraph>,
    /// The broadcast/wakeup source the advice was computed for.
    pub source: NodeId,
    /// Per-node advice strings, as an [`Advice`] slot table: 4 bytes per
    /// empty node. The per-message engine packs them into a `BitArena`
    /// once per run; the frontier kernel reads them in place.
    pub advice: Advice,
    /// Total advice size in bits — the paper's oracle size.
    pub oracle_bits: u64,
}

impl Instance {
    /// Runs `oracle` on the shared graph and freezes the result.
    pub fn build(graph: Arc<PortGraph>, source: NodeId, oracle: &dyn Oracle) -> Arc<Instance> {
        let advice = oracle.advise(&graph, source);
        let oracle_bits = advice_size(&advice);
        Arc::new(Instance {
            graph,
            source,
            advice,
            oracle_bits,
        })
    }

    /// Freezes precomputed advice (for callers that build advice by hand).
    pub fn with_advice(graph: Arc<PortGraph>, source: NodeId, advice: Advice) -> Arc<Instance> {
        let oracle_bits = advice_size(&advice);
        Arc::new(Instance {
            graph,
            source,
            advice,
            oracle_bits,
        })
    }

    /// Number of nodes in the shared graph.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }
}

// The whole point of Instance is cross-thread sharing; fail compilation
// loudly if a field ever stops being Send + Sync.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Instance>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::no_advice;
    use oraclesize_graph::families;

    struct NoAdviceOracle;
    impl Oracle for NoAdviceOracle {
        fn advise(&self, g: &PortGraph, _source: NodeId) -> Advice {
            no_advice(g.num_nodes())
        }
    }

    #[test]
    fn build_computes_oracle_size() {
        let g = Arc::new(families::cycle(6));
        let inst = Instance::build(Arc::clone(&g), 0, &NoAdviceOracle);
        assert_eq!(inst.oracle_bits, 0);
        assert_eq!(inst.advice.len(), 6);
        assert_eq!(inst.num_nodes(), 6);
        // The graph is shared, not copied.
        assert!(Arc::ptr_eq(&g, &inst.graph));
    }
}
