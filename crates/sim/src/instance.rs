//! `Arc`-shared immutable problem instances, and the workspace's one
//! run facade.

use std::sync::Arc;

use oraclesize_graph::{NodeId, PortGraph};

use crate::engine::{self, RunOutcome, SimConfig, SimError};
use crate::oracle::{advice_size, Advice, Oracle};
use crate::protocol::Protocol;
use crate::trace::TraceSink;

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

/// Executes `protocol` on a frozen [`Instance`] — the workspace's single
/// run facade.
///
/// Every higher-level entry point reduces to this call:
/// `oraclesize_core::execute` builds the instance from an oracle first;
/// `oraclesize_runtime::run_supervised_batch` fans instances out across a
/// worker pool; the engine-level [`engine::run`](crate::engine::run::run) is the
/// same executor without the instance wrapper. It traces nothing; to
/// stream events into a sink, use [`run_streamed`].
///
/// # Errors
///
/// See [`SimError`]. Any error aborts the run immediately.
///
/// # Panics
///
/// Panics if `instance.source` is out of range for the instance's graph
/// (unreachable for instances built by [`Instance::build`] from an
/// in-range source).
pub fn run(
    instance: &Instance,
    protocol: &dyn Protocol,
    config: &SimConfig,
) -> Result<RunOutcome, SimError> {
    engine::run::run(
        &instance.graph,
        instance.source,
        &instance.advice,
        protocol,
        config,
    )
}

/// [`run`], streaming trace events into a caller-supplied sink. The
/// caller keeps the sink when the run aborts, so a bounded sink doubles as
/// an error post-mortem buffer.
///
/// # Errors / Panics
///
/// As [`run`].
pub fn run_streamed(
    instance: &Instance,
    protocol: &dyn Protocol,
    config: &SimConfig,
    sink: &mut dyn TraceSink,
) -> Result<RunOutcome, SimError> {
    engine::run::run_with_sink(
        &instance.graph,
        instance.source,
        &instance.advice,
        protocol,
        config,
        sink,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::FloodOnce;
    use crate::testkit::no_advice;
    use crate::trace::{TraceEvent, VecSink};
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

    #[test]
    fn facade_matches_engine_run() {
        let g = Arc::new(families::cycle(5));
        let inst = Instance::with_advice(Arc::clone(&g), 0, no_advice(5));
        let config = SimConfig::default();
        let via_facade = run(&inst, &FloodOnce, &config).unwrap();
        let via_engine = engine::run::run(&g, 0, &inst.advice, &FloodOnce, &config).unwrap();
        assert_eq!(via_facade.metrics, via_engine.metrics);
        assert!(via_facade.all_informed());
    }

    #[test]
    fn streamed_facade_fills_external_sink() {
        let g = Arc::new(families::cycle(4));
        let inst = Instance::with_advice(Arc::clone(&g), 0, no_advice(4));
        let config = SimConfig::default();
        let mut sink = VecSink::new();
        let out = run_streamed(&inst, &FloodOnce, &config, &mut sink).unwrap();
        let delivered = sink.events().iter().filter_map(TraceEvent::as_delivery);
        assert_eq!(delivered.count() as u64, out.metrics.steps);
        // Tracing changes nothing the untraced facade reports.
        let untraced = run(&inst, &FloodOnce, &config).unwrap();
        assert_eq!(untraced.metrics, out.metrics);
        assert_eq!(untraced.informed, out.informed);
    }
}
