//! Theorem 2.1: wakeup with `n − 1` messages from an `O(n log n)`-bit
//! oracle.
//!
//! The oracle fixes a spanning tree of the network rooted at the source and
//! gives every internal node the list of its child ports, encoded with the
//! paper's doubled-header code (`c(v)·⌈log n⌉ + O(log log n)` bits per node,
//! `n log n + o(n log n)` in total). The wakeup scheme simply forwards the
//! source message along the encoded ports: exactly `n − 1` messages, one
//! per tree edge.

use oraclesize_bits::lists::{decode_port_list, encode_port_list};
use oraclesize_bits::BitString;
use oraclesize_graph::spanning::TreeAlgorithm;
use oraclesize_graph::{NodeId, Port, PortGraph};
use oraclesize_sim::protocol::{ForwardOnce, NodeBehavior, NodeView, Protocol};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::oracle::{Advice, Oracle};

/// The Theorem 2.1 oracle: encodes, for every node, the ports toward its
/// children in a spanning tree rooted at the source.
///
/// Any spanning tree works for the *message* bound; the choice only affects
/// constants in the *size* bound (all are `O(n log n)`). Experiments default
/// to BFS.
#[derive(Debug, Clone, Copy)]
pub struct SpanningTreeOracle {
    /// Which spanning tree to encode.
    pub algorithm: TreeAlgorithm,
    /// Seed for randomized tree algorithms.
    pub seed: u64,
}

impl Default for SpanningTreeOracle {
    fn default() -> Self {
        SpanningTreeOracle {
            algorithm: TreeAlgorithm::Bfs,
            seed: 0,
        }
    }
}

impl Oracle for SpanningTreeOracle {
    fn advise(&self, g: &PortGraph, source: NodeId) -> Advice {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let tree = self.algorithm.build(g, source, &mut rng);
        let n = g.num_nodes() as u64;
        (0..g.num_nodes())
            .map(|v| {
                if tree.is_leaf(v) {
                    // A leaf's advice is the empty list, which encodes to
                    // no bits.
                    return BitString::new();
                }
                let ports: Vec<u64> = tree.children(v).map(|(_, p)| p as u64).collect();
                encode_port_list(&ports, n.max(2))
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "spanning-tree"
    }
}

/// The Theorem 2.1 wakeup scheme: on becoming awake, send the (empty)
/// message on every advice-encoded child port. Exactly one message per
/// tree edge.
///
/// Legal under the wakeup rule: a non-source node transmits only in
/// response to the message that woke it. Works anonymously and with
/// zero-payload messages (paper §1.3).
#[derive(Debug, Clone, Copy, Default)]
pub struct TreeWakeup;

/// The child ports a node's Theorem 2.1 advice names, dropping any port
/// `≥ degree`. Malformed advice degrades to leaf behavior — `Some` of no
/// ports, never a flood: the scheme stays legal (silent until woken) and
/// simply fails to forward, which the experiments detect as incomplete
/// wakeup.
fn child_ports(advice: &BitString, degree: usize) -> Option<Vec<Port>> {
    Some(
        decode_port_list(advice)
            .unwrap_or_default()
            .into_iter()
            .filter(|&p| (p as usize) < degree)
            .map(|p| p as usize)
            .collect(),
    )
}

/// The scheme's rule: forward once, on the advice's child ports.
const RULE: ForwardOnce = ForwardOnce(child_ports);

impl Protocol for TreeWakeup {
    fn create(&self, view: NodeView) -> Box<dyn NodeBehavior> {
        RULE.node(&view)
    }

    fn name(&self) -> &'static str {
        "tree-wakeup"
    }

    fn forward_once(&self) -> Option<ForwardOnce> {
        Some(RULE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::advice_size;
    use crate::runner::execute;
    use oraclesize_bits::ceil_log2;
    use oraclesize_graph::families::{self, Family};
    use oraclesize_sim::{SchedulerKind, SimConfig};

    #[test]
    fn wakeup_uses_exactly_n_minus_1_messages() {
        let mut rng = StdRng::seed_from_u64(3);
        for fam in Family::ALL {
            let g = fam.build(40, &mut rng);
            let n = g.num_nodes();
            let run = execute(
                &g,
                0,
                &SpanningTreeOracle::default(),
                &TreeWakeup,
                &SimConfig::wakeup(),
            )
            .unwrap();
            assert!(run.outcome.all_informed(), "{}", fam.name());
            assert_eq!(
                run.outcome.metrics.messages,
                (n - 1) as u64,
                "{}",
                fam.name()
            );
        }
    }

    #[test]
    fn oracle_size_is_n_log_n_plus_lower_order() {
        // Per node with c children: c·⌈log n⌉ + 2#2(⌈log n⌉) + 2 bits; the
        // tree has n−1 child slots in total, and at most n−1 internal
        // nodes, so the total is ≤ (n−1)⌈log n⌉ + (n−1)·O(log log n).
        let mut rng = StdRng::seed_from_u64(4);
        for fam in Family::ALL {
            let g = fam.build(60, &mut rng);
            let n = g.num_nodes() as u64;
            let advice = SpanningTreeOracle::default().advise(&g, 0);
            let size = advice_size(&advice);
            let log = ceil_log2(n) as u64;
            let header = 2 * oraclesize_bits::bits_to_represent(log) as u64 + 2;
            let bound = (n - 1) * log + (n - 1) * header;
            assert!(size <= bound, "{}: {size} > {bound}", fam.name());
        }
    }

    #[test]
    fn wakeup_works_asynchronously_and_anonymously() {
        let g = families::complete_rotational(25);
        for kind in SchedulerKind::sweep(11) {
            let cfg = SimConfig::wakeup()
                .with_scheduler(kind)
                .with_anonymous(true)
                .with_max_message_bits(0);
            let run = execute(&g, 7, &SpanningTreeOracle::default(), &TreeWakeup, &cfg).unwrap();
            assert!(run.outcome.all_informed(), "{}", kind.name());
            assert_eq!(run.outcome.metrics.messages, 24);
            assert_eq!(run.outcome.metrics.max_message_bits, 0);
        }
    }

    #[test]
    fn all_tree_algorithms_yield_correct_wakeup() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = families::random_connected(30, 0.2, &mut rng);
        for alg in TreeAlgorithm::ALL {
            let oracle = SpanningTreeOracle {
                algorithm: alg,
                seed: 9,
            };
            let run = execute(&g, 0, &oracle, &TreeWakeup, &SimConfig::wakeup()).unwrap();
            assert!(run.outcome.all_informed(), "{}", alg.name());
            assert_eq!(run.outcome.metrics.messages, 29);
        }
    }

    #[test]
    fn leaves_get_empty_advice() {
        let g = families::star(8);
        let advice = SpanningTreeOracle::default().advise(&g, 0);
        // Source is the hub; all other nodes are leaves.
        for (v, a) in advice.iter().enumerate().skip(1) {
            assert!(a.is_empty(), "leaf {v} got advice");
        }
        assert!(!advice[0].is_empty());
    }

    #[test]
    fn malformed_advice_degrades_to_leaf() {
        // Garbage advice: protocol must not panic, and wakeup stays legal
        // but incomplete — classified as degraded, not success. (The
        // self-healing counterpart lives in [`crate::robust`].)
        let g = families::path(4);
        let advice = Advice::from(vec![BitString::parse("0101101").unwrap(); 4]);
        let out =
            oraclesize_sim::engine::run(&g, 0, &advice, &TreeWakeup, &SimConfig::wakeup()).unwrap();
        assert!(!out.all_informed());
        assert_eq!(
            out.classify(),
            oraclesize_sim::Completion::Degraded { uninformed: 3 }
        );
    }

    #[test]
    fn duplicate_wake_messages_do_not_refire() {
        // On a path rooted mid-way the source has two children; each child
        // chain fires once — total messages still n−1 even though the state
        // machine is re-entered on stray deliveries.
        let g = families::path(7);
        let run = execute(
            &g,
            3,
            &SpanningTreeOracle::default(),
            &TreeWakeup,
            &SimConfig::wakeup(),
        )
        .unwrap();
        assert!(run.outcome.all_informed());
        assert_eq!(run.outcome.metrics.messages, 6);
    }
}
