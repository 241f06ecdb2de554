//! Gossip with an oracle — the third communication task the paper names
//! (§1.2: "various communication tasks, such as broadcast, wakeup or
//! gossip").
//!
//! Every node starts with one value (its label); at the end every node must
//! know *all* values. With tree advice (each node's parent port and child
//! ports in a source-rooted spanning tree) the classic convergecast +
//! downcast runs in exactly `2(n − 1)` messages: values flow up to the
//! root, the complete set flows back down. The oracle costs
//! `O(n log n)` bits — same order as the wakeup oracle, which matches the
//! intuition that gossip is at least as hard as wakeup (it subsumes it).

use std::collections::BTreeSet;

use oraclesize_bits::codec::{Codec, EliasGamma};
use oraclesize_bits::BitString;
use oraclesize_graph::spanning::TreeAlgorithm;
use oraclesize_graph::{NodeId, Port, PortGraph};
use oraclesize_sim::protocol::{Message, NodeBehavior, NodeView, Outgoing, Protocol};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::oracle::{Advice, Oracle};

/// Per-node tree advice: the parent port (absent at the root) and the
/// child ports.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TreeAdvice {
    /// Port toward the parent; `None` at the root.
    pub parent_port: Option<Port>,
    /// Ports toward the children.
    pub child_ports: Vec<Port>,
}

/// Encodes tree advice: `γ(parent_port + 1)` (0 = root) then γ-coded child
/// ports, each as `γ(port)`; the child count is implicit (read to end).
pub fn encode_tree_advice(advice: &TreeAdvice) -> BitString {
    let mut out = BitString::new();
    EliasGamma.encode(advice.parent_port.map_or(0, |p| p as u64 + 1), &mut out);
    for &p in &advice.child_ports {
        EliasGamma.encode(p as u64, &mut out);
    }
    out
}

/// Decodes advice produced by [`encode_tree_advice`], consuming the whole
/// string. Returns `None` on malformed input.
pub fn decode_tree_advice(s: &BitString) -> Option<TreeAdvice> {
    let mut r = s.reader();
    let head = EliasGamma.decode(&mut r)?;
    let parent_port = if head == 0 {
        None
    } else {
        Some((head - 1) as Port)
    };
    let mut child_ports = Vec::new();
    while !r.is_empty() {
        child_ports.push(EliasGamma.decode(&mut r)? as Port);
    }
    Some(TreeAdvice {
        parent_port,
        child_ports,
    })
}

/// The gossip oracle: a source-rooted spanning tree, each node receiving
/// its parent port and child ports. `O(n log n)` bits in total.
#[derive(Debug, Clone, Copy)]
pub struct GossipOracle {
    /// Which spanning tree to encode.
    pub algorithm: TreeAlgorithm,
    /// Seed for randomized tree algorithms.
    pub seed: u64,
}

impl Default for GossipOracle {
    fn default() -> Self {
        GossipOracle {
            algorithm: TreeAlgorithm::Bfs,
            seed: 0,
        }
    }
}

impl Oracle for GossipOracle {
    fn advise(&self, g: &PortGraph, source: NodeId) -> Advice {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let tree = self.algorithm.build(g, source, &mut rng);
        (0..g.num_nodes())
            .map(|v| {
                let advice = TreeAdvice {
                    parent_port: tree.parent(v).map(|(_, _, port_at_child)| port_at_child),
                    child_ports: tree.children(v).map(|(_, p)| p).collect(),
                };
                encode_tree_advice(&advice)
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "gossip-tree"
    }
}

/// Encodes a value set as γ-coded deltas of the sorted values (compact and
/// self-delimiting when prefixed with the γ-coded count).
fn encode_value_set(values: &BTreeSet<u64>) -> BitString {
    let mut out = BitString::new();
    EliasGamma.encode(values.len() as u64, &mut out);
    let mut prev = 0u64;
    for (i, &v) in values.iter().enumerate() {
        let delta = if i == 0 { v } else { v - prev - 1 };
        EliasGamma.encode(delta, &mut out);
        prev = v;
    }
    out
}

/// Decodes a set produced by [`encode_value_set`].
fn decode_value_set(r: &mut oraclesize_bits::BitReader<'_>) -> Option<BTreeSet<u64>> {
    let count = EliasGamma.decode(r)?;
    let mut values = BTreeSet::new();
    let mut prev = 0u64;
    for i in 0..count {
        let delta = EliasGamma.decode(r)?;
        let v = if i == 0 { delta } else { prev + 1 + delta };
        values.insert(v);
        prev = v;
    }
    Some(values)
}

/// Decodes a gossip node's final output (its learned value set).
pub fn decode_gossip_output(s: &BitString) -> Option<BTreeSet<u64>> {
    let mut r = s.reader();
    let set = decode_value_set(&mut r)?;
    if r.is_empty() {
        Some(set)
    } else {
        None
    }
}

/// Convergecast + downcast gossip over the advice tree: exactly `2(n − 1)`
/// messages.
///
/// Each node's initial value is its label, so the protocol requires the
/// labeled (non-anonymous) model — gossip is meaningless without
/// distinguishable inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct TreeGossip;

struct TreeGossipState {
    parent_port: Option<Port>,
    child_ports: Vec<Port>,
    pending_children: BTreeSet<Port>,
    learned: BTreeSet<u64>,
    up_sent: bool,
    down_done: bool,
}

impl TreeGossipState {
    /// Fires the upward message once all children reported; the root
    /// instead starts the downcast.
    fn maybe_advance(&mut self) -> Vec<Outgoing> {
        if !self.pending_children.is_empty() || self.up_sent {
            return Vec::new();
        }
        self.up_sent = true;
        match self.parent_port {
            Some(p) => vec![Outgoing::new(
                p,
                Message::new(encode_value_set(&self.learned)),
            )],
            None => self.downcast(), // root: subtree = everything
        }
    }

    fn downcast(&mut self) -> Vec<Outgoing> {
        if self.down_done {
            return Vec::new();
        }
        self.down_done = true;
        let payload = encode_value_set(&self.learned);
        self.child_ports
            .iter()
            .map(|&p| Outgoing::new(p, Message::new(payload.clone())))
            .collect()
    }
}

impl NodeBehavior for TreeGossipState {
    fn on_start(&mut self) -> Vec<Outgoing> {
        self.maybe_advance() // leaves fire immediately
    }

    fn on_receive(&mut self, port: Port, message: Message) -> Vec<Outgoing> {
        let Some(set) = decode_gossip_output(&message.payload) else {
            return Vec::new(); // malformed payload: ignore
        };
        self.learned.extend(set);
        if Some(port) == self.parent_port {
            // The complete set arrived from above; relay downward.
            self.downcast()
        } else {
            self.pending_children.remove(&port);
            self.maybe_advance()
        }
    }

    fn output(&self) -> Option<BitString> {
        Some(encode_value_set(&self.learned))
    }
}

impl Protocol for TreeGossip {
    fn create(&self, view: NodeView) -> Box<dyn NodeBehavior> {
        let advice = decode_tree_advice(&view.advice).unwrap_or_default();
        let own = view.id.expect("gossip requires the labeled model");
        Box::new(TreeGossipState {
            parent_port: advice.parent_port,
            child_ports: advice.child_ports.clone(),
            pending_children: advice.child_ports.iter().copied().collect(),
            learned: BTreeSet::from([own]),
            up_sent: false,
            down_done: false,
        })
    }

    fn name(&self) -> &'static str {
        "tree-gossip"
    }
}

/// The message bound of tree gossip: one up plus one down per tree edge.
pub fn gossip_message_bound(n: usize) -> u64 {
    2 * n.saturating_sub(1) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::execute;
    use oraclesize_graph::families::{self, Family};
    use oraclesize_sim::{SchedulerKind, SimConfig};

    fn all_labels(g: &PortGraph) -> BTreeSet<u64> {
        (0..g.num_nodes()).map(|v| g.label(v)).collect()
    }

    #[test]
    fn tree_advice_roundtrip() {
        let cases = [
            TreeAdvice {
                parent_port: None,
                child_ports: vec![],
            },
            TreeAdvice {
                parent_port: Some(0),
                child_ports: vec![1, 5, 2],
            },
            TreeAdvice {
                parent_port: Some(7),
                child_ports: vec![],
            },
        ];
        for advice in cases {
            let enc = encode_tree_advice(&advice);
            assert_eq!(decode_tree_advice(&enc), Some(advice));
        }
    }

    #[test]
    fn value_set_roundtrip() {
        for set in [
            BTreeSet::new(),
            BTreeSet::from([0]),
            BTreeSet::from([5, 9, 100, 1000]),
            (0..64u64).collect::<BTreeSet<_>>(),
        ] {
            let enc = encode_value_set(&set);
            assert_eq!(decode_gossip_output(&enc), Some(set));
        }
    }

    #[test]
    fn gossip_completes_with_2n_minus_2_messages() {
        let mut rng = StdRng::seed_from_u64(51);
        for fam in Family::ALL {
            let g = fam.build(24, &mut rng);
            let nodes = g.num_nodes();
            let run = execute(
                &g,
                0,
                &GossipOracle::default(),
                &TreeGossip,
                &SimConfig::default(),
            )
            .unwrap();
            assert_eq!(
                run.outcome.metrics.messages,
                gossip_message_bound(nodes),
                "{}",
                fam.name()
            );
            assert_eq!(run.outcome.outputs.len(), g.num_nodes());
            for (v, out) in run.outcome.outputs.iter().enumerate() {
                let learned =
                    decode_gossip_output(out.as_ref().expect("gossip emits output")).unwrap();
                assert_eq!(learned, all_labels(&g), "{} node {v}", fam.name());
            }
        }
    }

    #[test]
    fn gossip_works_async() {
        let g = families::complete_rotational(20);
        for kind in SchedulerKind::sweep(3) {
            let run = execute(
                &g,
                4,
                &GossipOracle::default(),
                &TreeGossip,
                &SimConfig::broadcast().with_scheduler(kind),
            )
            .unwrap();
            assert_eq!(run.outcome.metrics.messages, 38, "{}", kind.name());
            assert_eq!(run.outcome.outputs.len(), 20);
            for out in &run.outcome.outputs {
                let learned = decode_gossip_output(out.as_ref().unwrap()).unwrap();
                assert_eq!(learned.len(), 20);
            }
        }
    }

    #[test]
    fn gossip_oracle_size_is_n_log_n_order() {
        // Parent + child ports ≈ the wakeup advice plus n parent entries.
        let g = families::complete_rotational(128);
        let gossip_bits = crate::oracle::advice_size(&GossipOracle::default().advise(&g, 0));
        let wakeup_bits =
            crate::oracle::advice_size(&crate::wakeup::SpanningTreeOracle::default().advise(&g, 0));
        assert!(gossip_bits >= wakeup_bits / 4);
        assert!(gossip_bits <= 4 * wakeup_bits + 16 * 128);
    }

    #[test]
    fn single_node_gossip() {
        let g = oraclesize_graph::PortGraph::from_adjacency(vec![vec![]]).unwrap();
        let run = execute(
            &g,
            0,
            &GossipOracle::default(),
            &TreeGossip,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(run.outcome.metrics.messages, 0);
        let learned = decode_gossip_output(run.outcome.outputs[0].as_ref().unwrap()).unwrap();
        assert_eq!(learned, BTreeSet::from([0]));
    }

    #[test]
    fn payload_bits_reflect_set_growth() {
        // Upward payloads grow toward the root: total payload bits are
        // superlinear in n (Θ(n log n) on a path), unlike the O(n)-bit
        // broadcast payload total of 0.
        let g = families::path(64);
        let run = execute(
            &g,
            0,
            &GossipOracle::default(),
            &TreeGossip,
            &SimConfig::default(),
        )
        .unwrap();
        assert!(run.outcome.metrics.payload_bits > 64 * 8);
    }

    #[test]
    fn own_value_always_in_output() {
        let mut rng = StdRng::seed_from_u64(53);
        let g = families::random_connected(15, 0.3, &mut rng);
        let run = execute(
            &g,
            7,
            &GossipOracle {
                algorithm: TreeAlgorithm::Dfs,
                seed: 0,
            },
            &TreeGossip,
            &SimConfig::default(),
        )
        .unwrap();
        for v in 0..15 {
            let learned = decode_gossip_output(run.outcome.outputs[v].as_ref().unwrap()).unwrap();
            assert!(learned.contains(&g.label(v)));
        }
    }
}
