//! Structure-construction tasks — the paper's other §1.2 examples:
//! "as well as, e.g., the construction of a BFS tree or a minimum spanning
//! tree."
//!
//! Construction tasks expose the extreme point of the oracle measure: with
//! advice, a node can simply be *told* its parent port, so the tree is
//! built with **zero messages** from an `O(n log Δ)`-bit oracle
//! ([`BfsTreeOracle`] + [`ZeroMessageTree`]). Without advice, the natural
//! distributed BFS ([`DistributedBfs`]) floods: `Θ(m)` messages. (The
//! zero-advice MST comparator is GHS, `O(m + n log n)` messages — a
//! protocol whose faithful implementation is a project of its own and whose
//! *cost* is exactly what the oracle eliminates; we implement the oracle
//! side plus an independent verifier.)
//!
//! A node's output is `γ(parent_port + 1)` with `0` meaning "I am the
//! root"; [`verify_bfs_tree`] and [`verify_mst`] check the collected
//! outputs against the graph independently of how they were produced.

use oraclesize_bits::codec::{Codec, EliasGamma};
use oraclesize_bits::BitString;
use oraclesize_graph::spanning::{bfs_tree, min_weight_tree};
use oraclesize_graph::traverse::bfs_distances;
use oraclesize_graph::{NodeId, Port, PortGraph};
use oraclesize_sim::protocol::{Message, NodeBehavior, NodeView, Outgoing, Protocol};

use crate::oracle::{Advice, Oracle};

/// Encodes a parent-port output: `γ(0)` at the root, else `γ(port + 1)`.
pub fn encode_parent_port(parent_port: Option<Port>) -> BitString {
    let mut out = BitString::new();
    EliasGamma.encode(parent_port.map_or(0, |p| p as u64 + 1), &mut out);
    out
}

/// Decodes a parent-port output. Returns `None` on malformed input.
pub fn decode_parent_port(s: &BitString) -> Option<Option<Port>> {
    let mut r = s.reader();
    let head = EliasGamma.decode(&mut r)?;
    if !r.is_empty() {
        return None;
    }
    Some(if head == 0 {
        None
    } else {
        Some((head - 1) as Port)
    })
}

/// Extracts all parent ports from a run's outputs.
///
/// Returns `None` if any node produced no or malformed output.
pub fn collect_parent_ports(outputs: &[Option<BitString>]) -> Option<Vec<Option<Port>>> {
    outputs
        .iter()
        .map(|o| decode_parent_port(o.as_ref()?))
        .collect()
}

/// Checks that `parent_ports` describes a spanning tree of `g` rooted at
/// `root` in which every node's depth equals its BFS distance — i.e. a
/// genuine BFS tree.
///
/// # Errors
///
/// A human-readable description of the first defect.
pub fn verify_bfs_tree(
    g: &PortGraph,
    root: NodeId,
    parent_ports: &[Option<Port>],
) -> Result<(), String> {
    verify_spanning(g, root, parent_ports)?;
    let dist = bfs_distances(g, root);
    for v in 0..g.num_nodes() {
        if let Some(p) = parent_ports[v] {
            let (parent, _) = g.neighbor_via(v, p);
            let (dv, dp) = (
                dist[v].expect("connected"),
                dist[parent].expect("connected"),
            );
            if dp + 1 != dv {
                return Err(format!(
                    "node {v} at distance {dv} has parent {parent} at distance {dp}"
                ));
            }
        }
    }
    Ok(())
}

/// Checks that `parent_ports` describes a *minimum-weight* spanning tree
/// of `g` under the paper's weights `w(e) = min(port_u, port_v)`, rooted at
/// `root`.
///
/// # Errors
///
/// A human-readable description of the first defect.
pub fn verify_mst(
    g: &PortGraph,
    root: NodeId,
    parent_ports: &[Option<Port>],
) -> Result<(), String> {
    verify_spanning(g, root, parent_ports)?;
    let mut total = 0u64;
    for (v, pp) in parent_ports.iter().enumerate() {
        if let Some(p) = *pp {
            let (_, q) = g.neighbor_via(v, p);
            total += (p.min(q)) as u64;
        }
    }
    let optimal: u64 = min_weight_tree(g, root).edges(g).map(|e| e.weight()).sum();
    if total != optimal {
        return Err(format!("claimed tree weight {total}, optimal {optimal}"));
    }
    Ok(())
}

/// Spanning-tree check (no BFS/MST condition): one root, every parent
/// edge exists with an in-range port, every node reaches the root.
///
/// # Errors
///
/// A human-readable description of the first defect.
pub fn verify_spanning(
    g: &PortGraph,
    root: NodeId,
    parent_ports: &[Option<Port>],
) -> Result<(), String> {
    let n = g.num_nodes();
    if parent_ports.len() != n {
        return Err(format!("{} outputs for {n} nodes", parent_ports.len()));
    }
    if parent_ports[root].is_some() {
        return Err("root claims a parent".into());
    }
    for (v, pp) in parent_ports.iter().enumerate() {
        if v != root && pp.is_none() {
            return Err(format!("non-root node {v} claims to be the root"));
        }
        if let Some(p) = pp {
            if *p >= g.degree(v) {
                return Err(format!("node {v} claims port {p} ≥ degree {}", g.degree(v)));
            }
        }
    }
    for v in 0..n {
        let mut cur = v;
        let mut steps = 0;
        while let Some(p) = parent_ports[cur] {
            cur = g.neighbor_via(cur, p).0;
            steps += 1;
            if steps > n {
                return Err(format!("cycle reached from node {v}"));
            }
        }
        if cur != root {
            return Err(format!("node {v} does not reach the root"));
        }
    }
    Ok(())
}

/// The oracle that tells each node its parent port in the BFS tree from
/// the source: `O(n log Δ)` bits, zero messages needed.
#[derive(Debug, Clone, Copy, Default)]
pub struct BfsTreeOracle;

impl Oracle for BfsTreeOracle {
    fn advise(&self, g: &PortGraph, source: NodeId) -> Advice {
        let tree = bfs_tree(g, source);
        (0..g.num_nodes())
            .map(|v| encode_parent_port(tree.parent(v).map(|(_, _, pc)| pc)))
            .collect()
    }

    fn name(&self) -> &'static str {
        "bfs-parent"
    }
}

/// The MST analogue of [`BfsTreeOracle`] (Kruskal under the paper's port
/// weights).
#[derive(Debug, Clone, Copy, Default)]
pub struct MstOracle;

impl Oracle for MstOracle {
    fn advise(&self, g: &PortGraph, source: NodeId) -> Advice {
        let tree = min_weight_tree(g, source);
        (0..g.num_nodes())
            .map(|v| encode_parent_port(tree.parent(v).map(|(_, _, pc)| pc)))
            .collect()
    }

    fn name(&self) -> &'static str {
        "mst-parent"
    }
}

/// The zero-message construction scheme: output the advice verbatim. Sends
/// nothing — the whole cost of the task has moved into the oracle.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroMessageTree;

struct ZeroMessageState {
    advice: BitString,
}

impl NodeBehavior for ZeroMessageState {
    fn on_start(&mut self) -> Vec<Outgoing> {
        Vec::new()
    }

    fn on_receive(&mut self, _port: Port, _message: Message) -> Vec<Outgoing> {
        Vec::new()
    }

    fn output(&self) -> Option<BitString> {
        Some(self.advice.clone())
    }
}

impl Protocol for ZeroMessageTree {
    fn create(&self, view: NodeView) -> Box<dyn NodeBehavior> {
        Box::new(ZeroMessageState {
            advice: view.advice,
        })
    }

    fn name(&self) -> &'static str {
        "zero-message-tree"
    }
}

/// The advice-free comparator: synchronous flooding from the source; each
/// node adopts the port of its *first* delivery as its parent. In
/// synchronous execution deliveries arrive in distance order, so the
/// result is a genuine BFS tree, at `Θ(m)` messages.
///
/// (Under an asynchronous scheduler the output is still a spanning tree
/// rooted at the source, but depths need not equal BFS distances.)
#[derive(Debug, Clone, Copy, Default)]
pub struct DistributedBfs;

struct DistributedBfsState {
    degree: usize,
    is_source: bool,
    parent: Option<Port>,
    done: bool,
}

impl NodeBehavior for DistributedBfsState {
    fn on_start(&mut self) -> Vec<Outgoing> {
        if self.is_source && !self.done {
            self.done = true;
            (0..self.degree)
                .map(|p| Outgoing::new(p, Message::empty()))
                .collect()
        } else {
            Vec::new()
        }
    }

    fn on_receive(&mut self, port: Port, message: Message) -> Vec<Outgoing> {
        if !message.carries_source || self.done || self.is_source {
            return Vec::new();
        }
        self.done = true;
        self.parent = Some(port);
        (0..self.degree)
            .filter(|&p| p != port)
            .map(|p| Outgoing::new(p, Message::empty()))
            .collect()
    }

    fn output(&self) -> Option<BitString> {
        if self.is_source {
            Some(encode_parent_port(None))
        } else {
            self.parent.map(|p| encode_parent_port(Some(p)))
        }
    }
}

impl Protocol for DistributedBfs {
    fn create(&self, view: NodeView) -> Box<dyn NodeBehavior> {
        Box::new(DistributedBfsState {
            degree: view.degree,
            is_source: view.is_source,
            parent: None,
            done: false,
        })
    }

    fn name(&self) -> &'static str {
        "distributed-bfs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::advice_size;
    use crate::runner::execute;
    use oraclesize_graph::families::{self, Family};
    use oraclesize_sim::{SchedulerKind, SimConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parent_port_roundtrip() {
        for pp in [None, Some(0), Some(7), Some(1000)] {
            assert_eq!(decode_parent_port(&encode_parent_port(pp)), Some(pp));
        }
        assert_eq!(decode_parent_port(&BitString::new()), None);
    }

    #[test]
    fn zero_message_bfs_construction_verifies() {
        let mut rng = StdRng::seed_from_u64(81);
        for fam in Family::ALL {
            let g = fam.build(30, &mut rng);
            let run = execute(
                &g,
                0,
                &BfsTreeOracle,
                &ZeroMessageTree,
                &SimConfig::default(),
            )
            .unwrap();
            assert_eq!(run.outcome.metrics.messages, 0, "{}", fam.name());
            let ports = collect_parent_ports(&run.outcome.outputs).unwrap();
            verify_bfs_tree(&g, 0, &ports).unwrap_or_else(|e| panic!("{}: {e}", fam.name()));
        }
    }

    #[test]
    fn zero_message_mst_construction_verifies() {
        let mut rng = StdRng::seed_from_u64(82);
        for fam in [Family::Complete, Family::RandomDense, Family::Grid] {
            let g = fam.build(24, &mut rng);
            let run = execute(&g, 0, &MstOracle, &ZeroMessageTree, &SimConfig::default()).unwrap();
            assert_eq!(run.outcome.metrics.messages, 0);
            let ports = collect_parent_ports(&run.outcome.outputs).unwrap();
            verify_mst(&g, 0, &ports).unwrap_or_else(|e| panic!("{}: {e}", fam.name()));
        }
    }

    #[test]
    fn distributed_bfs_builds_true_bfs_tree_synchronously() {
        let mut rng = StdRng::seed_from_u64(83);
        for fam in Family::ALL {
            let g = fam.build(30, &mut rng);
            let run = execute(
                &g,
                0,
                &crate::oracle::EmptyOracle,
                &DistributedBfs,
                &SimConfig::default(),
            )
            .unwrap();
            // Flooding cost: deg(src) + Σ_{v≠src}(deg − 1).
            assert!(run.outcome.metrics.messages as usize >= g.num_nodes() - 1);
            let ports = collect_parent_ports(&run.outcome.outputs).unwrap();
            verify_bfs_tree(&g, 0, &ports).unwrap_or_else(|e| panic!("{}: {e}", fam.name()));
        }
    }

    #[test]
    fn distributed_bfs_async_still_spans_but_may_not_be_bfs() {
        let g = families::complete_rotational(16);
        let cfg = SimConfig::broadcast().with_scheduler(SchedulerKind::Lifo);
        let run = execute(&g, 0, &crate::oracle::EmptyOracle, &DistributedBfs, &cfg).unwrap();
        let ports = collect_parent_ports(&run.outcome.outputs).unwrap();
        // Spanning always holds…
        verify_spanning(&g, 0, &ports).unwrap();
        // …and on the complete graph any spanning tree IS a BFS tree
        // (diameter 1), so use a graph with diameter > 1 for the negative
        // half:
        let g = families::cycle(12);
        let run = execute(&g, 0, &crate::oracle::EmptyOracle, &DistributedBfs, &cfg).unwrap();
        let ports = collect_parent_ports(&run.outcome.outputs).unwrap();
        verify_spanning(&g, 0, &ports).unwrap();
    }

    #[test]
    fn oracle_vs_protocol_cost_split() {
        // The central contrast: knowledge replaces communication entirely.
        let g = families::complete_rotational(48);
        let with_oracle = execute(
            &g,
            0,
            &BfsTreeOracle,
            &ZeroMessageTree,
            &SimConfig::default(),
        )
        .unwrap();
        let without = execute(
            &g,
            0,
            &crate::oracle::EmptyOracle,
            &DistributedBfs,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(with_oracle.outcome.metrics.messages, 0);
        assert!(with_oracle.oracle_bits > 0);
        assert_eq!(without.oracle_bits, 0);
        assert!(without.outcome.metrics.messages as usize > g.num_edges());
    }

    #[test]
    fn verifiers_reject_corrupted_outputs() {
        let g = families::path(5);
        let tree = bfs_tree(&g, 0);
        let mut ports: Vec<Option<Port>> = (0..5)
            .map(|v| tree.parent(v).map(|(_, _, pc)| pc))
            .collect();
        verify_bfs_tree(&g, 0, &ports).unwrap();
        // Two roots.
        ports[3] = None;
        assert!(verify_bfs_tree(&g, 0, &ports).is_err());
        // Out-of-range port.
        ports[3] = Some(9);
        assert!(verify_bfs_tree(&g, 0, &ports).is_err());
        // Cycle: 1 and 2 point at each other.
        let g2 = families::cycle(4);
        let bad = vec![
            None,
            Some(g2.port_toward(1, 2).unwrap()),
            Some(g2.port_toward(2, 1).unwrap()),
            Some(g2.port_toward(3, 0).unwrap()),
        ];
        assert!(verify_bfs_tree(&g2, 0, &bad).is_err());
    }

    #[test]
    fn verify_mst_rejects_heavier_tree() {
        // On the complete rotational graph the BFS star from 0 is heavier
        // than the MST for n large enough.
        let g = families::complete_rotational(32);
        let bfs = bfs_tree(&g, 0);
        let ports: Vec<Option<Port>> = (0..32)
            .map(|v| bfs.parent(v).map(|(_, _, pc)| pc))
            .collect();
        assert!(verify_mst(&g, 0, &ports).is_err());
    }

    #[test]
    fn construction_oracle_sizes_are_n_log_delta() {
        let g = families::complete_rotational(64);
        let bits = advice_size(&BfsTreeOracle.advise(&g, 0));
        // γ(port+1) ≤ 2⌊log₂(port+1)⌋+1 ≤ 2 log n per node.
        assert!(bits <= 64 * 2 * 12);
        assert!(bits >= 63); // at least one bit per non-root
    }
}
