//! Baselines the paper's bounds are measured against.
//!
//! * **No knowledge**: [`FloodOnce`](oraclesize_sim::protocol::FloodOnce)
//!   with the [`EmptyOracle`](crate::oracle::EmptyOracle) — broadcast in
//!   `Θ(m)` messages, the cost the `O(n)`-bit oracle removes.
//! * **Total knowledge**: [`FullMapOracle`] + [`MapWakeup`] — every node
//!   receives the entire port-labeled map (`Θ(n·m·log n)` bits in total)
//!   and recomputes the same BFS tree locally; wakeup then takes `n − 1`
//!   messages. This brackets Theorem 2.1 from the other side: the paper's
//!   point is that `Θ(n log n)` bits — exponentially less than the full
//!   map — already suffice. Only the leading `γ(own index)` differs from
//!   node to node, so [`FullMapOracle`] encodes the map once per graph and
//!   copies it behind each node's index; every node still receives, and is
//!   charged for, the whole map.

use oraclesize_bits::codec::{Codec, EliasGamma, FixedWidth};
use oraclesize_bits::{ceil_log2, BitString};
use oraclesize_graph::{NodeId, Port, PortGraph};
use oraclesize_sim::protocol::{ForwardOnce, NodeBehavior, NodeView, Protocol};

use crate::oracle::{Advice, Oracle};

/// A decoded full map: `adj[v][p] = (neighbor, arrival_port)`, plus the
/// source and the receiving node's own index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FullMap {
    /// Index of the node holding this advice.
    pub own_index: usize,
    /// Index of the source node.
    pub source: usize,
    /// Port-labeled adjacency of the whole network.
    pub adj: Vec<Vec<(usize, usize)>>,
}

/// Encodes the whole network plus `own`/`source` indices:
/// `γ(own)` followed by the part every node shares.
pub fn encode_full_map(g: &PortGraph, source: NodeId, own: NodeId) -> BitString {
    with_own_index(own, &encode_full_map_tail(g, source))
}

/// The node-independent part of a full-map string: `γ(source)`, `γ(n)`,
/// `γ(max_deg)`, then each node's `γ(degree)` and fixed-width
/// `(neighbor, arrival port)` pairs.
fn encode_full_map_tail(g: &PortGraph, source: NodeId) -> BitString {
    let n = g.num_nodes() as u64;
    let max_deg = (0..g.num_nodes()).map(|v| g.degree(v)).max().unwrap_or(0) as u64;
    let node_w = ceil_log2(n.max(2)).max(1);
    let port_w = ceil_log2(max_deg.max(2)).max(1);
    let mut out = BitString::new();
    EliasGamma.encode(source as u64, &mut out);
    EliasGamma.encode(n, &mut out);
    EliasGamma.encode(max_deg, &mut out);
    let node_codec = FixedWidth::new(node_w);
    let port_codec = FixedWidth::new(port_w);
    for v in 0..g.num_nodes() {
        EliasGamma.encode(g.degree(v) as u64, &mut out);
        for p in 0..g.degree(v) {
            let (u, q) = g.neighbor_via(v, p);
            node_codec.encode(u as u64, &mut out);
            port_codec.encode(q as u64, &mut out);
        }
    }
    out
}

/// `γ(own)` followed by `tail`: one node's whole full-map string.
fn with_own_index(own: NodeId, tail: &BitString) -> BitString {
    let mut out = BitString::with_capacity(EliasGamma.encoded_len(own as u64) + tail.len());
    EliasGamma.encode(own as u64, &mut out);
    out.extend_from(tail);
    out
}

/// Decodes a map produced by [`encode_full_map`]. Returns `None` on
/// malformed input.
pub fn decode_full_map(advice: &BitString) -> Option<FullMap> {
    let mut r = advice.reader();
    let own = EliasGamma.decode(&mut r)? as usize;
    let source = EliasGamma.decode(&mut r)? as usize;
    let n = EliasGamma.decode(&mut r)?;
    let max_deg = EliasGamma.decode(&mut r)?;
    // Every node's degree code takes at least one bit, so a header claiming
    // more nodes than bits remain is malformed (and cannot force a large
    // allocation below).
    if n == 0 || n > r.remaining() as u64 {
        return None;
    }
    let node_codec = FixedWidth::new(ceil_log2(n.max(2)).max(1));
    let port_codec = FixedWidth::new(ceil_log2(max_deg.max(2)).max(1));
    let mut adj = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let deg = EliasGamma.decode(&mut r)? as usize;
        if deg as u64 > max_deg {
            return None;
        }
        let mut ports = Vec::with_capacity(deg);
        for _ in 0..deg {
            let u = node_codec.decode(&mut r)? as usize;
            let q = port_codec.decode(&mut r)? as usize;
            if u >= n as usize {
                return None;
            }
            ports.push((u, q));
        }
        adj.push(ports);
    }
    if own >= n as usize || source >= n as usize || !r.is_empty() {
        return None;
    }
    Some(FullMap {
        own_index: own,
        source,
        adj,
    })
}

/// The total-knowledge oracle: every node receives the full port-labeled
/// map plus its own index and the source index.
#[derive(Debug, Clone, Copy, Default)]
pub struct FullMapOracle;

impl Oracle for FullMapOracle {
    fn advise(&self, g: &PortGraph, source: NodeId) -> Advice {
        let tail = encode_full_map_tail(g, source);
        (0..g.num_nodes())
            .map(|v| with_own_index(v, &tail))
            .collect()
    }

    fn name(&self) -> &'static str {
        "full-map"
    }
}

/// Deterministic BFS tree over a decoded map (port order), returning each
/// node's child ports. All nodes compute the same tree, so the wakeup
/// needs no coordination.
pub fn map_bfs_child_ports(map: &FullMap) -> Vec<Vec<Port>> {
    let n = map.adj.len();
    let mut parent = vec![usize::MAX; n];
    let mut visited = vec![false; n];
    visited[map.source] = true;
    let mut queue = std::collections::VecDeque::from([map.source]);
    let mut children: Vec<Vec<Port>> = vec![Vec::new(); n];
    while let Some(v) = queue.pop_front() {
        for (p, &(u, _)) in map.adj[v].iter().enumerate() {
            if !visited[u] {
                visited[u] = true;
                parent[u] = v;
                children[v].push(p);
                queue.push_back(u);
            }
        }
    }
    children
}

/// Wakeup from the full map: identical message pattern to
/// [`TreeWakeup`](crate::wakeup::TreeWakeup) (`n − 1` messages), paid for
/// with a far larger oracle.
#[derive(Debug, Clone, Copy, Default)]
pub struct MapWakeup;

/// The child ports the full map's BFS tree gives the node holding the
/// advice, dropping any port `≥ degree`; undecodable advice leaves the
/// node a silent leaf, as in [`TreeWakeup`](crate::wakeup::TreeWakeup).
fn map_child_ports(advice: &BitString, degree: usize) -> Option<Vec<Port>> {
    let mut ports = decode_full_map(advice)
        .map(|map| map_bfs_child_ports(&map).swap_remove(map.own_index))
        .unwrap_or_default();
    ports.retain(|&p| p < degree);
    Some(ports)
}

/// The scheme's rule: forward once, on the map's BFS child ports.
const RULE: ForwardOnce = ForwardOnce(map_child_ports);

impl Protocol for MapWakeup {
    fn create(&self, view: NodeView) -> Box<dyn NodeBehavior> {
        RULE.node(&view)
    }

    fn name(&self) -> &'static str {
        "map-wakeup"
    }

    // No `forward_once` override, on purpose: the scheme stays on the
    // per-message path. On the kernel its runs were no faster, and the
    // `separation` benchmark's set-up grew by a median 18 %: a per-message
    // run packs the full-map advice into a multi-MiB arena and frees it,
    // which raises glibc malloc's dynamic mmap threshold, and the next
    // set-up's large allocations are cheaper for it.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::advice_size;
    use crate::runner::execute;
    use oraclesize_graph::families::{self, Family};
    use oraclesize_sim::SimConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn map_roundtrip() {
        let mut rng = StdRng::seed_from_u64(31);
        let g = families::random_connected(12, 0.3, &mut rng);
        for v in 0..12 {
            let enc = encode_full_map(&g, 3, v);
            let map = decode_full_map(&enc).unwrap();
            assert_eq!(map.own_index, v);
            assert_eq!(map.source, 3);
            assert_eq!(map.adj.len(), 12);
            for u in 0..12 {
                assert_eq!(map.adj[u].len(), g.degree(u));
                for p in 0..g.degree(u) {
                    assert_eq!(map.adj[u][p], g.neighbor_via(u, p));
                }
            }
        }
    }

    #[test]
    fn map_decode_rejects_truncation() {
        let g = families::cycle(6);
        let enc = encode_full_map(&g, 0, 1);
        let cut: BitString = enc.iter().take(enc.len() - 3).collect();
        assert!(decode_full_map(&cut).is_none());
    }

    #[test]
    fn oracle_advice_is_the_single_node_encoding() {
        let mut rng = StdRng::seed_from_u64(34);
        let mut graphs: Vec<PortGraph> = Family::ALL
            .iter()
            .map(|fam| fam.build(17, &mut rng))
            .collect();
        graphs.push(oraclesize_graph::gadgets::random_subdivided_complete(9, 12, &mut rng).0);
        for g in &graphs {
            let source = g.num_nodes() / 2;
            assert_ne!(source, 0);
            let advice = FullMapOracle.advise(g, source);
            assert_eq!(advice.len(), g.num_nodes());
            for (v, a) in advice.iter().enumerate() {
                assert_eq!(*a, encode_full_map(g, source, v), "node {v}");
            }
        }
    }

    #[test]
    fn map_decode_rejects_a_node_count_the_body_cannot_hold() {
        let mut forged = BitString::new();
        for header in [0, 0, 1 << 40, 1] {
            EliasGamma.encode(header, &mut forged);
        }
        forged.push_uint(0, 32);
        assert!(decode_full_map(&forged).is_none());
    }

    #[test]
    fn map_roundtrips_past_a_million_nodes() {
        let n = 1_000_405;
        let g = families::cycle(n);
        let map = decode_full_map(&encode_full_map(&g, 7, n - 1)).unwrap();
        assert_eq!((map.own_index, map.source), (n - 1, 7));
        assert_eq!(map.adj.len(), n);
        for v in [0, 1, n / 2, n - 1] {
            let expected: Vec<_> = (0..2).map(|p| g.neighbor_via(v, p)).collect();
            assert_eq!(map.adj[v], expected, "node {v}");
        }
    }

    #[test]
    fn map_wakeup_uses_n_minus_1_messages() {
        let mut rng = StdRng::seed_from_u64(32);
        for fam in Family::ALL {
            let g = fam.build(20, &mut rng);
            let run = execute(&g, 0, &FullMapOracle, &MapWakeup, &SimConfig::wakeup()).unwrap();
            assert!(run.outcome.all_informed(), "{}", fam.name());
            assert_eq!(run.outcome.metrics.messages, g.num_nodes() as u64 - 1);
        }
    }

    #[test]
    fn map_wakeup_drops_ports_beyond_the_degree() {
        // The source of K_5 has four BFS children; a view that claims
        // degree 2 keeps the two ports it has, and an undecodable map
        // leaves the node a silent leaf.
        let g = families::complete_rotational(5);
        let view = |advice, degree| NodeView {
            advice,
            is_source: true,
            id: None,
            degree,
        };
        let ports = |mut node: Box<dyn NodeBehavior>| -> Vec<Port> {
            node.on_start().iter().map(|s| s.port).collect()
        };
        let advice = encode_full_map(&g, 0, 0);
        assert_eq!(
            ports(MapWakeup.create(view(advice.clone(), 4))),
            [0, 1, 2, 3]
        );
        assert_eq!(ports(MapWakeup.create(view(advice, 2))), [0, 1]);
        assert!(ports(MapWakeup.create(view(BitString::from_bits([true]), 4))).is_empty());
    }

    #[test]
    fn full_map_is_vastly_larger_than_tree_oracle() {
        let g = families::complete_rotational(24);
        let full = advice_size(&FullMapOracle.advise(&g, 0));
        let tree = advice_size(&crate::wakeup::SpanningTreeOracle::default().advise(&g, 0));
        assert!(full > 20 * tree, "full map {full} not ≫ tree oracle {tree}");
    }

    #[test]
    fn bfs_child_ports_cover_every_non_source_once() {
        let mut rng = StdRng::seed_from_u64(33);
        let g = families::random_connected(15, 0.3, &mut rng);
        let map = decode_full_map(&encode_full_map(&g, 4, 0)).unwrap();
        let children = map_bfs_child_ports(&map);
        let mut covered = [false; 15];
        covered[4] = true;
        for (v, ports) in children.iter().enumerate() {
            for &p in ports {
                let (u, _) = g.neighbor_via(v, p);
                assert!(!covered[u], "node {u} covered twice");
                covered[u] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }
}
