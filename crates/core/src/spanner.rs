//! Spanner construction with an oracle — the conclusion's other
//! conjectured application ("we conjecture that oracles can be also used
//! to assess difficulty of … spanner construction").
//!
//! A *t-spanner* of `G` is a spanning subgraph in which every pair of
//! nodes is at distance at most `t` times its distance in `G` (for
//! unweighted graphs it suffices that every edge of `G` has a spanner
//! detour of length ≤ `t`). The oracle angle: [`SpannerOracle`] computes a
//! greedy `t`-spanner centrally and hands each node its incident spanner
//! ports, so the structure is "constructed" with **zero messages**; the
//! knowledge cost is the advice size, which *decreases* as the allowed
//! stretch grows — a quantitative knowledge/quality trade-off in the
//! spirit the conclusion proposes (experiment T19).

use std::collections::VecDeque;

use oraclesize_bits::codec::{Codec, EliasGamma};
use oraclesize_bits::BitString;
use oraclesize_graph::{EdgeRef, NodeId, Port, PortGraph};

use crate::oracle::{Advice, Oracle};

/// The classic greedy spanner: scan edges (in canonical order for
/// unweighted graphs) and keep an edge iff the current spanner does not
/// already connect its endpoints within `t` hops. The result is a
/// `t`-spanner; for `t = 2k−1` it has `O(n^{1+1/k})` edges.
///
/// # Panics
///
/// Panics if `t == 0`.
pub fn greedy_spanner(g: &PortGraph, t: usize) -> Vec<EdgeRef> {
    assert!(t >= 1, "stretch must be at least 1");
    let n = g.num_nodes();
    let mut spanner_adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut kept = Vec::new();
    for e in g.edges() {
        if bounded_distance(&spanner_adj, e.u, e.v, t).is_none() {
            spanner_adj[e.u].push(e.v);
            spanner_adj[e.v].push(e.u);
            kept.push(e);
        }
    }
    kept
}

/// BFS distance from `a` to `b` in `adj`, cut off beyond `limit`; `None`
/// if farther (or disconnected).
fn bounded_distance(adj: &[Vec<NodeId>], a: NodeId, b: NodeId, limit: usize) -> Option<usize> {
    if a == b {
        return Some(0);
    }
    let mut dist = vec![usize::MAX; adj.len()];
    dist[a] = 0;
    let mut queue = VecDeque::from([a]);
    while let Some(v) = queue.pop_front() {
        if dist[v] >= limit {
            continue;
        }
        for &u in &adj[v] {
            if dist[u] == usize::MAX {
                dist[u] = dist[v] + 1;
                if u == b {
                    return Some(dist[u]);
                }
                queue.push_back(u);
            }
        }
    }
    None
}

/// Encodes a node's spanner ports as consecutive `γ(port)` values.
pub fn encode_port_set(ports: &[Port]) -> BitString {
    let mut out = BitString::new();
    for &p in ports {
        EliasGamma.encode(p as u64, &mut out);
    }
    out
}

/// Decodes a port set produced by [`encode_port_set`].
pub fn decode_port_set(s: &BitString) -> Option<Vec<Port>> {
    let mut r = s.reader();
    let mut ports = Vec::new();
    while !r.is_empty() {
        ports.push(EliasGamma.decode(&mut r)? as Port);
    }
    Some(ports)
}

/// The spanner oracle: every node receives its incident greedy-`t`-spanner
/// ports.
#[derive(Debug, Clone, Copy)]
pub struct SpannerOracle {
    /// Allowed stretch `t ≥ 1`.
    pub stretch: usize,
}

impl SpannerOracle {
    /// An oracle for greedy `t`-spanners.
    ///
    /// # Panics
    ///
    /// Panics if `stretch == 0`.
    pub fn new(stretch: usize) -> Self {
        assert!(stretch >= 1, "stretch must be at least 1");
        SpannerOracle { stretch }
    }
}

impl Oracle for SpannerOracle {
    fn advise(&self, g: &PortGraph, _source: NodeId) -> Advice {
        let mut per_node: Vec<Vec<Port>> = vec![Vec::new(); g.num_nodes()];
        for e in greedy_spanner(g, self.stretch) {
            per_node[e.u].push(e.port_u);
            per_node[e.v].push(e.port_v);
        }
        per_node.into_iter().map(|p| encode_port_set(&p)).collect()
    }

    fn name(&self) -> &'static str {
        "greedy-spanner"
    }
}

/// Checks that the per-node port sets describe a `t`-spanner of `g`:
/// consistent (both endpoints list each edge), and every edge of `g` has a
/// detour of length ≤ `t` inside the subgraph (which bounds the stretch of
/// all pairs by `t`).
///
/// # Errors
///
/// A human-readable description of the first defect, including the number
/// of spanner edges on success via `Ok(edge_count)`.
pub fn verify_spanner(g: &PortGraph, port_sets: &[Vec<Port>], t: usize) -> Result<usize, String> {
    let n = g.num_nodes();
    if port_sets.len() != n {
        return Err(format!("{} port sets for {n} nodes", port_sets.len()));
    }
    let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut edge_count = 0;
    for (v, ports) in port_sets.iter().enumerate() {
        for &p in ports {
            if p >= g.degree(v) {
                return Err(format!("node {v} lists port {p} ≥ degree {}", g.degree(v)));
            }
            let (u, q) = g.neighbor_via(v, p);
            // Symmetry: u must list q.
            if !port_sets[u].contains(&q) {
                return Err(format!("edge {v}:{p} not confirmed by {u}:{q}"));
            }
            if v < u {
                adj[v].push(u);
                adj[u].push(v);
                edge_count += 1;
            }
        }
    }
    for e in g.edges() {
        if bounded_distance(&adj, e.u, e.v, t).is_none() {
            return Err(format!(
                "edge {{{},{}}} has no detour of length ≤ {t}",
                e.u, e.v
            ));
        }
    }
    Ok(edge_count)
}

/// Decodes all outputs into port sets; `None` if any node's output is
/// missing or malformed.
pub fn collect_port_sets(outputs: &[Option<BitString>]) -> Option<Vec<Vec<Port>>> {
    outputs
        .iter()
        .map(|o| decode_port_set(o.as_ref()?))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construction::ZeroMessageTree;
    use crate::oracle::advice_size;
    use crate::runner::execute;
    use oraclesize_graph::families::{self, Family};
    use oraclesize_sim::SimConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn stretch_one_spanner_is_the_whole_graph() {
        let g = families::complete_rotational(10);
        let spanner = greedy_spanner(&g, 1);
        assert_eq!(spanner.len(), g.num_edges());
    }

    #[test]
    fn spanner_of_a_tree_is_the_tree() {
        let g = families::binary_tree(15);
        for t in [1usize, 3, 7] {
            assert_eq!(greedy_spanner(&g, t).len(), 14, "t={t}");
        }
    }

    #[test]
    fn spanner_edges_decrease_with_stretch() {
        let g = families::complete_rotational(40);
        let e1 = greedy_spanner(&g, 1).len();
        let e3 = greedy_spanner(&g, 3).len();
        let e5 = greedy_spanner(&g, 5).len();
        assert!(e1 > e3, "{e1} vs {e3}");
        assert!(e3 >= e5, "{e3} vs {e5}");
        // 3-spanner of K_40 should be far sparser than the graph.
        assert!(e3 < e1 / 2);
    }

    #[test]
    fn greedy_spanner_verifies_on_all_families() {
        let mut rng = StdRng::seed_from_u64(111);
        for fam in Family::ALL {
            let g = fam.build(24, &mut rng);
            for t in [2usize, 3, 5] {
                let mut per_node: Vec<Vec<Port>> = vec![Vec::new(); g.num_nodes()];
                for e in greedy_spanner(&g, t) {
                    per_node[e.u].push(e.port_u);
                    per_node[e.v].push(e.port_v);
                }
                verify_spanner(&g, &per_node, t)
                    .unwrap_or_else(|e| panic!("{} t={t}: {e}", fam.name()));
            }
        }
    }

    #[test]
    fn zero_message_spanner_construction_end_to_end() {
        let mut rng = StdRng::seed_from_u64(112);
        let g = families::random_connected(32, 0.4, &mut rng);
        let run = execute(
            &g,
            0,
            &SpannerOracle::new(3),
            &ZeroMessageTree,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(run.outcome.metrics.messages, 0);
        let sets = collect_port_sets(&run.outcome.outputs).unwrap();
        let edges = verify_spanner(&g, &sets, 3).unwrap();
        assert!(edges < g.num_edges());
    }

    #[test]
    fn advice_size_decreases_with_stretch() {
        let g = families::complete_rotational(48);
        let s1 = advice_size(&SpannerOracle::new(1).advise(&g, 0));
        let s3 = advice_size(&SpannerOracle::new(3).advise(&g, 0));
        let s9 = advice_size(&SpannerOracle::new(9).advise(&g, 0));
        assert!(s1 > s3 && s3 >= s9, "{s1}, {s3}, {s9}");
    }

    #[test]
    fn verify_spanner_rejects_defects() {
        let g = families::cycle(6);
        // Asymmetric listing.
        let mut sets: Vec<Vec<Port>> = vec![Vec::new(); 6];
        sets[0].push(0);
        assert!(verify_spanner(&g, &sets, 3).is_err());
        // Out-of-range port.
        let sets = vec![vec![5], vec![], vec![], vec![], vec![], vec![]];
        assert!(verify_spanner(&g, &sets, 3).is_err());
        // Empty subgraph cannot 2-span a cycle.
        let sets: Vec<Vec<Port>> = vec![Vec::new(); 6];
        assert!(verify_spanner(&g, &sets, 2).is_err());
    }

    #[test]
    fn port_set_roundtrip() {
        for ports in [vec![], vec![0], vec![3, 1, 4, 1 + 10]] {
            let enc = encode_port_set(&ports);
            assert_eq!(decode_port_set(&enc), Some(ports));
        }
    }
}
