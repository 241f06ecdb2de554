//! The paper's lower-bound constructions.
//!
//! * [`subdivide_edges`] — the graphs `G_{n,S}` of Theorem 2.2: a degree-2
//!   node is hidden inside each edge of `S`, keeping the port numbers at the
//!   original endpoints unchanged, so a scheme cannot tell a subdivided edge
//!   from an original one without traversing it.
//! * [`clique_gadget_graph`] — the graphs `G_{n,S,C}` of Theorem 3.2: each
//!   edge `e_i ∈ S` is replaced by a `k`-clique `H_i` missing one
//!   adversarially chosen edge `f_i = {a_i, b_i}`; the clique is spliced
//!   into `e_i` through `a_i` and `b_i`, again preserving the outside port
//!   numbers.
//!
//! Both constructions take any base [`PortGraph`]; the paper instantiates
//! them on [`crate::families::complete_rotational`].

use rand::seq::SliceRandom;
use rand::Rng;

use crate::csr::{check_size, narrow, widen};
use crate::portgraph::{EdgeRef, NodeId, PortGraph};

/// Inserts a degree-2 node in the middle of each edge in `subdivided`
/// (the construction `G_{n,S}`, Theorem 2.2).
///
/// For the `i`-th edge `{u, v}` (with `label(u) < label(v)`), the new node
/// `w_i` gets node id `n + i`, label `max_label + 1 + i`, port `0` toward
/// `u` and port `1` toward `v`; the ports at `u` and `v` are untouched. The
/// order of `subdivided` is significant: the paper's edge-discovery label of
/// a hidden node is its rank in `S`.
///
/// # Panics
///
/// Panics if an edge of `subdivided` is not present in `g`, if the same
/// edge appears twice, or if the result does not fit the `u32` layout.
pub fn subdivide_edges(g: &PortGraph, subdivided: &[EdgeRef]) -> PortGraph {
    let n = g.num_nodes();
    let m = subdivided.len();
    let arcs = g.num_edges().checked_add(m).and_then(|e| e.checked_mul(2));
    let (_, arcs) = check_size(n.checked_add(m), arcs).unwrap_or_else(|e| panic!("{e}"));
    // Every id, port and offset written below is under the checked counts.
    let fit = |x: usize| narrow("index", x).expect("within the checked size");
    // Copy the base graph's CSR arrays and append the hidden nodes at the
    // end — original node spans keep their offsets, so the splice below is
    // index arithmetic, never a reallocation per node.
    let mut offsets: Vec<u32> = Vec::with_capacity(n + m + 1);
    let mut targets: Vec<u32> = Vec::with_capacity(widen(arcs));
    let mut back_ports: Vec<u32> = Vec::with_capacity(widen(arcs));
    offsets.push(0);
    for v in 0..n {
        let (row_targets, row_arrivals) = g.row(v);
        targets.extend_from_slice(row_targets);
        back_ports.extend_from_slice(row_arrivals);
        offsets.push(fit(targets.len()));
    }
    let mut labels: Vec<u64> = (0..n).map(|v| g.label(v)).collect();
    let max_label = labels.iter().copied().max().unwrap_or(0);

    // One flag per base arc. The graph is simple, so the canonical arc
    // `(u, port_u)` with `u < v` names the edge `{u, v}` uniquely.
    let mut seen = vec![false; g.num_edges() * 2];
    for (i, e) in subdivided.iter().enumerate() {
        // Canonical-orientation port lookup instead of a neighbor scan:
        // O(1) per edge where `edge_between` is O(deg).
        let present = e.u < e.v
            && e.port_u < g.degree(e.u)
            && g.neighbor_via(e.u, e.port_u) == (e.v, e.port_v);
        assert!(present, "edge {e:?} not present in base graph");
        let arc = widen(offsets[e.u]) + e.port_u;
        assert!(
            !std::mem::replace(&mut seen[arc], true),
            "edge {e:?} subdivided twice"
        );
        let w = fit(n + i);
        // Orient by label as the paper does.
        let (a, pa, b, pb) = if g.label(e.u) < g.label(e.v) {
            (e.u, e.port_u, e.v, e.port_v)
        } else {
            (e.v, e.port_v, e.u, e.port_u)
        };
        let (slot_a, slot_b) = (widen(offsets[a]) + pa, widen(offsets[b]) + pb);
        targets[slot_a] = w;
        back_ports[slot_a] = 0;
        targets[slot_b] = w;
        back_ports[slot_b] = 1;
        targets.extend([fit(a), fit(b)]);
        back_ports.extend([fit(pa), fit(pb)]);
        offsets.push(fit(targets.len()));
        labels.push(max_label + 1 + i as u64);
    }
    PortGraph::from_csr(offsets, targets, back_ports, labels)
        .expect("subdivision preserves invariants")
}

/// Chooses `m` distinct edges of `g` uniformly at random — a random `S` for
/// the constructions above.
///
/// # Panics
///
/// Panics if `m` exceeds the number of edges.
pub fn random_distinct_edges<R: Rng>(g: &PortGraph, m: usize, rng: &mut R) -> Vec<EdgeRef> {
    let mut edges: Vec<EdgeRef> = g.edges().collect();
    assert!(m <= edges.len(), "requested {m} of {} edges", edges.len());
    edges.shuffle(rng);
    edges.truncate(m);
    edges
}

/// The missing-edge choices `C = ((a_1,b_1), …)` for [`clique_gadget_graph`]:
/// local node index pairs within each clique, `a < b < k`.
pub type MissingEdges = Vec<(usize, usize)>;

/// Samples a uniformly random `C` for `num_gadgets` cliques of size `k`.
///
/// # Panics
///
/// Panics if `k < 2`.
pub fn random_missing_edges<R: Rng>(num_gadgets: usize, k: usize, rng: &mut R) -> MissingEdges {
    assert!(k >= 2, "cliques need at least two nodes");
    (0..num_gadgets)
        .map(|_| {
            let a = rng.gen_range(0..k - 1);
            let b = rng.gen_range(a + 1..k);
            (a, b)
        })
        .collect()
}

/// Builds `G_{n,S,C}` (Theorem 3.2): replaces each edge `e_i ∈ s` of the
/// base graph by a `k`-clique `H_i` (rotational internal port labeling)
/// missing its edge `f_i = c[i] = {a_i, b_i}`; `a_i` is joined to the
/// endpoint of `e_i` with the smaller label and `b_i` to the other, reusing
/// the port freed by `f_i` on the clique side and the ports of `e_i` on the
/// base side.
///
/// Clique `H_i` occupies node ids `n + i·k ‥ n + (i+1)·k` with labels
/// `max_label + 1 + i·k + a`. Every clique node ends with degree `k − 1`,
/// exactly as in the paper.
///
/// # Panics
///
/// Panics if `k < 3` (the freed-port splice needs the clique to have
/// internal edges), if `s` and `c` differ in length, if an edge of `s` is
/// absent or repeated, or if some pair in `c` is not `a < b < k`.
pub fn clique_gadget_graph(g: &PortGraph, k: usize, s: &[EdgeRef], c: &MissingEdges) -> PortGraph {
    assert!(k >= 3, "clique gadgets need k >= 3");
    assert_eq!(s.len(), c.len(), "one missing edge per gadget");
    let n = g.num_nodes();
    let mut adj: Vec<Vec<(NodeId, usize)>> = (0..n)
        .map(|v| (0..g.degree(v)).map(|p| g.neighbor_via(v, p)).collect())
        .collect();
    let mut labels: Vec<u64> = (0..n).map(|v| g.label(v)).collect();
    let max_label = labels.iter().copied().max().unwrap_or(0);

    let mut seen = std::collections::BTreeSet::new();
    for (i, (e, &(ai, bi))) in s.iter().zip(c.iter()).enumerate() {
        assert!(
            g.edge_between(e.u, e.v) == Some(*e),
            "edge {e:?} not present in base graph"
        );
        assert!(seen.insert((e.u, e.v)), "edge {e:?} replaced twice");
        assert!(ai < bi && bi < k, "missing edge ({ai},{bi}) out of range");

        let base = n + i * k;
        // Clique with rotational labeling: port p at local a -> local (a+p+1) mod k.
        let mut clique: Vec<Vec<(NodeId, usize)>> = Vec::with_capacity(k);
        for a in 0..k {
            let ports = (0..k - 1)
                .map(|p| {
                    let bn = (a + p + 1) % k;
                    let q = (a + k - bn - 1) % k;
                    (base + bn, q)
                })
                .collect();
            clique.push(ports);
        }
        // Free the ports of f_i = {ai, bi}.
        let p_ai = (bi + k - ai - 1) % k; // port at ai toward bi
        let p_bi = (ai + k - bi - 1) % k; // port at bi toward ai

        // Orient e_i by label.
        let (u, pu, v, pv) = if g.label(e.u) < g.label(e.v) {
            (e.u, e.port_u, e.v, e.port_v)
        } else {
            (e.v, e.port_v, e.u, e.port_u)
        };
        // Splice: u—a_i and v—b_i.
        adj[u][pu] = (base + ai, p_ai);
        adj[v][pv] = (base + bi, p_bi);
        clique[ai][p_ai] = (u, pu);
        clique[bi][p_bi] = (v, pv);

        adj.extend(clique);
        for a in 0..k {
            labels.push(max_label + 1 + (i * k + a) as u64);
        }
    }
    PortGraph::from_adjacency_labeled(adj, labels).expect("gadget splice preserves invariants")
}

/// Convenience wrapper: `G_{n,S}` on a random `S` of `m` edges of `K*_n`.
///
/// Returns the graph together with the chosen `S` (whose order defines the
/// hidden-node labels).
///
/// # Panics
///
/// Panics if `m` exceeds `n(n−1)/2`.
pub fn random_subdivided_complete<R: Rng>(
    n: usize,
    m: usize,
    rng: &mut R,
) -> (PortGraph, Vec<EdgeRef>) {
    let base = crate::families::complete_rotational(n);
    let s = random_distinct_edges(&base, m, rng);
    (subdivide_edges(&base, &s), s)
}

/// Convenience wrapper: `G_{n,S,C}` on random `S` (`n/k` edges) and random
/// `C`, on base `K*_n`.
///
/// # Panics
///
/// Panics if `k < 3` or `n/k` exceeds the number of edges of `K*_n`.
pub fn random_clique_gadget<R: Rng>(
    n: usize,
    k: usize,
    rng: &mut R,
) -> (PortGraph, Vec<EdgeRef>, MissingEdges) {
    let base = crate::families::complete_rotational(n);
    let m = n / k;
    let s = random_distinct_edges(&base, m, rng);
    let c = random_missing_edges(m, k, rng);
    (clique_gadget_graph(&base, k, &s, &c), s, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::complete_rotational;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn subdivide_one_edge_of_triangle() {
        let g = complete_rotational(3);
        let e = g.edge_between(0, 1).unwrap();
        let h = subdivide_edges(&g, &[e]);
        h.validate().unwrap();
        assert_eq!(h.num_nodes(), 4);
        assert_eq!(h.num_edges(), 4);
        assert!(!h.has_edge(0, 1));
        assert!(h.has_edge(0, 3));
        assert!(h.has_edge(1, 3));
        assert_eq!(h.degree(3), 2);
        // Ports at the old endpoints unchanged.
        assert_eq!(h.port_toward(0, 3), Some(e.port_u));
        assert_eq!(h.port_toward(1, 3), Some(e.port_v));
        // Port 0 at the hidden node goes to the smaller-labeled endpoint.
        assert_eq!(h.neighbor_via(3, 0).0, 0);
        assert_eq!(h.neighbor_via(3, 1).0, 1);
    }

    #[test]
    fn subdivided_complete_counts() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 8;
        let (h, s) = random_subdivided_complete(n, n, &mut rng);
        h.validate().unwrap();
        assert_eq!(h.num_nodes(), 2 * n);
        assert_eq!(h.num_edges(), n * (n - 1) / 2 + n);
        assert!(h.is_connected());
        assert_eq!(s.len(), n);
        // Hidden nodes all have degree 2 and fresh labels.
        for i in 0..n {
            assert_eq!(h.degree(n + i), 2);
            assert_eq!(h.label(n + i), (n + i) as u64);
        }
    }

    #[test]
    fn subdivision_is_indistinguishable_from_outside() {
        // The ports at original nodes are identical to the base complete
        // graph: only traversal reveals hidden nodes.
        let mut rng = StdRng::seed_from_u64(2);
        let n = 6;
        let base = complete_rotational(n);
        let (h, _) = random_subdivided_complete(n, 3, &mut rng);
        for v in 0..n {
            assert_eq!(h.degree(v), base.degree(v), "degree changed at {v}");
        }
    }

    #[test]
    #[should_panic(expected = "subdivided twice")]
    fn subdivide_rejects_duplicates() {
        let g = complete_rotational(3);
        let e = g.edge_between(0, 1).unwrap();
        subdivide_edges(&g, &[e, e]);
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn subdivide_rejects_foreign_edge() {
        let g = complete_rotational(4);
        let fake = EdgeRef {
            u: 0,
            port_u: 0,
            v: 1,
            port_v: 5,
        };
        subdivide_edges(&g, &[fake]);
    }

    #[test]
    fn clique_gadget_structure() {
        let mut rng = StdRng::seed_from_u64(3);
        let (n, k) = (12, 4);
        let (h, s, c) = random_clique_gadget(n, k, &mut rng);
        h.validate().unwrap();
        assert!(h.is_connected());
        assert_eq!(h.num_nodes(), n + (n / k) * k); // 2n when k | n
        assert_eq!(s.len(), n / k);
        assert_eq!(c.len(), n / k);
        // All clique nodes have degree k-1 (paper's observation).
        for v in n..h.num_nodes() {
            assert_eq!(h.degree(v), k - 1, "clique node {v}");
        }
        // Replaced base edges are gone.
        for e in &s {
            assert!(!h.has_edge(e.u, e.v));
        }
    }

    #[test]
    fn clique_gadget_missing_edge_absent() {
        let g = complete_rotational(8);
        let e = g.edge_between(2, 5).unwrap();
        let k = 5;
        let c = vec![(1usize, 3usize)];
        let h = clique_gadget_graph(&g, k, &[e], &c);
        h.validate().unwrap();
        let base = 8;
        // f = {1,3} locally: absent.
        assert!(!h.has_edge(base + 1, base + 3));
        // All other internal pairs present.
        for a in 0..k {
            for b in a + 1..k {
                if (a, b) != (1, 3) {
                    assert!(h.has_edge(base + a, base + b), "missing ({a},{b})");
                }
            }
        }
        // Splice: smaller-labeled endpoint (2) to a_i=1, larger (5) to b_i=3.
        assert!(h.has_edge(2, base + 1));
        assert!(h.has_edge(5, base + 3));
        // Outside ports preserved.
        assert_eq!(h.port_toward(2, base + 1), Some(e.port_u));
        assert_eq!(h.port_toward(5, base + 3), Some(e.port_v));
    }

    #[test]
    fn clique_gadget_degrees_uniform_after_splice() {
        // a_i and b_i lose one internal edge and gain one external: still k-1.
        let mut rng = StdRng::seed_from_u64(9);
        let (h, _, _) = random_clique_gadget(16, 4, &mut rng);
        for v in 16..h.num_nodes() {
            assert_eq!(h.degree(v), 3);
        }
    }

    #[test]
    #[should_panic(expected = "k >= 3")]
    fn clique_gadget_rejects_tiny_k() {
        let g = complete_rotational(4);
        let e = g.edge_between(0, 1).unwrap();
        clique_gadget_graph(&g, 2, &[e], &vec![(0, 1)]);
    }

    #[test]
    fn random_distinct_edges_are_distinct() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = complete_rotational(7);
        let s = random_distinct_edges(&g, 10, &mut rng);
        let mut set = std::collections::BTreeSet::new();
        for e in &s {
            assert!(set.insert((e.u, e.v)));
        }
    }

    #[test]
    fn random_missing_edges_in_range() {
        let mut rng = StdRng::seed_from_u64(5);
        let c = random_missing_edges(50, 6, &mut rng);
        for &(a, b) in &c {
            assert!(a < b && b < 6);
        }
    }
}
