//! The *traditional* knowledge assumption, priced in bits.
//!
//! The paper's §1.1 motivation: earlier work assumes each node knows the
//! topology within some radius `ρ` (e.g. Awerbuch–Goldreich–Peleg–Vainish,
//! where radius-`ρ` knowledge buys wakeup in
//! `Θ(min{m, n^{1+Θ(1)/ρ}})` messages). The oracle framework makes such
//! assumptions *comparable*: [`NeighborhoodOracle`] encodes exactly the
//! radius-`ρ` ball around every node, so its size measures what that
//! assumption costs in bits — and experiment T13 compares it against the
//! task-specific oracles, which are exponentially cheaper.

use std::collections::HashMap;

use oraclesize_bits::codec::{Codec, EliasGamma};
use oraclesize_bits::BitString;
use oraclesize_graph::{NodeId, PortGraph};

use crate::oracle::{Advice, Oracle};

/// The decoded radius-`ρ` view from a node: a local re-indexing of the
/// ball, with adjacency down to ports.
///
/// Local index 0 is the node itself; other indices follow BFS discovery
/// order. `adj[i][p]` is `Some((j, q))` when port `p` of local node `i`
/// leads to local node `j` (arriving at `q`), and `None` when that port
/// leaves the encoded ball.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalView {
    /// Per-ball-node adjacency in local indices.
    pub adj: Vec<Vec<Option<(usize, usize)>>>,
    /// The original labels of the ball nodes (local index order).
    pub labels: Vec<u64>,
}

impl LocalView {
    /// Number of nodes in the ball.
    pub fn ball_size(&self) -> usize {
        self.adj.len()
    }
}

/// Computes the BFS ball of radius `rho` around `center`, returning the
/// nodes in discovery order with their depths.
fn ball(g: &PortGraph, center: NodeId, rho: usize) -> Vec<NodeId> {
    let mut order = vec![center];
    let mut depth: HashMap<NodeId, usize> = HashMap::from([(center, 0)]);
    let mut head = 0;
    while head < order.len() {
        let v = order[head];
        head += 1;
        let d = depth[&v];
        if d == rho {
            continue;
        }
        for u in g.neighbors(v) {
            if let std::collections::hash_map::Entry::Vacant(e) = depth.entry(u) {
                e.insert(d + 1);
                order.push(u);
            }
        }
    }
    order
}

/// Encodes the radius-`rho` ball around `center`.
pub fn encode_ball(g: &PortGraph, center: NodeId, rho: usize) -> BitString {
    let nodes = ball(g, center, rho);
    let local: HashMap<NodeId, usize> = nodes.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let mut out = BitString::new();
    EliasGamma.encode(nodes.len() as u64, &mut out);
    for &v in &nodes {
        EliasGamma.encode(g.label(v), &mut out);
        EliasGamma.encode(g.degree(v) as u64, &mut out);
        for p in 0..g.degree(v) {
            let (u, q) = g.neighbor_via(v, p);
            match local.get(&u) {
                // γ(local+1), γ(q): an in-ball edge.
                Some(&j) => {
                    EliasGamma.encode(j as u64 + 1, &mut out);
                    EliasGamma.encode(q as u64, &mut out);
                }
                // γ(0): the port leads outside the ball.
                None => EliasGamma.encode(0, &mut out),
            }
        }
    }
    out
}

/// Decodes advice produced by [`encode_ball`]. Returns `None` on malformed
/// input.
pub fn decode_ball(advice: &BitString) -> Option<LocalView> {
    let mut r = advice.reader();
    let count = EliasGamma.decode(&mut r)? as usize;
    if count == 0 || count > 10_000_000 {
        return None;
    }
    let mut adj = Vec::with_capacity(count);
    let mut labels = Vec::with_capacity(count);
    for _ in 0..count {
        labels.push(EliasGamma.decode(&mut r)?);
        let deg = EliasGamma.decode(&mut r)? as usize;
        let mut ports = Vec::with_capacity(deg);
        for _ in 0..deg {
            let head = EliasGamma.decode(&mut r)?;
            if head == 0 {
                ports.push(None);
            } else {
                let j = (head - 1) as usize;
                if j >= count {
                    return None;
                }
                let q = EliasGamma.decode(&mut r)? as usize;
                ports.push(Some((j, q)));
            }
        }
        adj.push(ports);
    }
    if !r.is_empty() {
        return None;
    }
    Some(LocalView { adj, labels })
}

/// The oracle that hands every node its radius-`rho` ball — the
/// traditional "knowledge of the neighborhood" assumption, priced in bits.
#[derive(Debug, Clone, Copy)]
pub struct NeighborhoodOracle {
    /// Ball radius `ρ ≥ 1`.
    pub radius: usize,
}

impl NeighborhoodOracle {
    /// An oracle of the given radius.
    ///
    /// # Panics
    ///
    /// Panics if `radius == 0` (a node already knows its own degree).
    pub fn new(radius: usize) -> Self {
        assert!(radius >= 1, "radius must be at least 1");
        NeighborhoodOracle { radius }
    }
}

impl Oracle for NeighborhoodOracle {
    fn advise(&self, g: &PortGraph, _source: NodeId) -> Advice {
        (0..g.num_nodes())
            .map(|v| encode_ball(g, v, self.radius))
            .collect()
    }

    fn name(&self) -> &'static str {
        "neighborhood"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::advice_size;
    use oraclesize_graph::families;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ball_roundtrip_on_cycle() {
        let g = families::cycle(8);
        for rho in 1..=4 {
            let enc = encode_ball(&g, 0, rho);
            let view = decode_ball(&enc).unwrap();
            assert_eq!(view.ball_size(), (2 * rho + 1).min(8), "rho={rho}");
            assert_eq!(view.labels[0], 0);
        }
    }

    #[test]
    fn radius_one_ball_is_closed_neighborhood() {
        let mut rng = StdRng::seed_from_u64(61);
        let g = families::random_connected(20, 0.3, &mut rng);
        for v in 0..20 {
            let view = decode_ball(&encode_ball(&g, v, 1)).unwrap();
            assert_eq!(view.ball_size(), 1 + g.degree(v), "node {v}");
            // The center's ports all stay inside the ball.
            assert!(view.adj[0].iter().all(|p| p.is_some()));
        }
    }

    #[test]
    fn in_ball_edges_are_symmetric_in_local_indices() {
        let mut rng = StdRng::seed_from_u64(62);
        let g = families::random_connected(24, 0.25, &mut rng);
        let view = decode_ball(&encode_ball(&g, 3, 2)).unwrap();
        for (i, ports) in view.adj.iter().enumerate() {
            for (p, slot) in ports.iter().enumerate() {
                if let Some((j, q)) = *slot {
                    assert_eq!(view.adj[j][q], Some((i, p)), "local edge {i}:{p}");
                }
            }
        }
    }

    #[test]
    fn large_radius_covers_whole_graph() {
        let g = families::complete_rotational(12);
        let view = decode_ball(&encode_ball(&g, 5, 3)).unwrap();
        assert_eq!(view.ball_size(), 12);
        // Every port resolves in-ball: the view is the full map.
        for ports in &view.adj {
            assert!(ports.iter().all(|p| p.is_some()));
        }
    }

    #[test]
    fn oracle_size_grows_steeply_with_radius_on_dense_graphs() {
        let g = families::complete_rotational(48);
        let r1 = advice_size(&NeighborhoodOracle::new(1).advise(&g, 0));
        // Radius 1 on K_n is already the whole graph per node — Θ(n·m·γ).
        let tree = advice_size(&crate::wakeup::SpanningTreeOracle::default().advise(&g, 0));
        assert!(
            r1 > 20 * tree,
            "neighborhood {r1} not far above task oracle {tree}"
        );
    }

    #[test]
    fn oracle_size_monotone_in_radius_on_sparse_graphs() {
        let g = families::grid(8, 8);
        let sizes: Vec<u64> = (1..=4)
            .map(|rho| advice_size(&NeighborhoodOracle::new(rho).advise(&g, 0)))
            .collect();
        assert!(
            sizes.windows(2).all(|w| w[0] < w[1]),
            "not monotone: {sizes:?}"
        );
    }

    #[test]
    fn decode_rejects_truncation_and_garbage() {
        let g = families::cycle(6);
        let enc = encode_ball(&g, 0, 2);
        let cut: BitString = enc.iter().take(enc.len() - 2).collect();
        assert!(decode_ball(&cut).is_none());
        assert!(decode_ball(&BitString::parse("0").unwrap()).is_none());
    }

    #[test]
    #[should_panic(expected = "radius")]
    fn zero_radius_rejected() {
        NeighborhoodOracle::new(0);
    }
}
