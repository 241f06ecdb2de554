//! Property-based tests for the port-graph substrate.

use oraclesize_graph::families::{self, Family};
use oraclesize_graph::gadgets;
use oraclesize_graph::spanning::{self, TreeAlgorithm};
use oraclesize_graph::{GraphError, PortGraph, PortGraphBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn arb_family() -> impl Strategy<Value = Family> {
    proptest::sample::select(Family::ALL.to_vec())
}

/// A random *valid* nested port map `adj[v][p] = (u, q)` — the reference
/// semantics the flat-CSR [`PortGraph`] must be observationally equivalent
/// to. Ports are insertion order over a shuffled edge list, so port
/// assignments are arbitrary rather than sorted.
fn arb_nested_adjacency(n: usize, density: f64, seed: u64) -> Vec<Vec<(usize, usize)>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    let mut pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .collect();
    pairs.shuffle(&mut rng);
    for (u, v) in pairs {
        if rng.gen_bool(density) {
            let pu = adj[u].len();
            let pv = adj[v].len();
            adj[u].push((v, pv));
            adj[v].push((u, pu));
        }
    }
    adj
}

/// Nested-semantics reference validator, scanning in the same
/// node-major/port-minor order the CSR `validate` documents: the CSR
/// implementation must report the *same first violation*.
fn reference_validate(adj: &[Vec<(usize, usize)>], labels: &[u64]) -> Result<(), GraphError> {
    let n = adj.len();
    for (v, ports) in adj.iter().enumerate() {
        let mut seen: Vec<usize> = Vec::new();
        for (p, &(u, q)) in ports.iter().enumerate() {
            if u >= n {
                return Err(GraphError::OutOfRange { node: v, port: p });
            }
            if u == v {
                return Err(GraphError::SelfLoop { node: v });
            }
            if seen.contains(&u) {
                return Err(GraphError::ParallelEdge { u: v, v: u });
            }
            seen.push(u);
            if q >= adj[u].len() {
                return Err(GraphError::OutOfRange { node: v, port: p });
            }
            if adj[u][q] != (v, p) {
                return Err(GraphError::AsymmetricPortMap { node: v, port: p });
            }
        }
    }
    let mut sorted = labels.to_vec();
    sorted.sort_unstable();
    for w in sorted.windows(2) {
        if w[0] == w[1] {
            return Err(GraphError::DuplicateLabel { label: w[0] });
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn families_validate_and_connect(fam in arb_family(), n in 4usize..80, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = fam.build(n, &mut rng);
        prop_assert!(g.validate().is_ok());
        prop_assert!(g.is_connected());
    }

    #[test]
    fn port_symmetry_everywhere(fam in arb_family(), n in 4usize..60, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = fam.build(n, &mut rng);
        for v in 0..g.num_nodes() {
            for p in 0..g.degree(v) {
                let (u, q) = g.neighbor_via(v, p);
                prop_assert_eq!(g.neighbor_via(u, q), (v, p));
            }
        }
    }

    #[test]
    fn spanning_trees_valid_on_random_graphs(
        n in 2usize..50,
        p in 0.0f64..1.0,
        seed in any::<u64>(),
        alg in proptest::sample::select(TreeAlgorithm::ALL.to_vec()),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = families::random_connected(n, p, &mut rng);
        let root = seed as usize % n;
        let t = alg.build(&g, root, &mut rng);
        prop_assert!(t.validate(&g).is_ok(), "{}", alg.name());
        prop_assert_eq!(t.root(), root);
        prop_assert_eq!(t.edges(&g).count(), n - 1);
    }

    #[test]
    fn one_pass_bfs_tree_equals_the_parent_map_tree(
        fam in proptest::sample::select(
            Family::ALL.iter().copied().map(Some).chain([None]).collect::<Vec<_>>()
        ),
        n in 4usize..40,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // `None` draws a subdivided clique `K*_b`.
        let g = match fam {
            Some(fam) => fam.build(n, &mut rng),
            None => families::subdivided_clique(2 + n % 12),
        };
        let root = rng.gen_range(0..g.num_nodes());
        let mut parents = vec![None; g.num_nodes()];
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(v) = queue.pop_front() {
            for u in g.neighbors(v) {
                if u != root && parents[u].is_none() {
                    parents[u] = Some(v);
                    queue.push_back(u);
                }
            }
        }
        let reference = spanning::RootedTree::from_parents(&g, root, &parents);
        prop_assert_eq!(spanning::bfs_tree(&g, root), reference);
    }

    #[test]
    fn light_tree_contribution_under_4n(
        n in 2usize..120,
        p in 0.05f64..1.0,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = families::random_connected(n, p, &mut rng);
        let t = spanning::light_tree(&g, 0);
        prop_assert!(t.contribution(&g) <= 4 * n as u64);
    }

    #[test]
    fn subdivision_hides_nodes_correctly(n in 4usize..24, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = 1 + seed as usize % n;
        let (h, s) = gadgets::random_subdivided_complete(n, m, &mut rng);
        prop_assert!(h.validate().is_ok());
        prop_assert!(h.is_connected());
        prop_assert_eq!(h.num_nodes(), n + m);
        // Each hidden node sits between the endpoints of its edge, with
        // port 0 toward the smaller-labeled endpoint.
        for (i, e) in s.iter().enumerate() {
            let w = n + i;
            prop_assert_eq!(h.degree(w), 2);
            prop_assert_eq!(h.neighbor_via(w, 0).0, e.u);
            prop_assert_eq!(h.neighbor_via(w, 1).0, e.v);
            prop_assert!(!h.has_edge(e.u, e.v));
        }
    }

    #[test]
    fn clique_gadgets_valid(n in 6usize..30, k in 3usize..6, seed in any::<u64>()) {
        prop_assume!(n / k >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let (h, s, c) = gadgets::random_clique_gadget(n, k, &mut rng);
        prop_assert!(h.validate().is_ok());
        prop_assert!(h.is_connected());
        prop_assert_eq!(s.len(), n / k);
        prop_assert_eq!(c.len(), n / k);
        for v in n..h.num_nodes() {
            prop_assert_eq!(h.degree(v), k - 1);
        }
    }

    #[test]
    fn shuffle_ports_is_isomorphism_on_edges(n in 2usize..40, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = families::random_connected(n, 0.3, &mut rng);
        let mut b = PortGraphBuilder::new(n);
        for e in g.edges() {
            b.add_edge(e.u, e.v).unwrap();
        }
        b.shuffle_ports(&mut rng);
        let h = b.build().unwrap();
        prop_assert!(h.validate().is_ok());
        prop_assert_eq!(h.num_edges(), g.num_edges());
        for e in g.edges() {
            prop_assert!(h.has_edge(e.u, e.v));
        }
    }

    #[test]
    fn crash_sets_preserve_connectivity(
        fam in arb_family(),
        n in 4usize..48,
        seed in any::<u64>(),
        budget in 0usize..16,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = fam.build(n, &mut rng);
        let nodes = g.num_nodes();
        let protect = [seed as usize % nodes];
        let set = oraclesize_graph::connectivity_preserving_crash_set(&g, &protect, budget, seed);
        prop_assert!(set.len() <= budget);
        prop_assert!(!set.contains(&protect[0]));
        // Deterministic for the same inputs.
        let again = oraclesize_graph::connectivity_preserving_crash_set(&g, &protect, budget, seed);
        prop_assert_eq!(&set, &again);
        // Survivors form one connected component: BFS from the protected
        // node over non-crashed nodes must reach every survivor.
        let mut crashed = vec![false; nodes];
        for &v in &set {
            crashed[v] = true;
        }
        let mut seen = vec![false; nodes];
        seen[protect[0]] = true;
        let mut queue = std::collections::VecDeque::from([protect[0]]);
        let mut reached = 1;
        while let Some(v) = queue.pop_front() {
            for u in g.neighbors(v) {
                if !crashed[u] && !seen[u] {
                    seen[u] = true;
                    reached += 1;
                    queue.push_back(u);
                }
            }
        }
        prop_assert_eq!(reached, nodes - set.len());
    }

    #[test]
    fn csr_graph_observes_like_nested_adjacency(
        n in 1usize..40,
        density in 0.05f64..1.0,
        seed in any::<u64>(),
    ) {
        let adj = arb_nested_adjacency(n, density, seed);
        let g = PortGraph::from_adjacency(adj.clone()).expect("valid by construction");

        prop_assert_eq!(g.num_nodes(), adj.len());
        prop_assert_eq!(
            g.num_edges(),
            adj.iter().map(Vec::len).sum::<usize>() / 2
        );
        for (v, ports) in adj.iter().enumerate() {
            // Default labels are node ids, as the nested constructor did.
            prop_assert_eq!(g.label(v), v as u64);
            prop_assert_eq!(g.degree(v), ports.len());
            // Port iteration order is exactly the nested order…
            let neighbors: Vec<usize> = ports.iter().map(|&(u, _)| u).collect();
            let arrivals: Vec<usize> = ports.iter().map(|&(_, q)| q).collect();
            prop_assert_eq!(g.neighbors(v).collect::<Vec<_>>(), neighbors);
            prop_assert_eq!(g.arrival_ports(v).collect::<Vec<_>>(), arrivals);
            // …and so is single-port lookup.
            for (p, &(u, q)) in ports.iter().enumerate() {
                prop_assert_eq!(g.neighbor_via(v, p), (u, q));
            }
            for u in 0..n {
                prop_assert_eq!(
                    g.port_toward(v, u),
                    ports.iter().position(|&(w, _)| w == u)
                );
                prop_assert_eq!(g.has_edge(v, u), ports.iter().any(|&(w, _)| w == u));
            }
        }
        // Canonical edge iteration: u-major, port-minor, u < v — identical
        // to enumerating the nested structure the same way.
        let reference: Vec<(usize, usize, usize, usize)> = adj
            .iter()
            .enumerate()
            .flat_map(|(u, ports)| {
                ports
                    .iter()
                    .enumerate()
                    .filter(move |&(_, &(v, _))| u < v)
                    .map(move |(pu, &(v, pv))| (u, pu, v, pv))
            })
            .collect();
        let csr: Vec<(usize, usize, usize, usize)> = g
            .edges()
            .map(|e| (e.u, e.port_u, e.v, e.port_v))
            .collect();
        prop_assert_eq!(csr, reference);
    }

    #[test]
    fn csr_labeled_constructor_matches_nested_labels(
        n in 1usize..32,
        seed in any::<u64>(),
    ) {
        let adj = arb_nested_adjacency(n, 0.4, seed);
        let labels: Vec<u64> = (0..n as u64).map(|v| v * 7 + 3).collect();
        let g = PortGraph::from_adjacency_labeled(adj, labels.clone()).expect("valid");
        for (v, &l) in labels.iter().enumerate() {
            prop_assert_eq!(g.label(v), l);
            prop_assert_eq!(g.node_by_label(l), Some(v));
        }
        prop_assert_eq!(g.node_by_label(1), None);
    }

    #[test]
    fn csr_reports_the_same_first_violation_as_nested_semantics(
        n in 2usize..24,
        seed in any::<u64>(),
        kind in 0usize..7,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let mut adj = arb_nested_adjacency(n, 0.5, seed);
        let mut labels: Vec<u64> = (0..n as u64).collect();
        prop_assume!(adj.iter().any(|p| !p.is_empty()));
        let v = {
            let mut v = rng.gen_range(0..n);
            while adj[v].is_empty() {
                v = (v + 1) % n;
            }
            v
        };
        let p = rng.gen_range(0..adj[v].len());
        // One corruption of a random kind; whatever *first* violation the
        // scan order implies (possibly at the stale partner entry), the CSR
        // and nested-reference validators must agree on it exactly.
        match kind {
            0 => adj[v][p].0 = v,                          // self-loop
            1 => adj[v][p].0 = n + rng.gen_range(0..4usize), // target out of range
            2 => adj[v][p].1 += 17,                        // back-port out of range
            3 => {
                // Redirect to another neighbor slot: breaks symmetry, and
                // creates a parallel edge whenever deg(v) ≥ 2.
                let (u, _) = adj[v][(p + 1) % adj[v].len()];
                prop_assume!(u != adj[v][p].0);
                adj[v][p].0 = u;
            }
            4 => {
                // Redirect the back port to another valid port of the same
                // neighbor: every back port stays in range.
                let (u, q) = adj[v][p];
                let deg = adj[u].len();
                prop_assume!(deg >= 2);
                adj[v][p].1 = (q + 1 + rng.gen_range(0..deg - 1)) % deg;
            }
            5 => {
                // Swap two back ports of one node: in range, and each one
                // now names a port of the wrong neighbor.
                let deg = adj[v].len();
                prop_assume!(deg >= 2);
                let p2 = (p + 1 + rng.gen_range(0..deg - 1)) % deg;
                prop_assume!(adj[v][p].1 != adj[v][p2].1);
                let (q, q2) = (adj[v][p].1, adj[v][p2].1);
                adj[v][p].1 = q2;
                adj[v][p2].1 = q;
            }
            _ => labels[v] = labels[(v + 1) % n],          // duplicate label
        }
        let reference = reference_validate(&adj, &labels);
        prop_assert!(reference.is_err());
        let csr = PortGraph::from_adjacency_labeled(adj, labels).map(|_| ());
        prop_assert_eq!(csr, reference);
    }

    #[test]
    fn bfs_distance_triangle_inequality(n in 2usize..40, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = families::random_connected(n, 0.2, &mut rng);
        let d0 = oraclesize_graph::traverse::bfs_distances(&g, 0);
        for e in g.edges() {
            let (du, dv) = (d0[e.u].unwrap() as isize, d0[e.v].unwrap() as isize);
            prop_assert!((du - dv).abs() <= 1, "edge endpoints differ by >1");
        }
    }
}
