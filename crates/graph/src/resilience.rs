//! Crash-set generation for the robustness experiments.
//!
//! Fault experiments want to crash nodes *without* making the task
//! impossible: a crash set that disconnects the survivors (or isolates the
//! source) turns "the scheme failed" and "no scheme could succeed" into the
//! same observation. [`connectivity_preserving_crash_set`] builds a seeded,
//! reproducible crash set under which the surviving subgraph stays
//! connected, so any node left uninformed is the scheme's fault.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::portgraph::{NodeId, PortGraph};

/// Picks up to `max_crashes` nodes to crash such that the non-crashed
/// nodes still form a connected subgraph containing every node in
/// `protect` (typically the source).
///
/// Greedy and seeded: candidates are considered in a seeded random order
/// and a node joins the crash set iff the survivors remain connected
/// without it. The result is deterministic for a given `(graph, protect,
/// max_crashes, seed)` and may be smaller than `max_crashes` when the
/// graph has too few expendable nodes (on a tree only leaves qualify; on a
/// path at most the two endpoints not in `protect`).
///
/// # Panics
///
/// Panics if any node in `protect` is out of range.
pub fn connectivity_preserving_crash_set(
    g: &PortGraph,
    protect: &[NodeId],
    max_crashes: usize,
    seed: u64,
) -> Vec<NodeId> {
    let n = g.num_nodes();
    for &v in protect {
        assert!(v < n, "protected node {v} out of range for n={n}");
    }
    let mut protected = vec![false; n];
    for &v in protect {
        protected[v] = true;
    }

    let mut candidates: Vec<NodeId> = (0..n).filter(|&v| !protected[v]).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    // Fisher–Yates with the seeded RNG: the candidate order (and hence the
    // greedy outcome) depends only on the seed.
    for i in (1..candidates.len()).rev() {
        let j = rng.gen_range(0..=i);
        candidates.swap(i, j);
    }

    let mut crashed = vec![false; n];
    let mut picked = Vec::new();
    for v in candidates {
        if picked.len() >= max_crashes {
            break;
        }
        crashed[v] = true;
        if survivors_connected(g, &crashed) {
            picked.push(v);
        } else {
            crashed[v] = false;
        }
    }
    picked.sort_unstable();
    picked
}

/// BFS over non-crashed nodes: `true` iff they form one connected
/// component (vacuously true when none survive).
fn survivors_connected(g: &PortGraph, crashed: &[bool]) -> bool {
    let n = g.num_nodes();
    let Some(start) = (0..n).find(|&v| !crashed[v]) else {
        return true;
    };
    let mut seen = vec![false; n];
    seen[start] = true;
    let mut queue = std::collections::VecDeque::from([start]);
    let mut reached = 1usize;
    while let Some(v) = queue.pop_front() {
        for u in g.neighbors(v) {
            if !crashed[u] && !seen[u] {
                seen[u] = true;
                reached += 1;
                queue.push_back(u);
            }
        }
    }
    reached == crashed.iter().filter(|&&c| !c).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families;

    fn check_invariants(g: &PortGraph, protect: &[NodeId], set: &[NodeId]) {
        let mut crashed = vec![false; g.num_nodes()];
        for &v in set {
            assert!(!protect.contains(&v), "protected node {v} crashed");
            assert!(!crashed[v], "node {v} picked twice");
            crashed[v] = true;
        }
        assert!(survivors_connected(g, &crashed));
    }

    #[test]
    fn star_can_lose_every_leaf_but_never_the_hub() {
        let g = families::star(9);
        let set = connectivity_preserving_crash_set(&g, &[0], 100, 7);
        assert_eq!(set, (1..9).collect::<Vec<_>>());
        check_invariants(&g, &[0], &set);
        // Protecting a leaf keeps the hub alive too: removing the hub would
        // disconnect the remaining leaves.
        let set = connectivity_preserving_crash_set(&g, &[3], 100, 7);
        assert!(!set.contains(&0));
        assert!(!set.contains(&3));
        assert_eq!(set.len(), 7);
    }

    #[test]
    fn path_only_sheds_its_endpoints() {
        let g = families::path(6);
        let set = connectivity_preserving_crash_set(&g, &[2], 1, 7);
        // Any internal crash disconnects a path; with one crash allowed the
        // pick must be an endpoint.
        assert!(set == vec![0] || set == vec![5], "got {set:?}");
        check_invariants(&g, &[2], &set);
    }

    #[test]
    fn respects_max_crashes_and_seed_determinism() {
        let g = families::complete_rotational(12);
        let a = connectivity_preserving_crash_set(&g, &[0], 4, 42);
        let b = connectivity_preserving_crash_set(&g, &[0], 4, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4, "complete graph can always shed 4 of 11");
        check_invariants(&g, &[0], &a);
        let c = connectivity_preserving_crash_set(&g, &[0], 4, 43);
        // Different seeds explore different orders on a symmetric graph;
        // both must still be valid.
        check_invariants(&g, &[0], &c);
    }

    #[test]
    fn zero_budget_returns_empty() {
        let g = families::cycle(8);
        assert!(connectivity_preserving_crash_set(&g, &[0], 0, 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn protecting_a_missing_node_panics() {
        let g = families::cycle(4);
        connectivity_preserving_crash_set(&g, &[4], 1, 0);
    }
}
