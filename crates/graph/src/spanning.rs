//! Rooted spanning trees, including the *light* tree of Claim 3.1.
//!
//! The wakeup oracle (Theorem 2.1) encodes, for each node, the ports toward
//! its children in *some* rooted spanning tree; the broadcast oracle
//! (Theorem 3.1) needs the specific tree `T0` whose total contribution
//! `Σ_{e ∈ T0} #2(w(e))` is at most `4n` — built here by
//! [`light_tree`], a phase-based variant of Kruskal's algorithm following
//! the proof of Claim 3.1 step by step.
//!
//! [`bfs_tree`], the oracle's default tree, is built in one pass: it
//! records each node's parent link when it discovers the node and fills
//! the child rows from the BFS order, with no parent-map round trip
//! through [`RootedTree::from_parents`]. [`RootedTree::validate`] is
//! linear, so both stay fast on million-node and path-like trees.
//!
//! A tree stores its parent links and child rows as `u32`, the host
//! graph's index width (see [`crate::csr`]), and widens them to `usize`
//! in its accessors.

use rand::seq::SliceRandom;
use rand::Rng;

use oraclesize_bits::bits_to_represent;

use crate::csr::{narrow, widen, CsrRows};
use crate::portgraph::{EdgeRef, NodeId, Port, PortGraph};
use crate::traverse::UnionFind;

/// A spanning tree of a [`PortGraph`], rooted at a designated node, with
/// the port numbers needed by the oracles.
///
/// # Examples
///
/// ```
/// use oraclesize_graph::{families, spanning};
///
/// let g = families::cycle(5);
/// let t = spanning::bfs_tree(&g, 0);
/// assert_eq!(t.root(), 0);
/// assert_eq!(t.num_nodes(), 5);
/// assert!(t.validate(&g).is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootedTree {
    root: NodeId,
    /// `links[v] = (parent, port_at_parent, port_at_child)`; the root's
    /// parent is [`NO_PARENT`].
    links: Vec<(u32, u32, u32)>,
    /// Row `v` holds `[(child, port_at_v)]`, sorted by port — flat CSR
    /// rows, the same layout the host graph uses.
    children: CsrRows<(u32, u32)>,
}

/// The parent entry of the root's link. Node ids stay below `u32::MAX`
/// (a graph has at most `u32::MAX` nodes), so no node has this id.
const NO_PARENT: u32 = u32::MAX;

/// The link of a node with no parent yet (and, finally, of the root).
const ROOT_LINK: (u32, u32, u32) = (NO_PARENT, 0, 0);

impl RootedTree {
    /// Assembles a rooted tree from a parent map (ports filled in from `g`).
    ///
    /// `parents[v]` is `v`'s parent, `None` exactly for the root.
    ///
    /// # Panics
    ///
    /// Panics if the map is not a spanning tree of `g` rooted at `root`
    /// (wrong `None` count, missing edges, or unreachable nodes).
    pub fn from_parents(g: &PortGraph, root: NodeId, parents: &[Option<NodeId>]) -> Self {
        let n = g.num_nodes();
        assert_eq!(parents.len(), n, "one parent entry per node");
        assert!(parents[root].is_none(), "root must have no parent");
        let mut links = vec![ROOT_LINK; n];
        for v in 0..n {
            match parents[v] {
                None => assert_eq!(v, root, "non-root node {v} lacks a parent"),
                Some(p) => {
                    // Look the edge up from the child side: Σ deg(child)
                    // is 2m over the whole tree, where scanning from the
                    // parent would cost Σ deg(parent) — quadratic on stars
                    // and cliques.
                    let (targets, arrivals) = g.row(v);
                    let (port_at_child, (&parent, &port_at_parent)) = (0u32..)
                        .zip(targets.iter().zip(arrivals))
                        .find(|&(_, (&u, _))| widen(u) == p)
                        .unwrap_or_else(|| panic!("tree edge {{{p},{v}}} missing from graph"));
                    links[v] = (parent, port_at_parent, port_at_child);
                }
            }
        }
        let child_pairs = (0u32..)
            .zip(&links)
            .filter(|(_, link)| link.0 != NO_PARENT)
            .map(|(v, &(p, port_at_parent, _))| (widen(p), (v, port_at_parent)));
        let mut children = CsrRows::from_pairs(n, child_pairs);
        for v in 0..n {
            children.row_mut(v).sort_by_key(|&(_, port)| port);
        }
        let t = RootedTree {
            root,
            links,
            children,
        };
        assert!(
            t.validate(g).is_ok(),
            "parent map does not form a spanning tree"
        );
        t
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes spanned.
    pub fn num_nodes(&self) -> usize {
        self.links.len()
    }

    /// `v`'s parent with the connecting ports
    /// (`(parent, port_at_parent, port_at_v)`), or `None` for the root.
    pub fn parent(&self, v: NodeId) -> Option<(NodeId, Port, Port)> {
        let (p, port_at_parent, port_at_v) = self.links[v];
        (p != NO_PARENT).then(|| (widen(p), widen(port_at_parent), widen(port_at_v)))
    }

    /// `v`'s children as `(child, port_at_v)`, in port order.
    pub fn children(
        &self,
        v: NodeId,
    ) -> impl ExactSizeIterator<Item = (NodeId, Port)> + DoubleEndedIterator + '_ {
        self.children
            .row(v)
            .iter()
            .map(|&(c, p)| (widen(c), widen(p)))
    }

    /// `true` if `v` has no children.
    pub fn is_leaf(&self, v: NodeId) -> bool {
        self.children.row(v).is_empty()
    }

    /// Iterates the tree edges as [`EdgeRef`]s of the host graph.
    pub fn edges<'a>(&'a self, g: &'a PortGraph) -> impl Iterator<Item = EdgeRef> + 'a {
        (0..self.num_nodes()).filter_map(move |v| {
            self.parent(v).map(|(p, _, _)| {
                g.edge_between(p, v)
                    .expect("tree edges exist in the host graph")
            })
        })
    }

    /// Depth of `v` (root has depth 0).
    pub fn depth(&self, v: NodeId) -> usize {
        let mut d = 0;
        let mut cur = v;
        while let Some((p, _, _)) = self.parent(cur) {
            cur = p;
            d += 1;
        }
        d
    }

    /// The paper's total contribution of this tree:
    /// `Σ_{e ∈ T} #2(w(e))` where `w(e) = min(port_u(e), port_v(e))`.
    pub fn contribution(&self, g: &PortGraph) -> u64 {
        self.edges(g)
            .map(|e| bits_to_represent(e.weight()) as u64)
            .sum()
    }

    /// Checks that this is a spanning tree of `g` rooted at
    /// [`root`](RootedTree::root): every non-root has a parent edge present
    /// in `g`, ports are consistent, and every node reaches the root.
    ///
    /// A valid tree is accepted by one walk down from the root. Only when
    /// it rejects does the node-order pass run to name the first defect,
    /// so the verdict and the message are that pass's alone.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first defect.
    pub fn validate(&self, g: &PortGraph) -> Result<(), String> {
        if self.walk_accepts(g) {
            return Ok(());
        }
        self.first_defect(g)
    }

    /// `true` iff [`first_defect`](Self::first_defect) returns `Ok`, found
    /// by one walk down from the root.
    ///
    /// The walk follows child entry `(c, pp)` of `v` only when `c`'s link
    /// is `(v, pp, pc)`. On each followed entry it checks that `v`'s graph
    /// port `pp` leads to `c`, arriving at port `pc`. Every visited row's
    /// ports must strictly increase. It accepts iff it reaches all `n`
    /// nodes.
    ///
    /// *No revisits.* A row's ports are distinct and a link names one
    /// parent and port, so a node is pushed at most once per visit of its
    /// parent, and the root's link names none. Each node is therefore
    /// pushed at most once, and a count replaces a `reached` array.
    ///
    /// *Acceptance implies `Ok`.* Every non-root was reached from the
    /// parent its link names, through a checked graph edge. That parent's
    /// row is sorted, so the binary search finds the entry. The node-order
    /// pass's walk follows the same entries and reaches all `n` nodes.
    ///
    /// *`Ok` implies acceptance.* This walk follows the entries that
    /// pass's walk follows, whose edges it checked. Its binary searches
    /// found all `n − 1` child entries, each at its own index, and a
    /// binary search finds every key of a row of distinct keys only if
    /// the row is sorted: the searches for adjacent indices part at a
    /// probe of one of the two, which orders their keys.
    fn walk_accepts(&self, g: &PortGraph) -> bool {
        let n = self.num_nodes();
        if n != g.num_nodes() || self.links.get(self.root).map(|l| l.0) != Some(NO_PARENT) {
            return false;
        }
        let Ok(root) = u32::try_from(self.root) else {
            return false;
        };
        let mut stack = vec![root];
        let mut reached = 1;
        while let Some(v) = stack.pop() {
            let (targets, arrivals) = g.row(widen(v));
            let row = self.children.row(widen(v));
            if !row.windows(2).all(|w| w[0].1 < w[1].1) {
                return false;
            }
            for &(c, pp) in row {
                let Some(&(p, q, pc)) = self.links.get(widen(c)) else {
                    return false;
                };
                if (p, q) != (v, pp) {
                    continue;
                }
                let i = widen(pp);
                if targets.get(i) != Some(&c) || arrivals.get(i) != Some(&pc) {
                    return false;
                }
                reached += 1;
                stack.push(c);
            }
        }
        reached == n
    }

    /// The first defect in node order: the diagnosis
    /// [`validate`](Self::validate) reports when
    /// [`walk_accepts`](Self::walk_accepts) rejects.
    fn first_defect(&self, g: &PortGraph) -> Result<(), String> {
        let n = self.num_nodes();
        if n != g.num_nodes() {
            return Err(format!("tree spans {n} nodes, graph has {}", g.num_nodes()));
        }
        if self.parent(self.root).is_some() {
            return Err("root has a parent".into());
        }
        for (v, &(p, pp, pc)) in self.links.iter().enumerate() {
            if p == NO_PARENT {
                if v != self.root {
                    return Err(format!("non-root node {v} has no parent"));
                }
                continue;
            }
            let p = widen(p);
            if p >= n {
                return Err(format!("parent {p} of node {v} out of range"));
            }
            if widen(pp) >= g.degree(p) {
                return Err(format!("port {pp} of tree edge {{{p},{v}}} out of range"));
            }
            if g.neighbor_via(p, widen(pp)) != (v, widen(pc)) {
                return Err(format!("ports of tree edge {{{p},{v}}} inconsistent"));
            }
            // Child rows are sorted by (unique) port; binary search so
            // validation stays O(m log Δ) on million-node trees.
            let row = self.children.row(p);
            let found = row
                .binary_search_by_key(&pp, |&(_, port)| port)
                .is_ok_and(|i| widen(row[i].0) == v);
            if !found {
                return Err(format!("child list of {p} misses {v}"));
            }
        }
        // Acyclicity + reachability in one walk down from the root. It
        // follows only child entries that match the child's parent link, and
        // every node has one link, so it reaches each node at most once —
        // and reaches exactly the nodes whose walk up ends at the root.
        let mut reached = vec![false; n];
        reached[self.root] = true;
        let mut stack = vec![narrow("node id", self.root).map_err(|e| e.to_string())?];
        while let Some(v) = stack.pop() {
            for &(c, pp) in self.children.row(widen(v)) {
                let Some(&(p, q, _)) = self.links.get(widen(c)) else {
                    return Err(format!("child list of {v} names node {c} out of range"));
                };
                if !reached[widen(c)] && (p, q) == (v, pp) {
                    reached[widen(c)] = true;
                    stack.push(c);
                }
            }
        }
        // The first unreached node is the first whose walk up fails; that
        // one walk, with a step cap, names the defect.
        if let Some(v) = reached.iter().position(|&r| !r) {
            let mut cur = v;
            let mut steps = 0;
            while let Some((p, _, _)) = self.parent(cur) {
                cur = p;
                steps += 1;
                if steps > n {
                    return Err(format!("cycle reached from node {v}"));
                }
            }
            return Err(format!("node {v} does not reach the root"));
        }
        Ok(())
    }
}

/// Breadth-first spanning tree rooted at `root`, exploring ports in order.
///
/// Built in one pass: discovering `u` through port `p` of `v` records
/// `u`'s whole parent link, `(v, p, arrival port)`, and the BFS order
/// lists every node's children consecutively and in port order, so one
/// counting pass over it fills the child rows already sorted.
///
/// # Panics
///
/// Panics if `g` is disconnected or `root` out of range.
pub fn bfs_tree(g: &PortGraph, root: NodeId) -> RootedTree {
    let n = g.num_nodes();
    assert!(root < n, "root {root} out of range");
    let root32 = narrow("node id", root).expect("node ids fit the graph's u32 layout");
    let mut links = vec![ROOT_LINK; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    order.push(root32);
    let mut head = 0;
    while let Some(&v) = order.get(head) {
        head += 1;
        let (targets, arrivals) = g.row(widen(v));
        for (p, (&u, &q)) in (0u32..).zip(targets.iter().zip(arrivals)) {
            let link = &mut links[widen(u)];
            if u != root32 && link.0 == NO_PARENT {
                *link = (v, p, q);
                order.push(u);
            }
        }
    }
    assert_eq!(order.len(), n, "graph is disconnected");
    let child_pairs = order[1..].iter().map(|&u| {
        let (v, p, _) = links[widen(u)];
        (widen(v), (u, p))
    });
    let children = CsrRows::from_pairs(n, child_pairs);
    // Free the order before `validate` allocates its own buffers.
    drop(order);
    let t = RootedTree {
        root,
        links,
        children,
    };
    assert!(t.validate(g).is_ok(), "BFS yields a spanning tree");
    t
}

/// Depth-first spanning tree rooted at `root`, exploring ports in order.
///
/// # Panics
///
/// Panics if `g` is disconnected or `root` out of range.
pub fn dfs_tree(g: &PortGraph, root: NodeId) -> RootedTree {
    let n = g.num_nodes();
    let mut parents = vec![None; n];
    let mut visited = vec![false; n];
    visited[root] = true;
    let mut stack = vec![(root, 0usize)];
    while let Some(&mut (v, ref mut next)) = stack.last_mut() {
        if *next >= g.degree(v) {
            stack.pop();
            continue;
        }
        let p = *next;
        *next += 1;
        let (u, _) = g.neighbor_via(v, p);
        if !visited[u] {
            visited[u] = true;
            parents[u] = Some(v);
            stack.push((u, 0));
        }
    }
    assert!(visited.iter().all(|&x| x), "graph is disconnected");
    RootedTree::from_parents(g, root, &parents)
}

/// A random spanning tree: Kruskal over a uniformly shuffled edge order
/// (not uniform over all spanning trees, but an unbiased-enough baseline
/// for the contribution experiments).
///
/// # Panics
///
/// Panics if `g` is disconnected.
pub fn random_spanning_tree<R: Rng>(g: &PortGraph, root: NodeId, rng: &mut R) -> RootedTree {
    let mut edges: Vec<EdgeRef> = g.edges().collect();
    edges.shuffle(rng);
    let mut uf = UnionFind::new(g.num_nodes());
    let chosen: Vec<EdgeRef> = edges.into_iter().filter(|e| uf.union(e.u, e.v)).collect();
    tree_from_edge_set(g, root, &chosen)
}

/// Minimum-weight spanning tree under the paper's edge weight
/// `w(e) = min(port_u, port_v)` (plain Kruskal) — a natural competitor to
/// [`light_tree`] in experiment T3.
///
/// # Panics
///
/// Panics if `g` is disconnected.
pub fn min_weight_tree(g: &PortGraph, root: NodeId) -> RootedTree {
    let mut edges: Vec<EdgeRef> = g.edges().collect();
    edges.sort_by_key(|e| e.weight());
    let mut uf = UnionFind::new(g.num_nodes());
    let chosen: Vec<EdgeRef> = edges.into_iter().filter(|e| uf.union(e.u, e.v)).collect();
    tree_from_edge_set(g, root, &chosen)
}

/// The light spanning tree `T0` of **Claim 3.1**, with total contribution
/// `Σ #2(w(e)) ≤ 4n`.
///
/// Follows the proof's construction: phase `k = 1, 2, …` identifies the
/// collection of *small* trees (`|T| < 2^k`), selects for each a
/// minimum-weight edge leaving it, adds all selected edges, and breaks any
/// cycle created by discarding one of the selected edges on it (realized
/// here by inserting the selected edges sequentially into a union-find and
/// skipping those that would close a cycle — every skipped edge lies on a
/// cycle all of whose tree-path edges were already inserted).
///
/// # Panics
///
/// Panics if `g` is disconnected.
pub fn light_tree(g: &PortGraph, root: NodeId) -> RootedTree {
    let n = g.num_nodes();
    let mut uf = UnionFind::new(n);
    let mut chosen: Vec<EdgeRef> = Vec::with_capacity(n.saturating_sub(1));
    let mut k = 1u32;
    while chosen.len() + 1 < n {
        // Group nodes by component representative. Ordered map: the phase
        // visits small trees in representative order, so ties between
        // equal-weight outgoing edges resolve identically on every run.
        let mut members: std::collections::BTreeMap<usize, Vec<NodeId>> =
            std::collections::BTreeMap::new();
        for v in 0..n {
            members.entry(uf.find(v)).or_default().push(v);
        }
        let threshold = 1usize << k;
        // For each small tree, the minimum-weight outgoing edge.
        let mut selected: Vec<EdgeRef> = Vec::new();
        for (rep, nodes) in &members {
            if nodes.len() >= threshold {
                continue;
            }
            let mut best: Option<EdgeRef> = None;
            for &v in nodes {
                for p in 0..g.degree(v) {
                    let (u, q) = g.neighbor_via(v, p);
                    if uf.find(u) == *rep {
                        continue;
                    }
                    let e = if v < u {
                        EdgeRef {
                            u: v,
                            port_u: p,
                            v: u,
                            port_v: q,
                        }
                    } else {
                        EdgeRef {
                            u,
                            port_u: q,
                            v,
                            port_v: p,
                        }
                    };
                    if best.is_none_or(|b| e.weight() < b.weight()) {
                        best = Some(e);
                    }
                }
            }
            if let Some(e) = best {
                selected.push(e);
            }
            // A small tree with no outgoing edge means a disconnected graph;
            // caught below by the final assertion.
        }
        // When every remaining component has size ≥ 2^k, nothing is small at
        // this phase; the next phase doubles the threshold. A phase with no
        // progress is fine, but the threshold must eventually cover n.
        for e in selected {
            if uf.union(e.u, e.v) {
                chosen.push(e);
            }
        }
        k += 1;
        if k > usize::BITS {
            break; // threshold exceeds any possible component size
        }
    }
    assert_eq!(chosen.len() + 1, n, "graph is disconnected");
    tree_from_edge_set(g, root, &chosen)
}

/// Roots an (unrooted) spanning-tree edge set at `root`.
fn tree_from_edge_set(g: &PortGraph, root: NodeId, edges: &[EdgeRef]) -> RootedTree {
    let n = g.num_nodes();
    let pairs = edges.iter().flat_map(|e| [(e.u, e.v), (e.v, e.u)]);
    let tree_adj = CsrRows::from_pairs(n, pairs);
    let mut parents = vec![None; n];
    let mut visited = vec![false; n];
    visited[root] = true;
    let mut queue = std::collections::VecDeque::from([root]);
    while let Some(v) = queue.pop_front() {
        for &u in tree_adj.row(v) {
            if !visited[u] {
                visited[u] = true;
                parents[u] = Some(v);
                queue.push_back(u);
            }
        }
    }
    assert!(
        visited.iter().all(|&x| x),
        "edge set does not span the graph"
    );
    RootedTree::from_parents(g, root, &parents)
}

/// The spanning-tree constructions compared in experiment T3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TreeAlgorithm {
    /// [`bfs_tree`].
    Bfs,
    /// [`dfs_tree`].
    Dfs,
    /// [`random_spanning_tree`] (takes a seed).
    Random,
    /// [`min_weight_tree`].
    MinWeight,
    /// [`light_tree`] — Claim 3.1.
    Light,
}

impl TreeAlgorithm {
    /// Every algorithm, for sweeps.
    pub const ALL: [TreeAlgorithm; 5] = [
        TreeAlgorithm::Bfs,
        TreeAlgorithm::Dfs,
        TreeAlgorithm::Random,
        TreeAlgorithm::MinWeight,
        TreeAlgorithm::Light,
    ];

    /// Display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            TreeAlgorithm::Bfs => "bfs",
            TreeAlgorithm::Dfs => "dfs",
            TreeAlgorithm::Random => "random",
            TreeAlgorithm::MinWeight => "min-weight",
            TreeAlgorithm::Light => "light(claim-3.1)",
        }
    }

    /// Runs the algorithm on `g` rooted at `root`.
    pub fn build<R: Rng>(&self, g: &PortGraph, root: NodeId, rng: &mut R) -> RootedTree {
        match self {
            TreeAlgorithm::Bfs => bfs_tree(g, root),
            TreeAlgorithm::Dfs => dfs_tree(g, root),
            TreeAlgorithm::Random => random_spanning_tree(g, root, rng),
            TreeAlgorithm::MinWeight => min_weight_tree(g, root),
            TreeAlgorithm::Light => light_tree(g, root),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bfs_tree_on_cycle() {
        let g = families::cycle(6);
        let t = bfs_tree(&g, 0);
        t.validate(&g).unwrap();
        assert_eq!(t.root(), 0);
        assert_eq!(t.edges(&g).count(), 5);
        assert_eq!(t.depth(3), 3);
        assert!(t.children(0).len() == 2);
    }

    #[test]
    fn dfs_tree_on_cycle_is_path() {
        let g = families::cycle(6);
        let t = dfs_tree(&g, 0);
        t.validate(&g).unwrap();
        assert_eq!(t.depth(5), 5.min(t.depth(5)));
        // DFS on a cycle yields one path: exactly one child at the root.
        assert_eq!(t.children(0).len(), 1);
    }

    #[test]
    fn all_algorithms_produce_valid_spanning_trees() {
        let mut rng = StdRng::seed_from_u64(21);
        for fam in families::Family::ALL {
            let g = fam.build(24, &mut rng);
            for alg in TreeAlgorithm::ALL {
                let t = alg.build(&g, 0, &mut rng);
                t.validate(&g)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", alg.name(), fam.name()));
                assert_eq!(t.edges(&g).count(), g.num_nodes() - 1);
            }
        }
    }

    #[test]
    fn light_tree_contribution_bound_holds() {
        // Claim 3.1: Σ #2(w(e)) ≤ 4n on every family.
        let mut rng = StdRng::seed_from_u64(22);
        for fam in families::Family::ALL {
            for n in [8usize, 40, 100] {
                let g = fam.build(n, &mut rng);
                let t = light_tree(&g, 0);
                let c = t.contribution(&g);
                let bound = 4 * g.num_nodes() as u64;
                assert!(
                    c <= bound,
                    "{} n={}: contribution {c} > 4n = {bound}",
                    fam.name(),
                    g.num_nodes()
                );
            }
        }
    }

    #[test]
    fn light_tree_beats_or_matches_bfs_on_complete() {
        // On K_n with rotational ports, BFS from 0 uses each node's port
        // toward 0, which can be large; the light tree prefers low ports.
        let g = families::complete_rotational(64);
        let light = light_tree(&g, 0).contribution(&g);
        let bfs = bfs_tree(&g, 0).contribution(&g);
        assert!(light <= bfs, "light {light} > bfs {bfs}");
        assert!(light <= 4 * 64);
    }

    #[test]
    fn min_weight_tree_is_minimal_total_weight() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = families::random_connected(20, 0.4, &mut rng);
        let mst: u64 = min_weight_tree(&g, 0).edges(&g).map(|e| e.weight()).sum();
        let rnd: u64 = random_spanning_tree(&g, 0, &mut rng)
            .edges(&g)
            .map(|e| e.weight())
            .sum();
        assert!(mst <= rnd);
    }

    #[test]
    fn from_parents_rejects_bogus_maps() {
        let g = families::path(4);
        // Missing parent for node 3.
        let result = std::panic::catch_unwind(|| {
            RootedTree::from_parents(&g, 0, &[None, Some(0), Some(1), None])
        });
        assert!(result.is_err());
        // Non-edge parent relation.
        let result = std::panic::catch_unwind(|| {
            RootedTree::from_parents(&g, 0, &[None, Some(0), Some(0), Some(2)])
        });
        assert!(result.is_err());
    }

    #[test]
    fn validate_reports_the_first_node_off_the_root() {
        // 2 and 3 are each other's parent: the walk down from 0 never
        // reaches them, and node 2 is the first whose walk up cycles.
        let g = families::path(4);
        let mut t = bfs_tree(&g, 0);
        t.links[2] = (3, 0, 1);
        t.links[3] = (2, 1, 0);
        t.children = CsrRows::from_pairs(4, [(0, (1, 0)), (2, (3, 1)), (3, (2, 0))]);
        assert_eq!(t.validate(&g), Err("cycle reached from node 2".to_string()));
    }

    /// One random corruption of a valid tree. The first six kinds keep
    /// every index below its bound; the last three put a child entry, a
    /// parent or a parent's port out of range, and return `true`.
    fn corrupt(t: &mut RootedTree, g: &PortGraph, rng: &mut StdRng) -> bool {
        let n = t.num_nodes();
        let node = |rng: &mut StdRng| rng.gen_range(0..n);
        let port = |rng: &mut StdRng, v: usize| rng.gen_range(0..g.degree(v)) as u32;
        // A row with at least `len` entries, if the tree has one.
        let row_with = |t: &RootedTree, rng: &mut StdRng, len: usize| {
            let start = rng.gen_range(0..n);
            (0..n)
                .map(|i| (start + i) % n)
                .find(|&v| t.children.row(v).len() >= len)
        };
        match rng.gen_range(0..9) {
            0 => {
                // Re-point a link to a random node and ports.
                let (c, p) = (node(rng), node(rng));
                t.links[c] = (p as u32, port(rng, p), port(rng, c));
            }
            1 => {
                // Change one port of a link.
                let c = node(rng);
                let (p, pp, pc) = t.links[c];
                if p != NO_PARENT {
                    t.links[c] = if rng.gen_bool(0.5) {
                        (p, port(rng, widen(p)), pc)
                    } else {
                        (p, pp, port(rng, c))
                    };
                }
            }
            2 => {
                // Change the port of a child entry.
                if let Some(v) = row_with(t, rng, 1) {
                    let new_port = port(rng, v);
                    let row = t.children.row_mut(v);
                    let i = rng.gen_range(0..row.len());
                    row[i].1 = new_port;
                }
            }
            3 => {
                // Reorder a row: swap two of its entries.
                if let Some(v) = row_with(t, rng, 2) {
                    let row = t.children.row_mut(v);
                    let (i, j) = (rng.gen_range(0..row.len()), rng.gen_range(0..row.len()));
                    row.swap(i, j);
                }
            }
            4 => {
                // Duplicate an entry over another, in any rows.
                if let (Some(a), Some(b)) = (row_with(t, rng, 1), row_with(t, rng, 1)) {
                    let entry = t.children.row(a)[rng.gen_range(0..t.children.row(a).len())];
                    let row = t.children.row_mut(b);
                    let i = rng.gen_range(0..row.len());
                    row[i] = entry;
                }
            }
            5 => {
                // A 2-cycle: a node's parent takes the node as its parent,
                // over the same graph edge.
                let c = node(rng);
                let (p, pp, pc) = t.links[c];
                if p != NO_PARENT {
                    t.links[widen(p)] = (c as u32, pc, pp);
                }
            }
            6 => {
                // A row gains a last entry, at a port no link names, for a
                // node past the last. Every link still finds its entry, so
                // only the walk down meets this one.
                let mut pairs: Vec<(usize, (u32, u32))> = (0..n)
                    .flat_map(|v| t.children.row(v).iter().map(move |&e| (v, e)))
                    .collect();
                pairs.push((node(rng), (rng.gen_range(n..n + 3) as u32, u32::MAX)));
                t.children = CsrRows::from_pairs(n, pairs);
                return true;
            }
            7 => {
                // A link names a parent past the last node.
                t.links[node(rng)].0 = rng.gen_range(n..n + 3) as u32;
                return true;
            }
            _ => {
                // A link names a port past its parent's degree.
                let c = node(rng);
                let p = t.links[c].0;
                let p = if p == NO_PARENT { node(rng) as u32 } else { p };
                let degree = g.degree(widen(p));
                t.links[c] = (p, rng.gen_range(degree..degree + 3) as u32, 0);
                return true;
            }
        }
        false
    }

    #[test]
    fn walk_accepts_exactly_when_the_node_order_pass_does() {
        let mut rng = StdRng::seed_from_u64(24);
        let (mut accepted, mut rejected) = (0, 0);
        for round in 0..2000 {
            let fam = families::Family::ALL[round % families::Family::ALL.len()];
            let g = fam.build(rng.gen_range(4..30), &mut rng);
            let alg = TreeAlgorithm::ALL[rng.gen_range(0..TreeAlgorithm::ALL.len())];
            let root = rng.gen_range(0..g.num_nodes());
            let mut t = alg.build(&g, root, &mut rng);
            assert!(t.walk_accepts(&g), "{} on {}", alg.name(), fam.name());
            let out_of_range = corrupt(&mut t, &g, &mut rng);
            let verdict = t.first_defect(&g);
            assert!(!out_of_range || verdict.is_err(), "{verdict:?}");
            assert_eq!(
                t.walk_accepts(&g),
                verdict.is_ok(),
                "{} on {}: {verdict:?}",
                alg.name(),
                fam.name()
            );
            assert_eq!(t.validate(&g), verdict);
            if verdict.is_ok() {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        // Both verdicts occur, so both directions of the equivalence ran.
        assert!(accepted > 100 && rejected > 1000, "{accepted} / {rejected}");
    }

    #[test]
    fn deep_trees_build_in_linear_time() {
        let g = families::path(200_000);
        let t = bfs_tree(&g, 0);
        assert_eq!(t.parent(199_999), Some((199_998, 1, 0)));
        let g = families::cycle(200_000);
        let t = dfs_tree(&g, 0);
        assert_eq!(t.children(0).len(), 1);
        assert!(t.validate(&g).is_ok());
    }

    #[test]
    fn contribution_of_path_tree() {
        // Path ports are all 0/1, so every weight is 0 → #2 = 1 per edge.
        let g = families::path(10);
        let t = bfs_tree(&g, 0);
        assert_eq!(t.contribution(&g), 9);
    }

    #[test]
    fn single_node_tree() {
        let g = crate::portgraph::PortGraph::from_adjacency(vec![vec![]]).unwrap();
        let t = light_tree(&g, 0);
        assert_eq!(t.num_nodes(), 1);
        assert!(t.is_leaf(0));
        assert_eq!(t.contribution(&g), 0);
    }

    #[test]
    fn depths_consistent_with_parents() {
        let mut rng = StdRng::seed_from_u64(24);
        let g = families::random_connected(30, 0.2, &mut rng);
        let t = bfs_tree(&g, 5);
        for v in 0..30 {
            if let Some((p, _, _)) = t.parent(v) {
                assert_eq!(t.depth(v), t.depth(p) + 1);
            }
        }
    }
}
