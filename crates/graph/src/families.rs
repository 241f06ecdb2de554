//! Standard graph families used by the experiments.
//!
//! Every generator returns a validated, connected [`PortGraph`]. Port
//! numberings are deterministic except where a generator takes an `Rng`.
//! The [`Family`] enum names the sweep set used across benches and
//! EXPERIMENTS.md.
//!
//! The large closed-form graphs write their `u32` CSR arrays directly
//! through [`PortGraph::from_csr`]: [`complete_rotational`], and
//! [`subdivided_clique`], the SCALE experiment's `K*_b`, which equals the
//! general `gadgets::subdivide_edges` composition without building the
//! clique or its edge list first.
//!
//! [`Family::size`], [`clique_size`] and [`subdivided_clique_size`]
//! compute a graph's node count and an arc bound from its parameters
//! alone, with checked arithmetic, so a caller can reject a size the
//! `u32` layout cannot index before anything is allocated.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::builder::PortGraphBuilder;
use crate::csr::{check_size, widen};
use crate::portgraph::{GraphError, PortGraph};

/// Node and arc counts of `K_n` — `n` and `n(n−1)` — narrowed to the
/// `u32` layout. Also the arc bound of every simple graph on `n` nodes,
/// such as [`random_connected`]'s.
///
/// # Errors
///
/// [`GraphError::TooLarge`] when either count exceeds `u32::MAX` or
/// overflows `usize`.
pub fn clique_size(n: usize) -> Result<(u32, u32), GraphError> {
    check_size(Some(n), n.checked_mul(n.saturating_sub(1)))
}

/// Node and arc counts of [`subdivided_clique`]`(b)` — `b + b(b−1)/2`
/// and `2b(b−1)` — narrowed to the `u32` layout.
///
/// # Errors
///
/// [`GraphError::TooLarge`] when either count exceeds `u32::MAX` or
/// overflows `usize`.
pub fn subdivided_clique_size(b: usize) -> Result<(u32, u32), GraphError> {
    let pairs = b.checked_mul(b.saturating_sub(1));
    check_size(
        pairs.and_then(|p| b.checked_add(p / 2)),
        pairs.and_then(|p| p.checked_mul(2)),
    )
}

/// A path `0 − 1 − … − (n−1)`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn path(n: usize) -> PortGraph {
    assert!(n > 0, "path needs at least one node");
    let mut b = PortGraphBuilder::new(n);
    for v in 1..n {
        b.add_edge(v - 1, v).expect("path edges are simple");
    }
    b.build().expect("path is valid")
}

/// A cycle on `n ≥ 3` nodes.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> PortGraph {
    assert!(n >= 3, "cycle needs at least three nodes");
    let mut b = PortGraphBuilder::new(n);
    for v in 0..n {
        b.add_edge(v, (v + 1) % n).expect("cycle edges are simple");
    }
    b.build().expect("cycle is valid")
}

/// A star: node 0 joined to nodes `1..n`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn star(n: usize) -> PortGraph {
    assert!(n >= 2, "star needs at least two nodes");
    let mut b = PortGraphBuilder::new(n);
    for v in 1..n {
        b.add_edge(0, v).expect("star edges are simple");
    }
    b.build().expect("star is valid")
}

/// The complete graph `K*_n` with the *rotational* port labeling: port `p`
/// at node `i` leads to node `(i + p + 1) mod n`.
///
/// This replaces the paper's `(i−j) mod (n−1)` formula, which is not
/// injective (see DESIGN.md §1, fidelity notes); the rotational labeling is
/// the standard fix and yields ports `0..n−2` bijectively at every node.
///
/// # Panics
///
/// Panics if `n < 2`, or if `K_n` does not fit the `u32` layout
/// ([`clique_size`]).
pub fn complete_rotational(n: usize) -> PortGraph {
    assert!(n >= 2, "complete graph needs at least two nodes");
    let (n, arcs) = clique_size(n).unwrap_or_else(|e| panic!("{e}"));
    let deg = n - 1;
    let mut targets = Vec::with_capacity(widen(arcs));
    let mut back_ports = Vec::with_capacity(widen(arcs));
    for i in 0..n {
        for p in 0..deg {
            let j = (i + p + 1) % n;
            targets.push(j);
            // Arrival port q at j satisfies (j + q + 1) mod n == i.
            back_ports.push((i + n - j - 1) % n);
        }
    }
    let offsets = (0..=n).map(|v| v * deg).collect();
    PortGraph::from_csr(offsets, targets, back_ports, (0..u64::from(n)).collect())
        .expect("rotational labeling is symmetric")
}

/// The fully subdivided clique `K*_b`: [`complete_rotational`]`(b)` with a
/// degree-2 node hidden in every edge — equal, labels included, to
/// [`gadgets::subdivide_edges`](crate::gadgets::subdivide_edges) applied
/// to all of its edges in [`PortGraph::edges`] order, which is the SCALE
/// experiment's graph (`n = b + b(b−1)/2`).
///
/// The CSR arrays are written in closed form, so the million-node
/// instance allocates only what the graph keeps. Edge `{u, v}` (`u < v`)
/// is the `idx(u, v)`-th in canonical order; its node `b + idx(u, v)` has
/// port 0 toward `u` and port 1 toward `v`, and the clique ports keep the
/// rotational numbering.
///
/// All arithmetic runs in `u32`, checked once up front by
/// [`subdivided_clique_size`].
///
/// # Panics
///
/// Panics if `b < 2`, or if the graph does not fit the `u32` layout.
pub fn subdivided_clique(b: usize) -> PortGraph {
    assert!(b >= 2, "complete graph needs at least two nodes");
    let (nodes, arcs) = subdivided_clique_size(b).unwrap_or_else(|e| panic!("{e}"));
    let b = u32::try_from(b).expect("b is below the node count");
    let deg = b - 1;
    let m = nodes - b;
    // Edges from `u` to `u+1 .. b` come in port order, after the
    // `Σ_{k<u} (b−1−k)` edges of the smaller endpoints.
    let idx = |u: u32, v: u32| u * deg - u * (u.saturating_sub(1)) / 2 + (v - u - 1);
    let mut targets = Vec::with_capacity(widen(arcs));
    let mut back_ports = Vec::with_capacity(widen(arcs));
    for i in 0..b {
        for p in 0..deg {
            let j = (i + p + 1) % b;
            targets.push(b + idx(i.min(j), i.max(j)));
            back_ports.push(u32::from(i > j));
        }
    }
    for u in 0..b {
        for v in u + 1..b {
            targets.extend([u, v]);
            back_ports.extend([v - u - 1, (u + b - v - 1) % b]);
        }
    }
    let offsets = (0..=b)
        .map(|v| v * deg)
        .chain((1..=m).map(|w| b * deg + 2 * w))
        .collect();
    let labels = (0..u64::from(nodes)).collect();
    PortGraph::from_csr(offsets, targets, back_ports, labels)
        .expect("subdivision preserves invariants")
}

/// A `w × h` grid (4-neighbor mesh).
///
/// # Panics
///
/// Panics if `w == 0 || h == 0`.
pub fn grid(w: usize, h: usize) -> PortGraph {
    assert!(w > 0 && h > 0, "grid dimensions must be positive");
    let idx = |x: usize, y: usize| y * w + x;
    let mut b = PortGraphBuilder::new(w * h);
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                b.add_edge(idx(x, y), idx(x + 1, y)).expect("grid simple");
            }
            if y + 1 < h {
                b.add_edge(idx(x, y), idx(x, y + 1)).expect("grid simple");
            }
        }
    }
    b.build().expect("grid is valid")
}

/// A `w × h` torus (wrap-around mesh); requires `w, h ≥ 3` to stay simple.
///
/// # Panics
///
/// Panics if `w < 3 || h < 3`.
pub fn torus(w: usize, h: usize) -> PortGraph {
    assert!(w >= 3 && h >= 3, "torus needs dimensions at least 3");
    let idx = |x: usize, y: usize| y * w + x;
    let mut b = PortGraphBuilder::new(w * h);
    for y in 0..h {
        for x in 0..w {
            b.add_edge(idx(x, y), idx((x + 1) % w, y))
                .expect("torus simple");
            b.add_edge(idx(x, y), idx(x, (y + 1) % h))
                .expect("torus simple");
        }
    }
    b.build().expect("torus is valid")
}

/// The `d`-dimensional hypercube (`2^d` nodes); port `k` flips bit `k`.
///
/// # Panics
///
/// Panics if `d > 20` (guard against accidental huge graphs).
pub fn hypercube(d: u32) -> PortGraph {
    assert!(d <= 20, "hypercube dimension too large");
    let n = 1usize << d;
    let mut adj = Vec::with_capacity(n);
    for v in 0..n {
        let ports = (0..d as usize).map(|k| (v ^ (1 << k), k)).collect();
        adj.push(ports);
    }
    PortGraph::from_adjacency(adj).expect("hypercube is symmetric")
}

/// A complete binary tree on `n` nodes (heap order: children of `v` are
/// `2v+1`, `2v+2`).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn binary_tree(n: usize) -> PortGraph {
    assert!(n > 0, "tree needs at least one node");
    let mut b = PortGraphBuilder::new(n);
    for v in 1..n {
        b.add_edge((v - 1) / 2, v).expect("tree edges are simple");
    }
    b.build().expect("binary tree is valid")
}

/// A lollipop: a clique on `⌈n/2⌉` nodes with a path of the remaining nodes
/// attached. A classic stress case — high-degree cluster plus long tail.
///
/// # Panics
///
/// Panics if `n < 4`.
pub fn lollipop(n: usize) -> PortGraph {
    assert!(n >= 4, "lollipop needs at least four nodes");
    let k = n.div_ceil(2);
    let mut b = PortGraphBuilder::new(n);
    for i in 0..k {
        for j in i + 1..k {
            b.add_edge(i, j).expect("clique edges are simple");
        }
    }
    for v in k..n {
        b.add_edge(v - 1, v).expect("path edges are simple");
    }
    b.build().expect("lollipop is valid")
}

/// A caterpillar: a spine path with a leg hanging off every spine node —
/// maximal leaf count among trees, a stress case for child-port lists.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn caterpillar(n: usize) -> PortGraph {
    assert!(n >= 2, "caterpillar needs at least two nodes");
    let spine = n.div_ceil(2);
    let mut b = PortGraphBuilder::new(n);
    for v in 1..spine {
        b.add_edge(v - 1, v).expect("spine edges are simple");
    }
    for leg in spine..n {
        b.add_edge(leg - spine, leg).expect("leg edges are simple");
    }
    b.build().expect("caterpillar is valid")
}

/// An Erdős–Rényi `G(n, p)` conditioned on connectivity: edges are sampled
/// independently, then any disconnected components are stitched to the
/// giant one with single random edges (each stitch chooses random endpoints
/// that do not create parallels).
///
/// # Panics
///
/// Panics if `n == 0` or `p` is not in `[0, 1]`.
pub fn random_connected<R: Rng>(n: usize, p: f64, rng: &mut R) -> PortGraph {
    assert!(n > 0, "graph needs at least one node");
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    let mut b = PortGraphBuilder::new(n);
    let mut present = vec![false; n * n];
    for u in 0..n {
        for v in u + 1..n {
            if rng.gen_bool(p) {
                b.add_edge(u, v).expect("fresh pair");
                present[u * n + v] = true;
            }
        }
    }
    // Stitch components: union-find over sampled edges.
    let mut uf = crate::traverse::UnionFind::new(n);
    for u in 0..n {
        for v in u + 1..n {
            if present[u * n + v] {
                uf.union(u, v);
            }
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let anchor = order[0];
    for &v in &order[1..] {
        if uf.find(v) != uf.find(anchor) {
            // Connect v's component to anchor's with one edge.
            let (a, bnode) = (v, anchor);
            let (lo, hi) = (a.min(bnode), a.max(bnode));
            if !present[lo * n + hi] {
                b.add_edge(lo, hi).expect("checked not present");
                present[lo * n + hi] = true;
            }
            uf.union(a, bnode);
        }
    }
    b.shuffle_ports(rng);
    let g = b.build().expect("random graph is valid");
    debug_assert!(g.is_connected());
    g
}

/// A uniformly random labeled tree on `n` nodes (random Prüfer sequence),
/// with shuffled ports.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_tree<R: Rng>(n: usize, rng: &mut R) -> PortGraph {
    assert!(n > 0, "tree needs at least one node");
    let mut b = PortGraphBuilder::new(n);
    if n >= 2 {
        let edges = prufer_random_tree(n, rng);
        for (u, v) in edges {
            b.add_edge(u, v).expect("tree edges are simple");
        }
        b.shuffle_ports(rng);
    }
    b.build().expect("random tree is valid")
}

/// Decodes a uniformly random Prüfer sequence into tree edges.
fn prufer_random_tree<R: Rng>(n: usize, rng: &mut R) -> Vec<(usize, usize)> {
    if n == 2 {
        return vec![(0, 1)];
    }
    let seq: Vec<usize> = (0..n - 2).map(|_| rng.gen_range(0..n)).collect();
    let mut degree = vec![1usize; n];
    for &s in &seq {
        degree[s] += 1;
    }
    let mut edges = Vec::with_capacity(n - 1);
    // Min-heap of current leaves.
    let mut leaves: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
        .filter(|&v| degree[v] == 1)
        .map(std::cmp::Reverse)
        .collect();
    for &s in &seq {
        let std::cmp::Reverse(leaf) = leaves.pop().expect("tree always has a leaf");
        edges.push((leaf.min(s), leaf.max(s)));
        degree[leaf] -= 1;
        degree[s] -= 1;
        if degree[s] == 1 {
            leaves.push(std::cmp::Reverse(s));
        }
    }
    let std::cmp::Reverse(a) = leaves.pop().expect("two leaves remain");
    let std::cmp::Reverse(bv) = leaves.pop().expect("two leaves remain");
    edges.push((a.min(bv), a.max(bv)));
    edges
}

/// The named families swept by experiments T1–T4 and the benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// [`path`].
    Path,
    /// [`cycle`].
    Cycle,
    /// [`complete_rotational`].
    Complete,
    /// [`hypercube`] of dimension `⌊log2 n⌋`.
    Hypercube,
    /// Near-square [`grid`].
    Grid,
    /// [`lollipop`].
    Lollipop,
    /// [`binary_tree`].
    BinaryTree,
    /// [`random_connected`] with `p = 2 ln n / n` (safely above the
    /// connectivity threshold).
    RandomSparse,
    /// [`random_connected`] with `p = 0.3`.
    RandomDense,
    /// [`random_tree`].
    RandomTree,
    /// Near-square [`torus`] (at least 3×3).
    Torus,
    /// [`star`] — one hub of degree `n − 1`.
    Star,
    /// [`caterpillar`].
    Caterpillar,
}

impl Family {
    /// Every family, for sweeps.
    pub const ALL: [Family; 13] = [
        Family::Path,
        Family::Cycle,
        Family::Complete,
        Family::Hypercube,
        Family::Grid,
        Family::Lollipop,
        Family::BinaryTree,
        Family::RandomSparse,
        Family::RandomDense,
        Family::RandomTree,
        Family::Torus,
        Family::Star,
        Family::Caterpillar,
    ];

    /// Display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Family::Path => "path",
            Family::Cycle => "cycle",
            Family::Complete => "complete",
            Family::Hypercube => "hypercube",
            Family::Grid => "grid",
            Family::Lollipop => "lollipop",
            Family::BinaryTree => "binary-tree",
            Family::RandomSparse => "random-sparse",
            Family::RandomDense => "random-dense",
            Family::RandomTree => "random-tree",
            Family::Torus => "torus",
            Family::Star => "star",
            Family::Caterpillar => "caterpillar",
        }
    }

    /// Builds an instance with *approximately* `n` nodes (exact for most
    /// families; hypercube rounds down to a power of two, grid to a
    /// near-square rectangle).
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` (the smallest size every family supports).
    pub fn build<R: Rng>(&self, n: usize, rng: &mut R) -> PortGraph {
        assert!(n >= 4, "families are defined for n >= 4");
        match self {
            Family::Path => path(n),
            Family::Cycle => cycle(n),
            Family::Complete => complete_rotational(n),
            Family::Hypercube => hypercube(hypercube_dim(n)),
            Family::Grid => {
                let (w, h) = grid_dims(n);
                grid(w, h)
            }
            Family::Lollipop => lollipop(n),
            Family::BinaryTree => binary_tree(n),
            Family::RandomSparse => {
                let p = (2.0 * (n as f64).ln() / n as f64).min(1.0);
                random_connected(n, p, rng)
            }
            Family::RandomDense => random_connected(n, 0.3, rng),
            Family::RandomTree => random_tree(n, rng),
            Family::Torus => {
                let (w, h) = torus_dims(n);
                torus(w, h)
            }
            Family::Star => star(n),
            Family::Caterpillar => caterpillar(n),
        }
    }

    /// The node count of [`build`](Self::build)`(n, _)` and an upper
    /// bound on its arc count, narrowed to the `u32` layout: exact for
    /// the trees, cycle, complete graph, hypercube and lollipop, `4·nodes`
    /// for the meshes, and `n(n−1)` for the random graphs. No graph is
    /// built.
    ///
    /// # Errors
    ///
    /// [`GraphError::TooLarge`] when either count exceeds `u32::MAX` or
    /// overflows `usize`.
    pub fn size(&self, n: usize) -> Result<(u32, u32), GraphError> {
        let mesh = |(w, h): (usize, usize)| {
            let nodes = w.checked_mul(h);
            check_size(nodes, nodes.and_then(|x| x.checked_mul(4)))
        };
        match self {
            Family::Path
            | Family::BinaryTree
            | Family::RandomTree
            | Family::Star
            | Family::Caterpillar => check_size(Some(n), n.saturating_sub(1).checked_mul(2)),
            Family::Cycle => check_size(Some(n), n.checked_mul(2)),
            Family::Complete | Family::RandomSparse | Family::RandomDense => clique_size(n),
            Family::Hypercube => {
                let d = hypercube_dim(n);
                check_size(Some(1 << d), Some((d as usize) << d))
            }
            Family::Grid => mesh(grid_dims(n)),
            Family::Torus => mesh(torus_dims(n)),
            Family::Lollipop => {
                let k = n.div_ceil(2);
                let clique = k.checked_mul(k.saturating_sub(1));
                check_size(Some(n), clique.and_then(|c| c.checked_add(2 * (n - k))))
            }
        }
    }
}

/// The hypercube dimension [`Family::build`] uses for `n` nodes.
fn hypercube_dim(n: usize) -> u32 {
    n.checked_ilog2().unwrap_or(0).min(20)
}

/// The near-square `w × h` grid [`Family::build`] uses for `n` nodes.
fn grid_dims(n: usize) -> (usize, usize) {
    let w = ((n as f64).sqrt().round() as usize).max(2);
    (w, n.div_ceil(w).max(2))
}

/// The near-square torus dimensions [`Family::build`] uses for `n` nodes.
fn torus_dims(n: usize) -> (usize, usize) {
    let w = ((n as f64).sqrt().round() as usize).max(3);
    (w, n.div_ceil(w).max(3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        g.validate().unwrap();
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(7);
        assert_eq!(g.num_edges(), 7);
        assert!((0..7).all(|v| g.degree(v) == 2));
        assert!(g.is_connected());
    }

    #[test]
    fn star_shape() {
        let g = star(6);
        assert_eq!(g.degree(0), 5);
        assert!((1..6).all(|v| g.degree(v) == 1));
    }

    #[test]
    fn complete_rotational_is_complete_and_valid() {
        for n in [2usize, 3, 5, 8, 13] {
            let g = complete_rotational(n);
            g.validate().unwrap();
            assert_eq!(g.num_edges(), n * (n - 1) / 2, "n={n}");
            for i in 0..n {
                assert_eq!(g.degree(i), n - 1);
                for j in 0..n {
                    if i != j {
                        assert!(g.has_edge(i, j), "missing {{{i},{j}}} n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn complete_rotational_port_formula() {
        let n = 9;
        let g = complete_rotational(n);
        for i in 0..n {
            for p in 0..n - 1 {
                assert_eq!(g.neighbor_via(i, p).0, (i + p + 1) % n);
            }
        }
    }

    #[test]
    fn complete_rotational_matches_the_adjacency_formula() {
        for n in 2usize..=40 {
            let adj = (0..n)
                .map(|i| {
                    (0..n - 1)
                        .map(|p| {
                            let j = (i + p + 1) % n;
                            (j, (i + n - j - 1) % n)
                        })
                        .collect()
                })
                .collect();
            assert_eq!(
                complete_rotational(n),
                PortGraph::from_adjacency(adj).unwrap(),
                "n={n}"
            );
        }
    }

    #[test]
    fn subdivided_clique_matches_the_composition() {
        for b in 2usize..=48 {
            let base = complete_rotational(b);
            let edges: Vec<_> = base.edges().collect();
            let g = subdivided_clique(b);
            assert_eq!(g, crate::gadgets::subdivide_edges(&base, &edges), "b={b}");
            assert_eq!(g.num_nodes(), b + b * (b - 1) / 2);
        }
    }

    #[test]
    fn grid_and_torus_shapes() {
        let g = grid(4, 3);
        assert_eq!(g.num_nodes(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 4 * 2); // horizontal + vertical
        assert!(g.is_connected());

        let t = torus(4, 3);
        assert_eq!(t.num_edges(), 2 * 12);
        assert!((0..12).all(|v| t.degree(v) == 4));
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(4);
        assert_eq!(g.num_nodes(), 16);
        assert!((0..16).all(|v| g.degree(v) == 4));
        assert!(g.is_connected());
        // Port k flips bit k.
        assert_eq!(g.neighbor_via(0b0101, 1).0, 0b0111);
    }

    #[test]
    fn binary_tree_shape() {
        let g = binary_tree(7);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 3);
        assert_eq!(g.degree(6), 1);
    }

    #[test]
    fn lollipop_shape() {
        let g = lollipop(10);
        assert_eq!(g.num_nodes(), 10);
        assert!(g.is_connected());
        let k = 5;
        assert_eq!(g.degree(9), 1);
        assert_eq!(g.degree(0), k - 1);
    }

    #[test]
    fn random_connected_is_connected_various_p() {
        let mut rng = StdRng::seed_from_u64(7);
        for p in [0.0, 0.05, 0.5, 1.0] {
            for n in [1usize, 2, 5, 30] {
                let g = random_connected(n, p, &mut rng);
                assert!(g.is_connected(), "n={n} p={p}");
                g.validate().unwrap();
            }
        }
    }

    #[test]
    fn random_tree_is_tree() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1usize, 2, 3, 10, 64] {
            let g = random_tree(n, &mut rng);
            assert_eq!(g.num_edges(), n - 1.min(n), "n={n}");
            assert!(g.is_connected());
        }
    }

    #[test]
    fn random_tree_degree_distribution_sane() {
        // Across many samples, leaves exist and max degree stays below n.
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..20 {
            let g = random_tree(30, &mut rng);
            assert!((0..30).any(|v| g.degree(v) == 1));
        }
    }

    #[test]
    fn family_sweep_builds_and_validates() {
        let mut rng = StdRng::seed_from_u64(5);
        for fam in Family::ALL {
            for n in [8usize, 33, 64] {
                let g = fam.build(n, &mut rng);
                g.validate()
                    .unwrap_or_else(|e| panic!("{} n={n}: {e}", fam.name()));
                assert!(g.is_connected(), "{} n={n}", fam.name());
                assert!(g.num_nodes() >= 4, "{} n={n}", fam.name());
                let edges = g.edges();
                assert_eq!(edges.len(), g.num_edges(), "{} n={n}", fam.name());
                assert_eq!(edges.count(), g.num_edges(), "{} n={n}", fam.name());
            }
        }
    }

    #[test]
    fn size_helpers_reject_from_the_first_size_past_u32() {
        // The first size whose node or arc count exceeds `u32::MAX`.
        let tree = 2_147_483_649; // 2(n−1) arcs
        let cycle = 2_147_483_648; // 2n arcs
        let clique = 65_537; // n(n−1) arcs
        let mesh = 1_073_709_057; // a 32768 × 32768 mesh: 4·2^30 arcs
        let firsts = [
            (Family::Path, tree),
            (Family::Cycle, cycle),
            (Family::Complete, clique),
            (Family::Grid, mesh),
            (Family::Lollipop, 131_071), // K_65536 plus its tail
            (Family::BinaryTree, tree),
            (Family::RandomSparse, clique),
            (Family::RandomDense, clique),
            (Family::RandomTree, tree),
            (Family::Torus, mesh),
            (Family::Star, tree),
            (Family::Caterpillar, tree),
        ];
        for (fam, first) in firsts {
            let below = first - 1;
            assert!(fam.size(below).is_ok(), "{} n={below}", fam.name());
            assert!(
                matches!(fam.size(first), Err(GraphError::TooLarge { .. })),
                "{} n={first}",
                fam.name()
            );
        }
        // The hypercube's dimension is capped at 20: never too large.
        assert_eq!(Family::Hypercube.size(usize::MAX), Ok((1 << 20, 20 << 20)));
        assert_eq!(clique_size(clique - 1), Ok((65_536, 65_536 * 65_535)));
        assert!(clique_size(clique).is_err());
        assert!(subdivided_clique_size(46_341).is_ok());
        assert!(subdivided_clique_size(46_342).is_err());
        // b(b−1) overflows usize: rejected, not wrapped.
        assert_eq!(
            subdivided_clique_size(1 << 33),
            Err(GraphError::TooLarge {
                what: "node count",
                count: None
            })
        );
    }

    #[test]
    fn size_helpers_match_the_built_graphs() {
        let mut rng = StdRng::seed_from_u64(6);
        for fam in Family::ALL {
            for n in [4usize, 9, 33, 64] {
                let g = fam.build(n, &mut rng);
                let (nodes, arcs) = fam.size(n).unwrap();
                assert_eq!(nodes as usize, g.num_nodes(), "{} n={n}", fam.name());
                assert!(2 * g.num_edges() <= arcs as usize, "{} n={n}", fam.name());
            }
        }
        for b in 2usize..=12 {
            let g = subdivided_clique(b);
            let (nodes, arcs) = subdivided_clique_size(b).unwrap();
            assert_eq!(
                (nodes as usize, arcs as usize),
                (g.num_nodes(), 2 * g.num_edges())
            );
        }
    }

    #[test]
    fn family_names_unique() {
        let mut names: Vec<&str> = Family::ALL.iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Family::ALL.len());
    }
}
