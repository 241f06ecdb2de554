//! The core port-labeled graph representation.

use std::error::Error;
use std::fmt;

use crate::csr::{check_size, widen};

/// Index of a node within a [`PortGraph`] (`0 .. num_nodes`).
///
/// Distinct from the node's *label* ([`PortGraph::label`]): algorithms in
/// the anonymous model never see a `NodeId`, only ports, degrees and
/// (optionally) labels.
pub type NodeId = usize;

/// A local port number at a node (`0 .. deg(v)`).
pub type Port = usize;

/// One undirected edge together with the port numbers at its endpoints.
///
/// The canonical orientation has `u < v` (by node id). The paper's edge
/// weight `w(e) = min(port_u(e), port_v(e))` is exposed as
/// [`EdgeRef::weight`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeRef {
    /// Smaller endpoint (by node id).
    pub u: NodeId,
    /// Port at `u` leading to `v`.
    pub port_u: Port,
    /// Larger endpoint.
    pub v: NodeId,
    /// Port at `v` leading to `u`.
    pub port_v: Port,
}

impl EdgeRef {
    /// The paper's weight `w(e) = min(port_u(e), port_v(e))` (§3).
    pub fn weight(&self) -> u64 {
        self.port_u.min(self.port_v) as u64
    }

    /// The endpoint other than `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint of this edge.
    pub fn other(&self, x: NodeId) -> NodeId {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!("node {x} is not an endpoint of {self:?}")
        }
    }

    /// The port at endpoint `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint of this edge.
    pub fn port_at(&self, x: NodeId) -> Port {
        if x == self.u {
            self.port_u
        } else if x == self.v {
            self.port_v
        } else {
            panic!("node {x} is not an endpoint of {self:?}")
        }
    }
}

/// Errors reported by [`PortGraph::validate`] and the builder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// `adj[v][p] = (u, q)` but `adj[u][q] ≠ (v, p)`.
    AsymmetricPortMap {
        /// Node where the asymmetry was observed.
        node: NodeId,
        /// Port at `node`.
        port: Port,
    },
    /// A self-loop was found; the model forbids them.
    SelfLoop {
        /// Offending node.
        node: NodeId,
    },
    /// Two parallel edges between the same pair of nodes.
    ParallelEdge {
        /// One endpoint.
        u: NodeId,
        /// Other endpoint.
        v: NodeId,
    },
    /// Two nodes share a label.
    DuplicateLabel {
        /// The repeated label value.
        label: u64,
    },
    /// A port or node reference is out of range.
    OutOfRange {
        /// Node whose adjacency refers out of range.
        node: NodeId,
        /// Offending port slot.
        port: Port,
    },
    /// More nodes or arcs than the `u32` CSR layout indexes (see
    /// [`crate::csr`]).
    TooLarge {
        /// What does not fit: `"node count"`, `"arc count"`, `"port"`, ….
        what: &'static str,
        /// The count, or `None` when computing it overflowed `usize`.
        count: Option<usize>,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::AsymmetricPortMap { node, port } => {
                write!(f, "asymmetric port map at node {node} port {port}")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
            GraphError::ParallelEdge { u, v } => {
                write!(f, "parallel edge between nodes {u} and {v}")
            }
            GraphError::DuplicateLabel { label } => write!(f, "duplicate node label {label}"),
            GraphError::OutOfRange { node, port } => {
                write!(f, "out-of-range reference at node {node} port {port}")
            }
            GraphError::TooLarge {
                what,
                count: Some(count),
            } => write!(f, "{what} {count} exceeds the u32 index limit {}", u32::MAX),
            GraphError::TooLarge { what, count: None } => {
                write!(
                    f,
                    "{what} overflows usize, beyond the u32 limit {}",
                    u32::MAX
                )
            }
        }
    }
}

impl Error for GraphError {}

// Sharing a PortGraph across worker threads is load-bearing for the
// parallel runtime; fail compilation loudly if it ever stops being
// Send + Sync (e.g. by gaining interior mutability).
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PortGraph>();
};

/// An undirected graph with per-node port numbering — the network model of
/// the paper.
///
/// Every node `v` stores a dense array of ports; port `p` holds the pair
/// `(u, q)` meaning "port `p` at `v` is the edge to `u`, which arrives at
/// `u`'s port `q`". The structural invariants (symmetry, no self-loops, no
/// parallel edges, distinct labels) are checked by [`validate`] and
/// maintained by [`crate::builder::PortGraphBuilder`].
///
/// # Memory layout
///
/// Storage is flat CSR (compressed sparse row): `offsets` has `n + 1`
/// entries, and node `v`'s ports occupy `offsets[v] .. offsets[v + 1]` of
/// the parallel `targets` / `back_ports` arrays. Three contiguous `u32`
/// allocations serve any graph of up to `u32::MAX` nodes and arcs, and a
/// million-node instance costs no per-node pointer chase. Accessors widen
/// the stored indices to `usize` [`NodeId`]s and [`Port`]s. See
/// DESIGN.md §11.
///
/// # Examples
///
/// ```
/// use oraclesize_graph::PortGraphBuilder;
///
/// let mut b = PortGraphBuilder::new(3);
/// b.add_edge(0, 1).unwrap();
/// b.add_edge(1, 2).unwrap();
/// let g = b.build().unwrap();
/// assert_eq!(g.degree(1), 2);
/// let (nbr, arrival) = g.neighbor_via(0, 0);
/// assert_eq!(nbr, 1);
/// assert_eq!(g.neighbor_via(1, arrival).0, 0);
/// ```
///
/// [`validate`]: PortGraph::validate
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortGraph {
    /// `offsets[v] .. offsets[v + 1]` spans node `v`'s ports; `n + 1` long.
    offsets: Vec<u32>,
    /// Neighbor reached through each port, in port order.
    targets: Vec<u32>,
    /// Arrival port at the neighbor, parallel to `targets`.
    back_ports: Vec<u32>,
    labels: Vec<u64>,
}

impl PortGraph {
    /// Builds a graph directly from adjacency data; prefer
    /// [`crate::builder::PortGraphBuilder`] unless you are constructing a
    /// family with explicit closed-form port maps.
    ///
    /// Labels default to `0..n`. The nested input is flattened into the
    /// CSR layout before validation.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::TooLarge`] for more than `u32::MAX` nodes or
    /// arcs, else the first invariant violation found (see [`GraphError`]).
    pub fn from_adjacency(adj: Vec<Vec<(NodeId, Port)>>) -> Result<Self, GraphError> {
        let labels = (0..adj.len() as u64).collect();
        Self::from_adjacency_labeled(adj, labels)
    }

    /// As [`from_adjacency`](Self::from_adjacency) with explicit labels.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::TooLarge`] for more than `u32::MAX` nodes or
    /// arcs, else the first invariant violation found, including duplicate
    /// labels.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != adj.len()`.
    pub fn from_adjacency_labeled(
        adj: Vec<Vec<(NodeId, Port)>>,
        labels: Vec<u64>,
    ) -> Result<Self, GraphError> {
        assert_eq!(adj.len(), labels.len(), "one label per node required");
        let total: usize = adj.iter().map(Vec::len).sum();
        check_size(Some(adj.len()), Some(total))?;
        // Once the counts fit, an entry too wide for `u32` is out of range
        // (every valid id and port is below `u32::MAX`), and so is
        // `u32::MAX`: saturating keeps `validate`'s first-violation report.
        let saturate = |x: usize| u32::try_from(x).unwrap_or(u32::MAX);
        let mut offsets = Vec::with_capacity(adj.len() + 1);
        let mut targets = Vec::with_capacity(total);
        let mut back_ports = Vec::with_capacity(total);
        offsets.push(0);
        for ports in &adj {
            for &(u, q) in ports {
                targets.push(saturate(u));
                back_ports.push(saturate(q));
            }
            offsets.push(saturate(targets.len()));
        }
        Self::from_csr(offsets, targets, back_ports, labels)
    }

    /// Builds a graph directly from its CSR arrays: `offsets` has `n + 1`
    /// entries with `offsets[0] == 0`, and entry `offsets[v] + p` of the
    /// parallel `targets`/`back_ports` arrays holds node `v`'s port `p`.
    /// The cheapest constructor for large closed-form families — no nested
    /// intermediate is allocated.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::TooLarge`] for more than `u32::MAX` nodes,
    /// else the first invariant violation found (see [`GraphError`]).
    ///
    /// # Panics
    ///
    /// Panics if the array lengths are inconsistent (`offsets` empty or
    /// non-monotonic, `targets`/`back_ports` length mismatch, or one label
    /// per node missing).
    pub fn from_csr(
        offsets: Vec<u32>,
        targets: Vec<u32>,
        back_ports: Vec<u32>,
        labels: Vec<u64>,
    ) -> Result<Self, GraphError> {
        assert!(!offsets.is_empty(), "offsets needs a leading 0 entry");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        assert_eq!(
            widen(*offsets.last().unwrap()),
            targets.len(),
            "offsets must span targets"
        );
        assert_eq!(
            targets.len(),
            back_ports.len(),
            "targets and back_ports must be parallel"
        );
        assert_eq!(
            offsets.len() - 1,
            labels.len(),
            "one label per node required"
        );
        let g = PortGraph {
            offsets,
            targets,
            back_ports,
            labels,
        };
        g.validate()?;
        Ok(g)
    }

    /// Wraps the graph in an [`Arc`](std::sync::Arc) for cross-thread
    /// sharing — the form `oraclesize-runtime` instances and worker pools
    /// consume. The graph is immutable after construction, so one shared
    /// copy serves any number of concurrent engine runs.
    pub fn into_shared(self) -> std::sync::Arc<Self> {
        std::sync::Arc::new(self)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Degree of `v` (also the number of ports at `v`).
    pub fn degree(&self, v: NodeId) -> usize {
        widen(self.offsets[v + 1] - self.offsets[v])
    }

    /// The label of `v` — the identity an algorithm may see in the
    /// non-anonymous model.
    pub fn label(&self, v: NodeId) -> u64 {
        self.labels[v]
    }

    /// Node with the given label, if any (linear scan).
    pub fn node_by_label(&self, label: u64) -> Option<NodeId> {
        self.labels.iter().position(|&l| l == label)
    }

    /// Follows port `p` out of `v`: returns `(u, q)` where `u` is the
    /// neighbor and `q` the arrival port at `u`.
    ///
    /// # Panics
    ///
    /// Panics if `p ≥ deg(v)`.
    pub fn neighbor_via(&self, v: NodeId, p: Port) -> (NodeId, Port) {
        assert!(
            p < self.degree(v),
            "port {p} out of range at node {v} (degree {})",
            self.degree(v)
        );
        let i = widen(self.offsets[v]) + p;
        (widen(self.targets[i]), widen(self.back_ports[i]))
    }

    /// The port at `v` leading to `u`, or `None` if `{u,v}` is not an edge.
    pub fn port_toward(&self, v: NodeId, u: NodeId) -> Option<Port> {
        self.neighbors(v).position(|w| w == u)
    }

    /// Returns `true` if `{u,v}` is an edge.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.port_toward(u, v).is_some()
    }

    /// The edge `{u,v}` with its ports, or `None` if absent.
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeRef> {
        let pu = self.port_toward(u, v)?;
        let pv = self.neighbor_via(u, pu).1;
        let (a, pa, b, pb) = if u < v {
            (u, pu, v, pv)
        } else {
            (v, pv, u, pu)
        };
        Some(EdgeRef {
            u: a,
            port_u: pa,
            v: b,
            port_v: pb,
        })
    }

    /// Iterates over all undirected edges in canonical (`u < v`) order.
    /// The length is [`num_edges`](Self::num_edges), so `collect` sizes
    /// its buffer once.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = EdgeRef> + '_ {
        Edges {
            g: self,
            u: 0,
            arc: 0,
            remaining: self.num_edges(),
        }
    }

    /// The neighbors of `v` in port order: the `p`-th item is the node
    /// reached through port `p`. Widened from the stored `u32` row.
    pub fn neighbors(
        &self,
        v: NodeId,
    ) -> impl ExactSizeIterator<Item = NodeId> + DoubleEndedIterator + Clone + '_ {
        self.targets[self.span(v)].iter().map(|&u| widen(u))
    }

    /// The arrival ports of `v`'s edges in port order, parallel to
    /// [`neighbors`](Self::neighbors): following port `p` out of `v`
    /// arrives at the `p`-th neighbor's port given by the `p`-th item.
    pub fn arrival_ports(
        &self,
        v: NodeId,
    ) -> impl ExactSizeIterator<Item = Port> + DoubleEndedIterator + Clone + '_ {
        self.back_ports[self.span(v)].iter().map(|&q| widen(q))
    }

    /// Node `v`'s stored row: its neighbors and their arrival ports, as
    /// the parallel `u32` slices the graph keeps.
    pub(crate) fn row(&self, v: NodeId) -> (&[u32], &[u32]) {
        let span = self.span(v);
        (&self.targets[span.clone()], &self.back_ports[span])
    }

    /// The range of node `v`'s ports in `targets` and `back_ports`.
    fn span(&self, v: NodeId) -> std::ops::Range<usize> {
        widen(self.offsets[v])..widen(self.offsets[v + 1])
    }

    /// Returns `true` if the graph is connected (the model assumes it; some
    /// intermediate constructions check it explicitly). The empty graph is
    /// considered connected.
    pub fn is_connected(&self) -> bool {
        crate::traverse::is_connected(self)
    }

    /// Checks every structural invariant of the model.
    ///
    /// A valid graph is accepted by one pass that reads a single mate word
    /// per arc. Only when it rejects does a scan in node order run to name
    /// the first violation, so the verdict and the error are that scan's
    /// alone.
    ///
    /// # Errors
    ///
    /// The first violation found: asymmetric port maps, self-loops,
    /// parallel edges, out-of-range references, or duplicate labels.
    pub fn validate(&self) -> Result<(), GraphError> {
        check_size(Some(self.num_nodes()), Some(self.targets.len()))?;
        if !self.arcs_accepted() {
            self.first_arc_violation()?;
        }
        match first_duplicate_label(&self.labels) {
            Some(label) => Err(GraphError::DuplicateLabel { label }),
            None => Ok(()),
        }
    }

    /// `true` iff every arc passes [`first_arc_violation`]'s checks,
    /// without reading the mate's back port.
    ///
    /// Each arc `(v, p)` with target `u` and back port `q` must have
    /// `u < n`, `u ≠ v`, no earlier arc of `v` to `u`, `q < deg(u)`, and
    /// `targets[offsets[u] + q] == v`. The node-order scan also demands
    /// `back_ports[offsets[u] + q] == p`; that check is implied.
    ///
    /// *Lemma.* If every arc passes, every back port is correct. Let arc
    /// `a = (v, p)` have mate `b = (u, q)`, and let `p' = back_ports[b]`.
    /// Arc `b` passes too, so its target is `v` and the entry at `v`'s
    /// port `p'` targets `u`. So `v` reaches `u` through both `p` and `p'`.
    /// The parallel-edge check gives `v`'s row no repeated target, so
    /// `p' = p`. Hence this pass accepts exactly when the node-order scan
    /// finds no arc violation.
    ///
    /// The arithmetic cannot wrap: `from_csr` asserts non-decreasing
    /// offsets, so `uhi - ulo` is `deg(u)`, and `q < deg(u)` keeps
    /// `ulo + q` below `uhi`.
    ///
    /// [`first_arc_violation`]: Self::first_arc_violation
    fn arcs_accepted(&self) -> bool {
        let (offsets, targets) = (&self.offsets[..], &self.targets[..]);
        // `seen_at[u] == v` marks u as already adjacent to v, as in the
        // node-order scan.
        let mut seen_at = vec![u32::MAX; self.num_nodes()];
        for (v, row) in (0u32..).zip(offsets.windows(2)) {
            let span = widen(row[0])..widen(row[1]);
            for (&u, &q) in targets[span.clone()].iter().zip(&self.back_ports[span]) {
                let Some(seen) = seen_at.get_mut(widen(u)) else {
                    return false;
                };
                if u == v || *seen == v {
                    return false;
                }
                *seen = v;
                let (ulo, uhi) = (offsets[widen(u)], offsets[widen(u) + 1]);
                if q >= uhi - ulo || targets[widen(ulo + q)] != v {
                    return false;
                }
            }
        }
        true
    }

    /// The first arc violation in node order, port order within a node:
    /// the diagnosis [`validate`](Self::validate) reports when
    /// [`arcs_accepted`](Self::arcs_accepted) rejects.
    fn first_arc_violation(&self) -> Result<(), GraphError> {
        let n = self.num_nodes();
        // `seen_at[u] == v` marks u as already adjacent to the node v being
        // scanned — an O(m) parallel-edge check with the same first-violation
        // order a per-node set would report. Node ids stay below `u32::MAX`,
        // so it is free as the "unseen" sentinel.
        let mut seen_at = vec![u32::MAX; n];
        for (v, v32) in (0..n).zip(0u32..) {
            let (targets, arrivals) = self.row(v);
            for (p, (&u, &q)) in targets.iter().zip(arrivals).enumerate() {
                let u = widen(u);
                if u >= n {
                    return Err(GraphError::OutOfRange { node: v, port: p });
                }
                if u == v {
                    return Err(GraphError::SelfLoop { node: v });
                }
                if seen_at[u] == v32 {
                    return Err(GraphError::ParallelEdge { u: v, v: u });
                }
                seen_at[u] = v32;
                let q = widen(q);
                if q >= self.degree(u) {
                    return Err(GraphError::OutOfRange { node: v, port: p });
                }
                let j = widen(self.offsets[u]) + q;
                if (widen(self.targets[j]), widen(self.back_ports[j])) != (v, p) {
                    return Err(GraphError::AsymmetricPortMap { node: v, port: p });
                }
            }
        }
        Ok(())
    }

    /// Replaces all labels. Used by experiments that re-label nodes `1..=n`
    /// (the lower bounds assume labels `1,…,n`) or anonymize.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DuplicateLabel`] if labels repeat.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != num_nodes()`.
    pub fn set_labels(&mut self, labels: Vec<u64>) -> Result<(), GraphError> {
        assert_eq!(labels.len(), self.num_nodes(), "one label per node");
        // Only the label invariant can change here; re-check just it so a
        // million-node relabel doesn't re-walk every edge.
        if let Some(label) = first_duplicate_label(&labels) {
            return Err(GraphError::DuplicateLabel { label });
        }
        self.labels = labels;
        Ok(())
    }
}

/// The smallest repeated label, if any. Strictly increasing labels (every
/// closed-form family's `0..n`) are accepted in one scan, without the
/// sorted copy the general check needs.
fn first_duplicate_label(labels: &[u64]) -> Option<u64> {
    if labels.windows(2).all(|w| w[0] < w[1]) {
        return None;
    }
    let mut sorted = labels.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
}

/// [`PortGraph::edges`]: walks the arcs in CSR order and yields those with
/// `u < v`. The graph is simple, so exactly `num_edges` arcs qualify, and
/// the walk stops at the last one.
struct Edges<'a> {
    g: &'a PortGraph,
    /// Node whose row holds `arc`.
    u: NodeId,
    /// Next arc to inspect, an index into `targets`.
    arc: usize,
    /// Edges not yet yielded.
    remaining: usize,
}

impl Iterator for Edges<'_> {
    type Item = EdgeRef;

    fn next(&mut self) -> Option<EdgeRef> {
        while self.remaining > 0 {
            let arc = self.arc;
            self.arc += 1;
            while arc >= widen(self.g.offsets[self.u + 1]) {
                self.u += 1;
            }
            let (u, v) = (self.u, widen(self.g.targets[arc]));
            if u < v {
                self.remaining -= 1;
                return Some(EdgeRef {
                    u,
                    port_u: arc - widen(self.g.offsets[u]),
                    v,
                    port_v: widen(self.g.back_ports[arc]),
                });
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Edges<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PortGraphBuilder;

    fn triangle() -> PortGraph {
        let mut b = PortGraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        b.add_edge(2, 0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn triangle_basic_queries() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
        }
        assert!(g.is_connected());
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn ports_are_symmetric() {
        let g = triangle();
        for v in 0..3 {
            for p in 0..g.degree(v) {
                let (u, q) = g.neighbor_via(v, p);
                assert_eq!(g.neighbor_via(u, q), (v, p));
            }
        }
    }

    #[test]
    fn neighbors_slice_matches_port_order() {
        let g = triangle();
        for v in 0..3 {
            let nbrs: Vec<NodeId> = g.neighbors(v).collect();
            let arrivals: Vec<Port> = g.arrival_ports(v).collect();
            assert_eq!(g.neighbors(v).len(), g.degree(v));
            assert_eq!(g.arrival_ports(v).len(), g.degree(v));
            for p in 0..g.degree(v) {
                assert_eq!(g.neighbor_via(v, p), (nbrs[p], arrivals[p]));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn neighbor_via_panics_past_degree() {
        let g = triangle();
        g.neighbor_via(0, 2);
    }

    #[test]
    fn edge_between_and_weight() {
        let g = triangle();
        let e = g.edge_between(0, 2).unwrap();
        assert_eq!(e.u, 0);
        assert_eq!(e.v, 2);
        assert_eq!(e.weight(), e.port_u.min(e.port_v) as u64);
        assert_eq!(e.other(0), 2);
        assert_eq!(e.port_at(2), e.port_v);
        assert!(g.edge_between(0, 0).is_none());
    }

    #[test]
    fn edges_iterates_each_once_canonical() {
        let g = triangle();
        let edges: Vec<EdgeRef> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for e in &edges {
            assert!(e.u < e.v);
        }
    }

    #[test]
    fn from_csr_round_trips_adjacency() {
        let nested = triangle();
        let mut offsets = vec![0];
        let mut targets = Vec::new();
        let mut back_ports = Vec::new();
        for v in 0..nested.num_nodes() {
            let (row_targets, row_arrivals) = nested.row(v);
            targets.extend_from_slice(row_targets);
            back_ports.extend_from_slice(row_arrivals);
            offsets.push(u32::try_from(targets.len()).unwrap());
        }
        let labels = (0..nested.num_nodes() as u64).collect();
        let rebuilt = PortGraph::from_csr(offsets, targets, back_ports, labels).unwrap();
        assert_eq!(rebuilt, nested);
    }

    #[test]
    fn validate_detects_asymmetry() {
        // 0 -> (1, port 0) but 1 -> (0, port 1): bogus.
        let adj = vec![vec![(1, 0)], vec![(0, 1)]];
        assert!(matches!(
            PortGraph::from_adjacency(adj),
            Err(GraphError::AsymmetricPortMap { .. })
        ));
    }

    #[test]
    fn validate_detects_self_loop() {
        let adj = vec![vec![(0, 0)]];
        assert!(matches!(
            PortGraph::from_adjacency(adj),
            Err(GraphError::SelfLoop { .. })
        ));
    }

    #[test]
    fn validate_detects_parallel_edges() {
        let adj = vec![vec![(1, 0), (1, 1)], vec![(0, 0), (0, 1)]];
        assert!(matches!(
            PortGraph::from_adjacency(adj),
            Err(GraphError::ParallelEdge { .. })
        ));
    }

    #[test]
    fn validate_detects_out_of_range() {
        let adj = vec![vec![(5, 0)]];
        assert!(matches!(
            PortGraph::from_adjacency(adj),
            Err(GraphError::OutOfRange { .. })
        ));
    }

    #[test]
    fn validate_detects_duplicate_labels() {
        let adj = vec![vec![(1, 0)], vec![(0, 0)]];
        assert!(matches!(
            PortGraph::from_adjacency_labeled(adj, vec![7, 7]),
            Err(GraphError::DuplicateLabel { label: 7 })
        ));
    }

    #[test]
    fn set_labels_rolls_back_on_error() {
        let mut g = triangle();
        let before: Vec<u64> = (0..3).map(|v| g.label(v)).collect();
        assert!(g.set_labels(vec![1, 1, 2]).is_err());
        let after: Vec<u64> = (0..3).map(|v| g.label(v)).collect();
        assert_eq!(before, after);
        g.set_labels(vec![10, 20, 30]).unwrap();
        assert_eq!(g.label(2), 30);
        assert_eq!(g.node_by_label(20), Some(1));
        assert_eq!(g.node_by_label(99), None);
    }

    #[test]
    fn error_display_nonempty() {
        let errors = [
            GraphError::AsymmetricPortMap { node: 1, port: 2 },
            GraphError::SelfLoop { node: 0 },
            GraphError::ParallelEdge { u: 0, v: 1 },
            GraphError::DuplicateLabel { label: 3 },
            GraphError::OutOfRange { node: 4, port: 5 },
            GraphError::TooLarge {
                what: "arc count",
                count: Some(1 << 40),
            },
            GraphError::TooLarge {
                what: "node count",
                count: None,
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn single_node_graph() {
        let g = PortGraph::from_adjacency(vec![vec![]]).unwrap();
        assert_eq!(g.num_nodes(), 1);
        assert_eq!(g.num_edges(), 0);
        assert!(g.is_connected());
    }

    #[test]
    fn into_shared_preserves_the_graph() {
        let g = PortGraph::from_adjacency(vec![vec![(1, 0)], vec![(0, 0)]]).unwrap();
        let shared = g.clone().into_shared();
        assert_eq!(*shared, g);
        assert_eq!(std::sync::Arc::strong_count(&shared), 1);
    }
}
