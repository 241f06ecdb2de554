//! Incremental construction of [`PortGraph`]s.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::csr::{check_size, narrow, widen};
use crate::portgraph::{GraphError, NodeId, Port, PortGraph};

/// Builds a [`PortGraph`] edge by edge.
///
/// Ports are assigned on a first-come basis: the `k`-th edge added at a node
/// gets port `k` there. Use [`shuffle_ports`](PortGraphBuilder::shuffle_ports)
/// to randomize the assignment afterwards (port numberings are adversarial
/// in the model, so experiments sweep over them), or
/// [`add_edge_with_ports`](PortGraphBuilder::add_edge_with_ports) for full
/// control.
///
/// # Examples
///
/// ```
/// use oraclesize_graph::PortGraphBuilder;
///
/// let mut b = PortGraphBuilder::new(4);
/// for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
///     b.add_edge(u, v).unwrap();
/// }
/// let g = b.build().unwrap();
/// assert_eq!(g.num_edges(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct PortGraphBuilder {
    // Incremental construction needs per-node growable port slots with
    // gaps; build() flattens them into the CSR PortGraph.
    // Slots hold `(neighbor, arrival port)` already narrowed to the
    // graph's `u32` layout.
    adj: Vec<Vec<Option<(u32, u32)>>>,
    labels: Option<Vec<u64>>,
}

impl PortGraphBuilder {
    /// A builder for a graph on `n` isolated nodes with default labels
    /// `0..n`.
    pub fn new(n: usize) -> Self {
        PortGraphBuilder {
            adj: vec![Vec::new(); n],
            labels: None,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Current degree of `v` (number of port slots, filled or reserved).
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v].len()
    }

    /// Adds the edge `{u,v}`, assigning the next free port at each endpoint.
    ///
    /// # Errors
    ///
    /// Rejects self-loops and parallel edges.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        let pu = self.adj[u].len();
        let pv = if u == v { pu + 1 } else { self.adj[v].len() };
        self.add_edge_with_ports(u, pu, v, pv)
    }

    /// Adds the edge `{u,v}` at explicit ports, growing the port arrays as
    /// needed. Intermediate gaps must be filled before
    /// [`build`](PortGraphBuilder::build) is called.
    ///
    /// # Errors
    ///
    /// Rejects self-loops, parallel edges, and occupied port slots (reported
    /// as [`GraphError::AsymmetricPortMap`] since the slot cannot be made
    /// consistent), and ids or ports beyond the `u32` layout
    /// ([`GraphError::TooLarge`]).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge_with_ports(
        &mut self,
        u: NodeId,
        pu: Port,
        v: NodeId,
        pv: Port,
    ) -> Result<(), GraphError> {
        assert!(u < self.adj.len(), "node {u} out of range");
        assert!(v < self.adj.len(), "node {v} out of range");
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        let to_v = (narrow("node id", v)?, narrow("port", pv)?);
        let to_u = (narrow("node id", u)?, narrow("port", pu)?);
        if self.adj[u].iter().flatten().any(|&(w, _)| w == to_v.0) {
            return Err(GraphError::ParallelEdge { u, v });
        }
        if self.adj[u].len() <= pu {
            self.adj[u].resize(pu + 1, None);
        }
        if self.adj[v].len() <= pv {
            self.adj[v].resize(pv + 1, None);
        }
        if self.adj[u][pu].is_some() {
            return Err(GraphError::AsymmetricPortMap { node: u, port: pu });
        }
        if self.adj[v][pv].is_some() {
            return Err(GraphError::AsymmetricPortMap { node: v, port: pv });
        }
        self.adj[u][pu] = Some(to_v);
        self.adj[v][pv] = Some(to_u);
        Ok(())
    }

    /// Overrides the default labels `0..n`.
    pub fn labels(&mut self, labels: Vec<u64>) -> &mut Self {
        self.labels = Some(labels);
        self
    }

    /// Randomly permutes the port numbering at every node, preserving the
    /// edge set. Port numberings carry information in this model, so
    /// experiments randomize them to avoid accidentally benign numberings.
    pub fn shuffle_ports<R: Rng>(&mut self, rng: &mut R) -> &mut Self {
        let n = self.adj.len();
        for v in 0..n {
            let deg = self.adj[v].len();
            let mut perm: Vec<Port> = (0..deg).collect();
            perm.shuffle(rng);
            // perm[old_port] = new_port at v.
            let mut new_ports = vec![None; deg];
            for (old, &new) in perm.iter().enumerate() {
                new_ports[new] = self.adj[v][old];
            }
            self.adj[v] = new_ports;
            // Fix the back-references of neighbors.
            let slots: Vec<(u32, u32, u32)> = (0u32..)
                .zip(&self.adj[v])
                .filter_map(|(new_p, slot)| slot.map(|(u, q)| (new_p, u, q)))
                .collect();
            for (new_p, u, q) in slots {
                // Neighbor u's slot q currently points to (v, old); update.
                let slot = &mut self.adj[widen(u)][widen(q)];
                let (w, _) = slot.expect("edge slots are paired");
                debug_assert_eq!(widen(w), v);
                *slot = Some((w, new_p));
            }
        }
        self
    }

    /// Finalizes the graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::TooLarge`] for more than `u32::MAX` nodes or
    /// arcs, [`GraphError::OutOfRange`] if any port slot was left
    /// unfilled (possible after
    /// [`add_edge_with_ports`](PortGraphBuilder::add_edge_with_ports) with
    /// gaps), or any invariant violation found by [`PortGraph::validate`].
    pub fn build(self) -> Result<PortGraph, GraphError> {
        let n = self.adj.len();
        let total: usize = self.adj.iter().map(Vec::len).sum();
        check_size(Some(n), Some(total))?;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(total);
        let mut back_ports = Vec::with_capacity(total);
        offsets.push(0);
        for (v, ports) in self.adj.into_iter().enumerate() {
            for (p, slot) in ports.into_iter().enumerate() {
                match slot {
                    Some((u, q)) => {
                        targets.push(u);
                        back_ports.push(q);
                    }
                    None => return Err(GraphError::OutOfRange { node: v, port: p }),
                }
            }
            offsets.push(narrow("arc count", targets.len())?);
        }
        let labels = self.labels.unwrap_or_else(|| (0..n as u64).collect());
        PortGraph::from_csr(offsets, targets, back_ports, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn auto_ports_are_dense() {
        let mut b = PortGraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(0, 2).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbor_via(0, 0).0, 1);
        assert_eq!(g.neighbor_via(0, 1).0, 2);
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = PortGraphBuilder::new(2);
        assert_eq!(b.add_edge(1, 1), Err(GraphError::SelfLoop { node: 1 }));
    }

    #[test]
    fn rejects_parallel_edge() {
        let mut b = PortGraphBuilder::new(2);
        b.add_edge(0, 1).unwrap();
        assert_eq!(
            b.add_edge(1, 0),
            Err(GraphError::ParallelEdge { u: 1, v: 0 })
        );
    }

    #[test]
    fn explicit_ports_respected() {
        let mut b = PortGraphBuilder::new(4);
        b.add_edge_with_ports(0, 2, 1, 0).unwrap();
        b.add_edge_with_ports(0, 0, 2, 0).unwrap();
        b.add_edge_with_ports(0, 1, 1, 1).unwrap_err(); // parallel with first
        b.add_edge_with_ports(0, 1, 3, 0).unwrap(); // fills the gap at port 1
        b.add_edge_with_ports(1, 1, 2, 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.neighbor_via(0, 2), (1, 0));
        assert_eq!(g.neighbor_via(0, 0), (2, 0));
        assert_eq!(g.neighbor_via(0, 1), (3, 0));
    }

    #[test]
    fn gap_in_ports_fails_build() {
        let mut b = PortGraphBuilder::new(2);
        b.add_edge_with_ports(0, 1, 1, 0).unwrap(); // port 0 at node 0 left empty
        assert!(matches!(
            b.build(),
            Err(GraphError::OutOfRange { node: 0, port: 0 })
        ));
    }

    #[test]
    fn occupied_slot_rejected() {
        let mut b = PortGraphBuilder::new(3);
        b.add_edge_with_ports(0, 0, 1, 0).unwrap();
        assert!(b.add_edge_with_ports(0, 0, 2, 0).is_err());
    }

    #[test]
    fn shuffle_ports_preserves_edge_set_and_validity() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut b = PortGraphBuilder::new(6);
        let edges = [
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 0),
        ];
        for (u, v) in edges {
            b.add_edge(u, v).unwrap();
        }
        b.shuffle_ports(&mut rng);
        let g = b.build().unwrap();
        g.validate().unwrap();
        for (u, v) in edges {
            assert!(g.has_edge(u, v), "lost edge {{{u},{v}}}");
        }
        assert_eq!(g.num_edges(), edges.len());
    }

    #[test]
    fn custom_labels_applied() {
        let mut b = PortGraphBuilder::new(2);
        b.add_edge(0, 1).unwrap();
        b.labels(vec![100, 200]);
        let g = b.build().unwrap();
        assert_eq!(g.label(0), 100);
        assert_eq!(g.label(1), 200);
    }
}
