//! Graph traversal utilities: connectivity, BFS distances, components.

use std::collections::VecDeque;

use crate::portgraph::{NodeId, PortGraph};

/// Returns `true` if `g` is connected. Empty and single-node graphs count
/// as connected.
pub fn is_connected(g: &PortGraph) -> bool {
    let n = g.num_nodes();
    if n <= 1 {
        return true;
    }
    bfs_distances(g, 0).iter().all(|d| d.is_some())
}

/// BFS distances from `root`; `None` for unreachable nodes.
///
/// # Panics
///
/// Panics if `root` is out of range.
pub fn bfs_distances(g: &PortGraph, root: NodeId) -> Vec<Option<usize>> {
    assert!(root < g.num_nodes(), "root out of range");
    let mut dist = vec![None; g.num_nodes()];
    dist[root] = Some(0);
    let mut queue = VecDeque::from([root]);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v].expect("queued nodes have distances");
        for u in g.neighbors(v) {
            if dist[u].is_none() {
                dist[u] = Some(dv + 1);
                queue.push_back(u);
            }
        }
    }
    dist
}

/// The eccentricity-from-`root` (maximum BFS distance to any node), or
/// `None` if the graph is disconnected.
pub fn radius_from(g: &PortGraph, root: NodeId) -> Option<usize> {
    bfs_distances(g, root)
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .map(|ds| ds.into_iter().max().unwrap_or(0))
}

/// Assigns each node a component index; indices are dense starting at 0.
pub fn components(g: &PortGraph) -> Vec<usize> {
    let n = g.num_nodes();
    let mut comp = vec![usize::MAX; n];
    let mut next = 0;
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        comp[start] = next;
        let mut queue = VecDeque::from([start]);
        while let Some(v) = queue.pop_front() {
            for u in g.neighbors(v) {
                if comp[u] == usize::MAX {
                    comp[u] = next;
                    queue.push_back(u);
                }
            }
        }
        next += 1;
    }
    comp
}

/// A disjoint-set forest used by the spanning-tree constructions.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
    size: Vec<usize>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
            size: vec![1; n],
        }
    }

    /// Representative of `x`'s set, with path compression. Iterative so a
    /// million-node degenerate chain cannot overflow the stack.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big;
        self.size[big] += self.size[small];
        if self.rank[big] == self.rank[small] {
            self.rank[big] += 1;
        }
        true
    }

    /// Size of the set containing `x`.
    pub fn set_size(&mut self, x: usize) -> usize {
        let r = self.find(x);
        self.size[r]
    }

    /// Number of distinct sets.
    pub fn num_sets(&mut self) -> usize {
        (0..self.parent.len())
            .filter(|&x| self.find(x) == x)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PortGraphBuilder;

    fn path(n: usize) -> PortGraph {
        let mut b = PortGraphBuilder::new(n);
        for v in 1..n {
            b.add_edge(v - 1, v).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path(5);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
        let d = bfs_distances(&g, 2);
        assert_eq!(d, vec![Some(2), Some(1), Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn connectivity_and_components() {
        let g = path(4);
        assert!(is_connected(&g));
        assert_eq!(components(&g), vec![0, 0, 0, 0]);

        let mut b = PortGraphBuilder::new(4);
        b.add_edge(0, 1).unwrap();
        b.add_edge(2, 3).unwrap();
        let g = b.build().unwrap();
        assert!(!is_connected(&g));
        let c = components(&g);
        assert_eq!(c[0], c[1]);
        assert_eq!(c[2], c[3]);
        assert_ne!(c[0], c[2]);
    }

    #[test]
    fn radius_from_endpoints() {
        let g = path(5);
        assert_eq!(radius_from(&g, 0), Some(4));
        assert_eq!(radius_from(&g, 2), Some(2));
    }

    #[test]
    fn radius_none_when_disconnected() {
        let mut b = PortGraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(radius_from(&g, 0), None);
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.num_sets(), 5);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(2, 3));
        assert_eq!(uf.num_sets(), 3);
        assert_eq!(uf.set_size(0), 2);
        assert!(uf.union(0, 3));
        assert_eq!(uf.set_size(2), 4);
        assert_eq!(uf.find(0), uf.find(3));
        assert_ne!(uf.find(0), uf.find(4));
    }

    #[test]
    fn single_node_is_connected() {
        let g = PortGraph::from_adjacency(vec![vec![]]).unwrap();
        assert!(is_connected(&g));
        assert_eq!(radius_from(&g, 0), Some(0));
    }
}
