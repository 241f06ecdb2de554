//! Baselines the paper's bounds are measured against.
//!
//! * **No knowledge**: [`FloodOnce`](oraclesize_sim::protocol::FloodOnce)
//!   with the [`EmptyOracle`](crate::oracle::EmptyOracle) — broadcast in
//!   `Θ(m)` messages, the cost the `O(n)`-bit oracle removes.
//! * **Total knowledge**: [`FullMapOracle`] + [`MapWakeup`] — every node
//!   receives the entire port-labeled map (`Θ(n·m·log n)` bits in total)
//!   and recomputes the same BFS tree locally; wakeup then takes `n − 1`
//!   messages. This brackets Theorem 2.1 from the other side: the paper's
//!   point is that `Θ(n log n)` bits — exponentially less than the full
//!   map — already suffice. Only the leading `γ(own index)` differs from
//!   node to node, so [`FullMapOracle`] encodes the map once per graph and
//!   copies it behind each node's index; every node still receives, and is
//!   charged for, the whole map.

use oraclesize_bits::codec::{Codec, EliasGamma, FixedWidth};
use oraclesize_bits::{ceil_log2, BitReader, BitString};
use oraclesize_graph::{NodeId, Port, PortGraph};
use oraclesize_sim::protocol::{ForwardOnce, NodeBehavior, NodeView, Protocol};

use crate::oracle::{Advice, Oracle};

/// A validated full map, read in place: the source, the receiving node's
/// own index, and where each node's row lies in the advice string. Row `v`
/// is `degree(v)` fixed-width `(neighbor, arrival_port)` pairs, read from
/// the string on demand; its entry `p` is the pair behind `v`'s port `p`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FullMap<'a> {
    /// Index of the node holding this advice.
    pub own_index: usize,
    /// Index of the source node.
    pub source: usize,
    /// The advice string the map was decoded from.
    advice: &'a BitString,
    /// Per node, in node order: the bit offset of its row's first pair
    /// and its degree.
    rows: Vec<(usize, usize)>,
    /// Width of a pair's neighbor field (its low part).
    node_w: u32,
    /// Width of a pair's arrival-port field (its high part).
    port_w: u32,
}

impl FullMap<'_> {
    /// Number of nodes in the map.
    pub fn num_nodes(&self) -> usize {
        self.rows.len()
    }

    /// Node `v`'s row: `(neighbor, arrival_port)` per port, in port order.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.num_nodes()`.
    pub fn row(&self, v: NodeId) -> Vec<(usize, usize)> {
        let mut row = Vec::with_capacity(self.rows[v].1);
        self.read_row(v, |u, q| {
            row.push((u as usize, q as usize));
            true
        });
        row
    }

    /// Passes row `v`'s pairs to `f` in port order, until `f` returns
    /// `false`. Decoding checked that the row lies within the string and
    /// that every neighbor is below `n`.
    fn read_row(&self, v: NodeId, f: impl FnMut(u64, u64) -> bool) {
        let (start, degree) = self.rows[v];
        let mut r = self.advice.reader();
        r.skip(start).expect("decoding checked the row");
        read_pairs(&mut r, degree, self.node_w, self.port_w, f).expect("decoding checked the row");
    }

    /// `v`'s child ports in the map's BFS tree from the source, which
    /// explores each row in port order. Every node computes the same tree,
    /// so the wakeup needs no coordination. The search stops once it has
    /// expanded `v`'s row, since `v`'s children are fixed then, or once it
    /// has found all `n` nodes before that, since `v`'s row then finds
    /// none; a node it never reaches has no children either.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.num_nodes()`.
    pub fn bfs_child_ports(&self, v: NodeId) -> Vec<Port> {
        let n = self.num_nodes();
        assert!(v < n, "node {v} out of range");
        let mut visited = vec![false; n];
        visited[self.source] = true;
        // Decoding checked that the node count fits a `u32`.
        let mut queue: Vec<u32> = Vec::with_capacity(n);
        queue.push(self.source as u32);
        let mut head = 0;
        let mut children = Vec::new();
        while queue.len() < n {
            let Some(&w) = queue.get(head) else {
                break;
            };
            head += 1;
            let own = w as usize == v;
            let mut p = 0;
            self.read_row(w as usize, |u, _| {
                if !visited[u as usize] {
                    visited[u as usize] = true;
                    queue.push(u as u32);
                    if own {
                        children.push(p);
                    }
                }
                p += 1;
                queue.len() < n
            });
            if own {
                break;
            }
        }
        children
    }
}

/// Encodes the whole network plus `own`/`source` indices:
/// `γ(own)` followed by the part every node shares.
pub fn encode_full_map(g: &PortGraph, source: NodeId, own: NodeId) -> BitString {
    with_own_index(own, &encode_full_map_tail(g, source))
}

/// The node-independent part of a full-map string: `γ(source)`, `γ(n)`,
/// `γ(max_deg)`, then each node's `γ(degree)` and fixed-width
/// `(neighbor, arrival port)` pairs.
fn encode_full_map_tail(g: &PortGraph, source: NodeId) -> BitString {
    let n = g.num_nodes() as u64;
    let max_deg = (0..g.num_nodes()).map(|v| g.degree(v)).max().unwrap_or(0) as u64;
    let node_w = ceil_log2(n.max(2)).max(1);
    let port_w = ceil_log2(max_deg.max(2)).max(1);
    let mut out = BitString::new();
    EliasGamma.encode(source as u64, &mut out);
    EliasGamma.encode(n, &mut out);
    EliasGamma.encode(max_deg, &mut out);
    let node_codec = FixedWidth::new(node_w);
    let port_codec = FixedWidth::new(port_w);
    for v in 0..g.num_nodes() {
        EliasGamma.encode(g.degree(v) as u64, &mut out);
        for p in 0..g.degree(v) {
            let (u, q) = g.neighbor_via(v, p);
            node_codec.encode(u as u64, &mut out);
            port_codec.encode(q as u64, &mut out);
        }
    }
    out
}

/// `γ(own)` followed by `tail`: one node's whole full-map string.
fn with_own_index(own: NodeId, tail: &BitString) -> BitString {
    let mut out = BitString::with_capacity(EliasGamma.encoded_len(own as u64) + tail.len());
    EliasGamma.encode(own as u64, &mut out);
    out.extend_from(tail);
    out
}

/// Validates a map produced by [`encode_full_map`] in one pass, recording
/// where each row lies; [`FullMap`] reads the rows from `advice` later.
/// Returns `None` on malformed input: an empty map, a node count above the
/// bits that follow or above `u32::MAX` (no `PortGraph` is larger), a
/// degree above `max_deg`, a neighbor or the own or source index `≥ n`, a
/// truncated row, or bits left over.
pub fn decode_full_map(advice: &BitString) -> Option<FullMap<'_>> {
    let mut r = advice.reader();
    let own = EliasGamma.decode(&mut r)? as usize;
    let source = EliasGamma.decode(&mut r)? as usize;
    let n = EliasGamma.decode(&mut r)?;
    let max_deg = EliasGamma.decode(&mut r)?;
    // Every node's degree code takes at least one bit, so a header claiming
    // more nodes than bits remain is malformed (and cannot force a large
    // allocation below).
    if n == 0 || n > r.remaining() as u64 || n > u64::from(u32::MAX) {
        return None;
    }
    let node_w = ceil_log2(n.max(2)).max(1);
    let port_w = ceil_log2(max_deg.max(2)).max(1);
    // With `n = 2^node_w` every `node_w`-bit field is below `n`, so a row
    // needs no reading: skipping it checks that it is all there.
    let fields_in_range = 1u64.checked_shl(node_w) == Some(n);
    let mut rows = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let degree = EliasGamma.decode(&mut r)?;
        if degree > max_deg {
            return None;
        }
        let degree = usize::try_from(degree).ok()?;
        let start = r.position();
        if fields_in_range {
            r.skip(degree.checked_mul((node_w + port_w) as usize)?)?;
        } else if !read_pairs(&mut r, degree, node_w, port_w, |u, _| u < n)? {
            return None;
        }
        rows.push((start, degree));
    }
    if own >= n as usize || source >= n as usize || !r.is_empty() {
        return None;
    }
    Some(FullMap {
        own_index: own,
        source,
        advice,
        rows,
        node_w,
        port_w,
    })
}

/// Reads `degree` pairs of a `node_w`-bit neighbor and a `port_w`-bit
/// arrival port from `r`, passing each to `f` until `f` returns `false`.
/// Returns whether all were read, or `None` if the string ends first.
fn read_pairs(
    r: &mut BitReader<'_>,
    degree: usize,
    node_w: u32,
    port_w: u32,
    mut f: impl FnMut(u64, u64) -> bool,
) -> Option<bool> {
    let pair_w = node_w + port_w;
    let node_mask = u64::MAX >> (64 - node_w);
    for _ in 0..degree {
        // One read per pair, the port code its high part, unless the pair
        // is wider than a read.
        let (u, q) = if pair_w <= 64 {
            let pair = r.read_uint(pair_w)?;
            (pair & node_mask, pair >> node_w)
        } else {
            (r.read_uint(node_w)?, r.read_uint(port_w)?)
        };
        if !f(u, q) {
            return Some(false);
        }
    }
    Some(true)
}

/// The total-knowledge oracle: every node receives the full port-labeled
/// map plus its own index and the source index.
#[derive(Debug, Clone, Copy, Default)]
pub struct FullMapOracle;

impl Oracle for FullMapOracle {
    fn advise(&self, g: &PortGraph, source: NodeId) -> Advice {
        let tail = encode_full_map_tail(g, source);
        (0..g.num_nodes())
            .map(|v| with_own_index(v, &tail))
            .collect()
    }

    fn name(&self) -> &'static str {
        "full-map"
    }
}

/// Wakeup from the full map: identical message pattern to
/// [`TreeWakeup`](crate::wakeup::TreeWakeup) (`n − 1` messages), paid for
/// with a far larger oracle.
#[derive(Debug, Clone, Copy, Default)]
pub struct MapWakeup;

/// The child ports the full map's BFS tree gives the node holding the
/// advice, dropping any port `≥ degree`; undecodable advice leaves the
/// node a silent leaf, as in [`TreeWakeup`](crate::wakeup::TreeWakeup).
fn map_child_ports(advice: &BitString, degree: usize) -> Option<Vec<Port>> {
    let mut ports = decode_full_map(advice)
        .map(|map| map.bfs_child_ports(map.own_index))
        .unwrap_or_default();
    ports.retain(|&p| p < degree);
    Some(ports)
}

/// The scheme's rule: forward once, on the map's BFS child ports.
const RULE: ForwardOnce = ForwardOnce(map_child_ports);

impl Protocol for MapWakeup {
    fn create(&self, view: NodeView) -> Box<dyn NodeBehavior> {
        RULE.node(&view)
    }

    fn name(&self) -> &'static str {
        "map-wakeup"
    }

    // No `forward_once` override, on purpose: the scheme stays on the
    // per-message path. A per-message run packs the full-map advice into a
    // multi-MiB `BitArena` and frees it, which raises glibc malloc's
    // dynamic mmap threshold and keeps the next set-up's heap warm. With
    // an earlier decoder that stored every arc in flat rows (this one
    // validates in place and reads rows on demand; the comparison has not
    // been repeated with it), on `perf --workload separation --seed 2006
    // --trace 0` (4 alternating 8-second runs per variant, 2 vCPUs):
    // deleting the arena, each node cloning its string from `Advice`,
    // raised `setup_s` from a median 0.00356 to 0.00513 s (+44 %, worse in
    // 4 of 4, past the benchmark's 25 % bound), while `cells_per_s` went
    // 528 → 647 and `sweep_s` 0.0112 → 0.0114 s. Giving this scheme the
    // kernel on top read `setup_s` 0.00539 s and the same 647 cells/s:
    // once the arena is gone the kernel adds no execution gain. (With the
    // earlier nested-vector decoder the kernel alone cost 18 % of set-up.)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::advice_size;
    use crate::runner::execute;
    use oraclesize_graph::families::{self, Family};
    use oraclesize_sim::protocol::Message;
    use oraclesize_sim::SimConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn map_roundtrip() {
        let mut rng = StdRng::seed_from_u64(31);
        let g = families::random_connected(12, 0.3, &mut rng);
        for v in 0..12 {
            let enc = encode_full_map(&g, 3, v);
            let map = decode_full_map(&enc).unwrap();
            assert_eq!(map.own_index, v);
            assert_eq!(map.source, 3);
            assert_eq!(map.num_nodes(), 12);
            for u in 0..12 {
                assert_eq!(map.row(u).len(), g.degree(u));
                for p in 0..g.degree(u) {
                    assert_eq!(map.row(u)[p], g.neighbor_via(u, p));
                }
            }
        }
    }

    #[test]
    fn map_decode_rejects_truncation() {
        let g = families::cycle(6);
        let enc = encode_full_map(&g, 0, 1);
        let cut: BitString = enc.iter().take(enc.len() - 3).collect();
        assert!(decode_full_map(&cut).is_none());
    }

    /// One graph of every family at n = 17, and a randomly subdivided `K_9`.
    fn every_family_and_a_subdivided_clique(seed: u64) -> Vec<PortGraph> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut graphs: Vec<PortGraph> = Family::ALL
            .iter()
            .map(|fam| fam.build(17, &mut rng))
            .collect();
        graphs.push(oraclesize_graph::gadgets::random_subdivided_complete(9, 12, &mut rng).0);
        graphs
    }

    #[test]
    fn oracle_advice_is_the_single_node_encoding() {
        for g in &every_family_and_a_subdivided_clique(34) {
            let source = g.num_nodes() / 2;
            assert_ne!(source, 0);
            let advice = FullMapOracle.advise(g, source);
            assert_eq!(advice.len(), g.num_nodes());
            for (v, a) in advice.iter().enumerate() {
                assert_eq!(*a, encode_full_map(g, source, v), "node {v}");
            }
        }
    }

    #[test]
    fn map_decode_rejects_a_node_count_the_body_cannot_hold() {
        let mut forged = BitString::new();
        for header in [0, 0, 1 << 40, 1] {
            EliasGamma.encode(header, &mut forged);
        }
        forged.push_uint(0, 32);
        assert!(decode_full_map(&forged).is_none());
    }

    #[test]
    fn map_decode_rejects_a_degree_the_body_cannot_hold() {
        // A degree code is short however large the degree, so a forged
        // degree must not size anything before its arcs are read.
        let mut forged = BitString::new();
        for header in [0, 0, 1, 1 << 40, 1 << 40] {
            EliasGamma.encode(header, &mut forged);
        }
        forged.push_uint(0, 32);
        assert!(decode_full_map(&forged).is_none());
    }

    /// A two-node map whose port code is `port_w` bits wide: node 0's one
    /// port leads to node 1 at arrival port `q0`, node 1's back to 0.
    fn forged_wide_map(max_deg: u64, port_w: u32, q0: u64) -> BitString {
        let mut forged = BitString::new();
        for header in [1, 0, 2, max_deg] {
            EliasGamma.encode(header, &mut forged);
        }
        for (u, q) in [(1, q0), (0, 0)] {
            EliasGamma.encode(1, &mut forged);
            forged.push_uint(u, 1);
            forged.push_uint(q, port_w);
        }
        forged
    }

    #[test]
    fn map_decode_reads_pairs_wider_than_a_word() {
        // One-bit node codes: a 63-bit port code makes a 64-bit pair, read
        // at once; a 64-bit port code makes a 65-bit pair, read in two.
        for (max_deg, port_w) in [((1u64 << 62) + 1, 63), ((1 << 63) + 1, 64)] {
            let q = max_deg - 1;
            let whole = forged_wide_map(max_deg, port_w, q);
            let map = decode_full_map(&whole).unwrap();
            assert_eq!((map.own_index, map.source), (1, 0));
            assert_eq!(map.row(0), [(1, q as usize)], "port width {port_w}");
            assert_eq!(map.row(1), [(0, 0)], "port width {port_w}");
            assert_eq!(map.bfs_child_ports(0), [0]);
            assert!(map.bfs_child_ports(1).is_empty());

            let cut: BitString = whole.iter().take(whole.len() - 1).collect();
            assert!(decode_full_map(&cut).is_none(), "port width {port_w}");
            let mut extra = whole;
            extra.push(false);
            assert!(decode_full_map(&extra).is_none(), "port width {port_w}");
        }
    }

    /// The reference model: a decoder that stores every arc in flat rows,
    /// and a breadth-first search that expands every row it reaches.
    mod materialized {
        use super::*;

        pub struct Map {
            pub own_index: usize,
            pub source: usize,
            /// `n + 1` row starts into `arcs`.
            offsets: Vec<usize>,
            arcs: Vec<(usize, usize)>,
        }

        impl Map {
            pub fn num_nodes(&self) -> usize {
                self.offsets.len() - 1
            }

            pub fn row(&self, v: NodeId) -> &[(usize, usize)] {
                &self.arcs[self.offsets[v]..self.offsets[v + 1]]
            }

            /// Every node's child ports in the BFS tree from the source.
            pub fn bfs_children(&self) -> Vec<Vec<Port>> {
                let mut visited = vec![false; self.num_nodes()];
                let mut children = vec![Vec::new(); self.num_nodes()];
                visited[self.source] = true;
                let mut queue = std::collections::VecDeque::from([self.source]);
                while let Some(w) = queue.pop_front() {
                    for (p, &(u, _)) in self.row(w).iter().enumerate() {
                        if !visited[u] {
                            visited[u] = true;
                            queue.push_back(u);
                            children[w].push(p);
                        }
                    }
                }
                children
            }
        }

        /// Decodes the map and stores every arc, rejecting what
        /// [`decode_full_map`] rejects.
        pub fn decode(advice: &BitString) -> Option<Map> {
            let mut r = advice.reader();
            let own = EliasGamma.decode(&mut r)? as usize;
            let source = EliasGamma.decode(&mut r)? as usize;
            let n = EliasGamma.decode(&mut r)?;
            let max_deg = EliasGamma.decode(&mut r)?;
            if n == 0 || n > r.remaining() as u64 || n > u64::from(u32::MAX) {
                return None;
            }
            let node_w = ceil_log2(n.max(2)).max(1);
            let port_w = ceil_log2(max_deg.max(2)).max(1);
            let mut offsets = vec![0];
            let mut arcs = Vec::new();
            for _ in 0..n {
                let deg = EliasGamma.decode(&mut r)?;
                if deg > max_deg {
                    return None;
                }
                for _ in 0..deg {
                    let u = r.read_uint(node_w)?;
                    let q = r.read_uint(port_w)?;
                    if u >= n {
                        return None;
                    }
                    arcs.push((u as usize, q as usize));
                }
                offsets.push(arcs.len());
            }
            if own >= n as usize || source >= n as usize || !r.is_empty() {
                return None;
            }
            Some(Map {
                own_index: own,
                source,
                offsets,
                arcs,
            })
        }
    }

    /// Decodes `advice` with both decoders and checks that they agree: the
    /// same verdict, indices and rows, and every node's BFS children those
    /// of the reference's whole search. Returns whether they accepted.
    fn decoders_agree(advice: &BitString, what: &str) -> bool {
        let (fast, slow) = match (decode_full_map(advice), materialized::decode(advice)) {
            (None, None) => return false,
            (Some(fast), Some(slow)) => (fast, slow),
            (fast, _) => panic!(
                "{what}: the decoders disagree (in place accepts: {})",
                fast.is_some()
            ),
        };
        assert_eq!((fast.own_index, fast.source), (slow.own_index, slow.source));
        assert_eq!(fast.num_nodes(), slow.num_nodes(), "{what}");
        for (v, children) in slow.bfs_children().iter().enumerate() {
            assert_eq!(fast.row(v), slow.row(v), "{what}: row {v}");
            assert_eq!(&fast.bfs_child_ports(v), children, "{what}: node {v}");
        }
        true
    }

    /// A full-map string with `header` (own, source, `n`, `max_deg`) over
    /// the body of `tail`, whose own header holds `old` (source, `n`,
    /// `max_deg`).
    fn reheaded(tail: &BitString, old: [u64; 3], header: [u64; 4]) -> BitString {
        let cut: usize = old.iter().map(|&x| EliasGamma.encoded_len(x)).sum();
        let mut s = BitString::new();
        for x in header {
            EliasGamma.encode(x, &mut s);
        }
        s.extend_from(&tail.iter().skip(cut).collect());
        s
    }

    #[test]
    fn in_place_decoder_agrees_with_the_materializing_one() {
        let mut rng = StdRng::seed_from_u64(36);
        let mut graphs: Vec<PortGraph> = [8, 16, 11, 13, 20]
            .iter()
            .map(|&n| families::random_connected(n, 0.3, &mut rng))
            .collect();
        graphs.push(families::complete_rotational(8));
        graphs.push(families::cycle(7));
        let (mut accepted, mut rejected) = (0, 0);
        let mut tally = |ok| {
            if ok {
                accepted += 1;
            } else {
                rejected += 1;
            }
        };
        for g in &graphs {
            let n = g.num_nodes();
            let (own, source) = (n - 1, n / 2);
            let enc = encode_full_map(g, source, own);
            assert!(decoders_agree(&enc, "valid map"));
            for i in 0..enc.len() {
                let mut flipped = enc.clone();
                flipped.toggle(i);
                tally(decoders_agree(&flipped, &format!("n {n}, bit {i} flipped")));
                let cut: BitString = enc.iter().take(i).collect();
                tally(decoders_agree(&cut, &format!("n {n}, cut to {i} bits")));
            }
            for extra in 1..=9 {
                let mut longer = enc.clone();
                for _ in 0..extra {
                    longer.push(extra % 2 == 0);
                }
                tally(decoders_agree(
                    &longer,
                    &format!("n {n}, {extra} bits appended"),
                ));
            }
            let max_deg = (0..n).map(|v| g.degree(v)).max().unwrap() as u64;
            let n = n as u64;
            let tail = encode_full_map_tail(g, source);
            let header = [own as u64, source as u64, n, max_deg];
            for (field, values) in [
                (0, vec![0, n - 1, n, n + 5]),
                (1, vec![0, n, 2 * n]),
                (2, vec![1, n - 1, n + 1, 2 * n, n.next_power_of_two()]),
                (3, vec![0, max_deg - 1, max_deg + 1, 2 * max_deg, 1 << 40]),
            ] {
                for value in values {
                    let mut forged = header;
                    forged[field] = value;
                    let s = reheaded(&tail, [header[1], header[2], header[3]], forged);
                    tally(decoders_agree(&s, &format!("n {n}, header {forged:?}")));
                }
            }
        }
        // Both verdicts occur, so both sides of every comparison ran.
        assert!(accepted > 100 && rejected > 1000, "{accepted} / {rejected}");
    }

    #[test]
    fn in_place_decoder_reads_every_neighbor_of_a_non_power_of_two_map() {
        // The last row's last pair gets neighbor n: only a read of that
        // very field can reject it.
        let mut rng = StdRng::seed_from_u64(37);
        let g = families::random_connected(12, 0.3, &mut rng);
        let mut forged = encode_full_map(&g, 0, 5);
        assert!(decoders_agree(&forged, "the valid map"));
        let max_deg = (0..12).map(|v| g.degree(v)).max().unwrap() as u64;
        let (node_w, port_w) = (4, ceil_log2(max_deg.max(2)));
        let field = forged.len() - (node_w + port_w) as usize;
        let (u, _) = g.neighbor_via(11, g.degree(11) - 1);
        for bit in 0..node_w as usize {
            if (u >> bit) & 1 != (12 >> bit) & 1 {
                forged.toggle(field + bit);
            }
        }
        assert!(!decoders_agree(&forged, "neighbor n in the last row"));
    }

    #[test]
    fn a_node_the_search_never_reaches_has_no_children() {
        // Node 2 is isolated: nodes 0 and 1 share an edge, the source is 0,
        // and the advice is node 2's.
        let mut forged = BitString::new();
        for header in [2, 0, 3, 1] {
            EliasGamma.encode(header, &mut forged);
        }
        for row in [&[1u64][..], &[0], &[]] {
            EliasGamma.encode(row.len() as u64, &mut forged);
            for &u in row {
                forged.push_uint(u, 2);
                forged.push_uint(0, 1);
            }
        }
        assert!(decoders_agree(&forged, "an unreached node"));
        let map = decode_full_map(&forged).unwrap();
        assert_eq!(map.bfs_child_ports(0), [0]);
        assert!(map.bfs_child_ports(1).is_empty());
        assert!(map.bfs_child_ports(map.own_index).is_empty());
    }

    #[test]
    fn map_roundtrips_past_a_million_nodes() {
        let n = 1_000_405;
        let g = families::cycle(n);
        let advice = encode_full_map(&g, 7, n - 1);
        let map = decode_full_map(&advice).unwrap();
        assert_eq!((map.own_index, map.source), (n - 1, 7));
        assert_eq!(map.num_nodes(), n);
        for v in [0, 1, n / 2, n - 1] {
            let expected: Vec<_> = (0..2).map(|p| g.neighbor_via(v, p)).collect();
            assert_eq!(map.row(v), expected, "node {v}");
        }
    }

    #[test]
    fn map_wakeup_uses_n_minus_1_messages() {
        let mut rng = StdRng::seed_from_u64(32);
        for fam in Family::ALL {
            let g = fam.build(20, &mut rng);
            let run = execute(&g, 0, &FullMapOracle, &MapWakeup, &SimConfig::wakeup()).unwrap();
            assert!(run.outcome.all_informed(), "{}", fam.name());
            assert_eq!(run.outcome.metrics.messages, g.num_nodes() as u64 - 1);
        }
    }

    #[test]
    fn map_wakeup_ports_follow_the_graphs_bfs_tree() {
        // Both the map's BFS and `bfs_tree` explore in port order from a
        // FIFO queue, so every node's sends are its tree children's ports.
        for g in &every_family_and_a_subdivided_clique(35) {
            for source in [0, g.num_nodes() / 2] {
                let tree = oraclesize_graph::spanning::bfs_tree(g, source);
                for v in 0..g.num_nodes() {
                    let mut node = MapWakeup.create(NodeView {
                        advice: encode_full_map(g, source, v),
                        is_source: v == source,
                        id: None,
                        degree: g.degree(v),
                    });
                    let sends = match tree.parent(v) {
                        None => node.on_start(),
                        Some((_, _, arrival)) => node.on_receive(
                            arrival,
                            Message {
                                carries_source: true,
                                ..Message::empty()
                            },
                        ),
                    };
                    let ports: Vec<Port> = sends.iter().map(|s| s.port).collect();
                    let children: Vec<Port> = tree.children(v).map(|(_, p)| p).collect();
                    assert_eq!(ports, children, "node {v}, source {source}");
                }
            }
        }
    }

    #[test]
    fn map_wakeup_drops_ports_beyond_the_degree() {
        // The source of K_5 has four BFS children; a view that claims
        // degree 2 keeps the two ports it has, and an undecodable map
        // leaves the node a silent leaf.
        let g = families::complete_rotational(5);
        let view = |advice, degree| NodeView {
            advice,
            is_source: true,
            id: None,
            degree,
        };
        let ports = |mut node: Box<dyn NodeBehavior>| -> Vec<Port> {
            node.on_start().iter().map(|s| s.port).collect()
        };
        let advice = encode_full_map(&g, 0, 0);
        assert_eq!(
            ports(MapWakeup.create(view(advice.clone(), 4))),
            [0, 1, 2, 3]
        );
        assert_eq!(ports(MapWakeup.create(view(advice, 2))), [0, 1]);
        assert!(ports(MapWakeup.create(view(BitString::from_bits([true]), 4))).is_empty());
    }

    #[test]
    fn full_map_is_vastly_larger_than_tree_oracle() {
        let g = families::complete_rotational(24);
        let full = advice_size(&FullMapOracle.advise(&g, 0));
        let tree = advice_size(&crate::wakeup::SpanningTreeOracle::default().advise(&g, 0));
        assert!(full > 20 * tree, "full map {full} not ≫ tree oracle {tree}");
    }

    #[test]
    fn bfs_child_ports_cover_every_non_source_once() {
        let mut rng = StdRng::seed_from_u64(33);
        let g = families::random_connected(15, 0.3, &mut rng);
        let advice = encode_full_map(&g, 4, 0);
        let map = decode_full_map(&advice).unwrap();
        let mut covered = [false; 15];
        covered[4] = true;
        for v in 0..15 {
            for p in map.bfs_child_ports(v) {
                let (u, _) = g.neighbor_via(v, p);
                assert!(!covered[u], "node {u} covered twice");
                covered[u] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }
}
