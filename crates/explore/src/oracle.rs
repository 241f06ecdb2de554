//! The tour oracle: departure-port sequences tracing an Euler tour of a
//! spanning tree.
//!
//! For a DFS spanning tree rooted at the start node, the oracle gives each
//! node the sequence of ports it should leave through on its 1st, 2nd, …
//! visits: all child ports in order, then (at non-root nodes) the parent
//! port; the root's sequence simply ends, telling the agent to halt. The
//! resulting walk is the Euler tour of the tree — exactly `2(n − 1)` moves
//! — and the advice totals `O(n log Δ)` bits (each tree edge contributes
//! two γ-coded port numbers).

use oraclesize_bits::codec::{Codec, EliasGamma};
use oraclesize_bits::BitString;
use oraclesize_graph::spanning::dfs_tree;
use oraclesize_graph::{NodeId, Port, PortGraph};

/// Encodes a departure sequence as consecutive γ-coded ports (count
/// implicit: read to end).
pub fn encode_departures(ports: &[Port]) -> BitString {
    let mut out = BitString::new();
    for &p in ports {
        EliasGamma.encode(p as u64, &mut out);
    }
    out
}

/// Decodes a departure sequence. Returns `None` on malformed input.
pub fn decode_departures(s: &BitString) -> Option<Vec<Port>> {
    let mut r = s.reader();
    let mut ports = Vec::new();
    while !r.is_empty() {
        ports.push(EliasGamma.decode(&mut r)? as Port);
    }
    Some(ports)
}

/// Builds the per-node tour advice for an Euler tour of the DFS spanning
/// tree rooted at `start`.
pub fn tour_advice(g: &PortGraph, start: NodeId) -> Vec<BitString> {
    let tree = dfs_tree(g, start);
    (0..g.num_nodes())
        .map(|v| {
            let mut seq: Vec<Port> = tree.children(v).map(|(_, p)| p).collect();
            if let Some((_, _, port_at_child)) = tree.parent(v) {
                seq.push(port_at_child);
            }
            encode_departures(&seq)
        })
        .collect()
}

/// Total advice size in bits of [`tour_advice`] — the exploration
/// analogue of the paper's oracle-size measure.
pub fn tour_advice_bits(g: &PortGraph, start: NodeId) -> u64 {
    tour_advice(g, start).iter().map(|s| s.len() as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oraclesize_graph::families;

    #[test]
    fn departures_roundtrip() {
        for seq in [vec![], vec![0], vec![3, 0, 7, 1]] {
            let enc = encode_departures(&seq);
            assert_eq!(decode_departures(&enc), Some(seq));
        }
    }

    #[test]
    fn tour_advice_sequences_have_tree_shape() {
        let g = families::hypercube(3);
        let advice = tour_advice(&g, 0);
        // Total departures = 2(n−1): each tree edge appears once as a
        // child departure and once as a parent departure.
        let total: usize = advice
            .iter()
            .map(|a| decode_departures(a).unwrap().len())
            .sum();
        assert_eq!(total, 2 * 7);
        // The start node has no parent entry: its sequence equals its
        // child count; every other node has ≥ 1 entry.
        for (v, a) in advice.iter().enumerate() {
            let seq = decode_departures(a).unwrap();
            if v != 0 {
                assert!(!seq.is_empty(), "non-root {v} lacks a parent departure");
            }
        }
    }

    #[test]
    fn advice_bits_scale_with_n_log_delta() {
        // On bounded-degree families the advice is O(n).
        let g = families::grid(16, 16);
        let bits = tour_advice_bits(&g, 0);
        assert!(bits <= 16 * 256, "{bits} bits on a 256-node grid");
    }
}
