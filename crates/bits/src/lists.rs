//! The two per-node advice payload formats used by the paper's oracles.
//!
//! * [`encode_port_list`] / [`decode_port_list`] — Theorem 2.1. A node that
//!   is not a leaf of the wakeup spanning tree receives the port numbers of
//!   the edges toward its children, each written with exactly `⌈log n⌉`
//!   bits, prefixed by the self-delimiting *doubled header* carrying
//!   `⌈log n⌉` itself. Total: `c·⌈log n⌉ + O(log log n)` bits for `c`
//!   children; a leaf receives the **empty** string.
//! * [`encode_weight_list`] / [`decode_weight_list`] — Theorem 3.1. A node
//!   receives the multiset of tree-edge weights it is responsible for, each
//!   in the continuation-pair code: exactly `2·Σ #2(w_i)` bits.

use crate::bitstring::BitString;
use crate::codec::{
    decode_doubled_header, doubled_header_len, encode_doubled_header, Codec, ContinuationPairs,
    FixedWidth,
};
use crate::numeric::{bits_to_represent, ceil_log2};

/// Encodes the Theorem 2.1 advice for a node with children reached through
/// `ports`, in a network with at most `n` nodes.
///
/// The empty list encodes to the empty string (a leaf's advice), matching
/// the paper's size accounting exactly.
///
/// # Panics
///
/// Panics if `n == 0`, or if some port is `≥ n` (ports are `< n` in any
/// `n`-node network, so larger values indicate a bug in the caller).
///
/// # Examples
///
/// ```
/// use oraclesize_bits::lists::{encode_port_list, decode_port_list};
///
/// let advice = encode_port_list(&[3, 0, 7], 16);
/// assert_eq!(decode_port_list(&advice), Some(vec![3, 0, 7]));
/// assert!(encode_port_list(&[], 16).is_empty());
/// ```
pub fn encode_port_list(ports: &[u64], n: u64) -> BitString {
    assert!(n > 0, "network must have at least one node");
    if ports.is_empty() {
        return BitString::new();
    }
    if let Some(p) = ports.iter().find(|&&p| p >= n) {
        panic!("port {p} out of range for n={n}");
    }
    let width = ceil_log2(n).max(1);
    let mut out = BitString::new();
    encode_doubled_header(width as u64, &mut out);
    out.push_uint_run(ports, width);
    out
}

/// Decodes advice produced by [`encode_port_list`].
///
/// The whole string is consumed; `None` is returned if the header is
/// malformed or the body length is not a multiple of the declared width.
pub fn decode_port_list(advice: &BitString) -> Option<Vec<u64>> {
    if advice.is_empty() {
        return Some(Vec::new());
    }
    let mut r = advice.reader();
    let width = decode_doubled_header(&mut r)?;
    if width == 0 || width > 64 {
        return None;
    }
    let width = width as u32;
    if !r.remaining().is_multiple_of(width as usize) || r.remaining() == 0 {
        return None;
    }
    let count = r.remaining() / width as usize;
    let fixed = FixedWidth::new(width);
    let mut ports = Vec::with_capacity(count);
    for _ in 0..count {
        ports.push(fixed.decode(&mut r)?);
    }
    Some(ports)
}

/// Bit length of [`encode_port_list`] without materializing it:
/// `0` for no children, else `c·⌈log n⌉ + 2·#2(⌈log n⌉) + 2`.
pub fn port_list_len(num_ports: usize, n: u64) -> usize {
    if num_ports == 0 {
        return 0;
    }
    let width = ceil_log2(n).max(1);
    num_ports * width as usize + doubled_header_len(width as u64)
}

/// Encodes the Theorem 3.1 advice: a list of edge weights, each
/// self-delimited in exactly `2·#2(w)` bits.
///
/// The empty list encodes to the empty string.
///
/// # Examples
///
/// ```
/// use oraclesize_bits::lists::{encode_weight_list, decode_weight_list};
///
/// let advice = encode_weight_list(&[0, 5, 1, 300]);
/// assert_eq!(decode_weight_list(&advice), Some(vec![0, 5, 1, 300]));
/// ```
pub fn encode_weight_list(weights: &[u64]) -> BitString {
    let mut out = BitString::new();
    for &w in weights {
        ContinuationPairs.encode(w, &mut out);
    }
    out
}

/// Decodes advice produced by [`encode_weight_list`], consuming the whole
/// string. Returns `None` on malformed input.
pub fn decode_weight_list(advice: &BitString) -> Option<Vec<u64>> {
    let mut r = advice.reader();
    let mut weights = Vec::new();
    while !r.is_empty() {
        weights.push(ContinuationPairs.decode(&mut r)?);
    }
    Some(weights)
}

/// Bit length of [`encode_weight_list`]: `2·Σ #2(w_i)` — the paper's exact
/// accounting in the proof of Theorem 3.1.
pub fn weight_list_len(weights: &[u64]) -> usize {
    weights
        .iter()
        .map(|&w| 2 * bits_to_represent(w) as usize)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_list_roundtrip_various() {
        let cases: &[(&[u64], u64)] = &[
            (&[], 10),
            (&[0], 2),
            (&[1], 2),
            (&[0, 1, 2, 3], 5),
            (&[9, 9, 9], 10),
            (&[1023], 1024),
            (&[0, 500, 999], 1000),
        ];
        for (ports, n) in cases {
            let enc = encode_port_list(ports, *n);
            assert_eq!(
                decode_port_list(&enc).as_deref(),
                Some(*ports),
                "ports {ports:?} n={n}"
            );
            assert_eq!(enc.len(), port_list_len(ports.len(), *n));
        }
    }

    #[test]
    fn port_list_empty_is_empty_string() {
        assert!(encode_port_list(&[], 1000).is_empty());
        assert_eq!(port_list_len(0, 1000), 0);
    }

    #[test]
    fn port_list_len_is_paper_bound() {
        // c·⌈log n⌉ + O(log log n): check the exact constant form.
        for n in [2u64, 3, 16, 17, 1000, 4096] {
            for c in [1usize, 2, 5, 40] {
                let width = ceil_log2(n).max(1) as usize;
                let header = 2 * bits_to_represent(width as u64) as usize + 2;
                assert_eq!(port_list_len(c, n), c * width + header);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn port_list_rejects_out_of_range_port() {
        encode_port_list(&[5], 5);
    }

    #[test]
    fn decode_port_list_rejects_bad_body_length() {
        // Build header for width 4 then append 6 bits (not a multiple of 4).
        let mut s = BitString::new();
        encode_doubled_header(4, &mut s);
        s.push_uint(0b101010, 6);
        assert_eq!(decode_port_list(&s), None);
    }

    #[test]
    fn decode_port_list_rejects_header_only() {
        let mut s = BitString::new();
        encode_doubled_header(4, &mut s);
        assert_eq!(decode_port_list(&s), None);
    }

    #[test]
    fn weight_list_roundtrip() {
        let cases: &[&[u64]] = &[&[], &[0], &[1], &[0, 0, 0], &[5, 1000, 2, 0], &[u64::MAX]];
        for weights in cases {
            let enc = encode_weight_list(weights);
            assert_eq!(decode_weight_list(&enc).as_deref(), Some(*weights));
            assert_eq!(enc.len(), weight_list_len(weights));
        }
    }

    #[test]
    fn weight_list_len_is_two_sigma_sharp2() {
        let ws = [0u64, 1, 2, 3, 7, 8, 255, 256];
        let expected: usize = ws.iter().map(|&w| 2 * bits_to_represent(w) as usize).sum();
        assert_eq!(weight_list_len(&ws), expected);
        assert_eq!(encode_weight_list(&ws).len(), expected);
    }

    #[test]
    fn weight_list_decode_rejects_truncation() {
        let enc = encode_weight_list(&[5, 9]);
        let truncated: BitString = enc.iter().take(enc.len() - 1).collect();
        assert_eq!(decode_weight_list(&truncated), None);
    }
}
