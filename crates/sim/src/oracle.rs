//! The oracle abstraction, the advice table it returns, and size
//! accounting.
//!
//! The trait lives here — next to the engine that consumes advice — so a
//! problem [`Instance`](crate::Instance) can be built without reaching
//! into the scheme crates. Concrete oracles (the paper's constructions)
//! live in `oraclesize_core`.

use std::ops::Index;

use oraclesize_bits::BitString;
use oraclesize_graph::{NodeId, PortGraph};

/// An oracle `O`: looks at the entire labeled network (and the source) and
/// assigns an advice string to every node.
///
/// The paper's oracles depend only on the network, but the source is part
/// of the labeled instance (the status bit marks it), so we pass it
/// explicitly: the constructive oracles root their spanning trees there.
///
/// The returned table is indexed by node id and must have exactly
/// `g.num_nodes()` entries.
pub trait Oracle {
    /// Computes the advice assignment `f = O(G)`.
    fn advise(&self, g: &PortGraph, source: NodeId) -> Advice;

    /// Short name used in experiment tables.
    fn name(&self) -> &'static str {
        "unnamed"
    }
}

/// Per-node advice strings as a slot table: one `u32` slot per node into a
/// table of the non-empty strings.
///
/// Most of the paper's oracles leave most nodes empty — Theorem 2.1's
/// oracle advises only the inner nodes of its tree, and the empty oracle
/// advises nobody. Every empty node points at slot 0, the one empty
/// string, so it costs 4 bytes instead of a 32-byte [`BitString`] header
/// (DESIGN.md §11). The non-empty strings follow in node order, which
/// makes the layout canonical: two tables are equal exactly when they
/// assign the same string to every node.
///
/// # Examples
///
/// ```
/// use oraclesize_bits::BitString;
/// use oraclesize_sim::{advice_size, Advice};
///
/// let one = BitString::parse("101").unwrap();
/// let advice: Advice = [BitString::new(), one.clone(), BitString::new()]
///     .into_iter()
///     .collect();
/// assert_eq!(advice.len(), 3);
/// assert_eq!(advice[1], one);
/// assert!(advice[2].is_empty());
/// assert_eq!(advice_size(&advice), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Advice {
    /// Index into `strings`, one per node.
    slots: Vec<u32>,
    /// The empty string, then every non-empty string in node order.
    strings: Vec<BitString>,
}

impl Advice {
    /// `n` empty strings: the empty oracle's assignment, of size 0.
    pub fn empty(n: usize) -> Self {
        Advice {
            slots: vec![0; n],
            strings: vec![BitString::new()],
        }
    }

    /// Number of nodes the table covers.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if the table covers no node.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Every node's string, in node order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            slots: self.slots.iter(),
            strings: &self.strings,
        }
    }
}

impl FromIterator<BitString> for Advice {
    fn from_iter<I: IntoIterator<Item = BitString>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut advice = Advice {
            slots: Vec::with_capacity(iter.size_hint().0),
            strings: vec![BitString::new()],
        };
        for s in iter {
            #[expect(
                clippy::expect_used,
                reason = "there is at most one string per node, and a graph has at most u32::MAX nodes"
            )]
            let slot = if s.is_empty() {
                0
            } else {
                advice.strings.push(s);
                u32::try_from(advice.strings.len() - 1).expect("at most u32::MAX nodes")
            };
            advice.slots.push(slot);
        }
        advice
    }
}

impl From<Vec<BitString>> for Advice {
    fn from(strings: Vec<BitString>) -> Self {
        strings.into_iter().collect()
    }
}

impl Index<NodeId> for Advice {
    type Output = BitString;

    fn index(&self, v: NodeId) -> &BitString {
        &self.strings[self.slots[v] as usize]
    }
}

impl<'a> IntoIterator for &'a Advice {
    type Item = &'a BitString;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over an [`Advice`] table's strings in node order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    slots: std::slice::Iter<'a, u32>,
    strings: &'a [BitString],
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a BitString;

    fn next(&mut self) -> Option<&'a BitString> {
        self.slots.next().map(|&s| &self.strings[s as usize])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.slots.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// The paper's oracle size: the sum of the lengths of all assigned strings,
/// in bits.
pub fn advice_size<'a>(advice: impl IntoIterator<Item = &'a BitString>) -> u64 {
    advice.into_iter().map(|s| s.len() as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advice_size_sums_bits() {
        let advice = vec![
            BitString::parse("101").unwrap(),
            BitString::new(),
            BitString::parse("1").unwrap(),
        ];
        assert_eq!(advice_size(&advice), 4);
    }

    #[test]
    fn empty_assignment_has_size_zero() {
        assert_eq!(advice_size(&[]), 0);
        assert_eq!(advice_size(&vec![BitString::new(); 3]), 0);
    }

    #[test]
    fn empty_nodes_share_slot_zero() {
        let one = BitString::parse("1").unwrap();
        let advice = Advice::from(vec![BitString::new(), one.clone(), BitString::new()]);
        assert_eq!(advice.slots, [0, 1, 0]);
        assert_eq!(advice.strings, [BitString::new(), one]);
    }
}
