//! Flat compressed-sparse-row storage shared by the graph and tree layers.
//!
//! [`PortGraph`](crate::PortGraph) keeps its port map in CSR form; the
//! structures that used to hand-roll `Vec<Vec<…>>` adjacency (rooted-tree
//! child lists, the edge-set rooting in `spanning`) share this row store
//! instead, so every layer speaks one layout (DESIGN.md §11).
//!
//! Every stored index — node id, port, row offset — is a `u32`, half the
//! bytes of a `usize`. A graph therefore holds at most `u32::MAX` nodes
//! and `u32::MAX` arcs (port slots, two per edge). Values enter the narrow
//! layout only through `narrow` or `check_size`, which report an
//! oversized graph as [`GraphError::TooLarge`], and leave it through
//! `widen`, so the public interface keeps `usize` ids and ports.

use crate::portgraph::GraphError;

// `widen` is lossless only where `usize` holds every `u32`.
const _: () = assert!(usize::BITS >= u32::BITS);

/// Narrows a count or index into the `u32` layout; `what` names it in the
/// error (`"node count"`, `"arc count"`, `"port"`, …).
///
/// # Errors
///
/// [`GraphError::TooLarge`] when `value` exceeds `u32::MAX`.
pub(crate) fn narrow(what: &'static str, value: usize) -> Result<u32, GraphError> {
    u32::try_from(value).map_err(|_| GraphError::TooLarge {
        what,
        count: Some(value),
    })
}

/// Checks that a graph of `nodes` nodes and `arcs` arcs fits the `u32`
/// layout and returns both counts narrowed. `None` stands for a count
/// whose computation overflowed `usize`, which is too large as well.
///
/// # Errors
///
/// [`GraphError::TooLarge`] naming the first count that does not fit.
pub(crate) fn check_size(
    nodes: Option<usize>,
    arcs: Option<usize>,
) -> Result<(u32, u32), GraphError> {
    let fit = |what, count: Option<usize>| match count {
        Some(count) => narrow(what, count),
        None => Err(GraphError::TooLarge { what, count: None }),
    };
    Ok((fit("node count", nodes)?, fit("arc count", arcs)?))
}

/// Widens a stored index back to the interface's `usize`.
#[inline]
pub(crate) fn widen(value: u32) -> usize {
    value as usize
}

/// Variable-length rows packed into two flat arrays: `offsets` has one
/// entry per row plus a trailing sentinel, and row `r` occupies
/// `items[offsets[r] .. offsets[r + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrRows<T> {
    offsets: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy + Default> CsrRows<T> {
    /// Packs `(row, item)` pairs into `n` rows by stable counting sort:
    /// items land in their row in input order, using exactly two passes
    /// over `pairs` and two allocations regardless of row count.
    ///
    /// # Panics
    ///
    /// Panics if there are more than `u32::MAX` pairs.
    pub fn from_pairs<I>(n: usize, pairs: I) -> Self
    where
        I: IntoIterator<Item = (usize, T)>,
        I::IntoIter: Clone,
    {
        let pairs = pairs.into_iter();
        // `offsets[r + 1]` first holds the start of row `r`, then serves as
        // its fill cursor, and ends at the row's end: no separate cursor.
        let mut offsets = vec![0u32; n + 1];
        let mut len = 0;
        for (row, _) in pairs.clone() {
            len += 1;
            if row + 2 <= n {
                offsets[row + 2] += 1;
            }
        }
        if let Err(e) = narrow("item count", len) {
            panic!("{e}");
        }
        for i in 1..n {
            offsets[i + 1] += offsets[i];
        }
        let mut items = vec![T::default(); len];
        for (row, item) in pairs {
            items[widen(offsets[row + 1])] = item;
            offsets[row + 1] += 1;
        }
        CsrRows { offsets, items }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Row `r` as a contiguous slice.
    pub fn row(&self, r: usize) -> &[T] {
        &self.items[widen(self.offsets[r])..widen(self.offsets[r + 1])]
    }

    /// Mutable access to row `r` (e.g. to sort it in place).
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        &mut self.items[widen(self.offsets[r])..widen(self.offsets[r + 1])]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packs_rows_in_input_order() {
        let pairs = [(2, 'a'), (0, 'b'), (2, 'c'), (0, 'd'), (2, 'e')];
        let rows = CsrRows::from_pairs(4, pairs);
        assert_eq!(rows.num_rows(), 4);
        assert_eq!(rows.row(0), ['b', 'd']);
        assert_eq!(rows.row(1), []);
        assert_eq!(rows.row(2), ['a', 'c', 'e']);
        assert_eq!(rows.row(3), []);
    }

    #[test]
    fn empty_input_yields_empty_rows() {
        let rows: CsrRows<usize> = CsrRows::from_pairs(3, []);
        for r in 0..3 {
            assert_eq!(rows.row(r), []);
        }
    }

    #[test]
    fn rows_are_sortable_in_place() {
        let mut rows = CsrRows::from_pairs(2, [(0, 9), (0, 3), (0, 7), (1, 1)]);
        rows.row_mut(0).sort_unstable();
        assert_eq!(rows.row(0), [3, 7, 9]);
        assert_eq!(rows.row(1), [1]);
    }

    #[test]
    fn narrow_accepts_u32_max_and_rejects_one_more() {
        let max = u32::MAX as usize;
        assert_eq!(narrow("node count", max), Ok(u32::MAX));
        assert_eq!(
            narrow("node count", max + 1),
            Err(GraphError::TooLarge {
                what: "node count",
                count: Some(max + 1)
            })
        );
    }

    #[test]
    fn check_size_names_the_count_that_does_not_fit() {
        let max = u32::MAX as usize;
        assert_eq!(check_size(Some(max), Some(max)), Ok((u32::MAX, u32::MAX)));
        assert_eq!(
            check_size(Some(3), Some(max + 1)),
            Err(GraphError::TooLarge {
                what: "arc count",
                count: Some(max + 1)
            })
        );
        assert_eq!(
            check_size(None, Some(0)),
            Err(GraphError::TooLarge {
                what: "node count",
                count: None
            })
        );
    }
}
