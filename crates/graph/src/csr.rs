//! Flat compressed-sparse-row storage shared by the graph and tree layers.
//!
//! [`PortGraph`](crate::PortGraph) keeps its port map in CSR form; the
//! structures that used to hand-roll `Vec<Vec<…>>` adjacency (rooted-tree
//! child lists, the edge-set rooting in `spanning`) share this row store
//! instead, so every layer speaks one layout (DESIGN.md §11).

/// Variable-length rows packed into two flat arrays: `offsets` has one
/// entry per row plus a trailing sentinel, and row `r` occupies
/// `items[offsets[r] .. offsets[r + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrRows<T> {
    offsets: Vec<usize>,
    items: Vec<T>,
}

impl<T: Copy + Default> CsrRows<T> {
    /// Packs `(row, item)` pairs into `n` rows by stable counting sort:
    /// items land in their row in input order, using exactly two passes
    /// over `pairs` and two allocations regardless of row count.
    pub fn from_pairs<I>(n: usize, pairs: I) -> Self
    where
        I: IntoIterator<Item = (usize, T)>,
        I::IntoIter: Clone,
    {
        let pairs = pairs.into_iter();
        // `offsets[r + 1]` first holds the start of row `r`, then serves as
        // its fill cursor, and ends at the row's end: no separate cursor.
        let mut offsets = vec![0usize; n + 1];
        let mut len = 0;
        for (row, _) in pairs.clone() {
            len += 1;
            if row + 2 <= n {
                offsets[row + 2] += 1;
            }
        }
        for i in 1..n {
            offsets[i + 1] += offsets[i];
        }
        let mut items = vec![T::default(); len];
        for (row, item) in pairs {
            items[offsets[row + 1]] = item;
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
        &self.items[self.offsets[r]..self.offsets[r + 1]]
    }

    /// Mutable access to row `r` (e.g. to sort it in place).
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        &mut self.items[self.offsets[r]..self.offsets[r + 1]]
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
}
