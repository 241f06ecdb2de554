//! Contiguous storage for collections of bit strings.

use crate::bitstring::BitString;

/// Many bit strings packed into one byte buffer with per-entry ranges.
///
/// A million-node oracle assigns a million advice strings; held as
/// `Vec<BitString>` that is a million separate heap allocations. `BitArena`
/// concatenates the packed bytes of every string into one contiguous buffer
/// (entries byte-aligned so extraction is a `memcpy`, not a bit shift) and
/// remembers each entry's `(offset, bit length)` span. The per-message
/// engine packs a run's advice this way, once per run, so each created
/// node copies its string out of one buffer (DESIGN.md §11).
///
/// # Examples
///
/// ```
/// use oraclesize_bits::{BitArena, BitString};
///
/// let advice = [
///     BitString::parse("1011").unwrap(),
///     BitString::new(),
///     BitString::parse("000111").unwrap(),
/// ];
/// let arena = BitArena::from_strings(&advice);
/// assert_eq!(arena.len(), 3);
/// assert_eq!(arena.get(0), advice[0]);
/// assert_eq!(arena.bit_len(1), 0);
/// assert_eq!(arena.total_bits(), 10);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitArena {
    bytes: Vec<u8>,
    /// `(byte offset, bit length)` per entry; entries are byte-aligned.
    spans: Vec<(usize, usize)>,
}

impl BitArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty arena pre-sized for `entries` strings totalling `bits` bits.
    pub fn with_capacity(entries: usize, bits: usize) -> Self {
        BitArena {
            bytes: Vec::with_capacity(bits.div_ceil(8) + entries),
            spans: Vec::with_capacity(entries),
        }
    }

    /// Packs a sequence of strings, preserving order.
    pub fn from_strings<'a, I>(items: I) -> Self
    where
        I: IntoIterator<Item = &'a BitString>,
        I::IntoIter: ExactSizeIterator + Clone,
    {
        let items = items.into_iter();
        let total: usize = items.clone().map(|s| s.len()).sum();
        let mut arena = Self::with_capacity(items.len(), total);
        for s in items {
            arena.push(s);
        }
        arena
    }

    /// Appends one string's bits, returning its index.
    pub fn push(&mut self, s: &BitString) -> usize {
        let idx = self.spans.len();
        self.spans.push((self.bytes.len(), s.len()));
        self.bytes.extend_from_slice(s.as_packed_bytes());
        idx
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Returns `true` if the arena holds no entries.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Bit length of entry `i` — reading a length never touches the byte
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bit_len(&self, i: usize) -> usize {
        self.spans[i].1
    }

    /// Sum of all entry bit lengths — the paper's oracle-size measure over
    /// the stored collection.
    pub fn total_bits(&self) -> usize {
        self.spans.iter().map(|&(_, bits)| bits).sum()
    }

    /// Materializes entry `i` as an owned [`BitString`] (one `memcpy` from
    /// the contiguous buffer).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> BitString {
        let (start, bits) = self.spans[i];
        let end = start + bits.div_ceil(8);
        BitString::from_packed(self.bytes[start..end].to_vec(), bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> Vec<BitString> {
        vec![
            BitString::parse("10110010").unwrap(),
            BitString::new(),
            BitString::parse("0101").unwrap(),
            BitString::parse("111000111000101").unwrap(),
        ]
    }

    #[test]
    fn round_trips_every_entry() {
        let items = fixture();
        let arena = BitArena::from_strings(&items);
        assert_eq!(arena.len(), items.len());
        for (i, s) in items.iter().enumerate() {
            assert_eq!(&arena.get(i), s, "entry {i}");
            assert_eq!(arena.bit_len(i), s.len());
        }
    }

    #[test]
    fn total_bits_is_oracle_size() {
        let items = fixture();
        let arena = BitArena::from_strings(&items);
        let expect: usize = items.iter().map(|s| s.len()).sum();
        assert_eq!(arena.total_bits(), expect);
    }

    #[test]
    fn empty_arena() {
        let arena = BitArena::new();
        assert!(arena.is_empty());
        assert_eq!(arena.total_bits(), 0);
    }

    #[test]
    fn push_returns_sequential_indices() {
        let mut arena = BitArena::new();
        assert_eq!(arena.push(&BitString::parse("1").unwrap()), 0);
        assert_eq!(arena.push(&BitString::new()), 1);
        assert_eq!(arena.push(&BitString::parse("01").unwrap()), 2);
        assert_eq!(arena.get(2), BitString::parse("01").unwrap());
    }

    #[test]
    #[should_panic]
    fn get_out_of_range_panics() {
        BitArena::new().get(0);
    }
}
