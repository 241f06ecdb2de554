//! Packed, growable bit sequences with bit-exact length accounting.

use std::fmt;

use crate::reader::BitReader;

/// A growable sequence of bits, packed into bytes.
///
/// `BitString` is the concrete representation of the advice strings
/// `f(v) ∈ {0,1}*` assigned by an oracle, and of message payloads. Its
/// [`len`](BitString::len) is the exact bit count that enters the oracle-size
/// accounting of the paper.
///
/// Bits are indexed from 0; within the packed representation, bit `i` lives
/// in byte `i / 8` at position `i % 8` (LSB-first). The packing is an
/// implementation detail — all observable behaviour is defined in terms of
/// the logical bit sequence.
///
/// # Examples
///
/// ```
/// use oraclesize_bits::BitString;
///
/// let mut s = BitString::new();
/// s.push(true);
/// s.push_uint(0b101, 3);
/// assert_eq!(s.len(), 4);
/// assert_eq!(s.get(0), Some(true));
/// assert_eq!(s.to_string(), "1101"); // LSB of 0b101 first
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitString {
    bytes: Vec<u8>,
    len: usize,
}

impl BitString {
    /// Creates an empty bit string.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty bit string with capacity for at least `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        BitString {
            bytes: Vec::with_capacity(bits.div_ceil(8)),
            len: 0,
        }
    }

    /// Builds a bit string from booleans, first element first.
    ///
    /// ```
    /// use oraclesize_bits::BitString;
    /// let s = BitString::from_bits([true, false, true]);
    /// assert_eq!(s.to_string(), "101");
    /// ```
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut s = BitString::new();
        for b in bits {
            s.push(b);
        }
        s
    }

    /// Parses a string of `'0'` and `'1'` characters.
    ///
    /// Returns `None` if any other character is present.
    ///
    /// ```
    /// use oraclesize_bits::BitString;
    /// let s = BitString::parse("0110").unwrap();
    /// assert_eq!(s.len(), 4);
    /// assert!(BitString::parse("01x0").is_none());
    /// ```
    pub fn parse(text: &str) -> Option<Self> {
        let mut s = BitString::with_capacity(text.len());
        for c in text.chars() {
            match c {
                '0' => s.push(false),
                '1' => s.push(true),
                _ => return None,
            }
        }
        Some(s)
    }

    /// Number of bits in the string. This is the quantity summed by the
    /// oracle-size measure.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the string contains no bits.
    ///
    /// The empty advice string is meaningful in the paper (leaves of the
    /// wakeup spanning tree receive it), so emptiness is a first-class query.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a single bit.
    pub fn push(&mut self, bit: bool) {
        let byte = self.len / 8;
        if byte == self.bytes.len() {
            self.bytes.push(0);
        }
        if bit {
            self.bytes[byte] |= 1 << (self.len % 8);
        }
        self.len += 1;
    }

    /// Appends the `width` low-order bits of `value`, least significant
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`, or if `value` does not fit in `width` bits
    /// (that would silently drop information from an advice string).
    pub fn push_uint(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "width {width} exceeds u64");
        if width < 64 {
            assert!(
                value < (1u64 << width),
                "value {value} does not fit in {width} bits"
            );
        }
        if width == 0 {
            return;
        }
        // The open byte's bits below the value, shifted to their offset,
        // span at most 71 bits: one u128 window.
        let shift = self.len % 8;
        let open = if shift == 0 { 0 } else { self.pop_open_byte() };
        let window = (u128::from(open) | (u128::from(value) << shift)).to_le_bytes();
        self.len += width as usize;
        let end = self.len.div_ceil(8);
        // Storing the whole window and cutting it back is one fixed-size
        // copy. Take that path only where it cannot grow the buffer, so the
        // allocations stay those of appending exactly the bytes needed.
        if self.bytes.capacity() - self.bytes.len() >= window.len() {
            self.bytes.extend_from_slice(&window);
            self.bytes.truncate(end);
        } else {
            let stored = self.bytes.len();
            self.bytes.extend_from_slice(&window[..end - stored]);
        }
    }

    /// Appends every value of `values` in `width` bits, least significant
    /// first: the bits of [`push_uint`](Self::push_uint) on each in turn,
    /// gathered in a 64-bit word and stored a word at a time.
    ///
    /// ```
    /// use oraclesize_bits::BitString;
    /// let mut s = BitString::parse("1").unwrap();
    /// s.push_uint_run(&[0b01, 0b11, 0b10], 2);
    /// assert_eq!(s.to_string(), "1101101");
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`, or if some value does not fit in `width`
    /// bits. Every value is checked before any bit is written.
    pub fn push_uint_run(&mut self, values: &[u64], width: u32) {
        assert!(width <= 64, "width {width} exceeds u64");
        if width < 64 {
            if let Some(value) = values.iter().find(|&&v| v >> width != 0) {
                panic!("value {value} does not fit in {width} bits");
            }
        }
        let end = self.len + values.len() * width as usize;
        let mut fill = (self.len % 8) as u32;
        let mut word = if fill == 0 {
            0
        } else {
            u64::from(self.pop_open_byte())
        };
        self.bytes.reserve(end.div_ceil(8) - self.bytes.len());
        for &value in values {
            // `fill < 64` bits are pending in `word`.
            word |= value << fill;
            fill += width;
            if fill >= 64 {
                self.bytes.extend_from_slice(&word.to_le_bytes());
                fill -= 64;
                // The value's top `fill` bits did not fit the stored word.
                word = if fill == 0 {
                    0
                } else {
                    value >> (width - fill)
                };
            }
        }
        self.len = end;
        self.bytes
            .extend_from_slice(&word.to_le_bytes()[..fill.div_ceil(8) as usize]);
    }

    /// Removes and returns the partly filled last byte; its bits join the
    /// next append's window. Call only when `len % 8 != 0`.
    fn pop_open_byte(&mut self) -> u8 {
        self.bytes.pop().unwrap_or(0)
    }

    /// Returns bit `index`, or `None` past the end.
    #[inline]
    pub fn get(&self, index: usize) -> Option<bool> {
        if index >= self.len {
            return None;
        }
        Some((self.bytes[index / 8] >> (index % 8)) & 1 == 1)
    }

    /// Inverts bit `index` in place.
    ///
    /// ```
    /// use oraclesize_bits::BitString;
    /// let mut s = BitString::parse("101").unwrap();
    /// s.toggle(1);
    /// assert_eq!(s.to_string(), "111");
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn toggle(&mut self, index: usize) {
        assert!(index < self.len, "bit {index} out of range {}", self.len);
        self.bytes[index / 8] ^= 1 << (index % 8);
    }

    /// Appends all bits of `other`.
    ///
    /// ```
    /// use oraclesize_bits::BitString;
    /// let mut a = BitString::parse("10").unwrap();
    /// a.extend_from(&BitString::parse("011").unwrap());
    /// assert_eq!(a.to_string(), "10011");
    /// ```
    pub fn extend_from(&mut self, other: &BitString) {
        let shift = self.len % 8;
        if shift == 0 {
            self.bytes.extend_from_slice(&other.bytes);
            self.len += other.len;
            return;
        }
        let src = &other.bytes;
        let Some((&last, _)) = src.split_last() else {
            return;
        };
        // Each byte of `other` straddles two bytes here, so output byte
        // `i` is the low part of `src[i]` over the high part of
        // `src[i - 1]`. No byte depends on the one written before it, so
        // the window loop vectorizes. The first byte fills the open byte;
        // the last one's high part needs a byte only if the new length
        // reaches into it (otherwise it is `other`'s zero tail bits).
        let open = self.bytes.len() - 1;
        self.len += other.len;
        self.bytes[open] |= src[0] << shift;
        self.bytes.extend(
            src.windows(2)
                .map(|w| (w[1] << shift) | (w[0] >> (8 - shift))),
        );
        if self.bytes.len() < self.len.div_ceil(8) {
            self.bytes.push(last >> (8 - shift));
        }
    }

    /// Iterates over the bits, first bit first.
    pub fn iter(&self) -> Iter<'_> {
        Iter { s: self, pos: 0 }
    }

    /// Creates a decoding cursor positioned at the first bit.
    #[inline]
    pub fn reader(&self) -> BitReader<'_> {
        BitReader::new(self)
    }

    /// Total heap bytes used by the packed representation (diagnostics only;
    /// not the oracle-size measure).
    pub fn packed_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The packed LSB-first byte buffer: bit `i` lives in byte `i / 8` at
    /// position `i % 8`. Bits at positions `≥ len` are zero.
    #[inline]
    pub fn as_packed_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Builds a bit string from a packed LSB-first byte buffer and an exact
    /// bit count — the inverse of [`as_packed_bytes`](Self::as_packed_bytes)
    /// plus [`len`](Self::len). Surplus trailing bytes and bits beyond `len`
    /// are discarded, preserving the invariant that unused tail bits are
    /// zero (equality and hashing depend on it).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` holds fewer than `len` bits.
    pub fn from_packed(mut bytes: Vec<u8>, len: usize) -> Self {
        assert!(
            len <= bytes.len() * 8,
            "{len} bits do not fit in {} bytes",
            bytes.len()
        );
        bytes.truncate(len.div_ceil(8));
        if !len.is_multiple_of(8) {
            if let Some(last) = bytes.last_mut() {
                *last &= (1u8 << (len % 8)) - 1;
            }
        }
        BitString { bytes, len }
    }
}

impl fmt::Debug for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitString(\"{self}\")")
    }
}

impl fmt::Display for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            f.write_str(if b { "1" } else { "0" })?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitString {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        BitString::from_bits(iter)
    }
}

impl Extend<bool> for BitString {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

/// Iterator over the bits of a [`BitString`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    s: &'a BitString,
    pos: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        let b = self.s.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.s.len() - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a BitString {
    type Item = bool;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_empty() {
        let s = BitString::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.get(0), None);
        assert_eq!(s.to_string(), "");
    }

    #[test]
    fn push_and_get_across_byte_boundary() {
        let mut s = BitString::new();
        for i in 0..20 {
            s.push(i % 3 == 0);
        }
        assert_eq!(s.len(), 20);
        for i in 0..20 {
            assert_eq!(s.get(i), Some(i % 3 == 0), "bit {i}");
        }
        assert_eq!(s.get(20), None);
    }

    #[test]
    fn toggle_matches_a_rebuilt_string() {
        let bits: Vec<bool> = (0..19).map(|i| i % 3 == 0).collect();
        for idx in 0..bits.len() {
            let mut s = BitString::from_bits(bits.iter().copied());
            s.toggle(idx);
            let rebuilt = bits.iter().enumerate().map(|(i, &b)| b ^ (i == idx));
            assert_eq!(s, BitString::from_bits(rebuilt), "bit {idx}");
            s.toggle(idx);
            assert_eq!(s, BitString::from_bits(bits.iter().copied()));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn toggle_past_the_end_panics() {
        BitString::parse("10").unwrap().toggle(2);
    }

    #[test]
    fn push_uint_lsb_first() {
        let mut s = BitString::new();
        s.push_uint(0b0110, 4);
        assert_eq!(s.to_string(), "0110".chars().rev().collect::<String>());
    }

    #[test]
    fn push_uint_zero_width_is_noop() {
        let mut s = BitString::new();
        s.push_uint(0, 0);
        assert!(s.is_empty());
    }

    #[test]
    fn push_uint_full_width() {
        let mut s = BitString::new();
        s.push_uint(u64::MAX, 64);
        assert_eq!(s.len(), 64);
        assert!(s.iter().all(|b| b));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn push_uint_rejects_overflow() {
        let mut s = BitString::new();
        s.push_uint(4, 2);
    }

    #[test]
    fn parse_roundtrip() {
        let text = "0011010111000101";
        let s = BitString::parse(text).unwrap();
        assert_eq!(s.to_string(), text);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(BitString::parse("012").is_none());
    }

    #[test]
    fn extend_from_concatenates() {
        let mut a = BitString::parse("101").unwrap();
        let b = BitString::parse("0011").unwrap();
        a.extend_from(&b);
        assert_eq!(a.to_string(), "1010011");
        assert_eq!(a.len(), 7);
    }

    #[test]
    fn equality_ignores_capacity() {
        let mut a = BitString::with_capacity(1000);
        a.push(true);
        let b = BitString::from_bits([true]);
        assert_eq!(a, b);
    }

    #[test]
    fn from_iterator_and_extend_trait() {
        let s: BitString = [true, false].into_iter().collect();
        assert_eq!(s.to_string(), "10");
        let mut s2 = s.clone();
        s2.extend([true]);
        assert_eq!(s2.to_string(), "101");
    }

    #[test]
    fn iter_exact_size() {
        let s = BitString::parse("10101").unwrap();
        let it = s.iter();
        assert_eq!(it.len(), 5);
        assert_eq!(s.iter().count(), 5);
    }

    #[test]
    fn debug_is_nonempty_for_empty_string() {
        assert_eq!(format!("{:?}", BitString::new()), "BitString(\"\")");
    }
}
