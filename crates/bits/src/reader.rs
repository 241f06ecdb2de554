//! Decoding cursor over a [`BitString`].

use crate::bitstring::BitString;

/// A forward-only cursor used to decode advice strings and message payloads.
///
/// All `read_*` methods return `None` when the string is exhausted (or does
/// not hold enough bits), leaving the cursor at the end of the available
/// prefix; decoders treat that as "malformed advice".
///
/// # Examples
///
/// ```
/// use oraclesize_bits::BitString;
///
/// let mut s = BitString::new();
/// s.push_uint(13, 4);
/// let mut r = s.reader();
/// assert_eq!(r.read_uint(4), Some(13));
/// assert!(r.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    s: &'a BitString,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader positioned at the first bit of `s`.
    pub fn new(s: &'a BitString) -> Self {
        BitReader { s, pos: 0 }
    }

    /// Number of bits not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.s.len() - self.pos
    }

    /// Returns `true` if every bit has been consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current cursor position (bits consumed so far).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Reads one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Option<bool> {
        let b = self.s.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    /// Reads `width` bits as an unsigned integer, least significant bit
    /// first (the inverse of [`BitString::push_uint`]).
    ///
    /// Returns `None` without consuming anything if fewer than `width` bits
    /// remain.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    #[inline]
    pub fn read_uint(&mut self, width: u32) -> Option<u64> {
        assert!(width <= 64, "width {width} exceeds u64");
        if self.remaining() < width as usize {
            return None;
        }
        let v = self.peek_word() & u64::MAX.checked_shr(64 - width).unwrap_or(0);
        self.pos += width as usize;
        Some(v)
    }

    /// Consumes the next `bits` bits unread.
    ///
    /// Returns `None` without consuming anything if fewer remain.
    #[inline]
    pub fn skip(&mut self, bits: usize) -> Option<()> {
        if bits > self.remaining() {
            return None;
        }
        self.pos += bits;
        Some(())
    }

    /// Peeks at the next bit without consuming it.
    #[inline]
    pub fn peek_bit(&self) -> Option<bool> {
        self.s.get(self.pos)
    }

    /// The next `min(64, remaining)` bits as an integer, first bit least
    /// significant and zero beyond the end; consumes nothing.
    #[inline]
    pub(crate) fn peek_word(&self) -> u64 {
        // The word starts at bit `pos % 8` of its first byte, so it spans at
        // most nine bytes: load them into one u128 window and shift. Bits
        // past `len` are zero in the packed bytes, and past those the window
        // is zero-filled.
        let bytes = self.s.as_packed_bytes();
        let first = self.pos / 8;
        let window = match bytes.get(first..first + 16) {
            Some(full) => full.try_into().expect("sixteen bytes"),
            None => {
                let mut window = [0u8; 16];
                window[..bytes.len() - first].copy_from_slice(&bytes[first..]);
                window
            }
        };
        (u128::from_le_bytes(window) >> (self.pos % 8)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_bits_in_order() {
        let s = BitString::parse("101").unwrap();
        let mut r = s.reader();
        assert_eq!(r.read_bit(), Some(true));
        assert_eq!(r.read_bit(), Some(false));
        assert_eq!(r.read_bit(), Some(true));
        assert_eq!(r.read_bit(), None);
    }

    #[test]
    fn read_uint_roundtrips_push_uint() {
        let mut s = BitString::new();
        s.push_uint(0xdead_beef, 32);
        s.push_uint(5, 3);
        let mut r = s.reader();
        assert_eq!(r.read_uint(32), Some(0xdead_beef));
        assert_eq!(r.read_uint(3), Some(5));
        assert!(r.is_empty());
    }

    #[test]
    fn read_uint_insufficient_bits_consumes_nothing() {
        let s = BitString::parse("10").unwrap();
        let mut r = s.reader();
        assert_eq!(r.read_uint(3), None);
        assert_eq!(r.remaining(), 2);
        assert_eq!(r.read_uint(2), Some(0b01));
    }

    #[test]
    fn peek_does_not_advance() {
        let s = BitString::parse("01").unwrap();
        let mut r = s.reader();
        assert_eq!(r.peek_bit(), Some(false));
        assert_eq!(r.position(), 0);
        assert_eq!(r.read_bit(), Some(false));
        assert_eq!(r.peek_bit(), Some(true));
    }

    #[test]
    fn zero_width_read_succeeds_on_empty() {
        let s = BitString::new();
        let mut r = s.reader();
        assert_eq!(r.read_uint(0), Some(0));
        assert!(r.is_empty());
    }
}
