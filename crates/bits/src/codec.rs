//! Self-delimiting integer codes.
//!
//! Two of these come straight out of the paper:
//!
//! * [`ContinuationPairs`] spends exactly `2·#2(w)` bits on a weight `w` —
//!   the code implicitly used in Theorem 3.1 ("they can be encoded by one
//!   binary string of length `2·Σ #2(w(e_i))`").
//! * The *doubled-header* construction of Theorem 2.1 is a list code and
//!   lives in [`crate::lists`]; its header (`b1b1 b2b2 … br br 10`) is
//!   exposed here as [`encode_doubled_header`] / [`decode_doubled_header`].
//!
//! [`EliasGamma`] and [`EliasDelta`] are included as classical comparison
//! points for experiment T11, and [`FixedWidth`] / [`Unary`] as degenerate
//! baselines.

use crate::bitstring::BitString;
use crate::numeric::bits_to_represent;
use crate::reader::BitReader;

/// A self-delimiting code for unsigned integers.
///
/// Implementations must be prefix-free on their declared
/// [domain](Codec::max_value): decoding consumes exactly the bits that
/// encoding produced, so advice payloads can be concatenated.
pub trait Codec {
    /// Appends the encoding of `value` to `out`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is outside the codec's domain.
    fn encode(&self, value: u64, out: &mut BitString);

    /// Decodes one value, consuming exactly its encoding.
    ///
    /// Returns `None` on truncated or malformed input; the cursor position is
    /// then unspecified.
    fn decode(&self, reader: &mut BitReader<'_>) -> Option<u64>;

    /// Number of bits [`encode`](Codec::encode) will emit for `value`.
    fn encoded_len(&self, value: u64) -> usize {
        let mut s = BitString::new();
        self.encode(value, &mut s);
        s.len()
    }

    /// Largest encodable value (inclusive). `u64::MAX` when unbounded.
    fn max_value(&self) -> u64 {
        u64::MAX
    }
}

/// Unary code: `value` ones followed by a zero. `O(value)` bits; useful only
/// as a worst-case baseline in T11.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Unary;

impl Codec for Unary {
    fn encode(&self, value: u64, out: &mut BitString) {
        for _ in 0..value {
            out.push(true);
        }
        out.push(false);
    }

    fn decode(&self, reader: &mut BitReader<'_>) -> Option<u64> {
        let mut v = 0u64;
        loop {
            match reader.read_bit()? {
                true => v += 1,
                false => return Some(v),
            }
        }
    }

    fn encoded_len(&self, value: u64) -> usize {
        value as usize + 1
    }
}

/// Fixed-width binary code. Not self-delimiting across different widths —
/// both sides must agree on the width, as in the body of the Theorem 2.1
/// port list (width `⌈log n⌉`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedWidth {
    width: u32,
}

impl FixedWidth {
    /// A code writing exactly `width` bits per value.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn new(width: u32) -> Self {
        assert!(width <= 64, "width {width} exceeds u64");
        FixedWidth { width }
    }

    /// The configured width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }
}

impl Codec for FixedWidth {
    fn encode(&self, value: u64, out: &mut BitString) {
        out.push_uint(value, self.width);
    }

    fn decode(&self, reader: &mut BitReader<'_>) -> Option<u64> {
        reader.read_uint(self.width)
    }

    fn encoded_len(&self, _value: u64) -> usize {
        self.width as usize
    }

    fn max_value(&self) -> u64 {
        if self.width == 64 {
            u64::MAX
        } else if self.width == 0 {
            0
        } else {
            (1u64 << self.width) - 1
        }
    }
}

/// Elias gamma code for values `≥ 0` (we encode `value + 1` internally, so 0
/// is representable). `2⌊log2(v+1)⌋ + 1` bits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EliasGamma;

impl Codec for EliasGamma {
    fn encode(&self, value: u64, out: &mut BitString) {
        assert!(value < u64::MAX, "EliasGamma encodes value+1 internally");
        let v = value + 1;
        let n = 63 - v.leading_zeros(); // ⌊log2 v⌋
        out.push_uint(0, n);
        // v has n+1 significant bits; emit them MSB-first so the leading 1
        // terminates the zero run.
        out.push_uint(reverse_low(v, n + 1), n + 1);
    }

    #[inline]
    fn decode(&self, reader: &mut BitReader<'_>) -> Option<u64> {
        // An all-zero word (64 zeros, or zeros to the end) counts as 64.
        let n = reader.peek_word().trailing_zeros();
        if n > 63 {
            return None;
        }
        reader.read_uint(n)?; // the zero run
        let v = reverse_low(reader.read_uint(n + 1)?, n + 1);
        Some(v - 1)
    }

    fn encoded_len(&self, value: u64) -> usize {
        let v = value + 1;
        let n = (63 - v.leading_zeros()) as usize;
        2 * n + 1
    }

    fn max_value(&self) -> u64 {
        u64::MAX - 1
    }
}

/// Elias delta code (gamma-coded length header then the mantissa);
/// asymptotically `log v + 2 log log v` bits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EliasDelta;

impl Codec for EliasDelta {
    fn encode(&self, value: u64, out: &mut BitString) {
        assert!(value < u64::MAX, "EliasDelta encodes value+1 internally");
        let v = value + 1;
        let n = 63 - v.leading_zeros(); // ⌊log2 v⌋
        EliasGamma.encode(n as u64, out);
        // The n bits below the implicit leading 1, MSB-first.
        out.push_uint(reverse_low(v, n), n);
    }

    fn decode(&self, reader: &mut BitReader<'_>) -> Option<u64> {
        let n = EliasGamma.decode(reader)?;
        if n > 63 {
            return None;
        }
        let n = n as u32;
        let v = (1 << n) | reverse_low(reader.read_uint(n)?, n);
        Some(v - 1)
    }

    fn encoded_len(&self, value: u64) -> usize {
        let v = value + 1;
        let n = (63 - v.leading_zeros()) as u64;
        EliasGamma.encoded_len(n) + n as usize
    }

    fn max_value(&self) -> u64 {
        u64::MAX - 1
    }
}

/// The low `width` bits of `bits` in reverse order: MSB-first codes are
/// written and read as one LSB-first integer through this.
#[inline]
fn reverse_low(bits: u64, width: u32) -> u64 {
    bits.reverse_bits().checked_shr(64 - width).unwrap_or(0)
}

/// The Theorem 3.1 weight code: each bit `b_i` of the binary representation
/// of `w` is emitted as the pair `(more, b_i)` where `more = 1` for every bit
/// except the last. Exactly `2·#2(w)` bits.
///
/// ```
/// use oraclesize_bits::{BitString, bits_to_represent};
/// use oraclesize_bits::codec::{Codec, ContinuationPairs};
///
/// for w in [0u64, 1, 2, 5, 100, 12345] {
///     assert_eq!(
///         ContinuationPairs.encoded_len(w),
///         2 * bits_to_represent(w) as usize,
///     );
/// }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContinuationPairs;

impl Codec for ContinuationPairs {
    fn encode(&self, value: u64, out: &mut BitString) {
        let n = bits_to_represent(value);
        // MSB-first so leading bit conventions match the paper's "standard
        // binary representation".
        for i in (0..n).rev() {
            out.push(i != 0); // continuation flag
            out.push((value >> i) & 1 == 1);
        }
    }

    fn decode(&self, reader: &mut BitReader<'_>) -> Option<u64> {
        let mut v = 0u64;
        let mut read = 0u32;
        loop {
            let more = reader.read_bit()?;
            let bit = reader.read_bit()?;
            read += 1;
            if read > 64 {
                return None;
            }
            v = (v << 1) | bit as u64;
            if !more {
                return Some(v);
            }
        }
    }

    fn encoded_len(&self, value: u64) -> usize {
        2 * bits_to_represent(value) as usize
    }
}

/// Encodes the Theorem 2.1 header: for `value` with binary representation
/// `b1 … br` (MSB first), emits `b1 b1 b2 b2 … br br 1 0`.
///
/// The doubled bits can never produce the pattern `10` at a pair boundary,
/// so the terminator is unambiguous. Length `2·#2(value) + 2`.
pub fn encode_doubled_header(value: u64, out: &mut BitString) {
    let n = bits_to_represent(value);
    for i in (0..n).rev() {
        let b = (value >> i) & 1 == 1;
        out.push(b);
        out.push(b);
    }
    out.push(true);
    out.push(false);
}

/// Decodes a header produced by [`encode_doubled_header`].
///
/// Returns `None` on truncation or if a pair is neither doubled nor the
/// `10` terminator.
pub fn decode_doubled_header(reader: &mut BitReader<'_>) -> Option<u64> {
    let mut v = 0u64;
    let mut pairs = 0u32;
    loop {
        let a = reader.read_bit()?;
        let b = reader.read_bit()?;
        match (a, b) {
            (true, false) => return Some(v),
            (x, y) if x == y => {
                pairs += 1;
                if pairs > 64 {
                    return None;
                }
                v = (v << 1) | x as u64;
            }
            _ => return None, // "01" is malformed
        }
    }
}

/// Bit length of [`encode_doubled_header`] for `value`.
pub fn doubled_header_len(value: u64) -> usize {
    2 * bits_to_represent(value) as usize + 2
}

/// The codecs compared by experiment T11, with display names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnyCodec {
    /// [`ContinuationPairs`] — the paper's Theorem 3.1 code.
    ContinuationPairs,
    /// [`EliasGamma`].
    EliasGamma,
    /// [`EliasDelta`].
    EliasDelta,
    /// [`Unary`].
    Unary,
}

impl AnyCodec {
    /// All variants, for sweeps.
    pub const ALL: [AnyCodec; 4] = [
        AnyCodec::ContinuationPairs,
        AnyCodec::EliasGamma,
        AnyCodec::EliasDelta,
        AnyCodec::Unary,
    ];

    /// Human-readable name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            AnyCodec::ContinuationPairs => "continuation-pairs",
            AnyCodec::EliasGamma => "elias-gamma",
            AnyCodec::EliasDelta => "elias-delta",
            AnyCodec::Unary => "unary",
        }
    }
}

impl Codec for AnyCodec {
    fn encode(&self, value: u64, out: &mut BitString) {
        match self {
            AnyCodec::ContinuationPairs => ContinuationPairs.encode(value, out),
            AnyCodec::EliasGamma => EliasGamma.encode(value, out),
            AnyCodec::EliasDelta => EliasDelta.encode(value, out),
            AnyCodec::Unary => Unary.encode(value, out),
        }
    }

    fn decode(&self, reader: &mut BitReader<'_>) -> Option<u64> {
        match self {
            AnyCodec::ContinuationPairs => ContinuationPairs.decode(reader),
            AnyCodec::EliasGamma => EliasGamma.decode(reader),
            AnyCodec::EliasDelta => EliasDelta.decode(reader),
            AnyCodec::Unary => Unary.decode(reader),
        }
    }

    fn encoded_len(&self, value: u64) -> usize {
        match self {
            AnyCodec::ContinuationPairs => ContinuationPairs.encoded_len(value),
            AnyCodec::EliasGamma => EliasGamma.encoded_len(value),
            AnyCodec::EliasDelta => EliasDelta.encoded_len(value),
            AnyCodec::Unary => Unary.encoded_len(value),
        }
    }

    fn max_value(&self) -> u64 {
        match self {
            AnyCodec::ContinuationPairs => u64::MAX,
            AnyCodec::EliasGamma | AnyCodec::EliasDelta => u64::MAX - 1,
            AnyCodec::Unary => u64::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<C: Codec>(codec: &C, values: &[u64]) {
        let mut s = BitString::new();
        for &v in values {
            codec.encode(v, &mut s);
        }
        let mut r = s.reader();
        for &v in values {
            assert_eq!(codec.decode(&mut r), Some(v), "value {v}");
        }
        assert!(r.is_empty(), "leftover bits");
    }

    const SAMPLES: &[u64] = &[
        0,
        1,
        2,
        3,
        4,
        7,
        8,
        15,
        16,
        100,
        255,
        256,
        1000,
        65535,
        1 << 40,
    ];

    #[test]
    fn unary_roundtrip() {
        roundtrip(&Unary, &[0, 1, 2, 3, 10, 50]);
    }

    #[test]
    fn unary_len() {
        assert_eq!(Unary.encoded_len(0), 1);
        assert_eq!(Unary.encoded_len(7), 8);
    }

    #[test]
    fn fixed_width_roundtrip() {
        roundtrip(&FixedWidth::new(17), &[0, 1, 2, (1 << 17) - 1]);
    }

    #[test]
    fn fixed_width_max_value() {
        assert_eq!(FixedWidth::new(0).max_value(), 0);
        assert_eq!(FixedWidth::new(8).max_value(), 255);
        assert_eq!(FixedWidth::new(64).max_value(), u64::MAX);
    }

    #[test]
    fn gamma_roundtrip() {
        roundtrip(&EliasGamma, SAMPLES);
    }

    #[test]
    fn gamma_len_formula() {
        for &v in SAMPLES {
            let n = 63 - (v + 1).leading_zeros() as usize;
            assert_eq!(EliasGamma.encoded_len(v), 2 * n + 1, "v={v}");
            let mut s = BitString::new();
            EliasGamma.encode(v, &mut s);
            assert_eq!(s.len(), EliasGamma.encoded_len(v), "v={v}");
        }
    }

    #[test]
    fn delta_roundtrip() {
        roundtrip(&EliasDelta, SAMPLES);
    }

    #[test]
    fn delta_shorter_than_gamma_for_large_values() {
        assert!(EliasDelta.encoded_len(1 << 40) < EliasGamma.encoded_len(1 << 40));
    }

    #[test]
    fn continuation_pairs_roundtrip() {
        roundtrip(&ContinuationPairs, SAMPLES);
    }

    #[test]
    fn continuation_pairs_exact_len() {
        for &v in SAMPLES {
            let mut s = BitString::new();
            ContinuationPairs.encode(v, &mut s);
            assert_eq!(s.len(), 2 * bits_to_represent(v) as usize, "v={v}");
        }
    }

    #[test]
    fn doubled_header_roundtrip() {
        let mut s = BitString::new();
        for &v in SAMPLES {
            encode_doubled_header(v, &mut s);
        }
        let mut r = s.reader();
        for &v in SAMPLES {
            assert_eq!(decode_doubled_header(&mut r), Some(v), "v={v}");
        }
        assert!(r.is_empty());
    }

    #[test]
    fn doubled_header_len_matches() {
        for &v in SAMPLES {
            let mut s = BitString::new();
            encode_doubled_header(v, &mut s);
            assert_eq!(s.len(), doubled_header_len(v), "v={v}");
        }
    }

    #[test]
    fn doubled_header_rejects_malformed() {
        // "01" at a pair boundary is illegal.
        let s = BitString::parse("01").unwrap();
        assert_eq!(decode_doubled_header(&mut s.reader()), None);
        // Truncated mid-pair.
        let s = BitString::parse("1").unwrap();
        assert_eq!(decode_doubled_header(&mut s.reader()), None);
        // Doubled bits but no terminator.
        let s = BitString::parse("1100").unwrap();
        assert_eq!(decode_doubled_header(&mut s.reader()), None);
    }

    #[test]
    fn decoders_reject_truncation() {
        for &v in SAMPLES {
            for codec in AnyCodec::ALL {
                if v > codec.max_value() || (codec == AnyCodec::Unary && v > 1000) {
                    continue;
                }
                let mut s = BitString::new();
                codec.encode(v, &mut s);
                // Drop the last bit and re-decode: must not succeed with v.
                let truncated: BitString = s.iter().take(s.len() - 1).collect();
                let decoded = codec.decode(&mut truncated.reader());
                assert_ne!(decoded, Some(v), "codec {} value {v}", codec.name());
            }
        }
    }

    #[test]
    fn any_codec_dispatch_matches_direct() {
        for &v in &[0u64, 5, 1000] {
            assert_eq!(
                AnyCodec::EliasGamma.encoded_len(v),
                EliasGamma.encoded_len(v)
            );
            assert_eq!(
                AnyCodec::ContinuationPairs.encoded_len(v),
                ContinuationPairs.encoded_len(v)
            );
        }
    }

    #[test]
    fn prefix_freedom_pairwise_small_domain() {
        // For each codec, no encoding is a prefix of another encoding within
        // a small domain — a direct check of self-delimitation.
        for codec in [
            AnyCodec::ContinuationPairs,
            AnyCodec::EliasGamma,
            AnyCodec::EliasDelta,
            AnyCodec::Unary,
        ] {
            let encs: Vec<BitString> = (0..64u64)
                .map(|v| {
                    let mut s = BitString::new();
                    codec.encode(v, &mut s);
                    s
                })
                .collect();
            for (i, a) in encs.iter().enumerate() {
                for (j, b) in encs.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let is_prefix =
                        a.len() <= b.len() && a.iter().zip(b.iter()).all(|(x, y)| x == y);
                    assert!(
                        !is_prefix,
                        "{}: enc({i}) is a prefix of enc({j})",
                        codec.name()
                    );
                }
            }
        }
    }
}
