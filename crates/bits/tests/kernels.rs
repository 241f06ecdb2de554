//! The word-at-a-time kernels against a bit-serial reference model.
//!
//! `model` is the bit-at-a-time code the kernels replaced, written over a
//! plain `Vec<bool>`. Each kernel is compared with it at every start
//! alignment `0..64` (and, for integers, every width `0..=64`). After each
//! operation the result must equal `BitString::from_bits` of the same
//! sequence under both `==` and `Hash`, which pins the invariant that bits
//! past the length are zero.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use oraclesize_bits::codec::{
    decode_doubled_header, doubled_header_len, encode_doubled_header, AnyCodec, Codec, FixedWidth,
};
use oraclesize_bits::{BitReader, BitString};
use proptest::prelude::*;

/// One code under test: a [`Codec`] or the Theorem 2.1 doubled header.
#[derive(Debug, Clone, Copy)]
enum Code {
    Any(AnyCodec),
    Fixed(u32),
    Header,
}

const CODES: [Code; 9] = [
    Code::Any(AnyCodec::ContinuationPairs),
    Code::Any(AnyCodec::EliasGamma),
    Code::Any(AnyCodec::EliasDelta),
    Code::Any(AnyCodec::Unary),
    Code::Fixed(0),
    Code::Fixed(1),
    Code::Fixed(13),
    Code::Fixed(64),
    Code::Header,
];

impl Code {
    /// `value` brought into the code's domain (unary kept short).
    fn domain(self, value: u64) -> u64 {
        match self {
            Code::Any(AnyCodec::Unary) => value % 300,
            Code::Any(c) => value.min(c.max_value()),
            Code::Fixed(w) => value & FixedWidth::new(w).max_value(),
            Code::Header => value,
        }
    }

    fn encode(self, value: u64, out: &mut BitString) {
        match self {
            Code::Any(c) => c.encode(value, out),
            Code::Fixed(w) => FixedWidth::new(w).encode(value, out),
            Code::Header => encode_doubled_header(value, out),
        }
    }

    fn decode(self, r: &mut BitReader<'_>) -> Option<u64> {
        match self {
            Code::Any(c) => c.decode(r),
            Code::Fixed(w) => FixedWidth::new(w).decode(r),
            Code::Header => decode_doubled_header(r),
        }
    }

    fn encoded_len(self, value: u64) -> usize {
        match self {
            Code::Any(c) => c.encoded_len(value),
            Code::Fixed(w) => FixedWidth::new(w).encoded_len(value),
            Code::Header => doubled_header_len(value),
        }
    }
}

/// The bit-serial loops, one bit per step.
mod model {
    use super::Code;
    use oraclesize_bits::bits_to_represent;
    use oraclesize_bits::codec::AnyCodec;

    pub fn push_uint(bits: &mut Vec<bool>, value: u64, width: u32) {
        for i in 0..width {
            bits.push((value >> i) & 1 == 1);
        }
    }

    /// `None` when fewer than `width` bits follow `pos`.
    pub fn read_uint(bits: &[bool], pos: usize, width: u32) -> Option<u64> {
        let mut v = 0u64;
        for (i, &b) in bits.get(pos..pos + width as usize)?.iter().enumerate() {
            v |= (b as u64) << i;
        }
        Some(v)
    }

    fn push_msb_first(bits: &mut Vec<bool>, value: u64, width: u32) {
        for i in (0..width).rev() {
            bits.push((value >> i) & 1 == 1);
        }
    }

    pub fn encode(code: Code, value: u64, bits: &mut Vec<bool>) {
        match code {
            Code::Any(AnyCodec::Unary) => {
                bits.extend(std::iter::repeat_n(true, value as usize));
                bits.push(false);
            }
            Code::Any(AnyCodec::EliasGamma) => {
                let v = value + 1;
                let n = 63 - v.leading_zeros();
                bits.extend(std::iter::repeat_n(false, n as usize));
                push_msb_first(bits, v, n + 1);
            }
            Code::Any(AnyCodec::EliasDelta) => {
                let v = value + 1;
                let n = 63 - v.leading_zeros();
                encode(Code::Any(AnyCodec::EliasGamma), n as u64, bits);
                push_msb_first(bits, v, n);
            }
            Code::Any(AnyCodec::ContinuationPairs) => {
                for i in (0..bits_to_represent(value)).rev() {
                    bits.push(i != 0);
                    bits.push((value >> i) & 1 == 1);
                }
            }
            Code::Fixed(w) => push_uint(bits, value, w),
            Code::Header => {
                for i in (0..bits_to_represent(value)).rev() {
                    let b = (value >> i) & 1 == 1;
                    bits.extend([b, b]);
                }
                bits.extend([true, false]);
            }
        }
    }

    struct Cursor<'a> {
        bits: &'a [bool],
        pos: usize,
    }

    impl Cursor<'_> {
        fn bit(&mut self) -> Option<bool> {
            let b = *self.bits.get(self.pos)?;
            self.pos += 1;
            Some(b)
        }

        /// Elias gamma of `value + 1`, returned as `value + 1`.
        fn gamma(&mut self) -> Option<u64> {
            let mut n = 0u32;
            while !self.bit()? {
                n += 1;
                if n > 63 {
                    return None;
                }
            }
            self.msb_first(1, n)
        }

        /// Appends `width` MSB-first bits below `lead`.
        fn msb_first(&mut self, lead: u64, width: u32) -> Option<u64> {
            let mut v = lead;
            for _ in 0..width {
                v = (v << 1) | self.bit()? as u64;
            }
            Some(v)
        }
    }

    /// One value decoded at `pos` with the bit count it took, or `None`
    /// where the bit-serial decoder fails.
    pub fn decode(code: Code, bits: &[bool], pos: usize) -> Option<(u64, usize)> {
        let mut c = Cursor { bits, pos };
        let value = match code {
            Code::Any(AnyCodec::Unary) => {
                let mut v = 0;
                while c.bit()? {
                    v += 1;
                }
                v
            }
            Code::Any(AnyCodec::EliasGamma) => c.gamma()? - 1,
            Code::Any(AnyCodec::EliasDelta) => {
                let n = c.gamma()? - 1;
                if n > 63 {
                    return None;
                }
                c.msb_first(1, n as u32)? - 1
            }
            Code::Any(AnyCodec::ContinuationPairs) => {
                let (mut v, mut read) = (0u64, 0u32);
                loop {
                    let more = c.bit()?;
                    let bit = c.bit()?;
                    read += 1;
                    if read > 64 {
                        return None;
                    }
                    v = (v << 1) | bit as u64;
                    if !more {
                        break v;
                    }
                }
            }
            Code::Fixed(w) => {
                let v = read_uint(bits, pos, w)?;
                c.pos += w as usize;
                v
            }
            Code::Header => {
                let (mut v, mut pairs) = (0u64, 0u32);
                loop {
                    match (c.bit()?, c.bit()?) {
                        (true, false) => break v,
                        (x, y) if x == y => {
                            pairs += 1;
                            if pairs > 64 {
                                return None;
                            }
                            v = (v << 1) | x as u64;
                        }
                        _ => return None,
                    }
                }
            }
        };
        Some((value, c.pos - pos))
    }
}

fn hash_of(s: &BitString) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// `s` holds exactly `bits`, and is indistinguishable from the bit-serial
/// construction of them.
fn check(s: &BitString, bits: &[bool]) -> Result<(), TestCaseError> {
    let serial = BitString::from_bits(bits.iter().copied());
    prop_assert_eq!(s.iter().collect::<Vec<_>>(), bits);
    prop_assert_eq!(s, &serial);
    prop_assert_eq!(hash_of(s), hash_of(&serial));
    Ok(())
}

/// A reader over `s` that has consumed its first `skip` bits one at a time.
fn reader_at(s: &BitString, skip: usize) -> BitReader<'_> {
    let mut r = s.reader();
    for _ in 0..skip {
        r.read_bit().expect("skip within the string");
    }
    r
}

/// Random bits, dense or with long zero runs (one bit in sixteen set).
fn noise(raw: &[u8], sparse: bool) -> Vec<bool> {
    raw.iter()
        .map(|&x| if sparse { x % 16 == 0 } else { x & 1 == 1 })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn push_uint_matches_model(prefix in collection::vec(any::<bool>(), 64), value in any::<u64>()) {
        for align in 0..64 {
            for width in 0..=64u32 {
                let v = value & FixedWidth::new(width).max_value();
                let mut fast = BitString::from_bits(prefix[..align].iter().copied());
                fast.push_uint(v, width);
                let mut serial = prefix[..align].to_vec();
                model::push_uint(&mut serial, v, width);
                check(&fast, &serial)?;
            }
        }
    }

    #[test]
    fn uint_runs_match_model(
        prefix in collection::vec(any::<bool>(), 64),
        raw in collection::vec(any::<u64>(), 0..=10),
    ) {
        // Up to ten values of up to 64 bits: a run crosses several words,
        // written by the word-level run writer and by one `push_uint` per
        // value.
        for align in 0..64 {
            for width in 0..=64u32 {
                let mask = FixedWidth::new(width).max_value();
                let values: Vec<u64> = raw.iter().map(|&v| v & mask).collect();
                let mut run = BitString::from_bits(prefix[..align].iter().copied());
                let mut singles = run.clone();
                let mut serial = prefix[..align].to_vec();
                run.push_uint_run(&values, width);
                for &v in &values {
                    singles.push_uint(v, width);
                    model::push_uint(&mut serial, v, width);
                }
                check(&run, &serial)?;
                check(&singles, &serial)?;
            }
        }
    }

    #[test]
    fn read_uint_matches_model(bits in collection::vec(any::<bool>(), 0..=160)) {
        let s = BitString::from_bits(bits.iter().copied());
        for align in 0..64.min(bits.len() + 1) {
            for width in 0..=64u32 {
                let mut r = reader_at(&s, align);
                let want = model::read_uint(&bits, align, width);
                prop_assert_eq!(r.read_uint(width), want, "align {} width {}", align, width);
                let consumed = if want.is_some() { width as usize } else { 0 };
                prop_assert_eq!(r.position(), align + consumed);
            }
        }
    }

    #[test]
    fn skip_matches_model(bits in collection::vec(any::<bool>(), 0..=200)) {
        let s = BitString::from_bits(bits.iter().copied());
        for align in 0..64.min(bits.len() + 1) {
            let left = bits.len() - align;
            for by in [0, 1, 7, 8, 63, 64, 65, left, left + 1, usize::MAX] {
                let mut r = reader_at(&s, align);
                let fits = by <= left;
                prop_assert_eq!(r.skip(by).is_some(), fits, "align {} skip {}", align, by);
                let pos = if fits { align + by } else { align };
                prop_assert_eq!(r.position(), pos);
                // The cursor reads on from where the skip left it.
                prop_assert_eq!(r.read_bit(), bits.get(pos).copied());
            }
        }
    }

    #[test]
    fn extend_from_matches_model(
        prefix in collection::vec(any::<bool>(), 64),
        operand in collection::vec(any::<bool>(), 0..=1200),
    ) {
        // Up to 150 bytes: long enough that a vectorized copy loop runs its
        // body several times and then its tail.
        let right = BitString::from_bits(operand.iter().copied());
        for align in 0..64 {
            let mut fast = BitString::from_bits(prefix[..align].iter().copied());
            let mut serial = prefix[..align].to_vec();
            fast.extend_from(&BitString::new());
            check(&fast, &serial)?;
            fast.extend_from(&right);
            serial.extend(&operand);
            check(&fast, &serial)?;
            fast.extend_from(&right);
            serial.extend(&operand);
            check(&fast, &serial)?;
        }
    }

    #[test]
    fn codecs_match_model(
        prefix in collection::vec(any::<bool>(), 64),
        value in any::<u64>(),
        scale in 0u32..64,
        raw in collection::vec(0u8..16, 0..=160),
        sparse in any::<bool>(),
    ) {
        let trailer = BitString::from_bits(noise(&raw, sparse));
        for code in CODES {
            let v = code.domain(value >> scale);
            for align in 0..64 {
                let mut fast = BitString::from_bits(prefix[..align].iter().copied());
                code.encode(v, &mut fast);
                let mut serial = prefix[..align].to_vec();
                model::encode(code, v, &mut serial);
                check(&fast, &serial)?;
                let len = fast.len() - align;
                prop_assert_eq!(code.encoded_len(v), len, "{:?} value {}", code, v);

                fast.extend_from(&trailer);
                let mut r = reader_at(&fast, align);
                prop_assert_eq!(code.decode(&mut r), Some(v), "{:?} align {}", code, align);
                prop_assert_eq!(r.position(), align + len);
            }
        }
    }

    #[test]
    fn decoders_match_model_on_arbitrary_bits(
        raw in collection::vec(0u8..16, 0..=200),
        sparse in any::<bool>(),
    ) {
        let bits = noise(&raw, sparse);
        let s = BitString::from_bits(bits.iter().copied());
        for code in CODES {
            for align in 0..64.min(bits.len() + 1) {
                let mut r = reader_at(&s, align);
                let got = code.decode(&mut r);
                let want = model::decode(code, &bits, align);
                prop_assert_eq!(got, want.map(|(v, _)| v), "{:?} align {}", code, align);
                if let Some((_, used)) = want {
                    prop_assert_eq!(r.position(), align + used);
                }
            }
        }
    }
}

#[test]
fn gamma_zero_run_guard() {
    // 63 zeros then a 1 open the largest gamma code; 64 zeros are malformed.
    for (zeros, ok) in [(63, true), (64, false)] {
        let mut bits = vec![false; zeros];
        bits.extend([true; 64]);
        let s = BitString::from_bits(bits.iter().copied());
        let got = AnyCodec::EliasGamma.decode(&mut s.reader());
        let want = model::decode(Code::Any(AnyCodec::EliasGamma), &bits, 0).map(|(v, _)| v);
        assert_eq!(got, want);
        assert_eq!(got.is_some(), ok);
    }
}

#[test]
#[should_panic(expected = "does not fit in 3 bits")]
fn uint_run_rejects_a_value_too_wide() {
    BitString::new().push_uint_run(&[1, 8, 2], 3);
}
