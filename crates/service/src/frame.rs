//! The wire framing: every protocol message travels as one
//! length-prefixed, digest-checked binary frame.
//!
//! # Frame layout
//!
//! A fixed 20-byte big-endian header followed by the payload bytes:
//!
//! ```text
//! offset  size  field
//! 0       4     magic   "OSWP" (Oracle Size Wire Protocol)
//! 4       2     version frame format version; this build speaks 3
//! 6       2     kind    message kind (see [`crate::proto`])
//! 8       4     len     payload length in bytes (capped at 64 MiB)
//! 12      8     digest  FNV-1a 64 of the payload
//! 20      len   payload rendered JSON (see [`crate::proto`])
//! ```
//!
//! The digest reuses [`oraclesize_runtime::journal::fnv1a64`] — the same
//! integrity check the checkpoint journal applies to its records — so a
//! truncated or bit-rotted frame surfaces as [`std::io::ErrorKind::InvalidData`]
//! at the read site instead of as a JSON parse failure three layers up.
//! It guards against corruption, not adversaries; the service is meant
//! for loopback and trusted lab networks.
//!
//! Version 2 ships result records as journal records (with their report
//! digests). Version 3 sends a lease's spec only when the worker's job
//! changes and gives `NoWork` no fields, since it only means "shut
//! down". A frame goes out in one `write`: a header write then a
//! payload write would stall on Nagle's algorithm and delayed ACKs.

use std::io::{self, Read, Write};

use oraclesize_runtime::journal::fnv1a64;

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"OSWP";

/// The frame format version this build writes and accepts.
pub const VERSION: u16 = 3;

/// Hard cap on payload size. Far above any real sweep message (a
/// 10⁵-cell result batch renders in the low tens of megabytes) while
/// keeping a corrupt length field from provoking a giant allocation.
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// Total header size in bytes.
pub const HEADER_LEN: usize = 20;

fn bad(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

/// Writes one frame with a single `write_all` and flushes it.
///
/// # Errors
///
/// Propagates I/O errors; payloads over [`MAX_PAYLOAD`] are rejected with
/// [`std::io::ErrorKind::InvalidData`] before anything is written.
pub fn write_frame(w: &mut impl Write, kind: u16, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_PAYLOAD)
        .ok_or_else(|| {
            bad(format!(
                "frame payload of {} bytes exceeds cap",
                payload.len()
            ))
        })?;
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&VERSION.to_be_bytes());
    frame.extend_from_slice(&kind.to_be_bytes());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(&fnv1a64(payload).to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame, validating magic, version, length, and digest.
///
/// # Errors
///
/// [`std::io::ErrorKind::UnexpectedEof`] on a cleanly closed peer;
/// [`std::io::ErrorKind::InvalidData`] on any header or digest violation;
/// other I/O errors propagate untouched.
pub fn read_frame(r: &mut impl Read) -> io::Result<(u16, Vec<u8>)> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    if header[0..4] != MAGIC {
        return Err(bad("frame magic mismatch (not an oraclesize peer?)"));
    }
    let version = u16::from_be_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(bad(format!(
            "frame version {version} (this build speaks {VERSION})"
        )));
    }
    let kind = u16::from_be_bytes([header[6], header[7]]);
    let len = u32::from_be_bytes([header[8], header[9], header[10], header[11]]);
    if len > MAX_PAYLOAD {
        return Err(bad(format!("frame announces {len} bytes, over the cap")));
    }
    let digest = u64::from_be_bytes([
        header[12], header[13], header[14], header[15], header[16], header[17], header[18],
        header[19],
    ]);
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    if fnv1a64(&payload) != digest {
        return Err(bad("frame digest mismatch (corrupt payload)"));
    }
    Ok((kind, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, b"{\"job\": 3}").unwrap();
        write_frame(&mut buf, 2, b"").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap(), (7, b"{\"job\": 3}".to_vec()));
        assert_eq!(read_frame(&mut r).unwrap(), (2, Vec::new()));
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn each_frame_is_one_write() {
        struct Counting(usize);
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0 += 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = Counting(0);
        write_frame(&mut w, 3, b"{\"job\": 1}").unwrap();
        write_frame(&mut w, 4, &[b' '; 4096]).unwrap();
        assert_eq!(w.0, 2);
    }

    #[test]
    fn corrupt_frames_are_invalid_data() {
        let mut good = Vec::new();
        write_frame(&mut good, 1, b"payload").unwrap();
        // Bad magic.
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            read_frame(&mut bad_magic.as_slice()).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
        // Bad version.
        let mut bad_version = good.clone();
        bad_version[5] = 9;
        assert_eq!(
            read_frame(&mut bad_version.as_slice()).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
        // Flipped payload bit → digest mismatch.
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert_eq!(
            read_frame(&mut flipped.as_slice()).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
        // Torn payload → unexpected EOF.
        let torn = &good[..good.len() - 3];
        assert_eq!(
            read_frame(&mut &torn[..]).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn oversized_payload_is_rejected_before_writing() {
        let mut header = [0u8; HEADER_LEN];
        header[0..4].copy_from_slice(&MAGIC);
        header[4..6].copy_from_slice(&VERSION.to_be_bytes());
        header[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_be_bytes());
        assert_eq!(
            read_frame(&mut header.as_slice()).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
    }
}
