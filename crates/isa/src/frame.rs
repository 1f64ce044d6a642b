//! The one binary container for traces (`vpstrc2`) and sampling
//! checkpoints (`vpstate2`). A trace-store entry is a trace's frame
//! verbatim, with no outer wrapper.
//!
//! # Layout
//!
//! All integers are little-endian `u64`:
//!
//! ```text
//! magic     8 bytes   format name + version, e.g. b"vpstrc2\n"
//! count     u64       number of sections
//! section   u64 len, then len bytes      (repeated count times)
//! checksum  u64       checksum() of every byte before it
//! ```
//!
//! A format is a magic plus a fixed number of sections; what a section
//! holds is the format's business. [`encode`] writes a frame in one
//! exactly-sized allocation, and [`decode`] validates one and returns the
//! byte ranges of its sections without allocating or copying, so a
//! format can keep its sections in place (a trace replays straight out of
//! a memory-mapped store entry).
//!
//! [`decode`] rejects, as an error and never a panic, a wrong magic (which
//! is how an entry written by an older format version is turned away), a
//! wrong section count, any section length running past the buffer,
//! bytes after the checksum, and a checksum mismatch. It reads the
//! payload exactly once, for the checksum.
//!
//! # Examples
//!
//! ```
//! use vpsim_isa::frame;
//!
//! let bytes = frame::encode(b"example\n", &[b"head", b"body bytes"]);
//! let [head, body] = frame::decode(b"example\n", &bytes).unwrap();
//! assert_eq!(&bytes[head], b"head");
//! assert_eq!(&bytes[body], b"body bytes");
//! assert!(frame::decode::<2>(b"other\n\n\n", &bytes).is_err());
//! ```

use std::fmt;
use std::ops::Range;

/// Bytes of the magic, and of every integer in the frame.
const WORD: usize = 8;

/// Serialize `sections` into a frame tagged `magic`.
pub fn encode(magic: &[u8; 8], sections: &[&[u8]]) -> Vec<u8> {
    let body: usize = sections.iter().map(|s| WORD + s.len()).sum();
    let mut out = Vec::with_capacity(3 * WORD + body);
    out.extend_from_slice(magic);
    out.extend_from_slice(&(sections.len() as u64).to_le_bytes());
    for section in sections {
        out.extend_from_slice(&(section.len() as u64).to_le_bytes());
        out.extend_from_slice(section);
    }
    out.extend_from_slice(&checksum(&out).to_le_bytes());
    out
}

/// Validate a frame of exactly `N` sections tagged `magic` and return the
/// byte range of each section within `bytes`. See the [module docs](self)
/// for what is rejected.
pub fn decode<const N: usize>(
    magic: &[u8; 8],
    bytes: &[u8],
) -> Result<[Range<usize>; N], TraceDecodeError> {
    use TraceDecodeError::*;
    let word = |at: usize| -> Result<u64, TraceDecodeError> {
        let w = bytes.get(at..at.checked_add(WORD).ok_or(Truncated)?).ok_or(Truncated)?;
        Ok(u64::from_le_bytes(w.try_into().unwrap()))
    };
    match bytes.get(..WORD) {
        None => return Err(Truncated),
        Some(m) if m != magic => return Err(BadMagic),
        Some(_) => {}
    }
    if word(WORD)? != N as u64 {
        return Err(Inconsistent("wrong section count"));
    }
    let mut at = 2 * WORD;
    let mut ranges = [(); N].map(|()| 0..0);
    for range in &mut ranges {
        let len = usize::try_from(word(at)?).map_err(|_| Truncated)?;
        let start = at + WORD;
        let end = start.checked_add(len).filter(|&end| end <= bytes.len()).ok_or(Truncated)?;
        *range = start..end;
        at = end;
    }
    let found = word(at)?;
    let end = at + WORD;
    if end != bytes.len() {
        return Err(TrailingBytes(bytes.len() - end));
    }
    let expected = checksum(&bytes[..at]);
    if found != expected {
        return Err(ChecksumMismatch { expected, found });
    }
    Ok(ranges)
}

/// The odd multiplier of every [`checksum`] step.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// One checksum step. For a fixed state it is a bijection of the word,
/// and for a fixed word a bijection of the state — so two inputs that
/// differ in exactly one word always end in different states.
#[inline(always)]
fn mix(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(K).rotate_left(29)
}

/// The integrity checksum that ends every frame: `bytes` consumed in
/// 8-byte little-endian lanes through an xor-multiply-rotate step, then
/// the zero-padded tail and finally the length. Any change confined to
/// one 8-byte word — every single-bit flip among them — is always
/// caught, and the length step catches truncation to a zero tail. Not
/// cryptographic: it guards against storage corruption, not adversaries.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(WORD);
    let mut state = K;
    for w in &mut words {
        state = mix(state, u64::from_le_bytes(w.try_into().unwrap()));
    }
    let mut tail = [0u8; WORD];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    state = mix(state, u64::from_le_bytes(tail));
    mix(state, bytes.len() as u64)
}

/// Why a serialized trace, run result or checkpoint was rejected: the
/// frame's structural errors plus the formats' own semantic ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceDecodeError {
    /// The buffer does not start with the expected magic/version prefix.
    BadMagic,
    /// The buffer ended before a declared section did.
    Truncated,
    /// Bytes remain after the checksum (count attached).
    TrailingBytes(usize),
    /// The integrity checksum did not match the bytes before it.
    ChecksumMismatch {
        /// Checksum recomputed from the bytes.
        expected: u64,
        /// Checksum stored in the buffer.
        found: u64,
    },
    /// An opcode byte outside [`crate::Opcode::ALL`].
    BadOpcode(u8),
    /// A register byte that is neither `0xFF` (none) nor a valid index.
    BadReg(u8),
    /// Sections are individually well-formed but wrong in number, size or
    /// mutual consistency.
    Inconsistent(&'static str),
}

impl fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceDecodeError::BadMagic => write!(f, "bad magic (wrong format or version)"),
            TraceDecodeError::Truncated => write!(f, "truncated buffer"),
            TraceDecodeError::TrailingBytes(n) => {
                write!(f, "{n} trailing byte(s) after checksum")
            }
            TraceDecodeError::ChecksumMismatch { expected, found } => {
                write!(f, "checksum mismatch: computed {expected:#018x}, stored {found:#018x}")
            }
            TraceDecodeError::BadOpcode(code) => write!(f, "unknown opcode code {code}"),
            TraceDecodeError::BadReg(code) => write!(f, "unknown register code {code}"),
            TraceDecodeError::Inconsistent(why) => write!(f, "inconsistent sections: {why}"),
        }
    }
}

impl std::error::Error for TraceDecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"testfrm\n";

    /// Three sections of awkward lengths, including an empty one.
    fn sample() -> Vec<u8> {
        let long: Vec<u8> = (0..37u8).collect();
        encode(MAGIC, &[b"abc", b"", &long])
    }

    #[test]
    fn sections_round_trip_in_place() {
        let bytes = sample();
        let [a, b, c] = decode(MAGIC, &bytes).unwrap();
        assert_eq!(&bytes[a], b"abc");
        assert!(b.is_empty());
        assert_eq!(bytes[c].to_vec(), (0..37u8).collect::<Vec<_>>());
        assert_eq!(decode::<0>(MAGIC, &encode(MAGIC, &[])), Ok([]));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample();
        // Every bit of every byte: magic, count, lengths, sections and the
        // checksum itself.
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= 1 << bit;
                assert!(decode::<3>(MAGIC, &corrupt).is_err(), "flip at byte {pos} bit {bit}");
            }
        }
    }

    #[test]
    fn checksum_error_reports_both_values() {
        let mut bytes = sample();
        let last_section_byte = bytes.len() - WORD - 1;
        bytes[last_section_byte] ^= 0x40;
        match decode::<3>(MAGIC, &bytes) {
            Err(TraceDecodeError::ChecksumMismatch { expected, found }) => {
                assert_ne!(expected, found);
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn structural_damage_is_an_error() {
        use TraceDecodeError::*;
        let bytes = sample();
        for cut in 0..bytes.len() {
            assert!(decode::<3>(MAGIC, &bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert_eq!(decode::<3>(MAGIC, &extended), Err(TrailingBytes(1)));
        assert_eq!(decode::<3>(b"vpstrc1\n", &bytes), Err(BadMagic));
        assert!(matches!(decode::<2>(MAGIC, &bytes), Err(Inconsistent(_))));
        // A forged length that runs past the buffer, even one that
        // overflows `usize` arithmetic, is a clean error.
        for forged in [u64::MAX, u64::MAX - 7, bytes.len() as u64] {
            let mut long = bytes.clone();
            long[2 * WORD..3 * WORD].copy_from_slice(&forged.to_le_bytes());
            assert_eq!(decode::<3>(MAGIC, &long), Err(Truncated));
        }
    }

    #[test]
    fn checksum_covers_the_tail_and_the_length() {
        assert_ne!(checksum(b""), checksum(&[0]));
        assert_ne!(checksum(&[0; 8]), checksum(&[0; 9]));
        assert_ne!(checksum(b"abcdefghi"), checksum(b"abcdefghj"));
    }
}
