//! A tiny byte-stream writer/reader pair for microarchitectural state
//! checkpoints (the sampling layer's `vpstate2` format).
//!
//! Structures that participate in checkpointing expose
//! `save_state(&self, &mut StateWriter)` / `load_state(&mut self, &mut
//! StateReader) -> Result<(), String>` built on these primitives. The
//! format is deliberately dumb: fixed-width little-endian fields appended
//! in declaration order, no tags, no self-description — geometry is
//! reconstructed from configuration, never from the byte stream, and every
//! `load_state` validates the stream against the geometry it already has.
//! Framing integrity (magic, length, checksum) belongs to the container
//! that embeds the state blobs, not to this layer.
//!
//! # Examples
//!
//! ```
//! use vpsim_core::state::{StateReader, StateWriter};
//!
//! let mut w = StateWriter::new();
//! w.u64(0xDEAD_BEEF);
//! w.u8(7);
//! let bytes = w.into_bytes();
//! let mut r = StateReader::new(&bytes);
//! assert_eq!(r.u64().unwrap(), 0xDEAD_BEEF);
//! assert_eq!(r.u8().unwrap(), 7);
//! assert!(r.finish().is_ok());
//! ```

/// Appends fixed-width little-endian fields to a growable buffer.
#[derive(Debug, Default)]
pub struct StateWriter {
    bytes: Vec<u8>,
}

impl StateWriter {
    /// An empty writer.
    pub fn new() -> Self {
        StateWriter::default()
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    /// Append a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.bytes.push(v as u8);
    }

    /// Append a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i8` as its two's-complement byte.
    pub fn i8(&mut self, v: i8) {
        self.bytes.push(v as u8);
    }

    /// Append a raw byte slice verbatim.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The accumulated byte stream.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Borrow the accumulated bytes (e.g. to checksum before framing).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Consumes fixed-width little-endian fields from a byte slice, with every
/// read bounds-checked — a truncated or oversized stream is an error,
/// never a panic.
#[derive(Debug)]
pub struct StateReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        StateReader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| format!("state stream truncated at byte {}", self.pos))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Read a `bool` byte; any value other than 0 or 1 is an error.
    pub fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("bad bool byte {other} in state stream")),
        }
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `i8`.
    pub fn i8(&mut self) -> Result<i8, String> {
        Ok(self.u8()? as i8)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Assert the stream was consumed exactly.
    pub fn finish(&self) -> Result<(), String> {
        if self.remaining() != 0 {
            return Err(format!("{} trailing byte(s) in state stream", self.remaining()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_field_width() {
        let mut w = StateWriter::new();
        w.u8(0xAB);
        w.bool(true);
        w.bool(false);
        w.u16(0x1234);
        w.u64(u64::MAX);
        w.i8(-5);
        w.raw(&[1, 2, 3]);
        assert_eq!(w.len(), 1 + 1 + 1 + 2 + 8 + 1 + 3);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i8().unwrap(), -5);
        assert_eq!(r.remaining(), 3);
    }

    #[test]
    fn truncation_and_trailing_bytes_are_errors() {
        let mut r = StateReader::new(&[1, 2]);
        assert!(r.u64().is_err());
        let mut r = StateReader::new(&[1, 2, 3]);
        r.u8().unwrap();
        assert!(r.finish().unwrap_err().contains("2 trailing"));
        let mut r = StateReader::new(&[9]);
        assert!(r.bool().unwrap_err().contains("bad bool"));
    }
}
