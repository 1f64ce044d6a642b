//! Capture-once / replay-many: compact dynamic-instruction traces.
//!
//! The paper's methodology is trace-driven — the architectural instruction
//! stream is fixed while the timing model (predictor, confidence, recovery)
//! varies across a study. Re-running the functional [`Executor`] inline
//! inside every timing run therefore repeats identical work once per grid
//! cell. This module splits the two concerns:
//!
//! * [`Trace`] — a struct-of-arrays record of the dynamic stream, captured
//!   **once** per (program, length) from the executor, or opened in place
//!   from its serialized form (a heap buffer or a memory-mapped store
//!   entry) without copying the record sections.
//! * [`TraceCursor`] — the one replay iterator: it reconstructs the exact
//!   [`DynInst`] sequence from a `&Trace`, however the trace is held, with
//!   no register file, no sparse memory and no per-µop semantics.
//! * [`InstSource`] — the abstraction the cycle-level core consumes: both
//!   `Executor` (streaming, capture path) and `TraceCursor` (replay path)
//!   implement it, and the two produce byte-identical streams.
//!
//! # Memory footprint
//!
//! The layout exploits the µop encoding: `seq` is the record position,
//! `pc = index * 4` (µops are 4 bytes), `next_pc` defaults to the
//! fall-through and is stored only for diverging control flow, and the
//! optional payloads (result, effective address, store value) live in
//! dense side-streams gated by a per-record flag byte. A record costs
//! 5 bytes fixed (static index + flags) plus 8 bytes per present payload —
//! ≈ 14–22 bytes for typical ALU/branch mixes versus the 88-byte in-memory
//! [`DynInst`], so a 250 k-µop capture (the default sweep sizing plus
//! in-flight slack) is ≈ 4–6 MB per workload. [`Trace::approx_bytes`]
//! reports the concrete number.
//!
//! The sections are kept in their little-endian wire form in memory too,
//! so a capture serializes with plain copies and a serialized buffer
//! replays without decoding.
//!
//! # Examples
//!
//! ```
//! use vpsim_isa::{Executor, ProgramBuilder, Reg, Trace};
//!
//! let mut b = ProgramBuilder::new();
//! let (i, n) = (Reg::int(1), Reg::int(2));
//! b.load_imm(n, 10);
//! let top = b.bind_label();
//! b.addi(i, i, 1);
//! b.blt(i, n, top);
//! b.halt();
//! let program = b.build()?;
//!
//! // Capture once…
//! let trace = Trace::capture(&program, 1_000);
//! // …replay many times: the cursor yields the exact executor stream.
//! let replayed: Vec<_> = trace.cursor().collect();
//! let executed: Vec<_> = Executor::new(&program).collect();
//! assert_eq!(replayed, executed);
//! # Ok::<(), vpsim_isa::ProgramError>(())
//! ```

use crate::exec::{DynInst, Executor};
use crate::inst::{Inst, Opcode};
use crate::program::{Program, INST_BYTES};
use crate::reg::{Reg, NUM_ARCH_REGS};
use std::fmt;
use std::ops::Range;

/// A source of dynamic instructions for the cycle-level core.
///
/// Implemented by [`Executor`] (functional execution, streaming) and
/// [`TraceCursor`] (replay of a captured [`Trace`]). Both yield the same
/// stream for the same program, so a timing model driven through this
/// trait produces byte-identical results on either path.
pub trait InstSource {
    /// The next dynamic instruction, or `None` once the stream ends
    /// (program halted, fell off the end, or the trace is exhausted).
    fn next_inst(&mut self) -> Option<DynInst>;
}

impl InstSource for Executor<'_> {
    fn next_inst(&mut self) -> Option<DynInst> {
        self.next()
    }
}

impl InstSource for TraceCursor<'_> {
    fn next_inst(&mut self) -> Option<DynInst> {
        self.next()
    }
}

// Per-record flag bits.
const HAS_RESULT: u8 = 1 << 0;
const HAS_MEM_ADDR: u8 = 1 << 1;
const HAS_STORE_VALUE: u8 = 1 << 2;
const TAKEN: u8 = 1 << 3;
/// `next_pc != pc + 4`: the architectural successor is stored explicitly.
const DIVERGES: u8 = 1 << 4;
/// The flag bits that each carry one slot in the payload stream.
const PAYLOAD_BITS: u8 = HAS_RESULT | HAS_MEM_ADDR | HAS_STORE_VALUE | DIVERGES;

/// A captured dynamic instruction stream in struct-of-arrays form.
///
/// The static µop table is decoded; the three dynamic sections (record
/// index, flags, interleaved payload) stay in their little-endian wire
/// form and are held one of two ways:
///
/// * buffers grown in place by [`Trace::capture`];
/// * one validated serialized buffer handed to [`Trace::from_buffer`] —
///   a heap `Vec<u8>`, or any other byte container such as a memory
///   mapping of a store entry, which is then replayed without a copy.
///
/// Either way [`Trace::cursor`] replays through the same [`TraceCursor`],
/// and equality compares content, not how it is held.
///
/// Self-contained: the static µop table is copied in, so a trace outlives
/// the [`Program`] it came from and can be shared across threads (e.g. via
/// `Arc<Trace>`) without lifetime ties. The module docs walk through the
/// layout and footprint arithmetic.
pub struct Trace {
    /// Static µop table; record indices point into it.
    insts: Vec<Inst>,
    sections: Sections,
}

/// Storage of a trace's dynamic sections.
enum Sections {
    /// Grown in place by [`Trace::capture`].
    Captured {
        /// Static instruction index per record (`u32`, little-endian).
        index: Vec<u8>,
        /// Presence/outcome flag byte per record.
        flags: Vec<u8>,
        /// One interleaved stream of the optional payloads (`u64`,
        /// little-endian), in flag-bit order per record (result,
        /// effective address, store value, diverging `next_pc`) — replay
        /// consumes it strictly sequentially, so a cursor needs a single
        /// position and the prefetcher a single stream.
        payload: Vec<u8>,
    },
    /// A serialized trace validated by [`Trace::from_buffer`], with the
    /// byte ranges of its three dynamic sections.
    Serialized {
        bytes: Box<dyn AsRef<[u8]> + Send + Sync>,
        index: Range<usize>,
        flags: Range<usize>,
        payload: Range<usize>,
    },
}

/// The three dynamic sections (record index, flags, payload) as their
/// little-endian wire bytes.
type Parts<'a> = (&'a [u8], &'a [u8], &'a [u8]);

impl Trace {
    /// Capture up to `limit` dynamic instructions of `program` from a
    /// fresh [`Executor`] (fewer if the program halts first).
    ///
    /// A trace replayed into a timing model is byte-identical to inline
    /// execution as long as it covers every µop the model would fetch;
    /// for a run measuring `warmup + measure` commits that bound is
    /// `warmup + measure` plus the core's maximum in-flight capacity
    /// (`vpsim-uarch` exposes it as `CoreConfig::trace_budget`).
    pub fn capture(program: &Program, limit: u64) -> Trace {
        let (mut index, mut flags, mut payload) = (Vec::new(), Vec::new(), Vec::new());
        let limit = usize::try_from(limit).unwrap_or(usize::MAX);
        for di in Executor::new(program).take(limit) {
            debug_assert_eq!(di.seq, flags.len() as u64, "records must be dense from 0");
            let mut f = 0u8;
            let mut push = |bit: u8, value: u64| {
                f |= bit;
                payload.extend_from_slice(&value.to_le_bytes());
            };
            if let Some(v) = di.result {
                push(HAS_RESULT, v);
            }
            if let Some(a) = di.mem_addr {
                push(HAS_MEM_ADDR, a);
            }
            if let Some(v) = di.store_value {
                push(HAS_STORE_VALUE, v);
            }
            if di.next_pc != di.pc + INST_BYTES {
                push(DIVERGES, di.next_pc);
            }
            if di.taken {
                f |= TAKEN;
            }
            index.extend_from_slice(&di.index.to_le_bytes());
            flags.push(f);
        }
        Trace {
            insts: program.insts().to_vec(),
            sections: Sections::Captured { index, flags, payload },
        }
    }

    /// The record index, flag and payload sections, however they are held.
    fn parts(&self) -> Parts<'_> {
        match &self.sections {
            Sections::Captured { index, flags, payload } => (index, flags, payload),
            Sections::Serialized { bytes, index, flags, payload } => {
                let buf: &[u8] = (**bytes).as_ref();
                (&buf[index.clone()], &buf[flags.clone()], &buf[payload.clone()])
            }
        }
    }

    /// Number of dynamic instructions captured.
    pub fn len(&self) -> usize {
        self.parts().1.len()
    }

    /// `true` if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate footprint in bytes (the SoA sections plus the static
    /// µop table), whether the sections live on the heap or in a mapping.
    pub fn approx_bytes(&self) -> usize {
        let (index, flags, payload) = self.parts();
        self.insts.len() * std::mem::size_of::<Inst>() + index.len() + flags.len() + payload.len()
    }

    /// A replay iterator over the captured stream, starting at `seq` 0.
    pub fn cursor(&self) -> TraceCursor<'_> {
        let (index, flags, payload) = self.parts();
        TraceCursor { insts: &self.insts, index, flags, payload, pos: 0, payload_pos: 0 }
    }

    /// Rebuild a cursor from checkpointed `(pos, payload_pos)` coordinates
    /// in O(1) — the seek half of the sampling layer's serialized
    /// checkpoints.
    ///
    /// Each coordinate is bounds-checked on its own: a record position
    /// past the end or a payload position past the payload stream is an
    /// error. Whether the two agree with each other is *not* checked (that
    /// would cost a pass over the flags up to `pos`). A cursor resumed at
    /// in-range but mismatched coordinates — say, from another trace's
    /// checkpoint — replays a wrong stream and ends early once the payload
    /// stream runs dry; it never reads out of bounds or panics.
    pub fn cursor_resume(
        &self,
        pos: usize,
        payload_pos: usize,
    ) -> Result<TraceCursor<'_>, &'static str> {
        let mut cursor = self.cursor();
        if pos > cursor.flags.len() {
            return Err("checkpoint position past the end of the trace");
        }
        if payload_pos > cursor.payload.len() / 8 {
            return Err("checkpoint payload position past the payload stream");
        }
        cursor.pos = pos;
        cursor.payload_pos = payload_pos;
        Ok(cursor)
    }

    /// Serialize into the checksummed binary format: a magic/version
    /// header, the four SoA sections each prefixed with a little-endian
    /// `u64` element count, and a trailing [`fnv1a`] checksum over
    /// everything before it.
    ///
    /// [`Trace::from_bytes`] round-trips the result exactly:
    ///
    /// ```
    /// use vpsim_isa::{ProgramBuilder, Reg, Trace};
    /// let mut b = ProgramBuilder::new();
    /// b.load_imm(Reg::int(1), 7);
    /// b.halt();
    /// let trace = Trace::capture(&b.build()?, 100);
    /// assert_eq!(Trace::from_bytes(&trace.to_bytes()).unwrap(), trace);
    /// # Ok::<(), vpsim_isa::ProgramError>(())
    /// ```
    pub fn to_bytes(&self) -> Vec<u8> {
        let (index, flags, payload) = self.parts();
        let mut out = Vec::with_capacity(MAGIC.len() + self.approx_bytes() + 5 * 8);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.insts.len() as u64).to_le_bytes());
        for inst in &self.insts {
            out.push(inst.op.code());
            out.push(encode_reg(inst.dst));
            out.push(encode_reg(inst.src1));
            out.push(encode_reg(inst.src2));
            out.extend_from_slice(&inst.imm.to_le_bytes());
        }
        out.extend_from_slice(&(flags.len() as u64).to_le_bytes());
        out.extend_from_slice(index);
        out.extend_from_slice(&(flags.len() as u64).to_le_bytes());
        out.extend_from_slice(flags);
        out.extend_from_slice(&(payload.len() as u64 / 8).to_le_bytes());
        out.extend_from_slice(payload);
        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Deserialize a trace produced by [`Trace::to_bytes`] into a heap
    /// copy of `bytes` — [`Trace::from_buffer`] over `bytes.to_vec()`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Trace, TraceDecodeError> {
        Trace::from_buffer(bytes.to_vec())
    }

    /// Open a serialized trace (produced by [`Trace::to_bytes`]) in place:
    /// `bytes` becomes the trace's storage and the record sections are
    /// replayed straight out of it, never copied. `bytes` is any byte
    /// container — a `Vec<u8>`, or a memory mapping of a store entry.
    ///
    /// All validation happens here, once. Every failure mode is an error,
    /// never a panic: bad magic, any truncation or trailing garbage,
    /// checksum mismatch (a single flipped bit anywhere is caught), unknown
    /// opcode/register codes, and cross-section inconsistencies (record
    /// counts that disagree, a record pointing past the µop table, a
    /// payload stream whose length does not match the flag bits). Only
    /// the small static µop table is decoded.
    pub fn from_buffer(
        bytes: impl AsRef<[u8]> + Send + Sync + 'static,
    ) -> Result<Trace, TraceDecodeError> {
        let (insts, [index, flags, payload]) = parse(bytes.as_ref())?;
        let sections = Sections::Serialized { bytes: Box::new(bytes), index, flags, payload };
        Ok(Trace { insts, sections })
    }
}

/// Validate a serialized trace and locate its dynamic sections: the
/// decoded static table plus the byte ranges of the index, flag and
/// payload sections.
fn parse(buf: &[u8]) -> Result<(Vec<Inst>, [Range<usize>; 3]), TraceDecodeError> {
    use TraceDecodeError::*;
    let mut r = Reader { bytes: buf, pos: 0 };
    if r.take(MAGIC.len())? != MAGIC {
        return Err(BadMagic);
    }
    // The static table is decoded in place with `chunks_exact` — exactly
    // one allocation; the dynamic sections are only bounds-checked and
    // recorded as ranges.
    let n_insts = r.len_prefix(12)?;
    let inst_bytes = r.take(n_insts * 12)?;
    let mut insts = Vec::with_capacity(n_insts);
    for rec in inst_bytes.chunks_exact(12) {
        insts.push(Inst {
            op: Opcode::from_code(rec[0]).ok_or(BadOpcode(rec[0]))?,
            dst: decode_reg(rec[1])?,
            src1: decode_reg(rec[2])?,
            src2: decode_reg(rec[3])?,
            imm: i64::from_le_bytes(rec[4..12].try_into().unwrap()),
        });
    }
    let n_index = r.len_prefix(4)?;
    let index_start = r.pos;
    let index_bytes = r.take(n_index * 4)?;
    let index = index_start..r.pos;
    let n_flags = r.len_prefix(1)?;
    let flags_start = r.pos;
    let flag_bytes = r.take(n_flags)?;
    let flags = flags_start..r.pos;
    let n_payload = r.len_prefix(8)?;
    let payload_start = r.pos;
    r.take(n_payload * 8)?;
    let payload = payload_start..r.pos;
    let body_end = r.pos;
    let found = u64::from_le_bytes(r.take(8)?.try_into().unwrap());
    if r.pos != buf.len() {
        return Err(TrailingBytes(buf.len() - r.pos));
    }
    let expected = fnv1a(&buf[..body_end]);
    if found != expected {
        return Err(ChecksumMismatch { expected, found });
    }
    // Cross-section consistency: a structurally broken (but checksum-valid)
    // buffer is rejected here rather than replayed.
    if n_index != n_flags {
        return Err(Inconsistent("record index and flag sections differ in length"));
    }
    if index_bytes
        .chunks_exact(4)
        .any(|c| u32::from_le_bytes(c.try_into().unwrap()) as usize >= insts.len())
    {
        return Err(Inconsistent("record points past the static µop table"));
    }
    let want_payload: usize =
        flag_bytes.iter().map(|f| (f & PAYLOAD_BITS).count_ones()).sum::<u32>() as usize;
    if n_payload != want_payload {
        return Err(Inconsistent("payload stream length does not match flag bits"));
    }
    Ok((insts, [index, flags, payload]))
}

impl PartialEq for Trace {
    fn eq(&self, other: &Trace) -> bool {
        self.insts == other.insts && self.parts() == other.parts()
    }
}

impl Eq for Trace {}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (_, flags, payload) = self.parts();
        f.debug_struct("Trace")
            .field("insts", &self.insts.len())
            .field("records", &flags.len())
            .field("payload_slots", &(payload.len() / 8))
            .field("serialized", &matches!(self.sections, Sections::Serialized { .. }))
            .finish()
    }
}

/// Magic + format version prefix of the [`Trace`] binary form. Bump the
/// trailing digit on any incompatible layout change.
const MAGIC: &[u8; 8] = b"vpstrc1\n";

/// Register slot encoding: `0xFF` is `None`, anything else a flat index.
const NO_REG: u8 = 0xFF;

fn encode_reg(reg: Option<Reg>) -> u8 {
    reg.map_or(NO_REG, |r| r.index() as u8)
}

fn decode_reg(code: u8) -> Result<Option<Reg>, TraceDecodeError> {
    match code {
        NO_REG => Ok(None),
        n if (n as usize) < NUM_ARCH_REGS => Ok(Some(Reg::from_index(n as usize))),
        n => Err(TraceDecodeError::BadReg(n)),
    }
}

/// FNV-1a 64 over a byte slice — the integrity checksum that ends every
/// serialized format in the workspace (traces, run results, sampling
/// checkpoints, store entries). Not cryptographic; it guards against
/// storage corruption (bit flips, truncation), not adversaries.
///
/// ```
/// assert_eq!(vpsim_isa::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
/// assert_ne!(vpsim_isa::fnv1a(b"a"), vpsim_isa::fnv1a(b"b"));
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Bounds-checked little-endian reader over the serialized buffer.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceDecodeError> {
        let end = self.pos.checked_add(n).ok_or(TraceDecodeError::Truncated)?;
        let slice = self.bytes.get(self.pos..end).ok_or(TraceDecodeError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// A section's element count, validated against the bytes actually
    /// remaining (`elem_size` bytes per element) — so a corrupt count can
    /// never drive a huge allocation before the bounds check.
    fn len_prefix(&mut self, elem_size: usize) -> Result<usize, TraceDecodeError> {
        let n = u64::from_le_bytes(self.take(8)?.try_into().unwrap());
        let n = usize::try_from(n).map_err(|_| TraceDecodeError::Truncated)?;
        let need = n.checked_mul(elem_size).ok_or(TraceDecodeError::Truncated)?;
        if need > self.bytes.len() - self.pos {
            return Err(TraceDecodeError::Truncated);
        }
        Ok(n)
    }
}

/// Why [`Trace::from_buffer`] rejected a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceDecodeError {
    /// The buffer does not start with the trace magic/version prefix.
    BadMagic,
    /// The buffer ended before a declared section did.
    Truncated,
    /// Bytes remain after the checksum (count attached).
    TrailingBytes(usize),
    /// The FNV-1a 64 integrity checksum did not match the body.
    ChecksumMismatch {
        /// Checksum recomputed from the body.
        expected: u64,
        /// Checksum stored in the buffer.
        found: u64,
    },
    /// An opcode byte outside [`Opcode::ALL`].
    BadOpcode(u8),
    /// A register byte that is neither `0xFF` (none) nor a valid index.
    BadReg(u8),
    /// Sections are individually well-formed but mutually inconsistent.
    Inconsistent(&'static str),
}

impl fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceDecodeError::BadMagic => write!(f, "bad magic (not a serialized trace)"),
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

/// Replay iterator over a [`Trace`]: yields the captured [`DynInst`]
/// stream exactly, in order, at a few loads per µop, reading the record
/// sections in their little-endian form wherever they live.
///
/// Obtain one with [`Trace::cursor`] or [`Trace::cursor_resume`]; any
/// number of cursors may replay the same shared trace concurrently.
#[derive(Debug, Clone)]
pub struct TraceCursor<'a> {
    insts: &'a [Inst],
    index: &'a [u8],
    flags: &'a [u8],
    payload: &'a [u8],
    /// Next record position (== the `seq` it will yield).
    pos: usize,
    /// Next unconsumed slot of the interleaved payload stream.
    payload_pos: usize,
}

impl TraceCursor<'_> {
    /// Record position — the `seq` the next [`InstSource::next_inst`] call
    /// will yield.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Position in the interleaved payload stream. Serialize it next to
    /// [`TraceCursor::pos`] in a checkpoint and hand both back to
    /// [`Trace::cursor_resume`] to seek in O(1).
    pub fn payload_pos(&self) -> usize {
        self.payload_pos
    }
}

impl Iterator for TraceCursor<'_> {
    type Item = DynInst;

    #[inline]
    fn next(&mut self) -> Option<DynInst> {
        let flags = *self.flags.get(self.pos)?;
        let at = self.pos * 4;
        let index = u32::from_le_bytes(self.index.get(at..at + 4)?.try_into().ok()?);
        let inst = *self.insts.get(index as usize)?;
        let pc = index as u64 * INST_BYTES;
        // Payloads were pushed in flag-bit order; consume them the same
        // way from the single sequential stream. A stream that runs dry
        // (coordinates resumed out of step with the flags) ends replay.
        let payload = self.payload;
        let mut p = self.payload_pos;
        let mut pull = |bit: u8| -> Option<Option<u64>> {
            if flags & bit == 0 {
                return Some(None);
            }
            let v = u64::from_le_bytes(payload.get(p * 8..p * 8 + 8)?.try_into().ok()?);
            p += 1;
            Some(Some(v))
        };
        let result = pull(HAS_RESULT)?;
        let mem_addr = pull(HAS_MEM_ADDR)?;
        let store_value = pull(HAS_STORE_VALUE)?;
        let next_pc = pull(DIVERGES)?.unwrap_or(pc + INST_BYTES);
        self.payload_pos = p;
        let seq = self.pos as u64;
        self.pos += 1;
        Some(DynInst {
            seq,
            pc,
            index,
            inst,
            result,
            mem_addr,
            store_value,
            taken: flags & TAKEN != 0,
            next_pc,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.flags.len() - self.pos;
        (left, Some(left))
    }
}

impl ExactSizeIterator for TraceCursor<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::reg::Reg;

    /// A program exercising every record shape: ALU, loads, stores, taken
    /// and not-taken branches, calls/returns, an indirect jump, and halt.
    fn mixed_program() -> Program {
        let mut b = ProgramBuilder::new();
        let (i, n, acc, addr, t) =
            (Reg::int(1), Reg::int(2), Reg::int(3), Reg::int(4), Reg::int(5));
        let lr = Reg::int(31);
        b.load_imm(n, 40);
        b.load_imm(addr, 0x1000);
        let f = b.label();
        let top = b.bind_label();
        b.add(acc, acc, i);
        b.store(addr, acc, 0);
        b.load(t, addr, 0);
        b.call(lr, f);
        b.addi(i, i, 1);
        b.blt(i, n, top);
        b.halt();
        b.bind(f);
        b.ret(lr);
        b.build().unwrap()
    }

    #[test]
    fn capture_then_replay_is_the_executor_stream() {
        let p = mixed_program();
        let executed: Vec<_> = Executor::new(&p).collect();
        let trace = Trace::capture(&p, u64::MAX);
        assert_eq!(trace.len(), executed.len());
        let replayed: Vec<_> = trace.cursor().collect();
        assert_eq!(replayed, executed);
    }

    #[test]
    fn truncated_capture_is_a_prefix() {
        let p = mixed_program();
        let executed: Vec<_> = Executor::new(&p).collect();
        for limit in [0usize, 1, 7, 50] {
            let trace = Trace::capture(&p, limit as u64);
            assert_eq!(trace.len(), limit.min(executed.len()));
            let replayed: Vec<_> = trace.cursor().collect();
            assert_eq!(replayed[..], executed[..trace.len()]);
        }
    }

    #[test]
    fn cursor_is_restartable_and_sized() {
        let p = mixed_program();
        let trace = Trace::capture(&p, 25);
        let first: Vec<_> = trace.cursor().collect();
        let mut cursor = trace.cursor();
        assert_eq!(cursor.len(), 25);
        cursor.next();
        assert_eq!(cursor.len(), 24);
        let second: Vec<_> = trace.cursor().collect();
        assert_eq!(first, second, "cursors are independent");
    }

    #[test]
    fn inst_source_paths_agree() {
        let p = mixed_program();
        let trace = Trace::capture(&p, u64::MAX);
        let mut exec = Executor::new(&p);
        let mut cursor = trace.cursor();
        loop {
            let (a, b) = (exec.next_inst(), cursor.next_inst());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn footprint_is_compact_and_reported() {
        let p = mixed_program();
        let trace = Trace::capture(&p, u64::MAX);
        let bytes = trace.approx_bytes();
        assert!(bytes > 0);
        // The SoA form must undercut materializing the DynInst stream.
        let materialized = trace.len() * std::mem::size_of::<DynInst>();
        assert!(bytes < materialized, "{bytes} vs {materialized}");
    }

    #[test]
    fn serialized_trace_round_trips_exactly() {
        let p = mixed_program();
        for limit in [0u64, 1, 7, u64::MAX] {
            let trace = Trace::capture(&p, limit);
            let bytes = trace.to_bytes();
            let back = Trace::from_bytes(&bytes).unwrap();
            assert_eq!(back, trace, "limit {limit}");
            let replayed: Vec<_> = back.cursor().collect();
            let original: Vec<_> = trace.cursor().collect();
            assert_eq!(replayed, original, "limit {limit}");
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let p = mixed_program();
        let bytes = Trace::capture(&p, 30).to_bytes();
        // Flip one bit per byte across the whole buffer: whatever the
        // position (magic, section, checksum itself), decode must fail.
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << (pos % 8);
            assert!(Trace::from_bytes(&corrupt).is_err(), "flip at byte {pos} went undetected");
        }
    }

    #[test]
    fn truncation_and_garbage_are_errors() {
        let p = mixed_program();
        let bytes = Trace::capture(&p, 30).to_bytes();
        for cut in [0, 1, MAGIC.len(), bytes.len() / 2, bytes.len() - 1] {
            assert!(Trace::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert_eq!(Trace::from_bytes(&extended), Err(TraceDecodeError::TrailingBytes(1)));
        assert_eq!(Trace::from_bytes(b"not a trace at all"), Err(TraceDecodeError::BadMagic));
    }

    #[test]
    fn checksum_error_reports_both_values() {
        let p = mixed_program();
        let mut bytes = Trace::capture(&p, 10).to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        match Trace::from_bytes(&bytes) {
            Err(TraceDecodeError::ChecksumMismatch { expected, found }) => {
                assert_ne!(expected, found);
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn cursor_resume_restores_checkpointed_coordinates() {
        let p = mixed_program();
        let captured = Trace::capture(&p, u64::MAX);
        let serialized = Trace::from_bytes(&captured.to_bytes()).unwrap();
        for trace in [&captured, &serialized] {
            let mut cursor = trace.cursor();
            for _ in 0..trace.len() / 2 {
                cursor.next();
            }
            let (pos, payload_pos) = (cursor.pos(), cursor.payload_pos());
            let resumed = trace.cursor_resume(pos, payload_pos).unwrap();
            assert_eq!(resumed.collect::<Vec<_>>(), cursor.collect::<Vec<_>>());
            // Out-of-bounds coordinates are rejected, never replayed.
            assert!(trace.cursor_resume(trace.len() + 1, 0).is_err());
            assert!(trace.cursor_resume(0, usize::MAX).is_err());
        }
    }

    #[test]
    fn cursor_resume_at_mismatched_coordinates_ends_without_panicking() {
        let p = mixed_program();
        let captured = Trace::capture(&p, u64::MAX);
        let serialized = Trace::from_bytes(&captured.to_bytes()).unwrap();
        for trace in [&captured, &serialized] {
            let mut walked = trace.cursor();
            walked.by_ref().for_each(drop);
            let payload_end = walked.payload_pos();
            // Each coordinate is in range, but together they disagree: at
            // record 0 the payload stream is already exhausted.
            let replayed = trace.cursor_resume(0, payload_end).unwrap().count();
            assert!(replayed < trace.len(), "replay ends once the payload stream runs dry");
            // Every other in-range pairing ends too, without panicking.
            for pos in 0..=trace.len() {
                for payload_pos in [0, payload_end / 2, payload_end] {
                    trace.cursor_resume(pos, payload_pos).unwrap().for_each(drop);
                }
            }
        }
    }

    #[test]
    fn empty_capture_is_empty() {
        let mut b = ProgramBuilder::new();
        b.halt();
        let p = b.build().unwrap();
        let trace = Trace::capture(&p, 0);
        assert!(trace.is_empty());
        assert_eq!(trace.cursor().next(), None);
    }

    #[test]
    fn serialized_trace_replays_the_captured_stream_in_place() {
        let p = mixed_program();
        for limit in [0u64, 1, 7, u64::MAX] {
            let captured = Trace::capture(&p, limit);
            let serialized = Trace::from_buffer(captured.to_bytes()).unwrap();
            assert_eq!(serialized, captured, "limit {limit}");
            assert_eq!(serialized.len(), captured.len());
            assert_eq!(serialized.approx_bytes(), captured.approx_bytes());
            let mut cursor = serialized.cursor();
            assert_eq!(cursor.len(), captured.len());
            // The InstSource path agrees with the Iterator path, and two
            // simultaneous cursors over one buffer replay independently.
            let mut other = serialized.cursor();
            let mut reference = captured.cursor();
            loop {
                let (a, b) = (cursor.next_inst(), reference.next_inst());
                assert_eq!(a, b, "limit {limit}");
                assert_eq!(other.next(), b);
                if a.is_none() {
                    break;
                }
            }
            // A serialized trace re-serializes to the same bytes.
            assert_eq!(serialized.to_bytes(), captured.to_bytes());
        }
    }
}
