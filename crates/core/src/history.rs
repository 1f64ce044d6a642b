//! Global branch history and path history.
//!
//! VTAGE is "the first hardware value predictor to leverage a long global
//! branch history and the path history" (§1). Both histories are maintained
//! speculatively by the pipeline front-end and checkpointed/restored on
//! squashes, so the state is a small `Copy` struct: [`HistoryState`].
//!
//! TAGE and VTAGE index their tables with XOR-folds of these histories
//! ([`fold`]). Hardware keeps each global-history fold in a circular shift
//! register that advances by one bit per branch (Seznec & Michaud, JILP
//! 2006); [`FoldedHistory`] is that register file. Each predictor owns one
//! and asks it for the folds of whatever history it is handed, so the
//! checkpointed state stays the 32-byte [`HistoryState`] alone.

/// Speculative control-flow history carried by the front-end.
///
/// * `ghist` — global direction history: one bit per conditional branch,
///   most recent in bit 0 (up to 128 bits, comfortably above VTAGE's maximum
///   64-bit history length).
/// * `path` — path history: 3 low PC bits of every control-flow µop,
///   most recent in the low bits.
///
/// The struct is `Copy` so ROB entries can checkpoint it for squash
/// recovery at negligible cost.
///
/// # Examples
///
/// ```
/// use vpsim_core::history::HistoryState;
/// let mut h = HistoryState::default();
/// h.push_branch(0x40, true);
/// h.push_branch(0x80, false);
/// assert_eq!(h.ghist & 0b11, 0b10); // most recent outcome in bit 0
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct HistoryState {
    /// Global direction history, youngest outcome in bit 0.
    pub ghist: u128,
    /// Path history (3 bits of each control µop's PC), youngest in bits 0–2.
    pub path: u64,
}

impl HistoryState {
    /// Record a conditional branch outcome (updates both histories).
    pub fn push_branch(&mut self, pc: u64, taken: bool) {
        self.ghist = (self.ghist << 1) | taken as u128;
        self.push_path(pc);
    }

    /// Record an unconditional control-flow µop (jump/call/return): only the
    /// path history observes it.
    pub fn push_path(&mut self, pc: u64) {
        self.path = (self.path << 3) | ((pc >> 2) & 0b111);
    }
}

/// Fold the low `len` bits of `hist` into `out_bits` bits by XOR-ing
/// consecutive `out_bits`-wide chunks (the classic TAGE folded-history
/// function). This is the definition [`FoldedHistory`] maintains
/// incrementally; it computes the fold from scratch, which the predictors
/// need for path-history folds and after a history jump (a squash or a
/// checkpoint restore).
///
/// `out_bits` must be in `1..=63`. A `len` of 0 folds to 0.
///
/// # Examples
///
/// ```
/// use vpsim_core::history::fold;
/// // 8 bits folded into 4: high nibble XOR low nibble.
/// assert_eq!(fold(0b1010_0110, 8, 4), 0b1100);
/// ```
pub fn fold(hist: u128, len: u32, out_bits: u32) -> u64 {
    debug_assert!((1..64).contains(&out_bits));
    if len == 0 {
        return 0;
    }
    let mask = (1u64 << out_bits) - 1;
    // XOR is associative and commutative, so the chunk XOR is computed as
    // a shift-doubling tree rather than a serial chunk loop: after stages
    // `h ^= h >> b`, `h ^= h >> 2b`, … the low chunk holds the XOR of the
    // first 2ᵏ chunks, and the stages stop once 2ᵏ chunks cover the whole
    // width (the last shift is < width, so coverage = 2 × last shift ≥
    // width). Bit-identical to folding chunk by chunk, in O(log) dependent
    // steps instead of O(len / out_bits). Histories up to 64 bits (most
    // components) fold in native-width arithmetic.
    if len <= 64 {
        let keep = if len == 64 { u64::MAX } else { (1u64 << len) - 1 };
        let mut h = (hist as u64) & keep;
        let mut shift = out_bits;
        while shift < 64 {
            h ^= h >> shift;
            shift <<= 1;
        }
        return h & mask;
    }
    let mut h = if len >= 128 { hist } else { hist & ((1u128 << len) - 1) };
    let mut shift = out_bits;
    while shift < 128 {
        h ^= h >> shift;
        shift <<= 1;
    }
    h as u64 & mask
}

/// Folds of one global history at up to `N` (length, width) pairs, kept
/// as circular shift registers.
///
/// [`FoldedHistory::folds`] returns `fold(ghist, len, bits)` for every
/// registered pair. When `ghist` is the previous call's history with one
/// branch pushed ([`HistoryState::push_branch`]), each register advances
/// in O(1): rotate left by one, XOR in the new bit at bit 0, XOR out the
/// bit leaving the window at position `len % bits`. The same history again
/// costs nothing, and any other history (a squash, a checkpoint restore, a
/// skipped branch) is refolded with [`fold`]. The result is therefore a
/// pure function of `ghist`, whatever the call order; debug builds check
/// every returned fold against [`fold`].
///
/// Lengths above 128 fold as [`fold`] folds them: as 128, the whole
/// register.
///
/// # Examples
///
/// ```
/// use vpsim_core::history::{fold, FoldedHistory, HistoryState};
/// let mut folded = FoldedHistory::<4>::new();
/// let slot = folded.slot(12, 5);
/// let mut h = HistoryState::default();
/// for taken in [true, false, true, true] {
///     h.push_branch(0x40, taken);
///     assert_eq!(folded.folds(h.ghist)[slot], fold(h.ghist, 12, 5));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct FoldedHistory<const N: usize> {
    /// The history `folds` describes; every fold of 0 is 0.
    ghist: u128,
    folds: [u64; N],
    regs: [Register; N],
    used: usize,
}

/// One shift register's geometry, with its update shifts precomputed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Register {
    /// History length, capped at 128.
    len: u32,
    /// Fold width, in `1..=63`.
    bits: u32,
    /// `(1 << bits) - 1`, or 0 for a zero-length history (always folds to 0).
    mask: u64,
    /// Position of the bit leaving the window in the old history: `len - 1`.
    out: u32,
    /// Where that bit sits in the rotated fold: `len % bits`.
    out_at: u32,
}

impl<const N: usize> Default for FoldedHistory<N> {
    fn default() -> Self {
        FoldedHistory { ghist: 0, folds: [0; N], regs: [Register::default(); N], used: 0 }
    }
}

impl<const N: usize> FoldedHistory<N> {
    /// An empty register file describing the empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot holding `fold(ghist, len, bits)`, registering the pair on
    /// first use; equal pairs share one slot.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=63` or all `N` slots are taken.
    pub fn slot(&mut self, len: u32, bits: u32) -> usize {
        assert!((1..64).contains(&bits), "fold width {bits} outside 1..=63");
        let len = len.min(128);
        let reg = Register {
            len,
            bits,
            mask: if len == 0 { 0 } else { (1u64 << bits) - 1 },
            out: len.saturating_sub(1),
            out_at: len % bits,
        };
        if let Some(i) = self.regs[..self.used].iter().position(|r| *r == reg) {
            return i;
        }
        assert!(self.used < N, "more than {N} folded histories");
        self.regs[self.used] = reg;
        self.folds[self.used] = fold(self.ghist, len, bits);
        self.used += 1;
        self.used - 1
    }

    /// `fold(ghist, len, bits)` for every slot, indexed by slot.
    #[inline]
    pub fn folds(&mut self, ghist: u128) -> &[u64; N] {
        let old = self.ghist;
        if ghist != old {
            let regs = &self.regs[..self.used];
            if ghist >> 1 == old & (u128::MAX >> 1) {
                let new_bit = (ghist & 1) as u64;
                for (f, r) in self.folds.iter_mut().zip(regs) {
                    let out_bit = ((old >> r.out) & 1) as u64;
                    let rotated = (*f << 1) | (*f >> (r.bits - 1));
                    *f = (rotated ^ new_bit ^ (out_bit << r.out_at)) & r.mask;
                }
            } else {
                for (f, r) in self.folds.iter_mut().zip(regs) {
                    *f = fold(ghist, r.len, r.bits);
                }
            }
            self.ghist = ghist;
        }
        debug_assert!(
            self.regs[..self.used]
                .iter()
                .zip(&self.folds)
                .all(|(r, &f)| f == fold(ghist, r.len, r.bits)),
            "folded history diverged from fold()"
        );
        &self.folds
    }
}

/// Fold a 64-bit value onto itself to 16 bits (the paper's o4-FCM history
/// compression: "we fold (XOR) each 64-bit history value upon itself to
/// obtain a 16-bit index").
pub fn fold_value16(value: u64) -> u16 {
    let v = value ^ (value >> 16) ^ (value >> 32) ^ (value >> 48);
    v as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_updates_shift_in_at_bit_zero() {
        let mut h = HistoryState::default();
        h.push_branch(0, true);
        h.push_branch(0, true);
        h.push_branch(0, false);
        assert_eq!(h.ghist & 0b111, 0b110);
    }

    #[test]
    fn path_takes_three_pc_bits() {
        let mut h = HistoryState::default();
        h.push_path(0b10100); // pc >> 2 = 0b101
        assert_eq!(h.path & 0b111, 0b101);
        h.push_path(0b01100); // pc >> 2 = 0b011
        assert_eq!(h.path & 0b111111, 0b101_011);
    }

    #[test]
    fn unconditional_control_does_not_touch_ghist() {
        let mut h = HistoryState::default();
        h.push_branch(0, true);
        let g = h.ghist;
        h.push_path(0x40);
        assert_eq!(h.ghist, g);
    }

    #[test]
    fn fold_zero_len_is_zero() {
        assert_eq!(fold(u128::MAX, 0, 10), 0);
    }

    #[test]
    fn fold_shorter_than_output_is_identity() {
        assert_eq!(fold(0b101, 3, 10), 0b101);
    }

    #[test]
    fn fold_is_xor_of_chunks() {
        // 12 bits folded to 4: chunks 0xA, 0x6, 0x3 → 0xA^0x6^0x3 = 0xF.
        assert_eq!(fold(0x3_6A, 12, 4), 0xF);
    }

    #[test]
    fn fold_masks_history_beyond_len() {
        // Bits above `len` must not influence the fold.
        let a = fold(0b1111_0000_1010, 8, 4);
        let b = fold(0b0000_0000_1010, 8, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn fold_full_width_history() {
        // Must not overflow or panic for len = 128.
        let f = fold(u128::MAX, 128, 13);
        assert!(f < (1 << 13));
    }

    #[test]
    fn fold_tree_matches_the_serial_chunk_fold() {
        // The shift-doubling tree must equal the definitional chunk-by-
        // chunk XOR for every geometry TAGE/VTAGE uses (and then some).
        fn serial(hist: u128, len: u32, out_bits: u32) -> u64 {
            if len == 0 {
                return 0;
            }
            let mask = (1u64 << out_bits) - 1;
            let mut rest = if len >= 128 { hist } else { hist & ((1u128 << len) - 1) };
            let mut acc = 0u64;
            while rest != 0 {
                acc ^= (rest as u64) & mask;
                rest >>= out_bits;
            }
            acc
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u128;
        for i in 0..256u32 {
            x = x.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(0x1234_5678_9ABC_DEF1);
            let hist = x ^ (x << 64);
            for len in [1, 3, 4, 8, 16, 24, 63, 64, 65, 100, 127, 128] {
                for out_bits in [1, 2, 7, 8, 9, 13, 16, 33, 63] {
                    assert_eq!(
                        fold(hist, len, out_bits),
                        serial(hist, len, out_bits),
                        "case {i}: len {len}, out_bits {out_bits}"
                    );
                }
            }
        }
    }

    #[test]
    fn fold_value16_xors_quarters() {
        assert_eq!(fold_value16(0), 0);
        assert_eq!(fold_value16(0x0001_0002_0004_0008), 0x000F);
        // Sensitive to high bits.
        assert_ne!(fold_value16(0x8000_0000_0000_0000), fold_value16(0));
    }

    #[test]
    fn different_histories_fold_differently_often() {
        // Sanity: folding should not be constant over varied inputs.
        let mut outputs = std::collections::HashSet::new();
        for i in 0..64u128 {
            outputs.insert(fold(i * 0x9E37_79B9, 32, 10));
        }
        assert!(outputs.len() > 16);
    }
}
