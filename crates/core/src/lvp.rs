//! Last Value Prediction (Lipasti et al., MICRO 1996) — the simplest
//! predictor in the paper's comparison and the base component of VTAGE.
//!
//! LVP predicts that an instruction will produce the same value as its last
//! committed occurrence. Because the lookup depends only on the PC,
//! "successive table lookups are independent and can last until Dispatch"
//! (§3.2) — LVP trivially predicts back-to-back occurrences.

use crate::confidence::{ConfidenceScheme, Lfsr};
use crate::inflight::Inflight;
use crate::storage::{full_tag_bits, Storage, StorageComponent};
use crate::{PredictCtx, Prediction, Predictor};

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    valid: bool,
    tag: u64,
    value: u64,
    conf: u8,
}

#[derive(Debug, Clone, Copy)]
struct Record {
    index: u32,
    tag: u64,
    /// The prediction as made at fetch.
    predicted: Option<u64>,
}

/// The Last Value Predictor.
///
/// Direct-mapped, fully tagged (paper Table 1: 8192 entries, 51-bit tag,
/// 120.8 KB). On a tag miss at training time the entry is immediately
/// reallocated to the new instruction with confidence 0.
///
/// # Examples
///
/// ```
/// use vpsim_core::{Lvp, Predictor, PredictCtx, ConfidenceScheme};
///
/// let mut p = Lvp::with_defaults(ConfidenceScheme::baseline(), 7);
/// // A constant value saturates confidence after 8 occurrences.
/// for seq in 0..9 {
///     let ctx = PredictCtx { seq, pc: 0x100, ..Default::default() };
///     let pred = p.predict(&ctx);
///     if seq == 8 {
///         assert_eq!(pred.confident_value(), Some(42));
///     }
///     p.train(seq, 42);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Lvp {
    entries: Vec<Entry>,
    index_bits: u32,
    scheme: ConfidenceScheme,
    lfsr: Lfsr,
    inflight: Inflight<Record>,
}

impl Lvp {
    /// The paper's configuration: 8192 entries.
    pub fn with_defaults(scheme: ConfidenceScheme, seed: u64) -> Self {
        Lvp::new(8192, scheme, seed)
    }

    /// Create an LVP with `entries` entries (must be a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize, scheme: ConfidenceScheme, seed: u64) -> Self {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        Lvp {
            entries: vec![Entry::default(); entries],
            index_bits: entries.trailing_zeros(),
            scheme,
            lfsr: Lfsr::new(seed),
            inflight: Inflight::new(),
        }
    }

    fn index(&self, pc: u64) -> u32 {
        ((pc >> 2) & ((1 << self.index_bits) - 1)) as u32
    }

    fn tag(&self, pc: u64) -> u64 {
        pc >> (2 + self.index_bits)
    }

    /// Number of table entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the table has no entries (never for a constructed LVP).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Predictor for Lvp {
    fn predict(&mut self, ctx: &PredictCtx) -> Prediction {
        let index = self.index(ctx.pc);
        let tag = self.tag(ctx.pc);
        let e = &self.entries[index as usize];
        let prediction = if e.valid && e.tag == tag {
            Prediction::of(e.value, self.scheme.is_saturated(e.conf))
        } else {
            Prediction::none()
        };
        self.inflight.push(ctx.seq, Record { index, tag, predicted: prediction.value });
        prediction
    }

    fn train(&mut self, seq: u64, actual: u64) {
        let rec = self.inflight.pop(seq);
        let e = &mut self.entries[rec.index as usize];
        if e.valid && e.tag == rec.tag {
            if rec.predicted == Some(actual) {
                e.conf = self.scheme.on_correct(e.conf, &mut self.lfsr);
            } else {
                // Classic LVP: replace on misprediction, reset confidence.
                e.value = actual;
                e.conf = self.scheme.on_incorrect(e.conf);
            }
        } else {
            *e = Entry { valid: true, tag: rec.tag, value: actual, conf: 0 };
        }
    }

    fn squash_after(&mut self, seq: u64) {
        self.inflight.squash_after(seq);
    }

    fn storage(&self) -> Storage {
        let bits = full_tag_bits(self.entries.len()) + 64 + self.scheme.bits_per_counter();
        Storage::from_components(vec![StorageComponent::new("LVP", self.entries.len(), bits)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(seq: u64, pc: u64) -> PredictCtx {
        PredictCtx { seq, pc, ..Default::default() }
    }

    fn train_constant(p: &mut Lvp, pc: u64, value: u64, times: u64, seq0: u64) -> u64 {
        let mut seq = seq0;
        for _ in 0..times {
            p.predict(&ctx(seq, pc));
            p.train(seq, value);
            seq += 1;
        }
        seq
    }

    #[test]
    fn predicts_constant_after_training() {
        let mut p = Lvp::with_defaults(ConfidenceScheme::baseline(), 1);
        let seq = train_constant(&mut p, 0x40, 99, 8, 0);
        let pred = p.predict(&ctx(seq, 0x40));
        assert_eq!(pred.confident_value(), Some(99));
        p.train(seq, 99);
    }

    #[test]
    fn confidence_builds_before_use() {
        let mut p = Lvp::with_defaults(ConfidenceScheme::baseline(), 1);
        // After 3 occurrences confidence is 2 (<7): hit but not confident.
        let seq = train_constant(&mut p, 0x40, 5, 3, 0);
        let pred = p.predict(&ctx(seq, 0x40));
        assert_eq!(pred.value, Some(5));
        assert!(!pred.confident);
        p.train(seq, 5);
    }

    #[test]
    fn misprediction_resets_confidence_and_replaces_value() {
        let mut p = Lvp::with_defaults(ConfidenceScheme::baseline(), 1);
        let seq = train_constant(&mut p, 0x40, 7, 10, 0);
        // Value changes: predictor must stop being confident.
        p.predict(&ctx(seq, 0x40));
        p.train(seq, 8);
        let pred = p.predict(&ctx(seq + 1, 0x40));
        assert_eq!(pred.value, Some(8));
        assert!(!pred.confident);
        p.train(seq + 1, 8);
    }

    #[test]
    fn tag_conflict_reallocates() {
        let mut p = Lvp::new(8, ConfidenceScheme::baseline(), 1);
        // pc 0x0 and pc 0x80 (= 8 entries × 4 bytes × 4) map to index 0 with
        // different tags.
        let seq = train_constant(&mut p, 0x0, 1, 4, 0);
        let pc_conflict = 8 * 4 * 4;
        let pred = p.predict(&ctx(seq, pc_conflict));
        assert_eq!(pred.value, None, "different tag must not hit");
        p.train(seq, 2);
        // The entry now belongs to the new pc.
        let pred = p.predict(&ctx(seq + 1, pc_conflict));
        assert_eq!(pred.value, Some(2));
        p.train(seq + 1, 2);
    }

    #[test]
    fn squash_discards_inflight_records() {
        let mut p = Lvp::with_defaults(ConfidenceScheme::baseline(), 1);
        p.predict(&ctx(0, 0x40));
        p.predict(&ctx(1, 0x40));
        p.predict(&ctx(2, 0x40));
        p.squash_after(0);
        p.train(0, 1);
        // seq 1 and 2 were squashed; next predict may reuse their seqs.
        p.predict(&ctx(1, 0x40));
        p.train(1, 1);
    }

    #[test]
    #[should_panic(expected = "oldest in-flight")]
    fn out_of_order_train_panics() {
        let mut p = Lvp::with_defaults(ConfidenceScheme::baseline(), 1);
        p.predict(&ctx(0, 0x40));
        p.predict(&ctx(1, 0x40));
        p.train(1, 5);
    }

    #[test]
    fn fpc_slows_confidence_build_up() {
        let mut base = Lvp::with_defaults(ConfidenceScheme::baseline(), 1);
        let mut fpc = Lvp::with_defaults(ConfidenceScheme::fpc_squash(), 1);
        // 8 correct trainings saturate the baseline but (almost surely) not FPC.
        train_constant(&mut base, 0x40, 9, 8, 0);
        train_constant(&mut fpc, 0x40, 9, 8, 0);
        let pb = base.predict(&ctx(100, 0x40));
        let pf = fpc.predict(&ctx(100, 0x40));
        assert!(pb.confident);
        assert!(!pf.confident, "FPC needs ~129 correct predictions on average");
        base.train(100, 9);
        fpc.train(100, 9);
        // …but eventually FPC saturates too.
        let seq = train_constant(&mut fpc, 0x40, 9, 2000, 101);
        let pf = fpc.predict(&ctx(seq, 0x40));
        assert!(pf.confident);
        fpc.train(seq, 9);
    }

    #[test]
    fn storage_matches_table1() {
        let p = Lvp::with_defaults(ConfidenceScheme::baseline(), 1);
        let kb = p.storage().total_kb();
        assert!((kb - 120.8).abs() < 0.05, "got {kb}");
    }

    #[test]
    fn different_pcs_do_not_interfere_without_conflict() {
        let mut p = Lvp::with_defaults(ConfidenceScheme::baseline(), 1);
        let mut seq = 0;
        for _ in 0..8 {
            p.predict(&ctx(seq, 0x40));
            p.train(seq, 1);
            seq += 1;
            p.predict(&ctx(seq, 0x80));
            p.train(seq, 2);
            seq += 1;
        }
        assert_eq!(p.predict(&ctx(seq, 0x40)).confident_value(), Some(1));
        p.train(seq, 1);
        assert_eq!(p.predict(&ctx(seq + 1, 0x80)).confident_value(), Some(2));
        p.train(seq + 1, 2);
    }
}
