//! Computational (stride-based) value predictors.
//!
//! * [`TwoDeltaStride`] — the 2-delta variant (Eickemeyer & Vassiliadis,
//!   paper Table 1): the *prediction* stride `s2` is only updated once the
//!   same delta `s1` has been observed twice in a row, filtering transient
//!   glitches.
//! * [`PerPathStride`] — strides selected by (PC, recent branch history)
//!   (Nakra et al.); the paper's footnote 4 reports performance on par with
//!   2D-Stride.
//!
//! Stride predictors must track the **last speculative occurrence** of each
//! instruction (§3.2): when several occurrences of one instruction are in
//! flight, each prediction builds on the *prediction* made for the previous
//! one, not the stale committed value. [`crate::inflight::SpecWindow`]
//! implements exactly that tracking (and is the hardware complexity VTAGE
//! avoids).

use crate::confidence::{ConfidenceScheme, Lfsr};
use crate::history::{fold, HistoryState};
use crate::hybrid::SpeculativeFeed;
use crate::inflight::{Inflight, SpecWindow};
use crate::storage::{full_tag_bits, Storage, StorageComponent};
use crate::{PredictCtx, Prediction, Predictor};

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    valid: bool,
    tag: u64,
    last: u64,
    /// Last observed delta.
    s1: u64,
    /// Confirmed (prediction) delta: follows `s1` once it repeats.
    s2: u64,
    conf: u8,
}

#[derive(Debug, Clone, Copy)]
struct Record {
    index: u32,
    tag: u64,
    /// The prediction as made at fetch (speculative chain included) —
    /// confidence must be validated against *this*, exactly as hardware
    /// compares the value carried with the instruction.
    predicted: Option<u64>,
}

/// Index-selection flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Select {
    PcOnly,
    PerPath { history_bits: u32 },
}

/// Shared implementation for the two stride predictors.
#[derive(Debug, Clone)]
struct StrideCore {
    entries: Vec<Entry>,
    index_bits: u32,
    scheme: ConfidenceScheme,
    lfsr: Lfsr,
    inflight: Inflight<Record>,
    spec: SpecWindow,
    select: Select,
    name: &'static str,
}

impl StrideCore {
    fn new(
        entries: usize,
        scheme: ConfidenceScheme,
        seed: u64,
        select: Select,
        name: &'static str,
    ) -> Self {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        StrideCore {
            entries: vec![Entry::default(); entries],
            index_bits: entries.trailing_zeros(),
            scheme,
            lfsr: Lfsr::new(seed),
            inflight: Inflight::new(),
            spec: SpecWindow::new(),
            select,
            name,
        }
    }

    fn index(&self, pc: u64, hist: &HistoryState) -> u32 {
        let base = pc >> 2;
        let sel = match self.select {
            Select::PcOnly => base,
            Select::PerPath { history_bits } => {
                base ^ fold(hist.ghist, history_bits, self.index_bits)
            }
        };
        (sel & ((1 << self.index_bits) - 1)) as u32
    }

    fn tag(&self, pc: u64) -> u64 {
        pc >> (2 + self.index_bits)
    }

    fn predict(&mut self, ctx: &PredictCtx) -> Prediction {
        let index = self.index(ctx.pc, &ctx.hist);
        let tag = self.tag(ctx.pc);
        let e = &self.entries[index as usize];
        let prediction = if e.valid && e.tag == tag {
            // Base is the youngest speculative occurrence if one is in
            // flight, otherwise the committed last value.
            let base = self.spec.latest(ctx.pc).unwrap_or(e.last);
            let value = base.wrapping_add(e.s2);
            self.spec.push(ctx.seq, ctx.pc, value);
            Prediction::of(value, self.scheme.is_saturated(e.conf))
        } else {
            Prediction::none()
        };
        self.inflight.push(ctx.seq, Record { index, tag, predicted: prediction.value });
        prediction
    }

    fn train(&mut self, seq: u64, actual: u64) {
        let rec = self.inflight.pop(seq);
        self.spec.retire_upto(seq);
        let e = &mut self.entries[rec.index as usize];
        if e.valid && e.tag == rec.tag {
            // Confidence validates the prediction carried from fetch.
            let correct = rec.predicted == Some(actual);
            e.conf = if correct {
                self.scheme.on_correct(e.conf, &mut self.lfsr)
            } else {
                self.scheme.on_incorrect(e.conf)
            };
            let new_stride = actual.wrapping_sub(e.last);
            // s2 follows only when the same delta repeats.
            if new_stride == e.s1 {
                e.s2 = new_stride;
            }
            e.s1 = new_stride;
            e.last = actual;
        } else {
            *self.entries.get_mut(rec.index as usize).expect("index in range") =
                Entry { valid: true, tag: rec.tag, last: actual, s1: 0, s2: 0, conf: 0 };
        }
    }

    fn squash_after(&mut self, seq: u64) {
        self.inflight.squash_after(seq);
        self.spec.squash_after(seq);
    }

    fn storage(&self) -> Storage {
        // Tag, last value, the two strides and the confidence counter.
        let bits = full_tag_bits(self.entries.len()) + 64 + 128 + self.scheme.bits_per_counter();
        Storage::from_components(vec![StorageComponent::new(self.name, self.entries.len(), bits)])
    }

    fn feed(&mut self, seq: u64, pc: u64, value: u64) {
        self.spec.replace(seq, pc, value);
    }

    /// Execute-time repair (see [`Predictor::resolve`]): re-seed the
    /// speculative chain at the computed result and rebuild the younger
    /// in-flight entries with the entry's current prediction stride —
    /// bounding the §7.2.1 cascade to the occurrences already predicted.
    fn resolve(&mut self, seq: u64, pc: u64, actual: u64) {
        let e = &self.entries[self.index_for_resolve(pc)];
        let step = if e.valid && e.tag == self.tag(pc) { e.s2 } else { 0 };
        // The record for `seq` *is* occurrence seq's value: re-seed it with
        // the computed result; younger records continue the stride chain.
        self.spec.correct_chain(seq, pc, actual, step);
    }

    /// The table index used by `resolve`. Per-path selection depends on
    /// fetch-time history which is not available at execute; the PC-only
    /// index is used as the best-effort stride source (hardware keeps the
    /// stride in the instruction payload instead).
    fn index_for_resolve(&self, pc: u64) -> usize {
        ((pc >> 2) & ((1 << self.index_bits) - 1)) as usize
    }
}

macro_rules! stride_predictor {
    ($(#[$doc:meta])* $ty:ident, $select:expr, $name:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $ty {
            core: StrideCore,
        }

        impl $ty {
            /// The paper's configuration: 8192 entries.
            pub fn with_defaults(scheme: ConfidenceScheme, seed: u64) -> Self {
                Self::new(8192, scheme, seed)
            }

            /// Create with `entries` entries (must be a power of two).
            ///
            /// # Panics
            ///
            /// Panics if `entries` is not a power of two.
            pub fn new(entries: usize, scheme: ConfidenceScheme, seed: u64) -> Self {
                $ty { core: StrideCore::new(entries, scheme, seed, $select, $name) }
            }
        }

        impl Predictor for $ty {
            fn predict(&mut self, ctx: &PredictCtx) -> Prediction {
                self.core.predict(ctx)
            }

            fn train(&mut self, seq: u64, actual: u64) {
                self.core.train(seq, actual)
            }

            fn squash_after(&mut self, seq: u64) {
                self.core.squash_after(seq)
            }

            fn resolve(&mut self, seq: u64, pc: u64, actual: u64) {
                self.core.resolve(seq, pc, actual)
            }

            fn storage(&self) -> Storage {
                self.core.storage()
            }
        }

        impl SpeculativeFeed for $ty {
            fn feed(&mut self, seq: u64, pc: u64, value: u64) {
                self.core.feed(seq, pc, value)
            }
        }
    };
}

stride_predictor!(
    /// The 2-delta stride predictor (paper Table 1: 8192 entries, 251.9 KB):
    /// the prediction stride only follows after the same delta is seen twice,
    /// so a single irregular value does not destroy a learned stride.
    TwoDeltaStride,
    Select::PcOnly,
    "2D-Str"
);

stride_predictor!(
    /// Per-path stride predictor: the entry is selected by PC XOR a few bits
    /// of global branch history, so different control-flow paths leading to
    /// the same instruction can learn different strides (paper footnote 4).
    PerPathStride,
    Select::PerPath { history_bits: 8 },
    "PP-Str"
);

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(seq: u64, pc: u64) -> PredictCtx {
        PredictCtx { seq, pc, ..Default::default() }
    }

    fn train_arith<P: Predictor>(
        p: &mut P,
        pc: u64,
        start: u64,
        step: u64,
        times: u64,
        seq0: u64,
    ) -> u64 {
        let mut seq = seq0;
        for k in 0..times {
            p.predict(&ctx(seq, pc));
            p.train(seq, start.wrapping_add(step.wrapping_mul(k)));
            seq += 1;
        }
        seq
    }

    #[test]
    fn negative_strides_wrap_correctly() {
        let mut p = TwoDeltaStride::with_defaults(ConfidenceScheme::baseline(), 1);
        // Descending sequence 1000, 990, 980, …
        let mut seq = 0;
        for k in 0..12u64 {
            p.predict(&ctx(seq, 0x40));
            p.train(seq, 1000 - 10 * k);
            seq += 1;
        }
        let pred = p.predict(&ctx(seq, 0x40));
        assert_eq!(pred.confident_value(), Some(1000 - 10 * 12));
        p.train(seq, 1000 - 10 * 12);
    }

    #[test]
    fn two_delta_filters_single_glitch() {
        let mut p = TwoDeltaStride::with_defaults(ConfidenceScheme::baseline(), 1);
        // Learn stride 8 on 0, 8, 16, …, 80.
        let mut seq = train_arith(&mut p, 0x40, 0, 8, 11, 0);
        // One glitch: value jumps by 1000, then the +8 pattern resumes from it.
        p.predict(&ctx(seq, 0x40));
        p.train(seq, 1080);
        seq += 1;
        // s2 must still be 8 (the 1000-delta was seen only once), so the next
        // prediction is glitch_value + 8.
        let pred = p.predict(&ctx(seq, 0x40));
        assert_eq!(pred.value, Some(1088));
        p.train(seq, 1088);
    }

    #[test]
    fn speculative_window_chains_in_flight_occurrences() {
        let mut p = TwoDeltaStride::with_defaults(ConfidenceScheme::baseline(), 1);
        let seq = train_arith(&mut p, 0x40, 0, 4, 12, 0);
        // Three back-to-back occurrences with no intervening commits: each
        // prediction must build on the previous speculative one.
        let p1 = p.predict(&ctx(seq, 0x40));
        let p2 = p.predict(&ctx(seq + 1, 0x40));
        let p3 = p.predict(&ctx(seq + 2, 0x40));
        assert_eq!(p1.value, Some(48));
        assert_eq!(p2.value, Some(52));
        assert_eq!(p3.value, Some(56));
        p.train(seq, 48);
        p.train(seq + 1, 52);
        p.train(seq + 2, 56);
    }

    #[test]
    fn squash_rolls_back_speculative_chain() {
        let mut p = TwoDeltaStride::with_defaults(ConfidenceScheme::baseline(), 1);
        let seq = train_arith(&mut p, 0x40, 0, 4, 12, 0);
        let _ = p.predict(&ctx(seq, 0x40)); // 48
        let _ = p.predict(&ctx(seq + 1, 0x40)); // 52 (speculative on 48)

        // The second occurrence is squashed; the refetched occurrence must
        // again chain on 48, not 52.
        p.squash_after(seq);
        let pred = p.predict(&ctx(seq + 1, 0x40));
        assert_eq!(pred.value, Some(52));
        p.train(seq, 48);
        p.train(seq + 1, 52);
    }

    #[test]
    fn misprediction_resets_confidence() {
        let mut p = TwoDeltaStride::with_defaults(ConfidenceScheme::baseline(), 1);
        let seq = train_arith(&mut p, 0x40, 0, 4, 12, 0);
        p.predict(&ctx(seq, 0x40));
        p.train(seq, 9999); // breaks the stride
        let pred = p.predict(&ctx(seq + 1, 0x40));
        assert!(!pred.confident);
        p.train(seq + 1, 10003);
    }

    #[test]
    fn tag_miss_allocates_fresh_entry() {
        let mut p = TwoDeltaStride::new(8, ConfidenceScheme::baseline(), 1);
        let seq = train_arith(&mut p, 0x0, 0, 4, 8, 0);
        let conflicting_pc = 8 * 4 * 4; // same index, different tag
        let pred = p.predict(&ctx(seq, conflicting_pc));
        assert_eq!(pred.value, None);
        p.train(seq, 123);
        let pred = p.predict(&ctx(seq + 1, conflicting_pc));
        assert_eq!(pred.value, Some(123), "fresh entry starts with stride 0");
        p.train(seq + 1, 123);
    }

    #[test]
    fn per_path_stride_separates_paths() {
        let mut p = PerPathStride::with_defaults(ConfidenceScheme::baseline(), 1);
        let mut seq = 0;
        let mut hist_a = HistoryState::default();
        hist_a.push_branch(0x8, true);
        let mut hist_b = HistoryState::default();
        hist_b.push_branch(0x8, false);
        // Path A sees constant 7, path B sees constant 1000, same PC.
        for _ in 0..10 {
            let ctx_a = PredictCtx { seq, pc: 0x40, hist: hist_a, actual: None };
            p.predict(&ctx_a);
            p.train(seq, 7);
            seq += 1;
            let ctx_b = PredictCtx { seq, pc: 0x40, hist: hist_b, actual: None };
            p.predict(&ctx_b);
            p.train(seq, 1000);
            seq += 1;
        }
        let pred_a = p.predict(&PredictCtx { seq, pc: 0x40, hist: hist_a, actual: None });
        assert_eq!(pred_a.value, Some(7));
        p.train(seq, 7);
        let pred_b = p.predict(&PredictCtx { seq: seq + 1, pc: 0x40, hist: hist_b, actual: None });
        assert_eq!(pred_b.value, Some(1000));
        p.train(seq + 1, 1000);
    }

    #[test]
    fn feed_overrides_speculative_value() {
        let mut p = TwoDeltaStride::with_defaults(ConfidenceScheme::baseline(), 1);
        let seq = train_arith(&mut p, 0x40, 0, 4, 12, 0);
        let _ = p.predict(&ctx(seq, 0x40)); // speculative 48

        // A hybrid arbiter decides the real prediction is 100.
        p.feed(seq, 0x40, 100);
        let pred = p.predict(&ctx(seq + 1, 0x40));
        assert_eq!(pred.value, Some(104), "chains on the fed value + stride");
        p.train(seq, 100);
        p.train(seq + 1, 104);
    }

    #[test]
    fn lagged_training_still_reaches_confidence() {
        // Pipeline-realistic schedule: predictions run `lag` occurrences
        // ahead of training (fetch-ahead), with execute-time resolve
        // repairing wrong speculative chains. The predictor must still
        // lock onto a pure arithmetic sequence — this regressed once when
        // chain repair re-seeded the window off by one stride.
        let mut p = TwoDeltaStride::with_defaults(ConfidenceScheme::fpc_squash(), 1);
        let lag = 20u64;
        let n = 3000u64;
        let actual = |k: u64| 100 + 7 * k;
        let mut predictions: Vec<Option<u64>> = Vec::new();
        let (mut used, mut correct) = (0u64, 0u64);
        for k in 0..n {
            let pred = p.predict(&ctx(k, 0x40));
            predictions.push(pred.confident_value());
            if k >= lag {
                let j = k - lag;
                if predictions[j as usize].is_none_or(|v| v != actual(j)) {
                    p.resolve(j, 0x40, actual(j));
                }
                p.train(j, actual(j));
                if k > n / 2 {
                    if let Some(v) = predictions[j as usize] {
                        used += 1;
                        if v == actual(j) {
                            correct += 1;
                        }
                    }
                }
            }
        }
        assert!(used > 1000, "must be confident in steady state, used {used}");
        assert_eq!(correct, used, "lagged predictions must be exact");
    }

    #[test]
    fn lagged_training_survives_value_break() {
        // Same schedule, but the stride changes mid-stream: the cascade
        // must be bounded (≈ the in-flight window), not permanent.
        let mut p = TwoDeltaStride::with_defaults(ConfidenceScheme::fpc_squash(), 1);
        let lag = 20u64;
        let n = 6000u64;
        let actual = |k: u64| if k < 3000 { 100 + 7 * k } else { 50_000 + 11 * k };
        let mut predictions: Vec<Option<u64>> = Vec::new();
        let (mut used_tail, mut correct_tail) = (0u64, 0u64);
        for k in 0..n {
            let pred = p.predict(&ctx(k, 0x40));
            predictions.push(pred.confident_value());
            if k >= lag {
                let j = k - lag;
                if predictions[j as usize].is_none_or(|v| v != actual(j)) {
                    p.resolve(j, 0x40, actual(j));
                }
                p.train(j, actual(j));
                if j > 5000 {
                    if let Some(v) = predictions[j as usize] {
                        used_tail += 1;
                        if v == actual(j) {
                            correct_tail += 1;
                        }
                    }
                }
            }
        }
        assert!(used_tail > 500, "confidence must recover after the break: {used_tail}");
        assert_eq!(correct_tail, used_tail, "post-break predictions must be exact");
    }

    #[test]
    fn storage_matches_table1() {
        let p = TwoDeltaStride::with_defaults(ConfidenceScheme::baseline(), 1);
        let kb = p.storage().total_kb();
        assert!((kb - 251.9).abs() < 0.05, "got {kb}");
    }
}
