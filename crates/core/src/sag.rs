//! SAg confidence estimation (Burtscher & Zorn, PACT 1999) applied to a
//! last-value predictor — the alternative the paper's §5 weighs FPC
//! against.
//!
//! SAg assigns confidence to a *history of outcomes* rather than to the
//! instruction itself: each predictor entry keeps an n-bit shift register
//! of recent hit/miss outcomes, which indexes a shared table of saturating
//! counters; the prediction is used when the counter for the current
//! outcome pattern is saturated. The paper's §5 objection is architectural,
//! not statistical: "this entails a second lookup in the counter table
//! using the outcome history retrieved in the predictor table", i.e. two
//! serial table accesses on the prediction path — which FPC avoids while
//! matching the accuracy. [`SagLvp`] exists so that trade-off can be
//! *measured* (see `paper counters` and the crate tests) rather than taken
//! on faith.

use crate::confidence::{ConfidenceScheme, Lfsr};
use crate::inflight::Inflight;
use crate::storage::{full_tag_bits, Storage, StorageComponent};
use crate::{PredictCtx, Prediction, Predictor};

/// Outcome-history length (bits) per entry.
const HISTORY_BITS: usize = 8;
/// Counter width in the shared pattern table.
const PATTERN_COUNTER_BITS: u8 = 4;

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    valid: bool,
    tag: u64,
    value: u64,
    /// Shift register of recent outcomes (1 = the entry's value matched),
    /// youngest in bit 0.
    outcomes: u8,
}

#[derive(Debug, Clone, Copy)]
struct Record {
    index: u32,
    tag: u64,
    predicted: Option<u64>,
    /// Outcome pattern at prediction time (the counter-table index used).
    pattern: u8,
}

/// Last-value predictor with SAg (outcome-history) confidence.
///
/// # Examples
///
/// ```
/// use vpsim_core::{SagLvp, Predictor, PredictCtx};
///
/// let mut p = SagLvp::with_defaults(3);
/// // A long constant run trains both the entry and the all-hits pattern.
/// let mut confident = 0;
/// for seq in 0..400 {
///     let ctx = PredictCtx { seq, pc: 0x40, ..Default::default() };
///     if p.predict(&ctx).confident_value() == Some(5) {
///         confident += 1;
///     }
///     p.train(seq, 5);
/// }
/// assert!(confident > 300, "got {confident}");
/// ```
#[derive(Debug, Clone)]
pub struct SagLvp {
    entries: Vec<Entry>,
    /// Shared counters indexed by the outcome pattern.
    patterns: Vec<u8>,
    index_bits: u32,
    scheme: ConfidenceScheme,
    lfsr: Lfsr,
    inflight: Inflight<Record>,
}

impl SagLvp {
    /// The paper-matched sizing: 8192 entries, 256-entry pattern table.
    pub fn with_defaults(seed: u64) -> Self {
        SagLvp::new(8192, seed)
    }

    /// Create with `entries` value entries (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize, seed: u64) -> Self {
        assert!(entries.is_power_of_two());
        SagLvp {
            entries: vec![Entry::default(); entries],
            patterns: vec![0; 1 << HISTORY_BITS],
            index_bits: entries.trailing_zeros(),
            scheme: ConfidenceScheme::full(PATTERN_COUNTER_BITS),
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
}

impl Predictor for SagLvp {
    fn predict(&mut self, ctx: &PredictCtx) -> Prediction {
        let index = self.index(ctx.pc);
        let tag = self.tag(ctx.pc);
        let e = &self.entries[index as usize];
        let (prediction, pattern) = if e.valid && e.tag == tag {
            // First lookup: the entry (value + outcome history); second
            // lookup: the pattern counter — the serial path §5 objects to.
            let pattern = e.outcomes;
            let confident = self.scheme.is_saturated(self.patterns[pattern as usize]);
            (Prediction::of(e.value, confident), pattern)
        } else {
            (Prediction::none(), 0)
        };
        self.inflight.push(ctx.seq, Record { index, tag, predicted: prediction.value, pattern });
        prediction
    }

    fn train(&mut self, seq: u64, actual: u64) {
        let rec = self.inflight.pop(seq);
        let e = &mut self.entries[rec.index as usize];
        if e.valid && e.tag == rec.tag {
            let correct = rec.predicted == Some(actual);
            // Pattern counter trains on whether this pattern led to a hit.
            let ctr = &mut self.patterns[rec.pattern as usize];
            *ctr = if correct {
                self.scheme.on_correct(*ctr, &mut self.lfsr)
            } else {
                self.scheme.on_incorrect(*ctr)
            };
            // The entry's outcome history and value advance.
            e.outcomes = (e.outcomes << 1) | correct as u8;
            if !correct {
                e.value = actual;
            }
        } else {
            *e = Entry { valid: true, tag: rec.tag, value: actual, outcomes: 0 };
        }
    }

    fn squash_after(&mut self, seq: u64) {
        self.inflight.squash_after(seq);
    }

    fn storage(&self) -> Storage {
        Storage::from_components(vec![
            StorageComponent::new(
                "SAg-LVP entries",
                self.entries.len(),
                full_tag_bits(self.entries.len()) + 64 + HISTORY_BITS,
            ),
            StorageComponent::new(
                "SAg pattern table",
                self.patterns.len(),
                PATTERN_COUNTER_BITS as usize,
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(seq: u64, pc: u64) -> PredictCtx {
        PredictCtx { seq, pc, ..Default::default() }
    }

    #[test]
    fn constant_stream_becomes_confident() {
        let mut p = SagLvp::with_defaults(1);
        let mut confident = 0;
        for seq in 0..200 {
            if p.predict(&ctx(seq, 0x40)).confident_value() == Some(9) {
                confident += 1;
            }
            p.train(seq, 9);
        }
        assert!(confident > 100, "got {confident}");
    }

    #[test]
    fn alternating_values_never_gain_confidence() {
        let mut p = SagLvp::with_defaults(1);
        for seq in 0..400 {
            let v = seq % 2;
            assert_eq!(
                p.predict(&ctx(seq, 0x40)).confident_value(),
                None,
                "all-miss patterns must never saturate"
            );
            p.train(seq, v);
        }
    }

    #[test]
    fn confidence_is_shared_across_instructions_with_like_histories() {
        // Train a constant at pc A until the all-hits pattern saturates;
        // a *fresh* constant at pc B then becomes confident as soon as its
        // own history reaches the same pattern — faster than a private
        // counter would allow. This cross-instruction sharing is SAg's
        // selling point (and its aliasing risk).
        let mut p = SagLvp::with_defaults(1);
        let mut seq = 0;
        for _ in 0..300 {
            p.predict(&ctx(seq, 0x40));
            p.train(seq, 7);
            seq += 1;
        }
        // pc B: count how many occurrences until first confident use.
        let mut until_confident = 0;
        for k in 0..300 {
            let pred = p.predict(&ctx(seq, 0x80));
            p.train(seq, 11);
            seq += 1;
            if pred.confident {
                until_confident = k;
                break;
            }
        }
        assert!(
            (1..=HISTORY_BITS as u64 + 4).contains(&until_confident),
            "B confident after {until_confident} occurrences (history warm-up only)"
        );
    }

    #[test]
    fn misprediction_breaks_the_pattern_not_the_world() {
        let mut p = SagLvp::with_defaults(1);
        let mut seq = 0;
        for _ in 0..300 {
            p.predict(&ctx(seq, 0x40));
            p.train(seq, 7);
            seq += 1;
        }
        // One glitch: the next few patterns contain a 0 bit, so confidence
        // is withheld until the history refills with hits.
        p.predict(&ctx(seq, 0x40));
        p.train(seq, 1000);
        seq += 1;
        let pred = p.predict(&ctx(seq, 0x40));
        assert!(!pred.confident, "post-glitch pattern must not be trusted");
        p.train(seq, 1000);
        seq += 1;
        // Recovery within a history length + warm-up.
        let mut recovered = false;
        for _ in 0..3 * HISTORY_BITS {
            let pred = p.predict(&ctx(seq, 0x40));
            p.train(seq, 1000);
            seq += 1;
            if pred.confident_value() == Some(1000) {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "confidence must recover after the history refills");
    }

    #[test]
    fn storage_includes_both_tables() {
        let p = SagLvp::with_defaults(1);
        let s = p.storage();
        assert_eq!(s.components().len(), 2);
        // 8192 × (51 + 64 + 8) bits + 256 × 4 bits.
        assert_eq!(s.total_bits(), 8192 * 123 + 256 * 4);
    }

    #[test]
    fn protocol_squash_safety() {
        let mut p = SagLvp::with_defaults(1);
        p.predict(&ctx(0, 0x40));
        p.predict(&ctx(1, 0x40));
        p.squash_after(0);
        p.train(0, 5);
        p.predict(&ctx(1, 0x40));
        p.train(1, 5);
    }
}
