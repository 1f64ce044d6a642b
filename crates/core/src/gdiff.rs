//! A gDiff-style global-difference predictor stacked on VTAGE (extension).
//!
//! Zhou et al.'s gDiff (ISCA 2003) observes *global* stride locality: an
//! instruction's result often differs from the result of one of the last
//! few dynamic instructions by a stable delta. gDiff "can be added on top
//! of any other predictor, including the VTAGE predictor" (paper §2) — the
//! base predictor supplies the **speculative global value history** that
//! gDiff's lookups need at prediction time.
//!
//! This module implements that stack: [`GDiff`] keeps a global value
//! history (committed values plus the base predictor's speculative values
//! for in-flight µops) and a per-PC table of `(distance, delta)` pairs with
//! confidence. When the base predictor (VTAGE here) is confident it wins;
//! otherwise a confident gDiff entry predicts `GVH[distance] + delta`.

use crate::confidence::{ConfidenceScheme, Lfsr};
use crate::inflight::Inflight;
use crate::storage::{full_tag_bits, Storage, StorageComponent};
use crate::vtage::Vtage;
use crate::{PredictCtx, Prediction, Predictor};
use std::collections::VecDeque;

/// Depth of the global value history window.
const GVH_DEPTH: usize = 8;

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    valid: bool,
    tag: u64,
    /// Last observed delta against each GVH distance.
    diffs: [u64; GVH_DEPTH],
    /// Chosen distance into the GVH (`GVH_DEPTH` = none chosen yet).
    dist: u8,
    /// Predicted delta at that distance.
    delta: u64,
    conf: u8,
}

#[derive(Debug, Clone, Copy)]
struct Record {
    index: u32,
    tag: u64,
    /// gDiff's own prediction as made at fetch (over the speculative GVH).
    predicted: Option<u64>,
}

/// gDiff over VTAGE (see module docs).
///
/// # Examples
///
/// An instruction that always produces "the previous instruction's result
/// plus 3" is invisible to per-PC predictors but trivial for gDiff:
///
/// ```
/// use vpsim_core::{GDiff, Predictor, PredictCtx, ConfidenceScheme};
///
/// let mut p = GDiff::over_vtage(ConfidenceScheme::baseline(), 5);
/// let mut seq = 0;
/// let mut confident = 0;
/// let mut x = 1u64;
/// for _ in 0..60 {
///     // µop A produces a pseudo-random value…
///     x = x.wrapping_mul(25214903917).wrapping_add(11);
///     p.predict(&PredictCtx { seq, pc: 0x10, ..Default::default() });
///     p.train(seq, x);
///     seq += 1;
///     // …and µop B produces A's value + 3.
///     let pred = p.predict(&PredictCtx { seq, pc: 0x20, ..Default::default() });
///     if pred.confident_value() == Some(x.wrapping_add(3)) {
///         confident += 1;
///     }
///     p.train(seq, x.wrapping_add(3));
///     seq += 1;
/// }
/// assert!(confident > 20, "got {confident}");
/// ```
#[derive(Debug, Clone)]
pub struct GDiff {
    base: Vtage,
    entries: Vec<Entry>,
    index_bits: u32,
    scheme: ConfidenceScheme,
    lfsr: Lfsr,
    inflight: Inflight<Record>,
    /// Committed global value history, youngest at the front.
    committed_gvh: VecDeque<u64>,
    /// Speculative values of in-flight µops, oldest at the front:
    /// `(seq, value)`; `None` when no basis existed at prediction time.
    spec_gvh: VecDeque<(u64, Option<u64>)>,
}

impl GDiff {
    /// The default stack: 4K-entry gDiff table over a default VTAGE.
    pub fn over_vtage(scheme: ConfidenceScheme, seed: u64) -> Self {
        GDiff::new(4096, scheme, seed)
    }

    /// Create with `entries` gDiff entries (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize, scheme: ConfidenceScheme, seed: u64) -> Self {
        assert!(entries.is_power_of_two());
        GDiff {
            base: Vtage::with_defaults(scheme.clone(), seed),
            entries: vec![Entry::default(); entries],
            index_bits: entries.trailing_zeros(),
            scheme,
            lfsr: Lfsr::new(seed ^ 0xABCD_EF01),
            inflight: Inflight::new(),
            committed_gvh: VecDeque::with_capacity(GVH_DEPTH + 1),
            spec_gvh: VecDeque::new(),
        }
    }

    fn index(&self, pc: u64) -> u32 {
        ((pc >> 2) & ((1 << self.index_bits) - 1)) as u32
    }

    fn tag(&self, pc: u64) -> u64 {
        pc >> (2 + self.index_bits)
    }

    /// The speculative GVH as seen at prediction time: youngest first,
    /// in-flight speculative values (where known) before committed ones.
    fn speculative_gvh(&self) -> [Option<u64>; GVH_DEPTH] {
        let mut out = [None; GVH_DEPTH];
        let mut i = 0;
        for &(_, v) in self.spec_gvh.iter().rev() {
            if i == GVH_DEPTH {
                return out;
            }
            out[i] = v;
            i += 1;
        }
        for &v in self.committed_gvh.iter() {
            if i == GVH_DEPTH {
                break;
            }
            out[i] = Some(v);
            i += 1;
        }
        out
    }

    /// The committed GVH, youngest first (used at train time).
    fn committed_gvh_arr(&self) -> [Option<u64>; GVH_DEPTH] {
        let mut out = [None; GVH_DEPTH];
        for (i, &v) in self.committed_gvh.iter().enumerate().take(GVH_DEPTH) {
            out[i] = Some(v);
        }
        out
    }
}

impl Predictor for GDiff {
    fn predict(&mut self, ctx: &PredictCtx) -> Prediction {
        let base_pred = self.base.predict(ctx);
        let index = self.index(ctx.pc);
        let tag = self.tag(ctx.pc);
        let e = &self.entries[index as usize];
        let gvh = self.speculative_gvh();
        let gdiff_pred = if e.valid
            && e.tag == tag
            && (e.dist as usize) < GVH_DEPTH
            && self.scheme.is_saturated(e.conf)
        {
            gvh[e.dist as usize].map(|v| v.wrapping_add(e.delta))
        } else {
            None
        };
        // Arbitration: the base predictor wins when confident; gDiff covers
        // what per-PC context cannot.
        let final_pred = match (base_pred.confident_value(), gdiff_pred) {
            (Some(v), _) => Prediction::of(v, true),
            (None, Some(v)) => Prediction::of(v, true),
            (None, None) => Prediction { value: base_pred.value, confident: false },
        };
        // The speculative GVH records our best guess for this µop's value
        // (the paper: another predictor provides the speculative history).
        self.spec_gvh.push_back((ctx.seq, final_pred.value));
        self.inflight.push(ctx.seq, Record { index, tag, predicted: gdiff_pred });
        final_pred
    }

    fn train(&mut self, seq: u64, actual: u64) {
        self.base.train(seq, actual);
        let rec = self.inflight.pop(seq);
        // Retire this µop from the speculative GVH into the committed one.
        // (It is the oldest in-flight record by the in-order protocol.)
        let gvh_before = self.committed_gvh_arr();
        while let Some(&(s, _)) = self.spec_gvh.front() {
            if s <= seq {
                self.spec_gvh.pop_front();
            } else {
                break;
            }
        }
        self.committed_gvh.push_front(actual);
        self.committed_gvh.truncate(GVH_DEPTH);

        let e = &mut self.entries[rec.index as usize];
        if e.valid && e.tag == rec.tag {
            // Confidence validates the prediction carried from fetch when
            // one was made (the speculative-GVH prediction is what the
            // pipeline would consume); otherwise the (dist, delta) pair is
            // checked against the committed history so entries can warm up.
            let chosen_ok = match rec.predicted {
                Some(p) => p == actual,
                None => {
                    (e.dist as usize) < GVH_DEPTH
                        && gvh_before[e.dist as usize].map(|v| v.wrapping_add(e.delta))
                            == Some(actual)
                }
            };
            if chosen_ok {
                e.conf = self.scheme.on_correct(e.conf, &mut self.lfsr);
            } else {
                e.conf = self.scheme.on_incorrect(e.conf);
                // Re-select: find a distance whose delta repeated.
                let mut new_choice = None;
                for (d, slot) in gvh_before.iter().enumerate() {
                    if let Some(v) = slot {
                        let nd = actual.wrapping_sub(*v);
                        if nd == e.diffs[d] {
                            new_choice = Some((d as u8, nd));
                            break;
                        }
                    }
                }
                if let Some((d, nd)) = new_choice {
                    e.dist = d;
                    e.delta = nd;
                }
            }
            // Record the fresh deltas for the next re-selection.
            for (d, slot) in gvh_before.iter().enumerate() {
                if let Some(v) = slot {
                    e.diffs[d] = actual.wrapping_sub(*v);
                }
            }
        } else {
            let mut diffs = [0u64; GVH_DEPTH];
            for d in 0..GVH_DEPTH {
                if let Some(v) = gvh_before[d] {
                    diffs[d] = actual.wrapping_sub(v);
                }
            }
            self.entries[rec.index as usize] = Entry {
                valid: true,
                tag: rec.tag,
                diffs,
                dist: GVH_DEPTH as u8,
                delta: 0,
                conf: 0,
            };
        }
    }

    fn squash_after(&mut self, seq: u64) {
        self.base.squash_after(seq);
        self.inflight.squash_after(seq);
        while matches!(self.spec_gvh.back(), Some(&(s, _)) if s > seq) {
            self.spec_gvh.pop_back();
        }
    }

    fn resolve(&mut self, seq: u64, pc: u64, actual: u64) {
        self.base.resolve(seq, pc, actual);
        if let Some(slot) = self.spec_gvh.iter_mut().find(|(s, _)| *s == seq) {
            slot.1 = Some(actual);
        }
    }

    fn storage(&self) -> Storage {
        // tag + 8 diffs (64b) + dist (4b) + delta (64b) + conf.
        let bits = full_tag_bits(self.entries.len())
            + 64 * GVH_DEPTH
            + 4
            + 64
            + self.scheme.bits_per_counter();
        self.base.storage().merge(Storage::from_components(vec![StorageComponent::new(
            "gDiff",
            self.entries.len(),
            bits,
        )]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(seq: u64, pc: u64) -> PredictCtx {
        PredictCtx { seq, pc, ..Default::default() }
    }

    #[test]
    fn captures_cross_instruction_delta() {
        let mut p = GDiff::over_vtage(ConfidenceScheme::baseline(), 1);
        let mut seq = 0;
        let mut x = 7u64;
        let mut hits = 0;
        for _ in 0..80 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            p.predict(&ctx(seq, 0x100));
            p.train(seq, x);
            seq += 1;
            let want = x.wrapping_add(64);
            if p.predict(&ctx(seq, 0x200)).confident_value() == Some(want) {
                hits += 1;
            }
            p.train(seq, want);
            seq += 1;
        }
        assert!(hits > 30, "got {hits}");
    }

    #[test]
    fn base_vtage_still_covers_constants() {
        let mut p = GDiff::over_vtage(ConfidenceScheme::baseline(), 1);
        let mut seq = 0;
        for _ in 0..12 {
            p.predict(&ctx(seq, 0x40));
            p.train(seq, 42);
            seq += 1;
        }
        let pred = p.predict(&ctx(seq, 0x40));
        assert_eq!(pred.confident_value(), Some(42));
        p.train(seq, 42);
    }

    #[test]
    fn squash_rolls_back_speculative_gvh() {
        let mut p = GDiff::over_vtage(ConfidenceScheme::baseline(), 1);
        p.predict(&ctx(0, 0x10));
        p.predict(&ctx(1, 0x20));
        p.predict(&ctx(2, 0x30));
        p.squash_after(0);
        assert_eq!(p.spec_gvh.len(), 1);
        p.train(0, 5);
        assert!(p.spec_gvh.is_empty());
        assert_eq!(p.committed_gvh.front(), Some(&5));
    }

    #[test]
    fn storage_includes_base_and_table() {
        let p = GDiff::over_vtage(ConfidenceScheme::baseline(), 1);
        let v = Vtage::with_defaults(ConfidenceScheme::baseline(), 1);
        assert!(p.storage().total_kb() > v.storage().total_kb());
    }

    #[test]
    fn gvh_depth_is_respected() {
        let mut p = GDiff::over_vtage(ConfidenceScheme::baseline(), 1);
        for s in 0..20 {
            p.predict(&ctx(s, 0x10 + 4 * s));
            p.train(s, s);
        }
        assert!(p.committed_gvh.len() <= GVH_DEPTH);
    }
}
