//! Finite Context Method predictors (Sazeides & Smith).
//!
//! * [`Fcm`] — the paper's order-4 FCM baseline: a two-level structure. The
//!   first level (Value History Table, VHT) records the folded history of
//!   the last 4 values produced by the instruction; the history hash indexes
//!   the second level (Value Prediction Table, VPT) holding the prediction.
//!   Following §7.1.1, each 64-bit value is folded onto itself to a 16-bit
//!   compressed form; the VPT index XORs the folded values with increasing
//!   shifts, then XORs in the PC to break interference; the VPT keeps a
//!   2-bit hysteresis counter to limit replacement.
//! * [`DFcm`] — Differential FCM (Goeman et al., HPCA 2001): the history
//!   and the VPT store value *differences*, combining FCM pattern capture
//!   with stride-style compactness. The paper leaves the D-FCM comparison
//!   to future work; it is included here as an extension.
//!
//! FCM-class predictors illustrate the paper's §3.2 complexity argument:
//! predicting an instruction requires the (speculative) results of its last
//! *n* occurrences, so tight loops force either tiny tables or giving up
//! back-to-back prediction. The simulator follows the paper's evaluation in
//! idealizing this: FCM is allowed to predict back-to-back occurrences
//! instantly, which *overestimates* its performance (§7.1.1).

use crate::confidence::{ConfidenceScheme, Lfsr};
use crate::history::fold_value16;
use crate::hybrid::SpeculativeFeed;
use crate::inflight::{Inflight, SpecWindow};
use crate::storage::{full_tag_bits, Storage, StorageComponent};
use crate::{PredictCtx, Prediction, Predictor};

/// History order (the paper's o4).
const ORDER: usize = 4;
/// VPT hysteresis saturation.
const HYST_MAX: u8 = 3;

#[derive(Debug, Clone, Copy, Default)]
struct VhtEntry {
    valid: bool,
    tag: u64,
    /// Folded 16-bit value history, youngest at index 0.
    hist: [u16; ORDER],
    conf: u8,
    /// D-FCM only: last committed value (differences are relative to it).
    last: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct VptEntry {
    /// Predicted value ([`Fcm`]) or difference ([`DFcm`]).
    value: u64,
    hyst: u8,
}

#[derive(Debug, Clone, Copy)]
struct Record {
    index: u32,
    tag: u64,
    /// The prediction as made at fetch (speculative history included).
    predicted: Option<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flavour {
    Absolute,
    Differential,
}

#[derive(Debug, Clone)]
struct FcmCore {
    vht: Vec<VhtEntry>,
    vpt: Vec<VptEntry>,
    vht_bits: u32,
    vpt_bits: u32,
    scheme: ConfidenceScheme,
    lfsr: Lfsr,
    inflight: Inflight<Record>,
    /// Speculative folded history elements (FCM: folded predicted values;
    /// D-FCM: folded predicted differences).
    spec_hist: SpecWindow,
    /// D-FCM only: speculative predicted values (the "last" chain).
    spec_vals: SpecWindow,
    flavour: Flavour,
    name: &'static str,
}

impl FcmCore {
    fn new(
        vht_entries: usize,
        vpt_entries: usize,
        scheme: ConfidenceScheme,
        seed: u64,
        flavour: Flavour,
        name: &'static str,
    ) -> Self {
        assert!(vht_entries.is_power_of_two() && vpt_entries.is_power_of_two());
        FcmCore {
            vht: vec![VhtEntry::default(); vht_entries],
            vpt: vec![VptEntry::default(); vpt_entries],
            vht_bits: vht_entries.trailing_zeros(),
            vpt_bits: vpt_entries.trailing_zeros(),
            scheme,
            lfsr: Lfsr::new(seed),
            inflight: Inflight::new(),
            spec_hist: SpecWindow::new(),
            spec_vals: SpecWindow::new(),
            flavour,
            name,
        }
    }

    fn vht_index(&self, pc: u64) -> u32 {
        ((pc >> 2) & ((1 << self.vht_bits) - 1)) as u32
    }

    fn vht_tag(&self, pc: u64) -> u64 {
        pc >> (2 + self.vht_bits)
    }

    /// The paper's VPT hash: XOR the folded values with increasing left
    /// shifts (youngest unshifted), then XOR the PC to break conflicts.
    fn vpt_index(&self, hist: &[u16; ORDER], pc: u64) -> u32 {
        let mut h: u64 = 0;
        for (i, &v) in hist.iter().enumerate() {
            h ^= (v as u64) << i;
        }
        ((h ^ (pc >> 2)) & ((1 << self.vpt_bits) - 1)) as u32
    }

    /// Effective (speculative) history: in-flight folded elements overlay
    /// the committed VHT history, youngest first.
    fn effective_hist(&self, pc: u64, committed: &[u16; ORDER]) -> [u16; ORDER] {
        let mut hist = [0u16; ORDER];
        let mut k = 0;
        for v in self.spec_hist.recent_iter(pc, ORDER) {
            hist[k] = v as u16;
            k += 1;
        }
        hist[k..ORDER].copy_from_slice(&committed[..ORDER - k]);
        hist
    }

    fn predict(&mut self, ctx: &PredictCtx) -> Prediction {
        let index = self.vht_index(ctx.pc);
        let tag = self.vht_tag(ctx.pc);
        let e = &self.vht[index as usize];
        let prediction = if e.valid && e.tag == tag {
            let hist = self.effective_hist(ctx.pc, &e.hist);
            let vpt = &self.vpt[self.vpt_index(&hist, ctx.pc) as usize];
            let (value, spec_elem) = match self.flavour {
                Flavour::Absolute => (vpt.value, fold_value16(vpt.value) as u64),
                Flavour::Differential => {
                    let base = self.spec_vals.latest(ctx.pc).unwrap_or(e.last);
                    (base.wrapping_add(vpt.value), fold_value16(vpt.value) as u64)
                }
            };
            self.spec_hist.push(ctx.seq, ctx.pc, spec_elem);
            if self.flavour == Flavour::Differential {
                self.spec_vals.push(ctx.seq, ctx.pc, value);
            }
            Prediction::of(value, self.scheme.is_saturated(e.conf))
        } else {
            Prediction::none()
        };
        self.inflight.push(ctx.seq, Record { index, tag, predicted: prediction.value });
        prediction
    }

    fn train(&mut self, seq: u64, actual: u64) {
        let rec = self.inflight.pop(seq);
        self.spec_hist.retire_upto(seq);
        self.spec_vals.retire_upto(seq);
        let e = &mut self.vht[rec.index as usize];
        if e.valid && e.tag == rec.tag {
            // Commit-time prediction from the committed history.
            let hist = e.hist;
            let vpt_idx = {
                let mut h: u64 = 0;
                for (i, &v) in hist.iter().enumerate() {
                    h ^= (v as u64) << i;
                }
                // Recompute with the entry's own pc-tag impossible here; the
                // record index/tag identify the pc bits we need:
                // pc >> 2 = (tag << vht_bits) | index.
                let pc_shifted = (rec.tag << self.vht_bits) | rec.index as u64;
                ((h ^ pc_shifted) & ((1 << self.vpt_bits) - 1)) as u32
            };
            let observed = match self.flavour {
                Flavour::Absolute => actual,
                Flavour::Differential => actual.wrapping_sub(e.last),
            };
            // Confidence validates the prediction carried from fetch.
            let correct = rec.predicted == Some(actual);
            e.conf = if correct {
                self.scheme.on_correct(e.conf, &mut self.lfsr)
            } else {
                self.scheme.on_incorrect(e.conf)
            };
            // VPT update with hysteresis (§7.1.1: replace only at zero).
            let vpt = &mut self.vpt[vpt_idx as usize];
            let stored_target = match self.flavour {
                Flavour::Absolute => actual,
                Flavour::Differential => observed,
            };
            if vpt.value == stored_target {
                vpt.hyst = (vpt.hyst + 1).min(HYST_MAX);
            } else if vpt.hyst == 0 {
                vpt.value = stored_target;
            } else {
                vpt.hyst -= 1;
            }
            // Shift the new element into the committed history.
            let elem = match self.flavour {
                Flavour::Absolute => fold_value16(actual),
                Flavour::Differential => fold_value16(observed),
            };
            e.hist.rotate_right(1);
            e.hist[0] = elem;
            e.last = actual;
        } else {
            *e = VhtEntry {
                valid: true,
                tag: rec.tag,
                hist: [fold_value16(actual), 0, 0, 0],
                conf: 0,
                last: actual,
            };
        }
    }

    fn squash_after(&mut self, seq: u64) {
        self.inflight.squash_after(seq);
        self.spec_hist.squash_after(seq);
        self.spec_vals.squash_after(seq);
    }

    fn storage(&self) -> Storage {
        let vht_bits = full_tag_bits(self.vht.len())
            + 16 * ORDER
            + self.scheme.bits_per_counter()
            + if self.flavour == Flavour::Differential { 64 } else { 0 };
        let vpt_bits = 64 + 2;
        Storage::from_components(vec![
            StorageComponent::new(format!("{} VHT", self.name), self.vht.len(), vht_bits),
            StorageComponent::new(format!("{} VPT", self.name), self.vpt.len(), vpt_bits),
        ])
    }
}

macro_rules! fcm_predictor {
    ($(#[$doc:meta])* $ty:ident, $flavour:expr, $name:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $ty {
            core: FcmCore,
        }

        impl $ty {
            /// The paper's configuration: 8192-entry VHT, 8192-entry VPT.
            pub fn with_defaults(scheme: ConfidenceScheme, seed: u64) -> Self {
                Self::new(8192, 8192, scheme, seed)
            }

            /// Create with explicit table sizes (both powers of two).
            ///
            /// # Panics
            ///
            /// Panics if either size is not a power of two.
            pub fn new(vht: usize, vpt: usize, scheme: ConfidenceScheme, seed: u64) -> Self {
                $ty { core: FcmCore::new(vht, vpt, scheme, seed, $flavour, $name) }
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
                // Repair the speculative history element recorded at
                // prediction time with the computed result's folded form
                // (and, for D-FCM, the speculative value chain); younger
                // in-flight elements were derived from it and are
                // re-anchored too.
                self.core.spec_hist.correct_from(seq, pc, fold_value16(actual) as u64);
                if self.core.flavour == Flavour::Differential {
                    self.core.spec_vals.correct_from(seq, pc, actual);
                }
            }

            fn storage(&self) -> Storage {
                self.core.storage()
            }
        }

        impl SpeculativeFeed for $ty {
            fn feed(&mut self, seq: u64, pc: u64, value: u64) {
                // Substitute the arbitrated value's folded form for the
                // speculative history element recorded at predict time.
                match self.core.flavour {
                    Flavour::Absolute => {
                        self.core.spec_hist.replace(seq, pc, fold_value16(value) as u64);
                    }
                    Flavour::Differential => {
                        self.core.spec_vals.replace(seq, pc, value);
                    }
                }
            }
        }
    };
}

fcm_predictor!(
    /// Order-4 Finite Context Method predictor (paper Table 1: 8K VHT +
    /// 8K VPT, 120.8 + 67.6 KB).
    ///
    /// # Examples
    ///
    /// ```
    /// use vpsim_core::{Fcm, Predictor, PredictCtx, ConfidenceScheme};
    /// let mut p = Fcm::with_defaults(ConfidenceScheme::baseline(), 3);
    /// // A repeating period-3 pattern is exactly what FCM captures.
    /// let pattern = [5u64, 11, 3];
    /// let mut hits = 0;
    /// for seq in 0..60 {
    ///     let v = pattern[(seq % 3) as usize];
    ///     let ctx = PredictCtx { seq, pc: 0x8, ..Default::default() };
    ///     if p.predict(&ctx).confident_value() == Some(v) {
    ///         hits += 1;
    ///     }
    ///     p.train(seq, v);
    /// }
    /// assert!(hits > 10);
    /// ```
    Fcm,
    Flavour::Absolute,
    "o4-FCM"
);

fcm_predictor!(
    /// Order-4 Differential FCM: history and VPT store value differences,
    /// letting one VPT entry cover every instance of a strided pattern.
    DFcm,
    Flavour::Differential,
    "o4-D-FCM"
);

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(seq: u64, pc: u64) -> PredictCtx {
        PredictCtx { seq, pc, ..Default::default() }
    }

    fn run_pattern<P: Predictor>(p: &mut P, pc: u64, pattern: &[u64], reps: usize) -> (u64, u64) {
        let mut confident_correct = 0;
        let mut confident_total = 0;
        let mut seq = 0;
        for _ in 0..reps {
            for &v in pattern {
                if let Some(pred) = p.predict(&ctx(seq, pc)).confident_value() {
                    confident_total += 1;
                    if pred == v {
                        confident_correct += 1;
                    }
                }
                p.train(seq, v);
                seq += 1;
            }
        }
        (confident_correct, confident_total)
    }

    #[test]
    fn fcm_learns_periodic_pattern() {
        let mut p = Fcm::with_defaults(ConfidenceScheme::baseline(), 1);
        let (correct, total) = run_pattern(&mut p, 0x40, &[10, 20, 30, 40, 50], 40);
        assert!(total > 50, "FCM should become confident on a period-5 pattern");
        assert!(correct as f64 / total as f64 > 0.95, "{correct}/{total}");
    }

    #[test]
    fn fcm_learns_non_strided_repeating_values() {
        // LVP/stride cannot capture this; FCM must.
        let mut p = Fcm::with_defaults(ConfidenceScheme::baseline(), 1);
        let (correct, total) = run_pattern(&mut p, 0x40, &[7, 7, 13, 7, 7, 13], 60);
        assert!(total > 60);
        assert!(correct as f64 / total as f64 > 0.9);
    }

    #[test]
    fn dfcm_learns_strided_sequence_with_one_vpt_entry_per_delta() {
        let mut p = DFcm::with_defaults(ConfidenceScheme::baseline(), 1);
        // Pure stride: differences constant → captured by difference history.
        let mut confident = 0;
        for k in 0..60u64 {
            if let Some(v) = p.predict(&ctx(k, 0x40)).confident_value() {
                assert_eq!(v, k * 16);
                confident += 1;
            }
            p.train(k, k * 16);
        }
        assert!(confident > 30, "D-FCM must lock onto the stride, got {confident}");
    }

    #[test]
    fn dfcm_learns_alternating_deltas() {
        // Values: +1, +9, +1, +9, … — stride predictors fail, D-FCM succeeds.
        let mut p = DFcm::with_defaults(ConfidenceScheme::baseline(), 1);
        let mut v = 0u64;
        let mut correct = 0;
        let mut total = 0;
        for k in 0..120u64 {
            v += if k % 2 == 0 { 1 } else { 9 };
            if let Some(pred) = p.predict(&ctx(k, 0x40)).confident_value() {
                total += 1;
                if pred == v {
                    correct += 1;
                }
            }
            p.train(k, v);
        }
        assert!(total > 40, "expected confidence on alternating deltas, got {total}");
        assert!(correct as f64 / total as f64 > 0.9, "{correct}/{total}");
    }

    #[test]
    fn speculative_history_enables_back_to_back_prediction() {
        let mut p = Fcm::with_defaults(ConfidenceScheme::baseline(), 1);
        // Train pattern a,b,a,b…
        let mut seq = 0;
        for k in 0..40u64 {
            p.predict(&ctx(seq, 0x40));
            p.train(seq, 100 + (k % 2));
            seq += 1;
        }
        // Two back-to-back occurrences without intervening commits: the
        // second must use the speculative history including the first's
        // prediction (alternation continues).
        let p1 = p.predict(&ctx(seq, 0x40)).confident_value();
        let p2 = p.predict(&ctx(seq + 1, 0x40)).confident_value();
        assert_eq!(p1, Some(100), "pattern position check");
        assert_eq!(p2, Some(101), "speculative history must advance the pattern");
        p.train(seq, 100);
        p.train(seq + 1, 101);
    }

    #[test]
    fn squash_restores_speculative_history() {
        let mut p = Fcm::with_defaults(ConfidenceScheme::baseline(), 1);
        let mut seq = 0;
        for k in 0..40u64 {
            p.predict(&ctx(seq, 0x40));
            p.train(seq, 100 + (k % 2));
            seq += 1;
        }
        let p1 = p.predict(&ctx(seq, 0x40)).confident_value();
        let _p2 = p.predict(&ctx(seq + 1, 0x40));
        p.squash_after(seq);
        let p2_again = p.predict(&ctx(seq + 1, 0x40)).confident_value();
        assert_eq!(p1, Some(100));
        assert_eq!(p2_again, Some(101));
        p.train(seq, 100);
        p.train(seq + 1, 101);
    }

    #[test]
    fn vht_tag_miss_allocates() {
        let mut p = Fcm::new(8, 64, ConfidenceScheme::baseline(), 1);
        let mut seq = 0;
        for _ in 0..8 {
            p.predict(&ctx(seq, 0x0));
            p.train(seq, 1);
            seq += 1;
        }
        let conflicting = 8 * 4 * 4;
        let pred = p.predict(&ctx(seq, conflicting));
        assert_eq!(pred.value, None);
        p.train(seq, 2);
    }

    #[test]
    fn storage_matches_table1() {
        let p = Fcm::with_defaults(ConfidenceScheme::baseline(), 1);
        let total = p.storage().total_kb();
        assert!((total - (120.8 + 67.6)).abs() < 0.1, "got {total}");
    }

    #[test]
    fn dfcm_storage_exceeds_fcm_by_last_value_field() {
        let f = Fcm::with_defaults(ConfidenceScheme::baseline(), 1).storage().total_kb();
        let d = DFcm::with_defaults(ConfidenceScheme::baseline(), 1).storage().total_kb();
        assert!(d > f);
    }
}
