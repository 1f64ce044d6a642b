//! VTAGE — the Value TAgged GEometric history length predictor (paper §6).
//!
//! VTAGE is derived from the ITTAGE indirect-branch predictor: a tagless
//! last-value base component plus N tagged components indexed by hashes of
//! the PC with geometrically increasing lengths of **global branch history**
//! and the **path history**. The matching component with the longest
//! history *provides* the prediction; it is used only when its
//! confidence/hysteresis counter `c` is saturated.
//!
//! Because the lookup depends only on control-flow history — never on
//! previous values of the same instruction — VTAGE:
//!
//! * predicts **back-to-back occurrences** of an instruction seamlessly
//!   (§3.2, Fig. 1: it behaves like LVP in the prediction pipeline), and
//! * tolerates multi-cycle lookups (fetch→dispatch), so **large tables are
//!   practical** — the exact opposite of FCM-class predictors.
//!
//! Update policy (§6, following ITTAGE): only the provider is updated. On a
//! correct prediction `c` increments (probabilistically under FPC) and the
//! useful bit `u` is set; on a misprediction `val` is replaced only if `c`
//! was already 0, `c` resets, `u` clears, and a new entry is allocated in a
//! randomly chosen longer-history component whose existing entry is not
//! useful (if all are useful, their `u` bits decay instead).

use crate::confidence::{ConfidenceScheme, Lfsr};
use crate::history::{fold, FoldedHistory};
use crate::inflight::Inflight;
use crate::storage::{Storage, StorageComponent};
use crate::{PredictCtx, Prediction, Predictor};

/// Maximum number of tagged components supported by the fixed-size
/// per-prediction records.
pub const MAX_COMPONENTS: usize = 8;
/// Global-history folds per tagged component: index, tag, shifted tag.
const GHIST_FOLDS: usize = 3 * MAX_COMPONENTS;

/// VTAGE geometry.
///
/// The default matches the paper's Table 1: an 8K-entry base, six 1K-entry
/// tagged components with history lengths 2, 4, 8, 16, 32, 64 and tag
/// widths 12 + rank. Lengths above 128 fold as 128, the whole global
/// history register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VtageConfig {
    /// Entries in the tagless base (last-value) component.
    pub base_entries: usize,
    /// Entries in each tagged component.
    pub component_entries: usize,
    /// History length per tagged component, strictly increasing.
    pub history_lengths: Vec<u32>,
    /// Tag width of component `rank` is `base_tag_bits + rank`.
    pub base_tag_bits: u32,
}

impl Default for VtageConfig {
    fn default() -> Self {
        VtageConfig {
            base_entries: 8192,
            component_entries: 1024,
            history_lengths: vec![2, 4, 8, 16, 32, 64],
            base_tag_bits: 12,
        }
    }
}

impl VtageConfig {
    /// Number of tagged components.
    pub fn num_components(&self) -> usize {
        self.history_lengths.len()
    }

    fn validate(&self) {
        assert!(self.base_entries.is_power_of_two(), "base entries must be a power of two");
        assert!(
            self.component_entries.is_power_of_two(),
            "component entries must be a power of two"
        );
        assert!(
            !self.history_lengths.is_empty() && self.history_lengths.len() <= MAX_COMPONENTS,
            "1..={MAX_COMPONENTS} tagged components required"
        );
        assert!(
            self.history_lengths.windows(2).all(|w| w[0] < w[1]),
            "history lengths must be strictly increasing"
        );
        assert!(
            self.base_tag_bits as usize + self.history_lengths.len() <= 32,
            "tags must fit in 32 bits"
        );
        assert!(self.base_tag_bits >= 1, "tags need at least 2 bits");
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct BaseEntry {
    value: u64,
    conf: u8,
}

#[derive(Debug, Clone, Copy, Default)]
struct TaggedEntry {
    valid: bool,
    tag: u32,
    useful: bool,
    value: u64,
    conf: u8,
}

#[derive(Debug, Clone, Copy)]
struct Record {
    base_index: u32,
    indices: [u32; MAX_COMPONENTS],
    tags: [u32; MAX_COMPONENTS],
    /// 0 = base; 1..=N = tagged component rank.
    provider: u8,
    predicted: u64,
}

/// Where one tagged component's hash inputs live: slots in
/// [`Vtage::ghist_folds`] and [`Vtage::path_lens`], and its tag mask.
#[derive(Debug, Clone, Copy, Default)]
struct ComponentHash {
    tag_mask: u32,
    index_fold: u8,
    tag_fold: u8,
    tag_fold_shifted: u8,
    path_fold: u8,
}

/// The VTAGE predictor (see module docs).
///
/// # Examples
///
/// Values correlated with branch direction are VTAGE's home turf:
///
/// ```
/// use vpsim_core::{Vtage, Predictor, PredictCtx, ConfidenceScheme, HistoryState};
///
/// let mut p = Vtage::with_defaults(ConfidenceScheme::baseline(), 9);
/// let mut seq = 0;
/// // The value produced at PC 0x40 equals 100 after a taken branch and
/// // 200 after a not-taken branch.
/// for round in 0..64 {
///     let taken = round % 2 == 0;
///     let mut hist = HistoryState::default();
///     hist.push_branch(0x10, taken);
///     let ctx = PredictCtx { seq, pc: 0x40, hist, actual: None };
///     let pred = p.predict(&ctx);
///     let actual = if taken { 100 } else { 200 };
///     if round > 40 {
///         assert_eq!(pred.confident_value(), Some(actual));
///     }
///     p.train(seq, actual);
///     seq += 1;
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Vtage {
    config: VtageConfig,
    base: Vec<BaseEntry>,
    components: Vec<Vec<TaggedEntry>>,
    base_bits: u32,
    comp_bits: u32,
    hashes: [ComponentHash; MAX_COMPONENTS],
    /// Global-history folds of every component, advanced once per branch.
    ghist_folds: FoldedHistory<GHIST_FOLDS>,
    /// The distinct path-history lengths, each folded once per prediction.
    path_lens: Vec<u32>,
    scheme: ConfidenceScheme,
    lfsr: Lfsr,
    inflight: Inflight<Record>,
}

impl Vtage {
    /// The paper's configuration (Table 1).
    pub fn with_defaults(scheme: ConfidenceScheme, seed: u64) -> Self {
        Vtage::new(VtageConfig::default(), scheme, seed)
    }

    /// Create with an explicit geometry.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (non-power-of-two tables,
    /// non-increasing history lengths, too many components).
    pub fn new(config: VtageConfig, scheme: ConfidenceScheme, seed: u64) -> Self {
        config.validate();
        let comp_bits = config.component_entries.trailing_zeros();
        let mut hashes = [ComponentHash::default(); MAX_COMPONENTS];
        let mut ghist_folds = FoldedHistory::new();
        let mut path_lens = Vec::new();
        for (rank, &len) in (1..).zip(&config.history_lengths) {
            let bits = config.base_tag_bits + rank;
            let path_len = 3 * len.min(16);
            if !path_lens.contains(&path_len) {
                path_lens.push(path_len);
            }
            hashes[rank as usize - 1] = ComponentHash {
                tag_mask: ((1u64 << bits) - 1) as u32,
                index_fold: ghist_folds.slot(len, comp_bits) as u8,
                tag_fold: ghist_folds.slot(len, bits) as u8,
                tag_fold_shifted: ghist_folds.slot(len, bits - 1) as u8,
                path_fold: path_lens.iter().position(|&l| l == path_len).unwrap() as u8,
            };
        }
        Vtage {
            base: vec![BaseEntry::default(); config.base_entries],
            components: vec![
                vec![TaggedEntry::default(); config.component_entries];
                config.num_components()
            ],
            base_bits: config.base_entries.trailing_zeros(),
            comp_bits,
            hashes,
            ghist_folds,
            path_lens,
            config,
            scheme,
            lfsr: Lfsr::new(seed),
            inflight: Inflight::new(),
        }
    }

    /// The geometry in use.
    pub fn config(&self) -> &VtageConfig {
        &self.config
    }

    fn base_index(&self, pc: u64) -> u32 {
        ((pc >> 2) & ((1 << self.base_bits) - 1)) as u32
    }
}

impl Predictor for Vtage {
    /// Component `rank` is indexed by the PC, the PC shifted right by
    /// `rank`, its global history folded to the index width and its path
    /// history (3 bits per control µop, at most 16 µops) folded likewise;
    /// its tag is the PC XOR two folds of its global history, to the tag
    /// width and one bit narrower, the latter shifted left.
    fn predict(&mut self, ctx: &PredictCtx) -> Prediction {
        let n = self.config.num_components();
        let base_index = self.base_index(ctx.pc);
        let pcs = ctx.pc >> 2;
        let index_mask = (1u64 << self.comp_bits) - 1;
        let mut path_folds = [0u64; MAX_COMPONENTS];
        for (f, &len) in path_folds.iter_mut().zip(&self.path_lens) {
            *f = fold(ctx.hist.path as u128, len, self.comp_bits);
        }
        let g = self.ghist_folds.folds(ctx.hist.ghist);
        let mut indices = [0u32; MAX_COMPONENTS];
        let mut tags = [0u32; MAX_COMPONENTS];
        let mut provider = 0u8;
        for rank in 1..=n {
            let h = self.hashes[rank - 1];
            let index =
                pcs ^ (pcs >> rank) ^ g[h.index_fold as usize] ^ path_folds[h.path_fold as usize];
            let tag = pcs ^ g[h.tag_fold as usize] ^ (g[h.tag_fold_shifted as usize] << 1);
            indices[rank - 1] = (index & index_mask) as u32;
            tags[rank - 1] = tag as u32 & h.tag_mask;
            let e = &self.components[rank - 1][indices[rank - 1] as usize];
            if e.valid && e.tag == tags[rank - 1] {
                provider = rank as u8;
            }
        }
        let (value, conf) = if provider == 0 {
            let e = &self.base[base_index as usize];
            (e.value, e.conf)
        } else {
            let e =
                &self.components[provider as usize - 1][indices[provider as usize - 1] as usize];
            (e.value, e.conf)
        };
        self.inflight
            .push(ctx.seq, Record { base_index, indices, tags, provider, predicted: value });
        Prediction::of(value, self.scheme.is_saturated(conf))
    }

    fn train(&mut self, seq: u64, actual: u64) {
        let rec = self.inflight.pop(seq);
        let n = self.config.num_components();
        // --- provider update (only the provider is updated, §6) ---
        let mispredicted = if rec.provider == 0 {
            let e = &mut self.base[rec.base_index as usize];
            // Validate the prediction carried from fetch.
            let correct = rec.predicted == actual;
            if correct {
                e.conf = self.scheme.on_correct(e.conf, &mut self.lfsr);
            } else {
                if e.conf == 0 {
                    e.value = actual;
                }
                e.conf = self.scheme.on_incorrect(e.conf);
            }
            !correct
        } else {
            let rank = rec.provider as usize;
            let e = &mut self.components[rank - 1][rec.indices[rank - 1] as usize];
            if e.valid && e.tag == rec.tags[rank - 1] {
                let correct = rec.predicted == actual;
                e.useful = correct;
                if correct {
                    e.conf = self.scheme.on_correct(e.conf, &mut self.lfsr);
                } else {
                    if e.conf == 0 {
                        e.value = actual;
                    }
                    e.conf = self.scheme.on_incorrect(e.conf);
                }
                !correct
            } else {
                // The provider entry was reallocated between fetch and
                // commit (rare). Judge by the value carried in the payload.
                rec.predicted != actual
            }
        };
        // --- allocation in a longer-history component ---
        if mispredicted && (rec.provider as usize) < n {
            let mut candidates = [0usize; MAX_COMPONENTS];
            let mut ncand = 0usize;
            for rank in rec.provider as usize + 1..=n {
                let e = &self.components[rank - 1][rec.indices[rank - 1] as usize];
                if !e.valid || !e.useful {
                    candidates[ncand] = rank;
                    ncand += 1;
                }
            }
            let candidates = &candidates[..ncand];
            if candidates.is_empty() {
                // All candidate entries are useful: decay them instead of
                // allocating (anti-thrash, as in ITTAGE).
                for rank in rec.provider as usize + 1..=n {
                    self.components[rank - 1][rec.indices[rank - 1] as usize].useful = false;
                }
            } else {
                let pick = candidates[(self.lfsr.next_value() as usize) % candidates.len()];
                self.components[pick - 1][rec.indices[pick - 1] as usize] = TaggedEntry {
                    valid: true,
                    tag: rec.tags[pick - 1],
                    useful: false,
                    value: actual,
                    conf: 0,
                };
            }
        }
    }

    fn squash_after(&mut self, seq: u64) {
        self.inflight.squash_after(seq);
    }

    fn storage(&self) -> Storage {
        let conf_bits = self.scheme.bits_per_counter();
        let mut comps =
            vec![StorageComponent::new("VTAGE base", self.config.base_entries, 64 + conf_bits)];
        for rank in 1..=self.config.num_components() {
            let tag_bits = self.config.base_tag_bits as usize + rank;
            comps.push(StorageComponent::new(
                format!("VT{rank}"),
                self.config.component_entries,
                tag_bits + 1 + 64 + conf_bits,
            ));
        }
        Storage::from_components(comps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryState;

    fn ctx(seq: u64, pc: u64, hist: HistoryState) -> PredictCtx {
        PredictCtx { seq, pc, hist, actual: None }
    }

    fn hist_of_bits(bits: &[bool]) -> HistoryState {
        let mut h = HistoryState::default();
        for (i, &b) in bits.iter().enumerate() {
            h.push_branch((i as u64) * 4, b);
        }
        h
    }

    #[test]
    fn base_component_learns_constants_like_lvp() {
        let mut p = Vtage::with_defaults(ConfidenceScheme::baseline(), 1);
        let h = HistoryState::default();
        let mut seq = 0;
        for _ in 0..10 {
            p.predict(&ctx(seq, 0x40, h));
            p.train(seq, 42);
            seq += 1;
        }
        let pred = p.predict(&ctx(seq, 0x40, h));
        assert_eq!(pred.confident_value(), Some(42));
        p.train(seq, 42);
    }

    #[test]
    fn captures_branch_correlated_values() {
        let mut p = Vtage::with_defaults(ConfidenceScheme::baseline(), 1);
        let h_taken = hist_of_bits(&[true]);
        let h_not = hist_of_bits(&[false]);
        let mut seq = 0;
        for _ in 0..40 {
            p.predict(&ctx(seq, 0x40, h_taken));
            p.train(seq, 111);
            seq += 1;
            p.predict(&ctx(seq, 0x40, h_not));
            p.train(seq, 222);
            seq += 1;
        }
        let a = p.predict(&ctx(seq, 0x40, h_taken)).confident_value();
        p.train(seq, 111);
        let b = p.predict(&ctx(seq + 1, 0x40, h_not)).confident_value();
        p.train(seq + 1, 222);
        assert_eq!(a, Some(111));
        assert_eq!(b, Some(222));
    }

    #[test]
    fn captures_short_value_patterns_via_rotating_history() {
        // A loop with 4 iterations between pattern repeats: each iteration
        // shifts one branch outcome into ghist, so the VT components see
        // distinct histories per pattern position.
        let mut p = Vtage::with_defaults(ConfidenceScheme::baseline(), 1);
        let values = [10u64, 20, 30, 40];
        let mut h = HistoryState::default();
        let mut confident_correct = 0;
        for round in 0..200u64 {
            let pos = (round % 4) as usize;
            let pred = p.predict(&ctx(round, 0x40, h)).confident_value();
            if pred == Some(values[pos]) {
                confident_correct += 1;
            }
            p.train(round, values[pos]);
            // The loop's closing branch: taken except at pattern end.
            h.push_branch(0x60, pos != 3);
        }
        assert!(confident_correct > 80, "got {confident_correct}");
    }

    #[test]
    fn longer_history_component_overrides_base() {
        let mut p = Vtage::with_defaults(ConfidenceScheme::baseline(), 1);
        let h1 = hist_of_bits(&[true, true, false]);
        let mut seq = 0;
        // Train base toward 5 via empty history, then a specific history
        // toward 900: the tagged match must win.
        for _ in 0..50 {
            p.predict(&ctx(seq, 0x40, HistoryState::default()));
            p.train(seq, 5);
            seq += 1;
            p.predict(&ctx(seq, 0x40, h1));
            p.train(seq, 900);
            seq += 1;
        }
        let pred = p.predict(&ctx(seq, 0x40, h1));
        assert_eq!(pred.confident_value(), Some(900));
        p.train(seq, 900);
    }

    #[test]
    fn misprediction_with_zero_conf_replaces_value() {
        let mut p = Vtage::with_defaults(ConfidenceScheme::baseline(), 1);
        let h = HistoryState::default();
        p.predict(&ctx(0, 0x40, h));
        p.train(0, 7); // base entry conf 0 → value replaced with 7
        let pred = p.predict(&ctx(1, 0x40, h));
        assert_eq!(pred.value, Some(7));
        p.train(1, 7);
    }

    #[test]
    fn misprediction_with_high_conf_keeps_value_once() {
        let mut p = Vtage::with_defaults(ConfidenceScheme::baseline(), 1);
        let h = HistoryState::default();
        let mut seq = 0;
        for _ in 0..10 {
            p.predict(&ctx(seq, 0x40, h));
            p.train(seq, 7);
            seq += 1;
        }
        // One wrong value: conf resets (so the prediction is no longer
        // used), the base value 7 is kept by hysteresis, and a new entry
        // holding 1000 is allocated in a tagged component.
        p.predict(&ctx(seq, 0x40, h));
        p.train(seq, 1000);
        seq += 1;
        let pred = p.predict(&ctx(seq, 0x40, h));
        assert!(!pred.confident, "confidence must reset after the glitch");
        p.train(seq, 7);
        seq += 1;
        // Training on 7 again re-saturates quickly because the base entry
        // still holds 7 (the freshly allocated 1000-entry loses and is
        // replaced at its first mispredict, conf 0).
        for _ in 0..10 {
            p.predict(&ctx(seq, 0x40, h));
            p.train(seq, 7);
            seq += 1;
        }
        let pred = p.predict(&ctx(seq, 0x40, h));
        assert_eq!(pred.confident_value(), Some(7), "value recovered after one glitch");
        p.train(seq, 7);
    }

    #[test]
    fn back_to_back_predictions_are_independent_of_value_state() {
        // VTAGE predictions for several in-flight occurrences need no
        // speculative value tracking: same (pc, hist) → same prediction.
        let mut p = Vtage::with_defaults(ConfidenceScheme::baseline(), 1);
        let h = HistoryState::default();
        let mut seq = 0;
        for _ in 0..10 {
            p.predict(&ctx(seq, 0x40, h));
            p.train(seq, 64);
            seq += 1;
        }
        let p1 = p.predict(&ctx(seq, 0x40, h)).confident_value();
        let p2 = p.predict(&ctx(seq + 1, 0x40, h)).confident_value();
        let p3 = p.predict(&ctx(seq + 2, 0x40, h)).confident_value();
        assert_eq!(p1, Some(64));
        assert_eq!(p2, Some(64));
        assert_eq!(p3, Some(64));
        p.train(seq, 64);
        p.train(seq + 1, 64);
        p.train(seq + 2, 64);
    }

    #[test]
    fn squash_discards_inflight_only() {
        let mut p = Vtage::with_defaults(ConfidenceScheme::baseline(), 1);
        let h = HistoryState::default();
        let mut seq = 0;
        for _ in 0..10 {
            p.predict(&ctx(seq, 0x40, h));
            p.train(seq, 3);
            seq += 1;
        }
        p.predict(&ctx(seq, 0x40, h));
        p.predict(&ctx(seq + 1, 0x40, h));
        p.squash_after(seq);
        p.train(seq, 3);
        // Prediction quality is unaffected by the squash.
        let pred = p.predict(&ctx(seq + 1, 0x40, h));
        assert_eq!(pred.confident_value(), Some(3));
        p.train(seq + 1, 3);
    }

    #[test]
    fn storage_matches_table1() {
        let p = Vtage::with_defaults(ConfidenceScheme::baseline(), 1);
        let s = p.storage();
        let base_kb: f64 = s.components()[0].bits() as f64 / 8000.0;
        let tagged_kb: f64 = s.components()[1..].iter().map(|c| c.bits() as f64 / 8000.0).sum();
        assert!((base_kb - 68.6).abs() < 0.05, "base {base_kb}");
        assert!((tagged_kb - 64.1).abs() < 0.05, "tagged {tagged_kb}");
    }

    #[test]
    fn ablation_geometries_construct() {
        for n in 1..=8usize {
            let lengths: Vec<u32> = (0..n).map(|i| 2u32 << i).collect();
            let cfg = VtageConfig {
                base_entries: 1024,
                component_entries: 256,
                history_lengths: lengths,
                base_tag_bits: 8,
            };
            let p = Vtage::new(cfg, ConfidenceScheme::baseline(), 1);
            assert_eq!(p.config().num_components(), n);
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_increasing_history_lengths_panic() {
        let cfg = VtageConfig { history_lengths: vec![2, 2], ..VtageConfig::default() };
        let _ = Vtage::new(cfg, ConfidenceScheme::baseline(), 1);
    }

    #[test]
    fn u_bit_protects_useful_entries_from_thrash() {
        // Train a stable pattern, then hammer with chaotic values from a
        // different PC mapping to overlapping component entries; the stable
        // PC must stay predictable.
        let mut p = Vtage::with_defaults(ConfidenceScheme::baseline(), 1);
        let h = hist_of_bits(&[true, false, true]);
        let mut seq = 0;
        for _ in 0..30 {
            p.predict(&ctx(seq, 0x40, h));
            p.train(seq, 5);
            seq += 1;
        }
        // Chaos on another PC (forces many allocations elsewhere).
        let mut chaos = 1u64;
        for _ in 0..200 {
            chaos = chaos.wrapping_mul(6364136223846793005).wrapping_add(1);
            p.predict(&ctx(seq, 0x80, h));
            p.train(seq, chaos);
            seq += 1;
        }
        let pred = p.predict(&ctx(seq, 0x40, h));
        assert_eq!(pred.value, Some(5), "stable entry survived chaos");
        p.train(seq, 5);
    }
}
