//! The TAGE conditional branch direction predictor (Seznec & Michaud,
//! JILP 2006) — the front-end predictor of the paper's Table 2
//! configuration, and the ancestor of ITTAGE from which VTAGE derives.

use vpsim_core::history::{fold, FoldedHistory, HistoryState};
use vpsim_core::inflight::Inflight;
use vpsim_core::state::{StateReader, StateWriter};
use vpsim_core::Lfsr;

/// Maximum tagged components.
const MAX_COMPONENTS: usize = 16;
/// `u`-bit graceful-aging period (branches between column resets).
const U_RESET_PERIOD: u64 = 256 * 1024;
/// Global-history folds per tagged component: index, tag, shifted tag.
const GHIST_FOLDS: usize = 3 * MAX_COMPONENTS;

/// TAGE geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TageConfig {
    /// Entries in the bimodal base predictor.
    pub bimodal_entries: usize,
    /// Entries in each tagged component.
    pub component_entries: usize,
    /// History length per tagged component, strictly increasing (≤ 128).
    pub history_lengths: Vec<u32>,
    /// Tag width per tagged component.
    pub tag_bits: Vec<u32>,
}

impl Default for TageConfig {
    /// The paper's "1+12 components, 15K-entry total": an 8K-entry bimodal
    /// base plus 12 tagged components of 512 entries (14 336 entries
    /// total), geometric history lengths 4…128.
    fn default() -> Self {
        TageConfig {
            bimodal_entries: 8192,
            component_entries: 512,
            history_lengths: vec![4, 6, 8, 12, 16, 24, 32, 48, 64, 80, 100, 128],
            tag_bits: vec![8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13],
        }
    }
}

impl TageConfig {
    fn validate(&self) {
        assert!(self.bimodal_entries.is_power_of_two());
        assert!(self.component_entries.is_power_of_two() && self.component_entries > 1);
        assert_eq!(self.history_lengths.len(), self.tag_bits.len());
        assert!(!self.history_lengths.is_empty() && self.history_lengths.len() <= MAX_COMPONENTS);
        assert!(self.history_lengths.windows(2).all(|w| w[0] < w[1]));
        assert!(self.history_lengths.iter().all(|&l| l <= 128), "history capped at 128 bits");
        assert!(self.tag_bits.iter().all(|&t| (1..=16).contains(&t)));
    }

    /// Total entries across all tables (the paper quotes ~15K).
    pub fn total_entries(&self) -> usize {
        self.bimodal_entries + self.component_entries * self.history_lengths.len()
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TaggedEntry {
    valid: bool,
    tag: u16,
    /// 3-bit signed counter in [-4, 3]; taken ⇔ `ctr >= 0`.
    ctr: i8,
    /// 2-bit usefulness counter.
    u: u8,
}

#[derive(Debug, Clone, Copy)]
struct Record {
    bim_index: u32,
    indices: [u16; MAX_COMPONENTS],
    tags: [u16; MAX_COMPONENTS],
    /// 0 = bimodal, 1..=N = tagged rank.
    provider: u8,
    /// Rank of the alternate prediction's provider.
    alt_provider: u8,
    pred: bool,
    alt_pred: bool,
    /// `true` when the provider entry was newly allocated (weak ctr, u==0):
    /// the alternate prediction was used instead (USE_ALT_ON_NA).
    used_alt: bool,
}

/// Where one tagged component's hash inputs live: slots in
/// [`Tage::ghist_folds`] and [`Tage::path_lens`], its PC shift and its
/// tag mask.
#[derive(Debug, Clone, Copy, Default)]
struct ComponentHash {
    tag_mask: u16,
    index_fold: u8,
    tag_fold: u8,
    tag_fold_shifted: u8,
    path_fold: u8,
    pc_shift: u8,
}

/// The TAGE direction predictor.
///
/// Speculative [`Tage::predict`] at fetch, in-order [`Tage::train`] at
/// commit, [`Tage::squash_after`] on squash — the same protocol as the
/// value predictors (prediction metadata is carried per in-flight branch,
/// as hardware does in the branch info queue).
#[derive(Debug, Clone)]
pub struct Tage {
    config: TageConfig,
    bimodal: Vec<i8>, // 2-bit counters in [-2, 1]; taken ⇔ >= 0
    components: Vec<Vec<TaggedEntry>>,
    comp_bits: u32,
    bim_bits: u32,
    hashes: [ComponentHash; MAX_COMPONENTS],
    /// Global-history folds of every component, advanced once per branch.
    ghist_folds: FoldedHistory<GHIST_FOLDS>,
    /// The distinct path-history lengths, each folded once per lookup.
    path_lens: Vec<u32>,
    lfsr: Lfsr,
    inflight: Inflight<Record>,
    trained_branches: u64,
}

impl Tage {
    /// The paper's configuration.
    pub fn with_defaults(seed: u64) -> Self {
        Tage::new(TageConfig::default(), seed)
    }

    /// Create with an explicit geometry.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (see [`TageConfig`]).
    pub fn new(config: TageConfig, seed: u64) -> Self {
        config.validate();
        let comp_bits = config.component_entries.trailing_zeros();
        let mut hashes = [ComponentHash::default(); MAX_COMPONENTS];
        let mut ghist_folds = FoldedHistory::new();
        let mut path_lens = Vec::new();
        for (rank, (&len, &bits)) in (1..).zip(config.history_lengths.iter().zip(&config.tag_bits))
        {
            let path_len = 3 * len.min(8);
            if !path_lens.contains(&path_len) {
                path_lens.push(path_len);
            }
            hashes[rank - 1] = ComponentHash {
                tag_mask: ((1u32 << bits) - 1) as u16,
                index_fold: ghist_folds.slot(len, comp_bits) as u8,
                tag_fold: ghist_folds.slot(len, bits) as u8,
                tag_fold_shifted: ghist_folds.slot(len, (bits - 1).max(1)) as u8,
                path_fold: path_lens.iter().position(|&l| l == path_len).unwrap() as u8,
                pc_shift: (comp_bits as usize - rank % comp_bits as usize).max(1) as u8,
            };
        }
        Tage {
            bimodal: vec![0; config.bimodal_entries],
            components: vec![
                vec![TaggedEntry::default(); config.component_entries];
                config.history_lengths.len()
            ],
            comp_bits,
            bim_bits: config.bimodal_entries.trailing_zeros(),
            hashes,
            ghist_folds,
            path_lens,
            config,
            lfsr: Lfsr::new(seed ^ 0x7A6E_0000),
            inflight: Inflight::new(),
            trained_branches: 0,
        }
    }

    /// The geometry in use.
    pub fn config(&self) -> &TageConfig {
        &self.config
    }

    fn bim_index(&self, pc: u64) -> u32 {
        ((pc >> 2) & ((1 << self.bim_bits) - 1)) as u32
    }

    /// Predict the direction of the conditional branch at `pc` under the
    /// speculative history `hist`. `seq` is the dynamic sequence number of
    /// the branch µop (in-order, as for value predictors).
    pub fn predict(&mut self, seq: u64, pc: u64, hist: &HistoryState) -> bool {
        let rec = self.lookup(pc, hist);
        let pred = rec.pred;
        self.inflight.push(seq, rec);
        pred
    }

    /// The table lookup shared by [`Tage::predict`] and
    /// [`Tage::train_committed`]: indices, tags, provider selection and
    /// the prediction, with no table change (only the fold registers
    /// advance to `hist`).
    ///
    /// Component `rank` is indexed by the PC, the PC shifted by its
    /// `pc_shift`, its global history folded to the index width and its
    /// path history (3 bits per control µop, at most 8 µops) folded
    /// likewise; its tag is the PC XOR two folds of its global history,
    /// to the tag width and one bit narrower, the latter shifted left.
    fn lookup(&mut self, pc: u64, hist: &HistoryState) -> Record {
        let n = self.config.history_lengths.len();
        let bim_index = self.bim_index(pc);
        let pcs = pc >> 2;
        let index_mask = (1u64 << self.comp_bits) - 1;
        let mut path_folds = [0u64; MAX_COMPONENTS];
        for (f, &len) in path_folds.iter_mut().zip(&self.path_lens) {
            *f = fold(hist.path as u128, len, self.comp_bits);
        }
        let g = self.ghist_folds.folds(hist.ghist);
        let mut indices = [0u16; MAX_COMPONENTS];
        let mut tags = [0u16; MAX_COMPONENTS];
        let mut provider = 0u8;
        let mut alt_provider = 0u8;
        for rank in 1..=n {
            let h = self.hashes[rank - 1];
            let index = pcs
                ^ (pcs >> h.pc_shift)
                ^ g[h.index_fold as usize]
                ^ path_folds[h.path_fold as usize];
            let tag = pcs ^ g[h.tag_fold as usize] ^ (g[h.tag_fold_shifted as usize] << 1);
            indices[rank - 1] = (index & index_mask) as u16;
            tags[rank - 1] = tag as u16 & h.tag_mask;
            let e = &self.components[rank - 1][indices[rank - 1] as usize];
            if e.valid && e.tag == tags[rank - 1] {
                alt_provider = provider;
                provider = rank as u8;
            }
        }
        let bim_pred = self.bimodal[bim_index as usize] >= 0;
        let alt_pred = if alt_provider == 0 {
            bim_pred
        } else {
            self.components[alt_provider as usize - 1][indices[alt_provider as usize - 1] as usize]
                .ctr
                >= 0
        };
        let (pred, used_alt) = if provider == 0 {
            (bim_pred, false)
        } else {
            let e =
                &self.components[provider as usize - 1][indices[provider as usize - 1] as usize];
            // USE_ALT_ON_NA: a newly allocated entry (weak counter, not yet
            // useful) defers to the alternate prediction.
            let newly_allocated = e.u == 0 && (e.ctr == 0 || e.ctr == -1);
            if newly_allocated {
                (alt_pred, true)
            } else {
                (e.ctr >= 0, false)
            }
        };
        Record { bim_index, indices, tags, provider, alt_provider, pred, alt_pred, used_alt }
    }

    /// Train with the resolved direction of branch `seq` (commit order).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not the oldest in-flight branch.
    pub fn train(&mut self, seq: u64, taken: bool) {
        let rec = self.inflight.pop(seq);
        self.train_record(&rec, taken);
    }

    /// Predict-and-train fused for committed-path streaming (the sampling
    /// warmer): identical state updates to `predict` immediately followed
    /// by `train`, without touching the in-flight queue.
    pub fn train_committed(&mut self, pc: u64, taken: bool, hist: &HistoryState) {
        let rec = self.lookup(pc, hist);
        self.train_record(&rec, taken);
    }

    fn train_record(&mut self, rec: &Record, taken: bool) {
        let n = self.config.history_lengths.len();
        let mispredicted = rec.pred != taken;

        if rec.provider == 0 {
            bump2(&mut self.bimodal[rec.bim_index as usize], taken);
        } else {
            let rank = rec.provider as usize;
            let idx = rec.indices[rank - 1] as usize;
            // Provider counter always trains toward the outcome.
            {
                let e = &mut self.components[rank - 1][idx];
                if e.valid && e.tag == rec.tags[rank - 1] {
                    bump3(&mut e.ctr, taken);
                }
            }
            // The alternate trains too when the provider was newly
            // allocated and its prediction was used.
            if rec.used_alt {
                if rec.alt_provider == 0 {
                    bump2(&mut self.bimodal[rec.bim_index as usize], taken);
                } else {
                    let ar = rec.alt_provider as usize;
                    let e = &mut self.components[ar - 1][rec.indices[ar - 1] as usize];
                    if e.valid && e.tag == rec.tags[ar - 1] {
                        bump3(&mut e.ctr, taken);
                    }
                }
            }
            // Usefulness: when provider and alternate disagree, u tracks
            // whether the provider was right.
            let provider_pred = {
                let e = &self.components[rank - 1][idx];
                e.ctr >= 0
            };
            if provider_pred != rec.alt_pred {
                let e = &mut self.components[rank - 1][idx];
                if provider_pred == taken {
                    e.u = (e.u + 1).min(3);
                } else {
                    e.u = e.u.saturating_sub(1);
                }
            }
        }

        // Allocation on misprediction (never from the longest component).
        if mispredicted && (rec.provider as usize) < n {
            let start = rec.provider as usize + 1;
            let mut candidates = [0usize; MAX_COMPONENTS];
            let mut ncand = 0usize;
            for rank in start..=n {
                let e = &self.components[rank - 1][rec.indices[rank - 1] as usize];
                if !e.valid || e.u == 0 {
                    candidates[ncand] = rank;
                    ncand += 1;
                }
            }
            let candidates = &candidates[..ncand];
            if candidates.is_empty() {
                for rank in start..=n {
                    let e = &mut self.components[rank - 1][rec.indices[rank - 1] as usize];
                    e.u = e.u.saturating_sub(1);
                }
            } else {
                // Prefer shorter histories (2:1 bias), as in TAGE.
                let pick = if candidates.len() > 1 && !self.lfsr.chance(2) {
                    candidates[0]
                } else {
                    candidates[(self.lfsr.next_value() as usize) % candidates.len()]
                };
                self.components[pick - 1][rec.indices[pick - 1] as usize] = TaggedEntry {
                    valid: true,
                    tag: rec.tags[pick - 1],
                    ctr: if taken { 0 } else { -1 },
                    u: 0,
                };
            }
        }

        // Graceful aging of u bits.
        self.trained_branches += 1;
        if self.trained_branches.is_multiple_of(U_RESET_PERIOD) {
            for comp in &mut self.components {
                for e in comp.iter_mut() {
                    e.u >>= 1;
                }
            }
        }
    }

    /// Discard in-flight predictions younger than `seq`.
    pub fn squash_after(&mut self, seq: u64) {
        self.inflight.squash_after(seq);
    }

    /// Serialize the committed training state (bimodal + tagged tables,
    /// allocation LFSR, aging counter) for a sampling checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if predictions are in flight — checkpoints are only taken at
    /// quiescent points where every `predict` has been matched by a `train`
    /// (the functional warmer trains immediately after predicting).
    pub fn save_state(&self, w: &mut StateWriter) {
        assert!(self.inflight.is_empty(), "cannot checkpoint TAGE with in-flight predictions");
        for &ctr in &self.bimodal {
            w.i8(ctr);
        }
        for comp in &self.components {
            for e in comp {
                w.bool(e.valid);
                w.u16(e.tag);
                w.i8(e.ctr);
                w.u8(e.u);
            }
        }
        w.u64(self.lfsr.state());
        w.u64(self.trained_branches);
    }

    /// Restore state captured by [`Tage::save_state`] into a predictor
    /// constructed with the same geometry. In-flight predictions are
    /// discarded.
    pub fn load_state(&mut self, r: &mut StateReader) -> Result<(), String> {
        for ctr in &mut self.bimodal {
            *ctr = r.i8()?;
        }
        for comp in &mut self.components {
            for e in comp.iter_mut() {
                e.valid = r.bool()?;
                e.tag = r.u16()?;
                e.ctr = r.i8()?;
                e.u = r.u8()?;
            }
        }
        self.lfsr = Lfsr::from_state(r.u64()?);
        self.trained_branches = r.u64()?;
        self.inflight = Inflight::new();
        Ok(())
    }

    /// Storage in bits (for documentation tables).
    pub fn storage_bits(&self) -> usize {
        let mut bits = self.config.bimodal_entries * 2;
        for t in &self.config.tag_bits {
            bits += self.config.component_entries * (*t as usize + 3 + 2);
        }
        bits
    }
}

/// Saturating 2-bit signed bump in [-2, 1].
fn bump2(ctr: &mut i8, taken: bool) {
    *ctr = if taken { (*ctr + 1).min(1) } else { (*ctr - 1).max(-2) };
}

/// Saturating 3-bit signed bump in [-4, 3].
fn bump3(ctr: &mut i8, taken: bool) {
    *ctr = if taken { (*ctr + 1).min(3) } else { (*ctr - 1).max(-4) };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_pattern(pattern: &[bool], reps: usize, pc: u64) -> f64 {
        let mut tage = Tage::with_defaults(1);
        let mut hist = HistoryState::default();
        let mut seq = 0;
        let mut correct = 0;
        let mut total = 0;
        for _ in 0..reps {
            for &taken in pattern {
                let pred = tage.predict(seq, pc, &hist);
                if pred == taken {
                    correct += 1;
                }
                total += 1;
                tage.train(seq, taken);
                hist.push_branch(pc, taken);
                seq += 1;
            }
        }
        correct as f64 / total as f64
    }

    #[test]
    fn always_taken_is_learned_immediately() {
        let acc = run_pattern(&[true], 200, 0x40);
        assert!(acc > 0.97, "accuracy {acc}");
    }

    #[test]
    fn alternating_branch_is_captured_by_short_history() {
        let acc = run_pattern(&[true, false], 200, 0x40);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn loop_exit_every_8_is_captured() {
        let acc = run_pattern(&[true, true, true, true, true, true, true, false], 100, 0x40);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn long_period_pattern_uses_long_history() {
        // Period-24 pattern: needs > 16 bits of history.
        let mut pattern = vec![true; 23];
        pattern.push(false);
        let acc = run_pattern(&pattern, 100, 0x40);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn random_branches_cap_near_majority() {
        // Deterministic pseudo-random pattern: TAGE cannot do much better
        // than the taken-rate; sanity-check it does not pathologically
        // mispredict either.
        let mut x = 0x12345678u64;
        let pattern: Vec<bool> = (0..512)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 63) == 1
            })
            .collect();
        let acc = run_pattern(&pattern, 4, 0x40);
        assert!(acc > 0.35 && acc < 0.85, "accuracy {acc}");
    }

    #[test]
    fn distinct_branches_do_not_destroy_each_other() {
        let mut tage = Tage::with_defaults(1);
        let mut hist = HistoryState::default();
        let mut seq = 0;
        let mut correct = [0u32; 2];
        for round in 0..400 {
            for (i, (pc, taken)) in [(0x40u64, true), (0x80u64, round % 2 == 0)].iter().enumerate()
            {
                let pred = tage.predict(seq, *pc, &hist);
                if pred == *taken {
                    correct[i] += 1;
                }
                tage.train(seq, *taken);
                hist.push_branch(*pc, *taken);
                seq += 1;
            }
        }
        assert!(correct[0] > 380, "always-taken branch: {}", correct[0]);
        assert!(correct[1] > 320, "alternating branch: {}", correct[1]);
    }

    #[test]
    fn squash_discards_speculative_records() {
        let mut tage = Tage::with_defaults(1);
        let hist = HistoryState::default();
        tage.predict(0, 0x40, &hist);
        tage.predict(1, 0x44, &hist);
        tage.predict(2, 0x48, &hist);
        tage.squash_after(0);
        tage.train(0, true);
        tage.predict(1, 0x44, &hist);
        tage.train(1, false);
    }

    #[test]
    #[should_panic(expected = "oldest in-flight")]
    fn out_of_order_train_panics() {
        let mut tage = Tage::with_defaults(1);
        let hist = HistoryState::default();
        tage.predict(0, 0x40, &hist);
        tage.predict(1, 0x44, &hist);
        tage.train(1, true);
    }

    #[test]
    fn save_load_state_resumes_identically() {
        let mut warmed = Tage::with_defaults(9);
        let mut hist = HistoryState::default();
        let mut x = 0xDEADu64;
        for seq in 0..4_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pc = 0x40 + (x % 37) * 4;
            let taken = (x >> 62) != 0;
            warmed.predict(seq, pc, &hist);
            warmed.train(seq, taken);
            hist.push_branch(pc, taken);
        }
        let mut w = StateWriter::new();
        warmed.save_state(&mut w);
        let bytes = w.into_bytes();
        // A fresh predictor with a different seed converges to the warmed
        // one after load (the LFSR state travels with the checkpoint).
        let mut restored = Tage::with_defaults(12345);
        let mut r = StateReader::new(&bytes);
        restored.load_state(&mut r).unwrap();
        r.finish().unwrap();
        // Both must now predict and train identically.
        for seq in 4_000u64..6_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pc = 0x40 + (x % 37) * 4;
            let taken = (x >> 62) != 0;
            assert_eq!(warmed.predict(seq, pc, &hist), restored.predict(seq, pc, &hist));
            warmed.train(seq, taken);
            restored.train(seq, taken);
            hist.push_branch(pc, taken);
        }
    }

    #[test]
    #[should_panic(expected = "in-flight")]
    fn save_state_rejects_inflight_predictions() {
        let mut tage = Tage::with_defaults(1);
        tage.predict(0, 0x40, &HistoryState::default());
        tage.save_state(&mut StateWriter::new());
    }

    #[test]
    fn load_state_rejects_truncated_streams() {
        let mut tage = Tage::with_defaults(1);
        let mut w = StateWriter::new();
        tage.save_state(&mut w);
        let mut bytes = w.into_bytes();
        bytes.truncate(bytes.len() - 1);
        assert!(tage.load_state(&mut StateReader::new(&bytes)).is_err());
    }

    #[test]
    fn default_config_is_about_15k_entries() {
        let cfg = TageConfig::default();
        let total = cfg.total_entries();
        assert!((14_000..=16_384).contains(&total), "total {total}");
    }

    #[test]
    fn storage_bits_are_positive_and_scale_with_entries() {
        let small = Tage::new(
            TageConfig { bimodal_entries: 1024, component_entries: 128, ..TageConfig::default() },
            1,
        );
        let big = Tage::with_defaults(1);
        assert!(big.storage_bits() > small.storage_bits());
    }

    #[test]
    #[should_panic]
    fn invalid_history_lengths_panic() {
        let _ = Tage::new(
            TageConfig {
                history_lengths: vec![4, 4],
                tag_bits: vec![8, 8],
                ..TageConfig::default()
            },
            1,
        );
    }
}
