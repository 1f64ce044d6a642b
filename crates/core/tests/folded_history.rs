//! `FoldedHistory` must equal `fold` on every history it is handed,
//! whether it gets there by one-branch pushes (the O(1) shift-register
//! update), path-only pushes and repeats (no change), a jump back to an
//! older history (a squash), or an arbitrary jump (a checkpoint restore).

use proptest::prelude::*;
use vpsim_core::history::{fold, FoldedHistory, HistoryState};

/// Every `(len, bits)` pair the predictors register, plus edge cases.
fn geometries() -> Vec<(u32, u32)> {
    let mut pairs = Vec::new();
    // TAGE's default: 512-entry components (9 index bits), tags of
    // `bits` and `max(bits - 1, 1)`.
    let tage_lens = [4, 6, 8, 12, 16, 24, 32, 48, 64, 80, 100, 128];
    let tage_tags = [8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13];
    for (&len, &bits) in tage_lens.iter().zip(&tage_tags) {
        pairs.extend([(len, 9), (len, bits), (len, (bits - 1).max(1))]);
    }
    // VTAGE's default and `ablation-vtage`'s geometries: 1K-entry
    // components (10 index bits), tags of 12 + rank and one bit less.
    let vtage_lens = [2, 4, 8, 16, 32, 64, 96, 128];
    for (rank, &len) in (1..).zip(&vtage_lens) {
        pairs.extend([(len, 10), (len, 12 + rank), (len, 11 + rank)]);
    }
    // len < bits, len == bits, len a multiple of bits, the full register,
    // lengths past it (VTAGE does not cap them), len 0 and extreme widths.
    pairs.extend([
        (3, 10),
        (13, 13),
        (26, 13),
        (39, 13),
        (128, 7),
        (128, 63),
        (129, 11),
        (200, 16),
        (0, 5),
        (1, 1),
        (77, 1),
        (127, 2),
    ]);
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn folds_equal_fold_after_any_history_sequence(
        start in any::<u128>(),
        ops in prop::collection::vec((0u8..6, any::<u64>(), any::<u128>()), 1..400),
    ) {
        let pairs = geometries();
        let mut folded = FoldedHistory::<128>::new();
        let slots: Vec<usize> = pairs.iter().map(|&(len, bits)| folded.slot(len, bits)).collect();
        let mut hist = HistoryState { ghist: start, path: 0 };
        let mut past = vec![hist];
        for (op, pc, jump) in ops {
            match op {
                // One branch pushed: the O(1) update.
                0 | 1 => hist.push_branch(pc, pc & 1 == 1),
                // A path-only push leaves ghist as it was.
                2 => hist.push_path(pc),
                // Several branches at once: refolded.
                3 => {
                    for k in 0..2 + pc % 3 {
                        hist.push_branch(pc, (pc >> k) & 1 == 1);
                    }
                }
                // A squash: back to some earlier history.
                4 => hist = past[(pc as usize) % past.len()],
                // A checkpoint restore or fresh clone: anywhere at all.
                _ => hist.ghist = jump,
            }
            past.push(hist);
            let folds = folded.folds(hist.ghist);
            for (&(len, bits), &slot) in pairs.iter().zip(&slots) {
                prop_assert_eq!(folds[slot], fold(hist.ghist, len, bits), "len {} bits {}", len, bits);
            }
        }
    }
}

#[test]
fn equal_pairs_share_a_slot_and_long_lengths_fold_as_128() {
    let mut folded = FoldedHistory::<4>::new();
    let a = folded.slot(200, 9);
    assert_eq!(folded.slot(128, 9), a, "lengths past 128 fold as 128");
    assert_eq!(folded.slot(200, 9), a);
    assert_ne!(folded.slot(127, 9), a);
    let h = u128::MAX - 12345;
    assert_eq!(folded.folds(h)[a], fold(h, 200, 9));
}

#[test]
fn a_clone_continues_like_the_original() {
    let mut original = FoldedHistory::<8>::new();
    let slots: Vec<usize> = [(64, 10), (100, 13), (5, 12)]
        .iter()
        .map(|&(len, bits)| original.slot(len, bits))
        .collect();
    let mut hist = HistoryState::default();
    let mut clone = None;
    for i in 0..500u64 {
        hist.push_branch(i * 4, i % 3 == 0 || i % 7 == 0);
        if i == 250 {
            clone = Some(original.clone());
        }
        let want = *original.folds(hist.ghist);
        if let Some(c) = clone.as_mut() {
            let got = c.folds(hist.ghist);
            for &s in &slots {
                assert_eq!(got[s], want[s], "step {i}");
            }
        }
    }
}

#[test]
#[should_panic(expected = "more than 2 folded histories")]
fn registering_past_capacity_panics() {
    let mut folded = FoldedHistory::<2>::new();
    folded.slot(4, 3);
    folded.slot(8, 3);
    folded.slot(16, 3);
}
