//! The predictor capability matrix: which predictor family captures which
//! canonical value stream (Sazeides & Smith's taxonomy, paper §2). These
//! tests pin the qualitative behavior that drives Figures 4–7.

use vpsim_core::{ConfidenceScheme, HistoryState, PredictCtx, Predictor, PredictorKind};

/// Feed `occurrences` of a stream to a fresh predictor; return the
/// confident-and-correct fraction over the second half (steady state).
fn steady_coverage(
    kind: PredictorKind,
    occurrences: u64,
    mut stream: impl FnMut(u64) -> (u64, bool),
) -> f64 {
    let mut p = kind.build(ConfidenceScheme::baseline(), 17);
    let mut hist = HistoryState::default();
    let (mut good, mut total) = (0u64, 0u64);
    for k in 0..occurrences {
        let (value, taken) = stream(k);
        let ctx = PredictCtx { seq: k, pc: 0x40, hist, actual: None };
        let guess = p.predict(&ctx).confident_value();
        if k >= occurrences / 2 {
            total += 1;
            if guess == Some(value) {
                good += 1;
            }
        }
        p.train(k, value);
        hist.push_branch(0x80, taken);
    }
    good as f64 / total as f64
}

const N: u64 = 2_000;

fn constant(_k: u64) -> (u64, bool) {
    (42, true)
}

fn strided(k: u64) -> (u64, bool) {
    (1_000 + 24 * k, true)
}

fn period4(k: u64) -> (u64, bool) {
    ([11u64, 22, 7, 99][(k % 4) as usize], true)
}

fn branch_dependent(k: u64) -> (u64, bool) {
    let taken = (k / 3).is_multiple_of(2);
    (if taken { 500 } else { 900 }, taken)
}

#[test]
fn every_paper_predictor_captures_constants() {
    for kind in PredictorKind::PAPER_SET {
        let c = steady_coverage(kind, N, constant);
        assert!(c > 0.95, "{kind:?} on constants: {c}");
    }
}

#[test]
fn only_computational_predictors_capture_strides() {
    assert!(steady_coverage(PredictorKind::TwoDeltaStride, N, strided) > 0.95);
    assert!(steady_coverage(PredictorKind::PerPathStride, N, strided) > 0.95);
    assert!(steady_coverage(PredictorKind::DFcm4, N, strided) > 0.9, "D-FCM learns deltas");
    assert!(
        steady_coverage(PredictorKind::Lvp, N, strided) < 0.05,
        "LVP cannot predict a changing value"
    );
    assert!(
        steady_coverage(PredictorKind::Vtage, N, strided) < 0.25,
        "VTAGE has no value arithmetic (paper §6: strides cost it entries)"
    );
}

#[test]
fn context_predictors_capture_short_patterns() {
    assert!(steady_coverage(PredictorKind::Fcm4, N, period4) > 0.9, "FCM's home turf");
    assert!(steady_coverage(PredictorKind::Lvp, N, period4) < 0.05, "LVP sees a changing value");
    assert!(
        steady_coverage(PredictorKind::TwoDeltaStride, N, period4) < 0.05,
        "no constant stride exists"
    );
}

#[test]
fn only_vtage_class_captures_branch_correlated_values() {
    assert!(
        steady_coverage(PredictorKind::Vtage, N, branch_dependent) > 0.8,
        "control-flow correlation is VTAGE's contribution"
    );
    assert!(
        steady_coverage(PredictorKind::GDiffVtage, N, branch_dependent) > 0.8,
        "the gDiff stack inherits VTAGE's capability"
    );
    assert!(steady_coverage(PredictorKind::Lvp, N, branch_dependent) < 0.05);
    assert!(steady_coverage(PredictorKind::TwoDeltaStride, N, branch_dependent) < 0.05);
}

#[test]
fn hybrids_cover_the_union_of_their_components() {
    for stream in [constant as fn(u64) -> (u64, bool), strided, branch_dependent] {
        let hybrid = steady_coverage(PredictorKind::VtageStride, N, stream);
        assert!(hybrid > 0.8, "VTAGE+2D-Stride must capture all three streams: {hybrid}");
    }
}

#[test]
fn nobody_captures_chaos_but_nobody_lies_about_it() {
    // On an LCG stream, coverage must be ~0 — and whatever few confident
    // predictions slip through must not be counted correct (they cannot
    // be, the values never repeat).
    let mut x = 9u64;
    for kind in PredictorKind::PAPER_SET {
        let c = steady_coverage(kind, N, |_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x, x & 1 == 0)
        });
        assert!(c < 0.02, "{kind:?} claims to predict chaos: {c}");
    }
}

#[test]
fn oracle_captures_everything_given_the_actual() {
    let mut p = PredictorKind::Oracle.build(ConfidenceScheme::baseline(), 0);
    for k in 0..100u64 {
        let v = k.wrapping_mul(0x9E37_79B9);
        let ctx = PredictCtx { seq: k, pc: 0x40, hist: HistoryState::default(), actual: Some(v) };
        assert_eq!(p.predict(&ctx).confident_value(), Some(v));
        p.train(k, v);
    }
}
