//! Two-component hybrid predictors (paper §7.1.2).
//!
//! The paper's arbitration is deliberately simple: *"If only one component
//! predicts (i.e. has high confidence), its prediction is naturally
//! selected. When both predictors predict and if they do not agree, no
//! prediction is made. If they agree, the prediction proceeds."*
//!
//! Hybrids also cross-feed speculative state: the arbitrated prediction of
//! the hybrid is substituted as a component's "last speculative occurrence"
//! (*"use the last prediction of VTAGE as the next last value for 2D-Stride
//! if VTAGE is confident"*). Components expose that hook through
//! [`SpeculativeFeed`].

use crate::confidence::ConfidenceScheme;
use crate::fcm::Fcm;
use crate::storage::Storage;
use crate::stride::TwoDeltaStride;
use crate::vtage::Vtage;
use crate::{PredictCtx, Prediction, Predictor};

/// Hook for substituting a component's speculative last-occurrence value
/// with the hybrid's arbitrated prediction.
///
/// Predictors whose lookups do not depend on previous values of the same
/// instruction (VTAGE) implement this as a no-op.
pub trait SpeculativeFeed {
    /// Replace the speculative value recorded for occurrence `seq` of
    /// instruction `pc` with `value`.
    fn feed(&mut self, seq: u64, pc: u64, value: u64);
}

impl SpeculativeFeed for Vtage {
    fn feed(&mut self, _seq: u64, _pc: u64, _value: u64) {}
}

#[cfg(test)]
impl SpeculativeFeed for crate::lvp::Lvp {
    fn feed(&mut self, _seq: u64, _pc: u64, _value: u64) {}
}

/// A two-component symmetric hybrid.
///
/// Both components always predict and are always trained (the paper updates
/// all components with the committed value at retire). Arbitration follows
/// §7.1.2: a lone confident component wins, two confident components must
/// agree or no prediction is made. The final confident prediction is fed
/// back to both components' speculative windows.
///
/// # Examples
///
/// ```
/// use vpsim_core::{Hybrid, Predictor, PredictCtx, ConfidenceScheme};
///
/// let mut p = Hybrid::vtage_stride(ConfidenceScheme::baseline(), 42);
/// // Strided values: the stride component learns them even though VTAGE
/// // sees an ever-changing value per history.
/// let mut last = None;
/// for seq in 0..40 {
///     let ctx = PredictCtx { seq, pc: 0x20, ..Default::default() };
///     last = p.predict(&ctx).confident_value();
///     p.train(seq, seq * 8);
/// }
/// assert_eq!(last, Some(39 * 8));
/// ```
#[derive(Debug, Clone)]
pub struct Hybrid<A, B> {
    a: A,
    b: B,
}

impl Hybrid<Vtage, TwoDeltaStride> {
    /// The paper's headline hybrid: VTAGE + 2D-Stride.
    pub fn vtage_stride(scheme: ConfidenceScheme, seed: u64) -> Self {
        Hybrid {
            a: Vtage::with_defaults(scheme.clone(), seed),
            b: TwoDeltaStride::with_defaults(scheme, seed.wrapping_add(0x9E37_79B9)),
        }
    }
}

impl Hybrid<Fcm, TwoDeltaStride> {
    /// The baseline hybrid: o4-FCM + 2D-Stride.
    pub fn fcm_stride(scheme: ConfidenceScheme, seed: u64) -> Self {
        Hybrid {
            a: Fcm::with_defaults(scheme.clone(), seed),
            b: TwoDeltaStride::with_defaults(scheme, seed.wrapping_add(0x9E37_79B9)),
        }
    }
}

#[cfg(test)]
impl<A, B> Hybrid<A, B> {
    /// Build a hybrid from two arbitrary components.
    fn from_components(a: A, b: B) -> Self {
        Hybrid { a, b }
    }
}

impl<A, B> Predictor for Hybrid<A, B>
where
    A: Predictor + SpeculativeFeed,
    B: Predictor + SpeculativeFeed,
{
    fn predict(&mut self, ctx: &PredictCtx) -> Prediction {
        let pa = self.a.predict(ctx);
        let pb = self.b.predict(ctx);
        let arbitrated = match (pa.confident_value(), pb.confident_value()) {
            (Some(va), Some(vb)) if va == vb => Prediction::of(va, true),
            // Both confident but in disagreement: no prediction (§7.1.2).
            (Some(_), Some(_)) => Prediction::none(),
            (Some(va), None) => Prediction::of(va, true),
            (None, Some(vb)) => Prediction::of(vb, true),
            // Neither confident: surface a value for statistics only.
            (None, None) => Prediction { value: pa.value.or(pb.value), confident: false },
        };
        if let Some(v) = arbitrated.confident_value() {
            // Cross-feed the arbitrated value as both components' speculative
            // last occurrence.
            self.a.feed(ctx.seq, ctx.pc, v);
            self.b.feed(ctx.seq, ctx.pc, v);
        }
        arbitrated
    }

    fn train(&mut self, seq: u64, actual: u64) {
        self.a.train(seq, actual);
        self.b.train(seq, actual);
    }

    fn squash_after(&mut self, seq: u64) {
        self.a.squash_after(seq);
        self.b.squash_after(seq);
    }

    fn resolve(&mut self, seq: u64, pc: u64, actual: u64) {
        self.a.resolve(seq, pc, actual);
        self.b.resolve(seq, pc, actual);
    }

    fn storage(&self) -> Storage {
        self.a.storage().merge(self.b.storage())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lvp::Lvp;
    use crate::stride::TwoDeltaStride;

    fn ctx(seq: u64, pc: u64) -> PredictCtx {
        PredictCtx { seq, pc, ..Default::default() }
    }

    fn lvp_stride_hybrid() -> Hybrid<Lvp, TwoDeltaStride> {
        Hybrid::from_components(
            Lvp::with_defaults(ConfidenceScheme::baseline(), 1),
            TwoDeltaStride::with_defaults(ConfidenceScheme::baseline(), 2),
        )
    }

    #[test]
    fn single_confident_component_wins() {
        let mut h = lvp_stride_hybrid();
        // Strided values: stride becomes confident, LVP never does.
        let mut seq = 0;
        for k in 0..12u64 {
            h.predict(&ctx(seq, 0x40));
            h.train(seq, 100 + k * 8);
            seq += 1;
        }
        let pred = h.predict(&ctx(seq, 0x40));
        assert_eq!(pred.confident_value(), Some(100 + 12 * 8));
        h.train(seq, 100 + 12 * 8);
    }

    #[test]
    fn agreement_predicts_constant() {
        let mut h = lvp_stride_hybrid();
        // Constant value: both LVP (value) and stride (stride 0) agree.
        let mut seq = 0;
        for _ in 0..12 {
            h.predict(&ctx(seq, 0x40));
            h.train(seq, 77);
            seq += 1;
        }
        let pred = h.predict(&ctx(seq, 0x40));
        assert_eq!(pred.confident_value(), Some(77));
        h.train(seq, 77);
    }

    /// A component that always returns `pred` and records what the hybrid
    /// feeds it.
    struct Fixed {
        pred: Prediction,
        fed: Vec<u64>,
    }

    impl Predictor for Fixed {
        fn predict(&mut self, _ctx: &PredictCtx) -> Prediction {
            self.pred
        }

        fn train(&mut self, _seq: u64, _actual: u64) {}

        fn squash_after(&mut self, _seq: u64) {}

        fn storage(&self) -> Storage {
            Storage::default()
        }
    }

    impl SpeculativeFeed for Fixed {
        fn feed(&mut self, _seq: u64, _pc: u64, value: u64) {
            self.fed.push(value);
        }
    }

    /// One lookup of a hybrid over two fixed components: the arbitrated
    /// prediction and the values fed to each component.
    fn arbitrate(a: Prediction, b: Prediction) -> (Prediction, Vec<u64>, Vec<u64>) {
        let mut h = Hybrid::from_components(
            Fixed { pred: a, fed: Vec::new() },
            Fixed { pred: b, fed: Vec::new() },
        );
        let pred = h.predict(&ctx(0, 0x40));
        (pred, h.a.fed, h.b.fed)
    }

    #[test]
    fn disagreement_suppresses_prediction() {
        let (pred, fed_a, fed_b) = arbitrate(Prediction::of(1, true), Prediction::of(2, true));
        assert_eq!(pred.confident_value(), None);
        assert!(fed_a.is_empty() && fed_b.is_empty(), "nothing is fed: {fed_a:?} {fed_b:?}");
    }

    #[test]
    fn arbitration_truth_table() {
        let unsure = |v| Prediction::of(v, false);
        let sure = |v| Prediction::of(v, true);
        for (a, b, expected) in [
            // Agreement proceeds.
            (sure(3), sure(3), sure(3)),
            // A lone confident component wins, whichever it is.
            (sure(5), unsure(6), sure(5)),
            (unsure(6), sure(7), sure(7)),
            (Prediction::none(), sure(7), sure(7)),
            // Neither confident: a value surfaces for statistics only.
            (unsure(8), unsure(9), unsure(8)),
            (Prediction::none(), unsure(9), unsure(9)),
        ] {
            let (pred, fed_a, fed_b) = arbitrate(a, b);
            assert_eq!(pred, expected, "{a:?} / {b:?}");
            // The arbitrated confident value is fed to both components.
            let fed: Vec<u64> = expected.confident_value().into_iter().collect();
            assert_eq!((fed_a, fed_b), (fed.clone(), fed), "{a:?} / {b:?}");
        }
    }

    #[test]
    fn hybrid_coverage_exceeds_components_on_mixed_workload() {
        // PC A produces strided values (stride-predictable), PC B produces a
        // constant (LVP-predictable). The hybrid must confidently predict
        // both; each lone component only its own.
        let mut h = lvp_stride_hybrid();
        let mut lvp = Lvp::with_defaults(ConfidenceScheme::baseline(), 1);
        let mut stride = TwoDeltaStride::with_defaults(ConfidenceScheme::baseline(), 2);
        let mut seq = 0;
        for k in 0..16u64 {
            for (pc, val) in [(0x40u64, 100 + k * 4), (0x80u64, 5u64)] {
                h.predict(&ctx(seq, pc));
                h.train(seq, val);
                lvp.predict(&ctx(seq, pc));
                lvp.train(seq, val);
                stride.predict(&ctx(seq, pc));
                stride.train(seq, val);
                seq += 1;
            }
        }
        let h_a = h.predict(&ctx(seq, 0x40)).confident_value();
        let l_a = lvp.predict(&ctx(seq, 0x40)).confident_value();
        let s_a = stride.predict(&ctx(seq, 0x40)).confident_value();
        h.train(seq, 100 + 16 * 4);
        lvp.train(seq, 100 + 16 * 4);
        stride.train(seq, 100 + 16 * 4);
        seq += 1;
        let h_b = h.predict(&ctx(seq, 0x80)).confident_value();
        let l_b = lvp.predict(&ctx(seq, 0x80)).confident_value();
        let s_b = stride.predict(&ctx(seq, 0x80)).confident_value();
        h.train(seq, 5);
        lvp.train(seq, 5);
        stride.train(seq, 5);

        assert_eq!(h_a, Some(100 + 16 * 4), "hybrid covers strided PC");
        assert_eq!(h_b, Some(5), "hybrid covers constant PC");
        assert_eq!(l_a, None, "LVP cannot predict the strided PC");
        assert_eq!(s_a, Some(100 + 16 * 4));
        assert_eq!(l_b, Some(5));
        assert_eq!(s_b, Some(5), "stride predicts constants too (stride 0)");
    }

    #[test]
    fn squash_propagates_to_both_components() {
        let mut h = lvp_stride_hybrid();
        h.predict(&ctx(0, 0x40));
        h.predict(&ctx(1, 0x40));
        h.squash_after(0);
        h.train(0, 9);
        // Re-issue of seq 1 must work (would panic on stale in-flight state).
        h.predict(&ctx(1, 0x40));
        h.train(1, 9);
    }

    #[test]
    fn storage_is_sum_of_components() {
        let h = Hybrid::vtage_stride(ConfidenceScheme::baseline(), 1);
        let v = Vtage::with_defaults(ConfidenceScheme::baseline(), 1);
        let s = TwoDeltaStride::with_defaults(ConfidenceScheme::baseline(), 1);
        let total = h.storage().total_kb();
        let parts = v.storage().total_kb() + s.storage().total_kb();
        assert!((total - parts).abs() < 1e-9);
    }
}
