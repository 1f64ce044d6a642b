//! The perfect predictor used for the Figure 3 speedup upper bound.

use crate::storage::Storage;
use crate::{PredictCtx, Prediction, Predictor};

/// Oracle value predictor: always predicts the architectural result, with
/// full confidence.
///
/// Used to reproduce Figure 3 ("An oracle predicts all results"), where
/// performance is limited only by fetch bandwidth, the memory hierarchy,
/// branch prediction and structure sizes. It reads [`PredictCtx::actual`],
/// which the simulator fills from the functional trace; real predictors
/// never touch that field.
///
/// # Examples
///
/// ```
/// use vpsim_core::{Oracle, Predictor, PredictCtx};
/// let mut p = Oracle::new();
/// let ctx = PredictCtx { seq: 0, pc: 0x40, actual: Some(123), ..Default::default() };
/// assert_eq!(p.predict(&ctx).confident_value(), Some(123));
/// p.train(0, 123);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Oracle {
    _private: (),
}

impl Oracle {
    /// Create the oracle.
    pub fn new() -> Self {
        Oracle::default()
    }
}

impl Predictor for Oracle {
    fn predict(&mut self, ctx: &PredictCtx) -> Prediction {
        match ctx.actual {
            Some(v) => Prediction::of(v, true),
            None => Prediction::none(),
        }
    }

    fn train(&mut self, _seq: u64, _actual: u64) {}

    fn squash_after(&mut self, _seq: u64) {}

    fn storage(&self) -> Storage {
        Storage::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_echoes_actual_value() {
        let mut p = Oracle::new();
        for v in [0u64, 1, u64::MAX, 42] {
            let ctx = PredictCtx { seq: v, pc: 0, actual: Some(v), ..Default::default() };
            assert_eq!(p.predict(&ctx).confident_value(), Some(v));
        }
    }

    #[test]
    fn oracle_without_actual_abstains() {
        let mut p = Oracle::new();
        let ctx = PredictCtx::default();
        assert_eq!(p.predict(&ctx), Prediction::none());
    }

    #[test]
    fn oracle_has_no_storage() {
        assert_eq!(Oracle::new().storage().total_bits(), 0);
    }

    #[test]
    fn train_and_squash_are_no_ops() {
        let mut p = Oracle::new();
        p.train(5, 5);
        p.squash_after(0);
        // Protocol freedom: the oracle tolerates any call order.
        p.train(0, 1);
    }
}
