//! Value predictors and confidence estimation — the contribution of
//! *Perais & Seznec, "Practical Data Value Speculation for Future High-end
//! Processors", HPCA 2014*.
//!
//! The crate provides:
//!
//! * **Confidence estimation** ([`confidence`]): baseline saturating
//!   counters and **Forward Probabilistic Counters (FPC)** — 3-bit counters
//!   with probabilistic forward transitions that push prediction accuracy
//!   above 99.5 % at a modest coverage cost (paper §5).
//! * **Predictors** (one module each): [`Lvp`] (last value),
//!   [`TwoDeltaStride`] (computational), [`PerPathStride`], [`Fcm`]
//!   (order-n local value history), [`DFcm`] (differential FCM), and
//!   **[`Vtage`]** — the paper's new predictor indexed by global branch +
//!   path history (derived from ITTAGE), which can predict back-to-back
//!   occurrences of an instruction because its lookup does not depend on
//!   previous values of the same instruction (§6).
//! * **Hybrids** ([`Hybrid`]): the paper's VTAGE + 2D-Stride combination
//!   with speculative-value cross-feeding (§7.1.2), and an FCM + 2D-Stride
//!   baseline hybrid.
//! * An [`Oracle`] predictor for the Figure 3 speedup upper bound.
//! * [`storage`]: Table 1 storage accounting.
//!
//! # The predictor protocol
//!
//! Predictors interact with the pipeline through three in-order calls:
//!
//! 1. [`Predictor::predict`] at fetch, once per VP-eligible µop (strictly
//!    increasing `seq`). The predictor records whatever per-prediction
//!    metadata it needs (hardware carries this in the instruction payload).
//! 2. [`Predictor::train`] at commit, once per eligible µop, in the same
//!    order, with the architectural result.
//! 3. [`Predictor::squash_after`] whenever the pipeline squashes: all
//!    in-flight state younger than `seq` is discarded. Squashed µops are
//!    never trained; refetched ones are re-predicted under new `seq`s.
//!
//! # Examples
//!
//! A stride predictor learning the sequence 10, 20, 30, …:
//!
//! ```
//! use vpsim_core::{Predictor, PredictCtx, TwoDeltaStride, ConfidenceScheme};
//!
//! let mut p = TwoDeltaStride::with_defaults(ConfidenceScheme::baseline(), 1);
//! let mut value = 0u64;
//! let mut last_pred = None;
//! for seq in 0..32 {
//!     value += 10;
//!     let ctx = PredictCtx { seq, pc: 0x40, hist: Default::default(), actual: Some(value) };
//!     last_pred = p.predict(&ctx).confident_value();
//!     p.train(seq, value);
//! }
//! assert_eq!(last_pred, Some(320));
//! ```

#![warn(missing_docs)]

pub mod confidence;
pub mod fcm;
pub mod gdiff;
pub mod history;
pub mod hybrid;
pub mod inflight;
pub mod locality;
pub mod lvp;
pub mod oracle;
pub mod sag;
pub mod state;
pub mod storage;
pub mod stride;
pub mod vtage;

pub use confidence::{ConfidenceScheme, Lfsr};
pub use fcm::{DFcm, Fcm};
pub use gdiff::GDiff;
pub use history::HistoryState;
pub use hybrid::Hybrid;
pub use lvp::Lvp;
pub use oracle::Oracle;
pub use sag::SagLvp;
pub use storage::Storage;
pub use stride::{PerPathStride, TwoDeltaStride};
pub use vtage::{Vtage, VtageConfig};

/// Context available to the predictor at prediction (fetch) time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PredictCtx {
    /// Dynamic sequence number of the µop (strictly increasing at fetch).
    pub seq: u64,
    /// Byte PC of the µop.
    pub pc: u64,
    /// Speculative global branch + path history at fetch.
    pub hist: HistoryState,
    /// The architectural result the µop will produce. **Only the
    /// [`Oracle`] predictor may read this** — it exists so the Figure 3
    /// upper bound can share the [`Predictor`] interface. Real predictors
    /// ignore it.
    pub actual: Option<u64>,
}

/// The outcome of a predictor lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Prediction {
    /// The predicted value, if the predictor had any basis to predict
    /// (table hit). `None` means no prediction exists at all.
    pub value: Option<u64>,
    /// `true` if the confidence counter is saturated — only then does the
    /// pipeline inject the value.
    pub confident: bool,
}

impl Prediction {
    /// No prediction.
    pub fn none() -> Self {
        Prediction::default()
    }

    /// A prediction with the given confidence.
    pub fn of(value: u64, confident: bool) -> Self {
        Prediction { value: Some(value), confident }
    }

    /// The value, if and only if the prediction is confident enough to use.
    pub fn confident_value(&self) -> Option<u64> {
        if self.confident {
            self.value
        } else {
            None
        }
    }
}

/// A hardware value predictor (see the crate docs for the protocol).
///
/// The simulator holds one [`AnyPredictor`], which implements the trait for
/// every [`PredictorKind`] by static dispatch and clones with its state.
pub trait Predictor {
    /// Look up a prediction for the µop described by `ctx` and record the
    /// in-flight metadata needed to train at commit.
    ///
    /// Must be called in strictly increasing `ctx.seq` order; every call
    /// must eventually be matched by [`Predictor::train`] with the same
    /// `seq` or discarded by [`Predictor::squash_after`].
    fn predict(&mut self, ctx: &PredictCtx) -> Prediction;

    /// Train with the architectural result of the µop `seq` (commit order).
    ///
    /// # Panics
    ///
    /// Implementations panic if `seq` does not match the oldest in-flight
    /// prediction — that indicates a pipeline protocol bug.
    fn train(&mut self, seq: u64, actual: u64);

    /// Execute-time notification: the µop `seq` at `pc` produced `actual`,
    /// which differed from the prediction. Predictors that track
    /// speculative value history (stride, FCM, gDiff) repair the recorded
    /// speculative value so *later fetches* stop chaining on the wrong one
    /// — without this, a single misprediction under selective reissue
    /// poisons a tight loop's chain until a squash happens to clear it
    /// (the paper's §7.2.1 cascade, which its footnote 1 attributes to
    /// "a value predicted using wrong speculative value history").
    /// Predictions already made for in-flight younger occurrences are
    /// *not* revised — hardware cannot re-predict without refetching, so
    /// the bounded cascade the paper describes still occurs.
    ///
    /// The default implementation does nothing (correct for VTAGE, LVP and
    /// the oracle, whose lookups do not consume speculative values).
    fn resolve(&mut self, _seq: u64, _pc: u64, _actual: u64) {}

    /// Discard all speculative predictor state for µops younger than `seq`.
    fn squash_after(&mut self, seq: u64);

    /// Storage breakdown for the Table 1 reproduction.
    fn storage(&self) -> Storage;
}

/// Declares the predictor kinds once. Each row names a [`PredictorKind`]
/// variant, the type its [`AnyPredictor`] variant holds, its table label and
/// its Table 1 constructor; the enums, [`PredictorKind::ALL`],
/// [`PredictorKind::build`], [`PredictorKind::label`] and the static
/// [`Predictor`] dispatch of [`AnyPredictor`] are all generated from it.
macro_rules! predictor_kinds {
    ($($(#[$doc:meta])* $kind:ident: $ty:ty = $label:literal, $build:expr;)*) => {
        /// Predictor configurations evaluated in the paper (plus the
        /// extensions this repository adds). Used by the simulator CLI and the
        /// benchmark harness to instantiate predictors by name.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum PredictorKind {
            $($(#[$doc])* $kind,)*
        }

        /// A built predictor of any [`PredictorKind`]: one closed value that
        /// clones with its in-flight state and dispatches statically.
        #[derive(Debug, Clone)]
        pub enum AnyPredictor {
            $(
                #[doc = concat!("A [`PredictorKind::", stringify!($kind), "`] predictor.")]
                $kind($ty),
            )*
        }

        impl PredictorKind {
            /// Every predictor kind, in Table 1 / extension order. The
            /// lowercase [`PredictorKind::label`] of each entry is its
            /// canonical spelling for [`FromStr`](std::str::FromStr).
            pub const ALL: [PredictorKind; [$(stringify!($kind)),*].len()] =
                [$(PredictorKind::$kind),*];

            /// Instantiate the predictor with the paper's Table 1 sizing.
            ///
            /// `scheme` selects the confidence flavour; `seed` feeds the FPC
            /// LFSR and any allocation randomness, keeping runs reproducible.
            ///
            /// # Examples
            ///
            /// ```
            /// use vpsim_core::{AnyPredictor, ConfidenceScheme, Predictor, PredictorKind};
            ///
            /// let p = PredictorKind::Vtage.build(ConfidenceScheme::fpc_squash(), 0x2014);
            /// assert!(matches!(p, AnyPredictor::Vtage(_)));
            /// assert!(p.storage().total_kb() > 60.0); // paper Table 1: ~67.6 KB
            /// ```
            pub fn build(self, scheme: ConfidenceScheme, seed: u64) -> AnyPredictor {
                match self {
                    $(PredictorKind::$kind => AnyPredictor::$kind(($build)(scheme, seed)),)*
                }
            }

            /// Display name used in tables.
            pub fn label(self) -> &'static str {
                match self {
                    $(PredictorKind::$kind => $label,)*
                }
            }
        }

        impl Predictor for AnyPredictor {
            fn predict(&mut self, ctx: &PredictCtx) -> Prediction {
                match self {
                    $(AnyPredictor::$kind(p) => p.predict(ctx),)*
                }
            }

            fn train(&mut self, seq: u64, actual: u64) {
                match self {
                    $(AnyPredictor::$kind(p) => p.train(seq, actual),)*
                }
            }

            fn resolve(&mut self, seq: u64, pc: u64, actual: u64) {
                match self {
                    $(AnyPredictor::$kind(p) => p.resolve(seq, pc, actual),)*
                }
            }

            fn squash_after(&mut self, seq: u64) {
                match self {
                    $(AnyPredictor::$kind(p) => p.squash_after(seq),)*
                }
            }

            fn storage(&self) -> Storage {
                match self {
                    $(AnyPredictor::$kind(p) => p.storage(),)*
                }
            }
        }
    };
}

predictor_kinds! {
    /// Last Value Predictor, 8K entries (paper Table 1).
    Lvp: Lvp = "LVP", Lvp::with_defaults;
    /// 2-delta stride predictor, 8K entries.
    TwoDeltaStride: TwoDeltaStride = "2D-Str", TwoDeltaStride::with_defaults;
    /// Per-path stride predictor (paper footnote 4; performance on par with
    /// 2D-Stride).
    PerPathStride: PerPathStride = "PP-Str", PerPathStride::with_defaults;
    /// Order-4 Finite Context Method, 8K+8K entries.
    Fcm4: Fcm = "o4-FCM", Fcm::with_defaults;
    /// Differential FCM (Goeman et al.), an extension baseline.
    DFcm4: DFcm = "o4-D-FCM", DFcm::with_defaults;
    /// VTAGE, 8K base + 6×1K tagged components.
    Vtage: Vtage = "VTAGE", Vtage::with_defaults;
    /// Hybrid VTAGE + 2D-Stride (the paper's headline combination).
    VtageStride: Hybrid<Vtage, TwoDeltaStride> = "VTAGE-2DStr", Hybrid::vtage_stride;
    /// Hybrid o4-FCM + 2D-Stride.
    FcmStride: Hybrid<Fcm, TwoDeltaStride> = "o4-FCM-2DStr", Hybrid::fcm_stride;
    /// gDiff-style global-difference predictor stacked on VTAGE (an
    /// extension; Zhou et al.'s gDiff can be added "on top of any other
    /// predictor").
    GDiffVtage: GDiff = "gDiff-VTAGE", GDiff::over_vtage;
    /// LVP with SAg outcome-history confidence (Burtscher & Zorn) — the
    /// §5 alternative the paper rejects for its serial double lookup.
    SagLvp: SagLvp = "SAg-LVP", |_, seed| SagLvp::with_defaults(seed);
    /// Perfect predictor (Figure 3 upper bound).
    Oracle: Oracle = "Oracle", |_, _| Oracle::new();
}

/// The trait-object view, for code that takes `&mut dyn Predictor`.
impl AsMut<dyn Predictor> for AnyPredictor {
    fn as_mut(&mut self) -> &mut (dyn Predictor + 'static) {
        self
    }
}

impl PredictorKind {
    /// All kinds evaluated in the paper's main figures.
    pub const PAPER_SET: [PredictorKind; 4] = [
        PredictorKind::Lvp,
        PredictorKind::TwoDeltaStride,
        PredictorKind::Fcm4,
        PredictorKind::Vtage,
    ];
}

impl std::fmt::Display for PredictorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for PredictorKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "lvp" => Ok(PredictorKind::Lvp),
            "2dstride" | "2d-str" | "2d-stride" | "stride" => Ok(PredictorKind::TwoDeltaStride),
            "ppstride" | "pp-str" => Ok(PredictorKind::PerPathStride),
            "fcm" | "o4-fcm" | "fcm4" => Ok(PredictorKind::Fcm4),
            "dfcm" | "d-fcm" | "o4-d-fcm" => Ok(PredictorKind::DFcm4),
            "vtage" => Ok(PredictorKind::Vtage),
            "vtage-2dstr" | "vtage-stride" | "vtagestride" => Ok(PredictorKind::VtageStride),
            "fcm-2dstr" | "o4-fcm-2dstr" | "fcm-stride" | "fcmstride" => {
                Ok(PredictorKind::FcmStride)
            }
            "gdiff" | "gdiff-vtage" => Ok(PredictorKind::GDiffVtage),
            "sag" | "sag-lvp" | "saglvp" => Ok(PredictorKind::SagLvp),
            "oracle" => Ok(PredictorKind::Oracle),
            other => {
                let valid: Vec<String> =
                    PredictorKind::ALL.iter().map(|k| k.label().to_ascii_lowercase()).collect();
                Err(format!("unknown predictor kind {other} (valid: {})", valid.join(", ")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prediction_confident_value_gates_on_confidence() {
        assert_eq!(Prediction::of(5, true).confident_value(), Some(5));
        assert_eq!(Prediction::of(5, false).confident_value(), None);
        assert_eq!(Prediction::none().confident_value(), None);
    }

    #[test]
    fn kind_parse_round_trips() {
        for kind in PredictorKind::ALL {
            // Both the Display form and its lowercase canonical spelling
            // parse back to the same kind.
            assert_eq!(kind.to_string().parse::<PredictorKind>().unwrap(), kind);
            let label = kind.label().to_ascii_lowercase();
            let parsed: PredictorKind = label.parse().unwrap();
            assert_eq!(parsed, kind, "label {label}");
        }
        let err = "nonsense".parse::<PredictorKind>().unwrap_err();
        // Unknown spellings quote the full canonical list.
        assert!(err.contains("lvp") && err.contains("sag-lvp") && err.contains("oracle"), "{err}");
    }

    #[test]
    fn build_constructs_every_kind() {
        for kind in PredictorKind::ALL {
            let p = kind.build(ConfidenceScheme::fpc_squash(), 1);
            // Every real predictor has tables; only the oracle has none.
            assert_eq!(p.storage().total_kb() == 0.0, kind == PredictorKind::Oracle, "{kind}");
        }
    }
}
