//! Predictor playground: feed canonical value streams to every predictor
//! and watch who captures what.
//!
//! ```sh
//! cargo run --release --example predictor_playground
//! ```
//!
//! Streams:
//! * `constant`   — same value every occurrence (LVP's home turf)
//! * `strided`    — arithmetic sequence (stride predictors)
//! * `period-4`   — repeating pattern with no constant stride (FCM)
//! * `branch-dep` — value correlated with the last branch direction (VTAGE)
//! * `chaotic`    — LCG noise (nobody should predict this — watch accuracy,
//!   not coverage)
//!
//! This example drives the predictors directly through the
//! [`vpsim::core::Predictor`] trait — no pipeline involved — which is also
//! how you would unit-test a new predictor of your own.

use vpsim::core::{ConfidenceScheme, HistoryState, PredictCtx, Predictor, PredictorKind};
use vpsim::stats::table::{fmt_pct, Table};

/// One canonical stream: returns (value, branch_direction) per occurrence.
/// `state` carries the chaotic stream's LCG (a *stateful* recurrence — an
/// affine function of `k` would secretly be strided!).
fn stream(kind: &str, k: u64, state: &mut u64) -> (u64, bool) {
    match kind {
        "constant" => (42, true),
        "strided" => (1000 + 24 * k, true),
        "period-4" => ([11u64, 22, 7, 99][(k % 4) as usize], true),
        "branch-dep" => {
            let taken = (k / 3).is_multiple_of(2); // direction flips every 3rd
            (if taken { 500 } else { 900 }, taken)
        }
        _ => {
            *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (*state, *state & 1 == 0)
        }
    }
}

fn main() {
    let streams = ["constant", "strided", "period-4", "branch-dep", "chaotic"];
    let kinds = [
        PredictorKind::Lvp,
        PredictorKind::TwoDeltaStride,
        PredictorKind::Fcm4,
        PredictorKind::Vtage,
        PredictorKind::VtageStride,
        PredictorKind::GDiffVtage,
    ];
    let occurrences = 4_000u64;

    let mut headers = vec!["Stream".to_string()];
    headers.extend(kinds.iter().map(|k| k.label().to_string()));
    let mut cov_table = Table::new(headers.clone());
    let mut acc_table = Table::new(headers);

    for s in streams {
        let mut cov_row = vec![s.to_string()];
        let mut acc_row = vec![s.to_string()];
        for kind in kinds {
            let mut p = kind.build(ConfidenceScheme::baseline(), 42);
            let mut hist = HistoryState::default();
            let (mut used, mut correct) = (0u64, 0u64);
            let mut state = 7u64;
            for k in 0..occurrences {
                let (value, taken) = stream(s, k, &mut state);
                let ctx = PredictCtx { seq: k, pc: 0x40, hist, actual: None };
                if let Some(guess) = p.predict(&ctx).confident_value() {
                    used += 1;
                    if guess == value {
                        correct += 1;
                    }
                }
                p.train(k, value);
                hist.push_branch(0x80, taken);
            }
            cov_row.push(fmt_pct(used as f64 / occurrences as f64, 1));
            acc_row.push(if used > 0 {
                fmt_pct(correct as f64 / used as f64, 1)
            } else {
                "-".into()
            });
        }
        cov_table.row(cov_row);
        acc_table.row(acc_row);
    }

    println!("Coverage (fraction of occurrences confidently predicted):");
    println!("{cov_table}");
    println!("Accuracy of used predictions:");
    println!("{acc_table}");
}
