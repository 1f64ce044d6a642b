//! Workspace smoke test: every `PredictorKind` × `RecoveryPolicy`
//! combination must simulate a microkernel without panicking, retire the
//! full instruction budget, and produce bit-identical results across two
//! independent runs (the whole stack is seeded and must be deterministic).

use vpsim::core::PredictorKind;
use vpsim::isa::{Executor, Program};
use vpsim::uarch::tap::NullSink;
use vpsim::uarch::{CoreConfig, RecoveryPolicy, RunResult, Simulator, VpConfig};
use vpsim::workloads::microkernels;

/// Every predictor the workspace can instantiate, including extension
/// baselines and the oracle (Figure 3 upper bound).
const ALL_KINDS: [PredictorKind; 11] = [
    PredictorKind::Lvp,
    PredictorKind::TwoDeltaStride,
    PredictorKind::PerPathStride,
    PredictorKind::Fcm4,
    PredictorKind::DFcm4,
    PredictorKind::Vtage,
    PredictorKind::VtageStride,
    PredictorKind::FcmStride,
    PredictorKind::GDiffVtage,
    PredictorKind::SagLvp,
    PredictorKind::Oracle,
];

const ALL_POLICIES: [RecoveryPolicy; 2] =
    [RecoveryPolicy::SquashAtCommit, RecoveryPolicy::SelectiveReissue];

const BUDGET: u64 = 3_000;

/// Execute `program` inline on `config`'s core: `warmup` µops unmeasured,
/// then `measure` measured.
fn run(config: CoreConfig, program: &Program, warmup: u64, measure: u64) -> RunResult {
    Simulator::new(config).replay(Executor::new(program), warmup, measure, &mut NullSink)
}

#[test]
fn every_predictor_policy_combination_runs_and_is_deterministic() {
    // Strided loads + a loop branch exercise prediction, validation and
    // recovery on every predictor without needing a long warm-up.
    let program = microkernels::strided_loop(64, 8);
    for kind in ALL_KINDS {
        for policy in ALL_POLICIES {
            let config = CoreConfig::default().with_vp(VpConfig::enabled(kind, policy));
            let first = run(config.clone(), &program, 0, BUDGET);
            assert_eq!(
                first.metrics.instructions, BUDGET,
                "{kind:?}/{policy:?} did not retire the full budget"
            );
            assert!(first.metrics.cycles > 0, "{kind:?}/{policy:?} reported a zero-cycle run");
            let second = run(config, &program, 0, BUDGET);
            assert_eq!(first, second, "{kind:?}/{policy:?} is not deterministic across runs");
        }
    }
}

#[test]
fn baseline_without_vp_runs_and_is_deterministic() {
    let program = microkernels::tight_loop();
    let first = run(CoreConfig::default(), &program, 0, BUDGET);
    let second = run(CoreConfig::default(), &program, 0, BUDGET);
    assert_eq!(first.metrics.instructions, BUDGET);
    assert_eq!(first, second, "baseline core is not deterministic");
}
