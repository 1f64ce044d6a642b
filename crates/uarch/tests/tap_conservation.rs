//! Conservation laws of the pipeline event tap, end to end.
//!
//! The tap's value rests on one invariant: its derived statistics
//! reconcile **exactly** with the simulator's own counters in its
//! [`RunResult`] — every measured cycle is attributed to exactly one
//! cause, commit events match retired instructions, and squash/reissue
//! events match their counters. `vpsim_uarch::tap::check_conservation`
//! encodes the laws; this suite drives them across recovery policies,
//! warm-up boundaries and stall-shaped kernels, plus the stage-count
//! sanity inequalities the exact laws don't cover.

use vpsim_core::PredictorKind;
use vpsim_isa::{Executor, Program, ProgramBuilder, Reg};
use vpsim_stats::stall::{CycleCause, StallReport};
use vpsim_uarch::tap::{check_conservation, CycleLog, StallTally};
use vpsim_uarch::{CoreConfig, RecoveryPolicy, RunResult, Simulator, VpConfig};

/// A loop mixing ALU chains, loads, stores and a back-edge branch.
fn mixed_kernel(iterations: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let (x, y, i, n, addr) = (Reg::int(1), Reg::int(5), Reg::int(2), Reg::int(3), Reg::int(4));
    b.data(0x1000, 1);
    b.load_imm(n, iterations);
    b.load_imm(addr, 0x1000);
    let top = b.bind_label();
    b.load(x, addr, 0);
    b.addi(y, x, 1);
    b.store(addr, y, 0);
    b.addi(i, i, 1);
    b.blt(i, n, top);
    b.halt();
    b.build().unwrap()
}

fn run_tapped(
    config: CoreConfig,
    program: &Program,
    warmup: u64,
    measure: u64,
) -> (RunResult, StallReport) {
    let mut tally = StallTally::default();
    let result = Simulator::new(config).replay(Executor::new(program), warmup, measure, &mut tally);
    (result, tally.measured())
}

#[test]
fn attribution_sums_to_measured_cycles_without_warmup() {
    let (result, report) = run_tapped(CoreConfig::default(), &mixed_kernel(1_000_000), 0, 20_000);
    assert_eq!(report.total_cycles(), result.metrics.cycles);
    assert_eq!(report.committed, result.metrics.instructions);
    check_conservation(&result, &report).unwrap();
}

#[test]
fn attribution_sums_to_measured_cycles_across_the_warmup_boundary() {
    // The MeasureStart snapshot must land at the exact program point where
    // the pipeline snapshots its own counters, or the measured-region
    // report would be off by the boundary cycle.
    let (result, report) =
        run_tapped(CoreConfig::default(), &mixed_kernel(1_000_000), 7_500, 20_000);
    assert_eq!(report.total_cycles(), result.metrics.cycles);
    check_conservation(&result, &report).unwrap();
}

#[test]
fn conservation_holds_under_both_recovery_policies() {
    for policy in [RecoveryPolicy::SquashAtCommit, RecoveryPolicy::SelectiveReissue] {
        let config =
            CoreConfig::default().with_vp(VpConfig::enabled(PredictorKind::TwoDeltaStride, policy));
        let (result, report) = run_tapped(config, &mixed_kernel(1_000_000), 2_000, 20_000);
        check_conservation(&result, &report)
            .unwrap_or_else(|violation| panic!("{policy:?}: {violation}"));
        // The squash/reissue laws are only interesting if mispredictions
        // actually occurred under this kernel.
        match policy {
            RecoveryPolicy::SquashAtCommit => {
                assert_eq!(report.vp_squashes, result.vp_squashes)
            }
            RecoveryPolicy::SelectiveReissue => {
                assert_eq!(report.reissued, result.reissued_uops)
            }
        }
    }
}

#[test]
fn stage_counts_obey_pipeline_order() {
    // Informational counts aren't boundary-exact (a µop can be fetched
    // before the warm-up boundary and commit after it), but over a full
    // unwindowed run the pipeline's funnel shape must hold.
    let (result, report) = run_tapped(
        CoreConfig::default()
            .with_vp(VpConfig::enabled(PredictorKind::Vtage, RecoveryPolicy::SquashAtCommit)),
        &mixed_kernel(1_000_000),
        0,
        20_000,
    );
    assert!(report.fetched >= report.dispatched, "{report:?}");
    assert!(report.dispatched >= report.committed, "{report:?}");
    assert!(report.issued >= report.committed, "{report:?}");
    assert!(report.writebacks >= report.committed, "{report:?}");
    assert!(report.vp_validations >= report.vp_mispredictions, "{report:?}");
    assert_eq!(report.committed, result.metrics.instructions);
}

#[test]
fn every_measured_cycle_has_exactly_one_cause() {
    let (result, report) = run_tapped(CoreConfig::default(), &mixed_kernel(1_000_000), 0, 20_000);
    let by_cause: u64 = CycleCause::ALL.iter().map(|&c| report.cause_cycles(c)).sum();
    assert_eq!(by_cause, result.metrics.cycles, "attribution must be exclusive and exhaustive");
    assert_eq!(report.stall_cycles(), result.stalls.commit_idle_cycles);
}

#[test]
fn short_programs_conserve_when_the_source_runs_dry() {
    // A program far shorter than the measurement budget drains the window
    // and exits early; the partial run must still attribute every cycle.
    let program = mixed_kernel(50);
    let mut sink = (StallTally::default(), CycleLog::with_capacity(64));
    let result = Simulator::new(CoreConfig::default()).replay(
        Executor::new(&program),
        0,
        100_000,
        &mut sink,
    );
    let report = sink.0.measured();
    check_conservation(&result, &report).unwrap();
    assert!(result.metrics.instructions < 100_000, "the kernel halts early by construction");
    assert_eq!(report.total_cycles(), result.metrics.cycles);
}
