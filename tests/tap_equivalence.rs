//! The event tap's end-to-end guarantee: attaching any sink to a run is
//! **observation only**. A [`RunResult`] produced with a live
//! `StallTally`/`CycleLog` sink is byte-identical to the same run with a
//! `NullSink`, for every predictor × recovery combination, under trace replay,
//! and across arbitrary small scenarios (property test) — including runs
//! whose long-latency misses exercise the idle-skip fast path, which must
//! emit batched span records without perturbing the clock.
//!
//! Every tapped run is additionally conservation-checked: the per-cause
//! cycle attribution must sum exactly to the measured cycle count, and the
//! tap's event counts must reconcile with the simulator's own counters in
//! its `RunResult` (see `vpsim::uarch::tap::check_conservation`).

use proptest::prelude::*;
use vpsim::core::PredictorKind;
use vpsim::isa::{Executor, Program, Trace};
use vpsim::mem::{CacheConfig, MemoryConfig};
use vpsim::uarch::tap::{check_conservation, CycleLog, NullSink, StallTally};
use vpsim::uarch::{CoreConfig, RecoveryPolicy, RunResult, Simulator, VpConfig};
use vpsim::workloads::microkernels;

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

const WARMUP: u64 = 500;
const MEASURE: u64 = 2_500;

/// Run `program` twice under `config` — tap disabled and tap enabled with
/// a composite `(StallTally, CycleLog)` sink — assert the results are
/// byte-identical and the tapped run conserves, then return the pair.
fn tapped_matches_untapped(
    config: CoreConfig,
    program: &Program,
    warmup: u64,
    measure: u64,
) -> (RunResult, RunResult) {
    let sim = Simulator::new(config);
    let untapped = sim.replay(Executor::new(program), warmup, measure, &mut NullSink);
    let mut sink = (StallTally::default(), CycleLog::with_capacity(64));
    let tapped = sim.replay(Executor::new(program), warmup, measure, &mut sink);
    assert_eq!(untapped, tapped, "an attached sink perturbed the simulation");
    check_conservation(&tapped, &sink.0.measured())
        .unwrap_or_else(|violation| panic!("conservation broken: {violation}"));
    (untapped, tapped)
}

#[test]
fn tap_is_invisible_for_every_predictor_and_recovery() {
    let program = microkernels::strided_loop(64, 8);
    for kind in ALL_KINDS {
        for policy in ALL_POLICIES {
            let config = CoreConfig::default().with_vp(VpConfig::enabled(kind, policy));
            let (untapped, _) = tapped_matches_untapped(config, &program, WARMUP, MEASURE);
            assert_eq!(
                untapped.metrics.instructions, MEASURE,
                "{kind:?}/{policy:?} did not retire the full budget"
            );
        }
    }
}

#[test]
fn tap_is_invisible_without_value_prediction() {
    tapped_matches_untapped(
        CoreConfig::default(),
        &microkernels::pointer_chase(1024),
        WARMUP,
        MEASURE,
    );
}

#[test]
fn tap_is_invisible_under_trace_replay() {
    let program = microkernels::matmul(8);
    let config = CoreConfig::default()
        .with_vp(VpConfig::enabled(PredictorKind::VtageStride, RecoveryPolicy::SquashAtCommit));
    let sim = Simulator::new(config);
    let trace = Trace::capture(&program, sim.config().trace_budget(WARMUP, MEASURE));
    let untapped = sim.replay(trace.cursor(), WARMUP, MEASURE, &mut NullSink);
    let mut tally = StallTally::default();
    let tapped = sim.replay(trace.cursor(), WARMUP, MEASURE, &mut tally);
    assert_eq!(untapped, tapped);
    check_conservation(&tapped, &tally.measured()).unwrap();
}

/// A single-MSHR, tiny-cache hierarchy turns the pointer chase into long
/// serialized misses — the machine sleeps through them on the idle-skip
/// fast path, so this pins span-batched `Cycle` records: attribution must
/// still sum exactly to the measured cycles.
#[test]
fn tap_is_invisible_and_conserves_under_idle_skip() {
    let mem = MemoryConfig {
        l1i: CacheConfig { size_bytes: 4 * 1024, ways: 2, line_bytes: 64, latency: 2 },
        l1d: CacheConfig { size_bytes: 1024, ways: 2, line_bytes: 64, latency: 2 },
        l2: CacheConfig { size_bytes: 8 * 1024, ways: 4, line_bytes: 64, latency: 12 },
        l1d_mshrs: 1,
        l2_mshrs: 1,
        ..MemoryConfig::default()
    };
    let config = CoreConfig { mem, ..CoreConfig::default() };
    let program = microkernels::pointer_chase(4096);
    let sim = Simulator::new(config.clone());
    let untapped = sim.replay(Executor::new(&program), WARMUP, MEASURE, &mut NullSink);
    let mut sink = (StallTally::default(), CycleLog::with_capacity(32));
    let tapped = sim.replay(Executor::new(&program), WARMUP, MEASURE, &mut sink);
    assert_eq!(untapped, tapped);
    let report = sink.0.measured();
    check_conservation(&tapped, &report).unwrap();
    // The chase spends most of its time waiting on memory; idle-skip spans
    // must carry those cycles (one event per span, not per cycle).
    assert!(
        report.cause_cycles(vpsim::stats::stall::CycleCause::MemWait) > report.total_cycles() / 4,
        "expected a memory-bound attribution profile: {report:?}"
    );
    assert!(
        sink.1.total_events() < tapped.metrics.cycles * 40,
        "idle-skip spans should batch, not emit per skipped cycle"
    );
}

#[test]
fn cycle_log_ring_is_bounded() {
    let program = microkernels::strided_loop(64, 8);
    let mut sink = CycleLog::with_capacity(16);
    Simulator::new(CoreConfig::default()).replay(Executor::new(&program), 0, 5_000, &mut sink);
    assert_eq!(sink.len(), 16, "ring must fill to capacity and stop growing");
    assert!(sink.total_events() > 16, "the run saw more events than the ring keeps");
    let tail = sink.tail(16);
    assert!(tail.windows(2).all(|w| w[0].seq <= w[1].seq || w[0].cycle <= w[1].cycle));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary small scenarios — random predictor, recovery, sizing,
    /// kernel and warm-up — are byte-identical with the tap attached, and
    /// every one of them conserves.
    #[test]
    fn tap_is_invisible_for_arbitrary_scenarios(
        kind_sel in 0usize..11,
        reissue in 0usize..2,
        kernel_sel in 0usize..3,
        warmup in 0u64..800,
        measure in 400u64..2000,
        rob_sel in 0usize..3,
        fetch_sel in 0usize..2,
    ) {
        let kind = ALL_KINDS[kind_sel];
        let policy = if reissue == 1 {
            RecoveryPolicy::SelectiveReissue
        } else {
            RecoveryPolicy::SquashAtCommit
        };
        let program = match kernel_sel {
            0 => microkernels::strided_loop(64, 8),
            1 => microkernels::pointer_chase(512),
            _ => microkernels::matmul(6),
        };
        let (rob, iq) = [(64, 32), (128, 64), (256, 128)][rob_sel];
        let fetch = [4, 8][fetch_sel];
        let config = CoreConfig {
            rob_entries: rob,
            iq_entries: iq,
            fetch_width: fetch,
            issue_width: fetch,
            retire_width: fetch,
            ..CoreConfig::default()
        }
        .with_vp(VpConfig::enabled(kind, policy));
        let sim = Simulator::new(config);
        let untapped = sim.replay(Executor::new(&program), warmup, measure, &mut NullSink);
        let mut sink = (StallTally::default(), CycleLog::with_capacity(32));
        let tapped = sim.replay(Executor::new(&program), warmup, measure, &mut sink);
        prop_assert_eq!(untapped, tapped);
        let report = sink.0.measured();
        let conserved = check_conservation(&tapped, &report);
        prop_assert!(conserved.is_ok(), "{:?}/{:?} conservation broken: {:?}", kind, policy, conserved);
    }
}
