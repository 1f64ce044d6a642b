//! Cross-crate integration tests: full programs through the functional
//! executor and the cycle-level core, exercising the paper's mechanisms
//! end to end.

use vpsim::branch::Tage;
use vpsim::core::state::{StateReader, StateWriter};
use vpsim::core::{
    AnyPredictor, ConfidenceScheme, HistoryState, PredictCtx, Prediction, Predictor, PredictorKind,
};
use vpsim::isa::{Executor, Program, ProgramBuilder, Reg, Trace};
use vpsim::uarch::tap::NullSink;
use vpsim::uarch::{CoreConfig, RecoveryPolicy, RunResult, Simulator, VpConfig};
use vpsim::workloads::{all_benchmarks, benchmark, microkernels, WorkloadParams};

/// Execute `program` inline on `config`'s core: `warmup` µops unmeasured,
/// then `measure` measured.
fn run(config: CoreConfig, program: &Program, warmup: u64, measure: u64) -> RunResult {
    Simulator::new(config).replay(Executor::new(program), warmup, measure, &mut NullSink)
}

fn vp_config(kind: PredictorKind, recovery: RecoveryPolicy) -> CoreConfig {
    CoreConfig::default().with_vp(VpConfig::enabled(kind, recovery))
}

#[test]
fn every_benchmark_simulates_under_every_recovery_scheme() {
    let params = WorkloadParams::default();
    for b in all_benchmarks() {
        let program = (b.build)(&params);
        for recovery in [RecoveryPolicy::SquashAtCommit, RecoveryPolicy::SelectiveReissue] {
            let r = run(vp_config(PredictorKind::VtageStride, recovery), &program, 0, 20_000);
            assert_eq!(r.metrics.instructions, 20_000, "{} under {recovery:?}", b.name);
            assert!(r.metrics.ipc() > 0.01, "{} IPC {}", b.name, r.metrics.ipc());
        }
    }
}

#[test]
fn simulation_is_deterministic_per_seed_across_predictors() {
    let program = (benchmark("gzip").unwrap().build)(&WorkloadParams::default());
    for kind in [PredictorKind::Lvp, PredictorKind::Vtage, PredictorKind::FcmStride] {
        let config = vp_config(kind, RecoveryPolicy::SquashAtCommit);
        let a = run(config.clone(), &program, 0, 30_000);
        let b = run(config, &program, 0, 30_000);
        assert_eq!(a, b, "{kind:?} must be deterministic");
    }
}

/// How many eligible µops [`Frontier`] keeps predicted but not yet trained.
const LAG: usize = 8;

/// The pipeline's predictor schedule over a fixed list of eligible µops:
/// each is predicted at fetch and trained `LAG` µops later at commit, after
/// a resolve if it was confidently mispredicted.
#[derive(Clone)]
struct Frontier<'a> {
    ctxs: &'a [PredictCtx],
    fetch: usize,
    commit: usize,
    /// The live prediction of each µop (a refetch overwrites it).
    made: Vec<Prediction>,
    /// Every prediction, in the order made.
    log: Vec<Prediction>,
}

impl<'a> Frontier<'a> {
    fn new(ctxs: &'a [PredictCtx]) -> Self {
        Frontier {
            ctxs,
            fetch: 0,
            commit: 0,
            made: vec![Prediction::none(); ctxs.len()],
            log: vec![],
        }
    }

    fn cycle(&mut self, p: &mut AnyPredictor) {
        let pred = p.predict(&self.ctxs[self.fetch]);
        self.made[self.fetch] = pred;
        self.log.push(pred);
        self.fetch += 1;
        if self.fetch - self.commit > LAG {
            let c = &self.ctxs[self.commit];
            let actual = c.actual.expect("eligible µop has a result");
            if self.made[self.commit].confident_value().is_some_and(|v| v != actual) {
                p.resolve(c.seq, c.pc, actual);
            }
            p.train(c.seq, actual);
            self.commit += 1;
        }
    }

    /// Squash the younger half of the in-flight µops; they are refetched.
    fn squash(&mut self, p: &mut AnyPredictor) {
        let keep = self.commit + (self.fetch - self.commit) / 2;
        p.squash_after(self.ctxs[keep].seq);
        self.fetch = keep + 1;
    }

    /// Run `cycles` more cycles, squash once, then run to the end of the
    /// list; returns the predictions made from here on.
    fn finish(mut self, p: &mut AnyPredictor, cycles: usize) -> Vec<Prediction> {
        let start = self.log.len();
        for _ in 0..cycles {
            self.cycle(p);
        }
        self.squash(p);
        while self.fetch < self.ctxs.len() {
            self.cycle(p);
        }
        self.log.split_off(start)
    }
}

#[test]
fn cloned_predictor_continues_identically() {
    // Eligible µops of a workload trace with the correct-path fetch history.
    let program = (benchmark("gcc").unwrap().build)(&WorkloadParams::default());
    let trace = Trace::capture(&program, 40_000);
    let mut hist = HistoryState::default();
    let mut ctxs = Vec::new();
    for di in trace.cursor() {
        if di.vp_eligible() {
            ctxs.push(PredictCtx { seq: di.seq, pc: di.pc, hist, actual: di.result });
        }
        if di.inst.op.is_cond_branch() {
            hist.push_branch(di.pc, di.taken);
        } else if di.inst.op.is_control() {
            hist.push_path(di.pc);
        }
    }
    let half = ctxs.len() / 2;
    for kind in PredictorKind::ALL {
        let mut original = kind.build(ConfidenceScheme::fpc_squash(), 7);
        let mut frontier = Frontier::new(&ctxs);
        while frontier.fetch < half {
            frontier.cycle(&mut original);
        }
        // The copy is taken with LAG predictions in flight.
        assert_eq!(frontier.fetch - frontier.commit, LAG);
        let mut copy = original.clone();
        let copy_frontier = frontier.clone();
        let expected = frontier.finish(&mut original, 1_000);
        let got = copy_frontier.finish(&mut copy, 1_000);
        let diverged_at = got.iter().zip(&expected).position(|(a, b)| a != b);
        assert_eq!((got.len(), diverged_at), (expected.len(), None), "{kind}: the clone diverged");
    }
}

/// Predict `branches[from..]` on `tage` with up to `LAG` predictions in
/// flight, squashing and refetching the younger half of them every 97
/// predictions, as the pipeline's fetch and commit stages do; trains every
/// branch before returning. Returns each prediction, in the order made.
fn drive_tage(tage: &mut Tage, branches: &[(u64, bool, HistoryState)], from: usize) -> Vec<bool> {
    let (mut fetch, mut commit) = (from, from);
    let mut log = Vec::new();
    while commit < branches.len() {
        if fetch < branches.len() {
            let (pc, _, hist) = branches[fetch];
            log.push(tage.predict(fetch as u64, pc, &hist));
            fetch += 1;
            if log.len() % 97 == 0 && fetch - commit > 1 {
                let keep = commit + (fetch - commit) / 2;
                tage.squash_after(keep as u64);
                fetch = keep + 1;
            }
        }
        if fetch - commit > LAG || fetch == branches.len() {
            tage.train(commit as u64, branches[commit].1);
            commit += 1;
        }
    }
    log
}

#[test]
fn cloned_and_restored_tage_continue_identically() {
    // Conditional branches of a workload trace with their fetch history.
    let program = (benchmark("gcc").unwrap().build)(&WorkloadParams::default());
    let trace = Trace::capture(&program, 60_000);
    let mut hist = HistoryState::default();
    let mut branches = Vec::new();
    for di in trace.cursor() {
        if di.inst.op.is_cond_branch() {
            branches.push((di.pc, di.taken, hist));
            hist.push_branch(di.pc, di.taken);
        } else if di.inst.op.is_control() {
            hist.push_path(di.pc);
        }
    }
    let half = branches.len() / 2;
    let mut original = Tage::with_defaults(7);
    drive_tage(&mut original, &branches[..half], 0);
    // The clone copies the fold registers; the restored predictor starts
    // them from the empty history and must refold on its first lookup.
    let mut clone = original.clone();
    let mut w = StateWriter::new();
    original.save_state(&mut w);
    let bytes = w.into_bytes();
    let mut restored = Tage::with_defaults(99);
    let mut r = StateReader::new(&bytes);
    restored.load_state(&mut r).unwrap();
    r.finish().unwrap();
    let expected = drive_tage(&mut original, &branches, half);
    for (name, tage) in [("clone", &mut clone), ("restored", &mut restored)] {
        let got = drive_tage(tage, &branches, half);
        let diverged_at = got.iter().zip(&expected).position(|(a, b)| a != b);
        assert_eq!((got.len(), diverged_at), (expected.len(), None), "the {name} diverged");
    }
}

#[test]
fn oracle_dominates_every_real_predictor() {
    // The oracle is an upper bound: no real predictor may beat it on the
    // same program (modulo nothing — oracle never mispredicts and always
    // covers).
    let program = microkernels::fp_reduction(128);
    let oracle =
        run(vp_config(PredictorKind::Oracle, RecoveryPolicy::SquashAtCommit), &program, 0, 50_000);
    for kind in [PredictorKind::Lvp, PredictorKind::TwoDeltaStride, PredictorKind::Vtage] {
        let real = run(vp_config(kind, RecoveryPolicy::SquashAtCommit), &program, 0, 50_000);
        assert!(
            real.metrics.ipc() <= oracle.metrics.ipc() * 1.01,
            "{kind:?} ({}) beat the oracle ({})",
            real.metrics.ipc(),
            oracle.metrics.ipc()
        );
    }
}

#[test]
fn vp_never_corrupts_architectural_results() {
    // The functional executor is the ground truth; simulation must commit
    // exactly the instructions the executor produces, in order, regardless
    // of predictor aggressiveness. We verify indirectly: instruction counts
    // and determinism across VP on/off (the timing model replays the same
    // trace, so any ordering corruption would show up as a panic in the
    // predictor protocol or a deadlock).
    let program = microkernels::matmul(6);
    let functional: Vec<_> = Executor::new(&program).take(30_000).map(|d| d.seq).collect();
    assert_eq!(functional.len(), 30_000);
    let config = vp_config(PredictorKind::VtageStride, RecoveryPolicy::SquashAtCommit);
    let with_vp = run(config, &program, 0, 30_000);
    let without = run(CoreConfig::default(), &program, 0, 30_000);
    assert_eq!(with_vp.metrics.instructions, 30_000);
    assert_eq!(without.metrics.instructions, 30_000);
}

#[test]
fn tight_loop_has_high_back_to_back_fraction() {
    // §3.2: the motivation for VTAGE. A 3-µop loop refetches the same PCs
    // every cycle.
    let r = run(CoreConfig::default(), &microkernels::tight_loop(), 0, 30_000);
    assert!(
        r.back_to_back.fraction() > 0.3,
        "tight loop b2b fraction {}",
        r.back_to_back.fraction()
    );
}

#[test]
fn constant_stream_reaches_high_coverage_with_lvp() {
    // The kernel's loop has 4 eligible µops per iteration of which the
    // constant load is the LVP-predictable one: coverage ≈ 25 %.
    let config = vp_config(PredictorKind::Lvp, RecoveryPolicy::SquashAtCommit);
    let r = run(config, &microkernels::constant_stream(), 0, 50_000);
    assert!(r.vp.coverage() > 0.2, "coverage {}", r.vp.coverage());
    assert!(r.vp.accuracy() > 0.999, "accuracy {}", r.vp.accuracy());
}

#[test]
fn branch_correlated_values_need_vtage() {
    let program = microkernels::branch_correlated_values();
    let lvp =
        run(vp_config(PredictorKind::Lvp, RecoveryPolicy::SquashAtCommit), &program, 0, 50_000);
    let vtage =
        run(vp_config(PredictorKind::Vtage, RecoveryPolicy::SquashAtCommit), &program, 0, 50_000);
    // The alternating constant is invisible to LVP (it changes every
    // occurrence) but trivially captured by VTAGE's branch history.
    assert!(
        vtage.vp.correct_used > lvp.vp.correct_used * 2,
        "vtage {} vs lvp {} correct-used",
        vtage.vp.correct_used,
        lvp.vp.correct_used
    );
}

#[test]
fn fpc_squash_never_loses_badly_to_baseline_counters() {
    // The paper's §8.2.1 claim, on three bursty benchmarks: with FPC the
    // speedup is never materially below the baseline-counter speedup.
    let params = WorkloadParams::default();
    for name in ["crafty", "gobmk", "sjeng"] {
        let program = (benchmark(name).unwrap().build)(&params);
        let base = run(CoreConfig::default(), &program, 10_000, 60_000);
        let mk = |scheme: ConfidenceScheme| {
            let config = CoreConfig::default().with_vp(VpConfig {
                kind: PredictorKind::Vtage,
                scheme,
                recovery: RecoveryPolicy::SquashAtCommit,
            });
            run(config, &program, 10_000, 60_000)
        };
        let with_baseline = mk(ConfidenceScheme::baseline());
        let with_fpc = mk(ConfidenceScheme::fpc_squash());
        let sp_base = vpsim::stats::speedup(&base.metrics, &with_baseline.metrics);
        let sp_fpc = vpsim::stats::speedup(&base.metrics, &with_fpc.metrics);
        assert!(
            sp_fpc >= sp_base - 0.02,
            "{name}: FPC {sp_fpc:.3} vs baseline counters {sp_base:.3}"
        );
        assert!(
            with_fpc.vp.accuracy() >= with_baseline.vp.accuracy() || with_fpc.vp.used < 100,
            "{name}: FPC accuracy must not regress"
        );
    }
}

#[test]
fn squash_storms_in_tight_loops_are_survived() {
    // Failure injection (paper §7.2.1 discusses repeated mispredictions on
    // in-flight occurrences): a tight loop whose value glitches every 64
    // iterations (longer than the pipeline's fetch-ahead depth, so the
    // hair-trigger counter does get confident) — the worst case for
    // squash-at-commit. The run must complete, stay correct, and record
    // many squashes.
    let mut b = ProgramBuilder::new();
    let (i, t, v) = (Reg::int(1), Reg::int(2), Reg::int(3));
    let limit = Reg::int(4);
    b.load_imm(limit, i64::MAX);
    let top = b.bind_label();
    b.addi(i, i, 1);
    b.shri(t, i, 6); // changes every 64 iterations
    b.mul(v, t, t); // VP target with bursty values
    b.add(Reg::int(5), Reg::int(5), v); // consumer
    b.blt(i, limit, top);
    b.halt();
    let program = b.build().unwrap();
    let config = CoreConfig::default().with_vp(VpConfig {
        kind: PredictorKind::Lvp,
        scheme: ConfidenceScheme::full(1), // hair-trigger confidence
        recovery: RecoveryPolicy::SquashAtCommit,
    });
    let r = run(config, &program, 0, 80_000);
    assert_eq!(r.metrics.instructions, 80_000);
    assert!(r.vp_squashes > 100, "squash storm expected, got {}", r.vp_squashes);
    // And the same storm under selective reissue completes too.
    let config = CoreConfig::default().with_vp(VpConfig {
        kind: PredictorKind::Lvp,
        scheme: ConfidenceScheme::full(1),
        recovery: RecoveryPolicy::SelectiveReissue,
    });
    let r2 = run(config, &program, 0, 80_000);
    assert_eq!(r2.metrics.instructions, 80_000);
    assert!(r2.reissued_uops > 100, "reissues expected, got {}", r2.reissued_uops);
    assert_eq!(r2.vp_squashes, 0);
}

#[test]
fn pointer_chase_is_memory_bound_and_oracle_breaks_it() {
    let program = microkernels::pointer_chase(1 << 15); // 256 KB > L1D
    let base = run(CoreConfig::default(), &program, 0, 40_000);
    let oracle =
        run(vp_config(PredictorKind::Oracle, RecoveryPolicy::SquashAtCommit), &program, 0, 40_000);
    assert!(base.metrics.ipc() < 1.0, "chase must be slow, ipc {}", base.metrics.ipc());
    assert!(
        oracle.metrics.ipc() > base.metrics.ipc() * 1.5,
        "oracle must break the chain: {} vs {}",
        oracle.metrics.ipc(),
        base.metrics.ipc()
    );
}

#[test]
fn call_ladder_exercises_ras_without_target_misses() {
    let r = run(CoreConfig::default(), &microkernels::call_ladder(), 0, 40_000);
    // Returns are perfectly RAS-predictable here.
    let mpki = r.branch.target_mispredictions as f64 * 1000.0 / r.metrics.instructions as f64;
    assert!(mpki < 1.0, "target MPKI {mpki}");
}
