//! The trace layer's end-to-end guarantee: a [`RunResult`] obtained by
//! replaying a captured trace (`Simulator::replay` over a `TraceCursor`) is
//! **byte-identical** to the same entry point driven by the inline
//! `Executor`, the reference path, for every `PredictorKind` ×
//! `RecoveryPolicy` combination the workspace can instantiate, the no-VP
//! baseline, and non-default warm-up/core sizings.
//!
//! It also pins the timing model itself: `tests/golden/pipeline_results.txt`
//! holds the full [`RunResult`] record of a fixed scenario set, generated by
//! the pre-refactor (`VecDeque<Slot>`) window implementation. The golden
//! test proves the slab/scoreboard window reproduces every one of them
//! byte-for-byte, and a property test does the same for arbitrary small
//! scenarios via inline-vs-replay equality.

use proptest::prelude::*;
use vpsim::core::PredictorKind;
use vpsim::isa::{Executor, Program, ProgramBuilder, Reg, Trace};
use vpsim::mem::{CacheConfig, MemoryConfig};
use vpsim::uarch::tap::NullSink;
use vpsim::uarch::{CoreConfig, RecoveryPolicy, RunResult, Simulator, VpConfig};
use vpsim::workloads::microkernels;

/// Every predictor the workspace can instantiate, including extension
/// baselines and the oracle.
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

/// The reference path: `program` executed inline, one µop ahead of fetch.
fn inline(sim: &Simulator, program: &Program, warmup: u64, measure: u64) -> RunResult {
    sim.replay(Executor::new(program), warmup, measure, &mut NullSink)
}

fn both_paths(config: CoreConfig, program: &Program) -> (RunResult, RunResult) {
    let sim = Simulator::new(config);
    let trace = Trace::capture(program, sim.config().trace_budget(WARMUP, MEASURE));
    let replayed = sim.replay(trace.cursor(), WARMUP, MEASURE, &mut NullSink);
    (inline(&sim, program, WARMUP, MEASURE), replayed)
}

#[test]
fn replay_is_byte_identical_for_every_predictor_and_recovery() {
    // Strided loads + a loop branch exercise prediction, validation and
    // both recovery paths on every predictor.
    let program = microkernels::strided_loop(64, 8);
    for kind in ALL_KINDS {
        for policy in ALL_POLICIES {
            let config = CoreConfig::default().with_vp(VpConfig::enabled(kind, policy));
            let (inline, replayed) = both_paths(config, &program);
            assert_eq!(
                inline.metrics.instructions, MEASURE,
                "{kind:?}/{policy:?} did not retire the full budget"
            );
            assert_eq!(inline, replayed, "{kind:?}/{policy:?} replay differs from inline");
        }
    }
}

#[test]
fn replay_is_byte_identical_without_value_prediction() {
    let program = microkernels::pointer_chase(1024);
    let (inline, replayed) = both_paths(CoreConfig::default(), &program);
    assert_eq!(inline, replayed);
}

#[test]
fn replay_is_byte_identical_on_a_resized_core() {
    // A narrow core changes the fetch-ahead bound trace_budget encodes;
    // replay must stay exact there too.
    let config = CoreConfig {
        fetch_width: 4,
        issue_width: 4,
        retire_width: 4,
        rob_entries: 64,
        iq_entries: 32,
        ..CoreConfig::default()
    }
    .with_vp(VpConfig::enabled(PredictorKind::VtageStride, RecoveryPolicy::SquashAtCommit));
    let program = microkernels::matmul(8);
    let (inline, replayed) = both_paths(config, &program);
    assert_eq!(inline, replayed);
}

/// A store-dominated kernel: each iteration writes the next array slot and
/// immediately reloads it — store-to-load forwarding on every pass and,
/// once store-set training kicks in, memory-order violation pressure —
/// sweeping a `words`-word footprint forever.
fn store_heavy(words: usize) -> vpsim::isa::Program {
    let mut b = ProgramBuilder::new();
    let base = 0x2000u64;
    let (ptr, end, base_r, x, y) =
        (Reg::int(1), Reg::int(2), Reg::int(3), Reg::int(4), Reg::int(5));
    b.load_imm(base_r, base as i64);
    b.load_imm(x, 7);
    let outer = b.bind_label();
    b.mov(ptr, base_r);
    b.load_imm(end, (base + (words * 8) as u64) as i64);
    let top = b.bind_label();
    b.store(ptr, x, 0);
    b.load(y, ptr, 0);
    b.add(x, x, y);
    b.addi(ptr, ptr, 8);
    b.blt(ptr, end, top);
    b.jump(outer);
    b.build().expect("valid kernel")
}

/// A shrunken memory hierarchy that turns the kernels above into cache- and
/// MSHR-pressure tests: `mshrs = 1` forces the MSHR-full wait path on every
/// overlapping miss, and the small L1D/L2 keep eviction and DRAM banking
/// active inside the measurement window.
fn stressed_mem(l1d_bytes: usize, l2_bytes: usize, mshrs: usize) -> MemoryConfig {
    MemoryConfig {
        l1i: CacheConfig { size_bytes: 4 * 1024, ways: 2, line_bytes: 64, latency: 2 },
        l1d: CacheConfig { size_bytes: l1d_bytes, ways: 2, line_bytes: 64, latency: 2 },
        l2: CacheConfig { size_bytes: l2_bytes, ways: 4, line_bytes: 64, latency: 12 },
        l1d_mshrs: mshrs,
        l2_mshrs: mshrs,
        ..MemoryConfig::default()
    }
}

/// The fixed scenario set behind the golden file: every predictor ×
/// recovery combination, the no-VP baseline on three kernels, resized
/// cores, memory-stress sizings (small caches, MSHR pressure,
/// store-heavy kernels) and PRF-starved cores. Labels are stable
/// identifiers — the golden file is keyed on them.
fn golden_scenarios() -> Vec<(String, CoreConfig, vpsim::isa::Program)> {
    let mut out = Vec::new();
    for kind in ALL_KINDS {
        for policy in ALL_POLICIES {
            out.push((
                format!("{kind:?}/{policy:?}/strided"),
                CoreConfig::default().with_vp(VpConfig::enabled(kind, policy)),
                microkernels::strided_loop(64, 8),
            ));
        }
    }
    for (name, program) in [
        ("strided", microkernels::strided_loop(64, 8)),
        ("chase", microkernels::pointer_chase(1024)),
        ("matmul", microkernels::matmul(8)),
    ] {
        out.push((format!("novp/{name}"), CoreConfig::default(), program));
    }
    let narrow = CoreConfig {
        fetch_width: 4,
        issue_width: 4,
        retire_width: 4,
        rob_entries: 64,
        iq_entries: 32,
        ..CoreConfig::default()
    };
    out.push((
        "narrow/VtageStride/Squash/matmul".into(),
        narrow
            .clone()
            .with_vp(VpConfig::enabled(PredictorKind::VtageStride, RecoveryPolicy::SquashAtCommit)),
        microkernels::matmul(8),
    ));
    out.push((
        "narrow/Lvp/Reissue/strided".into(),
        narrow.with_vp(VpConfig::enabled(PredictorKind::Lvp, RecoveryPolicy::SelectiveReissue)),
        microkernels::strided_loop(64, 8),
    ));
    let big = CoreConfig {
        rob_entries: 512,
        iq_entries: 256,
        lq_entries: 96,
        sq_entries: 96,
        int_prf: 576,
        fp_prf: 576,
        ..CoreConfig::default()
    };
    out.push((
        "big/Vtage/Squash/chase".into(),
        big.with_vp(VpConfig::enabled(PredictorKind::Vtage, RecoveryPolicy::SquashAtCommit)),
        microkernels::pointer_chase(1024),
    ));
    // Memory-stress scenarios at two sizings: the LSQ forwarding/violation
    // paths (store-heavy), miss merging and the MSHR-full wait path
    // (single-MSHR files), and prefetcher/DRAM banking under eviction
    // pressure (footprints chosen to thrash L1D at both sizings and L2 at
    // the tiny one).
    for (mname, mem) in
        [("tiny", stressed_mem(1024, 8 * 1024, 1)), ("small", stressed_mem(4 * 1024, 32 * 1024, 4))]
    {
        for (kname, program) in [
            ("storeheavy", store_heavy(1024)),
            ("chase", microkernels::pointer_chase(4096)),
            ("strided", microkernels::strided_loop(512, 8)),
        ] {
            out.push((
                format!("memstress/{mname}/novp/{kname}"),
                CoreConfig { mem: mem.clone(), ..CoreConfig::default() },
                program.clone(),
            ));
            out.push((
                format!("memstress/{mname}/Vtage/Squash/{kname}"),
                CoreConfig { mem: mem.clone(), ..CoreConfig::default() }.with_vp(
                    VpConfig::enabled(PredictorKind::Vtage, RecoveryPolicy::SquashAtCommit),
                ),
                program,
            ));
        }
    }
    // PRF-starved cores: 64 registers per class leave 32 renameable after
    // the architectural reserve, so dispatch stalls on the register file
    // (`k:matmul` and `k:chase` sizings). These are the only entries that
    // charge `dispatch_prf_cycles`.
    let starved = CoreConfig { int_prf: 64, fp_prf: 64, ..CoreConfig::default() };
    for (kname, program) in
        [("matmul", microkernels::matmul(8)), ("chase", microkernels::pointer_chase(4096))]
    {
        out.push((format!("prf64/novp/{kname}"), starved.clone(), program));
    }
    out
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/pipeline_results.txt")
}

/// Byte-identity against the pre-refactor instruction window. Regenerate
/// with `VPSIM_REGEN_GOLDEN=1 cargo test --test replay_equivalence golden`
/// **only** from a revision whose output is known-good; the committed file
/// was produced by the `VecDeque<Slot>` window this refactor replaced.
#[test]
fn golden_run_results_match_pre_refactor_window() {
    let mut rendered = String::from(
        "# RunResult golden set: label => Debug record (WARMUP=500, MEASURE=2500).\n\
         # Generated by the pre-refactor scan-based window; see file header test.\n",
    );
    for (label, config, program) in golden_scenarios() {
        let r = inline(&Simulator::new(config), &program, WARMUP, MEASURE);
        rendered.push_str(&format!("{label} => {r:?}\n"));
    }
    let path = golden_path();
    if std::env::var_os("VPSIM_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    for (want, got) in golden.lines().zip(rendered.lines()) {
        assert_eq!(got, want, "timing-model output drifted from the pre-refactor golden");
    }
    assert_eq!(golden.lines().count(), rendered.lines().count(), "scenario set changed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary small scenarios — random predictor, recovery, sizing and
    /// kernel — replay byte-identically to inline execution.
    #[test]
    fn replay_matches_inline_for_arbitrary_scenarios(
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
        let trace = Trace::capture(&program, sim.config().trace_budget(warmup, measure));
        prop_assert_eq!(
            inline(&sim, &program, warmup, measure),
            sim.replay(trace.cursor(), warmup, measure, &mut NullSink)
        );
    }
}

#[test]
fn one_shared_trace_serves_many_configurations() {
    // Capture once with the largest budget; every configuration replays
    // from the same trace and matches its own inline run — the sharing
    // pattern the sweep engine uses (Arc<Trace> across worker threads).
    let program = microkernels::strided_loop(64, 8);
    let budget = CoreConfig::default().trace_budget(WARMUP, MEASURE);
    let trace = Trace::capture(&program, budget);
    for kind in [PredictorKind::Lvp, PredictorKind::Vtage, PredictorKind::Oracle] {
        let config =
            CoreConfig::default().with_vp(VpConfig::enabled(kind, RecoveryPolicy::SquashAtCommit));
        let sim = Simulator::new(config);
        assert_eq!(
            sim.replay(trace.cursor(), WARMUP, MEASURE, &mut NullSink),
            inline(&sim, &program, WARMUP, MEASURE),
            "{kind:?} differs replaying the shared trace"
        );
    }
}
