//! Checkpoint round trips: replaying a detailed interval from a
//! checkpoint that went through `to_bytes` → `from_bytes` is
//! byte-identical to replaying from the original in-memory checkpoint —
//! for every predictor kind and recovery policy the simulator supports;
//! a checkpoint is never resumed on a trace it was not taken on; and a
//! plan of one interval that spans the whole run replays exactly what a
//! full replay does.
//!
//! Nothing persists checkpoints yet: every sampled run restores its
//! intervals from in-memory checkpoints, through the same state blob
//! `to_bytes` writes. These tests guard that the blob loses nothing a
//! replay depends on, and that the cold front end a restored interval
//! starts from is the one a full replay starts from.

use proptest::prelude::*;
use vpsim_core::PredictorKind;
use vpsim_isa::{ProgramBuilder, Reg, Trace};
use vpsim_uarch::tap::NullSink;
use vpsim_uarch::{Checkpoint, CoreConfig, RecoveryPolicy, SampleConfig, Simulator, VpConfig};

/// An endless loop exercising every structure the warmer checkpoints:
/// strided loads and stores (caches), a data-dependent conditional branch
/// (TAGE + history), and a call/return pair every `modulus` iterations
/// (RAS, BTB-adjacent control flow).
fn program(modulus: i64, stride: i64) -> vpsim_isa::Program {
    let mut b = ProgramBuilder::new();
    let (i, n, addr, x, t, link, acc, zero) = (
        Reg::int(1),
        Reg::int(2),
        Reg::int(3),
        Reg::int(4),
        Reg::int(5),
        Reg::int(6),
        Reg::int(7),
        Reg::int(8),
    );
    b.load_imm(n, i64::MAX / 2);
    let top = b.bind_label();
    b.addi(i, i, 1);
    b.andi(t, i, modulus);
    b.shli(addr, t, 3);
    b.load(x, addr, 64);
    b.add(acc, acc, x);
    b.store(addr, acc, 64 + stride);
    let skip = b.label();
    let func = b.label();
    b.bne(t, zero, skip);
    b.call(link, func);
    b.bind(skip);
    b.blt(i, n, top);
    b.halt();
    b.bind(func);
    b.addi(acc, acc, 3);
    b.ret(link);
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn serialized_checkpoints_replay_byte_identically_for_every_predictor(
        modulus_bits in 1u32..4,
        stride in prop::sample::select(vec![0i64, 8, 24]),
        warmup in 0u64..2_000,
        measure in 5_000u64..9_000,
        intervals in 2u64..4,
        period in 600u64..1_500,
        sample_warmup in 0u64..500,
        seed in 0u64..1u64 << 48,
    ) {
        let program = program((1 << modulus_bits) - 1, stride);
        let sample = SampleConfig { intervals, period, warmup: sample_warmup };
        // One trace serves every configuration: capture with the default
        // core's budget (trace_budget depends only on warmup/measure and
        // the fetch-ahead bound, identical across VP configurations).
        let trace = Trace::capture(
            &program,
            CoreConfig::default().with_seed(seed).trace_budget(warmup, measure),
        );
        let mut configs = vec![CoreConfig::default().with_seed(seed)];
        for kind in PredictorKind::ALL {
            for recovery in [RecoveryPolicy::SquashAtCommit, RecoveryPolicy::SelectiveReissue] {
                configs.push(
                    CoreConfig::default()
                        .with_seed(seed)
                        .with_vp(VpConfig::enabled(kind, recovery)),
                );
            }
        }
        for config in configs {
            let sim = Simulator::new(config);
            let checkpoints = sim.sample_checkpoints(&trace, warmup, measure, sample);
            prop_assert!(!checkpoints.is_empty(), "region admits at least one interval");
            // `measure >> period` here, so each interval replays exactly
            // `period` µops (the plan's per-interval measurement window).
            let mut direct = Vec::new();
            for cp in &checkpoints {
                let bytes = cp.to_bytes();
                let revived = Checkpoint::from_bytes(&bytes)
                    .expect("a freshly serialized checkpoint deserializes");
                prop_assert_eq!(
                    revived.to_bytes(),
                    bytes,
                    "serialization is a fixed point"
                );
                let from_memory = sim.run_interval_from(&trace, cp, period).unwrap();
                let from_bytes = sim.run_interval_from(&trace, &revived, period).unwrap();
                prop_assert_eq!(from_memory, from_bytes, "serialization perturbed a replay");
                direct.push(from_memory);
            }
            // The one-shot sampled run takes the identical path: same
            // checkpoints, same per-interval results.
            let sampled = sim.run_sampled(&trace, warmup, measure, sample);
            prop_assert_eq!(sampled.per_interval, direct);
        }
    }
}

/// A checkpoint records the identity of the trace it was taken on, so
/// resuming it on another workload's trace is refused — even where its
/// coordinates are in range there and a replay would run to completion
/// with a meaningless result.
#[test]
fn checkpoints_refuse_a_different_trace() {
    let capture = |name: &str, budget: u64| {
        let bench = vpsim_workloads::workload(name).expect("registry workload");
        Trace::capture(&(bench.build)(&vpsim_workloads::WorkloadParams::default()), budget)
    };
    let sim = Simulator::new(CoreConfig::default());
    let sample = SampleConfig { intervals: 2, period: 1_000, warmup: 200 };
    let taken_on = capture("gzip", sim.config().trace_budget(2_000, 4_000));
    let other = capture("mcf", 4 * taken_on.len() as u64);
    let checkpoints = sim.sample_checkpoints(&taken_on, 2_000, 4_000, sample);
    assert!(!checkpoints.is_empty());
    for cp in &checkpoints {
        let revived = Checkpoint::from_bytes(&cp.to_bytes()).unwrap();
        assert!(sim.run_interval_from(&taken_on, &revived, 1_000).is_ok());
        assert!(
            other.cursor_resume(cp.pos() as usize, cp.payload_pos() as usize).is_ok(),
            "the coordinates are in range on the other trace too"
        );
        let err = sim.run_interval_from(&other, &revived, 1_000).unwrap_err();
        assert!(err.contains("different trace"), "{err}");
    }
}

/// A plan of one interval as long as the measured region, with a detailed
/// warm-up at least as long as the run's, places its checkpoint at the
/// trace head before any fast-forward: the interval is the whole run,
/// started from a restored cold front end. It must equal a full replay,
/// for every predictor and recovery policy and for the baseline.
#[test]
fn one_interval_plan_equals_full_replay() {
    let (warmup, measure) = (2_000, 8_000);
    let bench = vpsim_workloads::workload("gzip").expect("registry workload");
    let program = (bench.build)(&vpsim_workloads::WorkloadParams::default());
    let trace = Trace::capture(&program, CoreConfig::default().trace_budget(warmup, measure));
    let sample = SampleConfig { intervals: 1, period: measure, warmup };
    let mut configs = vec![CoreConfig::default()];
    for kind in PredictorKind::ALL {
        for recovery in [RecoveryPolicy::SquashAtCommit, RecoveryPolicy::SelectiveReissue] {
            configs.push(CoreConfig::default().with_vp(VpConfig::enabled(kind, recovery)));
        }
    }
    for config in configs {
        let label = format!("{:?}", config.vp.as_ref().map(|vp| (vp.kind, vp.recovery)));
        let sim = Simulator::new(config);
        let sampled = sim.run_sampled(&trace, warmup, measure, sample);
        let full = sim.replay(trace.cursor(), warmup, measure, &mut NullSink);
        assert_eq!(full.metrics.instructions, measure, "{label}");
        assert_eq!(sampled.per_interval, vec![full], "{label}");
        assert_eq!(sampled.ff_uops, 0, "{label}: the checkpoint sits at the trace head");
    }
}

/// `Simulator` doc example's counted loop: `load_imm`, then `iters`
/// iterations of `addi` + `blt`, then `halt` — a trace of exactly
/// `2 * iters + 2` µops, however large the capture budget.
fn halting_loop(iters: i64) -> vpsim_isa::Program {
    let mut b = ProgramBuilder::new();
    let (i, n) = (Reg::int(1), Reg::int(2));
    b.load_imm(n, iters);
    let top = b.bind_label();
    b.addi(i, i, 1);
    b.blt(i, n, top);
    b.halt();
    b.build().unwrap()
}

#[test]
fn intervals_past_the_end_of_a_halting_program_are_skipped() {
    // Ten 1 000-µop intervals over a 10k measured region, on programs that
    // halt inside the eighth or at the end of the ninth interval. Only the
    // intervals the trace holds in full replay: none is cut short (the
    // eighth once replayed 2 µops) or empty (the tenth once read CPI 0).
    let sim = Simulator::new(CoreConfig::default());
    let sample = SampleConfig { intervals: 10, period: 1_000, warmup: 0 };
    for (iters, len, whole) in [(4_000, 8_002, 8), (4_499, 9_000, 9)] {
        let trace = Trace::capture(&halting_loop(iters), sim.config().trace_budget(0, 10_000));
        assert_eq!(trace.len(), len);
        let sampled = sim.run_sampled(&trace, 0, 10_000, sample);
        assert_eq!(sampled.intervals_replayed(), whole, "trace of {len} µops");
        assert_eq!(sampled.detailed_uops, whole * 1_000, "trace of {len} µops");
        for r in &sampled.per_interval {
            assert_eq!(r.metrics.instructions, 1_000, "trace of {len} µops");
        }
        assert!(sampled.interval_cpis().iter().all(|&cpi| cpi > 0.0));
    }
}
