//! Structural-resource tests: each Table 2 resource, when artificially
//! shrunk, must actually bite. These pin down that the simulator models
//! real constraints rather than idealized dataflow.

use vpsim_core::PredictorKind;
use vpsim_isa::{Executor, Program, ProgramBuilder, Reg};
use vpsim_mem::{CacheConfig, MemoryConfig};
use vpsim_uarch::tap::NullSink;
use vpsim_uarch::{CoreConfig, RecoveryPolicy, RunResult, Simulator, VpConfig};

/// A loop of `width` independent operation chains, `make_op` emitting each.
fn parallel_loop(width: u8, mut make_op: impl FnMut(&mut ProgramBuilder, Reg)) -> Program {
    let mut b = ProgramBuilder::new();
    let limit = Reg::int(31);
    b.load_imm(limit, i64::MAX);
    let counter = Reg::int(30);
    let top = b.bind_label();
    for k in 1..=width {
        make_op(&mut b, Reg::int(k));
    }
    b.addi(counter, counter, 1);
    b.blt(counter, limit, top);
    b.halt();
    b.build().unwrap()
}

/// Execute `program` inline on `config`'s core: `warmup` µops unmeasured,
/// then `measure` measured.
fn run(config: CoreConfig, program: &Program, warmup: u64, measure: u64) -> RunResult {
    Simulator::new(config).replay(Executor::new(program), warmup, measure, &mut NullSink)
}

fn ipc(config: CoreConfig, program: &Program) -> f64 {
    run(config, program, 0, 30_000).metrics.ipc()
}

#[test]
fn non_pipelined_divider_throttles_throughput() {
    // 4 independent divide chains vs 4 independent multiply chains: muls
    // are pipelined (3c), divides occupy a unit for 25 cycles.
    let divs = parallel_loop(4, |b, r| {
        b.div(r, r, r);
    });
    let muls = parallel_loop(4, |b, r| {
        b.mul(r, r, r);
    });
    let div_ipc = ipc(CoreConfig::default(), &divs);
    let mul_ipc = ipc(CoreConfig::default(), &muls);
    assert!(
        mul_ipc > div_ipc * 2.0,
        "pipelined muls ({mul_ipc:.2}) must far outrun non-pipelined divides ({div_ipc:.2})"
    );
}

#[test]
fn alu_pool_width_binds_independent_work() {
    let adds = parallel_loop(8, |b, r| {
        b.addi(r, r, 1);
    });
    let wide = ipc(CoreConfig::default(), &adds);
    let narrow = ipc(
        CoreConfig {
            fu: vpsim_uarch::FuConfig { alu_units: 2, ..Default::default() },
            ..CoreConfig::default()
        },
        &adds,
    );
    assert!(
        wide > narrow * 1.5,
        "8 ALUs ({wide:.2}) must beat 2 ALUs ({narrow:.2}) on independent adds"
    );
}

#[test]
fn load_ports_bind_parallel_loads() {
    let mut b = ProgramBuilder::new();
    b.data_block(0x10000, &[1, 2, 3, 4, 5, 6, 7, 8]);
    let limit = Reg::int(31);
    let base = Reg::int(29);
    b.load_imm(limit, i64::MAX);
    b.load_imm(base, 0x10000);
    let counter = Reg::int(30);
    let top = b.bind_label();
    for k in 1..=6u8 {
        b.load(Reg::int(k), base, (k as i64) * 8);
    }
    b.addi(counter, counter, 1);
    b.blt(counter, limit, top);
    b.halt();
    let p = b.build().unwrap();
    let four_ports = ipc(CoreConfig::default(), &p);
    let one_port = ipc(
        CoreConfig {
            fu: vpsim_uarch::FuConfig { load_ports: 1, ..Default::default() },
            ..CoreConfig::default()
        },
        &p,
    );
    assert!(
        four_ports > one_port * 1.5,
        "4 load ports ({four_ports:.2}) must beat 1 ({one_port:.2})"
    );
}

/// One DRAM-missing load plus filler per iteration: latency-bound, far
/// below DRAM bandwidth, so the in-flight window determines how many
/// misses overlap.
fn latency_bound_stream() -> Program {
    let mut b = ProgramBuilder::new();
    let limit = Reg::int(31);
    let ptr = Reg::int(1);
    b.load_imm(limit, i64::MAX);
    b.load_imm(ptr, 0x10_0000);
    let counter = Reg::int(30);
    let top = b.bind_label();
    b.load(Reg::int(2), ptr, 0);
    b.addi(ptr, ptr, 4096); // a fresh line (and usually row) every time
    for k in 3..=8u8 {
        b.addi(Reg::int(k), Reg::int(k), 1);
    }
    b.addi(counter, counter, 1);
    b.blt(counter, limit, top);
    b.halt();
    b.build().unwrap()
}

#[test]
fn rob_size_limits_memory_level_parallelism() {
    let p = latency_bound_stream();
    let big = ipc(CoreConfig::default(), &p);
    let small = ipc(CoreConfig { rob_entries: 16, iq_entries: 8, ..CoreConfig::default() }, &p);
    assert!(big > small * 1.5, "ROB 256 ({big:.2}) must beat ROB 16 ({small:.2}) on MLP");
}

#[test]
fn store_queue_pressure_stalls_store_heavy_code() {
    let mut b = ProgramBuilder::new();
    let limit = Reg::int(31);
    let base = Reg::int(29);
    b.load_imm(limit, i64::MAX);
    b.load_imm(base, 0x200000);
    let counter = Reg::int(30);
    let v = Reg::int(1);
    let top = b.bind_label();
    for k in 0..6 {
        b.store(base, v, k * 8);
    }
    b.addi(counter, counter, 1);
    b.blt(counter, limit, top);
    b.halt();
    let p = b.build().unwrap();
    let normal = ipc(CoreConfig::default(), &p);
    let tiny_sq = ipc(CoreConfig { sq_entries: 4, ..CoreConfig::default() }, &p);
    assert!(normal > tiny_sq, "SQ 48 ({normal:.2}) must beat SQ 4 ({tiny_sq:.2})");
}

#[test]
fn prf_pressure_limits_in_flight_writers() {
    // The latency-bound stream keeps ~200 writers in flight under the
    // default config; 64 INT registers allow only 32, strangling MLP the
    // same way a tiny ROB does.
    let p = latency_bound_stream();
    let normal = ipc(CoreConfig::default(), &p);
    let tight = ipc(CoreConfig { int_prf: 64, ..CoreConfig::default() }, &p);
    assert!(normal > tight * 1.5, "PRF 256 ({normal:.2}) must beat PRF 64 ({tight:.2})");
}

#[test]
fn taken_branch_fetch_limit_binds_branchy_code() {
    // Three taken jumps per 12 µops vs straight-line equivalents.
    let mut b = ProgramBuilder::new();
    let limit = Reg::int(31);
    b.load_imm(limit, i64::MAX);
    let counter = Reg::int(30);
    let top = b.bind_label();
    for _ in 0..3 {
        let next = b.label();
        b.addi(Reg::int(1), Reg::int(1), 1);
        b.jump(next); // unconditional taken
        b.bind(next);
        b.addi(Reg::int(2), Reg::int(2), 1);
    }
    b.addi(counter, counter, 1);
    b.blt(counter, limit, top);
    b.halt();
    let branchy = b.build().unwrap();

    let straight = parallel_loop(8, |b, r| {
        b.addi(r, r, 1);
    });
    let branchy_ipc = ipc(CoreConfig::default(), &branchy);
    let straight_ipc = ipc(CoreConfig::default(), &straight);
    assert!(
        straight_ipc > branchy_ipc * 1.5,
        "straight-line ({straight_ipc:.2}) must beat taken-branch-dense ({branchy_ipc:.2})"
    );
}

#[test]
fn frontend_depth_sets_misprediction_cost() {
    // An unpredictable branch with a short vs long front-end: the longer
    // pipeline pays more per misprediction.
    let mut b = ProgramBuilder::new();
    let (x, limit) = (Reg::int(1), Reg::int(31));
    b.load_imm(x, 0x1234_5678);
    b.load_imm(limit, i64::MAX);
    let counter = Reg::int(30);
    let top = b.bind_label();
    // LCG + branch on a high bit.
    b.load_imm(Reg::int(2), 6364136223846793005);
    b.mul(x, x, Reg::int(2));
    b.load_imm(Reg::int(2), 1442695040888963407);
    b.add(x, x, Reg::int(2));
    b.shri(Reg::int(3), x, 62);
    let skip = b.label();
    b.beq(Reg::int(3), Reg::int(0), skip);
    b.addi(Reg::int(4), Reg::int(4), 1);
    b.bind(skip);
    b.addi(counter, counter, 1);
    b.blt(counter, limit, top);
    b.halt();
    let p = b.build().unwrap();
    let shallow = ipc(CoreConfig { frontend_depth: 5, ..CoreConfig::default() }, &p);
    let deep = ipc(CoreConfig { frontend_depth: 15, ..CoreConfig::default() }, &p);
    assert!(
        shallow > deep * 1.05,
        "5-deep front-end ({shallow:.2}) must beat 15-deep ({deep:.2}) under mispredicts"
    );
}

#[test]
fn selective_reissue_survives_tiny_iq() {
    // Reissue mode holds IQ entries for speculative µops; with a tiny IQ
    // and an always-confident predictor this must throttle, not deadlock.
    let mut b = ProgramBuilder::new();
    let limit = Reg::int(31);
    b.load_imm(limit, i64::MAX);
    let counter = Reg::int(30);
    let x = Reg::int(1);
    let top = b.bind_label();
    // Blocks of 64 (> fetch-ahead lag) so the hair-trigger counter does
    // reach confidence and the reissue machinery actually fires.
    b.shri(Reg::int(2), counter, 6);
    b.mul(x, Reg::int(2), Reg::int(2)); // bursty values
    b.add(Reg::int(3), Reg::int(3), x);
    b.addi(counter, counter, 1);
    b.blt(counter, limit, top);
    b.halt();
    let p = b.build().unwrap();
    let cfg = CoreConfig { iq_entries: 8, ..CoreConfig::default() }.with_vp(VpConfig {
        kind: PredictorKind::Lvp,
        scheme: vpsim_core::ConfidenceScheme::full(1),
        recovery: RecoveryPolicy::SelectiveReissue,
    });
    let r = run(cfg, &p, 0, 40_000);
    assert_eq!(r.metrics.instructions, 40_000);
    assert!(r.reissued_uops > 0);
}

#[test]
fn icache_miss_stalls_cold_fetch() {
    // A program larger than one I-line executed once: cold fetch pays
    // instruction-cache fills (visible as L1I misses).
    let mut b = ProgramBuilder::new();
    for _ in 0..4096 {
        b.addi(Reg::int(1), Reg::int(1), 1);
    }
    b.halt();
    let p = b.build().unwrap();
    let r = run(CoreConfig::default(), &p, 0, 5_000);
    assert!(r.l1i.misses > 30, "cold straight-line code must miss L1I: {}", r.l1i.misses);
}

#[test]
fn fetch_honours_a_slower_l1i_hit() {
    // Fetch tells an L1I hit from a miss by the configured hit latency.
    // Were it to assume a faster hit, every hit would read as a miss that
    // retries on a line that is already there, and nothing would commit.
    let mem = MemoryConfig {
        l1i: CacheConfig { latency: 3, ..CacheConfig::l1i() },
        ..MemoryConfig::default()
    };
    let p = parallel_loop(4, |b, r| {
        b.addi(r, r, 1);
    });
    let r = run(CoreConfig { mem, ..CoreConfig::default() }, &p, 0, 10_000);
    assert_eq!(r.metrics.instructions, 10_000);
}

#[test]
fn stall_attribution_identifies_the_bottleneck() {
    // Branch-misprediction-bound code: fetch-branch stalls dominate.
    let mut b = ProgramBuilder::new();
    let (x, limit) = (Reg::int(1), Reg::int(31));
    b.load_imm(x, 0xDEAD);
    b.load_imm(limit, i64::MAX);
    let counter = Reg::int(30);
    let top = b.bind_label();
    b.load_imm(Reg::int(2), 6364136223846793005);
    b.mul(x, x, Reg::int(2));
    b.shri(Reg::int(3), x, 62);
    let skip = b.label();
    b.beq(Reg::int(3), Reg::int(0), skip);
    b.addi(Reg::int(4), Reg::int(4), 1);
    b.bind(skip);
    b.addi(counter, counter, 1);
    b.blt(counter, limit, top);
    b.halt();
    let branchy = run(CoreConfig::default(), &b.build().unwrap(), 0, 30_000);
    assert!(
        branchy.stalls.fetch_branch_cycles > branchy.stalls.dispatch_total(),
        "branchy code must be fetch-branch bound: {:?}",
        branchy.stalls
    );

    // Window-bound code (serial DRAM chase): ROB-dispatch stalls dominate.
    let chase_loop = vpsim_workloads::microkernels::pointer_chase(1 << 16);
    let chase = run(CoreConfig::default(), &chase_loop, 0, 30_000);
    // The serial chase fills the 48-entry LQ long before the 256-entry
    // ROB: the dominant dispatch stall is the load queue.
    assert!(
        chase.stalls.dispatch_lq_cycles > chase.stalls.fetch_branch_cycles,
        "pointer chase must be window bound: {:?}",
        chase.stalls
    );
    assert!(chase.stalls.commit_idle_cycles > chase.metrics.cycles / 2);
}

#[test]
fn unconsumed_mispredictions_are_harmless() {
    // The predicted µop's value is never read by any other µop: wrong
    // predictions must be recorded as harmless and cause no squashes
    // (paper §7.2.1: recovery is unnecessary if no dependent issued).
    let mut b = ProgramBuilder::new();
    let (i, dead) = (Reg::int(1), Reg::int(3));
    let limit = Reg::int(31);
    b.load_imm(limit, i64::MAX);
    let top = b.bind_label();
    b.addi(i, i, 1);
    // `dead` is bursty (changes every 256 iterations — well beyond the
    // ~64-iteration fetch-ahead of this tight loop) and never read; `i`
    // itself is strided, so LVP never becomes confident about it.
    b.shri(dead, i, 8);
    b.blt(i, limit, top);
    b.halt();
    let p = b.build().unwrap();
    let config = CoreConfig::default().with_vp(VpConfig {
        kind: PredictorKind::Lvp,
        scheme: vpsim_core::ConfidenceScheme::full(1),
        recovery: RecoveryPolicy::SquashAtCommit,
    });
    let r = run(config, &p, 0, 60_000);
    assert!(r.vp.mispredicted > 50, "bursty values must mispredict: {}", r.vp.mispredicted);
    assert_eq!(
        r.vp.harmless_mispredictions, r.vp.mispredicted,
        "every misprediction is unconsumed, hence harmless"
    );
    assert_eq!(r.vp_squashes, 0, "harmless mispredictions must not squash");
}

#[test]
fn selective_reissue_is_transitive() {
    // A three-deep dependent chain off a predicted, glitching producer:
    // when the producer mispredicts, the whole issued chain re-executes.
    let mut b = ProgramBuilder::new();
    let (i, t, a, c, d) = (Reg::int(1), Reg::int(2), Reg::int(3), Reg::int(4), Reg::int(5));
    let limit = Reg::int(31);
    b.load_imm(limit, i64::MAX);
    let top = b.bind_label();
    b.addi(i, i, 1);
    b.shri(t, i, 6); // glitches every 64 iterations
    b.mul(a, t, t); // predicted producer
    b.addi(c, a, 1); // direct consumer
    b.addi(d, c, 1); // transitive consumer
    b.blt(i, limit, top);
    b.halt();
    let p = b.build().unwrap();
    let config = CoreConfig::default().with_vp(VpConfig {
        kind: PredictorKind::Lvp,
        scheme: vpsim_core::ConfidenceScheme::full(1),
        recovery: RecoveryPolicy::SelectiveReissue,
    });
    let r = run(config, &p, 0, 60_000);
    let consumed_wrong = r.vp.mispredicted - r.vp.harmless_mispredictions;
    assert!(consumed_wrong > 20, "consumed mispredictions expected: {consumed_wrong}");
    assert!(
        r.reissued_uops >= consumed_wrong,
        "each consumed misprediction reissues at least its direct consumer: {} < {}",
        r.reissued_uops,
        consumed_wrong
    );
    assert_eq!(r.vp_squashes, 0);
}
