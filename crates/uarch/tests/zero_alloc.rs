//! The zero-allocation invariant of the timing-model hot loop.
//!
//! After the slab-window refactor, every per-cycle structure the `Machine`
//! touches — window slab, ready bitset, poison masks, completion wheel,
//! wakeup/waiter lists, issue scratch, fetch ring — is allocated once and
//! reused, so steady-state simulation performs **zero heap allocations per
//! cycle**. This test enforces it with a counting global allocator and an
//! `Armed` instruction source that starts counting once it has handed
//! fetch a warm-up prefix (so one-time growth — wheel horizon, buffer
//! capacities, predictor in-flight queues reaching their high-water mark —
//! is excluded), exactly the "debug-assert allocation counter behind a test
//! hook" the refactor promises. Fetch runs at most the fetch queue plus the
//! ROB ahead of commit, so counting starts no later than the warm-up's last
//! commit and covers the whole measured region.
//!
//! Scope: the no-VP core is strictly zero-alloc. With a value predictor
//! attached, predictor-internal tables may still rehash, so the VP case
//! asserts a near-zero bound per committed instruction rather than zero.
//!
//! The pipeline event tap is held to the same standard: with a `NullSink`
//! the run must stay strictly zero-alloc (the tap compiles out), and with
//! a live `(StallTally, CycleLog)` sink the steady state must *still* be
//! zero-alloc — the tally is a flat struct and the cycle log a
//! preallocated ring, so no event ever touches the heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use vpsim_core::PredictorKind;
use vpsim_isa::{DynInst, Executor, InstSource, ProgramBuilder, Reg, Trace};
use vpsim_uarch::tap::{CycleLog, NullSink, StallTally};
use vpsim_uarch::{CoreConfig, RecoveryPolicy, Simulator, VpConfig};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);
/// The counting allocator and `COUNTING` flag are process-global, so the
/// tests in this binary must not overlap — a concurrent test's heap
/// traffic would be charged to whichever window is armed. Every test
/// takes this lock first (and survives a poisoned lock so one failure
/// doesn't cascade).
static SERIAL: Mutex<()> = Mutex::new(());

fn serialize_test() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// An [`InstSource`] that sets `COUNTING` when it hands fetch its
/// `warm`-th µop; the counter then stays armed to the end of the run.
struct Armed<S> {
    source: S,
    warm: u64,
    handed: u64,
}

impl<S: InstSource> Armed<S> {
    fn new(source: S, warm: u64) -> Self {
        Armed { source, warm, handed: 0 }
    }
}

impl<S: InstSource> InstSource for Armed<S> {
    fn next_inst(&mut self) -> Option<DynInst> {
        self.handed += 1;
        if self.handed == self.warm {
            COUNTING.store(true, Ordering::SeqCst);
        }
        self.source.next_inst()
    }
}

/// Disarm the counter after a run; `true` if the run armed it.
fn disarm() -> bool {
    COUNTING.swap(false, Ordering::SeqCst)
}

/// A loop with ALU chains, loads, stores and branches — every stage of the
/// pipeline is exercised, with a memory footprint that is fully touched
/// during the warm-up prefix.
fn mixed_kernel() -> vpsim_isa::Program {
    let mut b = ProgramBuilder::new();
    let (x, y, i, n, addr) = (Reg::int(1), Reg::int(5), Reg::int(2), Reg::int(3), Reg::int(4));
    b.data(0x1000, 1);
    b.load_imm(n, 1_000_000);
    b.load_imm(addr, 0x1000);
    let top = b.bind_label();
    b.load(x, addr, 0);
    b.addi(y, x, 1);
    b.store(addr, y, 0);
    b.addi(Reg::int(6), Reg::int(6), 3);
    b.addi(Reg::int(7), Reg::int(6), 1);
    b.addi(i, i, 1);
    b.blt(i, n, top);
    b.halt();
    b.build().unwrap()
}

/// A loop whose branch follows a 10-bit maximal-length LFSR (period
/// 1023), which TAGE learns, around a linear congruential generator whose
/// `mul`/`add` results are fresh pseudo-random values. VTAGE mispredicts
/// nearly every one of them, and the 1023 branch histories give each PC
/// more contexts than a tagged component holds, so it keeps allocating.
fn lfsr_lcg_kernel() -> vpsim_isa::Program {
    let mut b = ProgramBuilder::new();
    let (x, k, s, t, i, n) =
        (Reg::int(1), Reg::int(2), Reg::int(3), Reg::int(4), Reg::int(5), Reg::int(6));
    b.load_imm(x, 0xACE1);
    b.load_imm(s, 1);
    b.load_imm(n, 1_000_000);
    let top = b.bind_label();
    b.load_imm(k, 0x5851_F42D_4C95_7F2D);
    b.mul(x, x, k);
    b.load_imm(k, 0x1405_7B7E_F767_814F);
    b.add(x, x, k);
    // Feedback bit s[0] ^ s[3] (x^10 + x^7 + 1), shifted in at bit 9.
    b.shri(t, s, 3);
    b.xor(t, t, s);
    b.andi(t, t, 1);
    b.shri(s, s, 1);
    b.shli(k, t, 9);
    b.or(s, s, k);
    let skip = b.label();
    b.beq(t, Reg::int(0), skip);
    b.addi(Reg::int(7), Reg::int(7), 1);
    b.bind(skip);
    b.addi(i, i, 1);
    b.blt(i, n, top);
    b.halt();
    b.build().unwrap()
}

/// Run `config` on `program`, counting allocations only after fetch has
/// taken `warm` µops; returns allocations from there to the end of
/// `warm + measured` committed instructions.
fn allocations_in_steady_state(
    config: CoreConfig,
    program: &vpsim_isa::Program,
    warm: u64,
    measured: u64,
) -> u64 {
    let sim = Simulator::new(config);
    ALLOCATIONS.store(0, Ordering::SeqCst);
    sim.replay(Armed::new(Executor::new(program), warm), 0, warm + measured, &mut NullSink);
    assert!(disarm(), "counting must arm");
    ALLOCATIONS.load(Ordering::SeqCst)
}

#[test]
fn no_vp_steady_state_is_allocation_free() {
    let _serial = serialize_test();
    // The inline executor writes to a fixed store footprint and the
    // machine's scratch reaches its high-water mark well inside the
    // warm-up, so the measured region must allocate nothing at all.
    let allocs =
        allocations_in_steady_state(CoreConfig::default(), &mixed_kernel(), 60_000, 60_000);
    assert_eq!(allocs, 0, "no-VP steady state must not allocate ({allocs} allocations)");
}

#[test]
fn trace_replay_steady_state_is_allocation_free() {
    let _serial = serialize_test();
    // Replay is the sweep engine's hot path; it must be as clean as the
    // inline path.
    let program = mixed_kernel();
    let sim = Simulator::new(CoreConfig::default());
    let trace = Trace::capture(&program, sim.config().trace_budget(0, 120_000));
    ALLOCATIONS.store(0, Ordering::SeqCst);
    sim.replay(Armed::new(trace.cursor(), 60_000), 0, 120_000, &mut NullSink);
    assert!(disarm(), "counting must arm");
    let allocs = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(allocs, 0, "replay steady state must not allocate ({allocs} allocations)");
}

#[test]
fn disabled_tap_steady_state_is_allocation_free() {
    let _serial = serialize_test();
    // `NullSink` sets `T::ENABLED = false`, which compiles every emission
    // site out, so the disabled tap must be exactly as clean as the no-VP
    // core. This run also passes a non-zero `warmup` to `replay`, so the
    // counted region spans the switch from warm-up to the measured window:
    // opening the measured window must not allocate either.
    let program = mixed_kernel();
    let sim = Simulator::new(CoreConfig::default());
    ALLOCATIONS.store(0, Ordering::SeqCst);
    let result =
        sim.replay(Armed::new(Executor::new(&program), 30_000), 60_000, 60_000, &mut NullSink);
    assert!(disarm(), "counting must arm");
    let allocs = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(allocs, 0, "disabled tap must not allocate ({allocs} allocations)");
    assert_eq!(result.metrics.instructions, 60_000, "only the measured window is counted");
}

#[test]
fn enabled_tap_steady_state_is_allocation_free() {
    let _serial = serialize_test();
    // The enabled tap is also allocation-free per event: `StallTally` is a
    // flat accumulator and `CycleLog` overwrites its preallocated ring, so
    // a fully-instrumented no-VP run must stay at exactly zero steady-state
    // allocations — the tap's cost is arithmetic, never the heap.
    let program = mixed_kernel();
    let sim = Simulator::new(CoreConfig::default());
    let mut sink = (StallTally::default(), CycleLog::with_capacity(256));
    ALLOCATIONS.store(0, Ordering::SeqCst);
    sim.replay(Armed::new(Executor::new(&program), 60_000), 0, 120_000, &mut sink);
    assert!(disarm(), "counting must arm");
    let allocs = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(allocs, 0, "enabled tap must not allocate per event ({allocs} allocations)");
    assert!(sink.1.total_events() > 120_000, "the tap actually observed the run");
}

#[test]
fn vp_steady_state_allocations_are_bounded() {
    let _serial = serialize_test();
    // Predictor-internal structures (in-flight queues, speculative
    // windows) stabilize after warm-up; the pipeline itself contributes
    // nothing. Allow a tiny residue for predictor table management but
    // fail loudly if per-cycle allocation ever creeps back in.
    let config = CoreConfig::default()
        .with_vp(VpConfig::enabled(PredictorKind::VtageStride, RecoveryPolicy::SquashAtCommit));
    let measured = 60_000u64;
    let allocs = allocations_in_steady_state(config, &mixed_kernel(), 60_000, measured);
    assert!(
        allocs * 1000 < measured,
        "VP steady state allocates too much: {allocs} allocations / {measured} instructions"
    );
}

#[test]
fn selective_reissue_steady_state_allocations_are_bounded() {
    let _serial = serialize_test();
    // The reissue path exercises poison inheritance — formerly a Vec
    // clone per issued µop — which must now be allocation-free.
    let config = CoreConfig::default().with_vp(VpConfig::enabled(
        PredictorKind::TwoDeltaStride,
        RecoveryPolicy::SelectiveReissue,
    ));
    let measured = 60_000u64;
    let allocs = allocations_in_steady_state(config, &mixed_kernel(), 60_000, measured);
    assert!(
        allocs * 1000 < measured,
        "reissue steady state allocates too much: {allocs} allocations / {measured} instructions"
    );
}

#[test]
fn mispredicting_vtage_steady_state_is_allocation_free() {
    let _serial = serialize_test();
    // VTAGE mispredicts nearly every LCG value and allocates a
    // longer-history entry on each misprediction: that path must stay off
    // the heap under both recoveries. The warm-up spans about ten periods
    // of the kernel's branch pattern, so the window's per-slot waiter and
    // poison lists have reached their high-water marks.
    let program = lfsr_lcg_kernel();
    for recovery in [RecoveryPolicy::SquashAtCommit, RecoveryPolicy::SelectiveReissue] {
        let config =
            CoreConfig::default().with_vp(VpConfig::enabled(PredictorKind::Vtage, recovery));
        let allocs = allocations_in_steady_state(config, &program, 150_000, 60_000);
        assert_eq!(allocs, 0, "VTAGE under {recovery:?} allocated {allocs} times");
    }
}
