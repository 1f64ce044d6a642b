//! The cycle-level out-of-order core.
//!
//! A trace-driven, correct-path timing model of the paper's Table 2
//! pipeline: 8-wide fetch (2 taken branches/cycle), a 15-cycle in-order
//! front-end, rename/dispatch into a 256-entry ROB + 128-entry IQ +
//! 48/48-entry LQ/SQ, an 8-wide scheduler over the Table 2 functional-unit
//! pools with full bypass, store-set memory dependence prediction, and
//! 8-wide in-order retire.
//!
//! **Value prediction integration** (paper §4, §7.2): the predictor is
//! consulted at fetch for every µop that writes a register; a confident
//! prediction is written to the physical register before dispatch, so
//! consumers may issue immediately. Validation is implicit at execute
//! (the trace supplies the architectural result); *recovery* follows the
//! configured [`RecoveryPolicy`]: squash-at-commit flushes younger µops
//! when the mispredicted µop retires, while the idealistic selective
//! reissue reschedules transitively dependent µops the cycle the
//! misprediction is detected. In both modes, a misprediction whose value
//! was never consumed by an issued µop costs nothing (the prediction is
//! silently replaced — §7.2.1).
//!
//! **Hot-loop architecture** (see "Timing-model internals" in
//! `ARCHITECTURE.md`): in-flight µops live in a slab-backed
//! struct-of-arrays [`Window`] with a ROB-order ring. Completion is
//! event-driven through a [`CompletionWheel`] instead of a per-cycle
//! window scan; issue selection iterates a seq-ordered ready bitset fed by
//! a producer→consumer wakeup scoreboard; dispatch starts directly at the
//! front-end region; and selective-reissue poison is a bitmask per slot
//! with inverted producer lists, so inheritance is a word-wise OR and
//! validation touches exactly the poisoned consumers. All per-cycle
//! scratch buffers are machine-owned, so the steady-state loop performs
//! zero heap allocation per cycle (`crates/uarch/tests/zero_alloc.rs`).
//! Every restructure is behavior-preserving: results are byte-identical
//! to the scan-based window (`tests/golden/pipeline_results.txt`).
//!
//! **Trace-driven simplifications** (see `ARCHITECTURE.md`):
//! wrong-path instructions are not fetched; a branch misprediction instead
//! blocks fetch until the branch executes, reproducing the ≥ 20-cycle
//! penalty. Branches are resolved on data-speculative paths (§7.2), i.e.
//! with their correct outcome even if an operand was a wrong prediction —
//! the same idealization the paper applies.

use crate::config::{CoreConfig, RecoveryPolicy};
use crate::result::{diff_cache, RunResult, StallBreakdown};
use crate::sampling::{Checkpoint, SampleConfig, SamplePlan, SampledResult, Warmer};
use crate::storesets::StoreSets;
use crate::tap::{
    CycleCause, NullSink, Occupancy, PipeEvent, PipeEventKind, PipeEventSink, SquashCause,
};
use crate::window::{flag, CompletionWheel, Event, FetchB2b, Stage, Waiter, Window, UNSCHEDULED};
use std::collections::VecDeque;
use vpsim_branch::{Btb, Ras, RasCheckpoint, Tage};
use vpsim_core::{HistoryState, PredictCtx, Predictor};
use vpsim_isa::{DynInst, Executor, FuClass, InstSource, Opcode, Program, RegClass, Trace};
use vpsim_mem::MemoryHierarchy;
use vpsim_stats::{BackToBackStats, BranchStats, RunMetrics, VpStats};

/// Fetch-queue capacity (µops buffered between fetch and dispatch).
/// Referenced by [`CoreConfig::trace_budget`]: together with the ROB size
/// it bounds how far fetch can run ahead of commit, and therefore how many
/// µops a captured trace must cover to replay byte-identically.
pub(crate) const FETCH_QUEUE: usize = 128;
/// Cycles without a commit after which the simulator declares a deadlock
/// (a model bug, not a workload property).
const DEADLOCK_LIMIT: u64 = 1_000_000;
/// Initial completion-wheel horizon; the wheel grows on demand when a
/// memory access schedules further out.
const WHEEL_HORIZON: usize = 1024;

/// Retire-stage counters, diffed against a warm-up snapshot to produce a
/// [`RunResult`]. All fields are plain integers, so the snapshot is a
/// `Copy` assignment and measurement is a field-wise [`Counters::delta`] —
/// no per-interval clone.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    committed: u64,
    eligible: u64,
    hits: u64,
    used: u64,
    correct_used: u64,
    mispredicted: u64,
    correct_unused: u64,
    harmless: u64,
    cond_branches: u64,
    dir_mispred: u64,
    target_mispred: u64,
    uncond: u64,
    b2b_eligible: u64,
    b2b: u64,
    vp_squashes: u64,
    violations: u64,
    reissued: u64,
    stalls: StallBreakdown,
}

impl Counters {
    /// Field-wise difference against an earlier snapshot of the same
    /// accumulator.
    fn delta(&self, s: &Counters) -> Counters {
        Counters {
            committed: self.committed - s.committed,
            eligible: self.eligible - s.eligible,
            hits: self.hits - s.hits,
            used: self.used - s.used,
            correct_used: self.correct_used - s.correct_used,
            mispredicted: self.mispredicted - s.mispredicted,
            correct_unused: self.correct_unused - s.correct_unused,
            harmless: self.harmless - s.harmless,
            cond_branches: self.cond_branches - s.cond_branches,
            dir_mispred: self.dir_mispred - s.dir_mispred,
            target_mispred: self.target_mispred - s.target_mispred,
            uncond: self.uncond - s.uncond,
            b2b_eligible: self.b2b_eligible - s.b2b_eligible,
            b2b: self.b2b - s.b2b,
            vp_squashes: self.vp_squashes - s.vp_squashes,
            violations: self.violations - s.violations,
            reissued: self.reissued - s.reissued,
            stalls: self.stalls.diff(&s.stalls),
        }
    }
}

/// Render a schedule cycle for diagnostics (`-` = not yet scheduled).
fn fmt_cycle(c: u64) -> String {
    if c == UNSCHEDULED {
        "-".into()
    } else {
        c.to_string()
    }
}

#[derive(Debug, Clone)]
struct FuPools {
    alu: Vec<u64>,
    muldiv: Vec<u64>,
    fp: Vec<u64>,
    fpmuldiv: Vec<u64>,
}

impl FuPools {
    fn new(cfg: &CoreConfig) -> Self {
        FuPools {
            alu: vec![0; cfg.fu.alu_units],
            muldiv: vec![0; cfg.fu.muldiv_units],
            fp: vec![0; cfg.fu.fp_units],
            fpmuldiv: vec![0; cfg.fu.fpmuldiv_units],
        }
    }

    fn pool(&mut self, class: FuClass) -> Option<&mut Vec<u64>> {
        match class {
            FuClass::IntAlu => Some(&mut self.alu),
            FuClass::IntMulDiv => Some(&mut self.muldiv),
            FuClass::FpAlu => Some(&mut self.fp),
            FuClass::FpMulDiv => Some(&mut self.fpmuldiv),
            FuClass::Load | FuClass::Store => None, // ports counted separately
        }
    }

    /// Try to claim a unit of `class` at `now`, occupying it until
    /// `busy_until`. Returns false if all units are busy.
    fn claim(&mut self, class: FuClass, now: u64, busy_until: u64) -> bool {
        match self.pool(class) {
            None => true,
            Some(units) => match units.iter_mut().find(|b| **b <= now) {
                Some(b) => {
                    *b = busy_until;
                    true
                }
                None => false,
            },
        }
    }
}

/// One issue-select decision, applied after the selection scan (two-phase
/// issue, as in the original scan-based scheduler). `spec_start..spec_start
/// + spec_len` indexes the machine-owned speculative-producer scratch.
#[derive(Debug, Clone, Copy)]
struct Pick {
    idx: u32,
    complete_at: u64,
    spec_start: u32,
    spec_len: u32,
}

/// The simulator: construct once from a [`CoreConfig`], then run programs.
///
/// # Examples
///
/// ```
/// use vpsim_uarch::{CoreConfig, Simulator};
/// use vpsim_isa::{ProgramBuilder, Reg};
///
/// let mut b = ProgramBuilder::new();
/// let (i, n) = (Reg::int(1), Reg::int(2));
/// b.load_imm(n, 1000);
/// let top = b.bind_label();
/// b.addi(i, i, 1);
/// b.blt(i, n, top);
/// b.halt();
/// let program = b.build()?;
///
/// let result = Simulator::new(CoreConfig::default()).run(&program, 100_000);
/// assert!(result.metrics.ipc() > 0.5);
/// # Ok::<(), vpsim_isa::ProgramError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    config: CoreConfig,
}

impl Simulator {
    /// Create a simulator for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: CoreConfig) -> Self {
        config.validate();
        Simulator { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Run `program` until `max_instructions` commit (or the program ends).
    pub fn run(&self, program: &Program, max_instructions: u64) -> RunResult {
        self.run_with_warmup(program, 0, max_instructions)
    }

    /// Run with a warm-up: simulate `warmup` committed instructions with
    /// statistics discarded, then measure the next `measure` instructions.
    ///
    /// This is the streaming path: the functional [`Executor`] runs inline,
    /// one µop ahead of fetch. [`Simulator::run_trace`] produces the same
    /// result from a pre-captured trace without re-executing.
    pub fn run_with_warmup(&self, program: &Program, warmup: u64, measure: u64) -> RunResult {
        self.run_source(Executor::new(program), warmup, measure)
    }

    /// Replay a captured [`Trace`] instead of executing inline. The result
    /// is byte-identical to [`Simulator::run_with_warmup`] on the same
    /// program provided the trace covers at least
    /// [`CoreConfig::trace_budget`]`(warmup, measure)` µops (or the whole
    /// program, if it is shorter).
    ///
    /// # Examples
    ///
    /// ```
    /// use vpsim_uarch::{CoreConfig, Simulator};
    /// use vpsim_isa::{ProgramBuilder, Reg, Trace};
    ///
    /// let mut b = ProgramBuilder::new();
    /// let (i, n) = (Reg::int(1), Reg::int(2));
    /// b.load_imm(n, 1000);
    /// let top = b.bind_label();
    /// b.addi(i, i, 1);
    /// b.blt(i, n, top);
    /// b.halt();
    /// let program = b.build()?;
    ///
    /// let sim = Simulator::new(CoreConfig::default());
    /// let trace = Trace::capture(&program, sim.config().trace_budget(0, 2_000));
    /// assert_eq!(sim.run_trace(&trace, 0, 2_000), sim.run(&program, 2_000));
    /// # Ok::<(), vpsim_isa::ProgramError>(())
    /// ```
    pub fn run_trace(&self, trace: &Trace, warmup: u64, measure: u64) -> RunResult {
        self.run_source(trace.cursor(), warmup, measure)
    }

    /// Drive the core from any [`InstSource`] — the generic face behind
    /// [`Simulator::run_with_warmup`] (streaming executor) and
    /// [`Simulator::run_trace`] (trace replay).
    pub fn run_source<S: InstSource>(&self, source: S, warmup: u64, measure: u64) -> RunResult {
        self.run_source_with_sink(source, warmup, measure, &mut NullSink)
    }

    /// Like [`Simulator::run_source`], but streams typed pipeline events
    /// into `sink` (see [`crate::tap`]). The simulated machine is
    /// unaffected: the returned [`RunResult`] is byte-identical to the
    /// sink-free entry points (`tests/tap_equivalence.rs` proves this for
    /// arbitrary scenarios).
    ///
    /// # Examples
    ///
    /// ```
    /// use vpsim_uarch::tap::{check_conservation, StallTally};
    /// use vpsim_uarch::{CoreConfig, Simulator};
    /// use vpsim_isa::{Executor, ProgramBuilder, Reg};
    ///
    /// let mut b = ProgramBuilder::new();
    /// let (i, n) = (Reg::int(1), Reg::int(2));
    /// b.load_imm(n, 500);
    /// let top = b.bind_label();
    /// b.addi(i, i, 1);
    /// b.blt(i, n, top);
    /// b.halt();
    /// let program = b.build()?;
    ///
    /// let sim = Simulator::new(CoreConfig::default());
    /// let mut tally = StallTally::default();
    /// let result = sim.run_source_with_sink(Executor::new(&program), 0, 1_000, &mut tally);
    /// let report = tally.measured();
    /// assert_eq!(report.total_cycles(), result.metrics.cycles);
    /// check_conservation(&result, &report).unwrap();
    /// # Ok::<(), vpsim_isa::ProgramError>(())
    /// ```
    pub fn run_source_with_sink<S: InstSource, T: PipeEventSink>(
        &self,
        source: S,
        warmup: u64,
        measure: u64,
        sink: &mut T,
    ) -> RunResult {
        let mut machine = Machine::new(&self.config, source, sink);
        machine.simulate(warmup, measure)
    }

    /// [`Simulator::run_trace`] with an event sink: replay a captured
    /// trace while streaming pipeline events into `sink`.
    pub fn run_trace_with_sink<T: PipeEventSink>(
        &self,
        trace: &Trace,
        warmup: u64,
        measure: u64,
        sink: &mut T,
    ) -> RunResult {
        self.run_source_with_sink(trace.cursor(), warmup, measure, sink)
    }

    /// Test-only instrumentation hook: identical to
    /// [`Simulator::run_source`], but invokes `mark` once, the first time
    /// the committed-instruction count reaches `mark_at`. The
    /// zero-allocation regression test uses this to start counting heap
    /// allocations only after the machine reaches steady state.
    #[doc(hidden)]
    pub fn run_source_marked<S: InstSource>(
        &self,
        source: S,
        warmup: u64,
        measure: u64,
        mark_at: u64,
        mark: &mut dyn FnMut(),
    ) -> RunResult {
        self.run_source_marked_with_sink(source, warmup, measure, mark_at, mark, &mut NullSink)
    }

    /// [`Simulator::run_source_marked`] with an event sink — lets the
    /// zero-allocation test prove the *enabled* tap path also stays
    /// allocation-free in steady state.
    #[doc(hidden)]
    pub fn run_source_marked_with_sink<S: InstSource, T: PipeEventSink>(
        &self,
        source: S,
        warmup: u64,
        measure: u64,
        mark_at: u64,
        mark: &mut dyn FnMut(),
        sink: &mut T,
    ) -> RunResult {
        let mut machine = Machine::new(&self.config, source, sink);
        machine.simulate_marked(warmup, measure, mark_at, mark)
    }

    /// Sampled replay (see [`crate::sampling`]): run the detailed timing
    /// model only inside [`SampleConfig`]-selected intervals of the
    /// measured region, fast-forwarding between them with the functional
    /// warmer. Returns one [`RunResult`] per replayed interval; combine
    /// with [`SampledResult::combined`] or feed
    /// [`SampledResult::interval_ipcs`] to the `vpsim-stats` estimator.
    ///
    /// Every interval goes through a serialized [`Checkpoint`] and
    /// [`Trace::cursor_resume`] — the exact path a persisted checkpoint
    /// replays through later — so there is no untested fast path.
    ///
    /// The trace may end before late intervals of a short workload; those
    /// intervals are skipped (reflected in
    /// [`SampledResult::intervals_replayed`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use vpsim_uarch::{CoreConfig, SampleConfig, Simulator};
    /// use vpsim_isa::{ProgramBuilder, Reg, Trace};
    ///
    /// let mut b = ProgramBuilder::new();
    /// let (i, n) = (Reg::int(1), Reg::int(2));
    /// b.load_imm(n, 60_000);
    /// let top = b.bind_label();
    /// b.addi(i, i, 1);
    /// b.blt(i, n, top);
    /// b.halt();
    /// let program = b.build()?;
    ///
    /// let sim = Simulator::new(CoreConfig::default());
    /// let trace = Trace::capture(&program, sim.config().trace_budget(0, 100_000));
    /// let sample = SampleConfig { intervals: 4, period: 5_000, warmup: 1_000 };
    /// let sampled = sim.run_sampled(&trace, 0, 100_000, sample);
    /// assert_eq!(sampled.intervals_replayed(), 4);
    /// let full = sim.run_trace(&trace, 0, 100_000);
    /// let est = sampled.combined().metrics.ipc();
    /// assert!((est - full.metrics.ipc()).abs() / full.metrics.ipc() < 0.05);
    /// # Ok::<(), vpsim_isa::ProgramError>(())
    /// ```
    pub fn run_sampled(
        &self,
        trace: &Trace,
        warmup: u64,
        measure: u64,
        sample: SampleConfig,
    ) -> SampledResult {
        let plan = SamplePlan::new(warmup, measure, sample, self.config.seed);
        let mut per_interval = Vec::new();
        let mut detailed_uops = 0;
        let ff_uops = self.fast_forward(trace, &plan, |cp| {
            let res = self
                .run_interval_from(trace, &cp, plan.measure_per_interval)
                .expect("an in-memory checkpoint matches its own trace and config");
            per_interval.push(res);
            detailed_uops += cp.detailed_warmup() + plan.measure_per_interval;
        });
        SampledResult { per_interval, ff_uops, detailed_uops }
    }

    /// Produce the serialized-state [`Checkpoint`]s [`Simulator::run_sampled`]
    /// would replay from, without running any detailed interval — one
    /// fast-forward pass over the trace. Persist them (via
    /// [`Checkpoint::to_bytes`]) and any selected interval replays later in
    /// O(1) seek time with [`Simulator::run_interval_from`].
    pub fn sample_checkpoints(
        &self,
        trace: &Trace,
        warmup: u64,
        measure: u64,
        sample: SampleConfig,
    ) -> Vec<Checkpoint> {
        let plan = SamplePlan::new(warmup, measure, sample, self.config.seed);
        let mut checkpoints = Vec::new();
        self.fast_forward(trace, &plan, |cp| checkpoints.push(cp));
        checkpoints
    }

    /// The functional fast-forward pass behind [`Simulator::run_sampled`]
    /// and [`Simulator::sample_checkpoints`]: warm the front-end
    /// structures along the trace and hand `at_checkpoint` each selected
    /// interval's [`Checkpoint`] as the pass reaches it, so a caller that
    /// consumes them holds one at a time. Intervals past the end of the
    /// trace are skipped. Returns the µops fast-forwarded.
    fn fast_forward(
        &self,
        trace: &Trace,
        plan: &SamplePlan,
        mut at_checkpoint: impl FnMut(Checkpoint),
    ) -> u64 {
        let mut warmer = Warmer::new(&self.config);
        let mut cursor = trace.cursor();
        for (start, dwarm) in plan.detailed_starts() {
            while (cursor.pos() as u64) < start {
                match cursor.next() {
                    Some(di) => warmer.warm_uop(&di),
                    None => break,
                }
            }
            if (cursor.pos() as u64) < start {
                break; // Trace exhausted before this interval: skip the rest.
            }
            let (pos, payload_pos) = (cursor.pos() as u64, cursor.payload_pos() as u64);
            at_checkpoint(Checkpoint::capture(&warmer, pos, payload_pos, dwarm));
        }
        warmer.ff_uops
    }

    /// Replay one detailed interval of `measure` committed µops from a
    /// [`Checkpoint`]: seek the trace to the checkpointed coordinates in
    /// O(1), restore the warm front-end structures, simulate the
    /// checkpoint's detailed warmup with statistics discarded, then
    /// measure.
    ///
    /// Fails (never panics) when the checkpoint's geometry does not match
    /// this simulator's configuration, or its trace coordinates are out of
    /// range for `trace` (see [`Trace::cursor_resume`]). Trace *identity*
    /// is not checked: a checkpoint taken on another trace whose
    /// coordinates happen to be in range replays a meaningless interval
    /// (one that may end early) and returns `Ok`.
    pub fn run_interval_from(
        &self,
        trace: &Trace,
        checkpoint: &Checkpoint,
        measure: u64,
    ) -> Result<RunResult, String> {
        let cursor = trace
            .cursor_resume(checkpoint.pos() as usize, checkpoint.payload_pos() as usize)
            .map_err(|e| e.to_string())?;
        let warm = checkpoint.restore(&self.config)?;
        let mut sink = NullSink;
        let mut machine = Machine::new(&self.config, cursor, &mut sink);
        machine.tage = warm.tage;
        machine.btb = warm.btb;
        machine.ras = warm.ras;
        machine.mem = warm.mem;
        machine.fetch_hist = warm.hist;
        Ok(machine.simulate(checkpoint.detailed_warmup(), measure))
    }
}

struct Machine<'a, S, T: PipeEventSink> {
    cfg: &'a CoreConfig,
    /// Event tap ([`crate::tap`]). `T::ENABLED` guards every emission at
    /// compile time, so a [`NullSink`] machine carries no tap code at all.
    sink: &'a mut T,
    /// Youngest seq ever squashed: front-end µops at or below this mark
    /// are squash-recovery refetches for stall attribution. Maintained
    /// only when the tap is enabled.
    squash_hwm: Option<u64>,
    source: S,
    source_done: bool,
    refetch: VecDeque<DynInst>,
    w: Window,
    wheel: CompletionWheel,
    b2b: FetchB2b,
    mem: MemoryHierarchy,
    tage: Tage,
    btb: Btb,
    ras: Ras,
    predictor: Option<Box<dyn Predictor>>,
    recovery: RecoveryPolicy,
    store_sets: StoreSets,
    fetch_hist: HistoryState,
    rename: [Option<u64>; vpsim_isa::NUM_ARCH_REGS],
    now: u64,
    fetch_blocked_on: Option<u64>,
    fetch_resume_at: u64,
    fe_count: usize,
    rob_used: usize,
    iq_used: usize,
    lq_used: usize,
    sq_used: usize,
    int_prf_used: usize,
    fp_prf_used: usize,
    fu: FuPools,
    counters: Counters,
    last_commit_cycle: u64,
    /// Commit-count ceiling: the retire stage stops mid-group here so a
    /// measurement of N instructions is exactly N.
    stop_at: u64,
    // ----- machine-owned per-cycle scratch (zero-alloc steady state) -----
    /// Issue candidates collected from the ready bitset, age order.
    ready_scratch: Vec<u32>,
    /// Issue-select decisions, applied after the selection scan.
    picks: Vec<Pick>,
    /// Flattened speculative-producer seqs referenced by [`Pick`]s.
    spec_buf: Vec<u64>,
    /// Waiter drain buffer for writeback wakeups.
    wake_scratch: Vec<Waiter>,
}

impl<'a, S: InstSource, T: PipeEventSink> Machine<'a, S, T> {
    fn new(cfg: &'a CoreConfig, source: S, sink: &'a mut T) -> Self {
        let (predictor, recovery) = match &cfg.vp {
            Some(vp) => (Some(vp.kind.build(vp.scheme.clone(), cfg.seed)), vp.recovery),
            None => (None, RecoveryPolicy::SquashAtCommit),
        };
        Machine {
            cfg,
            sink,
            squash_hwm: None,
            source,
            source_done: false,
            refetch: VecDeque::new(),
            w: Window::new(FETCH_QUEUE + cfg.rob_entries),
            wheel: CompletionWheel::new(WHEEL_HORIZON),
            b2b: FetchB2b::new(),
            mem: MemoryHierarchy::new(cfg.mem.clone()),
            tage: Tage::with_defaults(cfg.seed ^ 0xB4A9C),
            btb: Btb::with_defaults(),
            ras: Ras::with_defaults(),
            predictor,
            recovery,
            store_sets: StoreSets::new(cfg.store_set_entries),
            fetch_hist: HistoryState::default(),
            rename: [None; vpsim_isa::NUM_ARCH_REGS],
            now: 0,
            fetch_blocked_on: None,
            fetch_resume_at: 0,
            fe_count: 0,
            rob_used: 0,
            iq_used: 0,
            lq_used: 0,
            sq_used: 0,
            int_prf_used: 0,
            fp_prf_used: 0,
            fu: FuPools::new(cfg),
            counters: Counters::default(),
            last_commit_cycle: 0,
            stop_at: u64::MAX,
            ready_scratch: Vec::with_capacity(cfg.issue_width.max(16)),
            picks: Vec::with_capacity(cfg.issue_width),
            spec_buf: Vec::with_capacity(2 * cfg.issue_width),
            wake_scratch: Vec::new(),
        }
    }

    fn simulate(&mut self, warmup: u64, measure: u64) -> RunResult {
        self.simulate_marked(warmup, measure, u64::MAX, &mut || ())
    }

    fn simulate_marked(
        &mut self,
        warmup: u64,
        measure: u64,
        mark_at: u64,
        mark: &mut dyn FnMut(),
    ) -> RunResult {
        let target = warmup.saturating_add(measure);
        // Retire pauses exactly at the warm-up boundary so the measurement
        // window is precisely `measure` instructions.
        self.stop_at = if warmup > 0 { warmup } else { target };
        let mut snapshot = self.counters;
        let mut snap_cycle = 0u64;
        let mut snap_caches = (self.mem.l1i_stats, self.mem.l1d_stats, self.mem.l2_stats);
        let mut snapped = warmup == 0;
        let mut marked = false;

        while self.counters.committed < target {
            if self.w.is_empty() && self.refetch.is_empty() && self.source_done {
                break;
            }
            self.idle_skip();
            let committed_before = self.counters.committed;
            self.commit();
            let idle = self.counters.committed == committed_before;
            if idle {
                self.counters.stalls.commit_idle_cycles += 1;
            }
            // Attribute the cycle at commit-time machine state; the record
            // itself is emitted just before `now` advances so Cycle events
            // pair 1:1 with clock movement (the conservation invariant).
            let cycle_cause =
                if T::ENABLED && idle { self.stall_cause() } else { CycleCause::Active };
            if !marked && self.counters.committed >= mark_at {
                mark();
                marked = true;
            }
            if !snapped && self.counters.committed >= warmup {
                snapshot = self.counters;
                snap_cycle = self.now;
                snap_caches = (self.mem.l1i_stats, self.mem.l1d_stats, self.mem.l2_stats);
                snapped = true;
                self.stop_at = target;
                self.emit(0, PipeEventKind::MeasureStart);
            }
            if self.counters.committed >= target {
                break;
            }
            self.complete();
            self.issue();
            self.dispatch();
            self.fetch();
            if T::ENABLED {
                let occ = self.occupancy();
                self.emit(0, PipeEventKind::Cycle { cause: cycle_cause, span: 1, occ });
            }
            self.now += 1;
            if self.now - self.last_commit_cycle >= DEADLOCK_LIMIT {
                panic!("{}", self.deadlock_report());
            }
        }

        let d = self.counters.delta(&snapshot);
        RunResult {
            metrics: RunMetrics {
                cycles: self.now.saturating_sub(snap_cycle),
                instructions: d.committed,
            },
            vp: VpStats {
                eligible: d.eligible,
                hits: d.hits,
                used: d.used,
                correct_used: d.correct_used,
                mispredicted: d.mispredicted,
                correct_unused: d.correct_unused,
                harmless_mispredictions: d.harmless,
            },
            branch: BranchStats {
                conditional: d.cond_branches,
                direction_mispredictions: d.dir_mispred,
                target_mispredictions: d.target_mispred,
                unconditional: d.uncond,
            },
            l1i: diff_cache(&self.mem.l1i_stats, &snap_caches.0),
            l1d: diff_cache(&self.mem.l1d_stats, &snap_caches.1),
            l2: diff_cache(&self.mem.l2_stats, &snap_caches.2),
            back_to_back: BackToBackStats { eligible: d.b2b_eligible, back_to_back: d.b2b },
            vp_squashes: d.vp_squashes,
            reissued_uops: d.reissued,
            memory_order_violations: d.violations,
            stalls: d.stalls,
        }
    }

    /// Diagnostic for the [`DEADLOCK_LIMIT`] panic: a deadlock is a model
    /// bug, so the message must carry enough machine state to localize it
    /// from a CI log alone — the stuck cycle, the ROB head (the µop whose
    /// non-retirement wedges everything), every queue occupancy and the
    /// window slab's free-list state.
    /// When the attached sink retains history (a [`crate::tap::CycleLog`]),
    /// the report additionally dumps the most recent cycle records, so the
    /// panic shows *how* the machine wedged, not just its final state.
    fn deadlock_report(&self) -> String {
        let head = match self.w.front() {
            Some(idx) => {
                let i = idx as usize;
                format!(
                    "seq {} pc {:#x} {:?} in {:?} (dispatched@{} issued@{} complete@{})",
                    self.w.di[i].seq,
                    self.w.di[i].pc,
                    self.w.di[i].inst.op,
                    self.w.state[i],
                    fmt_cycle(self.w.dispatched_at[i]),
                    fmt_cycle(self.w.issued_at[i]),
                    fmt_cycle(self.w.complete_at[i]),
                )
            }
            None => "none (window empty)".into(),
        };
        let mut report = format!(
            "pipeline deadlock: no commit for {DEADLOCK_LIMIT} cycles at cycle {} \
             (committed {}, last commit at cycle {}); ROB head: {head}; \
             occupancy: rob {}/{}, iq {}/{}, lq {}/{}, sq {}/{}, fetch-queue {}/{FETCH_QUEUE}, \
             window slab {}/{} (free {}), refetch {}; fetch blocked on {:?}",
            self.now,
            self.counters.committed,
            self.last_commit_cycle,
            self.rob_used,
            self.cfg.rob_entries,
            self.iq_used,
            self.cfg.iq_entries,
            self.lq_used,
            self.cfg.lq_entries,
            self.sq_used,
            self.cfg.sq_entries,
            self.fe_count,
            self.w.len(),
            self.w.capacity(),
            self.w.free_slots(),
            self.refetch.len(),
            self.fetch_blocked_on,
        );
        if let Some(tail) = self.sink.deadlock_tail() {
            report.push('\n');
            report.push_str(&tail);
        }
        report
    }

    // ----- event tap -----

    /// Emit one tap event stamped with the current cycle. With the default
    /// [`NullSink`] (`T::ENABLED == false`) the guard is a compile-time
    /// constant and the whole call folds away.
    #[inline(always)]
    fn emit(&mut self, seq: u64, kind: PipeEventKind) {
        if T::ENABLED {
            self.sink.event(PipeEvent { cycle: self.now, seq, kind });
        }
    }

    /// Structure occupancies for a per-cycle attribution record.
    fn occupancy(&self) -> Occupancy {
        Occupancy {
            rob: self.rob_used as u32,
            iq: self.iq_used as u32,
            lq: self.lq_used as u32,
            sq: self.sq_used as u32,
            fetch_queue: self.fe_count as u32,
        }
    }

    /// Exclusive stall attribution for a cycle in which nothing retired,
    /// decided by the state of the oldest in-flight µop — the one whose
    /// non-retirement bounds everything younger (same head-first logic as
    /// [`Machine::idle_skip`], which is why a batched span has a constant
    /// cause):
    ///
    /// * head completed → retire-port pressure ([`CycleCause::CommitBlock`]);
    /// * head waiting/issued → execution latency: memory µops are
    ///   [`CycleCause::MemWait`], the rest [`CycleCause::IssueWait`];
    /// * head still in the front-end → [`CycleCause::SquashRecovery`] when
    ///   it is a post-squash refetch, otherwise
    ///   [`CycleCause::DispatchBlock`] if it already left decode (a
    ///   structural resource is full) or [`CycleCause::FetchStarve`];
    /// * empty window → the front end is the bottleneck: squash refill
    ///   ([`CycleCause::SquashRecovery`]) or plain fetch starvation.
    fn stall_cause(&self) -> CycleCause {
        match self.w.head_info() {
            Some(h) => match h.stage {
                Stage::Completed => CycleCause::CommitBlock,
                Stage::Waiting | Stage::Issued => match h.fu {
                    FuClass::Load | FuClass::Store => CycleCause::MemWait,
                    _ => CycleCause::IssueWait,
                },
                Stage::FrontEnd => {
                    if self.in_recovery(h.seq) {
                        CycleCause::SquashRecovery
                    } else if h.fe_exit <= self.now {
                        CycleCause::DispatchBlock
                    } else {
                        CycleCause::FetchStarve
                    }
                }
            },
            None => match self.refetch.front() {
                Some(di) if self.in_recovery(di.seq) => CycleCause::SquashRecovery,
                _ => CycleCause::FetchStarve,
            },
        }
    }

    /// `true` when `seq` is at or below the squash high-water mark, i.e.
    /// the µop is being re-fetched because a squash discarded it.
    fn in_recovery(&self, seq: u64) -> bool {
        self.squash_hwm.is_some_and(|hwm| seq <= hwm)
    }

    // ----- idle fast-forward -----

    /// Jump the clock across provably-dead cycles.
    ///
    /// A cycle does work only if some stage can make progress: commit needs
    /// a completed ROB head, complete/issue need a due wheel event or a
    /// ready µop, dispatch needs an arrived front-end µop plus free
    /// resources, and fetch needs to be unblocked. When every stage is
    /// blocked, the earliest cycle anything changes is bounded by the next
    /// completion-wheel event (all wakeups — completions, fills, branch
    /// resolutions — ride on it), the head front-end µop's decode exit, or
    /// a fetch redirect's resume cycle. Skip straight there, batching the
    /// per-cycle stall counters the skipped cycles would have incremented,
    /// so every counter stays byte-identical to cycle-by-cycle execution.
    fn idle_skip(&mut self) {
        // Commit is blocked only when a non-completed head wedges the ROB;
        // an empty window means fetch still has work, so fall through.
        match self.w.front() {
            Some(front) if self.w.state[front as usize] != Stage::Completed => {}
            _ => return,
        }
        // Issue: nothing is ready now, and nothing becomes ready except
        // through a wheel event (producer completion, fill, resolution).
        if !self.w.ready_is_empty() {
            return;
        }
        // The deadlock check fires after cycle `last_commit + LIMIT - 1`;
        // never skip past it so the panic reports the same cycle.
        let mut wake = self.last_commit_cycle + DEADLOCK_LIMIT - 1;
        type Counter = fn(&mut StallBreakdown) -> &mut u64;
        // Dispatch: blocked because the fetch queue is empty, the head
        // front-end µop has not left decode yet, or its first structural
        // resource is exhausted (same attribution order as `dispatch`).
        let mut dispatch_counter: Option<Counter> = None;
        if self.fe_count > 0 {
            let i = self.w.at(self.w.len() - self.fe_count) as usize;
            if self.w.fe_exit[i] > self.now {
                wake = wake.min(self.w.fe_exit[i]);
            } else if self.rob_used >= self.cfg.rob_entries {
                dispatch_counter = Some(|s| &mut s.dispatch_rob_cycles);
            } else if self.iq_used >= self.cfg.iq_entries {
                dispatch_counter = Some(|s| &mut s.dispatch_iq_cycles);
            } else {
                let op = self.w.di[i].inst.op;
                if op == Opcode::Load && self.lq_used >= self.cfg.lq_entries {
                    dispatch_counter = Some(|s| &mut s.dispatch_lq_cycles);
                } else if op == Opcode::Store && self.sq_used >= self.cfg.sq_entries {
                    dispatch_counter = Some(|s| &mut s.dispatch_sq_cycles);
                } else {
                    match self.w.di[i].inst.dst.map(|d| d.class()) {
                        Some(RegClass::Int) if 32 + self.int_prf_used >= self.cfg.int_prf => {
                            dispatch_counter = Some(|s| &mut s.dispatch_prf_cycles);
                        }
                        Some(RegClass::Float) if 32 + self.fp_prf_used >= self.cfg.fp_prf => {
                            dispatch_counter = Some(|s| &mut s.dispatch_prf_cycles);
                        }
                        _ => return, // dispatch would make progress
                    }
                }
            }
        }
        // Fetch: same priority order as `fetch`. An unblocked front end
        // with trace input left means the cycle is live.
        let mut fetch_counter: Option<Counter> = None;
        if self.fetch_blocked_on.is_some() {
            fetch_counter = Some(|s| &mut s.fetch_branch_cycles);
        } else if self.now < self.fetch_resume_at {
            fetch_counter = Some(|s| &mut s.fetch_redirect_cycles);
            wake = wake.min(self.fetch_resume_at);
        } else if self.fe_count >= FETCH_QUEUE {
            fetch_counter = Some(|s| &mut s.fetch_queue_full_cycles);
        } else if !(self.source_done && self.refetch.is_empty()) {
            return; // fetch would make progress
        }
        if let Some(due) = self.wheel.next_due_at_or_after(self.now) {
            wake = wake.min(due);
        }
        if wake <= self.now {
            return;
        }
        let skipped = wake - self.now;
        self.counters.stalls.commit_idle_cycles += skipped;
        if let Some(c) = dispatch_counter {
            *c(&mut self.counters.stalls) += skipped;
        }
        if let Some(c) = fetch_counter {
            *c(&mut self.counters.stalls) += skipped;
        }
        if T::ENABLED {
            // One batched attribution record for the whole span: no state
            // changes across skipped cycles, so the cause and occupancy a
            // cycle-by-cycle run would record are constant.
            let cause = self.stall_cause();
            let occ = self.occupancy();
            self.emit(0, PipeEventKind::Cycle { cause, span: skipped, occ });
        }
        self.now = wake;
    }

    // ----- commit stage -----

    fn commit(&mut self) {
        for slot in 0..self.cfg.retire_width {
            if self.counters.committed >= self.stop_at {
                break;
            }
            let Some(front) = self.w.front() else { break };
            if self.w.state[front as usize] != Stage::Completed {
                break;
            }
            let idx = self.w.pop_front();
            let i = idx as usize;
            let seq = self.w.di[i].seq;
            self.last_commit_cycle = self.now;
            self.rob_used -= 1;
            if self.w.flag(idx, flag::IQ_HELD) {
                self.iq_used -= 1;
            }
            if self.w.flag(idx, flag::LQ_HELD) {
                self.lq_used -= 1;
            }
            if self.w.flag(idx, flag::SQ_HELD) {
                self.sq_used -= 1;
            }
            match self.w.prf_class[i] {
                Some(RegClass::Int) => self.int_prf_used -= 1,
                Some(RegClass::Float) => self.fp_prf_used -= 1,
                None => {}
            }
            // Only this µop's destination can map to it (set at dispatch),
            // so the rename release is a single-slot check, not a scan.
            if let Some(d) = self.w.di[i].inst.dst {
                if self.rename[d.index()] == Some(seq) {
                    self.rename[d.index()] = None;
                }
            }
            // Commit-time cache state update for stores.
            if self.w.di[i].inst.op == Opcode::Store {
                let addr = self.w.di[i].mem_addr.expect("store has an address");
                self.mem.store(self.w.di[i].pc, addr, self.now);
            }
            // Train the value predictor (in order, every eligible µop).
            if self.w.flag(idx, flag::ELIGIBLE) {
                if let Some(p) = self.predictor.as_mut() {
                    p.train(seq, self.w.di[i].result.expect("eligible µop has a result"));
                }
                self.counters.eligible += 1;
                if self.w.flag(idx, flag::PRED_HIT) {
                    self.counters.hits += 1;
                }
                if self.w.predicted[i].is_some() {
                    self.counters.used += 1;
                    if self.w.flag(idx, flag::PRED_WRONG) {
                        self.counters.mispredicted += 1;
                        if !self.w.flag(idx, flag::PRED_CONSUMER_ISSUED) {
                            self.counters.harmless += 1;
                        }
                    } else {
                        self.counters.correct_used += 1;
                    }
                } else if self.w.flag(idx, flag::PRED_CORRECT_UNUSED) {
                    self.counters.correct_unused += 1;
                }
            }
            // Train the branch predictors.
            let op = self.w.di[i].inst.op;
            if op.is_cond_branch() {
                self.tage.train(seq, self.w.di[i].taken);
                self.counters.cond_branches += 1;
                if self.w.flag(idx, flag::BR_MISPRED) {
                    self.counters.dir_mispred += 1;
                }
            } else if op.is_control() {
                self.counters.uncond += 1;
                if op == Opcode::JumpInd {
                    self.btb.update(self.w.di[i].pc, self.w.di[i].next_pc);
                }
                if self.w.flag(idx, flag::BR_MISPRED) {
                    self.counters.target_mispred += 1;
                }
            }
            self.counters.committed += 1;
            self.emit(seq, PipeEventKind::Commit { slot: slot as u16 });
            // Value-misprediction squash at commit.
            let squash = self.w.flag(idx, flag::VP_SQUASH_AT_COMMIT);
            let hist = self.w.hist_after[i];
            let cp = self.w.ras_cp[i];
            self.w.release(idx);
            if squash {
                self.counters.vp_squashes += 1;
                self.squash_after(seq, hist, cp, SquashCause::ValueMisprediction);
                break;
            }
        }
    }

    // ----- completion (execute/writeback) stage -----

    /// Event-driven completion. The cycle's due events (completion wheel
    /// bucket plus any deferred carry-overs) replace the old full-window
    /// scan; stale events — squashed or reissued slots — are dropped by
    /// their generation/state check. Two passes preserve the scan's
    /// semantics exactly:
    ///
    /// 1. *Writeback wakeups*: every due value wakes the consumers
    ///    registered on it, even when pass 2 is aborted mid-cycle by a
    ///    memory-order squash (the old scan's issue stage saw
    ///    `complete_at <= now` values as ready regardless).
    /// 2. *Completion processing* in age order: stage flip, branch
    ///    unblock, memory-order violation detection (aborting the pass on
    ///    a squash, deferring the untouched remainder to the next cycle),
    ///    and value-prediction validation/recovery.
    fn complete(&mut self) {
        let mut due = self.wheel.take_due(self.now);
        due.retain(|ev| self.w.event_live(*ev, self.now));
        due.sort_unstable_by_key(|ev| self.w.di[ev.idx as usize].seq);

        // Pass 1: writeback wakeups.
        for ev in &due {
            let p = ev.idx as usize;
            if self.w.waiters[p].is_empty() {
                continue;
            }
            let mut waiters = std::mem::take(&mut self.w.waiters[p]);
            self.wake_scratch.clear();
            self.wake_scratch.append(&mut waiters);
            debug_assert!(waiters.is_empty());
            self.w.waiters[p] = waiters;
            for k in 0..self.wake_scratch.len() {
                let wt = self.wake_scratch[k];
                let c = wt.idx as usize;
                if self.w.gen[c] == wt.gen && self.w.state[c] == Stage::Waiting {
                    self.refresh_ready(wt.idx);
                }
            }
        }

        // Pass 2: completion processing in age order.
        for k in 0..due.len() {
            let ev = due[k];
            // Re-check liveness: an earlier completion may have reissued
            // this µop within the same cycle.
            if !self.w.event_live(ev, self.now) {
                continue;
            }
            let idx = ev.idx;
            let i = idx as usize;
            self.w.state[i] = Stage::Completed;
            let seq = self.w.di[i].seq;
            let op = self.w.di[i].inst.op;
            self.emit(seq, PipeEventKind::Writeback);

            // Branch resolution unblocks fetch.
            if self.w.flag(idx, flag::BR_MISPRED) && self.fetch_blocked_on == Some(seq) {
                self.fetch_blocked_on = None;
                self.fetch_resume_at = self.fetch_resume_at.max(self.now + 1);
            }

            // Store execution: memory-order violation detection.
            if op == Opcode::Store {
                self.store_sets.store_executed(seq, self.w.lfst_slot[i]);
                let addr = self.w.di[i].mem_addr;
                if let Some(violating_load) = self.find_violating_load(seq, addr) {
                    self.counters.violations += 1;
                    let store_pc = self.w.di[i].pc;
                    let load_idx = self.w.idx_of(violating_load).expect("load in window");
                    let load_pc = self.w.di[load_idx as usize].pc;
                    self.store_sets.record_violation(load_pc, store_pc);
                    // Squash from the violating load (it refetches) and
                    // stop this stage; unprocessed completions carry over
                    // to the next cycle, exactly like the old scan's
                    // early return.
                    let boundary = violating_load - 1;
                    let bidx = self.w.idx_of(boundary).expect("boundary in window") as usize;
                    let hist = self.w.hist_after[bidx];
                    let cp = self.w.ras_cp[bidx];
                    for &ev in due.iter().skip(k + 1) {
                        self.wheel.defer(ev);
                    }
                    self.squash_after(boundary, hist, cp, SquashCause::MemoryOrder);
                    self.wheel.recycle(due);
                    return;
                }
            }

            // Value prediction validation at execute. The computed result
            // replaces the prediction (paper §7.2: "a prediction is …
            // replaced by its non-speculative counterpart when it is
            // computed"), so the predictor's speculative value tracking is
            // repaired for *any* wrong prediction, confident or not —
            // otherwise a cold or glitched chain self-feeds forever.
            if let (Some(guess), Some(actual)) = (self.w.pred_any[i], self.w.di[i].result) {
                if guess != actual {
                    let pc = self.w.di[i].pc;
                    if let Some(p) = self.predictor.as_mut() {
                        p.resolve(seq, pc, actual);
                    }
                }
            }
            if let (Some(pred), Some(actual)) = (self.w.predicted[i], self.w.di[i].result) {
                self.emit(seq, PipeEventKind::VpValidate { correct: pred == actual });
                if pred != actual {
                    self.w.set_flag(idx, flag::PRED_WRONG);
                    if self.w.flag(idx, flag::PRED_CONSUMER_ISSUED) {
                        match self.recovery {
                            RecoveryPolicy::SquashAtCommit => {
                                self.w.set_flag(idx, flag::VP_SQUASH_AT_COMMIT);
                            }
                            RecoveryPolicy::SelectiveReissue => {
                                self.selective_reissue(idx);
                            }
                        }
                    }
                } else if self.recovery == RecoveryPolicy::SelectiveReissue {
                    self.validate_poison(idx);
                }
            }
        }
        self.wheel.recycle(due);
    }

    /// Youngest check: find the oldest load younger than store `seq` to the
    /// same address that has already left the scheduler. The window's
    /// address-indexed load chains walk only same-line loads in age order,
    /// so the first match is the oldest.
    fn find_violating_load(&self, store_seq: u64, addr: Option<u64>) -> Option<u64> {
        let idx = self.w.oldest_younger_issued_load(addr?, store_seq)?;
        Some(self.w.di[idx as usize].seq)
    }

    /// Selective reissue: every issued/completed µop transitively dependent
    /// on the mispredicted value of producer slot `p` re-enters the
    /// scheduler this cycle (idealistic 0-cycle repair, §7.2.1). The
    /// inverted poison list names exactly those consumers; entries whose
    /// bit was already cleared (reissued by another producer, or stale
    /// after slot recycling) are skipped by the bitmask check.
    fn selective_reissue(&mut self, p: u32) {
        let mut list = std::mem::take(&mut self.w.poisoned[p as usize]);
        for &c in &list {
            if !self.w.poison_contains(c, p) {
                continue;
            }
            let ci = c as usize;
            debug_assert!(matches!(self.w.state[ci], Stage::Issued | Stage::Completed));
            debug_assert!(self.w.di[ci].seq > self.w.di[p as usize].seq);
            self.w.state[ci] = Stage::Waiting;
            self.w.issued_at[ci] = UNSCHEDULED;
            self.w.complete_at[ci] = UNSCHEDULED;
            self.w.poison_clear(c);
            self.w.ready_set(self.w.di[ci].seq);
            self.counters.reissued += 1;
            self.emit(self.w.di[ci].seq, PipeEventKind::Reissue);
        }
        list.clear();
        debug_assert!(self.w.poisoned[p as usize].is_empty());
        self.w.poisoned[p as usize] = list;
    }

    /// A predicted value validated correct: clear producer slot `p` from
    /// the poison sets of exactly its recorded consumers and release IQ
    /// entries of now-non-speculative completed µops.
    fn validate_poison(&mut self, p: u32) {
        let mut list = std::mem::take(&mut self.w.poisoned[p as usize]);
        for &c in &list {
            if !self.w.poison_contains(c, p) {
                continue;
            }
            self.w.poison_remove(c, p);
            if self.w.poison_is_empty(c)
                && self.w.state[c as usize] == Stage::Completed
                && self.w.flag(c, flag::IQ_HELD)
            {
                self.w.clear_flag(c, flag::IQ_HELD);
                self.iq_used -= 1;
            }
        }
        list.clear();
        debug_assert!(self.w.poisoned[p as usize].is_empty());
        self.w.poisoned[p as usize] = list;
    }

    // ----- issue stage -----

    /// Issue selection over the ready bitset in age order (two-phase:
    /// select, then apply — identical priority and resource order to the
    /// old full-window scan). The bitset is a conservative candidate
    /// filter; operands are re-verified here, and a consumer found unready
    /// (e.g. its producer was reissued since the wakeup) re-registers on
    /// the scoreboard and leaves the set.
    fn issue(&mut self) {
        let mut issued = 0usize;
        let mut loads = 0usize;
        let mut stores = 0usize;
        self.picks.clear();
        self.spec_buf.clear();
        let mut cand = std::mem::take(&mut self.ready_scratch);
        self.w.collect_ready(&mut cand);

        for &idx in &cand {
            if issued >= self.cfg.issue_width {
                break;
            }
            let i = idx as usize;
            debug_assert_eq!(self.w.state[i], Stage::Waiting);
            debug_assert!(self.w.dispatched_at[i] < self.now);
            let fu = self.w.di[i].inst.fu_class();
            if fu == FuClass::Load && loads >= self.cfg.fu.load_ports {
                continue;
            }
            if fu == FuClass::Store && stores >= self.cfg.fu.store_ports {
                continue;
            }
            // Operand readiness (re-verified; the ground truth).
            let spec_start = self.spec_buf.len();
            if !self.check_operands(idx) {
                self.spec_buf.truncate(spec_start);
                continue;
            }
            // Loads: memory dependence rules.
            let mut forwarded = false;
            if fu == FuClass::Load {
                match self.load_memory_ready(idx) {
                    Err(store) => {
                        self.spec_buf.truncate(spec_start);
                        // Park on the blocking store instead of busy-polling
                        // the ready set: its completion event's pass-1
                        // wakeup re-arms this load on exactly the cycle the
                        // poll would have seen it complete.
                        self.w.ready_clear(self.w.di[i].seq);
                        self.w.waiters[store as usize].push(Waiter { idx, gen: self.w.gen[i] });
                        continue;
                    }
                    Ok(f) => forwarded = f,
                }
            }
            // Functional unit claim.
            let latency = self.execute_latency(&self.w.di[i]);
            let pipelined =
                !matches!(self.w.di[i].inst.op, Opcode::Div | Opcode::Rem | Opcode::FDiv);
            let busy_until = if pipelined { self.now + 1 } else { self.now + latency };
            if !self.fu.claim(fu, self.now, busy_until) {
                self.spec_buf.truncate(spec_start);
                continue;
            }
            // Completion time.
            let complete_at = match fu {
                FuClass::Load => {
                    let addr = self.w.di[i].mem_addr.expect("load address");
                    if forwarded {
                        self.now + 1 + 2 // AGU + store-buffer forward
                    } else {
                        let pc = self.w.di[i].pc;
                        self.mem.load(pc, addr, self.now + 1)
                    }
                }
                FuClass::Store => self.now + 1, // AGU; data to store buffer
                _ => self.now + latency,
            };
            self.picks.push(Pick {
                idx,
                complete_at,
                spec_start: spec_start as u32,
                spec_len: (self.spec_buf.len() - spec_start) as u32,
            });
            issued += 1;
            if fu == FuClass::Load {
                loads += 1;
            }
            if fu == FuClass::Store {
                stores += 1;
            }
        }
        self.ready_scratch = cand;

        for k in 0..self.picks.len() {
            let Pick { idx, complete_at, spec_start, spec_len } = self.picks[k];
            let i = idx as usize;
            self.emit(self.w.di[i].seq, PipeEventKind::Issue { slot: k as u16 });
            // Mark speculative consumption on the producers and poison
            // this µop with each distinct speculative source.
            for s in spec_start..spec_start + spec_len {
                let pseq = self.spec_buf[s as usize];
                if let Some(p) = self.w.idx_of(pseq) {
                    self.w.set_flag(p, flag::PRED_CONSUMER_ISSUED);
                    if self.w.poison_insert(idx, p) {
                        self.w.poisoned[p as usize].push(idx);
                    }
                }
            }
            // Inherit poison from executed-but-unvalidated producers: a
            // word-wise OR of the producer's bitmask (O(1) per dependence
            // instead of the old Vec clone).
            if self.recovery == RecoveryPolicy::SelectiveReissue {
                let deps = self.w.deps[i];
                for dep in deps.iter().flatten() {
                    if let Some(p) = self.w.idx_of(*dep) {
                        if matches!(self.w.state[p as usize], Stage::Issued | Stage::Completed) {
                            self.w.poison_inherit(idx, p);
                        }
                    }
                }
            }
            let free_iq = match self.recovery {
                RecoveryPolicy::SquashAtCommit => true,
                RecoveryPolicy::SelectiveReissue => self.w.poison_is_empty(idx),
            };
            self.w.state[i] = Stage::Issued;
            self.w.issued_at[i] = self.now;
            self.w.complete_at[i] = complete_at;
            self.w.ready_clear(self.w.di[i].seq);
            self.wheel.schedule(self.now, Event { at: complete_at, idx, gen: self.w.gen[i] });
            if free_iq && self.w.flag(idx, flag::IQ_HELD) {
                self.w.clear_flag(idx, flag::IQ_HELD);
                self.iq_used -= 1;
            }
        }
    }

    /// Ground-truth operand check for waiting consumer `c`, with the same
    /// readiness rules as the original scheduler: a register operand is
    /// ready when its producer committed, completed, writes back this
    /// cycle, or carries an injected prediction (speculative readiness —
    /// those producers are appended to `spec_buf`). On failure, `c` is
    /// registered on every unready producer's wakeup list and leaves the
    /// ready set.
    fn check_operands(&mut self, c: u32) -> bool {
        let ci = c as usize;
        let deps = self.w.deps[ci];
        let cgen = self.w.gen[ci];
        let mut ok = true;
        for dep in deps.iter().flatten() {
            match self.w.idx_of(*dep) {
                None => {} // committed: read from the register file
                Some(p) => {
                    let pi = p as usize;
                    match self.w.state[pi] {
                        Stage::Completed => {}
                        Stage::Issued if self.w.complete_at[pi] <= self.now => {}
                        _ if self.w.predicted[pi].is_some()
                            && self.w.state[pi] != Stage::FrontEnd =>
                        {
                            self.spec_buf.push(*dep);
                        }
                        _ => {
                            ok = false;
                            self.w.waiters[pi].push(Waiter { idx: c, gen: cgen });
                        }
                    }
                }
            }
        }
        if !ok {
            self.w.ready_clear(self.w.di[ci].seq);
        }
        ok
    }

    /// Re-evaluate waiting µop `c` for the ready set: mark it a candidate
    /// when all operands are ready, otherwise (re-)register it on its
    /// unready producers. Called at dispatch and on writeback wakeups.
    fn refresh_ready(&mut self, c: u32) {
        let start = self.spec_buf.len();
        let ok = self.check_operands(c);
        self.spec_buf.truncate(start);
        if ok {
            self.w.ready_set(self.w.di[c as usize].seq);
        }
    }

    /// Memory-side readiness for a load: `Err(store)` = must wait for the
    /// in-flight store at slot `store` to execute; `Ok(fwd)` with
    /// `fwd = true` when store-to-load forwarding supplies the data.
    fn load_memory_ready(&self, idx: u32) -> Result<bool, u32> {
        let i = idx as usize;
        // Store-set predicted dependence: wait until that store executed.
        if let Some(dep) = self.w.store_dep[i] {
            if let Some(pidx) = self.w.idx_of(dep) {
                if self.w.state[pidx as usize] != Stage::Completed {
                    return Err(pidx);
                }
            }
        }
        // Youngest older store to the same address, if any, via the
        // window's address-indexed store chains. If that store has not
        // executed, issuing now would violate ordering; without a
        // store-set prediction the hardware issues anyway (and pays a
        // violation squash when the store executes), and with one we
        // never get here. We model the speculative issue faithfully.
        let addr = self.w.di[i].mem_addr.expect("load address");
        let forwarded = match self.w.youngest_older_store(addr, self.w.di[i].seq) {
            Some(s) => self.w.state[s as usize] == Stage::Completed,
            None => false,
        };
        Ok(forwarded)
    }

    fn execute_latency(&self, di: &DynInst) -> u64 {
        let fu = &self.cfg.fu;
        match di.inst.op {
            Opcode::Mul => fu.mul_latency,
            Opcode::Div | Opcode::Rem => fu.div_latency,
            Opcode::FMul => fu.fpmul_latency,
            Opcode::FDiv => fu.fpdiv_latency,
            op if op.fu_class() == FuClass::FpAlu => fu.fp_latency,
            _ => fu.alu_latency,
        }
    }

    // ----- dispatch (rename) stage -----

    /// In-order dispatch straight from the front-end region: the
    /// front-end µops are exactly the youngest `fe_count` entries of the
    /// ROB order ring, so dispatch starts there instead of skipping over
    /// every already-dispatched slot.
    fn dispatch(&mut self) {
        let len = self.w.len();
        let mut off = len - self.fe_count;
        let mut dispatched = 0usize;
        while off < len {
            if dispatched >= self.cfg.fetch_width {
                break;
            }
            let idx = self.w.at(off);
            let i = idx as usize;
            debug_assert_eq!(self.w.state[i], Stage::FrontEnd);
            if self.w.fe_exit[i] > self.now {
                break; // in-order front-end: younger µops are even later
            }
            // Structural resources (attribute the first blocker per cycle).
            if self.rob_used >= self.cfg.rob_entries {
                self.counters.stalls.dispatch_rob_cycles += 1;
                break;
            }
            if self.iq_used >= self.cfg.iq_entries {
                self.counters.stalls.dispatch_iq_cycles += 1;
                break;
            }
            let op = self.w.di[i].inst.op;
            if op == Opcode::Load && self.lq_used >= self.cfg.lq_entries {
                self.counters.stalls.dispatch_lq_cycles += 1;
                break;
            }
            if op == Opcode::Store && self.sq_used >= self.cfg.sq_entries {
                self.counters.stalls.dispatch_sq_cycles += 1;
                break;
            }
            let dst_class = self.w.di[i].inst.dst.map(|d| d.class());
            match dst_class {
                Some(RegClass::Int) if 32 + self.int_prf_used >= self.cfg.int_prf => {
                    self.counters.stalls.dispatch_prf_cycles += 1;
                    break;
                }
                Some(RegClass::Float) if 32 + self.fp_prf_used >= self.cfg.fp_prf => {
                    self.counters.stalls.dispatch_prf_cycles += 1;
                    break;
                }
                _ => {}
            }
            // Rename.
            let seq = self.w.di[i].seq;
            let sources = self.w.di[i].inst.source_pair();
            let mut deps = [None, None];
            for (k, r) in sources.iter().flatten().enumerate() {
                deps[k] = self.rename[r.index()];
            }
            if let Some(d) = self.w.di[i].inst.dst {
                self.rename[d.index()] = Some(seq);
            }
            // Memory structures.
            let (mut lq_held, mut sq_held) = (false, false);
            let mut store_dep = None;
            let pc = self.w.di[i].pc;
            if op == Opcode::Load {
                lq_held = true;
                self.lq_used += 1;
                store_dep = self.store_sets.load_dependence(pc);
            } else if op == Opcode::Store {
                sq_held = true;
                self.sq_used += 1;
                self.w.lfst_slot[i] = self.store_sets.store_dispatched(pc, seq);
            }
            match dst_class {
                Some(RegClass::Int) => self.int_prf_used += 1,
                Some(RegClass::Float) => self.fp_prf_used += 1,
                None => {}
            }
            self.rob_used += 1;
            self.iq_used += 1;
            self.fe_count -= 1;
            dispatched += 1;
            self.emit(seq, PipeEventKind::Dispatch { slot: (dispatched - 1) as u16 });
            self.w.state[i] = Stage::Waiting;
            self.w.dispatched_at[i] = self.now;
            self.w.deps[i] = deps;
            self.w.store_dep[i] = store_dep;
            self.w.set_flag(idx, flag::IQ_HELD);
            if lq_held {
                self.w.set_flag(idx, flag::LQ_HELD);
            }
            if sq_held {
                self.w.set_flag(idx, flag::SQ_HELD);
            }
            self.w.prf_class[i] = dst_class;
            // Loads and stores join the address-indexed LSQ chains here;
            // release (commit or squash) unlinks them.
            self.w.lsq_insert(idx);
            // Scoreboard entry: immediately ready, or registered on its
            // unready producers for wakeup.
            self.refresh_ready(idx);
            off += 1;
        }
    }

    // ----- fetch stage -----

    fn next_trace_inst(&mut self) -> Option<DynInst> {
        if let Some(di) = self.refetch.pop_front() {
            return Some(di);
        }
        match self.source.next_inst() {
            Some(di) => Some(di),
            None => {
                self.source_done = true;
                None
            }
        }
    }

    fn fetch(&mut self) {
        if self.fetch_blocked_on.is_some() {
            self.counters.stalls.fetch_branch_cycles += 1;
            return;
        }
        if self.now < self.fetch_resume_at {
            self.counters.stalls.fetch_redirect_cycles += 1;
            return;
        }
        if self.fe_count >= FETCH_QUEUE {
            self.counters.stalls.fetch_queue_full_cycles += 1;
            return;
        }
        let mut fetched = 0usize;
        let mut taken_branches = 0usize;
        while fetched < self.cfg.fetch_width && self.fe_count < FETCH_QUEUE {
            let Some(di) = self.next_trace_inst() else { break };
            // Instruction cache.
            let iready = self.mem.fetch_inst(di.pc, self.now);
            let l1i_latency = 2;
            if iready > self.now + l1i_latency {
                // Miss: this µop retries when the line arrives.
                self.refetch.push_front(di);
                self.fetch_resume_at = iready;
                break;
            }
            let seq = di.seq;
            let pc = di.pc;
            let pre_hist = self.fetch_hist;
            let op = di.inst.op;
            // Branch prediction.
            let mut mispred = false;
            if op.is_cond_branch() {
                let pred_taken = self.tage.predict(seq, pc, &pre_hist);
                mispred = pred_taken != di.taken;
                self.fetch_hist.push_branch(pc, di.taken);
            } else if op.is_control() {
                match op {
                    Opcode::Call => self.ras.push(pc + 4),
                    Opcode::Ret => {
                        let predicted = self.ras.pop();
                        mispred = predicted != Some(di.next_pc);
                    }
                    Opcode::JumpInd => {
                        let predicted = self.btb.lookup(pc);
                        mispred = predicted != Some(di.next_pc);
                    }
                    _ => {} // direct jumps/calls: target from decode
                }
                self.fetch_hist.push_path(pc);
            }
            // Window slot + value prediction at fetch.
            let idx = self.w.alloc(
                di,
                self.now + self.cfg.frontend_depth,
                self.fetch_hist,
                self.ras.checkpoint(),
            );
            if mispred {
                self.w.set_flag(idx, flag::BR_MISPRED);
            }
            if di.vp_eligible() {
                self.w.set_flag(idx, flag::ELIGIBLE);
                self.counters.b2b_eligible += 1;
                if self.b2b.fetched(pc, self.now) {
                    self.counters.b2b += 1;
                }
                if let Some(p) = self.predictor.as_mut() {
                    let ctx = PredictCtx { seq, pc, hist: pre_hist, actual: di.result };
                    let pred = p.predict(&ctx);
                    if pred.value.is_some() {
                        self.w.set_flag(idx, flag::PRED_HIT);
                    }
                    self.w.pred_any[idx as usize] = pred.value;
                    match pred.confident_value() {
                        Some(v) => self.w.predicted[idx as usize] = Some(v),
                        None => {
                            if pred.value == di.result {
                                self.w.set_flag(idx, flag::PRED_CORRECT_UNUSED);
                            }
                        }
                    }
                }
            }
            self.fe_count += 1;
            fetched += 1;
            self.emit(seq, PipeEventKind::Fetch { pc, slot: (fetched - 1) as u16 });
            if di.taken {
                taken_branches += 1;
            }
            if mispred {
                self.fetch_blocked_on = Some(seq);
                break;
            }
            if taken_branches >= self.cfg.taken_branches_per_cycle {
                break;
            }
        }
    }

    // ----- squash -----

    /// Remove every µop younger than `boundary` from the window, queue them
    /// for refetch, and restore front-end state. Fetch resumes next cycle.
    fn squash_after(
        &mut self,
        boundary: u64,
        hist: HistoryState,
        ras_cp: RasCheckpoint,
        cause: SquashCause,
    ) {
        let mut squashed = 0u32;
        while let Some(back) = self.w.back() {
            if self.w.di[back as usize].seq <= boundary {
                break;
            }
            let idx = self.w.pop_back();
            let i = idx as usize;
            if T::ENABLED {
                // pop_back walks youngest-first: the first popped µop is
                // the squash high-water mark.
                if squashed == 0 {
                    let youngest = self.w.di[i].seq;
                    self.squash_hwm =
                        Some(self.squash_hwm.map_or(youngest, |hwm| hwm.max(youngest)));
                }
                squashed += 1;
            }
            match self.w.state[i] {
                Stage::FrontEnd => self.fe_count -= 1,
                _ => {
                    self.rob_used -= 1;
                    if self.w.flag(idx, flag::IQ_HELD) {
                        self.iq_used -= 1;
                    }
                    if self.w.flag(idx, flag::LQ_HELD) {
                        self.lq_used -= 1;
                    }
                    if self.w.flag(idx, flag::SQ_HELD) {
                        self.sq_used -= 1;
                    }
                    match self.w.prf_class[i] {
                        Some(RegClass::Int) => self.int_prf_used -= 1,
                        Some(RegClass::Float) => self.fp_prf_used -= 1,
                        None => {}
                    }
                }
            }
            self.refetch.push_front(self.w.di[i]);
            self.w.release(idx);
        }
        // Rebuild the rename map from the surviving dispatched window.
        self.rename = [None; vpsim_isa::NUM_ARCH_REGS];
        for off in 0..self.w.len() {
            let i = self.w.at(off) as usize;
            if self.w.state[i] == Stage::FrontEnd {
                continue;
            }
            if let Some(d) = self.w.di[i].inst.dst {
                self.rename[d.index()] = Some(self.w.di[i].seq);
            }
        }
        if let Some(p) = self.predictor.as_mut() {
            p.squash_after(boundary);
        }
        self.tage.squash_after(boundary);
        self.store_sets.squash_after(boundary);
        self.fetch_hist = hist;
        self.ras.restore(ras_cp);
        if matches!(self.fetch_blocked_on, Some(s) if s > boundary) {
            self.fetch_blocked_on = None;
        }
        self.fetch_resume_at = self.fetch_resume_at.max(self.now + 1);
        self.emit(boundary, PipeEventKind::Squash { cause, squashed });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VpConfig;
    use vpsim_core::PredictorKind;
    use vpsim_isa::{ProgramBuilder, Reg};

    fn counted_loop(iters: i64, body_adds: usize) -> Program {
        let mut b = ProgramBuilder::new();
        let (i, n, acc) = (Reg::int(1), Reg::int(2), Reg::int(3));
        b.load_imm(i, 0);
        b.load_imm(n, iters);
        let top = b.bind_label();
        for _ in 0..body_adds {
            b.addi(acc, acc, 1);
        }
        b.addi(i, i, 1);
        b.blt(i, n, top);
        b.halt();
        b.build().unwrap()
    }

    fn base_sim() -> Simulator {
        Simulator::new(CoreConfig::default())
    }

    fn vp_sim(kind: PredictorKind, recovery: RecoveryPolicy) -> Simulator {
        Simulator::new(CoreConfig::default().with_vp(VpConfig::enabled(kind, recovery)))
    }

    #[test]
    fn empty_window_run_terminates() {
        let mut b = ProgramBuilder::new();
        b.halt();
        let p = b.build().unwrap();
        let r = base_sim().run(&p, 1000);
        assert_eq!(r.metrics.instructions, 1);
    }

    #[test]
    fn independent_ops_reach_high_ipc() {
        // 8 independent add chains: should sustain IPC well above 2.
        let mut b = ProgramBuilder::new();
        let n = Reg::int(0);
        b.load_imm(n, 2000);
        let counter = Reg::int(15);
        let top = b.bind_label();
        for k in 1..=8u8 {
            b.addi(Reg::int(k), Reg::int(k), 3);
        }
        b.addi(counter, counter, 1);
        b.blt(counter, n, top);
        b.halt();
        let p = b.build().unwrap();
        let r = base_sim().run(&p, 50_000);
        assert!(r.metrics.ipc() > 2.0, "ipc {}", r.metrics.ipc());
    }

    #[test]
    fn dependent_chain_is_serialized() {
        // A single long dependence chain: IPC ≈ 1 at best (1-cycle ALU).
        let mut b = ProgramBuilder::new();
        let (x, n, i) = (Reg::int(1), Reg::int(2), Reg::int(3));
        b.load_imm(n, 2000);
        let top = b.bind_label();
        for _ in 0..8 {
            b.addi(x, x, 1); // serial chain
        }
        b.addi(i, i, 1);
        b.blt(i, n, top);
        b.halt();
        let p = b.build().unwrap();
        let r = base_sim().run(&p, 50_000);
        assert!(r.metrics.ipc() < 1.6, "ipc {}", r.metrics.ipc());
    }

    #[test]
    fn branch_mispredictions_cost_cycles() {
        // A data-dependent unpredictable branch vs a biased one.
        fn branchy(pattern_reg_seed: i64) -> Program {
            let mut b = ProgramBuilder::new();
            let (x, i, n, t) = (Reg::int(1), Reg::int(2), Reg::int(3), Reg::int(4));
            b.load_imm(x, pattern_reg_seed);
            b.load_imm(n, 4000);
            let top = b.bind_label();
            // x = x * 6364136223846793005 + 1442695040888963407 (LCG)
            b.load_imm(t, 6364136223846793005);
            b.mul(x, x, t);
            b.load_imm(t, 1442695040888963407);
            b.add(x, x, t);
            b.shri(t, x, 63);
            let skip = b.label();
            let zero = Reg::int(0);
            b.beq(t, zero, skip); // unpredictable direction
            b.addi(Reg::int(5), Reg::int(5), 1);
            b.bind(skip);
            b.addi(i, i, 1);
            b.blt(i, n, top);
            b.halt();
            b.build().unwrap()
        }
        let random = base_sim().run(&branchy(12345), 30_000);
        // The biased version: same structure but the branch never fires.
        let mut b = ProgramBuilder::new();
        let (i, n) = (Reg::int(2), Reg::int(3));
        b.load_imm(n, 4000);
        let top = b.bind_label();
        for _ in 0..6 {
            b.addi(Reg::int(5), Reg::int(5), 1);
        }
        b.addi(i, i, 1);
        b.blt(i, n, top);
        b.halt();
        let biased = base_sim().run(&b.build().unwrap(), 30_000);
        assert!(
            random.branch.direction_accuracy() < 0.9,
            "LCG branch should be hard: {}",
            random.branch.direction_accuracy()
        );
        assert!(biased.metrics.ipc() > random.metrics.ipc());
    }

    #[test]
    fn cache_misses_show_up_in_stats() {
        // Pointer-chase over a large footprint.
        let mut b = ProgramBuilder::new();
        let (p, i, n) = (Reg::int(1), Reg::int(2), Reg::int(3));
        // next[k] = (k + 8191) % 16384: a single 16K-entry cycle (gcd with
        // the table size is 1) striding ~512 KB per hop — hostile to L1D.
        let entries = 1 << 14;
        for k in 0..entries {
            let next = ((k + 8191) % entries) as u64 * 64;
            b.data(0x100000 + k as u64 * 64, 0x100000 + next);
        }
        b.load_imm(p, 0x100000);
        b.load_imm(n, 20000);
        let top = b.bind_label();
        b.load(p, p, 0); // p = *p
        b.addi(i, i, 1);
        b.blt(i, n, top);
        b.halt();
        let r = base_sim().run(&b.build().unwrap(), 60_000);
        assert!(r.l1d.misses > 1000, "l1d misses {}", r.l1d.misses);
        assert!(r.metrics.ipc() < 1.0, "pointer chase must be slow, ipc {}", r.metrics.ipc());
    }

    #[test]
    fn oracle_vp_breaks_dependence_chains() {
        let p = counted_loop(3000, 8);
        let base = base_sim().run(&p, 40_000);
        let oracle = vp_sim(PredictorKind::Oracle, RecoveryPolicy::SquashAtCommit).run(&p, 40_000);
        assert!(
            oracle.metrics.ipc() > base.metrics.ipc() * 1.2,
            "oracle {} vs base {}",
            oracle.metrics.ipc(),
            base.metrics.ipc()
        );
        assert_eq!(oracle.vp_squashes, 0, "oracle never mispredicts");
        assert!(oracle.vp.accuracy() > 0.9999);
    }

    #[test]
    fn stride_vp_speeds_up_serial_counter_loop() {
        // The loop counter chain is strided: a stride predictor breaks it.
        let p = counted_loop(4000, 0);
        let base = base_sim().run(&p, 40_000);
        let vp =
            vp_sim(PredictorKind::TwoDeltaStride, RecoveryPolicy::SquashAtCommit).run(&p, 40_000);
        assert!(
            vp.metrics.ipc() >= base.metrics.ipc() * 0.99,
            "vp {} vs base {}",
            vp.metrics.ipc(),
            base.metrics.ipc()
        );
        assert!(vp.vp.coverage() > 0.2, "coverage {}", vp.vp.coverage());
        assert!(vp.vp.accuracy() > 0.99, "accuracy {}", vp.vp.accuracy());
    }

    #[test]
    fn vp_stats_are_consistent() {
        let p = counted_loop(2000, 4);
        let r = vp_sim(PredictorKind::Vtage, RecoveryPolicy::SquashAtCommit).run(&p, 30_000);
        assert!(r.vp.used <= r.vp.eligible);
        assert!(r.vp.hits <= r.vp.eligible);
        assert_eq!(r.vp.used, r.vp.correct_used + r.vp.mispredicted);
        assert!(r.vp.harmless_mispredictions <= r.vp.mispredicted);
        assert!(r.back_to_back.eligible >= r.vp.eligible);
    }

    #[test]
    fn squash_at_commit_recovers_correctly() {
        // A value pattern that breaks after the predictor becomes
        // confident: constant for 500 iterations, then switches.
        let mut b = ProgramBuilder::new();
        let (x, i, n, addr) = (Reg::int(1), Reg::int(2), Reg::int(3), Reg::int(4));
        b.data(0x1000, 7);
        b.load_imm(n, 3000);
        b.load_imm(addr, 0x1000);
        let top = b.bind_label();
        b.load(x, addr, 0); // predictable… until memory changes
        b.addi(Reg::int(5), x, 1); // consumer
        b.addi(i, i, 1);
        // Halfway: store a new value to 0x1000.
        let skip = b.label();
        b.load_imm(Reg::int(6), 1500);
        b.bne(i, Reg::int(6), skip);
        b.load_imm(Reg::int(7), 99);
        b.store(addr, Reg::int(7), 0);
        b.bind(skip);
        b.blt(i, n, top);
        b.halt();
        let p = b.build().unwrap();
        let r = vp_sim(PredictorKind::Lvp, RecoveryPolicy::SquashAtCommit).run(&p, 60_000);
        // The run completes with correct results and at most a few squashes.
        assert!(r.metrics.instructions > 15_000);
        assert!(r.vp_squashes >= 1, "the value break must trigger a squash");
        assert!(r.vp.accuracy() > 0.99);
    }

    #[test]
    fn selective_reissue_reexecutes_dependents() {
        let mut b = ProgramBuilder::new();
        let (x, y, i, n) = (Reg::int(1), Reg::int(5), Reg::int(2), Reg::int(3));
        b.data(0x1000, 1);
        b.load_imm(n, 2000);
        let addr = Reg::int(4);
        b.load_imm(addr, 0x1000);
        let top = b.bind_label();
        b.load(x, addr, 0);
        b.addi(y, x, 1);
        b.store(addr, y, 0); // value grows: stride-predictable
        b.addi(i, i, 1);
        b.blt(i, n, top);
        b.halt();
        let p = b.build().unwrap();
        let r =
            vp_sim(PredictorKind::TwoDeltaStride, RecoveryPolicy::SelectiveReissue).run(&p, 40_000);
        assert!(r.metrics.instructions > 10_000);
        // With baseline counters we would see reissues; with FPC they are
        // rare but the machinery must not corrupt anything.
        assert_eq!(r.vp_squashes, 0, "reissue mode never squashes for VP");
    }

    #[test]
    fn store_load_forwarding_and_violations() {
        // A tight store→load dependence through memory.
        let mut b = ProgramBuilder::new();
        let (x, i, n, addr) = (Reg::int(1), Reg::int(2), Reg::int(3), Reg::int(4));
        b.load_imm(addr, 0x2000);
        b.load_imm(n, 3000);
        let top = b.bind_label();
        b.addi(x, x, 1);
        b.store(addr, x, 0);
        b.load(Reg::int(5), addr, 0); // must see the store's value
        b.addi(i, i, 1);
        b.blt(i, n, top);
        b.halt();
        let p = b.build().unwrap();
        let r = base_sim().run(&p, 40_000);
        assert!(r.metrics.instructions > 10_000);
        // Store sets learn after the first violation; there must be far
        // fewer violations than iterations.
        assert!(r.memory_order_violations < 100, "violations {}", r.memory_order_violations);
    }

    #[test]
    fn back_to_back_stat_fires_in_tight_loops() {
        // A 3-µop loop body: the same PC is fetched in consecutive cycles.
        let p = counted_loop(4000, 1);
        let r = base_sim().run(&p, 20_000);
        assert!(
            r.back_to_back.fraction() > 0.05,
            "tight loop must show back-to-back fetches, got {}",
            r.back_to_back.fraction()
        );
    }

    #[test]
    fn warmup_excludes_cold_effects() {
        let p = counted_loop(20_000, 4);
        let sim = base_sim();
        let cold = sim.run(&p, 40_000);
        let warm = sim.run_with_warmup(&p, 20_000, 20_000);
        assert_eq!(warm.metrics.instructions, 20_000);
        assert!(warm.metrics.ipc() >= cold.metrics.ipc() * 0.95);
    }

    #[test]
    fn trace_replay_matches_inline_execution() {
        use vpsim_isa::Trace;
        let p = counted_loop(3000, 4);
        for sim in [
            base_sim(),
            vp_sim(PredictorKind::Vtage, RecoveryPolicy::SquashAtCommit),
            vp_sim(PredictorKind::TwoDeltaStride, RecoveryPolicy::SelectiveReissue),
        ] {
            let inline = sim.run_with_warmup(&p, 2_000, 10_000);
            let trace = Trace::capture(&p, sim.config().trace_budget(2_000, 10_000));
            let replayed = sim.run_trace(&trace, 2_000, 10_000);
            assert_eq!(inline, replayed, "replay must be byte-identical");
        }
    }

    #[test]
    fn short_program_trace_replays_to_the_end() {
        use vpsim_isa::Trace;
        // The program ends long before the budget: the trace is complete
        // and replay must agree with inline execution of the whole thing.
        let p = counted_loop(50, 1);
        let sim = base_sim();
        let trace = Trace::capture(&p, sim.config().trace_budget(0, 100_000));
        assert_eq!(sim.run_trace(&trace, 0, 100_000), sim.run(&p, 100_000));
    }

    #[test]
    fn deadlock_report_names_the_stuck_state() {
        // Drive a machine a few cycles without letting anything commit,
        // then render the report the DEADLOCK_LIMIT panic would print.
        let p = counted_loop(100, 2);
        let cfg = CoreConfig::default();
        let mut sink = NullSink;
        let mut m = Machine::new(&cfg, vpsim_isa::Executor::new(&p), &mut sink);
        for _ in 0..300 {
            m.fetch();
            m.now += 1;
        }
        let report = m.deadlock_report();
        for needle in
            ["pipeline deadlock", "ROB head", "iq 0/128", "lq 0/48", "fetch-queue", "window slab"]
        {
            assert!(report.contains(needle), "missing {needle:?} in: {report}");
        }
        // The head µop is still traversing the front-end, and the slab
        // reports its free-list occupancy.
        assert!(report.contains("FrontEnd"), "{report}");
        assert!(report.contains("(free "), "{report}");
    }

    #[test]
    fn deadlock_panic_dumps_the_cycle_log_tail() {
        // Wedge fetch forever: the machine spins commit-idle cycles until
        // the DEADLOCK_LIMIT panic fires, and the panic message must carry
        // the attached cycle log's tail alongside the occupancy snapshot.
        let p = counted_loop(100, 2);
        let cfg = CoreConfig::default();
        let mut log = crate::tap::CycleLog::with_capacity(256);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut m = Machine::new(&cfg, vpsim_isa::Executor::new(&p), &mut log);
            m.fetch_blocked_on = Some(u64::MAX);
            m.simulate(0, 100)
        }))
        .expect_err("a wedged machine must hit the deadlock panic");
        let message = panic
            .downcast_ref::<String>()
            .expect("deadlock panics with a formatted report")
            .clone();
        assert!(message.contains("pipeline deadlock"), "{message}");
        assert!(
            message.contains(&format!("last {} of", crate::tap::DEADLOCK_TAIL)),
            "missing cycle-log tail in: {message}"
        );
        assert!(message.contains("fetch-starve"), "tail must show the stall cause: {message}");
        assert!(log.total_events() >= DEADLOCK_LIMIT, "one record per wedged cycle");
    }

    #[test]
    fn run_source_marked_fires_once_at_the_boundary() {
        let p = counted_loop(2000, 2);
        let sim = base_sim();
        let mut hits = 0usize;
        let marked =
            sim.run_source_marked(vpsim_isa::Executor::new(&p), 0, 6_000, 3_000, &mut || hits += 1);
        assert_eq!(hits, 1, "mark fires exactly once");
        assert_eq!(marked, sim.run(&p, 6_000), "the hook must not change results");
    }

    #[test]
    fn deterministic_across_runs() {
        let p = counted_loop(3000, 4);
        let sim = vp_sim(PredictorKind::Vtage, RecoveryPolicy::SquashAtCommit);
        let a = sim.run(&p, 30_000);
        let b = sim.run(&p, 30_000);
        assert_eq!(a, b, "same config + program ⇒ identical results");
    }

    #[test]
    fn fpc_achieves_higher_accuracy_than_baseline() {
        // Block-constant values: constant for 64 iterations, then a random
        // jump. Block length must exceed the pipeline's fetch-ahead lag
        // (~20 occurrences here) or confidence saturates exactly when the
        // fetch-time prediction is stale. The baseline 3-bit counters then
        // saturate within a block (7 correct) and mispredict at every
        // block boundary; FPC (expected 129 correct to saturate) almost
        // never gains enough confidence to be burned — the §5 trade-off.
        let mut b = ProgramBuilder::new();
        let (i, n, t, v) = (Reg::int(1), Reg::int(2), Reg::int(3), Reg::int(4));
        let c = Reg::int(5);
        b.load_imm(n, 8000);
        b.load_imm(c, 6364136223846793005);
        let top = b.bind_label();
        b.shri(t, i, 6); // block id
        b.mul(v, t, c); // block-constant pseudo-random value
        b.addi(Reg::int(6), v, 1); // consumer of the predicted value
        b.addi(i, i, 1);
        b.blt(i, n, top);
        b.halt();
        let p = b.build().unwrap();
        let mk = |scheme| {
            Simulator::new(CoreConfig::default().with_vp(VpConfig {
                kind: PredictorKind::Lvp,
                scheme,
                recovery: RecoveryPolicy::SquashAtCommit,
            }))
        };
        let base = mk(vpsim_core::ConfidenceScheme::baseline()).run(&p, 50_000);
        let fpc = mk(vpsim_core::ConfidenceScheme::fpc_squash()).run(&p, 50_000);
        assert!(base.vp.mispredicted > 50, "baseline must get burned: {}", base.vp.mispredicted);
        assert!(
            fpc.vp.mispredicted * 4 < base.vp.mispredicted,
            "fpc {} vs baseline {} mispredictions",
            fpc.vp.mispredicted,
            base.vp.mispredicted
        );
        // Coverage is the price of FPC's accuracy (§5).
        assert!(fpc.vp.used < base.vp.used, "fpc {} vs base {} used", fpc.vp.used, base.vp.used);
        // The paper's core claim: under squash-at-commit, high accuracy
        // beats high coverage.
        assert!(
            fpc.metrics.ipc() >= base.metrics.ipc(),
            "fpc {} vs baseline {} IPC",
            fpc.metrics.ipc(),
            base.metrics.ipc()
        );
    }
}
