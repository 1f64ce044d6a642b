//! Opt-in structured event tap on the timing model.
//!
//! The pipeline (see [`crate::Simulator`]) is generic over a [`PipeEventSink`]
//! and emits one typed [`PipeEvent`] per per-µop pipeline transition
//! (fetch/dispatch/issue/writeback/commit/squash/VP-validate) plus exactly
//! one [`PipeEventKind::Cycle`] attribution record per simulated cycle
//! (batched `idle_skip` spans emit one record covering the whole span).
//!
//! # Zero-cost argument
//!
//! The sink is a monomorphized type parameter carrying the associated
//! constant [`PipeEventSink::ENABLED`]. Every emission site in the hot loop
//! is guarded by `if T::ENABLED`, which is a *compile-time* constant per
//! instantiation: with the default [`NullSink`] (`ENABLED = false`) the
//! guard folds to `if false` and the whole emission — including the stall
//! attribution performed to build the `Cycle` record — is dead code the
//! optimizer removes. The disabled path is therefore bit-identical to a
//! build without the tap: same instructions, same zero allocations per
//! steady-state cycle (`crates/uarch/tests/zero_alloc.rs`), same
//! `ns_per_uop` within perf-smoke noise.
//!
//! Enabled sinks are still allocation-free per event: [`StallTally`] is a
//! flat counter struct and [`CycleLog`] a ring buffer preallocated at
//! construction, so the tapped path admits the same steady-state
//! zero-allocation proof.
//!
//! # Differential witness
//!
//! The tap double-books quantities the pipeline already counts
//! independently in the [`RunResult`] it returns. [`check_conservation`]
//! asserts the two bookkeepers agree exactly — total attributed cycles equal
//! measured cycles, stall attributions equal commit-idle cycles, commits /
//! squashes / reissues match — which turns the tap into a second,
//! independent witness of the timing model. See `tests/tap_equivalence.rs`
//! (tap on/off byte-identity) and `crates/uarch/tests/tap_conservation.rs`.

use crate::result::RunResult;
use std::fmt;

pub use vpsim_stats::stall::{CycleCause, Occupancy, StallReport};

/// Number of trailing cycle records a [`CycleLog`] contributes to a
/// deadlock panic report.
pub const DEADLOCK_TAIL: usize = 32;

/// What squashed the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SquashCause {
    /// A confidently-used value prediction validated wrong at commit.
    ValueMisprediction,
    /// A load issued before an older conflicting store (store-set miss).
    MemoryOrder,
}

impl SquashCause {
    /// Human-readable kebab-case label.
    pub fn label(self) -> &'static str {
        match self {
            SquashCause::ValueMisprediction => "value-misprediction",
            SquashCause::MemoryOrder => "memory-order",
        }
    }
}

/// The typed payload of a [`PipeEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeEventKind {
    /// µop allocated into the window by the front end.
    Fetch {
        /// Program counter of the fetched µop.
        pc: u64,
        /// Position within this cycle's fetch group (0-based).
        slot: u16,
    },
    /// µop renamed and inserted into ROB/IQ/LSQ.
    Dispatch {
        /// Position within this cycle's dispatch group.
        slot: u16,
    },
    /// µop selected for execution (selective reissue re-emits this).
    Issue {
        /// Issue-port slot within this cycle's issue group.
        slot: u16,
    },
    /// µop completed execution (result written back).
    Writeback,
    /// µop retired.
    Commit {
        /// Position within this cycle's retire group.
        slot: u16,
    },
    /// Pipeline squash; `seq` is the boundary — every µop younger than it
    /// was discarded.
    Squash {
        /// What triggered the squash.
        cause: SquashCause,
        /// In-flight µops discarded (the squashing µop itself excluded).
        squashed: u32,
    },
    /// A used value prediction was checked against the computed result at
    /// execute (a reissued µop validates again on re-execution).
    VpValidate {
        /// `true` when predicted and computed values matched.
        correct: bool,
    },
    /// A dependent µop was rolled back for re-execution by selective
    /// reissue.
    Reissue,
    /// Per-cycle attribution record: `span` consecutive cycles starting at
    /// the event's `cycle`, all attributed to `cause` at occupancy `occ`.
    /// Emitted exactly once per simulated cycle (`span > 1` only for
    /// `idle_skip` fast-forward spans, during which no state changes).
    Cycle {
        /// Exclusive attribution of the span.
        cause: CycleCause,
        /// Number of consecutive cycles covered.
        span: u64,
        /// Structure occupancies, constant across the span.
        occ: Occupancy,
    },
    /// The warm-up boundary: counters were snapshotted here; everything
    /// after this event belongs to the measured region.
    MeasureStart,
}

/// One tap record: a cycle stamp, the µop's global sequence number (0 for
/// per-cycle records, which are not tied to a µop) and the typed payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipeEvent {
    /// Cycle the event occurred (start cycle for batched `Cycle` spans).
    pub cycle: u64,
    /// Global dynamic sequence number of the µop (0 for cycle records).
    pub seq: u64,
    /// Typed payload.
    pub kind: PipeEventKind,
}

impl fmt::Display for PipeEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>10}] ", self.cycle)?;
        match self.kind {
            PipeEventKind::Fetch { pc, slot } => {
                write!(f, "seq {:>8}  fetch       slot {slot} pc {pc:#x}", self.seq)
            }
            PipeEventKind::Dispatch { slot } => {
                write!(f, "seq {:>8}  dispatch    slot {slot}", self.seq)
            }
            PipeEventKind::Issue { slot } => {
                write!(f, "seq {:>8}  issue       slot {slot}", self.seq)
            }
            PipeEventKind::Writeback => write!(f, "seq {:>8}  writeback", self.seq),
            PipeEventKind::Commit { slot } => {
                write!(f, "seq {:>8}  commit      slot {slot}", self.seq)
            }
            PipeEventKind::Squash { cause, squashed } => {
                write!(f, "seq {:>8}  squash      {} dropped {squashed}", self.seq, cause.label())
            }
            PipeEventKind::VpValidate { correct } => write!(
                f,
                "seq {:>8}  vp-validate {}",
                self.seq,
                if correct { "correct" } else { "wrong" }
            ),
            PipeEventKind::Reissue => write!(f, "seq {:>8}  reissue", self.seq),
            PipeEventKind::Cycle { cause, span, occ } => write!(
                f,
                "cycle x{span:<6} {:<15} rob={} iq={} lq={} sq={} fq={}",
                cause.label(),
                occ.rob,
                occ.iq,
                occ.lq,
                occ.sq,
                occ.fetch_queue
            ),
            PipeEventKind::MeasureStart => write!(f, "measure-start"),
        }
    }
}

/// A consumer of pipeline events, threaded through the timing model as a
/// monomorphized type parameter.
///
/// Implementors must keep [`event`](PipeEventSink::event) allocation-free —
/// it runs inside the steady-state hot loop that
/// `crates/uarch/tests/zero_alloc.rs` proves allocates nothing per cycle.
pub trait PipeEventSink {
    /// Compile-time switch: when `false` (the [`NullSink`] default) every
    /// emission site folds to dead code and the tap costs literally
    /// nothing.
    const ENABLED: bool = true;

    /// Receive one event. Called only when [`ENABLED`](Self::ENABLED) is
    /// `true`.
    fn event(&mut self, ev: PipeEvent);

    /// Recent-history dump for deadlock panics; sinks that retain a cycle
    /// log return a rendered tail here.
    fn deadlock_tail(&self) -> Option<String> {
        None
    }
}

/// The default sink: keeps the tap compiled out.
///
/// `ENABLED = false` makes every `if T::ENABLED` emission guard a
/// compile-time `false`, so the instantiation the public
/// [`Simulator`](crate::Simulator) entry points use is instruction-for-
/// instruction the pre-tap pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl PipeEventSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn event(&mut self, _ev: PipeEvent) {}
}

/// Fan-out: both halves of a pair receive every event. Compose e.g.
/// `(StallTally, CycleLog)` to aggregate and log in one run.
impl<A: PipeEventSink, B: PipeEventSink> PipeEventSink for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline(always)]
    fn event(&mut self, ev: PipeEvent) {
        if A::ENABLED {
            self.0.event(ev);
        }
        if B::ENABLED {
            self.1.event(ev);
        }
    }

    fn deadlock_tail(&self) -> Option<String> {
        self.0.deadlock_tail().or_else(|| self.1.deadlock_tail())
    }
}

/// A sink that reduces the event stream to a [`StallReport`]: per-cause
/// cycle attribution, occupancy sums and per-stage event counts.
///
/// A [`PipeEventKind::MeasureStart`] record snapshots the running totals,
/// so [`measured`](StallTally::measured) reports the post-warm-up region —
/// aligned with the exact program point where the pipeline snapshots its
/// own counters, which is what makes [`check_conservation`] exact.
///
/// # Examples
///
/// ```
/// use vpsim_uarch::tap::{check_conservation, NullSink, StallTally};
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
/// let result = sim.replay(Executor::new(&program), 200, 1_000, &mut tally);
/// assert_eq!(result, sim.replay(Executor::new(&program), 200, 1_000, &mut NullSink));
/// let report = tally.measured();
/// assert_eq!(report.total_cycles(), result.metrics.cycles);
/// check_conservation(&result, &report).unwrap();
/// # Ok::<(), vpsim_isa::ProgramError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallTally {
    totals: StallReport,
    snapshot: StallReport,
}

impl StallTally {
    /// Whole-run totals (warm-up included).
    pub fn totals(&self) -> &StallReport {
        &self.totals
    }

    /// The measured region: totals since the [`PipeEventKind::MeasureStart`]
    /// snapshot (the whole run when no warm-up boundary was crossed).
    pub fn measured(&self) -> StallReport {
        self.totals.delta(&self.snapshot)
    }
}

impl PipeEventSink for StallTally {
    #[inline(always)]
    fn event(&mut self, ev: PipeEvent) {
        match ev.kind {
            PipeEventKind::Fetch { .. } => self.totals.fetched += 1,
            PipeEventKind::Dispatch { .. } => self.totals.dispatched += 1,
            PipeEventKind::Issue { .. } => self.totals.issued += 1,
            PipeEventKind::Writeback => self.totals.writebacks += 1,
            PipeEventKind::Commit { .. } => self.totals.committed += 1,
            PipeEventKind::Squash { cause, squashed } => {
                match cause {
                    SquashCause::ValueMisprediction => self.totals.vp_squashes += 1,
                    SquashCause::MemoryOrder => self.totals.order_squashes += 1,
                }
                self.totals.squashed_uops += u64::from(squashed);
            }
            PipeEventKind::VpValidate { correct } => {
                self.totals.vp_validations += 1;
                if !correct {
                    self.totals.vp_mispredictions += 1;
                }
            }
            PipeEventKind::Reissue => self.totals.reissued += 1,
            PipeEventKind::Cycle { cause, span, occ } => {
                self.totals.record_cycles(cause, span, occ);
            }
            PipeEventKind::MeasureStart => self.snapshot = self.totals,
        }
    }
}

/// A bounded ring buffer of the most recent events — the raw feed for the
/// cycle-log text viewer (`simulate --cycle-log`) and for deadlock panics.
///
/// The buffer is allocated once at construction; recording an event never
/// allocates (ring overwrite), so the log is safe inside the zero-alloc
/// hot loop.
#[derive(Debug, Clone)]
pub struct CycleLog {
    buf: Vec<PipeEvent>,
    head: usize,
    total: u64,
}

impl CycleLog {
    /// A log retaining the most recent `capacity` events (`capacity > 0`).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "cycle log capacity must be positive");
        CycleLog { buf: Vec::with_capacity(capacity), head: 0, total: 0 }
    }

    /// Events currently retained (`min(total recorded, capacity)`).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum events retained.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Events ever recorded (including those already overwritten).
    pub fn total_events(&self) -> u64 {
        self.total
    }

    /// The most recent `n` events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<PipeEvent> {
        let len = self.buf.len();
        let take = n.min(len);
        let mut out = Vec::with_capacity(take);
        // Chronological order: the ring starts at `head` once it wrapped.
        let start = if len < self.buf.capacity() { 0 } else { self.head };
        for k in (len - take)..len {
            out.push(self.buf[(start + k) % len]);
        }
        out
    }

    /// Render the most recent `n` events as one line each, oldest first.
    pub fn render_tail(&self, n: usize) -> String {
        let mut out = String::new();
        for ev in self.tail(n) {
            out.push_str(&ev.to_string());
            out.push('\n');
        }
        out
    }
}

impl PipeEventSink for CycleLog {
    #[inline(always)]
    fn event(&mut self, ev: PipeEvent) {
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
        }
        self.head = (self.head + 1) % self.buf.capacity();
        self.total += 1;
    }

    fn deadlock_tail(&self) -> Option<String> {
        if self.is_empty() {
            None
        } else {
            Some(format!(
                "last {} of {} tap events:\n{}",
                self.len().min(DEADLOCK_TAIL),
                self.total_events(),
                self.render_tail(DEADLOCK_TAIL)
            ))
        }
    }
}

/// Assert the tap's independent bookkeeping reconciles exactly with the
/// pipeline's own counters for the same measured region.
///
/// The conservation laws checked:
///
/// 1. attributed cycles (all causes) == measured cycles;
/// 2. stall-cause cycles == the pipeline's commit-idle cycle counter
///    (equivalently: `Active` cycles == cycles in which a µop retired);
/// 3. commit events == retired instructions;
/// 4. squash events == value-misprediction + memory-order squash counters,
///    cause by cause;
/// 5. reissue events == reissued-µop counter.
///
/// Returns every violated law, or `Ok(())` when the two witnesses agree.
pub fn check_conservation(result: &RunResult, report: &StallReport) -> Result<(), String> {
    let mut errors = Vec::new();
    let mut check = |law: &str, tap: u64, counters: u64| {
        if tap != counters {
            errors.push(format!("{law}: tap says {tap}, counters say {counters}"));
        }
    };
    check("attributed cycles == measured cycles", report.total_cycles(), result.metrics.cycles);
    check(
        "stall attributions == commit-idle cycles",
        report.stall_cycles(),
        result.stalls.commit_idle_cycles,
    );
    check("commit events == retired instructions", report.committed, result.metrics.instructions);
    check("vp squash events == vp squashes", report.vp_squashes, result.vp_squashes);
    check(
        "memory-order squash events == violations",
        report.order_squashes,
        result.memory_order_violations,
    );
    check("reissue events == reissued µops", report.reissued, result.reissued_uops);
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, seq: u64, kind: PipeEventKind) -> PipeEvent {
        PipeEvent { cycle, seq, kind }
    }

    #[test]
    fn null_sink_is_disabled() {
        const { assert!(!NullSink::ENABLED) };
        assert!(NullSink.deadlock_tail().is_none());
    }

    #[test]
    fn pair_sink_enables_if_either_half_does() {
        const {
            assert!(<(StallTally, NullSink)>::ENABLED);
            assert!(<(NullSink, CycleLog)>::ENABLED);
            assert!(!<(NullSink, NullSink)>::ENABLED);
        }
    }

    #[test]
    fn pair_sink_fans_out_and_prefers_first_tail() {
        let mut pair = (StallTally::default(), CycleLog::with_capacity(4));
        pair.event(ev(3, 7, PipeEventKind::Writeback));
        assert_eq!(pair.0.totals().writebacks, 1);
        assert_eq!(pair.1.len(), 1);
        assert!(pair.deadlock_tail().unwrap().contains("writeback"));
    }

    #[test]
    fn tally_reduces_events_to_a_report() {
        let mut t = StallTally::default();
        t.event(ev(1, 1, PipeEventKind::Fetch { pc: 0x40, slot: 0 }));
        t.event(ev(2, 1, PipeEventKind::Dispatch { slot: 0 }));
        t.event(ev(3, 1, PipeEventKind::Issue { slot: 0 }));
        t.event(ev(4, 1, PipeEventKind::Writeback));
        t.event(ev(5, 1, PipeEventKind::VpValidate { correct: false }));
        t.event(ev(5, 1, PipeEventKind::Reissue));
        t.event(ev(6, 1, PipeEventKind::Commit { slot: 0 }));
        t.event(ev(
            6,
            1,
            PipeEventKind::Squash { cause: SquashCause::ValueMisprediction, squashed: 9 },
        ));
        t.event(ev(7, 2, PipeEventKind::Squash { cause: SquashCause::MemoryOrder, squashed: 2 }));
        let occ = Occupancy::default();
        t.event(ev(1, 0, PipeEventKind::Cycle { cause: CycleCause::Active, span: 5, occ }));
        t.event(ev(6, 0, PipeEventKind::Cycle { cause: CycleCause::MemWait, span: 2, occ }));
        let r = t.totals();
        assert_eq!((r.fetched, r.dispatched, r.issued, r.writebacks, r.committed), (1, 1, 1, 1, 1));
        assert_eq!((r.vp_validations, r.vp_mispredictions, r.reissued), (1, 1, 1));
        assert_eq!((r.vp_squashes, r.order_squashes, r.squashed_uops), (1, 1, 11));
        assert_eq!(r.total_cycles(), 7);
        assert_eq!(r.stall_cycles(), 2);
    }

    #[test]
    fn measure_start_snapshots_the_warmup_region() {
        let mut t = StallTally::default();
        let occ = Occupancy::default();
        t.event(ev(1, 0, PipeEventKind::Cycle { cause: CycleCause::Active, span: 10, occ }));
        t.event(ev(1, 1, PipeEventKind::Commit { slot: 0 }));
        t.event(ev(11, 0, PipeEventKind::MeasureStart));
        t.event(ev(11, 0, PipeEventKind::Cycle { cause: CycleCause::IssueWait, span: 4, occ }));
        t.event(ev(15, 2, PipeEventKind::Commit { slot: 0 }));
        let m = t.measured();
        assert_eq!(m.total_cycles(), 4);
        assert_eq!(m.committed, 1);
        assert_eq!(t.totals().total_cycles(), 14);
        assert_eq!(t.totals().committed, 2);
    }

    #[test]
    fn without_measure_start_measured_equals_totals() {
        let mut t = StallTally::default();
        let occ = Occupancy::default();
        t.event(ev(1, 0, PipeEventKind::Cycle { cause: CycleCause::FetchStarve, span: 3, occ }));
        assert_eq!(t.measured(), *t.totals());
    }

    #[test]
    fn cycle_log_retains_the_most_recent_events_in_order() {
        let mut log = CycleLog::with_capacity(3);
        for i in 0..5u64 {
            log.event(ev(i, i, PipeEventKind::Writeback));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.total_events(), 5);
        let tail: Vec<u64> = log.tail(8).iter().map(|e| e.cycle).collect();
        assert_eq!(tail, vec![2, 3, 4]);
        let tail2: Vec<u64> = log.tail(2).iter().map(|e| e.cycle).collect();
        assert_eq!(tail2, vec![3, 4]);
    }

    #[test]
    fn cycle_log_tail_before_wrap() {
        let mut log = CycleLog::with_capacity(8);
        for i in 0..3u64 {
            log.event(ev(i, i, PipeEventKind::Writeback));
        }
        let tail: Vec<u64> = log.tail(2).iter().map(|e| e.cycle).collect();
        assert_eq!(tail, vec![1, 2]);
        assert!(log.deadlock_tail().unwrap().contains("last 3 of 3"));
    }

    #[test]
    fn event_rendering_is_greppable() {
        let occ = Occupancy { rob: 4, iq: 2, lq: 1, sq: 0, fetch_queue: 3 };
        let lines = [
            ev(10, 5, PipeEventKind::Fetch { pc: 0x400, slot: 2 }).to_string(),
            ev(11, 5, PipeEventKind::VpValidate { correct: true }).to_string(),
            ev(12, 0, PipeEventKind::Cycle { cause: CycleCause::MemWait, span: 7, occ })
                .to_string(),
            ev(13, 9, PipeEventKind::Squash { cause: SquashCause::MemoryOrder, squashed: 3 })
                .to_string(),
            ev(14, 0, PipeEventKind::MeasureStart).to_string(),
        ];
        assert!(lines[0].contains("fetch") && lines[0].contains("0x400"));
        assert!(lines[1].contains("vp-validate correct"));
        assert!(lines[2].contains("mem-wait") && lines[2].contains("x7"));
        assert!(lines[3].contains("memory-order") && lines[3].contains("dropped 3"));
        assert!(lines[4].contains("measure-start"));
    }

    #[test]
    fn conservation_accepts_matching_books_and_names_violations() {
        let mut result = RunResult::default();
        result.metrics.cycles = 10;
        result.metrics.instructions = 6;
        result.stalls.commit_idle_cycles = 4;
        let mut report = StallReport::default();
        report.record_cycles(CycleCause::Active, 6, Occupancy::default());
        report.record_cycles(CycleCause::CommitBlock, 4, Occupancy::default());
        report.committed = 6;
        assert!(check_conservation(&result, &report).is_ok());

        report.committed = 5;
        let err = check_conservation(&result, &report).unwrap_err();
        assert!(err.contains("commit events"), "unexpected error: {err}");
        assert!(err.contains("tap says 5"));
    }
}
