//! Interval sampling with checkpointed fast-forward (the SMARTS/SimPoint
//! discipline adapted to the trace layer).
//!
//! A full detailed replay is expensive, and grid studies over long traces
//! only need *relative* IPC across predictor/recovery cells. Sampled mode
//! partitions the measured region of a captured trace into fixed-size
//! intervals of [`SampleConfig::period`] µops, deterministically selects
//! [`SampleConfig::intervals`] of them (systematic sampling seeded by the
//! scenario seed), and runs the detailed timing model only inside the
//! selected intervals. Between intervals the crate-private `Warmer` streams the trace
//! functionally — branch predictors, BTB, RAS, global history and cache
//! tags are updated with no cycle accounting — so long-lived
//! microarchitectural state is warm when each interval begins. Short-lived
//! state (value predictor tables' in-flight protocol, store sets, MSHRs,
//! DRAM timing) is re-established by [`SampleConfig::warmup`] detailed
//! µops at the head of every interval, whose statistics are discarded.
//!
//! The end-of-fast-forward state is captured in a serializable
//! [`Checkpoint`] (a `vpstate2` frame, see `vpsim_isa::frame`): together
//! with the O(1) `Trace::cursor_resume` seek, any interval can be
//! replayed without re-streaming the trace prefix. A checkpoint records
//! the identity of the trace it was taken on and refuses any other.
//!
//! A sampled run is two halves: `Simulator::sample_checkpoints` (one
//! fast-forward pass, yielding every selected interval's checkpoint) and
//! `Simulator::run_sampled_from` (the one interval-replay loop).
//! `Simulator::run_sampled` composes them. The warm state depends only on
//! the trace, the plan, the seed and the memory hierarchy — never on the
//! value predictor, confidence scheme or recovery policy — so the sweep
//! engine streams each workload once and shares its checkpoints across
//! all of that workload's cells.

use crate::config::CoreConfig;
use crate::result::RunResult;
use vpsim_branch::{Btb, Ras, Tage};
use vpsim_core::state::{StateReader, StateWriter};
use vpsim_core::HistoryState;
use vpsim_isa::{frame, DynInst, Opcode, TraceDecodeError};
use vpsim_mem::MemoryHierarchy;

/// Magic + format version of the [`Checkpoint`] frame. Bump the digit on
/// any incompatible change to the state layout.
const MAGIC: &[u8; 8] = b"vpstate2";

/// `u64` fields of a checkpoint's first section: the four coordinates
/// and the three words of the trace identity.
const N_FIELDS: usize = 7;

/// Sampled-replay knobs (scenario keys `sample.intervals`,
/// `sample.period`, `sample.warmup`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SampleConfig {
    /// Number of intervals to replay in detail (K). Clamped to the number
    /// of whole periods the measured region contains.
    pub intervals: u64,
    /// Interval length in committed µops (P).
    pub period: u64,
    /// Detailed (timed, discarded) warmup µops at the head of each
    /// interval (W), re-establishing the short-lived state the functional
    /// warmer does not track.
    pub warmup: u64,
}

impl Default for SampleConfig {
    /// 20 intervals × 10 000 µops, 2 000 µops detailed warmup each, at a
    /// small fraction of the full replay cost (see "Sampling layer" in
    /// ARCHITECTURE.md). Its accuracy is uneven: 0.05 % (baseline) and
    /// 0.51 % (VTAGE) relative IPC error on a 10M-µop gzip run
    /// (`BENCH_sampling.json`), but up to 13–18 % on the worst cell of
    /// perfbench's sampled-long workload (ROADMAP item 2).
    fn default() -> Self {
        SampleConfig { intervals: 20, period: 10_000, warmup: 2_000 }
    }
}

impl SampleConfig {
    /// Check the knobs are usable and return the first violation: a zero
    /// interval count or period selects nothing. A sampled run panics with
    /// this message; scenario loading reports it as an error.
    pub fn validate(&self) -> Result<(), String> {
        if self.intervals == 0 {
            return Err("sample.intervals must be > 0 (intervals replayed in detail)".into());
        }
        if self.period == 0 {
            return Err("sample.period must be > 0 (interval length in µops)".into());
        }
        Ok(())
    }
}

/// The deterministic interval selection for one run: which intervals of
/// the measured region replay in detail, and where their detailed warmup
/// begins.
#[derive(Debug, Clone)]
pub(crate) struct SamplePlan {
    /// First measured µop (the run-level warmup length).
    region_start: u64,
    /// Detailed measure length per interval.
    measure_per_interval: u64,
    /// Detailed warmup requested per interval (clamped at trace start).
    detailed_warmup: u64,
    /// Selected interval indices, ascending.
    selected: Vec<u64>,
}

impl SamplePlan {
    /// Systematic selection: the region `[warmup, warmup + measure)` holds
    /// `N = measure / period` whole intervals (one truncated interval when
    /// `measure < period`); `K = min(intervals, N)` of them are picked at
    /// stride `N / K` starting from offset `seed % stride`. The same
    /// (settings, seed) always selects the same intervals.
    pub(crate) fn new(warmup: u64, measure: u64, sample: SampleConfig, seed: u64) -> SamplePlan {
        sample.validate().unwrap_or_else(|e| panic!("{e}"));
        let period = Self::interval_len(measure, sample);
        let num_intervals = (measure / period).max(1);
        let k = sample.intervals.min(num_intervals);
        let stride = num_intervals / k;
        let offset = seed % stride;
        let selected = (0..k).map(|j| offset + j * stride).collect();
        SamplePlan {
            region_start: warmup,
            measure_per_interval: period,
            detailed_warmup: sample.warmup,
            selected,
        }
    }

    /// Measured µops per interval: the period, or the whole region when
    /// it is shorter than one period (a single truncated interval).
    pub(crate) fn interval_len(measure: u64, sample: SampleConfig) -> u64 {
        sample.period.min(measure.max(1))
    }

    /// `(detailed_start, detailed_warmup)` per selected interval, in trace
    /// position order. `detailed_start` is the trace position where the
    /// detailed machine begins (interval start minus warmup, clamped at
    /// the trace head — commit order equals trace order, so committed-µop
    /// counts are trace positions).
    pub(crate) fn detailed_starts(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.selected.iter().map(move |idx| {
            let interval_start = self.region_start + idx * self.measure_per_interval;
            let start = interval_start.saturating_sub(self.detailed_warmup);
            (start, interval_start - start)
        })
    }
}

/// The long-lived front-end structures a detailed machine starts from:
/// cold for a full replay, warmed by the `Warmer` and restored from a
/// [`Checkpoint`] for a sampled interval.
#[derive(Debug, Clone)]
pub(crate) struct WarmState {
    pub(crate) tage: Tage,
    pub(crate) btb: Btb,
    pub(crate) ras: Ras,
    pub(crate) mem: MemoryHierarchy,
    pub(crate) hist: HistoryState,
}

impl WarmState {
    /// The cold front end for `cfg`, built here only, so a full replay, the
    /// warmer and a restored checkpoint share its seed and geometry.
    pub(crate) fn new(cfg: &CoreConfig) -> Self {
        WarmState {
            tage: Tage::with_defaults(cfg.seed ^ 0xB4A9C),
            btb: Btb::with_defaults(),
            ras: Ras::with_defaults(),
            mem: MemoryHierarchy::new(cfg.mem.clone()),
            hist: HistoryState::default(),
        }
    }

    /// Serialize in [`Checkpoint::restore`]'s load order.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.u64(self.hist.ghist as u64);
        w.u64((self.hist.ghist >> 64) as u64);
        w.u64(self.hist.path);
        self.tage.save_state(&mut w);
        self.btb.save_state(&mut w);
        self.ras.save_state(&mut w);
        self.mem.save_warm_state(&mut w);
        w.into_bytes()
    }
}

/// Functional-only warmer: streams trace records between sampled
/// intervals, updating a [`WarmState`] with no cycle-accurate timing, at
/// about 71 ns/µop (`uarch.ff_ns_per_uop` in `BENCH_sampled_ff.json`).
#[derive(Debug, Clone)]
pub(crate) struct Warmer {
    state: WarmState,
    /// µops processed functionally so far.
    pub(crate) ff_uops: u64,
}

impl Warmer {
    /// A warmer over `cfg`'s cold front end.
    pub(crate) fn new(cfg: &CoreConfig) -> Self {
        Warmer { state: WarmState::new(cfg), ff_uops: 0 }
    }

    /// Process one trace record: the same predictor/history updates the
    /// detailed fetch and commit stages perform, collapsed to their
    /// committed-path effect (fused predict+train, so the in-flight queue
    /// stays empty and every point is a checkpoint boundary).
    pub(crate) fn warm_uop(&mut self, di: &DynInst) {
        self.ff_uops += 1;
        let s = &mut self.state;
        s.mem.warm_fetch(di.pc);
        let op = di.inst.op;
        if op.is_cond_branch() {
            // Fused predict+train: state-identical to the detailed model's
            // fetch-predict / commit-train pair on the committed path,
            // without the in-flight queue round-trip.
            s.tage.train_committed(di.pc, di.taken, &s.hist);
            s.hist.push_branch(di.pc, di.taken);
        } else if op.is_control() {
            match op {
                Opcode::Call => s.ras.push(di.pc + 4),
                Opcode::Ret => {
                    s.ras.pop();
                }
                Opcode::JumpInd => s.btb.update(di.pc, di.next_pc),
                _ => {}
            }
            s.hist.push_path(di.pc);
        }
        match op {
            Opcode::Load => {
                if let Some(addr) = di.mem_addr {
                    s.mem.warm_load(addr);
                }
            }
            Opcode::Store => {
                if let Some(addr) = di.mem_addr {
                    s.mem.warm_store(addr);
                }
            }
            _ => {}
        }
    }
}

/// A serializable microarchitectural checkpoint: the trace coordinates at
/// the end of a fast-forward plus the warm structure state, so a sweep can
/// seek any sampled interval in O(1) without re-streaming the prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    pos: u64,
    payload_pos: u64,
    ff_uops: u64,
    detailed_warmup: u64,
    /// `Trace::identity` of the trace the checkpoint was taken on.
    trace: [u64; 3],
    state: Vec<u8>,
}

impl Checkpoint {
    /// Snapshot `warmer` at coordinates (`pos`, `payload_pos`) of the
    /// trace whose `Trace::identity` is `trace`.
    pub(crate) fn capture(
        warmer: &Warmer,
        trace: [u64; 3],
        pos: u64,
        payload_pos: u64,
        detailed_warmup: u64,
    ) -> Checkpoint {
        Checkpoint {
            pos,
            payload_pos,
            ff_uops: warmer.ff_uops,
            detailed_warmup,
            trace,
            state: warmer.state.to_bytes(),
        }
    }

    /// `Trace::identity` of the trace this checkpoint was taken on.
    pub(crate) fn trace_identity(&self) -> [u64; 3] {
        self.trace
    }

    /// Trace record position the detailed replay resumes from.
    pub fn pos(&self) -> u64 {
        self.pos
    }

    /// Payload-stream position paired with [`Checkpoint::pos`] (feeds
    /// `Trace::cursor_resume` for the O(1) seek).
    pub fn payload_pos(&self) -> u64 {
        self.payload_pos
    }

    /// µops the warmer fast-forwarded through to reach this point.
    pub fn ff_uops(&self) -> u64 {
        self.ff_uops
    }

    /// Detailed (discarded) warmup µops to simulate before measuring.
    pub fn detailed_warmup(&self) -> u64 {
        self.detailed_warmup
    }

    /// Load the warm structures into `cfg`'s cold front end. Fails with a
    /// message (never a panic) when the blob does not match its geometry.
    pub(crate) fn restore(&self, cfg: &CoreConfig) -> Result<WarmState, String> {
        let mut warm = WarmState::new(cfg);
        let mut r = StateReader::new(&self.state);
        let ghist_lo = r.u64()?;
        let ghist_hi = r.u64()?;
        let path = r.u64()?;
        warm.hist = HistoryState { ghist: (ghist_hi as u128) << 64 | ghist_lo as u128, path };
        warm.tage.load_state(&mut r)?;
        warm.btb.load_state(&mut r)?;
        warm.ras.load_state(&mut r)?;
        warm.mem.load_warm_state(&mut r)?;
        r.finish()?;
        Ok(warm)
    }

    /// Serialize into a `vpstate2` frame of two sections: the coordinates,
    /// fast-forward count, detailed warmup and trace identity as seven
    /// little-endian `u64`s, then the warm-state blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        let [records, slots, insts] = self.trace;
        let fields =
            [self.pos, self.payload_pos, self.ff_uops, self.detailed_warmup, records, slots, insts];
        let head: Vec<u8> = fields.iter().flat_map(|v| v.to_le_bytes()).collect();
        frame::encode(MAGIC, &[&head, &self.state])
    }

    /// Deserialize a frame produced by [`Checkpoint::to_bytes`]. Rejects
    /// whatever `frame::decode` rejects (any single flipped bit among it)
    /// and a first section that is not exactly the seven fields.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, TraceDecodeError> {
        let [head, state] = frame::decode(MAGIC, bytes)?;
        let head: &[u8; N_FIELDS * 8] = bytes[head]
            .try_into()
            .map_err(|_| TraceDecodeError::Inconsistent("checkpoint header is not 7 fields"))?;
        let word = |i: usize| u64::from_le_bytes(head[i * 8..i * 8 + 8].try_into().unwrap());
        Ok(Checkpoint {
            pos: word(0),
            payload_pos: word(1),
            ff_uops: word(2),
            detailed_warmup: word(3),
            trace: [word(4), word(5), word(6)],
            state: bytes[state].to_vec(),
        })
    }
}

/// The outcome of a sampled replay: one detailed [`RunResult`] per
/// replayed interval, plus the fast-forward accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampledResult {
    /// Detailed measurements of the selected intervals, in trace order.
    pub per_interval: Vec<RunResult>,
    /// µops the functional warmer streamed through to reach the last
    /// replayed interval (the fast-forward volume the estimate stands on;
    /// zero when no interval replayed).
    pub ff_uops: u64,
    /// µops the cycle-accurate model replayed: per-interval detailed
    /// warm-up plus measurement, summed over the replayed intervals. Only
    /// intervals the trace holds in full replay, so this is exactly what
    /// they committed, comparable to a full run's `warmup + measure`.
    pub detailed_uops: u64,
}

impl SampledResult {
    /// Number of intervals that actually replayed (a program that halts
    /// early holds only its first intervals in full).
    pub fn intervals_replayed(&self) -> u64 {
        self.per_interval.len() as u64
    }

    /// Field-wise sum of the per-interval counters: the sampled stand-in
    /// for a full run's [`RunResult`]. Ratio statistics (IPC, accuracy,
    /// miss rates) of the combined result are the sample estimates; raw
    /// counter magnitudes cover only the sampled µops.
    pub fn combined(&self) -> RunResult {
        let mut total = RunResult::default();
        for r in &self.per_interval {
            total.accumulate(r);
        }
        total
    }

    /// Per-interval CPI observations, in trace order — the input to the
    /// `vpsim-stats` confidence-interval estimator. Every interval commits
    /// the same number of µops (intervals the trace cannot hold in full
    /// are never replayed), so the combined IPC is exactly one over their
    /// mean: estimate CPI, then report IPC as its reciprocal.
    pub fn interval_cpis(&self) -> Vec<f64> {
        self.per_interval.iter().map(|r| r.metrics.cpi()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_selects_systematically_within_the_region() {
        let sample = SampleConfig { intervals: 4, period: 100, warmup: 20 };
        let plan = SamplePlan::new(1_000, 1_000, sample, 7);
        // N = 10 intervals, K = 4, stride = 2, offset = 7 % 2 = 1.
        let starts: Vec<(u64, u64)> = plan.detailed_starts().collect();
        assert_eq!(starts.len(), 4);
        for (j, (start, dwarm)) in starts.iter().enumerate() {
            let idx = 1 + 2 * j as u64;
            assert_eq!(*start, 1_000 + idx * 100 - 20);
            assert_eq!(*dwarm, 20);
        }
    }

    #[test]
    fn plan_clamps_warmup_at_the_trace_head() {
        let sample = SampleConfig { intervals: 1, period: 100, warmup: 500 };
        let plan = SamplePlan::new(0, 100, sample, 0);
        let starts: Vec<(u64, u64)> = plan.detailed_starts().collect();
        assert_eq!(starts, vec![(0, 0)], "interval 0 at region start has no room to warm");
    }

    #[test]
    fn plan_caps_intervals_at_the_region_size() {
        let sample = SampleConfig { intervals: 50, period: 1_000, warmup: 0 };
        let plan = SamplePlan::new(0, 3_000, sample, 9);
        assert_eq!(plan.detailed_starts().count(), 3, "only 3 whole periods exist");
    }

    #[test]
    fn plan_handles_a_region_shorter_than_one_period() {
        let sample = SampleConfig { intervals: 8, period: 10_000, warmup: 100 };
        let plan = SamplePlan::new(500, 2_000, sample, 3);
        let starts: Vec<(u64, u64)> = plan.detailed_starts().collect();
        assert_eq!(starts, vec![(400, 100)]);
        assert_eq!(plan.measure_per_interval, 2_000, "one truncated interval");
    }

    #[test]
    fn plan_is_deterministic_in_the_seed() {
        let sample = SampleConfig::default();
        let a: Vec<_> =
            SamplePlan::new(50_000, 200_000, sample, 0x2014).detailed_starts().collect();
        let b: Vec<_> =
            SamplePlan::new(50_000, 200_000, sample, 0x2014).detailed_starts().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn checkpoint_bytes_round_trip() {
        let warmer = Warmer::new(&CoreConfig::default());
        let cp = Checkpoint::capture(&warmer, [400, 90, 12], 123, 45, 2_000);
        let bytes = cp.to_bytes();
        assert_eq!(Checkpoint::from_bytes(&bytes), Ok(cp));
    }

    #[test]
    fn checkpoint_bytes_detect_bit_flips() {
        let warmer = Warmer::new(&CoreConfig::default());
        let cp = Checkpoint::capture(&warmer, [40, 9, 3], 9, 3, 100);
        let bytes = cp.to_bytes();
        // Probe a spread of positions (the blob is ~large; every 997th byte
        // plus the trailer keeps the test fast while covering all regions).
        for pos in (0..bytes.len()).step_by(997).chain([bytes.len() - 1]) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << (pos % 8);
            assert!(Checkpoint::from_bytes(&corrupt).is_err(), "flip at byte {pos}");
        }
        assert!(Checkpoint::from_bytes(&bytes[..40]).is_err(), "truncated header");
        assert!(Checkpoint::from_bytes(&bytes[..bytes.len() - 1]).is_err(), "truncated trailer");
    }

    #[test]
    fn checkpoint_restores_into_matching_geometry() {
        let cfg = CoreConfig::default();
        let mut warmer = Warmer::new(&cfg);
        // Warm with a synthetic record stream.
        for seq in 0..1_000u64 {
            let di = DynInst {
                seq,
                pc: 0x40 + (seq % 64) * 4,
                index: (seq % 64) as u32,
                inst: vpsim_isa::Inst::default(),
                result: None,
                mem_addr: None,
                store_value: None,
                taken: false,
                next_pc: 0x44 + (seq % 64) * 4,
            };
            warmer.warm_uop(&di);
        }
        let cp = Checkpoint::capture(&warmer, [1_000, 0, 64], 1_000, 0, 500);
        let restored = cp.restore(&cfg).unwrap();
        assert_eq!(restored.hist, warmer.state.hist);
        assert_eq!(cp.ff_uops(), 1_000);
        assert_eq!(cp.detailed_warmup(), 500);
    }
}
