//! Interval sampling with checkpointed fast-forward (the SMARTS/SimPoint
//! discipline adapted to the trace layer).
//!
//! A full detailed replay costs ~330 ns/µop; grid studies over long traces
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
//! [`Checkpoint`] (`vpstate1` binary format, FNV-1a-64 trailer like
//! `vpsres1`): together with the O(1) `TraceCursor::cursor_resume` seek,
//! any interval can be replayed without re-streaming the trace prefix.

use crate::config::CoreConfig;
use crate::result::RunResult;
use vpsim_branch::{Btb, Ras, Tage};
use vpsim_core::state::{StateReader, StateWriter};
use vpsim_core::HistoryState;
use vpsim_isa::{fnv1a, DynInst, Opcode};
use vpsim_mem::MemoryHierarchy;

/// Magic + format version prefix of the [`Checkpoint`] binary form. Bump
/// the trailing digit on any incompatible change to the state layout.
const MAGIC: &[u8; 8] = b"vpstate1";

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
    /// 20 intervals × 10 000 µops, 2 000 µops detailed warmup each —
    /// ≤1 % relative IPC error on the paper grid at a small fraction of
    /// the full replay cost (see "Sampling layer" in ARCHITECTURE.md).
    fn default() -> Self {
        SampleConfig { intervals: 20, period: 10_000, warmup: 2_000 }
    }
}

impl SampleConfig {
    /// Check the knobs are usable.
    ///
    /// # Panics
    ///
    /// Panics if `intervals` or `period` is zero.
    pub fn validate(&self) {
        assert!(self.intervals > 0, "sample.intervals must be positive");
        assert!(self.period > 0, "sample.period must be positive");
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
    pub(crate) measure_per_interval: u64,
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
        sample.validate();
        let period = sample.period.min(measure.max(1));
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

/// Functional-only warmer: streams trace records between sampled
/// intervals, updating exactly the long-lived structures — TAGE, BTB,
/// RAS, global branch/path history, and cache tags/LRU/dirty bits — with
/// no cycle-accurate timing. ~6× cheaper per µop than the detailed model
/// (TAGE training dominates what remains).
#[derive(Debug, Clone)]
pub(crate) struct Warmer {
    tage: Tage,
    btb: Btb,
    ras: Ras,
    mem: MemoryHierarchy,
    hist: HistoryState,
    /// µops processed functionally so far.
    pub(crate) ff_uops: u64,
}

impl Warmer {
    /// Fresh warm state for `cfg` — identical construction to the detailed
    /// machine's front end, so a checkpoint restores into a compatible
    /// geometry.
    pub(crate) fn new(cfg: &CoreConfig) -> Self {
        Warmer {
            tage: Tage::with_defaults(cfg.seed ^ 0xB4A9C),
            btb: Btb::with_defaults(),
            ras: Ras::with_defaults(),
            mem: MemoryHierarchy::new(cfg.mem.clone()),
            hist: HistoryState::default(),
            ff_uops: 0,
        }
    }

    /// Process one trace record: the same predictor/history updates the
    /// detailed fetch and commit stages perform, collapsed to their
    /// committed-path effect (fused predict+train, so the in-flight queue
    /// stays empty and every point is a checkpoint boundary).
    pub(crate) fn warm_uop(&mut self, di: &DynInst) {
        self.ff_uops += 1;
        self.mem.warm_fetch(di.pc);
        let op = di.inst.op;
        if op.is_cond_branch() {
            // Fused predict+train: state-identical to the detailed model's
            // fetch-predict / commit-train pair on the committed path,
            // without the in-flight queue round-trip.
            self.tage.train_committed(di.pc, di.taken, &self.hist);
            self.hist.push_branch(di.pc, di.taken);
        } else if op.is_control() {
            match op {
                Opcode::Call => self.ras.push(di.pc + 4),
                Opcode::Ret => {
                    self.ras.pop();
                }
                Opcode::JumpInd => self.btb.update(di.pc, di.next_pc),
                _ => {}
            }
            self.hist.push_path(di.pc);
        }
        match op {
            Opcode::Load => {
                if let Some(addr) = di.mem_addr {
                    self.mem.warm_load(addr);
                }
            }
            Opcode::Store => {
                if let Some(addr) = di.mem_addr {
                    self.mem.warm_store(addr);
                }
            }
            _ => {}
        }
    }

    /// Serialize the warm structures in checkpoint section order.
    fn state_bytes(&self) -> Vec<u8> {
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

/// The warm structures a detailed interval machine starts from —
/// deserialized from a [`Checkpoint`] and installed over a freshly
/// constructed machine's front end.
pub(crate) struct WarmState {
    pub(crate) tage: Tage,
    pub(crate) btb: Btb,
    pub(crate) ras: Ras,
    pub(crate) mem: MemoryHierarchy,
    pub(crate) hist: HistoryState,
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
    state: Vec<u8>,
}

impl Checkpoint {
    /// Snapshot `warmer` at trace coordinates (`pos`, `payload_pos`).
    pub(crate) fn capture(
        warmer: &Warmer,
        pos: u64,
        payload_pos: u64,
        detailed_warmup: u64,
    ) -> Checkpoint {
        Checkpoint {
            pos,
            payload_pos,
            ff_uops: warmer.ff_uops,
            detailed_warmup,
            state: warmer.state_bytes(),
        }
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

    /// Rebuild the warm structures for `cfg`. Fails with a message (never
    /// a panic) when the state blob does not match `cfg`'s geometry.
    pub(crate) fn restore(&self, cfg: &CoreConfig) -> Result<WarmState, String> {
        let mut r = StateReader::new(&self.state);
        let ghist_lo = r.u64()?;
        let ghist_hi = r.u64()?;
        let path = r.u64()?;
        let hist = HistoryState { ghist: (ghist_hi as u128) << 64 | ghist_lo as u128, path };
        let mut tage = Tage::with_defaults(cfg.seed ^ 0xB4A9C);
        tage.load_state(&mut r)?;
        let mut btb = Btb::with_defaults();
        btb.load_state(&mut r)?;
        let mut ras = Ras::with_defaults();
        ras.load_state(&mut r)?;
        let mut mem = MemoryHierarchy::new(cfg.mem.clone());
        mem.load_warm_state(&mut r)?;
        r.finish()?;
        Ok(WarmState { tage, btb, ras, mem, hist })
    }

    /// Serialize into the `vpstate1` container: magic, the four trace/plan
    /// coordinates, the length-prefixed state blob, and a trailing FNV-1a
    /// 64 checksum over everything before it.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(MAGIC.len() + 5 * 8 + self.state.len() + 8);
        out.extend_from_slice(MAGIC);
        for v in [self.pos, self.payload_pos, self.ff_uops, self.detailed_warmup] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.state.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.state);
        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Deserialize a container produced by [`Checkpoint::to_bytes`].
    /// Rejects bad magic, any size mismatch, and checksum failures — a
    /// single flipped bit anywhere in the record is caught.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, String> {
        let header = MAGIC.len() + 5 * 8;
        if bytes.len() < header + 8 {
            return Err(format!("checkpoint is {} bytes, too short", bytes.len()));
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err("bad magic (not a serialized checkpoint)".to_string());
        }
        let word = |i: usize| {
            u64::from_le_bytes(
                bytes[MAGIC.len() + i * 8..MAGIC.len() + (i + 1) * 8].try_into().unwrap(),
            )
        };
        let state_len = word(4) as usize;
        let want = header + state_len + 8;
        if bytes.len() != want {
            return Err(format!("checkpoint is {} bytes, expected {want}", bytes.len()));
        }
        let body = &bytes[..want - 8];
        let found = u64::from_le_bytes(bytes[want - 8..].try_into().unwrap());
        let expected = fnv1a(body);
        if found != expected {
            return Err(format!(
                "checksum mismatch: computed {expected:#018x}, stored {found:#018x}"
            ));
        }
        Ok(Checkpoint {
            pos: word(0),
            payload_pos: word(1),
            ff_uops: word(2),
            detailed_warmup: word(3),
            state: bytes[header..want - 8].to_vec(),
        })
    }
}

/// The outcome of a sampled replay: one detailed [`RunResult`] per
/// replayed interval, plus the fast-forward accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampledResult {
    /// Detailed measurements of the selected intervals, in trace order.
    pub per_interval: Vec<RunResult>,
    /// µops the functional warmer streamed through (fast-forward volume).
    pub ff_uops: u64,
    /// µops the cycle-accurate model replayed (per-interval detailed
    /// warm-up plus measurement, summed over the replayed intervals) —
    /// the nominal detailed volume the sampled run paid for, comparable
    /// to a full run's `warmup + measure`.
    pub detailed_uops: u64,
}

impl SampledResult {
    /// Number of intervals that actually replayed (the trace may end
    /// before late intervals of a short workload).
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

    /// Per-interval IPC observations, in trace order — the input to the
    /// `vpsim-stats` confidence-interval estimator.
    pub fn interval_ipcs(&self) -> Vec<f64> {
        self.per_interval.iter().map(|r| r.metrics.ipc()).collect()
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
        let cp = Checkpoint::capture(&warmer, 123, 45, 2_000);
        let bytes = cp.to_bytes();
        assert_eq!(Checkpoint::from_bytes(&bytes), Ok(cp));
    }

    #[test]
    fn checkpoint_bytes_detect_bit_flips() {
        let warmer = Warmer::new(&CoreConfig::default());
        let cp = Checkpoint::capture(&warmer, 9, 3, 100);
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
        let cp = Checkpoint::capture(&warmer, 1_000, 0, 500);
        let restored = cp.restore(&cfg).unwrap();
        assert_eq!(restored.hist, warmer.hist);
        assert_eq!(cp.ff_uops(), 1_000);
        assert_eq!(cp.detailed_warmup(), 500);
    }
}
