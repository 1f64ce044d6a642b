//! Simulation run results.

use vpsim_isa::TraceDecodeError;
use vpsim_stats::{BackToBackStats, BranchStats, CacheStats, RunMetrics, VpStats};

/// Per-cause cycle attribution for the front half of the machine.
///
/// Fetch causes are mutually exclusive per cycle; dispatch causes record
/// the *first* structural resource that blocked an otherwise-ready µop in
/// a cycle. Cycles where everything flowed appear in no bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Fetch idle waiting for an unresolved (mispredicted) branch.
    pub fetch_branch_cycles: u64,
    /// Fetch idle on a redirect/refill (I-cache miss fill or post-squash
    /// resume).
    pub fetch_redirect_cycles: u64,
    /// Fetch idle because the fetch queue was full (back-pressure).
    pub fetch_queue_full_cycles: u64,
    /// Dispatch blocked by a full ROB.
    pub dispatch_rob_cycles: u64,
    /// Dispatch blocked by a full issue queue.
    pub dispatch_iq_cycles: u64,
    /// Dispatch blocked by a full load queue.
    pub dispatch_lq_cycles: u64,
    /// Dispatch blocked by a full store queue.
    pub dispatch_sq_cycles: u64,
    /// Dispatch blocked by physical-register exhaustion.
    pub dispatch_prf_cycles: u64,
    /// Cycles in which no µop committed.
    pub commit_idle_cycles: u64,
}

impl StallBreakdown {
    /// Total attributed fetch-stall cycles.
    pub fn fetch_total(&self) -> u64 {
        self.fetch_branch_cycles + self.fetch_redirect_cycles + self.fetch_queue_full_cycles
    }

    /// Total attributed dispatch-stall cycles.
    pub fn dispatch_total(&self) -> u64 {
        self.dispatch_rob_cycles
            + self.dispatch_iq_cycles
            + self.dispatch_lq_cycles
            + self.dispatch_sq_cycles
            + self.dispatch_prf_cycles
    }
}

/// Everything a simulation run reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunResult {
    /// Cycles and committed instructions over the measured region.
    pub metrics: RunMetrics,
    /// Value prediction statistics (coverage, accuracy, …).
    pub vp: VpStats,
    /// Branch prediction statistics.
    pub branch: BranchStats,
    /// L1 instruction cache statistics.
    pub l1i: CacheStats,
    /// L1 data cache statistics.
    pub l1d: CacheStats,
    /// Unified L2 statistics.
    pub l2: CacheStats,
    /// §3.2 back-to-back fetch statistics for VP-eligible µops.
    pub back_to_back: BackToBackStats,
    /// Pipeline squashes triggered by value mispredictions at commit.
    pub vp_squashes: u64,
    /// µops re-executed by the selective reissue mechanism.
    pub reissued_uops: u64,
    /// Memory-order violations (store-set training events).
    pub memory_order_violations: u64,
    /// Cycle attribution for fetch/dispatch/commit stalls.
    pub stalls: StallBreakdown,
}

/// Magic + format version prefix of the [`RunResult`] binary form. Bump
/// the trailing digit on any incompatible change (including adding or
/// reordering counter fields).
const MAGIC: &[u8; 8] = b"vpsres1\n";

/// Number of `u64` counters in the serialized form.
const N_FIELDS: usize = 39;

/// Bytes of the serialized record: magic, counters, checksum.
const RECORD_BYTES: usize = MAGIC.len() + (N_FIELDS + 1) * 8;

impl RunResult {
    /// Serialize into a fixed-size checksummed record: the magic/version
    /// prefix, every counter as a little-endian `u64` in declaration
    /// order, and a trailing FNV-1a 64 checksum. The result cache stores
    /// it as is, and [`RunResult::from_bytes`] is the exact inverse.
    ///
    /// Unlike traces and checkpoints this record is not a
    /// `vpsim_isa::frame`: the repository benchmark's committed reference
    /// digests hash these exact bytes, so the layout is frozen until that
    /// benchmark next changes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(RECORD_BYTES);
        out.extend_from_slice(MAGIC);
        for v in self.field_values() {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&fnv1a(&out).to_le_bytes());
        out
    }

    /// Deserialize a record produced by [`RunResult::to_bytes`]. Rejects
    /// (never panics on) bad magic, any size mismatch, and checksum
    /// failures — a single flipped bit anywhere in the record is caught.
    pub fn from_bytes(bytes: &[u8]) -> Result<RunResult, TraceDecodeError> {
        if bytes.len() < RECORD_BYTES {
            return Err(TraceDecodeError::Truncated);
        }
        if bytes.len() > RECORD_BYTES {
            return Err(TraceDecodeError::TrailingBytes(bytes.len() - RECORD_BYTES));
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(TraceDecodeError::BadMagic);
        }
        let (body, sum) = bytes.split_at(RECORD_BYTES - 8);
        let found = u64::from_le_bytes(sum.try_into().unwrap());
        let expected = fnv1a(body);
        if found != expected {
            return Err(TraceDecodeError::ChecksumMismatch { expected, found });
        }
        let mut result = RunResult::default();
        for (dst, v) in result.field_slots().into_iter().zip(body[MAGIC.len()..].chunks_exact(8)) {
            *dst = u64::from_le_bytes(v.try_into().unwrap());
        }
        Ok(result)
    }

    /// Every counter, in the fixed serialization order.
    fn field_values(&self) -> [u64; N_FIELDS] {
        let mut me = *self;
        me.field_slots().map(|slot| *slot)
    }

    /// Add every counter of `other` into `self` — the combination step of
    /// sampled replay, where per-interval results sum into one estimate.
    /// Ratio statistics (IPC, accuracies, miss rates) of the sum are the
    /// µop-weighted combination of the parts.
    pub(crate) fn accumulate(&mut self, other: &RunResult) {
        let mut rhs = *other;
        let values = rhs.field_slots().map(|slot| *slot);
        for (dst, v) in self.field_slots().into_iter().zip(values) {
            *dst += v;
        }
    }

    /// Subtract every counter of an earlier snapshot of the same machine —
    /// the measured window is `totals().since(&warm_up_snapshot)`.
    pub(crate) fn since(&self, earlier: &RunResult) -> RunResult {
        let mut before = *earlier;
        let values = before.field_slots().map(|slot| *slot);
        let mut delta = *self;
        for (dst, v) in delta.field_slots().into_iter().zip(values) {
            *dst -= v;
        }
        delta
    }

    /// Mutable references to every counter, in the same fixed order as
    /// [`RunResult::field_values`] — the single source of truth for the
    /// wire layout, [`RunResult::accumulate`] and [`RunResult::since`], so
    /// adding a counter touches one list.
    fn field_slots(&mut self) -> [&mut u64; N_FIELDS] {
        [
            &mut self.metrics.cycles,
            &mut self.metrics.instructions,
            &mut self.vp.eligible,
            &mut self.vp.hits,
            &mut self.vp.used,
            &mut self.vp.correct_used,
            &mut self.vp.mispredicted,
            &mut self.vp.correct_unused,
            &mut self.vp.harmless_mispredictions,
            &mut self.branch.conditional,
            &mut self.branch.direction_mispredictions,
            &mut self.branch.target_mispredictions,
            &mut self.branch.unconditional,
            &mut self.l1i.accesses,
            &mut self.l1i.misses,
            &mut self.l1i.prefetches,
            &mut self.l1i.useful_prefetches,
            &mut self.l1d.accesses,
            &mut self.l1d.misses,
            &mut self.l1d.prefetches,
            &mut self.l1d.useful_prefetches,
            &mut self.l2.accesses,
            &mut self.l2.misses,
            &mut self.l2.prefetches,
            &mut self.l2.useful_prefetches,
            &mut self.back_to_back.eligible,
            &mut self.back_to_back.back_to_back,
            &mut self.vp_squashes,
            &mut self.reissued_uops,
            &mut self.memory_order_violations,
            &mut self.stalls.fetch_branch_cycles,
            &mut self.stalls.fetch_redirect_cycles,
            &mut self.stalls.fetch_queue_full_cycles,
            &mut self.stalls.dispatch_rob_cycles,
            &mut self.stalls.dispatch_iq_cycles,
            &mut self.stalls.dispatch_lq_cycles,
            &mut self.stalls.dispatch_sq_cycles,
            &mut self.stalls.dispatch_prf_cycles,
            &mut self.stalls.commit_idle_cycles,
        ]
    }
}

/// FNV-1a 64, the checksum of the [`RunResult`] record.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |hash, &b| (hash ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_result_is_zeroed() {
        let r = RunResult::default();
        assert_eq!(r.metrics.instructions, 0);
        assert_eq!(r.vp_squashes, 0);
    }

    /// A result with every counter distinct, so any field swap or drop in
    /// the serialization order breaks round-tripping.
    fn distinct_result() -> RunResult {
        let mut r = RunResult::default();
        for (i, slot) in r.field_slots().into_iter().enumerate() {
            *slot = 1_000_003u64.wrapping_mul(i as u64 + 1);
        }
        r
    }

    #[test]
    fn since_undoes_accumulate() {
        let a = distinct_result();
        let mut b = RunResult::default();
        for (i, slot) in b.field_slots().into_iter().enumerate() {
            *slot = 7 * i as u64 + 3;
        }
        let mut sum = a;
        sum.accumulate(&b);
        assert_eq!(sum.since(&a), b);
        assert_eq!(a.since(&a), RunResult::default());
    }

    #[test]
    fn result_bytes_round_trip() {
        for r in [RunResult::default(), distinct_result()] {
            let bytes = r.to_bytes();
            assert_eq!(bytes.len(), RECORD_BYTES);
            assert_eq!(RunResult::from_bytes(&bytes), Ok(r));
        }
    }

    #[test]
    fn record_checksum_is_fnv1a_64() {
        // Published FNV-1a 64 vectors: the record layout is frozen.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn result_bytes_detect_any_bit_flip() {
        let bytes = distinct_result().to_bytes();
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << (pos % 8);
            assert!(RunResult::from_bytes(&corrupt).is_err(), "flip at byte {pos}");
        }
    }

    #[test]
    fn result_bytes_reject_size_mismatch() {
        let bytes = distinct_result().to_bytes();
        assert!(RunResult::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut long = bytes.clone();
        long.push(0);
        assert!(RunResult::from_bytes(&long).is_err());
        assert!(RunResult::from_bytes(b"").is_err());
    }
}
