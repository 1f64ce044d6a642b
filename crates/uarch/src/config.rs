//! Core configuration (paper Table 2).

use vpsim_core::{ConfidenceScheme, PredictorKind};
use vpsim_mem::MemoryConfig;

/// Value-misprediction recovery policy (paper §3.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryPolicy {
    /// Flush everything younger than the mispredicted µop when it commits.
    /// Cheap hardware, high per-event penalty (~40–50 cycles); the paper's
    /// practical proposal, viable once FPC pushes accuracy above 99.5 %.
    SquashAtCommit,
    /// Idealistic 0-cycle selective reissue: at execute time, every µop
    /// that transitively consumed the wrong value re-enters the scheduler
    /// immediately. Value-speculatively issued µops hold their IQ entries
    /// until they become non-speculative (§7.2.1).
    SelectiveReissue,
}

impl std::fmt::Display for RecoveryPolicy {
    /// Canonical short name: `squash` or `reissue` (re-parseable by
    /// [`FromStr`](std::str::FromStr)).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RecoveryPolicy::SquashAtCommit => "squash",
            RecoveryPolicy::SelectiveReissue => "reissue",
        })
    }
}

impl std::str::FromStr for RecoveryPolicy {
    type Err = String;

    /// Parse `squash` / `reissue` (long spellings `squash-at-commit` and
    /// `selective-reissue` are accepted too, case-insensitively).
    ///
    /// # Examples
    ///
    /// ```
    /// use vpsim_uarch::RecoveryPolicy;
    ///
    /// let r: RecoveryPolicy = "squash".parse().unwrap();
    /// assert_eq!(r, RecoveryPolicy::SquashAtCommit);
    /// assert_eq!(r.to_string().parse::<RecoveryPolicy>().unwrap(), r);
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "squash" | "squash-at-commit" => Ok(RecoveryPolicy::SquashAtCommit),
            "reissue" | "selective-reissue" => Ok(RecoveryPolicy::SelectiveReissue),
            other => Err(format!("unknown recovery policy {other} (valid: squash, reissue)")),
        }
    }
}

/// Value-prediction configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct VpConfig {
    /// Which predictor to instantiate (paper Table 1 sizing).
    pub kind: PredictorKind,
    /// Confidence flavour (baseline 3-bit vs FPC).
    pub scheme: ConfidenceScheme,
    /// Recovery mechanism.
    pub recovery: RecoveryPolicy,
}

impl VpConfig {
    /// A predictor with the recovery-matched FPC vector from §5.
    pub fn enabled(kind: PredictorKind, recovery: RecoveryPolicy) -> Self {
        let scheme = match recovery {
            RecoveryPolicy::SquashAtCommit => ConfidenceScheme::fpc_squash(),
            RecoveryPolicy::SelectiveReissue => ConfidenceScheme::fpc_reissue(),
        };
        VpConfig { kind, scheme, recovery }
    }

    /// A predictor with the baseline 3-bit confidence counters.
    pub fn baseline_counters(kind: PredictorKind, recovery: RecoveryPolicy) -> Self {
        VpConfig { kind, scheme: ConfidenceScheme::baseline(), recovery }
    }
}

/// Functional-unit pool sizes and latencies (Table 2: "8ALU(1c),
/// 4MulDiv(3c/25c*), 8FP(3c), 4FPMulDiv(5c/10c*), 4Ld/Str; * = not
/// pipelined").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuConfig {
    /// Simple integer ALUs (also execute control µops).
    pub alu_units: usize,
    /// ALU latency.
    pub alu_latency: u64,
    /// Integer multiply/divide units.
    pub muldiv_units: usize,
    /// Integer multiply latency (pipelined).
    pub mul_latency: u64,
    /// Integer divide latency (not pipelined).
    pub div_latency: u64,
    /// FP add-class units.
    pub fp_units: usize,
    /// FP add latency.
    pub fp_latency: u64,
    /// FP multiply/divide units.
    pub fpmuldiv_units: usize,
    /// FP multiply latency (pipelined).
    pub fpmul_latency: u64,
    /// FP divide latency (not pipelined).
    pub fpdiv_latency: u64,
    /// Load ports.
    pub load_ports: usize,
    /// Store ports.
    pub store_ports: usize,
}

impl Default for FuConfig {
    fn default() -> Self {
        FuConfig {
            alu_units: 8,
            alu_latency: 1,
            muldiv_units: 4,
            mul_latency: 3,
            div_latency: 25,
            fp_units: 8,
            fp_latency: 3,
            fpmuldiv_units: 4,
            fpmul_latency: 5,
            fpdiv_latency: 10,
            load_ports: 4,
            store_ports: 4,
        }
    }
}

/// Full core configuration (defaults = paper Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Fetch/decode/rename width in µops.
    pub fetch_width: usize,
    /// Maximum taken branches fetched per cycle.
    pub taken_branches_per_cycle: usize,
    /// Front-end depth in cycles (fetch → dispatch; "slow front-end, 15
    /// cycles").
    pub frontend_depth: u64,
    /// Issue width.
    pub issue_width: usize,
    /// Retire width.
    pub retire_width: usize,
    /// Reorder buffer entries.
    pub rob_entries: usize,
    /// Issue queue entries.
    pub iq_entries: usize,
    /// Load queue entries.
    pub lq_entries: usize,
    /// Store queue entries.
    pub sq_entries: usize,
    /// Integer physical registers.
    pub int_prf: usize,
    /// Floating-point physical registers.
    pub fp_prf: usize,
    /// Store-set SSIT entries (Table 2: 1K-SSID/LFST).
    pub store_set_entries: usize,
    /// Functional units.
    pub fu: FuConfig,
    /// Memory hierarchy.
    pub mem: MemoryConfig,
    /// Value prediction, if enabled.
    pub vp: Option<VpConfig>,
    /// Seed for all randomized structures (FPC LFSRs, TAGE allocation).
    pub seed: u64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            fetch_width: 8,
            taken_branches_per_cycle: 2,
            frontend_depth: 15,
            issue_width: 8,
            retire_width: 8,
            rob_entries: 256,
            iq_entries: 128,
            lq_entries: 48,
            sq_entries: 48,
            int_prf: 256,
            fp_prf: 256,
            store_set_entries: 1024,
            fu: FuConfig::default(),
            mem: MemoryConfig::default(),
            vp: None,
            seed: 0xC0DE_2014,
        }
    }
}

impl CoreConfig {
    /// Builder-style: enable value prediction.
    pub fn with_vp(mut self, vp: VpConfig) -> Self {
        self.vp = Some(vp);
        self
    }

    /// Builder-style: set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// How many functionally-executed µops a captured
    /// [`Trace`](vpsim_isa::Trace) must cover for
    /// [`Simulator::replay`](crate::Simulator::replay) to be
    /// byte-identical to inline execution of `warmup + measure` committed
    /// instructions on this core.
    ///
    /// Fetch can run ahead of commit by at most the fetch-queue capacity
    /// plus the ROB size (squashed µops are refetched from an internal
    /// queue, never re-pulled from the source), so the bound is
    /// `warmup + measure + fetch_queue + rob_entries`. Shorter programs
    /// need only their full length.
    ///
    /// # Examples
    ///
    /// ```
    /// use vpsim_uarch::CoreConfig;
    ///
    /// let c = CoreConfig::default(); // 128-entry fetch queue + 256 ROB
    /// assert_eq!(c.trace_budget(50_000, 200_000), 250_384);
    /// ```
    pub fn trace_budget(&self, warmup: u64, measure: u64) -> u64 {
        warmup
            .saturating_add(measure)
            .saturating_add((crate::pipeline::FETCH_QUEUE + self.rob_entries) as u64)
    }

    /// Check the structural invariants and return the first violation,
    /// naming the offending field: every width and structure size must be
    /// non-zero, each physical register file must cover the architectural
    /// state, and the store-set table must be a power of two.
    /// [`Simulator::new`](crate::Simulator::new) panics with this message;
    /// scenario loading reports it as an error.
    pub fn validate(&self) -> Result<(), String> {
        let sizes = [
            ("fetch_width", self.fetch_width),
            ("taken_branches_per_cycle", self.taken_branches_per_cycle),
            ("issue_width", self.issue_width),
            ("retire_width", self.retire_width),
            ("rob_entries", self.rob_entries),
            ("iq_entries", self.iq_entries),
            ("lq_entries", self.lq_entries),
            ("sq_entries", self.sq_entries),
        ];
        if let Some((name, _)) = sizes.iter().find(|(_, v)| *v == 0) {
            return Err(format!("{name} must be > 0"));
        }
        if self.frontend_depth == 0 {
            return Err("frontend_depth must be >= 1".into());
        }
        for (name, v) in [("int_prf", self.int_prf), ("fp_prf", self.fp_prf)] {
            if v < 64 {
                return Err(format!("{name} must be >= 64 to cover architectural state"));
            }
        }
        if !self.store_set_entries.is_power_of_two() {
            return Err("store_set_entries must be a power of two".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table2() {
        let c = CoreConfig::default();
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.rob_entries, 256);
        assert_eq!(c.iq_entries, 128);
        assert_eq!(c.lq_entries, 48);
        assert_eq!(c.sq_entries, 48);
        assert_eq!(c.int_prf, 256);
        assert_eq!(c.fp_prf, 256);
        assert_eq!(c.frontend_depth, 15);
        assert_eq!(c.fu.alu_units, 8);
        assert_eq!(c.fu.div_latency, 25);
        assert!(c.vp.is_none());
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn vp_config_picks_matching_fpc_vector() {
        let squash = VpConfig::enabled(PredictorKind::Vtage, RecoveryPolicy::SquashAtCommit);
        assert_eq!(squash.scheme, ConfidenceScheme::fpc_squash());
        let reissue = VpConfig::enabled(PredictorKind::Vtage, RecoveryPolicy::SelectiveReissue);
        assert_eq!(reissue.scheme, ConfidenceScheme::fpc_reissue());
        let base = VpConfig::baseline_counters(PredictorKind::Lvp, RecoveryPolicy::SquashAtCommit);
        assert_eq!(base.scheme, ConfidenceScheme::baseline());
    }

    #[test]
    fn builders_compose() {
        let c = CoreConfig::default()
            .with_seed(7)
            .with_vp(VpConfig::enabled(PredictorKind::Vtage, RecoveryPolicy::SquashAtCommit));
        assert_eq!(c.seed, 7);
        assert!(c.vp.is_some());
    }

    #[test]
    #[should_panic(expected = "rob_entries must be > 0")]
    fn zero_rob_is_rejected() {
        let c = CoreConfig { rob_entries: 0, ..CoreConfig::default() };
        crate::Simulator::new(c);
    }

    #[test]
    fn zero_taken_branches_per_cycle_is_rejected() {
        let c = CoreConfig { taken_branches_per_cycle: 0, ..CoreConfig::default() };
        assert!(c.validate().unwrap_err().contains("taken_branches_per_cycle"));
    }

    #[test]
    fn recovery_policy_round_trips() {
        for r in [RecoveryPolicy::SquashAtCommit, RecoveryPolicy::SelectiveReissue] {
            assert_eq!(r.to_string().parse::<RecoveryPolicy>().unwrap(), r);
        }
        assert_eq!(
            "squash-at-commit".parse::<RecoveryPolicy>(),
            Ok(RecoveryPolicy::SquashAtCommit)
        );
        let err = "rollback".parse::<RecoveryPolicy>().unwrap_err();
        assert!(err.contains("squash") && err.contains("reissue"), "{err}");
    }
}
