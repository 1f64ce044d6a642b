//! # vpsim — Practical Data Value Speculation for Future High-End Processors
//!
//! A from-scratch Rust reproduction of **Perais & Seznec, HPCA 2014**:
//! the VTAGE value predictor, Forward Probabilistic Counters (FPC) for
//! confidence estimation, and commit-time prediction validation — together
//! with the entire simulation substrate the paper's evaluation depends on
//! (an 8-wide out-of-order core, TAGE branch prediction, a cache/DRAM
//! hierarchy and SPEC-analogue workloads).
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! * [`core`] (`vpsim-core`) — the value predictors and confidence schemes
//!   (the paper's contribution): LVP, 2-delta stride, per-path stride,
//!   order-4 FCM, D-FCM, VTAGE, hybrids, gDiff, and the FPC scheme.
//! * [`isa`] (`vpsim-isa`) — the µop ISA, program builder and functional
//!   executor that produce dynamic instruction traces, plus the
//!   capture-once/replay-many trace layer (`Trace`, `TraceCursor`, the
//!   `InstSource` trait) the cycle-level core replays from.
//! * [`branch`] (`vpsim-branch`) — TAGE direction predictor, BTB, RAS.
//! * [`mem`] (`vpsim-mem`) — L1I/L1D/L2 caches, MSHRs, stride prefetcher,
//!   DDR3-1600 timing model.
//! * [`uarch`] (`vpsim-uarch`) — the cycle-level out-of-order core with
//!   value-prediction integration and both recovery schemes.
//! * [`workloads`] (`vpsim-workloads`) — 19 synthetic SPEC CPU2000/2006
//!   benchmark analogues plus microkernels.
//! * [`stats`] (`vpsim-stats`) — counters, metrics and table formatting.
//! * [`mod@bench`] (`vpsim-bench`) — the experiment harness: paper
//!   table/figure reproductions, the deterministic parallel sweep engine
//!   ([`bench::sweep`]), the process-wide capture-once/replay-many trace
//!   cache ([`bench::trace_cache`]), and the declarative scenario layer
//!   ([`bench::scenario`]: `.vps` files, named presets, `--set`
//!   overrides) behind the `paper`, `simulate` and `sweep` binaries,
//!   plus the persistent trace/result stores ([`bench::store`]) and the
//!   wire protocol + client ([`bench::protocol`], [`bench::remote`]) of
//!   the service layer.
//! * [`serve`] (`vpsim-serve`) — sweep-as-a-service: the long-running TCP
//!   job server behind the `serve` binary and `sweep --remote`, streaming
//!   per-cell results and serving repeated scenarios from the persistent
//!   result cache with zero re-simulation.
//!
//! `ARCHITECTURE.md` at the repository root maps the paper's concepts
//! (VTAGE, FPC, validation at commit, squash recovery) to these crates.
//!
//! ## Quickstart
//!
//! ```rust
//! use vpsim::uarch::tap::NullSink;
//! use vpsim::uarch::{CoreConfig, Simulator, VpConfig, RecoveryPolicy};
//! use vpsim::core::PredictorKind;
//! use vpsim::isa::Trace;
//! use vpsim::workloads::microkernels;
//!
//! // Build a small strided-loop program and trace it.
//! let program = microkernels::strided_loop(64, 8);
//! let trace = Trace::capture(&program, CoreConfig::default().trace_budget(0, 100_000));
//!
//! // Replay it without value prediction…
//! let run = |config| Simulator::new(config).replay(trace.cursor(), 0, 100_000, &mut NullSink);
//! let base = run(CoreConfig::default());
//!
//! // …and with a VTAGE value predictor validated at commit.
//! let vp = VpConfig::enabled(PredictorKind::Vtage, RecoveryPolicy::SquashAtCommit);
//! let with_vp = run(CoreConfig::default().with_vp(vp));
//!
//! assert!(with_vp.metrics.ipc() >= base.metrics.ipc() * 0.95);
//! ```

pub use vpsim_bench as bench;
pub use vpsim_branch as branch;
pub use vpsim_core as core;
pub use vpsim_isa as isa;
pub use vpsim_mem as mem;
pub use vpsim_serve as serve;
pub use vpsim_stats as stats;
pub use vpsim_uarch as uarch;
pub use vpsim_workloads as workloads;
