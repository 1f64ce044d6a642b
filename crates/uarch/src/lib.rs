//! Cycle-level out-of-order superscalar core with value-prediction
//! integration — the simulation substrate for the paper's evaluation.
//!
//! The default [`CoreConfig`] reproduces the paper's Table 2 machine:
//! a 4 GHz, 8-wide, 19-cycle-deep pipeline (15-cycle front-end, 4-cycle
//! back-end) with a 256-entry ROB, 128-entry IQ, 48/48-entry LQ/SQ,
//! 256+256 physical registers, store-set memory dependence prediction,
//! full bypass, and the Table 2 functional-unit pools, on top of the
//! `vpsim-branch` front-end predictors and `vpsim-mem` cache hierarchy.
//!
//! Value prediction (from `vpsim-core`) plugs in via [`VpConfig`]:
//! prediction at fetch, predicted values written before dispatch,
//! validation/training at commit, and either of the paper's two recovery
//! schemes ([`RecoveryPolicy`]).
//!
//! The core has one detailed entry point, [`Simulator::replay`], which
//! runs any `vpsim-isa` `InstSource` over a warm-up and a measured window:
//! a pre-captured `Trace`'s cursor (no functional re-execution, see
//! "Trace layer" in `ARCHITECTURE.md`) or the functional `Executor`
//! inline, with byte-identical results. [`CoreConfig::trace_budget`] gives
//! the capture length that makes replay exact. [`Simulator::run_sampled`]
//! estimates a long window from checkpointed intervals ([`sampling`]).
//!
//! The crate also hosts the paper's two analytic models:
//! [`penalty::PenaltyModel`] (§3.1 recovery-cost arithmetic) and
//! [`regfile`] (§4 register-file port cost).
//!
//! For per-cycle observability the pipeline carries an opt-in event tap
//! ([`tap`]): [`Simulator::replay`] streams typed pipeline events into its
//! [`tap::PipeEventSink`] (stall attribution via [`tap::StallTally`], a
//! bounded cycle log via [`tap::CycleLog`]), while [`tap::NullSink`]
//! compiles the tap out — see "Observability internals" in
//! `ARCHITECTURE.md`.
//!
//! # Examples
//!
//! ```
//! use vpsim_uarch::tap::NullSink;
//! use vpsim_uarch::{CoreConfig, Simulator, VpConfig, RecoveryPolicy};
//! use vpsim_core::PredictorKind;
//! use vpsim_isa::{Executor, ProgramBuilder, Reg};
//!
//! let mut b = ProgramBuilder::new();
//! let (i, n) = (Reg::int(1), Reg::int(2));
//! b.load_imm(n, 500);
//! let top = b.bind_label();
//! b.addi(i, i, 1);
//! b.blt(i, n, top);
//! b.halt();
//! let program = b.build()?;
//!
//! let run = |config| {
//!     Simulator::new(config).replay(Executor::new(&program), 0, 10_000, &mut NullSink)
//! };
//! let base = run(CoreConfig::default());
//! let vp = run(
//!     CoreConfig::default()
//!         .with_vp(VpConfig::enabled(PredictorKind::VtageStride, RecoveryPolicy::SquashAtCommit)),
//! );
//! assert!(vp.metrics.ipc() >= base.metrics.ipc() * 0.95);
//! # Ok::<(), vpsim_isa::ProgramError>(())
//! ```

mod config;
pub mod penalty;
mod pipeline;
pub mod regfile;
mod result;
pub mod sampling;
mod storesets;
pub mod tap;
mod window;

pub use config::{CoreConfig, FuConfig, RecoveryPolicy, VpConfig};
pub use pipeline::Simulator;
pub use result::RunResult;
pub use sampling::{Checkpoint, SampleConfig, SampledResult};
pub use storesets::StoreSets;
