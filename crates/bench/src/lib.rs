//! Experiment harness for the vpsim reproduction: the parallel sweep
//! engine, the per-table/figure experiment functions, and the `paper`,
//! `simulate` and `sweep` binaries.
//!
//! * [`runner`] — simulation sizing ([`RunSettings`]) and per-suite result
//!   bookkeeping ([`SuiteResults`]).
//! * [`sweep`] — the deterministic parallel sweep engine: a declarative
//!   [`sweep::SweepSpec`] grid expanded into independent jobs, executed on
//!   a scoped worker pool with a bounded work queue, and merged in job
//!   order so parallel output is bit-identical to serial.
//! * [`trace_cache`] — capture-once / replay-many: each workload's dynamic
//!   instruction trace is captured once per process (or mapped from the
//!   on-disk trace store) and shared (`Arc<Trace>`) across every grid
//!   cell, worker thread and experiment. Every simulation replays a
//!   trace; there is no inline-execution path.
//! * [`store`] / [`protocol`] / [`remote`] — the service layer: the
//!   persistent on-disk trace store and per-cell result cache, the
//!   newline-delimited wire protocol shared with the `vpsim-serve` job
//!   server, and the `sweep --remote` client.
//! * [`experiments`] — one function per table/figure of the paper, each
//!   returning a [`vpsim_stats::table::Table`] whose rows mirror what the
//!   paper reports. See `ARCHITECTURE.md` at the repository root for the
//!   paper-concept-to-crate map.
//!
//! # Examples
//!
//! Run a two-benchmark grid on two worker threads:
//!
//! ```
//! use vpsim_bench::sweep::run_grid;
//! use vpsim_bench::RunSettings;
//!
//! let s = RunSettings { warmup: 1_000, measure: 5_000, threads: 2, ..RunSettings::default() };
//! let benches = vpsim_workloads::all_benchmarks();
//! let suites = run_grid(&s, &benches[..2], &[s.core()]);
//! assert_eq!(suites.len(), 1);
//! assert_eq!(suites[0].rows.len(), 2);
//! ```

pub mod experiments;
pub mod protocol;
pub mod remote;
pub mod runner;
pub mod scenario;
pub mod store;
pub mod sweep;
pub mod trace_cache;

pub use protocol::{Format, View};
pub use runner::{RunSettings, SuiteResults};
pub use scenario::{Scenario, ScenarioBuilder};
pub use store::{ResultCache, Stores, TraceStore};
pub use sweep::{SweepResults, SweepSpec, SweepTiming};
pub use trace_cache::TraceCache;
pub use vpsim_uarch::RunResult;
