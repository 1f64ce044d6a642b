//! Sweep-as-a-service: a long-running job server over the deterministic
//! sweep engine.
//!
//! The `serve` binary (and the [`start`] library entry point behind it)
//! accepts `.vps` scenarios over a std-only TCP socket using the
//! newline-delimited protocol in [`vpsim_bench::protocol`], prepares them
//! with [`vpsim_bench::sweep::SweepSpec::prepare`], and streams
//! per-cell results back as they complete — in strict job-index order —
//! followed by the final merged table, byte-identical to what a local
//! `sweep` run prints.
//!
//! Persistence comes from [`vpsim_bench::store::Stores`]: with a store
//! directory configured, captured traces survive restarts (and are
//! replayed zero-copy via `mmap` on store hits), and finished grid cells
//! are never simulated twice — a resubmitted scenario is served entirely
//! from the result cache with zero simulations, still byte-identical.
//!
//! Architecture (all `std`, no dependencies):
//!
//! * an accept loop blocked in `accept`, which the one stop path
//!   ([`StopHandle::stop`]) wakes by connecting to the listener;
//! * one handler thread per connection, parsing requests and replying
//!   `ERR <msg>` to malformed input without dropping the connection.
//!   Sockets run with `TCP_NODELAY`, and a reply is flushed only before
//!   the handler waits on a running cell and once at its end, so a
//!   cached resubmission leaves in one write;
//! * a shared worker pool behind a fair [`Scheduler`]: every admitted
//!   job's unsimulated cells queue per job, and workers pick cells
//!   **round-robin across jobs**, so concurrent submissions interleave
//!   instead of serializing — a small grid behind a large one starts
//!   streaming immediately. Results park in each job's index-ordered
//!   reorder buffer, keeping per-connection output deterministic;
//! * admission control: at most `queue_cap` jobs in flight; excess
//!   submissions get `ERR server busy … RETRY-AFTER <ms>`, which the
//!   `sweep --remote` client honours with jittered exponential backoff;
//! * abandoned-job reclamation: when a client disconnects mid-stream the
//!   handler logs the peer and job id, and the scheduler drops the job's
//!   pending cells instead of simulating them for a dead socket
//!   ([`ServeMetrics`] counts it);
//! * graceful shutdown via the `SHUTDOWN` command, a signal (the binary
//!   bridges SIGINT/SIGTERM to [`StopHandle::stop`]), or stdin EOF.
//!
//! See "Service layer" in `ARCHITECTURE.md` at the repository root.

mod scheduler;
mod server;

pub use scheduler::{JobEntry, Scheduler, ServeMetrics};
pub use server::{start, ServerConfig, ServerHandle, StopHandle};
