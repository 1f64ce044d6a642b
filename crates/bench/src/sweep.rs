//! Deterministic parallel sweep engine.
//!
//! The paper's headline results are full grids of (workload × predictor ×
//! confidence × recovery) runs. Each grid cell is an independent
//! simulation, so the engine here expands a declarative [`SweepSpec`] into
//! index-numbered jobs, executes them on a [`std::thread::scope`] worker
//! pool fed by a bounded work queue, and merges results **by job index** —
//! the output of a parallel run is bit-identical to a serial run of the
//! same grid, regardless of worker count or scheduling.
//!
//! Three layers, lowest first:
//!
//! * [`run_indexed`] — a generic deterministic parallel map: `N` jobs in,
//!   `N` results out, in index order.
//! * [`run_grid`] — run every benchmark under every [`CoreConfig`] and
//!   fold the results into one [`SuiteResults`] per configuration. All the
//!   simulation-backed experiments in [`crate::experiments`] sit on this.
//! * [`SweepSpec`] / [`SweepResults`] — the declarative cartesian grid
//!   behind the `sweep` binary: predictors × confidence choices × recovery
//!   policies × benchmarks, with long-form and matrix table rendering.
//!
//! # Examples
//!
//! ```
//! use vpsim_bench::sweep::{SchemeChoice, SweepSpec};
//! use vpsim_bench::RunSettings;
//! use vpsim_core::PredictorKind;
//! use vpsim_uarch::RecoveryPolicy;
//! use vpsim_workloads::benchmark;
//!
//! let mut spec = SweepSpec {
//!     settings: RunSettings { warmup: 1_000, measure: 5_000, ..RunSettings::default() },
//!     predictors: vec![PredictorKind::Vtage],
//!     schemes: vec![SchemeChoice::Fpc],
//!     recoveries: vec![RecoveryPolicy::SquashAtCommit],
//!     benches: vec![benchmark("gzip").unwrap()],
//!     ..SweepSpec::default()
//! };
//! let serial = spec.run();
//! spec.settings.threads = 4;
//! let parallel = spec.run();
//! assert_eq!(serial.table().to_csv(), parallel.table().to_csv());
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::runner::{RunSettings, SuiteResults};
use crate::store::{cell_key, Stores, TraceStore};
use crate::trace_cache::TraceCache;
use vpsim_core::{ConfidenceScheme, PredictorKind};
use vpsim_isa::Trace;
use vpsim_stats::mean;
use vpsim_stats::stall::StallReport;
use vpsim_stats::table::{fmt_f, fmt_pct, Table};
use vpsim_uarch::tap::{check_conservation, NullSink, StallTally};
use vpsim_uarch::{CoreConfig, RecoveryPolicy, RunResult, VpConfig};
use vpsim_workloads::Benchmark;

// ---------------------------------------------------------------------------
// Bounded work queue
// ---------------------------------------------------------------------------

/// A bounded multi-producer/multi-consumer queue of job indices.
///
/// `push` blocks while the queue is at capacity; `pop` blocks while it is
/// empty and not yet closed. Closing wakes every waiter: pending `pop`s
/// drain the remaining items and then return `None`, pending `push`es give
/// up. The items are plain indices, so the bound is not about memory —
/// it keeps dispatch FIFO and lets future callers stream jobs from a
/// producer that is itself doing work (e.g. generating grid cells on the
/// fly) without racing ahead of the workers.
struct BoundedQueue {
    cap: usize,
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
}

struct QueueState {
    items: VecDeque<usize>,
    closed: bool,
}

impl BoundedQueue {
    fn new(cap: usize) -> Self {
        BoundedQueue {
            cap: cap.max(1),
            state: Mutex::new(QueueState { items: VecDeque::new(), closed: false }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Enqueue `item`, blocking while full. Returns `false` if the queue
    /// was closed before the item could be enqueued.
    fn push(&self, item: usize) -> bool {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.closed {
                return false;
            }
            if st.items.len() < self.cap {
                st.items.push_back(item);
                self.not_empty.notify_one();
                return true;
            }
            st = self.not_full.wait(st).unwrap();
        }
    }

    /// Dequeue the next item, blocking while empty. Returns `None` once
    /// the queue is closed and drained.
    fn pop(&self) -> Option<usize> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(item) = st.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).unwrap();
        }
    }

    fn close(&self) {
        let mut st = self.state.lock().unwrap();
        st.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Closes the queue if its thread unwinds, so the producer blocked on a
/// full queue cannot deadlock; the panic itself resurfaces when the scope
/// joins the worker.
struct CloseOnPanic<'a>(&'a BoundedQueue);

impl Drop for CloseOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.close();
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic parallel map
// ---------------------------------------------------------------------------

/// Run `jobs` independent jobs on `threads` workers and return their
/// results **in job-index order**.
///
/// `threads <= 1` runs everything serially on the calling thread; any
/// higher count spawns scoped workers fed by a bounded queue. Because each
/// result is written to its own index slot, the returned vector — and
/// therefore anything rendered from it — is identical for every thread
/// count.
///
/// # Examples
///
/// ```
/// use vpsim_bench::sweep::run_indexed;
///
/// let serial = run_indexed(10, 1, |i| i * i);
/// let parallel = run_indexed(10, 4, |i| i * i);
/// assert_eq!(serial, parallel);
/// ```
pub fn run_indexed<T, F>(jobs: usize, threads: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || jobs <= 1 {
        return (0..jobs).map(run).collect();
    }
    let workers = threads.min(jobs);
    let queue = BoundedQueue::new(2 * workers);
    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _guard = CloseOnPanic(&queue);
                while let Some(i) = queue.pop() {
                    let result = run(i);
                    *slots[i].lock().unwrap() = Some(result);
                }
            });
        }
        for i in 0..jobs {
            if !queue.push(i) {
                break; // a worker panicked and closed the queue
            }
        }
        queue.close();
    });
    slots.into_iter().map(|slot| slot.into_inner().unwrap().expect("every job ran")).collect()
}

/// Per-job result slots for [`run_indexed_streamed`], plus the flag the
/// in-order consumer needs to bail out if a worker dies.
struct StreamState<T> {
    slots: Vec<Option<T>>,
    failed: bool,
}

/// Marks the stream failed if its worker unwinds, so the in-order
/// consumer cannot wait forever on a slot that will never fill; the panic
/// itself resurfaces when the scope joins the worker.
struct FailOnPanic<'a, T> {
    state: &'a Mutex<StreamState<T>>,
    ready: &'a Condvar,
}

impl<T> Drop for FailOnPanic<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            if let Ok(mut st) = self.state.lock() {
                st.failed = true;
            }
            self.ready.notify_all();
        }
    }
}

/// Like [`run_indexed`], but additionally invokes `consume(i, &result)`
/// **on the calling thread, in strict job-index order**, as results
/// become available — the streaming primitive behind the job server's
/// per-cell result lines. Returns the full result vector in index order,
/// exactly as [`run_indexed`] does, so streamed and merged views can
/// never disagree.
///
/// With more than one thread, job indices are fed to the worker pool from
/// a scoped producer thread while the calling thread waits on the next
/// unconsumed slot; out-of-order completions simply park in their slots
/// until their turn.
///
/// # Examples
///
/// ```
/// use vpsim_bench::sweep::run_indexed_streamed;
///
/// let mut seen = Vec::new();
/// let results = run_indexed_streamed(10, 4, |i| i * i, |i, &r| seen.push((i, r)));
/// assert_eq!(results, (0..10).map(|i| i * i).collect::<Vec<_>>());
/// assert_eq!(seen, (0..10).map(|i| (i, i * i)).collect::<Vec<_>>());
/// ```
pub fn run_indexed_streamed<T, F, C>(jobs: usize, threads: usize, run: F, mut consume: C) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    C: FnMut(usize, &T),
{
    if threads <= 1 || jobs <= 1 {
        return (0..jobs)
            .map(|i| {
                let result = run(i);
                consume(i, &result);
                result
            })
            .collect();
    }
    let workers = threads.min(jobs);
    let queue = BoundedQueue::new(2 * workers);
    let state = Mutex::new(StreamState { slots: (0..jobs).map(|_| None).collect(), failed: false });
    let ready = Condvar::new();
    let mut out = Vec::with_capacity(jobs);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _close = CloseOnPanic(&queue);
                let _fail = FailOnPanic { state: &state, ready: &ready };
                while let Some(i) = queue.pop() {
                    let result = run(i);
                    state.lock().unwrap().slots[i] = Some(result);
                    ready.notify_all();
                }
            });
        }
        // The producer feeds the queue from its own scoped thread so the
        // calling thread is free to consume strictly in order below.
        scope.spawn(|| {
            for i in 0..jobs {
                if !queue.push(i) {
                    return; // a worker panicked and closed the queue
                }
            }
            queue.close();
        });
        'consume: for i in 0..jobs {
            let mut st = state.lock().unwrap();
            let result = loop {
                if let Some(result) = st.slots[i].take() {
                    break result;
                }
                if st.failed {
                    break 'consume; // the panic resurfaces at scope join
                }
                st = ready.wait(st).unwrap();
            };
            drop(st);
            consume(i, &result);
            out.push(result);
        }
    });
    assert_eq!(out.len(), jobs, "every job ran");
    out
}

// ---------------------------------------------------------------------------
// Configuration grids
// ---------------------------------------------------------------------------

/// Capture (or fetch from the process-wide [`TraceCache`]) one shared
/// trace per benchmark, in parallel on `settings.threads` workers. The
/// budget covers the largest ROB in `configs`, so every grid cell replays
/// byte-identically. With a [`TraceStore`], the in-memory cache falls
/// through to the store before capturing (see
/// [`TraceCache::get_with_store`]). Returns the traces (benchmark order)
/// and how many were captured fresh.
fn prefetch_traces(
    settings: &RunSettings,
    benches: &[Benchmark],
    configs: &[CoreConfig],
    store: Option<&TraceStore>,
) -> (Vec<Arc<Trace>>, usize) {
    let budget = configs
        .iter()
        .map(|c| settings.trace_budget(c))
        .max()
        .unwrap_or_else(|| settings.trace_budget(&settings.core()));
    let captures = run_indexed(benches.len(), settings.threads, |bi| {
        TraceCache::global().get_with_store(settings, &benches[bi], budget, store)
    });
    let fresh = captures.iter().filter(|(_, fresh)| *fresh).count();
    (captures.into_iter().map(|(trace, _)| trace).collect(), fresh)
}

/// Run every benchmark under every configuration and return one
/// [`SuiteResults`] per configuration, in input order.
///
/// Jobs are laid out configuration-major (`configs[0]` over all benchmarks
/// first), executed on `settings.threads` workers, and merged by index, so
/// row order matches a serial double loop exactly. Each benchmark's
/// dynamic trace is captured once, up front and in parallel, and every
/// cell then replays it from the process-wide [`TraceCache`] through
/// [`RunSettings::run_job`].
pub fn run_grid(
    settings: &RunSettings,
    benches: &[Benchmark],
    configs: &[CoreConfig],
) -> Vec<SuiteResults> {
    if benches.is_empty() {
        return configs.iter().map(|_| SuiteResults { rows: Vec::new() }).collect();
    }
    // Captured at the largest budget any configuration needs, so each
    // cell's `run_job` lookup below is an in-memory hit.
    let _traces = prefetch_traces(settings, benches, configs, None);
    let results = run_indexed(configs.len() * benches.len(), settings.threads, |i| {
        let (ci, bi) = (i / benches.len(), i % benches.len());
        settings.run_job(&benches[bi], configs[ci].clone())
    });
    let mut out = Vec::with_capacity(configs.len());
    let mut it = results.into_iter();
    for _ in configs {
        let rows = benches.iter().map(|b| (b.name, it.next().expect("sized exactly"))).collect();
        out.push(SuiteResults { rows });
    }
    out
}

/// Confidence-estimation choice in a sweep grid, resolved against the
/// recovery policy of the same grid point (the paper pairs each recovery
/// scheme with its own FPC probability vector, §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeChoice {
    /// The paper's baseline 3-bit saturating counters.
    Baseline,
    /// Forward Probabilistic Counters, vector matched to the recovery
    /// policy (`fpc_squash` under squash-at-commit, `fpc_reissue` under
    /// selective reissue).
    Fpc,
    /// A plain full counter of the given width (the paper's "simply use
    /// wider counters" alternative).
    Full(u8),
    /// A pinned FPC probability vector (log₂ denominators), independent of
    /// the recovery policy — how scenarios express off-paper FPC ablations
    /// and cross-matched vectors (e.g. the reissue vector under
    /// squash-at-commit recovery).
    FpcVector([u8; 7]),
}

impl SchemeChoice {
    /// Resolve to a concrete [`ConfidenceScheme`] for one grid point.
    pub fn build(self, recovery: RecoveryPolicy) -> ConfidenceScheme {
        match self {
            SchemeChoice::Baseline => ConfidenceScheme::baseline(),
            SchemeChoice::Fpc => match recovery {
                RecoveryPolicy::SquashAtCommit => ConfidenceScheme::fpc_squash(),
                RecoveryPolicy::SelectiveReissue => ConfidenceScheme::fpc_reissue(),
            },
            SchemeChoice::Full(bits) => ConfidenceScheme::full(bits),
            SchemeChoice::FpcVector(v) => ConfidenceScheme::fpc(v),
        }
    }

    /// Short label used in tables and scenario files (`baseline`, `fpc`,
    /// `full6`, `fpc-squash`, `fpc:0.3.3.3.3.4.4`, …). Round-trips through
    /// [`FromStr`](std::str::FromStr).
    pub fn label(self) -> String {
        match self {
            SchemeChoice::Baseline => "baseline".into(),
            SchemeChoice::Fpc => "fpc".into(),
            SchemeChoice::Full(bits) => format!("full{bits}"),
            SchemeChoice::FpcVector(v) => ConfidenceScheme::fpc(v).to_string(),
        }
    }
}

impl std::fmt::Display for SchemeChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

impl std::str::FromStr for SchemeChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        const USAGE: &str =
            "baseline | fpc | full1..full8 | fpc-squash | fpc-reissue | fpc:p0.….p6";
        let lower = s.to_ascii_lowercase();
        match lower.as_str() {
            "baseline" | "base" => return Ok(SchemeChoice::Baseline),
            "fpc" => return Ok(SchemeChoice::Fpc),
            _ => {}
        }
        // Pinned vectors reuse the ConfidenceScheme spellings
        // (`fpc-squash`, `fpc-reissue`, `fpc:p0.….p6`).
        if lower.starts_with("fpc-") || lower.starts_with("fpc:") {
            return match lower.parse::<ConfidenceScheme>() {
                Ok(ConfidenceScheme::Fpc { log2_probs }) => Ok(SchemeChoice::FpcVector(log2_probs)),
                Ok(ConfidenceScheme::Full { bits }) => Ok(SchemeChoice::Full(bits)),
                // Keep the inner detail for malformed vectors ("bad FPC
                // probability", "needs 7 entries"), but quote this axis's
                // own spelling list for unknown names — the inner list
                // omits the plain `fpc` valid here.
                Err(e) if e.starts_with("unknown confidence scheme") => {
                    Err(format!("unknown confidence scheme {s} ({USAGE})"))
                }
                Err(e) => Err(e),
            };
        }
        match lower.strip_prefix("full").and_then(|b| b.parse::<u8>().ok()) {
            Some(bits) if (1..=8).contains(&bits) => Ok(SchemeChoice::Full(bits)),
            _ => Err(format!("unknown confidence scheme {s} ({USAGE})")),
        }
    }
}

/// One cell of the configuration grid (the workload axis is separate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridPoint {
    /// Predictor under test.
    pub kind: PredictorKind,
    /// Confidence estimation choice.
    pub scheme: SchemeChoice,
    /// Misprediction recovery policy.
    pub recovery: RecoveryPolicy,
}

impl GridPoint {
    /// `predictor/scheme/recovery` label, e.g. `VTAGE/fpc/squash`.
    pub fn label(&self) -> String {
        format!("{}/{}/{}", self.kind.label(), self.scheme.label(), self.recovery)
    }

    /// The [`VpConfig`] this point denotes.
    pub fn vp_config(&self) -> VpConfig {
        VpConfig {
            kind: self.kind,
            scheme: self.scheme.build(self.recovery),
            recovery: self.recovery,
        }
    }
}

impl std::fmt::Display for GridPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

impl std::str::FromStr for GridPoint {
    type Err = String;

    /// Parse the `predictor/scheme/recovery` form, e.g. `vtage/fpc/squash`
    /// or `lvp/fpc:0.3.3.3.3.4.4/reissue`.
    ///
    /// # Examples
    ///
    /// ```
    /// use vpsim_bench::sweep::GridPoint;
    ///
    /// let p: GridPoint = "vtage/fpc/squash".parse().unwrap();
    /// assert_eq!(p.to_string().parse::<GridPoint>().unwrap(), p);
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split('/').collect();
        let [kind, scheme, recovery] = parts.as_slice() else {
            return Err(format!("grid point {s} must be predictor/scheme/recovery"));
        };
        Ok(GridPoint {
            kind: kind.trim().parse()?,
            scheme: scheme.trim().parse()?,
            recovery: recovery.trim().parse()?,
        })
    }
}

/// A declarative sweep: the cartesian product of predictors × confidence
/// choices × recovery policies (or an explicit grid-point list), run over
/// a benchmark list, plus the no-VP baseline every speedup is measured
/// against.
#[derive(Debug, Clone, Default)]
pub struct SweepSpec {
    /// Simulation sizing, seed and worker-thread count.
    pub settings: RunSettings,
    /// Predictor axis.
    pub predictors: Vec<PredictorKind>,
    /// Confidence axis.
    pub schemes: Vec<SchemeChoice>,
    /// Recovery axis.
    pub recoveries: Vec<RecoveryPolicy>,
    /// Explicit grid points. `Some` overrides the three cartesian axes —
    /// how scenarios express non-rectangular grids (e.g. the §5 counter
    /// study); `Some(vec![])` runs the baseline alone.
    pub points: Option<Vec<GridPoint>>,
    /// Workload axis (paper Table 3 names and `k:*` microkernels).
    pub benches: Vec<Benchmark>,
    /// Base core configuration every grid cell starts from (structural
    /// overrides; its seed is replaced by `settings.seed` at expansion).
    pub core: CoreConfig,
    /// Optional persistent stores (on-disk trace store and per-cell
    /// result cache). `Default` is fully in-memory; see [`Stores`].
    pub stores: Stores,
}

/// One expanded job of a [`SweepSpec`]: a single (configuration,
/// benchmark) simulation.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// Stable index; results are merged in this order.
    pub index: usize,
    /// Grid point, or `None` for the no-VP baseline.
    pub point: Option<GridPoint>,
    /// Benchmark to run.
    pub bench: Benchmark,
    /// Full core configuration for the run.
    pub config: CoreConfig,
}

impl SweepSpec {
    /// The grid points: the explicit list if one was given, otherwise the
    /// cartesian axes in stable (predictor-major) expansion order.
    pub fn points(&self) -> Vec<GridPoint> {
        if let Some(points) = &self.points {
            return points.clone();
        }
        let mut out = Vec::new();
        for &kind in &self.predictors {
            for &scheme in &self.schemes {
                for &recovery in &self.recoveries {
                    out.push(GridPoint { kind, scheme, recovery });
                }
            }
        }
        out
    }

    /// The core configuration a grid cell starts from: the structural base
    /// with this sweep's seed.
    pub fn base_core(&self) -> CoreConfig {
        self.core.clone().with_seed(self.settings.seed)
    }

    /// Expand into independent jobs: the baseline over every benchmark
    /// first, then every grid point over every benchmark.
    pub fn expand(&self) -> Vec<SweepJob> {
        let mut jobs = Vec::new();
        let mut add = |point: Option<GridPoint>, bench: &Benchmark, config: CoreConfig| {
            jobs.push(SweepJob { index: jobs.len(), point, bench: *bench, config });
        };
        for b in &self.benches {
            add(None, b, self.base_core());
        }
        for point in self.points() {
            for b in &self.benches {
                add(Some(point), b, self.base_core().with_vp(point.vp_config()));
            }
        }
        jobs
    }

    /// Number of simulations the sweep will run (baseline included).
    pub fn job_count(&self) -> usize {
        self.benches.len() * (1 + self.points().len())
    }

    /// Execute the sweep on `self.settings.threads` workers (1 = serial).
    /// Output is bit-identical for every thread count. Each workload's
    /// trace is captured (or fetched from a store) once and shared across
    /// the whole grid via `Arc<Trace>`.
    pub fn run(&self) -> SweepResults {
        self.run_streamed(|_, _| {})
    }

    /// Execute the sweep, invoking `on_cell(job, result)` **in job-index
    /// order** as each grid cell finishes — the engine behind the job
    /// server's per-cell result stream. The returned [`SweepResults`] is
    /// identical to [`SweepSpec::run`]'s (which is just this method with
    /// an empty callback).
    ///
    /// With a persistent result cache configured ([`SweepSpec::stores`]),
    /// every cell is first looked up by its canonical key
    /// ([`crate::store::cell_key`]); cached cells are never simulated —
    /// a fully-cached sweep runs zero simulations and reports
    /// `timing.uops == 0` — and freshly simulated cells are persisted as
    /// they complete. With a trace store configured, the in-memory trace
    /// cache falls through to disk before capturing.
    pub fn run_streamed(&self, mut on_cell: impl FnMut(&SweepJob, &RunResult)) -> SweepResults {
        let prepared = self.prepare();
        // Stream cells in strict job order: leading cached cells go out
        // immediately, the rest as soon as every earlier cell is done.
        let mut emitted = 0;
        while emitted < prepared.jobs.len() {
            match prepared.result(emitted) {
                Some(result) => {
                    on_cell(&prepared.jobs[emitted], &result);
                    emitted += 1;
                }
                None => break,
            }
        }
        if !prepared.sim.is_empty() {
            let replay_start = Instant::now();
            run_indexed_streamed(
                prepared.sim.len(),
                self.settings.threads,
                |k| prepared.run_cell(prepared.sim[k]),
                |_, _| {
                    // `run_cell` already parked the result in its slot;
                    // drain every cell that is now next in line.
                    while emitted < prepared.jobs.len() {
                        match prepared.result(emitted) {
                            Some(result) => {
                                on_cell(&prepared.jobs[emitted], &result);
                                emitted += 1;
                            }
                            None => break,
                        }
                    }
                },
            );
            prepared.note_replay(replay_start.elapsed());
        }
        prepared.finish()
    }

    /// Expand, probe the result cache and prefetch traces — everything up
    /// to (but excluding) simulation — and return the [`PreparedSweep`]
    /// whose cells can then be run in any order from any thread. This is
    /// the unit the `vpsim-serve` scheduler interleaves across jobs.
    pub fn prepare(&self) -> PreparedSweep {
        self.prepare_shard(None)
    }

    /// [`SweepSpec::prepare`] restricted to one shard: with
    /// `Some((i, n))`, only the cells whose `index % n == i` are probed,
    /// simulated and emitted, so `n` processes sharing one persistent
    /// store cover the grid disjointly. The shard results are merged back
    /// into a full table by [`SweepSpec::assemble`] on the client.
    pub fn prepare_shard(&self, shard: Option<(u32, u32)>) -> PreparedSweep {
        let start = Instant::now();
        let jobs = self.expand();
        let emit: Vec<usize> = match shard {
            Some((i, n)) => (0..jobs.len()).filter(|&x| x as u32 % n.max(1) == i).collect(),
            None => (0..jobs.len()).collect(),
        };
        // Probe the persistent result cache: cells finished by any earlier
        // run (or process) are served as-is and never simulated again.
        let cells: Vec<Mutex<Option<RunResult>>> =
            (0..jobs.len()).map(|_| Mutex::new(None)).collect();
        if let Some(cache) = &self.stores.results {
            for &i in &emit {
                *cells[i].lock().unwrap() = cache.load(&cell_key(&self.settings, &jobs[i]));
            }
        }
        let hits = emit.iter().filter(|&&i| cells[i].lock().unwrap().is_some()).count() as u64;
        let sim: Vec<usize> =
            emit.iter().copied().filter(|&i| cells[i].lock().unwrap().is_none()).collect();
        let sampled = self.settings.sample.is_some();
        let mut timing = SweepTiming {
            jobs: emit.len(),
            workloads: self.benches.len(),
            threads: self.settings.threads,
            result_cache_hits: hits,
            sampled,
            ..SweepTiming::default()
        };
        if !sampled {
            timing.uops = sim.len() as u64 * (self.settings.warmup + self.settings.measure);
        }
        let store = self.stores.traces.as_deref();
        let store_base = store.map_or((0, 0), |s| (s.hits(), s.misses()));
        let mut traces = Vec::new();
        if !sim.is_empty() {
            let configs: Vec<CoreConfig> = sim.iter().map(|&i| jobs[i].config.clone()).collect();
            let capture_start = Instant::now();
            let (prefetched, fresh) =
                prefetch_traces(&self.settings, &self.benches, &configs, store);
            timing.capture = capture_start.elapsed();
            timing.captures = fresh;
            traces = prefetched;
        }
        PreparedSweep {
            spec: self.clone(),
            jobs,
            traces,
            cells,
            emit,
            sim,
            sampled,
            detailed_uops: AtomicU64::new(0),
            intervals_replayed: AtomicU64::new(0),
            ff_uops: AtomicU64::new(0),
            store_base,
            replay: Mutex::new(Duration::ZERO),
            timing: Mutex::new(timing),
            start,
        }
    }

    /// Fold index-ordered per-cell results and a timing record into
    /// [`SweepResults`] — the merge half of a sharded run: each worker
    /// returns its cells, the client interleaves them by index and calls
    /// this to rebuild the exact table a local run would print.
    pub fn assemble(&self, cells: Vec<RunResult>, timing: SweepTiming) -> SweepResults {
        assert_eq!(cells.len(), self.job_count(), "one result per expanded cell");
        let mut it = cells.into_iter();
        let mut take_suite = || SuiteResults {
            rows: self
                .benches
                .iter()
                .map(|b| (b.name, it.next().expect("sized exactly")))
                .collect(),
        };
        let baseline = take_suite();
        let points = self.points().into_iter().map(|p| (p, take_suite())).collect();
        SweepResults { baseline, points, timing }
    }

    /// Execute the sweep with a [`StallTally`] attached to every job and
    /// return per-cell stall attribution alongside the run results.
    ///
    /// Each cell's `RunResult` is byte-identical to the corresponding cell
    /// of [`SweepSpec::run`] (the tap observes, it does not perturb), and
    /// each cell's report is checked against its result with
    /// [`check_conservation`] before this returns — a failed law is a bug
    /// in the simulator's accounting and panics with the cell label.
    ///
    /// Stall attribution always replays the full windows;
    /// [`RunSettings::sample`] is ignored on this path (per-cycle
    /// attribution of a sampled estimate would attribute cycles that were
    /// never simulated).
    pub fn run_stall_report(&self) -> StallResults {
        let jobs = self.expand();
        let configs: Vec<CoreConfig> = jobs.iter().map(|j| j.config.clone()).collect();
        let (traces, _) =
            prefetch_traces(&self.settings, &self.benches, &configs, self.stores.traces.as_deref());
        let results: Vec<(RunResult, StallReport)> =
            run_indexed(jobs.len(), self.settings.threads, |i| {
                let mut tally = StallTally::default();
                let result = self.settings.run_trace_with_sink(
                    &traces[i % self.benches.len()],
                    jobs[i].config.clone(),
                    &mut tally,
                );
                (result, tally.measured())
            });
        let cells: Vec<StallCell> = jobs
            .iter()
            .zip(results)
            .map(|(job, (result, stalls))| {
                let cell = StallCell { bench: job.bench.name, point: job.point, result, stalls };
                if let Err(violation) = check_conservation(&cell.result, &cell.stalls) {
                    panic!("stall conservation broken at {}: {violation}", cell.label());
                }
                cell
            })
            .collect();
        StallResults { cells }
    }
}

/// A sweep expanded, cache-probed and trace-prefetched, but not yet
/// simulated: the schedulable unit behind both the local engine and the
/// `vpsim-serve` job server. Workers call [`PreparedSweep::run_cell`] for
/// each index in [`PreparedSweep::sim_indices`] — in any order, from any
/// thread — and results land in index-addressed slots that
/// [`PreparedSweep::result`] reads and [`PreparedSweep::finish`] merges.
///
/// A *sharded* preparation ([`SweepSpec::prepare_shard`]) restricts the
/// probe/simulate/emit set to the cells whose `index % n == i`; the full
/// grid is reassembled on the client via [`SweepSpec::assemble`].
pub struct PreparedSweep {
    spec: SweepSpec,
    jobs: Vec<SweepJob>,
    /// One shared trace per benchmark (empty when every cell came from
    /// the result cache).
    traces: Vec<Arc<Trace>>,
    cells: Vec<Mutex<Option<RunResult>>>,
    emit: Vec<usize>,
    sim: Vec<usize>,
    sampled: bool,
    // Sampled cells report their actual detailed/fast-forward volume,
    // accumulated from the workers as cells finish (the per-cell split
    // depends on how many intervals fit each trace).
    detailed_uops: AtomicU64,
    intervals_replayed: AtomicU64,
    ff_uops: AtomicU64,
    /// Trace-store (hits, misses) at preparation time; [`Self::timing`]
    /// reports the delta. Concurrent jobs sharing one store make the
    /// delta approximate — the counters are store-global — which is
    /// acceptable for a diagnostics line.
    store_base: (u64, u64),
    replay: Mutex<Duration>,
    timing: Mutex<SweepTiming>,
    start: Instant,
}

impl PreparedSweep {
    /// Every expanded job, in index order (the full grid, even sharded —
    /// sharding narrows what runs, not what the grid is).
    pub fn jobs(&self) -> &[SweepJob] {
        &self.jobs
    }

    /// Cell indices this preparation emits (the full grid, or this
    /// shard's subset), ascending.
    pub fn emit_indices(&self) -> &[usize] {
        &self.emit
    }

    /// Cell indices that still need simulating (the emit set minus
    /// result-cache hits), ascending.
    pub fn sim_indices(&self) -> &[usize] {
        &self.sim
    }

    /// The finished result of cell `index`: present for result-cache hits
    /// from the start, and for simulated cells once [`Self::run_cell`]
    /// completes them.
    pub fn result(&self, index: usize) -> Option<RunResult> {
        *self.cells[index].lock().unwrap()
    }

    fn run_sampled_cell(&self, trace: &Trace, config: CoreConfig) -> RunResult {
        let sampled = self.spec.settings.run_trace_sampled(trace, config);
        self.detailed_uops.fetch_add(sampled.detailed_uops, Ordering::Relaxed);
        self.intervals_replayed.fetch_add(sampled.intervals_replayed(), Ordering::Relaxed);
        self.ff_uops.fetch_add(sampled.ff_uops, Ordering::Relaxed);
        sampled.combined()
    }

    /// Simulate cell `index` (callable from any thread, each index at
    /// most once), persist it to the result cache, and park it in its
    /// slot for [`Self::result`] readers.
    pub fn run_cell(&self, index: usize) -> RunResult {
        let job = &self.jobs[index];
        let settings = &self.spec.settings;
        // Jobs are expanded benchmark-major within each grid point, so a
        // job's workload — and its shared trace — is its index modulo the
        // benchmark count.
        let trace = &self.traces[index % self.spec.benches.len()];
        let result = if self.sampled {
            self.run_sampled_cell(trace, job.config.clone())
        } else {
            settings.run_trace_with_sink(trace, job.config.clone(), &mut NullSink)
        };
        if let Some(cache) = &self.spec.stores.results {
            cache.save(&cell_key(settings, job), &result);
        }
        *self.cells[index].lock().unwrap() = Some(result);
        result
    }

    /// Add simulation wall-clock to the timing record (the local engine
    /// times its streamed phase; the job server sums per-job execution).
    pub fn note_replay(&self, elapsed: Duration) {
        *self.replay.lock().unwrap() += elapsed;
    }

    /// The finalized timing record: capture/replay wall-clock, sampled
    /// volumes, and store counter deltas since preparation.
    pub fn timing(&self) -> SweepTiming {
        let mut timing = *self.timing.lock().unwrap();
        timing.replay = *self.replay.lock().unwrap();
        if self.sampled {
            timing.uops = self.detailed_uops.load(Ordering::Relaxed);
            timing.intervals_replayed = self.intervals_replayed.load(Ordering::Relaxed);
            timing.ff_uops = self.ff_uops.load(Ordering::Relaxed);
        }
        if let Some(s) = self.spec.stores.traces.as_deref() {
            timing.trace_store_hits = s.hits().saturating_sub(self.store_base.0);
            timing.trace_store_misses = s.misses().saturating_sub(self.store_base.1);
        }
        timing.total = self.start.elapsed();
        timing
    }

    /// Merge every finished cell into [`SweepResults`]. Panics if a cell
    /// is missing — only an unsharded preparation whose whole grid has
    /// run (or came from the cache) can finish; sharded cells travel back
    /// to the client as `RESULT` frames instead and are merged by
    /// [`SweepSpec::assemble`].
    pub fn finish(&self) -> SweepResults {
        let cells: Vec<RunResult> = self
            .cells
            .iter()
            .map(|cell| cell.lock().unwrap().expect("every cell cached or simulated"))
            .collect();
        self.spec.assemble(cells, self.timing())
    }
}

/// One cell of a [`SweepSpec::run_stall_report`] grid: the configuration
/// point (or the no-VP baseline), its run result, and the measured-region
/// stall attribution.
#[derive(Debug, Clone)]
pub struct StallCell {
    /// Workload name.
    pub bench: &'static str,
    /// Grid point, or `None` for the no-VP baseline.
    pub point: Option<GridPoint>,
    /// The simulation result (byte-identical to the untapped run).
    pub result: RunResult,
    /// Per-cause cycle attribution over the measured region.
    pub stalls: StallReport,
}

impl StallCell {
    /// `benchmark @ predictor/scheme/recovery` label for diagnostics.
    pub fn label(&self) -> String {
        match self.point {
            Some(p) => format!("{} @ {}", self.bench, p.label()),
            None => format!("{} @ baseline", self.bench),
        }
    }
}

/// Results of [`SweepSpec::run_stall_report`], in expansion order
/// (baseline cells first, then each grid point over the benchmark list).
#[derive(Debug, Clone)]
pub struct StallResults {
    /// Per-cell results with stall attribution, conservation-checked.
    pub cells: Vec<StallCell>,
}

impl StallResults {
    /// Long-form table: one row per cell with the configuration columns
    /// followed by [`StallReport::headers`] (total cycles, per-cause
    /// percentages and mean queue occupancies).
    pub fn table(&self) -> Table {
        let mut headers =
            vec!["Benchmark".into(), "Predictor".into(), "Confidence".into(), "Recovery".into()];
        headers.extend(StallReport::headers());
        let mut t = Table::new(headers);
        for cell in &self.cells {
            let mut row = match cell.point {
                Some(p) => {
                    vec![
                        cell.bench.into(),
                        p.kind.label().into(),
                        p.scheme.label(),
                        p.recovery.to_string(),
                    ]
                }
                None => vec![cell.bench.into(), "none".into(), "-".into(), "-".into()],
            };
            row.extend(cell.stalls.cells());
            t.row(row);
        }
        t
    }
}

/// Wall-clock breakdown of one [`SweepSpec::run`]: how long the capture
/// and replay phases took, and how much work they covered. The `sweep`
/// binary serializes this as JSON via `--timing-json` for performance
/// trajectory tracking (`BENCH_sweep.json` at the repository root).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SweepTiming {
    /// Wall-clock of the trace capture/prefetch phase (zero when every
    /// cell came from the result cache).
    pub capture: Duration,
    /// Wall-clock of the simulation (replay) phase.
    pub replay: Duration,
    /// Wall-clock of the whole sweep, expansion and merging included.
    pub total: Duration,
    /// Grid cells in the sweep (baseline rows included), whether
    /// simulated or served from the result cache.
    pub jobs: usize,
    /// Committed µops actually simulated (nominal: each simulated cell
    /// runs its warm-up plus measurement window; endless workloads always
    /// commit the full budget). Cells served from the persistent result
    /// cache contribute nothing — a fully-cached sweep reports zero.
    pub uops: u64,
    /// Distinct workloads in the grid.
    pub workloads: usize,
    /// Traces captured fresh this run (cache misses; hits cost nothing).
    pub captures: usize,
    /// Grid cells served from the persistent result cache (zero without
    /// a configured store).
    pub result_cache_hits: u64,
    /// Workload traces served from the on-disk trace store (zero without
    /// a configured store).
    pub trace_store_hits: u64,
    /// Trace-store lookups that missed (entry absent, corrupt, or too
    /// short for the requested budget).
    pub trace_store_misses: u64,
    /// Worker threads.
    pub threads: usize,
    /// Whether interval sampling ([`RunSettings::sample`]) was on. When
    /// set, `uops` counts the *detailed* µops actually replayed (interval
    /// warm-ups plus measurement windows), not the nominal full windows.
    pub sampled: bool,
    /// Detailed intervals replayed across every sampled cell (zero when
    /// sampling is off).
    pub intervals_replayed: u64,
    /// µops streamed through the functional fast-forward warmer across
    /// every sampled cell (zero when sampling is off).
    pub ff_uops: u64,
}

impl SweepTiming {
    /// Nanoseconds of simulation (replay) wall-clock per committed
    /// µop — the timing model's throughput figure, tracked across PRs in
    /// `BENCH_sweep.json` and reported by the `pipeline_cycle` criterion
    /// bench. Zero when no µops were simulated.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::time::Duration;
    /// use vpsim_bench::sweep::SweepTiming;
    ///
    /// let t = SweepTiming { replay: Duration::from_secs(1), uops: 10_000_000, ..SweepTiming::default() };
    /// assert_eq!(t.ns_per_uop(), 100.0);
    /// ```
    pub fn ns_per_uop(&self) -> f64 {
        if self.uops == 0 {
            return 0.0;
        }
        self.replay.as_secs_f64() * 1e9 / self.uops as f64
    }

    /// Serialize as a small JSON object (no external dependencies; every
    /// field is a number or boolean, so escaping is a non-issue).
    ///
    /// # Examples
    ///
    /// ```
    /// use vpsim_bench::sweep::SweepTiming;
    ///
    /// let json = SweepTiming::default().to_json();
    /// assert!(json.starts_with("{\n"));
    /// assert!(json.contains("\"jobs\": 0"));
    /// assert!(json.contains("\"ns_per_uop\": 0.0"));
    /// ```
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"threads\": {},\n  \"jobs\": {},\n  \
             \"uops\": {},\n  \"workloads\": {},\n  \"captures\": {},\n  \
             \"trace_store_hits\": {},\n  \"trace_store_misses\": {},\n  \
             \"result_cache_hits\": {},\n  \
             \"sampled\": {},\n  \"intervals_replayed\": {},\n  \"ff_uops\": {},\n  \
             \"capture_seconds\": {:.6},\n  \"replay_seconds\": {:.6},\n  \
             \"total_seconds\": {:.6},\n  \"ns_per_uop\": {:.1}\n}}\n",
            self.threads,
            self.jobs,
            self.uops,
            self.workloads,
            self.captures,
            self.trace_store_hits,
            self.trace_store_misses,
            self.result_cache_hits,
            self.sampled,
            self.intervals_replayed,
            self.ff_uops,
            self.capture.as_secs_f64(),
            self.replay.as_secs_f64(),
            self.total.as_secs_f64(),
            self.ns_per_uop(),
        )
    }
}

/// Results of a [`SweepSpec`] run, in expansion order.
#[derive(Debug, Clone)]
pub struct SweepResults {
    /// No-VP baseline results over the benchmark list.
    pub baseline: SuiteResults,
    /// Per-grid-point results, in [`SweepSpec::points`] order.
    pub points: Vec<(GridPoint, SuiteResults)>,
    /// Wall-clock breakdown of the run (capture vs replay phases).
    pub timing: SweepTiming,
}

impl SweepResults {
    /// Long-form table: one row per (grid point, benchmark) with IPC,
    /// speedup over the no-VP baseline, coverage and accuracy, plus a
    /// `g-mean` summary row per point. Baseline rows come first.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "Benchmark".into(),
            "Predictor".into(),
            "Confidence".into(),
            "Recovery".into(),
            "IPC".into(),
            "Speedup".into(),
            "Coverage".into(),
            "Accuracy".into(),
        ]);
        for (name, r) in &self.baseline.rows {
            t.row(vec![
                (*name).into(),
                "none".into(),
                "-".into(),
                "-".into(),
                fmt_f(r.metrics.ipc(), 3),
                fmt_f(1.0, 3),
                "-".into(),
                "-".into(),
            ]);
        }
        for (point, suite) in &self.points {
            let speedups = suite.speedups(&self.baseline);
            for (i, (name, r)) in suite.rows.iter().enumerate() {
                t.row(vec![
                    (*name).into(),
                    point.kind.label().into(),
                    point.scheme.label(),
                    point.recovery.to_string(),
                    fmt_f(r.metrics.ipc(), 3),
                    fmt_f(speedups[i], 3),
                    fmt_pct(r.vp.coverage(), 1),
                    fmt_pct(r.vp.accuracy(), 2),
                ]);
            }
            t.row(vec![
                "g-mean".into(),
                point.kind.label().into(),
                point.scheme.label(),
                point.recovery.to_string(),
                String::new(),
                fmt_f(mean::geometric(&speedups).unwrap_or(1.0), 3),
                String::new(),
                String::new(),
            ]);
        }
        t
    }

    /// Matrix view: benchmarks as rows, one speedup column per grid
    /// point, with a final `g-mean` row.
    pub fn matrix(&self) -> Table {
        let mut headers = vec!["Benchmark".into()];
        headers.extend(self.points.iter().map(|(p, _)| p.label()));
        let mut t = Table::new(headers);
        let speedups: Vec<Vec<f64>> =
            self.points.iter().map(|(_, suite)| suite.speedups(&self.baseline)).collect();
        for (i, (name, _)) in self.baseline.rows.iter().enumerate() {
            let mut row = vec![(*name).to_string()];
            row.extend(speedups.iter().map(|col| fmt_f(col[i], 3)));
            t.row(row);
        }
        let mut grow = vec!["g-mean".to_string()];
        grow.extend(speedups.iter().map(|col| fmt_f(mean::geometric(col).unwrap_or(1.0), 3)));
        t.row(grow);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpsim_workloads::benchmark;

    fn tiny() -> RunSettings {
        RunSettings { warmup: 1_000, measure: 5_000, seed: 7, ..RunSettings::default() }
    }

    #[test]
    fn run_indexed_is_order_deterministic() {
        let serial = run_indexed(23, 1, |i| i * 3 + 1);
        for threads in [2, 4, 8] {
            assert_eq!(run_indexed(23, threads, |i| i * 3 + 1), serial);
        }
    }

    #[test]
    fn run_indexed_handles_edge_counts() {
        assert!(run_indexed(0, 4, |i| i).is_empty());
        assert_eq!(run_indexed(1, 4, |i| i + 10), vec![10]);
        // More workers than jobs.
        assert_eq!(run_indexed(2, 16, |i| i), vec![0, 1]);
    }

    #[test]
    fn queue_drains_after_close() {
        let q = BoundedQueue::new(4);
        assert!(q.push(1));
        assert!(q.push(2));
        q.close();
        assert!(!q.push(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn scheme_choice_parses_and_labels() {
        assert_eq!("baseline".parse::<SchemeChoice>().unwrap(), SchemeChoice::Baseline);
        assert_eq!("fpc".parse::<SchemeChoice>().unwrap(), SchemeChoice::Fpc);
        assert_eq!("full6".parse::<SchemeChoice>().unwrap(), SchemeChoice::Full(6));
        assert!("full0".parse::<SchemeChoice>().is_err());
        assert!("full9".parse::<SchemeChoice>().is_err());
        assert!("nonsense".parse::<SchemeChoice>().is_err());
        assert_eq!(SchemeChoice::Full(6).label(), "full6");
    }

    #[test]
    fn malformed_fpc_spellings_quote_this_axis_spelling_list() {
        let err = "fpc-bogus".parse::<SchemeChoice>().unwrap_err();
        assert!(err.contains("| fpc |"), "{err}");
        // Vector-shape errors keep the more specific inner message.
        let err = "fpc:1.2.3".parse::<SchemeChoice>().unwrap_err();
        assert!(err.contains("7 entries"), "{err}");
    }

    #[test]
    fn pinned_fpc_vectors_parse_and_round_trip() {
        let squash = "fpc-squash".parse::<SchemeChoice>().unwrap();
        assert_eq!(squash, SchemeChoice::FpcVector([0, 4, 4, 4, 4, 5, 5]));
        // A pinned vector ignores the recovery policy — unlike `fpc`.
        assert_eq!(squash.build(RecoveryPolicy::SelectiveReissue), ConfidenceScheme::fpc_squash());
        for text in ["fpc-squash", "fpc-reissue", "fpc:0.2.2.2.2.3.3"] {
            let choice = text.parse::<SchemeChoice>().unwrap();
            assert_eq!(choice.label(), text);
            assert_eq!(choice.label().parse::<SchemeChoice>().unwrap(), choice);
        }
    }

    #[test]
    fn grid_point_round_trips() {
        for text in ["vtage/fpc/squash", "LVP/full6/reissue", "o4-FCM/fpc:0.3.3.3.3.4.4/squash"] {
            let p: GridPoint = text.parse().unwrap();
            assert_eq!(p.to_string().parse::<GridPoint>().unwrap(), p, "{text}");
        }
        assert!("vtage/fpc".parse::<GridPoint>().is_err());
        assert!("vtage/fpc/squash/extra".parse::<GridPoint>().is_err());
    }

    #[test]
    fn explicit_points_override_cartesian_axes() {
        let explicit = vec![
            GridPoint {
                kind: PredictorKind::Oracle,
                scheme: SchemeChoice::Fpc,
                recovery: RecoveryPolicy::SquashAtCommit,
            },
            GridPoint {
                kind: PredictorKind::Lvp,
                scheme: SchemeChoice::Full(6),
                recovery: RecoveryPolicy::SelectiveReissue,
            },
        ];
        let spec = SweepSpec {
            settings: tiny(),
            predictors: vec![PredictorKind::Vtage],
            schemes: vec![SchemeChoice::Fpc],
            recoveries: vec![RecoveryPolicy::SquashAtCommit],
            points: Some(explicit.clone()),
            benches: vec![benchmark("gzip").unwrap()],
            ..SweepSpec::default()
        };
        assert_eq!(spec.points(), explicit);
        assert_eq!(spec.job_count(), 3);
        // An empty explicit grid runs the baseline alone.
        let baseline_only = SweepSpec { points: Some(Vec::new()), ..spec };
        assert_eq!(baseline_only.job_count(), 1);
    }

    #[test]
    fn base_core_carries_overrides_and_sweep_seed() {
        let spec = SweepSpec {
            settings: tiny(),
            core: CoreConfig { fetch_width: 4, ..CoreConfig::default() },
            benches: vec![benchmark("gzip").unwrap()],
            ..SweepSpec::default()
        };
        let core = spec.base_core();
        assert_eq!(core.fetch_width, 4);
        assert_eq!(core.seed, spec.settings.seed);
        assert_eq!(spec.expand()[0].config, core);
    }

    #[test]
    fn fpc_choice_matches_recovery_vector() {
        assert_eq!(
            SchemeChoice::Fpc.build(RecoveryPolicy::SquashAtCommit),
            ConfidenceScheme::fpc_squash()
        );
        assert_eq!(
            SchemeChoice::Fpc.build(RecoveryPolicy::SelectiveReissue),
            ConfidenceScheme::fpc_reissue()
        );
        assert_eq!(
            SchemeChoice::Baseline.build(RecoveryPolicy::SquashAtCommit),
            ConfidenceScheme::baseline()
        );
    }

    #[test]
    fn spec_expands_baseline_first_in_stable_order() {
        let spec = SweepSpec {
            settings: tiny(),
            predictors: vec![PredictorKind::Lvp, PredictorKind::Vtage],
            schemes: vec![SchemeChoice::Fpc],
            recoveries: vec![RecoveryPolicy::SquashAtCommit, RecoveryPolicy::SelectiveReissue],
            benches: vec![benchmark("gzip").unwrap(), benchmark("mcf").unwrap()],
            ..SweepSpec::default()
        };
        let jobs = spec.expand();
        assert_eq!(jobs.len(), spec.job_count());
        assert_eq!(jobs.len(), 2 * (1 + 4));
        assert!(jobs[0].point.is_none() && jobs[1].point.is_none());
        assert_eq!(jobs[0].bench.name, "gzip");
        assert_eq!(jobs[1].bench.name, "mcf");
        let p = jobs[2].point.unwrap();
        assert_eq!(p.kind, PredictorKind::Lvp);
        assert_eq!(p.recovery, RecoveryPolicy::SquashAtCommit);
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.index, i);
        }
    }

    #[test]
    fn grid_matches_individual_runs() {
        let s = tiny();
        let benches = [benchmark("gzip").unwrap(), benchmark("h264ref").unwrap()];
        let vp = s
            .core()
            .with_vp(VpConfig::enabled(PredictorKind::Vtage, RecoveryPolicy::SquashAtCommit));
        let grids = run_grid(&s, &benches, &[s.core(), vp.clone()]);
        assert_eq!(grids.len(), 2);
        let inline = |b: &Benchmark, config: CoreConfig| {
            vpsim_uarch::Simulator::new(config).run_with_warmup(
                &(b.build)(&s.params()),
                s.warmup,
                s.measure,
            )
        };
        assert_eq!(grids[0].rows[0].1, inline(&benches[0], s.core()));
        assert_eq!(grids[1].rows[1].1, inline(&benches[1], vp));
    }

    #[test]
    fn timing_json_carries_the_phase_breakdown() {
        let spec = SweepSpec {
            settings: tiny(),
            predictors: vec![PredictorKind::Lvp],
            schemes: vec![SchemeChoice::Fpc],
            recoveries: vec![RecoveryPolicy::SquashAtCommit],
            benches: vec![benchmark("gzip").unwrap()],
            ..SweepSpec::default()
        };
        let results = spec.run();
        let t = results.timing;
        assert_eq!(t.jobs, 2);
        assert_eq!(t.workloads, 1);
        assert!(t.total >= t.replay);
        // 2 jobs × (1 000 warm-up + 5 000 measured) committed µops.
        assert_eq!(t.uops, 12_000);
        assert!(t.ns_per_uop() > 0.0, "simulation took time: {:?}", t.replay);
        let json = t.to_json();
        for needle in [
            "\"jobs\": 2",
            "\"uops\": 12000",
            "\"trace_store_hits\": 0",
            "\"trace_store_misses\": 0",
            "\"result_cache_hits\": 0",
            "\"capture_seconds\":",
            "\"total_seconds\":",
            "\"ns_per_uop\":",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn sampled_sweeps_estimate_ipc_with_less_detailed_work() {
        let settings = RunSettings {
            warmup: 2_000,
            measure: 40_000,
            seed: 11,
            sample: Some(vpsim_uarch::SampleConfig { intervals: 8, period: 2_000, warmup: 500 }),
            ..RunSettings::default()
        };
        let spec = SweepSpec {
            settings,
            predictors: vec![PredictorKind::Lvp],
            schemes: vec![SchemeChoice::Fpc],
            recoveries: vec![RecoveryPolicy::SquashAtCommit],
            benches: vec![benchmark("gzip").unwrap()],
            ..SweepSpec::default()
        };
        let results = spec.run();
        let t = results.timing;
        assert!(t.sampled);
        assert!(t.intervals_replayed > 0);
        assert!(t.ff_uops > 0, "fast-forward must cover the unsampled gaps");
        assert!(t.uops > 0);
        // Sampling replays a fraction of the full detailed volume.
        assert!(
            t.uops < t.jobs as u64 * (settings.warmup + settings.measure),
            "sampled detailed volume {} must undercut the full windows",
            t.uops
        );
        let json = t.to_json();
        for needle in ["\"sampled\": true", "\"intervals_replayed\": ", "\"ff_uops\": "] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        // The estimate lands near the full replay, for baseline and VP cells.
        let full =
            SweepSpec { settings: RunSettings { sample: None, ..settings }, ..spec.clone() }.run();
        assert!(!full.timing.sampled);
        let pairs = results
            .baseline
            .rows
            .iter()
            .zip(&full.baseline.rows)
            .chain(results.points[0].1.rows.iter().zip(&full.points[0].1.rows));
        for ((name, est), (_, exact)) in pairs {
            let err = (est.metrics.ipc() - exact.metrics.ipc()).abs() / exact.metrics.ipc();
            assert!(err < 0.15, "{name}: sampled IPC off by {:.1}%", err * 100.0);
        }
        // Sampled sweeps stay thread-count deterministic.
        let parallel =
            SweepSpec { settings: RunSettings { threads: 4, ..settings }, ..spec.clone() }.run();
        assert_eq!(parallel.table().to_csv(), results.table().to_csv());
    }

    #[test]
    fn run_indexed_streamed_consumes_in_order_and_matches_run_indexed() {
        for threads in [1, 2, 4, 8] {
            let mut seen = Vec::new();
            let results = run_indexed_streamed(
                23,
                threads,
                |i| i * 3 + 1,
                |i, &r| {
                    seen.push((i, r));
                },
            );
            assert_eq!(results, run_indexed(23, 1, |i| i * 3 + 1), "threads={threads}");
            assert_eq!(seen, (0..23).map(|i| (i, i * 3 + 1)).collect::<Vec<_>>());
        }
        assert!(run_indexed_streamed(0, 4, |i| i, |_, _| {}).is_empty());
    }

    #[test]
    fn streamed_cells_match_the_merged_results() {
        let spec = SweepSpec {
            settings: tiny(),
            predictors: vec![PredictorKind::Lvp],
            schemes: vec![SchemeChoice::Fpc],
            recoveries: vec![RecoveryPolicy::SquashAtCommit],
            benches: vec![benchmark("gzip").unwrap(), benchmark("mcf").unwrap()],
            ..SweepSpec::default()
        };
        let mut streamed = Vec::new();
        let results = spec.run_streamed(|job, r| streamed.push((job.index, job.bench.name, *r)));
        assert_eq!(streamed.len(), spec.job_count());
        for (k, (index, _, _)) in streamed.iter().enumerate() {
            assert_eq!(*index, k, "cells must stream in job-index order");
        }
        // Baseline cells first (benchmark-major), then the grid point.
        assert_eq!(streamed[0].1, "gzip");
        assert_eq!(streamed[1].1, "mcf");
        assert_eq!(streamed[0].2, results.baseline.rows[0].1);
        assert_eq!(streamed[1].2, results.baseline.rows[1].1);
        assert_eq!(streamed[2].2, results.points[0].1.rows[0].1);
        assert_eq!(streamed[3].2, results.points[0].1.rows[1].1);
    }

    #[test]
    fn result_cache_serves_a_repeat_sweep_without_simulating() {
        let dir = crate::store::scratch_dir("sweep-result-cache");
        let spec = SweepSpec {
            settings: tiny(),
            predictors: vec![PredictorKind::Lvp],
            schemes: vec![SchemeChoice::Fpc],
            recoveries: vec![RecoveryPolicy::SquashAtCommit],
            benches: vec![benchmark("gzip").unwrap(), benchmark("mcf").unwrap()],
            stores: Stores::open(&dir).unwrap(),
            ..SweepSpec::default()
        };
        let first = spec.run();
        assert_eq!(first.timing.result_cache_hits, 0);
        assert_eq!(first.timing.uops, 4 * 6_000);
        // A second run (fresh Stores handle — think: a new process) is
        // served entirely from the result cache: zero cells simulated,
        // byte-identical output.
        let second = SweepSpec { stores: Stores::open(&dir).unwrap(), ..spec.clone() }.run();
        assert_eq!(second.timing.result_cache_hits, spec.job_count() as u64);
        assert_eq!(second.timing.uops, 0, "no cell may be simulated on a cached sweep");
        assert_eq!(second.timing.captures, 0);
        assert_eq!(second.table().to_csv(), first.table().to_csv());
        assert_eq!(second.matrix().to_csv(), first.matrix().to_csv());
        // Uncached output is identical too: the cache changes cost, never
        // results.
        let uncached = SweepSpec { stores: Stores::default(), ..spec.clone() }.run();
        assert_eq!(uncached.table().to_csv(), first.table().to_csv());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_store_counters_surface_in_timing() {
        let dir = crate::store::scratch_dir("sweep-trace-store");
        // Use a distinct seed so the process-wide in-memory TraceCache
        // cannot already hold these captures (other tests share it).
        let settings =
            RunSettings { warmup: 500, measure: 2_000, seed: 771_177, ..RunSettings::default() };
        let spec = SweepSpec {
            settings,
            predictors: vec![PredictorKind::Lvp],
            schemes: vec![SchemeChoice::Fpc],
            recoveries: vec![RecoveryPolicy::SquashAtCommit],
            benches: vec![benchmark("h264ref").unwrap()],
            stores: Stores {
                traces: Some(Arc::new(TraceStore::open(&dir).unwrap())),
                results: None,
            },
            ..SweepSpec::default()
        };
        let first = spec.run();
        assert_eq!(first.timing.trace_store_hits, 0);
        assert_eq!(first.timing.trace_store_misses, 1);
        assert_eq!(first.timing.captures, 1);
        // Same sweep with a cold in-memory cache key path is impossible
        // to force here (the global cache now holds the trace), so check
        // persistence directly: the store has the entry on disk.
        let store = TraceStore::open(&dir).unwrap();
        assert!(store.load("h264ref", settings.scale, settings.seed).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_benches_yield_empty_suites() {
        let s = tiny();
        let grids = run_grid(&s, &[], &[s.core(), s.core()]);
        assert_eq!(grids.len(), 2);
        assert!(grids.iter().all(|g| g.rows.is_empty()));
    }
}
