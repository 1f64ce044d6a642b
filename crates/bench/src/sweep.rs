//! Deterministic parallel sweep engine.
//!
//! The paper's headline results are full grids of (workload × predictor ×
//! confidence × recovery) runs. Each grid cell is an independent
//! simulation, so the engine here expands a declarative [`SweepSpec`] into
//! index-numbered jobs, executes them on a [`std::thread::scope`] worker
//! pool that takes indices from one shared counter, and merges results
//! **by job index** — the output of a parallel run is bit-identical to a
//! serial run of the same grid, regardless of worker count or scheduling.
//!
//! Two layers, lowest first:
//!
//! * [`run_indexed`] — a generic deterministic parallel map: `N` jobs in,
//!   `N` results out, in index order. It is the one local worker pool:
//!   trace prefetch, [`SweepSpec::run`] and the stall report run on it
//!   (the job server interleaves [`PreparedSweep`] cells on its own
//!   scheduler instead).
//! * [`SweepSpec`] → [`PreparedSweep`] → [`SweepResults`] — the
//!   declarative cartesian grid (predictors × confidence choices ×
//!   recovery policies × benchmarks) with long-form and matrix table
//!   rendering. It is the one grid engine: the `sweep` binary, the job
//!   server and every simulation-backed experiment in
//!   [`crate::experiments`] (through [`crate::scenario::Scenario::run`])
//!   run grids through it.
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

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
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
use vpsim_uarch::{Checkpoint, CoreConfig, RecoveryPolicy, RunResult, Simulator, VpConfig};
use vpsim_workloads::Benchmark;

// ---------------------------------------------------------------------------
// Deterministic parallel map
// ---------------------------------------------------------------------------

/// Run `jobs` independent jobs on `threads` workers and return their
/// results **in job-index order**.
///
/// `threads <= 1` runs everything serially on the calling thread; any
/// higher count spawns `threads.min(jobs)` scoped workers that take the
/// next index from one shared counter. Because each result is written to
/// its own index slot, the returned vector — and therefore anything
/// rendered from it — is identical for every thread count. A panicking
/// job stops further dispatch, and its panic resurfaces once the running
/// jobs finish.
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
    // The counter publishes no data: each result goes through its slot's
    // mutex and the scope's join, so `Relaxed` is enough.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(jobs) {
            scope.spawn(|| {
                let _stop = StopOnPanic { next: &next, jobs };
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs {
                        break;
                    }
                    let result = run(i);
                    *slots[i].lock().expect("no job runs under a slot lock") = Some(result);
                }
            });
        }
    });
    slots.into_iter().map(|slot| slot.into_inner().unwrap().expect("every job ran")).collect()
}

/// Exhausts the dispatch counter if its worker unwinds, so the other
/// workers stop after their current job; the panic itself resurfaces when
/// the scope joins the worker.
struct StopOnPanic<'a> {
    next: &'a AtomicUsize,
    jobs: usize,
}

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.next.store(self.jobs, Ordering::Relaxed);
        }
    }
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
    ///
    /// A sampled sweep fast-forwards each workload once: the workload's
    /// first simulated cell takes the checkpoints, its other cells replay
    /// their intervals from them, and its last cell frees them.
    ///
    /// With a persistent result cache configured ([`SweepSpec::stores`]),
    /// every cell is first looked up by its canonical key
    /// ([`crate::store::cell_key`]); cached cells are never simulated —
    /// a fully-cached sweep runs zero simulations and reports
    /// `timing.uops == 0` — and freshly simulated cells are persisted as
    /// they complete. With a trace store configured, the in-memory trace
    /// cache falls through to disk before capturing.
    pub fn run(&self) -> SweepResults {
        let prepared = self.prepare();
        let sim = prepared.sim_indices();
        if !sim.is_empty() {
            let replay_start = Instant::now();
            run_indexed(sim.len(), self.settings.threads, |k| prepared.run_cell(sim[k]));
            prepared.note_replay(replay_start.elapsed());
        }
        #[cfg(test)]
        assert!(
            prepared.checkpoints.iter().all(|slot| slot.set.lock().unwrap().is_none()),
            "each workload's checkpoints are freed by its last simulated cell"
        );
        prepared.finish()
    }

    /// Expand, probe the result cache and prefetch traces — everything up
    /// to (but excluding) simulation — and return the [`PreparedSweep`]
    /// whose cells can then be run in any order from any thread. This is
    /// the unit the `vpsim-serve` scheduler interleaves across jobs.
    pub fn prepare(&self) -> PreparedSweep {
        let start = Instant::now();
        let jobs = self.expand();
        // Probe the persistent result cache: cells finished by any earlier
        // run (or process) are served as-is and never simulated again.
        let cells: Vec<Mutex<Option<RunResult>>> = jobs
            .iter()
            .map(|job| {
                let cached = self
                    .stores
                    .results
                    .as_ref()
                    .and_then(|cache| cache.load(&cell_key(&self.settings, job)));
                Mutex::new(cached)
            })
            .collect();
        let sim: Vec<usize> =
            (0..jobs.len()).filter(|&i| cells[i].lock().unwrap().is_none()).collect();
        let hits = (jobs.len() - sim.len()) as u64;
        let sampled = self.settings.sample.is_some();
        let mut timing = SweepTiming {
            jobs: jobs.len(),
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
        // A job's workload is its index modulo the benchmark count (see
        // `PreparedSweep::run_cell`).
        let nb = self.benches.len();
        let checkpoints = if sampled {
            (0..nb)
                .map(|b| CheckpointSlot {
                    set: Mutex::new(None),
                    pending: AtomicUsize::new(sim.iter().filter(|&&i| i % nb == b).count()),
                })
                .collect()
        } else {
            Vec::new()
        };
        PreparedSweep {
            spec: self.clone(),
            jobs,
            traces,
            cells,
            sim,
            sampled,
            checkpoints,
            detailed_uops: AtomicU64::new(0),
            intervals_replayed: AtomicU64::new(0),
            ff_uops: AtomicU64::new(0),
            ff_passes: AtomicU64::new(0),
            store_base,
            replay: Mutex::new(Duration::ZERO),
            timing: Mutex::new(timing),
            start,
        }
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
pub struct PreparedSweep {
    spec: SweepSpec,
    jobs: Vec<SweepJob>,
    /// One shared trace per benchmark (empty when every cell came from
    /// the result cache).
    traces: Vec<Arc<Trace>>,
    cells: Vec<Mutex<Option<RunResult>>>,
    sim: Vec<usize>,
    sampled: bool,
    /// One fast-forward slot per benchmark (empty unless sampled).
    checkpoints: Vec<CheckpointSlot>,
    // Sampled cells report their actual detailed/fast-forward volume,
    // accumulated from the workers as cells finish (the per-cell split
    // depends on how many intervals fit each trace).
    detailed_uops: AtomicU64,
    intervals_replayed: AtomicU64,
    ff_uops: AtomicU64,
    ff_passes: AtomicU64,
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
    /// Every expanded job, in index order.
    pub fn jobs(&self) -> &[SweepJob] {
        &self.jobs
    }

    /// Cell indices that still need simulating (the grid minus
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

    /// Sample one cell of workload `bench`. Every cell of a sweep starts
    /// from [`SweepSpec::base_core`], so a workload's cells share the seed
    /// and memory hierarchy the warm state depends on, and the checkpoints
    /// the first of them takes are the ones each would take on its own.
    fn run_sampled_cell(&self, bench: usize, config: CoreConfig) -> RunResult {
        let settings = &self.spec.settings;
        let (trace, slot) = (&self.traces[bench], &self.checkpoints[bench]);
        let sample = settings.sample.unwrap_or_default();
        let sim = Simulator::new(config);
        // The lock is held through the pass, so the workload's other
        // cells wait for it instead of repeating it.
        let mut set =
            slot.set.lock().expect("no earlier fast-forward pass of this workload panicked");
        let checkpoints = Arc::clone(set.get_or_insert_with(|| {
            self.ff_passes.fetch_add(1, Ordering::Relaxed);
            Arc::new(sim.sample_checkpoints(trace, settings.warmup, settings.measure, sample))
        }));
        drop(set);
        let sampled = sim
            .run_sampled_from(trace, &checkpoints, settings.measure, sample)
            .expect("a workload's checkpoints match its trace and every cell's geometry");
        drop(checkpoints);
        // The workload's last simulated cell frees its checkpoints; the
        // others have dropped their handles by then.
        if slot.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            *slot.set.lock().expect("no fast-forward pass of this workload panicked") = None;
        }
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
        let bench = index % self.spec.benches.len();
        let result = if self.sampled {
            self.run_sampled_cell(bench, job.config.clone())
        } else {
            settings.run_trace_with_sink(&self.traces[bench], job.config.clone(), &mut NullSink)
        };
        if let Some(cache) = &self.spec.stores.results {
            cache.save(&cell_key(settings, job), &result);
        }
        *self.cells[index].lock().unwrap() = Some(result);
        result
    }

    /// Add simulation wall-clock to the timing record (the local engine
    /// times its parallel map; the job server sums per-job execution).
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
            timing.ff_passes = self.ff_passes.load(Ordering::Relaxed);
        }
        if let Some(s) = self.spec.stores.traces.as_deref() {
            timing.trace_store_hits = s.hits().saturating_sub(self.store_base.0);
            timing.trace_store_misses = s.misses().saturating_sub(self.store_base.1);
        }
        timing.total = self.start.elapsed();
        timing
    }

    /// Merge every finished cell into [`SweepResults`], benchmark rows
    /// grouped per grid point in job-index order. Panics if a cell is
    /// missing: only a preparation whose whole grid has run (or came from
    /// the cache) can finish.
    pub fn finish(&self) -> SweepResults {
        let mut cells = self
            .cells
            .iter()
            .map(|cell| cell.lock().unwrap().expect("every cell cached or simulated"));
        let benches = &self.spec.benches;
        let mut take_suite = || SuiteResults {
            rows: benches.iter().map(|b| (b.name, cells.next().expect("sized exactly"))).collect(),
        };
        let baseline = take_suite();
        let points = self.spec.points().into_iter().map(|p| (p, take_suite())).collect();
        SweepResults { baseline, points, timing: self.timing() }
    }
}

/// A workload's shared fast-forward in a sampled [`PreparedSweep`].
struct CheckpointSlot {
    /// The workload's checkpoints: filled by its first simulated cell,
    /// emptied by its last.
    set: Mutex<Option<Arc<Vec<Checkpoint>>>>,
    /// Simulated cells of the workload that have not finished.
    pending: AtomicUsize,
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
    /// Fast-forward volume summed over the sampled cells: the µops each
    /// cell's estimate stands on, counted once per cell even though the
    /// cells of one workload share a single pass (zero when sampling is
    /// off).
    pub ff_uops: u64,
    /// Fast-forward passes actually run: one per workload with at least
    /// one simulated cell, since a workload's cells share its checkpoints
    /// (zero when sampling is off or every cell came from the cache).
    pub ff_passes: u64,
}

impl SweepTiming {
    /// Nanoseconds of simulation (replay) wall-clock per committed
    /// µop — the timing model's throughput figure, tracked across PRs in
    /// `BENCH_sweep.json`; perfbench reports the same figure per predictor
    /// as `uarch.replay_ns_per_uop.*`. Zero when no µops were simulated.
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
             \"ff_passes\": {},\n  \
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
            self.ff_passes,
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
        self.matrix_by(GridPoint::label)
    }

    /// [`SweepResults::matrix`] with each column headed by `label` of its
    /// grid point (the figure tables head theirs with the predictor alone).
    pub fn matrix_by(&self, label: impl Fn(&GridPoint) -> String) -> Table {
        let mut headers = vec!["Benchmark".into()];
        headers.extend(self.points.iter().map(|(p, _)| label(p)));
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
    fn a_panicking_job_stops_dispatch_and_resurfaces() {
        for threads in [1, 4] {
            let ran = AtomicUsize::new(0);
            let outcome = std::panic::catch_unwind(|| {
                run_indexed(1_000, threads, |i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    assert_ne!(i, 0, "job 0 fails");
                    std::thread::sleep(Duration::from_millis(1));
                })
            });
            assert!(outcome.is_err(), "threads={threads}: the panic must resurface");
            assert!(ran.load(Ordering::Relaxed) < 1_000, "threads={threads}: dispatch must stop");
        }
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
    fn sampled_sweeps_fast_forward_each_simulated_workload_once() {
        let dir = crate::store::scratch_dir("sweep-ff-passes");
        let settings = RunSettings {
            warmup: 1_000,
            measure: 8_000,
            seed: 5,
            sample: Some(vpsim_uarch::SampleConfig { intervals: 2, period: 2_000, warmup: 500 }),
            ..RunSettings::default()
        };
        let spec = SweepSpec {
            settings,
            predictors: vec![PredictorKind::Lvp],
            schemes: vec![SchemeChoice::Fpc],
            recoveries: vec![RecoveryPolicy::SquashAtCommit, RecoveryPolicy::SelectiveReissue],
            benches: vec![benchmark("gzip").unwrap(), benchmark("mcf").unwrap()],
            ..SweepSpec::default()
        };
        // The plan picks intervals 1 and 3 of 4 (offset 5 % 2), so the
        // last one's detailed warm-up starts at 1 000 + 3 × 2 000 − 500:
        // every cell's estimate stands on 6 500 fast-forwarded µops.
        const CELL_FF: u64 = 6_500;
        let uncached = spec.run();
        assert_eq!(uncached.timing.ff_passes, 2, "one pass per workload");
        assert_eq!(uncached.timing.ff_uops, 6 * CELL_FF, "ff_uops stays the per-cell sum");
        let run_in = |dir: &std::path::Path, spec: &SweepSpec| {
            SweepSpec { stores: Stores::open(dir).unwrap(), ..spec.clone() }.run()
        };
        // Cache both baseline cells: every workload still has VP cells to
        // simulate, so each still takes exactly one pass.
        let baselines = run_in(&dir, &SweepSpec { points: Some(Vec::new()), ..spec.clone() });
        assert_eq!(baselines.timing.ff_passes, 2);
        let t = run_in(&dir, &spec).timing;
        assert_eq!((t.result_cache_hits, t.ff_passes, t.ff_uops), (2, 2, 4 * CELL_FF));
        // A workload whose every cell is cached never takes a pass.
        let dir2 = crate::store::scratch_dir("sweep-ff-passes-partial");
        let gzip_only = SweepSpec { benches: vec![benchmark("gzip").unwrap()], ..spec.clone() };
        assert_eq!(run_in(&dir2, &gzip_only).timing.ff_passes, 1);
        let partial = run_in(&dir2, &spec);
        let t = partial.timing;
        assert_eq!((t.result_cache_hits, t.ff_passes, t.ff_uops), (3, 1, 3 * CELL_FF));
        assert!(t.to_json().contains("\"ff_passes\": 1"), "{}", t.to_json());
        let cached = run_in(&dir2, &spec);
        assert_eq!((cached.timing.ff_passes, cached.timing.ff_uops), (0, 0));
        for results in [&partial, &cached] {
            assert_eq!(results.table().to_csv(), uncached.table().to_csv());
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
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
}
