//! `grid-replay`: the paper's study shape. The `paper-grid` preset (LVP,
//! 2D-Stride, o4-FCM and VTAGE under FPC) over both recovery policies plus
//! the no-VP baseline, all 19 Table 3 workloads at the default 50k + 200k
//! sizing, run in-process through `SweepSpec` on `nproc` threads with no
//! store. Almost all host time is detailed replay (`uarch`) and value
//! predictor predict/train (`core`); `store`, `protocol` and `serve` are
//! never touched.

use std::sync::Arc;
use std::time::Instant;

use vpsim_bench::experiments::offline_eval;
use vpsim_bench::scenario::preset;
use vpsim_bench::sweep::{PreparedSweep, SweepSpec};
use vpsim_bench::TraceCache;
use vpsim_branch::Tage;
use vpsim_core::HistoryState;
use vpsim_isa::Trace;
use vpsim_uarch::tap::StallTally;
use vpsim_uarch::RecoveryPolicy;

use crate::pool::{self, run_prepared, Cells};
use crate::reference::Reference;
use crate::spans::{self, Tracer};
use crate::{digest_results, point_key, Metrics, Round};

/// Host seconds one round (set-up plus the 171-cell grid) takes on the
/// reference host (2 CPUs); sizes the round count of a run to `--seconds`.
pub const NOMINAL_ROUND_S: f64 = 8.0;

/// Set-up samples per run: set-up takes only about 0.15 s, so its median
/// needs many samples to hold still between runs.
pub const MIN_SETUPS: usize = 31;

/// Workloads whose cells the tapped side run covers for
/// `uarch.squashed_per_committed` (a full tapped grid would double the
/// traced run's length).
const TAPPED_BENCHES: usize = 3;

pub fn spec(seed: u64, threads: usize) -> SweepSpec {
    let mut sc = preset("paper-grid").expect("the paper-grid preset exists");
    sc.recoveries = vec![RecoveryPolicy::SquashAtCommit, RecoveryPolicy::SelectiveReissue];
    sc.settings.seed = seed;
    sc.settings.threads = threads;
    sc.to_spec()
}

/// Clear the process-wide trace cache and prepare the sweep: build every
/// workload program and capture its trace. Returns the prepared sweep and
/// the set-up time.
pub fn setup(spec: &SweepSpec) -> (PreparedSweep, f64) {
    TraceCache::global().clear();
    let start = Instant::now();
    let prepared = spec.prepare();
    (prepared, start.elapsed().as_secs_f64())
}

pub fn round(spec: &SweepSpec, reference: &Reference, tracer: &Tracer) -> Round {
    let threads = spec.settings.threads;
    let cell_uops = spec.settings.warmup + spec.settings.measure;
    tracer.span("round", 0, |root| {
        let (prepared, setup_s) = tracer.span("sweep.prepare", root, |_| setup(spec));
        let timing = prepared.timing();
        let cpu0 = crate::host::process_cpu();
        let start = Instant::now();
        let (cells, measured) = tracer.span("measured", root, |measured| {
            let cells = run_prepared(&prepared, threads, tracer, measured);
            let table = (cells.failed == 0).then(|| {
                tracer.span("stats.render", measured, |_| {
                    let results = prepared.finish();
                    results.table().to_string()
                })
            });
            (cells, (measured, table))
        });
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_s = (crate::host::process_cpu() - cpu0).as_secs_f64();
        let digest = (cells.failed == 0).then(|| digest_results(&prepared));
        let ok = digest.as_deref() == reference.digest("grid", spec.settings.seed);
        let mut round = Round {
            setup_s,
            wall_s,
            cpu_s,
            uops: prepared.sim_indices().len() as u64 * cell_uops,
            op_latencies_ms: cells.latencies_ms(),
            attempted: prepared.sim_indices().len() as u64,
            failed: if ok { cells.failed } else { prepared.sim_indices().len() as u64 },
            digest,
            counts: vec![
                ("captures", timing.captures as u64),
                ("cells_simulated", prepared.sim_indices().len() as u64),
                ("result_cache_hits", timing.result_cache_hits),
            ],
            layers: Metrics::new(),
        };
        if tracer.enabled() {
            round.layers = layers(spec, &prepared, tracer, measured.0, wall_s, &cells);
        }
        round
    })
}

/// Per-layer metrics of one traced round: the cell spans it recorded plus
/// side timings of the layers' public calls over the same traces.
fn layers(
    spec: &SweepSpec,
    prepared: &PreparedSweep,
    tracer: &Tracer,
    measured: spans::SpanId,
    wall_s: f64,
    cells: &Cells<vpsim_bench::RunResult>,
) -> Metrics {
    let settings = &spec.settings;
    let cell_uops = (settings.warmup + settings.measure) as f64;
    let mut m = Metrics::new();
    let all = tracer.spans();
    m.set("sweep.prepare_ms", spans::total_ns(&all, "sweep.prepare") as f64 / 1e6);
    m.set("stats.render_ms", spans::total_ns(&all, "stats.render") as f64 / 1e6);

    // Replay cost per grid point, and per simulated cycle.
    let mut by_point: std::collections::BTreeMap<String, (f64, f64)> = Default::default();
    let (mut busy_ns, mut cycles) = (0.0, 0u64);
    for (k, result, ns) in &cells.done {
        let job = &prepared.jobs()[prepared.sim_indices()[*k]];
        let e = by_point.entry(point_key(job.point)).or_default();
        e.0 += ns;
        e.1 += cell_uops;
        busy_ns += ns;
        cycles += result.metrics.cycles;
    }
    for (key, (ns, uops)) in by_point {
        m.set(&format!("uarch.replay_ns_per_uop.{key}"), ns / uops);
    }
    m.set("uarch.replay_ns_per_cycle", busy_ns / cycles.max(1) as f64);
    let cell_ms: Vec<f64> = cells.latencies_ms();
    m.set("uarch.cell_ms.p50", crate::stats::percentile(&cell_ms, 50.0));
    m.set("uarch.cell_ms.max", crate::stats::percentile(&cell_ms, 100.0));
    let capacity_ns = settings.threads as f64 * wall_s * 1e9;
    m.set("sweep.worker_idle_frac", ((capacity_ns - busy_ns) / capacity_ns).max(0.0));
    let root = all.iter().find(|s| s.id == measured).expect("the measured span was recorded");
    let workers = settings.threads.min(prepared.sim_indices().len());
    m.set("trace.coverage", spans::thread_coverage(&all, root, pool::CELL_SPAN, workers));

    // Side timings over the workloads' programs and traces.
    let budget = settings.trace_budget(&spec.base_core());
    let (mut build_ns, mut capture_ns, mut captured, mut bytes) = (0.0, 0.0, 0u64, 0u64);
    let mut traces: Vec<Arc<Trace>> = Vec::new();
    for bench in &spec.benches {
        let t = Instant::now();
        let program = (bench.build)(&settings.params());
        build_ns += t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        let trace = Trace::capture(&program, budget);
        capture_ns += t.elapsed().as_nanos() as f64;
        captured += trace.len() as u64;
        bytes += trace.approx_bytes() as u64;
        traces.push(Arc::new(trace));
    }
    m.set("workloads.build_ms", build_ns / 1e6);
    m.set("isa.capture_ns_per_uop", capture_ns / captured as f64);
    m.set("isa.trace_bytes_per_uop", bytes as f64 / captured as f64);

    for &kind in &spec.predictors {
        let t = Instant::now();
        let mut uops = 0u64;
        for trace in &traces {
            let mut predictor =
                kind.build(vpsim_core::ConfidenceScheme::fpc_squash(), settings.seed);
            offline_eval(predictor.as_mut(), trace.cursor());
            uops += trace.len() as u64;
        }
        let key = crate::predictor_key(kind);
        m.set(
            &format!("core.predict_train_ns_per_uop.{key}"),
            t.elapsed().as_nanos() as f64 / uops as f64,
        );
    }
    m.set("branch.tage_ns_per_branch", tage_ns_per_branch(&traces, settings.seed));

    // Wasted work, from the event tap over the first workloads' cells.
    let (mut squashed, mut committed) = (0u64, 0u64);
    for job in prepared
        .jobs()
        .iter()
        .filter(|j| spec.benches.iter().take(TAPPED_BENCHES).any(|b| b.name == j.bench.name))
    {
        let bi = spec.benches.iter().position(|b| b.name == job.bench.name).expect("listed");
        let mut tally = StallTally::default();
        let r = settings.run_trace_with_sink(&traces[bi], job.config.clone(), &mut tally);
        squashed += tally.measured().squashed_uops;
        committed += r.metrics.instructions;
    }
    m.set("uarch.squashed_per_committed", squashed as f64 / committed.max(1) as f64);
    m
}

/// Host time per conditional branch of TAGE predict + train over the
/// traces' committed branch streams.
fn tage_ns_per_branch(traces: &[Arc<Trace>], seed: u64) -> f64 {
    let (mut ns, mut branches) = (0u128, 0u64);
    for trace in traces {
        let mut tage = Tage::with_defaults(seed);
        let mut hist = HistoryState::default();
        let t = Instant::now();
        for di in trace.cursor() {
            let op = di.inst.op;
            if op.is_cond_branch() {
                std::hint::black_box(tage.predict(di.seq, di.pc, &hist));
                tage.train(di.seq, di.taken);
                hist.push_branch(di.pc, di.taken);
                branches += 1;
            } else if op.is_control() {
                hist.push_path(di.pc);
            }
        }
        ns += t.elapsed().as_nanos();
    }
    ns as f64 / branches.max(1) as f64
}
