//! `sampled-long`: about 10 M-µop measured windows on gzip, mcf and milc,
//! with the no-VP baseline and VTAGE/FPC under both recovery policies,
//! interval sampling on with the default plan. Host time goes mostly to
//! the functional fast-forward (`uarch::sampling`), `Checkpoint` encode and
//! decode, and `Trace::cursor_resume` seeks, with little detailed replay;
//! set-up captures the long traces.

use std::time::Instant;

use vpsim_bench::scenario::Scenario;
use vpsim_bench::sweep::{PreparedSweep, SchemeChoice, SweepSpec};
use vpsim_bench::{RunSettings, TraceCache};
use vpsim_core::PredictorKind;
use vpsim_isa::Trace;
use vpsim_uarch::{Checkpoint, RecoveryPolicy, RunResult, SampleConfig, SampledResult, Simulator};

use crate::pool::{run_prepared, run_timed};
use crate::reference::Reference;
use crate::spans::{self, SpanId, Tracer};
use crate::{digest_cells, host, Metrics, Round};

/// Host seconds one round (long-trace capture plus nine sampled cells)
/// takes on the reference host (2 CPUs); sizes the round count of a run to
/// `--seconds`.
pub const NOMINAL_ROUND_S: f64 = 2.8;

/// Set-up samples per run (each round gives one; set-up takes about 0.9 s).
pub const MIN_SETUPS: usize = 15;

const BENCHES: [&str; 3] = ["gzip", "mcf", "milc"];
const MEASURE: u64 = 10_000_000;

/// `Trace::cursor_resume` calls timed per checkpoint (one call is a few
/// nanoseconds, below the clock's resolution).
const RESUME_REPS: u32 = 1_000;

/// Name of the span the traced round records around each sampled cell.
const CELL_SPAN: &str = "uarch.sampled_cell";

pub fn spec(seed: u64, threads: usize) -> SweepSpec {
    Scenario::builder()
        .seed(seed)
        .threads(threads)
        .measure(MEASURE)
        .sample(SampleConfig::default())
        .predictors(&[PredictorKind::Vtage])
        .schemes(&[SchemeChoice::Fpc])
        .recoveries(&[RecoveryPolicy::SquashAtCommit, RecoveryPolicy::SelectiveReissue])
        .benchmarks(&BENCHES)
        .build()
        .expect("the sampled-long scenario is valid")
        .to_spec()
}

/// Clear the process-wide trace cache, then build and capture every
/// workload's long trace through `SweepSpec::prepare`.
pub fn setup(spec: &SweepSpec) -> (PreparedSweep, f64) {
    TraceCache::global().clear();
    let start = Instant::now();
    let prepared = spec.prepare();
    (prepared, start.elapsed().as_secs_f64())
}

/// Largest relative IPC error of the sampled cells against the committed
/// full detailed replay.
fn ipc_rel_err_max(seed: u64, cells: &[RunResult], reference: &Reference) -> Option<f64> {
    let mut worst: f64 = 0.0;
    for (index, r) in cells.iter().enumerate() {
        let (insts, cycles) = reference.full(seed, index)?;
        let full = insts as f64 / cycles as f64;
        worst = worst.max((r.metrics.ipc() - full).abs() / full);
    }
    Some(worst)
}

pub fn round(spec: &SweepSpec, reference: &Reference, tracer: &Tracer) -> Round {
    let seed = spec.settings.seed;
    let jobs = spec.expand();
    let uops = jobs.len() as u64 * (spec.settings.warmup + spec.settings.measure);
    tracer.span("round", 0, |root| {
        let mut layers = Metrics::new();
        let pass = if tracer.enabled() {
            traced(spec, tracer, root, &mut layers)
        } else {
            let (prepared, setup_s) = setup(spec);
            let cpu0 = host::process_cpu();
            let start = Instant::now();
            let cells = run_prepared(&prepared, spec.settings.threads, tracer, root);
            let wall_s = start.elapsed().as_secs_f64();
            let cpu_s = (host::process_cpu() - cpu0).as_secs_f64();
            let timing = prepared.timing();
            Pass {
                setup_s,
                wall_s,
                cpu_s,
                results: (0..jobs.len()).filter_map(|i| prepared.result(i)).collect(),
                latencies_ms: cells.latencies_ms(),
                failed: cells.failed,
                captures: timing.captures as u64,
                detailed_uops: timing.uops,
                ff_uops: timing.ff_uops,
            }
        };
        let complete = pass.failed == 0 && pass.results.len() == jobs.len();
        let digest = complete.then(|| digest_cells(&pass.results));
        let ok = digest.as_deref() == reference.digest("sampled", seed);
        if let Some(err) = ipc_rel_err_max(seed, &pass.results, reference).filter(|_| complete) {
            layers.set("ipc_rel_err_max", err);
        }
        Round {
            setup_s: pass.setup_s,
            wall_s: pass.wall_s,
            cpu_s: pass.cpu_s,
            uops,
            op_latencies_ms: pass.latencies_ms,
            attempted: jobs.len() as u64,
            failed: if ok { pass.failed } else { jobs.len() as u64 },
            digest,
            counts: vec![
                ("captures", pass.captures),
                ("cells_simulated", pass.results.len() as u64),
                ("detailed_uops", pass.detailed_uops),
                ("fast_forward_uops", pass.ff_uops),
            ],
            layers,
        }
    })
}

/// What the untraced or the traced path of one round produced.
struct Pass {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    results: Vec<RunResult>,
    latencies_ms: Vec<f64>,
    failed: u64,
    captures: u64,
    detailed_uops: u64,
    ff_uops: u64,
}

/// Per-cell accounting of the traced path.
#[derive(Default)]
struct Tally {
    ff_ns: f64,
    ff_uops: u64,
    detailed_ns: f64,
    detailed_uops: u64,
    codec_ns: f64,
    checkpoints: u64,
    checkpoint_bytes: u64,
    resume_ns: f64,
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.ff_ns += other.ff_ns;
        self.ff_uops += other.ff_uops;
        self.detailed_ns += other.detailed_ns;
        self.detailed_uops += other.detailed_uops;
        self.codec_ns += other.codec_ns;
        self.checkpoints += other.checkpoints;
        self.checkpoint_bytes += other.checkpoint_bytes;
        self.resume_ns += other.resume_ns;
    }
}

/// The traced round: capture each trace directly, then for every cell run
/// `sample_checkpoints`, round-trip each checkpoint through its byte form
/// and replay its interval with `run_interval_from` — the steps
/// `Simulator::run_sampled` composes, each in its own span.
fn traced(spec: &SweepSpec, tracer: &Tracer, root: SpanId, layers: &mut Metrics) -> Pass {
    let settings = spec.settings;
    let jobs = spec.expand();
    let budget = jobs.iter().map(|j| settings.trace_budget(&j.config)).max().unwrap_or(0);
    TraceCache::global().clear();

    let start = Instant::now();
    let (mut build_ns, mut capture_ns, mut captured, mut bytes) = (0.0, 0.0, 0u64, 0u64);
    let traces: Vec<Trace> = tracer.span("setup", root, |setup| {
        spec.benches
            .iter()
            .map(|bench| {
                let t = Instant::now();
                let program =
                    tracer.span("workloads.build", setup, |_| (bench.build)(&settings.params()));
                build_ns += t.elapsed().as_nanos() as f64;
                let t = Instant::now();
                let trace = tracer.span("isa.capture", setup, |_| Trace::capture(&program, budget));
                capture_ns += t.elapsed().as_nanos() as f64;
                captured += trace.len() as u64;
                bytes += trace.approx_bytes() as u64;
                trace
            })
            .collect()
    });
    let setup_s = start.elapsed().as_secs_f64();

    let cpu0 = host::process_cpu();
    let start = Instant::now();
    let (cells, measured) = tracer.span("measured", root, |measured| {
        let cells =
            run_timed(jobs.len(), settings.threads, tracer, measured, CELL_SPAN, |i, cell| {
                let mut tally = Tally::default();
                let trace = &traces[i % spec.benches.len()];
                let result = sampled_cell(
                    trace,
                    jobs[i].config.clone(),
                    &settings,
                    tracer,
                    cell,
                    &mut tally,
                );
                (result, tally)
            });
        (cells, measured)
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = (host::process_cpu() - cpu0).as_secs_f64();

    let mut t = Tally::default();
    for (_, (_, cell), _) in &cells.done {
        t.add(cell);
    }
    let cell_ms = cells.latencies_ms();
    layers.set("workloads.build_ms", build_ns / 1e6);
    layers.set("isa.capture_ns_per_uop", capture_ns / captured.max(1) as f64);
    layers.set("isa.trace_bytes_per_uop", bytes as f64 / captured.max(1) as f64);
    layers.set("uarch.ff_ns_per_uop", t.ff_ns / t.ff_uops.max(1) as f64);
    layers.set("uarch.detailed_ns_per_uop", t.detailed_ns / t.detailed_uops.max(1) as f64);
    layers.set(
        "uarch.detailed_frac",
        t.detailed_uops as f64 / (t.detailed_uops + t.ff_uops).max(1) as f64,
    );
    layers.set("uarch.checkpoint_bytes", t.checkpoint_bytes as f64 / t.checkpoints.max(1) as f64);
    layers.set("uarch.checkpoint_codec_us", t.codec_ns / 1e3 / t.checkpoints.max(1) as f64);
    layers.set("isa.resume_ns", t.resume_ns / t.checkpoints.max(1) as f64);
    layers.set("uarch.cell_ms.p50", crate::stats::percentile(&cell_ms, 50.0));
    layers.set("uarch.cell_ms.max", crate::stats::percentile(&cell_ms, 100.0));
    let all = tracer.spans();
    let root_span = all.iter().find(|s| s.id == measured).expect("the measured span was recorded");
    let workers = settings.threads.min(jobs.len());
    layers.set("trace.coverage", spans::thread_coverage(&all, root_span, CELL_SPAN, workers));

    Pass {
        setup_s,
        wall_s,
        cpu_s,
        failed: cells.failed,
        results: cells.done.into_iter().map(|(_, (r, _), _)| r).collect(),
        latencies_ms: cell_ms,
        captures: spec.benches.len() as u64,
        detailed_uops: t.detailed_uops,
        ff_uops: t.ff_uops,
    }
}

fn sampled_cell(
    trace: &Trace,
    config: vpsim_uarch::CoreConfig,
    settings: &RunSettings,
    tracer: &Tracer,
    cell: SpanId,
    tally: &mut Tally,
) -> RunResult {
    let (warmup, measure) = (settings.warmup, settings.measure);
    let sample = settings.sample.expect("sampled-long samples");
    let period = sample.period.min(measure);
    let sim = Simulator::new(config);
    let t = Instant::now();
    let checkpoints = tracer.span("uarch.fast_forward", cell, |_| {
        sim.sample_checkpoints(trace, warmup, measure, sample)
    });
    tally.ff_ns += t.elapsed().as_nanos() as f64;
    let mut per_interval = Vec::with_capacity(checkpoints.len());
    let mut detailed_uops = 0;
    for cp in &checkpoints {
        let t = Instant::now();
        let restored = tracer.span("uarch.checkpoint_codec", cell, |_| {
            let bytes = cp.to_bytes();
            tally.checkpoint_bytes += bytes.len() as u64;
            Checkpoint::from_bytes(&bytes).expect("a fresh checkpoint decodes")
        });
        tally.codec_ns += t.elapsed().as_nanos() as f64;
        tally.checkpoints += 1;
        let t = Instant::now();
        for _ in 0..RESUME_REPS {
            let cursor = trace.cursor_resume(cp.pos() as usize, cp.payload_pos() as usize);
            std::hint::black_box(cursor.is_ok());
        }
        tally.resume_ns += t.elapsed().as_nanos() as f64 / f64::from(RESUME_REPS);
        let t = Instant::now();
        let r = tracer.span("uarch.detailed", cell, |_| {
            sim.run_interval_from(trace, &restored, period)
                .expect("a round-tripped checkpoint matches its own trace")
        });
        tally.detailed_ns += t.elapsed().as_nanos() as f64;
        detailed_uops += restored.detailed_warmup() + period;
        per_interval.push(r);
    }
    let ff_uops = checkpoints.last().map_or(0, Checkpoint::ff_uops);
    tally.ff_uops += ff_uops;
    tally.detailed_uops += detailed_uops;
    SampledResult { per_interval, ff_uops, detailed_uops }.combined()
}
