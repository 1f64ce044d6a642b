//! `perfbench` — the vpsim benchmark harness.
//!
//! ```text
//! perfbench --workload <grid-replay|serve-mix|sampled-long> --seed N --seconds S --trace 0|1
//! perfbench reference      # print reference digests for reference.txt
//! ```
//!
//! A run repeats its workload in rounds, each from fresh state, and reports
//! medians over the rounds. One process runs one workload, so process-wide
//! figures such as peak RSS belong to that workload alone. The last
//! stdout line is one JSON object: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics of the traced rounds with `--trace 1`. Any output
//! digest that differs from `reference.txt`, any failed operation, or any
//! exact count that differs between rounds makes the exit code non-zero.
//! See README.md beside this crate for the metric → layer → workload map.

mod grid;
mod host;
mod pool;
mod reference;
mod sampled;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use vpsim_bench::store::{hex, sha256};
use vpsim_bench::sweep::{GridPoint, PreparedSweep};
use vpsim_bench::RunResult;
use vpsim_core::PredictorKind;

use reference::Reference;
use spans::Tracer;

/// Every end-to-end metric: (name, unit). All are lower-is-better except
/// `jobs_per_s`.
const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("cpu_ns_per_uop", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("jobs_per_s", "1/s"),
];

/// Every per-layer metric: (name, unit). A traced run prints all of them;
/// a layer its workload does not call reports 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("trace_overhead_frac".into(), "ratio"),
        ("trace.coverage".into(), "ratio"),
        ("workloads.build_ms".into(), "ms"),
        ("isa.capture_ns_per_uop".into(), "ns"),
        ("isa.trace_bytes_per_uop".into(), "B"),
        ("isa.resume_ns".into(), "ns"),
        ("sweep.prepare_ms".into(), "ms"),
        ("sweep.worker_idle_frac".into(), "ratio"),
    ];
    out.push(("uarch.replay_ns_per_uop.none".into(), "ns"));
    for kind in PredictorKind::PAPER_SET {
        for recovery in ["squash", "reissue"] {
            let key = predictor_key(kind);
            out.push((format!("uarch.replay_ns_per_uop.{key}.{recovery}"), "ns"));
        }
    }
    out.extend([
        ("uarch.replay_ns_per_cycle".into(), "ns"),
        ("uarch.cell_ms.p50".into(), "ms"),
        ("uarch.cell_ms.max".into(), "ms"),
        ("uarch.squashed_per_committed".into(), "ratio"),
        ("uarch.ff_ns_per_uop".into(), "ns"),
        ("uarch.detailed_ns_per_uop".into(), "ns"),
        ("uarch.detailed_frac".into(), "ratio"),
        ("uarch.checkpoint_bytes".into(), "B"),
        ("uarch.checkpoint_codec_us".into(), "us"),
        ("ipc_rel_err_max".into(), "ratio"),
    ]);
    for kind in PredictorKind::PAPER_SET {
        out.push((format!("core.predict_train_ns_per_uop.{}", predictor_key(kind)), "ns"));
    }
    out.extend([
        ("branch.tage_ns_per_branch".into(), "ns"),
        ("stats.render_ms".into(), "ms"),
        ("serve.admit_ms.p50".into(), "ms"),
        ("serve.stream_ms.p50".into(), "ms"),
        ("serve.queue_wait_ms.p50".into(), "ms"),
        ("serve.server_wall_ms.p50".into(), "ms"),
        ("serve.latency_ms.p50.hot".into(), "ms"),
        ("serve.latency_ms.p50.warm".into(), "ms"),
        ("serve.latency_ms.p50.cold".into(), "ms"),
        ("serve.peak_concurrent_jobs".into(), "count"),
        ("protocol.bytes_per_submission".into(), "B"),
        ("protocol.render_us".into(), "us"),
        ("store.result_hit_ratio".into(), "ratio"),
        ("store.trace_hit_ratio".into(), "ratio"),
        ("store.cell_key_us".into(), "us"),
        ("store.result_load_us".into(), "us"),
        ("store.result_save_us".into(), "us"),
        ("store.map_verify_ms_per_mb".into(), "ms/MB"),
        ("store.load_ms_per_mb".into(), "ms/MB"),
        ("store.trace_save_ms_per_mb".into(), "ms/MB"),
        ("store.hit_vs_recapture".into(), "ratio"),
    ]);
    out
}

/// Smallest share of each worker or client thread's active window in a
/// traced round that the thread's own spans must cover (see
/// [`spans::thread_coverage`]); a lower figure means host time the
/// per-layer breakdown cannot account for.
const COVERAGE_BOUND: f64 = 0.95;

/// Untraced runs make at least enough rounds for this many op latencies,
/// so that `latency_p90_ms` has ten samples beyond it (see
/// [`stats::reportable_percentile`]).
const MIN_LATENCY_SAMPLES: usize = 100;

/// Named metric values of one round or one run.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }
}

/// What one round of a workload produced.
pub struct Round {
    /// Set-up time before the measured phase.
    pub setup_s: f64,
    /// Wall time of the measured phase.
    pub wall_s: f64,
    /// Process CPU time (all threads) over the measured phase.
    pub cpu_s: f64,
    /// Nominal µops the measured phase covered.
    pub uops: u64,
    /// Latency of each operation (a cell, or a submission).
    pub op_latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Digest of the round's outputs (`None` when an operation failed).
    pub digest: Option<String>,
    /// Counts that must repeat exactly in every round.
    pub counts: Vec<(&'static str, u64)>,
    /// Per-layer metrics: host timings in traced rounds only, exact
    /// simulated figures in every round.
    pub layers: Metrics,
}

/// Hex SHA-256 over the cells' `RunResult` bytes, in grid order.
pub fn digest_cells(cells: &[RunResult]) -> String {
    let bytes: Vec<u8> = cells.iter().flat_map(RunResult::to_bytes).collect();
    hex(&sha256(&bytes))
}

/// [`digest_cells`] over every cell of a finished sweep.
pub fn digest_results(prepared: &PreparedSweep) -> String {
    let cells: Vec<RunResult> = (0..prepared.jobs().len())
        .map(|i| prepared.result(i).expect("every cell finished before digesting"))
        .collect();
    digest_cells(&cells)
}

/// Metric-name spelling of a predictor.
pub fn predictor_key(kind: PredictorKind) -> &'static str {
    match kind {
        PredictorKind::Lvp => "lvp",
        PredictorKind::TwoDeltaStride => "2dstride",
        PredictorKind::Fcm4 => "fcm",
        PredictorKind::Vtage => "vtage",
        other => other.label(),
    }
}

/// Metric-name spelling of a grid point: `<predictor>.<recovery>`, or
/// `none` for the no-VP baseline.
pub fn point_key(point: Option<GridPoint>) -> String {
    match point {
        Some(p) => format!("{}.{}", predictor_key(p.kind), p.recovery),
        None => "none".into(),
    }
}

/// How much work one run of a workload does.
struct Plan {
    /// Host seconds one round (set-up included) takes on the reference
    /// host (2 CPUs).
    nominal_round_s: f64,
    /// Ops (cells or submissions) in one round.
    ops_per_round: usize,
    /// Set-up samples a run takes at least, set-up alone repeated after
    /// the rounds if they gave fewer; a short set-up needs many samples
    /// for a steady median.
    min_setups: usize,
}

impl Plan {
    /// Rounds a run of `seconds` makes: `seconds` over the nominal round
    /// time, raised to [`MIN_LATENCY_SAMPLES`] ops, at least two when
    /// tracing. The count is fixed by the arguments, not by the clock, so
    /// every run of a seed does the same work however fast the host is.
    fn rounds(&self, seconds: f64, trace: bool) -> usize {
        let by_time = (seconds / self.nominal_round_s).round().max(1.0) as usize;
        let rounds = by_time.max(MIN_LATENCY_SAMPLES.div_ceil(self.ops_per_round.max(1)));
        if trace {
            rounds.max(2)
        } else {
            rounds
        }
    }
}

/// Run the plan's rounds, each from fresh state (with tracing, rounds
/// alternate untraced and traced), then repeat set-up alone until there
/// are the plan's minimum of set-up samples.
fn drive(
    plan: Plan,
    args: &Args,
    mut round: impl FnMut(&Tracer) -> Round,
    mut setup_only: impl FnMut() -> f64,
) -> (Vec<Round>, Vec<Round>, Vec<f64>) {
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for k in 0..plan.rounds(args.seconds, args.trace) {
        let tracer = Tracer::new(args.trace && k % 2 == 1);
        let r = round(&tracer);
        if tracer.enabled() {
            traced.push(r);
        } else {
            untraced.push(r);
        }
    }
    let mut setups: Vec<f64> = untraced.iter().chain(&traced).map(|r| r.setup_s).collect();
    while setups.len() < plan.min_setups {
        setups.push(setup_only());
    }
    (untraced, traced, setups)
}

struct Outcome {
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: Vec<(String, &'static str, f64)>,
}

fn summarize(
    workload: &str,
    trace: bool,
    untraced: &[Round],
    traced: &[Round],
    setups: &[f64],
) -> Outcome {
    let all: Vec<&Round> = untraced.iter().chain(traced).collect();
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    let mut correct = failed == 0;

    println!("## {workload}\n");
    println!(
        "rounds: {} untraced, {} traced; set-ups: {}",
        untraced.len(),
        traced.len(),
        setups.len()
    );
    let digests: Vec<&str> = all.iter().map(|r| r.digest.as_deref().unwrap_or("-")).collect();
    println!("output digest: {}", digests.first().copied().unwrap_or("-"));
    if digests.windows(2).any(|w| w[0] != w[1]) {
        println!("FAIL: output digests differ between rounds: {digests:?}");
        correct = false;
    }
    for (name, value) in &all[0].counts {
        let values: Vec<u64> =
            all.iter().map(|r| r.counts.iter().find(|c| c.0 == *name).map_or(0, |c| c.1)).collect();
        let same = values.iter().all(|v| v == value);
        println!(
            "count {name}: {value}{}",
            if same { "" } else { "  FAIL: differs between rounds" }
        );
        if !same {
            println!("  per round: {values:?}");
            correct = false;
        }
    }
    println!(
        "ops: {attempted} attempted, {failed} failed, failed_frac = {}",
        failed as f64 / attempted.max(1) as f64
    );

    let mut metrics = Vec::new();
    if !trace {
        let lat: Vec<f64> = untraced.iter().flat_map(|r| r.op_latencies_ms.clone()).collect();
        match stats::reportable_percentile(lat.len()) {
            Some(p) => {
                println!("latency samples: {} (highest reportable percentile: p{p})", lat.len())
            }
            None => println!(
                "latency samples: {} (fewer than 20: no percentile has ten beyond it)",
                lat.len()
            ),
        }
        for (name, value) in &untraced[0].layers.0 {
            println!("simulated: {name} = {value}");
        }
        let per_round =
            |f: &dyn Fn(&Round) -> f64| -> Vec<f64> { untraced.iter().map(f).collect() };
        let series: Vec<(&str, Vec<f64>)> = vec![
            ("wall_s", per_round(&|r| r.wall_s)),
            ("cpu_s", per_round(&|r| r.cpu_s)),
            ("cpu_ns_per_uop", per_round(&|r| r.cpu_s * 1e9 / r.uops.max(1) as f64)),
            ("setup_s", setups.to_vec()),
            ("peak_rss_mb", vec![host::peak_rss_mb()]),
            ("latency_p50_ms", vec![percentile_or_zero(&lat, 50.0)]),
            ("latency_p90_ms", vec![percentile_or_zero(&lat, 90.0)]),
            ("jobs_per_s", per_round(&|r| r.attempted as f64 / r.wall_s)),
        ];
        println!("\n| metric | unit | median | spread (IQR/median) | n |");
        println!("|---|---|---|---|---|");
        for ((name, values), (_, unit)) in series.iter().zip(END_TO_END) {
            let m = stats::median(values);
            println!(
                "| {name} | {unit} | {m:.6} | {:.4} | {} |",
                stats::spread(values),
                values.len()
            );
            metrics.push((name.to_string(), unit, m));
        }
    } else {
        let wall_u = stats::median(&untraced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        let wall_t = stats::median(&traced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        println!("\n| per-layer metric | unit | median over traced rounds |");
        println!("|---|---|---|");
        for (name, unit) in per_layer() {
            let values: Vec<f64> =
                traced.iter().filter_map(|r| r.layers.0.get(&name).copied()).collect();
            let value = match name.as_str() {
                "trace_overhead_frac" => wall_t / wall_u - 1.0,
                _ if values.is_empty() => 0.0,
                "trace.coverage" => values.iter().copied().fold(f64::INFINITY, f64::min),
                _ => stats::median(&values),
            };
            println!("| {name} | {unit} | {value} |");
            if name == "trace.coverage" && value < COVERAGE_BOUND {
                println!(
                    "FAIL: spans cover {value:.4} of the measured phase (bound {COVERAGE_BOUND})"
                );
                correct = false;
            }
            metrics.push((name, unit, value));
        }
    }
    Outcome { attempted, failed, correct, metrics }
}

fn percentile_or_zero(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::percentile(values, p)
    }
}

fn json_line(outcome: &Outcome) -> String {
    let fields: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// Longest a run may take before the harness gives up on it.
const WATCHDOG: Duration = Duration::from_secs(170);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("reference") {
        print!("{}", reference::generate());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if !WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!("error: unknown workload {:?} ({})", args.workload, WORKLOADS.join("|"));
        return ExitCode::from(2);
    }
    // Detached on purpose: it only ever ends the process.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("error: run exceeded {WATCHDOG:?}; aborting");
        std::process::exit(3);
    });
    println!("{}", host::header());
    let outcome = run_workload(&args);
    println!("{}", json_line(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The benchmark's workloads.
const WORKLOADS: [&str; 3] = ["grid-replay", "serve-mix", "sampled-long"];

fn run_workload(args: &Args) -> Outcome {
    let reference = Reference::embedded();
    let nproc = host::nproc();
    let seed = reference::input_seed(args.seed);
    let (untraced, traced, setups) = match args.workload.as_str() {
        "grid-replay" => {
            let spec = grid::spec(seed, nproc);
            println!("inputs: paper grid x both recoveries, seed {seed:#x}, {nproc} threads\n");
            let plan = Plan {
                nominal_round_s: grid::NOMINAL_ROUND_S,
                ops_per_round: spec.expand().len(),
                min_setups: grid::MIN_SETUPS,
            };
            drive(
                plan,
                args,
                |tracer| grid::round(&spec, &reference, tracer),
                || grid::setup(&spec).1,
            )
        }
        "sampled-long" => {
            let spec = sampled::spec(seed, nproc);
            println!("inputs: sampled long windows, seed {seed:#x}, {nproc} threads\n");
            let plan = Plan {
                nominal_round_s: sampled::NOMINAL_ROUND_S,
                ops_per_round: spec.expand().len(),
                min_setups: sampled::MIN_SETUPS,
            };
            drive(
                plan,
                args,
                |tracer| sampled::round(&spec, &reference, tracer),
                || sampled::setup(&spec).1,
            )
        }
        _ => {
            let mix = serve::Mix::new(args.seed, nproc);
            println!("inputs: {}\n", mix.describe());
            let plan = Plan {
                nominal_round_s: serve::NOMINAL_ROUND_S,
                ops_per_round: mix.submissions(),
                min_setups: serve::MIN_SETUPS,
            };
            drive(
                plan,
                args,
                |tracer| serve::round(&mix, &reference, tracer),
                || serve::setup_only(&mix, &reference),
            )
        }
    };
    summarize(&args.workload, args.trace, &untraced, &traced, &setups)
}
