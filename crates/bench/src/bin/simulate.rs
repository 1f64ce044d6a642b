//! `simulate` — run one workload under one configuration and print the
//! full result record.
//!
//! ```text
//! Usage: simulate [workload] [options]
//!
//! Workloads: any Table 3 name (gzip, mcf, …) or a microkernel:
//!   k:tight, k:strided, k:chase, k:constant, k:branchdep, k:fpreduce,
//!   k:calls, k:randbranch, k:matmul
//!
//! Options:
//!   --scenario FILE  Load a scenario file; simulate runs its first
//!                    workload and first grid point
//!   --preset NAME    Start from a named scenario preset
//!   --set KEY=VALUE  Override one scenario key (repeatable)
//!   --dump-scenario  Print the resolved scenario and exit
//!   --predictor P    lvp | stride | pp-str | fcm | dfcm | vtage |
//!                    vtage-2dstr | fcm-2dstr | gdiff | sag-lvp | oracle
//!                                                             [default none]
//!   --counters C     baseline | fpc | full1..full8 | fpc-squash |
//!                    fpc-reissue | fpc:p0.….p6                 [default fpc]
//!   --recovery R     squash | reissue                          [default squash]
//!   --warmup N / --measure N / --scale N / --seed N
//!   --stall-report   Attach the pipeline event tap and print per-cause
//!                    stall attribution (every measured cycle charged to
//!                    exactly one cause) plus mean queue occupancies
//!   --cycle-log N    Keep the last N tap events in a ring buffer and
//!                    print them after the result (implies the tap)
//!   --sample         Interval sampling: replay only systematically
//!                    selected intervals in detail and print the sampled
//!                    IPC estimate with its 95% confidence interval
//!                    (sugar for --set sample=on; tune with --set
//!                    sample.intervals=K, sample.period=N, sample.warmup=W;
//!                    ignored under --stall-report / --cycle-log)
//! ```
//!
//! Everything resolves through a `vpsim_bench::scenario::Scenario` (the
//! positional workload overrides its benchmark list, `--predictor` its
//! predictor axis, and so on), so flag and scenario spellings of the same
//! configuration produce byte-identical output. A scenario with several
//! workloads or grid points runs the first of each; use `sweep` for the
//! whole grid.

use std::process::ExitCode;
use vpsim_bench::scenario::{resolve_cli_base, Scenario};
use vpsim_bench::TraceCache;
use vpsim_stats::stall::{CycleCause, StallReport};
use vpsim_stats::table::{fmt_f, fmt_pct, Table};
use vpsim_uarch::tap::{check_conservation, CycleLog, NullSink, StallTally};
use vpsim_uarch::RunResult;

struct Flags {
    dump: bool,
    stall_report: bool,
    cycle_log: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<(Scenario, Flags), String> {
    // Flag default: no value prediction until --predictor (or a scenario
    // grid) asks for it. Bare `simulate` (no selector) still requires a
    // workload argument.
    let base = Scenario { predictors: Vec::new(), ..Scenario::default() };
    let (mut scenario, rest, has_base) = resolve_cli_base(base, args)?;
    let mut workload: Option<String> = None;
    let mut flags = Flags { dump: false, stall_report: false, cycle_log: None };
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut val = || -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{arg} requires a value"))
        };
        match arg.as_str() {
            "--set" => scenario.set(val()?)?,
            "--dump-scenario" => flags.dump = true,
            "--stall-report" => flags.stall_report = true,
            "--cycle-log" => {
                let n: usize =
                    val()?.parse().map_err(|e| format!("--cycle-log wants a count: {e}"))?;
                if n == 0 {
                    return Err("--cycle-log must keep at least one event".into());
                }
                flags.cycle_log = Some(n);
            }
            "--sample" => scenario.apply("sample", "on")?,
            // Single-valued sugar for the grid axes.
            "--predictor" => scenario.apply("predictors", val()?)?,
            "--counters" => scenario.apply("confidence", val()?)?,
            "--recovery" => scenario.apply("recovery", val()?)?,
            flag @ ("--warmup" | "--measure" | "--scale" | "--seed") => {
                scenario.apply(&flag[2..], val()?)?
            }
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            name => match workload {
                None => workload = Some(name.to_string()),
                Some(_) => return Err(format!("unexpected extra workload {name}")),
            },
        }
    }
    match workload {
        Some(name) => scenario.apply("benchmarks", &name)?,
        None if has_base => {}
        None => return Err("no workload named (and no --scenario/--preset)".into()),
    }
    scenario.validate()?;
    Ok((scenario, flags))
}

/// Vertical per-cause view of a [`StallReport`]: one row per cause with
/// its cycle count and share of the measured window.
fn stall_table(report: &StallReport) -> Table {
    let mut t = Table::new(vec!["Cause".into(), "Cycles".into(), "Share".into()]);
    for &cause in CycleCause::ALL.iter() {
        t.row(vec![
            cause.label().into(),
            report.cause_cycles(cause).to_string(),
            fmt_pct(report.fraction(cause), 2),
        ]);
    }
    t.row(vec!["total".into(), report.total_cycles().to_string(), fmt_pct(1.0, 2)]);
    t
}

fn print_result(r: &RunResult) {
    let n = r.metrics.instructions;
    println!("instructions      {n}");
    println!("cycles            {}", r.metrics.cycles);
    println!("IPC               {:.3}", r.metrics.ipc());
    println!("branch MPKI       {:.2}", r.branch.mpki(n));
    println!("direction acc.    {:.2}%", r.branch.direction_accuracy() * 100.0);
    println!(
        "L1I / L1D / L2 MPKI  {:.1} / {:.1} / {:.1}",
        r.l1i.mpki(n),
        r.l1d.mpki(n),
        r.l2.mpki(n)
    );
    println!("L2 prefetches     {} ({} useful)", r.l2.prefetches, r.l2.useful_prefetches);
    println!("back-to-back      {:.1}%", r.back_to_back.fraction() * 100.0);
    if r.vp.eligible > 0 {
        println!("VP eligible       {}", r.vp.eligible);
        println!("VP coverage       {:.1}%", r.vp.coverage() * 100.0);
        if r.vp.used > 0 {
            println!("VP accuracy       {:.3}%", r.vp.accuracy() * 100.0);
        }
        println!(
            "VP mispredicted   {} ({} harmless)",
            r.vp.mispredicted, r.vp.harmless_mispredictions
        );
        println!("VP squashes       {}", r.vp_squashes);
        println!("reissued µops     {}", r.reissued_uops);
    }
    println!("order violations  {}", r.memory_order_violations);
    let st = &r.stalls;
    println!(
        "fetch stalls      branch {} / redirect {} / queue {}",
        st.fetch_branch_cycles, st.fetch_redirect_cycles, st.fetch_queue_full_cycles
    );
    println!(
        "dispatch stalls   rob {} / iq {} / lq {} / sq {} / prf {}",
        st.dispatch_rob_cycles,
        st.dispatch_iq_cycles,
        st.dispatch_lq_cycles,
        st.dispatch_sq_cycles,
        st.dispatch_prf_cycles
    );
    println!("commit-idle       {} of {} cycles", st.commit_idle_cycles, r.metrics.cycles);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scenario, flags) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: simulate [workload] [options] (see source header)");
            return ExitCode::FAILURE;
        }
    };
    if flags.dump {
        print!("{scenario}");
        return ExitCode::SUCCESS;
    }
    let bench = scenario.benches[0];
    if scenario.benches.len() > 1 {
        eprintln!("note: scenario lists {} workloads; running {}", scenario.benches.len(), bench);
    }
    let points = scenario.grid_points();
    if points.len() > 1 {
        eprintln!("note: scenario defines {} grid points; running {}", points.len(), points[0]);
    }
    let mut config = scenario.core_config();
    match points.first() {
        Some(point) => {
            config = config.with_vp(point.vp_config());
            println!("workload {}, predictor {}, {:?}", bench, point.kind.label(), point.recovery);
        }
        None => println!("workload {bench}, no value prediction"),
    }
    // Every path replays the same captured trace; the tap observes the
    // replay without perturbing it.
    let settings = &scenario.settings;
    let (trace, _) = TraceCache::global().get(settings, &bench, settings.trace_budget(&config));
    if flags.stall_report || flags.cycle_log.is_some() {
        if settings.sample.is_some() {
            eprintln!("note: sampling is ignored with the event tap; running the full windows");
        }
        let keep = flags.cycle_log.unwrap_or(1);
        let mut sink = (StallTally::default(), CycleLog::with_capacity(keep));
        let result = settings.run_trace_with_sink(&trace, config, &mut sink);
        print_result(&result);
        let report = sink.0.measured();
        if let Err(violation) = check_conservation(&result, &report) {
            eprintln!("error: stall conservation broken: {violation}");
            return ExitCode::FAILURE;
        }
        if flags.stall_report {
            println!();
            println!("stall attribution (measured window)");
            print!("{}", stall_table(&report));
            println!(
                "mean occupancy    ROB {} / IQ {} / LQ {} / SQ {} / FQ {}",
                fmt_f(report.mean_rob(), 1),
                fmt_f(report.mean_iq(), 1),
                fmt_f(report.mean_lq(), 1),
                fmt_f(report.mean_sq(), 1),
                fmt_f(report.mean_fq(), 1),
            );
        }
        if let Some(n) = flags.cycle_log {
            println!();
            println!("last {} of {} tap events", sink.1.tail(n).len(), sink.1.total_events());
            print!("{}", sink.1.render_tail(n));
        }
    } else if settings.sample.is_some() {
        let sampled = settings.run_trace_sampled(&trace, config);
        print_result(&sampled.combined());
        println!();
        match vpsim_stats::sample::confidence_interval(&sampled.interval_ipcs()) {
            Some(est) => {
                println!(
                    "sampled IPC       {:.3} ± {:.3} (95% CI over {} interval(s), \
                     ±{:.2}% relative)",
                    est.mean,
                    est.half_width,
                    sampled.intervals_replayed(),
                    est.relative_error() * 100.0,
                );
                println!(
                    "sampling cost     {} detailed µops, {} fast-forwarded",
                    sampled.detailed_uops, sampled.ff_uops
                );
            }
            None => println!("sampled IPC       no intervals replayed (trace too short)"),
        }
    } else {
        let result = settings.run_trace_with_sink(&trace, config, &mut NullSink);
        print_result(&result);
    }
    ExitCode::SUCCESS
}
