//! `sweep` — expand a declarative (predictor × confidence × recovery ×
//! benchmark) grid and run it on the parallel sweep engine.
//!
//! The grid is a [`vpsim_bench::scenario::Scenario`], resolved in layers:
//! built-in defaults, then `--preset NAME` or `--scenario FILE`, then
//! `--set key=value` overrides and the dedicated flags below in
//! command-line order. `--dump-scenario` prints the fully-resolved
//! scenario (itself a loadable scenario file) instead of running.
//!
//! The no-VP baseline is always run alongside the grid so every row can
//! report a speedup. Output is merged in job-index order, so any
//! `--threads` value produces byte-identical tables.
//!
//! ```text
//! Usage: sweep [options]
//!
//! Options:
//!   --scenario FILE    Load a scenario file (key = value lines)
//!   --preset NAME      Start from a named preset (--list-presets)
//!   --set KEY=VALUE    Override one scenario key (repeatable)
//!   --dump-scenario    Print the resolved scenario and exit
//!   --list-presets     Print the preset registry and exit
//!   --threads N        Worker threads        [default: all hardware threads]
//!   --predictors LIST  Comma-separated predictor names (lvp, 2d-str, pp-str,
//!                      fcm, dfcm, vtage, vtage-2dstr, fcm-2dstr, gdiff,
//!                      sag-lvp, oracle)      [default: lvp,2d-str,fcm,vtage]
//!   --confidence LIST  baseline | fpc | full1..full8 | fpc-squash |
//!                      fpc-reissue | fpc:p0.….p6       [default: fpc]
//!   --recovery LIST    squash | reissue                [default: squash]
//!   --benchmarks LIST  Table 3 names and k:* kernels   [default: all 19]
//!   --warmup N         Warm-up instructions per run    [default 50000]
//!   --measure N        Measured instructions per run   [default 200000]
//!   --scale N          Workload footprint multiplier   [default 1]
//!   --seed N           RNG seed                        [default 0x2014]
//!   --matrix           Speedup matrix (benchmark rows × grid-point columns)
//!                      instead of the long-form table
//!   --stall-report     Attach the pipeline event tap to every job and
//!                      print per-cell stall attribution (one row per
//!                      cell: cycles, per-cause shares, mean occupancies)
//!                      instead of the speedup table; every cell is
//!                      conservation-checked against its RunResult
//!   --csv              Emit CSV instead of aligned text
//!   --json             Emit JSON (array of row objects) instead of text
//!   --sample           Interval sampling: fast-forward the trace through a
//!                      functional warmer and replay only systematically
//!                      selected intervals in detail — an IPC estimate at a
//!                      fraction of the replay cost (sugar for --set
//!                      sample=on; tune with --set sample.intervals=K,
//!                      sample.period=N, sample.warmup=W)
//!   --timing-json F    Write capture/replay/total wall-clock, job/µop
//!                      counts, store hit/miss counters and ns-per-µop
//!                      to F as JSON (see BENCH_sweep.json)
//!   --store DIR        Persistent stores under DIR: captured traces
//!                      (DIR/traces) and finished per-cell results
//!                      (DIR/results) survive the process and are shared
//!                      with other runs — a finished cell is never
//!                      simulated twice. Output is byte-identical with or
//!                      without the stores.
//!   --remote ADDR      Submit the resolved scenario to a vpsim-serve job
//!                      server at ADDR (host:port) instead of running
//!                      locally. Streams per-cell progress to stderr; the
//!                      table on stdout is byte-identical to a local run.
//!                      `ERR server busy` replies are retried with
//!                      jittered exponential backoff, honouring the
//!                      server's RETRY-AFTER hint.
//!   --workers LIST     Comma-separated vpsim-serve addresses. The grid is
//!                      sharded across them (worker i simulates cells with
//!                      index % n == i) and the raw per-cell results are
//!                      merged back in job-index order, so the table on
//!                      stdout is byte-identical to a local or single
//!                      --remote run. Point every worker at the same
//!                      --store directory to share traces and finished
//!                      cells.
//! ```
//!
//! Example: compare VTAGE and the hybrid under both recovery schemes on
//! four benchmarks, on a narrow core, using four workers:
//!
//! ```text
//! sweep --threads 4 --predictors vtage,vtage-2dstr --recovery squash,reissue \
//!       --benchmarks gzip,mcf,h264ref,lbm --set core.fetch_width=4 --matrix
//! ```

use std::process::ExitCode;
use vpsim_bench::protocol::{Format, View};
use vpsim_bench::remote;
use vpsim_bench::scenario::{presets, resolve_cli_base, Scenario};
use vpsim_bench::store::Stores;

struct Options {
    scenario: Scenario,
    matrix: bool,
    stall_report: bool,
    csv: bool,
    json: bool,
    dump: bool,
    list_presets: bool,
    timing_json: Option<String>,
    store: Option<String>,
    remote: Option<String>,
    workers: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut base = Scenario::default();
    // CLI default: use every hardware thread (a scenario file or a later
    // --threads flag still overrides this).
    base.settings.threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (mut scenario, rest, _) = resolve_cli_base(base, args)?;
    let mut matrix = false;
    let mut stall_report = false;
    let mut csv = false;
    let mut json = false;
    let mut dump = false;
    let mut list_presets = false;
    let mut timing_json = None;
    let mut store = None;
    let mut remote = None;
    let mut workers = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut val = || -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{arg} requires a value"))
        };
        match arg.as_str() {
            "--set" => scenario.set(val()?)?,
            "--matrix" => matrix = true,
            "--stall-report" => stall_report = true,
            "--csv" => csv = true,
            "--json" => json = true,
            "--dump-scenario" => dump = true,
            "--list-presets" => list_presets = true,
            "--sample" => scenario.apply("sample", "on")?,
            "--timing-json" => timing_json = Some(val()?.clone()),
            "--store" => store = Some(val()?.clone()),
            "--remote" => remote = Some(val()?.clone()),
            "--workers" => {
                workers = val()?.split(',').map(|a| a.trim().to_string()).collect();
                if workers.iter().any(String::is_empty) {
                    return Err("--workers takes a comma-separated list of host:port".into());
                }
            }
            // Dedicated flags are sugar for --set with the same key.
            flag @ ("--threads" | "--predictors" | "--confidence" | "--recovery"
            | "--benchmarks" | "--warmup" | "--measure" | "--scale" | "--seed") => {
                scenario.apply(&flag[2..], val()?)?
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if stall_report && matrix {
        return Err("--stall-report prints per-cell attribution; --matrix does not apply".into());
    }
    if stall_report && timing_json.is_some() {
        return Err("--stall-report runs do not produce a --timing-json record".into());
    }
    if csv && json {
        return Err("--csv and --json are mutually exclusive".into());
    }
    if remote.is_some() && !workers.is_empty() {
        return Err("--remote and --workers are mutually exclusive; --workers shards".into());
    }
    if remote.is_some() || !workers.is_empty() {
        if stall_report {
            return Err("--stall-report runs locally; it cannot be combined with --remote".into());
        }
        if timing_json.is_some() {
            return Err("--timing-json measures a local run; use the server's STATS line".into());
        }
        if store.is_some() {
            return Err("--store configures local stores; the server manages its own".into());
        }
    }
    scenario.validate()?;
    Ok(Options {
        scenario,
        matrix,
        stall_report,
        csv,
        json,
        dump,
        list_presets,
        timing_json,
        store,
        remote,
        workers,
    })
}

fn render(table: &vpsim_stats::table::Table, o: &Options) -> String {
    if o.csv {
        table.to_csv()
    } else if o.json {
        table.to_json()
    } else {
        table.to_ascii()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: sweep [options]; see the source header for details");
            return ExitCode::FAILURE;
        }
    };
    if options.list_presets {
        for (name, description) in presets() {
            println!("{name:<20} {description}");
        }
        return ExitCode::SUCCESS;
    }
    if options.dump {
        print!("{}", options.scenario);
        return ExitCode::SUCCESS;
    }
    if options.remote.is_some() || !options.workers.is_empty() {
        let view = if options.matrix { View::Matrix } else { View::Long };
        let format = if options.csv {
            Format::Csv
        } else if options.json {
            Format::Json
        } else {
            Format::Ascii
        };
        let mut progress = |cell: &str| eprintln!("{cell}");
        let outcome = match &options.remote {
            Some(addr) => remote::submit(addr, &options.scenario, view, format, &mut progress),
            None => remote::submit_workers(
                &options.workers,
                &options.scenario,
                view,
                format,
                &mut progress,
            ),
        };
        return match outcome {
            Ok(outcome) => {
                print!("{}", outcome.table);
                if !outcome.stats.is_empty() {
                    eprintln!("{}", outcome.stats);
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut spec = options.scenario.to_spec();
    if let Some(dir) = &options.store {
        spec.stores = match Stores::open(dir) {
            Ok(stores) => stores,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
    }
    if options.stall_report {
        let results = spec.run_stall_report();
        print!("{}", render(&results.table(), &options));
        return ExitCode::SUCCESS;
    }
    let results = spec.run();
    let table = if options.matrix { results.matrix() } else { results.table() };
    if options.csv || options.json {
        print!("{}", render(&table, &options));
    } else {
        eprintln!(
            "{} runs ({} benchmark(s) x {} grid point(s) + baseline) on {} thread(s)",
            spec.job_count(),
            spec.benches.len(),
            spec.points().len(),
            spec.settings.threads,
        );
        println!("{table}");
        let t = &results.timing;
        eprintln!(
            "wall-clock: {:.2}s total ({:.2}s capture of {} trace(s), {:.2}s replay, {:.0} ns/µop)",
            t.total.as_secs_f64(),
            t.capture.as_secs_f64(),
            t.captures,
            t.replay.as_secs_f64(),
            t.ns_per_uop(),
        );
        if t.sampled {
            eprintln!(
                "sampling: {} interval(s) replayed in detail ({} µops), {} µops fast-forwarded",
                t.intervals_replayed, t.uops, t.ff_uops,
            );
        }
    }
    if let Some(path) = &options.timing_json {
        if let Err(e) = std::fs::write(path, results.timing.to_json()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
