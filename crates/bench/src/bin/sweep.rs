//! `sweep` — expand a declarative (predictor × confidence × recovery ×
//! benchmark) grid and run it on the parallel sweep engine.
//!
//! The grid is a [`vpsim_bench::scenario::Scenario`], resolved by the
//! scenario options shared with simulate and paper (--scenario, --preset,
//! --set, --KEY VALUE, --predictor, --counters, --sample, --dump-scenario:
//! see `vpsim_bench::scenario::resolve_cli`). The default grid is the
//! paper's headline grid on every hardware thread.
//!
//! The no-VP baseline is always run alongside the grid so every row can
//! report a speedup. Output is merged in job-index order, so any
//! `--threads` value produces byte-identical tables.
//!
//! ```text
//! Usage: sweep [options]
//!
//! Options:
//!   --list-presets     Print the preset registry and exit
//!   --matrix           Speedup matrix (benchmark rows × grid-point columns)
//!                      instead of the long-form table
//!   --stall-report     Attach the pipeline event tap to every job and
//!                      print per-cell stall attribution (one row per
//!                      cell: cycles, per-cause shares, mean occupancies)
//!                      instead of the speedup table; every cell is
//!                      conservation-checked against its RunResult
//!   --csv              Emit CSV instead of aligned text
//!   --json             Emit JSON (array of row objects) instead of text
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
use vpsim_bench::protocol::{render_output, render_table, Format, View};
use vpsim_bench::remote;
use vpsim_bench::scenario::{presets, resolve_cli, Scenario};
use vpsim_bench::store::Stores;

struct Options {
    scenario: Scenario,
    view: View,
    format: Format,
    stall_report: bool,
    dump: bool,
    list_presets: bool,
    timing_json: Option<String>,
    store: Option<String>,
    remote: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut base = Scenario::default();
    // CLI default: use every hardware thread (a scenario file or a later
    // --threads flag still overrides this).
    base.settings.threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cli = resolve_cli(base, args, &["--timing-json", "--store", "--remote"])?;
    let mut view = View::Long;
    let mut format = Format::Ascii;
    let mut stall_report = false;
    let mut list_presets = false;
    let mut timing_json = None;
    let mut store = None;
    let mut remote = None;
    let mut it = cli.rest.iter();
    while let Some(arg) = it.next() {
        let mut val = || it.next().cloned().ok_or_else(|| format!("{arg} requires a value"));
        match arg.as_str() {
            "--matrix" => view = View::Matrix,
            "--stall-report" => stall_report = true,
            "--csv" | "--json" => {
                let chosen = if arg == "--csv" { Format::Csv } else { Format::Json };
                if format != Format::Ascii && format != chosen {
                    return Err("--csv and --json are mutually exclusive".into());
                }
                format = chosen;
            }
            "--list-presets" => list_presets = true,
            "--timing-json" => timing_json = Some(val()?),
            "--store" => store = Some(val()?),
            "--remote" => remote = Some(val()?),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if stall_report && view == View::Matrix {
        return Err("--stall-report prints per-cell attribution; --matrix does not apply".into());
    }
    if stall_report && timing_json.is_some() {
        return Err("--stall-report runs do not produce a --timing-json record".into());
    }
    if remote.is_some() {
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
    cli.scenario.validate()?;
    Ok(Options {
        scenario: cli.scenario,
        view,
        format,
        stall_report,
        dump: cli.dump,
        list_presets,
        timing_json,
        store,
        remote,
    })
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
    if let Some(addr) = &options.remote {
        let progress = |cell: &str| eprintln!("{cell}");
        return match remote::submit(addr, &options.scenario, options.view, options.format, progress)
        {
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
        print!("{}", render_table(&results.table(), options.format));
        return ExitCode::SUCCESS;
    }
    let results = spec.run();
    let ascii = options.format == Format::Ascii;
    if ascii {
        eprintln!(
            "{} runs ({} benchmark(s) x {} grid point(s) + baseline) on {} thread(s)",
            spec.job_count(),
            spec.benches.len(),
            spec.points().len(),
            spec.settings.threads,
        );
    }
    print!("{}", render_output(&results, options.view, options.format));
    if ascii {
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
                "sampling: {} interval(s) replayed in detail ({} µops), {} µops fast-forwarded \
                 (summed over cells) in {} pass(es)",
                t.intervals_replayed, t.uops, t.ff_uops, t.ff_passes,
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
