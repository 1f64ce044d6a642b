//! `paper` — regenerate every table and figure of Perais & Seznec,
//! HPCA 2014, on the vpsim substrate.
//!
//! ```text
//! Usage: paper <experiment> [options]
//!
//! Experiments:
//!   table1           Predictor layout summary (Table 1)
//!   table2           Simulator configuration (Table 2)
//!   table3           Benchmark suite (Table 3)
//!   sec3-model       §3.1 analytic recovery-cost example
//!   sec3-backtoback  §3.2 back-to-back fetch statistic
//!   sec4-regfile     §4 register-file port cost model
//!   fig3             Oracle speedup upper bound
//!   fig4             Speedup, squash-at-commit (a: baseline counters, b: FPC)
//!   fig5             Speedup, selective reissue (a: baseline counters, b: FPC)
//!   fig6             VTAGE speedup/coverage, baseline vs FPC
//!   fig7             Hybrid predictors: speedup and coverage
//!   accuracy         §8.2 accuracy, baseline vs FPC
//!   recovery         §8.2.4 squash-at-commit vs selective reissue (VTAGE)
//!   ipc              Diagnostics: baseline IPC + substrate statistics
//!   ablation-vtage   VTAGE component-count sweep (offline evaluation)
//!   ablation-extended  PP-Str / D-FCM / gDiff-VTAGE vs the hybrid
//!   locality         Value-locality breakdown per benchmark (offline)
//!   counters         §5 counter width vs FPC (VTAGE)
//!   all              Every paper artifact above (extensions excluded)
//!
//! Options:
//!   --csv            Emit CSV instead of aligned text
//!
//! Scenario options (--scenario, --preset, --set, --KEY VALUE, --predictor,
//! --counters, --sample, --dump-scenario) are shared with simulate and
//! sweep: see `vpsim_bench::scenario::resolve_cli`. The default sizing is
//! the paper's, on every hardware thread. Under --sample every
//! simulation-backed grid cell is a sampled estimate.
//! ```
//!
//! Each experiment imposes its own figure grid (a named
//! `vpsim_bench::scenario` preset — `sweep --preset fig6` runs the same
//! configurations), so a scenario's `predictors`/`confidence`/`recovery`/
//! `points` axes are ignored here, with a warning on stderr when the
//! command line sets one; its sizing, benchmark list and `core.*`
//! overrides all apply. Every simulation-backed experiment runs on the
//! `vpsim_bench::sweep` engine; `--threads` changes wall-clock time only,
//! never a byte of output.

use std::process::ExitCode;
use vpsim_bench::experiments as exp;
use vpsim_bench::scenario::{resolve_cli, Scenario};
use vpsim_stats::table::Table;
use vpsim_uarch::RecoveryPolicy;

/// The scenario keys every experiment replaces with its own figure grid.
const GRID_AXES: [&str; 4] = ["predictors", "confidence", "recovery", "points"];

struct Options {
    scenario: Scenario,
    csv: bool,
    dump: bool,
    /// The grid axes the command line set, which the experiments ignore.
    ignored: Vec<&'static str>,
}

fn parse_args(args: &[String]) -> Result<(Vec<String>, Options), String> {
    let mut base = Scenario::default();
    base.settings.threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cli = resolve_cli(base, args, &[])?;
    let mut csv = false;
    let mut experiments = Vec::new();
    for arg in cli.rest {
        match arg.as_str() {
            "--csv" => csv = true,
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            _ => experiments.push(arg),
        }
    }
    cli.scenario.validate()?;
    let ignored =
        GRID_AXES.into_iter().filter(|axis| cli.edited.iter().any(|k| k == axis)).collect();
    Ok((experiments, Options { scenario: cli.scenario, csv, dump: cli.dump, ignored }))
}

fn emit(title: &str, table: &Table, csv: bool) {
    if csv {
        print!("{}", table.to_csv());
    } else {
        println!("== {title} ==");
        println!("{table}");
    }
}

fn run_experiment(name: &str, o: &Options) -> Result<(), String> {
    let sc = &o.scenario;
    match name {
        "table1" => emit("Table 1: predictor layout", &exp::table1(), o.csv),
        "table2" => emit("Table 2: simulator configuration", &exp::table2(), o.csv),
        "table3" => emit("Table 3: benchmark suite", &exp::table3(&sc.benches), o.csv),
        "sec3-model" => {
            emit("§3.1 analytic example (net cycles per Kinst)", &exp::sec3_model(), o.csv)
        }
        "sec3-backtoback" => {
            emit("§3.2 back-to-back eligible fetches", &exp::sec3_backtoback(sc), o.csv)
        }
        "sec4-regfile" => emit("§4 register-file port cost", &exp::sec4_regfile(), o.csv),
        "fig3" => emit("Figure 3: oracle speedup upper bound", &exp::fig3(sc), o.csv),
        "fig4" => {
            emit(
                "Figure 4(a): squash-at-commit, baseline counters",
                &exp::fig45(sc, RecoveryPolicy::SquashAtCommit, false),
                o.csv,
            );
            emit(
                "Figure 4(b): squash-at-commit, FPC",
                &exp::fig45(sc, RecoveryPolicy::SquashAtCommit, true),
                o.csv,
            );
        }
        "fig5" => {
            emit(
                "Figure 5(a): selective reissue, baseline counters",
                &exp::fig45(sc, RecoveryPolicy::SelectiveReissue, false),
                o.csv,
            );
            emit(
                "Figure 5(b): selective reissue, FPC",
                &exp::fig45(sc, RecoveryPolicy::SelectiveReissue, true),
                o.csv,
            );
        }
        "fig6" => emit("Figure 6: VTAGE, baseline vs FPC", &exp::fig6(sc), o.csv),
        "fig7" => emit("Figure 7: hybrid predictors", &exp::fig7(sc), o.csv),
        "accuracy" => emit("§8.2 accuracy, baseline vs FPC", &exp::accuracy(sc), o.csv),
        "recovery" => {
            emit("§8.2.4 recovery comparison (VTAGE, FPC)", &exp::recovery_comparison(sc), o.csv)
        }
        "ipc" => emit("Diagnostics: IPC and substrate stats", &exp::ipc_diagnostics(sc), o.csv),
        "ablation-vtage" => {
            emit("Ablation: VTAGE component count (offline)", &exp::ablation_vtage(sc), o.csv)
        }
        "ablation-extended" => emit(
            "Ablation: extended predictors (PP-Str, D-FCM, gDiff)",
            &exp::ablation_extended(sc),
            o.csv,
        ),
        "locality" => emit("Value locality per benchmark (offline)", &exp::locality(sc), o.csv),
        "counters" => emit("§5 counter width vs FPC (VTAGE)", &exp::counters(sc), o.csv),
        "all" => {
            for e in [
                "table1",
                "table2",
                "table3",
                "sec3-model",
                "sec4-regfile",
                "sec3-backtoback",
                "fig3",
                "fig4",
                "fig5",
                "fig6",
                "fig7",
                "accuracy",
                "recovery",
            ] {
                run_experiment(e, o)?;
            }
        }
        other => return Err(format!("unknown experiment {other}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: paper <experiment> [options]; see the source header for details");
        return ExitCode::FAILURE;
    }
    match parse_args(&args) {
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Ok((experiments, options)) => {
            if options.dump {
                print!("{}", options.scenario);
                return ExitCode::SUCCESS;
            }
            if experiments.is_empty() {
                eprintln!("error: no experiment named");
                return ExitCode::FAILURE;
            }
            if !options.ignored.is_empty() {
                eprintln!(
                    "warning: ignoring {}: each paper experiment runs its own figure grid",
                    options.ignored.join(", ")
                );
            }
            for e in &experiments {
                if let Err(msg) = run_experiment(e, &options) {
                    eprintln!("error: {msg}");
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
    }
}
