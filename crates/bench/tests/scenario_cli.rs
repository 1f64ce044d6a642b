//! End-to-end checks of the three binaries' scenario surface: a scenario
//! file must be byte-identical to the equivalent flag spelling, bad input
//! must fail loudly, and `--dump-scenario` must match the checked-in
//! golden file CI diffs against.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The three binaries that share the scenario front end.
const BINARIES: [&str; 3] =
    [env!("CARGO_BIN_EXE_simulate"), env!("CARGO_BIN_EXE_sweep"), env!("CARGO_BIN_EXE_paper")];

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

fn stdout(out: &Output) -> String {
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout.clone()).expect("utf8 stdout")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf8 stderr")
}

/// A scenario file in a scratch location, removed on drop.
struct TempScenario(PathBuf);

impl TempScenario {
    fn new(name: &str, text: &str) -> Self {
        let path = std::env::temp_dir().join(format!("vpsim-{}-{name}", std::process::id()));
        std::fs::write(&path, text).expect("write temp scenario");
        TempScenario(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf8 path")
    }
}

impl Drop for TempScenario {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn repo_root() -> PathBuf {
    // crates/bench → the workspace root two levels up.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("repo root")
}

#[test]
fn sweep_scenario_file_is_byte_identical_to_flags() {
    let file = TempScenario::new(
        "sweep.vps",
        "warmup = 500\nmeasure = 2000\nthreads = 2\npredictors = vtage\n\
         confidence = fpc\nrecovery = squash\nbenchmarks = gzip\n",
    );
    let from_file = run(env!("CARGO_BIN_EXE_sweep"), &["--scenario", file.path(), "--csv"]);
    let from_flags = run(
        env!("CARGO_BIN_EXE_sweep"),
        &[
            "--warmup",
            "500",
            "--measure",
            "2000",
            "--threads",
            "2",
            "--predictors",
            "vtage",
            "--confidence",
            "fpc",
            "--recovery",
            "squash",
            "--benchmarks",
            "gzip",
            "--csv",
        ],
    );
    assert_eq!(stdout(&from_file), stdout(&from_flags));
    assert!(!stdout(&from_file).is_empty());
}

#[test]
fn sweep_set_overrides_beat_the_scenario_file() {
    let file = TempScenario::new(
        "set.vps",
        "warmup = 500\nmeasure = 2000\nthreads = 1\npredictors = lvp\nbenchmarks = gzip\n",
    );
    let dumped = stdout(&run(
        env!("CARGO_BIN_EXE_sweep"),
        &["--scenario", file.path(), "--set", "predictors=oracle", "--dump-scenario"],
    ));
    assert!(dumped.contains("predictors = oracle"), "{dumped}");
    assert!(dumped.contains("measure = 2000"), "{dumped}");
}

#[test]
fn sweep_rejects_zero_threads_instead_of_clamping() {
    let out = run(env!("CARGO_BIN_EXE_sweep"), &["--threads", "0"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("threads must be >= 1"), "{}", stderr(&out));
}

#[test]
fn sweep_unknown_predictor_lists_every_spelling() {
    let out = run(env!("CARGO_BIN_EXE_sweep"), &["--predictors", "quantum"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    for spelling in ["lvp", "2d-str", "vtage-2dstr", "sag-lvp", "oracle"] {
        assert!(err.contains(spelling), "missing {spelling} in: {err}");
    }
}

#[test]
fn smoke_dump_matches_the_golden_file_in_every_binary() {
    // CI runs the same invocations; the golden file keeps the rendered
    // format honest across refactors.
    let scenario = repo_root().join("examples/scenarios/smoke.vps");
    let scenario = scenario.to_str().unwrap();
    let golden = repo_root().join("examples/scenarios/smoke.golden.vps");
    let expected = std::fs::read_to_string(&golden).expect("golden file");
    let dumped = stdout(&run(
        env!("CARGO_BIN_EXE_sweep"),
        &["--scenario", scenario, "--threads", "2", "--dump-scenario"],
    ));
    assert_eq!(
        dumped, expected,
        "regenerate with: sweep --scenario {scenario:?} --threads 2 --dump-scenario"
    );
    for bin in BINARIES {
        let args = ["--scenario", scenario, "--set", "threads=2", "--dump-scenario"];
        assert_eq!(stdout(&run(bin, &args)), expected, "{bin}");
    }
}

#[test]
fn every_sugar_flag_dumps_like_its_set_spelling_in_every_binary() {
    // (flag, value, the `--set` assignment it stands for); each value
    // differs from the smoke preset's, so a flag that is dropped fails.
    let sugar = [
        ("--warmup", "1234", "warmup=1234"),
        ("--measure", "5678", "measure=5678"),
        ("--scale", "3", "scale=3"),
        ("--seed", "0x77", "seed=0x77"),
        ("--threads", "5", "threads=5"),
        ("--predictors", "lvp,oracle", "predictors=lvp,oracle"),
        ("--predictor", "fcm-2dstr", "predictors=fcm-2dstr"),
        ("--confidence", "baseline,full6", "confidence=baseline,full6"),
        ("--counters", "fpc-reissue", "confidence=fpc-reissue"),
        ("--recovery", "reissue", "recovery=reissue"),
        ("--points", "lvp/fpc/squash", "points=lvp/fpc/squash"),
        ("--benchmarks", "lbm,k:chase", "benchmarks=lbm,k:chase"),
    ];
    let dump = |bin: &str, extra: &[&str]| {
        let mut args = vec!["--preset", "smoke"];
        args.extend_from_slice(extra);
        args.push("--dump-scenario");
        stdout(&run(bin, &args))
    };
    for bin in BINARIES {
        let plain = dump(bin, &[]);
        for (flag, value, assignment) in sugar {
            let sugared = dump(bin, &[flag, value]);
            assert_ne!(sugared, plain, "{bin} {flag} {value} changed nothing");
            assert_eq!(sugared, dump(bin, &["--set", assignment]), "{bin} {flag} {value}");
        }
        let sampled = dump(bin, &["--sample"]);
        assert_ne!(sampled, plain, "{bin} --sample changed nothing");
        assert_eq!(sampled, dump(bin, &["--set", "sample=on"]), "{bin} --sample");
    }
}

#[test]
fn no_trace_cache_is_byte_identical_and_timing_json_lands() {
    let text = "warmup = 500\nmeasure = 2000\nthreads = 2\npredictors = vtage\nbenchmarks = gzip\n";
    let file = TempScenario::new("cache.vps", text);
    let off = TempScenario::new("cache-off.vps", &format!("{text}trace_cache = off\n"));
    // `trace_cache = off` still parses (older scenario files carry it)
    // but changes nothing: same table, and it dumps as `on`.
    let cached = run(env!("CARGO_BIN_EXE_sweep"), &["--scenario", file.path(), "--csv"]);
    let keyed_off = run(env!("CARGO_BIN_EXE_sweep"), &["--scenario", off.path(), "--csv"]);
    assert_eq!(stdout(&cached), stdout(&keyed_off), "the no-op key must not change a byte");
    let dumped = |path: &str| {
        stdout(&run(env!("CARGO_BIN_EXE_sweep"), &["--scenario", path, "--dump-scenario"]))
    };
    assert!(dumped(off.path()).contains("trace_cache = on"));
    assert_eq!(dumped(off.path()), dumped(file.path()));
    // --timing-json writes the phase breakdown.
    let json_path = std::env::temp_dir().join(format!("vpsim-timing-{}.json", std::process::id()));
    let out = run(
        env!("CARGO_BIN_EXE_sweep"),
        &["--scenario", file.path(), "--csv", "--timing-json", json_path.to_str().unwrap()],
    );
    assert!(out.status.success());
    let json = std::fs::read_to_string(&json_path).expect("timing json written");
    let _ = std::fs::remove_file(&json_path);
    assert!(!json.contains("trace_cache"), "{json}");
    for needle in [
        "\"jobs\": 2",
        "\"uops\": 5000",
        "\"workloads\": 1",
        // No --store configured, so the store counters exist and are zero.
        "\"trace_store_hits\": 0",
        "\"trace_store_misses\": 0",
        "\"result_cache_hits\": 0",
        "capture_seconds",
        "ns_per_uop",
    ] {
        assert!(json.contains(needle), "missing {needle} in {json}");
    }
}

#[test]
fn sweep_preset_equals_its_flag_spelling() {
    let preset =
        run(env!("CARGO_BIN_EXE_sweep"), &["--preset", "smoke", "--threads", "2", "--csv"]);
    let flags = run(
        env!("CARGO_BIN_EXE_sweep"),
        &[
            "--warmup",
            "2000",
            "--measure",
            "10000",
            "--threads",
            "2",
            "--predictors",
            "vtage",
            "--benchmarks",
            "gzip,mcf",
            "--csv",
        ],
    );
    assert_eq!(stdout(&preset), stdout(&flags));
}

#[test]
fn simulate_scenario_file_is_byte_identical_to_flags() {
    let file = TempScenario::new(
        "simulate.vps",
        "warmup = 500\nmeasure = 2000\npredictors = lvp\nconfidence = fpc\n\
         recovery = squash\nbenchmarks = k:constant\n",
    );
    let from_file = run(env!("CARGO_BIN_EXE_simulate"), &["--scenario", file.path()]);
    let from_flags = run(
        env!("CARGO_BIN_EXE_simulate"),
        &["k:constant", "--predictor", "lvp", "--warmup", "500", "--measure", "2000"],
    );
    assert_eq!(stdout(&from_file), stdout(&from_flags));
    assert!(stdout(&from_file).contains("predictor LVP"));
}

#[test]
fn simulate_sampled_ipc_agrees_with_its_own_aggregate() {
    // Equal-length intervals make the aggregate IPC exactly 1 / mean CPI;
    // the mean of per-interval IPCs overshoots it on a phased workload.
    let args = [
        "milc",
        "--predictor",
        "vtage",
        "--sample",
        "--seed",
        "8212",
        "--warmup",
        "50000",
        "--measure",
        "2000000",
    ];
    let out = stdout(&run(env!("CARGO_BIN_EXE_simulate"), &args));
    let value = |prefix: &str| {
        let line = out.lines().find(|l| l.starts_with(prefix)).unwrap_or_else(|| {
            panic!("no {prefix:?} line in: {out}");
        });
        line[prefix.len()..].split_whitespace().next().unwrap().to_string()
    };
    assert_eq!(value("sampled IPC "), value("IPC "), "{out}");
}

#[test]
fn paper_scenario_file_is_byte_identical_to_flags() {
    let file = TempScenario::new(
        "paper.vps",
        "warmup = 500\nmeasure = 2000\nthreads = 2\nbenchmarks = gzip, mcf\n",
    );
    let from_file =
        run(env!("CARGO_BIN_EXE_paper"), &["sec3-backtoback", "--scenario", file.path(), "--csv"]);
    let from_flags = run(
        env!("CARGO_BIN_EXE_paper"),
        &[
            "sec3-backtoback",
            "--warmup",
            "500",
            "--measure",
            "2000",
            "--threads",
            "2",
            "--benchmarks",
            "gzip,mcf",
            "--csv",
        ],
    );
    assert_eq!(stdout(&from_file), stdout(&from_flags));
}

#[test]
fn paper_warns_once_about_the_grid_axes_it_ignores() {
    // Every experiment runs its own figure grid, so grid axes set on the
    // command line change nothing on stdout; stderr names each ignored key
    // once, in a single warning, and stays quiet when none is set.
    let sizing = ["fig6", "--warmup", "500", "--measure", "2000", "--benchmarks", "gzip", "--csv"];
    let plain = run(env!("CARGO_BIN_EXE_paper"), &sizing);
    let mut args = sizing.to_vec();
    args.extend([
        "--predictors",
        "lvp",
        "--set",
        "recovery=reissue",
        "--counters",
        "baseline",
        "--set",
        "predictors=vtage",
        "--points",
        "vtage/fpc-squash/squash",
    ]);
    let axes = run(env!("CARGO_BIN_EXE_paper"), &args);
    assert_eq!(stdout(&plain), stdout(&axes));
    assert!(!stderr(&plain).contains("warning"), "{}", stderr(&plain));
    let warnings: Vec<String> =
        stderr(&axes).lines().filter(|l| l.contains("warning")).map(str::to_string).collect();
    assert_eq!(warnings.len(), 1, "{warnings:?}");
    assert!(
        warnings[0].starts_with("warning: ignoring predictors, confidence, recovery, points:"),
        "{}",
        warnings[0]
    );
}

#[test]
fn dump_output_is_itself_a_loadable_scenario() {
    let dumped = stdout(&run(
        env!("CARGO_BIN_EXE_sweep"),
        &["--preset", "counters", "--threads", "3", "--dump-scenario"],
    ));
    let file = TempScenario::new("redump.vps", &dumped);
    let redumped =
        stdout(&run(env!("CARGO_BIN_EXE_sweep"), &["--scenario", file.path(), "--dump-scenario"]));
    assert_eq!(dumped, redumped);
}

#[test]
fn store_flag_is_byte_identical_and_repeats_hit_the_result_cache() {
    let file = TempScenario::new(
        "store.vps",
        "warmup = 500\nmeasure = 2000\nthreads = 2\npredictors = vtage\nbenchmarks = mcf\n",
    );
    let store = std::env::temp_dir().join(format!("vpsim-store-cli-{}", std::process::id()));
    let json_path =
        std::env::temp_dir().join(format!("vpsim-store-timing-{}.json", std::process::id()));
    let baseline = stdout(&run(env!("CARGO_BIN_EXE_sweep"), &["--scenario", file.path(), "--csv"]));
    let first = stdout(&run(
        env!("CARGO_BIN_EXE_sweep"),
        &["--scenario", file.path(), "--csv", "--store", store.to_str().unwrap()],
    ));
    assert_eq!(first, baseline, "stores never change the output");
    // A second process over the same store simulates nothing.
    let second = stdout(&run(
        env!("CARGO_BIN_EXE_sweep"),
        &[
            "--scenario",
            file.path(),
            "--csv",
            "--store",
            store.to_str().unwrap(),
            "--timing-json",
            json_path.to_str().unwrap(),
        ],
    ));
    assert_eq!(second, baseline, "cached cells render byte-identically");
    let json = std::fs::read_to_string(&json_path).expect("timing json written");
    let _ = std::fs::remove_file(&json_path);
    let _ = std::fs::remove_dir_all(&store);
    for needle in ["\"result_cache_hits\": 2", "\"uops\": 0", "\"captures\": 0"] {
        assert!(json.contains(needle), "missing {needle} in {json}");
    }
}
