//! End-to-end checks of the three binaries' scenario surface: a scenario
//! file must be byte-identical to the equivalent flag spelling, bad input
//! must fail loudly, and `--dump-scenario` must match the checked-in
//! golden file CI diffs against.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

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
fn sweep_smoke_dump_matches_the_golden_file() {
    // CI runs the same invocation; the golden file keeps the rendered
    // format honest across refactors.
    let scenario = repo_root().join("examples/scenarios/smoke.vps");
    let golden = repo_root().join("examples/scenarios/smoke.golden.vps");
    let dumped = stdout(&run(
        env!("CARGO_BIN_EXE_sweep"),
        &["--scenario", scenario.to_str().unwrap(), "--threads", "2", "--dump-scenario"],
    ));
    let expected = std::fs::read_to_string(&golden).expect("golden file");
    assert_eq!(
        dumped, expected,
        "regenerate with: sweep --scenario {scenario:?} --threads 2 --dump-scenario"
    );
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
