//! The sweep engine's core guarantee: a parallel run is **bit-identical**
//! to a serial run of the same grid, for any worker count.

use vpsim_bench::store::cell_key;
use vpsim_bench::sweep::{SchemeChoice, SweepSpec};
use vpsim_bench::{RunSettings, Stores};
use vpsim_core::PredictorKind;
use vpsim_isa::Executor;
use vpsim_uarch::tap::NullSink;
use vpsim_uarch::{RecoveryPolicy, RunResult, SampleConfig, Simulator};
use vpsim_workloads::benchmark;

fn tiny() -> RunSettings {
    RunSettings { warmup: 1_000, measure: 6_000, ..RunSettings::default() }
}

fn small_grid() -> SweepSpec {
    SweepSpec {
        settings: tiny(),
        predictors: vec![PredictorKind::Vtage, PredictorKind::TwoDeltaStride],
        schemes: vec![SchemeChoice::Fpc],
        recoveries: vec![RecoveryPolicy::SquashAtCommit, RecoveryPolicy::SelectiveReissue],
        benches: vec![benchmark("gzip").unwrap(), benchmark("h264ref").unwrap()],
        ..SweepSpec::default()
    }
}

#[test]
fn parallel_output_is_bit_identical_to_serial() {
    let mut spec = small_grid();
    let serial = spec.run();
    let serial_long = serial.table().to_csv();
    let serial_matrix = serial.matrix().to_csv();
    for workers in [1, 2, 4] {
        spec.settings.threads = workers;
        let parallel = spec.run();
        assert_eq!(parallel.table().to_csv(), serial_long, "{workers} workers, long table");
        assert_eq!(parallel.matrix().to_csv(), serial_matrix, "{workers} workers, matrix");
        assert_eq!(
            parallel.table().to_ascii(),
            serial.table().to_ascii(),
            "{workers} workers, ascii"
        );
    }
}

#[test]
fn engine_results_match_direct_simulator_runs() {
    let mut spec = small_grid();
    spec.settings.threads = 4;
    let results = spec.run();
    // Baseline row 0 must equal a by-hand inline run of the same
    // benchmark (the functional executor streaming into the core).
    let s = spec.settings;
    let by_hand = |bench: &vpsim_workloads::Benchmark, config| {
        let program = (bench.build)(&s.params());
        Simulator::new(config).replay(Executor::new(&program), s.warmup, s.measure, &mut NullSink)
    };
    assert_eq!(results.baseline.rows[0].1, by_hand(&spec.benches[0], s.core()));
    // And the first grid point must match its by-hand configuration.
    let (point, suite) = &results.points[0];
    let by_hand_vp = by_hand(&spec.benches[1], s.core().with_vp(point.vp_config()));
    assert_eq!(suite.rows[1].1, by_hand_vp);
}

/// A sampled sweep fast-forwards each workload once and replays every
/// cell from the shared checkpoints; each cell must still equal its own
/// `Simulator::run_sampled`, at any thread count, and also when the cell
/// that would have taken a workload's pass is served from the result
/// cache instead.
#[test]
fn sampled_sweep_cells_match_per_cell_run_sampled() {
    let spec = SweepSpec {
        settings: RunSettings {
            warmup: 1_000,
            measure: 12_000,
            seed: 3,
            sample: Some(SampleConfig { intervals: 3, period: 2_000, warmup: 500 }),
            ..RunSettings::default()
        },
        predictors: vec![PredictorKind::Lvp, PredictorKind::Vtage],
        schemes: vec![SchemeChoice::Fpc],
        recoveries: vec![RecoveryPolicy::SquashAtCommit, RecoveryPolicy::SelectiveReissue],
        benches: vec![benchmark("gzip").unwrap(), benchmark("mcf").unwrap()],
        ..SweepSpec::default()
    };
    let s = spec.settings;
    let jobs = spec.expand();
    let expected: Vec<RunResult> = jobs
        .iter()
        .map(|job| {
            let trace = s.capture(&job.bench, s.trace_budget(&job.config));
            let sim = Simulator::new(job.config.clone());
            sim.run_sampled(&trace, s.warmup, s.measure, s.sample.unwrap()).combined()
        })
        .collect();
    let cells = |spec: &SweepSpec| {
        let r = spec.run();
        let mut out: Vec<RunResult> = r.baseline.rows.iter().map(|(_, c)| *c).collect();
        out.extend(r.points.iter().flat_map(|(_, suite)| suite.rows.iter().map(|(_, c)| *c)));
        (out, r.timing)
    };
    for threads in [1, 3] {
        let threaded = SweepSpec { settings: RunSettings { threads, ..s }, ..spec.clone() };
        let (got, timing) = cells(&threaded);
        assert_eq!(got, expected, "threads={threads}");
        assert_eq!(timing.ff_passes, 2, "threads={threads}");

        // Job 0 (gzip's baseline) is the first cell a serial run would
        // fast-forward gzip in. Pre-seed the store with it, so one of
        // gzip's other cells has to take the pass.
        let dir = std::env::temp_dir()
            .join(format!("vpsim-sampled-shared-{}-{threads}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let stores = Stores::open(&dir).unwrap();
        stores.results.as_ref().unwrap().save(&cell_key(&s, &jobs[0]), &expected[0]);
        let (got, timing) = cells(&SweepSpec { stores, ..threaded });
        assert_eq!(timing.result_cache_hits, 1, "threads={threads}");
        assert_eq!(timing.ff_passes, 2, "threads={threads}");
        assert_eq!(got, expected, "threads={threads}, pre-seeded store");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
