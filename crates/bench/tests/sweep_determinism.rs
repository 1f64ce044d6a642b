//! The sweep engine's core guarantee: a parallel run is **bit-identical**
//! to a serial run of the same grid, for any worker count.

use vpsim_bench::sweep::{run_grid, SchemeChoice, SweepSpec};
use vpsim_bench::RunSettings;
use vpsim_core::PredictorKind;
use vpsim_uarch::{RecoveryPolicy, Simulator, VpConfig};
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
        Simulator::new(config).run_with_warmup(&(bench.build)(&s.params()), s.warmup, s.measure)
    };
    assert_eq!(results.baseline.rows[0].1, by_hand(&spec.benches[0], s.core()));
    // And the first grid point must match its by-hand configuration.
    let (point, suite) = &results.points[0];
    let by_hand_vp = by_hand(&spec.benches[1], s.core().with_vp(point.vp_config()));
    assert_eq!(suite.rows[1].1, by_hand_vp);
}

#[test]
fn run_grid_is_thread_count_invariant() {
    let mut s = tiny();
    let benches = [benchmark("gzip").unwrap(), benchmark("mcf").unwrap()];
    let configs = [
        s.core(),
        s.core().with_vp(VpConfig::enabled(PredictorKind::Vtage, RecoveryPolicy::SquashAtCommit)),
    ];
    let serial = run_grid(&s, &benches, &configs);
    for workers in [2, 4] {
        s.threads = workers;
        let parallel = run_grid(&s, &benches, &configs);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.rows, b.rows, "{workers} workers");
        }
    }
}
