//! The scenario layer's core guarantee: `parse(render(s)) == s` for every
//! valid scenario — rendered text is itself a loadable scenario file, so
//! `--dump-scenario` output is a complete reproduction recipe.

use proptest::prelude::*;
use vpsim_bench::scenario::{preset, preset_names, CoreOverrides, Scenario};
use vpsim_bench::sweep::{GridPoint, SchemeChoice};
use vpsim_core::PredictorKind;
use vpsim_uarch::RecoveryPolicy;
use vpsim_workloads::workload_names;

fn scheme_pool() -> Vec<SchemeChoice> {
    vec![
        SchemeChoice::Baseline,
        SchemeChoice::Fpc,
        SchemeChoice::Full(1),
        SchemeChoice::Full(6),
        SchemeChoice::Full(8),
        SchemeChoice::FpcVector([0, 4, 4, 4, 4, 5, 5]),
        SchemeChoice::FpcVector([0, 3, 3, 3, 3, 4, 4]),
        SchemeChoice::FpcVector([1, 2, 3, 4, 5, 6, 7]),
    ]
}

fn recovery_pool() -> Vec<RecoveryPolicy> {
    vec![RecoveryPolicy::SquashAtCommit, RecoveryPolicy::SelectiveReissue]
}

fn prf_pool() -> Vec<Option<usize>> {
    vec![None, Some(64), Some(96), Some(128), Some(512)]
}

fn width_pool() -> Vec<Option<usize>> {
    vec![None, Some(1), Some(2), Some(4), Some(8), Some(16)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_scenarios_round_trip(
        warmup in 0u64..1_000_000,
        measure in 1u64..1_000_000,
        scale in 1usize..6,
        seed in any::<u64>(),
        threads in 1usize..17,
        sampled in any::<bool>(),
        sample_intervals in 1u64..100,
        sample_period in 1u64..100_000,
        sample_warmup in 0u64..10_000,
        predictors in prop::collection::vec(
            prop::sample::select(PredictorKind::ALL.to_vec()), 0..5),
        schemes in prop::collection::vec(prop::sample::select(scheme_pool()), 0..4),
        recoveries in prop::collection::vec(prop::sample::select(recovery_pool()), 0..3),
        explicit_points in any::<bool>(),
        point_kinds in prop::collection::vec(
            prop::sample::select(PredictorKind::ALL.to_vec()), 0..4),
        point_schemes in prop::collection::vec(prop::sample::select(scheme_pool()), 0..4),
        point_recoveries in prop::collection::vec(prop::sample::select(recovery_pool()), 0..4),
        bench_indices in prop::collection::vec(0usize..28, 1..6),
        fetch_width in prop::sample::select(width_pool()),
        rob_entries in prop::sample::select(vec![None, Some(32usize), Some(128), Some(512)]),
        int_prf in prop::sample::select(prf_pool()),
        fp_prf in prop::sample::select(prf_pool()),
        store_sets in prop::sample::select(vec![None, Some(256usize), Some(4096)]),
    ) {
        let names = workload_names();
        let benches = bench_indices
            .iter()
            .map(|&i| names[i % names.len()].parse().unwrap())
            .collect();
        // Explicit points zip the three drawn lists (their lengths differ,
        // so the grid is genuinely non-rectangular).
        let points = explicit_points.then(|| {
            point_kinds
                .iter()
                .zip(&point_schemes)
                .zip(&point_recoveries)
                .map(|((&kind, &scheme), &recovery)| GridPoint { kind, scheme, recovery })
                .collect::<Vec<_>>()
        });
        let sample = sampled.then_some(vpsim_uarch::SampleConfig {
            intervals: sample_intervals,
            period: sample_period,
            warmup: sample_warmup,
        });
        let scenario = Scenario {
            settings: vpsim_bench::RunSettings {
                warmup, measure, scale, seed, threads, sample,
            },
            predictors,
            schemes,
            recoveries,
            points,
            benches,
            core: CoreOverrides {
                fetch_width,
                rob_entries,
                int_prf,
                fp_prf,
                store_set_entries: store_sets,
                ..CoreOverrides::default()
            },
        };
        // Only valid scenarios are covered by the guarantee; the pools
        // above occasionally produce invalid cores (store sets already
        // filtered to powers of two, so only validity holds trivially).
        prop_assert!(scenario.validate().is_ok());
        let rendered = scenario.to_string();
        let reparsed: Scenario = rendered.parse().unwrap();
        prop_assert_eq!(reparsed, scenario);
    }
}

#[test]
fn every_preset_round_trips_through_its_rendering() {
    for name in preset_names() {
        let sc = preset(name).unwrap();
        let reparsed: Scenario = sc.to_string().parse().unwrap();
        assert_eq!(reparsed, sc, "preset {name}");
    }
}

#[test]
fn rendered_scenarios_are_stable_under_a_second_round_trip() {
    // render ∘ parse is idempotent on rendered text (canonical form).
    let sc = preset("counters").unwrap();
    let once = sc.to_string();
    let twice = once.parse::<Scenario>().unwrap().to_string();
    assert_eq!(once, twice);
}
