//! Store-mapped replay equivalence: a trace served from a memory-mapped
//! store entry must replay — in full and sampled — bit-identically to a
//! fresh capture, across predictors and recovery policies; and truncated
//! or corrupt entries must be rejected (evicted), never replayed.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use vpsim_bench::store::{Stores, TraceStore};
use vpsim_bench::sweep::{SchemeChoice, SweepSpec};
use vpsim_bench::{RunSettings, TraceCache};
use vpsim_core::PredictorKind;
use vpsim_uarch::tap::NullSink;
use vpsim_uarch::{CoreConfig, RecoveryPolicy, SampleConfig, VpConfig};
use vpsim_workloads::benchmark;

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vpsim-trace-view-{tag}-{}", std::process::id()))
}

fn settings() -> RunSettings {
    RunSettings { warmup: 500, measure: 2_000, ..RunSettings::default() }
}

/// Baseline plus predictor × recovery grid points under FPC.
fn grid_configs(s: &RunSettings) -> Vec<CoreConfig> {
    let mut configs = vec![s.core()];
    for kind in [PredictorKind::Lvp, PredictorKind::TwoDeltaStride, PredictorKind::Vtage] {
        for recovery in [RecoveryPolicy::SquashAtCommit, RecoveryPolicy::SelectiveReissue] {
            let scheme = SchemeChoice::Fpc.build(recovery);
            configs.push(s.core().with_vp(VpConfig { kind, scheme, recovery }));
        }
    }
    configs
}

#[test]
fn mapped_view_replay_matches_owned_replay_across_the_grid() {
    let dir = scratch_dir("grid");
    let _ = std::fs::remove_dir_all(&dir);
    let store = TraceStore::open(&dir).unwrap();

    let s = settings();
    let bench = benchmark("gzip").expect("gzip exists");
    let configs = grid_configs(&s);
    let budget = configs.iter().map(|c| s.trace_budget(c)).max().unwrap();
    let trace = s.capture(&bench, budget);
    store.save(bench.name, s.scale, s.seed, budget, false, &trace);

    let mapped = store.map(bench.name, s.scale, s.seed).expect("entry maps back");
    assert!(mapped.covers(budget), "mapped entry covers the capture budget");
    assert!(mapped.is_mapped(), "store hit is served by mmap, not a heap copy");
    assert_eq!(mapped.trace.len(), trace.len(), "the mapping holds every record");

    for config in configs {
        let captured = s.run_trace_with_sink(&trace, config.clone(), &mut NullSink);
        let replayed = s.run_trace_with_sink(&mapped.trace, config.clone(), &mut NullSink);
        assert_eq!(
            captured, replayed,
            "mapped replay must be bit-identical to replaying the capture ({config:?})"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mapped_trace_samples_identically_to_a_fresh_capture() {
    let dir = scratch_dir("sampled");
    let _ = std::fs::remove_dir_all(&dir);
    // A seed of its own, so no other test's capture is in the
    // process-wide cache.
    let s = RunSettings {
        warmup: 2_000,
        measure: 40_000,
        seed: 0x5eed_0013,
        sample: Some(SampleConfig { intervals: 4, period: 2_000, warmup: 500 }),
        ..RunSettings::default()
    };
    let bench = benchmark("mcf").expect("mcf exists");
    let configs = grid_configs(&s);
    let budget = configs.iter().map(|c| s.trace_budget(c)).max().unwrap();

    // Seeking in place: each sampled cell resumes its intervals straight
    // out of the mapping.
    let store = TraceStore::open(&dir).unwrap();
    let trace = s.capture(&bench, budget);
    store.save(bench.name, s.scale, s.seed, budget, false, &trace);
    let mapped = store.map(bench.name, s.scale, s.seed).expect("entry maps back");
    for config in &configs {
        let captured = s.run_trace_sampled(&trace, config.clone());
        let replayed = s.run_trace_sampled(&mapped.trace, config.clone());
        assert!(replayed.intervals_replayed() > 1, "the plan samples several intervals");
        assert_eq!(captured, replayed, "{config:?}");
    }

    // The same through the sweep engine: a sampled sweep whose traces are
    // store hits prints the table of one that captured them.
    let spec = SweepSpec {
        settings: s,
        predictors: vec![PredictorKind::Vtage],
        schemes: vec![SchemeChoice::Fpc],
        recoveries: vec![RecoveryPolicy::SquashAtCommit, RecoveryPolicy::SelectiveReissue],
        benches: vec![bench],
        stores: Stores { traces: Some(Arc::new(store)), results: None },
        ..SweepSpec::default()
    };
    let uncached = SweepSpec { stores: Stores::default(), ..spec.clone() }.run();
    TraceCache::global().clear();
    let from_store = spec.run();
    assert_eq!(from_store.timing.trace_store_hits, 1, "the sweep maps the stored trace");
    assert_eq!(from_store.timing.captures, 0);
    assert!(from_store.timing.intervals_replayed > 0);
    assert_eq!(from_store.table().to_csv(), uncached.table().to_csv());

    let _ = std::fs::remove_dir_all(&dir);
}

/// The single `trace-<sha256>.bin` entry file in a one-entry store.
fn entry_file(dir: &Path) -> PathBuf {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("trace-")))
        .collect();
    assert_eq!(entries.len(), 1, "one stored trace expected");
    entries.pop().unwrap()
}

#[test]
fn truncated_and_corrupt_entries_are_rejected_and_evicted() {
    let dir = scratch_dir("corrupt");
    let _ = std::fs::remove_dir_all(&dir);
    let store = TraceStore::open(&dir).unwrap();

    let s = settings();
    let bench = benchmark("gzip").expect("gzip exists");
    let budget = s.trace_budget(&s.core());
    let trace = s.capture(&bench, budget);

    // Truncation: cut the file mid-body. The outer checksum no longer
    // matches, so the entry is rejected and evicted.
    store.save(bench.name, s.scale, s.seed, budget, false, &trace);
    let path = entry_file(&dir);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    assert!(store.map(bench.name, s.scale, s.seed).is_none(), "truncated entry must not map");
    assert!(!path.exists(), "truncated entry is evicted");

    // Truncation to less than a header: rejected before any parsing.
    store.save(bench.name, s.scale, s.seed, budget, false, &trace);
    let path = entry_file(&dir);
    std::fs::write(&path, &bytes[..8]).unwrap();
    assert!(store.map(bench.name, s.scale, s.seed).is_none(), "header stub must not map");
    assert!(!path.exists(), "header stub is evicted");

    // A single flipped bit in the trace body: the checksum catches it.
    store.save(bench.name, s.scale, s.seed, budget, false, &trace);
    let path = entry_file(&dir);
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;
    std::fs::write(&path, &flipped).unwrap();
    assert!(store.map(bench.name, s.scale, s.seed).is_none(), "bit flip must not map");
    assert!(!path.exists(), "corrupt entry is evicted");

    // After eviction a fresh save heals the store and maps again.
    store.save(bench.name, s.scale, s.seed, budget, false, &trace);
    let healed = store.map(bench.name, s.scale, s.seed).expect("healed entry maps");
    assert_eq!(*healed.trace, trace, "healed entry round-trips the capture");

    let _ = std::fs::remove_dir_all(&dir);
}
