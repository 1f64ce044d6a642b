//! Store entries in the previous on-disk formats must never be misread.
//! Such an entry is a `vpstse1` trace entry or a `vpsres1` result record.
//! Both are wrapped in the old stores' outer FNV-1a trailer. Each is
//! reported absent and evicted. A sweep over a store holding them then
//! recaptures the trace and re-simulates every cell, to the same table.

use std::path::{Path, PathBuf};
use vpsim_bench::store::Stores;
use vpsim_bench::sweep::{SchemeChoice, SweepSpec};
use vpsim_bench::{RunSettings, TraceCache};
use vpsim_core::PredictorKind;
use vpsim_isa::{Program, Reg, Trace};
use vpsim_uarch::RecoveryPolicy;
use vpsim_workloads::benchmark;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// `bytes` followed by its FNV-1a 64 trailer.
fn with_fnv1a(mut bytes: Vec<u8>) -> Vec<u8> {
    let sum = fnv1a(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

/// The `vpstse1` trace-store entry for `trace` (captured from `program`
/// with limit `budget`), built field by field: a budget/completeness
/// header, then the `vpstrc1` trace, then the outer trailer.
fn legacy_trace_entry(program: &Program, trace: &Trace, budget: u64) -> Vec<u8> {
    let reg = |r: Option<Reg>| r.map_or(0xFF, |r| r.index() as u8);
    let mut t = b"vpstrc1\n".to_vec();
    t.extend_from_slice(&(program.insts().len() as u64).to_le_bytes());
    for inst in program.insts() {
        t.extend_from_slice(&[inst.op.code(), reg(inst.dst), reg(inst.src1), reg(inst.src2)]);
        t.extend_from_slice(&inst.imm.to_le_bytes());
    }
    let (mut index, mut flags, mut payload) = (Vec::new(), Vec::new(), Vec::new());
    for di in trace.cursor() {
        let diverged = (di.next_pc != di.pc + 4).then_some(di.next_pc);
        let mut f = if di.taken { 1 << 3 } else { 0 };
        for (bit, value) in [(0, di.result), (1, di.mem_addr), (2, di.store_value), (4, diverged)] {
            if let Some(v) = value {
                f |= 1 << bit;
                payload.extend_from_slice(&v.to_le_bytes());
            }
        }
        index.extend_from_slice(&di.index.to_le_bytes());
        flags.push(f);
    }
    let records = flags.len() as u64;
    for (count, section) in
        [(records, &index), (records, &flags), (payload.len() as u64 / 8, &payload)]
    {
        t.extend_from_slice(&count.to_le_bytes());
        t.extend_from_slice(section);
    }
    let mut entry = b"vpstse1\n".to_vec();
    entry.extend_from_slice(&budget.to_le_bytes());
    entry.push(((trace.len() as u64) < budget) as u8);
    entry.extend_from_slice(&with_fnv1a(t));
    with_fnv1a(entry)
}

/// Every `<prefix>*.bin` entry file under `dir`.
fn entries(dir: &Path, prefix: &str) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with(prefix)))
        .collect();
    found.sort();
    found
}

#[test]
fn old_format_entries_are_evicted_and_regenerated() {
    let dir = std::env::temp_dir().join(format!("vpsim-old-format-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let stores = Stores::open(&dir).unwrap();
    let (traces, results) = (stores.traces.clone().unwrap(), stores.results.clone().unwrap());
    // A seed of its own, so no other test's capture is in the
    // process-wide cache.
    let settings =
        RunSettings { warmup: 500, measure: 2_000, seed: 0x01d_f0a7, ..RunSettings::default() };
    let bench = benchmark("gzip").expect("gzip exists");
    let spec = SweepSpec {
        settings,
        predictors: vec![PredictorKind::Vtage],
        schemes: vec![SchemeChoice::Fpc],
        recoveries: vec![RecoveryPolicy::SquashAtCommit],
        benches: vec![bench],
        stores,
        ..SweepSpec::default()
    };
    let first = spec.run();
    let cells = first.timing.jobs as u64;
    assert_eq!(first.timing.captures, 1);

    // Rewrite every entry the sweep stored in the old formats.
    let stored = traces.map(bench.name, settings.scale, settings.seed).expect("sweep stored it");
    let program = (bench.build)(&settings.params());
    let old_trace = legacy_trace_entry(&program, &stored.trace, stored.budget);
    drop(stored);
    let [trace_path] = entries(traces.dir(), "trace-").try_into().expect("one stored trace");
    let result_paths = entries(results.dir(), "cell-");
    assert_eq!(result_paths.len() as u64, cells);
    let old_results: Vec<(String, Vec<u8>)> = result_paths
        .iter()
        .map(|path| {
            let name = path.file_stem().unwrap().to_string_lossy();
            let key = name.strip_prefix("cell-").unwrap().to_string();
            let result = results.load(&key).expect("sweep stored every cell");
            (key, with_fnv1a(result.to_bytes()))
        })
        .collect();
    let write_old_entries = || {
        std::fs::write(&trace_path, &old_trace).unwrap();
        for ((_, bytes), path) in old_results.iter().zip(&result_paths) {
            std::fs::write(path, bytes).unwrap();
        }
    };

    // Probed directly, each old entry is absent and gone from disk.
    write_old_entries();
    assert!(traces.map(bench.name, settings.scale, settings.seed).is_none());
    assert!(!trace_path.exists(), "the old trace entry is evicted");
    for ((key, _), path) in old_results.iter().zip(&result_paths) {
        assert_eq!(results.load(key), None);
        assert!(!path.exists(), "the old result entry is evicted");
    }

    // A sweep over the old entries regenerates both, to the same table.
    write_old_entries();
    TraceCache::global().clear();
    let again = spec.run();
    assert_eq!(again.timing.trace_store_misses, 1, "the old trace entry is a miss");
    assert_eq!(again.timing.captures, 1, "the trace is recaptured");
    assert_eq!(again.timing.result_cache_hits, 0, "every cell is re-simulated");
    assert_eq!(again.table().to_csv(), first.table().to_csv());

    // The regenerated entries serve the next process.
    TraceCache::global().clear();
    let healed = spec.run();
    assert_eq!(healed.timing.result_cache_hits, cells);
    assert_eq!(healed.table().to_csv(), first.table().to_csv());
    assert!(traces.map(bench.name, settings.scale, settings.seed).is_some());

    let _ = std::fs::remove_dir_all(&dir);
}
