//! Process-wide capture-once / replay-many trace cache.
//!
//! A sweep grid runs the same workload under many timing configurations;
//! a `paper all` session runs the same 19 workloads under a dozen
//! experiment grids. The dynamic instruction stream depends only on
//! (workload, scale, seed, length), so this cache captures each stream
//! **once** per process and hands out `Arc<Trace>` clones to every
//! consumer — worker threads of one sweep and successive experiments
//! alike. With an on-disk [`TraceStore`], a miss falls through to the
//! store before capturing, and a store hit replays straight out of the
//! memory-mapped entry. See "Trace layer" in `ARCHITECTURE.md` for the
//! dataflow and memory-footprint discussion.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::runner::RunSettings;
use crate::store::TraceStore;
use vpsim_isa::Trace;
use vpsim_workloads::Benchmark;

/// What makes two captures interchangeable: the workload identity and the
/// generation parameters that shape its program and data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TraceKey {
    name: &'static str,
    scale: usize,
    seed: u64,
}

/// A keyed store of captured traces. Most callers want the process-wide
/// [`TraceCache::global`]; separate instances exist for tests.
#[derive(Default)]
pub struct TraceCache {
    entries: Mutex<HashMap<TraceKey, Arc<Trace>>>,
}

impl TraceCache {
    /// An empty cache.
    pub fn new() -> Self {
        TraceCache::default()
    }

    /// The process-wide cache shared by the sweep engine, the experiment
    /// functions and the binaries.
    pub fn global() -> &'static TraceCache {
        static GLOBAL: OnceLock<TraceCache> = OnceLock::new();
        GLOBAL.get_or_init(TraceCache::new)
    }

    /// The trace for `bench` under `settings`' generation parameters,
    /// covering at least `budget` µops (or the whole program, if it is
    /// shorter). Returns `(trace, freshly_captured)`: `false` means a
    /// cache hit.
    ///
    /// Capture runs outside the lock, so concurrent workers never block
    /// on each other's captures; if two race on the same key, both
    /// capture identical traces (the whole stack is deterministic) and
    /// one wins the insert — results are unaffected.
    pub fn get(
        &self,
        settings: &RunSettings,
        bench: &Benchmark,
        budget: u64,
    ) -> (Arc<Trace>, bool) {
        self.get_with_store(settings, bench, budget, None)
    }

    /// Like [`TraceCache::get`], but falling through to an on-disk
    /// [`TraceStore`] between the in-memory map and a fresh capture:
    ///
    /// * an in-memory hit is returned as is;
    /// * otherwise a covering store entry is memory-mapped
    ///   ([`TraceStore::map`], counted as a store hit) and returned
    ///   *without* entering the in-memory map — it replays from the page
    ///   cache, so the process never holds a heap copy of it;
    /// * otherwise the trace is captured, saved to the store (so a
    ///   capture made by one process is a store hit for every later one)
    ///   and inserted.
    ///
    /// Corrupt store entries are evicted inside [`TraceStore::map`] (with
    /// a stderr warning) and count as misses — the recapture transparently
    /// heals the store.
    pub fn get_with_store(
        &self,
        settings: &RunSettings,
        bench: &Benchmark,
        budget: u64,
        store: Option<&TraceStore>,
    ) -> (Arc<Trace>, bool) {
        let key = TraceKey { name: bench.name, scale: settings.scale, seed: settings.seed };
        if let Some(trace) = self.entries.lock().unwrap().get(&key) {
            if trace.covers(budget) {
                return (Arc::clone(trace), false);
            }
        }
        if let Some(store) = store {
            match store.map(bench.name, settings.scale, settings.seed) {
                Some(stored) if stored.trace.covers(budget) => {
                    store.record_hit();
                    return (stored.trace, false);
                }
                _ => store.record_miss(),
            }
        }
        // Capture runs outside the lock (see `get`).
        let trace = Arc::new(settings.capture(bench, budget));
        if let Some(store) = store {
            let (limit, complete) = (trace.limit(), trace.is_complete());
            store.save(bench.name, settings.scale, settings.seed, limit, complete, &trace);
        }
        let mut entries = self.entries.lock().unwrap();
        match entries.get(&key) {
            // A racing worker (or a longer earlier capture) already
            // satisfies the request; keep the established entry.
            Some(established) if established.covers(budget) => (Arc::clone(established), false),
            _ => {
                entries.insert(key, Arc::clone(&trace));
                (trace, true)
            }
        }
    }

    /// Number of cached traces.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total approximate heap footprint of the cached traces, in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.entries.lock().unwrap().values().map(|t| t.approx_bytes()).sum()
    }

    /// Drop every cached trace (frees the memory once the last `Arc`
    /// clone held by a running job is gone).
    pub fn clear(&self) {
        self.entries.lock().unwrap().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpsim_workloads::workload;

    fn settings() -> RunSettings {
        RunSettings { warmup: 100, measure: 400, ..RunSettings::default() }
    }

    #[test]
    fn second_request_is_a_hit_sharing_the_same_trace() {
        let cache = TraceCache::new();
        let bench = workload("k:tight").unwrap();
        let (a, fresh_a) = cache.get(&settings(), &bench, 1_000);
        let (b, fresh_b) = cache.get(&settings(), &bench, 1_000);
        assert!(fresh_a && !fresh_b);
        assert!(Arc::ptr_eq(&a, &b), "hits share the captured trace");
        assert_eq!(cache.len(), 1);
        assert!(cache.approx_bytes() > 0);
    }

    #[test]
    fn longer_budget_recaptures_and_shorter_reuses() {
        let cache = TraceCache::new();
        let bench = workload("gzip").unwrap();
        let (short, _) = cache.get(&settings(), &bench, 500);
        assert_eq!(short.len(), 500);
        let (long, fresh) = cache.get(&settings(), &bench, 2_000);
        assert!(fresh, "insufficient entry must be re-captured");
        assert_eq!(long.len(), 2_000);
        // The longer capture replaced the short one and now serves both.
        let (again, fresh) = cache.get(&settings(), &bench, 500);
        assert!(!fresh);
        assert!(Arc::ptr_eq(&long, &again));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn complete_traces_satisfy_any_budget() {
        use vpsim_workloads::{Class, Suite, WorkloadParams};
        // The registry workloads run forever by design, so build a finite
        // program to exercise the "program ended before the budget" path.
        fn finite(_: &WorkloadParams) -> vpsim_isa::Program {
            let mut b = vpsim_isa::ProgramBuilder::new();
            let (i, n) = (vpsim_isa::Reg::int(1), vpsim_isa::Reg::int(2));
            b.load_imm(n, 50);
            let top = b.bind_label();
            b.addi(i, i, 1);
            b.blt(i, n, top);
            b.halt();
            b.build().unwrap()
        }
        let bench = Benchmark {
            name: "finite-test",
            suite: Suite::Micro,
            class: Class::Int,
            build: finite,
        };
        let cache = TraceCache::new();
        let (full, _) = cache.get(&settings(), &bench, 10_000);
        assert!((full.len() as u64) < 10_000, "the program halts before the budget");
        // A complete trace satisfies even a larger request without
        // re-capturing.
        let (hit, fresh) = cache.get(&settings(), &bench, 1_000_000);
        assert!(!fresh);
        assert!(Arc::ptr_eq(&full, &hit));
    }

    #[test]
    fn store_fall_through_persists_across_cache_instances() {
        let dir = crate::store::scratch_dir("fallthrough");
        let store = TraceStore::open(&dir).unwrap();
        let bench = workload("gzip").unwrap();
        let s = settings();
        let (a, fresh) = TraceCache::new().get_with_store(&s, &bench, 1_000, Some(&store));
        assert!(fresh, "empty store: the trace must be captured");
        assert_eq!((store.hits(), store.misses()), (0, 1));
        // A fresh in-memory cache (think: a new process) hits the disk
        // store instead of recapturing.
        let (b, fresh) = TraceCache::new().get_with_store(&s, &bench, 1_000, Some(&store));
        assert!(!fresh, "the persisted capture must serve the second process");
        assert_eq!((store.hits(), store.misses()), (1, 1));
        assert_eq!(*a, *b);
        // A larger budget outgrows the stored entry: recapture + re-save.
        let (long, fresh) = TraceCache::new().get_with_store(&s, &bench, 2_000, Some(&store));
        assert!(fresh);
        assert_eq!(long.len(), 2_000);
        assert_eq!((store.hits(), store.misses()), (1, 2));
        let (again, fresh) = TraceCache::new().get_with_store(&s, &bench, 2_000, Some(&store));
        assert!(!fresh);
        assert_eq!(*again, *long);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_store_entry_is_evicted_and_recaptured() {
        let dir = crate::store::scratch_dir("bitflip");
        let store = TraceStore::open(&dir).unwrap();
        let bench = workload("mcf").unwrap();
        let s = settings();
        let (original, _) = TraceCache::new().get_with_store(&s, &bench, 800, Some(&store));
        assert_eq!((store.hits(), store.misses()), (0, 1));
        // Flip one bit of the single stored entry.
        let entry = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|x| x == "bin"))
            .expect("one stored entry");
        let mut bytes = std::fs::read(&entry).unwrap();
        let mid = bytes.len() / 3;
        bytes[mid] ^= 0x40;
        std::fs::write(&entry, &bytes).unwrap();
        // A fresh cache must detect the corruption (checksum mismatch),
        // evict the entry, and transparently recapture the same trace.
        let (recaptured, fresh) = TraceCache::new().get_with_store(&s, &bench, 800, Some(&store));
        assert!(fresh, "a corrupt entry must be recaptured, not served");
        assert!(!entry.exists() || std::fs::read(&entry).unwrap() != bytes, "evicted or rewritten");
        assert_eq!(*recaptured, *original);
        assert_eq!((store.hits(), store.misses()), (0, 2));
        // The recapture healed the store: the next process hits disk.
        let (healed, fresh) = TraceCache::new().get_with_store(&s, &bench, 800, Some(&store));
        assert!(!fresh);
        assert_eq!(*healed, *original);
        assert_eq!((store.hits(), store.misses()), (1, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_lookup_maps_store_hits_and_owns_everything_else() {
        let dir = crate::store::scratch_dir("shared");
        let store = TraceStore::open(&dir).unwrap();
        let bench = workload("gzip").unwrap();
        let s = settings();
        // Empty store: capture, insert, counted as a miss.
        let cache = TraceCache::new();
        let (a, fresh) = cache.get_with_store(&s, &bench, 1_000, Some(&store));
        assert!(fresh);
        assert_eq!(cache.len(), 1);
        assert_eq!((store.hits(), store.misses()), (0, 1));
        // Same cache again: in-memory hit sharing the capture; the store
        // is not consulted.
        let (b, fresh) = cache.get_with_store(&s, &bench, 1_000, Some(&store));
        assert!(!fresh && Arc::ptr_eq(&a, &b));
        assert_eq!((store.hits(), store.misses()), (0, 1));
        // A fresh cache (new process): the persisted entry is mapped in
        // place, not copied into the map, and counted as a store hit.
        let fresh_cache = TraceCache::new();
        let (c, fresh) = fresh_cache.get_with_store(&s, &bench, 1_000, Some(&store));
        assert!(!fresh);
        assert_eq!((store.hits(), store.misses()), (1, 1));
        assert!(fresh_cache.is_empty(), "mapped hits must not fill the in-memory map");
        // The mapped entry replays the exact captured stream.
        assert!(c.cursor().eq(a.cursor()), "mapped replay matches the capture");
        assert_eq!(*c, *a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_scale_or_seed_gets_its_own_trace() {
        let cache = TraceCache::new();
        let bench = workload("gzip").unwrap();
        cache.get(&settings(), &bench, 500);
        cache.get(&RunSettings { seed: 99, ..settings() }, &bench, 500);
        cache.get(&RunSettings { scale: 2, ..settings() }, &bench, 500);
        assert_eq!(cache.len(), 3);
        cache.clear();
        assert!(cache.is_empty());
    }
}
