//! Allocation accounting of the trace-store read path.
//!
//! A store-backed sweep opens entries with `TraceStore::map` (or `load`):
//! stat the entry, map it (or read it once into an exactly-sized buffer),
//! verify the checksums, and replay the record sections in place. This
//! test pins that down with a counting global allocator:
//!
//! * opening a serialized trace allocates a constant handful of times —
//!   the buffer, the decoded static µop table and the storage box — and
//!   the whole load path performs a small, **trace-size-independent**
//!   number of allocations (a regression here means someone reintroduced
//!   a grow-as-you-go read, a section decode or a per-record allocation);
//! * the mapped path is held to a stricter bar: the allocator also tracks
//!   the **largest single allocation** inside a counting window, and
//!   mapping the entry, resuming a cursor mid-trace and walking the full
//!   replay must stay far below the body size, while `load` necessarily
//!   reads the body into one heap buffer (the contrast proves the
//!   measurement would catch a copy).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use vpsim_bench::store::TraceStore;
use vpsim_isa::{ProgramBuilder, Reg, Trace};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

/// Record one allocation of `size` bytes if a counting window is open.
fn charge(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        PEAK_BYTES.fetch_max(size as u64, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Count allocations during `f` (single-threaded test binary, one test —
/// nothing else can be charged to the window).
fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    PEAK_BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCATIONS.load(Ordering::Relaxed))
}

/// Largest single allocation charged during the last counting window.
fn peak_allocation_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// A loop with loads and branches, captured to `budget` µops.
fn captured_trace(budget: u64) -> Trace {
    let mut b = ProgramBuilder::new();
    let (i, n, x) = (Reg::int(1), Reg::int(2), Reg::int(3));
    b.load_imm(n, i64::MAX / 2);
    let top = b.bind_label();
    b.addi(i, i, 1);
    b.andi(x, i, 0xFF);
    b.shli(x, x, 3);
    b.load(x, x, 64);
    b.blt(i, n, top);
    b.halt();
    Trace::capture(&b.build().unwrap(), budget)
}

#[test]
fn store_reads_decode_with_a_constant_allocation_count() {
    let dir = std::env::temp_dir().join(format!("vpsim-store-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = TraceStore::open(&dir).unwrap();

    let small = captured_trace(2_000);
    let large = captured_trace(64_000);
    store.save("small", 1, 1, 2_000, false, &small);
    store.save("large", 1, 1, 64_000, false, &large);

    // Opening serialized bytes copies them into one buffer, decodes the
    // static µop table, and boxes the storage — no per-section or
    // per-record allocations.
    let bytes = large.to_bytes();
    let (decoded, allocs) = count_allocations(|| Trace::from_bytes(&bytes).unwrap());
    assert_eq!(decoded, large);
    assert_eq!(allocs, 3, "opening a trace allocates buffer, µop table and box");

    // A corrupt entry still fails cleanly under the counter (the decode
    // path allocates nothing extra to reject a bit flip).
    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x04;
    let (err, _) = count_allocations(|| Trace::from_bytes(&corrupt));
    assert!(err.is_err(), "a flipped bit must not decode");

    // The full disk path — path construction, open, stat, one
    // exactly-sized read, checksums, µop table, Arc — is a constant
    // allocation count, independent of how large the trace is.
    let (small_loaded, small_allocs) = count_allocations(|| store.load("small", 1, 1).unwrap());
    let (large_loaded, large_allocs) = count_allocations(|| store.load("large", 1, 1).unwrap());
    assert_eq!(*small_loaded.trace, small);
    assert_eq!(*large_loaded.trace, large);
    assert_eq!(small_allocs, large_allocs, "load allocations must not scale with trace size");
    assert!(large_allocs <= 16, "load path allocated {large_allocs} times");

    // The mapped path is zero-copy: a store hit maps the entry file and
    // replays straight out of it. Opening the mapping, resuming a cursor
    // halfway in, AND walking the full replay must never allocate
    // anything close to the trace body — only path strings and small
    // fixed-size bookkeeping.
    let mut half = large.cursor();
    half.by_ref().take(large.len() / 2).for_each(drop);
    let (pos, payload_pos) = (half.pos(), half.payload_pos());
    let body_len = bytes.len() as u64;
    let ((), map_allocs) = count_allocations(|| {
        let mapped = store.map("large", 1, 1).expect("mapped store hit");
        assert!(mapped.is_mapped(), "store hit is served by mmap");
        let resumed = mapped.trace.cursor_resume(pos, payload_pos).expect("in range");
        assert_eq!(resumed.count(), large.len() - pos, "resumed cursor walks the rest");
        assert_eq!(mapped.trace.cursor().count(), large.len(), "cursor walks every record");
    });
    let map_peak = peak_allocation_bytes();
    assert!(
        map_peak < body_len / 8,
        "mapped load+replay must not copy the trace body: \
         largest allocation {map_peak} B vs {body_len} B body"
    );
    assert!(map_allocs <= 16, "mapped path allocated {map_allocs} times");

    // By contrast, the heap-read path necessarily allocates a body-sized
    // buffer — the counter proves the measurement above would have
    // caught a copy.
    let (_loaded, _) = count_allocations(|| store.load("large", 1, 1).unwrap());
    assert!(
        peak_allocation_bytes() >= body_len / 8,
        "load reads the entry into one body-sized buffer"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
