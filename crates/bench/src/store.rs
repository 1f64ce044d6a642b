//! Persistent, content-addressed stores for the service layer.
//!
//! Two stores, both plain directories of checksummed binary files, both
//! safe to share between processes (writes are atomic temp-file renames,
//! and every load verifies the entry's checksum, once):
//!
//! * [`TraceStore`] — captured [`Trace`]s keyed by workload × scale ×
//!   seed; an entry is the trace's `vpstrc2` frame ([`vpsim_isa::frame`])
//!   exactly as [`Trace::to_bytes`] writes it. The in-memory
//!   [`crate::trace_cache::TraceCache`] falls through
//!   to it (see [`crate::trace_cache::TraceCache::get_with_store`]), so a
//!   capture made by one process is a disk hit for every later process.
//! * [`ResultCache`] — finished [`RunResult`]s, each entry exactly the
//!   record [`RunResult::to_bytes`] writes, keyed by the canonical
//!   hash of one grid cell ([`cell_key`]): sizing + workload + grid-point
//!   label + the fully-resolved [`vpsim_uarch::CoreConfig`]. The whole simulator is
//!   deterministic, so a cached cell is *the* answer — the sweep engine
//!   skips its simulation entirely.
//!
//! Keys are hashed with SHA-256 (hand-rolled below; the build environment
//! is dependency-free by design) over canonical *rendered* text, which
//! makes the result-cache key automatically invariant under `.vps`
//! render→parse round-trips: equal scenarios render identically, so they
//! hash identically. A corrupt or truncated entry, or one written by an
//! older format version, is rejected by its decoder on load, logged to
//! stderr, evicted, and transparently re-produced by the caller.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::runner::RunSettings;
use crate::sweep::SweepJob;
use vpsim_isa::Trace;
use vpsim_uarch::RunResult;

// ---------------------------------------------------------------------------
// SHA-256 (content addressing) — std-only, FIPS 180-4
// ---------------------------------------------------------------------------

const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// SHA-256 digest of `data` — the content-addressing hash for store
/// filenames and scenario identities. (Integrity checksums inside the
/// serialized formats themselves are far cheaper; see
/// [`vpsim_isa::frame::checksum`].)
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    // Whole blocks stream straight from `data`; only the final partial
    // block plus the 0x80/length padding (at most two 64-byte blocks) is
    // staged on the stack — no heap allocation, no message copy.
    let whole = data.len() - data.len() % 64;
    let bit_len = (data.len() as u64).wrapping_mul(8);
    let mut tail = [0u8; 128];
    let rem = data.len() - whole;
    tail[..rem].copy_from_slice(&data[whole..]);
    tail[rem] = 0x80;
    let tail_len = if rem < 56 { 64 } else { 128 };
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    let blocks = data[..whole].chunks_exact(64).chain(tail[..tail_len].chunks_exact(64));
    let mut w = [0u32; 64];
    for block in blocks {
        for (t, slot) in w.iter_mut().take(16).enumerate() {
            *slot = u32::from_be_bytes(block[4 * t..4 * t + 4].try_into().unwrap());
        }
        for t in 16..64 {
            let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
            let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
            w[t] = w[t - 16].wrapping_add(s0).wrapping_add(w[t - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for t in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 =
                hh.wrapping_add(s1).wrapping_add(ch).wrapping_add(SHA256_K[t]).wrapping_add(w[t]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (slot, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *slot = slot.wrapping_add(v);
        }
    }
    let mut out = [0u8; 32];
    for (i, v) in h.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&v.to_be_bytes());
    }
    out
}

/// Lowercase hex of a digest (one allocation, exact size).
pub fn hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0xF) as usize] as char);
    }
    out
}

// ---------------------------------------------------------------------------
// Atomic file plumbing shared by both stores
// ---------------------------------------------------------------------------

/// Write `data` to `path` atomically: temp file in the same directory,
/// then rename, so concurrent readers only ever see a complete entry (or
/// none).
fn write_atomic(dir: &Path, path: &Path, data: &[u8]) -> Result<(), String> {
    let tmp = dir.join(format!(
        ".tmp-{}-{}",
        std::process::id(),
        path.file_name().and_then(|n| n.to_str()).unwrap_or("entry")
    ));
    std::fs::write(&tmp, data).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        format!("cannot rename {} into place: {e}", tmp.display())
    })
}

/// Read (or, with `map`, memory-map) the entry at `path`; `Ok(None)` when
/// it does not exist. Verifying the bytes is the decoder's job.
///
/// The read path fills one exactly-sized buffer (stat, then `read_exact`)
/// — unlike `fs::read`'s grow-as-you-go loop this performs one allocation
/// of the final size and no copies. The map path allocates nothing for
/// the body at all, falling back to the read when mapping is unavailable.
/// Entries are written by atomic rename, so the open file cannot change
/// under the stat (see [`Mmap`]).
fn read_entry(path: &Path, map: bool) -> Result<Option<EntryBytes>, String> {
    use std::io::Read;
    let mut file = match std::fs::File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("cannot read: {e}")),
    };
    let len = file.metadata().map_err(|e| format!("cannot stat: {e}"))?.len() as usize;
    if let Some(mapping) = map.then(|| Mmap::of_file(&file, len)).flatten() {
        return Ok(Some(EntryBytes::Mapped(mapping)));
    }
    let mut data = vec![0u8; len];
    file.read_exact(&mut data).map_err(|e| format!("cannot read: {e}"))?;
    Ok(Some(EntryBytes::Heap(data)))
}

/// Log a corrupt entry to stderr and evict it so the next producer
/// rewrites a clean copy.
fn evict_corrupt(what: &str, path: &Path, why: &str) {
    eprintln!("warning: evicting corrupt {what} {}: {why}", path.display());
    let _ = std::fs::remove_file(path);
}

// ---------------------------------------------------------------------------
// Memory-mapped entry bytes (zero-copy load path)
// ---------------------------------------------------------------------------

/// Raw `mmap(2)`/`munmap(2)` — the same std-only `extern "C"` pattern the
/// `serve` binary uses for `signal(2)`; the build environment is
/// dependency-free by design. Gated to 64-bit unix targets: the `i64`
/// offset below matches the ABI only where `off_t` is 64-bit; on 32-bit
/// targets (where libc may route through `mmap2`/`mmap64`) the
/// declaration would mismatch the real symbol — undefined behavior at
/// the call boundary even though we only ever pass offset 0 — so those
/// builds take the full-read fallback instead.
#[cfg(all(unix, target_pointer_width = "64"))]
mod mmap_sys {
    extern "C" {
        pub fn mmap(
            addr: *mut u8,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut u8;
        pub fn munmap(addr: *mut u8, len: usize) -> i32;
    }
    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
}

/// A read-only, whole-file memory mapping.
///
/// Store entries are written by atomic temp-file rename, so a mapped file
/// can never change in place under the mapping; eviction or replacement
/// unlinks/renames the *name*, and on unix the unlinked inode stays alive
/// until the last mapping drops — a live [`Mmap`] never observes store
/// churn and cannot fault on it.
pub struct Mmap {
    ptr: *const u8,
    len: usize,
}

// Safety: the mapping is PROT_READ + MAP_PRIVATE for its entire lifetime
// — an immutable byte buffer, freed exactly once in Drop.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Map `len` bytes of `file` read-only. `None` when mapping is
    /// unavailable (empty file, a target other than 64-bit unix, or
    /// `mmap` failure) — callers fall back to a full read.
    #[cfg(all(unix, target_pointer_width = "64"))]
    fn of_file(file: &std::fs::File, len: usize) -> Option<Mmap> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            return None;
        }
        let ptr = unsafe {
            mmap_sys::mmap(
                std::ptr::null_mut(),
                len,
                mmap_sys::PROT_READ,
                mmap_sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        // MAP_FAILED is (void *)-1.
        if ptr.is_null() || ptr as usize == usize::MAX {
            return None;
        }
        Some(Mmap { ptr, len })
    }

    #[cfg(not(all(unix, target_pointer_width = "64")))]
    fn of_file(_file: &std::fs::File, _len: usize) -> Option<Mmap> {
        None
    }
}

impl std::ops::Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        // Safety: ptr/len describe a live PROT_READ mapping until Drop.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(all(unix, target_pointer_width = "64"))]
        unsafe {
            mmap_sys::munmap(self.ptr as *mut u8, self.len);
        }
    }
}

impl fmt::Debug for Mmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mmap({} bytes)", self.len)
    }
}

/// The bytes of one store entry.
#[derive(Debug)]
enum EntryBytes {
    /// Page-cache-backed mapping: a store hit costs page faults on the
    /// bytes actually replayed, not an allocation plus a full copy.
    Mapped(Mmap),
    /// One exactly-sized heap read ([`TraceStore::load`], the result
    /// cache, and the fallback when mapping is unavailable).
    Heap(Vec<u8>),
}

impl AsRef<[u8]> for EntryBytes {
    fn as_ref(&self) -> &[u8] {
        match self {
            EntryBytes::Mapped(m) => m,
            EntryBytes::Heap(v) => v,
        }
    }
}

// ---------------------------------------------------------------------------
// TraceStore
// ---------------------------------------------------------------------------

/// A trace fetched from a [`TraceStore`]. The trace replays straight out
/// of the entry's bytes: a memory mapping for [`TraceStore::map`], one
/// heap read for [`TraceStore::load`].
pub struct StoredTrace {
    /// The stored trace, backed by the entry's bytes.
    pub trace: Arc<Trace>,
    /// The trace's capture limit, [`Trace::limit`].
    pub budget: u64,
    /// The trace is the whole execution, [`Trace::is_complete`].
    pub complete: bool,
    mapped: bool,
}

impl StoredTrace {
    /// The capture limit (the `budget` field, for call chains such as
    /// `store.map(..)?.budget()`).
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// `true` when the entry is backed by a memory mapping (false for
    /// [`TraceStore::load`] and on the full-read fallback) — exposed for
    /// metrics and tests.
    pub fn is_mapped(&self) -> bool {
        self.mapped
    }
}

/// On-disk, content-addressed store of captured traces, keyed by
/// workload × scale × seed. See the [module docs](self) for the entry
/// format and corruption handling.
#[derive(Debug)]
pub struct TraceStore {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TraceStore {
    /// Open (creating if needed) a trace store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<TraceStore, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create trace store {}: {e}", dir.display()))?;
        Ok(TraceStore { dir, hits: AtomicU64::new(0), misses: AtomicU64::new(0) })
    }

    /// The entry path for a workload identity: `trace-<sha256(key)>.bin`.
    fn path(&self, name: &str, scale: usize, seed: u64) -> PathBuf {
        let key = format!("vpsim-trace/v1\nworkload = {name}\nscale = {scale}\nseed = {seed}\n");
        self.dir.join(format!("trace-{}.bin", hex(&sha256(key.as_bytes()))))
    }

    /// Open the stored capture for a workload identity, if present and
    /// intact, memory-mapping the entry file (full-read fallback when
    /// mapping is unavailable): no section is copied, and replay faults in
    /// only the pages it touches. An entry [`Trace::from_buffer`] rejects
    /// — corrupt, truncated, or of an older format version — is logged to
    /// stderr, evicted, and reported as absent: the caller recaptures and
    /// the next [`TraceStore::save`] heals the store. Does not touch the
    /// hit/miss counters; coverage ([`Trace::covers`]) is the caller's
    /// call.
    ///
    /// Safety of the mapping against concurrent store writers: see
    /// [`Mmap`] — atomic-rename writes plus unix unlink semantics mean a
    /// mapped entry is immutable for the mapping's lifetime.
    pub fn map(&self, name: &str, scale: usize, seed: u64) -> Option<StoredTrace> {
        self.open_entry(name, scale, seed, true)
    }

    /// [`TraceStore::map`], but reading the entry into one exactly-sized
    /// heap buffer instead of mapping it. Same validation and eviction;
    /// the sections are still replayed in place, not decoded.
    pub fn load(&self, name: &str, scale: usize, seed: u64) -> Option<StoredTrace> {
        self.open_entry(name, scale, seed, false)
    }

    /// The shared body of [`TraceStore::map`] and [`TraceStore::load`].
    fn open_entry(&self, name: &str, scale: usize, seed: u64, map: bool) -> Option<StoredTrace> {
        let path = self.path(name, scale, seed);
        let evict = |why: &str| -> Option<StoredTrace> {
            evict_corrupt("trace-store entry", &path, why);
            None
        };
        let entry = match read_entry(&path, map) {
            Ok(Some(entry)) => entry,
            Ok(None) => return None,
            Err(why) => return evict(&why),
        };
        let mapped = matches!(entry, EntryBytes::Mapped(_));
        match Trace::from_buffer(entry) {
            Ok(trace) => Some(StoredTrace {
                budget: trace.limit(),
                complete: trace.is_complete(),
                trace: Arc::new(trace),
                mapped,
            }),
            Err(e) => evict(&e.to_string()),
        }
    }

    /// Persist a capture for a workload identity (atomically; overwrites
    /// any previous entry): the entry is [`Trace::to_bytes`], written
    /// once. `budget` and `complete` must be the trace's own
    /// [`Trace::limit`] and [`Trace::is_complete`], which the entry
    /// records. Write failures are logged to stderr and swallowed — the
    /// store is a cache, not the source of truth.
    pub fn save(
        &self,
        name: &str,
        scale: usize,
        seed: u64,
        budget: u64,
        complete: bool,
        trace: &Trace,
    ) {
        debug_assert_eq!(
            (budget, complete),
            (trace.limit(), trace.is_complete()),
            "capture metadata must be the trace's own"
        );
        if let Err(e) = write_atomic(&self.dir, &self.path(name, scale, seed), &trace.to_bytes()) {
            eprintln!("warning: trace store: {e}");
        }
    }

    /// Count one disk hit (an intact, covering entry served a request).
    pub fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one disk miss (absent, corrupt, or insufficient entry).
    pub fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Disk hits recorded since this store was opened.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Disk misses recorded since this store was opened.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

// ---------------------------------------------------------------------------
// ResultCache
// ---------------------------------------------------------------------------

/// On-disk cache of finished [`RunResult`]s, keyed by [`cell_key`]. One
/// small checksummed file per grid cell; see the [module docs](self).
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Open (creating if needed) a result cache rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ResultCache, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create result cache {}: {e}", dir.display()))?;
        Ok(ResultCache { dir })
    }

    fn path(&self, key_hex: &str) -> PathBuf {
        self.dir.join(format!("cell-{key_hex}.bin"))
    }

    /// Load the cached result for a cell key, if present and intact.
    /// Corrupt entries are logged to stderr, evicted, and reported as
    /// absent, so the cell is simply simulated again.
    pub fn load(&self, key_hex: &str) -> Option<RunResult> {
        let path = self.path(key_hex);
        let body = match read_entry(&path, false) {
            Ok(Some(body)) => body,
            Ok(None) => return None,
            Err(why) => {
                evict_corrupt("result-cache entry", &path, &why);
                return None;
            }
        };
        match RunResult::from_bytes(body.as_ref()) {
            Ok(result) => Some(result),
            Err(e) => {
                evict_corrupt("result-cache entry", &path, &e.to_string());
                None
            }
        }
    }

    /// Persist a finished cell result (atomically). Write failures are
    /// logged to stderr and swallowed.
    pub fn save(&self, key_hex: &str, result: &RunResult) {
        if let Err(e) = write_atomic(&self.dir, &self.path(key_hex), &result.to_bytes()) {
            eprintln!("warning: result cache: {e}");
        }
    }

    /// The cache's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// The canonical identity of one grid cell, hashed to the result-cache
/// key (hex SHA-256). Covers everything that determines the cell's
/// [`RunResult`]: simulation sizing and seed, the workload, the grid
/// point (or baseline), and the fully-resolved [`vpsim_uarch::CoreConfig`]
/// (via its `Debug` rendering, which spells out every structural field —
/// so any config change, including future new fields, changes the key).
/// Execution details that cannot affect results — worker threads, the
/// trace-cache toggle — are deliberately excluded. Sampling
/// ([`RunSettings::sample`]) *does* affect results (a sampled cell is an
/// estimate, not the full replay), so its knobs are appended — but only
/// when sampling is on, which keeps every pre-sampling key byte-identical
/// to what earlier versions produced: existing result stores stay valid.
pub fn cell_key(settings: &RunSettings, job: &SweepJob) -> String {
    let point = match &job.point {
        Some(p) => p.label(),
        None => "baseline".to_string(),
    };
    let mut identity = format!(
        "vpsim-cell/v1\nwarmup = {}\nmeasure = {}\nscale = {}\nseed = {}\n\
         benchmark = {}\npoint = {}\nconfig = {:?}\n",
        settings.warmup,
        settings.measure,
        settings.scale,
        settings.seed,
        job.bench.name,
        point,
        job.config,
    );
    if let Some(sample) = settings.sample {
        identity.push_str(&format!(
            "sample = {}x{}+{}\n",
            sample.intervals, sample.period, sample.warmup
        ));
    }
    hex(&sha256(identity.as_bytes()))
}

// ---------------------------------------------------------------------------
// Stores bundle
// ---------------------------------------------------------------------------

/// The optional persistent stores a sweep runs against. `Default` is
/// fully in-memory (no persistence); [`Stores::open`] roots both stores
/// under one directory — the layout the `serve` binary and `sweep
/// --store` share.
#[derive(Debug, Clone, Default)]
pub struct Stores {
    /// On-disk trace store the in-memory trace cache falls through to.
    pub traces: Option<Arc<TraceStore>>,
    /// Persistent per-cell result cache.
    pub results: Option<Arc<ResultCache>>,
}

impl Stores {
    /// Open both stores under `dir` (`<dir>/traces`, `<dir>/results`),
    /// creating directories as needed.
    pub fn open(dir: impl AsRef<Path>) -> Result<Stores, String> {
        let dir = dir.as_ref();
        Ok(Stores {
            traces: Some(Arc::new(TraceStore::open(dir.join("traces"))?)),
            results: Some(Arc::new(ResultCache::open(dir.join("results"))?)),
        })
    }

    /// `true` when no persistent store is configured.
    pub fn is_empty(&self) -> bool {
        self.traces.is_none() && self.results.is_none()
    }
}

impl fmt::Display for Stores {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.traces, &self.results) {
            (None, None) => write!(f, "none"),
            (traces, results) => {
                let t = traces.as_ref().map(|s| s.dir().display().to_string());
                let r = results.as_ref().map(|s| s.dir().display().to_string());
                write!(
                    f,
                    "traces={} results={}",
                    t.as_deref().unwrap_or("none"),
                    r.as_deref().unwrap_or("none")
                )
            }
        }
    }
}

/// A unique scratch directory per call, for this crate's tests (no
/// tempfile crate in the offline build environment).
#[cfg(test)]
pub(crate) fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::AtomicUsize;
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("vpsim-store-test-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha256_matches_known_vectors() {
        // FIPS 180-4 test vectors.
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn trace_store_round_trips_and_counts() {
        let dir = scratch_dir("trace-rt");
        let store = TraceStore::open(&dir).unwrap();
        let mut b = vpsim_isa::ProgramBuilder::new();
        let (i, n) = (vpsim_isa::Reg::int(1), vpsim_isa::Reg::int(2));
        b.load_imm(n, 30);
        let top = b.bind_label();
        b.addi(i, i, 1);
        b.blt(i, n, top);
        b.halt();
        let program = b.build().unwrap();
        let trace = Trace::capture(&program, 50);
        assert!(store.load("w", 1, 7).is_none());
        store.save("w", 1, 7, 50, false, &trace);
        let stored = store.load("w", 1, 7).expect("saved entry loads");
        assert_eq!(*stored.trace, trace);
        assert_eq!(stored.budget, 50);
        assert!(!stored.complete);
        assert!(stored.trace.covers(40) && stored.trace.covers(50) && !stored.trace.covers(51));
        // Distinct identities address distinct entries.
        assert!(store.load("w", 2, 7).is_none());
        assert!(store.load("w", 1, 8).is_none());
        assert!(store.load("x", 1, 7).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mapped_entry_replays_identically_to_owned_load() {
        let dir = scratch_dir("trace-map");
        let store = TraceStore::open(&dir).unwrap();
        let mut b = vpsim_isa::ProgramBuilder::new();
        let (i, n) = (vpsim_isa::Reg::int(1), vpsim_isa::Reg::int(2));
        b.load_imm(n, 50);
        let top = b.bind_label();
        b.addi(i, i, 1);
        b.blt(i, n, top);
        b.halt();
        let trace = Trace::capture(&b.build().unwrap(), 100);
        assert!(store.map("w", 1, 7).is_none());
        store.save("w", 1, 7, 100, false, &trace);
        let mapped = store.map("w", 1, 7).expect("saved entry maps");
        assert_eq!(mapped.budget(), 100);
        assert!(!mapped.complete);
        assert!(mapped.trace.covers(100) && !mapped.trace.covers(101));
        assert_eq!(mapped.trace.len(), trace.len());
        #[cfg(all(unix, target_pointer_width = "64"))]
        assert!(mapped.is_mapped(), "64-bit unix entries are mmap-backed");
        // The mapped entry replays the exact captured stream and equals
        // the capture; the heap-read entry is the same trace.
        assert!(mapped.trace.cursor().eq(trace.cursor()));
        assert_eq!(*mapped.trace, trace);
        let loaded = store.load("w", 1, 7).expect("saved entry loads");
        assert!(!loaded.is_mapped());
        assert_eq!(*loaded.trace, trace);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_evicted_on_map() {
        let dir = scratch_dir("trace-map-corrupt");
        let store = TraceStore::open(&dir).unwrap();
        let mut b = vpsim_isa::ProgramBuilder::new();
        b.load_imm(vpsim_isa::Reg::int(1), 3);
        b.halt();
        let trace = Trace::capture(&b.build().unwrap(), 10);
        store.save("w", 1, 7, 10, true, &trace);
        let path = store.path("w", 1, 7);
        let bytes = std::fs::read(&path).unwrap();
        // A flipped bit and a truncation must both refuse to map and
        // evict the entry.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        assert!(store.map("w", 1, 7).is_none());
        assert!(!path.exists(), "corrupt entry must be evicted");
        store.save("w", 1, 7, 10, true, &trace);
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        assert!(store.map("w", 1, 7).is_none());
        assert!(!path.exists(), "truncated entry must be evicted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_trace_entry_is_evicted_on_load() {
        let dir = scratch_dir("trace-corrupt");
        let store = TraceStore::open(&dir).unwrap();
        let mut b = vpsim_isa::ProgramBuilder::new();
        b.load_imm(vpsim_isa::Reg::int(1), 3);
        b.halt();
        let trace = Trace::capture(&b.build().unwrap(), 10);
        store.save("w", 1, 7, 10, true, &trace);
        let path = store.path("w", 1, 7);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load("w", 1, 7).is_none(), "corrupt entry must not load");
        assert!(!path.exists(), "corrupt entry must be evicted");
        // The store heals on the next save.
        store.save("w", 1, 7, 10, true, &trace);
        assert!(store.load("w", 1, 7).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn result_cache_round_trips_and_evicts_corruption() {
        let dir = scratch_dir("results");
        let cache = ResultCache::open(&dir).unwrap();
        let mut result = RunResult::default();
        result.metrics.cycles = 1234;
        result.metrics.instructions = 999;
        result.vp_squashes = 55;
        let key = hex(&sha256(b"some cell"));
        assert!(cache.load(&key).is_none());
        cache.save(&key, &result);
        assert_eq!(cache.load(&key), Some(result));
        let path = cache.path(&key);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(cache.load(&key).is_none());
        assert!(!path.exists(), "corrupt entry must be evicted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_is_treated_as_corrupt() {
        let dir = scratch_dir("truncated");
        let cache = ResultCache::open(&dir).unwrap();
        let key = hex(&sha256(b"cell"));
        cache.save(&key, &RunResult::default());
        let path = cache.path(&key);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(cache.load(&key).is_none());
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_keys_gain_sampling_identity_only_when_sampling_is_on() {
        let job = SweepJob {
            index: 0,
            point: None,
            bench: vpsim_workloads::workload("gzip").unwrap(),
            config: vpsim_uarch::CoreConfig::default(),
        };
        let legacy = RunSettings::default();
        assert_eq!(legacy.sample, None, "defaults must stay unsampled");
        let base_key = cell_key(&legacy, &job);

        let mut sampled = legacy;
        sampled.sample = Some(vpsim_uarch::SampleConfig::default());
        let on_key = cell_key(&sampled, &job);
        assert_ne!(on_key, base_key, "a sampled cell is an estimate, not the full replay");

        // Every sampling knob is part of the identity.
        let tweaks: [fn(&mut vpsim_uarch::SampleConfig); 3] =
            [|s| s.intervals += 1, |s| s.period += 1, |s| s.warmup += 1];
        for tweak in tweaks {
            let mut t = sampled;
            tweak(t.sample.as_mut().unwrap());
            let key = cell_key(&t, &job);
            assert_ne!(key, on_key);
            assert_ne!(key, base_key);
        }

        // Turning sampling off restores the legacy key byte-for-byte, so
        // result stores written before sampling existed stay addressable.
        let mut off = sampled;
        off.sample = None;
        assert_eq!(cell_key(&off, &job), base_key);
    }

    #[test]
    fn stores_bundle_opens_both_and_displays() {
        let dir = scratch_dir("bundle");
        let stores = Stores::open(&dir).unwrap();
        assert!(!stores.is_empty());
        assert!(stores.traces.as_ref().unwrap().dir().ends_with("traces"));
        assert!(stores.results.as_ref().unwrap().dir().ends_with("results"));
        assert!(stores.to_string().contains("traces="));
        assert!(Stores::default().is_empty());
        assert_eq!(Stores::default().to_string(), "none");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
