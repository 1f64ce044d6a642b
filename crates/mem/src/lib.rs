//! Memory hierarchy substrate for vpsim: set-associative caches, MSHRs,
//! an L2 stride prefetcher, and a DDR3-1600 bank/row timing model —
//! everything the paper's Table 2 configuration specifies below the core.
//!
//! | Level | Paper (Table 2) | This crate |
//! |---|---|---|
//! | L1I | 4-way 32 KB | [`CacheConfig::l1i`] |
//! | L1D | 4-way 32 KB, 2 cycles, 64 MSHRs, 4 load ports | [`CacheConfig::l1d`] + [`MshrFile`] (ports enforced by the core) |
//! | L2 | 16-way 2 MB, 12 cycles, stride prefetcher degree 8 distance 1 | [`CacheConfig::l2`] + [`StridePrefetcher`] |
//! | DRAM | DDR3-1600 11-11-11, 2 ranks, 8 banks, 8 K rows, min 75 / max 185 cycles | [`Dram`] |
//!
//! The composed [`MemoryHierarchy`] exposes three timed operations —
//! [`MemoryHierarchy::fetch_inst`], [`MemoryHierarchy::load`] and
//! [`MemoryHierarchy::store`] — that map a `(address, cycle)` pair to the
//! data-ready cycle. Each [`MshrFile`] keeps its in-flight fills behind
//! an earliest-completion watermark, so a query cycle with nothing due
//! costs a single comparison and idle state costs no work at all.
//!
//! # Examples
//!
//! ```
//! use vpsim_mem::{MemoryHierarchy, MemoryConfig};
//!
//! let mut mem = MemoryHierarchy::new(MemoryConfig::default());
//! let r1 = mem.load(0x40, 0xA000, 0);      // cold: DRAM
//! let r2 = mem.load(0x40, 0xA008, r1 + 1); // same line: L1 hit
//! assert!(r1 > 100);
//! assert_eq!(r2 - (r1 + 1), 2);
//! ```

mod cache;
mod dram;
mod hierarchy;
mod mshr;
mod prefetch;

pub use cache::{AccessResult, Cache, CacheConfig};
pub use dram::{Dram, DramConfig};
pub use hierarchy::{MemoryConfig, MemoryHierarchy};
pub use mshr::MshrFile;
pub use prefetch::{PrefetchBatch, StridePrefetcher};
