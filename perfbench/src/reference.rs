//! Reference outputs the harness checks every run against, committed as
//! `reference.txt` beside this crate and compiled into the binary.
//!
//! The file is produced by `perfbench reference` on the commit that
//! defined the benchmark, so a later change that alters any simulated
//! result shows up as a digest mismatch. Lines are `<kind> <key> <value…>`:
//!
//! * `grid <seed> <digest>` and `sampled <seed> <digest>`: hex SHA-256 over
//!   every cell's `RunResult` bytes, per input seed of the pool;
//! * `full <seed> <cell> <instructions> <cycles>`: the full detailed replay
//!   of each sampled-long cell, the base of `ipc_rel_err_max`;
//! * `serve <scenario-hash> <digest>`: hex SHA-256 of the table a local
//!   run of each serve-mix catalog scenario prints.

use std::collections::HashMap;
use std::fmt::Write as _;

use vpsim_bench::protocol::{render_output, Format, View};
use vpsim_bench::store::{hex, sha256};
use vpsim_bench::TraceCache;

use crate::spans::Tracer;
use crate::{digest_results, grid, host, pool, sampled, serve};

/// Input seeds come from a pool of this many, so that every input a run
/// can draw has a committed reference.
pub const POOL: u64 = 16;

/// The simulation seed for harness seed `seed`.
pub fn input_seed(seed: u64) -> u64 {
    0x2014 + seed % POOL
}

pub struct Reference {
    digests: HashMap<String, String>,
    full: HashMap<String, (u64, u64)>,
}

impl Reference {
    pub fn embedded() -> Reference {
        Reference::parse(include_str!("../reference.txt"))
    }

    fn parse(text: &str) -> Reference {
        let mut r = Reference { digests: HashMap::new(), full: HashMap::new() };
        for line in text.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
            let words: Vec<&str> = line.split_whitespace().collect();
            match words.as_slice() {
                ["full", seed, cell, insts, cycles] => {
                    let (insts, cycles) = (insts.parse(), cycles.parse());
                    if let (Ok(i), Ok(c)) = (insts, cycles) {
                        r.full.insert(format!("{seed} {cell}"), (i, c));
                    }
                }
                [kind, key, digest] => {
                    r.digests.insert(format!("{kind} {key}"), digest.to_string());
                }
                _ => {}
            }
        }
        r
    }

    /// The committed digest for `kind` at `key`, if any.
    pub fn digest(&self, kind: &str, key: impl std::fmt::Display) -> Option<&str> {
        self.digests.get(&format!("{kind} {key}")).map(String::as_str)
    }

    /// Committed full-replay `(instructions, cycles)` of a sampled-long cell.
    pub fn full(&self, seed: u64, cell: usize) -> Option<(u64, u64)> {
        self.full.get(&format!("{seed} {cell}")).copied()
    }
}

/// Compute every reference line from scratch.
pub fn generate() -> String {
    let threads = host::nproc();
    let off = Tracer::new(false);
    let mut out = String::from("# Generated by `perfbench reference`; see src/reference.rs.\n");
    for k in 0..POOL {
        let seed = input_seed(k);
        TraceCache::global().clear();
        grid_line(&mut out, seed, threads, &off);
        sampled_lines(&mut out, seed, threads, &off);
        eprintln!("reference: seed {seed:#x} done");
    }
    for scenario in serve::catalog() {
        let results = scenario.run();
        let table = render_output(&results, View::Long, Format::Ascii);
        writeln!(out, "serve {} {}", scenario.cache_hash(), hex(&sha256(table.as_bytes())))
            .expect("write to String");
    }
    out
}

fn grid_line(out: &mut String, seed: u64, threads: usize, off: &Tracer) {
    let spec = grid::spec(seed, threads);
    let prepared = spec.prepare();
    pool::run_prepared(&prepared, threads, off, 0);
    writeln!(out, "grid {seed} {}", digest_results(&prepared)).expect("write to String");
}

fn sampled_lines(out: &mut String, seed: u64, threads: usize, off: &Tracer) {
    let spec = sampled::spec(seed, threads);
    let prepared = spec.prepare();
    pool::run_prepared(&prepared, threads, off, 0);
    writeln!(out, "sampled {seed} {}", digest_results(&prepared)).expect("write to String");
    drop(prepared);

    let mut full = spec.clone();
    full.settings.sample = None;
    let prepared = full.prepare();
    pool::run_prepared(&prepared, threads, off, 0);
    for index in 0..prepared.jobs().len() {
        let m = prepared.result(index).expect("every cell ran").metrics;
        writeln!(out, "full {seed} {index} {} {}", m.instructions, m.cycles)
            .expect("write to String");
    }
}
