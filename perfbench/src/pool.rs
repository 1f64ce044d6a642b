//! Timed parallel cells on the sweep engine's own worker pool
//! (`vpsim_bench::sweep::run_indexed`), one span per cell when tracing.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use vpsim_bench::sweep::{run_indexed, PreparedSweep};
use vpsim_bench::RunResult;

use crate::spans::{SpanId, Tracer};

/// What a pass over the cells produced.
pub struct Cells<T> {
    /// `(position, result, host ns)` of every cell that finished, in order.
    pub done: Vec<(usize, T, f64)>,
    /// Cells whose run panicked.
    pub failed: u64,
}

impl<T> Cells<T> {
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.done.iter().map(|c| c.2 / 1e6).collect()
    }
}

/// Run `run(k, span)` for `k` in `0..jobs` on `threads` workers, timing
/// each call and catching its panic, so one failed cell counts as a failure
/// instead of ending the run. `span` is the cell's own span, the parent of
/// any span `run` records.
pub fn run_timed<T: Send>(
    jobs: usize,
    threads: usize,
    tracer: &Tracer,
    parent: SpanId,
    name: &str,
    run: impl Fn(usize, SpanId) -> T + Sync,
) -> Cells<T> {
    let outcomes = run_indexed(jobs, threads, |k| {
        let start = Instant::now();
        let out = tracer.span(name, parent, |span| catch_unwind(AssertUnwindSafe(|| run(k, span))));
        (out.ok(), start.elapsed().as_nanos() as f64)
    });
    let mut cells = Cells { done: Vec::with_capacity(jobs), failed: 0 };
    for (k, (out, ns)) in outcomes.into_iter().enumerate() {
        match out {
            Some(result) => cells.done.push((k, result, ns)),
            None => cells.failed += 1,
        }
    }
    cells
}

/// Name of the span [`run_prepared`] records around each cell.
pub const CELL_SPAN: &str = "uarch.run_cell";

/// Simulate every cell `prepared` still needs, through
/// `PreparedSweep::run_cell`.
pub fn run_prepared(
    prepared: &PreparedSweep,
    threads: usize,
    tracer: &Tracer,
    parent: SpanId,
) -> Cells<RunResult> {
    let sim = prepared.sim_indices();
    run_timed(sim.len(), threads, tracer, parent, CELL_SPAN, |k, _| prepared.run_cell(sim[k]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans;

    #[test]
    fn cell_spans_from_both_workers_cover_the_measured_span() {
        let tracer = Tracer::new(true);
        let (root, cells) = tracer.span("measured", 0, |root| {
            let cells = run_timed(8, 2, &tracer, root, "cell", |k, _| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                assert_ne!(k, 5, "cell 5 fails");
            });
            (root, cells)
        });
        assert_eq!((cells.done.len(), cells.failed), (7, 1));
        let all = tracer.spans();
        let root = all.iter().find(|s| s.id == root).expect("root recorded");
        let threads: std::collections::BTreeSet<u64> =
            spans::children(&all, root).map(|s| s.thread).collect();
        assert_eq!(threads.len(), 2);
        assert!(spans::thread_coverage(&all, root, "cell", 2) >= crate::COVERAGE_BOUND);
    }
}
