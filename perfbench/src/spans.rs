//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end (nanoseconds since the tracer's
//! epoch), the span that caused it, and the thread that ran it. Spans are
//! kept in memory and summarised when the run ends. A disabled tracer runs
//! the wrapped call and records nothing, so untraced and traced runs drive
//! the library through the same code.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span (0 is "no parent").
pub type SpanId = u64;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: String,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder shared by every thread of one run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static THREAD_ID: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name` caused by `parent`; `f` receives
    /// the new span's id to hand to its own children.
    pub fn span<R>(&self, name: &str, parent: SpanId, f: impl FnOnce(SpanId) -> R) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(id);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.record(Span {
            id,
            parent,
            name: name.to_string(),
            thread: THREAD_ID.with(|t| *t),
            start_ns: start,
            end_ns: end,
        });
        out
    }

    fn record(&self, span: Span) {
        self.spans.lock().expect("a span writer panicked").push(span);
    }

    /// Every span recorded so far, sorted by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("a span writer panicked").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi)`.
pub fn union_ns(intervals: impl IntoIterator<Item = (u64, u64)>, lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        intervals.into_iter().map(|(s, e)| (s.max(lo), e.min(hi))).filter(|(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Direct children of `parent` among `spans`.
pub fn children<'a>(spans: &'a [Span], parent: &'a Span) -> impl Iterator<Item = &'a Span> {
    spans.iter().filter(move |s| s.parent == parent.id)
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Children on different threads may overlap each
/// other; the union is subtracted, so overlap is not counted twice.
pub fn self_time_ns(spans: &[Span], parent: &Span) -> u64 {
    let covered = union_ns(
        children(spans, parent).map(|c| (c.start_ns, c.end_ns)),
        parent.start_ns,
        parent.end_ns,
    );
    parent.duration_ns() - covered
}

/// How well the `name` spans under `root` account for the time of the
/// `threads` threads expected to run them: for each thread, the share of
/// its active window (from `root`'s start to the end of the thread's last
/// such span) that its own spans cover, and the smallest share over the
/// threads. A gap inside the window is host time the per-layer breakdown
/// cannot explain; the idle tail after a thread runs out of work is load
/// imbalance, which `sweep.worker_idle_frac` reports instead. A thread that
/// recorded no span at all makes the coverage 0.
pub fn thread_coverage(spans: &[Span], root: &Span, name: &str, threads: usize) -> f64 {
    let mut by_thread: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
    for span in children(spans, root).filter(|s| s.name == name) {
        by_thread.entry(span.thread).or_default().push(span.clone());
    }
    if by_thread.len() < threads {
        return 0.0;
    }
    by_thread
        .iter()
        .map(|(&thread, own)| {
            let end = own.iter().map(|s| s.end_ns).max().unwrap_or(root.start_ns).min(root.end_ns);
            let window = Span { thread, end_ns: end.max(root.start_ns), ..root.clone() };
            if window.duration_ns() == 0 {
                return 1.0;
            }
            1.0 - self_time_ns(own, &window) as f64 / window.duration_ns() as f64
        })
        .fold(1.0, f64::min)
}

/// Summed duration, in nanoseconds, of every span called `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).map(Span::duration_ns).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, thread: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: format!("s{id}"), thread, start_ns, end_ns }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_ns([(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(union_ns([(0, 10), (10, 20)], 0, 100), 20);
        assert_eq!(union_ns([(0, 50)], 10, 20), 10);
        assert_eq!(union_ns([(30, 40)], 0, 20), 0);
        assert_eq!(union_ns(Vec::new(), 0, 20), 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Root 0..100 on thread 1; two workers run children that overlap
        // each other in 20..40, plus one child hanging past the root end.
        let spans = vec![
            span(1, 0, 1, 0, 100),
            span(2, 1, 2, 10, 40),
            span(3, 1, 3, 20, 60),
            span(4, 1, 2, 90, 120),
            span(5, 2, 2, 15, 25), // grandchild: not the root's child
        ];
        // Covered: 10..60 (50) + 90..100 (10) = 60.
        assert_eq!(self_time_ns(&spans, &spans[0]), 40);
        // Child 2's self time: 30 minus its grandchild's 10.
        assert_eq!(self_time_ns(&spans, &spans[1]), 20);
        // Leaves are all self time.
        assert_eq!(self_time_ns(&spans, &spans[2]), 40);
    }

    fn cell(id: SpanId, thread: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { name: "cell".into(), ..span(id, 1, thread, start_ns, end_ns) }
    }

    #[test]
    fn thread_coverage_takes_the_worst_thread_and_skips_the_idle_tail() {
        let root = span(1, 0, 1, 0, 100);
        // Thread 2 is busy throughout; thread 3 runs out of work at 70.
        // Its idle tail is imbalance, not a gap in the breakdown.
        let busy = vec![root.clone(), cell(2, 2, 0, 50), cell(3, 2, 50, 100), cell(4, 3, 0, 70)];
        assert_eq!(thread_coverage(&busy, &root, "cell", 2), 1.0);
        // Thread 3 sits idle from 20 to 60 between its cells: 40 of its
        // 70-ns window is uncovered, whatever thread 2 does meanwhile.
        let idle = vec![root.clone(), cell(2, 2, 0, 100), cell(3, 3, 0, 20), cell(4, 3, 60, 70)];
        let c = thread_coverage(&idle, &root, "cell", 2);
        assert!((c - 30.0 / 70.0).abs() < 1e-12);
        assert!(c < crate::COVERAGE_BOUND);
        // A worker that never recorded a span: nothing accounts for it.
        let absent = vec![root.clone(), cell(2, 2, 0, 100)];
        assert_eq!(thread_coverage(&absent, &root, "cell", 2), 0.0);
        // Spans of another name, or under another parent, do not count.
        let other = vec![root.clone(), cell(2, 2, 0, 100), span(3, 1, 3, 0, 100)];
        assert_eq!(thread_coverage(&other, &root, "cell", 2), 0.0);
    }

    #[test]
    fn tracer_records_nested_spans_across_threads() {
        let tracer = Tracer::new(true);
        tracer.span("root", 0, |root| {
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        tracer.span("work", root, |_| {
                            std::thread::sleep(std::time::Duration::from_millis(5))
                        })
                    });
                }
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        let workers: Vec<&Span> = children(&spans, root).collect();
        assert_eq!(workers.len(), 2);
        assert_ne!(workers[0].thread, workers[1].thread);
        assert!(thread_coverage(&spans, root, "work", 2) > 0.5);
        assert!(total_ns(&spans, "work") >= 10_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", 0, |id| id + 41), 41);
        assert!(tracer.spans().is_empty());
    }
}
