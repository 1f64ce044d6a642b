//! Miss Status Holding Registers: outstanding-miss tracking with merge.
//!
//! Paper Table 2 gives both L1D and L2 64 MSHRs. Requests to a line that is
//! already outstanding merge into the existing entry (they complete when
//! the first fill returns); when all MSHRs are busy a new miss must wait
//! for the earliest completion.
//!
//! The file is a flat list of in-flight fills behind a `next_due`
//! watermark: expiry is O(1) while no fill is due (the watermark equals
//! the earliest completion), membership and merge queries walk the same
//! small list, and the steady state never rehashes or allocates.

/// One outstanding miss: the line being filled and its completion cycle.
#[derive(Debug, Clone, Copy)]
struct Miss {
    line: u64,
    ready: u64,
}

/// A finite file of miss status holding registers.
///
/// # Examples
///
/// ```
/// use vpsim_mem::MshrFile;
/// let mut mshr = MshrFile::new(2);
/// // A new miss at cycle 10 completing at cycle 100:
/// assert_eq!(mshr.lookup(0x40), None);
/// mshr.allocate(0x40, 100);
/// // A second access to the same line merges:
/// assert_eq!(mshr.lookup(0x40), Some(100));
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    outstanding: Vec<Miss>,
    /// Earliest `ready` among `outstanding`; `u64::MAX` when empty.
    next_due: u64,
}

impl MshrFile {
    /// Create a file with `capacity` registers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        MshrFile { capacity, outstanding: Vec::with_capacity(capacity), next_due: u64::MAX }
    }

    /// Drop entries whose fill has completed by `now`. O(1) while the
    /// earliest outstanding fill is still in the future; otherwise compacts
    /// in place (order-preserving) and recomputes the watermark.
    pub fn expire(&mut self, now: u64) {
        if now < self.next_due {
            return;
        }
        let mut min = u64::MAX;
        self.outstanding.retain(|m| {
            let live = m.ready > now;
            if live {
                min = min.min(m.ready);
            }
            live
        });
        self.next_due = min;
    }

    /// Fill cycle of an outstanding miss on `line_addr`, if any (merge).
    pub fn lookup(&self, line_addr: u64) -> Option<u64> {
        self.outstanding.iter().find(|m| m.line == line_addr).map(|m| m.ready)
    }

    /// `true` if a new miss can allocate right now.
    pub fn has_free(&self) -> bool {
        self.outstanding.len() < self.capacity
    }

    /// The earliest completion among outstanding misses (when a full file
    /// frees up), or `None` if empty.
    pub fn earliest_completion(&self) -> Option<u64> {
        (!self.outstanding.is_empty()).then_some(self.next_due)
    }

    /// Record a new outstanding miss completing at `fill_cycle`.
    ///
    /// # Panics
    ///
    /// Panics if the file is full or the line is already outstanding —
    /// callers must check [`MshrFile::has_free`] / [`MshrFile::lookup`].
    pub fn allocate(&mut self, line_addr: u64, fill_cycle: u64) {
        assert!(self.has_free(), "MSHR file full");
        assert!(self.lookup(line_addr).is_none(), "line already outstanding");
        self.next_due = self.next_due.min(fill_cycle);
        self.outstanding.push(Miss { line: line_addr, ready: fill_cycle });
    }

    /// Number of outstanding misses.
    pub fn len(&self) -> usize {
        self.outstanding.len()
    }

    /// `true` if no misses are outstanding.
    pub fn is_empty(&self) -> bool {
        self.outstanding.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_lookup_expire_cycle() {
        let mut m = MshrFile::new(4);
        m.allocate(0x40, 50);
        assert_eq!(m.lookup(0x40), Some(50));
        m.expire(49);
        assert_eq!(m.lookup(0x40), Some(50), "not yet complete");
        m.expire(50);
        assert_eq!(m.lookup(0x40), None, "completed at 50");
    }

    #[test]
    fn capacity_is_enforced() {
        let mut m = MshrFile::new(2);
        m.allocate(0, 10);
        m.allocate(64, 20);
        assert!(!m.has_free());
        assert_eq!(m.earliest_completion(), Some(10));
        m.expire(10);
        assert!(m.has_free());
        m.allocate(128, 30);
        assert_eq!(m.len(), 2);
        assert_eq!(m.earliest_completion(), Some(20));
    }

    #[test]
    #[should_panic(expected = "MSHR file full")]
    fn over_allocation_panics() {
        let mut m = MshrFile::new(1);
        m.allocate(0, 10);
        m.allocate(64, 20);
    }

    #[test]
    #[should_panic(expected = "already outstanding")]
    fn double_allocation_panics() {
        let mut m = MshrFile::new(2);
        m.allocate(0, 10);
        m.allocate(0, 20);
    }

    #[test]
    fn empty_file_reports_no_completion() {
        let m = MshrFile::new(2);
        assert!(m.is_empty());
        assert_eq!(m.earliest_completion(), None);
    }

    #[test]
    fn merged_lines_expire_together_and_watermark_tracks_the_min() {
        let mut m = MshrFile::new(3);
        m.allocate(0x00, 90);
        m.allocate(0x40, 30);
        m.allocate(0x80, 50);
        assert_eq!(m.earliest_completion(), Some(30));
        m.expire(30);
        assert_eq!(m.lookup(0x40), None);
        assert_eq!(m.earliest_completion(), Some(50), "min recomputed after expiry");
        assert_eq!(m.len(), 2);
    }
}
