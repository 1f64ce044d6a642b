//! Slab-backed struct-of-arrays instruction window and its companion
//! hot-loop structures, sized once at construction so the steady-state
//! simulation loop performs **zero heap allocation per cycle** (verified
//! by `crates/uarch/tests/zero_alloc.rs`):
//!
//! * [`Window`] — a fixed-capacity slab in struct-of-arrays layout with a
//!   free list and per-slot **generation stamps**. Slab indices are stable
//!   for a µop's whole lifetime; a parallel ROB-order ring (`order`) keeps
//!   the commit/seq order, and `seq → slab index` is O(1) because the
//!   window always holds a contiguous seq range. A slot stores each
//!   per-µop fact once: what its [`DynInst`], stage or prediction already
//!   says (eligibility, LQ/SQ and register holdings, the prediction's
//!   outcome) is derived by the pipeline where it is read.
//! * **Poison tracking** — each slot's selective-reissue poison set is a
//!   bitmask over *producer slab indices* plus an inverted
//!   producer→consumers list, so issue-time inheritance is a word-wise OR
//!   (no `Vec` clone) and validation/reissue walk exactly the affected
//!   consumers instead of the whole window. Stale inverted entries are
//!   skipped lazily by re-checking the bitmask — the generation stamp of
//!   the *slot* guards everything else that can outlive a µop.
//! * **Wakeup scoreboard** — waiting consumers register on their unready
//!   producers (`waiters`); a producer's writeback re-checks exactly those
//!   consumers and sets their bit in a seq-indexed `ready` bitset that the
//!   issue stage iterates in age order. The bitset is a conservative
//!   candidate filter: issue re-verifies operands, so spurious set bits are
//!   harmless and selective reissue (which can make a "ready" consumer
//!   unready again) only needs lazy repair.
//! * **Address-indexed LSQ** — in-flight loads and stores are threaded
//!   onto line-hashed bucket chains (intrusive doubly-linked, age-ordered
//!   because dispatch is in-order), so store-to-load forwarding and
//!   memory-order violation checks walk only same-line µops instead of
//!   the whole ROB-order ring. Entries join at dispatch and leave at
//!   [`Window::release`] (commit or squash), exactly when the µop's LQ or
//!   SQ entry is taken and freed.
//! * [`CompletionWheel`] — completion events bucketed by cycle in a
//!   power-of-two ring that grows to the largest in-flight latency, so
//!   completion touches only due µops. Events carry `(cycle, slab index,
//!   generation)` and are dropped lazily when the slot was squashed or
//!   reissued.
//! * [`FetchB2b`] — the §3.2 back-to-back fetch statistic over a two-cycle
//!   PC ring: only the previous cycle's fetch group can ever match, so two
//!   `fetch_width`-sized buffers are exact and O(1) memory.

use std::collections::VecDeque;
use vpsim_branch::RasCheckpoint;
use vpsim_core::HistoryState;
use vpsim_isa::{DynInst, Opcode};

/// Sentinel for "not yet scheduled" cycles.
pub(crate) const UNSCHEDULED: u64 = u64::MAX;

/// Sentinel slab index for "no link" in the LSQ bucket chains.
const NONE: u32 = u32::MAX;

/// Pipeline stage of a window slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Stage {
    /// Fetched, traversing the in-order front-end.
    FrontEnd,
    /// Dispatched into ROB/IQ, waiting for operands.
    Waiting,
    /// Issued to a functional unit.
    Issued,
    /// Result produced; waiting to retire.
    Completed,
}

/// Boolean slot attributes, packed into one flag word per slot. Only
/// facts the slot's [`DynInst`], stage and prediction cannot give are
/// stored; the rest (eligibility, LQ/SQ and register holdings, the
/// value-prediction outcome) are derived where they are read.
pub(crate) mod flag {
    /// `pred_any` is confident: its value was injected before dispatch.
    pub const CONFIDENT: u8 = 1 << 0;
    /// Some consumer issued using the predicted value before execution.
    pub const PRED_CONSUMER_ISSUED: u8 = 1 << 1;
    /// Slot holds an issue-queue entry.
    pub const IQ_HELD: u8 = 1 << 2;
    /// Fetch-time branch misprediction (direction or target).
    pub const BR_MISPRED: u8 = 1 << 3;
}

/// A scheduled completion: slot `idx` (validated by `gen`) finishes
/// execution at cycle `at`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// Absolute completion cycle.
    pub at: u64,
    /// Slab index of the completing slot.
    pub idx: u32,
    /// Generation stamp of the slot when the event was scheduled.
    pub gen: u32,
}

/// A consumer registered for wakeup, validated by its generation stamp.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Waiter {
    /// Slab index of the waiting consumer.
    pub idx: u32,
    /// Generation stamp of the consumer when it registered.
    pub gen: u32,
}

/// The instruction window: a struct-of-arrays slab plus ROB-order ring.
///
/// Fields are directly accessible to the pipeline (same crate); the
/// methods here own the bookkeeping that must stay consistent — slot
/// allocation/release, the seq-indexed ready bitset and the poison
/// bitmasks with their inverted lists.
#[derive(Debug)]
pub(crate) struct Window {
    cap: usize,
    /// Bit-position mask for the seq-indexed `ready` bitset
    /// (`capacity.next_power_of_two() - 1`).
    pos_mask: u64,
    /// Words per poison bitmask (one bit per slab slot).
    poison_words: usize,

    // ----- slab arrays (struct-of-arrays, all of length `cap`) -----
    /// The dynamic µop occupying each slot.
    pub di: Vec<DynInst>,
    /// Pipeline stage.
    pub state: Vec<Stage>,
    /// Packed boolean attributes ([`flag`]).
    pub flags: Vec<u8>,
    /// Cycle the µop leaves the in-order front-end.
    pub fe_exit: Vec<u64>,
    /// Cycle the µop dispatched ([`UNSCHEDULED`] while in the front-end).
    pub dispatched_at: Vec<u64>,
    /// Cycle the µop last issued.
    pub issued_at: Vec<u64>,
    /// Cycle the µop's execution completes.
    pub complete_at: Vec<u64>,
    /// Producer seq per source operand (`None` = value architectural).
    pub deps: Vec<[Option<u64>; 2]>,
    /// Store-set predicted dependence (loads only).
    pub store_dep: Vec<Option<u64>>,
    /// LFST slot this store occupies (store-set bookkeeping hint).
    pub lfst_slot: Vec<Option<u16>>,
    /// The predictor's value regardless of confidence; the
    /// [`flag::CONFIDENT`] bit marks it injected before dispatch.
    pub pred_any: Vec<Option<u64>>,
    /// Speculative history after this µop (squash restore point).
    pub hist_after: Vec<HistoryState>,
    /// RAS checkpoint after this µop (squash restore point).
    pub ras_cp: Vec<RasCheckpoint>,
    /// Generation stamp, bumped on release; anything that may outlive the
    /// slot (completion events, waiter registrations) carries a copy and
    /// is discarded lazily on mismatch.
    pub gen: Vec<u32>,
    /// Wakeup scoreboard: waiting consumers to re-check when this slot's
    /// value becomes available. Consumed (drained) at writeback.
    pub waiters: Vec<Vec<Waiter>>,
    /// Inverted poison index: consumers whose poison mask has this slot's
    /// bit. Entries are validated against the bitmask when walked.
    pub poisoned: Vec<Vec<u32>>,

    // ----- address-indexed LSQ (line-hashed bucket chains) -----
    /// Right shift applied to the fibonacci-hashed line address to pick a
    /// bucket (`64 - log2(bucket count)`).
    lsq_shift: u32,
    /// Oldest dispatched store chained on each bucket.
    store_head: Vec<u32>,
    /// Youngest dispatched store chained on each bucket.
    store_tail: Vec<u32>,
    /// Oldest dispatched load chained on each bucket.
    load_head: Vec<u32>,
    /// Youngest dispatched load chained on each bucket.
    load_tail: Vec<u32>,
    /// Next-younger chain link per slot ([`NONE`] when last or unlinked).
    mem_next: Vec<u32>,
    /// Next-older chain link per slot ([`NONE`] when first or unlinked).
    mem_prev: Vec<u32>,
    /// Bucket a slot is chained on ([`NONE`] when not on any chain).
    mem_bucket: Vec<u32>,

    /// Flattened poison bitmasks, `poison_words` words per slot, one bit
    /// per *producer slab index*.
    poison: Vec<u64>,
    /// Free slab indices.
    free: Vec<u32>,
    /// ROB-order ring of slab indices, oldest first.
    order: VecDeque<u32>,
    /// Issue-candidate bitset indexed by `seq & pos_mask`: waiting slots
    /// whose operands are (conservatively) ready.
    ready: Vec<u64>,
}

impl Window {
    /// A window able to hold `cap` in-flight µops (fetch queue + ROB).
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0);
        let pos = cap.next_power_of_two().max(64);
        let poison_words = cap.div_ceil(64);
        Window {
            cap,
            pos_mask: (pos - 1) as u64,
            poison_words,
            di: vec![DynInst::default(); cap],
            state: vec![Stage::FrontEnd; cap],
            flags: vec![0; cap],
            fe_exit: vec![0; cap],
            dispatched_at: vec![0; cap],
            issued_at: vec![0; cap],
            complete_at: vec![0; cap],
            deps: vec![[None, None]; cap],
            store_dep: vec![None; cap],
            lfst_slot: vec![None; cap],
            pred_any: vec![None; cap],
            hist_after: vec![HistoryState::default(); cap],
            ras_cp: vec![RasCheckpoint::default(); cap],
            gen: vec![0; cap],
            waiters: vec![Vec::new(); cap],
            poisoned: vec![Vec::new(); cap],
            lsq_shift: 64 - pos.trailing_zeros(),
            store_head: vec![NONE; pos],
            store_tail: vec![NONE; pos],
            load_head: vec![NONE; pos],
            load_tail: vec![NONE; pos],
            mem_next: vec![NONE; cap],
            mem_prev: vec![NONE; cap],
            mem_bucket: vec![NONE; cap],
            poison: vec![0; cap * poison_words],
            free: (0..cap as u32).rev().collect(),
            order: VecDeque::with_capacity(cap),
            ready: vec![0; pos / 64],
        }
    }

    /// In-flight µops (front-end included).
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Total slab capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Free-list occupancy (slots available for fetch).
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Slab index of the oldest in-flight µop.
    pub fn front(&self) -> Option<u32> {
        self.order.front().copied()
    }

    /// Slab index of the youngest in-flight µop.
    pub fn back(&self) -> Option<u32> {
        self.order.back().copied()
    }

    /// Slab index at ROB-order position `off` (0 = oldest).
    pub fn at(&self, off: usize) -> u32 {
        self.order[off]
    }

    /// Seq of the oldest in-flight µop.
    fn front_seq(&self) -> Option<u64> {
        self.front().map(|i| self.di[i as usize].seq)
    }

    /// O(1) `seq → slab index`; `None` when `seq` already committed or is
    /// not in flight. Relies on the window holding a contiguous seq range
    /// (squashed µops are refetched in order).
    pub fn idx_of(&self, seq: u64) -> Option<u32> {
        let front = self.front_seq()?;
        if seq < front {
            return None; // committed
        }
        let off = (seq - front) as usize;
        (off < self.order.len()).then(|| self.order[off])
    }

    /// Allocate a slot for `di` at the back of the ROB order.
    ///
    /// # Panics
    ///
    /// Panics if the window is full — the pipeline's fetch-queue and ROB
    /// occupancy checks make that unreachable.
    pub fn alloc(
        &mut self,
        di: DynInst,
        fe_exit: u64,
        hist_after: HistoryState,
        ras_cp: RasCheckpoint,
    ) -> u32 {
        let idx = self.free.pop().expect("window slab full: occupancy checks violated");
        let i = idx as usize;
        debug_assert!(self.waiters[i].is_empty() && self.poisoned[i].is_empty());
        debug_assert!(self.poison_is_empty(idx));
        debug_assert_eq!(self.mem_bucket[i], NONE, "recycled slot still on an LSQ chain");
        if let Some(&b) = self.order.back() {
            debug_assert!(di.seq == self.di[b as usize].seq + 1, "window seqs must be contiguous");
        }
        self.di[i] = di;
        self.state[i] = Stage::FrontEnd;
        self.flags[i] = 0;
        self.fe_exit[i] = fe_exit;
        self.dispatched_at[i] = UNSCHEDULED;
        self.issued_at[i] = UNSCHEDULED;
        self.complete_at[i] = UNSCHEDULED;
        self.deps[i] = [None, None];
        self.store_dep[i] = None;
        self.lfst_slot[i] = None;
        self.pred_any[i] = None;
        self.hist_after[i] = hist_after;
        self.ras_cp[i] = ras_cp;
        self.order.push_back(idx);
        idx
    }

    /// Remove the oldest µop from the ROB order (commit). The slab fields
    /// stay readable until [`Window::release`].
    pub fn pop_front(&mut self) -> u32 {
        self.order.pop_front().expect("pop_front on empty window")
    }

    /// Remove the youngest µop from the ROB order (squash). The slab
    /// fields stay readable until [`Window::release`].
    pub fn pop_back(&mut self) -> u32 {
        self.order.pop_back().expect("pop_back on empty window")
    }

    /// Return a popped slot to the free list: bump its generation (lazily
    /// invalidating any events/registrations that still name it) and clear
    /// the state that must not leak to the next occupant.
    pub fn release(&mut self, idx: u32) {
        let i = idx as usize;
        self.lsq_remove(idx);
        self.gen[i] = self.gen[i].wrapping_add(1);
        self.waiters[i].clear();
        self.poisoned[i].clear();
        self.poison[i * self.poison_words..(i + 1) * self.poison_words].fill(0);
        self.ready_clear(self.di[i].seq);
        self.free.push(idx);
    }

    /// `true` if `ev` still refers to the µop it was scheduled for and
    /// that µop is an issued slot due at or before `now`.
    pub fn event_live(&self, ev: Event, now: u64) -> bool {
        let i = ev.idx as usize;
        self.gen[i] == ev.gen && self.state[i] == Stage::Issued && self.complete_at[i] <= now
    }

    // ----- flag helpers -----

    /// Read one [`flag`] bit.
    pub fn flag(&self, idx: u32, bit: u8) -> bool {
        self.flags[idx as usize] & bit != 0
    }

    /// Set one [`flag`] bit.
    pub fn set_flag(&mut self, idx: u32, bit: u8) {
        self.flags[idx as usize] |= bit;
    }

    /// Clear one [`flag`] bit.
    pub fn clear_flag(&mut self, idx: u32, bit: u8) {
        self.flags[idx as usize] &= !bit;
    }

    // ----- ready bitset (issue candidates) -----

    /// Mark the µop with `seq` as an issue candidate.
    pub fn ready_set(&mut self, seq: u64) {
        let pos = seq & self.pos_mask;
        self.ready[(pos >> 6) as usize] |= 1 << (pos & 63);
    }

    /// Remove the µop with `seq` from the issue candidates.
    pub fn ready_clear(&mut self, seq: u64) {
        let pos = seq & self.pos_mask;
        self.ready[(pos >> 6) as usize] &= !(1 << (pos & 63));
    }

    /// `true` when no µop is an issue candidate — a handful of word
    /// compares, cheap enough to gate the pipeline's idle fast-forward.
    pub fn ready_is_empty(&self) -> bool {
        self.ready.iter().all(|&w| w == 0)
    }

    /// Collect the issue candidates in age (seq) order into `out`
    /// (cleared first). Candidates are slab indices; every set bit belongs
    /// to an in-flight waiting µop by construction.
    pub fn collect_ready(&self, out: &mut Vec<u32>) {
        out.clear();
        let Some(front) = self.front_seq() else { return };
        let words = self.ready.len();
        let start = front & self.pos_mask;
        let (start_word, start_bit) = ((start >> 6) as usize, start & 63);
        for wi in 0..=words {
            let w = (start_word + wi) % words;
            let mut bits = self.ready[w];
            if wi == 0 {
                bits &= !0u64 << start_bit;
            } else if wi == words {
                bits &= !(!0u64 << start_bit);
            }
            while bits != 0 {
                let b = bits.trailing_zeros() as u64;
                bits &= bits - 1;
                let pos = (w as u64) << 6 | b;
                let off = (pos.wrapping_sub(start)) & self.pos_mask;
                debug_assert!((off as usize) < self.order.len(), "stale ready bit");
                let idx = self.order[off as usize];
                debug_assert_eq!(self.state[idx as usize], Stage::Waiting);
                out.push(idx);
            }
        }
    }

    // ----- poison bitmasks -----

    /// `true` if consumer `c`'s poison set names producer slot `p`.
    pub fn poison_contains(&self, c: u32, p: u32) -> bool {
        let w = self.poison[c as usize * self.poison_words + (p >> 6) as usize];
        w & (1 << (p & 63)) != 0
    }

    /// Add producer slot `p` to consumer `c`'s poison set. Returns `true`
    /// if the bit was newly set (the caller then records the inverted
    /// `poisoned[p] -> c` entry).
    pub fn poison_insert(&mut self, c: u32, p: u32) -> bool {
        let slot = &mut self.poison[c as usize * self.poison_words + (p >> 6) as usize];
        let bit = 1u64 << (p & 63);
        let fresh = *slot & bit == 0;
        *slot |= bit;
        fresh
    }

    /// Remove producer slot `p` from consumer `c`'s poison set.
    pub fn poison_remove(&mut self, c: u32, p: u32) {
        self.poison[c as usize * self.poison_words + (p >> 6) as usize] &= !(1 << (p & 63));
    }

    /// Clear consumer `c`'s whole poison set (selective reissue).
    pub fn poison_clear(&mut self, c: u32) {
        let w = self.poison_words;
        self.poison[c as usize * w..(c as usize + 1) * w].fill(0);
    }

    /// `true` if consumer `c` carries no poison.
    pub fn poison_is_empty(&self, c: u32) -> bool {
        let w = self.poison_words;
        self.poison[c as usize * w..(c as usize + 1) * w].iter().all(|&x| x == 0)
    }

    /// Consumer `c` inherits producer `p`'s poison set (word-wise OR) —
    /// O(1) per dependence instead of the old per-slot `Vec` clone. Newly
    /// set bits are recorded in the inverted lists so validation and
    /// reissue can find `c` from each poison source.
    pub fn poison_inherit(&mut self, c: u32, p: u32) {
        let w = self.poison_words;
        for k in 0..w {
            let add = self.poison[p as usize * w + k] & !self.poison[c as usize * w + k];
            if add == 0 {
                continue;
            }
            self.poison[c as usize * w + k] |= add;
            let mut bits = add;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.poisoned[(k << 6) | b].push(c);
            }
        }
    }

    // ----- address-indexed LSQ -----

    /// Bucket for a byte address: fibonacci hash of its 64-byte line, so
    /// streaming accesses spread across buckets instead of clustering.
    fn lsq_bucket(&self, addr: u64) -> usize {
        ((addr >> 6).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.lsq_shift) as usize
    }

    /// Thread a just-dispatched load or store onto its bucket chain.
    /// Dispatch is in-order, so appending at the tail keeps every chain
    /// age-sorted. Non-memory µops and address-less slots are ignored.
    pub fn lsq_insert(&mut self, idx: u32) {
        let i = idx as usize;
        let Some(addr) = self.di[i].mem_addr else { return };
        let op = self.di[i].inst.op;
        let is_load = op == Opcode::Load;
        if !is_load && op != Opcode::Store {
            return;
        }
        let b = self.lsq_bucket(addr);
        debug_assert_eq!(self.mem_bucket[i], NONE, "slot already chained");
        let t = if is_load { self.load_tail[b] } else { self.store_tail[b] };
        self.mem_prev[i] = t;
        self.mem_next[i] = NONE;
        self.mem_bucket[i] = b as u32;
        if t != NONE {
            debug_assert!(self.di[t as usize].seq < self.di[i].seq, "chain must stay age-sorted");
            self.mem_next[t as usize] = idx;
        } else if is_load {
            self.load_head[b] = idx;
        } else {
            self.store_head[b] = idx;
        }
        if is_load {
            self.load_tail[b] = idx;
        } else {
            self.store_tail[b] = idx;
        }
    }

    /// Unlink a slot from its bucket chain (no-op when it is not on one).
    /// Called from [`Window::release`], so commit and squash both drop
    /// chain entries exactly when the slot dies.
    fn lsq_remove(&mut self, idx: u32) {
        let i = idx as usize;
        let b = self.mem_bucket[i];
        if b == NONE {
            return;
        }
        let b = b as usize;
        let is_load = self.di[i].inst.op == Opcode::Load;
        let (p, n) = (self.mem_prev[i], self.mem_next[i]);
        if p != NONE {
            self.mem_next[p as usize] = n;
        } else if is_load {
            self.load_head[b] = n;
        } else {
            self.store_head[b] = n;
        }
        if n != NONE {
            self.mem_prev[n as usize] = p;
        } else if is_load {
            self.load_tail[b] = p;
        } else {
            self.store_tail[b] = p;
        }
        self.mem_bucket[i] = NONE;
    }

    /// Youngest dispatched store to exactly `addr` with seq below
    /// `before_seq` — the store a load at `before_seq` would forward from.
    /// Walks the bucket's store chain youngest-first, so the first match
    /// is the answer (equivalent to the old backward ROB-ring scan:
    /// everything older than a dispatched load is itself dispatched).
    pub fn youngest_older_store(&self, addr: u64, before_seq: u64) -> Option<u32> {
        let mut cur = self.store_tail[self.lsq_bucket(addr)];
        while cur != NONE {
            let i = cur as usize;
            if self.di[i].seq < before_seq && self.di[i].mem_addr == Some(addr) {
                return Some(cur);
            }
            cur = self.mem_prev[i];
        }
        None
    }

    /// Oldest issued or completed load to exactly `addr` with seq above
    /// `after_seq` — the memory-order violation a store at `after_seq`
    /// must squash. Walks the bucket's load chain oldest-first.
    pub fn oldest_younger_issued_load(&self, addr: u64, after_seq: u64) -> Option<u32> {
        let mut cur = self.load_head[self.lsq_bucket(addr)];
        while cur != NONE {
            let i = cur as usize;
            if self.di[i].seq > after_seq
                && self.di[i].mem_addr == Some(addr)
                && matches!(self.state[i], Stage::Issued | Stage::Completed)
            {
                return Some(cur);
            }
            cur = self.mem_next[i];
        }
        None
    }
}

/// Completion events bucketed by cycle — a timing wheel.
///
/// The wheel grows to the largest in-flight latency (power of two), so a
/// bucket only ever holds events for one cycle. Events due at or before
/// the current cycle land in the `carry` list and are processed next cycle
/// (matching the old per-cycle scan, which a same-cycle issue could never
/// reach), and [`CompletionWheel::defer`] re-queues events postponed when
/// a memory-order squash aborts the completion stage mid-pass.
///
/// Every bucket keeps the same capacity, raised for all of them at once
/// when one bucket fills, so allocation stops once the largest per-cycle
/// event count has been seen, rather than recurring each time that count
/// first lands in a bucket that never held it.
///
/// The hot methods are `#[inline]`: `Machine` is generic, so the
/// replay loop is compiled in the calling crate, and without the attribute
/// these would be cross-crate calls on the per-cycle path.
#[derive(Debug)]
pub(crate) struct CompletionWheel {
    buckets: Vec<Vec<Event>>,
    /// Capacity reserved in every bucket.
    bucket_cap: usize,
    carry: Vec<Event>,
    due: Vec<Event>,
}

impl CompletionWheel {
    /// A wheel with an initial horizon of `horizon` cycles (rounded up to
    /// a power of two; grows on demand).
    pub fn new(horizon: usize) -> Self {
        let n = horizon.next_power_of_two().max(64);
        CompletionWheel {
            buckets: vec![Vec::new(); n],
            bucket_cap: 0,
            carry: Vec::new(),
            due: Vec::new(),
        }
    }

    /// Schedule `ev` for cycle `ev.at`; events due at or before `now` land
    /// in the carry list and are processed next cycle (a same-cycle
    /// completion is never visible to the cycle that issued it).
    #[inline]
    pub fn schedule(&mut self, now: u64, ev: Event) {
        if ev.at <= now {
            self.carry.push(ev);
            return;
        }
        let dist = (ev.at - now) as usize;
        if dist >= self.buckets.len() {
            self.grow(now, dist);
        }
        let slot = (ev.at as usize) & (self.buckets.len() - 1);
        if self.buckets[slot].len() == self.bucket_cap {
            self.widen();
        }
        self.buckets[slot].push(ev);
    }

    /// Double the capacity reserved in every bucket.
    #[cold]
    fn widen(&mut self) {
        self.bucket_cap = (2 * self.bucket_cap).max(4);
        for b in &mut self.buckets {
            b.reserve_exact(self.bucket_cap.saturating_sub(b.len()));
        }
    }

    fn grow(&mut self, now: u64, dist: usize) {
        let new_len = (dist + 1).next_power_of_two();
        let mut buckets: Vec<Vec<Event>> =
            (0..new_len).map(|_| Vec::with_capacity(self.bucket_cap)).collect();
        for old in &mut self.buckets {
            for ev in old.drain(..) {
                debug_assert!(ev.at > now);
                buckets[(ev.at as usize) & (new_len - 1)].push(ev);
            }
        }
        self.buckets = buckets;
    }

    /// Drain everything due at `now` (this cycle's bucket plus the carry
    /// list) into the reusable due buffer and hand it out by value; return
    /// it with [`CompletionWheel::recycle`] to keep its capacity.
    #[inline]
    pub fn take_due(&mut self, now: u64) -> Vec<Event> {
        self.due.clear();
        let slot = (now as usize) & (self.buckets.len() - 1);
        for ev in self.buckets[slot].drain(..) {
            debug_assert_eq!(ev.at, now, "wheel lap: event outlived its bucket");
            self.due.push(ev);
        }
        self.due.append(&mut self.carry);
        std::mem::take(&mut self.due)
    }

    /// Return the buffer [`CompletionWheel::take_due`] handed out, so its
    /// capacity is reused next cycle (zero-allocation steady state).
    #[inline]
    pub fn recycle(&mut self, due: Vec<Event>) {
        self.due = due;
    }

    /// Defer a due event to the next cycle (the consumer aborted its drain
    /// pass before reaching it).
    #[inline]
    pub fn defer(&mut self, ev: Event) {
        self.carry.push(ev);
    }

    /// The earliest cycle `>= now` at which [`CompletionWheel::take_due`]
    /// would return anything, or `None` when the wheel is empty. Carried
    /// events surface at the next drain, so a non-empty carry list reports
    /// `now` itself. Every scheduled event lies within one lap of `now`
    /// (the wheel grows at schedule time), so the first non-empty bucket
    /// in a forward ring scan is exact, and the scan costs at most the
    /// distance to the next event — the consumer's license to fast-forward
    /// idle cycles instead of draining empty buckets one by one.
    #[inline]
    pub fn next_due_at_or_after(&self, now: u64) -> Option<u64> {
        if !self.carry.is_empty() {
            return Some(now);
        }
        let len = self.buckets.len();
        (0..len as u64)
            .find(|&k| !self.buckets[(now.wrapping_add(k) as usize) & (len - 1)].is_empty())
            .map(|k| now + k)
    }
}

/// Back-to-back fetch detection (§3.2) over a two-cycle PC ring.
///
/// A µop fetches "back-to-back" when its PC was also fetched in the
/// immediately preceding cycle — the case where a fetch-time value
/// predictor must use its own prediction as the last value. Only the
/// previous cycle's fetch group (at most `fetch_width` PCs) can match, so
/// two small buffers replace the unbounded `HashMap<pc, cycle>` the model
/// used to carry: memory stays flat on endless workloads
/// (`capacity()` is asserted in the regression test).
#[derive(Debug)]
pub(crate) struct FetchB2b {
    cycles: [u64; 2],
    pcs: [Vec<u64>; 2],
}

impl FetchB2b {
    /// An empty tracker.
    pub fn new() -> Self {
        FetchB2b { cycles: [u64::MAX; 2], pcs: [Vec::new(), Vec::new()] }
    }

    /// Record that `pc` fetches at cycle `now`; returns `true` when the
    /// most recent previous fetch of `pc` was exactly at `now - 1`.
    pub fn fetched(&mut self, pc: u64, now: u64) -> bool {
        let cur = (now & 1) as usize;
        if self.cycles[cur] != now {
            self.cycles[cur] = now;
            self.pcs[cur].clear();
        }
        let prev = cur ^ 1;
        let b2b = self.cycles[prev] == now.wrapping_sub(1)
            && self.pcs[prev].contains(&pc)
            && !self.pcs[cur].contains(&pc);
        self.pcs[cur].push(pc);
        b2b
    }

    /// Total retained PC entries — bounded by two fetch groups; the
    /// memory-flatness regression test asserts this never grows past
    /// `2 * fetch_width`.
    #[cfg(test)]
    pub fn capacity(&self) -> usize {
        self.pcs[0].len() + self.pcs[1].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn di(seq: u64) -> DynInst {
        DynInst { seq, ..DynInst::default() }
    }

    fn fresh(cap: usize, n: u64) -> Window {
        let mut w = Window::new(cap);
        for s in 0..n {
            w.alloc(di(s), 0, HistoryState::default(), RasCheckpoint::default());
        }
        w
    }

    #[test]
    fn alloc_assigns_stable_indices_and_idx_of_resolves() {
        let mut w = fresh(8, 5);
        assert_eq!(w.len(), 5);
        for s in 0..5 {
            let idx = w.idx_of(s).unwrap();
            assert_eq!(w.di[idx as usize].seq, s);
        }
        assert_eq!(w.idx_of(5), None);
        // Commit the front two: their seqs now resolve to None.
        for _ in 0..2 {
            let idx = w.pop_front();
            w.release(idx);
        }
        assert_eq!(w.idx_of(0), None);
        assert_eq!(w.idx_of(1), None);
        let idx = w.idx_of(2).unwrap();
        assert_eq!(w.di[idx as usize].seq, 2);
        // Freed slots are recycled, indices stay stable for live slots.
        let live: Vec<u32> = (2..5).map(|s| w.idx_of(s).unwrap()).collect();
        w.alloc(di(5), 0, HistoryState::default(), RasCheckpoint::default());
        for (k, s) in (2..5).enumerate() {
            assert_eq!(w.idx_of(s).unwrap(), live[k]);
        }
    }

    #[test]
    fn release_bumps_generation() {
        let mut w = fresh(4, 2);
        let idx = w.pop_front();
        let g = w.gen[idx as usize];
        w.release(idx);
        assert_eq!(w.gen[idx as usize], g + 1);
        let ev = Event { at: 5, idx, gen: g };
        assert!(!w.event_live(ev, 5), "stale generation must invalidate events");
    }

    #[test]
    fn ready_bitset_iterates_in_seq_order_across_wrap() {
        // Force the seq positions to wrap the bitset: commit far enough
        // that front_seq & pos_mask lands near the top.
        let cap = 6; // pos space rounds up to 64
        let mut w = Window::new(cap);
        for s in 0..200u64 {
            w.alloc(di(s), 0, HistoryState::default(), RasCheckpoint::default());
            if w.len() == cap {
                let idx = w.pop_front();
                w.release(idx);
            }
        }
        // Window now holds seqs 195..=199 (len 5). Mark all ready.
        for s in 195..200u64 {
            let i = w.idx_of(s).unwrap();
            w.state[i as usize] = Stage::Waiting;
            w.ready_set(s);
        }
        let mut out = Vec::new();
        w.collect_ready(&mut out);
        let seqs: Vec<u64> = out.iter().map(|&i| w.di[i as usize].seq).collect();
        assert_eq!(seqs, vec![195, 196, 197, 198, 199]);
        w.ready_clear(197);
        w.collect_ready(&mut out);
        let seqs: Vec<u64> = out.iter().map(|&i| w.di[i as usize].seq).collect();
        assert_eq!(seqs, vec![195, 196, 198, 199]);
    }

    #[test]
    fn poison_masks_union_and_invert() {
        let mut w = fresh(8, 6);
        let (a, b, c) = (w.idx_of(0).unwrap(), w.idx_of(1).unwrap(), w.idx_of(2).unwrap());
        assert!(w.poison_insert(c, a));
        assert!(!w.poison_insert(c, a), "duplicate insert reports not-fresh");
        w.poisoned[a as usize].push(c);
        assert!(w.poison_contains(c, a));
        assert!(!w.poison_is_empty(c));
        // Inheritance: another consumer ORs c's mask in and the inverted
        // list learns about it.
        let d = w.idx_of(3).unwrap();
        w.poison_inherit(d, c);
        assert!(w.poison_contains(d, a));
        assert_eq!(w.poisoned[a as usize], vec![c, d]);
        // Removing and clearing.
        w.poison_remove(c, a);
        assert!(w.poison_is_empty(c));
        w.poison_insert(d, b);
        w.poison_clear(d);
        assert!(w.poison_is_empty(d));
    }

    fn mem_di(seq: u64, op: Opcode, addr: u64) -> DynInst {
        let mut d = DynInst { seq, mem_addr: Some(addr), ..DynInst::default() };
        d.inst.op = op;
        d
    }

    #[test]
    fn lsq_chains_resolve_forwarding_and_violations_by_address() {
        let mut w = Window::new(16);
        // seq 0: store A, seq 1: store B, seq 2: store A, seq 3: load A,
        // seq 4: load B — dispatched (chained) in order.
        let a = 0x1000u64;
        let b = 0x2040u64;
        for (seq, op, addr) in [
            (0, Opcode::Store, a),
            (1, Opcode::Store, b),
            (2, Opcode::Store, a),
            (3, Opcode::Load, a),
            (4, Opcode::Load, b),
        ] {
            let idx = w.alloc(
                mem_di(seq, op, addr),
                0,
                HistoryState::default(),
                RasCheckpoint::default(),
            );
            w.lsq_insert(idx);
        }
        // A load at seq 3 forwards from the *youngest older* store to A: seq 2.
        let s = w.youngest_older_store(a, 3).unwrap();
        assert_eq!(w.di[s as usize].seq, 2);
        // Nothing older than seq 0 exists, and address C was never stored.
        assert_eq!(w.youngest_older_store(a, 0), None);
        assert_eq!(w.youngest_older_store(0x3000, 5), None);
        // Violation check: loads only count once issued.
        assert_eq!(w.oldest_younger_issued_load(a, 0), None);
        let l3 = w.idx_of(3).unwrap();
        w.state[l3 as usize] = Stage::Issued;
        let v = w.oldest_younger_issued_load(a, 0).unwrap();
        assert_eq!(w.di[v as usize].seq, 3);
        // A store younger than the load sees no violation.
        assert_eq!(w.oldest_younger_issued_load(a, 3), None);
        // Squash the two loads: release unlinks them from the chains.
        for _ in 0..2 {
            let idx = w.pop_back();
            w.release(idx);
        }
        assert_eq!(w.oldest_younger_issued_load(a, 0), None);
        // Stores still chained; releasing the middle store relinks around it.
        let s1 = w.idx_of(2).unwrap();
        w.lsq_remove(s1);
        let s = w.youngest_older_store(a, 3).unwrap();
        assert_eq!(w.di[s as usize].seq, 0);
    }

    #[test]
    fn completion_wheel_delivers_at_the_right_cycle_and_grows() {
        let mut wh = CompletionWheel::new(4);
        wh.schedule(0, Event { at: 3, idx: 1, gen: 0 });
        wh.schedule(0, Event { at: 1000, idx: 2, gen: 0 }); // forces growth
        wh.schedule(0, Event { at: 0, idx: 3, gen: 0 }); // due now → carry
        let due = wh.take_due(0);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].idx, 3);
        assert!(wh.take_due(1).is_empty());
        assert!(wh.take_due(2).is_empty());
        let due = wh.take_due(3);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].idx, 1);
        for n in 4..1000 {
            assert!(wh.take_due(n).is_empty(), "cycle {n}");
        }
        assert_eq!(wh.take_due(1000).len(), 1);
        // Deferred events resurface next cycle.
        wh.defer(Event { at: 1000, idx: 9, gen: 0 });
        assert_eq!(wh.take_due(1001).len(), 1);
    }

    #[test]
    fn wheel_reports_the_next_due_cycle_exactly() {
        let mut wh = CompletionWheel::new(8);
        assert_eq!(wh.next_due_at_or_after(0), None, "empty wheel has nothing due");
        wh.schedule(10, Event { at: 17, idx: 1, gen: 0 });
        wh.schedule(10, Event { at: 300, idx: 2, gen: 0 });
        assert_eq!(wh.next_due_at_or_after(11), Some(17));
        assert_eq!(wh.next_due_at_or_after(17), Some(17), "due now is reported as now");
        assert_eq!(wh.take_due(17).len(), 1);
        assert_eq!(wh.next_due_at_or_after(18), Some(300), "scan crosses the grown ring");
        // A deferred event is due at the very next drain.
        wh.defer(Event { at: 17, idx: 3, gen: 0 });
        assert_eq!(wh.next_due_at_or_after(18), Some(18));
    }

    #[test]
    fn wheel_widens_every_bucket_when_one_fills() {
        let mut wh = CompletionWheel::new(8);
        // Five events in one cycle outgrow the first reservation...
        for idx in 0..5 {
            wh.schedule(0, Event { at: 3, idx, gen: 0 });
        }
        assert!(
            wh.buckets.iter().all(|b| b.capacity() >= 5),
            "every bucket was widened, not just the full one"
        );
        // ...and a grown ring reserves as much in each of its buckets.
        wh.schedule(0, Event { at: 500, idx: 5, gen: 0 });
        assert!(wh.buckets.len() > 500);
        assert!(wh.buckets.iter().all(|b| b.capacity() >= 5));
    }

    #[test]
    fn wheel_recycled_buffer_keeps_capacity() {
        let mut wh = CompletionWheel::new(8);
        for idx in 0..32 {
            wh.schedule(0, Event { at: 5, idx, gen: 0 });
        }
        let due = wh.take_due(5);
        assert_eq!(due.len(), 32);
        let cap = due.capacity();
        wh.recycle(due);
        assert!(wh.take_due(6).capacity() >= cap, "recycled buffer lost its capacity");
    }

    #[test]
    fn b2b_matches_the_hashmap_semantics() {
        let mut t = FetchB2b::new();
        assert!(!t.fetched(0x40, 0), "first fetch is never back-to-back");
        assert!(t.fetched(0x40, 1), "previous-cycle fetch matches");
        assert!(!t.fetched(0x40, 1), "same-cycle refetch is not back-to-back");
        assert!(t.fetched(0x40, 2));
        assert!(!t.fetched(0x40, 4), "a gap cycle breaks the chain");
        assert!(!t.fetched(0x80, 5), "different pc does not match");
        assert!(t.fetched(0x40, 5), "0x40 was fetched in the previous cycle");
        assert!(!t.fetched(0x40, 7), "two idle cycles break the chain");
    }

    #[test]
    fn b2b_memory_stays_flat_on_endless_unique_pcs() {
        // The old HashMap grew one entry per distinct PC; the ring must
        // hold at most two fetch groups no matter how many PCs stream by.
        let mut t = FetchB2b::new();
        for cycle in 0..1_000_000u64 {
            for lane in 0..8u64 {
                t.fetched(0x1000 + cycle * 64 + lane * 8, cycle);
            }
            assert!(t.capacity() <= 16, "tracker grew: {}", t.capacity());
        }
    }
}
