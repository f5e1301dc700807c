//! Calendar-queue event scheduler: the engine's hot priority queue.
//!
//! A classic ns-3-style discrete-event simulator spends a large share of
//! its cycles in the pending-event set. A global `BinaryHeap` pays
//! `O(log n)` pointer-chasing comparisons on every push *and* pop; a
//! calendar queue ([Brown 1988], the structure ns-3 and most production
//! DES engines default to) makes both ends amortized `O(1)` by bucketing
//! events into fixed-width time slots:
//!
//! - a **wheel** of [`NUM_SLOTS`] buckets, each [`SLOT_NS`] wide, covers
//!   the near future (`now .. now + NUM_SLOTS·SLOT_NS`, ≈ 33 µs of
//!   simulated time; the link/beacon model schedules every data-plane
//!   event less than 8.2 µs ahead — histogram in DESIGN.md §10). Pushes
//!   append to the target bucket unsorted; the bucket holding the cursor
//!   is ordered once, when the cursor reaches it: reversed if it is
//!   already in time order, else by one stable counting pass on
//!   `time % SLOT_NS` — `O(k)` either way for `k` events that all have to
//!   pop anyway. Ordering by time alone is enough: a bucket holds the
//!   events of one time in push order, which is `seq` order (see
//!   `sort_bucket`).
//! - a **sorted overflow tier** (`BTreeMap`) holds far-future events
//!   (fault schedules, long timeouts). As the wheel turns, events whose
//!   slot becomes addressable migrate into the wheel in bulk.
//! - an **occupancy bitmap** (one bit per slot, 64 B — one cache line)
//!   finds the next non-empty slot with word-wide scans, so sparse
//!   stretches of simulated time cost ~ns, not a per-slot walk.
//! - a **same-instant lane** (`VecDeque`) takes every push at the time
//!   of the last pop — the zero-delay timers a node arms for "after
//!   everything else that happens now" (7–27 % of all pushes, DESIGN.md
//!   §10). They would land in the cursor bucket, which is sorted: a
//!   binary search and a `memmove` each. They need neither. An event
//!   pushed at time `t` while the clock stands at `t` has a larger `seq`
//!   than every event pushed at `t` while the clock was still short of
//!   it, and those are exactly the wheel's events at `t`; so the wheel's
//!   events at `t` pop first, then the lane in push order.
//!
//! **Determinism contract:** `pop` returns events in exactly ascending
//! `(time, seq)` order, where `seq` is the queue's internal monotone
//! push counter — byte-for-byte the order the previous
//! `BinaryHeap<Reverse<Scheduled>>` produced. The chaos repros and every
//! seeded experiment depend on this; `tests/sched_order.rs` checks it
//! against a reference heap over arbitrary interleavings.
//!
//! [Brown 1988]: https://dl.acm.org/doi/10.1145/63039.63045

use std::collections::{BTreeMap, VecDeque};

/// log2 of the slot width in nanoseconds.
const SLOT_BITS: u32 = 6;
/// Width of one wheel slot, ns. Chosen near the median inter-event gap of
/// the testbed workloads so buckets stay small (tens of events).
pub const SLOT_NS: u64 = 1 << SLOT_BITS;
/// Number of wheel slots (power of two). Horizon = `NUM_SLOTS * SLOT_NS`,
/// four times the furthest ahead any data-plane event is scheduled
/// (DESIGN.md §10): only fault schedules and long timers take the
/// overflow tier, and the buckets — entries are stored inline — are
/// revisited every 33 µs of simulated time, while they are still in cache.
pub const NUM_SLOTS: usize = 512;

const SLOT_MASK: u64 = NUM_SLOTS as u64 - 1;
const WORDS: usize = NUM_SLOTS / 64;
/// Sentinel for "no sorted bucket" / "no overflow".
const NONE_SLOT: u64 = u64::MAX;

struct Entry<T> {
    time: u64,
    seq: u64,
    item: T,
}

/// A calendar queue over items of type `T`, ordered by `(time, seq)` with
/// `seq` assigned internally in push order (FIFO among equal times).
pub struct CalendarQueue<T> {
    buckets: Vec<Vec<Entry<T>>>,
    /// Slot occupancy bitmap, one bit per bucket.
    occ: [u64; WORDS],
    /// Slot of the last popped event: the wheel window is
    /// `[base_slot, base_slot + NUM_SLOTS)`. Never rewinds.
    base_slot: u64,
    /// Absolute slot whose bucket is currently sorted (descending), or
    /// [`NONE_SLOT`]. Every other bucket holds the events of one time in
    /// ascending `seq` (see `sort_bucket`).
    sorted_slot: u64,
    /// Cached absolute slot of the first occupied wheel bucket, or
    /// [`NONE_SLOT`] when unknown. The engine peeks before every pop;
    /// the cache lets that pair (and often the next peek) share one
    /// bitmap scan.
    head_slot: u64,
    /// Events currently in the wheel.
    wheel_len: usize,
    /// Far-future events, beyond the wheel horizon, in `(time, seq)` order.
    overflow: BTreeMap<(u64, u64), T>,
    /// Slot of the earliest overflow event ([`NONE_SLOT`] when empty).
    next_overflow_slot: u64,
    /// Monotone push counter (the deterministic tie-break).
    seq: u64,
    len: usize,
    /// Time of the last popped event (0 before the first pop); no push
    /// is earlier.
    now: u64,
    /// The events pushed at `now`, as `(seq, item)` in push order.
    lane: VecDeque<(u64, T)>,
    /// The counting pass's output buffer, empty between passes.
    scratch: Vec<Option<Entry<T>>>,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue anchored at time 0.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..NUM_SLOTS).map(|_| Vec::new()).collect(),
            occ: [0; WORDS],
            base_slot: 0,
            sorted_slot: NONE_SLOT,
            head_slot: NONE_SLOT,
            wheel_len: 0,
            overflow: BTreeMap::new(),
            next_overflow_slot: NONE_SLOT,
            seq: 0,
            len: 0,
            now: 0,
            lane: VecDeque::new(),
            scratch: Vec::new(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn set_occ(&mut self, bucket: usize) {
        self.occ[bucket / 64] |= 1u64 << (bucket % 64);
    }

    #[inline]
    fn clear_occ(&mut self, bucket: usize) {
        self.occ[bucket / 64] &= !(1u64 << (bucket % 64));
    }

    /// Schedule `item` at absolute `time` (must be ≥ the last popped
    /// event's time — the engine never schedules into the past).
    ///
    /// Inlined into the caller as far as the common case goes — a later
    /// time, in an unsorted wheel bucket with spare capacity — so that
    /// the entry is built where it is stored, from the caller's
    /// registers. Out of line, the item reaches this function through a
    /// reference to the caller's stack and is copied out of it by wide
    /// loads over fields the caller has just stored one by one: a
    /// store-forwarding stall per push, the hottest instruction of the
    /// engine's profile (DESIGN.md §10).
    #[inline(always)]
    pub fn push(&mut self, time: u64, item: T) {
        // Handing `item` straight to `push_rest` below would pin it to
        // the stack for the common case too (a call takes its address);
        // moved out of a closure, only that branch's copy lives there.
        let item = move || item;
        self.seq += 1;
        let seq = self.seq;
        self.len += 1;
        let slot = time >> SLOT_BITS;
        debug_assert!(time >= self.now, "event scheduled into the past");
        if time != self.now && slot != self.sorted_slot && slot < self.base_slot + NUM_SLOTS as u64
        {
            let bucket = &mut self.buckets[(slot & SLOT_MASK) as usize];
            if bucket.len() < bucket.capacity() {
                bucket.push(Entry { time, seq, item: item() });
                self.note_wheel_push(slot);
                return;
            }
        }
        self.push_rest(time, seq, item());
    }

    /// What [`push`](Self::push) does not inline: the same-instant lane,
    /// the overflow tier, the sorted cursor bucket, a bucket that grows.
    #[inline(never)]
    fn push_rest(&mut self, time: u64, seq: u64, item: T) {
        if time == self.now {
            self.lane.push_back((seq, item));
            return;
        }
        let slot = time >> SLOT_BITS;
        if slot >= self.base_slot + NUM_SLOTS as u64 {
            self.overflow.insert((time, seq), item);
            self.next_overflow_slot = self.next_overflow_slot.min(slot);
            return;
        }
        let bucket = &mut self.buckets[(slot & SLOT_MASK) as usize];
        if slot == self.sorted_slot {
            // Keep the cursor bucket's descending (time, seq) order.
            let pos = bucket.partition_point(|e| (e.time, e.seq) > (time, seq));
            bucket.insert(pos, Entry { time, seq, item });
        } else {
            bucket.push(Entry { time, seq, item });
        }
        self.note_wheel_push(slot);
    }

    /// Book an entry just stored in the wheel bucket of `slot`.
    #[inline]
    fn note_wheel_push(&mut self, slot: u64) {
        self.set_occ((slot & SLOT_MASK) as usize);
        self.wheel_len += 1;
        if self.head_slot != NONE_SLOT && slot < self.head_slot {
            self.head_slot = slot;
        }
    }

    /// Absolute slot of the first occupied wheel bucket at or after
    /// `base_slot`, or `None` if the wheel is empty. Serves from the
    /// head cache when valid; otherwise scans the bitmap and refills it.
    fn first_occupied_slot(&mut self) -> Option<u64> {
        if self.wheel_len == 0 {
            return None;
        }
        if self.head_slot != NONE_SLOT {
            return Some(self.head_slot);
        }
        let start = (self.base_slot & SLOT_MASK) as usize;
        // Scan ring indices [start, NUM_SLOTS) then [0, start).
        let mut word = start / 64;
        let mut mask = !0u64 << (start % 64);
        // WORDS + 1 word visits cover the whole ring: the first word
        // twice, once per half.
        for _ in 0..=WORDS {
            let bits = self.occ[word] & mask;
            if bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                let idx = word * 64 + bit;
                let delta = (idx + NUM_SLOTS - start) & (NUM_SLOTS - 1);
                self.head_slot = self.base_slot + delta as u64;
                return Some(self.head_slot);
            }
            mask = !0;
            word += 1;
            if word == WORDS {
                word = 0;
            }
        }
        None
    }

    /// Order the bucket of `slot` descending by `(time, seq)` if it is not
    /// already the sorted cursor bucket.
    #[inline]
    fn ensure_sorted(&mut self, slot: u64) {
        if self.sorted_slot != slot {
            self.sort_bucket(slot);
        }
    }

    /// Make `slot`'s bucket the sorted cursor bucket.
    ///
    /// Ordering by `time` alone, stably, does it, because every other
    /// bucket keeps the events of one time in ascending `seq`: direct
    /// pushes append in push order, and the overflow tier hands a slot its
    /// far-future events in `(time, seq)` order, before any direct push can
    /// reach that slot (`refill_from_overflow` runs whenever `base_slot`
    /// advances). The one bucket that breaks it is a sorted bucket left
    /// behind — a peek sorted it, then a push into an earlier slot moved
    /// the cursor there (a run that stops short of the next event and then
    /// schedules more, as the rack partition does at every window barrier)
    /// — so it is reversed back to ascending when the cursor leaves it.
    ///
    /// A bucket already in time order — every bucket of the barrier
    /// background, where each burst is one instant, and two thirds of
    /// `sim_rel_loss`'s — only needs reversing into pop order. Any other
    /// takes one counting pass on `time % SLOT_NS` (DESIGN.md §10 has the
    /// measured shapes).
    #[inline(never)]
    fn sort_bucket(&mut self, slot: u64) {
        if self.sorted_slot != NONE_SLOT {
            // Not empty: `pop` unsets `sorted_slot` when it empties it.
            self.buckets[(self.sorted_slot & SLOT_MASK) as usize].reverse();
        }
        self.sorted_slot = slot;
        let bucket = &mut self.buckets[(slot & SLOT_MASK) as usize];
        if bucket.windows(2).all(|w| w[0].time <= w[1].time) {
            bucket.reverse();
        } else {
            counting_pass(bucket, &mut self.scratch);
        }
    }

    /// Migrate overflow events whose slot is now within the wheel horizon.
    fn refill_from_overflow(&mut self) {
        while self.next_overflow_slot < self.base_slot + NUM_SLOTS as u64 {
            let Some(((time, seq), item)) = self.overflow.pop_first() else {
                self.next_overflow_slot = NONE_SLOT;
                return;
            };
            let slot = time >> SLOT_BITS;
            if slot >= self.base_slot + NUM_SLOTS as u64 {
                // First key moved past the horizon (stale cache); restore.
                self.overflow.insert((time, seq), item);
                self.next_overflow_slot = slot;
                return;
            }
            debug_assert_ne!(slot, self.sorted_slot, "overflow refill into the cursor bucket");
            self.buckets[(slot & SLOT_MASK) as usize].push(Entry { time, seq, item });
            self.note_wheel_push(slot);
            self.next_overflow_slot =
                self.overflow.first_key_value().map_or(NONE_SLOT, |((t, _), _)| t >> SLOT_BITS);
        }
    }

    /// Time of the earliest pending event. Amortized O(1); takes `&mut`
    /// because it may sort the head bucket (work `pop` then reuses).
    pub fn peek_time(&mut self) -> Option<u64> {
        if !self.lane.is_empty() {
            return Some(self.now);
        }
        if self.len == 0 {
            return None;
        }
        match self.first_occupied_slot() {
            Some(slot) => {
                self.ensure_sorted(slot);
                let b = (slot & SLOT_MASK) as usize;
                self.buckets[b].last().map(|e| e.time)
            }
            // Wheel empty: the overflow tier holds the minimum.
            None => self.overflow.first_key_value().map(|((t, _), _)| *t),
        }
    }

    /// Whether the wheel's earliest event is at `now`: it was pushed
    /// before the clock got there, so before every event in the lane.
    fn wheel_head_is_now(&mut self) -> bool {
        let slot = self.now >> SLOT_BITS;
        if self.first_occupied_slot() != Some(slot) {
            return false;
        }
        self.ensure_sorted(slot);
        self.buckets[(slot & SLOT_MASK) as usize].last().is_some_and(|e| e.time == self.now)
    }

    /// Remove and return the earliest event as `(time, seq, item)`.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        if !self.lane.is_empty() && !self.wheel_head_is_now() {
            let (seq, item) = self.lane.pop_front()?;
            self.len -= 1;
            return Some((self.now, seq, item));
        }
        if self.len == 0 {
            return None;
        }
        if self.wheel_len == 0 {
            // Jump the wheel to the overflow tier and pull it in. Safe:
            // the event popped right after anchors `base_slot`, and the
            // engine never schedules before the last popped time.
            debug_assert_ne!(self.next_overflow_slot, NONE_SLOT);
            self.base_slot = self.next_overflow_slot;
            self.sorted_slot = NONE_SLOT;
            self.head_slot = NONE_SLOT;
            self.refill_from_overflow();
        }
        let slot = self.first_occupied_slot().expect("len > 0 but wheel empty after refill");
        self.ensure_sorted(slot);
        let b = (slot & SLOT_MASK) as usize;
        let e = self.buckets[b].pop().expect("occupancy bit set on empty bucket");
        if self.buckets[b].is_empty() {
            self.clear_occ(b);
            self.sorted_slot = NONE_SLOT;
            self.head_slot = NONE_SLOT;
        }
        self.wheel_len -= 1;
        self.len -= 1;
        if slot > self.base_slot {
            self.base_slot = slot;
            self.refill_from_overflow();
        }
        self.now = e.time;
        Some((e.time, e.seq, e.item))
    }
}

/// Order a bucket that holds each instant's events in ascending `seq`
/// descending by `(time, seq)`, through `scratch` (left empty). Out of
/// line: on the barrier background no bucket needs it.
#[inline(never)]
fn counting_pass<T>(bucket: &mut Vec<Entry<T>>, scratch: &mut Vec<Option<Entry<T>>>) {
    // `end[k]`: one past the last output position of offset `k`, whose
    // events go after every later offset's (descending time).
    let mut end = [0u32; SLOT_NS as usize];
    for e in bucket.iter() {
        end[(e.time % SLOT_NS) as usize] += 1;
    }
    let mut acc = 0;
    for n in end.iter_mut().rev() {
        acc += *n;
        *n = acc;
    }
    // Filling each offset's range from its end puts its lowest `seq` last,
    // where `pop` takes it first.
    scratch.resize_with(bucket.len(), || None);
    for e in bucket.drain(..) {
        let pos = &mut end[(e.time % SLOT_NS) as usize];
        *pos -= 1;
        scratch[*pos as usize] = Some(e);
    }
    bucket.extend(scratch.drain(..).map(|e| e.expect("a counting pass fills every position")));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut q = CalendarQueue::new();
        q.push(300, "c");
        q.push(100, "a1");
        q.push(100, "a2");
        q.push(200, "b");
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(100));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, i)| i)).collect();
        assert_eq!(order, vec!["a1", "a2", "b", "c"]);
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_overflow_round_trips() {
        let mut q = CalendarQueue::new();
        let horizon = NUM_SLOTS as u64 * SLOT_NS;
        q.push(horizon * 3, "far");
        q.push(5, "near");
        q.push(horizon * 3 + 1, "far2");
        assert_eq!(q.pop().map(|(t, _, i)| (t, i)), Some((5, "near")));
        assert_eq!(q.peek_time(), Some(horizon * 3));
        assert_eq!(q.pop().map(|(t, _, i)| (t, i)), Some((horizon * 3, "far")));
        assert_eq!(q.pop().map(|(t, _, i)| (t, i)), Some((horizon * 3 + 1, "far2")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn push_at_current_time_during_drain() {
        // A delay-0 timer scheduled while draining the cursor bucket must
        // pop after the event that scheduled it, in seq order.
        let mut q = CalendarQueue::new();
        q.push(50, 0u32);
        q.push(50, 1);
        assert_eq!(q.pop().map(|(_, _, i)| i), Some(0));
        q.push(50, 2); // scheduled "now", bucket already sorted
        q.push(51, 3);
        assert_eq!(q.pop().map(|(_, _, i)| i), Some(1));
        assert_eq!(q.pop().map(|(_, _, i)| i), Some(2));
        assert_eq!(q.pop().map(|(_, _, i)| i), Some(3));
    }

    #[test]
    fn interleaved_push_pop_matches_reference_heap() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut q = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut now = 0u64;
        for round in 0..10_000u64 {
            // xorshift
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = now + x % (3 * NUM_SLOTS as u64 * SLOT_NS);
            seq += 1;
            q.push(t, seq);
            heap.push(Reverse((t, seq)));
            if round % 3 == 0 {
                let (qt, qs, qi) = q.pop().unwrap();
                let Reverse((ht, hs)) = heap.pop().unwrap();
                assert_eq!((qt, qs), (ht, hs), "diverged at round {round}");
                assert_eq!(qi, qs);
                now = qt;
            }
        }
        while let Some((qt, qs, _)) = q.pop() {
            let Reverse((ht, hs)) = heap.pop().unwrap();
            assert_eq!((qt, qs), (ht, hs));
        }
        assert!(heap.is_empty());
    }

    #[test]
    fn wheel_wraps_over_many_rotations() {
        let mut q = CalendarQueue::new();
        let mut now = 0u64;
        let mut pending = 0usize;
        for i in 0..1_000u64 {
            // Long strides (just inside the horizon, co-prime with the
            // ring size) force repeated wrap-around of the slot ring.
            now += (NUM_SLOTS as u64 - 27) * SLOT_NS;
            q.push(now + 10, i);
            q.push(now + 10, i + 1_000_000);
            pending += 2;
            let (t, _, _) = q.pop().unwrap();
            assert!(t <= now + 10);
            pending -= 1;
            assert_eq!(q.len(), pending);
        }
    }
}
