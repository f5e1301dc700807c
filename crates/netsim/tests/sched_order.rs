//! Property test for the calendar-queue scheduler's determinism contract:
//! over arbitrary push/pop interleavings, [`CalendarQueue`] must pop in
//! exactly ascending `(time, seq)` order — byte-for-byte what the old
//! `BinaryHeap<Reverse<Scheduled>>` produced. Every seeded experiment and
//! chaos repro depends on this.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use onepipe_netsim::sched::{CalendarQueue, NUM_SLOTS, SLOT_NS};
use proptest::prelude::*;

/// Reference model: the exact structure the engine used before the
/// calendar queue, with the same internal push-order sequence counter.
struct RefHeap {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    seq: u64,
}

impl RefHeap {
    fn new() -> Self {
        RefHeap { heap: BinaryHeap::new(), seq: 0 }
    }
    fn push(&mut self, time: u64) {
        self.seq += 1;
        self.heap.push(Reverse((time, self.seq)));
    }
    fn pop(&mut self) -> Option<(u64, u64)> {
        self.heap.pop().map(|Reverse(p)| p)
    }
    fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((t, _))| *t)
    }
}

proptest! {
    /// Arbitrary interleavings of pushes (near-future, mid-wheel, and
    /// overflow-tier distances) and pops yield the same (time, seq)
    /// stream as the reference heap, and peek_time always agrees.
    #[test]
    fn pops_match_reference_heap(ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..400)) {
        let horizon = NUM_SLOTS as u64 * SLOT_NS;
        let mut cal: CalendarQueue<u64> = CalendarQueue::new();
        let mut reference = RefHeap::new();
        // The engine never schedules into the past: pushed times stay at
        // or above the last popped time, which the generator enforces by
        // tracking the floor.
        let mut floor = 0u64;
        for (kind, raw) in ops {
            if kind % 4 != 3 {
                // Mix scales so pushes land in the cursor bucket, deeper
                // in the wheel, and past the horizon (overflow tier).
                let span = match kind % 3 {
                    0 => SLOT_NS * 4,
                    1 => horizon,
                    _ => horizon * 4,
                };
                let time = floor + raw % span;
                cal.push(time, reference.seq + 1);
                reference.push(time);
            } else {
                prop_assert_eq!(cal.peek_time(), reference.peek_time());
                let got = cal.pop();
                let want = reference.pop();
                prop_assert_eq!(got.as_ref().map(|&(t, s, item)| (t, s, item)),
                                want.map(|(t, s)| (t, s, s)));
                if let Some((t, _, _)) = got {
                    floor = t;
                }
            }
        }
        // Drain both completely: the tails must agree too.
        prop_assert_eq!(cal.len(), reference.heap.len());
        while let Some(want) = reference.pop() {
            prop_assert_eq!(cal.peek_time(), Some(want.0));
            let got = cal.pop();
            prop_assert_eq!(got, Some((want.0, want.1, want.1)));
        }
        prop_assert!(cal.is_empty());
    }
}

proptest! {
    /// The engine's real shape (DESIGN.md §10): every pop schedules
    /// successors relative to the popped time, 20–28 % of them into the
    /// slot being drained (the sorted cursor bucket, delay 0 included),
    /// ≈ 60 % 0.5–1 µs ahead, the rest below 8 µs, and a far-future
    /// minority (timers, fault schedules) past the wheel horizon that
    /// must migrate back from the overflow tier in order. A small
    /// population turns the wheel many times over; a large one keeps
    /// buckets dense.
    #[test]
    fn engine_shaped_churn_matches_reference_heap(seed in any::<u64>(), dense in any::<bool>()) {
        let horizon = NUM_SLOTS as u64 * SLOT_NS;
        let population = if dense { 4096 } else { 48 };
        let mut rng = seed | 1;
        let mut next = move || {
            // xorshift64
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut cal: CalendarQueue<u64> = CalendarQueue::new();
        let mut reference = RefHeap::new();
        let mut now = 0u64;
        let mut last_far = 0u64;
        for _ in 0..population {
            let t = next() % 8_000;
            cal.push(t, reference.seq + 1);
            reference.push(t);
        }
        for _ in 0..20_000 {
            // Peek only sometimes: it sorts the head bucket early, and
            // pop must not depend on that having happened.
            if next() % 4 == 0 {
                prop_assert_eq!(cal.peek_time(), reference.peek_time());
            }
            let got = cal.pop();
            prop_assert_eq!(got, reference.pop().map(|(t, s)| (t, s, s)));
            now = got.expect("population is kept up").0;
            // Successors: usually one, sometimes none or two, steering
            // the population back to its target.
            let successors = match cal.len().cmp(&population) {
                std::cmp::Ordering::Less => 1 + next() % 2,
                std::cmp::Ordering::Equal => 1,
                std::cmp::Ordering::Greater => next() % 2,
            };
            for _ in 0..successors {
                let delay = match next() % 100 {
                    0..=3 => 0,
                    4..=24 => next() % (SLOT_NS - now % SLOT_NS),
                    25..=84 => 500 + next() % 500,
                    85..=97 => next() % 8_000,
                    _ => {
                        last_far = now + horizon + next() % (3 * horizon);
                        last_far - now
                    }
                };
                cal.push(now + delay, reference.seq + 1);
                reference.push(now + delay);
            }
        }
        // The run turned the wheel (sparse) or filled buckets (dense),
        // and far-future events came back through the overflow tier.
        prop_assert!(dense || now > 8 * horizon, "only {} wheel turns", now / horizon);
        prop_assert!(last_far > horizon);
        prop_assert_eq!(cal.len(), reference.heap.len());
        while let Some((t, s)) = reference.pop() {
            prop_assert_eq!(cal.pop(), Some((t, s, s)));
        }
        prop_assert!(cal.is_empty());
    }
}

proptest! {
    /// The same-instant lane against the reference heap. Every round
    /// pops once and then pushes at the popped time — zero-delay pushes
    /// between pops — while other events of that very nanosecond, pushed
    /// before the clock got there, are still in the wheel: they must pop
    /// before the lane's, the lane's in push order, and `peek_time` (which
    /// answers from the lane without consuming it) must agree throughout.
    /// The run starts with pushes at time 0 before any pop, and
    /// `wrap_burst` makes one instant's burst cross the wheel horizon, so
    /// that the lane drains while the overflow tier refills the ring.
    #[test]
    fn same_instant_pushes_match_reference_heap(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u64>()), 1..300),
        wrap_burst in any::<bool>(),
    ) {
        let horizon = NUM_SLOTS as u64 * SLOT_NS;
        let mut cal: CalendarQueue<u64> = CalendarQueue::new();
        let mut reference = RefHeap::new();
        let push = |cal: &mut CalendarQueue<u64>, reference: &mut RefHeap, time: u64| {
            cal.push(time, reference.seq + 1);
            reference.push(time);
        };
        // Before the first pop the clock stands at 0: these are lane
        // pushes, interleaved with wheel pushes.
        for i in 0..4 {
            push(&mut cal, &mut reference, 0);
            push(&mut cal, &mut reference, 100 + i);
        }
        for (zero_delay, clones, raw) in ops {
            prop_assert_eq!(cal.peek_time(), reference.peek_time());
            let got = cal.pop();
            prop_assert_eq!(got, reference.pop().map(|(t, s)| (t, s, s)));
            let Some((now, _, _)) = got else { break };
            // Later events, a few of them sharing one future nanosecond:
            // when the clock gets there they are the wheel's events "at
            // now" that the lane's must follow.
            let ahead = now + 1 + raw % (2 * SLOT_NS);
            for _ in 0..1 + clones % 3 {
                push(&mut cal, &mut reference, ahead);
            }
            // Fewer than one per pop on average, or the clock never
            // leaves the instant.
            let zero_delays = match zero_delay % 8 {
                0..=4 => 0,
                5 | 6 => 1,
                _ => 3,
            };
            for _ in 0..zero_delays {
                push(&mut cal, &mut reference, now);
            }
            if raw % 5 == 0 {
                // A peek between lane pushes must not disturb them.
                prop_assert_eq!(cal.peek_time(), reference.peek_time());
                push(&mut cal, &mut reference, now);
            }
            if wrap_burst && raw % 7 == 0 {
                for i in 0..NUM_SLOTS as u64 + 8 {
                    push(&mut cal, &mut reference, now + i * SLOT_NS);
                }
                push(&mut cal, &mut reference, now + 3 * horizon);
            }
        }
        prop_assert_eq!(cal.len(), reference.heap.len());
        while let Some((t, s)) = reference.pop() {
            prop_assert_eq!(cal.peek_time(), Some(t));
            prop_assert_eq!(cal.pop(), Some((t, s, s)));
        }
        prop_assert!(cal.is_empty());
    }
}

/// A bucket a peek sorted and the cursor then left behind. The peek puts
/// slot S in pop order (descending); a push into an earlier slot moves
/// the cursor there, that slot pops, and more events of S's instants
/// arrive. S must still pop in `(time, seq)` order: the pass that orders
/// it by time relies on each instant's events being in push order, which
/// the sorted bucket had reversed. Once with S in time order when the
/// cursor comes back (only reversed), once out of order (the counting
/// pass).
#[test]
fn a_bucket_left_behind_by_the_cursor_pops_in_seq_order() {
    for (before, after) in [(3, 0), (12, 24)] {
        let mut cal: CalendarQueue<u64> = CalendarQueue::new();
        let mut reference = RefHeap::new();
        let push = |cal: &mut CalendarQueue<u64>, reference: &mut RefHeap, time: u64| {
            cal.push(time, reference.seq + 1);
            reference.push(time);
        };
        // Two instants of slot S, alternating.
        let s = 10 * SLOT_NS;
        let instant = |i: u64| s + 10 + 10 * (i % 2);
        for i in 0..before {
            push(&mut cal, &mut reference, instant(i));
        }
        assert_eq!(cal.peek_time(), Some(s + 10));
        push(&mut cal, &mut reference, SLOT_NS + 5);
        assert_eq!(cal.pop(), reference.pop().map(|(t, seq)| (t, seq, seq)));
        for i in 0..after {
            push(&mut cal, &mut reference, instant(i));
        }
        while let Some((t, seq)) = reference.pop() {
            assert_eq!(cal.pop(), Some((t, seq, seq)), "{before} + {after} events in S");
        }
        assert!(cal.is_empty());
    }
}

/// An event pushed at `now` pops after an event of the same nanosecond
/// that was already queued — whichever structure either sits in.
#[test]
fn a_push_at_now_pops_after_the_same_instant_event_queued_before_it() {
    let mut q: CalendarQueue<&str> = CalendarQueue::new();
    q.push(500, "first");
    q.push(500, "queued before");
    q.push(501, "later");
    assert_eq!(q.pop(), Some((500, 1, "first")));
    q.push(500, "pushed at now");
    assert_eq!(q.len(), 3);
    assert_eq!(q.peek_time(), Some(500));
    assert_eq!(q.pop(), Some((500, 2, "queued before")));
    q.push(500, "pushed at now, second");
    assert_eq!(q.pop(), Some((500, 4, "pushed at now")));
    assert_eq!(q.pop(), Some((500, 5, "pushed at now, second")));
    assert_eq!(q.pop(), Some((501, 3, "later")));
    assert_eq!(q.pop(), None);
}
