//! The receive-side reorder buffer.
//!
//! Arriving fragments are buffered in the order of their total-order key
//! `(timestamp, sender, seq)`; whole messages are released to the
//! application when the barrier passes them (paper §4.1: "it first buffers
//! the packet in a priority queue that sorts packets based on the message
//! timestamp ... it delivers all buffered packets with the message
//! timestamp below B").
//!
//! The paper's priority queue is one ring of messages in ascending key
//! order. Links are FIFO and every sender's timestamps only grow, so a
//! fragment almost always belongs at the back or a few places before it:
//! an insert scans back from the end, and a release pops the front. Both
//! are constant work for in-order arrivals; an arrival `d` places out of
//! order costs `d` comparisons and a shift of at most `d` entries
//! (DESIGN.md §10 has the displacement measured on the benchmark
//! workloads).
//!
//! Note on the key order: [`Timestamp`] ordering is PAWS-style ring
//! comparison, which is a valid total order only within half the 48-bit
//! ring (~39 hours). The reorder buffer only ever holds a few barrier
//! intervals' worth of messages (microseconds), so this is safe.

use crate::frag::START_OF_MESSAGE;
use bytes::{Bytes, BytesMut};
use onepipe_types::ids::ProcessId;
use onepipe_types::message::{Delivered, OrderKey};
use onepipe_types::time::Timestamp;
use onepipe_types::wire::Flags;
use std::collections::VecDeque;

/// Identifies one message inside the buffer: total-order key + message
/// index within the scattering (a scattering may contain several messages
/// for the same receiver).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct MsgKey {
    /// Scattering-level total-order key.
    pub key: OrderKey,
    /// Message index within the scattering (per receiver).
    pub midx: u16,
}

/// The fragments of one message received so far.
#[derive(Debug, Default)]
enum Frags {
    #[default]
    None,
    /// One fragment — every message that fits the MTU stays here, so it
    /// costs no slot vector and is delivered without a reassembly copy.
    One(Bytes),
    /// Fragments of one message carry consecutive PSNs, so they live in a
    /// contiguous slot vector anchored at `base_psn` (`None` marks a gap)
    /// rather than a per-fragment tree.
    Many(Vec<Option<Bytes>>),
}

/// A partially assembled message.
#[derive(Debug, Default)]
struct PendingMsg {
    /// Application bytes of the fragments, prefix already stripped.
    frags: Frags,
    /// PSN of the first stored slot. Meaningless while `frags` is `None`.
    base_psn: u32,
    /// Number of distinct fragments received.
    received: usize,
    start_psn: Option<u32>,
    end_psn: Option<u32>,
    bytes: usize,
}

impl PendingMsg {
    /// Store one fragment; returns `false` on a duplicate PSN.
    fn insert(&mut self, psn: u32, data: Bytes) -> bool {
        match std::mem::take(&mut self.frags) {
            Frags::None => {
                self.frags = Frags::One(data);
                self.base_psn = psn;
                self.received = 1;
                return true;
            }
            Frags::One(first) if psn == self.base_psn => {
                self.frags = Frags::One(first);
                return false;
            }
            // A second fragment: from here on the message has slots.
            Frags::One(first) => self.frags = Frags::Many(vec![Some(first)]),
            many => self.frags = many,
        }
        let Frags::Many(slots) = &mut self.frags else { unreachable!("promoted above") };
        let off = psn.wrapping_sub(self.base_psn);
        if off >= 1 << 31 {
            // PSN precedes the anchor (fragments arrived out of order):
            // rebase by prepending gap slots. Rare — bounded by one
            // message's fragment count.
            let shift = self.base_psn.wrapping_sub(psn) as usize;
            let mut v = Vec::with_capacity(slots.len() + shift);
            v.push(Some(data));
            v.extend(std::iter::repeat_with(|| None).take(shift - 1));
            v.append(slots);
            *slots = v;
            self.base_psn = psn;
            self.received += 1;
            return true;
        }
        let off = off as usize;
        if off >= slots.len() {
            slots.resize_with(off + 1, || None);
        }
        if slots[off].is_some() {
            return false;
        }
        slots[off] = Some(data);
        self.received += 1;
        true
    }

    fn is_complete(&self) -> bool {
        match (self.start_psn, self.end_psn) {
            (Some(s), Some(e)) => e.wrapping_sub(s) as usize + 1 == self.received,
            _ => false,
        }
    }

    fn assemble(self) -> Bytes {
        match self.frags {
            Frags::None => Bytes::new(),
            Frags::One(only) => only,
            Frags::Many(slots) => {
                let mut buf = BytesMut::with_capacity(self.bytes);
                for frag in slots.into_iter().flatten() {
                    buf.extend_from_slice(&frag);
                }
                buf.freeze()
            }
        }
    }

    fn any_psn(&self) -> u32 {
        match &self.frags {
            Frags::None => 0,
            Frags::One(_) => self.base_psn,
            Frags::Many(slots) => {
                let first = slots.iter().position(|f| f.is_some()).unwrap_or(0);
                self.base_psn.wrapping_add(first as u32)
            }
        }
    }
}

/// Outcome of inserting a fragment.
#[derive(Debug, PartialEq, Eq)]
pub enum Insert {
    /// Buffered, waiting for the barrier (or for more fragments).
    Buffered,
    /// The fragment's timestamp is at or below the delivered edge — it
    /// arrived too late (out-of-FIFO or retransmitted after delivery).
    Late,
    /// Unordered mode only: the message completed and is delivered now.
    Ready(Delivered),
}

/// A message that the barrier passed while it was still incomplete —
/// fragments were lost. Reported so the receiver can NAK the sender.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedMsg {
    /// Which message.
    pub key: MsgKey,
    /// A PSN belonging to it (for the NAK).
    pub psn: u32,
}

/// The reorder buffer of one service channel on one endpoint.
#[derive(Debug)]
pub struct ReorderBuffer {
    /// Buffered messages, keys strictly ascending.
    pending: VecDeque<(MsgKey, PendingMsg)>,
    /// Barrier edge below (or at, if `inclusive`) which everything was
    /// already delivered or discarded.
    edge: Timestamp,
    /// Reliable channel delivers `ts ≤ barrier`; best-effort `ts < barrier`.
    inclusive: bool,
    /// Deliver immediately on completion (baseline mode).
    unordered: bool,
    bytes: usize,
    /// High-water mark of buffered bytes (Figure 11 memory accounting).
    pub max_bytes: usize,
}

impl ReorderBuffer {
    /// Create a buffer. `inclusive` selects the reliable-channel delivery
    /// rule (`ts ≤ barrier`).
    pub fn new(inclusive: bool, unordered: bool) -> Self {
        ReorderBuffer {
            pending: VecDeque::new(),
            edge: Timestamp::ZERO,
            inclusive,
            unordered,
            bytes: 0,
            max_bytes: 0,
        }
    }

    /// Current buffered bytes.
    pub fn buffered_bytes(&self) -> usize {
        self.bytes
    }

    /// Number of buffered (in-progress) messages.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// The delivered edge.
    pub fn edge(&self) -> Timestamp {
        self.edge
    }

    fn is_late(&self, ts: Timestamp) -> bool {
        if self.edge == Timestamp::ZERO {
            return false; // nothing delivered yet
        }
        if self.inclusive {
            ts <= self.edge
        } else {
            ts < self.edge
        }
    }

    /// Insert one fragment.
    pub fn insert_fragment(
        &mut self,
        key: OrderKey,
        midx: u16,
        psn: u32,
        flags: Flags,
        data: Bytes,
    ) -> Insert {
        if self.is_late(key.ts) {
            return Insert::Late;
        }
        let mk = MsgKey { key, midx };
        // The last entry at or below `mk`: `mk` itself, or its predecessor.
        let at = match self.pending.iter().rposition(|(k, _)| *k <= mk) {
            Some(i) if self.pending[i].0 == mk => i,
            below => {
                let i = below.map_or(0, |i| i + 1);
                self.pending.insert(i, (mk, PendingMsg::default()));
                i
            }
        };
        let entry = &mut self.pending[at].1;
        if flags.contains(START_OF_MESSAGE) {
            entry.start_psn = Some(psn);
        }
        if flags.contains(Flags::END_OF_MESSAGE) {
            entry.end_psn = Some(psn);
        }
        // Duplicate detection happens inside `insert`, so the payload is
        // moved in (refcount-free) rather than cloned up front.
        let len = data.len();
        if entry.insert(psn, data) {
            entry.bytes += len;
            self.bytes += len;
            self.max_bytes = self.max_bytes.max(self.bytes);
        }
        if self.unordered && entry.is_complete() {
            let (_, msg) = self.pending.remove(at).expect("`at` was just looked up");
            self.bytes -= msg.bytes;
            return Insert::Ready(Delivered {
                ts: key.ts,
                src: key.sender,
                seq: key.seq,
                payload: msg.assemble(),
            });
        }
        Insert::Buffered
    }

    /// Advance the barrier: hand every complete message the barrier passed
    /// to `sink` as `Ok`, in total order, and every incomplete one as
    /// `Err` (fragments were lost).
    pub fn advance_into(
        &mut self,
        barrier: Timestamp,
        mut sink: impl FnMut(Result<Delivered, FailedMsg>),
    ) {
        if self.unordered {
            return;
        }
        if barrier == Timestamp::ZERO || (self.edge != Timestamp::ZERO && barrier <= self.edge) {
            return;
        }
        while let Some((mk, _)) = self.pending.front() {
            let passes = if self.inclusive { mk.key.ts <= barrier } else { mk.key.ts < barrier };
            if !passes {
                break;
            }
            let (mk, msg) = self.pending.pop_front().expect("front was just read");
            self.bytes -= msg.bytes;
            sink(if msg.is_complete() {
                Ok(Delivered {
                    ts: mk.key.ts,
                    src: mk.key.sender,
                    seq: mk.key.seq,
                    payload: msg.assemble(),
                })
            } else {
                Err(FailedMsg { key: mk, psn: msg.any_psn() })
            });
        }
        self.edge = barrier;
    }

    /// [`advance_into`](Self::advance_into), collected: `(delivered,
    /// failed)`.
    pub fn advance(&mut self, barrier: Timestamp) -> (Vec<Delivered>, Vec<FailedMsg>) {
        let mut delivered = Vec::new();
        let mut failed = Vec::new();
        self.advance_into(barrier, |outcome| match outcome {
            Ok(msg) => delivered.push(msg),
            Err(lost) => failed.push(lost),
        });
        (delivered, failed)
    }

    /// Failure Discard step (§5.2): drop buffered messages from `sender`
    /// with timestamps above its failure timestamp. Returns how many
    /// messages were discarded.
    pub fn discard_from(&mut self, sender: ProcessId, failure_ts: Timestamp) -> usize {
        self.discard(|k| k.sender == sender && k.ts > failure_ts)
    }

    /// Recall step: drop all buffered messages of one scattering. Returns
    /// whether anything was present.
    pub fn discard_scattering(&mut self, sender: ProcessId, ts: Timestamp, seq: u64) -> bool {
        self.discard(|k| k.sender == sender && k.ts == ts && k.seq == seq) > 0
    }

    /// Drop every buffered message whose scattering key matches; returns
    /// how many.
    fn discard(&mut self, doomed: impl Fn(&OrderKey) -> bool) -> usize {
        let before = self.pending.len();
        let bytes = &mut self.bytes;
        self.pending.retain(|(mk, msg)| {
            let drop = doomed(&mk.key);
            if drop {
                *bytes -= msg.bytes;
            }
            !drop
        });
        before - self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frag::{fragment_message, parse_fragment};

    fn key(ts: u64, sender: u32, seq: u64) -> OrderKey {
        OrderKey { ts: Timestamp::from_nanos(ts), sender: ProcessId(sender), seq }
    }

    fn both_flags() -> Flags {
        START_OF_MESSAGE | Flags::END_OF_MESSAGE
    }

    #[test]
    fn single_fragment_message_delivery() {
        let mut rb = ReorderBuffer::new(false, false);
        let r = rb.insert_fragment(key(100, 1, 0), 0, 0, both_flags(), Bytes::from_static(b"a"));
        assert_eq!(r, Insert::Buffered);
        // Barrier below: nothing yet.
        let (d, f) = rb.advance(Timestamp::from_nanos(100));
        assert!(d.is_empty() && f.is_empty()); // strict: ts < barrier
        let (d, f) = rb.advance(Timestamp::from_nanos(101));
        assert_eq!(d.len(), 1);
        assert!(f.is_empty());
        assert_eq!(d[0].payload, Bytes::from_static(b"a"));
        assert!(rb.is_empty());
    }

    #[test]
    fn inclusive_rule_for_reliable() {
        let mut rb = ReorderBuffer::new(true, false);
        rb.insert_fragment(key(100, 1, 0), 0, 0, both_flags(), Bytes::from_static(b"a"));
        let (d, _) = rb.advance(Timestamp::from_nanos(100));
        assert_eq!(d.len(), 1, "reliable delivers ts ≤ barrier");
    }

    #[test]
    fn total_order_across_senders() {
        let mut rb = ReorderBuffer::new(false, false);
        // Insert out of order.
        rb.insert_fragment(key(300, 1, 2), 0, 2, both_flags(), Bytes::from_static(b"c"));
        rb.insert_fragment(key(100, 2, 0), 0, 0, both_flags(), Bytes::from_static(b"a"));
        rb.insert_fragment(key(200, 1, 1), 0, 1, both_flags(), Bytes::from_static(b"b"));
        // Tie on ts: broken by sender id.
        rb.insert_fragment(key(200, 0, 5), 0, 9, both_flags(), Bytes::from_static(b"B"));
        let (d, _) = rb.advance(Timestamp::from_nanos(1_000));
        let payloads: Vec<&[u8]> = d.iter().map(|m| m.payload.as_ref()).collect();
        assert_eq!(payloads, vec![b"a".as_ref(), b"B", b"b", b"c"]);
    }

    #[test]
    fn multi_fragment_assembly_via_frag_module() {
        let mut rb = ReorderBuffer::new(false, false);
        let data = Bytes::from(vec![9u8; 2500]);
        let frags = fragment_message(7, 1, &data, 1000);
        // Deliver fragments out of order with consecutive PSNs 10,11,12.
        for (i, f) in frags.iter().enumerate().rev() {
            let (seq, midx, rest) = parse_fragment(f.payload.clone()).unwrap();
            assert_eq!(seq, 7);
            rb.insert_fragment(key(50, 3, seq), midx, 10 + i as u32, f.flags, rest);
        }
        let (d, f) = rb.advance(Timestamp::from_nanos(51));
        assert!(f.is_empty());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].payload.len(), 2500);
        assert_eq!(rb.buffered_bytes(), 0);
    }

    #[test]
    fn incomplete_message_reported_failed() {
        let mut rb = ReorderBuffer::new(false, false);
        // Two-fragment message, second fragment lost.
        rb.insert_fragment(key(10, 1, 0), 0, 5, START_OF_MESSAGE, Bytes::from_static(b"x"));
        let (d, f) = rb.advance(Timestamp::from_nanos(11));
        assert!(d.is_empty());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].psn, 5);
        assert!(rb.is_empty(), "failed message must be dropped");
    }

    #[test]
    fn late_arrival_detected() {
        let mut rb = ReorderBuffer::new(false, false);
        rb.insert_fragment(key(10, 1, 0), 0, 0, both_flags(), Bytes::from_static(b"a"));
        rb.advance(Timestamp::from_nanos(100));
        let r = rb.insert_fragment(key(50, 1, 1), 0, 1, both_flags(), Bytes::from_static(b"b"));
        assert_eq!(r, Insert::Late);
        // Exactly at the edge is fine for best-effort (strict rule).
        let r = rb.insert_fragment(key(100, 1, 2), 0, 2, both_flags(), Bytes::from_static(b"c"));
        assert_eq!(r, Insert::Buffered);
    }

    #[test]
    fn unordered_mode_delivers_immediately() {
        let mut rb = ReorderBuffer::new(false, true);
        let r = rb.insert_fragment(key(10, 1, 0), 0, 0, both_flags(), Bytes::from_static(b"a"));
        match r {
            Insert::Ready(d) => assert_eq!(d.payload, Bytes::from_static(b"a")),
            other => panic!("expected Ready, got {other:?}"),
        }
        // advance is a no-op in unordered mode.
        let (d, f) = rb.advance(Timestamp::from_nanos(999));
        assert!(d.is_empty() && f.is_empty());
    }

    #[test]
    fn duplicate_fragment_counted_once() {
        let mut rb = ReorderBuffer::new(true, false);
        let k = key(10, 1, 0);
        rb.insert_fragment(k, 0, 0, START_OF_MESSAGE, Bytes::from_static(b"ab"));
        rb.insert_fragment(k, 0, 0, START_OF_MESSAGE, Bytes::from_static(b"ab"));
        assert_eq!(rb.buffered_bytes(), 2);
        rb.insert_fragment(k, 0, 1, Flags::END_OF_MESSAGE, Bytes::from_static(b"cd"));
        let (d, _) = rb.advance(Timestamp::from_nanos(10));
        assert_eq!(d[0].payload, Bytes::from_static(b"abcd"));
    }

    #[test]
    fn same_scattering_multiple_messages_to_one_receiver() {
        let mut rb = ReorderBuffer::new(false, false);
        let k = key(10, 1, 0);
        rb.insert_fragment(k, 1, 1, both_flags(), Bytes::from_static(b"second"));
        rb.insert_fragment(k, 0, 0, both_flags(), Bytes::from_static(b"first"));
        let (d, _) = rb.advance(Timestamp::from_nanos(11));
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].payload, Bytes::from_static(b"first"));
        assert_eq!(d[1].payload, Bytes::from_static(b"second"));
    }

    #[test]
    fn discard_from_failed_sender() {
        let mut rb = ReorderBuffer::new(true, false);
        rb.insert_fragment(key(10, 1, 0), 0, 0, both_flags(), Bytes::from_static(b"keep"));
        rb.insert_fragment(key(20, 1, 1), 0, 1, both_flags(), Bytes::from_static(b"drop"));
        rb.insert_fragment(key(30, 2, 0), 0, 0, both_flags(), Bytes::from_static(b"other"));
        let n = rb.discard_from(ProcessId(1), Timestamp::from_nanos(10));
        assert_eq!(n, 1);
        let (d, _) = rb.advance(Timestamp::from_nanos(100));
        let payloads: Vec<&[u8]> = d.iter().map(|m| m.payload.as_ref()).collect();
        assert_eq!(payloads, vec![b"keep".as_ref(), b"other"]);
    }

    #[test]
    fn discard_scattering_by_id() {
        let mut rb = ReorderBuffer::new(true, false);
        let k = key(10, 1, 7);
        rb.insert_fragment(k, 0, 0, both_flags(), Bytes::from_static(b"m0"));
        rb.insert_fragment(k, 1, 1, both_flags(), Bytes::from_static(b"m1"));
        rb.insert_fragment(key(10, 1, 8), 0, 2, both_flags(), Bytes::from_static(b"keep"));
        assert!(rb.discard_scattering(ProcessId(1), Timestamp::from_nanos(10), 7));
        assert!(!rb.discard_scattering(ProcessId(1), Timestamp::from_nanos(10), 7));
        let (d, _) = rb.advance(Timestamp::from_nanos(100));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].payload, Bytes::from_static(b"keep"));
    }

    #[test]
    fn memory_high_water_mark() {
        let mut rb = ReorderBuffer::new(false, false);
        for i in 0..10 {
            rb.insert_fragment(
                key(10 + i, 1, i),
                0,
                i as u32,
                both_flags(),
                Bytes::from(vec![0u8; 100]),
            );
        }
        assert_eq!(rb.buffered_bytes(), 1000);
        rb.advance(Timestamp::from_nanos(100));
        assert_eq!(rb.buffered_bytes(), 0);
        assert_eq!(rb.max_bytes, 1000);
    }

    #[test]
    fn barrier_never_regresses() {
        let mut rb = ReorderBuffer::new(false, false);
        rb.advance(Timestamp::from_nanos(100));
        assert_eq!(rb.edge(), Timestamp::from_nanos(100));
        rb.advance(Timestamp::from_nanos(50));
        assert_eq!(rb.edge(), Timestamp::from_nanos(100));
    }
}
