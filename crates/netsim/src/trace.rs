//! Packet tracing: a bounded in-memory capture of packet arrivals, in the
//! spirit of smoltcp's pcap option — invaluable when debugging barrier
//! propagation ("which link did the stale barrier come from?").
//!
//! Attach a [`Tracer`] with [`Sim::set_tracer`]; every delivered packet is
//! recorded (after loss/drop filtering, i.e. what the receiving node
//! actually saw). The buffer is a ring: the newest `capacity` records win.
//! The simulator hands each record over as the arrival runs, so a trace
//! is in event order, and the filters below apply at that hand-over.
//!
//! [`Sim::set_tracer`]: crate::engine::Sim::set_tracer

use crate::engine::SimPacket;
use onepipe_types::ids::NodeId;
use onepipe_types::time::Timestamp;
use onepipe_types::wire::Opcode;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// One captured packet arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Arrival time (true ns).
    pub at: u64,
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Packet type.
    pub opcode: Opcode,
    /// Packet sequence number.
    pub psn: u32,
    /// Message timestamp field.
    pub msg_ts: Timestamp,
    /// Best-effort barrier field as received.
    pub barrier: Timestamp,
    /// Commit barrier field as received.
    pub commit_barrier: Timestamp,
    /// Bytes on the wire.
    pub wire_bytes: u64,
}

impl TraceRecord {
    /// The record of `pkt` arriving over `from → to` at time `at`.
    pub(crate) fn arrival(at: u64, from: NodeId, to: NodeId, pkt: &SimPacket) -> TraceRecord {
        let h = &pkt.dgram.header;
        TraceRecord {
            at,
            from,
            to,
            opcode: h.opcode,
            psn: h.psn,
            msg_ts: h.msg_ts,
            barrier: h.barrier,
            commit_barrier: h.commit_barrier,
            wire_bytes: pkt.wire_bytes,
        }
    }
}

/// A bounded ring buffer of [`TraceRecord`]s, shareable with the harness.
#[derive(Debug)]
pub struct Tracer {
    records: VecDeque<TraceRecord>,
    capacity: usize,
    /// Total records ever captured (including evicted ones).
    pub captured: u64,
    /// Restrict capture to one link (from, to), if set.
    pub link_filter: Option<(NodeId, NodeId)>,
    /// Restrict capture to one opcode, if set.
    pub opcode_filter: Option<Opcode>,
}

/// Shared handle to a tracer.
pub type TracerHandle = Rc<RefCell<Tracer>>;

impl Tracer {
    /// A tracer keeping the most recent `capacity` records.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            records: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            captured: 0,
            link_filter: None,
            opcode_filter: None,
        }
    }

    /// A shared tracer handle, ready for [`Sim::set_tracer`].
    ///
    /// [`Sim::set_tracer`]: crate::engine::Sim::set_tracer
    pub fn shared(capacity: usize) -> TracerHandle {
        Rc::new(RefCell::new(Tracer::new(capacity)))
    }

    /// Record one arrival (applies the filters).
    pub fn record(&mut self, rec: TraceRecord) {
        if let Some((f, t)) = self.link_filter {
            if rec.from != f || rec.to != t {
                return;
            }
        }
        if let Some(op) = self.opcode_filter {
            if rec.opcode != op {
                return;
            }
        }
        self.captured += 1;
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(rec);
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drop all retained records (counters keep running).
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Per-opcode counts over the retained window.
    pub fn histogram(&self) -> Vec<(Opcode, usize)> {
        let mut counts: std::collections::BTreeMap<u8, usize> = Default::default();
        for r in &self.records {
            *counts.entry(r.opcode as u8).or_default() += 1;
        }
        counts.into_iter().map(|(op, n)| (Opcode::from_u8(op).unwrap(), n)).collect()
    }

    /// Render the retained window as human-readable lines (for debugging
    /// and golden tests).
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&format!(
                "{:>12}ns {:?}->{:?} {:?} psn={} ts={} be={} commit={} {}B\n",
                r.at,
                r.from,
                r.to,
                r.opcode,
                r.psn,
                r.msg_ts.raw(),
                r.barrier.raw(),
                r.commit_barrier.raw(),
                r.wire_bytes
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at: u64, op: Opcode) -> TraceRecord {
        TraceRecord {
            at,
            from: NodeId(1),
            to: NodeId(2),
            opcode: op,
            psn: at as u32,
            msg_ts: Timestamp::from_nanos(at),
            barrier: Timestamp::ZERO,
            commit_barrier: Timestamp::ZERO,
            wire_bytes: 84,
        }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut t = Tracer::new(3);
        for i in 0..5 {
            t.record(rec(i, Opcode::Data));
        }
        assert_eq!(t.captured, 5);
        assert_eq!(t.len(), 3);
        let ats: Vec<u64> = t.records().map(|r| r.at).collect();
        assert_eq!(ats, vec![2, 3, 4]);
    }

    #[test]
    fn opcode_filter() {
        let mut t = Tracer::new(10);
        t.opcode_filter = Some(Opcode::Beacon);
        t.record(rec(1, Opcode::Data));
        t.record(rec(2, Opcode::Beacon));
        t.record(rec(3, Opcode::Ack));
        assert_eq!(t.len(), 1);
        assert_eq!(t.records().next().unwrap().opcode, Opcode::Beacon);
    }

    #[test]
    fn link_filter() {
        let mut t = Tracer::new(10);
        t.link_filter = Some((NodeId(1), NodeId(2)));
        t.record(rec(1, Opcode::Data));
        let mut other = rec(2, Opcode::Data);
        other.from = NodeId(9);
        t.record(other);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn histogram_and_dump() {
        let mut t = Tracer::new(10);
        t.record(rec(1, Opcode::Data));
        t.record(rec(2, Opcode::Data));
        t.record(rec(3, Opcode::Beacon));
        let h = t.histogram();
        assert_eq!(h, vec![(Opcode::Data, 2), (Opcode::Beacon, 1)]);
        let dump = t.dump();
        assert_eq!(dump.lines().count(), 3);
        assert!(dump.contains("Beacon"));
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.captured, 3);
    }
}
