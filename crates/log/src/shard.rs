//! Shard-local log state: per-stream record logs fed through the
//! per-client sequence gates.
//!
//! A `ShardState` is a pure, transport-free state machine: feed it
//! append batches in the order the transport delivered them and it
//! produces, per stream, the canonical record sequence. Because 1Pipe
//! delivers every replica of a stream the same total order, two replicas
//! driven by the same deliveries converge on identical logs — which is
//! exactly what the cross-transport conformance test and the chaos
//! oracle check.
//!
//! Streams, and each stream's client gates, are dense tables indexed by
//! id: an append costs two index operations and, in order, no search.

use crate::gate::{ClientGate, Offered};
use bytes::Bytes;
use onepipe_apps::metrics::TenantTable;
use std::ops::Range;

/// One appended record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Position in the stream's log (0-based, dense).
    pub offset: u64,
    /// Submitting client (process index).
    pub client: u32,
    /// The client's batch sequence number.
    pub seq: u64,
    /// Batch payload.
    pub payload: Bytes,
}

/// One tenant's stream: the record log plus per-client gates.
#[derive(Default)]
pub struct StreamLog {
    /// Appended records, index == offset.
    pub records: Vec<Record>,
    /// Gates indexed by client; empty until a batch reaches the stream.
    gates: Vec<ClientGate>,
    /// Batches held behind a gap, summed over `gates`.
    held: usize,
}

impl StreamLog {
    /// Total held-for-gap depth across this stream's clients.
    pub fn held_len(&self) -> usize {
        self.held
    }

    /// Cumulative released sequence frontier for `client` (next expected).
    pub fn next_seq(&self, client: u32) -> u64 {
        self.gates.get(client as usize).map_or(0, |g| g.next_seq())
    }

    /// Some batch reached this stream (each one opens its client's gate).
    fn reached(&self) -> bool {
        !self.gates.is_empty()
    }
}

/// What one applied batch did to the shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Applied {
    /// Offsets newly appended (empty when held or duplicate).
    pub appended: Range<u64>,
    /// The batch was a duplicate and was dropped.
    pub duplicate: bool,
    /// The batch is parked behind a sequence gap.
    pub held: bool,
    /// Next expected sequence for the submitting client after this batch
    /// (cumulative ack the server can return).
    pub next_seq: u64,
}

/// All streams hosted by one shard replica.
#[derive(Default)]
pub struct ShardState {
    /// Indexed by stream id; a stream no batch reached is an empty slot.
    streams: Vec<StreamLog>,
    /// Per-tenant counters (appends, bytes, dup drops, held depth).
    pub tenants: TenantTable,
}

/// `v[i]`, growing `v` with defaults first if it is shorter.
fn slot<T: Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if i >= v.len() {
        v.resize_with(i + 1, T::default);
    }
    &mut v[i]
}

impl ShardState {
    /// Empty shard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply one delivered append batch.
    ///
    /// The stream and gate tables are indexed by id, so memory grows
    /// with the largest `stream` and `client` this is ever given, not
    /// with how many are in use: callers bound both (the service drops
    /// ids outside its `LogConfig` before they get here).
    pub fn apply(&mut self, stream: u64, client: u32, seq: u64, payload: Bytes) -> Applied {
        let s = slot(&mut self.streams, stream as usize);
        let gate = slot(&mut s.gates, client as usize);
        let held_before = gate.held_len();
        let outcome = gate.offer(seq, payload);
        let next_seq = gate.next_seq();
        s.held = s.held + gate.held_len() - held_before;
        let t = self.tenants.tenant(stream);
        t.set_held(s.held as u64);
        let start = s.records.len() as u64;
        match outcome {
            Offered::Released(run) => {
                for (rseq, payload) in run {
                    t.appends += 1;
                    t.bytes += payload.len() as u64;
                    let offset = s.records.len() as u64;
                    s.records.push(Record { offset, client, seq: rseq, payload });
                }
                let appended = start..s.records.len() as u64;
                Applied { appended, duplicate: false, held: false, next_seq }
            }
            Offered::Held => {
                Applied { appended: start..start, duplicate: false, held: true, next_seq }
            }
            Offered::Duplicate => {
                t.dup_drops += 1;
                Applied { appended: start..start, duplicate: true, held: false, next_seq }
            }
        }
    }

    /// The stream's log, if any batch ever reached it.
    pub fn stream(&self, stream: u64) -> Option<&StreamLog> {
        self.streams.get(stream as usize).filter(|s| s.reached())
    }

    /// Records `[from, to)` of a stream (clamped), for snapshot chunks.
    pub fn range(&self, stream: u64, from: u64, to: u64) -> &[Record] {
        match self.stream(stream) {
            None => &[],
            Some(s) => {
                let len = s.records.len() as u64;
                let from = from.min(len) as usize;
                let to = to.min(len) as usize;
                &s.records[from..to]
            }
        }
    }

    /// Current log length of a stream.
    pub fn len(&self, stream: u64) -> u64 {
        self.stream(stream).map_or(0, |s| s.records.len() as u64)
    }

    /// True when no stream holds any record.
    pub fn is_empty(&self) -> bool {
        self.streams.iter().all(|s| s.records.is_empty())
    }

    /// Iterate `(stream, log)` in stream order over the streams any
    /// batch reached.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &StreamLog)> {
        (0u64..).zip(&self.streams).filter(|(_, s)| s.reached())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by(n: u8) -> Bytes {
        Bytes::from(vec![n; 4])
    }

    #[test]
    fn appends_are_dense_and_gated() {
        let mut s = ShardState::new();
        let a = s.apply(7, 1, 0, by(0));
        assert_eq!(a.appended, 0..1);
        // Gap: seq 2 held.
        let a = s.apply(7, 1, 2, by(2));
        assert!(a.held && a.appended.is_empty());
        assert_eq!(s.tenants.get(7).unwrap().held_peak, 1);
        assert_eq!(s.stream(7).unwrap().held_len(), 1);
        // Filling seq 1 releases both.
        let a = s.apply(7, 1, 1, by(1));
        assert_eq!(a.appended, 1..3);
        assert_eq!(a.next_seq, 3);
        assert_eq!(s.stream(7).unwrap().held_len(), 0);
        // Interleaved client on the same stream appends after.
        let a = s.apply(7, 2, 0, by(9));
        assert_eq!(a.appended, 3..4);
        let seqs: Vec<(u32, u64)> =
            s.stream(7).unwrap().records.iter().map(|r| (r.client, r.seq)).collect();
        assert_eq!(seqs, vec![(1, 0), (1, 1), (1, 2), (2, 0)]);
        assert_eq!(s.len(7), 4);
    }

    #[test]
    fn duplicate_counts_and_acks_cumulative() {
        let mut s = ShardState::new();
        s.apply(3, 0, 0, by(0));
        let a = s.apply(3, 0, 0, by(0));
        assert!(a.duplicate);
        assert_eq!(a.next_seq, 1, "cumulative frontier still reported");
        assert_eq!(s.tenants.get(3).unwrap().dup_drops, 1);
        assert_eq!(s.tenants.get(3).unwrap().appends, 1);
    }

    #[test]
    fn range_clamps() {
        let mut s = ShardState::new();
        for i in 0..5 {
            s.apply(1, 0, i, by(i as u8));
        }
        assert_eq!(s.range(1, 2, 4).len(), 2);
        assert_eq!(s.range(1, 4, 99).len(), 1);
        assert_eq!(s.range(2, 0, 10).len(), 0);
    }

    #[test]
    fn held_depth_sums_clients_and_iter_skips_unreached_streams() {
        let mut s = ShardState::new();
        // Two clients each park one batch on stream 5; a batch that is
        // only held still counts as reaching the stream.
        s.apply(5, 0, 1, by(1));
        s.apply(5, 3, 2, by(2));
        s.apply(5, 3, 2, by(2)); // a second copy of a held seq
        assert_eq!(s.stream(5).unwrap().held_len(), 2);
        assert_eq!(s.tenants.get(5).unwrap().held, 2);
        s.apply(5, 0, 0, by(0));
        assert_eq!(s.stream(5).unwrap().held_len(), 1);
        assert_eq!(s.stream(5).unwrap().next_seq(0), 2);
        assert_eq!(s.stream(5).unwrap().next_seq(1), 0, "a client that never sent");
        s.apply(2, 0, 0, by(0));
        // Streams 0, 1, 3 and 4 are slots below the largest id, not logs.
        let reached: Vec<u64> = s.iter().map(|(id, _)| id).collect();
        assert_eq!(reached, vec![2, 5]);
        assert!(s.stream(3).is_none() && s.stream(99).is_none());
        assert_eq!(s.tenants.len(), 2);
    }
}
