//! What the four §7.3 applications share: a client's in-flight table, the
//! hold-back queue the host tick drains, the server-CPU model and the
//! `[tag u8][id u64]` frame header of their plain-RPC messages.
//!
//! Every walk over these tables goes in id or queue order, so a run
//! repeats.

use crate::metrics::TxnRecord;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use onepipe_core::simhost::SendQueue;
use onepipe_types::ids::ProcessId;
use std::collections::BTreeMap;

/// Start a frame with its `[tag u8][id u64]` header; the caller appends
/// the body.
pub(crate) fn frame(tag: u8, id: u64) -> BytesMut {
    let mut b = BytesMut::new();
    b.put_u8(tag);
    b.put_u64(id);
    b
}

/// Split a frame into `(tag, id, body)`, or `None` when it is too short
/// to hold the header.
pub(crate) fn read_frame(payload: &Bytes) -> Option<(u8, u64, Bytes)> {
    if payload.len() < 9 {
        return None;
    }
    let mut p = payload.clone();
    Some((p.get_u8(), p.get_u64(), p))
}

/// One operation in flight.
#[derive(Debug)]
pub(crate) struct Op<T> {
    /// The process that issued it.
    pub client: ProcessId,
    /// [`TxnRecord::kind`].
    pub kind: u8,
    pub start: u64,
    /// When the current attempt went out.
    pub issued_at: u64,
    pub retries: u32,
    /// Replies the current phase still waits for.
    pub awaiting: usize,
    /// The application's own state.
    pub state: T,
}

/// Operations in flight, keyed by id in an ordered map, with each client's
/// count of open operations for the closed loop.
pub(crate) struct Inflight<T> {
    ops: BTreeMap<u64, Op<T>>,
    last_id: u64,
    outstanding: Vec<usize>,
}

impl<T> Inflight<T> {
    pub fn new() -> Self {
        Inflight { ops: BTreeMap::new(), last_id: 0, outstanding: Vec::new() }
    }

    /// Open an operation of `client`'s at `now`, awaiting `awaiting`
    /// replies, and return its id; ids count from 1.
    pub fn open(
        &mut self,
        now: u64,
        client: ProcessId,
        kind: u8,
        awaiting: usize,
        state: T,
    ) -> u64 {
        self.last_id += 1;
        let c = client.0 as usize;
        if self.outstanding.len() <= c {
            self.outstanding.resize(c + 1, 0);
        }
        self.outstanding[c] += 1;
        let op = Op { client, kind, start: now, issued_at: now, retries: 0, awaiting, state };
        self.ops.insert(self.last_id, op);
        self.last_id
    }

    /// Wait for `awaiting` acks under another table's id, counted against
    /// no client's pipeline: a primary waiting for its backups before it
    /// answers `client`. [`Inflight::remove`] ends the wait.
    pub fn wait(&mut self, id: u64, client: ProcessId, awaiting: usize, state: T) {
        let op = Op { client, kind: 0, start: 0, issued_at: 0, retries: 0, awaiting, state };
        self.ops.insert(id, op);
    }

    pub fn get(&self, id: u64) -> Option<&Op<T>> {
        self.ops.get(&id)
    }

    pub fn get_mut(&mut self, id: u64) -> Option<&mut Op<T>> {
        self.ops.get_mut(&id)
    }

    pub fn remove(&mut self, id: u64) -> Option<Op<T>> {
        self.ops.remove(&id)
    }

    /// Count one reply to `id`: `true` when it was the last one awaited,
    /// `false` for an unknown id.
    pub fn ack(&mut self, id: u64) -> bool {
        self.ops.get_mut(&id).is_some_and(|op| {
            op.awaiting = op.awaiting.saturating_sub(1);
            op.awaiting == 0
        })
    }

    /// Finish `id` at `now`: free its client's pipeline slot and record it
    /// in `done`.
    pub fn complete(&mut self, now: u64, id: u64, done: &mut Vec<TxnRecord>) -> Option<Op<T>> {
        let op = self.ops.remove(&id)?;
        self.outstanding[op.client.0 as usize] -= 1;
        done.push(TxnRecord { start: op.start, end: now, kind: op.kind, retries: op.retries });
        Some(op)
    }

    /// The operations to start to bring each of `clients` (the ticking
    /// host's) up to `pipeline` open operations: one entry per operation,
    /// client by client.
    pub fn refill(
        &self,
        clients: impl IntoIterator<Item = ProcessId>,
        pipeline: usize,
    ) -> Vec<ProcessId> {
        let open = |p: ProcessId| self.outstanding.get(p.0 as usize).copied().unwrap_or(0);
        clients
            .into_iter()
            .flat_map(|p| std::iter::repeat_n(p, pipeline.saturating_sub(open(p))))
            .collect()
    }

    /// The ids, in order, of the operations of `procs`' clients whose
    /// attempt went out more than `timeout` before `now` and that `retry`
    /// picks; each counts one more retry.
    pub fn time_out(
        &mut self,
        now: u64,
        timeout: u64,
        procs: &[ProcessId],
        retry: impl Fn(&Op<T>) -> bool,
    ) -> Vec<u64> {
        let stale = |op: &Op<T>| {
            procs.contains(&op.client) && now.saturating_sub(op.issued_at) > timeout && retry(op)
        };
        let mut ids = Vec::new();
        for (&id, op) in self.ops.iter_mut().filter(|(_, op)| stale(op)) {
            op.retries += 1;
            ids.push(id);
        }
        ids
    }
}

/// Items held back until a due time, each owned by one process.
pub(crate) struct HoldBack<I> {
    items: Vec<(u64, ProcessId, I)>,
}

impl<I> HoldBack<I> {
    pub fn new() -> Self {
        HoldBack { items: Vec::new() }
    }

    pub fn push(&mut self, due: u64, owner: ProcessId, item: I) {
        self.items.push((due, owner, item));
    }

    /// Take out the items due by `now` whose owner runs on the ticking host
    /// (`procs`), as `(owner, item)` in the order they were queued.
    pub fn release(&mut self, now: u64, procs: &[ProcessId]) -> Vec<(ProcessId, I)> {
        self.items
            .extract_if(.., |(due, owner, _)| *due <= now && procs.contains(owner))
            .map(|(_, owner, item)| (owner, item))
            .collect()
    }
}

/// The server-CPU model: each request costs its server `op_ns` of CPU, one
/// request after another, and the reply leaves when that CPU time has run
/// (at once when `op_ns` is 0).
pub(crate) struct ServerCpu {
    op_ns: u64,
    busy_until: BTreeMap<ProcessId, u64>,
    replies: HoldBack<(ProcessId, Bytes)>,
}

impl ServerCpu {
    pub fn new(op_ns: u64) -> Self {
        ServerCpu { op_ns, busy_until: BTreeMap::new(), replies: HoldBack::new() }
    }

    /// Reply `from` → `to` once `from`'s CPU has served one more request.
    pub fn reply(
        &mut self,
        now: u64,
        from: ProcessId,
        to: ProcessId,
        payload: impl Into<Bytes>,
        out: &mut SendQueue,
    ) {
        if self.op_ns == 0 {
            out.push_raw(from, to, payload);
            return;
        }
        let busy = self.busy_until.entry(from).or_insert(0);
        *busy = (*busy).max(now) + self.op_ns;
        self.replies.push(*busy, from, (to, payload.into()));
    }

    /// Send the replies of the ticking host's servers whose CPU time ran.
    pub fn release(&mut self, now: u64, procs: &[ProcessId], out: &mut SendQueue) {
        for (from, (to, payload)) in self.replies.release(now, procs) {
            out.push_raw(from, to, payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ProcessId = ProcessId(0);
    const B: ProcessId = ProcessId(1);
    const C: ProcessId = ProcessId(2);

    #[test]
    fn frames_round_trip_and_short_ones_are_refused() {
        let mut b = frame(7, 0x0102_0304_0506_0708);
        b.put_u16(9);
        let (tag, id, mut rest) = read_frame(&b.freeze()).unwrap();
        assert_eq!((tag, id, rest.get_u16(), rest.len()), (7, 0x0102_0304_0506_0708, 9, 0));
        assert!(read_frame(&Bytes::from(vec![7u8; 8])).is_none());
    }

    #[test]
    fn refill_stops_at_pipeline_and_touches_only_the_given_clients() {
        let mut t = Inflight::new();
        assert_eq!(t.open(0, A, 0, 0, ()), 1, "ids count from 1");
        assert_eq!(t.open(0, A, 0, 0, ()), 2);
        t.open(0, C, 0, 0, ());
        // A is at 2 of 3, B has none open; C runs on another host.
        assert_eq!(t.refill([A, B], 3), vec![A, B, B, B]);
        t.open(0, A, 0, 0, ());
        assert_eq!(t.refill([A], 3), vec![]);
        assert_eq!(t.refill([A], 2), vec![], "over the pipeline starts nothing");
    }

    #[test]
    fn ack_counts_down_to_the_last_awaited_reply() {
        let mut t = Inflight::new();
        let id = t.open(5, A, 3, 2, ());
        assert!(!t.ack(99), "an unknown id");
        assert!(!t.ack(id));
        assert!(t.ack(id), "the last awaited ack");
        let mut done = Vec::new();
        assert!(t.complete(9, id, &mut done).is_some());
        assert!(!t.ack(id), "a completed id is unknown");
        assert_eq!((done[0].start, done[0].end, done[0].kind), (5, 9, 3));
        assert_eq!(t.refill([A], 1), vec![A], "completion frees the slot");
    }

    #[test]
    fn time_out_lists_stale_local_ids_in_order_and_counts_a_retry() {
        let mut t = Inflight::new();
        for (now, client) in [(0, B), (0, A), (50, A), (0, C), (0, A)] {
            t.open(now, client, 0, 0, ());
        }
        assert_eq!(t.time_out(100, 60, &[A, B], |op| op.client != B), vec![2, 5]);
        assert_eq!((t.get(2).unwrap().retries, t.get(1).unwrap().retries), (1, 0));
    }

    #[test]
    fn hold_back_releases_only_the_hosts_due_items_in_queue_order() {
        let mut q = HoldBack::new();
        q.push(30, A, "a30");
        q.push(10, B, "b10");
        q.push(20, A, "a20");
        q.push(50, A, "a50");
        q.push(5, C, "c5");
        assert_eq!(q.release(40, &[A, B]), vec![(A, "a30"), (B, "b10"), (A, "a20")]);
        assert_eq!(q.release(40, &[A, B]), vec![]);
        assert_eq!(q.release(60, &[C, A]), vec![(A, "a50"), (C, "c5")]);
    }

    #[test]
    fn server_cpu_serves_one_request_after_another() {
        let mut out = SendQueue::default();
        let mut cpu = ServerCpu::new(100);
        cpu.reply(0, A, C, Bytes::from(vec![1]), &mut out);
        cpu.reply(50, A, C, Bytes::from(vec![2]), &mut out);
        cpu.reply(50, B, C, Bytes::from(vec![3]), &mut out);
        assert!(out.is_empty());
        cpu.release(150, &[A, B], &mut out);
        let sent: Vec<u8> = out.raw.iter().map(|(_, _, p)| p[0]).collect();
        assert_eq!(sent, vec![1, 3], "A's second request waits for its first");
        let mut now = SendQueue::default();
        ServerCpu::new(0).reply(0, A, C, Bytes::from(vec![4]), &mut now);
        assert_eq!(now.raw.len(), 1, "no CPU model: the reply leaves at once");
    }
}
