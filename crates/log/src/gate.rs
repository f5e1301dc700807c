//! Sequence gate: hold-and-release gap enforcement.
//!
//! 1Pipe delivers every shard replica the same total order, but a
//! client's batches can still arrive with *sequence* gaps relative to the
//! client's own numbering — a resend overtaken by the original, a batch
//! recalled and retried after later batches, a duplicate from failover
//! retransmission. The gate restores the Embarcadero-style per-client
//! contract (SNIPPETS.md, Snippet 3): batches append in exactly
//! client-sequence order `0, 1, 2, …`, each exactly once. Subscribers
//! reuse it keyed by log offset, to apply raw-path record pushes and
//! replay chunks in offset order.
//!
//! Rules, applied to each offered `(seq, item)`:
//! * `seq <  expected` → duplicate: drop (and report, so the server can
//!   still acknowledge cumulative progress to unstick the sender).
//! * `seq == expected` → release it plus any directly following held
//!   items, in sequence order.
//! * `seq >  expected` → hold until the gap fills; offering the same held
//!   seq twice keeps the first item.
//!
//! The in-order case — nothing held, the expected seq arrives — touches
//! no heap: the released [`Run`] is the offered item plus an empty `Vec`.

use bytes::Bytes;
use std::collections::BTreeMap;
use std::iter::{Chain, Once};

/// Outcome of offering one item to the gate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Offered<T> {
    /// The item (and possibly held successors) released.
    Released(Run<T>),
    /// The item is ahead of a gap and parked.
    Held,
    /// The item was already released once; dropped.
    Duplicate,
}

/// A released run: `(seq, item)` in strictly increasing, contiguous
/// order — the offered item, then the held successors it unblocked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Run<T> {
    first: (u64, T),
    rest: Vec<(u64, T)>,
}

impl<T> IntoIterator for Run<T> {
    type Item = (u64, T);
    type IntoIter = Chain<Once<(u64, T)>, std::vec::IntoIter<(u64, T)>>;

    fn into_iter(self) -> Self::IntoIter {
        std::iter::once(self.first).chain(self.rest)
    }
}

/// Gap-enforcement state for one sequence space: a `(stream, client)`
/// pair's batches at a shard, or one stream's records at a subscriber.
#[derive(Clone, Debug)]
pub struct ClientGate<T = Bytes> {
    /// Next sequence eligible for release.
    next_seq: u64,
    /// Items parked above a gap, keyed by sequence.
    held: BTreeMap<u64, T>,
}

impl<T> Default for ClientGate<T> {
    fn default() -> Self {
        ClientGate { next_seq: 0, held: BTreeMap::new() }
    }
}

impl<T> ClientGate<T> {
    /// Fresh gate expecting sequence 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offer an item; see the module docs for the release rules.
    pub fn offer(&mut self, seq: u64, item: T) -> Offered<T> {
        if seq < self.next_seq {
            return Offered::Duplicate;
        }
        if seq > self.next_seq {
            self.held.entry(seq).or_insert(item);
            return Offered::Held;
        }
        let mut rest = Vec::new();
        self.next_seq = seq + 1;
        while let Some(p) = self.held.remove(&self.next_seq) {
            rest.push((self.next_seq, p));
            self.next_seq += 1;
        }
        Offered::Released(Run { first: (seq, item), rest })
    }

    /// Next sequence the gate will release (== cumulative released count).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Number of items parked behind a gap.
    pub fn held_len(&self) -> usize {
        self.held.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::from(s.to_string())
    }

    /// The released run as a `Vec`, or `None` for `Held` / `Duplicate`.
    fn released(o: Offered<Bytes>) -> Option<Vec<(u64, Bytes)>> {
        match o {
            Offered::Released(run) => Some(run.into_iter().collect()),
            _ => None,
        }
    }

    #[test]
    fn in_order_releases_immediately() {
        let mut g = ClientGate::new();
        assert_eq!(released(g.offer(0, b("a"))), Some(vec![(0, b("a"))]));
        assert_eq!(released(g.offer(1, b("b"))), Some(vec![(1, b("b"))]));
        assert_eq!(g.next_seq(), 2);
        assert_eq!(g.held_len(), 0);
    }

    #[test]
    fn gap_holds_then_releases_run() {
        let mut g = ClientGate::new();
        assert_eq!(g.offer(2, b("c")), Offered::Held);
        assert_eq!(g.offer(1, b("b")), Offered::Held);
        assert_eq!(g.held_len(), 2);
        assert_eq!(released(g.offer(0, b("a"))), Some(vec![(0, b("a")), (1, b("b")), (2, b("c"))]));
        assert_eq!(g.held_len(), 0);
    }

    #[test]
    fn duplicates_drop_everywhere() {
        let mut g = ClientGate::new();
        g.offer(0, b("a"));
        assert_eq!(g.offer(0, b("a2")), Offered::Duplicate);
        // Duplicate of a held seq keeps the first payload.
        assert_eq!(g.offer(2, b("c")), Offered::Held);
        assert_eq!(g.offer(2, b("c2")), Offered::Held);
        assert_eq!(released(g.offer(1, b("b"))), Some(vec![(1, b("b")), (2, b("c"))]));
        assert_eq!(g.offer(2, b("c3")), Offered::Duplicate);
    }
}
