//! The client side of the one control-request protocol, sans-I/O: its
//! driver (the simulator harness, a UDP thread) owns the wire and the
//! clock, and sends each request the [`CtrlClient`] hands it to *every*
//! replica. Only the leader logs it, so no client needs to know which
//! replica leads.

use crate::protocol::CtrlEvent;
use crate::retry::RetryPolicy;

/// One request awaiting its commit ack.
struct Pending {
    seq: u64,
    ev: CtrlEvent,
    /// Sends made so far, and when the next send (or the drop) is due.
    attempt: u32,
    due: u64,
}

/// Re-sends control requests on a [`RetryPolicy`]'s schedule until the
/// leader acks their *commit*.
pub struct CtrlClient {
    retry: RetryPolicy,
    next_seq: u64,
    pending: Vec<Pending>,
    /// Sends made for want of an ack (every send but a request's first).
    pub retries: u64,
    /// Requests abandoned out of attempts — counted, never silent. A
    /// client with `max_attempts: u32::MAX` never drops one.
    pub drops: u64,
}

impl CtrlClient {
    /// A client with no requests that re-sends on `retry`'s schedule.
    pub fn new(retry: RetryPolicy) -> Self {
        CtrlClient { retry, next_seq: 0, pending: Vec::new(), retries: 0, drops: 0 }
    }

    /// Queue `ev` under the next sequence number; the next
    /// [`poll`](Self::poll) sends it.
    pub fn submit(&mut self, ev: CtrlEvent) {
        self.next_seq += 1;
        self.pending.push(Pending { seq: self.next_seq, ev, attempt: 0, due: 0 });
    }

    /// The leader committed request `seq`: stop sending it.
    pub fn on_ack(&mut self, seq: u64) {
        self.pending.retain(|p| p.seq != seq);
    }

    /// Hand every request due at `now` to `send` as `(seq, ev)`, in
    /// submission order, and drop those out of attempts.
    pub fn poll(&mut self, now: u64, mut send: impl FnMut(u64, CtrlEvent)) {
        self.pending.retain_mut(|p| {
            if now < p.due {
                return true;
            }
            if self.retry.exhausted(p.attempt) {
                self.drops += 1;
                return false;
            }
            if p.attempt > 0 {
                self.retries += 1;
            }
            p.attempt += 1;
            p.due = now + self.retry.delay(p.attempt);
            send(p.seq, p.ev.clone());
            true
        });
    }

    /// When the next [`poll`](Self::poll) has work, if any request is
    /// pending.
    pub fn next_due(&self) -> Option<u64> {
        self.pending.iter().map(|p| p.due).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onepipe_types::ids::ProcessId;

    fn callback(from: u32) -> CtrlEvent {
        CtrlEvent::CallbackComplete { announce_id: 1, from: ProcessId(from) }
    }

    /// Poll at every due time up to `end`: `(time, seq)` of each send.
    fn run(c: &mut CtrlClient, end: u64) -> Vec<(u64, u64)> {
        let mut sent = Vec::new();
        while let Some(now) = c.next_due().filter(|&t| t <= end) {
            c.poll(now, |seq, _| sent.push((now, seq)));
        }
        sent
    }

    #[test]
    fn requests_are_resent_on_the_backoff_schedule() {
        let mut c = CtrlClient::new(RetryPolicy { base: 10, cap: 40, max_attempts: 100 });
        c.submit(callback(1));
        let mut first = Vec::new();
        c.poll(5, |seq, ev| first.push((seq, ev)));
        assert_eq!(first, [(1, callback(1))]);
        let times: Vec<u64> = run(&mut c, 200).iter().map(|&(t, _)| t).collect();
        assert_eq!(times, [15, 35, 75, 115, 155, 195]);
        assert_eq!((c.retries, c.drops), (6, 0));
    }

    #[test]
    fn an_ack_stops_the_resends() {
        let mut c = CtrlClient::new(RetryPolicy { base: 10, cap: 40, max_attempts: 100 });
        c.submit(callback(1));
        c.submit(callback(2));
        c.poll(0, |_, _| {});
        c.on_ack(1);
        assert_eq!(run(&mut c, 30), [(10, 2), (30, 2)]);
        c.on_ack(2);
        assert_eq!(c.next_due(), None);
        assert_eq!(run(&mut c, 1_000), []);
        assert_eq!((c.retries, c.drops), (2, 0));
    }

    #[test]
    fn a_bounded_policy_drops_and_counts_a_request() {
        let mut c = CtrlClient::new(RetryPolicy { base: 10, cap: 40, max_attempts: 3 });
        c.submit(callback(1));
        assert_eq!(run(&mut c, 1_000), [(0, 1), (10, 1), (30, 1)]);
        assert_eq!(c.next_due(), None, "dropped at 70, after its third send");
        assert_eq!((c.retries, c.drops), (2, 1));
    }

    #[test]
    fn an_unbounded_policy_never_drops() {
        let mut c = CtrlClient::new(RetryPolicy { base: 10, cap: 10, max_attempts: u32::MAX });
        c.submit(callback(1));
        assert_eq!(run(&mut c, 100_000).len(), 10_001);
        assert_eq!((c.retries, c.drops), (10_000, 0));
        assert_eq!(c.next_due(), Some(100_010));
    }
}
