//! Per-destination connection state: PSN allocation, outstanding-packet
//! tracking, and DCTCP-style congestion control (paper §6.1: "Congestion
//! control follows DCTCP where ECN mark is in the UD header").
//!
//! Each channel times its own retransmissions (RFC 6298): an [`RttEstimator`]
//! fed by the round trips of packets acknowledged on their first
//! transmission sets a timeout of a few RTTs, doubled per expiry.
//!
//! A channel sends with consecutive PSNs and its peer acknowledges them
//! mostly in that order, so the unacknowledged packets live in a
//! [`PsnRing`] — a deque in PSN order — rather than an ordered map:
//! tracking is a push at the back, an in-order ACK a pop at the front, and
//! an ACK out of order finds its packet by its distance from the front or,
//! failing that, by a binary search.

use onepipe_types::ids::ProcessId;
use onepipe_types::time::{Duration, Timestamp, MICROS};
use onepipe_types::wire::Datagram;
use std::collections::VecDeque;

/// A packet awaiting acknowledgement.
#[derive(Clone, Debug)]
pub struct OutPacket {
    /// The full datagram (kept for retransmission on the reliable channel).
    pub dgram: Datagram,
    /// Local-clock time of (re)transmission.
    pub sent_at: Timestamp,
    /// Retransmissions so far.
    pub retries: u32,
    /// Scattering the packet belongs to: (timestamp, seq).
    pub scat: (Timestamp, u64),
    /// Whether a forward request has been handed to the controller.
    pub forwarding: bool,
}

/// A channel's unacknowledged packets as `(psn, packet)` in ascending PSN
/// order (from the oldest, across a `u32` wrap). Memory follows the count
/// of packets outstanding: one whose ACK never comes holds one entry,
/// however many are tracked and acknowledged after it.
#[derive(Debug, Default)]
pub struct PsnRing {
    pkts: VecDeque<(u32, OutPacket)>,
}

impl PsnRing {
    /// Number of outstanding packets.
    pub fn len(&self) -> usize {
        self.pkts.len()
    }

    /// Whether no packet is outstanding.
    pub fn is_empty(&self) -> bool {
        self.pkts.is_empty()
    }

    /// Track `pkt` under `psn`, which must follow every PSN outstanding (a
    /// channel allocates them in order).
    pub fn insert(&mut self, psn: u32, pkt: OutPacket) {
        if let (Some(&(first, _)), Some(&(last, _))) = (self.pkts.front(), self.pkts.back()) {
            let d = psn.wrapping_sub(first);
            assert!(d > last.wrapping_sub(first) && d < 1 << 31, "PSN {psn} tracked out of order");
        }
        self.pkts.push_back((psn, pkt));
    }

    /// Take the packet with `psn` out, if outstanding.
    pub fn remove(&mut self, psn: u32) -> Option<OutPacket> {
        let first = self.pkts.front()?.0;
        let d = psn.wrapping_sub(first);
        // `psn` sits `d` entries from the front unless a packet before it
        // was acknowledged out of order: then it is nearer, if present.
        let i = if self.pkts.get(d as usize).is_some_and(|&(p, _)| p == psn) {
            d as usize
        } else {
            self.pkts.binary_search_by_key(&d, |&(p, _)| p.wrapping_sub(first)).ok()?
        };
        self.pkts.remove(i).map(|(_, pkt)| pkt)
    }

    /// Outstanding `(psn, packet)` pairs in PSN order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &OutPacket)> {
        self.pkts.iter().map(|(psn, pkt)| (*psn, pkt))
    }

    /// Outstanding packets in PSN order.
    pub fn values(&self) -> impl Iterator<Item = &OutPacket> {
        self.pkts.iter().map(|(_, pkt)| pkt)
    }

    /// Keep only the packets for which `keep(psn, packet)` holds, visiting
    /// them in PSN order.
    pub fn retain(&mut self, mut keep: impl FnMut(u32, &mut OutPacket) -> bool) {
        self.pkts.retain_mut(|(psn, pkt)| keep(*psn, pkt));
    }
}

/// Least margin a sampled timeout keeps above the smoothed RTT (RFC 6298's
/// clock granularity `G`): one simulated beacon interval.
const MIN_RTO_MARGIN: Duration = 3 * MICROS;

/// One channel's retransmission timer (RFC 6298, in integer local-clock
/// ns). Before the first sample the timeout is `ceiling`; each sample sets
/// it to `srtt + max(srtt, 4·rttvar, 3 µs)`, each expiry doubles it, and it
/// never exceeds `ceiling`.
#[derive(Clone, Copy, Debug)]
pub struct RttEstimator {
    /// `(srtt, rttvar)` once a round trip was sampled.
    estimate: Option<(Duration, Duration)>,
    timeout: Duration,
    ceiling: Duration,
}

impl RttEstimator {
    /// A timer that waits `ceiling` until its first sample.
    pub fn new(ceiling: Duration) -> Self {
        RttEstimator { estimate: None, timeout: ceiling, ceiling }
    }

    /// Current timeout, backoff included.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// Smoothed RTT and its mean deviation, once sampled.
    pub fn estimate(&self) -> Option<(Duration, Duration)> {
        self.estimate
    }

    /// Fold in the round trip `rtt` of a packet acknowledged on its first
    /// transmission (Karn's rule: the caller never samples a retransmitted
    /// one, whose ACK may answer either copy). Resets any backoff.
    pub fn sample(&mut self, rtt: Duration) {
        let (srtt, rttvar) = match self.estimate {
            None => (rtt, rtt / 2),
            Some((srtt, rttvar)) => ((7 * srtt + rtt) / 8, (3 * rttvar + srtt.abs_diff(rtt)) / 4),
        };
        self.estimate = Some((srtt, rttvar));
        self.timeout = (srtt + srtt.max(4 * rttvar).max(MIN_RTO_MARGIN)).min(self.ceiling);
    }

    /// The timer expired: wait twice as long next time, up to `ceiling`.
    pub fn back_off(&mut self) {
        self.timeout = self.timeout.saturating_mul(2).min(self.ceiling);
    }
}

/// One direction of one service channel (best-effort or reliable) toward a
/// single destination process.
#[derive(Debug)]
pub struct TxChannel {
    /// Destination process.
    pub peer: ProcessId,
    next_psn: u32,
    /// Unacknowledged packets by PSN.
    pub outstanding: PsnRing,
    /// Credits reserved by the head scattering (§6.1 live-lock avoidance).
    pub reserved: u32,
    /// When an unacknowledged packet is due for retransmission (or, on
    /// the best-effort channel, reported lost).
    pub(crate) rtt: RttEstimator,
    // --- DCTCP ---
    cwnd: f64,
    max_cwnd: f64,
    alpha: f64,
    gain: f64,
    acks_in_window: u32,
    ecn_in_window: u32,
    window_end_psn: u32,
}

impl TxChannel {
    /// New channel with the given initial congestion window, whose timer
    /// waits `timeout` until a round trip is sampled and never longer.
    pub fn new(peer: ProcessId, initial_cwnd: u32, gain: f64, timeout: Duration) -> Self {
        TxChannel {
            peer,
            next_psn: 0,
            outstanding: PsnRing::default(),
            reserved: 0,
            rtt: RttEstimator::new(timeout),
            cwnd: initial_cwnd as f64,
            max_cwnd: initial_cwnd as f64,
            alpha: 0.0,
            gain,
            acks_in_window: 0,
            ecn_in_window: 0,
            window_end_psn: 0,
        }
    }

    /// Allocate the next PSN.
    pub fn alloc_psn(&mut self) -> u32 {
        let p = self.next_psn;
        self.next_psn = self.next_psn.wrapping_add(1);
        p
    }

    /// Current congestion window in packets.
    pub fn cwnd(&self) -> u32 {
        self.cwnd.max(2.0) as u32
    }

    /// Window slots not taken by in-flight packets or reservations
    /// (bounded by the peer's receive window).
    pub fn available(&self, recv_window: u32) -> u32 {
        let limit = self.cwnd().min(recv_window);
        limit.saturating_sub(self.outstanding.len() as u32 + self.reserved)
    }

    /// Record a transmitted packet.
    pub fn track(&mut self, psn: u32, pkt: OutPacket) {
        self.outstanding.insert(psn, pkt);
    }

    /// Process an ACK for `psn` (with its ECN echo); returns the completed
    /// packet if it was outstanding.
    pub fn ack(&mut self, psn: u32, ecn: bool) -> Option<OutPacket> {
        let pkt = self.outstanding.remove(psn);
        if pkt.is_some() {
            self.on_ack_dctcp(psn, ecn);
        }
        pkt
    }

    /// DCTCP window update: per-window ECN fraction EWMA.
    fn on_ack_dctcp(&mut self, psn: u32, ecn: bool) {
        self.acks_in_window += 1;
        if ecn {
            self.ecn_in_window += 1;
        }
        if psn >= self.window_end_psn {
            let f = if self.acks_in_window == 0 {
                0.0
            } else {
                self.ecn_in_window as f64 / self.acks_in_window as f64
            };
            self.alpha = (1.0 - self.gain) * self.alpha + self.gain * f;
            if self.ecn_in_window > 0 {
                self.cwnd = (self.cwnd * (1.0 - self.alpha / 2.0)).max(2.0);
            } else {
                self.cwnd = (self.cwnd + 1.0).min(self.max_cwnd);
            }
            self.acks_in_window = 0;
            self.ecn_in_window = 0;
            self.window_end_psn = self.next_psn;
        }
    }

    /// Packets whose (re)transmission timer expired at local time `now`:
    /// the brute-force reference [`TxTable::scan_expired`] is tested
    /// against.
    #[cfg(test)]
    pub fn expired(&self, now: Timestamp) -> Vec<u32> {
        let timeout = self.rtt.timeout();
        self.outstanding
            .iter()
            .filter(|(_, p)| now.since(p.sent_at) >= timeout)
            .map(|(psn, _)| psn)
            .collect()
    }

    /// Total buffered bytes (send-buffer memory accounting).
    pub fn buffered_bytes(&self) -> usize {
        self.outstanding.values().map(|p| p.dgram.payload.len()).sum()
    }
}

/// One service's channels toward every peer contacted so far, dense and
/// sorted by peer id: the timeout scan walks them in `ProcessId` order
/// (emission order must not vary from run to run, or deterministic replay
/// breaks) and a lookup is a binary search over one contiguous array.
#[derive(Debug, Default)]
pub struct TxTable {
    channels: Vec<TxChannel>,
    /// No timed packet on any channel falls due before this; `None` only
    /// while none is outstanding. Conservative: an ACK removes a packet
    /// and a sample may lengthen a timeout without raising it, the next
    /// scan does.
    due: Option<Timestamp>,
}

impl TxTable {
    fn position(&self, peer: ProcessId) -> Result<usize, usize> {
        self.channels.binary_search_by_key(&peer, |ch| ch.peer)
    }

    /// The channel toward `peer`, if one was ever opened.
    pub fn get(&self, peer: ProcessId) -> Option<&TxChannel> {
        self.position(peer).ok().map(|i| &self.channels[i])
    }

    /// Mutable access to the channel toward `peer`.
    pub fn get_mut(&mut self, peer: ProcessId) -> Option<&mut TxChannel> {
        self.position(peer).ok().map(|i| &mut self.channels[i])
    }

    /// The channel toward `peer`, opened on first use (see
    /// [`TxChannel::new`]).
    #[inline]
    pub fn get_or_open(
        &mut self,
        peer: ProcessId,
        initial_cwnd: u32,
        gain: f64,
        timeout: Duration,
    ) -> &mut TxChannel {
        let i = self.position(peer).unwrap_or_else(|i| {
            self.channels.insert(i, TxChannel::new(peer, initial_cwnd, gain, timeout));
            i
        });
        &mut self.channels[i]
    }

    /// Every open channel, in peer order.
    pub fn iter(&self) -> impl Iterator<Item = &TxChannel> {
        self.channels.iter()
    }

    /// Every open channel, mutably, in peer order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut TxChannel> {
        self.channels.iter_mut()
    }

    /// A packet was tracked with `sent_at = now` on a channel whose
    /// timeout is `timeout`.
    pub fn note_sent(&mut self, now: Timestamp, timeout: Duration) {
        let due = now.wrapping_add(timeout);
        self.due = Some(self.due.map_or(due, |d| d.min(due)));
    }

    /// An ACK for `psn` from `peer` arrived at local time `now` on a timed
    /// channel: take the packet out (as [`TxChannel::ack`]) and, if it was
    /// acknowledged on its first transmission, sample its round trip. A
    /// shorter timeout brings forward every deadline on the channel by as
    /// much, and the table's bound with them.
    pub fn ack_sampled(
        &mut self,
        peer: ProcessId,
        psn: u32,
        ecn: bool,
        now: Timestamp,
    ) -> Option<OutPacket> {
        let i = self.position(peer).ok()?;
        let ch = &mut self.channels[i];
        let pkt = ch.ack(psn, ecn)?;
        if pkt.retries == 0 {
            let before = ch.rtt.timeout();
            ch.rtt.sample(now.since(pkt.sent_at));
            let earlier = before.saturating_sub(ch.rtt.timeout());
            if let Some(due) = &mut self.due {
                *due = Timestamp::from_raw(due.raw().wrapping_sub(earlier));
            }
        }
        Some(pkt)
    }

    /// Visit every packet whose channel's timer expired at local time
    /// `now`, in `(peer, psn)` order; `visit` may restart the timer
    /// (`sent_at`) and returns whether the packet stays outstanding. A
    /// channel with an expiry backs its timer off once. Packets handed to
    /// the controller (`forwarding`) are no longer timed. One comparison
    /// when nothing can be due; otherwise a walk over every outstanding
    /// packet, which also refreshes the bound.
    pub fn scan_expired(
        &mut self,
        now: Timestamp,
        mut visit: impl FnMut(ProcessId, &mut OutPacket) -> bool,
    ) {
        if self.due.is_none_or(|due| now < due) {
            return;
        }
        let mut due: Option<Timestamp> = None;
        for ch in &mut self.channels {
            let (peer, timeout) = (ch.peer, ch.rtt.timeout());
            let mut oldest: Option<Timestamp> = None;
            let mut expired = false;
            ch.outstanding.retain(|_, pkt| {
                if pkt.forwarding {
                    return true;
                }
                let fresh = now.since(pkt.sent_at) < timeout;
                expired |= !fresh;
                let keep = fresh || visit(peer, pkt);
                if keep {
                    oldest = Some(oldest.map_or(pkt.sent_at, |o| o.min(pkt.sent_at)));
                }
                keep
            });
            if expired {
                ch.rtt.back_off();
            }
            if let Some(oldest) = oldest {
                let d = oldest.wrapping_add(ch.rtt.timeout());
                due = Some(due.map_or(d, |o| o.min(d)));
            }
        }
        self.due = due;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use onepipe_types::wire::{Flags, PacketHeader};

    fn dgram() -> Datagram {
        Datagram {
            src: ProcessId(0),
            dst: ProcessId(1),
            header: PacketHeader::data(Timestamp::from_nanos(1), 0, Flags::empty()),
            payload: Bytes::from_static(b"xy"),
        }
    }

    fn out_pkt() -> OutPacket {
        OutPacket {
            dgram: dgram(),
            sent_at: Timestamp::from_nanos(100),
            retries: 0,
            scat: (Timestamp::from_nanos(1), 0),
            forwarding: false,
        }
    }

    #[test]
    fn psn_allocation_is_sequential() {
        let mut ch = TxChannel::new(ProcessId(1), 16, 0.0625, 100);
        assert_eq!(ch.alloc_psn(), 0);
        assert_eq!(ch.alloc_psn(), 1);
        assert_eq!(ch.alloc_psn(), 2);
    }

    #[test]
    fn available_respects_outstanding_and_reserved() {
        let mut ch = TxChannel::new(ProcessId(1), 16, 0.0625, 100);
        assert_eq!(ch.available(256), 16);
        assert_eq!(ch.available(10), 10);
        ch.track(0, out_pkt());
        ch.track(1, out_pkt());
        ch.reserved = 4;
        assert_eq!(ch.available(256), 10);
    }

    #[test]
    fn ack_removes_outstanding() {
        let mut ch = TxChannel::new(ProcessId(1), 16, 0.0625, 100);
        ch.track(5, out_pkt());
        assert!(ch.ack(5, false).is_some());
        assert!(ch.ack(5, false).is_none(), "double ack is a no-op");
        assert!(ch.outstanding.is_empty());
    }

    #[test]
    fn ecn_shrinks_window_clean_acks_grow_it() {
        let mut ch = TxChannel::new(ProcessId(1), 64, 1.0 / 16.0, 100);
        // Fill a window with ECN-marked ACKs.
        for _ in 0..64 {
            let psn = ch.alloc_psn();
            ch.track(psn, out_pkt());
        }
        let before = ch.cwnd();
        for psn in 0..64 {
            ch.ack(psn, true);
        }
        assert!(ch.cwnd() < before, "cwnd must shrink under ECN");
        // Now several windows of clean ACKs recover it (bounded by max).
        let shrunk = ch.cwnd();
        for _ in 0..200 {
            let psn = ch.alloc_psn();
            ch.track(psn, out_pkt());
            ch.ack(psn, false);
        }
        assert!(ch.cwnd() > shrunk, "cwnd must grow again");
        assert!(ch.cwnd() <= 64, "cwnd must not exceed the initial maximum");
    }

    #[test]
    fn cwnd_never_below_two() {
        let mut ch = TxChannel::new(ProcessId(1), 4, 1.0, 100);
        for _ in 0..50 {
            let psn = ch.alloc_psn();
            ch.track(psn, out_pkt());
            ch.ack(psn, true);
        }
        assert!(ch.cwnd() >= 2);
    }

    #[test]
    fn expiry_detection() {
        let mut ch = TxChannel::new(ProcessId(1), 16, 0.0625, 100);
        ch.track(0, out_pkt()); // sent_at = 100
        let now = Timestamp::from_nanos(100 + 50);
        assert!(ch.expired(now).is_empty());
        let now = Timestamp::from_nanos(100 + 150);
        assert_eq!(ch.expired(now), vec![0]);
    }

    #[test]
    fn first_sample_sets_srtt_and_half_its_deviation() {
        let mut rtt = RttEstimator::new(100_000);
        assert_eq!((rtt.estimate(), rtt.timeout()), (None, 100_000), "unsampled: the ceiling");
        rtt.sample(4_000);
        assert_eq!(rtt.estimate(), Some((4_000, 2_000)));
        assert_eq!(rtt.timeout(), 4_000 + 8_000, "srtt + 4·rttvar");
    }

    #[test]
    fn later_samples_smooth_by_eighths_and_quarters() {
        let mut rtt = RttEstimator::new(100_000);
        rtt.sample(4_000);
        rtt.sample(6_000);
        // rttvar = (3·2000 + |4000 − 6000|) / 4, srtt = (7·4000 + 6000) / 8.
        assert_eq!(rtt.estimate(), Some((4_250, 2_000)));
        assert_eq!(rtt.timeout(), 4_250 + 8_000);
        // A steady RTT drives rttvar toward 0: the srtt floor takes over.
        for _ in 0..40 {
            rtt.sample(5_000);
        }
        let (srtt, rttvar) = rtt.estimate().unwrap();
        assert!(srtt.abs_diff(5_000) < 10 && 4 * rttvar < srtt, "{srtt} {rttvar}");
        assert_eq!(rtt.timeout(), 2 * srtt);
        // Below 3 µs the fixed margin takes over.
        let mut rtt = RttEstimator::new(100_000);
        rtt.sample(1_000);
        assert_eq!(rtt.timeout(), 1_000 + MIN_RTO_MARGIN);
        // And the ceiling caps a slow channel.
        rtt.sample(90_000);
        assert_eq!(rtt.timeout(), 100_000);
    }

    #[test]
    fn expiries_double_the_timeout_up_to_the_ceiling_until_a_sample() {
        let mut rtt = RttEstimator::new(100_000);
        rtt.back_off();
        assert_eq!(rtt.timeout(), 100_000, "unsampled: already at the ceiling");
        rtt.sample(4_000);
        let mut seen = vec![rtt.timeout()];
        for _ in 0..5 {
            rtt.back_off();
            seen.push(rtt.timeout());
        }
        assert_eq!(seen, vec![12_000, 24_000, 48_000, 96_000, 100_000, 100_000]);
        rtt.sample(4_000);
        assert_eq!(rtt.estimate(), Some((4_000, 1_500)));
        assert_eq!(rtt.timeout(), 4_000 + 6_000, "a sample ends the backoff");
    }

    /// A table with one channel toward peer 1 whose timer waits 100 µs
    /// until sampled, holding packets `psns` sent at `sent_at`.
    fn table_with(psns: std::ops::Range<u32>, sent_at: u64) -> TxTable {
        let mut table = TxTable::default();
        let ch = table.get_or_open(ProcessId(1), 16, 0.0625, 100_000);
        for psn in psns {
            ch.alloc_psn();
            ch.track(psn, OutPacket { sent_at: Timestamp::from_nanos(sent_at), ..out_pkt() });
        }
        table.note_sent(Timestamp::from_nanos(sent_at), 100_000);
        table
    }

    #[test]
    fn an_ack_of_a_retransmitted_packet_is_not_sampled() {
        // Karn's rule: the ACK may answer either copy.
        let mut table = table_with(0..2, 0);
        table.get_mut(ProcessId(1)).unwrap().outstanding.retain(|psn, pkt| {
            pkt.retries = psn;
            true
        });
        let now = Timestamp::from_nanos(4_000);
        assert!(table.ack_sampled(ProcessId(1), 1, false, now).is_some());
        assert_eq!(table.get(ProcessId(1)).unwrap().rtt.estimate(), None);
        assert!(table.ack_sampled(ProcessId(1), 0, false, now).is_some());
        assert_eq!(table.get(ProcessId(1)).unwrap().rtt.estimate(), Some((4_000, 2_000)));
        assert!(table.ack_sampled(ProcessId(1), 0, false, now).is_none(), "double ack");
        assert!(table.ack_sampled(ProcessId(2), 0, false, now).is_none(), "unknown peer");
    }

    #[test]
    fn a_sample_brings_forward_the_scan_of_packets_already_sent() {
        // Sent at 0 under the 100 µs ceiling; a 4 µs sample cuts the
        // timeout to 12 µs, so the packets left fall due at 12 µs.
        let mut table = table_with(0..3, 0);
        table.ack_sampled(ProcessId(1), 0, false, Timestamp::from_nanos(4_000));
        let mut due = Vec::new();
        table.scan_expired(Timestamp::from_nanos(11_999), |_, _| unreachable!("not yet due"));
        table.scan_expired(Timestamp::from_nanos(12_000), |peer, pkt| {
            due.push((peer, pkt.retries));
            pkt.sent_at = Timestamp::from_nanos(12_000);
            true
        });
        assert_eq!(due.len(), 2);
        // The expiry backed the channel off once: next due at 12 + 24 µs.
        assert_eq!(table.get(ProcessId(1)).unwrap().rtt.timeout(), 24_000);
        table.scan_expired(Timestamp::from_nanos(35_999), |_, _| unreachable!("backed off"));
        let mut again = 0;
        table.scan_expired(Timestamp::from_nanos(36_000), |_, _| {
            again += 1;
            false
        });
        assert_eq!(again, 2);
        assert!(table.due.is_none(), "nothing left to time");
    }

    #[test]
    fn a_packet_never_acked_holds_one_entry() {
        // A packet handed to the controller is no longer timed; if its ACK
        // is lost it stays outstanding while the channel carries on.
        let mut ch = TxChannel::new(ProcessId(1), 16, 0.0625, 100);
        let stuck = ch.alloc_psn();
        ch.track(stuck, OutPacket { forwarding: true, ..out_pkt() });
        for _ in 0..100_000 {
            let psn = ch.alloc_psn();
            ch.track(psn, out_pkt());
            assert!(ch.ack(psn, false).is_some());
        }
        assert_eq!(ch.outstanding.iter().map(|(psn, _)| psn).collect::<Vec<_>>(), vec![stuck]);
        assert!(ch.outstanding.pkts.capacity() < 16, "memory follows the count, not the PSN span");
        assert!(ch.ack(stuck, false).is_some_and(|p| p.forwarding));
        assert!(ch.outstanding.is_empty());
    }

    proptest::proptest! {
        /// The ring against an ordered map: packets tracked under
        /// consecutive PSNs from an arbitrary start (the `u32` wrap
        /// included), ACKed in order, out of order, twice or before they
        /// were sent, and filtered by `retain`. Walks, counts and taken
        /// packets agree throughout; the map is keyed by distance from the
        /// start, which is the ring's order across a wrap.
        #[test]
        fn psn_ring_matches_ordered_map(
            start in proptest::prelude::any::<u32>(),
            ops in proptest::collection::vec((0u8..8, proptest::prelude::any::<u32>()), 1..300),
        ) {
            use std::collections::BTreeMap;
            let mut ring = PsnRing::default();
            let mut reference: BTreeMap<u32, OutPacket> = BTreeMap::new();
            let mut sent = 0u32;
            let id = |p: &OutPacket| p.retries;
            for (kind, arg) in ops {
                match kind {
                    0..=2 => {
                        let mut pkt = out_pkt();
                        pkt.retries = sent;
                        ring.insert(start.wrapping_add(sent), pkt.clone());
                        reference.insert(sent, pkt);
                        sent += 1;
                    }
                    3 | 4 => {
                        // Any PSN sent so far, or one or two not yet sent.
                        let off = arg % (sent + 2);
                        let got = ring.remove(start.wrapping_add(off));
                        proptest::prop_assert_eq!(got.as_ref().map(id), reference.remove(&off).as_ref().map(id));
                    }
                    5 => {
                        // In order: the oldest outstanding.
                        let oldest = reference.keys().next().copied();
                        let got = oldest.and_then(|off| ring.remove(start.wrapping_add(off)));
                        proptest::prop_assert_eq!(got.as_ref().map(id), oldest.and_then(|off| reference.remove(&off)).as_ref().map(id));
                    }
                    6 => {
                        let mut visited = Vec::new();
                        ring.retain(|psn, pkt| {
                            visited.push(psn.wrapping_sub(start));
                            pkt.sent_at = Timestamp::from_nanos(arg as u64);
                            (psn ^ arg) % 3 != 0
                        });
                        proptest::prop_assert_eq!(visited, reference.keys().copied().collect::<Vec<_>>());
                        reference.retain(|&off, pkt| {
                            pkt.sent_at = Timestamp::from_nanos(arg as u64);
                            (start.wrapping_add(off) ^ arg) % 3 != 0
                        });
                    }
                    _ => {
                        // Out of order from the other end: the newest.
                        let newest = reference.keys().next_back().copied();
                        let got = newest.and_then(|off| ring.remove(start.wrapping_add(off)));
                        proptest::prop_assert_eq!(got.as_ref().map(id), newest.and_then(|off| reference.remove(&off)).as_ref().map(id));
                    }
                }
                proptest::prop_assert_eq!(ring.len(), reference.len());
                proptest::prop_assert_eq!(ring.is_empty(), reference.is_empty());
                let walked: Vec<(u32, u32, Timestamp)> =
                    ring.iter().map(|(psn, p)| (psn.wrapping_sub(start), id(p), p.sent_at)).collect();
                let want: Vec<(u32, u32, Timestamp)> =
                    reference.iter().map(|(&off, p)| (off, id(p), p.sent_at)).collect();
                proptest::prop_assert_eq!(walked, want);
                proptest::prop_assert!(ring.values().map(id).eq(reference.values().map(id)));
            }
        }
    }

    #[test]
    fn buffered_bytes_accounts_payloads() {
        let mut ch = TxChannel::new(ProcessId(1), 16, 0.0625, 100);
        assert_eq!(ch.buffered_bytes(), 0);
        ch.track(0, out_pkt());
        ch.track(1, out_pkt());
        assert_eq!(ch.buffered_bytes(), 4); // two 2-byte payloads
    }
}
