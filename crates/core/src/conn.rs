//! Per-destination connection state: PSN allocation, outstanding-packet
//! tracking, and DCTCP-style congestion control (paper §6.1: "Congestion
//! control follows DCTCP where ECN mark is in the UD header").

use onepipe_types::ids::ProcessId;
use onepipe_types::time::Timestamp;
use onepipe_types::wire::Datagram;
use std::collections::BTreeMap;

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

/// One direction of one service channel (best-effort or reliable) toward a
/// single destination process.
#[derive(Debug)]
pub struct TxChannel {
    /// Destination process.
    pub peer: ProcessId,
    next_psn: u32,
    /// Unacknowledged packets by PSN.
    pub outstanding: BTreeMap<u32, OutPacket>,
    /// Credits reserved by the head scattering (§6.1 live-lock avoidance).
    pub reserved: u32,
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
    /// New channel with the given initial congestion window.
    pub fn new(peer: ProcessId, initial_cwnd: u32, gain: f64) -> Self {
        TxChannel {
            peer,
            next_psn: 0,
            outstanding: BTreeMap::new(),
            reserved: 0,
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
        let pkt = self.outstanding.remove(&psn);
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
    pub fn expired(&self, now: Timestamp, timeout: u64) -> Vec<u32> {
        self.outstanding
            .iter()
            .filter(|(_, p)| now.since(p.sent_at) >= timeout)
            .map(|(&psn, _)| psn)
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
    /// No timed packet on any channel was (re)sent before this; `None`
    /// only while none is outstanding. Conservative: an ACK removes a
    /// packet without raising it, the next scan does.
    oldest_sent: Option<Timestamp>,
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

    /// The channel toward `peer`, opened on first use.
    pub fn get_or_open(&mut self, peer: ProcessId, initial_cwnd: u32, gain: f64) -> &mut TxChannel {
        let i = self.position(peer).unwrap_or_else(|i| {
            self.channels.insert(i, TxChannel::new(peer, initial_cwnd, gain));
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

    /// A packet was tracked on some channel with `sent_at = now`. Local
    /// time never runs backwards, so only the first one since the table
    /// was last found empty can lower the bound.
    pub fn note_sent(&mut self, now: Timestamp) {
        self.oldest_sent.get_or_insert(now);
    }

    /// Visit every packet whose timer expired at local time `now`, in
    /// `(peer, psn)` order; `visit` may restart the timer (`sent_at`) and
    /// returns whether the packet stays outstanding. Packets handed to the
    /// controller (`forwarding`) are no longer timed. One comparison when
    /// nothing can be due; otherwise a walk over every outstanding packet,
    /// which also refreshes the bound.
    pub fn scan_expired(
        &mut self,
        now: Timestamp,
        timeout: u64,
        mut visit: impl FnMut(ProcessId, &mut OutPacket) -> bool,
    ) {
        if self.oldest_sent.is_none_or(|oldest| now.since(oldest) < timeout) {
            return;
        }
        let mut oldest: Option<Timestamp> = None;
        for ch in &mut self.channels {
            let peer = ch.peer;
            ch.outstanding.retain(|_, pkt| {
                if pkt.forwarding {
                    return true;
                }
                let keep = now.since(pkt.sent_at) < timeout || visit(peer, pkt);
                if keep {
                    oldest = Some(oldest.map_or(pkt.sent_at, |o| o.min(pkt.sent_at)));
                }
                keep
            });
        }
        self.oldest_sent = oldest;
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
        let mut ch = TxChannel::new(ProcessId(1), 16, 0.0625);
        assert_eq!(ch.alloc_psn(), 0);
        assert_eq!(ch.alloc_psn(), 1);
        assert_eq!(ch.alloc_psn(), 2);
    }

    #[test]
    fn available_respects_outstanding_and_reserved() {
        let mut ch = TxChannel::new(ProcessId(1), 16, 0.0625);
        assert_eq!(ch.available(256), 16);
        assert_eq!(ch.available(10), 10);
        ch.track(0, out_pkt());
        ch.track(1, out_pkt());
        ch.reserved = 4;
        assert_eq!(ch.available(256), 10);
    }

    #[test]
    fn ack_removes_outstanding() {
        let mut ch = TxChannel::new(ProcessId(1), 16, 0.0625);
        ch.track(5, out_pkt());
        assert!(ch.ack(5, false).is_some());
        assert!(ch.ack(5, false).is_none(), "double ack is a no-op");
        assert!(ch.outstanding.is_empty());
    }

    #[test]
    fn ecn_shrinks_window_clean_acks_grow_it() {
        let mut ch = TxChannel::new(ProcessId(1), 64, 1.0 / 16.0);
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
        let mut ch = TxChannel::new(ProcessId(1), 4, 1.0);
        for _ in 0..50 {
            let psn = ch.alloc_psn();
            ch.track(psn, out_pkt());
            ch.ack(psn, true);
        }
        assert!(ch.cwnd() >= 2);
    }

    #[test]
    fn expiry_detection() {
        let mut ch = TxChannel::new(ProcessId(1), 16, 0.0625);
        ch.track(0, out_pkt()); // sent_at = 100
        let now = Timestamp::from_nanos(100 + 50);
        assert!(ch.expired(now, 100).is_empty());
        let now = Timestamp::from_nanos(100 + 150);
        assert_eq!(ch.expired(now, 100), vec![0]);
    }

    #[test]
    fn buffered_bytes_accounts_payloads() {
        let mut ch = TxChannel::new(ProcessId(1), 16, 0.0625);
        assert_eq!(ch.buffered_bytes(), 0);
        ch.track(0, out_pkt());
        ch.track(1, out_pkt());
        assert_eq!(ch.buffered_bytes(), 4); // two 2-byte payloads
    }
}
