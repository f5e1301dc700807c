//! The 1Pipe endpoint state machine (sans-io).
//!
//! Implements both services of the paper's Table 1 API:
//!
//! * **Best effort** — messages are timestamped, sent immediately, buffered
//!   and reordered at the receiver, and delivered when the best-effort
//!   barrier passes them (strictly below). Losses are detected by
//!   end-to-end ACK/NAK and surfaced through the send-failure callback;
//!   nothing is retransmitted (§4).
//! * **Reliable** — two-phase commit (§5.1): Prepare-phase packets are
//!   retransmitted until ACKed; once every packet of a scattering with
//!   timestamp ≤ T is acknowledged the sender advances its *commit
//!   barrier* to T (carried by Commit messages and beacons); receivers
//!   deliver messages with timestamps ≤ the aggregated commit barrier.
//!
//! Failure recovery (§5.2) is driven by the controller: on a failure
//! announcement the endpoint discards receive-buffered messages of the
//! failed process above its failure timestamp, recalls its own aborted
//! scatterings from surviving receivers, raises the process-failure
//! callback, and reports completion.

use crate::config::{DeliveryMode, EndpointConfig};
use crate::conn::{OutPacket, TxChannel, TxTable};
use crate::events::{CtrlRequest, UserEvent};
use crate::frag::{fragment_count, fragments, parse_fragment, REL_CHANNEL};
use crate::reorder::{Insert, ReorderBuffer};
use bytes::{BufMut, Bytes, BytesMut};
use onepipe_types::ids::{ProcessId, ScatteringId};
use onepipe_types::message::{Delivered, Message, OrderKey};
use onepipe_types::time::Timestamp;
use onepipe_types::wire::{Datagram, Flags, Opcode, PacketHeader};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

pub use onepipe_types::ids::HOP_LOCAL;

/// After this many fruitless retransmissions of a reliable packet, ask the
/// controller to forward it (§5.2 "Controller Forwarding"). A Recall is
/// not forwarded: after this many retries it is abandoned.
const FORWARD_AFTER_RETRIES: u32 = 8;

/// Maximum payload bytes per fragment (RDMA UD MTU minus headers).
const MTU_PAYLOAD: usize = 1024;

/// Receive window per connection, in packets (paper: receive buffer
/// provisioned at connection setup).
const RECV_WINDOW: u32 = 256;

/// DCTCP gain `g` for the per-window ECN-fraction EWMA.
const DCTCP_GAIN: f64 = 1.0 / 16.0;

/// A scattering waiting in the send buffer for window credits.
#[derive(Debug)]
struct PendingScattering {
    seq: u64,
    /// Timestamp assigned at submission (the paper's API returns `TS`
    /// synchronously). While queued, it pins this host's barrier
    /// contributions so the network cannot advance past an unsent
    /// message.
    ts: Timestamp,
    reliable: bool,
    msgs: Vec<Message>,
    /// Window credits per destination, in `ProcessId` order (the
    /// reservation order must not vary from run to run).
    needs: Vec<Need>,
}

/// The window credits one scattering needs toward one destination.
#[derive(Debug)]
struct Need {
    dst: ProcessId,
    /// Packets the scattering sends to `dst`.
    packets: u32,
    /// Credits already reserved (head of queue only).
    reserved: u32,
}

/// Commit-tracking state of an in-flight reliable scattering.
#[derive(Debug)]
struct RelScat {
    /// Unacked packet count across all destinations.
    remaining: u32,
    /// All destinations of the scattering.
    dsts: Vec<ProcessId>,
    /// Set once the scattering is aborted by a failure; it then blocks the
    /// commit barrier until every surviving receiver acknowledged the
    /// Recall.
    aborted: bool,
}

/// An in-progress recall of an aborted scattering.
#[derive(Debug)]
struct RecallState {
    ts: Timestamp,
    /// Receivers whose RecallAck is still missing.
    waiting: BTreeSet<ProcessId>,
    /// Local-clock time of the last (re)send.
    last_sent: Timestamp,
    retries: u32,
}

/// Progress of one failure announcement's callback.
#[derive(Debug)]
struct CallbackState {
    app_done: bool,
    /// Recalls initiated by this announcement, still incomplete.
    recalls: BTreeSet<u64>,
    reported: bool,
}

/// Counters exposed for experiments.
#[derive(Clone, Copy, Debug, Default)]
pub struct EndpointStats {
    /// Scatterings submitted by the application.
    pub scatterings_sent: u64,
    /// Data packets transmitted (first transmissions).
    pub packets_sent: u64,
    /// Retransmissions (reliable service).
    pub retransmits: u64,
    /// Messages delivered on the best-effort channel.
    pub delivered_be: u64,
    /// Messages delivered on the reliable channel.
    pub delivered_rel: u64,
    /// Best-effort send failures reported.
    pub send_failures: u64,
    /// Commit messages emitted.
    pub commits_sent: u64,
    /// Packets dropped by the receiver-side loss simulation.
    pub rx_dropped: u64,
    /// Late packets dropped (and NAKed) at the receiver.
    pub late_drops: u64,
    /// Reliable messages lost *after* commit — must stay 0 (atomicity).
    pub commit_anomalies: u64,
}

impl std::ops::AddAssign for EndpointStats {
    /// Field by field. `rhs` is taken apart by name and without `..`, so a
    /// counter added to the struct does not compile until it is summed.
    fn add_assign(&mut self, rhs: Self) {
        let EndpointStats {
            scatterings_sent,
            packets_sent,
            retransmits,
            delivered_be,
            delivered_rel,
            send_failures,
            commits_sent,
            rx_dropped,
            late_drops,
            commit_anomalies,
        } = rhs;
        self.scatterings_sent += scatterings_sent;
        self.packets_sent += packets_sent;
        self.retransmits += retransmits;
        self.delivered_be += delivered_be;
        self.delivered_rel += delivered_rel;
        self.send_failures += send_failures;
        self.commits_sent += commits_sent;
        self.rx_dropped += rx_dropped;
        self.late_drops += late_drops;
        self.commit_anomalies += commit_anomalies;
    }
}

/// The 1Pipe endpoint for a single process. See the crate docs for the
/// driving contract.
///
/// # Example: pumping two endpoints by hand
///
/// ```
/// use onepipe_core::{Endpoint, EndpointConfig};
/// use onepipe_types::ids::ProcessId;
/// use onepipe_types::message::Message;
/// use onepipe_types::time::Timestamp;
///
/// // Beacon-only barrier trust, as any transport without programmable
/// // switches would configure.
/// let cfg = EndpointConfig::default().beacon_only_barriers();
/// let mut alice = Endpoint::new(ProcessId(0), cfg);
/// let mut bob = Endpoint::new(ProcessId(1), cfg);
///
/// let now = Timestamp::from_nanos(1_000);
/// alice.send_unreliable(now, vec![Message::new(ProcessId(1), "hi bob")]).unwrap();
///
/// // The transport's job: move datagrams and barrier information.
/// while let Some(dgram) = alice.poll_transmit() {
///     if dgram.dst == ProcessId(1) {
///         bob.handle_datagram(now, dgram);
///     }
/// }
/// // A beacon from the network advances bob's barrier past the message.
/// bob.on_barrier(Timestamp::from_nanos(2_000), Timestamp::ZERO);
///
/// let got = bob.recv_unreliable().expect("delivered in total order");
/// assert_eq!(&got.payload[..], b"hi bob");
/// ```
pub struct Endpoint {
    id: ProcessId,
    cfg: EndpointConfig,
    rng: StdRng,
    now_local: Timestamp,
    /// Whether the first clock reading has been observed. The 48-bit ring
    /// has no global origin: an endpoint must anchor its monotonic state
    /// to the *first* reading (deployment clocks may start anywhere in
    /// the ring, e.g. wall-clock nanoseconds), not to zero.
    clock_init: bool,
    // -- send path --
    next_seq: u64,
    last_ts_assigned: Timestamp,
    pending: VecDeque<PendingScattering>,
    // Ordered containers throughout: the timeout pumps iterate these to
    // emit retransmits/recalls, and emission order must not vary
    // run-to-run or deterministic replay breaks.
    be_tx: TxTable,
    rel_tx: TxTable,
    out: VecDeque<Datagram>,
    ctrl_out: VecDeque<CtrlRequest>,
    outstanding_rel: BTreeMap<(Timestamp, u64), RelScat>,
    last_commit_sent: Timestamp,
    /// Set when reliable progress (full ACK / abort) moved the commit
    /// frontier; cleared when a Commit message is emitted. Idle clock
    /// advances ride on host beacons instead of explicit Commits.
    commit_dirty: bool,
    // -- receive path --
    be_rx: ReorderBuffer,
    rel_rx: ReorderBuffer,
    be_barrier: Timestamp,
    commit_barrier: Timestamp,
    delivered_be: VecDeque<Delivered>,
    delivered_rel: VecDeque<Delivered>,
    events: VecDeque<UserEvent>,
    // -- failure handling --
    failed: BTreeMap<ProcessId, Timestamp>,
    recalls: BTreeMap<u64, RecallState>,
    callbacks: BTreeMap<u64, CallbackState>,
    /// Announcements fully handled and reported. A replicated controller
    /// re-drives announcements across failover (at-least-once), so a
    /// duplicate must not replay Discard/Recall or re-raise the app
    /// callback — just re-send the possibly-lost CallbackComplete.
    acked_announcements: BTreeSet<u64>,
    /// Statistics counters.
    pub stats: EndpointStats,
}

impl Endpoint {
    /// Create an endpoint for process `id`.
    pub fn new(id: ProcessId, cfg: EndpointConfig) -> Self {
        let unordered = cfg.delivery == DeliveryMode::Unordered;
        Endpoint {
            id,
            rng: StdRng::seed_from_u64(cfg.seed ^ (id.0 as u64) << 32),
            cfg,
            now_local: Timestamp::ZERO,
            clock_init: false,
            next_seq: 0,
            last_ts_assigned: Timestamp::ZERO,
            pending: VecDeque::new(),
            be_tx: TxTable::default(),
            rel_tx: TxTable::default(),
            out: VecDeque::new(),
            ctrl_out: VecDeque::new(),
            outstanding_rel: BTreeMap::new(),
            last_commit_sent: Timestamp::ZERO,
            commit_dirty: false,
            be_rx: ReorderBuffer::new(false, unordered),
            rel_rx: ReorderBuffer::new(true, unordered),
            be_barrier: Timestamp::ZERO,
            commit_barrier: Timestamp::ZERO,
            delivered_be: VecDeque::new(),
            delivered_rel: VecDeque::new(),
            events: VecDeque::new(),
            failed: BTreeMap::new(),
            recalls: BTreeMap::new(),
            callbacks: BTreeMap::new(),
            acked_announcements: BTreeSet::new(),
            stats: EndpointStats::default(),
        }
    }

    /// This endpoint's process id.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Fold in a local clock reading, anchoring the ring on first use.
    fn observe_clock(&mut self, now: Timestamp) {
        if !self.clock_init {
            self.clock_init = true;
            self.now_local = now;
            self.last_ts_assigned = now;
            // Just below the first reading: nothing has been advertised
            // yet, so the first message may still carry ts = now.
            self.last_commit_sent = Timestamp::from_raw(now.raw().wrapping_sub(1));
        } else {
            self.now_local = self.now_local.max(now);
        }
    }

    // ------------------------------------------------------------------
    // Application API (Table 1)
    // ------------------------------------------------------------------

    /// `onepipe_unreliable_send`: submit a best-effort scattering.
    pub fn send_unreliable(
        &mut self,
        now: Timestamp,
        msgs: Vec<Message>,
    ) -> onepipe_types::Result<ScatteringId> {
        self.submit(now, msgs, false)
    }

    /// `onepipe_reliable_send`: submit a reliable scattering.
    pub fn send_reliable(
        &mut self,
        now: Timestamp,
        msgs: Vec<Message>,
    ) -> onepipe_types::Result<ScatteringId> {
        self.submit(now, msgs, true)
    }

    fn submit(
        &mut self,
        now: Timestamp,
        msgs: Vec<Message>,
        reliable: bool,
    ) -> onepipe_types::Result<ScatteringId> {
        if self.pending.len() >= self.cfg.send_buffer_scatterings {
            return Err(onepipe_types::Error::SendBufferFull);
        }
        if reliable {
            for m in &msgs {
                if self.failed.contains_key(&m.dst) {
                    return Err(onepipe_types::Error::ProcessFailed(m.dst));
                }
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        // Timestamp rules (assigned NOW, per Table 1's synchronous `TS`
        // return): non-decreasing per host, strictly above the last
        // advertised commit barrier contribution. Anchor the ring state
        // first so PAWS comparisons are well-defined on the first send.
        self.observe_clock(now);
        let ts =
            self.now_local.max(self.last_ts_assigned).max(self.last_commit_sent.wrapping_add(1));
        self.last_ts_assigned = ts;
        let mut needs: Vec<Need> = msgs
            .iter()
            .map(|m| Need {
                dst: m.dst,
                packets: fragment_count(m.payload.len(), MTU_PAYLOAD),
                reserved: 0,
            })
            .collect();
        // One entry per destination: sort, then fold runs into their head.
        needs.sort_unstable_by_key(|n| n.dst);
        needs.dedup_by(|next, head| {
            let same = next.dst == head.dst;
            if same {
                head.packets += next.packets;
            }
            same
        });
        self.pending.push_back(PendingScattering { seq, ts, reliable, msgs, needs });
        self.stats.scatterings_sent += 1;
        self.poll(now);
        Ok(ScatteringId { sender: self.id, seq })
    }

    /// `onepipe_unreliable_recv`: next best-effort delivery, in total order.
    pub fn recv_unreliable(&mut self) -> Option<Delivered> {
        self.delivered_be.pop_front()
    }

    /// `onepipe_reliable_recv`: next reliable delivery, in total order.
    pub fn recv_reliable(&mut self) -> Option<Delivered> {
        self.delivered_rel.pop_front()
    }

    /// Next user event (send failures, recalls, process-failure callbacks).
    pub fn poll_event(&mut self) -> Option<UserEvent> {
        self.events.pop_front()
    }

    /// Next outgoing datagram (drain until `None` after every call).
    pub fn poll_transmit(&mut self) -> Option<Datagram> {
        self.out.pop_front()
    }

    /// Next controller request (management network).
    pub fn poll_ctrl(&mut self) -> Option<CtrlRequest> {
        self.ctrl_out.pop_front()
    }

    /// `onepipe_get_timestamp`: the latest local clock reading seen.
    pub fn timestamp(&self) -> Timestamp {
        self.now_local
    }

    /// Send a *raw* (unordered, unacknowledged) message outside 1Pipe —
    /// the paper's applications use plain RDMA for RPC responses that
    /// "do not need to be ordered by 1Pipe" (§2.2.2).
    pub fn send_raw(&mut self, dst: ProcessId, payload: impl Into<Bytes>) {
        self.out.push_back(Datagram {
            src: self.id,
            dst,
            header: PacketHeader::control(Opcode::Control, self.now_local, 0, Flags::empty()),
            payload: payload.into(),
        });
    }

    // ------------------------------------------------------------------
    // Barrier plumbing (adapter-facing)
    // ------------------------------------------------------------------

    /// Feed the barrier pair carried by a beacon from the ToR. ZERO means
    /// "no information yet" on either side and never regresses state.
    pub fn on_barrier(&mut self, be: Timestamp, commit: Timestamp) {
        self.be_barrier = merge_barrier(self.be_barrier, be);
        self.commit_barrier = merge_barrier(self.commit_barrier, commit);
        self.advance_buffers();
    }

    /// This host's best-effort barrier contribution: the local clock
    /// (future message timestamps can never fall below it).
    pub fn be_contribution(&self, now: Timestamp) -> Timestamp {
        let clock = now.max(self.now_local);
        // Queued-but-untransmitted best-effort scatterings already carry
        // their timestamp (assigned at submit); the contribution must not
        // advance past them while they wait for credits (§4.1: min over
        // in-flight message timestamps).
        match self.pending.iter().filter(|p| !p.reliable).map(|p| p.ts).min() {
            Some(ts) => clock.min(ts),
            None => clock,
        }
    }

    /// This process's commit barrier contribution: just below the oldest
    /// outstanding (or aborted-but-unrecalled) reliable scattering, or the
    /// clock when nothing is outstanding.
    pub fn commit_contribution(&mut self, now: Timestamp) -> Timestamp {
        let oldest_sent = self.outstanding_rel.first_key_value().map(|((ts, _), _)| *ts);
        // Queued reliable scatterings count as in-flight too: their
        // timestamps were assigned at submit. The pending queue is
        // ts-monotone, so the first reliable entry is the oldest.
        let oldest_pending = self.pending.iter().find(|p| p.reliable).map(|p| p.ts);
        let oldest = match (oldest_sent, oldest_pending) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let candidate = match oldest {
            Some(ts) => Timestamp::from_raw(ts.raw().wrapping_sub(1)),
            None => now.max(self.now_local),
        };
        // Monotonic: never step back below what we already advertised.
        self.last_commit_sent = self.last_commit_sent.max(candidate);
        self.last_commit_sent
    }

    /// Current receive-side barriers (telemetry).
    pub fn barriers(&self) -> (Timestamp, Timestamp) {
        (self.be_barrier, self.commit_barrier)
    }

    /// Timestamp assigned to the most recent `submit` (Table 1: the send
    /// API returns `TS` synchronously). Read immediately after a send.
    pub fn last_assigned_ts(&self) -> Timestamp {
        self.last_ts_assigned
    }

    /// Total buffered bytes on this endpoint (send + receive), for the
    /// Figure 11 memory accounting.
    pub fn buffered_bytes(&self) -> usize {
        let tx: usize =
            self.be_tx.iter().chain(self.rel_tx.iter()).map(|c| c.buffered_bytes()).sum();
        tx + self.be_rx.buffered_bytes() + self.rel_rx.buffered_bytes()
    }

    /// High-water mark of receive-buffer bytes.
    pub fn max_rx_buffered(&self) -> usize {
        self.be_rx.max_bytes + self.rel_rx.max_bytes
    }

    // ------------------------------------------------------------------
    // Datagram handling
    // ------------------------------------------------------------------

    /// Process one incoming datagram at local time `now`.
    pub fn handle_datagram(&mut self, now: Timestamp, d: Datagram) {
        self.observe_clock(now);
        match d.header.opcode {
            Opcode::Beacon => {
                self.on_barrier(d.header.barrier, d.header.commit_barrier);
            }
            Opcode::Data | Opcode::DataReliable => self.on_data(d),
            Opcode::Ack => self.on_ack(d),
            Opcode::Nak => self.on_nak(d),
            Opcode::Recall => self.on_recall(d),
            Opcode::RecallAck => self.on_recall_ack(d),
            Opcode::Commit | Opcode::Control | Opcode::Mgmt => { /* not endpoint-addressed */ }
        }
    }

    fn on_data(&mut self, d: Datagram) {
        if self.cfg.rx_drop_rate > 0.0 && self.rng.random_range(0.0..1.0) < self.cfg.rx_drop_rate {
            self.stats.rx_dropped += 1;
            return;
        }
        let Datagram { src, header, payload, .. } = d;
        let reliable = header.opcode == Opcode::DataReliable;
        if self.cfg.trust_data_barriers {
            self.be_barrier = merge_barrier(self.be_barrier, header.barrier);
            self.commit_barrier = merge_barrier(self.commit_barrier, header.commit_barrier);
        }
        let Ok((seq, midx, data)) = parse_fragment(payload) else {
            return;
        };
        let key = OrderKey { ts: header.msg_ts, sender: src, seq };
        // Discard step, applied retroactively to late arrivals from a
        // process already announced as failed.
        if reliable {
            if let Some(&fail_ts) = self.failed.get(&src) {
                if key.ts > fail_ts {
                    return;
                }
            }
        }
        let rb = if reliable { &mut self.rel_rx } else { &mut self.be_rx };
        let outcome = rb.insert_fragment(key, midx, header.psn, header.flags, data);
        match outcome {
            Insert::Buffered => {
                self.send_ack(src, &header, reliable);
            }
            Insert::Ready(msg) => {
                // Unordered baseline mode.
                self.send_ack(src, &header, reliable);
                self.observe_delivered_ts(msg.ts);
                if reliable {
                    self.stats.delivered_rel += 1;
                    self.delivered_rel.push_back(msg);
                } else {
                    self.stats.delivered_be += 1;
                    self.delivered_be.push_back(msg);
                }
            }
            Insert::Late => {
                self.stats.late_drops += 1;
                if reliable {
                    // Retransmission of an already-delivered packet: the
                    // ACK was lost. Re-ACK so the sender stops retrying.
                    self.send_ack(src, &header, true);
                } else {
                    self.send_nak(src, header.msg_ts, header.psn);
                }
            }
        }
        self.advance_buffers();
    }

    /// Acknowledge the data packet `header` arrived on, to its sender.
    fn send_ack(&mut self, to: ProcessId, header: &PacketHeader, reliable: bool) {
        let mut flags = Flags::empty();
        if reliable {
            flags.insert(REL_CHANNEL);
        }
        if header.flags.contains(Flags::ECN) {
            flags.insert(Flags::ECN);
        }
        self.out.push_back(Datagram {
            src: self.id,
            dst: to,
            header: PacketHeader::control(Opcode::Ack, header.msg_ts, header.psn, flags),
            payload: Bytes::new(),
        });
    }

    /// Tell `to` that its best-effort message `msg_ts` lost packet `psn`.
    fn send_nak(&mut self, to: ProcessId, msg_ts: Timestamp, psn: u32) {
        self.out.push_back(Datagram {
            src: self.id,
            dst: to,
            header: PacketHeader::control(Opcode::Nak, msg_ts, psn, Flags::empty()),
            payload: Bytes::new(),
        });
    }

    fn on_ack(&mut self, d: Datagram) {
        let reliable = d.header.flags.contains(REL_CHANNEL);
        let ecn = d.header.flags.contains(Flags::ECN);
        let pkt = if reliable {
            self.rel_tx.ack_sampled(d.src, d.header.psn, ecn, self.now_local)
        } else {
            self.be_tx.get_mut(d.src).and_then(|ch| ch.ack(d.header.psn, ecn))
        };
        let Some(pkt) = pkt else { return };
        if reliable {
            let key = pkt.scat;
            let mut done = false;
            if let Some(rs) = self.outstanding_rel.get_mut(&key) {
                rs.remaining = rs.remaining.saturating_sub(1);
                done = rs.remaining == 0 && !rs.aborted;
            }
            if done {
                self.outstanding_rel.remove(&key);
                self.events.push_back(UserEvent::Committed { ts: key.0, seq: key.1 });
                self.commit_dirty = true;
                self.emit_commit_if_advanced();
            }
        }
        // Freed window space may unblock the send queue.
        let now = self.now_local;
        self.try_dispatch(now);
    }

    fn on_nak(&mut self, d: Datagram) {
        // Best-effort loss: report and forget (no retransmission, §4).
        // The NAK names the scattering by timestamp; some of its fragments
        // may already have been ACKed (partial loss), so fail every
        // remaining outstanding packet of that scattering.
        let Some(ch) = self.be_tx.get_mut(d.src) else { return };
        let mut failed: Vec<(Timestamp, u64)> = Vec::new();
        if let Some(pkt) = ch.ack(d.header.psn, false) {
            failed.push(pkt.scat);
        }
        ch.outstanding.retain(|_, p| {
            let stale = p.scat.0 == d.header.msg_ts;
            if stale {
                failed.push(p.scat);
            }
            !stale
        });
        failed.sort();
        failed.dedup();
        for (ts, seq) in failed {
            self.stats.send_failures += 1;
            self.events.push_back(UserEvent::SendFailed { ts, seq, dst: d.src });
        }
    }

    fn on_recall(&mut self, d: Datagram) {
        let Ok(seq) = read_u64(&d.payload) else { return };
        self.rel_rx.discard_scattering(d.src, d.header.msg_ts, seq);
        // Always ack — recalls are idempotent.
        let mut payload = BytesMut::with_capacity(8);
        payload.put_u64(seq);
        self.out.push_back(Datagram {
            src: self.id,
            dst: d.src,
            header: PacketHeader::control(Opcode::RecallAck, d.header.msg_ts, 0, Flags::empty()),
            payload: payload.freeze(),
        });
    }

    fn on_recall_ack(&mut self, d: Datagram) {
        let Ok(seq) = read_u64(&d.payload) else { return };
        let done = if let Some(rs) = self.recalls.get_mut(&seq) {
            rs.waiting.remove(&d.src);
            rs.waiting.is_empty()
        } else {
            false
        };
        if done {
            self.finish_recall(seq);
        }
    }

    fn finish_recall(&mut self, seq: u64) {
        if let Some(rs) = self.recalls.remove(&seq) {
            self.outstanding_rel.remove(&(rs.ts, seq));
            self.commit_dirty = true;
            self.emit_commit_if_advanced();
        }
        for cb in self.callbacks.values_mut() {
            cb.recalls.remove(&seq);
        }
        self.report_ready_callbacks();
    }

    // ------------------------------------------------------------------
    // Periodic work
    // ------------------------------------------------------------------

    /// Advance local time: dispatch pending scatterings, retransmit,
    /// detect ACK timeouts, refresh the commit barrier.
    pub fn poll(&mut self, now: Timestamp) {
        self.observe_clock(now);
        let now = self.now_local;
        self.try_dispatch(now);
        self.check_reliable_timeouts(now);
        self.check_be_timeouts(now);
        self.check_recall_timeouts(now);
        self.emit_commit_if_advanced();
    }

    fn try_dispatch(&mut self, now: Timestamp) {
        while let Some(head) = self.pending.front_mut() {
            // Reserve credits destination by destination (§6.1: the head
            // scattering holds credits so large scatterings make progress).
            let reliable = head.reliable;
            let mut all = true;
            // A scattering can exceed a destination's whole window (e.g. a
            // large message against a shrunken cwnd). Waiting would
            // deadlock — no in-flight packets exist to free credits — so
            // once every unsatisfied destination's window is exhausted
            // *and empty*, force the transmission (a bounded one-
            // scattering overshoot; the paper sizes receive windows to the
            // largest scattering instead).
            let mut forceable = true;
            let table = if reliable { &mut self.rel_tx } else { &mut self.be_tx };
            for need in &mut head.needs {
                if need.reserved < need.packets {
                    let ch = channel(table, need.dst, &self.cfg, reliable);
                    let take = (need.packets - need.reserved).min(ch.available(RECV_WINDOW));
                    ch.reserved += take;
                    need.reserved += take;
                    if need.reserved < need.packets {
                        all = false;
                        if ch.available(RECV_WINDOW) > 0 || !ch.outstanding.is_empty() {
                            forceable = false;
                        }
                    }
                }
            }
            if !all && !forceable {
                break;
            }
            let head = self.pending.pop_front().unwrap();
            // Return any held credits before transmitting (transmission
            // tracks real in-flight packets instead).
            for need in head.needs.iter().filter(|n| n.reserved > 0) {
                let ch = channel(table, need.dst, &self.cfg, reliable);
                ch.reserved = ch.reserved.saturating_sub(need.reserved);
            }
            self.transmit_scattering(now, head);
        }
    }

    fn transmit_scattering(&mut self, now: Timestamp, scat: PendingScattering) {
        // The timestamp was assigned at submission; the queued scattering
        // pinned the barrier contributions below it in the meantime.
        let ts = scat.ts;
        self.last_ts_assigned = self.last_ts_assigned.max(ts);
        let reliable = scat.reliable;
        let scattering_flag = scat.msgs.len() > 1;
        let mut total_packets = 0u32;
        let mut dsts: Vec<ProcessId> = Vec::new();
        let table = if reliable { &mut self.rel_tx } else { &mut self.be_tx };
        for (midx, msg) in scat.msgs.iter().enumerate() {
            if !dsts.contains(&msg.dst) {
                dsts.push(msg.dst);
            }
            let ch = channel(table, msg.dst, &self.cfg, reliable);
            let timeout = ch.rtt.timeout();
            for frag in fragments(scat.seq, midx as u16, &msg.payload, MTU_PAYLOAD) {
                let psn = ch.alloc_psn();
                let mut flags = frag.flags;
                if scattering_flag {
                    flags.insert(Flags::SCATTERING);
                }
                let dgram = Datagram {
                    src: self.id,
                    dst: msg.dst,
                    header: PacketHeader {
                        msg_ts: ts,
                        barrier: ts,
                        commit_barrier: self.last_commit_sent,
                        psn,
                        opcode: if reliable { Opcode::DataReliable } else { Opcode::Data },
                        flags,
                    },
                    payload: frag.payload,
                };
                ch.track(
                    psn,
                    OutPacket {
                        dgram: dgram.clone(),
                        sent_at: now,
                        retries: 0,
                        scat: (ts, scat.seq),
                        forwarding: false,
                    },
                );
                self.out.push_back(dgram);
                self.stats.packets_sent += 1;
                total_packets += 1;
            }
            table.note_sent(now, timeout);
        }
        if reliable {
            self.outstanding_rel
                .insert((ts, scat.seq), RelScat { remaining: total_packets, dsts, aborted: false });
        }
    }

    fn check_reliable_timeouts(&mut self, now: Timestamp) {
        let Endpoint { rel_tx, out, ctrl_out, stats, .. } = self;
        rel_tx.scan_expired(now, |_, pkt| {
            pkt.retries += 1;
            pkt.sent_at = now;
            if pkt.retries > FORWARD_AFTER_RETRIES {
                pkt.forwarding = true;
                ctrl_out.push_back(CtrlRequest::Forward { dgram: pkt.dgram.clone() });
            } else {
                let mut d = pkt.dgram.clone();
                d.header.flags.insert(Flags::RETRANSMIT);
                out.push_back(d);
                stats.retransmits += 1;
            }
            true
        });
    }

    fn check_be_timeouts(&mut self, now: Timestamp) {
        let Endpoint { be_tx, events, stats, .. } = self;
        be_tx.scan_expired(now, |dst, pkt| {
            stats.send_failures += 1;
            events.push_back(UserEvent::SendFailed { ts: pkt.scat.0, seq: pkt.scat.1, dst });
            false
        });
    }

    fn check_recall_timeouts(&mut self, now: Timestamp) {
        let rto = self.cfg.rto;
        let mut resend: Vec<(u64, Timestamp, Vec<ProcessId>)> = Vec::new();
        let mut abandoned: Vec<u64> = Vec::new();
        for (&seq, rs) in self.recalls.iter_mut() {
            if now.since(rs.last_sent) < rto {
                continue;
            }
            rs.retries += 1;
            rs.last_sent = now;
            if rs.retries > FORWARD_AFTER_RETRIES {
                abandoned.push(seq);
            } else {
                resend.push((seq, rs.ts, rs.waiting.iter().copied().collect()));
            }
        }
        for (seq, ts, dsts) in resend {
            for dst in dsts {
                self.push_recall(ts, seq, dst);
            }
        }
        for seq in abandoned {
            self.finish_recall(seq);
        }
    }

    fn push_recall(&mut self, ts: Timestamp, seq: u64, dst: ProcessId) {
        let mut payload = BytesMut::with_capacity(8);
        payload.put_u64(seq);
        self.out.push_back(Datagram {
            src: self.id,
            dst,
            header: PacketHeader::control(Opcode::Recall, ts, 0, Flags::empty()),
            payload: payload.freeze(),
        });
    }

    /// Emit a Commit message toward the first-hop switch when the commit
    /// contribution advanced (Figure 6: "The commit message is sent to the
    /// neighbor switch rather than the receivers").
    fn emit_commit_if_advanced(&mut self) {
        if !self.commit_dirty {
            return;
        }
        let before = self.last_commit_sent;
        let now = self.now_local;
        let contribution = self.commit_contribution(now);
        self.commit_dirty = false;
        if contribution > before {
            let mut header =
                PacketHeader::control(Opcode::Commit, Timestamp::ZERO, 0, Flags::empty());
            header.commit_barrier = contribution;
            let commit = Datagram { src: self.id, dst: HOP_LOCAL, header, payload: Bytes::new() };
            self.out.push_back(commit);
            self.stats.commits_sent += 1;
        }
    }

    /// Hybrid-logical-clock clamp: a delivered timestamp is an observed
    /// event, so no later send may be timestamped below it (causality, §3).
    /// Physical clocks alone cannot guarantee this once a clock is skewed
    /// backwards — the clamp keeps send timestamps above everything this
    /// process has seen.
    fn observe_delivered_ts(&mut self, ts: Timestamp) {
        self.last_ts_assigned = self.last_ts_assigned.max(ts);
        self.now_local = self.now_local.max(ts);
    }

    fn advance_buffers(&mut self) {
        // Artificial delay (Figure 11): hold the barrier back.
        let be_edge = if self.cfg.artificial_delay == 0 {
            self.be_barrier
        } else {
            let raw = self.be_barrier.raw().saturating_sub(self.cfg.artificial_delay);
            Timestamp::from_raw(raw)
        };
        // The buffers release in total order, so the newest message in a
        // delivery queue carries the highest timestamp released so far:
        // observing that one covers the batch (and changes nothing when
        // the batch was empty).
        let queued = self.delivered_be.len();
        let Endpoint { be_rx, delivered_be, out, id, .. } = self;
        be_rx.advance_into(be_edge, |outcome| match outcome {
            Ok(msg) => delivered_be.push_back(msg),
            // Lost fragments: tell the sender (send-failure callback there).
            Err(lost) => out.push_back(Datagram {
                src: *id,
                dst: lost.key.key.sender,
                header: PacketHeader::control(
                    Opcode::Nak,
                    lost.key.key.ts,
                    lost.psn,
                    Flags::empty(),
                ),
                payload: Bytes::new(),
            }),
        });
        if let Some(newest) = self.delivered_be.back().map(|m| m.ts) {
            self.stats.delivered_be += (self.delivered_be.len() - queued) as u64;
            self.observe_delivered_ts(newest);
        }
        let queued = self.delivered_rel.len();
        let Endpoint { rel_rx, delivered_rel, stats, .. } = self;
        rel_rx.advance_into(self.commit_barrier, |outcome| match outcome {
            Ok(msg) => delivered_rel.push_back(msg),
            // A committed-but-incomplete reliable message violates
            // atomicity; count it (must never happen while sender and
            // receiver live).
            Err(_) => stats.commit_anomalies += 1,
        });
        if let Some(newest) = self.delivered_rel.back().map(|m| m.ts) {
            self.stats.delivered_rel += (self.delivered_rel.len() - queued) as u64;
            self.observe_delivered_ts(newest);
        }
    }

    // ------------------------------------------------------------------
    // Failure handling (§5.2, process side)
    // ------------------------------------------------------------------

    /// Controller Broadcast step: handle a failure announcement. Performs
    /// Discard and initiates Recall, then surfaces the process-failure
    /// callback event.
    pub fn on_failure_announcement(
        &mut self,
        now: Timestamp,
        announce_id: u64,
        failures: &[(ProcessId, Timestamp)],
    ) {
        self.observe_clock(now);
        // Duplicate delivery (controller failover re-drive): the work is
        // done; only the completion report may have been lost. Re-ack.
        if self.acked_announcements.contains(&announce_id) {
            self.ctrl_out.push_back(CtrlRequest::CallbackComplete { announce_id });
            return;
        }
        // Duplicate of an announcement still in progress: the callback
        // completion will be reported once, when it finishes.
        if self.callbacks.contains_key(&announce_id) {
            return;
        }
        // Register the callback before touching recall state: aborting a
        // scattering for one failed process can complete (via the
        // cancellation path) while a *later* process in the same
        // announcement is handled, and `finish_recall` must find this
        // callback in the map to release its gate — a locally-built state
        // inserted at the end would keep a dangling recall seq forever.
        self.callbacks.insert(
            announce_id,
            CallbackState { app_done: false, recalls: BTreeSet::new(), reported: false },
        );
        for &(proc, fail_ts) in failures {
            self.failed.insert(proc, fail_ts);
            // Discard: receive-buffered messages from the failed process
            // above its failure timestamp.
            self.rel_rx.discard_from(proc, fail_ts);
            // Recall: drop sends to the failed process and abort their
            // scatterings.
            let aborted = self.abort_sends_to(now, proc);
            if let Some(cb) = self.callbacks.get_mut(&announce_id) {
                cb.recalls.extend(aborted);
            }
            // In-progress recalls stop waiting for the newly failed
            // process; one left waiting for nobody is finished.
            let mut finished = Vec::new();
            for (&seq, rs) in self.recalls.iter_mut() {
                if rs.waiting.remove(&proc) && rs.waiting.is_empty() {
                    finished.push(seq);
                }
            }
            for seq in finished {
                self.finish_recall(seq);
            }
            // Drop queued-but-untransmitted scatterings involving the
            // failed destination (atomicity: abort the whole scattering).
            let mut recalled_events = Vec::new();
            self.pending.retain(|p| {
                let doomed = p.reliable && p.msgs.iter().any(|m| m.dst == proc);
                if doomed {
                    recalled_events.push((p.ts, p.seq));
                }
                !doomed
            });
            for (ts, seq) in recalled_events {
                self.events.push_back(UserEvent::Recalled { ts, seq });
            }
        }
        self.events
            .push_back(UserEvent::ProcessFailed { announce_id, failures: failures.to_vec() });
        self.report_ready_callbacks();
    }

    /// Abort every outstanding reliable scattering that has unacked
    /// packets toward `proc`; returns the aborted scattering seqs.
    fn abort_sends_to(&mut self, now: Timestamp, proc: ProcessId) -> Vec<u64> {
        let mut aborted_seqs = Vec::new();
        // Find scatterings with outstanding packets to the failed process.
        let mut doomed: Vec<(Timestamp, u64)> = Vec::new();
        if let Some(ch) = self.rel_tx.get_mut(proc) {
            for pkt in std::mem::take(&mut ch.outstanding).values() {
                if !doomed.contains(&pkt.scat) {
                    doomed.push(pkt.scat);
                }
            }
        }
        for (ts, seq) in doomed {
            let Some(rs) = self.outstanding_rel.get_mut(&(ts, seq)) else {
                continue;
            };
            if rs.aborted {
                continue;
            }
            rs.aborted = true;
            let others: Vec<ProcessId> = rs
                .dsts
                .iter()
                .copied()
                .filter(|d| *d != proc && !self.failed.contains_key(d))
                .collect();
            // Stop retransmitting the scattering's packets to the others —
            // they will be recalled instead.
            for ch in self.rel_tx.iter_mut() {
                ch.outstanding.retain(|_, p| p.scat != (ts, seq));
            }
            self.events.push_back(UserEvent::Recalled { ts, seq });
            if others.is_empty() {
                // Nothing to recall; the scattering dissolves immediately.
                // Crucially it must NOT be reported to the caller: the
                // failure callback only waits on recalls that are actually
                // in flight. (A seq with no RecallState would otherwise
                // pin the callback forever, the controller would never see
                // CallbackComplete from this process, Resume would never
                // fire, and the accused host's stale commit contribution
                // would stall the global commit barrier permanently.)
                self.outstanding_rel.remove(&(ts, seq));
                self.commit_dirty = true;
                self.emit_commit_if_advanced();
            } else {
                aborted_seqs.push(seq);
                for &dst in &others {
                    self.push_recall(ts, seq, dst);
                }
                self.recalls.insert(
                    seq,
                    RecallState {
                        ts,
                        waiting: others.into_iter().collect(),
                        last_sent: now,
                        retries: 0,
                    },
                );
            }
        }
        aborted_seqs
    }

    /// The application finished its `onepipe_proc_fail_callback` work for
    /// `announce_id`.
    pub fn complete_failure_callback(&mut self, announce_id: u64) {
        if let Some(cb) = self.callbacks.get_mut(&announce_id) {
            cb.app_done = true;
        }
        self.report_ready_callbacks();
    }

    fn report_ready_callbacks(&mut self) {
        for (&id, cb) in self.callbacks.iter_mut() {
            if cb.app_done && cb.recalls.is_empty() && !cb.reported {
                cb.reported = true;
                self.acked_announcements.insert(id);
                self.ctrl_out.push_back(CtrlRequest::CallbackComplete { announce_id: id });
            }
        }
        self.callbacks.retain(|_, cb| !cb.reported);
    }
}

/// The channel toward `dst`, opened on first use. A reliable channel's
/// timer starts at, and never exceeds, `rto`; a best-effort one is never
/// sampled and waits `be_ack_timeout` throughout.
fn channel<'a>(
    table: &'a mut TxTable,
    dst: ProcessId,
    cfg: &EndpointConfig,
    reliable: bool,
) -> &'a mut TxChannel {
    let timeout = if reliable { cfg.rto } else { cfg.be_ack_timeout };
    table.get_or_open(dst, cfg.initial_cwnd, DCTCP_GAIN, timeout)
}

/// Merge a barrier observation into state where [`Timestamp::ZERO`] is the
/// "uninitialized" sentinel on both sides.
fn merge_barrier(cur: Timestamp, new: Timestamp) -> Timestamp {
    if new == Timestamp::ZERO {
        cur
    } else if cur == Timestamp::ZERO {
        new
    } else {
        cur.max(new)
    }
}

fn read_u64(payload: &Bytes) -> onepipe_types::Result<u64> {
    if payload.len() < 8 {
        return Err(onepipe_types::Error::Truncated { needed: 8, got: payload.len() });
    }
    let mut arr = [0u8; 8];
    arr.copy_from_slice(&payload[..8]);
    Ok(u64::from_be_bytes(arr))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: u64) -> Timestamp {
        Timestamp::from_nanos(v)
    }

    /// Deliver all queued output of `from` to `to` (perfect link),
    /// returning how many datagrams moved. Commit/hop-local packets are
    /// captured separately.
    fn pump(from: &mut Endpoint, to: &mut Endpoint, now: Timestamp) -> (usize, Vec<Datagram>) {
        let mut n = 0;
        let mut hop_local = Vec::new();
        while let Some(d) = from.poll_transmit() {
            if d.dst == HOP_LOCAL {
                hop_local.push(d);
            } else {
                to.handle_datagram(now, d);
                n += 1;
            }
        }
        (n, hop_local)
    }

    fn two() -> (Endpoint, Endpoint) {
        (
            Endpoint::new(ProcessId(0), EndpointConfig::default()),
            Endpoint::new(ProcessId(1), EndpointConfig::default()),
        )
    }

    #[test]
    fn best_effort_end_to_end() {
        let (mut a, mut b) = two();
        a.send_unreliable(ts(100), vec![Message::new(ProcessId(1), "hello")]).unwrap();
        pump(&mut a, &mut b, ts(101));
        // Nothing delivered until the barrier passes.
        assert!(b.recv_unreliable().is_none());
        b.on_barrier(ts(200), Timestamp::ZERO);
        let got = b.recv_unreliable().unwrap();
        assert_eq!(got.payload, Bytes::from_static(b"hello"));
        assert_eq!(got.src, ProcessId(0));
        assert_eq!(got.ts, ts(100));
        // The ACK flows back.
        pump(&mut b, &mut a, ts(201));
        assert!(a.be_tx.get(ProcessId(1)).map(|c| c.outstanding.is_empty()).unwrap_or(true));
    }

    #[test]
    fn best_effort_delivery_is_total_order() {
        // Direct-pump test without switches: data-packet barrier fields are
        // sender-initialized and must not be trusted (only real switches
        // rewrite them to network-wide minima), so run in beacon-only mode.
        let cfg = EndpointConfig::default().beacon_only_barriers();
        let mut rx = Endpoint::new(ProcessId(9), cfg);
        let mut s1 = Endpoint::new(ProcessId(1), cfg);
        let mut s2 = Endpoint::new(ProcessId(2), cfg);
        s2.send_unreliable(ts(200), vec![Message::new(ProcessId(9), "late")]).unwrap();
        s1.send_unreliable(ts(100), vec![Message::new(ProcessId(9), "early")]).unwrap();
        // Arrival order: late first (multipath reordering).
        pump(&mut s2, &mut rx, ts(210));
        pump(&mut s1, &mut rx, ts(211));
        rx.on_barrier(ts(500), Timestamp::ZERO);
        assert_eq!(rx.recv_unreliable().unwrap().payload, Bytes::from_static(b"early"));
        assert_eq!(rx.recv_unreliable().unwrap().payload, Bytes::from_static(b"late"));
    }

    #[test]
    fn reliable_end_to_end_with_commit() {
        let (mut a, mut b) = two();
        a.send_reliable(ts(100), vec![Message::new(ProcessId(1), "important")]).unwrap();
        let (n, commits) = pump(&mut a, &mut b, ts(101));
        assert_eq!(n, 1);
        // Any commit advertised before the ACK must stay below the
        // scattering's timestamp (the scattering is still outstanding).
        for c in &commits {
            assert!(c.header.commit_barrier < ts(100));
        }
        // ACK back to the sender.
        pump(&mut b, &mut a, ts(102));
        // Now the sender's commit barrier advances past the scattering ts.
        a.poll(ts(103));
        let (_, commits) = pump(&mut a, &mut b, ts(103));
        assert!(!commits.is_empty(), "commit must be emitted after full ACK");
        let commit_val = commits.last().unwrap().header.commit_barrier;
        assert!(commit_val >= ts(100));
        // Committed event fired.
        let evs: Vec<_> = std::iter::from_fn(|| a.poll_event()).collect();
        assert!(evs
            .iter()
            .any(|e| matches!(e, UserEvent::Committed { ts: t, .. } if *t == ts(100))));
        // Receiver delivers once the commit barrier reaches it.
        b.on_barrier(Timestamp::ZERO, commit_val);
        let got = b.recv_reliable().unwrap();
        assert_eq!(got.payload, Bytes::from_static(b"important"));
    }

    #[test]
    fn reliable_retransmits_until_acked() {
        let (mut a, mut b) = two();
        a.send_reliable(ts(0), vec![Message::new(ProcessId(1), "x")]).unwrap();
        // First transmission lost: drain and drop.
        while a.poll_transmit().is_some() {}
        // Before RTO: nothing.
        a.poll(ts(50_000));
        assert!(a.poll_transmit().is_none());
        // After RTO (100 µs): retransmission (flagged as such).
        a.poll(ts(150_000));
        let d = a.poll_transmit().expect("retransmission due");
        assert!(d.header.flags.contains(Flags::RETRANSMIT));
        assert_eq!(a.stats.retransmits, 1);
        b.handle_datagram(ts(150_001), d);
        pump(&mut b, &mut a, ts(150_002));
        assert!(a.outstanding_rel.is_empty());
    }

    #[test]
    fn a_sampled_channel_resends_a_lost_packet_within_a_few_rtts() {
        let (mut a, mut b) = two();
        // Eight round trips of 5 µs: 2.5 µs out, 2.5 µs back.
        let mut t = 0;
        for _ in 0..8 {
            a.send_reliable(ts(t), vec![Message::new(ProcessId(1), "x")]).unwrap();
            pump(&mut a, &mut b, ts(t + 2_500));
            pump(&mut b, &mut a, ts(t + 5_000));
            t += 10_000;
        }
        assert!(a.outstanding_rel.is_empty());
        assert_eq!(
            a.rel_tx.get(ProcessId(1)).unwrap().rtt.estimate().map(|(srtt, _)| srtt),
            Some(5_000)
        );
        // The next packet is lost. Before any sample it would wait the
        // whole 100 µs `rto`.
        a.send_reliable(ts(t), vec![Message::new(ProcessId(1), "y")]).unwrap();
        while a.poll_transmit().is_some() {}
        let resent_after = (1..=100u64).map(|us| us * 1_000).find(|&dt| {
            a.poll(ts(t + dt));
            std::iter::from_fn(|| a.poll_transmit())
                .any(|d| d.header.flags.contains(Flags::RETRANSMIT))
        });
        let dt = resent_after.expect("resent");
        assert!((5_000..=20_000).contains(&dt), "resent {dt} ns after the loss");
        assert_eq!(a.stats.retransmits, 1);
    }

    #[test]
    fn reliable_escalates_to_controller_forwarding() {
        let (mut a, _b) = two();
        a.send_reliable(ts(0), vec![Message::new(ProcessId(1), "x")]).unwrap();
        while a.poll_transmit().is_some() {}
        let mut t = 0;
        for _ in 0..20 {
            t += 150_000;
            a.poll(ts(t));
            while a.poll_transmit().is_some() {}
        }
        let reqs: Vec<_> = std::iter::from_fn(|| a.poll_ctrl()).collect();
        assert!(
            reqs.iter().any(|r| matches!(r, CtrlRequest::Forward { .. })),
            "must ask controller to forward after repeated RTOs"
        );
    }

    #[test]
    fn be_ack_timeout_fires_send_failure() {
        let (mut a, _b) = two();
        a.send_unreliable(ts(0), vec![Message::new(ProcessId(1), "gone")]).unwrap();
        while a.poll_transmit().is_some() {}
        a.poll(ts(300_000)); // past the 200 µs BE ACK timeout
        let ev = a.poll_event().expect("send failure event");
        assert!(matches!(ev, UserEvent::SendFailed { dst: ProcessId(1), .. }));
        assert_eq!(a.stats.send_failures, 1);
    }

    #[test]
    fn nak_triggers_send_failure() {
        let (mut a, mut b) = two();
        // Deliver + advance b's barrier far ahead, then send a late message.
        a.send_unreliable(ts(100), vec![Message::new(ProcessId(1), "ok")]).unwrap();
        pump(&mut a, &mut b, ts(101));
        b.on_barrier(ts(1_000_000), Timestamp::ZERO);
        pump(&mut b, &mut a, ts(102)); // ACK for the first
                                       // This one will arrive below b's delivered edge → NAK.
        a.send_unreliable(ts(200), vec![Message::new(ProcessId(1), "late")]).unwrap();
        pump(&mut a, &mut b, ts(201));
        assert_eq!(b.stats.late_drops, 1);
        pump(&mut b, &mut a, ts(202));
        let evs: Vec<_> = std::iter::from_fn(|| a.poll_event()).collect();
        assert!(evs.iter().any(|e| matches!(e, UserEvent::SendFailed { .. })));
    }

    #[test]
    fn scattering_disperses_to_all_destinations() {
        let cfg = EndpointConfig::default();
        let mut a = Endpoint::new(ProcessId(0), cfg);
        let mut b = Endpoint::new(ProcessId(1), cfg);
        let mut c = Endpoint::new(ProcessId(2), cfg);
        a.send_reliable(
            ts(100),
            vec![Message::new(ProcessId(1), "to-b"), Message::new(ProcessId(2), "to-c")],
        )
        .unwrap();
        let mut for_b = Vec::new();
        let mut for_c = Vec::new();
        while let Some(d) = a.poll_transmit() {
            if d.dst == ProcessId(1) {
                for_b.push(d);
            } else if d.dst == ProcessId(2) {
                for_c.push(d);
            }
        }
        assert_eq!(for_b.len(), 1);
        assert_eq!(for_c.len(), 1);
        // Same timestamp on every packet of the scattering.
        assert_eq!(for_b[0].header.msg_ts, for_c[0].header.msg_ts);
        assert!(for_b[0].header.flags.contains(Flags::SCATTERING));
        for d in for_b {
            b.handle_datagram(ts(101), d);
        }
        for d in for_c {
            c.handle_datagram(ts(101), d);
        }
        pump(&mut b, &mut a, ts(102));
        pump(&mut c, &mut a, ts(102));
        assert!(a.outstanding_rel.is_empty(), "fully acked");
        b.on_barrier(Timestamp::ZERO, ts(200));
        c.on_barrier(Timestamp::ZERO, ts(200));
        assert_eq!(b.recv_reliable().unwrap().payload, Bytes::from_static(b"to-b"));
        assert_eq!(c.recv_reliable().unwrap().payload, Bytes::from_static(b"to-c"));
    }

    #[test]
    fn large_message_fragments_and_reassembles() {
        let (mut a, mut b) = two();
        let payload = vec![0xAB; 5000];
        a.send_unreliable(ts(100), vec![Message::new(ProcessId(1), payload.clone())]).unwrap();
        let (n, _) = pump(&mut a, &mut b, ts(101));
        assert_eq!(n, 5, "5000 B / 1024 B per fragment = 5 packets");
        b.on_barrier(ts(200), Timestamp::ZERO);
        let got = b.recv_unreliable().unwrap();
        assert_eq!(got.payload.len(), 5000);
        assert!(got.payload.iter().all(|&x| x == 0xAB));
    }

    #[test]
    fn commit_contribution_tracks_outstanding() {
        let (mut a, _) = two();
        assert_eq!(a.commit_contribution(ts(500)), ts(500));
        a.send_reliable(ts(1_000), vec![Message::new(ProcessId(1), "x")]).unwrap();
        // Outstanding at ts=1000: contribution pinned just below.
        assert_eq!(a.commit_contribution(ts(2_000)), ts(999));
        // Monotone even if asked with a smaller clock.
        assert_eq!(a.commit_contribution(ts(100)), ts(999));
    }

    #[test]
    fn timestamps_never_decrease_and_clear_commit_barrier() {
        let (mut a, _) = two();
        a.poll(ts(1_000));
        let c1 = a.commit_contribution(ts(1_000));
        assert_eq!(c1, ts(1_000));
        // Sending "now" at an older clock reading must still stamp above
        // the advertised commit barrier.
        a.send_reliable(ts(900), vec![Message::new(ProcessId(1), "x")]).unwrap();
        let d = std::iter::from_fn(|| a.poll_transmit())
            .find(|d| d.header.opcode == Opcode::DataReliable)
            .unwrap();
        assert!(d.header.msg_ts > c1);
    }

    #[test]
    fn failure_announcement_discards_and_recalls() {
        let cfg = EndpointConfig::default();
        let mut a = Endpoint::new(ProcessId(0), cfg);
        let mut b = Endpoint::new(ProcessId(1), cfg);
        // Scattering to b (alive) and p2 (will fail before ACKing).
        a.send_reliable(
            ts(100),
            vec![Message::new(ProcessId(1), "b-part"), Message::new(ProcessId(2), "dead-part")],
        )
        .unwrap();
        // Only b receives; p2's packet is lost with its failure.
        while let Some(d) = a.poll_transmit() {
            if d.dst == ProcessId(1) {
                b.handle_datagram(ts(101), d);
            }
        }
        pump(&mut b, &mut a, ts(102)); // b's ACK
        assert!(!a.outstanding_rel.is_empty(), "p2 never acked");
        // Controller announces p2's failure.
        a.on_failure_announcement(ts(200), 1, &[(ProcessId(2), ts(150))]);
        let evs: Vec<_> = std::iter::from_fn(|| a.poll_event()).collect();
        assert!(evs.iter().any(|e| matches!(e, UserEvent::Recalled { .. })));
        assert!(evs.iter().any(|e| matches!(e, UserEvent::ProcessFailed { .. })));
        // A recall flows to b; b discards and acks.
        let (n, _) = pump(&mut a, &mut b, ts(201));
        assert!(n >= 1);
        pump(&mut b, &mut a, ts(202));
        // The aborted scattering no longer blocks the commit barrier.
        assert!(a.outstanding_rel.is_empty());
        // b will never deliver the aborted message.
        b.on_barrier(Timestamp::ZERO, ts(10_000));
        assert!(b.recv_reliable().is_none(), "recalled message must not deliver");
        // After the app finishes its callback, completion is reported.
        a.complete_failure_callback(1);
        let reqs: Vec<_> = std::iter::from_fn(|| a.poll_ctrl()).collect();
        assert!(reqs.iter().any(|r| matches!(r, CtrlRequest::CallbackComplete { announce_id: 1 })));
    }

    /// `a` sends one reliable scattering to p1 and p2, p1 acknowledges
    /// its leg, and p2 is announced failed (id 1): the scattering aborts
    /// and a Recall to p1 is in flight.
    fn recall_in_flight_to_p1() -> Endpoint {
        let mut a = Endpoint::new(ProcessId(0), EndpointConfig::default());
        let mut b = Endpoint::new(ProcessId(1), EndpointConfig::default());
        a.send_reliable(
            ts(100),
            vec![Message::new(ProcessId(1), "b-part"), Message::new(ProcessId(2), "dead-part")],
        )
        .unwrap();
        while let Some(d) = a.poll_transmit() {
            if d.dst == ProcessId(1) {
                b.handle_datagram(ts(101), d);
            }
        }
        pump(&mut b, &mut a, ts(102));
        a.on_failure_announcement(ts(200), 1, &[(ProcessId(2), ts(150))]);
        let recalls: Vec<_> = std::iter::from_fn(|| a.poll_transmit())
            .filter(|d| d.header.opcode == Opcode::Recall)
            .map(|d| d.dst)
            .collect();
        assert_eq!(recalls, vec![ProcessId(1)]);
        assert_eq!(a.recalls.len(), 1);
        a
    }

    #[test]
    fn second_failure_finishes_a_recall_in_flight() {
        let mut a = recall_in_flight_to_p1();
        // p1 fails before acknowledging the Recall: nobody is left to wait
        // for, so the recall finishes and the scattering is gone.
        a.on_failure_announcement(ts(300), 2, &[(ProcessId(1), ts(250))]);
        assert!(a.outstanding_rel.is_empty());
        assert!(a.recalls.is_empty());
        a.complete_failure_callback(1);
        a.complete_failure_callback(2);
        let reqs: Vec<_> = std::iter::from_fn(|| a.poll_ctrl()).collect();
        assert_eq!(
            reqs,
            vec![
                CtrlRequest::CallbackComplete { announce_id: 1 },
                CtrlRequest::CallbackComplete { announce_id: 2 },
            ]
        );
    }

    #[test]
    fn unacknowledged_recall_is_abandoned_after_its_retries() {
        let mut a = recall_in_flight_to_p1();
        a.complete_failure_callback(1);
        assert!(a.poll_ctrl().is_none(), "the callback waits for the recall");
        // p1 is alive but never acknowledges: each RTO resends the Recall,
        // and the aborted scattering keeps holding the commit frontier.
        let rto = EndpointConfig::default().rto;
        let mut t = 200;
        for _ in 0..FORWARD_AFTER_RETRIES {
            t += rto;
            a.poll(ts(t));
            let sent: Vec<_> = std::iter::from_fn(|| a.poll_transmit())
                .map(|d| (d.dst, d.header.opcode))
                .collect();
            assert_eq!(sent, vec![(ProcessId(1), Opcode::Recall)]);
            assert!(a.commit_contribution(ts(t)) < ts(100));
        }
        // One more RTO exhausts the retries: the recall is abandoned.
        t += rto;
        a.poll(ts(t));
        assert!(a.recalls.is_empty());
        assert!(a.outstanding_rel.is_empty());
        assert!(a.commit_contribution(ts(t)) >= ts(100));
        let reqs: Vec<_> = std::iter::from_fn(|| a.poll_ctrl()).collect();
        assert_eq!(reqs, vec![CtrlRequest::CallbackComplete { announce_id: 1 }]);
    }

    #[test]
    fn duplicate_announcement_reacks_without_replaying() {
        let (mut a, _) = two();
        a.on_failure_announcement(ts(10), 1, &[(ProcessId(2), ts(5))]);
        let evs: Vec<_> = std::iter::from_fn(|| a.poll_event()).collect();
        assert_eq!(evs.iter().filter(|e| matches!(e, UserEvent::ProcessFailed { .. })).count(), 1);
        // Duplicate while the callback is still in progress: swallowed.
        a.on_failure_announcement(ts(20), 1, &[(ProcessId(2), ts(5))]);
        assert!(a.poll_event().is_none(), "no second ProcessFailed callback");
        a.complete_failure_callback(1);
        let reqs: Vec<_> = std::iter::from_fn(|| a.poll_ctrl()).collect();
        assert_eq!(
            reqs.iter()
                .filter(|r| matches!(r, CtrlRequest::CallbackComplete { announce_id: 1 }))
                .count(),
            1
        );
        // Duplicate after completion (failover re-drive): the lost
        // CallbackComplete is re-sent, nothing else happens.
        a.on_failure_announcement(ts(30), 1, &[(ProcessId(2), ts(5))]);
        assert!(a.poll_event().is_none());
        let reqs: Vec<_> = std::iter::from_fn(|| a.poll_ctrl()).collect();
        assert_eq!(
            reqs.iter()
                .filter(|r| matches!(r, CtrlRequest::CallbackComplete { announce_id: 1 }))
                .count(),
            1,
            "duplicate announcement re-acks"
        );
    }

    #[test]
    fn send_to_known_failed_process_rejected() {
        let (mut a, _) = two();
        a.on_failure_announcement(ts(10), 1, &[(ProcessId(1), ts(5))]);
        let r = a.send_reliable(ts(20), vec![Message::new(ProcessId(1), "nope")]);
        assert!(matches!(r, Err(onepipe_types::Error::ProcessFailed(ProcessId(1)))));
    }

    #[test]
    fn discard_step_drops_late_messages_from_failed() {
        let (mut a, mut b) = two();
        a.send_reliable(ts(100), vec![Message::new(ProcessId(1), "before")]).unwrap();
        pump(&mut a, &mut b, ts(101));
        // Announce a's failure at ts=50 (< 100): b discards the buffered msg.
        b.on_failure_announcement(ts(200), 1, &[(ProcessId(0), ts(50))]);
        b.on_barrier(Timestamp::ZERO, ts(10_000));
        assert!(b.recv_reliable().is_none());
        // And late retransmissions from the failed process are ignored too.
    }

    #[test]
    fn window_limits_inflight_packets() {
        let cfg = EndpointConfig { initial_cwnd: 4, ..EndpointConfig::default() };
        let mut a = Endpoint::new(ProcessId(0), cfg);
        for _ in 0..10 {
            a.send_reliable(ts(100), vec![Message::new(ProcessId(1), "m")]).unwrap();
        }
        let sent = std::iter::from_fn(|| a.poll_transmit())
            .filter(|d| d.header.opcode == Opcode::DataReliable)
            .count();
        assert_eq!(sent, 4, "cwnd=4 must cap the first burst");
        assert_eq!(a.pending.len(), 6);
    }

    #[test]
    fn unordered_mode_delivers_without_barrier() {
        let cfg = EndpointConfig::default().unordered();
        let mut a = Endpoint::new(ProcessId(0), cfg);
        let mut b = Endpoint::new(ProcessId(1), cfg);
        a.send_unreliable(ts(100), vec![Message::new(ProcessId(1), "fast")]).unwrap();
        pump(&mut a, &mut b, ts(101));
        assert_eq!(b.recv_unreliable().unwrap().payload, Bytes::from_static(b"fast"));
    }

    #[test]
    fn rx_drop_simulation_loses_messages() {
        let cfg = EndpointConfig { rx_drop_rate: 1.0, ..EndpointConfig::default() };
        let mut a = Endpoint::new(ProcessId(0), EndpointConfig::default());
        let mut b = Endpoint::new(ProcessId(1), cfg);
        a.send_unreliable(ts(100), vec![Message::new(ProcessId(1), "x")]).unwrap();
        pump(&mut a, &mut b, ts(101));
        b.on_barrier(ts(10_000), Timestamp::ZERO);
        assert!(b.recv_unreliable().is_none());
        assert_eq!(b.stats.rx_dropped, 1);
    }

    #[test]
    fn send_buffer_full_errors() {
        let cfg = EndpointConfig { send_buffer_scatterings: 2, ..EndpointConfig::default() };
        let mut cfg = cfg;
        cfg.initial_cwnd = 2;
        let mut a = Endpoint::new(ProcessId(0), cfg);
        // Fill the window with two unacked packets so later scatterings
        // queue (the window is busy, not empty, so no force-transmit).
        a.send_reliable(ts(1), vec![Message::new(ProcessId(1), "w1")]).unwrap();
        a.send_reliable(ts(2), vec![Message::new(ProcessId(1), "w2")]).unwrap();
        // These two fill the pending queue...
        assert!(a.send_reliable(ts(3), vec![Message::new(ProcessId(1), "q1")]).is_ok());
        assert!(a.send_reliable(ts(4), vec![Message::new(ProcessId(1), "q2")]).is_ok());
        // ...and the next submission is refused.
        let r = a.send_reliable(ts(5), vec![Message::new(ProcessId(1), "q3")]);
        assert!(matches!(r, Err(onepipe_types::Error::SendBufferFull)));
    }

    #[test]
    fn oversized_scattering_force_transmits_on_empty_window() {
        // A scattering needing more packets than the whole window must not
        // deadlock: with nothing in flight to free credits, it is forced
        // out as a bounded overshoot.
        let cfg = EndpointConfig { initial_cwnd: 2, ..EndpointConfig::default() };
        let mut a = Endpoint::new(ProcessId(0), cfg);
        a.send_reliable(ts(1), vec![Message::new(ProcessId(1), vec![0u8; 4000])]).unwrap();
        let sent =
            std::iter::from_fn(|| a.poll_transmit()).filter(|d| d.header.opcode.is_data()).count();
        assert_eq!(sent, 4, "all 4 fragments must go out despite cwnd=2");
    }

    #[test]
    fn head_scattering_waits_while_window_is_busy() {
        let cfg = EndpointConfig { initial_cwnd: 2, ..EndpointConfig::default() };
        let mut a = Endpoint::new(ProcessId(0), cfg);
        let data_out = |e: &mut Endpoint| {
            std::iter::from_fn(|| e.poll_transmit()).filter(|d| d.header.opcode.is_data()).count()
        };
        // Two single-packet scatterings occupy the window (unacked).
        a.send_reliable(ts(1), vec![Message::new(ProcessId(1), "w1")]).unwrap();
        a.send_reliable(ts(2), vec![Message::new(ProcessId(1), "w2")]).unwrap();
        assert_eq!(data_out(&mut a), 2);
        // A large scattering now queues: the window is busy, so it waits
        // (no force), and FIFO means a later small scattering waits too.
        a.send_reliable(ts(3), vec![Message::new(ProcessId(1), vec![0u8; 4000])]).unwrap();
        a.send_reliable(ts(4), vec![Message::new(ProcessId(1), "small")]).unwrap();
        assert_eq!(data_out(&mut a), 0, "window busy: head holds, FIFO holds");
        assert_eq!(a.pending.len(), 2);
    }

    #[test]
    fn lost_fragment_naks_whole_message() {
        // A multi-fragment best-effort message loses its middle fragment;
        // when the barrier passes, the receiver discards the incomplete
        // message and NAKs, and the sender reports the send failure.
        let (mut a, mut b) = two();
        a.send_unreliable(ts(100), vec![Message::new(ProcessId(1), vec![7u8; 3000])]).unwrap();
        let mut idx = 0;
        while let Some(d) = a.poll_transmit() {
            if d.dst == ProcessId(1) {
                idx += 1;
                if idx == 2 {
                    continue; // drop the middle fragment
                }
                b.handle_datagram(ts(101), d);
            }
        }
        b.on_barrier(ts(10_000), Timestamp::ZERO);
        assert!(b.recv_unreliable().is_none(), "incomplete message never delivers");
        // The NAK flows back and surfaces as a send failure.
        pump(&mut b, &mut a, ts(102));
        let evs: Vec<_> = std::iter::from_fn(|| a.poll_event()).collect();
        assert!(
            evs.iter().any(|e| matches!(e, UserEvent::SendFailed { dst: ProcessId(1), .. })),
            "sender must learn about the partial loss: {evs:?}"
        );
        assert_eq!(b.buffered_bytes(), 0, "fragments of the dead message freed");
    }

    #[test]
    fn duplicate_reliable_packets_deliver_once() {
        // The ACK is lost, the sender retransmits, and the receiver sees
        // the same packet twice — before and after delivery.
        let (mut a, mut b) = two();
        a.send_reliable(ts(100), vec![Message::new(ProcessId(1), "once")]).unwrap();
        let d = std::iter::from_fn(|| a.poll_transmit()).find(|d| d.dst == ProcessId(1)).unwrap();
        // First copy arrives; its ACK is lost.
        b.handle_datagram(ts(101), d.clone());
        while b.poll_transmit().is_some() {}
        // Duplicate before delivery: merged into the same pending message.
        b.handle_datagram(ts(102), d.clone());
        pump(&mut b, &mut a, ts(103)); // this ACK arrives
        b.on_barrier(Timestamp::ZERO, ts(200));
        assert_eq!(b.recv_reliable().unwrap().payload, Bytes::from_static(b"once"));
        // Duplicate after delivery: re-ACKed, never re-delivered.
        b.handle_datagram(ts(300), d);
        b.on_barrier(Timestamp::ZERO, ts(400));
        assert!(b.recv_reliable().is_none(), "no duplicate delivery");
        let ack = std::iter::from_fn(|| b.poll_transmit()).find(|x| x.header.opcode == Opcode::Ack);
        assert!(ack.is_some(), "late duplicates are re-ACKed");
        assert_eq!(b.stats.delivered_rel, 1);
    }

    #[test]
    fn ecn_echo_shrinks_congestion_window() {
        let (mut a, mut b) = two();
        // Send a full window; deliver every packet with the ECN bit set,
        // as a congested switch would.
        for _ in 0..64 {
            a.send_reliable(ts(100), vec![Message::new(ProcessId(1), "x")]).unwrap();
        }
        let before = a.rel_tx.get(ProcessId(1)).unwrap().cwnd();
        while let Some(mut d) = a.poll_transmit() {
            if d.dst == ProcessId(1) {
                d.header.flags.insert(Flags::ECN);
                b.handle_datagram(ts(101), d);
            }
        }
        pump(&mut b, &mut a, ts(102)); // ECN-echoing ACKs
        let after = a.rel_tx.get(ProcessId(1)).unwrap().cwnd();
        assert!(after < before, "cwnd must shrink on ECN echo: {before} -> {after}");
    }

    #[test]
    fn aborted_scattering_holds_commit_frontier_until_recall_completes() {
        // Atomicity corner: scattering S = {B ok, C fails}. While the
        // Recall to B is in flight, the sender's commit barrier must stay
        // below S's timestamp — otherwise B could deliver S before
        // discarding it.
        let cfg = EndpointConfig::default();
        let mut a = Endpoint::new(ProcessId(0), cfg);
        let mut b = Endpoint::new(ProcessId(1), cfg);
        a.poll(ts(50));
        a.send_reliable(
            ts(100),
            vec![Message::new(ProcessId(1), "b-leg"), Message::new(ProcessId(2), "c-leg")],
        )
        .unwrap();
        // B receives and ACKs its leg; C's leg is lost with C.
        while let Some(d) = a.poll_transmit() {
            if d.dst == ProcessId(1) {
                b.handle_datagram(ts(101), d);
            }
        }
        pump(&mut b, &mut a, ts(102));
        // C is announced failed: the scattering aborts, Recall goes out.
        a.on_failure_announcement(ts(200), 1, &[(ProcessId(2), ts(90))]);
        // CRITICAL: before B acknowledges the recall, the commit frontier
        // must still exclude the aborted scattering's timestamp.
        let frontier = a.commit_contribution(ts(300));
        assert!(frontier < ts(100), "commit frontier {frontier:?} must hold below the aborted ts");
        // Deliver the Recall; B discards and acks; frontier then advances.
        let (_, _) = pump(&mut a, &mut b, ts(301));
        pump(&mut b, &mut a, ts(302));
        let frontier = a.commit_contribution(ts(400));
        assert!(frontier >= ts(100), "recall complete: frontier may advance");
        // B never delivers the aborted message at any barrier.
        b.on_barrier(Timestamp::ZERO, ts(10_000));
        assert!(b.recv_reliable().is_none());
    }

    #[test]
    fn buffered_bytes_accounting() {
        let (mut a, mut b) = two();
        a.send_reliable(ts(100), vec![Message::new(ProcessId(1), vec![1u8; 2048])]).unwrap();
        assert!(a.buffered_bytes() >= 2048);
        pump(&mut a, &mut b, ts(101));
        assert!(b.buffered_bytes() >= 2048);
        pump(&mut b, &mut a, ts(102));
        assert_eq!(a.buffered_bytes(), 0, "acked packets freed");
        b.on_barrier(Timestamp::ZERO, ts(200));
        assert_eq!(b.buffered_bytes(), 0, "delivered messages freed");
        assert!(b.max_rx_buffered() >= 2048);
    }
    /// The timeout scans, gated by the table's earliest-`sent_at` bound,
    /// act on exactly the packets a brute-force scan of every channel
    /// ([`TxChannel::expired`]) finds at every tick: same retransmissions,
    /// forward requests and send failures, in the same order, whatever
    /// pattern of lost ACKs keeps the bound stale.
    mod timeout_bound {
        use super::*;
        use proptest::prelude::*;

        const PEERS: u32 = 6;

        proptest! {
            #[test]
            fn acts_on_exactly_what_a_full_scan_finds(seed in any::<u64>(), ack_loss_pct in 0u64..70) {
                let cfg = EndpointConfig { rx_drop_rate: 0.0, ..EndpointConfig::default() };
                let mut a = Endpoint::new(ProcessId(0), cfg);
                let mut peers: Vec<Endpoint> =
                    (1..=PEERS).map(|p| Endpoint::new(ProcessId(p), cfg)).collect();
                let mut rng = seed | 1;
                let mut draw = move |n: u64| {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (rng >> 33) % n
                };
                // Peer 1 never answers: its packets run through every
                // retry and end up forwarded.
                let (mut retransmits, mut forwards, mut failures) = (0, 0, 0);
                for tick in 1..=1_200u64 {
                    let now = ts(tick * 3_000);
                    // The reference: every channel, every outstanding packet.
                    fn packet(ch: &TxChannel, psn: u32) -> &OutPacket {
                        ch.outstanding.iter().find(|&(p, _)| p == psn).expect("expired ⇒ outstanding").1
                    }
                    let mut due_rel = Vec::new();
                    for ch in a.rel_tx.iter() {
                        for psn in ch.expired(now) {
                            if !packet(ch, psn).forwarding {
                                due_rel.push((ch.peer, psn));
                            }
                        }
                    }
                    let mut due_be = Vec::new();
                    for ch in a.be_tx.iter() {
                        for psn in ch.expired(now) {
                            let scat = packet(ch, psn).scat;
                            due_be.push((scat.0, scat.1, ch.peer));
                        }
                    }
                    // A send polls too; either way the tick's first poll
                    // has to act on the reference.
                    if draw(4) == 0 {
                        let dst = ProcessId(1 + draw(PEERS as u64) as u32);
                        let msgs = vec![Message::new(dst, vec![7u8; 1 + draw(3_000) as usize])];
                        let _ = if draw(2) == 0 {
                            a.send_reliable(now, msgs)
                        } else {
                            a.send_unreliable(now, msgs)
                        };
                    }
                    a.poll(now);
                    let mut acted_rel = Vec::new();
                    while let Some(req) = a.poll_ctrl() {
                        if let CtrlRequest::Forward { dgram } = req {
                            acted_rel.push((dgram.dst, dgram.header.psn));
                            forwards += 1;
                        }
                    }
                    let mut on_wire = Vec::new();
                    while let Some(d) = a.poll_transmit() {
                        if d.header.flags.contains(Flags::RETRANSMIT) {
                            acted_rel.push((d.dst, d.header.psn));
                            retransmits += 1;
                        }
                        on_wire.push(d);
                    }
                    // One tick forwards or retransmits a given packet,
                    // never both, so sorting merges the two streams back
                    // into scan order.
                    acted_rel.sort();
                    prop_assert_eq!(acted_rel, due_rel, "tick {}", tick);
                    let mut acted_be = Vec::new();
                    while let Some(ev) = a.poll_event() {
                        if let UserEvent::SendFailed { ts, seq, dst } = ev {
                            acted_be.push((ts, seq, dst));
                            failures += 1;
                        }
                    }
                    prop_assert_eq!(acted_be, due_be, "tick {}", tick);
                    // The network: peer 1 is a black hole, the others
                    // answer, and some of their ACKs are lost.
                    for d in on_wire {
                        if d.dst == HOP_LOCAL || d.dst == ProcessId(1) {
                            continue;
                        }
                        let peer = &mut peers[d.dst.0 as usize - 1];
                        peer.handle_datagram(now, d);
                        while let Some(ack) = peer.poll_transmit() {
                            if draw(100) >= ack_loss_pct {
                                a.handle_datagram(now, ack);
                            }
                        }
                    }
                }
                prop_assert!(retransmits > 0 && forwards > 0 && failures > 0);
            }
        }
    }
}
