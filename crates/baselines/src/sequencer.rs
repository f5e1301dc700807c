//! Centralized-sequencer total order broadcast (Figure 8's "SwitchSeq"
//! and "HostSeq").
//!
//! Every broadcast detours through one sequencer process, which assigns a
//! global sequence number and fans out one copy per process. Receivers
//! deliver in contiguous sequence order. The two variants differ in the
//! sequencer's per-packet service time: a programmable-switch sequencer
//! (Eris \[51\] / NetChain \[52\]) serializes at chip speed, while a host-NIC
//! sequencer (FaSST-style \[57\]) is an order of magnitude slower.
//!
//! Modelling note (recorded in DESIGN.md): both variants run the
//! sequencer as a process on host 0 with different service rates. The
//! real SwitchSeq detour is 1–2 hops shorter; the dominant scalability
//! effects — the central service bottleneck and the N× fan-out bandwidth
//! at one point — are captured exactly.

use crate::host::{Broadcaster, HostBase, WORK_BASE};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use onepipe_netsim::engine::{Ctx, NodeLogic, SimPacket};
use onepipe_types::ids::{NodeId, ProcessId};
use onepipe_types::time::Duration;
use std::collections::{BTreeMap, VecDeque};

/// Timer token for sequencer service completion.
const SERVICE: u64 = 99;
/// Packet sequence number of a request to the sequencer.
const REQUEST: u32 = u32::MAX;
/// Packet sequence number of a receiver's gap NAK.
const GAP_NAK: u32 = u32::MAX - 1;

/// Sequencer variant service times (per request, ns).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeqKind {
    /// Programmable switching chip: ~100 Mpps.
    Switch,
    /// Host NIC + CPU: ~2.5 Mpps once fan-out work is included.
    Host,
}

impl SeqKind {
    /// Service time per sequenced broadcast (excluding fan-out
    /// serialization, which the egress link models).
    pub fn service_ns(self) -> Duration {
        match self {
            SeqKind::Switch => 10,
            SeqKind::Host => 400,
        }
    }
}

fn req_payload(origin: ProcessId, k: u64) -> Bytes {
    let mut b = BytesMut::with_capacity(12 + 52);
    b.put_u32(origin.0);
    b.put_u64(k);
    b.extend_from_slice(&[0u8; 52]); // pad to the paper's 64 B messages
    b.freeze()
}

fn parse_payload(mut p: Bytes) -> Option<(ProcessId, u64)> {
    if p.len() < 12 {
        return None;
    }
    Some((ProcessId(p.get_u32()), p.get_u64()))
}

/// Host logic for the sequencer-based broadcast: runs the local processes'
/// workload, and — on the host owning the sequencer process — the
/// sequencer service loop.
pub struct SeqHost {
    base: HostBase,
    /// The sequencer process.
    seq_proc: ProcessId,
    kind: SeqKind,
    // Sequencer state (active only on its host).
    service_queue: VecDeque<(ProcessId, u64)>,
    busy: bool,
    next_seq: u64,
    /// Recent sequenced broadcasts, kept for gap retransmission.
    history: VecDeque<(u64, ProcessId, u64)>,
    // Receiver state: contiguous-order delivery per local process.
    next_deliver: Vec<u64>,
    pending: Vec<BTreeMap<u64, (ProcessId, u64)>>,
}

impl SeqHost {
    /// Create the logic for one host; `seq_proc` is the sequencer.
    pub fn new(base: HostBase, seq_proc: ProcessId, kind: SeqKind) -> Self {
        let n = base.procs.len();
        SeqHost {
            base,
            seq_proc,
            kind,
            service_queue: VecDeque::new(),
            busy: false,
            next_seq: 1,
            history: VecDeque::new(),
            next_deliver: vec![1; n],
            pending: vec![BTreeMap::new(); n],
        }
    }

    fn serve_one(&mut self, ctx: &mut Ctx<'_>) {
        if let Some((origin, k)) = self.service_queue.pop_front() {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.history.push_back((seq, origin, k));
            if self.history.len() > 4096 {
                self.history.pop_front();
            }
            for &p in &self.base.all {
                self.base.send(ctx, self.seq_proc, p, seq as u32, req_payload(origin, k));
            }
            self.busy = true;
            ctx.set_timer(self.kind.service_ns(), SERVICE);
        } else {
            self.busy = false;
        }
    }

    /// Queue a request at the sequencer, serving it now if idle.
    fn enqueue(&mut self, ctx: &mut Ctx<'_>, origin: ProcessId, k: u64) {
        self.service_queue.push_back((origin, k));
        if !self.busy {
            self.serve_one(ctx);
        }
    }

    /// Gap recovery: re-send one sequenced broadcast to one receiver.
    fn retransmit(&mut self, ctx: &mut Ctx<'_>, to: ProcessId, seq: u64) {
        if let Some(&(_, origin, k)) = self.history.iter().find(|(s, _, _)| *s == seq) {
            self.base.send(ctx, self.seq_proc, to, seq as u32, req_payload(origin, k));
        }
    }

    fn sequencer_is_local(&self) -> bool {
        self.base.local_index(self.seq_proc).is_some()
    }
}

impl Broadcaster for SeqHost {
    fn base(&mut self) -> &mut HostBase {
        &mut self.base
    }

    fn broadcast(&mut self, ctx: &mut Ctx<'_>, i: usize, k: u64) {
        let origin = self.base.procs[i];
        if self.sequencer_is_local() {
            // Request to a sequencer on this very host: short-circuit.
            self.enqueue(ctx, origin, k);
        } else {
            self.base.send(ctx, origin, self.seq_proc, REQUEST, req_payload(origin, k));
        }
    }
}

impl NodeLogic for SeqHost {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.base.start(ctx, 97);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, pkt: SimPacket) {
        let d = pkt.dgram;
        if d.dst == self.seq_proc && self.sequencer_is_local() && d.header.psn == REQUEST {
            if let Some((origin, k)) = parse_payload(d.payload) {
                self.enqueue(ctx, origin, k);
            }
            return;
        }
        if d.header.psn == GAP_NAK && self.sequencer_is_local() {
            if let Some((_, missing)) = parse_payload(d.payload) {
                self.retransmit(ctx, d.src, missing);
            }
            return;
        }
        // Sequenced copy for a local process.
        let Some(i) = self.base.local_index(d.dst) else { return };
        let Some((origin, k)) = parse_payload(d.payload) else { return };
        let seq = d.header.psn as u64;
        self.pending[i].insert(seq, (origin, k));
        // A gap ahead of the delivery cursor: ask the sequencer to
        // retransmit the first missing broadcast (simple go-back cursor).
        if seq > self.next_deliver[i] && !self.pending[i].contains_key(&self.next_deliver[i]) {
            let nak = req_payload(d.dst, self.next_deliver[i]);
            self.base.send(ctx, d.dst, self.seq_proc, GAP_NAK, nak);
        }
        // Deliver the contiguous prefix.
        while let Some(&(origin, k)) = self.pending[i].get(&self.next_deliver[i]) {
            let seq = self.next_deliver[i];
            self.pending[i].remove(&seq);
            self.next_deliver[i] += 1;
            self.base.probe.lock().unwrap().record_delivery(
                ctx.now(),
                self.base.procs[i],
                origin,
                k,
                (seq, 0),
            );
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == SERVICE {
            self.serve_one(ctx);
        } else if token >= WORK_BASE {
            HostBase::work(self, ctx, token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::world;
    use crate::measure::ProbeHandle;

    fn run_seq(kind: SeqKind, n: usize, rate: f64, dur_ns: u64) -> (ProbeHandle, usize) {
        let (mut sim, probe) = world(n, 3, rate, u64::MAX, |b| SeqHost::new(b, ProcessId(0), kind));
        sim.run_until(dur_ns);
        let n_del = probe.lock().unwrap().delivery_count();
        (probe, n_del)
    }

    #[test]
    fn sequencer_delivers_in_total_order() {
        let (probe, n_del) = run_seq(SeqKind::Switch, 4, 100_000.0, 1_000_000);
        assert!(n_del > 0, "deliveries happened");
        assert_eq!(probe.lock().unwrap().order_violations, 0);
    }

    #[test]
    fn host_sequencer_is_slower_than_switch() {
        // Saturating load: the switch sequencer serves more broadcasts.
        let (_, switch_del) = run_seq(SeqKind::Switch, 4, 3_000_000.0, 2_000_000);
        let (_, host_del) = run_seq(SeqKind::Host, 4, 3_000_000.0, 2_000_000);
        assert!(switch_del > host_del, "switch seq {switch_del} should beat host seq {host_del}");
    }

    #[test]
    fn sequencer_recovers_from_losses() {
        // With lossy links, gap NAKs must keep delivery flowing instead of
        // stalling forever behind the first hole.
        let (mut sim, probe) =
            world(4, 17, 100_000.0, 200, |b| SeqHost::new(b, ProcessId(0), SeqKind::Switch));
        sim.set_global_loss_rate(0.02);
        sim.run_until(20_000_000);
        let p = probe.lock().unwrap();
        assert_eq!(p.order_violations, 0);
        // 4 procs × 200 sends × 4 receivers = 3200 expected deliveries;
        // requests to the sequencer can be lost too (those broadcasts never
        // exist), but sequenced copies must recover via NAKs.
        assert!(p.delivery_count() > 2_900, "only {} of ~3200 deliveries", p.delivery_count());
    }

    #[test]
    fn all_processes_receive_every_broadcast() {
        let (probe, n_del) = run_seq(SeqKind::Switch, 4, 50_000.0, 1_000_000);
        // Each sequenced broadcast is delivered to all 4 processes.
        assert_eq!(n_del % 4, 0);
        assert!(n_del >= 4);
        assert_eq!(probe.lock().unwrap().order_violations, 0);
    }
}
