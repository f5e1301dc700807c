//! Lamport-timestamp total order broadcast with periodic timestamp
//! exchange (the paper's "Lamport" baseline, §7.2: "a common optimization
//! ... which exchanges received timestamps per interval rather than per
//! message").
//!
//! Every process stamps broadcasts with a Lamport logical clock and sends
//! copies directly to all processes. A receiver may deliver a message
//! only once it knows every process's clock has passed the message's
//! timestamp, which it learns from data messages and from periodic status
//! broadcasts. The status exchange is O(N²) messages per interval — the
//! scalability wall Figure 8 shows. This is also the "receiver-side
//! aggregation" ablation: it computes exactly the 1Pipe barrier, but at
//! the edge instead of in the network.

use crate::host::{Broadcaster, HostBase, WORK_BASE};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use onepipe_netsim::engine::{Ctx, NodeLogic, SimPacket};
use onepipe_types::ids::{NodeId, ProcessId};
use std::collections::BTreeMap;

const EXCHANGE: u64 = 98;

const TAG_DATA: u8 = 0;
const TAG_STATUS: u8 = 1;

/// Host logic for Lamport-timestamp broadcast.
pub struct LamportHost {
    base: HostBase,
    /// Status-exchange interval (ns).
    pub exchange_interval: u64,
    /// Per-local-process Lamport clock.
    lts: Vec<u64>,
    /// Per-local-process: last known clock of every process.
    last_seen: Vec<Vec<u64>>,
    /// Per-local-process buffered messages keyed by (lts, origin, k).
    pending: Vec<BTreeMap<(u64, u32, u64), ()>>,
}

impl LamportHost {
    /// Create the logic for one host; every `exchange_interval` ns each
    /// local process broadcasts its clock.
    pub fn new(base: HostBase, exchange_interval: u64) -> Self {
        let n_local = base.procs.len();
        let n_all = base.all.len();
        LamportHost {
            base,
            exchange_interval,
            lts: vec![0; n_local],
            last_seen: vec![vec![0; n_all]; n_local],
            pending: vec![BTreeMap::new(); n_local],
        }
    }

    fn data_payload(origin: ProcessId, k: u64, ts: u64) -> Bytes {
        let mut b = BytesMut::with_capacity(21 + 43);
        b.put_u8(TAG_DATA);
        b.put_u32(origin.0);
        b.put_u64(k);
        b.put_u64(ts);
        b.extend_from_slice(&[0u8; 43]);
        b.freeze()
    }

    fn status_payload(origin: ProcessId, ts: u64) -> Bytes {
        let mut b = BytesMut::with_capacity(13);
        b.put_u8(TAG_STATUS);
        b.put_u32(origin.0);
        b.put_u64(ts);
        b.freeze()
    }

    /// Try to deliver buffered messages on local process `i`: everything
    /// strictly below the minimum clock seen from all processes.
    fn try_deliver(&mut self, now: u64, i: usize) {
        let min_seen = *self.last_seen[i].iter().min().unwrap_or(&0);
        while let Some((&(ts, origin, k), _)) = self.pending[i].first_key_value() {
            if ts >= min_seen {
                break;
            }
            self.pending[i].remove(&(ts, origin, k));
            self.base.probe.lock().unwrap().record_delivery(
                now,
                self.base.procs[i],
                ProcessId(origin),
                k,
                (ts, origin),
            );
        }
    }

    fn observe(&mut self, now: u64, i: usize, from: ProcessId, ts: u64) {
        if let Some(g) = self.base.all.iter().position(|&x| x == from) {
            if self.last_seen[i][g] < ts {
                self.last_seen[i][g] = ts;
                self.try_deliver(now, i);
            }
        }
    }
}

impl Broadcaster for LamportHost {
    fn base(&mut self) -> &mut HostBase {
        &mut self.base
    }

    fn broadcast(&mut self, ctx: &mut Ctx<'_>, i: usize, k: u64) {
        let origin = self.base.procs[i];
        self.lts[i] += 1;
        let ts = self.lts[i];
        for p in self.base.all.clone() {
            if let Some(j) = self.base.local_index(p) {
                self.pending[j].insert((ts, origin.0, k), ());
                self.observe(ctx.now(), j, origin, ts);
            } else {
                self.base.send(ctx, origin, p, 0, Self::data_payload(origin, k, ts));
            }
        }
    }
}

impl NodeLogic for LamportHost {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.base.start(ctx, 89);
        ctx.set_timer(self.exchange_interval, EXCHANGE);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, pkt: SimPacket) {
        let d = pkt.dgram;
        let mut p = d.payload.clone();
        if p.is_empty() {
            return;
        }
        let tag = p.get_u8();
        let Some(i) = self.base.local_index(d.dst) else { return };
        match tag {
            TAG_DATA if p.remaining() >= 20 => {
                let origin = ProcessId(p.get_u32());
                let k = p.get_u64();
                let ts = p.get_u64();
                self.lts[i] = self.lts[i].max(ts);
                self.pending[i].insert((ts, origin.0, k), ());
                // A data message also reveals the sender's clock.
                self.observe(ctx.now(), i, origin, ts);
            }
            TAG_STATUS if p.remaining() >= 12 => {
                let origin = ProcessId(p.get_u32());
                let ts = p.get_u64();
                self.lts[i] = self.lts[i].max(ts);
                self.observe(ctx.now(), i, origin, ts);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == EXCHANGE {
            // Every local process broadcasts its clock to everyone.
            for i in 0..self.base.procs.len() {
                self.lts[i] += 1;
                let origin = self.base.procs[i];
                let ts = self.lts[i];
                for p in self.base.all.clone() {
                    if let Some(j) = self.base.local_index(p) {
                        self.observe(ctx.now(), j, origin, ts);
                    } else {
                        self.base.send(ctx, origin, p, 0, Self::status_payload(origin, ts));
                    }
                }
            }
            ctx.set_timer(self.exchange_interval, EXCHANGE);
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

    fn run_lamport(n: usize, rate: f64, exchange: u64, dur: u64) -> ProbeHandle {
        let (mut sim, probe) = world(n, 5, rate, u64::MAX, |b| LamportHost::new(b, exchange));
        sim.run_until(dur);
        probe
    }

    #[test]
    fn lamport_delivers_in_consistent_order() {
        let probe = run_lamport(4, 100_000.0, 10_000, 3_000_000);
        assert!(probe.lock().unwrap().delivery_count() > 0);
        assert_eq!(probe.lock().unwrap().order_violations, 0);
    }

    #[test]
    fn shorter_exchange_interval_means_lower_latency() {
        let fast = run_lamport(4, 50_000.0, 5_000, 3_000_000);
        let slow = run_lamport(4, 50_000.0, 50_000, 3_000_000);
        let fm = fast.lock().unwrap().metrics(4, 500_000, 3_000_000);
        let sm = slow.lock().unwrap().metrics(4, 500_000, 3_000_000);
        assert!(fm.latency.mean() > 0.0 && sm.latency.mean() > 0.0);
        assert!(
            fm.latency.mean() < sm.latency.mean(),
            "fast {} vs slow {}",
            fm.latency.mean(),
            sm.latency.mean()
        );
    }
}
