//! Token-ring total order broadcast (Totem \[78\] / token protocols
//! \[36, 60, 86\] in the paper's related work).
//!
//! A single token circulates among all processes in id order. Only the
//! holder may broadcast: it stamps queued messages with consecutive
//! global sequence numbers taken from a counter carried in the token,
//! sends one copy per process, and passes the token on. Receivers deliver
//! in contiguous sequence order. Throughput is inherently bounded by
//! "one sender at a time" plus the token rotation time.

use crate::host::{Broadcaster, HostBase, WORK_BASE};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use onepipe_netsim::engine::{Ctx, NodeLogic, SimPacket};
use onepipe_types::ids::{NodeId, ProcessId};
use std::collections::BTreeMap;

/// Timer token used when every process is local and the token must park
/// briefly instead of recursing forever.
const TOKEN_RESUME: u64 = 97;

/// Payload tag: a data copy.
const TAG_DATA: u8 = 0;
/// Payload tag: the token.
const TAG_TOKEN: u8 = 1;

fn data_payload(origin: ProcessId, k: u64) -> Bytes {
    let mut b = BytesMut::with_capacity(13 + 51);
    b.put_u8(TAG_DATA);
    b.put_u32(origin.0);
    b.put_u64(k);
    b.extend_from_slice(&[0u8; 51]);
    b.freeze()
}

fn token_payload(counter: u64) -> Bytes {
    let mut b = BytesMut::with_capacity(9);
    b.put_u8(TAG_TOKEN);
    b.put_u64(counter);
    b.freeze()
}

/// Host logic for the token-ring broadcast. The host running the first
/// process starts the token at t=0.
pub struct TokenHost {
    base: HostBase,
    /// Maximum broadcasts sent per token visit.
    batch: usize,
    /// Locally queued broadcasts per process, waiting for the token.
    queued: Vec<Vec<u64>>,
    // Receiver state.
    next_deliver: Vec<u64>,
    pending: Vec<BTreeMap<u64, (ProcessId, u64)>>,
    /// Token waiting to resume on a fully-local ring.
    parked_token: Option<(ProcessId, u64)>,
}

impl TokenHost {
    /// Create the logic for one host; a holder sends at most `batch`
    /// broadcasts per token visit.
    pub fn new(base: HostBase, batch: usize) -> Self {
        let n = base.procs.len();
        TokenHost {
            base,
            batch,
            queued: vec![Vec::new(); n],
            next_deliver: vec![1; n],
            pending: vec![BTreeMap::new(); n],
            parked_token: None,
        }
    }

    fn next_proc(&self, p: ProcessId) -> ProcessId {
        let pos = self.base.all.iter().position(|&x| x == p).unwrap();
        self.base.all[(pos + 1) % self.base.all.len()]
    }

    fn handle_token(&mut self, ctx: &mut Ctx<'_>, holder: ProcessId, counter: u64) {
        let mut holder = holder;
        let mut counter = counter;
        // Iterate over consecutive local holders; bounded by the ring size
        // so a fully-local ring parks instead of spinning forever.
        for _ in 0..self.base.all.len() {
            let Some(i) = self.base.local_index(holder) else {
                self.base.send(ctx, self.base.procs[0], holder, 0, token_payload(counter));
                return;
            };
            let take = self.queued[i].len().min(self.batch);
            let burst: Vec<u64> = self.queued[i].drain(..take).collect();
            for k in burst {
                counter += 1;
                for p in self.base.all.clone() {
                    if self.base.local_index(p).is_some() {
                        // Local copy: deliver via loopback.
                        self.on_data(ctx.now(), p, holder, k, counter);
                    } else {
                        self.base.send(ctx, holder, p, counter as u32, data_payload(holder, k));
                    }
                }
            }
            holder = self.next_proc(holder);
        }
        // The whole ring lives on this host: park the token for a moment.
        self.parked_token = Some((holder, counter));
        ctx.set_timer(1_000, TOKEN_RESUME);
    }

    fn on_data(&mut self, now: u64, receiver: ProcessId, origin: ProcessId, k: u64, seq: u64) {
        let Some(i) = self.base.local_index(receiver) else { return };
        self.pending[i].insert(seq, (origin, k));
        while let Some(&(origin, k)) = self.pending[i].get(&self.next_deliver[i]) {
            let seq = self.next_deliver[i];
            self.pending[i].remove(&seq);
            self.next_deliver[i] += 1;
            self.base.probe.lock().unwrap().record_delivery(now, receiver, origin, k, (seq, 0));
        }
    }
}

impl Broadcaster for TokenHost {
    fn base(&mut self) -> &mut HostBase {
        &mut self.base
    }

    fn broadcast(&mut self, _ctx: &mut Ctx<'_>, i: usize, k: u64) {
        self.queued[i].push(k);
    }
}

impl NodeLogic for TokenHost {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.base.start(ctx, 131);
        let first = self.base.all[0];
        if self.base.local_index(first).is_some() {
            self.handle_token(ctx, first, 0);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, pkt: SimPacket) {
        let d = pkt.dgram;
        let mut payload = d.payload.clone();
        if payload.is_empty() {
            return;
        }
        match payload.get_u8() {
            TAG_TOKEN if payload.remaining() >= 8 => {
                let counter = payload.get_u64();
                self.handle_token(ctx, d.dst, counter);
            }
            TAG_DATA if payload.remaining() >= 12 => {
                let origin = ProcessId(payload.get_u32());
                let k = payload.get_u64();
                self.on_data(ctx.now(), d.dst, origin, k, d.header.psn as u64);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TOKEN_RESUME {
            if let Some((holder, counter)) = self.parked_token.take() {
                self.handle_token(ctx, holder, counter);
            }
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

    fn run_token(n: usize, rate: f64, dur: u64) -> ProbeHandle {
        let (mut sim, probe) = world(n, 4, rate, u64::MAX, |b| TokenHost::new(b, 8));
        sim.run_until(dur);
        probe
    }

    #[test]
    fn token_ring_delivers_in_order() {
        let probe = run_token(4, 200_000.0, 2_000_000);
        assert!(probe.lock().unwrap().delivery_count() > 0);
        assert_eq!(probe.lock().unwrap().order_violations, 0);
    }

    #[test]
    fn token_throughput_bounded_by_rotation() {
        // Offered load far above what one-at-a-time can serve: deliveries
        // must lag far behind sends × receivers.
        let probe = run_token(8, 5_000_000.0, 2_000_000);
        let p = probe.lock().unwrap();
        let delivered_broadcasts = p.delivery_count() / 8;
        // 2 ms at 5 M/s per process × 8 procs = 80 000 offered broadcasts.
        assert!(
            delivered_broadcasts < 40_000,
            "token ring cannot serve saturating load, served {delivered_broadcasts}"
        );
        assert_eq!(p.order_violations, 0);
    }
}
