//! What every baseline host shares, and the one way to build a baseline
//! run.
//!
//! [`HostBase`] holds a host's processes, the workload that drives them
//! and the probe that watches them; each scheme's host embeds one and
//! keeps only its ordering logic. The workload is the same for every
//! scheme: local process `i` sends on timer `WORK_BASE + i`, first at a
//! phase staggered by the scheme's multiplier, then every `1e9 / rate`
//! ns until it has sent `max_sends` broadcasts. [`world`] places one
//! host per server on plain switches.

use crate::measure::{BroadcastProbe, ProbeHandle};
use crate::plain::PlainSwitch;
use bytes::Bytes;
use onepipe_netsim::engine::{Ctx, NodeLogic, Sim, SimPacket};
use onepipe_netsim::topology::{FatTreeParams, Topology};
use onepipe_types::ids::{HostId, NodeId, ProcessId};
use onepipe_types::process_map::ProcessMap;
use onepipe_types::time::Timestamp;
use onepipe_types::wire::{Datagram, Flags, Opcode, PacketHeader};
use std::sync::Arc;

/// Timer token of local process `i`'s workload is `WORK_BASE + i`; the
/// schemes' own timer tokens sit below it.
pub(crate) const WORK_BASE: u64 = 100;

/// The part of a baseline host every scheme embeds.
pub struct HostBase {
    /// This host's ToR switch.
    tor: NodeId,
    /// Local processes.
    pub(crate) procs: Vec<ProcessId>,
    /// Every process in the system, in id order.
    pub(crate) all: Vec<ProcessId>,
    /// Broadcasts per second offered by each local process.
    rate: f64,
    /// Stop each process's workload after this many sends.
    max_sends: u64,
    sent: Vec<u64>,
    /// Records every send and delivery.
    pub(crate) probe: ProbeHandle,
}

/// A scheme's host: the shared part, and how the scheme broadcasts.
pub(crate) trait Broadcaster {
    /// The embedded shared part.
    fn base(&mut self) -> &mut HostBase;
    /// Broadcast local process `i`'s `k`-th message.
    fn broadcast(&mut self, ctx: &mut Ctx<'_>, i: usize, k: u64);
}

impl HostBase {
    /// Send a datagram from `src` to `dst` through this host's ToR.
    pub(crate) fn send(
        &self,
        ctx: &mut Ctx<'_>,
        src: ProcessId,
        dst: ProcessId,
        psn: u32,
        payload: Bytes,
    ) {
        let header = PacketHeader {
            msg_ts: Timestamp::ZERO,
            barrier: Timestamp::ZERO,
            commit_barrier: Timestamp::ZERO,
            psn,
            opcode: Opcode::Control,
            flags: Flags::empty(),
        };
        ctx.send(self.tor, SimPacket::new(Datagram { src, dst, header, payload }));
    }

    /// Time between two sends of one process (ns).
    pub(crate) fn interval(&self) -> u64 {
        (1e9 / self.rate).max(1.0) as u64
    }

    /// Index of `p` among the local processes.
    pub(crate) fn local_index(&self, p: ProcessId) -> Option<usize> {
        self.procs.iter().position(|&x| x == p)
    }

    /// Arm every local process's first work timer at `1 + (id · phase)
    /// mod interval`, so the processes do not send in synchronized bursts.
    pub(crate) fn start(&self, ctx: &mut Ctx<'_>, phase: u64) {
        for (i, p) in self.procs.iter().enumerate() {
            ctx.set_timer(1 + (p.0 as u64 * phase) % self.interval(), WORK_BASE + i as u64);
        }
    }

    /// Work timer `token` fired on `host`: unless the process has reached
    /// its cap, number and record its next broadcast, let the scheme send
    /// it, and re-arm the timer.
    pub(crate) fn work<H: Broadcaster>(host: &mut H, ctx: &mut Ctx<'_>, token: u64) {
        let base = host.base();
        let i = (token - WORK_BASE) as usize;
        if i >= base.procs.len() || base.sent[i] >= base.max_sends {
            return;
        }
        let k = base.sent[i];
        base.sent[i] += 1;
        base.probe.lock().unwrap().record_send(ctx.now(), base.procs[i], k);
        host.broadcast(ctx, i, k);
        ctx.set_timer(host.base().interval(), token);
    }
}

/// The fat tree for `n` processes: one rack of `n` servers up to 8
/// processes (the paper's placement), the 32-server testbed above.
pub fn fat_tree_for(n: usize) -> FatTreeParams {
    if n <= 8 {
        FatTreeParams::single_rack(n.max(2) as u32)
    } else {
        FatTreeParams::testbed()
    }
}

/// Build a baseline run with `seed`: `n` processes placed round-robin on
/// [`fat_tree_for`]`(n)` with plain switches, and on every server that
/// runs a process the host `make` builds around its [`HostBase`]. Each
/// process offers `rate` broadcasts/s and stops after `max_sends`.
pub fn world<H: NodeLogic + 'static>(
    n: usize,
    seed: u64,
    rate: f64,
    max_sends: u64,
    mut make: impl FnMut(HostBase) -> H,
) -> (Sim, ProbeHandle) {
    let mut sim = Sim::new(seed);
    let topo = Arc::new(Topology::build(&mut sim, fat_tree_for(n)));
    let procs = Arc::new(ProcessMap::place_round_robin(topo.num_hosts(), n));
    PlainSwitch::install_all(&mut sim, &topo, &procs);
    let probe = BroadcastProbe::shared();
    let all: Vec<ProcessId> = procs.all().collect();
    for h in 0..topo.num_hosts() {
        let host = HostId(h as u32);
        let local = procs.processes_on(host).to_vec();
        if local.is_empty() {
            continue;
        }
        let base = HostBase {
            tor: topo.tor_up_of(host),
            sent: vec![0; local.len()],
            procs: local,
            all: all.clone(),
            rate,
            max_sends,
            probe: probe.clone(),
        };
        sim.set_logic(topo.host_node(host), Box::new(make(base)));
    }
    (sim, probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lamport::LamportHost;
    use crate::sequencer::{SeqHost, SeqKind};
    use crate::token::TokenHost;

    /// Deliveries of a lossless 4-process rack whose processes each stop
    /// after 25 broadcasts, once it has drained.
    fn drained<H: NodeLogic + 'static>(make: impl FnMut(HostBase) -> H) -> usize {
        let (mut sim, probe) = world(4, 1, 100_000.0, 25, make);
        sim.run_until(5_000_000);
        let p = probe.lock().unwrap();
        assert_eq!(p.order_violations, 0);
        p.delivery_count()
    }

    #[test]
    fn every_scheme_stops_at_the_send_cap() {
        // 4 processes × 25 broadcasts × 4 receivers, each delivered once.
        assert_eq!(drained(|b| SeqHost::new(b, ProcessId(0), SeqKind::Switch)), 400);
        assert_eq!(drained(|b| TokenHost::new(b, 8)), 400);
        assert_eq!(drained(|b| LamportHost::new(b, 10_000)), 400);
    }
}
