//! A plain forwarding switch (no barrier logic) for baseline runs.

use onepipe_netsim::engine::{Ctx, NodeLogic, SimPacket};
use onepipe_netsim::topology::Topology;
use onepipe_types::ids::{HostId, NodeId};
use onepipe_types::process_map::ProcessMap;
use std::sync::Arc;

/// Forwards every packet toward its destination process's host, nothing
/// else — the behaviour of an ordinary data center switch.
pub struct PlainSwitch {
    topo: Arc<Topology>,
    procs: Arc<ProcessMap>,
    /// Packets forwarded.
    pub forwarded: u64,
    /// Packets dropped for lack of a route.
    pub unroutable: u64,
}

impl PlainSwitch {
    /// Create a plain switch.
    pub fn new(topo: Arc<Topology>, procs: Arc<ProcessMap>) -> Self {
        PlainSwitch { topo, procs, forwarded: 0, unroutable: 0 }
    }

    /// Install plain switches on every switch node of a topology.
    pub fn install_all(
        sim: &mut onepipe_netsim::engine::Sim,
        topo: &Arc<Topology>,
        procs: &Arc<ProcessMap>,
    ) {
        for &s in &topo.switch_nodes {
            sim.set_logic(s, Box::new(PlainSwitch::new(topo.clone(), procs.clone())));
        }
    }
}

impl NodeLogic for PlainSwitch {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, pkt: SimPacket) {
        let Some(dst_host) = self.procs.host_of(pkt.dgram.dst) else {
            self.unroutable += 1;
            return;
        };
        let src_host = self.procs.host_of(pkt.dgram.src).unwrap_or(HostId(0));
        let Some(next) = self.topo.route(ctx.node(), src_host, dst_host) else {
            self.unroutable += 1;
            return;
        };
        self.forwarded += 1;
        ctx.send(next, pkt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use onepipe_netsim::engine::Sim;
    use onepipe_netsim::topology::FatTreeParams;
    use onepipe_types::ids::ProcessId;
    use onepipe_types::time::Timestamp;
    use onepipe_types::wire::{Datagram, Flags, Opcode, PacketHeader};
    use std::sync::Mutex;

    struct Probe {
        tor: NodeId,
        out: Vec<Datagram>,
        got: Arc<Mutex<Vec<Datagram>>>,
    }
    impl NodeLogic for Probe {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for d in self.out.drain(..) {
                ctx.send(self.tor, SimPacket::new(d));
            }
        }
        fn on_packet(&mut self, _: &mut Ctx<'_>, _: NodeId, pkt: SimPacket) {
            self.got.lock().unwrap().push(pkt.dgram);
        }
    }

    #[test]
    fn plain_switch_routes_across_pods() {
        let mut sim = Sim::new(0);
        let topo = Arc::new(Topology::build(&mut sim, FatTreeParams::testbed()));
        let procs = Arc::new(ProcessMap::place_round_robin(32, 32));
        PlainSwitch::install_all(&mut sim, &topo, &procs);
        let got = Arc::new(Mutex::new(Vec::new()));
        let d = Datagram {
            src: ProcessId(0),
            dst: ProcessId(31),
            header: PacketHeader {
                msg_ts: Timestamp::ZERO,
                barrier: Timestamp::ZERO,
                commit_barrier: Timestamp::ZERO,
                psn: 7,
                opcode: Opcode::Control,
                flags: Flags::empty(),
            },
            payload: Bytes::from_static(b"x"),
        };
        sim.set_logic(
            topo.host_node(HostId(0)),
            Box::new(Probe { tor: topo.tor_up_of(HostId(0)), out: vec![d], got: got.clone() }),
        );
        let sink = Arc::new(Mutex::new(Vec::new()));
        sim.set_logic(
            topo.host_node(HostId(31)),
            Box::new(Probe { tor: topo.tor_up_of(HostId(31)), out: vec![], got: sink.clone() }),
        );
        sim.run_until(1_000_000);
        assert_eq!(sink.lock().unwrap().len(), 1);
        assert_eq!(sink.lock().unwrap()[0].header.psn, 7);
        assert!(got.lock().unwrap().is_empty());
    }
}
