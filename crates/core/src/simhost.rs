//! Adapter running the transport-agnostic [`HostRuntime`] inside the
//! network simulator.
//!
//! One [`HostLogic`] per server: it is nothing but glue between the
//! simulator's [`NodeLogic`] callbacks and the host's [`ProcessNode`] —
//! packets go to [`HostRuntime::on_datagram`], the poll timer to
//! [`HostRuntime::on_tick`], and the harness hands controller actions to
//! [`ProcessNode::on_action`]. The runtime's output leaves through a
//! [`SimWire`]: emissions become simulator packets toward the ToR, and
//! deliveries, user events and controller requests land in the [`Sinks`]
//! every host of one simulation shares with the harness that reads them.
//! All pump semantics (drain order, beacon invariant) live in
//! [`crate::runtime`].

use crate::events::{CtrlRequest, UserEvent};
use crate::node::ProcessNode;
use crate::runtime::{HostRuntime, Wire};
use onepipe_netsim::engine::{Ctx, NodeLogic, SimPacket};
use onepipe_netsim::traffic::BackgroundTraffic;
use onepipe_types::ids::{NodeId, ProcessId};
use onepipe_types::time::Timestamp;
use onepipe_types::wire::Datagram;
use std::cell::RefCell;
use std::rc::Rc;

pub use crate::runtime::{AppHook, DeliveryRecord, SendQueue};

/// Timer token for the host's periodic poll/beacon tick.
pub const TOKEN_POLL: u64 = 3;

/// What the hosts of one simulation hand the harness, in the order they
/// produced it (event order).
#[derive(Default)]
pub struct Sinks {
    /// Deliveries to applications.
    pub deliveries: Vec<DeliveryRecord>,
    /// User events: `(true time, process, event)`.
    pub user_events: Vec<(u64, ProcessId, UserEvent)>,
    /// Controller requests not yet routed: `(true time raised, process,
    /// request)`. Every push raises the engine's attention flag.
    pub ctrl_requests: Vec<(u64, ProcessId, CtrlRequest)>,
}

/// [`Wire`] over a simulator context: datagrams become [`SimPacket`]s on
/// the host→ToR link, everything else lands in the shared [`Sinks`].
pub struct SimWire<'a, 'b> {
    ctx: &'a mut Ctx<'b>,
    tor: NodeId,
    sinks: &'a RefCell<Sinks>,
}

impl Wire for SimWire<'_, '_> {
    fn emit(&mut self, d: Datagram) {
        self.ctx.send(self.tor, SimPacket::new(d));
    }

    fn deliver(&mut self, rec: DeliveryRecord) {
        self.sinks.borrow_mut().deliveries.push(rec);
    }

    fn user_event(&mut self, at: u64, proc: ProcessId, ev: UserEvent) {
        self.sinks.borrow_mut().user_events.push((at, proc, ev));
    }

    /// The harness routes requests between event batches, and only when
    /// told there is one: end the batch here.
    fn ctrl_request(&mut self, at: u64, proc: ProcessId, req: CtrlRequest) {
        self.sinks.borrow_mut().ctrl_requests.push((at, proc, req));
        self.ctx.raise_attention();
    }
}

/// The node logic of one simulated server: a [`ProcessNode`] plus the
/// ToR link and optional background traffic.
pub struct HostLogic {
    tor: NodeId,
    /// The host's node; its runtime does the actual work.
    pub node: ProcessNode,
    sinks: Rc<RefCell<Sinks>>,
    traffic: Option<BackgroundTraffic>,
}

impl std::ops::Deref for HostLogic {
    type Target = HostRuntime;
    fn deref(&self) -> &HostRuntime {
        &self.node.rt
    }
}

impl std::ops::DerefMut for HostLogic {
    fn deref_mut(&mut self) -> &mut HostRuntime {
        &mut self.node.rt
    }
}

impl HostLogic {
    /// Run `rt` behind ToR node `tor`, its output going to `sinks`.
    pub fn new(rt: HostRuntime, tor: NodeId, sinks: Rc<RefCell<Sinks>>) -> Self {
        HostLogic { tor, node: ProcessNode::new(rt), sinks, traffic: None }
    }

    /// Attach background traffic flows (Figure 12 experiments).
    pub fn set_traffic(&mut self, traffic: BackgroundTraffic) {
        self.traffic = Some(traffic);
    }

    /// Call into the node with this host's wire over `ctx` and the
    /// simulated time — every entry point that can produce output takes
    /// both.
    pub fn drive<R>(
        &mut self,
        ctx: &mut Ctx<'_>,
        f: impl FnOnce(&mut ProcessNode, &mut SimWire<'_, '_>, u64) -> R,
    ) -> R {
        let now = ctx.now();
        f(&mut self.node, &mut SimWire { ctx, tor: self.tor, sinks: &self.sinks }, now)
    }

    fn arm_poll(&self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        ctx.set_timer(self.node.rt.next_tick_at(now) - now, TOKEN_POLL);
    }
}

impl NodeLogic for HostLogic {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.arm_poll(ctx);
        if let Some(traffic) = &mut self.traffic {
            traffic.start(ctx);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, pkt: SimPacket) {
        self.drive(ctx, |node, wire, now| node.rt.on_datagram(wire, now, pkt.dgram));
    }

    fn on_beacon(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, be: Timestamp, commit: Timestamp) {
        self.drive(ctx, |node, wire, now| node.rt.on_beacon(wire, now, be, commit));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if BackgroundTraffic::owns_token(token) {
            if let Some(traffic) = &mut self.traffic {
                traffic.on_timer(ctx, token);
            }
            return;
        }
        if token == TOKEN_POLL {
            self.drive(ctx, |node, wire, now| node.rt.on_tick(wire, now));
            self.arm_poll(ctx);
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EndpointConfig;
    use crate::endpoint::{Endpoint, HOP_LOCAL};
    use bytes::Bytes;
    use onepipe_clock::MonotonicClock;
    use onepipe_netsim::engine::Sim;
    use onepipe_netsim::link::LinkParams;
    use onepipe_types::ids::HostId;
    use onepipe_types::message::Message;
    use onepipe_types::time::MICROS;
    use onepipe_types::wire::{Flags, Opcode, PacketHeader};
    use std::sync::{Arc, Mutex};

    /// Records everything a "switch" node receives from the host.
    struct SwitchProbe {
        log: Arc<Mutex<Vec<(u64, Datagram)>>>,
    }
    impl onepipe_netsim::engine::NodeLogic for SwitchProbe {
        fn on_packet(
            &mut self,
            ctx: &mut Ctx<'_>,
            _from: onepipe_types::ids::NodeId,
            pkt: onepipe_netsim::engine::SimPacket,
        ) {
            self.log.lock().unwrap().push((ctx.now(), pkt.dgram));
        }
    }

    type ProbeLog = Arc<Mutex<Vec<(u64, Datagram)>>>;

    fn host_under_probe(n_procs: u32) -> (Sim, onepipe_types::ids::NodeId, ProbeLog) {
        let mut sim = Sim::new(1);
        let host_node = sim.add_node();
        let switch_node = sim.add_node();
        sim.add_duplex_link(host_node, switch_node, LinkParams::default());
        let log = Arc::new(Mutex::new(Vec::new()));
        sim.set_logic(switch_node, Box::new(SwitchProbe { log: log.clone() }));
        let endpoints =
            (0..n_procs).map(|i| Endpoint::new(ProcessId(i), EndpointConfig::default())).collect();
        let rt = HostRuntime::new(HostId(0), MonotonicClock::perfect(), endpoints, 3 * MICROS);
        sim.set_logic(host_node, Box::new(HostLogic::new(rt, switch_node, Rc::default())));
        (sim, host_node, log)
    }

    #[test]
    fn host_beacons_every_interval() {
        let (mut sim, _host, log) = host_under_probe(2);
        sim.run_until(30 * MICROS);
        let beacons: Vec<u64> = log
            .lock()
            .unwrap()
            .iter()
            .filter(|(_, d)| d.header.opcode == Opcode::Beacon)
            .map(|(at, _)| *at)
            .collect();
        assert!(beacons.len() >= 9, "one beacon per 3 µs: got {}", beacons.len());
        // Cadence ≈ the interval (aligned slots + wire time).
        for w in beacons.windows(2) {
            let gap = w[1] - w[0];
            assert!((2_000..4_500).contains(&gap), "beacon gap {gap}ns");
        }
    }

    #[test]
    fn host_beacon_carries_min_commit_over_processes() {
        let (mut sim, host, log) = host_under_probe(2);
        sim.run_until(10 * MICROS);
        // Process 0 has an outstanding reliable scattering; the host's
        // commit contribution must pin just below its timestamp even
        // though process 1 is idle.
        sim.with_node(host, |logic, ctx| {
            let hl = logic.as_any_mut().unwrap().downcast_mut::<HostLogic>().unwrap();
            let msgs = vec![Message::new(ProcessId(5), "outstanding")];
            hl.drive(ctx, |node, wire, now| {
                node.rt.submit_send(wire, now, ProcessId(0), msgs, true)
            })
            .unwrap();
        });
        let sent_at = sim.now();
        sim.run_until(sent_at + 10 * MICROS);
        let last_beacon = log
            .lock()
            .unwrap()
            .iter()
            .rev()
            .find(|(_, d)| d.header.opcode == Opcode::Beacon)
            .map(|(_, d)| d.header)
            .unwrap();
        // Commit contribution pinned below the outstanding ts (≈ sent_at);
        // the best-effort contribution keeps tracking the clock.
        assert!(last_beacon.commit_barrier.raw() < sent_at);
        assert!(last_beacon.barrier.raw() > sent_at);
    }

    #[test]
    fn beacons_fan_out_to_all_endpoints() {
        let (mut sim, host, _log) = host_under_probe(3);
        sim.run_until(5 * MICROS);
        // Inject a barrier beacon at the host; every endpoint must see it.
        let beacon = Datagram {
            src: HOP_LOCAL,
            dst: HOP_LOCAL,
            header: PacketHeader {
                msg_ts: Timestamp::ZERO,
                barrier: Timestamp::from_nanos(4_000),
                commit_barrier: Timestamp::from_nanos(3_000),
                psn: 0,
                opcode: Opcode::Beacon,
                flags: Flags::empty(),
            },
            payload: Bytes::new(),
        };
        sim.with_node(host, |logic, ctx| {
            logic.on_packet(
                ctx,
                onepipe_types::ids::NodeId(1),
                onepipe_netsim::engine::SimPacket::new(beacon),
            );
        });
        sim.with_node(host, |logic, _| {
            let hl = logic.as_any_mut().unwrap().downcast_mut::<HostLogic>().unwrap();
            for ep in &hl.endpoints {
                let (be, commit) = ep.barriers();
                assert_eq!(be, Timestamp::from_nanos(4_000));
                assert_eq!(commit, Timestamp::from_nanos(3_000));
            }
        });
    }

    #[test]
    fn commit_messages_are_sent_to_the_tor() {
        let (mut sim, host, log) = host_under_probe(1);
        sim.run_until(5 * MICROS);
        sim.with_node(host, |logic, ctx| {
            let hl = logic.as_any_mut().unwrap().downcast_mut::<HostLogic>().unwrap();
            let msgs = vec![Message::new(ProcessId(9), "x")];
            hl.drive(ctx, |node, wire, now| {
                node.rt.submit_send(wire, now, ProcessId(0), msgs, true)
            })
            .unwrap();
        });
        // Let the data packet reach the switch probe.
        sim.run_until(sim.now() + 5 * MICROS);
        let ack = log
            .lock()
            .unwrap()
            .iter()
            .find(|(_, d)| d.header.opcode == Opcode::DataReliable)
            .map(|(_, d)| Datagram {
                src: d.dst,
                dst: d.src,
                header: PacketHeader {
                    msg_ts: d.header.msg_ts,
                    barrier: Timestamp::ZERO,
                    commit_barrier: Timestamp::ZERO,
                    psn: d.header.psn,
                    opcode: Opcode::Ack,
                    flags: crate::frag::REL_CHANNEL,
                },
                payload: Bytes::new(),
            })
            .expect("data packet was transmitted");
        // Feed the full-ACK back: the endpoint must emit a Commit message,
        // which the host routes to its first-hop switch.
        sim.with_node(host, |logic, ctx| {
            let hl = logic.as_any_mut().unwrap().downcast_mut::<HostLogic>().unwrap();
            let now = ctx.now();
            let local = Timestamp::from_nanos(now);
            hl.endpoint_mut(ProcessId(0)).unwrap().handle_datagram(local, ack);
            hl.drive(ctx, |node, wire, now| node.rt.flush(wire, now));
        });
        sim.run_until(sim.now() + 5 * MICROS);
        let commits =
            log.lock().unwrap().iter().filter(|(_, d)| d.header.opcode == Opcode::Commit).count();
        assert!(commits >= 1, "commit message must reach the first-hop switch");
    }
}
