//! Adapter running the transport-agnostic [`HostRuntime`] inside the
//! network simulator.
//!
//! One [`HostLogic`] per server: it is nothing but glue between the
//! simulator's [`NodeLogic`] callbacks and the runtime — packets go to
//! [`HostRuntime::on_datagram`], the poll timer to
//! [`HostRuntime::on_tick`], and the runtime's [`Wire`] emissions become
//! simulator packets toward the ToR. All pump semantics (drain order,
//! beacon invariant, ctrl routing) live in [`crate::runtime`].

use crate::runtime::{HostRuntime, Wire};
use onepipe_clock::MonotonicClock;
use onepipe_netsim::engine::{Ctx, NodeLogic, SimPacket};
use onepipe_netsim::traffic::BackgroundTraffic;
use onepipe_types::ids::{HostId, NodeId, ProcessId};
use onepipe_types::message::Message;
use onepipe_types::time::{Duration, Timestamp};
use onepipe_types::wire::Datagram;
use std::sync::{Arc, Mutex};

use crate::events::{CtrlRequest, UserEvent};
pub use crate::runtime::{AppHook, DeliveryRecord, SendQueue};

/// Timer token for the host's periodic poll/beacon tick.
pub const TOKEN_POLL: u64 = 3;

/// [`Wire`] over a simulator context: datagrams become [`SimPacket`]s on
/// the host→ToR link.
struct SimWire<'a, 'b> {
    ctx: &'a mut Ctx<'b>,
    tor: NodeId,
}

impl Wire for SimWire<'_, '_> {
    fn now(&self) -> u64 {
        self.ctx.now()
    }

    fn emit(&mut self, d: Datagram) {
        self.ctx.send(self.tor, SimPacket::new(d));
    }

    fn raise_attention(&mut self) {
        self.ctx.raise_attention();
    }
}

/// The node logic of one simulated server: a [`HostRuntime`] plus the
/// ToR link and optional background traffic.
pub struct HostLogic {
    tor: NodeId,
    /// The transport-agnostic runtime doing the actual work.
    pub rt: HostRuntime,
    traffic: Option<BackgroundTraffic>,
}

impl std::ops::Deref for HostLogic {
    type Target = HostRuntime;
    fn deref(&self) -> &HostRuntime {
        &self.rt
    }
}

impl std::ops::DerefMut for HostLogic {
    fn deref_mut(&mut self) -> &mut HostRuntime {
        &mut self.rt
    }
}

impl HostLogic {
    /// Create the logic for `host`, attached to ToR node `tor`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        host: HostId,
        tor: NodeId,
        clock: MonotonicClock,
        endpoints: Vec<crate::endpoint::Endpoint>,
        beacon_interval: Duration,
        deliveries: Arc<Mutex<Vec<DeliveryRecord>>>,
        ctrl_outbox: Arc<Mutex<Vec<(u64, ProcessId, CtrlRequest)>>>,
        user_events: Arc<Mutex<Vec<(u64, ProcessId, UserEvent)>>>,
    ) -> Self {
        HostLogic {
            tor,
            rt: HostRuntime::new(
                host,
                clock,
                endpoints,
                beacon_interval,
                deliveries,
                ctrl_outbox,
                user_events,
            ),
            traffic: None,
        }
    }

    /// Attach background traffic flows (Figure 12 experiments).
    pub fn set_traffic(&mut self, traffic: BackgroundTraffic) {
        self.traffic = Some(traffic);
    }

    fn wire<'a, 'b>(&self, ctx: &'a mut Ctx<'b>) -> SimWire<'a, 'b> {
        SimWire { ctx, tor: self.tor }
    }

    /// Issue a scattering from a local process right now (harness API).
    /// Returns the send timestamp on success.
    pub fn send_from(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: ProcessId,
        msgs: Vec<Message>,
        reliable: bool,
    ) -> onepipe_types::Result<Timestamp> {
        self.send_from_traced(ctx, from, msgs, reliable).map(|(ts, _)| ts)
    }

    /// Like [`send_from`](Self::send_from), additionally returning the
    /// scattering sequence number — chaos oracles join delivery records to
    /// registered sends by `(sender, seq)`.
    pub fn send_from_traced(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: ProcessId,
        msgs: Vec<Message>,
        reliable: bool,
    ) -> onepipe_types::Result<(Timestamp, u64)> {
        let mut wire = self.wire(ctx);
        self.rt.submit_send(&mut wire, from, msgs, reliable)
    }

    /// Deliver a controller failure announcement to a local process.
    pub fn deliver_announcement(
        &mut self,
        ctx: &mut Ctx<'_>,
        to: ProcessId,
        announce_id: u64,
        failures: &[(ProcessId, Timestamp)],
    ) {
        let mut wire = self.wire(ctx);
        self.rt.deliver_announcement(&mut wire, to, announce_id, failures);
    }

    /// Deliver a controller-forwarded datagram to a local process.
    pub fn deliver_forwarded(&mut self, ctx: &mut Ctx<'_>, d: Datagram) {
        let mut wire = self.wire(ctx);
        self.rt.deliver_forwarded(&mut wire, d);
    }

    /// Drain endpoint outputs through the runtime pump.
    pub fn flush(&mut self, ctx: &mut Ctx<'_>) {
        let mut wire = self.wire(ctx);
        self.rt.flush(&mut wire);
    }

    fn arm_poll(&self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        ctx.set_timer(self.rt.next_tick_at(now) - now, TOKEN_POLL);
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
        let mut wire = SimWire { ctx, tor: self.tor };
        self.rt.on_datagram(&mut wire, pkt.dgram);
    }

    fn on_beacon(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, be: Timestamp, commit: Timestamp) {
        let mut wire = SimWire { ctx, tor: self.tor };
        self.rt.on_beacon(&mut wire, be, commit);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if BackgroundTraffic::owns_token(token) {
            if let Some(traffic) = &mut self.traffic {
                traffic.on_timer(ctx, token);
            }
            return;
        }
        if token == TOKEN_POLL {
            let mut wire = SimWire { ctx, tor: self.tor };
            self.rt.on_tick(&mut wire);
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
    use onepipe_types::time::MICROS;
    use onepipe_types::wire::{Flags, Opcode, PacketHeader};

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
        let logic = HostLogic::new(
            HostId(0),
            switch_node,
            MonotonicClock::perfect(),
            endpoints,
            3 * MICROS,
            Arc::new(Mutex::new(Vec::new())),
            Arc::new(Mutex::new(Vec::new())),
            Arc::new(Mutex::new(Vec::new())),
        );
        sim.set_logic(host_node, Box::new(logic));
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
            hl.send_from(ctx, ProcessId(0), vec![Message::new(ProcessId(5), "outstanding")], true)
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
            hl.send_from(ctx, ProcessId(0), vec![Message::new(ProcessId(9), "x")], true).unwrap();
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
            hl.flush(ctx);
        });
        sim.run_until(sim.now() + 5 * MICROS);
        let commits =
            log.lock().unwrap().iter().filter(|(_, d)| d.header.opcode == Opcode::Commit).count();
        assert!(commits >= 1, "commit message must reach the first-hop switch");
    }
}
