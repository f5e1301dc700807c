//! The simulator's switch driver: [`SwitchLogic`] runs a [`SwitchNode`]
//! as a netsim node, the way [`crate::simhost`] runs a host's.
//!
//! It keeps what only the simulator has: the route cache keyed by link
//! epoch, the failure-event outbox shared with the harness, and the
//! beacon phase (synchronized, or drawn from the simulation's RNG). Data
//! and timers go straight to the node's [`SwitchCore`]; the harness hands
//! controller actions to [`SwitchNode::on_action`].

use crate::node::SwitchNode;
use onepipe_netsim::engine::{Arrived, Ctx, NodeLogic, SimPacket};
use onepipe_netsim::topology::Topology;
use onepipe_switchlogic::{SwitchConfig, SwitchCore, SwitchWire};
use onepipe_types::ids::{HostId, NodeId, ProcessId};
use onepipe_types::process_map::ProcessMap;
use onepipe_types::time::{Duration, Timestamp};
use onepipe_types::wire::PacketHeader;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Timer token: periodic beacon / dead-link scan.
const TOKEN_BEACON: u64 = 1;
/// Timer token: the core's one-shot timer.
const TOKEN_CORE: u64 = 2;

/// An input link is dead after this many silent beacon intervals (§4.2:
/// "e.g., 10 beacon intervals").
const DEAD_AFTER_INTERVALS: u64 = 10;

/// Failure-related events surfaced to the harness/controller.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SwitchEvent {
    /// An input link went silent past the timeout; carries the last commit
    /// barrier observed on it (the Detect report of §5.2).
    InLinkDead {
        /// The reporting switch.
        switch: NodeId,
        /// The silent upstream neighbor.
        from: NodeId,
        /// Last commit barrier seen on the link.
        last_commit: Timestamp,
    },
}

/// State shared by every switch in one simulation.
#[derive(Clone)]
pub struct SwitchShared {
    /// The routing topology.
    pub topo: Arc<Topology>,
    /// Process → host placement (routing key).
    pub procs: Arc<ProcessMap>,
    /// Outbox of failure events, drained by the harness; every push is
    /// followed by [`Ctx::raise_attention`].
    pub events: Rc<RefCell<Vec<SwitchEvent>>>,
}

/// The viable next hops toward one destination host, as of a link-state
/// epoch.
#[derive(Clone, Copy, Debug)]
struct CachedRoute {
    /// [`Ctx::link_epoch`] when `viable` was computed; the entry is stale
    /// under any other.
    epoch: u64,
    /// [`Topology::viable_hops`] from this switch.
    viable: u64,
}

/// Node logic of one logical switch (an up- or down-half).
pub struct SwitchLogic {
    shared: SwitchShared,
    cfg: SwitchConfig,
    /// The switch itself; its core is built on start, when the node's
    /// links are known.
    pub node: SwitchNode,
    /// Per destination host. Viability is a walk down the tree per hop;
    /// it only changes when a link does, which is rare next to packets.
    routes: Vec<CachedRoute>,
}

/// The [`SwitchWire`] of one callback: the node's [`Ctx`] and its route
/// cache. Its packet is the one that arrived, left in the engine's pool:
/// the chip rewrites its header there and forwards it from there.
struct SimWire<'a, 'c> {
    ctx: &'a mut Ctx<'c>,
    shared: &'a SwitchShared,
    routes: &'a mut [CachedRoute],
}

impl SwitchWire for SimWire<'_, '_> {
    type Packet = Arrived;

    fn header<'p>(&'p mut self, pkt: &'p mut Arrived) -> &'p mut PacketHeader {
        &mut self.ctx.packet_mut(pkt).dgram.header
    }

    fn route(&mut self, pkt: &Arrived) -> Option<NodeId> {
        let dgram = &self.ctx.packet(pkt).dgram;
        let (src, dst) = (dgram.src, dgram.dst);
        self.route_to(src, dst)
    }

    fn forward(&mut self, to: NodeId, pkt: Arrived) {
        self.ctx.forward(to, pkt);
    }

    fn beacon(&mut self, to: NodeId, be: Timestamp, commit: Timestamp) {
        self.ctx.send_beacon(to, be, commit);
    }

    fn set_timer(&mut self, delay: Duration) {
        self.ctx.set_timer(delay, TOKEN_CORE);
    }

    fn dead_input(&mut self, from: NodeId, last_commit: Timestamp) {
        let switch = self.ctx.node();
        self.shared.events.borrow_mut().push(SwitchEvent::InLinkDead { switch, from, last_commit });
        self.ctx.raise_attention();
    }
}

impl SimWire<'_, '_> {
    /// The live ECMP next hop from `src` toward `dst`: the flow hash
    /// selects among the destination's cached viable hops, recomputed
    /// ([`Topology::viable_hops`]) after any link changed state.
    fn route_to(&mut self, src: ProcessId, dst: ProcessId) -> Option<NodeId> {
        let (ctx, procs, topo) = (&*self.ctx, &self.shared.procs, &self.shared.topo);
        let dst_host = procs.host_of(dst)?;
        let src_host = procs.host_of(src).unwrap_or(HostId(0));
        let epoch = ctx.link_epoch();
        let route = &mut self.routes[dst_host.0 as usize];
        if route.epoch != epoch {
            let viable = topo.viable_hops(ctx.node(), dst_host, |a, b| ctx.global_link_is_up(a, b));
            *route = CachedRoute { epoch, viable };
        }
        topo.route_masked(ctx.node(), src_host, dst_host, route.viable)
    }
}

impl SwitchLogic {
    /// Create the logic for one switch node.
    pub fn new(shared: SwitchShared, cfg: SwitchConfig) -> Self {
        // No epoch has this value, so every entry starts stale.
        let stale = CachedRoute { epoch: u64::MAX, viable: 0 };
        SwitchLogic {
            routes: vec![stale; shared.topo.num_hosts()],
            shared,
            cfg,
            node: SwitchNode::new(SwitchCore::new(cfg, Vec::new(), &[], 0)),
        }
    }

    /// The live ECMP next hop for `pkt`'s destination, as the switch
    /// would forward it.
    pub fn next_hop(&mut self, ctx: &mut Ctx<'_>, pkt: &SimPacket) -> Option<NodeId> {
        self.drive(ctx, |_, wire, _| wire.route_to(pkt.dgram.src, pkt.dgram.dst))
    }

    /// Run `f` on the core with this callback's wire.
    fn drive<R>(
        &mut self,
        ctx: &mut Ctx<'_>,
        f: impl FnOnce(&mut SwitchCore, &mut SimWire, u64) -> R,
    ) -> R {
        let now = ctx.now();
        let mut wire = SimWire { ctx, shared: &self.shared, routes: &mut self.routes };
        f(&mut self.node.core, &mut wire, now)
    }

    fn arm_beacon_timer(&self, ctx: &mut Ctx<'_>) {
        let t = self.cfg.beacon_interval;
        let delay = if self.cfg.synchronized_beacons {
            t - (ctx.now() % t)
        } else {
            // Random phase: desynchronized beacons (ablation).
            use rand::Rng;
            ctx.rng().random_range(1..=t)
        };
        ctx.set_timer(delay, TOKEN_BEACON);
    }
}

impl NodeLogic for SwitchLogic {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let dead_timeout = self.cfg.beacon_interval * DEAD_AFTER_INTERVALS;
        let inputs = ctx.in_neighbors().to_vec();
        self.node.core = SwitchCore::new(self.cfg, inputs, ctx.out_neighbors(), dead_timeout);
        self.arm_beacon_timer(ctx);
    }

    /// The engine hands its arrivals to [`on_arrival`](Self::on_arrival);
    /// a packet handed over by value goes the same way.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: NodeId, pkt: SimPacket) {
        let pkt = ctx.adopt(pkt);
        self.on_arrival(ctx, from, pkt);
    }

    fn on_arrival(&mut self, ctx: &mut Ctx<'_>, from: NodeId, pkt: Arrived) {
        self.drive(ctx, |core, wire, now| core.on_packet(wire, now, from, pkt));
    }

    fn on_beacon(&mut self, ctx: &mut Ctx<'_>, from: NodeId, be: Timestamp, commit: Timestamp) {
        self.drive(ctx, |core, wire, now| core.on_beacon(wire, now, from, be, commit));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TOKEN_BEACON => {
                self.drive(ctx, |core, wire, now| core.on_tick(wire, now));
                self.arm_beacon_timer(ctx);
            }
            TOKEN_CORE => self.drive(ctx, |core, wire, now| core.on_timer(wire, now)),
            _ => {}
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use onepipe_netsim::engine::Sim;
    use onepipe_netsim::topology::FatTreeParams;
    use onepipe_switchlogic::Incarnation;
    use onepipe_types::ids::{LinkId, ProcessId, HOP_LOCAL};
    use onepipe_types::time::MICROS;
    use onepipe_types::wire::{Datagram, Flags, Opcode};
    use std::sync::Mutex;

    /// A trivial host that records barriers seen in beacons, and can send
    /// one pre-armed data packet.
    struct ProbeHost {
        tor: NodeId,
        outbox: Vec<Datagram>,
        barriers: BarrierLog,
        received: Arc<Mutex<Vec<Datagram>>>,
    }
    impl NodeLogic for ProbeHost {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for d in self.outbox.drain(..) {
                ctx.send(self.tor, SimPacket::new(d));
            }
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, pkt: SimPacket) {
            let h = pkt.dgram.header;
            if h.opcode == Opcode::Beacon {
                self.barriers.lock().unwrap().push((ctx.now(), h.barrier, h.commit_barrier));
            } else {
                self.received.lock().unwrap().push(pkt.dgram);
            }
        }
    }

    type BarrierLog = Arc<Mutex<Vec<(u64, Timestamp, Timestamp)>>>;

    struct World {
        sim: Sim,
        topo: Arc<Topology>,
        shared: SwitchShared,
        barriers: Vec<BarrierLog>,
        received: Vec<Arc<Mutex<Vec<Datagram>>>>,
    }

    /// Build a single-rack world with `n` probe hosts; host i's outbox is
    /// `outboxes[i]`.
    fn build_world(n: u32, cfg: SwitchConfig, mut outboxes: Vec<Vec<Datagram>>) -> World {
        let mut sim = Sim::new(99);
        let topo = Arc::new(Topology::build(&mut sim, FatTreeParams::single_rack(n)));
        let procs = Arc::new(ProcessMap::place_round_robin(n as usize, n as usize));
        let shared = SwitchShared { topo: topo.clone(), procs, events: Rc::default() };
        for &s in &topo.switch_nodes {
            sim.set_logic(s, Box::new(SwitchLogic::new(shared.clone(), cfg)));
        }
        let mut barriers = Vec::new();
        let mut received = Vec::new();
        for h in 0..n {
            let b = Arc::new(Mutex::new(Vec::new()));
            let r = Arc::new(Mutex::new(Vec::new()));
            let outbox = if (h as usize) < outboxes.len() {
                std::mem::take(&mut outboxes[h as usize])
            } else {
                Vec::new()
            };
            sim.set_logic(
                topo.host_node(HostId(h)),
                Box::new(ProbeHost {
                    tor: topo.tor_up_of(HostId(h)),
                    outbox,
                    barriers: b.clone(),
                    received: r.clone(),
                }),
            );
            barriers.push(b);
            received.push(r);
        }
        World { sim, topo, shared, barriers, received }
    }

    fn data_dgram(src: u32, dst: u32, ts: u64) -> Datagram {
        Datagram {
            src: ProcessId(src),
            dst: ProcessId(dst),
            header: PacketHeader::data(Timestamp::from_nanos(ts), 0, Flags::END_OF_MESSAGE),
            payload: Bytes::from_static(b"payload"),
        }
    }

    #[test]
    fn data_is_routed_between_hosts() {
        let mut w = build_world(4, SwitchConfig::default(), vec![vec![data_dgram(0, 3, 1000)]]);
        w.sim.run_until(100_000);
        let got = w.received[3].lock().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].src, ProcessId(0));
    }

    #[test]
    fn chip_rewrites_barrier_to_minimum() {
        // Host 0 sends a data packet; without beacons from hosts 1..3 the
        // ToR's min is ZERO, so the rewritten barrier must be ZERO, not the
        // sender's msg_ts.
        let mut w = build_world(4, SwitchConfig::default(), vec![vec![data_dgram(0, 3, 5_000)]]);
        w.sim.run_until(2_000); // before any host beacons exist
        let got = w.received[3].lock().unwrap();
        if let Some(d) = got.first() {
            assert_eq!(d.header.barrier, Timestamp::ZERO);
            assert_eq!(d.header.msg_ts, Timestamp::from_nanos(5_000));
        }
    }

    #[test]
    fn beacons_flow_to_hosts_when_idle() {
        let mut w = build_world(2, SwitchConfig::default(), vec![]);
        w.sim.run_until(50_000);
        // Switch beacons reach hosts even with zero data traffic.
        assert!(!w.barriers[0].lock().unwrap().is_empty());
        assert!(!w.barriers[1].lock().unwrap().is_empty());
    }

    #[test]
    fn barrier_advances_only_after_all_hosts_beacon() {
        // Hosts in this probe world never send host beacons, so switch
        // registers for host links stay ZERO and the barrier to hosts must
        // stay ZERO forever (until dead-link timeout).
        let cfg = SwitchConfig::default();
        let mut w = build_world(2, cfg, vec![]);
        w.sim.run_until(20_000); // < 30 µs dead-link timeout
        for (_, be, _) in w.barriers[0].lock().unwrap().iter() {
            assert_eq!(*be, Timestamp::ZERO);
        }
    }

    #[test]
    fn dead_host_link_detected_and_reported() {
        let cfg = SwitchConfig::default();
        let mut w = build_world(2, cfg, vec![]);
        w.sim.run_until(200_000); // 200 µs >> 30 µs timeout
        let events = w.shared.events.borrow();
        // Both silent host links (and no fabric links, which carry beacons)
        // must be reported dead by the ToR-up switch.
        let host_nodes: Vec<NodeId> = (0..2).map(|h| w.topo.host_node(HostId(h))).collect();
        let dead_from: Vec<NodeId> =
            events.iter().map(|SwitchEvent::InLinkDead { from, .. }| *from).collect();
        for hn in host_nodes {
            assert!(dead_from.contains(&hn), "host link {hn:?} not reported");
        }
    }

    #[test]
    fn after_dead_removal_barrier_resumes() {
        // With all (silent) host links timed out, the remaining inputs are
        // fabric links which do carry beacons — but fabric barriers are in
        // turn stalled by the hosts... in a single-rack topology the ToR-up
        // inputs are only host links, so after removal the min is over an
        // empty set and holds; the ToR-down's input is the virtual link
        // from ToR-up. The observable effect: barrier stays ZERO but the
        // system does not crash, and events fire exactly once per link.
        let mut w = build_world(2, SwitchConfig::default(), vec![]);
        w.sim.run_until(500_000);
        let events = w.shared.events.borrow();
        let dead_count = events.len();
        drop(events);
        w.sim.run_until(1_000_000);
        assert_eq!(w.shared.events.borrow().len(), dead_count, "re-reported dead links");
    }

    #[test]
    fn cpu_incarnation_does_not_rewrite_data() {
        let cfg = SwitchConfig {
            incarnation: Incarnation::SwitchCpu { processing_delay: 5 * MICROS },
            ..SwitchConfig::default()
        };
        let mut w = build_world(4, cfg, vec![vec![data_dgram(0, 3, 5_000)]]);
        w.sim.run_until(100_000);
        let got = w.received[3].lock().unwrap();
        assert_eq!(got.len(), 1);
        // CPU mode leaves the sender-initialized barrier field untouched.
        assert_eq!(got[0].header.barrier, Timestamp::from_nanos(5_000));
    }

    #[test]
    fn cpu_incarnation_beacons_on_busy_links_too() {
        let chip = build_world(2, SwitchConfig::default(), vec![]);
        let cpu_cfg = SwitchConfig {
            incarnation: Incarnation::SwitchCpu { processing_delay: MICROS },
            ..SwitchConfig::default()
        };
        let cpu = build_world(2, cpu_cfg, vec![]);
        let mut chip = chip;
        let mut cpu = cpu;
        chip.sim.run_until(100_000);
        cpu.sim.run_until(100_000);
        // Both deliver beacons; CPU-mode beacons are delayed by processing.
        assert!(!chip.barriers[0].lock().unwrap().is_empty());
        assert!(!cpu.barriers[0].lock().unwrap().is_empty());
    }

    #[test]
    fn commit_message_updates_commit_register() {
        let cfg = SwitchConfig::default();
        let commit_dgram = Datagram {
            src: ProcessId(0),
            dst: HOP_LOCAL,
            header: PacketHeader {
                msg_ts: Timestamp::ZERO,
                barrier: Timestamp::ZERO,
                commit_barrier: Timestamp::from_nanos(777),
                psn: 0,
                opcode: Opcode::Commit,
                flags: Flags::empty(),
            },
            payload: Bytes::new(),
        };
        let mut w = build_world(2, cfg, vec![vec![commit_dgram]]);
        let tor_up = w.topo.tor_up_of(HostId(0));
        w.sim.run_until(10_000);
        let host0 = w.topo.host_node(HostId(0));
        w.sim.with_node(tor_up, |logic, _ctx| {
            let sw = logic.as_any_mut().unwrap().downcast_mut::<SwitchLogic>().unwrap();
            // The commit register for host 0's link holds 777; the *output*
            // commit barrier is still ZERO because host 1 never committed.
            assert_eq!(sw.node.core.aggregator_mut().out_commit(0), Timestamp::ZERO);
            assert!(!sw.node.core.aggregator_mut().is_be_dead(host0));
        });
    }

    #[test]
    fn switch_admin_downcast_roundtrip() {
        let mut w = build_world(2, SwitchConfig::default(), vec![]);
        let tor_up = w.topo.tor_up_of(HostId(0));
        let host1 = w.topo.host_node(HostId(1));
        w.sim.run_until(1_000);
        let removed = w
            .sim
            .with_node(tor_up, |logic, _| {
                let sw = logic.as_any_mut().unwrap().downcast_mut::<SwitchLogic>().unwrap();
                sw.node.core.remove_commit_input(host1)
            })
            .unwrap();
        assert!(removed);
    }

    fn ts(v: u64) -> Timestamp {
        Timestamp::from_nanos(v)
    }

    /// A host that beacons its clock to its ToR at every multiple of
    /// `interval` and logs the beacons it receives.
    struct BeaconingHost {
        tor: NodeId,
        interval: u64,
        barriers: BarrierLog,
    }
    impl NodeLogic for BeaconingHost {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(self.interval - ctx.now() % self.interval, 0);
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, pkt: SimPacket) {
            let h = pkt.dgram.header;
            assert_eq!(h.opcode, Opcode::Beacon);
            self.barriers.lock().unwrap().push((ctx.now(), h.barrier, h.commit_barrier));
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            let t = ts(ctx.now());
            ctx.send_beacon(self.tor, t, t);
            ctx.set_timer(self.interval, 0);
        }
    }

    #[test]
    fn an_idle_chip_link_carries_one_beacon_per_interval() {
        let cfg = SwitchConfig::default();
        let mut w = build_world(2, cfg, vec![]);
        for h in 0..2 {
            let host = BeaconingHost {
                tor: w.topo.tor_up_of(HostId(h)),
                interval: cfg.beacon_interval,
                barriers: w.barriers[h as usize].clone(),
            };
            w.sim.set_logic(w.topo.host_node(HostId(h)), Box::new(host));
        }
        w.sim.run_until(60 * MICROS);
        let log = w.barriers[0].lock().unwrap();
        let window: Vec<_> =
            log.iter().filter(|&&(at, _, _)| (30 * MICROS..60 * MICROS).contains(&at)).collect();
        assert_eq!(window.len(), 10, "{window:?}");
        for pair in window.windows(2) {
            assert_eq!(pair[1].0 - pair[0].0, cfg.beacon_interval, "{window:?}");
            assert!(pair[1].1 > pair[0].1, "every beacon advances the barrier: {window:?}");
        }
    }

    /// Every switch's cached next hop equals [`Topology::route_live`]
    /// under the current link states, for every flow, after every step of
    /// a random sequence of link cuts, repairs and switch crashes — and
    /// the faults did change routes, so stale entries were there to catch.
    #[test]
    fn cached_next_hop_matches_route_live_through_random_faults() {
        let wide = FatTreeParams {
            pods: 3,
            tors_per_pod: 2,
            spines_per_pod: 3,
            cores: 6,
            hosts_per_tor: 2,
            ..FatTreeParams::testbed()
        };
        for (params, seed) in [(FatTreeParams::testbed(), 11u64), (wide, 12)] {
            let mut sim = Sim::new(seed);
            let topo = Arc::new(Topology::build(&mut sim, params));
            let hosts = topo.num_hosts();
            let shared = SwitchShared {
                topo: topo.clone(),
                procs: Arc::new(ProcessMap::place_round_robin(hosts, hosts)),
                events: Rc::default(),
            };
            for &s in &topo.switch_nodes {
                sim.set_logic(
                    s,
                    Box::new(SwitchLogic::new(shared.clone(), SwitchConfig::default())),
                );
            }
            let links: Vec<LinkId> = topo
                .switch_nodes
                .iter()
                .flat_map(|&s| sim.out_neighbors(s).iter().map(move |&to| LinkId::new(s, to)))
                .collect();
            let mut rng = seed;
            let mut draw = move |n: usize| {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (rng >> 33) as usize % n
            };
            // All flows at every live switch: (agreed lookups, routes
            // that differ from the previous step's).
            let mut previous: Vec<Option<NodeId>> = Vec::new();
            let mut audit = |sim: &mut Sim| -> (usize, usize) {
                let mut now = Vec::new();
                for &s in &topo.switch_nodes {
                    for src in 0..hosts as u32 {
                        for dst in 0..hosts as u32 {
                            let pkt = SimPacket::new(data_dgram(src, dst, 1));
                            let hop = sim.with_node(s, |logic, ctx| {
                                let sw = logic.as_any_mut().unwrap().downcast_mut::<SwitchLogic>();
                                let cached = sw.unwrap().next_hop(ctx, &pkt);
                                let live = topo.route_live(s, HostId(src), HostId(dst), |a, b| {
                                    ctx.global_link_is_up(a, b)
                                });
                                assert_eq!(cached, live, "at {s:?}, {src} → {dst}");
                                cached
                            });
                            now.push(hop.flatten());
                        }
                    }
                }
                let moved = now.iter().zip(&previous).filter(|(a, b)| a != b).count();
                previous = now;
                (previous.len(), moved)
            };
            audit(&mut sim);
            let (mut checked, mut moved) = (0, 0);
            let mut t = 0;
            for step in 0..60 {
                t += 1_000;
                match draw(10) {
                    0 if step > 20 => {
                        sim.schedule_crash(t, topo.switch_nodes[draw(topo.switch_nodes.len())])
                    }
                    1..=6 => sim.schedule_link_down(t, links[draw(links.len())]),
                    _ => sim.schedule_link_up(t, links[draw(links.len())]),
                }
                sim.run_until(t);
                let (c, m) = audit(&mut sim);
                checked += c;
                moved += m;
            }
            assert!(checked > 10_000 && moved > 100, "checked {checked}, moved {moved}");
        }
    }
}
