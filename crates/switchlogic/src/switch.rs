//! The switch node logic: forwarding + barrier aggregation + beacons.

use crate::barrier::BarrierAggregator;
use onepipe_netsim::engine::{Ctx, NodeLogic, SimPacket};
use onepipe_netsim::topology::Topology;
use onepipe_types::ids::NodeId;
pub use onepipe_types::ids::HOP_LOCAL;
use onepipe_types::process_map::ProcessMap;
use onepipe_types::time::{Duration, Timestamp, MICROS};
use onepipe_types::wire::Opcode;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Timer token: periodic beacon / dead-link scan.
const TOKEN_BEACON: u64 = 1;
/// Timer token: delayed beacon emission (CPU / host-delegate incarnations).
const TOKEN_EMIT: u64 = 2;
/// Timer token: coalesced chip relay (fires after all same-instant events).
const TOKEN_RELAY: u64 = 3;

/// Which of the paper's three implementations this switch runs (§6.2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Incarnation {
    /// Programmable switching chip: per-packet barrier processing in the
    /// data plane; beacons only on idle links.
    Chip,
    /// Switch CPU: barriers travel only in beacons, recomputed and
    /// broadcast every interval after `processing_delay`.
    SwitchCpu {
        /// CPU processing delay per beacon round (OS stack: ~5 µs;
        /// raw sockets: ~1 µs).
        processing_delay: Duration,
    },
    /// End-host representative: like [`Incarnation::SwitchCpu`] but the
    /// delay includes the switch↔host round trip (the testbed default).
    HostDelegate {
        /// Host processing + switch↔host RTT per beacon round (~2 µs).
        processing_delay: Duration,
    },
}

impl Incarnation {
    /// The testbed's host-delegation setup (§7.1).
    pub fn testbed_host_delegate() -> Self {
        Incarnation::HostDelegate { processing_delay: 2 * MICROS }
    }

    /// Extra emission delay of this incarnation.
    pub fn processing_delay(&self) -> Duration {
        match *self {
            Incarnation::Chip => 0,
            Incarnation::SwitchCpu { processing_delay } => processing_delay,
            Incarnation::HostDelegate { processing_delay } => processing_delay,
        }
    }
}

/// Static switch configuration.
#[derive(Clone, Copy, Debug)]
pub struct SwitchConfig {
    /// The implementation variant.
    pub incarnation: Incarnation,
    /// Beacon interval (paper testbed: 3 µs).
    pub beacon_interval: Duration,
    /// Send beacons at globally synchronized phase (§4.2) rather than at a
    /// random per-switch phase (ablation b in DESIGN.md).
    pub synchronized_beacons: bool,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            incarnation: Incarnation::Chip,
            beacon_interval: 3 * MICROS,
            synchronized_beacons: true,
        }
    }
}

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

/// Per-switch traffic counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct SwitchCounters {
    /// Beacons received (and absorbed).
    pub beacons_rx: u64,
    /// Beacons transmitted.
    pub beacons_tx: u64,
    /// Commit messages absorbed.
    pub commits_rx: u64,
    /// Data/ack packets forwarded.
    pub forwarded: u64,
    /// Packets dropped (unroutable destination).
    pub unroutable: u64,
}

/// Per-output-link transmit state, stored densely in the out-neighbor
/// order of the switch (the forwarding path updates it per packet, so
/// it must not hash).
#[derive(Clone, Copy, Debug)]
struct OutPort {
    /// The downstream neighbor this port leads to.
    to: NodeId,
    /// Last time a barrier-carrying packet (rewritten data or a beacon)
    /// left on this link.
    last_tx: u64,
    /// Barrier values most recently advertised on this link, whether by
    /// a rewritten data packet or a beacon.
    advertised: (Timestamp, Timestamp),
}

impl OutPort {
    /// Record that a packet advertising `(be, commit)` left at `now`.
    fn carry(&mut self, now: u64, be: Timestamp, commit: Timestamp) {
        self.last_tx = now;
        self.advertised = (self.advertised.0.max(be), self.advertised.1.max(commit));
    }
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
    agg: BarrierAggregator,
    /// Output-port state, parallel to the node's out-neighbor list.
    ports: Vec<OutPort>,
    /// Per destination host. Viability is a walk down the tree per hop;
    /// it only changes when a link does, which is rare next to packets.
    routes: Vec<CachedRoute>,
    /// CPU/delegate: an emission is already scheduled.
    emission_pending: bool,
    /// Chip: a coalesced relay is already scheduled.
    relay_pending: bool,
    /// Chip: the `(be, commit)` of the last relay. Every port has
    /// advertised at least this much since, so only an aggregate past it
    /// can need a relay.
    relayed: (Timestamp, Timestamp),
    /// Counters for the overhead experiments.
    pub counters: SwitchCounters,
    started: bool,
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
            agg: BarrierAggregator::new(Vec::new()),
            ports: Vec::new(),
            emission_pending: false,
            relay_pending: false,
            relayed: (Timestamp::ZERO, Timestamp::ZERO),
            counters: SwitchCounters::default(),
            started: false,
        }
    }

    /// Controller Resume (§5.2): stop waiting for commits from `from`.
    pub fn remove_commit_input(&mut self, from: NodeId) -> bool {
        self.agg.remove_commit_input(from)
    }

    /// Immutable access to the aggregator (tests, telemetry).
    pub fn aggregator(&self) -> &BarrierAggregator {
        &self.agg
    }

    /// Mutable access to the aggregator.
    pub fn aggregator_mut(&mut self) -> &mut BarrierAggregator {
        &mut self.agg
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

    /// Resolve the live ECMP next hop for `pkt`'s destination, counting
    /// unroutable packets. The single routing lookup shared by the plain
    /// and barrier-rewriting forwarding paths: the flow hash selects among
    /// the destination's cached viable hops, recomputed
    /// ([`Topology::viable_hops`]) after any link changed state.
    pub fn next_hop(&mut self, ctx: &Ctx<'_>, pkt: &SimPacket) -> Option<NodeId> {
        let Some(dst_host) = self.shared.procs.host_of(pkt.dgram.dst) else {
            self.counters.unroutable += 1;
            return None;
        };
        let src_host =
            self.shared.procs.host_of(pkt.dgram.src).unwrap_or(onepipe_types::ids::HostId(0));
        let topo = &self.shared.topo;
        let epoch = ctx.link_epoch();
        let route = &mut self.routes[dst_host.0 as usize];
        if route.epoch != epoch {
            let viable = topo.viable_hops(ctx.node(), dst_host, |a, b| ctx.global_link_is_up(a, b));
            *route = CachedRoute { epoch, viable };
        }
        let next = topo.route_masked(ctx.node(), src_host, dst_host, route.viable);
        if next.is_none() {
            self.counters.unroutable += 1;
        }
        next
    }

    /// The output-port slot leading to `to`.
    fn port_index(&self, to: NodeId) -> Option<usize> {
        self.ports.iter().position(|p| p.to == to)
    }

    fn forward(&mut self, ctx: &mut Ctx<'_>, pkt: SimPacket) {
        let Some(next) = self.next_hop(ctx, &pkt) else { return };
        self.counters.forwarded += 1;
        ctx.send(next, pkt);
    }

    /// Forward with per-packet barrier rewrite (chip incarnation).
    fn forward_rewritten(&mut self, ctx: &mut Ctx<'_>, mut pkt: SimPacket) {
        let Some(next) = self.next_hop(ctx, &pkt) else { return };
        let now = ctx.now();
        let be = self.agg.out_be(now);
        let commit = self.agg.out_commit(now);
        pkt.dgram.header.barrier = be;
        pkt.dgram.header.commit_barrier = commit;
        if let Some(i) = self.port_index(next) {
            self.ports[i].carry(now, be, commit);
        }
        self.counters.forwarded += 1;
        ctx.send(next, pkt);
    }

    /// Chip: send a beacon on output port `i`; like a rewritten data
    /// packet, it counts as traffic on the link.
    fn beacon_port(&mut self, ctx: &mut Ctx<'_>, i: usize, be: Timestamp, commit: Timestamp) {
        let p = &mut self.ports[i];
        p.carry(ctx.now(), be, commit);
        self.counters.beacons_tx += 1;
        ctx.send_beacon(p.to, be, commit);
    }

    fn emit_beacons(&mut self, ctx: &mut Ctx<'_>, be: Timestamp, commit: Timestamp) {
        for &out in ctx.out_neighbors() {
            self.counters.beacons_tx += 1;
            ctx.send_beacon(out, be, commit);
        }
    }

    fn is_chip(&self) -> bool {
        matches!(self.cfg.incarnation, Incarnation::Chip)
    }

    /// Chip incarnation: when the aggregated barrier advances, relay it
    /// at once on every output link that has not already carried the new
    /// value. This is what keeps the chip's end-to-end barrier staleness
    /// at ~beacon_interval/2 total rather than per hop (§6.2.1's
    /// expected-delay formula). Busy links are covered for free by
    /// rewritten data packets, which also update the per-link
    /// advertisement.
    fn relay_if_advanced(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let be = self.agg.out_be(now);
        let commit = self.agg.out_commit(now);
        for i in 0..self.ports.len() {
            let adv = self.ports[i].advertised;
            if !(be <= adv.0 && commit <= adv.1) {
                self.beacon_port(ctx, i, be, commit);
            }
        }
        self.relayed = (be, commit);
    }

    /// Chip: after a barrier observation, schedule a relay if the
    /// aggregate moved past the last relay. The relay is coalesced over
    /// simultaneous arrivals (one wave of synchronized host beacons lands
    /// in the same instant) so it carries the fully aggregated minimum,
    /// not the first fragment.
    fn schedule_relay(&mut self, ctx: &mut Ctx<'_>) {
        if self.relay_pending {
            return;
        }
        let now = ctx.now();
        let (be, commit) = (self.agg.out_be(now), self.agg.out_commit(now));
        if be <= self.relayed.0 && commit <= self.relayed.1 {
            return;
        }
        self.relay_pending = true;
        ctx.set_timer(0, TOKEN_RELAY);
    }

    /// CPU/delegate incarnations: schedule one (re)computation+broadcast
    /// `processing_delay` after fresh barrier input, if none is pending.
    fn schedule_emission(&mut self, ctx: &mut Ctx<'_>) {
        if self.emission_pending {
            return;
        }
        self.emission_pending = true;
        ctx.set_timer(self.cfg.incarnation.processing_delay().max(1), TOKEN_EMIT);
    }
}

impl NodeLogic for SwitchLogic {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if !self.started {
            self.agg = BarrierAggregator::new(ctx.in_neighbors().to_vec());
            self.ports = ctx
                .out_neighbors()
                .iter()
                .map(|&to| OutPort {
                    to,
                    last_tx: 0,
                    advertised: (Timestamp::ZERO, Timestamp::ZERO),
                })
                .collect();
            self.started = true;
        }
        self.arm_beacon_timer(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: NodeId, pkt: SimPacket) {
        let now = ctx.now();
        let h = pkt.dgram.header;
        match h.opcode {
            Opcode::Beacon => self.on_beacon(ctx, from, h.barrier, h.commit_barrier),
            Opcode::Commit => {
                self.counters.commits_rx += 1;
                self.agg.observe_commit(from, h.commit_barrier, now);
                self.agg.observe_alive(from, now);
                // Commit messages die at the first-hop switch (Figure 6).
                if self.is_chip() {
                    self.schedule_relay(ctx);
                } else {
                    self.schedule_emission(ctx);
                }
            }
            Opcode::Data => {
                if self.is_chip() {
                    self.agg.observe_be(from, h.barrier, now);
                    self.agg.observe_commit(from, h.commit_barrier, now);
                    self.forward_rewritten(ctx, pkt);
                    self.schedule_relay(ctx);
                } else {
                    // Commodity chip: data plane cannot touch barriers.
                    self.forward(ctx, pkt);
                }
            }
            Opcode::DataReliable => {
                // Prepare-phase packets do NOT update barrier registers
                // (§5.1) but do prove link liveness.
                if self.is_chip() {
                    self.agg.observe_alive(from, now);
                    self.forward_rewritten(ctx, pkt);
                } else {
                    self.forward(ctx, pkt);
                }
            }
            Opcode::Ack | Opcode::Nak | Opcode::Recall | Opcode::RecallAck => {
                if self.is_chip() {
                    self.agg.observe_alive(from, now);
                    self.forward_rewritten(ctx, pkt);
                } else {
                    self.forward(ctx, pkt);
                }
            }
            Opcode::Control | Opcode::Mgmt => {
                // Non-1Pipe traffic (raw RPC, management plane): plain
                // forwarding, no bookkeeping.
                self.forward(ctx, pkt);
            }
        }
    }

    fn on_beacon(&mut self, ctx: &mut Ctx<'_>, from: NodeId, be: Timestamp, commit: Timestamp) {
        let now = ctx.now();
        self.counters.beacons_rx += 1;
        self.agg.observe_be(from, be, now);
        self.agg.observe_commit(from, commit, now);
        // Hop-by-hop: absorbed here; relayed promptly if the aggregate
        // advanced.
        if self.is_chip() {
            self.schedule_relay(ctx);
        } else {
            self.schedule_emission(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TOKEN_BEACON => {
                let now = ctx.now();
                let timeout = self.cfg.beacon_interval * DEAD_AFTER_INTERVALS;
                for (from, last_commit) in self.agg.detect_dead(now, timeout) {
                    self.shared.events.borrow_mut().push(SwitchEvent::InLinkDead {
                        switch: ctx.node(),
                        from,
                        last_commit,
                    });
                    ctx.raise_attention();
                }
                let be = self.agg.out_be(ctx.now());
                let commit = self.agg.out_commit(ctx.now());
                match self.cfg.incarnation {
                    Incarnation::Chip => {
                        // A removed dead input may have advanced the
                        // aggregate: relay it to busy links too. Then
                        // beacon the links that carried nothing for a
                        // full interval.
                        self.relay_if_advanced(ctx);
                        let interval = self.cfg.beacon_interval;
                        for i in 0..self.ports.len() {
                            if now.saturating_sub(self.ports[i].last_tx) >= interval {
                                self.beacon_port(ctx, i, be, commit);
                            }
                        }
                    }
                    Incarnation::SwitchCpu { .. } | Incarnation::HostDelegate { .. } => {
                        // Periodic backstop broadcast (idle network).
                        let _ = (be, commit);
                        self.schedule_emission(ctx);
                    }
                }
                self.arm_beacon_timer(ctx);
            }
            TOKEN_RELAY => {
                self.relay_pending = false;
                self.relay_if_advanced(ctx);
            }
            TOKEN_EMIT => {
                // CPU/delegate: the processing delay has elapsed; compute
                // the minima and broadcast on every output link.
                self.emission_pending = false;
                let be = self.agg.out_be(ctx.now());
                let commit = self.agg.out_commit(ctx.now());
                self.emit_beacons(ctx, be, commit);
            }
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
    use onepipe_types::ids::{HostId, LinkId, ProcessId};
    use onepipe_types::wire::{Datagram, Flags, PacketHeader};
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
            assert_eq!(sw.aggregator_mut().out_commit(0), Timestamp::ZERO);
            assert!(!sw.aggregator().is_be_dead(host0));
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
                sw.remove_commit_input(host1)
            })
            .unwrap();
        assert!(removed);
    }

    fn ts(v: u64) -> Timestamp {
        Timestamp::from_nanos(v)
    }

    /// Run `f` on the switch logic of `node` at the current instant.
    fn on_switch<R>(
        w: &mut World,
        node: NodeId,
        f: impl FnOnce(&mut SwitchLogic, &mut Ctx<'_>) -> R,
    ) -> R {
        w.sim
            .with_node(node, |logic, ctx| {
                f(logic.as_any_mut().unwrap().downcast_mut::<SwitchLogic>().unwrap(), ctx)
            })
            .unwrap()
    }

    #[test]
    fn an_advance_right_after_a_relay_is_relayed_at_once() {
        let mut w = build_world(2, SwitchConfig::default(), vec![]);
        let tor = w.topo.tor_up_of(HostId(0));
        let hosts: Vec<NodeId> = (0..2).map(|h| w.topo.host_node(HostId(h))).collect();
        // Two advances 100 ns apart, both between periodic ticks (3 µs).
        for (t, v) in [(1_000, 500), (1_100, 600)] {
            w.sim.run_until(t);
            on_switch(&mut w, tor, |sw, ctx| {
                for &h in &hosts {
                    sw.on_beacon(ctx, h, ts(v), ts(v));
                }
            });
            w.sim.run_until(t); // the coalesced relay fires in the same instant
            on_switch(&mut w, tor, |sw, _| {
                for p in &sw.ports {
                    assert_eq!(p.advertised, (ts(v), ts(v)), "port to {:?} at {t}", p.to);
                }
            });
        }
        // A relay beacon is traffic: the next tick skips these links.
        on_switch(&mut w, tor, |sw, _| assert!(sw.ports.iter().all(|p| p.last_tx == 1_100)));
    }

    #[test]
    fn an_observation_that_leaves_the_aggregate_queues_no_relay() {
        let mut w = build_world(2, SwitchConfig::default(), vec![]);
        let tor = w.topo.tor_up_of(HostId(0));
        let (h0, h1) = (w.topo.host_node(HostId(0)), w.topo.host_node(HostId(1)));
        w.sim.run_until(1_000);
        on_switch(&mut w, tor, |sw, ctx| {
            sw.on_beacon(ctx, h0, ts(500), ts(500));
            sw.on_beacon(ctx, h1, ts(700), ts(700));
        });
        w.sim.run_until(1_000);
        on_switch(&mut w, tor, |sw, ctx| {
            assert_eq!(sw.relayed, (ts(500), ts(500)));
            // Host 1 was not the minimum: nothing to relay.
            sw.on_beacon(ctx, h1, ts(900), ts(900));
            assert!(!sw.relay_pending);
            // Host 0 was: the aggregate moves to 900.
            sw.on_beacon(ctx, h0, ts(1_000), ts(1_000));
            assert!(sw.relay_pending);
        });
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
