//! Full-cluster simulation harness: topology + switches + hosts +
//! controller, assembled and pumped together.
//!
//! [`Cluster`] is what experiments, examples and integration tests build
//! on. It wires the fat-tree topology and its switches ([`SwitchLogic`]),
//! one [`HostLogic`] per server with its endpoints and synchronized clock,
//! and a **replicated controller** (§5.2): [`REPLICAS`] replicas whose
//! elected leader drives recovery, which can be crashed or partitioned
//! mid-recovery (a new leader re-drives in-flight failures).
//!
//! Simulator events interleave with management-plane deliveries in
//! deterministic time order. The management network ([`MGMT_DELAY`] per
//! hop) carries the [`MgmtFrame`]s UDP puts on sockets, between the same
//! nodes ([`crate::node`]): each replica is a [`ReplicaNode`], and an
//! action goes to its destination's [`ProcessNode`] or [`SwitchNode`],
//! whose epoch fence drops a deposed leader's. The hosts' and the
//! switches' [`CtrlClient`] send each request to every replica until the
//! leader acks its commit ([`CTRL_RETRY`]; a switch never gives up).
//!
//! What a run produces is taken, not kept: [`Cluster::take_deliveries`],
//! [`Cluster::take_user_events`] and [`Cluster::take_ctrl_actions`] (the
//! actions that passed a fence) move the records out, as plain records a
//! UDP test can build too; the chaos runner feeds them to its oracle.
//!
//! [`ProcessNode`]: crate::node::ProcessNode
//! [`SwitchNode`]: crate::node::SwitchNode

use crate::config::EndpointConfig;
use crate::endpoint::{Endpoint, EndpointStats};
use crate::events::UserEvent;
use crate::node::{MgmtTo, ReplicaIo, ReplicaNode};
use crate::runtime::HostRuntime;
use crate::simhost::{AppHook, DeliveryRecord, HostLogic, Sinks};
use crate::simswitch::{SwitchEvent, SwitchLogic, SwitchShared};
use onepipe_clock::{ClockFleet, SyncDiscipline};
use onepipe_controller::protocol::{
    ActionDest, ControllerCore, CtrlAction, CtrlEvent, FailureDomains, PendingFailure,
};
use onepipe_controller::raft::RaftConfig;
use onepipe_controller::retry::RetryPolicy;
use onepipe_controller::{CtrlClient, MgmtFrame, REPLICAS};
use onepipe_netsim::engine::Sim;
use onepipe_netsim::topology::{FatTreeParams, NodeRole, Topology};
use onepipe_netsim::traffic::BackgroundTraffic;
use onepipe_switchlogic::{Incarnation, SwitchConfig};
use onepipe_types::ids::{HostId, LinkId, NodeId, ProcessId};
use onepipe_types::message::Message;
use onepipe_types::process_map::ProcessMap;
use onepipe_types::time::Timestamp;
use onepipe_types::wire::Datagram;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

/// Cluster-level configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Topology parameters.
    pub topo: FatTreeParams,
    /// Total number of processes, placed round-robin over hosts.
    pub processes: usize,
    /// Switch configuration (incarnation, beacon interval, ...).
    pub switch: SwitchConfig,
    /// Endpoint configuration. `trust_data_barriers` is overridden to
    /// match the switch incarnation.
    pub endpoint: EndpointConfig,
    /// Use perfect clocks instead of the PTP model.
    pub perfect_clocks: bool,
    /// PTP discipline when clocks are imperfect.
    pub sync: SyncDiscipline,
    /// Master seed.
    pub seed: u64,
}

impl ClusterConfig {
    /// The paper's 32-server testbed with `processes` processes.
    pub fn testbed(processes: usize) -> Self {
        ClusterConfig {
            topo: FatTreeParams::testbed(),
            processes,
            switch: SwitchConfig::default(),
            endpoint: EndpointConfig::default(),
            perfect_clocks: false,
            sync: SyncDiscipline::default(),
            seed: 2021,
        }
    }

    /// A single rack of `hosts` servers with `processes` processes.
    pub fn single_rack(hosts: u32, processes: usize) -> Self {
        ClusterConfig { topo: FatTreeParams::single_rack(hosts), ..Self::testbed(processes) }
    }
}

/// One-way management-network delay (controller ↔ host), ns; also the
/// controller replicas' tick interval and the unit of their Raft timing.
pub const MGMT_DELAY: u64 = 5_000;

/// Controller send serialization per management message, ns — the paper
/// reports recovery cost growing 3–15 µs per host because the controller
/// "needs to contact all processes in the system" (§7.2).
pub const MGMT_SERIALIZE: u64 = 3_000;

/// Backoff for re-sending a host's control request until its commit is
/// acked: ~10 rounds, a span that comfortably covers a leader election
/// (10 one-way delays) plus commit latency.
pub const CTRL_RETRY: RetryPolicy =
    RetryPolicy { base: 2 * MGMT_DELAY, cap: 20 * MGMT_DELAY, max_attempts: 10 };

/// A switch's Detect reports: the hosts' schedule, never giving up, so a
/// report outlives any controller outage.
const SWITCH_RETRY: RetryPolicy = RetryPolicy { max_attempts: u32::MAX, ..CTRL_RETRY };

/// The hosts' and the switches' control-request client in `Cluster::clients`.
const HOSTS: usize = 0;
const SWITCHES: usize = 1;

/// A management-network message in flight.
#[derive(Debug)]
enum MgmtMsg {
    /// What a replica sent: Raft traffic to a replica, an epoch-tagged
    /// action to a host or switch, a commit ack to a client.
    Frame { to: MgmtTo<usize>, frame: MgmtFrame },
    /// Request `seq` of `client` reaching every replica; a leader logs it.
    Req { client: usize, seq: u64, ev: CtrlEvent },
    /// Client `client`'s next re-send (or drop) is due.
    Poll { client: usize },
    /// Forwarded datagram (controller fallback relay).
    Forward { dgram: Datagram },
    /// Chaos: crash controller replica `replica` at delivery time.
    CtrlCrash { replica: usize },
    /// Chaos: partition replica `replica` off the management network
    /// until absolute time `until`.
    CtrlPartition { replica: usize, until: u64 },
}

/// One controller replica plus its harness-side fault state.
struct CtrlReplica {
    node: ReplicaNode<usize>,
    alive: bool,
    partitioned_until: u64,
}

impl CtrlReplica {
    fn reachable(&self, now: u64) -> bool {
        self.alive && now >= self.partitioned_until
    }
}

/// Management messages in flight by `(delivery time, push order)`.
#[derive(Default)]
struct MgmtNet {
    heap: BTreeMap<(u64, u64), MgmtMsg>,
    seq: u64,
}

impl MgmtNet {
    /// Queue `msg` for delivery at `at`; returns its key.
    fn push(&mut self, at: u64, msg: MgmtMsg) -> (u64, u64) {
        self.seq += 1;
        self.heap.insert((at, self.seq), msg);
        (at, self.seq)
    }
}

/// What one step of a replica sends, onto the management network: one
/// hop away, announcements one serialization slot apart (contacting every
/// correct process costs CPU/network time, §7.2). A dead or partitioned
/// replica's output is dropped at the edge.
struct ReplicaOut<'a> {
    net: &'a mut MgmtNet,
    now: u64,
    reachable: bool,
    /// Announcements sent so far in this step.
    announced: u64,
}

impl ReplicaIo<usize> for ReplicaOut<'_> {
    fn send(&mut self, to: MgmtTo<usize>, frame: MgmtFrame) {
        if !self.reachable {
            return;
        }
        let mut delay = MGMT_DELAY;
        if let MgmtTo::Node(ActionDest::Process(_)) = to {
            self.announced += 1;
            delay += self.announced * MGMT_SERIALIZE;
        }
        self.net.push(self.now + delay, MgmtMsg::Frame { to, frame });
    }
}

/// The assembled simulated cluster.
pub struct Cluster {
    /// The discrete-event simulator.
    pub sim: Sim,
    /// The routing topology.
    pub topo: Arc<Topology>,
    /// Process placement.
    pub procs: Arc<ProcessMap>,
    /// What the hosts produced and nobody has taken yet: deliveries, user
    /// events, controller requests (until the next pump).
    sinks: Rc<RefCell<Sinks>>,
    switch_events: Rc<RefCell<Vec<SwitchEvent>>>,
    replicas: Vec<CtrlReplica>,
    /// Next time the controller replicas run their periodic tick (Raft
    /// timeouts and heartbeats): the deadline that ends an
    /// event batch in [`Cluster::run_until`].
    next_ctrl_tick: u64,
    /// The hosts' and the switches' control-request clients, each with the
    /// management-heap key of its [`MgmtMsg::Poll`] at its next due time.
    clients: [(CtrlClient, Option<(u64, u64)>); 2],
    /// Highest term observed with a leader, for election counting.
    last_leader_term: u64,
    mgmt: MgmtNet,
    /// `(sim time, epoch, action)` of every controller action a live
    /// destination applied past its fence, not yet taken.
    ctrl_actions: Vec<(u64, u64, CtrlAction)>,
    /// The cluster configuration it was built with.
    pub config: ClusterConfig,
}

impl Cluster {
    /// Build a cluster.
    pub fn new(mut cfg: ClusterConfig) -> Self {
        // Barrier trust must match the switch incarnation (§6.2.2).
        cfg.endpoint.trust_data_barriers = matches!(cfg.switch.incarnation, Incarnation::Chip);

        let mut sim = Sim::new(cfg.seed);
        let topo = Arc::new(Topology::build(&mut sim, cfg.topo.clone()));
        let n_hosts = topo.num_hosts();
        let procs = Arc::new(ProcessMap::place_round_robin(n_hosts, cfg.processes));

        let switch_events = Rc::default();
        let shared = SwitchShared {
            topo: topo.clone(),
            procs: procs.clone(),
            events: Rc::clone(&switch_events),
        };
        for &s in &topo.switch_nodes {
            sim.set_logic(s, Box::new(SwitchLogic::new(shared.clone(), cfg.switch)));
        }

        let mut clocks = if cfg.perfect_clocks {
            ClockFleet::perfect(n_hosts)
        } else {
            ClockFleet::new(n_hosts, cfg.sync, cfg.seed ^ 0xC10C)
        };

        let sinks = Rc::default();
        for h in 0..n_hosts {
            let host = HostId(h as u32);
            let endpoints: Vec<Endpoint> = procs
                .processes_on(host)
                .iter()
                .map(|&p| {
                    let mut ecfg = cfg.endpoint;
                    ecfg.seed = cfg.seed;
                    Endpoint::new(p, ecfg)
                })
                .collect();
            let clock = clocks.clock_mut(h).clone();
            let mut rt = HostRuntime::new(host, clock, endpoints, cfg.switch.beacon_interval);
            rt.synchronized_beacons = cfg.switch.synchronized_beacons;
            let logic = HostLogic::new(rt, topo.tor_up_of(host), Rc::clone(&sinks));
            sim.set_logic(topo.host_node(host), Box::new(logic));
        }

        let domains = build_failure_domains(&topo, &procs);
        // Raft timing in units of the management-network delay: elections
        // resolve within ~10 one-way delays, heartbeats every 2.
        let raft_cfg =
            RaftConfig { election_timeout: 10 * MGMT_DELAY, heartbeat_interval: 2 * MGMT_DELAY };
        let replicas = (0..REPLICAS as u32)
            .map(|i| CtrlReplica {
                node: ReplicaNode::new(i, raft_cfg, domains.clone(), procs.all()),
                alive: true,
                partitioned_until: 0,
            })
            .collect();
        Cluster {
            sim,
            topo,
            procs,
            sinks,
            switch_events,
            replicas,
            next_ctrl_tick: 0,
            clients: [(CtrlClient::new(CTRL_RETRY), None), (CtrlClient::new(SWITCH_RETRY), None)],
            last_leader_term: 0,
            mgmt: MgmtNet::default(),
            ctrl_actions: Vec::new(),
            config: cfg,
        }
    }

    /// Attach a shared application hook to every host.
    pub fn set_app(&mut self, app: Arc<Mutex<dyn AppHook>>) {
        for h in 0..self.topo.num_hosts() {
            self.with_host(HostId(h as u32), |hl, _| hl.set_app(app.clone()));
        }
    }

    /// Attach background traffic to a host (Figure 12 experiments).
    pub fn set_traffic(&mut self, host: HostId, traffic: BackgroundTraffic) {
        self.with_host(host, |hl, _| hl.set_traffic(traffic));
    }

    /// Send a scattering from `from` at the current simulation time.
    /// Returns the message timestamp assigned by the sender's clock.
    pub fn send(
        &mut self,
        from: ProcessId,
        msgs: Vec<Message>,
        reliable: bool,
    ) -> onepipe_types::Result<Timestamp> {
        self.send_traced(from, msgs, reliable).map(|(ts, _)| ts)
    }

    /// Like [`send`](Self::send), additionally returning the scattering
    /// sequence number so a chaos oracle can register the intended
    /// receiver set under `(sender, seq)`.
    pub fn send_traced(
        &mut self,
        from: ProcessId,
        msgs: Vec<Message>,
        reliable: bool,
    ) -> onepipe_types::Result<(Timestamp, u64)> {
        let host = self.procs.host_of(from).ok_or(onepipe_types::Error::UnknownProcess(from))?;
        self.with_host(host, |hl, ctx| {
            hl.drive(ctx, |node, wire, now| node.rt.submit_send(wire, now, from, msgs, reliable))
        })
        .unwrap_or(Err(onepipe_types::Error::ProcessFailed(from)))
    }

    /// Run until simulation time `t_end`, pumping the control plane.
    ///
    /// Simulator events run a batch at a time ([`Sim::run`]) and the
    /// control plane is pumped between batches. A batch never reaches
    /// the next management delivery: it covers events strictly before it
    /// and no later than `t_end`. It also ends after the first event at
    /// or past the next controller tick and after an event during which a
    /// switch or host queued a control request (it raises the
    /// simulator's attention flag) — exactly the events after which a
    /// pump after *every* event would have found work, so results do not
    /// depend on the batching.
    pub fn run_until(&mut self, t_end: u64) {
        loop {
            self.pump_control();
            let mgmt_next = self.mgmt.heap.first_key_value().map(|(&(at, _), _)| at);
            let through = match mgmt_next {
                // `None`: a delivery at time 0 precedes every event.
                Some(m) => m.checked_sub(1).map(|before| before.min(t_end)),
                None => Some(t_end),
            };
            if through.is_some_and(|through| self.sim.run(through, self.next_ctrl_tick)) {
                continue;
            }
            match mgmt_next {
                Some(m) if m <= t_end => {
                    let (_, msg) = self.mgmt.heap.pop_first().expect("peeked entry");
                    // Events at the delivery's own time run first, with
                    // no pump in between.
                    self.sim.run_until(m);
                    self.apply_mgmt(msg);
                }
                _ => break,
            }
        }
        self.sim.run_until(t_end);
        self.pump_control();
    }

    /// Run for `dt` more nanoseconds.
    pub fn run_for(&mut self, dt: u64) {
        self.run_until(self.sim.now() + dt);
    }

    /// Deliveries recorded since the last call, moved out: the cluster
    /// keeps no copy.
    pub fn take_deliveries(&mut self) -> Vec<DeliveryRecord> {
        std::mem::take(&mut self.sinks.borrow_mut().deliveries)
    }

    /// User events raised since the last call, moved out: `(true time,
    /// process, event)`.
    pub fn take_user_events(&mut self) -> Vec<(u64, ProcessId, UserEvent)> {
        std::mem::take(&mut self.sinks.borrow_mut().user_events)
    }

    /// Controller actions applied since the last call — those that reached
    /// a live destination and passed its epoch fence — moved out: `(sim
    /// time, epoch, action)` in the order they reached their destinations.
    pub fn take_ctrl_actions(&mut self) -> Vec<(u64, u64, CtrlAction)> {
        std::mem::take(&mut self.ctrl_actions)
    }

    /// Crash an entire host at absolute time `at`.
    pub fn crash_host(&mut self, at: u64, host: HostId) {
        self.sim.schedule_crash(at, self.topo.host_node(host));
    }

    /// Crash a physical ToR switch (both logical halves).
    pub fn crash_tor(&mut self, at: u64, pod: u32, idx: u32) {
        for (i, role) in self.topo.roles.iter().enumerate() {
            match *role {
                NodeRole::TorUp { pod: p, idx: i2 } | NodeRole::TorDown { pod: p, idx: i2 }
                    if p == pod && i2 == idx =>
                {
                    self.sim.schedule_crash(at, NodeId(i as u32));
                }
                _ => {}
            }
        }
    }

    /// Crash a physical core switch.
    pub fn crash_core(&mut self, at: u64, idx: u32) {
        for (i, role) in self.topo.roles.iter().enumerate() {
            if matches!(*role, NodeRole::Core { idx: i2 } if i2 == idx) {
                self.sim.schedule_crash(at, NodeId(i as u32));
            }
        }
    }

    /// Take a host's access link down — or back up — in both directions.
    pub fn set_host_link(&mut self, at: u64, host: HostId, up: bool) {
        let hn = self.topo.host_node(host);
        let tor_up = self.topo.tor_up_of(host);
        let tor_down = self.sim.in_neighbors(hn).first().copied().expect("host has a downlink");
        for link in [LinkId::new(hn, tor_up), LinkId::new(tor_down, hn)] {
            if up {
                self.sim.schedule_link_up(at, link);
            } else {
                self.sim.schedule_link_down(at, link);
            }
        }
    }

    /// Take a core-adjacent fabric link down (both directions).
    pub fn fail_core_link(&mut self, at: u64, core_idx: u32) {
        let core = self
            .topo
            .roles
            .iter()
            .position(|r| matches!(*r, NodeRole::Core { idx } if idx == core_idx))
            .map(|i| NodeId(i as u32))
            .expect("core exists");
        // First inbound spine link.
        let spine = self.sim.in_neighbors(core).first().copied().expect("core has inputs");
        self.sim.schedule_link_admin(at, LinkId::new(spine, core), false);
        self.sim.schedule_link_admin(at, LinkId::new(core, spine), false);
    }

    /// Access a host's logic (downcast helper).
    pub fn with_host<R>(
        &mut self,
        host: HostId,
        f: impl FnOnce(&mut HostLogic, &mut onepipe_netsim::engine::Ctx<'_>) -> R,
    ) -> Option<R> {
        let node = self.topo.host_node(host);
        self.sim.with_node(node, |logic, ctx| {
            f(logic.as_any_mut().unwrap().downcast_mut::<HostLogic>().unwrap(), ctx)
        })
    }

    /// The authoritative controller state machine to report from: the
    /// alive leader when one exists, otherwise any alive replica (they
    /// agree on everything committed), otherwise replica 0's last state.
    fn authoritative_core(&self) -> &ControllerCore {
        let idx = self
            .controller_leader()
            .or_else(|| self.replicas.iter().position(|r| r.alive))
            .unwrap_or(0);
        self.replicas[idx].node.ctrl.core()
    }

    /// The index of the current alive controller leader, if any. With
    /// competing stale leaders (possible transiently across a partition)
    /// the highest epoch wins.
    pub fn controller_leader(&self) -> Option<usize> {
        self.replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.alive && r.node.ctrl.is_leader())
            .max_by_key(|(_, r)| r.node.ctrl.epoch())
            .map(|(i, _)| i)
    }

    /// Crash controller replica `replica` at absolute time `at`.
    pub fn crash_controller(&mut self, at: u64, replica: usize) {
        assert!(replica < self.replicas.len());
        self.mgmt.push(at, MgmtMsg::CtrlCrash { replica });
    }

    /// Partition controller replica `replica` off the management network
    /// for `duration` ns starting at absolute time `at`.
    pub fn partition_controller(&mut self, at: u64, replica: usize, duration: u64) {
        assert!(replica < self.replicas.len());
        let until = at.saturating_add(duration);
        self.mgmt.push(at, MgmtMsg::CtrlPartition { replica, until });
    }

    /// The controller's view of failed processes.
    pub fn failed_processes(&self) -> Vec<(ProcessId, Timestamp)> {
        self.authoritative_core().failures().collect()
    }

    /// Failure handling still in flight at the controller, each with its
    /// expected and completed callbacks (telemetry / chaos triage).
    pub fn controller_pending(&self) -> Vec<PendingFailure> {
        self.authoritative_core().pending_failures().cloned().collect()
    }

    /// Aggregate endpoint statistics across all (live) hosts.
    pub fn total_stats(&mut self) -> EndpointStats {
        let mut total = EndpointStats::default();
        for h in 0..self.topo.num_hosts() {
            self.with_host(HostId(h as u32), |hl, _| {
                hl.endpoints.iter().for_each(|e| total += e.stats);
            });
        }
        total
    }

    // ------------------------------------------------------------------
    // Control plane pumping
    // ------------------------------------------------------------------

    fn pump_control(&mut self) {
        // Fast path: nothing to drain (every push into `switch_events` or
        // `Sinks::ctrl_requests` raises the simulator's attention flag)
        // and the next replica tick still in the future. Raft traffic
        // itself rides the management heap and is handled in
        // `apply_mgmt`, not here.
        let now = self.sim.now();
        if !self.sim.take_attention() && now < self.next_ctrl_tick {
            return;
        }
        // Switch detect reports and endpoint control requests go out at
        // once, through their clients.
        let events = std::mem::take(&mut *self.switch_events.borrow_mut());
        let reqs = std::mem::take(&mut self.sinks.borrow_mut().ctrl_requests);
        for ev in events {
            let SwitchEvent::InLinkDead { switch: reporter, from: dead, last_commit } = ev;
            self.clients[SWITCHES].0.submit(CtrlEvent::Detect { reporter, dead, last_commit });
        }
        for (_raised_at, from, req) in reqs {
            match req.into_event(from) {
                Ok(ev) => self.clients[HOSTS].0.submit(ev),
                // Controller relays after two management hops. Best
                // effort: the relay does not touch the replicated log.
                Err(dgram) => {
                    self.mgmt.push(now + 2 * MGMT_DELAY, MgmtMsg::Forward { dgram });
                }
            }
        }
        self.poll_client(SWITCHES);
        self.poll_client(HOSTS);
        // Periodic replica tick: Raft timeouts/heartbeats. Partitioned
        // replicas keep ticking (their local clock runs) but their traffic
        // is dropped at the edge.
        if now >= self.next_ctrl_tick {
            self.next_ctrl_tick = now + MGMT_DELAY;
            for r in self.replicas.iter_mut().filter(|r| r.alive) {
                let reachable = r.reachable(now);
                let out = &mut ReplicaOut { net: &mut self.mgmt, now, reachable, announced: 0 };
                r.node.tick(out, now);
            }
            self.note_leadership();
        }
    }

    /// Send client `c`'s due requests, add its counters to the stats, and
    /// move its one [`MgmtMsg::Poll`] to its next due time.
    fn poll_client(&mut self, c: usize) {
        let now = self.sim.now();
        let (client, poll) = &mut self.clients[c];
        let mut due = Vec::new();
        client.poll(now, |seq, ev| due.push(MgmtMsg::Req { client: c, seq, ev }));
        self.sim.stats.ctrl_retries += std::mem::take(&mut client.retries);
        self.sim.stats.ctrl_drops += std::mem::take(&mut client.drops);
        let next = client.next_due();
        if let Some(key) = poll.take() {
            self.mgmt.heap.remove(&key);
        }
        for req in due {
            self.mgmt.push(now + MGMT_DELAY, req);
        }
        *poll = next.map(|at| self.mgmt.push(at, MgmtMsg::Poll { client: c }));
    }

    /// Count leader elections: the first time any alive replica is seen
    /// leading a term newer than every previously-led term.
    fn note_leadership(&mut self) {
        for r in self.replicas.iter().filter(|r| r.alive).map(|r| &r.node.ctrl) {
            if r.is_leader() && r.epoch() > self.last_leader_term {
                self.last_leader_term = r.epoch();
                self.sim.stats.ctrl_elections += 1;
            }
        }
    }

    fn apply_mgmt(&mut self, msg: MgmtMsg) {
        let now = self.sim.now();
        match msg {
            MgmtMsg::Frame { to: MgmtTo::Node(_), frame: MgmtFrame::Action { epoch, action } } => {
                self.apply_ctrl_action(epoch, action)
            }
            MgmtMsg::Frame { to: MgmtTo::Replica(to), frame: MgmtFrame::Raft { from, msg } } => {
                // In-flight messages from a replica that died after sending
                // still arrive; a dead or partitioned *receiver* does not
                // take delivery.
                let r = &mut self.replicas[to as usize];
                if !r.reachable(now) {
                    return;
                }
                let out =
                    &mut ReplicaOut { net: &mut self.mgmt, now, reachable: true, announced: 0 };
                r.node.on_raft(out, now, from, msg);
                self.note_leadership();
            }
            MgmtMsg::Frame { to: MgmtTo::Client(client), frame: MgmtFrame::Ack { seq } } => {
                self.clients[client].0.on_ack(seq);
                self.poll_client(client);
            }
            // A replica sends no other frame.
            MgmtMsg::Frame { .. } => {}
            MgmtMsg::Req { client, seq, ev } => {
                for r in self.replicas.iter_mut().filter(|r| r.reachable(now)) {
                    r.node.ctrl.submit(client, seq, ev.clone());
                }
            }
            MgmtMsg::Poll { client } => self.poll_client(client),
            MgmtMsg::CtrlCrash { replica } => {
                if self.replicas[replica].alive {
                    self.replicas[replica].alive = false;
                    self.sim.stats.faults_ctrl_crashes += 1;
                }
            }
            MgmtMsg::CtrlPartition { replica, until } => {
                if self.replicas[replica].alive {
                    self.replicas[replica].partitioned_until = until;
                    self.sim.stats.faults_ctrl_partitions += 1;
                }
            }
            MgmtMsg::Forward { dgram } => {
                let Some(host) = self.procs.host_of(dgram.dst) else { return };
                self.with_host(host, |hl, ctx| {
                    hl.drive(ctx, |node, wire, now| node.rt.deliver_forwarded(wire, now, dgram))
                });
            }
        }
    }

    /// Hand an epoch-tagged controller action to its destination's node,
    /// whose fence drops it if a deposed leader sent it, and record it if
    /// it passed.
    fn apply_ctrl_action(&mut self, epoch: u64, action: CtrlAction) {
        let now = self.sim.now();
        let record = action.clone();
        let passed = match action.dest() {
            ActionDest::Process(to) => {
                let Some(host) = self.procs.host_of(to) else { return };
                self.with_host(host, |hl, ctx| {
                    hl.drive(ctx, |node, wire, now| node.on_action(wire, now, epoch, action))
                })
            }
            ActionDest::Switch(at) => self
                .sim
                .with_node(at, |logic, _| {
                    let sw = logic.as_any_mut()?.downcast_mut::<SwitchLogic>()?;
                    Some(sw.node.on_action(epoch, action))
                })
                .flatten(),
        };
        if passed == Some(true) {
            self.ctrl_actions.push((now, epoch, record));
        }
    }
}

/// Map the topology onto controller failure domains.
fn build_failure_domains(topo: &Topology, procs: &ProcessMap) -> FailureDomains {
    let mut domains = FailureDomains::default();
    let mut next_comp = 0u32;
    // Hosts.
    for h in 0..topo.num_hosts() {
        let host = HostId(h as u32);
        domains.add_component(
            next_comp,
            vec![topo.host_node(host)],
            procs.processes_on(host).to_vec(),
        );
        next_comp += 1;
    }
    // Physical switches, up and down halves together: the ToRs, then the
    // spines, then the cores, each in key order.
    let mut switches: BTreeMap<(u8, u32, u32), Vec<NodeId>> = BTreeMap::new();
    for (i, role) in topo.roles.iter().enumerate() {
        let key = match *role {
            NodeRole::TorUp { pod, idx } | NodeRole::TorDown { pod, idx } => (0, pod, idx),
            NodeRole::SpineUp { pod, idx } | NodeRole::SpineDown { pod, idx } => (1, pod, idx),
            NodeRole::Core { idx } => (2, 0, idx),
            NodeRole::Host(_) => continue,
        };
        switches.entry(key).or_default().push(NodeId(i as u32));
    }
    let per_tor = topo.params.hosts_per_tor;
    for ((kind, pod, idx), nodes) in switches {
        // Single-homed racks: a dead ToR kills every process in the rack.
        let first = (pod * topo.params.tors_per_pod + idx) * per_tor;
        let rack = (first..first + per_tor).flat_map(|h| procs.processes_on(HostId(h)));
        let killed = if kind == 0 { rack.copied().collect() } else { Vec::new() };
        domains.add_component(next_comp, nodes, killed);
        next_comp += 1;
    }
    domains
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use onepipe_controller::ReplicatedController;
    use onepipe_types::time::MICROS;

    #[test]
    fn best_effort_delivery_across_rack() {
        let mut c = Cluster::new(ClusterConfig::single_rack(4, 4));
        c.run_for(50 * MICROS); // let barriers start flowing
        c.send(ProcessId(0), vec![Message::new(ProcessId(3), "hi")], false).unwrap();
        c.run_for(100 * MICROS);
        let d = c.take_deliveries();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].receiver, ProcessId(3));
        assert_eq!(d[0].msg.payload, Bytes::from_static(b"hi"));
        assert!(!d[0].reliable);
    }

    #[test]
    fn reliable_delivery_across_pods() {
        let mut c = Cluster::new(ClusterConfig::testbed(32));
        c.run_for(50 * MICROS);
        // Process 0 (host 0, pod 0) to process 31 (host 31, pod 1).
        c.send(ProcessId(0), vec![Message::new(ProcessId(31), "cross-pod")], true).unwrap();
        c.run_for(200 * MICROS);
        let d = c.take_deliveries();
        assert_eq!(d.len(), 1);
        assert!(d[0].reliable);
        assert_eq!(d[0].msg.payload, Bytes::from_static(b"cross-pod"));
    }

    #[test]
    fn total_order_is_consistent_across_receivers() {
        let mut c = Cluster::new(ClusterConfig::single_rack(8, 8));
        c.run_for(50 * MICROS);
        // Every process scatters to two receivers; both receivers must see
        // all scatterings in the same relative order.
        for round in 0..5 {
            for p in 0..6u32 {
                let payload = format!("{p}-{round}");
                c.send(
                    ProcessId(p),
                    vec![
                        Message::new(ProcessId(6), payload.clone()),
                        Message::new(ProcessId(7), payload),
                    ],
                    false,
                )
                .unwrap();
            }
            c.run_for(10 * MICROS);
        }
        c.run_for(300 * MICROS);
        let d = c.take_deliveries();
        let seen_by = |r: u32| -> Vec<Bytes> {
            d.iter()
                .filter(|rec| rec.receiver == ProcessId(r))
                .map(|rec| rec.msg.payload.clone())
                .collect()
        };
        let a = seen_by(6);
        let b = seen_by(7);
        assert_eq!(a.len(), 30, "all 30 scatterings delivered to p6");
        assert_eq!(a, b, "both receivers must deliver in the same order");
        // And the order must be the total (ts, sender, seq) order.
        let mut keys: Vec<_> = d
            .iter()
            .filter(|rec| rec.receiver == ProcessId(6))
            .map(|rec| rec.msg.order_key())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "delivery order must match the total order");
        keys.dedup();
        assert_eq!(keys.len(), 30, "no duplicates");
    }

    #[test]
    fn host_failure_recovery_end_to_end() {
        let mut c = Cluster::new(ClusterConfig::single_rack(4, 4));
        c.run_for(50 * MICROS);
        // A reliable message flows normally.
        c.send(ProcessId(0), vec![Message::new(ProcessId(1), "pre")], true).unwrap();
        c.run_for(100 * MICROS);
        assert_eq!(c.take_deliveries().len(), 1);
        // Kill host 3 (process 3).
        let t_crash = c.sim.now();
        c.crash_host(t_crash + 1, HostId(3));
        c.run_for(500 * MICROS);
        // Controller announced the failure.
        let failed = c.failed_processes();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].0, ProcessId(3));
        // The survivors keep making progress afterwards.
        c.send(ProcessId(0), vec![Message::new(ProcessId(1), "post")], true).unwrap();
        c.run_for(300 * MICROS);
        let d = c.take_deliveries();
        assert!(
            d.iter().any(|r| r.msg.payload == Bytes::from_static(b"post")),
            "reliable delivery must resume after recovery"
        );
    }

    #[test]
    fn controller_failover_mid_recovery_still_resumes() {
        let mut c = Cluster::new(ClusterConfig::single_rack(4, 4));
        c.run_for(100 * MICROS);
        let old_leader = c.controller_leader().expect("initial election completed");
        assert!(c.sim.stats.ctrl_elections >= 1);
        // Kill host 3, then kill the controller leader while the failure
        // is still being handled (detect/announce in flight).
        let t = c.sim.now();
        c.crash_host(t + 1, HostId(3));
        c.crash_controller(t + 40 * MICROS, old_leader);
        c.run_for(800 * MICROS);
        assert_eq!(c.sim.stats.faults_ctrl_crashes, 1);
        // A new leader finished the recovery the old one started.
        let new_leader = c.controller_leader().expect("new leader elected");
        assert_ne!(new_leader, old_leader);
        let failed = c.failed_processes();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].0, ProcessId(3));
        assert!(c.controller_pending().is_empty(), "recovery completed across failover");
        // Reliable sends work again after Resume.
        c.send(ProcessId(0), vec![Message::new(ProcessId(1), "post")], true).unwrap();
        c.run_for(300 * MICROS);
        let d = c.take_deliveries();
        assert!(
            d.iter().any(|r| r.msg.payload == Bytes::from_static(b"post")),
            "reliable delivery must resume after controller failover"
        );
    }

    #[test]
    fn controller_partition_heals_and_recovery_completes() {
        let mut c = Cluster::new(ClusterConfig::single_rack(4, 4));
        c.run_for(100 * MICROS);
        let leader = c.controller_leader().expect("initial election completed");
        let t = c.sim.now();
        c.crash_host(t + 1, HostId(3));
        // Partition the leader off the management network for 150 µs
        // right as the failure reports arrive.
        c.partition_controller(t + 10 * MICROS, leader, 150 * MICROS);
        c.run_for(900 * MICROS);
        assert_eq!(c.sim.stats.faults_ctrl_partitions, 1);
        let failed = c.failed_processes();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].0, ProcessId(3));
        assert!(c.controller_pending().is_empty(), "recovery completed despite the partition");
        c.send(ProcessId(0), vec![Message::new(ProcessId(1), "post")], true).unwrap();
        c.run_for(300 * MICROS);
        assert!(c.take_deliveries().iter().any(|r| r.msg.payload == Bytes::from_static(b"post")));
    }

    /// What a replica's state machine holds: failures, correct processes
    /// and every pending failure.
    fn core_view(
        core: &ControllerCore,
    ) -> (Vec<(ProcessId, Timestamp)>, Vec<ProcessId>, Vec<PendingFailure>) {
        (
            core.failures().collect(),
            core.correct_processes().collect(),
            core.pending_failures().cloned().collect(),
        )
    }

    #[test]
    fn replicas_that_applied_the_same_log_agree() {
        // A dead ToR is reported by each of its spines; the leader dies
        // while that recovery is in flight. Throughout, any two alive
        // replicas at the same commit index must hold the same state, and
        // at quiescence every alive replica must.
        let mut c = Cluster::new(ClusterConfig::testbed(32));
        c.run_for(100 * MICROS);
        let old_leader = c.controller_leader().expect("initial election completed");
        let t = c.sim.now();
        c.crash_tor(t + 1, 1, 1);
        c.crash_controller(t + 40 * MICROS, old_leader);
        let mut compared = 0;
        for _ in 0..200 {
            c.run_for(5 * MICROS);
            let alive: Vec<&ReplicatedController<usize>> =
                c.replicas.iter().filter(|r| r.alive).map(|r| &r.node.ctrl).collect();
            for (i, a) in alive.iter().enumerate() {
                for b in &alive[i + 1..] {
                    if a.raft().commit_index() == b.raft().commit_index() && a.core().has_pending()
                    {
                        assert_eq!(core_view(a.core()), core_view(b.core()));
                        compared += 1;
                    }
                }
            }
        }
        assert!(compared > 0, "no two replicas ever shared a commit index mid-recovery");
        c.run_for(2_000 * MICROS);
        assert_eq!(c.sim.stats.faults_ctrl_crashes, 1);
        assert_ne!(c.controller_leader(), Some(old_leader));
        let views: Vec<_> =
            c.replicas.iter().filter(|r| r.alive).map(|r| core_view(r.node.ctrl.core())).collect();
        assert_eq!(views.len(), 2);
        assert_eq!(views[0], views[1]);
        assert_eq!(views[0].0.len(), 8, "the rack's eight processes failed");
    }

    /// Every replica is cut off for 1 ms while a host dies: its ToR's
    /// Detect report keeps being re-sent until a leader commits it, so
    /// the failure is announced and recovered once the partition heals.
    #[test]
    fn a_switch_report_outlives_a_controller_outage() {
        let mut c = Cluster::new(ClusterConfig::testbed(32));
        c.run_for(100 * MICROS);
        let t = c.sim.now();
        for replica in 0..REPLICAS {
            c.partition_controller(t, replica, 1_000 * MICROS);
        }
        c.crash_host(t + 10 * MICROS, HostId(7));
        c.run_for(2_000 * MICROS);
        let failed: Vec<ProcessId> = c.failed_processes().iter().map(|f| f.0).collect();
        assert_eq!(failed, [ProcessId(7)], "ctrl_drops {}", c.sim.stats.ctrl_drops);
        assert!(c.controller_pending().is_empty(), "recovery completed after the outage");
    }

    /// Every replica is cut off for 2 ms from 80 µs after a host dies. A
    /// follower that kept a stale log suffix must report as replicated,
    /// and commit, only what the leader's Append covered: over-reporting
    /// it once sent the leader's `next_index` past its own log (an index
    /// panic in `term_at`).
    #[test]
    fn a_quorum_partition_after_a_host_crash_recovers() {
        let mut c = Cluster::new(ClusterConfig::testbed(32));
        c.crash_host(100 * MICROS, HostId(7));
        for replica in 0..REPLICAS {
            c.partition_controller(180 * MICROS, replica, 2_000 * MICROS);
        }
        c.run_until(5_000 * MICROS);
        let failed: Vec<ProcessId> = c.failed_processes().iter().map(|f| f.0).collect();
        assert_eq!(failed, [ProcessId(7)]);
        assert!(c.controller_pending().is_empty(), "recovery completed after the partition");
    }

    /// FNV-1a over a stream of words (the golden fingerprints below).
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in words {
            for b in w.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Pump-timing golden for the path the benchmark runs:
    /// a host crash, then a controller-leader crash mid-recovery, under
    /// 1e-4 link loss. The values hold on the per-event pump loop (pump
    /// after every simulator event), so they hold only if the batch loop
    /// still pumps the control plane after exactly the same events. The
    /// retry count and the second leader's action times were re-recorded
    /// (and checked on the per-event loop) when requests began retiring on
    /// their commit ack: the management heap then carries other deliveries
    /// (acks and client polls; no re-send after an ack), each followed by
    /// a pump, so the replicas' tick phase moved (first at 247 559 →
    /// 247 535 ns), and `ctrl_retries` counts re-sends for want of an ack.
    #[test]
    fn control_plane_pumps_after_the_same_events_as_the_per_event_loop() {
        let mut c = Cluster::new(ClusterConfig::testbed(32));
        c.sim.set_global_loss_rate(1e-4);
        c.run_for(100 * MICROS);
        let old_leader = c.controller_leader().expect("initial election completed");
        let t0 = c.sim.now();
        c.crash_host(t0 + 20 * MICROS + 1, HostId(7));
        c.crash_controller(t0 + 130 * MICROS, old_leader);
        for round in 0..170u32 {
            for k in 0..4u32 {
                let from = (round * 5 + k * 9) % 32;
                let to = (from + 1 + round % 7) % 32;
                let msgs =
                    vec![Message::new(ProcessId(to), "m"), Message::new(ProcessId(from ^ 1), "m")];
                // Sends from or to the crashed host may be refused.
                let _ = c.send(ProcessId(from), msgs, k % 2 == 0);
            }
            c.run_for(7 * MICROS);
        }
        c.run_for(200 * MICROS);

        assert_ne!(c.controller_leader(), Some(old_leader));
        assert_eq!(c.failed_processes().first().map(|f| f.0), Some(ProcessId(7)));
        assert!(c.controller_pending().is_empty(), "recovery completed across failover");

        let d = c.take_deliveries();
        let delivery_fp = fnv(d.iter().flat_map(|r| {
            let m = &r.msg;
            [r.at, r.receiver.0 as u64, m.ts.raw(), m.src.0 as u64, m.seq, r.reliable as u64]
        }));
        assert_eq!((d.len(), delivery_fp), (1267, 0xc0ee_b3f9_93c3_aac6));
        let events_fp = fnv(c.take_user_events().iter().flat_map(|(at, p, _)| [*at, p.0 as u64]));
        assert_eq!(events_fp, 0x10d3_6397_2514_4765);
        let s = &c.sim.stats;
        assert_eq!(
            (s.events, s.packets_sent, s.drops_inflight, s.ctrl_elections, s.ctrl_retries),
            (99_831, 64_357, 2, 2, 102)
        );

        // The sim time of every applied controller action: the first
        // leader announces to every survivor (one serialization slot
        // each), the second re-drives the announcements whose callbacks
        // had not committed and resumes the ToR that reported the link.
        let applied: Vec<String> = c
            .take_ctrl_actions()
            .iter()
            .map(|(at, epoch, a)| match a {
                CtrlAction::Announce { id, to, .. } => {
                    format!("{at} e{epoch} announce#{id}->{}", to.0)
                }
                CtrlAction::Resume { at: sw, input } => {
                    format!("{at} e{epoch} resume {}<-{}", sw.0, input.0)
                }
            })
            .collect();
        let mut want = Vec::new();
        for (slot, p) in (0..32u64).filter(|&p| p != 7).enumerate() {
            want.push(format!("{} e1 announce#1->{p}", 180_535 + 3_000 * slot as u64));
        }
        for (slot, p) in (14..32u64).enumerate() {
            if p == 30 {
                want.push("387535 e2 resume 32<-7".to_string());
            }
            want.push(format!("{} e2 announce#1->{p}", 340_535 + 3_000 * slot as u64));
        }
        assert_eq!(applied, want);
    }

    /// A management delivery and a simulator event in the same
    /// nanosecond: the event runs first (inside the `run_until` that
    /// precedes `apply_mgmt`) — the order recorded on the single-queue
    /// engine.
    #[test]
    fn events_at_a_management_delivery_time_run_before_it() {
        use onepipe_netsim::engine::{Ctx, NodeLogic, SimPacket};
        /// Stands in for a core switch: logs its timer, and logs the
        /// `Resume` action's downcast probe — the only call a
        /// management delivery makes into a node without `HostLogic`.
        struct Probe(Arc<Mutex<Vec<&'static str>>>);
        impl NodeLogic for Probe {
            fn on_packet(&mut self, _: &mut Ctx<'_>, _: NodeId, _: SimPacket) {}
            fn on_timer(&mut self, _: &mut Ctx<'_>, _: u64) {
                self.0.lock().unwrap().push("event");
            }
            fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
                self.0.lock().unwrap().push("mgmt");
                None
            }
        }
        let mut c = Cluster::new(ClusterConfig::testbed(32));
        let core = *c.topo.switch_nodes.last().expect("testbed has switches");
        let log = Arc::new(Mutex::new(Vec::new()));
        c.sim.set_logic(core, Box::new(Probe(log.clone())));
        let tie = 10 * MICROS;
        // The delivery is queued first; push order does not decide.
        let action = CtrlAction::Resume { at: core, input: NodeId(0) };
        let to = MgmtTo::Node(action.dest());
        c.mgmt.push(tie, MgmtMsg::Frame { to, frame: MgmtFrame::Action { epoch: 0, action } });
        c.sim.schedule_timer(tie, core, 0);
        c.run_until(tie - 1);
        assert!(log.lock().unwrap().is_empty());
        c.run_until(tie);
        assert_eq!(*log.lock().unwrap(), ["event", "mgmt"]);
    }

    #[test]
    fn a_cluster_with_a_host_crash_repeats_bit_for_bit() {
        // The full cluster — switches, hosts, controller, a host crash
        // and its recovery: two runs produce byte-identical delivery and
        // event streams.
        let run = || {
            let mut c = Cluster::new(ClusterConfig::single_rack(4, 4));
            c.run_for(50 * MICROS);
            for p in 0..4u32 {
                c.send(ProcessId(p), vec![Message::new(ProcessId((p + 1) % 4), "x")], true)
                    .unwrap();
            }
            let t = c.sim.now();
            c.crash_host(t + 20 * MICROS, HostId(3));
            c.run_for(600 * MICROS);
            let d: Vec<_> = c
                .take_deliveries()
                .iter()
                .map(|r| (r.at, r.receiver, r.msg.ts, r.msg.src, r.reliable))
                .collect();
            let ev = c.take_user_events();
            (d, format!("{ev:?}"), c.sim.stats.events, c.failed_processes())
        };
        let one = run();
        assert!(!one.0.is_empty(), "reference run delivered nothing");
        assert_eq!(one.3.first().map(|f| f.0), Some(ProcessId(3)));
        assert_eq!(run(), one, "a second run diverged from the first");
    }

    #[test]
    fn total_order_holds_across_pods() {
        let mut c = Cluster::new(ClusterConfig::testbed(32));
        c.run_for(50 * MICROS);
        for round in 0..3 {
            for p in 0..6u32 {
                let payload = format!("{p}-{round}");
                c.send(
                    ProcessId(p),
                    vec![
                        Message::new(ProcessId(30), payload.clone()),
                        Message::new(ProcessId(31), payload),
                    ],
                    false,
                )
                .unwrap();
            }
            c.run_for(10 * MICROS);
        }
        c.run_for(400 * MICROS);
        let d = c.take_deliveries();
        let seen_by = |r: u32| -> Vec<Bytes> {
            d.iter()
                .filter(|rec| rec.receiver == ProcessId(r))
                .map(|rec| rec.msg.payload.clone())
                .collect()
        };
        let a = seen_by(30);
        assert_eq!(a.len(), 18, "all scatterings delivered cross-pod");
        assert_eq!(a, seen_by(31), "both receivers must deliver in the same order");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut c = Cluster::new(ClusterConfig::single_rack(4, 4));
            c.run_for(50 * MICROS);
            for p in 0..4u32 {
                c.send(ProcessId(p), vec![Message::new(ProcessId((p + 1) % 4), "x")], false)
                    .unwrap();
            }
            c.run_for(200 * MICROS);
            c.take_deliveries()
                .iter()
                .map(|r| (r.at, r.receiver, r.msg.ts, r.msg.src))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
