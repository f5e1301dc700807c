//! One node per role — host process, switch, controller replica: its
//! sans-I/O core plus the management-frame dispatch, the stale-leader
//! epoch fence and the tick every transport needs around it.
//!
//! What a node sends leaves through its driver's `Io`: the core's wire
//! ([`Wire`], [`SwitchWire`], [`ReplicaIo`]) and the request client the
//! driver keeps and polls ([`NodeIo`]) — a UDP thread one per node, the
//! simulator one for all hosts and one for all switches. UDP's `run_node`
//! drives every role through [`Node`]; the simulator hands its management
//! deliveries to the `on_action`s and to [`ReplicaNode`], and its data
//! path calls the cores directly.

use crate::runtime::{HostRuntime, Wire};
use bytes::Bytes;
use onepipe_controller::{
    ActionDest, CtrlAction, CtrlClient, FailureDomains, MgmtFrame, Output, RaftConfig, RaftMsg,
    ReplicatedController, REPLICAS,
};
use onepipe_switchlogic::{SwitchCore, SwitchWire};
use onepipe_types::ids::{NodeId, ProcessId};
use onepipe_types::wire::{Datagram, Opcode};

/// An action receiver's stale-leader fence: the highest epoch seen.
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochFence(u64);

impl EpochFence {
    /// Whether an action of `epoch` passes; one that does raises the fence.
    pub fn admit(&mut self, epoch: u64) -> bool {
        let pass = epoch >= self.0;
        self.0 = self.0.max(epoch);
        pass
    }
}

/// What a node needs of its driver besides its core's wire.
pub trait NodeIo {
    /// The driver's request client.
    fn client(&mut self) -> &mut CtrlClient;
}

/// One node as a transport loop drives it; `A` addresses a frame's sender.
pub trait Node<Io, A> {
    /// Datagram `d` arrived from `from` at `now`.
    fn on_frame(&mut self, io: &mut Io, now: u64, from: A, d: Datagram);
    /// Whether the receive burst in progress is over at `now`.
    fn burst_done(&self, now: u64) -> bool;
    /// The burst is over: what waited for its end runs now.
    fn end_burst(&mut self, _io: &mut Io, _now: u64) {}
    /// Run what is due at `now`.
    fn on_deadline(&mut self, io: &mut Io, now: u64);
    /// When [`on_deadline`](Self::on_deadline) next has work.
    fn next_deadline(&self, client: &CtrlClient) -> u64;
}

/// A host's or switch's management frame: an ack goes to the client, an
/// action comes back for the node's fence.
fn client_frame(io: &mut impl NodeIo, payload: Bytes) -> Option<(u64, CtrlAction)> {
    match MgmtFrame::decode(payload) {
        Ok(MgmtFrame::Action { epoch, action }) => Some((epoch, action)),
        Ok(MgmtFrame::Ack { seq }) => {
            io.client().on_ack(seq);
            None
        }
        _ => None,
    }
}

/// The earlier of `tick` and the client's next due time.
fn earliest(tick: u64, client: &CtrlClient) -> u64 {
    client.next_due().map_or(tick, |due| due.min(tick))
}

/// A host's node: its [`HostRuntime`] (which takes the application's
/// commands), a fence per local process, and the burst's data.
pub struct ProcessNode {
    /// The runtime doing the work.
    pub rt: HostRuntime,
    /// One per entry of `rt.endpoints`.
    fences: Vec<EpochFence>,
    burst: Vec<Datagram>,
    next_tick: u64,
}

impl ProcessNode {
    /// Datagrams that end a burst, so a loaded socket cannot starve the tick.
    pub const BURST_MAX: usize = 64;

    /// The node of `rt`, its first tick due at once.
    pub fn new(rt: HostRuntime) -> Self {
        let fences = vec![EpochFence::default(); rt.endpoints.len()];
        ProcessNode { rt, fences, burst: Vec::new(), next_tick: 0 }
    }

    /// Controller action `action` of `epoch` arrived at `now`: deliver an
    /// Announce for a local process if it passes that process's fence, and
    /// say whether it did.
    pub fn on_action(
        &mut self,
        io: &mut impl Wire,
        now: u64,
        epoch: u64,
        action: CtrlAction,
    ) -> bool {
        let CtrlAction::Announce { id, to, failures } = action else { return false };
        let Some(i) = self.rt.endpoints.iter().position(|e| e.id() == to) else { return false };
        let pass = self.fences[i].admit(epoch);
        if pass {
            self.rt.deliver_announcement(io, now, to, id, &failures);
        }
        pass
    }
}

/// A process drains its socket, then processes the burst, so the ACKs,
/// commits and reactions to all of it leave in one flush; management
/// frames act at once.
impl<Io: Wire + NodeIo, A> Node<Io, A> for ProcessNode {
    fn on_frame(&mut self, io: &mut Io, now: u64, _from: A, d: Datagram) {
        if d.header.opcode != Opcode::Mgmt {
            return self.burst.push(d);
        }
        if let Some((epoch, action)) = client_frame(io, d.payload) {
            self.on_action(io, now, epoch, action);
        }
    }

    fn burst_done(&self, _now: u64) -> bool {
        self.burst.len() >= Self::BURST_MAX
    }

    fn end_burst(&mut self, io: &mut Io, now: u64) {
        for d in self.burst.drain(..) {
            self.rt.on_datagram(io, now, d);
        }
    }

    /// The poll tick: endpoint timers, then the host beacon.
    fn on_deadline(&mut self, io: &mut Io, now: u64) {
        if now >= self.next_tick {
            self.rt.on_tick(io, now);
            self.next_tick = self.rt.next_tick_at(now);
        }
    }

    fn next_deadline(&self, client: &CtrlClient) -> u64 {
        earliest(self.next_tick, client)
    }
}

/// A switch's node: its [`SwitchCore`] and epoch fence.
pub struct SwitchNode {
    /// The switch itself.
    pub core: SwitchCore,
    fence: EpochFence,
    next_tick: u64,
}

impl SwitchNode {
    /// The node of `core`, its first tick due at once.
    pub fn new(core: SwitchCore) -> Self {
        SwitchNode { core, fence: EpochFence::default(), next_tick: 0 }
    }

    /// Controller action `action` of `epoch` arrived: a Resume that passes
    /// the fence drops the reported input from the commit minimum (§5.2).
    /// Returns whether it passed.
    pub fn on_action(&mut self, epoch: u64, action: CtrlAction) -> bool {
        let CtrlAction::Resume { input, .. } = action else { return false };
        let pass = self.fence.admit(epoch);
        if pass {
            self.core.remove_commit_input(input);
        }
        pass
    }
}

/// The chip with one port per process, as the UDP soft switch runs it: a
/// frame's input link is its source process, handled as it arrives. The
/// burst ends at the deadline, and the relay it armed fires at its end.
/// Ticking mid-queue is safe: data still queued from a host left it after
/// the barrier last processed from it (per-link FIFO, §4.1).
impl<Io: SwitchWire<Packet = Datagram> + NodeIo, A> Node<Io, A> for SwitchNode {
    fn on_frame(&mut self, io: &mut Io, now: u64, _from: A, d: Datagram) {
        if d.header.opcode != Opcode::Mgmt {
            return self.core.on_packet(io, now, NodeId(d.src.0), d);
        }
        if let Some((epoch, action)) = client_frame(io, d.payload) {
            self.on_action(epoch, action);
        }
    }

    fn burst_done(&self, now: u64) -> bool {
        now >= self.next_tick
    }

    fn end_burst(&mut self, io: &mut Io, now: u64) {
        if self.core.timer_armed() {
            self.core.on_timer(io, now);
        }
    }

    /// Detect (§5.2) and the idle-link beacons, once per interval.
    fn on_deadline(&mut self, io: &mut Io, now: u64) {
        if now >= self.next_tick {
            self.next_tick = now + self.core.beacon_interval();
            self.core.on_tick(io, now);
        }
    }

    fn next_deadline(&self, client: &CtrlClient) -> u64 {
        earliest(self.next_tick, client)
    }
}

/// Where a replica sends a management frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MgmtTo<A> {
    /// Another replica.
    Replica(u32),
    /// The client a request came from.
    Client(A),
    /// The host process or switch an action is for.
    Node(ActionDest),
}

/// A replica's side of its driver.
pub trait ReplicaIo<A> {
    /// Send `frame` to `to`.
    fn send(&mut self, to: MgmtTo<A>, frame: MgmtFrame);
    /// Relay a forwarded datagram to its process (§5.2's fallback); a
    /// driver that models the relay elsewhere keeps this default.
    fn relay(&mut self, _d: Datagram) {}
}

/// A controller replica's node, its clients addressed by `A`.
pub struct ReplicaNode<A> {
    /// The replica itself.
    pub ctrl: ReplicatedController<A>,
}

impl<A> ReplicaNode<A> {
    /// Replica `id` of [`REPLICAS`], controlling `procs` in `domains`.
    pub fn new(
        id: u32,
        cfg: RaftConfig,
        domains: FailureDomains,
        procs: impl IntoIterator<Item = ProcessId>,
    ) -> Self {
        let peers = (0..REPLICAS as u32).filter(|&p| p != id).collect();
        ReplicaNode { ctrl: ReplicatedController::new(id, peers, cfg, domains, procs) }
    }

    /// Raft message `msg` from replica `from` arrived at `now`.
    pub fn on_raft(&mut self, io: &mut impl ReplicaIo<A>, now: u64, from: u32, msg: RaftMsg) {
        let out = self.ctrl.on_raft_msg(from, msg, now);
        self.send(io, out);
    }

    /// Raft timeouts and heartbeats at `now`; applies what committed.
    pub fn tick(&mut self, io: &mut impl ReplicaIo<A>, now: u64) {
        let out = self.ctrl.tick(now);
        self.send(io, out);
    }

    /// One step's output: Raft traffic, the actions tagged with this
    /// replica's epoch, the commit acks.
    fn send(&self, io: &mut impl ReplicaIo<A>, out: Output<A>) {
        let (from, epoch) = (self.ctrl.id(), self.ctrl.epoch());
        for (to, msg) in out.raft {
            io.send(MgmtTo::Replica(to), MgmtFrame::Raft { from, msg });
        }
        for action in out.actions {
            io.send(MgmtTo::Node(action.dest()), MgmtFrame::Action { epoch, action });
        }
        for (client, seq) in out.acks {
            io.send(MgmtTo::Client(client), MgmtFrame::Ack { seq });
        }
    }
}

/// A replica handles one frame per wake-up and ticks after it: its
/// deadline is always due, and Raft's timers decide what a tick does.
impl<A, Io: ReplicaIo<A>> Node<Io, A> for ReplicaNode<A> {
    fn on_frame(&mut self, io: &mut Io, now: u64, from: A, d: Datagram) {
        if d.header.opcode != Opcode::Mgmt {
            return;
        }
        match MgmtFrame::decode(d.payload) {
            Ok(MgmtFrame::Req { seq, ev }) => _ = self.ctrl.submit(from, seq, ev),
            Ok(MgmtFrame::Raft { from, msg }) => self.on_raft(io, now, from, msg),
            // Every replica relays; the receiver drops the duplicates.
            Ok(MgmtFrame::Forward(d)) => io.relay(d),
            _ => {}
        }
    }

    fn burst_done(&self, _now: u64) -> bool {
        true
    }

    fn on_deadline(&mut self, io: &mut Io, now: u64) {
        self.tick(io, now);
    }

    fn next_deadline(&self, _client: &CtrlClient) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EndpointConfig;
    use crate::endpoint::{Endpoint, HOP_LOCAL};
    use crate::events::{CtrlRequest, UserEvent};
    use crate::runtime::DeliveryRecord;
    use onepipe_clock::MonotonicClock;
    use onepipe_controller::{CtrlEvent, RetryPolicy};
    use onepipe_switchlogic::SwitchConfig;
    use onepipe_types::ids::{HostId, ProcessId};
    use onepipe_types::time::{Duration, Timestamp, MICROS};
    use onepipe_types::wire::{Flags, PacketHeader};

    /// A driver that records what a node sends, for every role: the
    /// runtime's wire, the switch's wire and a replica's sends.
    struct Rec {
        client: CtrlClient,
        events: Vec<UserEvent>,
        beacons: Vec<(NodeId, Timestamp, Timestamp)>,
        sent: Vec<(MgmtTo<u32>, MgmtFrame)>,
    }

    impl Rec {
        fn new() -> Self {
            let retry = RetryPolicy { base: 10, cap: 40, max_attempts: 5 };
            Rec { client: CtrlClient::new(retry), events: vec![], beacons: vec![], sent: vec![] }
        }
    }

    impl NodeIo for Rec {
        fn client(&mut self) -> &mut CtrlClient {
            &mut self.client
        }
    }

    impl Wire for Rec {
        fn emit(&mut self, _d: Datagram) {}
        fn deliver(&mut self, _rec: DeliveryRecord) {}
        fn user_event(&mut self, _at: u64, _proc: ProcessId, ev: UserEvent) {
            self.events.push(ev);
        }
        fn ctrl_request(&mut self, _at: u64, _proc: ProcessId, _req: CtrlRequest) {}
    }

    impl SwitchWire for Rec {
        type Packet = Datagram;
        fn header<'p>(&'p mut self, d: &'p mut Datagram) -> &'p mut PacketHeader {
            &mut d.header
        }
        fn route(&mut self, d: &Datagram) -> Option<NodeId> {
            Some(NodeId(d.dst.0))
        }
        fn forward(&mut self, _to: NodeId, _d: Datagram) {}
        fn beacon(&mut self, to: NodeId, be: Timestamp, commit: Timestamp) {
            self.beacons.push((to, be, commit));
        }
        fn set_timer(&mut self, _delay: Duration) {}
        fn dead_input(&mut self, _from: NodeId, _last_commit: Timestamp) {}
    }

    impl ReplicaIo<u32> for Rec {
        fn send(&mut self, to: MgmtTo<u32>, frame: MgmtFrame) {
            self.sent.push((to, frame));
        }
    }

    /// `frame` as the `Opcode::Mgmt` datagram a transport carries.
    fn mgmt(frame: &MgmtFrame) -> Datagram {
        let mut header = PacketHeader::data(Timestamp::ZERO, 0, Flags::empty());
        header.opcode = Opcode::Mgmt;
        Datagram { src: HOP_LOCAL, dst: HOP_LOCAL, header, payload: frame.encode() }
    }

    fn ts(v: u64) -> Timestamp {
        Timestamp::from_nanos(v)
    }

    /// Process 0 alone on its host, ticking every 100 µs.
    fn process_node() -> ProcessNode {
        let endpoints = vec![Endpoint::new(ProcessId(0), EndpointConfig::default())];
        let rt = HostRuntime::new(HostId(0), MonotonicClock::perfect(), endpoints, 100 * MICROS);
        ProcessNode::new(rt)
    }

    /// The chip with one input and one port per process `0..n`.
    fn switch_node(n: u32) -> SwitchNode {
        let links: Vec<NodeId> = (0..n).map(NodeId).collect();
        SwitchNode::new(SwitchCore::new(SwitchConfig::default(), links.clone(), &links, 1_000_000))
    }

    fn announce(id: u64) -> CtrlAction {
        CtrlAction::Announce { id, to: ProcessId(0), failures: vec![(ProcessId(1), ts(50))] }
    }

    fn announced(io: &Rec) -> Vec<u64> {
        let ids = io.events.iter().filter_map(|e| match e {
            UserEvent::ProcessFailed { announce_id, .. } => Some(*announce_id),
            _ => None,
        });
        ids.collect()
    }

    #[test]
    fn a_process_fences_off_a_stale_epoch_announce() {
        let (mut node, mut io) = (process_node(), Rec::new());
        let action = |epoch, action| mgmt(&MgmtFrame::Action { epoch, action });
        Node::<_, ()>::on_frame(&mut node, &mut io, 10, (), action(2, announce(1)));
        Node::<_, ()>::on_frame(&mut node, &mut io, 20, (), action(1, announce(2)));
        assert_eq!(announced(&io), [1], "the epoch-1 leader was deposed");
        Node::<_, ()>::on_frame(&mut node, &mut io, 30, (), action(2, announce(3)));
        assert_eq!(announced(&io), [1, 3], "the fence admits its own epoch");
    }

    fn beacon(src: u32, t: u64) -> Datagram {
        let mut d = Datagram::beacon(ts(t), ts(t));
        d.src = ProcessId(src);
        d
    }

    #[test]
    fn a_switch_fences_off_a_stale_epoch_resume() {
        let (mut node, mut io) = (switch_node(3), Rec::new());
        for (src, t) in [(0, 1_000), (1, 2_000), (2, 3_000)] {
            Node::<_, ()>::on_frame(&mut node, &mut io, 10, (), beacon(src, t));
        }
        let resume = |epoch, input| {
            let action = CtrlAction::Resume { at: NodeId(9), input: NodeId(input) };
            mgmt(&MgmtFrame::Action { epoch, action })
        };
        Node::<_, ()>::on_frame(&mut node, &mut io, 20, (), resume(3, 0));
        assert_eq!(node.core.aggregator_mut().out_commit(20), ts(2_000), "input 0 dropped");
        Node::<_, ()>::on_frame(&mut node, &mut io, 30, (), resume(2, 1));
        assert_eq!(node.core.aggregator_mut().out_commit(30), ts(2_000), "epoch 2 fenced off");
    }

    /// Several barrier advances in one receive burst leave as one relay,
    /// carrying the final minimum, when the burst ends.
    #[test]
    fn a_burst_of_barrier_advances_is_relayed_once_at_its_end() {
        let (mut node, mut io) = (switch_node(2), Rec::new());
        let burst = |node: &mut SwitchNode, io: &mut Rec, now: u64, arrivals: &[(u32, u64)]| {
            for &(src, t) in arrivals {
                Node::<_, ()>::on_frame(node, io, now, (), beacon(src, t));
            }
            assert_eq!(io.beacons, [], "nothing is relayed mid-burst");
            Node::<_, ()>::end_burst(node, io, now);
            std::mem::take(&mut io.beacons)
        };
        let first = burst(&mut node, &mut io, 10, &[(0, 1_000), (1, 2_000)]);
        assert_eq!(first, [(NodeId(0), ts(1_000), ts(1_000)), (NodeId(1), ts(1_000), ts(1_000))]);
        // The minimum moves twice: 1 000 → 1 500 → 2 500.
        let second = burst(&mut node, &mut io, 20, &[(0, 1_500), (1, 3_000), (0, 2_500)]);
        assert_eq!(second, [(NodeId(0), ts(2_500), ts(2_500)), (NodeId(1), ts(2_500), ts(2_500))]);
        assert_eq!(burst(&mut node, &mut io, 30, &[]), [], "an empty burst relays nothing");
    }

    #[test]
    fn the_next_deadline_is_the_tick_or_the_client_whichever_is_first() {
        let (mut process, mut switch) = (process_node(), switch_node(1));
        let mut io = Rec::new();
        let detect =
            || CtrlEvent::Detect { reporter: NodeId(1), dead: NodeId(0), last_commit: ts(0) };
        Node::<Rec, ()>::on_deadline(&mut process, &mut io, 0);
        Node::<Rec, ()>::on_deadline(&mut switch, &mut io, 5);
        let deadlines = |io: &Rec, p: &ProcessNode, s: &SwitchNode| {
            (
                Node::<Rec, ()>::next_deadline(p, &io.client),
                Node::<Rec, ()>::next_deadline(s, &io.client),
            )
        };
        assert_eq!(deadlines(&io, &process, &switch), (100 * MICROS, 3_005), "the ticks");
        io.client.submit(detect());
        assert_eq!(deadlines(&io, &process, &switch), (0, 0), "a new request is due at once");
        io.client.poll(0, |_, _| {});
        assert_eq!(deadlines(&io, &process, &switch), (10, 10), "then its re-send");
        io.client.poll(10, |_, _| {});
        assert_eq!(deadlines(&io, &process, &switch), (30, 30));
        Node::<Rec, ()>::on_frame(&mut switch, &mut io, 12, (), mgmt(&MgmtFrame::Ack { seq: 1 }));
        assert_eq!(deadlines(&io, &process, &switch), (100 * MICROS, 3_005), "acked: the ticks");
    }

    /// Three replicas over a lossless network that can cut one off.
    struct Replicas {
        nodes: Vec<ReplicaNode<u32>>,
        ios: Vec<Rec>,
        cut: Option<usize>,
        now: u64,
        /// `(replica, client, seq)` of every ack sent.
        acks: Vec<(usize, u32, u64)>,
    }

    impl Replicas {
        fn new() -> Self {
            let cfg = RaftConfig { election_timeout: 1_000, heartbeat_interval: 200 };
            let mut domains = FailureDomains::default();
            domains.add_component(0, vec![NodeId(0)], vec![ProcessId(0)]);
            let nodes = (0..3).map(|i| ReplicaNode::new(i, cfg, domains.clone(), [ProcessId(0)]));
            Replicas {
                nodes: nodes.collect(),
                ios: (0..3).map(|_| Rec::new()).collect(),
                cut: None,
                now: 0,
                acks: vec![],
            }
        }

        /// Tick every replica `dt` later, then deliver until quiet.
        fn run(&mut self, dt: u64) {
            self.now += dt;
            for (node, io) in self.nodes.iter_mut().zip(&mut self.ios) {
                Node::<Rec, u32>::on_deadline(node, io, self.now);
            }
            let mut busy = true;
            while busy {
                busy = false;
                for i in 0..3 {
                    for (to, frame) in std::mem::take(&mut self.ios[i].sent) {
                        match (to, frame) {
                            (MgmtTo::Replica(r), f)
                                if self.cut != Some(i) && self.cut != Some(r as usize) =>
                            {
                                let (node, io) =
                                    (&mut self.nodes[r as usize], &mut self.ios[r as usize]);
                                Node::<Rec, u32>::on_frame(node, io, self.now, i as u32, mgmt(&f));
                                busy = true;
                            }
                            (MgmtTo::Client(c), MgmtFrame::Ack { seq }) => {
                                self.acks.push((i, c, seq))
                            }
                            _ => {}
                        }
                    }
                }
            }
        }

        fn leader(&self) -> Option<usize> {
            let leading = |i: &usize| self.nodes[*i].ctrl.is_leader() && self.cut != Some(*i);
            (0..3).filter(leading).max_by_key(|&i| self.nodes[i].ctrl.epoch())
        }

        /// Client 42's request `seq` reaches every replica not cut off.
        fn request(&mut self, seq: u64) {
            let ev = CtrlEvent::CallbackComplete { announce_id: seq, from: ProcessId(0) };
            for i in (0..3).filter(|&i| self.cut != Some(i)) {
                let frame = mgmt(&MgmtFrame::Req { seq, ev: ev.clone() });
                Node::<Rec, u32>::on_frame(
                    &mut self.nodes[i],
                    &mut self.ios[i],
                    self.now,
                    42,
                    frame,
                );
            }
        }
    }

    #[test]
    fn a_replica_acks_on_commit_and_drops_its_acks_when_deposed() {
        let mut r = Replicas::new();
        while r.leader().is_none() {
            r.run(100);
        }
        let old = r.leader().unwrap();
        r.request(7);
        assert_eq!(r.acks, [], "logged, not yet committed");
        r.run(200);
        assert_eq!(r.acks, [(old, 42, 7)], "the leader acks once it commits, nobody else");
        // Request 8 reaches only the leader, which is then cut off: the
        // others elect a new leader, whose entries overwrite it.
        r.cut = Some((old + 1) % 3);
        r.request(8);
        r.cut = Some(old);
        while r.leader().is_none() {
            r.run(100);
        }
        r.cut = None;
        for _ in 0..10 {
            r.run(200);
        }
        assert!(!r.nodes[old].ctrl.is_leader(), "the old leader was deposed");
        assert_eq!(r.acks, [(old, 42, 7)], "request 8 never committed, so nobody acked it");
    }
}
