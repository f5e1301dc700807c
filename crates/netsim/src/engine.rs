//! The discrete-event engine: event model, node callbacks and the
//! simulator that coordinates them.
//!
//! There is one engine. [`Sim`] is a coordinator over *shards*
//! ([`crate::shard`]): each shard owns a disjoint set of nodes, the links
//! that leave them, a calendar queue, an RNG stream and the one event
//! loop. A new simulator holds the whole network in a single shard —
//! one queue, one RNG, events in global `(time, seq)` order;
//! [`Sim::set_partition`] splits that shard along the topology so that
//! each shard's queue, links and node state stay small enough to be
//! cache-resident in a large run. Everything runs on the calling thread:
//! the partition decides how state is laid out and in which
//! (deterministic) order events run, never which code runs.

use crate::link::{Enqueue, Link, LinkParams};
use crate::shard::{OutMsg, Shard, Shared};
use crate::stats::{ShardStat, Stats};
use crate::trace::{TraceRecord, TracerHandle};
use onepipe_types::ids::{LinkId, NodeId, HOP_LOCAL};
use onepipe_types::time::{Duration, Timestamp};
use onepipe_types::wire::{Datagram, Flags, Opcode, HEADER_LEN};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;

/// Fixed per-packet overhead on the wire beyond the 1Pipe datagram:
/// Ethernet + IP + UDP headers (≈ RoCE UD framing in the testbed).
pub const WIRE_OVERHEAD: u64 = 60;

/// A packet in flight inside the simulator.
#[derive(Clone, Debug)]
pub struct SimPacket {
    /// The self-contained 1Pipe datagram.
    pub dgram: Datagram,
    /// Total size on the wire, in bytes.
    pub wire_bytes: u64,
}

/// Wire size of a packet without payload.
const BARE_WIRE_BYTES: u64 = WIRE_OVERHEAD + HEADER_LEN as u64;

impl SimPacket {
    /// Wrap a datagram, computing its wire size.
    pub fn new(dgram: Datagram) -> Self {
        let wire_bytes = BARE_WIRE_BYTES + dgram.payload.len() as u64;
        SimPacket { dgram, wire_bytes }
    }

    /// The *canonical beacon* carrying barriers `be` and `commit`: a
    /// hop-by-hop [`Opcode::Beacon`] with nothing else in it. The engine
    /// queues one as its two timestamps ([`Ctx::send_beacon`],
    /// [`NodeLogic::on_beacon`]); this is the packet they stand for.
    pub fn beacon(be: Timestamp, commit: Timestamp) -> Self {
        SimPacket::new(Datagram::beacon(be, commit))
    }

    /// The barriers of a canonical beacon; `None` for any other packet —
    /// a beacon with a flag set (ECN-marked, say), a payload, a process
    /// address or a made-up wire size included: those keep every field.
    /// (Field by field on purpose: comparing with `beacon(..)` built from
    /// the two barriers cost the idle testbed 15 ns per *event*.)
    fn as_beacon(&self) -> Option<(Timestamp, Timestamp)> {
        let Datagram { src, dst, header: h, payload } = &self.dgram;
        let canonical = h.opcode == Opcode::Beacon
            && *src == HOP_LOCAL
            && *dst == HOP_LOCAL
            && h.msg_ts == Timestamp::ZERO
            && h.psn == 0
            && h.flags == Flags::empty()
            && payload.is_empty()
            && self.wire_bytes == BARE_WIRE_BYTES;
        canonical.then_some((h.barrier, h.commit_barrier))
    }
}

/// What travels over a link: a canonical beacon as its two barriers, any
/// other packet whole.
pub(crate) enum InFlight {
    Beacon { be: Timestamp, commit: Timestamp },
    Packet(SimPacket),
}

/// Behaviour attached to a simulated node (switch logic, host endpoint,
/// traffic generator, ...).
pub trait NodeLogic {
    /// Called once when the simulation starts, to arm initial timers.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A packet arrived on the link `from → ctx.node()`.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: NodeId, pkt: SimPacket);

    /// A canonical beacon ([`SimPacket::beacon`]) arrived on the link
    /// `from → ctx.node()`. Nodes for which beacons are most of what
    /// arrives take the two barriers here and have `on_packet` call this
    /// for a beacon that comes packet-shaped; the rest see the packet.
    fn on_beacon(&mut self, ctx: &mut Ctx<'_>, from: NodeId, be: Timestamp, commit: Timestamp) {
        self.on_packet(ctx, from, SimPacket::beacon(be, commit));
    }

    /// A timer armed with [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}

    /// Downcast hook so harnesses can reach concrete node types through
    /// `Box<dyn NodeLogic>` (e.g. to issue controller commands to a switch).
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

/// Sentinel slot meaning "no such link" in [`LinkMap`].
const NO_LINK: u32 = u32::MAX;

/// Dense per-directed-link storage. `slot[from][to]` indexes into
/// `items`, so the per-hop lookups on the forwarding path (`Ctx::send`,
/// the viability oracle behind ECMP failover) are two array reads instead
/// of a hash. Rows grow on demand; node-id space is small and dense.
pub(crate) struct LinkMap<T> {
    slot: Vec<Vec<u32>>,
    items: Vec<T>,
}

/// The links a shard owns.
pub(crate) type LinkTable = LinkMap<Link>;

impl<T> Default for LinkMap<T> {
    fn default() -> Self {
        LinkMap { slot: Vec::new(), items: Vec::new() }
    }
}

impl<T> LinkMap<T> {
    /// Insert an entry; returns `false` if the link already has one.
    pub(crate) fn insert(&mut self, id: LinkId, item: T) -> bool {
        let (f, t) = (id.from.0 as usize, id.to.0 as usize);
        if self.slot.len() <= f {
            self.slot.resize_with(f + 1, Vec::new);
        }
        let row = &mut self.slot[f];
        if row.len() <= t {
            row.resize(t + 1, NO_LINK);
        }
        if row[t] != NO_LINK {
            return false;
        }
        row[t] = self.items.len() as u32;
        self.items.push(item);
        true
    }

    #[inline]
    fn index(&self, id: LinkId) -> Option<usize> {
        let s = *self.slot.get(id.from.0 as usize)?.get(id.to.0 as usize)?;
        if s == NO_LINK {
            None
        } else {
            Some(s as usize)
        }
    }

    #[inline]
    pub(crate) fn get(&self, id: LinkId) -> Option<&T> {
        self.index(id).map(|i| &self.items[i])
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, id: LinkId) -> Option<&mut T> {
        match self.index(id) {
            Some(i) => Some(&mut self.items[i]),
            None => None,
        }
    }

    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.items.iter_mut()
    }

    /// Consume the map into `(id, item)` pairs, in `(from, to)` id
    /// order — used by [`Sim::set_partition`] to split links by owner.
    pub(crate) fn into_entries(self) -> Vec<(LinkId, T)> {
        let LinkMap { slot, items } = self;
        let mut items: Vec<Option<T>> = items.into_iter().map(Some).collect();
        let mut out = Vec::with_capacity(items.len());
        for (f, row) in slot.iter().enumerate() {
            for (t, &s) in row.iter().enumerate() {
                if s != NO_LINK {
                    let id = LinkId::new(NodeId(f as u32), NodeId(t as u32));
                    out.push((id, items[s as usize].take().expect("link indexed twice")));
                }
            }
        }
        out
    }
}

/// What a shard's calendar queue holds: 32 bytes, 48 with the queue's
/// `(time, seq)` — the queue sorts and shifts whole entries.
pub(crate) enum EventKind {
    /// A packet arrives; `pkt` is its slot in the shard's packet pool
    /// (`Shard::packets`).
    Arrive {
        to: NodeId,
        from: NodeId,
        pkt: u32,
    },
    /// A canonical beacon arrives — most of what any run queues.
    Beacon {
        to: NodeId,
        from: NodeId,
        be: Timestamp,
        commit: Timestamp,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
    Start {
        node: NodeId,
    },
    /// Place-holder for the coordinator's next scheduled [`Fault`]. One
    /// is pushed into *every* shard's queue when the fault is scheduled,
    /// so it takes the `(time, push order)` position the fault has among
    /// that shard's events; a shard that pops it stops and the
    /// coordinator applies the fault.
    Fence,
}

/// A scheduled change to the network itself. Faults touch links and
/// crash flags of any shard, so only the coordinator applies them
/// (`Sim::apply_next_fault`), between windows.
enum Fault {
    LinkAdmin { link: LinkId, up: bool },
    LinkLoss { link: LinkId, rate: f64 },
    GlobalLoss { rate: f64 },
    Crash { node: NodeId },
}

/// What became of a packet offered to a link.
enum Offer {
    /// Not accepted: no such link, link down, or buffer full.
    Refused,
    /// Accepted, and lost in flight.
    Lost,
    /// Accepted; reaches the far end at `at`, ECN-marked if `ecn`.
    Arrives { at: u64, ecn: bool },
}

/// The execution context handed to [`NodeLogic`] callbacks.
///
/// Provides the node's view of the world: current time, packet
/// transmission on attached links, timers, neighbor discovery and a
/// deterministic RNG.
pub struct Ctx<'a> {
    pub(crate) now: u64,
    pub(crate) node: NodeId,
    /// The shard that owns `node` (its logic taken out for the call).
    pub(crate) shard: &'a mut Shard,
    pub(crate) net: &'a Shared,
}

impl<'a> Ctx<'a> {
    /// Current simulation (true) time in nanoseconds.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The node this callback runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Outgoing neighbors of this node.
    ///
    /// The returned slice borrows the simulator's topology (lifetime
    /// `'a`), not this `Ctx` — callers can iterate it while calling
    /// `&mut self` methods like [`Ctx::send`], with no defensive clone.
    pub fn out_neighbors(&self) -> &'a [NodeId] {
        let net: &'a Shared = self.net;
        &net.out_neighbors[self.node.0 as usize]
    }

    /// Incoming neighbors of this node (lifetime `'a`, like
    /// [`Ctx::out_neighbors`]).
    pub fn in_neighbors(&self) -> &'a [NodeId] {
        let net: &'a Shared = self.net;
        &net.in_neighbors[self.node.0 as usize]
    }

    /// Deterministic RNG (seeded at simulation construction).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.shard.rng
    }

    /// Simulation-wide statistics.
    pub fn stats(&mut self) -> &mut Stats {
        &mut self.shard.scratch
    }

    /// Tell whoever drives the simulation that this callback left work
    /// for it outside the event queue (a failure report, a controller
    /// request): a whole-network shard returns from [`Sim::run`] after
    /// the current event, a split network at the end of the window, and
    /// the flag stays up until [`Sim::take_attention`] lowers it.
    pub fn raise_attention(&self) {
        self.net.attention.set(true);
    }

    /// Transmit `pkt` on the directed link `self.node → to`.
    ///
    /// Models serialization, queueing, tail drop, ECN marking and random
    /// in-flight loss. Returns `true` if the packet was accepted by the
    /// transmitter (it may still be lost in flight).
    pub fn send(&mut self, to: NodeId, mut pkt: SimPacket) -> bool {
        match self.offer(to, pkt.wire_bytes) {
            Offer::Refused => false,
            Offer::Lost => true,
            Offer::Arrives { at, ecn } => {
                if ecn {
                    pkt.dgram.header.flags.insert(Flags::ECN);
                }
                match pkt.as_beacon() {
                    Some((be, commit)) => self.arrives(at, to, InFlight::Beacon { be, commit }),
                    None => self.arrives(at, to, InFlight::Packet(pkt)),
                }
                true
            }
        }
    }

    /// [`send`](Self::send) of [`SimPacket::beacon`]`(be, commit)`,
    /// without building the packet.
    pub fn send_beacon(&mut self, to: NodeId, be: Timestamp, commit: Timestamp) -> bool {
        match self.offer(to, BARE_WIRE_BYTES) {
            Offer::Refused => false,
            Offer::Lost => true,
            Offer::Arrives { at, ecn } => {
                if ecn {
                    let mut pkt = SimPacket::beacon(be, commit);
                    pkt.dgram.header.flags.insert(Flags::ECN);
                    self.arrives(at, to, InFlight::Packet(pkt));
                } else {
                    self.arrives(at, to, InFlight::Beacon { be, commit });
                }
                true
            }
        }
    }

    /// Offer `wire_bytes` to the link `self.node → to`: the link model,
    /// the loss draw and the counters of a transmission.
    #[inline]
    fn offer(&mut self, to: NodeId, wire_bytes: u64) -> Offer {
        let shard = &mut *self.shard;
        let Some(link) = shard.links.get_mut(LinkId::new(self.node, to)) else {
            shard.scratch.drops_no_link += 1;
            return Offer::Refused;
        };
        match link.enqueue(self.now, wire_bytes) {
            Enqueue::Accepted { arrive_ns, ecn } => {
                if ecn {
                    shard.scratch.ecn_marks += 1;
                }
                shard.scratch.packets_sent += 1;
                let lost = link.params.loss_rate > 0.0
                    && shard.rng.random_range(0.0..1.0) < link.params.loss_rate;
                if lost {
                    shard.scratch.drops_inflight += 1;
                    Offer::Lost
                } else {
                    Offer::Arrives { at: arrive_ns, ecn }
                }
            }
            Enqueue::BufferOverflow => {
                shard.scratch.drops_overflow += 1;
                Offer::Refused
            }
            Enqueue::LinkDown => {
                shard.scratch.drops_link_down += 1;
                Offer::Refused
            }
        }
    }

    /// Schedule the arrival of `body` at `to`, in this shard's queue or,
    /// for a node of another shard, through the outbox.
    #[inline(always)]
    fn arrives(&mut self, at: u64, to: NodeId, body: InFlight) {
        let shard = &mut *self.shard;
        if self.net.shard_of[to.0 as usize] == shard.id {
            shard.schedule_arrival(at, to, self.node, body);
        } else {
            // Cross-shard arrival: buffered in the shard's outbox and
            // merged into the destination shard's queue at the next
            // window barrier. Safe because at ≥ now + 1 + prop > window
            // end (the lookahead is min cross-shard prop + 1).
            shard.stat.cross_shard_msgs += 1;
            shard.outbox.push(OutMsg { at, to, from: self.node, body });
        }
    }

    /// Arm a timer that fires `delay` ns from now with the given token.
    pub fn set_timer(&mut self, delay: Duration, token: u64) {
        self.shard.queue.push(self.now + delay, EventKind::Timer { node: self.node, token });
    }

    /// Inspect the queue occupancy of an outgoing link, in bytes.
    pub fn link_queue_bytes(&self, to: NodeId) -> Option<u64> {
        self.shard.links.get(LinkId::new(self.node, to)).map(|l| l.queue_bytes(self.now))
    }

    /// Whether the outgoing link to `to` is up.
    pub fn link_is_up(&self, to: NodeId) -> bool {
        self.shard.links.get(LinkId::new(self.node, to)).map(|l| l.is_up()).unwrap_or(false)
    }

    /// Whether an arbitrary directed link `from → to` is up. Switch logic
    /// uses this as the global link-state database a converged routing
    /// protocol would provide: forwarding avoids next hops whose entire
    /// downstream path is dead, not just hops behind a locally-down port.
    ///
    /// The link may belong to another shard, so this reads the
    /// coordinator's mirror of every link's administrative state, which
    /// changes only between windows (`Sim::apply_next_fault`).
    pub fn global_link_is_up(&self, from: NodeId, to: NodeId) -> bool {
        self.net.up.get(LinkId::new(from, to)).is_some_and(|&up| up)
    }

    /// A counter that moves whenever any link's administrative state
    /// does: an answer derived from [`Ctx::global_link_is_up`] holds for
    /// as long as this reads the same. Written, like the link states, by
    /// the coordinator between windows only.
    pub fn link_epoch(&self) -> u64 {
        self.net.link_epoch
    }
}

/// The simulator: a coordinator over the shards that hold the nodes,
/// links and event queues.
pub struct Sim {
    now: u64,
    pub(crate) shards: Vec<Shard>,
    /// Topology and flags every shard reads.
    pub(crate) net: Shared,
    pub(crate) seed: u64,
    /// Window length: min cross-shard propagation delay + 1 (`u64::MAX`
    /// when no link crosses a shard boundary).
    pub(crate) lookahead: u64,
    /// The fault schedule, keyed `(time, schedule order)`; every entry
    /// has an [`EventKind::Fence`] in every shard's queue.
    faults: BTreeMap<(u64, u64), Fault>,
    fault_seq: u64,
    tracer: Option<TracerHandle>,
    /// Simulation-wide statistics.
    pub stats: Stats,
}

impl Sim {
    /// Create an empty simulator with a deterministic seed: one shard
    /// that will own every node and link added.
    pub fn new(seed: u64) -> Self {
        Sim {
            now: 0,
            shards: vec![Shard::new(0, seed, 0, false)],
            net: Shared::default(),
            seed,
            lookahead: u64::MAX,
            faults: BTreeMap::new(),
            fault_seq: 0,
            tracer: None,
            stats: Stats::default(),
        }
    }

    /// Attach a packet tracer; every delivered packet is recorded. Each
    /// shard buffers its own records; they reach the tracer at the next
    /// barrier, ordered by `(time, shard, position)`.
    pub fn set_tracer(&mut self, tracer: TracerHandle) {
        for shard in &mut self.shards {
            shard.trace = Some(Vec::new());
        }
        self.tracer = Some(tracer);
    }

    /// Per-shard execution counters (one entry for an unsplit network).
    pub fn shard_stats(&self) -> Vec<ShardStat> {
        self.shards.iter().map(|s| s.stat.clone()).collect()
    }

    /// Current simulation time (ns).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The shard that owns `node`.
    fn owner(&self, node: NodeId) -> &Shard {
        &self.shards[self.net.shard_of[node.0 as usize] as usize]
    }

    fn owner_mut(&mut self, node: NodeId) -> &mut Shard {
        &mut self.shards[self.net.shard_of[node.0 as usize] as usize]
    }

    /// The topology tables, writable while the network is still one
    /// shard (a split fixes the length of every shard's node tables).
    fn net_mut(&mut self) -> &mut Shared {
        assert!(self.shards.len() == 1, "cannot grow the network after set_partition");
        &mut self.net
    }

    /// Add a node without logic (logic can be attached later); returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let net = self.net_mut();
        let id = NodeId(net.shard_of.len() as u32);
        net.shard_of.push(0);
        net.out_neighbors.push(Vec::new());
        net.in_neighbors.push(Vec::new());
        let shard = self.owner_mut(id);
        shard.nodes.push(None);
        shard.crashed.push(false);
        id
    }

    /// Attach (or replace) the logic of a node. An `on_start` event is
    /// scheduled at the current time.
    pub fn set_logic(&mut self, node: NodeId, logic: Box<dyn NodeLogic>) {
        let now = self.now;
        let shard = self.owner_mut(node);
        shard.nodes[node.0 as usize] = Some(logic);
        shard.queue.push(now, EventKind::Start { node });
    }

    /// Add a directed link with the given parameters.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, params: LinkParams) {
        let id = LinkId::new(from, to);
        let link = Link::new(params);
        let net = self.net_mut();
        assert!(net.up.insert(id, link.is_up()), "duplicate link {id:?}");
        net.out_neighbors[from.0 as usize].push(to);
        net.in_neighbors[to.0 as usize].push(from);
        self.owner_mut(from).links.insert(id, link);
    }

    /// Add a bidirectional link (two directed links with equal parameters).
    pub fn add_duplex_link(&mut self, a: NodeId, b: NodeId, params: LinkParams) {
        self.add_link(a, b, params);
        self.add_link(b, a, params);
    }

    /// Shared access to a link.
    pub fn link(&self, id: LinkId) -> Option<&Link> {
        let owner = *self.net.shard_of.get(id.from.0 as usize)?;
        self.shards[owner as usize].links.get(id)
    }

    fn link_mut(&mut self, id: LinkId) -> Option<&mut Link> {
        let owner = *self.net.shard_of.get(id.from.0 as usize)?;
        self.shards[owner as usize].links.get_mut(id)
    }

    /// Set a link's administrative state and its mirror in
    /// [`Shared::up`], and advance the link-state epoch; `false` if there
    /// is no such link.
    fn set_link_up(&mut self, id: LinkId, up: bool) -> bool {
        let Some(link) = self.link_mut(id) else { return false };
        link.set_up(up);
        if let Some(mirror) = self.net.up.get_mut(id) {
            *mirror = up;
        }
        self.net.link_epoch += 1;
        true
    }

    /// Set the loss rate of every link in the network.
    pub fn set_global_loss_rate(&mut self, rate: f64) {
        for shard in &mut self.shards {
            for link in shard.links.values_mut() {
                link.params.loss_rate = rate;
            }
        }
    }

    /// Put `fault` on the schedule and a fence for it in every queue.
    fn schedule_fault(&mut self, at: u64, fault: Fault) {
        assert!(at >= self.now);
        self.fault_seq += 1;
        self.faults.insert((at, self.fault_seq), fault);
        for shard in &mut self.shards {
            shard.queue.push(at, EventKind::Fence);
        }
    }

    /// Schedule an administrative link up/down change at `at` (absolute ns).
    pub fn schedule_link_admin(&mut self, at: u64, link: LinkId, up: bool) {
        self.schedule_fault(at, Fault::LinkAdmin { link, up });
    }

    /// Schedule the directed link to go administratively down at `at`.
    pub fn schedule_link_down(&mut self, at: u64, link: LinkId) {
        self.schedule_link_admin(at, link, false);
    }

    /// Schedule the directed link to come administratively up at `at`.
    pub fn schedule_link_up(&mut self, at: u64, link: LinkId) {
        self.schedule_link_admin(at, link, true);
    }

    /// Schedule a per-link loss-rate change at `at` (absolute ns). Pairs of
    /// these model a loss burst without the harness mutating links mid-loop.
    pub fn schedule_link_loss(&mut self, at: u64, link: LinkId, rate: f64) {
        assert!((0.0..=1.0).contains(&rate), "loss rate must be in [0, 1]");
        self.schedule_fault(at, Fault::LinkLoss { link, rate });
    }

    /// Schedule a network-wide loss-rate change at `at` (absolute ns).
    pub fn schedule_global_loss(&mut self, at: u64, rate: f64) {
        assert!((0.0..=1.0).contains(&rate), "loss rate must be in [0, 1]");
        self.schedule_fault(at, Fault::GlobalLoss { rate });
    }

    /// Schedule a node crash at `at` (absolute ns): the node stops
    /// processing all events from that time on.
    pub fn schedule_crash(&mut self, at: u64, node: NodeId) {
        self.schedule_fault(at, Fault::Crash { node });
    }

    /// Schedule a timer on a node from outside (harness hook).
    pub fn schedule_timer(&mut self, at: u64, node: NodeId, token: u64) {
        assert!(at >= self.now);
        self.owner_mut(node).queue.push(at, EventKind::Timer { node, token });
    }

    /// Whether a node has been crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.owner(node).crashed[node.0 as usize]
    }

    /// Outgoing neighbors of a node.
    pub fn out_neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.net.out_neighbors[node.0 as usize]
    }

    /// Incoming neighbors of a node.
    pub fn in_neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.net.in_neighbors[node.0 as usize]
    }

    /// Immutable access to a node's logic, downcast by the caller.
    pub fn logic(&self, node: NodeId) -> Option<&dyn NodeLogic> {
        self.owner(node).nodes[node.0 as usize].as_deref()
    }

    /// Mutable access to a node's logic (the harness uses this to inject
    /// application work between events).
    pub fn logic_mut(&mut self, node: NodeId) -> Option<&mut (dyn NodeLogic + 'static)> {
        match self.owner_mut(node).nodes[node.0 as usize] {
            Some(ref mut b) => Some(b.as_mut()),
            None => None,
        }
    }

    /// Run a node callback from the harness with a proper [`Ctx`]
    /// (used to inject application sends at the current simulation time).
    pub fn with_node<R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut dyn NodeLogic, &mut Ctx<'_>) -> R,
    ) -> Option<R> {
        let shard = &mut self.shards[self.net.shard_of[node.0 as usize] as usize];
        if shard.crashed[node.0 as usize] {
            return None;
        }
        let r = shard.with_ctx(&self.net, self.now, node, f);
        // The callback may have sent packets: count them and hand any
        // cross-shard arrivals over before the next run.
        self.barrier();
        r
    }

    /// Earliest pending event (or fence) over all shards.
    fn min_head(&mut self) -> Option<u64> {
        self.shards.iter_mut().filter_map(|s| s.queue.peek_time()).min()
    }

    /// Run queued events in `(time, seq)` order while their time is ≤
    /// `through`; returns `false` if there were none. One call is one
    /// *window* — every shard with work in it runs its event loop
    /// (`Shard::run`), then the barrier merges what they produced —
    /// or one scheduled fault.
    ///
    /// An unsplit network has no one to wait for, so its window reaches
    /// to `through`, and it may end early: after the first event at or
    /// past `deadline`, or after an event during which a node raised
    /// attention ([`Ctx::raise_attention`]; it stays raised, so a window
    /// is one event long until [`Sim::take_attention`]). A split network
    /// runs windows of the lookahead length ([`crate::shard`]) to their
    /// end, and neither `deadline` nor the flag is consulted inside one.
    pub fn run(&mut self, through: u64, deadline: u64) -> bool {
        let Some(head) = self.min_head().filter(|&h| h <= through) else { return false };
        let (end, early) = if self.shards.len() == 1 {
            (through, Some(deadline))
        } else {
            // Events before the next fault; once those are done, the
            // events at its time up to each shard's fence. (The fences
            // keep `head` from passing the fault.)
            let fault = self.faults.keys().next().map_or(u64::MAX, |&(at, _)| at);
            let before_fault = if head < fault { fault - 1 } else { fault };
            (head.saturating_add(self.lookahead - 1).min(before_fault).min(through), None)
        };

        // Every shard holds a fence for every fault, so all of them tell
        // whether this window ended at one.
        let mut fenced = false;
        for shard in &mut self.shards {
            match shard.queue.peek_time() {
                // Pending work beyond the horizon: the shard idles this
                // window, held back by the conservative lookahead.
                Some(h) if h > end => shard.stat.stalled_windows += 1,
                Some(_) => fenced |= shard.run(&self.net, end, early),
                None => {}
            }
        }
        self.barrier();
        if early.is_none() {
            // Shards that share a window have all run to its end. (A lone
            // shard stands at its last event: its window may have ended
            // early, and the driver reads the clock when it pumps.)
            self.now = self.now.max(end);
        }
        if fenced {
            self.apply_next_fault();
        }
        true
    }

    /// The window barrier: fold the shards' counters into [`Sim::stats`]
    /// (in shard order), advance the clock to the latest event run, merge
    /// cross-shard arrivals into their destination queues and trace
    /// records into the tracer — both in `(time, source shard, position)`
    /// order.
    fn barrier(&mut self) {
        let mut mail: Vec<OutMsg> = Vec::new();
        let mut traced: Vec<TraceRecord> = Vec::new();
        for shard in &mut self.shards {
            shard.stat.events += shard.scratch.events;
            self.stats.merge(&shard.scratch);
            shard.scratch = Stats::default();
            self.now = self.now.max(shard.now);
            mail.append(&mut shard.outbox);
            if let Some(buf) = &mut shard.trace {
                traced.append(buf);
            }
        }
        // Stable sorts of a concatenation in shard order.
        mail.sort_by_key(|m| m.at);
        for OutMsg { at, to, from, body } in mail {
            self.owner_mut(to).schedule_arrival(at, to, from, body);
        }
        if let Some(tracer) = &self.tracer {
            traced.sort_by_key(|r| r.at);
            let mut tracer = tracer.borrow_mut();
            for rec in traced {
                tracer.record(rec);
            }
        }
    }

    /// Apply the earliest scheduled fault; its fences have just been
    /// popped. The one place that executes `LinkAdmin`, `LinkLoss`,
    /// `GlobalLoss` and `Crash`.
    fn apply_next_fault(&mut self) {
        let ((at, _), fault) = self.faults.pop_first().expect("a fence stands for a fault");
        debug_assert_eq!(at, self.now, "fences and faults are scheduled together");
        self.stats.events += 1;
        match fault {
            Fault::LinkAdmin { link, up } => {
                if self.set_link_up(link, up) {
                    self.stats.faults_link_flaps += 1;
                }
            }
            Fault::LinkLoss { link, rate } => {
                if let Some(l) = self.link_mut(link) {
                    l.params.loss_rate = rate;
                    self.stats.faults_loss_bursts += 1;
                }
            }
            Fault::GlobalLoss { rate } => {
                self.set_global_loss_rate(rate);
                self.stats.faults_loss_bursts += 1;
            }
            Fault::Crash { node } => {
                self.owner_mut(node).crashed[node.0 as usize] = true;
                self.stats.faults_crashes += 1;
                // Take both directions of every attached link down.
                let outs = self.net.out_neighbors[node.0 as usize].iter();
                let ins = self.net.in_neighbors[node.0 as usize].iter();
                let attached: Vec<LinkId> = outs
                    .map(|&peer| LinkId::new(node, peer))
                    .chain(ins.map(|&peer| LinkId::new(peer, node)))
                    .collect();
                for link in attached {
                    self.set_link_up(link, false);
                }
            }
        }
    }

    /// Lower the attention flag, returning whether it was raised.
    pub fn take_attention(&mut self) -> bool {
        self.net.attention.replace(false)
    }

    /// Run until the event queue is exhausted or `t_end` (ns) is reached.
    /// Events at exactly `t_end` are processed.
    pub fn run_until(&mut self, t_end: u64) {
        while self.run(t_end, u64::MAX) {}
        self.now = self.now.max(t_end);
    }

    /// Run until the queue drains completely.
    pub fn run_to_completion(&mut self) {
        while self.run(u64::MAX, u64::MAX) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use onepipe_types::ids::ProcessId;
    use onepipe_types::wire::PacketHeader;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::{Arc, Mutex};

    fn dgram(psn: u32) -> Datagram {
        Datagram {
            src: ProcessId(0),
            dst: ProcessId(1),
            header: PacketHeader {
                msg_ts: Timestamp::from_nanos(psn as u64),
                barrier: Timestamp::ZERO,
                commit_barrier: Timestamp::ZERO,
                psn,
                opcode: Opcode::Data,
                flags: Flags::empty(),
            },
            payload: Bytes::from_static(b"x"),
        }
    }

    /// Records every packet it receives, with arrival time.
    struct Recorder {
        log: Arc<Mutex<Vec<(u64, u32)>>>,
    }
    impl NodeLogic for Recorder {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, pkt: SimPacket) {
            self.log.lock().unwrap().push((ctx.now(), pkt.dgram.header.psn));
        }
    }

    /// Sends `n` packets to a fixed peer when started.
    struct Blaster {
        peer: NodeId,
        n: u32,
    }
    impl NodeLogic for Blaster {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for i in 0..self.n {
                ctx.send(self.peer, SimPacket::new(dgram(i)));
            }
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _pkt: SimPacket) {}
    }

    type ArrivalLog = Arc<Mutex<Vec<(u64, u32)>>>;

    fn two_node_sim(params: LinkParams) -> (Sim, NodeId, NodeId, ArrivalLog) {
        let mut sim = Sim::new(1);
        let a = sim.add_node();
        let b = sim.add_node();
        sim.add_duplex_link(a, b, params);
        let log = Arc::new(Mutex::new(Vec::new()));
        sim.set_logic(b, Box::new(Recorder { log: log.clone() }));
        (sim, a, b, log)
    }

    #[test]
    fn packets_arrive_in_fifo_order() {
        let (mut sim, a, _b, log) = two_node_sim(LinkParams::default());
        sim.set_logic(a, Box::new(Blaster { peer: NodeId(1), n: 50 }));
        sim.run_to_completion();
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 50);
        for w in log.windows(2) {
            assert!(w[0].0 < w[1].0, "arrival times must strictly increase");
            assert!(w[0].1 < w[1].1, "PSNs must arrive in send order");
        }
    }

    #[test]
    fn loss_rate_drops_packets_deterministically() {
        let params = LinkParams { loss_rate: 0.5, ..Default::default() };
        let (mut sim, a, _b, log) = two_node_sim(params);
        sim.set_logic(a, Box::new(Blaster { peer: NodeId(1), n: 1000 }));
        sim.run_to_completion();
        let delivered = log.lock().unwrap().len();
        assert!(delivered > 350 && delivered < 650, "got {delivered}");
        // Determinism: same seed, same count.
        let (mut sim2, a2, _b2, log2) = two_node_sim(params);
        sim2.set_logic(a2, Box::new(Blaster { peer: NodeId(1), n: 1000 }));
        sim2.run_to_completion();
        assert_eq!(log2.lock().unwrap().len(), delivered);
    }

    #[test]
    fn crash_stops_delivery() {
        let (mut sim, a, b, log) = two_node_sim(LinkParams::default());
        sim.set_logic(a, Box::new(Blaster { peer: NodeId(1), n: 10 }));
        sim.schedule_crash(0, b);
        sim.run_to_completion();
        assert!(sim.is_crashed(b));
        assert_eq!(log.lock().unwrap().len(), 0);
    }

    #[test]
    fn link_admin_down_blocks_new_sends() {
        let (mut sim, a, b, log) = two_node_sim(LinkParams::default());
        sim.schedule_link_admin(0, LinkId::new(a, b), false);
        sim.run_until(0); // apply the admin change
        sim.set_logic(a, Box::new(Blaster { peer: NodeId(1), n: 10 }));
        sim.run_to_completion();
        assert_eq!(log.lock().unwrap().len(), 0);
        assert_eq!(sim.stats.drops_link_down, 10);
    }

    #[test]
    fn scheduled_link_down_up_and_fault_counters() {
        let (mut sim, a, b, log) = two_node_sim(LinkParams::default());
        let fwd = LinkId::new(a, b);
        sim.schedule_link_down(0, fwd);
        sim.schedule_link_up(10_000, fwd);
        sim.run_until(0);
        sim.set_logic(a, Box::new(Blaster { peer: NodeId(1), n: 3 }));
        sim.run_until(5_000);
        assert_eq!(log.lock().unwrap().len(), 0, "link is down");
        sim.run_until(10_000); // link back up
        sim.with_node(a, |_, ctx| {
            ctx.send(NodeId(1), SimPacket::new(dgram(7)));
        });
        sim.run_to_completion();
        assert_eq!(log.lock().unwrap().len(), 1);
        assert_eq!(sim.stats.faults_link_flaps, 2);
        assert_eq!(sim.stats.faults_injected(), 2);
    }

    #[test]
    fn scheduled_loss_burst_applies_and_clears() {
        let (mut sim, a, _b, log) = two_node_sim(LinkParams::default());
        // `with_node` needs logic installed; an exhausted Blaster is idle.
        sim.set_logic(a, Box::new(Blaster { peer: NodeId(1), n: 0 }));
        let fwd = LinkId::new(a, NodeId(1));
        // Burst of total loss in [0, 50µs), then clean again.
        sim.schedule_link_loss(0, fwd, 1.0);
        sim.schedule_link_loss(50_000, fwd, 0.0);
        sim.run_until(0);
        sim.with_node(a, |_, ctx| {
            for i in 0..5 {
                ctx.send(NodeId(1), SimPacket::new(dgram(i)));
            }
        });
        sim.run_until(50_000);
        assert_eq!(log.lock().unwrap().len(), 0, "all packets lost in burst");
        sim.with_node(a, |_, ctx| {
            ctx.send(NodeId(1), SimPacket::new(dgram(9)));
        });
        sim.run_to_completion();
        assert_eq!(log.lock().unwrap().len(), 1);
        assert_eq!(sim.stats.faults_loss_bursts, 2);
        assert_eq!(sim.stats.drops_inflight, 5);
    }

    #[test]
    fn scheduled_global_loss_affects_all_links() {
        let (mut sim, a, _b, log) = two_node_sim(LinkParams::default());
        sim.schedule_global_loss(0, 1.0);
        sim.run_until(0);
        sim.set_logic(a, Box::new(Blaster { peer: NodeId(1), n: 4 }));
        sim.run_to_completion();
        assert_eq!(log.lock().unwrap().len(), 0);
        assert_eq!(sim.stats.faults_loss_bursts, 1);
    }

    #[test]
    fn crash_increments_fault_counter() {
        let (mut sim, _a, b, _log) = two_node_sim(LinkParams::default());
        sim.schedule_crash(0, b);
        sim.run_to_completion();
        assert_eq!(sim.stats.faults_crashes, 1);
    }

    /// The log is an `Rc`: node logic need not be `Send`, nothing in the
    /// simulator leaves the calling thread.
    #[test]
    fn timers_fire_in_order() {
        struct Timers {
            log: Rc<RefCell<Vec<u64>>>,
        }
        impl NodeLogic for Timers {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(300, 3);
                ctx.set_timer(100, 1);
                ctx.set_timer(200, 2);
            }
            fn on_packet(&mut self, _: &mut Ctx<'_>, _: NodeId, _: SimPacket) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
                assert_eq!(ctx.now(), token * 100);
                self.log.borrow_mut().push(token);
            }
        }
        let mut sim = Sim::new(0);
        let n = sim.add_node();
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.set_logic(n, Box::new(Timers { log: log.clone() }));
        sim.run_to_completion();
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
    }

    /// What reached a node, and through which entry.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Packet(Datagram, u64),
        Beacon(Timestamp, Timestamp),
    }
    type SeenLog = Rc<RefCell<Vec<Seen>>>;

    /// Records the packets it gets; `on_beacon` is the trait's default,
    /// as in every node written before there was one.
    struct PacketProbe(SeenLog);
    impl NodeLogic for PacketProbe {
        fn on_packet(&mut self, _: &mut Ctx<'_>, _: NodeId, pkt: SimPacket) {
            self.0.borrow_mut().push(Seen::Packet(pkt.dgram, pkt.wire_bytes));
        }
    }

    /// Like [`PacketProbe`], with a beacon entry of its own.
    struct BeaconProbe(PacketProbe);
    impl NodeLogic for BeaconProbe {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: NodeId, pkt: SimPacket) {
            self.0.on_packet(ctx, from, pkt);
        }
        fn on_beacon(&mut self, _: &mut Ctx<'_>, _: NodeId, be: Timestamp, commit: Timestamp) {
            self.0 .0.borrow_mut().push(Seen::Beacon(be, commit));
        }
    }

    /// Run `send` on node 0 with a probe one link away at node 1 — a
    /// [`BeaconProbe`] if `direct` — and return what the probe saw and
    /// the ECN marks counted.
    fn probe(
        direct: bool,
        link: LinkParams,
        send: impl FnOnce(&mut Ctx<'_>, NodeId),
    ) -> (Vec<Seen>, u64) {
        let (mut sim, a, b, _) = two_node_sim(link);
        let log: SeenLog = Rc::default();
        let packets = PacketProbe(log.clone());
        sim.set_logic(b, if direct { Box::new(BeaconProbe(packets)) } else { Box::new(packets) });
        sim.set_logic(a, Box::new(Blaster { peer: b, n: 0 }));
        sim.run_until(0);
        sim.with_node(a, |_, ctx| send(ctx, b));
        sim.run_to_completion();
        (log.take(), sim.stats.ecn_marks)
    }

    fn send_all<'p>(pkts: &'p [SimPacket]) -> impl FnOnce(&mut Ctx<'_>, NodeId) + 'p {
        move |ctx, to| pkts.iter().for_each(|pkt| assert!(ctx.send(to, pkt.clone())))
    }

    fn as_sent(pkts: &[SimPacket]) -> Vec<Seen> {
        pkts.iter().map(|p| Seen::Packet(p.dgram.clone(), p.wire_bytes)).collect()
    }

    /// What the queue sorts and shifts: 32 bytes, 48 with `(time, seq)`.
    #[test]
    fn an_event_is_half_a_cache_line() {
        assert!(std::mem::size_of::<EventKind>() <= 32);
    }

    #[test]
    fn canonical_beacons_travel_compact_and_arrive_as_sent() {
        let (be, commit) = (Timestamp::from_nanos(4_000), Timestamp::from_nanos(3_000));
        let beacons = [SimPacket::beacon(be, commit), SimPacket::beacon(commit, Timestamp::ZERO)];
        let link = LinkParams::default();
        // A node with a beacon entry gets the two barriers; they were all
        // the queue held.
        assert_eq!(
            probe(true, link, send_all(&beacons)).0,
            [Seen::Beacon(be, commit), Seen::Beacon(commit, Timestamp::ZERO)]
        );
        // A node without one gets the packet that was sent,
        assert_eq!(probe(false, link, send_all(&beacons)).0, as_sent(&beacons));
        // and `send_beacon` is `send` of that packet.
        let direct = probe(false, link, |ctx, to| {
            assert!(ctx.send_beacon(to, be, commit));
            assert!(ctx.send_beacon(to, commit, Timestamp::ZERO));
        });
        assert_eq!(direct.0, as_sent(&beacons));
    }

    /// Anything that is not exactly the canonical beacon keeps every
    /// field: it arrives through `on_packet`, equal to what was sent.
    #[test]
    fn beacons_that_carry_anything_else_stay_packets() {
        let (be, commit) = (Timestamp::from_nanos(9), Timestamp::from_nanos(8));
        let canonical = SimPacket::beacon(be, commit);
        let vary = |f: fn(&mut SimPacket)| {
            let mut pkt = canonical.clone();
            f(&mut pkt);
            pkt
        };
        let odd = [
            vary(|p| p.dgram.header.flags.insert(Flags::RETRANSMIT)),
            vary(|p| p.dgram.payload = Bytes::from_static(b"x")),
            vary(|p| p.dgram.src = ProcessId(3)),
            vary(|p| p.dgram.dst = ProcessId(3)),
            vary(|p| p.dgram.header.psn = 1),
            vary(|p| p.dgram.header.msg_ts = Timestamp::from_nanos(1)),
            vary(|p| p.wire_bytes += 1),
        ];
        assert_eq!(probe(true, LinkParams::default(), send_all(&odd)).0, as_sent(&odd));

        // ECN-marked by the link: the first beacon finds the queue empty
        // and travels compact; the second is marked, whichever way it
        // was sent, and arrives as a packet that says so.
        let congested = LinkParams { ecn_threshold_bytes: 1, ..LinkParams::default() };
        let marked = vary(|p| p.dgram.header.flags.insert(Flags::ECN));
        let want =
            (vec![Seen::Beacon(be, commit), Seen::Packet(marked.dgram, marked.wire_bytes)], 1);
        assert_eq!(probe(true, congested, send_all(&[canonical.clone(), canonical.clone()])), want);
        let direct = probe(true, congested, |ctx, to| {
            ctx.send_beacon(to, be, commit);
            ctx.send_beacon(to, be, commit);
        });
        assert_eq!(direct, want);
    }

    /// `Link::params` is public: the serialization-time memo must not
    /// outlive the bandwidth it was computed under.
    #[test]
    fn a_bandwidth_change_mid_run_applies_to_the_next_packet() {
        let slow = LinkParams { bandwidth_bps: 8_000_000_000, ..LinkParams::default() }; // 1 B/ns
        let (mut sim, a, b, log) = two_node_sim(slow);
        sim.set_logic(a, Box::new(Blaster { peer: b, n: 0 }));
        let wire = SimPacket::new(dgram(0)).wire_bytes;
        for (at, psn) in [(0, 0), (10_000, 1), (20_000, 2)] {
            sim.run_until(at);
            if psn == 2 {
                sim.link_mut(LinkId::new(a, b)).unwrap().params.bandwidth_bps /= 2;
            }
            sim.with_node(a, |_, ctx| ctx.send(b, SimPacket::new(dgram(psn))));
        }
        sim.run_to_completion();
        let prop = slow.prop_delay_ns;
        assert_eq!(
            *log.lock().unwrap(),
            [(wire + prop, 0), (10_000 + wire + prop, 1), (20_000 + 2 * wire + prop, 2)]
        );
    }

    #[test]
    fn run_until_respects_bound() {
        let (mut sim, a, _b, log) = two_node_sim(LinkParams::default());
        sim.set_logic(a, Box::new(Blaster { peer: NodeId(1), n: 5 }));
        sim.run_until(0); // packets sent but still in flight
        assert_eq!(log.lock().unwrap().len(), 0);
        sim.run_until(1_000_000);
        assert_eq!(log.lock().unwrap().len(), 5);
        assert_eq!(sim.now(), 1_000_000);
    }

    #[test]
    fn with_node_injects_at_current_time() {
        let (mut sim, a, _b, log) = two_node_sim(LinkParams::default());
        sim.set_logic(a, Box::new(Blaster { peer: NodeId(1), n: 0 }));
        sim.run_until(5_000);
        sim.with_node(a, |logic, ctx| {
            assert_eq!(ctx.now(), 5_000);
            logic.on_start(ctx); // Blaster sends nothing (n=0)
            ctx.send(NodeId(1), SimPacket::new(dgram(42)));
        });
        sim.run_to_completion();
        assert_eq!(log.lock().unwrap().len(), 1);
        assert_eq!(log.lock().unwrap()[0].1, 42);
    }

    #[test]
    fn with_node_on_crashed_node_is_none() {
        let (mut sim, a, _b, _log) = two_node_sim(LinkParams::default());
        sim.schedule_crash(0, a);
        sim.run_until(1);
        assert!(sim.with_node(a, |_, _| ()).is_none());
    }
}
