//! The discrete-event engine: event model, node callbacks and the
//! simulator that runs them.
//!
//! [`Sim`] is one event loop over one network. One calendar queue holds
//! every pending event, and events run in `(time, seq)` order on the
//! calling thread. Beside the queue sit the packet pool, the link table,
//! the crash flags, one RNG stream and one [`Stats`]. The node table sits
//! next to that state: an event borrows its node's logic from the table
//! and hands it a [`Ctx`] that borrows the rest.
//!
//! A scheduled fault (a link flap, a loss-rate change, a crash) is a
//! queue event like any other. A fault and an event at the same
//! nanosecond therefore run in push order, the queue's own tie-break.

use crate::link::{Enqueue, Link, LinkParams};
use crate::sched::CalendarQueue;
use crate::stats::Stats;
use crate::trace::{TraceRecord, TracerHandle};
use onepipe_types::ids::{LinkId, NodeId, HOP_LOCAL};
use onepipe_types::time::{Duration, Timestamp};
use onepipe_types::wire::{Datagram, Flags, Opcode, HEADER_LEN};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;

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
enum InFlight {
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

/// Sentinel slot meaning "no such link" in [`LinkTable`].
const NO_LINK: u32 = u32::MAX;

/// Dense per-directed-link storage. `slot[from][to]` indexes into
/// `items`, so the per-hop lookups on the forwarding path (`Ctx::send`,
/// the viability oracle behind ECMP failover) are two array reads instead
/// of a hash. Rows grow on demand; node-id space is small and dense.
#[derive(Default)]
struct LinkTable {
    slot: Vec<Vec<u32>>,
    items: Vec<Link>,
}

impl LinkTable {
    /// Insert a link; returns `false` if there already is one.
    fn insert(&mut self, id: LinkId, link: Link) -> bool {
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
        self.items.push(link);
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
    fn get(&self, id: LinkId) -> Option<&Link> {
        self.index(id).map(|i| &self.items[i])
    }

    #[inline]
    fn get_mut(&mut self, id: LinkId) -> Option<&mut Link> {
        match self.index(id) {
            Some(i) => Some(&mut self.items[i]),
            None => None,
        }
    }
}

/// What the calendar queue holds: 32 bytes, 48 with the queue's
/// `(time, seq)` — the queue sorts and shifts whole entries.
enum EventKind {
    /// A packet arrives; `pkt` is its slot in the packet pool
    /// (`Net::packets`).
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
    /// A scheduled change to the network itself.
    Fault(Fault),
}

/// A scheduled change to the network: applied by [`Sim::apply_fault`]
/// when its event pops.
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

/// Who is wired to whom: fixed once the topology is built, and read by
/// [`Ctx`] for as long as the callback runs.
#[derive(Default)]
struct Neighbors {
    outgoing: Vec<Vec<NodeId>>,
    incoming: Vec<Vec<NodeId>>,
}

/// The state an event acts on, but for the node logic and [`Stats`].
struct Net {
    /// Time of the event running, or of the last one run (raised to the
    /// target of [`Sim::run_until`]).
    now: u64,
    queue: CalendarQueue<EventKind>,
    /// The packets of the queue's [`EventKind::Arrive`] events, which hold
    /// a slot index: sorting and shifting queue entries moves 48 bytes,
    /// not a packet. A slot is `None` while it is on `free_packets`.
    packets: Vec<Option<SimPacket>>,
    /// Vacant slots of `packets`, reused last-freed-first (the warmest);
    /// in steady state no arrival allocates.
    free_packets: Vec<u32>,
    links: LinkTable,
    crashed: Vec<bool>,
    rng: StdRng,
    /// Bumped whenever a link's administrative state is written; whatever
    /// a node derived from link states under an older value is stale
    /// ([`Ctx::link_epoch`]).
    link_epoch: u64,
    /// Raised by [`Ctx::raise_attention`], which takes `&self`.
    attention: Cell<bool>,
}

impl Net {
    /// Queue the arrival of `body` at `to`. Inlined where the caller
    /// knows which kind of `body` it has, so that the queue entry is
    /// built from registers ([`CalendarQueue::push`]).
    #[inline(always)]
    fn schedule_arrival(&mut self, at: u64, to: NodeId, from: NodeId, body: InFlight) {
        match body {
            InFlight::Beacon { be, commit } => {
                self.queue.push(at, EventKind::Beacon { to, from, be, commit })
            }
            InFlight::Packet(pkt) => {
                let pkt = self.pool_packet(pkt);
                self.queue.push(at, EventKind::Arrive { to, from, pkt })
            }
        }
    }

    /// Put `pkt` in the packet pool; returns its slot.
    fn pool_packet(&mut self, pkt: SimPacket) -> u32 {
        match self.free_packets.pop() {
            Some(slot) => {
                self.packets[slot as usize] = Some(pkt);
                slot
            }
            None => {
                self.packets.push(Some(pkt));
                (self.packets.len() - 1) as u32
            }
        }
    }

    /// Take the packet of a popped [`EventKind::Arrive`] out of the pool.
    fn take_packet(&mut self, slot: u32) -> SimPacket {
        self.free_packets.push(slot);
        self.packets[slot as usize].take().expect("an Arrive event owns its pool slot")
    }
}

/// The execution context handed to [`NodeLogic`] callbacks.
///
/// Provides the node's view of the world: current time, packet
/// transmission on attached links, timers, neighbor discovery and a
/// deterministic RNG.
pub struct Ctx<'a> {
    node: NodeId,
    net: &'a mut Net,
    stats: &'a mut Stats,
    neighbors: &'a Neighbors,
}

impl<'a> Ctx<'a> {
    /// Current simulation (true) time in nanoseconds.
    pub fn now(&self) -> u64 {
        self.net.now
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
        let neighbors: &'a Neighbors = self.neighbors;
        &neighbors.outgoing[self.node.0 as usize]
    }

    /// Incoming neighbors of this node (lifetime `'a`, like
    /// [`Ctx::out_neighbors`]).
    pub fn in_neighbors(&self) -> &'a [NodeId] {
        let neighbors: &'a Neighbors = self.neighbors;
        &neighbors.incoming[self.node.0 as usize]
    }

    /// Deterministic RNG (seeded at simulation construction).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.net.rng
    }

    /// Simulation-wide statistics.
    pub fn stats(&mut self) -> &mut Stats {
        self.stats
    }

    /// Tell whoever drives the simulation that this callback left work
    /// for it outside the event queue (a failure report, a controller
    /// request): [`Sim::run`] returns after the current event, and the
    /// flag stays up until [`Sim::take_attention`] lowers it.
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
        let (net, stats) = (&mut *self.net, &mut *self.stats);
        let Some(link) = net.links.get_mut(LinkId::new(self.node, to)) else {
            stats.drops_no_link += 1;
            return Offer::Refused;
        };
        match link.enqueue(net.now, wire_bytes) {
            Enqueue::Accepted { arrive_ns, ecn } => {
                if ecn {
                    stats.ecn_marks += 1;
                }
                stats.packets_sent += 1;
                let lost = link.params.loss_rate > 0.0
                    && net.rng.random_range(0.0..1.0) < link.params.loss_rate;
                if lost {
                    stats.drops_inflight += 1;
                    Offer::Lost
                } else {
                    Offer::Arrives { at: arrive_ns, ecn }
                }
            }
            Enqueue::BufferOverflow => {
                stats.drops_overflow += 1;
                Offer::Refused
            }
            Enqueue::LinkDown => {
                stats.drops_link_down += 1;
                Offer::Refused
            }
        }
    }

    /// Queue the arrival of `body` at `to`, sent by this node.
    #[inline(always)]
    fn arrives(&mut self, at: u64, to: NodeId, body: InFlight) {
        self.net.schedule_arrival(at, to, self.node, body);
    }

    /// Arm a timer that fires `delay` ns from now with the given token.
    pub fn set_timer(&mut self, delay: Duration, token: u64) {
        self.net.queue.push(self.net.now + delay, EventKind::Timer { node: self.node, token });
    }

    /// Inspect the queue occupancy of an outgoing link, in bytes.
    pub fn link_queue_bytes(&self, to: NodeId) -> Option<u64> {
        self.net.links.get(LinkId::new(self.node, to)).map(|l| l.queue_bytes(self.net.now))
    }

    /// Whether the outgoing link to `to` is up.
    pub fn link_is_up(&self, to: NodeId) -> bool {
        self.global_link_is_up(self.node, to)
    }

    /// Whether an arbitrary directed link `from → to` is up. Switch logic
    /// uses this as the global link-state database a converged routing
    /// protocol would provide: forwarding avoids next hops whose entire
    /// downstream path is dead, not just hops behind a locally-down port.
    pub fn global_link_is_up(&self, from: NodeId, to: NodeId) -> bool {
        self.net.links.get(LinkId::new(from, to)).is_some_and(|l| l.is_up())
    }

    /// A counter that moves whenever any link's administrative state
    /// does: an answer derived from [`Ctx::global_link_is_up`] holds for
    /// as long as this reads the same.
    pub fn link_epoch(&self) -> u64 {
        self.net.link_epoch
    }
}

/// The simulator: one event loop over one network.
pub struct Sim {
    /// Node logic by node id, beside the state its callbacks act on.
    nodes: Vec<Option<Box<dyn NodeLogic>>>,
    neighbors: Neighbors,
    net: Net,
    tracer: Option<TracerHandle>,
    /// Simulation-wide statistics.
    pub stats: Stats,
}

impl Sim {
    /// Create an empty simulator with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Sim {
            nodes: Vec::new(),
            neighbors: Neighbors::default(),
            net: Net {
                now: 0,
                queue: CalendarQueue::new(),
                packets: Vec::new(),
                free_packets: Vec::new(),
                links: LinkTable::default(),
                crashed: Vec::new(),
                rng: StdRng::seed_from_u64(seed),
                link_epoch: 0,
                attention: Cell::new(false),
            },
            tracer: None,
            stats: Stats::default(),
        }
    }

    /// Attach a packet tracer; every delivered packet is recorded as it
    /// arrives.
    pub fn set_tracer(&mut self, tracer: TracerHandle) {
        self.tracer = Some(tracer);
    }

    /// Current simulation time (ns).
    pub fn now(&self) -> u64 {
        self.net.now
    }

    /// Add a node without logic (logic can be attached later); returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(None);
        self.net.crashed.push(false);
        self.neighbors.outgoing.push(Vec::new());
        self.neighbors.incoming.push(Vec::new());
        id
    }

    /// Attach (or replace) the logic of a node. An `on_start` event is
    /// scheduled at the current time.
    pub fn set_logic(&mut self, node: NodeId, logic: Box<dyn NodeLogic>) {
        self.nodes[node.0 as usize] = Some(logic);
        self.net.queue.push(self.net.now, EventKind::Start { node });
    }

    /// Add a directed link with the given parameters.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, params: LinkParams) {
        let id = LinkId::new(from, to);
        assert!(self.net.links.insert(id, Link::new(params)), "duplicate link {id:?}");
        self.neighbors.outgoing[from.0 as usize].push(to);
        self.neighbors.incoming[to.0 as usize].push(from);
    }

    /// Add a bidirectional link (two directed links with equal parameters).
    pub fn add_duplex_link(&mut self, a: NodeId, b: NodeId, params: LinkParams) {
        self.add_link(a, b, params);
        self.add_link(b, a, params);
    }

    /// Shared access to a link.
    pub fn link(&self, id: LinkId) -> Option<&Link> {
        self.net.links.get(id)
    }

    fn link_mut(&mut self, id: LinkId) -> Option<&mut Link> {
        self.net.links.get_mut(id)
    }

    /// Set a link's administrative state and advance the link-state
    /// epoch; `false` if there is no such link.
    fn set_link_up(&mut self, id: LinkId, up: bool) -> bool {
        let Some(link) = self.link_mut(id) else { return false };
        link.set_up(up);
        self.net.link_epoch += 1;
        true
    }

    /// Set the loss rate of every link in the network.
    pub fn set_global_loss_rate(&mut self, rate: f64) {
        for link in &mut self.net.links.items {
            link.params.loss_rate = rate;
        }
    }

    /// Queue `fault` to take effect at `at`.
    fn schedule_fault(&mut self, at: u64, fault: Fault) {
        assert!(at >= self.now());
        self.net.queue.push(at, EventKind::Fault(fault));
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
        assert!(at >= self.now());
        self.net.queue.push(at, EventKind::Timer { node, token });
    }

    /// Whether a node has been crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.net.crashed[node.0 as usize]
    }

    /// Outgoing neighbors of a node.
    pub fn out_neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.neighbors.outgoing[node.0 as usize]
    }

    /// Incoming neighbors of a node.
    pub fn in_neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.neighbors.incoming[node.0 as usize]
    }

    /// Immutable access to a node's logic, downcast by the caller.
    pub fn logic(&self, node: NodeId) -> Option<&dyn NodeLogic> {
        self.nodes[node.0 as usize].as_deref()
    }

    /// Mutable access to a node's logic (the harness uses this to inject
    /// application work between events).
    pub fn logic_mut(&mut self, node: NodeId) -> Option<&mut (dyn NodeLogic + 'static)> {
        match self.nodes[node.0 as usize] {
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
        if self.net.crashed[node.0 as usize] {
            return None;
        }
        self.call(node, f)
    }

    /// Call `f` with `node`'s logic and a [`Ctx`] over the rest of the
    /// simulator; `None` if the node has no logic attached.
    #[inline(always)]
    fn call<R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut dyn NodeLogic, &mut Ctx<'_>) -> R,
    ) -> Option<R> {
        let logic = self.nodes[node.0 as usize].as_deref_mut()?;
        let mut ctx =
            Ctx { node, net: &mut self.net, stats: &mut self.stats, neighbors: &self.neighbors };
        Some(f(logic, &mut ctx))
    }

    /// Hand the record of `pkt` arriving over `from → to` to the tracer,
    /// if one is attached.
    fn trace(&self, from: NodeId, to: NodeId, pkt: &SimPacket) {
        if let Some(tracer) = &self.tracer {
            tracer.borrow_mut().record(TraceRecord::arrival(self.net.now, from, to, pkt));
        }
    }

    /// The event loop: pop and execute queued events in `(time, seq)`
    /// order while their time is ≤ `through`; returns `false` if there
    /// were none. It returns early after the first event at or past
    /// `deadline`, and after an event during which a node raised
    /// attention ([`Ctx::raise_attention`]; it stays raised, so each call
    /// runs one event until [`Sim::take_attention`]).
    pub fn run(&mut self, through: u64, deadline: u64) -> bool {
        let mut ran = false;
        while self.net.queue.peek_time().is_some_and(|head| head <= through) {
            let (time, _seq, kind) = self.net.queue.pop().expect("peeked non-empty queue");
            debug_assert!(time >= self.net.now, "time went backwards");
            self.net.now = time;
            match kind {
                // Packets arriving over a link that went down mid-flight
                // are still delivered: they were already serialized.
                EventKind::Arrive { to, from, pkt } => {
                    let pkt = self.net.take_packet(pkt);
                    if !self.net.crashed[to.0 as usize] {
                        self.trace(from, to, &pkt);
                        if self.call(to, |l, ctx| l.on_packet(ctx, from, pkt)).is_none() {
                            self.stats.drops_no_logic += 1;
                        }
                    }
                }
                EventKind::Beacon { to, from, be, commit } => {
                    if !self.net.crashed[to.0 as usize] {
                        if self.tracer.is_some() {
                            self.trace(from, to, &SimPacket::beacon(be, commit));
                        }
                        if self.call(to, |l, ctx| l.on_beacon(ctx, from, be, commit)).is_none() {
                            self.stats.drops_no_logic += 1;
                        }
                    }
                }
                EventKind::Timer { node, token } => {
                    if !self.net.crashed[node.0 as usize] {
                        let _ = self.call(node, |l, ctx| l.on_timer(ctx, token));
                    }
                }
                EventKind::Start { node } => {
                    if !self.net.crashed[node.0 as usize] {
                        let _ = self.call(node, |l, ctx| l.on_start(ctx));
                    }
                }
                EventKind::Fault(fault) => self.apply_fault(fault),
            }
            self.stats.events += 1;
            ran = true;
            if time >= deadline || self.net.attention.get() {
                break;
            }
        }
        ran
    }

    /// Execute a scheduled fault: the one place that applies `LinkAdmin`,
    /// `LinkLoss`, `GlobalLoss` and `Crash`.
    #[cold]
    fn apply_fault(&mut self, fault: Fault) {
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
                self.net.crashed[node.0 as usize] = true;
                self.stats.faults_crashes += 1;
                // Take both directions of every attached link down.
                let outs = self.neighbors.outgoing[node.0 as usize].iter();
                let ins = self.neighbors.incoming[node.0 as usize].iter();
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
        self.net.now = self.net.now.max(t_end);
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
        assert_eq!(sim.stats.drops_link_down, 3);
        sim.with_node(a, |_, ctx| assert!(!ctx.global_link_is_up(a, b)));
        sim.run_until(10_000); // link back up
        sim.with_node(a, |_, ctx| {
            assert!(ctx.global_link_is_up(a, b) && ctx.link_is_up(b));
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

    /// FNV-1a over an arrival log.
    fn fnv(log: &[(u64, u32)]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &(at, psn) in log {
            for b in at.to_le_bytes().into_iter().chain(psn.to_le_bytes()) {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Loss is drawn from the seed in `(time, seq)` order: arrivals and
    /// counters equal the values the single-queue engine produced
    /// (recorded on the commit before the engines were first unified).
    #[test]
    fn a_lossy_run_matches_the_recorded_single_queue_run() {
        let params = LinkParams { loss_rate: 0.5, ..LinkParams::default() };
        let (mut sim, a, _b, log) = two_node_sim(params);
        sim.set_logic(a, Box::new(Blaster { peer: NodeId(1), n: 1000 }));
        sim.run_to_completion();
        let log = log.lock().unwrap();
        assert_eq!((log.len(), fnv(&log)), (ONE_SHARD_LOSS.0, ONE_SHARD_LOSS.1));
        assert_eq!(
            (sim.stats.events, sim.stats.packets_sent, sim.stats.drops_inflight),
            (ONE_SHARD_LOSS.2, 1000, 1000 - ONE_SHARD_LOSS.0 as u64)
        );
    }
    /// `(arrivals, fnv(arrival log), events)` of the run above.
    const ONE_SHARD_LOSS: (usize, u64, u64) = (463, 0x9a8c_df39_cf8b_294c, 465);

    /// Like [`Recorder`], and answers every packet on the reverse link.
    struct Echo {
        log: ArrivalLog,
    }
    impl NodeLogic for Echo {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: NodeId, pkt: SimPacket) {
            self.log.lock().unwrap().push((ctx.now(), pkt.dgram.header.psn));
            ctx.send(from, pkt);
        }
    }

    /// A fault and an event in the same nanosecond run in push order,
    /// the queue's own tie-break. `a` sends one packet to `b`, which
    /// echoes it; the fault lands on the packet's arrival time, scheduled
    /// either before the packet was sent or while it was in flight.
    #[test]
    fn fault_ties_break_in_push_order() {
        /// Returns `(arrivals at b, packets dropped at a down link)`.
        fn run(fault_first: bool, fault: impl Fn(&mut Sim, u64, NodeId, NodeId)) -> (usize, u64) {
            let arrival = {
                let (mut probe, a, _b, log) = two_node_sim(LinkParams::default());
                probe.set_logic(a, Box::new(Blaster { peer: NodeId(1), n: 1 }));
                probe.run_to_completion();
                let at = log.lock().unwrap()[0].0;
                at
            };
            let (mut sim, a, b, log) = two_node_sim(LinkParams::default());
            sim.set_logic(b, Box::new(Echo { log: log.clone() }));
            if fault_first {
                fault(&mut sim, arrival, a, b);
            }
            sim.set_logic(a, Box::new(Blaster { peer: NodeId(1), n: 1 }));
            sim.run_until(0); // the packet is in flight
            if !fault_first {
                fault(&mut sim, arrival, a, b);
            }
            sim.run_to_completion();
            let arrivals = log.lock().unwrap().len();
            (arrivals, sim.stats.drops_link_down)
        }
        let crash = |sim: &mut Sim, at: u64, _a: NodeId, b: NodeId| sim.schedule_crash(at, b);
        let cut_reply = |sim: &mut Sim, at: u64, a: NodeId, b: NodeId| {
            sim.schedule_link_down(at, LinkId::new(b, a))
        };
        // Scheduled up front, the fault precedes the arrival: the crashed
        // node never sees the packet; the echo finds its link down.
        assert_eq!(run(true, crash), (0, 0));
        assert_eq!(run(true, cut_reply), (1, 1));
        // Scheduled behind the in-flight packet, it follows it.
        assert_eq!(run(false, crash), (1, 0));
        assert_eq!(run(false, cut_reply), (1, 0));
    }

    /// Traffic into host 31 of the testbed fat-tree, injected at its
    /// ToR, reproduces the single-queue engine's recorded arrivals and
    /// event count, and the tracer sees every arrival.
    #[test]
    fn fat_tree_traffic_matches_the_recorded_run() {
        use crate::topology::{FatTreeParams, Topology};
        use crate::trace::Tracer;
        use onepipe_types::ids::HostId;
        let mut sim = Sim::new(9);
        let topo = Topology::build(&mut sim, FatTreeParams::testbed());
        let tracer = Tracer::shared(1 << 16);
        sim.set_tracer(tracer.clone());
        let log: ArrivalLog = Arc::new(Mutex::new(Vec::new()));
        let sink = topo.host_node(HostId(31));
        sim.set_logic(sink, Box::new(Recorder { log: log.clone() }));
        let tor_down = NodeId(topo.tor_up_of(HostId(31)).0 + 1);
        sim.set_logic(tor_down, Box::new(Blaster { peer: NodeId(0), n: 0 }));
        sim.run_until(100);
        for i in 0..50u32 {
            sim.with_node(tor_down, |_, ctx| {
                ctx.send(sink, SimPacket::new(dgram(i)));
            });
        }
        sim.run_to_completion();
        let log = log.lock().unwrap();
        assert_eq!((log.len(), fnv(&log), sim.stats.events), FAT_TREE_WHOLE);
        assert_eq!(tracer.borrow().dump().lines().count(), 50, "every arrival is traced");
    }
    /// `(arrivals, fnv(arrival log), events)` of the run above.
    const FAT_TREE_WHOLE: (usize, u64, u64) = (50, 0xae37_e8e2_29d0_7416, 52);
}
