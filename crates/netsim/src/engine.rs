//! The discrete-event engine: event queue, node dispatch, link transit.
//!
//! The engine has two execution modes sharing one event model:
//!
//! * **Single-queue** (default): one calendar queue, one RNG, events pop
//!   in global `(time, seq)` order — the reference semantics every golden
//!   and seeded experiment was recorded against.
//! * **Sharded** (after [`Sim::set_partition`]): the node set is split
//!   into shards (one per rack subtree, see
//!   [`Topology::partition`](crate::topology::Topology::partition)), each
//!   with its own calendar queue, link table and RNG, executed in
//!   conservative-lookahead windows — on worker threads when more than
//!   one lane is requested. See [`crate::shard`] for the synchronization
//!   contract.

use crate::link::{Enqueue, Link, LinkParams};
use crate::sched::CalendarQueue;
use crate::shard::{OutMsg, ShardCtx, Sharded};
use crate::stats::{ShardStat, Stats};
use crate::trace::{TraceRecord, TracerHandle};
use onepipe_types::ids::{LinkId, NodeId};
use onepipe_types::time::Duration;
use onepipe_types::wire::{Datagram, Flags, HEADER_LEN};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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

impl SimPacket {
    /// Wrap a datagram, computing its wire size.
    pub fn new(dgram: Datagram) -> Self {
        let wire_bytes = WIRE_OVERHEAD + HEADER_LEN as u64 + dgram.payload.len() as u64;
        SimPacket { dgram, wire_bytes }
    }
}

/// Behaviour attached to a simulated node (switch logic, host endpoint,
/// traffic generator, ...).
///
/// `Send` is required so whole shards (including their attached logic)
/// can migrate to worker threads in sharded mode; a shard is only ever
/// executed by one thread at a time.
pub trait NodeLogic: Send {
    /// Called once when the simulation starts, to arm initial timers.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A packet arrived on the link `from → ctx.node()`.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: NodeId, pkt: SimPacket);

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

/// Dense directed-link storage. `slot[from][to]` indexes into `links`,
/// so the per-hop lookups on the forwarding path (`Ctx::send`, the
/// viability oracle behind ECMP failover) are two array reads instead of
/// a hash. Rows grow on demand; node-id space is small and dense.
pub(crate) struct LinkTable {
    slot: Vec<Vec<u32>>,
    links: Vec<Link>,
}

impl LinkTable {
    pub(crate) fn new() -> Self {
        LinkTable { slot: Vec::new(), links: Vec::new() }
    }

    /// Insert a link; returns `false` if it already exists.
    pub(crate) fn insert(&mut self, id: LinkId, link: Link) -> bool {
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
        row[t] = self.links.len() as u32;
        self.links.push(link);
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
    pub(crate) fn get(&self, id: LinkId) -> Option<&Link> {
        self.index(id).map(|i| &self.links[i])
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, id: LinkId) -> Option<&mut Link> {
        match self.index(id) {
            Some(i) => Some(&mut self.links[i]),
            None => None,
        }
    }

    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut Link> {
        self.links.iter_mut()
    }

    /// Consume the table into `(id, link)` pairs, in `(from, to)` id
    /// order — used by [`Sim::set_partition`] to split links by owner.
    pub(crate) fn into_entries(self) -> Vec<(LinkId, Link)> {
        let LinkTable { slot, links } = self;
        let mut links: Vec<Option<Link>> = links.into_iter().map(Some).collect();
        let mut out = Vec::with_capacity(links.len());
        for (f, row) in slot.iter().enumerate() {
            for (t, &s) in row.iter().enumerate() {
                if s != NO_LINK {
                    let id = LinkId::new(NodeId(f as u32), NodeId(t as u32));
                    out.push((id, links[s as usize].take().expect("link indexed twice")));
                }
            }
        }
        out
    }
}

pub(crate) enum EventKind {
    Arrive { to: NodeId, from: NodeId, pkt: SimPacket },
    Timer { node: NodeId, token: u64 },
    LinkAdmin { link: LinkId, up: bool },
    LinkLoss { link: LinkId, rate: f64 },
    GlobalLoss { rate: f64 },
    Crash { node: NodeId },
    Start { node: NodeId },
}

/// The execution context handed to [`NodeLogic`] callbacks.
///
/// Provides the node's view of the world: current time, packet
/// transmission on attached links, timers, neighbor discovery and a
/// deterministic RNG.
pub struct Ctx<'a> {
    pub(crate) now: u64,
    pub(crate) node: NodeId,
    pub(crate) queue: &'a mut CalendarQueue<EventKind>,
    pub(crate) links: &'a mut LinkTable,
    pub(crate) out_neighbors: &'a [Vec<NodeId>],
    pub(crate) in_neighbors: &'a [Vec<NodeId>],
    pub(crate) rng: &'a mut StdRng,
    pub(crate) stats: &'a mut Stats,
    /// The simulation's attention flag, see [`Ctx::raise_attention`].
    pub(crate) attention: &'a AtomicBool,
    /// Sharded-mode extras; `None` under the single-queue engine.
    pub(crate) shard: Option<ShardCtx<'a>>,
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
        let all: &'a [Vec<NodeId>] = self.out_neighbors;
        &all[self.node.0 as usize]
    }

    /// Incoming neighbors of this node (lifetime `'a`, like
    /// [`Ctx::out_neighbors`]).
    pub fn in_neighbors(&self) -> &'a [NodeId] {
        let all: &'a [Vec<NodeId>] = self.in_neighbors;
        &all[self.node.0 as usize]
    }

    /// Deterministic RNG (seeded at simulation construction).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Simulation-wide statistics.
    pub fn stats(&mut self) -> &mut Stats {
        self.stats
    }

    /// Tell whoever drives the simulation that this callback left work
    /// for it outside the event queue (a failure report, a controller
    /// request): [`Sim::run_batch`] returns after the current event and
    /// the flag stays up until [`Sim::take_attention`] lowers it. A
    /// relaxed store: the flag publishes no data of its own — the driver
    /// reads the node's outbox on the thread that ran the callback, or
    /// after a window barrier has synchronized with it.
    pub fn raise_attention(&self) {
        self.attention.store(true, Ordering::Relaxed);
    }

    /// Transmit `pkt` on the directed link `self.node → to`.
    ///
    /// Models serialization, queueing, tail drop, ECN marking and random
    /// in-flight loss. Returns `true` if the packet was accepted by the
    /// transmitter (it may still be lost in flight).
    pub fn send(&mut self, to: NodeId, mut pkt: SimPacket) -> bool {
        let link_id = LinkId::new(self.node, to);
        let Some(link) = self.links.get_mut(link_id) else {
            self.stats.drops_no_link += 1;
            return false;
        };
        match link.enqueue(self.now, pkt.wire_bytes) {
            Enqueue::Accepted { arrive_ns, ecn } => {
                if ecn {
                    pkt.dgram.header.flags.insert(Flags::ECN);
                    self.stats.ecn_marks += 1;
                }
                let lost = link.params.loss_rate > 0.0
                    && self.rng.random_range(0.0..1.0) < link.params.loss_rate;
                if lost {
                    self.stats.drops_inflight += 1;
                } else {
                    let from = self.node;
                    match &mut self.shard {
                        // Cross-shard arrival: buffered in the shard's
                        // outbox and merged into the destination shard's
                        // queue at the next window barrier. Safe because
                        // arrive_ns ≥ now + 1 + prop ≥ window end (the
                        // lookahead is min cross-shard prop + 1).
                        Some(s) if s.shard_of[to.0 as usize] != s.id => {
                            *s.cross_msgs += 1;
                            s.outbox.push(OutMsg { at: arrive_ns, to, from, pkt });
                        }
                        _ => {
                            self.queue.push(arrive_ns, EventKind::Arrive { to, from, pkt });
                        }
                    }
                }
                self.stats.packets_sent += 1;
                true
            }
            Enqueue::BufferOverflow => {
                self.stats.drops_overflow += 1;
                false
            }
            Enqueue::LinkDown => {
                self.stats.drops_link_down += 1;
                false
            }
        }
    }

    /// Arm a timer that fires `delay` ns from now with the given token.
    pub fn set_timer(&mut self, delay: Duration, token: u64) {
        self.queue.push(self.now + delay, EventKind::Timer { node: self.node, token });
    }

    /// Inspect the queue occupancy of an outgoing link, in bytes.
    pub fn link_queue_bytes(&self, to: NodeId) -> Option<u64> {
        self.links.get(LinkId::new(self.node, to)).map(|l| l.queue_bytes(self.now))
    }

    /// Whether the outgoing link to `to` is up.
    pub fn link_is_up(&self, to: NodeId) -> bool {
        self.links.get(LinkId::new(self.node, to)).map(|l| l.is_up()).unwrap_or(false)
    }

    /// Whether an arbitrary directed link `from → to` is up. Switch logic
    /// uses this as the global link-state database a converged routing
    /// protocol would provide: forwarding avoids next hops whose entire
    /// downstream path is dead, not just hops behind a locally-down port.
    pub fn global_link_is_up(&self, from: NodeId, to: NodeId) -> bool {
        // In sharded mode the local link table only holds links whose
        // tail is in this shard; the shared up-map mirrors every link's
        // administrative state (writes happen only at window barriers).
        if let Some(s) = &self.shard {
            return s.up_map.is_up(from, to);
        }
        self.links.get(LinkId::new(from, to)).map(|l| l.is_up()).unwrap_or(false)
    }
}

/// The simulator: nodes, links and the event queue.
pub struct Sim {
    pub(crate) now: u64,
    pub(crate) queue: CalendarQueue<EventKind>,
    pub(crate) nodes: Vec<Option<Box<dyn NodeLogic>>>,
    pub(crate) crashed: Vec<bool>,
    pub(crate) links: LinkTable,
    pub(crate) out_neighbors: Vec<Vec<NodeId>>,
    pub(crate) in_neighbors: Vec<Vec<NodeId>>,
    pub(crate) rng: StdRng,
    pub(crate) seed: u64,
    pub(crate) tracer: Option<TracerHandle>,
    /// Raised by [`Ctx::raise_attention`]; shared with every shard.
    pub(crate) attention: Arc<AtomicBool>,
    /// Sharded execution state; `None` under the single-queue engine.
    pub(crate) sharded: Option<Box<Sharded>>,
    /// Simulation-wide statistics.
    pub stats: Stats,
}

impl Sim {
    /// Create an empty simulator with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Sim {
            now: 0,
            queue: CalendarQueue::new(),
            nodes: Vec::new(),
            crashed: Vec::new(),
            links: LinkTable::new(),
            out_neighbors: Vec::new(),
            in_neighbors: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            seed,
            tracer: None,
            attention: Arc::new(AtomicBool::new(false)),
            sharded: None,
            stats: Stats::default(),
        }
    }

    /// Attach a packet tracer; every delivered packet is recorded.
    /// Incompatible with sharded execution ([`Sim::set_partition`]).
    pub fn set_tracer(&mut self, tracer: TracerHandle) {
        assert!(self.sharded.is_none(), "tracing is not supported in sharded mode");
        self.tracer = Some(tracer);
    }

    /// Whether the simulator runs in sharded mode.
    pub fn is_sharded(&self) -> bool {
        self.sharded.is_some()
    }

    /// Per-shard execution counters (empty in single-queue mode).
    pub fn shard_stats(&self) -> Vec<ShardStat> {
        self.sharded.as_deref().map(Sharded::shard_stats).unwrap_or_default()
    }

    /// Current simulation time (ns).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Add a node without logic (logic can be attached later); returns its id.
    pub fn add_node(&mut self) -> NodeId {
        assert!(self.sharded.is_none(), "cannot add nodes after set_partition");
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(None);
        self.crashed.push(false);
        self.out_neighbors.push(Vec::new());
        self.in_neighbors.push(Vec::new());
        id
    }

    /// Attach (or replace) the logic of a node. An `on_start` event is
    /// scheduled at the current time.
    pub fn set_logic(&mut self, node: NodeId, logic: Box<dyn NodeLogic>) {
        if let Some(sh) = self.sharded.as_deref_mut() {
            sh.set_logic(self.now, node, logic);
            return;
        }
        self.nodes[node.0 as usize] = Some(logic);
        self.queue.push(self.now, EventKind::Start { node });
    }

    /// Add a directed link with the given parameters.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, params: LinkParams) {
        assert!(self.sharded.is_none(), "cannot add links after set_partition");
        let id = LinkId::new(from, to);
        assert!(self.links.insert(id, Link::new(params)), "duplicate link {id:?}");
        self.out_neighbors[from.0 as usize].push(to);
        self.in_neighbors[to.0 as usize].push(from);
    }

    /// Add a bidirectional link (two directed links with equal parameters).
    pub fn add_duplex_link(&mut self, a: NodeId, b: NodeId, params: LinkParams) {
        self.add_link(a, b, params);
        self.add_link(b, a, params);
    }

    /// Mutable access to a link (loss-rate adjustment, inspection).
    pub fn link_mut(&mut self, id: LinkId) -> Option<&mut Link> {
        if let Some(sh) = self.sharded.as_deref_mut() {
            // The caller may flip the link's up state; remember the id so
            // the shared up-map is re-synced before the next window.
            sh.note_dirty(id);
            return sh.link_mut(id);
        }
        self.links.get_mut(id)
    }

    /// Shared access to a link.
    pub fn link(&self, id: LinkId) -> Option<&Link> {
        if let Some(sh) = self.sharded.as_deref() {
            return sh.link(id);
        }
        self.links.get(id)
    }

    /// Set the loss rate of every link in the network.
    pub fn set_global_loss_rate(&mut self, rate: f64) {
        if let Some(sh) = self.sharded.as_deref_mut() {
            sh.set_global_loss_rate(rate);
            return;
        }
        for link in self.links.values_mut() {
            link.params.loss_rate = rate;
        }
    }

    /// Schedule an administrative link up/down change at `at` (absolute ns).
    pub fn schedule_link_admin(&mut self, at: u64, link: LinkId, up: bool) {
        assert!(at >= self.now);
        if let Some(sh) = self.sharded.as_deref_mut() {
            sh.schedule_admin(at, EventKind::LinkAdmin { link, up });
            return;
        }
        self.queue.push(at, EventKind::LinkAdmin { link, up });
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
        assert!(at >= self.now);
        assert!((0.0..=1.0).contains(&rate), "loss rate must be in [0, 1]");
        if let Some(sh) = self.sharded.as_deref_mut() {
            sh.schedule_admin(at, EventKind::LinkLoss { link, rate });
            return;
        }
        self.queue.push(at, EventKind::LinkLoss { link, rate });
    }

    /// Schedule a network-wide loss-rate change at `at` (absolute ns).
    pub fn schedule_global_loss(&mut self, at: u64, rate: f64) {
        assert!(at >= self.now);
        assert!((0.0..=1.0).contains(&rate), "loss rate must be in [0, 1]");
        if let Some(sh) = self.sharded.as_deref_mut() {
            sh.schedule_admin(at, EventKind::GlobalLoss { rate });
            return;
        }
        self.queue.push(at, EventKind::GlobalLoss { rate });
    }

    /// Schedule a node crash at `at` (absolute ns): the node stops
    /// processing all events from that time on.
    pub fn schedule_crash(&mut self, at: u64, node: NodeId) {
        assert!(at >= self.now);
        if let Some(sh) = self.sharded.as_deref_mut() {
            sh.schedule_admin(at, EventKind::Crash { node });
            return;
        }
        self.queue.push(at, EventKind::Crash { node });
    }

    /// Schedule a timer on a node from outside (harness hook).
    pub fn schedule_timer(&mut self, at: u64, node: NodeId, token: u64) {
        assert!(at >= self.now);
        if let Some(sh) = self.sharded.as_deref_mut() {
            sh.schedule_timer(at, node, token);
            return;
        }
        self.queue.push(at, EventKind::Timer { node, token });
    }

    /// Whether a node has been crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed[node.0 as usize]
    }

    /// Time of the next queued event, if any (harness interleaving).
    /// Amortized O(1); `&mut` because the calendar queue may lazily sort
    /// its head bucket (work the following `step` reuses).
    pub fn peek_time(&mut self) -> Option<u64> {
        if let Some(sh) = self.sharded.as_deref_mut() {
            return sh.peek_time();
        }
        self.queue.peek_time()
    }

    /// Outgoing neighbors of a node.
    pub fn out_neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.out_neighbors[node.0 as usize]
    }

    /// Incoming neighbors of a node.
    pub fn in_neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.in_neighbors[node.0 as usize]
    }

    /// Immutable access to a node's logic, downcast by the caller.
    pub fn logic(&self, node: NodeId) -> Option<&dyn NodeLogic> {
        if let Some(sh) = self.sharded.as_deref() {
            return sh.logic(node);
        }
        self.nodes[node.0 as usize].as_deref()
    }

    /// Mutable access to a node's logic (the harness uses this to inject
    /// application work between events).
    pub fn logic_mut(&mut self, node: NodeId) -> Option<&mut (dyn NodeLogic + 'static)> {
        if let Some(sh) = self.sharded.as_deref_mut() {
            return sh.logic_mut(node);
        }
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
        if self.crashed[node.0 as usize] {
            return None;
        }
        if self.sharded.is_some() {
            let Sim { sharded, stats, now, .. } = self;
            return sharded.as_deref_mut().unwrap().with_node(*now, node, stats, f);
        }
        self.with_ctx(node, f)
    }

    /// Run a node callback with a single-queue [`Ctx`]; `None` if the
    /// node has no logic attached.
    fn with_ctx<R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut dyn NodeLogic, &mut Ctx<'_>) -> R,
    ) -> Option<R> {
        let mut logic = self.nodes[node.0 as usize].take()?;
        let mut ctx = Ctx {
            now: self.now,
            node,
            queue: &mut self.queue,
            links: &mut self.links,
            out_neighbors: &self.out_neighbors,
            in_neighbors: &self.in_neighbors,
            rng: &mut self.rng,
            stats: &mut self.stats,
            attention: &self.attention,
            shard: None,
        };
        let r = f(logic.as_mut(), &mut ctx);
        self.nodes[node.0 as usize] = Some(logic);
        Some(r)
    }

    /// Execute one popped event of the single-queue engine.
    fn dispatch(&mut self, time: u64, kind: EventKind) {
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        self.stats.events += 1;
        match kind {
            EventKind::Arrive { to, from, pkt } => {
                if !self.crashed[to.0 as usize] {
                    // Packets arriving over a link that went down mid-flight
                    // are still delivered: they were already serialized.
                    self.dispatch_packet(to, from, pkt);
                }
            }
            EventKind::Timer { node, token } => {
                if !self.crashed[node.0 as usize] {
                    let _ = self.with_ctx(node, |l, ctx| l.on_timer(ctx, token));
                }
            }
            EventKind::LinkAdmin { link, up } => {
                if let Some(l) = self.links.get_mut(link) {
                    l.set_up(up);
                    self.stats.faults_link_flaps += 1;
                }
            }
            EventKind::LinkLoss { link, rate } => {
                if let Some(l) = self.links.get_mut(link) {
                    l.params.loss_rate = rate;
                    self.stats.faults_loss_bursts += 1;
                }
            }
            EventKind::GlobalLoss { rate } => {
                for l in self.links.values_mut() {
                    l.params.loss_rate = rate;
                }
                self.stats.faults_loss_bursts += 1;
            }
            EventKind::Crash { node } => {
                self.crashed[node.0 as usize] = true;
                self.stats.faults_crashes += 1;
                // Take both directions of every attached link down.
                // (Disjoint field borrows: neighbor lists shared, links mut.)
                for &peer in &self.out_neighbors[node.0 as usize] {
                    if let Some(l) = self.links.get_mut(LinkId::new(node, peer)) {
                        l.set_up(false);
                    }
                }
                for &peer in &self.in_neighbors[node.0 as usize] {
                    if let Some(l) = self.links.get_mut(LinkId::new(peer, node)) {
                        l.set_up(false);
                    }
                }
            }
            EventKind::Start { node } => {
                if !self.crashed[node.0 as usize] {
                    let _ = self.with_ctx(node, |l, ctx| l.on_start(ctx));
                }
            }
        }
    }

    /// Run queued events in `(time, seq)` order while their time is ≤
    /// `through`, returning early after the first event at or past
    /// `deadline`, or after an event during which a node raised attention
    /// ([`Ctx::raise_attention`]; it stays raised, so a batch runs one
    /// event at a time until [`Sim::take_attention`]). Returns whether
    /// any event ran. This is the single-queue engine's only event loop;
    /// sharded mode runs [`Sim::run_window`] instead.
    pub fn run_batch(&mut self, through: u64, deadline: u64) -> bool {
        assert!(self.sharded.is_none(), "run_batch() is unsupported in sharded mode");
        let mut ran = false;
        while self.queue.peek_time().is_some_and(|head| head <= through) {
            let (time, _seq, kind) = self.queue.pop().expect("peeked non-empty queue");
            self.dispatch(time, kind);
            ran = true;
            if time >= deadline || self.attention.load(Ordering::Relaxed) {
                break;
            }
        }
        ran
    }

    /// Lower the attention flag, returning whether it was raised. A load
    /// and a conditional store rather than a swap (a locked instruction
    /// on every idle pump): nodes only raise the flag while the driver
    /// is inside a run call, never concurrently with this one.
    pub fn take_attention(&mut self) -> bool {
        let raised = self.attention.load(Ordering::Relaxed);
        if raised {
            self.attention.store(false, Ordering::Relaxed);
        }
        raised
    }

    /// Run until the event queue is exhausted or `t_end` (ns) is reached.
    /// Events at exactly `t_end` are processed.
    pub fn run_until(&mut self, t_end: u64) {
        if self.sharded.is_some() {
            while self.run_window(t_end) {}
            self.now = self.now.max(t_end);
            return;
        }
        while self.run_batch(t_end, u64::MAX) {}
        self.now = self.now.max(t_end);
    }

    /// Sharded mode: execute one conservative-lookahead window (or one
    /// batch of scheduled faults) with every event time ≤ `cap`, then
    /// merge cross-shard traffic at the barrier. Returns `false` when
    /// nothing at or before `cap` remains. Harness loops interleave this
    /// with control-plane pumping at window granularity.
    pub fn run_window(&mut self, cap: u64) -> bool {
        let Sim { sharded, stats, now, crashed, .. } = self;
        let sh = sharded.as_deref_mut().expect("run_window requires set_partition");
        sh.run_window(now, stats, crashed, cap)
    }

    /// Run until the queue drains completely.
    pub fn run_to_completion(&mut self) {
        if self.sharded.is_some() {
            while self.run_window(u64::MAX) {}
            return;
        }
        while self.run_batch(u64::MAX, u64::MAX) {}
    }

    fn dispatch_packet(&mut self, to: NodeId, from: NodeId, pkt: SimPacket) {
        if let Some(tracer) = &self.tracer {
            let h = pkt.dgram.header;
            tracer.borrow_mut().record(TraceRecord {
                at: self.now,
                from,
                to,
                opcode: h.opcode,
                psn: h.psn,
                msg_ts: h.msg_ts,
                barrier: h.barrier,
                commit_barrier: h.commit_barrier,
                wire_bytes: pkt.wire_bytes,
            });
        }
        if self.with_ctx(to, |l, ctx| l.on_packet(ctx, from, pkt)).is_none() {
            self.stats.drops_no_logic += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use onepipe_types::ids::ProcessId;
    use onepipe_types::time::Timestamp;
    use onepipe_types::wire::{Opcode, PacketHeader};
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

    #[test]
    fn timers_fire_in_order() {
        struct Timers {
            log: Arc<Mutex<Vec<u64>>>,
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
                self.log.lock().unwrap().push(token);
            }
        }
        let mut sim = Sim::new(0);
        let n = sim.add_node();
        let log = Arc::new(Mutex::new(Vec::new()));
        sim.set_logic(n, Box::new(Timers { log: log.clone() }));
        sim.run_to_completion();
        assert_eq!(*log.lock().unwrap(), vec![1, 2, 3]);
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
