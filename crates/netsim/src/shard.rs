//! Shards, the event loop, and how a split network stays deterministic.
//!
//! # Model
//!
//! A *shard* owns a disjoint set of nodes, every directed link whose tail
//! node it owns, a private calendar queue, a private RNG and private
//! statistics, and runs the engine's one event loop (`Shard::run`) over
//! them. [`Sim::new`] puts the whole network in one shard;
//! [`Sim::set_partition`] splits it along the topology (one shard per
//! rack subtree, one per pod spine group, one per core switch — see
//! [`Topology::partition`](crate::topology::Topology::partition)), so
//! the dense intra-rack traffic never crosses a shard boundary. The
//! shards of a split network run one after another on the calling
//! thread: the split is a locality structure — each shard's queue, links
//! and node state fit the cache where the whole network's do not — not a
//! unit of parallelism.
//!
//! # Conservative lookahead
//!
//! Execution proceeds in *windows* ([`Sim::run`]). A window starts at
//! `W`, the minimum pending event time across shards, and extends to
//! `W_end = W + L` where the lookahead `L` is the minimum propagation
//! delay over all **cross-shard** links plus one. Inside a window every
//! shard drains its own queue without looking at any other: an event at
//! `t < W_end` can only produce a cross-shard arrival at
//! `t + tx + prop ≥ W + 1 + L - 1 = W_end`, because serialization takes
//! at least 1 ns and the propagation delay of any cross-shard link is at
//! least `L - 1`. Cross-shard packets are therefore buffered in per-shard
//! outboxes and merged at the window barrier, before any shard has
//! advanced past `W_end` — no shard ever receives an event in its past.
//! With a single shard no link crosses, `L` is unbounded, and a window is
//! whatever stretch of time the caller asks for.
//!
//! # Deterministic merge contract
//!
//! At each barrier the collected outbox entries are sorted by
//! `(arrival_time, source_shard, source_outbox_position)` and pushed into
//! the destination shards' queues in that order; each push receives the
//! destination queue's own monotone sequence number, so pop order —
//! `(time, seq)` — is a pure function of the partition and the seed.
//! Shard RNGs are seeded `seed + shard_id · STRIDE` (shard 0 keeps the
//! seed itself). Packet trace records take the same route — a per-shard
//! buffer, merged in the same order at the barrier.
//!
//! # Faults
//!
//! Scheduled faults (`LinkAdmin`, `LinkLoss`, `GlobalLoss`, `Crash`) and
//! harness calls (`with_node`) run on the coordinator, between windows.
//! A fault takes effect in `(time, push order)` like any event: events at
//! its nanosecond that were queued before it was scheduled run first,
//! those queued later run after. Each shard knows where that line is in
//! its own queue by the fence pushed when the fault was scheduled;
//! windows of a split network end just before the fault's time, then
//! every shard runs up to its fence, then the coordinator applies the
//! fault. The link up/down mirror (`Shared::up`) behind the global
//! routing oracle is likewise only written between windows, so what a
//! node reads from it does not depend on the order shards run in.

use crate::engine::{Ctx, EventKind, InFlight, LinkMap, LinkTable, NodeLogic, Sim, SimPacket};
use crate::sched::CalendarQueue;
use crate::stats::{ShardStat, Stats};
use crate::trace::TraceRecord;
use onepipe_types::ids::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;

/// Seed stride between shard RNGs (golden-ratio constant). Shard 0 keeps
/// the simulation seed itself, so splitting a network leaves the draws of
/// a one-shard partition unchanged.
pub const SHARD_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// A cross-shard packet arrival, buffered until the window barrier.
pub(crate) struct OutMsg {
    /// Absolute arrival time (past the window end, by the lookahead bound).
    pub(crate) at: u64,
    /// Destination node (owned by another shard).
    pub(crate) to: NodeId,
    /// Sending node (owned by this shard).
    pub(crate) from: NodeId,
    /// What arrives, by value: it joins the destination shard's queue
    /// (and packet pool) at the barrier.
    pub(crate) body: InFlight,
}

/// What every shard reads and none writes while a window runs (but for
/// raising `attention`).
#[derive(Default)]
pub(crate) struct Shared {
    /// Node → owning shard.
    pub(crate) shard_of: Vec<u32>,
    pub(crate) out_neighbors: Vec<Vec<NodeId>>,
    pub(crate) in_neighbors: Vec<Vec<NodeId>>,
    /// Mirror of every directed link's administrative up/down state, for
    /// [`Ctx::global_link_is_up`], which must see links owned by other
    /// shards.
    pub(crate) up: LinkMap<bool>,
    /// Bumped whenever an entry of `up` is written; whatever a node
    /// derived from `up` under an older value is stale
    /// ([`Ctx::link_epoch`]).
    pub(crate) link_epoch: u64,
    /// Raised by [`Ctx::raise_attention`], through the shared reference
    /// a node callback holds.
    pub(crate) attention: Cell<bool>,
}

/// One shard: a self-contained slice of the simulation.
pub(crate) struct Shard {
    pub(crate) id: u32,
    pub(crate) queue: CalendarQueue<EventKind>,
    /// The packets of the queue's [`EventKind::Arrive`] events, which hold
    /// a slot index: sorting and shifting queue entries moves 48 bytes,
    /// not a packet. A slot is `None` while it is on `free_packets`.
    packets: Vec<Option<SimPacket>>,
    /// Vacant slots of `packets`, reused last-freed-first (the warmest);
    /// in steady state no arrival allocates.
    free_packets: Vec<u32>,
    /// Full-length node table; `None` for nodes owned by other shards.
    pub(crate) nodes: Vec<Option<Box<dyn NodeLogic>>>,
    /// Links whose tail node this shard owns.
    pub(crate) links: LinkTable,
    /// Full-length crash flags; only the owner's entry is ever set.
    pub(crate) crashed: Vec<bool>,
    pub(crate) rng: StdRng,
    /// Time of the last event this shard ran.
    pub(crate) now: u64,
    /// Counters since the last barrier, folded into [`Sim::stats`] there.
    pub(crate) scratch: Stats,
    pub(crate) outbox: Vec<OutMsg>,
    /// Packet arrivals since the last barrier, when a tracer is attached.
    pub(crate) trace: Option<Vec<TraceRecord>>,
    pub(crate) stat: ShardStat,
}

impl Shard {
    pub(crate) fn new(id: u32, seed: u64, nodes: usize, tracing: bool) -> Shard {
        Shard {
            id,
            queue: CalendarQueue::new(),
            packets: Vec::new(),
            free_packets: Vec::new(),
            nodes: (0..nodes).map(|_| None).collect(),
            links: LinkTable::default(),
            crashed: vec![false; nodes],
            rng: StdRng::seed_from_u64(
                seed.wrapping_add((id as u64).wrapping_mul(SHARD_SEED_STRIDE)),
            ),
            now: 0,
            scratch: Stats::default(),
            outbox: Vec::new(),
            trace: tracing.then(Vec::new),
            stat: ShardStat { shard: id, ..ShardStat::default() },
        }
    }

    /// Queue the arrival of `body` at `to`, a node of this shard. Inlined
    /// where the caller knows which kind of `body` it has, so that the
    /// queue entry is built from registers ([`CalendarQueue::push`]).
    #[inline(always)]
    pub(crate) fn schedule_arrival(&mut self, at: u64, to: NodeId, from: NodeId, body: InFlight) {
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

    /// Run a node callback with a [`Ctx`]; `None` if the node has no
    /// logic attached (or belongs to another shard).
    pub(crate) fn with_ctx<R>(
        &mut self,
        net: &Shared,
        now: u64,
        node: NodeId,
        f: impl FnOnce(&mut dyn NodeLogic, &mut Ctx<'_>) -> R,
    ) -> Option<R> {
        let mut logic = self.nodes[node.0 as usize].take()?;
        let r = f(logic.as_mut(), &mut Ctx { now, node, shard: self, net });
        self.nodes[node.0 as usize] = Some(logic);
        Some(r)
    }

    /// The event loop: pop and execute this shard's events in
    /// `(time, seq)` order while their time is ≤ `through`. Stops at a
    /// fence and returns `true` — the coordinator has a fault to apply.
    /// With `early = Some(deadline)` it also stops after the first event
    /// at or past `deadline` and after an event that raised attention;
    /// a window that other shards share passes `None` and runs to its
    /// end without reading the flag.
    pub(crate) fn run(&mut self, net: &Shared, through: u64, early: Option<u64>) -> bool {
        let before = self.scratch.events;
        let mut fenced = false;
        while self.queue.peek_time().is_some_and(|head| head <= through) {
            let (time, _seq, kind) = self.queue.pop().expect("peeked non-empty queue");
            debug_assert!(time >= self.now, "time went backwards");
            self.now = time;
            match kind {
                // Packets arriving over a link that went down mid-flight
                // are still delivered: they were already serialized.
                EventKind::Arrive { to, from, pkt } => {
                    let pkt = self.take_packet(pkt);
                    if !self.crashed[to.0 as usize] {
                        if let Some(trace) = &mut self.trace {
                            trace.push(TraceRecord::arrival(time, from, to, &pkt));
                        }
                        let ran =
                            self.with_ctx(net, time, to, |l, ctx| l.on_packet(ctx, from, pkt));
                        if ran.is_none() {
                            self.scratch.drops_no_logic += 1;
                        }
                    }
                }
                EventKind::Beacon { to, from, be, commit } => {
                    if !self.crashed[to.0 as usize] {
                        if let Some(trace) = &mut self.trace {
                            let pkt = SimPacket::beacon(be, commit);
                            trace.push(TraceRecord::arrival(time, from, to, &pkt));
                        }
                        let ran = self
                            .with_ctx(net, time, to, |l, ctx| l.on_beacon(ctx, from, be, commit));
                        if ran.is_none() {
                            self.scratch.drops_no_logic += 1;
                        }
                    }
                }
                EventKind::Timer { node, token } => {
                    if !self.crashed[node.0 as usize] {
                        let _ = self.with_ctx(net, time, node, |l, ctx| l.on_timer(ctx, token));
                    }
                }
                EventKind::Start { node } => {
                    if !self.crashed[node.0 as usize] {
                        let _ = self.with_ctx(net, time, node, |l, ctx| l.on_start(ctx));
                    }
                }
                EventKind::Fence => {
                    fenced = true;
                    break;
                }
            }
            self.scratch.events += 1;
            if early.is_some_and(|d| time >= d || net.attention.get()) {
                break;
            }
        }
        if self.scratch.events > before {
            self.stat.windows += 1;
        }
        fenced
    }
}

impl Sim {
    /// Split the network into shards: `shard_of[node]` assigns every
    /// node to one.
    ///
    /// Must be called after topology construction and before the first
    /// run. Pending events (e.g. `on_start`) migrate to their owning
    /// shards, fences to every shard.
    pub fn set_partition(&mut self, shard_of: Vec<u32>) {
        assert!(self.shards.len() == 1, "the network is already split");
        assert_eq!(shard_of.len(), self.net.shard_of.len(), "shard_of must cover every node");
        let num_shards = shard_of.iter().map(|&s| s as usize + 1).max().unwrap_or(1);
        let mut whole = self.shards.pop().expect("checked: one shard");

        let mut shards: Vec<Shard> = (0..num_shards)
            .map(|i| Shard::new(i as u32, self.seed, shard_of.len(), whole.trace.is_some()))
            .collect();
        let owner = |node: NodeId| shard_of[node.0 as usize] as usize;
        for (i, logic) in whole.nodes.into_iter().enumerate() {
            shards[owner(NodeId(i as u32))].nodes[i] = logic;
        }
        for (i, crashed) in whole.crashed.into_iter().enumerate() {
            shards[owner(NodeId(i as u32))].crashed[i] = crashed;
        }
        let mut min_cross = u64::MAX;
        for (id, link) in whole.links.into_entries() {
            if owner(id.from) != owner(id.to) {
                min_cross = min_cross.min(link.params.prop_delay_ns);
            }
            shards[owner(id.from)].links.insert(id, link);
        }
        // Pending events move in their global (time, seq) order, which
        // preserves their relative order within each shard.
        while let Some((time, _seq, kind)) = whole.queue.pop() {
            match kind {
                EventKind::Arrive { to, from, pkt } => {
                    let pkt = whole.packets[pkt as usize].take().expect("one event per slot");
                    shards[owner(to)].schedule_arrival(time, to, from, InFlight::Packet(pkt));
                }
                EventKind::Beacon { to, .. } => shards[owner(to)].queue.push(time, kind),
                EventKind::Timer { node, .. } | EventKind::Start { node } => {
                    shards[owner(node)].queue.push(time, kind)
                }
                EventKind::Fence => {
                    for shard in shards.iter_mut() {
                        shard.queue.push(time, EventKind::Fence);
                    }
                }
            }
        }

        self.net.shard_of = shard_of;
        self.shards = shards;
        self.lookahead = min_cross.saturating_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkParams;
    use crate::topology::{FatTreeParams, NodeRole, Topology};
    use crate::trace::Tracer;
    use onepipe_types::ids::{HostId, LinkId, ProcessId};
    use onepipe_types::time::Timestamp;
    use onepipe_types::wire::{Datagram, Flags, Opcode, PacketHeader};
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
            payload: bytes::Bytes::from_static(b"x"),
        }
    }

    struct Recorder {
        log: Arc<Mutex<Vec<(u64, u32)>>>,
    }
    impl NodeLogic for Recorder {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, pkt: SimPacket) {
            self.log.lock().unwrap().push((ctx.now(), pkt.dgram.header.psn));
        }
    }

    /// Like [`Recorder`], and answers every packet on the reverse link.
    struct Echo {
        log: Log,
    }
    impl NodeLogic for Echo {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: NodeId, pkt: SimPacket) {
            self.log.lock().unwrap().push((ctx.now(), pkt.dgram.header.psn));
            ctx.send(from, pkt);
        }
    }

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
        fn on_packet(&mut self, _: &mut Ctx<'_>, _: NodeId, _: SimPacket) {}
    }

    type Log = Arc<Mutex<Vec<(u64, u32)>>>;

    fn two_node(params: LinkParams, seed: u64) -> (Sim, NodeId, NodeId, Log) {
        let mut sim = Sim::new(seed);
        let a = sim.add_node();
        let b = sim.add_node();
        sim.add_duplex_link(a, b, params);
        let log = Arc::new(Mutex::new(Vec::new()));
        sim.set_logic(b, Box::new(Recorder { log: log.clone() }));
        (sim, a, b, log)
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

    /// The whole-network shard draws loss from the unsalted seed in
    /// `(time, seq)` order: arrivals and counters equal the values the
    /// single-queue engine produced (recorded on the commit before the
    /// engines were unified). Naming the one shard explicitly changes
    /// nothing.
    #[test]
    fn one_shard_matches_the_recorded_single_queue_run_with_loss() {
        let params = LinkParams { loss_rate: 0.5, ..LinkParams::default() };
        for explicit in [false, true] {
            let (mut sim, a, _b, log) = two_node(params, 1);
            if explicit {
                sim.set_partition(vec![0, 0]);
            }
            sim.set_logic(a, Box::new(Blaster { peer: NodeId(1), n: 1000 }));
            sim.run_to_completion();
            let log = log.lock().unwrap();
            assert_eq!((log.len(), fnv(&log)), (ONE_SHARD_LOSS.0, ONE_SHARD_LOSS.1));
            assert_eq!(
                (sim.stats.events, sim.stats.packets_sent, sim.stats.drops_inflight),
                (ONE_SHARD_LOSS.2, 1000, 1000 - ONE_SHARD_LOSS.0 as u64)
            );
            assert_eq!(sim.shard_stats().len(), 1);
        }
    }
    /// `(arrivals, fnv(arrival log), events)` of the run above.
    const ONE_SHARD_LOSS: (usize, u64, u64) = (463, 0x9a8c_df39_cf8b_294c, 465);

    /// Cross-shard delivery matches the one-shard run exactly.
    #[test]
    fn cross_shard_matches_one_shard() {
        let (mut whole, a, _b, log_w) = two_node(LinkParams::default(), 7);
        whole.set_logic(a, Box::new(Blaster { peer: NodeId(1), n: 200 }));
        whole.run_to_completion();
        let reference = log_w.lock().unwrap().clone();
        assert_eq!(reference.len(), 200);

        let (mut sim, a2, _b2, log) = two_node(LinkParams::default(), 7);
        sim.set_partition(vec![0, 1]);
        sim.set_logic(a2, Box::new(Blaster { peer: NodeId(1), n: 200 }));
        sim.run_to_completion();
        assert_eq!(*log.lock().unwrap(), reference);
        let stats = sim.shard_stats();
        assert_eq!(stats[0].cross_shard_msgs, 200);
        assert_eq!(stats.iter().map(|s| s.events).sum::<u64>(), sim.stats.events);
        assert_eq!(sim.stats.events, whole.stats.events);
        assert!(stats[0].windows > 0);
    }

    /// Splitting a network with packets in flight moves them, pool slot
    /// and all, with their events: every one is delivered, when it would
    /// have been — data packets and beacons alike.
    #[test]
    fn set_partition_carries_pooled_packets_along() {
        fn run(split: bool) -> (Vec<(u64, u32)>, u64) {
            let (mut sim, a, b, log) = two_node(LinkParams::default(), 7);
            sim.set_logic(a, Box::new(Blaster { peer: b, n: 200 }));
            sim.run_until(0);
            sim.with_node(a, |_, ctx| {
                ctx.send_beacon(b, Timestamp::from_nanos(2), Timestamp::from_nanos(1));
                ctx.send(b, SimPacket::new(dgram(200)));
            });
            assert!(log.lock().unwrap().is_empty(), "all 202 are in flight");
            if split {
                sim.set_partition(vec![1, 0]);
            }
            sim.run_to_completion();
            let log = log.lock().unwrap().clone();
            (log, sim.stats.events)
        }
        let whole = run(false);
        // The beacon reaches the recorder as a packet with PSN 0.
        assert_eq!(whole.0.len(), 202);
        assert_eq!((whole.0[200].1, whole.0[201].1), (0, 200));
        assert_eq!(run(true), whole);
    }

    /// Scheduled faults behave on a split network as on a whole one:
    /// link flaps block and restore delivery, crashes silence a node,
    /// and the fault counters match.
    #[test]
    fn faults_on_a_split_network() {
        let (mut sim, a, b, log) = two_node(LinkParams::default(), 3);
        sim.set_partition(vec![0, 1]);
        let fwd = LinkId::new(a, b);
        sim.schedule_link_admin(0, fwd, false);
        sim.schedule_link_admin(10_000, fwd, true);
        sim.run_until(0);
        sim.set_logic(a, Box::new(Blaster { peer: NodeId(1), n: 3 }));
        sim.run_until(5_000);
        assert_eq!(log.lock().unwrap().len(), 0, "link is down");
        assert_eq!(sim.stats.drops_link_down, 3);
        sim.run_until(10_000);
        sim.with_node(a, |_, ctx| {
            assert!(ctx.global_link_is_up(a, b));
            ctx.send(NodeId(1), SimPacket::new(dgram(7)));
        });
        sim.run_to_completion();
        assert_eq!(log.lock().unwrap().len(), 1);
        assert_eq!(sim.stats.faults_link_flaps, 2);

        // Crash: node stops receiving, fault counter increments.
        let (mut sim, a, b, log) = two_node(LinkParams::default(), 3);
        sim.set_partition(vec![0, 1]);
        sim.set_logic(a, Box::new(Blaster { peer: NodeId(1), n: 10 }));
        sim.schedule_crash(0, b);
        sim.run_to_completion();
        assert!(sim.is_crashed(b));
        assert_eq!(log.lock().unwrap().len(), 0);
        assert_eq!(sim.stats.faults_crashes, 1);
    }

    /// A fault and an event in the same nanosecond run in push order,
    /// whatever the partition — the single-queue engine's rule. `a`
    /// sends one packet to `b`, which echoes it; the fault lands on the
    /// packet's arrival time, scheduled either before the packet was
    /// sent or while it was in flight.
    #[test]
    fn fault_ties_break_in_push_order_on_every_partition() {
        /// Returns `(arrivals at b, packets dropped at a down link)`.
        fn run(
            split: bool,
            fault_first: bool,
            fault: impl Fn(&mut Sim, u64, NodeId, NodeId),
        ) -> (usize, u64) {
            let arrival = {
                let (mut probe, a, _b, log) = two_node(LinkParams::default(), 5);
                probe.set_logic(a, Box::new(Blaster { peer: NodeId(1), n: 1 }));
                probe.run_to_completion();
                let at = log.lock().unwrap()[0].0;
                at
            };
            let (mut sim, a, b, log) = two_node(LinkParams::default(), 5);
            sim.set_logic(b, Box::new(Echo { log: log.clone() }));
            if split {
                sim.set_partition(vec![0, 1]);
            }
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
        for split in [false, true] {
            // Scheduled up front, the fault precedes the arrival: the
            // crashed node never sees the packet; the echo finds its
            // link down.
            assert_eq!(run(split, true, crash), (0, 0), "split={split}");
            assert_eq!(run(split, true, cut_reply), (1, 1), "split={split}");
            // Scheduled behind the in-flight packet, it follows it.
            assert_eq!(run(split, false, crash), (1, 0), "split={split}");
            assert_eq!(run(split, false, cut_reply), (1, 0), "split={split}");
        }
    }

    /// `with_node` injection works across shard boundaries at the
    /// current simulation time.
    #[test]
    fn with_node_injects_cross_shard() {
        let (mut sim, a, _b, log) = two_node(LinkParams::default(), 0);
        sim.set_partition(vec![0, 1]);
        sim.set_logic(a, Box::new(Blaster { peer: NodeId(1), n: 0 }));
        sim.run_until(5_000);
        sim.with_node(a, |_, ctx| {
            assert_eq!(ctx.now(), 5_000);
            ctx.send(NodeId(1), SimPacket::new(dgram(42)));
        });
        sim.run_to_completion();
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].1, 42);
        assert!(log[0].0 > 5_000);
    }

    /// The rack partition of the paper's testbed: 4 rack shards, 2 pod
    /// spine shards, 2 core shards; every virtual loopback stays
    /// intra-shard so the lookahead horizon is the 500 ns fabric delay.
    #[test]
    fn testbed_partition_shape_and_lookahead() {
        let mut sim = Sim::new(0);
        let topo = Topology::build(&mut sim, FatTreeParams::testbed());
        assert_eq!(sim.lookahead, u64::MAX, "nothing crosses a lone shard");
        let part = topo.partition();
        assert_eq!(part.len(), 50); // 32 hosts + 16 switch halves + 2 cores
        assert_eq!(part.iter().max(), Some(&7)); // 4 racks + 2 pods + 2 cores
        for (i, role) in topo.roles.iter().enumerate() {
            let s = part[i];
            match *role {
                NodeRole::Host(h) => assert_eq!(s, h.0 / 8),
                NodeRole::TorUp { pod, idx } | NodeRole::TorDown { pod, idx } => {
                    assert_eq!(s, pod * 2 + idx)
                }
                NodeRole::SpineUp { pod, .. } | NodeRole::SpineDown { pod, .. } => {
                    assert_eq!(s, 4 + pod)
                }
                NodeRole::Core { idx } => assert_eq!(s, 6 + idx),
            }
        }
        sim.set_partition(part);
        assert_eq!(sim.lookahead, 501);
    }

    /// Traffic into host 31 of the testbed fat-tree, injected at its
    /// ToR: the whole-network shard reproduces the single-queue engine's
    /// recorded arrivals and event count, and the rack partition
    /// reproduces the whole-network shard — with a tracer attached
    /// before or after the split, and an identical trace.
    #[test]
    fn fat_tree_traffic_identical_across_partitions() {
        fn run(split: bool, trace_first: bool) -> (Vec<(u64, u32)>, u64, String) {
            let mut sim = Sim::new(9);
            let topo = Topology::build(&mut sim, FatTreeParams::testbed());
            let tracer = Tracer::shared(1 << 16);
            if trace_first {
                sim.set_tracer(tracer.clone());
            }
            if split {
                sim.set_partition(topo.partition());
            }
            if !trace_first {
                sim.set_tracer(tracer.clone());
            }
            let log: Log = Arc::new(Mutex::new(Vec::new()));
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
            let l = log.lock().unwrap().clone();
            let dump = tracer.borrow().dump();
            (l, sim.stats.events, dump)
        }
        let whole = run(false, true);
        assert_eq!((whole.0.len(), fnv(&whole.0), whole.1), FAT_TREE_WHOLE);
        assert_eq!(whole.2.lines().count(), 50, "every arrival is traced");
        for trace_first in [true, false] {
            assert_eq!(run(true, trace_first), whole, "trace_first={trace_first}");
        }
    }
    /// `(arrivals, fnv(arrival log), events)` of the whole-network run.
    const FAT_TREE_WHOLE: (usize, u64, u64) = (50, 0xae37_e8e2_29d0_7416, 52);
}
