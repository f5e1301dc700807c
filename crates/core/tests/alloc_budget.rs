//! Allocation budget of the steady-state packet path.
//!
//! 1Pipe rests on control packets being nearly free: a beacon crosses
//! every idle link every few microseconds, and every data packet costs an
//! ACK and, sooner or later, a Commit. None of them may touch the heap —
//! not to be built, cloned, forwarded or dropped, not to be received by an
//! idle host, not on the tick that emits them, not to cross a simulated
//! link. A counting global allocator pins that at exactly zero, and pins
//! the cost of one small reliable message end to end at a written-down
//! number.

use bytes::Bytes;
use onepipe_clock::MonotonicClock;
use onepipe_core::endpoint::{Endpoint, HOP_LOCAL};
use onepipe_core::events::{CtrlRequest, UserEvent};
use onepipe_core::frag::REL_CHANNEL;
use onepipe_core::runtime::{DeliveryRecord, HostRuntime, Wire};
use onepipe_core::EndpointConfig;
use onepipe_netsim::engine::{Ctx, NodeLogic, Sim, SimPacket};
use onepipe_netsim::link::LinkParams;
use onepipe_types::ids::{HostId, NodeId, ProcessId};
use onepipe_types::message::Message;
use onepipe_types::time::{Timestamp, MICROS};
use onepipe_types::wire::{Datagram, Flags, Opcode, PacketHeader};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

/// Counts this thread's allocations (the harness runs tests side by
/// side). Frees are not counted: everything freed was allocated.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers to `System` unchanged; the counter is a const-initialized
// thread-local `Cell` with no destructor, so touching it neither allocates
// nor runs during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: same contract as ours.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: same contract as ours.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn ts(ns: u64) -> Timestamp {
    Timestamp::from_nanos(ns)
}

fn control(opcode: Opcode, src: ProcessId, dst: ProcessId, flags: Flags) -> Datagram {
    Datagram {
        src,
        dst,
        header: PacketHeader {
            msg_ts: ts(1_000),
            barrier: ts(2_000),
            commit_barrier: ts(1_500),
            psn: 7,
            opcode,
            flags,
        },
        payload: Bytes::new(),
    }
}

#[test]
fn control_datagrams_never_touch_the_heap() {
    let n = allocations(|| {
        for _ in 0..100 {
            for d in [
                control(Opcode::Beacon, HOP_LOCAL, HOP_LOCAL, Flags::empty()),
                control(Opcode::Ack, ProcessId(1), ProcessId(0), REL_CHANNEL),
                control(Opcode::Nak, ProcessId(1), ProcessId(0), Flags::empty()),
                control(Opcode::Commit, ProcessId(0), HOP_LOCAL, Flags::empty()),
            ] {
                // What a switch does with it: wrap, copy for a second
                // port, rewrite the barriers, let both go.
                let mut pkt = SimPacket::new(black_box(d));
                let copy = black_box(pkt.clone());
                pkt.dgram.header.barrier = ts(3_000);
                drop(black_box(pkt));
                drop(copy);
            }
        }
    });
    assert_eq!(n, 0);
}

/// A node that lets what arrives go.
struct Sink;

impl NodeLogic for Sink {
    fn on_packet(&mut self, _: &mut Ctx<'_>, _: NodeId, pkt: SimPacket) {
        drop(black_box(pkt));
    }
}

/// One hop through the engine — `Ctx::send`, the link, the calendar
/// queue, `Sim::run`, the handler — for a beacon (queued as its two
/// barriers) and for a 64 B data packet (queued as a slot of the engine's
/// packet pool, reused last-freed-first). A hop starts every 64 ns, so
/// the warm-up takes the clock twice round the wheel and leaves every
/// bucket, the pool and its free list at their working size.
#[test]
fn a_hop_through_the_engine_does_not_allocate() {
    let mut sim = Sim::new(1);
    let (a, b) = (sim.add_node(), sim.add_node());
    sim.add_link(a, b, LinkParams::default());
    sim.set_logic(a, Box::new(Sink));
    sim.set_logic(b, Box::new(Sink));
    let data = SimPacket::new(Datagram {
        payload: Bytes::from(vec![0xAB; 64]),
        ..control(Opcode::Data, ProcessId(0), ProcessId(1), Flags::END_OF_MESSAGE)
    });
    let hops = |sim: &mut Sim, rounds: u64| {
        allocations(|| {
            for _ in 0..rounds {
                sim.run_until(sim.now() + 64);
                sim.with_node(a, |_, ctx| {
                    ctx.send_beacon(b, ts(ctx.now()), ts(ctx.now() - 1));
                    ctx.send(b, SimPacket::beacon(ts(ctx.now()), ts(ctx.now() - 1)));
                    ctx.send(b, data.clone());
                });
            }
        })
    };
    hops(&mut sim, 1_200);
    let sent = sim.stats.packets_sent;
    // As long again: a pool that grew instead of reusing slots would
    // have to reallocate.
    assert_eq!(hops(&mut sim, 1_200), 0);
    assert_eq!(sim.stats.packets_sent, sent + 3_600);
    sim.run_to_completion();
    assert_eq!(sim.stats.events, 2 + sim.stats.packets_sent, "two starts; every packet arrived");
}

/// A wire into the void: the runtime under test is all that can allocate.
struct NullWire {
    now: u64,
    emitted: u64,
}

impl Wire for NullWire {
    fn now(&self) -> u64 {
        self.now
    }
    fn emit(&mut self, d: Datagram) {
        self.emitted += 1;
        drop(black_box(d));
    }
    fn deliver(&mut self, rec: DeliveryRecord) {
        drop(black_box(rec));
    }
    fn user_event(&mut self, _at: u64, _proc: ProcessId, ev: UserEvent) {
        drop(black_box(ev));
    }
    fn ctrl_request(&mut self, _at: u64, _proc: ProcessId, req: CtrlRequest) {
        drop(black_box(req));
    }
}

fn idle_host() -> HostRuntime {
    let endpoints = (0..2).map(|p| Endpoint::new(ProcessId(p), EndpointConfig::default()));
    HostRuntime::new(HostId(0), MonotonicClock::perfect(), endpoints.collect(), 3 * MICROS)
}

#[test]
fn an_idle_host_takes_a_beacon_without_allocating() {
    let mut rt = idle_host();
    let mut wire = NullWire { now: 10_000, emitted: 0 };
    let n = allocations(|| {
        for round in 0..100u64 {
            wire.now += 3_000;
            let mut beacon = control(Opcode::Beacon, HOP_LOCAL, HOP_LOCAL, Flags::empty());
            beacon.header.barrier = ts(wire.now - 2_000 + round);
            beacon.header.commit_barrier = ts(wire.now - 2_500 + round);
            rt.on_datagram(&mut wire, beacon);
        }
    });
    assert_eq!(n, 0);
    let (be, commit) = rt.endpoints[1].barriers();
    assert!(be > ts(300_000) && commit > ts(300_000), "the beacons were applied");
}

#[test]
fn an_idle_tick_beacons_without_allocating() {
    let mut rt = idle_host();
    let mut wire = NullWire { now: 10_000, emitted: 0 };
    let n = allocations(|| {
        for _ in 0..100 {
            wire.now = rt.next_tick_at(wire.now);
            rt.on_tick(&mut wire);
        }
    });
    assert_eq!(n, 0);
    assert_eq!(wire.emitted, 100, "one beacon per tick");
}

/// Allocations for one single-fragment reliable message, submit to
/// delivery, between two warmed-up endpoints with nothing else in flight,
/// all four of them in the sender's submit: the per-destination credit
/// list, the fragment's buffer and its shared handle, and the
/// scattering's destination list. Prepare, ACK, Commit, barrier and
/// delivery make none — the ordered maps keep their emptied root node,
/// and the delivered payload is the fragment's buffer. (The commit before
/// this test: 13.)
///
/// The caller's `vec![message]` is its own. A change that raises this
/// number put an allocation on the per-message path; say why here.
const RELIABLE_MESSAGE_BUDGET: u64 = 4;

#[test]
fn one_small_reliable_message_stays_within_its_budget() {
    let cfg = EndpointConfig::default().beacon_only_barriers();
    let (mut a, mut b) = (Endpoint::new(ProcessId(0), cfg), Endpoint::new(ProcessId(1), cfg));
    let payload = Bytes::from(vec![0xAB; 64]);
    let mut now = 1_000u64;
    let mut round = |a: &mut Endpoint, b: &mut Endpoint| -> u64 {
        now += 1_000;
        let msgs = vec![Message { dst: ProcessId(1), payload: payload.clone() }];
        allocations(|| {
            a.send_reliable(ts(now), msgs).expect("send buffer has room");
            let prepare = a.poll_transmit().expect("prepare");
            assert_eq!(prepare.header.opcode, Opcode::DataReliable);
            b.handle_datagram(ts(now + 1), prepare);
            let ack = b.poll_transmit().expect("ack");
            assert_eq!(ack.header.opcode, Opcode::Ack);
            a.handle_datagram(ts(now + 2), ack);
            let commit = a.poll_transmit().expect("commit after the full ack");
            assert_eq!(commit.header.opcode, Opcode::Commit);
            b.on_barrier(Timestamp::ZERO, commit.header.commit_barrier);
            let got = b.recv_reliable().expect("delivered once committed");
            assert_eq!(got.payload.len(), 64);
            while a.poll_event().is_some() {}
        })
    };
    // Queues and channel tables reach their working size.
    for _ in 0..64 {
        round(&mut a, &mut b);
    }
    for _ in 0..16 {
        let n = round(&mut a, &mut b);
        assert!(
            n <= RELIABLE_MESSAGE_BUDGET,
            "{n} allocations for one reliable message, budget {RELIABLE_MESSAGE_BUDGET}"
        );
    }
}
