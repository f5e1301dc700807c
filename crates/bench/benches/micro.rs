//! Criterion micro-benchmarks of 1Pipe's hot paths: the calendar-queue
//! event scheduler, a beacon's and a forwarded packet's hop through the
//! simulation engine, live routing and the switch's cached lookup,
//! timestamp ordering, wire codec and batch frames, the empty payload every control packet carries, barrier
//! aggregation (eq. 4.1), the receive-side reorder buffer, a channel's
//! unacknowledged-packet ring, the endpoint's idle tick and reliable
//! round trip, and the zipfian workload generator — plus the
//! reorder-buffer data-structure ablation (key-ordered ring vs BTreeMap)
//! from DESIGN.md §5.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use onepipe_core::frag::START_OF_MESSAGE;
use onepipe_core::reorder::ReorderBuffer;
use onepipe_switchlogic::barrier::BarrierAggregator;
use onepipe_types::ids::{NodeId, ProcessId};
use onepipe_types::message::OrderKey;
use onepipe_types::time::Timestamp;
use onepipe_types::wire::{Datagram, Flags, PacketHeader};

fn bench_sched(c: &mut Criterion) {
    use onepipe_netsim::sched::CalendarQueue;
    // Steady-state churn at a fixed population, the engine's actual
    // usage pattern: each iteration pops the head and reschedules it a
    // bounded distance ahead (one push + one pop, wheel tier).
    let mut group = c.benchmark_group("sched/push_pop_churn");
    for population in [64usize, 4096] {
        group.bench_with_input(
            BenchmarkId::from_parameter(population),
            &population,
            |bench, &population| {
                let mut q: CalendarQueue<u32> = CalendarQueue::new();
                for i in 0..population as u64 {
                    q.push(i * 97 % 200_000, i as u32);
                }
                bench.iter(|| {
                    let (t, _, item) = q.pop().unwrap();
                    q.push(t + 1 + (item as u64 * 37) % 50_000, item);
                    black_box(t)
                })
            },
        );
    }
    group.finish();
    // The same churn with the engine's real shape (DESIGN.md §10): a
    // 32-byte payload the size of the engine's event (80 bytes until
    // packets moved to a pool), and successors at the distances
    // `sim_be_scatter` schedules them — 27 % the same ns (the
    // same-instant lane), 7 % within 64 ns (the sorted cursor bucket),
    // 34 % at 64–511 ns, 29 % at 512–1023 ns, the rest at 2–4 µs. The
    // uniform 1–50 µs churn above has neither the size nor the locality,
    // so only this one sees a working-set regression.
    let mut group = c.benchmark_group("sched/engine_shape");
    for population in [512usize, 4096] {
        group.bench_with_input(
            BenchmarkId::from_parameter(population),
            &population,
            |bench, &population| {
                let mut q: CalendarQueue<[u64; 4]> = CalendarQueue::new();
                for i in 0..population as u64 {
                    q.push(i * 97 % 4_000, [i; 4]);
                }
                let mut x = 0x9E37_79B9_7F4A_7C15u64;
                bench.iter(|| {
                    let (t, _, item) = q.pop().unwrap();
                    // xorshift64: one draw picks the band, its high bits
                    // the offset inside it.
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let within = x >> 32;
                    let delay = match x % 100 {
                        0..=26 => 0,
                        27..=33 => 1 + within % 63,
                        34..=67 => 64 + within % 448,
                        68..=96 => 512 + within % 512,
                        _ => 2_048 + within % 2_048,
                    };
                    q.push(t + delay, item);
                    black_box(t)
                })
            },
        );
    }
    group.finish();
    // A zero-delay timer: pushed at the time of the last pop while the
    // cursor bucket holds 32 later events of the same 64 ns slot, popped
    // next. On the same-instant lane it is a `VecDeque` append and
    // removal; in the sorted cursor bucket it was a binary search over
    // those 32 and an insert.
    c.bench_function("sched/same_instant", |bench| {
        let mut q: CalendarQueue<[u64; 4]> = CalendarQueue::new();
        for i in 0..33 {
            q.push(1_024 + i, [i; 4]);
        }
        let (now, _, item) = q.pop().unwrap();
        bench.iter(|| {
            q.push(now, black_box(item));
            black_box(q.pop())
        })
    });
    // The cursor slot on its own: `k` events pushed into one 64 ns slot, a
    // peek that orders the slot, and `k` pops. `k` is the mean size of the
    // bucket the cursor orders on `sim_rel_loss` (9), `sim_be_scatter`
    // (29) and `sim_log_tenants` (37); the events come mostly in time
    // order, every third one two places early, as pushes do (DESIGN.md
    // §10 has the measured disorder).
    let mut group = c.benchmark_group("sched/cursor_slot");
    for k in [9u64, 29, 37] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |bench, &k| {
            let mut offsets: Vec<u64> = (0..k).map(|i| i * 64 / k).collect();
            for i in (2..k as usize).step_by(3) {
                offsets.swap(i, i - 2);
            }
            let mut q: CalendarQueue<[u64; 4]> = CalendarQueue::new();
            let mut slot = 0u64;
            bench.iter(|| {
                slot += 1;
                for (i, &offset) in offsets.iter().enumerate() {
                    q.push(slot * 64 + offset, [i as u64; 4]);
                }
                black_box(q.peek_time());
                for _ in 0..k {
                    black_box(q.pop());
                }
            })
        });
    }
    group.finish();
    // Far-future pushes exercise the sorted overflow tier and the bulk
    // migration back into the wheel.
    c.bench_function("sched/overflow_cycle_64", |bench| {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        let mut t = 0u64;
        bench.iter(|| {
            for i in 0..64u32 {
                q.push(t + 1_000_000 + i as u64, i);
            }
            t += 1_000_000 + 64;
            while let Some(pt) = q.peek_time() {
                if pt > t {
                    break;
                }
                black_box(q.pop());
            }
            black_box(t)
        })
    });
}

/// The barrier background's unit of work: a beacon crossing one link —
/// `Ctx::send_beacon`, the link model, the calendar queue, `Sim::run`,
/// `NodeLogic::on_beacon`. Two nodes bounce one beacon between them; an
/// iteration is 64 hops (507 ns each: 7 ns on the wire, 500 in flight).
fn bench_engine(c: &mut Criterion) {
    use onepipe_netsim::engine::{Ctx, NodeLogic, Sim, SimPacket};
    use onepipe_netsim::link::LinkParams;
    struct Bounce;
    impl NodeLogic for Bounce {
        fn on_packet(&mut self, _: &mut Ctx<'_>, _: NodeId, _: SimPacket) {}
        fn on_beacon(&mut self, ctx: &mut Ctx<'_>, from: NodeId, be: Timestamp, commit: Timestamp) {
            ctx.send_beacon(from, commit, be);
        }
    }
    let mut sim = Sim::new(1);
    let (a, b) = (sim.add_node(), sim.add_node());
    sim.add_duplex_link(a, b, LinkParams::default());
    sim.set_logic(a, Box::new(Bounce));
    sim.set_logic(b, Box::new(Bounce));
    sim.run_until(0);
    sim.with_node(a, |_, ctx| ctx.send_beacon(b, Timestamp::from_nanos(1), Timestamp::ZERO));
    c.bench_function("engine/beacon_hop_x64", |bench| {
        bench.iter(|| {
            let events = sim.stats.events;
            sim.run_until(sim.now() + 64 * 507);
            assert_eq!(sim.stats.events, events + 64);
        })
    });
}

/// A data packet's hop, the switch's unit of work: `Sim::run` pops the
/// arrival, hands the node the packet in its pool slot, and the node
/// forwards it from there (`Ctx::forward`: the link model, the push). Two
/// nodes bounce one 64 B packet between them; an iteration is one hop.
fn bench_engine_hop(c: &mut Criterion) {
    use onepipe_netsim::engine::{Arrived, Ctx, NodeLogic, Sim, SimPacket};
    use onepipe_netsim::link::LinkParams;
    struct Relay;
    impl NodeLogic for Relay {
        fn on_packet(&mut self, _: &mut Ctx<'_>, _: NodeId, _: SimPacket) {}
        fn on_arrival(&mut self, ctx: &mut Ctx<'_>, from: NodeId, mut pkt: Arrived) {
            ctx.packet_mut(&mut pkt).dgram.header.psn += 1;
            ctx.forward(from, pkt);
        }
    }
    let mut sim = Sim::new(1);
    let (a, b) = (sim.add_node(), sim.add_node());
    sim.add_duplex_link(a, b, LinkParams::default());
    sim.set_logic(a, Box::new(Relay));
    sim.set_logic(b, Box::new(Relay));
    sim.run_until(0);
    let pkt = SimPacket::new(Datagram {
        src: ProcessId(0),
        dst: ProcessId(1),
        header: PacketHeader::data(Timestamp::from_nanos(42), 0, Flags::END_OF_MESSAGE),
        payload: bytes::Bytes::from(vec![0u8; 64]),
    });
    sim.with_node(a, |_, ctx| ctx.send(b, pkt));
    c.bench_function("engine/hop", |bench| {
        bench.iter(|| {
            let events = sim.stats.events;
            // A deadline of 0: exactly one event.
            sim.run(u64::MAX, 0);
            assert_eq!(sim.stats.events, events + 1);
        })
    });
}

fn bench_route_live(c: &mut Criterion) {
    use onepipe_netsim::engine::Sim;
    use onepipe_netsim::topology::{FatTreeParams, Topology};
    use onepipe_types::ids::HostId;
    let mut sim = Sim::new(1);
    let topo = Topology::build(&mut sim, FatTreeParams::testbed());
    let n = topo.num_hosts() as u32;
    let at = topo.tor_up_of(HostId(0));
    // All links up: the first hashed candidate is viable (fast path).
    c.bench_function("topology/route_live/all_up", |bench| {
        let mut i = 0u32;
        bench.iter(|| {
            i = i.wrapping_add(1);
            black_box(topo.route_live(at, HostId(i % n), HostId((i * 7 + 1) % n), |_, _| true))
        })
    });
    // Every link reported down: the failover scan runs to exhaustion.
    c.bench_function("topology/route_live/all_down", |bench| {
        let mut i = 0u32;
        bench.iter(|| {
            i = i.wrapping_add(1);
            black_box(topo.route_live(at, HostId(i % n), HostId((i * 7 + 1) % n), |_, _| false))
        })
    });
}

/// A simulator on `params` with one process per host and `SwitchLogic`
/// on every switch, started.
fn switch_sim(
    params: onepipe_netsim::topology::FatTreeParams,
) -> (onepipe_netsim::engine::Sim, std::sync::Arc<onepipe_netsim::topology::Topology>) {
    use onepipe_core::simswitch::{SwitchLogic, SwitchShared};
    use onepipe_netsim::engine::Sim;
    use onepipe_netsim::topology::Topology;
    use onepipe_switchlogic::SwitchConfig;
    use onepipe_types::process_map::ProcessMap;
    use std::sync::Arc;
    let mut sim = Sim::new(1);
    let topo = Arc::new(Topology::build(&mut sim, params));
    let n = topo.num_hosts();
    let shared = SwitchShared {
        topo: topo.clone(),
        procs: Arc::new(ProcessMap::place_round_robin(n, n)),
        events: Default::default(),
    };
    for &s in &topo.switch_nodes {
        sim.set_logic(s, Box::new(SwitchLogic::new(shared.clone(), SwitchConfig::default())));
    }
    (sim, topo)
}

/// Data packets `src(i)` → `(7i + 9) mod n` for `i < n`.
fn next_hop_packets(n: u32, src: impl Fn(u32) -> u32) -> Vec<onepipe_netsim::engine::SimPacket> {
    (0..n)
        .map(|i| {
            onepipe_netsim::engine::SimPacket::new(Datagram {
                src: ProcessId(src(i)),
                dst: ProcessId((i * 7 + 9) % n),
                header: PacketHeader::data(Timestamp::from_nanos(42), i, Flags::END_OF_MESSAGE),
                payload: bytes::Bytes::new(),
            })
        })
        .collect()
}

/// The next hop `node`'s switch picks for `pkt`.
fn next_hop_at(
    sim: &mut onepipe_netsim::engine::Sim,
    node: NodeId,
    pkt: &onepipe_netsim::engine::SimPacket,
) -> Option<NodeId> {
    use onepipe_core::simswitch::SwitchLogic;
    sim.with_node(node, |logic, ctx| {
        let sw = logic.as_any_mut().and_then(|l| l.downcast_mut::<SwitchLogic>());
        sw.expect("a switch runs SwitchLogic").next_hop(ctx, pkt)
    })
    .flatten()
}

/// The switch's per-packet routing lookup on the testbed, from a ToR
/// uplink: with every link up (the flow's hashed spine is viable), and
/// with one of the pod's two spines crashed (half the inter-rack flows
/// fail over to the survivor).
fn bench_switch_next_hop(c: &mut Criterion) {
    use onepipe_core::simswitch::SwitchLogic;
    use onepipe_netsim::topology::{FatTreeParams, NodeRole};
    use onepipe_types::ids::HostId;
    for (name, spine_down) in
        [("switch/next_hop/all_up", false), ("switch/next_hop/one_spine_down", true)]
    {
        let (mut sim, topo) = switch_sim(FatTreeParams::testbed());
        let n = topo.num_hosts() as u32;
        if spine_down {
            let is_spine = |s: &NodeId| topo.role(*s) == NodeRole::SpineUp { pod: 0, idx: 0 };
            let spine = topo.switch_nodes.iter().copied().find(is_spine);
            sim.schedule_crash(0, spine.expect("the testbed has spines"));
        }
        sim.run_until(1);
        let pkts = next_hop_packets(n, |i| i % 8);
        sim.with_node(topo.tor_up_of(HostId(0)), |logic, ctx| {
            let sw = logic.as_any_mut().and_then(|l| l.downcast_mut::<SwitchLogic>());
            let sw = sw.expect("a switch runs SwitchLogic");
            let mut i = 0usize;
            c.bench_function(name, |bench| {
                bench.iter(|| {
                    i = if i + 1 == pkts.len() { 0 } else { i + 1 };
                    black_box(sw.next_hop(ctx, &pkts[i]))
                })
            });
        });
    }
}

/// The same lookup walked hop by hop across the switches of a 512-host
/// tree (4 pods × 4 ToRs × 32 hosts, 4 spines per pod, 8 cores), one
/// process per host: an iteration is one hop of one of 512 packets, each
/// from its own host's ToR, so the lookups spread over every switch's
/// tables as they do in a run rather than staying in one switch's cache.
fn bench_switch_next_hop_tree(c: &mut Criterion) {
    use onepipe_netsim::topology::FatTreeParams;
    use onepipe_types::ids::HostId;
    let (mut sim, topo) = switch_sim(FatTreeParams {
        pods: 4,
        tors_per_pod: 4,
        spines_per_pod: 4,
        cores: 8,
        hosts_per_tor: 32,
        ..FatTreeParams::testbed()
    });
    sim.run_until(1);
    let n = topo.num_hosts() as u32;
    assert_eq!(n, 512);
    let pkts = next_hop_packets(n, |i| i);
    // Every walk ends at its destination's host (process i runs on host i).
    for (i, pkt) in pkts.iter().enumerate() {
        let mut at = topo.tor_up_of(HostId(i as u32));
        for _ in 0..8 {
            at = next_hop_at(&mut sim, at, pkt).expect("a route");
            if topo.host_of(at).is_some() {
                break;
            }
        }
        assert_eq!(topo.host_of(at), Some(HostId(pkt.dgram.dst.0)), "packet {i} got lost");
    }
    let (mut i, mut at) = (0usize, topo.tor_up_of(HostId(0)));
    c.bench_function("switch/next_hop/tree_512", |bench| {
        bench.iter(|| {
            let next = next_hop_at(&mut sim, at, &pkts[i]);
            match next {
                Some(hop) if topo.host_of(hop).is_none() => at = hop,
                _ => {
                    i = if i + 1 == pkts.len() { 0 } else { i + 1 };
                    at = topo.tor_up_of(HostId(i as u32));
                }
            }
            black_box(next)
        })
    });
}

fn bench_timestamp(c: &mut Criterion) {
    let a = Timestamp::from_nanos(123_456_789);
    let b = Timestamp::from_nanos(123_456_790);
    c.bench_function("timestamp/ring_compare", |bench| {
        bench.iter(|| black_box(black_box(a) < black_box(b)))
    });
    c.bench_function("timestamp/diff", |bench| {
        bench.iter(|| black_box(black_box(a).diff(black_box(b))))
    });
}

fn bench_wire(c: &mut Criterion) {
    let d = Datagram {
        src: ProcessId(1),
        dst: ProcessId(2),
        header: PacketHeader::data(Timestamp::from_nanos(42), 7, Flags::END_OF_MESSAGE),
        payload: bytes::Bytes::from(vec![0u8; 64]),
    };
    c.bench_function("wire/encode_64B", |bench| bench.iter(|| black_box(d.encode())));
    let encoded = d.encode();
    c.bench_function("wire/decode_64B", |bench| {
        bench.iter(|| black_box(Datagram::decode(encoded.clone()).unwrap()))
    });
    // A UDP frame of 16 datagrams, a data packet's and the control
    // packets that ride along (an iteration is the whole frame).
    use onepipe_types::wire::{decode_frame, encode_batch_into, Opcode};
    let frame: Vec<Datagram> = (0..16)
        .map(|i| match i % 4 {
            0 => d.clone(),
            1 => Datagram::beacon(Timestamp::from_nanos(40 + i), Timestamp::from_nanos(30 + i)),
            _ => Datagram {
                header: PacketHeader { opcode: Opcode::Ack, psn: i as u32, ..d.header },
                payload: bytes::Bytes::new(),
                ..d.clone()
            },
        })
        .collect();
    let mut buf = bytes::BytesMut::with_capacity(4096);
    c.bench_function("wire/batch_encode/16", |bench| {
        bench.iter(|| {
            buf.clear();
            encode_batch_into(black_box(&frame), &mut buf);
            black_box(buf.len())
        })
    });
    buf.clear();
    encode_batch_into(&frame, &mut buf);
    let encoded = buf.freeze();
    c.bench_function("wire/decode_frame/16", |bench| {
        bench.iter(|| {
            for d in decode_frame(black_box(encoded.clone())) {
                black_box(d.expect("decodes"));
            }
        })
    });
}

/// What every beacon, ACK, NAK and Commit does with its payload.
fn bench_empty_bytes(c: &mut Criterion) {
    c.bench_function("bytes/empty_new_clone_drop", |bench| {
        bench.iter(|| {
            let payload = black_box(bytes::Bytes::new());
            let copy = black_box(payload.clone());
            drop(payload);
            copy.len()
        })
    });
}

fn bench_barrier_aggregation(c: &mut Criterion) {
    let mut group = c.benchmark_group("barrier/min_aggregation");
    for ports in [8usize, 32, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(ports), &ports, |bench, &ports| {
            let inputs: Vec<NodeId> = (0..ports as u32).map(NodeId).collect();
            let mut agg = BarrierAggregator::new(inputs.clone());
            let mut t = 0u64;
            bench.iter(|| {
                t += 1;
                agg.observe_be(inputs[(t % ports as u64) as usize], Timestamp::from_nanos(t), t);
                black_box(agg.out_be(0))
            })
        });
    }
    group.finish();
}

/// The keys of `batch` messages from 16 senders in arrival order, in two
/// shapes: `scattered` — `(i·37) mod 500` ns, most arrivals far from their
/// place — and `near_sorted` — ascending, every fourth one two places
/// early (mean displacement 1, max 2: the benchmark workloads measured
/// 0.06–1.9 mean, DESIGN.md §10).
fn reorder_arrivals(batch: usize) -> [(&'static str, Vec<OrderKey>); 2] {
    let key = |i: u64, ts: u64| OrderKey {
        ts: Timestamp::from_nanos(1_000 + ts),
        sender: ProcessId((i % 16) as u32),
        seq: i,
    };
    let scattered = (0..batch as u64).map(|i| key(i, (i * 37) % 500)).collect();
    let mut near_sorted: Vec<OrderKey> = (0..batch as u64).map(|i| key(i, i)).collect();
    for i in (3..batch).step_by(4) {
        near_sorted.swap(i, i - 2);
    }
    [("scattered", scattered), ("near_sorted", near_sorted)]
}

/// The production buffer: insert `batch` single-fragment 64 B messages,
/// then release them all.
fn bench_reorder_buffer(c: &mut Criterion) {
    let flags = START_OF_MESSAGE | Flags::END_OF_MESSAGE;
    let mut group = c.benchmark_group("reorder/insert_and_advance");
    for batch in [64usize, 1024] {
        for (shape, keys) in reorder_arrivals(batch) {
            group.bench_with_input(BenchmarkId::new(shape, batch), &keys, |bench, keys| {
                bench.iter(|| {
                    let mut rb = ReorderBuffer::new(false, false);
                    for (psn, &key) in keys.iter().enumerate() {
                        let payload = bytes::Bytes::from_static(&[0u8; 64]);
                        rb.insert_fragment(key, 0, psn as u32, flags, payload);
                    }
                    black_box(rb.advance(Timestamp::from_nanos(10_000)))
                })
            });
        }
    }
    group.finish();
}

/// Ablation (c): the same arrivals into an ordered map, the structure the
/// buffer used before its key-ordered ring.
fn bench_reorder_ablation_btreemap(c: &mut Criterion) {
    use std::collections::BTreeMap;
    let mut group = c.benchmark_group("reorder/ablation_btreemap");
    for batch in [64usize, 1024] {
        for (shape, keys) in reorder_arrivals(batch) {
            group.bench_with_input(BenchmarkId::new(shape, batch), &keys, |bench, keys| {
                bench.iter(|| {
                    let mut buf: BTreeMap<OrderKey, bytes::Bytes> = BTreeMap::new();
                    for &key in keys {
                        buf.entry(key).or_insert_with(|| bytes::Bytes::from_static(&[0u8; 64]));
                    }
                    // advance = release every entry below the barrier
                    let barrier = Timestamp::from_nanos(10_000);
                    let mut released = Vec::new();
                    while let Some(entry) = buf.first_entry() {
                        if entry.key().ts >= barrier {
                            break;
                        }
                        released.push(entry.remove());
                    }
                    black_box(released)
                })
            });
        }
    }
    group.finish();
}

/// A channel's unacknowledged packets: track 64 in PSN order, then ACK
/// them in order except that every eighth pair arrives swapped.
fn bench_conn(c: &mut Criterion) {
    use onepipe_core::conn::{OutPacket, TxChannel};
    let pkt = OutPacket {
        dgram: Datagram {
            src: ProcessId(0),
            dst: ProcessId(1),
            header: PacketHeader::data(Timestamp::from_nanos(1), 0, Flags::END_OF_MESSAGE),
            payload: bytes::Bytes::from(vec![0u8; 64]),
        },
        sent_at: Timestamp::from_nanos(1),
        retries: 0,
        scat: (Timestamp::from_nanos(1), 0),
        forwarding: false,
    };
    let mut ch = TxChannel::new(ProcessId(1), 64, 1.0 / 16.0, 100_000);
    c.bench_function("conn/track_ack/64", |bench| {
        bench.iter(|| {
            let psns: [u32; 64] = std::array::from_fn(|_| ch.alloc_psn());
            for &psn in &psns {
                ch.track(psn, pkt.clone());
            }
            for i in 0..64 {
                // Offsets 14 and 15 of every 16 swap places.
                let i = if i % 16 >= 14 { i ^ 1 } else { i };
                black_box(ch.ack(psns[i], false));
            }
        })
    });
}

/// The host tick (one per beacon interval per endpoint) on an endpoint
/// with channels open toward 31 peers and nothing outstanding, and one
/// 64 B reliable message from submit to delivery between two hand-pumped
/// endpoints (Prepare, ACK, Commit, barrier).
fn bench_endpoint(c: &mut Criterion) {
    use onepipe_core::endpoint::HOP_LOCAL;
    use onepipe_core::{Endpoint, EndpointConfig};
    use onepipe_types::message::Message;
    let ts = Timestamp::from_nanos;
    let cfg = EndpointConfig::default().beacon_only_barriers();
    // Move everything `from` queued to `to`; the Commit stays behind.
    fn pump(from: &mut Endpoint, to: &mut Endpoint, now: Timestamp) -> Option<Datagram> {
        let mut commit = None;
        while let Some(d) = from.poll_transmit() {
            if d.dst == HOP_LOCAL {
                commit = Some(d);
            } else {
                to.handle_datagram(now, d);
            }
        }
        commit
    }

    let mut a = Endpoint::new(ProcessId(0), cfg);
    let mut peers: Vec<Endpoint> = (1..32).map(|p| Endpoint::new(ProcessId(p), cfg)).collect();
    for reliable in [false, true] {
        let msgs = (1..32).map(|p| Message::new(ProcessId(p), vec![0u8; 64])).collect();
        let sent = if reliable {
            a.send_reliable(ts(1_000), msgs)
        } else {
            a.send_unreliable(ts(1_000), msgs)
        };
        sent.expect("send buffer has room");
        while let Some(d) = a.poll_transmit() {
            if d.dst != HOP_LOCAL {
                let peer = &mut peers[d.dst.0 as usize - 1];
                peer.handle_datagram(ts(1_001), d);
                pump(peer, &mut a, ts(1_002));
            }
        }
    }
    while a.poll_transmit().is_some() || a.poll_event().is_some() {}
    assert_eq!(a.buffered_bytes(), 0, "everything was acknowledged");
    let mut now = 3_000u64;
    c.bench_function("endpoint/tick_idle_31_peers", |bench| {
        bench.iter(|| {
            now += 3_000;
            a.poll(ts(now));
            black_box(a.poll_transmit())
        })
    });

    let (mut a, mut b) = (Endpoint::new(ProcessId(0), cfg), Endpoint::new(ProcessId(1), cfg));
    let payload = bytes::Bytes::from(vec![0u8; 64]);
    let mut now = 1_000u64;
    c.bench_function("endpoint/rel_roundtrip_64B", |bench| {
        bench.iter(|| {
            now += 1_000;
            let msg = Message { dst: ProcessId(1), payload: payload.clone() };
            a.send_reliable(ts(now), vec![msg]).expect("send buffer has room");
            pump(&mut a, &mut b, ts(now + 1)); // prepare
            pump(&mut b, &mut a, ts(now + 2)); // ack
            a.poll(ts(now + 3));
            let commit = pump(&mut a, &mut b, ts(now + 3)).expect("commit after the full ack");
            b.on_barrier(Timestamp::ZERO, commit.header.commit_barrier);
            while a.poll_event().is_some() {}
            black_box(b.recv_reliable().expect("delivered once committed"))
        })
    });
}

fn bench_zipf(c: &mut Criterion) {
    use onepipe_apps::workload::KeyDist;
    use rand::SeedableRng;
    let dist = KeyDist::ycsb(1_000_000);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    c.bench_function("workload/zipf_sample", |bench| {
        bench.iter(|| black_box(dist.sample(&mut rng)))
    });
}

criterion_group!(
    benches,
    bench_sched,
    bench_engine,
    bench_engine_hop,
    bench_route_live,
    bench_switch_next_hop,
    bench_switch_next_hop_tree,
    bench_timestamp,
    bench_wire,
    bench_empty_bytes,
    bench_barrier_aggregation,
    bench_reorder_buffer,
    bench_reorder_ablation_btreemap,
    bench_conn,
    bench_endpoint,
    bench_zipf
);
criterion_main!(benches);
