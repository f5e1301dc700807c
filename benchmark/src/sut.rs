//! The system under test, behind one adapter: every call the benchmark
//! makes into the workspace crates is in this file.
//!
//! It uses only the surface ROADMAP items 2–3 keep — `ClusterConfig::testbed`
//! without setting `threads`, `Cluster::{new, set_app, send, run_until,
//! take_deliveries, total_stats, with_host}`, `cluster.sim.{stats,
//! set_global_loss_rate}`, `UdpClusterBuilder::new(n).build()`,
//! `LogService::{new, submit}` and its public counters — plus, for the
//! per-layer kernels, each layer's own public functions. A later change
//! that deletes the legacy engine or the legacy UDP constructors does not
//! touch anything named here.
//!
//! Each call is wrapped in a span (see `trace.rs`); the rest of the
//! benchmark sees plain data only.

use crate::check::Delivery;
use crate::gen::{self, PAYLOAD_LEN};
use crate::stats::summarize;
use crate::trace::{SpanId, Tracer, NO_OP};

use bytes::{Bytes, BytesMut};
use onepipe_core::endpoint::{Endpoint, HOP_LOCAL};
use onepipe_core::frag::START_OF_MESSAGE;
use onepipe_core::harness::{Cluster, ClusterConfig};
use onepipe_core::reorder::ReorderBuffer;
use onepipe_core::runtime::DeliveryRecord;
use onepipe_log::proto::{tag, Append};
use onepipe_log::{ClientGate, LogConfig, LogService, ShardState};
use onepipe_netsim::engine::Sim;
use onepipe_netsim::sched::CalendarQueue;
use onepipe_netsim::topology::{FatTreeParams, Topology};
use onepipe_switchlogic::barrier::BarrierAggregator;
use onepipe_types::ids::{HostId, NodeId, ProcessId};
use onepipe_types::message::{Delivered, Message, OrderKey};
use onepipe_types::time::Timestamp;
use onepipe_types::wire::{decode_frame, encode_batch_into, Datagram, Flags, PacketHeader};
use onepipe_udp::{UdpCluster, UdpClusterBuilder};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Simulated time the barriers are given to start flowing before traffic.
pub const BARRIER_WARMUP_NS: u64 = 100_000;

fn op_payload(op: u64) -> Bytes {
    Bytes::copy_from_slice(&gen::payload(op))
}

/// The op id a delivered payload carries: either one of our 64 B payloads
/// or a log-tier append wrapping one.
fn op_of(payload: &Bytes) -> Option<u64> {
    if payload.len() == PAYLOAD_LEN {
        return gen::op_of(payload.as_slice());
    }
    let mut p = payload.clone();
    if p.first() != Some(&tag::APPEND) {
        return None;
    }
    let _ = p.split_to(1);
    Append::decode(&mut p).and_then(|a| gen::op_of(a.payload.as_slice()))
}

fn delivery(at: u64, receiver: ProcessId, msg: &Delivered, reliable: bool) -> Delivery {
    Delivery {
        at,
        receiver: receiver.0,
        ts: msg.ts.raw(),
        sender: msg.src.0,
        seq: msg.seq,
        reliable,
        op: op_of(&msg.payload),
    }
}

// ---------------------------------------------------------------------
// Simulated cluster
// ---------------------------------------------------------------------

/// Counters the simulator and the endpoints export, read after a run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SimCounters {
    pub events: u64,
    pub packets_sent: u64,
    pub drops_inflight: u64,
    pub drops_overflow: u64,
    pub ecn_marks: u64,
    pub ctrl_elections: u64,
    pub ctrl_retries: u64,
    pub endpoint_packets_sent: u64,
    pub retransmits: u64,
    pub commits_sent: u64,
    pub send_failures: u64,
    pub late_drops: u64,
    pub commit_anomalies: u64,
    pub delivered_be: u64,
    pub delivered_rel: u64,
    /// Sum over endpoints of each one's receive-buffer high-water mark.
    pub peak_reorder_bytes: u64,
}

/// What `Cluster::take_deliveries` returned, not yet looked at.
pub struct RawDeliveries(Vec<DeliveryRecord>);

impl RawDeliveries {
    pub fn into_plain(self) -> Vec<Delivery> {
        self.0.iter().map(|r| delivery(r.at, r.receiver, &r.msg, r.reliable)).collect()
    }
}

/// `Cluster` on the paper's 32-server testbed, default engine and config.
pub struct SimBed {
    cluster: Cluster,
}

impl SimBed {
    /// `loss_rate` > 0 sets one loss rate on every link; `unordered` swaps
    /// in `EndpointConfig::unordered()` for the barrier-wait baseline.
    pub fn new(
        tr: &mut Tracer,
        parent: SpanId,
        processes: usize,
        seed: u64,
        loss_rate: f64,
        unordered: bool,
    ) -> SimBed {
        let span = tr.begin("Cluster::new", parent, NO_OP);
        let mut cfg = ClusterConfig::testbed(processes);
        cfg.seed = seed;
        if unordered {
            cfg.endpoint = cfg.endpoint.unordered();
        }
        let mut cluster = Cluster::new(cfg);
        if loss_rate > 0.0 {
            cluster.sim.set_global_loss_rate(loss_rate);
        }
        tr.end(span);
        SimBed { cluster }
    }

    pub fn now(&self) -> u64 {
        self.cluster.sim.now()
    }

    pub fn run_until(&mut self, tr: &mut Tracer, parent: SpanId, t: u64) {
        let span = tr.begin("Cluster::run_until", parent, NO_OP);
        self.cluster.run_until(t);
        tr.end(span);
    }

    /// One scattering of op `op` from `from`, one 64 B message to each of
    /// `dsts`. Returns false if the endpoint refused it.
    pub fn send(
        &mut self,
        tr: &mut Tracer,
        parent: SpanId,
        op: u64,
        from: u32,
        dsts: impl Iterator<Item = u32>,
        reliable: bool,
    ) -> bool {
        let payload = op_payload(op);
        let msgs: Vec<Message> =
            dsts.map(|q| Message { dst: ProcessId(q), payload: payload.clone() }).collect();
        let span = tr.begin("Cluster::send", parent, op);
        let ok = self.cluster.send(ProcessId(from), msgs, reliable).is_ok();
        tr.end(span);
        ok
    }

    /// Deliveries since the last call, in delivery order. They are handed
    /// back as the crate made them, so that converting them can wait until
    /// the timed window is over.
    pub fn take_deliveries(&mut self, tr: &mut Tracer, parent: SpanId) -> RawDeliveries {
        let span = tr.begin("Cluster::take_deliveries", parent, NO_OP);
        let records = self.cluster.take_deliveries();
        tr.end(span);
        RawDeliveries(records)
    }

    pub fn counters(&mut self) -> SimCounters {
        let e = self.cluster.total_stats();
        let mut peak = 0u64;
        for h in 0..self.cluster.topo.num_hosts() {
            let host_peak = self.cluster.with_host(HostId(h as u32), |hl, _| {
                hl.endpoints.iter().map(|e| e.max_rx_buffered() as u64).sum::<u64>()
            });
            peak += host_peak.unwrap_or(0);
        }
        let s = &self.cluster.sim.stats;
        SimCounters {
            events: s.events,
            packets_sent: s.packets_sent,
            drops_inflight: s.drops_inflight,
            drops_overflow: s.drops_overflow,
            ecn_marks: s.ecn_marks,
            ctrl_elections: s.ctrl_elections,
            ctrl_retries: s.ctrl_retries,
            endpoint_packets_sent: e.packets_sent,
            retransmits: e.retransmits,
            commits_sent: e.commits_sent,
            send_failures: e.send_failures,
            late_drops: e.late_drops,
            commit_anomalies: e.commit_anomalies,
            delivered_be: e.delivered_be,
            delivered_rel: e.delivered_rel,
            peak_reorder_bytes: peak,
        }
    }

    /// The paper's expected barrier wait for this configuration: half a
    /// beacon interval plus the clock-sync residual (PAPER.md; §4.2).
    pub fn barrier_wait_model_ns(&self) -> f64 {
        let cfg = &self.cluster.config;
        cfg.switch.beacon_interval as f64 / 2.0 + cfg.sync.residual_std_ns
    }
}

// ---------------------------------------------------------------------
// Log tier on the simulated cluster
// ---------------------------------------------------------------------

/// What the log service reports after a run, reduced to plain data.
pub struct LogOutcome {
    pub acked_appends: u64,
    pub sub_records: u64,
    pub credit_stalls: u64,
    pub held_peak: u64,
    pub unacked_end: u64,
    /// First transmission → ack, per acknowledged append, ns, sorted.
    pub append_latency_ns: Vec<u64>,
    /// Owner append → subscriber apply, ns, sorted.
    pub sub_e2e_ns: Vec<u64>,
    /// Streams whose two replicas do not hold byte-identical logs.
    pub replica_mismatches: u64,
    /// Subscriber streams whose applied offsets are not 0, 1, 2, ….
    pub sub_offset_gaps: u64,
    /// Op id of every record in the primary replica's logs, stream by
    /// stream in offset order (`None`: a payload that is not ours).
    pub logged_ops: Vec<Option<u64>>,
}

/// `LogService` attached to a testbed cluster: 8 shards / 8 clients /
/// 4 subscribers, 1024 replicated streams, fan-out 2. Traffic is injected
/// by the harness through `LogService::submit`; the service's own
/// generator stays off.
pub struct LogTier {
    svc: Arc<Mutex<LogService>>,
    cfg: LogConfig,
}

impl LogTier {
    pub const CLIENTS: u32 = 8;
    pub const STREAMS: u64 = 1024;
    /// Processes the cluster must have: shards + clients + subscribers.
    pub const PROCESSES: u32 = 8 + Self::CLIENTS + 4;

    pub fn attach(tr: &mut Tracer, parent: SpanId, sim: &mut SimBed, seed: u64) -> LogTier {
        let cfg = LogConfig {
            n_shards: 8,
            n_clients: Self::CLIENTS,
            n_subs: 4,
            n_streams: Self::STREAMS,
            replicate: true,
            fanout: 2,
            seed,
            ..LogConfig::default()
        };
        assert_eq!(cfg.n_processes(), Self::PROCESSES as usize);
        let span = tr.begin("LogService::new", parent, NO_OP);
        let svc = Arc::new(Mutex::new(LogService::new(cfg.clone())));
        sim.cluster.set_app(svc.clone());
        tr.end(span);
        LogTier { svc, cfg }
    }

    /// Hand one append to a client; it is admitted under the credit
    /// window on that client's next tick.
    pub fn submit(&self, tr: &mut Tracer, parent: SpanId, op: u64, client: u32, stream: u64) {
        let payload = op_payload(op);
        let span = tr.begin("LogService::submit", parent, op);
        self.svc.lock().expect("log service lock").submit(client, stream, payload);
        tr.end(span);
    }

    pub fn outcome(&self) -> LogOutcome {
        let svc = self.svc.lock().expect("log service lock");
        let totals = svc.tenant_totals().totals();
        let mut append_latency_ns: Vec<u64> = svc
            .append_latency_ns
            .iter()
            .flat_map(|(_, s)| s.values().iter().map(|&v| v as u64))
            .collect();
        append_latency_ns.sort_unstable();
        let mut sub_e2e_ns: Vec<u64> = svc.sub_e2e_ns.values().iter().map(|&v| v as u64).collect();
        sub_e2e_ns.sort_unstable();

        let mut replica_mismatches = 0;
        let mut sub_offset_gaps = 0;
        let mut logged_ops = Vec::new();
        for stream in 0..self.cfg.n_streams {
            let group = self.cfg.replicas(stream);
            let log_of = |shard: u32| {
                let st = svc.shard_state(shard);
                st.range(stream, 0, st.len(stream))
            };
            let primary = log_of(group[0]);
            if group[1..].iter().any(|&s| log_of(s) != primary) {
                replica_mismatches += 1;
            }
            logged_ops.extend(primary.iter().map(|r| gen::op_of(r.payload.as_slice())));
            for sub in self.cfg.subs_of(stream) {
                let applied = svc.sub_applied(sub, stream);
                if applied.iter().enumerate().any(|(i, r)| r.offset != i as u64) {
                    sub_offset_gaps += 1;
                }
            }
        }
        LogOutcome {
            acked_appends: svc.acked_appends,
            sub_records: svc.sub_records,
            credit_stalls: totals.stalls,
            held_peak: totals.held_peak,
            unacked_end: svc.unacked_total() as u64,
            append_latency_ns,
            sub_e2e_ns,
            replica_mismatches,
            sub_offset_gaps,
            logged_ops,
        }
    }
}

// ---------------------------------------------------------------------
// UDP loopback cluster
// ---------------------------------------------------------------------

/// `UdpCluster::stats()` plus the controller retry counter.
#[derive(Clone, Copy)]
pub struct UdpCounters {
    pub rx_frames: u64,
    pub tx_frames: u64,
    pub rx_datagrams: u64,
    pub tx_datagrams: u64,
    pub tx_bytes: u64,
    pub tx_singleton_frames: u64,
    pub decode_errors: u64,
    pub ctrl_retries: u64,
}

impl UdpCounters {
    pub fn since(&self, earlier: &UdpCounters) -> UdpCounters {
        UdpCounters {
            rx_frames: self.rx_frames - earlier.rx_frames,
            tx_frames: self.tx_frames - earlier.tx_frames,
            rx_datagrams: self.rx_datagrams - earlier.rx_datagrams,
            tx_datagrams: self.tx_datagrams - earlier.tx_datagrams,
            tx_bytes: self.tx_bytes - earlier.tx_bytes,
            tx_singleton_frames: self.tx_singleton_frames - earlier.tx_singleton_frames,
            decode_errors: self.decode_errors - earlier.decode_errors,
            ctrl_retries: self.ctrl_retries - earlier.ctrl_retries,
        }
    }

    /// One frame is one `send_to` / `recv_from`.
    pub fn syscalls(&self) -> u64 {
        self.rx_frames + self.tx_frames
    }
}

/// Real sockets on loopback: `UdpClusterBuilder::new(n).build()` with
/// every default (3 controller replicas, 100 µs beacons, coalescing on).
pub struct UdpBed {
    cluster: UdpCluster,
    /// Epoch of the `at` stamps this bed puts on deliveries.
    epoch: Instant,
    /// `try_recv_all` calls that returned nothing, and the time they took
    /// (timed only while tracing; they are too many to record one by one).
    pub empty_polls: u64,
    pub empty_poll_ns: u64,
}

impl UdpBed {
    /// Bind, spawn, and wait for a controller leader. Returns the bed and
    /// the election time in ms (`build()` returning → leader known).
    pub fn build(tr: &mut Tracer, parent: SpanId, n: usize) -> std::io::Result<(UdpBed, f64)> {
        let span = tr.begin("UdpClusterBuilder::build", parent, NO_OP);
        let cluster = UdpClusterBuilder::new(n).build()?;
        tr.end(span);
        let built = Instant::now();
        let span = tr.begin("UdpCluster::controller_leader", parent, NO_OP);
        while cluster.controller_leader().is_none() {
            if built.elapsed() > Duration::from_secs(10) {
                return Err(std::io::Error::other("no controller leader within 10 s"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        tr.end(span);
        let elect_ms = built.elapsed().as_secs_f64() * 1e3;
        Ok((UdpBed { cluster, epoch: Instant::now(), empty_polls: 0, empty_poll_ns: 0 }, elect_ms))
    }

    /// Nanoseconds on the clock deliveries are stamped with.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// One reliable 64 B unicast carrying `op`; the call span shares the
    /// op id with the submit→delivery span the workload records.
    pub fn send_reliable(&self, tr: &mut Tracer, parent: SpanId, op: u64, from: u32, to: u32) {
        let msgs = vec![Message { dst: ProcessId(to), payload: op_payload(op) }];
        let span = tr.begin("UdpProcess::send_reliable", parent, op);
        self.cluster.process(from as usize).send_reliable(msgs);
        tr.end(span);
    }

    /// Drain process `p`'s delivery channel into `out`, stamping each
    /// delivery with the time it reached the generator.
    pub fn try_recv_all(
        &mut self,
        tr: &mut Tracer,
        parent: SpanId,
        p: u32,
        out: &mut Vec<Delivery>,
    ) {
        let start = tr.stamp();
        let got = self.cluster.process(p as usize).try_recv_all();
        if got.is_empty() {
            if tr.is_on() {
                self.empty_polls += 1;
                self.empty_poll_ns += tr.stamp() - start;
            }
            return;
        }
        tr.record("UdpProcess::try_recv_all", start, parent, NO_OP);
        let at = self.now_ns();
        out.extend(got.iter().map(|(msg, reliable)| delivery(at, ProcessId(p), msg, *reliable)));
    }

    pub fn counters(&self, tr: &mut Tracer, parent: SpanId) -> UdpCounters {
        let span = tr.begin("UdpCluster::stats", parent, NO_OP);
        let s = self.cluster.stats();
        tr.end(span);
        UdpCounters {
            rx_frames: s.rx_frames,
            tx_frames: s.tx_frames,
            rx_datagrams: s.rx_datagrams,
            tx_datagrams: s.tx_datagrams,
            tx_bytes: s.tx_bytes,
            tx_singleton_frames: s.tx_batch_hist[0],
            decode_errors: s.decode_errors,
            ctrl_retries: self.cluster.ctrl_retries(),
        }
    }

    /// Stop every thread of the cluster and wait for them.
    pub fn shutdown(self, tr: &mut Tracer, parent: SpanId) {
        let span = tr.begin("UdpCluster::shutdown", parent, NO_OP);
        self.cluster.shutdown();
        tr.end(span);
    }
}

// ---------------------------------------------------------------------
// Per-layer kernels: each layer's public functions on workload-shaped
// input, timed from outside. One op is what one message costs the layer.
// ---------------------------------------------------------------------

/// Timed batches per kernel; the reported figure is their median.
const KERNEL_BATCHES: usize = 7;

/// Run `batch` once to warm up, then `KERNEL_BATCHES` times under a span
/// each; return the median ns per op.
fn time_kernel(
    tr: &mut Tracer,
    parent: SpanId,
    name: &'static str,
    ops_per_batch: u64,
    mut batch: impl FnMut(),
) -> f64 {
    batch();
    let mut per_op = Vec::with_capacity(KERNEL_BATCHES);
    for _ in 0..KERNEL_BATCHES {
        let span = tr.begin(name, parent, NO_OP);
        let t = Instant::now();
        batch();
        let ns = t.elapsed().as_nanos() as f64;
        tr.end(span);
        per_op.push(ns / ops_per_batch as f64);
    }
    summarize(&per_op).median
}

fn ts(ns: u64) -> Timestamp {
    Timestamp::from_nanos(ns)
}

fn sample_datagram(psn: u32) -> Datagram {
    Datagram {
        src: ProcessId(1),
        dst: ProcessId(2),
        header: PacketHeader::data(ts(42_000 + psn as u64), psn, Flags::END_OF_MESSAGE),
        payload: op_payload(psn as u64),
    }
}

/// Move everything `from` has queued to `to`; packets addressed to the
/// first-hop switch (commit messages) are returned instead.
fn pump(from: &mut Endpoint, to: &mut Endpoint, now: Timestamp) -> Option<Datagram> {
    let mut last_hop_local = None;
    while let Some(d) = from.poll_transmit() {
        if d.dst == HOP_LOCAL {
            last_hop_local = Some(d);
        } else {
            to.handle_datagram(now, d);
        }
    }
    last_hop_local
}

/// All kernels, as `(metric name, ns per op)`. `reorder_depth` is the
/// number of messages a receiver held at its peak in the workload.
pub fn kernels(tr: &mut Tracer, parent: SpanId, reorder_depth: u64) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    const N: u64 = 20_000;

    // types: the 64 B datagram codec and the 16-entry batch frame.
    {
        let d = sample_datagram(7);
        let mut buf = BytesMut::with_capacity(4096);
        out.push((
            "types.encode_into_ns",
            time_kernel(tr, parent, "kernel:types.encode_into", N, || {
                for _ in 0..N {
                    buf.clear();
                    black_box(&d).encode_into(&mut buf);
                    black_box(buf.len());
                }
            }),
        ));
        let encoded = d.encode();
        out.push((
            "types.decode_ns",
            time_kernel(tr, parent, "kernel:types.decode", N, || {
                for _ in 0..N {
                    black_box(Datagram::decode(black_box(encoded.clone())).expect("decodes"));
                }
            }),
        ));
        let frame_dgrams: Vec<Datagram> = (0..16).map(sample_datagram).collect();
        out.push((
            "types.batch_encode_ns_per_dgram",
            time_kernel(tr, parent, "kernel:types.batch_encode", N, || {
                for _ in 0..N / 16 {
                    buf.clear();
                    encode_batch_into(black_box(&frame_dgrams), &mut buf);
                    black_box(buf.len());
                }
            }),
        ));
        buf.clear();
        encode_batch_into(&frame_dgrams, &mut buf);
        let frame = buf.freeze();
        out.push((
            "types.decode_frame_ns_per_dgram",
            time_kernel(tr, parent, "kernel:types.decode_frame", N, || {
                for _ in 0..N / 16 {
                    for d in decode_frame(black_box(frame.clone())) {
                        black_box(d.expect("decodes"));
                    }
                }
            }),
        ));
    }

    // netsim: calendar-queue churn at the engine's population, and routing.
    {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        for i in 0..4096u64 {
            q.push(i * 97 % 200_000, i as u32);
        }
        out.push((
            "netsim.sched_push_pop_ns",
            time_kernel(tr, parent, "kernel:netsim.sched_push_pop", N, || {
                for _ in 0..N {
                    let (t, _, item) = q.pop().expect("population is constant");
                    q.push(t + 1 + (item as u64 * 37) % 50_000, item);
                }
            }),
        ));
        let mut sim = Sim::new(1);
        let topo = Topology::build(&mut sim, FatTreeParams::testbed());
        let hosts = topo.num_hosts() as u32;
        let at = topo.tor_up_of(HostId(0));
        let mut i = 0u32;
        out.push((
            "netsim.route_live_ns",
            time_kernel(tr, parent, "kernel:netsim.route_live", N, || {
                for _ in 0..N {
                    i = i.wrapping_add(1);
                    let (src, dst) = (HostId(i % hosts), HostId((i * 7 + 1) % hosts));
                    black_box(topo.route_live(at, src, dst, |_, _| true));
                }
            }),
        ));
    }

    // switchlogic: eq. 4.1 on a 32-input aggregator, per forwarded packet.
    {
        let inputs: Vec<NodeId> = (0..32).map(NodeId).collect();
        let mut agg = BarrierAggregator::new(inputs.clone());
        let mut t = 0u64;
        out.push((
            "switchlogic.be_observe_out_ns",
            time_kernel(tr, parent, "kernel:switchlogic.be_observe_out", N, || {
                for _ in 0..N {
                    t += 1;
                    agg.observe_be(inputs[(t % 32) as usize], ts(t), t);
                    black_box(agg.out_be(t));
                }
            }),
        ));
        out.push((
            "switchlogic.commit_observe_out_ns",
            time_kernel(tr, parent, "kernel:switchlogic.commit_observe_out", N, || {
                for _ in 0..N {
                    t += 1;
                    agg.observe_commit(inputs[(t % 32) as usize], ts(t), t);
                    black_box(agg.out_commit(t));
                }
            }),
        ));
    }

    // core: the reorder buffer at the workload's depth. Insert and advance
    // alternate, so they are timed inside the batch.
    {
        let depth = reorder_depth.clamp(16, 4096);
        let rounds = (N / depth).max(1);
        let flags = START_OF_MESSAGE | Flags::END_OF_MESSAGE;
        let payload = op_payload(0);
        let mut round = 0u64;
        let mut insert_ns = Vec::new();
        let mut advance_ns = Vec::new();
        for batch in 0..=KERNEL_BATCHES {
            let span = tr.begin("kernel:core.reorder", parent, NO_OP);
            let mut rb = ReorderBuffer::new(false, false);
            let (mut ins, mut adv) = (Duration::ZERO, Duration::ZERO);
            for _ in 0..rounds {
                round += 1;
                let base = round * 10_000;
                let t = Instant::now();
                for i in 0..depth {
                    let key = OrderKey {
                        ts: ts(base + (i * 37) % 500),
                        sender: ProcessId((i % 32) as u32),
                        seq: round * depth + i,
                    };
                    black_box(rb.insert_fragment(key, 0, i as u32, flags, payload.clone()));
                }
                ins += t.elapsed();
                let t = Instant::now();
                let (delivered, _) = rb.advance(ts(base + 1_000));
                adv += t.elapsed();
                assert_eq!(delivered.len() as u64, depth, "reorder kernel lost messages");
                black_box(delivered);
            }
            tr.end(span);
            if batch > 0 {
                let ops = (rounds * depth) as f64;
                insert_ns.push(ins.as_nanos() as f64 / ops);
                advance_ns.push(adv.as_nanos() as f64 / ops);
            }
        }
        out.push(("core.reorder_insert_ns", summarize(&insert_ns).median));
        out.push(("core.reorder_advance_ns_per_msg", summarize(&advance_ns).median));
    }

    // core: a hand-pumped endpoint pair, one message end to end.
    {
        let cfg = onepipe_core::config::EndpointConfig::default().beacon_only_barriers();
        const ROUNDS: u64 = 2_000;
        let (mut a, mut b) = (Endpoint::new(ProcessId(0), cfg), Endpoint::new(ProcessId(1), cfg));
        let mut now = 1_000u64;
        let mut op = 0u64;
        out.push((
            "core.endpoint_be_roundtrip_ns",
            time_kernel(tr, parent, "kernel:core.endpoint_be_roundtrip", ROUNDS, || {
                for _ in 0..ROUNDS {
                    now += 1_000;
                    op += 1;
                    let msg = Message { dst: ProcessId(1), payload: op_payload(op) };
                    a.send_unreliable(ts(now), vec![msg]).expect("send buffer has room");
                    pump(&mut a, &mut b, ts(now + 1));
                    b.on_barrier(ts(now + 500), Timestamp::ZERO);
                    black_box(b.recv_unreliable().expect("delivered once the barrier passed"));
                    pump(&mut b, &mut a, ts(now + 2));
                }
            }),
        ));
        let (mut a, mut b) = (Endpoint::new(ProcessId(0), cfg), Endpoint::new(ProcessId(1), cfg));
        out.push((
            "core.endpoint_rel_roundtrip_ns",
            time_kernel(tr, parent, "kernel:core.endpoint_rel_roundtrip", ROUNDS, || {
                for _ in 0..ROUNDS {
                    now += 1_000;
                    op += 1;
                    let msg = Message { dst: ProcessId(1), payload: op_payload(op) };
                    a.send_reliable(ts(now), vec![msg]).expect("send buffer has room");
                    pump(&mut a, &mut b, ts(now + 1)); // prepare
                    pump(&mut b, &mut a, ts(now + 2)); // ack
                    a.poll(ts(now + 3));
                    let commit = pump(&mut a, &mut b, ts(now + 3))
                        .expect("commit message after the full ack")
                        .header
                        .commit_barrier;
                    b.on_barrier(Timestamp::ZERO, commit);
                    black_box(b.recv_reliable().expect("delivered once committed"));
                    while a.poll_event().is_some() {}
                }
            }),
        ));
    }

    // log: the per-client gap gate and a shard applying in-order appends.
    {
        let payload = op_payload(0);
        let mut gate = ClientGate::new();
        let mut seq = 0u64;
        out.push((
            "log.gate_offer_ns",
            time_kernel(tr, parent, "kernel:log.gate_offer", N, || {
                for _ in 0..N {
                    black_box(gate.offer(seq, payload.clone()));
                    seq += 1;
                }
            }),
        ));
        let mut gate = ClientGate::new();
        let mut base = 0u64;
        out.push((
            "log.gate_offer_ooo_ns",
            time_kernel(tr, parent, "kernel:log.gate_offer_ooo", N, || {
                for _ in 0..N / 4 {
                    // Three arrivals ahead of a gap are held, the fourth
                    // fills it and releases the run.
                    for s in [base + 1, base + 2, base + 3, base] {
                        black_box(gate.offer(s, payload.clone()));
                    }
                    base += 4;
                }
            }),
        ));
        let mut shard = ShardState::new();
        let mut i = 0u64;
        out.push((
            "log.shard_apply_ns",
            time_kernel(tr, parent, "kernel:log.shard_apply", N, || {
                for _ in 0..N {
                    let (stream, seq) = (i % LogTier::STREAMS, i / LogTier::STREAMS);
                    black_box(shard.apply(stream, 0, seq, payload.clone()));
                    i += 1;
                }
            }),
        ));
    }

    out
}
