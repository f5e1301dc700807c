//! Cross-transport conformance for the log service's ordered-append
//! path: the same seeded workload — append batches carrying per-client
//! sequences *with injected duplicates and out-of-order submissions* —
//! runs once on the deterministic simulator and once on the UDP
//! loopback cluster, each shard applying deliveries through the same
//! [`ShardState`] gap-enforcement machinery. Both transports must
//! produce the **identical per-stream record sequence**: same clients,
//! same sequences, same payloads, in the same order.
//!
//! Batches are submitted one at a time (each delivered before the next
//! is sent) so the 1Pipe total order is pinned to submission order on
//! both transports and the comparison is exact, not statistical.

use bytes::{Buf, Bytes};
use onepipe::log::proto::{self, tag};
use onepipe::log::service::{LogConfig, LogService};
use onepipe::log::shard::ShardState;
use onepipe::service::harness::{Cluster, ClusterConfig};
use onepipe::types::ids::ProcessId;
use onepipe::types::message::Message;
use onepipe::types::time::MICROS;
use onepipe::udp::UdpClusterBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// UDP clusters spawn several busy threads each; serialize with the
/// other transport tests (same global lock discipline as
/// `udp_transport.rs`, one lock per test binary is enough).
static TEST_LOCK: TestLock = TestLock(Mutex::new(()));

struct TestLock(Mutex<()>);

impl TestLock {
    /// A failed test must not poison the lock for the rest.
    fn lock(&self) -> MutexGuard<'_, ()> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

const SEED: u64 = 2026;
const N_CLIENTS: u32 = 3;
const N_STREAMS: u64 = 4;
const BATCHES_PER_CLIENT: u64 = 12;

/// One submitted batch. `seq` carries the injected faults: duplicates
/// and out-of-order pairs that the shard-side gate must straighten out.
#[derive(Clone, Debug)]
struct Submit {
    client: u32,
    stream: u64,
    seq: u64,
    payload: Vec<u8>,
}

/// The shared workload, deterministic in `SEED`. Sequences are
/// per-`(client, stream)` — that is the gate's unit — contiguous from
/// 0. Each client walks its streams in blocks of 3 submissions, then
/// ~1 in 4 adjacent same-stream pairs is swapped (out-of-order
/// arrival) and ~1 in 4 batches is re-submitted (duplicate); the
/// interleaving across clients is a seeded shuffle.
fn workload() -> Vec<Submit> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut per_client: Vec<Vec<Submit>> = Vec::new();
    for client in 0..N_CLIENTS {
        let mut next_seq = vec![0u64; N_STREAMS as usize];
        let mut subs = Vec::new();
        for round in 0..BATCHES_PER_CLIENT {
            let stream = (round / 3 + client as u64) % N_STREAMS;
            let seq = next_seq[stream as usize];
            next_seq[stream as usize] += 1;
            let payload =
                vec![(seq as u8) ^ ((client as u8) << 4) ^ (stream as u8).rotate_left(2); 8];
            subs.push(Submit { client, stream, seq, payload });
        }
        let mut i = 0;
        while i + 1 < subs.len() {
            if subs[i].stream == subs[i + 1].stream && rng.random_range(0..4u32) == 0 {
                subs.swap(i, i + 1);
                i += 2; // keep swaps disjoint
            } else {
                i += 1;
            }
        }
        let mut with_dups = Vec::new();
        for s in subs {
            with_dups.push(s.clone());
            if rng.random_range(0..4u32) == 0 {
                // Duplicate submission of the same batch.
                with_dups.push(s);
            }
        }
        per_client.push(with_dups);
    }
    // Seeded round-robin-ish interleave across clients.
    let mut out = Vec::new();
    let mut cursors = vec![0usize; per_client.len()];
    while cursors.iter().zip(&per_client).any(|(&c, v)| c < v.len()) {
        let pick = rng.random_range(0..per_client.len() as u32) as usize;
        if cursors[pick] < per_client[pick].len() {
            out.push(per_client[pick][cursors[pick]].clone());
            cursors[pick] += 1;
        }
    }
    out
}

/// Decode a delivered payload and apply it to the shard state.
fn apply_delivery(shard: &mut ShardState, mut payload: Bytes) {
    assert!(payload.remaining() >= 1, "empty delivery");
    assert_eq!(payload.get_u8(), tag::APPEND, "workload is appends only");
    let a = proto::Append::decode(&mut payload).expect("well-formed append");
    shard.apply(a.stream, a.client, a.seq, a.payload);
}

/// One record as compared across transports: offset, client, seq, payload.
type RecordFp = (u64, u32, u64, Vec<u8>);

/// Flatten the shard's per-stream logs into a comparable value.
fn fingerprint(shard: &ShardState) -> Vec<(u64, Vec<RecordFp>)> {
    (0..N_STREAMS)
        .map(|stream| {
            let records = shard
                .stream(stream)
                .map(|log| {
                    log.records
                        .iter()
                        .map(|r| (r.offset, r.client, r.seq, r.payload.to_vec()))
                        .collect()
                })
                .unwrap_or_default();
            (stream, records)
        })
        .collect()
}

/// Sanity on either transport's result: every client's sequences are
/// contiguous from 0 in every stream's log order — the gate absorbed
/// the injected duplicates and reorders.
fn assert_client_order(shard: &ShardState) {
    for stream in 0..N_STREAMS {
        let Some(log) = shard.stream(stream) else { continue };
        for client in 0..N_CLIENTS {
            let seqs: Vec<u64> =
                log.records.iter().filter(|r| r.client == client).map(|r| r.seq).collect();
            let sorted = {
                let mut s = seqs.clone();
                s.sort_unstable();
                s
            };
            assert_eq!(seqs, sorted, "client {client} reordered in stream {stream}");
            let dup = seqs.windows(2).any(|w| w[0] == w[1]);
            assert!(!dup, "client {client} duplicated in stream {stream}: {seqs:?}");
        }
    }
}

/// Run the workload on the simulator: process 0 is the shard, processes
/// 1..=N_CLIENTS are clients; each append is delivered before the next
/// is submitted.
fn run_sim() -> ShardState {
    let n = (N_CLIENTS + 1) as usize;
    let mut cfg = ClusterConfig::single_rack(n as u32, n);
    cfg.seed = SEED;
    let mut cluster = Cluster::new(cfg);
    cluster.run_for(100 * MICROS);

    let mut shard = ShardState::new();
    for sub in workload() {
        let append = proto::Append {
            stream: sub.stream,
            client: sub.client,
            seq: sub.seq,
            payload: Bytes::from(sub.payload.clone()),
        };
        let from = ProcessId(sub.client + 1);
        cluster
            .send(from, vec![Message::new(ProcessId(0), append.encode())], true)
            .expect("sim send accepted");
        cluster.run_for(50 * MICROS); // drain: delivered before the next send
        for d in cluster.take_deliveries() {
            assert_eq!(d.receiver, ProcessId(0));
            apply_delivery(&mut shard, d.msg.payload);
        }
    }
    cluster.run_for(1_000 * MICROS);
    for d in cluster.take_deliveries() {
        apply_delivery(&mut shard, d.msg.payload);
    }
    shard
}

/// Run the same workload on the UDP loopback cluster, the test thread
/// standing in for the shard server's apply loop.
fn run_udp() -> ShardState {
    let n = (N_CLIENTS + 1) as usize;
    let cluster = UdpClusterBuilder::new(n).build().unwrap();
    std::thread::sleep(Duration::from_millis(50)); // barriers start

    let mut shard = ShardState::new();
    for sub in workload() {
        let append = proto::Append {
            stream: sub.stream,
            client: sub.client,
            seq: sub.seq,
            payload: Bytes::from(sub.payload.clone()),
        };
        cluster
            .process((sub.client + 1) as usize)
            .send_traced(
                vec![Message::new(ProcessId(0), append.encode())],
                true,
                Duration::from_secs(10),
            )
            .expect("udp send accepted");
        // Sequential submission: wait for this batch to land.
        let (msg, reliable) =
            cluster.process(0).recv_timeout(Duration::from_secs(10)).expect("append delivered");
        assert!(reliable);
        apply_delivery(&mut shard, msg.payload);
    }
    cluster.shutdown();
    shard
}

#[test]
fn same_per_stream_record_order_on_sim_and_udp() {
    let _guard = TEST_LOCK.lock();
    let sim = run_sim();
    let udp = run_udp();

    assert_client_order(&sim);
    assert_client_order(&udp);

    let sim_fp = fingerprint(&sim);
    let udp_fp = fingerprint(&udp);
    assert_eq!(
        sim_fp, udp_fp,
        "sim and UDP transports must yield identical per-stream record sequences"
    );
    // The workload actually exercised the gate: every batch appended
    // exactly once despite the injected duplicates and reorders.
    let total: usize = sim_fp.iter().map(|(_, rs)| rs.len()).sum();
    assert_eq!(total, (N_CLIENTS as u64 * BATCHES_PER_CLIENT) as usize);
}

// ---------------------------------------------------------------------
// Full LogService end-to-end: the complete pub/sub service (clients,
// sharded owners + replicas, subscriber fan-out) runs unmodified as a
// pluggable AppHook on both transports, and the shard logs must agree.
// ---------------------------------------------------------------------

const SVC_BATCHES_PER_CLIENT: u64 = 8;

fn svc_config() -> LogConfig {
    LogConfig {
        n_shards: 2,
        n_clients: 2,
        n_subs: 1,
        n_streams: 4,
        replicate: true,
        fanout: 1,
        // Reliable-append acks take tens of ms on loopback (RTO floors);
        // keep the client resend and subscriber pull-repair timers above
        // that so neither transport fights its own retries.
        resend_after_ns: 500_000_000,
        fetch_after_ns: 500_000_000,
        ..LogConfig::default()
    }
}

/// The deterministic submission schedule: (client, stream, payload).
fn svc_workload(cfg: &LogConfig) -> Vec<(u32, u64, Vec<u8>)> {
    let mut out = Vec::new();
    for round in 0..SVC_BATCHES_PER_CLIENT {
        for client in 0..cfg.n_clients {
            let stream = (round + client as u64) % cfg.n_streams;
            out.push((client, stream, vec![(round as u8) << 2 | client as u8; 6]));
        }
    }
    out
}

/// Owner-shard per-stream fingerprint of the service's logs.
fn svc_fingerprint(svc: &LogService, cfg: &LogConfig) -> Vec<(u64, Vec<RecordFp>)> {
    (0..cfg.n_streams)
        .map(|stream| {
            let owner = svc.owner(stream).expect("stream has a live owner");
            let records = svc
                .shard_state(owner)
                .stream(stream)
                .map(|log| {
                    log.records
                        .iter()
                        .map(|r| (r.offset, r.client, r.seq, r.payload.to_vec()))
                        .collect()
                })
                .unwrap_or_default();
            (stream, records)
        })
        .collect()
}

/// Drive the service on the simulator, one batch at a time.
fn run_svc_sim(cfg: &LogConfig) -> Vec<(u64, Vec<RecordFp>)> {
    let n = cfg.n_processes();
    let mut ccfg = ClusterConfig::single_rack(n as u32, n);
    ccfg.seed = SEED;
    let mut cluster = Cluster::new(ccfg);
    let app = Arc::new(Mutex::new(LogService::new(cfg.clone())));
    cluster.set_app(app.clone());
    cluster.run_for(100 * MICROS);

    for (i, (client, stream, payload)) in svc_workload(cfg).into_iter().enumerate() {
        app.lock().unwrap().submit(client, stream, payload);
        let want = (i + 1) as u64;
        let mut spins = 0;
        while app.lock().unwrap().acked_appends < want {
            cluster.run_for(100 * MICROS);
            spins += 1;
            assert!(spins < 1000, "sim: append {want} never acknowledged");
        }
    }
    cluster.run_for(2_000 * MICROS);
    let svc = app.lock().unwrap();
    assert_eq!(svc.unacked_total(), 0);
    svc_fingerprint(&svc, cfg)
}

/// Drive the identical service over loopback UDP: the same shared
/// `LogService` instance is installed into every process's driver via
/// the builder's pluggable hook, exactly as the sim harness shares it
/// across hosts.
fn run_svc_udp(cfg: &LogConfig) -> Vec<(u64, Vec<RecordFp>)> {
    let app: Arc<Mutex<LogService>> = Arc::new(Mutex::new(LogService::new(cfg.clone())));
    let hook = app.clone() as Arc<Mutex<dyn onepipe::service::runtime::AppHook>>;
    let cluster = UdpClusterBuilder::new(cfg.n_processes()).app_hook(hook).build().unwrap();
    std::thread::sleep(Duration::from_millis(100)); // barriers start

    for (i, (client, stream, payload)) in svc_workload(cfg).into_iter().enumerate() {
        app.lock().unwrap().submit(client, stream, payload);
        let want = (i + 1) as u64;
        let deadline = Instant::now() + Duration::from_secs(20);
        while app.lock().unwrap().acked_appends < want {
            assert!(Instant::now() < deadline, "udp: append {want} never acknowledged");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    // Let replication and fan-out quiesce.
    let deadline = Instant::now() + Duration::from_secs(10);
    while app.lock().unwrap().unacked_total() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let fp = {
        let svc = app.lock().unwrap();
        assert_eq!(svc.unacked_total(), 0);
        svc_fingerprint(&svc, cfg)
    };
    cluster.shutdown();
    fp
}

#[test]
fn log_service_end_to_end_sim_and_udp_agree() {
    let _guard = TEST_LOCK.lock();
    let cfg = svc_config();
    let sim_fp = run_svc_sim(&cfg);
    let udp_fp = run_svc_udp(&cfg);
    assert_eq!(
        sim_fp, udp_fp,
        "the full log service must produce identical shard logs on sim and UDP"
    );
    let total: usize = sim_fp.iter().map(|(_, rs)| rs.len()).sum();
    assert_eq!(total, (cfg.n_clients as u64 * SVC_BATCHES_PER_CLIENT) as usize);
}
