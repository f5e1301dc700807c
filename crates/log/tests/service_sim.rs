//! Simulated-cluster integration tests for the log service: basic
//! ordered append/ack/fan-out, snapshot + replay for a late subscriber,
//! credit-based backpressure under a hot tenant, and ids from outside the
//! deployment dropped at the door.

use bytes::Bytes;
use onepipe_core::harness::{Cluster, ClusterConfig};
use onepipe_core::simhost::{AppHook, SendQueue};
use onepipe_log::proto::{tag, Ack, Append, RecordSet, StreamReq, WireRecord};
use onepipe_log::service::{LogConfig, LogService};
use onepipe_log::shard::Record;
use onepipe_types::ids::ProcessId;
use onepipe_types::message::Delivered;
use onepipe_types::time::Timestamp;
use std::sync::{Arc, Mutex};

fn cluster_for(cfg: &LogConfig, seed: u64) -> (Cluster, Arc<Mutex<LogService>>) {
    let mut ccfg = if cfg.n_processes() <= 8 {
        ClusterConfig::single_rack(cfg.n_processes() as u32, cfg.n_processes())
    } else {
        ClusterConfig::testbed(cfg.n_processes())
    };
    ccfg.seed = seed;
    let mut cluster = Cluster::new(ccfg);
    let app = Arc::new(Mutex::new(LogService::new(cfg.clone())));
    cluster.set_app(app.clone());
    (cluster, app)
}

#[test]
fn appends_ack_and_fan_out_in_client_order() {
    let cfg = LogConfig {
        n_shards: 2,
        n_clients: 2,
        n_subs: 2,
        n_streams: 4,
        replicate: true,
        fanout: 2,
        ..LogConfig::default()
    };
    let (mut cluster, app) = cluster_for(&cfg, 11);
    cluster.run_for(100_000); // barriers settle, subscribers join

    // Two clients write interleaved batches to every stream.
    for round in 0..10u8 {
        for c in 0..2u32 {
            for stream in 0..4u64 {
                app.lock().unwrap().submit(c, stream, vec![round; 8]);
            }
        }
        cluster.run_for(20_000);
    }
    cluster.run_for(2_000_000);

    let svc = app.lock().unwrap();
    assert_eq!(svc.unacked_total(), 0, "every batch acknowledged");
    assert_eq!(svc.acked_appends, 80);
    for stream in 0..4u64 {
        let owner = svc.owner(stream).unwrap();
        let backup = cfg.replicas(stream)[1];
        let log = svc.shard_state(owner).stream(stream).expect("log exists");
        assert_eq!(log.records.len(), 20);
        // Replicas converge without any replication protocol.
        let backup_log = svc.shard_state(backup).stream(stream).expect("replica log");
        assert_eq!(log.records, backup_log.records);
        // Per-client sequences are contiguous in log order.
        for c in 0..2u32 {
            let seqs: Vec<u64> =
                log.records.iter().filter(|r| r.client == c).map(|r| r.seq).collect();
            assert_eq!(seqs, (0..10).collect::<Vec<_>>(), "client {c} stream {stream}");
        }
        // Both subscribers saw the identical record sequence.
        for u in 0..2u32 {
            let applied = svc.sub_applied(u, stream);
            assert_eq!(applied, log.records.as_slice(), "sub {u} stream {stream}");
        }
    }
    let totals = svc.tenant_totals().totals();
    // Both replicas apply every record, so shard-side appends double.
    assert_eq!(totals.appends, 160);
    assert!(totals.fanout_records >= 160, "two subscribers per stream");
}

#[test]
fn late_subscriber_catches_up_via_snapshot_then_tails() {
    let cfg = LogConfig {
        n_shards: 2,
        n_clients: 1,
        n_subs: 2,
        n_streams: 2,
        replicate: false,
        fanout: 2,
        // Subscriber 1 joins only after the first half of the traffic.
        join_at: vec![0, 1_500_000],
        ..LogConfig::default()
    };
    let (mut cluster, app) = cluster_for(&cfg, 12);
    cluster.run_for(100_000);

    for i in 0..30u8 {
        app.lock().unwrap().submit(0, (i % 2) as u64, vec![i; 16]);
        cluster.run_for(30_000); // crosses the 1.5 ms join mid-run
    }
    cluster.run_for(2_000_000);

    let svc = app.lock().unwrap();
    for stream in 0..2u64 {
        let owner = svc.owner(stream).unwrap();
        let log = svc.shard_state(owner).stream(stream).expect("log");
        assert_eq!(log.records.len(), 15);
        let early = svc.sub_applied(0, stream);
        let late = svc.sub_applied(1, stream);
        assert_eq!(early, log.records.as_slice(), "early sub stream {stream}");
        assert_eq!(late, log.records.as_slice(), "late sub replayed stream {stream}");
    }
}

#[test]
fn hot_tenant_hits_credit_backpressure() {
    let cfg = LogConfig {
        n_shards: 1,
        n_clients: 1,
        n_subs: 0,
        n_streams: 1,
        replicate: false,
        fanout: 0,
        window: 4,
        // Make the shard slow enough that one hot tenant outruns it.
        server_op_ns: 40_000,
        ..LogConfig::default()
    };
    let (mut cluster, app) = cluster_for(&cfg, 13);
    // An open loop far past the shard's rate: 20 batches every 10 µs
    // (2 M/s) for the first millisecond.
    for _ in 0..100 {
        for _ in 0..20 {
            app.lock().unwrap().submit(0, 0, vec![0xB5u8; 64]);
        }
        cluster.run_for(10_000);
    }
    cluster.run_for(7_000_000);

    let svc = app.lock().unwrap();
    let totals = svc.tenant_totals().totals();
    assert!(totals.appends > 0);
    assert!(totals.stalls > 0, "the open loop outruns the shard: admission must have stalled");
    // Backpressure bounds the in-flight window instead of queueing
    // unboundedly server-side: nothing is held for gaps, and the shard
    // log matches exactly what was acknowledged.
    assert_eq!(totals.held_peak, 0);
    assert_eq!(svc.acked_appends, svc.shard_state(0).len(0));
}

/// Everything a message from outside the deployment could disturb.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Per shard, `(stream, records)` for every stream it holds a log of.
    logs: Vec<Vec<(u64, Vec<Record>)>>,
    /// Per subscriber, the applied records of every stream id up to and
    /// including the first one past the deployment.
    applied: Vec<Vec<Vec<Record>>>,
    tenants: usize,
    client_tenants: usize,
    latency_streams: usize,
    acked_appends: u64,
    sub_records: u64,
    unacked: usize,
}

impl Observed {
    fn of(svc: &LogService) -> Observed {
        let cfg = &svc.cfg;
        Observed {
            logs: (0..cfg.n_shards)
                .map(|s| {
                    let state = svc.shard_state(s);
                    state.iter().map(|(id, log)| (id, log.records.clone())).collect()
                })
                .collect(),
            applied: (0..cfg.n_subs)
                .map(|u| (0..=cfg.n_streams).map(|s| svc.sub_applied(u, s).to_vec()).collect())
                .collect(),
            tenants: svc.tenant_totals().len(),
            client_tenants: svc.client_tenants.len(),
            latency_streams: svc.append_latency_ns.len(),
            acked_appends: svc.acked_appends,
            sub_records: svc.sub_records,
            unacked: svc.unacked_total(),
        }
    }
}

/// The service's tables are indexed by the ids the config bounds, so a
/// stream or client id from outside the deployment — on an append, an
/// ack, a subscription, a fetch, a record push, a replay chunk or a
/// submit — is dropped at the door: no panic, no table grows, nothing
/// is answered, and the logs and counters stay as they were.
#[test]
fn ids_outside_the_deployment_are_dropped_at_the_door() {
    let cfg = LogConfig {
        n_shards: 2,
        n_clients: 2,
        n_subs: 2,
        n_streams: 4,
        replicate: true,
        fanout: 2,
        ..LogConfig::default()
    };
    let (mut cluster, app) = cluster_for(&cfg, 14);
    cluster.run_for(100_000);
    for round in 0..3u8 {
        for c in 0..2u32 {
            for stream in 0..4u64 {
                app.lock().unwrap().submit(c, stream, vec![round; 8]);
            }
        }
        cluster.run_for(20_000);
    }
    cluster.run_for(2_000_000);

    let mut svc = app.lock().unwrap();
    let before = Observed::of(&svc);
    assert_eq!(before.acked_appends, 24);
    assert_eq!(before.sub_records, 48, "two subscribers per stream");

    let client = ProcessId(cfg.n_shards);
    let sub = ProcessId(cfg.n_shards + cfg.n_clients);
    let now = 2_200_000; // just after the run
    let payload = Bytes::from(vec![0xEE; 8]);
    let mut out = SendQueue::default();
    // Appends naming a stream past the deployment, or a client past it.
    let hostile = [(cfg.n_streams, 0), (u64::MAX, 0), (0, u32::MAX)];
    for (seq, (stream, c)) in (0u64..).zip(hostile) {
        let append = Append { stream, client: c, seq: 0, payload: payload.clone() };
        let d = Delivered {
            ts: Timestamp::from_nanos(now),
            src: client,
            seq,
            payload: append.encode(),
        };
        for shard in 0..cfg.n_shards {
            svc.on_delivery(now, ProcessId(shard), &d, true, &mut out);
        }
        svc.submit(c, stream, payload.clone());
    }
    svc.submit(u32::MAX, u64::MAX, payload.clone());
    for stream in [cfg.n_streams, u64::MAX] {
        let ack = Ack { stream, seq_next: 99, log_len: 99, credit: 8 };
        svc.on_raw(now, client, ProcessId(0), &ack.encode(), &mut out);
        for t in [tag::SUBSCRIBE, tag::FETCH] {
            for shard in 0..cfg.n_shards {
                let req = StreamReq { stream, from: 0 }.encode(t);
                svc.on_raw(now, ProcessId(shard), sub, &req, &mut out);
            }
        }
        let record =
            WireRecord { offset: 0, client: 0, seq: 0, appended_at: now, payload: payload.clone() };
        for t in [tag::RECORD, tag::CHUNK] {
            let set = RecordSet { stream, log_len: 9, records: vec![record.clone()] };
            svc.on_raw(now, sub, ProcessId(0), &set.encode(t), &mut out);
        }
    }
    assert!(out.is_empty(), "a dropped message is answered by nothing");
    assert_eq!(Observed::of(&svc), before);
}
