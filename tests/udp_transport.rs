//! Cross-transport conformance: the same reliable scatter workload runs
//! on the deterministic simulator and on the UDP loopback cluster, and
//! both must satisfy the same chaos-oracle invariants (total order,
//! causality, at-most-once, atomicity). Plus the UDP control plane's
//! tier-1 guard: kill one process and assert the §5.2 recovery sequence —
//! failure announced, callbacks fire on survivors, reliable delivery
//! resumes.

use onepipe::chaos::oracle::Oracle;
use onepipe::service::events::UserEvent;
use onepipe::service::harness::{Cluster, ClusterConfig};
use onepipe::service::simhost::DeliveryRecord;
use onepipe::types::ids::ProcessId;
use onepipe::types::message::Message;
use onepipe::types::time::{MICROS, MILLIS};
use onepipe::udp::UdpClusterBuilder;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// UDP clusters spawn several busy threads each; running tests
/// concurrently starves them on small CI machines. Serialize.
static TEST_LOCK: TestLock = TestLock(Mutex::new(()));

struct TestLock(Mutex<()>);

impl TestLock {
    /// A failed test must not poison the lock for the rest.
    fn lock(&self) -> MutexGuard<'_, ()> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

const N: usize = 3;
const ROUNDS: usize = 8;

/// The shared workload: each round, one sender scatters one reliable
/// message to every other process.
fn workload() -> Vec<(ProcessId, Vec<ProcessId>)> {
    (0..ROUNDS)
        .map(|r| {
            let sender = ProcessId((r % N) as u32);
            let receivers =
                (0..N as u32).map(ProcessId).filter(|&p| p != sender).collect::<Vec<_>>();
            (sender, receivers)
        })
        .collect()
}

fn payload(round: usize, sender: ProcessId) -> String {
    format!("r{round}s{}", sender.0)
}

/// Total number of deliveries the workload produces when nothing fails.
fn expected_deliveries() -> usize {
    workload().iter().map(|(_, rs)| rs.len()).sum()
}

/// Feed `oracle` the deliveries and user events `cluster` recorded since
/// the last call; returns how many deliveries there were.
fn feed_sim(cluster: &mut Cluster, oracle: &mut Oracle) -> usize {
    let deliveries = cluster.take_deliveries();
    for rec in &deliveries {
        oracle.on_delivery(rec);
    }
    for (at, proc, ev) in cluster.take_user_events() {
        oracle.on_user_event(at, proc, &ev);
    }
    deliveries.len()
}

#[test]
fn conformance_sim_reliable_scatter() {
    let _guard = TEST_LOCK.lock();
    let mut cluster = Cluster::new(ClusterConfig::single_rack(N as u32, N));
    let mut oracle = Oracle::new();
    cluster.run_for(100 * MICROS);
    let mut delivered = feed_sim(&mut cluster, &mut oracle);
    for (round, (sender, receivers)) in workload().into_iter().enumerate() {
        let msgs: Vec<Message> =
            receivers.iter().map(|&d| Message::new(d, payload(round, sender))).collect();
        let (ts, seq) = cluster.send_traced(sender, msgs, true).expect("sim send accepted");
        oracle.register_send(ts.raw(), sender, seq, ts, receivers, true);
        cluster.run_for(20 * MICROS);
        delivered += feed_sim(&mut cluster, &mut oracle);
    }
    cluster.run_for(3_000 * MICROS);
    delivered += feed_sim(&mut cluster, &mut oracle);
    assert_eq!(delivered, expected_deliveries(), "sim: all reliable scatterings delivered");
    let failed: Vec<ProcessId> = cluster.failed_processes().iter().map(|&(p, _)| p).collect();
    assert!(failed.is_empty(), "nothing failed in this run");
    oracle.finalize(0, &failed);
    assert!(oracle.ok(), "sim invariants: {}", oracle.first_violation().unwrap());
}

#[test]
fn conformance_udp_reliable_scatter() {
    let _guard = TEST_LOCK.lock();
    let cluster = UdpClusterBuilder::new(N).build().unwrap();
    std::thread::sleep(Duration::from_millis(50)); // barriers start
    let mut oracle = Oracle::new();
    for (round, (sender, receivers)) in workload().into_iter().enumerate() {
        let msgs: Vec<Message> =
            receivers.iter().map(|&d| Message::new(d, payload(round, sender))).collect();
        let (ts, seq) = cluster
            .process(sender.0 as usize)
            .send_traced(msgs, true, Duration::from_secs(5))
            .expect("udp send accepted");
        oracle.register_send(ts.raw(), sender, seq, ts, receivers, true);
        std::thread::sleep(Duration::from_millis(2));
    }
    // Drain deliveries and events, feeding the same oracle checks the sim
    // harness drives, until every scattering is fully delivered.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut delivered = 0usize;
    while delivered < expected_deliveries() && Instant::now() < deadline {
        for i in 0..N {
            let receiver = ProcessId(i as u32);
            for (msg, reliable) in cluster.process(i).try_recv_all() {
                assert!(reliable, "workload is reliable-only");
                oracle.on_delivery(&DeliveryRecord { at: msg.ts.raw(), receiver, msg, reliable });
                delivered += 1;
            }
            for ev in cluster.process(i).try_events() {
                oracle.on_user_event(0, receiver, &ev);
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(delivered, expected_deliveries(), "udp: all reliable scatterings delivered");
    oracle.finalize(0, &[]);
    assert!(oracle.ok(), "udp invariants: {}", oracle.first_violation().unwrap());
    // The workload ran on the batched wire: frames carried real traffic,
    // nothing arrived undecodable, and at least one frame coalesced
    // several datagrams (a scatter to two receivers leaves the sender in
    // one frame).
    let stats = cluster.stats();
    assert_eq!(stats.decode_errors, 0, "no undecodable frames on a healthy run");
    assert!(stats.rx_frames > 0, "traffic flowed");
    assert!(
        stats.rx_datagrams > stats.rx_frames,
        "batched path must coalesce: {} datagrams over {} frames",
        stats.rx_datagrams,
        stats.rx_frames
    );
    cluster.shutdown();
}

#[test]
fn udp_kill_one_process_recovers() {
    let _guard = TEST_LOCK.lock();
    // Shorter dead-link timeout than the default so the Detect step fires
    // quickly; still far above the 100 µs beacon cadence.
    let mut cluster = UdpClusterBuilder::new(3).dead_timeout(500 * MILLIS).build().unwrap();
    std::thread::sleep(Duration::from_millis(100));
    // Baseline: reliable delivery works before the failure.
    cluster.process(0).send_reliable(vec![Message::new(ProcessId(1), "before")]);
    let got = cluster.process(1).recv_timeout(Duration::from_secs(10)).expect("baseline delivery");
    assert!(got.1);
    assert_eq!(got.0.payload, bytes::Bytes::from_static(b"before"));

    // Fail-stop process 2: beacons cease, the soft switch reports the dead
    // link, the controller announces, survivors complete callbacks, and
    // Resume releases the commit barrier.
    cluster.kill(2);
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut callbacks = [false, false];
    while !(callbacks[0] && callbacks[1]) && Instant::now() < deadline {
        for (i, got) in callbacks.iter_mut().enumerate() {
            for ev in cluster.process(i).try_events() {
                if let UserEvent::ProcessFailed { failures, .. } = ev {
                    assert!(
                        failures.iter().any(|&(p, _)| p == ProcessId(2)),
                        "announcement names the killed process, got {failures:?}"
                    );
                    *got = true;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        callbacks[0] && callbacks[1],
        "both survivors must receive the failure callback (got {callbacks:?})"
    );

    // Barriers resumed: reliable delivery (which needs the commit barrier
    // to pass the message timestamp) works again among the survivors.
    cluster.process(0).send_reliable(vec![Message::new(ProcessId(1), "after")]);
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut got_after = None;
    while got_after.is_none() && Instant::now() < deadline {
        if let Some((m, reliable)) = cluster.process(1).recv_timeout(Duration::from_millis(100)) {
            if m.payload == bytes::Bytes::from_static(b"after") {
                assert!(reliable);
                got_after = Some(m);
            }
        }
    }
    assert!(got_after.is_some(), "reliable delivery must resume after recovery");
    cluster.shutdown();
}

/// Kill the controller *leader* while a host failure is still being
/// recovered: the surviving replicas elect a new leader that re-drives
/// the in-flight recovery, best-effort traffic keeps flowing during the
/// leaderless window, and reliable delivery resumes afterwards.
#[test]
fn udp_controller_failover_mid_recovery() {
    let _guard = TEST_LOCK.lock();
    let mut cluster = UdpClusterBuilder::new(3).dead_timeout(600 * MILLIS).build().unwrap();
    // Wait for the initial election, then for barriers to flow.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut leader = None;
    while leader.is_none() && Instant::now() < deadline {
        leader = cluster.controller_leader();
        std::thread::sleep(Duration::from_millis(10));
    }
    let old_leader = leader.expect("initial controller election");
    std::thread::sleep(Duration::from_millis(100));
    cluster.process(0).send_reliable(vec![Message::new(ProcessId(1), "before")]);
    let got = cluster.process(1).recv_timeout(Duration::from_secs(10)).expect("baseline delivery");
    assert_eq!(got.0.payload, bytes::Bytes::from_static(b"before"));

    // Fail-stop process 2, then kill the controller leader before the
    // dead-link timeout (600 ms) fires: the Detect report lands on a
    // leaderless cluster and recovery happens entirely under the new
    // leader.
    cluster.kill(2);
    std::thread::sleep(Duration::from_millis(50));
    cluster.kill_controller(old_leader);

    // Best-effort traffic must keep flowing during the controller outage
    // (once the dead link leaves the best-effort minimum by quarantine —
    // no controller involvement). Send until one arrives.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut be_during_outage = false;
    while !be_during_outage && Instant::now() < deadline {
        cluster.process(0).send_unreliable(vec![Message::new(ProcessId(1), "be-probe")]);
        for (m, reliable) in cluster.process(1).try_recv_all() {
            if !reliable && m.payload == bytes::Bytes::from_static(b"be-probe") {
                be_during_outage = true;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(be_during_outage, "best-effort delivery must continue during controller failover");

    // The new leader re-drives the recovery: both survivors get the
    // failure callback exactly as if no controller had died.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut callbacks = [false, false];
    while !(callbacks[0] && callbacks[1]) && Instant::now() < deadline {
        for (i, got) in callbacks.iter_mut().enumerate() {
            for ev in cluster.process(i).try_events() {
                if let UserEvent::ProcessFailed { failures, .. } = ev {
                    assert!(failures.iter().any(|&(p, _)| p == ProcessId(2)));
                    *got = true;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        callbacks[0] && callbacks[1],
        "survivors must receive the failure callback via the new leader (got {callbacks:?})"
    );
    let new_leader = cluster.controller_leader().expect("a new leader must be elected");
    assert_ne!(new_leader, old_leader, "leadership moved to a surviving replica");

    // Resume reached the switch: reliable delivery works again.
    cluster.process(0).send_reliable(vec![Message::new(ProcessId(1), "after")]);
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut got_after = false;
    while !got_after && Instant::now() < deadline {
        if let Some((m, reliable)) = cluster.process(1).recv_timeout(Duration::from_millis(100)) {
            if reliable && m.payload == bytes::Bytes::from_static(b"after") {
                got_after = true;
            }
        }
    }
    assert!(got_after, "reliable delivery must resume after controller failover");
    cluster.shutdown();
}

/// Delay every controller replica past the hosts' first request timeout:
/// the retry/backoff machinery (host requests and switch Detect
/// re-reports) must bridge the outage, and recovery completes once the
/// late-starting replicas elect a leader.
#[test]
fn udp_ctrl_backoff_retries_until_leader() {
    let _guard = TEST_LOCK.lock();
    let mut cluster = UdpClusterBuilder::new(3)
        .dead_timeout(300 * MILLIS)
        .ctrl_start_delay(Duration::from_millis(1200))
        .build()
        .unwrap();
    // Processes and the switch run immediately; only the controllers
    // sleep. Failure-free traffic needs no controller.
    std::thread::sleep(Duration::from_millis(100));
    cluster.process(0).send_reliable(vec![Message::new(ProcessId(1), "no-ctrl-needed")]);
    let got =
        cluster.process(1).recv_timeout(Duration::from_secs(10)).expect("delivery sans controller");
    assert_eq!(got.0.payload, bytes::Bytes::from_static(b"no-ctrl-needed"));

    // Kill a process while no controller is awake: the Detect report (and
    // any host callbacks later) must be retried until a leader exists.
    cluster.kill(2);
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut callbacks = [false, false];
    while !(callbacks[0] && callbacks[1]) && Instant::now() < deadline {
        for (i, got) in callbacks.iter_mut().enumerate() {
            for ev in cluster.process(i).try_events() {
                if let UserEvent::ProcessFailed { failures, .. } = ev {
                    assert!(failures.iter().any(|&(p, _)| p == ProcessId(2)));
                    *got = true;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        callbacks[0] && callbacks[1],
        "recovery must complete once the delayed controllers come up (got {callbacks:?})"
    );
    assert!(
        cluster.ctrl_retries() > 0,
        "the controller outage must have forced at least one retry"
    );
    assert_eq!(cluster.ctrl_drops(), 0, "no request may exhaust its retry budget in this run");

    cluster.process(0).send_reliable(vec![Message::new(ProcessId(1), "after")]);
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut got_after = false;
    while !got_after && Instant::now() < deadline {
        if let Some((m, reliable)) = cluster.process(1).recv_timeout(Duration::from_millis(100)) {
            if reliable && m.payload == bytes::Bytes::from_static(b"after") {
                got_after = true;
            }
        }
    }
    assert!(got_after, "reliable delivery must resume after the delayed election");
    cluster.shutdown();
}
