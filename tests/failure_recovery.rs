//! Integration tests of the failure-recovery machinery (§5.2) across the
//! full stack: detection, announcement, discard/recall atomicity, resume,
//! and the behaviour of each failure domain.

use bytes::Bytes;
use onepipe::service::events::UserEvent;
use onepipe::service::harness::{Cluster, ClusterConfig};
use onepipe::types::ids::{HostId, LinkId, ProcessId};
use onepipe::types::message::Message;
use onepipe::types::time::MICROS;

#[test]
fn host_failure_is_announced_to_all_correct_processes() {
    let mut c = Cluster::new(ClusterConfig::single_rack(4, 4));
    c.run_for(100 * MICROS);
    let kill_at = c.sim.now() + 10 * MICROS;
    c.crash_host(kill_at, HostId(2));
    c.run_for(1_000 * MICROS);
    assert_eq!(c.failed_processes(), vec![(ProcessId(2), c.failed_processes()[0].1)]);
    // Every correct process got the callback.
    let events = c.take_user_events();
    let notified: std::collections::HashSet<ProcessId> = events
        .iter()
        .filter(|(_, _, ev)| matches!(ev, UserEvent::ProcessFailed { .. }))
        .map(|(_, p, _)| *p)
        .collect();
    for p in [0u32, 1, 3] {
        assert!(notified.contains(&ProcessId(p)), "p{p} missed the callback");
    }
}

#[test]
fn scattering_to_failed_receiver_is_recalled_atomically() {
    let mut c = Cluster::new(ClusterConfig::single_rack(4, 4));
    c.run_for(100 * MICROS);
    // Take host 2 down, then immediately scatter to {p1, p2}: p2's leg can
    // never be ACKed, so restricted atomicity demands p1 never delivers.
    let kill_at = c.sim.now() + 1;
    c.crash_host(kill_at, HostId(2));
    c.run_for(2 * MICROS);
    c.send(
        ProcessId(0),
        vec![Message::new(ProcessId(1), "half"), Message::new(ProcessId(2), "half")],
        true,
    )
    .unwrap();
    c.run_for(3_000 * MICROS);
    let delivered: Vec<_> = c
        .take_deliveries()
        .into_iter()
        .filter(|d| d.reliable && d.msg.payload == Bytes::from_static(b"half"))
        .collect();
    assert!(delivered.is_empty(), "atomicity: no receiver may deliver the aborted scattering");
    // The sender learned about the recall.
    let events = c.take_user_events();
    assert!(
        events
            .iter()
            .any(|(_, p, ev)| *p == ProcessId(0) && matches!(ev, UserEvent::Recalled { .. })),
        "sender must observe the Recalled event"
    );
}

#[test]
fn reliable_delivery_resumes_after_recovery() {
    let mut c = Cluster::new(ClusterConfig::single_rack(4, 4));
    c.run_for(100 * MICROS);
    c.crash_host(c.sim.now() + 1, HostId(3));
    c.run_for(1_500 * MICROS); // full recovery
                               // Fresh reliable traffic among survivors flows again.
    for i in 0..10u32 {
        c.send(ProcessId(i % 2), vec![Message::new(ProcessId(2), format!("post{i}"))], true)
            .unwrap();
        c.run_for(10 * MICROS);
    }
    c.run_for(1_000 * MICROS);
    let delivered =
        c.take_deliveries().iter().filter(|d| d.receiver == ProcessId(2) && d.reliable).count();
    assert_eq!(delivered, 10, "commit barrier must resume after Resume step");
}

#[test]
fn best_effort_survives_failure_without_controller() {
    // BE delivery resumes via the decentralized dead-link timeout alone.
    let mut c = Cluster::new(ClusterConfig::single_rack(4, 4));
    c.run_for(100 * MICROS);
    c.crash_host(c.sim.now() + 1, HostId(3));
    c.run_for(200 * MICROS); // > 10 beacon intervals
    for i in 0..10u32 {
        c.send(ProcessId(0), vec![Message::new(ProcessId(1), format!("be{i}"))], false).unwrap();
        c.run_for(10 * MICROS);
    }
    c.run_for(500 * MICROS);
    let delivered =
        c.take_deliveries().iter().filter(|d| d.receiver == ProcessId(1) && !d.reliable).count();
    assert_eq!(delivered, 10);
}

#[test]
fn core_switch_failure_kills_no_process() {
    let mut c = Cluster::new(ClusterConfig::testbed(8));
    c.run_for(100 * MICROS);
    c.crash_core(c.sim.now() + 1, 0);
    c.run_for(2_000 * MICROS);
    assert!(c.failed_processes().is_empty(), "core failure must not kill processes");
    // Cross-pod reliable traffic still works (ECMP avoids the dead core,
    // and the controller resumed the commit barrier).
    // With 8 procs round-robin on 32 hosts they are all in pod 0; send
    // within the rack instead — the point is the barrier still advances.
    for i in 0..5u32 {
        c.send(ProcessId(0), vec![Message::new(ProcessId(5), format!("x{i}"))], true).unwrap();
        c.run_for(20 * MICROS);
    }
    c.run_for(2_000 * MICROS);
    let delivered =
        c.take_deliveries().iter().filter(|d| d.receiver == ProcessId(5) && d.reliable).count();
    assert_eq!(delivered, 5);
}

#[test]
fn tor_failure_kills_the_rack() {
    let mut c = Cluster::new(ClusterConfig::testbed(32));
    c.run_for(100 * MICROS);
    // Rack 3 hosts processes 24..32.
    c.crash_tor(c.sim.now() + 1, 1, 1);
    c.run_for(3_000 * MICROS);
    let failed: std::collections::HashSet<u32> =
        c.failed_processes().iter().map(|(p, _)| p.0).collect();
    assert_eq!(failed, (24..32).collect(), "exactly the rack's processes fail");
}

#[test]
fn sender_failure_timestamp_bounds_delivery() {
    // Messages from a failed process above its failure timestamp are
    // discarded; messages below it (already committed) still deliver.
    let mut c = Cluster::new(ClusterConfig::single_rack(4, 4));
    c.run_for(100 * MICROS);
    // p3 sends a message that fully commits...
    c.send(ProcessId(3), vec![Message::new(ProcessId(0), "committed")], true).unwrap();
    c.run_for(200 * MICROS);
    // ...then its host dies.
    c.crash_host(c.sim.now() + 1, HostId(3));
    c.run_for(3_000 * MICROS);
    let got: Vec<Bytes> = c
        .take_deliveries()
        .into_iter()
        .filter(|d| d.receiver == ProcessId(0) && d.reliable)
        .map(|d| d.msg.payload)
        .collect();
    assert_eq!(got, vec![Bytes::from_static(b"committed")]);
}

#[test]
fn controller_forwarding_rescues_an_unreachable_receiver() {
    // §5.2 "Controller Forwarding": the path to the receiver is broken
    // but the receiver is alive. After repeated retransmissions the sender
    // asks the controller to relay, and the scattering still commits.
    let mut c = Cluster::new(ClusterConfig::single_rack(4, 4));
    c.run_for(100 * MICROS);
    // Break only p3's *downlink* (tor_down → host): it can still send
    // (ACKs flow up) but receives nothing over the data network.
    let host3 = c.topo.host_node(HostId(3));
    let tor_down = c.sim.in_neighbors(host3)[0];
    c.sim.schedule_link_admin(
        c.sim.now() + 1,
        onepipe::types::ids::LinkId::new(tor_down, host3),
        false,
    );
    c.run_for(10 * MICROS);
    c.send(ProcessId(0), vec![Message::new(ProcessId(3), "via controller")], true).unwrap();
    // 8 RTOs of 100 µs, then the Forward request, then two management hops.
    c.run_for(3_000 * MICROS);
    // The sender observed the commit: the forwarded copy was ACKed.
    let committed = c
        .take_user_events()
        .iter()
        .any(|(_, p, ev)| *p == ProcessId(0) && matches!(ev, UserEvent::Committed { .. }));
    assert!(committed, "forwarding must complete the scattering");
}

#[test]
fn link_flap_barrier_resumes_after_readdition() {
    // §4.2 "Addition of new hosts and links": a link that dies and comes
    // back is re-admitted; the monotonic output clamp hides its stale
    // barrier until it catches up, and best-effort delivery resumes.
    let mut c = Cluster::new(ClusterConfig::single_rack(4, 4));
    c.run_for(100 * MICROS);
    // Flap host 3's access link via the scheduled engine API: down for
    // 100 µs (beyond the 30 µs dead-link timeout), then up again, in both
    // directions.
    let t = c.sim.now();
    let hn = c.topo.host_node(HostId(3));
    let tor_up = c.topo.tor_up_of(HostId(3));
    let tor_down = c.sim.in_neighbors(hn)[0];
    for link in [LinkId::new(hn, tor_up), LinkId::new(tor_down, hn)] {
        c.sim.schedule_link_down(t + 1, link);
        c.sim.schedule_link_up(t + 100 * MICROS, link);
    }
    // Traffic among the unaffected processes keeps flowing during the
    // outage (dead-link removal un-stalls the barrier)...
    c.run_for(50 * MICROS);
    c.send(ProcessId(0), vec![Message::new(ProcessId(1), "during")], false).unwrap();
    c.run_for(200 * MICROS);
    // ...and traffic to/from the flapped host works after recovery.
    c.send(ProcessId(0), vec![Message::new(ProcessId(3), "after-down")], false).unwrap();
    c.send(ProcessId(3), vec![Message::new(ProcessId(1), "after-up")], false).unwrap();
    c.run_for(500 * MICROS);
    let payloads: Vec<Bytes> = c.take_deliveries().into_iter().map(|d| d.msg.payload).collect();
    for expect in ["during", "after-down", "after-up"] {
        assert!(
            payloads.iter().any(|p| p == expect.as_bytes()),
            "{expect:?} must be delivered; got {payloads:?}"
        );
    }
}
