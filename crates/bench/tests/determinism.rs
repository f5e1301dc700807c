//! Determinism regression for the engine's rack partition: for a fixed
//! seed, a partitioned run must produce **bit-identical** results for
//! every compute-lane count ≥ 1, on the same workloads perfbench and the
//! figure sweeps measure (DESIGN.md §10.1 states the contract; this file
//! pins it).
//!
//! The fingerprint compares full delivery records — timestamp order,
//! wall-clock delivery time, receiver, source, sequence number, payload
//! length and channel — plus the engine's global event count, so any
//! divergence in merge order, RNG streams, or window scheduling trips it.

use onepipe_bench::{cluster_for_threads, run_onepipe_broadcast};
use onepipe_core::harness::Cluster;
use onepipe_types::ids::ProcessId;
use onepipe_types::message::Message;
use proptest::prelude::*;

/// Render every delivery a cluster observed as one canonical string.
fn delivery_fingerprint(cluster: &mut Cluster) -> String {
    let mut out = String::new();
    for d in cluster.take_deliveries() {
        out.push_str(&format!(
            "at={} rx={} src={} seq={} ts={} len={} rel={}\n",
            d.at,
            d.receiver.0,
            d.msg.src.0,
            d.msg.seq,
            d.msg.ts.raw(),
            d.msg.payload.len(),
            d.reliable,
        ));
    }
    out
}

/// Run the fig8 all-to-all broadcast workload and fingerprint it.
fn fig8_run(n: usize, seed: u64, threads: usize, reliable: bool) -> (String, u64) {
    let mut c = cluster_for_threads(n, seed, threads);
    let m = run_onepipe_broadcast(&mut c, n, 80_000.0, 300_000, reliable);
    assert!(m.delivered > 0, "workload must deliver traffic");
    (delivery_fingerprint(&mut c), c.sim.stats.events)
}

/// Run the perfbench incast workload (everyone unicasts to process 0).
fn incast_run(n: usize, seed: u64, threads: usize) -> (String, u64) {
    let mut c = cluster_for_threads(n, seed, threads);
    c.run_for(100_000);
    let t0 = c.sim.now();
    let mut t = t0;
    while t < t0 + 300_000 {
        c.run_until(t);
        for p in 1..n as u32 {
            let _ = c.send(ProcessId(p), vec![Message::new(ProcessId(0), vec![0u8; 256])], false);
        }
        t += 5_000;
    }
    c.run_for(1_000_000);
    (delivery_fingerprint(&mut c), c.sim.stats.events)
}

#[test]
fn fig8_broadcast_bit_identical_across_lane_counts() {
    let base = fig8_run(32, 42, 1, false);
    for threads in [2, 3, 4] {
        let got = fig8_run(32, 42, threads, false);
        assert_eq!(base.1, got.1, "event count diverged at {threads} lanes");
        assert_eq!(base.0, got.0, "delivery log diverged at {threads} lanes");
    }
}

#[test]
fn fig8_reliable_bit_identical_across_lane_counts() {
    let base = fig8_run(16, 42, 1, true);
    let got = fig8_run(16, 42, 2, true);
    assert_eq!(base.1, got.1, "event count diverged");
    assert_eq!(base.0, got.0, "reliable-channel delivery log diverged");
}

#[test]
fn incast_bit_identical_across_lane_counts() {
    let base = incast_run(32, 43, 1);
    for threads in [2, 4] {
        let got = incast_run(32, 43, threads);
        assert_eq!(base.1, got.1, "event count diverged at {threads} lanes");
        assert_eq!(base.0, got.0, "delivery log diverged at {threads} lanes");
    }
}

/// A faulty run (host crash mid-workload) must also be deterministic:
/// the crash is coordinator-fenced into the window schedule, so lane
/// count cannot change which packets die with the host.
#[test]
fn chaos_crash_workload_bit_identical_across_lane_counts() {
    let run = |threads: usize| {
        let mut c = cluster_for_threads(12, 5, threads);
        c.crash_host(250_000, onepipe_types::ids::HostId(3));
        let m = run_onepipe_broadcast(&mut c, 12, 60_000.0, 400_000, false);
        assert!(m.delivered > 0);
        (delivery_fingerprint(&mut c), c.sim.stats.events, c.failed_processes())
    };
    let base = run(1);
    for threads in [2, 3] {
        let got = run(threads);
        assert_eq!(base.2, got.2, "failure detection diverged at {threads} lanes");
        assert_eq!(base.1, got.1, "event count diverged at {threads} lanes");
        assert_eq!(base.0, got.0, "delivery log diverged at {threads} lanes");
    }
}

proptest! {
    /// Random seeds, sizes and rates: one lane and two lanes must agree
    /// exactly. Sizes stay small so the 64 shim cases run quickly; the
    /// fixed-size tests above cover the full testbed shape.
    #[test]
    fn sharded_engine_is_lane_count_invariant(
        seed in 0u64..1_000,
        n in 3usize..9,
        rate_khz in 20u64..120,
    ) {
        let run = |threads: usize| {
            let mut c = cluster_for_threads(n, seed, threads);
            let m = run_onepipe_broadcast(&mut c, n, (rate_khz * 1_000) as f64, 200_000, false);
            (delivery_fingerprint(&mut c), c.sim.stats.events, m.delivered)
        };
        let one = run(1);
        let two = run(2);
        prop_assert_eq!(one.2, two.2, "delivery count diverged");
        prop_assert_eq!(one.1, two.1, "event count diverged");
        prop_assert_eq!(one.0, two.0, "delivery log diverged");
    }
}
