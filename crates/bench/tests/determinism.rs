//! Determinism regression for the engine on the workloads perfbench and
//! the figure sweeps measure: the default cluster reproduces the counts
//! recorded in `BENCH_sim_smoke.json`, and a run repeats bit for bit
//! (DESIGN.md §10.1 states the contract; this file pins it).
//!
//! The fingerprint compares full delivery records — timestamp order,
//! wall-clock delivery time, receiver, source, sequence number, payload
//! length and channel — plus the engine's global event count, so any
//! divergence in event order or the RNG stream trips it.

use onepipe_bench::{cluster_for, run_onepipe_broadcast};
use onepipe_core::harness::Cluster;
use onepipe_types::ids::{HostId, ProcessId};
use onepipe_types::message::Message;

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
fn fig8_run(n: usize, seed: u64, reliable: bool) -> (String, u64) {
    let mut c = cluster_for(n, seed);
    let m = run_onepipe_broadcast(&mut c, n, 80_000.0, 300_000, reliable);
    assert!(m.delivered > 0, "workload must deliver traffic");
    (delivery_fingerprint(&mut c), c.sim.stats.events)
}

/// Run the perfbench incast workload (everyone unicasts to process 0).
fn incast_run(n: usize, seed: u64) -> (String, u64) {
    let mut c = cluster_for(n, seed);
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

/// A faulty run (host crash mid-workload): the crash is a queued event,
/// which decides which packets die with the host.
fn crash_run() -> (String, u64) {
    let mut c = cluster_for(12, 5);
    c.crash_host(250_000, HostId(3));
    let m = run_onepipe_broadcast(&mut c, 12, 60_000.0, 400_000, false);
    assert!(m.delivered > 0);
    assert!(!c.failed_processes().is_empty(), "the crash must be detected");
    (delivery_fingerprint(&mut c), c.sim.stats.events)
}

/// perfbench's smoke `fig8_broadcast` at 32 processes yields the
/// `(events, deliveries, sim_ns)` that `BENCH_sim_smoke.json` records
/// for that row.
#[test]
fn fig8_broadcast_reproduces_the_recorded_counts() {
    let mut c = cluster_for(32, 42);
    let m = run_onepipe_broadcast(&mut c, 32, 40_000.0, 400_000, false);
    assert_eq!((c.sim.stats.events, m.delivered, c.sim.now()), (303_431, 16_384, 2_475_000));
}

#[test]
fn runs_repeat_bit_for_bit() {
    assert_eq!(fig8_run(32, 42, false), fig8_run(32, 42, false), "fig8 best-effort");
    assert_eq!(fig8_run(16, 42, true), fig8_run(16, 42, true), "fig8 reliable");
    assert_eq!(incast_run(32, 43), incast_run(32, 43), "incast");
    assert_eq!(crash_run(), crash_run(), "host crash mid-workload");
}
