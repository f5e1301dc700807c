//! Shared experiment drivers for the figure/table binaries.
//!
//! Every evaluation artifact of the paper has a binary under `src/bin/`
//! that prints the same rows or series the paper reports (see DESIGN.md's
//! per-experiment index and EXPERIMENTS.md for paper-vs-measured):
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig8_scalability`  | Fig. 8a/8b — total-order broadcast comparison |
//! | `fig9_latency`      | Fig. 9a/9b — delivery latency, loss sweep |
//! | `fig10_recovery`    | Fig. 10 — failure recovery time |
//! | `fig11_reorder`     | Fig. 11 — reorder overhead on a host |
//! | `fig12_queueing`    | Fig. 12a/12b — background traffic, oversubscription |
//! | `fig13_beacon`      | Fig. 13a/13b — beacon CPU and bandwidth overhead |
//! | `fig14_kvs`         | Fig. 14a/14b/14c — transactional KVS |
//! | `fig15_tpcc`        | Fig. 15a/15b + §7.3.2 recovery — TPC-C |
//! | `fig16_hashtable`   | Fig. 16 — replicated remote hash table |
//! | `tab_clock_sync`    | §7.1 — clock skew numbers |
//! | `tab_out_of_order`  | §4.1 — out-of-order arrival fraction |
//! | `tab_ceph`          | §7.3.4 — storage replication latency |
//! | `ablations`         | DESIGN.md §5 — design-choice ablations |
//!
//! Simulation scale note: the paper's testbed drives up to 512 processes
//! at 5 M msg/s each on real hardware; a discrete-event simulator cannot
//! replay that volume in reasonable time. The drivers keep the paper's
//! *structure* (same topology, same protocols, same sweeps) at reduced
//! offered load and duration, and EXPERIMENTS.md compares shapes, not
//! absolute message counts.

#![warn(missing_docs)]

use onepipe_core::harness::{Cluster, ClusterConfig};
use onepipe_netsim::stats::Samples;
use onepipe_types::ids::ProcessId;
use onepipe_types::message::Message;
use std::collections::HashMap;

/// Microseconds helper for printing.
pub fn us(ns: f64) -> f64 {
    ns / 1_000.0
}

/// Result of one ordered-communication run.
pub struct RunMetrics {
    /// Deliveries per second per process.
    pub tput_per_proc: f64,
    /// Delivery latency samples (ns, send → app delivery).
    pub latency: Samples,
    /// Messages sent (scattering × destinations).
    pub sent: u64,
    /// Messages delivered.
    pub delivered: u64,
}

/// Drive an all-to-all broadcast workload over a 1Pipe cluster: every
/// process scatters a 64-byte payload to all `n` processes at `rate`
/// broadcasts/s for `dur_ns`, then drains. Measures per-delivery latency
/// and delivered throughput.
pub fn run_onepipe_broadcast(
    cluster: &mut Cluster,
    n: usize,
    rate_per_proc: f64,
    dur_ns: u64,
    reliable: bool,
) -> RunMetrics {
    let warmup = 100_000; // 100 µs of barrier warm-up
    cluster.run_for(warmup);
    let interval = (1e9 / rate_per_proc) as u64;
    let t0 = cluster.sim.now();
    let mut send_times: HashMap<(ProcessId, u64), u64> = HashMap::new();
    let mut seq_of: HashMap<ProcessId, u64> = HashMap::new();
    let mut t = t0;
    let mut sent = 0u64;
    while t < t0 + dur_ns {
        cluster.run_until(t);
        for p in 0..n as u32 {
            let from = ProcessId(p);
            let msgs: Vec<Message> =
                (0..n as u32).map(|q| Message::new(ProcessId(q), vec![0u8; 64])).collect();
            if cluster.send(from, msgs, reliable).is_ok() {
                let seq = seq_of.entry(from).or_insert(0);
                send_times.insert((from, *seq), cluster.sim.now());
                *seq += 1;
                sent += n as u64;
            }
        }
        t += interval;
    }
    // Drain.
    cluster.run_for(2_000_000);
    let mut latency = Samples::new();
    let mut delivered = 0u64;
    for rec in cluster.take_deliveries() {
        delivered += 1;
        if let Some(&s) = send_times.get(&(rec.msg.src, rec.msg.seq)) {
            latency.push((rec.at - s) as f64);
        }
    }
    let secs = dur_ns as f64 / 1e9;
    RunMetrics { tput_per_proc: delivered as f64 / n as f64 / secs, latency, sent, delivered }
}

/// Drive a uniform random-unicast workload (for latency experiments):
/// every process sends one 64-byte message to a random peer every
/// `interval_ns`; returns per-delivery latency samples.
pub fn run_onepipe_unicast(
    cluster: &mut Cluster,
    n: usize,
    interval_ns: u64,
    dur_ns: u64,
    reliable: bool,
) -> RunMetrics {
    use rand::Rng;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    cluster.run_for(100_000);
    // Stagger sends off the beacon grid: perfectly aligned send times sit
    // at the worst-case barrier phase and would bias the measurement.
    let t0 = cluster.sim.now() + 1_379;
    let mut send_times: HashMap<(ProcessId, u64), u64> = HashMap::new();
    let mut seq_of: HashMap<ProcessId, u64> = HashMap::new();
    let mut t = t0;
    let mut sent = 0u64;
    while t < t0 + dur_ns {
        cluster.run_until(t);
        for p in 0..n as u32 {
            let from = ProcessId(p);
            let to = loop {
                let q: u32 = rng.random_range(0..n as u32);
                if q != p {
                    break ProcessId(q);
                }
            };
            if cluster.send(from, vec![Message::new(to, vec![0u8; 64])], reliable).is_ok() {
                let seq = seq_of.entry(from).or_insert(0);
                send_times.insert((from, *seq), cluster.sim.now());
                *seq += 1;
                sent += 1;
            }
        }
        t += interval_ns;
    }
    cluster.run_for(3_000_000);
    let mut latency = Samples::new();
    let mut delivered = 0u64;
    for rec in cluster.take_deliveries() {
        delivered += 1;
        if let Some(&s) = send_times.get(&(rec.msg.src, rec.msg.seq)) {
            latency.push((rec.at - s) as f64);
        }
    }
    let secs = dur_ns as f64 / 1e9;
    RunMetrics { tput_per_proc: delivered as f64 / n as f64 / secs, latency, sent, delivered }
}

/// Parse a `--full` flag (larger sweeps) from argv.
pub fn full_mode() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Pretty table-row printer: pads cells to 12 chars.
pub fn row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>12}")).collect();
    println!("{}", line.join(" "));
}

/// Standard cluster for a given process count: single rack below 9
/// processes (matching the paper's placement), the 32-host testbed above.
pub fn cluster_for(n: usize, seed: u64) -> Cluster {
    let mut cfg = if n <= 8 {
        ClusterConfig::single_rack(n.max(2) as u32, n)
    } else {
        ClusterConfig::testbed(n)
    };
    cfg.seed = seed;
    Cluster::new(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_driver_measures() {
        let mut c = cluster_for(4, 1);
        let m = run_onepipe_broadcast(&mut c, 4, 50_000.0, 500_000, false);
        assert!(m.sent > 0);
        assert!(m.delivered > 0);
        assert!(!m.latency.is_empty());
        assert!(m.latency.mean() > 0.0);
    }

    #[test]
    fn unicast_driver_measures() {
        let mut c = cluster_for(8, 2);
        let m = run_onepipe_unicast(&mut c, 8, 20_000, 500_000, true);
        assert!(m.delivered > 0);
        assert!(m.latency.mean() > 0.0);
    }
}
