//! Shared measurement plumbing for total-order broadcast experiments.

use onepipe_netsim::stats::Samples;
use onepipe_types::ids::ProcessId;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Records sends and deliveries of broadcast messages identified by
/// `(origin process, per-origin counter)` and derives throughput/latency.
#[derive(Default)]
pub struct BroadcastProbe {
    sends: HashMap<(ProcessId, u64), u64>,
    deliveries: Vec<(u64, ProcessId, ProcessId, u64)>,
    /// Per-receiver count of out-of-order deliveries (order violations).
    pub order_violations: u64,
    last_key: HashMap<ProcessId, (u64, u32, u64)>,
}

/// Shared handle to a probe.
pub type ProbeHandle = Arc<Mutex<BroadcastProbe>>;

impl BroadcastProbe {
    /// New shared probe.
    pub fn shared() -> ProbeHandle {
        Arc::new(Mutex::new(BroadcastProbe::default()))
    }

    /// Record a broadcast send at true time `at`.
    pub fn record_send(&mut self, at: u64, origin: ProcessId, k: u64) {
        self.sends.insert((origin, k), at);
    }

    /// Record a delivery of `(origin, k)` to `receiver`, with the total
    /// order key `(order_hi, order_lo)` the protocol assigned (sequence
    /// number, or (timestamp, origin) — anything monotone per receiver).
    pub fn record_delivery(
        &mut self,
        at: u64,
        receiver: ProcessId,
        origin: ProcessId,
        k: u64,
        order: (u64, u32),
    ) {
        let key = (order.0, order.1, k);
        if let Some(prev) = self.last_key.get(&receiver) {
            if key < *prev {
                self.order_violations += 1;
            }
        }
        self.last_key.insert(receiver, key);
        self.deliveries.push((at, receiver, origin, k));
    }

    /// Number of deliveries recorded.
    pub fn delivery_count(&self) -> usize {
        self.deliveries.len()
    }

    /// Compute metrics over a measurement window `[t0, t1]`, each
    /// broadcast sent to all `n_procs` processes.
    pub fn metrics(&self, n_procs: usize, t0: u64, t1: u64) -> RunMetrics {
        let mut latency = Samples::new();
        let mut delivered = 0u64;
        for &(at, _rcv, origin, k) in &self.deliveries {
            if at < t0 || at > t1 {
                continue;
            }
            delivered += 1;
            if let Some(&sent) = self.sends.get(&(origin, k)) {
                latency.push((at - sent) as f64);
            }
        }
        let secs = (t1 - t0) as f64 / 1e9;
        // Each broadcast is delivered at every process; normalize to
        // broadcasts per second per process.
        let tput = delivered as f64 / (n_procs as f64).max(1.0) / secs.max(1e-12);
        RunMetrics {
            tput_per_proc: tput,
            latency,
            sent: (self.sends.len() * n_procs) as u64,
            delivered,
            order_violations: self.order_violations,
        }
    }
}

/// Throughput and latency of one run, for 1Pipe and the baselines alike.
pub struct RunMetrics {
    /// Deliveries per second per process.
    pub tput_per_proc: f64,
    /// Delivery latency samples (ns, send → delivery).
    pub latency: Samples,
    /// Messages sent, a broadcast once per destination.
    pub sent: u64,
    /// Messages delivered (a baseline counts those in its window).
    pub delivered: u64,
    /// Total-order violations a [`BroadcastProbe`] observed (must be 0
    /// for a correct protocol; 1Pipe runs are not probed and report 0).
    pub order_violations: u64,
}

impl RunMetrics {
    /// Mean latency in microseconds.
    pub fn mean_latency_us(&self) -> f64 {
        self.latency.mean() / 1_000.0
    }

    /// Throughput in million messages per second per process.
    pub fn mtput(&self) -> f64 {
        self.tput_per_proc / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_computation() {
        let mut p = BroadcastProbe::default();
        let a = ProcessId(0);
        let b = ProcessId(1);
        p.record_send(1_000, a, 0);
        p.record_send(2_000, a, 1);
        p.record_delivery(2_000, b, a, 0, (1, 0));
        p.record_delivery(3_500, b, a, 1, (2, 0));
        let m = p.metrics(2, 0, 1_000_000_000);
        assert_eq!(m.order_violations, 0);
        assert_eq!(m.latency.len(), 2);
        assert!((m.latency.mean() - 1_250.0).abs() < 1e-9);
        assert!((m.tput_per_proc - 1.0).abs() < 1e-9);
        assert_eq!((m.sent, m.delivered), (4, 2));
    }

    #[test]
    fn order_violation_detected() {
        let mut p = BroadcastProbe::default();
        let r = ProcessId(9);
        p.record_delivery(10, r, ProcessId(0), 0, (5, 0));
        p.record_delivery(20, r, ProcessId(1), 0, (3, 0)); // goes backwards
        assert_eq!(p.order_violations, 1);
    }

    #[test]
    fn window_filters_deliveries() {
        let mut p = BroadcastProbe::default();
        p.record_send(0, ProcessId(0), 0);
        p.record_delivery(100, ProcessId(1), ProcessId(0), 0, (1, 0));
        p.record_delivery(10_000, ProcessId(1), ProcessId(0), 0, (2, 0));
        let m = p.metrics(1, 0, 1_000);
        assert_eq!(m.latency.len(), 1);
    }
}
