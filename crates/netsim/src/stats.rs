//! Simulation-wide counters and a small latency-histogram helper.

/// Global statistics accumulated by the engine.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Events processed.
    pub events: u64,
    /// Packets accepted by link transmitters.
    pub packets_sent: u64,
    /// Packets lost in flight (corruption model).
    pub drops_inflight: u64,
    /// Packets tail-dropped at full buffers.
    pub drops_overflow: u64,
    /// Packets dropped because the link was down.
    pub drops_link_down: u64,
    /// Sends to a non-existent link.
    pub drops_no_link: u64,
    /// Arrivals at nodes without logic.
    pub drops_no_logic: u64,
    /// ECN marks applied.
    pub ecn_marks: u64,
    /// Injected node crashes (hosts and switches) executed by the engine.
    pub faults_crashes: u64,
    /// Injected administrative link transitions (down or up) executed.
    pub faults_link_flaps: u64,
    /// Injected loss-rate mutations (per-link or global) executed.
    pub faults_loss_bursts: u64,
    /// Injected controller-replica crashes executed by the harness.
    pub faults_ctrl_crashes: u64,
    /// Injected controller-replica management-network partitions executed.
    pub faults_ctrl_partitions: u64,
    /// Controller leader elections observed (a new Raft term acquiring a
    /// leader), including the initial election.
    pub ctrl_elections: u64,
    /// Control requests re-sent for want of a commit ack (every send of a
    /// request but its first).
    pub ctrl_retries: u64,
    /// Control requests dropped after exhausting their retry budget
    /// without a commit ack. Only host requests can drop: a switch's
    /// reports are re-sent until acked.
    pub ctrl_drops: u64,
}

impl Stats {
    /// Packets the network dropped, for any reason: in flight, at a full
    /// buffer, at a down link, for want of a link or of node logic.
    pub fn packet_drops(&self) -> u64 {
        self.drops_inflight
            + self.drops_overflow
            + self.drops_link_down
            + self.drops_no_link
            + self.drops_no_logic
    }

    /// Total injected faults of all kinds — lets campaign reports
    /// cross-check injected faults against observed drops.
    pub fn faults_injected(&self) -> u64 {
        self.faults_crashes
            + self.faults_link_flaps
            + self.faults_loss_bursts
            + self.faults_ctrl_crashes
            + self.faults_ctrl_partitions
    }
}

/// A reservoir of latency (or other scalar) samples with percentile
/// reporting — used by the experiment harnesses.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// Create an empty sample set.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Record one sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean (0 for an empty set).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Standard deviation (0 for fewer than 2 samples).
    pub fn std_dev(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var = self.values.iter().map(|v| (v - m) * (v - m)).sum::<f64>()
            / (self.values.len() - 1) as f64;
        var.sqrt()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank — the smallest sample
    /// with at least `q · n` samples at or below it; 0 for an empty set.
    pub fn percentile(&self, q: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1] (a percent?)");
        if self.values.is_empty() {
            return 0.0;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Minimum (0 for empty).
    pub fn min(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().cloned().fold(f64::INFINITY, f64::min)
        }
    }

    /// Maximum (0 for empty).
    pub fn max(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// Raw samples.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_percentiles() {
        let mut s = Samples::new();
        for v in 1..=100 {
            s.push(v as f64);
        }
        assert_eq!(s.len(), 100);
        assert!((s.mean() - 50.5).abs() < 1e-9);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(0.5), 50.0);
        assert_eq!(s.percentile(0.95), 95.0);
        assert_eq!(s.percentile(0.99), 99.0);
        assert_eq!(s.percentile(1.0), 100.0);
        assert_eq!(s.max(), 100.0);
        // Even count: the lower middle sample, not the upper.
        let mut four = Samples::new();
        for v in [10.0, 20.0, 30.0, 40.0] {
            four.push(v);
        }
        assert_eq!(four.percentile(0.5), 20.0);
        let mut one = Samples::new();
        one.push(7.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(one.percentile(q), 7.0);
        }
    }

    /// `percentile` takes a quantile, not a percent: a percent used to
    /// clamp to the last rank silently, so a caller that passed `50.0` and
    /// `99.0` reported the maximum as both its p50 and its p99.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside [0, 1]")]
    fn percentile_rejects_a_percent() {
        let mut s = Samples::new();
        s.push(1.0);
        s.percentile(50.0);
    }

    #[test]
    fn empty_is_zeroes() {
        let s = Samples::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(0.5), 0.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn std_dev_known_value() {
        let mut s = Samples::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(v);
        }
        // Sample std dev of this classic set is ~2.138.
        assert!((s.std_dev() - 2.138).abs() < 0.01);
    }
}
