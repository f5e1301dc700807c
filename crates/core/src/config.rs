//! Endpoint configuration.

use onepipe_types::time::{Duration, MICROS};

/// How the receive side releases messages to the application.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryMode {
    /// 1Pipe semantics: hold messages until the barrier passes and deliver
    /// in total order.
    Ordered,
    /// Baseline ("unorder" in Figure 9a): deliver as soon as a message is
    /// complete, ignoring barriers. Used for latency/throughput baselines.
    Unordered,
}

/// Tunables of a 1Pipe endpoint. Defaults follow the paper's testbed.
#[derive(Clone, Copy, Debug)]
pub struct EndpointConfig {
    /// Initial / maximum congestion window, in packets per destination.
    pub initial_cwnd: u32,
    /// Retransmission timeout for reliable packets (local-clock ns): the
    /// timeout a channel uses until it has sampled a round trip, and the
    /// ceiling on every later one. A sampled channel times out after
    /// `srtt + max(srtt, 4·rttvar, 3 µs)`, doubled per expiry
    /// ([`RttEstimator`](crate::conn::RttEstimator)).
    pub rto: Duration,
    /// ACK timeout after which a best-effort packet is reported lost via
    /// the send-failure callback.
    pub be_ack_timeout: Duration,
    /// Whether barrier fields on received *data* packets can be trusted.
    /// True under the programmable-chip incarnation (fields are rewritten
    /// per hop); false under switch-CPU / host-delegation, where only
    /// beacons carry valid barriers (§6.2.2).
    pub trust_data_barriers: bool,
    /// Ordered (1Pipe) or unordered (baseline) delivery.
    pub delivery: DeliveryMode,
    /// Receiver-side random message drop probability — reproduces the
    /// paper's loss-rate experiments, which "simulate random message drop
    /// in lib1pipe receiver" (§7.2).
    pub rx_drop_rate: f64,
    /// Send-buffer capacity in scatterings; `send` fails beyond this.
    pub send_buffer_scatterings: usize,
    /// Seed for the endpoint's deterministic RNG (drop sampling).
    pub seed: u64,
    /// Artificial extra delivery delay: the receiver holds the barrier
    /// back by this much (used by the Figure 11 reorder-overhead sweep).
    pub artificial_delay: Duration,
}

impl Default for EndpointConfig {
    fn default() -> Self {
        EndpointConfig {
            initial_cwnd: 64,
            rto: 100 * MICROS,
            be_ack_timeout: 200 * MICROS,
            trust_data_barriers: true,
            delivery: DeliveryMode::Ordered,
            rx_drop_rate: 0.0,
            send_buffer_scatterings: 4096,
            seed: 1,
            artificial_delay: 0,
        }
    }
}

impl EndpointConfig {
    /// Configuration for the switch-CPU / host-delegate incarnations,
    /// where only beacons carry barriers.
    pub fn beacon_only_barriers(mut self) -> Self {
        self.trust_data_barriers = false;
        self
    }

    /// Baseline configuration with ordering disabled.
    pub fn unordered(mut self) -> Self {
        self.delivery = DeliveryMode::Unordered;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_toggle_fields() {
        let c = EndpointConfig::default();
        assert!(c.trust_data_barriers);
        assert_eq!(c.delivery, DeliveryMode::Ordered);
        let c = c.beacon_only_barriers().unordered();
        assert!(!c.trust_data_barriers);
        assert_eq!(c.delivery, DeliveryMode::Unordered);
    }
}
