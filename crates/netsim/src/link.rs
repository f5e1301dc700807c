//! Directed FIFO links with bandwidth, propagation delay, finite buffers,
//! ECN marking and random loss.

use onepipe_types::time::Duration;

/// Static parameters of a directed link.
#[derive(Clone, Copy, Debug)]
pub struct LinkParams {
    /// Link capacity in bits per second (testbed: 100 Gbps).
    pub bandwidth_bps: u64,
    /// One-way propagation + fixed per-hop processing delay, nanoseconds.
    pub prop_delay_ns: Duration,
    /// Output buffer size in bytes; the enqueue is tail-dropped beyond this.
    /// Commodity DCN switches have O(100 KB) per port (paper §3.2).
    pub buffer_bytes: u64,
    /// ECN marking threshold in bytes of queue occupancy (DCTCP-style).
    pub ecn_threshold_bytes: u64,
    /// Probability that a packet is corrupted/lost in flight. RoCE networks
    /// with PFC see ~1e-8 on healthy links, ≥1e-6 on faulty ones (§2.1).
    pub loss_rate: f64,
}

impl Default for LinkParams {
    fn default() -> Self {
        // Calibrated to the paper's testbed: 100 Gbps links, ~500 ns per
        // hop (cut-through switch + fiber), 500 KB buffer/port, DCTCP-ish
        // ECN threshold (~65 packets of 1 KB).
        LinkParams {
            bandwidth_bps: 100_000_000_000,
            prop_delay_ns: 500,
            buffer_bytes: 500_000,
            ecn_threshold_bytes: 65_000,
            loss_rate: 0.0,
        }
    }
}

impl LinkParams {
    /// Serialization time for `bytes` on this link, in nanoseconds
    /// (rounded up so zero-size control packets still take 1 ns).
    pub fn tx_time_ns(&self, bytes: u64) -> Duration {
        let bits = bytes * 8;
        ((bits * 1_000_000_000).div_ceil(self.bandwidth_bps)).max(1)
    }
}

/// Result of attempting to enqueue a packet on a link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Enqueue {
    /// Packet accepted; arrival at `arrive_ns`, ECN-marked if `ecn`.
    Accepted {
        /// Absolute simulation time of arrival at the far end.
        arrive_ns: u64,
        /// Whether the queue exceeded the ECN threshold at enqueue.
        ecn: bool,
    },
    /// Queue full — tail drop.
    BufferOverflow,
    /// Link is administratively or fault-down.
    LinkDown,
}

/// Runtime state of a directed link.
#[derive(Clone, Debug)]
pub struct Link {
    /// Static parameters.
    pub params: LinkParams,
    /// Time until which the transmitter is busy serializing earlier packets.
    busy_until: u64,
    /// The last serialization time computed: `((bytes, bandwidth_bps),
    /// tx_time_ns)`. A link carries runs of equal-sized packets (every
    /// beacon, every full fragment), so most packets skip the 64-bit
    /// division; `params` is `pub`, hence the bandwidth in the key.
    tx_memo: ((u64, u64), Duration),
    /// Whether the link is up.
    up: bool,
    /// Total packets accepted.
    pub tx_packets: u64,
    /// Total bytes accepted.
    pub tx_bytes: u64,
    /// Packets dropped by tail drop.
    pub drops_overflow: u64,
    /// Packets dropped while down.
    pub drops_down: u64,
}

impl Link {
    /// A fresh, idle link.
    pub fn new(params: LinkParams) -> Self {
        Link {
            params,
            busy_until: 0,
            // No packet has this size, so the first one computes.
            tx_memo: ((u64::MAX, 0), 0),
            up: true,
            tx_packets: 0,
            tx_bytes: 0,
            drops_overflow: 0,
            drops_down: 0,
        }
    }

    /// Whether the link is currently up.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Administratively set the link up/down (fault injection).
    pub fn set_up(&mut self, up: bool) {
        self.up = up;
    }

    /// Current queue occupancy in bytes, given the current time.
    pub fn queue_bytes(&self, now: u64) -> u64 {
        let backlog_ns = self.busy_until.saturating_sub(now);
        if backlog_ns == 0 {
            return 0;
        }
        backlog_ns * self.params.bandwidth_bps / 8 / 1_000_000_000
    }

    /// [`LinkParams::tx_time_ns`] at the current bandwidth, through the
    /// one-entry memo.
    fn tx_time_ns(&mut self, bytes: u64) -> Duration {
        let key = (bytes, self.params.bandwidth_bps);
        if self.tx_memo.0 != key {
            self.tx_memo = (key, self.params.tx_time_ns(bytes));
        }
        self.tx_memo.1
    }

    /// Attempt to enqueue a `bytes`-sized packet at time `now`.
    ///
    /// On success the returned arrival time is strictly increasing across
    /// successive calls (FIFO property): the transmitter serializes packets
    /// back-to-back and propagation delay is constant.
    pub fn enqueue(&mut self, now: u64, bytes: u64) -> Enqueue {
        if !self.up {
            self.drops_down += 1;
            return Enqueue::LinkDown;
        }
        let queued = self.queue_bytes(now);
        if queued + bytes > self.params.buffer_bytes {
            self.drops_overflow += 1;
            return Enqueue::BufferOverflow;
        }
        let ecn = queued >= self.params.ecn_threshold_bytes;
        let start = self.busy_until.max(now);
        let depart = start + self.tx_time_ns(bytes);
        self.busy_until = depart;
        self.tx_packets += 1;
        self.tx_bytes += bytes;
        Enqueue::Accepted { arrive_ns: depart + self.params.prop_delay_ns, ecn }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_link() -> Link {
        Link::new(LinkParams {
            bandwidth_bps: 8_000_000_000, // 1 byte/ns
            prop_delay_ns: 100,
            buffer_bytes: 1000,
            ecn_threshold_bytes: 500,
            loss_rate: 0.0,
        })
    }

    #[test]
    fn tx_time_rounds_up() {
        let p = LinkParams { bandwidth_bps: 8_000_000_000, ..Default::default() };
        assert_eq!(p.tx_time_ns(100), 100); // 1 byte per ns
        assert_eq!(p.tx_time_ns(0), 1); // control packets take ≥1 ns
        let p = LinkParams { bandwidth_bps: 100_000_000_000, ..Default::default() };
        assert_eq!(p.tx_time_ns(1250), 100); // 100 Gbps: 12.5 bytes/ns
    }

    #[test]
    fn fifo_arrivals_monotone() {
        let mut l = fast_link();
        let mut last = 0;
        for i in 0..10 {
            match l.enqueue(i, 100) {
                Enqueue::Accepted { arrive_ns, .. } => {
                    assert!(arrive_ns > last, "arrival order violated");
                    last = arrive_ns;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn idle_link_latency_is_tx_plus_prop() {
        let mut l = fast_link();
        match l.enqueue(1_000, 200) {
            Enqueue::Accepted { arrive_ns, ecn } => {
                assert_eq!(arrive_ns, 1_000 + 200 + 100);
                assert!(!ecn);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn queue_builds_and_drains() {
        let mut l = fast_link();
        l.enqueue(0, 400);
        l.enqueue(0, 400);
        assert_eq!(l.queue_bytes(0), 800);
        assert_eq!(l.queue_bytes(400), 400);
        assert_eq!(l.queue_bytes(800), 0);
        assert_eq!(l.queue_bytes(10_000), 0);
    }

    #[test]
    fn ecn_marks_when_backlogged() {
        let mut l = fast_link();
        l.enqueue(0, 400);
        // queue is 400 < 500 → no mark
        match l.enqueue(0, 200) {
            Enqueue::Accepted { ecn, .. } => assert!(!ecn),
            other => panic!("unexpected {other:?}"),
        }
        // queue is 600 ≥ 500 → mark
        match l.enqueue(0, 200) {
            Enqueue::Accepted { ecn, .. } => assert!(ecn),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tail_drop_on_overflow() {
        let mut l = fast_link();
        assert!(matches!(l.enqueue(0, 900), Enqueue::Accepted { .. }));
        assert_eq!(l.enqueue(0, 200), Enqueue::BufferOverflow);
        assert_eq!(l.drops_overflow, 1);
        // After draining, accepts again.
        assert!(matches!(l.enqueue(2_000, 200), Enqueue::Accepted { .. }));
    }

    #[test]
    fn down_link_drops() {
        let mut l = fast_link();
        l.set_up(false);
        assert_eq!(l.enqueue(0, 100), Enqueue::LinkDown);
        assert_eq!(l.drops_down, 1);
        l.set_up(true);
        assert!(matches!(l.enqueue(0, 100), Enqueue::Accepted { .. }));
    }
}
