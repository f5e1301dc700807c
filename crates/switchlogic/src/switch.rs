//! The switch core: forwarding decisions, barrier aggregation and
//! beacons, with no transport in it.
//!
//! [`SwitchCore`] is a step function of its inputs. Every entry point
//! takes the current time, and everything the switch does leaves through
//! the [`SwitchWire`] its driver passes in: the simulator's
//! `SwitchLogic` and the UDP soft switch both drive this one core.

use crate::barrier::{BarrierAggregator, NodeSlots};
use onepipe_types::ids::NodeId;
use onepipe_types::time::{Duration, Timestamp, MICROS};
use onepipe_types::wire::{Opcode, PacketHeader};

/// Which of the paper's three implementations this switch runs (§6.2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Incarnation {
    /// Programmable switching chip: per-packet barrier processing in the
    /// data plane; beacons only on idle links.
    Chip,
    /// Switch CPU: barriers travel only in beacons, recomputed and
    /// broadcast every interval after `processing_delay`.
    SwitchCpu {
        /// CPU processing delay per beacon round (OS stack: ~5 µs;
        /// raw sockets: ~1 µs).
        processing_delay: Duration,
    },
    /// End-host representative: like [`Incarnation::SwitchCpu`] but the
    /// delay includes the switch↔host round trip (the testbed default).
    HostDelegate {
        /// Host processing + switch↔host RTT per beacon round (~2 µs).
        processing_delay: Duration,
    },
}

impl Incarnation {
    /// The testbed's host-delegation setup (§7.1).
    pub fn testbed_host_delegate() -> Self {
        Incarnation::HostDelegate { processing_delay: 2 * MICROS }
    }

    /// Extra emission delay of this incarnation.
    pub fn processing_delay(&self) -> Duration {
        match *self {
            Incarnation::Chip => 0,
            Incarnation::SwitchCpu { processing_delay } => processing_delay,
            Incarnation::HostDelegate { processing_delay } => processing_delay,
        }
    }
}

/// Static switch configuration.
#[derive(Clone, Copy, Debug)]
pub struct SwitchConfig {
    /// The implementation variant.
    pub incarnation: Incarnation,
    /// Beacon interval (paper testbed: 3 µs).
    pub beacon_interval: Duration,
    /// Send beacons at globally synchronized phase (§4.2) rather than at a
    /// random per-switch phase (ablation b in DESIGN.md).
    pub synchronized_beacons: bool,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            incarnation: Incarnation::Chip,
            beacon_interval: 3 * MICROS,
            synchronized_beacons: true,
        }
    }
}

/// What the core needs from its driver: a packet type whose header it
/// can rewrite, a route, output ports, timers and a controller to report
/// to. Ports are named by the neighbor they lead to.
///
/// Datagrams toward one port must leave in call order: a beacon sent
/// after a forwarded packet must not overtake it (§4.1).
pub trait SwitchWire {
    /// The driver's packet.
    type Packet;
    /// The packet's 1Pipe header, which the chip rewrites in place.
    fn header<'p>(&'p mut self, pkt: &'p mut Self::Packet) -> &'p mut PacketHeader;
    /// The output port toward `pkt`'s destination; `None` drops it.
    fn route(&mut self, pkt: &Self::Packet) -> Option<NodeId>;
    /// Send `pkt` on the port leading to `to`.
    fn forward(&mut self, to: NodeId, pkt: Self::Packet);
    /// Send a beacon carrying `(be, commit)` on the port leading to `to`.
    fn beacon(&mut self, to: NodeId, be: Timestamp, commit: Timestamp);
    /// Call [`SwitchCore::on_timer`] after `delay`. The chip's delay is
    /// 0: its coalesced relay fires after every other event of the same
    /// instant.
    fn set_timer(&mut self, delay: Duration);
    /// Input `from` went silent past the timeout; `last_commit` is the
    /// last commit barrier heard on it (the Detect report of §5.2).
    fn dead_input(&mut self, from: NodeId, last_commit: Timestamp);
}

/// The `(best-effort, commit)` barrier pair.
type Barriers = (Timestamp, Timestamp);

/// Whether a link that advertised `adv` already carries `out`.
fn covers(adv: Barriers, out: Barriers) -> bool {
    out.0 <= adv.0 && out.1 <= adv.1
}

/// Per-output-link transmit state, stored densely in port order (the
/// forwarding path updates it per packet, so it must not hash).
#[derive(Clone, Copy, Debug)]
struct OutPort {
    /// The downstream neighbor this port leads to.
    to: NodeId,
    /// Last time a barrier-carrying packet (rewritten data or a beacon)
    /// left on this link.
    last_tx: u64,
    /// Barrier values most recently advertised on this link, whether by
    /// a rewritten data packet or a beacon.
    advertised: Barriers,
}

impl OutPort {
    /// Record that a packet advertising `out` left at `now`.
    fn carry(&mut self, now: u64, out: Barriers) {
        self.last_tx = now;
        self.advertised = (self.advertised.0.max(out.0), self.advertised.1.max(out.1));
    }
}

/// One logical switch, in any of the three incarnations.
pub struct SwitchCore {
    cfg: SwitchConfig,
    /// Silence after which an input is reported dead (§4.2).
    dead_timeout: Duration,
    agg: BarrierAggregator,
    /// Output-port state, in the order the driver listed the ports.
    ports: Vec<OutPort>,
    /// The port leading to each neighbor.
    port_of: NodeSlots,
    /// The one-shot timer is armed: the chip's coalesced relay, or the
    /// CPU/delegate's delayed emission.
    timer_armed: bool,
    /// Chip: the barriers of the last relay. Every port has advertised at
    /// least this much since, so only an aggregate past it can need a
    /// relay.
    relayed: Barriers,
}

impl SwitchCore {
    /// A switch aggregating `inputs` and sending on one port per entry
    /// of `outputs`; an input silent for `dead_timeout` is reported dead.
    pub fn new(
        cfg: SwitchConfig,
        inputs: Vec<NodeId>,
        outputs: &[NodeId],
        dead_timeout: Duration,
    ) -> Self {
        let zero = (Timestamp::ZERO, Timestamp::ZERO);
        SwitchCore {
            cfg,
            dead_timeout,
            agg: BarrierAggregator::new(inputs),
            ports: outputs.iter().map(|&to| OutPort { to, last_tx: 0, advertised: zero }).collect(),
            port_of: NodeSlots::new(outputs),
            timer_armed: false,
            relayed: zero,
        }
    }

    /// Controller Resume (§5.2): stop waiting for commits from `from`.
    pub fn remove_commit_input(&mut self, from: NodeId) -> bool {
        self.agg.remove_commit_input(from)
    }

    /// The beacon interval: the period of [`on_tick`](Self::on_tick).
    pub fn beacon_interval(&self) -> Duration {
        self.cfg.beacon_interval
    }

    /// Whether the one-shot timer is armed and waits for
    /// [`on_timer`](Self::on_timer).
    pub fn timer_armed(&self) -> bool {
        self.timer_armed
    }

    /// The barrier registers (tests, telemetry).
    pub fn aggregator_mut(&mut self) -> &mut BarrierAggregator {
        &mut self.agg
    }

    /// A packet arrived on input `from` at `now`.
    #[inline]
    pub fn on_packet<W: SwitchWire>(
        &mut self,
        w: &mut W,
        now: u64,
        from: NodeId,
        mut pkt: W::Packet,
    ) {
        let h = *w.header(&mut pkt);
        let chip = self.is_chip();
        match h.opcode {
            Opcode::Beacon => self.on_beacon(w, now, from, h.barrier, h.commit_barrier),
            Opcode::Commit => {
                self.agg.observe_commit(from, h.commit_barrier, now);
                // Commit messages die at the first-hop switch (Figure 6).
                self.barrier_input(w, now);
            }
            Opcode::Data if chip => {
                self.agg.observe(from, h.barrier, h.commit_barrier, now);
                self.forward_rewritten(w, now, pkt);
                self.barrier_input(w, now);
            }
            // Prepare-phase packets do NOT update barrier registers
            // (§5.1) but do prove link liveness.
            Opcode::DataReliable
            | Opcode::Ack
            | Opcode::Nak
            | Opcode::Recall
            | Opcode::RecallAck
                if chip =>
            {
                self.agg.observe_alive(from, now);
                self.forward_rewritten(w, now, pkt);
            }
            // A commodity chip cannot touch barriers; non-1Pipe traffic
            // (raw RPC, management plane) gets no bookkeeping.
            _ => {
                if let Some(to) = w.route(&pkt) {
                    w.forward(to, pkt);
                }
            }
        }
    }

    /// A beacon carrying `(be, commit)` arrived on input `from` at `now`.
    pub fn on_beacon(
        &mut self,
        w: &mut impl SwitchWire,
        now: u64,
        from: NodeId,
        be: Timestamp,
        commit: Timestamp,
    ) {
        self.agg.observe(from, be, commit, now);
        // Hop-by-hop: absorbed here; relayed promptly if the aggregate
        // advanced.
        self.barrier_input(w, now);
    }

    /// The timer armed through [`SwitchWire::set_timer`] fired at `now`.
    pub fn on_timer(&mut self, w: &mut impl SwitchWire, now: u64) {
        self.timer_armed = false;
        if self.is_chip() {
            return self.relay_if_advanced(w, now);
        }
        // CPU/delegate: the processing delay has elapsed; compute the
        // minima and broadcast on every output link.
        let out = self.out(now);
        for p in &self.ports {
            w.beacon(p.to, out.0, out.1);
        }
    }

    /// The periodic tick, once per beacon interval: report inputs silent
    /// past the timeout, then beacon (chip: the idle links; CPU/delegate:
    /// schedule the backstop broadcast).
    pub fn on_tick(&mut self, w: &mut impl SwitchWire, now: u64) {
        for (from, last_commit) in self.agg.detect_dead(now, self.dead_timeout) {
            w.dead_input(from, last_commit);
        }
        if !self.is_chip() {
            return self.barrier_input(w, now);
        }
        // A removed dead input may have advanced the aggregate: relay it
        // to busy links too. Then beacon the links that carried nothing
        // for a full interval.
        self.relay_if_advanced(w, now);
        let interval = self.cfg.beacon_interval;
        self.beacon_where(w, now, |p| now.saturating_sub(p.last_tx) >= interval);
    }

    fn is_chip(&self) -> bool {
        matches!(self.cfg.incarnation, Incarnation::Chip)
    }

    /// The outgoing barriers (eq. 4.1).
    fn out(&mut self, now: u64) -> Barriers {
        (self.agg.out_be(now), self.agg.out_commit(now))
    }

    /// Forward with per-packet barrier rewrite (chip incarnation).
    fn forward_rewritten<W: SwitchWire>(&mut self, w: &mut W, now: u64, mut pkt: W::Packet) {
        let Some(to) = w.route(&pkt) else { return };
        let out = self.out(now);
        let h = w.header(&mut pkt);
        (h.barrier, h.commit_barrier) = out;
        if let Some(i) = self.port_of.get(to) {
            self.ports[i].carry(now, out);
        }
        w.forward(to, pkt);
    }

    /// Chip incarnation: when the aggregated barrier advances, relay it
    /// at once on every output link that has not already carried the new
    /// value. This is what keeps the chip's end-to-end barrier staleness
    /// at ~beacon_interval/2 total rather than per hop (§6.2.1's
    /// expected-delay formula). Busy links are covered for free by
    /// rewritten data packets, which also update the per-link
    /// advertisement.
    fn relay_if_advanced(&mut self, w: &mut impl SwitchWire, now: u64) {
        let out = self.out(now);
        self.relayed = out;
        self.beacon_where(w, now, |p| !covers(p.advertised, out));
    }

    /// Chip: beacon the aggregate of the last relay on every port `due`
    /// picks. Like a rewritten data packet, a beacon counts as traffic on
    /// its link.
    fn beacon_where(&mut self, w: &mut impl SwitchWire, now: u64, due: impl Fn(&OutPort) -> bool) {
        let out = self.relayed;
        for p in self.ports.iter_mut().filter(|p| due(p)) {
            p.carry(now, out);
            w.beacon(p.to, out.0, out.1);
        }
    }

    /// Fresh barrier input: arm the one-shot timer unless it is armed.
    /// The chip arms it only if the aggregate moved past the last relay,
    /// with no delay: the relay is coalesced over simultaneous arrivals
    /// (one wave of synchronized host beacons lands in the same instant)
    /// so it carries the fully aggregated minimum, not the first
    /// fragment. The CPU/delegate recomputes and broadcasts
    /// `processing_delay` later.
    fn barrier_input(&mut self, w: &mut impl SwitchWire, now: u64) {
        if self.timer_armed || (self.is_chip() && covers(self.relayed, self.out(now))) {
            return;
        }
        self.timer_armed = true;
        w.set_timer(match self.cfg.incarnation {
            Incarnation::Chip => 0,
            cpu => cpu.processing_delay().max(1),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use onepipe_types::ids::ProcessId;
    use onepipe_types::wire::{Datagram, Flags};

    /// What the core asked of its wire, timers aside.
    #[derive(Debug, PartialEq)]
    enum Call {
        Forward(NodeId, Datagram),
        Beacon(NodeId, Timestamp, Timestamp),
        Dead(NodeId, Timestamp),
    }

    /// A wire that records every call, with one port per process: a
    /// packet for process `i` leaves on port `NodeId(i)` (the UDP soft
    /// switch's shape).
    #[derive(Default)]
    struct Recorder {
        calls: Vec<Call>,
        /// A timer is armed.
        timer: bool,
    }

    impl SwitchWire for Recorder {
        type Packet = Datagram;
        fn header<'p>(&'p mut self, d: &'p mut Datagram) -> &'p mut PacketHeader {
            &mut d.header
        }
        fn route(&mut self, d: &Datagram) -> Option<NodeId> {
            Some(NodeId(d.dst.0))
        }
        fn forward(&mut self, to: NodeId, d: Datagram) {
            self.calls.push(Call::Forward(to, d));
        }
        fn beacon(&mut self, to: NodeId, be: Timestamp, commit: Timestamp) {
            self.calls.push(Call::Beacon(to, be, commit));
        }
        fn set_timer(&mut self, delay: Duration) {
            assert!(delay == 0 && !self.timer, "one zero-delay timer at a time");
            self.timer = true;
        }
        fn dead_input(&mut self, from: NodeId, last_commit: Timestamp) {
            self.calls.push(Call::Dead(from, last_commit));
        }
    }

    const INTERVAL: Duration = 3 * MICROS;

    fn ts(v: u64) -> Timestamp {
        Timestamp::from_nanos(v)
    }

    /// A chip with one input and one port per process `0..n`, reporting
    /// an input silent for 10 intervals.
    fn chip(n: u32) -> (SwitchCore, Recorder) {
        let links: Vec<NodeId> = (0..n).map(NodeId).collect();
        (
            SwitchCore::new(SwitchConfig::default(), links.clone(), &links, 10 * INTERVAL),
            Recorder::default(),
        )
    }

    /// End the instant `now`: fire the armed zero-delay timer, as a
    /// driver does after the instant's other events, and take every call
    /// made since the last settle.
    fn settle(core: &mut SwitchCore, w: &mut Recorder, now: u64) -> Vec<Call> {
        if std::mem::take(&mut w.timer) {
            core.on_timer(w, now);
        }
        std::mem::take(&mut w.calls)
    }

    fn data(src: u32, dst: u32, barrier: u64) -> Datagram {
        let mut header = PacketHeader::data(ts(barrier), 0, Flags::END_OF_MESSAGE);
        header.commit_barrier = ts(barrier);
        Datagram { src: ProcessId(src), dst: ProcessId(dst), header, payload: Bytes::new() }
    }

    #[test]
    fn an_advance_right_after_a_relay_is_relayed_at_once() {
        let (mut sw, mut w) = chip(2);
        // Two advances 100 ns apart, both between periodic ticks (3 µs).
        for (t, v) in [(1_000, 500), (1_100, 600)] {
            for h in 0..2 {
                sw.on_beacon(&mut w, t, NodeId(h), ts(v), ts(v));
            }
            let relay: Vec<_> = (0..2).map(|p| Call::Beacon(NodeId(p), ts(v), ts(v))).collect();
            assert_eq!(settle(&mut sw, &mut w, t), relay, "at {t}");
            for p in &sw.ports {
                assert_eq!(p.advertised, (ts(v), ts(v)), "port to {:?} at {t}", p.to);
            }
        }
        // A relay beacon is traffic: the next tick skips these links.
        assert!(sw.ports.iter().all(|p| p.last_tx == 1_100));
    }

    #[test]
    fn an_observation_that_leaves_the_aggregate_queues_no_relay() {
        let (mut sw, mut w) = chip(2);
        sw.on_beacon(&mut w, 1_000, NodeId(0), ts(500), ts(500));
        sw.on_beacon(&mut w, 1_000, NodeId(1), ts(700), ts(700));
        settle(&mut sw, &mut w, 1_000);
        assert_eq!(sw.relayed, (ts(500), ts(500)));
        // Input 1 was not the minimum: nothing to relay.
        sw.on_beacon(&mut w, 1_000, NodeId(1), ts(900), ts(900));
        assert!(!sw.timer_armed && !w.timer);
        // Input 0 was: the aggregate moves to 900.
        sw.on_beacon(&mut w, 1_000, NodeId(0), ts(1_000), ts(1_000));
        assert!(sw.timer_armed && w.timer);
    }

    #[test]
    fn forwarding_records_carry_on_the_port_of_a_sparse_neighbor() {
        let (near, far) = (NodeId(3), NodeId(900));
        let mut sw = SwitchCore::new(SwitchConfig::default(), vec![near, far], &[near, far], 0);
        let mut w = Recorder::default();
        for from in [near, far] {
            sw.on_beacon(&mut w, 1_000, from, ts(500), ts(400));
        }
        settle(&mut sw, &mut w, 1_000);
        let before = sw.ports[0].advertised;

        sw.on_packet(&mut w, 2_000, near, data(3, 900, 600));
        let calls = settle(&mut sw, &mut w, 2_000);
        assert!(matches!(&calls[..], [Call::Forward(to, d)] if *to == far
            && (d.header.barrier, d.header.commit_barrier) == (ts(500), ts(400))));
        assert_eq!((sw.ports[1].last_tx, sw.ports[1].advertised), (2_000, (ts(500), ts(400))));
        assert_eq!((sw.ports[0].last_tx, sw.ports[0].advertised), (1_000, before));

        // A route to a node no port leads to forwards and touches no port.
        sw.on_packet(&mut w, 3_000, near, data(3, 7, 600));
        let calls = settle(&mut sw, &mut w, 3_000);
        assert!(matches!(&calls[..], [Call::Forward(NodeId(7), _)]), "{calls:?}");
        assert!(sw.ports.iter().all(|p| p.last_tx < 3_000));
    }

    /// The chip with one port per process: data leaves with the minimum,
    /// an advance is relayed once to each port that lacks it, an idle
    /// port gets one beacon per interval, and a silent input is reported
    /// once.
    #[test]
    fn one_port_per_process_runs_every_chip_rule() {
        let (mut sw, mut w) = chip(3);
        // The ports a batch of calls beaconed, in order.
        let beacons = |calls: &[Call]| -> Vec<u32> {
            let port = |c: &Call| if let Call::Beacon(p, ..) = c { Some(p.0) } else { None };
            calls.iter().filter_map(port).collect()
        };
        for (p, v) in [(0, 300), (1, 200), (2, 400)] {
            sw.on_beacon(&mut w, 1_000, NodeId(p), ts(v), ts(v));
        }
        assert_eq!(beacons(&settle(&mut sw, &mut w, 1_000)), [0, 1, 2]);

        // Process 0's data leaves for process 1 carrying the minimum over
        // all three inputs, its own 500 included.
        sw.on_packet(&mut w, 1_100, NodeId(0), data(0, 1, 500));
        let mut out = data(0, 1, 500);
        (out.header.barrier, out.header.commit_barrier) = (ts(200), ts(200));
        assert_eq!(settle(&mut sw, &mut w, 1_100), [Call::Forward(NodeId(1), out)]);

        // Input 1 advances the aggregate to 400; in the same instant a
        // data packet carries it to port 2. The relay beacons the other
        // two ports, once each.
        sw.on_beacon(&mut w, 1_200, NodeId(1), ts(450), ts(450));
        sw.on_packet(&mut w, 1_200, NodeId(0), data(0, 2, 700));
        let calls = settle(&mut sw, &mut w, 1_200);
        assert!(matches!(&calls[0], Call::Forward(NodeId(2), d) if d.header.barrier == ts(400)));
        assert_eq!(calls[1..], [0, 1].map(|p| Call::Beacon(NodeId(p), ts(400), ts(400))));

        // Idle ports: every port carried something at 1.2 µs, so the 3 µs
        // tick sends nothing; from then on each tick beacons each port
        // once. Inputs keep talking without moving the aggregate.
        for k in 1..=10 {
            let now = k * INTERVAL;
            for (p, v) in [(0, 700), (1, 450), (2, 400)] {
                sw.on_beacon(&mut w, now, NodeId(p), ts(v), ts(v));
            }
            sw.on_tick(&mut w, now);
            let want: &[u32] = if k == 1 { &[] } else { &[0, 1, 2] };
            assert_eq!(beacons(&settle(&mut sw, &mut w, now)), want, "tick at {now}");
        }

        // Input 2 falls silent: reported once, with its last commit, and
        // never again however long the ticks go on.
        let mut dead = Vec::new();
        for k in 11..=40 {
            let now = k * INTERVAL;
            for (p, v) in [(0, 700), (1, 450)] {
                sw.on_beacon(&mut w, now, NodeId(p), ts(v), ts(v));
            }
            sw.on_tick(&mut w, now);
            let calls = settle(&mut sw, &mut w, now);
            dead.extend(calls.into_iter().filter(|c| matches!(c, Call::Dead(..))));
        }
        assert_eq!(dead, [Call::Dead(NodeId(2), ts(400))]);
    }
}
