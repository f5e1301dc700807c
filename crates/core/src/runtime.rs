//! Transport-agnostic host runtime: the one place the host-side pump of
//! 1Pipe is implemented.
//!
//! A [`HostRuntime`] owns everything a 1Pipe host does between the wire
//! and the application, independent of what the wire actually is:
//!
//! * the endpoints of every process placed on the host,
//! * the host's synchronized clock (§4.1 timestamping),
//! * application-hook dispatch and [`SendQueue`] application,
//! * beacon emission (§4.2 — hosts beacon their first-hop switch when
//!   idle) with the flush-before-beacon ordering invariant.
//!
//! It keeps nothing it produces. Everything that leaves a host — packets,
//! deliveries, user events, controller requests, raw messages — leaves
//! through the [`Wire`] its driver passes to each call: the deterministic
//! simulator ([`simhost::HostLogic`]) turns packets into simulator sends
//! and collects the rest for the harness, the UDP transport
//! (`onepipe-udp`) writes packets to a real socket and the rest to the
//! process's channels. Both drivers reduce to glue — receive a datagram →
//! [`HostRuntime::on_datagram`], timer/poll tick → [`HostRuntime::on_tick`]
//! — so the pump semantics (drain order, callback completion, the beacon
//! invariant) exist exactly once.
//!
//! [`simhost::HostLogic`]: crate::simhost::HostLogic

use crate::endpoint::Endpoint;
use crate::events::{CtrlRequest, UserEvent};
use bytes::Bytes;
use onepipe_clock::MonotonicClock;
use onepipe_types::ids::{HostId, ProcessId};
use onepipe_types::message::{Delivered, Message};
use onepipe_types::time::{Duration, Timestamp};
use onepipe_types::wire::{Datagram, Opcode};
use std::sync::{Arc, Mutex};

/// What the runtime needs from its driver: a datagram sink toward the
/// first-hop switch, and somewhere to hand what it produces for the
/// application and the controller. The driver owns the clock: every entry
/// point takes the true (transport) time `now` right after the wire, and
/// pumps with the host clock's one reading of it.
///
/// `emit` receives host-originated packets with `src == HOP_LOCAL`
/// (beacons, commit messages); transports whose switch identifies input
/// links by packet source (the UDP soft switch) rewrite that sentinel to
/// the local process id on the way out.
///
/// `emit` may queue rather than transmit (the UDP driver coalesces an
/// iteration's emissions into batch frames and sends them when the
/// iteration ends), as long as datagrams toward one destination leave in
/// `emit` order: a beacon emitted after data must not overtake it (§4.1).
pub trait Wire {
    /// Queue a datagram toward the first-hop switch.
    fn emit(&mut self, d: Datagram);
    /// A message was delivered to a local process (the [`AppHook`], if
    /// any, has seen it).
    fn deliver(&mut self, rec: DeliveryRecord);
    /// A user event (send failure, recall, commit, process-failure
    /// callback) surfaced on `proc` at true time `at`.
    fn user_event(&mut self, at: u64, proc: ProcessId, ev: UserEvent);
    /// An endpoint of `proc` asks the controller for something at true
    /// time `at`; the driver routes it over the management network.
    fn ctrl_request(&mut self, at: u64, proc: ProcessId, req: CtrlRequest);
    /// A raw (outside-1Pipe) message from `src` arrived for the local
    /// process `receiver` (the [`AppHook`], if any, has seen it).
    fn raw(&mut self, _receiver: ProcessId, _src: ProcessId, _payload: Bytes) {}
}

/// One delivered message, recorded with the true (transport) time.
#[derive(Clone, Debug)]
pub struct DeliveryRecord {
    /// True time of delivery to the application.
    pub at: u64,
    /// The receiving process.
    pub receiver: ProcessId,
    /// The delivered message.
    pub msg: Delivered,
    /// Whether it arrived on the reliable channel.
    pub reliable: bool,
}

/// Sends queued by an application hook, to be issued by the host.
#[derive(Default)]
pub struct SendQueue {
    /// `(sender process, messages, reliable)` triples.
    pub sends: Vec<(ProcessId, Vec<Message>, bool)>,
    /// Raw (unordered) messages: `(from, to, payload)`.
    pub raw: Vec<(ProcessId, ProcessId, Bytes)>,
}

impl SendQueue {
    /// Queue a scattering from `from`.
    pub fn push(&mut self, from: ProcessId, msgs: Vec<Message>, reliable: bool) {
        self.sends.push((from, msgs, reliable));
    }

    /// Queue a unicast message.
    pub fn unicast(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        payload: impl Into<Bytes>,
        reliable: bool,
    ) {
        self.push(from, vec![Message::new(to, payload)], reliable);
    }

    /// Queue a raw (unordered, outside-1Pipe) message — the plain-RDMA RPC
    /// path applications use for responses.
    pub fn push_raw(&mut self, from: ProcessId, to: ProcessId, payload: impl Into<Bytes>) {
        self.raw.push((from, to, payload.into()));
    }

    /// Whether nothing has been queued.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.raw.is_empty()
    }
}

/// Host-side application logic, shared across hosts via `Arc<Mutex>`.
pub trait AppHook: Send {
    /// A message was delivered to `receiver`. Queue any reactions in `out`.
    fn on_delivery(
        &mut self,
        now: u64,
        receiver: ProcessId,
        msg: &Delivered,
        reliable: bool,
        out: &mut SendQueue,
    );

    /// A user event (send failure, recall, process-failure callback)
    /// surfaced on `proc`. Return `true` for `ProcessFailed` events once
    /// the application's callback work is done (the default), `false` to
    /// defer completion (then call `complete_failure_callback` later).
    fn on_user_event(
        &mut self,
        _now: u64,
        _proc: ProcessId,
        _ev: &UserEvent,
        _out: &mut SendQueue,
    ) -> bool {
        true
    }

    /// A raw (outside-1Pipe) message arrived for `receiver`.
    fn on_raw(
        &mut self,
        _now: u64,
        _receiver: ProcessId,
        _src: ProcessId,
        _payload: &Bytes,
        _out: &mut SendQueue,
    ) {
    }

    /// Called once per poll tick per host, for time-driven workloads.
    fn on_tick(&mut self, _now: u64, _host: HostId, _procs: &[ProcessId], _out: &mut SendQueue) {}
}

/// The transport-agnostic host runtime: endpoints + clock + pump.
pub struct HostRuntime {
    /// Which host this is.
    pub host: HostId,
    clock: MonotonicClock,
    /// The endpoints of the processes on this host.
    pub endpoints: Vec<Endpoint>,
    /// Cached process ids (the endpoint set is fixed after construction);
    /// handed to [`AppHook::on_tick`] without a per-tick allocation.
    proc_ids: Vec<ProcessId>,
    app: Option<Arc<Mutex<dyn AppHook>>>,
    beacon_interval: Duration,
    /// Beacon at globally synchronized slots (§4.2) or at a per-host
    /// random phase (the paper's ablation: random phases make a switch
    /// wait for the *last* host's beacon, adding ~a full interval).
    pub synchronized_beacons: bool,
}

impl HostRuntime {
    /// Create the runtime for `host`.
    pub fn new(
        host: HostId,
        clock: MonotonicClock,
        endpoints: Vec<Endpoint>,
        beacon_interval: Duration,
    ) -> Self {
        let proc_ids = endpoints.iter().map(|e| e.id()).collect();
        HostRuntime {
            host,
            clock,
            endpoints,
            proc_ids,
            app: None,
            beacon_interval,
            synchronized_beacons: true,
        }
    }

    /// Attach the shared application hook.
    pub fn set_app(&mut self, app: Arc<Mutex<dyn AppHook>>) {
        self.app = Some(app);
    }

    /// Inject a clock-skew spike of `offset_ns` at true time `true_now`
    /// (chaos testing). Negative spikes are absorbed by the monotonic slew.
    pub fn perturb_clock(&mut self, true_now: u64, offset_ns: f64) {
        self.clock.perturb(true_now, offset_ns);
    }

    /// The endpoint of process `p`, if it lives here.
    pub fn endpoint_mut(&mut self, p: ProcessId) -> Option<&mut Endpoint> {
        self.endpoints.iter_mut().find(|e| e.id() == p)
    }

    /// Issue a scattering from a local process right now, returning the
    /// assigned timestamp and the scattering sequence number — chaos
    /// oracles join delivery records to registered sends by
    /// `(sender, seq)`.
    pub fn submit_send(
        &mut self,
        wire: &mut impl Wire,
        now: u64,
        from: ProcessId,
        msgs: Vec<Message>,
        reliable: bool,
    ) -> onepipe_types::Result<(Timestamp, u64)> {
        let local = self.clock.now(now);
        let ep = self.endpoint_mut(from).ok_or(onepipe_types::Error::UnknownProcess(from))?;
        let sid = if reliable {
            ep.send_reliable(local, msgs)?
        } else {
            ep.send_unreliable(local, msgs)?
        };
        // Report the timestamp the scattering was actually assigned — the
        // endpoint clamps the raw clock reading (monotonicity, commit
        // barrier, observed deliveries), so `local` may be too low.
        let ts = ep.last_assigned_ts();
        self.drain(wire, now, local);
        Ok((ts, sid.seq))
    }

    /// Send a raw (unordered, outside-1Pipe) message from a local process.
    pub fn submit_raw(
        &mut self,
        wire: &mut impl Wire,
        now: u64,
        from: ProcessId,
        to: ProcessId,
        payload: impl Into<Bytes>,
    ) {
        if let Some(ep) = self.endpoint_mut(from) {
            ep.send_raw(to, payload);
        }
        self.flush(wire, now);
    }

    /// Deliver a controller failure announcement to a local process.
    pub fn deliver_announcement(
        &mut self,
        wire: &mut impl Wire,
        now: u64,
        to: ProcessId,
        announce_id: u64,
        failures: &[(ProcessId, Timestamp)],
    ) {
        let local = self.clock.now(now);
        if let Some(ep) = self.endpoint_mut(to) {
            ep.on_failure_announcement(local, announce_id, failures);
        }
        self.drain(wire, now, local);
    }

    /// Deliver a controller-forwarded datagram to a local process.
    pub fn deliver_forwarded(&mut self, wire: &mut impl Wire, now: u64, d: Datagram) {
        let local = self.clock.now(now);
        if let Some(ep) = self.endpoint_mut(d.dst) {
            ep.handle_datagram(local, d);
        }
        self.drain(wire, now, local);
    }

    /// Process one datagram arriving from the wire.
    pub fn on_datagram(&mut self, wire: &mut impl Wire, now: u64, d: Datagram) {
        let local = self.clock.now(now);
        self.ingest(wire, now, local, d);
        self.drain(wire, now, local);
    }

    /// [`on_datagram`](Self::on_datagram) of a beacon carrying barriers
    /// `be` and `commit`, for a transport that has them without the
    /// datagram around them.
    pub fn on_beacon(&mut self, wire: &mut impl Wire, now: u64, be: Timestamp, commit: Timestamp) {
        let local = self.clock.now(now);
        self.on_barrier(be, commit);
        self.drain(wire, now, local);
    }

    /// Barriers received from the first-hop switch reach every endpoint.
    fn on_barrier(&mut self, be: Timestamp, commit: Timestamp) {
        for ep in &mut self.endpoints {
            ep.on_barrier(be, commit);
        }
    }

    /// Dispatch one datagram received at true time `now` (clock reading
    /// `local`) to the endpoints / app hook, without draining outputs
    /// (callers drain).
    fn ingest(&mut self, wire: &mut impl Wire, now: u64, local: Timestamp, d: Datagram) {
        match d.header.opcode {
            Opcode::Beacon => self.on_barrier(d.header.barrier, d.header.commit_barrier),
            // Raw application RPC, or background traffic: outside 1Pipe,
            // so straight to the application — the hook, then the driver.
            Opcode::Control => {
                if self.proc_ids.contains(&d.dst) {
                    if let Some(app) = &self.app {
                        let mut queue = SendQueue::default();
                        app.lock().unwrap().on_raw(now, d.dst, d.src, &d.payload, &mut queue);
                        self.apply_queue(local, queue);
                    }
                    wire.raw(d.dst, d.src, d.payload);
                }
            }
            _ => {
                let dst = d.dst;
                if let Some(ep) = self.endpoint_mut(dst) {
                    ep.handle_datagram(local, d);
                }
            }
        }
    }

    /// One poll tick: advance endpoint timers, run the application's
    /// time-driven hook, flush, then beacon. Drivers call this at the
    /// times [`next_tick_at`](Self::next_tick_at) reports.
    pub fn on_tick(&mut self, wire: &mut impl Wire, now: u64) {
        let local = self.clock.now(now);
        for ep in &mut self.endpoints {
            ep.poll(local);
        }
        // App time-driven workload.
        if let Some(app) = &self.app {
            let mut queue = SendQueue::default();
            app.lock().unwrap().on_tick(now, self.host, &self.proc_ids, &mut queue);
            self.apply_queue(local, queue);
        }
        self.drain(wire, now, local);
        self.emit_beacon(wire, local);
    }

    /// True time of the next poll/beacon tick after `now`: the next
    /// beacon-interval slot, phase-shifted per host unless beacons are
    /// synchronized.
    pub fn next_tick_at(&self, now: u64) -> u64 {
        let t = self.beacon_interval;
        let phase = if self.synchronized_beacons {
            0
        } else {
            // Stable per-host pseudo-random phase.
            (self.host.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % t
        };
        let delay = t - ((now + t - phase) % t);
        now + delay.max(1)
    }

    /// Drain endpoint outputs into the wire: transmissions, deliveries,
    /// events, control requests — then run application reactions.
    pub fn flush(&mut self, wire: &mut impl Wire, now: u64) {
        let local = self.clock.now(now);
        self.drain(wire, now, local);
    }

    /// [`flush`](Self::flush) with the clock already read.
    fn drain(&mut self, wire: &mut impl Wire, now: u64, local: Timestamp) {
        // Application reactions can produce more output; nothing else can,
        // so a pass that queued none leaves every endpoint drained.
        for _round in 0..8 {
            let mut queue = SendQueue::default();
            for ep in &mut self.endpoints {
                // Transmissions.
                while let Some(d) = ep.poll_transmit() {
                    wire.emit(d);
                }
                // Deliveries: the hook sees the message, the driver keeps it.
                let receiver = ep.id();
                for reliable in [false, true] {
                    while let Some(msg) =
                        if reliable { ep.recv_reliable() } else { ep.recv_unreliable() }
                    {
                        if let Some(app) = &self.app {
                            app.lock()
                                .unwrap()
                                .on_delivery(now, receiver, &msg, reliable, &mut queue);
                        }
                        wire.deliver(DeliveryRecord { at: now, receiver, msg, reliable });
                    }
                }
                // User events.
                while let Some(ev) = ep.poll_event() {
                    let mut complete = true;
                    if let Some(app) = &self.app {
                        complete =
                            app.lock().unwrap().on_user_event(now, receiver, &ev, &mut queue);
                    }
                    if complete {
                        if let UserEvent::ProcessFailed { announce_id, .. } = &ev {
                            ep.complete_failure_callback(*announce_id);
                        }
                    }
                    wire.user_event(now, receiver, ev);
                }
                // Controller requests.
                while let Some(req) = ep.poll_ctrl() {
                    wire.ctrl_request(now, receiver, req);
                }
            }
            // Application-queued sends.
            if queue.is_empty() || !self.apply_queue(local, queue) {
                break;
            }
        }
    }

    /// Apply a [`SendQueue`] to the local endpoints; `true` if anything
    /// was issued.
    fn apply_queue(&mut self, local: Timestamp, queue: SendQueue) -> bool {
        let mut any = false;
        for (from, msgs, reliable) in queue.sends {
            if let Some(ep) = self.endpoint_mut(from) {
                any = true;
                let _ = if reliable {
                    ep.send_reliable(local, msgs)
                } else {
                    ep.send_unreliable(local, msgs)
                };
            }
        }
        for (from, to, payload) in queue.raw {
            if let Some(ep) = self.endpoint_mut(from) {
                any = true;
                ep.send_raw(to, payload);
            }
        }
        any
    }

    /// Emit the host beacon. Callers must [`flush`](Self::flush) first
    /// (as [`on_tick`](Self::on_tick) does): the beacon advertises the
    /// clock as a lower bound on *future* message timestamps, so it must
    /// never overtake already-stamped packets still queued in an
    /// endpoint's output — FIFO on the host→switch link, §4.1.
    ///
    /// Hosts beacon every interval unconditionally: a data packet sent
    /// moments ago carried barrier = its own msg_ts, which is *not*
    /// strictly above it — delivery of that very message still needs a
    /// later barrier from this host. The bandwidth cost is the 0.3 % of
    /// Figure 13b.
    fn emit_beacon(&mut self, wire: &mut impl Wire, local: Timestamp) {
        // The host's contribution: its (shared) clock for the best-effort
        // barrier, and the min over local processes for the commit barrier.
        // (A u64::MAX-style sentinel would be wrong here: 48-bit ring
        // comparison has no global maximum.)
        let mut be = local;
        let mut commit = local;
        for ep in &mut self.endpoints {
            be = be.min(ep.be_contribution(local));
            commit = commit.min(ep.commit_contribution(local));
        }
        wire.emit(Datagram::beacon(be, commit));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EndpointConfig;
    use crate::endpoint::HOP_LOCAL;
    use onepipe_types::time::MICROS;

    /// One call a runtime made on its wire.
    #[derive(Debug)]
    enum Call {
        Emit(Datagram),
        Deliver(DeliveryRecord),
        UserEvent(ProcessId, UserEvent),
        CtrlRequest(ProcessId, CtrlRequest),
        Raw(ProcessId, ProcessId, Bytes),
    }

    /// A wire that keeps every call, in order.
    #[derive(Default)]
    struct Recorder {
        calls: Vec<Call>,
    }

    impl Wire for Recorder {
        fn emit(&mut self, d: Datagram) {
            self.calls.push(Call::Emit(d));
        }
        fn deliver(&mut self, rec: DeliveryRecord) {
            self.calls.push(Call::Deliver(rec));
        }
        fn user_event(&mut self, _at: u64, proc: ProcessId, ev: UserEvent) {
            self.calls.push(Call::UserEvent(proc, ev));
        }
        fn ctrl_request(&mut self, _at: u64, proc: ProcessId, req: CtrlRequest) {
            self.calls.push(Call::CtrlRequest(proc, req));
        }
        fn raw(&mut self, receiver: ProcessId, src: ProcessId, payload: Bytes) {
            self.calls.push(Call::Raw(receiver, src, payload));
        }
    }

    impl Recorder {
        /// What the first-hop switch would forward: every datagram emitted
        /// for a process leaves the record and arrives at `peer` at `now`.
        fn forward_to(&mut self, peer: &mut HostRuntime, peer_wire: &mut Recorder, now: u64) {
            for call in std::mem::take(&mut self.calls) {
                match call {
                    Call::Emit(d) if d.dst != HOP_LOCAL => peer.on_datagram(peer_wire, now, d),
                    kept => self.calls.push(kept),
                }
            }
        }
    }

    /// A host with the single process `p` on a perfect clock.
    fn host(p: u32) -> HostRuntime {
        let endpoints = vec![Endpoint::new(ProcessId(p), EndpointConfig::default())];
        HostRuntime::new(HostId(p), MonotonicClock::perfect(), endpoints, 3 * MICROS)
    }

    /// Records raw payloads; answers `ProcessFailed` callbacks with `done`.
    struct Hook {
        done: bool,
        raws: Arc<Mutex<Vec<Bytes>>>,
    }

    impl AppHook for Hook {
        fn on_delivery(&mut self, _: u64, _: ProcessId, _: &Delivered, _: bool, _: &mut SendQueue) {
        }
        fn on_user_event(
            &mut self,
            _: u64,
            _: ProcessId,
            _: &UserEvent,
            _: &mut SendQueue,
        ) -> bool {
            self.done
        }
        fn on_raw(&mut self, _: u64, _: ProcessId, _: ProcessId, p: &Bytes, _: &mut SendQueue) {
            self.raws.lock().unwrap().push(p.clone());
        }
    }

    #[test]
    fn a_tick_drains_its_data_before_the_beacon() {
        let mut rt = host(0);
        let mut wire = Recorder::default();
        // Stamped and queued in the endpoint, not yet drained.
        let msgs = vec![Message::new(ProcessId(1), "a"), Message::new(ProcessId(2), "b")];
        rt.endpoints[0].send_unreliable(Timestamp::from_nanos(8_000), msgs).unwrap();
        rt.on_tick(&mut wire, 9_000);
        let opcodes: Vec<Opcode> = wire
            .calls
            .iter()
            .map(|c| match c {
                Call::Emit(d) => d.header.opcode,
                other => panic!("a tick with nothing to report called {other:?}"),
            })
            .collect();
        assert_eq!(opcodes, [Opcode::Data, Opcode::Data, Opcode::Beacon]);
    }

    #[test]
    fn a_reliable_round_trip_delivers_once_and_commits_once() {
        let (mut a, mut b) = (host(0), host(1));
        let (mut wa, mut wb) = (Recorder::default(), Recorder::default());
        let now = 10_000;
        let (ts, _) = a
            .submit_send(&mut wa, now, ProcessId(0), vec![Message::new(ProcessId(1), "x")], true)
            .unwrap();
        wa.forward_to(&mut b, &mut wb, now); // Prepare
        wb.forward_to(&mut a, &mut wa, now); // ACK
        assert!(
            wa.calls.iter().any(
                |c| matches!(c, Call::Emit(d) if d.header.opcode == Opcode::Commit && d.dst == HOP_LOCAL)
            ),
            "the full ACK sends a Commit to the first-hop switch: {:?}",
            wa.calls
        );
        assert!(!wb.calls.iter().any(|c| matches!(c, Call::Deliver(_))), "not before the barrier");
        let above = Timestamp::from_nanos(ts.raw() + 1);
        b.on_beacon(&mut wb, now, above, above);

        let all: Vec<&Call> = wa.calls.iter().chain(&wb.calls).collect();
        let delivered: Vec<_> = all
            .iter()
            .filter_map(|c| match c {
                Call::Deliver(rec) => Some((rec.receiver, rec.msg.src, rec.msg.ts, rec.reliable)),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, [(ProcessId(1), ProcessId(0), ts, true)]);
        let events: Vec<_> = all
            .iter()
            .filter_map(|c| match c {
                Call::UserEvent(p, ev) => Some((*p, ev)),
                _ => None,
            })
            .collect();
        assert!(
            matches!(events[..], [(ProcessId(0), UserEvent::Committed { ts: t, .. })] if *t == ts),
            "{events:?}"
        );
        assert!(!all.iter().any(|c| matches!(c, Call::CtrlRequest(..))));
    }

    #[test]
    fn a_black_holed_peer_is_escalated_to_the_controller_once() {
        let mut rt = host(0);
        let mut wire = Recorder::default();
        let mut now = 1_000;
        rt.submit_send(&mut wire, now, ProcessId(0), vec![Message::new(ProcessId(1), "x")], true)
            .unwrap();
        // Twenty RTOs (100 µs) pass and nothing comes back.
        for _ in 0..20 {
            now += 150 * MICROS;
            rt.on_tick(&mut wire, now);
        }
        let forwards: Vec<_> = wire
            .calls
            .iter()
            .filter_map(|c| match c {
                Call::CtrlRequest(p, CtrlRequest::Forward { dgram }) => Some((*p, dgram.dst)),
                Call::CtrlRequest(_, other) => panic!("unexpected request {other:?}"),
                _ => None,
            })
            .collect();
        assert_eq!(forwards, [(ProcessId(0), ProcessId(1))]);
    }

    #[test]
    fn a_failure_callback_completes_when_the_hook_says_so() {
        let completions = |wire: &Recorder| {
            wire.calls
                .iter()
                .filter(|c| {
                    matches!(
                        c,
                        Call::CtrlRequest(
                            ProcessId(0),
                            CtrlRequest::CallbackComplete { announce_id: 7 }
                        )
                    )
                })
                .count()
        };
        let failures = [(ProcessId(5), Timestamp::from_nanos(4_000))];
        for hook in [None, Some(true), Some(false)] {
            let mut rt = host(0);
            if let Some(done) = hook {
                rt.set_app(Arc::new(Mutex::new(Hook { done, raws: Arc::default() })));
            }
            let mut wire = Recorder::default();
            rt.deliver_announcement(&mut wire, 10_000, ProcessId(0), 7, &failures);
            let announced = wire
                .calls
                .iter()
                .filter(|c| matches!(c, Call::UserEvent(_, UserEvent::ProcessFailed { .. })))
                .count();
            assert_eq!(announced, 1, "the driver sees the event whatever the hook answers");
            let deferred = hook == Some(false);
            assert_eq!(completions(&wire), if deferred { 0 } else { 1 }, "hook {hook:?}");
            // A deferring application completes the callback itself, later.
            rt.endpoints[0].complete_failure_callback(7);
            rt.flush(&mut wire, 10_000);
            assert_eq!(completions(&wire), 1, "hook {hook:?}");
        }
    }

    #[test]
    fn a_raw_message_reaches_hook_and_driver_only_at_its_process() {
        let mut sender = host(0);
        let mut out = Recorder::default();
        sender.submit_raw(&mut out, 10_000, ProcessId(0), ProcessId(1), "rpc");
        sender.submit_raw(&mut out, 10_000, ProcessId(0), ProcessId(9), "elsewhere");

        let raws = Arc::new(Mutex::new(Vec::new()));
        let mut rt = host(1);
        rt.set_app(Arc::new(Mutex::new(Hook { done: true, raws: raws.clone() })));
        let mut wire = Recorder::default();
        out.forward_to(&mut rt, &mut wire, 10_000);
        assert!(out.calls.is_empty(), "both left for the switch");

        assert_eq!(*raws.lock().unwrap(), [Bytes::from_static(b"rpc")]);
        assert!(
            matches!(&wire.calls[..], [Call::Raw(ProcessId(1), ProcessId(0), p)] if p == &Bytes::from_static(b"rpc")),
            "{:?}",
            wire.calls
        );
    }
}
