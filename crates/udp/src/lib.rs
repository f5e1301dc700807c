//! Real UDP transport for 1Pipe.
//!
//! Runs the same transport-agnostic [`HostRuntime`] the simulator uses
//! over genuine `std::net::UdpSocket`s, in one rack:
//!
//! * every process is a [`UdpProcess`]: a socket + a driver thread that
//!   adapts the runtime to the socket (the pump itself — drain order,
//!   beacon cadence, ctrl routing — lives in `onepipe_core::runtime`);
//! * a *soft switch* process plays the ToR: it runs the same
//!   [`SwitchCore`] the simulated switches run, as the programmable chip
//!   (§6.2.1) with one port per process — every forwarded packet carries
//!   the rewritten barrier minimum, each advance is relayed at once and
//!   only idle links get a beacon — and reports input links that fall
//!   silent to the controller;
//! * a **replicated controller**: three controller replica processes,
//!   each a socket + thread running a [`ReplicatedController`] — Raft
//!   traffic travels as [`MgmtFrame::Raft`] datagrams between replicas,
//!   and only the elected leader emits Announce/Resume decisions
//!   (epoch-tagged so hosts and the switch fence off deposed leaders).
//!   Replicas can be killed at runtime ([`UdpCluster::kill_controller`]);
//!   the survivors elect a new leader that re-drives in-flight recoveries.
//!
//! Control requests — a process's and the switch's Detect reports alike —
//! take one path, run by the same sans-I/O roles the simulator drives:
//! a [`CtrlClient`] sends each as a [`MgmtFrame::Req`] to every replica
//! and re-sends it with capped backoff ([`RetryPolicy`]) until the leader
//! acknowledges it *on commit* ([`MgmtFrame::Ack`]). Only the leader logs
//! a request, so no client needs to know which replica leads.
//!
//! Degradation contract: while no controller leader exists, best-effort
//! traffic keeps flowing (beacons and the data plane never touch the
//! controller) and failure-free reliable traffic commits normally; only
//! *recovery* — and therefore reliable progress past a failed component —
//! stalls until a new leader is elected and the retried reports drain
//! into its log.
//!
//! **Batched data plane.** All I/O goes through the batching layer in
//! `batch.rs`: every thread receives through one routine (`PacketRx`)
//! that drains multiple frames per pump, copies each into a buffer of
//! exactly its length, decodes payloads as slices of that copy and
//! counts what it could not decode; transmits accumulate in a `PacketTx`
//! and coalesce per destination into multi-datagram batch frames
//! (`onepipe_types::wire::BATCH_MAGIC`), so one syscall carries data +
//! ACKs + commits + the beacon of a pump. [`UdpCluster::stats`] surfaces
//! the frame/datagram/decode-error counters — undecodable input is
//! counted, never silently dropped.
//!
//! **Pluggable application.** A process's deliveries, user events and raw
//! messages leave its runtime through the driver's `Wire`, which puts
//! them on the [`UdpProcess`] channels. [`UdpClusterBuilder::app_hook`]
//! installs an [`AppHook`] as the runtime's application in addition — it
//! sees each of them first and may react — which is how `onepipe-log`
//! runs over this transport end-to-end.
//!
//! Timestamps come from a shared monotonic epoch (`Instant`), so all
//! processes in one [`UdpCluster`] share a perfectly synchronized clock —
//! the single-machine analogue of PTP.
//!
//! [`HostRuntime`]: onepipe_core::runtime::HostRuntime
//! [`SwitchCore`]: onepipe_switchlogic::SwitchCore
//! [`ReplicatedController`]: onepipe_controller::ReplicatedController
//! [`MgmtFrame`]: onepipe_controller::MgmtFrame
//! [`MgmtFrame::Raft`]: onepipe_controller::MgmtFrame::Raft
//! [`MgmtFrame::Req`]: onepipe_controller::MgmtFrame::Req
//! [`MgmtFrame::Ack`]: onepipe_controller::MgmtFrame::Ack
//! [`RetryPolicy`]: onepipe_controller::RetryPolicy
//! [`CtrlClient`]: onepipe_controller::CtrlClient

#![warn(missing_docs)]

pub mod batch;

use crate::batch::{
    PacketRx, PacketTx, UdpStats, UdpStatsSnapshot, RX_BURST_MAX, RX_CTRL_IDLE, RX_IDLE,
};
use onepipe_clock::MonotonicClock;
use onepipe_controller::protocol::ActionDest;
use onepipe_controller::raft::RaftConfig;
use onepipe_controller::{
    CtrlAction, CtrlClient, CtrlEvent, FailureDomains, MgmtFrame, Output, ReplicatedController,
    RetryPolicy, REPLICAS,
};
use onepipe_core::config::EndpointConfig;
use onepipe_core::endpoint::{Endpoint, HOP_LOCAL};
use onepipe_core::events::{CtrlRequest, UserEvent};
use onepipe_core::runtime::{AppHook, DeliveryRecord, HostRuntime, Wire};
use onepipe_switchlogic::{SwitchConfig, SwitchCore, SwitchWire};
use onepipe_types::ids::{HostId, NodeId, ProcessId};
use onepipe_types::message::{Delivered, Message};
use onepipe_types::time::{Duration as NsDuration, Timestamp, MICROS, MILLIS};
use onepipe_types::wire::{Datagram, Opcode, PacketHeader};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A process's control requests: first resend after 50 ms, doubling to a
/// 400 ms cap; 8 attempts ≈ 2 s of cover — enough for an election plus
/// commit round-trips on a loaded CI machine.
const HOST_RETRY: RetryPolicy =
    RetryPolicy { base: 50 * MILLIS, cap: 400 * MILLIS, max_attempts: 8 };

/// The soft switch's Detect reports: every 100 ms until the leader acks the
/// commit, never giving up, so a report outlives any controller outage.
/// Once committed, the log owns it: a new leader re-drives the Resume.
const SWITCH_RETRY: RetryPolicy =
    RetryPolicy { base: 100 * MILLIS, cap: 100 * MILLIS, max_attempts: u32::MAX };

/// Beacon interval of the hosts and the soft switch. Loopback scheduling
/// granularity is coarser than a real NIC, hence 100 µs rather than the
/// testbed's 3 µs.
const BEACON_INTERVAL: NsDuration = 100 * MICROS;

/// Commands from the application to a process driver thread.
enum Cmd {
    Send {
        msgs: Vec<Message>,
        reliable: bool,
        reply: Option<Sender<onepipe_types::Result<(Timestamp, u64)>>>,
    },
    SendRaw {
        to: ProcessId,
        payload: bytes::Bytes,
    },
}

/// Handle to one live 1Pipe process.
pub struct UdpProcess {
    id: ProcessId,
    cmd_tx: Sender<Cmd>,
    delivered_rx: Receiver<(Delivered, bool)>,
    events_rx: Receiver<UserEvent>,
    raw_rx: Receiver<(ProcessId, bytes::Bytes)>,
    kill: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl UdpProcess {
    /// This process's id.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Submit a best-effort scattering.
    pub fn send_unreliable(&self, msgs: Vec<Message>) {
        let _ = self.cmd_tx.send(Cmd::Send { msgs, reliable: false, reply: None });
    }

    /// Submit a reliable scattering.
    pub fn send_reliable(&self, msgs: Vec<Message>) {
        let _ = self.cmd_tx.send(Cmd::Send { msgs, reliable: true, reply: None });
    }

    /// Submit a scattering and wait for the driver to issue it, returning
    /// the assigned timestamp and scattering sequence number — the join
    /// key chaos oracles use to match deliveries to sends.
    pub fn send_traced(
        &self,
        msgs: Vec<Message>,
        reliable: bool,
        timeout: Duration,
    ) -> Option<(Timestamp, u64)> {
        let (tx, rx) = channel();
        let _ = self.cmd_tx.send(Cmd::Send { msgs, reliable, reply: Some(tx) });
        rx.recv_timeout(timeout).ok().and_then(|r| r.ok())
    }

    /// Send a raw (unordered) message.
    pub fn send_raw(&self, to: ProcessId, payload: impl Into<bytes::Bytes>) {
        let _ = self.cmd_tx.send(Cmd::SendRaw { to, payload: payload.into() });
    }

    /// Blocking receive of the next ordered delivery; the flag is `true`
    /// for the reliable channel.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<(Delivered, bool)> {
        self.delivered_rx.recv_timeout(timeout).ok()
    }

    /// Non-blocking drain of pending deliveries.
    pub fn try_recv_all(&self) -> Vec<(Delivered, bool)> {
        self.delivered_rx.try_iter().collect()
    }

    /// Drain pending user events.
    pub fn try_events(&self) -> Vec<UserEvent> {
        self.events_rx.try_iter().collect()
    }

    /// Drain pending raw messages.
    pub fn try_raw(&self) -> Vec<(ProcessId, bytes::Bytes)> {
        self.raw_rx.try_iter().collect()
    }
}

/// Handle to one controller replica thread.
struct ControllerHandle {
    kill: Arc<AtomicBool>,
    is_leader: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

/// What every driver thread knows about its cluster: everyone's address,
/// the shared clock epoch, the shared counters and the stop flag.
#[derive(Clone)]
struct Net {
    switch_addr: SocketAddr,
    ctrl_addrs: Vec<SocketAddr>,
    proc_addrs: Vec<SocketAddr>,
    epoch: Instant,
    stats: Arc<UdpStats>,
    ctrl_retries: Arc<AtomicU64>,
    ctrl_drops: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
}

/// Configures and spawns a [`UdpCluster`] — the one way to build one.
pub struct UdpClusterBuilder {
    n: usize,
    dead_timeout: NsDuration,
    ctrl_start_delay: Duration,
    app: Option<Arc<Mutex<dyn AppHook>>>,
}

impl UdpClusterBuilder {
    /// A cluster of `n` processes: 3 controller replicas, 100 µs beacons,
    /// 1 s dead-link timeout, `EndpointConfig::default()` under the
    /// loopback floors (RTO 20 ms, best-effort ack timeout 100 ms).
    pub fn new(n: usize) -> Self {
        UdpClusterBuilder {
            n,
            dead_timeout: 1000 * MILLIS,
            ctrl_start_delay: Duration::ZERO,
            app: None,
        }
    }

    /// How long an input link may stay silent before the soft switch
    /// reports it dead (§5.2 Detect).
    pub fn dead_timeout(mut self, timeout: NsDuration) -> Self {
        self.dead_timeout = timeout;
        self
    }

    /// Test knob: every controller replica sleeps this long before
    /// participating, creating a startup controller-outage window that
    /// exercises the host/switch retry paths.
    pub fn ctrl_start_delay(mut self, delay: Duration) -> Self {
        self.ctrl_start_delay = delay;
        self
    }

    /// Install one application hook shared by every process (the
    /// `onepipe-log` shape; hooks run strictly per-process reactions, so
    /// sharing is safe). It runs ahead of the channel forwarding, so
    /// [`UdpProcess`] receive methods keep working alongside it.
    pub fn app_hook(mut self, hook: Arc<Mutex<dyn AppHook>>) -> Self {
        self.app = Some(hook);
        self
    }

    /// Bind the sockets and spawn the switch / controller / process
    /// threads.
    pub fn build(self) -> std::io::Result<UdpCluster> {
        let UdpClusterBuilder { n, dead_timeout, ctrl_start_delay, app } = self;
        // Bind sockets first so everyone knows everyone's address.
        let bind = |count: usize| -> std::io::Result<(Vec<UdpSocket>, Vec<SocketAddr>)> {
            let socks = (0..count)
                .map(|_| UdpSocket::bind("127.0.0.1:0"))
                .collect::<Result<Vec<_>, _>>()?;
            let addrs = socks.iter().map(UdpSocket::local_addr).collect::<Result<_, _>>()?;
            Ok((socks, addrs))
        };
        let switch_sock = UdpSocket::bind("127.0.0.1:0")?;
        let (ctrl_socks, ctrl_addrs) = bind(REPLICAS)?;
        let (proc_socks, proc_addrs) = bind(n)?;
        let net = Net {
            switch_addr: switch_sock.local_addr()?,
            ctrl_addrs,
            proc_addrs,
            epoch: Instant::now(),
            stats: Arc::new(UdpStats::default()),
            ctrl_retries: Arc::new(AtomicU64::new(0)),
            ctrl_drops: Arc::new(AtomicU64::new(0)),
            stop: Arc::new(AtomicBool::new(false)),
        };

        // The soft switch thread.
        let switch_net = net.clone();
        let threads = vec![std::thread::spawn(move || {
            run_soft_switch(switch_sock, switch_net, dead_timeout)
        })];

        // The controller replicas.
        let mut controllers = Vec::new();
        for (i, sock) in ctrl_socks.into_iter().enumerate() {
            let kill = Arc::new(AtomicBool::new(false));
            let is_leader = Arc::new(AtomicBool::new(false));
            let ctx = ReplicaCtx {
                id: i as u32,
                sock,
                net: net.clone(),
                start_delay: ctrl_start_delay,
                is_leader: is_leader.clone(),
                kill: kill.clone(),
            };
            let thread = std::thread::spawn(move || run_controller_replica(ctx));
            controllers.push(ControllerHandle { kill, is_leader, thread: Some(thread) });
        }

        // One driver thread per process.
        let mut processes = Vec::new();
        for (i, sock) in proc_socks.into_iter().enumerate() {
            let id = ProcessId(i as u32);
            let (cmd_tx, cmd_rx) = channel();
            let (del_tx, delivered_rx) = channel();
            let (ev_tx, events_rx) = channel();
            let (raw_tx, raw_rx) = channel();
            let kill = Arc::new(AtomicBool::new(false));
            let ctx = ProcessCtx {
                id,
                sock,
                net: net.clone(),
                user_app: app.clone(),
                cmd_rx,
                del_tx,
                ev_tx,
                raw_tx,
                kill: kill.clone(),
            };
            let thread = std::thread::spawn(move || run_process(ctx));
            processes.push(UdpProcess {
                id,
                cmd_tx,
                delivered_rx,
                events_rx,
                raw_rx,
                kill,
                thread: Some(thread),
            });
        }

        Ok(UdpCluster { processes, controllers, threads, net })
    }
}

/// A live single-rack 1Pipe deployment over UDP loopback.
pub struct UdpCluster {
    processes: Vec<UdpProcess>,
    controllers: Vec<ControllerHandle>,
    /// Infrastructure threads other than controllers: the soft switch.
    threads: Vec<JoinHandle<()>>,
    net: Net,
}

impl UdpCluster {
    /// Cluster-wide transport I/O counters (all hosts + switch +
    /// controllers): frames vs datagrams, bytes, decode errors, and the
    /// TX batch-size histogram.
    pub fn stats(&self) -> UdpStatsSnapshot {
        self.net.stats.snapshot()
    }

    /// Address of the soft switch — every data-plane packet in the
    /// cluster transits it. Exposed so tests and external tools can
    /// inject raw frames.
    pub fn switch_addr(&self) -> SocketAddr {
        self.net.switch_addr
    }

    /// Handle to process `i`.
    pub fn process(&self, i: usize) -> &UdpProcess {
        &self.processes[i]
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.processes.len()
    }

    /// True when the cluster has no processes.
    pub fn is_empty(&self) -> bool {
        self.processes.is_empty()
    }

    /// Number of controller replicas.
    pub fn controller_count(&self) -> usize {
        self.controllers.len()
    }

    /// The live controller replica currently believing itself leader, if
    /// any (transiently `None` during elections).
    pub fn controller_leader(&self) -> Option<usize> {
        self.controllers
            .iter()
            .position(|c| !c.kill.load(Ordering::SeqCst) && c.is_leader.load(Ordering::SeqCst))
    }

    /// Control requests re-sent for want of an ack, by processes and by
    /// the soft switch — nonzero whenever the retry machinery actually
    /// ran.
    pub fn ctrl_retries(&self) -> u64 {
        self.net.ctrl_retries.load(Ordering::SeqCst)
    }

    /// Process control requests abandoned after exhausting their retry
    /// budget (the switch's never run out).
    pub fn ctrl_drops(&self) -> u64 {
        self.net.ctrl_drops.load(Ordering::SeqCst)
    }

    /// Fail-stop process `i`: its driver thread exits (beacons cease, its
    /// socket closes) while the rest of the cluster keeps running — the
    /// loopback analogue of yanking a host's power cord.
    pub fn kill(&mut self, i: usize) {
        let p = &mut self.processes[i];
        p.kill.store(true, Ordering::SeqCst);
        if let Some(t) = p.thread.take() {
            let _ = t.join();
        }
    }

    /// Fail-stop controller replica `i`. With 3 replicas the survivors
    /// elect a new leader that re-drives any in-flight recovery.
    pub fn kill_controller(&mut self, i: usize) {
        let c = &mut self.controllers[i];
        c.kill.store(true, Ordering::SeqCst);
        c.is_leader.store(false, Ordering::SeqCst);
        if let Some(t) = c.thread.take() {
            let _ = t.join();
        }
    }

    /// Stop all threads and wait for them (equivalent to dropping).
    pub fn shutdown(self) {}

    fn stop_and_join(&mut self) {
        self.net.stop.store(true, Ordering::SeqCst);
        for p in &mut self.processes {
            if let Some(t) = p.thread.take() {
                let _ = t.join();
            }
        }
        for c in &mut self.controllers {
            if let Some(t) = c.thread.take() {
                let _ = t.join();
            }
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for UdpCluster {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn now_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// The soft switch's [`SwitchWire`]: port `NodeId(i)` leads to process
/// `i`. Forwards and beacons queue in one [`PacketTx`] (per-destination
/// FIFO, §4.1), an armed timer waits for the end of the RX burst, and a
/// dead input becomes a Detect request of the switch's [`CtrlClient`].
struct SoftSwitchWire<'a> {
    sock: &'a UdpSocket,
    proc_addrs: &'a [SocketAddr],
    tx: PacketTx,
    /// The core armed its timer; the chip's has zero delay.
    timer: bool,
    client: CtrlClient,
}

impl SwitchWire for SoftSwitchWire<'_> {
    type Packet = Datagram;

    fn header(d: &mut Datagram) -> &mut PacketHeader {
        &mut d.header
    }

    fn route(&mut self, d: &Datagram) -> Option<NodeId> {
        ((d.dst.0 as usize) < self.proc_addrs.len()).then_some(NodeId(d.dst.0))
    }

    fn forward(&mut self, to: NodeId, d: Datagram) {
        self.tx.push(self.sock, self.proc_addrs[to.0 as usize], d);
    }

    fn beacon(&mut self, to: NodeId, be: Timestamp, commit: Timestamp) {
        self.forward(to, Datagram::beacon(be, commit));
    }

    fn set_timer(&mut self, delay: NsDuration) {
        debug_assert_eq!(delay, 0, "the chip arms only zero-delay timers");
        self.timer = true;
    }

    fn dead_input(&mut self, from: NodeId, last_commit: Timestamp) {
        // The switch reports under its own id, distinct from any input.
        let reporter = NodeId(self.proc_addrs.len() as u32);
        self.client.submit(CtrlEvent::Detect { reporter, dead: from, last_commit });
    }
}

/// The ToR stand-in: runs the chip [`SwitchCore`] over the switch socket
/// and reports dead input links to the controller cluster through its
/// [`CtrlClient`] ([`SWITCH_RETRY`]).
fn run_soft_switch(sock: UdpSocket, net: Net, dead_timeout: NsDuration) {
    let (epoch, stop) = (net.epoch, net.stop.clone());
    // The chip (the default incarnation), with one input link and one
    // port per process: NodeId(i) is process i's.
    let cfg = SwitchConfig { beacon_interval: BEACON_INTERVAL, ..SwitchConfig::default() };
    let links: Vec<NodeId> = (0..net.proc_addrs.len() as u32).map(NodeId).collect();
    let mut core = SwitchCore::new(cfg, links.clone(), &links, dead_timeout);
    // Highest controller epoch seen; actions from lower epochs (a deposed
    // leader) are fenced off.
    let mut max_epoch = 0u64;
    let mut rx = PacketRx::new(&sock, RX_IDLE, net.stats.clone());
    let mut wire = SoftSwitchWire {
        sock: &sock,
        proc_addrs: &net.proc_addrs,
        tx: PacketTx::new(net.stats.clone()),
        timer: false,
        client: CtrlClient::new(SWITCH_RETRY),
    };
    let mut next_tick = 0u64;
    while !stop.load(Ordering::SeqCst) {
        // Drain the receive queue, bounded by the next tick: on a loaded
        // single-core machine packets can arrive continuously and an
        // unbounded drain would starve the tick entirely. Ticking
        // mid-queue is safe: the registers reflect only *processed*
        // packets, and data still queued from a host left it after the
        // barrier last processed from it, so its timestamp is at or above
        // that barrier (per-link FIFO, §4.1).
        let mut burst = rx.burst();
        loop {
            let got = burst.recv(|d, _from| {
                let now = now_ns(epoch);
                if d.header.opcode != Opcode::Mgmt {
                    return core.on_packet(&mut wire, now, NodeId(d.src.0), d);
                }
                // Controller decisions addressed to this switch, and acks
                // of its reports.
                match MgmtFrame::decode(d.payload) {
                    Ok(MgmtFrame::Action { epoch: ep, action }) if ep >= max_epoch => {
                        max_epoch = ep;
                        if let CtrlAction::Resume { input, .. } = action {
                            core.remove_commit_input(input);
                        }
                    }
                    Ok(MgmtFrame::Ack { seq }) => wire.client.on_ack(seq),
                    _ => {}
                }
            });
            if !got || now_ns(epoch) >= next_tick {
                break;
            }
        }
        // The burst is processed: the coalesced relay fires now.
        let now = now_ns(epoch);
        if std::mem::take(&mut wire.timer) {
            core.on_timer(&mut wire, now);
        }
        if now >= next_tick {
            next_tick = now + BEACON_INTERVAL;
            // Detect (§5.2) and the idle-link beacons, then the due
            // reports.
            core.on_tick(&mut wire, now);
            poll_client(&mut wire.client, now, &net, &sock, &mut wire.tx);
        }
        // Everything this iteration queued leaves as coalesced frames.
        wire.tx.flush(&sock);
    }
}

/// What one controller replica thread is started with.
struct ReplicaCtx {
    id: u32,
    sock: UdpSocket,
    net: Net,
    /// [`UdpClusterBuilder::ctrl_start_delay`].
    start_delay: Duration,
    is_leader: Arc<AtomicBool>,
    kill: Arc<AtomicBool>,
}

/// One controller replica: a [`ReplicatedController`] over UDP. Raft
/// traffic flows between replicas; client requests are acknowledged when
/// their log entry commits; the leader's actions go out epoch-tagged.
fn run_controller_replica(ctx: ReplicaCtx) {
    let ReplicaCtx { id, sock, net, start_delay, is_leader, kill } = ctx;
    let Net { switch_addr, ctrl_addrs, proc_addrs, epoch, stats, stop, .. } = net;
    let n = proc_addrs.len();
    // Startup delay (test knob): the replica exists — its socket buffers
    // incoming frames — but does not participate yet.
    let wake = Instant::now() + start_delay;
    while Instant::now() < wake {
        if stop.load(Ordering::SeqCst) || kill.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    // Failure domains of the loopback rack: component i = host i, whose
    // loss kills exactly process i (its input link is NodeId(i)).
    let mut domains = FailureDomains::default();
    for i in 0..n as u32 {
        domains.add_component(i, vec![NodeId(i)], vec![ProcessId(i)]);
    }
    // Election/heartbeat timing sized for loopback thread scheduling
    // (milliseconds), not the simulator's microseconds.
    let cfg = RaftConfig { election_timeout: 150 * MILLIS, heartbeat_interval: 25 * MILLIS };
    let peers: Vec<u32> = (0..ctrl_addrs.len() as u32).filter(|&p| p != id).collect();
    let mut ctrl = ReplicatedController::new(id, peers, cfg, domains, (0..n as u32).map(ProcessId));
    let mut rx = PacketRx::new(&sock, RX_CTRL_IDLE, stats.clone());
    // The management plane is latency-sensitive and low-rate: every frame
    // goes out immediately (the `send_now` path), nothing is queued.
    let mut tx = PacketTx::new(stats);
    // Send one step's output: Raft traffic, the actions epoch-tagged and
    // routed by `CtrlAction::dest` (as in the simulator), the commit acks.
    let send = |tx: &mut PacketTx, ep: u64, out: Output<SocketAddr>| {
        for (to, msg) in out.raft {
            if let Some(addr) = ctrl_addrs.get(to as usize) {
                tx.send_mgmt(&sock, *addr, &MgmtFrame::Raft { from: id, msg });
            }
        }
        for action in out.actions {
            let addr = match action.dest() {
                ActionDest::Process(p) => proc_addrs.get(p.0 as usize).copied(),
                ActionDest::Switch(_) => Some(switch_addr),
            };
            if let Some(addr) = addr {
                tx.send_mgmt(&sock, addr, &MgmtFrame::Action { epoch: ep, action });
            }
        }
        for (client, seq) in out.acks {
            tx.send_mgmt(&sock, client, &MgmtFrame::Ack { seq });
        }
    };
    while !stop.load(Ordering::SeqCst) && !kill.load(Ordering::SeqCst) {
        // A burst of one frame: the replica ticks after every frame.
        rx.burst().recv(|d, from_addr| {
            if d.header.opcode != Opcode::Mgmt {
                return;
            }
            match MgmtFrame::decode(d.payload) {
                // Every replica hears every request; only the leader logs
                // it, and acks it once it commits.
                Ok(MgmtFrame::Req { seq, ev }) => {
                    ctrl.submit(from_addr, seq, ev);
                }
                Ok(MgmtFrame::Raft { from, msg }) => {
                    let out = ctrl.on_raft_msg(from, msg, now_ns(epoch));
                    send(&mut tx, ctrl.epoch(), out);
                }
                Ok(MgmtFrame::Forward(fwd)) => {
                    // Forwarding fallback (§5.2): relay around the broken
                    // direct path. Stateless — every replica serves it,
                    // and the receiver drops the duplicates.
                    if let Some(addr) = proc_addrs.get(fwd.dst.0 as usize) {
                        tx.send_now(&sock, *addr, &fwd);
                    }
                }
                _ => {}
            }
        });
        // Raft timeouts/heartbeats; applies whatever committed.
        let out = ctrl.tick(now_ns(epoch));
        send(&mut tx, ctrl.epoch(), out);
        is_leader.store(ctrl.is_leader(), Ordering::SeqCst);
    }
}

/// Send `frame` to every controller replica.
fn send_all(net: &Net, sock: &UdpSocket, tx: &mut PacketTx, frame: &MgmtFrame) {
    for addr in &net.ctrl_addrs {
        tx.send_mgmt(sock, *addr, frame);
    }
}

/// Send every request `client` has due at `now` to every replica as a
/// [`MgmtFrame::Req`], and add its re-sends and drops to the cluster's
/// counters.
fn poll_client(client: &mut CtrlClient, now: u64, net: &Net, sock: &UdpSocket, tx: &mut PacketTx) {
    client.poll(now, |seq, ev| send_all(net, sock, tx, &MgmtFrame::Req { seq, ev }));
    net.ctrl_retries.fetch_add(std::mem::take(&mut client.retries), Ordering::Relaxed);
    net.ctrl_drops.fetch_add(std::mem::take(&mut client.drops), Ordering::Relaxed);
}

/// [`Wire`] over a UDP socket and the process's channels: every emission
/// goes to the soft switch, with the runtime's `HOP_LOCAL` source sentinel
/// rewritten to the local process id so the switch can attribute the
/// input link; deliveries, user events and raw messages go to the
/// [`UdpProcess`] handle (a send to a dropped handle is not an error).
///
/// Emissions queue in the [`PacketTx`] and controller requests in
/// `ctrl_reqs`; the driver loop — the only place that knows an iteration
/// ended — routes the requests and flushes the queue once it has
/// processed commands, an RX burst and the tick, so everything the
/// iteration emitted leaves as coalesced frames. Per-destination FIFO in
/// the queue preserves the beacon invariant.
struct UdpWire<'a> {
    sock: &'a UdpSocket,
    switch_addr: SocketAddr,
    id: ProcessId,
    tx: PacketTx,
    ctrl_reqs: Vec<(ProcessId, CtrlRequest)>,
    del_tx: Sender<(Delivered, bool)>,
    ev_tx: Sender<UserEvent>,
    raw_tx: Sender<(ProcessId, bytes::Bytes)>,
}

impl Wire for UdpWire<'_> {
    fn emit(&mut self, mut d: Datagram) {
        if d.src == HOP_LOCAL {
            d.src = self.id;
        }
        self.tx.push(self.sock, self.switch_addr, d);
    }

    fn deliver(&mut self, rec: DeliveryRecord) {
        let _ = self.del_tx.send((rec.msg, rec.reliable));
    }

    fn user_event(&mut self, _at: u64, _proc: ProcessId, ev: UserEvent) {
        let _ = self.ev_tx.send(ev);
    }

    fn ctrl_request(&mut self, _at: u64, proc: ProcessId, req: CtrlRequest) {
        self.ctrl_reqs.push((proc, req));
    }

    fn raw(&mut self, _receiver: ProcessId, src: ProcessId, payload: bytes::Bytes) {
        let _ = self.raw_tx.send((src, payload));
    }
}

/// What one process driver thread is started with.
struct ProcessCtx {
    id: ProcessId,
    sock: UdpSocket,
    net: Net,
    /// [`UdpClusterBuilder::app_hook`].
    user_app: Option<Arc<Mutex<dyn AppHook>>>,
    cmd_rx: Receiver<Cmd>,
    del_tx: Sender<(Delivered, bool)>,
    ev_tx: Sender<UserEvent>,
    raw_tx: Sender<(ProcessId, bytes::Bytes)>,
    kill: Arc<AtomicBool>,
}

/// One process: adapts the [`HostRuntime`] to a socket.
///
/// Each loop iteration is one pump: drain application commands, drain an
/// RX burst from the socket (multiple frames, each holding multiple
/// datagrams), tick if due, route controller requests — then put every
/// queued emission on the wire as coalesced frames.
fn run_process(ctx: ProcessCtx) {
    let ProcessCtx { id, sock, net, user_app, cmd_rx, del_tx, ev_tx, raw_tx, kill } = ctx;
    let mut client = CtrlClient::new(HOST_RETRY);
    let (epoch, stop) = (net.epoch, net.stop.clone());
    let cfg = EndpointConfig {
        // Loopback thread scheduling is millisecond-scale; the simulator
        // defaults (hundreds of µs) would misfire constantly. A loopback
        // round trip crosses about four 8 ms receive timeouts (DESIGN
        // §7.1), so the estimated timeout lands above this ceiling, which
        // is the timeout in practice. Keep it: without it `udp_rel_window`
        // ran slower in 4 of 4 alternating pairs (p50 90–94 against 74–87
        // ms). The pump is timer-bound, and the early resend likely wakes
        // a receiver that would otherwise sit out its receive timeout.
        rto: 20 * MILLIS,
        be_ack_timeout: 100 * MILLIS,
        ..EndpointConfig::default()
    };
    let mut rt = HostRuntime::new(
        HostId(id.0),
        MonotonicClock::perfect(),
        vec![Endpoint::new(id, cfg)],
        BEACON_INTERVAL,
    );
    if let Some(app) = user_app {
        rt.set_app(app);
    }
    let mut wire = UdpWire {
        sock: &sock,
        switch_addr: net.switch_addr,
        id,
        tx: PacketTx::new(net.stats.clone()),
        ctrl_reqs: Vec::new(),
        del_tx,
        ev_tx,
        raw_tx,
    };
    // Stale-leader fence: highest controller epoch seen.
    let mut max_epoch = 0u64;
    let mut rx = PacketRx::new(&sock, RX_IDLE, net.stats.clone());
    // Data-plane datagrams of one RX burst.
    let mut burst: Vec<Datagram> = Vec::with_capacity(RX_BURST_MAX);
    let mut next_tick = 0u64;
    while !stop.load(Ordering::SeqCst) && !kill.load(Ordering::SeqCst) {
        // Application commands.
        for cmd in cmd_rx.try_iter() {
            match cmd {
                Cmd::Send { msgs, reliable, reply } => {
                    let r = rt.submit_send(&mut wire, now_ns(epoch), id, msgs, reliable);
                    if let Some(tx) = reply {
                        let _ = tx.send(r);
                    }
                }
                Cmd::SendRaw { to, payload } => {
                    rt.submit_raw(&mut wire, now_ns(epoch), id, to, payload)
                }
            }
        }
        // RX burst: drain the socket up to RX_BURST_MAX datagrams.
        let mut rx_burst = rx.burst();
        while burst.len() < RX_BURST_MAX {
            let got = rx_burst.recv(|d, _from| {
                if d.header.opcode != Opcode::Mgmt {
                    burst.push(d);
                    return;
                }
                match MgmtFrame::decode(d.payload) {
                    Ok(MgmtFrame::Action { epoch: ep, action }) if ep >= max_epoch => {
                        max_epoch = ep;
                        if let CtrlAction::Announce { id: announce_id, failures, .. } = action {
                            let now = now_ns(epoch);
                            rt.deliver_announcement(&mut wire, now, id, announce_id, &failures);
                        }
                    }
                    Ok(MgmtFrame::Ack { seq }) => client.on_ack(seq),
                    _ => {}
                }
            });
            if !got {
                break;
            }
        }
        // Process the burst only now that the socket is drained: ACKs,
        // commits and app reactions to all of it coalesce into the same
        // flush.
        for d in burst.drain(..) {
            rt.on_datagram(&mut wire, now_ns(epoch), d);
        }
        // Poll tick (endpoint timers + host beacon) when due.
        let now = now_ns(epoch);
        if now >= next_tick {
            rt.on_tick(&mut wire, now);
            next_tick = rt.next_tick_at(now);
        }
        // Route controller requests over the management plane: requests
        // that must reach the log go through the retrying client;
        // forwarding stays best-effort (data-path fallback, not state).
        for (from, req) in wire.ctrl_reqs.drain(..) {
            match req.into_event(from) {
                Ok(ev) => client.submit(ev),
                Err(dgram) => send_all(&net, &sock, &mut wire.tx, &MgmtFrame::Forward(dgram)),
            }
        }
        poll_client(&mut client, now_ns(epoch), &net, &sock, &mut wire.tx);
        // Pump boundary: everything this iteration emitted goes out as
        // coalesced frames (data first, then the beacon — FIFO per dest).
        wire.tx.flush(&sock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onepipe_core::runtime::SendQueue;
    use onepipe_types::wire::{decode_frame, Flags};

    /// Each test spawns several busy threads; running clusters
    /// concurrently starves them on small CI machines. Serialize.
    static TEST_LOCK: TestLock = TestLock(Mutex::new(()));

    struct TestLock(Mutex<()>);

    impl TestLock {
        /// A failed test must not poison the lock for the rest.
        fn lock(&self) -> std::sync::MutexGuard<'_, ()> {
            self.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
        }
    }

    /// The soft switch alone, with two probe sockets standing in for the
    /// processes: once both have beaconed, data from probe 0 reaches
    /// probe 1 carrying the minimum of the two inputs, not its sender's
    /// barrier.
    #[test]
    fn the_soft_switch_rewrites_data_barriers_to_the_minimum() {
        let _guard = TEST_LOCK.lock();
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let probes = [(); 2].map(|_| UdpSocket::bind("127.0.0.1:0").unwrap());
        let net = Net {
            switch_addr: sock.local_addr().unwrap(),
            ctrl_addrs: Vec::new(),
            proc_addrs: probes.iter().map(|p| p.local_addr().unwrap()).collect(),
            epoch: Instant::now(),
            stats: Arc::default(),
            ctrl_retries: Arc::default(),
            ctrl_drops: Arc::default(),
            stop: Arc::default(),
        };
        let (switch_addr, stop) = (net.switch_addr, net.stop.clone());
        let switch = std::thread::spawn(move || run_soft_switch(sock, net, 1000 * MILLIS));
        let ts = Timestamp::from_nanos;
        let send = |p: u32, mut d: Datagram| {
            d.src = ProcessId(p);
            probes[p as usize].send_to(&d.encode(), switch_addr).unwrap();
        };
        send(0, Datagram::beacon(ts(3_000), ts(3_000)));
        send(1, Datagram::beacon(ts(2_000), ts(2_000)));
        let mut header = PacketHeader::data(ts(5_000), 0, Flags::END_OF_MESSAGE);
        header.commit_barrier = ts(5_000);
        let payload = bytes::Bytes::new();
        send(0, Datagram { src: ProcessId(0), dst: ProcessId(1), header, payload });
        // Probe 1 also hears the switch's beacons; wait for the data.
        probes[1].set_read_timeout(Some(Duration::from_millis(100))).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut buf = vec![0; 65536];
        let mut got = None;
        while got.is_none() && Instant::now() < deadline {
            let Ok(len) = probes[1].recv(&mut buf) else { continue };
            let frame = decode_frame(bytes::Bytes::copy_from_slice(&buf[..len]));
            got = frame.flatten().find(|d| d.header.opcode == Opcode::Data);
        }
        stop.store(true, Ordering::SeqCst);
        switch.join().unwrap();
        let h = got.expect("the data reached probe 1").header;
        assert_eq!((h.barrier, h.commit_barrier), (ts(2_000), ts(2_000)));
        assert_eq!(h.msg_ts, ts(5_000), "only the barriers are rewritten");
    }

    /// The soft switch alone, with a probe socket for its one process and
    /// one for each controller replica: once the process falls silent past
    /// the dead-link timeout, every replica receives the same Detect
    /// request, re-sent until one of them acks it and never after.
    #[test]
    fn the_soft_switch_reports_a_dead_link_to_every_replica_until_acked() {
        let _guard = TEST_LOCK.lock();
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let process = UdpSocket::bind("127.0.0.1:0").unwrap();
        let replicas = [(); REPLICAS].map(|_| UdpSocket::bind("127.0.0.1:0").unwrap());
        let net = Net {
            switch_addr: sock.local_addr().unwrap(),
            ctrl_addrs: replicas.iter().map(|r| r.local_addr().unwrap()).collect(),
            proc_addrs: vec![process.local_addr().unwrap()],
            epoch: Instant::now(),
            stats: Arc::default(),
            ctrl_retries: Arc::default(),
            ctrl_drops: Arc::default(),
            stop: Arc::default(),
        };
        let (switch_addr, stop, retries) =
            (net.switch_addr, net.stop.clone(), net.ctrl_retries.clone());
        let switch = std::thread::spawn(move || run_soft_switch(sock, net, 20 * MILLIS));
        let mut beacon =
            Datagram::beacon(Timestamp::from_nanos(2_000), Timestamp::from_nanos(2_000));
        beacon.src = ProcessId(0);
        process.send_to(&beacon.encode(), switch_addr).unwrap();
        // Then silence. Each replica's requests, in arrival order.
        let mut buf = vec![0; 65536];
        let mut recv_reqs = |r: &UdpSocket| -> Vec<(u64, CtrlEvent)> {
            r.set_read_timeout(Some(Duration::from_millis(10))).unwrap();
            let mut got = Vec::new();
            while let Ok(len) = r.recv(&mut buf) {
                let frame = decode_frame(bytes::Bytes::copy_from_slice(&buf[..len]));
                for d in frame.flatten() {
                    if let Ok(MgmtFrame::Req { seq, ev }) = MgmtFrame::decode(d.payload) {
                        got.push((seq, ev));
                    }
                }
            }
            got
        };
        let detect = CtrlEvent::Detect {
            reporter: NodeId(1),
            dead: NodeId(0),
            last_commit: Timestamp::from_nanos(2_000),
        };
        // Collect until every replica has heard the report twice: the
        // first send and one re-send.
        let mut heard: [Vec<(u64, CtrlEvent)>; REPLICAS] = Default::default();
        let deadline = Instant::now() + Duration::from_secs(5);
        while heard.iter().any(|h| h.len() < 2) && Instant::now() < deadline {
            for (r, h) in replicas.iter().zip(&mut heard) {
                h.extend(recv_reqs(r));
            }
        }
        let seq = heard[0].first().expect("the report reached replica 0").0;
        for h in &heard {
            assert!(h.len() >= 2, "every replica hears the report and its re-send: {heard:?}");
            assert!(h.iter().all(|r| *r == (seq, detect.clone())), "{heard:?}");
        }
        // One replica acks the commit: the re-sends stop.
        PacketTx::new(Arc::default()).send_mgmt(&replicas[1], switch_addr, &MgmtFrame::Ack { seq });
        std::thread::sleep(Duration::from_millis(100));
        for r in &replicas {
            recv_reqs(r); // a re-send that crossed the ack
        }
        let resent = retries.load(Ordering::SeqCst);
        let quiet = Instant::now() + Duration::from_millis(350);
        while Instant::now() < quiet {
            for r in &replicas {
                assert_eq!(recv_reqs(r), [], "no re-send after the ack");
            }
        }
        stop.store(true, Ordering::SeqCst);
        switch.join().unwrap();
        assert_eq!(retries.load(Ordering::SeqCst), resent);
    }

    #[test]
    fn udp_best_effort_total_order() {
        let _guard = TEST_LOCK.lock();
        let cluster = UdpClusterBuilder::new(3).build().unwrap();
        std::thread::sleep(Duration::from_millis(50)); // barriers start
                                                       // Processes 0 and 1 both scatter to receiver 2.
        for round in 0..10 {
            cluster
                .process(0)
                .send_unreliable(vec![Message::new(ProcessId(2), format!("a{round}"))]);
            cluster
                .process(1)
                .send_unreliable(vec![Message::new(ProcessId(2), format!("b{round}"))]);
            std::thread::sleep(Duration::from_millis(2));
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut got = Vec::new();
        while got.len() < 20 && Instant::now() < deadline {
            if let Some((m, reliable)) = cluster.process(2).recv_timeout(Duration::from_millis(100))
            {
                assert!(!reliable);
                got.push(m);
            }
        }
        // Best effort is at-most-once: scheduling hiccups on loopback can
        // legitimately drop messages, but never reorder them.
        if got.len() < 16 {
            let e0 = cluster.process(0).try_events();
            let e1 = cluster.process(1).try_events();
            panic!("too many losses: {}/20; sender events: p0={:?} p1={:?}", got.len(), e0, e1);
        }
        for w in got.windows(2) {
            assert!(w[0].order_key() <= w[1].order_key(), "order violated");
        }
        cluster.shutdown();
    }

    #[test]
    fn udp_reliable_delivery() {
        let _guard = TEST_LOCK.lock();
        let cluster = UdpClusterBuilder::new(2).build().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        cluster.process(0).send_reliable(vec![Message::new(ProcessId(1), "guaranteed")]);
        let got =
            cluster.process(1).recv_timeout(Duration::from_secs(5)).expect("reliable delivery");
        assert!(got.1, "came in on the reliable channel");
        assert_eq!(got.0.payload, bytes::Bytes::from_static(b"guaranteed"));
        cluster.shutdown();
    }

    #[test]
    fn udp_raw_messages() {
        let _guard = TEST_LOCK.lock();
        let cluster = UdpClusterBuilder::new(2).build().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        cluster.process(0).send_raw(ProcessId(1), "rpc");
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut raws = Vec::new();
        while raws.is_empty() && Instant::now() < deadline {
            raws = cluster.process(1).try_raw();
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(raws.len(), 1);
        assert_eq!(raws[0].0, ProcessId(0));
        assert_eq!(raws[0].1, bytes::Bytes::from_static(b"rpc"));
        cluster.shutdown();
    }

    #[test]
    fn udp_send_traced_reports_ts_and_seq() {
        let _guard = TEST_LOCK.lock();
        let cluster = UdpClusterBuilder::new(2).build().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let (ts1, seq1) = cluster
            .process(0)
            .send_traced(vec![Message::new(ProcessId(1), "a")], true, Duration::from_secs(2))
            .expect("traced send");
        let (ts2, seq2) = cluster
            .process(0)
            .send_traced(vec![Message::new(ProcessId(1), "b")], true, Duration::from_secs(2))
            .expect("traced send");
        assert!(ts2 > ts1, "timestamps advance");
        assert!(seq2 > seq1, "scattering seq advances");
        cluster.shutdown();
    }

    #[test]
    fn udp_stats_count_frames_datagrams_and_decode_errors() {
        let _guard = TEST_LOCK.lock();
        let cluster = UdpClusterBuilder::new(2).build().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        cluster.process(0).send_reliable(vec![Message::new(ProcessId(1), "counted")]);
        cluster.process(1).recv_timeout(Duration::from_secs(5)).expect("delivery");
        // Inject garbage at the switch: previously silently dropped, now
        // surfaced as a decode error without disturbing the cluster.
        let probe = UdpSocket::bind("127.0.0.1:0").unwrap();
        probe.send_to(b"\x00not a datagram at all", cluster.switch_addr()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while cluster.stats().decode_errors == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let s = cluster.stats();
        assert!(s.rx_frames > 0 && s.tx_frames > 0, "traffic flowed: {s:?}");
        assert!(s.rx_datagrams >= s.rx_frames, "a frame carries >= 1 datagram");
        assert!(s.rx_bytes > 0 && s.tx_bytes > 0);
        assert_eq!(s.decode_errors, 1, "garbage frame surfaced, not silently dropped");
        assert_eq!(
            s.tx_batch_hist.iter().sum::<u64>(),
            s.tx_frames,
            "histogram covers every frame"
        );
        // The cluster still works after eating garbage.
        cluster.process(0).send_reliable(vec![Message::new(ProcessId(1), "still alive")]);
        cluster.process(1).recv_timeout(Duration::from_secs(5)).expect("post-garbage delivery");
        cluster.shutdown();
    }

    #[test]
    fn udp_pluggable_app_hook_sees_deliveries() {
        let _guard = TEST_LOCK.lock();
        struct CountingApp {
            deliveries: Arc<AtomicU64>,
            raws: Arc<AtomicU64>,
        }
        impl AppHook for CountingApp {
            fn on_delivery(
                &mut self,
                _now: u64,
                _receiver: ProcessId,
                _msg: &Delivered,
                _reliable: bool,
                _out: &mut SendQueue,
            ) {
                self.deliveries.fetch_add(1, Ordering::SeqCst);
            }
            fn on_raw(
                &mut self,
                _now: u64,
                _receiver: ProcessId,
                _src: ProcessId,
                _payload: &bytes::Bytes,
                _out: &mut SendQueue,
            ) {
                self.raws.fetch_add(1, Ordering::SeqCst);
            }
        }
        let deliveries = Arc::new(AtomicU64::new(0));
        let raws = Arc::new(AtomicU64::new(0));
        let app = CountingApp { deliveries: deliveries.clone(), raws: raws.clone() };
        let cluster =
            UdpClusterBuilder::new(2).app_hook(Arc::new(Mutex::new(app))).build().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        // Raw first: per-link FIFO puts it ahead of the reliable message,
        // so once that is delivered the raw message has arrived too.
        cluster.process(0).send_raw(ProcessId(1), "rpc");
        cluster.process(0).send_reliable(vec![Message::new(ProcessId(1), "seen twice")]);
        // The channel API keeps working alongside the user hook.
        let got = cluster.process(1).recv_timeout(Duration::from_secs(5)).expect("delivery");
        assert_eq!(got.0.payload, bytes::Bytes::from_static(b"seen twice"));
        assert_eq!(deliveries.load(Ordering::SeqCst), 1, "user hook observed the delivery");
        assert_eq!(raws.load(Ordering::SeqCst), 1, "user hook observed the raw message once");
        let raw = cluster.process(1).try_raw();
        assert_eq!(raw, [(ProcessId(0), bytes::Bytes::from_static(b"rpc"))], "and so did try_raw");
        cluster.shutdown();
    }

    #[test]
    fn udp_elects_exactly_one_controller_leader() {
        let _guard = TEST_LOCK.lock();
        let cluster = UdpClusterBuilder::new(2).build().unwrap();
        assert_eq!(cluster.controller_count(), 3);
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut leader = None;
        while leader.is_none() && Instant::now() < deadline {
            leader = cluster.controller_leader();
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(leader.is_some(), "a controller leader must be elected");
        cluster.shutdown();
    }
}
