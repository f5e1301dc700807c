//! Real UDP transport for 1Pipe: one rack on loopback sockets.
//!
//! Every role runs the node the simulator drives (`onepipe_core::node`),
//! on a socket and a thread of its own, and one loop, `run_node`, drives
//! them all:
//!
//! * each process is a [`UdpProcess`]: a [`ProcessNode`] whose
//!   application talks to it over channels;
//! * a *soft switch* plays the ToR: a [`SwitchNode`] running the chip
//!   (§6.2.1) with one port per process — every forwarded packet carries
//!   the rewritten barrier minimum, an advance is relayed when the burst
//!   that made it ends, idle links get a beacon — and reporting inputs
//!   that fall silent;
//! * three controller replicas, each a [`ReplicaNode`] exchanging Raft
//!   traffic as [`MgmtFrame`]s; only the leader emits Announce/Resume,
//!   tagged with its epoch so hosts and the switch fence off deposed
//!   leaders. A replica can be killed ([`UdpCluster::kill_controller`]);
//!   the survivors elect a leader that re-drives in-flight recoveries.
//!
//! Each `run_node` iteration drains one receive burst into its node, ends
//! the burst, runs the node's deadline if due, polls the node's
//! [`CtrlClient`] — which sends each control request to every replica
//! until the leader acks its *commit* — and flushes. A thread sleeps only
//! in the receive timeouts of `batch.rs`, whose one routine (`PacketRx`)
//! receives for every thread, counting what it cannot decode, while
//! transmits coalesce per destination into batch frames (`PacketTx`).
//! [`UdpCluster::stats`] reports the counters.
//!
//! While no leader exists, best-effort and failure-free reliable traffic
//! keep flowing; only recovery stalls, until a new leader logs the
//! retried reports. [`UdpClusterBuilder::app_hook`] installs an
//! [`AppHook`] that sees each delivery, event and raw message before the
//! channels do — how `onepipe-log` runs over this transport. All
//! processes read one monotonic epoch (`Instant`), the single-machine
//! analogue of PTP.
//!
//! [`ProcessNode`]: onepipe_core::node::ProcessNode
//! [`SwitchNode`]: onepipe_core::node::SwitchNode
//! [`ReplicaNode`]: onepipe_core::node::ReplicaNode
//! [`MgmtFrame`]: onepipe_controller::MgmtFrame
//! [`CtrlClient`]: onepipe_controller::CtrlClient

#![warn(missing_docs)]

pub mod batch;

use crate::batch::{PacketRx, PacketTx, UdpStats, UdpStatsSnapshot, RX_CTRL_IDLE, RX_IDLE};
use onepipe_clock::MonotonicClock;
use onepipe_controller::raft::RaftConfig;
use onepipe_controller::{
    ActionDest, CtrlClient, CtrlEvent, FailureDomains, MgmtFrame, RetryPolicy, REPLICAS,
};
use onepipe_core::config::EndpointConfig;
use onepipe_core::endpoint::{Endpoint, HOP_LOCAL};
use onepipe_core::events::{CtrlRequest, UserEvent};
use onepipe_core::node::{MgmtTo, Node, NodeIo, ProcessNode, ReplicaIo, ReplicaNode, SwitchNode};
use onepipe_core::runtime::{AppHook, DeliveryRecord, HostRuntime, Wire};
use onepipe_switchlogic::{SwitchConfig, SwitchCore, SwitchWire};
use onepipe_types::ids::{HostId, NodeId, ProcessId};
use onepipe_types::message::{Delivered, Message};
use onepipe_types::time::{Duration as NsDuration, Timestamp, MICROS, MILLIS};
use onepipe_types::wire::{Datagram, PacketHeader};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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

/// `UserEvent::Committed` notices a process holds for an application that
/// has not read them ([`UdpProcess::try_events`]). Every reliable
/// scattering raises one, so an application that never reads them would
/// otherwise hold ≈ 60 B per op for the life of the cluster; past the cap
/// they are counted in [`UdpStatsSnapshot::committed_drops`]. Failures —
/// `SendFailed`, `Recalled`, `ProcessFailed` — are never dropped.
const COMMITTED_HELD_MAX: usize = 1024;

/// How the driver issued a scattering: its timestamp and sequence number.
type SendResult = onepipe_types::Result<(Timestamp, u64)>;

/// A command from the application: its process's thread runs it on the
/// node at the start of an iteration.
type Cmd = Box<dyn for<'a> FnOnce(&mut ProcessNode, &mut UdpIo<'a, AppOut>, u64) + Send>;

/// Handle to one live 1Pipe process.
pub struct UdpProcess {
    id: ProcessId,
    cmd_tx: Sender<Cmd>,
    delivered_rx: Receiver<(Delivered, bool)>,
    events_rx: Receiver<UserEvent>,
    /// `Committed` notices in `events_rx`.
    committed_held: Arc<AtomicUsize>,
    raw_rx: Receiver<(ProcessId, bytes::Bytes)>,
    thread: NodeThread,
}

impl UdpProcess {
    /// This process's id.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Submit a scattering; the receiver hears how the driver issued it.
    fn submit(&self, msgs: Vec<Message>, reliable: bool) -> Receiver<SendResult> {
        let (id, (tx, rx)) = (self.id, channel());
        let _ = self.cmd_tx.send(Box::new(move |node, io, now| {
            let _ = tx.send(node.rt.submit_send(io, now, id, msgs, reliable));
        }));
        rx
    }

    /// Submit a best-effort scattering.
    pub fn send_unreliable(&self, msgs: Vec<Message>) {
        self.submit(msgs, false);
    }

    /// Submit a reliable scattering.
    pub fn send_reliable(&self, msgs: Vec<Message>) {
        self.submit(msgs, true);
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
        self.submit(msgs, reliable).recv_timeout(timeout).ok().and_then(|r| r.ok())
    }

    /// Send a raw (unordered) message.
    pub fn send_raw(&self, to: ProcessId, payload: impl Into<bytes::Bytes>) {
        let (id, payload) = (self.id, payload.into());
        let _ = self.cmd_tx.send(Box::new(move |node, io, now| {
            node.rt.submit_raw(io, now, id, to, payload);
        }));
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

    /// Drain pending user events. At most `COMMITTED_HELD_MAX`
    /// `Committed` notices wait here between two calls.
    pub fn try_events(&self) -> Vec<UserEvent> {
        let events: Vec<UserEvent> = self.events_rx.try_iter().collect();
        let committed = events.iter().filter(|e| matches!(e, UserEvent::Committed { .. }));
        self.committed_held.fetch_sub(committed.count(), Ordering::SeqCst);
        events
    }

    /// Drain pending raw messages.
    pub fn try_raw(&self) -> Vec<(ProcessId, bytes::Bytes)> {
        self.raw_rx.try_iter().collect()
    }
}

/// A node's thread and its fail-stop switch.
struct NodeThread {
    kill: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl NodeThread {
    /// Run `f` on a thread of its own, handing it the kill flag.
    fn spawn(f: impl FnOnce(Arc<AtomicBool>) + Send + 'static) -> Self {
        let kill = Arc::new(AtomicBool::new(false));
        let killed = kill.clone();
        NodeThread { kill, handle: Some(std::thread::spawn(move || f(killed))) }
    }

    /// Set the kill flag if `kill`, and wait for the thread to exit.
    fn join(&mut self, kill: bool) {
        self.kill.fetch_or(kill, Ordering::SeqCst);
        if let Some(t) = self.handle.take() {
            let _ = t.join();
        }
    }
}

/// Handle to one controller replica thread.
struct ControllerHandle {
    is_leader: Arc<AtomicBool>,
    thread: NodeThread,
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

        let switch = soft_switch(&net, dead_timeout);
        let switch_net = net.clone();
        let switch = NodeThread::spawn(move |_| {
            run_node(switch, switch_sock, switch_net, (), SWITCH_RETRY, RX_IDLE, |_, _| true)
        });

        // Failure domains of the loopback rack: component i = host i, whose
        // loss kills exactly process i (its input link is NodeId(i)). Raft
        // timing is sized for loopback thread scheduling (milliseconds).
        let mut domains = FailureDomains::default();
        for i in 0..n as u32 {
            domains.add_component(i, vec![NodeId(i)], vec![ProcessId(i)]);
        }
        let raft = RaftConfig { election_timeout: 150 * MILLIS, heartbeat_interval: 25 * MILLIS };
        let mut controllers = Vec::new();
        for (i, sock) in ctrl_socks.into_iter().enumerate() {
            let node =
                ReplicaNode::new(i as u32, raft, domains.clone(), (0..n as u32).map(ProcessId));
            let is_leader = Arc::new(AtomicBool::new(false));
            let (net, leader) = (net.clone(), is_leader.clone());
            let thread = NodeThread::spawn(move |killed| {
                // The startup delay: the replica's socket buffers frames,
                // but it does not take part yet. Its client stays empty.
                std::thread::sleep(ctrl_start_delay);
                run_node(node, sock, net, (), HOST_RETRY, RX_CTRL_IDLE, move |node, _| {
                    leader.store(node.ctrl.is_leader(), Ordering::SeqCst);
                    !killed.load(Ordering::SeqCst)
                })
            });
            controllers.push(ControllerHandle { is_leader, thread });
        }

        let mut processes = Vec::new();
        for (i, sock) in proc_socks.into_iter().enumerate() {
            let id = ProcessId(i as u32);
            let (cmd_tx, cmd_rx) = channel::<Cmd>();
            let (del_tx, delivered_rx) = channel();
            let (ev_tx, events_rx) = channel();
            let (raw_tx, raw_rx) = channel();
            let committed_held = Arc::new(AtomicUsize::new(0));
            let app_out =
                AppOut { id, del_tx, ev_tx, committed_held: committed_held.clone(), raw_tx };
            let (node, net) = (process(id, app.clone()), net.clone());
            let epoch = net.epoch;
            let thread = NodeThread::spawn(move |killed| {
                run_node(node, sock, net, app_out, HOST_RETRY, RX_IDLE, move |node, io| {
                    if killed.load(Ordering::SeqCst) {
                        return false;
                    }
                    // A command may answer from inside (`send_traced`), and
                    // the caller's next command can drain in the same pass:
                    // each reads the clock itself, so the two timestamps
                    // differ.
                    cmd_rx.try_iter().for_each(|cmd| cmd(node, io, now_ns(epoch)));
                    true
                })
            });
            processes.push(UdpProcess {
                id,
                cmd_tx,
                delivered_rx,
                events_rx,
                committed_held,
                raw_rx,
                thread,
            });
        }

        Ok(UdpCluster { processes, controllers, switch, net })
    }
}

/// A live single-rack 1Pipe deployment over UDP loopback.
pub struct UdpCluster {
    processes: Vec<UdpProcess>,
    controllers: Vec<ControllerHandle>,
    switch: NodeThread,
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
        self.controllers.iter().position(|c| {
            !c.thread.kill.load(Ordering::SeqCst) && c.is_leader.load(Ordering::SeqCst)
        })
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
        self.processes[i].thread.join(true);
    }

    /// Fail-stop controller replica `i`. With 3 replicas the survivors
    /// elect a new leader that re-drives any in-flight recovery.
    pub fn kill_controller(&mut self, i: usize) {
        let c = &mut self.controllers[i];
        c.thread.join(true);
        c.is_leader.store(false, Ordering::SeqCst);
    }

    /// Stop all threads and wait for them (equivalent to dropping).
    pub fn shutdown(self) {}
}

impl Drop for UdpCluster {
    fn drop(&mut self) {
        self.net.stop.store(true, Ordering::SeqCst);
        let controllers = self.controllers.iter_mut().map(|c| &mut c.thread);
        for t in self.processes.iter_mut().map(|p| &mut p.thread).chain(controllers) {
            t.join(false);
        }
        self.switch.join(false);
    }
}

fn now_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Process `id`'s node, `app` its runtime's application.
fn process(id: ProcessId, app: Option<Arc<Mutex<dyn AppHook>>>) -> ProcessNode {
    let cfg = EndpointConfig {
        // Loopback scheduling is millisecond-scale. A round trip crosses
        // about four 8 ms receive timeouts (DESIGN §7.1), so the estimated
        // timeout lands above this ceiling, which rules in practice:
        // without it `udp_rel_window` ran slower (p50 90–94 against 74–87
        // ms in 4 of 4 alternating pairs), as the early resend likely
        // wakes a receiver sitting out its receive timeout.
        rto: 20 * MILLIS,
        be_ack_timeout: 100 * MILLIS,
        ..EndpointConfig::default()
    };
    let endpoints = vec![Endpoint::new(id, cfg)];
    let mut rt =
        HostRuntime::new(HostId(id.0), MonotonicClock::perfect(), endpoints, BEACON_INTERVAL);
    if let Some(app) = app {
        rt.set_app(app);
    }
    ProcessNode::new(rt)
}

/// The ToR stand-in: the chip (the default incarnation) with one input
/// link and one port per process — `NodeId(i)` is process `i`'s.
fn soft_switch(net: &Net, dead_timeout: NsDuration) -> SwitchNode {
    let cfg = SwitchConfig { beacon_interval: BEACON_INTERVAL, ..SwitchConfig::default() };
    let links: Vec<NodeId> = (0..net.proc_addrs.len() as u32).map(NodeId).collect();
    SwitchNode::new(SwitchCore::new(cfg, links.clone(), &links, dead_timeout))
}

/// Drive `node` over `sock` until the cluster stops or `wake`, run first in
/// every iteration, returns `false`. An iteration: a receive burst (its
/// first `recv` waits `idle`) until the socket is empty or the node calls
/// it done, the end of the burst, the node's deadline if due, the client's
/// due requests, then one flush: what the iteration emitted leaves as
/// coalesced frames, each destination's in order.
fn run_node<N, R>(
    mut node: N,
    sock: UdpSocket,
    net: Net,
    role: R,
    retry: RetryPolicy,
    idle: Duration,
    mut wake: impl FnMut(&mut N, &mut UdpIo<'_, R>) -> bool,
) where
    N: for<'a> Node<UdpIo<'a, R>, SocketAddr>,
{
    let epoch = net.epoch;
    let mut rx = PacketRx::new(&sock, idle, net.stats.clone());
    let tx = PacketTx::new(net.stats.clone());
    let mut io = UdpIo { sock: &sock, net: &net, tx, client: CtrlClient::new(retry), role };
    while !net.stop.load(Ordering::SeqCst) && wake(&mut node, &mut io) {
        let mut burst = rx.burst();
        while burst.recv(|d, from| node.on_frame(&mut io, now_ns(epoch), from, d))
            && !node.burst_done(now_ns(epoch))
        {}
        let now = now_ns(epoch);
        node.end_burst(&mut io, now);
        if now >= node.next_deadline(&io.client) {
            node.on_deadline(&mut io, now);
        }
        io.poll_client(now_ns(epoch));
        io.tx.flush(&sock);
    }
}

/// The driver's side of a node's thread: the socket, the cluster, the
/// transmit queue, the node's request client and what only its role has
/// (`R`: a process's [`AppOut`]). Data waits in the queue for the flush;
/// management frames leave at once, as retry timers assume.
struct UdpIo<'a, R> {
    sock: &'a UdpSocket,
    net: &'a Net,
    tx: PacketTx,
    client: CtrlClient,
    role: R,
}

impl<R> NodeIo for UdpIo<'_, R> {
    fn client(&mut self) -> &mut CtrlClient {
        &mut self.client
    }
}

impl<R> UdpIo<'_, R> {
    /// Send `frame` to every controller replica.
    fn send_all(&mut self, frame: &MgmtFrame) {
        for addr in &self.net.ctrl_addrs {
            self.tx.send_mgmt(self.sock, *addr, frame);
        }
    }

    /// Send every request the client has due at `now` to every replica as
    /// a [`MgmtFrame::Req`], and add its re-sends and drops to the
    /// cluster's counters.
    fn poll_client(&mut self, now: u64) {
        let mut due = Vec::new();
        self.client.poll(now, |seq, ev| due.push(MgmtFrame::Req { seq, ev }));
        for frame in &due {
            self.send_all(frame);
        }
        let net = self.net;
        net.ctrl_retries.fetch_add(std::mem::take(&mut self.client.retries), Ordering::Relaxed);
        net.ctrl_drops.fetch_add(std::mem::take(&mut self.client.drops), Ordering::Relaxed);
    }
}

/// Where a process's runtime output goes besides the wire: the
/// [`UdpProcess`] channels (a send to a dropped handle is not an error).
struct AppOut {
    id: ProcessId,
    del_tx: Sender<(Delivered, bool)>,
    ev_tx: Sender<UserEvent>,
    /// `Committed` notices sent on `ev_tx` and not yet read.
    committed_held: Arc<AtomicUsize>,
    raw_tx: Sender<(ProcessId, bytes::Bytes)>,
}

/// A process's [`Wire`]: every emission goes to the soft switch, with the
/// runtime's `HOP_LOCAL` source sentinel rewritten to the local process
/// id so the switch can attribute the input link. A request that must
/// reach the log goes to the retrying client; forwarding stays best
/// effort (a data-path fallback, not state).
impl Wire for UdpIo<'_, AppOut> {
    fn emit(&mut self, mut d: Datagram) {
        if d.src == HOP_LOCAL {
            d.src = self.role.id;
        }
        self.tx.push(self.sock, self.net.switch_addr, d);
    }

    fn deliver(&mut self, rec: DeliveryRecord) {
        let _ = self.role.del_tx.send((rec.msg, rec.reliable));
    }

    fn user_event(&mut self, _at: u64, _proc: ProcessId, ev: UserEvent) {
        if let UserEvent::Committed { .. } = ev {
            if self.role.committed_held.load(Ordering::SeqCst) >= COMMITTED_HELD_MAX {
                return self.net.stats.note_committed_drop();
            }
            self.role.committed_held.fetch_add(1, Ordering::SeqCst);
        }
        let _ = self.role.ev_tx.send(ev);
    }

    fn ctrl_request(&mut self, _at: u64, proc: ProcessId, req: CtrlRequest) {
        match req.into_event(proc) {
            Ok(ev) => self.client.submit(ev),
            Err(dgram) => self.send_all(&MgmtFrame::Forward(dgram)),
        }
    }

    fn raw(&mut self, _receiver: ProcessId, src: ProcessId, payload: bytes::Bytes) {
        let _ = self.role.raw_tx.send((src, payload));
    }
}

/// The soft switch's [`SwitchWire`]: port `NodeId(i)` leads to process
/// `i`. Forwards and beacons queue in the [`PacketTx`] (per-destination
/// FIFO, §4.1), and a dead input becomes a Detect request of the switch's
/// client.
impl SwitchWire for UdpIo<'_, ()> {
    type Packet = Datagram;

    fn header<'p>(&'p mut self, d: &'p mut Datagram) -> &'p mut PacketHeader {
        &mut d.header
    }

    fn route(&mut self, d: &Datagram) -> Option<NodeId> {
        ((d.dst.0 as usize) < self.net.proc_addrs.len()).then_some(NodeId(d.dst.0))
    }

    fn forward(&mut self, to: NodeId, d: Datagram) {
        self.tx.push(self.sock, self.net.proc_addrs[to.0 as usize], d);
    }

    fn beacon(&mut self, to: NodeId, be: Timestamp, commit: Timestamp) {
        self.forward(to, Datagram::beacon(be, commit));
    }

    /// The chip's timer has zero delay: the node fires it at the end of
    /// the receive burst.
    fn set_timer(&mut self, delay: NsDuration) {
        debug_assert_eq!(delay, 0, "the chip arms only zero-delay timers");
    }

    fn dead_input(&mut self, from: NodeId, last_commit: Timestamp) {
        // The switch reports under its own id, distinct from any input.
        let reporter = NodeId(self.net.proc_addrs.len() as u32);
        self.client.submit(CtrlEvent::Detect { reporter, dead: from, last_commit });
    }
}

/// A replica's sends: Raft traffic to its peers, actions routed by
/// `CtrlAction::dest` (as in the simulator), acks to the requesting
/// socket, relays to the forwarded datagram's process.
impl<R> ReplicaIo<SocketAddr> for UdpIo<'_, R> {
    fn send(&mut self, to: MgmtTo<SocketAddr>, frame: MgmtFrame) {
        let net = self.net;
        let addr = match to {
            MgmtTo::Replica(r) => net.ctrl_addrs.get(r as usize).copied(),
            MgmtTo::Client(addr) => Some(addr),
            MgmtTo::Node(ActionDest::Process(p)) => net.proc_addrs.get(p.0 as usize).copied(),
            MgmtTo::Node(ActionDest::Switch(_)) => Some(net.switch_addr),
        };
        if let Some(addr) = addr {
            self.tx.send_mgmt(self.sock, addr, &frame);
        }
    }

    fn relay(&mut self, d: Datagram) {
        if let Some(addr) = self.net.proc_addrs.get(d.dst.0 as usize) {
            self.tx.send_now(self.sock, *addr, &d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onepipe_core::runtime::SendQueue;
    use onepipe_types::wire::{decode_frame, Flags, Opcode};

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
        let switch = std::thread::spawn(move || {
            run_node(
                soft_switch(&net, 1000 * MILLIS),
                sock,
                net,
                (),
                SWITCH_RETRY,
                RX_IDLE,
                |_, _| true,
            )
        });
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
        let switch = std::thread::spawn(move || {
            run_node(
                soft_switch(&net, 20 * MILLIS),
                sock,
                net,
                (),
                SWITCH_RETRY,
                RX_IDLE,
                |_, _| true,
            )
        });
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

    /// An application that never reads its events finds at most
    /// `COMMITTED_HELD_MAX` `Committed` notices held for it; the counter
    /// holds the rest.
    #[test]
    fn unread_committed_notices_are_capped_and_counted() {
        let _guard = TEST_LOCK.lock();
        let cluster = UdpClusterBuilder::new(2).build().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let total = 2 * COMMITTED_HELD_MAX;
        for _ in 0..total {
            cluster.process(0).send_reliable(vec![Message::new(ProcessId(1), "x")]);
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        let settled = || {
            let held = cluster.process(0).committed_held.load(Ordering::SeqCst);
            held + cluster.stats().committed_drops as usize == total
        };
        while !settled() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        let events = cluster.process(0).try_events();
        let committed = events.iter().filter(|e| matches!(e, UserEvent::Committed { .. }));
        assert_eq!(committed.count(), COMMITTED_HELD_MAX, "{events:?}");
        assert_eq!(cluster.stats().committed_drops, (total - COMMITTED_HELD_MAX) as u64);
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
