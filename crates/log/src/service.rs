//! The log service proper: clients, shard replicas, and subscribers as
//! one [`AppHook`] over the transport-agnostic host runtime.
//!
//! Roles are assigned by process index: shards `[0, n_shards)`, clients
//! `[n_shards, n_shards + n_clients)`, subscribers after that. Each
//! tenant owns one stream; a stream lives on a replica pair of shards
//! (primary by stable hash, backup the next shard) and every append is a
//! *reliable scattering* to both replicas, so 1Pipe's total order makes
//! the two logs byte-identical without any replication protocol. The
//! lowest-indexed live replica is the *owner*: it acknowledges clients
//! (carrying a credit grant) and fans records out to subscribers; after
//! a crash the survivor simply becomes owner — clients resend their
//! unacknowledged window (the sequence gate drops duplicates) and
//! subscribers re-subscribe from their next offset.
//!
//! Every table is a `Vec` indexed by an id the [`LogConfig`] bounds:
//! shards, clients and subscribers by their counts, streams by
//! `n_streams`. Ids that arrive off the wire are checked against those
//! bounds at the door, and a message naming one outside them is dropped.

use crate::gate::{ClientGate, Offered};
use crate::proto::{tag, Ack, Append, RecordSet, StreamReq, WireRecord};
use crate::shard::{Record, ShardState};
use bytes::{Buf, Bytes};
use onepipe_apps::metrics::{ByKey, Samples, TenantTable};
use onepipe_apps::workload::shard_of;
use onepipe_core::events::UserEvent;
use onepipe_core::simhost::{AppHook, SendQueue};
use onepipe_types::ids::{HostId, ProcessId};
use onepipe_types::message::{Delivered, Message};
use std::collections::VecDeque;
use std::ops::{Deref, Range};

/// Backlog (ns of queued CPU work) beyond which the owner shrinks credit
/// grants to 1 — the backpressure signal.
const BUSY_LIMIT_NS: u64 = 30_000;

/// Records per snapshot/replay chunk.
const SNAPSHOT_CHUNK: u64 = 32;

/// Static configuration of one log-service deployment.
#[derive(Clone, Debug)]
pub struct LogConfig {
    /// Shard server processes (indices `[0, n_shards)`).
    pub n_shards: u32,
    /// Client processes.
    pub n_clients: u32,
    /// Subscriber processes.
    pub n_subs: u32,
    /// Tenants (= streams).
    pub n_streams: u64,
    /// Replicate each stream on a pair of shards (needs `n_shards >= 2`).
    pub replicate: bool,
    /// Subscribers per stream (clamped to `n_subs`).
    pub fanout: u32,
    /// Full credit window: max unacknowledged batches per
    /// `(client, stream)`.
    pub window: u32,
    /// Modeled shard CPU cost per appended record, ns.
    pub server_op_ns: u64,
    /// Client resends unacknowledged batches after this long, ns.
    pub resend_after_ns: u64,
    /// Subscriber issues a pull-repair after this long without progress
    /// on a stream it knows is ahead, ns.
    pub fetch_after_ns: u64,
    /// Per-subscriber join time, ns (index ≥ len joins at 0). Late
    /// entries exercise snapshot + replay catch-up.
    pub join_at: Vec<u64>,
    /// Deployment seed. The service itself draws nothing at random.
    pub seed: u64,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            n_shards: 4,
            n_clients: 4,
            n_subs: 2,
            n_streams: 64,
            replicate: true,
            fanout: 1,
            window: 8,
            server_op_ns: 300,
            resend_after_ns: 2_000_000,
            fetch_after_ns: 300_000,
            join_at: Vec::new(),
            seed: 1,
        }
    }
}

impl LogConfig {
    /// Total processes the cluster must provide.
    pub fn n_processes(&self) -> usize {
        (self.n_shards + self.n_clients + self.n_subs) as usize
    }

    /// Replica group of `stream`, primary first.
    pub fn replicas(&self, stream: u64) -> ReplicaGroup {
        let p = shard_of(stream, self.n_shards as usize) as u32;
        if self.replicate && self.n_shards >= 2 {
            ReplicaGroup { members: [p, (p + 1) % self.n_shards], len: 2 }
        } else {
            ReplicaGroup { members: [p, p], len: 1 }
        }
    }

    /// Subscriber indices assigned to `stream` under the fan-out policy.
    pub fn subs_of(&self, stream: u64) -> Vec<u32> {
        let f = self.fanout.min(self.n_subs);
        (0..f).map(|i| ((stream + i as u64) % self.n_subs as u64) as u32).collect()
    }

    /// `stream` is one of this deployment's streams.
    fn has_stream(&self, stream: u64) -> bool {
        stream < self.n_streams
    }
}

/// A stream's replica group, primary first: one shard, or two when
/// replicated. Derefs to `[u32]` and iterates by value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicaGroup {
    members: [u32; 2],
    len: usize,
}

impl Deref for ReplicaGroup {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.members[..self.len]
    }
}

impl IntoIterator for ReplicaGroup {
    type Item = u32;
    type IntoIter = std::iter::Take<std::array::IntoIter<u32, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.members.into_iter().take(self.len)
    }
}

/// One in-flight (sent, unacknowledged) batch at a client.
struct Inflight {
    seq: u64,
    payload: Bytes,
    first_sent: u64,
    last_sent: u64,
}

/// A client's side of one stream.
struct ClientStream {
    /// Next sequence to assign.
    next_seq: u64,
    /// Last credit grant (the full window until the first ack).
    credit: u32,
    /// Sent but unacknowledged batches, in sequence order.
    unacked: VecDeque<Inflight>,
}

struct ClientState {
    /// Indexed by stream.
    streams: Vec<ClientStream>,
    /// Admitted-pending arrivals blocked on credit.
    pending: VecDeque<(u64, Bytes)>,
    /// No unacknowledged batch falls due for a timer resend before this
    /// (a lower bound: acks and other resends only push the real
    /// deadline later, and the next scan recomputes it).
    resend_due: u64,
}

#[derive(Default)]
struct SubStream {
    /// Records keyed by offset: applies the contiguous run, parks what
    /// arrives ahead of a gap, drops what was already applied.
    gate: ClientGate<WireRecord>,
    /// Applied records, in offset order.
    applied: Vec<Record>,
    /// Highest shard log length heard of.
    known_len: u64,
    subscribed: bool,
    last_progress: u64,
    last_fetch: u64,
}

impl SubStream {
    /// The instant after which this stream falls due for a pull-repair:
    /// `fetch_after_ns` past its last progress or FETCH, if it is
    /// subscribed and known to be behind (the shard's log is longer, or
    /// records wait behind a gap); `u64::MAX` otherwise.
    fn fetch_due(&self, fetch_after_ns: u64) -> u64 {
        let behind = self.known_len > self.gate.next_seq() || self.gate.held_len() > 0;
        if self.subscribed && behind {
            self.last_progress.max(self.last_fetch).saturating_add(fetch_after_ns)
        } else {
            u64::MAX
        }
    }
}

struct SubState {
    joined: bool,
    /// Indexed by stream; `None`: never subscribed or heard of.
    streams: Vec<Option<SubStream>>,
    /// No stream falls due for a pull-repair before this (a lower bound:
    /// lowered whenever a stream is left behind, recomputed by a scan).
    fetch_due: u64,
}

struct ShardReplica {
    state: ShardState,
    /// Registered subscribers (process ids), indexed by stream.
    subs: Vec<Vec<ProcessId>>,
    /// Modeled CPU backlog frontier, ns.
    busy_until: u64,
}

/// The multi-tenant ordered log service (all roles in one hook).
pub struct LogService {
    /// Deployment configuration.
    pub cfg: LogConfig,
    alive: Vec<bool>,
    shards: Vec<ShardReplica>,
    clients: Vec<ClientState>,
    subs: Vec<SubState>,
    /// Client-side per-tenant counters (stalls live here).
    pub client_tenants: TenantTable,
    /// Append ack latency (ns) per stream, client-observed.
    pub append_latency_ns: ByKey<u64>,
    /// End-to-end append→subscriber-apply latency samples (ns).
    pub sub_e2e_ns: Samples,
    /// Total acknowledged appends observed by clients.
    pub acked_appends: u64,
    /// Total records applied by subscribers (live + replay).
    pub sub_records: u64,
}

/// Lowest-index live replica of `stream`.
fn owner_of(cfg: &LogConfig, alive: &[bool], stream: u64) -> Option<u32> {
    cfg.replicas(stream).into_iter().find(|&s| alive[s as usize])
}

impl LogService {
    /// Build a service for `cfg`; `n_processes()` processes expected.
    pub fn new(cfg: LogConfig) -> Self {
        let n_streams = cfg.n_streams as usize;
        let shards = (0..cfg.n_shards)
            .map(|_| ShardReplica {
                state: ShardState::new(),
                subs: vec![Vec::new(); n_streams],
                busy_until: 0,
            })
            .collect();
        let clients = (0..cfg.n_clients)
            .map(|_| ClientState {
                streams: (0..n_streams)
                    .map(|_| ClientStream {
                        next_seq: 0,
                        credit: cfg.window,
                        unacked: VecDeque::new(),
                    })
                    .collect(),
                pending: VecDeque::new(),
                resend_due: u64::MAX,
            })
            .collect();
        let subs = (0..cfg.n_subs)
            .map(|_| SubState {
                joined: false,
                streams: (0..n_streams).map(|_| None).collect(),
                fetch_due: u64::MAX,
            })
            .collect();
        LogService {
            alive: vec![true; cfg.n_processes()],
            cfg,
            shards,
            clients,
            subs,
            client_tenants: TenantTable::new(),
            append_latency_ns: ByKey::new(),
            sub_e2e_ns: Samples::new(),
            acked_appends: 0,
            sub_records: 0,
        }
    }

    fn shard_proc(idx: u32) -> ProcessId {
        ProcessId(idx)
    }

    fn client_proc(&self, idx: u32) -> ProcessId {
        ProcessId(self.cfg.n_shards + idx)
    }

    fn sub_proc(&self, idx: u32) -> ProcessId {
        ProcessId(self.cfg.n_shards + self.cfg.n_clients + idx)
    }

    fn role(&self, p: ProcessId) -> Role {
        let i = p.0;
        let (shards, clients) = (self.cfg.n_shards, self.cfg.n_shards + self.cfg.n_clients);
        if i < shards {
            Role::Shard(i)
        } else if i < clients {
            Role::Client(i - shards)
        } else if i < clients + self.cfg.n_subs {
            Role::Sub(i - clients)
        } else {
            Role::Outside
        }
    }

    fn is_alive(&self, p: ProcessId) -> bool {
        self.alive.get(p.0 as usize).copied().unwrap_or(false)
    }

    /// Current owner shard of `stream`: lowest-index live replica.
    pub fn owner(&self, stream: u64) -> Option<u32> {
        owner_of(&self.cfg, &self.alive, stream)
    }

    /// Hand one batch to a client; it is admitted under the credit
    /// window on the client's next tick. The only way traffic enters. A
    /// client or stream outside the deployment is refused: the batch is
    /// dropped.
    pub fn submit(&mut self, client_idx: u32, stream: u64, payload: impl Into<Bytes>) {
        if !self.cfg.has_stream(stream) {
            return;
        }
        if let Some(st) = self.clients.get_mut(client_idx as usize) {
            st.pending.push_back((stream, payload.into()));
        }
    }

    /// The shard-replica log state (for benches, tests, the oracle).
    ///
    /// # Panics
    ///
    /// If `shard_idx` is not below `n_shards`.
    pub fn shard_state(&self, shard_idx: u32) -> &ShardState {
        &self.shards[shard_idx as usize].state
    }

    /// Records a subscriber has applied for `stream`, in offset order.
    pub fn sub_applied(&self, sub_idx: u32, stream: u64) -> &[Record] {
        self.subs
            .get(sub_idx as usize)
            .and_then(|s| s.streams.get(stream as usize)?.as_ref())
            .map_or(&[], |s| s.applied.as_slice())
    }

    /// Batches submitted but not yet acknowledged, across all clients.
    pub fn unacked_total(&self) -> usize {
        let unacked = |c: &ClientState| c.streams.iter().map(|s| s.unacked.len()).sum::<usize>();
        self.clients.iter().map(|c| unacked(c) + c.pending.len()).sum()
    }

    /// Merged per-tenant counters: shard-side ∪ client-side.
    pub fn tenant_totals(&self) -> TenantTable {
        let mut t = TenantTable::new();
        for sh in &self.shards {
            t.merge(&sh.state.tenants);
        }
        t.merge(&self.client_tenants);
        t
    }

    /// Send (or resend) client `client`'s batch `(stream, seq)` as a
    /// reliable scattering to the live replicas of its stream.
    fn scatter_batch(
        cfg: &LogConfig,
        alive: &[bool],
        client: u32,
        (stream, seq): (u64, u64),
        payload: &Bytes,
        out: &mut SendQueue,
    ) {
        let wire = Append { stream, client, seq, payload: payload.clone() }.encode();
        let msgs: Vec<Message> = cfg
            .replicas(stream)
            .into_iter()
            .filter(|&s| alive[s as usize])
            .map(|s| Message::new(Self::shard_proc(s), wire.clone()))
            .collect();
        if !msgs.is_empty() {
            out.push(ProcessId(cfg.n_shards + client), msgs, true);
        }
    }

    /// Resend client `c`'s unacknowledged batches that `pick(cfg, stream,
    /// batch)` selects, in `(stream, seq)` order, and recompute its
    /// resend deadline.
    fn resend(
        &mut self,
        c: u32,
        now: u64,
        out: &mut SendQueue,
        pick: impl Fn(&LogConfig, u64, &Inflight) -> bool,
    ) {
        let LogService { cfg, alive, clients, .. } = self;
        let st = &mut clients[c as usize];
        let mut due = u64::MAX;
        for (stream, cs) in (0u64..).zip(st.streams.iter_mut()) {
            for inf in cs.unacked.iter_mut() {
                if pick(cfg, stream, inf) {
                    Self::scatter_batch(cfg, alive, c, (stream, inf.seq), &inf.payload, out);
                    inf.last_sent = now;
                }
                due = due.min(inf.last_sent + cfg.resend_after_ns);
            }
        }
        st.resend_due = due;
    }

    /// Admit pending arrivals at client `c` while credit allows.
    fn try_admit(&mut self, c: u32, now: u64, out: &mut SendQueue) {
        let LogService { cfg, alive, clients, client_tenants, .. } = self;
        let st = &mut clients[c as usize];
        // `submit` only queues streams of this deployment.
        while let Some(&(stream, _)) = st.pending.front() {
            let cs = &mut st.streams[stream as usize];
            if cs.unacked.len() >= cs.credit as usize {
                // Blocked on credit: surfaced as a backpressure stall.
                client_tenants.tenant(stream).stalls += 1;
                return;
            }
            let Some((_, payload)) = st.pending.pop_front() else { return };
            let seq = cs.next_seq;
            cs.next_seq += 1;
            Self::scatter_batch(cfg, alive, c, (stream, seq), &payload, out);
            cs.unacked.push_back(Inflight { seq, payload, first_sent: now, last_sent: now });
            st.resend_due = st.resend_due.min(now + cfg.resend_after_ns);
        }
    }

    /// Owner-side reaction to an applied append: ack + fan-out.
    #[allow(clippy::too_many_arguments)]
    fn owner_emit(
        &mut self,
        shard_idx: u32,
        now: u64,
        stream: u64,
        client_idx: u32,
        seq_next: u64,
        appended: Range<u64>,
        out: &mut SendQueue,
    ) {
        let me = Self::shard_proc(shard_idx);
        let client_proc = self.client_proc(client_idx);
        let sh = &mut self.shards[shard_idx as usize];
        // CPU model: each appended record costs server_op_ns; credit
        // shrinks while the backlog exceeds the limit.
        let n_appended = appended.end - appended.start;
        sh.busy_until = sh.busy_until.max(now) + self.cfg.server_op_ns * n_appended;
        let backlog = sh.busy_until.saturating_sub(now);
        let held = sh.state.stream(stream).map_or(0, |s| s.held_len());
        let credit = if backlog > BUSY_LIMIT_NS || held as u32 >= self.cfg.window {
            1
        } else {
            self.cfg.window
        };
        let log_len = sh.state.len(stream);
        out.push_raw(me, client_proc, Ack { stream, seq_next, log_len, credit }.encode());
        let subs = &sh.subs[stream as usize];
        if appended.is_empty() || subs.is_empty() {
            return;
        }
        let records: Vec<WireRecord> = sh
            .state
            .range(stream, appended.start, appended.end)
            .iter()
            .map(|r| WireRecord {
                offset: r.offset,
                client: r.client,
                seq: r.seq,
                appended_at: now,
                payload: r.payload.clone(),
            })
            .collect();
        let n = records.len() as u64;
        let set = RecordSet { stream, log_len, records }.encode(tag::RECORD);
        sh.state.tenants.tenant(stream).fanout_records += n * subs.len() as u64;
        for &sub in subs {
            out.push_raw(me, sub, set.clone());
        }
    }

    /// Serve `[from, …)` of a stream to `to` in snapshot chunks.
    fn serve_replay(
        &mut self,
        shard_idx: u32,
        stream: u64,
        from: u64,
        to: ProcessId,
        now: u64,
        out: &mut SendQueue,
    ) {
        let me = Self::shard_proc(shard_idx);
        let sh = &mut self.shards[shard_idx as usize];
        let log_len = sh.state.len(stream);
        let mut at = from.min(log_len);
        let mut shipped = 0u64;
        loop {
            let hi = (at + SNAPSHOT_CHUNK).min(log_len);
            let records: Vec<WireRecord> = sh
                .state
                .range(stream, at, hi)
                .iter()
                .map(|r| WireRecord {
                    offset: r.offset,
                    client: r.client,
                    seq: r.seq,
                    appended_at: now,
                    payload: r.payload.clone(),
                })
                .collect();
            shipped += records.len() as u64;
            let set = RecordSet { stream, log_len, records }.encode(tag::CHUNK);
            out.push_raw(me, to, set);
            at = hi;
            if at >= log_len {
                break;
            }
        }
        sh.state.tenants.tenant(stream).fanout_records += shipped;
    }

    /// Subscriber-side: integrate a record set, apply what is contiguous.
    fn sub_ingest(&mut self, sub_idx: u32, now: u64, set: RecordSet) {
        let fetch_after = self.cfg.fetch_after_ns;
        let st = &mut self.subs[sub_idx as usize];
        let ss = st.streams[set.stream as usize].get_or_insert_with(SubStream::default);
        ss.known_len = ss.known_len.max(set.log_len);
        let before = ss.applied.len();
        for r in set.records {
            let Offered::Released(run) = ss.gate.offer(r.offset, r) else { continue };
            for (offset, WireRecord { client, seq, appended_at, payload, .. }) in run {
                self.sub_e2e_ns.push(now.saturating_sub(appended_at) as f64);
                ss.applied.push(Record { offset, client, seq, payload });
            }
        }
        let applied_now = (ss.applied.len() - before) as u64;
        if applied_now > 0 {
            ss.last_progress = now;
            self.sub_records += applied_now;
        }
        st.fetch_due = st.fetch_due.min(ss.fetch_due(fetch_after));
    }

    /// One subscriber tick: the initial subscriptions, then a pull-repair
    /// scan once the earliest stream can be due — a stream known to be
    /// ahead with no recent progress gets a FETCH from its frontier.
    fn sub_tick(&mut self, u: u32, now: u64, out: &mut SendQueue) {
        let from = self.sub_proc(u);
        let LogService { cfg, alive, subs, .. } = self;
        let st = &mut subs[u as usize];
        if !st.joined {
            // Initial subscription to every assigned stream.
            for stream in 0..cfg.n_streams {
                if !cfg.subs_of(stream).contains(&u) {
                    continue;
                }
                if let Some(owner) = owner_of(cfg, alive, stream) {
                    out.push_raw(
                        from,
                        Self::shard_proc(owner),
                        StreamReq { stream, from: 0 }.encode(tag::SUBSCRIBE),
                    );
                    let ss = st.streams[stream as usize].get_or_insert_with(SubStream::default);
                    ss.subscribed = true;
                    st.fetch_due = st.fetch_due.min(ss.fetch_due(cfg.fetch_after_ns));
                }
            }
            st.joined = true;
        }
        if now <= st.fetch_due {
            return;
        }
        let mut due = u64::MAX;
        for (stream, ss) in (0u64..).zip(st.streams.iter_mut()) {
            let Some(ss) = ss else { continue };
            if now > ss.fetch_due(cfg.fetch_after_ns) {
                ss.last_fetch = now;
                if let Some(owner) = owner_of(cfg, alive, stream) {
                    out.push_raw(
                        from,
                        Self::shard_proc(owner),
                        StreamReq { stream, from: ss.gate.next_seq() }.encode(tag::FETCH),
                    );
                }
            }
            due = due.min(ss.fetch_due(cfg.fetch_after_ns));
        }
        st.fetch_due = due;
    }

    /// One process's reaction to a failure announcement. The callback
    /// fires once per *local* process on each host, and the send queue
    /// only accepts sends from local endpoints — so the reaction must
    /// stay strictly per-process: a client resends its own window, a
    /// subscriber re-subscribes its own streams.
    fn on_failures(
        &mut self,
        now: u64,
        proc: ProcessId,
        failed: &[ProcessId],
        out: &mut SendQueue,
    ) {
        for p in failed {
            if let Some(a) = self.alive.get_mut(p.0 as usize) {
                *a = false;
            }
        }
        let lost_member = |cfg: &LogConfig, stream: u64| {
            cfg.replicas(stream).iter().any(|&s| failed.contains(&Self::shard_proc(s)))
        };
        match self.role(proc) {
            // Clients: resend every unacknowledged batch whose replica
            // group lost a member; the gate makes resends idempotent.
            Role::Client(c) => self.resend(c, now, out, |cfg, stream, _| lost_member(cfg, stream)),
            // Subscribers: streams whose group lost a member must
            // re-subscribe at the (possibly new) owner from the current
            // frontier; replay fills the failover hole.
            Role::Sub(u) => {
                let LogService { cfg, alive, subs, .. } = self;
                let st = &mut subs[u as usize];
                if !st.joined {
                    return;
                }
                for (stream, ss) in (0u64..).zip(st.streams.iter_mut()) {
                    let Some(ss) = ss else { continue };
                    if !lost_member(cfg, stream) {
                        continue;
                    }
                    ss.subscribed = false;
                    if let Some(owner) = owner_of(cfg, alive, stream) {
                        out.push_raw(
                            proc,
                            Self::shard_proc(owner),
                            StreamReq { stream, from: ss.gate.next_seq() }.encode(tag::SUBSCRIBE),
                        );
                        ss.subscribed = true;
                        st.fetch_due = st.fetch_due.min(ss.fetch_due(cfg.fetch_after_ns));
                    }
                }
            }
            // A surviving replica needs no action: it becomes owner
            // implicitly and starts acking on the clients' resends.
            Role::Shard(_) | Role::Outside => {}
        }
    }
}

/// A process's role and its index within the role, always below the
/// role's `LogConfig` count: the service indexes its role tables by it.
enum Role {
    Shard(u32),
    Client(u32),
    Sub(u32),
    /// A process past the deployment's `n_processes()`.
    Outside,
}

impl AppHook for LogService {
    fn on_delivery(
        &mut self,
        now: u64,
        receiver: ProcessId,
        msg: &Delivered,
        reliable: bool,
        out: &mut SendQueue,
    ) {
        let Role::Shard(shard_idx) = self.role(receiver) else { return };
        if !reliable {
            return;
        }
        let mut p = msg.payload.clone();
        if p.remaining() < 1 || p.get_u8() != tag::APPEND {
            return;
        }
        let Some(a) = Append::decode(&mut p) else { return };
        if !self.cfg.has_stream(a.stream) || a.client >= self.cfg.n_clients {
            return;
        }
        let applied =
            self.shards[shard_idx as usize].state.apply(a.stream, a.client, a.seq, a.payload);
        // Only the owner talks; the backup applies silently and stays
        // byte-identical thanks to the shared total order.
        if self.owner(a.stream) == Some(shard_idx) {
            self.owner_emit(
                shard_idx,
                now,
                a.stream,
                a.client,
                applied.next_seq,
                applied.appended,
                out,
            );
        }
    }

    fn on_user_event(
        &mut self,
        now: u64,
        proc: ProcessId,
        ev: &UserEvent,
        out: &mut SendQueue,
    ) -> bool {
        match ev {
            UserEvent::ProcessFailed { failures, .. } => {
                let failed: Vec<ProcessId> = failures.iter().map(|(p, _)| *p).collect();
                self.on_failures(now, proc, &failed, out);
            }
            UserEvent::SendFailed { .. } | UserEvent::Recalled { .. } => {
                // A scattering died (receiver failed mid-flight): resend
                // this client's whole unacknowledged window — duplicates
                // are dropped by the gates.
                if let Role::Client(c) = self.role(proc) {
                    self.resend(c, now, out, |_, _, _| true);
                }
            }
            UserEvent::Committed { .. } => {}
        }
        true
    }

    fn on_raw(
        &mut self,
        now: u64,
        receiver: ProcessId,
        src: ProcessId,
        payload: &Bytes,
        out: &mut SendQueue,
    ) {
        let mut p = payload.clone();
        if p.remaining() < 1 {
            return;
        }
        let t = p.get_u8();
        match (self.role(receiver), t) {
            (Role::Client(c), tag::ACK) => {
                let Some(ack) = Ack::decode(&mut p) else { return };
                if !self.cfg.has_stream(ack.stream) {
                    return;
                }
                let cs = &mut self.clients[c as usize].streams[ack.stream as usize];
                cs.credit = ack.credit.max(1);
                while let Some(inf) = cs.unacked.pop_front_if(|inf| inf.seq < ack.seq_next) {
                    self.acked_appends += 1;
                    self.append_latency_ns
                        .push(ack.stream, now.saturating_sub(inf.first_sent) as f64);
                }
                self.try_admit(c, now, out);
            }
            (Role::Shard(s), tag::SUBSCRIBE) => {
                let Some(req) = StreamReq::decode(&mut p) else { return };
                if !self.cfg.has_stream(req.stream) {
                    return;
                }
                let subs = &mut self.shards[s as usize].subs[req.stream as usize];
                if !subs.contains(&src) {
                    subs.push(src);
                }
                self.serve_replay(s, req.stream, req.from, src, now, out);
            }
            (Role::Shard(s), tag::FETCH) => {
                let Some(req) = StreamReq::decode(&mut p) else { return };
                if !self.cfg.has_stream(req.stream) {
                    return;
                }
                self.serve_replay(s, req.stream, req.from, src, now, out);
            }
            (Role::Sub(u), tag::RECORD) | (Role::Sub(u), tag::CHUNK) => {
                let Some(set) = RecordSet::decode(&mut p) else { return };
                if !self.cfg.has_stream(set.stream) {
                    return;
                }
                self.sub_ingest(u, now, set);
            }
            _ => {}
        }
    }

    fn on_tick(&mut self, now: u64, _host: HostId, procs: &[ProcessId], out: &mut SendQueue) {
        for &proc in procs {
            if !self.is_alive(proc) {
                continue;
            }
            match self.role(proc) {
                Role::Client(c) => {
                    // Timer resend of stale unacknowledged batches, once
                    // the earliest of them can be due.
                    if now > self.clients[c as usize].resend_due {
                        self.resend(c, now, out, |cfg, _, inf| {
                            now.saturating_sub(inf.last_sent) > cfg.resend_after_ns
                        });
                    }
                    self.try_admit(c, now, out);
                }
                Role::Sub(u) => {
                    let join_at = self.cfg.join_at.get(u as usize).copied().unwrap_or(0);
                    if now >= join_at {
                        self.sub_tick(u, now, out);
                    }
                }
                Role::Shard(_) | Role::Outside => {}
            }
        }
    }
}
