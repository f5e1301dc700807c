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
use std::collections::{BTreeMap, VecDeque};

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
    pub fn replicas(&self, stream: u64) -> Vec<u32> {
        let p = shard_of(stream, self.n_shards as usize) as u32;
        if self.replicate && self.n_shards >= 2 {
            vec![p, (p + 1) % self.n_shards]
        } else {
            vec![p]
        }
    }

    /// Subscriber indices assigned to `stream` under the fan-out policy.
    pub fn subs_of(&self, stream: u64) -> Vec<u32> {
        let f = self.fanout.min(self.n_subs);
        (0..f).map(|i| ((stream + i as u64) % self.n_subs as u64) as u32).collect()
    }
}

/// One in-flight (sent, unacknowledged) batch at a client.
struct Inflight {
    payload: Bytes,
    first_sent: u64,
    last_sent: u64,
}

#[derive(Default)]
struct ClientState {
    /// Next sequence to assign, per stream.
    next_seq: BTreeMap<u64, u64>,
    /// Sent but unacknowledged, keyed `(stream, seq)`.
    unacked: BTreeMap<(u64, u64), Inflight>,
    /// Outstanding batch count per stream (cache of `unacked` per key).
    outstanding: BTreeMap<u64, u32>,
    /// Last credit grant per stream (defaults to the full window).
    credit: BTreeMap<u64, u32>,
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

#[derive(Default)]
struct SubState {
    joined: bool,
    streams: BTreeMap<u64, SubStream>,
}

#[derive(Default)]
struct ShardReplica {
    state: ShardState,
    /// Registered subscribers per stream (process ids).
    subs: BTreeMap<u64, Vec<ProcessId>>,
    /// Modeled CPU backlog frontier, ns.
    busy_until: u64,
}

/// The multi-tenant ordered log service (all roles in one hook).
pub struct LogService {
    /// Deployment configuration.
    pub cfg: LogConfig,
    alive: Vec<bool>,
    shards: BTreeMap<u32, ShardReplica>,
    clients: BTreeMap<u32, ClientState>,
    subs: BTreeMap<u32, SubState>,
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

impl LogService {
    /// Build a service for `cfg`; `n_processes()` processes expected.
    pub fn new(cfg: LogConfig) -> Self {
        let n = cfg.n_processes();
        let clients = (0..cfg.n_clients).map(|c| (c, ClientState::default())).collect();
        let shards = (0..cfg.n_shards).map(|s| (s, ShardReplica::default())).collect();
        let subs = (0..cfg.n_subs).map(|u| (u, SubState::default())).collect();
        LogService {
            cfg,
            alive: vec![true; n],
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
        if i < self.cfg.n_shards {
            Role::Shard(i)
        } else if i < self.cfg.n_shards + self.cfg.n_clients {
            Role::Client(i - self.cfg.n_shards)
        } else {
            Role::Sub(i - self.cfg.n_shards - self.cfg.n_clients)
        }
    }

    fn is_alive(&self, p: ProcessId) -> bool {
        self.alive.get(p.0 as usize).copied().unwrap_or(false)
    }

    /// Current owner shard of `stream`: lowest-index live replica.
    pub fn owner(&self, stream: u64) -> Option<u32> {
        self.cfg.replicas(stream).into_iter().find(|&s| self.alive[s as usize])
    }

    /// Hand one batch to a client; it is admitted under the credit
    /// window on the client's next tick. The only way traffic enters.
    pub fn submit(&mut self, client_idx: u32, stream: u64, payload: impl Into<Bytes>) {
        let st = self.clients.get_mut(&client_idx).expect("client exists");
        st.pending.push_back((stream, payload.into()));
    }

    /// The shard-replica log state (for benches, tests, the oracle).
    pub fn shard_state(&self, shard_idx: u32) -> &ShardState {
        &self.shards.get(&shard_idx).expect("shard exists").state
    }

    /// Records a subscriber has applied for `stream`, in offset order.
    pub fn sub_applied(&self, sub_idx: u32, stream: u64) -> &[Record] {
        self.subs
            .get(&sub_idx)
            .and_then(|s| s.streams.get(&stream))
            .map(|s| s.applied.as_slice())
            .unwrap_or(&[])
    }

    /// Batches submitted but not yet acknowledged, across all clients.
    pub fn unacked_total(&self) -> usize {
        self.clients.values().map(|c| c.unacked.len() + c.pending.len()).sum()
    }

    /// Merged per-tenant counters: shard-side ∪ client-side.
    pub fn tenant_totals(&self) -> TenantTable {
        let mut t = TenantTable::new();
        for sh in self.shards.values() {
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
    /// batch)` selects, in key order, and recompute its resend deadline.
    fn resend(
        &mut self,
        c: u32,
        now: u64,
        out: &mut SendQueue,
        pick: impl Fn(&LogConfig, u64, &Inflight) -> bool,
    ) {
        let LogService { cfg, alive, clients, .. } = self;
        let Some(st) = clients.get_mut(&c) else { return };
        let mut due = u64::MAX;
        for (&key, inf) in st.unacked.iter_mut() {
            if pick(cfg, key.0, inf) {
                Self::scatter_batch(cfg, alive, c, key, &inf.payload, out);
                inf.last_sent = now;
            }
            due = due.min(inf.last_sent + cfg.resend_after_ns);
        }
        st.resend_due = due;
    }

    /// Admit pending arrivals at client `c` while credit allows.
    fn try_admit(&mut self, c: u32, now: u64, out: &mut SendQueue) {
        let window = self.cfg.window;
        loop {
            let Some(st) = self.clients.get_mut(&c) else { return };
            let stream = match st.pending.front() {
                Some((s, _)) => *s,
                None => return,
            };
            let credit = st.credit.get(&stream).copied().unwrap_or(window);
            let outstanding = st.outstanding.get(&stream).copied().unwrap_or(0);
            if outstanding >= credit {
                // Blocked on credit: surfaced as a backpressure stall.
                self.client_tenants.tenant(stream).stalls += 1;
                return;
            }
            let (stream, payload) = st.pending.pop_front().expect("front checked");
            let seq_ref = st.next_seq.entry(stream).or_insert(0);
            let seq = *seq_ref;
            *seq_ref += 1;
            *st.outstanding.entry(stream).or_insert(0) += 1;
            st.unacked.insert(
                (stream, seq),
                Inflight { payload: payload.clone(), first_sent: now, last_sent: now },
            );
            st.resend_due = st.resend_due.min(now + self.cfg.resend_after_ns);
            Self::scatter_batch(&self.cfg, &self.alive, c, (stream, seq), &payload, out);
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
        appended: &[u64],
        out: &mut SendQueue,
    ) {
        let me = Self::shard_proc(shard_idx);
        let client_proc = self.client_proc(client_idx);
        let sh = self.shards.get_mut(&shard_idx).expect("shard exists");
        // CPU model: each appended record costs server_op_ns; credit
        // shrinks while the backlog exceeds the limit.
        sh.busy_until = sh.busy_until.max(now) + self.cfg.server_op_ns * appended.len() as u64;
        let backlog = sh.busy_until.saturating_sub(now);
        let held = sh.state.stream(stream).map(|s| s.held_len()).unwrap_or(0);
        let credit = if backlog > BUSY_LIMIT_NS || held as u32 >= self.cfg.window {
            1
        } else {
            self.cfg.window
        };
        let log_len = sh.state.len(stream);
        out.push_raw(me, client_proc, Ack { stream, seq_next, log_len, credit }.encode());
        if appended.is_empty() {
            return;
        }
        let subs = sh.subs.get(&stream).cloned().unwrap_or_default();
        if subs.is_empty() {
            return;
        }
        let records: Vec<WireRecord> = sh
            .state
            .range(stream, appended[0], appended[appended.len() - 1] + 1)
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
        for sub in subs {
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
        let sh = self.shards.get_mut(&shard_idx).expect("shard exists");
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
        let stream = set.stream;
        let st = self.subs.entry(sub_idx).or_default();
        let ss = st.streams.entry(stream).or_default();
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
        match self.role(proc) {
            // Clients: resend every unacknowledged batch whose replica
            // group lost a member; the gate makes resends idempotent.
            Role::Client(c) => self.resend(c, now, out, |cfg, stream, _| {
                cfg.replicas(stream).iter().any(|&s| failed.contains(&Self::shard_proc(s)))
            }),
            // Subscribers: streams whose group lost a member must
            // re-subscribe at the (possibly new) owner from the current
            // frontier; replay fills the failover hole.
            Role::Sub(u) => {
                let cfg = &self.cfg;
                let Some(st) = self.subs.get_mut(&u) else { return };
                if !st.joined {
                    return;
                }
                let moved: Vec<(u64, u64)> = st
                    .streams
                    .iter_mut()
                    .filter_map(|(stream, ss)| {
                        let group = cfg.replicas(*stream);
                        if group.iter().any(|&s| failed.contains(&Self::shard_proc(s))) {
                            ss.subscribed = false;
                            Some((*stream, ss.gate.next_seq()))
                        } else {
                            None
                        }
                    })
                    .collect();
                for (stream, next) in moved {
                    if let Some(owner) = self.owner(stream) {
                        out.push_raw(
                            proc,
                            Self::shard_proc(owner),
                            StreamReq { stream, from: next }.encode(tag::SUBSCRIBE),
                        );
                        if let Some(ss) =
                            self.subs.get_mut(&u).and_then(|s| s.streams.get_mut(&stream))
                        {
                            ss.subscribed = true;
                        }
                    }
                }
            }
            // A surviving replica needs no action: it becomes owner
            // implicitly and starts acking on the clients' resends.
            Role::Shard(_) => {}
        }
    }
}

enum Role {
    Shard(u32),
    Client(u32),
    Sub(u32),
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
        let applied = self
            .shards
            .get_mut(&shard_idx)
            .expect("shard exists")
            .state
            .apply(a.stream, a.client, a.seq, a.payload);
        // Only the owner talks; the backup applies silently and stays
        // byte-identical thanks to the shared total order.
        if self.owner(a.stream) == Some(shard_idx) {
            self.owner_emit(
                shard_idx,
                now,
                a.stream,
                a.client,
                applied.next_seq,
                &applied.appended,
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
                let mut acked: Vec<(u64, u64)> = Vec::new();
                if let Some(st) = self.clients.get_mut(&c) {
                    st.credit.insert(ack.stream, ack.credit.max(1));
                    let done: Vec<(u64, u64)> = st
                        .unacked
                        .range((ack.stream, 0)..(ack.stream, ack.seq_next))
                        .map(|(k, _)| *k)
                        .collect();
                    for k in done {
                        let inf = st.unacked.remove(&k).expect("key from range");
                        if let Some(o) = st.outstanding.get_mut(&ack.stream) {
                            *o = o.saturating_sub(1);
                        }
                        acked.push((k.0, now.saturating_sub(inf.first_sent)));
                    }
                }
                for (stream, lat) in acked {
                    self.acked_appends += 1;
                    self.append_latency_ns.push(stream, lat as f64);
                }
                self.try_admit(c, now, out);
            }
            (Role::Shard(s), tag::SUBSCRIBE) => {
                let Some(req) = StreamReq::decode(&mut p) else { return };
                let sh = self.shards.get_mut(&s).expect("shard exists");
                let subs = sh.subs.entry(req.stream).or_default();
                if !subs.contains(&src) {
                    subs.push(src);
                }
                self.serve_replay(s, req.stream, req.from, src, now, out);
            }
            (Role::Shard(s), tag::FETCH) => {
                let Some(req) = StreamReq::decode(&mut p) else { return };
                self.serve_replay(s, req.stream, req.from, src, now, out);
            }
            (Role::Sub(u), tag::RECORD) | (Role::Sub(u), tag::CHUNK) => {
                let Some(set) = RecordSet::decode(&mut p) else { return };
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
                    if self.clients.get(&c).is_some_and(|st| now > st.resend_due) {
                        self.resend(c, now, out, |cfg, _, inf| {
                            now.saturating_sub(inf.last_sent) > cfg.resend_after_ns
                        });
                    }
                    self.try_admit(c, now, out);
                }
                Role::Sub(u) => {
                    let from = self.sub_proc(u);
                    let join_at = self.cfg.join_at.get(u as usize).copied().unwrap_or(0);
                    if now < join_at {
                        continue;
                    }
                    if !self.subs.get(&u).map(|s| s.joined).unwrap_or(false) {
                        // Initial subscription to every assigned stream.
                        let assigned: Vec<u64> = (0..self.cfg.n_streams)
                            .filter(|&s| self.cfg.subs_of(s).contains(&u))
                            .collect();
                        for stream in assigned {
                            if let Some(owner) = self.owner(stream) {
                                out.push_raw(
                                    from,
                                    Self::shard_proc(owner),
                                    StreamReq { stream, from: 0 }.encode(tag::SUBSCRIBE),
                                );
                                let st = self.subs.entry(u).or_default();
                                st.streams.entry(stream).or_default().subscribed = true;
                            }
                        }
                        if let Some(st) = self.subs.get_mut(&u) {
                            st.joined = true;
                        }
                    }
                    // Pull-repair: a stream known to be ahead with no
                    // recent progress gets a FETCH from the frontier.
                    let mut fetches = Vec::new();
                    if let Some(st) = self.subs.get_mut(&u) {
                        for (stream, ss) in st.streams.iter_mut() {
                            let next = ss.gate.next_seq();
                            let behind = ss.known_len > next || ss.gate.held_len() > 0;
                            let idle = now.saturating_sub(ss.last_progress.max(ss.last_fetch))
                                > self.cfg.fetch_after_ns;
                            if ss.subscribed && behind && idle {
                                ss.last_fetch = now;
                                fetches.push((*stream, next));
                            }
                        }
                    }
                    for (stream, next) in fetches {
                        if let Some(owner) = self.owner(stream) {
                            out.push_raw(
                                from,
                                Self::shard_proc(owner),
                                StreamReq { stream, from: next }.encode(tag::FETCH),
                            );
                        }
                    }
                }
                Role::Shard(_) => {}
            }
        }
    }
}
