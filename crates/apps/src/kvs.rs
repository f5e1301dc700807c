//! Distributed transactional key-value store (Figure 14).
//!
//! Every process is both a shard server (keys hashed across processes)
//! and a transaction client. A transaction is a set of independent KV
//! reads/writes dispatched to the owning shards (§7.3.1):
//!
//! * **1Pipe** — read-only transactions are a best-effort scattering,
//!   write transactions a reliable scattering; each shard executes
//!   operations in delivered (total) order, so transactions are
//!   serializable *without locks*. Replies use plain (unordered) RPC.
//! * **FaRM** — OCC with two-phase commit: read (with versions), lock the
//!   write set, validate the read set, update+unlock. Read-only
//!   transactions read in 1 RTT and retry if they observe a lock.
//! * **NonTX** — plain per-op RPC without any transactional guarantee:
//!   the hardware upper bound.

use crate::metrics::TxnRecord;
use crate::workload::{etc_value_size, shard_of, KeyDist};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use onepipe_core::simhost::{AppHook, SendQueue};
use onepipe_types::ids::{HostId, ProcessId};
use onepipe_types::message::{Delivered, Message};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};

/// Which system serves the transactions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvsMode {
    /// 1Pipe scattering transactions.
    OnePipe,
    /// FaRM-style OCC + two-phase commit.
    Farm,
    /// Non-transactional per-op RPC (upper bound).
    NonTx,
}

/// Transaction kind codes for [`TxnRecord::kind`].
pub const KIND_RO: u8 = 0;
/// Write-only transaction.
pub const KIND_WO: u8 = 1;
/// Read-write transaction.
pub const KIND_WR: u8 = 2;

/// KVS configuration.
#[derive(Clone, Debug)]
pub struct KvsConfig {
    /// System under test.
    pub mode: KvsMode,
    /// Total processes (= shards = clients).
    pub n_procs: usize,
    /// Key space size.
    pub keys: u64,
    /// Key popularity distribution.
    pub dist: KeyDist,
    /// KV operations per transaction (paper default: 2).
    pub ops_per_txn: usize,
    /// Probability an op in a non-RO transaction is a write.
    pub write_frac: f64,
    /// Fraction of transactions that are read-only (paper default: 0.5).
    pub ro_frac: f64,
    /// Closed-loop outstanding transactions per client.
    pub pipeline: usize,
    /// Retry timeout for best-effort (RO) transactions, ns.
    pub ro_timeout: u64,
    /// Server CPU service time per handled request, ns (0 disables the
    /// model). The paper's throughput comparisons are CPU/message-count
    /// bound: each RPC or 1Pipe op costs the serving process this much.
    pub server_op_ns: u64,
    /// Workload RNG seed.
    pub seed: u64,
}

impl KvsConfig {
    /// The paper's default: 2-op transactions, 50% read-only.
    pub fn paper_default(mode: KvsMode, n_procs: usize, dist: KeyDist) -> Self {
        KvsConfig {
            mode,
            n_procs,
            keys: 1_000_000,
            dist,
            ops_per_txn: 2,
            write_frac: 0.5,
            ro_frac: 0.5,
            pipeline: 4,
            ro_timeout: 1_000_000,
            server_op_ns: 0,
            seed: 7,
        }
    }
}

#[derive(Clone, Debug)]
struct Op {
    write: bool,
    key: u64,
    vlen: u16,
}

#[derive(Clone, Debug, Default)]
struct Entry {
    version: u64,
    len: u16,
    locked_by: Option<u64>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FarmPhase {
    Exec,
    Lock,
    Validate,
    Update,
    Unlock,
}

#[derive(Debug)]
struct Txn {
    client: ProcessId,
    kind: u8,
    ops: Vec<Op>,
    start: u64,
    retries: u32,
    awaiting: usize,
    // FaRM state.
    phase: FarmPhase,
    /// Version seen per key read. Ordered: VALIDATEs go out in its
    /// iteration order, which must not vary from run to run.
    read_versions: BTreeMap<u64, u64>,
    locked: Vec<u64>,
    failed: bool,
    issued_at: u64,
}

// RPC tags.
const T_REPLY: u8 = 0;
const T_READ: u8 = 1;
const T_READ_R: u8 = 2;
const T_LOCK: u8 = 3;
const T_LOCK_R: u8 = 4;
const T_VALIDATE: u8 = 5;
const T_VALIDATE_R: u8 = 6;
const T_UPDATE: u8 = 7;
const T_UPDATE_R: u8 = 8;
const T_UNLOCK: u8 = 9;
const T_UNLOCK_R: u8 = 10;
const T_NONTX: u8 = 11;
const T_NONTX_R: u8 = 12;

/// The KVS application (shared across all hosts).
pub struct KvsApp {
    cfg: KvsConfig,
    stores: Vec<HashMap<u64, Entry>>,
    txns: HashMap<u64, Txn>,
    next_txn: u64,
    outstanding: Vec<usize>,
    rng: StdRng,
    /// Completed transactions.
    pub completed: Vec<TxnRecord>,
    /// Per-client retry queue: (ready_at, txn_id).
    retry_queue: Vec<(u64, u64)>,
    /// OCC/lock aborts observed.
    pub aborts: u64,
    /// Per-server CPU busy-until (service-time model).
    busy_until: HashMap<ProcessId, u64>,
    /// Server replies waiting for CPU time: (ready_at, from, to, payload).
    deferred: Vec<(u64, ProcessId, ProcessId, Bytes)>,
}

impl KvsApp {
    /// Create the app.
    pub fn new(cfg: KvsConfig) -> Self {
        let n = cfg.n_procs;
        KvsApp {
            rng: StdRng::seed_from_u64(cfg.seed),
            stores: vec![HashMap::new(); n],
            txns: HashMap::new(),
            next_txn: 1,
            outstanding: vec![0; n],
            completed: Vec::new(),
            retry_queue: Vec::new(),
            aborts: 0,
            busy_until: HashMap::new(),
            deferred: Vec::new(),
            cfg,
        }
    }

    /// Send a server reply, charging the server's CPU when the service
    /// model is enabled.
    fn reply(
        &mut self,
        now: u64,
        from: ProcessId,
        to: ProcessId,
        payload: Bytes,
        out: &mut SendQueue,
    ) {
        if self.cfg.server_op_ns == 0 {
            out.push_raw(from, to, payload);
            return;
        }
        let busy = self.busy_until.entry(from).or_insert(0);
        let start = (*busy).max(now);
        *busy = start + self.cfg.server_op_ns;
        let ready = *busy;
        self.deferred.push((ready, from, to, payload));
    }

    fn gen_ops(&mut self) -> (u8, Vec<Op>) {
        let ro = self.rng.random_range(0.0..1.0) < self.cfg.ro_frac;
        let mut ops = Vec::with_capacity(self.cfg.ops_per_txn);
        let mut writes = 0;
        for _ in 0..self.cfg.ops_per_txn {
            let key = self.cfg.dist.sample(&mut self.rng);
            let write = !ro && self.rng.random_range(0.0..1.0) < self.cfg.write_frac;
            if write {
                writes += 1;
            }
            let vlen = etc_value_size(&mut self.rng) as u16;
            ops.push(Op { write, key, vlen });
        }
        if !ro && writes == 0 {
            ops[0].write = true;
            writes = 1;
        }
        let kind = if ro {
            KIND_RO
        } else if writes == ops.len() {
            KIND_WO
        } else {
            KIND_WR
        };
        (kind, ops)
    }

    fn shard(&self, key: u64) -> ProcessId {
        ProcessId(shard_of(key, self.cfg.n_procs) as u32)
    }

    fn start_txn(&mut self, now: u64, client: ProcessId, out: &mut SendQueue) {
        let (kind, ops) = self.gen_ops();
        let id = self.next_txn;
        self.next_txn += 1;
        let txn = Txn {
            client,
            kind,
            ops,
            start: now,
            retries: 0,
            awaiting: 0,
            phase: FarmPhase::Exec,
            read_versions: BTreeMap::new(),
            locked: Vec::new(),
            failed: false,
            issued_at: now,
        };
        self.txns.insert(id, txn);
        self.outstanding[client.0 as usize] += 1;
        self.issue(now, id, out);
    }

    /// (Re-)issue a transaction from scratch.
    fn issue(&mut self, now: u64, id: u64, out: &mut SendQueue) {
        let Some(txn) = self.txns.get_mut(&id) else { return };
        txn.issued_at = now;
        txn.failed = false;
        txn.read_versions.clear();
        txn.locked.clear();
        match self.cfg.mode {
            KvsMode::OnePipe => {
                let (client, reliable, ops) = {
                    let txn = self.txns.get_mut(&id).unwrap();
                    txn.awaiting = txn.ops.len();
                    (txn.client, txn.kind != KIND_RO, txn.ops.clone())
                };
                let msgs: Vec<Message> = ops
                    .iter()
                    .map(|op| {
                        let mut b = BytesMut::new();
                        b.put_u64(id);
                        b.put_u8(op.write as u8);
                        b.put_u64(op.key);
                        b.put_u16(op.vlen);
                        if op.write {
                            b.extend_from_slice(&vec![0u8; op.vlen as usize]);
                        }
                        Message::new(self.shard(op.key), b.freeze())
                    })
                    .collect();
                out.push(client, msgs, reliable);
            }
            KvsMode::NonTx => {
                let (client, ops) = {
                    let txn = self.txns.get_mut(&id).unwrap();
                    txn.awaiting = txn.ops.len();
                    (txn.client, txn.ops.clone())
                };
                for op in &ops {
                    let mut b = BytesMut::new();
                    b.put_u8(T_NONTX);
                    b.put_u64(id);
                    b.put_u8(op.write as u8);
                    b.put_u64(op.key);
                    b.put_u16(op.vlen);
                    if op.write {
                        b.extend_from_slice(&vec![0u8; op.vlen as usize]);
                    }
                    out.push_raw(client, self.shard(op.key), b.freeze());
                }
            }
            KvsMode::Farm => {
                self.farm_exec(id, out);
            }
        }
    }

    // ------------------------------------------------------------------
    // FaRM (OCC + 2PC) client phases
    // ------------------------------------------------------------------

    fn farm_exec(&mut self, id: u64, out: &mut SendQueue) {
        let txn = self.txns.get_mut(&id).unwrap();
        txn.phase = FarmPhase::Exec;
        let reads: Vec<u64> = txn.ops.iter().filter(|o| !o.write).map(|o| o.key).collect();
        if reads.is_empty() {
            self.farm_lock(id, out);
            return;
        }
        let txn = self.txns.get_mut(&id).unwrap();
        txn.awaiting = reads.len();
        let client = txn.client;
        for key in reads {
            let mut b = BytesMut::new();
            b.put_u8(T_READ);
            b.put_u64(id);
            b.put_u64(key);
            out.push_raw(client, self.shard(key), b.freeze());
        }
    }

    fn farm_lock(&mut self, id: u64, out: &mut SendQueue) {
        let txn = self.txns.get_mut(&id).unwrap();
        txn.phase = FarmPhase::Lock;
        let writes: Vec<u64> = txn.ops.iter().filter(|o| o.write).map(|o| o.key).collect();
        if writes.is_empty() {
            // Pure RO in FaRM: reading consistent versions was enough.
            self.complete(id, usize::MAX, out);
            return;
        }
        let txn = self.txns.get_mut(&id).unwrap();
        txn.awaiting = writes.len();
        let client = txn.client;
        for key in writes {
            let mut b = BytesMut::new();
            b.put_u8(T_LOCK);
            b.put_u64(id);
            b.put_u64(key);
            out.push_raw(client, self.shard(key), b.freeze());
        }
    }

    fn farm_validate(&mut self, id: u64, out: &mut SendQueue) {
        let txn = self.txns.get_mut(&id).unwrap();
        txn.phase = FarmPhase::Validate;
        let reads: Vec<(u64, u64)> = txn.read_versions.iter().map(|(&k, &v)| (k, v)).collect();
        if reads.is_empty() {
            self.farm_update(id, out);
            return;
        }
        let txn = self.txns.get_mut(&id).unwrap();
        txn.awaiting = reads.len();
        let client = txn.client;
        for (key, ver) in reads {
            let mut b = BytesMut::new();
            b.put_u8(T_VALIDATE);
            b.put_u64(id);
            b.put_u64(key);
            b.put_u64(ver);
            out.push_raw(client, self.shard(key), b.freeze());
        }
    }

    fn farm_update(&mut self, id: u64, out: &mut SendQueue) {
        let txn = self.txns.get_mut(&id).unwrap();
        txn.phase = FarmPhase::Update;
        let writes: Vec<(u64, u16)> =
            txn.ops.iter().filter(|o| o.write).map(|o| (o.key, o.vlen)).collect();
        let txn = self.txns.get_mut(&id).unwrap();
        txn.awaiting = writes.len();
        let client = txn.client;
        for (key, vlen) in writes {
            let mut b = BytesMut::new();
            b.put_u8(T_UPDATE);
            b.put_u64(id);
            b.put_u64(key);
            b.put_u16(vlen);
            b.extend_from_slice(&vec![0u8; vlen as usize]);
            out.push_raw(client, self.shard(key), b.freeze());
        }
    }

    fn farm_unlock_and_retry(&mut self, now: u64, id: u64, out: &mut SendQueue) {
        // Abort path: release whatever we hold, then retry with backoff.
        self.aborts += 1;
        let (client, locked, retries) = {
            let txn = self.txns.get_mut(&id).unwrap();
            txn.phase = FarmPhase::Unlock;
            txn.retries += 1;
            let locked = std::mem::take(&mut txn.locked);
            txn.awaiting = locked.len();
            (txn.client, locked, txn.retries)
        };
        for key in &locked {
            let mut b = BytesMut::new();
            b.put_u8(T_UNLOCK);
            b.put_u64(id);
            b.put_u64(*key);
            out.push_raw(client, self.shard(*key), b.freeze());
        }
        if locked.is_empty() {
            let backoff = 5_000 * (1 << retries.min(5)) as u64;
            self.retry_queue.push((now + backoff, id));
        }
    }

    fn complete(&mut self, id: u64, _from: usize, _out: &mut SendQueue) {
        let Some(txn) = self.txns.remove(&id) else { return };
        self.outstanding[txn.client.0 as usize] -= 1;
        self.completed.push(TxnRecord {
            start: txn.start,
            end: txn.issued_at.max(txn.start), // overwritten below
            kind: txn.kind,
            retries: txn.retries,
        });
    }

    fn complete_at(&mut self, now: u64, id: u64, out: &mut SendQueue) {
        let Some(txn) = self.txns.remove(&id) else { return };
        self.outstanding[txn.client.0 as usize] -= 1;
        self.completed.push(TxnRecord {
            start: txn.start,
            end: now,
            kind: txn.kind,
            retries: txn.retries,
        });
        let _ = out;
    }

    // ------------------------------------------------------------------
    // Server-side operations
    // ------------------------------------------------------------------

    fn store_exec(&mut self, server: usize, write: bool, key: u64, vlen: u16) -> (u64, u16) {
        let e = self.stores[server].entry(key).or_default();
        if write {
            e.version += 1;
            e.len = vlen;
        }
        (e.version, e.len)
    }
}

impl AppHook for KvsApp {
    fn on_delivery(
        &mut self,
        _now: u64,
        receiver: ProcessId,
        msg: &Delivered,
        _reliable: bool,
        out: &mut SendQueue,
    ) {
        // 1Pipe mode: a shard executes an op in total order and replies.
        let mut p = msg.payload.clone();
        if p.remaining() < 19 {
            return;
        }
        let id = p.get_u64();
        let write = p.get_u8() == 1;
        let key = p.get_u64();
        let vlen = p.get_u16();
        let (_, len) = self.store_exec(receiver.0 as usize, write, key, vlen);
        let mut b = BytesMut::new();
        b.put_u8(T_REPLY);
        b.put_u64(id);
        b.put_u16(if write { 0 } else { len });
        if !write {
            b.extend_from_slice(&vec![0u8; len as usize]);
        }
        self.reply(_now, receiver, msg.src, b.freeze(), out);
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
        if p.remaining() < 9 {
            return;
        }
        let tag = p.get_u8();
        let id = p.get_u64();
        let server = receiver.0 as usize;
        match tag {
            // ------------- client side: completions -------------
            T_REPLY => {
                let done = {
                    let Some(txn) = self.txns.get_mut(&id) else { return };
                    txn.awaiting = txn.awaiting.saturating_sub(1);
                    txn.awaiting == 0
                };
                if done {
                    self.complete_at(now, id, out);
                }
            }
            T_NONTX_R => {
                let done = {
                    let Some(txn) = self.txns.get_mut(&id) else { return };
                    txn.awaiting = txn.awaiting.saturating_sub(1);
                    txn.awaiting == 0
                };
                if done {
                    self.complete_at(now, id, out);
                }
            }
            T_READ_R => {
                if p.remaining() < 17 {
                    return;
                }
                let key = p.get_u64();
                let ver = p.get_u64();
                let locked = p.get_u8() == 1;
                let advance = {
                    let Some(txn) = self.txns.get_mut(&id) else { return };
                    if locked {
                        txn.failed = true;
                    }
                    txn.read_versions.insert(key, ver);
                    txn.awaiting = txn.awaiting.saturating_sub(1);
                    txn.awaiting == 0
                };
                if advance {
                    let (failed, kind) = {
                        let t = &self.txns[&id];
                        (t.failed, t.kind)
                    };
                    if failed {
                        // Saw a locked entry: retry from scratch.
                        self.farm_unlock_and_retry(now, id, out);
                    } else if kind == KIND_RO {
                        self.complete_at(now, id, out);
                    } else {
                        self.farm_lock(id, out);
                    }
                }
            }
            T_LOCK_R => {
                if p.remaining() < 9 {
                    return;
                }
                let key = p.get_u64();
                let ok = p.get_u8() == 1;
                let advance = {
                    let Some(txn) = self.txns.get_mut(&id) else { return };
                    if ok {
                        txn.locked.push(key);
                    } else {
                        txn.failed = true;
                    }
                    txn.awaiting = txn.awaiting.saturating_sub(1);
                    txn.awaiting == 0
                };
                if advance {
                    if self.txns[&id].failed {
                        self.farm_unlock_and_retry(now, id, out);
                    } else {
                        self.farm_validate(id, out);
                    }
                }
            }
            T_VALIDATE_R => {
                if p.remaining() < 1 {
                    return;
                }
                let ok = p.get_u8() == 1;
                let advance = {
                    let Some(txn) = self.txns.get_mut(&id) else { return };
                    if !ok {
                        txn.failed = true;
                    }
                    txn.awaiting = txn.awaiting.saturating_sub(1);
                    txn.awaiting == 0
                };
                if advance {
                    if self.txns[&id].failed {
                        self.farm_unlock_and_retry(now, id, out);
                    } else {
                        self.farm_update(id, out);
                    }
                }
            }
            T_UPDATE_R => {
                let advance = {
                    let Some(txn) = self.txns.get_mut(&id) else { return };
                    txn.awaiting = txn.awaiting.saturating_sub(1);
                    txn.awaiting == 0
                };
                if advance {
                    self.complete_at(now, id, out);
                }
            }
            T_UNLOCK_R => {
                let advance = {
                    let Some(txn) = self.txns.get_mut(&id) else { return };
                    if txn.phase != FarmPhase::Unlock {
                        return;
                    }
                    txn.awaiting = txn.awaiting.saturating_sub(1);
                    txn.awaiting == 0
                };
                if advance {
                    let retries = self.txns[&id].retries;
                    let backoff = 5_000 * (1 << retries.min(5)) as u64;
                    self.retry_queue.push((now + backoff, id));
                }
            }
            // ------------- server side: RPC handlers -------------
            T_READ => {
                if p.remaining() < 8 {
                    return;
                }
                let key = p.get_u64();
                let e = self.stores[server].entry(key).or_default();
                let mut b = BytesMut::new();
                b.put_u8(T_READ_R);
                b.put_u64(id);
                b.put_u64(key);
                b.put_u64(e.version);
                b.put_u8(e.locked_by.is_some() as u8);
                let len = e.len;
                b.extend_from_slice(&vec![0u8; len as usize]);
                self.reply(now, receiver, src, b.freeze(), out);
            }
            T_LOCK => {
                if p.remaining() < 8 {
                    return;
                }
                let key = p.get_u64();
                let e = self.stores[server].entry(key).or_default();
                let ok = match e.locked_by {
                    None => {
                        e.locked_by = Some(id);
                        true
                    }
                    Some(holder) => holder == id,
                };
                let mut b = BytesMut::new();
                b.put_u8(T_LOCK_R);
                b.put_u64(id);
                b.put_u64(key);
                b.put_u8(ok as u8);
                self.reply(now, receiver, src, b.freeze(), out);
            }
            T_VALIDATE => {
                if p.remaining() < 16 {
                    return;
                }
                let key = p.get_u64();
                let ver = p.get_u64();
                let e = self.stores[server].entry(key).or_default();
                let ok = e.version == ver && e.locked_by.map(|h| h == id).unwrap_or(true);
                let mut b = BytesMut::new();
                b.put_u8(T_VALIDATE_R);
                b.put_u64(id);
                b.put_u8(ok as u8);
                self.reply(now, receiver, src, b.freeze(), out);
            }
            T_UPDATE => {
                if p.remaining() < 10 {
                    return;
                }
                let key = p.get_u64();
                let vlen = p.get_u16();
                let e = self.stores[server].entry(key).or_default();
                // Update implies unlock (combined round).
                e.version += 1;
                e.len = vlen;
                if e.locked_by == Some(id) {
                    e.locked_by = None;
                }
                let mut b = BytesMut::new();
                b.put_u8(T_UPDATE_R);
                b.put_u64(id);
                self.reply(now, receiver, src, b.freeze(), out);
            }
            T_UNLOCK => {
                if p.remaining() < 8 {
                    return;
                }
                let key = p.get_u64();
                let e = self.stores[server].entry(key).or_default();
                if e.locked_by == Some(id) {
                    e.locked_by = None;
                }
                let mut b = BytesMut::new();
                b.put_u8(T_UNLOCK_R);
                b.put_u64(id);
                self.reply(now, receiver, src, b.freeze(), out);
            }
            T_NONTX => {
                if p.remaining() < 11 {
                    return;
                }
                let write = p.get_u8() == 1;
                let key = p.get_u64();
                let vlen = p.get_u16();
                let (_, len) = self.store_exec(server, write, key, vlen);
                let mut b = BytesMut::new();
                b.put_u8(T_NONTX_R);
                b.put_u64(id);
                if !write {
                    b.extend_from_slice(&vec![0u8; len as usize]);
                }
                self.reply(now, receiver, src, b.freeze(), out);
            }
            _ => {}
        }
    }

    fn on_tick(&mut self, now: u64, _host: HostId, procs: &[ProcessId], out: &mut SendQueue) {
        // Release server replies whose CPU time elapsed.
        if self.cfg.server_op_ns > 0 {
            let mut ready = Vec::new();
            self.deferred.retain(|(at, from, to, payload)| {
                if *at <= now && procs.contains(from) {
                    ready.push((*from, *to, payload.clone()));
                    false
                } else {
                    true
                }
            });
            for (from, to, payload) in ready {
                out.push_raw(from, to, payload);
            }
        }
        // Retries whose backoff expired (issued from their client's host).
        let mut due = Vec::new();
        self.retry_queue.retain(|&(at, id)| {
            let local = self.txns.get(&id).map(|t| procs.contains(&t.client)).unwrap_or(false);
            if at <= now && local {
                due.push(id);
                false
            } else {
                true
            }
        });
        for id in due {
            self.issue(now, id, out);
        }
        // 1Pipe RO retry on loss: the paper's "the initiator can retry it".
        if self.cfg.mode == KvsMode::OnePipe {
            let timeout = self.cfg.ro_timeout;
            let stale: Vec<u64> = self
                .txns
                .iter()
                .filter(|(_, t)| {
                    t.kind == KIND_RO
                        && procs.contains(&t.client)
                        && now.saturating_sub(t.issued_at) > timeout
                })
                .map(|(&id, _)| id)
                .collect();
            for id in stale {
                if let Some(t) = self.txns.get_mut(&id) {
                    t.retries += 1;
                }
                self.issue(now, id, out);
            }
        }
        // Closed loop: keep the pipeline full.
        for &p in procs {
            while self.outstanding[p.0 as usize] < self.cfg.pipeline {
                self.start_txn(now, p, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onepipe_core::harness::{Cluster, ClusterConfig};
    use std::sync::{Arc, Mutex};

    fn run_kvs(mode: KvsMode, dur_us: u64) -> Arc<Mutex<KvsApp>> {
        let mut cluster = Cluster::new(ClusterConfig::single_rack(4, 4));
        let mut kcfg = KvsConfig::paper_default(mode, 4, KeyDist::uniform(10_000));
        kcfg.pipeline = 2;
        let app = Arc::new(Mutex::new(KvsApp::new(kcfg)));
        cluster.set_app(app.clone());
        cluster.run_for(dur_us * 1_000);
        app
    }

    #[test]
    fn onepipe_kvs_completes_transactions() {
        let app = run_kvs(KvsMode::OnePipe, 3_000);
        let app = app.lock().unwrap();
        assert!(app.completed.len() > 50, "only {} transactions completed", app.completed.len());
        // All three kinds appear.
        let kinds: std::collections::HashSet<u8> = app.completed.iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&KIND_RO));
        assert!(app.aborts == 0, "1Pipe never aborts");
    }

    #[test]
    fn farm_kvs_completes_transactions() {
        let app = run_kvs(KvsMode::Farm, 3_000);
        let app = app.lock().unwrap();
        assert!(app.completed.len() > 50, "only {} transactions completed", app.completed.len());
    }

    #[test]
    fn nontx_kvs_is_fastest() {
        let nontx = run_kvs(KvsMode::NonTx, 2_000);
        let farm = run_kvs(KvsMode::Farm, 2_000);
        let n1 = nontx.lock().unwrap().completed.len();
        let n2 = farm.lock().unwrap().completed.len();
        assert!(n1 > n2, "NonTX ({n1}) must outrun FaRM ({n2})");
    }

    #[test]
    fn farm_aborts_under_contention() {
        let mut cluster = Cluster::new(ClusterConfig::single_rack(4, 4));
        // Tiny hot key space with many writes: OCC must abort sometimes.
        let kcfg = KvsConfig {
            keys: 4,
            write_frac: 1.0,
            ro_frac: 0.0,
            pipeline: 4,
            ..KvsConfig::paper_default(KvsMode::Farm, 4, KeyDist::uniform(4))
        };
        let app = Arc::new(Mutex::new(KvsApp::new(kcfg)));
        cluster.set_app(app.clone());
        cluster.run_for(3_000_000);
        assert!(app.lock().unwrap().aborts > 0, "contention must cause OCC aborts");
        assert!(!app.lock().unwrap().completed.is_empty());
    }

    #[test]
    fn onepipe_contention_does_not_abort() {
        let mut cluster = Cluster::new(ClusterConfig::single_rack(4, 4));
        let kcfg = KvsConfig {
            keys: 4,
            write_frac: 1.0,
            ro_frac: 0.0,
            pipeline: 4,
            ..KvsConfig::paper_default(KvsMode::OnePipe, 4, KeyDist::uniform(4))
        };
        let app = Arc::new(Mutex::new(KvsApp::new(kcfg)));
        cluster.set_app(app.clone());
        cluster.run_for(3_000_000);
        let app = app.lock().unwrap();
        assert!(app.completed.len() > 50);
        assert_eq!(app.aborts, 0);
    }
}
