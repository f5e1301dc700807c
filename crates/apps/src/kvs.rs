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
use crate::rpc::{frame, read_frame, HoldBack, Inflight, ServerCpu};
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

/// An op's body: `[write u8][key u64][vlen u16]`, then the value of a
/// write.
fn put_op(b: &mut BytesMut, op: &Op) {
    b.put_u8(op.write as u8);
    b.put_u64(op.key);
    b.put_u16(op.vlen);
    if op.write {
        b.extend_from_slice(&vec![0u8; op.vlen as usize]);
    }
}

/// `(write, key, vlen)` of an op's body.
fn read_op(p: &mut Bytes) -> Option<(bool, u64, u16)> {
    (p.remaining() >= 11).then(|| (p.get_u8() == 1, p.get_u64(), p.get_u16()))
}

#[derive(Clone, Debug, Default)]
struct Entry {
    version: u64,
    len: u16,
    locked_by: Option<u64>,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum FarmPhase {
    #[default]
    Exec,
    Lock,
    Validate,
    Update,
    Unlock,
}

#[derive(Debug, Default)]
struct Txn {
    ops: Vec<Op>,
    // FaRM state.
    phase: FarmPhase,
    /// Version seen per key read. Ordered: VALIDATEs go out in its
    /// iteration order, which must not vary from run to run.
    read_versions: BTreeMap<u64, u64>,
    locked: Vec<u64>,
    failed: bool,
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

/// A FaRM phase that follows the last reply of the one before.
type FarmStep = fn(&mut KvsApp, u64, u64, &mut SendQueue);

/// The KVS application (shared across all hosts).
pub struct KvsApp {
    cfg: KvsConfig,
    stores: Vec<HashMap<u64, Entry>>,
    txns: Inflight<Txn>,
    rng: StdRng,
    /// Completed transactions.
    pub completed: Vec<TxnRecord>,
    /// Aborted FaRM transactions waiting out their backoff.
    retries: HoldBack<u64>,
    /// OCC/lock aborts observed.
    pub aborts: u64,
    /// Server replies waiting for CPU time.
    cpu: ServerCpu,
}

impl KvsApp {
    /// Create the app.
    pub fn new(cfg: KvsConfig) -> Self {
        KvsApp {
            rng: StdRng::seed_from_u64(cfg.seed),
            stores: vec![HashMap::new(); cfg.n_procs],
            txns: Inflight::new(),
            completed: Vec::new(),
            retries: HoldBack::new(),
            aborts: 0,
            cpu: ServerCpu::new(cfg.server_op_ns),
            cfg,
        }
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
        // `issue` sets the count of replies to await.
        let id = self.txns.open(now, client, kind, 0, Txn { ops, ..Txn::default() });
        self.issue(now, id, out);
    }

    /// (Re-)issue a transaction from scratch.
    fn issue(&mut self, now: u64, id: u64, out: &mut SendQueue) {
        let Some(txn) = self.txns.get_mut(id) else { return };
        txn.issued_at = now;
        // FaRM's phases set their own count.
        txn.awaiting = txn.state.ops.len();
        txn.state.failed = false;
        txn.state.read_versions.clear();
        txn.state.locked.clear();
        let (client, reliable, ops) = (txn.client, txn.kind != KIND_RO, txn.state.ops.clone());
        match self.cfg.mode {
            KvsMode::OnePipe => {
                let msgs: Vec<Message> = ops
                    .iter()
                    .map(|op| {
                        let mut b = BytesMut::new();
                        b.put_u64(id);
                        put_op(&mut b, op);
                        Message::new(self.shard(op.key), b.freeze())
                    })
                    .collect();
                out.push(client, msgs, reliable);
            }
            KvsMode::NonTx => {
                for op in &ops {
                    let mut b = frame(T_NONTX, id);
                    put_op(&mut b, op);
                    out.push_raw(client, self.shard(op.key), b);
                }
            }
            KvsMode::Farm => self.farm_exec(now, id, out),
        }
    }

    /// Retry `id` after a backoff that doubles with each retry.
    fn backoff(&mut self, now: u64, id: u64) {
        let txn = self.txns.get(id).expect("an open transaction");
        let backoff = 5_000 * (1 << txn.retries.min(5)) as u64;
        self.retries.push(now + backoff, txn.client, id);
    }

    // ------------------------------------------------------------------
    // FaRM (OCC + 2PC) client phases
    // ------------------------------------------------------------------

    /// `(key, vlen)` of the transaction's writes (`write`) or reads.
    fn op_keys(&self, id: u64, write: bool) -> Vec<(u64, u64)> {
        let ops = &self.txns.get(id).expect("an open transaction").state.ops;
        ops.iter().filter(|o| o.write == write).map(|o| (o.key, o.vlen as u64)).collect()
    }

    /// Enter `phase`: one `tag` request per `(key, arg)` to the key's
    /// shard, `body` appending what follows the key. `false` when there
    /// is nothing to send.
    fn farm_round(
        &mut self,
        id: u64,
        phase: FarmPhase,
        tag: u8,
        reqs: Vec<(u64, u64)>,
        body: fn(&mut BytesMut, u64),
        out: &mut SendQueue,
    ) -> bool {
        let txn = self.txns.get_mut(id).expect("an open transaction");
        txn.state.phase = phase;
        txn.awaiting = reqs.len();
        let client = txn.client;
        for &(key, arg) in &reqs {
            let mut b = frame(tag, id);
            b.put_u64(key);
            body(&mut b, arg);
            out.push_raw(client, self.shard(key), b);
        }
        !reqs.is_empty()
    }

    fn farm_exec(&mut self, now: u64, id: u64, out: &mut SendQueue) {
        let reads = self.op_keys(id, false);
        if !self.farm_round(id, FarmPhase::Exec, T_READ, reads, |_, _| {}, out) {
            self.farm_lock(now, id, out);
        }
    }

    /// After the reads, a read-only transaction is done; the others lock.
    fn farm_read_done(&mut self, now: u64, id: u64, out: &mut SendQueue) {
        if self.txns.get(id).expect("an open transaction").kind == KIND_RO {
            self.txns.complete(now, id, &mut self.completed);
        } else {
            self.farm_lock(now, id, out);
        }
    }

    fn farm_lock(&mut self, now: u64, id: u64, out: &mut SendQueue) {
        let writes = self.op_keys(id, true);
        if !self.farm_round(id, FarmPhase::Lock, T_LOCK, writes, |_, _| {}, out) {
            // Pure RO in FaRM: reading consistent versions was enough.
            self.txns.complete(now, id, &mut self.completed);
        }
    }

    fn farm_validate(&mut self, now: u64, id: u64, out: &mut SendQueue) {
        let txn = self.txns.get(id).expect("an open transaction");
        let reads = txn.state.read_versions.clone().into_iter().collect();
        if !self.farm_round(id, FarmPhase::Validate, T_VALIDATE, reads, |b, v| b.put_u64(v), out) {
            self.farm_update(now, id, out);
        }
    }

    fn farm_update(&mut self, _now: u64, id: u64, out: &mut SendQueue) {
        let writes = self.op_keys(id, true);
        self.farm_round(
            id,
            FarmPhase::Update,
            T_UPDATE,
            writes,
            |b, vlen| {
                b.put_u16(vlen as u16);
                b.extend_from_slice(&vec![0u8; vlen as usize]);
            },
            out,
        );
    }

    fn farm_unlock_and_retry(&mut self, now: u64, id: u64, out: &mut SendQueue) {
        // Abort path: release whatever we hold, then retry with backoff.
        self.aborts += 1;
        let txn = self.txns.get_mut(id).expect("an open transaction");
        txn.retries += 1;
        let locked = std::mem::take(&mut txn.state.locked).into_iter().map(|k| (k, 0)).collect();
        if !self.farm_round(id, FarmPhase::Unlock, T_UNLOCK, locked, |_, _| {}, out) {
            self.backoff(now, id);
        }
    }

    /// Count one reply of the current phase, `ok` or not; after its last
    /// one, abort if any failed, else go on to `next`.
    fn farm_reply(&mut self, now: u64, id: u64, ok: bool, next: FarmStep, out: &mut SendQueue) {
        let Some(txn) = self.txns.get_mut(id) else { return };
        txn.state.failed |= !ok;
        if !self.txns.ack(id) {
            return;
        }
        if self.txns.get(id).expect("an open transaction").state.failed {
            self.farm_unlock_and_retry(now, id, out);
        } else {
            next(self, now, id, out);
        }
    }

    // ------------------------------------------------------------------
    // Server-side operations
    // ------------------------------------------------------------------

    /// Execute one op at `server`'s shard; returns the value's length.
    fn store_exec(&mut self, server: usize, write: bool, key: u64, vlen: u16) -> u16 {
        let e = self.stores[server].entry(key).or_default();
        if write {
            e.version += 1;
            e.len = vlen;
        }
        e.len
    }
}

impl AppHook for KvsApp {
    fn on_delivery(
        &mut self,
        now: u64,
        receiver: ProcessId,
        msg: &Delivered,
        _reliable: bool,
        out: &mut SendQueue,
    ) {
        // 1Pipe mode: a shard executes an op in total order and replies.
        let mut p = msg.payload.clone();
        if p.remaining() < 8 {
            return;
        }
        let id = p.get_u64();
        let Some((write, key, vlen)) = read_op(&mut p) else { return };
        let len = self.store_exec(receiver.0 as usize, write, key, vlen);
        let mut b = frame(T_REPLY, id);
        b.put_u16(if write { 0 } else { len });
        if !write {
            b.extend_from_slice(&vec![0u8; len as usize]);
        }
        self.cpu.reply(now, receiver, msg.src, b, out);
    }

    fn on_raw(
        &mut self,
        now: u64,
        receiver: ProcessId,
        src: ProcessId,
        payload: &Bytes,
        out: &mut SendQueue,
    ) {
        let Some((tag, id, mut p)) = read_frame(payload) else { return };
        let server = receiver.0 as usize;
        match tag {
            // ------------- client side: completions -------------
            T_REPLY | T_NONTX_R | T_UPDATE_R if self.txns.ack(id) => {
                self.txns.complete(now, id, &mut self.completed);
            }
            T_READ_R if p.remaining() >= 17 => {
                let (key, ver, locked) = (p.get_u64(), p.get_u64(), p.get_u8() == 1);
                if let Some(txn) = self.txns.get_mut(id) {
                    txn.state.read_versions.insert(key, ver);
                }
                // Saw a locked entry: retry from scratch.
                self.farm_reply(now, id, !locked, Self::farm_read_done, out);
            }
            T_LOCK_R if p.remaining() >= 9 => {
                let (key, ok) = (p.get_u64(), p.get_u8() == 1);
                if let (true, Some(txn)) = (ok, self.txns.get_mut(id)) {
                    txn.state.locked.push(key);
                }
                self.farm_reply(now, id, ok, Self::farm_validate, out);
            }
            T_VALIDATE_R if p.remaining() >= 1 => {
                self.farm_reply(now, id, p.get_u8() == 1, Self::farm_update, out);
            }
            T_UNLOCK_R => {
                let unlocking =
                    self.txns.get(id).is_some_and(|t| t.state.phase == FarmPhase::Unlock);
                if unlocking && self.txns.ack(id) {
                    self.backoff(now, id);
                }
            }
            // ------------- server side: RPC handlers -------------
            T_READ if p.remaining() >= 8 => {
                let key = p.get_u64();
                let e = self.stores[server].entry(key).or_default();
                let mut b = frame(T_READ_R, id);
                b.put_u64(key);
                b.put_u64(e.version);
                b.put_u8(e.locked_by.is_some() as u8);
                b.extend_from_slice(&vec![0u8; e.len as usize]);
                self.cpu.reply(now, receiver, src, b, out);
            }
            T_LOCK if p.remaining() >= 8 => {
                let key = p.get_u64();
                let e = self.stores[server].entry(key).or_default();
                let ok = *e.locked_by.get_or_insert(id) == id;
                let mut b = frame(T_LOCK_R, id);
                b.put_u64(key);
                b.put_u8(ok as u8);
                self.cpu.reply(now, receiver, src, b, out);
            }
            T_VALIDATE if p.remaining() >= 16 => {
                let (key, ver) = (p.get_u64(), p.get_u64());
                let e = self.stores[server].entry(key).or_default();
                let ok = e.version == ver && e.locked_by.is_none_or(|h| h == id);
                let mut b = frame(T_VALIDATE_R, id);
                b.put_u8(ok as u8);
                self.cpu.reply(now, receiver, src, b, out);
            }
            T_UPDATE if p.remaining() >= 10 => {
                let (key, vlen) = (p.get_u64(), p.get_u16());
                let e = self.stores[server].entry(key).or_default();
                // Update implies unlock (combined round).
                e.version += 1;
                e.len = vlen;
                e.locked_by = e.locked_by.filter(|&h| h != id);
                self.cpu.reply(now, receiver, src, frame(T_UPDATE_R, id), out);
            }
            T_UNLOCK if p.remaining() >= 8 => {
                let e = self.stores[server].entry(p.get_u64()).or_default();
                e.locked_by = e.locked_by.filter(|&h| h != id);
                self.cpu.reply(now, receiver, src, frame(T_UNLOCK_R, id), out);
            }
            T_NONTX => {
                let Some((write, key, vlen)) = read_op(&mut p) else { return };
                let len = self.store_exec(server, write, key, vlen);
                let mut b = frame(T_NONTX_R, id);
                if !write {
                    b.extend_from_slice(&vec![0u8; len as usize]);
                }
                self.cpu.reply(now, receiver, src, b, out);
            }
            _ => {}
        }
    }

    fn on_tick(&mut self, now: u64, _host: HostId, procs: &[ProcessId], out: &mut SendQueue) {
        // Release server replies whose CPU time elapsed.
        self.cpu.release(now, procs, out);
        // Retries whose backoff expired (issued from their client's host).
        for (_, id) in self.retries.release(now, procs) {
            self.issue(now, id, out);
        }
        // 1Pipe RO retry on loss: the paper's "the initiator can retry it".
        if self.cfg.mode == KvsMode::OnePipe {
            let timeout = self.cfg.ro_timeout;
            for id in self.txns.time_out(now, timeout, procs, |txn| txn.kind == KIND_RO) {
                self.issue(now, id, out);
            }
        }
        // Closed loop: keep the pipeline full.
        for p in self.txns.refill(procs.iter().copied(), self.cfg.pipeline) {
            self.start_txn(now, p, out);
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
    fn retried_read_only_transactions_repeat_from_run_to_run() {
        // 5 % receive loss makes best-effort read-only transactions time
        // out; their re-issue order must not depend on hash iteration.
        let run = || {
            let mut ccfg = ClusterConfig::single_rack(4, 4);
            ccfg.endpoint.rx_drop_rate = 0.05;
            let mut cluster = Cluster::new(ccfg);
            let mut kcfg = KvsConfig::paper_default(KvsMode::OnePipe, 4, KeyDist::uniform(10_000));
            kcfg.pipeline = 16;
            kcfg.ro_timeout = 20_000;
            let app = Arc::new(Mutex::new(KvsApp::new(kcfg)));
            cluster.set_app(app.clone());
            cluster.run_for(3_000_000);
            let app = app.lock().unwrap();
            app.completed.iter().map(|r| (r.start, r.end, r.kind, r.retries)).collect::<Vec<_>>()
        };
        let first = run();
        assert!(first.iter().any(|r| r.3 > 0), "the loss must cause retries");
        for _ in 0..3 {
            assert_eq!(run(), first, "a rerun completed different transactions");
        }
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
