//! TPC-C New-Order / Payment as independent transactions (Figure 15).
//!
//! Following §7.3.2, only the two *independent* transaction types are
//! implemented (90 % of the TPC-C mix); each touches a single warehouse
//! shard, which is replicated. The schema is reduced to the entities that
//! generate the benchmark's contention: the warehouse entry (updated by
//! every Payment, read by every New-Order — the 4 hot entries), district
//! counters, and per-item stock.
//!
//! * **1Pipe** — the initiator scatters the transaction body to *all
//!   replicas of the shard in one reliable scattering* (the Eris \[51\]
//!   pattern with the sequencer replaced by timestamps). Replicas execute
//!   in delivered total order — identical logs without any locking — and
//!   the client completes on a majority of replies.
//! * **Lock (2PL)** — warehouse/district entities are locked at the
//!   primary replica (shared for New-Order's warehouse read, exclusive
//!   for Payment's update), executed, synchronously replicated, unlocked.
//! * **OCC** — read versions, execute, then lock–validate–apply at the
//!   primary with synchronous replication; conflicts abort and retry.
//! * **NonTX** — execute at the primary without locks or replication
//!   waits: the upper bound.

use crate::metrics::TxnRecord;
use crate::rpc::{frame, read_frame, HoldBack, Inflight};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use onepipe_core::simhost::{AppHook, SendQueue};
use onepipe_types::ids::{HostId, ProcessId};
use onepipe_types::message::{Delivered, Message};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// Concurrency-control scheme under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TpccMode {
    /// Reliable-scattering independent transactions (Eris-style).
    OnePipe,
    /// Two-phase locking at the primary.
    Lock,
    /// Optimistic concurrency control at the primary.
    Occ,
    /// No concurrency control, no replication wait.
    NonTx,
}

/// `TxnRecord::kind` code for New-Order.
pub const KIND_NEW_ORDER: u8 = 0;
/// `TxnRecord::kind` code for Payment.
pub const KIND_PAYMENT: u8 = 1;

/// TPC-C configuration.
#[derive(Clone, Debug)]
pub struct TpccConfig {
    /// Scheme under test.
    pub mode: TpccMode,
    /// Warehouses (paper: 4).
    pub warehouses: usize,
    /// Replicas per warehouse shard (paper: 3).
    pub replicas: usize,
    /// Total processes; the first `warehouses × replicas` are servers,
    /// every process is a client.
    pub n_procs: usize,
    /// Items per New-Order (TPC-C: 5–15, mean 10).
    pub items_per_order: usize,
    /// Fraction of transactions that are New-Order (TPC-C mix of the
    /// NO+Payment pair: ~0.51).
    pub new_order_frac: f64,
    /// Closed-loop outstanding transactions per client.
    pub pipeline: usize,
    /// Retry timeout for 1Pipe transactions (covers scatterings recalled
    /// by a replica failure), ns.
    pub retry_timeout: u64,
    /// Workload seed.
    pub seed: u64,
}

impl TpccConfig {
    /// Paper setup: 4 warehouses × 3 replicas.
    pub fn paper_default(mode: TpccMode, n_procs: usize) -> Self {
        TpccConfig {
            mode,
            warehouses: 4,
            replicas: 3,
            n_procs,
            items_per_order: 10,
            new_order_frac: 0.51,
            pipeline: 4,
            retry_timeout: 2_000_000,
            seed: 11,
        }
    }
}

/// Reduced warehouse state held by each replica.
#[derive(Clone, Debug, Default)]
struct WarehouseState {
    ytd: u64,
    warehouse_version: u64,
    districts_next_oid: [u64; 10],
    district_ytd: [u64; 10],
    district_version: [u64; 10],
    stock: HashMap<u32, i64>,
    applied: HashSet<u64>,
    // Lock state (primary only).
    w_readers: u32,
    w_writer: Option<u64>,
    d_lock: [Option<u64>; 10],
}

#[derive(Clone, Debug)]
struct TxnBody {
    kind: u8,
    warehouse: usize,
    district: usize,
    amount: u64,
    items: Vec<(u32, u32)>,
}

impl TxnBody {
    /// A `tag` frame carrying the body, then `extra`.
    fn encode(&self, tag: u8, id: u64, extra: &[u64]) -> BytesMut {
        let mut b = frame(tag, id);
        b.put_u8(self.kind);
        b.put_u16(self.warehouse as u16);
        b.put_u8(self.district as u8);
        b.put_u64(self.amount);
        b.put_u16(self.items.len() as u16);
        for &(item, qty) in &self.items {
            b.put_u32(item);
            b.put_u32(qty);
        }
        extra.iter().for_each(|&x| b.put_u64(x));
        b
    }

    fn decode(p: &mut Bytes) -> Option<TxnBody> {
        if p.remaining() < 14 {
            return None;
        }
        let kind = p.get_u8();
        let warehouse = p.get_u16() as usize;
        let district = p.get_u8() as usize;
        let amount = p.get_u64();
        let n = p.get_u16() as usize;
        if p.remaining() < n * 8 {
            return None;
        }
        let items = (0..n).map(|_| (p.get_u32(), p.get_u32())).collect();
        Some(TxnBody { kind, warehouse, district, amount, items })
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Issue,
    Read,
    Lock,
    Exec,
    Unlock,
}

#[derive(Debug)]
struct Txn {
    body: TxnBody,
    phase: Phase,
}

const T_EXEC: u8 = 1; // 1Pipe scattering body / plain execute request
const T_EXEC_R: u8 = 2;
const T_LOCK: u8 = 3;
const T_LOCK_R: u8 = 4;
const T_READ: u8 = 5;
const T_READ_R: u8 = 6;
const T_VALIDATE_EXEC: u8 = 7; // OCC: validate + apply in one round
const T_VALIDATE_EXEC_R: u8 = 8;
const T_UNLOCK: u8 = 9;
const T_UNLOCK_R: u8 = 10;
const T_REPL: u8 = 11; // primary → backup replication
const T_REPL_R: u8 = 12;

/// The primary's positive answer `tag` to `id`.
fn reply_ok(tag: u8, id: u64) -> BytesMut {
    let mut b = frame(tag, id);
    if tag == T_VALIDATE_EXEC_R {
        b.put_u8(1);
    }
    b
}

/// The TPC-C application.
pub struct TpccApp {
    cfg: TpccConfig,
    /// `state[warehouse][replica]`.
    state: Vec<Vec<WarehouseState>>,
    txns: Inflight<Txn>,
    rng: StdRng,
    /// Aborted transactions waiting out their backoff.
    retries: HoldBack<u64>,
    /// Completed transactions.
    pub completed: Vec<TxnRecord>,
    /// Aborts (lock conflicts / validation failures).
    pub aborts: u64,
    /// Replicas declared failed by the controller.
    pub dead_replicas: HashSet<ProcessId>,
    /// Primaries waiting for their backups' acks before they answer a
    /// client with the tag held.
    repl_waits: Inflight<u8>,
}

impl TpccApp {
    /// Create the app.
    pub fn new(cfg: TpccConfig) -> Self {
        assert!(cfg.n_procs >= cfg.warehouses * cfg.replicas);
        TpccApp {
            rng: StdRng::seed_from_u64(cfg.seed),
            state: vec![vec![WarehouseState::default(); cfg.replicas]; cfg.warehouses],
            txns: Inflight::new(),
            retries: HoldBack::new(),
            completed: Vec::new(),
            aborts: 0,
            dead_replicas: HashSet::new(),
            repl_waits: Inflight::new(),
            cfg,
        }
    }

    /// Process id of `warehouse`'s `replica`.
    pub fn replica_proc(&self, warehouse: usize, replica: usize) -> ProcessId {
        ProcessId((warehouse * self.cfg.replicas + replica) as u32)
    }

    /// Replica states (warehouse-major) — exposed for tests/benches.
    pub fn state_of(&self, warehouse: usize, replica: usize) -> (&HashSet<u64>, u64, [u64; 10]) {
        let st = &self.state[warehouse][replica];
        (&st.applied, st.ytd, st.districts_next_oid)
    }

    /// Reverse lookup: which (warehouse, replica) a server process is.
    fn server_role(&self, p: ProcessId) -> Option<(usize, usize)> {
        let i = p.0 as usize;
        if i < self.cfg.warehouses * self.cfg.replicas {
            Some((i / self.cfg.replicas, i % self.cfg.replicas))
        } else {
            None
        }
    }

    fn gen_body(&mut self) -> TxnBody {
        let kind = if self.rng.random_range(0.0..1.0) < self.cfg.new_order_frac {
            KIND_NEW_ORDER
        } else {
            KIND_PAYMENT
        };
        let warehouse = self.rng.random_range(0..self.cfg.warehouses);
        let district = self.rng.random_range(0..10);
        let amount = self.rng.random_range(1..5_000);
        let items = if kind == KIND_NEW_ORDER {
            (0..self.cfg.items_per_order)
                .map(|_| (self.rng.random_range(0..100_000u32), self.rng.random_range(1..10)))
                .collect()
        } else {
            Vec::new()
        };
        TxnBody { kind, warehouse, district, amount, items }
    }

    /// Deterministically apply a transaction body at one replica's state.
    /// Idempotent by txn id (retried scatterings are deduplicated).
    fn apply(&mut self, warehouse: usize, replica: usize, id: u64, body: &TxnBody) {
        let st = &mut self.state[warehouse][replica];
        if !st.applied.insert(id) {
            return;
        }
        match body.kind {
            KIND_PAYMENT => {
                st.ytd += body.amount;
                st.warehouse_version += 1;
                st.district_ytd[body.district] += body.amount;
                st.district_version[body.district] += 1;
            }
            _ => {
                // New-Order: read warehouse (version untouched), bump the
                // district order counter, decrement stock.
                st.districts_next_oid[body.district] += 1;
                st.district_version[body.district] += 1;
                for &(item, qty) in &body.items {
                    *st.stock.entry(item).or_insert(100_000) -= qty as i64;
                }
            }
        }
    }

    fn start_txn(&mut self, now: u64, client: ProcessId, out: &mut SendQueue) {
        let body = self.gen_body();
        // `issue` sets the count of replies to await.
        let id = self.txns.open(now, client, body.kind, 0, Txn { body, phase: Phase::Issue });
        self.issue(now, id, out);
    }

    fn issue(&mut self, now: u64, id: u64, out: &mut SendQueue) {
        let Some(txn) = self.txns.get_mut(id) else { return };
        txn.issued_at = now;
        let (client, warehouse) = (txn.client, txn.state.body.warehouse);
        match self.cfg.mode {
            TpccMode::OnePipe => {
                // One reliable scattering to every live replica.
                let live: Vec<ProcessId> = (0..self.cfg.replicas)
                    .map(|r| self.replica_proc(warehouse, r))
                    .filter(|p| !self.dead_replicas.contains(p))
                    .collect();
                if live.is_empty() {
                    return;
                }
                let txn = self.txns.get_mut(id).expect("an open transaction");
                txn.awaiting = (self.cfg.replicas / 2 + 1).min(live.len());
                let payload = txn.state.body.encode(T_EXEC, id, &[]).freeze();
                let msgs: Vec<Message> =
                    live.iter().map(|&p| Message::new(p, payload.clone())).collect();
                out.push(client, msgs, true);
            }
            TpccMode::NonTx => self.send_to_primary(id, Phase::Issue, T_EXEC, &[], out),
            TpccMode::Lock => self.send_to_primary(id, Phase::Lock, T_LOCK, &[], out),
            TpccMode::Occ => self.send_to_primary(id, Phase::Read, T_READ, &[], out),
        }
    }

    /// Enter `phase` and send the body, then `extra`, to the warehouse's
    /// primary as `tag`, awaiting one reply.
    fn send_to_primary(
        &mut self,
        id: u64,
        phase: Phase,
        tag: u8,
        extra: &[u64],
        out: &mut SendQueue,
    ) {
        let Some(txn) = self.txns.get_mut(id) else { return };
        txn.state.phase = phase;
        txn.awaiting = 1;
        let primary = ProcessId((txn.state.body.warehouse * self.cfg.replicas) as u32);
        out.push_raw(txn.client, primary, txn.state.body.encode(tag, id, extra));
    }

    fn abort_retry(&mut self, now: u64, id: u64) {
        self.aborts += 1;
        let Some(txn) = self.txns.get_mut(id) else { return };
        txn.retries += 1;
        let backoff = 3_000u64 * (1 << txn.retries.min(6)) as u64;
        self.retries.push(now + backoff, txn.client, id);
    }

    /// Synchronous replication from the primary to live backups; returns
    /// the number of acks to wait for.
    fn replicate(
        &mut self,
        primary: ProcessId,
        id: u64,
        body: &TxnBody,
        out: &mut SendQueue,
    ) -> usize {
        let mut waits = 0;
        for r in 1..self.cfg.replicas {
            let backup = self.replica_proc(body.warehouse, r);
            if self.dead_replicas.contains(&backup) {
                continue;
            }
            out.push_raw(primary, backup, body.encode(T_REPL, id, &[]));
            waits += 1;
        }
        waits
    }

    /// Replicate, then answer `client` with `tag` once every live backup
    /// acked (at once when there is none).
    fn replicate_then_reply(
        &mut self,
        primary: ProcessId,
        client: ProcessId,
        id: u64,
        body: &TxnBody,
        tag: u8,
        out: &mut SendQueue,
    ) {
        match self.replicate(primary, id, body, out) {
            0 => out.push_raw(primary, client, reply_ok(tag, id)),
            waits => self.repl_waits.wait(id, client, waits, tag),
        }
    }
}

impl AppHook for TpccApp {
    fn on_delivery(
        &mut self,
        _now: u64,
        receiver: ProcessId,
        msg: &Delivered,
        _reliable: bool,
        out: &mut SendQueue,
    ) {
        // 1Pipe mode: replicas execute scattering bodies in total order.
        let Some((warehouse, replica)) = self.server_role(receiver) else { return };
        let Some((T_EXEC, id, mut p)) = read_frame(&msg.payload) else { return };
        let Some(body) = TxnBody::decode(&mut p) else { return };
        debug_assert_eq!(body.warehouse, warehouse);
        self.apply(warehouse, replica, id, &body);
        out.push_raw(receiver, msg.src, frame(T_EXEC_R, id));
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
        match tag {
            // ---------------- client side ----------------
            T_EXEC_R => {
                if !self.txns.ack(id) {
                    return;
                }
                if self.cfg.mode == TpccMode::Lock
                    && self.txns.get(id).expect("an open transaction").state.phase == Phase::Exec
                {
                    // Release locks before completing.
                    self.send_to_primary(id, Phase::Unlock, T_UNLOCK, &[], out);
                } else {
                    self.txns.complete(now, id, &mut self.completed);
                }
            }
            T_LOCK_R if p.remaining() >= 1 => {
                if p.get_u8() == 1 {
                    self.send_to_primary(id, Phase::Exec, T_EXEC, &[], out);
                } else {
                    self.abort_retry(now, id);
                }
            }
            T_READ_R if p.remaining() >= 16 => {
                let versions = [p.get_u64(), p.get_u64()];
                self.send_to_primary(id, Phase::Exec, T_VALIDATE_EXEC, &versions, out);
            }
            T_VALIDATE_EXEC_R if p.remaining() >= 1 => {
                if p.get_u8() != 1 {
                    self.abort_retry(now, id);
                } else if self.txns.ack(id) {
                    self.txns.complete(now, id, &mut self.completed);
                }
            }
            T_UNLOCK_R => {
                self.txns.complete(now, id, &mut self.completed);
            }
            T_REPL_R => {
                // Ack at the primary: once all backups confirmed, send the
                // deferred reply to the waiting client.
                if self.repl_waits.ack(id) {
                    let wait = self.repl_waits.remove(id).expect("an acked wait is open");
                    out.push_raw(receiver, wait.client, reply_ok(wait.state, id));
                }
            }
            // ---------------- server side ----------------
            _ => {
                let Some((warehouse, replica)) = self.server_role(receiver) else { return };
                let Some(body) = TxnBody::decode(&mut p) else { return };
                match tag {
                    T_EXEC => {
                        self.apply(warehouse, replica, id, &body);
                        if self.cfg.mode == TpccMode::Lock {
                            // Synchronous replication before acknowledging.
                            self.replicate_then_reply(receiver, src, id, &body, T_EXEC_R, out);
                        } else {
                            // NonTX (and the 1Pipe fallback path): reply
                            // immediately, replicate asynchronously.
                            self.replicate(receiver, id, &body, out);
                            out.push_raw(receiver, src, frame(T_EXEC_R, id));
                        }
                    }
                    T_REPL => {
                        self.apply(warehouse, replica, id, &body);
                        out.push_raw(receiver, src, frame(T_REPL_R, id));
                    }
                    T_LOCK => {
                        let st = &mut self.state[warehouse][0];
                        // Warehouse entity: shared for New-Order, exclusive for
                        // Payment; district entity: exclusive.
                        let ok = if body.kind == KIND_PAYMENT {
                            if st.w_writer.is_none()
                                && st.w_readers == 0
                                && st.d_lock[body.district].is_none()
                            {
                                st.w_writer = Some(id);
                                st.d_lock[body.district] = Some(id);
                                true
                            } else {
                                false
                            }
                        } else if st.w_writer.is_none() && st.d_lock[body.district].is_none() {
                            st.w_readers += 1;
                            st.d_lock[body.district] = Some(id);
                            true
                        } else {
                            false
                        };
                        let mut b = frame(T_LOCK_R, id);
                        b.put_u8(ok as u8);
                        out.push_raw(receiver, src, b);
                    }
                    T_UNLOCK => {
                        let st = &mut self.state[warehouse][0];
                        if body.kind == KIND_PAYMENT {
                            if st.w_writer == Some(id) {
                                st.w_writer = None;
                            }
                        } else {
                            st.w_readers = st.w_readers.saturating_sub(1);
                        }
                        if st.d_lock[body.district] == Some(id) {
                            st.d_lock[body.district] = None;
                        }
                        out.push_raw(receiver, src, frame(T_UNLOCK_R, id));
                    }
                    T_READ => {
                        let st = &self.state[warehouse][0];
                        let mut b = frame(T_READ_R, id);
                        b.put_u64(st.warehouse_version);
                        b.put_u64(st.district_version[body.district]);
                        out.push_raw(receiver, src, b);
                    }
                    T_VALIDATE_EXEC if p.remaining() >= 16 => {
                        let (wv, dv) = (p.get_u64(), p.get_u64());
                        let st = &self.state[warehouse][0];
                        // New-Order read the warehouse entry (churned by Payment)
                        // and its district counter — the Figure 15a contention.
                        if st.warehouse_version == wv && st.district_version[body.district] == dv {
                            self.apply(warehouse, replica, id, &body);
                            let tag = T_VALIDATE_EXEC_R;
                            self.replicate_then_reply(receiver, src, id, &body, tag, out);
                        } else {
                            let mut b = frame(T_VALIDATE_EXEC_R, id);
                            b.put_u8(0);
                            out.push_raw(receiver, src, b);
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    fn on_user_event(
        &mut self,
        _now: u64,
        _proc: ProcessId,
        ev: &onepipe_core::events::UserEvent,
        _out: &mut SendQueue,
    ) -> bool {
        if let onepipe_core::events::UserEvent::ProcessFailed { failures, .. } = ev {
            for &(p, _) in failures {
                self.dead_replicas.insert(p);
            }
        }
        true
    }

    fn on_tick(&mut self, now: u64, _host: HostId, procs: &[ProcessId], out: &mut SendQueue) {
        // Backoff retries for local clients.
        for (_, id) in self.retries.release(now, procs) {
            self.issue(now, id, out);
        }
        // 1Pipe: re-issue transactions stalled by a replica failure (the
        // "aborted and retried" path of §7.3.2); replicas dedupe by id.
        if self.cfg.mode == TpccMode::OnePipe {
            for id in self.txns.time_out(now, self.cfg.retry_timeout, procs, |_| true) {
                self.issue(now, id, out);
            }
        }
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

    fn run_tpcc(mode: TpccMode, procs: usize, dur_us: u64) -> Arc<Mutex<TpccApp>> {
        let mut cluster = Cluster::new(ClusterConfig::testbed(procs));
        let mut cfg = TpccConfig::paper_default(mode, procs);
        cfg.pipeline = 2;
        let app = Arc::new(Mutex::new(TpccApp::new(cfg)));
        cluster.set_app(app.clone());
        cluster.run_for(dur_us * 1_000);
        app
    }

    #[test]
    fn onepipe_tpcc_commits_without_aborts() {
        let app = run_tpcc(TpccMode::OnePipe, 16, 3_000);
        let app = app.lock().unwrap();
        assert!(app.completed.len() > 20, "completed {}", app.completed.len());
        assert_eq!(app.aborts, 0);
    }

    #[test]
    fn onepipe_replica_states_converge() {
        let app = run_tpcc(TpccMode::OnePipe, 16, 3_000);
        let app = app.lock().unwrap();
        for w in 0..4 {
            let (a0, ytd0, oid0) = app.state_of(w, 0);
            for r in 1..3 {
                let (ar, ytdr, oidr) = app.state_of(w, r);
                // Replicas apply in identical total order; when their
                // applied sets coincide, their states must be identical.
                if a0 == ar {
                    assert_eq!(ytd0, ytdr, "warehouse {w} replica {r} diverged");
                    assert_eq!(oid0, oidr);
                }
            }
        }
    }

    #[test]
    fn lock_mode_commits_and_conflicts() {
        let app = run_tpcc(TpccMode::Lock, 16, 3_000);
        let app = app.lock().unwrap();
        assert!(app.completed.len() > 10, "completed {}", app.completed.len());
        assert!(app.aborts > 0, "16 clients on 4 warehouses must conflict");
    }

    #[test]
    fn occ_mode_commits() {
        let app = run_tpcc(TpccMode::Occ, 16, 3_000);
        let app = app.lock().unwrap();
        assert!(app.completed.len() > 10, "completed {}", app.completed.len());
    }

    #[test]
    fn nontx_outruns_lock() {
        let nontx = run_tpcc(TpccMode::NonTx, 16, 2_000);
        let lock = run_tpcc(TpccMode::Lock, 16, 2_000);
        assert!(
            nontx.lock().unwrap().completed.len() > lock.lock().unwrap().completed.len(),
            "NonTX {} vs Lock {}",
            nontx.lock().unwrap().completed.len(),
            lock.lock().unwrap().completed.len()
        );
    }

    #[test]
    fn both_txn_kinds_appear() {
        let app = run_tpcc(TpccMode::OnePipe, 16, 3_000);
        let kinds: std::collections::HashSet<u8> =
            app.lock().unwrap().completed.iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&KIND_NEW_ORDER));
        assert!(kinds.contains(&KIND_PAYMENT));
    }
}
