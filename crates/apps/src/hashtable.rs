//! Replicated remote hash table (Figure 16, §7.3.3).
//!
//! A distributed concurrent hash table whose buckets hold linked lists of
//! KV nodes, sharded over server processes and replicated:
//!
//! * **1Pipe insert** — the two dependent writes (append the KV node,
//!   update the bucket head pointer) plus all replica copies go out as
//!   *one scattering*: total order removes the write-after-write fence,
//!   and every replica applies inserts in the same order. One round.
//! * **Baseline insert** — leader-follower: the client issues the KV-node
//!   write, waits (fence), then the pointer write, to the *leader*, which
//!   synchronously replicates to followers. Two dependent rounds plus
//!   replication.
//! * **1Pipe lookup** — served by *any* replica (all replicas are
//!   consistent in total order); costs one best-effort ordered message +
//!   reply.
//! * **Baseline lookup** — only the leader may serve reads (serializability
//!   with leader-side writes), so lookups do not scale with replicas.

use crate::metrics::TxnRecord;
use crate::rpc::{frame, read_frame, Inflight, ServerCpu};
use crate::workload::shard_of;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use onepipe_core::simhost::{AppHook, SendQueue};
use onepipe_types::ids::{HostId, ProcessId};
use onepipe_types::message::{Delivered, Message};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// System under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HtMode {
    /// 1Pipe ordered operations.
    OnePipe,
    /// Leader-follower replication with fenced writes.
    Baseline,
}

/// Operation mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HtWorkload {
    /// 100 % inserts.
    Insert,
    /// 100 % lookups (over pre-populated keys).
    Lookup,
}

/// `TxnRecord::kind` code for inserts.
pub const KIND_INSERT: u8 = 0;
/// `TxnRecord::kind` code for lookups.
pub const KIND_LOOKUP: u8 = 1;

/// Hash-table experiment configuration.
#[derive(Clone, Debug)]
pub struct HtConfig {
    /// System under test.
    pub mode: HtMode,
    /// Operation mix.
    pub workload: HtWorkload,
    /// Shards (paper: 16 servers).
    pub shards: usize,
    /// Replicas of each shard (paper sweeps 1–4).
    pub replicas: usize,
    /// Client processes (paper: 16); client ids follow the servers.
    pub clients: usize,
    /// Closed-loop outstanding ops per client.
    pub pipeline: usize,
    /// Key space.
    pub keys: u64,
    /// Server CPU service time per handled request (ns). Models the verbs
    /// processing cost that makes a single leader the bottleneck.
    pub server_op_ns: u64,
    /// Workload seed.
    pub seed: u64,
}

impl HtConfig {
    /// Paper setup: 16 shards, 16 clients.
    pub fn paper_default(mode: HtMode, workload: HtWorkload, replicas: usize) -> Self {
        HtConfig {
            mode,
            workload,
            shards: 16,
            replicas,
            clients: 16,
            pipeline: 8,
            keys: 100_000,
            server_op_ns: 500,
            seed: 5,
        }
    }

    /// Total processes needed.
    pub fn total_procs(&self) -> usize {
        self.shards * self.replicas + self.clients
    }
}

#[derive(Clone, Debug, Default)]
struct Shard {
    /// bucket → list of keys (most recent first).
    buckets: HashMap<u64, Vec<u64>>,
}

const T_LOOKUP: u8 = 1;
const T_LOOKUP_R: u8 = 2;
const T_WRITE_NODE: u8 = 3; // baseline: first fenced write
const T_WRITE_NODE_R: u8 = 4;
const T_WRITE_PTR: u8 = 5; // baseline: second write (replicated)
const T_WRITE_PTR_R: u8 = 6;
const T_REPL: u8 = 7;
const T_REPL_R: u8 = 8;
const T_INSERT: u8 = 9; // 1Pipe: both writes in one ordered message
const T_REPLY: u8 = 10;

/// The hash-table application.
pub struct HtApp {
    cfg: HtConfig,
    /// `shards[shard][replica]`.
    shards: Vec<Vec<Shard>>,
    /// Operations in flight, each with its key.
    ops: Inflight<u64>,
    rng: StdRng,
    /// Completed operations.
    pub completed: Vec<TxnRecord>,
    /// Leaders waiting for their followers' acks before they answer a
    /// client.
    repl_waits: Inflight<()>,
    /// Round-robin replica selector for 1Pipe lookups.
    rr: usize,
    /// Replies waiting for server CPU time.
    cpu: ServerCpu,
}

impl HtApp {
    /// Create the app.
    pub fn new(cfg: HtConfig) -> Self {
        HtApp {
            shards: vec![vec![Shard::default(); cfg.replicas]; cfg.shards],
            ops: Inflight::new(),
            rng: StdRng::seed_from_u64(cfg.seed),
            completed: Vec::new(),
            repl_waits: Inflight::new(),
            rr: 0,
            cpu: ServerCpu::new(cfg.server_op_ns),
            cfg,
        }
    }

    /// The process serving `shard`'s `replica`.
    pub fn server_proc(&self, shard: usize, replica: usize) -> ProcessId {
        ProcessId((shard * self.cfg.replicas + replica) as u32)
    }

    fn server_role(&self, p: ProcessId) -> Option<(usize, usize)> {
        let i = p.0 as usize;
        if i < self.cfg.shards * self.cfg.replicas {
            Some((i / self.cfg.replicas, i % self.cfg.replicas))
        } else {
            None
        }
    }

    /// Whether `p` is a client process.
    pub fn is_client(&self, p: ProcessId) -> bool {
        let i = p.0 as usize;
        let servers = self.cfg.shards * self.cfg.replicas;
        i >= servers && i < servers + self.cfg.clients
    }

    fn start_op(&mut self, now: u64, client: ProcessId, out: &mut SendQueue) {
        let key = self.rng.random_range(0..self.cfg.keys);
        let insert = self.cfg.workload == HtWorkload::Insert;
        let kind = if insert { KIND_INSERT } else { KIND_LOOKUP };
        let tag = match (self.cfg.mode, insert) {
            (HtMode::OnePipe, true) => T_INSERT,
            (HtMode::Baseline, true) => T_WRITE_NODE, // fenced write #1: the KV node
            (_, false) => T_LOOKUP,
        };
        let replicas = self.cfg.replicas;
        let awaiting = if tag == T_INSERT { replicas } else { 1 };
        let id = self.ops.open(now, client, kind, awaiting, key);
        let shard = shard_of(key, self.cfg.shards);
        let mut b = frame(tag, id);
        b.put_u64(key);
        if insert {
            b.extend_from_slice(&[0u8; 48]); // the KV node image
        }
        let payload = b.freeze();
        match (self.cfg.mode, insert) {
            (HtMode::OnePipe, true) => {
                // One scattering carrying the (node + pointer) insert to
                // every replica of the shard.
                let msgs: Vec<Message> = (0..replicas)
                    .map(|r| Message::new(self.server_proc(shard, r), payload.clone()))
                    .collect();
                // Best-effort service: the one-sided-write pattern of
                // §2.2.1, with losses handled by application retry (the
                // 1-RTT replication recipe of §2.2.2).
                out.push(client, msgs, false);
            }
            (HtMode::OnePipe, false) => {
                // Lookup at any replica, via an ordered best-effort message.
                self.rr = (self.rr + 1) % replicas;
                let dst = self.server_proc(shard, self.rr);
                out.push(client, vec![Message::new(dst, payload)], false);
            }
            // The baseline talks to the leader only.
            (HtMode::Baseline, _) => out.push_raw(client, self.server_proc(shard, 0), payload),
        }
    }

    fn apply_insert(&mut self, shard: usize, replica: usize, key: u64) {
        self.shards[shard][replica].buckets.entry(key % 1024).or_default().insert(0, key);
    }

    /// Apply an insert (`T_INSERT`, `T_REPL`) or look `key` up
    /// (`T_LOOKUP`) at `shard`'s `replica`, and return the reply.
    fn serve(&mut self, (shard, replica): (usize, usize), tag: u8, id: u64, key: u64) -> BytesMut {
        if tag != T_LOOKUP {
            self.apply_insert(shard, replica, key);
            return frame(if tag == T_INSERT { T_REPLY } else { T_REPL_R }, id);
        }
        let buckets = &self.shards[shard][replica].buckets;
        let found = buckets.get(&(key % 1024)).is_some_and(|v| v.contains(&key));
        let mut b = frame(T_LOOKUP_R, id);
        b.put_u8(found as u8);
        b
    }
}

impl AppHook for HtApp {
    fn on_delivery(
        &mut self,
        now: u64,
        receiver: ProcessId,
        msg: &Delivered,
        _reliable: bool,
        out: &mut SendQueue,
    ) {
        let Some(role) = self.server_role(receiver) else { return };
        let Some((tag @ (T_INSERT | T_LOOKUP), id, mut p)) = read_frame(&msg.payload) else {
            return;
        };
        if p.remaining() < 8 {
            return;
        }
        let reply = self.serve(role, tag, id, p.get_u64());
        self.cpu.reply(now, receiver, msg.src, reply, out);
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
            // ---- client completions ----
            T_REPLY | T_LOOKUP_R if self.ops.ack(id) => {
                self.ops.complete(now, id, &mut self.completed);
            }
            T_WRITE_NODE_R => {
                // Fence satisfied: issue the pointer write.
                let Some(op) = self.ops.get(id) else { return };
                let (client, key) = (op.client, op.state);
                let mut b = frame(T_WRITE_PTR, id);
                b.put_u64(key);
                out.push_raw(client, self.server_proc(shard_of(key, self.cfg.shards), 0), b);
            }
            T_WRITE_PTR_R => {
                self.ops.complete(now, id, &mut self.completed);
            }
            T_REPL_R if self.repl_waits.ack(id) => {
                let wait = self.repl_waits.remove(id).expect("an acked wait is open");
                out.push_raw(receiver, wait.client, frame(T_WRITE_PTR_R, id));
            }
            // ---- server handlers ----
            T_WRITE_NODE => {
                // The node write itself does not mutate the bucket, but
                // still costs leader CPU.
                self.cpu.reply(now, receiver, src, frame(T_WRITE_NODE_R, id), out);
            }
            T_WRITE_PTR if p.remaining() >= 8 => {
                let key = p.get_u64();
                let Some((shard, replica)) = self.server_role(receiver) else { return };
                self.apply_insert(shard, replica, key);
                // Leader replicates synchronously; each copy costs CPU.
                for r in 1..self.cfg.replicas {
                    let backup = self.server_proc(shard, r);
                    let mut b = frame(T_REPL, id);
                    b.put_u64(key);
                    self.cpu.reply(now, receiver, backup, b, out);
                }
                if self.cfg.replicas > 1 {
                    self.repl_waits.wait(id, src, self.cfg.replicas - 1, ());
                } else {
                    self.cpu.reply(now, receiver, src, frame(T_WRITE_PTR_R, id), out);
                }
            }
            T_REPL | T_LOOKUP if p.remaining() >= 8 => {
                let key = p.get_u64();
                let Some(role) = self.server_role(receiver) else { return };
                let reply = self.serve(role, tag, id, key);
                self.cpu.reply(now, receiver, src, reply, out);
            }
            _ => {}
        }
    }

    fn on_tick(&mut self, now: u64, _host: HostId, procs: &[ProcessId], out: &mut SendQueue) {
        // Release replies whose server CPU time has elapsed.
        self.cpu.release(now, procs, out);
        let clients = procs.iter().copied().filter(|&p| self.is_client(p));
        for p in self.ops.refill(clients, self.cfg.pipeline) {
            self.start_op(now, p, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onepipe_core::harness::{Cluster, ClusterConfig};
    use std::collections::BTreeSet;
    use std::sync::{Arc, Mutex};

    fn run_ht(
        mode: HtMode,
        workload: HtWorkload,
        replicas: usize,
        dur_us: u64,
    ) -> Arc<Mutex<HtApp>> {
        let mut cfg = HtConfig::paper_default(mode, workload, replicas);
        cfg.shards = 4;
        cfg.clients = 4;
        // Deep pipeline: 1Pipe inserts are one-sided ordered writes that
        // need no per-op fence, so clients stream them (§2.2.1); the
        // baseline pipelines across ops but pays two dependent rounds
        // within each insert.
        cfg.pipeline = 32;
        let mut cluster = Cluster::new(ClusterConfig::testbed(cfg.total_procs()));
        let app = Arc::new(Mutex::new(HtApp::new(cfg)));
        cluster.set_app(app.clone());
        cluster.run_for(dur_us * 1_000);
        app
    }

    #[test]
    fn onepipe_insert_completes_and_replicates() {
        let app = run_ht(HtMode::OnePipe, HtWorkload::Insert, 3, 3_000);
        let app = app.lock().unwrap();
        assert!(app.completed.len() > 20, "completed {}", app.completed.len());
        // Inserts prepend, and every replica applies a prefix of one total
        // order: in each bucket, the shorter of two replicas' lists is a
        // suffix of the longer (same order, not just the same set).
        let mut pairs = 0;
        for (shard, replicas) in app.shards.iter().enumerate() {
            for (i, a) in replicas.iter().enumerate() {
                for b in &replicas[i + 1..] {
                    let buckets: BTreeSet<_> = a.buckets.keys().chain(b.buckets.keys()).collect();
                    for bucket in buckets {
                        let empty = Vec::new();
                        let x = a.buckets.get(bucket).unwrap_or(&empty);
                        let y = b.buckets.get(bucket).unwrap_or(&empty);
                        let (short, long) = if x.len() <= y.len() { (x, y) } else { (y, x) };
                        assert!(long.ends_with(short), "shard {shard} bucket {bucket} diverged");
                        pairs += 1;
                    }
                }
            }
        }
        assert!(pairs > 1_000, "only {pairs} bucket pairs compared");
    }

    #[test]
    fn baseline_insert_uses_two_rounds() {
        let op1 = run_ht(HtMode::OnePipe, HtWorkload::Insert, 1, 2_000);
        let base = run_ht(HtMode::Baseline, HtWorkload::Insert, 1, 2_000);
        let n1 = op1.lock().unwrap().completed.len();
        let nb = base.lock().unwrap().completed.len();
        assert!(n1 > 0 && nb > 0);
        // Without replication the paper reports 1.9×; accept >1.2×.
        assert!(n1 as f64 > nb as f64 * 1.2, "1Pipe {n1} should beat fenced baseline {nb}");
    }

    #[test]
    fn lookups_complete_in_both_modes() {
        let op = run_ht(HtMode::OnePipe, HtWorkload::Lookup, 2, 2_000);
        let base = run_ht(HtMode::Baseline, HtWorkload::Lookup, 2, 2_000);
        assert!(op.lock().unwrap().completed.len() > 20);
        assert!(base.lock().unwrap().completed.len() > 20);
    }
}
