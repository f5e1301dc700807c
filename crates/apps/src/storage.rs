//! Ceph-style storage replication (§7.3.4).
//!
//! Models a 4 KB random-write path with three replicas and SSD latencies
//! (Intel DC S3700-class):
//!
//! * **Baseline (primary-backup chain)** — the client writes the primary,
//!   which persists and forwards to backup 1, which persists and forwards
//!   to backup 2; acks ripple back. The client observes 3 sequential disk
//!   writes plus 6 network messages (3 RTTs) — the paper's 160 ± 54 µs.
//! * **1Pipe (1-RTT replication, §2.2.2)** — the client scatters the log
//!   entry to all three replicas at once; each persists in parallel and
//!   replies with a checksum of its log. The client completes when all
//!   checksums match: 1 disk write (the slowest of three in parallel) plus
//!   1 RTT — the paper's 58 ± 28 µs.
//!
//! Disk latency is sampled from a lognormal fitted to datacenter SSD
//! write behaviour; completions are driven by the host poll tick.

use crate::metrics::TxnRecord;
use crate::rpc::{frame, read_frame, HoldBack, Inflight};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use onepipe_core::simhost::{AppHook, SendQueue};
use onepipe_types::ids::{HostId, ProcessId};
use onepipe_types::message::{Delivered, Message};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Replication scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageMode {
    /// 1Pipe scattering: parallel replica writes, 1 RTT.
    OnePipe,
    /// Sequential primary-backup chain (Ceph-style).
    Chain,
}

/// Storage experiment configuration.
#[derive(Clone, Debug)]
pub struct StorageConfig {
    /// Scheme under test.
    pub mode: StorageMode,
    /// Replicas (paper: 3). Replica processes are 0..replicas; the client
    /// is process `replicas`.
    pub replicas: usize,
    /// Write size (paper: 4 KB).
    pub write_bytes: usize,
    /// Median disk write latency, ns (S3700 4 KB random write ≈ 45 µs).
    pub disk_median_ns: f64,
    /// Lognormal σ of the disk latency.
    pub disk_sigma: f64,
    /// Closed-loop outstanding writes from the client.
    pub pipeline: usize,
    /// Seed.
    pub seed: u64,
}

impl StorageConfig {
    /// Paper setup.
    pub fn paper_default(mode: StorageMode) -> Self {
        StorageConfig {
            mode,
            replicas: 3,
            write_bytes: 4096,
            disk_median_ns: 45_000.0,
            disk_sigma: 0.35,
            pipeline: 1,
            seed: 13,
        }
    }
}

const T_WRITE: u8 = 1; // chain write / scattering body
const T_ACK: u8 = 2; // checksum reply / chain ack

/// A pending disk write at a replica.
#[derive(Debug)]
struct DiskJob {
    id: u64,
    /// Chain position (0 = primary); `None` for 1Pipe.
    chain_pos: Option<usize>,
    checksum: u64,
}

/// The storage application.
pub struct StorageApp {
    cfg: StorageConfig,
    /// Writes in flight, with the checksums acked so far.
    ops: Inflight<Vec<u64>>,
    rng: StdRng,
    /// Disk writes in progress, owned by their replica.
    disk_queue: HoldBack<DiskJob>,
    /// Per-replica running checksum of applied log entries (§2.2.2).
    pub checksums: Vec<u64>,
    /// Per-replica count of persisted writes.
    pub persisted: Vec<u64>,
    /// Completed writes.
    pub completed: Vec<TxnRecord>,
    /// Checksum mismatches observed by the client (must stay 0 without
    /// loss).
    pub mismatches: u64,
}

impl StorageApp {
    /// Create the app.
    pub fn new(cfg: StorageConfig) -> Self {
        StorageApp {
            ops: Inflight::new(),
            rng: StdRng::seed_from_u64(cfg.seed),
            disk_queue: HoldBack::new(),
            checksums: vec![0; cfg.replicas],
            persisted: vec![0; cfg.replicas],
            completed: Vec::new(),
            mismatches: 0,
            cfg,
        }
    }

    /// The client process id.
    pub fn client(&self) -> ProcessId {
        ProcessId(self.cfg.replicas as u32)
    }

    fn disk_latency(&mut self) -> u64 {
        // Lognormal around the median.
        let z = onepipe_clock::sample_normal(&mut self.rng, 0.0, 1.0);
        (self.cfg.disk_median_ns * (self.cfg.disk_sigma * z).exp()) as u64
    }

    /// The write `id` with its data, to the chain's `chain_pos` or (`None`)
    /// scattered to every replica.
    fn write_frame(&self, id: u64, chain_pos: Option<usize>) -> BytesMut {
        let mut b = frame(T_WRITE, id);
        if let Some(pos) = chain_pos {
            b.put_u8(pos as u8);
        }
        b.extend_from_slice(&vec![0u8; self.cfg.write_bytes]);
        b
    }

    fn start_write(&mut self, now: u64, out: &mut SendQueue) {
        let client = self.client();
        let chain = self.cfg.mode == StorageMode::Chain;
        let awaiting = if chain { 1 } else { self.cfg.replicas };
        let id = self.ops.open(now, client, 0, awaiting, Vec::new());
        match self.cfg.mode {
            StorageMode::OnePipe => {
                let payload = self.write_frame(id, None).freeze();
                let msgs: Vec<Message> = (0..self.cfg.replicas)
                    .map(|r| Message::new(ProcessId(r as u32), payload.clone()))
                    .collect();
                // 1-RTT replication uses the best-effort service with
                // checksum verification (§2.2.2).
                out.push(client, msgs, false);
            }
            StorageMode::Chain => {
                out.push_raw(client, ProcessId(0), self.write_frame(id, Some(0)));
            }
        }
    }

    fn persist(&mut self, now: u64, replica: ProcessId, id: u64, chain_pos: Option<usize>) {
        let r = replica.0 as usize;
        self.persisted[r] += 1;
        // Running log checksum: mix in the entry id (stands in for the
        // message timestamp of §2.2.2).
        self.checksums[r] = self.checksums[r].wrapping_mul(0x100000001B3).wrapping_add(id);
        let checksum = self.checksums[r];
        let done_at = now + self.disk_latency();
        self.disk_queue.push(done_at, replica, DiskJob { id, chain_pos, checksum });
    }
}

impl AppHook for StorageApp {
    fn on_delivery(
        &mut self,
        now: u64,
        receiver: ProcessId,
        msg: &Delivered,
        _reliable: bool,
        _out: &mut SendQueue,
    ) {
        // 1Pipe mode: a replica receives the log entry in total order.
        let Some((T_WRITE, id, _)) = read_frame(&msg.payload) else { return };
        self.persist(now, receiver, id, None);
    }

    fn on_raw(
        &mut self,
        now: u64,
        receiver: ProcessId,
        _src: ProcessId,
        payload: &Bytes,
        _out: &mut SendQueue,
    ) {
        let Some((tag, id, mut p)) = read_frame(payload) else { return };
        match tag {
            T_WRITE if p.remaining() >= 1 => {
                // Chain mode: persist, then forward (in `on_tick`).
                let chain_pos = p.get_u8() as usize;
                self.persist(now, receiver, id, Some(chain_pos));
            }
            T_ACK if p.remaining() >= 8 && receiver == self.client() => {
                let Some(op) = self.ops.get_mut(id) else { return };
                op.state.push(p.get_u64());
                if self.ops.ack(id) {
                    let op = self.ops.complete(now, id, &mut self.completed);
                    let op = op.expect("an acked write is open");
                    if op.state.windows(2).any(|w| w[0] != w[1]) {
                        self.mismatches += 1;
                    }
                }
            }
            _ => {}
        }
    }

    fn on_tick(&mut self, now: u64, _host: HostId, procs: &[ProcessId], out: &mut SendQueue) {
        // Complete due disk writes belonging to replicas on this host.
        for (replica, j) in self.disk_queue.release(now, procs) {
            match j.chain_pos {
                Some(pos) if pos + 1 < self.cfg.replicas => {
                    // Chain: forward to the next replica. The reduced
                    // chain rips the ack straight from the tail to the
                    // client, preserving end-to-end latency (3 disk + 3 RTT).
                    let next = ProcessId(replica.0 + 1);
                    out.push_raw(replica, next, self.write_frame(j.id, Some(pos + 1)));
                }
                _ => {
                    // 1Pipe: reply with the checksum. Tail of the chain:
                    // ack the client directly (latency-equivalent collapse
                    // of the ack ripple).
                    let mut b = frame(T_ACK, j.id);
                    b.put_u64(j.checksum);
                    out.push_raw(replica, self.client(), b);
                }
            }
        }
        // Client issues writes.
        let client = self.client();
        let clients = procs.iter().copied().filter(|&p| p == client);
        for _ in self.ops.refill(clients, self.cfg.pipeline) {
            self.start_write(now, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onepipe_core::harness::{Cluster, ClusterConfig};
    use onepipe_netsim::stats::Samples;
    use std::sync::{Arc, Mutex};

    fn run_storage(mode: StorageMode, dur_us: u64) -> Arc<Mutex<StorageApp>> {
        let cfg = StorageConfig::paper_default(mode);
        let mut cluster = Cluster::new(ClusterConfig::single_rack(4, 4));
        let app = Arc::new(Mutex::new(StorageApp::new(cfg)));
        cluster.set_app(app.clone());
        cluster.run_for(dur_us * 1_000);
        app
    }

    fn latencies(app: &StorageApp) -> Samples {
        let mut s = Samples::new();
        for r in &app.completed {
            s.push((r.end - r.start) as f64);
        }
        s
    }

    #[test]
    fn onepipe_writes_complete_with_matching_checksums() {
        let app = run_storage(StorageMode::OnePipe, 20_000);
        let app = app.lock().unwrap();
        assert!(app.completed.len() > 20, "completed {}", app.completed.len());
        assert_eq!(app.mismatches, 0);
        // All replicas persisted every write.
        let p0 = app.persisted[0];
        assert!(p0 > 0);
    }

    #[test]
    fn chain_writes_complete() {
        let app = run_storage(StorageMode::Chain, 20_000);
        let app = app.lock().unwrap();
        assert!(app.completed.len() > 10, "completed {}", app.completed.len());
    }

    #[test]
    fn onepipe_latency_is_much_lower_than_chain() {
        let op = run_storage(StorageMode::OnePipe, 30_000);
        let chain = run_storage(StorageMode::Chain, 30_000);
        let lo = latencies(&op.lock().unwrap());
        let lc = latencies(&chain.lock().unwrap());
        assert!(lo.len() > 10 && lc.len() > 10);
        // Paper: 160 µs → 58 µs (64 % reduction). Require ≥ 2×.
        assert!(
            lc.mean() > 2.0 * lo.mean(),
            "chain {:.1} µs vs 1Pipe {:.1} µs",
            lc.mean() / 1e3,
            lo.mean() / 1e3
        );
    }
}
