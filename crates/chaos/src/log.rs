//! Seeded shard-crash campaigns for the log service.
//!
//! Each seed runs the full service (replicated shards, subscribers, and
//! clients fed open-loop multi-tenant traffic through
//! [`LogService::submit`]) on the 32-host testbed fat-tree, kills one
//! shard server's host mid-append, lets recovery (failure announcement →
//! client window resend → subscriber re-subscribe + replay) run, and then
//! replays every observer's view — both shard replicas *and* every
//! subscriber — through the [`StreamOrderOracle`]: no tenant may observe
//! a per-client sequence gap, reorder, or duplicate, and no two observers
//! may diverge.
//!
//! On top of the oracle, a seed only passes if the run *completed*:
//! every submitted batch acknowledged and every subscriber caught up to
//! its streams' final log length (replay actually worked, rather than
//! nobody observing anything).

use crate::streams::StreamOrderOracle;
use crate::Violation;
use onepipe_apps::workload::OpenLoop;
use onepipe_core::harness::{Cluster, ClusterConfig};
use onepipe_log::{LogConfig, LogService};
use onepipe_types::ids::ProcessId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

/// Arrivals are handed to the service once per quantum of sim time, ns.
const SUBMIT_QUANTUM_NS: u64 = 1_000;

/// Mean batch payload bytes; sizes are drawn uniform in
/// `[BATCH_BYTES / 2, 3 * BATCH_BYTES / 2)`.
const BATCH_BYTES: usize = 64;

/// Campaign shape (times in sim ns).
#[derive(Clone, Debug)]
pub struct LogChaosConfig {
    /// Service deployment.
    pub log: LogConfig,
    /// Open-loop arrivals per second per client.
    pub rate_per_sec: f64,
    /// Zipf tenant skew.
    pub theta: f64,
    /// Barriers settle + subscribers join before this.
    pub warmup: u64,
    /// The shard-host crash lands uniformly inside
    /// `[warmup, warmup + fault_window)` — mid-append by construction.
    pub fault_window: u64,
    /// Traffic generation stops here.
    pub stop_traffic_at: u64,
    /// Run until here so recovery and replay drain.
    pub run_until: u64,
}

impl Default for LogChaosConfig {
    fn default() -> Self {
        LogChaosConfig {
            log: LogConfig {
                n_shards: 4,
                n_clients: 4,
                n_subs: 2,
                n_streams: 32,
                replicate: true,
                fanout: 1,
                ..LogConfig::default()
            },
            rate_per_sec: 100_000.0,
            theta: 0.99,
            warmup: 300_000,
            fault_window: 1_200_000,
            stop_traffic_at: 2_500_000,
            run_until: 7_000_000,
        }
    }
}

/// What one seed produced.
#[derive(Debug)]
pub struct LogSeedOutcome {
    /// The seed.
    pub seed: u64,
    /// Which shard's host was crashed.
    pub victim_shard: u32,
    /// When the crash landed, ns.
    pub crash_at: u64,
    /// Appends acknowledged to clients.
    pub acked: u64,
    /// Records applied across subscribers.
    pub sub_records: u64,
    /// Stream-order / client-seq / divergence violations.
    pub violations: Vec<Violation>,
    /// Batches still unacknowledged after the drain (should be 0).
    pub unacked_left: usize,
    /// Subscriber streams still behind the final log length.
    pub lagging_subs: usize,
}

impl LogSeedOutcome {
    /// Clean: no violation, nothing stuck, everyone caught up.
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && self.unacked_left == 0 && self.lagging_subs == 0
    }
}

/// Run one seed; deterministic for a given `(cfg, seed)`.
pub fn run_seed(cfg: &LogChaosConfig, seed: u64) -> LogSeedOutcome {
    let mut log_cfg = cfg.log.clone();
    log_cfg.seed = seed;

    let mut cluster_cfg = ClusterConfig::testbed(log_cfg.n_processes());
    cluster_cfg.seed = seed;
    let mut cluster = Cluster::new(cluster_cfg);
    let app = Arc::new(Mutex::new(LogService::new(log_cfg.clone())));
    cluster.set_app(app.clone());

    // Schedule the mid-append crash of one shard server's host.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10C_CAFE);
    let victim_shard = rng.random_range(0..log_cfg.n_shards);
    let crash_at = cfg.warmup + rng.random_range(0..cfg.fault_window.max(1));
    let victim_host =
        cluster.procs.host_of(ProcessId(victim_shard)).expect("shard process is placed");
    cluster.crash_host(crash_at, victim_host);

    // Each client's open-loop arrivals and batch sizes, seeded per client.
    let mut clients: Vec<(OpenLoop, StdRng)> = (0..log_cfg.n_clients as u64)
        .map(|c| {
            let arrivals = OpenLoop::new(
                log_cfg.n_streams,
                cfg.theta,
                cfg.rate_per_sec,
                0,
                seed ^ 0xC11E ^ (c << 8),
            );
            (arrivals, StdRng::seed_from_u64(seed ^ 0xBA7C ^ (c << 16)))
        })
        .collect();
    let mut t = 0;
    while t < cfg.stop_traffic_at {
        t = (t + SUBMIT_QUANTUM_NS).min(cfg.stop_traffic_at);
        cluster.run_until(t);
        let mut svc = app.lock().expect("log service lock");
        for (c, (arrivals, sizes)) in clients.iter_mut().enumerate() {
            while let Some(a) = arrivals.next_before(t) {
                let len = sizes.random_range(BATCH_BYTES / 2..BATCH_BYTES + BATCH_BYTES / 2);
                svc.submit(c as u32, a.tenant, vec![0xB5u8; len]);
            }
        }
    }
    cluster.run_until(cfg.run_until);

    // Judge every observer's view of every stream.
    let svc = app.lock().expect("log service lock");
    let mut oracle = StreamOrderOracle::new();
    let at = cfg.run_until;
    for shard in 0..log_cfg.n_shards {
        let observer = ProcessId(shard);
        for (stream, log) in svc.shard_state(shard).iter() {
            for r in &log.records {
                oracle.observe_record(
                    at,
                    observer,
                    stream,
                    r.offset,
                    r.client,
                    r.seq,
                    r.payload.len(),
                );
            }
        }
    }
    let mut lagging_subs = 0usize;
    for u in 0..log_cfg.n_subs {
        let observer = ProcessId(log_cfg.n_shards + log_cfg.n_clients + u);
        for stream in 0..log_cfg.n_streams {
            if !log_cfg.subs_of(stream).contains(&u) {
                continue;
            }
            let applied = svc.sub_applied(u, stream);
            for r in applied {
                oracle.observe_record(
                    at,
                    observer,
                    stream,
                    r.offset,
                    r.client,
                    r.seq,
                    r.payload.len(),
                );
            }
            // Caught up? Compare against the surviving owner's log.
            let final_len = svc.owner(stream).map(|s| svc.shard_state(s).len(stream)).unwrap_or(0);
            if (applied.len() as u64) < final_len {
                lagging_subs += 1;
            }
        }
    }

    LogSeedOutcome {
        seed,
        victim_shard,
        crash_at,
        acked: svc.acked_appends,
        sub_records: svc.sub_records,
        violations: oracle.violations().to_vec(),
        unacked_left: svc.unacked_total(),
        lagging_subs,
    }
}

/// Run `n_seeds` seeds starting at `first_seed`; returns the outcomes.
pub fn run_campaign(cfg: &LogChaosConfig, first_seed: u64, n_seeds: u64) -> Vec<LogSeedOutcome> {
    (first_seed..first_seed + n_seeds).map(|s| run_seed(cfg, s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_seed_smoke_campaign_is_clean() {
        let cfg = LogChaosConfig::default();
        for out in run_campaign(&cfg, 1, 2) {
            assert!(
                out.ok(),
                "seed {} failed: victim {} at {}ns, {} acked, {} sub records, \
                 {} unacked, {} lagging, first violation: {:?}",
                out.seed,
                out.victim_shard,
                out.crash_at,
                out.acked,
                out.sub_records,
                out.unacked_left,
                out.lagging_subs,
                out.violations.first(),
            );
            assert!(out.acked > 100, "too little traffic: {}", out.acked);
        }
    }
}
