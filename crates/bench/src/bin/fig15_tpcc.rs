//! Figure 15 + §7.3.2: TPC-C independent transactions.
//!
//! (a) Throughput scaling of New-Order + Payment over 4 warehouses × 3
//!     replicas for 1Pipe (Eris-style reliable scatterings), two-phase
//!     locking, OCC and a non-transactional bound.
//! (b) Throughput under packet loss: 1Pipe keeps pipelining while lock
//!     and OCC hold locks/validation windows across retransmission delays.
//! With `--recovery`, reproduce the §7.3.2 replica-failure experiment.

use onepipe_apps::metrics::TxnMetrics;
use onepipe_apps::tpcc::{TpccApp, TpccConfig, TpccMode};
use onepipe_bench::{full_mode, row};
use onepipe_core::harness::{Cluster, ClusterConfig};
use onepipe_types::ids::HostId;
use std::sync::{Arc, Mutex};

fn run(mode: TpccMode, n: usize, loss: f64, dur: u64, seed: u64) -> f64 {
    let mut cfg = ClusterConfig::testbed(n);
    cfg.seed = seed;
    let mut cluster = Cluster::new(cfg);
    if loss > 0.0 {
        cluster.sim.set_global_loss_rate(loss);
    }
    let mut tcfg = TpccConfig::paper_default(mode, n);
    tcfg.pipeline = 2;
    let app = Arc::new(Mutex::new(TpccApp::new(tcfg)));
    cluster.set_app(app.clone());
    cluster.run_for(dur);
    let t1 = cluster.sim.now();
    let app = app.lock().unwrap();
    let m = TxnMetrics::over_window(&app.completed, t1 / 5, t1);
    m.tput / 1e6
}

fn recovery() {
    println!("# §7.3.2: replica failure during TPC-C (1Pipe)");
    let mut cfg = ClusterConfig::testbed(16);
    cfg.seed = 77;
    let mut cluster = Cluster::new(cfg);
    let mut tcfg = TpccConfig::paper_default(TpccMode::OnePipe, 16);
    tcfg.pipeline = 2;
    tcfg.retry_timeout = 500_000;
    let app = Arc::new(Mutex::new(TpccApp::new(tcfg)));
    cluster.set_app(app.clone());
    cluster.run_for(500_000);
    // Kill the host of warehouse 3's third replica (process 11 → host 11).
    let kill_at = cluster.sim.now() + 100_000;
    cluster.crash_host(kill_at, HostId(11));
    cluster.run_for(3_000_000);
    // Detection+removal time: first failure announcement.
    let announce_at = cluster
        .take_user_events()
        .iter()
        .find(|(_, _, ev)| matches!(ev, onepipe_core::events::UserEvent::ProcessFailed { .. }))
        .map(|(at, _, _)| *at);
    match announce_at {
        Some(at) => println!(
            "detect+announce: {:.0} us after failure (paper: 181±21 us)",
            (at.saturating_sub(kill_at)) as f64 / 1e3
        ),
        None => println!("no failure announcement observed"),
    }
    // Affected-transaction delay: retried transactions' total latency.
    let app = app.lock().unwrap();
    let retried: Vec<f64> = app
        .completed
        .iter()
        .filter(|r| r.retries > 0 && r.end > kill_at)
        .map(|r| (r.end - r.start) as f64 / 1e3)
        .collect();
    if retried.is_empty() {
        println!("no transactions needed retry");
    } else {
        let mean = retried.iter().sum::<f64>() / retried.len() as f64;
        println!(
            "aborted+retried TXNs: {} with mean delay {mean:.0} us (paper: 308±122 us)",
            retried.len()
        );
    }
    // The system keeps committing after recovery.
    let after = app.completed.iter().filter(|r| r.end > kill_at + 1_000_000).count();
    println!("TXNs committed ≥1 ms after the failure: {after}");
}

fn main() {
    if std::env::args().any(|a| a == "--recovery") {
        recovery();
        return;
    }
    let dur = 2_000_000;
    println!("# Figure 15a: TPC-C throughput (M txn/s), 4 warehouses × 3 replicas");
    row(&["procs".into(), "1Pipe".into(), "Lock".into(), "OCC".into(), "NonTX".into()]);
    let sizes: Vec<usize> = if full_mode() { vec![16, 32, 64, 128] } else { vec![16, 32, 64] };
    for &n in &sizes {
        row(&[
            n.to_string(),
            format!("{:.3}", run(TpccMode::OnePipe, n, 0.0, dur, 1)),
            format!("{:.3}", run(TpccMode::Lock, n, 0.0, dur, 2)),
            format!("{:.3}", run(TpccMode::Occ, n, 0.0, dur, 3)),
            format!("{:.3}", run(TpccMode::NonTx, n, 0.0, dur, 4)),
        ]);
    }

    println!("\n# Figure 15b: TPC-C throughput (M txn/s) vs link loss rate (32 procs)");
    row(&["loss".into(), "1Pipe".into(), "Lock".into(), "OCC".into(), "NonTX".into()]);
    for &loss in &[0.0f64, 1e-5, 1e-3, 1e-2] {
        row(&[
            format!("{loss:.0e}"),
            format!("{:.3}", run(TpccMode::OnePipe, 32, loss, dur, 5)),
            format!("{:.3}", run(TpccMode::Lock, 32, loss, dur, 6)),
            format!("{:.3}", run(TpccMode::Occ, 32, loss, dur, 7)),
            format!("{:.3}", run(TpccMode::NonTx, 32, loss, dur, 8)),
        ]);
    }
    println!("# paper: 1Pipe scales and resists loss; Lock/OCC peak early and collapse");
}
