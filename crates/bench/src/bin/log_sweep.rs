//! Log-service scaling sweeps: tenants and fan-out.
//!
//! Runs the multi-tenant ordered log service (`onepipe-log`) on the
//! simulated testbed fat-tree and sweeps the two axes the service is
//! built to scale along:
//!
//! - **tenants**: number of streams (one tenant per stream) from tens to
//!   over a thousand, fixed shard/client/subscriber deployment — the
//!   shard map and per-stream state must not degrade with tenant count;
//! - **fan-out**: subscribers per stream from 1 to 8 — owner-side
//!   publish cost and subscriber end-to-end latency.
//!
//! Writes `BENCH_log.json` at the repo root (same report-only idiom as
//! `perfbench`'s `BENCH_sim.json`): wall-clock numbers are trend data
//! for one machine, the sim-time rates and latencies are deterministic
//! for a seed.
//!
//! ```bash
//! cargo run --release -p onepipe-bench --bin log_sweep            # full
//! cargo run --release -p onepipe-bench --bin log_sweep -- --smoke # CI
//! ```

use onepipe_core::harness::{Cluster, ClusterConfig};
use onepipe_log::service::{DriveConfig, LogConfig, LogService};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One measured deployment.
struct Point {
    sweep: &'static str,
    tenants: u64,
    fanout: u32,
    /// Appends acknowledged to clients.
    acked: u64,
    /// Records applied across all subscribers.
    sub_records: u64,
    /// Acked appends per simulated second during the traffic window.
    appends_per_sim_sec: f64,
    /// Client-observed append latency, µs.
    append_p50_us: f64,
    append_p99_us: f64,
    /// Owner-append → subscriber-apply latency, µs.
    sub_e2e_p99_us: f64,
    /// Client admissions blocked on credit.
    stalls: u64,
    wall_s: f64,
}

impl Point {
    fn print(&self) {
        println!(
            "{:>7} tenants={:>5} fanout={}  {:>6} acked ({:>9.0}/sim-s)  \
             append p50/p99 {:>6.1}/{:>6.1} us  sub e2e p99 {:>6.1} us  \
             {:>5} sub records  {:>4} stalls  {:>5.2} s wall",
            self.sweep,
            self.tenants,
            self.fanout,
            self.acked,
            self.appends_per_sim_sec,
            self.append_p50_us,
            self.append_p99_us,
            self.sub_e2e_p99_us,
            self.sub_records,
            self.stalls,
            self.wall_s,
        );
    }

    fn json(&self) -> String {
        format!(
            "    {{\n      \"sweep\": \"{}\",\n      \"tenants\": {},\n      \"fanout\": {},\n      \"acked\": {},\n      \"sub_records\": {},\n      \"appends_per_sim_sec\": {:.1},\n      \"append_p50_us\": {:.2},\n      \"append_p99_us\": {:.2},\n      \"sub_e2e_p99_us\": {:.2},\n      \"stalls\": {},\n      \"wall_s\": {:.6}\n    }}",
            self.sweep,
            self.tenants,
            self.fanout,
            self.acked,
            self.sub_records,
            self.appends_per_sim_sec,
            self.append_p50_us,
            self.append_p99_us,
            self.sub_e2e_p99_us,
            self.stalls,
            self.wall_s,
        )
    }
}

/// Run one deployment to completion and measure it.
fn run_point(sweep: &'static str, mut cfg: LogConfig, smoke: bool) -> Point {
    let stop_at: u64 = if smoke { 1_000_000 } else { 3_000_000 };
    let run_until: u64 = stop_at + if smoke { 3_000_000 } else { 5_000_000 };
    let drive =
        DriveConfig { rate_per_sec: if smoke { 40_000.0 } else { 80_000.0 }, theta: 0.99, stop_at };
    cfg.drive = Some(drive);

    let mut ccfg = ClusterConfig::testbed(cfg.n_processes());
    ccfg.seed = 7 + cfg.n_streams + cfg.fanout as u64;
    cfg.seed = ccfg.seed;
    let mut cluster = Cluster::new(ccfg);
    let app = Arc::new(Mutex::new(LogService::new(cfg.clone())));
    cluster.set_app(app.clone());

    let wall = Instant::now();
    cluster.run_until(run_until);
    let wall_s = wall.elapsed().as_secs_f64();

    let svc = app.lock().unwrap();
    let lat = svc.append_latency_ns.merged();
    let totals = svc.tenant_totals().totals();
    Point {
        sweep,
        tenants: cfg.n_streams,
        fanout: cfg.fanout,
        acked: svc.acked_appends,
        sub_records: svc.sub_records,
        appends_per_sim_sec: svc.acked_appends as f64 / (stop_at as f64 / 1e9),
        append_p50_us: lat.percentile(0.50) / 1_000.0,
        append_p99_us: lat.percentile(0.99) / 1_000.0,
        sub_e2e_p99_us: svc.sub_e2e_ns.percentile(0.99) / 1_000.0,
        stalls: totals.stalls,
        wall_s,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mode = if smoke { "smoke" } else { "full" };
    println!("log_sweep ({mode} mode)");

    let base = LogConfig {
        n_shards: 8,
        n_clients: 8,
        n_subs: 4,
        replicate: true,
        fanout: 1,
        ..LogConfig::default()
    };

    let mut points = Vec::new();

    // Tenant sweep: fixed deployment, stream count grows past 1000.
    let tenant_counts: &[u64] = if smoke { &[64, 1024] } else { &[64, 256, 1024, 2048] };
    for &tenants in tenant_counts {
        let cfg = LogConfig { n_streams: tenants, ..base.clone() };
        let p = run_point("tenants", cfg, smoke);
        p.print();
        points.push(p);
    }

    // Fan-out sweep: modest tenant count, subscribers per stream grow.
    let fanouts: &[u32] = if smoke { &[1, 8] } else { &[1, 2, 4, 8] };
    for &fanout in fanouts {
        let cfg = LogConfig { n_streams: 128, n_subs: 8, fanout, ..base.clone() };
        let p = run_point("fanout", cfg, smoke);
        p.print();
        points.push(p);
    }

    let mut body = String::new();
    body.push_str("{\n");
    let _ = writeln!(body, "  \"generated_by\": \"log_sweep\",");
    let _ = writeln!(body, "  \"mode\": \"{mode}\",");
    body.push_str("  \"points\": [\n");
    let entries: Vec<String> = points.iter().map(|p| p.json()).collect();
    body.push_str(&entries.join(",\n"));
    body.push_str("\n  ]\n}\n");

    // The bench crate lives at <root>/crates/bench.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_log.json");
    match std::fs::write(&path, &body) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("log_sweep: could not write {}: {e}", path.display()),
    }
}
