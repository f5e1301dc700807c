//! Engine performance regression harness.
//!
//! Unlike the `fig*` binaries (which reproduce the paper's *results*),
//! this one measures the *simulator itself*: how many discrete events and
//! application deliveries per wall-clock second the engine sustains on
//! fixed-seed workloads, and the peak receive-side reorder-buffer
//! footprint. It writes `BENCH_sim.json` (`--smoke`:
//! `BENCH_sim_smoke.json`) at the repo root so successive PRs have a
//! trajectory to regress against, and with `--check` it first compares
//! the run's determinism canaries with that committed file:
//!
//! ```bash
//! cargo run --release -p onepipe-bench --bin perfbench            # full
//! cargo run --release -p onepipe-bench --bin perfbench -- --smoke # short
//! cargo run --release -p onepipe-bench --bin perfbench -- --smoke --check # CI
//! ```
//!
//! Workloads (all deterministic, fixed seeds):
//! - `fig8_broadcast`: the Figure-8 all-to-all scattering workload on the
//!   32-server testbed fat-tree — barrier-heavy, fan-out-heavy.
//! - `incast`: every process unicasts to process 0 — stresses one
//!   reorder buffer and the ECMP down-path.
//! - `idle_32`: the 32-process testbed with no traffic at all — what the
//!   barrier background alone costs (a beacon per link per 3 µs, the
//!   hosts' ticks, the switches' relay timers; DESIGN.md §10). Its
//!   ns/event is the floor under every other workload's.
//! - `fig8_128`, `fig8_512` (full mode only): Figure 8's larger points —
//!   128 and 512 processes (4 and 16 per host), at `fig8_scalability`'s
//!   seed, rate and window for those rows.
//!
//! There is one engine, single-threaded, and one row per workload.
//!
//! Wall-clock rates vary with the machine; they are *report-only*
//! (trend data), not a gating threshold. Compare ratios between commits
//! measured on the same machine, not absolute numbers across machines.
//! `events`, `deliveries` and `sim_ns` are exact on every machine:
//! `--check` exits non-zero, before writing anything, if any workload's
//! differ from the committed baseline of the same mode.

use onepipe_bench::run_onepipe_broadcast;
use onepipe_core::harness::{Cluster, ClusterConfig};
use onepipe_types::ids::{HostId, ProcessId};
use onepipe_types::message::Message;
use std::fmt::Write as _;
use std::time::Instant;

/// Result of one measured workload.
struct WorkloadReport {
    name: String,
    /// Engine events processed.
    events: u64,
    /// Application-level deliveries observed.
    deliveries: u64,
    /// Simulated time covered, ns.
    sim_ns: u64,
    /// Wall-clock seconds the run took.
    wall_s: f64,
    /// Peak total receive-side reorder-buffer bytes across all hosts.
    peak_reorder_bytes: usize,
}

impl WorkloadReport {
    /// Read the counters of a finished run off its cluster.
    fn of(name: &str, cluster: &mut Cluster, deliveries: u64, wall_s: f64) -> WorkloadReport {
        WorkloadReport {
            name: name.to_string(),
            events: cluster.sim.stats.events,
            deliveries,
            sim_ns: cluster.sim.now(),
            wall_s,
            peak_reorder_bytes: peak_reorder_bytes(cluster),
        }
    }

    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s
    }

    fn deliveries_per_sec(&self) -> f64 {
        self.deliveries as f64 / self.wall_s
    }

    fn ns_per_event(&self) -> f64 {
        self.wall_s * 1e9 / self.events as f64
    }

    fn print(&self) {
        println!(
            "{:>20}: {:>10} events in {:>6.3} s  ({:>12.0} events/s, {:>5.1} ns/event, {:>10.0} deliveries/s, peak reorder {} B, sim {} ns)",
            self.name,
            self.events,
            self.wall_s,
            self.events_per_sec(),
            self.ns_per_event(),
            self.deliveries_per_sec(),
            self.peak_reorder_bytes,
            self.sim_ns,
        );
    }

    fn json(&self) -> String {
        format!(
            "    \"{}\": {{\n      \"events\": {},\n      \"deliveries\": {},\n      \"sim_ns\": {},\n      \"wall_s\": {:.6},\n      \"events_per_sec\": {:.1},\n      \"ns_per_event\": {:.1},\n      \"deliveries_per_sec\": {:.1},\n      \"peak_reorder_bytes\": {}\n    }}",
            self.name,
            self.events,
            self.deliveries,
            self.sim_ns,
            self.wall_s,
            self.events_per_sec(),
            self.ns_per_event(),
            self.deliveries_per_sec(),
            self.peak_reorder_bytes,
        )
    }
}

fn peak_reorder_bytes(cluster: &mut Cluster) -> usize {
    let mut total = 0usize;
    for h in 0..cluster.topo.num_hosts() {
        let host = HostId(h as u32);
        if let Some(b) = cluster.with_host(host, |hl, _| {
            hl.endpoints.iter().map(|e| e.max_rx_buffered()).sum::<usize>()
        }) {
            total += b;
        }
    }
    total
}

/// Figure-8-style all-to-all best-effort broadcast among `n` processes
/// on the 32-server testbed: `rate` broadcasts/s per process for
/// `dur_ns`.
fn bench_fig8(name: &str, n: usize, seed: u64, rate: f64, dur_ns: u64) -> WorkloadReport {
    let mut cfg = ClusterConfig::testbed(n);
    cfg.seed = seed;
    let mut cluster = Cluster::new(cfg);
    let wall = Instant::now();
    let m = run_onepipe_broadcast(&mut cluster, n, rate, dur_ns, false);
    let wall_s = wall.elapsed().as_secs_f64();
    WorkloadReport::of(name, &mut cluster, m.delivered, wall_s)
}

/// Incast: every process unicasts 256-byte messages to process 0.
fn bench_incast(smoke: bool) -> WorkloadReport {
    let n = 32;
    let mut cfg = ClusterConfig::testbed(n);
    cfg.seed = 43;
    let mut cluster = Cluster::new(cfg);
    let dur_ns: u64 = if smoke { 400_000 } else { 2_000_000 };
    let interval = 5_000u64; // each process sends every 5 µs
    let wall = Instant::now();
    cluster.run_for(100_000); // barrier warm-up
    let t0 = cluster.sim.now();
    let mut t = t0;
    let sink = ProcessId(0);
    while t < t0 + dur_ns {
        cluster.run_until(t);
        for p in 1..n as u32 {
            let _ = cluster.send(ProcessId(p), vec![Message::new(sink, vec![0u8; 256])], false);
        }
        t += interval;
    }
    cluster.run_for(2_000_000); // drain
    let wall_s = wall.elapsed().as_secs_f64();
    let deliveries = cluster.take_deliveries().len() as u64;
    WorkloadReport::of("incast", &mut cluster, deliveries, wall_s)
}

/// The barrier background alone: 32 processes, nobody sends. The run is
/// short (tens of milliseconds) and exactly repeatable, so it is made
/// five times and the fastest is reported: one descheduling would
/// otherwise double the figure.
fn bench_idle(smoke: bool) -> WorkloadReport {
    let run = || {
        let mut cfg = ClusterConfig::testbed(32);
        cfg.seed = 44;
        let mut cluster = Cluster::new(cfg);
        let wall = Instant::now();
        cluster.run_for(if smoke { 2_000_000 } else { 10_000_000 });
        let wall_s = wall.elapsed().as_secs_f64();
        let deliveries = cluster.take_deliveries().len() as u64;
        WorkloadReport::of("idle_32", &mut cluster, deliveries, wall_s)
    };
    let mut best = run();
    for _ in 1..5 {
        let again = run();
        assert_eq!(again.events, best.events, "an idle run repeats exactly");
        if again.wall_s < best.wall_s {
            best = again;
        }
    }
    best
}

/// `(events, deliveries, sim_ns)` of workload `name` in a committed
/// `BENCH_sim*.json` body (the format [`WorkloadReport::json`] writes).
fn baseline_canaries(body: &str, name: &str) -> Option<(u64, u64, u64)> {
    let start = body.find(&format!("\"{name}\": {{"))?;
    let entry = &body[start..start + body[start..].find('}')?];
    let field = |key: &str| -> Option<u64> {
        let key = format!("\"{key}\": ");
        let digits = &entry[entry.find(&key)? + key.len()..];
        digits[..digits.find(|c: char| !c.is_ascii_digit())?].parse().ok()
    };
    Some((field("events")?, field("deliveries")?, field("sim_ns")?))
}

/// Compare every report's determinism canaries with the committed
/// baseline; returns one line per difference.
fn check_against_baseline(reports: &[WorkloadReport], baseline: &str) -> Vec<String> {
    let mut diffs = Vec::new();
    for r in reports {
        let got = (r.events, r.deliveries, r.sim_ns);
        match baseline_canaries(baseline, &r.name) {
            Some(want) if want == got => {}
            Some(want) => diffs.push(format!(
                "{}: (events, deliveries, sim_ns) = {got:?}, baseline has {want:?}",
                r.name
            )),
            None => diffs.push(format!("{}: no baseline entry", r.name)),
        }
    }
    diffs
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let check = std::env::args().any(|a| a == "--check");
    let mode = if smoke { "smoke" } else { "full" };
    println!("perfbench ({mode} mode)");

    // 40 000 broadcasts/s per process among 32.
    let fig8_dur = if smoke { 400_000 } else { 2_000_000 };
    let mut reports = vec![
        bench_fig8("fig8_broadcast", 32, 42, 40_000.0, fig8_dur),
        bench_incast(smoke),
        bench_idle(smoke),
    ];
    if !smoke {
        // Seed, rate and window of `fig8_scalability`'s 128- and
        // 512-process rows.
        reports.push(bench_fig8("fig8_128", 128, 7, 20_000.0, 1_500_000));
        reports.push(bench_fig8("fig8_512", 512, 7, 2_000.0, 800_000));
    }
    for r in &reports {
        r.print();
    }

    let mut body = String::new();
    body.push_str("{\n");
    let _ = writeln!(body, "  \"generated_by\": \"perfbench\",");
    let _ = writeln!(body, "  \"mode\": \"{mode}\",");
    body.push_str("  \"workloads\": {\n");
    let entries: Vec<String> = reports.iter().map(|r| r.json()).collect();
    body.push_str(&entries.join(",\n"));
    body.push_str("\n  }\n}\n");

    // The bench crate lives at <root>/crates/bench.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join(if smoke { "BENCH_sim_smoke.json" } else { "BENCH_sim.json" });
    if check {
        let baseline = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("perfbench --check: cannot read {}: {e}", path.display()));
        let diffs = check_against_baseline(&reports, &baseline);
        if !diffs.is_empty() {
            eprintln!("perfbench --check: simulation behavior differs from {}:", path.display());
            for d in &diffs {
                eprintln!("  {d}");
            }
            std::process::exit(1);
        }
        println!("check: events, deliveries and sim_ns match {}", path.display());
    }
    match std::fs::write(&path, &body) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}
