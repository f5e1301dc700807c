//! Figure 8: scalability comparison of total order broadcast algorithms.
//!
//! Reproduces both panels — (a) throughput per process and (b) delivery
//! latency — for six schemes: 1Pipe best-effort, 1Pipe reliable, a
//! programmable-switch sequencer, a host sequencer, a token ring, and
//! Lamport timestamps with interval exchange. Tables (c) and (d) add the
//! packets each run's network dropped and ECN-marked.
//!
//! Offered load is scaled down from the paper's hardware rates (see the
//! crate docs); the claims under test are the *shapes*: 1Pipe sustains the
//! offered per-process rate as N grows, sequencers collapse like 1/N past
//! their service capacity, the token ring collapses fastest, and Lamport
//! trades latency for its O(N²) exchange overhead.

use onepipe_baselines::lamport::LamportHost;
use onepipe_baselines::sequencer::{SeqHost, SeqKind};
use onepipe_baselines::token::TokenHost;
use onepipe_baselines::{world, HostBase, RunMetrics};
use onepipe_bench::{cluster_for, full_mode, row, run_onepipe_broadcast};
use onepipe_netsim::engine::NodeLogic;
use onepipe_netsim::stats::Stats;
use onepipe_types::ids::ProcessId;

/// Run one baseline, built by `make` on every host, for `dur` ns and
/// measure its last four fifths; with the engine's counters of the whole
/// run.
fn baseline<H: NodeLogic + 'static>(
    n: usize,
    seed: u64,
    rate: f64,
    dur: u64,
    make: impl FnMut(HostBase) -> H,
) -> (RunMetrics, Stats) {
    let (mut sim, probe) = world(n, seed, rate, u64::MAX, make);
    sim.run_until(dur);
    let m = probe.lock().unwrap().metrics(n, dur / 5, dur);
    (m, sim.stats)
}

fn main() {
    // Offered broadcast rate per process, scaled for simulation; the
    // sweep keeps the load per *network* roughly constant so big-N runs
    // stay tractable.
    // The 1Pipe variants sweep to the paper's full 512 processes (16 per
    // host on the 32-host testbed). Baselines stop at 64: past that the
    // token ring's O(N) rotation and Lamport's O(N²) interval exchange
    // make the discrete-event replay intractable, and the paper's own
    // 128-512-process points are 1Pipe-only.
    let sizes: Vec<usize> = if full_mode() {
        vec![2, 4, 8, 16, 32, 64, 128, 256, 512]
    } else {
        vec![2, 4, 8, 16, 32, 512]
    };
    println!("# Figure 8: total order broadcast scalability");
    println!("# tput: delivered broadcasts per second per process (M/s)");
    println!("# lat:  mean delivery latency (us)");
    row(&[
        "procs".into(),
        "1Pipe/BE".into(),
        "1Pipe/R".into(),
        "SwitchSeq".into(),
        "HostSeq".into(),
        "Token".into(),
        "Lamport".into(),
    ]);
    let mut tput_rows = Vec::new();
    let mut lat_rows = Vec::new();
    let mut drop_rows = Vec::new();
    let mut mark_rows = Vec::new();
    let mut violations = 0;
    for &n in &sizes {
        // Constant per-process offered rate (the paper's setup, scaled
        // down ~50× from 5 M/s): the sequencers and the token ring
        // saturate as N grows while 1Pipe keeps serving the offered rate.
        // Past 64 processes the per-process rate and window shrink so the
        // aggregate all-to-all message count stays simulation-tractable.
        let (rate, dur) = match n {
            0..=32 => (100_000.0, 3_000_000),
            64 => (50_000.0, 3_000_000),
            128 => (20_000.0, 1_500_000),
            256 => (10_000.0, 1_500_000),
            _ => (2_000.0, 800_000),
        };
        let onepipe = |reliable| {
            let mut cluster = cluster_for(n, 7);
            let m = run_onepipe_broadcast(&mut cluster, n, rate, dur, reliable);
            (m, cluster.sim.stats)
        };
        let mut runs = vec![onepipe(false), onepipe(true)];
        // Past 64 processes the rows are 1Pipe-only (see the sweep note above).
        if n <= 64 {
            for kind in [SeqKind::Switch, SeqKind::Host] {
                runs.push(baseline(n, 8, rate, dur, |b| SeqHost::new(b, ProcessId(0), kind)));
            }
            runs.push(baseline(n, 9, rate, dur, |b| TokenHost::new(b, 8)));
            runs.push(baseline(n, 10, rate, dur, |b| LamportHost::new(b, 10_000)));
        }
        violations += runs.iter().map(|(m, _)| m.order_violations).sum::<u64>();
        let cells = |cell: fn(&(RunMetrics, Stats)) -> String| {
            let mut r: Vec<String> = vec![n.to_string()];
            r.extend(runs.iter().map(cell));
            r.resize(7, "-".into());
            r
        };
        tput_rows.push(cells(|(m, _)| format!("{:.3}", m.mtput())));
        lat_rows.push(cells(|(m, _)| format!("{:.1}", m.mean_latency_us())));
        drop_rows.push(cells(|(_, s)| s.packet_drops().to_string()));
        mark_rows.push(cells(|(_, s)| s.ecn_marks.to_string()));
    }
    println!("\n## (a) Throughput per process (M msg/s) at constant offered load");
    tput_rows.iter().for_each(|r| row(r));
    println!("\n## (b) Mean delivery latency (us)");
    lat_rows.iter().for_each(|r| row(r));
    println!("\n## (c) Packets dropped by the network (whole run)");
    drop_rows.iter().for_each(|r| row(r));
    println!("\n## (d) Packets ECN-marked by the network (whole run)");
    mark_rows.iter().for_each(|r| row(r));
    if violations > 0 {
        eprintln!("fig8: baseline runs delivered {violations} message(s) out of total order");
        std::process::exit(1);
    }
}
