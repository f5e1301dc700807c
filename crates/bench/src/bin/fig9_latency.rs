//! Figure 9: message delivery latency of 1Pipe variants.
//!
//! (a) Idle-system delivery latency (mean, p5, p95) for best-effort and
//!     reliable 1Pipe under the programmable-chip and host-delegation
//!     incarnations, against an unordered baseline, as the process count
//!     (and hence hop count) grows.
//! (b) Mean latency under receiver-side random message drop, reproducing
//!     the paper's loss simulation ("we simulate random message drop in
//!     lib1pipe receiver").

use onepipe_bench::{full_mode, row, run_onepipe_unicast, us};
use onepipe_core::config::EndpointConfig;
use onepipe_core::harness::{Cluster, ClusterConfig};
use onepipe_switchlogic::switch::Incarnation;

fn cluster(n: usize, incarnation: Incarnation, unordered: bool, drop: f64) -> Cluster {
    let mut cfg = if n <= 8 {
        ClusterConfig::single_rack(n.max(2) as u32, n)
    } else {
        ClusterConfig::testbed(n)
    };
    cfg.switch.incarnation = incarnation;
    let mut e = EndpointConfig::default();
    if unordered {
        e = e.unordered();
    }
    e.rx_drop_rate = drop;
    cfg.endpoint = e;
    cfg.seed = 42;
    Cluster::new(cfg)
}

fn run(
    n: usize,
    incarnation: Incarnation,
    unordered: bool,
    reliable: bool,
    drop: f64,
) -> (f64, f64, f64) {
    // Loss is injected at the links: dropped beacons stall barriers (hitting
    // best-effort latency) and dropped Prepare packets force retransmission
    // RTTs (hitting reliable latency harder) — the two mechanisms §7.2
    // discusses.
    let mut c = cluster(n, incarnation, unordered, 0.0);
    c.sim.set_global_loss_rate(drop);
    // Idle system: 1 message per process every 20 µs.
    let m = run_onepipe_unicast(&mut c, n, 20_000, 2_000_000, reliable);
    (us(m.latency.mean()), us(m.latency.percentile(0.05)), us(m.latency.percentile(0.95)))
}

fn main() {
    let chip = Incarnation::Chip;
    let host = Incarnation::testbed_host_delegate();
    println!("# Figure 9a: delivery latency on an idle system (us: mean [p5 p95])");
    row(&[
        "procs".into(),
        "BE-chip".into(),
        "BE-host".into(),
        "R-chip".into(),
        "R-host".into(),
        "unorder".into(),
    ]);
    // --full sweeps to the paper's 512 processes (16 per testbed host);
    // hop count — and hence idle latency — stops growing past 32 because
    // the fat-tree depth is fixed, which is the shape under test.
    let sizes: Vec<usize> =
        if full_mode() { vec![8, 16, 32, 64, 128, 512] } else { vec![8, 16, 32] };
    for &n in &sizes {
        let be_chip = run(n, chip, false, false, 0.0);
        let be_host = run(n, host, false, false, 0.0);
        let r_chip = run(n, chip, false, true, 0.0);
        let r_host = run(n, host, false, true, 0.0);
        let un = run(n, chip, true, false, 0.0);
        let fmt = |t: (f64, f64, f64)| format!("{:.1}[{:.0},{:.0}]", t.0, t.1, t.2);
        row(&[n.to_string(), fmt(be_chip), fmt(be_host), fmt(r_chip), fmt(r_host), fmt(un)]);
    }

    println!("\n# Figure 9b: mean latency (us) vs link packet loss probability (32 procs)");
    row(&[
        "loss".into(),
        "BE-chip".into(),
        "BE-host".into(),
        "R-chip".into(),
        "R-host".into(),
        "unorder".into(),
    ]);
    let rates: Vec<f64> = if full_mode() {
        vec![1e-8, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1]
    } else {
        vec![1e-8, 1e-5, 1e-3, 1e-2, 1e-1]
    };
    for &drop in &rates {
        let be_chip = run(32, chip, false, false, drop);
        let be_host = run(32, host, false, false, drop);
        let r_chip = run(32, chip, false, true, drop);
        let r_host = run(32, host, false, true, drop);
        let un = run(32, chip, true, false, drop);
        row(&[
            format!("{drop:.0e}"),
            format!("{:.1}", be_chip.0),
            format!("{:.1}", be_host.0),
            format!("{:.1}", r_chip.0),
            format!("{:.1}", r_host.0),
            format!("{:.1}", un.0),
        ]);
    }
}
