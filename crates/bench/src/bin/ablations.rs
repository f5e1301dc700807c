//! Ablations of 1Pipe design choices (DESIGN.md §5).
//!
//! (a) Synchronized vs random beacon phase (§4.2 claims synchronized
//!     beacons halve the expected delay overhead).
//! (b) Beacon interval sweep: the delay/overhead trade-off.
//! (d) Scattering credit reservation vs all-or-nothing sending: large
//!     scatterings must not starve behind small ones (§6.1 live-lock
//!     avoidance); we show a large scattering completes under competing
//!     small traffic.
//! (e) In-network aggregation vs receiver-side (Lamport-style) exchange:
//!     same barrier computed at the edge costs O(N²) messages.
//!
//! Ablation (c) — the reorder buffer's key-ordered ring vs a BTreeMap — is
//! a criterion micro-benchmark (`cargo bench -p onepipe-bench`).

use onepipe_bench::{row, run_onepipe_unicast, us};
use onepipe_core::harness::{Cluster, ClusterConfig};
use onepipe_types::ids::ProcessId;
use onepipe_types::message::Message;

fn latency_with(sync_beacons: bool, interval_us: u64) -> f64 {
    let mut cfg = ClusterConfig::testbed(16);
    cfg.switch.synchronized_beacons = sync_beacons;
    cfg.switch.beacon_interval = interval_us * 1_000;
    cfg.seed = 55;
    let mut c = Cluster::new(cfg);
    let m = run_onepipe_unicast(&mut c, 16, 20_000, 2_000_000, false);
    us(m.latency.mean())
}

fn main() {
    println!("# Ablation (a): synchronized vs random beacon phase (BE latency, us)");
    row(&["interval_us".into(), "synchronized".into(), "random".into()]);
    for &i in &[3u64, 10, 30] {
        row(&[
            i.to_string(),
            format!("{:.1}", latency_with(true, i)),
            format!("{:.1}", latency_with(false, i)),
        ]);
    }

    println!("\n# Ablation (b): beacon interval sweep (BE latency us vs overhead %)");
    row(&["interval_us".into(), "latency_us".into(), "bw_overhead%".into()]);
    for &i in &[1u64, 3, 10, 30, 100] {
        let lat = latency_with(true, i);
        let bw = 84.0 * 8.0 / (i as f64 * 1_000.0) / 100e9 * 1e9 * 100.0;
        row(&[i.to_string(), format!("{lat:.1}"), format!("{bw:.3}")]);
    }

    println!("\n# Ablation (d): large scattering under competing small traffic");
    {
        let mut cfg = ClusterConfig::single_rack(8, 8);
        cfg.endpoint.initial_cwnd = 8; // tight windows: credits matter
        cfg.seed = 66;
        let mut c = Cluster::new(cfg);
        c.run_for(100_000);
        // p0 issues one large scattering (32 KB to each of 7 receivers =
        // 224 packets ≫ cwnd), then keeps issuing small unicasts that
        // must queue FIFO behind it without stealing its credits.
        let big: Vec<Message> =
            (1..8u32).map(|q| Message::new(ProcessId(q), vec![0u8; 32_768])).collect();
        c.send(ProcessId(0), big, true).unwrap();
        for _ in 0..50 {
            let _ = c.send(ProcessId(0), vec![Message::new(ProcessId(1), "small")], true);
        }
        c.run_for(5_000_000);
        let delivered = c.take_deliveries();
        let big_parts = delivered.iter().filter(|r| r.msg.payload.len() == 32_768).count();
        let small = delivered.iter().filter(|r| r.msg.payload.len() == 5).count();
        println!(
            "large scattering parts delivered: {big_parts}/7 (credit holding prevents starvation)"
        );
        println!("small messages delivered:         {small}/50");
    }

    println!("\n# Ablation (e): in-network aggregation vs receiver-side exchange");
    println!("# see fig8_scalability: the Lamport column computes the same barrier at");
    println!("# the edge; its status exchange costs O(N^2) messages per interval and its");
    println!("# latency is pinned above the exchange interval while 1Pipe rides beacons.");
}
