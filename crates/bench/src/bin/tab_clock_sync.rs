//! §7.1: clock synchronization quality.
//!
//! Reproduces the testbed's PTP numbers: "an average clock skew of 0.3 µs
//! (1.0 µs at 95% percentile)" with sync every 125 ms across 32 hosts.

use onepipe_clock::{ClockFleet, SyncDiscipline};
use onepipe_netsim::stats::Samples;
use onepipe_types::time::{MICROS, MILLIS};

fn main() {
    let mut fleet = ClockFleet::new(32, SyncDiscipline::default(), 2021);
    let instants: Vec<u64> = (1..=200).map(|k| k * 20 * MILLIS).collect();
    let mut skew_us = Samples::new();
    fleet.skew_samples(&instants).into_iter().for_each(|v| skew_us.push(v / MICROS as f64));
    println!("# §7.1 clock skew across 32 hosts, PTP every 125 ms");
    println!("samples:        {}", skew_us.len());
    println!("mean skew:      {:.2} us   (paper: 0.3 us)", skew_us.mean());
    println!("p95 skew:       {:.2} us   (paper: 1.0 us)", skew_us.percentile(0.95));
    println!("max skew:       {:.2} us", skew_us.max());
}
