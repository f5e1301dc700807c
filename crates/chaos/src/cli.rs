//! The `chaos_sweep` command-line entry point, wrapped by the root
//! package's `src/bin/chaos_sweep.rs`.

use crate::runner::{run_campaign, CampaignConfig};
use onepipe_types::time::MICROS;
use std::path::PathBuf;

/// Parse `args` (without the program name), run the sweep, print the
/// report, and return the process exit code (0 = all invariants held).
pub fn sweep_main(args: impl Iterator<Item = String>) -> i32 {
    let mut seeds = 50u64;
    let mut single_rack = false;
    let mut controller_faults = false;
    let mut out_dir = PathBuf::from("results/chaos");
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => {
                seeds = match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) => n,
                    None => return usage("--seeds takes a number"),
                };
            }
            "--single-rack" => single_rack = true,
            "--controller-faults" => controller_faults = true,
            "--out" => {
                out_dir = match args.next() {
                    Some(p) => PathBuf::from(p),
                    None => return usage("--out takes a path"),
                };
            }
            other => return usage(&format!("unknown argument: {other}")),
        }
    }

    let mut cfg =
        if single_rack { CampaignConfig::single_rack(8, 8) } else { CampaignConfig::testbed() };
    if controller_faults {
        cfg.budget = cfg.budget.with_controller_faults();
        // Controller failover adds an election (~10 management RTTs) plus
        // a full re-drive to the recovery path; give the drain head-room
        // so liveness is judged on a settled cluster.
        cfg.drain = cfg.drain.max(1_500 * MICROS);
    }
    println!(
        "# chaos sweep: {} seeds on {} ({} hosts, {} processes{})",
        seeds,
        if single_rack { "single rack" } else { "fat-tree testbed" },
        cfg.cluster.topo.total_hosts(),
        cfg.cluster.processes,
        if controller_faults { ", controller faults on" } else { "" },
    );
    let report = run_campaign(&cfg, seeds, Some(&out_dir));
    print!("{}", report.render());
    let failing = report.failing_seeds();
    if failing.is_empty() {
        println!("all invariants held across {seeds} seeds");
        0
    } else {
        println!(
            "{} failing seed(s): {:?} — minimized repros in {}",
            failing.len(),
            failing,
            out_dir.display()
        );
        1
    }
}

fn usage(err: &str) -> i32 {
    eprintln!("{err}");
    eprintln!("usage: chaos_sweep [--seeds N] [--single-rack] [--controller-faults] [--out DIR]");
    2
}
