//! The `chaos_sweep` and `log_chaos` command-line entry points, wrapped
//! by the root package's `src/bin/chaos_sweep.rs` and
//! `src/bin/log_chaos.rs`. Each parses its arguments (without the program
//! name), runs its campaign, prints the report and returns the process
//! exit code: 0 when every seed held, 1 when one failed, 2 (after a usage
//! line on stderr) on a bad argument.

use crate::log::{run_seed, LogChaosConfig};
use crate::runner::{run_campaign, CampaignConfig};
use onepipe_types::time::MICROS;
use std::path::PathBuf;

/// Run `chaos_sweep`: the seeded fault campaign on the 1Pipe cluster.
pub fn sweep_main(args: impl Iterator<Item = String>) -> i32 {
    const USAGE: &str = "chaos_sweep [--seeds N] [--single-rack] [--controller-faults] [--out DIR]";
    let mut seeds = 50u64;
    let mut single_rack = false;
    let mut controller_faults = false;
    let mut out_dir = PathBuf::from("results/chaos");
    let mut args = args;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => match number(&mut args, &a) {
                Ok(n) => seeds = n,
                Err(e) => return usage(USAGE, &e),
            },
            "--single-rack" => single_rack = true,
            "--controller-faults" => controller_faults = true,
            "--out" => match args.next() {
                Some(p) => out_dir = PathBuf::from(p),
                None => return usage(USAGE, "--out takes a path"),
            },
            other => return usage(USAGE, &format!("unknown argument: {other}")),
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

/// Run `log_chaos`: kill a shard server's host mid-append across seeded
/// runs of the log service, and check that no tenant ever observes a
/// per-client sequence gap, reorder or duplicate, and that recovery
/// completed (all batches acked, all subscribers caught up).
pub fn log_main(args: impl Iterator<Item = String>) -> i32 {
    const USAGE: &str = "log_chaos [--seeds N] [--first-seed N]";
    let mut seeds = 10u64;
    let mut first_seed = 1u64;
    let mut args = args;
    while let Some(a) = args.next() {
        let slot = match a.as_str() {
            "--seeds" => &mut seeds,
            "--first-seed" => &mut first_seed,
            other => return usage(USAGE, &format!("unknown argument: {other}")),
        };
        match number(&mut args, &a) {
            Ok(n) => *slot = n,
            Err(e) => return usage(USAGE, &e),
        }
    }

    let cfg = LogChaosConfig::default();
    println!(
        "# log chaos: {} seeds, {} shards x {} clients x {} subs, {} streams, \
         shard-host crash in [{}us, {}us)",
        seeds,
        cfg.log.n_shards,
        cfg.log.n_clients,
        cfg.log.n_subs,
        cfg.log.n_streams,
        cfg.warmup / 1_000,
        (cfg.warmup + cfg.fault_window) / 1_000,
    );
    let mut failing = Vec::new();
    for seed in first_seed..first_seed + seeds {
        let out = run_seed(&cfg, seed);
        let verdict = if out.ok() { "ok" } else { "FAIL" };
        println!(
            "seed {:>3}: {}  victim shard {} at {:>7}ns  {:>5} acked  {:>5} sub records  \
             {} unacked  {} lagging  {} violations",
            out.seed,
            verdict,
            out.victim_shard,
            out.crash_at,
            out.acked,
            out.sub_records,
            out.unacked_left,
            out.lagging_subs,
            out.violations.len(),
        );
        if let Some(v) = out.violations.first() {
            println!("          first violation: {v}");
        }
        if !out.ok() {
            failing.push(out.seed);
        }
    }
    if failing.is_empty() {
        println!("all {seeds} seeds clean: per-client order held through shard crashes");
        0
    } else {
        println!("{} failing seed(s): {failing:?}", failing.len());
        1
    }
}

/// The number after `flag`, or the error its usage line reports.
fn number(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<u64, String> {
    args.next().and_then(|v| v.parse().ok()).ok_or_else(|| format!("{flag} takes a number"))
}

fn usage(usage: &str, err: &str) -> i32 {
    eprintln!("{err}");
    eprintln!("usage: {usage}");
    2
}
