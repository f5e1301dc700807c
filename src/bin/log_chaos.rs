//! Log-service chaos campaign: kill a shard server's host mid-append
//! across seeded runs and check that no tenant ever observes a
//! per-client sequence gap, reorder, or duplicate — and that recovery
//! actually completed (all batches acked, all subscribers caught up).
//!
//! ```text
//! cargo run --release --bin log_chaos -- --seeds 10
//! ```

use onepipe::chaos::log::{run_seed, LogChaosConfig};

fn main() {
    std::process::exit(real_main(std::env::args().skip(1)));
}

fn real_main(args: impl Iterator<Item = String>) -> i32 {
    let mut seeds = 10u64;
    let mut first_seed = 1u64;
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => {
                seeds = match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) => n,
                    None => return usage("--seeds takes a number"),
                };
            }
            "--first-seed" => {
                first_seed = match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) => n,
                    None => return usage("--first-seed takes a number"),
                };
            }
            other => return usage(&format!("unknown argument: {other}")),
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

fn usage(err: &str) -> i32 {
    eprintln!("{err}");
    eprintln!("usage: log_chaos [--seeds N] [--first-seed N]");
    2
}
