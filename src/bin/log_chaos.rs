//! Log-service chaos campaign: kill a shard server's host mid-append
//! across seeded runs and check that no tenant ever observes a
//! per-client sequence gap, reorder, or duplicate — and that recovery
//! actually completed (all batches acked, all subscribers caught up).
//!
//! ```text
//! cargo run --release --bin log_chaos -- --seeds 10
//! ```

fn main() {
    std::process::exit(onepipe::chaos::cli::log_main(std::env::args().skip(1)));
}
