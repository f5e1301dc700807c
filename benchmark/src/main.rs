//! The repository's benchmark: four workloads, end-to-end metrics from an
//! untraced run, per-layer metrics from a traced run, outputs checked.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one workload, one process
//! run.sh [--seed N] [--seconds S] [--traced]             every workload in turn
//! run.sh --check-repeat                                  the full set twice, compared
//! ```
//!
//! The last line of a single-workload run is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. The exit code is
//! non-zero when an output check failed.

mod check;
mod gen;
mod metrics;
mod stats;
mod sut;
mod sys;
mod trace;
mod workloads;

use metrics::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
[--traced] [--check-repeat] [--out DIR]\nworkloads: sim_be_scatter sim_rel_loss sim_log_tenants \
udp_rel_window";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    traced: bool,
    check_repeat: bool,
    out: PathBuf,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        traced: false,
        check_repeat: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => cli.out = PathBuf::from(value()?),
            "--traced" => cli.traced = true,
            "--check-repeat" => cli.check_repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(cli.seconds.is_finite() && cli.seconds >= 1.0 && cli.seconds <= 60.0) {
        return Err(format!("--seconds must be between 1 and 60, not {}", cli.seconds));
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &cli.workload {
        Some(w) => run_one(w, &cli, started),
        None if cli.check_repeat => check_repeat(&cli),
        None => match run_set(&cli, cli.traced) {
            Some(_) => ExitCode::SUCCESS,
            None => ExitCode::FAILURE,
        },
    }
}

// ---------------------------------------------------------------------
// One workload in this process
// ---------------------------------------------------------------------

fn run_one(workload: &str, cli: &Cli, started: Instant) -> ExitCode {
    let args = workloads::Args {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        started,
        trace_path: cli.out.join(format!("trace_{workload}.jsonl")),
    };
    let Some(mut outcome) = workloads::run(workload, &args) else {
        eprintln!("unknown workload {workload}\n{USAGE}");
        return ExitCode::from(2);
    };
    println!(
        "workload {workload}  seed {}  seconds {}  trace {}  cores {}",
        cli.seed,
        cli.seconds,
        cli.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    if !cli.trace {
        let unset = outcome.metrics.unset();
        if !unset.is_empty() {
            outcome.failures.push(format!("end-to-end metrics not measured: {unset:?}"));
        }
    }
    let mut fields = Vec::new();
    for (m, v) in outcome.metrics.iter() {
        println!("  {:<36} {:>16.4} {:<6} ({} is better)", m.name, v, m.unit, m.better);
        if !v.is_finite() {
            outcome.failures.push(format!("{} is not a finite number: {v}", m.name));
        }
        let v = if v.is_finite() { v } else { 0.0 };
        fields.push(format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit));
    }
    for f in &outcome.failures {
        println!("CHECK FAILED: {f}");
    }
    let correct = outcome.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------
// Every workload, one child process each
// ---------------------------------------------------------------------

/// `(workload, metric) → value` for one pass over the set.
type Table = BTreeMap<(String, String), f64>;

/// Pull `correct` and the metric values out of a result line. The line is
/// one we printed, so its shape is known.
fn parse_result(line: &str) -> Option<(bool, Vec<(String, f64)>)> {
    let correct = line.contains("\"correct\": true");
    let body = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
    let mut out = Vec::new();
    for entry in body.split("}, ") {
        let name_start = entry.find('"')? + 1;
        let name_end = name_start + entry[name_start..].find('"')?;
        let value_start = entry.find("\"value\": ")? + "\"value\": ".len();
        let value_end = value_start + entry[value_start..].find(',')?;
        out.push((
            entry[name_start..name_end].to_string(),
            entry[value_start..value_end].parse().ok()?,
        ));
    }
    Some((correct, out))
}

/// Run one workload in a child process, echo its output, and return its
/// metrics; `None` if it failed its checks or printed no result.
fn run_child(workload: &str, cli: &Cli, trace: bool) -> Option<Vec<(String, f64)>> {
    let exe = std::env::current_exe().expect("own path");
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&cli.out)
        .output()
        .expect("spawn a child benchmark process");
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let (correct, metrics) = parse_result(stdout.lines().last()?)?;
    (correct && output.status.success()).then_some(metrics)
}

/// One pass over the four workloads (untraced, then traced if asked).
fn run_set(cli: &Cli, traced: bool) -> Option<Table> {
    let mut table = Table::new();
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            if trace && !traced {
                continue;
            }
            match run_child(workload, cli, trace) {
                Some(metrics) => {
                    for (name, v) in metrics {
                        table.insert((workload.to_string(), name), v);
                    }
                }
                None => {
                    println!("{workload} (trace {}) FAILED", trace as u8);
                    ok = false;
                }
            }
        }
    }
    println!("\nsummary, seed {} ({} s per workload):", cli.seed, cli.seconds);
    print_table(&table, END_TO_END);
    if traced {
        print_table(&table, PER_LAYER);
    }
    ok.then_some(table)
}

fn print_table(table: &Table, metrics: &[Metric]) {
    print!("{:<34}", "");
    for w in WORKLOADS {
        print!(" {w:>16}");
    }
    println!();
    for m in metrics {
        print!("{:<34}", format!("{} [{}]", m.name, m.unit));
        for w in WORKLOADS {
            match table.get(&(w.to_string(), m.name.to_string())) {
                Some(v) => print!(" {v:>16.4}"),
                None => print!(" {:>16}", "-"),
            }
        }
        println!();
    }
}

/// Run the full set twice. Every end-to-end metric must agree within its
/// bound; everything on the simulator's clock, and every exact counter,
/// must be identical.
fn check_repeat(cli: &Cli) -> ExitCode {
    let (Some(a), Some(b)) = (run_set(cli, true), run_set(cli, true)) else {
        println!("check-repeat: a run failed its own checks");
        return ExitCode::FAILURE;
    };
    let mut bad = 0;
    for w in WORKLOADS {
        let sim = w.starts_with("sim_");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let key = (w.to_string(), m.name.to_string());
            let (Some(&x), Some(&y)) = (a.get(&key), b.get(&key)) else {
                println!("check-repeat: {w} {} missing from a run", m.name);
                bad += 1;
                continue;
            };
            let verdict = if sim && m.exact_on_sim {
                (x == y).then_some("identical")
            } else if m.bound > 0.0 {
                let spread = (x - y).abs() / x.abs().max(y.abs()).max(f64::MIN_POSITIVE);
                (spread <= m.bound).then_some("within bound")
            } else {
                continue; // a per-layer timing: reported, not gated
            };
            if verdict.is_none() {
                println!("check-repeat: {w} {} disagrees: {x} vs {y} (bound {})", m.name, m.bound);
                bad += 1;
            }
        }
    }
    if bad == 0 {
        println!("check-repeat: both runs agree");
        ExitCode::SUCCESS
    } else {
        println!("check-repeat: {bad} disagreements");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn result_line_round_trips() {
        let line = "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
\"a.b\": {\"value\": 1.5, \"unit\": \"us\"}, \"c\": {\"value\": 0.000012, \"unit\": \"ops/s\"}}}";
        let (correct, metrics) = super::parse_result(line).expect("parses");
        assert!(correct);
        assert_eq!(metrics, vec![("a.b".to_string(), 1.5), ("c".to_string(), 0.000012)]);
        assert!(!super::parse_result(&line.replace("true", "false")).expect("parses").0);
        assert!(super::parse_result("no result here").is_none());
    }
}
