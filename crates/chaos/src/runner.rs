//! Campaign runner: seeded workload + fault schedule + oracle.
//!
//! One *campaign* is a sweep of seeds. Each seed deterministically derives
//! a fault schedule (from the topology and a [`FaultBudget`]) and a
//! workload (random scatterings among all processes), runs them against a
//! fresh cluster in steps of the send interval, and after every step feeds
//! an [`Oracle`] what the cluster recorded — deliveries, user events,
//! controller actions — plus one barrier snapshot per endpoint; it reports
//! the first invariant violation if any. Failing seeds are minimized with
//! [`shrink`] and written to `results/chaos/` for replay.

use crate::oracle::{Oracle, Violation};
use crate::schedule::{processes_on_hosts, Fault, FaultBudget, FaultSchedule};
use crate::shrink::shrink;
use onepipe_core::harness::{Cluster, ClusterConfig};
use onepipe_core::simhost::DeliveryRecord;
use onepipe_types::ids::{HostId, ProcessId};
use onepipe_types::message::Message;
use onepipe_types::time::MICROS;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// Everything one campaign run needs besides the seed.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Cluster under test. Its `seed` is replaced per campaign seed.
    pub cluster: ClusterConfig,
    /// Fault-rate budget for generated schedules.
    pub budget: FaultBudget,
    /// Fault- and traffic-free lead-in so barriers start flowing, ns.
    pub warmup: u64,
    /// Window during which faults are injected and traffic flows, ns.
    pub fault_window: u64,
    /// Extra quiet time after the last fault effect ends, so in-flight
    /// scatterings commit or recall before atomicity is judged, ns.
    pub drain: u64,
    /// Spacing of workload send rounds, ns — also the step at which the
    /// oracle is fed, through the drain too.
    pub send_interval: u64,
    /// Scatterings issued per send round.
    pub sends_per_round: usize,
    /// Maximum receivers per scattering (each receiver at most once).
    pub scatter_width: usize,
    /// Probability a scattering uses the reliable channel.
    pub reliable_prob: f64,
}

impl CampaignConfig {
    /// Campaign on the paper's 32-server fat-tree testbed.
    pub fn testbed() -> Self {
        CampaignConfig {
            cluster: ClusterConfig::testbed(32),
            budget: FaultBudget::default(),
            warmup: 100 * MICROS,
            fault_window: 1_000 * MICROS,
            drain: 800 * MICROS,
            send_interval: 10 * MICROS,
            sends_per_round: 2,
            scatter_width: 3,
            reliable_prob: 0.5,
        }
    }

    /// Campaign on a single rack (transient faults only — a ToR crash
    /// would take every process down).
    pub fn single_rack(hosts: u32, processes: usize) -> Self {
        CampaignConfig {
            cluster: ClusterConfig::single_rack(hosts, processes),
            budget: FaultBudget::transient_only(),
            ..Self::testbed()
        }
    }
}

/// Result of one seed.
#[derive(Clone, Debug)]
pub struct SeedOutcome {
    /// The campaign seed.
    pub seed: u64,
    /// The fault schedule that ran (generated or explicit).
    pub schedule: FaultSchedule,
    /// First invariant violation, if the oracle fired.
    pub violation: Option<Violation>,
    /// Scatterings successfully issued by the workload.
    pub sends: u64,
    /// Total deliveries observed across the cluster.
    pub deliveries: usize,
    /// Faults the engine actually executed (crashes, link transitions,
    /// loss mutations, controller faults) — cross-check against the
    /// schedule length.
    pub faults_injected: u64,
    /// Controller leader elections observed (initial election included);
    /// `>= 2` whenever a leader crash or partition forced a failover.
    pub ctrl_elections: u64,
    /// Canonical rendering of every delivery across the cluster, one line
    /// per delivery in delivery order. Byte-identical across replays of
    /// the same `(cfg, seed, schedule)`; the engine-determinism regression
    /// test diffs this against a recorded golden log.
    pub delivery_log: String,
}

/// A whole campaign's outcomes plus any minimized repros.
#[derive(Debug, Default)]
pub struct CampaignReport {
    /// Per-seed outcomes, in seed order.
    pub outcomes: Vec<SeedOutcome>,
    /// `(seed, minimized schedule)` for every failing seed.
    pub minimized: Vec<(u64, FaultSchedule)>,
}

impl CampaignReport {
    /// Seeds whose oracle fired.
    pub fn failing_seeds(&self) -> Vec<u64> {
        self.outcomes.iter().filter(|o| o.violation.is_some()).map(|o| o.seed).collect()
    }

    /// Human-readable summary table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let mut faults = 0u64;
        let mut sends = 0u64;
        let mut deliveries = 0usize;
        for o in &self.outcomes {
            faults += o.faults_injected;
            sends += o.sends;
            deliveries += o.deliveries;
            let status = match &o.violation {
                None => "ok".to_string(),
                Some(v) => format!("VIOLATION {v}"),
            };
            s.push_str(&format!(
                "seed {:>4}: {:>2} faults scheduled, {:>3} executed, {:>5} sends, {:>6} deliveries — {}\n",
                o.seed,
                o.schedule.len(),
                o.faults_injected,
                o.sends,
                o.deliveries,
                status
            ));
        }
        s.push_str(&format!(
            "total: {} seeds, {} failing, {} faults executed, {} sends, {} deliveries\n",
            self.outcomes.len(),
            self.failing_seeds().len(),
            faults,
            sends,
            deliveries
        ));
        s
    }
}

/// Run one seed with an explicit fault schedule (the replay/shrink entry
/// point). Deterministic: same `(cfg, seed, schedule)` — same outcome.
pub fn run_with_schedule(cfg: &CampaignConfig, seed: u64, schedule: &FaultSchedule) -> SeedOutcome {
    let mut ccfg = cfg.cluster.clone();
    ccfg.seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(2021);
    let n_procs = ccfg.processes as u32;
    assert!(n_procs >= 2, "campaigns need at least two processes");
    let mut c = Cluster::new(ccfg);
    let mut oracle = Oracle::new();
    let mut records = Vec::new();
    let runtime = schedule.apply(&mut c);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0C4A_0517);

    c.run_until(cfg.warmup);
    feed(&mut c, &mut oracle, &mut records);
    let t_stop = cfg.warmup + cfg.fault_window;
    let mut sends = 0u64;
    let mut rt_idx = 0;
    let mut t = cfg.warmup;
    while t < t_stop {
        t += cfg.send_interval;
        c.run_until(t);
        feed(&mut c, &mut oracle, &mut records);
        // Runtime faults (clock skews) due by now.
        while rt_idx < runtime.len() && runtime[rt_idx].at <= t {
            FaultSchedule::apply_runtime(&mut c, &runtime[rt_idx]);
            rt_idx += 1;
        }
        for _ in 0..cfg.sends_per_round {
            let from = ProcessId(rng.random_range(0..n_procs));
            let width = 1 + rng.random_range(0..cfg.scatter_width.max(1)) as u64 as usize;
            let mut dsts: Vec<ProcessId> = Vec::with_capacity(width);
            for _ in 0..4 * width {
                if dsts.len() == width || dsts.len() + 1 >= n_procs as usize {
                    break;
                }
                let d = ProcessId(rng.random_range(0..n_procs));
                if d != from && !dsts.contains(&d) {
                    dsts.push(d);
                }
            }
            if dsts.is_empty() {
                continue;
            }
            let reliable = rng.random_bool(cfg.reliable_prob);
            let msgs: Vec<Message> =
                dsts.iter().map(|&d| Message::new(d, format!("s{seed}-{sends}"))).collect();
            // Sends from crashed hosts fail; that is part of the chaos.
            if let Ok((ts, seq)) = c.send_traced(from, msgs, reliable) {
                oracle.register_send(c.sim.now(), from, seq, ts, dsts, reliable);
                sends += 1;
            }
        }
    }
    // Drain: past the last fault effect, then quiet time for commits,
    // recalls and controller announcements to settle.
    let end = schedule.quiesce_time().max(t_stop) + cfg.drain;
    while t < end {
        t = (t + cfg.send_interval).min(end);
        c.run_until(t);
        feed(&mut c, &mut oracle, &mut records);
    }
    // Failed = genuinely crashed (from the schedule) ∪ declared failed by
    // the controller (a >30 µs link flap falsely accuses a live host, and
    // failure semantics follow the declaration — §5.2).
    let mut failed = processes_on_hosts(&c, &schedule.crashed_hosts(&c.config.topo));
    for (p, _) in c.failed_processes() {
        if !failed.contains(&p) {
            failed.push(p);
        }
    }
    // Recovery liveness is only judged when the schedule attacked the
    // controller: that is the campaign whose acceptance is "failover
    // re-drives and the reliable channel never hangs". (Controller-free
    // schedules already catch hangs indirectly via atomicity.)
    let ctrl_faults = schedule.events.iter().any(|e| {
        matches!(e.fault, Fault::ControllerCrash { .. } | Fault::ControllerPartition { .. })
    });
    if ctrl_faults {
        oracle.check_recovery_liveness(c.sim.now(), c.controller_pending().len());
    }
    oracle.finalize(c.sim.now(), &failed);
    SeedOutcome {
        seed,
        schedule: schedule.clone(),
        violation: oracle.first_violation().cloned(),
        sends,
        deliveries: records.len(),
        faults_injected: c.sim.stats.faults_injected(),
        ctrl_elections: c.sim.stats.ctrl_elections,
        delivery_log: render_delivery_log(&records),
    }
}

/// Feed `oracle` what `c` recorded since the last step — deliveries (also
/// kept in `records` for the replay log), user events and controller
/// actions — and one barrier snapshot per live endpoint.
fn feed(c: &mut Cluster, oracle: &mut Oracle, records: &mut Vec<DeliveryRecord>) {
    let deliveries = c.take_deliveries();
    for rec in &deliveries {
        oracle.on_delivery(rec);
    }
    records.extend(deliveries);
    for (at, proc, ev) in c.take_user_events() {
        oracle.on_user_event(at, proc, &ev);
    }
    for (at, epoch, action) in c.take_ctrl_actions() {
        oracle.on_ctrl_action(at, epoch, &action);
    }
    let now = c.sim.now();
    for h in 0..c.topo.num_hosts() {
        c.with_host(HostId(h as u32), |hl, _| {
            for e in &hl.endpoints {
                let (be, commit) = e.barriers();
                oracle.on_barrier_sample(now, e.id(), be, commit);
            }
        });
    }
}

/// Render a cluster's delivery records as one canonical line each:
/// `at=<ns> rx=<proc> src=<proc> seq=<n> ts=<raw> len=<bytes> rel=<0|1>`.
fn render_delivery_log(records: &[DeliveryRecord]) -> String {
    let mut s = String::with_capacity(records.len() * 48);
    for r in records {
        use std::fmt::Write;
        let _ = writeln!(
            s,
            "at={} rx={} src={} seq={} ts={} len={} rel={}",
            r.at,
            r.receiver.0,
            r.msg.src.0,
            r.msg.seq,
            r.msg.ts.raw(),
            r.msg.payload.len(),
            r.reliable as u8,
        );
    }
    s
}

/// Run seeds `0..n_seeds`, generating each schedule from the seed and the
/// configured budget. Failing seeds are re-run under the shrinker; if
/// `out_dir` is given, a replayable repro file is written per failure.
pub fn run_campaign(cfg: &CampaignConfig, n_seeds: u64, out_dir: Option<&Path>) -> CampaignReport {
    let mut report = CampaignReport::default();
    for seed in 0..n_seeds {
        let schedule = FaultSchedule::generate(
            seed,
            cfg.warmup,
            cfg.fault_window,
            &cfg.cluster.topo,
            &cfg.budget,
        );
        let outcome = run_with_schedule(cfg, seed, &schedule);
        if outcome.violation.is_some() {
            let minimized =
                shrink(&schedule, |s| run_with_schedule(cfg, seed, s).violation.is_some());
            if let Some(dir) = out_dir {
                write_repro(dir, seed, &outcome, &minimized);
            }
            report.minimized.push((seed, minimized));
        }
        report.outcomes.push(outcome);
    }
    report
}

/// Write one failing seed's repro: the violation, the original schedule
/// and the minimized one. Errors are reported but not fatal — losing a
/// repro file must not abort the sweep.
fn write_repro(dir: &Path, seed: u64, outcome: &SeedOutcome, minimized: &FaultSchedule) {
    let body = format!(
        "# chaos repro — seed {seed}\n\
         # replay: run_with_schedule(cfg, {seed}, schedule)\n\n\
         violation:\n{v}\n\n\
         original schedule ({n} events):\n{orig}\n\
         minimized schedule ({m} events):\n{min}",
        v = outcome.violation.as_ref().map(|v| v.to_string()).unwrap_or_default(),
        n = outcome.schedule.len(),
        orig = outcome.schedule.render(),
        m = minimized.len(),
        min = minimized.render(),
    );
    let path = dir.join(format!("seed_{seed}.txt"));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
        eprintln!("chaos: could not write repro {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::InvariantKind;

    #[test]
    fn fault_free_single_rack_run_is_clean() {
        let mut cfg = CampaignConfig::single_rack(4, 4);
        cfg.fault_window = 300 * MICROS;
        let out = run_with_schedule(&cfg, 1, &FaultSchedule::empty());
        assert!(out.violation.is_none(), "violation: {:?}", out.violation);
        assert!(out.sends > 0);
        assert!(out.deliveries > 0, "workload must actually deliver");
        assert_eq!(out.faults_injected, 0);
    }

    /// The oracle sees every delivery: an endpoint that delivers without
    /// waiting for the barrier breaks total order on a fault-free run.
    #[test]
    fn unordered_delivery_fails_the_campaign() {
        let mut cfg = CampaignConfig::single_rack(4, 4);
        cfg.cluster.endpoint = cfg.cluster.endpoint.unordered();
        cfg.fault_window = 300 * MICROS;
        let out = run_with_schedule(&cfg, 1, &FaultSchedule::empty());
        let v = out.violation.expect("unordered delivery must fail the campaign");
        assert_eq!(v.kind, InvariantKind::TotalOrder, "{v}");
    }

    #[test]
    fn run_is_deterministic() {
        let mut cfg = CampaignConfig::single_rack(4, 4);
        cfg.fault_window = 200 * MICROS;
        let topo = cfg.cluster.topo.clone();
        let sched = FaultSchedule::generate(3, cfg.warmup, cfg.fault_window, &topo, &cfg.budget);
        let a = run_with_schedule(&cfg, 3, &sched);
        let b = run_with_schedule(&cfg, 3, &sched);
        assert_eq!(a.sends, b.sends);
        assert_eq!(a.deliveries, b.deliveries);
        assert_eq!(a.faults_injected, b.faults_injected);
        assert_eq!(a.violation.is_some(), b.violation.is_some());
    }
}
