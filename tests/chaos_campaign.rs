//! Integration tests for the chaos campaign orchestrator: end-to-end
//! sweeps stay clean, runs are deterministic, explicit fault schedules
//! execute, and the shrinker only ever removes events.

use onepipe::chaos::runner::{run_campaign, run_with_schedule, CampaignConfig};
use onepipe::chaos::schedule::{Fault, FaultEvent, FaultSchedule};
use onepipe::chaos::shrink::shrink;
use onepipe::types::ids::HostId;
use onepipe::types::time::MICROS;

#[test]
fn testbed_campaign_holds_invariants() {
    let cfg = CampaignConfig::testbed();
    let report = run_campaign(&cfg, 5, None);
    assert_eq!(report.failing_seeds(), Vec::<u64>::new(), "{}", report.render());
    let faults: u64 = report.outcomes.iter().map(|o| o.faults_injected).sum();
    let deliveries: usize = report.outcomes.iter().map(|o| o.deliveries).sum();
    assert!(faults > 0, "campaign must actually inject faults");
    assert!(deliveries > 0, "campaign must actually deliver traffic");
}

#[test]
fn single_rack_campaign_holds_invariants() {
    let cfg = CampaignConfig::single_rack(8, 8);
    let report = run_campaign(&cfg, 5, None);
    assert_eq!(report.failing_seeds(), Vec::<u64>::new(), "{}", report.render());
}

#[test]
fn same_seed_and_schedule_reproduce_identically() {
    let cfg = CampaignConfig::testbed();
    let schedule =
        FaultSchedule::generate(7, cfg.warmup, cfg.fault_window, &cfg.cluster.topo, &cfg.budget);
    let a = run_with_schedule(&cfg, 7, &schedule);
    let b = run_with_schedule(&cfg, 7, &schedule);
    assert_eq!(a.sends, b.sends);
    assert_eq!(a.deliveries, b.deliveries);
    assert_eq!(a.faults_injected, b.faults_injected);
    assert_eq!(a.violation.is_some(), b.violation.is_some());
}

/// Engine-determinism regression: replaying a recorded chaos seed must
/// reproduce the byte-identical delivery log the old engine produced.
/// The golden file was recorded before the calendar-queue scheduler swap;
/// regenerate deliberately with `BLESS_CHAOS_REPLAY=1 cargo test`.
#[test]
fn chaos_replay_matches_recorded_delivery_log() {
    let cfg = CampaignConfig::testbed();
    let schedule =
        FaultSchedule::generate(3, cfg.warmup, cfg.fault_window, &cfg.cluster.topo, &cfg.budget);
    let out = run_with_schedule(&cfg, 3, &schedule);
    assert!(out.deliveries > 0, "replay seed must actually deliver traffic");
    assert!(out.violation.is_none(), "replay seed broke an invariant: {:?}", out.violation);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/chaos/replay_seed3.log");
    if std::env::var_os("BLESS_CHAOS_REPLAY").is_some() {
        std::fs::write(path, &out.delivery_log).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("recorded golden log missing; regenerate with BLESS_CHAOS_REPLAY=1");
    assert_eq!(
        out.delivery_log, golden,
        "delivery log diverged from the recorded replay — engine determinism broke"
    );
}

#[test]
fn explicit_host_crash_schedule_stays_atomic() {
    let cfg = CampaignConfig::testbed();
    let schedule = FaultSchedule::new(vec![
        FaultEvent { at: cfg.warmup + 200 * MICROS, fault: Fault::HostCrash { host: HostId(5) } },
        FaultEvent {
            at: cfg.warmup + 400 * MICROS,
            fault: Fault::LossBurst { rate: 0.2, duration: 50 * MICROS },
        },
    ]);
    let out = run_with_schedule(&cfg, 11, &schedule);
    assert!(out.violation.is_none(), "{:?}", out.violation);
    assert!(out.faults_injected >= 2, "crash + loss mutations must execute");
    assert!(out.deliveries > 0);
}

/// Acceptance sweep for controller fault tolerance: across 25 seeds, a
/// controller replica (the leader) crashes 20–80 µs after a host crash —
/// while that failure's recovery is in flight. Every seed must stay
/// clean: total order and atomicity hold, each recovery decision is
/// delivered exactly once per epoch, recovery completes (no pending
/// failures — i.e. no hung reliable channel), and a failover election
/// actually happened.
#[test]
fn controller_crash_mid_recovery_sweep_is_clean() {
    let mut cfg = CampaignConfig::single_rack(6, 6);
    // Election (~10 management RTTs) plus a full re-drive ride on the
    // drain; give them head-room beyond the default.
    cfg.drain = 1_500 * MICROS;
    for seed in 0..25u64 {
        // Vary both the host-crash time and the crash→controller-crash
        // offset across seeds so the failover lands in different phases
        // of the Detect → Announce → Callback → Resume pipeline.
        let t_crash = cfg.warmup + 100 * MICROS + (seed % 7) * 60 * MICROS;
        let offset = 20 * MICROS + (seed % 4) * 20 * MICROS;
        let schedule = FaultSchedule::new(vec![
            FaultEvent { at: t_crash, fault: Fault::HostCrash { host: HostId(5) } },
            FaultEvent { at: t_crash + offset, fault: Fault::ControllerCrash { replica: None } },
        ]);
        let out = run_with_schedule(&cfg, seed, &schedule);
        assert!(out.violation.is_none(), "seed {seed}: {}", out.violation.unwrap());
        assert!(out.deliveries > 0, "seed {seed}: workload must deliver");
        assert_eq!(out.faults_injected, 2, "seed {seed}: host + controller crash must execute");
        assert!(
            out.ctrl_elections >= 2,
            "seed {seed}: killing the leader must force a new election (saw {})",
            out.ctrl_elections
        );
    }
}

#[test]
fn shrinker_never_grows_and_preserves_failure() {
    let cfg = CampaignConfig::testbed();
    let schedule =
        FaultSchedule::generate(3, cfg.warmup, cfg.fault_window, &cfg.cluster.topo, &cfg.budget);
    assert!(!schedule.is_empty());
    // Synthetic predicate: "fails" whenever any link flap remains. The
    // shrinker must converge onto exactly the flap events it needs.
    let still_fails =
        |s: &FaultSchedule| s.events.iter().any(|e| matches!(e.fault, Fault::LinkFlap { .. }));
    if !still_fails(&schedule) {
        return; // this seed drew no flap; nothing to minimize against
    }
    let min = shrink(&schedule, still_fails);
    assert!(min.len() <= schedule.len(), "shrinker grew the schedule");
    assert!(still_fails(&min), "shrinker lost the failure");
    assert_eq!(min.len(), 1, "greedy shrink should isolate a single flap");
}
