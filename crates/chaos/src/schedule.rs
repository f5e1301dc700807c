//! Deterministic, seed-driven fault schedules.
//!
//! A [`FaultSchedule`] is a timeline of typed fault events that compiles
//! down to existing [`Sim`](onepipe_netsim::engine::Sim) / [`Cluster`]
//! primitives — crashes, administrative link transitions, loss-rate
//! mutations — plus a small set of *runtime* faults (clock-skew spikes)
//! that the campaign runner applies when simulation time reaches them.
//!
//! Schedules are either written by hand (regression tests, minimized
//! repros) or generated from a seed and a [`FaultBudget`], so every
//! campaign run is reproducible from `(config, seed)` alone.

use onepipe_core::harness::Cluster;
use onepipe_netsim::topology::FatTreeParams;
use onepipe_types::ids::{HostId, LinkId, ProcessId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One typed fault.
#[derive(Clone, Debug, PartialEq)]
pub enum Fault {
    /// Crash a whole server (fail-stop; never restarts).
    HostCrash {
        /// The host to kill.
        host: HostId,
    },
    /// Crash a physical ToR switch — both logical halves. With single-homed
    /// racks this takes the entire rack down with it.
    TorCrash {
        /// Pod of the ToR.
        pod: u32,
        /// Index of the ToR within the pod.
        idx: u32,
    },
    /// Crash a physical core switch.
    CoreCrash {
        /// Core switch index.
        idx: u32,
    },
    /// Take a host's access link down for `down_for` ns, then bring it
    /// back (both directions).
    LinkFlap {
        /// The host whose access link flaps.
        host: HostId,
        /// Outage duration, ns.
        down_for: u64,
    },
    /// Raise the loss rate of *every* link to `rate` for `duration` ns,
    /// then restore lossless operation.
    LossBurst {
        /// Loss probability in `[0, 1]` during the burst.
        rate: f64,
        /// Burst duration, ns.
        duration: u64,
    },
    /// Step one host's clock by `offset_ns`. Positive spikes jump the
    /// clock forward; negative spikes are absorbed by the monotonic slew
    /// (timestamps never regress locally).
    ClockSkew {
        /// The host whose clock is perturbed.
        host: HostId,
        /// Signed skew spike, ns.
        offset_ns: i64,
    },
    /// Cut the rack containing `host` off from the rest of the fabric for
    /// `duration` ns (intra-rack traffic keeps flowing).
    RackPartition {
        /// Any host in the rack to partition.
        host: HostId,
        /// Partition duration, ns.
        duration: u64,
    },
    /// Fail-stop one controller replica (never restarts). With the
    /// default 3-replica cluster the survivors elect a new leader that
    /// re-drives any in-flight recovery.
    ControllerCrash {
        /// Replica index, or `None` to kill whichever replica is leader
        /// when the fault fires (the worst case).
        replica: Option<u32>,
    },
    /// Cut one controller replica off the management network for
    /// `duration` ns, both directions; it keeps running and rejoins.
    ControllerPartition {
        /// Replica index, or `None` for the leader at fire time.
        replica: Option<u32>,
        /// Partition duration, ns.
        duration: u64,
    },
}

impl Fault {
    /// When the fault's effect ends (absolute, given its start time), for
    /// transient faults; `start` itself for instantaneous/permanent ones.
    pub fn end_time(&self, start: u64) -> u64 {
        match self {
            Fault::LinkFlap { down_for, .. } => start + down_for,
            Fault::LossBurst { duration, .. }
            | Fault::RackPartition { duration, .. }
            | Fault::ControllerPartition { duration, .. } => start + duration,
            _ => start,
        }
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::HostCrash { host } => write!(f, "crash {host:?}"),
            Fault::TorCrash { pod, idx } => write!(f, "crash tor[{pod}.{idx}]"),
            Fault::CoreCrash { idx } => write!(f, "crash core[{idx}]"),
            Fault::LinkFlap { host, down_for } => {
                write!(f, "flap {host:?} access link for {down_for}ns")
            }
            Fault::LossBurst { rate, duration } => {
                write!(f, "loss burst {:.1}% for {duration}ns", rate * 100.0)
            }
            Fault::ClockSkew { host, offset_ns } => {
                write!(f, "clock skew {host:?} by {offset_ns}ns")
            }
            Fault::RackPartition { host, duration } => {
                write!(f, "partition rack of {host:?} for {duration}ns")
            }
            Fault::ControllerCrash { replica } => match replica {
                Some(r) => write!(f, "crash controller replica {r}"),
                None => write!(f, "crash controller leader"),
            },
            Fault::ControllerPartition { replica, duration } => match replica {
                Some(r) => write!(f, "partition controller replica {r} for {duration}ns"),
                None => write!(f, "partition controller leader for {duration}ns"),
            },
        }
    }
}

/// A fault at an absolute simulation time.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultEvent {
    /// Absolute injection time, ns.
    pub at: u64,
    /// The fault.
    pub fault: Fault,
}

impl std::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t={}ns: {}", self.at, self.fault)
    }
}

/// Per-kind caps on how many faults a generated campaign may inject.
#[derive(Clone, Copy, Debug)]
pub struct FaultBudget {
    /// Maximum host crashes.
    pub host_crashes: u32,
    /// Maximum switch crashes (ToR or core).
    pub switch_crashes: u32,
    /// Maximum access-link flaps.
    pub link_flaps: u32,
    /// Maximum global loss bursts.
    pub loss_bursts: u32,
    /// Maximum clock-skew spikes.
    pub clock_skews: u32,
    /// Maximum rack partitions.
    pub rack_partitions: u32,
    /// Maximum controller-replica crashes (capped at 1 during generation:
    /// a 3-replica Raft cluster tolerates exactly one fail-stop).
    pub controller_crashes: u32,
    /// Maximum controller management-network partitions.
    pub controller_partitions: u32,
    /// Longest transient outage (flap / burst / partition), ns.
    pub max_outage: u64,
    /// Largest clock-skew magnitude, ns.
    pub max_skew: i64,
}

impl Default for FaultBudget {
    fn default() -> Self {
        FaultBudget {
            host_crashes: 2,
            switch_crashes: 1,
            link_flaps: 3,
            loss_bursts: 2,
            clock_skews: 2,
            rack_partitions: 1,
            controller_crashes: 0,
            controller_partitions: 0,
            max_outage: 100_000, // 100 µs — beyond the 30 µs dead-link timeout
            max_skew: 20_000,
        }
    }
}

impl FaultBudget {
    /// A light budget: transient faults only, no crashes. Suitable for
    /// single-rack topologies where a ToR crash would kill every process.
    pub fn transient_only() -> Self {
        FaultBudget { host_crashes: 0, switch_crashes: 0, ..Self::default() }
    }

    /// Enable controller faults on top of this budget: one replica crash
    /// and one management-network partition, anchored near a data-plane
    /// crash so the controller dies *mid-recovery*.
    pub fn with_controller_faults(self) -> Self {
        FaultBudget { controller_crashes: 1, controller_partitions: 1, ..self }
    }
}

/// A deterministic timeline of fault events.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    /// The events, kept sorted by injection time.
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule (fault-free run).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Build from events, sorting by time.
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultSchedule { events }
    }

    /// Number of fault events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Latest time any fault effect is still active (0 for empty).
    pub fn quiesce_time(&self) -> u64 {
        self.events.iter().map(|e| e.fault.end_time(e.at)).max().unwrap_or(0)
    }

    /// Hosts permanently killed by this schedule (directly, or via the ToR
    /// of a single-homed rack).
    pub fn crashed_hosts(&self, topo: &FatTreeParams) -> Vec<HostId> {
        let mut out = Vec::new();
        for e in &self.events {
            match e.fault {
                Fault::HostCrash { host } => out.push(host),
                Fault::TorCrash { pod, idx } => {
                    let first = (pod * topo.tors_per_pod + idx) * topo.hosts_per_tor;
                    out.extend((first..first + topo.hosts_per_tor).map(HostId));
                }
                _ => {}
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// Generate a random schedule: fault counts are drawn up to the budget
    /// caps, times uniformly in `[start, start + duration)`. Guarantees at
    /// least two hosts survive all scheduled crashes, so campaigns always
    /// have correct processes left to check invariants on.
    pub fn generate(
        seed: u64,
        start: u64,
        duration: u64,
        topo: &FatTreeParams,
        budget: &FaultBudget,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFAB7);
        let hosts = topo.total_hosts();
        let mut events = Vec::new();
        let at = |rng: &mut StdRng| start + rng.random_range(0..duration.max(1));
        let outage =
            |rng: &mut StdRng, budget: &FaultBudget| rng.random_range(10_000..=budget.max_outage);

        // Crashes first, tracking survivors so we never kill (almost) everyone.
        let mut dead: Vec<HostId> = Vec::new();
        let n_host_crashes = rng.random_range(0..=budget.host_crashes);
        for _ in 0..n_host_crashes {
            let host = HostId(rng.random_range(0..hosts));
            if dead.contains(&host) || dead.len() + 3 > hosts as usize {
                continue;
            }
            dead.push(host);
            events.push(FaultEvent { at: at(&mut rng), fault: Fault::HostCrash { host } });
        }
        let n_switch = rng.random_range(0..=budget.switch_crashes);
        for _ in 0..n_switch {
            if rng.random_range(0..2u32) == 0 && topo.pods * topo.tors_per_pod > 1 {
                let pod = rng.random_range(0..topo.pods);
                let idx = rng.random_range(0..topo.tors_per_pod);
                let first = (pod * topo.tors_per_pod + idx) * topo.hosts_per_tor;
                let rack: Vec<HostId> = (first..first + topo.hosts_per_tor).map(HostId).collect();
                let newly_dead = rack.iter().filter(|h| !dead.contains(h)).count();
                if dead.len() + newly_dead + 2 > hosts as usize {
                    continue;
                }
                dead.extend(rack);
                events.push(FaultEvent { at: at(&mut rng), fault: Fault::TorCrash { pod, idx } });
            } else if topo.cores > 1 {
                // Keep at least one core alive so cross-pod routes survive.
                let idx = rng.random_range(1..topo.cores);
                events.push(FaultEvent { at: at(&mut rng), fault: Fault::CoreCrash { idx } });
            }
        }

        for _ in 0..rng.random_range(0..=budget.link_flaps) {
            let host = HostId(rng.random_range(0..hosts));
            let down_for = outage(&mut rng, budget);
            events.push(FaultEvent { at: at(&mut rng), fault: Fault::LinkFlap { host, down_for } });
        }
        for _ in 0..rng.random_range(0..=budget.loss_bursts) {
            let rate = rng.random_range(0.05..0.5);
            let duration = outage(&mut rng, budget);
            events
                .push(FaultEvent { at: at(&mut rng), fault: Fault::LossBurst { rate, duration } });
        }
        for _ in 0..rng.random_range(0..=budget.clock_skews) {
            let host = HostId(rng.random_range(0..hosts));
            let mag = rng.random_range(1_000..=budget.max_skew.max(1_001));
            let offset_ns = if rng.random_range(0..2u32) == 0 { mag } else { -mag };
            events
                .push(FaultEvent { at: at(&mut rng), fault: Fault::ClockSkew { host, offset_ns } });
        }
        if topo.pods * topo.tors_per_pod > 1 {
            for _ in 0..rng.random_range(0..=budget.rack_partitions) {
                let host = HostId(rng.random_range(0..hosts));
                let duration = outage(&mut rng, budget);
                events.push(FaultEvent {
                    at: at(&mut rng),
                    fault: Fault::RackPartition { host, duration },
                });
            }
        }
        // Controller faults are anchored 20–80 µs after the first
        // data-plane crash when one exists, so the replica dies while a
        // host/rack failure is still being recovered — the interesting
        // window. The RNG is only touched when the budget enables them,
        // keeping schedules for controller-free budgets byte-identical.
        let anchor = events
            .iter()
            .filter(|e| matches!(e.fault, Fault::HostCrash { .. } | Fault::TorCrash { .. }))
            .map(|e| e.at)
            .min();
        if budget.controller_crashes > 0 {
            let base = anchor.unwrap_or_else(|| at(&mut rng));
            let t = base + rng.random_range(20_000u64..=80_000);
            // Cap at one: a 3-replica cluster only tolerates one fail-stop.
            events.push(FaultEvent { at: t, fault: Fault::ControllerCrash { replica: None } });
        }
        if budget.controller_partitions > 0 {
            for _ in 0..rng.random_range(1..=budget.controller_partitions) {
                let base = anchor.unwrap_or(start);
                let t = base + rng.random_range(20_000u64..=80_000);
                let duration = outage(&mut rng, budget);
                events.push(FaultEvent {
                    at: t,
                    fault: Fault::ControllerPartition { replica: None, duration },
                });
            }
        }
        Self::new(events)
    }

    /// Compile the schedulable part of the timeline down to engine events
    /// on `cluster`, returning the remaining *runtime* events (clock
    /// skews), sorted by time, for the runner to apply as time passes.
    ///
    /// Every event time must be `>= cluster.sim.now()`.
    pub fn apply(&self, cluster: &mut Cluster) -> Vec<FaultEvent> {
        let mut runtime = Vec::new();
        for e in &self.events {
            match e.fault {
                Fault::HostCrash { host } => cluster.crash_host(e.at, host),
                Fault::TorCrash { pod, idx } => cluster.crash_tor(e.at, pod, idx),
                Fault::CoreCrash { idx } => cluster.crash_core(e.at, idx),
                Fault::LinkFlap { host, down_for } => {
                    cluster.set_host_link(e.at, host, false);
                    cluster.set_host_link(e.at + down_for, host, true);
                }
                Fault::LossBurst { rate, duration } => {
                    cluster.sim.schedule_global_loss(e.at, rate);
                    cluster.sim.schedule_global_loss(e.at + duration, 0.0);
                }
                Fault::RackPartition { host, duration } => {
                    for link in rack_uplinks(cluster, host) {
                        cluster.sim.schedule_link_down(e.at, link);
                        cluster.sim.schedule_link_up(e.at + duration, link);
                    }
                }
                Fault::ClockSkew { .. }
                | Fault::ControllerCrash { .. }
                | Fault::ControllerPartition { .. } => runtime.push(e.clone()),
            }
        }
        runtime.sort_by_key(|e| e.at);
        runtime
    }

    /// Apply one runtime fault now (the simulation clock must have reached
    /// `ev.at`).
    pub fn apply_runtime(cluster: &mut Cluster, ev: &FaultEvent) {
        // A `None` controller target means "whoever leads right now" —
        // resolvable only at fire time, which is why these are runtime
        // faults. Fall back to replica 0 mid-election.
        let resolve = |cluster: &Cluster, replica: Option<u32>| {
            replica.map(|r| r as usize).or_else(|| cluster.controller_leader()).unwrap_or(0)
        };
        match ev.fault {
            Fault::ClockSkew { host, offset_ns } => {
                cluster.with_host(host, |hl, ctx| {
                    let now = ctx.now();
                    hl.perturb_clock(now, offset_ns as f64);
                });
            }
            Fault::ControllerCrash { replica } => {
                let r = resolve(cluster, replica);
                let now = cluster.sim.now().max(ev.at);
                cluster.crash_controller(now, r);
            }
            Fault::ControllerPartition { replica, duration } => {
                let r = resolve(cluster, replica);
                let now = cluster.sim.now().max(ev.at);
                cluster.partition_controller(now, r, duration);
            }
            _ => {}
        }
    }

    /// Human-readable rendering, one event per line — written into
    /// `results/chaos/` repro files.
    pub fn render(&self) -> String {
        if self.events.is_empty() {
            return "(empty schedule)\n".to_string();
        }
        let mut s = String::new();
        for e in &self.events {
            s.push_str(&format!("{e}\n"));
        }
        s
    }
}

/// The fabric links connecting `host`'s rack to the rest of the network:
/// ToR-up → spine links and spine → ToR-down links, excluding the in-rack
/// virtual up/down loopback.
fn rack_uplinks(cluster: &mut Cluster, host: HostId) -> Vec<LinkId> {
    let tor_up = cluster.topo.tor_up_of(host);
    let host_node = cluster.topo.host_node(host);
    let tor_down = cluster.sim.in_neighbors(host_node)[0];
    let mut links = Vec::new();
    for peer in cluster.sim.out_neighbors(tor_up).to_vec() {
        if peer != tor_down {
            links.push(LinkId::new(tor_up, peer));
        }
    }
    for peer in cluster.sim.in_neighbors(tor_down).to_vec() {
        if peer != tor_up {
            links.push(LinkId::new(peer, tor_down));
        }
    }
    links
}

/// Processes living on the given hosts.
pub fn processes_on_hosts(cluster: &Cluster, hosts: &[HostId]) -> Vec<ProcessId> {
    let mut out = Vec::new();
    for &h in hosts {
        out.extend_from_slice(cluster.procs.processes_on(h));
    }
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic_and_sorted() {
        let topo = FatTreeParams::testbed();
        let b = FaultBudget::default();
        let a = FaultSchedule::generate(7, 1000, 500_000, &topo, &b);
        let c = FaultSchedule::generate(7, 1000, 500_000, &topo, &b);
        assert_eq!(a, c);
        assert!(a.events.windows(2).all(|w| w[0].at <= w[1].at));
        for e in &a.events {
            assert!(e.at >= 1000 && e.at < 501_000);
        }
    }

    #[test]
    fn generate_leaves_survivors() {
        let topo = FatTreeParams::testbed();
        let budget =
            FaultBudget { host_crashes: 100, switch_crashes: 10, ..FaultBudget::default() };
        for seed in 0..50 {
            let s = FaultSchedule::generate(seed, 0, 1_000_000, &topo, &budget);
            let dead = s.crashed_hosts(&topo);
            assert!(
                dead.len() + 2 <= topo.total_hosts() as usize,
                "seed {seed} kills too many hosts: {dead:?}"
            );
        }
    }

    #[test]
    fn quiesce_time_covers_transients() {
        let s = FaultSchedule::new(vec![
            FaultEvent { at: 10, fault: Fault::HostCrash { host: HostId(0) } },
            FaultEvent { at: 50, fault: Fault::LinkFlap { host: HostId(1), down_for: 100 } },
        ]);
        assert_eq!(s.quiesce_time(), 150);
        assert_eq!(FaultSchedule::empty().quiesce_time(), 0);
    }

    #[test]
    fn crashed_hosts_includes_tor_racks() {
        let topo = FatTreeParams::testbed();
        let s = FaultSchedule::new(vec![FaultEvent {
            at: 0,
            fault: Fault::TorCrash { pod: 1, idx: 0 },
        }]);
        let dead = s.crashed_hosts(&topo);
        assert_eq!(dead.len(), topo.hosts_per_tor as usize);
        assert!(dead.contains(&HostId(2 * topo.hosts_per_tor)));
    }

    #[test]
    fn controller_budget_anchors_faults_after_a_crash() {
        let topo = FatTreeParams::testbed();
        let budget =
            FaultBudget { host_crashes: 2, ..FaultBudget::default() }.with_controller_faults();
        let mut seen_any = false;
        for seed in 0..20 {
            let s = FaultSchedule::generate(seed, 1000, 500_000, &topo, &budget);
            let crashes: Vec<u64> = s
                .events
                .iter()
                .filter(|e| matches!(e.fault, Fault::HostCrash { .. } | Fault::TorCrash { .. }))
                .map(|e| e.at)
                .collect();
            for e in &s.events {
                if let Fault::ControllerCrash { replica } = e.fault {
                    assert_eq!(replica, None, "generated crashes target the leader");
                    seen_any = true;
                    if let Some(&first) = crashes.iter().min() {
                        assert!(
                            e.at >= first + 20_000 && e.at <= first + 80_000,
                            "seed {seed}: controller crash at {} not anchored to crash at {first}",
                            e.at
                        );
                    }
                }
            }
            assert!(
                s.events
                    .iter()
                    .filter(|e| matches!(e.fault, Fault::ControllerCrash { .. }))
                    .count()
                    <= 1,
                "never generate more controller crashes than the cluster tolerates"
            );
        }
        assert!(seen_any, "budget with controller faults must generate controller crashes");
    }

    #[test]
    fn controller_free_budget_generates_identical_schedules() {
        // Enabling the new budget knobs must not perturb the RNG stream of
        // existing budgets (replay goldens depend on it).
        let topo = FatTreeParams::testbed();
        let plain = FaultSchedule::generate(3, 1000, 500_000, &topo, &FaultBudget::default());
        assert!(!plain.events.iter().any(|e| matches!(
            e.fault,
            Fault::ControllerCrash { .. } | Fault::ControllerPartition { .. }
        )));
    }

    #[test]
    fn render_lists_every_event() {
        let s = FaultSchedule::new(vec![FaultEvent {
            at: 5,
            fault: Fault::ClockSkew { host: HostId(2), offset_ns: -500 },
        }]);
        let r = s.render();
        assert!(r.contains("t=5ns"));
        assert!(r.contains("h2"));
    }
}
