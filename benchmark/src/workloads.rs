//! The four workloads. Each runs in its own process (peak RSS is per
//! workload) with one generator thread.
//!
//! * `sim_be_scatter` — the paper's Fig. 8 traffic: best-effort
//!   scatterings to all 32 processes. `netsim` events, `switchlogic`
//!   best-effort aggregation and `core` reorder fan-in do the work.
//! * `sim_rel_loss` — Fig. 9b's regime: reliable unicast under 1e-4 link
//!   loss. Prepare/ACK/commit, the commit barrier and retransmission; no
//!   fan-out. A best-effort gain bought at reliable's expense shows here.
//! * `sim_log_tenants` — the log tier (gate, shard apply, credit) on top
//!   of reliable scattering; an op is an acknowledged append.
//! * `udp_rel_window` — real sockets on loopback, closed loop; the `udp`
//!   pump, the `types` codec and the kernel do the work, `netsim` none.
//!
//! The three simulated workloads are open loop: latency runs from the
//! scheduled submit time on the simulator's clock, which the generator
//! cannot miss. The UDP workload is a closed loop of 64 clients: latency
//! runs from the `send_reliable` call to the delivery reaching the
//! generator.

use crate::check::{Delivery, OrderChecker};
use crate::gen::{poisson_schedule, uniform_peer, Arrival, Rng, Zipf};
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::stats::{distinct, midmean, percentile, summarize, undisturbed_ns};
use crate::sut::{kernels, LogTier, SimBed, SimCounters, UdpBed, BARRIER_WARMUP_NS};
use crate::sys;
use crate::trace::{SpanId, Tracer, NONE, NO_OP};
use std::time::{Duration, Instant};

/// What one process run of a workload reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any entry makes the command exit non-zero.
    pub failures: Vec<String>,
    pub metrics: Values,
    /// Human-readable lines printed above the result.
    pub notes: Vec<String>,
}

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// When the process started, for `setup_s`.
    pub started: Instant,
    /// Where the traced run writes its spans.
    pub trace_path: std::path::PathBuf,
}

pub fn run(workload: &str, args: &Args) -> Option<Outcome> {
    match workload {
        "sim_be_scatter" => Some(run_sim(&BE_SCATTER, args)),
        "sim_rel_loss" => Some(run_sim(&REL_LOSS, args)),
        "sim_log_tenants" => Some(run_sim(&LOG_TENANTS, args)),
        "udp_rel_window" => Some(run_udp(args)),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Simulated workloads
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// Best-effort scattering from the source to every process.
    Scatter,
    /// Reliable unicast to a uniform random peer.
    Unicast,
    /// Appends through the log tier; the target is a stream.
    Log,
}

struct SimSpec {
    kind: Kind,
    processes: u32,
    /// Sources that issue operations (processes, or log clients).
    sources: u32,
    /// Poisson arrivals per second per source.
    rate: f64,
    /// Simulated length of the traffic window of one repetition.
    dur_ns: u64,
    /// Simulated time after the window for everything to arrive.
    drain_ns: u64,
    loss_rate: f64,
}

const BE_SCATTER: SimSpec = SimSpec {
    kind: Kind::Scatter,
    processes: 32,
    sources: 32,
    rate: 40_000.0,
    dur_ns: 8_000_000,
    drain_ns: 2_000_000,
    loss_rate: 0.0,
};

const REL_LOSS: SimSpec = SimSpec {
    kind: Kind::Unicast,
    processes: 32,
    sources: 32,
    rate: 100_000.0,
    dur_ns: 45_000_000,
    drain_ns: 5_000_000,
    loss_rate: 1e-4,
};

const LOG_TENANTS: SimSpec = SimSpec {
    kind: Kind::Log,
    processes: LogTier::PROCESSES,
    sources: LogTier::CLIENTS,
    rate: 2_000_000.0,
    dur_ns: 5_000_000,
    drain_ns: 5_000_000,
    loss_rate: 0.0,
};

/// The log workload hands arrivals to the service once per quantum.
const LOG_QUANTUM_NS: u64 = 1_000;
const ZIPF_THETA: f64 = 0.99;

impl SimSpec {
    /// Completions one scheduled arrival produces when nothing is lost:
    /// a delivery per receiver, or one acknowledged append.
    fn completions_per_arrival(&self) -> u32 {
        match self.kind {
            Kind::Scatter => self.processes,
            Kind::Unicast | Kind::Log => 1,
        }
    }

    fn schedule(&self, seed: u64, dur_ns: u64) -> Vec<Arrival> {
        let n = self.processes;
        match self.kind {
            Kind::Scatter => poisson_schedule(seed, self.sources, self.rate, dur_ns, |_, _| 0),
            Kind::Unicast => poisson_schedule(seed, self.sources, self.rate, dur_ns, |r, s| {
                uniform_peer(r, s, n)
            }),
            Kind::Log => {
                let zipf = Zipf::new(LogTier::STREAMS, ZIPF_THETA);
                poisson_schedule(seed, self.sources, self.rate, dur_ns, |r, _| {
                    zipf.sample(r) as u32
                })
            }
        }
    }
}

/// One repetition: a fresh cluster driven through one schedule.
struct Rep {
    /// Wall seconds and CPU seconds of the timed window (drive + drain +
    /// collecting the deliveries); building and checking are outside it.
    wall_s: f64,
    cpu_s: f64,
    /// The window cut at fixed points of the schedule, the same in every
    /// repetition: wall and CPU ns of each segment.
    laps: sys::Laps,
    attempted: u64,
    /// Ops that completed: deliveries, or acknowledged appends.
    completed: u64,
    /// Submit → delivery (log: first transmission → ack), sim ns, sorted.
    latency_ns: Vec<u64>,
    /// Everything that must repeat exactly, folded into one number.
    fingerprint: u64,
    failures: Vec<String>,
    counters: SimCounters,
    /// Log tier only: `(name, value)` pairs for the per-layer table.
    log_figures: Vec<(&'static str, f64)>,
    barrier_wait_model_ns: f64,
    /// The span covering the timed window (traced repetitions).
    span: SpanId,
}

/// Quantile `q` of sorted nanosecond samples, in µs; 0 without samples.
fn quantile_us(sorted_ns: &[u64], q: f64) -> f64 {
    percentile(sorted_ns, q).map_or(0.0, |(v, _)| v as f64 / 1e3)
}

fn run_rep(
    spec: &SimSpec,
    seed: u64,
    schedule: &[Arrival],
    dur_ns: u64,
    unordered: bool,
    tr: &mut Tracer,
) -> Rep {
    let n = spec.processes as usize;
    let mut sim = SimBed::new(tr, NONE, n, seed, spec.loss_rate, unordered);
    let log = (spec.kind == Kind::Log).then(|| LogTier::attach(tr, NONE, &mut sim, seed));
    sim.run_until(tr, NONE, BARRIER_WARMUP_NS);
    let t0 = sim.now();

    // ---- timed window ----
    let span = tr.begin("workload", NONE, NO_OP);
    let wall = Instant::now();
    let mut laps = sys::Laps::start();
    let seg = (schedule.len() / SEGMENTS).max(1);
    let mut refused = 0u64;
    match spec.kind {
        Kind::Scatter | Kind::Unicast => {
            for (op, a) in schedule.iter().enumerate() {
                sim.run_until(tr, span, t0 + a.at);
                let sent = if spec.kind == Kind::Scatter {
                    sim.send(tr, span, op as u64, a.src, 0..spec.processes, false)
                } else {
                    sim.send(tr, span, op as u64, a.src, std::iter::once(a.target), true)
                };
                refused += !sent as u64;
                if (op + 1) % seg == 0 {
                    laps.lap();
                }
            }
        }
        Kind::Log => {
            let tier = log.as_ref().expect("log tier attached");
            let mut next = 0;
            let mut t = 0;
            while t < dur_ns {
                t += LOG_QUANTUM_NS;
                sim.run_until(tr, span, t0 + t);
                while next < schedule.len() && schedule[next].at <= t {
                    let a = schedule[next];
                    tier.submit(tr, span, next as u64, a.src, a.target as u64);
                    next += 1;
                    if next % seg == 0 {
                        laps.lap();
                    }
                }
            }
        }
    }
    sim.run_until(tr, span, t0 + dur_ns + spec.drain_ns);
    let raw_deliveries = sim.take_deliveries(tr, span);
    laps.lap();
    let wall_s = wall.elapsed().as_secs_f64();
    let cpu_s = laps.cpu_ns.iter().sum::<u64>() as f64 / 1e9;
    tr.end(span);
    // ---- end of timed window; the rest is the benchmark checking ----

    let deliveries = raw_deliveries.into_plain();
    let mut failures = Vec::new();
    let mut checker = OrderChecker::new(spec.processes as usize, schedule.len());
    let mut latency_ns = Vec::with_capacity(deliveries.len());
    // Log tier: sender timestamp of each op's first transmission.
    let mut first_tx: Vec<u64> =
        vec![u64::MAX; if spec.kind == Kind::Log { schedule.len() } else { 0 }];
    let want_reliable = spec.kind != Kind::Scatter;
    let mut wrong_channel = 0u64;
    for d in &deliveries {
        checker.observe(d, true);
        wrong_channel += (d.reliable != want_reliable) as u64;
        let Some(a) = d.op.and_then(|op| schedule.get(op as usize)) else { continue };
        if spec.kind == Kind::Log {
            let slot = &mut first_tx[d.op.expect("checked") as usize];
            *slot = (*slot).min(d.ts);
        } else {
            latency_ns.push(d.at - (t0 + a.at));
        }
    }
    if wrong_channel > 0 {
        failures.push(format!("{wrong_channel} deliveries arrived on the wrong channel"));
    }
    if refused > 0 {
        failures.push(format!("{refused} sends were refused by the endpoint"));
    }
    let counters = sim.counters();
    if counters.commit_anomalies != 0 {
        failures.push(format!("core.commit_anomalies = {}", counters.commit_anomalies));
    }
    let barrier_wait_model_ns = sim.barrier_wait_model_ns();

    let mut fingerprint;
    let mut log_figures = Vec::new();
    let completed;
    if let Some(tier) = &log {
        // Resends make the raw delivery count vary, so exactly-once is
        // checked on the logs: every op appended once, replicas equal.
        let out = tier.outcome();
        let mut appended = vec![0u32; schedule.len()];
        let mut foreign = 0u64;
        for op in &out.logged_ops {
            match op.and_then(|op| appended.get_mut(op as usize)) {
                Some(n) => *n += 1,
                None => foreign += 1,
            }
        }
        let not_once = appended.iter().filter(|&&n| n != 1).count();
        for (what, n) in [
            ("ops not appended exactly once", not_once as u64),
            ("log records that carry no scheduled op", foreign),
            ("streams whose replica pair differs", out.replica_mismatches),
            ("subscriber streams with offset gaps", out.sub_offset_gaps),
            ("batches still unacknowledged after the drain", out.unacked_end),
        ] {
            if n > 0 {
                failures.push(format!("log tier: {n} {what}"));
            }
        }
        completed = out.acked_appends;
        let mut admit_wait: Vec<u64> = first_tx
            .iter()
            .zip(schedule)
            .filter(|(&tx, _)| tx != u64::MAX)
            .map(|(&tx, a)| tx.saturating_sub(t0 + a.at))
            .collect();
        admit_wait.sort_unstable();
        log_figures = vec![
            ("log.acked_appends", out.acked_appends as f64),
            ("log.sub_records", out.sub_records as f64),
            ("log.credit_stalls", out.credit_stalls as f64),
            ("log.held_peak", out.held_peak as f64),
            ("log.unacked_end", out.unacked_end as f64),
            ("log.sub_e2e_p99_us", quantile_us(&out.sub_e2e_ns, 0.99)),
            ("log.admit_wait_p50_us", quantile_us(&admit_wait, 0.50)),
            ("log.admit_wait_p99_us", quantile_us(&admit_wait, 0.99)),
        ];
        fingerprint = checker.fingerprint();
        for v in out.append_latency_ns.iter().chain(&out.sub_e2e_ns).chain(&admit_wait) {
            fingerprint = (fingerprint ^ v).wrapping_mul(0x0000_0100_0000_01B3);
        }
        latency_ns = out.append_latency_ns;
    } else {
        checker.finish(spec.completions_per_arrival());
        completed = checker.deliveries;
        fingerprint = checker.fingerprint();
        latency_ns.sort_unstable();
    }
    failures.append(&mut checker.failures);

    Rep {
        wall_s,
        cpu_s,
        laps,
        attempted: schedule.len() as u64 * spec.completions_per_arrival() as u64,
        completed,
        latency_ns,
        fingerprint,
        failures,
        counters,
        log_figures,
        barrier_wait_model_ns,
        span,
    }
}

/// Segments the timed window of a repetition is cut into. Every
/// repetition does the same work in segment k, so a segment's cost is
/// estimated across repetitions (see `undisturbed_s`).
const SEGMENTS: usize = 128;

/// The quantile, across repetitions, taken as a segment's cost: the
/// fastest time seen. The work is deterministic, so there is a floor that
/// no repetition can beat, and whatever sits above it is interference.
const SEGMENT_QUANTILE: f64 = 0.0;

/// `stats::undisturbed_ns` over the repetitions' segment times, in seconds.
fn undisturbed_s(reps: &[Rep], lap_ns: impl Fn(&Rep) -> &Vec<u64>, q: f64) -> f64 {
    let laps: Vec<&[u64]> = reps.iter().map(|r| lap_ns(r).as_slice()).collect();
    undisturbed_ns(&laps, q) as f64 / 1e9
}

/// Number of times set-up is repeated; `setup_s` is the median.
const SETUPS: usize = 3;
/// Fewest timed repetitions, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Set-up: generate the inputs and run one quarter-length repetition
/// (cluster build, barrier warm-up, caches and allocator warmed). Returns
/// the schedule, any failed check, and the seconds it took since `since`.
fn sim_setup(
    spec: &SimSpec,
    seed: u64,
    since: Instant,
    tr: &mut Tracer,
) -> (Vec<Arrival>, Vec<String>, f64) {
    let schedule = spec.schedule(seed, spec.dur_ns);
    let quarter = spec.dur_ns / 4;
    let cut = schedule.partition_point(|a| a.at < quarter);
    let warm = run_rep(spec, seed, &schedule[..cut], quarter, false, tr);
    let failures = warm.failures.into_iter().map(|f| format!("warm-up: {f}")).collect();
    (schedule, failures, since.elapsed().as_secs_f64())
}

fn run_sim(spec: &SimSpec, args: &Args) -> Outcome {
    let mut tr = Tracer::new(false);
    let mut notes = Vec::new();

    let (schedule, mut failures, first_setup_s) = sim_setup(spec, args.seed, args.started, &mut tr);
    let mut setup_s = vec![first_setup_s];

    let mut reps: Vec<Rep> = Vec::new();
    if !args.trace {
        let measuring = Instant::now();
        while measuring.elapsed().as_secs_f64() < args.seconds || reps.len() < MIN_REPS {
            reps.push(run_rep(spec, args.seed, &schedule, spec.dur_ns, false, &mut tr));
        }
    } else {
        // One plain and one traced repetition (their difference is the
        // tracing overhead), then the unordered baseline and the kernels.
        reps.push(run_rep(spec, args.seed, &schedule, spec.dur_ns, false, &mut tr));
        tr.set_on(true);
        reps.push(run_rep(spec, args.seed, &schedule, spec.dur_ns, false, &mut tr));
        tr.set_on(false);
    }

    let first = &reps[0];
    for (i, r) in reps.iter().enumerate().skip(1) {
        if r.fingerprint != first.fingerprint || r.counters != first.counters {
            failures.push(format!(
                "repetition {i} differs from repetition 0 (fingerprint {:016x} vs {:016x})",
                r.fingerprint, first.fingerprint
            ));
        }
    }
    for (i, r) in reps.iter().enumerate() {
        failures.extend(r.failures.iter().map(|f| format!("repetition {i}: {f}")));
    }
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let completed: u64 = reps.iter().map(|r| r.completed).sum();
    let failed = attempted.saturating_sub(completed);
    if failed > 0 {
        failures.push(format!("{failed} of {attempted} ops did not complete"));
    }

    let n = first.latency_ns.len();
    let p50 = quantile_us(&first.latency_ns, 0.50);
    let p95 = quantile_us(&first.latency_ns, 0.95);
    let values = distinct(&first.latency_ns);
    notes.push(format!(
        "{} repetitions of {} ops each ({} sim-ms + {} sim-ms drain), fingerprint {:016x}",
        reps.len(),
        first.attempted,
        spec.dur_ns / 1_000_000,
        spec.drain_ns / 1_000_000,
        first.fingerprint
    ));
    notes.push(format!(
        "latency: {n} samples, {values} distinct values, sim clock; p99 {:.3} p99.9 {:.3} max {:.3} us",
        quantile_us(&first.latency_ns, 0.99),
        quantile_us(&first.latency_ns, 0.999),
        quantile_us(&first.latency_ns, 1.0),
    ));
    if spec.kind != Kind::Log && !(p95 > p50 && values > 2) {
        failures
            .push(format!("latency distribution collapsed: p50 {p50} p95 {p95}, {values} values"));
    }

    if !args.trace {
        let ops = first.completed.max(1) as f64;
        let wall_s = undisturbed_s(&reps, |r| &r.laps.wall_ns, SEGMENT_QUANTILE);
        let cpu_s = undisturbed_s(&reps, |r| &r.laps.cpu_ns, SEGMENT_QUANTILE);
        let whole = summarize(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        // Set-up again, now that the peak RSS of the measurement is taken.
        let peak_rss_mb = sys::peak_rss_mb();
        for _ in 1..SETUPS {
            let (_, f, secs) = sim_setup(spec, args.seed, Instant::now(), &mut tr);
            failures.extend(f);
            setup_s.push(secs);
        }
        let setup = summarize(&setup_s);
        notes.push(format!(
            "window wall s: {wall_s:.4} from {} segments x {} repetitions at quantile {SEGMENT_QUANTILE} \
             (segment lower quartiles {:.4}, segment medians {:.4}); whole repetitions {:.3} / {:.3} / {:.3}",
            first.laps.wall_ns.len(),
            reps.len(),
            undisturbed_s(&reps, |r| &r.laps.wall_ns, 0.25),
            undisturbed_s(&reps, |r| &r.laps.wall_ns, 0.5),
            whole.q1,
            whole.median,
            whole.q3
        ));
        notes.push(format!(
            "window cpu s: {cpu_s:.4} (whole repetitions {:?})",
            reps.iter().map(|r| (r.cpu_s * 1e3).round() / 1e3).collect::<Vec<_>>()
        ));
        notes.push(format!("setup_s of {} set-ups: {:?}", setup.n, setup_s));
        let mut e2e = Values::new(END_TO_END);
        e2e.set("deliver_p50_us", p50);
        e2e.set("deliver_p95_us", p95);
        e2e.set("msgs_per_wall_s", ops / wall_s);
        e2e.set("peak_rss_mb", peak_rss_mb);
        e2e.set("setup_s", setup.median);
        return Outcome { attempted, failed, failures, metrics: e2e, notes };
    }

    // ---- traced run: per-layer figures ----
    let mut layers = Values::new(PER_LAYER);
    let (plain, traced) = (&reps[0], &reps[1]);
    let c = &traced.counters;
    let run_until_ns = tr.children_ns(traced.span, Some("Cluster::run_until")) as f64;
    let window_ns = tr.duration_ns(traced.span) as f64;
    let sends = tr.spans.iter().filter(|s| s.name == "Cluster::send" && s.parent == traced.span);
    let (send_count, send_ns) =
        sends.fold((0u64, 0u64), |(n, t), s| (n + 1, t + (s.end_ns - s.start_ns)));

    let depth = c.peak_reorder_bytes / crate::gen::PAYLOAD_LEN as u64 / spec.processes as u64;
    tr.set_on(true);
    let kernel_span = tr.begin("kernels", NONE, NO_OP);
    let figures = kernels(&mut tr, kernel_span, depth);
    tr.end(kernel_span);
    tr.set_on(false);
    let kernel = |name: &str| figures.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
    for (name, v) in &figures {
        layers.set(name, *v);
    }
    notes.push(format!("reorder kernels at depth {} messages per receiver", depth.clamp(16, 4096)));

    layers.set("netsim.events", c.events as f64);
    layers.set("netsim.packets_sent", c.packets_sent as f64);
    layers.set("netsim.drops_inflight", c.drops_inflight as f64);
    layers.set("netsim.drops_overflow", c.drops_overflow as f64);
    layers.set("netsim.ecn_marks", c.ecn_marks as f64);
    layers.set("netsim.ns_per_event", run_until_ns / c.events.max(1) as f64);
    layers.set(
        "netsim.sched_est_share",
        c.events as f64 * kernel("netsim.sched_push_pop_ns") / run_until_ns,
    );
    // Every link transmission charged one observe + out on both barriers:
    // an upper bound, since the last hop lands on a host.
    let per_packet =
        kernel("switchlogic.be_observe_out_ns") + kernel("switchlogic.commit_observe_out_ns");
    layers.set("switchlogic.est_share", c.packets_sent as f64 * per_packet / run_until_ns);
    layers.set("core.retransmits", c.retransmits as f64);
    layers
        .set("core.retransmit_ratio", c.retransmits as f64 / c.endpoint_packets_sent.max(1) as f64);
    layers.set("core.commits_sent", c.commits_sent as f64);
    layers.set("core.send_failures", c.send_failures as f64);
    layers.set("core.late_drops", c.late_drops as f64);
    layers.set("core.commit_anomalies", c.commit_anomalies as f64);
    layers.set("core.delivered_be", c.delivered_be as f64);
    layers.set("core.delivered_rel", c.delivered_rel as f64);
    layers.set("core.peak_reorder_bytes", c.peak_reorder_bytes as f64);
    layers.set("core.harness_send_ns", send_ns as f64 / send_count.max(1) as f64);
    layers.set("core.run_until_share", run_until_ns / window_ns);
    layers.set("controller.elections", c.ctrl_elections as f64);
    layers.set("controller.ctrl_retries", c.ctrl_retries as f64);
    layers.set("core.barrier_wait_model_us", traced.barrier_wait_model_ns / 1e3);
    if spec.kind != Kind::Log {
        // The same schedule with ordering off: what is left of the
        // latency is the path, what is gone is the wait for the barrier.
        // (Its order checks fail by design and are not looked at.)
        let unordered = run_rep(spec, args.seed, &schedule, spec.dur_ns, true, &mut tr);
        let base = quantile_us(&unordered.latency_ns, 0.50);
        layers.set("core.barrier_wait_p50_us", p50 - base);
        notes.push(format!(
            "core.barrier_wait_p50_us = {:.3} (ordered p50 {p50:.3} - unordered p50 {base:.3}); paper model beacon/2 + skew = {:.3}",
            p50 - base,
            traced.barrier_wait_model_ns / 1e3
        ));
    }
    for (name, v) in &traced.log_figures {
        layers.set(name, *v);
    }
    if spec.kind == Kind::Log {
        // Each append is applied (gate offer included) on both replicas.
        let applies = 2.0 * traced.completed as f64;
        layers.set("log.est_share", applies * kernel("log.shard_apply_ns") / run_until_ns);
    }
    layers.set("bench.cpu_us_per_msg", plain.cpu_s * 1e6 / plain.completed.max(1) as f64);
    layers.set("bench.generator_share", tr.self_share(traced.span));
    let (r_plain, r_traced) =
        (plain.completed as f64 / plain.wall_s, traced.completed as f64 / traced.wall_s);
    layers.set("bench.trace_overhead_pct", (r_plain - r_traced) / r_plain * 100.0);
    notes.push(format!(
        "msgs_per_wall_s untraced {r_plain:.0}, traced {r_traced:.0}; {} spans",
        tr.spans.len()
    ));
    if let Err(e) = tr.write_jsonl(&args.trace_path) {
        failures.push(format!("writing {}: {e}", args.trace_path.display()));
    }
    Outcome { attempted, failed, failures, metrics: layers, notes }
}

// ---------------------------------------------------------------------
// UDP loopback, closed loop
// ---------------------------------------------------------------------

const UDP_PROCESSES: u32 = 4;
/// Closed-loop clients; slot k sends process k mod 4 → (k + 1) mod 4.
const UDP_SLOTS: u32 = 64;
/// Closed-loop traffic run before the timed window, part of set-up.
const UDP_WARMUP: Duration = Duration::from_millis(1_500);
/// Longest the generator sleeps between empty sweeps; it never spins.
const UDP_IDLE_SLEEP: Duration = Duration::from_micros(100);
/// An op not delivered this long after the window closed has failed.
const UDP_GRACE: Duration = Duration::from_secs(5);
/// Fresh clusters an untraced run measures, each for an equal share of
/// `--seconds` (see `run_udp_untraced`); also the number of set-ups.
const UDP_CLUSTERS: usize = 8;
/// Traced run only: how long the freshly built cluster is left idle.
const UDP_IDLE_PROBE: Duration = Duration::from_secs(2);

/// One issued op: when it was sent (bed clock and tracer clock) and the
/// client it belongs to.
struct Sent {
    at_ns: u64,
    stamp: u64,
    slot: u32,
}

/// The closed loop around one cluster.
struct UdpLoop {
    bed: UdpBed,
    checker: OrderChecker,
    /// Every op issued so far, by op id.
    sent: Vec<Sent>,
    outstanding: u32,
    /// Latency of each completed op, ns, in completion order.
    done: Vec<u64>,
    buf: Vec<Delivery>,
    wrong_channel: u64,
    /// Time slept between empty sweeps, counted while tracing.
    slept_ns: u64,
    /// CPU time of the generator thread across those sleeps.
    sleep_cpu_ns: u64,
}

/// What the closed loop did over one timed window.
struct UdpWindow {
    ops: u64,
    wall_s: f64,
    /// CPU time of the process less what the generator's sleeps cost: the
    /// cluster's threads and the generator's calls into the cluster.
    sut_cpu_ns: u64,
    /// Latency of the ops completed in the window, sorted.
    latency_ns: Vec<u64>,
    /// Resident set of the process as the window closes.
    rss_mb: f64,
}

impl UdpLoop {
    /// Build a cluster and start the 64 clients in a seeded order,
    /// staggered over the first milliseconds so they do not leave in one
    /// burst. The traced run first watches the cluster idle.
    fn start(
        tr: &mut Tracer,
        seed: u64,
        probe_idle: bool,
    ) -> Result<(UdpLoop, UdpStartup), String> {
        let (bed, leader_elect_ms) = UdpBed::build(tr, NONE, UDP_PROCESSES as usize)
            .map_err(|e| format!("building the udp cluster: {e}"))?;
        let mut startup =
            UdpStartup { leader_elect_ms, idle_syscalls_per_s: 0.0, idle_cpu_pct: 0.0 };
        if probe_idle {
            let (c0, cpu0, t0) = (bed.counters(tr, NONE), sys::cpu_ns(), Instant::now());
            std::thread::sleep(UDP_IDLE_PROBE);
            let wall = t0.elapsed().as_secs_f64();
            startup.idle_syscalls_per_s =
                bed.counters(tr, NONE).since(&c0).syscalls() as f64 / wall;
            startup.idle_cpu_pct = (sys::cpu_ns() - cpu0) as f64 / 1e9 / wall * 100.0;
        }
        let mut lp = UdpLoop {
            bed,
            checker: OrderChecker::new(UDP_PROCESSES as usize, 0),
            sent: Vec::new(),
            outstanding: 0,
            done: Vec::new(),
            buf: Vec::new(),
            wrong_channel: 0,
            slept_ns: 0,
            sleep_cpu_ns: 0,
        };
        let mut rng = Rng::new(seed);
        let mut slots: Vec<u32> = (0..UDP_SLOTS).collect();
        for i in (1..slots.len()).rev() {
            slots.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for slot in slots {
            lp.issue(tr, NONE, slot);
            lp.drive(tr, NONE, Duration::from_micros(50 + rng.below(200)), true);
        }
        Ok((lp, startup))
    }

    fn issue(&mut self, tr: &mut Tracer, parent: SpanId, slot: u32) {
        let op = self.sent.len() as u64;
        self.checker.add_ops(1);
        self.sent.push(Sent { at_ns: self.bed.now_ns(), stamp: tr.stamp(), slot });
        self.outstanding += 1;
        self.bed.send_reliable(tr, parent, op, slot % UDP_PROCESSES, (slot + 1) % UDP_PROCESSES);
    }

    /// One sweep over every process's delivery channel; each completed op
    /// is checked, timed and (while `reissue`) replaced. Returns the
    /// number of deliveries.
    fn sweep(&mut self, tr: &mut Tracer, parent: SpanId, reissue: bool) -> usize {
        for p in 0..UDP_PROCESSES {
            self.bed.try_recv_all(tr, parent, p, &mut self.buf);
        }
        let mut buf = std::mem::take(&mut self.buf);
        let got = buf.len();
        for d in buf.drain(..) {
            self.checker.observe(&d, false);
            self.wrong_channel += !d.reliable as u64;
            let Some((op, sent)) = d.op.and_then(|op| Some((op, self.sent.get(op as usize)?)))
            else {
                continue;
            };
            let slot = sent.slot;
            self.done.push(d.at - sent.at_ns);
            // A duplicate is the checker's to report, not a reason to wrap.
            self.outstanding = self.outstanding.saturating_sub(1);
            tr.record("op", sent.stamp, parent, op);
            if reissue {
                self.issue(tr, parent, slot);
            }
        }
        self.buf = buf; // keep the allocation for the next sweep
        got
    }

    /// Run the loop for `dur`, sleeping whenever a sweep comes back empty.
    /// Without `reissue` it ends as soon as nothing is outstanding.
    fn drive(&mut self, tr: &mut Tracer, parent: SpanId, dur: Duration, reissue: bool) {
        let t = Instant::now();
        while t.elapsed() < dur && (reissue || self.outstanding > 0) {
            if self.sweep(tr, parent, reissue) == 0 {
                let (before, cpu) = (tr.stamp(), sys::thread_cpu_ns());
                std::thread::sleep(UDP_IDLE_SLEEP);
                self.sleep_cpu_ns += sys::thread_cpu_ns() - cpu;
                self.slept_ns += tr.stamp() - before;
            }
        }
    }

    /// Run the closed loop for `dur` and report what it did. Of the CPU
    /// time, the generator's sleeps are left out: at 5 000 wake-ups a
    /// second they cost three times what the whole cluster does, and they
    /// are the benchmark's, not the program's.
    fn window(&mut self, tr: &mut Tracer, parent: SpanId, dur: Duration) -> UdpWindow {
        let (n0, cpu0, sleep0, t) =
            (self.done.len(), sys::cpu_ns(), self.sleep_cpu_ns, Instant::now());
        self.drive(tr, parent, dur, true);
        let wall_s = t.elapsed().as_secs_f64();
        let cpu = (sys::cpu_ns() - cpu0).saturating_sub(self.sleep_cpu_ns - sleep0);
        let mut latency_ns = self.done[n0..].to_vec();
        latency_ns.sort_unstable();
        UdpWindow {
            ops: latency_ns.len() as u64,
            wall_s,
            sut_cpu_ns: cpu,
            latency_ns,
            rss_mb: sys::rss_mb(),
        }
    }

    /// Stop issuing, wait for what is outstanding, run the final checks
    /// and stop the cluster. Returns how many ops never arrived.
    fn retire(mut self, tr: &mut Tracer, failures: &mut Vec<String>) -> u64 {
        self.drive(tr, NONE, UDP_GRACE, false);
        self.checker.finish(1);
        failures.append(&mut self.checker.failures);
        if self.wrong_channel > 0 {
            failures
                .push(format!("{} deliveries arrived on the wrong channel", self.wrong_channel));
        }
        self.bed.shutdown(tr, NONE);
        self.outstanding as u64
    }
}

struct UdpStartup {
    leader_elect_ms: f64,
    idle_syscalls_per_s: f64,
    idle_cpu_pct: f64,
}

fn run_udp(args: &Args) -> Outcome {
    let outcome = if args.trace { run_udp_traced(args) } else { run_udp_untraced(args) };
    outcome.unwrap_or_else(|e| Outcome {
        attempted: 1,
        failed: 1,
        failures: vec![e],
        metrics: Values::new(if args.trace { PER_LAYER } else { END_TO_END }),
        notes: Vec::new(),
    })
}

/// Set-up: bind, elect a controller leader, start the clients and run the
/// closed loop for the warm-up time. Returns the seconds since `since`.
fn udp_setup(
    tr: &mut Tracer,
    seed: u64,
    probe_idle: bool,
    since: Instant,
) -> Result<(UdpLoop, UdpStartup, f64), String> {
    let (mut lp, startup) = UdpLoop::start(tr, seed, probe_idle)?;
    lp.drive(tr, NONE, UDP_WARMUP, true);
    Ok((lp, startup, since.elapsed().as_secs_f64()))
}

/// The untraced run: the end-to-end metrics.
fn run_udp_untraced(args: &Args) -> Result<Outcome, String> {
    let mut tr = Tracer::new(false);
    let mut notes = Vec::new();
    let mut failures = Vec::new();

    // One fresh cluster per window: set-up, then a timed window of an
    // equal share of `--seconds`, then the drain and the checks.
    let window = Duration::from_secs_f64(args.seconds / UDP_CLUSTERS as f64);
    let mut setup_s = Vec::new();
    let mut windows: Vec<UdpWindow> = Vec::new();
    let (mut attempted, mut failed, mut decode_errors) = (0u64, 0u64, 0u64);
    for k in 0..UDP_CLUSTERS {
        let since = if k == 0 { args.started } else { Instant::now() };
        let seed = args.seed.wrapping_mul(UDP_CLUSTERS as u64).wrapping_add(k as u64);
        let (mut lp, _, secs) = udp_setup(&mut tr, seed, false, since)?;
        setup_s.push(secs);
        let c0 = lp.bed.counters(&mut tr, NONE);
        let w = lp.window(&mut tr, NONE, window);
        decode_errors += lp.bed.counters(&mut tr, NONE).since(&c0).decode_errors;
        let issued = w.ops + lp.outstanding as u64;
        let lost = lp.retire(&mut tr, &mut failures);
        if lost > 0 {
            failures.push(format!("cluster {k}: {lost} of {issued} ops not delivered within 5 s"));
        }
        attempted += issued;
        failed += lost;
        windows.push(w);
    }
    if decode_errors != 0 {
        failures.push(format!("udp.decode_errors = {decode_errors}"));
    }

    let mut latency_ns: Vec<u64> =
        windows.iter().flat_map(|w| w.latency_ns.iter().copied()).collect();
    latency_ns.sort_unstable();
    notes.push(format!(
        "closed loop, {UDP_SLOTS} clients over {UDP_PROCESSES} processes on loopback; {UDP_CLUSTERS} fresh clusters, \
         a {:.2} s window on each, {} ops",
        window.as_secs_f64(),
        latency_ns.len()
    ));
    notes.push(udp_latency_note(&latency_ns));
    // A cluster settles into one of a few regimes for as long as it lives
    // (an op takes 64, 72 or 80 ms, now and then several hundred), so one
    // cluster's window says which regime it drew, not what the code does.
    // Each figure is taken per cluster and the middle half of the clusters
    // is averaged.
    let mut per_cluster = |name: &str, f: &dyn Fn(&UdpWindow) -> f64| {
        let v: Vec<f64> = windows.iter().map(f).collect();
        let each: Vec<String> = v.iter().map(|x| format!("{x:.1}")).collect();
        notes.push(format!("{name} per cluster: {}", each.join(" ")));
        midmean(&v)
    };
    let p50 = per_cluster("deliver_p50_us", &|w| quantile_us(&w.latency_ns, 0.50));
    let p95 = per_cluster("deliver_p95_us", &|w| quantile_us(&w.latency_ns, 0.95));
    let rate = per_cluster("msgs_per_wall_s", &|w| w.ops as f64 / w.wall_s);
    // The peak of the process follows the one cluster in eight that swelled
    // for a moment (9 MB, or 13, or 18); what the process holds as each
    // window closes is the figure that repeats.
    let rss_mb = per_cluster("peak_rss_mb", &|w| w.rss_mb);
    notes.push(format!("peak of the process (VmHWM): {:.2} MB", sys::peak_rss_mb()));
    let setup = summarize(&setup_s);
    notes.push(format!("setup_s of {} set-ups: {:?}", setup.n, setup_s));
    let mut e2e = Values::new(END_TO_END);
    e2e.set("deliver_p50_us", p50);
    e2e.set("deliver_p95_us", p95);
    e2e.set("msgs_per_wall_s", rate);
    e2e.set("peak_rss_mb", rss_mb);
    e2e.set("setup_s", setup.median);
    Ok(Outcome { attempted, failed, failures, metrics: e2e, notes })
}

fn udp_latency_note(sorted_ns: &[u64]) -> String {
    format!(
        "latency: {} samples, {} distinct values, wall clock; all windows p50 {:.0} p90 {:.0} p95 {:.0} p99 {:.0} p99.9 {:.0} max {:.0} us",
        sorted_ns.len(),
        distinct(sorted_ns),
        quantile_us(sorted_ns, 0.50),
        quantile_us(sorted_ns, 0.90),
        quantile_us(sorted_ns, 0.95),
        quantile_us(sorted_ns, 0.99),
        quantile_us(sorted_ns, 0.999),
        quantile_us(sorted_ns, 1.0),
    )
}

/// The traced run: one cluster, watched idle first; the first half of the
/// window runs untraced and the second half records spans, and the two
/// rates give the tracing overhead.
fn run_udp_traced(args: &Args) -> Result<Outcome, String> {
    let mut tr = Tracer::new(false);
    let mut notes = Vec::new();
    let mut failures = Vec::new();

    let (mut lp, startup, _) = udp_setup(&mut tr, args.seed, true, args.started)?;
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let c0 = lp.bed.counters(&mut tr, NONE);
    let opened = Instant::now();
    let untraced = lp.window(&mut tr, NONE, half);
    let untraced_rate = untraced.ops as f64 / untraced.wall_s;
    let untraced_cpu_us = untraced.sut_cpu_ns as f64 / 1e3 / untraced.ops.max(1) as f64;
    tr.set_on(true);
    let traced_span = tr.begin("workload", NONE, NO_OP);
    let traced = lp.window(&mut tr, traced_span, half);
    tr.end(traced_span);
    tr.set_on(false);
    let wall_s = opened.elapsed().as_secs_f64();
    let c = lp.bed.counters(&mut tr, NONE).since(&c0);
    let in_window = untraced.ops + traced.ops;
    let mut latency_ns = [untraced.latency_ns, traced.latency_ns].concat();
    latency_ns.sort_unstable();
    let attempted = in_window + lp.outstanding as u64;
    let (empty_polls, empty_poll_ns, slept_ns) =
        (lp.bed.empty_polls, lp.bed.empty_poll_ns, lp.slept_ns);
    let lost = lp.retire(&mut tr, &mut failures);
    if lost > 0 {
        failures.push(format!("{lost} of {attempted} ops were not delivered within 5 s"));
    }
    if c.decode_errors != 0 {
        failures.push(format!("udp.decode_errors = {}", c.decode_errors));
    }
    notes.push(format!(
        "closed loop, {UDP_SLOTS} clients over {UDP_PROCESSES} processes on loopback, one cluster, {wall_s:.3} s window, {in_window} ops"
    ));
    notes.push(udp_latency_note(&latency_ns));

    // ---- traced run: per-layer figures ----
    let mut layers = Values::new(PER_LAYER);
    let ops = (in_window as f64).max(1.0);
    layers.set("udp.rx_frames", c.rx_frames as f64);
    layers.set("udp.tx_frames", c.tx_frames as f64);
    layers.set("udp.rx_datagrams", c.rx_datagrams as f64);
    layers.set("udp.tx_datagrams", c.tx_datagrams as f64);
    layers.set(
        "udp.msgs_per_syscall",
        (c.rx_datagrams + c.tx_datagrams) as f64 / c.syscalls().max(1) as f64,
    );
    layers.set("udp.syscalls_per_op", c.syscalls() as f64 / ops);
    layers.set("udp.datagrams_per_op", c.tx_datagrams as f64 / ops);
    layers.set("udp.bytes_per_op", c.tx_bytes as f64 / ops);
    layers.set("udp.tx_singleton_ratio", c.tx_singleton_frames as f64 / c.tx_frames.max(1) as f64);
    layers.set("udp.decode_errors", c.decode_errors as f64);
    layers.set("udp.idle_syscalls_per_s", startup.idle_syscalls_per_s);
    layers.set("udp.idle_cpu_pct", startup.idle_cpu_pct);
    layers.set("controller.leader_elect_ms", startup.leader_elect_ms);
    layers.set("bench.cpu_us_per_msg", untraced_cpu_us);
    layers.set("controller.ctrl_retries", c.ctrl_retries as f64);
    notes.push(format!(
        "frames: {:.0}/s in the window, {:.0}/s idle",
        c.syscalls() as f64 / wall_s,
        startup.idle_syscalls_per_s
    ));

    let traced_ns = tr.duration_ns(traced_span) as f64;
    let traced_ops = tr.spans.iter().filter(|s| s.name == "op" && s.parent == traced_span).count();
    let traced_rate = traced_ops as f64 / (traced_ns / 1e9);
    layers.set("bench.trace_overhead_pct", (untraced_rate - traced_rate) / untraced_rate * 100.0);
    // Op spans overlap the call spans, so the generator's own share is
    // what the calls into the cluster and the sleeps leave of the window.
    let calls: u64 = ["UdpProcess::send_reliable", "UdpProcess::try_recv_all"]
        .iter()
        .map(|n| tr.children_ns(traced_span, Some(n)))
        .sum();
    let own = traced_ns - (calls + empty_poll_ns + slept_ns) as f64;
    layers.set("bench.generator_share", (own / traced_ns).max(0.0));
    notes.push(format!(
        "generator: {empty_polls} empty polls took {:.1} ms, slept {:.1} ms of {:.1} ms traced",
        empty_poll_ns as f64 / 1e6,
        slept_ns as f64 / 1e6,
        traced_ns / 1e6
    ));

    tr.set_on(true);
    let kernel_span = tr.begin("kernels", NONE, NO_OP);
    for (name, v) in kernels(&mut tr, kernel_span, 64) {
        layers.set(name, v);
    }
    tr.end(kernel_span);
    notes.push(format!(
        "msgs_per_wall_s untraced half {untraced_rate:.1}, traced half {traced_rate:.1}; {} spans",
        tr.spans.len()
    ));
    if let Err(e) = tr.write_jsonl(&args.trace_path) {
        failures.push(format!("writing {}: {e}", args.trace_path.display()));
    }
    Ok(Outcome { attempted, failed: lost, failures, metrics: layers, notes })
}
