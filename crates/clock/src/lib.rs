//! Clock synchronization substrate for 1Pipe.
//!
//! The paper's testbed synchronizes host clocks "via PTP every 125 ms,
//! achieving an average clock skew of 0.3 µs (1.0 µs at 95% percentile)"
//! (§7.1). Correctness of 1Pipe never depends on skew — skew only delays
//! delivery — but the *latency* results do, so we model it faithfully:
//!
//! * every host owns a [`DriftClock`]: a free-running oscillator with a
//!   constant drift rate (tens of ppm, as real crystals have) plus a
//!   time-varying offset;
//! * a [`SyncDiscipline`] applies PTP-style corrections every sync interval,
//!   leaving a residual offset error sampled from a normal distribution;
//! * [`MonotonicClock`] wraps the above and enforces the non-decreasing
//!   reads that 1Pipe requires of message timestamps (§2.1): corrections
//!   that would step the clock backwards are absorbed by holding the value
//!   until real time catches up.
//!
//! [`ClockFleet`] manages one clock per host deterministically from a seed
//! and can report the skew distribution, which `tab_clock_sync` compares
//! against the paper's numbers.

#![warn(missing_docs)]

use onepipe_types::time::{Duration, Timestamp, MILLIS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Default PTP sync interval used in the paper's testbed (125 ms).
pub const DEFAULT_SYNC_INTERVAL: Duration = 125 * MILLIS;

/// Residual sync error (standard deviation) that reproduces the paper's
/// 0.3 µs average / 1.0 µs p95 absolute skew between host pairs.
///
/// If per-host offsets are N(0, σ), the difference of two hosts' offsets is
/// N(0, σ√2); E|X| = σ√2·√(2/π) ≈ 1.128σ and p95|X| ≈ 1.96·σ√2 ≈ 2.77σ.
/// σ ≈ 190 ns yields avg ≈ 0.21 µs, p95 ≈ 0.53 µs before drift; drift
/// accumulation between 125 ms syncs brings the measured numbers to
/// ≈ 0.35 µs mean / ≈ 0.95 µs p95, matching the paper.
pub const DEFAULT_RESIDUAL_STD_NS: f64 = 190.0;

/// Maximum *residual* drift magnitude in parts-per-million. Raw crystals
/// run at ±50 ppm, but a PTP servo disciplines frequency as well as
/// offset, leaving a few ppm of residual wander between syncs.
pub const DEFAULT_MAX_DRIFT_PPM: f64 = 2.5;

/// Draw a normal variate via Box–Muller (rand's `Normal` lives in the
/// `rand_distr` crate, which we avoid adding for one function).
pub fn sample_normal(rng: &mut StdRng, mean: f64, std: f64) -> f64 {
    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    mean + std * z
}

/// A free-running host oscillator.
///
/// Maps *true* (simulator/master) time to the host's local reading:
/// `local(t) = t + offset + drift_ppm · 1e-6 · (t − epoch)`.
#[derive(Clone, Debug)]
pub struct DriftClock {
    /// Fixed frequency error of the oscillator, parts-per-million.
    drift_ppm: f64,
    /// Offset (ns) of local time relative to true time, as of `epoch`.
    offset_ns: f64,
    /// True time at which `offset_ns` was last established.
    epoch: u64,
}

impl DriftClock {
    /// A perfect clock: zero drift, zero offset.
    pub fn perfect() -> Self {
        DriftClock { drift_ppm: 0.0, offset_ns: 0.0, epoch: 0 }
    }

    /// A clock with the given drift and initial offset.
    pub fn new(drift_ppm: f64, offset_ns: f64) -> Self {
        DriftClock { drift_ppm, offset_ns, epoch: 0 }
    }

    /// The oscillator's drift rate in ppm.
    pub fn drift_ppm(&self) -> f64 {
        self.drift_ppm
    }

    /// Read the local clock at true time `true_now` (nanoseconds).
    #[inline]
    pub fn read(&self, true_now: u64) -> u64 {
        let elapsed = true_now.saturating_sub(self.epoch) as f64;
        let local = true_now as f64 + self.offset_ns + self.drift_ppm * 1e-6 * elapsed;
        local.max(0.0) as u64
    }

    /// Current offset from true time, in nanoseconds (signed).
    pub fn offset_at(&self, true_now: u64) -> f64 {
        self.read(true_now) as f64 - true_now as f64
    }

    /// Apply a sync correction: after this call the clock's offset at
    /// `true_now` equals `residual_ns` and drift starts accumulating anew.
    pub fn correct(&mut self, true_now: u64, residual_ns: f64) {
        self.offset_ns = residual_ns;
        self.epoch = true_now;
    }
}

/// Periodic PTP-style synchronization parameters.
#[derive(Clone, Copy, Debug)]
pub struct SyncDiscipline {
    /// Interval between sync rounds (paper: 125 ms).
    pub interval: Duration,
    /// Standard deviation of the residual per-host offset after each sync.
    pub residual_std_ns: f64,
}

impl Default for SyncDiscipline {
    fn default() -> Self {
        SyncDiscipline { interval: DEFAULT_SYNC_INTERVAL, residual_std_ns: DEFAULT_RESIDUAL_STD_NS }
    }
}

/// A host clock that is periodically synchronized and whose reads are
/// forced to be non-decreasing.
///
/// 1Pipe requires each host's message timestamps to be monotone (§2.1); a
/// PTP step that would move the clock backwards is therefore *slewed*: the
/// reading is held at its previous maximum until the corrected clock passes
/// it. This mirrors how production time daemons discipline clocks.
#[derive(Clone, Debug)]
pub struct MonotonicClock {
    osc: DriftClock,
    discipline: SyncDiscipline,
    next_sync: u64,
    last_reading: u64,
    rng: StdRng,
}

impl MonotonicClock {
    /// Create a clock with the given oscillator, discipline and RNG seed
    /// (the seed determines the residual-error sequence).
    pub fn new(osc: DriftClock, discipline: SyncDiscipline, seed: u64) -> Self {
        MonotonicClock {
            osc,
            discipline,
            next_sync: discipline.interval,
            last_reading: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A perfect, never-corrected clock (useful in unit tests).
    pub fn perfect() -> Self {
        let discipline = SyncDiscipline { interval: DEFAULT_SYNC_INTERVAL, residual_std_ns: 0.0 };
        Self::new(DriftClock::perfect(), discipline, 0)
    }

    /// Read the clock at true time `true_now`, applying any sync rounds
    /// that are due and enforcing monotonicity. Inline: every host event
    /// reads its clock, and a sync round is due once per 125 ms.
    #[inline]
    pub fn now(&mut self, true_now: u64) -> Timestamp {
        if true_now >= self.next_sync {
            self.sync_until(true_now);
        }
        let raw = self.osc.read(true_now);
        self.last_reading = self.last_reading.max(raw);
        Timestamp::from_raw(self.last_reading)
    }

    /// Apply every sync round due at or before `true_now`.
    #[inline(never)]
    fn sync_until(&mut self, true_now: u64) {
        while true_now >= self.next_sync {
            let at = self.next_sync;
            let residual = sample_normal(&mut self.rng, 0.0, self.discipline.residual_std_ns);
            self.osc.correct(at, residual);
            self.next_sync += self.discipline.interval;
        }
    }

    /// The instantaneous offset from true time (ns, signed), for telemetry.
    pub fn offset_at(&self, true_now: u64) -> f64 {
        self.osc.offset_at(true_now)
    }

    /// Inject a sudden skew spike of `offset_ns` (signed) at true time
    /// `true_now` — a chaos-testing fault. A positive spike steps the
    /// clock forward; a negative one is absorbed by the monotonic slew
    /// (readings hold at their maximum until real time catches up), so
    /// timestamps never regress. The next sync round pulls the clock
    /// back toward true time as usual.
    pub fn perturb(&mut self, true_now: u64, offset_ns: f64) {
        let current = self.osc.offset_at(true_now);
        self.osc.correct(true_now, current + offset_ns);
    }
}

/// A deterministic fleet of per-host clocks.
pub struct ClockFleet {
    clocks: Vec<MonotonicClock>,
}

impl ClockFleet {
    /// Create `n` clocks with random drifts/offsets derived from `seed`.
    pub fn new(n: usize, discipline: SyncDiscipline, seed: u64) -> Self {
        let mut seeder = StdRng::seed_from_u64(seed);
        let clocks = (0..n)
            .map(|_| {
                let drift = seeder.random_range(-DEFAULT_MAX_DRIFT_PPM..DEFAULT_MAX_DRIFT_PPM);
                let offset = sample_normal(&mut seeder, 0.0, discipline.residual_std_ns);
                let clock_seed = seeder.random_range(0..u64::MAX);
                MonotonicClock::new(DriftClock::new(drift, offset), discipline, clock_seed)
            })
            .collect();
        ClockFleet { clocks }
    }

    /// A fleet of perfect clocks (skew-free runs).
    pub fn perfect(n: usize) -> Self {
        ClockFleet { clocks: (0..n).map(|_| MonotonicClock::perfect()).collect() }
    }

    /// Number of clocks.
    pub fn len(&self) -> usize {
        self.clocks.len()
    }

    /// True when the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.clocks.is_empty()
    }

    /// Read host `i`'s clock at true time `true_now`.
    pub fn now(&mut self, i: usize, true_now: u64) -> Timestamp {
        self.clocks[i].now(true_now)
    }

    /// Mutable access to a host clock.
    pub fn clock_mut(&mut self, i: usize) -> &mut MonotonicClock {
        &mut self.clocks[i]
    }

    /// Measure pairwise absolute skew across the fleet at a set of sample
    /// instants. Returns all `|offset_i − offset_j|` samples in ns.
    pub fn skew_samples(&mut self, instants: &[u64]) -> Vec<f64> {
        let mut samples = Vec::new();
        for &t in instants {
            // Touch every clock so sync rounds fire.
            let offsets: Vec<f64> = (0..self.clocks.len())
                .map(|i| {
                    self.clocks[i].now(t);
                    self.clocks[i].offset_at(t)
                })
                .collect();
            for i in 0..offsets.len() {
                for j in (i + 1)..offsets.len() {
                    samples.push((offsets[i] - offsets[j]).abs());
                }
            }
        }
        samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onepipe_netsim::stats::Samples;
    use onepipe_types::time::{MICROS, SECONDS};

    #[test]
    fn perfect_clock_tracks_true_time() {
        let mut c = MonotonicClock::perfect();
        assert_eq!(c.now(0).raw(), 0);
        assert_eq!(c.now(1_000).raw(), 1_000);
        assert_eq!(c.now(5 * SECONDS).raw(), 5 * SECONDS);
    }

    #[test]
    fn drift_accumulates() {
        let c = DriftClock::new(10.0, 0.0); // +10 ppm
                                            // After 1 s, a +10 ppm clock is 10 µs ahead.
        assert_eq!(c.read(SECONDS), SECONDS + 10_000);
    }

    #[test]
    fn correction_resets_offset() {
        let mut c = DriftClock::new(10.0, 500.0);
        assert!(c.offset_at(SECONDS) > 10_000.0);
        c.correct(SECONDS, -100.0);
        assert!((c.offset_at(SECONDS) + 100.0).abs() < 1e-6);
        // Drift re-accumulates from the new epoch.
        assert!((c.offset_at(2 * SECONDS) - (-100.0 + 10_000.0)).abs() < 1.0);
    }

    #[test]
    fn monotone_under_backwards_step() {
        // Clock that runs fast, then gets stepped back hard at each sync.
        let osc = DriftClock::new(100.0, 0.0);
        let discipline = SyncDiscipline { interval: 10 * MILLIS, residual_std_ns: 0.0 };
        let mut c = MonotonicClock::new(osc, discipline, 1);
        let mut last = Timestamp::ZERO;
        for t in (0..(100 * MILLIS)).step_by((MILLIS / 2) as usize) {
            let now = c.now(t);
            assert!(now >= last, "clock went backwards at t={t}");
            last = now;
        }
    }

    #[test]
    fn monotone_under_random_syncs() {
        let mut fleet = ClockFleet::new(4, SyncDiscipline::default(), 42);
        for i in 0..4 {
            let mut last = Timestamp::ZERO;
            for t in (0..SECONDS).step_by((10 * MILLIS) as usize) {
                let now = fleet.now(i, t);
                assert!(now >= last);
                last = now;
            }
        }
    }

    #[test]
    fn fleet_is_deterministic() {
        let mut a = ClockFleet::new(8, SyncDiscipline::default(), 7);
        let mut b = ClockFleet::new(8, SyncDiscipline::default(), 7);
        for t in (0..SECONDS).step_by((50 * MILLIS) as usize) {
            for i in 0..8 {
                assert_eq!(a.now(i, t), b.now(i, t));
            }
        }
    }

    #[test]
    fn skew_matches_paper_band() {
        // Paper §7.1: avg 0.3 µs, p95 1.0 µs. Accept a generous band around
        // that: mean in [0.1, 0.6] µs, p95 in [0.3, 1.6] µs.
        let mut fleet = ClockFleet::new(32, SyncDiscipline::default(), 2021);
        let instants: Vec<u64> = (1..=40).map(|k| k * 60 * MILLIS).collect();
        let mut stats = Samples::new();
        fleet.skew_samples(&instants).into_iter().for_each(|v| stats.push(v / MICROS as f64));
        let (mean, p95) = (stats.mean(), stats.percentile(0.95));
        assert!((0.1..0.6).contains(&mean), "mean skew {mean} µs out of band");
        assert!((0.3..1.6).contains(&p95), "p95 skew {p95} µs out of band");
    }

    #[test]
    fn perfect_fleet_has_zero_skew() {
        let mut fleet = ClockFleet::perfect(4);
        let samples = fleet.skew_samples(&[MILLIS, SECONDS]);
        assert!(samples.iter().all(|&s| s == 0.0));
    }
}
