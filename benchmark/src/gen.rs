//! Seeded input generation, owned by the benchmark: Poisson arrival gaps and
//! uniform / Zipf destination choice over a SplitMix64 stream. Nothing here
//! depends on the repository's `rand` stand-in, so a later change to that
//! crate cannot change the inputs a seed produces.
//!
//! The existing figure drivers submit on an aligned grid, which collapses
//! the simulated latency distribution to two values; the exponential gaps
//! are what spread sends over the beacon phase and give `deliver_p95_us` a
//! meaning.

/// SplitMix64 (Steele, Lea, Flood 2014): a 64-bit state, full period.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for `(seed, lane)`: the lane is mixed through
    /// one SplitMix64 step so neighbouring lanes do not start correlated.
    pub fn for_lane(seed: u64, lane: u64) -> Self {
        let mut r = Rng(seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1]: never 0, so its logarithm is finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; the modulo bias is below 2^-40 for the small
    /// `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// One exponential gap with the given mean, at least 1 ns.
    pub fn exp_gap_ns(&mut self, mean_ns: f64) -> u64 {
        ((-self.unit().ln() * mean_ns) as u64).max(1)
    }
}

/// Zipf(θ) over `[0, n)`, rank 0 most popular, by inverse CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        (self.cdf.partition_point(|&c| c < u) as u64).min(self.cdf.len() as u64 - 1)
    }
}

/// One scheduled operation. Its index in the schedule is its op id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Offset from the start of the traffic window, ns.
    pub at: u64,
    /// Issuing source (process or client index).
    pub src: u32,
    /// Target chosen by the workload's picker (process or stream).
    pub target: u32,
}

/// Superpose one Poisson process per source, each at `rate_per_source`
/// arrivals/s over `[0, dur_ns)`, and order the result by time. `pick`
/// draws each arrival's target from the source's own stream.
pub fn poisson_schedule(
    seed: u64,
    sources: u32,
    rate_per_source: f64,
    dur_ns: u64,
    mut pick: impl FnMut(&mut Rng, u32) -> u32,
) -> Vec<Arrival> {
    let mean_gap = 1e9 / rate_per_source;
    let mut out = Vec::new();
    for src in 0..sources {
        let mut rng = Rng::for_lane(seed, src as u64);
        let mut t = rng.exp_gap_ns(mean_gap);
        while t < dur_ns {
            let target = pick(&mut rng, src);
            out.push(Arrival { at: t, src, target });
            t += rng.exp_gap_ns(mean_gap);
        }
    }
    out.sort_by_key(|a| (a.at, a.src));
    out
}

/// Uniform peer other than `src` among `n` processes.
pub fn uniform_peer(rng: &mut Rng, src: u32, n: u32) -> u32 {
    let q = rng.below(n as u64 - 1) as u32;
    if q >= src {
        q + 1
    } else {
        q
    }
}

/// Payload size of every operation, bytes.
pub const PAYLOAD_LEN: usize = 64;

/// A 64 B payload carrying the op id in its first 8 bytes, so a delivery
/// is joined to its schedule entry by indexing a `Vec`, not by hashing.
pub fn payload(op: u64) -> [u8; PAYLOAD_LEN] {
    let mut p = [0xA5u8; PAYLOAD_LEN];
    p[..8].copy_from_slice(&op.to_be_bytes());
    p
}

/// The op id a payload carries; `None` if it is not one of ours.
pub fn op_of(payload: &[u8]) -> Option<u64> {
    if payload.len() != PAYLOAD_LEN {
        return None;
    }
    Some(u64::from_be_bytes(payload[..8].try_into().expect("8 bytes")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_carries_op_id() {
        assert_eq!(op_of(&payload(0xDEAD_BEEF_0123)), Some(0xDEAD_BEEF_0123));
        assert_eq!(op_of(b"short"), None);
    }

    #[test]
    fn one_seed_gives_one_schedule() {
        let mk = |seed| poisson_schedule(seed, 8, 1e6, 1_000_000, |r, s| uniform_peer(r, s, 8));
        let a = mk(7);
        assert_eq!(a, mk(7));
        assert_ne!(a, mk(8));
        // Ordered by time, never self-addressed, about rate × duration × sources.
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a.iter().all(|x| x.src != x.target && x.target < 8 && x.at < 1_000_000));
        assert!((7_000..9_000).contains(&a.len()), "got {}", a.len());
    }

    #[test]
    fn gaps_are_not_a_grid() {
        let a = poisson_schedule(3, 1, 1e6, 10_000_000, |_, _| 0);
        let mut gaps: Vec<u64> = a.windows(2).map(|w| w[1].at - w[0].at).collect();
        gaps.sort_unstable();
        gaps.dedup();
        assert!(gaps.len() > 1_000, "only {} distinct gaps", gaps.len());
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(1024, 0.99);
        let mut rng = Rng::new(1);
        let mut hits = [0u32; 1024];
        for _ in 0..100_000 {
            hits[z.sample(&mut rng) as usize] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[10] && hits[10] > hits[500]);
        // θ = 0.99 over 1024 keys puts about 13 % of the mass on rank 0.
        assert!((10_000..17_000).contains(&hits[0]), "rank 0 drew {}", hits[0]);
    }
}
