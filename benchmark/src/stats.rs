//! The benchmark's one percentile routine and the summaries built on it.
//!
//! Quantiles are in `[0, 1]`. (`netsim::stats::Samples::percentile` takes
//! the same range, and `log_sweep` passing `50.0`/`99.0` to it is why
//! `BENCH_log.json` shows p50 == p99; see the README's findings.)

/// Nearest-rank quantile of `sorted` (ascending): the smallest sample with
/// at least `q · n` samples at or below it. Returns the sample count with
/// the value so that it is printed beside every latency.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> Option<(T, usize)> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} is not in [0, 1]");
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some((sorted[rank - 1], n))
}

/// Median and quartiles of a handful of per-repetition values.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

/// Summarise per-repetition measurements; the median of an even count is
/// the mean of the two middle values, so it always moves with the data.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "no repetitions to summarise");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 };
    let (q1, _) = percentile(&v, 0.25).expect("non-empty");
    let (q3, _) = percentile(&v, 0.75).expect("non-empty");
    Summary { q1, median, q3, n }
}

/// Mean of the middle half of `values`: the lowest and the highest quarter
/// (rounded down) are dropped and the rest averaged. It moves as little as
/// a median when a few values are far out, and less than a median when the
/// values sit on a few distinct levels, where a median jumps between them.
pub fn midmean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "nothing to average");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let drop = v.len() / 4;
    let middle = &v[drop..v.len() - drop];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Time a window of deterministic work takes when the machine is left
/// alone. `segments_by_rep[r][k]` is how long repetition r took over
/// segment k; every repetition does identical work in segment k, so its
/// cost is taken as quantile `q` of its times across the repetitions (0:
/// the fastest seen), and the window is the sum over k. Interference from
/// other tenants of the host only ever adds time, and it comes in bursts
/// of seconds: it has to cover the same segment in every repetition to
/// reach the minimum, where it only has to cover half of the repetitions
/// to move their median.
pub fn undisturbed_ns(segments_by_rep: &[&[u64]], q: f64) -> u64 {
    let segments = segments_by_rep[0].len();
    assert!(
        segments_by_rep.iter().all(|r| r.len() == segments),
        "repetitions were not cut into the same segments"
    );
    let mut across = Vec::with_capacity(segments_by_rep.len());
    (0..segments)
        .map(|k| {
            across.clear();
            across.extend(segments_by_rep.iter().map(|r| r[k]));
            across.sort_unstable();
            percentile(&across, q).expect("at least one repetition").0
        })
        .sum()
}

/// Number of distinct values in a sorted slice.
pub fn distinct<T: PartialEq>(sorted: &[T]) -> usize {
    if sorted.is_empty() {
        return 0;
    }
    1 + sorted.windows(2).filter(|w| w[0] != w[1]).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_a_known_vector() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), Some((50, 100)));
        assert_eq!(percentile(&v, 0.99), Some((99, 100)));
        assert_eq!(percentile(&v, 1.0), Some((100, 100)));
        assert_eq!(percentile(&v, 0.0), Some((1, 100)));
        // p50 and p99 differ whenever the data do: the units bug this
        // routine exists to avoid would return 100 for both.
        assert_eq!(percentile(&[10u64, 20, 30, 40], 0.5), Some((20, 4)));
        assert_eq!(percentile(&[7u64], 0.99), Some((7, 1)));
        assert_eq!(percentile::<u64>(&[], 0.5), None);
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn a_percent_is_not_a_quantile() {
        percentile(&[1u64, 2, 3], 50.0);
    }

    #[test]
    fn a_burst_in_one_repetition_does_not_reach_the_estimate() {
        // Three repetitions of four segments costing 10, 20, 30, 40; a
        // burst triples two segments of one repetition and one of another.
        let clean = [10u64, 20, 30, 40];
        let hit_a = [10u64, 60, 90, 40];
        let hit_b = [30u64, 20, 30, 40];
        let reps: [&[u64]; 3] = [&hit_a, &clean, &hit_b];
        assert_eq!(undisturbed_ns(&reps, 0.0), 100);
        assert_eq!(undisturbed_ns(&reps, 0.5), 100);
        assert_eq!(undisturbed_ns(&reps, 1.0), 30 + 60 + 90 + 40);
        // Whole repetitions would have said 100, 120 and 200.
    }

    #[test]
    fn midmean_ignores_the_outer_quarters() {
        // Eight clusters: one degraded (10x), levels 64 / 72 / 80 otherwise.
        let v = [72.0, 640.0, 64.0, 72.0, 80.0, 72.0, 64.0, 80.0];
        assert_eq!(midmean(&v), (72.0 + 72.0 + 72.0 + 80.0) / 4.0);
        assert_eq!(midmean(&[3.0]), 3.0);
        assert_eq!(midmean(&[1.0, 2.0, 9.0]), 4.0);
    }

    #[test]
    fn summary_of_repetitions() {
        let s = summarize(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        assert_eq!(summarize(&[1.0, 2.0, 3.0, 10.0]).median, 2.5);
        assert_eq!(distinct(&[1, 1, 2, 5, 5, 5]), 3);
    }
}
