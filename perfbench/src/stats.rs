//! Sample statistics of the benchmark: medians, means and the tail
//! percentile rule (the highest percentile with at least
//! [`TAIL_BEYOND`] samples beyond it).

/// Percentiles the tail statistic may report, ascending.
pub const TAIL_GRID: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples a tail percentile must leave strictly above its rank.
pub const TAIL_BEYOND: usize = 10;

/// Zero-based nearest-rank index of percentile `pct` in `n` sorted
/// samples: the smallest rank `r` with `r / n ≥ pct / 100`.
pub fn rank_index(n: usize, pct: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    let r = (pct / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Percentile `pct` of `samples` by nearest rank.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank_index(v.len(), pct)]
}

/// Median by nearest rank (the lower middle of an even sample).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean (`0` for an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// A tail latency with the percentile it was taken at and the number of
/// samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (`50` with fewer than [`TAIL_BEYOND`] samples
    /// beyond it when the sample is too small for any tail percentile).
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples strictly above its rank.
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
}

/// The highest [`TAIL_GRID`] percentile with at least [`TAIL_BEYOND`]
/// samples ranked beyond it.  A sample of fewer than 20 has no such
/// percentile: its tail falls back to the median, whose `beyond` then
/// shows that no tail was resolved (a maximum of a few samples would
/// only measure the rarest event of the run).
pub fn tail(samples: &[f64]) -> Tail {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mid = rank_index(n, 50.0);
    let mut best = Tail {
        pct: 50.0,
        value: v[mid],
        beyond: n - 1 - mid,
        n,
    };
    for &pct in TAIL_GRID.iter() {
        let i = rank_index(n, pct);
        let beyond = n - 1 - i;
        if beyond >= TAIL_BEYOND {
            best = Tail {
                pct,
                value: v[i],
                beyond,
                n,
            };
        }
    }
    best
}

/// The tail at percentile `pct` when at least [`TAIL_BEYOND`] samples
/// rank beyond it, else the [`tail`] rule's.  A workload fixes its
/// percentile — the highest grid percentile that every run of it leaves
/// ten samples beyond — so that runs of different speeds report the same
/// statistic rather than flipping between two grid percentiles as their
/// sample count crosses a threshold.
pub fn tail_at(samples: &[f64], pct: f64) -> Tail {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let i = rank_index(n, pct);
    let beyond = n - 1 - i;
    if beyond >= TAIL_BEYOND {
        Tail {
            pct,
            value: v[i],
            beyond,
            n,
        }
    } else {
        tail(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_indices() {
        assert_eq!(rank_index(1, 50.0), 0);
        assert_eq!(rank_index(10, 50.0), 4);
        assert_eq!(rank_index(11, 50.0), 5);
        assert_eq!(rank_index(100, 90.0), 89);
        assert_eq!(rank_index(100, 100.0), 99);
        assert_eq!(rank_index(3, 0.0), 0);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_takes_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 is rank 90 with 10 above it; p95 would leave only 5.
        let t = tail(&v);
        assert_eq!((t.pct, t.value, t.beyond, t.n), (90.0, 90.0, 10, 100));

        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.pct, t.value, t.beyond), (75.0, 30.0, 10));

        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 1980.0, 20));
    }

    #[test]
    fn fixed_tail_percentile_does_not_follow_the_sample_count() {
        // 2000 samples would give p99 by the grid rule; p95 is kept.
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail_at(&v, 95.0);
        assert_eq!((t.pct, t.value, t.beyond), (95.0, 1900.0, 100));
        // Too few samples beyond p95: the grid rule decides.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_at(&v, 95.0), tail(&v));
        assert_eq!(tail_at(&v, 90.0).pct, 90.0);
    }

    #[test]
    fn tail_of_a_small_sample_falls_back_to_its_median() {
        let t = tail(&[3.0, 9.0, 1.0]);
        assert_eq!((t.pct, t.value, t.beyond, t.n), (50.0, 3.0, 1, 3));
        let t = tail(&[4.0]);
        assert_eq!((t.pct, t.value, t.beyond, t.n), (50.0, 4.0, 0, 1));
        // 20 samples: p50 is rank 10 with exactly 10 beyond.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!((tail(&v).pct, tail(&v).beyond), (50.0, 10));
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!((tail(&v).pct, tail(&v).beyond), (50.0, 9));
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
