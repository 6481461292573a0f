//! Order statistics used for every reported number.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the driver applies to
//! the ten runs it compares — `--check-repeat` must agree with it.

/// Median, quartiles and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Exclusive-method quantile `k/4` of an ascending slice (n >= 2).
fn quartile(sorted: &[f64], k: usize) -> f64 {
    let n = sorted.len();
    let pos = k * (n + 1);
    let j = (pos / 4).clamp(1, n - 1);
    let delta = pos as f64 / 4.0 - j as f64;
    sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
}

/// Summarise a sample. A single value is its own median and quartiles; an
/// empty sample summarises to zeros with `n == 0`.
pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    match v.len() {
        0 => Summary {
            n: 0,
            median: 0.0,
            q1: 0.0,
            q3: 0.0,
        },
        1 => Summary {
            n: 1,
            median: v[0],
            q1: v[0],
            q3: v[0],
        },
        n => Summary {
            n,
            median: quartile(&v, 2),
            q1: quartile(&v, 1),
            q3: quartile(&v, 3),
        },
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Interquartile mean: the mean of the middle half of the sample (the lowest
/// and the highest `n / 4` values are dropped); 0 when empty.
///
/// What a run reports for a performance metric from its per-world values.
/// Worlds come in kinds: a two-rank world settles into one of two yield
/// phase-locks for its whole life (8 B in-process round trips of 4.2 or
/// 5.1 us, about half the worlds each, the share drifting from run to run),
/// and a few worlds in a hundred are disturbed from outside. The median jumps
/// between the two kinds when the share crosses one half (ten runs spread
/// 10 %), the plain mean follows every disturbed world (8 % on `p2p_shm`);
/// the interquartile mean moves smoothly with the share and ignores the
/// tails (7 % and 4 %). On one-kind workloads it repeats as the median does.
pub fn midmean(values: &[f64]) -> f64 {
    let v = sorted(values);
    let middle = &v[v.len() / 4..v.len() - v.len() / 4];
    if middle.is_empty() {
        return 0.0;
    }
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Nearest-rank percentile `p` (0..=100) of a sample; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of p50/p90/p99/p99.9 that still has at least ten samples
/// beyond it — a tail percentile resting on fewer is one or two scheduler
/// hiccups, not a property of the program.
pub fn highest_supported_percentile(n: usize) -> f64 {
    // (percentile, one sample in how many lies beyond it); whole numbers,
    // so that exactly ten samples beyond counts.
    [(99.9, 1000), (99.0, 100), (90.0, 10)]
        .into_iter()
        .find(|&(_, one_in)| n >= 10 * one_in)
        .map_or(50.0, |(p, _)| p)
}

/// `percentile(values, wanted)`, demoted to the highest percentile the
/// sample supports under the ten-samples-beyond rule.
pub fn tail(values: &[f64], wanted: f64) -> f64 {
    percentile(
        values,
        wanted.min(highest_supported_percentile(values.len())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_samples() {
        assert_eq!(summarize(&[]).n, 0);
        let one = summarize(&[4.0]);
        assert_eq!((one.q1, one.median, one.q3, one.n), (4.0, 4.0, 4.0, 1));
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn midmean_drops_the_outer_quarters() {
        assert_eq!(midmean(&[]), 0.0);
        assert_eq!(midmean(&[3.0]), 3.0);
        assert_eq!(midmean(&[1.0, 2.0, 6.0]), 3.0);
        // Eight values: two dropped on each side, whatever they are.
        assert_eq!(
            midmean(&[1000.0, 4.0, 5.0, -7.0, 6.0, 7.0, 0.0, 900.0]),
            5.5
        );
        // Two kinds of world half and half: between them, not on one.
        assert_eq!(midmean(&[4.0, 4.0, 4.0, 4.0, 5.0, 5.0, 5.0, 5.0]), 4.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(highest_supported_percentile(19), 50.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(999), 90.0);
        assert_eq!(highest_supported_percentile(1000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
        // 100 samples cannot carry a p99: it is demoted to p90.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 99.0), 90.0);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 99.0), 990.0);
    }
}
