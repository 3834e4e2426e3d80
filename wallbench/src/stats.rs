//! Order statistics over a metric's samples.

/// The fast cluster of a mode's samples is those no slower than this many
/// times the fastest one. A phase of host contention slows a sample by
/// about 1.5× to 1.9× (NOTES.md), so the cluster holds the samples taken
/// in quiet phases.
pub const FAST_CLUSTER: f64 = 1.25;

/// Order statistics of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Median of the fast cluster (see [`FAST_CLUSTER`]).
    pub fast: f64,
}

impl Summary {
    /// Summarize `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        // At least the fastest sample, also when it is negative.
        let fast_n = s.partition_point(|&x| x <= FAST_CLUSTER * s[0]).max(1);
        Some(Summary {
            n: s.len(),
            min: s[0],
            q1: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            q3: quantile(&s, 0.75),
            p90: quantile(&s, 0.9),
            fast: quantile(&s[..fast_n], 0.5),
        })
    }
}

/// The `p` quantile of ascending `sorted`, interpolating at rank
/// `p · (n + 1)` clamped to the data: the "exclusive" method of Python's
/// `statistics.quantiles`, so for three or more samples the figures here
/// match what a script computes from the same samples.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let rank = (p * (n + 1) as f64).clamp(1.0, n as f64);
    let lo = rank.floor() as usize;
    let frac = rank - lo as f64;
    if lo >= n {
        return sorted[n - 1];
    }
    sorted[lo - 1] + (sorted[lo] - sorted[lo - 1]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(Summary::of(&[4.0]).unwrap().p90, 4.0);
        // Samples within 1.25× of the fastest: 1.0, 1.1 and 1.2.
        let s = Summary::of(&[2.0, 1.1, 1.0, 2.1, 1.2]).unwrap();
        assert_eq!(s.fast, 1.1);
        assert_eq!(Summary::of(&[-1.0, 2.0]).unwrap().fast, -1.0);
        assert!(Summary::of(&[]).is_none());
    }
}
