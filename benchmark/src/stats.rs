//! Quantiles and the sample summary every timing is reported with.

/// Quantile `p` of an ascending slice, by the "exclusive" rule of
/// Python's `statistics.quantiles` (rank `p·(n+1)`, linear
/// interpolation, clamped to the data) — the rule the PR driver applies
/// to this benchmark's outputs, so `compare` reproduces its spreads.
///
/// # Panics
/// On an empty slice.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let n = sorted.len();
    let rank = p * (n as f64 + 1.0);
    let below = (rank.floor() as usize).clamp(1, n);
    let above = (below + 1).min(n);
    let frac = (rank - below as f64).clamp(0.0, 1.0);
    sorted[below - 1] + (sorted[above - 1] - sorted[below - 1]) * frac
}

/// Ascending copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// Distance between the first and third quartile as a share of the
/// median — the run-to-run spread of choosing-metrics §8.
pub fn spread(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let median = quantile(&s, 0.5);
    if s.len() < 2 || median == 0.0 {
        return 0.0;
    }
    (quantile(&s, 0.75) - quantile(&s, 0.25)) / median
}

/// What is printed beside every gated timing: quartiles, the highest
/// percentile that still has ten samples beyond it, and the sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// `(percentile, value)`; `None` below 20 samples, where no
    /// percentile from the ladder has ten samples beyond it.
    pub tail: Option<(f64, f64)>,
}

/// Percentiles tried for [`Summary::tail`], highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    let n = s.len();
    let tail = TAIL_LADDER
        .iter()
        .find(|&&pct| n as f64 * (100.0 - pct) / 100.0 + 1e-9 >= 10.0)
        .map(|&pct| (pct, quantile(&s, pct / 100.0)));
    Summary {
        n,
        min: s[0],
        q1: quantile(&s, 0.25),
        median: quantile(&s, 0.5),
        q3: quantile(&s, 0.75),
        tail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values from CPython 3.11:
    /// `statistics.quantiles([...], n=4)` (method="exclusive").
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let s = sorted(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!(quantile(&s, 0.25), 2.75);
        assert_eq!(quantile(&s, 0.5), 5.5);
        assert_eq!(quantile(&s, 0.75), 8.25);
        // quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = sorted(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!(quantile(&s, 0.25), 1.5);
        assert_eq!(quantile(&s, 0.5), 4.0);
        assert_eq!(quantile(&s, 0.75), 12.0);
    }

    #[test]
    fn quantile_is_clamped_to_the_data() {
        // quantiles([3, 5], n=4) == [2.5, 4.0, 5.5] in Python, which
        // extrapolates; a time below the fastest sample is not a
        // measurement, so this rule clamps instead.
        let s = [3.0, 5.0];
        assert_eq!(quantile(&s, 0.25), 3.0);
        assert_eq!(quantile(&s, 0.5), 4.0);
        assert_eq!(quantile(&s, 0.75), 5.0);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[4.0]), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(summarize(&few).tail, None);
        let some: Vec<f64> = (0..40).map(f64::from).collect();
        assert_eq!(summarize(&some).tail.unwrap().0, 75.0);
        let many: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(summarize(&many).tail.unwrap().0, 95.0);
        let lots: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert_eq!(summarize(&lots).tail.unwrap().0, 99.9);
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.min, s.median), (3, 1.0, 2.0));
    }
}
