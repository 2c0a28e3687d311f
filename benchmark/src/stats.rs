//! Order statistics for timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the
//! default "exclusive" method), so the spreads this benchmark prints
//! are the ones a reader recomputes from the raw values.

/// Median, quartiles and extremes of one set of samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let sorted = sorted(samples);
        let n = sorted.len();
        let (&min, &max) = (sorted.first()?, sorted.last()?);
        let (q1, median, q3) = if n == 1 {
            (min, min, min)
        } else {
            let q = quartiles(&sorted);
            (q[0], q[1], q[2])
        };
        Some(Summary {
            n,
            median,
            q1,
            q3,
            min,
            max,
        })
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }

    /// Median, quartiles, extremes and count for the report.
    pub fn describe(&self, scale: f64, unit: &str) -> String {
        format!(
            "median {:.4} {unit} (q1 {:.4}, q3 {:.4}, min {:.4}, max {:.4}, n={}, spread {:.1}%)",
            self.median * scale,
            self.q1 * scale,
            self.q3 * scale,
            self.min * scale,
            self.max * scale,
            self.n,
            self.spread() * 100.0
        )
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The three cut points of `statistics.quantiles(sorted, n=4)`
/// (exclusive method) over an ascending slice of at least two values.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let m = sorted.len() + 1;
    let mut cuts = [0.0; 3];
    for (i, cut) in cuts.iter_mut().enumerate() {
        let k = (i + 1) * m;
        let j = (k / 4).clamp(1, sorted.len() - 1);
        // Computed after the clamp, so the two-sample case extrapolates
        // exactly as Python does.
        let delta = k as f64 - (j * 4) as f64;
        *cut = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    cuts
}

/// The nearest-rank `pct` percentile of `samples`, reported only when at
/// least ten samples lie beyond it; a tail read from fewer samples is
/// one or two outliers, not a percentile.
pub fn percentile(samples: &[f64], pct: f64) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((pct / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    if n - rank < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Percentiles of integer nanosecond samples (the per-call timers).
pub fn percentile_ns(samples: &[u64], pct: f64) -> Option<f64> {
    let as_f64: Vec<f64> = samples.iter().map(|&ns| ns as f64).collect();
    percentile(&as_f64, pct)
}

/// The median of integer samples.
pub fn median_u64(samples: &[u64]) -> Option<f64> {
    let as_f64: Vec<f64> = samples.iter().map(|&v| v as f64).collect();
    Summary::of(&as_f64).map(|s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&data).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[16.0, 1.0, 8.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        assert_eq!((s.min, s.max, s.n), (1.0, 16.0, 5));
    }

    #[test]
    fn median_of_one_and_none() {
        let s = Summary::of(&[7.5]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (7.5, 7.5, 7.5));
        assert_eq!(s.spread(), 0.0);
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median_u64(&[5, 1, 3]), Some(3.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&data).unwrap();
        assert!((s.spread() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples has exactly 10 beyond rank 990: reported.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.0), Some(990.0));
        // 999 samples leave only 9 beyond rank 990: withheld.
        let fewer: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&fewer, 99.0), None);
        // The median of 20 samples has 10 beyond it.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 50.0), Some(10.0));
        assert_eq!(percentile(&twenty[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        let ns: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_ns(&ns, 99.0), Some(990.0));
    }
}
