//! Summary statistics for replicated experiments.
//!
//! The paper reports single field runs; a simulator can do better. The
//! replication harness in `ch-scenarios` runs each deployment across many
//! seeds and summarizes the resulting samples with [`Summary`]: mean,
//! standard deviation, extrema, and a normal-approximation 95 % confidence
//! interval on the mean.

/// Summary statistics over a sample of `f64` observations.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    n: usize,
    mean: f64,
    std_dev: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Summarizes `samples`. Non-finite values are rejected.
    ///
    /// Returns `None` for an empty sample.
    ///
    /// # Panics
    ///
    /// Panics if any sample is non-finite.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        assert!(
            samples.iter().all(|x| x.is_finite()),
            "summary of non-finite samples"
        );
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some(Summary {
            n,
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        })
    }

    /// Number of observations.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample standard deviation (Bessel-corrected).
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> f64 {
        self.std_dev / (self.n as f64).sqrt()
    }

    /// Normal-approximation 95 % confidence interval on the mean.
    pub fn ci95(&self) -> (f64, f64) {
        let half = 1.96 * self.std_err();
        (self.mean - half, self.mean + half)
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.4} ± {:.4} (n={}, range {:.4}–{:.4})",
            self.mean,
            self.std_err() * 1.96,
            self.n,
            self.min,
            self.max
        )
    }
}

/// The `q`-quantile (0–1, nearest-rank) of a sample.
///
/// Returns `None` for an empty sample.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample() {
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn single_sample() {
        let s = Summary::of(&[3.0]).unwrap();
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.ci95(), (3.0, 3.0));
        assert_eq!(s.n(), 1);
    }

    #[test]
    fn known_values() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Bessel-corrected variance of that classic sample is 32/7.
        assert!((s.std_dev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        let (lo, hi) = s.ci95();
        assert!(lo < 5.0 && hi > 5.0);
    }

    #[test]
    fn quantiles() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(quantile(&xs, 0.5), Some(50.0));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(100.0));
        assert_eq!(quantile(&xs, 0.95), Some(95.0));
    }

    #[test]
    fn display_nonempty() {
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert!(s.to_string().contains("n=2"));
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_rejected() {
        let _ = Summary::of(&[1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn bad_quantile_rejected() {
        let _ = quantile(&[1.0], 1.5);
    }
}
