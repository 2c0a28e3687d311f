//! Distance-based frame delivery.
//!
//! The real City-Hunter prototype is a Raspberry Pi AP at 100 mW; the only
//! PHY properties the attack actually depends on are
//!
//! 1. *airtime* — a probe response occupies the channel for ~0.25 ms, which
//!    combined with the client's ~10 ms listen window caps a scan at ~40
//!    received responses (§III-A), and
//! 2. *range* — whether a given phone is close enough to exchange frames at
//!    all, with delivery degrading near the edge of coverage.
//!
//! [`LossModel`] is the range half: a per-frame delivery probability by
//! distance. The scan kernel (`ch_scenarios::scan::exchange`) draws each
//! frame against it and enforces the airtime half itself, through
//! `ch_wifi::timing::listen_deadline`.

/// Distance-based frame-delivery model.
///
/// Inside `full_range` frames deliver with `base_delivery`; between
/// `full_range` and `max_range` the probability falls off linearly to zero;
/// beyond `max_range` nothing is delivered.
#[derive(Debug, Clone, PartialEq)]
pub struct LossModel {
    full_range_m: f64,
    max_range_m: f64,
    base_delivery: f64,
}

impl LossModel {
    /// Creates a loss model.
    ///
    /// # Panics
    ///
    /// Panics if the ranges are not `0 < full_range <= max_range`, or if
    /// `base_delivery` is outside `[0, 1]`.
    pub fn new(full_range_m: f64, max_range_m: f64, base_delivery: f64) -> Self {
        assert!(
            full_range_m > 0.0 && full_range_m <= max_range_m,
            "invalid ranges {full_range_m}..{max_range_m}"
        );
        assert!(
            (0.0..=1.0).contains(&base_delivery),
            "base_delivery {base_delivery} outside [0,1]"
        );
        LossModel {
            full_range_m,
            max_range_m,
            base_delivery,
        }
    }

    /// A model representative of a 100 mW AP in a cluttered indoor/urban
    /// setting: reliable to ~35 m, fading out by ~60 m.
    pub fn urban_100mw() -> Self {
        LossModel::new(35.0, 60.0, 0.97)
    }

    /// The distance beyond which no frame is ever delivered.
    pub fn max_range_m(&self) -> f64 {
        self.max_range_m
    }

    /// Probability that a single frame crosses `distance_m`.
    pub fn delivery_prob(&self, distance_m: f64) -> f64 {
        if distance_m <= self.full_range_m {
            self.base_delivery
        } else if distance_m >= self.max_range_m {
            0.0
        } else {
            let span = self.max_range_m - self.full_range_m;
            let frac = 1.0 - (distance_m - self.full_range_m) / span;
            self.base_delivery * frac
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_prob_profile() {
        let m = LossModel::new(30.0, 60.0, 0.9);
        assert_eq!(m.delivery_prob(0.0), 0.9);
        assert_eq!(m.delivery_prob(30.0), 0.9);
        assert_eq!(m.delivery_prob(60.0), 0.0);
        assert_eq!(m.delivery_prob(100.0), 0.0);
        let mid = m.delivery_prob(45.0);
        assert!((mid - 0.45).abs() < 1e-12, "mid={mid}");
    }

    #[test]
    #[should_panic(expected = "invalid ranges")]
    fn bad_ranges_rejected() {
        let _ = LossModel::new(50.0, 10.0, 0.9);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn bad_delivery_rejected() {
        let _ = LossModel::new(10.0, 20.0, 1.5);
    }
}
