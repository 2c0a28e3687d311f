//! Rank-order weight assignment (§IV-B).
//!
//! Having ranked SSIDs by heat value, the paper assigns weights "using the
//! ratio method proposed in \[Barron & Barrett 1996\]": with `k` ranked
//! items, the top item gets weight `k` and the bottom item weight 1 —
//! i.e. linear rank weights. That is the one scheme here.

/// Linear rank weights for `k` ranked items, best first: rank `r` of `k`
/// (1-based) gets weight `k - r + 1`.
///
/// ```
/// use ch_geo::weights::rank_weights;
/// let w = rank_weights(200);
/// assert_eq!(w[0], 200.0);   // top SSID gets weight 200
/// assert_eq!(w[199], 1.0);   // bottom gets 1 (§IV-B)
/// ```
pub fn rank_weights(k: usize) -> Vec<f64> {
    (0..k).map(|r| (k - r) as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_matches_paper_endpoints() {
        let w = rank_weights(200);
        assert_eq!(w.len(), 200);
        assert_eq!(w[0], 200.0);
        assert_eq!(w[199], 1.0);
        let w100 = rank_weights(100);
        assert_eq!(w100[0], 100.0);
        assert_eq!(w100[99], 1.0);
    }

    #[test]
    fn all_schemes_strictly_decreasing_and_positive() {
        let w = rank_weights(50);
        assert_eq!(w.len(), 50);
        for pair in w.windows(2) {
            assert!(pair[0] > pair[1], "{pair:?}");
        }
        assert!(w.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn bottom_weight_is_one() {
        let w = rank_weights(37);
        assert_eq!(w.last(), Some(&1.0));
    }

    #[test]
    fn empty_and_singleton() {
        assert!(rank_weights(0).is_empty());
        assert_eq!(rank_weights(1), [1.0]);
    }
}
