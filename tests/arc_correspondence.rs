//! Cross-validation of the §IV-C claim: City-Hunter's buffer adaptation is
//! "inspired by ARC". Drive the real ARC cache and the SSID buffers through
//! structurally equivalent feedback and check the adaptation *directions*
//! agree.

use city_hunter::arc::ArcCache;
use city_hunter::attack::buffers::{AdaptiveBuffers, MIN_BUFFER};
use city_hunter::attack::LureLane;

#[test]
fn ghost_feedback_moves_both_systems_the_same_way() {
    // ARC: a hit in B1 (the recency ghost) grows the recency target p;
    // City-Hunter: a hit in the freshness ghost grows the freshness
    // buffer f. Recency ↔ freshness, frequency ↔ popularity.
    let mut buffers = AdaptiveBuffers::paper_default();
    let (_, f_before) = buffers.sizes();
    buffers.adapt(LureLane::FreshnessGhost);
    let (_, f_after) = buffers.sizes();
    assert_eq!(f_after, f_before + 1, "freshness ghost hit grows f");

    let mut arc = ArcCache::new(4);
    // Build a B1 ghost: promote one key to T2 so REPLACE has a frequency
    // side, then stream one-shot keys until T1 spills into B1.
    arc.request(&100);
    arc.request(&100);
    for i in 0..6 {
        arc.request(&i);
    }
    let p_before = arc.p();
    // Hit a B1 ghost (one of the early one-shot keys).
    let ghost = (0..6)
        .find(|k| {
            // A key that is neither resident nor fresh enough to have
            // fallen off history: probing via request would mutate, so use
            // contains() to find a non-resident candidate and accept that
            // one of them is in B1.
            !arc.contains(k)
        })
        .expect("some key was evicted");
    arc.request(&ghost);
    assert!(
        arc.p() >= p_before,
        "recency-ghost hit never shrinks ARC's recency target"
    );
}

#[test]
fn opposing_feedback_cancels_in_both_systems() {
    let mut buffers = AdaptiveBuffers::paper_default();
    let before = buffers.sizes();
    buffers.adapt(LureLane::FreshnessGhost);
    buffers.adapt(LureLane::PopularityGhost);
    assert_eq!(buffers.sizes(), before, "one step each way cancels");
}

#[test]
fn sustained_one_sided_feedback_saturates_not_overflows() {
    // Both systems bound their adaptation: ARC clamps p to [0, c]; the
    // buffers clamp each side to MIN_BUFFER.
    let mut buffers = AdaptiveBuffers::paper_default();
    for _ in 0..1_000 {
        buffers.adapt(LureLane::FreshnessGhost);
    }
    let (p, f) = buffers.sizes();
    assert_eq!(p, MIN_BUFFER);
    assert_eq!(p + f, 40);

    let mut arc = ArcCache::new(8);
    // Hammer the recency side: repeated one-shot misses with B1 re-hits.
    arc.request(&1000);
    arc.request(&1000);
    for round in 0..200u32 {
        for i in 0..10 {
            arc.request(&(round * 10 + i));
        }
    }
    assert!(arc.p() <= arc.capacity(), "p stays within [0, c]");
    let (t1, t2, b1, b2) = arc.list_sizes();
    assert!(t1 + t2 <= arc.capacity());
    assert!(t1 + t2 + b1 + b2 <= 2 * arc.capacity());
}
