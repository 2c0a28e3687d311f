//! The Popularity/Freshness buffer machinery (§IV-C).
//!
//! City-Hunter answers a broadcast probe from two buffers under a joint
//! budget of 40:
//!
//! * the **Popularity Buffer** (PB): the top `p` database SSIDs by weight;
//! * the **Freshness Buffer** (FB): the `f` most recently *hit* SSIDs;
//!
//! with `p + f = 40`. Each buffer has a 20-entry **ghost list** (the next
//! SSIDs just below the buffer's cut-off). On every selection, two random
//! ghosts from each list replace the lowest two picks of their buffer —
//! cheap exploration. A hit scored by a PB-ghost pick means the PB is too
//! small (`p += 1, f -= 1`); a hit by an FB-ghost pick grows the FB — the
//! ARC feedback loop (`ch-arc`) transplanted onto SSID selection.

use ch_arc::EpochSet;
use ch_sim::{ch_invariant, SimRng};
use ch_wifi::SsidId;

use crate::api::LureLane;

/// Ghost-list length (paper: "the size of both ghost lists is 20").
pub const GHOST_LEN: usize = 20;

/// Ghost picks per buffer per selection (paper: "randomly select 2 SSIDs
/// (10 %) from each of the ghost lists").
pub const GHOST_PICKS: usize = 2;

/// Minimum size of either buffer — adaptation never starves a side
/// completely.
pub const MIN_BUFFER: usize = 4;

/// Reusable scratch state for [`AdaptiveBuffers::select_into`].
///
/// Owns the intermediate picked list, the O(1) seen-set, the FB ghost pool
/// and the RNG sample buffer. All four grow once to their steady-state
/// capacity and are then reused, so a warm scratch makes selection
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct SelectScratch {
    picked: Vec<(SsidId, LureLane)>,
    seen: EpochSet,
    ghost_pool: Vec<SsidId>,
    sample: Vec<usize>,
}

impl SelectScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        SelectScratch::default()
    }
}

/// The adaptive size state and selection logic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptiveBuffers {
    /// Popularity-buffer size.
    p: usize,
    /// Freshness-buffer size.
    f: usize,
    /// Joint budget (`p + f` stays equal to this).
    total: usize,
    /// `false` freezes the sizes (ablation: fixed split).
    adaptive: bool,
}

impl AdaptiveBuffers {
    /// Creates the buffers with an initial split.
    ///
    /// # Panics
    ///
    /// Panics if the split does not sum to `total` or violates
    /// [`MIN_BUFFER`].
    pub fn new(p: usize, f: usize, total: usize, adaptive: bool) -> Self {
        assert_eq!(p + f, total, "p + f must equal the budget");
        assert!(
            p >= MIN_BUFFER && f >= MIN_BUFFER,
            "initial sizes must respect MIN_BUFFER"
        );
        AdaptiveBuffers {
            p,
            f,
            total,
            adaptive,
        }
    }

    /// The paper's deployment default: budget 40, popularity-leaning
    /// initial split, adaptation on.
    pub fn paper_default() -> Self {
        AdaptiveBuffers::new(32, 8, 40, true)
    }

    /// Rebuilds buffers from checkpointed parts; `None` instead of a panic
    /// when the parts are inconsistent (a corrupt checkpoint must fall
    /// back to cold start, not abort the service).
    pub fn from_parts(p: usize, f: usize, total: usize, adaptive: bool) -> Option<Self> {
        if p + f != total || p < MIN_BUFFER || f < MIN_BUFFER {
            return None;
        }
        Some(AdaptiveBuffers {
            p,
            f,
            total,
            adaptive,
        })
    }

    /// Current `(p, f)` sizes.
    pub fn sizes(&self) -> (usize, usize) {
        (self.p, self.f)
    }

    /// Joint budget.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Whether adaptation is on (checkpoint export).
    pub fn is_adaptive(&self) -> bool {
        self.adaptive
    }

    /// How many entries of each candidate list
    /// [`select_into`](AdaptiveBuffers::select_into) can read for `budget`:
    /// lists cut to this length give the same picks and the same RNG draws
    /// as the full lists, so callers filter no further than this.
    ///
    /// With `b = min(budget, total)` and quotas `p + f = b`, selection
    /// reads `by_weight` below `max(b, pb_core + GHOST_LEN)`: the backfill
    /// stops within `b` reads, because it skips only already-picked ids. It
    /// reads `by_freshness` below `fb_core + 1 + p + GHOST_LEN`: the core
    /// loop consumes one extra entry, and the two walks skip at most the
    /// `p` popularity picks. Both are at most `b + GHOST_LEN + 1`. The
    /// bound assumes duplicate-free lists, as the untried filter and the
    /// database rankings produce.
    pub fn read_bound(&self, budget: usize) -> usize {
        budget.min(self.total) + GHOST_LEN + 1
    }

    /// The §IV-C size invariants: the split always sums to the joint
    /// budget and neither buffer adapts below [`MIN_BUFFER`].
    fn check_invariants(&self) {
        ch_invariant!(
            self.p + self.f == self.total,
            "buffer split {}+{} drifted from budget {}",
            self.p,
            self.f,
            self.total
        );
        ch_invariant!(
            self.p >= MIN_BUFFER && self.f >= MIN_BUFFER,
            "buffer split ({}, {}) below MIN_BUFFER = {MIN_BUFFER}",
            self.p,
            self.f
        );
    }

    /// Selects up to `budget` SSIDs for one client.
    ///
    /// Allocating convenience wrapper around
    /// [`select_into`](AdaptiveBuffers::select_into) for tests and one-off
    /// callers; the runner's hot path reuses a [`SelectScratch`].
    pub fn select(
        &self,
        by_weight: &[SsidId],
        by_freshness: &[SsidId],
        budget: usize,
        rng: &mut SimRng,
    ) -> Vec<(SsidId, LureLane)> {
        let mut scratch = SelectScratch::new();
        let mut out = Vec::new();
        self.select_into(by_weight, by_freshness, budget, rng, &mut scratch, &mut out);
        out
    }

    /// Selects up to `budget` SSIDs for one client, into a caller-owned
    /// output vector.
    ///
    /// `by_weight` and `by_freshness` must already be filtered to SSIDs
    /// not yet sent to this client, best first. `out` receives `(id, lane)`
    /// pairs, deduplicated, in send order (popular first). When one list
    /// runs short the other fills the gap, so the budget is met whenever
    /// enough candidates exist.
    ///
    /// Dedup runs through the scratch's [`EpochSet`] — O(1) per candidate
    /// on interned ids, where the old string-keyed path scanned the picked
    /// list (O(budget²) per probe). With a warm `scratch`/`out` this makes
    /// no allocation at all; the RNG draw sequence and the selected
    /// `(ssid, lane)` ordering are bit-identical to the old path.
    pub fn select_into(
        &self,
        by_weight: &[SsidId],
        by_freshness: &[SsidId],
        budget: usize,
        rng: &mut SimRng,
        scratch: &mut SelectScratch,
        out: &mut Vec<(SsidId, LureLane)>,
    ) {
        self.check_invariants();
        out.clear();
        let budget = budget.min(self.total);
        // Scale the split if the runner hands us a smaller budget.
        let p_quota = (self.p * budget).div_ceil(self.total).min(budget);
        let f_quota = budget - p_quota;

        let SelectScratch {
            picked,
            seen,
            ghost_pool,
            sample,
        } = scratch;
        picked.clear();
        seen.begin();

        // --- Popularity side (picked first: an SSID that is both popular
        // and fresh is credited to the PB, so the FB lane measures the
        // *distinctive* freshness contribution, as in Fig. 6).
        let pb_core = p_quota.saturating_sub(GHOST_PICKS.min(p_quota));
        for &id in by_weight.iter().take(pb_core) {
            if seen.insert(id.index()) {
                picked.push((id, LureLane::Popularity));
            }
        }
        // PB ghost: two random picks from the next GHOST_LEN by weight.
        if p_quota > 0 {
            let pool = &by_weight[pb_core.min(by_weight.len())..];
            let pool_len = pool.len().min(GHOST_LEN);
            rng.sample_indices_into(pool_len, GHOST_PICKS.min(p_quota), sample);
            for &i in sample.iter() {
                let id = pool[i];
                if seen.insert(id.index()) {
                    picked.push((id, LureLane::PopularityGhost));
                }
            }
        }

        // --- Freshness side ------------------------------------------------
        let fb_core = f_quota.saturating_sub(GHOST_PICKS.min(f_quota));
        let mut fb_taken = 0usize;
        let mut cursor = 0usize;
        // Quota check *after* the take, mirroring the original iterator
        // loop: reaching the FB quota consumes (and drops) one extra fresh
        // candidate, so the ghost pool below starts one element later.
        while cursor < by_freshness.len() {
            let id = by_freshness[cursor];
            cursor += 1;
            if fb_taken >= fb_core {
                break;
            }
            if seen.insert(id.index()) {
                picked.push((id, LureLane::Freshness));
                fb_taken += 1;
            }
        }
        // FB ghost: two random picks from the next GHOST_LEN fresh SSIDs.
        if f_quota > 0 {
            ghost_pool.clear();
            for &id in &by_freshness[cursor..] {
                if ghost_pool.len() >= GHOST_LEN {
                    break;
                }
                if !seen.contains(id.index()) {
                    ghost_pool.push(id);
                }
            }
            rng.sample_indices_into(ghost_pool.len(), GHOST_PICKS.min(f_quota), sample);
            for &i in sample.iter() {
                let id = ghost_pool[i];
                // Budget check before the insert: a ghost rejected for
                // budget must stay eligible for the backfill lane below.
                if !seen.contains(id.index()) && picked.len() < budget {
                    seen.insert(id.index());
                    picked.push((id, LureLane::FreshnessGhost));
                }
            }
        }

        // --- Backfill: deeper weight-ranked SSIDs until the budget is met.
        for &id in by_weight {
            if picked.len() >= budget {
                break;
            }
            if seen.insert(id.index()) {
                picked.push((id, LureLane::Popularity));
            }
        }
        // Send order: popularity first (highest expected yield), then
        // freshness, then ghosts — clients may disappear mid-burst. Four
        // stable emission passes replace the old sort_by_key: same order,
        // but no sort-buffer allocation.
        for lane in [
            LureLane::Popularity,
            LureLane::Freshness,
            LureLane::PopularityGhost,
            LureLane::FreshnessGhost,
        ] {
            for &(id, l) in picked.iter() {
                if l == lane {
                    out.push((id, l));
                }
            }
        }
        // The lane quotas are constructed to sum to at most `budget`; the
        // truncate below is a release-mode safety net, so check first.
        ch_invariant!(
            out.len() <= budget,
            "selected {} SSIDs against a budget of {budget}",
            out.len()
        );
        out.truncate(budget);
    }

    /// Feeds back a hit: ghost-lane hits move the split one step toward
    /// the lane that scored (§IV-C), bounded by [`MIN_BUFFER`].
    pub fn adapt(&mut self, lane: LureLane) {
        if !self.adaptive {
            return;
        }
        match lane {
            LureLane::PopularityGhost if self.f > MIN_BUFFER => {
                self.p += 1;
                self.f -= 1;
            }
            LureLane::FreshnessGhost if self.p > MIN_BUFFER => {
                self.f += 1;
                self.p -= 1;
            }
            _ => {}
        }
        self.check_invariants();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ch_wifi::{Ssid, SsidInterner};
    use proptest::prelude::*;

    /// Interns `prefix{000..n}` and returns the ids; a shared interner
    /// makes overlapping prefixes produce overlapping ids, like the
    /// database does.
    fn ssids(interner: &mut SsidInterner, prefix: &str, n: usize) -> Vec<SsidId> {
        (0..n)
            .map(|i| interner.intern(&Ssid::new_lossy(format!("{prefix}{i:03}"))))
            .collect()
    }

    #[test]
    fn paper_default_sums_to_forty() {
        let b = AdaptiveBuffers::paper_default();
        let (p, f) = b.sizes();
        assert_eq!(p + f, 40);
        assert_eq!(b.total(), 40);
    }

    #[test]
    fn selection_fills_budget_and_dedups() {
        let b = AdaptiveBuffers::paper_default();
        let mut interner = SsidInterner::new();
        let weight = ssids(&mut interner, "w", 100);
        let fresh = ssids(&mut interner, "w", 10); // freshness overlaps weight list
        let mut rng = SimRng::seed_from(1);
        let picked = b.select(&weight, &fresh, 40, &mut rng);
        assert_eq!(picked.len(), 40);
        let mut ids: Vec<SsidId> = picked.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 40, "duplicates in selection");
    }

    #[test]
    fn lanes_present_when_both_lists_rich() {
        let b = AdaptiveBuffers::paper_default();
        let mut interner = SsidInterner::new();
        let weight = ssids(&mut interner, "w", 200);
        let fresh = ssids(&mut interner, "f", 50);
        let mut rng = SimRng::seed_from(2);
        let picked = b.select(&weight, &fresh, 40, &mut rng);
        let count = |lane: LureLane| picked.iter().filter(|(_, l)| *l == lane).count();
        assert!(count(LureLane::Popularity) >= 20);
        assert!(count(LureLane::Freshness) >= 1);
        assert_eq!(count(LureLane::PopularityGhost), GHOST_PICKS);
        assert!(count(LureLane::FreshnessGhost) <= GHOST_PICKS);
        assert_eq!(picked.len(), 40);
    }

    #[test]
    fn empty_freshness_falls_back_to_popularity() {
        let b = AdaptiveBuffers::paper_default();
        let mut interner = SsidInterner::new();
        let weight = ssids(&mut interner, "w", 100);
        let mut rng = SimRng::seed_from(3);
        let picked = b.select(&weight, &[], 40, &mut rng);
        assert_eq!(picked.len(), 40);
        assert!(picked
            .iter()
            .all(|(_, l)| matches!(l, LureLane::Popularity | LureLane::PopularityGhost)));
    }

    #[test]
    fn short_candidate_lists_shrink_selection() {
        let b = AdaptiveBuffers::paper_default();
        let mut interner = SsidInterner::new();
        let weight = ssids(&mut interner, "w", 7);
        let mut rng = SimRng::seed_from(4);
        let picked = b.select(&weight, &[], 40, &mut rng);
        assert_eq!(picked.len(), 7, "no invention of SSIDs");
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        // One warm scratch across many different calls must give exactly
        // the allocating wrapper's answer each time.
        let b = AdaptiveBuffers::paper_default();
        let mut interner = SsidInterner::new();
        let weight = ssids(&mut interner, "w", 120);
        let fresh = ssids(&mut interner, "f", 30);
        let mut scratch = SelectScratch::new();
        let mut out = Vec::new();
        for (budget, seed) in [(40usize, 1u64), (7, 2), (1, 3), (40, 4), (13, 5)] {
            let mut rng_a = SimRng::seed_from(seed);
            let mut rng_b = rng_a.clone();
            b.select_into(&weight, &fresh, budget, &mut rng_a, &mut scratch, &mut out);
            assert_eq!(out, b.select(&weight, &fresh, budget, &mut rng_b));
            // Identical RNG consumption on both paths.
            assert_eq!(rng_a.next_u64(), rng_b.next_u64());
        }
    }

    #[test]
    fn adaptation_direction_and_bounds() {
        let mut b = AdaptiveBuffers::new(32, 8, 40, true);
        b.adapt(LureLane::FreshnessGhost);
        assert_eq!(b.sizes(), (31, 9));
        b.adapt(LureLane::PopularityGhost);
        assert_eq!(b.sizes(), (32, 8));
        // Non-ghost lanes don't adapt.
        b.adapt(LureLane::Popularity);
        b.adapt(LureLane::Freshness);
        b.adapt(LureLane::Database);
        assert_eq!(b.sizes(), (32, 8));
        // Bounds: drive f to its floor.
        for _ in 0..50 {
            b.adapt(LureLane::PopularityGhost);
        }
        assert_eq!(b.sizes(), (36, MIN_BUFFER));
        // And p to its floor.
        for _ in 0..50 {
            b.adapt(LureLane::FreshnessGhost);
        }
        assert_eq!(b.sizes(), (MIN_BUFFER, 36));
    }

    #[test]
    fn frozen_buffers_never_move() {
        let mut b = AdaptiveBuffers::new(20, 20, 40, false);
        b.adapt(LureLane::PopularityGhost);
        b.adapt(LureLane::FreshnessGhost);
        assert_eq!(b.sizes(), (20, 20));
    }

    #[test]
    #[should_panic(expected = "p + f must equal the budget")]
    fn bad_split_rejected() {
        let _ = AdaptiveBuffers::new(30, 5, 40, true);
    }

    #[test]
    fn invariant_catches_split_drift() {
        // A split that no longer sums to the budget must trip the check on
        // the next adaptation, even for a lane that would not move it.
        let mut b = AdaptiveBuffers::paper_default();
        b.p += 1; // corrupt: 33 + 8 != 40
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.adapt(LureLane::Popularity);
        }))
        .expect_err("drifted split must panic");
        let msg = err.downcast_ref::<String>().expect("formatted message");
        assert!(msg.contains("drifted from budget"), "{msg}");
    }

    #[test]
    fn invariant_catches_starved_buffer_on_select() {
        let mut b = AdaptiveBuffers::paper_default();
        b.p = b.total - 1;
        b.f = 1; // below MIN_BUFFER
        let mut interner = SsidInterner::new();
        let weight = ssids(&mut interner, "w", 50);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut rng = SimRng::seed_from(9);
            b.select(&weight, &[], 40, &mut rng);
        }))
        .expect_err("starved buffer must panic");
        let msg = err.downcast_ref::<String>().expect("formatted message");
        assert!(msg.contains("MIN_BUFFER"), "{msg}");
    }

    #[test]
    fn selection_stays_within_budget_for_all_small_budgets() {
        // Exercises the `out.len() <= budget` invariant across the full
        // quota-splitting range, including budgets below GHOST_PICKS.
        let b = AdaptiveBuffers::paper_default();
        let mut interner = SsidInterner::new();
        let weight = ssids(&mut interner, "w", 120);
        let fresh = ssids(&mut interner, "f", 60);
        for budget in 1..=40 {
            let mut rng = SimRng::seed_from(budget as u64);
            let picked = b.select(&weight, &fresh, budget, &mut rng);
            assert!(picked.len() <= budget, "budget {budget} overshot");
        }
    }

    /// Two duplicate-free candidate lists drawn in random order from one id
    /// space of `space` ids, so they overlap and interleave as the filtered
    /// rankings do; a small `space` makes the overlap heavy.
    fn candidate_lists(
        n_weight: usize,
        n_fresh: usize,
        space: usize,
        seed: u64,
    ) -> (Vec<SsidId>, Vec<SsidId>) {
        let mut interner = SsidInterner::new();
        let mut ids = ssids(&mut interner, "s", space);
        let mut rng = SimRng::seed_from(seed);
        rng.shuffle(&mut ids);
        let weight = ids[..n_weight.min(space)].to_vec();
        rng.shuffle(&mut ids);
        let fresh = ids[..n_fresh.min(space)].to_vec();
        (weight, fresh)
    }

    /// Selection on both lists cut to [`AdaptiveBuffers::read_bound`] must
    /// pick exactly what it picks on the full lists, and leave the RNG in
    /// the same state.
    fn assert_bounded_prefix_exact(
        b: &AdaptiveBuffers,
        weight: &[SsidId],
        fresh: &[SsidId],
        budget: usize,
        seed: u64,
    ) {
        let bound = b.read_bound(budget);
        let (mut rng_full, mut rng_cut) = (SimRng::seed_from(seed), SimRng::seed_from(seed));
        let full = b.select(weight, fresh, budget, &mut rng_full);
        let cut = b.select(
            &weight[..bound.min(weight.len())],
            &fresh[..bound.min(fresh.len())],
            budget,
            &mut rng_cut,
        );
        let case = format!(
            "sizes {:?}/{} adaptive {} budget {budget} lists {}/{} seed {seed}",
            b.sizes(),
            b.total(),
            b.is_adaptive(),
            weight.len(),
            fresh.len()
        );
        assert_eq!(full, cut, "{case}");
        assert_eq!(rng_full.save_state(), rng_cut.save_state(), "{case}");
    }

    #[test]
    fn read_bound_prefix_is_exact_for_every_split() {
        // Every split of the paper's 40, both MIN_BUFFER ends included,
        // frozen and adaptive, budgets past the total; rich overlapping
        // lists, short ones, and a freshness list longer than the weights.
        let shapes = [
            (400, 400, 450),
            (400, 60, 400),
            (30, 10, 35),
            (45, 300, 320),
        ];
        for (shape, &(n_weight, n_fresh, space)) in shapes.iter().enumerate() {
            let (weight, fresh) = candidate_lists(n_weight, n_fresh, space, shape as u64);
            for p in MIN_BUFFER..=40 - MIN_BUFFER {
                for adaptive in [false, true] {
                    let b = AdaptiveBuffers::new(p, 40 - p, 40, adaptive);
                    for budget in 1..=160 {
                        let seed = (p * 1_000 + budget) as u64;
                        assert_bounded_prefix_exact(&b, &weight, &fresh, budget, seed);
                    }
                }
            }
        }
    }

    proptest! {
        /// The bounded prefix gives the full-list selection for any lists
        /// of 0–400 ids, any valid split of any total, and budgets 1–160.
        #[test]
        fn prop_read_bound_prefix_is_exact(
            n_weight in 0usize..401,
            n_fresh in 0usize..401,
            extra_space in 0usize..401,
            total in (2 * MIN_BUFFER)..81,
            p_pick in 0usize..1_000,
            adaptive in any::<bool>(),
            budget in 1usize..161,
            seed in 0u64..10_000,
        ) {
            let space = n_weight.max(n_fresh) + extra_space;
            let (weight, fresh) = candidate_lists(n_weight, n_fresh, space, seed);
            let p = MIN_BUFFER + p_pick % (total - 2 * MIN_BUFFER + 1);
            let b = AdaptiveBuffers::new(p, total - p, total, adaptive);
            assert_bounded_prefix_exact(&b, &weight, &fresh, budget, seed);
        }

        /// Selection never exceeds the budget, never duplicates, and only
        /// returns offered candidates.
        #[test]
        fn prop_selection_sound(
            n_weight in 0usize..150,
            n_fresh in 0usize..60,
            budget in 1usize..41,
            seed in 0u64..1_000,
        ) {
            let b = AdaptiveBuffers::paper_default();
            let mut interner = SsidInterner::new();
            let weight = ssids(&mut interner, "w", n_weight);
            let fresh = ssids(&mut interner, "w", n_fresh); // subset naming → overlaps
            let mut rng = SimRng::seed_from(seed);
            let picked = b.select(&weight, &fresh, budget, &mut rng);
            prop_assert!(picked.len() <= budget);
            let mut ids: Vec<SsidId> = picked.iter().map(|&(id, _)| id).collect();
            ids.sort_unstable();
            let before = ids.len();
            ids.dedup();
            prop_assert_eq!(ids.len(), before, "duplicates");
            for &(id, _) in &picked {
                prop_assert!(weight.contains(&id) || fresh.contains(&id));
            }
        }

        /// p + f is conserved under any adaptation sequence.
        #[test]
        fn prop_split_conserved(lanes in proptest::collection::vec(0u8..6, 0..200)) {
            let mut b = AdaptiveBuffers::paper_default();
            for l in lanes {
                let lane = match l {
                    0 => LureLane::Popularity,
                    1 => LureLane::PopularityGhost,
                    2 => LureLane::Freshness,
                    3 => LureLane::FreshnessGhost,
                    4 => LureLane::Database,
                    _ => LureLane::DirectReply,
                };
                b.adapt(lane);
                let (p, f) = b.sizes();
                prop_assert_eq!(p + f, 40);
                prop_assert!(p >= MIN_BUFFER && f >= MIN_BUFFER);
            }
        }
    }
}
