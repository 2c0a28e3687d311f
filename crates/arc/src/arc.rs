//! The Adaptive Replacement Cache (Megiddo & Modha, FAST '03).
//!
//! ARC partitions history into four lists:
//!
//! * **T1** — resident keys seen exactly once recently (recency list);
//! * **T2** — resident keys seen at least twice (frequency list);
//! * **B1** — *ghost* list of keys recently evicted from T1;
//! * **B2** — ghost list of keys recently evicted from T2.
//!
//! The target size `p` of T1 adapts: a hit in B1 ("we evicted a recent key
//! too early") grows `p`; a hit in B2 shrinks it. City-Hunter's §IV-C
//! buffer adaptation is this exact feedback loop transplanted onto SSID
//! buffers: a hit in the popularity ghost grows the popularity buffer, a
//! hit in the freshness ghost grows the freshness buffer.

use std::hash::Hash;

use ch_sim::ch_invariant;

use crate::ordered::OrderedSet;

/// A faithful ARC cache.
///
/// ```
/// use ch_arc::ArcCache;
///
/// let mut arc = ArcCache::new(100);
/// for i in 0..100 {
///     arc.request(&i);
/// }
/// assert_eq!(arc.len(), 100);
/// assert!(arc.request(&0) || !arc.request(&0)); // queries always answer
/// ```
#[derive(Debug, Clone)]
pub struct ArcCache<K> {
    t1: OrderedSet<K>,
    t2: OrderedSet<K>,
    b1: OrderedSet<K>,
    b2: OrderedSet<K>,
    capacity: usize,
    /// Target size of T1, in `[0, capacity]`.
    p: usize,
}

impl<K: Eq + Hash + Clone> ArcCache<K> {
    /// Creates an ARC cache of the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        ArcCache {
            t1: OrderedSet::new(),
            t2: OrderedSet::new(),
            b1: OrderedSet::new(),
            b2: OrderedSet::new(),
            capacity,
            p: 0,
        }
    }

    /// The adaptation target for T1 (diagnostics/tests).
    pub fn p(&self) -> usize {
        self.p
    }

    /// Sizes of `(T1, T2, B1, B2)` (diagnostics/tests).
    pub fn list_sizes(&self) -> (usize, usize, usize, usize) {
        (self.t1.len(), self.t2.len(), self.b1.len(), self.b2.len())
    }

    /// The ARC structural invariants (FAST '03 §I.B), checked after every
    /// request when invariant checks are compiled in (`cargo test`, debug
    /// builds, or `--features ch-sim/debug-invariants`).
    fn check_invariants(&self) {
        let (t1, t2, b1, b2) = self.list_sizes();
        let c = self.capacity;
        ch_invariant!(
            t1 + t2 <= c,
            "residents |T1|+|T2| = {t1}+{t2} exceed capacity {c}"
        );
        ch_invariant!(t1 + b1 <= c, "|L1| = |T1|+|B1| = {t1}+{b1} exceeds {c}");
        ch_invariant!(
            t1 + t2 + b1 + b2 <= 2 * c,
            "history |L1|+|L2| = {} exceeds 2c = {}",
            t1 + t2 + b1 + b2,
            2 * c
        );
        ch_invariant!(self.p <= c, "target p = {} outside [0, {c}]", self.p);
        // Once the total history has reached capacity the cache stays
        // exactly full: every eviction is paired with an admission.
        ch_invariant!(
            t1 + t2 + b1 + b2 < c || t1 + t2 == c,
            "cache underfull ({t1}+{t2} < {c}) despite full history"
        );
    }

    /// REPLACE from the paper: evict from T1 into B1, or from T2 into B2,
    /// steering actual sizes toward the target `p`.
    fn replace(&mut self, in_b2: bool) {
        let t1_len = self.t1.len();
        if t1_len >= 1 && (t1_len > self.p || (in_b2 && t1_len == self.p)) {
            if let Some(victim) = self.t1.pop_lru() {
                self.b1.push_mru(victim);
            }
        } else if let Some(victim) = self.t2.pop_lru() {
            self.b2.push_mru(victim);
        } else if let Some(victim) = self.t1.pop_lru() {
            // T2 empty; fall back to T1 regardless of target.
            self.b1.push_mru(victim);
        }
    }

    /// Looks up `key`; on a miss, admits it (evicting per ARC). Returns
    /// `true` on a hit. Querying and updating are one operation, as in the
    /// cache-replacement literature.
    pub fn request(&mut self, key: &K) -> bool {
        let hit = self.request_inner(key);
        self.check_invariants();
        hit
    }

    /// `true` if `key` is resident in T1 or T2 (no state change).
    pub fn contains(&self, key: &K) -> bool {
        self.t1.contains(key) || self.t2.contains(key)
    }

    /// Number of resident keys, `|T1| + |T2|`.
    pub fn len(&self) -> usize {
        self.t1.len() + self.t2.len()
    }

    /// `true` if no keys are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of resident keys.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn request_inner(&mut self, key: &K) -> bool {
        let c = self.capacity;

        // Case I: hit in T1 or T2 — promote to T2 MRU.
        if self.t1.remove(key) || self.t2.contains(key) {
            self.t2.push_mru(key.clone());
            return true;
        }

        // Case II: ghost hit in B1 — favour recency.
        if self.b1.contains(key) {
            let delta = (self.b2.len() / self.b1.len().max(1)).max(1);
            self.p = (self.p + delta).min(c);
            self.replace(false);
            self.b1.remove(key);
            self.t2.push_mru(key.clone());
            return false;
        }

        // Case III: ghost hit in B2 — favour frequency.
        if self.b2.contains(key) {
            let delta = (self.b1.len() / self.b2.len().max(1)).max(1);
            self.p = self.p.saturating_sub(delta);
            self.replace(true);
            self.b2.remove(key);
            self.t2.push_mru(key.clone());
            return false;
        }

        // Case IV: cold miss.
        let l1 = self.t1.len() + self.b1.len();
        let total = l1 + self.t2.len() + self.b2.len();
        if l1 == c {
            if self.t1.len() < c {
                self.b1.pop_lru();
                self.replace(false);
            } else {
                // B1 empty and T1 full: drop T1's LRU without a ghost.
                self.t1.pop_lru();
            }
        } else if l1 < c && total >= c {
            if total == 2 * c {
                self.b2.pop_lru();
            }
            self.replace(false);
        }
        self.t1.push_mru(key.clone());
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Runs a trace through the cache and returns the hit count.
    fn hits_on_trace(arc: &mut ArcCache<u32>, trace: &[u32]) -> usize {
        trace.iter().filter(|key| arc.request(key)).count()
    }

    /// The four ARC structural invariants from the paper.
    fn assert_invariants<K: Eq + Hash + Clone>(arc: &ArcCache<K>) {
        let (t1, t2, b1, b2) = arc.list_sizes();
        let c = arc.capacity();
        assert!(t1 + t2 <= c, "resident {t1}+{t2} > {c}");
        assert!(t1 + b1 <= c, "L1 {t1}+{b1} > {c}");
        assert!(t1 + t2 + b1 + b2 <= 2 * c, "history > 2c");
        assert!(arc.p() <= c, "p out of range");
    }

    #[test]
    fn basic_hit_miss() {
        let mut arc = ArcCache::new(2);
        assert!(!arc.request(&1));
        assert!(arc.request(&1));
        assert!(!arc.request(&2));
        assert!(!arc.request(&3));
        assert_invariants(&arc);
        assert!(arc.len() <= 2);
    }

    #[test]
    fn t1_full_cold_miss_drops_ghostless() {
        // Paper Case IV(a), else-branch: when T1 alone fills the cache and
        // B1 is empty, the T1 LRU is dropped without entering B1.
        let mut arc = ArcCache::new(2);
        arc.request(&1);
        arc.request(&2);
        arc.request(&3);
        assert!(!arc.contains(&1));
        let (t1, t2, b1, b2) = arc.list_sizes();
        assert_eq!((t1, t2, b1, b2), (2, 0, 0, 0));
        assert_invariants(&arc);
    }

    #[test]
    fn ghost_hit_readmits_to_t2() {
        let mut arc = ArcCache::new(2);
        arc.request(&1);
        arc.request(&1); // promote 1 to T2
        arc.request(&2); // T1 = [2]
        arc.request(&3); // REPLACE evicts 2 into B1
        let (_, _, b1, _) = arc.list_sizes();
        assert_eq!(b1, 1, "2 must be ghosted in B1");
        assert!(!arc.contains(&2));
        assert!(!arc.request(&2)); // ghost hit: still a miss...
        assert!(arc.contains(&2)); // ...but readmitted
        let (_, t2, _, _) = arc.list_sizes();
        assert!(t2 >= 1, "ghost readmission lands in T2");
        assert_invariants(&arc);
    }

    #[test]
    fn b1_hits_grow_p() {
        let mut arc = ArcCache::new(4);
        // Seed T2 so REPLACE has a frequency side.
        arc.request(&100);
        arc.request(&100);
        // Stream one-shot keys: once resident+history reaches c, REPLACE
        // spills T1 LRUs into B1.
        for i in 0..6 {
            arc.request(&i);
        }
        let (_, _, b1, _) = arc.list_sizes();
        assert!(
            b1 > 0,
            "setup must create B1 ghosts, got sizes {:?}",
            arc.list_sizes()
        );
        let ghost = *arc.b1.iter_lru_to_mru().next().unwrap();
        let p_before = arc.p();
        arc.request(&ghost); // B1 ghost hit
        assert!(arc.p() > p_before, "B1 hit must grow p");
        assert_invariants(&arc);
    }

    #[test]
    fn b2_hits_shrink_p() {
        let mut arc = ArcCache::new(4);
        // Fill T2 with 0..4, then push new doubletons through so the old
        // T2 content spills into B2.
        for i in 0..4 {
            arc.request(&i);
            arc.request(&i);
        }
        for i in 10..14 {
            arc.request(&i);
            arc.request(&i);
        }
        let (_, _, _, b2) = arc.list_sizes();
        assert!(
            b2 > 0,
            "setup must create B2 ghosts, got {:?}",
            arc.list_sizes()
        );
        let ghost = *arc.b2.iter_lru_to_mru().next().unwrap();
        arc.p = 3; // pretend recency had been favoured
        let p_before = arc.p();
        arc.request(&ghost);
        assert!(arc.p() < p_before, "B2 hit must shrink p");
        assert_invariants(&arc);
    }

    #[test]
    fn scan_resistance_beats_lru() {
        // Workload: a hot set swept twice per round (so it registers hits
        // and earns T2 residency) followed by a burst of one-shot scan
        // keys. The scans push every hot key out of an LRU before its next
        // round, halving LRU's hit opportunity; ARC parks the hot set in
        // T2 where scans cannot reach it.
        let capacity = 16;
        let hot: Vec<u32> = (0..12).collect();
        let mut trace = Vec::new();
        for round in 0..200u32 {
            for _ in 0..2 {
                for &k in &hot {
                    trace.push(k);
                }
            }
            for s in 0..8 {
                trace.push(1_000 + round * 8 + s);
            }
        }
        // An LRU of the same capacity scores 2,400 hits on this trace:
        // only the second sweep of each round hits.
        const LRU_HITS: usize = 2_400;
        let mut arc = ArcCache::new(capacity);
        let arc_hits = hits_on_trace(&mut arc, &trace);
        assert!(
            arc_hits > LRU_HITS,
            "ARC {arc_hits} should beat LRU {LRU_HITS} on scans"
        );
        assert_invariants(&arc);
    }

    #[test]
    fn recency_workload_not_crippled() {
        // A 30-key loop fits a 32-entry cache, LRU's best case: after the
        // first touch of each key every request hits, so the best any
        // policy can score is 4,000 - 30 = 3,970. ARC must lose none of
        // those hits to its adaptivity.
        let capacity = 32;
        let trace: Vec<u32> = (0..4_000u32).map(|i| i % 30).collect();
        let mut arc = ArcCache::new(capacity);
        assert_eq!(hits_on_trace(&mut arc, &trace), 4_000 - 30);
        assert_invariants(&arc);
    }

    #[test]
    fn capacity_one() {
        let mut arc = ArcCache::new(1);
        for k in 0..50 {
            arc.request(&(k % 3));
            assert_invariants(&arc);
            assert!(arc.len() <= 1);
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = ArcCache::<u8>::new(0);
    }

    /// Drives a corrupted cache through `check_invariants` and returns the
    /// panic message.
    fn violation_message(arc: &ArcCache<u32>) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            arc.check_invariants();
        }))
        .expect_err("corrupted cache must trip an invariant");
        err.downcast_ref::<String>()
            .expect("ch_invariant panics with a formatted string")
            .clone()
    }

    #[test]
    fn invariant_catches_resident_overflow() {
        // |T1| + |T2| <= c
        let mut arc = ArcCache::new(2);
        for k in [1u32, 2, 3] {
            arc.t1.push_mru(k); // bypass request(): plant 3 residents in a 2-cache
        }
        assert!(violation_message(&arc).contains("exceed capacity"));
    }

    #[test]
    fn invariant_catches_l1_overflow() {
        // |T1| + |B1| <= c
        let mut arc = ArcCache::new(2);
        arc.t1.push_mru(1u32);
        arc.t1.push_mru(2);
        arc.b1.push_mru(3);
        assert!(violation_message(&arc).contains("|L1|"));
    }

    #[test]
    fn invariant_catches_history_overflow() {
        // |T1| + |T2| + |B1| + |B2| <= 2c, violated on the L2 side so the
        // narrower L1 check cannot fire first.
        let mut arc = ArcCache::new(1);
        arc.t2.push_mru(1u32);
        arc.b2.push_mru(2);
        arc.b2.push_mru(3);
        assert!(violation_message(&arc).contains("2c"));
    }

    #[test]
    fn invariant_catches_p_out_of_range() {
        let mut arc = ArcCache::<u32>::new(2);
        arc.p = 3;
        assert!(violation_message(&arc).contains("target p"));
    }

    #[test]
    fn invariant_catches_underfull_cache() {
        // Full history but residents below capacity: an eviction that lost
        // its paired admission.
        let mut arc = ArcCache::new(2);
        arc.t2.push_mru(1u32);
        arc.b2.push_mru(2);
        assert!(violation_message(&arc).contains("underfull"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The ARC structural invariants hold after every request, for any
        /// trace and capacity.
        #[test]
        fn prop_invariants_always_hold(
            cap in 1usize..24,
            trace in proptest::collection::vec(0u16..64, 0..400),
        ) {
            let mut arc = ArcCache::new(cap);
            for k in &trace {
                arc.request(k);
                let (t1, t2, b1, b2) = arc.list_sizes();
                prop_assert!(t1 + t2 <= cap);
                prop_assert!(t1 + b1 <= cap);
                prop_assert!(t1 + t2 + b1 + b2 <= 2 * cap);
                prop_assert!(arc.p() <= cap);
                // A key just requested is resident.
                prop_assert!(arc.contains(k));
            }
        }

        /// The four lists are always mutually disjoint.
        #[test]
        fn prop_lists_disjoint(
            cap in 1usize..12,
            trace in proptest::collection::vec(0u8..32, 0..300),
        ) {
            let mut arc = ArcCache::new(cap);
            for k in &trace {
                arc.request(k);
            }
            for key in 0u8..32 {
                let places = [
                    arc.t1.contains(&key),
                    arc.t2.contains(&key),
                    arc.b1.contains(&key),
                    arc.b2.contains(&key),
                ];
                let count = places.iter().filter(|&&b| b).count();
                prop_assert!(count <= 1, "key {key} in {count} lists");
            }
        }
    }
}
