//! Per-client bookkeeping (§III-A's fix).
//!
//! "The attacker should record the MAC addresses of all the clients it
//! tried to connect but failed in the past, and maintains an un-tried SSID
//! list for each of them." We store the complement — the set already
//! *sent* per MAC — which is equivalent and much smaller.
//!
//! SSIDs are interned [`SsidId`]s, dense per database, so each client's
//! sent set is a bitset over id indices: the untried filter makes one map
//! lookup per probe and then one word test per candidate, and a burst is
//! marked with one lookup. Duplicate candidates collapse through an
//! [`EpochSet`].

use ch_arc::EpochSet;
use ch_sim::DetHashMap;

use ch_wifi::{MacAddr, SsidId, SsidInterner};

/// One client's sent set: bit `i % 64` of word `i / 64` stands for id
/// index `i`. It grows to the highest id marked.
#[derive(Debug, Clone, Default)]
struct SentSet(Vec<u64>);

impl SentSet {
    fn contains(&self, id: SsidId) -> bool {
        let i = id.index();
        self.0
            .get(i / 64)
            .is_some_and(|word| word >> (i % 64) & 1 == 1)
    }

    fn insert(&mut self, id: SsidId) {
        let i = id.index();
        if self.0.len() <= i / 64 {
            self.0.resize(i / 64 + 1, 0);
        }
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn len(&self) -> usize {
        self.0.iter().map(|word| word.count_ones() as usize).sum()
    }

    /// The id indices in the set, ascending.
    fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &word)| {
            (0..64)
                .filter(move |bit| word >> bit & 1 == 1)
                .map(move |bit| w * 64 + bit)
        })
    }
}

/// Tracks which SSIDs have been sent to which client.
#[derive(Debug, Clone, Default)]
pub struct ClientTracker {
    sent: DetHashMap<MacAddr, SentSet>,
}

impl ClientTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        ClientTracker::default()
    }

    /// Number of clients on record.
    pub fn client_count(&self) -> usize {
        self.sent.len()
    }

    /// How many SSIDs have been sent to `client` so far.
    pub fn sent_count(&self, client: MacAddr) -> usize {
        self.sent.get(&client).map_or(0, SentSet::len)
    }

    /// `true` if `ssid` was already sent to `client`.
    pub fn was_sent(&self, client: MacAddr, ssid: SsidId) -> bool {
        self.sent.get(&client).is_some_and(|set| set.contains(ssid))
    }

    /// Records that `ssid` has been sent to `client`.
    pub fn mark_sent(&mut self, client: MacAddr, ssid: SsidId) {
        self.mark_burst(client, [ssid]);
    }

    /// Records a whole burst sent to `client` with one map lookup. An empty
    /// burst leaves no record.
    pub fn mark_burst(&mut self, client: MacAddr, ssids: impl IntoIterator<Item = SsidId>) {
        let mut ssids = ssids.into_iter().peekable();
        if ssids.peek().is_some() {
            let set = self.sent.entry(client).or_default();
            ssids.for_each(|ssid| set.insert(ssid));
        }
    }

    /// Filters `candidates` down to those not yet sent to `client`,
    /// preserving order and collapsing duplicates, stopping after `limit`.
    pub fn select_untried(
        &self,
        client: MacAddr,
        candidates: &[SsidId],
        limit: usize,
    ) -> Vec<SsidId> {
        let mut seen = EpochSet::new();
        let mut out = Vec::new();
        self.select_untried_into(client, candidates, limit, &mut seen, &mut out);
        out
    }

    /// [`select_untried`](ClientTracker::select_untried) into caller-owned
    /// scratch: `out` receives the picks, `seen` is the dedup set. Both are
    /// cleared first and reused across calls, so the steady-state filter
    /// never allocates.
    pub fn select_untried_into(
        &self,
        client: MacAddr,
        candidates: &[SsidId],
        limit: usize,
        seen: &mut EpochSet,
        out: &mut Vec<SsidId>,
    ) {
        out.clear();
        seen.begin();
        let sent = self.sent.get(&client);
        for &ssid in candidates {
            if out.len() >= limit {
                break;
            }
            let already = sent.is_some_and(|set| set.contains(ssid));
            if !already && seen.insert(ssid.index()) {
                out.push(ssid);
            }
        }
    }

    /// Forgets everything (database re-initialization between tests).
    pub fn clear(&mut self) {
        self.sent.clear();
    }

    /// The full sent-map as a deterministically ordered list (clients by
    /// MAC, SSIDs by interner index) — the checkpoint export. Bit positions
    /// map back to ids through `interner`, the database's. Nothing
    /// downstream iterates the tracker's internals, so restoring through
    /// [`ClientTracker::restore`] is behaviourally exact.
    pub fn export_sorted(&self, interner: &SsidInterner) -> Vec<(MacAddr, Vec<SsidId>)> {
        let mut entries: Vec<(MacAddr, Vec<SsidId>)> = self
            .sent
            .iter()
            .map(|(mac, set)| {
                let ids = set.indices().filter_map(|i| interner.id_at(i));
                (*mac, ids.collect())
            })
            .collect();
        entries.sort_by_key(|(mac, _)| mac.octets());
        entries
    }

    /// Rebuilds the tracker from [`ClientTracker::export_sorted`] output.
    pub fn restore(&mut self, entries: Vec<(MacAddr, Vec<SsidId>)>) {
        self.sent.clear();
        for (mac, ids) in entries {
            self.mark_burst(mac, ids);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ch_wifi::{Ssid, SsidInterner};
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn mac(i: u8) -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, i])
    }

    fn intern(interner: &mut SsidInterner, s: &str) -> SsidId {
        interner.intern(&Ssid::new(s).unwrap())
    }

    #[test]
    fn untried_selection_skips_sent() {
        let mut interner = SsidInterner::new();
        let (a, b, c) = (
            intern(&mut interner, "A"),
            intern(&mut interner, "B"),
            intern(&mut interner, "C"),
        );
        let mut t = ClientTracker::new();
        t.mark_sent(mac(1), a);
        let pool = [a, b, c];
        let picked = t.select_untried(mac(1), &pool, 10);
        assert_eq!(picked, vec![b, c]);
        // A different client still gets "A".
        let picked2 = t.select_untried(mac(2), &pool, 10);
        assert_eq!(picked2.len(), 3);
    }

    #[test]
    fn limit_respected() {
        let mut interner = SsidInterner::new();
        let t = ClientTracker::new();
        let pool: Vec<SsidId> = (0..100)
            .map(|i| intern(&mut interner, &format!("S{i}")))
            .collect();
        let picked = t.select_untried(mac(1), &pool, 40);
        assert_eq!(picked.len(), 40);
    }

    #[test]
    fn duplicates_in_candidates_collapsed() {
        let mut interner = SsidInterner::new();
        let (a, b) = (intern(&mut interner, "A"), intern(&mut interner, "B"));
        let t = ClientTracker::new();
        let pool = [a, a, b];
        let picked = t.select_untried(mac(1), &pool, 10);
        assert_eq!(picked, vec![a, b]);
    }

    #[test]
    fn scratch_reuse_matches_allocating_path() {
        let mut interner = SsidInterner::new();
        let pool: Vec<SsidId> = (0..30)
            .map(|i| intern(&mut interner, &format!("S{i}")))
            .collect();
        let mut t = ClientTracker::new();
        t.mark_sent(mac(1), pool[0]);
        t.mark_sent(mac(1), pool[5]);
        let mut seen = EpochSet::new();
        let mut out = Vec::new();
        for limit in [0, 3, 10, 40] {
            t.select_untried_into(mac(1), &pool, limit, &mut seen, &mut out);
            assert_eq!(out, t.select_untried(mac(1), &pool, limit));
        }
    }

    #[test]
    fn counts_and_clear() {
        let mut interner = SsidInterner::new();
        let (a, b) = (intern(&mut interner, "A"), intern(&mut interner, "B"));
        let mut t = ClientTracker::new();
        t.mark_sent(mac(1), a);
        t.mark_sent(mac(1), b);
        t.mark_sent(mac(2), a);
        assert_eq!(t.client_count(), 2);
        assert_eq!(t.sent_count(mac(1)), 2);
        assert!(t.was_sent(mac(1), a));
        assert!(!t.was_sent(mac(2), b));
        t.clear();
        assert_eq!(t.client_count(), 0);
        assert_eq!(t.sent_count(mac(1)), 0);
    }

    proptest! {
        /// Marking everything selected, then selecting again, never repeats
        /// an SSID to the same client — the §III-A invariant.
        #[test]
        fn prop_never_resend(
            names in proptest::collection::vec("[a-z]{1,6}", 1..50),
            rounds in 1usize..6,
        ) {
            let mut interner = SsidInterner::new();
            let pool: Vec<SsidId> = names.iter().map(|n| intern(&mut interner, n)).collect();
            let mut t = ClientTracker::new();
            let client = mac(7);
            let mut seen = HashSet::new();
            for _ in 0..rounds {
                let picked = t.select_untried(client, &pool, 10);
                for &s in &picked {
                    prop_assert!(seen.insert(s), "resent {s}");
                    t.mark_sent(client, s);
                }
            }
        }
    }
}
