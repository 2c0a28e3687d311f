//! Differential tests for the attacker state that is maintained
//! incrementally instead of recomputed:
//!
//! * [`SsidDatabase`] keeps `ranked()` and `by_freshness()` sorted on every
//!   write. After each step of a random write sequence both must equal a
//!   full sort of the current records — the oracle below, which is the
//!   pre-incremental algorithm.
//! * [`ClientTracker`] keeps each client's sent set as a bitset over id
//!   indices. Every query must agree with a `BTreeSet` model, and a
//!   checkpoint export must restore to the same state.

use std::collections::{BTreeMap, BTreeSet};

use ch_arc::EpochSet;
use ch_attack::{ClientTracker, DbEntry, LureSource, SsidDatabase};
use ch_sim::SimTime;
use ch_wifi::{MacAddr, Ssid, SsidId, SsidInterner};
use proptest::prelude::*;

/// Few names, weights and instants, so equal weights, equal hit times and
/// repeated SSIDs are common. `-0.0` and `0.0` differ under `total_cmp`.
const NAMES: usize = 12;
const WEIGHTS: [f64; 6] = [-0.0, 0.0, 1.0, 30.0, 40.0, 55.0];

fn name(k: usize) -> Ssid {
    Ssid::new(format!("net-{}", k % NAMES)).unwrap()
}

/// Both rankings by full sort: weight descending (`total_cmp`) then name,
/// and last hit descending then name over the hit records.
fn full_sort_oracle(db: &SsidDatabase) -> (Vec<SsidId>, Vec<SsidId>) {
    let ids: Vec<SsidId> = db
        .interner()
        .names()
        .iter()
        .map(|ssid| db.id_of(ssid).unwrap())
        .collect();
    let entry = |id: SsidId| db.entry_by_id(id).unwrap();
    let mut ranked = ids.clone();
    ranked.sort_by(|&a, &b| {
        let (wa, wb) = (entry(a).weight, entry(b).weight);
        wb.total_cmp(&wa)
            .then_with(|| db.resolve(a).cmp(db.resolve(b)))
    });
    let mut fresh: Vec<SsidId> = ids
        .into_iter()
        .filter(|&id| entry(id).last_hit.is_some())
        .collect();
    fresh.sort_by(|&a, &b| {
        let (ta, tb) = (entry(a).last_hit, entry(b).last_hit);
        tb.cmp(&ta).then_with(|| db.resolve(a).cmp(db.resolve(b)))
    });
    (ranked, fresh)
}

fn mac(i: usize) -> MacAddr {
    MacAddr::from_index([2, 0, 0], i as u32)
}

proptest! {
    /// Random seed/carrier/direct-probe/hit/restore sequences keep both
    /// rankings equal to a full sort after every step. Restores repeat
    /// SSIDs (a corrupt checkpoint's duplicate rows) and clear hits.
    #[test]
    fn prop_rankings_match_full_sort_after_every_write(
        ops in proptest::collection::vec((0u8..5, 0usize..NAMES, 0usize..6, 0u64..4, 0u32..3), 1..80),
    ) {
        let mut db = SsidDatabase::new();
        let mut foreign = SsidInterner::new();
        for (op, k, w, t, hits) in ops {
            let (ssid, weight, now) = (name(k), WEIGHTS[w], SimTime::from_secs(t));
            match op {
                0 => {
                    db.seed_from_wigle(ssid, weight, now);
                }
                1 => {
                    db.seed_carrier(ssid, weight, now);
                }
                2 => {
                    db.observe_direct_probe(&ssid, now);
                }
                3 => {
                    // An unknown SSID hits the id `NAMES` of a longer
                    // interner, past the entry table: a no-op.
                    let stale = (0..=NAMES)
                        .map(|i| foreign.intern(&Ssid::new(format!("foreign-{i}")).unwrap()))
                        .last();
                    let id = db.id_of(&ssid).or(stale).unwrap();
                    db.record_hit_id(id, now);
                }
                _ => {
                    let entry = DbEntry {
                        weight,
                        source: LureSource::DirectProbe,
                        hits,
                        last_hit: (hits > 0).then_some(now),
                        added_at: now,
                    };
                    let id = db.restore_entry(&ssid, entry.clone());
                    prop_assert_eq!(db.entry_by_id(id), Some(&entry));
                }
            }
            let (ranked, fresh) = full_sort_oracle(&db);
            prop_assert_eq!(db.len(), db.interner().len());
            prop_assert_eq!(db.ranked(), &ranked[..]);
            prop_assert_eq!(db.by_freshness(), &fresh[..]);
            prop_assert_eq!(db.ranked_and_fresh(), (&ranked[..], &fresh[..]));
        }
    }

    /// The bitset tracker answers like a `BTreeSet` per client, including
    /// for ids past a client's current bitset length, and its checkpoint
    /// export lists ascending ids and restores to the same answers.
    #[test]
    fn prop_bitset_tracker_matches_btreeset_model(
        ops in proptest::collection::vec((0u8..3, 0usize..4, 0usize..70, 0usize..5), 1..60),
        candidates in proptest::collection::vec(0usize..200, 0..80),
        limit in 0usize..50,
    ) {
        let mut interner = SsidInterner::new();
        let ids: Vec<SsidId> = (0..200)
            .map(|i| interner.intern(&Ssid::new(format!("id-{i}")).unwrap()))
            .collect();
        let candidates: Vec<SsidId> = candidates.iter().map(|&i| ids[i]).collect();
        let mut tracker = ClientTracker::new();
        let mut model: BTreeMap<[u8; 6], BTreeSet<usize>> = BTreeMap::new();
        for (op, client, first, len) in ops {
            // A single mark, a burst, or an empty burst (which must leave
            // no record).
            let marked: Vec<usize> = match op {
                0 => vec![first],
                1 => (first..(first + len).min(ids.len())).collect(),
                _ => Vec::new(),
            };
            if op == 0 {
                tracker.mark_sent(mac(client), ids[first]);
            } else {
                tracker.mark_burst(mac(client), marked.iter().map(|&i| ids[i]));
            }
            if !marked.is_empty() {
                model.entry(mac(client).octets()).or_default().extend(marked);
            }
        }

        let check = |tracker: &ClientTracker| -> Result<(), TestCaseError> {
            prop_assert_eq!(tracker.client_count(), model.len());
            let (mut seen, mut out) = (EpochSet::new(), Vec::new());
            for client in 0..5 {
                let sent = model.get(&mac(client).octets()).cloned().unwrap_or_default();
                prop_assert_eq!(tracker.sent_count(mac(client)), sent.len());
                for &id in &ids {
                    prop_assert_eq!(tracker.was_sent(mac(client), id), sent.contains(&id.index()));
                }
                let mut expect: Vec<SsidId> = Vec::new();
                for &id in &candidates {
                    if expect.len() < limit && !sent.contains(&id.index()) && !expect.contains(&id) {
                        expect.push(id);
                    }
                }
                tracker.select_untried_into(mac(client), &candidates, limit, &mut seen, &mut out);
                prop_assert_eq!(&out, &expect);
            }
            Ok(())
        };
        check(&tracker)?;

        let export = tracker.export_sorted(&interner);
        let expect: Vec<(MacAddr, Vec<SsidId>)> = model
            .iter()
            .map(|(octets, set)| (MacAddr::new(*octets), set.iter().map(|&i| ids[i]).collect()))
            .collect();
        prop_assert_eq!(&export, &expect);
        let mut restored = ClientTracker::new();
        restored.mark_sent(mac(9), ids[199]);
        restored.restore(export);
        check(&restored)?;
        prop_assert_eq!(restored.export_sorted(&interner), expect);
    }
}

#[test]
fn duplicate_restore_rows_move_the_entry_once() {
    let mut db = SsidDatabase::new();
    let row = |weight: f64, hit: Option<u64>| DbEntry {
        weight,
        source: LureSource::Wigle,
        hits: u32::from(hit.is_some()),
        last_hit: hit.map(SimTime::from_secs),
        added_at: SimTime::ZERO,
    };
    let a = db.restore_entry(&name(0), row(5.0, Some(3)));
    let b = db.restore_entry(&name(1), row(9.0, Some(7)));
    assert_eq!((db.ranked(), db.by_freshness()), (&[b, a][..], &[b, a][..]));
    // The same SSID again, as a corrupt checkpoint might carry it: one
    // record, moved in both rankings, never duplicated.
    assert_eq!(db.restore_entry(&name(0), row(20.0, None)), a);
    assert_eq!(db.len(), 2);
    assert_eq!((db.ranked(), db.by_freshness()), (&[a, b][..], &[b][..]));
}
