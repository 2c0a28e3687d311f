//! The weighted SSID database (§IV-B).
//!
//! Every SSID the attacker knows, with a weight (initially rank-order from
//! the heat-ranked WiGLE seed, then bumped by online events), hit
//! statistics, and the freshness timestamp the FB runs on.
//!
//! The database owns a private [`SsidInterner`] and a record for every id
//! it interns, so [`SsidId`]s index a dense entry table. Both rankings are
//! kept sorted on write (the write moves only the id whose key changed),
//! so the broadcast path reads them as plain borrows. [`Ssid`] remains the
//! validated boundary type: it enters via the seed/observe calls and
//! leaves via [`SsidDatabase::resolve`].

use std::cmp::Ordering;

use ch_sim::SimTime;
use ch_wifi::{Ssid, SsidId, SsidInterner};

use crate::api::LureSource;

/// Weight bump when an SSID scores a hit on a broadcast client.
pub const HIT_WEIGHT_BONUS: f64 = 25.0;

/// Initial weight of an SSID harvested from a direct probe: the paper adds
/// them to the live database; a mid-range weight lets genuinely popular
/// ones climb via hits without letting every one-off home SSID crowd the
/// popularity buffer.
pub const DIRECT_PROBE_WEIGHT: f64 = 30.0;

/// Weight bump when an already-known SSID is seen in another direct probe
/// (several clients carrying it is evidence of popularity).
pub const DIRECT_REPEAT_BONUS: f64 = 10.0;

/// One database record.
#[derive(Debug, Clone, PartialEq)]
pub struct DbEntry {
    /// Selection weight (popularity).
    pub weight: f64,
    /// Original provenance.
    pub source: LureSource,
    /// Broadcast-probe hits scored with this SSID.
    pub hits: u32,
    /// Most recent hit instant (freshness).
    pub last_hit: Option<SimTime>,
    /// When the SSID entered the database.
    pub added_at: SimTime,
}

impl DbEntry {
    /// A record with no hits yet.
    fn new(weight: f64, source: LureSource, added_at: SimTime) -> Self {
        DbEntry {
            weight,
            source,
            hits: 0,
            last_hit: None,
            added_at,
        }
    }
}

/// The attacker's SSID database.
#[derive(Debug, Clone, Default)]
pub struct SsidDatabase {
    interner: SsidInterner,
    /// The record of every interned id, at `id.index()`.
    entries: Vec<DbEntry>,
    /// Every id, in [`by_weight`] order.
    ranked: Vec<SsidId>,
    /// Every id with a hit, in [`by_recency`] order.
    fresh: Vec<SsidId>,
}

/// A ranking's order: `Less` when `a` ranks ahead of `b`. Both orders are
/// strict total orders over distinct names, so a list kept sorted on write
/// equals a full sort element for element.
type Order = fn(&[DbEntry], &SsidInterner, SsidId, SsidId) -> Ordering;

/// Weight descending (`total_cmp`), then name.
fn by_weight(entries: &[DbEntry], interner: &SsidInterner, a: SsidId, b: SsidId) -> Ordering {
    let weight = |id: SsidId| entries[id.index()].weight;
    weight(b)
        .total_cmp(&weight(a))
        .then_with(|| interner.resolve(a).cmp(interner.resolve(b)))
}

/// Last hit descending, then name.
fn by_recency(entries: &[DbEntry], interner: &SsidInterner, a: SsidId, b: SsidId) -> Ordering {
    let last_hit = |id: SsidId| entries[id.index()].last_hit;
    last_hit(b)
        .cmp(&last_hit(a))
        .then_with(|| interner.resolve(a).cmp(interner.resolve(b)))
}

/// One slice move in a sorted list: the id at `from` (if any) leaves and
/// `to` (if any) enters where `before` stops holding. A move searches the
/// side of `from` its left neighbour points to, then rotates that run.
fn move_in(
    order: &mut Vec<SsidId>,
    from: Option<usize>,
    to: Option<SsidId>,
    before: impl Fn(&SsidId) -> bool,
) {
    match (from, to) {
        (None, Some(id)) => order.insert(order.partition_point(before), id),
        (Some(from), None) => _ = order.remove(from),
        (Some(from), Some(_)) if from > 0 && !before(&order[from - 1]) => {
            let to = order[..from].partition_point(before);
            order[to..=from].rotate_right(1);
        }
        (Some(from), Some(_)) => {
            let to = from + order[from + 1..].partition_point(before);
            order[from..=to].rotate_left(1);
        }
        (None, None) => {}
    }
}

impl SsidDatabase {
    /// An empty database.
    pub fn new() -> Self {
        SsidDatabase::default()
    }

    /// Number of known SSIDs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is known yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The interner backing this database. Ids returned by any method here
    /// resolve against it.
    pub fn interner(&self) -> &SsidInterner {
        &self.interner
    }

    /// The id of `ssid`, if it is known.
    pub fn id_of(&self, ssid: &Ssid) -> Option<SsidId> {
        self.interner.get(ssid)
    }

    /// Resolves a database id back to its SSID.
    pub fn resolve(&self, id: SsidId) -> &Ssid {
        self.interner.resolve(id)
    }

    /// The record for `ssid`.
    pub fn entry(&self, ssid: &Ssid) -> Option<&DbEntry> {
        self.id_of(ssid).and_then(|id| self.entry_by_id(id))
    }

    /// The record for an interned id.
    pub fn entry_by_id(&self, id: SsidId) -> Option<&DbEntry> {
        self.entries.get(id.index())
    }

    /// The provenance of an interned id (hot-path lookup; never allocates).
    pub fn source_of(&self, id: SsidId) -> Option<LureSource> {
        self.entry_by_id(id).map(|e| e.source)
    }

    /// `true` if `ssid` is known.
    pub fn contains(&self, ssid: &Ssid) -> bool {
        self.id_of(ssid).is_some()
    }

    /// Seeds an SSID from the WiGLE ranking with an explicit rank weight.
    /// Existing entries keep the larger weight.
    pub fn seed_from_wigle(&mut self, ssid: Ssid, weight: f64, now: SimTime) -> SsidId {
        let new = DbEntry::new(weight, LureSource::Wigle, now);
        self.upsert(&ssid, new, |e| e.weight = e.weight.max(weight))
    }

    /// Preloads a carrier SSID (§V-B) at a given weight.
    pub fn seed_carrier(&mut self, ssid: Ssid, weight: f64, now: SimTime) -> SsidId {
        let new = DbEntry::new(weight, LureSource::Carrier, now);
        self.upsert(&ssid, new, |_| {})
    }

    /// Records an SSID disclosed by a direct probe: new SSIDs join at
    /// [`DIRECT_PROBE_WEIGHT`]; repeats earn [`DIRECT_REPEAT_BONUS`].
    pub fn observe_direct_probe(&mut self, ssid: &Ssid, now: SimTime) -> SsidId {
        let new = DbEntry::new(DIRECT_PROBE_WEIGHT, LureSource::DirectProbe, now);
        self.upsert(ssid, new, |e| e.weight += DIRECT_REPEAT_BONUS)
    }

    /// Records a broadcast hit with `ssid`: weight bonus + freshness stamp.
    pub fn record_hit(&mut self, ssid: &Ssid, now: SimTime) {
        if let Some(id) = self.id_of(ssid) {
            self.record_hit_id(id, now);
        }
    }

    /// [`record_hit`](SsidDatabase::record_hit) by interned id.
    pub fn record_hit_id(&mut self, id: SsidId, now: SimTime) {
        self.update(id, |e| {
            e.weight += HIT_WEIGHT_BONUS;
            e.hits += 1;
            e.last_hit = Some(now);
        });
    }

    /// SSID ids in weight-descending order (name tie-break).
    pub fn ranked(&self) -> &[SsidId] {
        &self.ranked
    }

    /// SSID ids with at least one hit, most recent hit first (name
    /// tie-break) — the freshness ranking behind the FB.
    pub fn by_freshness(&self) -> &[SsidId] {
        &self.fresh
    }

    /// Both rankings at once: `(ranked, by_freshness)`.
    pub fn ranked_and_fresh(&self) -> (&[SsidId], &[SsidId]) {
        (&self.ranked, &self.fresh)
    }

    /// Inserts one record verbatim — the checkpoint-restore path. Replaying
    /// a database export through this call in the interner's original id
    /// order (see [`SsidInterner::names`](ch_wifi::SsidInterner)) reproduces
    /// the same `SsidId` assignment, so exported id lists stay valid. A
    /// repeated SSID overwrites its record in place.
    pub fn restore_entry(&mut self, ssid: &Ssid, entry: DbEntry) -> SsidId {
        self.upsert(ssid, entry.clone(), |e| *e = entry)
    }

    /// Interns `ssid` and records `new` for it, or applies `update` to the
    /// record it already has.
    fn upsert(&mut self, ssid: &Ssid, new: DbEntry, update: impl FnOnce(&mut DbEntry)) -> SsidId {
        let id = self.interner.intern(ssid);
        if id.index() == self.entries.len() {
            self.entries.push(new);
            self.update(id, |_| {});
        } else {
            self.update(id, update);
        }
        id
    }

    /// Applies `update` to the record for `id`, if any, and moves `id`
    /// from where it sat in each ranking to where the new record puts it.
    fn update(&mut self, id: SsidId, update: impl FnOnce(&mut DbEntry)) {
        if id.index() < self.entries.len() {
            let ranked = self.find(&self.ranked, id, by_weight);
            let fresh = self.find(&self.fresh, id, by_recency);
            update(&mut self.entries[id.index()]);
            let (entries, interner) = (&self.entries, &self.interner);
            let hit = entries[id.index()].last_hit.map(|_| id);
            let before = |cmp: Order| move |o: &SsidId| cmp(entries, interner, *o, id).is_lt();
            move_in(&mut self.ranked, ranked, Some(id), before(by_weight));
            move_in(&mut self.fresh, fresh, hit, before(by_recency));
        }
    }

    /// The index of `id` in `order` under its current record; `None` when
    /// it is not listed yet (a new id, or an unhit one in `fresh`).
    fn find(&self, order: &[SsidId], id: SsidId, cmp: Order) -> Option<usize> {
        order
            .binary_search_by(|&o| cmp(&self.entries, &self.interner, o, id))
            .ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ssid(s: &str) -> Ssid {
        Ssid::new(s).unwrap()
    }

    fn names(db: &SsidDatabase, ids: &[SsidId]) -> Vec<String> {
        ids.iter().map(|&id| db.resolve(id).to_string()).collect()
    }

    #[test]
    fn wigle_seed_keeps_max_weight() {
        let mut db = SsidDatabase::new();
        let id = db.seed_from_wigle(ssid("A"), 200.0, SimTime::ZERO);
        assert_eq!(db.seed_from_wigle(ssid("A"), 50.0, SimTime::ZERO), id);
        assert_eq!(db.entry(&ssid("A")).unwrap().weight, 200.0);
        assert_eq!(db.len(), 1);
        assert_eq!(db.id_of(&ssid("A")), Some(id));
        assert_eq!(db.resolve(id), &ssid("A"));
    }

    #[test]
    fn direct_probe_repeats_accumulate() {
        let mut db = SsidDatabase::new();
        db.observe_direct_probe(&ssid("X"), SimTime::ZERO);
        db.observe_direct_probe(&ssid("X"), SimTime::from_secs(1));
        let e = db.entry(&ssid("X")).unwrap();
        assert_eq!(e.weight, DIRECT_PROBE_WEIGHT + DIRECT_REPEAT_BONUS);
        assert_eq!(e.source, LureSource::DirectProbe);
    }

    #[test]
    fn hits_boost_weight_and_freshness() {
        let mut db = SsidDatabase::new();
        db.seed_from_wigle(ssid("A"), 10.0, SimTime::ZERO);
        db.record_hit(&ssid("A"), SimTime::from_secs(30));
        let e = db.entry(&ssid("A")).unwrap();
        assert_eq!(e.hits, 1);
        assert_eq!(e.last_hit, Some(SimTime::from_secs(30)));
        assert_eq!(e.weight, 10.0 + HIT_WEIGHT_BONUS);
        // Hitting an unknown SSID is a no-op.
        db.record_hit(&ssid("Nope"), SimTime::from_secs(31));
        assert!(!db.contains(&ssid("Nope")));
    }

    #[test]
    fn ranking_follows_weight_then_name() {
        let mut db = SsidDatabase::new();
        db.seed_from_wigle(ssid("Low"), 1.0, SimTime::ZERO);
        db.seed_from_wigle(ssid("B-High"), 9.0, SimTime::ZERO);
        db.seed_from_wigle(ssid("A-High"), 9.0, SimTime::ZERO);
        assert_eq!(names(&db, db.ranked()), ["A-High", "B-High", "Low"]);
    }

    #[test]
    fn ranking_cache_invalidated_by_updates() {
        let mut db = SsidDatabase::new();
        db.seed_from_wigle(ssid("A"), 5.0, SimTime::ZERO);
        db.seed_from_wigle(ssid("B"), 4.0, SimTime::ZERO);
        assert_eq!(names(&db, db.ranked()), ["A", "B"]);
        db.record_hit(&ssid("B"), SimTime::from_secs(1)); // B now 29
        assert_eq!(names(&db, db.ranked()), ["B", "A"]);
    }

    #[test]
    fn freshness_order_is_recency() {
        let mut db = SsidDatabase::new();
        for (name, t) in [("A", 10), ("B", 30), ("C", 20)] {
            db.seed_from_wigle(ssid(name), 1.0, SimTime::ZERO);
            db.record_hit(&ssid(name), SimTime::from_secs(t));
        }
        db.seed_from_wigle(ssid("NeverHit"), 99.0, SimTime::ZERO);
        assert_eq!(names(&db, db.by_freshness()), ["B", "C", "A"]);
    }

    #[test]
    fn freshness_cache_invalidated_by_hits() {
        let mut db = SsidDatabase::new();
        db.seed_from_wigle(ssid("A"), 1.0, SimTime::ZERO);
        db.seed_from_wigle(ssid("B"), 1.0, SimTime::ZERO);
        db.record_hit(&ssid("A"), SimTime::from_secs(1));
        assert_eq!(db.by_freshness().len(), 1);
        db.record_hit(&ssid("B"), SimTime::from_secs(2));
        assert_eq!(names(&db, db.by_freshness()), ["B", "A"]);
    }

    #[test]
    fn stale_interned_id_is_not_an_entry() {
        // Ids index the dense entry table: one from a longer interner lies
        // past its end, has no record, and a hit on it changes nothing.
        let mut db = SsidDatabase::new();
        let id = db.seed_from_wigle(ssid("A"), 1.0, SimTime::ZERO);
        assert_eq!(db.source_of(id), Some(LureSource::Wigle));
        let mut other = SsidInterner::new();
        let stale = [ssid("A"), ssid("B")].map(|s| other.intern(&s))[1];
        db.record_hit_id(stale, SimTime::ZERO);
        assert_eq!((db.entry_by_id(stale), db.by_freshness().len()), (None, 0));
    }

    #[test]
    fn empty_db() {
        let db = SsidDatabase::new();
        assert!(db.is_empty());
        assert!(db.ranked().is_empty());
        assert!(db.by_freshness().is_empty());
    }
}
