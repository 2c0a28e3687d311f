//! The preliminary City-Hunter (§III): MANA + two fixes.

use ch_arc::EpochSet;
use ch_geo::{GeoPoint, HeatMap, WigleSnapshot};
use ch_sim::SimTime;
use ch_wifi::mgmt::ProbeRequest;
use ch_wifi::{MacAddr, SsidId};

use crate::api::{direct_reply_into, Attacker, Lure, LureLane, LureSource};
use crate::clienttrack::ClientTracker;
use crate::db::SsidDatabase;
use crate::plan::AttackSitePlan;

/// How many heat-ranked city SSIDs seed the §IV database (the §III version
/// selects the same number but by raw AP count — the heat map is a §IV-B
/// refinement).
pub const WIGLE_TOP_BY_HEAT: usize = 200;

/// How many SSIDs nearest the attack site seed the database (§III-B).
pub const WIGLE_NEARBY: usize = 100;

/// §III City-Hunter: a WiGLE-seeded database with per-client untried
/// tracking, but **no weighting, no freshness and no adaptive selection**
/// — SSIDs are replayed in plain database order (the nearby seed first,
/// then the city-wide-by-AP-count seed, then whatever direct probes
/// harvest). The §IV design's whole point is that *which 40 go first*
/// matters; this version is the control that shows it (Tables II/III).
#[derive(Debug, Clone)]
pub struct PrelimCityHunter {
    bssid: MacAddr,
    db: SsidDatabase,
    /// Reply order: database insertion order, as §III describes it.
    reply_order: Vec<SsidId>,
    tracker: ClientTracker,
    /// Reused dedup scratch for the broadcast path.
    seen: EpochSet,
    /// Reused pick buffer for the broadcast path.
    picked: Vec<SsidId>,
}

impl PrelimCityHunter {
    /// Builds the attacker and initializes its database from the WiGLE
    /// snapshot: the 100 open SSIDs nearest `site`, then the top 200 open
    /// SSIDs by city-wide AP count (§III-B's two criteria).
    ///
    /// The heat map is accepted for interface parity with
    /// [`crate::CityHunter`] but its ranking is deliberately ignored:
    /// heat ranking is the §IV-B refinement this version predates.
    pub fn new(bssid: MacAddr, wigle: &WigleSnapshot, heat: &HeatMap, site: GeoPoint) -> Self {
        Self::from_plan(bssid, &AttackSitePlan::build(wigle, heat, site))
    }

    /// [`PrelimCityHunter::new`] from a precomputed [`AttackSitePlan`]:
    /// same seed lists, same insertion order, so the interned reply
    /// order is bit-identical to the scan-based constructor's.
    pub fn from_plan(bssid: MacAddr, plan: &AttackSitePlan) -> Self {
        let mut db = SsidDatabase::new();
        let mut reply_order = Vec::new();
        let push = |db: &mut SsidDatabase, order: &mut Vec<SsidId>, ssid: ch_wifi::Ssid| {
            if !db.contains(&ssid) {
                let id = db.seed_from_wigle(ssid, 1.0, SimTime::ZERO);
                order.push(id);
            }
        };
        for (ssid, _w) in &plan.nearby_open {
            // ch-lint: allow(ssid-clone) — construction-time inline copy, no heap.
            push(&mut db, &mut reply_order, ssid.clone());
        }
        for ssid in &plan.by_ap_count {
            // ch-lint: allow(ssid-clone) — construction-time inline copy, no heap.
            push(&mut db, &mut reply_order, ssid.clone());
        }
        PrelimCityHunter {
            bssid,
            db,
            reply_order,
            tracker: ClientTracker::new(),
            seen: EpochSet::new(),
            picked: Vec::new(),
        }
    }

    /// Read access to the database.
    pub fn database(&self) -> &SsidDatabase {
        &self.db
    }

    /// Read access to the per-client tracker (Fig. 2 analysis).
    pub fn tracker(&self) -> &ClientTracker {
        &self.tracker
    }

    /// The fixed reply order as interned ids (diagnostics/tests); resolve
    /// them through [`Self::database`]'s interner.
    pub fn reply_order(&self) -> &[SsidId] {
        &self.reply_order
    }

    /// Overwrites the in-run state from a checkpoint: the database, the
    /// reply order (ids valid against the restored database's interner)
    /// and the per-client tracker. The scratch buffers are run-local and
    /// carry no state across probes.
    pub fn restore_state(
        &mut self,
        db: SsidDatabase,
        reply_order: Vec<SsidId>,
        tracker: ClientTracker,
    ) {
        self.db = db;
        self.reply_order = reply_order;
        self.tracker = tracker;
    }
}

impl Attacker for PrelimCityHunter {
    fn name(&self) -> &'static str {
        "City-Hunter (preliminary)"
    }

    fn bssid(&self) -> MacAddr {
        self.bssid
    }

    fn respond_to_probe_into(
        &mut self,
        now: SimTime,
        probe: &ProbeRequest,
        budget: usize,
        out: &mut Vec<Lure>,
    ) {
        if probe.is_broadcast() {
            out.clear();
            self.tracker.select_untried_into(
                probe.source,
                &self.reply_order,
                budget,
                &mut self.seen,
                &mut self.picked,
            );
            self.tracker
                .mark_burst(probe.source, self.picked.iter().copied());
            for &id in &self.picked {
                let source = self.db.source_of(id).unwrap_or(LureSource::Wigle);
                out.push(Lure::new(
                    // ch-lint: allow(hot-path-alloc) — inline Ssid copy, no heap.
                    self.db.resolve(id).clone(),
                    source,
                    LureLane::Database,
                ));
            }
        } else {
            let known = self.db.contains(&probe.ssid);
            let id = self.db.observe_direct_probe(&probe.ssid, now);
            if !known {
                self.reply_order.push(id);
            }
            direct_reply_into(probe, out);
        }
    }

    fn on_hit(&mut self, now: SimTime, _client: MacAddr, lure: &Lure) {
        self.db.record_hit(&lure.ssid, now);
    }

    fn database_len(&self) -> usize {
        self.db.len()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ch_geo::{CityModel, PhotoCollection};
    use ch_sim::SimRng;
    use ch_wifi::Ssid;

    fn mac(i: u8) -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, i])
    }

    fn setup() -> PrelimCityHunter {
        let mut rng = SimRng::seed_from(20);
        let city = CityModel::synthesize(&mut rng);
        let wigle = WigleSnapshot::synthesize(&city, &mut rng);
        let photos = PhotoCollection::synthesize(&city, 20_000, &mut rng);
        let heat = HeatMap::from_photos(&city, &photos, 100.0);
        let site = city.pois()[10].location;
        PrelimCityHunter::new(mac(9), &wigle, &heat, site)
    }

    #[test]
    fn database_seeded_before_deployment() {
        let ch = setup();
        // Nearest-100 ∪ top-200-by-count, with overlap: between 200 and 300.
        assert!(ch.database_len() >= WIGLE_TOP_BY_HEAT);
        assert!(ch.database_len() <= WIGLE_TOP_BY_HEAT + WIGLE_NEARBY);
        assert_eq!(ch.reply_order().len(), ch.database_len());
    }

    #[test]
    fn broadcast_reply_follows_database_order() {
        let mut ch = setup();
        let order = ch.reply_order().to_vec();
        let probe = ProbeRequest::broadcast(mac(1));
        let lures = ch.respond_to_probe(SimTime::ZERO, &probe, 40);
        assert_eq!(lures.len(), 40);
        assert!(lures.iter().all(|l| l.source == LureSource::Wigle));
        // §III has no weighting: the reply is the database head verbatim.
        for (lure, &expect) in lures.iter().zip(&order) {
            assert_eq!(&lure.ssid, ch.database().resolve(expect));
        }
    }

    #[test]
    fn successive_scans_advance_through_database() {
        // The §III-A fix: a static client eventually sees SSIDs deep in
        // the database instead of the same head 40.
        let mut ch = setup();
        let probe = ProbeRequest::broadcast(mac(1));
        let first = ch.respond_to_probe(SimTime::ZERO, &probe, 40);
        let second = ch.respond_to_probe(SimTime::from_secs(60), &probe, 40);
        assert_eq!(second.len(), 40);
        for lure in &second {
            assert!(
                !first.contains(lure),
                "{} was re-sent to the same client",
                lure.ssid
            );
        }
        assert_eq!(ch.tracker().sent_count(mac(1)), 80);
    }

    #[test]
    fn database_exhaustion_yields_fewer_lures() {
        let mut ch = setup();
        let probe = ProbeRequest::broadcast(mac(1));
        let db_size = ch.database_len();
        let mut total = 0;
        for round in 0..((db_size / 40) + 2) {
            let lures = ch.respond_to_probe(SimTime::from_secs(round as u64 * 60), &probe, 40);
            total += lures.len();
        }
        assert_eq!(total, db_size, "every SSID tried exactly once");
    }

    #[test]
    fn direct_probes_harvested_and_offered_to_others() {
        let mut ch = setup();
        let secret = Ssid::new("EstateNet-77").unwrap();
        let before = ch.database_len();
        ch.respond_to_probe(
            SimTime::ZERO,
            &ProbeRequest::direct(mac(2), secret.clone()),
            40,
        );
        assert_eq!(ch.database_len(), before + 1);
        // Harvested SSIDs join the tail of the reply order.
        let last = *ch.reply_order().last().unwrap();
        assert_eq!(ch.database().resolve(last), &secret);
        // A static broadcast client eventually receives it.
        let probe = ProbeRequest::broadcast(mac(3));
        let mut offered = false;
        for round in 0..20 {
            let lures = ch.respond_to_probe(SimTime::from_secs(round * 60), &probe, 40);
            if lures.iter().any(|l| l.ssid == secret) {
                offered = true;
                assert!(lures
                    .iter()
                    .find(|l| l.ssid == secret)
                    .is_some_and(|l| l.source == LureSource::DirectProbe));
                break;
            }
            if lures.is_empty() {
                break;
            }
        }
        assert!(offered, "harvested SSID never offered");
    }

    #[test]
    fn hits_recorded_but_do_not_reorder() {
        let mut ch = setup();
        let order_before = ch.reply_order().to_vec();
        let probe = ProbeRequest::broadcast(mac(1));
        let lures = ch.respond_to_probe(SimTime::ZERO, &probe, 40);
        let target = lures[39].clone();
        ch.on_hit(SimTime::from_secs(1), mac(1), &target);
        assert_eq!(ch.db.entry(&target.ssid).unwrap().hits, 1);
        // §III has no popularity feedback: the reply order is unchanged.
        assert_eq!(ch.reply_order(), order_before);
    }
}
