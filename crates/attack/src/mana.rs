//! The MANA attacker (DEF CON 22), §II–§III flaws included.

use ch_sim::{CrashMode, SimTime};
use ch_wifi::mgmt::ProbeRequest;
use ch_wifi::{MacAddr, SsidId};

use crate::api::{direct_reply_into, Attacker, Lure, LureLane, LureSource};
use crate::db::SsidDatabase;

/// MANA: harvest SSIDs from direct probes into a database; on a broadcast
/// probe, replay the database.
///
/// The two §III deficiencies are modelled deliberately, because Table I /
/// Fig. 1 quantify them:
///
/// 1. the database starts **empty** (no offline seed) and grows only as
///    fast as legacy devices happen to walk past;
/// 2. the reply always starts from the **top of the database** with no
///    per-client memory, so a client only ever sees the first
///    `budget` (~40) SSIDs no matter how many times it scans.
///
/// The real `hostapd-mana` has two modes; both are modelled:
///
/// * **loud** (the paper's deployment): broadcast probes are answered with
///   SSIDs harvested from *all* devices;
/// * **non-loud** (the tool's default): each device is only offered SSIDs
///   it disclosed *itself* — useless against broadcast-only clients, which
///   is exactly why the paper evaluates loud mode.
#[derive(Debug, Clone)]
pub struct ManaAttacker {
    bssid: MacAddr,
    db: SsidDatabase,
    /// Insertion-ordered id list — MANA replays in harvest order. Ids
    /// resolve against the database's interner.
    harvest_order: Vec<SsidId>,
    /// Per-device disclosures, for non-loud mode.
    per_device: ch_sim::DetHashMap<MacAddr, Vec<SsidId>>,
    loud: bool,
}

impl ManaAttacker {
    /// Creates a loud-mode MANA attacker (the paper's configuration).
    pub fn new(bssid: MacAddr) -> Self {
        ManaAttacker {
            bssid,
            db: SsidDatabase::new(),
            harvest_order: Vec::new(),
            per_device: ch_sim::det_hash_map(),
            loud: true,
        }
    }

    /// Creates a non-loud MANA: broadcast probes are answered only with
    /// SSIDs the *same* device disclosed earlier.
    pub fn new_non_loud(bssid: MacAddr) -> Self {
        ManaAttacker {
            loud: false,
            ..ManaAttacker::new(bssid)
        }
    }

    /// `true` in loud mode.
    pub fn is_loud(&self) -> bool {
        self.loud
    }

    /// Read access to the database (Fig. 1 analysis).
    pub fn database(&self) -> &SsidDatabase {
        &self.db
    }

    /// The harvest-order id list (checkpoint export).
    pub fn harvest_order(&self) -> &[SsidId] {
        &self.harvest_order
    }

    /// Per-device disclosures sorted by client MAC (checkpoint export;
    /// sorted so the serialized form never depends on hash-map layout).
    pub fn per_device_sorted(&self) -> Vec<(MacAddr, Vec<SsidId>)> {
        let mut entries: Vec<(MacAddr, Vec<SsidId>)> = self
            .per_device
            .iter()
            .map(|(mac, ids)| (*mac, ids.clone()))
            .collect();
        entries.sort_by_key(|(mac, _)| mac.octets());
        entries
    }

    /// Overwrites the in-run harvest state from a checkpoint. The database
    /// must already have been restored (the id lists resolve against its
    /// interner).
    pub fn restore_state(
        &mut self,
        db: SsidDatabase,
        harvest_order: Vec<SsidId>,
        per_device: Vec<(MacAddr, Vec<SsidId>)>,
    ) {
        self.db = db;
        self.harvest_order = harvest_order;
        self.per_device.clear();
        for (mac, ids) in per_device {
            self.per_device.insert(mac, ids);
        }
    }
}

impl Attacker for ManaAttacker {
    fn name(&self) -> &'static str {
        "MANA"
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
            let replay = if self.loud {
                // Replay the database from the top; only the first
                // `budget` can land (§III-A).
                self.harvest_order.as_slice()
            } else {
                // Non-loud: only this device's own disclosures.
                self.per_device
                    .get(&probe.source)
                    .map_or(&[][..], Vec::as_slice)
            };
            for &id in replay.iter().take(budget) {
                out.push(Lure::new(
                    // ch-lint: allow(hot-path-alloc) — inline Ssid copy, no heap.
                    self.db.resolve(id).clone(),
                    LureSource::DirectProbe,
                    LureLane::Database,
                ));
            }
        } else {
            let known = self.db.contains(&probe.ssid);
            let id = self.db.observe_direct_probe(&probe.ssid, now);
            if !known {
                self.harvest_order.push(id);
            }
            let disclosed = self.per_device.entry(probe.source).or_default();
            if !disclosed.contains(&id) {
                disclosed.push(id);
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

    fn on_crash_restart(&mut self, _now: SimTime, _mode: CrashMode) {
        // hostapd-mana keeps its harvest in process memory only — there
        // is no checkpoint to restore, so every restart is a cold start
        // whatever recovery mode the fault plan asked for.
        self.db = SsidDatabase::new();
        self.harvest_order.clear();
        self.per_device.clear();
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
    use ch_wifi::Ssid;

    fn mac(i: u8) -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, i])
    }

    fn ssid(s: &str) -> Ssid {
        Ssid::new(s).unwrap()
    }

    #[test]
    fn database_starts_empty() {
        let mut mana = ManaAttacker::new(mac(9));
        let broadcast = ProbeRequest::broadcast(mac(1));
        assert!(mana
            .respond_to_probe(SimTime::ZERO, &broadcast, 40)
            .is_empty());
        assert_eq!(mana.database_len(), 0);
    }

    #[test]
    fn harvests_then_replays_in_order() {
        let mut mana = ManaAttacker::new(mac(9));
        for (i, name) in ["A", "B", "C"].iter().enumerate() {
            let probe = ProbeRequest::direct(mac(i as u8 + 1), ssid(name));
            mana.respond_to_probe(SimTime::from_secs(i as u64), &probe, 40);
        }
        assert_eq!(mana.database_len(), 3);
        let lures =
            mana.respond_to_probe(SimTime::from_secs(10), &ProbeRequest::broadcast(mac(5)), 40);
        let names: Vec<&str> = lures.iter().map(|l| l.ssid.as_str()).collect();
        assert_eq!(names, ["A", "B", "C"]);
        assert!(lures.iter().all(|l| l.lane == LureLane::Database));
    }

    #[test]
    fn replay_is_capped_and_identical_every_scan() {
        // The §III-A pathology: a big database doesn't help because every
        // scan sees the same head.
        let mut mana = ManaAttacker::new(mac(9));
        for i in 0..100u32 {
            let probe = ProbeRequest::direct(mac((i % 200) as u8), ssid(&format!("S{i:03}")));
            mana.respond_to_probe(SimTime::ZERO, &probe, 40);
        }
        assert_eq!(mana.database_len(), 100);
        let first =
            mana.respond_to_probe(SimTime::from_secs(1), &ProbeRequest::broadcast(mac(1)), 40);
        let second =
            mana.respond_to_probe(SimTime::from_secs(60), &ProbeRequest::broadcast(mac(1)), 40);
        assert_eq!(first.len(), 40);
        assert_eq!(first, second, "same head replayed to the same client");
    }

    #[test]
    fn duplicate_direct_probes_not_duplicated() {
        let mut mana = ManaAttacker::new(mac(9));
        let probe = ProbeRequest::direct(mac(1), ssid("Dup"));
        mana.respond_to_probe(SimTime::ZERO, &probe, 40);
        mana.respond_to_probe(SimTime::from_secs(1), &probe, 40);
        assert_eq!(mana.database_len(), 1);
        assert_eq!(mana.harvest_order.len(), 1);
    }

    #[test]
    fn non_loud_mode_only_echoes_own_disclosures() {
        let mut mana = ManaAttacker::new_non_loud(mac(9));
        assert!(!mana.is_loud());
        // Device 1 disclosed "Mine"; device 2 disclosed "Theirs".
        mana.respond_to_probe(
            SimTime::ZERO,
            &ProbeRequest::direct(mac(1), ssid("Mine")),
            40,
        );
        mana.respond_to_probe(
            SimTime::ZERO,
            &ProbeRequest::direct(mac(2), ssid("Theirs")),
            40,
        );
        // Device 1's broadcast gets only its own SSID back.
        let lures =
            mana.respond_to_probe(SimTime::from_secs(1), &ProbeRequest::broadcast(mac(1)), 40);
        let names: Vec<&str> = lures.iter().map(|l| l.ssid.as_str()).collect();
        assert_eq!(names, ["Mine"]);
        // A never-seen device gets nothing.
        assert!(mana
            .respond_to_probe(SimTime::from_secs(2), &ProbeRequest::broadcast(mac(3)), 40)
            .is_empty());
        // Loud mode would have offered both to everyone.
        let mut loud = ManaAttacker::new(mac(9));
        loud.respond_to_probe(
            SimTime::ZERO,
            &ProbeRequest::direct(mac(1), ssid("Mine")),
            40,
        );
        loud.respond_to_probe(
            SimTime::ZERO,
            &ProbeRequest::direct(mac(2), ssid("Theirs")),
            40,
        );
        assert_eq!(
            loud.respond_to_probe(SimTime::from_secs(1), &ProbeRequest::broadcast(mac(3)), 40)
                .len(),
            2
        );
    }

    #[test]
    fn hits_are_recorded() {
        let mut mana = ManaAttacker::new(mac(9));
        let probe = ProbeRequest::direct(mac(1), ssid("Hit"));
        mana.respond_to_probe(SimTime::ZERO, &probe, 40);
        let lure = Lure::new(ssid("Hit"), LureSource::DirectProbe, LureLane::Database);
        mana.on_hit(SimTime::from_secs(5), mac(2), &lure);
        assert_eq!(mana.database().entry(&ssid("Hit")).unwrap().hits, 1);
    }
}
