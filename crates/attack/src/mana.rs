//! The MANA attacker (DEF CON 22), §II–§III flaws included.

use ch_sim::{CrashMode, SimTime};
use ch_wifi::mgmt::ProbeRequest;
use ch_wifi::{MacAddr, SsidId};

use crate::api::{direct_reply_into, Attacker, Lure, LureLane, LureSource};
use crate::db::SsidDatabase;

/// Everything MANA learns online: the harvest and the order it replays
/// it in.
#[derive(Debug, Clone, Default)]
pub struct ManaState {
    /// The harvested SSIDs.
    pub db: SsidDatabase,
    /// Insertion-ordered id list — MANA replays in harvest order. Ids
    /// resolve against `db`'s interner.
    pub harvest_order: Vec<SsidId>,
}

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
/// This is `hostapd-mana`'s **loud** mode, the one the paper deploys: a
/// broadcast probe is answered with SSIDs harvested from *all* devices.
/// The tool's default mode offers each device only the SSIDs it disclosed
/// itself, so a broadcast-only client, most of the population, gets
/// nothing; the paper "replays the whole DB to broadcast probes", and so
/// does this model.
#[derive(Debug, Clone)]
pub struct ManaAttacker {
    bssid: MacAddr,
    pub(crate) state: ManaState,
}

impl ManaAttacker {
    /// Creates a MANA attacker with an empty harvest.
    pub fn new(bssid: MacAddr) -> Self {
        ManaAttacker {
            bssid,
            state: ManaState::default(),
        }
    }

    /// Read access to the database (Fig. 1 analysis).
    pub fn database(&self) -> &SsidDatabase {
        &self.state.db
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
            // Replay the database from the top; only the first `budget`
            // can land (§III-A).
            for &id in self.state.harvest_order.iter().take(budget) {
                out.push(Lure::new(
                    // ch-lint: allow(hot-path-alloc) — inline Ssid copy, no heap.
                    self.state.db.resolve(id).clone(),
                    LureSource::DirectProbe,
                    LureLane::Database,
                ));
            }
        } else {
            let known = self.state.db.contains(&probe.ssid);
            let id = self.state.db.observe_direct_probe(&probe.ssid, now);
            if !known {
                self.state.harvest_order.push(id);
            }
            direct_reply_into(probe, out);
        }
    }

    fn on_hit(&mut self, now: SimTime, _client: MacAddr, lure: &Lure) {
        self.state.db.record_hit(&lure.ssid, now);
    }

    fn database_len(&self) -> usize {
        self.state.db.len()
    }

    fn on_crash_restart(&mut self, _now: SimTime, _mode: CrashMode) {
        // hostapd-mana keeps its harvest in process memory only — there
        // is no checkpoint to restore, so every restart is a cold start
        // whatever recovery mode the fault plan asked for.
        self.state = ManaState::default();
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
        assert_eq!(mana.state.harvest_order.len(), 1);
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
