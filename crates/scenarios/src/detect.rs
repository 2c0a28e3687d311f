//! Runner-side glue for the `ch-detect` rogue-AP detector.
//!
//! A [`DetectionHarness`] drops a [`Detector`] into the venue as a passive
//! monitor: it taps the same delivered frames the clients see, surrounds
//! the rogue with a handful of *legitimate* neighbourhood APs (beaconing
//! the open SSIDs WiGLE knows near the deployment site, so signature rules
//! have an honest baseline to discriminate against), and keeps the
//! ground-truth MAC sets the end-of-run [`DetectionReport`] is scored
//! with. Everything here is schedule arithmetic over [`Cadence`]s — the
//! harness consumes no randomness, so a run with the detector enabled is
//! draw-for-draw identical to the same run without it.

use ch_attack::Attacker;
use ch_detect::{DetectionReport, Detector, Strictness};
use ch_geo::GeoPoint;
use ch_sim::{det_hash_set, Cadence, DetHashSet, SimDuration, SimTime};
use ch_wifi::mgmt::{Beacon, MgmtFrame};
use ch_wifi::{Channel, MacAddr, Ssid};

use crate::world::CityData;

/// How many legitimate neighbourhood APs the harness instantiates.
const LEGIT_AP_COUNT: usize = 6;

/// OUI the legitimate harness APs are minted under (a vendor block unused
/// by both the rogue defaults and the rotation pool).
const LEGIT_AP_OUI: [u8; 3] = [0xf0, 0x9f, 0xc2];

/// Sampled beacon cadence of the legitimate APs. Real APs beacon every
/// ~100 TU; the monitor-side view is sampled far sparser to keep the tap
/// cheap, and the detector's interval fingerprint reads the frame's
/// `interval_tu` field rather than inter-arrival times.
const LEGIT_BEACON_PERIOD: SimDuration = SimDuration::from_secs(5);

struct LegitAp {
    bssid: MacAddr,
    ssid: Ssid,
    beacons: Cadence,
}

/// One run's detection stack: the detector, the legitimate-AP beacon
/// sources, and the ground-truth bookkeeping.
pub struct DetectionHarness {
    detector: Detector,
    legit_aps: Vec<LegitAp>,
    rogue: DetHashSet<MacAddr>,
    legit: DetHashSet<MacAddr>,
}

impl DetectionHarness {
    /// Builds the harness for a run deployed at `site`: the legitimate APs
    /// advertise the open SSIDs WiGLE places nearest the site — the same
    /// neighbourhood the attacker's WiGLE seed (and the beacon-cloning
    /// evasion) draws from.
    pub fn new(strictness: Strictness, data: &CityData, site: GeoPoint) -> Self {
        Self::with_legit_ssids(
            strictness,
            data.wigle.nearest_open_ssids(site, LEGIT_AP_COUNT),
        )
    }

    /// [`DetectionHarness::new`] from an already-resolved legitimate-AP
    /// SSID list — the campaign path, where the per-venue WiGLE scan ran
    /// once at context-build time. Only the first `LEGIT_AP_COUNT`
    /// entries are used, so handing the (longer) shared nearby-open plan
    /// list builds the identical harness.
    pub fn with_legit_ssids(strictness: Strictness, ssids: impl IntoIterator<Item = Ssid>) -> Self {
        let mut legit = det_hash_set();
        let legit_aps: Vec<LegitAp> = ssids
            .into_iter()
            .take(LEGIT_AP_COUNT)
            .enumerate()
            .map(|(i, ssid)| {
                let bssid = MacAddr::from_index(LEGIT_AP_OUI, 9000 + i as u32);
                legit.insert(bssid);
                LegitAp {
                    bssid,
                    ssid,
                    // Staggered starts so the legitimate beacons interleave
                    // instead of arriving as one synchronized block.
                    beacons: Cadence::new(
                        LEGIT_BEACON_PERIOD,
                        SimTime::ZERO + SimDuration::from_millis(700 * i as u64),
                    ),
                }
            })
            .collect();
        DetectionHarness {
            detector: Detector::new(strictness),
            legit_aps,
            rogue: det_hash_set(),
            legit,
        }
    }

    /// Feeds one delivered frame to the detector (the runner calls this at
    /// every frame-observer tap site).
    pub fn observe(&mut self, at: SimTime, frame: &MgmtFrame) {
        self.detector.observe(at, frame);
    }

    /// Registers a MAC the rogue actually transmitted under (re-read per
    /// response burst, because MAC-rotation evasion changes it mid-run).
    pub fn note_rogue(&mut self, bssid: MacAddr) {
        self.rogue.insert(bssid);
    }

    /// Advances the beacon plane to `now`: due legitimate-AP beacons are
    /// emitted into the detector, and the attacker is polled for a beacon
    /// of its own (non-`None` only under beacon-cloning evasion).
    pub fn tick(&mut self, now: SimTime, attacker: &mut dyn Attacker) {
        for ap in &mut self.legit_aps {
            while let Some(due) = ap.beacons.pop_due(now) {
                // ch-lint: allow(ssid-clone) — inline Ssid copy (no heap) on
                // the beacon plane, outside the probe hot path.
                let beacon = Beacon::open(ap.bssid, ap.ssid.clone(), Channel::default());
                self.detector.observe(due, &MgmtFrame::Beacon(beacon));
            }
        }
        if let Some(beacon) = attacker.beacon(now) {
            self.rogue.insert(beacon.bssid);
            self.detector.observe(now, &MgmtFrame::Beacon(beacon));
        }
    }

    /// Read access to the live detector (verdict stream, flag times).
    pub fn detector(&self) -> &Detector {
        &self.detector
    }

    /// Scores the finished run against the ground-truth MAC sets.
    pub fn report(&self) -> DetectionReport {
        DetectionReport::evaluate(&self.detector, &self.rogue, &self.legit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ch_attack::{AttackSitePlan, AttackerSpec, EvasionSpec, KarmaAttacker};

    #[test]
    fn harness_beacons_legit_aps_deterministically() {
        let data = CityData::standard(99);
        let site = data.site_for(ch_mobility::VenueKind::Canteen);
        let mut attacker = KarmaAttacker::new(AttackerSpec::default_bssid());
        let mut harness = DetectionHarness::new(Strictness::Standard, &data, site);
        harness.tick(SimTime::from_secs(30), &mut attacker);
        // Six legitimate APs, each caught up to t=30 s.
        assert_eq!(harness.detector().profiled_count(), LEGIT_AP_COUNT);
        let frames = harness.detector().frames_observed();
        assert!(frames >= 6 * 6, "{frames}"); // ≥ six beacons per AP
                                              // KARMA never beacons, so the rogue set stays empty until a
                                              // response burst registers it.
        assert!(harness.report().rogue_macs == 0);
        harness.note_rogue(attacker.bssid());
        assert_eq!(harness.report().rogue_macs, 1);
        assert_eq!(harness.report().legit_aps, LEGIT_AP_COUNT as u64);
        // A second harness over the same inputs sees the identical stream.
        let mut twin = DetectionHarness::new(Strictness::Standard, &data, site);
        twin.tick(SimTime::from_secs(30), &mut attacker);
        assert_eq!(twin.detector().frames_observed(), frames);
    }

    #[test]
    fn harness_hears_cloned_beacons_from_evasive_attacker() {
        let data = CityData::standard(99);
        let site = data.site_for(ch_mobility::VenueKind::Canteen);
        let spec = AttackerSpec::Karma.with_evasion(EvasionSpec::clone_beacons());
        let plan = AttackSitePlan::build(&data.wigle, &data.heat, site);
        let mut attacker = spec.build_from_plan(AttackerSpec::default_bssid(), &plan);
        let mut harness = DetectionHarness::new(Strictness::Standard, &data, site);
        harness.tick(SimTime::from_secs(10), attacker.as_mut());
        // The cloning attacker beaconed, so its MAC entered ground truth
        // without any probe-response burst.
        let report = harness.report();
        assert_eq!(report.rogue_macs, 1);
        assert!(harness.detector().profiled_count() > LEGIT_AP_COUNT);
    }
}
