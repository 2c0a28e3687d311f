//! Declarative attacker specification — the spec layer of the experiment
//! stack.
//!
//! Every place that deploys an attacker (the `ch-scenarios` runner, the
//! ablation matrix, sweeps, replication, and the `defense` countermeasure
//! study) used to construct `KarmaAttacker`/`ManaAttacker`/… by
//! hand. [`AttackerSpec`] centralizes that: a spec is plain data naming
//! which generation to deploy (and, for the full City-Hunter, its
//! configuration), and [`AttackerSpec::build`] is the single constructor
//! the whole workspace shares.

use ch_geo::{GeoPoint, HeatMap, WigleSnapshot};
use ch_wifi::MacAddr;

use crate::{
    AttackSitePlan, Attacker, CityHunter, CityHunterConfig, EvasionSpec, EvasiveAttacker,
    KarmaAttacker, ManaAttacker, PrelimCityHunter,
};

/// Which attacker generation to deploy, as declarative data.
#[derive(Debug, Clone, PartialEq)]
pub enum AttackerSpec {
    /// KARMA baseline (answers direct probes only; `h_b = 0`).
    Karma,
    /// MANA baseline (harvests direct probes, replays to broadcast).
    Mana,
    /// §III preliminary City-Hunter (WiGLE seed + untried tracking).
    Prelim,
    /// §IV full City-Hunter with the given configuration.
    CityHunter(CityHunterConfig),
    /// Any generation wrapped with the [`EvasionSpec`] counter-detection
    /// knobs (the arms-race experiment's attacker axis).
    Evasive {
        /// The wrapped generation.
        base: Box<AttackerSpec>,
        /// Which evasion knobs are on.
        evasion: EvasionSpec,
    },
}

impl AttackerSpec {
    /// The BSSID every experiment deploys its rogue AP under.
    pub fn default_bssid() -> MacAddr {
        MacAddr::from_index([0x0a, 0xbc, 0xde], 1)
    }

    /// The generation's display name (matches the built
    /// [`Attacker::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            AttackerSpec::Karma => "KARMA",
            AttackerSpec::Mana => "MANA",
            AttackerSpec::Prelim => "City-Hunter (preliminary)",
            AttackerSpec::CityHunter(_) => "City-Hunter",
            AttackerSpec::Evasive { base, .. } => base.name(),
        }
    }

    /// Wraps this spec with evasion knobs (a no-op spec change when every
    /// knob is off, so sweep axes can include "none" uniformly).
    pub fn with_evasion(self, evasion: EvasionSpec) -> Self {
        if evasion.is_none() {
            self
        } else {
            AttackerSpec::Evasive {
                base: Box::new(self),
                evasion,
            }
        }
    }

    /// Instantiates the attacker at a deployment site. `wigle`/`heat` are
    /// the offline data products (ignored by the baselines that predate
    /// them).
    pub fn build(
        &self,
        bssid: MacAddr,
        wigle: &WigleSnapshot,
        heat: &HeatMap,
        site: GeoPoint,
    ) -> Box<dyn Attacker> {
        match self {
            AttackerSpec::Karma => Box::new(KarmaAttacker::new(bssid)),
            AttackerSpec::Mana => Box::new(ManaAttacker::new(bssid)),
            AttackerSpec::Prelim => Box::new(PrelimCityHunter::new(bssid, wigle, heat, site)),
            AttackerSpec::CityHunter(config) => {
                Box::new(CityHunter::new(bssid, wigle, heat, site, config.clone()))
            }
            AttackerSpec::Evasive { base, evasion } => {
                let inner = base.build(bssid, wigle, heat, site);
                // Clone the legitimate AP nearest the deployment site — the
                // same neighbourhood the detector observes.
                let clone_target = if evasion.beacon_clone {
                    wigle.nearest_open_ssids(site, 1).into_iter().next()
                } else {
                    None
                };
                Box::new(EvasiveAttacker::new(inner, evasion.clone(), clone_target))
            }
        }
    }

    /// [`build`](AttackerSpec::build) from a precomputed
    /// [`AttackSitePlan`] — the campaign path: the WiGLE scans ran once
    /// per venue at context-build time, and every job deploys from the
    /// shared plan with bit-identical results.
    pub fn build_from_plan(&self, bssid: MacAddr, plan: &AttackSitePlan) -> Box<dyn Attacker> {
        match self {
            AttackerSpec::Karma => Box::new(KarmaAttacker::new(bssid)),
            AttackerSpec::Mana => Box::new(ManaAttacker::new(bssid)),
            AttackerSpec::Prelim => Box::new(PrelimCityHunter::from_plan(bssid, plan)),
            AttackerSpec::CityHunter(config) => {
                Box::new(CityHunter::from_plan(bssid, plan, config.clone()))
            }
            AttackerSpec::Evasive { base, evasion } => {
                let inner = base.build_from_plan(bssid, plan);
                // Plan prefixes equal smaller scans, so the head of the
                // nearby-open list is exactly `nearest_open_ssids(site, 1)`.
                let clone_target = if evasion.beacon_clone {
                    // ch-lint: allow(ssid-clone) — construction-time inline copy.
                    plan.nearby_open.first().map(|(ssid, _)| ssid.clone())
                } else {
                    None
                };
                Box::new(EvasiveAttacker::new(inner, evasion.clone(), clone_target))
            }
        }
    }

    /// [`build`](AttackerSpec::build) under
    /// [`default_bssid`](AttackerSpec::default_bssid) — what every
    /// experiment driver uses.
    pub fn build_default(
        &self,
        wigle: &WigleSnapshot,
        heat: &HeatMap,
        site: GeoPoint,
    ) -> Box<dyn Attacker> {
        self.build(Self::default_bssid(), wigle, heat, site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ch_geo::{CityModel, PhotoCollection};
    use ch_sim::SimRng;

    #[test]
    fn spec_builds_every_generation_with_matching_names() {
        let mut rng = SimRng::seed_from(5);
        let city = CityModel::synthesize(&mut rng);
        let wigle = WigleSnapshot::synthesize(&city, &mut rng);
        let photos = PhotoCollection::synthesize(&city, 200, &mut rng);
        let heat = HeatMap::from_photos(&city, &photos, 50.0);
        let site = GeoPoint {
            east_m: 100.0,
            north_m: 100.0,
        };
        for spec in [
            AttackerSpec::Karma,
            AttackerSpec::Mana,
            AttackerSpec::Prelim,
            AttackerSpec::CityHunter(CityHunterConfig::default()),
        ] {
            let attacker = spec.build_default(&wigle, &heat, site);
            assert_eq!(attacker.name(), spec.name());
            assert_eq!(attacker.bssid(), AttackerSpec::default_bssid());
        }
    }

    #[test]
    fn evasive_spec_wraps_and_resolves_clone_target() {
        let mut rng = SimRng::seed_from(5);
        let city = CityModel::synthesize(&mut rng);
        let wigle = WigleSnapshot::synthesize(&city, &mut rng);
        let photos = PhotoCollection::synthesize(&city, 200, &mut rng);
        let heat = HeatMap::from_photos(&city, &photos, 50.0);
        let site = GeoPoint {
            east_m: 100.0,
            north_m: 100.0,
        };

        // `with_evasion(none)` stays un-wrapped, so sweep axes compose.
        let plain = AttackerSpec::Karma.with_evasion(EvasionSpec::none());
        assert_eq!(plain, AttackerSpec::Karma);

        let spec = AttackerSpec::Mana.with_evasion(EvasionSpec::clone_beacons());
        assert_eq!(spec.name(), "MANA");
        let mut attacker = spec.build_default(&wigle, &heat, site);
        assert_eq!(attacker.name(), "MANA");
        // The clone target resolves to the legitimate AP nearest the site,
        // so the wrapper beacons under a real neighbourhood SSID.
        let expected = wigle.nearest_open_ssids(site, 1);
        let beacon = attacker.beacon(ch_sim::SimTime::from_secs(10)).unwrap();
        assert_eq!(Some(&beacon.ssid), expected.first());

        // Rotation moves the wire BSSID off the spec default.
        let rotating = AttackerSpec::Karma.with_evasion(EvasionSpec::rotate_every(
            ch_sim::SimDuration::from_secs(60),
        ));
        let rotated = rotating.build_default(&wigle, &heat, site);
        assert_ne!(rotated.bssid(), AttackerSpec::default_bssid());
    }
}
