//! Declarative attacker specification — the spec layer of the experiment
//! stack.
//!
//! Every place that deploys an attacker (the `ch-scenarios` runner, the
//! ablation matrix, sweeps, replication, and the `defense` countermeasure
//! study) used to construct `KarmaAttacker`/`ManaAttacker`/… by
//! hand. [`AttackerSpec`] centralizes that: a spec is plain data naming
//! which generation to deploy (and, for the full City-Hunter, its
//! configuration), and [`AttackerSpec::build_from_plan`] is the single
//! constructor the whole workspace shares.

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

    /// Instantiates the attacker from a deployment site's
    /// [`AttackSitePlan`]. KARMA and MANA predate the offline data and
    /// ignore the plan. A campaign builds one plan per venue and shares it
    /// across its jobs; a single run builds one for its site.
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
                // Clone the legitimate AP nearest the deployment site —
                // the same neighbourhood the detector observes.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use ch_geo::{CityModel, GeoPoint, HeatMap, PhotoCollection, WigleSnapshot};
    use ch_sim::SimRng;

    const SITE: GeoPoint = GeoPoint {
        east_m: 100.0,
        north_m: 100.0,
    };

    fn wigle_and_plan() -> (WigleSnapshot, AttackSitePlan) {
        let mut rng = SimRng::seed_from(5);
        let city = CityModel::synthesize(&mut rng);
        let wigle = WigleSnapshot::synthesize(&city, &mut rng);
        let photos = PhotoCollection::synthesize(&city, 200, &mut rng);
        let heat = HeatMap::from_photos(&city, &photos, 50.0);
        let plan = AttackSitePlan::build(&wigle, &heat, SITE);
        (wigle, plan)
    }

    #[test]
    fn spec_builds_every_generation_with_matching_names() {
        let (_, plan) = wigle_and_plan();
        for spec in [
            AttackerSpec::Karma,
            AttackerSpec::Mana,
            AttackerSpec::Prelim,
            AttackerSpec::CityHunter(CityHunterConfig::default()),
        ] {
            let attacker = spec.build_from_plan(AttackerSpec::default_bssid(), &plan);
            assert_eq!(attacker.name(), spec.name());
            assert_eq!(attacker.bssid(), AttackerSpec::default_bssid());
        }
    }

    #[test]
    fn evasive_spec_wraps_and_resolves_clone_target() {
        let (wigle, plan) = wigle_and_plan();

        // `with_evasion(none)` stays un-wrapped, so sweep axes compose.
        let plain = AttackerSpec::Karma.with_evasion(EvasionSpec::none());
        assert_eq!(plain, AttackerSpec::Karma);

        let spec = AttackerSpec::Mana.with_evasion(EvasionSpec::clone_beacons());
        assert_eq!(spec.name(), "MANA");
        let mut attacker = spec.build_from_plan(AttackerSpec::default_bssid(), &plan);
        assert_eq!(attacker.name(), "MANA");
        // The clone target resolves to the legitimate AP nearest the site,
        // so the wrapper beacons under a real neighbourhood SSID.
        let expected = wigle.nearest_open_ssids(SITE, 1);
        let beacon = attacker.beacon(ch_sim::SimTime::from_secs(10)).unwrap();
        assert_eq!(Some(&beacon.ssid), expected.first());

        // Rotation moves the wire BSSID off the spec default.
        let rotating = AttackerSpec::Karma.with_evasion(EvasionSpec::rotate_every(
            ch_sim::SimDuration::from_secs(60),
        ));
        let rotated = rotating.build_from_plan(AttackerSpec::default_bssid(), &plan);
        assert_ne!(rotated.bssid(), AttackerSpec::default_bssid());
    }
}
