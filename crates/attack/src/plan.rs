//! Build-once attack-site plan: the WiGLE/heat derivations every
//! attacker constructor needs, precomputed so a campaign pays for them
//! once per venue instead of once per job.
//!
//! [`AttackSitePlan::build`] runs the three offline scans —
//! heat-ranked city SSIDs, site-nearest open SSIDs, and city-wide
//! AP-count ranking — and snapshots their results (with the rank
//! weights already attached) as plain `(Ssid, weight)` lists. The
//! attacker constructors ([`crate::CityHunter::from_plan`],
//! [`crate::PrelimCityHunter::from_plan`], and
//! [`crate::AttackerSpec::build_from_plan`] over both) seed their
//! databases from these lists and nothing else, so a campaign's shared
//! plan and a single run's own plan for the same site deploy identical
//! attackers.

use ch_geo::weights::rank_weights;
use ch_geo::{GeoPoint, HeatMap, WigleSnapshot};
use ch_wifi::Ssid;

use crate::prelim::{WIGLE_NEARBY, WIGLE_TOP_BY_HEAT};

/// Precomputed WiGLE seed lists for one deployment site.
///
/// Because each ranking is a total order (ties broken by SSID), every
/// prefix of these lists equals the same scan run with a smaller `n`:
/// `nearby_open[..1]` is the beacon-clone target, `nearby_open[..6]`
/// the detector's legitimate-AP neighbourhood.
#[derive(Debug, Clone)]
pub struct AttackSitePlan {
    /// Top [`WIGLE_TOP_BY_HEAT`] city SSIDs by heat, with their linear
    /// rank weights (the §IV-B seed).
    pub by_heat: Vec<(Ssid, f64)>,
    /// The [`WIGLE_NEARBY`] open SSIDs nearest the site, nearest first,
    /// with their linear rank weights (the §III-B local seed).
    pub nearby_open: Vec<(Ssid, f64)>,
    /// Top [`WIGLE_TOP_BY_HEAT`] open SSIDs by raw AP count (the §III
    /// city-wide seed; the preliminary attacker ignores weights).
    pub by_ap_count: Vec<Ssid>,
}

impl AttackSitePlan {
    /// Runs the offline scans once for a deployment at `site`.
    pub fn build(wigle: &WigleSnapshot, heat: &HeatMap, site: GeoPoint) -> Self {
        let top = wigle.top_by_heat(heat, WIGLE_TOP_BY_HEAT);
        let weights = rank_weights(top.len());
        let by_heat = top
            .into_iter()
            .zip(weights)
            .map(|((ssid, _), w)| (ssid, w))
            .collect();
        let nearby = wigle.nearest_open_ssids(site, WIGLE_NEARBY);
        let weights = rank_weights(nearby.len());
        let nearby_open = nearby.into_iter().zip(weights).collect();
        let by_ap_count = wigle
            .top_by_ap_count(WIGLE_TOP_BY_HEAT, true)
            .into_iter()
            .map(|(ssid, _count)| ssid)
            .collect();
        AttackSitePlan {
            by_heat,
            nearby_open,
            by_ap_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ch_geo::{CityModel, PhotoCollection};
    use ch_sim::SimRng;

    #[test]
    fn plan_prefixes_match_smaller_scans() {
        let mut rng = SimRng::seed_from(20);
        let city = CityModel::synthesize(&mut rng);
        let wigle = WigleSnapshot::synthesize(&city, &mut rng);
        let photos = PhotoCollection::synthesize(&city, 20_000, &mut rng);
        let heat = HeatMap::from_photos(&city, &photos, 100.0);
        let site = city.pois()[10].location;
        let plan = AttackSitePlan::build(&wigle, &heat, site);

        assert_eq!(plan.by_heat.len(), WIGLE_TOP_BY_HEAT);
        assert_eq!(plan.nearby_open.len(), WIGLE_NEARBY);
        assert_eq!(plan.by_ap_count.len(), WIGLE_TOP_BY_HEAT);

        // Prefix property: the head of the precomputed list is exactly
        // what a direct smaller scan returns (the beacon-clone target and
        // the detector's legitimate APs rely on this).
        let direct: Vec<Ssid> = wigle.nearest_open_ssids(site, 6);
        let prefix: Vec<Ssid> = plan
            .nearby_open
            .iter()
            .take(6)
            // ch-lint: allow(ssid-clone) — test-side comparison copy.
            .map(|(ssid, _)| ssid.clone())
            .collect();
        assert_eq!(prefix, direct);
    }
}
