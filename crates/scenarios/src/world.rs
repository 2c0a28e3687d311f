//! The shared city data and where each venue sits in it.

use ch_geo::{CityModel, GeoPoint, HeatMap, PhotoCollection, PoiKind, WigleSnapshot};
use ch_mobility::VenueKind;
use ch_phone::popgen::PopulationParams;
use ch_sim::SimRng;

/// Number of synthetic geotagged photos backing the heat map.
const PHOTO_COUNT: usize = 40_000;

/// Heat-map cell size in metres.
const HEAT_CELL_M: f64 = 100.0;

/// The city-level data shared by every experiment: expensive to build,
/// immutable afterwards.
#[derive(Debug, Clone)]
pub struct CityData {
    /// The synthetic city.
    pub city: CityModel,
    /// The WiGLE-like wardriving snapshot.
    pub wigle: WigleSnapshot,
    /// The photo-derived heat map (§IV-B).
    pub heat: HeatMap,
}

impl CityData {
    /// Builds the standard city from a seed.
    pub fn standard(seed: u64) -> Self {
        let mut rng = SimRng::seed_from(seed);
        let city = CityModel::synthesize(&mut rng);
        let wigle = WigleSnapshot::synthesize(&city, &mut rng);
        let photos = PhotoCollection::synthesize(&city, PHOTO_COUNT, &mut rng);
        let heat = HeatMap::from_photos(&city, &photos, HEAT_CELL_M);
        CityData { city, wigle, heat }
    }

    /// The city-frame location a venue kind is deployed at: a matching POI
    /// (the canteen venue sits at a canteen POI, etc.), chosen as the one
    /// with the highest footfall so the "nearby SSIDs" seed is meaningful.
    pub fn site_for(&self, venue: VenueKind) -> GeoPoint {
        let kind = match venue {
            VenueKind::SubwayPassage => PoiKind::SubwayStation,
            VenueKind::Canteen => PoiKind::Canteen,
            VenueKind::ShoppingCenter => PoiKind::Mall,
            VenueKind::RailwayStation => PoiKind::RailwayStation,
        };
        self.city
            .pois_of_kind(kind)
            .max_by(|a, b| {
                a.footfall.partial_cmp(&b.footfall).unwrap_or_else(|| {
                    ch_sim::invariant::violation(file!(), line!(), "POI footfall is not finite")
                })
            })
            .unwrap_or_else(|| {
                ch_sim::invariant::violation(file!(), line!(), "city is missing a POI kind")
            })
            .location
    }

    /// Population parameters tuned per venue: the share of phones already
    /// associated to legitimate local Wi-Fi differs (campus Wi-Fi blankets
    /// the canteen; a subway passage has almost none).
    pub fn population_params_for(&self, venue: VenueKind) -> PopulationParams {
        PopulationParams {
            connected_locally: match venue {
                VenueKind::Canteen => 0.18,
                VenueKind::SubwayPassage => 0.05,
                VenueKind::ShoppingCenter => 0.12,
                VenueKind::RailwayStation => 0.10,
            },
            ..PopulationParams::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_city_builds_once() {
        let data = CityData::standard(1);
        assert!(!data.wigle.is_empty());
        assert!(data.heat.total_mass() > 0);
    }

    #[test]
    fn sites_are_distinct_and_in_city() {
        let data = CityData::standard(2);
        let mut sites = Vec::new();
        for venue in VenueKind::ALL {
            let site = data.site_for(venue);
            assert!(data.city.extent().contains(site), "{}", venue.name());
            sites.push(site);
        }
        for i in 0..sites.len() {
            for j in (i + 1)..sites.len() {
                assert!(
                    sites[i].distance_to(sites[j]) > 1.0,
                    "venues {i} and {j} collapsed"
                );
            }
        }
    }

    #[test]
    fn canteen_has_most_local_connectivity() {
        let data = CityData::standard(3);
        let canteen = data.population_params_for(VenueKind::Canteen);
        let passage = data.population_params_for(VenueKind::SubwayPassage);
        assert!(canteen.connected_locally > passage.connected_locally);
    }
}
