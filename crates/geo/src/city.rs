//! The synthetic city.
//!
//! A city model is a set of districts and points of interest (POIs) with
//! *footfall* weights — how many people pass through per day. Footfall
//! drives three downstream artefacts that the paper's pipeline consumes:
//! where APs are deployed ([`crate::netdb`]), where geotagged photos are
//! taken ([`crate::photos`]), and which public SSIDs end up in phones'
//! PNLs (`ch-phone`). That shared origin is what makes a heat-ranked WiGLE
//! seed predictive of PNL contents — the effect City-Hunter lives on.

use ch_sim::SimRng;

use crate::point::{GeoPoint, GeoRect};

/// What kind of place a POI is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoiKind {
    /// The city airport — few APs, enormous footfall (the
    /// '#HKAirport Free WiFi' effect of §IV-B).
    Airport,
    /// A main-line railway station.
    RailwayStation,
    /// A subway/metro station.
    SubwayStation,
    /// A large shopping mall.
    Mall,
    /// A canteen / food court.
    Canteen,
    /// A convenience-store branch (the '7-Eleven' pattern).
    ConvenienceStore,
    /// A coffee-shop branch (the 'Starbucks' pattern).
    CoffeeShop,
    /// An office block.
    OfficeBlock,
    /// A residential block.
    ResidentialBlock,
}

impl PoiKind {
    /// All kinds, in synthesis order.
    pub const ALL: [PoiKind; 9] = [
        PoiKind::Airport,
        PoiKind::RailwayStation,
        PoiKind::SubwayStation,
        PoiKind::Mall,
        PoiKind::Canteen,
        PoiKind::ConvenienceStore,
        PoiKind::CoffeeShop,
        PoiKind::OfficeBlock,
        PoiKind::ResidentialBlock,
    ];
}

/// A point of interest.
#[derive(Debug, Clone, PartialEq)]
pub struct Poi {
    /// Human-readable name.
    pub name: String,
    /// Kind of place.
    pub kind: PoiKind,
    /// Location in the city frame.
    pub location: GeoPoint,
    /// Relative daily visitor weight (dimensionless).
    pub footfall: f64,
}

/// A named district of the city.
#[derive(Debug, Clone, PartialEq)]
pub struct District {
    /// District name.
    pub name: String,
    /// Footprint.
    pub area: GeoRect,
    /// Relative residential density (homes per unit area).
    pub residential_density: f64,
}

/// The whole synthetic city.
#[derive(Debug, Clone, PartialEq)]
pub struct CityModel {
    extent: GeoRect,
    districts: Vec<District>,
    pois: Vec<Poi>,
    /// `footfall_sums[i]` is the left-fold sum of the cleaned footfall of
    /// `pois[..=i]`, so its last entry is bit for bit the `total`
    /// [`SimRng::weighted_index`] computes over the same weights.
    footfall_sums: Vec<f64>,
}

/// Counts of each POI kind synthesized into the default city.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoiCensus {
    /// Airports.
    pub airports: usize,
    /// Railway stations.
    pub railway_stations: usize,
    /// Subway stations.
    pub subway_stations: usize,
    /// Malls.
    pub malls: usize,
    /// Canteens.
    pub canteens: usize,
    /// Convenience stores.
    pub convenience_stores: usize,
    /// Coffee shops.
    pub coffee_shops: usize,
    /// Office blocks.
    pub office_blocks: usize,
    /// Residential blocks.
    pub residential_blocks: usize,
}

impl Default for PoiCensus {
    fn default() -> Self {
        PoiCensus {
            airports: 1,
            railway_stations: 2,
            subway_stations: 14,
            malls: 8,
            canteens: 30,
            convenience_stores: 110,
            coffee_shops: 55,
            office_blocks: 60,
            residential_blocks: 160,
        }
    }
}

const DISTRICT_NAMES: [&str; 6] = [
    "Kowloon",
    "Lantao Island",
    "Central",
    "Wan Chai",
    "Sha Tin",
    "Tsuen Wan",
];

impl CityModel {
    /// Synthesizes the default 18 km × 12 km city.
    pub fn synthesize(rng: &mut SimRng) -> Self {
        CityModel::synthesize_with(rng, PoiCensus::default())
    }

    /// Synthesizes a city with an explicit POI census.
    pub fn synthesize_with(rng: &mut SimRng, census: PoiCensus) -> Self {
        let mut rng = rng.fork("city");
        let extent = GeoRect::new(GeoPoint::new(0.0, 0.0), GeoPoint::new(18_000.0, 12_000.0));

        // Six districts in a 3 × 2 grid.
        let dw = extent.width() / 3.0;
        let dh = extent.height() / 2.0;
        let districts: Vec<District> = DISTRICT_NAMES
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let col = (i % 3) as f64;
                let row = (i / 3) as f64;
                District {
                    name: (*name).to_owned(),
                    area: GeoRect::new(
                        GeoPoint::new(col * dw, row * dh),
                        GeoPoint::new((col + 1.0) * dw, (row + 1.0) * dh),
                    ),
                    residential_density: rng.range_f64(0.4, 1.0),
                }
            })
            .collect();

        let mut pois = Vec::new();
        let push = |pois: &mut Vec<Poi>,
                    rng: &mut SimRng,
                    kind: PoiKind,
                    count: usize,
                    base_footfall: f64,
                    spread: f64| {
            for i in 0..count {
                let location = extent.sample(rng);
                let footfall = base_footfall * rng.log_normal(0.0, spread);
                pois.push(Poi {
                    name: poi_name(kind, i),
                    kind,
                    location,
                    footfall,
                });
            }
        };

        push(
            &mut pois,
            &mut rng,
            PoiKind::Airport,
            census.airports,
            60_000.0,
            0.1,
        );
        push(
            &mut pois,
            &mut rng,
            PoiKind::RailwayStation,
            census.railway_stations,
            35_000.0,
            0.2,
        );
        push(
            &mut pois,
            &mut rng,
            PoiKind::SubwayStation,
            census.subway_stations,
            15_000.0,
            0.4,
        );
        push(
            &mut pois,
            &mut rng,
            PoiKind::Mall,
            census.malls,
            20_000.0,
            0.4,
        );
        push(
            &mut pois,
            &mut rng,
            PoiKind::Canteen,
            census.canteens,
            3_000.0,
            0.5,
        );
        push(
            &mut pois,
            &mut rng,
            PoiKind::ConvenienceStore,
            census.convenience_stores,
            1_200.0,
            0.5,
        );
        push(
            &mut pois,
            &mut rng,
            PoiKind::CoffeeShop,
            census.coffee_shops,
            1_000.0,
            0.5,
        );
        push(
            &mut pois,
            &mut rng,
            PoiKind::OfficeBlock,
            census.office_blocks,
            2_500.0,
            0.6,
        );
        push(
            &mut pois,
            &mut rng,
            PoiKind::ResidentialBlock,
            census.residential_blocks,
            800.0,
            0.6,
        );

        let footfall_sums = running_sums(&pois);
        CityModel {
            extent,
            districts,
            pois,
            footfall_sums,
        }
    }

    /// The city's bounding rectangle.
    pub fn extent(&self) -> GeoRect {
        self.extent
    }

    /// All districts.
    pub fn districts(&self) -> &[District] {
        &self.districts
    }

    /// All POIs.
    pub fn pois(&self) -> &[Poi] {
        &self.pois
    }

    /// The district a point falls into, if any.
    pub fn district_of(&self, p: GeoPoint) -> Option<&District> {
        self.districts.iter().find(|d| d.area.contains(p))
    }

    /// POIs of one kind.
    pub fn pois_of_kind(&self, kind: PoiKind) -> impl Iterator<Item = &Poi> {
        self.pois.iter().filter(move |p| p.kind == kind)
    }

    /// Sum of footfall across all POIs.
    pub fn total_footfall(&self) -> f64 {
        self.pois.iter().map(|p| p.footfall).sum()
    }

    /// Draws a POI with probability proportional to footfall — the
    /// "places people actually go" distribution the photo and WiGLE
    /// synthesis place their points around.
    ///
    /// Takes the one `unit_f64` draw [`SimRng::weighted_index`] takes over
    /// the POIs' footfall and picks the same POI, in O(log n): a binary
    /// search of the running sums instead of a scan of every weight.
    pub fn sample_poi_by_footfall(&self, rng: &mut SimRng) -> &Poi {
        let total = self.footfall_sums.last().copied().unwrap_or(0.0);
        assert!(total > 0.0, "city always has POIs with positive footfall");
        &self.pois[self.footfall_index(rng.unit_f64() * total)]
    }

    /// The POI index `weighted_index`'s scan stops at for `target`.
    ///
    /// The search over the running sums and the scan's running
    /// subtraction each round by at most `n·ε·total`, so a target farther
    /// than `4·n·ε·total` from both sums that bound it lands where the
    /// scan would. Closer to a sum, the scan itself decides.
    fn footfall_index(&self, target: f64) -> usize {
        let sums = &self.footfall_sums;
        let total = sums.last().copied().unwrap_or(0.0);
        let slack = 4.0 * sums.len() as f64 * f64::EPSILON * total;
        let i = sums.partition_point(|&sum| sum <= target);
        let below = if i == 0 { 0.0 } else { sums[i - 1] };
        if i < sums.len() && target - below > slack && sums[i] - target > slack {
            return i;
        }
        // Exactness guard: `weighted_index`'s own subtract-and-compare
        // scan, floating-point fallback included.
        let mut rest = target;
        for (i, poi) in self.pois.iter().enumerate() {
            let w = clean_weight(poi.footfall);
            if rest < w {
                return i;
            }
            rest -= w;
        }
        self.pois
            .iter()
            .rposition(|poi| clean_weight(poi.footfall) > 0.0)
            .expect("city always has POIs with positive footfall")
    }
}

/// The left-fold running sums of the POIs' cleaned footfall.
fn running_sums(pois: &[Poi]) -> Vec<f64> {
    pois.iter()
        .scan(0.0, |sum, poi| {
            *sum += clean_weight(poi.footfall);
            Some(*sum)
        })
        .collect()
}

/// A footfall weight as [`SimRng::weighted_index`] counts it: a
/// non-finite or non-positive weight counts as zero.
fn clean_weight(w: f64) -> f64 {
    if w.is_finite() && w > 0.0 {
        w
    } else {
        0.0
    }
}

fn poi_name(kind: PoiKind, index: usize) -> String {
    match kind {
        PoiKind::Airport => "HK Airport".to_owned(),
        PoiKind::RailwayStation => format!("Railway Station {}", index + 1),
        PoiKind::SubwayStation => format!("Subway Station {}", index + 1),
        PoiKind::Mall => {
            const MALLS: [&str; 8] = [
                "iSQUARE",
                "the ONE",
                "Harbour Plaza",
                "Festival Mall",
                "Ocean Galleria",
                "Victoria Centre",
                "Dragon Arcade",
                "Pearl Exchange",
            ];
            MALLS
                .get(index)
                .map(|s| (*s).to_owned())
                .unwrap_or_else(|| format!("Mall {}", index + 1))
        }
        PoiKind::Canteen => format!("Canteen {}", index + 1),
        PoiKind::ConvenienceStore => format!("Convenience Store {}", index + 1),
        PoiKind::CoffeeShop => format!("Coffee Shop {}", index + 1),
        PoiKind::OfficeBlock => format!("Office Block {}", index + 1),
        PoiKind::ResidentialBlock => format!("Residential Block {}", index + 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn city() -> CityModel {
        let mut rng = SimRng::seed_from(1);
        CityModel::synthesize(&mut rng)
    }

    #[test]
    fn synthesis_is_deterministic() {
        let mut r1 = SimRng::seed_from(5);
        let mut r2 = SimRng::seed_from(5);
        assert_eq!(
            CityModel::synthesize(&mut r1),
            CityModel::synthesize(&mut r2)
        );
    }

    #[test]
    fn census_counts_respected() {
        let c = city();
        let census = PoiCensus::default();
        assert_eq!(c.pois_of_kind(PoiKind::Airport).count(), census.airports);
        assert_eq!(c.pois_of_kind(PoiKind::Mall).count(), census.malls);
        assert_eq!(
            c.pois_of_kind(PoiKind::ConvenienceStore).count(),
            census.convenience_stores
        );
        assert_eq!(
            c.pois().len(),
            census.airports
                + census.railway_stations
                + census.subway_stations
                + census.malls
                + census.canteens
                + census.convenience_stores
                + census.coffee_shops
                + census.office_blocks
                + census.residential_blocks
        );
    }

    #[test]
    fn all_pois_inside_extent() {
        let c = city();
        for poi in c.pois() {
            assert!(c.extent().contains(poi.location), "{}", poi.name);
        }
    }

    #[test]
    fn districts_tile_the_extent() {
        let c = city();
        assert_eq!(c.districts().len(), 6);
        // Every POI belongs to exactly one district (grid tiling; boundary
        // double-counting tolerated as "at least one").
        for poi in c.pois() {
            assert!(c.district_of(poi.location).is_some(), "{}", poi.name);
        }
    }

    #[test]
    fn airport_outweighs_typical_shop() {
        let c = city();
        let airport = c.pois_of_kind(PoiKind::Airport).next().unwrap();
        let mean_shop: f64 = {
            let shops: Vec<_> = c.pois_of_kind(PoiKind::ConvenienceStore).collect();
            shops.iter().map(|p| p.footfall).sum::<f64>() / shops.len() as f64
        };
        assert!(
            airport.footfall > 10.0 * mean_shop,
            "airport {} vs shop mean {mean_shop}",
            airport.footfall
        );
    }

    #[test]
    fn footfall_sampling_prefers_big_pois() {
        let c = city();
        let mut rng = SimRng::seed_from(9);
        let mut airport_hits = 0;
        let n = 5_000;
        for _ in 0..n {
            if c.sample_poi_by_footfall(&mut rng).kind == PoiKind::Airport {
                airport_hits += 1;
            }
        }
        let share = airport_hits as f64 / n as f64;
        let expected =
            c.pois_of_kind(PoiKind::Airport).next().unwrap().footfall / c.total_footfall();
        assert!(
            (share - expected).abs() < 0.03,
            "share={share} expected={expected}"
        );
    }

    /// `0x0C17F00D` is `CITY_SEED`, the city every experiment runs in.
    const DIFFERENTIAL_SEEDS: [u64; 3] = [0x0C17_F00D, 1, 77];

    /// Asserts `draws` footfall draws pick the POIs `weighted_index` picks
    /// over the same footfall, from the same RNG state, and leave the RNG
    /// where it leaves it.
    fn assert_draws_match_weighted_index(c: &CityModel, rng_seed: u64, draws: usize) {
        let weights: Vec<f64> = c.pois().iter().map(|p| p.footfall).collect();
        let mut fast = SimRng::seed_from(rng_seed);
        let mut scan = fast.clone();
        for draw in 0..draws {
            let poi = c.sample_poi_by_footfall(&mut fast);
            let idx = scan.weighted_index(&weights).unwrap();
            assert!(
                std::ptr::eq(poi, &c.pois()[idx]),
                "draw {draw}: picked {} where weighted_index picks {}",
                poi.name,
                c.pois()[idx].name
            );
        }
        assert_eq!(fast.save_state(), scan.save_state());
    }

    #[test]
    fn footfall_draws_match_weighted_index() {
        for seed in DIFFERENTIAL_SEEDS {
            let c = CityModel::synthesize(&mut SimRng::seed_from(seed));
            assert_draws_match_weighted_index(&c, seed ^ 0x5eed, 100_000);
        }
        // Weights `weighted_index` counts as zero are never drawn.
        let mut c = CityModel::synthesize(&mut SimRng::seed_from(DIFFERENTIAL_SEEDS[0]));
        let last = c.pois.len() - 1;
        for (i, w) in [(0, f64::NAN), (5, 0.0), (9, -40.0), (last, f64::INFINITY)] {
            c.pois[i].footfall = w;
        }
        c.footfall_sums = running_sums(&c.pois);
        assert_draws_match_weighted_index(&c, 3, 20_000);
    }

    /// `weighted_index`'s scan for a given target, written out on its own.
    fn reference_scan(weights: &[f64], target: f64) -> usize {
        let mut rest = target;
        for (i, &w) in weights.iter().enumerate() {
            let w = if w.is_finite() && w > 0.0 { w } else { 0.0 };
            if rest < w {
                return i;
            }
            rest -= w;
        }
        weights
            .iter()
            .rposition(|w| w.is_finite() && *w > 0.0)
            .unwrap()
    }

    #[test]
    fn targets_at_running_sums_agree_with_the_scan() {
        for seed in DIFFERENTIAL_SEEDS {
            let c = CityModel::synthesize(&mut SimRng::seed_from(seed));
            let weights: Vec<f64> = c.pois().iter().map(|p| p.footfall).collect();
            let total = *c.footfall_sums.last().unwrap();
            let mut targets = vec![0.0, total.next_down()];
            for &sum in &c.footfall_sums {
                let (mut up, mut down) = (sum, sum);
                targets.push(sum);
                for _ in 0..4 {
                    up = up.next_up();
                    down = down.next_down();
                    targets.extend([up, down]);
                }
            }
            for target in targets.into_iter().filter(|&t| (0.0..total).contains(&t)) {
                assert_eq!(
                    c.footfall_index(target),
                    reference_scan(&weights, target),
                    "seed {seed}, target {target:e}"
                );
            }
        }
    }

    #[test]
    fn fork_isolation_from_parent_rng_use() {
        // Consuming draws from the parent before synthesis must not change
        // the city (synthesize forks off the parent's seed).
        let mut r1 = SimRng::seed_from(8);
        let c1 = CityModel::synthesize(&mut r1);
        let mut r2 = SimRng::seed_from(8);
        let _ = r2.next_u64();
        let c2 = CityModel::synthesize(&mut r2);
        assert_eq!(c1, c2);
    }
}
