//! The WiGLE-like network database.
//!
//! [`WigleSnapshot`] is the offline data source City-Hunter mines before
//! deployment (§III-B, §IV-B): every wardriven AP in the city with its
//! SSID, location and security posture. The synthesis reproduces the
//! structure the paper reports for Hong Kong:
//!
//! * a head of *city-wide chain* SSIDs with hundreds of APs each
//!   ('-Free HKBN Wi-Fi-', '7-Eleven Free Wifi', …);
//! * *hotspot* SSIDs with few APs but enormous footfall
//!   ('#HKAirport Free WiFi' has ~231 APs yet top-5 heat, 'Free Public
//!   WiFi' ~400 APs in crowded spots);
//! * venue SSIDs tied to single POIs; and
//! * a long, mostly-protected residential tail.
//!
//! Carrier SSIDs (e.g. 'PCCW1x') are deliberately *absent*: the paper notes
//! they can be obtained neither from WiGLE nor from direct probes, which is
//! what makes the §V-B carrier extension interesting. They live in
//! [`carrier_ssids`].

use std::cmp::Ordering;

use ch_sim::{det_hash_map, DetHashMap, SimRng};
use ch_wifi::{MacAddr, Ssid};

use crate::city::{CityModel, PoiKind};
use crate::heat::HeatMap;
use crate::point::GeoPoint;

/// Why an SSID exists in the city — drives AP counts, placement and
/// security posture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SsidCategory {
    /// City-wide chain (convenience stores, coffee shops, ISP hotspots).
    Chain,
    /// Few APs concentrated at one or two high-footfall locations.
    Hotspot,
    /// Venue-specific network of a single POI.
    Venue,
    /// A home network.
    Residential,
    /// A mobile-carrier auto-join network (never in WiGLE).
    Carrier,
}

/// One AP observation, WiGLE-style.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkRecord {
    /// Advertised SSID.
    pub ssid: Ssid,
    /// AP BSSID.
    pub bssid: MacAddr,
    /// Wardriven location.
    pub location: GeoPoint,
    /// `true` if the network is open (no WPA2) — the only networks an
    /// evil twin can auto-join a victim onto.
    pub open: bool,
    /// Category of the owning SSID.
    pub category: SsidCategory,
}

/// The paper-visible head of the chain distribution: `(ssid, ap_count,
/// open)`. Counts are arranged so that ranking by raw AP count puts
/// '#HKAirport Free WiFi' at rank 13, matching §IV-B.
const CHAIN_HEAD: [(&str, usize, bool); 13] = [
    ("-Free HKBN Wi-Fi-", 1_100, true),
    ("7-Eleven Free Wifi", 924, true),
    ("-Circle K Free Wi-Fi-", 850, true),
    ("CSL", 800, true),
    ("CMCC-WEB", 760, true),
    ("Starbucks Free WiFi", 600, true),
    ("McDonald's Free WiFi", 550, true),
    ("Maxim's WiFi", 500, true),
    ("KFC Free WiFi", 450, true),
    ("Pacific Coffee WiFi", 420, true),
    ("Free Public WiFi", 400, true),
    ("MTR Free Wi-Fi", 380, true),
    ("#HKAirport Free WiFi", 231, true),
];

/// Number of generated long-tail chain SSIDs.
const CHAIN_TAIL: usize = 80;

/// Number of residential networks in the snapshot.
const RESIDENTIAL_COUNT: usize = 6_000;

/// Fraction of residential networks that are open (legacy routers).
const RESIDENTIAL_OPEN_FRACTION: f64 = 0.08;

/// The carrier auto-join SSIDs pre-provisioned on subscriber phones
/// (§V-B); obtainable neither from WiGLE nor from direct probes.
pub fn carrier_ssids() -> Vec<Ssid> {
    [
        "PCCW1x",
        "CSL-Auto",
        "CMHK-auto",
        "SmarTone-Auto",
        "3HK-Auto",
    ]
    .into_iter()
    .map(|s| Ssid::new(s).expect("carrier ssids are short"))
    .collect()
}

/// The wardriving snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct WigleSnapshot {
    records: Vec<NetworkRecord>,
    by_ssid: DetHashMap<Ssid, Vec<usize>>,
}

impl WigleSnapshot {
    /// Builds a snapshot from explicit records (used by tests and failure
    /// injection; experiments use [`WigleSnapshot::synthesize`]).
    pub fn from_records(records: Vec<NetworkRecord>) -> Self {
        let mut by_ssid: DetHashMap<Ssid, Vec<usize>> = det_hash_map();
        for (i, r) in records.iter().enumerate() {
            by_ssid.entry(r.ssid.clone()).or_default().push(i);
        }
        WigleSnapshot { records, by_ssid }
    }

    /// An empty snapshot (failure-injection: attacker with no offline
    /// data).
    pub fn empty() -> Self {
        WigleSnapshot::from_records(Vec::new())
    }

    /// Synthesizes the city's wardriving database.
    pub fn synthesize(city: &CityModel, rng: &mut SimRng) -> Self {
        let mut rng = rng.fork("wigle");
        let mut records = Vec::new();
        let mut bssid_counter: u32 = 1;
        let mint = |counter: &mut u32| {
            let mac = MacAddr::from_index([0x00, 0x1b, 0x2f], *counter);
            *counter += 1;
            mac
        };

        // --- Chain head -------------------------------------------------
        for (name, count, open) in CHAIN_HEAD {
            let ssid = Ssid::new(name).expect("chain names are short");
            for _ in 0..count {
                let location = match name {
                    // The airport SSID lives in the terminals, right where
                    // the crowds (and their photos) are (§IV-B).
                    "#HKAirport Free WiFi" => jitter(airport_location(city), 120.0, &mut rng),
                    // 'Free Public WiFi' sits in crowded locations.
                    "Free Public WiFi" => jitter(
                        city.sample_poi_by_footfall(&mut rng).location,
                        80.0,
                        &mut rng,
                    ),
                    // The MTR network lives at stations.
                    "MTR Free Wi-Fi" => {
                        let stations: Vec<_> = city
                            .pois_of_kind(PoiKind::SubwayStation)
                            .chain(city.pois_of_kind(PoiKind::RailwayStation))
                            .collect();
                        let poi = stations[rng.range_usize(0, stations.len())];
                        jitter(poi.location, 120.0, &mut rng)
                    }
                    // Everything else: streetside, biased towards places
                    // people go but with a uniform component.
                    _ => {
                        if rng.chance(0.6) {
                            jitter(
                                city.sample_poi_by_footfall(&mut rng).location,
                                150.0,
                                &mut rng,
                            )
                        } else {
                            city.extent().sample(&mut rng)
                        }
                    }
                };
                records.push(NetworkRecord {
                    ssid: ssid.clone(),
                    bssid: mint(&mut bssid_counter),
                    location,
                    open,
                    category: match name {
                        "#HKAirport Free WiFi" | "Free Public WiFi" => SsidCategory::Hotspot,
                        _ => SsidCategory::Chain,
                    },
                });
            }
        }

        // --- Chain tail ---------------------------------------------------
        for i in 0..CHAIN_TAIL {
            let ssid = Ssid::new_lossy(format!("ShopNet-{:02} Free WiFi", i + 1));
            // Counts decay from ~200 down to ~10.
            let count = (200.0 / (1.0 + i as f64 * 0.25)).ceil() as usize;
            let open = rng.chance(0.75);
            for _ in 0..count {
                let location = if rng.chance(0.5) {
                    jitter(
                        city.sample_poi_by_footfall(&mut rng).location,
                        150.0,
                        &mut rng,
                    )
                } else {
                    city.extent().sample(&mut rng)
                };
                records.push(NetworkRecord {
                    ssid: ssid.clone(),
                    bssid: mint(&mut bssid_counter),
                    location,
                    open,
                    category: SsidCategory::Chain,
                });
            }
        }

        // --- Venue networks ------------------------------------------------
        for poi in city.pois() {
            let aps = match poi.kind {
                PoiKind::Airport => 0, // covered by the hotspot SSID above
                PoiKind::RailwayStation => 12,
                PoiKind::Mall => 10,
                PoiKind::SubwayStation => 4,
                PoiKind::Canteen => 2,
                PoiKind::OfficeBlock => 3,
                _ => 0,
            };
            if aps == 0 {
                continue;
            }
            let open = poi.kind != PoiKind::OfficeBlock;
            let ssid = Ssid::new_lossy(format!("{} WiFi", poi.name));
            for _ in 0..aps {
                records.push(NetworkRecord {
                    ssid: ssid.clone(),
                    bssid: mint(&mut bssid_counter),
                    location: jitter(poi.location, 60.0, &mut rng),
                    open,
                    category: SsidCategory::Venue,
                });
            }
        }

        // --- Residential tail ---------------------------------------------
        let residential: Vec<_> = city
            .pois_of_kind(PoiKind::ResidentialBlock)
            .cloned()
            .collect();
        for i in 0..RESIDENTIAL_COUNT {
            let home = &residential[rng.range_usize(0, residential.len())];
            let ssid = Ssid::new_lossy(format!("HomeNet-{:04x}", i));
            records.push(NetworkRecord {
                ssid,
                bssid: mint(&mut bssid_counter),
                location: jitter(home.location, 120.0, &mut rng),
                open: rng.chance(RESIDENTIAL_OPEN_FRACTION),
                category: SsidCategory::Residential,
            });
        }

        WigleSnapshot::from_records(records)
    }

    /// All records.
    pub fn records(&self) -> &[NetworkRecord] {
        &self.records
    }

    /// Number of AP records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if the snapshot has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of distinct SSIDs.
    pub fn ssid_count(&self) -> usize {
        self.by_ssid.len()
    }

    /// How many APs advertise `ssid`.
    pub fn ap_count(&self, ssid: &Ssid) -> usize {
        self.by_ssid.get(ssid).map_or(0, Vec::len)
    }

    /// The records of one SSID.
    pub fn records_of<'a>(&'a self, ssid: &Ssid) -> impl Iterator<Item = &'a NetworkRecord> + 'a {
        self.by_ssid
            .get(ssid)
            .into_iter()
            .flatten()
            .map(move |&i| &self.records[i])
    }

    /// `true` if *any* AP of this SSID is open — the precondition for a
    /// lure on this SSID to end in an automatic association.
    pub fn is_open_ssid(&self, ssid: &Ssid) -> bool {
        self.by_ssid.get(ssid).is_some_and(|idx| self.any_open(idx))
    }

    /// Distinct SSIDs with their AP counts, unordered.
    pub fn ssids(&self) -> impl Iterator<Item = (&Ssid, usize)> {
        self.by_ssid.iter().map(|(s, v)| (s, v.len()))
    }

    /// The `n` SSIDs with the most APs (ties broken by name for
    /// determinism), optionally restricted to SSIDs with at least one open
    /// AP.
    pub fn top_by_ap_count(&self, n: usize, open_only: bool) -> Vec<(Ssid, usize)> {
        let mut ranked: Vec<(&Ssid, usize)> = self
            .by_ssid
            .iter()
            .filter(|(_, idx)| !open_only || self.any_open(idx))
            .map(|(s, idx)| (s, idx.len()))
            .collect();
        keep_top(&mut ranked, n, |a, b| {
            b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0))
        });
        ranked
            .into_iter()
            .map(|(s, count)| (s.clone(), count))
            .collect()
    }

    /// The heat value of an SSID: the sum of the heat-map value at each of
    /// its AP locations (§IV-B).
    pub fn ssid_heat(&self, heat: &HeatMap, ssid: &Ssid) -> f64 {
        let idx = self.by_ssid.get(ssid).map_or(&[][..], Vec::as_slice);
        self.heat_of(heat, idx)
    }

    /// The `n` SSIDs with the highest heat value, open SSIDs only (the
    /// attacker cannot auto-join victims onto protected networks).
    pub fn top_by_heat(&self, heat: &HeatMap, n: usize) -> Vec<(Ssid, f64)> {
        let mut ranked: Vec<(&Ssid, f64)> = self
            .by_ssid
            .iter()
            .filter(|(_, idx)| self.any_open(idx))
            .map(|(s, idx)| (s, self.heat_of(heat, idx)))
            .collect();
        keep_top(&mut ranked, n, |a, b| {
            b.1.partial_cmp(&a.1)
                .expect("heat values are finite")
                .then_with(|| a.0.cmp(b.0))
        });
        ranked.into_iter().map(|(s, h)| (s.clone(), h)).collect()
    }

    /// Records within `radius_m` of `point`.
    pub fn nearby<'a>(
        &'a self,
        point: GeoPoint,
        radius_m: f64,
    ) -> impl Iterator<Item = &'a NetworkRecord> + 'a {
        self.records
            .iter()
            .filter(move |r| r.location.distance_to(point) <= radius_m)
    }

    /// The `n` distinct open SSIDs nearest to `point` (by their closest
    /// open AP), nearest first — the "100 SSIDs near the attacking
    /// location" seed of §III-B.
    pub fn nearest_open_ssids(&self, point: GeoPoint, n: usize) -> Vec<Ssid> {
        let mut ranked: Vec<(&Ssid, f64)> = self
            .by_ssid
            .iter()
            .filter_map(|(s, idx)| {
                idx.iter()
                    .map(|&i| &self.records[i])
                    .filter(|r| r.open)
                    .map(|r| r.location.distance_to(point))
                    .reduce(f64::min)
                    .map(|d| (s, d))
            })
            .collect();
        keep_top(&mut ranked, n, |a, b| {
            a.1.partial_cmp(&b.1)
                .expect("distances are finite")
                .then_with(|| a.0.cmp(b.0))
        });
        ranked.into_iter().map(|(s, _)| s.clone()).collect()
    }

    /// `true` if any of the records at `idx` is open.
    fn any_open(&self, idx: &[usize]) -> bool {
        idx.iter().any(|&i| self.records[i].open)
    }

    /// The summed heat at the records at `idx`, in record order.
    fn heat_of(&self, heat: &HeatMap, idx: &[usize]) -> f64 {
        idx.iter()
            .map(|&i| heat.value_at(self.records[i].location))
            .sum()
    }
}

/// Leaves the first `n` entries of `ranked` under the total order `cmp`,
/// sorted: the list a full sort and truncate leave, with only the kept
/// head sorted.
fn keep_top<T>(ranked: &mut Vec<T>, n: usize, mut cmp: impl FnMut(&T, &T) -> Ordering) {
    if n < ranked.len() {
        ranked.select_nth_unstable_by(n, &mut cmp);
        ranked.truncate(n);
    }
    ranked.sort_unstable_by(cmp);
}

fn airport_location(city: &CityModel) -> GeoPoint {
    city.pois_of_kind(PoiKind::Airport)
        .next()
        .expect("city has an airport")
        .location
}

fn jitter(p: GeoPoint, sigma_m: f64, rng: &mut SimRng) -> GeoPoint {
    p.offset(rng.normal(0.0, sigma_m), rng.normal(0.0, sigma_m))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (CityModel, WigleSnapshot) {
        let mut rng = SimRng::seed_from(2);
        let city = CityModel::synthesize(&mut rng);
        let snap = WigleSnapshot::synthesize(&city, &mut rng);
        (city, snap)
    }

    #[test]
    fn synthesis_deterministic() {
        let (_, a) = setup();
        let (_, b) = setup();
        assert_eq!(a.records().len(), b.records().len());
        assert_eq!(a.records()[100], b.records()[100]);
    }

    #[test]
    fn head_counts_match_paper_quotes() {
        let (_, snap) = setup();
        assert_eq!(
            snap.ap_count(&Ssid::new("7-Eleven Free Wifi").unwrap()),
            924
        );
        assert_eq!(
            snap.ap_count(&Ssid::new("#HKAirport Free WiFi").unwrap()),
            231
        );
    }

    #[test]
    fn airport_ranks_thirteen_by_ap_count() {
        let (_, snap) = setup();
        let top = snap.top_by_ap_count(20, true);
        let rank = top
            .iter()
            .position(|(s, _)| s.as_str() == "#HKAirport Free WiFi")
            .unwrap();
        assert_eq!(rank + 1, 13, "paper: ranked 13 by AP count");
        // And the paper's Table IV head by raw count.
        assert_eq!(top[0].0.as_str(), "-Free HKBN Wi-Fi-");
        assert_eq!(top[1].0.as_str(), "7-Eleven Free Wifi");
        assert_eq!(top[2].0.as_str(), "-Circle K Free Wi-Fi-");
        assert_eq!(top[3].0.as_str(), "CSL");
        assert_eq!(top[4].0.as_str(), "CMCC-WEB");
    }

    #[test]
    fn airport_aps_cluster_at_airport() {
        let (city, snap) = setup();
        let airport = airport_location(&city);
        let ssid = Ssid::new("#HKAirport Free WiFi").unwrap();
        let mean_dist: f64 = snap
            .records_of(&ssid)
            .map(|r| r.location.distance_to(airport))
            .sum::<f64>()
            / snap.ap_count(&ssid) as f64;
        assert!(mean_dist < 1_000.0, "mean_dist={mean_dist}");
    }

    #[test]
    fn residential_mostly_protected() {
        let (_, snap) = setup();
        let homes: Vec<_> = snap
            .records()
            .iter()
            .filter(|r| r.category == SsidCategory::Residential)
            .collect();
        assert_eq!(homes.len(), RESIDENTIAL_COUNT);
        let open = homes.iter().filter(|r| r.open).count();
        let frac = open as f64 / homes.len() as f64;
        assert!((0.04..0.13).contains(&frac), "open fraction {frac}");
    }

    #[test]
    fn carrier_ssids_not_in_wigle() {
        let (_, snap) = setup();
        for carrier in carrier_ssids() {
            assert_eq!(snap.ap_count(&carrier), 0, "{carrier} must be absent");
        }
    }

    #[test]
    fn nearest_open_ssids_sorted_and_open() {
        let (city, snap) = setup();
        let here = city.pois()[3].location;
        let near = snap.nearest_open_ssids(here, 100);
        assert_eq!(near.len(), 100);
        // All returned SSIDs are open somewhere.
        for s in &near {
            assert!(snap.is_open_ssid(s), "{s}");
        }
        // Nearest-first: the first SSID's closest AP is no farther than the
        // last SSID's closest AP.
        let min_dist = |ssid: &Ssid| {
            snap.records_of(ssid)
                .filter(|r| r.open)
                .map(|r| r.location.distance_to(here))
                .fold(f64::INFINITY, f64::min)
        };
        assert!(min_dist(&near[0]) <= min_dist(&near[99]));
    }

    /// The clone-then-sort rankings the borrowed walk replaced, kept as
    /// the reference it must match.
    mod reference {
        use super::*;

        pub fn top_by_ap_count(w: &WigleSnapshot, n: usize, open_only: bool) -> Vec<(Ssid, usize)> {
            let mut all: Vec<(Ssid, usize)> = w
                .by_ssid
                .iter()
                .filter(|(s, _)| !open_only || w.records_of(s).any(|r| r.open))
                .map(|(s, v)| (s.clone(), v.len()))
                .collect();
            all.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            all.truncate(n);
            all
        }

        pub fn top_by_heat(w: &WigleSnapshot, heat: &HeatMap, n: usize) -> Vec<(Ssid, f64)> {
            let mut all: Vec<(Ssid, f64)> = w
                .by_ssid
                .keys()
                .filter(|s| w.records_of(s).any(|r| r.open))
                .map(|s| {
                    let h = w.records_of(s).map(|r| heat.value_at(r.location)).sum();
                    (s.clone(), h)
                })
                .collect();
            all.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .expect("heat values are finite")
                    .then_with(|| a.0.cmp(&b.0))
            });
            all.truncate(n);
            all
        }

        pub fn nearest_open_ssids(w: &WigleSnapshot, point: GeoPoint, n: usize) -> Vec<Ssid> {
            let mut best: DetHashMap<&Ssid, f64> = det_hash_map();
            for r in &w.records {
                if !r.open {
                    continue;
                }
                let d = r.location.distance_to(point);
                best.entry(&r.ssid)
                    .and_modify(|cur| *cur = cur.min(d))
                    .or_insert(d);
            }
            let mut ranked: Vec<(&Ssid, f64)> = best.into_iter().collect();
            ranked.sort_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("distances are finite")
                    .then_with(|| a.0.cmp(b.0))
            });
            ranked.into_iter().take(n).map(|(s, _)| s.clone()).collect()
        }
    }

    #[test]
    fn rankings_match_the_clone_then_sort_reference() {
        // `0x0C17F00D` is `CITY_SEED`, the city every experiment runs in.
        for seed in [0x0C17_F00D, 2, 41] {
            let mut rng = SimRng::seed_from(seed);
            let city = CityModel::synthesize(&mut rng);
            let snap = WigleSnapshot::synthesize(&city, &mut rng);
            let photos = crate::PhotoCollection::synthesize(&city, 40_000, &mut rng);
            let heat = HeatMap::from_photos(&city, &photos, 100.0);
            let count = snap.ssid_count();
            let points: Vec<GeoPoint> = [0, 3, 17, 120, city.pois().len() - 1]
                .iter()
                .map(|&i| city.pois()[i].location)
                .chain([GeoPoint::new(-500.0, 20_000.0)])
                .collect();
            for n in [0, 1, 5, 100, 200, count, count + 1] {
                for open_only in [true, false] {
                    assert_eq!(
                        snap.top_by_ap_count(n, open_only),
                        reference::top_by_ap_count(&snap, n, open_only),
                        "seed {seed}, n {n}, open_only {open_only}"
                    );
                }
                assert_eq!(
                    snap.top_by_heat(&heat, n),
                    reference::top_by_heat(&snap, &heat, n),
                    "seed {seed}, n {n}"
                );
                for &point in &points {
                    assert_eq!(
                        snap.nearest_open_ssids(point, n),
                        reference::nearest_open_ssids(&snap, point, n),
                        "seed {seed}, n {n}, point {point:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_snapshot_behaves() {
        let snap = WigleSnapshot::empty();
        assert!(snap.is_empty());
        assert_eq!(snap.ssid_count(), 0);
        assert_eq!(snap.top_by_ap_count(5, true), vec![]);
        assert_eq!(
            snap.nearest_open_ssids(GeoPoint::new(0.0, 0.0), 10),
            Vec::<Ssid>::new()
        );
    }

    #[test]
    fn is_open_ssid_mixed_records() {
        let ssid = Ssid::new("Mixed").unwrap();
        let rec = |open| NetworkRecord {
            ssid: ssid.clone(),
            bssid: MacAddr::from_index([0, 0, 1], u32::from(open)),
            location: GeoPoint::new(0.0, 0.0),
            open,
            category: SsidCategory::Chain,
        };
        let snap = WigleSnapshot::from_records(vec![rec(false), rec(true)]);
        assert!(snap.is_open_ssid(&ssid));
        let snap2 = WigleSnapshot::from_records(vec![rec(false)]);
        assert!(!snap2.is_open_ssid(&ssid));
    }
}
