//! Population generation: turning the city into phones.
//!
//! [`PublicSsidPool`] distils the WiGLE snapshot + heat map into the
//! distribution public PNL entries are drawn from; [`PopulationBuilder`]
//! mints phones group by group, wiring in every §II–§V behaviour knob via
//! [`PopulationParams`].

use std::sync::Arc;

use ch_geo::netdb::carrier_ssids;
use ch_geo::{HeatMap, SsidCategory, WigleSnapshot};
use ch_sim::SimRng;
use ch_wifi::{MacAddr, Ssid};

use crate::device::Phone;
use crate::os::OsMix;
use crate::pnl::{Pnl, PnlEntry, PnlOrigin};
use crate::scanner::ScanConfig;

/// The distribution of *public* networks across the population's PNLs.
///
/// Public entries are drawn proportionally to `ln(1 + heat)^alpha`: people
/// join the networks of places they go, but real PNLs are far less
/// concentrated than raw footfall (most joins are incidental, and a
/// network joined once counts the same as one joined daily), hence the
/// logarithmic damping, with `alpha` as the ablation knob.
#[derive(Debug, Clone)]
pub struct PublicSsidPool {
    ssids: Vec<Ssid>,
    weights: Vec<f64>,
    /// O(1) sampler over `weights` (None when the pool is empty).
    alias: Option<ch_sim::rng::WeightedAlias>,
    /// Indices of the unpopular half, used for group-shared ("our estate's
    /// Wi-Fi") sampling.
    tail: Vec<usize>,
}

impl PublicSsidPool {
    /// Builds the pool from the open, non-residential SSIDs of the
    /// snapshot, weighted by heat, with open residential networks included
    /// in the shared tail.
    pub fn build(wigle: &WigleSnapshot, heat: &HeatMap, alpha: f64) -> Self {
        let mut ssids = Vec::new();
        let mut weights = Vec::new();
        let mut seen = ch_sim::det_hash_set();
        for record in wigle.records() {
            if !record.open || !seen.insert(record.ssid.clone()) {
                continue;
            }
            let attractiveness = match record.category {
                SsidCategory::Residential => 0.5, // only the owners know it
                _ => wigle.ssid_heat(heat, &record.ssid).max(0.5),
            };
            ssids.push(record.ssid.clone());
            weights.push((1.0 + attractiveness).ln().powf(alpha.max(0.0)));
        }
        // Tail: the unpopular half (shared household/estate networks).
        let mut order: Vec<usize> = (0..ssids.len()).collect();
        order.sort_by(|&a, &b| {
            weights[a]
                .partial_cmp(&weights[b])
                .expect("weights are finite")
        });
        let tail = order[..order.len() / 2].to_vec();
        let alias = ch_sim::rng::WeightedAlias::new(&weights).ok();
        PublicSsidPool {
            ssids,
            weights,
            alias,
            tail,
        }
    }

    /// Number of luring-eligible SSIDs in the pool.
    pub fn len(&self) -> usize {
        self.ssids.len()
    }

    /// `true` if the pool has no SSIDs (empty WiGLE injection).
    pub fn is_empty(&self) -> bool {
        self.ssids.is_empty()
    }

    /// Draws one public SSID by attractiveness (O(1) via the alias table).
    pub fn sample_public(&self, rng: &mut SimRng) -> Option<Ssid> {
        self.alias
            .as_ref()
            .map(|alias| self.ssids[alias.sample(rng)].clone())
    }

    /// Draws one unpopular SSID (group-shared networks).
    pub fn sample_tail(&self, rng: &mut SimRng) -> Option<Ssid> {
        rng.choose(&self.tail).map(|&i| self.ssids[i].clone())
    }

    /// The probability mass of the `k` most attractive SSIDs — the
    /// theoretical ceiling on what a k-SSID lure list can cover.
    pub fn head_mass(&self, k: usize) -> f64 {
        let mut sorted = self.weights.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
        let total: f64 = sorted.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        sorted.iter().take(k).sum::<f64>() / total
    }
}

/// Behavioural parameters of the phone population.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationParams {
    /// OS market mix (drives the direct-probe share).
    pub os_mix: OsMix,
    /// Fraction of people whose phone has Wi-Fi on and probing.
    pub wifi_active: f64,
    /// Fraction already associated to a legitimate local AP (silent until
    /// deauthenticated, §V-B).
    pub connected_locally: f64,
    /// Fraction of phones with at least one *open public* PNL entry.
    pub has_public_open: f64,
    /// Extra public entries beyond the first: `1 + Poisson(this)`.
    pub extra_public_mean: f64,
    /// Flattening exponent on heat-weighted public sampling.
    pub attractiveness_alpha: f64,
    /// Probability a public entry points outside the modelled city.
    pub foreign_public: f64,
    /// Probability the phone remembers a home network.
    pub has_home: f64,
    /// Probability that the home network is open (legacy router).
    pub home_open: f64,
    /// Probability the phone remembers a (protected) work network.
    pub has_work: f64,
    /// Among iOS users, the fraction subscribed to a carrier with
    /// auto-join SSIDs.
    pub carrier_subscription: f64,
    /// Probability a group of ≥ 2 shares 1–2 household networks.
    pub group_shared: f64,
    /// Probability a shared network is open (only open ones matter to the
    /// attacker, but protected ones still occupy PNL slots).
    pub shared_open: f64,
    /// Range of per-device mean scan intervals, in seconds (phones scan
    /// for networks at this cadence while disconnected).
    pub scan_interval_secs: (f64, f64),
    /// Fraction of phones rotating to a fresh randomized MAC on *every*
    /// scan — the post-2017 privacy feature that breaks per-client
    /// bookkeeping (failure injection / forward-looking study; default 0,
    /// matching the paper's era).
    pub mac_randomizing: f64,
}

impl Default for PopulationParams {
    fn default() -> Self {
        PopulationParams {
            os_mix: OsMix::hongkong_2017(),
            wifi_active: 0.78,
            connected_locally: 0.10,
            has_public_open: 0.22,
            extra_public_mean: 0.9,
            attractiveness_alpha: 0.55,
            foreign_public: 0.45,
            has_home: 0.92,
            home_open: 0.03,
            has_work: 0.45,
            carrier_subscription: 0.40,
            group_shared: 0.30,
            shared_open: 0.50,
            scan_interval_secs: (40.0, 90.0),
            mac_randomizing: 0.0,
        }
    }
}

/// Mints phones for arriving groups.
#[derive(Debug, Clone)]
pub struct PopulationBuilder {
    /// Shared, immutable sampling distribution: campaign code builds the
    /// pool once per city and hands every builder the same `Arc`.
    pool: Arc<PublicSsidPool>,
    params: PopulationParams,
    carriers: Vec<Ssid>,
    next_phone_id: u32,
    /// Per-run MAC salt, so two runs' populations never collide on MAC —
    /// different people own different radios (drawn lazily from the first
    /// generation call's RNG to stay seed-deterministic).
    mac_salt: Option<u32>,
}

impl PopulationBuilder {
    /// Builds the generator from the city's network data.
    pub fn new(wigle: &WigleSnapshot, heat: &HeatMap, params: PopulationParams) -> Self {
        let pool = Arc::new(PublicSsidPool::build(
            wigle,
            heat,
            params.attractiveness_alpha,
        ));
        Self::with_shared_pool(pool, params)
    }

    /// Builds the generator around an already-built (shared) pool —
    /// the campaign path. The caller must have built `pool` at
    /// `params.attractiveness_alpha`; sampling draws depend only on the
    /// pool's contents, so a shared pool and a freshly built one yield
    /// bit-identical populations.
    pub fn with_shared_pool(pool: Arc<PublicSsidPool>, params: PopulationParams) -> Self {
        params.os_mix.validate();
        PopulationBuilder {
            pool,
            params,
            carriers: carrier_ssids(),
            next_phone_id: 1,
            mac_salt: None,
        }
    }

    /// The public-SSID pool (read access for analysis/benches).
    pub fn pool(&self) -> &PublicSsidPool {
        &self.pool
    }

    /// The parameters in force.
    pub fn params(&self) -> &PopulationParams {
        &self.params
    }

    /// Generates the phones of one companion group.
    pub fn phones_for_group(&mut self, group_id: u32, size: usize, rng: &mut SimRng) -> Vec<Phone> {
        let mac_salt = *self
            .mac_salt
            .get_or_insert_with(|| (rng.next_u64() & 0x7f_ffff) as u32);
        let p = &self.params;

        // Group-shared household networks (the freshness signal, §IV-A).
        let mut shared: Vec<PnlEntry> = Vec::new();
        if size >= 2 && rng.chance(p.group_shared) {
            let count = if rng.chance(0.35) { 2 } else { 1 };
            for _ in 0..count {
                if let Some(ssid) = self.pool.sample_tail(rng) {
                    let entry = if rng.chance(p.shared_open) {
                        PnlEntry::open(ssid, PnlOrigin::Shared)
                    } else {
                        PnlEntry::protected(ssid, PnlOrigin::Shared)
                    };
                    shared.push(entry);
                }
            }
        }

        (0..size)
            .map(|_| {
                let id = self.next_phone_id;
                self.next_phone_id += 1;
                let os = p.os_mix.sample(rng);
                let randomizing = rng.chance(p.mac_randomizing);
                let mac = if randomizing {
                    MacAddr::randomized_from(rng.next_u64())
                } else {
                    // XOR with the run salt keeps within-run uniqueness
                    // (injective for ids < 2^23) while separating runs.
                    MacAddr::from_index([0xac, 0x37, 0x43], id ^ mac_salt)
                };

                let mut pnl = Pnl::new();
                // Home network: unique per person, usually protected.
                if rng.chance(p.has_home) {
                    let home = Ssid::new_lossy(format!("HomeAP-{id:05x}"));
                    let entry = if rng.chance(p.home_open) {
                        PnlEntry::open(home, PnlOrigin::Home)
                    } else {
                        PnlEntry::protected(home, PnlOrigin::Home)
                    };
                    pnl.push(entry);
                }
                // Work network: always protected.
                if rng.chance(p.has_work) {
                    pnl.push(PnlEntry::protected(
                        Ssid::new_lossy(format!("Corp-{:04x}", id % 997)),
                        PnlOrigin::Work,
                    ));
                }
                // Public hotspots.
                if rng.chance(p.has_public_open) && !self.pool.is_empty() {
                    let k = 1 + rng.poisson(p.extra_public_mean) as usize;
                    for _ in 0..k {
                        if rng.chance(p.foreign_public) {
                            pnl.push(PnlEntry::open(
                                Ssid::new_lossy(format!("Away-{:06x}", rng.next_u64() & 0xff_ffff)),
                                PnlOrigin::Foreign,
                            ));
                        } else if let Some(ssid) = self.pool.sample_public(rng) {
                            pnl.push(PnlEntry::open(ssid, PnlOrigin::Public));
                        }
                    }
                }
                // Carrier auto-join (iOS subscribers, §V-B).
                if os.is_ios() && rng.chance(p.carrier_subscription) {
                    let carrier = self.carriers[rng.range_usize(0, self.carriers.len())].clone();
                    pnl.push(PnlEntry::open(carrier, PnlOrigin::Carrier));
                }
                // Shared household entries.
                pnl.extend(shared.iter().cloned());

                let phone = Phone::new(
                    id,
                    mac,
                    os,
                    pnl,
                    ScanConfig::sample_range(rng, p.scan_interval_secs),
                    group_id,
                    rng.chance(p.wifi_active),
                    rng.chance(p.connected_locally),
                );
                if randomizing {
                    phone.with_per_scan_mac()
                } else {
                    phone
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::os::OsKind;
    use crate::pnl::NetworkSecurity;
    use ch_geo::{CityModel, PhotoCollection};

    fn builder(params: PopulationParams) -> PopulationBuilder {
        let mut rng = SimRng::seed_from(10);
        let city = CityModel::synthesize(&mut rng);
        let wigle = WigleSnapshot::synthesize(&city, &mut rng);
        let photos = PhotoCollection::synthesize(&city, 20_000, &mut rng);
        let heat = HeatMap::from_photos(&city, &photos, 100.0);
        PopulationBuilder::new(&wigle, &heat, params)
    }

    fn population(n_groups: usize, seed: u64) -> Vec<Phone> {
        let mut b = builder(PopulationParams::default());
        let mut rng = SimRng::seed_from(seed);
        let mut phones = Vec::new();
        for g in 0..n_groups {
            let size = 1 + (g % 3);
            phones.extend(b.phones_for_group(g as u32, size, &mut rng));
        }
        phones
    }

    #[test]
    fn ids_and_macs_unique() {
        let phones = population(500, 1);
        let mut ids: Vec<u32> = phones.iter().map(|p| p.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), phones.len());
        let mut macs: Vec<_> = phones.iter().map(|p| p.mac).collect();
        macs.sort();
        macs.dedup();
        assert_eq!(macs.len(), phones.len());
    }

    #[test]
    fn legacy_share_tracks_mix() {
        let phones = population(2_000, 2);
        let legacy = phones
            .iter()
            .filter(|p| p.os == OsKind::LegacyDirect)
            .count();
        let share = legacy as f64 / phones.len() as f64;
        assert!((0.11..0.18).contains(&share), "legacy share {share}");
    }

    #[test]
    fn vulnerability_rate_in_calibration_band() {
        // Fraction of phones with ≥1 open *in-city* luring target. The
        // population knob has_public_open=0.42 is diluted by foreign
        // entries but topped up by carrier/home-open/shared entries.
        let phones = population(2_000, 3);
        let vulnerable = phones.iter().filter(|p| p.pnl.is_vulnerable()).count();
        let share = vulnerable as f64 / phones.len() as f64;
        assert!((0.25..0.60).contains(&share), "vulnerable share {share}");
    }

    #[test]
    fn group_members_share_networks_sometimes() {
        let mut b = builder(PopulationParams::default());
        let mut rng = SimRng::seed_from(4);
        let mut groups_with_shared = 0;
        let total = 300;
        for g in 0..total {
            let phones = b.phones_for_group(g, 2, &mut rng);
            let shared: Vec<_> = phones[0]
                .pnl
                .entries()
                .iter()
                .filter(|e| e.origin == PnlOrigin::Shared)
                .map(|e| e.ssid.clone())
                .collect();
            if !shared.is_empty() {
                groups_with_shared += 1;
                // The companion remembers the same shared networks.
                for ssid in &shared {
                    assert!(phones[1].pnl.contains_ssid(ssid));
                }
            }
        }
        let share = groups_with_shared as f64 / total as f64;
        assert!((0.18..0.45).contains(&share), "shared-group rate {share}");
    }

    #[test]
    fn singletons_never_have_shared_entries() {
        let mut b = builder(PopulationParams::default());
        let mut rng = SimRng::seed_from(5);
        for g in 0..100 {
            let phones = b.phones_for_group(g, 1, &mut rng);
            assert!(phones[0]
                .pnl
                .entries()
                .iter()
                .all(|e| e.origin != PnlOrigin::Shared));
        }
    }

    #[test]
    fn carrier_entries_only_on_ios() {
        let phones = population(2_000, 6);
        for p in &phones {
            let has_carrier = p
                .pnl
                .entries()
                .iter()
                .any(|e| e.origin == PnlOrigin::Carrier);
            if has_carrier {
                assert_eq!(p.os, OsKind::ModernIos);
            }
        }
        // And some iOS phones do carry them.
        assert!(phones.iter().any(|p| p
            .pnl
            .entries()
            .iter()
            .any(|e| e.origin == PnlOrigin::Carrier)));
    }

    #[test]
    fn work_networks_always_protected() {
        let phones = population(500, 7);
        for p in &phones {
            for e in p.pnl.entries() {
                if e.origin == PnlOrigin::Work {
                    assert_eq!(e.security, NetworkSecurity::Protected);
                }
            }
        }
    }

    #[test]
    fn pool_head_mass_is_moderate() {
        // The top-40 lure list must cover a meaningful but not dominant
        // share of public-entry mass — the §III/§V calibration regime
        // (h_b per 40-SSID scan in the low tens of percent, not ~100 %).
        let b = builder(PopulationParams::default());
        let mass = b.pool().head_mass(40);
        assert!((0.08..0.45).contains(&mass), "head mass {mass}");
        assert!(b.pool().len() > 150, "pool size {}", b.pool().len());
    }

    #[test]
    fn empty_wigle_yields_phones_without_public_entries() {
        let params = PopulationParams::default();
        let wigle = WigleSnapshot::empty();
        let mut rng = SimRng::seed_from(8);
        let city = CityModel::synthesize(&mut rng);
        let photos = PhotoCollection::synthesize(&city, 100, &mut rng);
        let heat = HeatMap::from_photos(&city, &photos, 200.0);
        let mut b = PopulationBuilder::new(&wigle, &heat, params);
        let phones = b.phones_for_group(0, 3, &mut rng);
        assert_eq!(phones.len(), 3);
        for p in &phones {
            assert!(p
                .pnl
                .entries()
                .iter()
                .all(|e| e.origin != PnlOrigin::Public));
        }
    }

    #[test]
    fn mac_randomization_failure_injection() {
        let params = PopulationParams {
            mac_randomizing: 1.0,
            ..PopulationParams::default()
        };
        let mut b = builder(params);
        let mut rng = SimRng::seed_from(9);
        let phones = b.phones_for_group(0, 4, &mut rng);
        for p in &phones {
            assert!(p.mac.is_locally_administered(), "{}", p.mac);
        }
    }

    #[test]
    fn determinism() {
        let a = population(50, 42);
        let b = population(50, 42);
        assert_eq!(a, b);
    }
}
