//! The full City-Hunter attacker (§IV).

use ch_arc::EpochSet;
use ch_geo::netdb::carrier_ssids;
use ch_sim::{CrashMode, SimRng, SimTime};
use ch_wifi::mgmt::ProbeRequest;
use ch_wifi::{MacAddr, SsidId};

use crate::api::LureLane;
use crate::api::{direct_reply_into, Attacker, Lure, LureSource};
use crate::buffers::{AdaptiveBuffers, SelectScratch};
use crate::clienttrack::ClientTracker;
use crate::db::SsidDatabase;
use crate::plan::AttackSitePlan;

/// Reusable per-attacker scratch: candidate lists, dedup set, and the
/// buffer-selection scratch. Warmed up over the first few probes, then the
/// broadcast path never allocates again.
#[derive(Debug, Clone, Default)]
struct HunterScratch {
    seen: EpochSet,
    by_weight: Vec<SsidId>,
    by_freshness: Vec<SsidId>,
    select: SelectScratch,
    picked: Vec<(SsidId, LureLane)>,
}

/// Feature switches for City-Hunter — every §IV/§V design decision is a
/// flag so the ablation bench can turn it off in isolation.
#[derive(Debug, Clone, PartialEq)]
pub struct CityHunterConfig {
    /// Seed the database from WiGLE (off → MANA-like cold start).
    pub use_wigle: bool,
    /// Track per-client sent SSIDs and never repeat (§III-A fix).
    pub untried_tracking: bool,
    /// Use the freshness buffer at all (off → pure popularity ranking).
    pub use_freshness: bool,
    /// Adapt the PB/FB split via ghost hits (off → frozen split).
    pub adaptive_sizing: bool,
    /// §V-B: deauthenticate locally-connected clients to force rescans.
    pub deauth: bool,
    /// §V-B: preload carrier auto-join SSIDs.
    pub carrier_preload: bool,
    /// RNG seed for ghost-list exploration picks.
    pub seed: u64,
}

impl Default for CityHunterConfig {
    fn default() -> Self {
        CityHunterConfig {
            use_wigle: true,
            untried_tracking: true,
            use_freshness: true,
            adaptive_sizing: true,
            deauth: false,
            carrier_preload: false,
            seed: 0xC17_4B17,
        }
    }
}

/// Everything City-Hunter learns online (§IV). [`Attacker::checkpoint`]
/// copies it, a crash restart swaps a copy back in, and
/// [`crate::AttackerState`] carries it across processes.
#[derive(Debug, Clone)]
pub struct CityHunterState {
    /// The weighted SSID database, re-weighted by direct probes and hits.
    pub db: SsidDatabase,
    /// The PB/FB split that ghost hits move.
    pub buffers: AdaptiveBuffers,
    /// Which SSIDs each client has already been sent.
    pub tracker: ClientTracker,
    /// The ghost-exploration RNG, mid-stream.
    pub rng: SimRng,
    /// How many crash/restart cycles the attacker has absorbed.
    pub restarts: u32,
}

/// The §IV City-Hunter: weighted WiGLE-seeded database, online updating,
/// PB/FB selection with ghost-list exploration and ARC-style adaptive
/// sizing, per-client untried tracking, and the optional §V-B extensions.
#[derive(Debug, Clone)]
pub struct CityHunter {
    bssid: MacAddr,
    config: CityHunterConfig,
    pub(crate) state: CityHunterState,
    scratch: HunterScratch,
    /// Construction-time state — what a cold restart falls back to.
    boot: Box<CityHunterState>,
    /// The most recent checkpoint, if any.
    saved: Option<Box<CityHunterState>>,
}

impl CityHunter {
    /// Builds the attacker with its database initialized per the config
    /// (step 1 of Fig. 3): seeded from the site plan's `(Ssid, weight)`
    /// lists, heat-ranked city SSIDs first, then the open SSIDs nearest
    /// the site.
    pub fn from_plan(bssid: MacAddr, plan: &AttackSitePlan, config: CityHunterConfig) -> Self {
        let mut db = SsidDatabase::new();
        if config.use_wigle {
            for (ssid, w) in &plan.by_heat {
                // ch-lint: allow(ssid-clone) — construction-time inline copy, no heap.
                db.seed_from_wigle(ssid.clone(), *w, SimTime::ZERO);
            }
            for (ssid, w) in &plan.nearby_open {
                // ch-lint: allow(ssid-clone) — construction-time inline copy, no heap.
                db.seed_from_wigle(ssid.clone(), *w, SimTime::ZERO);
            }
        }
        if config.carrier_preload {
            // Carrier SSIDs rank above everything: every subscribing iOS
            // device auto-joins them (§V-B).
            for ssid in carrier_ssids() {
                db.seed_carrier(ssid, 500.0, SimTime::ZERO);
            }
        }
        let buffers = if config.use_freshness {
            AdaptiveBuffers::new(32, 8, 40, config.adaptive_sizing)
        } else {
            // Freshness disabled: all 40 slots belong to popularity (the
            // minimum FB allocation is never consulted because the
            // freshness candidate list is suppressed below).
            AdaptiveBuffers::new(36, 4, 40, false)
        };
        let state = CityHunterState {
            db,
            buffers,
            tracker: ClientTracker::new(),
            rng: SimRng::seed_from(config.seed),
            restarts: 0,
        };
        CityHunter {
            bssid,
            config,
            boot: Box::new(state.clone()),
            state,
            scratch: HunterScratch::default(),
            saved: None,
        }
    }

    /// How many crash/restart cycles this attacker has absorbed.
    pub fn restarts(&self) -> u32 {
        self.state.restarts
    }

    /// Read access to the database.
    pub fn database(&self) -> &SsidDatabase {
        &self.state.db
    }

    /// Current `(popularity, freshness)` buffer sizes (Fig. 3 step 3
    /// diagnostics).
    pub fn buffer_sizes(&self) -> (usize, usize) {
        self.state.buffers.sizes()
    }

    /// Read access to the per-client tracker.
    pub fn tracker(&self) -> &ClientTracker {
        &self.state.tracker
    }

    /// The configuration in force.
    pub fn config(&self) -> &CityHunterConfig {
        &self.config
    }
}

impl Attacker for CityHunter {
    fn name(&self) -> &'static str {
        "City-Hunter"
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
        if !probe.is_broadcast() {
            // Step 2 (online updating): harvest, then reply KARMA-style.
            self.state.db.observe_direct_probe(&probe.ssid, now);
            direct_reply_into(probe, out);
            return;
        }
        out.clear();

        // Step 3: build candidate lists, filtered to this client's untried
        // SSIDs when tracking is on, and only as deep as the selection can
        // read. Everything below runs on interned ids and warm scratch — no
        // heap traffic at steady state.
        let client = probe.source;
        let (ranked, fresh) = self.state.db.ranked_and_fresh();
        let limit = self.state.buffers.read_bound(budget);
        let by_weight: &[SsidId] = if self.config.untried_tracking {
            self.state.tracker.select_untried_into(
                client,
                ranked,
                limit,
                &mut self.scratch.seen,
                &mut self.scratch.by_weight,
            );
            &self.scratch.by_weight
        } else {
            ranked
        };
        let by_freshness: &[SsidId] = if self.config.use_freshness {
            if self.config.untried_tracking {
                self.state.tracker.select_untried_into(
                    client,
                    fresh,
                    limit,
                    &mut self.scratch.seen,
                    &mut self.scratch.by_freshness,
                );
                &self.scratch.by_freshness
            } else {
                fresh
            }
        } else {
            &[]
        };

        // Step 4: select and send.
        self.state.buffers.select_into(
            by_weight,
            by_freshness,
            budget,
            &mut self.state.rng,
            &mut self.scratch.select,
            &mut self.scratch.picked,
        );
        if self.config.untried_tracking {
            let burst = self.scratch.picked.iter().map(|&(id, _)| id);
            self.state.tracker.mark_burst(client, burst);
        }
        for &(id, lane) in &self.scratch.picked {
            let source = self.state.db.source_of(id).unwrap_or(LureSource::Wigle);
            // The lure owns its Ssid: the clone is a fixed-size inline
            // copy with no heap, the sanctioned lure handoff.
            // ch-lint: allow(hot-path-alloc)
            out.push(Lure::new(self.state.db.resolve(id).clone(), source, lane));
        }
    }

    fn on_hit(&mut self, now: SimTime, _client: MacAddr, lure: &Lure) {
        // Step 2 (online updating): weight bump + freshness stamp, and the
        // ghost feedback that adapts the buffer split.
        self.state.db.record_hit(&lure.ssid, now);
        self.state.buffers.adapt(lure.lane);
    }

    fn database_len(&self) -> usize {
        self.state.db.len()
    }

    fn deauth_enabled(&self) -> bool {
        self.config.deauth
    }

    fn checkpoint(&mut self, _now: SimTime) {
        self.saved = Some(Box::new(self.state.clone()));
    }

    fn on_crash_restart(&mut self, _now: SimTime, mode: CrashMode) {
        let restarts = self.state.restarts + 1;
        let from = match (mode, &self.saved) {
            (CrashMode::Warm, Some(saved)) => saved,
            // Warm with no checkpoint yet degrades to a cold start.
            _ => &self.boot,
        };
        self.state = CityHunterState::clone(from);
        self.state.restarts = restarts;
        // The restarted process reseeds its exploration RNG: derived
        // from the configured seed and the restart ordinal, so reruns
        // of the same fault schedule stay bit-identical.
        self.state.rng = SimRng::seed_from(
            self.config.seed ^ u64::from(restarts).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
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
    use crate::prelim::WIGLE_TOP_BY_HEAT;
    use crate::AttackerState;
    use ch_geo::{CityModel, HeatMap, PhotoCollection, WigleSnapshot};
    use ch_wifi::Ssid;

    fn mac(i: u8) -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, i])
    }

    fn hunter(config: CityHunterConfig) -> CityHunter {
        let mut rng = SimRng::seed_from(30);
        let city = CityModel::synthesize(&mut rng);
        let wigle = WigleSnapshot::synthesize(&city, &mut rng);
        let photos = PhotoCollection::synthesize(&city, 20_000, &mut rng);
        let heat = HeatMap::from_photos(&city, &photos, 100.0);
        let plan = AttackSitePlan::build(&wigle, &heat, city.pois()[5].location);
        CityHunter::from_plan(mac(9), &plan, config)
    }

    #[test]
    fn seeded_database_and_identity() {
        let ch = hunter(CityHunterConfig::default());
        assert!(ch.database_len() >= WIGLE_TOP_BY_HEAT);
        assert_eq!(ch.name(), "City-Hunter");
        assert_eq!(ch.bssid(), mac(9));
        assert!(!ch.deauth_enabled());
        assert_eq!(ch.buffer_sizes().0 + ch.buffer_sizes().1, 40);
    }

    #[test]
    fn no_wigle_flag_starts_cold() {
        let ch = hunter(CityHunterConfig {
            use_wigle: false,
            ..CityHunterConfig::default()
        });
        assert_eq!(ch.database_len(), 0);
    }

    #[test]
    fn carrier_preload_tops_the_ranking() {
        let mut ch = hunter(CityHunterConfig {
            carrier_preload: true,
            ..CityHunterConfig::default()
        });
        let lures = ch.respond_to_probe(SimTime::ZERO, &ProbeRequest::broadcast(mac(1)), 40);
        let carriers = carrier_ssids();
        let offered_carriers = lures.iter().filter(|l| carriers.contains(&l.ssid)).count();
        assert_eq!(
            offered_carriers,
            carriers.len(),
            "all carriers offered first"
        );
        assert!(lures
            .iter()
            .filter(|l| carriers.contains(&l.ssid))
            .all(|l| l.source == LureSource::Carrier));
    }

    #[test]
    fn budget_respected_and_untried_advances() {
        let mut ch = hunter(CityHunterConfig::default());
        let probe = ProbeRequest::broadcast(mac(1));
        let first = ch.respond_to_probe(SimTime::ZERO, &probe, 40);
        assert_eq!(first.len(), 40);
        let second = ch.respond_to_probe(SimTime::from_secs(60), &probe, 40);
        for lure in &second {
            assert!(!first.iter().any(|l| l.ssid == lure.ssid));
        }
        assert_eq!(ch.tracker().sent_count(mac(1)), 80);
    }

    #[test]
    fn tracking_disabled_repeats_head() {
        let mut ch = hunter(CityHunterConfig {
            untried_tracking: false,
            use_freshness: false,
            adaptive_sizing: false,
            ..CityHunterConfig::default()
        });
        let probe = ProbeRequest::broadcast(mac(1));
        let first: Vec<Ssid> = ch
            .respond_to_probe(SimTime::ZERO, &probe, 40)
            .into_iter()
            .map(|l| l.ssid)
            .collect();
        let second: Vec<Ssid> = ch
            .respond_to_probe(SimTime::from_secs(60), &probe, 40)
            .into_iter()
            .map(|l| l.ssid)
            .collect();
        // Ghost picks randomize two slots; the overlap must still be heavy.
        let overlap = first.iter().filter(|s| second.contains(s)).count();
        assert!(overlap >= 36, "overlap {overlap}");
    }

    #[test]
    fn hits_feed_freshness_buffer() {
        let mut ch = hunter(CityHunterConfig::default());
        // Walk client 1 deep into the ranking (three scans), then score a
        // hit with a deep SSID — one whose weight (even after the hit
        // bonus) stays below the popularity head.
        let probe1 = ProbeRequest::broadcast(mac(1));
        let _ = ch.respond_to_probe(SimTime::ZERO, &probe1, 40);
        let _ = ch.respond_to_probe(SimTime::from_secs(60), &probe1, 40);
        let deep = ch.respond_to_probe(SimTime::from_secs(120), &probe1, 40);
        let hit = deep[10].clone();
        ch.on_hit(SimTime::from_secs(125), mac(1), &hit);
        // A fresh client's selection now carries that SSID via the
        // freshness lane — the PB would never have reached it.
        let lures2 = ch.respond_to_probe(
            SimTime::from_secs(126),
            &ProbeRequest::broadcast(mac(2)),
            40,
        );
        let via_fresh: Vec<_> = lures2
            .iter()
            .filter(|l| l.lane == LureLane::Freshness)
            .collect();
        assert_eq!(via_fresh.len(), 1, "{lures2:?}");
        assert_eq!(via_fresh[0].ssid, hit.ssid);
    }

    #[test]
    fn ghost_hits_move_the_split() {
        let mut ch = hunter(CityHunterConfig::default());
        let (p0, f0) = ch.buffer_sizes();
        ch.on_hit(
            SimTime::ZERO,
            mac(1),
            &Lure::new(
                Ssid::new("X").unwrap(),
                LureSource::Wigle,
                LureLane::FreshnessGhost,
            ),
        );
        let (p1, f1) = ch.buffer_sizes();
        assert_eq!(p1, p0 - 1);
        assert_eq!(f1, f0 + 1);
    }

    #[test]
    fn frozen_config_never_adapts() {
        let mut ch = hunter(CityHunterConfig {
            adaptive_sizing: false,
            ..CityHunterConfig::default()
        });
        let before = ch.buffer_sizes();
        for _ in 0..10 {
            ch.on_hit(
                SimTime::ZERO,
                mac(1),
                &Lure::new(
                    Ssid::new("X").unwrap(),
                    LureSource::Wigle,
                    LureLane::PopularityGhost,
                ),
            );
        }
        assert_eq!(ch.buffer_sizes(), before);
    }

    #[test]
    fn direct_probe_flow_matches_karma() {
        let mut ch = hunter(CityHunterConfig::default());
        let before = ch.database_len();
        let lures = ch.respond_to_probe(
            SimTime::ZERO,
            &ProbeRequest::direct(mac(3), Ssid::new("Disclosed").unwrap()),
            40,
        );
        assert_eq!(lures.len(), 1);
        assert_eq!(lures[0].lane, LureLane::DirectReply);
        assert_eq!(ch.database_len(), before + 1);
    }

    #[test]
    fn warm_restart_restores_the_checkpoint_cold_loses_everything() {
        let mut ch = hunter(CityHunterConfig::default());
        let boot_len = ch.database_len();
        // Harvest a few direct probes, then checkpoint.
        for i in 0..4u8 {
            let ssid = Ssid::new(format!("Harvested{i}")).unwrap();
            let _ = ch.respond_to_probe(
                SimTime::from_secs(10),
                &ProbeRequest::direct(mac(1), ssid),
                40,
            );
        }
        let _ = ch.respond_to_probe(SimTime::from_secs(11), &ProbeRequest::broadcast(mac(2)), 40);
        let at_checkpoint = ch.database_len();
        let tracked_at_checkpoint = ch.tracker().sent_count(mac(2));
        assert!(at_checkpoint > boot_len);
        ch.checkpoint(SimTime::from_secs(12));
        // Learn more after the checkpoint...
        let _ = ch.respond_to_probe(
            SimTime::from_secs(20),
            &ProbeRequest::direct(mac(1), Ssid::new("PostCheckpoint").unwrap()),
            40,
        );
        assert_eq!(ch.database_len(), at_checkpoint + 1);
        // ...a warm restart rolls back exactly to the checkpoint...
        ch.on_crash_restart(SimTime::from_secs(30), CrashMode::Warm);
        assert_eq!(ch.restarts(), 1);
        assert_eq!(ch.database_len(), at_checkpoint);
        assert_eq!(ch.tracker().sent_count(mac(2)), tracked_at_checkpoint);
        // ...and a cold restart falls all the way back to the seed state.
        ch.on_crash_restart(SimTime::from_secs(40), CrashMode::Cold);
        assert_eq!(ch.restarts(), 2);
        assert_eq!(ch.database_len(), boot_len);
        assert_eq!(ch.tracker().sent_count(mac(2)), 0);
    }

    #[test]
    fn warm_restart_without_checkpoint_degrades_to_cold() {
        let mut ch = hunter(CityHunterConfig::default());
        let boot_len = ch.database_len();
        let _ = ch.respond_to_probe(
            SimTime::from_secs(5),
            &ProbeRequest::direct(mac(1), Ssid::new("Lost").unwrap()),
            40,
        );
        ch.on_crash_restart(SimTime::from_secs(10), CrashMode::Warm);
        assert_eq!(ch.database_len(), boot_len);
    }

    #[test]
    fn snapshot_restore_round_trips_selection_behaviour() {
        // Two attackers with different histories: one loads the state the
        // other saved; both must then offer the same lures, ghost picks
        // included (the split, the tracker and the RNG travel together).
        let probe = ProbeRequest::broadcast(mac(1));
        let mut reference = hunter(CityHunterConfig::default());
        let mut crashed = hunter(CityHunterConfig::default());
        for t in 0..3u64 {
            let _ = reference.respond_to_probe(SimTime::from_secs(t), &probe, 40);
        }
        let _ = crashed.respond_to_probe(SimTime::ZERO, &ProbeRequest::broadcast(mac(2)), 40);
        let saved = AttackerState::save(&reference).unwrap();
        saved.load(&mut crashed).unwrap();
        for (t, client) in [(10, 1), (11, 2), (12, 3)] {
            let probe = ProbeRequest::broadcast(mac(client));
            let a = reference.respond_to_probe(SimTime::from_secs(t), &probe, 40);
            let b = crashed.respond_to_probe(SimTime::from_secs(t), &probe, 40);
            assert_eq!(a, b);
        }
    }

    /// The answer to a broadcast probe computed from the *full* filtered
    /// lists through the public accessors, with a copy of the attacker's
    /// RNG. Returns the lures and the RNG state after the draw.
    fn full_list_answer(ch: &CityHunter, client: MacAddr, budget: usize) -> (Vec<Lure>, [u64; 5]) {
        let db = ch.database();
        let config = ch.config();
        let (ranked, fresh) = db.ranked_and_fresh();
        let untried = |list: &[SsidId]| {
            if config.untried_tracking {
                ch.tracker().select_untried(client, list, list.len())
            } else {
                list.to_vec()
            }
        };
        let by_weight = untried(ranked);
        let by_freshness = if config.use_freshness {
            untried(fresh)
        } else {
            Vec::new()
        };
        let mut rng = ch.state.rng.clone();
        let picked = ch
            .state
            .buffers
            .select(&by_weight, &by_freshness, budget, &mut rng);
        let lures = picked
            .into_iter()
            .map(|(id, lane)| {
                let source = db.source_of(id).unwrap_or(LureSource::Wigle);
                Lure::new(db.resolve(id).clone(), source, lane)
            })
            .collect();
        (lures, rng.save_state())
    }

    #[test]
    fn bounded_prefix_answers_equal_full_list_answers() {
        // Random broadcast, direct and hit events over 64 clients. Four
        // clients probe far more often than the rest, so they are sent the
        // whole database and walk past its end; the others stop at every
        // depth on the way. Hits reorder freshness and move the split.
        for config in [
            CityHunterConfig::default(),
            CityHunterConfig {
                use_freshness: false,
                ..CityHunterConfig::default()
            },
            CityHunterConfig {
                untried_tracking: false,
                ..CityHunterConfig::default()
            },
        ] {
            let mut ch = hunter(config);
            let mut rng = SimRng::seed_from(77);
            let mut offered: Vec<Lure> = Vec::new();
            let mut deepest = 0usize;
            for step in 0..1_200u64 {
                let now = SimTime::from_secs(step);
                let client = if rng.chance(0.3) {
                    mac(rng.range_usize(0, 4) as u8)
                } else {
                    mac(rng.range_usize(4, 64) as u8)
                };
                match rng.range_usize(0, 10) {
                    0 => {
                        let name = format!("Harvested-{}", rng.range_usize(0, 400));
                        let probe = ProbeRequest::direct(client, Ssid::new_lossy(name));
                        let _ = ch.respond_to_probe(now, &probe, 40);
                    }
                    1 | 2 if !offered.is_empty() => {
                        let lure = offered[rng.range_usize(0, offered.len())].clone();
                        ch.on_hit(now, client, &lure);
                    }
                    _ => {
                        let budget = [40, 40, 40, 1, 7, 13, 39, 100][rng.range_usize(0, 8)];
                        let (want, rng_after) = full_list_answer(&ch, client, budget);
                        let got =
                            ch.respond_to_probe(now, &ProbeRequest::broadcast(client), budget);
                        assert_eq!(got, want, "step {step}, client {client}, budget {budget}");
                        assert_eq!(ch.state.rng.save_state(), rng_after, "step {step}");
                        offered.extend(got);
                        deepest = deepest.max(ch.tracker().sent_count(client));
                    }
                }
            }
            if ch.config().untried_tracking {
                assert!(
                    deepest + 40 >= ch.database_len(),
                    "some client must be sent nearly the whole database: {deepest} of {}",
                    ch.database_len()
                );
            }
        }
    }

    #[test]
    fn determinism_same_seed() {
        let mk = || {
            let mut ch = hunter(CityHunterConfig::default());
            let mut out = Vec::new();
            for i in 0..5u8 {
                out.push(ch.respond_to_probe(
                    SimTime::from_secs(i as u64),
                    &ProbeRequest::broadcast(mac(i)),
                    40,
                ));
            }
            out
        };
        assert_eq!(mk(), mk());
    }
}
