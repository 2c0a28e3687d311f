//! The discrete-event experiment loop.
//!
//! One run = one venue × one hour-block × one attacker, exactly like one
//! bar of Fig. 5. The loop is event-driven over phone scan instants:
//!
//! 1. group arrivals (NHPP) → per-person visits → phones with PNLs;
//! 2. each scan instant runs the shared scan kernel ([`crate::scan`]):
//!    probes and lures cross the lossy medium, the burst is serialized
//!    against the client's listen window (§III-A), and an open PNL match
//!    joins through the byte-level codec;
//! 3. the loop folds what the scan did into the run's metrics, and a hit
//!    is recorded with full provenance.
//!
//! Around the kernel the loop keeps the per-event duties: database
//! sampling, the fault plan's attacker lifecycle, and the detector's
//! beacon plane.

use ch_attack::ext::DeauthScheduler;
use ch_attack::{AttackSitePlan, Attacker};
use ch_mobility::arrival::GroupArrivalProcess;
use ch_mobility::path::{visits_for_group, Visit};
use ch_mobility::{VenueKind, VenueTemplate};
use ch_phone::popgen::PopulationBuilder;
use ch_phone::scanner::ScanPlan;
use ch_phone::Phone;
use ch_sim::fault::{FaultAction, FaultPlan, FaultSpec};
use ch_sim::{EventQueue, LossModel, SimDuration, SimRng, SimTime};
use ch_wifi::mgmt::MgmtFrame;
use ch_wifi::timing;
use ch_wifi::Channel;

use crate::ctx::CampaignCtx;
use crate::detect::DetectionHarness;
use crate::metrics::ExperimentMetrics;
use crate::scan::{self, Planes, Radio, Reach, ScanScratch};
use crate::world::CityData;

/// Which attacker to deploy: the declarative [`ch_attack::AttackerSpec`].
///
/// Historically this enum lived here; it is now the workspace-wide spec
/// layer in `ch-attack`, shared with the ablation/sweep/replication
/// studies and the `defense` countermeasure study. The `AttackerKind`
/// name stays as an alias so existing call sites keep reading naturally.
pub use ch_attack::AttackerSpec as AttackerKind;

/// Configuration of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Venue to deploy in.
    pub venue: VenueKind,
    /// Wall-clock hour the run starts at (8 = the paper's first test).
    pub start_hour: usize,
    /// Run length (the paper uses 30-minute and 1-hour tests).
    pub duration: SimDuration,
    /// Attacker to deploy (database re-initialized per run, as in §V-A).
    pub attacker: AttackerKind,
    /// Master seed for this run.
    pub seed: u64,
    /// How many lures the attacker *sends* per broadcast probe. Defaults
    /// to the §III-A reception budget (40); values above it are sent but
    /// truncated by the client's listen window — the physical cap the
    /// sweep bench demonstrates.
    pub lure_budget: Option<usize>,
    /// Radio loss model override (default: `LossModel::urban_100mw()`).
    pub loss: Option<LossModel>,
    /// Population-parameter override (default: the venue's calibrated
    /// [`crate::world::CityData::population_params_for`] values). Used by
    /// failure-injection studies such as MAC randomization.
    pub population: Option<ch_phone::popgen::PopulationParams>,
    /// Scales the venue's group-arrival rate (default 1.0) — the crowd-
    /// density knob behind the density sweep.
    pub arrival_multiplier: Option<f64>,
    /// Deterministic fault injection (`ch_sim::fault`): bursty channel
    /// loss, frame corruption, client churn, scheduled attacker crashes.
    /// `None` (and `Some(FaultSpec::disabled())`) injects nothing and
    /// leaves every RNG stream and allocation of the run untouched.
    pub fault: Option<FaultSpec>,
    /// Rogue-AP detection (`ch-detect`): a passive monitor tapping the
    /// delivered frame stream, scored against ground truth at the end of
    /// the run. The detector consumes no randomness, so `None` (and
    /// `Some(DetectorSpec::disabled())`) leaves the run draw-for-draw
    /// identical to a detector-free build.
    pub detector: Option<ch_detect::DetectorSpec>,
}

impl RunConfig {
    /// A 30-minute canteen lunch test — the §II/§III setting.
    pub fn canteen_30min(attacker: AttackerKind, seed: u64) -> Self {
        RunConfig {
            venue: VenueKind::Canteen,
            start_hour: 12,
            duration: SimDuration::from_mins(30),
            attacker,
            seed,
            lure_budget: None,
            loss: None,
            population: None,
            arrival_multiplier: None,
            fault: None,
            detector: None,
        }
    }

    /// A 30-minute subway-passage test — the §III-C setting.
    pub fn passage_30min(attacker: AttackerKind, seed: u64) -> Self {
        RunConfig {
            venue: VenueKind::SubwayPassage,
            start_hour: 8,
            ..RunConfig::canteen_30min(attacker, seed)
        }
    }
}

/// How often the attacker database size is sampled (Fig. 1(a)).
const DB_SAMPLE_STEP: SimDuration = SimDuration::from_secs(60);

struct Agent {
    phone: Phone,
    visit: Visit,
}

/// Reusable per-run arenas: the event queue, agent roster, and the scan
/// kernel's probe/lure/frame buffers. A fleet worker builds one scratch when
/// it starts and threads it through every job it executes
/// ([`ch_fleet::run_campaign_scoped`]), so the big per-run allocations
/// happen once per worker instead of once per job.
///
/// The scratch is an allocation cache only: every field is cleared
/// before use, so results never depend on which runs
/// previously used it — a reused scratch and a fresh
/// [`RunScratch::default`] produce bit-identical metrics.
#[derive(Default)]
pub struct RunScratch {
    events: EventQueue<usize>,
    agents: Vec<Agent>,
    scan: ScanScratch,
}

impl RunScratch {
    /// A fresh, empty scratch (same as `Default`).
    pub fn new() -> RunScratch {
        RunScratch::default()
    }

    fn reset(&mut self) {
        // `reset`, not `clear`: the sequence counter rewinds too, so a
        // reused queue schedules exactly like a fresh one while keeping
        // its heap allocation.
        self.events.reset();
        self.agents.clear();
    }
}

/// Observes every frame that crosses the simulated air — the hook behind
/// pcap capture (`ch_wifi::pcap`). The runner asks `enabled()` once per
/// run and skips frame construction entirely for observers that report
/// `false`.
pub trait FrameObserver {
    /// `true` if frames should be materialized and delivered.
    fn enabled(&self) -> bool;

    /// Called for each delivered frame, in air order.
    fn observe(&mut self, at: SimTime, frame: &MgmtFrame);
}

/// The no-op observer used by [`run_experiment`].
impl FrameObserver for () {
    fn enabled(&self) -> bool {
        false
    }

    fn observe(&mut self, _at: SimTime, _frame: &MgmtFrame) {}
}

/// A [`FrameObserver`] that streams frames into a pcap capture.
///
/// Timestamps are clamped to be non-decreasing: the runner processes
/// per-client exchanges whole, so frames of two overlapping exchanges can
/// arrive with ~10 ms of mutual skew — a physical sniffer would have
/// captured them in arrival order, which is what the clamp restores.
pub struct PcapObserver<W: std::io::Write> {
    writer: ch_wifi::pcap::PcapWriter<W>,
    last_at: SimTime,
}

impl<W: std::io::Write> PcapObserver<W> {
    /// Starts a capture into `sink`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the pcap header.
    pub fn new(sink: W) -> std::io::Result<Self> {
        Ok(PcapObserver {
            writer: ch_wifi::pcap::PcapWriter::new(sink)?,
            last_at: SimTime::ZERO,
        })
    }

    /// Finishes the capture and returns the sink.
    pub fn into_inner(self) -> W {
        self.writer.into_inner()
    }

    /// Frames captured so far.
    pub fn frames_written(&self) -> u64 {
        self.writer.frames_written()
    }
}

impl<W: std::io::Write> FrameObserver for PcapObserver<W> {
    fn enabled(&self) -> bool {
        true
    }

    fn observe(&mut self, at: SimTime, frame: &MgmtFrame) {
        self.last_at = self.last_at.max(at);
        self.writer
            .write_frame(self.last_at, frame)
            .expect("pcap sink write failed");
    }
}

/// A [`FrameObserver`] that retains delivered frames matching a filter,
/// with their delivery timestamps.
///
/// This is the in-memory sibling of [`PcapObserver`] — same clamp to
/// non-decreasing capture order — and the `ch-serve` sim stream source:
/// the service replays a run's client-side air traffic (probe requests,
/// association requests) as its input stream without a pcap round trip.
pub struct CollectingObserver {
    filter: fn(&MgmtFrame) -> bool,
    frames: Vec<(SimTime, MgmtFrame)>,
    last_at: SimTime,
}

impl CollectingObserver {
    /// Collects only frames for which `filter` returns `true`.
    pub fn new(filter: fn(&MgmtFrame) -> bool) -> Self {
        CollectingObserver {
            filter,
            frames: Vec::new(),
            last_at: SimTime::ZERO,
        }
    }

    /// Consumes the observer and returns the collected frames.
    pub fn into_frames(self) -> Vec<(SimTime, MgmtFrame)> {
        self.frames
    }
}

impl FrameObserver for CollectingObserver {
    fn enabled(&self) -> bool {
        true
    }

    fn observe(&mut self, at: SimTime, frame: &MgmtFrame) {
        self.last_at = self.last_at.max(at);
        if (self.filter)(frame) {
            // A fixed-size copy: frames own no heap data, and their Ssid
            // is stored inline.
            // ch-lint: allow(hot-path-alloc)
            self.frames.push((self.last_at, frame.clone()));
        }
    }
}

/// Runs one experiment and returns its metrics.
pub fn run_experiment(data: &CityData, config: &RunConfig) -> ExperimentMetrics {
    run_experiment_observed(data, config, &mut ())
}

/// [`run_experiment`] against a build-once [`CampaignCtx`], reusing a
/// caller-owned [`RunScratch`] — the campaign path. The attacker deploys
/// from the venue's precomputed plan, the population samples from the
/// shared pool, and the run's arenas come from (and return to) the
/// scratch; all three are wall-clock optimizations only, documented
/// bit-identical to the scan-based [`run_experiment`].
pub fn run_experiment_ctx(
    ctx: &CampaignCtx,
    config: &RunConfig,
    scratch: &mut RunScratch,
) -> ExperimentMetrics {
    let plan = ctx.plan(config.venue);
    let venue = venue_template(config);
    let population = config
        .population
        .clone()
        .unwrap_or_else(|| plan.population.clone());
    let builder = ctx.population_builder(population);
    let detection = config
        .detector
        .as_ref()
        .filter(|spec| !spec.is_disabled())
        .map(|spec| {
            // Plan prefixes equal smaller scans, so handing the shared
            // nearby-open list builds the identical harness to
            // `DetectionHarness::new` at this site.
            DetectionHarness::with_legit_ssids(
                spec.clone(),
                plan.attack
                    .nearby_open
                    .iter()
                    // ch-lint: allow(ssid-clone) — construction-time inline
                    // copy (no heap), off the probe hot path.
                    .map(|(ssid, _)| ssid.clone()),
            )
        });
    let mut attacker = config
        .attacker
        .build_from_plan(AttackerKind::default_bssid(), &plan.attack);
    run_core(
        config,
        venue,
        builder,
        detection,
        attacker.as_mut(),
        &mut (),
        scratch,
    )
}

/// [`run_experiment`] with a [`FrameObserver`] receiving every delivered
/// frame (probe requests, lure responses, join handshakes, deauths).
pub fn run_experiment_observed(
    data: &CityData,
    config: &RunConfig,
    observer: &mut dyn FrameObserver,
) -> ExperimentMetrics {
    let plan = AttackSitePlan::build(&data.wigle, &data.heat, data.site_for(config.venue));
    let mut attacker = config
        .attacker
        .build_from_plan(AttackerKind::default_bssid(), &plan);
    run_with(data, config, attacker.as_mut(), observer)
}

/// Runs one experiment against a *caller-owned* attacker, so state (the
/// SSID database, weights, buffer split) carries across runs — the
/// warm-start study. `config.attacker` is ignored.
pub fn run_experiment_with_attacker(
    data: &CityData,
    config: &RunConfig,
    attacker: &mut dyn Attacker,
) -> ExperimentMetrics {
    run_with(data, config, attacker, &mut ())
}

/// The venue template with the config's arrival-rate override applied.
fn venue_template(config: &RunConfig) -> VenueTemplate {
    let mut venue = config.venue.template();
    if let Some(multiplier) = config.arrival_multiplier {
        assert!(
            multiplier.is_finite() && multiplier >= 0.0,
            "arrival multiplier must be a non-negative number"
        );
        venue.base_groups_per_hour *= multiplier;
    }
    venue
}

fn run_with(
    data: &CityData,
    config: &RunConfig,
    attacker: &mut dyn Attacker,
    observer: &mut dyn FrameObserver,
) -> ExperimentMetrics {
    let site = data.site_for(config.venue);
    let population = config
        .population
        .clone()
        .unwrap_or_else(|| data.population_params_for(config.venue));
    let builder = PopulationBuilder::new(&data.wigle, &data.heat, population);
    let detection = config
        .detector
        .as_ref()
        .filter(|spec| !spec.is_disabled())
        .map(|spec| DetectionHarness::new(spec.clone(), data, site));
    let mut scratch = RunScratch::default();
    let venue = venue_template(config);
    run_core(
        config,
        venue,
        builder,
        detection,
        attacker,
        observer,
        &mut scratch,
    )
}

/// The data-free core loop: every expensive input (venue template,
/// population builder, detection harness, attacker) arrives pre-built,
/// and the run's arenas live in the caller's [`RunScratch`]. Both the
/// legacy per-call path and the shared-context campaign path land here,
/// so they cannot diverge; every scan instant goes through the shared
/// scan kernel ([`scan::exchange`]), as the city's do.
fn run_core(
    config: &RunConfig,
    venue: VenueTemplate,
    mut builder: PopulationBuilder,
    mut detection: Option<DetectionHarness>,
    attacker: &mut dyn Attacker,
    observer: &mut dyn FrameObserver,
    scratch: &mut RunScratch,
) -> ExperimentMetrics {
    // Clear-before-use discipline: a reused scratch must be
    // indistinguishable from a fresh one.
    scratch.reset();
    let RunScratch {
        events,
        agents,
        scan,
    } = scratch;
    let root = SimRng::seed_from(config.seed);
    let mut rng_pop = root.fork("population");
    let mut rng_paths = root.fork("paths");
    let mut rng_scans = root.fork("scans");

    // Fault injection: the plan owns forked RNG streams of its own, so a
    // run without faults (or with the all-off spec) is draw-for-draw and
    // allocation-for-allocation identical to one built before the fault
    // layer existed.
    let mut fault = config
        .fault
        .as_ref()
        .filter(|spec| !spec.is_disabled())
        .map(|spec| FaultPlan::new(spec.clone(), &root.fork("faults")));
    let mut observer = observer.enabled().then_some(observer);
    // Decided once per job: a run that arms no plane hands the kernel
    // `None`, like every city district.
    let armed = fault.is_some() || detection.is_some() || observer.is_some();
    let mut metrics = ExperimentMetrics::new();

    // --- Crowd and phones -------------------------------------------------
    let process = GroupArrivalProcess::new(&venue, config.start_hour, config.duration);
    let mut rng_arrivals = root.fork("arrival-stream");
    let groups = process.generate(&mut rng_arrivals);

    for group in &groups {
        let visits = visits_for_group(&venue, group, &mut rng_paths);
        let phones = builder.phones_for_group(group.group_id, visits.len(), &mut rng_pop);
        for (mut visit, phone) in visits.into_iter().zip(phones) {
            if let Some(plan) = fault.as_mut() {
                let (enter, exit) = plan.churn_visit(visit.enter_at, visit.exit_at);
                if (enter, exit) != (visit.enter_at, visit.exit_at) {
                    metrics.stats.agents_churned += 1;
                    visit.enter_at = enter;
                    visit.exit_at = exit;
                }
            }
            let idx = agents.len();
            let plan =
                ScanPlan::for_window(&phone.scan, visit.enter_at, visit.exit_at, &mut rng_scans);
            for &t in plan.times() {
                events.push(t, idx);
            }
            agents.push(Agent { phone, visit });
        }
    }

    // --- Radio ------------------------------------------------------------
    let mut radio = Radio {
        pos: venue.attacker,
        loss: config.loss.clone().unwrap_or_else(LossModel::urban_100mw),
        rng: root.fork("medium"),
        channel: Channel::default_attack_channel(),
        budget: config
            .lure_budget
            .unwrap_or_else(timing::responses_per_scan),
        deauth: DeauthScheduler::default_30s(),
    };

    let end = SimTime::ZERO + config.duration;
    let mut next_sample = SimTime::ZERO;

    while let Some((now, idx)) = events.pop_until(end) {
        while next_sample <= now {
            metrics.sample_db(next_sample, attacker.database_len());
            next_sample += DB_SAMPLE_STEP;
        }

        // Scheduled attacker lifecycle faults: checkpoints feed the next
        // warm restart; crashes kill and restart the attacker in place.
        if let Some(plan) = fault.as_mut() {
            while let Some(action) = plan.next_action(now) {
                match action {
                    FaultAction::Checkpoint => attacker.checkpoint(now),
                    FaultAction::Crash(mode) => {
                        attacker.on_crash_restart(now, mode);
                        metrics.stats.attacker_crashes += 1;
                    }
                }
            }
        }

        // Beacon plane: legitimate neighbourhood APs (and a beacon-cloning
        // attacker) beacon into the detector's tap. No-op without a
        // detector — beacons exist only for the monitor's benefit.
        if let Some(det) = detection.as_mut() {
            det.tick(now, attacker);
        }

        let agent = &mut agents[idx];
        let planes = armed.then(|| Planes {
            fault: fault.as_mut(),
            detection: detection.as_mut(),
            observer: observer
                .as_mut()
                .map(|o| &mut **o as &mut dyn FrameObserver),
            stats: &mut metrics.stats,
        });
        let report = scan::exchange(
            now,
            &mut agent.phone,
            &agent.visit,
            attacker,
            &mut radio,
            scan,
            planes,
        );
        // The per-client records consume no randomness, so folding the
        // scan in after the exchange leaves every draw where it was.
        let client = agent.phone.mac;
        if report.reach == Reach::Deauth(true) {
            metrics.deauth_frames += 1;
        }
        if report.heard_broadcast + report.heard_direct > 0 {
            metrics.observe_probe(now, client, report.heard_direct == 0);
            metrics.record_offers(client, report.offered as usize);
        }
        if let Some((lure, at)) = report.join {
            attacker.on_hit(at, client, scan.lure(lure));
            metrics.record_hit(at, client, scan.lure(lure));
        }
    }

    while next_sample <= end {
        metrics.sample_db(next_sample, attacker.database_len());
        next_sample += DB_SAMPLE_STEP;
    }
    if let Some(det) = detection.as_mut() {
        // Catch the beacon plane up to the end of the run, then score the
        // verdict stream against ground truth.
        det.tick(end, attacker);
        metrics.detection = Some(det.report());
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ClientClass;
    use ch_attack::CityHunterConfig;

    fn short_run(attacker: AttackerKind, seed: u64) -> ExperimentMetrics {
        let data = CityData::standard(99);
        let config = RunConfig {
            venue: VenueKind::Canteen,
            start_hour: 12,
            duration: SimDuration::from_mins(10),
            attacker,
            seed,
            lure_budget: None,
            loss: None,
            population: None,
            arrival_multiplier: None,
            fault: None,
            detector: None,
        };
        run_experiment(&data, &config)
    }

    #[test]
    fn karma_never_hits_broadcast_clients() {
        let m = short_run(AttackerKind::Karma, 1);
        let row = m.summary("karma");
        assert!(row.total_clients > 50, "clients {}", row.total_clients);
        assert_eq!(row.broadcast_connected, 0, "KARMA h_b must be 0");
    }

    #[test]
    fn cityhunter_hits_broadcast_clients() {
        let m = short_run(AttackerKind::CityHunter(CityHunterConfig::default()), 2);
        let row = m.summary("ch");
        assert!(row.broadcast_connected > 0, "{row:?}");
        assert!(row.h_b() > 0.02, "h_b {}", row.h_b());
        assert!(row.h() >= row.h_b(), "h >= h_b always (§V-A)");
    }

    #[test]
    fn direct_clients_minority() {
        let m = short_run(AttackerKind::Mana, 3);
        let row = m.summary("mana");
        let direct_share = row.direct_clients as f64 / row.total_clients as f64;
        assert!(
            (0.08..0.25).contains(&direct_share),
            "direct share {direct_share}"
        );
    }

    #[test]
    fn db_series_sampled_and_monotone_for_mana() {
        let m = short_run(AttackerKind::Mana, 4);
        let series = m.db_series();
        assert!(series.len() >= 10);
        for pair in series.windows(2) {
            assert!(pair[0].1 <= pair[1].1, "MANA DB only grows");
            assert!(pair[0].0 < pair[1].0);
        }
        assert!(series.last().unwrap().1 > 0, "some SSIDs harvested");
    }

    #[test]
    fn ctx_path_matches_legacy_path_bit_for_bit() {
        // The tentpole's non-negotiable: deploying from the build-once
        // campaign context (shared plans, shared pool, reused scratch)
        // must be indistinguishable from the legacy scan-per-run path —
        // for every attacker generation, with the detector on, and with
        // the SAME scratch carried across runs so cross-run leakage
        // would surface as a mismatch.
        let data = CityData::standard(99);
        let ctx = CampaignCtx::build(&data);
        let mut scratch = RunScratch::new();
        for (attacker, seed) in [
            (AttackerKind::CityHunter(CityHunterConfig::default()), 21),
            (AttackerKind::Prelim, 22),
            (AttackerKind::Mana, 23),
            (
                AttackerKind::Karma.with_evasion(ch_attack::EvasionSpec::clone_beacons()),
                24,
            ),
        ] {
            let mut config = RunConfig::canteen_30min(attacker, seed);
            config.duration = SimDuration::from_mins(10);
            config.detector = Some(ch_detect::DetectorSpec::standard());
            let legacy = run_experiment(&data, &config);
            let shared = run_experiment_ctx(&ctx, &config, &mut scratch);
            assert_eq!(legacy.summary("x"), shared.summary("x"));
            assert_eq!(legacy.db_series(), shared.db_series());
            assert_eq!(legacy.offered_counts(false), shared.offered_counts(false));
            assert_eq!(legacy.detection, shared.detection);
        }
    }

    #[test]
    fn determinism_same_seed_same_metrics() {
        let a = short_run(AttackerKind::Prelim, 7);
        let b = short_run(AttackerKind::Prelim, 7);
        assert_eq!(a.summary("x"), b.summary("x"));
        assert_eq!(a.offered_counts(false), b.offered_counts(false));
        assert_eq!(a.db_series(), b.db_series());
    }

    #[test]
    fn different_seeds_differ() {
        let a = short_run(AttackerKind::Prelim, 8);
        let b = short_run(AttackerKind::Prelim, 9);
        assert_ne!(a.summary("x"), b.summary("x"));
    }

    #[test]
    fn offered_counts_bounded_by_database() {
        // The §III-A untried invariant: no client is ever offered more
        // SSIDs than the database holds, and single-scan clients get at
        // most one 40-SSID burst.
        let m = short_run(AttackerKind::Prelim, 10);
        let final_db = m.db_series().last().unwrap().1;
        let mut max_offered = 0;
        for (_, rec) in m.clients() {
            if rec.class == ClientClass::Broadcast {
                assert!(
                    rec.offered <= final_db,
                    "offered {} > db {final_db}",
                    rec.offered
                );
                max_offered = max_offered.max(rec.offered);
            }
        }
        assert!(max_offered >= timing::responses_per_scan(), "{max_offered}");
    }

    #[test]
    fn lure_budget_knob_caps_offers() {
        let data = CityData::standard(99);
        let config = RunConfig {
            lure_budget: Some(10),
            ..RunConfig {
                venue: VenueKind::Canteen,
                start_hour: 12,
                duration: SimDuration::from_mins(6),
                attacker: AttackerKind::Prelim,
                seed: 21,
                lure_budget: None,
                loss: None,
                population: None,
                arrival_multiplier: None,
                fault: None,
                detector: None,
            }
        };
        let m = run_experiment(&data, &config);
        // The first burst to any client is at most 10 SSIDs.
        let min_positive = m
            .offered_counts(false)
            .into_iter()
            .filter(|&c| c > 0)
            .min()
            .unwrap_or(0);
        assert!(min_positive <= 10, "{min_positive}");
    }

    #[test]
    fn loss_knob_shrinks_coverage() {
        let data = CityData::standard(99);
        let base = RunConfig {
            venue: VenueKind::SubwayPassage,
            start_hour: 8,
            duration: SimDuration::from_mins(6),
            attacker: AttackerKind::Karma,
            seed: 22,
            lure_budget: None,
            loss: None,
            population: None,
            arrival_multiplier: None,
            fault: None,
            detector: None,
        };
        let short = RunConfig {
            loss: Some(ch_sim::LossModel::new(10.0, 15.0, 0.97)),
            ..base.clone()
        };
        let wide = run_experiment(&data, &base).client_count();
        let narrow = run_experiment(&data, &short).client_count();
        assert!(
            narrow * 2 < wide,
            "15m range ({narrow}) must observe far fewer than 60m ({wide})"
        );
    }

    #[test]
    fn arrival_multiplier_scales_volume() {
        let data = CityData::standard(99);
        let base = RunConfig {
            venue: VenueKind::Canteen,
            start_hour: 12,
            duration: SimDuration::from_mins(10),
            attacker: AttackerKind::Karma,
            seed: 23,
            lure_budget: None,
            loss: None,
            population: None,
            arrival_multiplier: None,
            fault: None,
            detector: None,
        };
        let doubled = RunConfig {
            arrival_multiplier: Some(2.0),
            ..base.clone()
        };
        let n1 = run_experiment(&data, &base).client_count() as f64;
        let n2 = run_experiment(&data, &doubled).client_count() as f64;
        let ratio = n2 / n1;
        assert!((1.6..2.5).contains(&ratio), "ratio {ratio}");
    }

    fn fault_run(fault: Option<FaultSpec>, seed: u64) -> ExperimentMetrics {
        let data = CityData::standard(99);
        let config = RunConfig {
            duration: SimDuration::from_mins(10),
            seed,
            fault,
            ..RunConfig::canteen_30min(AttackerKind::CityHunter(CityHunterConfig::default()), seed)
        };
        run_experiment(&data, &config)
    }

    #[test]
    fn disabled_fault_spec_is_draw_neutral() {
        // `None` and the all-off spec must produce byte-identical runs:
        // the fault layer may not consume a single draw when disabled.
        let clean = fault_run(None, 31);
        let disabled = fault_run(Some(ch_sim::fault::FaultSpec::disabled()), 31);
        assert_eq!(clean.summary("x"), disabled.summary("x"));
        assert_eq!(clean.db_series(), disabled.db_series());
        assert_eq!(clean.offered_counts(false), disabled.offered_counts(false));
        assert_eq!(clean.stats, disabled.stats);
        assert_eq!(clean.stats, crate::metrics::RunnerStats::default());
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let spec = ch_sim::fault::FaultSpec {
            burst_loss: Some(ch_sim::fault::BurstLossSpec {
                p_enter_bad: 0.05,
                p_exit_bad: 0.2,
                loss_bad: 0.9,
            }),
            corruption: Some(ch_sim::fault::CorruptionSpec { rate: 0.2 }),
            churn: Some(ch_sim::fault::ChurnSpec { rate: 0.3 }),
            crash: Some(ch_sim::fault::CrashSpec {
                times_secs: vec![240],
                recovery: ch_sim::CrashMode::Warm,
                checkpoint_secs: Some(120),
            }),
        };
        let a = fault_run(Some(spec.clone()), 32);
        let b = fault_run(Some(spec), 32);
        assert_eq!(a.summary("x"), b.summary("x"));
        assert_eq!(a.db_series(), b.db_series());
        assert_eq!(a.stats, b.stats);
        assert!(a.stats.attacker_crashes == 1, "{:?}", a.stats);
    }

    #[test]
    fn corruption_counts_skips_and_degrades() {
        let spec = ch_sim::fault::FaultSpec {
            corruption: Some(ch_sim::fault::CorruptionSpec { rate: 1.0 }),
            ..ch_sim::fault::FaultSpec::disabled()
        };
        let clean = fault_run(None, 33);
        let noisy = fault_run(Some(spec), 33);
        assert!(noisy.stats.frames_corrupted > 0);
        assert!(noisy.stats.frames_rejected > 0);
        assert!(noisy.stats.frames_rejected <= noisy.stats.frames_corrupted);
        // Every frame is corrupted; only mutations confined to don't-care
        // bytes survive parse-and-compare, so both sides of the attack
        // degrade — but never panic.
        assert!(
            noisy.client_count() < clean.client_count(),
            "noisy {} vs clean {}",
            noisy.client_count(),
            clean.client_count()
        );
        let (n, c) = (noisy.summary("n"), clean.summary("c"));
        assert!(
            n.direct_connected + n.broadcast_connected < c.direct_connected + c.broadcast_connected,
            "noisy {n:?} vs clean {c:?}"
        );
    }

    #[test]
    fn burst_loss_eats_frames() {
        let spec = ch_sim::fault::FaultSpec {
            burst_loss: Some(ch_sim::fault::BurstLossSpec {
                p_enter_bad: 0.1,
                p_exit_bad: 0.1,
                loss_bad: 1.0,
            }),
            ..ch_sim::fault::FaultSpec::disabled()
        };
        let clean = fault_run(None, 34);
        let bursty = fault_run(Some(spec), 34);
        assert!(bursty.stats.frames_burst_dropped > 0);
        assert!(
            bursty.client_count() < clean.client_count(),
            "bursty {} vs clean {}",
            bursty.client_count(),
            clean.client_count()
        );
    }

    #[test]
    fn churn_truncates_visits() {
        let spec = ch_sim::fault::FaultSpec {
            churn: Some(ch_sim::fault::ChurnSpec { rate: 0.5 }),
            ..ch_sim::fault::FaultSpec::disabled()
        };
        let churned = fault_run(Some(spec), 35);
        assert!(churned.stats.agents_churned > 10, "{:?}", churned.stats);
    }

    #[test]
    fn crash_restarts_are_counted_and_survivable() {
        let spec = ch_sim::fault::FaultSpec {
            crash: Some(ch_sim::fault::CrashSpec {
                times_secs: vec![150, 300, 450],
                recovery: ch_sim::CrashMode::Cold,
                checkpoint_secs: None,
            }),
            ..ch_sim::fault::FaultSpec::disabled()
        };
        let crashed = fault_run(Some(spec), 36);
        assert_eq!(crashed.stats.attacker_crashes, 3);
        assert!(crashed.client_count() > 0);
    }

    fn detect_run(detector: Option<ch_detect::DetectorSpec>, seed: u64) -> ExperimentMetrics {
        let data = CityData::standard(99);
        let config = RunConfig {
            duration: SimDuration::from_mins(10),
            seed,
            detector,
            ..RunConfig::canteen_30min(AttackerKind::CityHunter(CityHunterConfig::default()), seed)
        };
        run_experiment(&data, &config)
    }

    #[test]
    fn disabled_detector_spec_is_draw_neutral() {
        // `None`, the disabled spec, and even an *armed* detector must
        // leave the attack byte-identical: the monitor is a passive tap
        // that consumes no randomness.
        let clean = detect_run(None, 41);
        let disabled = detect_run(Some(ch_detect::DetectorSpec::disabled()), 41);
        let armed = detect_run(Some(ch_detect::DetectorSpec::standard()), 41);
        assert_eq!(clean.summary("x"), disabled.summary("x"));
        assert_eq!(clean.db_series(), disabled.db_series());
        assert_eq!(clean.offered_counts(false), disabled.offered_counts(false));
        assert!(clean.detection.is_none());
        assert!(disabled.detection.is_none());
        assert_eq!(clean.summary("x"), armed.summary("x"));
        assert_eq!(clean.db_series(), armed.db_series());
        assert!(armed.detection.is_some());
    }

    #[test]
    fn detector_catches_the_unevasive_rogue() {
        let m = detect_run(Some(ch_detect::DetectorSpec::standard()), 42);
        let report = m.detection.unwrap();
        assert!(report.frames_observed > 0);
        assert_eq!(report.rogue_macs, 1, "{report:?}");
        assert!(report.legit_aps > 0, "{report:?}");
        assert!(report.detected(), "{report:?}");
        assert_eq!(
            report.flagged_legit, 0,
            "standard strictness must not flag legitimate APs: {report:?}"
        );
        assert!(report.time_to_detect().is_some());
        // Same seed, same verdict stream: the report is deterministic.
        let twin = detect_run(Some(ch_detect::DetectorSpec::standard()), 42);
        assert_eq!(twin.detection.unwrap(), report);
    }

    #[test]
    fn mac_rotation_multiplies_rogue_ground_truth() {
        let data = CityData::standard(99);
        let spec = AttackerKind::CityHunter(CityHunterConfig::default()).with_evasion(
            ch_attack::EvasionSpec::rotate_every(SimDuration::from_mins(2)),
        );
        let config = RunConfig {
            duration: SimDuration::from_mins(10),
            seed: 43,
            detector: Some(ch_detect::DetectorSpec::standard()),
            ..RunConfig::canteen_30min(spec, 43)
        };
        let report = run_experiment(&data, &config).detection.unwrap();
        assert!(report.rogue_macs > 1, "{report:?}");
    }

    #[test]
    fn deauth_extension_reaches_silent_clients() {
        let with = short_run(
            AttackerKind::CityHunter(CityHunterConfig {
                deauth: true,
                ..CityHunterConfig::default()
            }),
            11,
        );
        let without = short_run(AttackerKind::CityHunter(CityHunterConfig::default()), 11);
        assert!(with.deauth_frames > 0);
        assert_eq!(without.deauth_frames, 0);
        assert!(with.client_count() > 0 && without.client_count() > 0);
    }
}
