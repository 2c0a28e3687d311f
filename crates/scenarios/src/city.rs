//! City-scale sharded simulation: a whole synthetic city day as
//! spatially partitioned event queues.
//!
//! The single-venue runner ([`crate::runner`]) materializes one venue's
//! population up front and drains one global [`EventQueue`]. That is the
//! right fidelity instrument for a Fig. 5 bar, but it cannot scale to a
//! *city*: a million devices would be minted before the first event pops,
//! and one queue serializes everything.
//!
//! This module shards the city spatially instead:
//!
//! * a [`CityPlan`] partitions venues into **districts** — each district
//!   is one venue instance with its own attacker deployment, its own
//!   [`EventQueue`], its own agent arena (free-list slots, cleared not
//!   reallocated), and its own seed-derived RNG streams; every scan
//!   instant runs the scan kernel shared with the runner
//!   ([`crate::scan`]);
//! * districts are grouped into contiguous **shards**; each epoch (one
//!   sim minute) every shard advances independently, as one round of
//!   `ch-fleet`'s lockstep pool, whose workers (each with warm scratch)
//!   live for the whole run;
//! * clients that leave one district for another travel through a
//!   deterministic **handoff mailbox**: departures append to the source
//!   district's outbox, and outboxes are drained into destination
//!   inboxes *between* epochs, in district-id order.
//!
//! # Determinism argument
//!
//! Results are byte-identical at any shard count and any `--jobs` width
//! (shards = 1 is the legacy single-queue path, just with one arena):
//!
//! * every RNG stream is forked per `(district, purpose, epoch)` from a
//!   seed derived off the campaign seed — no stream is shared between
//!   districts, and no draw depends on event interleaving across
//!   districts;
//! * within an epoch, districts interact **only** through their own
//!   queue; cross-district effects ride the mailbox, which is routed
//!   serially at the epoch boundary in district-id order (shards hold
//!   contiguous id ranges, so walking shards in order *is* walking
//!   districts in order, at every shard count);
//! * a handoff's arrival time is at least one full epoch after its
//!   departure pops (transit travel ≥ 60 s = 1 epoch), so an arrival
//!   never lands behind the destination queue's monotonicity watermark
//!   and is always delivered by a *future* epoch's inbox drain.
//!
//! # Streaming populations
//!
//! Populations are never materialized up front. Each district draws its
//! arrivals **one epoch at a time** via
//! [`GroupArrivalProcess::generate_minute`], minting phones only for the
//! minute being simulated; an agent's arena slot is recycled the moment
//! its last event fires. Peak memory is proportional to *concurrent
//! occupancy*, not to the day's total population — a 1M-device day runs
//! in a few hundred thousand live agents.

use ch_attack::ext::DeauthScheduler;
use ch_attack::CityHunterConfig;
use ch_attack::{Attacker, AttackerSpec};
use ch_mobility::arrival::{GroupArrival, GroupArrivalProcess};
use ch_mobility::path::{visits_for_group, MotionPath, Visit};
use ch_mobility::{VenueKind, VenueTemplate};
use ch_phone::popgen::PopulationBuilder;
use ch_phone::scanner::ScanPlan;
use ch_phone::Phone;
use ch_sim::{EventQueue, LossModel, SimDuration, SimRng, SimTime};
use ch_wifi::timing;
use ch_wifi::{Channel, MacAddr};

use std::fmt::Write as _;
use std::sync::{Mutex, PoisonError};

use crate::ctx::CampaignCtx;
use crate::scan::{self, Radio, Reach, ScanScratch};

/// Fraction of transit visitors who continue to the ring-adjacent
/// district instead of leaving the system when their visit ends.
const HANDOFF_PROB: f64 = 0.35;
/// Inter-district travel time bounds, seconds. The lower bound is one
/// full epoch — the invariant that makes mailbox delivery watermark-safe
/// (see the module docs' determinism argument).
const TRAVEL_SECS: (f64, f64) = (60.0, 300.0);

/// Configuration of one city run.
#[derive(Debug, Clone, PartialEq)]
pub struct CityConfig {
    /// Master seed; every district stream derives from it.
    pub seed: u64,
    /// Number of districts (venue instances), clamped to `1..=256`.
    pub districts: usize,
    /// Wall-clock hour the day starts at.
    pub start_hour: usize,
    /// Run length in epochs (one epoch = one sim minute).
    pub epochs: u64,
    /// Arrival-intensity multiplier over the calibrated venue rates —
    /// the "how big is this city" knob.
    pub arrival_multiplier: f64,
    /// Requested shard count (clamped to the district count; results are
    /// identical at every value).
    pub shards: usize,
    /// Worker threads (`None` = `CH_JOBS` / machine width); never
    /// affects results.
    pub jobs: Option<usize>,
}

impl CityConfig {
    /// CI-sized city: a morning rush slice across 8 districts.
    pub fn quick(seed: u64) -> Self {
        CityConfig {
            seed,
            districts: 8,
            start_hour: 8,
            epochs: 20,
            arrival_multiplier: 1.0,
            shards: 4,
            jobs: None,
        }
    }

    /// The full city day: 48 districts × 12 h, scaled to a ~1M-device
    /// population.
    pub fn full(seed: u64) -> Self {
        CityConfig {
            seed,
            districts: 48,
            start_hour: 8,
            epochs: 720,
            arrival_multiplier: 2.0,
            shards: 16,
            jobs: None,
        }
    }
}

/// One district's static description inside a [`CityPlan`].
#[derive(Debug, Clone)]
pub struct DistrictSpec {
    /// District id (also its index in the plan).
    pub id: u32,
    /// The venue instance this district hosts.
    pub venue: VenueKind,
    /// Stable slug for the attacker deployed here.
    pub attacker_slug: &'static str,
    /// The attacker generation deployed here.
    pub attacker: AttackerSpec,
    /// Ring topology: where this district's transit leavers go next.
    pub next: u32,
}

/// The city layout: districts in id order plus the shard chunking.
#[derive(Debug, Clone)]
pub struct CityPlan {
    /// Districts, in id order.
    pub districts: Vec<DistrictSpec>,
    /// Districts per shard (shards are contiguous id ranges).
    pub per_shard: usize,
}

/// The attacker generation cycle: consecutive blocks of four districts
/// share a generation, so every venue kind meets every attacker as the
/// city grows.
fn attacker_for(block: usize) -> (&'static str, AttackerSpec) {
    match block % 4 {
        0 => (
            "city-hunter",
            AttackerSpec::CityHunter(CityHunterConfig::default()),
        ),
        1 => ("prelim", AttackerSpec::Prelim),
        2 => ("mana", AttackerSpec::Mana),
        _ => ("karma", AttackerSpec::Karma),
    }
}

impl CityPlan {
    /// Lays out the city for `config`: venue kinds cycle per district,
    /// attacker generations cycle per block of four, and transit leavers
    /// follow the ring `d → d+1 (mod n)`.
    pub fn build(config: &CityConfig) -> CityPlan {
        let n = config.districts.clamp(1, 256);
        let shards = config.shards.clamp(1, n);
        let per_shard = n.div_ceil(shards);
        let districts = (0..n)
            .map(|d| {
                let (attacker_slug, attacker) = attacker_for(d / VenueKind::ALL.len());
                DistrictSpec {
                    id: d as u32,
                    venue: VenueKind::ALL[d % VenueKind::ALL.len()],
                    attacker_slug,
                    attacker,
                    next: ((d + 1) % n) as u32,
                }
            })
            .collect();
        CityPlan {
            districts,
            per_shard,
        }
    }

    /// Actual shard count after clamping and chunking.
    pub fn shard_count(&self) -> usize {
        self.districts.len().div_ceil(self.per_shard)
    }

    /// What a run of this plan executes with `jobs` requested workers
    /// (`None` = `CH_JOBS` / machine width). [`run_city`] spawns exactly
    /// `workers` threads, and the `city` driver reports these counts.
    pub fn layout(&self, jobs: Option<usize>) -> CityLayout {
        let shards = self.shard_count();
        CityLayout {
            districts: self.districts.len(),
            shards,
            workers: ch_fleet::effective_jobs(jobs)
                .min(ch_fleet::worker_cap())
                .min(shards),
        }
    }
}

/// The district, shard and worker counts a city run executes; see
/// [`CityPlan::layout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CityLayout {
    /// Districts laid out: the requested count clamped to `1..=256`.
    pub districts: usize,
    /// Shards after chunking the districts into contiguous id ranges.
    pub shards: usize,
    /// Worker threads: the requested jobs, capped by
    /// [`ch_fleet::worker_cap`] and by the shard count.
    pub workers: usize,
}

/// Per-district counters; all totals in the run artifact derive from
/// these.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DistrictStats {
    /// Devices minted (including dark radios that never schedule).
    pub devices: u64,
    /// Agents that entered the arena (had a scan or a handoff ahead).
    pub agents: u64,
    /// Events dispatched from the district queue.
    pub events: u64,
    /// Scan bursts emitted by in-range probing phones.
    pub scans: u64,
    /// Probe frames that survived the uplink.
    pub probes_heard: u64,
    /// Lures offered to broadcast probes.
    pub offers: u64,
    /// Probe responses that survived airtime + downlink.
    pub lures_delivered: u64,
    /// Successful associations to the rogue AP.
    pub hits: u64,
    /// Scan instants where the phone was out of attacker range.
    pub out_of_range: u64,
    /// Scan instants where the phone had nothing to say (connected,
    /// mid-dwell radio silence, or deauthenticated instead of probing).
    pub silent: u64,
    /// Transit leavers handed to the next district.
    pub handoffs_out: u64,
    /// Travellers admitted from the mailbox.
    pub handoffs_in: u64,
}

/// Queue payload: which arena slot fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CityEvent {
    /// One scan instant for the agent in this slot.
    Scan(u32),
    /// The agent leaves the district (and hands off to the next one).
    Depart(u32),
}

/// One live client in a district arena.
struct CityAgent {
    phone: Phone,
    visit: Visit,
    /// Scan events still queued for this slot.
    pending: u32,
    /// When set, the agent departs at `visit.exit_at` and arrives at the
    /// ring-next district at this time.
    handoff: Option<SimTime>,
}

/// A client in flight between districts — the mailbox payload.
#[derive(Debug)]
struct Transit {
    /// Destination district id.
    to: u32,
    /// Arrival time there (≥ one epoch after departure).
    arrive_at: SimTime,
    /// The travelling phone, state intact (PNL, MAC policy, history).
    phone: Phone,
}

/// One district: a venue instance with its own queue, arena, attacker
/// and RNG streams.
struct District {
    id: u32,
    next_district: u32,
    venue_kind: VenueKind,
    attacker_slug: &'static str,
    venue: VenueTemplate,
    /// Stable-MAC OUI: distinct per district so client identities never
    /// collide city-wide even though builder ids restart per district.
    oui: [u8; 3],
    root: SimRng,
    /// The attacker's air; its medium stream is re-forked each epoch.
    radio: Radio,
    process: GroupArrivalProcess,
    builder: PopulationBuilder,
    attacker: Box<dyn Attacker>,
    events: EventQueue<CityEvent>,
    agents: Vec<Option<CityAgent>>,
    free: Vec<u32>,
    inbox: Vec<Transit>,
    outbox: Vec<Transit>,
    arrivals_buf: Vec<GroupArrival>,
    next_group: u32,
    stats: DistrictStats,
}

impl District {
    fn new(
        spec: &DistrictSpec,
        config: &CityConfig,
        ctx: &CampaignCtx,
        duration: SimDuration,
    ) -> District {
        let mut venue = spec.venue.template();
        venue.base_groups_per_hour *= config.arrival_multiplier;
        let plan = ctx.plan(spec.venue);
        let root = SimRng::seed_from(ch_fleet::derive_seed(
            config.seed,
            &format!("city/district/{:03}", spec.id),
        ));
        let radio = Radio {
            pos: venue.attacker,
            loss: LossModel::urban_100mw(),
            rng: root.fork("medium/init"),
            channel: Channel::default_attack_channel(),
            budget: timing::responses_per_scan(),
            deauth: DeauthScheduler::default_30s(),
        };
        District {
            id: spec.id,
            next_district: spec.next,
            venue_kind: spec.venue,
            attacker_slug: spec.attacker_slug,
            oui: [0xd1, 0x5c, spec.id as u8],
            process: GroupArrivalProcess::new(&venue, config.start_hour, duration),
            builder: ctx.population_builder(plan.population.clone()),
            attacker: spec.attacker.build_from_plan(
                MacAddr::from_index([0x0a, 0xbc, 0xde], spec.id + 1),
                &plan.attack,
            ),
            venue,
            root,
            radio,
            events: EventQueue::new(),
            agents: Vec::new(),
            free: Vec::new(),
            inbox: Vec::new(),
            outbox: Vec::new(),
            arrivals_buf: Vec::new(),
            next_group: 0,
            stats: DistrictStats::default(),
        }
    }

    /// A per-(purpose, epoch) stream: reproducible without replaying
    /// earlier epochs, and never shared with another district.
    fn fork_epoch(&self, label: &str, epoch: u64) -> SimRng {
        self.root.fork(&format!("{label}/e{epoch}"))
    }

    fn alloc_slot(&mut self) -> u32 {
        match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.agents.push(None);
                (self.agents.len() - 1) as u32
            }
        }
    }

    /// Installs a visiting phone: schedules its scan instants, decides
    /// whether it continues to the ring-next district, and recycles
    /// nothing if it will never fire an event.
    fn spawn(&mut self, phone: Phone, visit: Visit, rng: &mut SimRng) {
        if !phone.wifi_active {
            // Dark radio: invisible here and in every later district.
            return;
        }
        let handoff =
            if matches!(visit.path, MotionPath::Transit { .. }) && rng.chance(HANDOFF_PROB) {
                let travel = rng.range_f64(TRAVEL_SECS.0, TRAVEL_SECS.1);
                Some(visit.exit_at + SimDuration::from_secs_f64(travel))
            } else {
                None
            };
        let plan = ScanPlan::for_window(&phone.scan, visit.enter_at, visit.exit_at, rng);
        if plan.times().is_empty() && handoff.is_none() {
            return;
        }
        let idx = self.alloc_slot();
        let mut pending = 0u32;
        for &t in plan.times() {
            self.events.push(t, CityEvent::Scan(idx));
            pending += 1;
        }
        if handoff.is_some() {
            // Pushed after the same-time scans, so FIFO tie-breaking
            // dispatches a final scan at `exit_at` before the departure.
            self.events.push(visit.exit_at, CityEvent::Depart(idx));
        }
        self.agents[idx as usize] = Some(CityAgent {
            phone,
            visit,
            pending,
            handoff,
        });
        self.stats.agents += 1;
    }

    /// Admits a traveller from the mailbox: a size-1 "group" arriving at
    /// the handoff time, walking a fresh path through this venue.
    fn admit(&mut self, transit: Transit, rng: &mut SimRng) {
        self.stats.handoffs_in += 1;
        let group = GroupArrival {
            group_id: transit.phone.group_id,
            arrive_at: transit.arrive_at,
            size: 1,
        };
        if let Some(visit) = visits_for_group(&self.venue, &group, rng).pop() {
            self.spawn(transit.phone, visit, rng);
        }
    }

    /// Advances the district through epoch `epoch` (sim minute
    /// `[epoch, epoch+1)`): drain the inbox, mint this minute's
    /// arrivals, then dispatch events up to the epoch boundary.
    fn run_epoch(&mut self, epoch: u64, scratch: &mut ScanScratch) {
        self.radio.rng = self.fork_epoch("medium", epoch);

        // 1. Mailbox admissions (delivered at the previous boundary).
        let mut rng_inbox = self.fork_epoch("inbox", epoch);
        let mut inbox = std::mem::take(&mut self.inbox);
        for transit in inbox.drain(..) {
            self.admit(transit, &mut rng_inbox);
        }
        self.inbox = inbox; // keep the allocation

        // 2. This minute's fresh arrivals, streamed — never the whole
        //    day at once.
        let mut rng_arrivals = self.fork_epoch("arrivals", epoch);
        let mut rng_paths = self.fork_epoch("paths", epoch);
        let mut rng_pop = self.fork_epoch("pop", epoch);
        let mut rng_spawn = self.fork_epoch("spawn", epoch);
        let mut next_group = self.next_group;
        let mut arrivals = std::mem::take(&mut self.arrivals_buf);
        arrivals.clear();
        self.process.generate_minute(
            epoch as usize,
            &mut next_group,
            &mut rng_arrivals,
            &mut arrivals,
        );
        self.next_group = next_group;
        for group in &arrivals {
            let visits = visits_for_group(&self.venue, group, &mut rng_paths);
            let phones = self
                .builder
                .phones_for_group(group.group_id, visits.len(), &mut rng_pop);
            for (visit, mut phone) in visits.into_iter().zip(phones) {
                self.stats.devices += 1;
                // Re-key stable identities under the district OUI:
                // builder ids restart per district, and a city must not
                // alias two people into one tracked client.
                phone.mac = MacAddr::from_index(self.oui, phone.id);
                self.spawn(phone, visit, &mut rng_spawn);
            }
        }
        self.arrivals_buf = arrivals;

        // 3. Dispatch to the boundary.
        let end = SimTime::from_mins(epoch + 1);
        while let Some((now, event)) = self.events.pop_until(end) {
            self.stats.events += 1;
            match event {
                CityEvent::Scan(idx) => self.on_scan(now, idx, scratch),
                CityEvent::Depart(idx) => self.on_depart(idx),
            }
        }
    }

    /// One scan instant through the scan kernel, with no planes armed;
    /// the district's counters fold in what it did.
    fn on_scan(&mut self, now: SimTime, idx: u32, scratch: &mut ScanScratch) {
        let Some(Some(agent)) = self.agents.get_mut(idx as usize) else {
            return;
        };
        agent.pending -= 1;
        let report = scan::exchange(
            now,
            &mut agent.phone,
            &agent.visit,
            self.attacker.as_mut(),
            &mut self.radio,
            scratch,
            None,
        );
        let stats = &mut self.stats;
        match report.reach {
            Reach::Gone => {}
            Reach::OutOfRange => stats.out_of_range += 1,
            Reach::Deauth(_) | Reach::Silent => stats.silent += 1,
            Reach::Probed => stats.scans += 1,
        }
        stats.probes_heard += report.heard_broadcast + report.heard_direct;
        stats.offers += report.offered;
        stats.lures_delivered += report.delivered;
        if let Some((lure, at)) = report.join {
            stats.hits += 1;
            // Off the zero-alloc path on purpose: hit bookkeeping may
            // grow attacker tables.
            self.attacker
                .on_hit(at, agent.phone.mac, scratch.lure(lure));
        }
        if agent.pending == 0 && agent.handoff.is_none() {
            self.agents[idx as usize] = None;
            self.free.push(idx);
        }
    }

    fn on_depart(&mut self, idx: u32) {
        let Some(slot) = self.agents.get_mut(idx as usize) else {
            return;
        };
        let Some(agent) = slot.take() else {
            return;
        };
        self.free.push(idx);
        let CityAgent {
            mut phone, handoff, ..
        } = agent;
        if let Some(arrive_at) = handoff {
            // Walking out of range drops any association; the traveller
            // probes afresh in the next district — the cross-district
            // hunting surface this experiment measures.
            phone.handle_deauth();
            self.stats.handoffs_out += 1;
            self.outbox.push(Transit {
                to: self.next_district,
                arrive_at,
                phone,
            });
        }
    }
}

/// Routes every outbox into its destination inbox, in district-id order
/// — the serial boundary step that makes cross-shard traffic
/// deterministic at any shard count and any worker width. It runs between
/// epochs, when no worker holds a shard. `transfer` is a reused staging
/// buffer.
fn route_handoffs(shards: &[Mutex<Vec<District>>], per_shard: usize, transfer: &mut Vec<Transit>) {
    // Pass 1: collect. Shards hold contiguous id ranges, so shard order
    // then in-shard order *is* global district-id order; within one
    // district the outbox preserves emission (event) order.
    for shard in shards {
        let mut shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
        for district in shard.iter_mut() {
            transfer.append(&mut district.outbox);
        }
    }
    // Pass 2: deliver in that same global order.
    for transit in transfer.drain(..) {
        let dest = transit.to as usize;
        let mut shard = shards[dest / per_shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        shard[dest % per_shard].inbox.push(transit);
    }
}

/// One district's contribution to the run artifact.
#[derive(Debug, Clone)]
pub struct DistrictReport {
    /// District id.
    pub id: u32,
    /// Venue kind hosted there.
    pub venue: VenueKind,
    /// Attacker slug deployed there.
    pub attacker: &'static str,
    /// The counters.
    pub stats: DistrictStats,
}

/// The deterministic outcome of a city run. Everything here — including
/// [`render`](CityOutcome::render) — is byte-identical at any shard
/// count and `--jobs` width; wall-clock throughput is measured by the
/// driver *around* this, never inside it.
#[derive(Debug, Clone)]
pub struct CityOutcome {
    /// The seed the city ran under.
    pub seed: u64,
    /// Epochs simulated (sim minutes).
    pub epochs: u64,
    /// Wall-clock start hour.
    pub start_hour: usize,
    /// Arrival multiplier in force.
    pub arrival_multiplier: f64,
    /// Per-district reports, in id order.
    pub reports: Vec<DistrictReport>,
}

impl CityOutcome {
    fn total(&self, f: impl Fn(&DistrictStats) -> u64) -> u64 {
        self.reports.iter().map(|r| f(&r.stats)).sum()
    }

    /// Devices minted across the city.
    pub fn devices(&self) -> u64 {
        self.total(|s| s.devices)
    }

    /// Events dispatched across every district queue.
    pub fn events(&self) -> u64 {
        self.total(|s| s.events)
    }

    /// Rogue-AP associations across the city.
    pub fn hits(&self) -> u64 {
        self.total(|s| s.hits)
    }

    /// `(out, in)` mailbox traffic. `out ≥ in`: travellers still in
    /// flight when the day ends are never admitted.
    pub fn handoffs(&self) -> (u64, u64) {
        (
            self.total(|s| s.handoffs_out),
            self.total(|s| s.handoffs_in),
        )
    }

    /// Simulated seconds covered by the run.
    pub fn sim_secs(&self) -> u64 {
        self.epochs * 60
    }

    /// The shard-invariant text artifact: per-district rows plus city
    /// totals. Deliberately excludes shard count, worker width and any
    /// wall-clock measurement — `cmp` between runs at different widths
    /// is the determinism gate.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# city — sharded synthetic city day");
        let _ = writeln!(
            out,
            "seed {} | districts {} | start {:02}:00 | {} sim-min | arrivals x{:.1}",
            self.seed,
            self.reports.len(),
            self.start_hour,
            self.epochs,
            self.arrival_multiplier,
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<5} {:<9} {:<12} {:>9} {:>10} {:>9} {:>7} {:>7} {:>7}",
            "dist", "venue", "attacker", "devices", "events", "scans", "hits", "out", "in"
        );
        for r in &self.reports {
            let _ = writeln!(
                out,
                "{:<5} {:<9} {:<12} {:>9} {:>10} {:>9} {:>7} {:>7} {:>7}",
                format!("d{:03}", r.id),
                venue_slug(r.venue),
                r.attacker,
                r.stats.devices,
                r.stats.events,
                r.stats.scans,
                r.stats.hits,
                r.stats.handoffs_out,
                r.stats.handoffs_in,
            );
        }
        let (h_out, h_in) = self.handoffs();
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "totals: devices {} | agents {} | events {} | scans {} | probes {} | offers {} | delivered {} | hits {} | out-of-range {} | silent {} | handoffs {}/{} (out/in)",
            self.devices(),
            self.total(|s| s.agents),
            self.events(),
            self.total(|s| s.scans),
            self.total(|s| s.probes_heard),
            self.total(|s| s.offers),
            self.total(|s| s.lures_delivered),
            self.hits(),
            self.total(|s| s.out_of_range),
            self.total(|s| s.silent),
            h_out,
            h_in,
        );
        let _ = writeln!(out, "sim-clock: {} s", self.sim_secs());
        out
    }
}

fn venue_slug(kind: VenueKind) -> &'static str {
    match kind {
        VenueKind::SubwayPassage => "passage",
        VenueKind::Canteen => "canteen",
        VenueKind::ShoppingCenter => "shopping",
        VenueKind::RailwayStation => "railway",
    }
}

/// The plan's districts in id order, chunked into contiguous shards.
fn build_shards(
    ctx: &CampaignCtx,
    config: &CityConfig,
    plan: &CityPlan,
) -> Vec<Mutex<Vec<District>>> {
    let duration = SimDuration::from_mins(config.epochs);
    plan.districts
        .chunks(plan.per_shard)
        .map(|specs| {
            let districts = specs
                .iter()
                .map(|spec| District::new(spec, config, ctx, duration));
            Mutex::new(districts.collect())
        })
        .collect()
}

/// Runs the whole city: epochs advance in lockstep across shards, one
/// round of `ch-fleet`'s lockstep pool per epoch on workers spawned once
/// for the run (each with its own warm scratch), with the handoff mailbox
/// routed serially on the calling thread between epochs.
pub fn run_city(ctx: &CampaignCtx, config: &CityConfig) -> CityOutcome {
    let plan = CityPlan::build(config);
    let shards = build_shards(ctx, config, &plan);
    let per_shard = plan.per_shard;
    let mut transfer: Vec<Transit> = Vec::new();
    ch_fleet::scoped_lockstep(
        &shards,
        plan.layout(config.jobs).workers,
        config.epochs,
        ScanScratch::default,
        |epoch, shard, scratch| {
            let mut shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            for district in shard.iter_mut() {
                district.run_epoch(epoch, scratch);
            }
        },
        |_, _| route_handoffs(&shards, per_shard, &mut transfer),
    );
    let reports = shards
        .into_iter()
        .flat_map(|shard| shard.into_inner().unwrap_or_else(PoisonError::into_inner))
        .map(|d| DistrictReport {
            id: d.id,
            venue: d.venue_kind,
            attacker: d.attacker_slug,
            stats: d.stats,
        })
        .collect();
    CityOutcome {
        seed: config.seed,
        epochs: config.epochs,
        start_hour: config.start_hour,
        arrival_multiplier: config.arrival_multiplier,
        reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::CityData;

    fn test_ctx() -> CampaignCtx {
        CampaignCtx::build(&CityData::standard(99))
    }

    #[test]
    fn plan_cycles_venues_and_attackers_on_a_ring() {
        let config = CityConfig {
            districts: 10,
            shards: 3,
            ..CityConfig::quick(7)
        };
        let plan = CityPlan::build(&config);
        assert_eq!(plan.districts.len(), 10);
        assert_eq!(plan.per_shard, 4); // ceil(10/3)
        assert_eq!(plan.shard_count(), 3);
        // Venues cycle with period 4; attackers with period 16.
        assert_eq!(plan.districts[0].venue, VenueKind::SubwayPassage);
        assert_eq!(plan.districts[4].venue, VenueKind::SubwayPassage);
        assert_eq!(plan.districts[1].venue, VenueKind::Canteen);
        assert_eq!(plan.districts[0].attacker_slug, "city-hunter");
        assert_eq!(plan.districts[4].attacker_slug, "prelim");
        assert_eq!(plan.districts[8].attacker_slug, "mana");
        // Ring: the last district wraps to the first.
        assert_eq!(plan.districts[9].next, 0);
        assert_eq!(plan.districts[3].next, 4);
    }

    /// The ISSUE's handoff-ordering unit: two clients transiting in the
    /// same epoch, in both directions, delivered in district-id order —
    /// and identically at every shard width.
    #[test]
    fn handoffs_route_in_district_order_at_any_shard_width() {
        let ctx = test_ctx();
        let t = SimTime::from_mins(3);
        // Returns ((expected ids), d0 inbox ids, d1 inbox ids) after
        // routing two clients d0→d1 and two d1→d0 in the same epoch.
        let inbox_ids = |config: &CityConfig| {
            let mut rng = SimRng::seed_from(5);
            let phones = ctx
                .population_builder(ctx.plan(VenueKind::SubwayPassage).population.clone())
                .phones_for_group(0, 4, &mut rng);
            let ids: Vec<u32> = phones.iter().map(|p| p.id).collect();
            let plan = CityPlan::build(config);
            let per_shard = plan.per_shard;
            let mut shards = build_shards(&ctx, config, &plan);
            let push = |shards: &mut [Mutex<Vec<District>>], from: usize, to: u32, phone: Phone| {
                let shard = shards[from / per_shard].get_mut().unwrap();
                shard[from % per_shard].outbox.push(Transit {
                    to,
                    arrive_at: t,
                    phone,
                });
            };
            let mut phones = phones.into_iter();
            push(&mut shards, 0, 1, phones.next().unwrap());
            push(&mut shards, 0, 1, phones.next().unwrap());
            push(&mut shards, 1, 0, phones.next().unwrap());
            push(&mut shards, 1, 0, phones.next().unwrap());
            let mut transfer = Vec::new();
            route_handoffs(&shards, per_shard, &mut transfer);
            assert!(transfer.is_empty(), "staging buffer drains fully");
            let collect = |shards: &mut [Mutex<Vec<District>>], id: usize| -> Vec<u32> {
                let shard = shards[id / per_shard].get_mut().unwrap();
                shard[id % per_shard]
                    .inbox
                    .iter()
                    .map(|tr| tr.phone.id)
                    .collect()
            };
            let d0 = collect(&mut shards, 0);
            let d1 = collect(&mut shards, 1);
            (ids, d0, d1)
        };

        let base = CityConfig {
            districts: 4,
            epochs: 6,
            ..CityConfig::quick(11)
        };
        let one = inbox_ids(&CityConfig {
            shards: 1,
            ..base.clone()
        });
        let two = inbox_ids(&CityConfig {
            shards: 2,
            ..base.clone()
        });
        let four = inbox_ids(&CityConfig {
            shards: 4,
            ..base.clone()
        });
        // Emission order preserved per destination, at every width.
        assert_eq!(one.2, one.0[0..2], "d0→d1 order");
        assert_eq!(one.1, one.0[2..4], "d1→d0 order");
        assert_eq!(one, two);
        assert_eq!(one, four);
    }

    #[test]
    fn city_runs_are_shard_and_jobs_invariant() {
        let ctx = test_ctx();
        let base = CityConfig {
            districts: 4,
            epochs: 10,
            jobs: Some(1),
            shards: 1,
            ..CityConfig::quick(42)
        };
        let reference = run_city(&ctx, &base);
        let text = reference.render();
        for (shards, jobs) in [(1, 4), (2, 2), (4, 4)] {
            let other = run_city(
                &ctx,
                &CityConfig {
                    shards,
                    jobs: Some(jobs),
                    ..base.clone()
                },
            );
            assert_eq!(
                other.render(),
                text,
                "shards={shards} jobs={jobs} must be byte-identical"
            );
        }
        // The run actually exercised the mailbox and the attack.
        let (h_out, h_in) = reference.handoffs();
        assert!(h_out > 0, "no handoffs left any district");
        assert!(h_in > 0, "no handoffs were admitted");
        assert!(h_in <= h_out, "admissions cannot exceed departures");
        assert!(reference.devices() > 0);
        assert!(reference.events() > 0);
    }

    #[test]
    fn single_district_ring_hands_off_to_itself() {
        let ctx = test_ctx();
        let outcome = run_city(
            &ctx,
            &CityConfig {
                districts: 1,
                epochs: 10,
                shards: 4, // clamps to 1 — the legacy single-queue path
                ..CityConfig::quick(3)
            },
        );
        assert_eq!(outcome.reports.len(), 1);
        let stats = &outcome.reports[0].stats;
        assert!(stats.handoffs_out >= stats.handoffs_in);
        assert!(stats.handoffs_in > 0, "ring of one feeds itself");
    }
}
