//! The `fig5` workload: the paper's Fig. 5 campaign, City-Hunter in four
//! venues × twelve hour-long tests, as 48 fleet jobs at two workers —
//! exactly what `experiment fig5` runs.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use ch_attack::buffers::{AdaptiveBuffers, SelectScratch};
use ch_attack::{Attacker, AttackerSpec, ClientTracker, Lure, SsidDatabase};
use ch_fleet::{run_campaign_scoped, FleetOptions, FleetStats, JobStatus};
use ch_mobility::arrival::GroupArrivalProcess;
use ch_mobility::path::visits_for_group;
use ch_mobility::VenueKind;
use ch_phone::scanner::ScanPlan;
use ch_scenarios::experiments::{
    campaign_fleet, campaign_jobs, CampaignOutcome, HourResult, VenueSeries,
};
use ch_scenarios::runner::run_experiment_with_attacker;
use ch_scenarios::{CampaignCtx, CampaignJob, JobRecord, RunConfig, RunScratch};
use ch_sim::{CrashMode, EventQueue, SimDuration, SimRng, SimTime};
use ch_wifi::mgmt::{Beacon, ProbeRequest};
use ch_wifi::{MacAddr, Ssid, SsidId};

use crate::report::{same, sample_loop, Outcome};
use crate::setup;
use crate::stats::{median_u64, percentile_ns, Summary};
use crate::trace::{self_time_ns, Span};

/// Fleet width of the timed campaign: the 2-core host's width, the same
/// as `experiment fig5` there.
pub const WORKERS: usize = 2;

/// The campaign's shape.
#[derive(Debug, Clone)]
pub struct Size {
    /// Start hours of the tests in each venue.
    pub hours: Vec<usize>,
    /// Length of each test, sim minutes.
    pub minutes: u64,
    /// Minimum timed repetitions per run.
    pub min_reps: usize,
}

impl Size {
    /// The paper's campaign: 08:00–19:00, one hour each.
    pub fn full() -> Size {
        Size {
            hours: (8..20).collect(),
            minutes: 60,
            min_reps: 5,
        }
    }

    fn duration(&self) -> SimDuration {
        SimDuration::from_mins(self.minutes)
    }

    fn jobs(&self, seed: u64) -> Vec<CampaignJob> {
        campaign_jobs(seed, &self.hours, self.duration())
    }
}

/// One `campaign_fleet` run.
struct Campaign {
    outcome: CampaignOutcome,
    stats: FleetStats,
    secs: f64,
}

fn campaign(ctx: &CampaignCtx, seed: u64, size: &Size, workers: usize) -> Result<Campaign, String> {
    let opts = FleetOptions::in_memory("fig5", 0).with_jobs(Some(workers));
    let start = Instant::now();
    let (outcome, stats) = campaign_fleet(ctx, seed, &size.hours, size.duration(), &opts)?;
    let secs = start.elapsed().as_secs_f64();
    Ok(Campaign {
        outcome,
        stats,
        secs,
    })
}

/// Reassembles per-job records (in `campaign_jobs` order) into the
/// campaign outcome, the way `campaign_fleet` does.
fn outcome_from(hours: &[usize], records: &[JobRecord]) -> CampaignOutcome {
    let venues = VenueKind::ALL
        .iter()
        .zip(records.chunks(hours.len().max(1)))
        .map(|(&venue, chunk)| VenueSeries {
            venue,
            hours: hours
                .iter()
                .zip(chunk)
                .map(|(&hour, record)| HourResult {
                    hour,
                    row: record.row.clone(),
                    sources: record.sources,
                    lanes: record.lanes,
                })
                .collect(),
        })
        .collect();
    CampaignOutcome { venues }
}

/// Deterministic work counts of a campaign outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct RowCounts {
    jobs: usize,
    clients: usize,
    broadcast_clients: usize,
    direct_clients: usize,
    broadcast_hits: usize,
    direct_hits: usize,
}

fn row_counts(outcome: &CampaignOutcome) -> RowCounts {
    let mut c = RowCounts::default();
    for hour in outcome.venues.iter().flat_map(|v| &v.hours) {
        c.jobs += 1;
        c.clients += hour.row.total_clients;
        c.broadcast_clients += hour.row.broadcast_clients;
        c.direct_clients += hour.row.direct_clients;
        c.broadcast_hits += hour.row.broadcast_connected;
        c.direct_hits += hour.row.direct_connected;
    }
    c
}

/// The committed-artifact gate: the rendered Fig. 5 text (as
/// `experiment fig5` prints it) against the reference file's bytes.
pub fn check_artifact(outcome: &CampaignOutcome, reference: &str) -> Result<(), String> {
    let rendered = format!("{}\n", outcome.render_fig5());
    if rendered == reference {
        Ok(())
    } else {
        Err(format!(
            "correctness gate: seed-1 Fig. 5 differs from the committed artifact \
             ({} vs {} bytes)",
            rendered.len(),
            reference.len()
        ))
    }
}

/// Per-call timings the wrapper records for one campaign pass.
#[derive(Debug, Default)]
struct Calls {
    broadcast_ns: Vec<u64>,
    direct_ns: Vec<u64>,
    /// Database size seen by each broadcast call.
    db_len: Vec<u64>,
    /// Every call's interval (the children of its job span).
    spans: Vec<Span>,
    lures: u64,
    hits: u64,
}

/// Times every probe the runner hands the attacker and delegates all of
/// `Attacker` unchanged, so the run it is part of is the run it times.
struct TimedAttacker<'a> {
    inner: Box<dyn Attacker>,
    origin: Instant,
    calls: &'a mut Calls,
}

impl Attacker for TimedAttacker<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn bssid(&self) -> MacAddr {
        self.inner.bssid()
    }

    fn respond_to_probe_into(
        &mut self,
        now: SimTime,
        probe: &ProbeRequest,
        budget: usize,
        out: &mut Vec<Lure>,
    ) {
        let db_len = self.inner.database_len();
        let start = Instant::now();
        self.inner.respond_to_probe_into(now, probe, budget, out);
        let end = Instant::now();
        let ns = end.duration_since(start).as_nanos() as u64;
        if probe.is_broadcast() {
            self.calls.broadcast_ns.push(ns);
            self.calls.db_len.push(db_len as u64);
            self.calls.lures += out.len() as u64;
        } else {
            self.calls.direct_ns.push(ns);
        }
        self.calls
            .spans
            .push(Span::between(self.origin, start, end));
    }

    fn on_hit(&mut self, now: SimTime, client: MacAddr, lure: &Lure) {
        self.calls.hits += 1;
        self.inner.on_hit(now, client, lure);
    }

    fn database_len(&self) -> usize {
        self.inner.database_len()
    }

    fn deauth_enabled(&self) -> bool {
        self.inner.deauth_enabled()
    }

    fn beacon(&mut self, now: SimTime) -> Option<Beacon> {
        self.inner.beacon(now)
    }

    fn checkpoint(&mut self, now: SimTime) {
        self.inner.checkpoint(now);
    }

    fn on_crash_restart(&mut self, now: SimTime, mode: CrashMode) {
        self.inner.on_crash_restart(now, mode);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
}

/// A serial pass over the campaign's jobs through
/// `run_experiment_with_attacker`, each job's attacker built from its
/// venue plan. `timed` wraps it in [`TimedAttacker`]; otherwise the bare
/// attacker runs (the untraced twin the tracing overhead is taken
/// against).
struct Pass {
    outcome: CampaignOutcome,
    calls: Calls,
    /// One span per job.
    jobs: Vec<Span>,
    secs: f64,
}

fn serial_pass(ctx: &CampaignCtx, size: &Size, jobs: &[CampaignJob], timed: bool) -> Pass {
    let origin = Instant::now();
    let mut calls = Calls::default();
    let mut records = Vec::with_capacity(jobs.len());
    let mut job_spans = Vec::with_capacity(jobs.len());
    for job in jobs {
        let plan = &ctx.plan(job.config.venue).attack;
        let attacker = job
            .config
            .attacker
            .build_from_plan(AttackerSpec::default_bssid(), plan);
        let job_start = Instant::now();
        let metrics = if timed {
            let mut wrapper = TimedAttacker {
                inner: attacker,
                origin,
                calls: &mut calls,
            };
            run_experiment_with_attacker(ctx.data(), &job.config, &mut wrapper)
        } else {
            let mut attacker = attacker;
            run_experiment_with_attacker(ctx.data(), &job.config, attacker.as_mut())
        };
        job_spans.push(Span::between(origin, job_start, Instant::now()));
        records.push(JobRecord::capture(&metrics, job.label.clone()));
    }
    Pass {
        outcome: outcome_from(&size.hours, &records),
        calls,
        jobs: job_spans,
        secs: origin.elapsed().as_secs_f64(),
    }
}

fn probe_count(calls: &Calls) -> u64 {
    (calls.broadcast_ns.len() + calls.direct_ns.len()) as u64
}

fn count_lines(out: &mut Outcome, counts: RowCounts, calls: &Calls) {
    out.line(format!(
        "fig5 counts: jobs {} | clients {} (broadcast {}, direct {}) | hits broadcast {} direct {} \
         | probes answered broadcast {} direct {} | lures {} | on_hit {}",
        counts.jobs,
        counts.clients,
        counts.broadcast_clients,
        counts.direct_clients,
        counts.broadcast_hits,
        counts.direct_hits,
        calls.broadcast_ns.len(),
        calls.direct_ns.len(),
        calls.lures,
        calls.hits,
    ));
}

/// The untraced run: the seed-1 campaign against `artifact` (the
/// committed Fig. 5 text), then timed 2-worker campaigns interleaved with
/// set-up samples for `seconds`.
///
/// # Errors
///
/// Any failed job, or any gate mismatch.
pub fn run(
    ctx: &CampaignCtx,
    seed: u64,
    size: &Size,
    seconds: f64,
    artifact: &str,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let jobs = size.jobs(seed);

    let seed1 = campaign(ctx, 1, size, WORKERS)?;
    check_artifact(&seed1.outcome, artifact)?;
    out.line("fig5 gate: the seed-1 campaign reproduces the committed Fig. 5 byte for byte");

    // The serial pass through the attacker wrapper supplies the probe
    // counts and the per-job rows every timed repetition must match.
    let pass = serial_pass(ctx, size, &jobs, true);
    let rows = pass.outcome.to_csv();
    let counts = row_counts(&pass.outcome);
    let probes = probe_count(&pass.calls);

    let (mut attempted, mut failed, mut retried) = (0u64, 0u64, 0u64);
    let mut threads = 0;
    let samples = sample_loop(
        seconds,
        size.min_reps,
        || setup::time_once(true),
        || {
            let c = campaign(ctx, seed, size, WORKERS)?;
            same(
                "fig5 per-job rows (2-worker vs serial)",
                &rows,
                &c.outcome.to_csv(),
            )?;
            same("fig5 jobs executed", &jobs.len(), &c.stats.executed)?;
            attempted += c.stats.executed as u64;
            failed += c.stats.failed as u64;
            retried += c.stats.retried as u64;
            threads = c.stats.threads;
            Ok(c.secs)
        },
    )?;
    let run_s = samples.report(
        &mut out,
        "fig5",
        "campaign_s: 48-job campaign wall at 2 workers",
    );
    count_lines(&mut out, counts, &pass.calls);
    out.line(format!(
        "fig5 fleet: {threads} worker thread(s); {attempted} jobs executed, {failed} failed, {retried} retried; \
         {:.0} probes answered per second",
        probes as f64 / run_s
    ));
    out.attempted = attempted;
    out.failed = failed;
    Ok(out)
}

/// Per-phase totals of the population replay.
#[derive(Debug, Default)]
struct Population {
    arrivals_ns: u64,
    visits_ns: u64,
    mint_ns: u64,
    scanplan_ns: u64,
    push_ns: u64,
    pop_ns: u64,
    devices: u64,
    pushes: u64,
    pops: u64,
    peak_len: usize,
}

impl Population {
    fn total_ns(&self) -> u64 {
        self.arrivals_ns
            + self.visits_ns
            + self.mint_ns
            + self.scanplan_ns
            + self.push_ns
            + self.pop_ns
    }
}

fn ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Replays the runner's population phase and queue traffic for one job
/// through the same public calls and RNG fork labels `run_core` uses.
fn replay_population(ctx: &CampaignCtx, config: &RunConfig, acc: &mut Population) {
    let venue = config.venue.template();
    let mut builder = ctx.population_builder(ctx.plan(config.venue).population.clone());
    let root = SimRng::seed_from(config.seed);
    let mut rng_pop = root.fork("population");
    let mut rng_paths = root.fork("paths");
    let mut rng_scans = root.fork("scans");
    let mut rng_arrivals = root.fork("arrival-stream");
    let process = GroupArrivalProcess::new(&venue, config.start_hour, config.duration);
    let t = Instant::now();
    let groups = process.generate(&mut rng_arrivals);
    acc.arrivals_ns += ns(t);
    let mut queue: EventQueue<usize> = EventQueue::new();
    let mut agent = 0usize;
    for group in &groups {
        let t = Instant::now();
        let visits = visits_for_group(&venue, group, &mut rng_paths);
        acc.visits_ns += ns(t);
        let t = Instant::now();
        let phones = builder.phones_for_group(group.group_id, visits.len(), &mut rng_pop);
        acc.mint_ns += ns(t);
        acc.devices += phones.len() as u64;
        for (visit, phone) in visits.iter().zip(&phones) {
            let t = Instant::now();
            let plan =
                ScanPlan::for_window(&phone.scan, visit.enter_at, visit.exit_at, &mut rng_scans);
            acc.scanplan_ns += ns(t);
            let t = Instant::now();
            for &at in plan.times() {
                queue.push(at, agent);
            }
            acc.push_ns += ns(t);
            acc.pushes += plan.times().len() as u64;
            agent += 1;
        }
    }
    acc.peak_len = acc.peak_len.max(queue.len());
    let end = SimTime::ZERO + config.duration;
    let t = Instant::now();
    while let Some(event) = queue.pop_until(end) {
        black_box(event);
        acc.pops += 1;
    }
    acc.pop_ns += ns(t);
}

/// Calls per timed batch in the isolated replays.
const BATCH: usize = 500;
/// Batches per isolated replay (median batch reported).
const BATCHES: usize = 15;

fn batched_ns(mut f: impl FnMut(usize)) -> f64 {
    let mut per_call = Vec::with_capacity(BATCHES);
    for b in 0..BATCHES {
        let t = Instant::now();
        for i in 0..BATCH {
            f(b * BATCH + i);
        }
        per_call.push(ns(t) as f64 / BATCH as f64);
    }
    Summary::of(&per_call).map_or(0.0, |s| s.median)
}

/// The three selection layers replayed in isolation on a City-Hunter
/// database of `db_len` entries: re-rank after a direct probe, the
/// per-client untried filter, and the PB/FB buffer selection.
fn isolated(ctx: &CampaignCtx, db_len: usize, out: &mut Outcome) {
    let plan = &ctx.plan(VenueKind::Canteen).attack;
    let mut db = SsidDatabase::new();
    for (ssid, weight) in plan.by_heat.iter().chain(&plan.nearby_open) {
        db.seed_from_wigle(ssid.clone(), *weight, SimTime::ZERO);
    }
    let mut filler = 0usize;
    while db.len() < db_len {
        db.observe_direct_probe(
            &Ssid::new_lossy(format!("bench-direct-{filler}")),
            SimTime::ZERO,
        );
        filler += 1;
    }
    let ranked: Vec<SsidId> = db.ranked().to_vec();
    for (k, &id) in ranked.iter().step_by(10).enumerate() {
        db.record_hit_id(id, SimTime::from_secs(k as u64));
    }
    let names: Vec<Ssid> = ranked.iter().map(|&id| db.resolve(id).clone()).collect();

    let rank_ns = batched_ns(|i| {
        db.observe_direct_probe(&names[i % names.len()], SimTime::from_secs(i as u64));
        black_box(db.ranked_and_fresh());
    });

    // Clients that already received one 40-lure burst from the head of
    // the ranking, as a repeat broadcast prober has.
    let (ranked, fresh) = {
        let (r, f) = db.ranked_and_fresh();
        (r.to_vec(), f.to_vec())
    };
    let mut tracker = ClientTracker::new();
    let clients: Vec<MacAddr> = (0..256u32)
        .map(|i| MacAddr::from_index([0x02, 0xbe, 0x4c], i))
        .collect();
    for &client in &clients {
        for &id in ranked.iter().take(40) {
            tracker.mark_sent(client, id);
        }
    }
    let mut seen = ch_arc::EpochSet::new();
    let mut by_weight = Vec::new();
    let untried_ns = batched_ns(|i| {
        tracker.select_untried_into(
            clients[i % clients.len()],
            &ranked,
            ranked.len(),
            &mut seen,
            &mut by_weight,
        );
        black_box(&by_weight);
    });

    let buffers = AdaptiveBuffers::paper_default();
    let mut rng = SimRng::seed_from(1);
    let mut scratch = SelectScratch::new();
    let mut picked = Vec::new();
    let select_ns = batched_ns(|_| {
        buffers.select_into(&by_weight, &fresh, 40, &mut rng, &mut scratch, &mut picked);
        black_box(&picked);
    });

    out.line(format!(
        "isolated replays at db_len {db_len} ({BATCHES}x{BATCH} calls, median batch): \
         rank {rank_ns:.0} ns | untried {untried_ns:.0} ns | select_into {select_ns:.0} ns"
    ));
    out.metric("attack.rank_ns", "ns", rank_ns);
    out.metric("attack.untried_ns", "ns", untried_ns);
    out.metric("arc.select_into_ns", "ns", select_ns);
}

/// The 2-worker campaign on the fleet pool with a span around each
/// `run_experiment_ctx`, as `run_jobs` runs it.
struct PoolRun {
    outcome: CampaignOutcome,
    jobs: Vec<Span>,
    wall: Span,
    threads: usize,
}

fn pool_run(ctx: &CampaignCtx, size: &Size, jobs: &[CampaignJob]) -> Result<PoolRun, String> {
    let spans = Mutex::new(Vec::with_capacity(jobs.len()));
    let opts = FleetOptions::in_memory("fig5", 0).with_jobs(Some(WORKERS));
    let origin = Instant::now();
    let report = run_campaign_scoped(
        jobs,
        &opts,
        RunScratch::new,
        |job: &CampaignJob, scratch| {
            let start = Instant::now();
            let metrics = ch_scenarios::run_experiment_ctx(ctx, &job.config, scratch);
            let span = Span::between(origin, start, Instant::now());
            spans
                .lock()
                .expect("span log poisoned by a panicking job")
                .push(span);
            JobRecord::capture(&metrics, job.label.clone())
        },
    );
    let wall = Span::between(origin, origin, Instant::now());
    let report = report?;
    let mut records = Vec::with_capacity(jobs.len());
    for outcome in &report.outcomes {
        match &outcome.status {
            JobStatus::Done(record) | JobStatus::Cached(record) => records.push(record.clone()),
            JobStatus::Failed(message) => return Err(format!("{}: {message}", outcome.key)),
        }
    }
    Ok(PoolRun {
        outcome: outcome_from(&size.hours, &records),
        jobs: spans
            .into_inner()
            .expect("span log poisoned by a panicking job"),
        wall,
        threads: report.stats.threads,
    })
}

/// The traced run: fleet spans, the attacker wrapper, the population and
/// queue replays, and the isolated selection replays.
///
/// # Errors
///
/// Any failed job or any row mismatch between the paths.
pub fn traced(ctx: &CampaignCtx, seed: u64, size: &Size) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let jobs = size.jobs(seed);

    let serial = campaign(ctx, seed, size, 1)?;
    let rows = serial.outcome.to_csv();
    let pool = pool_run(ctx, size, &jobs)?;
    same(
        "fig5 rows: pool vs serial campaign",
        &rows,
        &pool.outcome.to_csv(),
    )?;
    let pass = serial_pass(ctx, size, &jobs, true);
    same(
        "fig5 rows: traced serial vs timed campaign",
        &rows,
        &pass.outcome.to_csv(),
    )?;
    let twin = serial_pass(ctx, size, &jobs, false);
    same(
        "fig5 rows: untraced serial vs timed campaign",
        &rows,
        &twin.outcome.to_csv(),
    )?;
    out.attempted = (serial.stats.executed + jobs.len() * 3) as u64;
    out.failed = serial.stats.failed as u64;
    count_lines(&mut out, row_counts(&serial.outcome), &pass.calls);

    // Fleet.
    let job_ms: Vec<f64> = pool.jobs.iter().map(|s| s.ns() as f64 / 1e6).collect();
    let job_sum_ns: u64 = pool.jobs.iter().map(Span::ns).sum();
    let idle = 1.0 - job_sum_ns as f64 / (pool.threads as f64 * pool.wall.ns() as f64);
    let speedup = serial.secs / (pool.wall.ns() as f64 / 1e9);
    if let Some(s) = Summary::of(&job_ms) {
        out.line(format!("fleet.job_ms: {}", s.describe(1.0, "ms")));
        out.metric("fleet.job_ms_p50", "ms", s.median);
        out.metric("fleet.job_ms_max", "ms", s.max);
    }
    out.line(format!(
        "fleet: {} threads, campaign {:.3} s, idle {:.1}% of threads x wall; \
         speedup {speedup:.3}x = serial campaign_fleet {:.3} s / 2-worker {:.3} s",
        pool.threads,
        pool.wall.ns() as f64 / 1e9,
        idle * 100.0,
        serial.secs,
        pool.wall.ns() as f64 / 1e9,
    ));
    out.metric("fleet.idle_share", "ratio", idle);
    out.metric("fleet.speedup_2w", "ratio", speedup);

    // Attacker.
    let calls = &pass.calls;
    let job_ns: u64 = pass.jobs.iter().map(Span::ns).sum();
    let attack_ns: u64 = calls.spans.iter().map(Span::ns).sum();
    out.metric(
        "attack.bcast_calls",
        "count",
        calls.broadcast_ns.len() as f64,
    );
    if let Some(p50) = percentile_ns(&calls.broadcast_ns, 50.0) {
        out.metric("attack.bcast_ns_p50", "ns", p50);
    }
    if let Some(p99) = percentile_ns(&calls.broadcast_ns, 99.0) {
        out.metric("attack.bcast_ns_p99", "ns", p99);
    }
    out.metric("attack.direct_calls", "count", calls.direct_ns.len() as f64);
    if let Some(p50) = percentile_ns(&calls.direct_ns, 50.0) {
        out.metric("attack.direct_ns_p50", "ns", p50);
    }
    out.metric("attack.share", "ratio", attack_ns as f64 / job_ns as f64);
    let db_len = median_u64(&calls.db_len).unwrap_or(0.0);
    out.metric("attack.db_len_p50", "count", db_len);
    out.metric(
        "attack.hits_per_lure",
        "ratio",
        calls.hits as f64 / calls.lures.max(1) as f64,
    );
    out.line(format!(
        "attack: {} broadcast calls (p50 {:.0} ns), {} direct calls; {:.3} s of the {:.3} s traced serial pass",
        calls.broadcast_ns.len(),
        percentile_ns(&calls.broadcast_ns, 50.0).unwrap_or(0.0),
        calls.direct_ns.len(),
        attack_ns as f64 / 1e9,
        job_ns as f64 / 1e9,
    ));
    isolated(ctx, db_len as usize, &mut out);

    // Population, phones and queue.
    let mut pop = Population::default();
    for job in &jobs {
        replay_population(ctx, &job.config, &mut pop);
    }
    let per_device = |ns: u64| ns as f64 / pop.devices.max(1) as f64;
    out.metric(
        "mobility.arrivals_ns_per_device",
        "ns",
        per_device(pop.arrivals_ns),
    );
    out.metric(
        "mobility.visits_ns_per_device",
        "ns",
        per_device(pop.visits_ns),
    );
    out.metric("phone.mint_ns_per_device", "ns", per_device(pop.mint_ns));
    out.metric(
        "phone.scanplan_ns_per_device",
        "ns",
        per_device(pop.scanplan_ns),
    );
    out.metric("phone.devices", "count", pop.devices as f64);
    out.metric(
        "sim.queue_push_ns",
        "ns",
        pop.push_ns as f64 / pop.pushes.max(1) as f64,
    );
    out.metric(
        "sim.queue_pop_ns",
        "ns",
        pop.pop_ns as f64 / pop.pops.max(1) as f64,
    );
    out.metric("sim.queue_peak_len", "count", pop.peak_len as f64);
    out.line(format!(
        "population replay: {} devices, {} queue pushes / {} pops, {:.3} s total",
        pop.devices,
        pop.pushes,
        pop.pops,
        pop.total_ns() as f64 / 1e9
    ));

    // Runner self time: each job span minus its attacker calls, less the
    // replayed population and queue work.
    let self_ns: u64 = pass
        .jobs
        .iter()
        .map(|job| {
            let children: Vec<Span> = calls
                .spans
                .iter()
                .copied()
                .filter(|c| c.start >= job.start && c.end <= job.end)
                .collect();
            self_time_ns(*job, &children)
        })
        .sum();
    let runner_self = self_ns.saturating_sub(pop.total_ns());
    out.metric(
        "scenarios.runner_self_share",
        "ratio",
        runner_self as f64 / job_ns as f64,
    );

    let overhead = pass.secs / twin.secs - 1.0;
    out.line(format!(
        "fig5 tracing overhead: traced serial pass {:.3} s vs untraced twin {:.3} s ({:+.1}%)",
        pass.secs,
        twin.secs,
        overhead * 100.0
    ));
    out.metric("trace.overhead_fig5", "ratio", overhead);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Size {
        Size {
            hours: vec![12],
            minutes: 5,
            min_reps: 2,
        }
    }

    fn has(out: &Outcome, name: &str) -> bool {
        out.metrics.iter().any(|m| m.name == name && m.value > 0.0)
    }

    #[test]
    fn tiny_campaign_passes_the_gate_and_a_wrong_artifact_fails() {
        let (_, ctx) = setup::standard();
        let size = tiny();
        let seed1 = campaign(&ctx, 1, &size, 1).unwrap();
        let artifact = format!("{}\n", seed1.outcome.render_fig5());
        let out = run(&ctx, 3, &size, 0.0, &artifact).unwrap();
        for name in ["run_s", "setup_s", "peak_rss_mb"] {
            assert!(has(&out, name), "{name} missing");
        }
        assert_eq!(out.attempted, 2 * 4, "two timed repetitions of four jobs");
        assert_eq!(out.failed, 0);
        let wrong = artifact.replacen('%', "‰", 1);
        let err = run(&ctx, 3, &size, 0.0, &wrong).unwrap_err();
        assert!(err.contains("committed artifact"), "{err}");
    }

    #[test]
    fn tiny_traced_run_matches_the_campaign_rows() {
        let (_, ctx) = setup::standard();
        let out = traced(&ctx, 3, &tiny()).unwrap();
        for name in [
            "attack.bcast_calls",
            "attack.rank_ns",
            "arc.select_into_ns",
            "phone.devices",
            "sim.queue_peak_len",
            "fleet.speedup_2w",
            "scenarios.runner_self_share",
        ] {
            assert!(has(&out, name), "{name} missing");
        }
    }
}
