//! The `city` workload: a sharded city slice through `run_city` at two
//! workers — full mode's start hour, arrival rate and shard count.

use std::time::Instant;

use ch_fleet::derive_seed;
use ch_mobility::arrival::{GroupArrival, GroupArrivalProcess};
use ch_mobility::path::{visits_for_group, MotionPath};
use ch_phone::scanner::ScanPlan;
use ch_scenarios::{run_city, CampaignCtx, CityConfig, CityOutcome, CityPlan};
use ch_sim::{SimDuration, SimRng};

use crate::report::{same, sample_loop, Outcome};
use crate::setup;

/// Pool width of the timed runs.
pub const WORKERS: usize = 2;

/// Handoff probability and travel bounds of `ch_scenarios::city`; the
/// minting replay draws them to stay on the same RNG stream.
const HANDOFF_PROB: f64 = 0.35;
const TRAVEL_SECS: (f64, f64) = (60.0, 300.0);

/// The slice's shape.
#[derive(Debug, Clone)]
pub struct Size {
    /// Districts (venue instances).
    pub districts: usize,
    /// Sim minutes.
    pub epochs: u64,
    /// Minimum timed repetitions per run.
    pub min_reps: usize,
}

impl Size {
    /// Sixteen districts, so every venue kind meets every attacker
    /// generation (the plan cycles attackers in blocks of four), over a
    /// morning long enough for each district's attacker state to grow.
    pub fn full() -> Size {
        Size {
            districts: 16,
            epochs: 60,
            min_reps: 5,
        }
    }

    fn config(&self, seed: u64, shards: usize, jobs: usize) -> CityConfig {
        let full = CityConfig::full(seed);
        CityConfig {
            districts: self.districts,
            epochs: self.epochs,
            shards,
            jobs: Some(jobs),
            ..full
        }
    }
}

fn timed(ctx: &CampaignCtx, config: &CityConfig) -> (CityOutcome, f64) {
    let start = Instant::now();
    let outcome = run_city(ctx, config);
    (outcome, start.elapsed().as_secs_f64())
}

/// Travellers still in flight when the run ends are never admitted, so
/// admissions cannot exceed departures.
fn check_handoffs(outcome: &CityOutcome) -> Result<(), String> {
    let (out, inn) = outcome.handoffs();
    if inn > out {
        return Err(format!(
            "correctness gate: city admitted {inn} handoffs but only {out} left a district"
        ));
    }
    Ok(())
}

/// The single-shard, single-worker reference.
///
/// # Errors
///
/// When admissions exceed departures.
pub fn reference(ctx: &CampaignCtx, seed: u64, size: &Size) -> Result<CityOutcome, String> {
    let outcome = run_city(ctx, &size.config(seed, 1, 1));
    check_handoffs(&outcome)?;
    Ok(outcome)
}

fn count_lines(out: &mut Outcome, city: &CityOutcome) {
    let sum = |f: fn(&ch_scenarios::DistrictStats) -> u64| -> u64 {
        city.reports.iter().map(|r| f(&r.stats)).sum()
    };
    let (h_out, h_in) = city.handoffs();
    out.line(format!(
        "city counts: districts {} | epochs {} | devices {} | events {} | scans {} | probes heard {} \
         | offers {} | delivered {} | hits {} | handoffs {h_out} out / {h_in} in",
        city.reports.len(),
        city.epochs,
        city.devices(),
        city.events(),
        sum(|s| s.scans),
        sum(|s| s.probes_heard),
        sum(|s| s.offers),
        sum(|s| s.lures_delivered),
        city.hits(),
    ));
}

/// The untraced run: the serial single-shard reference, then timed
/// 2-worker runs (each rendered and compared to it) interleaved with
/// set-up samples for `seconds`.
///
/// # Errors
///
/// Any gate mismatch.
pub fn run(ctx: &CampaignCtx, seed: u64, size: &Size, seconds: f64) -> Result<Outcome, String> {
    measure(ctx, seed, size, seconds, &reference(ctx, seed, size)?)
}

/// Timed 2-worker runs, each rendered and compared to `reference`.
fn measure(
    ctx: &CampaignCtx,
    seed: u64,
    size: &Size,
    seconds: f64,
    reference: &CityOutcome,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let text = reference.render();
    let config = size.config(seed, CityConfig::full(seed).shards, WORKERS);
    let mut runs = 0u64;
    let samples = sample_loop(
        seconds,
        size.min_reps,
        || setup::time_once(true),
        || {
            let (outcome, secs) = timed(ctx, &config);
            runs += 1;
            same(
                "city render (2-worker vs 1-worker/1-shard)",
                &text,
                &outcome.render(),
            )?;
            Ok(secs)
        },
    )?;
    let run_s = samples.report(&mut out, "city", "2-worker run_city wall");
    count_lines(&mut out, reference);
    out.line(format!(
        "city events_per_s: {:.0} ({} events / median run_s); {runs} runs, 0 errored",
        reference.events() as f64 / run_s,
        reference.events()
    ));
    out.attempted = runs;
    Ok(out)
}

/// Totals of the per-epoch minting replay.
#[derive(Debug, Default)]
struct Minting {
    ns: u64,
    devices: u64,
}

/// Replays every district's per-epoch minting (arrivals, visits, phones,
/// handoff draw, scan plan) through the public calls and RNG fork labels
/// `ch_scenarios::city` uses. Mailbox admissions are not replayed.
fn replay_minting(ctx: &CampaignCtx, config: &CityConfig) -> Minting {
    let plan = CityPlan::build(config);
    let duration = SimDuration::from_mins(config.epochs);
    let mut acc = Minting::default();
    let mut arrivals: Vec<GroupArrival> = Vec::new();
    let start = Instant::now();
    for spec in &plan.districts {
        let mut venue = spec.venue.template();
        venue.base_groups_per_hour *= config.arrival_multiplier;
        let mut builder = ctx.population_builder(ctx.plan(spec.venue).population.clone());
        let root = SimRng::seed_from(derive_seed(
            config.seed,
            &format!("city/district/{:03}", spec.id),
        ));
        let process = GroupArrivalProcess::new(&venue, config.start_hour, duration);
        let mut next_group = 0u32;
        for epoch in 0..config.epochs {
            let fork = |label: &str| root.fork(&format!("{label}/e{epoch}"));
            let (mut rng_arrivals, mut rng_paths) = (fork("arrivals"), fork("paths"));
            let (mut rng_pop, mut rng_spawn) = (fork("pop"), fork("spawn"));
            arrivals.clear();
            process.generate_minute(
                epoch as usize,
                &mut next_group,
                &mut rng_arrivals,
                &mut arrivals,
            );
            for group in &arrivals {
                let visits = visits_for_group(&venue, group, &mut rng_paths);
                let phones = builder.phones_for_group(group.group_id, visits.len(), &mut rng_pop);
                for (visit, phone) in visits.iter().zip(&phones) {
                    acc.devices += 1;
                    if !phone.wifi_active {
                        continue;
                    }
                    if matches!(visit.path, MotionPath::Transit { .. })
                        && rng_spawn.chance(HANDOFF_PROB)
                    {
                        std::hint::black_box(rng_spawn.range_f64(TRAVEL_SECS.0, TRAVEL_SECS.1));
                    }
                    std::hint::black_box(ScanPlan::for_window(
                        &phone.scan,
                        visit.enter_at,
                        visit.exit_at,
                        &mut rng_spawn,
                    ));
                }
            }
        }
    }
    acc.ns = start.elapsed().as_nanos() as u64;
    acc
}

/// The traced run: serial and 2-worker `run_city` spans, the outcome's
/// counts, and the minting replay.
///
/// # Errors
///
/// Any gate mismatch, or a replay that mints a different population.
pub fn traced(ctx: &CampaignCtx, seed: u64, size: &Size) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let shards = CityConfig::full(seed).shards;
    let (serial, serial_s) = timed(ctx, &size.config(seed, shards, 1));
    let config = size.config(seed, shards, WORKERS);
    let (two, two_s) = timed(ctx, &config);
    same(
        "city render (2-worker vs serial)",
        &serial.render(),
        &two.render(),
    )?;
    check_handoffs(&two)?;
    let minting = replay_minting(ctx, &config);
    same(
        "city minting replay devices",
        &two.devices(),
        &minting.devices,
    )?;
    out.attempted = 2;
    count_lines(&mut out, &two);

    let sum = |f: fn(&ch_scenarios::DistrictStats) -> u64| -> f64 {
        two.reports.iter().map(|r| f(&r.stats)).sum::<u64>() as f64
    };
    let (h_out, h_in) = two.handoffs();
    let (offers, delivered, hits) = (
        sum(|s| s.offers),
        sum(|s| s.lures_delivered),
        two.hits() as f64,
    );
    out.metric("city.speedup_2w", "ratio", serial_s / two_s);
    out.metric("city.events", "count", two.events() as f64);
    out.metric("city.devices", "count", two.devices() as f64);
    out.metric("city.scans", "count", sum(|s| s.scans));
    out.metric("city.probes_heard", "count", sum(|s| s.probes_heard));
    out.metric("city.offers", "count", offers);
    out.metric("city.delivered", "count", delivered);
    out.metric("city.hits", "count", hits);
    out.metric("city.handoffs_out", "count", h_out as f64);
    out.metric("city.handoffs_in", "count", h_in as f64);
    out.metric(
        "city.delivered_per_offer",
        "ratio",
        delivered / offers.max(1.0),
    );
    out.metric(
        "city.hits_per_delivered",
        "ratio",
        hits / delivered.max(1.0),
    );
    let mint_s = minting.ns as f64 / 1e9;
    out.metric("city.mint_share", "ratio", mint_s / serial_s);
    let overhead = mint_s / two_s;
    out.metric("trace.overhead_city", "ratio", overhead);
    out.line(format!(
        "city: serial {serial_s:.3} s, 2-worker {two_s:.3} s (speedup {:.3}x, base = serial run_city); \
         minting replay {mint_s:.3} s = {:.1}% of the serial run",
        serial_s / two_s,
        100.0 * mint_s / serial_s
    ));
    out.line(format!(
        "city tracing overhead: spans wrap whole run_city calls only; the minting replay adds {:+.1}% \
         to the traced 2-worker run",
        overhead * 100.0
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Size {
        Size {
            districts: 4,
            epochs: 6,
            min_reps: 2,
        }
    }

    #[test]
    fn tiny_city_passes_the_gate_and_a_wrong_reference_fails() {
        let (_, ctx) = setup::standard();
        let size = tiny();
        let out = run(&ctx, 5, &size, 0.0).unwrap();
        assert!(out
            .metrics
            .iter()
            .any(|m| m.name == "run_s" && m.value > 0.0));
        assert_eq!(out.attempted, 2);
        // Another seed's city is a wrong reference for this one.
        let other = reference(&ctx, 6, &size).unwrap();
        let err = measure(&ctx, 5, &size, 0.0, &other).unwrap_err();
        assert!(err.contains("city render"), "{err}");
    }

    #[test]
    fn tiny_traced_city_replays_the_same_population() {
        let (_, ctx) = setup::standard();
        let out = traced(&ctx, 5, &tiny()).unwrap();
        for name in [
            "city.devices",
            "city.events",
            "city.mint_share",
            "city.speedup_2w",
        ] {
            assert!(
                out.metrics.iter().any(|m| m.name == name && m.value > 0.0),
                "{name}"
            );
        }
    }
}
