//! The warm-start (database carry-over) study — beyond the paper.

use ch_attack::CityHunterConfig;
use ch_fleet::{FleetOptions, FleetStats};

use crate::ctx::CampaignCtx;
use crate::fleet::{attacker_seed, job_seed, run_jobs, CampaignJob};
use crate::runner::{AttackerKind, RunConfig};

/// Warm-start study (beyond the paper): §V-A re-initializes the database
/// before every test; what does *not* doing that buy? One attacker
/// instance hunts the canteen for several consecutive half-hours, its
/// database, weights and buffer split carrying over, against a cold-
/// started control each slot.
#[derive(Debug, Clone)]
pub struct WarmStartOutcome {
    /// Per-slot `(label, cold h_b, warm h_b, warm database size)`.
    pub slots: Vec<(String, f64, f64, usize)>,
}

/// The warm-start cold-control job list: one independent cold-started
/// canteen run per slot, keys like `warm-start/cold/s1`.
pub fn warm_start_jobs(seed: u64, slots: usize) -> Vec<CampaignJob> {
    (0..slots)
        .map(|slot| {
            let key = format!("warm-start/cold/s{}", slot + 1);
            let config = RunConfig {
                start_hour: 11 + slot / 2, // consecutive lunchtime half-hours
                seed: job_seed(seed, &key),
                ..RunConfig::canteen_30min(
                    AttackerKind::CityHunter(CityHunterConfig {
                        seed: attacker_seed(seed, &key),
                        ..CityHunterConfig::default()
                    }),
                    0,
                )
            };
            CampaignJob::new(key, format!("cold #{}", slot + 1), config)
        })
        .collect()
}

/// The warm-start study on the fleet engine: the per-slot cold controls
/// are independent and run as fleet jobs; the warm attacker's chain is
/// inherently sequential (its database carries across slots) and runs
/// serially against the same per-slot configurations.
///
/// # Errors
///
/// Fails if the engine cannot run or any cold control failed.
pub fn warm_start_fleet(
    ctx: &CampaignCtx,
    seed: u64,
    slots: usize,
    opts: &FleetOptions,
) -> Result<(WarmStartOutcome, FleetStats), String> {
    use crate::runner::run_experiment_with_attacker;
    use ch_attack::{Attacker, CityHunter};

    let jobs = warm_start_jobs(seed, slots);
    let (cold, stats) = run_jobs(ctx, &jobs, opts)?;

    let data = ctx.data();
    let bssid = ch_attack::AttackerSpec::default_bssid();
    let mut warm = CityHunter::from_plan(
        bssid,
        &ctx.plan(ch_mobility::VenueKind::Canteen).attack,
        CityHunterConfig {
            seed: attacker_seed(seed, "warm-start/warm"),
            ..CityHunterConfig::default()
        },
    );
    let results = jobs
        .iter()
        .zip(&cold)
        .enumerate()
        .map(|(slot, (job, cold_record))| {
            let warm_metrics = run_experiment_with_attacker(data, &job.config, &mut warm);
            (
                format!("#{}", slot + 1),
                cold_record.row.h_b(),
                warm_metrics.summary("warm").h_b(),
                warm.database_len(),
            )
        })
        .collect();
    Ok((WarmStartOutcome { slots: results }, stats))
}
