//! The design-choice ablation matrix promised in DESIGN.md.

use ch_attack::CityHunterConfig;
use ch_fleet::{FleetOptions, FleetStats};

use crate::ctx::CampaignCtx;
use crate::fleet::{attacker_seed, job_seed, run_jobs, slug, CampaignJob};
use crate::metrics::SummaryRow;
use crate::runner::{AttackerKind, RunConfig};

/// One ablation configuration's results in both reference venues.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant label.
    pub label: String,
    /// Canteen summary.
    pub canteen: SummaryRow,
    /// Passage summary.
    pub passage: SummaryRow,
}

/// Outcome of the ablation matrix.
#[derive(Debug, Clone)]
pub struct AblationOutcome {
    /// One row per variant.
    pub rows: Vec<AblationRow>,
}

/// The ablation variant list: each §IV/§V design choice disabled in
/// isolation, plus the §V-B extensions enabled.
fn ablation_variants() -> Vec<(&'static str, CityHunterConfig)> {
    vec![
        ("full", CityHunterConfig::default()),
        (
            "fixed split (no adaptation)",
            CityHunterConfig {
                adaptive_sizing: false,
                ..CityHunterConfig::default()
            },
        ),
        (
            "no freshness buffer",
            CityHunterConfig {
                use_freshness: false,
                adaptive_sizing: false,
                ..CityHunterConfig::default()
            },
        ),
        (
            "no WiGLE seed",
            CityHunterConfig {
                use_wigle: false,
                ..CityHunterConfig::default()
            },
        ),
        (
            "no untried tracking",
            CityHunterConfig {
                untried_tracking: false,
                ..CityHunterConfig::default()
            },
        ),
        (
            "+ deauth extension",
            CityHunterConfig {
                deauth: true,
                ..CityHunterConfig::default()
            },
        ),
        (
            "+ carrier preload",
            CityHunterConfig {
                carrier_preload: true,
                ..CityHunterConfig::default()
            },
        ),
    ]
}

/// The ablation job list: every variant × the two reference venues, keys
/// like `ablation/no-wigle-seed/canteen`.
pub fn ablation_jobs(seed: u64) -> Vec<CampaignJob> {
    let mut jobs = Vec::new();
    for (label, config) in ablation_variants() {
        for venue in ["canteen", "passage"] {
            let key = format!("ablation/{}/{venue}", slug(label));
            let attacker = AttackerKind::CityHunter(CityHunterConfig {
                seed: attacker_seed(seed, &key),
                ..config.clone()
            });
            let base = match venue {
                "canteen" => RunConfig::canteen_30min(attacker, job_seed(seed, &key)),
                _ => RunConfig::passage_30min(attacker, job_seed(seed, &key)),
            };
            jobs.push(CampaignJob::new(key, label, base));
        }
    }
    jobs
}

/// The ablation matrix on the fleet engine.
///
/// # Errors
///
/// Fails if the engine cannot run or any variant's simulation failed.
pub fn ablation_fleet(
    ctx: &CampaignCtx,
    seed: u64,
    opts: &FleetOptions,
) -> Result<(AblationOutcome, FleetStats), String> {
    let jobs = ablation_jobs(seed);
    let (records, stats) = run_jobs(ctx, &jobs, opts)?;
    let rows = ablation_variants()
        .iter()
        .zip(records.chunks(2))
        .map(|((label, _), pair)| AblationRow {
            label: (*label).to_owned(),
            canteen: pair[0].row.clone(),
            passage: pair[1].row.clone(),
        })
        .collect();
    Ok((AblationOutcome { rows }, stats))
}
