//! Table I–IV: the paper's summary-row artifacts.
//!
//! Tables I–III each expand to keyed fleet jobs whose world seeds keep
//! the legacy per-table XOR masks (`seed ^ 0xA1` …), so the rendered
//! output is byte-identical to the pre-registry drivers at every seed.
//! Table IV is an offline data product (no simulation jobs).

use ch_fleet::{FleetOptions, FleetStats};
use ch_wifi::Ssid;

use crate::ctx::CampaignCtx;
use crate::fleet::{run_jobs, CampaignJob};
use crate::metrics::SummaryRow;
use crate::runner::{AttackerKind, RunConfig};
use crate::world::CityData;

/// Outcome of the Table I reproduction.
#[derive(Debug, Clone)]
pub struct Table1Outcome {
    /// KARMA's 30-minute canteen row.
    pub karma: SummaryRow,
    /// MANA's 30-minute canteen row.
    pub mana: SummaryRow,
}

/// The Table I job list: KARMA vs MANA in the canteen over lunch (the
/// paper ran them simultaneously 40 m apart; independent runs model that
/// separation). World seeds keep the legacy `^ 0xA1` / `^ 0xA2` masks.
pub fn table1_jobs(seed: u64) -> Vec<CampaignJob> {
    vec![
        CampaignJob::new(
            "table1/karma",
            "KARMA",
            RunConfig::canteen_30min(AttackerKind::Karma, seed ^ 0xA1),
        ),
        CampaignJob::new(
            "table1/mana",
            "MANA",
            RunConfig::canteen_30min(AttackerKind::Mana, seed ^ 0xA2),
        ),
    ]
}

/// Table I on the fleet engine.
///
/// # Errors
///
/// Fails if the engine cannot run or either simulation failed.
pub fn table1_fleet(
    ctx: &CampaignCtx,
    seed: u64,
    opts: &FleetOptions,
) -> Result<(Table1Outcome, FleetStats), String> {
    let (records, stats) = run_jobs(ctx, &table1_jobs(seed), opts)?;
    Ok((
        Table1Outcome {
            karma: records[0].row.clone(),
            mana: records[1].row.clone(),
        },
        stats,
    ))
}

/// Outcome of the Table II reproduction.
#[derive(Debug, Clone)]
pub struct Table2Outcome {
    /// MANA's canteen row (re-run).
    pub mana: SummaryRow,
    /// Preliminary City-Hunter's canteen row.
    pub prelim: SummaryRow,
    /// Share of broadcast hits whose SSID came from WiGLE (§III-C reports
    /// ~74 %).
    pub wigle_share: f64,
    /// Mean SSIDs sent to each connected broadcast client (§III-C: ~130).
    pub mean_offered_connected: f64,
}

/// The Table II job list: MANA vs the preliminary City-Hunter in the
/// canteen. The prelim job captures the rich series the §III-C
/// observations derive from.
pub fn table2_jobs(seed: u64) -> Vec<CampaignJob> {
    vec![
        CampaignJob::new(
            "table2/mana",
            "MANA",
            RunConfig::canteen_30min(AttackerKind::Mana, seed ^ 0xB1),
        ),
        CampaignJob::new(
            "table2/prelim",
            "City-Hunter (prelim)",
            RunConfig::canteen_30min(AttackerKind::Prelim, seed ^ 0xB2),
        )
        .with_rich(),
    ]
}

/// Table II on the fleet engine.
///
/// # Errors
///
/// Fails if the engine cannot run or either simulation failed.
pub fn table2_fleet(
    ctx: &CampaignCtx,
    seed: u64,
    opts: &FleetOptions,
) -> Result<(Table2Outcome, FleetStats), String> {
    let jobs = table2_jobs(seed);
    let (records, stats) = run_jobs(ctx, &jobs, opts)?;
    let prelim = &records[1];
    let (wigle, direct, carrier) = prelim.sources;
    let total_hits = (wigle + direct + carrier).max(1);
    Ok((
        Table2Outcome {
            mana: records[0].row.clone(),
            prelim: prelim.row.clone(),
            wigle_share: wigle as f64 / total_hits as f64,
            mean_offered_connected: prelim.rich(&jobs[1].key)?.mean_offered_connected(),
        },
        stats,
    ))
}

/// Outcome of the Table III reproduction.
#[derive(Debug, Clone)]
pub struct Table3Outcome {
    /// Preliminary City-Hunter's subway-passage row.
    pub prelim: SummaryRow,
}

/// The Table III job list: the preliminary City-Hunter deployed in the
/// passage (legacy `^ 0xC1` world-seed mask).
pub fn table3_jobs(seed: u64) -> Vec<CampaignJob> {
    vec![CampaignJob::new(
        "table3/prelim",
        "Subway Passage",
        RunConfig::passage_30min(AttackerKind::Prelim, seed ^ 0xC1),
    )]
}

/// Table III on the fleet engine.
///
/// # Errors
///
/// Fails if the engine cannot run or the simulation failed.
pub fn table3_fleet(
    ctx: &CampaignCtx,
    seed: u64,
    opts: &FleetOptions,
) -> Result<(Table3Outcome, FleetStats), String> {
    let (records, stats) = run_jobs(ctx, &table3_jobs(seed), opts)?;
    Ok((
        Table3Outcome {
            prelim: records[0].row.clone(),
        },
        stats,
    ))
}

/// Outcome of the Table IV reproduction.
#[derive(Debug, Clone)]
pub struct Table4Outcome {
    /// Top-5 SSIDs by raw AP count.
    pub by_ap_count: Vec<(Ssid, usize)>,
    /// Top-5 SSIDs by heat value.
    pub by_heat: Vec<(Ssid, f64)>,
}

/// Table IV: ranking the city's open SSIDs by AP count vs heat value —
/// an offline data product, no simulation jobs.
pub fn table4_with(data: &CityData) -> Table4Outcome {
    Table4Outcome {
        by_ap_count: data.wigle.top_by_ap_count(5, true),
        by_heat: data.wigle.top_by_heat(&data.heat, 5),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::standard_city;

    #[test]
    fn table4_reproduces_heat_vs_count_contrast() {
        let data = standard_city();
        let outcome = table4_with(&data);
        assert_eq!(outcome.by_ap_count.len(), 5);
        assert_eq!(outcome.by_heat.len(), 5);
        // Paper Table IV: the count ranking is led by the big chains…
        assert_eq!(outcome.by_ap_count[0].0.as_str(), "-Free HKBN Wi-Fi-");
        // …and the airport SSID enters the top-5 only under heat ranking.
        let count_names: Vec<&str> = outcome
            .by_ap_count
            .iter()
            .map(|(s, _)| s.as_str())
            .collect();
        let heat_names: Vec<&str> = outcome.by_heat.iter().map(|(s, _)| s.as_str()).collect();
        assert!(!count_names.contains(&"#HKAirport Free WiFi"));
        assert!(
            heat_names.contains(&"#HKAirport Free WiFi"),
            "heat ranking must surface the airport SSID: {heat_names:?}"
        );
        let rendered = outcome.render();
        assert!(rendered.contains("Rank"));
        assert!(rendered.contains("#HKAirport Free WiFi"));
    }

    #[test]
    fn table_jobs_keep_the_legacy_seed_masks() {
        let jobs = table1_jobs(1);
        assert_eq!(jobs[0].key, "table1/karma");
        assert_eq!(jobs[0].config.seed, 1 ^ 0xA1);
        assert_eq!(jobs[1].config.seed, 1 ^ 0xA2);
        assert_eq!(table2_jobs(1)[1].config.seed, 1 ^ 0xB2);
        assert!(table2_jobs(1)[1].rich, "prelim job must capture series");
        assert_eq!(table3_jobs(1)[0].config.seed, 1 ^ 0xC1);
    }
}
