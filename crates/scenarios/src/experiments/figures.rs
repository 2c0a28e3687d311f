//! Fig. 1–4: the paper's series, histogram and static artifacts.
//!
//! Fig. 1 and Fig. 2 expand to rich fleet jobs (legacy world-seed masks
//! preserved); Fig. 3 and Fig. 4 are rendered from live constants and
//! offline data products respectively.

use ch_fleet::{FleetOptions, FleetStats};

use crate::ctx::CampaignCtx;
use crate::fleet::{run_jobs, CampaignJob};
use crate::runner::{AttackerKind, RunConfig};
use crate::world::CityData;

/// Outcome of the Fig. 1 reproduction (MANA's database-growth pathology).
#[derive(Debug, Clone)]
pub struct Fig1Outcome {
    /// `(minute, database size)` — Fig. 1(a), first curve.
    pub db_size: Vec<(u64, usize)>,
    /// `(minute, cumulative broadcast clients connected)` — Fig. 1(a),
    /// second curve.
    pub connected: Vec<(u64, usize)>,
    /// `(2-minute window, hits, clients)` — Fig. 1(b), real-time h_b^r.
    pub realtime_hb: Vec<(u64, usize, usize)>,
}

/// The Fig. 1 job list: a 30-minute MANA canteen run with rich series
/// capture (legacy `^ 0xF1` world-seed mask).
pub fn fig1_jobs(seed: u64) -> Vec<CampaignJob> {
    vec![CampaignJob::new(
        "fig1/mana",
        "MANA",
        RunConfig::canteen_30min(AttackerKind::Mana, seed ^ 0xF1),
    )
    .with_rich()]
}

/// Fig. 1 on the fleet engine: per-minute samples / 2-minute windows.
///
/// # Errors
///
/// Fails if the engine cannot run or the simulation failed.
pub fn fig1_fleet(
    ctx: &CampaignCtx,
    seed: u64,
    opts: &FleetOptions,
) -> Result<(Fig1Outcome, FleetStats), String> {
    let jobs = fig1_jobs(seed);
    let (records, stats) = run_jobs(ctx, &jobs, opts)?;
    let rich = records[0].rich(&jobs[0].key)?;
    Ok((
        Fig1Outcome {
            db_size: rich.db_series.clone(),
            connected: rich.connected.clone(),
            realtime_hb: rich.realtime_hb.clone(),
        },
        stats,
    ))
}

/// Outcome of the Fig. 2 reproduction.
#[derive(Debug, Clone)]
pub struct Fig2Outcome {
    /// Fig. 2(a): SSIDs sent to each *connected* broadcast client in the
    /// canteen (sorted ascending).
    pub canteen_offered_connected: Vec<usize>,
    /// Fig. 2(b): SSIDs sent to *all* broadcast clients in the passage.
    pub passage_offered_all: Vec<usize>,
}

impl Fig2Outcome {
    /// Mean of panel (a), the paper's "average of 130".
    pub fn canteen_mean(&self) -> f64 {
        if self.canteen_offered_connected.is_empty() {
            return 0.0;
        }
        self.canteen_offered_connected.iter().sum::<usize>() as f64
            / self.canteen_offered_connected.len() as f64
    }
}

/// The Fig. 2 job list: the per-client SSID-depth runs behind Tables
/// II/III (same legacy world-seed masks, rich capture).
pub fn fig2_jobs(seed: u64) -> Vec<CampaignJob> {
    vec![
        CampaignJob::new(
            "fig2/canteen",
            "canteen",
            RunConfig::canteen_30min(AttackerKind::Prelim, seed ^ 0xB2),
        )
        .with_rich(),
        CampaignJob::new(
            "fig2/passage",
            "passage",
            RunConfig::passage_30min(AttackerKind::Prelim, seed ^ 0xC1),
        )
        .with_rich(),
    ]
}

/// Fig. 2 on the fleet engine.
///
/// # Errors
///
/// Fails if the engine cannot run or either simulation failed.
pub fn fig2_fleet(
    ctx: &CampaignCtx,
    seed: u64,
    opts: &FleetOptions,
) -> Result<(Fig2Outcome, FleetStats), String> {
    let jobs = fig2_jobs(seed);
    let (records, stats) = run_jobs(ctx, &jobs, opts)?;
    Ok((
        Fig2Outcome {
            canteen_offered_connected: records[0].rich(&jobs[0].key)?.offered_connected.clone(),
            passage_offered_all: records[1]
                .rich(&jobs[1].key)?
                .offered_all
                .iter()
                .copied()
                .filter(|&c| c > 0)
                .collect(),
        },
        stats,
    ))
}

/// Outcome of the Fig. 4 reproduction: ASCII heat-map panels for two
/// districts (Kowloon, Lantao Island).
#[derive(Debug, Clone)]
pub struct Fig4Outcome {
    /// `(district name, rendered panel)`.
    pub panels: Vec<(String, String)>,
}

/// Fig. 4: the heat map for the two districts the paper shows.
pub fn fig4_with(data: &CityData) -> Fig4Outcome {
    let panels = data
        .city
        .districts()
        .iter()
        .filter(|d| d.name == "Kowloon" || d.name == "Lantao Island")
        .map(|d| (d.name.clone(), data.heat.render_ascii(d.area, 2)))
        .collect();
    Fig4Outcome { panels }
}

/// Fig. 3 stand-in: the paper's logic-flow diagram, rendered with this
/// implementation's live parameters. (Fig. 3 is an architecture diagram,
/// not a measurement; this keeps "every figure" regenerable.)
pub fn fig3() -> String {
    use ch_attack::buffers::{GHOST_LEN, GHOST_PICKS};
    use ch_attack::prelim::{WIGLE_NEARBY, WIGLE_TOP_BY_HEAT};
    use ch_wifi::timing;

    format!(
        r#"Fig. 3: the logic flow of City-Hunter (live parameters)

 [1. Database initialization]
     WiGLE top-{top} by heat value (rank weights {top}..1)
     + {near} SSIDs nearest the attack site (rank weights {near}..1)
         |
         v
 [2. On-line database updating]   <--- (after every scan exchange)
     direct probe  -> add SSID / bump weight
     broadcast hit -> bump weight, stamp freshness
         |
         v
 [3. SSID selection & buffer-size adjustment]
     Popularity Buffer (p) with a {ghost}-entry ghost list
     Freshness  Buffer (f) with a {ghost}-entry ghost list
     constraint: p + f = {budget}
     {picks} random ghosts per side replace each side's lowest picks
     ghost hit on the PB side -> p+1, f-1; on the FB side -> f+1, p-1
         |
         v
 [4. Send SSIDs to broadcast probes]
     up to {budget} probe responses per scan
     ({window} listen window at {airtime} per response)
     never repeat an SSID to the same client MAC; then back to step 2
"#,
        top = WIGLE_TOP_BY_HEAT,
        near = WIGLE_NEARBY,
        ghost = GHOST_LEN,
        picks = GHOST_PICKS,
        budget = timing::responses_per_scan(),
        window = timing::EXTENDED_WAIT,
        airtime = timing::PROBE_RESPONSE_AIRTIME,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::standard_city;

    #[test]
    fn fig4_renders_two_districts() {
        let data = standard_city();
        let outcome = fig4_with(&data);
        assert_eq!(outcome.panels.len(), 2);
        let names: Vec<&str> = outcome.panels.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"Kowloon"));
        assert!(names.contains(&"Lantao Island"));
        for (_, panel) in &outcome.panels {
            assert!(panel.lines().count() > 10, "panel too small");
        }
    }

    #[test]
    fn fig3_reflects_live_constants() {
        let rendered = fig3();
        assert!(rendered.contains("top-200"));
        assert!(rendered.contains("p + f = 40"));
        assert!(rendered.contains("10ms"));
        assert!(rendered.contains("250us"));
    }
}
