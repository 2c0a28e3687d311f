//! Fig. 5 / Fig. 6: the 4-venue × 12-hour campaign.

use ch_attack::CityHunterConfig;
use ch_fleet::{FleetOptions, FleetStats};
use ch_mobility::VenueKind;
use ch_sim::SimDuration;

use crate::ctx::CampaignCtx;
use crate::fleet::{attacker_seed, job_seed, run_jobs, slug, CampaignJob, JobRecord};
use crate::metrics::SummaryRow;
use crate::runner::{AttackerKind, RunConfig};

/// One hourly test in one venue.
#[derive(Debug, Clone)]
pub struct HourResult {
    /// Wall-clock start hour (8..=19).
    pub hour: usize,
    /// The Fig. 5 stacked-bar numbers.
    pub row: SummaryRow,
    /// Fig. 6 source breakdown `(wigle, direct, carrier)` of broadcast hits.
    pub sources: (usize, usize, usize),
    /// Fig. 6 buffer breakdown `(popularity side, freshness side)`.
    pub lanes: (usize, usize),
}

/// A venue's 12 hourly tests.
#[derive(Debug, Clone)]
pub struct VenueSeries {
    /// The venue.
    pub venue: VenueKind,
    /// Results for hours 8..=19.
    pub hours: Vec<HourResult>,
}

impl VenueSeries {
    /// Mean broadcast hit rate across the hours (the §V-A per-venue
    /// averages: passage 12 %, canteen 17.9 %, shopping 14 %, railway
    /// 16.6 %).
    pub fn average_hb(&self) -> f64 {
        if self.hours.is_empty() {
            return 0.0;
        }
        self.hours.iter().map(|h| h.row.h_b()).sum::<f64>() / self.hours.len() as f64
    }

    /// Mean overall hit rate across the hours.
    pub fn average_h(&self) -> f64 {
        if self.hours.is_empty() {
            return 0.0;
        }
        self.hours.iter().map(|h| h.row.h()).sum::<f64>() / self.hours.len() as f64
    }
}

/// Outcome of the Fig. 5 + Fig. 6 campaign.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// One series per venue, in Fig. 5 order.
    pub venues: Vec<VenueSeries>,
}

/// The Fig. 5/6 job list: the full City-Hunter in all four venues, one
/// job per venue-hour (database re-initialized per test as in §V-A).
/// Keys look like `fig5/canteen/h12`; world and attacker seeds are both
/// derived from `(seed, key)`, so the list order carries no entropy.
pub fn campaign_jobs(seed: u64, hours: &[usize], duration: SimDuration) -> Vec<CampaignJob> {
    let mut jobs = Vec::with_capacity(VenueKind::ALL.len() * hours.len());
    for venue in VenueKind::ALL {
        for &hour in hours {
            let key = format!("fig5/{}/h{hour:02}", slug(venue.name()));
            jobs.push(CampaignJob::new(
                key.clone(),
                format!("{} {hour}:00", venue.name()),
                RunConfig {
                    venue,
                    start_hour: hour,
                    duration,
                    attacker: AttackerKind::CityHunter(CityHunterConfig {
                        seed: attacker_seed(seed, &key),
                        ..CityHunterConfig::default()
                    }),
                    seed: job_seed(seed, &key),
                    lure_budget: None,
                    loss: None,
                    population: None,
                    arrival_multiplier: None,
                    fault: None,
                    detector: None,
                },
            ));
        }
    }
    jobs
}

/// Reassembles the per-venue series from job records in
/// [`campaign_jobs`]'s venue-major order.
fn campaign_outcome(hours: &[usize], records: &[JobRecord]) -> CampaignOutcome {
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

/// The Fig. 5/6 campaign on the fleet engine: parallel across venue-hours,
/// resumable when `opts` carries a manifest. `duration` is the per-test
/// length (the paper's is one hour; smoke runs shrink it).
///
/// # Errors
///
/// Fails if the engine cannot run (duplicate keys, manifest I/O) or any
/// job failed — a campaign figure with holes in it is not a figure.
pub fn campaign_fleet(
    ctx: &CampaignCtx,
    seed: u64,
    hours: &[usize],
    duration: SimDuration,
    opts: &FleetOptions,
) -> Result<(CampaignOutcome, FleetStats), String> {
    let jobs = campaign_jobs(seed, hours, duration);
    let (records, stats) = run_jobs(ctx, &jobs, opts)?;
    Ok((campaign_outcome(hours, &records), stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_shape_matches_campaign() {
        let outcome = CampaignOutcome {
            venues: vec![VenueSeries {
                venue: VenueKind::Canteen,
                hours: vec![HourResult {
                    hour: 12,
                    row: SummaryRow {
                        label: "x".into(),
                        total_clients: 100,
                        direct_clients: 10,
                        broadcast_clients: 90,
                        direct_connected: 4,
                        broadcast_connected: 9,
                    },
                    sources: (7, 2, 0),
                    lanes: (8, 1),
                }],
            }],
        };
        let csv = outcome.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].split(',').count(), 14);
        let row: Vec<&str> = lines[1].split(',').collect();
        assert_eq!(row[0], "canteen");
        assert_eq!(row[1], "12");
        assert_eq!(row[3], "9");
        assert_eq!(row[4], "81"); // 90 - 9
        assert_eq!(row[8], "0.1000"); // h_b
        assert_eq!(row[9], "7");
    }
}
