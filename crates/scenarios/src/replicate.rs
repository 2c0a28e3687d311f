//! Multi-seed replication.
//!
//! The paper reports one field run per condition; the simulator can
//! quantify run-to-run variation instead. [`standard_study_fleet`] runs
//! every deployment condition across `n` seeds as one resumable
//! `ch-fleet` campaign, and [`Replication::from_rows`] summarizes `h`,
//! `h_b` and the client volume of each condition with mean ± CI via
//! [`ch_sim::Summary`].

use ch_sim::stats::Summary;

use crate::metrics::SummaryRow;
use crate::runner::{AttackerKind, RunConfig};

/// The replicated result of one deployment condition.
#[derive(Debug, Clone)]
pub struct Replication {
    /// Condition label.
    pub label: String,
    /// Per-seed summary rows, in seed order.
    pub rows: Vec<SummaryRow>,
    /// Summary of the overall hit rate `h`.
    pub h: Summary,
    /// Summary of the broadcast hit rate `h_b`.
    pub h_b: Summary,
    /// Summary of the observed-client volume.
    pub clients: Summary,
}

impl Replication {
    /// Summarizes one condition's per-seed rows (in seed order).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty.
    pub fn from_rows(label: impl Into<String>, rows: Vec<SummaryRow>) -> Replication {
        let h: Vec<f64> = rows.iter().map(SummaryRow::h).collect();
        let h_b: Vec<f64> = rows.iter().map(SummaryRow::h_b).collect();
        let clients: Vec<f64> = rows.iter().map(|r| r.total_clients as f64).collect();
        Replication {
            label: label.into(),
            h: summarize(&h),
            h_b: summarize(&h_b),
            clients: summarize(&clients),
            rows,
        }
    }
}

/// [`Summary::of`] under the function-level invariant that the series is
/// non-empty: every job list rejects zero replicas on entry and the fleet
/// yields exactly one record per job, so an empty series here means that
/// chain broke — report it as the invariant violation it is rather than a
/// bare unwrap.
pub(crate) fn summarize(values: &[f64]) -> Summary {
    match Summary::of(values) {
        Some(summary) => summary,
        None => ch_sim::invariant::violation(file!(), line!(), "empty replication series"),
    }
}

/// Convenience: seeds `base_seed, base_seed+1, …` for `n` replicas.
pub fn seed_range(base_seed: u64, n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| base_seed + i).collect()
}

/// The attacker generations a comparison study pits against each other.
fn contenders() -> Vec<(&'static str, AttackerKind)> {
    vec![
        ("KARMA", AttackerKind::Karma),
        ("MANA", AttackerKind::Mana),
        ("City-Hunter (prelim)", AttackerKind::Prelim),
        (
            "City-Hunter (full)",
            AttackerKind::CityHunter(Default::default()),
        ),
    ]
}

/// The standard study's venue conditions (attacker field is a
/// placeholder; every contender overwrites it).
fn study_conditions() -> Vec<(&'static str, RunConfig)> {
    vec![
        (
            "canteen 12:00",
            RunConfig::canteen_30min(AttackerKind::Karma, 0),
        ),
        (
            "passage 08:00",
            RunConfig::passage_30min(AttackerKind::Karma, 0),
        ),
    ]
}

/// The standard study's job list: every venue condition × attacker
/// generation × replica seed, keys like `replication/canteen-1200/mana/s3`.
/// Replica `i` runs on world seed `base_seed + i`.
///
/// # Panics
///
/// Panics if `replicas` is zero.
pub fn standard_study_jobs(base_seed: u64, replicas: usize) -> Vec<crate::fleet::CampaignJob> {
    use crate::fleet::{slug, CampaignJob};

    assert!(replicas > 0, "replication needs at least one seed");
    let seeds = seed_range(base_seed, replicas);
    let mut jobs = Vec::new();
    for (venue_label, config) in study_conditions() {
        for (label, attacker) in contenders() {
            for (i, &seed) in seeds.iter().enumerate() {
                jobs.push(CampaignJob::new(
                    format!(
                        "replication/{}/{}/s{}",
                        slug(venue_label),
                        slug(label),
                        i + 1
                    ),
                    format!("{label} @ {venue_label}"),
                    RunConfig {
                        attacker: attacker.clone(),
                        seed,
                        ..config.clone()
                    },
                ));
            }
        }
    }
    jobs
}

/// The canonical canteen and passage conditions at the given replication
/// factor: one resumable campaign over every condition × contender ×
/// seed, summarized per condition.
///
/// # Errors
///
/// Fails if the engine cannot run or any replica's simulation failed.
pub fn standard_study_fleet(
    ctx: &crate::ctx::CampaignCtx,
    base_seed: u64,
    replicas: usize,
    opts: &ch_fleet::FleetOptions,
) -> Result<(Vec<Replication>, ch_fleet::FleetStats), String> {
    let jobs = standard_study_jobs(base_seed, replicas);
    let (records, stats) = crate::fleet::run_jobs(ctx, &jobs, opts)?;
    let replications = jobs
        .chunks(replicas)
        .zip(records.chunks(replicas))
        .map(|(job_chunk, record_chunk)| {
            Replication::from_rows(
                job_chunk[0].label.clone(),
                record_chunk.iter().map(|r| r.row.clone()).collect(),
            )
        })
        .collect();
    Ok((replications, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A per-seed row with `broadcast` of `total` clients broadcast-only.
    fn row(
        total: usize,
        broadcast: usize,
        direct_hits: usize,
        broadcast_hits: usize,
    ) -> SummaryRow {
        SummaryRow {
            label: "p".into(),
            total_clients: total,
            direct_clients: total - broadcast,
            broadcast_clients: broadcast,
            direct_connected: direct_hits,
            broadcast_connected: broadcast_hits,
        }
    }

    #[test]
    fn summaries_match_rows() {
        let rows = vec![row(100, 80, 12, 8), row(120, 90, 15, 9), row(90, 60, 6, 12)];
        let rep = Replication::from_rows("p", rows.clone());
        assert_eq!(rep.label, "p");
        assert_eq!(rep.rows, rows, "rows keep seed order");
        // h_b per seed: 0.1, 0.1, 0.2; h: 0.2, 0.2, 0.2; clients 100, 120, 90.
        assert!((rep.h_b.mean() - 0.4 / 3.0).abs() < 1e-12);
        assert!((rep.h.mean() - 0.2).abs() < 1e-12);
        assert!((rep.clients.mean() - 310.0 / 3.0).abs() < 1e-12);
        assert_eq!(rep.h.n(), 3);
        assert!(rep.render_line().ends_with("(n=3)"));
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seeds_rejected() {
        let _ = standard_study_jobs(1, 0);
    }

    #[test]
    fn seed_range_shape() {
        assert_eq!(seed_range(5, 3), vec![5, 6, 7]);
        assert!(seed_range(0, 0).is_empty());
    }
}
