//! Campaign-job plumbing between the experiment drivers and `ch-fleet`.
//!
//! The figure drivers in [`crate::experiments`] describe their work as a
//! flat list of [`CampaignJob`]s — one independent simulation each, with
//! a stable key and a seed derived from `(campaign seed, key)` — and hand
//! it to [`run_jobs`], which executes them on the fleet engine: in
//! parallel, panic-isolated, resumable from a JSONL manifest, and with
//! results returned in input order regardless of completion order.

use ch_fleet::{
    derive_seed, run_campaign_scoped, FleetOptions, FleetStats, JobSpec, JobStatus, Json,
    ManifestCodec,
};
use ch_sim::SimDuration;

use crate::ctx::CampaignCtx;
use crate::metrics::{ExperimentMetrics, SummaryRow};
use crate::runner::{run_experiment_ctx, RunConfig, RunScratch};

/// One simulation in a campaign: a stable, human-readable key plus the
/// full run configuration (whose seeds were derived from the key — see
/// [`job_seed`]).
#[derive(Debug, Clone)]
pub struct CampaignJob {
    /// Manifest key, e.g. `fig5/canteen/h12`.
    pub key: String,
    /// Label stamped on the resulting summary row.
    pub label: String,
    /// The fully resolved run configuration.
    pub config: RunConfig,
    /// `true` if the job must also capture the [`RichRecord`] series
    /// (database growth, offered-SSID depths) that the figure-class
    /// artifacts render. Summary-only campaigns leave this off and keep
    /// their manifests small.
    pub rich: bool,
}

impl CampaignJob {
    /// A summary-only campaign job (the common case).
    pub fn new(key: impl Into<String>, label: impl Into<String>, config: RunConfig) -> CampaignJob {
        CampaignJob {
            key: key.into(),
            label: label.into(),
            config,
            rich: false,
        }
    }

    /// Turns on [`RichRecord`] capture for this job.
    #[must_use]
    pub fn with_rich(mut self) -> CampaignJob {
        self.rich = true;
        self
    }
}

impl JobSpec for CampaignJob {
    fn key(&self) -> String {
        self.key.clone()
    }
}

/// The per-run seed for the job at `key`: derived from the campaign seed
/// and the key alone, so it depends on neither list position nor
/// execution order.
pub fn job_seed(campaign_seed: u64, key: &str) -> u64 {
    derive_seed(campaign_seed, key)
}

/// The attacker-instance seed for the job at `key` (kept distinct from
/// [`job_seed`] so the attacker's RNG stream never aliases the world's).
pub fn attacker_seed(campaign_seed: u64, key: &str) -> u64 {
    derive_seed(campaign_seed, &format!("{key}#attacker"))
}

/// Lowercases a label into a key segment: spaces become `-`, anything
/// non-alphanumeric is dropped.
pub fn slug(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for ch in label.chars() {
        if ch.is_ascii_alphanumeric() {
            out.extend(ch.to_lowercase());
        } else if (ch == ' ' || ch == '-' || ch == '_') && !out.ends_with('-') && !out.is_empty() {
            out.push('-');
        }
    }
    out.trim_end_matches('-').to_string()
}

/// The per-run series behind the figure-class artifacts: everything a
/// renderer needs beyond the summary counts. Captured only for jobs with
/// [`CampaignJob::rich`] set, and stored in the manifest as an optional
/// `rich` object — summary-only manifests (and those written before this
/// field existed) parse unchanged.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RichRecord {
    /// `(minute, attacker database size)` — Fig. 1(a), first curve.
    pub db_series: Vec<(u64, usize)>,
    /// `(minute, cumulative broadcast clients connected)` — Fig. 1(a).
    pub connected: Vec<(u64, usize)>,
    /// `(2-minute window, hits, clients)` — Fig. 1(b), real-time h_b^r.
    pub realtime_hb: Vec<(u64, usize, usize)>,
    /// SSIDs offered to each *connected* broadcast client, ascending.
    pub offered_connected: Vec<usize>,
    /// SSIDs offered to *all* broadcast clients, ascending (zeros kept).
    pub offered_all: Vec<usize>,
}

impl RichRecord {
    /// Captures the series from one finished run of length `duration`.
    pub fn capture(metrics: &ExperimentMetrics, duration: SimDuration) -> RichRecord {
        RichRecord {
            db_series: metrics
                .db_series()
                .iter()
                .map(|(t, s)| (t.as_secs() / 60, *s))
                .collect(),
            connected: metrics
                .cumulative_broadcast_hits(duration, SimDuration::from_mins(1))
                .into_iter()
                .map(|(t, c)| (t.as_secs() / 60, c))
                .collect(),
            realtime_hb: metrics.realtime_hb(duration, SimDuration::from_mins(2)),
            offered_connected: metrics.offered_counts(true),
            offered_all: metrics.offered_counts(false),
        }
    }

    /// Mean of [`offered_connected`](RichRecord::offered_connected) — the
    /// paper's "average of 130 SSIDs per connected client" observation.
    pub fn mean_offered_connected(&self) -> f64 {
        if self.offered_connected.is_empty() {
            return 0.0;
        }
        self.offered_connected.iter().sum::<usize>() as f64 / self.offered_connected.len() as f64
    }

    fn to_json(&self) -> Json {
        let pairs = |series: &[(u64, usize)]| {
            Json::Arr(
                series
                    .iter()
                    .map(|&(a, b)| Json::Arr(vec![Json::from_u64(a), Json::from_usize(b)]))
                    .collect(),
            )
        };
        let counts =
            |series: &[usize]| Json::Arr(series.iter().map(|&c| Json::from_usize(c)).collect());
        Json::Obj(vec![
            ("db".into(), pairs(&self.db_series)),
            ("conn".into(), pairs(&self.connected)),
            (
                "hbr".into(),
                Json::Arr(
                    self.realtime_hb
                        .iter()
                        .map(|&(w, hit, seen)| {
                            Json::Arr(vec![
                                Json::from_u64(w),
                                Json::from_usize(hit),
                                Json::from_usize(seen),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("off_conn".into(), counts(&self.offered_connected)),
            ("off_all".into(), counts(&self.offered_all)),
        ])
    }

    fn from_json(json: &Json) -> Option<RichRecord> {
        let pairs = |key: &str| -> Option<Vec<(u64, usize)>> {
            json.get(key)?
                .as_arr()?
                .iter()
                .map(|item| {
                    let pair = item.as_arr()?;
                    Some((pair.first()?.as_u64()?, pair.get(1)?.as_usize()?))
                })
                .collect()
        };
        let counts = |key: &str| -> Option<Vec<usize>> {
            json.get(key)?
                .as_arr()?
                .iter()
                .map(Json::as_usize)
                .collect()
        };
        let realtime_hb = json
            .get("hbr")?
            .as_arr()?
            .iter()
            .map(|item| {
                let triple = item.as_arr()?;
                Some((
                    triple.first()?.as_u64()?,
                    triple.get(1)?.as_usize()?,
                    triple.get(2)?.as_usize()?,
                ))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(RichRecord {
            db_series: pairs("db")?,
            connected: pairs("conn")?,
            realtime_hb,
            offered_connected: counts("off_conn")?,
            offered_all: counts("off_all")?,
        })
    }
}

/// What the manifest records per job: the paper's summary row plus the
/// Fig. 6 breakdowns. Every field is an integer count, so the JSONL
/// round-trip is exact by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The Fig. 5 stacked-bar numbers.
    pub row: SummaryRow,
    /// Broadcast-hit SSID sources `(wigle, direct, carrier)`.
    pub sources: (usize, usize, usize),
    /// Broadcast-hit buffer lanes `(popularity, freshness)`.
    pub lanes: (usize, usize),
    /// The figure-class series, present only for rich jobs.
    pub extra: Option<RichRecord>,
}

impl JobRecord {
    /// Captures the record from one finished run.
    pub fn capture(metrics: &ExperimentMetrics, label: impl Into<String>) -> JobRecord {
        JobRecord {
            row: metrics.summary(label),
            sources: metrics.source_breakdown(),
            lanes: metrics.lane_breakdown(),
            extra: None,
        }
    }

    /// [`capture`](JobRecord::capture) plus the [`RichRecord`] series.
    pub fn capture_rich(
        metrics: &ExperimentMetrics,
        label: impl Into<String>,
        duration: SimDuration,
    ) -> JobRecord {
        JobRecord {
            extra: Some(RichRecord::capture(metrics, duration)),
            ..JobRecord::capture(metrics, label)
        }
    }

    /// The rich series, or an error naming the key that lacks them — the
    /// escape hatch for a manifest written by a summary-only run being
    /// resumed by a figure-class artifact.
    pub fn rich(&self, key: &str) -> Result<&RichRecord, String> {
        self.extra.as_ref().ok_or_else(|| {
            format!(
                "manifest record `{key}` has no rich series (written by a \
                 summary-only run?); re-run with --fresh"
            )
        })
    }
}

/// The [`SummaryRow`] as the leading fields of a manifest record: the
/// label, then the five client counts. Every campaign record starts so.
pub(crate) fn row_fields(row: &SummaryRow) -> Vec<(String, Json)> {
    vec![
        ("label".into(), Json::str(row.label.clone())),
        ("total".into(), Json::from_usize(row.total_clients)),
        ("direct".into(), Json::from_usize(row.direct_clients)),
        ("broadcast".into(), Json::from_usize(row.broadcast_clients)),
        ("direct_conn".into(), Json::from_usize(row.direct_connected)),
        (
            "broadcast_conn".into(),
            Json::from_usize(row.broadcast_connected),
        ),
    ]
}

/// Reads the [`row_fields`] of a manifest record back.
pub(crate) fn row_from_json(json: &Json) -> Option<SummaryRow> {
    let count = |key: &str| json.get(key).and_then(Json::as_usize);
    Some(SummaryRow {
        label: json.get("label")?.as_str()?.to_string(),
        total_clients: count("total")?,
        direct_clients: count("direct")?,
        broadcast_clients: count("broadcast")?,
        direct_connected: count("direct_conn")?,
        broadcast_connected: count("broadcast_conn")?,
    })
}

impl ManifestCodec for JobRecord {
    fn to_json(&self) -> Json {
        let mut fields = row_fields(&self.row);
        fields.extend([
            ("src_wigle".into(), Json::from_usize(self.sources.0)),
            ("src_direct".into(), Json::from_usize(self.sources.1)),
            ("src_carrier".into(), Json::from_usize(self.sources.2)),
            ("lane_pop".into(), Json::from_usize(self.lanes.0)),
            ("lane_fresh".into(), Json::from_usize(self.lanes.1)),
        ]);
        if let Some(rich) = &self.extra {
            fields.push(("rich".into(), rich.to_json()));
        }
        Json::Obj(fields)
    }

    fn from_json(json: &Json) -> Option<Self> {
        let field = |key: &str| json.get(key).and_then(Json::as_usize);
        // A present-but-malformed `rich` object invalidates the record
        // (the job re-runs); an absent one is a summary-only record.
        let extra = match json.get("rich") {
            Some(rich) => Some(RichRecord::from_json(rich)?),
            None => None,
        };
        Some(JobRecord {
            row: row_from_json(json)?,
            sources: (
                field("src_wigle")?,
                field("src_direct")?,
                field("src_carrier")?,
            ),
            lanes: (field("lane_pop")?, field("lane_fresh")?),
            extra,
        })
    }
}

/// Runs `jobs` on the fleet engine and returns one [`JobRecord`] per job,
/// in input order.
///
/// Every job deploys from the build-once [`CampaignCtx`] (shared venue
/// plans, shared population pool) and executes on a worker-local
/// [`RunScratch`], so a campaign's cost is `build once + N × simulate`
/// rather than `N × (derive + allocate + simulate)`.
///
/// A job that panics is reported by the engine as a structured failure;
/// this wrapper turns any failure into an `Err` naming every failed key,
/// because a campaign figure with holes in it is not a figure.
pub fn run_jobs(
    ctx: &CampaignCtx,
    jobs: &[CampaignJob],
    opts: &FleetOptions,
) -> Result<(Vec<JobRecord>, FleetStats), String> {
    let report = run_campaign_scoped(
        jobs,
        opts,
        RunScratch::new,
        |job: &CampaignJob, scratch: &mut RunScratch| {
            let metrics = run_experiment_ctx(ctx, &job.config, scratch);
            if job.rich {
                JobRecord::capture_rich(&metrics, job.label.clone(), job.config.duration)
            } else {
                JobRecord::capture(&metrics, job.label.clone())
            }
        },
    )?;
    let mut records = Vec::with_capacity(report.outcomes.len());
    let mut failures = Vec::new();
    for (job, outcome) in jobs.iter().zip(&report.outcomes) {
        match &outcome.status {
            JobStatus::Done(record) | JobStatus::Cached(record) => {
                if job.rich && record.extra.is_none() {
                    failures.push(format!(
                        "{}: cached record has no rich series; re-run with --fresh",
                        outcome.key
                    ));
                } else {
                    records.push(record.clone());
                }
            }
            JobStatus::Failed(message) => failures.push(format!("{}: {message}", outcome.key)),
        }
    }
    if failures.is_empty() {
        Ok((records, report.stats))
    } else {
        Err(format!(
            "{} campaign job(s) failed:\n  {}",
            failures.len(),
            failures.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slug_flattens_labels() {
        assert_eq!(slug("Subway Passage"), "subway-passage");
        assert_eq!(
            slug("fixed split (no adaptation)"),
            "fixed-split-no-adaptation"
        );
        assert_eq!(slug("+ deauth extension"), "deauth-extension");
        assert_eq!(slug("full"), "full");
    }

    #[test]
    fn job_and_attacker_seeds_differ_and_are_stable() {
        let a = job_seed(7, "fig5/canteen/h12");
        assert_eq!(a, job_seed(7, "fig5/canteen/h12"));
        assert_ne!(a, job_seed(8, "fig5/canteen/h12"));
        assert_ne!(a, job_seed(7, "fig5/canteen/h13"));
        assert_ne!(a, attacker_seed(7, "fig5/canteen/h12"));
    }

    #[test]
    fn job_record_round_trips_through_the_manifest_codec() {
        let record = JobRecord {
            row: SummaryRow {
                label: "canteen 12:00".into(),
                total_clients: 321,
                direct_clients: 21,
                broadcast_clients: 300,
                direct_connected: 9,
                broadcast_connected: 55,
            },
            sources: (40, 14, 1),
            lanes: (48, 7),
            extra: None,
        };
        let json = record.to_json();
        assert!(
            !json.render().contains("rich"),
            "summary-only records must keep the pre-rich manifest format"
        );
        let reparsed = Json::parse(&json.render()).unwrap();
        assert_eq!(JobRecord::from_json(&reparsed), Some(record));
        assert_eq!(JobRecord::from_json(&Json::Null), None);
    }

    #[test]
    fn rich_record_round_trips_through_the_manifest_codec() {
        let record = JobRecord {
            row: SummaryRow {
                label: "fig1".into(),
                total_clients: 10,
                direct_clients: 2,
                broadcast_clients: 8,
                direct_connected: 1,
                broadcast_connected: 3,
            },
            sources: (3, 0, 0),
            lanes: (2, 1),
            extra: Some(RichRecord {
                db_series: vec![(0, 5), (1, 9)],
                connected: vec![(0, 0), (1, 2)],
                realtime_hb: vec![(0, 1, 4), (1, 2, 6)],
                offered_connected: vec![40, 80],
                offered_all: vec![0, 40, 40, 80],
            }),
        };
        let reparsed = Json::parse(&record.to_json().render()).unwrap();
        assert_eq!(JobRecord::from_json(&reparsed), Some(record.clone()));

        // A corrupt rich object invalidates the whole record (re-run).
        let tampered = record.to_json().render().replace("\"db\"", "\"xx\"");
        let bad = Json::parse(&tampered).unwrap();
        assert_eq!(JobRecord::from_json(&bad), None);
    }
}
