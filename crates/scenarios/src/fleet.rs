//! Campaign-job plumbing between the experiment drivers and `ch-fleet`.
//!
//! Every `RunConfig` study in [`crate::experiments`] describes its work as
//! a flat list of [`CampaignJob`]s — one independent simulation each, with
//! a stable key and a seed derived from `(campaign seed, key)` — and hands
//! it to [`run_jobs`], which executes them on the fleet engine: in
//! parallel, panic-isolated, resumable from a JSONL manifest, and with
//! results returned in input order regardless of completion order. One
//! job type goes in and one [`JobRecord`] per job comes out, carrying the
//! fault and detector counters when the run armed those planes.

use ch_detect::DetectionReport;
use ch_fleet::{
    derive_seed, run_campaign_scoped, CampaignReport, FleetOptions, FleetStats, JobSpec, JobStatus,
    Json, ManifestCodec,
};
use ch_sim::SimDuration;

use crate::ctx::CampaignCtx;
use crate::metrics::{ExperimentMetrics, RunnerStats, SummaryRow};
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

/// What the manifest records per job: the paper's summary row, the Fig. 6
/// breakdowns, and the counters of whichever planes the run armed. Every
/// field is an integer count, so the JSONL round-trip is exact by
/// construction.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The Fig. 5 stacked-bar numbers.
    pub row: SummaryRow,
    /// Broadcast-hit SSID sources `(wigle, direct, carrier)`.
    pub sources: (usize, usize, usize),
    /// Broadcast-hit buffer lanes `(popularity, freshness)`.
    pub lanes: (usize, usize),
    /// The fault plane's degradation counters (all zero without faults).
    pub faults: RunnerStats,
    /// The detector's score against ground truth, present only when the
    /// run armed a detector.
    pub detection: Option<DetectionReport>,
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
            faults: metrics.stats.clone(),
            detection: metrics.detection,
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

/// Every top-level member a [`JobRecord`] is written with. Decoding
/// rejects any other, so a corrupted plane key re-runs the job instead of
/// reading as "plane not armed".
const RECORD_KEYS: [&str; 14] = [
    "label",
    "total",
    "direct",
    "broadcast",
    "direct_conn",
    "broadcast_conn",
    "src_wigle",
    "src_direct",
    "src_carrier",
    "lane_pop",
    "lane_fresh",
    "faults",
    "detection",
    "rich",
];

fn faults_to_json(stats: &RunnerStats) -> Json {
    Json::Obj(vec![
        ("burst_dropped".into(), stats.frames_burst_dropped.to_json()),
        ("corrupted".into(), stats.frames_corrupted.to_json()),
        ("rejected".into(), stats.frames_rejected.to_json()),
        ("churned".into(), stats.agents_churned.to_json()),
        ("crashes".into(), stats.attacker_crashes.to_json()),
    ])
}

fn faults_from_json(json: &Json) -> Option<RunnerStats> {
    let wide = |key: &str| json.get(key).and_then(u64::from_json);
    Some(RunnerStats {
        frames_burst_dropped: wide("burst_dropped")?,
        frames_corrupted: wide("corrupted")?,
        frames_rejected: wide("rejected")?,
        agents_churned: wide("churned")?,
        attacker_crashes: wide("crashes")?,
    })
}

fn detection_to_json(report: &DetectionReport) -> Json {
    Json::Obj(vec![
        ("frames".into(), report.frames_observed.to_json()),
        ("rogue_macs".into(), report.rogue_macs.to_json()),
        ("legit_aps".into(), report.legit_aps.to_json()),
        ("verdicts".into(), report.verdicts.to_json()),
        ("rogue_verdicts".into(), report.rogue_verdicts.to_json()),
        ("flagged".into(), report.flagged.to_json()),
        ("flagged_rogue".into(), report.flagged_rogue.to_json()),
        ("flagged_legit".into(), report.flagged_legit.to_json()),
        (
            "ttd_us".into(),
            match report.time_to_detect_us {
                Some(us) => us.to_json(),
                None => Json::Null,
            },
        ),
    ])
}

fn detection_from_json(json: &Json) -> Option<DetectionReport> {
    let wide = |key: &str| json.get(key).and_then(u64::from_json);
    let time_to_detect_us = match json.get("ttd_us")? {
        Json::Null => None,
        value => Some(u64::from_json(value)?),
    };
    Some(DetectionReport {
        frames_observed: wide("frames")?,
        rogue_macs: wide("rogue_macs")?,
        legit_aps: wide("legit_aps")?,
        verdicts: wide("verdicts")?,
        rogue_verdicts: wide("rogue_verdicts")?,
        flagged: wide("flagged")?,
        flagged_rogue: wide("flagged_rogue")?,
        flagged_legit: wide("flagged_legit")?,
        time_to_detect_us,
    })
}

/// Decodes an optional member: absent reads as `None`, present but
/// malformed fails the whole record (the job re-runs).
fn optional<T>(json: &Json, key: &str, decode: fn(&Json) -> Option<T>) -> Option<Option<T>> {
    match json.get(key) {
        Some(member) => decode(member).map(Some),
        None => Some(None),
    }
}

impl ManifestCodec for JobRecord {
    fn to_json(&self) -> Json {
        let row = &self.row;
        let mut fields = vec![
            ("label".into(), Json::str(row.label.clone())),
            ("total".into(), Json::from_usize(row.total_clients)),
            ("direct".into(), Json::from_usize(row.direct_clients)),
            ("broadcast".into(), Json::from_usize(row.broadcast_clients)),
            ("direct_conn".into(), Json::from_usize(row.direct_connected)),
            (
                "broadcast_conn".into(),
                Json::from_usize(row.broadcast_connected),
            ),
            ("src_wigle".into(), Json::from_usize(self.sources.0)),
            ("src_direct".into(), Json::from_usize(self.sources.1)),
            ("src_carrier".into(), Json::from_usize(self.sources.2)),
            ("lane_pop".into(), Json::from_usize(self.lanes.0)),
            ("lane_fresh".into(), Json::from_usize(self.lanes.1)),
        ];
        if self.faults != RunnerStats::default() {
            fields.push(("faults".into(), faults_to_json(&self.faults)));
        }
        if let Some(report) = &self.detection {
            fields.push(("detection".into(), detection_to_json(report)));
        }
        if let Some(rich) = &self.extra {
            fields.push(("rich".into(), rich.to_json()));
        }
        Json::Obj(fields)
    }

    fn from_json(json: &Json) -> Option<Self> {
        let Json::Obj(members) = json else {
            return None;
        };
        if members
            .iter()
            .any(|(key, _)| !RECORD_KEYS.contains(&key.as_str()))
        {
            return None;
        }
        let field = |key: &str| json.get(key).and_then(Json::as_usize);
        Some(JobRecord {
            row: SummaryRow {
                label: json.get("label")?.as_str()?.to_string(),
                total_clients: field("total")?,
                direct_clients: field("direct")?,
                broadcast_clients: field("broadcast")?,
                direct_connected: field("direct_conn")?,
                broadcast_connected: field("broadcast_conn")?,
            },
            sources: (
                field("src_wigle")?,
                field("src_direct")?,
                field("src_carrier")?,
            ),
            lanes: (field("lane_pop")?, field("lane_fresh")?),
            faults: optional(json, "faults", faults_from_json)?.unwrap_or_default(),
            detection: optional(json, "detection", detection_from_json)?,
            extra: optional(json, "rich", RichRecord::from_json)?,
        })
    }
}

/// Runs one job on a worker's scratch and captures its record.
pub(crate) fn run_job(ctx: &CampaignCtx, job: &CampaignJob, scratch: &mut RunScratch) -> JobRecord {
    let metrics = run_experiment_ctx(ctx, &job.config, scratch);
    if job.rich {
        JobRecord::capture_rich(&metrics, job.label.clone(), job.config.duration)
    } else {
        JobRecord::capture(&metrics, job.label.clone())
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
/// any failure becomes an `Err` naming every failed key, because a
/// campaign figure with holes in it is not a figure.
pub fn run_jobs(
    ctx: &CampaignCtx,
    jobs: &[CampaignJob],
    opts: &FleetOptions,
) -> Result<(Vec<JobRecord>, FleetStats), String> {
    let report = run_campaign_scoped(jobs, opts, RunScratch::new, |job, scratch| {
        run_job(ctx, job, scratch)
    })?;
    records(jobs, report)
}

/// The records of a finished campaign, in input order, or an `Err` naming
/// every job that failed — or that came from the manifest without the rich
/// series its job asks for.
pub(crate) fn records(
    jobs: &[CampaignJob],
    report: CampaignReport<JobRecord>,
) -> Result<(Vec<JobRecord>, FleetStats), String> {
    let mut records = Vec::with_capacity(report.outcomes.len());
    let mut failures = Vec::new();
    for (job, outcome) in jobs.iter().zip(report.outcomes) {
        match outcome.status {
            JobStatus::Done(record) | JobStatus::Cached(record) => {
                if job.rich && record.extra.is_none() {
                    failures.push(format!(
                        "{}: cached record has no rich series; re-run with --fresh",
                        outcome.key
                    ));
                } else {
                    records.push(record);
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
            faults: RunnerStats::default(),
            detection: None,
            extra: None,
        };
        let json = record.to_json();
        // A record with no plane armed and no series keeps the byte format
        // of the committed manifests.
        assert_eq!(
            json.render(),
            "{\"label\":\"canteen 12:00\",\"total\":321,\"direct\":21,\"broadcast\":300,\
             \"direct_conn\":9,\"broadcast_conn\":55,\"src_wigle\":40,\"src_direct\":14,\
             \"src_carrier\":1,\"lane_pop\":48,\"lane_fresh\":7}"
        );
        let reparsed = Json::parse(&json.render()).unwrap();
        assert_eq!(JobRecord::from_json(&reparsed), Some(record));
        assert_eq!(JobRecord::from_json(&Json::Null), None);
    }

    #[test]
    fn plane_counters_round_trip_and_corruption_reruns() {
        let record = JobRecord {
            row: SummaryRow {
                label: "cityhunter rotate paranoid".into(),
                total_clients: 180,
                direct_clients: 14,
                broadcast_clients: 166,
                direct_connected: 6,
                broadcast_connected: 24,
            },
            sources: (20, 4, 0),
            lanes: (19, 5),
            faults: RunnerStats {
                frames_burst_dropped: 812,
                frames_corrupted: 340,
                frames_rejected: 287,
                agents_churned: 66,
                attacker_crashes: 2,
            },
            detection: Some(DetectionReport {
                frames_observed: 5_012,
                rogue_macs: 5,
                legit_aps: 6,
                verdicts: 9,
                rogue_verdicts: 8,
                flagged: 4,
                flagged_rogue: 3,
                flagged_legit: 1,
                time_to_detect_us: Some(93_500_000),
            }),
            extra: None,
        };
        let text = record.to_json().render();
        assert_eq!(
            JobRecord::from_json(&Json::parse(&text).unwrap()),
            Some(record.clone())
        );
        // The undetected case round-trips its null.
        let silent = JobRecord {
            detection: record.detection.map(|report| DetectionReport {
                time_to_detect_us: None,
                ..report
            }),
            ..record.clone()
        };
        let silent_text = silent.to_json().render();
        assert!(silent_text.contains("\"ttd_us\":null"), "{silent_text}");
        assert_eq!(
            JobRecord::from_json(&Json::parse(&silent_text).unwrap()),
            Some(silent)
        );

        // A flipped key, inner or top-level, or a malformed plane object
        // invalidates the whole record, so the job re-runs.
        for (from, to) in [
            ("\"churned\"", "\"chorned\""),
            ("\"verdicts\"", "\"verdictz\""),
            ("\"faults\"", "\"faulty\""),
            ("\"detection\"", "\"detectian\""),
            ("\"ttd_us\":93500000", "\"ttd_us\":\"soon\""),
            ("\"burst_dropped\":812", "\"burst_dropped\":\"many\""),
        ] {
            let tampered = text.replace(from, to);
            assert_ne!(tampered, text, "{from} must occur in the record");
            let parsed = Json::parse(&tampered).unwrap();
            assert_eq!(JobRecord::from_json(&parsed), None, "{from} -> {to}");
        }
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
            faults: RunnerStats::default(),
            detection: None,
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
