//! The fault-injection / graceful-degradation study — beyond the paper.
//!
//! Every published City-Hunter number assumes a clean channel and an
//! attacker that never dies. This study re-runs the canteen deployment
//! for three attacker generations under seed-derived fault profiles —
//! bursty Gilbert–Elliott loss, frame corruption, client churn, and
//! scheduled attacker crashes (cold vs checkpoint-warm restart) — and
//! reports how gracefully each attack degrades. The `burst` profile
//! doubles as the fleet retry exercise: its first attempt dies with an
//! injected `transient:` panic, which the engine's [`RetryPolicy`]
//! absorbs without changing a single result byte.

use ch_attack::CityHunterConfig;
use ch_fleet::{
    run_campaign_scoped_with_retry, FleetOptions, FleetStats, JobSpec, JobStatus, Json,
    ManifestCodec, RetryPolicy, TRANSIENT_PREFIX,
};
use ch_sim::fault::{BurstLossSpec, ChurnSpec, CorruptionSpec, CrashSpec, FaultSpec};
use ch_sim::{CrashMode, SimDuration};

use crate::ctx::CampaignCtx;
use crate::experiments::standard_city;
use crate::fleet::{attacker_seed, job_seed, row_fields, row_from_json};
use crate::metrics::{RunnerStats, SummaryRow};
use crate::runner::{run_experiment_ctx, AttackerKind, RunConfig, RunScratch};
use crate::world::CityData;

/// The attacker generations under test, in render order.
pub const FAULT_ATTACKERS: &[&str] = &["cityhunter", "mana", "karma"];

/// The fault profiles, in render order.
pub const FAULT_PROFILES: &[&str] = &["clean", "burst", "corrupt", "chaos-cold", "chaos-warm"];

/// The fault profile behind one profile name, scaled to the run length
/// (`None` for the clean control — not even a disabled plan is built, so
/// the control is draw-for-draw the plain experiment).
pub fn profile_fault(profile: &str, duration: SimDuration) -> Option<FaultSpec> {
    let burst = BurstLossSpec {
        p_enter_bad: 0.08,
        p_exit_bad: 0.25,
        loss_bad: 0.85,
    };
    let chaos = |recovery: CrashMode, checkpoint_secs: Option<u64>| {
        let secs = duration.as_secs();
        FaultSpec {
            burst_loss: Some(burst.clone()),
            corruption: Some(CorruptionSpec { rate: 0.15 }),
            churn: Some(ChurnSpec { rate: 0.3 }),
            crash: Some(CrashSpec {
                // Two crashes, deep enough into the run that the attacker
                // has a database worth losing.
                times_secs: vec![secs * 2 / 5, secs * 7 / 10],
                recovery,
                checkpoint_secs,
            }),
        }
    };
    match profile {
        "clean" => None,
        "burst" => Some(FaultSpec {
            burst_loss: Some(burst),
            ..FaultSpec::disabled()
        }),
        "corrupt" => Some(FaultSpec {
            corruption: Some(CorruptionSpec { rate: 0.25 }),
            ..FaultSpec::disabled()
        }),
        "chaos-cold" => Some(chaos(CrashMode::Cold, None)),
        "chaos-warm" => Some(chaos(CrashMode::Warm, Some(90))),
        other => ch_sim::invariant::violation(file!(), line!(), &format!("profile `{other}`")),
    }
}

/// One run of the study: an attacker generation under one fault profile.
#[derive(Debug, Clone)]
pub struct FaultJob {
    /// Manifest key, e.g. `faults/cityhunter/chaos-warm`.
    pub key: String,
    /// Attacker slug (an entry of [`FAULT_ATTACKERS`]).
    pub attacker: &'static str,
    /// Profile name (an entry of [`FAULT_PROFILES`]).
    pub profile: &'static str,
    /// The fully resolved run configuration, fault spec included.
    pub config: RunConfig,
}

impl JobSpec for FaultJob {
    fn key(&self) -> String {
        self.key.clone()
    }
}

/// What the manifest records per faulted run: the summary counts plus
/// the runner's fault counters — all integers, so the JSONL round-trip
/// is exact by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsRecord {
    /// The standard summary row.
    pub row: SummaryRow,
    /// The runner's fault/degradation counters.
    pub stats: RunnerStats,
}

impl ManifestCodec for FaultsRecord {
    fn to_json(&self) -> Json {
        let mut fields = row_fields(&self.row);
        fields.extend([
            (
                "burst_dropped".into(),
                self.stats.frames_burst_dropped.to_json(),
            ),
            ("corrupted".into(), self.stats.frames_corrupted.to_json()),
            ("rejected".into(), self.stats.frames_rejected.to_json()),
            ("churned".into(), self.stats.agents_churned.to_json()),
            ("crashes".into(), self.stats.attacker_crashes.to_json()),
        ]);
        Json::Obj(fields)
    }

    fn from_json(json: &Json) -> Option<Self> {
        let wide = |key: &str| json.get(key).and_then(u64::from_json);
        Some(FaultsRecord {
            row: row_from_json(json)?,
            stats: RunnerStats {
                frames_burst_dropped: wide("burst_dropped")?,
                frames_corrupted: wide("corrupted")?,
                frames_rejected: wide("rejected")?,
                agents_churned: wide("churned")?,
                attacker_crashes: wide("crashes")?,
            },
        })
    }
}

/// The rendered study: one row per `(attacker, profile)` pair.
#[derive(Debug, Clone)]
pub struct FaultsOutcome {
    /// Per-run minutes (8 in `--quick` mode, 30 otherwise).
    pub minutes: u64,
    /// `(attacker, profile, record)` in [`FAULT_ATTACKERS`] ×
    /// [`FAULT_PROFILES`] order.
    pub rows: Vec<(&'static str, &'static str, FaultsRecord)>,
}

impl FaultsOutcome {
    /// The record for one `(attacker, profile)` pair.
    pub fn record(&self, attacker: &str, profile: &str) -> Option<&FaultsRecord> {
        self.rows
            .iter()
            .find(|(a, p, _)| *a == attacker && *p == profile)
            .map(|(_, _, record)| record)
    }

    /// The study as the `faults` binary prints it.
    pub fn render(&self) -> String {
        let mut out = format!(
            "fault-injection study: canteen 12:00, {} min per run\n\
             profiles: burst = Gilbert-Elliott loss (enter 0.08, exit 0.25, \
             85% loss in Bad); corrupt = 25% frame mutation;\n\
             chaos = burst + 15% corruption + 30% churn + 2 attacker crashes \
             (cold restart vs warm restart off 90 s checkpoints)\n\n",
            self.minutes
        );
        out.push_str(&format!(
            "{:<12} {:<11} {:>7} {:>6} {:>6} {:>9} {:>8} {:>8} {:>7} {:>7}\n",
            "attacker",
            "profile",
            "clients",
            "h",
            "h_b",
            "burstdrop",
            "corrupt",
            "reject",
            "churn",
            "crash"
        ));
        for attacker in FAULT_ATTACKERS {
            for profile in FAULT_PROFILES {
                let Some(record) = self.record(attacker, profile) else {
                    continue;
                };
                let (row, stats) = (&record.row, &record.stats);
                out.push_str(&format!(
                    "{:<12} {:<11} {:>7} {:>6.3} {:>6.3} {:>9} {:>8} {:>8} {:>7} {:>7}\n",
                    attacker,
                    profile,
                    row.total_clients,
                    row.h(),
                    row.h_b(),
                    stats.frames_burst_dropped,
                    stats.frames_corrupted,
                    stats.frames_rejected,
                    stats.agents_churned,
                    stats.attacker_crashes,
                ));
            }
            out.push('\n');
        }
        if let (Some(warm), Some(cold)) = (
            self.record("cityhunter", "chaos-warm"),
            self.record("cityhunter", "chaos-cold"),
        ) {
            out.push_str(&format!(
                "graceful degradation (CityHunter under chaos): warm restart \
                 h_b {:.3} vs cold restart h_b {:.3} — checkpointed state \
                 survives the crashes\n",
                warm.row.h_b(),
                cold.row.h_b(),
            ));
        }
        // The driver's `line()` adds the final newline.
        while out.ends_with('\n') {
            out.pop();
        }
        out
    }
}

/// The study's job list: [`FAULT_ATTACKERS`] × [`FAULT_PROFILES`], keys
/// like `faults/mana/burst`, seeds derived from `(campaign seed, key)`.
pub fn faults_jobs(seed: u64, quick: bool) -> Vec<FaultJob> {
    let duration = if quick {
        SimDuration::from_mins(8)
    } else {
        SimDuration::from_mins(30)
    };
    let mut jobs = Vec::with_capacity(FAULT_ATTACKERS.len() * FAULT_PROFILES.len());
    for attacker in FAULT_ATTACKERS {
        for profile in FAULT_PROFILES {
            let key = format!("faults/{attacker}/{profile}");
            let kind = match *attacker {
                "cityhunter" => AttackerKind::CityHunter(CityHunterConfig {
                    seed: attacker_seed(seed, &key),
                    ..CityHunterConfig::default()
                }),
                "mana" => AttackerKind::Mana,
                "karma" => AttackerKind::Karma,
                other => {
                    ch_sim::invariant::violation(file!(), line!(), &format!("attacker `{other}`"))
                }
            };
            let config = RunConfig {
                duration,
                seed: job_seed(seed, &key),
                fault: profile_fault(profile, duration),
                ..RunConfig::canteen_30min(kind, 0)
            };
            jobs.push(FaultJob {
                key,
                attacker,
                profile,
                config,
            });
        }
    }
    jobs
}

/// The fault study on the fleet engine, with the retry policy armed:
/// every `burst` job panics `transient:` on its first attempt and runs
/// clean on the retry, so a healthy run reports zero failures and
/// [`FleetStats::retried`] equal to the burst-job count.
///
/// # Errors
///
/// Fails if the engine cannot run or any job failed past its retries.
pub fn faults_fleet(
    ctx: &CampaignCtx,
    seed: u64,
    quick: bool,
    opts: &FleetOptions,
) -> Result<(FaultsOutcome, FleetStats), String> {
    let jobs = faults_jobs(seed, quick);
    let report = run_campaign_scoped_with_retry(
        &jobs,
        opts,
        RetryPolicy::retries(1),
        RunScratch::new,
        |job: &FaultJob, scratch: &mut RunScratch, attempt| {
            if job.profile == "burst" && attempt == 0 {
                panic!(
                    "{TRANSIENT_PREFIX} injected first-attempt fault in `{}`",
                    job.key
                );
            }
            let metrics = run_experiment_ctx(ctx, &job.config, scratch);
            FaultsRecord {
                row: metrics.summary(format!("{} {}", job.attacker, job.profile)),
                stats: metrics.stats.clone(),
            }
        },
    )?;
    let mut rows = Vec::with_capacity(jobs.len());
    let mut failures = Vec::new();
    for (job, outcome) in jobs.iter().zip(&report.outcomes) {
        match &outcome.status {
            JobStatus::Done(record) | JobStatus::Cached(record) => {
                rows.push((job.attacker, job.profile, record.clone()));
            }
            JobStatus::Failed(message) => failures.push(format!("{}: {message}", outcome.key)),
        }
    }
    if !failures.is_empty() {
        return Err(format!(
            "{} fault job(s) failed:\n  {}",
            failures.len(),
            failures.join("\n  ")
        ));
    }
    Ok((
        FaultsOutcome {
            minutes: if quick { 8 } else { 30 },
            rows,
        },
        report.stats,
    ))
}

/// [`faults_fleet`] with in-memory options.
pub fn faults_with(data: &CityData, seed: u64, quick: bool) -> FaultsOutcome {
    crate::experiments::expect_fleet(faults_fleet(
        &CampaignCtx::build(data),
        seed,
        quick,
        &FleetOptions::in_memory("faults", 0),
    ))
}

/// [`faults_with`] over a freshly built standard city, full length.
pub fn faults(seed: u64) -> FaultsOutcome {
    faults_with(&standard_city(), seed, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_list_covers_the_matrix_with_unique_keys() {
        let jobs = faults_jobs(1, true);
        assert_eq!(jobs.len(), FAULT_ATTACKERS.len() * FAULT_PROFILES.len());
        let mut keys: Vec<&str> = jobs.iter().map(|j| j.key.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), jobs.len(), "keys must be unique");
        // The clean control carries no fault spec at all.
        for job in &jobs {
            assert_eq!(
                job.profile == "clean",
                job.config.fault.is_none(),
                "{}",
                job.key
            );
        }
    }

    #[test]
    fn profiles_scale_crash_times_to_the_duration() {
        let quick = profile_fault("chaos-warm", SimDuration::from_mins(8)).unwrap();
        let full = profile_fault("chaos-warm", SimDuration::from_mins(30)).unwrap();
        let times = |spec: &FaultSpec| spec.crash.as_ref().unwrap().times_secs.clone();
        assert_eq!(times(&quick), vec![192, 336]);
        assert_eq!(times(&full), vec![720, 1260]);
        assert!(profile_fault("clean", SimDuration::from_mins(8)).is_none());
    }

    #[test]
    fn record_round_trips_through_the_manifest_codec() {
        let record = FaultsRecord {
            row: SummaryRow {
                label: "cityhunter chaos-warm".into(),
                total_clients: 210,
                direct_clients: 15,
                broadcast_clients: 195,
                direct_connected: 7,
                broadcast_connected: 31,
            },
            stats: RunnerStats {
                frames_burst_dropped: 812,
                frames_corrupted: 340,
                frames_rejected: 287,
                agents_churned: 66,
                attacker_crashes: 2,
            },
        };
        let reparsed = Json::parse(&record.to_json().render()).unwrap();
        assert_eq!(FaultsRecord::from_json(&reparsed), Some(record));
        assert_eq!(FaultsRecord::from_json(&Json::Null), None);
    }
}
