//! The detection arms race — beyond the paper.
//!
//! City-Hunter's whole design optimizes hit rate against *unaware*
//! victims. This study asks the adversarial follow-up: what happens when
//! the venue runs a rogue-AP monitor (`ch-detect`)? The matrix crosses
//! three attacker generations with four evasion postures (none, MAC/OUI
//! rotation, beacon cloning, response throttling) and three detector
//! strictness levels, reporting per cell the attack's yield (h, h_b), the
//! detector's verdicts against ground truth (true/false positives,
//! time-to-detect), and — the headline — what each stealth posture costs
//! in broadcast hit rate.

use ch_attack::{CityHunterConfig, EvasionSpec};
use ch_detect::{DetectionReport, DetectorSpec, Strictness};
use ch_fleet::{
    run_campaign_scoped, FleetOptions, FleetStats, JobSpec, JobStatus, Json, ManifestCodec,
};
use ch_sim::SimDuration;

use crate::ctx::CampaignCtx;
use crate::experiments::standard_city;
use crate::fleet::{attacker_seed, job_seed, row_fields, row_from_json};
use crate::metrics::SummaryRow;
use crate::runner::{run_experiment_ctx, AttackerKind, RunConfig, RunScratch};
use crate::world::CityData;

/// The attacker generations under test, in render order.
pub const ARMS_ATTACKERS: &[&str] = &["cityhunter", "mana", "karma"];

/// The evasion postures, in render order.
pub const ARMS_EVASIONS: &[&str] = &["none", "rotate", "clone", "throttle"];

/// The detector strictness levels, in render order.
pub const ARMS_STRICTNESS: &[&str] = &["lenient", "standard", "paranoid"];

/// The evasion posture behind one slug, scaled to the run length.
pub fn posture_evasion(evasion: &str, duration: SimDuration) -> EvasionSpec {
    match evasion {
        "none" => EvasionSpec::none(),
        // Five BSSIDs over the run: each rotation wipes the detector's
        // per-MAC evidence accumulators.
        "rotate" => EvasionSpec::rotate_every(SimDuration::from_secs(duration.as_secs() / 5)),
        "clone" => EvasionSpec::clone_beacons(),
        // Six responses per minute: starves the broadcast-bait heuristic,
        // and costs broadcast hits directly.
        "throttle" => EvasionSpec::throttled(6, SimDuration::from_secs(60)),
        other => ch_sim::invariant::violation(file!(), line!(), &format!("evasion `{other}`")),
    }
}

/// One cell of the matrix: an attacker generation under one evasion
/// posture, observed at one detector strictness.
#[derive(Debug, Clone)]
pub struct ArmsRaceJob {
    /// Manifest key, e.g. `arms_race/cityhunter/rotate/paranoid`.
    pub key: String,
    /// Attacker slug (an entry of [`ARMS_ATTACKERS`]).
    pub attacker: &'static str,
    /// Evasion slug (an entry of [`ARMS_EVASIONS`]).
    pub evasion: &'static str,
    /// Strictness slug (an entry of [`ARMS_STRICTNESS`]).
    pub strictness: &'static str,
    /// The fully resolved run configuration, detector spec included.
    pub config: RunConfig,
}

impl JobSpec for ArmsRaceJob {
    fn key(&self) -> String {
        self.key.clone()
    }
}

/// What the manifest records per cell: the attack summary plus the
/// detection score — all integer counts, so the JSONL round-trip is exact
/// by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmsRaceRecord {
    /// The standard attack summary row.
    pub row: SummaryRow,
    /// The detector's score against ground truth.
    pub report: DetectionReport,
}

impl ManifestCodec for ArmsRaceRecord {
    fn to_json(&self) -> Json {
        let mut fields = row_fields(&self.row);
        fields.extend([
            ("frames".into(), self.report.frames_observed.to_json()),
            ("rogue_macs".into(), self.report.rogue_macs.to_json()),
            ("legit_aps".into(), self.report.legit_aps.to_json()),
            ("verdicts".into(), self.report.verdicts.to_json()),
            (
                "rogue_verdicts".into(),
                self.report.rogue_verdicts.to_json(),
            ),
            ("flagged".into(), self.report.flagged.to_json()),
            ("flagged_rogue".into(), self.report.flagged_rogue.to_json()),
            ("flagged_legit".into(), self.report.flagged_legit.to_json()),
            (
                "ttd_us".into(),
                match self.report.time_to_detect_us {
                    Some(us) => us.to_json(),
                    None => Json::Null,
                },
            ),
        ]);
        Json::Obj(fields)
    }

    fn from_json(json: &Json) -> Option<Self> {
        let wide = |key: &str| json.get(key).and_then(u64::from_json);
        let ttd_us = match json.get("ttd_us")? {
            Json::Null => None,
            value => Some(u64::from_json(value)?),
        };
        Some(ArmsRaceRecord {
            row: row_from_json(json)?,
            report: DetectionReport {
                frames_observed: wide("frames")?,
                rogue_macs: wide("rogue_macs")?,
                legit_aps: wide("legit_aps")?,
                verdicts: wide("verdicts")?,
                rogue_verdicts: wide("rogue_verdicts")?,
                flagged: wide("flagged")?,
                flagged_rogue: wide("flagged_rogue")?,
                flagged_legit: wide("flagged_legit")?,
                time_to_detect_us: ttd_us,
            },
        })
    }
}

/// The rendered study: one row per matrix cell.
#[derive(Debug, Clone)]
pub struct ArmsRaceOutcome {
    /// Per-run minutes (8 in `--quick` mode, 30 otherwise).
    pub minutes: u64,
    /// `(attacker, evasion, strictness, record)` in matrix order.
    pub rows: Vec<(&'static str, &'static str, &'static str, ArmsRaceRecord)>,
}

impl ArmsRaceOutcome {
    /// The record for one matrix cell.
    pub fn record(
        &self,
        attacker: &str,
        evasion: &str,
        strictness: &str,
    ) -> Option<&ArmsRaceRecord> {
        self.rows
            .iter()
            .find(|(a, e, s, _)| *a == attacker && *e == evasion && *s == strictness)
            .map(|(_, _, _, record)| record)
    }

    /// The study as the `arms_race` binary prints it.
    pub fn render(&self) -> String {
        let mut out = format!(
            "detection arms race: canteen 12:00, {} min per run, \
             ch-detect monitor in-venue\n\
             evasions: rotate = new vendor OUI/MAC 5x per run; clone = \
             beacon as the nearest legitimate open AP;\n\
             throttle = at most 6 probe responses per minute\n\n",
            self.minutes
        );
        out.push_str(&format!(
            "{:<11} {:<9} {:<9} {:>7} {:>6} {:>6} {:>7} {:>5} {:>5} {:>5} {:>7} {:>6}\n",
            "attacker",
            "evasion",
            "strict",
            "clients",
            "h",
            "h_b",
            "frames",
            "macs",
            "TP",
            "FP",
            "ttd_s",
            "prec"
        ));
        for attacker in ARMS_ATTACKERS {
            for evasion in ARMS_EVASIONS {
                for strictness in ARMS_STRICTNESS {
                    let Some(record) = self.record(attacker, evasion, strictness) else {
                        continue;
                    };
                    let (row, report) = (&record.row, &record.report);
                    let ttd = match report.time_to_detect() {
                        Some(at) => format!("{:.0}", at.as_secs_f64()),
                        None => "-".to_string(),
                    };
                    let precision = match report.precision() {
                        Some(p) => format!("{p:.2}"),
                        None => "-".to_string(),
                    };
                    out.push_str(&format!(
                        "{:<11} {:<9} {:<9} {:>7} {:>6.3} {:>6.3} {:>7} {:>5} {:>5} {:>5} {:>7} {:>6}\n",
                        attacker,
                        evasion,
                        strictness,
                        row.total_clients,
                        row.h(),
                        row.h_b(),
                        report.frames_observed,
                        report.rogue_macs,
                        report.flagged_rogue,
                        report.flagged_legit,
                        ttd,
                        precision,
                    ));
                }
            }
            out.push('\n');
        }

        // Per-strictness detection summary across the whole matrix.
        for strictness in ARMS_STRICTNESS {
            let cells: Vec<&ArmsRaceRecord> = self
                .rows
                .iter()
                .filter(|(_, _, s, _)| s == strictness)
                .map(|(_, _, _, record)| record)
                .collect();
            if cells.is_empty() {
                continue;
            }
            let detected = cells.iter().filter(|r| r.report.detected()).count();
            let false_pos: u64 = cells.iter().map(|r| r.report.flagged_legit).sum();
            let mut ttds: Vec<u64> = cells
                .iter()
                .filter_map(|r| r.report.time_to_detect_us)
                .collect();
            ttds.sort_unstable();
            let median = ttds
                .get(ttds.len() / 2)
                .map(|&us| format!("{:.0} s", us as f64 / 1_000_000.0))
                .unwrap_or_else(|| "-".to_string());
            out.push_str(&format!(
                "{:<9} caught {:>2}/{} attacker cells, {} false-positive AP flag(s), median time-to-detect {}\n",
                strictness,
                detected,
                cells.len(),
                false_pos,
                median,
            ));
        }

        // The headline: what stealth costs the strongest attacker.
        if let Some(baseline) = self.record("cityhunter", "none", "standard") {
            let mut costs = Vec::new();
            for evasion in ARMS_EVASIONS.iter().filter(|e| **e != "none") {
                if let Some(record) = self.record("cityhunter", evasion, "standard") {
                    costs.push(format!(
                        "{} h_b {:.3} ({:+.3})",
                        evasion,
                        record.row.h_b(),
                        record.row.h_b() - baseline.row.h_b(),
                    ));
                }
            }
            if !costs.is_empty() {
                out.push_str(&format!(
                    "\nstealth cost (CityHunter, standard detector): baseline h_b {:.3}; {}\n",
                    baseline.row.h_b(),
                    costs.join("; "),
                ));
            }
        }
        // The driver's `line()` adds the final newline.
        while out.ends_with('\n') {
            out.pop();
        }
        out
    }
}

/// The study's job list: [`ARMS_ATTACKERS`] × [`ARMS_EVASIONS`] ×
/// [`ARMS_STRICTNESS`], keys like `arms_race/mana/clone/paranoid`, seeds
/// derived from `(campaign seed, key)`. The attack-side seed depends only
/// on the `(attacker, evasion)` pair — the detector is a passive tap, so
/// all three strictness cells of a pair replay the *same* attack, making
/// the strictness axis a pure detector comparison.
pub fn arms_race_jobs(seed: u64, quick: bool) -> Vec<ArmsRaceJob> {
    let duration = if quick {
        SimDuration::from_mins(8)
    } else {
        SimDuration::from_mins(30)
    };
    let mut jobs =
        Vec::with_capacity(ARMS_ATTACKERS.len() * ARMS_EVASIONS.len() * ARMS_STRICTNESS.len());
    for attacker in ARMS_ATTACKERS {
        for evasion in ARMS_EVASIONS {
            // One attack per (attacker, evasion): strictness only changes
            // the observer.
            let pair_key = format!("arms_race/{attacker}/{evasion}");
            let kind = match *attacker {
                "cityhunter" => AttackerKind::CityHunter(CityHunterConfig {
                    seed: attacker_seed(seed, &pair_key),
                    ..CityHunterConfig::default()
                }),
                "mana" => AttackerKind::Mana,
                "karma" => AttackerKind::Karma,
                other => {
                    ch_sim::invariant::violation(file!(), line!(), &format!("attacker `{other}`"))
                }
            };
            let kind = kind.with_evasion(posture_evasion(evasion, duration));
            for strictness in ARMS_STRICTNESS {
                let key = format!("{pair_key}/{strictness}");
                let level = match Strictness::from_slug(strictness) {
                    Some(level) => level,
                    None => ch_sim::invariant::violation(
                        file!(),
                        line!(),
                        &format!("strictness `{strictness}`"),
                    ),
                };
                let config = RunConfig {
                    duration,
                    seed: job_seed(seed, &pair_key),
                    detector: Some(DetectorSpec::with_strictness(level)),
                    ..RunConfig::canteen_30min(kind.clone(), 0)
                };
                jobs.push(ArmsRaceJob {
                    key,
                    attacker,
                    evasion,
                    strictness,
                    config,
                });
            }
        }
    }
    jobs
}

/// The arms-race study on the fleet engine.
///
/// # Errors
///
/// Fails if the engine cannot run or any job failed.
pub fn arms_race_fleet(
    ctx: &CampaignCtx,
    seed: u64,
    quick: bool,
    opts: &FleetOptions,
) -> Result<(ArmsRaceOutcome, FleetStats), String> {
    let jobs = arms_race_jobs(seed, quick);
    let report = run_campaign_scoped(
        &jobs,
        opts,
        RunScratch::new,
        |job: &ArmsRaceJob, scratch: &mut RunScratch| {
            let metrics = run_experiment_ctx(ctx, &job.config, scratch);
            let detection = match metrics.detection {
                Some(detection) => detection,
                None => ch_sim::invariant::violation(
                    file!(),
                    line!(),
                    &format!("`{}` ran without a detection report", job.key),
                ),
            };
            ArmsRaceRecord {
                row: metrics.summary(format!(
                    "{} {} {}",
                    job.attacker, job.evasion, job.strictness
                )),
                report: detection,
            }
        },
    )?;
    let mut rows = Vec::with_capacity(jobs.len());
    let mut failures = Vec::new();
    for (job, outcome) in jobs.iter().zip(&report.outcomes) {
        match &outcome.status {
            JobStatus::Done(record) | JobStatus::Cached(record) => {
                rows.push((job.attacker, job.evasion, job.strictness, record.clone()));
            }
            JobStatus::Failed(message) => failures.push(format!("{}: {message}", outcome.key)),
        }
    }
    if !failures.is_empty() {
        return Err(format!(
            "{} arms-race job(s) failed:\n  {}",
            failures.len(),
            failures.join("\n  ")
        ));
    }
    Ok((
        ArmsRaceOutcome {
            minutes: if quick { 8 } else { 30 },
            rows,
        },
        report.stats,
    ))
}

/// [`arms_race_fleet`] with in-memory options.
pub fn arms_race_with(data: &CityData, seed: u64, quick: bool) -> ArmsRaceOutcome {
    crate::experiments::expect_fleet(arms_race_fleet(
        &CampaignCtx::build(data),
        seed,
        quick,
        &FleetOptions::in_memory("arms-race", 0),
    ))
}

/// [`arms_race_with`] over a freshly built standard city, full length.
pub fn arms_race(seed: u64) -> ArmsRaceOutcome {
    arms_race_with(&standard_city(), seed, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_list_covers_the_matrix_with_unique_keys() {
        let jobs = arms_race_jobs(1, true);
        assert_eq!(
            jobs.len(),
            ARMS_ATTACKERS.len() * ARMS_EVASIONS.len() * ARMS_STRICTNESS.len()
        );
        let mut keys: Vec<&str> = jobs.iter().map(|j| j.key.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), jobs.len(), "keys must be unique");
        for job in &jobs {
            // Every cell runs with an armed detector…
            let spec = job.config.detector.as_ref().unwrap();
            assert!(!spec.is_disabled(), "{}", job.key);
            assert_eq!(spec.strictness.slug(), job.strictness, "{}", job.key);
            // …and the un-evasive cells deploy the plain generation.
            let wrapped = matches!(job.config.attacker, AttackerKind::Evasive { .. });
            assert_eq!(wrapped, job.evasion != "none", "{}", job.key);
        }
        // Strictness never changes the attack side: all three cells of a
        // pair share seed and attacker spec.
        let by_pair = |e: &str, s: &str| {
            jobs.iter()
                .find(|j| j.attacker == "cityhunter" && j.evasion == e && j.strictness == s)
                .map(|j| (j.config.seed, j.config.attacker.clone()))
                .unwrap()
        };
        assert_eq!(by_pair("rotate", "lenient"), by_pair("rotate", "paranoid"));
    }

    #[test]
    fn postures_resolve_and_scale() {
        let quick = posture_evasion("rotate", SimDuration::from_mins(8));
        assert_eq!(
            quick.rotation.as_ref().unwrap().period,
            SimDuration::from_secs(96)
        );
        assert!(posture_evasion("none", SimDuration::from_mins(8)).is_none());
        assert!(posture_evasion("clone", SimDuration::from_mins(8)).beacon_clone);
        let throttle = posture_evasion("throttle", SimDuration::from_mins(8));
        assert_eq!(throttle.throttle.as_ref().unwrap().max_responses, 6);
    }

    #[test]
    fn record_round_trips_through_the_manifest_codec() {
        let record = ArmsRaceRecord {
            row: SummaryRow {
                label: "cityhunter rotate paranoid".into(),
                total_clients: 180,
                direct_clients: 14,
                broadcast_clients: 166,
                direct_connected: 6,
                broadcast_connected: 24,
            },
            report: DetectionReport {
                frames_observed: 5_012,
                rogue_macs: 5,
                legit_aps: 6,
                verdicts: 9,
                rogue_verdicts: 8,
                flagged: 4,
                flagged_rogue: 3,
                flagged_legit: 1,
                time_to_detect_us: Some(93_500_000),
            },
        };
        let reparsed = Json::parse(&record.to_json().render()).unwrap();
        assert_eq!(ArmsRaceRecord::from_json(&reparsed), Some(record.clone()));
        // The undetected case round-trips its null.
        let silent = ArmsRaceRecord {
            report: DetectionReport {
                time_to_detect_us: None,
                ..record.report
            },
            ..record
        };
        let reparsed = Json::parse(&silent.to_json().render()).unwrap();
        assert_eq!(ArmsRaceRecord::from_json(&reparsed), Some(silent));
        assert_eq!(ArmsRaceRecord::from_json(&Json::Null), None);
    }
}
