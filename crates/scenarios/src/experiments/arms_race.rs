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
use ch_detect::{DetectionReport, Strictness};
use ch_fleet::{FleetOptions, FleetStats};
use ch_sim::SimDuration;

use crate::ctx::CampaignCtx;
use crate::fleet::{attacker_seed, job_seed, run_jobs, CampaignJob};
use crate::metrics::SummaryRow;
use crate::runner::{AttackerKind, RunConfig};

/// The attacker generations under test, in render order.
pub const ARMS_ATTACKERS: &[&str] = &["cityhunter", "mana", "karma"];

/// The evasion postures, in render order.
pub const ARMS_EVASIONS: &[&str] = &["none", "rotate", "clone", "throttle"];

/// The detector strictness levels, in render order; keys and tables show
/// each by its [`Strictness::slug`].
pub const ARMS_STRICTNESS: &[Strictness] = &[
    Strictness::Lenient,
    Strictness::Standard,
    Strictness::Paranoid,
];

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

/// One cell's rendered numbers: the attack summary plus the detection
/// score.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmsRaceRecord {
    /// The standard attack summary row.
    pub row: SummaryRow,
    /// The detector's score against ground truth.
    pub report: DetectionReport,
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
                for strictness in ARMS_STRICTNESS.iter().map(|s| s.slug()) {
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
        for strictness in ARMS_STRICTNESS.iter().map(|s| s.slug()) {
            let cells: Vec<&ArmsRaceRecord> = self
                .rows
                .iter()
                .filter(|(_, _, s, _)| *s == strictness)
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
pub fn arms_race_jobs(seed: u64, quick: bool) -> Vec<CampaignJob> {
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
            for &level in ARMS_STRICTNESS {
                let strictness = level.slug();
                let key = format!("{pair_key}/{strictness}");
                let config = RunConfig {
                    duration,
                    seed: job_seed(seed, &pair_key),
                    detector: Some(level),
                    ..RunConfig::canteen_30min(kind.clone(), 0)
                };
                jobs.push(CampaignJob::new(
                    key,
                    format!("{attacker} {evasion} {strictness}"),
                    config,
                ));
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
    let (records, stats) = run_jobs(ctx, &jobs, opts)?;
    let cells = ARMS_ATTACKERS.iter().flat_map(|attacker| {
        ARMS_EVASIONS.iter().flat_map(move |evasion| {
            ARMS_STRICTNESS
                .iter()
                .map(move |strictness| (*attacker, *evasion, strictness.slug()))
        })
    });
    let rows = cells
        .zip(records)
        .map(|((attacker, evasion, strictness), record)| {
            let Some(report) = record.detection else {
                ch_sim::invariant::violation(
                    file!(),
                    line!(),
                    &format!("`{attacker} {evasion} {strictness}` ran without a detector"),
                )
            };
            let cell = ArmsRaceRecord {
                row: record.row,
                report,
            };
            (attacker, evasion, strictness, cell)
        })
        .collect();
    Ok((
        ArmsRaceOutcome {
            minutes: if quick { 8 } else { 30 },
            rows,
        },
        stats,
    ))
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
            // Keys read `arms_race/<attacker>/<evasion>/<strictness>`.
            let axes: Vec<&str> = job.key.split('/').skip(2).collect();
            let [evasion, strictness] = axes[..] else {
                panic!("malformed key {}", job.key);
            };
            // Every cell runs with an armed detector…
            let level = job.config.detector.unwrap();
            assert_eq!(level.slug(), strictness, "{}", job.key);
            // …and the un-evasive cells deploy the plain generation.
            let wrapped = matches!(job.config.attacker, AttackerKind::Evasive { .. });
            assert_eq!(wrapped, evasion != "none", "{}", job.key);
        }
        // Strictness never changes the attack side: all three cells of a
        // pair share seed and attacker spec.
        let by_pair = |e: &str, s: &str| {
            let key = format!("arms_race/cityhunter/{e}/{s}");
            jobs.iter()
                .find(|j| j.key == key)
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
}
