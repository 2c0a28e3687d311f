//! The experiment registry: one declarative [`ExperimentSpec`] per
//! DESIGN §4 artifact (Tables I–IV, Figures 1–6) and per beyond-paper
//! study, in a fixed canonical order.
//!
//! A spec names the artifact, its fleet campaign, its default manifest,
//! and how to expand and render it; [`ExperimentSpec::run`]
//! executes any non-external entry against prepared [`ch_fleet::FleetOptions`]
//! and returns the rendered [`Artifact`]. The `ch-bench` `experiment`
//! binary dispatches through this table; `reproduce_all` iterates it.
//!
//! The one entry that needs a wall clock, `city`, is marked
//! [`ExperimentSpec::external`]: it is listed here — the registry stays
//! the single inventory — but executed by the `ch-bench` driver, which
//! times the run.

use ch_fleet::{FleetOptions, FleetStats};
use ch_sim::SimDuration;

use crate::ctx::CampaignCtx;
use crate::experiments as exp;
use crate::replicate::standard_study_fleet;

/// What kind of artifact an experiment renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputKind {
    /// A paper-style summary table.
    Table,
    /// A figure series / histogram / panel.
    Figure,
    /// A beyond-paper study (ablation, sweeps, replication, …).
    Study,
}

impl OutputKind {
    /// Short label for listings.
    pub fn label(self) -> &'static str {
        match self {
            OutputKind::Table => "table",
            OutputKind::Figure => "figure",
            OutputKind::Study => "study",
        }
    }
}

/// Tunable run parameters, shared by every experiment (each one reads
/// the fields it cares about and ignores the rest).
#[derive(Debug, Clone)]
pub struct RunParams {
    /// Campaign seed (legacy per-artifact world-seed masks apply on top).
    pub seed: u64,
    /// Campaign hours (Fig. 5/6 only; the paper's window is 8..=19).
    pub hours: Vec<usize>,
    /// Per-test minutes (Fig. 5/6 only; the paper's tests are an hour).
    pub minutes: u64,
    /// Replication factor override (replication / sweep studies).
    pub replicas: Option<usize>,
    /// Warm-start slots.
    pub slots: usize,
    /// Shortened runs (`--quick`) where supported (the fault study).
    pub quick: bool,
}

impl RunParams {
    /// The defaults every legacy binary used.
    pub fn new(seed: u64) -> RunParams {
        RunParams {
            seed,
            hours: (8..20).collect(),
            minutes: 60,
            replicas: None,
            slots: 4,
            quick: false,
        }
    }
}

/// One rendered artifact: the exact bytes the experiment prints to
/// stdout, plus the fleet stats when the experiment ran fleet jobs.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Registry id of the experiment that produced this.
    pub id: &'static str,
    /// The artifact text (already newline-terminated; print verbatim).
    pub text: String,
    /// Fleet stats, for experiments that expand to fleet jobs.
    pub stats: Option<FleetStats>,
}

/// One registry entry.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Stable id (`table1`, `fig5`, `ablation`, …) — the CLI handle.
    pub id: &'static str,
    /// Section title, as `reproduce_all` prints it (`"Table I"`).
    pub title: &'static str,
    /// Where the artifact lives in the paper (or `"beyond"` for studies).
    pub paper_ref: &'static str,
    /// Artifact kind.
    pub output: OutputKind,
    /// One-line description for `experiment --list`.
    pub summary: &'static str,
    /// Fleet campaign name, `None` for offline data products (no jobs).
    pub campaign: Option<&'static str>,
    /// Default resumable manifest path (committed campaigns only).
    pub default_manifest: Option<&'static str>,
    /// Default replication factor (0 where not applicable).
    pub default_replicas: usize,
    /// Whether `reproduce_all` includes this entry.
    pub in_reproduce_all: bool,
    /// Id of the entry whose campaign (and manifest) this one shares —
    /// `fig6` is a second view of `fig5`'s jobs.
    pub shares_campaign_with: Option<&'static str>,
    /// Runs in the `ch-bench` driver (needs wall-clock telemetry); `run`
    /// errors.
    pub external: bool,
}

/// The canonical registry, in DESIGN §4 order followed by the
/// beyond-paper studies.
pub static REGISTRY: &[ExperimentSpec] = &[
    ExperimentSpec {
        id: "table1",
        title: "Table I",
        paper_ref: "§II",
        output: OutputKind::Table,
        summary: "KARMA vs MANA in the canteen (2 jobs)",
        campaign: Some("table1"),
        default_manifest: None,
        default_replicas: 0,
        in_reproduce_all: true,
        shares_campaign_with: None,
        external: false,
    },
    ExperimentSpec {
        id: "fig1",
        title: "Fig. 1",
        paper_ref: "§II",
        output: OutputKind::Figure,
        summary: "MANA database growth vs real-time hit rate (1 job)",
        campaign: Some("fig1"),
        default_manifest: None,
        default_replicas: 0,
        in_reproduce_all: true,
        shares_campaign_with: None,
        external: false,
    },
    ExperimentSpec {
        id: "table2",
        title: "Table II",
        paper_ref: "§III",
        output: OutputKind::Table,
        summary: "MANA vs preliminary City-Hunter in the canteen (2 jobs)",
        campaign: Some("table2"),
        default_manifest: None,
        default_replicas: 0,
        in_reproduce_all: true,
        shares_campaign_with: None,
        external: false,
    },
    ExperimentSpec {
        id: "table3",
        title: "Table III",
        paper_ref: "§III",
        output: OutputKind::Table,
        summary: "preliminary City-Hunter in the subway passage (1 job)",
        campaign: Some("table3"),
        default_manifest: None,
        default_replicas: 0,
        in_reproduce_all: true,
        shares_campaign_with: None,
        external: false,
    },
    ExperimentSpec {
        id: "fig2",
        title: "Fig. 2",
        paper_ref: "§III",
        output: OutputKind::Figure,
        summary: "per-client SSID-depth distributions (2 jobs)",
        campaign: Some("fig2"),
        default_manifest: None,
        default_replicas: 0,
        in_reproduce_all: true,
        shares_campaign_with: None,
        external: false,
    },
    ExperimentSpec {
        id: "fig3",
        title: "Fig. 3",
        paper_ref: "§IV",
        output: OutputKind::Figure,
        summary: "City-Hunter logic-flow diagram with live parameters (offline)",
        campaign: None,
        default_manifest: None,
        default_replicas: 0,
        in_reproduce_all: false,
        shares_campaign_with: None,
        external: false,
    },
    ExperimentSpec {
        id: "table4",
        title: "Table IV",
        paper_ref: "§IV",
        output: OutputKind::Table,
        summary: "top-5 SSIDs by AP count vs heat value (offline)",
        campaign: None,
        default_manifest: None,
        default_replicas: 0,
        in_reproduce_all: true,
        shares_campaign_with: None,
        external: false,
    },
    ExperimentSpec {
        id: "fig4",
        title: "Fig. 4",
        paper_ref: "§IV",
        output: OutputKind::Figure,
        summary: "photo-density heat map for two districts (offline)",
        campaign: None,
        default_manifest: None,
        default_replicas: 0,
        in_reproduce_all: true,
        shares_campaign_with: None,
        external: false,
    },
    ExperimentSpec {
        id: "fig5",
        title: "Fig. 5",
        paper_ref: "§V",
        output: OutputKind::Figure,
        summary: "4-venue x 12-hour campaign, per-hour stacks (48 jobs)",
        campaign: Some("fig5"),
        default_manifest: Some("results/fleet_fig5.jsonl"),
        default_replicas: 0,
        in_reproduce_all: true,
        shares_campaign_with: None,
        external: false,
    },
    ExperimentSpec {
        id: "fig6",
        title: "Fig. 6",
        paper_ref: "§V",
        output: OutputKind::Figure,
        summary: "hit-SSID breakdowns, same campaign as fig5 (48 jobs)",
        campaign: Some("fig5"),
        default_manifest: Some("results/fleet_fig5.jsonl"),
        default_replicas: 0,
        in_reproduce_all: true,
        shares_campaign_with: Some("fig5"),
        external: false,
    },
    ExperimentSpec {
        id: "ablation",
        title: "Ablation",
        paper_ref: "beyond",
        output: OutputKind::Study,
        summary: "each design choice disabled in isolation (14 jobs)",
        campaign: Some("ablation"),
        default_manifest: Some("results/fleet_ablation.jsonl"),
        default_replicas: 0,
        in_reproduce_all: true,
        shares_campaign_with: None,
        external: false,
    },
    ExperimentSpec {
        id: "warm_start",
        title: "Warm start",
        paper_ref: "beyond",
        output: OutputKind::Study,
        summary: "database carry-over vs per-test re-init (slots jobs + serial chain)",
        campaign: Some("warm-start"),
        default_manifest: Some("results/fleet_warm_start.jsonl"),
        default_replicas: 0,
        in_reproduce_all: false,
        shares_campaign_with: None,
        external: false,
    },
    ExperimentSpec {
        id: "replication",
        title: "Replication",
        paper_ref: "beyond",
        output: OutputKind::Study,
        summary: "Tables I/II comparison with confidence intervals (venues x attackers x seeds)",
        campaign: Some("replication"),
        default_manifest: None,
        default_replicas: 8,
        in_reproduce_all: false,
        shares_campaign_with: None,
        external: false,
    },
    ExperimentSpec {
        id: "sweep",
        title: "Sweeps",
        paper_ref: "beyond",
        output: OutputKind::Study,
        summary: "five sensitivity sweeps with replicated CIs (points x seeds)",
        campaign: Some("sweep"),
        default_manifest: None,
        default_replicas: 5,
        in_reproduce_all: false,
        shares_campaign_with: None,
        external: false,
    },
    ExperimentSpec {
        id: "faults",
        title: "Faults",
        paper_ref: "beyond",
        output: OutputKind::Study,
        summary: "attackers under burst loss, corruption, churn and crashes (15 jobs)",
        campaign: Some("faults"),
        default_manifest: None,
        default_replicas: 0,
        in_reproduce_all: false,
        shares_campaign_with: None,
        external: false,
    },
    ExperimentSpec {
        id: "arms_race",
        title: "Arms race",
        paper_ref: "beyond",
        output: OutputKind::Study,
        summary:
            "attacker evasion vs the ch-detect monitor (attacker x evasion x strictness, 36 jobs)",
        campaign: Some("arms-race"),
        default_manifest: None,
        default_replicas: 0,
        in_reproduce_all: false,
        shares_campaign_with: None,
        external: false,
    },
    ExperimentSpec {
        id: "defense",
        title: "Defense",
        paper_ref: "beyond",
        output: OutputKind::Study,
        summary: "frames to the first ch-detect verdict per attacker generation (4 jobs)",
        campaign: Some("defense"),
        default_manifest: None,
        default_replicas: 0,
        in_reproduce_all: false,
        shares_campaign_with: None,
        external: false,
    },
    ExperimentSpec {
        id: "defense_live",
        title: "Defense (live)",
        paper_ref: "beyond",
        output: OutputKind::Study,
        summary: "the ch-detect monitor in a live canteen deployment (1 job)",
        campaign: Some("defense-live"),
        default_manifest: None,
        default_replicas: 0,
        in_reproduce_all: false,
        shares_campaign_with: None,
        external: false,
    },
    ExperimentSpec {
        id: "city",
        title: "City",
        paper_ref: "beyond",
        output: OutputKind::Study,
        summary:
            "city-scale sharded day: districts x epochs with handoff mailboxes (--quick for CI)",
        campaign: Some("city"),
        default_manifest: None,
        default_replicas: 0,
        in_reproduce_all: false,
        shares_campaign_with: None,
        external: true,
    },
];

/// Looks an experiment up by id.
pub fn find(id: &str) -> Option<&'static ExperimentSpec> {
    REGISTRY.iter().find(|spec| spec.id == id)
}

impl ExperimentSpec {
    /// Effective replication factor for this run.
    pub fn replicas(&self, params: &RunParams) -> usize {
        params.replicas.unwrap_or(self.default_replicas).max(1)
    }

    /// The manifest fingerprint parts: everything that changes job
    /// identity. A manifest written under different settings is never
    /// wrongly reused.
    pub fn fingerprint_parts(&self, params: &RunParams) -> Vec<String> {
        match self.id {
            "fig5" | "fig6" => {
                let hour_list: Vec<String> = params.hours.iter().map(ToString::to_string).collect();
                vec![
                    format!("seed={}", params.seed),
                    format!("minutes={}", params.minutes),
                    format!("hours={}", hour_list.join(",")),
                ]
            }
            "warm_start" => vec![
                format!("seed={}", params.seed),
                format!("slots={}", params.slots),
            ],
            "replication" | "sweep" => vec![
                format!("seed={}", params.seed),
                format!("replicas={}", self.replicas(params)),
            ],
            "faults" | "arms_race" => vec![
                format!("seed={}", params.seed),
                format!("quick={}", params.quick),
            ],
            "defense" => vec!["rounds=10".to_owned()],
            _ => vec![format!("seed={}", params.seed)],
        }
    }

    /// Runs the experiment and renders its artifact — exactly the bytes
    /// the dedicated binary prints to stdout.
    ///
    /// # Errors
    ///
    /// Fails if any fleet job failed, or for [`external`](Self::external)
    /// entries (the `ch-bench` driver runs those).
    pub fn run(
        &self,
        ctx: &CampaignCtx,
        params: &RunParams,
        opts: &FleetOptions,
    ) -> Result<Artifact, String> {
        let seed = params.seed;
        // A render body printed through the legacy binary's `println!`
        // gains exactly one trailing newline; the multi-section studies
        // assemble their full byte stream themselves.
        fn line(body: String) -> String {
            format!("{body}\n")
        }
        let (text, stats) = match self.id {
            "table1" => {
                let (outcome, stats) = exp::table1_fleet(ctx, seed, opts)?;
                (line(outcome.render()), Some(stats))
            }
            "fig1" => {
                let (outcome, stats) = exp::fig1_fleet(ctx, seed, opts)?;
                (line(outcome.render()), Some(stats))
            }
            "table2" => {
                let (outcome, stats) = exp::table2_fleet(ctx, seed, opts)?;
                (line(outcome.render()), Some(stats))
            }
            "table3" => {
                let (outcome, stats) = exp::table3_fleet(ctx, seed, opts)?;
                (line(outcome.render()), Some(stats))
            }
            "fig2" => {
                let (outcome, stats) = exp::fig2_fleet(ctx, seed, opts)?;
                (line(outcome.render()), Some(stats))
            }
            "fig3" => (line(exp::fig3()), None),
            "table4" => (line(exp::table4_with(ctx.data()).render()), None),
            "fig4" => (line(exp::fig4_with(ctx.data()).render()), None),
            "fig5" | "fig6" => {
                let (outcome, stats) = exp::campaign_fleet(
                    ctx,
                    seed,
                    &params.hours,
                    SimDuration::from_mins(params.minutes),
                    opts,
                )?;
                let text = if self.id == "fig5" {
                    outcome.render_fig5()
                } else {
                    outcome.render_fig6()
                };
                (line(text), Some(stats))
            }
            "ablation" => {
                let (outcome, stats) = exp::ablation_fleet(ctx, seed, opts)?;
                (line(outcome.render()), Some(stats))
            }
            "warm_start" => {
                let (outcome, stats) = exp::warm_start_fleet(ctx, seed, params.slots, opts)?;
                (line(outcome.render()), Some(stats))
            }
            "replication" => {
                let replicas = self.replicas(params);
                let (replications, stats) = standard_study_fleet(ctx, seed, replicas, opts)?;
                let mut text = format!("replication study: {replicas} seeds per condition\n\n");
                for replication in &replications {
                    text.push_str(&replication.render_line());
                    text.push('\n');
                }
                (text, Some(stats))
            }
            "faults" => {
                let (outcome, stats) = exp::faults_fleet(ctx, seed, params.quick, opts)?;
                (line(outcome.render()), Some(stats))
            }
            "arms_race" => {
                let (outcome, stats) = exp::arms_race_fleet(ctx, seed, params.quick, opts)?;
                (line(outcome.render()), Some(stats))
            }
            "defense" => {
                let (text, stats) = exp::defense_fleet(ctx, opts)?;
                (text, Some(stats))
            }
            "defense_live" => {
                let (text, stats) = exp::defense_live_fleet(ctx, seed, opts)?;
                (text, Some(stats))
            }
            "sweep" => {
                let replicas = self.replicas(params);
                let (outcomes, stats) = exp::sweep_suite_fleet(ctx, seed, replicas, opts)?;
                let mut text = String::new();
                for outcome in &outcomes {
                    text.push_str(&outcome.render());
                    text.push('\n');
                }
                (text, Some(stats))
            }
            _ => {
                return Err(format!(
                    "experiment `{}` is external (wall-clock telemetry); run it \
                     via the ch-bench `experiment` driver",
                    self.id
                ));
            }
        };
        Ok(Artifact {
            id: self.id,
            text,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_design_artifact_is_registered_exactly_once() {
        let expected = [
            "table1", "table2", "table3", "table4", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
        ];
        for id in expected {
            assert_eq!(
                REGISTRY.iter().filter(|s| s.id == id).count(),
                1,
                "artifact `{id}` must appear exactly once"
            );
        }
        // And ids are globally unique.
        let mut ids: Vec<&str> = REGISTRY.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), REGISTRY.len(), "registry ids must be unique");
    }

    #[test]
    fn shared_campaigns_agree_on_manifest_and_fingerprint() {
        for spec in REGISTRY {
            if let Some(other_id) = spec.shares_campaign_with {
                let other = find(other_id).expect("shared campaign target exists");
                assert_eq!(spec.campaign, other.campaign);
                assert_eq!(spec.default_manifest, other.default_manifest);
                let params = RunParams::new(1);
                assert_eq!(
                    spec.fingerprint_parts(&params),
                    other.fingerprint_parts(&params),
                    "shared campaigns must fingerprint identically"
                );
            }
        }
    }

    #[test]
    fn committed_manifest_fingerprints_are_stable() {
        // The fingerprint parts behind the committed results/*.jsonl
        // manifests; changing these silently invalidates the artifacts.
        let params = RunParams::new(1);
        let fig5 = find("fig5").unwrap();
        assert_eq!(
            fig5.fingerprint_parts(&params),
            vec![
                "seed=1".to_owned(),
                "minutes=60".to_owned(),
                "hours=8,9,10,11,12,13,14,15,16,17,18,19".to_owned(),
            ]
        );
        assert_eq!(
            find("ablation").unwrap().fingerprint_parts(&params),
            vec!["seed=1".to_owned()]
        );
        assert_eq!(
            find("warm_start").unwrap().fingerprint_parts(&params),
            vec!["seed=1".to_owned(), "slots=4".to_owned()]
        );
    }

    #[test]
    fn external_entries_refuse_to_run_here() {
        let ctx = CampaignCtx::build(&crate::world::CityData::standard(7));
        let spec = find("city").unwrap();
        let err = spec
            .run(
                &ctx,
                &RunParams::new(1),
                &FleetOptions::in_memory("city", 0),
            )
            .unwrap_err();
        assert!(err.contains("ch-bench"), "{err}");
        // `city` is the only entry that needs the driver's wall clock.
        let external: Vec<&str> = REGISTRY
            .iter()
            .filter(|s| s.external)
            .map(|s| s.id)
            .collect();
        assert_eq!(external, ["city"]);
    }

    #[test]
    fn reproduce_all_sections_match_the_legacy_report() {
        let sections: Vec<&str> = REGISTRY
            .iter()
            .filter(|s| s.in_reproduce_all)
            .map(|s| s.title)
            .collect();
        assert_eq!(
            sections,
            vec![
                "Table I",
                "Fig. 1",
                "Table II",
                "Table III",
                "Fig. 2",
                "Table IV",
                "Fig. 4",
                "Fig. 5",
                "Fig. 6",
                "Ablation",
            ]
        );
    }
}
