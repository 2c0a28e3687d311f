//! One driver per table and figure of the paper — the execution layer of
//! the experiment stack.
//!
//! Every driver is deterministic in its seed and receives the build-once
//! [`crate::CampaignCtx`]. Each `RunConfig` study has two entry points:
//! `X_jobs` expands its work into keyed [`crate::fleet::CampaignJob`]s,
//! and `X_fleet` runs them on the `ch-fleet` engine — parallel,
//! panic-isolated, and resumable — into one [`crate::fleet::JobRecord`]
//! per job, then reassembles a structured outcome. The offline artifacts
//! (`table4_with`, `fig3`, `fig4_with`) run no jobs, and the [`defense`]
//! studies keep their own job types (one drives a detector by hand, the
//! other needs per-client hit times). Rendering lives in
//! [`crate::report`]; the registry that maps artifact ids to these drivers
//! lives in [`crate::registry`]; the `ch-bench` `experiment` binary is a
//! thin dispatcher over both.
//!
//! The family split:
//!
//! * [`tables`] — Table I–IV (summary-row artifacts);
//! * [`figures`] — Fig. 1–4 (series/histogram/static artifacts);
//! * [`campaign`] — the Fig. 5/6 4-venue × 12-hour campaign;
//! * [`ablation`] — the design-choice ablation matrix;
//! * [`sweeps`] — one-dimensional sensitivity sweeps;
//! * [`warm`] — the warm-start (database carry-over) study;
//! * [`faults`] — the fault-injection / graceful-degradation study;
//! * [`arms_race`] — attacker evasion vs the `ch-detect` rogue-AP monitor;
//! * [`defense`] — the `defense`/`defense_live` countermeasure studies.
//!
//! [`campaign`]: mod@campaign
//! [`ablation`]: mod@ablation
//! [`faults`]: mod@faults
//! [`arms_race`]: mod@arms_race

pub mod ablation;
pub mod arms_race;
pub mod campaign;
pub mod defense;
pub mod faults;
pub mod figures;
pub mod sweeps;
pub mod tables;
pub mod warm;

pub use ablation::{ablation_fleet, ablation_jobs, AblationOutcome, AblationRow};
pub use arms_race::{
    arms_race_fleet, arms_race_jobs, posture_evasion, ArmsRaceOutcome, ArmsRaceRecord,
    ARMS_ATTACKERS, ARMS_EVASIONS, ARMS_STRICTNESS,
};
pub use campaign::{campaign_fleet, campaign_jobs, CampaignOutcome, HourResult, VenueSeries};
pub use defense::{defense_fleet, defense_live_fleet};
pub use faults::{
    faults_fleet, faults_jobs, profile_fault, FaultsOutcome, FAULT_ATTACKERS, FAULT_PROFILES,
};
pub use figures::{
    fig1_fleet, fig1_jobs, fig2_fleet, fig2_jobs, fig3, fig4_with, Fig1Outcome, Fig2Outcome,
    Fig4Outcome,
};
pub use sweeps::{
    sweep_jobs, sweep_jobs_for, sweep_specs, sweep_suite_fleet, SweepOutcome, SweepPoint, SweepSpec,
};
pub use tables::{
    table1_fleet, table1_jobs, table2_fleet, table2_jobs, table3_fleet, table3_jobs, table4_with,
    Table1Outcome, Table2Outcome, Table3Outcome, Table4Outcome,
};
pub use warm::{warm_start_fleet, warm_start_jobs, WarmStartOutcome};

pub use crate::report::hour_label;

use crate::world::CityData;

/// The fixed city seed: all experiments share one synthetic Hong Kong.
pub const CITY_SEED: u64 = 0x0C17_F00D;

/// Builds the shared city (cached by the caller when running several
/// experiments).
pub fn standard_city() -> CityData {
    CityData::standard(CITY_SEED)
}
