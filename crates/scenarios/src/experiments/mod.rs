//! One driver per table and figure of the paper — the execution layer of
//! the experiment stack.
//!
//! Every driver is deterministic in its seed, builds (or receives) the
//! standard city, expands its work into keyed [`crate::fleet::CampaignJob`]s,
//! and runs them on the `ch-fleet` engine — parallel, panic-isolated, and
//! resumable — before reassembling a structured outcome. Rendering lives
//! in [`crate::report`]; the registry that maps artifact ids to these
//! drivers lives in [`crate::registry`]; the `ch-bench` `experiment`
//! binary is a thin dispatcher over both.
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

pub use ablation::{
    ablation, ablation_fleet, ablation_jobs, ablation_with, AblationOutcome, AblationRow,
};
pub use arms_race::{
    arms_race, arms_race_fleet, arms_race_jobs, arms_race_with, posture_evasion, ArmsRaceJob,
    ArmsRaceOutcome, ArmsRaceRecord, ARMS_ATTACKERS, ARMS_EVASIONS, ARMS_STRICTNESS,
};
pub use campaign::{
    campaign, campaign_fleet, campaign_jobs, campaign_with, CampaignOutcome, HourResult,
    VenueSeries,
};
pub use defense::{defense_fleet, defense_live_fleet};
pub use faults::{
    faults, faults_fleet, faults_jobs, faults_with, profile_fault, FaultJob, FaultsOutcome,
    FaultsRecord, FAULT_ATTACKERS, FAULT_PROFILES,
};
pub use figures::{
    fig1, fig1_fleet, fig1_jobs, fig1_with, fig2, fig2_fleet, fig2_jobs, fig2_with, fig3, fig4,
    fig4_with, Fig1Outcome, Fig2Outcome, Fig4Outcome,
};
pub use sweeps::{
    sweep_crowd_density, sweep_fleet, sweep_jobs, sweep_jobs_for, sweep_lure_budget,
    sweep_mac_randomization, sweep_radio_range, sweep_scan_interval, sweep_specs,
    sweep_suite_fleet, SweepOutcome, SweepPoint, SweepSpec,
};
pub use tables::{
    table1, table1_fleet, table1_jobs, table1_with, table2, table2_fleet, table2_jobs, table2_with,
    table3, table3_fleet, table3_jobs, table3_with, table4, table4_with, Table1Outcome,
    Table2Outcome, Table3Outcome, Table4Outcome,
};
pub use warm::{warm_start, warm_start_fleet, warm_start_jobs, warm_start_with, WarmStartOutcome};

pub use crate::report::hour_label;

use crate::world::CityData;

/// The fixed city seed: all experiments share one synthetic Hong Kong.
pub const CITY_SEED: u64 = 0x0C17_F00D;

/// Builds the shared city (cached by the caller when running several
/// experiments).
pub fn standard_city() -> CityData {
    CityData::standard(CITY_SEED)
}

/// Unwraps an in-memory fleet run: in-memory options cannot hit manifest
/// I/O and the job lists are duplicate-free by construction, so the only
/// way to an `Err` is a panic inside a simulation — which deserves to
/// propagate as one.
pub(crate) fn expect_fleet<T>(result: Result<(T, ch_fleet::FleetStats), String>) -> T {
    match result {
        Ok((outcome, _)) => outcome,
        Err(error) => ch_sim::invariant::violation(file!(), line!(), &error),
    }
}
