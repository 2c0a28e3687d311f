//! # ch-scenarios — the experiment harness
//!
//! Wires every substrate together into the paper's field deployments:
//!
//! * [`world`] — builds the shared city data (WiGLE snapshot, heat map),
//!   places each venue at a matching city POI, and assembles a
//!   [`world::World`] for one deployment;
//! * [`runner`] — the discrete-event loop: group arrivals → per-person
//!   visits and phones → scan events → probe/response exchanges over the
//!   radio medium (with the §III-A 40-response budget enforced by airtime)
//!   → open-system join handshakes through the byte-level codec;
//! * [`metrics`] — everything the paper reports: h, h_b, real-time h_b^r,
//!   per-client SSIDs-offered counts, hit breakdowns by source
//!   (WiGLE vs direct probe) and buffer (PB vs FB), time series;
//! * [`detect`] — runner-side glue for the `ch-detect` rogue-AP monitor:
//!   the frame tap, legitimate-AP beacon sources, and ground-truth
//!   scoring behind the arms-race study;
//! * [`report`] — text tables and series formatted like the paper's;
//! * [`experiments`] — one driver per table and figure (Table I–IV,
//!   Fig. 1–6) plus the beyond-paper studies, split by artifact family;
//! * [`registry`] — the declarative spec layer: every artifact as an
//!   [`registry::ExperimentSpec`] in one canonical table, runnable by id;
//! * [`fleet`] — the campaign-job model bridging the drivers onto the
//!   `ch-fleet` execution engine (parallel, panic-isolated, resumable).
//!
//! ```no_run
//! use ch_fleet::FleetOptions;
//! use ch_scenarios::registry::{self, RunParams};
//! use ch_scenarios::CampaignCtx;
//!
//! let data = ch_scenarios::experiments::standard_city();
//! let ctx = CampaignCtx::build(&data); // per-venue plans + shared pool, built once
//! let spec = registry::find("table1").unwrap();
//! let params = RunParams::new(1);
//! let opts = FleetOptions::in_memory("table1", 0);
//! let artifact = spec.run(&ctx, &params, &opts).unwrap();
//! print!("{}", artifact.text);
//! ```

pub mod city;
pub mod ctx;
pub mod detect;
pub mod experiments;
pub mod fleet;
pub mod metrics;
pub mod registry;
pub mod replicate;
pub mod report;
pub mod runner;
pub mod scan;
pub mod world;

pub use city::{
    run_city, CityConfig, CityLayout, CityOutcome, CityPlan, DistrictReport, DistrictStats,
};
pub use ctx::{CampaignCtx, VenuePlan};
pub use detect::DetectionHarness;
pub use fleet::{CampaignJob, JobRecord, RichRecord};
pub use metrics::{ClientClass, ExperimentMetrics, RunnerStats, SummaryRow};
pub use registry::{Artifact, ExperimentSpec, OutputKind, RunParams, REGISTRY};
pub use replicate::Replication;
pub use runner::{
    run_experiment, run_experiment_ctx, run_experiment_observed, AttackerKind, CollectingObserver,
    RunConfig, RunScratch,
};
pub use world::{CityData, World};
