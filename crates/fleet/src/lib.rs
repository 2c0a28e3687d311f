//! # ch-fleet — the campaign-execution engine
//!
//! The paper's headline evidence is a *campaign*: 4 venues × 12 hourly
//! deployments, and the beyond-the-paper studies multiply that by seeds
//! and config axes. This crate is the substrate that runs such campaigns
//! at hardware speed without giving up the workspace's core guarantee —
//! bit-for-bit reproducible results:
//!
//! * [`job`] — the [`JobSpec`] model: every job has a stable,
//!   human-readable key, and per-job seeds are derived from
//!   `(campaign seed, key)` via the same SplitMix/FNV construction as
//!   [`ch_sim::SimRng::fork`] — no ambient randomness, no dependence on
//!   scheduling order;
//! * [`pool`] — a scoped-thread worker pool ([`scoped_lockstep`]) with a
//!   shared work queue and *ordered* aggregation, so parallel output is
//!   identical to serial output: run for many rounds it advances
//!   epoch-by-epoch simulations, and its one-round case
//!   ([`scoped_parallel_map_with_state`]) runs campaigns;
//! * [`manifest`] — a resumable run manifest: results stream to a JSONL
//!   artifact as each job completes, and re-running a campaign skips
//!   jobs whose keys are already recorded;
//! * [`telemetry`] — the [`Stopwatch`] behind the campaign status line
//!   ([`FleetStats::render_line`]); manifests record no wall clock.
//!   This is the **only** module in the determinism-critical crates
//!   allowed to read the wall clock (the allowance is scoped in
//!   `ch-lint.toml` and pinned by a test); wall-clock benchmarks live in
//!   the separate `benchmark/` package;
//! * [`engine`] — [`run_campaign`] ties the above together and isolates
//!   per-job panics: a poisoned job reports
//!   [`Failed`](engine::JobStatus::Failed) instead of killing the run;
//! * [`json`] — the minimal JSON value the manifest is written in (the
//!   workspace builds offline; no serde).
//!
//! ```
//! use ch_fleet::{run_campaign, FleetOptions, JobSpec};
//!
//! struct Square(u64);
//! impl JobSpec for Square {
//!     fn key(&self) -> String {
//!         format!("square/{}", self.0)
//!     }
//! }
//!
//! let jobs: Vec<Square> = (0..8).map(Square).collect();
//! let opts = FleetOptions::in_memory("squares", 0);
//! let report = run_campaign(&jobs, &opts, |job| job.0 * job.0).unwrap();
//! let total: u64 = report.results().filter_map(|(_, r)| r.copied()).sum();
//! assert_eq!(total, 140);
//! ```

pub mod engine;
pub mod job;
pub mod json;
pub mod manifest;
pub mod pool;
pub mod telemetry;

pub use engine::{
    is_transient, run_campaign, run_campaign_scoped, run_campaign_scoped_with_retry,
    run_campaign_with_retry, CampaignReport, FleetOptions, FleetStats, JobOutcome, JobStatus,
    RetryPolicy, TRANSIENT_PREFIX,
};
pub use job::{derive_seed, fingerprint, JobSpec};
pub use json::Json;
pub use manifest::{Manifest, ManifestCodec};
pub use pool::{effective_jobs, scoped_lockstep, scoped_parallel_map_with_state, worker_cap};
pub use telemetry::Stopwatch;
