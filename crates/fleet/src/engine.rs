//! The campaign orchestrator: pool + manifest + panic walls.
//!
//! [`run_campaign`] executes a list of [`JobSpec`]s through the worker
//! pool with three guarantees:
//!
//! 1. **determinism** — outcomes are aggregated in *input order*, so a
//!    `--jobs 8` run is bit-identical to a `--jobs 1` run;
//! 2. **resumability** — with a manifest configured, finished jobs stream
//!    to disk as they complete and are skipped (status
//!    [`JobStatus::Cached`]) when the campaign re-runs;
//! 3. **isolation** — a panicking job becomes a structured
//!    [`JobStatus::Failed`] entry instead of tearing down the campaign.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ch_sim::det_hash_set;

use crate::job::JobSpec;
use crate::manifest::{Manifest, ManifestCodec};
use crate::pool::{effective_jobs, scoped_parallel_map_with_state, worker_cap};
use crate::telemetry::Stopwatch;

/// How a campaign runs: worker width and manifest.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Campaign name — manifest header and status-line label.
    pub campaign: String,
    /// Configuration fingerprint (see [`crate::job::fingerprint`]); a
    /// manifest written under a different fingerprint is discarded.
    pub fingerprint: u64,
    /// Worker threads; `None` defers to `CH_JOBS` then
    /// `available_parallelism` (see [`effective_jobs`]).
    pub jobs: Option<usize>,
    /// JSONL manifest path; `None` disables resume entirely.
    pub manifest: Option<PathBuf>,
}

impl FleetOptions {
    /// Options with no on-disk artifacts: no manifest.
    pub fn in_memory(campaign: &str, fingerprint: u64) -> FleetOptions {
        FleetOptions {
            campaign: campaign.to_string(),
            fingerprint,
            jobs: None,
            manifest: None,
        }
    }

    /// Sets the worker width (`None` keeps the default resolution).
    #[must_use]
    pub fn with_jobs(mut self, jobs: Option<usize>) -> FleetOptions {
        self.jobs = jobs;
        self
    }

    /// Enables manifest-based resume at `path`.
    #[must_use]
    pub fn with_manifest(mut self, path: impl Into<PathBuf>) -> FleetOptions {
        self.manifest = Some(path.into());
        self
    }
}

/// Panic-message prefix that marks a failure as *transient*: injected or
/// environmental, worth re-running under a [`RetryPolicy`]. Anything else
/// is treated as a permanent defect and fails immediately — retrying a
/// deterministic panic would burn the whole attempt budget for nothing.
pub const TRANSIENT_PREFIX: &str = "transient:";

/// Whether a panic message opts into retry under a [`RetryPolicy`].
pub fn is_transient(message: &str) -> bool {
    message.starts_with(TRANSIENT_PREFIX)
}

/// Bounded, deterministic retry for jobs that panic with a
/// [`TRANSIENT_PREFIX`] message.
///
/// Determinism is preserved because a retried job re-derives everything
/// from its stable key (see [`crate::job::derive_seed`]); the attempt
/// index is handed to the job closure purely so *injected* transients can
/// decide to clear. A campaign that retries is bit-identical to one that
/// never failed.
///
/// With [`RetryPolicy::with_backoff`] the engine additionally waits
/// between attempts on an exponential schedule. The wait for retry `k`
/// is drawn from the upper half of `min(cap, base · 2^(k-1))`
/// milliseconds, jittered by a [`derive_seed`]-keyed hash of the job key
/// — computed, never measured, so the schedule for a given
/// `(seed, key)` pair is reproducible across runs and machines. Backoff
/// only ever changes wall-clock, never results.
///
/// [`derive_seed`]: crate::derive_seed
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    max_attempts: usize,
    backoff_base_ms: u64,
    backoff_cap_ms: u64,
}

impl RetryPolicy {
    /// No retry: every panic is final (the [`run_campaign`] default).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            backoff_base_ms: 0,
            backoff_cap_ms: 0,
        }
    }

    /// Up to `n` retries after the first attempt (so `n + 1` attempts
    /// total) for transient failures, with no backoff between them.
    pub fn retries(n: usize) -> RetryPolicy {
        RetryPolicy {
            max_attempts: n.saturating_add(1),
            backoff_base_ms: 0,
            backoff_cap_ms: 0,
        }
    }

    /// Enables exponential backoff between attempts: the first retry
    /// waits on the order of `base_ms`, each further retry doubles the
    /// window, and no wait ever exceeds `cap_ms` (raised to `base_ms`
    /// if passed smaller).
    #[must_use]
    pub fn with_backoff(mut self, base_ms: u64, cap_ms: u64) -> RetryPolicy {
        self.backoff_base_ms = base_ms;
        self.backoff_cap_ms = cap_ms.max(base_ms);
        self
    }

    /// Total attempts allowed per job, first run included (always ≥ 1).
    pub fn max_attempts(&self) -> usize {
        self.max_attempts.max(1)
    }

    /// The wait before retry `attempt` (1-based) of the job with `key`,
    /// in milliseconds. Zero when backoff is not configured or `attempt`
    /// is zero. Deterministic: jitter comes from
    /// [`derive_seed`]`(seed, key#backoff{attempt})`, not a clock, and
    /// lands in `[window/2, window]` where
    /// `window = min(cap, base · 2^(attempt-1))`.
    ///
    /// [`derive_seed`]: crate::derive_seed
    pub fn backoff_ms(&self, seed: u64, key: &str, attempt: usize) -> u64 {
        if self.backoff_base_ms == 0 || attempt == 0 {
            return 0;
        }
        let shift = u32::try_from(attempt - 1).unwrap_or(u32::MAX);
        // A doubling past the value's headroom saturates instead of
        // wrapping, so deep attempt counts pin to the cap.
        let doubled = if shift > self.backoff_base_ms.leading_zeros() {
            u64::MAX
        } else {
            self.backoff_base_ms << shift
        };
        let window = doubled.min(self.backoff_cap_ms);
        let half = window / 2;
        let jitter = crate::job::derive_seed(seed, &format!("{key}#backoff{attempt}"));
        half + jitter % (window - half + 1)
    }
}

/// How one job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus<R> {
    /// Executed this run.
    Done(R),
    /// Skipped: the manifest already recorded this key.
    Cached(R),
    /// The job panicked; the campaign carried on.
    Failed(String),
}

/// One job's outcome, in campaign (input) order.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome<R> {
    /// The job's stable key.
    pub key: String,
    /// How it ended.
    pub status: JobStatus<R>,
}

impl<R> JobOutcome<R> {
    /// The result, if the job completed (fresh or cached).
    pub fn result(&self) -> Option<&R> {
        match &self.status {
            JobStatus::Done(r) | JobStatus::Cached(r) => Some(r),
            JobStatus::Failed(_) => None,
        }
    }
}

/// Campaign-level execution counters and timing.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Campaign name.
    pub campaign: String,
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall-clock, in milliseconds.
    pub total_ms: f64,
    /// Jobs in the campaign.
    pub total: usize,
    /// Jobs executed this run.
    pub executed: usize,
    /// Jobs skipped via the manifest.
    pub cached: usize,
    /// Jobs that panicked.
    pub failed: usize,
    /// Transient-failure re-runs performed under the [`RetryPolicy`]
    /// (attempts beyond each job's first; zero without a policy).
    pub retried: usize,
}

impl FleetStats {
    /// One status line for a bin's stderr.
    pub fn render_line(&self) -> String {
        let retried = if self.retried > 0 {
            format!(", {} retried", self.retried)
        } else {
            String::new()
        };
        format!(
            "fleet: campaign `{}`: {} job(s) ({} executed, {} cached, {} failed{retried}) \
             on {} thread(s) in {:.0} ms",
            self.campaign,
            self.total,
            self.executed,
            self.cached,
            self.failed,
            self.threads,
            self.total_ms,
        )
    }
}

/// Everything a campaign run produced.
#[derive(Debug, Clone)]
pub struct CampaignReport<R> {
    /// Per-job outcomes, in input order.
    pub outcomes: Vec<JobOutcome<R>>,
    /// Execution counters and timing.
    pub stats: FleetStats,
}

impl<R> CampaignReport<R> {
    /// `(key, result)` pairs in input order; `None` marks a failed job.
    pub fn results(&self) -> impl Iterator<Item = (&str, Option<&R>)> {
        self.outcomes.iter().map(|o| (o.key.as_str(), o.result()))
    }
}

/// Runs a campaign: every job through the pool, outcomes in input order.
///
/// # Errors
///
/// Fails on duplicate job keys (resume would be ambiguous) and on
/// manifest I/O errors. Job *panics* are not errors — they surface
/// as [`JobStatus::Failed`] outcomes.
pub fn run_campaign<J, R>(
    jobs: &[J],
    opts: &FleetOptions,
    run: impl Fn(&J) -> R + Sync,
) -> Result<CampaignReport<R>, String>
where
    J: JobSpec + Sync,
    R: ManifestCodec + Send,
{
    run_campaign_with_retry(jobs, opts, RetryPolicy::none(), |job, _attempt| run(job))
}

/// [`run_campaign`] with a [`RetryPolicy`]: a job that panics with a
/// [`TRANSIENT_PREFIX`] message is re-run (up to the policy's attempt
/// budget) before it counts as [`JobStatus::Failed`]. The closure
/// receives the zero-based attempt index so injected transients can
/// clear on retry; real jobs should ignore it and stay key-derived.
///
/// # Errors
///
/// Same contract as [`run_campaign`]: duplicate keys and manifest I/O
/// fail the campaign; job panics do not.
pub fn run_campaign_with_retry<J, R>(
    jobs: &[J],
    opts: &FleetOptions,
    policy: RetryPolicy,
    run: impl Fn(&J, usize) -> R + Sync,
) -> Result<CampaignReport<R>, String>
where
    J: JobSpec + Sync,
    R: ManifestCodec + Send,
{
    run_campaign_scoped_with_retry(
        jobs,
        opts,
        policy,
        || (),
        |job, (), attempt| run(job, attempt),
    )
}

/// [`run_campaign`] with **worker-local scratch**: every pool worker
/// calls `init` once when it starts and hands the same `&mut S` to each
/// job it executes, so per-job arenas (event queues, agent vectors,
/// frame buffers) are allocated once per worker instead of once per job.
///
/// The scratch is an allocation cache, never a value channel: `run` must
/// clear any state it reads before use, and results must not depend on
/// which jobs previously used the scratch — that is what keeps a
/// `--jobs 8` campaign bit-identical to `--jobs 1`.
///
/// # Errors
///
/// Same contract as [`run_campaign`].
pub fn run_campaign_scoped<J, R, S>(
    jobs: &[J],
    opts: &FleetOptions,
    init: impl Fn() -> S + Sync,
    run: impl Fn(&J, &mut S) -> R + Sync,
) -> Result<CampaignReport<R>, String>
where
    J: JobSpec + Sync,
    R: ManifestCodec + Send,
{
    run_campaign_scoped_with_retry(jobs, opts, RetryPolicy::none(), init, |job, scratch, _| {
        run(job, scratch)
    })
}

/// [`run_campaign_scoped`] with a [`RetryPolicy`]. A job panic leaves the
/// worker's scratch in an unknown state, so the engine **rebuilds it via
/// `init()`** before any retry and before the worker moves on — a
/// poisoned scratch can never leak into a later job's execution.
///
/// # Errors
///
/// Same contract as [`run_campaign`].
pub fn run_campaign_scoped_with_retry<J, R, S>(
    jobs: &[J],
    opts: &FleetOptions,
    policy: RetryPolicy,
    init: impl Fn() -> S + Sync,
    run: impl Fn(&J, &mut S, usize) -> R + Sync,
) -> Result<CampaignReport<R>, String>
where
    J: JobSpec + Sync,
    R: ManifestCodec + Send,
{
    let campaign_timer = Stopwatch::start();
    let keys: Vec<String> = jobs.iter().map(JobSpec::key).collect();
    {
        let mut seen = det_hash_set();
        for key in &keys {
            if !seen.insert(key.as_str()) {
                return Err(format!(
                    "campaign `{}`: duplicate job key `{key}`",
                    opts.campaign
                ));
            }
        }
    }

    let manifest = match &opts.manifest {
        Some(path) => Some(Manifest::open(path, &opts.campaign, opts.fingerprint)?),
        None => None,
    };

    // Partition into manifest hits and pending work.
    let mut slots: Vec<Option<JobOutcome<R>>> = Vec::with_capacity(jobs.len());
    let mut pending: Vec<usize> = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        let cached = manifest
            .as_ref()
            .and_then(|m| m.cached(key))
            .and_then(R::from_json);
        match cached {
            Some(result) => slots.push(Some(JobOutcome {
                key: key.clone(),
                status: JobStatus::Cached(result),
            })),
            None => {
                slots.push(None);
                pending.push(i);
            }
        }
    }

    // Spawned width is capped at the machine's parallelism: the workers
    // are CPU-bound, so running wider than the core count is pure
    // scheduling overhead (the pre-context fig5 regression: `--jobs 8`
    // on one core ran 0.88x serial). Results are width-independent by
    // construction, so the clamp only ever changes wall-clock.
    let threads = effective_jobs(opts.jobs).min(worker_cap());
    let write_error: Mutex<Option<String>> = Mutex::new(None);
    let stash_error = |result: Result<(), String>| {
        if let Err(e) = result {
            let mut slot = write_error
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            slot.get_or_insert(e);
        }
    };
    let retried = AtomicUsize::new(0);
    let fresh: Vec<JobOutcome<R>> =
        scoped_parallel_map_with_state(&pending, threads, &init, |&i, scratch| {
            let key = keys[i].clone();
            let job_timer = Stopwatch::start();
            let mut attempt = 0;
            let settled = loop {
                match catch_unwind(AssertUnwindSafe(|| run(&jobs[i], scratch, attempt))) {
                    Ok(result) => break Ok(result),
                    Err(payload) => {
                        let message = panic_message(payload.as_ref());
                        // The panic may have left the scratch half-mutated;
                        // rebuild it before this worker touches another job
                        // (or retries this one).
                        *scratch = init();
                        if is_transient(&message) && attempt + 1 < policy.max_attempts() {
                            attempt += 1;
                            retried.fetch_add(1, Ordering::Relaxed);
                            // Deterministically-scheduled wait; a plain
                            // sleep, so it shifts wall-clock only.
                            let wait = policy.backoff_ms(opts.fingerprint, &key, attempt);
                            if wait > 0 {
                                std::thread::sleep(std::time::Duration::from_millis(wait));
                            }
                            continue;
                        }
                        break Err(message);
                    }
                }
            };
            let ms = job_timer.elapsed_ms();
            match settled {
                Ok(result) => {
                    if let Some(m) = &manifest {
                        stash_error(m.record_done(&key, &result.to_json(), ms));
                    }
                    JobOutcome {
                        key,
                        status: JobStatus::Done(result),
                    }
                }
                Err(message) => {
                    if let Some(m) = &manifest {
                        stash_error(m.record_failed(&key, &message, ms));
                    }
                    JobOutcome {
                        key,
                        status: JobStatus::Failed(message),
                    }
                }
            }
        });
    for (&slot, outcome) in pending.iter().zip(fresh) {
        slots[slot] = Some(outcome);
    }
    let outcomes: Vec<JobOutcome<R>> = slots
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| {
                ch_sim::invariant::violation(file!(), line!(), "campaign slot left unfilled")
            })
        })
        .collect();

    if let Some(error) = write_error
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
    {
        return Err(error);
    }

    let count =
        |want: fn(&JobStatus<R>) -> bool| outcomes.iter().filter(|o| want(&o.status)).count();
    let stats = FleetStats {
        campaign: opts.campaign.clone(),
        threads,
        total_ms: campaign_timer.elapsed_ms(),
        total: outcomes.len(),
        executed: count(|s| matches!(s, JobStatus::Done(_))),
        cached: count(|s| matches!(s, JobStatus::Cached(_))),
        failed: count(|s| matches!(s, JobStatus::Failed(_))),
        retried: retried.load(Ordering::Relaxed),
    };

    Ok(CampaignReport { outcomes, stats })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_string()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "job panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_disabled_by_default() {
        for policy in [RetryPolicy::none(), RetryPolicy::retries(5)] {
            for attempt in 0..8 {
                assert_eq!(policy.backoff_ms(42, "job-a", attempt), 0);
            }
        }
    }

    #[test]
    fn backoff_schedule_is_reproducible() {
        let policy = RetryPolicy::retries(6).with_backoff(10, 2_000);
        let schedule = |seed: u64, key: &str| -> Vec<u64> {
            (1..=6).map(|a| policy.backoff_ms(seed, key, a)).collect()
        };
        assert_eq!(schedule(7, "job-a"), schedule(7, "job-a"));
        // Jitter is keyed: a different seed or key yields a different
        // (but equally reproducible) schedule.
        assert_ne!(schedule(7, "job-a"), schedule(8, "job-a"));
        assert_ne!(schedule(7, "job-a"), schedule(7, "job-b"));
    }

    #[test]
    fn backoff_grows_within_window_and_caps() {
        let (base, cap) = (10u64, 160u64);
        let policy = RetryPolicy::retries(20).with_backoff(base, cap);
        for attempt in 1..=20usize {
            let shift = u32::try_from(attempt - 1).unwrap();
            let window = if shift > base.leading_zeros() {
                cap
            } else {
                (base << shift).min(cap)
            };
            let wait = policy.backoff_ms(99, "job", attempt);
            assert!(
                wait >= window / 2 && wait <= window,
                "attempt {attempt}: wait {wait} outside [{}, {window}]",
                window / 2
            );
            assert!(wait <= cap, "attempt {attempt}: wait {wait} above cap");
        }
        // Deep attempt counts saturate instead of wrapping.
        let deep = policy.backoff_ms(99, "job", 1_000);
        assert!(deep >= cap / 2 && deep <= cap);
    }

    #[test]
    fn backoff_cap_raised_to_base() {
        let policy = RetryPolicy::retries(3).with_backoff(100, 1);
        let wait = policy.backoff_ms(1, "job", 4);
        assert!((50..=100).contains(&wait));
    }
}
