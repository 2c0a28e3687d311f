//! Engine acceptance tests: serial/parallel equivalence, resume from a
//! (possibly truncated) manifest, and per-job panic isolation.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use ch_fleet::{
    derive_seed, run_campaign, run_campaign_scoped, run_campaign_scoped_with_retry,
    run_campaign_with_retry, worker_cap, FleetOptions, JobOutcome, JobSpec, JobStatus, RetryPolicy,
    TRANSIENT_PREFIX,
};

/// A synthetic job: derive the seed, burn a little deterministic CPU.
struct HashJob {
    name: &'static str,
    index: u64,
}

impl JobSpec for HashJob {
    fn key(&self) -> String {
        format!("{}/{}", self.name, self.index)
    }
}

fn jobs(n: u64) -> Vec<HashJob> {
    (0..n)
        .map(|index| HashJob {
            name: "hash",
            index,
        })
        .collect()
}

/// Deterministic per-job work: a short multiply-xor chain off the
/// derived seed.
fn work(job: &HashJob) -> u64 {
    let mut x = derive_seed(0xF1EE7, &job.key());
    for _ in 0..10_000 {
        x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17) ^ job.index;
    }
    x
}

fn temp_manifest(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ch-fleet-engine-{}-{tag}.jsonl",
        std::process::id()
    ))
}

fn values(outcomes: &[JobOutcome<u64>]) -> Vec<Option<u64>> {
    outcomes.iter().map(|o| o.result().copied()).collect()
}

#[test]
fn parallel_campaign_is_bit_identical_to_serial() {
    let jobs = jobs(16);
    let serial = run_campaign(
        &jobs,
        &FleetOptions::in_memory("eq", 0).with_jobs(Some(1)),
        work,
    )
    .unwrap();
    assert_eq!(serial.stats.threads, 1);
    for threads in [4, 16] {
        let parallel = run_campaign(
            &jobs,
            &FleetOptions::in_memory("eq", 0).with_jobs(Some(threads)),
            work,
        )
        .unwrap();
        // Spawned width is the request capped at the machine's
        // parallelism — oversubscription is never spawned.
        assert_eq!(parallel.stats.threads, threads.min(ch_fleet::worker_cap()));
        assert_eq!(
            values(&parallel.outcomes),
            values(&serial.outcomes),
            "threads={threads}"
        );
        // Keys come back in input order, not completion order.
        let keys: Vec<&str> = parallel.results().map(|(k, _)| k).collect();
        let expected: Vec<String> = jobs.iter().map(JobSpec::key).collect();
        assert_eq!(keys, expected);
    }
}

#[test]
fn one_poisoned_job_does_not_kill_the_campaign() {
    let jobs = jobs(8);
    let report = run_campaign(
        &jobs,
        &FleetOptions::in_memory("poison", 0).with_jobs(Some(4)),
        |job| {
            assert!(job.index != 5, "poisoned job {}", job.index);
            work(job)
        },
    )
    .unwrap();
    assert_eq!(report.stats.failed, 1);
    assert_eq!(report.stats.executed, 7);
    match &report.outcomes[5].status {
        JobStatus::Failed(message) => {
            assert!(message.contains("poisoned job 5"), "{message}")
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    // Every other job still completed with the right value.
    for (i, outcome) in report.outcomes.iter().enumerate() {
        if i != 5 {
            assert_eq!(outcome.result(), Some(&work(&jobs[i])), "job {i}");
        }
    }
}

#[test]
fn resume_runs_only_missing_jobs_and_matches_fresh_results() {
    let path = temp_manifest("resume");
    let _ = fs::remove_file(&path);
    let executed = AtomicUsize::new(0);
    let counted = |job: &HashJob| {
        executed.fetch_add(1, Ordering::Relaxed);
        work(job)
    };
    let jobs = jobs(6);
    let opts = FleetOptions::in_memory("resume", 9)
        .with_jobs(Some(2))
        .with_manifest(&path);

    let fresh = run_campaign(&jobs, &opts, counted).unwrap();
    assert_eq!(executed.load(Ordering::Relaxed), 6);
    assert_eq!((fresh.stats.executed, fresh.stats.cached), (6, 0));

    // Simulate a mid-run kill: drop the last two completed records.
    let text = fs::read_to_string(&path).unwrap();
    let kept: Vec<&str> = text.lines().collect();
    fs::write(&path, format!("{}\n", kept[..kept.len() - 2].join("\n"))).unwrap();

    executed.store(0, Ordering::Relaxed);
    let resumed = run_campaign(&jobs, &opts, counted).unwrap();
    assert_eq!(
        executed.load(Ordering::Relaxed),
        2,
        "only the missing jobs may execute"
    );
    assert_eq!((resumed.stats.executed, resumed.stats.cached), (2, 4));
    assert_eq!(values(&resumed.outcomes), values(&fresh.outcomes));

    // Third run: everything cached, nothing executes.
    executed.store(0, Ordering::Relaxed);
    let warm = run_campaign(&jobs, &opts, counted).unwrap();
    assert_eq!(executed.load(Ordering::Relaxed), 0);
    assert_eq!((warm.stats.executed, warm.stats.cached), (0, 6));
    assert_eq!(values(&warm.outcomes), values(&fresh.outcomes));

    let _ = fs::remove_file(&path);
}

#[test]
fn changed_fingerprint_invalidates_the_manifest() {
    let path = temp_manifest("fingerprint");
    let _ = fs::remove_file(&path);
    let jobs = jobs(3);
    let base = FleetOptions::in_memory("fp", 1).with_manifest(&path);
    run_campaign(&jobs, &base, work).unwrap();

    let changed = FleetOptions {
        fingerprint: 2,
        ..base
    };
    let report = run_campaign(&jobs, &changed, work).unwrap();
    assert_eq!(
        (report.stats.executed, report.stats.cached),
        (3, 0),
        "a different configuration must not reuse recorded results"
    );
    let _ = fs::remove_file(&path);
}

#[test]
fn failed_jobs_are_recorded_but_retried_on_resume() {
    let path = temp_manifest("retry");
    let _ = fs::remove_file(&path);
    let jobs = jobs(3);
    let opts = FleetOptions::in_memory("retry", 3).with_manifest(&path);

    let first = run_campaign(&jobs, &opts, |job| {
        assert!(job.index != 1, "flaky");
        work(job)
    })
    .unwrap();
    assert_eq!(first.stats.failed, 1);

    // The failure is on disk for post-mortems...
    let text = fs::read_to_string(&path).unwrap();
    assert!(text.contains("\"status\":\"failed\""), "{text}");

    // ...but the job re-runs (and succeeds) on resume.
    let second = run_campaign(&jobs, &opts, work).unwrap();
    assert_eq!((second.stats.executed, second.stats.cached), (1, 2));
    assert_eq!(second.stats.failed, 0);
    assert_eq!(second.outcomes[1].result(), Some(&work(&jobs[1])));
    let _ = fs::remove_file(&path);
}

#[test]
fn transient_panics_retry_to_bit_identical_results() {
    let jobs = jobs(8);
    let clean = run_campaign(&jobs, &FleetOptions::in_memory("clean", 0), work).unwrap();

    // Every odd job dies with an injected transient on its first attempt.
    let flaky = |job: &HashJob, attempt: usize| {
        assert!(
            job.index.is_multiple_of(2) || attempt > 0,
            "{TRANSIENT_PREFIX} injected fault in {}",
            job.key()
        );
        work(job)
    };
    for threads in [1, 4] {
        let retried = run_campaign_with_retry(
            &jobs,
            &FleetOptions::in_memory("flaky", 0).with_jobs(Some(threads)),
            RetryPolicy::retries(2),
            flaky,
        )
        .unwrap();
        assert_eq!(retried.stats.failed, 0, "threads={threads}");
        assert_eq!(retried.stats.executed, 8);
        assert_eq!(retried.stats.retried, 4);
        assert_eq!(values(&retried.outcomes), values(&clean.outcomes));
        // The whole status line: ci.sh's fleet scaling gate reads the
        // worker count and the wall time from its `on N thread(s) in M ms`.
        assert_eq!(retried.stats.threads, threads.min(worker_cap()));
        assert_eq!(
            retried.stats.render_line(),
            format!(
                "fleet: campaign `flaky`: 8 job(s) (8 executed, 0 cached, 0 failed, 4 retried) \
                 on {} thread(s) in {:.0} ms",
                retried.stats.threads, retried.stats.total_ms
            )
        );
    }
}

#[test]
fn permanent_panics_are_not_retried() {
    let jobs = jobs(4);
    let attempts = AtomicUsize::new(0);
    let report = run_campaign_with_retry(
        &jobs,
        &FleetOptions::in_memory("perm", 0).with_jobs(Some(1)),
        RetryPolicy::retries(3),
        |job: &HashJob, _attempt| {
            if job.index == 2 {
                attempts.fetch_add(1, Ordering::Relaxed);
                panic!("deterministic defect in {}", job.key());
            }
            work(job)
        },
    )
    .unwrap();
    assert_eq!(report.stats.failed, 1);
    assert_eq!(
        report.stats.retried, 0,
        "a permanent panic burns no retries"
    );
    assert_eq!(
        attempts.load(Ordering::Relaxed),
        1,
        "the job ran exactly once"
    );
    assert!(
        !report.stats.render_line().contains("retried"),
        "{}",
        report.stats.render_line()
    );
}

#[test]
fn transient_budget_is_bounded() {
    // A job that never clears fails after exhausting its attempt budget.
    let jobs = jobs(1);
    let attempts = AtomicUsize::new(0);
    let report = run_campaign_with_retry(
        &jobs,
        &FleetOptions::in_memory("exhaust", 0),
        RetryPolicy::retries(2),
        |_job: &HashJob, _attempt| -> u64 {
            attempts.fetch_add(1, Ordering::Relaxed);
            panic!("{TRANSIENT_PREFIX} never clears");
        },
    )
    .unwrap();
    assert_eq!(attempts.load(Ordering::Relaxed), 3, "1 run + 2 retries");
    assert_eq!(report.stats.failed, 1);
    assert_eq!(report.stats.retried, 2);
    match &report.outcomes[0].status {
        JobStatus::Failed(message) => assert!(message.contains("never clears"), "{message}"),
        other => panic!("expected Failed, got {other:?}"),
    }
}

#[test]
fn scoped_campaign_with_stateful_scratch_is_width_independent() {
    let jobs = jobs(16);
    // The scratch accumulates whatever each job leaves in it; correct
    // jobs clear it before use. A missing reset, or a scratch shared
    // between workers, would skew the `+ len` term differently at
    // different widths (at 16 workers each scratch sees one job; at 1
    // worker it sees all sixteen) and break serial/parallel equality.
    let run = |job: &HashJob, scratch: &mut Vec<u64>| {
        scratch.clear();
        scratch.extend(0..(job.index % 4));
        work(job) + scratch.len() as u64
    };
    let serial = run_campaign_scoped(
        &jobs,
        &FleetOptions::in_memory("scoped-eq", 0).with_jobs(Some(1)),
        Vec::new,
        run,
    )
    .unwrap();
    let expected: Vec<Option<u64>> = jobs.iter().map(|j| Some(work(j) + j.index % 4)).collect();
    assert_eq!(values(&serial.outcomes), expected);
    for threads in [4, 16] {
        let parallel = run_campaign_scoped(
            &jobs,
            &FleetOptions::in_memory("scoped-eq", 0).with_jobs(Some(threads)),
            Vec::new,
            run,
        )
        .unwrap();
        assert_eq!(
            values(&parallel.outcomes),
            values(&serial.outcomes),
            "threads={threads}"
        );
    }
}

#[test]
fn poisoned_worker_scratch_is_rebuilt_before_the_next_job() {
    let jobs = jobs(6);
    // Honest jobs read the scratch length *without* clearing it, so any
    // value a panicking predecessor left behind would corrupt their
    // result. Job 2 poisons the scratch and dies mid-job on its first
    // attempt; the engine must hand both its retry and every later job
    // on that worker a freshly built scratch.
    let run = |job: &HashJob, scratch: &mut Vec<u64>, attempt: usize| {
        if job.index == 2 && attempt == 0 {
            scratch.push(999);
            panic!("{TRANSIENT_PREFIX} mid-job fault in {}", job.key());
        }
        work(job) + scratch.len() as u64
    };
    for threads in [1, 4] {
        let report = run_campaign_scoped_with_retry(
            &jobs,
            &FleetOptions::in_memory("scratch-poison", 0).with_jobs(Some(threads)),
            RetryPolicy::retries(1),
            Vec::<u64>::new,
            run,
        )
        .unwrap();
        assert_eq!(report.stats.failed, 0, "threads={threads}");
        assert_eq!(report.stats.retried, 1);
        for (i, outcome) in report.outcomes.iter().enumerate() {
            assert_eq!(
                outcome.result(),
                Some(&work(&jobs[i])),
                "threads={threads} job {i}: scratch state leaked"
            );
        }
    }
}

#[test]
fn duplicate_keys_are_rejected() {
    let dup = vec![
        HashJob {
            name: "dup",
            index: 1,
        },
        HashJob {
            name: "dup",
            index: 1,
        },
    ];
    let err = run_campaign(&dup, &FleetOptions::in_memory("dup", 0), work).unwrap_err();
    assert!(err.contains("duplicate job key"), "{err}");
}
