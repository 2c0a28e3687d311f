//! Campaign-level acceptance for the fleet rewiring: the real Fig. 5
//! pipeline must render bit-identically at any worker count, and a
//! truncated manifest must resume to the same figure.

use std::fs;
use std::path::PathBuf;

use ch_fleet::{fingerprint, FleetOptions};
use ch_scenarios::experiments::{campaign_fleet, standard_city};
use ch_scenarios::fleet::run_jobs;
use ch_scenarios::{AttackerKind, CampaignCtx, CampaignJob, RunConfig};
use ch_sim::SimDuration;

/// A deliberately tiny campaign: 4 venues × 2 hours × 3 simulated
/// minutes each, so the whole test stays fast.
const HOURS: &[usize] = &[12, 18];
const SEED: u64 = 5;

fn duration() -> SimDuration {
    SimDuration::from_mins(3)
}

fn city() -> CampaignCtx {
    CampaignCtx::build(&standard_city())
}

fn temp_manifest(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ch-scenarios-fleet-{}-{tag}.jsonl",
        std::process::id()
    ))
}

#[test]
fn fig5_renders_bit_identically_at_any_worker_count() {
    let data = city();
    let opts = FleetOptions::in_memory("fig5-test", 0);
    let (serial, serial_stats) = campaign_fleet(
        &data,
        SEED,
        HOURS,
        duration(),
        &opts.clone().with_jobs(Some(1)),
    )
    .unwrap();
    assert_eq!(serial_stats.threads, 1);
    let (parallel, parallel_stats) =
        campaign_fleet(&data, SEED, HOURS, duration(), &opts.with_jobs(Some(4))).unwrap();
    // Spawned width is the request capped at the machine's parallelism.
    assert_eq!(parallel_stats.threads, 4.min(ch_fleet::worker_cap()));
    assert_eq!(parallel.render_fig5(), serial.render_fig5());
    assert_eq!(parallel.render_fig6(), serial.render_fig6());
    assert_eq!(parallel.to_csv(), serial.to_csv());
}

#[test]
fn fig5_resumes_from_a_truncated_manifest_to_the_same_figure() {
    let data = city();
    let path = temp_manifest("resume");
    let _ = fs::remove_file(&path);
    let opts = FleetOptions::in_memory("fig5-test", fingerprint(&["resume-test"]))
        .with_jobs(Some(2))
        .with_manifest(&path);

    let (fresh, fresh_stats) = campaign_fleet(&data, SEED, HOURS, duration(), &opts).unwrap();
    assert_eq!(fresh_stats.executed, 8);
    assert_eq!(fresh_stats.cached, 0);

    // Kill the campaign three records before the finish line.
    let text = fs::read_to_string(&path).unwrap();
    let kept: Vec<&str> = text.lines().collect();
    fs::write(&path, format!("{}\n", kept[..kept.len() - 3].join("\n"))).unwrap();

    let (resumed, resumed_stats) = campaign_fleet(&data, SEED, HOURS, duration(), &opts).unwrap();
    assert_eq!(
        (resumed_stats.executed, resumed_stats.cached),
        (3, 5),
        "only the dropped jobs may re-run"
    );
    assert_eq!(resumed.render_fig5(), fresh.render_fig5());
    assert_eq!(resumed.render_fig6(), fresh.render_fig6());

    let _ = fs::remove_file(&path);
}

/// A two-minute canteen run: the cheapest job that exercises the engine.
fn short_job(key: &str) -> CampaignJob {
    let config = RunConfig {
        duration: SimDuration::from_mins(2),
        ..RunConfig::canteen_30min(AttackerKind::Karma, 3)
    };
    CampaignJob::new(key, key, config)
}

#[test]
fn run_jobs_names_every_job_it_cannot_use() {
    let data = city();
    let opts = FleetOptions::in_memory("fail-test", 0).with_jobs(Some(2));

    // A job that panics (a negative arrival multiplier) fails the campaign
    // beside a good one, and the error names only the bad key.
    let mut bad = short_job("bad/negative-arrivals");
    bad.config.arrival_multiplier = Some(-1.0);
    let err = run_jobs(&data, &[short_job("good/plain"), bad], &opts).unwrap_err();
    assert!(err.starts_with("1 campaign job(s) failed"), "{err}");
    assert!(err.contains("bad/negative-arrivals"), "{err}");
    assert!(!err.contains("good/plain"), "{err}");

    // A rich job resumed from a manifest its summary-only twin wrote has
    // no series to render: the error names the key and the way out.
    let path = temp_manifest("rich-twin");
    let _ = fs::remove_file(&path);
    let opts = FleetOptions::in_memory("rich-twin-test", 0).with_manifest(&path);
    let summary = short_job("twin/canteen");
    let (records, _) = run_jobs(&data, std::slice::from_ref(&summary), &opts).unwrap();
    assert!(records[0].extra.is_none());
    let err = run_jobs(&data, &[summary.with_rich()], &opts).unwrap_err();
    assert!(err.contains("twin/canteen"), "{err}");
    assert!(err.contains("--fresh"), "{err}");
    let _ = fs::remove_file(&path);
}
