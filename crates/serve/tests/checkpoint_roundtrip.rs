//! Kill-and-recover round trips for every attacker generation.
//!
//! The contract under test: interrupt a checkpointed serve run at an
//! arbitrary mid-campaign point, restart it against the full stream, and
//! the recovered run's output stream *and* final report are byte-
//! identical to an uninterrupted run's. The interruption is simulated by
//! serving a prefix of the stream (which leaves the last committed
//! checkpoint plus an output tail past it — exactly what `kill -9`
//! leaves behind); the real-process version of the same scenario is the
//! `ci.sh` chaos smoke.
//!
//! Also pinned: a corrupted / truncated / foreign-configuration
//! checkpoint triggers a **counted** cold start that still converges to
//! the uninterrupted result, and a checkpoint written by an older format
//! with a member the decoder no longer reads still restores warm.

use std::path::PathBuf;
use std::sync::OnceLock;

use ch_attack::{AttackerSpec, CityHunterConfig, EvasionSpec, RotationSpec, ThrottleSpec};
use ch_fleet::Json;
use ch_scenarios::{CityData, RunConfig};
use ch_serve::{serve_to_files, EventSource, InputEvent, ServeConfig};
use ch_sim::SimDuration;
use ch_wifi::MacAddr;

const SEED: u64 = 0x5EED;

fn city() -> &'static CityData {
    static CITY: OnceLock<CityData> = OnceLock::new();
    CITY.get_or_init(|| CityData::standard(SEED))
}

/// One shared stream for every attacker under test: the service contract
/// does not require the stream's sim attacker to match the served one.
fn stream() -> &'static EventSource {
    static STREAM: OnceLock<EventSource> = OnceLock::new();
    STREAM.get_or_init(|| {
        let spec = AttackerSpec::CityHunter(CityHunterConfig::default());
        let mut run = RunConfig::canteen_30min(spec, SEED);
        run.duration = SimDuration::from_mins(8);
        EventSource::from_sim(city(), &run)
    })
}

fn work_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ch-serve-ckpt-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn evasive(base: AttackerSpec) -> AttackerSpec {
    AttackerSpec::Evasive {
        base: Box::new(base),
        evasion: EvasionSpec {
            rotation: Some(RotationSpec {
                period: SimDuration::from_mins(2),
            }),
            beacon_clone: true,
            throttle: Some(ThrottleSpec {
                max_responses: 30,
                window: SimDuration::from_secs(10),
            }),
        },
    }
}

fn config(spec: AttackerSpec, checkpoint: Option<PathBuf>) -> ServeConfig {
    let mut config = ServeConfig::new(spec, SEED);
    config.checkpoint_every = 16;
    config.checkpoint_path = checkpoint;
    config.stats_every = 64;
    config
}

/// Serves the full stream uninterrupted, then replays the same stream
/// with a simulated mid-campaign kill at `cut` events, and asserts both
/// the output stream and the report come back byte-identical.
fn assert_kill_recover_exact(name: &str, spec: AttackerSpec) {
    let dir = work_dir(name);
    let source = stream();
    let cut = source.len() / 2;
    assert!(cut > 32, "stream too short to interrupt mid-campaign");

    // Ground truth: one uninterrupted checkpointed run.
    let base_out = dir.join("base.ndjson");
    let base_report = dir.join("base.json");
    let base = serve_to_files(
        city(),
        &config(spec.clone(), Some(dir.join("base.ckpt"))),
        source,
        Some(&base_out),
        Some(&base_report),
    )
    .unwrap();
    assert!(!base.recovered && !base.cold_fallback);
    assert!(
        base.stats.checkpoints > 0,
        "{name}: no checkpoints committed"
    );

    // Interrupted run: serve only a prefix (leaves a checkpoint plus an
    // output tail beyond it), then restart against the full stream.
    let out = dir.join("chaos.ndjson");
    let ckpt = dir.join("chaos.ckpt");
    let prefix = EventSource::from_events(source.events()[..cut].to_vec());
    let cfg = config(spec, Some(ckpt));
    let first = serve_to_files(city(), &cfg, &prefix, Some(&out), None).unwrap();
    assert!(!first.recovered, "{name}: prefix run must start cold");

    let second = serve_to_files(
        city(),
        &cfg,
        source,
        Some(&out),
        Some(&dir.join("chaos.json")),
    )
    .unwrap();
    assert!(second.recovered, "{name}: restart must recover warm");
    assert!(!second.cold_fallback);
    assert!(
        second.resumed_at > 0 && second.resumed_at <= cut as u64,
        "{name}: resumed at {} outside the interrupted prefix",
        second.resumed_at
    );

    let base_bytes = std::fs::read(&base_out).unwrap();
    let chaos_bytes = std::fs::read(&out).unwrap();
    assert_eq!(
        base_bytes, chaos_bytes,
        "{name}: recovered output stream differs from uninterrupted run"
    );
    assert_eq!(
        std::fs::read(&base_report).unwrap(),
        std::fs::read(dir.join("chaos.json")).unwrap(),
        "{name}: recovered report differs from uninterrupted run"
    );
    assert_eq!(base.stats, second.stats, "{name}: counters diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn karma_kill_recover_exact() {
    assert_kill_recover_exact("karma", AttackerSpec::Karma);
}

#[test]
fn mana_kill_recover_exact() {
    assert_kill_recover_exact("mana", AttackerSpec::Mana);
}

#[test]
fn prelim_kill_recover_exact() {
    assert_kill_recover_exact("prelim", AttackerSpec::Prelim);
}

#[test]
fn cityhunter_kill_recover_exact() {
    assert_kill_recover_exact(
        "cityhunter",
        AttackerSpec::CityHunter(CityHunterConfig::default()),
    );
}

#[test]
fn evasive_karma_kill_recover_exact() {
    assert_kill_recover_exact("evasive-karma", evasive(AttackerSpec::Karma));
}

#[test]
fn evasive_mana_kill_recover_exact() {
    assert_kill_recover_exact("evasive-mana", evasive(AttackerSpec::Mana));
}

#[test]
fn evasive_prelim_kill_recover_exact() {
    assert_kill_recover_exact("evasive-prelim", evasive(AttackerSpec::Prelim));
}

#[test]
fn evasive_cityhunter_kill_recover_exact() {
    assert_kill_recover_exact(
        "evasive-cityhunter",
        evasive(AttackerSpec::CityHunter(CityHunterConfig::default())),
    );
}

/// The `per_device` member MANA checkpoints carried while MANA also
/// modelled the tool's non-loud mode: each client that sent a direct
/// probe in the first `acked` events, sorted by address, with the
/// database rows of the SSIDs it disclosed, in disclosure order.
fn legacy_per_device(events: &[InputEvent], acked: usize, db_rows: &[Json]) -> Json {
    let row_of = |name: &str| {
        db_rows
            .iter()
            .position(|row| row.as_arr().unwrap()[0].as_str() == Some(name))
            .unwrap()
    };
    let mut per_device: Vec<(MacAddr, Vec<usize>)> = Vec::new();
    for event in &events[..acked] {
        let InputEvent::Probe {
            client,
            ssid: Some(ssid),
            ..
        } = event
        else {
            continue;
        };
        let row = row_of(ssid.as_str());
        let at = match per_device.iter().position(|(mac, _)| mac == client) {
            Some(at) => at,
            None => {
                per_device.push((*client, Vec::new()));
                per_device.len() - 1
            }
        };
        if !per_device[at].1.contains(&row) {
            per_device[at].1.push(row);
        }
    }
    per_device.sort_unstable_by_key(|(mac, _)| mac.octets());
    Json::Arr(
        per_device
            .into_iter()
            .map(|(mac, rows)| {
                Json::Arr(vec![
                    Json::str(mac.to_string()),
                    Json::Arr(rows.into_iter().map(Json::from_usize).collect()),
                ])
            })
            .collect(),
    )
}

#[test]
fn mana_checkpoint_with_legacy_per_device_restores_warm() {
    // A service upgraded mid-stream finds a checkpoint its predecessor
    // wrote, with MANA's `per_device` member. The decoder reads members
    // by name, so the harvest comes back warm and the run finishes
    // byte-identical to an uninterrupted one.
    let dir = work_dir("mana-per-device");
    let source = stream();
    let cut = source.len() / 2;

    let base_out = dir.join("base.ndjson");
    let base_report = dir.join("base.json");
    serve_to_files(
        city(),
        &config(AttackerSpec::Mana, Some(dir.join("base.ckpt"))),
        source,
        Some(&base_out),
        Some(&base_report),
    )
    .unwrap();

    let out = dir.join("chaos.ndjson");
    let ckpt = dir.join("chaos.ckpt");
    let cfg = config(AttackerSpec::Mana, Some(ckpt.clone()));
    let prefix = EventSource::from_events(source.events()[..cut].to_vec());
    serve_to_files(city(), &cfg, &prefix, Some(&out), None).unwrap();

    let mut checkpoint = Json::parse(std::fs::read_to_string(&ckpt).unwrap().trim()).unwrap();
    let acked = checkpoint.get("acked").and_then(Json::as_usize).unwrap();
    let Json::Obj(members) = &mut checkpoint else {
        panic!("checkpoint is not an object");
    };
    let (_, attacker) = members.iter_mut().find(|(k, _)| k == "attacker").unwrap();
    let rows = attacker.get("db").and_then(Json::as_arr).unwrap().to_vec();
    let per_device = legacy_per_device(source.events(), acked, &rows);
    assert!(
        !per_device.as_arr().unwrap().is_empty(),
        "the prefix must hold direct probes"
    );
    let Json::Obj(fields) = attacker else {
        panic!("attacker state is not an object");
    };
    assert!(fields.iter().all(|(k, _)| k != "per_device"));
    fields.push(("per_device".to_string(), per_device));
    std::fs::write(&ckpt, checkpoint.render()).unwrap();

    let second = serve_to_files(
        city(),
        &cfg,
        source,
        Some(&out),
        Some(&dir.join("chaos.json")),
    )
    .unwrap();
    assert!(second.recovered, "the legacy checkpoint must restore warm");
    assert!(!second.cold_fallback);
    assert_eq!(second.resumed_at, acked as u64);
    assert_eq!(
        std::fs::read(&base_out).unwrap(),
        std::fs::read(&out).unwrap()
    );
    assert_eq!(
        std::fs::read(&base_report).unwrap(),
        std::fs::read(dir.join("chaos.json")).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_checkpoint_falls_back_to_counted_cold_start() {
    let dir = work_dir("corrupt");
    let source = stream();
    let spec = AttackerSpec::CityHunter(CityHunterConfig::default());

    // Baseline also checkpoints, so the `checkpoints` counter (which is
    // part of the report) matches the fallback runs.
    let base_report = dir.join("base.json");
    serve_to_files(
        city(),
        &config(spec.clone(), Some(dir.join("base.ckpt"))),
        source,
        None,
        Some(&base_report),
    )
    .unwrap();

    for (case, garbage) in [
        ("not-json", "{{{ this is not a checkpoint"),
        ("truncated", "{\"v\":\"ch-serve-v1\",\"kind\":\"checkpo"),
        (
            "wrong-shape",
            "{\"v\":\"ch-serve-v1\",\"kind\":\"checkpoint\"}",
        ),
    ] {
        let ckpt = dir.join(format!("{case}.ckpt"));
        std::fs::write(&ckpt, garbage).unwrap();
        let report = dir.join(format!("{case}.json"));
        let summary = serve_to_files(
            city(),
            &config(spec.clone(), Some(ckpt)),
            source,
            None,
            Some(&report),
        )
        .unwrap();
        assert!(summary.cold_fallback, "{case}: fallback must be counted");
        assert!(!summary.recovered, "{case}: must not claim recovery");
        assert_eq!(summary.resumed_at, 0, "{case}: cold start replays from 0");
        assert_eq!(
            std::fs::read(&base_report).unwrap(),
            std::fs::read(&report).unwrap(),
            "{case}: cold start must still converge to the uninterrupted report"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_configuration_checkpoint_is_rejected() {
    let dir = work_dir("foreign");
    let source = stream();
    let ckpt = dir.join("serve.ckpt");

    // Checkpoint written by a mana service...
    serve_to_files(
        city(),
        &config(AttackerSpec::Mana, Some(ckpt.clone())),
        source,
        None,
        None,
    )
    .unwrap();
    assert!(ckpt.exists());

    // ...must not restore into a cityhunter service: fingerprint gate.
    let spec = AttackerSpec::CityHunter(CityHunterConfig::default());
    let summary = serve_to_files(
        city(),
        &config(spec.clone(), Some(ckpt)),
        source,
        None,
        Some(&dir.join("report.json")),
    )
    .unwrap();
    assert!(summary.cold_fallback);
    assert!(!summary.recovered);

    let base_report = dir.join("base.json");
    serve_to_files(
        city(),
        &config(spec, Some(dir.join("base.ckpt"))),
        source,
        None,
        Some(&base_report),
    )
    .unwrap();
    assert_eq!(
        std::fs::read(&base_report).unwrap(),
        std::fs::read(dir.join("report.json")).unwrap(),
    );
    let _ = std::fs::remove_dir_all(&dir);
}
