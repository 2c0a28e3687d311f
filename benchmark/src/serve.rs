//! The `serve` workload: `serve_to_files` running City-Hunter at the
//! canteen (the `ch-serve` defaults) with report and checkpoint files,
//! over a crowded lunch stream generated before timing starts.
//!
//! The wire output stream is encoded (as `serve_to_files` always does)
//! but not written: with an output file, `serve_to_files` syncs it to
//! disk at every checkpoint, and the benchmark may only write inside its
//! working directory, which sits on the VM's shared disk. Left in, the
//! sync would time that disk rather than the service.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ch_attack::{AttackerSpec, CityHunterConfig};
use ch_scenarios::{CityData, RunConfig};
use ch_serve::protocol::encode_output;
use ch_serve::{
    serve_to_files, EventSource, InputEvent, OutputEvent, ServeConfig, Service, ServiceStats,
};
use ch_sim::SimDuration;

use crate::report::{same, sample_loop, Outcome};
use crate::setup;
use crate::stats::{percentile_ns, Summary};

/// The stream's shape.
#[derive(Debug, Clone)]
pub struct Size {
    /// Sim minutes of canteen traffic generated from 12:00.
    pub minutes: u64,
    /// Arrival-rate multiplier (a crowded lunch).
    pub arrivals: f64,
    /// Events replayed: the stream's head, so every seed feeds the
    /// service the same number of events.
    pub events: usize,
    /// Minimum timed repetitions per run.
    pub min_reps: usize,
}

impl Size {
    /// The first 12,000 events of a 30-minute lunch at twice the
    /// calibrated crowd (every seed yields about 15,000); per-client
    /// state grows past a thousand clients.
    pub fn full() -> Size {
        Size {
            minutes: 30,
            arrivals: 2.0,
            events: 12_000,
            min_reps: 5,
        }
    }
}

/// The input stream: the head of the client-side air traffic of one
/// canteen run.
///
/// # Errors
///
/// When the run yields fewer events than `size.events`.
pub fn stream(data: &CityData, seed: u64, size: &Size) -> Result<EventSource, String> {
    let mut run = RunConfig::canteen_30min(spec(), seed);
    run.duration = SimDuration::from_mins(size.minutes);
    run.arrival_multiplier = Some(size.arrivals);
    let full = EventSource::from_sim(data, &run);
    let head = full.events().get(..size.events).ok_or_else(|| {
        format!(
            "serve: stream has {} events, need {}",
            full.len(),
            size.events
        )
    })?;
    Ok(EventSource::from_events(head.to_vec()))
}

fn spec() -> AttackerSpec {
    AttackerSpec::CityHunter(CityHunterConfig::default())
}

/// The service's files, all inside `dir`.
pub struct Files {
    dir: PathBuf,
    report: PathBuf,
    checkpoint: PathBuf,
}

impl Files {
    /// Creates `dir` (if needed) and names the files in it.
    ///
    /// # Errors
    ///
    /// When the directory cannot be created.
    pub fn new(dir: &Path) -> Result<Files, String> {
        fs::create_dir_all(dir).map_err(|e| format!("serve: create {}: {e}", dir.display()))?;
        Ok(Files {
            dir: dir.to_path_buf(),
            report: dir.join("report.json"),
            checkpoint: dir.join("serve.ckpt"),
        })
    }

    /// Removes every file a previous repetition left, so the next one
    /// starts cold instead of recovering from its checkpoint.
    fn clear(&self) -> Result<(), String> {
        for path in [
            &self.report,
            &self.checkpoint,
            &self.checkpoint.with_extension("tmp"),
        ] {
            match fs::remove_file(path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(format!("serve: remove {}: {e}", path.display())),
            }
        }
        Ok(())
    }

    /// Removes the files and the directory.
    pub fn remove(&self) {
        let _ = self.clear();
        let _ = fs::remove_dir(&self.dir);
    }

    fn config(&self, seed: u64) -> ServeConfig {
        ServeConfig {
            checkpoint_path: Some(self.checkpoint.clone()),
            ..ServeConfig::new(spec(), seed)
        }
    }
}

fn read(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("serve: read {}: {e}", path.display()))
}

/// What one cold `serve_to_files` repetition produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    /// The report as written to the report file.
    pub report: String,
    /// The last committed checkpoint (the service's full state).
    pub checkpoint: String,
    /// Counters.
    pub stats: ServiceStats,
}

/// One cold repetition; returns it with the seconds `serve_to_files` took.
fn serve_once(
    data: &CityData,
    seed: u64,
    source: &EventSource,
    files: &Files,
) -> Result<(Served, f64), String> {
    files.clear()?;
    let config = files.config(seed);
    let start = Instant::now();
    let summary = serve_to_files(data, &config, source, None, Some(&files.report))?;
    let secs = start.elapsed().as_secs_f64();
    if summary.recovered || summary.cold_fallback {
        return Err("correctness gate: a cold serve run recovered from a checkpoint".to_string());
    }
    let served = Served {
        report: read(&files.report)?,
        checkpoint: read(&files.checkpoint)?,
        stats: summary.stats,
    };
    same(
        "serve report file",
        &format!("{}\n", summary.report.render()),
        &served.report,
    )?;
    check_stats(source, &served.stats)?;
    Ok((served, secs))
}

/// Every event is processed or shed, and none is shed at the stream's
/// own timestamps.
///
/// # Errors
///
/// On any violated count.
pub fn check_stats(source: &EventSource, stats: &ServiceStats) -> Result<(), String> {
    same(
        "serve events consumed",
        &(source.len() as u64),
        &stats.events,
    )?;
    same(
        "serve processed + shed",
        &stats.events,
        &(stats.probes + stats.assocs + stats.shed),
    )?;
    same("serve shed at stream timestamps", &0, &stats.shed)?;
    Ok(())
}

/// A repetition must reproduce the first one exactly.
fn check_repeat(first: &Served, again: &Served) -> Result<(), String> {
    same(
        "serve report across repetitions",
        &first.report,
        &again.report,
    )?;
    same(
        "serve counters across repetitions",
        &first.stats,
        &again.stats,
    )?;
    if first.checkpoint != again.checkpoint {
        return Err(format!(
            "correctness gate: serve's last checkpoint differs across repetitions ({} vs {} bytes)",
            first.checkpoint.len(),
            again.checkpoint.len()
        ));
    }
    Ok(())
}

fn model_lines(out: &mut Outcome, report: &str) {
    // The service's latency and deadline figures come from its virtual
    // cost model, not from a clock.
    if let Ok(json) = ch_fleet::Json::parse(report.trim()) {
        let get = |key: &str| json.get(key).and_then(ch_fleet::Json::as_u64).unwrap_or(0);
        let misses = json
            .get("stats")
            .and_then(|s| s.get("deadline_misses"))
            .and_then(ch_fleet::Json::as_u64)
            .unwrap_or(0);
        out.line(format!(
            "model.serve_latency_p50_us {} | model.serve_latency_p99_us {} | model.deadline_misses {misses} \
             (virtual cost model, not measured)",
            get("p50_us"),
            get("p99_us"),
        ));
    }
}

/// Wire lines the service emitted: lures, beacons and checkpoint marks.
fn wire_lines(stats: &ServiceStats) -> u64 {
    stats.lures + stats.beacons + stats.checkpoints
}

/// The untraced run: timed cold `serve_to_files` repetitions, each
/// compared with the first, interleaved with set-up samples.
///
/// # Errors
///
/// Any I/O failure or gate mismatch.
pub fn run(
    data: &CityData,
    seed: u64,
    size: &Size,
    seconds: f64,
    files: &Files,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let source = stream(data, seed, size)?;
    let mut reference: Option<Served> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let samples = sample_loop(
        seconds,
        size.min_reps,
        || setup::time_once(false),
        || {
            let (served, secs) = serve_once(data, seed, &source, files)?;
            attempted += served.stats.events;
            failed += served.stats.shed + served.stats.malformed;
            match &reference {
                Some(first) => check_repeat(first, &served)?,
                None => reference = Some(served),
            }
            Ok(secs)
        },
    )?;
    let first = reference.ok_or("serve: no repetition ran")?;
    let run_s = samples.report(
        &mut out,
        "serve",
        "serve_to_files wall; set-up is the city only",
    );
    let s = &first.stats;
    out.line(format!(
        "serve counts: events {} (probes {}, assocs {}) | lures {} | hits {} | wire lines {} \
         | checkpoints {} | last checkpoint {} bytes | report {} bytes | shed {} | malformed {}",
        s.events,
        s.probes,
        s.assocs,
        s.lures,
        s.hits,
        wire_lines(s),
        s.checkpoints,
        first.checkpoint.len(),
        first.report.len(),
        s.shed,
        s.malformed,
    ));
    model_lines(&mut out, &first.report);
    out.line(format!(
        "serve events_per_s: {:.0}",
        s.events as f64 / run_s
    ));
    out.attempted = attempted;
    out.failed = failed;
    Ok(out)
}

/// Per-call timings of the traced replay.
#[derive(Debug, Default)]
struct Replay {
    broadcast_ns: Vec<u64>,
    direct_ns: Vec<u64>,
    assoc_ns: Vec<u64>,
    encode_ns: u64,
    checkpoint_ms: Vec<f64>,
    checkpoint_bytes: usize,
    lines: u64,
    bytes: u64,
    clients: usize,
    stats: ServiceStats,
    db_len: u64,
    secs: f64,
}

fn io<T>(what: &str, result: std::io::Result<T>) -> Result<T, String> {
    result.map_err(|e| format!("serve replay: {what}: {e}"))
}

/// Replays `serve_to_files`' call order with a timer around each call:
/// `Service::process` per event, `encode_output` per emitted event, and
/// `checkpoint::to_json(..).render()` every checkpoint interval, followed
/// by the same atomic checkpoint write (tmp file, then rename).
fn replay(
    data: &CityData,
    seed: u64,
    source: &EventSource,
    files: &Files,
) -> Result<Replay, String> {
    files.clear()?;
    let config = files.config(seed);
    let every = config.checkpoint_every;
    let checkpoint = config
        .checkpoint_path
        .clone()
        .ok_or("serve: no checkpoint path")?;
    let tmp = checkpoint.with_extension("tmp");
    let mut r = Replay::default();
    let start = Instant::now();
    let mut service = Service::new(data, config);
    let mut emit: Vec<OutputEvent> = Vec::new();
    let mut last_checkpoint = None;
    let encode = |output: &OutputEvent, r: &mut Replay| {
        let t = Instant::now();
        let line = encode_output(output);
        r.encode_ns += t.elapsed().as_nanos() as u64;
        r.lines += 1;
        r.bytes += line.len() as u64 + 1;
    };
    for event in source.events() {
        let t = Instant::now();
        service.process(event, &mut emit);
        let ns = t.elapsed().as_nanos() as u64;
        match event {
            InputEvent::Probe { ssid: None, .. } => r.broadcast_ns.push(ns),
            InputEvent::Probe { .. } => r.direct_ns.push(ns),
            InputEvent::Assoc { .. } => r.assoc_ns.push(ns),
        }
        for output in &emit {
            encode(output, &mut r);
        }
        let acked = service.acked();
        if every > 0 && acked.is_multiple_of(every) {
            let mark = OutputEvent::Checkpoint {
                t_us: service.clock_us(),
                acked,
            };
            encode(&mark, &mut r);
            let t = Instant::now();
            // No output file, so no output bytes to record, as in
            // `serve_to_files` without one.
            let json = ch_serve::checkpoint::to_json(&service, 0);
            let rendered = json.render();
            r.checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
            r.checkpoint_bytes = r.checkpoint_bytes.max(rendered.len());
            io("write checkpoint", fs::write(&tmp, &rendered))?;
            io("rename checkpoint", fs::rename(&tmp, &checkpoint))?;
            last_checkpoint = Some(json);
        }
    }
    r.secs = start.elapsed().as_secs_f64();
    r.clients = last_checkpoint
        .as_ref()
        .and_then(|json| json.get("offered"))
        .and_then(ch_fleet::Json::as_arr)
        .map_or(0, <[ch_fleet::Json]>::len);
    r.db_len = service
        .report()
        .get("db_len")
        .and_then(ch_fleet::Json::as_u64)
        .unwrap_or(0);
    r.stats = *service.stats();
    Ok(r)
}

/// The traced run: one untraced `serve_to_files` repetition and its
/// timed replay, whose counters must match.
///
/// # Errors
///
/// Any I/O failure or gate mismatch.
pub fn traced(data: &CityData, seed: u64, size: &Size, files: &Files) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let source = stream(data, seed, size)?;
    let (served, serve_s) = serve_once(data, seed, &source, files)?;
    let r = replay(data, seed, &source, files)?;
    // The replay cannot bump the service's checkpoint counter (it is
    // private to the crate); it counts its checkpoints itself.
    same(
        "serve replay checkpoints",
        &served.stats.checkpoints,
        &(r.checkpoint_ms.len() as u64),
    )?;
    same(
        "serve replay counters",
        &served.stats,
        &ServiceStats {
            checkpoints: served.stats.checkpoints,
            ..r.stats
        },
    )?;
    same(
        "serve replay wire lines",
        &wire_lines(&served.stats),
        &r.lines,
    )?;
    out.attempted = served.stats.events * 2;
    out.failed = served.stats.shed + served.stats.malformed;

    let total_ns = r.secs * 1e9;
    let process_ns: u64 = r
        .broadcast_ns
        .iter()
        .chain(&r.direct_ns)
        .chain(&r.assoc_ns)
        .sum();
    let checkpoint_ns = r.checkpoint_ms.iter().sum::<f64>() * 1e6;
    let share_process = process_ns as f64 / total_ns;
    let share_encode = r.encode_ns as f64 / total_ns;
    let share_checkpoint = checkpoint_ns / total_ns;
    for (name, samples, pct) in [
        ("serve.process_bcast_ns_p50", &r.broadcast_ns, 50.0),
        ("serve.process_bcast_ns_p99", &r.broadcast_ns, 99.0),
        ("serve.process_direct_ns_p50", &r.direct_ns, 50.0),
        ("serve.process_assoc_ns_p50", &r.assoc_ns, 50.0),
    ] {
        match percentile_ns(samples, pct) {
            Some(value) => out.metric(name, "ns", value),
            None => out.line(format!(
                "{name}: withheld, fewer than 10 of {} samples beyond it",
                samples.len()
            )),
        }
    }
    out.metric(
        "serve.encode_ns_per_line",
        "ns",
        r.encode_ns as f64 / r.lines.max(1) as f64,
    );
    out.metric("serve.lines", "count", r.lines as f64);
    out.metric("serve.bytes", "bytes", r.bytes as f64);
    out.metric("serve.checkpoints", "count", r.checkpoint_ms.len() as f64);
    if let Some(s) = Summary::of(&r.checkpoint_ms) {
        out.line(format!("serve.checkpoint_ms: {}", s.describe(1.0, "ms")));
        out.metric("serve.checkpoint_ms_p50", "ms", s.median);
        out.metric("serve.checkpoint_ms_max", "ms", s.max);
    }
    out.metric(
        "serve.checkpoint_bytes_max",
        "bytes",
        r.checkpoint_bytes as f64,
    );
    out.metric("serve.share_process", "ratio", share_process);
    out.metric("serve.share_encode", "ratio", share_encode);
    out.metric("serve.share_checkpoint", "ratio", share_checkpoint);
    out.metric(
        "serve.share_io",
        "ratio",
        1.0 - share_process - share_encode - share_checkpoint,
    );
    out.metric("serve.clients", "count", r.clients as f64);
    out.metric("serve.db_len", "count", r.db_len as f64);
    let overhead = r.secs / serve_s - 1.0;
    out.metric("trace.overhead_serve", "ratio", overhead);
    out.line(format!(
        "serve: {} events, {} wire lines, {} bytes encoded, {} checkpoints (largest {} bytes), \
         {} clients; replay {:.3} s vs serve_to_files {serve_s:.3} s ({:+.1}% tracing overhead)",
        served.stats.events,
        r.lines,
        r.bytes,
        r.checkpoint_ms.len(),
        r.checkpoint_bytes,
        r.clients,
        r.secs,
        overhead * 100.0
    ));
    model_lines(&mut out, &served.report);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ch_scenarios::experiments::CITY_SEED;

    fn tiny() -> Size {
        Size {
            minutes: 8,
            arrivals: 2.0,
            events: 300,
            min_reps: 2,
        }
    }

    #[test]
    fn tiny_serve_passes_the_gate_and_tampered_results_fail() {
        let data = CityData::standard(CITY_SEED);
        let files = Files::new(Path::new(".bench_work/test-serve-gate")).unwrap();
        let out = run(&data, 2, &tiny(), 0.0, &files).unwrap();
        assert_eq!(out.attempted, 2 * 300);
        assert_eq!(out.failed, 0);

        let source = stream(&data, 2, &tiny()).unwrap();
        let (served, _) = serve_once(&data, 2, &source, &files).unwrap();
        let mut tampered = served.clone();
        tampered.stats.hits += 1;
        assert!(check_repeat(&served, &tampered).is_err());
        let mut torn = served.clone();
        torn.checkpoint.pop();
        assert!(check_repeat(&served, &torn)
            .unwrap_err()
            .contains("checkpoint"));
        let shed = ServiceStats {
            shed: 1,
            probes: served.stats.probes - 1,
            ..served.stats
        };
        assert!(check_stats(&source, &shed).unwrap_err().contains("shed"));
        files.remove();
    }

    #[test]
    fn tiny_traced_replay_matches_serve_to_files() {
        let data = CityData::standard(CITY_SEED);
        let files = Files::new(Path::new(".bench_work/test-serve-trace")).unwrap();
        let out = traced(&data, 2, &tiny(), &files).unwrap();
        files.remove();
        for name in [
            "serve.lines",
            "serve.checkpoints",
            "serve.clients",
            "serve.db_len",
        ] {
            assert!(
                out.metrics.iter().any(|m| m.name == name && m.value > 0.0),
                "{name}"
            );
        }
    }

    #[test]
    fn a_stream_shorter_than_the_size_is_refused() {
        let data = CityData::standard(CITY_SEED);
        let size = Size {
            events: 1_000_000,
            ..tiny()
        };
        assert!(stream(&data, 2, &size)
            .unwrap_err()
            .contains("need 1000000"));
    }
}
