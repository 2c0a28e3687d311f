//! The service core and the file-backed serve loop.
//!
//! The core ([`Service`]) is **wall-clock-free**: time is the stream's
//! virtual time. Every input event carries an arrival timestamp; the
//! service charges a deterministic per-event cost
//! ([`BASE_PROBE_COST_US`] + [`PER_LURE_COST_US`] per lure for probes,
//! [`ASSOC_COST_US`] for associations) and tracks a virtual completion
//! clock. Queueing is modelled explicitly: an event whose arrival finds
//! [`ServeConfig::ring_capacity`] earlier events still in virtual service
//! is **shed and counted** — open-loop overload produces backpressure
//! numbers, not silent drops and not panics. Latency (completion −
//! arrival) feeds a log₂ histogram (p50/p99 for the bench and report) and
//! a per-event deadline watchdog.
//!
//! Everything the core computes is a pure function of the input stream,
//! which is what makes the state checkpointable ([`crate::checkpoint`])
//! and a kill-and-recover run byte-identical to an uninterrupted one.
//! Wall-clock concerns (file I/O with retry, throttling for the chaos
//! gate) live only in [`serve_to_files`].

use std::collections::VecDeque;
use std::io::{Seek, Write};
use std::path::{Path, PathBuf};

use ch_attack::{AttackSitePlan, Attacker, AttackerSpec, Lure};
use ch_fleet::{fingerprint, Json, RetryPolicy, TRANSIENT_PREFIX};
use ch_mobility::VenueKind;
use ch_sim::{DetHashMap, SimTime};
use ch_wifi::mgmt::ProbeRequest;
use ch_wifi::MacAddr;

use ch_scenarios::CityData;

use crate::protocol::{encode_output, InputEvent, OutputEvent, ServiceStats, PROTOCOL_VERSION};
use crate::source::EventSource;

/// Virtual cost charged per probe event before lures, microseconds.
pub const BASE_PROBE_COST_US: u64 = 60;
/// Virtual cost charged per emitted lure (≈ one probe-response airtime).
pub const PER_LURE_COST_US: u64 = 25;
/// Virtual cost charged per association event, microseconds.
pub const ASSOC_COST_US: u64 = 80;

/// Latency histogram buckets (log₂ of microseconds).
const HIST_BUCKETS: usize = 64;

/// How the service runs: attacker, stream semantics, robustness knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Attacker to deploy (any generation, plain or evasive).
    pub spec: AttackerSpec,
    /// Master seed: builds the city the attacker's WiGLE seed comes from.
    pub seed: u64,
    /// Deployment venue (fixes the attack site within the city).
    pub venue: VenueKind,
    /// Lures per broadcast probe (the §III-A reception budget).
    pub lure_budget: usize,
    /// Ingest ring capacity: events concurrently in virtual service
    /// before arrivals are shed.
    pub ring_capacity: usize,
    /// Per-event latency deadline (queueing + service), microseconds.
    pub deadline_us: u64,
    /// Commit a checkpoint every N acked events (0 disables).
    pub checkpoint_every: u64,
    /// Where checkpoints live; `None` disables checkpointing entirely.
    pub checkpoint_path: Option<PathBuf>,
    /// Emit a `stats` wire event every N acked events (0 disables).
    pub stats_every: u64,
    /// Wall-clock sleep per event, milliseconds — slows the loop so the
    /// chaos gate can `kill -9` it mid-stream. Never affects results.
    pub throttle_ms: u64,
    /// Retry policy for service file operations (checkpoint/output/report
    /// writes); transient failures back off on the deterministic
    /// [`RetryPolicy::backoff_ms`] schedule.
    pub io_retry: RetryPolicy,
}

impl ServeConfig {
    /// Service defaults for an attacker + seed: canteen venue, 40-lure
    /// budget, 64-deep ring, 100 ms deadline, checkpoint every 256
    /// events (once a path is set), 3 I/O retries with 10 ms → 1 s
    /// backoff.
    pub fn new(spec: AttackerSpec, seed: u64) -> ServeConfig {
        ServeConfig {
            spec,
            seed,
            venue: VenueKind::Canteen,
            lure_budget: 40,
            ring_capacity: 64,
            deadline_us: 100_000,
            checkpoint_every: 256,
            checkpoint_path: None,
            stats_every: 0,
            throttle_ms: 0,
            io_retry: RetryPolicy::retries(3).with_backoff(10, 1_000),
        }
    }

    /// The configuration fingerprint a checkpoint must match to be
    /// restored: protocol version plus every axis that changes the
    /// deterministic outcome.
    pub fn fingerprint(&self) -> u64 {
        fingerprint(&[
            PROTOCOL_VERSION,
            &format!("{:?}", self.spec),
            &self.seed.to_string(),
            &format!("{:?}", self.venue),
            &self.lure_budget.to_string(),
            &self.ring_capacity.to_string(),
            &self.deadline_us.to_string(),
        ])
    }
}

/// The streaming service: one attacker plus the virtual ingest state.
pub struct Service {
    pub(crate) config: ServeConfig,
    pub(crate) fingerprint: u64,
    pub(crate) attacker: Box<dyn Attacker>,
    /// Virtual completion time of the last processed event.
    pub(crate) clock_us: u64,
    /// Completion times of events still in virtual service (the ring).
    pub(crate) inflight: VecDeque<u64>,
    /// Last lure burst offered per client — matches associations back to
    /// lures for [`Attacker::on_hit`].
    pub(crate) offered: DetHashMap<MacAddr, Vec<Lure>>,
    pub(crate) stats: ServiceStats,
    /// log₂(latency µs) histogram.
    pub(crate) hist: Vec<u64>,
    lure_scratch: Vec<Lure>,
}

impl Service {
    /// Builds the service: instantiates the attacker at the configured
    /// venue's attack site within the seed-derived city.
    pub fn new(data: &CityData, config: ServeConfig) -> Service {
        let plan = AttackSitePlan::build(&data.wigle, &data.heat, data.site_for(config.venue));
        let attacker = config
            .spec
            .build_from_plan(AttackerSpec::default_bssid(), &plan);
        let fingerprint = config.fingerprint();
        Service {
            config,
            fingerprint,
            attacker,
            clock_us: 0,
            inflight: VecDeque::new(),
            offered: DetHashMap::default(),
            stats: ServiceStats::default(),
            hist: vec![0; HIST_BUCKETS],
            lure_scratch: Vec::new(),
        }
    }

    /// The configuration fingerprint (checkpoint validity check).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The monotone counters.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Virtual completion time of the last processed event, microseconds.
    pub fn clock_us(&self) -> u64 {
        self.clock_us
    }

    /// Input events consumed so far (processed + shed) — the replay
    /// offset a checkpoint records.
    pub fn acked(&self) -> u64 {
        self.stats.events
    }

    /// Consumes one input event. Reactions (lures, beacons) are appended
    /// to `emit`, which is cleared first. Never panics: overload sheds
    /// with a counted stat, unknown associations count as unmatched.
    pub fn process(&mut self, event: &InputEvent, emit: &mut Vec<OutputEvent>) {
        emit.clear();
        self.stats.events += 1;
        let arrival = event.t_us();

        // Drain virtual completions up to this arrival.
        while self.inflight.front().is_some_and(|&done| done <= arrival) {
            self.inflight.pop_front();
        }
        // Bounded ingest: a full ring sheds the arrival, explicitly.
        if self.inflight.len() >= self.config.ring_capacity.max(1) {
            self.stats.shed += 1;
            return;
        }

        let start = arrival.max(self.clock_us);
        let cost = match event {
            InputEvent::Probe { client, ssid, .. } => {
                self.stats.probes += 1;
                let probe = match ssid {
                    Some(ssid) => ProbeRequest::direct(*client, ssid.clone()),
                    None => ProbeRequest::broadcast(*client),
                };
                self.attacker.respond_to_probe_into(
                    SimTime::from_micros(start),
                    &probe,
                    self.config.lure_budget,
                    &mut self.lure_scratch,
                );
                let cost = BASE_PROBE_COST_US.saturating_add(
                    PER_LURE_COST_US.saturating_mul(self.lure_scratch.len() as u64),
                );
                let completion = start.saturating_add(cost);
                self.stats.lures += self.lure_scratch.len() as u64;
                for lure in &self.lure_scratch {
                    emit.push(OutputEvent::Lure {
                        t_us: completion,
                        client: *client,
                        ssid: lure.ssid.clone(),
                        source: lure.source,
                        lane: lure.lane,
                    });
                }
                // Remember the burst so a later association can be
                // matched back to the exact lure that caused it.
                let entry = self.offered.entry(*client).or_default();
                entry.clear();
                entry.extend(self.lure_scratch.iter().cloned());
                cost
            }
            InputEvent::Assoc { client, ssid, .. } => {
                self.stats.assocs += 1;
                let completion = start.saturating_add(ASSOC_COST_US);
                let hit = self
                    .offered
                    .get(client)
                    .and_then(|burst| burst.iter().find(|lure| &lure.ssid == ssid))
                    .cloned();
                match hit {
                    Some(lure) => {
                        self.stats.hits += 1;
                        self.attacker
                            .on_hit(SimTime::from_micros(completion), *client, &lure);
                    }
                    // An association we never lured (foreign traffic, a
                    // replayed capture of someone else's AP): counted,
                    // not dropped silently, never fatal.
                    None => self.stats.unmatched_assocs += 1,
                }
                ASSOC_COST_US
            }
        };

        let completion = start.saturating_add(cost);
        self.clock_us = completion;
        self.inflight.push_back(completion);

        // Watchdog: queueing + service latency against the deadline.
        let latency = completion.saturating_sub(arrival);
        if latency > self.config.deadline_us {
            self.stats.deadline_misses += 1;
        }
        let bucket = (u64::BITS - latency.leading_zeros()) as usize;
        if let Some(slot) = self.hist.get_mut(bucket.min(HIST_BUCKETS - 1)) {
            *slot += 1;
        }

        // Beacon poll, once per processed event (the runner's idiom).
        if let Some(beacon) = self.attacker.beacon(SimTime::from_micros(completion)) {
            self.stats.beacons += 1;
            emit.push(OutputEvent::Beacon {
                t_us: completion,
                bssid: beacon.bssid,
                ssid: beacon.ssid,
            });
        }
    }

    /// Latency percentile (upper bound of the log₂ bucket the
    /// percentile falls in), microseconds. `pct` in `[0, 100]`.
    pub fn latency_percentile_us(&self, pct: f64) -> u64 {
        let total: u64 = self.hist.iter().sum();
        if total == 0 {
            return 0;
        }
        let pct = pct.clamp(0.0, 100.0);
        // Smallest rank whose cumulative share reaches pct.
        let target = ((total as f64) * pct / 100.0).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (bucket, &count) in self.hist.iter().enumerate() {
            cumulative += count;
            if cumulative >= target {
                return if bucket == 0 {
                    0
                } else {
                    (1u64 << bucket.min(63)) - 1
                };
            }
        }
        u64::MAX
    }

    /// The final report as a JSON object (fixed key order). Every field
    /// is derived from the input stream alone, so an interrupted-and-
    /// recovered run renders a byte-identical report.
    pub fn report(&self) -> Json {
        let fields = vec![
            ("v".to_string(), Json::str(PROTOCOL_VERSION)),
            ("kind".to_string(), Json::str("report")),
            ("attacker".to_string(), Json::str(self.attacker.name())),
            ("seed".to_string(), Json::from_u64(self.config.seed)),
            (
                "venue".to_string(),
                Json::str(format!("{:?}", self.config.venue)),
            ),
            (
                "fingerprint".to_string(),
                Json::str(self.fingerprint.to_string()),
            ),
            ("clock_us".to_string(), Json::from_u64(self.clock_us)),
            (
                "p50_us".to_string(),
                Json::from_u64(self.latency_percentile_us(50.0)),
            ),
            (
                "p99_us".to_string(),
                Json::from_u64(self.latency_percentile_us(99.0)),
            ),
            (
                "db_len".to_string(),
                Json::from_usize(self.attacker.database_len()),
            ),
            ("stats".to_string(), self.stats.to_json()),
        ];
        Json::Obj(fields)
    }
}

/// What [`serve_to_files`] did, beyond the counters.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Final counters.
    pub stats: ServiceStats,
    /// The rendered final report.
    pub report: Json,
    /// `true` if the run resumed warm from a checkpoint.
    pub recovered: bool,
    /// `true` if a checkpoint existed but was unusable (corrupt,
    /// truncated, or from a different configuration) and the service
    /// fell back to a cold start — counted, never silent.
    pub cold_fallback: bool,
    /// Input index the run resumed from (0 for cold starts).
    pub resumed_at: u64,
}

/// Runs a service file op under the retry policy. Transient error kinds
/// (interrupted, would-block, timed-out) are retried with the
/// deterministic backoff schedule; an exhausted transient carries
/// [`TRANSIENT_PREFIX`] so a supervising fleet campaign can classify it.
pub(crate) fn retry_io<T>(
    policy: &RetryPolicy,
    seed: u64,
    key: &str,
    mut op: impl FnMut() -> std::io::Result<T>,
) -> Result<T, String> {
    let mut attempt = 0usize;
    loop {
        match op() {
            Ok(value) => return Ok(value),
            Err(e) => {
                let transient = matches!(
                    e.kind(),
                    std::io::ErrorKind::Interrupted
                        | std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                );
                if transient && attempt + 1 < policy.max_attempts() {
                    attempt += 1;
                    let wait = policy.backoff_ms(seed, key, attempt);
                    if wait > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(wait));
                    }
                    continue;
                }
                return Err(if transient {
                    format!(
                        "{TRANSIENT_PREFIX} service op `{key}` failed after {} attempt(s): {e}",
                        attempt + 1
                    )
                } else {
                    format!("service op `{key}` failed: {e}")
                });
            }
        }
    }
}

/// Atomically writes `content` at `path` (stage to `{path}.tmp`, then
/// rename), under the retry policy.
pub(crate) fn atomic_write(
    policy: &RetryPolicy,
    seed: u64,
    key: &str,
    path: &Path,
    content: &str,
) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    retry_io(policy, seed, key, || {
        std::fs::write(&tmp, content)?;
        std::fs::rename(&tmp, path)
    })
}

/// Runs the full file-backed serve loop: recover-or-cold-start, process
/// the stream, write wire output, checkpoint periodically, and commit the
/// final report atomically.
///
/// Recovery contract: with a checkpoint path configured, a process killed
/// at any instant restarts warm from the last committed checkpoint, the
/// output stream is truncated back to that checkpoint's acked byte
/// offset, and the remainder of the run replays — the final report *and*
/// the output stream are byte-identical to an uninterrupted run's. An
/// unusable checkpoint (torn, corrupt, foreign fingerprint) triggers a
/// **counted** cold start instead.
///
/// # Errors
///
/// A rendered message on unrecoverable I/O failure; transient-classified
/// failures that exhausted their retries carry the fleet's `transient:`
/// prefix.
pub fn serve_to_files(
    data: &CityData,
    config: &ServeConfig,
    source: &EventSource,
    out_path: Option<&Path>,
    report_path: Option<&Path>,
) -> Result<ServeSummary, String> {
    let mut service = Service::new(data, config.clone());
    let mut recovered = false;
    let mut cold_fallback = false;
    let mut out_bytes = 0u64;

    if let Some(cp_path) = &config.checkpoint_path {
        match crate::checkpoint::load(cp_path) {
            Ok(Some(cp)) => match crate::checkpoint::restore(&mut service, &cp) {
                Ok(point) => {
                    recovered = true;
                    out_bytes = point.out_bytes;
                }
                Err(reason) => {
                    // Half-applied restores must not leak: rebuild cold.
                    service = Service::new(data, config.clone());
                    cold_fallback = true;
                    eprintln!("ch-serve: checkpoint unusable ({reason}); cold start");
                }
            },
            Ok(None) => {}
            Err(reason) => {
                cold_fallback = true;
                eprintln!("ch-serve: checkpoint unreadable ({reason}); cold start");
            }
        }
    }
    let resumed_at = service.acked();
    if recovered {
        eprintln!(
            "ch-serve: recovered warm from checkpoint at event {resumed_at} \
             (clock {} us); replaying remainder",
            service.clock_us()
        );
    }

    let seed = config.seed;
    let policy = config.io_retry;
    let mut out = match out_path {
        Some(path) => {
            let mut file = if recovered {
                // Truncate back to the acked prefix, then append: bytes
                // written after the last checkpoint are replayed below.
                let file = retry_io(&policy, seed, "out-reopen", || {
                    std::fs::OpenOptions::new()
                        .read(true)
                        .write(true)
                        .open(path)
                })?;
                retry_io(&policy, seed, "out-truncate", || file.set_len(out_bytes))?;
                file
            } else {
                out_bytes = 0;
                retry_io(&policy, seed, "out-create", || std::fs::File::create(path))?
            };
            retry_io(&policy, seed, "out-seek", || {
                file.seek(std::io::SeekFrom::End(0))
            })?;
            Some(file)
        }
        None => None,
    };

    let mut emit: Vec<OutputEvent> = Vec::new();
    let mut line_buf = String::new();
    let total = source.len() as u64;
    // Malformed source records are part of the stream identity; set, not
    // added, so recovery does not double-count.
    service.stats.malformed = source.malformed;

    let write_line =
        |out: &mut Option<std::fs::File>, out_bytes: &mut u64, line: &str| -> Result<(), String> {
            if let Some(file) = out {
                retry_io(&policy, seed, "out-write", || {
                    file.write_all(line.as_bytes())?;
                    file.write_all(b"\n")
                })?;
                *out_bytes += line.len() as u64 + 1;
            }
            Ok(())
        };

    for index in resumed_at..total {
        let Some(event) = source.events().get(index as usize) else {
            break;
        };
        if config.throttle_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(config.throttle_ms));
        }
        service.process(event, &mut emit);
        for output in &emit {
            line_buf.clear();
            line_buf.push_str(&encode_output(output));
            write_line(&mut out, &mut out_bytes, &line_buf)?;
        }
        let acked = service.acked();
        if config.stats_every > 0 && acked.is_multiple_of(config.stats_every) {
            let line = encode_output(&OutputEvent::Stats {
                t_us: service.clock_us(),
                stats: *service.stats(),
            });
            write_line(&mut out, &mut out_bytes, &line)?;
        }
        if config.checkpoint_every > 0 && acked.is_multiple_of(config.checkpoint_every) {
            if let Some(cp_path) = &config.checkpoint_path {
                // Counter and wire mark go in *before* the save so the
                // checkpointed state already contains them — the
                // recovered continuation then matches the uninterrupted
                // run line for line.
                service.stats.checkpoints += 1;
                let line = encode_output(&OutputEvent::Checkpoint {
                    t_us: service.clock_us(),
                    acked,
                });
                write_line(&mut out, &mut out_bytes, &line)?;
                if let Some(file) = &mut out {
                    retry_io(&policy, seed, "out-flush", || file.sync_data())?;
                }
                let rendered = crate::checkpoint::to_json(&service, out_bytes).render();
                atomic_write(&policy, seed, "checkpoint-write", cp_path, &rendered)?;
            }
        }
    }

    if let Some(file) = &mut out {
        retry_io(&policy, seed, "out-final-flush", || file.sync_data())?;
    }
    let report = service.report();
    if let Some(path) = report_path {
        let mut rendered = report.render();
        rendered.push('\n');
        atomic_write(&policy, seed, "report-write", path, &rendered)?;
    }

    Ok(ServeSummary {
        stats: *service.stats(),
        report,
        recovered,
        cold_fallback,
        resumed_at,
    })
}
