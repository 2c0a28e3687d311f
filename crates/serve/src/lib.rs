// Panic-freedom gate (clippy side of ch-lint rule R3); tests are exempt.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

//! # ch-serve — the crash-safe streaming attacker service
//!
//! Runs any of the four attacker generations (plain or wrapped in an
//! [`ch_attack::EvasiveAttacker`]) as a long-lived service over a
//! versioned NDJSON wire protocol: probe/association events in, lure /
//! beacon / stats events out. The robustness spine, in order of what
//! kills real deployments:
//!
//! * **bounded ingest** ([`service`]) — a fixed-capacity virtual ingest
//!   ring with explicit backpressure: an open-loop burst past capacity is
//!   *shed and counted*, never silently dropped and never a panic;
//! * **deadline watchdog** — every event's queueing + service latency is
//!   checked against a per-event deadline and misses are counted;
//! * **checkpointed recovery** ([`checkpoint`]) — periodic atomic
//!   (tmp + rename) checkpoints of the queue state and the attacker's
//!   learned [`ch_attack::AttackerState`], so a `kill -9` mid-stream
//!   restarts warm, replays from the last acked offset, and produces a
//!   final report (and output stream) byte-identical to an uninterrupted
//!   run. A truncated or corrupted checkpoint falls back to a *counted*
//!   cold start;
//! * **counted-skip decode** ([`protocol`], [`source`]) — malformed wire
//!   lines and mangled pcap records are tallied and skipped, mirroring
//!   `ch_wifi::pcap::read_capture_lenient`;
//! * **classified I/O retry** — service file operations retry under
//!   `ch_fleet::RetryPolicy` with the deterministic exponential backoff
//!   schedule, and exhausted transient failures carry the fleet's
//!   `transient:` prefix so a supervising campaign can re-run them.
//!
//! The service core is wall-clock-free: time is the *stream's* virtual
//! time (event timestamps plus a deterministic per-event service cost),
//! which is what makes every counter — sheds, deadline misses, latency
//! percentiles — reproducible and checkpointable. Wall-clock throughput
//! is measured outside it, by the `serve` workload of `benchmark/`.

pub mod checkpoint;
pub mod protocol;
pub mod service;
pub mod source;

pub use protocol::{InputEvent, OutputEvent, ProtocolError, ServiceStats, PROTOCOL_VERSION};
pub use service::{serve_to_files, ServeConfig, ServeSummary, Service};
pub use source::EventSource;
