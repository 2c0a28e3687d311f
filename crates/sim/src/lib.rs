//! # ch-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate every other City-Hunter crate builds on. It
//! provides:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution simulation time,
//!   the unit in which 802.11 scan timing (10 ms dwell windows, 0.25 ms probe
//!   responses) is expressed.
//! * [`EventQueue`] — a time-ordered queue with deterministic FIFO
//!   tie-breaking, so that two events scheduled for the same instant always
//!   fire in the order they were scheduled.
//! * [`SimRng`] — a seeded random-number generator with the distribution
//!   helpers the workload generators need (Zipf, Poisson, exponential,
//!   normal), plus deterministic *forking* so each subsystem gets an
//!   independent but reproducible stream.
//! * [`space`] — 2-D positions in metres and simple geometry.
//! * [`medium`] — a shared-channel airtime model with a distance-based
//!   delivery gate, the abstraction standing in for the real radio.
//! * [`fault`] — deterministic, seed-derived fault injection (bursty
//!   Gilbert–Elliott loss, frame corruption, client churn, scheduled
//!   attacker crashes) for the robustness studies.
//!
//! Everything is deterministic: the same seed produces bit-identical
//! simulations, which is what lets the benchmark harness regenerate every
//! table and figure of the paper reproducibly.
//!
//! ```
//! use ch_sim::{EventQueue, SimDuration, SimRng, SimTime};
//!
//! let mut queue = EventQueue::new();
//! queue.push(SimTime::ZERO + SimDuration::from_millis(10), "scan");
//! queue.push(SimTime::ZERO + SimDuration::from_millis(5), "arrive");
//! let (t, what) = queue.pop().unwrap();
//! assert_eq!(what, "arrive");
//! assert_eq!(t, SimTime::from_millis(5));
//!
//! let mut rng = SimRng::seed_from(42);
//! let dwell = rng.range_f64(0.5, 2.0);
//! assert!((0.5..2.0).contains(&dwell));
//! ```

pub mod alloc;
pub mod collections;
pub mod fault;
pub mod invariant;
pub mod medium;
pub mod queue;
pub mod rng;
pub mod space;
pub mod stats;
pub mod time;

pub use collections::{det_hash_map, det_hash_set, DetHashMap, DetHashSet, FxHasher};
pub use fault::{CrashMode, FaultPlan, FaultSpec};
pub use medium::{DeliveryOutcome, LossModel, RadioMedium};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use space::{Position, Rect};
pub use stats::Summary;
pub use time::{Cadence, SimDuration, SimTime};
