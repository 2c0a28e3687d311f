// Panic-freedom gate (clippy side of ch-lint rule R3); tests are exempt.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

//! # ch-attack — the evil-twin attackers
//!
//! Three generations of SSID-luring attack, all implementing the same
//! [`Attacker`] interface so the `ch-scenarios` runner can deploy any of
//! them into any venue:
//!
//! * [`KarmaAttacker`] — answers only *direct* probes by mimicking the
//!   requested SSID (Dai Zovi & Macaulay 2005). `h_b = 0` by construction.
//! * [`ManaAttacker`] — additionally harvests direct-probe SSIDs into a
//!   database and replays it to *broadcast* probes (Dominic & de Vries,
//!   DEF CON 22). Its §III flaws are reproduced deliberately: no WiGLE
//!   seed, and the whole database is replayed from the top every scan, so
//!   only the first ~40 SSIDs ever reach a client.
//! * [`PrelimCityHunter`] — §III's two fixes: a WiGLE seed (top-200 by
//!   heat + 100 nearby) and per-client *untried* tracking.
//! * [`CityHunter`] — §IV's full design: weighted database with online
//!   updates, a Popularity Buffer and Freshness Buffer with ghost lists,
//!   and ARC-style adaptive sizing; optional §V-B extensions
//!   (deauthentication forcing, carrier-SSID preload) via [`ext`].
//!
//! Any generation can additionally be wrapped in an [`EvasiveAttacker`]
//! ([`evasion`]) — MAC/OUI rotation, beacon cloning, and response
//! throttling against the `ch-detect` rogue-AP detector.
//!
//! Each generation keeps what it learns online in one state struct
//! ([`CityHunterState`], [`PrelimState`], [`ManaState`], KARMA's mimic
//! log, the wrapper's [`EvasionState`]). The fault plane's checkpoint and
//! crash-restart hooks copy it in memory; [`AttackerState`] ([`state`])
//! carries it out of and back into a `dyn Attacker` across processes.
//!
//! The data plane is typed 802.11: attackers consume
//! [`ch_wifi::mgmt::ProbeRequest`]s and emit [`Lure`]s which the runner
//! turns into on-air probe responses.

pub mod api;
pub mod buffers;
pub mod cityhunter;
pub mod clienttrack;
pub mod db;
pub mod evasion;
pub mod ext;
pub mod karma;
pub mod mana;
pub mod plan;
pub mod prelim;
pub mod spec;
pub mod state;

pub use api::{Attacker, Lure, LureLane, LureSource};
pub use cityhunter::{CityHunter, CityHunterConfig, CityHunterState};
pub use clienttrack::ClientTracker;
pub use db::{DbEntry, SsidDatabase};
pub use evasion::{EvasionSpec, EvasionState, EvasiveAttacker, RotationSpec, ThrottleSpec};
pub use karma::KarmaAttacker;
pub use mana::{ManaAttacker, ManaState};
pub use plan::AttackSitePlan;
pub use prelim::{PrelimCityHunter, PrelimState};
pub use spec::AttackerSpec;
pub use state::AttackerState;
