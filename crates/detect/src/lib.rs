// Panic-freedom gate (clippy side of ch-lint rule R3): library code must
// surface malformed input as Result, not crash mid-campaign. Tests are
// exempt; a justified escape hatch is a scoped #[allow] plus a
// `// ch-lint: allow(panic-path)` comment.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

//! # ch-detect — rogue-AP detection inside the sim
//!
//! City-Hunter's attackers have so far been unopposed: the sim measures
//! how many phones the rogue AP lures (h_b) but nothing models a
//! *defender watching the air*. This crate is that defender — a
//! signature- and behavior-based rogue-AP detector that observes the same
//! management-frame stream the clients hear and emits scored
//! [`DetectionVerdict`]s.
//!
//! Two layers:
//!
//! 1. **Signatures** ([`signature`]) — a declarative [`SignatureDb`] of
//!    static tells: OUI denylists, locally-administered BSSIDs, bait SSID
//!    wording, beacon-interval outliers, silent responders, and the
//!    karma-style minimal IE fingerprint.
//! 2. **Behavior** ([`detector`]) — windowed evidence accumulation keyed
//!    on the City-Hunter tell (one AP answering broadcast probes with many
//!    distinct directed SSIDs), MANA-style PNL replay, implausible SSID
//!    co-location, a protected SSID offered open (security downgrade) and
//!    one source deauthenticating many clients (deauth flood), with a
//!    [`Strictness`] knob setting the flagging threshold.
//!
//! The detector draws no randomness: its verdict stream is a pure function
//! of the observed frame sequence, so detection composes with the
//! workspace's determinism gates (serial vs `--jobs N` byte-identical).
//! [`report::DetectionReport`] scores a run against ground truth for the
//! `arms_race` experiment's precision / recall / time-to-detect table.
//!
//! ```
//! use ch_detect::{Detector, DetectorSpec};
//! use ch_sim::SimTime;
//! use ch_wifi::mgmt::{MgmtFrame, ProbeRequest};
//! use ch_wifi::MacAddr;
//!
//! let mut detector = Detector::new(DetectorSpec::standard());
//! let client = MacAddr::new([0x02, 0, 0, 0, 0, 1]);
//! detector.observe(
//!     SimTime::from_secs(1),
//!     &MgmtFrame::ProbeRequest(ProbeRequest::broadcast(client)),
//! );
//! assert_eq!(detector.verdicts().len(), 0);
//! ```

pub mod detector;
pub mod report;
pub mod signature;
pub mod verdict;

pub use detector::{ApProfile, Detector, DetectorSpec, Strictness};
pub use report::DetectionReport;
pub use signature::{SignatureDb, SignatureRule, SsidPattern, ROGUE_MINIMAL_IE};
pub use verdict::{DetectionVerdict, Reason, ReasonSet};
