// Panic-freedom gate (clippy side of ch-lint rule R3); tests are exempt.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

//! # ch-arc — the Adaptive Replacement Cache and the lure seen-set
//!
//! City-Hunter's dynamic popularity/freshness buffer split (§IV-C) is
//! "inspired by the Adaptive Replacement Cache algorithm (ARC)" of Megiddo
//! & Modha (FAST '03): two lists, one capturing *recency* and one capturing
//! *frequency*, whose sizes self-tune based on hits in two *ghost lists* of
//! recently evicted keys.
//!
//! This crate implements the real thing — [`ArcCache`], a faithful ARC with
//! the T1/T2/B1/B2 structure and the adaptation parameter `p`. `ch-attack`
//! uses the same ghost-list adaptation idea for its SSID buffers, and
//! `tests/arc_correspondence.rs` checks that both adapt in the same
//! direction. [`EpochSet`] is the O(1) seen-set the lure buffers dedup
//! with.
//!
//! ```
//! use ch_arc::ArcCache;
//!
//! let mut cache = ArcCache::new(2);
//! assert!(!cache.request(&"a"));  // miss
//! assert!(!cache.request(&"b"));  // miss
//! assert!(cache.request(&"a"));   // hit
//! assert!(!cache.request(&"c"));  // miss, evicts
//! assert!(cache.len() <= 2);
//! ```

pub mod arc;
mod ordered;
pub mod seen;

pub use arc::ArcCache;
pub use seen::EpochSet;
