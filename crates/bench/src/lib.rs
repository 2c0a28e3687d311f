//! Figure/table regeneration harness for the City-Hunter reproduction.
//!
//! All regeneration logic lives in [`driver`], a thin CLI over the
//! `ch-scenarios` experiment registry; `experiment` and `reproduce_all`
//! in `src/bin/` are one-line shims into it. [`hotpath`] holds the
//! allocation measurements that `perfbench` and `tests/zero_alloc.rs`
//! share.

pub mod driver;
pub mod hotpath;
