//! Wall-clock timing.
//!
//! This is the **only** module in the determinism-critical crates that
//! may read the wall clock. The allowance is scoped to exactly this file
//! in `ch-lint.toml` (`[scoped-allow] nondeterminism = ...`) and pinned
//! by `crates/analysis/tests/workspace_clean.rs` — timing code added
//! anywhere else in `ch-fleet` fails the lint gate. Timing is telemetry
//! only: no simulation result may depend on a [`Stopwatch`] reading. Its
//! readings reach only stderr status lines: a campaign's
//! [`crate::FleetStats::total_ms`] and the `city` driver's wall time.

use std::time::Instant;

/// A started wall-clock timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    #[must_use]
    pub fn start() -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Milliseconds elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_ms();
        let b = sw.elapsed_ms();
        assert!(a >= 0.0 && b >= a);
    }
}
