//! The unified experiment driver: run any registry artifact by id.
//!
//! ```text
//! cargo run --release -p ch-bench --bin experiment -- --list
//! cargo run --release -p ch-bench --bin experiment -- table1 [seed]
//! cargo run --release -p ch-bench --bin experiment -- fig5 [seed] \
//!     [--hours 8,12,18] [--minutes N] [--jobs N] \
//!     [--manifest PATH] [--fresh]
//! ```
//!
//! Every experiment gains the same fleet controls: `--jobs` (or the
//! `CH_JOBS` environment variable) caps the workers and `--manifest`
//! makes the run resumable. Parallel runs are bit-identical to
//! `--jobs 1`. A campaign's worker count and wall time go to stderr in
//! its status line; the timed ledger is the `benchmark/` package.

fn main() -> Result<(), String> {
    ch_bench::driver::main_experiment()
}
