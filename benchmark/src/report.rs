//! Metric collection, the sampling loop shared by every workload, and the
//! result line the benchmark ends with.

use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::Summary;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// What one workload run produced: failure accounting, metrics, and the
/// human-readable lines printed before the result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (the base failures are counted against).
    pub attempted: u64,
    /// Operations that failed (or were shed / malformed).
    pub failed: u64,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Report lines: timings with their sample counts and quartiles,
    /// deterministic work counts, and model figures.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    /// Adds a report line.
    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Appends everything from `other` (the traced run merges the three
    /// workloads' outcomes).
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
        self.lines.extend(other.lines);
    }

    /// The final stdout line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // `{}` on f64 is the shortest text that parses back to the
            // same value: every measured digit is kept.
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Fails with `what` when `expected` and `got` differ: the correctness
/// gate every workload runs on every repetition.
pub fn same<T: PartialEq + std::fmt::Debug>(
    what: &str,
    expected: &T,
    got: &T,
) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!(
            "correctness gate: {what} differs\n  expected: {expected:?}\n  got:      {got:?}"
        ))
    }
}

/// Share of each workload sample's duration spent on set-up samples
/// right after it, so set-up is sampled across the whole run rather
/// than in one window the host's speed episodes could cover.
const SETUP_SHARE: f64 = 0.15;

/// Measurements from one measured window.
#[derive(Debug, Default)]
pub struct Samples {
    /// Seconds per workload repetition.
    pub work: Vec<f64>,
    /// Seconds per set-up repetition.
    pub setup: Vec<f64>,
    /// Peak resident MiB during each workload repetition.
    pub rss_mb: Vec<f64>,
}

/// Alternates workload repetitions with set-up repetitions until
/// `seconds` have passed and at least `min_reps` workload repetitions
/// ran. `work` returns the seconds its repetition took (it times only
/// the call under measurement, not its own checks); `setup` likewise.
///
/// # Errors
///
/// The first error `work` returns, or a failure to read peak RSS.
pub fn sample_loop(
    seconds: f64,
    min_reps: usize,
    mut setup: impl FnMut() -> f64,
    mut work: impl FnMut() -> Result<f64, String>,
) -> Result<Samples, String> {
    let start = Instant::now();
    let mut samples = Samples::default();
    loop {
        reset_peak_rss()?;
        let took = work()?;
        samples.work.push(took);
        samples.rss_mb.push(peak_rss_mb()?);
        let mut spent = 0.0;
        loop {
            let s = setup();
            samples.setup.push(s);
            spent += s;
            if spent >= took * SETUP_SHARE {
                break;
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        let typical = elapsed / samples.work.len() as f64;
        // Stop when another repetition would end past the window.
        if samples.work.len() >= min_reps && elapsed + typical / 2.0 >= seconds {
            return Ok(samples);
        }
    }
}

impl Samples {
    /// Adds the end-to-end metrics — `run_s`, `setup_s`, `peak_rss_mb`,
    /// each the median of its samples — with a report line per metric
    /// naming what `run_s` timed. Returns the median `run_s`.
    pub fn report(&self, out: &mut Outcome, workload: &str, what: &str) -> f64 {
        let mut median = |name: &str, unit: &'static str, label: &str, values: &[f64]| {
            let summary = Summary::of(values).unwrap_or_default();
            out.line(format!(
                "{workload} {name} ({label}): {}",
                summary.describe(1.0, unit)
            ));
            out.metric(name, unit, summary.median);
            summary.median
        };
        let run_s = median("run_s", "s", what, &self.work);
        median("setup_s", "s", "interleaved set-up", &self.setup);
        median(
            "peak_rss_mb",
            "MiB",
            "peak resident per repetition",
            &self.rss_mb,
        );
        run_s
    }
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("peak RSS: cannot reset it through /proc/self/clear_refs: {e}"))
}

/// Peak resident set size of this process in MiB (`VmHWM`) since start
/// or since the last reset.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable (the benchmark runs on Linux).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS: cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "peak RSS: no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut out = Outcome {
            attempted: 3,
            failed: 1,
            ..Outcome::default()
        };
        out.metric("run_s", "s", 1.25);
        out.metric("setup_s", "s", 0.0421);
        assert_eq!(
            out.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.0421, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn gate_rejects_a_mismatch() {
        assert!(same("rows", &"a", &"a").is_ok());
        let err = same("rows", &"a", &"b").unwrap_err();
        assert!(err.contains("rows differs"), "{err}");
    }

    #[test]
    fn sample_loop_meets_minimum_and_spreads_setup() {
        let samples = sample_loop(0.0, 3, || 0.01, || Ok(0.1)).unwrap();
        assert_eq!(samples.work.len(), 3);
        assert_eq!(samples.rss_mb.len(), 3);
        // 15% of each 0.1 s repetition at 0.01 s per set-up sample.
        assert_eq!(samples.setup.len(), 3 * 2);
        let failing = sample_loop(0.0, 3, || 0.01, || Err("boom".to_string()));
        assert_eq!(failing.unwrap_err(), "boom");

        let mut out = Outcome::default();
        assert_eq!(samples.report(&mut out, "w", "unit"), 0.1);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["run_s", "setup_s", "peak_rss_mb"]);
        assert!(out.metrics[2].value > 0.0);
    }

    #[test]
    fn peak_rss_resets_to_the_current_footprint() {
        let grown = vec![1u8; 64 << 20];
        std::hint::black_box(&grown);
        let high = peak_rss_mb().unwrap();
        drop(grown);
        reset_peak_rss().unwrap();
        assert!(
            peak_rss_mb().unwrap() < high,
            "the mark must drop after a reset"
        );
    }
}
