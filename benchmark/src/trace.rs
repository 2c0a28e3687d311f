//! Spans the benchmark records around calls into each layer.
//!
//! The program itself carries no spans: each one brackets a call the
//! benchmark makes into a crate's public API (or, for the attacker, into
//! the `Attacker` it hands the runner). Spans stay in memory until the
//! traced run reduces them to metrics.

use std::time::Instant;

/// One timed interval, in nanoseconds since a pass's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Start, ns since the origin.
    pub start: u64,
    /// End, ns since the origin.
    pub end: u64,
}

impl Span {
    /// The interval `[start, end]` measured from `origin`. One origin per
    /// pass lines spans taken on pool workers up with the span of the
    /// thread that started them.
    pub fn between(origin: Instant, start: Instant, end: Instant) -> Span {
        let at = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
        Span {
            start: at(start),
            end: at(end),
        }
    }

    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span's self time: its duration minus the union of its children's
/// intervals, clipped to the span. Children may overlap (pool workers)
/// or stick out of the parent; neither is counted twice.
pub fn self_time_ns(parent: Span, children: &[Span]) -> u64 {
    let mut clipped: Vec<Span> = children
        .iter()
        .map(|c| Span {
            start: c.start.max(parent.start),
            end: c.end.min(parent.end),
        })
        .filter(|c| c.end > c.start)
        .collect();
    clipped.sort_by_key(|c| c.start);
    let mut covered = 0u64;
    let mut current: Option<Span> = None;
    for c in clipped {
        match current.as_mut() {
            Some(run) if c.start <= run.end => run.end = run.end.max(c.end),
            _ => {
                if let Some(run) = current.replace(c) {
                    covered += run.ns();
                }
            }
        }
    }
    if let Some(run) = current {
        covered += run.ns();
    }
    parent.ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(start: u64, end: u64) -> Span {
        Span { start, end }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // [10,30] ∪ [20,40] = 30 ns, plus [90,100] of [90,120] inside the
        // parent; [200,300] lies outside it entirely.
        let children = [s(10, 30), s(20, 40), s(90, 120), s(200, 300)];
        assert_eq!(self_time_ns(s(0, 100), &children), 60);
    }

    #[test]
    fn self_time_edge_cases() {
        assert_eq!(self_time_ns(s(0, 100), &[]), 100);
        // A child covering the whole parent leaves nothing.
        assert_eq!(self_time_ns(s(5, 50), &[s(0, 80)]), 0);
        // Nested and touching children merge.
        let nested = [s(10, 20), s(12, 15), s(20, 30)];
        assert_eq!(self_time_ns(s(0, 40), &nested), 20);
        // Zero-length children cover nothing.
        assert_eq!(self_time_ns(s(0, 10), &[s(5, 5)]), 10);
    }

    #[test]
    fn spans_share_an_origin() {
        let origin = Instant::now();
        let later = origin + std::time::Duration::from_nanos(1_500);
        let span = Span::between(origin, origin, later);
        assert_eq!(span, s(0, 1_500));
        assert_eq!(span.ns(), 1_500);
        // An instant before the origin clamps to it.
        assert_eq!(Span::between(later, origin, later), s(0, 0));
    }
}
