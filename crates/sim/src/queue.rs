//! Time-ordered event queue with deterministic tie-breaking: a calendar
//! of one-sim-minute buckets.
//!
//! One minute is the city's epoch and the runner's database-sampling
//! step, so nearly every simulation drains the queue a minute at a time.
//! The queue is laid out that way:
//!
//! * the **open** bucket holds every pending event of the minutes popping
//!   has reached, sorted latest-first so that a pop is `Vec::pop`;
//! * a **ring** of 64 unsorted buckets holds the next minutes, slot
//!   `m % 64` for minute `m`, with one occupancy bit per slot;
//! * one unsorted **overflow** bucket holds anything further out, so a
//!   far-future time never allocates per minute of gap.
//!
//! A push appends to its minute's bucket in O(1); a push into the open
//! minute, or an earlier one, goes straight to its sorted place. A bucket
//! is sorted once, by `(time, seq)`, when popping reaches it, and the
//! overflow refills the ring as the ring's window moves past it. A
//! drained bucket is freed, so memory follows the pending events rather
//! than every minute ever scheduled. Pop order is exactly a binary
//! heap's on `(time, seq)`: earliest first, and FIFO among events of the
//! same instant. The bucket width is a constant, not a knob: it only
//! decides where events wait, never the order they pop in.

use crate::ch_invariant;
use crate::time::SimTime;

/// Bucket width, in microseconds: one sim minute.
const MINUTE_US: u64 = 60_000_000;
/// Minutes the ring covers past the open bucket; one occupancy bit each.
const RING: u64 = 64;
/// Events a bucket's first allocation holds. A busy venue schedules
/// hundreds of events a minute, and a bucket grown from `Vec`'s default of
/// four reallocates about six times on the way there.
const FIRST_BUCKET: usize = 256;

/// A pending event: fire time, insertion sequence number, payload.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

/// The minute `at` falls in.
fn minute_of(at: SimTime) -> u64 {
    at.as_micros() / MINUTE_US
}

/// A priority queue of timed events.
///
/// Events scheduled for the same instant pop in the order they were pushed
/// (FIFO), which keeps simulations deterministic without requiring payloads
/// to be ordered.
///
/// ```
/// use ch_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(5), "b");
/// q.push(SimTime::from_secs(5), "c");
/// q.push(SimTime::from_secs(1), "a");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, vec!["a", "b", "c"]);
/// ```
pub struct EventQueue<E> {
    /// Pending events of every minute before `open_end`, sorted by
    /// `(time, seq)` descending: the next event is the last.
    open: Vec<Entry<E>>,
    /// The first minute not in `open`; the ring covers
    /// `open_end .. open_end + RING`.
    open_end: u64,
    /// Unsorted buckets; slot `m % RING` holds minute `m`.
    ring: [Vec<Entry<E>>; RING as usize],
    /// Bit `s` is set when ring slot `s` holds an event.
    occupied: u64,
    /// Unsorted events of minutes from `open_end + RING` on.
    overflow: Vec<Entry<E>>,
    /// The earliest minute in `overflow` (`u64::MAX` when it is empty).
    overflow_min: u64,
    len: usize,
    next_seq: u64,
    /// Fire time of the most recently popped event, for the monotonicity
    /// invariant: simulated time never runs backwards.
    last_popped: Option<SimTime>,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with `capacity` event slots allocated up
    /// front (counted by [`EventQueue::capacity`]). Buckets still grow on
    /// their own: no single reservation covers every minute.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            open: Vec::with_capacity(capacity),
            open_end: 0,
            ring: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            len: 0,
            next_seq: 0,
            last_popped: None,
        }
    }

    /// Schedules `event` to fire at `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let entry = Entry { at, seq, event };
        let minute = minute_of(at);
        if minute < self.open_end {
            // Behind every pending event of the same instant: they were
            // pushed first.
            let place = self.open.partition_point(|e| e.at > at);
            self.open.insert(place, entry);
        } else if minute - self.open_end < RING {
            self.push_to_ring(minute, entry);
        } else {
            self.overflow_min = self.overflow_min.min(minute);
            self.overflow.push(entry);
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    ///
    /// Pop times are non-decreasing: an event scheduled before an instant
    /// that has already been popped (scheduling "into the past") is a
    /// simulation bug, caught here when invariant checks are compiled in.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.open.is_empty() {
            let minute = self.next_minute()?;
            self.open_minute(minute);
        }
        let entry = self.open.pop()?;
        self.len -= 1;
        if let Some(last) = self.last_popped {
            ch_invariant!(
                entry.at >= last,
                "event time ran backwards: popped {:?} after {:?}",
                entry.at,
                last
            );
        }
        self.last_popped = Some(entry.at);
        Some((entry.at, entry.event))
    }

    /// The fire time of the earliest event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        match self.open.last() {
            Some(entry) => Some(entry.at),
            None => self.next_minute().map(|minute| self.earliest_in(minute)),
        }
    }

    /// Removes and returns the earliest event only if it fires at or before
    /// `deadline`.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.open.is_empty() {
            let minute = self.next_minute()?;
            // Sort the next bucket only once something in it is due, so
            // pushes into a minute the caller has not reached stay O(1).
            let whole_minute_due =
                minute.saturating_add(1).saturating_mul(MINUTE_US) <= deadline.as_micros();
            if !whole_minute_due && self.earliest_in(minute) > deadline {
                return None;
            }
            self.open_minute(minute);
        }
        match self.open.last() {
            Some(entry) if entry.at <= deadline => self.pop(),
            _ => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Discards all pending events (the sequence counter keeps advancing so
    /// determinism is preserved across a clear). The monotonicity watermark
    /// resets too: a cleared queue may start a fresh timeline.
    pub fn clear(&mut self) {
        self.open.clear();
        self.open_end = 0;
        for bucket in &mut self.ring {
            bucket.clear();
        }
        self.occupied = 0;
        self.overflow.clear();
        self.overflow_min = u64::MAX;
        self.len = 0;
        self.last_popped = None;
    }

    /// Resets the queue to its freshly-constructed state while keeping the
    /// buckets' allocations: pending events are discarded, the monotonicity
    /// watermark clears, **and the sequence counter rewinds to zero** — a
    /// reused queue is therefore indistinguishable from
    /// [`EventQueue::new`], push for push and pop for pop. This is the
    /// clear-not-reallocate API arenas (`RunScratch`-style job scratch,
    /// city shards) use to recycle a drained queue between runs.
    pub fn reset(&mut self) {
        self.clear();
        self.next_seq = 0;
    }

    /// Number of event slots allocated across the queue's buckets; `clear`
    /// and `reset` keep every one of them.
    pub fn capacity(&self) -> usize {
        self.open.capacity()
            + self.overflow.capacity()
            + self.ring.iter().map(Vec::capacity).sum::<usize>()
    }

    /// Appends to `minute`'s ring slot.
    fn push_to_ring(&mut self, minute: u64, entry: Entry<E>) {
        let slot = (minute % RING) as usize;
        let bucket = &mut self.ring[slot];
        if bucket.capacity() == 0 {
            bucket.reserve(FIRST_BUCKET);
        }
        bucket.push(entry);
        self.occupied |= 1 << slot;
    }

    /// The earliest minute holding an event outside the open bucket.
    fn next_minute(&self) -> Option<u64> {
        if self.occupied != 0 {
            // Rotate the ring so the slot of `open_end` is bit 0.
            let start = (self.open_end % RING) as u32;
            let offset = self.occupied.rotate_right(start).trailing_zeros();
            Some(self.open_end + u64::from(offset))
        } else if self.overflow.is_empty() {
            None
        } else {
            Some(self.overflow_min)
        }
    }

    /// The earliest fire time in `minute`, the minute [`Self::next_minute`]
    /// returned.
    fn earliest_in(&self, minute: u64) -> SimTime {
        let bucket = if minute - self.open_end < RING {
            &self.ring[(minute % RING) as usize]
        } else {
            &self.overflow
        };
        bucket.iter().map(|e| e.at).min().unwrap_or(SimTime::MAX)
    }

    /// Makes `minute`, the minute [`Self::next_minute`] returned, the open
    /// bucket: takes its ring slot's bucket (freeing the drained one, so
    /// memory follows the pending events), moves the overflow events the
    /// ring's new window covers, and sorts.
    fn open_minute(&mut self, minute: u64) {
        let slot = (minute % RING) as usize;
        self.open = std::mem::take(&mut self.ring[slot]);
        self.occupied &= !(1 << slot);
        self.open_end = minute + 1;
        let horizon = self.open_end + RING;
        if self.overflow_min < horizon {
            let mut rest_min = u64::MAX;
            let mut i = 0;
            while i < self.overflow.len() {
                let m = minute_of(self.overflow[i].at);
                if m >= horizon {
                    rest_min = rest_min.min(m);
                    i += 1;
                    continue;
                }
                let entry = self.overflow.swap_remove(i);
                if m < self.open_end {
                    self.open.push(entry);
                } else {
                    self.push_to_ring(m, entry);
                }
            }
            self.overflow_min = rest_min;
        }
        self.open
            .sort_unstable_by(|a, b| b.at.cmp(&a.at).then(b.seq.cmp(&a.seq)));
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len)
            .field("next", &self.peek_time())
            .finish()
    }
}

impl<E> Extend<(SimTime, E)> for EventQueue<E> {
    fn extend<I: IntoIterator<Item = (SimTime, E)>>(&mut self, iter: I) {
        for (at, event) in iter {
            self.push(at, event);
        }
    }
}

impl<E> FromIterator<(SimTime, E)> for EventQueue<E> {
    fn from_iter<I: IntoIterator<Item = (SimTime, E)>>(iter: I) -> Self {
        let mut q = EventQueue::new();
        q.extend(iter);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), 3u32);
        q.push(SimTime::from_secs(1), 1);
        q.push(SimTime::from_secs(2), 2);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(7);
        for i in 0..100u32 {
            q.push(t, i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), "early");
        q.push(SimTime::from_secs(10), "late");
        assert_eq!(
            q.pop_until(SimTime::from_secs(5)),
            Some((SimTime::from_secs(1), "early"))
        );
        assert_eq!(q.pop_until(SimTime::from_secs(5)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn clear_and_len() {
        let mut q: EventQueue<u8> = (0..10).map(|i| (SimTime::from_secs(i), i as u8)).collect();
        assert_eq!(q.len(), 10);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn scheduling_into_the_past_is_caught() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), "now");
        assert!(q.pop().is_some());
        q.push(SimTime::from_secs(1), "stale");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.pop();
        }))
        .expect_err("popping an event older than the watermark must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("ch_invariant panics with a formatted string");
        assert!(msg.contains("ran backwards"), "{msg}");
    }

    #[test]
    fn clear_resets_the_monotonicity_watermark() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(9), "late");
        assert!(q.pop().is_some());
        q.clear();
        q.push(SimTime::from_secs(1), "fresh timeline");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "fresh timeline")));
    }

    #[test]
    fn reset_is_indistinguishable_from_fresh() {
        // Drive a queue through pushes, pops and a clear so every piece of
        // internal state (watermark, sequence counter) has moved, then
        // reset and replay the same schedule on it and on a fresh queue:
        // the pop sequences must match exactly (same FIFO tie order).
        let mut used = EventQueue::new();
        for i in 0..50u64 {
            used.push(SimTime::from_secs(i % 7), i);
        }
        while used.pop_until(SimTime::from_secs(3)).is_some() {}
        used.reset();

        let mut fresh = EventQueue::new();
        let t = SimTime::from_secs(2);
        for i in 0..20u64 {
            used.push(t, i);
            fresh.push(t, i);
        }
        loop {
            let (a, b) = (used.pop(), fresh.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn reset_retains_capacity() {
        let mut q = EventQueue::with_capacity(256);
        for i in 0..200u64 {
            q.push(SimTime::from_secs(i), i);
        }
        let before = q.capacity();
        assert!(before >= 256);
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.capacity(), before, "reset must not shrink the arena");
    }

    #[test]
    fn debug_is_nonempty() {
        let q: EventQueue<u8> = EventQueue::new();
        assert!(!format!("{q:?}").is_empty());
    }

    proptest! {
        /// Popping must always yield a non-decreasing time sequence, and
        /// within equal times the original push order.
        #[test]
        fn prop_pop_order(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_micros(t), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((t, idx)) = q.pop() {
                if let Some((lt, lidx)) = last {
                    prop_assert!(t >= lt);
                    if t == lt {
                        prop_assert!(idx > lidx, "FIFO violated on tie");
                    }
                }
                last = Some((t, idx));
            }
        }

        /// The calendar must agree with a binary-heap model on `(time,
        /// seq)` at every step of a random mix of pushes, pops, bounded
        /// pops, clears and resets: pushes spread over many minutes and
        /// past the ring, same-minute pushes after pops, equal times,
        /// minute boundaries and times near `u64::MAX` µs.
        #[test]
        fn prop_matches_a_binary_heap_model(
            ops in proptest::collection::vec((0u8..32, 0u64..1 << 40, 0u8..8), 1..400)
        ) {
            use std::cmp::Reverse;
            use std::collections::BinaryHeap;
            const MIN: u64 = 60_000_000;
            let mut q = EventQueue::new();
            let mut model: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut id = 0u32;
            // The last popped time: pushes never go behind it.
            let mut now = 0u64;
            let mut last_pushed = 0u64;
            let model_pop = |model: &mut BinaryHeap<Reverse<(u64, u64, u32)>>| {
                model.pop().map(|Reverse((t, _, id))| (SimTime::from_micros(t), id))
            };
            for &(kind, x, pick) in &ops {
                match kind {
                    0..=17 => {
                        let at = match pick {
                            0 | 1 => now.saturating_add(x % MIN),
                            2 | 3 => now.saturating_add((x % 200) * MIN + x % 997),
                            4 => now,
                            5 => last_pushed.max(now),
                            6 if x % 4 == 0 => (u64::MAX - x % 1_000).max(now),
                            _ => ((now / MIN).saturating_add(1 + x % 3)).saturating_mul(MIN),
                        };
                        q.push(SimTime::from_micros(at), id);
                        model.push(Reverse((at, seq, id)));
                        seq += 1;
                        id += 1;
                        last_pushed = at;
                    }
                    18..=23 => {
                        let got = q.pop();
                        prop_assert_eq!(got, model_pop(&mut model));
                        if let Some((t, _)) = got {
                            now = t.as_micros();
                        }
                    }
                    24..=28 => {
                        let deadline = match pick {
                            0 | 1 => now.saturating_add(x % MIN),
                            2 | 3 => ((now / MIN).saturating_add(1 + x % 2)).saturating_mul(MIN),
                            4 => model.peek().map_or(now, |Reverse((t, _, _))| *t),
                            _ => now.saturating_add((x % 5) * MIN),
                        };
                        let expect = match model.peek() {
                            Some(Reverse((t, _, _))) if *t <= deadline => model_pop(&mut model),
                            _ => None,
                        };
                        let got = q.pop_until(SimTime::from_micros(deadline));
                        prop_assert_eq!(got, expect);
                        if let Some((t, _)) = got {
                            now = t.as_micros();
                        }
                    }
                    29 => {
                        q.clear();
                        model.clear();
                        now = 0;
                    }
                    30 => {
                        q.reset();
                        model.clear();
                        now = 0;
                    }
                    _ => {}
                }
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(
                    q.peek_time(),
                    model.peek().map(|Reverse((t, _, _))| SimTime::from_micros(*t))
                );
            }
            loop {
                let got = q.pop();
                prop_assert_eq!(got, model_pop(&mut model));
                if got.is_none() {
                    break;
                }
            }
        }

        /// The queue must return exactly the multiset it was given.
        #[test]
        fn prop_conservation(times in proptest::collection::vec(0u64..1_000, 0..100)) {
            let mut q = EventQueue::new();
            for &t in &times {
                q.push(SimTime::from_micros(t), t);
            }
            let mut out: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            let mut expect = times.clone();
            out.sort_unstable();
            expect.sort_unstable();
            prop_assert_eq!(out, expect);
        }
    }
}
