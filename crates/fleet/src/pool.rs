//! The worker pool: scoped-thread parallel maps with ordered results.
//!
//! Workers pull indices from a shared atomic cursor (a work queue with no
//! allocation) and write each result into its *input-order* slot, so the
//! output of a parallel run is identical to a serial run — completion
//! order never leaks into results. The workspace has exactly one
//! parallel-map implementation.
//!
//! [`scoped_lockstep`] is that implementation. It runs the map for a
//! number of *rounds* on workers spawned once per call, the calling
//! thread working too, with a gate closing each round and a caller-side
//! step between rounds: the shape of a simulation that advances every
//! shard one epoch at a time and exchanges state between epochs.
//! [`scoped_parallel_map_with_state`], the campaign engine's one-shot map,
//! is its one-round case.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Resolves the worker count for a pool.
///
/// Precedence: the explicit `requested` value (a bin's `--jobs N` flag),
/// then the `CH_JOBS` environment variable, then
/// [`std::thread::available_parallelism`]. Zero and unparsable values are
/// ignored. The worker count never affects results — only wall-clock.
pub fn effective_jobs(requested: Option<usize>) -> usize {
    requested
        .or_else(|| std::env::var("CH_JOBS").ok().and_then(|v| v.parse().ok()))
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
        })
}

/// The machine's usable worker ceiling:
/// [`std::thread::available_parallelism`] (fallback 4, matching
/// [`effective_jobs`]). CPU-bound workers gain nothing from running wider
/// than this — oversubscription is pure scheduling overhead — so the
/// campaign engine caps its spawned width here regardless of the
/// requested `--jobs`; `--jobs` and `CH_JOBS` choose a narrower width.
/// The cap never affects results — only wall-clock.
pub fn worker_cap() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

/// A scoped-thread parallel map over a slice on `threads` workers, with
/// results in input order and **worker-local state**: every worker calls
/// `init` exactly once when it starts and threads the resulting scratch
/// value `&mut S` through each item it pulls, so allocations made for one
/// job (buffers, arenas, queues) are reused by the next instead of being
/// rebuilt per item. Falls back to sequential execution for tiny inputs.
///
/// Determinism contract: `f` must produce the same `R` for a given item
/// regardless of which scratch it runs on — scratch is an *allocation*
/// cache, never a *value* channel between jobs. The serial fallback uses
/// a single scratch for every item, which is exactly the reuse pattern a
/// one-worker parallel run would see, so results stay width-independent.
///
/// This is [`scoped_lockstep`] with one round.
pub fn scoped_parallel_map_with_state<T: Sync, R: Send, S>(
    items: &[T],
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&T, &mut S) -> R + Sync,
) -> Vec<R> {
    let mut out = Vec::new();
    scoped_lockstep(
        items,
        threads,
        1,
        init,
        |_, item, scratch| f(item, scratch),
        |_, results| out = results,
    );
    out
}

/// Runs `rounds` rounds of a parallel map over `items` on `threads`
/// workers spawned once for the whole call.
///
/// In round `r`, the workers (the calling thread is one of them) pull
/// item indices from one atomic cursor and run `f(r, item, scratch)`.
/// When every item is done, `between(r, results)` runs on the calling
/// thread with the round's results in input order, and no worker starts
/// round `r + 1` before it returns. `init` runs once per worker per call,
/// not once per round, so scratch stays warm for the whole run; the
/// determinism contract of [`scoped_parallel_map_with_state`] applies.
/// With one worker, or at most one item, everything runs on the calling
/// thread with one scratch.
///
/// A panic in `f`, `init` or `between` ends the call once the current
/// round has drained and resumes on the calling thread with the first
/// panic's payload: no worker is left waiting for a round that never
/// comes. A worker the OS refuses to start only narrows the pool.
pub fn scoped_lockstep<T: Sync, R: Send, S>(
    items: &[T],
    threads: usize,
    rounds: u64,
    init: impl Fn() -> S + Sync,
    f: impl Fn(u64, &T, &mut S) -> R + Sync,
    mut between: impl FnMut(u64, Vec<R>),
) {
    let threads = threads.clamp(1, items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        let mut scratch = init();
        for round in 0..rounds {
            let results = items
                .iter()
                .map(|item| f(round, item, &mut scratch))
                .collect();
            between(round, results);
        }
        return;
    }
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let gate = Gate::default();
    let failure: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let fail = |payload| {
        lock(&failure).get_or_insert(payload);
    };
    let start = || match catch_unwind(AssertUnwindSafe(&init)) {
        Ok(scratch) => Some(scratch),
        Err(payload) => {
            fail(payload);
            None
        }
    };
    // One worker's share of a round; a worker whose `init` panicked sits
    // the rounds out.
    let work = |round: u64, scratch: &mut Option<S>| {
        let Some(scratch) = scratch.as_mut() else {
            return;
        };
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                break;
            };
            match catch_unwind(AssertUnwindSafe(|| f(round, item, scratch))) {
                Ok(result) => *lock(&slots[i]) = Some(result),
                Err(payload) => {
                    fail(payload);
                    break;
                }
            }
        }
    };
    std::thread::scope(|scope| {
        // Dropped on every way out of this closure, unwinding included,
        // so a parked worker always hears that no round is coming.
        let _stop = StopOnDrop(&gate);
        let mut spawned = 0;
        for _ in 1..threads {
            let worker = || {
                let mut scratch = start();
                let mut seen = 0;
                while let Some(round) = gate.next_round(&mut seen) {
                    work(round, &mut scratch);
                    gate.finish_round();
                }
            };
            if std::thread::Builder::new()
                .spawn_scoped(scope, worker)
                .is_ok()
            {
                spawned += 1;
            }
        }
        let mut scratch = start();
        for round in 0..rounds {
            next.store(0, Ordering::Relaxed);
            gate.release(round, spawned);
            work(round, &mut scratch);
            gate.wait_idle();
            if lock(&failure).is_some() {
                break;
            }
            let results = slots
                .iter()
                .map(|slot| {
                    lock(slot).take().unwrap_or_else(|| {
                        ch_sim::invariant::violation(file!(), line!(), "pool slot left unfilled")
                    })
                })
                .collect();
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| between(round, results))) {
                fail(payload);
                break;
            }
        }
    });
    if let Some(payload) = failure.into_inner().unwrap_or_else(PoisonError::into_inner) {
        resume_unwind(payload);
    }
}

/// Locks `mutex`, ignoring poison: no code in this module panics while it
/// holds a lock.
fn lock<V>(mutex: &Mutex<V>) -> MutexGuard<'_, V> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The gate of [`scoped_lockstep`]: the calling thread releases each
/// round to the spawned workers and waits until all of them are done.
#[derive(Default)]
struct Gate {
    state: Mutex<GateState>,
    turn: Condvar,
}

#[derive(Default)]
struct GateState {
    /// Rounds released so far.
    released: u64,
    /// Spawned workers still inside the current round.
    busy: usize,
    /// No further round comes: workers exit.
    stop: bool,
}

impl Gate {
    /// Caller: starts round `round` for `workers` spawned workers.
    fn release(&self, round: u64, workers: usize) {
        let mut state = lock(&self.state);
        state.released = round + 1;
        state.busy = workers;
        self.turn.notify_all();
    }

    /// Caller: waits until every spawned worker has finished the round.
    fn wait_idle(&self) {
        let mut state = lock(&self.state);
        while state.busy > 0 {
            state = self
                .turn
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Worker: waits for the round after the `seen`-th, or `None` once the
    /// call is over.
    fn next_round(&self, seen: &mut u64) -> Option<u64> {
        let mut state = lock(&self.state);
        loop {
            if state.stop {
                return None;
            }
            if state.released > *seen {
                *seen = state.released;
                return Some(state.released - 1);
            }
            state = self
                .turn
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Worker: reports its share of the round done.
    fn finish_round(&self) {
        let mut state = lock(&self.state);
        state.busy -= 1;
        if state.busy == 0 {
            self.turn.notify_all();
        }
    }
}

/// Stops the gate when dropped.
struct StopOnDrop<'a>(&'a Gate);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        lock(&self.0.state).stop = true;
        self.0.turn.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stateless map through the pool.
    fn map<T: Sync, R: Send>(items: &[T], threads: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        scoped_parallel_map_with_state(items, threads, || (), |item, ()| f(item))
    }

    #[test]
    fn preserves_input_order_at_any_width() {
        let items: Vec<usize> = (0..64).collect();
        let serial = map(&items, 1, |&x| x * 3);
        for threads in [2, 4, 9, 64, 1000] {
            let parallel = map(&items, threads, |&x| x * 3);
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let none: Vec<u8> = Vec::new();
        assert!(map(&none, 4, |&x| x).is_empty());
        assert_eq!(map(&[5u8], 4, |&x| x + 1), vec![6]);
    }

    #[test]
    fn worker_local_state_is_reused_not_shared_between_items() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let items: Vec<usize> = (0..40).collect();
        let inits = AtomicUsize::new(0);
        // Scratch is a Vec that each item must find cleared-by-discipline:
        // the result only depends on the item when the worker clears the
        // scratch before use, which is the contract the engine enforces.
        let results = scoped_parallel_map_with_state(
            &items,
            4,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<usize>::new()
            },
            |&x, scratch| {
                scratch.clear();
                scratch.extend(0..x % 5);
                x * 10 + scratch.len()
            },
        );
        let expected: Vec<usize> = items.iter().map(|&x| x * 10 + x % 5).collect();
        assert_eq!(results, expected);
        // One init per worker, not per item.
        let calls = inits.load(Ordering::Relaxed);
        assert!(calls <= 4, "init ran {calls} times for 4 workers");
    }

    #[test]
    fn serial_path_reuses_one_scratch() {
        let items = [3usize, 4, 5];
        // Without a clear, the scratch accumulates — proving the serial
        // fallback genuinely reuses a single scratch across items (the
        // same reuse a one-worker pool performs).
        let results =
            scoped_parallel_map_with_state(&items, 1, Vec::<usize>::new, |&x, scratch| {
                scratch.push(x);
                scratch.len()
            });
        assert_eq!(results, vec![1, 2, 3]);
    }

    /// A toy sharded simulation: each round every cell adds its round
    /// number and sends half its value to the next cell, routed between
    /// rounds in cell order.
    fn ring_run(threads: usize) -> (Vec<u64>, Vec<Vec<u64>>) {
        let cells: Vec<Mutex<(u64, u64)>> = (0..12).map(|i| Mutex::new((i, 0))).collect();
        let mut per_round = Vec::new();
        scoped_lockstep(
            &cells,
            threads,
            6,
            Vec::<u64>::new,
            |round, cell, scratch| {
                let mut cell = cell.lock().unwrap();
                scratch.push(round); // warm across rounds, never read
                cell.0 += round + cell.1;
                cell.1 = 0;
                let sent = cell.0 / 2;
                cell.0 -= sent;
                sent
            },
            |_, sent| {
                for (i, value) in sent.iter().enumerate() {
                    cells[(i + 1) % cells.len()].lock().unwrap().1 += value;
                }
                per_round.push(sent);
            },
        );
        let finals = cells.iter().map(|c| c.lock().unwrap().0).collect();
        (finals, per_round)
    }

    #[test]
    fn lockstep_is_width_independent() {
        let serial = ring_run(1);
        assert_eq!(serial.1.len(), 6, "between runs once per round");
        for threads in [2, 4] {
            assert_eq!(ring_run(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn lockstep_inits_once_per_worker_per_call() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let items: Vec<usize> = (0..16).collect();
        for threads in [1, 2, 4] {
            let inits = AtomicUsize::new(0);
            let mut rounds_seen = 0;
            scoped_lockstep(
                &items,
                threads,
                5,
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, &x, _| x,
                |_, results| {
                    assert_eq!(results, items);
                    rounds_seen += 1;
                },
            );
            assert_eq!(rounds_seen, 5);
            let calls = inits.load(Ordering::Relaxed);
            assert!(
                (1..=threads).contains(&calls),
                "init ran {calls} times for {threads} workers over 5 rounds"
            );
        }
    }

    /// The message of a panic the call resumed.
    fn panic_text(outcome: std::thread::Result<()>) -> String {
        let payload = outcome.expect_err("the call must panic");
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    fn lockstep_panics_surface_instead_of_hanging() {
        let items: Vec<u64> = (0..8).collect();
        for threads in [1, 2, 4] {
            // An item of round 2.
            let mut routed = Vec::new();
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                scoped_lockstep(
                    &items,
                    threads,
                    5,
                    || (),
                    |round, &x, ()| {
                        if round == 2 && x == 3 {
                            panic!("item 3 of round 2");
                        }
                        x
                    },
                    |round, _| routed.push(round),
                );
            }));
            assert_eq!(
                panic_text(outcome),
                "item 3 of round 2",
                "threads={threads}"
            );
            assert_eq!(routed, [0, 1], "no round after the panicking one");
            // The caller-side step of round 1.
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                scoped_lockstep(
                    &items,
                    threads,
                    5,
                    || (),
                    |_, &x, ()| x,
                    |round, _| assert!(round != 1, "between of round 1"),
                );
            }));
            assert!(panic_text(outcome).contains("between of round 1"));
            // A worker's scratch.
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                scoped_lockstep(
                    &items,
                    threads,
                    3,
                    || panic!("no scratch"),
                    |_, &x, ()| x,
                    |_, _| {},
                );
            }));
            assert_eq!(panic_text(outcome), "no scratch");
        }
    }

    #[test]
    fn default_width_resolves_positive() {
        assert!(effective_jobs(None) >= 1);
        assert_eq!(effective_jobs(Some(3)), 3);
        assert!(effective_jobs(Some(0)) >= 1, "zero request falls through");
        assert!(worker_cap() >= 1);
    }
}
