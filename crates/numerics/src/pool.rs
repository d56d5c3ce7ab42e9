//! Scoped-thread work pool: indexed fan-out with deterministic reassembly.
//!
//! Every concurrent layer of the workspace — testbed load campaigns and
//! scenario-sweep model groups — shares this one primitive: run
//! `job(0..count)` on a scoped thread pool and hand the results back **in
//! index order**, so parallel execution changes wall-clock time and
//! nothing else. Results travel through per-index slots, not a channel,
//! which is what makes the reassembly order independent of scheduling.
//!
//! Worker-count policy ([`effective_workers`]): besides the obvious caps
//! (`parallelism`, `count`), a `min_chunk` heuristic keeps tiny job lists
//! from fanning out — spawning `count` threads for `count` microsecond
//! jobs costs more than it saves. [`scoped_indexed`] uses `min_chunk = 1`
//! (every job is assumed heavyweight: a whole model solve); callers with
//! cheap jobs pick a larger chunk through [`scoped_indexed_min_chunk`].
//! `count = 1` or `parallelism <= 1` always degenerates to a serial loop
//! on the calling thread with zero spawn overhead.
//!
//! # Deterministic interleaving explorer
//!
//! "Results in index order" is a *static* promise; the callers that claim
//! bit-identity to serial execution (the scenario sweep's plan/commit
//! model-group fan-out, armed for lint rule L9) need a *dynamic* witness.
//! [`with_schedule`] forces every pool dispatch on the current thread to
//! execute its jobs serially in a chosen completion order — the exact set
//! of observable side-effect orderings a real scheduler could produce —
//! while still returning results in index order. [`explore_schedules`]
//! drives a closure through **every** permutation of a ≤ 4-task dispatch
//! (at most 24 schedules), so a test can assert that outputs and caches
//! are bitwise identical on all of them.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// The forced completion order installed by [`with_schedule`], if any.
    static SCHEDULE: RefCell<Option<Vec<usize>>> = const { RefCell::new(None) };
}

/// Number of worker threads a fan-out of `count` jobs will actually use:
/// `parallelism`, capped by the job count and by the `min_chunk` heuristic
/// (each worker should have at least `min_chunk` jobs' worth of work, so
/// `count` jobs justify at most `count / min_chunk` threads). Never zero;
/// a result of 1 means the serial path.
pub fn effective_workers(count: usize, parallelism: usize, min_chunk: usize) -> usize {
    let by_chunk = count / min_chunk.max(1);
    parallelism.min(count).min(by_chunk).max(1)
}

/// Runs `job(0..count)` on a scoped thread pool and returns the results in
/// index order. `parallelism <= 1` (or a single item) degenerates to a
/// serial loop with no thread overhead. Panics inside `job` propagate when
/// the scope joins, exactly like a serial panic would.
///
/// Jobs are assumed heavyweight (model solves, load campaigns): the pool
/// fans out whenever `parallelism > 1` and `count > 1`. For cheap jobs use
/// [`scoped_indexed_min_chunk`] so short lists stay serial.
pub fn scoped_indexed<T, F>(count: usize, parallelism: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    scoped_indexed_min_chunk(count, parallelism, 1, job)
}

/// [`scoped_indexed`] with an explicit `min_chunk`: at least `min_chunk`
/// jobs per worker thread, so a list of a few cheap jobs runs serially
/// instead of paying `count` thread spawns (see [`effective_workers`]).
pub fn scoped_indexed_min_chunk<T, F>(
    count: usize,
    parallelism: usize,
    min_chunk: usize,
    job: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if let Some(order) = SCHEDULE.with(|s| s.borrow().clone()) {
        return run_scheduled(count, &order, job);
    }
    let workers = effective_workers(count, parallelism, min_chunk);
    if workers <= 1 {
        return (0..count).map(job).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // lint: interference-ok atomic claim hands each index to exactly one task
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let out = job(i);
                // lint: interference-ok per-index slot, only the claiming task touches it
                match slots[i].lock() {
                    Ok(mut slot) => *slot = Some(out),
                    Err(poisoned) => *poisoned.into_inner() = Some(out),
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .expect("every index was claimed by a worker")
        })
        .collect()
}

/// Executes a dispatch under a forced completion order: jobs run serially
/// in `order` (indices `>= count` and duplicates skipped; indices the
/// order omits are appended ascending), results still return in index
/// order. Side-effect ordering is the *only* thing a schedule varies —
/// exactly the degree of freedom a real scheduler has.
fn run_scheduled<T>(count: usize, order: &[usize], job: impl Fn(usize) -> T) -> Vec<T> {
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    for &i in order {
        if i < count && slots[i].is_none() {
            slots[i] = Some(job(i));
        }
    }
    for (i, slot) in slots.iter_mut().enumerate() {
        if slot.is_none() {
            *slot = Some(job(i));
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index was executed by the schedule"))
        .collect()
}

/// Clears the forced schedule when the [`with_schedule`] scope unwinds,
/// even on panic, so a failing exploration cannot leak determinism into
/// later tests on the same thread.
struct ScheduleReset;

impl Drop for ScheduleReset {
    fn drop(&mut self) {
        SCHEDULE.with(|s| *s.borrow_mut() = None);
    }
}

/// Runs `f` with a forced task schedule: for the duration of the call,
/// every pool dispatch on this thread executes serially in the given
/// completion order (see [`run_scheduled`] for how the order is adapted
/// to each dispatch's `count`). Returns `f`'s result; the schedule is
/// cleared on exit, panic included.
pub fn with_schedule<R>(order: &[usize], f: impl FnOnce() -> R) -> R {
    SCHEDULE.with(|s| *s.borrow_mut() = Some(order.to_vec()));
    let _reset = ScheduleReset;
    f()
}

/// All `count!` completion orders of a `count`-task dispatch, in a
/// deterministic order. `count = 0` yields the single empty schedule.
pub fn permutations(count: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut prefix = Vec::with_capacity(count);
    let mut rest: Vec<usize> = (0..count).collect();
    permute_into(&mut prefix, &mut rest, &mut out);
    out
}

fn permute_into(prefix: &mut Vec<usize>, rest: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    if rest.is_empty() {
        out.push(prefix.clone());
        return;
    }
    for k in 0..rest.len() {
        let v = rest.remove(k);
        prefix.push(v);
        permute_into(prefix, rest, out);
        prefix.pop();
        rest.insert(k, v);
    }
}

/// Exhaustively runs `run` under every completion-order schedule of a
/// `count`-task dispatch, returning each schedule paired with its result.
/// The caller asserts whatever identity it promises across the results —
/// for the scenario sweep's plan/commit fan-out, bitwise equality of the
/// solutions and of the shared subsystem-profile cache. Capped at
/// `count <= 4` (24 schedules) so exploration stays exhaustive rather than
/// sampled.
pub fn explore_schedules<R>(
    count: usize,
    mut run: impl FnMut(&[usize]) -> R,
) -> Vec<(Vec<usize>, R)> {
    assert!(
        count <= 4,
        "exhaustive schedule exploration is capped at 4 tasks (24 schedules)"
    );
    permutations(count)
        .into_iter()
        .map(|p| {
            let r = with_schedule(&p, || run(&p));
            (p, r)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_index_order() {
        for parallelism in [0, 1, 2, 4, 16] {
            let out = scoped_indexed(10, parallelism, |i| i * i);
            assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    /// The documented edge behaviors: `count = 1` and `parallelism = 0`
    /// both run serially on the calling thread (no spawn at all).
    #[test]
    fn tiny_lists_and_zero_parallelism_stay_serial() {
        let caller = std::thread::current().id();
        let out = scoped_indexed(1, 64, |i| (i, std::thread::current().id()));
        assert_eq!(out, vec![(0, caller)]);
        let out = scoped_indexed(5, 0, |i| (i, std::thread::current().id()));
        assert!(out.iter().all(|&(_, id)| id == caller));
        assert_eq!(
            out.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4]
        );
        let out: Vec<usize> = scoped_indexed(0, 8, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn min_chunk_limits_worker_count() {
        // 3 jobs, 8 threads requested, but each worker must own >= 4 jobs:
        // serial.
        assert_eq!(effective_workers(3, 8, 4), 1);
        // 8 jobs / chunk 4 -> at most 2 workers.
        assert_eq!(effective_workers(8, 8, 4), 2);
        // Heavy jobs (chunk 1): capped only by count and parallelism.
        assert_eq!(effective_workers(3, 8, 1), 3);
        assert_eq!(effective_workers(100, 4, 1), 4);
        // Degenerate requests still come back >= 1.
        assert_eq!(effective_workers(0, 8, 4), 1);
        assert_eq!(effective_workers(5, 0, 0), 1);
    }

    #[test]
    fn min_chunk_variant_runs_serial_under_threshold() {
        let caller = std::thread::current().id();
        let out = scoped_indexed_min_chunk(3, 8, 4, |i| (i, std::thread::current().id()));
        assert!(out.iter().all(|&(_, id)| id == caller));
        let out = scoped_indexed_min_chunk(64, 4, 4, |i| i + 1);
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let hits = AtomicUsize::new(0);
        let out = scoped_indexed(100, 8, |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        let distinct: HashSet<usize> = out.into_iter().collect();
        assert_eq!(distinct.len(), 100);
    }

    #[test]
    fn permutations_enumerate_every_schedule_once() {
        assert_eq!(permutations(0), vec![Vec::<usize>::new()]);
        assert_eq!(permutations(1), vec![vec![0]]);
        for (n, fact) in [(2, 2), (3, 6), (4, 24)] {
            let perms = permutations(n);
            assert_eq!(perms.len(), fact);
            let distinct: HashSet<Vec<usize>> = perms.iter().cloned().collect();
            assert_eq!(distinct.len(), fact, "duplicate schedule for n={n}");
            for p in &perms {
                let mut sorted = p.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..n).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn schedules_permute_side_effects_but_never_results() {
        for perm in permutations(3) {
            let log = Mutex::new(Vec::new());
            let out = with_schedule(&perm, || {
                scoped_indexed(3, 2, |i| {
                    log.lock().expect("no poisoning in this test").push(i);
                    i * 10
                })
            });
            assert_eq!(out, vec![0, 10, 20], "results must stay index-ordered");
            assert_eq!(
                *log.lock().expect("no poisoning in this test"),
                perm,
                "side effects must follow the forced schedule"
            );
        }
    }

    #[test]
    fn schedules_adapt_to_mismatched_dispatch_counts() {
        // Out-of-range indices are skipped, missing ones appended
        // ascending, so nested dispatches of different sizes both stay
        // deterministic under one schedule.
        let log = Mutex::new(Vec::new());
        let out = with_schedule(&[2, 9, 0], || {
            scoped_indexed(4, 4, |i| {
                log.lock().expect("no poisoning in this test").push(i);
                i
            })
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(
            *log.lock().expect("no poisoning in this test"),
            vec![2, 0, 1, 3]
        );
    }

    #[test]
    fn schedule_scope_resets_even_on_panic() {
        let result = std::panic::catch_unwind(|| {
            with_schedule(&[1, 0], || panic!("boom"));
        });
        assert!(result.is_err());
        assert!(SCHEDULE.with(|s| s.borrow().is_none()));
        // And a clean exit resets too.
        with_schedule(&[0], || ());
        assert!(SCHEDULE.with(|s| s.borrow().is_none()));
    }

    #[test]
    fn explore_schedules_is_exhaustive_and_capped() {
        let runs = explore_schedules(4, |sched| sched.to_vec());
        assert_eq!(runs.len(), 24);
        let distinct: HashSet<Vec<usize>> = runs.iter().map(|(s, _)| s.clone()).collect();
        assert_eq!(distinct.len(), 24);
        for (sched, echoed) in &runs {
            assert_eq!(sched, echoed);
        }
        assert_eq!(explore_schedules(0, |_| ()).len(), 1);
        assert!(std::panic::catch_unwind(|| explore_schedules(5, |_| ())).is_err());
    }
}
