//! Parallel sweep execution.
//!
//! Every figure in the paper is a grid of independent simulation points
//! (thread counts, block sizes, presets); this module fans those points
//! across a fixed-size pool of worker threads — plain `std::thread`
//! scoped workers pulling indices off a shared atomic cursor and
//! returning `(index, value)` over a channel — and reassembles results
//! in **sweep order**, so output is identical at any `--jobs`.
//!
//! Determinism guarantees:
//!
//! * Each point is a self-contained simulation (its own engine, integer
//!   time, seeded draws), so its value does not depend on which worker
//!   runs it or when.
//! * Results are placed by index, not arrival, so rows come back in
//!   sweep order regardless of completion order.
//! * Each point runs in the caller's run scope
//!   ([`emu_core::trace::RunScope`]) under a process-unique run key
//!   ([`emu_core::trace::with_run_key`]): reports land in the caller's
//!   collector, which sorts by that key at export — `--report-json` is
//!   byte-stable across `--jobs` values, and concurrent sweeps in one
//!   process keep separate report sets.
//!
//! The worker count comes from [`crate::runcfg::jobs`] (the `--jobs`
//! flag, else the host's available parallelism). At one job the sweep runs inline on the caller's
//! thread — no pool, identical to the historical serial path.

use crate::runcfg;
use emu_core::trace;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;

/// Source of process-unique sweep-point ids: each sweep claims a
/// contiguous block at launch, so report keys from successive sweeps
/// (even within one figure) never collide and sort in launch order.
/// The upper half of the id space is reserved for unkeyed
/// `run_point` callers (see `harness::SYNTH_POINT`).
static POINT_BASE: AtomicU64 = AtomicU64::new(0);

/// Run `f(0..n)` across the worker pool; returns values in index order.
///
/// `f` must be safe to call from multiple threads at once (`Sync`) and
/// must not depend on cross-point shared state for its value — which
/// holds for every simulation sweep in this crate. Panics in `f`
/// propagate to the caller, as in a serial loop.
pub fn run_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let base = POINT_BASE.fetch_add(n as u64, Ordering::Relaxed);
    let jobs = runcfg::jobs().min(n.max(1));
    if jobs <= 1 {
        return (0..n)
            .map(|i| trace::with_run_key(base + i as u64, 0, || f(i)))
            .collect();
    }
    let scope = trace::RunScope::current();
    let cursor = AtomicUsize::new(0);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|threads| {
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        for _ in 0..jobs {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            let run = scope.clone();
            threads.spawn(move || {
                run.enter(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let v = trace::with_run_key(base + i as u64, 0, || f(i));
                    // The receiver only disappears if the thread scope is
                    // already unwinding from another worker's panic.
                    if tx.send((i, v)).is_err() {
                        break;
                    }
                })
            });
        }
        drop(tx);
        for (i, v) in rx {
            out[i] = Some(v);
        }
    });
    out.into_iter()
        .map(|v| v.expect("every index sent exactly once"))
        .collect()
}

/// A boxed sweep-point closure, as consumed by [`run_thunks`].
pub type Thunk<T> = Box<dyn FnOnce() -> T + Send>;

/// Run one closure per sweep point; returns values in point order.
/// Convenience wrapper over [`run_indexed`] for heterogeneous sweeps
/// built as a list of thunks.
pub fn run_thunks<T: Send>(thunks: Vec<Thunk<T>>) -> Vec<T> {
    let slots: Vec<std::sync::Mutex<Option<Thunk<T>>>> = thunks
        .into_iter()
        .map(|t| std::sync::Mutex::new(Some(t)))
        .collect();
    run_indexed(slots.len(), |i| {
        let thunk = slots[i]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .expect("each thunk runs exactly once");
        thunk()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use runcfg::JOBS_LOCK;
    use std::sync::Mutex;

    #[test]
    fn results_come_back_in_index_order() {
        let _g = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for jobs in [1, 4] {
            runcfg::set_jobs(jobs);
            let out = run_indexed(97, |i| i * i);
            assert_eq!(out, (0..97).map(|i| i * i).collect::<Vec<_>>());
        }
        runcfg::set_jobs(0);
    }

    #[test]
    fn pool_actually_fans_out() {
        use std::collections::HashSet;
        let _g = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        runcfg::set_jobs(4);
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        run_indexed(64, |_| {
            seen.lock().unwrap().insert(std::thread::current().id());
            // Hold the point long enough that workers overlap.
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        runcfg::set_jobs(0);
        let n = seen.lock().unwrap().len();
        assert!(n > 1, "expected >1 worker, saw {n}");
    }

    #[test]
    fn thunks_preserve_order() {
        let _g = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        runcfg::set_jobs(3);
        let thunks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..20usize)
            .map(|i| Box::new(move || 100 + i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = run_thunks(thunks);
        runcfg::set_jobs(0);
        assert_eq!(out, (0..20usize).map(|i| 100 + i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_sweep_is_fine() {
        let out: Vec<u32> = run_indexed(0, |_| unreachable!());
        assert!(out.is_empty());
    }
}
