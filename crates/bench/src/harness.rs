//! Fault-tolerant experiment harness: run each sweep point on a worker
//! thread with a wall-clock timeout and a bounded retry policy, and keep
//! partial results when individual points fail.
//!
//! The paper's own campaign lost runs to system-software crashes and
//! hangs on the prototype; this harness is the simulation-side analogue,
//! so a single pathological configuration (a migration storm under a
//! high NACK rate, say) costs one labelled row instead of the whole
//! sweep.

use emu_core::fault::SimError;
use emu_core::trace;
use std::sync::mpsc;
use std::time::Duration;

/// Outcome of one sweep point, preserved row-by-row in the results.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome<T> {
    /// The run completed and produced a value.
    Ok(T),
    /// The run returned a structured simulation error (after retries).
    Failed(SimError),
    /// The run exceeded the wall-clock budget (after retries).
    TimedOut(Duration),
}

impl<T> PointOutcome<T> {
    /// Short status token for CSV/status columns.
    pub fn status(&self) -> &'static str {
        match self {
            PointOutcome::Ok(_) => "ok",
            PointOutcome::Failed(_) => "error",
            PointOutcome::TimedOut(_) => "timeout",
        }
    }

    /// The value, if the point succeeded.
    pub fn ok(self) -> Option<T> {
        match self {
            PointOutcome::Ok(v) => Some(v),
            _ => None,
        }
    }
}

/// Retry/timeout policy for a sweep.
#[derive(Debug, Clone, Copy)]
pub struct RunPolicy {
    /// Wall-clock budget per attempt.
    pub timeout: Duration,
    /// Attempts per point (1 = no retry). Deterministic simulations only
    /// benefit from retries on transient errors, i.e. timeouts on a
    /// loaded host — a structured `SimError` is replayed identically, so
    /// it is not retried.
    pub attempts: u32,
}

impl Default for RunPolicy {
    fn default() -> Self {
        RunPolicy {
            timeout: Duration::from_secs(120),
            attempts: 2,
        }
    }
}

/// Synthetic sweep-point ids for `run_point` callers outside any keyed
/// sweep, in a range above every executor-assigned id so their reports
/// sort after keyed sweeps (in call order).
static SYNTH_POINT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1 << 63);

/// Run `f` under `policy`: each attempt on its own worker thread with a
/// wall-clock timeout. A completed attempt (Ok or Err) ends the point —
/// deterministic errors replay identically, so only timeouts retry.
///
/// A timed-out worker thread is detached, not killed: it finishes (or
/// not) in the background while the sweep moves on, which is exactly the
/// "abandon the hung run, keep the campaign going" behaviour the paper's
/// measurement campaign needed on the prototype.
///
/// Telemetry: every attempt runs in the caller's run scope under the
/// caller's sweep-point key (see [`emu_core::trace::with_run_key`]) with
/// its own attempt number, and the point's outcome is *decided* when an
/// attempt completes — so the caller's report collector keeps exactly
/// the reports of the attempt that produced the row. A detached
/// straggler that finishes after its point was abandoned is dropped,
/// not exported: the `runs` array under `--report-json` matches the
/// table's rows, in sweep order, at any `-j`.
pub fn run_point<T, F>(policy: RunPolicy, f: F) -> PointOutcome<T>
where
    T: Send + 'static,
    F: Fn() -> Result<T, SimError> + Send + Sync + 'static,
{
    use std::sync::atomic::Ordering;
    let point = match trace::current_point() {
        trace::UNKEYED => SYNTH_POINT.fetch_add(1, Ordering::Relaxed),
        p => p,
    };
    let f = std::sync::Arc::new(f);
    let attempts = policy.attempts.max(1);
    for attempt in 0..attempts {
        let (tx, rx) = mpsc::channel();
        let g = std::sync::Arc::clone(&f);
        let scope = trace::RunScope::current();
        std::thread::spawn(move || {
            let out = scope.enter(|| trace::with_run_key(point, attempt, || g()));
            // The receiver may have given up; a send error is fine.
            let _ = tx.send(out);
        });
        match rx.recv_timeout(policy.timeout) {
            Ok(Ok(v)) => {
                trace::accept_attempt(point, attempt);
                return PointOutcome::Ok(v);
            }
            Ok(Err(e)) => {
                trace::accept_attempt(point, attempt);
                return PointOutcome::Failed(e);
            }
            Err(mpsc::RecvTimeoutError::Timeout | mpsc::RecvTimeoutError::Disconnected) => {}
        }
    }
    // Every attempt timed out: abandon the point so a straggler that
    // finishes later cannot leak a report into the export.
    trace::accept_attempt(point, u32::MAX);
    PointOutcome::TimedOut(policy.timeout)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ok_point_passes_value_through() {
        let r = run_point(RunPolicy::default(), || Ok(42u64));
        assert_eq!(r, PointOutcome::Ok(42));
        assert_eq!(r.status(), "ok");
    }

    #[test]
    fn sim_error_is_not_retried() {
        use std::sync::atomic::{AtomicU32, Ordering};
        static CALLS: AtomicU32 = AtomicU32::new(0);
        let r: PointOutcome<u64> = run_point(
            RunPolicy {
                attempts: 3,
                ..Default::default()
            },
            || {
                CALLS.fetch_add(1, Ordering::SeqCst);
                Err(SimError::AllNodeletsDead)
            },
        );
        assert_eq!(r, PointOutcome::Failed(SimError::AllNodeletsDead));
        assert_eq!(CALLS.load(Ordering::SeqCst), 1, "errors replay; no retry");
    }

    #[test]
    fn hang_times_out_and_retries() {
        use std::sync::atomic::{AtomicU32, Ordering};
        static TRIES: AtomicU32 = AtomicU32::new(0);
        let r: PointOutcome<u64> = run_point(
            RunPolicy {
                timeout: Duration::from_millis(20),
                attempts: 2,
            },
            || {
                TRIES.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_secs(30));
                Ok(0)
            },
        );
        assert!(matches!(r, PointOutcome::TimedOut(_)));
        assert_eq!(r.status(), "timeout");
        assert_eq!(TRIES.load(Ordering::SeqCst), 2, "timeouts retry");
    }
}
