//! Shared run-size configuration for the table commands.
//!
//! Every table honours `EMU_QUICK=1`, which divides workload sizes by
//! 8 — useful for smoke-testing the full harness in seconds.

/// Default trace ring capacity for `simctl fig --trace-events`.
/// `simctl trace` defaults to 4x this: it exists to be looked at, while
/// a traced figure run mostly wants the counters and timelines.
pub const DEFAULT_TRACE_EVENTS: usize = 16384;

/// Default timeline bucket width in microseconds for `--trace-bucket-us`.
pub const DEFAULT_TRACE_BUCKET_US: u64 = 20;

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker-thread count for sweep execution; 0 = not set explicitly.
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Set the sweep worker count (`--jobs`). `0` reverts to the default,
/// the host's available parallelism. Re-settable so in-process tests
/// can compare serial and parallel runs.
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::SeqCst);
}

/// The jobs knob is process-global; the tests that set it hold this.
#[cfg(test)]
pub(crate) static JOBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Worker threads to fan sweep points across. Never zero.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        set => set,
    }
}

/// Whether quick mode is on.
pub fn quick() -> bool {
    std::env::var("EMU_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Scale a nominal size down in quick mode (never below `min`).
pub fn sized(nominal: u64, min: u64) -> u64 {
    if quick() {
        (nominal / 8).max(min)
    } else {
        nominal
    }
}

/// Scale a usize size.
pub fn sized_usize(nominal: usize, min: usize) -> usize {
    sized(nominal as u64, min as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sized_respects_min() {
        std::env::set_var("EMU_QUICK", "1");
        assert_eq!(sized(64, 32), 32);
        assert_eq!(sized(1024, 16), 128);
        std::env::remove_var("EMU_QUICK");
        assert_eq!(sized(1024, 16), 1024);
    }
}
