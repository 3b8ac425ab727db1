//! Structured event tracing for engine runs.
//!
//! The per-run counters in [`crate::metrics`] say *how much* happened;
//! this module records *when and where*: a cheap, optionally-enabled
//! stream of [`TraceEvent`]s (spawns, migrations, memory ops, NACKs,
//! retries, slot stalls) stamped with the simulated time, the nodelet,
//! and — where one is in scope — the threadlet.
//!
//! ## Cost model
//!
//! Tracing is **zero-cost when disabled**: the engine holds an
//! `Option<TraceRecorder>` and every emission site is a single
//! `is_some` branch on the off path (verified by `simctl overhead`,
//! the gate in `crates/bench`). When enabled, the recorder is a
//! bounded ring buffer: once `capacity` events are held, the oldest is
//! evicted and [`TraceLog::dropped`] counts the loss, so a trace can
//! never exhaust memory on a long run — and never lies about being
//! complete.
//!
//! Recording never touches simulated time, so enabling a trace cannot
//! change the timing, counters, or checksum of a run.
//!
//! ## Scoped enablement
//!
//! The benchmark runners construct their own engines internally; to
//! trace them without threading a flag through every call signature, a
//! caller enters a [`RunScope`] carrying a [`TelemetryConfig`], which
//! [`crate::engine::Engine::new`] consults once at construction. The
//! same scope carries the report sink ([`collect_reports`]), so
//! concurrent callers in one process stay isolated.

use crate::addr::NodeletId;
use crate::kernel::ThreadId;
use crate::metrics::RunReport;
use desim::time::Time;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// What happened. One variant per instrumented engine site; each maps
/// 1:1 onto a [`crate::metrics::NodeletCounters`] field, so summing a
/// lossless trace by kind reproduces the counters exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceKind {
    /// A threadlet was created (counted at the nodelet it lands on).
    Spawn,
    /// A context departed through the local migration engine.
    MigrateOut,
    /// A migrated context arrived at its destination.
    MigrateIn,
    /// A load was served by the local memory channel.
    LocalLoad,
    /// A store was served by the local memory channel.
    LocalStore,
    /// A memory-side atomic was served by the local channel.
    Atomic,
    /// A remote store/atomic packet arrived from another nodelet.
    RemotePacket,
    /// An arrival had to wait for a free hardware thread slot.
    SlotWait,
    /// The migration engine refused a context (injected NACK).
    MigNack,
    /// A NACKed migration was re-offered after backoff.
    MigRetry,
    /// The memory channel absorbed an ECC-style scrub-and-retry.
    EccRetry,
    /// A packet was retransmitted on the node's outbound link.
    LinkRetransmit,
    /// Traffic for a dead nodelet was absorbed here.
    Redirect,
    /// A threadlet ran to completion and released its slot.
    Quit,
}

impl TraceKind {
    /// Every kind, in declaration order (for reductions and reports).
    pub const ALL: [TraceKind; 14] = [
        TraceKind::Spawn,
        TraceKind::MigrateOut,
        TraceKind::MigrateIn,
        TraceKind::LocalLoad,
        TraceKind::LocalStore,
        TraceKind::Atomic,
        TraceKind::RemotePacket,
        TraceKind::SlotWait,
        TraceKind::MigNack,
        TraceKind::MigRetry,
        TraceKind::EccRetry,
        TraceKind::LinkRetransmit,
        TraceKind::Redirect,
        TraceKind::Quit,
    ];

    /// Stable snake_case name, used verbatim in the JSONL and Chrome
    /// trace exports.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Spawn => "spawn",
            TraceKind::MigrateOut => "migrate_out",
            TraceKind::MigrateIn => "migrate_in",
            TraceKind::LocalLoad => "local_load",
            TraceKind::LocalStore => "local_store",
            TraceKind::Atomic => "atomic",
            TraceKind::RemotePacket => "remote_packet",
            TraceKind::SlotWait => "slot_wait",
            TraceKind::MigNack => "mig_nack",
            TraceKind::MigRetry => "mig_retry",
            TraceKind::EccRetry => "ecc_retry",
            TraceKind::LinkRetransmit => "link_retransmit",
            TraceKind::Redirect => "redirect",
            TraceKind::Quit => "quit",
        }
    }
}

/// One recorded engine event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time of the event.
    pub at: Time,
    /// Nodelet the event is attributed to (same attribution as the
    /// matching [`crate::metrics::NodeletCounters`] field).
    pub nodelet: NodeletId,
    /// The threadlet involved, when one is in scope (channel-level
    /// events like remote packets and ECC retries have none).
    pub thread: Option<ThreadId>,
    /// What happened.
    pub kind: TraceKind,
}

/// A bounded ring buffer of [`TraceEvent`]s with a drop count.
#[derive(Debug)]
pub struct TraceRecorder {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl TraceRecorder {
    /// A recorder holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRecorder {
            capacity,
            events: VecDeque::with_capacity(capacity.min(1 << 16)),
            dropped: 0,
        }
    }

    /// Record one event, evicting the oldest when full.
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Finalize into an immutable [`TraceLog`].
    pub fn into_log(self) -> TraceLog {
        TraceLog {
            events: self.events.into(),
            dropped: self.dropped,
            capacity: self.capacity,
        }
    }
}

/// The finalized event stream of one run, attached to
/// [`crate::metrics::RunReport::trace`].
#[derive(Debug, Clone)]
pub struct TraceLog {
    /// Retained events, in nondecreasing time order.
    pub events: Vec<TraceEvent>,
    /// Events evicted because the ring was full. A nonzero value means
    /// the *oldest* part of the run is missing from `events`.
    pub dropped: u64,
    /// Ring capacity the run was recorded with.
    pub capacity: usize,
}

impl TraceLog {
    /// Number of retained events of `kind`.
    pub fn count_of(&self, kind: TraceKind) -> u64 {
        self.events.iter().filter(|e| e.kind == kind).count() as u64
    }

    /// Whether every emitted event was retained (no ring eviction).
    pub fn is_lossless(&self) -> bool {
        self.dropped == 0
    }

    /// Total events emitted by the run (retained + dropped).
    pub fn emitted(&self) -> u64 {
        self.events.len() as u64 + self.dropped
    }
}

/// What telemetry an engine should collect, applied at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Ring capacity for the event recorder; 0 disables event tracing.
    pub event_capacity: usize,
    /// Bucket width for per-nodelet time series (occupancy timelines,
    /// queue-depth and live-threadlet gauges); `None` disables them.
    pub timeline_bucket: Option<Time>,
}

impl TelemetryConfig {
    /// Everything disabled (the default).
    pub fn off() -> Self {
        TelemetryConfig::default()
    }

    /// Whether any collection is enabled.
    pub fn enabled(&self) -> bool {
        self.event_capacity > 0 || self.timeline_bucket.is_some()
    }
}

// ---- the run scope ----------------------------------------------------
//
// Everything a run consults besides its own engine settings — where its
// report goes, what telemetry to arm, whether to profile the epoch
// scheduler, how many simulation workers to use — lives in one
// caller-owned [`RunScope`] held in a thread-local. Sweep executors hand
// the caller's scope to their workers, so two sweeps running at once in
// one process never see each other's reports or settings.

/// Point id of a run outside any keyed scope. Unkeyed runs sort after
/// every keyed run, in completion order.
pub const UNKEYED: u64 = u64::MAX;

/// Collected reports plus the bookkeeping that makes their export order
/// deterministic under concurrent sweeps: each report is tagged with the
/// run key (sweep-point id + retry attempt) of the thread that ran the
/// engine, and [`take_reports`] sorts by `(point, seq)` — so `--jobs N`
/// produces the same `runs` array as `--jobs 1`.
#[derive(Debug, Default)]
struct Collected {
    /// `(point, attempt, arrival seq, report)` per finished run.
    runs: Vec<(u64, u32, u64, RunReport)>,
    next_seq: u64,
    /// Points whose outcome is decided: only the recorded attempt's
    /// reports are kept (`u32::MAX` = point abandoned, keep none). This
    /// is what silences detached stragglers: a timed-out attempt that
    /// finishes late offers a report, but its `(point, attempt)` is no
    /// longer accepted.
    accepted: Vec<(u64, u32)>,
}

impl Collected {
    fn accepts(&self, point: u64, attempt: u32) -> bool {
        self.accepted
            .iter()
            .all(|&(p, a)| p != point || a == attempt)
    }
}

/// The run context of one thread: the report sink, the telemetry every
/// new [`crate::engine::Engine`] arms, the phase-profile switch, an
/// optional simulation-worker override, and the run key (which sweep
/// point and retry attempt a run belongs to).
///
/// Scopes are owned by whoever starts the work. [`RunScope::current`]
/// snapshots the calling thread's scope; [`RunScope::enter`] installs a
/// scope on the calling thread for the length of a closure. Executors
/// that fan work out to threads (`emu_bench::sweep::run_indexed`, the
/// retry harness) enter the caller's scope on each worker, so reports
/// land in the caller's sink and settings follow the work. A thread that
/// never entered a scope runs with everything off and the process-wide
/// [`crate::engine::set_sim_threads`] default.
#[derive(Debug, Clone)]
pub struct RunScope {
    key: (u64, u32),
    sink: Option<Arc<Mutex<Collected>>>,
    telemetry: TelemetryConfig,
    phase_profile: bool,
    sim_threads: Option<usize>,
}

std::thread_local! {
    static SCOPE: RefCell<RunScope> = const { RefCell::new(RunScope::ROOT) };
}

impl RunScope {
    /// Everything off, unkeyed.
    const ROOT: RunScope = RunScope {
        key: (UNKEYED, 0),
        sink: None,
        telemetry: TelemetryConfig {
            event_capacity: 0,
            timeline_bucket: None,
        },
        phase_profile: false,
        sim_threads: None,
    };

    /// The calling thread's scope. Cheap: the report sink is shared, so
    /// runs under the copy report to the same place.
    pub fn current() -> RunScope {
        SCOPE.with(|s| s.borrow().clone())
    }

    /// This scope with engines collecting telemetry per `cfg`.
    pub fn with_telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.telemetry = cfg;
        self
    }

    /// This scope with wall-clock phase profiling of the epoch scheduler
    /// on or off for every new engine (see
    /// [`crate::engine::Engine::enable_phase_profile`]). Profiled reports
    /// carry host timings and are therefore not byte-identical run to
    /// run.
    pub fn with_phase_profile(mut self, on: bool) -> Self {
        self.phase_profile = on;
        self
    }

    /// This scope with engines that did not call
    /// [`crate::engine::Engine::set_sim_threads`] running on `n`
    /// simulation workers (clamped to at least 1) instead of the process
    /// default.
    pub fn with_sim_threads(mut self, n: usize) -> Self {
        self.sim_threads = Some(n.max(1));
        self
    }

    /// Telemetry armed for new engines.
    pub(crate) fn telemetry(&self) -> TelemetryConfig {
        self.telemetry
    }

    /// Whether new engines profile their epoch scheduler.
    pub(crate) fn phase_profile(&self) -> bool {
        self.phase_profile
    }

    /// The simulation-worker override, if any.
    pub(crate) fn sim_threads(&self) -> Option<usize> {
        self.sim_threads
    }

    /// Whether runs in this scope are observed — reports collected,
    /// telemetry armed, or phases profiled. Observed runs must execute,
    /// never be served from a result cache.
    pub fn observed(&self) -> bool {
        self.sink.is_some() || self.telemetry.enabled() || self.phase_profile
    }

    /// Run `f` on this thread under this scope, then restore the
    /// previous one (also when `f` panics).
    pub fn enter<R>(self, f: impl FnOnce() -> R) -> R {
        struct Restore(RunScope);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = std::mem::replace(&mut self.0, RunScope::ROOT);
                SCOPE.with(|s| *s.borrow_mut() = prev);
            }
        }
        let _restore = Restore(SCOPE.with(|s| s.replace(self)));
        f()
    }
}

/// Run `f` with this thread's run key set to `(point, attempt)`,
/// restoring the previous key afterwards. Sweep executors wrap each
/// point in this so concurrent runs' reports can be re-ordered into
/// sweep order at export.
pub fn with_run_key<R>(point: u64, attempt: u32, f: impl FnOnce() -> R) -> R {
    let mut scope = RunScope::current();
    scope.key = (point, attempt);
    scope.enter(f)
}

/// The current thread's sweep-point id ([`UNKEYED`] outside any
/// [`with_run_key`] scope).
pub fn current_point() -> u64 {
    SCOPE.with(|s| s.borrow().key.0)
}

/// The calling thread's report sink, if collection is armed.
fn sink() -> Option<Arc<Mutex<Collected>>> {
    SCOPE.with(|s| s.borrow().sink.clone())
}

fn lock(sink: &Mutex<Collected>) -> std::sync::MutexGuard<'_, Collected> {
    // A poisoned lock only means a panic mid-push; the data is still a
    // valid state, so recover rather than propagate the panic.
    sink.lock().unwrap_or_else(|e| e.into_inner())
}

/// Decide point `point` in the calling thread's report sink: keep only
/// reports from `attempt`, drop the rest (already-collected and future —
/// e.g. a detached straggler from a timed-out earlier attempt).
/// `attempt = u32::MAX` abandons the point entirely.
pub fn accept_attempt(point: u64, attempt: u32) {
    if point == UNKEYED {
        return;
    }
    if let Some(sink) = sink() {
        let mut c = lock(&sink);
        c.runs.retain(|&(p, a, _, _)| p != point || a == attempt);
        c.accepted.push((point, attempt));
    }
}

/// Start (or stop) collecting a clone of every report finished under the
/// calling thread's scope, including runs on the workers it hands the
/// scope to. Starting opens a fresh, empty sink.
pub fn collect_reports(on: bool) {
    let sink = on.then(|| Arc::new(Mutex::new(Collected::default())));
    SCOPE.with(|s| s.borrow_mut().sink = sink);
}

/// Whether report collection is armed in the calling thread's scope.
pub fn collecting_reports() -> bool {
    SCOPE.with(|s| s.borrow().sink.is_some())
}

/// Take every report collected in the calling thread's scope since
/// [`collect_reports`]`(true)`, in deterministic sweep order: sorted by
/// `(point, arrival)`, with unkeyed runs last in completion order.
pub fn take_reports() -> Vec<RunReport> {
    let Some(sink) = sink() else {
        return Vec::new();
    };
    let mut c = lock(&sink);
    let mut runs = std::mem::take(&mut c.runs);
    c.next_seq = 0;
    drop(c);
    runs.sort_by_key(|&(point, _, seq, _)| (point, seq));
    runs.into_iter().map(|(_, _, _, r)| r).collect()
}

/// Called by the engine when a run completes; a no-op unless the
/// running thread's scope collects reports.
pub(crate) fn offer_report(report: &RunReport) {
    let (key, sink) = SCOPE.with(|s| {
        let s = s.borrow();
        (s.key, s.sink.clone())
    });
    if let Some(sink) = sink {
        let (point, attempt) = key;
        let mut c = lock(&sink);
        if !c.accepts(point, attempt) {
            return;
        }
        let seq = c.next_seq;
        c.next_seq += 1;
        c.runs.push((point, attempt, seq, report.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ps: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at: Time::from_ps(ps),
            nodelet: NodeletId(0),
            thread: Some(ThreadId(7)),
            kind,
        }
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut r = TraceRecorder::new(3);
        for i in 0..5 {
            r.record(ev(i, TraceKind::Spawn));
        }
        let log = r.into_log();
        assert_eq!(log.events.len(), 3);
        assert_eq!(log.dropped, 2);
        assert_eq!(log.emitted(), 5);
        assert!(!log.is_lossless());
        // The newest events survive.
        assert_eq!(log.events[0].at, Time::from_ps(2));
        assert_eq!(log.events[2].at, Time::from_ps(4));
    }

    #[test]
    fn lossless_below_capacity() {
        let mut r = TraceRecorder::new(8);
        r.record(ev(1, TraceKind::MigrateOut));
        r.record(ev(2, TraceKind::MigNack));
        let log = r.into_log();
        assert!(log.is_lossless());
        assert_eq!(log.count_of(TraceKind::MigrateOut), 1);
        assert_eq!(log.count_of(TraceKind::MigNack), 1);
        assert_eq!(log.count_of(TraceKind::Quit), 0);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut r = TraceRecorder::new(0);
        r.record(ev(1, TraceKind::Quit));
        r.record(ev(2, TraceKind::Quit));
        let log = r.into_log();
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.dropped, 1);
    }

    #[test]
    fn scope_settings_apply_inside_enter_only() {
        let outer = RunScope::current();
        assert!(!outer.observed());
        let cfg = TelemetryConfig {
            event_capacity: 1024,
            timeline_bucket: Some(Time::from_us(5)),
        };
        let seen = RunScope::current()
            .with_telemetry(cfg)
            .with_sim_threads(0)
            .enter(|| {
                let s = RunScope::current();
                (s.telemetry(), s.sim_threads(), s.observed())
            });
        assert_eq!(seen, (cfg, Some(1), true));
        assert!(!RunScope::current().observed());
        assert_eq!(RunScope::current().sim_threads(), None);
    }

    #[test]
    fn report_sinks_are_per_thread() {
        collect_reports(true);
        let other = std::thread::spawn(collecting_reports).join().unwrap();
        assert!(collecting_reports());
        assert!(!other, "a fresh thread must not inherit the sink");
        // A worker handed the scope reports into the same sink.
        let scope = RunScope::current();
        let inherited = std::thread::spawn(move || scope.enter(collecting_reports))
            .join()
            .unwrap();
        assert!(inherited);
        collect_reports(false);
        assert!(!collecting_reports());
    }

    #[test]
    fn kind_names_are_stable_and_unique() {
        let names: Vec<_> = TraceKind::ALL.iter().map(|k| k.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert_eq!(TraceKind::Spawn.name(), "spawn");
    }
}
