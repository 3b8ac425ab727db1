//! Spans taken from outside the layers they time.
//!
//! The benchmark wraps each call into a layer's public function in a
//! span: name, start, end, parent span, point id and the worker thread
//! that ran it. Spans are kept in memory and written out once, when the
//! run ends. Nothing here reaches into the simulator: the engine's own
//! telemetry (report collection, the phase profiler, timelines) stays
//! disarmed, because arming it switches engine paths and bypasses the
//! result-cache guard.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub point: u32,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store shared by every worker of a run.
pub struct Tracer {
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// A span that has started but not ended.
pub struct Open {
    id: u32,
    parent: u32,
    name: &'static str,
    point: u32,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> u32 {
        self.id
    }
}

static THREAD_SEQ: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
}

/// A small process-unique id for the calling thread.
fn thread_id() -> u64 {
    THREAD_ID.with(|c| {
        if c.get() == 0 {
            c.set(THREAD_SEQ.fetch_add(1, Ordering::Relaxed));
        }
        c.get()
    })
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&self, name: &'static str, parent: u32, point: u32) -> Open {
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            point,
            start_ns: self.now_ns(),
        }
    }

    pub fn close(&self, open: Open) {
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            point: open.point,
            thread: thread_id(),
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
        };
        self.spans
            .lock()
            .expect("no span writer panics while holding the lock")
            .push(span);
    }

    /// Take every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("no span writer panics while holding the lock"),
        )
    }
}

/// Run `f` inside a span when tracing, or plainly when not.
pub fn span<T>(
    tr: Option<&Tracer>,
    name: &'static str,
    parent: u32,
    point: u32,
    f: impl FnOnce() -> T,
) -> T {
    match tr {
        None => f(),
        Some(t) => {
            let open = t.open(name, parent, point);
            let out = f();
            t.close(open);
            out
        }
    }
}

/// Sum of span durations by name, in seconds.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 * 1e-9)
        .sum()
}

/// Number of spans with this name.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// Share of the root spans' time (spans without a parent) that their
/// direct children do not cover, in percent: over all roots, and for
/// the worst single root.
pub fn uncovered_pct(spans: &[Span]) -> (f64, f64) {
    use std::collections::HashMap;
    let mut child_ns: HashMap<u32, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let (mut total, mut covered, mut worst) = (0u64, 0u64, 0.0f64);
    for s in spans.iter().filter(|s| s.parent == 0) {
        let c = child_ns.get(&s.id).copied().unwrap_or(0).min(s.dur_ns());
        total += s.dur_ns();
        covered += c;
        if s.dur_ns() > 0 {
            worst = worst.max(100.0 * (s.dur_ns() - c) as f64 / s.dur_ns() as f64);
        }
    }
    let share = if total == 0 {
        0.0
    } else {
        100.0 * (total - covered) as f64 / total as f64
    };
    (share, worst)
}

/// Seconds between the first worker going idle (the end of its last
/// root span) and the end of the last root span of one pass.
pub fn tail_s(roots: &[Span]) -> f64 {
    use std::collections::HashMap;
    let mut last_end: HashMap<u64, u64> = HashMap::new();
    for s in roots {
        let e = last_end.entry(s.thread).or_default();
        *e = (*e).max(s.end_ns);
    }
    let end = last_end.values().copied().max().unwrap_or(0);
    let first_idle = last_end.values().copied().min().unwrap_or(0);
    (end - first_idle) as f64 * 1e-9
}

/// Render spans as JSON lines, one object per span.
pub fn jsonl(workload: &str, seed: u64, spans: &[Span]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"id\":{},\"parent\":{},\"name\":\"{}\",\"point\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.point, s.thread, s.start_ns, s.end_ns
        );
    }
    out
}
