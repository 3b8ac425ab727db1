//! Process-global, lock-light live metrics: counters, gauges, and
//! log-bucketed latency histograms.
//!
//! [`trace`](crate::trace) answers "what happened inside one run" with
//! a per-run event log; this module answers "what is the process doing
//! right now" with monotonic aggregates cheap enough to stay always-on.
//! The registry hands out `&'static` handles (registration takes a
//! mutex once per name; every subsequent update is a single relaxed
//! atomic), so instrumented hot paths never contend. The `simd` daemon
//! snapshots the registry for its `{"op":"metrics"}` protocol op and
//! the Prometheus `/metrics` exporter, and `simctl top` renders the
//! same snapshots as a terminal dashboard.
//!
//! Conventions:
//!
//! * counter names end in `_total` (or `_ns_total` for accumulated
//!   durations) and only ever increase;
//! * histogram samples are durations in nanoseconds, bucketed by
//!   `floor(log2(ns))` — 64 buckets cover the full `u64` range;
//! * a name may carry one `{key="value"}` label suffix (for per-worker
//!   or per-phase series); histogram names must be label-free.
//!
//! The registry is always-on by default. [`set_enabled`] exists so the
//! overhead gate (`simctl overhead` in emu-bench) can prove the quiet
//! path costs <2%: recording sites that do more than bump an atomic
//! (e.g. read a clock) check [`enabled`] first.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed value (set / add / running maximum).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raise the value to `v` if `v` is larger (high-water mark).
    #[inline]
    pub fn record_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets (covers the whole `u64` range).
pub const HIST_BUCKETS: usize = 64;

/// A log2-bucketed histogram of `u64` samples (durations in ns).
///
/// Bucket `i` counts samples with `floor(log2(v)) == i` (`v == 0`
/// lands in bucket 0). Quantiles report the bucket's inclusive upper
/// bound, so they over-estimate by at most 2x — plenty for dashboards.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [(); HIST_BUCKETS].map(|()| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let idx = if v == 0 {
            0
        } else {
            63 - v.leading_zeros() as usize
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Capture the current bucket contents.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((i as u32, n));
            }
        }
        HistSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Inclusive upper bound of log2 bucket `i`.
fn bucket_upper(i: u32) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// A point-in-time copy of one histogram (sparse bucket list).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Non-empty `(bucket_index, count)` pairs, ascending by index.
    pub buckets: Vec<(u32, u64)>,
}

impl HistSnapshot {
    /// Upper bound of the bucket holding quantile `q` in `[0, 1]`
    /// (0 for an empty histogram).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(i, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(self.buckets.last().map(|&(i, _)| i).unwrap_or(0))
    }

    /// Mean sample value (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Bucket-wise difference `self - base` (saturating).
    fn delta(&self, base: &HistSnapshot) -> HistSnapshot {
        let mut map: BTreeMap<u32, u64> = self.buckets.iter().copied().collect();
        for &(i, n) in &base.buckets {
            let e = map.entry(i).or_insert(0);
            *e = e.saturating_sub(n);
        }
        HistSnapshot {
            count: self.count.saturating_sub(base.count),
            sum: self.sum.saturating_sub(base.sum),
            buckets: map.into_iter().filter(|&(_, n)| n > 0).collect(),
        }
    }
}

/// The global registry: name → leaked `&'static` metric.
#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, &'static Counter>,
    gauges: BTreeMap<String, &'static Gauge>,
    hists: BTreeMap<String, &'static Histogram>,
}

fn registry() -> &'static Mutex<Registry> {
    static REG: std::sync::OnceLock<Mutex<Registry>> = std::sync::OnceLock::new();
    REG.get_or_init(|| Mutex::new(Registry::default()))
}

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turn recording on or off process-wide. Handles stay valid either
/// way; instrumentation sites that pay for more than an atomic bump
/// (clock reads, allocation) consult [`enabled`] first.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether the registry is recording (default: yes).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Get or register the counter named `name`. The handle is `'static`:
/// call once and cache it next to the hot path.
pub fn counter(name: impl Into<String>) -> &'static Counter {
    let name = name.into();
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    reg.counters
        .entry(name)
        .or_insert_with(|| Box::leak(Box::default()))
}

/// Get or register the gauge named `name`.
pub fn gauge(name: impl Into<String>) -> &'static Gauge {
    let name = name.into();
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    reg.gauges
        .entry(name)
        .or_insert_with(|| Box::leak(Box::default()))
}

/// Get or register the histogram named `name` (label-free names only;
/// the Prometheus renderer merges quantile labels into the name).
pub fn histogram(name: impl Into<String>) -> &'static Histogram {
    let name = name.into();
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    reg.hists
        .entry(name)
        .or_insert_with(|| Box::leak(Box::default()))
}

/// A point-in-time copy of every registered metric, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` for every histogram.
    pub hists: Vec<(String, HistSnapshot)>,
}

/// Capture the whole registry. Values are read metric-by-metric (no
/// global pause), so a snapshot under load is approximately — not
/// transactionally — consistent, which is fine for monitoring.
pub fn snapshot() -> Snapshot {
    let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    Snapshot {
        counters: reg
            .counters
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect(),
        gauges: reg
            .gauges
            .iter()
            .map(|(k, g)| (k.clone(), g.get()))
            .collect(),
        hists: reg
            .hists
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect(),
    }
}

impl Snapshot {
    /// Value of a counter by exact name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// Value of a gauge by exact name (0 if absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// Histogram snapshot by exact name.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|(k, _)| k == name).map(|(_, h)| h)
    }

    /// Counter and histogram growth since `base` (gauges keep their
    /// current value — deltas of instantaneous values are meaningless).
    pub fn delta(&self, base: &Snapshot) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.saturating_sub(base.counter(k))))
                .collect(),
            gauges: self.gauges.clone(),
            hists: self
                .hists
                .iter()
                .map(|(k, h)| {
                    let d = match base.hist(k) {
                        Some(b) => h.delta(b),
                        None => h.clone(),
                    };
                    (k.clone(), d)
                })
                .collect(),
        }
    }

    /// Serialize as one JSON object (stable key order — snapshots of
    /// identical registries render byte-identically).
    pub fn json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}:{v}", crate::json::jstr(k));
        }
        s.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}:{v}", crate::json::jstr(k));
        }
        s.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{}:{{\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
                crate::json::jstr(k),
                h.count,
                h.sum,
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
            );
            for (j, (b, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "[{b},{n}]");
            }
            s.push_str("]}");
        }
        s.push_str("}}");
        s
    }

    /// Render in the Prometheus text exposition format (version 0.0.4).
    /// Histograms are exported as `summary` series with p50/p90/p99
    /// quantiles plus `_sum` and `_count`.
    pub fn prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let mut typed: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        for (k, v) in &self.counters {
            let base = k.split('{').next().unwrap_or(k);
            if typed.insert(base.to_string()) {
                let _ = writeln!(s, "# TYPE {base} counter");
            }
            let _ = writeln!(s, "{k} {v}");
        }
        for (k, v) in &self.gauges {
            let base = k.split('{').next().unwrap_or(k);
            if typed.insert(base.to_string()) {
                let _ = writeln!(s, "# TYPE {base} gauge");
            }
            let _ = writeln!(s, "{k} {v}");
        }
        for (k, h) in &self.hists {
            let _ = writeln!(s, "# TYPE {k} summary");
            for (q, label) in [(0.50, "0.5"), (0.90, "0.9"), (0.99, "0.99")] {
                let _ = writeln!(s, "{k}{{quantile=\"{label}\"}} {}", h.quantile(q));
            }
            let _ = writeln!(s, "{k}_sum {}", h.sum);
            let _ = writeln!(s, "{k}_count {}", h.count);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_once_and_accumulate() {
        let c = counter("obs_test_counter_total");
        let again = counter("obs_test_counter_total");
        assert!(std::ptr::eq(c, again), "same name must alias one counter");
        let before = c.get();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), before + 5);

        let g = gauge("obs_test_gauge");
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
        g.record_max(2);
        assert_eq!(g.get(), 4, "record_max must not lower the value");
        g.record_max(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn histogram_buckets_by_log2_and_reports_quantiles() {
        let h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 1000, 1_000_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 7);
        assert_eq!(snap.sum, 1_001_010);
        // 0 and 1 share bucket 0; 2 and 3 land in bucket 1; 4 in 2.
        assert_eq!(snap.buckets[0], (0, 2));
        assert_eq!(snap.buckets[1], (1, 2));
        assert_eq!(snap.buckets[2], (2, 1));
        // p50 = 4th of 7 samples → bucket 1 upper bound.
        assert_eq!(snap.quantile(0.5), 3);
        // p99 → last bucket (1e6 → bucket 19, upper 2^20-1).
        assert_eq!(snap.quantile(0.99), (1 << 20) - 1);
        assert_eq!(HistSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn snapshot_delta_subtracts_counters_and_buckets() {
        let c = counter("obs_test_delta_total");
        let h = histogram("obs_test_delta_ns");
        c.add(2);
        h.record(10);
        let base = snapshot();
        c.add(3);
        h.record(10);
        h.record(100_000);
        let d = snapshot().delta(&base);
        assert_eq!(d.counter("obs_test_delta_total"), 3);
        let dh = d.hist("obs_test_delta_ns").unwrap();
        assert_eq!(dh.count, 2);
        assert_eq!(dh.buckets, vec![(3, 1), (16, 1)]);
    }

    #[test]
    fn snapshot_json_is_valid_and_stable() {
        counter("obs_test_json_total").inc();
        gauge("obs_test_json_gauge").set(-5);
        histogram("obs_test_json_ns").record(42);
        let a = snapshot();
        let b = snapshot();
        assert!(crate::json::json_ok(&a.json()), "snapshot JSON must parse");
        assert_eq!(a.json(), b.json(), "idle registry must render stably");
    }

    #[test]
    fn prometheus_exposition_has_types_and_quantiles() {
        counter("obs_prom_total{worker=\"0\"}").add(9);
        counter("obs_prom_total{worker=\"1\"}").add(1);
        histogram("obs_prom_lat_ns").record(100);
        let text = snapshot().prometheus();
        assert!(text.contains("# TYPE obs_prom_total counter"));
        assert_eq!(
            text.matches("# TYPE obs_prom_total counter").count(),
            1,
            "one TYPE line per metric family"
        );
        assert!(text.contains("obs_prom_total{worker=\"0\"} 9"));
        assert!(text.contains("# TYPE obs_prom_lat_ns summary"));
        assert!(text.contains("obs_prom_lat_ns{quantile=\"0.99\"} 127"));
        assert!(text.contains("obs_prom_lat_ns_count 1"));
        for line in text.lines() {
            assert!(
                line.starts_with('#')
                    || line
                        .split_whitespace()
                        .nth(1)
                        .is_some_and(|v| v.parse::<i64>().is_ok()),
                "every sample line carries a numeric value: {line}"
            );
        }
    }

    #[test]
    fn disabling_is_observable() {
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
    }
}
