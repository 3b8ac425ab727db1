//! Content-addressed memoization of figure sweep cells.
//!
//! Every figure cell is a pure function of its fully-resolved machine
//! and workload configuration, so a re-run of an unchanged campaign can
//! serve each cell from [`runcache`] instead of re-simulating it. The
//! memo layer is inert unless the cache is enabled (`EMU_CACHE=1` or
//! `runcache::set_enabled`), and it steps aside whenever the caller's
//! run scope observes runs (see [`runcache::active`]).
//!
//! Keys hash the `Debug` rendering of the resolved configs, so the
//! `EMU_QUICK` sizing, preset overrides, and seeds all flow into the
//! digest; a knob flip is a different key, never a stale hit.

use emu_core::fault::SimError;

fn digest(kind: &str, label: &str, parts: &[(&str, String)]) -> String {
    let mut k = runcache::Key::new(kind);
    k.record("label", label);
    for (name, value) in parts {
        k.record(name, value);
    }
    k.digest()
}

/// Memoize one formatted figure cell (or row — any string artifact).
/// `parts` must capture everything the value depends on, typically the
/// `Debug` of the machine config and of the workload config.
pub fn memo_str(
    label: &str,
    parts: &[(&str, String)],
    f: impl FnOnce() -> Result<String, SimError>,
) -> Result<String, SimError> {
    if !runcache::active() {
        return f();
    }
    let d = digest("figcell", label, parts);
    if let Some(e) = runcache::lookup(&d) {
        return Ok(e.payload);
    }
    let v = f()?;
    runcache::publish(
        &d,
        &runcache::Entry {
            kind: "figcell".into(),
            label: label.into(),
            payload: v.clone(),
            recipe: None,
        },
    );
    Ok(v)
}

/// Memoize one scalar measurement. The payload is the f64's shortest
/// round-trip rendering, so the parsed-back value is bit-identical.
pub fn memo_f64(
    label: &str,
    parts: &[(&str, String)],
    f: impl FnOnce() -> Result<f64, SimError>,
) -> Result<f64, SimError> {
    if !runcache::active() {
        return f();
    }
    let d = digest("figscalar", label, parts);
    if let Some(e) = runcache::lookup(&d) {
        if let Ok(v) = e.payload.parse::<f64>() {
            return Ok(v);
        }
    }
    let v = f()?;
    runcache::publish(
        &d,
        &runcache::Entry {
            kind: "figscalar".into(),
            label: label.into(),
            payload: format!("{v:?}"),
            recipe: None,
        },
    );
    Ok(v)
}

/// One-line session summary, printed by `all_figures` when the cache is
/// enabled so CI (and humans) can see a warm run re-simulated nothing.
pub fn session_summary() -> String {
    let s = runcache::session_stats();
    format!(
        "[runcache] hits={} misses={} stores={} dir={}",
        s.hits,
        s.misses,
        s.stores,
        runcache::resolve_dir().display()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn memo_is_inert_when_disabled() {
        // The suite never enables the cache, so both calls must run.
        let calls = AtomicUsize::new(0);
        for _ in 0..2 {
            let v = memo_str("t", &[("k", "v".into())], || {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok("x".into())
            })
            .unwrap();
            assert_eq!(v, "x");
        }
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn digests_separate_labels_and_parts() {
        let a = digest("figcell", "a", &[("m", "1".into())]);
        let b = digest("figcell", "b", &[("m", "1".into())]);
        let c = digest("figcell", "a", &[("m", "2".into())]);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn f64_payload_round_trips_exactly() {
        let x = 1_234.567_891_011_12_f64 / 3.0;
        let s = format!("{x:?}");
        assert_eq!(s.parse::<f64>().unwrap().to_bits(), x.to_bits());
    }
}
