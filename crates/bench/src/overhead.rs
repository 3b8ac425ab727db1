//! `simctl overhead` — the two "instrumentation is free when quiet"
//! gates, measured on one STREAM run.
//!
//! * **Registry.** The `emu_core::obs` metrics registry ships enabled:
//!   every engine run bumps a handful of relaxed atomics once at
//!   completion, and latency/phase clock reads hide behind a single
//!   `obs::enabled()` relaxed load. The enabled run must agree with the
//!   same run with the registry disabled.
//! * **Disabled telemetry.** The engine's trace sites all funnel through
//!   one branch on an `Option<TraceRecorder>` (plus one read of the
//!   thread's run scope in `Engine::new`). A run in the default scope
//!   must agree with one in a scope entered with telemetry explicitly
//!   set *to the off state*.
//!
//! Each pair of variants executes identical work, so a persistent gap
//! means instrumentation leaked into the simulation loop; a transient
//! gap is machine noise, which is why a round that misses the 2 % budget
//! is re-measured (up to three rounds) before the gate fails. A fully
//! traced run is then timed for information only: the on path may cost
//! something.

use emu_core::obs;
use emu_core::trace::{RunScope, TelemetryConfig};
use membench::stream::{run_stream_emu, stream_checksum, EmuStreamConfig, StreamKernel};
use std::time::Instant;

const BUDGET: f64 = 0.02;
const PAIRS_PER_ROUND: usize = 9;
const MAX_ROUNDS: usize = 3;

fn workload() -> EmuStreamConfig {
    // Deliberately ignores EMU_QUICK: the 2% assertion needs runs long
    // enough (~140 ms) that scheduler jitter stays inside the budget.
    EmuStreamConfig {
        total_elems: 1 << 18,
        nthreads: 256,
        strategy: emu_core::spawn::SpawnStrategy::RecursiveRemote,
        kernel: StreamKernel::Add,
        single_nodelet: false,
        stack_touch_period: 4,
    }
}

fn timed_run(sc: &EmuStreamConfig) -> f64 {
    let cfg = emu_core::presets::chick_prototype();
    let t0 = Instant::now();
    let r = run_stream_emu(&cfg, sc).expect("STREAM run failed");
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(
        r.checksum,
        stream_checksum(sc.total_elems, sc.kernel),
        "STREAM checksum mismatch"
    );
    dt
}

/// One measurement round: interleaved pairs of the `base` and `variant`
/// runs. Returns (min base, min variant, delta), where the delta is the
/// smaller of two independent noise-robust estimates — |median paired
/// ratio − 1| (cancels drift) and the min-vs-min gap (ignores outlier
/// iterations). The true value is zero, so the lower estimate is the
/// better one.
fn measure_round(base: &dyn Fn() -> f64, variant: &dyn Fn() -> f64) -> (f64, f64, f64) {
    let mut min_base = f64::INFINITY;
    let mut min_variant = f64::INFINITY;
    let mut ratios = Vec::with_capacity(PAIRS_PER_ROUND);
    for i in 0..PAIRS_PER_ROUND {
        // Alternate which variant goes first: position in the pair has
        // its own small systematic cost, and alternation cancels it.
        let (a, b) = if i % 2 == 0 {
            let a = base();
            (a, variant())
        } else {
            let b = variant();
            (base(), b)
        };
        min_base = min_base.min(a);
        min_variant = min_variant.min(b);
        ratios.push(b / a);
    }
    ratios.sort_by(|x, y| x.total_cmp(y));
    let median_delta = (ratios[ratios.len() / 2] - 1.0).abs();
    let min_delta = (min_base - min_variant).abs() / min_base.min(min_variant);
    (min_base, min_variant, median_delta.min(min_delta))
}

/// Run one gate's rounds and print its verdict; returns (passed, min
/// base time).
fn gate(
    what: &str,
    labels: (&str, &str),
    base: &dyn Fn() -> f64,
    variant: &dyn Fn() -> f64,
) -> (bool, f64) {
    println!("{what}:");
    let mut min_base = f64::INFINITY;
    let mut best = f64::INFINITY;
    for round in 1..=MAX_ROUNDS {
        let (a, b, rel) = measure_round(base, variant);
        min_base = min_base.min(a);
        best = best.min(rel);
        println!(
            "  round {round}: {} {:>7.2} ms, {} {:>7.2} ms, delta {:.2} %",
            labels.0,
            a * 1e3,
            labels.1,
            b * 1e3,
            rel * 100.0
        );
        if best < BUDGET {
            break;
        }
    }
    let verdict = if best < BUDGET { "PASS" } else { "FAIL" };
    println!(
        "{verdict}: {what} delta {:.2}% vs the {:.0}% budget",
        best * 100.0,
        BUDGET * 100.0
    );
    (best < BUDGET, min_base)
}

/// Measure both gates and the traced run; true iff both gates pass.
pub fn run() -> bool {
    let sc = workload();
    println!(
        "overhead: STREAM ADD, {} elems, {} threads, {PAIRS_PER_ROUND} pairs/round",
        sc.total_elems, sc.nthreads
    );
    // Warm-up run (page faults, lazy registry allocation) outside the
    // sample: the first enabled run leaks its counter handles.
    obs::set_enabled(true);
    let _ = timed_run(&sc);

    let plain = || timed_run(&sc);
    let registry_off = || {
        obs::set_enabled(false);
        let dt = timed_run(&sc);
        obs::set_enabled(true);
        dt
    };
    let (registry_ok, _) = gate(
        "always-on metrics registry",
        ("disabled", "enabled"),
        &registry_off,
        &plain,
    );
    let armed_off = || {
        RunScope::current()
            .with_telemetry(TelemetryConfig::off())
            .enter(|| timed_run(&sc))
    };
    let (telemetry_ok, unarmed) = gate(
        "disabled telemetry",
        ("unarmed", "armed-off"),
        &plain,
        &armed_off,
    );

    let traced = RunScope::current().with_telemetry(TelemetryConfig {
        event_capacity: 1 << 16,
        timeline_bucket: Some(desim::time::Time::from_us(20)),
    });
    let on = (0..3)
        .map(|_| traced.clone().enter(|| timed_run(&sc)))
        .fold(f64::INFINITY, f64::min);
    println!(
        "tracing enabled: {:>7.2} ms  ({:+.1}% vs unarmed, informational)",
        on * 1e3,
        100.0 * (on - unarmed) / unarmed
    );
    registry_ok && telemetry_ok
}
