//! Microbench: telemetry must be zero-cost when disabled.
//!
//! The engine's instrumentation sites all funnel through one branch on
//! an `Option<TraceRecorder>` (plus one read of the thread's run scope
//! in `Engine::new`). This binary measures a STREAM run on the disabled
//! path in two configurations — the default scope vs a scope entered
//! with telemetry explicitly set *to the off state* — and asserts they
//! agree within 2%. The two configurations execute identical work, so
//! any persistent gap would mean the off path is doing something; a
//! transient gap is machine noise, which is why a round that misses the
//! budget is re-measured (up to three rounds) before the binary fails. It then runs with tracing fully enabled and
//! reports that overhead informationally (the on path is allowed to
//! cost something).
//!
//! Exits nonzero on failure; wired into CI's smoke job.

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

/// One measurement round: interleaved pairs of the two off-path
/// variants. Returns (min unarmed, min armed-off, off-path delta),
/// where the delta is the smaller of two independent noise-robust
/// estimates — |median paired ratio − 1| (cancels drift) and the
/// min-vs-min gap (ignores outlier iterations). The true value is
/// zero, so the lower estimate is the better one.
fn measure_round(sc: &EmuStreamConfig) -> (f64, f64, f64) {
    let mut base = f64::INFINITY;
    let mut armed_off = f64::INFINITY;
    let mut ratios = Vec::with_capacity(PAIRS_PER_ROUND);
    for i in 0..PAIRS_PER_ROUND {
        // Alternate which variant goes first: position in the pair has
        // its own small systematic cost, and alternation cancels it.
        let run_armed_off = || {
            RunScope::current()
                .with_telemetry(TelemetryConfig::off())
                .enter(|| timed_run(sc))
        };
        let (a, b) = if i % 2 == 0 {
            let a = timed_run(sc);
            (a, run_armed_off())
        } else {
            let b = run_armed_off();
            (timed_run(sc), b)
        };
        base = base.min(a);
        armed_off = armed_off.min(b);
        ratios.push(b / a);
    }
    ratios.sort_by(|x, y| x.total_cmp(y));
    let median_delta = (ratios[ratios.len() / 2] - 1.0).abs();
    let min_delta = (base - armed_off).abs() / base.min(armed_off);
    (base, armed_off, median_delta.min(min_delta))
}

fn main() {
    let sc = workload();
    println!(
        "trace_overhead: STREAM ADD, {} elems, {} threads, {PAIRS_PER_ROUND} pairs/round",
        sc.total_elems, sc.nthreads
    );

    // Warm-up run (page faults, lazy allocation) outside the sample.
    let _ = timed_run(&sc);

    let mut base = f64::INFINITY;
    let mut armed_off = f64::INFINITY;
    let mut best = f64::INFINITY;
    for round in 1..=MAX_ROUNDS {
        let (a, b, rel) = measure_round(&sc);
        base = base.min(a);
        armed_off = armed_off.min(b);
        best = best.min(rel);
        println!(
            "  round {round}: unarmed {:>7.2} ms, armed-off {:>7.2} ms, delta {:.2} %",
            a * 1e3,
            b * 1e3,
            rel * 100.0
        );
        if best < BUDGET {
            break;
        }
    }

    // Informational: what tracing costs when it is actually on.
    let traced = RunScope::current().with_telemetry(TelemetryConfig {
        event_capacity: 1 << 16,
        timeline_bucket: Some(desim::time::Time::from_us(20)),
    });
    let mut on = f64::INFINITY;
    for _ in 0..3 {
        on = on.min(traced.clone().enter(|| timed_run(&sc)));
    }
    println!(
        "  tracing enabled: {:>7.2} ms  ({:+.1}% vs unarmed, informational)",
        on * 1e3,
        100.0 * (on - base) / base
    );

    if best >= BUDGET {
        eprintln!(
            "FAIL: off-path overhead {:.2}% exceeds the {:.0}% budget in every round",
            best * 100.0,
            BUDGET * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "PASS: disabled telemetry within noise ({:.2}% < {:.0}%)",
        best * 100.0,
        BUDGET * 100.0
    );
}
