//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <emu-sweep|xeon-sweep|scenario-suite|daemon-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! Run from the repository root. One run sets the workload up several
//! times (the median is `setup_s`), then runs whole passes over the
//! workload's fixed op list until `--seconds` have passed. With
//! `--trace 0` every pass is untraced and the last stdout line carries
//! the end-to-end metrics; with `--trace 1` untraced and traced passes
//! alternate, the traced ones record spans around each layer call, and
//! the last line carries the per-layer metrics. Either way every op's
//! outputs are checked, and every pass must reproduce the first pass's
//! output digest and exact counts. See `perfbench/README.md`.

mod daemon;
mod emu;
mod stats;
mod suite;
mod sweep;
mod trace;
mod xeon;

use stats::{median, percentile, Digest};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::{Span, Tracer};

/// Exact simulated counts, by name.
pub type Counts = BTreeMap<&'static str, u64>;

/// What one pass over a workload's fixed op list produced.
pub struct PassOut {
    /// Host seconds the pass took, checks on outputs excluded.
    pub wall_s: f64,
    /// Latency of each op, in milliseconds.
    pub ops_ms: Vec<f64>,
    /// Ops that failed a check.
    pub failed: u64,
    /// Digest over every simulated output, in a fixed order.
    pub digest: Digest,
    /// Exact simulated counts; equal in every pass.
    pub counts: Counts,
    /// Simulated memory bytes the pass's results account for.
    pub sim_bytes: u64,
    /// Per-layer values the workload measures itself (daemon series).
    pub layer: BTreeMap<&'static str, f64>,
}

impl PassOut {
    pub fn new(wall_s: f64) -> PassOut {
        PassOut {
            wall_s,
            ops_ms: Vec::new(),
            failed: 0,
            digest: Digest::new(),
            counts: Counts::new(),
            sim_bytes: 0,
            layer: BTreeMap::new(),
        }
    }
}

/// What a set-up generated from the seed: time spent generating
/// inputs, and a digest of them, recorded with the results so a later
/// run can show it measured the same inputs.
pub struct Inputs {
    pub build_s: f64,
    pub digest: Digest,
}

impl Inputs {
    /// Time `f` as input generation.
    pub fn build<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.build_s += t0.elapsed().as_secs_f64();
        out
    }
}

pub trait Workload {
    /// One pass over the op list; `tr` is `Some` on traced passes.
    fn pass(&mut self, tr: Option<&Tracer>) -> PassOut;

    /// Checks made after the timed window, and shutdown. Returns
    /// `(attempted, failed)` checks.
    fn finish(&mut self) -> (u64, u64) {
        (0, 0)
    }
}

const WORKLOADS: [&str; 4] = ["emu-sweep", "xeon-sweep", "scenario-suite", "daemon-mixed"];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

/// End-to-end metrics, `(name, unit)`, reported with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics, `(name, unit)`, reported with `--trace 1`.
const PER_LAYER: [(&str, &str); 40] = [
    ("engine.build_ms", "ms"),
    ("engine.simulate_s", "s"),
    ("engine.ns_per_event", "ns"),
    ("engine.events", "count"),
    ("engine.migrations", "count"),
    ("pdes.epochs", "count"),
    ("pdes.events_per_epoch", "count"),
    ("pdes.mailbox_sent", "count"),
    ("pdes.clean_windows", "count"),
    ("audit.ms_per_report", "ms"),
    ("json.report_ms", "ms"),
    ("json.report_kb", "KiB"),
    ("sweep.busy_ratio", "ratio"),
    ("sweep.tail_s", "s"),
    ("xeon.simulate_s", "s"),
    ("xeon.ns_per_access", "ns"),
    ("xeon.l1_hits", "count"),
    ("xeon.l3_hits", "count"),
    ("xeon.dram_loads", "count"),
    ("xeon.prefetches", "count"),
    ("xeon.writebacks", "count"),
    ("xeon.dram_row_hits", "count"),
    ("inputs.build_s", "s"),
    ("scenario.parse_ms", "ms"),
    ("scenario.resolve_ms", "ms"),
    ("scenario.run_point_ms", "ms"),
    ("scenario.evaluate_ms", "ms"),
    ("simd.queue_wait_p50_ms", "ms"),
    ("simd.queue_wait_p99_ms", "ms"),
    ("simd.execute_p50_ms", "ms"),
    ("simd.warm_ratio", "ratio"),
    ("simd.rejected_busy", "count"),
    ("simd.bytes_out_per_req", "B"),
    ("runcache.hit_ratio", "ratio"),
    ("runcache.store_kb", "KiB"),
    ("daemon.req_cached_p50_ms", "ms"),
    ("daemon.req_fresh_p50_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.uncovered_pct", "%"),
    ("trace.worst_uncovered_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <emu-sweep|xeon-sweep|scenario-suite|daemon-mixed> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --self-test";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&val.as_str()) => workload = Some(val.clone()),
            "--workload" => return Err(format!("unknown workload {val:?}")),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Drop every `EMU_*` variable before anything reads one, so a stray
/// `EMU_QUICK`, `EMU_JOBS`, `EMU_SIM_THREADS`, `EMU_CACHE*` or
/// `EMU_PDES_*` cannot change what is measured. Returns their names.
fn pin_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("EMU_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

/// Sweep jobs and client connections: never more than 2, never more
/// than the host's cores.
fn jobs() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

fn setup(
    workload: &str,
    seed: u64,
    jobs: usize,
    inputs: &mut Inputs,
) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "emu-sweep" => Box::new(emu::EmuSweep::setup(seed, inputs)),
        "xeon-sweep" => Box::new(xeon::XeonSweep::setup(seed, inputs)),
        "scenario-suite" => Box::new(suite::Suite::setup(seed, inputs)?),
        "daemon-mixed" => Box::new(daemon::Daemon::setup(seed, jobs, inputs)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// `.rs` lines under `crates/ src/ tests/ examples/`.
fn rs_lines() -> u64 {
    fn walk(dir: &std::path::Path, n: &mut u64) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, n);
            } else if p.extension().is_some_and(|x| x == "rs") {
                *n += std::fs::read_to_string(&p).map_or(0, |s| s.lines().count() as u64);
            }
        }
    }
    let mut n = 0;
    for d in ["crates", "src", "tests", "examples"] {
        walk(std::path::Path::new(d), &mut n);
    }
    n
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// A JSON number; non-finite values (which no metric should produce)
/// become 0 so the line stays parseable.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn metrics_json(names: &[(&str, &str)], values: &BTreeMap<&str, f64>) -> String {
    let fields: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(v))
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn end_to_end(untraced: &[PassOut], setup_s: &[f64]) -> BTreeMap<&'static str, f64> {
    let walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    let total: f64 = walls.iter().sum();
    let ops: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.ops_ms.iter().copied())
        .collect();
    let bytes: u64 = untraced.iter().map(|p| p.sim_bytes).sum();
    BTreeMap::from([
        ("wall_s", median(&walls)),
        ("setup_s", median(setup_s)),
        ("op_p50_ms", percentile(&ops, 0.5)),
        ("op_p90_ms", percentile(&ops, 0.9)),
        ("ops_per_s", ops.len() as f64 / total),
        // Reported beside the bounded metrics, not as metrics: see
        // perfbench/README.md for why neither is steady enough to bound.
        ("sim_bytes_per_s", bytes as f64 / total),
        ("peak_rss_mb", stats::peak_rss_mb()),
    ])
}

/// A sweep point or scenario: a root span the sweep executor ran. The
/// daemon's roots are client requests instead.
fn is_sweep_root(s: &Span) -> bool {
    s.parent == 0 && s.name != "request"
}

fn per_layer(
    spans: &[Span],
    traced: &[PassOut],
    untraced: &[PassOut],
    inputs_s: f64,
    tails: &[f64],
    jobs: usize,
) -> BTreeMap<&'static str, f64> {
    use trace::{count, total_s};
    let np = traced.len() as f64;
    let mean_ms = |name: &str| match count(spans, name) {
        0 => 0.0,
        n => total_s(spans, name) * 1e3 / n as f64,
    };
    let cnt = |k: &str| traced[0].counts.get(k).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    // The membench entry points build and drop their engine inside the
    // `emu.run` span; the separately timed build and drop of the same
    // configs stand in for that share.
    let emu_run_s = total_s(spans, "emu.run") / np;
    let engine_fixed_s = (total_s(spans, "engine.build") + total_s(spans, "engine.drop")) / np;
    let simulate_s = if emu_run_s > 0.0 {
        (emu_run_s - engine_fixed_s).max(0.0)
    } else {
        0.0
    };
    let traced_wall: f64 = traced.iter().map(|p| p.wall_s).sum();
    let root_s: f64 = spans
        .iter()
        .filter(|s| is_sweep_root(s))
        .map(|s| s.dur_ns() as f64 * 1e-9)
        .sum();
    let wall = |ps: &[PassOut]| median(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let (uncovered, worst) = trace::uncovered_pct(spans);
    let mut m = BTreeMap::from([
        ("engine.build_ms", mean_ms("engine.build")),
        ("engine.simulate_s", simulate_s),
        (
            "engine.ns_per_event",
            ratio(simulate_s * 1e9, cnt("engine.events")),
        ),
        ("engine.events", cnt("engine.events")),
        ("engine.migrations", cnt("engine.migrations")),
        ("pdes.epochs", cnt("pdes.epochs")),
        (
            "pdes.events_per_epoch",
            ratio(cnt("pdes.events"), cnt("pdes.epochs")),
        ),
        ("pdes.mailbox_sent", cnt("pdes.mailbox_sent")),
        ("pdes.clean_windows", cnt("pdes.clean_windows")),
        ("audit.ms_per_report", mean_ms("audit")),
        ("json.report_ms", mean_ms("json")),
        (
            "json.report_kb",
            ratio(cnt("json.bytes") / 1024.0, cnt("json.reports")),
        ),
        ("sweep.busy_ratio", ratio(root_s, jobs as f64 * traced_wall)),
        ("sweep.tail_s", tails.iter().sum::<f64>() / np),
        (
            "xeon.simulate_s",
            (total_s(spans, "xeon.run") + total_s(spans, "xeon.chase")) / np,
        ),
        (
            "xeon.ns_per_access",
            ratio(total_s(spans, "xeon.run") * 1e9 / np, cnt("xeon.accesses")),
        ),
        ("inputs.build_s", inputs_s),
        ("scenario.parse_ms", mean_ms("scenario.parse")),
        ("scenario.resolve_ms", mean_ms("scenario.resolve")),
        ("scenario.run_point_ms", mean_ms("scenario.run_point")),
        ("scenario.evaluate_ms", mean_ms("scenario.evaluate")),
        (
            "trace.overhead_pct",
            100.0 * (wall(traced) / wall(untraced) - 1.0),
        ),
        ("trace.uncovered_pct", uncovered),
        ("trace.worst_uncovered_pct", worst),
    ]);
    for k in [
        "xeon.l1_hits",
        "xeon.l3_hits",
        "xeon.dram_loads",
        "xeon.prefetches",
        "xeon.writebacks",
        "xeon.dram_row_hits",
    ] {
        m.insert(k, cnt(k));
    }
    for p in traced {
        for (k, v) in &p.layer {
            *m.entry(k).or_default() += v / np;
        }
    }
    m
}

fn run(a: &Args, jobs: usize, ignored_env: &[String]) -> Result<(), String> {
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut setup_s = Vec::new();
    let mut inputs = Vec::new();
    let mut w: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUPS {
        if let Some(mut old) = w.take() {
            let (at, f) = old.finish();
            attempted += at;
            failed += f;
        }
        let mut inp = Inputs {
            build_s: 0.0,
            digest: Digest::new(),
        };
        let t0 = Instant::now();
        w = Some(setup(&a.workload, a.seed, jobs, &mut inp)?);
        setup_s.push(t0.elapsed().as_secs_f64());
        inputs.push(inp);
    }
    let mut w = w.expect("at least one set-up");

    // One warm-up pass: caches fill, the pool's engines get built and
    // lazy set-up finishes before timing. Its outputs are checked and
    // become the reference every timed pass must reproduce.
    let warm = w.pass(None);
    let tracer = a.trace.then(Tracer::new);
    let (mut untraced, mut traced) = (Vec::<PassOut>::new(), Vec::<PassOut>::new());
    let (mut spans, mut tails) = (Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        // Untraced first; with tracing on, traced passes alternate.
        match &tracer {
            Some(t) if untraced.len() > traced.len() => {
                let p = w.pass(Some(t));
                let s = t.drain();
                let roots: Vec<Span> = s.iter().filter(|s| is_sweep_root(s)).cloned().collect();
                tails.push(trace::tail_s(&roots));
                spans.extend(s);
                traced.push(p);
            }
            _ => untraced.push(w.pass(None)),
        }
        let enough = start.elapsed().as_secs_f64() >= a.seconds;
        if enough && (tracer.is_none() || !traced.is_empty()) {
            break;
        }
    }
    let (at, f) = w.finish();
    attempted += at;
    failed += f;

    // Every pass, traced or not, must reproduce the warm-up exactly.
    let first = &warm;
    for p in std::iter::once(first).chain(&untraced).chain(&traced) {
        attempted += p.ops_ms.len() as u64;
        failed += p.failed;
    }
    for p in untraced.iter().chain(&traced) {
        attempted += 1;
        if p.digest != first.digest || p.counts != first.counts {
            eprintln!(
                "perfbench: pass digest {} differs from the first pass's {}",
                p.digest.hex(),
                first.digest.hex()
            );
            failed += 1;
        }
    }

    let spans_file = if a.trace {
        let path = std::path::Path::new(".perfbench")
            .join(format!("spans-{}-seed{}.jsonl", a.workload, a.seed));
        std::fs::create_dir_all(".perfbench").map_err(|e| format!(".perfbench: {e}"))?;
        std::fs::write(&path, trace::jsonl(&a.workload, a.seed, &spans))
            .map_err(|e| format!("{path:?}: {e}"))?;
        path.display().to_string()
    } else {
        String::new()
    };

    let e2e = end_to_end(&untraced, &setup_s);
    let n_ops = untraced.iter().map(|p| p.ops_ms.len()).sum::<usize>();
    let mut detail = String::new();
    let _ = write!(
        detail,
        "{{\"perfbench\":{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"seconds\":{},\
         \"host\":{{\"nproc\":{},\"jobs\":{},\"rustc\":\"{}\",\"rs_lines\":{}}},\
         \"ignored_env\":[{}],\"setups\":{},\"passes\":{{\"warm_up\":1,\"untraced\":{},\"traced\":{}}},\
         \"samples\":{{\"op_p50_ms\":{n_ops},\"op_p90_ms\":{n_ops}}},\
         \"error_rate\":{},\"inputs_digest\":\"{}\",\"digest\":\"{}\",\"counts\":{{{}}}",
        a.workload,
        a.seed,
        u8::from(a.trace),
        a.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        jobs,
        rustc_version(),
        rs_lines(),
        ignored_env.iter().map(|k| format!("\"{k}\"")).collect::<Vec<_>>().join(","),
        SETUPS,
        untraced.len(),
        traced.len(),
        num(failed as f64 / attempted.max(1) as f64),
        inputs[0].digest.hex(),
        first.digest.hex(),
        first
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(","),
    );
    if !spans_file.is_empty() {
        let _ = write!(
            detail,
            ",\"spans\":\"{spans_file}\",\"span_count\":{}",
            spans.len()
        );
    }
    let list = |xs: &mut dyn Iterator<Item = f64>| xs.map(num).collect::<Vec<_>>().join(",");
    let _ = write!(
        detail,
        ",\"setup_s_each\":[{}],\"pass_wall_s\":[{}]",
        list(&mut setup_s.iter().copied()),
        list(&mut untraced.iter().map(|p| p.wall_s))
    );
    let _ = write!(
        detail,
        ",\"sim_bytes_per_s\":{},\"peak_rss_mb\":{},\"end_to_end\":{}}}}}",
        num(e2e["sim_bytes_per_s"]),
        num(e2e["peak_rss_mb"]),
        metrics_json(&END_TO_END, &e2e)
    );
    println!("{detail}");

    let metrics = if a.trace {
        let inputs_s = median(&inputs.iter().map(|i| i.build_s).collect::<Vec<_>>());
        metrics_json(
            &PER_LAYER,
            &per_layer(&spans, &traced, &untraced, inputs_s, &tails, jobs),
        )
    } else {
        metrics_json(&END_TO_END, &e2e)
    };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        failed == 0,
        attempted.max(1),
        failed,
        metrics
    );
    Ok(())
}

/// Corrupt one output of each workload and check that exactly that one
/// is counted as failed.
fn self_test() -> bool {
    fn check(name: &str, w: &mut dyn Workload) -> bool {
        let p = w.pass(None);
        let (_, f) = w.finish();
        let failed = p.failed + f;
        println!(
            "self-test {name}: {failed} of {} ops counted as failed ({})",
            p.ops_ms.len(),
            if failed == 1 { "ok" } else { "WRONG" }
        );
        failed == 1
    }
    let mut inputs = Inputs {
        build_s: 0.0,
        digest: Digest::new(),
    };
    let mut e = emu::EmuSweep::setup(1, &mut inputs);
    e.corrupt_point(0);
    let mut ok = check("emu-sweep", &mut e);
    let mut x = xeon::XeonSweep::setup(1, &mut inputs);
    x.corrupt_point(8);
    ok &= check("xeon-sweep", &mut x);
    let s = suite::Suite::setup(1, &mut inputs).map(|mut s| {
        s.corrupt_scenario(0);
        check("scenario-suite", &mut s)
    });
    let d = daemon::Daemon::setup(1, jobs(), &mut inputs).map(|mut d| {
        d.corrupt_request(0);
        check("daemon-mixed", &mut d)
    });
    for r in [s, d] {
        match r {
            Ok(passed) => ok &= passed,
            Err(e) => {
                println!("self-test: {e}");
                ok = false;
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    let ignored_env = pin_env();
    let jobs = jobs();
    emu_bench::runcfg::set_jobs(jobs);
    emu_core::engine::set_sim_threads(1);
    runcache::set_enabled(false);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--self-test"] {
        return if self_test() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args, jobs, &ignored_env) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
