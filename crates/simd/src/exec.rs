//! Request execution on a (possibly warm) engine slot.
//!
//! Each pool worker owns one [`WarmSlot`]. A run request resolves to a
//! [`MachineConfig`] plus a seeding step; if the slot holds an engine
//! built for an identical config it is [`Engine::reset`] and reused
//! (`warm`), otherwise a fresh engine is built (`cold`). Warm reuse is
//! byte-identical to cold by the `reset_reuse` regression suite in
//! emu-core, and every successful report is re-checked here against
//! the audit invariants before it leaves the daemon.
//!
//! Any failed run discards the slot's engine: a partially drained or
//! faulted engine is never reused.

use crate::proto::{ErrorKind, RunRequest, Spec};
use emu_core::json::report_json;
use emu_core::prelude::*;
use membench::stream::{run_stream_on, stream_checksum, EmuStreamConfig, StreamKernel};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// A worker's persistent engine, keyed by the config that built it.
#[derive(Default)]
pub struct WarmSlot(Option<(String, Engine)>);

impl WarmSlot {
    /// An empty (cold) slot.
    pub fn new() -> Self {
        WarmSlot(None)
    }
}

/// A typed execution failure, convertible to a wire error.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecError {
    /// Wire category.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl ExecError {
    fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        ExecError {
            kind,
            message: message.into(),
        }
    }
}

/// A successful execution.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The exact [`report_json`] document for the run, labeled `"run"`.
    pub report_json: String,
    /// Whether a warm engine was reused (vs built cold).
    pub warm: bool,
    /// The config key the engine was parked under (see [`spec_key`]) —
    /// the pool publishes it for sticky routing.
    pub config_key: String,
}

/// The warm-slot key a spec resolves to: the debug rendering of its
/// [`MachineConfig`]. Two requests with the same key can share a warm
/// engine, which is what the pool's sticky router matches on. `None`
/// when the spec does not resolve (the run would fail as `proto`
/// anyway, so routing it anywhere is fine).
pub fn spec_key(spec: &Spec) -> Option<String> {
    let plan = resolve(spec).ok()?;
    let cfg = match &plan {
        Plan::Case(case) => &case.cfg,
        Plan::Stream(cfg, _) => cfg,
        Plan::ScenarioPoint(_, point) => &point.cfg,
    };
    Some(format!("{cfg:?}"))
}

/// Resolve a preset name using the same vocabulary as the bench CLI
/// (shared resolver in [`presets::by_name`]).
pub fn preset_by_name(name: &str) -> Result<MachineConfig, String> {
    presets::by_name(name)
}

fn kernel_by_name(name: &str) -> Result<StreamKernel, String> {
    match name {
        "add" => Ok(StreamKernel::Add),
        "copy" => Ok(StreamKernel::Copy),
        "scale" => Ok(StreamKernel::Scale),
        "triad" => Ok(StreamKernel::Triad),
        other => Err(format!(
            "unknown kernel {other:?}; one of: add, copy, scale, triad"
        )),
    }
}

fn strategy_by_name(name: &str) -> Result<SpawnStrategy, String> {
    match name {
        "serial" => Ok(SpawnStrategy::Serial),
        "recursive" => Ok(SpawnStrategy::Recursive),
        "serial-remote" => Ok(SpawnStrategy::SerialRemote),
        "recursive-remote" => Ok(SpawnStrategy::RecursiveRemote),
        other => Err(format!(
            "unknown strategy {other:?}; one of: serial, recursive, serial-remote, recursive-remote"
        )),
    }
}

enum Plan {
    Case(conformance::fuzz::FuzzCase),
    Stream(MachineConfig, EmuStreamConfig),
    ScenarioPoint(Box<scenario::Scenario>, scenario::Point),
}

/// Everything the pool needs to cache one run: the content digest, a
/// display label, and the self-contained re-run recipe consumed by
/// `simctl cache verify`.
pub struct CachePlan {
    /// Content digest the report is stored under.
    pub digest: String,
    /// Human-readable label for `cache stats`.
    pub label: String,
    /// Re-run recipe (`case:…` or `stream\nk=v…`).
    pub recipe: String,
}

/// The cache plan for a run request, or `None` when the request is not
/// cacheable: cache off, telemetry armed, unresolvable spec, or a
/// scenario point (those go through the scenario crate's own cache).
///
/// The digest hashes fully-resolved content — the decoded case
/// re-encoded in canonical form, or the resolved machine + stream
/// configs — so formatting differences hash identically and a preset
/// definition change lands on a new key. Event/deadline budgets are
/// excluded: they do not alter the report of a run that completes.
pub fn cache_plan(spec: &Spec) -> Option<CachePlan> {
    if !runcache::active() {
        return None;
    }
    match resolve(spec).ok()? {
        Plan::Case(case) => {
            let text = conformance::fuzz::encode(&case);
            let mut k = runcache::Key::new("simd-case");
            k.record("case", &text);
            Some(CachePlan {
                digest: k.digest(),
                label: format!(
                    "case {}n/{}t",
                    case.cfg.total_nodelets(),
                    case.threads.len()
                ),
                recipe: format!("case:{text}"),
            })
        }
        Plan::Stream(cfg, sc) => {
            let Spec::Stream {
                preset,
                elems,
                threads,
                kernel,
                strategy,
                single_nodelet,
                stack_touch_period,
            } = spec
            else {
                return None;
            };
            let mut k = runcache::Key::new("simd-stream");
            k.record_debug("machine", &cfg);
            k.record_debug("stream", &sc);
            Some(CachePlan {
                digest: k.digest(),
                label: format!("stream {preset} {elems}x{threads}"),
                recipe: format!(
                    "stream\npreset={preset}\nelems={elems}\nthreads={threads}\n\
                     kernel={kernel}\nstrategy={strategy}\nsingle_nodelet={single_nodelet}\n\
                     stack_touch_period={stack_touch_period}"
                ),
            })
        }
        Plan::ScenarioPoint(..) => None,
    }
}

/// Rebuild the [`Spec`] a `stream` recipe describes (the inverse of
/// [`cache_plan`]'s recipe rendering). Used by `simctl cache verify`.
pub fn spec_from_stream_recipe(recipe: &str) -> Result<Spec, String> {
    let mut preset = None;
    let mut elems = None;
    let mut threads = None;
    let mut kernel = None;
    let mut strategy = None;
    let mut single_nodelet = None;
    let mut stack_touch_period = None;
    for line in recipe.lines().skip(1) {
        let (key, val) = line
            .split_once('=')
            .ok_or_else(|| format!("bad recipe line {line:?}"))?;
        match key {
            "preset" => preset = Some(val.to_string()),
            "elems" => elems = val.parse().ok(),
            "threads" => threads = val.parse().ok(),
            "kernel" => kernel = Some(val.to_string()),
            "strategy" => strategy = Some(val.to_string()),
            "single_nodelet" => single_nodelet = val.parse().ok(),
            "stack_touch_period" => stack_touch_period = val.parse().ok(),
            other => return Err(format!("unknown recipe key {other:?}")),
        }
    }
    Ok(Spec::Stream {
        preset: preset.ok_or("recipe missing preset")?,
        elems: elems.ok_or("recipe missing elems")?,
        threads: threads.ok_or("recipe missing threads")?,
        kernel: kernel.ok_or("recipe missing kernel")?,
        strategy: strategy.ok_or("recipe missing strategy")?,
        single_nodelet: single_nodelet.ok_or("recipe missing single_nodelet")?,
        stack_touch_period: stack_touch_period.ok_or("recipe missing stack_touch_period")?,
    })
}

fn resolve(spec: &Spec) -> Result<Plan, ExecError> {
    match spec {
        Spec::Case { text } => {
            let case = conformance::fuzz::decode(text)
                .map_err(|e| ExecError::new(ErrorKind::Proto, format!("bad case: {e}")))?;
            Ok(Plan::Case(case))
        }
        Spec::Stream {
            preset,
            elems,
            threads,
            kernel,
            strategy,
            single_nodelet,
            stack_touch_period,
        } => {
            let proto = |e| ExecError::new(ErrorKind::Proto, e);
            let cfg = preset_by_name(preset).map_err(proto)?;
            if *elems == 0 || *threads == 0 {
                return Err(ExecError::new(
                    ErrorKind::Proto,
                    "stream spec needs elems > 0 and threads > 0",
                ));
            }
            let sc = EmuStreamConfig {
                total_elems: *elems,
                nthreads: *threads,
                strategy: strategy_by_name(strategy).map_err(proto)?,
                kernel: kernel_by_name(kernel).map_err(proto)?,
                single_nodelet: *single_nodelet,
                stack_touch_period: *stack_touch_period,
            };
            Ok(Plan::Stream(cfg, sc))
        }
        Spec::ScenarioPoint { text, index } => {
            let proto = |e| ExecError::new(ErrorKind::Proto, e);
            let s = scenario::parse(text).map_err(|e| proto(format!("bad scenario: {e}")))?;
            let mut points = scenario::resolve(&s).map_err(proto)?;
            if *index >= points.len() {
                return Err(proto(format!(
                    "scenario {:?} has {} points; index {index} is out of range",
                    s.name,
                    points.len()
                )));
            }
            Ok(Plan::ScenarioPoint(Box::new(s), points.swap_remove(*index)))
        }
    }
}

fn sim_error(e: SimError) -> ExecError {
    let kind = match e {
        SimError::DeadlineExceeded { .. } => ErrorKind::Deadline,
        SimError::EventCapExceeded { .. } => ErrorKind::EventCap,
        _ => ErrorKind::Sim,
    };
    ExecError::new(kind, e.to_string())
}

/// Execute one run request on `slot`.
///
/// `cancel` is the watchdog flag armed by the pool's deadline timer;
/// the engine polls it cooperatively and raises
/// [`SimError::DeadlineExceeded`] when it trips. On any error the
/// slot's engine is discarded; on success it is parked for the next
/// request with a matching config.
pub fn execute(
    slot: &mut WarmSlot,
    req: &RunRequest,
    cancel: Option<(Arc<AtomicBool>, u64)>,
) -> Result<ExecOutcome, ExecError> {
    let plan = resolve(&req.spec)?;

    // A scenario point runs through the scenario crate's own runner
    // (which builds the workload's engines, audits every report, and
    // verifies the result against the functional oracle), so it never
    // touches this worker's parked engine. Deadline and event budgets
    // do not reach inside `run_point`; problems travel back as data in
    // the outcome document so the server can evaluate the scenario's
    // expect block over every point (see `crate::scn`).
    if let Plan::ScenarioPoint(s, point) = &plan {
        let outcome = scenario::run_point(s, point);
        return Ok(ExecOutcome {
            report_json: crate::scn::point_outcome_json(&outcome),
            warm: false,
            config_key: format!("{:?}", point.cfg),
        });
    }

    let cfg = match &plan {
        Plan::Case(case) => &case.cfg,
        Plan::Stream(cfg, _) => cfg,
        Plan::ScenarioPoint(..) => unreachable!("handled above"),
    };
    let key = format!("{cfg:?}");

    // Warm path: identical config => reset and reuse. Anything else is
    // a cold build (the old engine, if any, is simply replaced).
    let (mut engine, warm) = match slot.0.take() {
        Some((k, mut e)) if k == key => {
            e.reset();
            (e, true)
        }
        _ => (Engine::new(cfg.clone()).map_err(sim_error)?, false),
    };

    engine.set_event_cap(req.max_events);
    if let Some((flag, ms)) = cancel {
        engine.set_cancel(flag, ms);
    }

    let report = match &plan {
        Plan::Case(case) => {
            conformance::fuzz::seed_case(&mut engine, case).map_err(sim_error)?;
            engine.run_once().map_err(sim_error)?
        }
        Plan::Stream(_, sc) => {
            let res = run_stream_on(&mut engine, sc).map_err(sim_error)?;
            let want = stream_checksum(sc.total_elems, sc.kernel);
            if res.checksum != want {
                return Err(ExecError::new(
                    ErrorKind::Audit,
                    format!(
                        "stream checksum mismatch: got {:#x}, want {:#x}",
                        res.checksum, want
                    ),
                ));
            }
            res.report
        }
        Plan::ScenarioPoint(..) => unreachable!("handled above"),
    };

    // A finished engine is drained but structurally sound; audit the
    // report before vouching for it, then park the engine for reuse.
    let violations = audit(cfg, &report);
    if !violations.is_empty() {
        let joined: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
        return Err(ExecError::new(ErrorKind::Audit, joined.join("; ")));
    }
    engine.clear_cancel();
    slot.0 = Some((key.clone(), engine));

    Ok(ExecOutcome {
        report_json: report_json("run", &report),
        warm,
        config_key: key,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Chaos;

    fn stream_req(id: u64, elems: u64) -> RunRequest {
        RunRequest {
            id,
            spec: Spec::Stream {
                preset: "chick".into(),
                elems,
                threads: 16,
                kernel: "add".into(),
                strategy: "serial".into(),
                single_nodelet: true,
                stack_touch_period: 4,
            },
            deadline_ms: None,
            max_events: None,
            chaos: None,
        }
    }

    #[test]
    fn warm_reuse_is_byte_identical_to_cold() {
        let mut slot = WarmSlot::new();
        // First request builds cold; dirty the slot with a different size.
        let first = execute(&mut slot, &stream_req(1, 1024), None).unwrap();
        assert!(!first.warm);
        let warm = execute(&mut slot, &stream_req(2, 512), None).unwrap();
        assert!(warm.warm);

        let mut cold_slot = WarmSlot::new();
        let cold = execute(&mut cold_slot, &stream_req(3, 512), None).unwrap();
        assert_eq!(warm.report_json, cold.report_json);
    }

    #[test]
    fn case_spec_executes_and_reuses() {
        let case = "# case\nthread=0 L0:8 C5 S1:8 M0\nthread=3 A2:8 C9\n";
        let req = RunRequest {
            id: 7,
            spec: Spec::Case { text: case.into() },
            deadline_ms: None,
            max_events: None,
            chaos: None,
        };
        let mut slot = WarmSlot::new();
        let a = execute(&mut slot, &req, None).unwrap();
        assert!(!a.warm);
        let b = execute(&mut slot, &req, None).unwrap();
        assert!(b.warm);
        assert_eq!(a.report_json, b.report_json);
    }

    #[test]
    fn proto_errors_are_typed() {
        let mut slot = WarmSlot::new();
        let bad = RunRequest {
            id: 1,
            spec: Spec::Case {
                text: "nodes=0\n".into(),
            },
            deadline_ms: None,
            max_events: None,
            chaos: None,
        };
        let e = execute(&mut slot, &bad, None).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Proto);

        let mut req = stream_req(2, 1024);
        req.spec = Spec::Stream {
            preset: "nope".into(),
            elems: 1,
            threads: 1,
            kernel: "add".into(),
            strategy: "serial".into(),
            single_nodelet: true,
            stack_touch_period: 0,
        };
        assert_eq!(
            execute(&mut slot, &req, None).unwrap_err().kind,
            ErrorKind::Proto
        );
    }

    #[test]
    fn event_cap_and_deadline_map_to_typed_errors_and_recover() {
        let mut slot = WarmSlot::new();
        let mut req = stream_req(1, 2048);
        req.max_events = Some(50);
        let e = execute(&mut slot, &req, None).unwrap_err();
        assert_eq!(e.kind, ErrorKind::EventCap);

        // The failed run discarded the engine; the next run is cold and
        // still byte-identical to a fresh slot.
        let ok = execute(&mut slot, &stream_req(2, 512), None).unwrap();
        assert!(!ok.warm);

        let tripped = Arc::new(AtomicBool::new(true));
        let e = execute(&mut slot, &stream_req(3, 2048), Some((tripped, 9))).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Deadline);

        let mut fresh = WarmSlot::new();
        let cold = execute(&mut fresh, &stream_req(4, 512), None).unwrap();
        assert_eq!(ok.report_json, cold.report_json);
    }

    #[test]
    fn chaos_marker_is_inert_here() {
        // The panic directive is the pool's job; execute() ignores it.
        let mut slot = WarmSlot::new();
        let mut req = stream_req(1, 256);
        req.chaos = Some(Chaos::Panic);
        assert!(execute(&mut slot, &req, None).is_ok());
    }
}
