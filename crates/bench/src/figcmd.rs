//! `simctl fig <name>|all` — regenerate the paper's tables.
//!
//! ```sh
//! simctl fig fig05 --jobs 4
//! simctl fig fig04 --report-json r.json --trace-out t.json --jsonl-out e.jsonl
//! EMU_QUICK=1 simctl fig all
//! ```
//!
//! Each table prints aligned and lands in `results/<name>.csv`. A named
//! table can also export the runs it made: the run report set, and the
//! Chrome trace and JSONL event log of its last traced run. `all` runs
//! [`figures::paper`] in order and takes none of those options, since
//! ten tables would overwrite one artifact path in turn.

use crate::cli::Parsed;
use crate::figures::{self, FigureFn};
use crate::runcfg::{DEFAULT_TRACE_BUCKET_US, DEFAULT_TRACE_EVENTS};
use crate::{output, telemetry};
use emu_core::trace::{self, RunScope, TelemetryConfig};
use std::path::PathBuf;

/// Options `simctl fig <name>` accepts besides `--jobs`/`--sim-threads`.
pub const OPTIONS: &[&str] = &[
    "report-json",
    "trace-out",
    "jsonl-out",
    "trace-events",
    "trace-bucket-us",
];

/// Run `p.command` (a figure name or `all`) under the calling thread's
/// run scope. A failed simulation exits 2 after naming the table.
pub fn run(p: &Parsed) -> Result<(), String> {
    p.check_known(OPTIONS)?;
    if p.command != "all" {
        let f = figures::by_name(&p.command)?;
        run_one(&p.command, f, &Artifacts::from_options(p)?);
        return Ok(());
    }
    if !p.options.is_empty() {
        return Err(format!(
            "`simctl fig all` takes no --{} (each table would overwrite the last); \
             run `simctl fig <name>` for one table's artifacts",
            OPTIONS.join("/--")
        ));
    }
    let t0 = std::time::Instant::now();
    for &(name, f) in figures::paper() {
        run_one(name, f, &Artifacts::default());
    }
    if runcache::enabled() {
        eprintln!("{}", crate::cache::session_summary());
    }
    eprintln!("[fig all] done in {:.1}s", t0.elapsed().as_secs_f64());
    Ok(())
}

/// The telemetry artifacts one table run writes.
#[derive(Default)]
struct Artifacts {
    report_json: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    jsonl_out: Option<PathBuf>,
    telemetry: TelemetryConfig,
}

impl Artifacts {
    fn from_options(p: &Parsed) -> Result<Self, String> {
        let path = |key: &str| p.options.get(key).map(PathBuf::from);
        let mut a = Artifacts {
            report_json: path("report-json"),
            trace_out: path("trace-out"),
            jsonl_out: path("jsonl-out"),
            ..Artifacts::default()
        };
        let traced = TelemetryConfig {
            event_capacity: p.get("trace-events", DEFAULT_TRACE_EVENTS)?,
            timeline_bucket: Some(desim::time::Time::from_us(
                p.get("trace-bucket-us", DEFAULT_TRACE_BUCKET_US)?,
            )),
        };
        // Per-event tracing (ring buffer + timelines) only feeds the
        // trace and the event log; a bare report needs neither.
        if a.trace_out.is_some() || a.jsonl_out.is_some() {
            a.telemetry = traced;
        }
        Ok(a)
    }

    fn any(&self) -> bool {
        self.report_json.is_some() || self.trace_out.is_some() || self.jsonl_out.is_some()
    }
}

/// Run one table with the requested telemetry and report collector
/// armed, write the artifacts, then print the table and its CSV. With no
/// artifacts requested, telemetry stays disarmed and no report is kept.
fn run_one(name: &str, f: FigureFn, a: &Artifacts) {
    let (table, runs) = RunScope::current().with_telemetry(a.telemetry).enter(|| {
        if !a.any() {
            return (f(), Vec::new());
        }
        trace::collect_reports(true);
        (f(), trace::take_reports())
    });

    if let Some(path) = &a.report_json {
        let body = telemetry::report_set_json(name, table.as_ref().ok(), &runs);
        output::write_artifact("report-json", path, &body);
    }
    // Chrome trace / JSONL describe a single run: use the last traced
    // report (the figure's final emu configuration).
    let traced = runs.iter().rev().find(|r| r.trace.is_some());
    if let Some(path) = &a.trace_out {
        match traced {
            Some(r) => output::write_artifact("trace-out", path, &telemetry::chrome_trace(r)),
            None => eprintln!("[trace-out] no traced emu run to export"),
        }
    }
    if let Some(path) = &a.jsonl_out {
        match traced {
            Some(r) => output::write_artifact("jsonl-out", path, &telemetry::trace_jsonl(r)),
            None => eprintln!("[jsonl-out] no traced emu run to export"),
        }
    }
    output::emit_result(name, table);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifacts(s: &str) -> Result<Artifacts, String> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        Artifacts::from_options(&crate::cli::parse(&args)?)
    }

    #[test]
    fn artifact_options_arm_only_what_they_need() {
        let off = artifacts("fig04").unwrap();
        assert!(!off.any() && !off.telemetry.enabled());

        let report = artifacts("fig04 --report-json r.json").unwrap();
        assert_eq!(report.report_json, Some(PathBuf::from("r.json")));
        assert!(report.any() && !report.telemetry.enabled());

        let traced = artifacts("fig04 --jsonl-out t.jsonl --trace-events 64").unwrap();
        assert_eq!(traced.jsonl_out, Some(PathBuf::from("t.jsonl")));
        assert!(traced.trace_out.is_none());
        assert_eq!(traced.telemetry.event_capacity, 64);
        assert_eq!(
            traced.telemetry.timeline_bucket,
            Some(desim::time::Time::from_us(DEFAULT_TRACE_BUCKET_US))
        );

        assert!(artifacts("fig04 --trace-events lots").is_err());
    }
}
