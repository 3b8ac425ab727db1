//! Two report-collecting figure sweeps running at once in one process
//! must not see each other's reports: the collector lives in each
//! caller's run scope, and the sweep executor hands that scope to its
//! workers. Each sweep gets exactly the report set it gets when run
//! alone.
//!
//! Own test binary: `EMU_QUICK` and the jobs knob are process-global.

use emu_bench::output::Table;
use emu_bench::{figures, runcfg};
use emu_core::fault::SimError;
use emu_core::metrics::RunReport;
use emu_core::trace;

type FigureFn = fn() -> Result<Table, SimError>;

/// Run `f` with the calling thread's collector armed; return the
/// table's CSV text and one `Debug` rendering per collected report.
fn collected(f: FigureFn) -> (String, Vec<String>) {
    trace::collect_reports(true);
    let table = f().expect("figure must succeed");
    let runs: Vec<RunReport> = trace::take_reports();
    trace::collect_reports(false);
    let csv = format!("{:?}", table.rows);
    (csv, runs.iter().map(|r| format!("{r:?}")).collect())
}

#[test]
fn concurrent_sweeps_keep_separate_report_sets() {
    std::env::set_var("EMU_QUICK", "1");
    runcfg::set_jobs(2);
    let figs: [(&str, FigureFn); 2] = [("fig04", figures::fig04), ("fig10", figures::fig10)];

    let alone: Vec<_> = figs.iter().map(|&(_, f)| collected(f)).collect();
    for ((name, _), (_, runs)) in figs.iter().zip(&alone) {
        assert!(!runs.is_empty(), "{name}: no reports collected");
    }

    let together: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = figs
            .iter()
            .map(|&(_, f)| s.spawn(move || collected(f)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    runcfg::set_jobs(0);
    std::env::remove_var("EMU_QUICK");

    for ((name, _), (a, t)) in figs.iter().zip(alone.iter().zip(&together)) {
        assert_eq!(a.0, t.0, "{name}: table differs when run concurrently");
        assert_eq!(
            a.1.len(),
            t.1.len(),
            "{name}: {} reports alone, {} concurrently",
            a.1.len(),
            t.1.len()
        );
        assert!(
            a.1 == t.1,
            "{name}: report set differs when run concurrently"
        );
    }
    let shared = together[0]
        .1
        .iter()
        .filter(|r| together[1].1.contains(r))
        .count();
    assert_eq!(shared, 0, "{shared} reports landed in both sets");
}
