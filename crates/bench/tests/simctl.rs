//! `simctl` front-door errors: each must exit 2 with a message that
//! says what to do instead, before running any simulation.

use std::process::Command;

fn simctl(args: &[&str], results: &std::path::Path) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_simctl"))
        .args(args)
        .env("EMU_RESULTS_DIR", results)
        .output()
        .expect("simctl runs");
    let code = out.status.code().expect("simctl exited normally");
    (code, String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn unknown_figure_lists_the_valid_names() {
    let dir = std::env::temp_dir().join(format!("emu_simctl_fig99_{}", std::process::id()));
    let (code, err) = simctl(&["fig", "fig99"], &dir);
    assert_eq!(code, 2, "{err}");
    let line = err.lines().next().unwrap_or_default();
    for (name, _) in emu_bench::figures::ALL {
        assert!(line.contains(name), "{name} missing from: {line}");
    }
}

#[test]
fn fig_all_rejects_per_figure_artifacts() {
    let dir = std::env::temp_dir().join(format!("emu_simctl_all_{}", std::process::id()));
    let report = dir.join("all.report.json");
    let report = report.to_str().expect("utf-8 temp path");
    for flag in ["--report-json", "--trace-out", "--jsonl-out"] {
        let (code, err) = simctl(&["fig", "all", flag, report], &dir);
        assert_eq!(code, 2, "{flag}: {err}");
        assert!(err.contains("simctl fig <name>"), "{flag}: {err}");
    }
    assert!(!dir.exists(), "a rejected campaign must write nothing");
}
