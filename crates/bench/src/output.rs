//! Result presentation: aligned ASCII tables (what `simctl` prints)
//! and CSV files (what plots consume), written under `results/`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A simple column-aligned table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Title printed above the table.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Row-major cells, already formatted.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with `columns`.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the column count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |cells: &[String], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:>w$}  ", c, w = widths[i]);
            }
            let _ = writeln!(out);
        };
        line(&self.columns, &mut out);
        let total: usize = widths.iter().sum::<usize>() + widths.len() * 2;
        let _ = writeln!(out, "{}", "-".repeat(total));
        for r in &self.rows {
            line(r, &mut out);
        }
        out
    }

    /// Write as CSV to `results/<name>.csv` (relative to the workspace
    /// root when run via cargo). Returns the path written.
    pub fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut s = String::new();
        let _ = writeln!(s, "{}", self.columns.join(","));
        for r in &self.rows {
            let _ = writeln!(s, "{}", r.join(","));
        }
        std::fs::write(&path, s)?;
        Ok(path)
    }

    /// Print the table and persist it as CSV, reporting the path.
    pub fn emit(&self, name: &str) {
        println!("{}", self.render());
        match self.write_csv(name) {
            Ok(p) => println!("[csv] {}", p.display()),
            Err(e) => eprintln!("[csv] write failed: {e}"),
        }
    }
}

/// Emit a fallible table, printing the error and exiting nonzero when
/// the simulation failed — every table command of `simctl` ends here,
/// so a faulted machine config degrades to a clean error message
/// instead of a panic.
pub fn emit_result(name: &str, table: Result<Table, emu_core::fault::SimError>) {
    match table {
        Ok(t) => t.emit(name),
        Err(e) => {
            eprintln!("[{name}] simulation failed: {e}");
            std::process::exit(2);
        }
    }
}

/// Write a telemetry artifact, creating parent directories and
/// reporting the path (or the failure) on the console.
pub fn write_artifact(label: &str, path: &Path, body: &str) {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    match std::fs::write(path, body) {
        Ok(()) => println!("[{label}] {}", path.display()),
        Err(e) => eprintln!("[{label}] write failed ({}): {e}", path.display()),
    }
}

/// The directory figure CSVs are written to: `$EMU_RESULTS_DIR` or
/// `results/` in the working directory.
pub fn results_dir() -> PathBuf {
    std::env::var_os("EMU_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new("results").to_path_buf())
}

/// Format megabytes/second with sensible precision.
pub fn fmt_mbs(mbs: f64) -> String {
    if mbs >= 1000.0 {
        format!("{:.2} GB/s", mbs / 1000.0)
    } else if mbs >= 10.0 {
        format!("{mbs:.0} MB/s")
    } else {
        format!("{mbs:.2} MB/s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns() {
        let mut t = Table::new("demo", &["a", "bbbb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["100".into(), "x".into()]);
        let r = t.render();
        assert!(r.contains("## demo"));
        assert!(r.contains("bbbb"));
        assert_eq!(r.lines().count(), 5);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn fmt_mbs_scales() {
        assert_eq!(fmt_mbs(1234.0), "1.23 GB/s");
        assert_eq!(fmt_mbs(250.0), "250 MB/s");
        assert_eq!(fmt_mbs(3.5), "3.50 MB/s");
    }

    #[test]
    fn csv_round_trip() {
        std::env::set_var(
            "EMU_RESULTS_DIR",
            std::env::temp_dir().join("emu_test_results"),
        );
        let mut t = Table::new("demo", &["x", "y"]);
        t.row(vec!["1".into(), "2.5".into()]);
        let p = t.write_csv("unit_test_demo").unwrap();
        let body = std::fs::read_to_string(p).unwrap();
        assert_eq!(body, "x,y\n1,2.5\n");
        std::env::remove_var("EMU_RESULTS_DIR");
    }
}
