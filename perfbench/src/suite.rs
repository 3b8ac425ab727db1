//! `scenario-suite`: the committed `scenarios/` registry, driven
//! through the scenario crate's public `parse`, `resolve`, `run_point`
//! and `evaluate`.
//!
//! Many tiny points, so fixed per-point costs (engine build, audit,
//! report JSON, parse, resolve) dominate and the event loop is a minor
//! share. The byte-identity scenarios exercise `desim::pdes` at several
//! shard counts; the oracle scenarios check accuracy against
//! closed-form models.

use crate::stats::Digest;
use crate::trace::{span, Tracer};
use crate::{Counts, Inputs, PassOut, Workload};
use emu_core::jsonread::{self, Value};
use scenario::PointOutcome;
use std::time::Instant;

pub struct Suite {
    /// `(file name, text)`, sorted by name.
    files: Vec<(String, String)>,
    /// Execution order of the scenarios, drawn from the seed.
    order: Vec<u32>,
    /// Force one scenario's verdict to fail (self-test only).
    corrupt: Option<usize>,
}

/// What one scenario produced in a pass.
struct ScnOut {
    points: Vec<(f64, PointOutcome)>,
    failures: Vec<String>,
}

impl Suite {
    /// Read the registry and check the generated part of it against
    /// the scenario crate's generator, so the suite measured is the
    /// committed one.
    pub fn setup(seed: u64, inputs: &mut Inputs) -> Result<Suite, String> {
        let mut files = Vec::new();
        let dir = std::fs::read_dir("scenarios").map_err(|e| format!("scenarios/: {e}"))?;
        for entry in dir {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.extension().is_some_and(|x| x == "scn") {
                let text = std::fs::read_to_string(&path).map_err(|e| format!("{path:?}: {e}"))?;
                let name = path
                    .file_name()
                    .unwrap_or_default()
                    .to_string_lossy()
                    .into_owned();
                files.push((name, text));
            }
        }
        files.sort();
        // Every generated scenario must be committed unchanged; the
        // registry also holds hand-written ones (fuzz repros).
        for (name, text) in inputs.build(scenario::registry::files) {
            match files.binary_search_by(|(n, _)| n.cmp(&name)) {
                Ok(k) if files[k].1 == text => {}
                _ => {
                    return Err(format!(
                        "scenarios/{name} differs from the scenario generator"
                    ))
                }
            }
        }
        for (name, text) in &files {
            inputs.digest.add(name.as_bytes());
            inputs.digest.add(text.as_bytes());
        }
        let order = desim::rng::permutation(files.len(), seed);
        Ok(Suite {
            files,
            order,
            corrupt: None,
        })
    }

    /// Self-test hook: damage one point outcome of scenario `i` before
    /// its verdict is evaluated.
    pub fn corrupt_scenario(&mut self, i: usize) {
        self.corrupt = Some(i);
    }

    fn run_one(&self, i: usize, parent: u32, tr: Option<&Tracer>) -> ScnOut {
        let text = &self.files[i].1;
        let id = i as u32;
        let s = match span(tr, "scenario.parse", parent, id, || scenario::parse(text)) {
            Ok(s) => s,
            Err(e) => {
                return ScnOut {
                    points: Vec::new(),
                    failures: vec![format!("parse: {e}")],
                }
            }
        };
        let points = match span(tr, "scenario.resolve", parent, id, || scenario::resolve(&s)) {
            Ok(p) => p,
            Err(e) => {
                return ScnOut {
                    points: Vec::new(),
                    failures: vec![format!("resolve: {e}")],
                }
            }
        };
        let mut outs = Vec::with_capacity(points.len());
        for p in &points {
            crate::sweep::time_engine_build(tr, &p.cfg, parent, id);
            let t0 = Instant::now();
            let o = span(tr, "scenario.run_point", parent, id, || {
                scenario::run_point(&s, p)
            });
            outs.push((t0.elapsed().as_secs_f64() * 1e3, o));
        }
        if self.corrupt == Some(i) {
            if let Some((_, o)) = outs.first_mut() {
                o.problems.push("corrupted by the self-test".into());
            }
        }
        let failures = span(tr, "scenario.evaluate", parent, id, || {
            let outcomes: Vec<PointOutcome> = outs.iter().map(|(_, o)| o.clone()).collect();
            scenario::evaluate(&s, &outcomes)
        });
        ScnOut {
            points: outs,
            failures,
        }
    }
}

/// Sum the exact PDES counts out of a point's report fingerprints (the
/// first worker count's; the others are byte-identical or the verdict
/// fails).
fn pdes_counts(o: &PointOutcome, counts: &mut Counts) {
    let Some((_, fp)) = o.fingerprints.first() else {
        return;
    };
    for line in fp.lines() {
        let Ok(v) = jsonread::parse(line) else {
            *counts.entry("scenario.unparsed_reports").or_default() += 1;
            continue;
        };
        let pdes = v.get("pdes");
        let get = |k: &str| {
            pdes.and_then(|p| p.get(k))
                .and_then(Value::as_u64)
                .unwrap_or(0)
        };
        *counts.entry("pdes.epochs").or_default() += get("epochs");
        *counts.entry("pdes.mailbox_sent").or_default() += get("mailbox_sent");
        *counts.entry("pdes.clean_windows").or_default() += get("clean_windows");
        *counts.entry("pdes.events").or_default() +=
            v.get("events").and_then(Value::as_u64).unwrap_or(0);
    }
}

impl Workload for Suite {
    fn pass(&mut self, tr: Option<&Tracer>) -> PassOut {
        let n = self.files.len();
        let t0 = Instant::now();
        let outs = emu_bench::sweep::run_indexed(n, |k| {
            let i = self.order[k] as usize;
            match tr {
                None => self.run_one(i, 0, None),
                Some(t) => {
                    let root = t.open("scenario", 0, i as u32);
                    let out = self.run_one(i, root.id(), tr);
                    t.close(root);
                    out
                }
            }
        });
        let mut pass = PassOut::new(t0.elapsed().as_secs_f64());
        pass.counts.insert("scenario.scenarios", n as u64);
        // Fold in name order, whatever order the seed ran them in.
        let mut by_name: Vec<Option<ScnOut>> = (0..n).map(|_| None).collect();
        for (k, out) in outs.into_iter().enumerate() {
            by_name[self.order[k] as usize] = Some(out);
        }
        for (i, out) in by_name.into_iter().enumerate() {
            let out = out.expect("every scenario ran once");
            let name = &self.files[i].0;
            pass.digest.add(name.as_bytes());
            let verdict_ok = out.failures.is_empty();
            if !verdict_ok {
                eprintln!("perfbench: scenario {name} failed: {:?}", out.failures);
            }
            if out.points.is_empty() {
                // A scenario that did not resolve is one failed op.
                pass.ops_ms.push(0.0);
                pass.failed += 1;
            }
            for (ms, o) in &out.points {
                pass.ops_ms.push(*ms);
                *pass.counts.entry("scenario.points").or_default() += 1;
                if !verdict_ok || !o.problems.is_empty() {
                    pass.failed += 1;
                }
                let mut d = Digest::new();
                for (k, v) in &o.metrics {
                    d.add(k.as_bytes());
                    d.add(&v.to_bits().to_le_bytes());
                }
                for (threads, fp) in &o.fingerprints {
                    d.add(&threads.to_le_bytes());
                    d.add(fp.as_bytes());
                }
                pass.digest.add(d.hex().as_bytes());
                let metric = |k: &str| o.metrics.get(k).copied().unwrap_or(0.0) as u64;
                *pass.counts.entry("engine.events").or_default() += metric("events");
                *pass.counts.entry("engine.migrations").or_default() += metric("migrations");
                pass.sim_bytes += metric("bytes");
                pdes_counts(o, &mut pass.counts);
            }
            for f in &out.failures {
                pass.digest.add(f.as_bytes());
            }
        }
        pass
    }
}
