//! One pass of a batch workload through `emu_bench::sweep::run_indexed`.

use crate::trace::{span, Tracer};
use crate::{Counts, Inputs, PassOut};
use std::time::Instant;

/// What one op (a sweep point) produced.
#[derive(Default)]
pub struct OpOut {
    /// Every check on this op passed.
    pub ok: bool,
    /// The op's simulated outputs, as bytes for the digest.
    pub output: String,
    /// Exact simulated counts.
    pub counts: Counts,
    /// Simulated memory bytes the op's kernels moved.
    pub sim_bytes: u64,
    /// Why the op failed, when it did.
    pub problem: Option<String>,
}

impl OpOut {
    pub fn new() -> OpOut {
        OpOut {
            ok: true,
            ..OpOut::default()
        }
    }

    pub fn fail(&mut self, why: String) {
        self.ok = false;
        self.problem = Some(why);
    }
}

/// Fan `n` ops across the sweep executor and fold their outputs in
/// index order. Each op runs under a root span named `point`.
pub fn run(
    n: usize,
    tr: Option<&Tracer>,
    op: impl Fn(usize, u32, Option<&Tracer>) -> OpOut + Sync,
) -> PassOut {
    let t0 = Instant::now();
    let outs = emu_bench::sweep::run_indexed(n, |i| {
        let start = Instant::now();
        let out = match tr {
            None => op(i, 0, None),
            Some(t) => {
                let root = t.open("point", 0, i as u32);
                let out = op(i, root.id(), tr);
                t.close(root);
                out
            }
        };
        (start.elapsed().as_secs_f64() * 1e3, out)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut pass = PassOut::new(wall_s);
    for (i, (ms, out)) in outs.into_iter().enumerate() {
        pass.ops_ms.push(ms);
        if !out.ok {
            pass.failed += 1;
            eprintln!(
                "perfbench: op {i} failed: {}",
                out.problem.as_deref().unwrap_or("wrong output")
            );
        }
        pass.digest.add(out.output.as_bytes());
        for (k, v) in out.counts {
            *pass.counts.entry(k).or_default() += v;
        }
        pass.sim_bytes += out.sim_bytes;
    }
    pass
}

/// Element-wise agreement within the tolerance the figure runners use.
pub fn same_vector(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(a, b)| (a - b).abs() < 1e-9)
}

/// Build a chase point's traversal orders, one per list, exactly as
/// `run_chase_emu` and `run_chase_cpu` derive them, and digest them.
pub fn record_orders(cc: &membench::chase::ChaseConfig, inputs: &mut Inputs) {
    for l in 0..cc.nlists {
        let order = inputs.build(|| {
            membench::chase::traversal_order(
                cc.elems_per_list,
                cc.block_elems,
                cc.mode,
                desim::rng::trial_seed(cc.seed, l as u64),
            )
        });
        let bytes: Vec<u8> = order.iter().flat_map(|e| e.to_le_bytes()).collect();
        inputs.digest.add(&bytes);
    }
}

/// On traced passes, build and drop an engine for `cfg` under spans of
/// their own (`engine.build`, `engine.drop`): the layer's fixed
/// per-point cost, which the entry points pay internally.
pub fn time_engine_build(
    tr: Option<&Tracer>,
    cfg: &emu_core::config::MachineConfig,
    parent: u32,
    point: u32,
) {
    if tr.is_none() {
        return;
    }
    let engine = span(tr, "engine.build", parent, point, || {
        emu_core::engine::Engine::new(cfg.clone())
    });
    span(tr, "engine.drop", parent, point, || drop(engine));
}
