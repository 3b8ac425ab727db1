//! CSR SpMV on the Haswell Xeon with the paper's three parallelization
//! strategies (Fig 9b):
//!
//! * **mkl** — a statically partitioned, nonzero-balanced row-parallel
//!   kernel with no per-task overhead (what a tuned library achieves);
//! * **cilk_for** — dynamic row chunks with a small per-chunk scheduling
//!   cost (the Cilk runtime's divide-and-conquer loop);
//! * **cilk_spawn** — explicit tasks of `grain` nonzeros each, with a
//!   per-task spawn/steal cost; the paper found 16384-element grains best
//!   on the CPU (tiny grains drown in spawn overhead).
//!
//! All strategies run the same memory-access pattern: stream `vals` /
//! `col_idx`, gather `x[col]`, store `y[r]` — so the differences are
//! purely scheduling overhead and partition shape, as in the paper.

use desim::stats::Bandwidth;
use spmat::{CsrMatrix, RowPartition};
use std::sync::{Arc, Mutex};
use xeon_sim::prelude::*;

use crate::spmv_emu::x_value;

/// CPU SpMV parallelization strategies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CpuStrategy {
    /// Tuned-library behaviour: static nnz-balanced partition, zero task
    /// overhead.
    MklLike,
    /// `cilk_for`: dynamic chunks, light per-chunk cost.
    CilkFor,
    /// `cilk_spawn` with an explicit grain (nonzeros per task).
    CilkSpawn {
        /// Nonzeros per spawned task.
        grain: usize,
    },
}

impl CpuStrategy {
    /// Display name used in figures.
    pub fn name(self) -> String {
        match self {
            CpuStrategy::MklLike => "mkl".into(),
            CpuStrategy::CilkFor => "cilk_for".into(),
            CpuStrategy::CilkSpawn { grain } => format!("cilk_spawn(grain={grain})"),
        }
    }
}

/// Cycles each worker pays to enter the parallel region (thread wake +
/// first-touch + join barrier share) — why small matrices see poor
/// effective bandwidth on the CPU in Fig 9b.
pub const REGION_ENTRY_CYCLES: u32 = 2_000;
/// Per-task overhead cycles (spawn + steal + frame) for `cilk_spawn`.
pub const SPAWN_TASK_CYCLES: u32 = 600;
/// Per-chunk overhead cycles for `cilk_for`'s runtime.
pub const CILK_FOR_CHUNK_CYCLES: u32 = 120;
/// Cycles of real arithmetic per nonzero (FMA + index math; mostly
/// hidden behind loads by the out-of-order core, so small).
pub const CPU_FMA_CYCLES: u32 = 2;

/// Configuration of one CPU SpMV run.
#[derive(Clone, Debug)]
pub struct CpuSpmvConfig {
    /// Parallelization strategy.
    pub strategy: CpuStrategy,
    /// Worker threads (the paper sets 56 = physical cores).
    pub nthreads: usize,
}

impl Default for CpuSpmvConfig {
    fn default() -> Self {
        CpuSpmvConfig {
            strategy: CpuStrategy::MklLike,
            nthreads: 56,
        }
    }
}

/// Result of one CPU SpMV run.
#[derive(Debug)]
pub struct CpuSpmvResult {
    /// Effective bandwidth: [`CsrMatrix::spmv_bytes`] / makespan.
    pub bandwidth: Bandwidth,
    /// The computed output vector.
    pub y: Vec<f64>,
    /// Full platform report.
    pub report: CpuReport,
}

const ROW_PTR_BASE: u64 = 0x10_0000_0000;
const VALS_BASE: u64 = 0x20_0000_0000;
const COLS_BASE: u64 = 0x30_0000_0000;
const X_BASE: u64 = 0x40_0000_0000;
const Y_BASE: u64 = 0x50_0000_0000;

/// A contiguous run of rows plus the overhead to charge before starting it.
#[derive(Clone, Debug)]
struct TaskRange {
    rows: std::ops::Range<u32>,
    overhead_cycles: u32,
}

struct CpuSpmvWorker {
    m: Arc<CsrMatrix>,
    tasks: Vec<TaskRange>,
    y_out: Arc<Mutex<Vec<f64>>>,
    t: usize, // task index
    r: u32,   // row within task
    j: u64,   // nnz within row
    phase: u8,
    acc: f64,
    cur_val: f64,
    xv: f64,
}

impl CpuKernel for CpuSpmvWorker {
    fn step(&mut self, _ctx: &CpuCtx) -> CpuOp {
        loop {
            let Some(task) = self.tasks.get(self.t) else {
                return CpuOp::Quit;
            };
            if self.phase == 0 {
                // Charge the task's scheduling overhead once.
                self.phase = 1;
                self.r = task.rows.start;
                if task.overhead_cycles > 0 {
                    return CpuOp::Compute {
                        cycles: task.overhead_cycles,
                    };
                }
            }
            if self.r >= task.rows.end {
                self.t += 1;
                self.phase = 0;
                continue;
            }
            let r = self.r;
            let range = self.m.row_range(r);
            let row_len = (range.end - range.start) as u64;
            match self.phase {
                1 => {
                    self.phase = 2;
                    self.acc = 0.0;
                    self.j = 0;
                    return CpuOp::Load {
                        addr: ROW_PTR_BASE + r as u64 * 8,
                        bytes: 8,
                    };
                }
                2 => {
                    if self.j >= row_len {
                        self.phase = 6;
                        continue;
                    }
                    self.phase = 3;
                    let k = range.start as u64 + self.j;
                    self.cur_val = self.m.vals()[k as usize];
                    return CpuOp::Load {
                        addr: VALS_BASE + k * 8,
                        bytes: 8,
                    };
                }
                3 => {
                    self.phase = 4;
                    let k = range.start as u64 + self.j;
                    return CpuOp::Load {
                        addr: COLS_BASE + k * 8,
                        bytes: 8,
                    };
                }
                4 => {
                    self.phase = 5;
                    let k = range.start as u64 + self.j;
                    let col = self.m.col_idx()[k as usize];
                    self.xv = x_value(col);
                    return CpuOp::Load {
                        addr: X_BASE + col as u64 * 8,
                        bytes: 8,
                    };
                }
                5 => {
                    self.phase = 2;
                    self.acc += self.cur_val * self.xv;
                    self.j += 1;
                    return CpuOp::Compute {
                        cycles: CPU_FMA_CYCLES,
                    };
                }
                6 => {
                    self.phase = 1;
                    self.y_out.lock().unwrap()[r as usize] = self.acc;
                    self.r += 1;
                    return CpuOp::Store {
                        addr: Y_BASE + r as u64 * 8,
                        bytes: 8,
                    };
                }
                _ => unreachable!(),
            }
        }
    }
}

/// Contiguous ranges owned by each worker under a [`RowPartition`]
/// produced by [`spmat::nnz_balanced`] (which yields contiguous blocks).
fn ranges_of(p: &RowPartition, owner: u32) -> Vec<std::ops::Range<u32>> {
    let mut out: Vec<std::ops::Range<u32>> = Vec::new();
    for (r, &o) in p.owner.iter().enumerate() {
        if o != owner {
            continue;
        }
        let r = r as u32;
        match out.last_mut() {
            Some(last) if last.end == r => last.end = r + 1,
            _ => out.push(r..r + 1),
        }
    }
    out
}

/// Run SpMV on the CPU platform `cfg`.
pub fn run_spmv_cpu(cfg: &CpuConfig, m: Arc<CsrMatrix>, sc: &CpuSpmvConfig) -> CpuSpmvResult {
    assert!(sc.nthreads > 0);
    let n = m.nrows();
    let y_out = Arc::new(Mutex::new(vec![0.0; n as usize]));
    // Build each worker's task list according to the strategy.
    let per_worker: Vec<Vec<TaskRange>> = match sc.strategy {
        CpuStrategy::MklLike => {
            let p = spmat::nnz_balanced(&m, sc.nthreads as u32);
            (0..sc.nthreads as u32)
                .map(|w| {
                    ranges_of(&p, w)
                        .into_iter()
                        .map(|rows| TaskRange {
                            rows,
                            overhead_cycles: 0,
                        })
                        .collect()
                })
                .collect()
        }
        CpuStrategy::CilkFor => {
            // Dynamic chunks of nrows / (8 * workers), dealt round-robin
            // (a deterministic stand-in for work stealing).
            let chunk = (n / (8 * sc.nthreads as u32)).max(1);
            let mut per: Vec<Vec<TaskRange>> = vec![Vec::new(); sc.nthreads];
            let mut w = 0usize;
            let mut r = 0u32;
            while r < n {
                let end = (r + chunk).min(n);
                per[w].push(TaskRange {
                    rows: r..end,
                    overhead_cycles: CILK_FOR_CHUNK_CYCLES,
                });
                w = (w + 1) % sc.nthreads;
                r = end;
            }
            per
        }
        CpuStrategy::CilkSpawn { grain } => {
            // Tasks of ~grain nonzeros, dealt round-robin.
            let mut per: Vec<Vec<TaskRange>> = vec![Vec::new(); sc.nthreads];
            let mut w = 0usize;
            let mut start = 0u32;
            let mut acc = 0u64;
            for r in 0..n {
                acc += m.row_nnz(r);
                if acc as usize >= grain || r == n - 1 {
                    per[w].push(TaskRange {
                        rows: start..r + 1,
                        overhead_cycles: SPAWN_TASK_CYCLES,
                    });
                    w = (w + 1) % sc.nthreads;
                    start = r + 1;
                    acc = 0;
                }
            }
            per
        }
    };
    let mut engine = CpuEngine::new(cfg.clone());
    for tasks in per_worker {
        if tasks.is_empty() {
            continue;
        }
        let mut tasks = tasks;
        tasks[0].overhead_cycles += REGION_ENTRY_CYCLES;
        engine.add_thread(Box::new(CpuSpmvWorker {
            m: Arc::clone(&m),
            tasks,
            y_out: Arc::clone(&y_out),
            t: 0,
            r: 0,
            j: 0,
            phase: 0,
            acc: 0.0,
            cur_val: 0.0,
            xv: 0.0,
        }));
    }
    let report = engine.run();
    let y = y_out.lock().unwrap().clone();
    CpuSpmvResult {
        bandwidth: report.bandwidth_for(m.spmv_bytes()),
        y,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmv_emu::x_vector;
    use spmat::{laplacian, LaplacianSpec};
    use xeon_sim::config::haswell;

    fn check(strategy: CpuStrategy, n: u32) -> CpuSpmvResult {
        let m = Arc::new(laplacian(LaplacianSpec::paper(n)));
        let reference = m.spmv(&x_vector(m.ncols()));
        let r = run_spmv_cpu(
            &haswell(),
            Arc::clone(&m),
            &CpuSpmvConfig {
                strategy,
                nthreads: 8,
            },
        );
        let err = reference
            .iter()
            .zip(&r.y)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-9, "{}: wrong result", strategy.name());
        r.report.audit().unwrap();
        r
    }

    #[test]
    fn all_strategies_correct() {
        check(CpuStrategy::MklLike, 14);
        check(CpuStrategy::CilkFor, 14);
        check(CpuStrategy::CilkSpawn { grain: 64 }, 14);
    }

    #[test]
    fn tiny_grain_hurts_cilk_spawn() {
        // Both grains must still yield enough tasks for every worker
        // (16384-nnz grains need the big matrices of the real figure runs;
        // here 2048 plays the "large grain" at test scale).
        let m = Arc::new(laplacian(LaplacianSpec::paper(100)));
        let bw = |grain| {
            let r = run_spmv_cpu(
                &haswell(),
                Arc::clone(&m),
                &CpuSpmvConfig {
                    strategy: CpuStrategy::CilkSpawn { grain },
                    nthreads: 16,
                },
            );
            r.report.audit().unwrap();
            r.bandwidth.mb_per_sec()
        };
        let small = bw(16);
        let large = bw(2048);
        assert!(
            large > 1.5 * small,
            "grain 2048 ({large}) should beat grain 16 ({small})"
        );
    }

    #[test]
    fn mkl_like_is_at_least_as_fast_as_spawn() {
        let m = Arc::new(laplacian(LaplacianSpec::paper(40)));
        let run = |s| {
            let r = run_spmv_cpu(
                &haswell(),
                Arc::clone(&m),
                &CpuSpmvConfig {
                    strategy: s,
                    nthreads: 16,
                },
            );
            r.report.audit().unwrap();
            r.bandwidth.mb_per_sec()
        };
        let mkl = run(CpuStrategy::MklLike);
        let spawn = run(CpuStrategy::CilkSpawn { grain: 16 });
        assert!(mkl > spawn, "mkl {mkl} vs spawn {spawn}");
    }

    #[test]
    fn ranges_of_merges_contiguous_rows() {
        let p = spmat::contiguous(10, 2);
        assert_eq!(ranges_of(&p, 0), vec![0..5]);
        assert_eq!(ranges_of(&p, 1), vec![5..10]);
        let rr = spmat::round_robin(6, 2);
        assert_eq!(ranges_of(&rr, 0), vec![0..1, 2..3, 4..5]);
    }
}
