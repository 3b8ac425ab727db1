//! `xeon-sweep`: Xeon paper points through the same sweep executor.
//!
//! Fig 7 chase block sweeps on `sandy_bridge`, fig 9b SpMV with all
//! four strategies on `haswell`, and fig 8's CPU STREAM. Every
//! simulated nanosecond is spent in `xeon-sim` (cache, prefetch, DRAM)
//! and none in the Emu engine, so engine work should not move it.

use crate::sweep::{self, OpOut};
use crate::trace::{span, Tracer};
use crate::{Inputs, PassOut, Workload};
use membench::chase::{self, ChaseConfig, ShuffleMode};
use membench::spmv_cpu::{run_spmv_cpu, CpuSpmvConfig, CpuStrategy};
use membench::spmv_emu::x_vector;
use membench::stream::cpu::{run_stream_cpu, CpuStreamConfig};
use membench::stream::{stream_checksum, StreamKernel};
use spmat::{laplacian, CsrMatrix, LaplacianSpec};
use std::sync::Arc;
use xeon_sim::prelude::{haswell, sandy_bridge, CpuConfig, CpuReport};

enum Point {
    Chase(CpuConfig, ChaseConfig),
    Spmv(CpuConfig, Arc<CsrMatrix>, Arc<Vec<f64>>, CpuStrategy),
    Stream(CpuConfig, CpuStreamConfig),
}

pub struct XeonSweep {
    points: Vec<Point>,
    corrupt: Option<usize>,
}

/// SpMV matrix sizes (fig 9b) built at set-up.
const SPMV_SIZES: [u32; 3] = [50, 100, 200];

impl XeonSweep {
    /// Build the point list; input generation as in `emu-sweep`.
    pub fn setup(seed: u64, inputs: &mut Inputs) -> XeonSweep {
        let snb = sandy_bridge();
        let hsw = haswell();
        let mut points = Vec::new();
        for block in [1usize, 16, 256, 4096] {
            for lists in [4usize, 16] {
                points.push(Point::Chase(
                    snb.clone(),
                    ChaseConfig {
                        elems_per_list: 1 << 13,
                        nlists: lists,
                        block_elems: block,
                        mode: ShuffleMode::FullBlock,
                        seed,
                    },
                ));
            }
        }
        for n in SPMV_SIZES {
            let (m, want) = inputs.build(|| {
                let m = Arc::new(laplacian(LaplacianSpec::paper(n)));
                let want = Arc::new(m.spmv(&x_vector(m.ncols())));
                (m, want)
            });
            for strategy in [
                CpuStrategy::MklLike,
                CpuStrategy::CilkFor,
                CpuStrategy::CilkSpawn { grain: 16384 },
                CpuStrategy::CilkSpawn { grain: 16 },
            ] {
                points.push(Point::Spmv(
                    hsw.clone(),
                    Arc::clone(&m),
                    Arc::clone(&want),
                    strategy,
                ));
            }
        }
        for threads in [4usize, 16] {
            for kernel in [StreamKernel::Add, StreamKernel::Triad] {
                points.push(Point::Stream(
                    snb.clone(),
                    CpuStreamConfig {
                        total_elems: 1 << 14,
                        nthreads: threads,
                        kernel,
                        nt_stores: true,
                    },
                ));
            }
        }
        for p in &points {
            if let Point::Chase(_, cc) = p {
                sweep::record_orders(cc, inputs);
            }
        }
        XeonSweep {
            points,
            corrupt: None,
        }
    }

    /// Self-test hook: corrupt the output of point `i` before checking.
    pub fn corrupt_point(&mut self, i: usize) {
        self.corrupt = Some(i);
    }
}

fn add_report(r: &CpuReport, out: &mut OpOut) {
    let c = &r.counters;
    for (k, v) in [
        ("xeon.l1_hits", c.l1_hits),
        ("xeon.l3_hits", c.l3_hits),
        ("xeon.dram_loads", c.dram_loads),
        ("xeon.prefetches", c.prefetches),
        ("xeon.writebacks", c.writebacks),
        ("xeon.dram_row_hits", r.dram.row_hits),
        (
            "xeon.accesses",
            c.l1_hits
                + c.l2_hits
                + c.l3_hits
                + c.prefetch_hits
                + c.dram_loads
                + c.stores
                + c.nt_stores,
        ),
    ] {
        *out.counts.entry(k).or_default() += v;
    }
    out.output.push_str(&format!("{r:?}"));
}

fn run_point(p: &Point, i: usize, corrupt: bool, parent: u32, tr: Option<&Tracer>) -> OpOut {
    let point = i as u32;
    let bump = u64::from(corrupt);
    let mut out = OpOut::new();
    match p {
        Point::Chase(cfg, cc) => {
            // `run_chase_cpu` returns no `CpuReport`: its points enter
            // the digest through checksum and makespan only.
            let r = span(tr, "xeon.chase", parent, point, || {
                chase::cpu::run_chase_cpu(cfg, cc)
            });
            let got = r.checksum.wrapping_add(bump);
            span(tr, "check", parent, point, || {
                out.ok &= got == cc.expected_checksum()
            });
            out.sim_bytes += r.semantic_bytes;
            out.output = format!("chase {} {}", r.checksum, r.makespan.ps());
        }
        Point::Spmv(cfg, m, want, strategy) => {
            let sc = CpuSpmvConfig {
                strategy: *strategy,
                nthreads: 56,
            };
            let mut r = span(tr, "xeon.run", parent, point, || {
                run_spmv_cpu(cfg, Arc::clone(m), &sc)
            });
            if corrupt {
                r.y[0] += 1.0;
            }
            span(tr, "check", parent, point, || {
                out.ok &= sweep::same_vector(&r.y, want)
            });
            out.sim_bytes += m.spmv_bytes();
            add_report(&r.report, &mut out);
        }
        Point::Stream(cfg, sc) => {
            let r = span(tr, "xeon.run", parent, point, || run_stream_cpu(cfg, sc));
            let got = r.checksum.wrapping_add(bump);
            span(tr, "check", parent, point, || {
                out.ok &= got == stream_checksum(sc.total_elems, sc.kernel)
            });
            out.sim_bytes += r.semantic_bytes;
            add_report(&r.report, &mut out);
        }
    }
    out
}

impl Workload for XeonSweep {
    fn pass(&mut self, tr: Option<&Tracer>) -> PassOut {
        let corrupt = self.corrupt;
        sweep::run(self.points.len(), tr, |i, parent, tr| {
            run_point(&self.points[i], i, corrupt == Some(i), parent, tr)
        })
    }
}
