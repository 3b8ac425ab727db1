//! `emu-sweep`: Emu paper points fanned through the sweep executor.
//!
//! The points follow the paper's Emu figures at the harness's quick
//! sizes: fig 5 STREAM thread sweeps and fig 6 chase block sweeps on
//! `chick`, fig 9a SpMV layouts, fig 10 ping-pong on the hardware and
//! toolchain-simulator presets, and fig 11 chase on `emu64`. Almost all
//! host time is the event loop (`desim` queue plus `emu-core`
//! dispatch); engine build, audit and report JSON are a few percent,
//! and `xeon-sim`, `simd` and `runcache` never run.

use crate::sweep::{self, OpOut};
use crate::trace::{span, Tracer};
use crate::{Inputs, PassOut, Workload};
use emu_core::audit::audit;
use emu_core::config::MachineConfig;
use emu_core::json::report_json;
use emu_core::metrics::RunReport;
use emu_core::prelude::{presets, SpawnStrategy};
use membench::chase::{self, ChaseConfig, ShuffleMode};
use membench::pingpong::{run_pingpong, PingPongConfig};
use membench::spmv_emu::{run_spmv_emu, x_vector, EmuLayout, EmuSpmvConfig};
use membench::stream::{run_stream_emu, stream_checksum, EmuStreamConfig};
use spmat::{laplacian, CsrMatrix, LaplacianSpec};
use std::sync::Arc;

enum Point {
    Stream(MachineConfig, EmuStreamConfig),
    Chase(MachineConfig, ChaseConfig),
    Spmv(MachineConfig, Arc<CsrMatrix>, Arc<Vec<f64>>, EmuLayout),
    PingPong(MachineConfig, PingPongConfig),
}

pub struct EmuSweep {
    points: Vec<Point>,
    /// Output of one point replaced before checking (self-test only).
    corrupt: Option<usize>,
}

/// SpMV matrix sizes (fig 9a) built at set-up.
const SPMV_SIZES: [u32; 2] = [25, 50];

impl EmuSweep {
    /// Build the point list. Input generation is the chase traversal
    /// orders (digested as the run's input record; `run_chase_emu`
    /// takes no prebuilt order and derives the same ones inside each
    /// point) and the Laplacians with their reference products.
    pub fn setup(seed: u64, inputs: &mut Inputs) -> EmuSweep {
        let chick = presets::chick_prototype();
        let sim = presets::chick_toolchain_sim();
        let emu64 = presets::emu64_full_speed();
        let chase_at = |cfg: &MachineConfig, elems: usize, lists: usize, block: usize| {
            Point::Chase(
                cfg.clone(),
                ChaseConfig {
                    elems_per_list: elems,
                    nlists: lists,
                    block_elems: block,
                    mode: ShuffleMode::FullBlock,
                    seed,
                },
            )
        };
        let mut points = Vec::new();
        for threads in [8usize, 64, 512] {
            for strategy in SpawnStrategy::ALL {
                points.push(Point::Stream(
                    chick.clone(),
                    EmuStreamConfig {
                        total_elems: 1 << 13,
                        nthreads: threads,
                        strategy,
                        single_nodelet: false,
                        ..Default::default()
                    },
                ));
            }
        }
        for block in [1usize, 8, 64, 512] {
            for lists in [64usize, 256] {
                points.push(chase_at(&chick, 512, lists, block));
            }
        }
        for n in SPMV_SIZES {
            let (m, want) = inputs.build(|| {
                let m = Arc::new(laplacian(LaplacianSpec::paper(n)));
                let want = Arc::new(m.spmv(&x_vector(m.ncols())));
                (m, want)
            });
            for layout in EmuLayout::ALL {
                points.push(Point::Spmv(
                    chick.clone(),
                    Arc::clone(&m),
                    Arc::clone(&want),
                    layout,
                ));
            }
        }
        for cfg in [&chick, &sim] {
            for threads in [64usize, 8] {
                points.push(Point::PingPong(
                    cfg.clone(),
                    PingPongConfig {
                        nthreads: threads,
                        round_trips: 200,
                        ..Default::default()
                    },
                ));
            }
        }
        for block in [1usize, 16, 256] {
            for lists in [256usize, 1024] {
                points.push(chase_at(&emu64, 512, lists, block));
            }
        }
        for p in &points {
            if let Point::Chase(_, cc) = p {
                sweep::record_orders(cc, inputs);
            }
        }
        EmuSweep {
            points,
            corrupt: None,
        }
    }

    /// Self-test hook: corrupt the output of point `i` before checking.
    pub fn corrupt_point(&mut self, i: usize) {
        self.corrupt = Some(i);
    }
}

/// Audit and serialize one report; both are part of every point.
fn finish_report(
    tr: Option<&Tracer>,
    parent: u32,
    point: u32,
    cfg: &MachineConfig,
    r: &RunReport,
    out: &mut OpOut,
) {
    let violations = span(tr, "audit", parent, point, || audit(cfg, r));
    let json = span(tr, "json", parent, point, || report_json("point", r));
    out.ok &= violations.is_empty();
    *out.counts.entry("engine.events").or_default() += r.events;
    *out.counts.entry("engine.migrations").or_default() += r.total_migrations();
    *out.counts.entry("pdes.epochs").or_default() += r.pdes.epochs;
    *out.counts.entry("pdes.mailbox_sent").or_default() += r.pdes.mailbox_sent;
    *out.counts.entry("pdes.clean_windows").or_default() += r.pdes.clean_windows;
    if r.pdes.epochs > 0 {
        *out.counts.entry("pdes.events").or_default() += r.events;
    }
    *out.counts.entry("json.reports").or_default() += 1;
    *out.counts.entry("json.bytes").or_default() += json.len() as u64;
    out.sim_bytes += r.total_bytes();
    out.output.push_str(&json);
}

/// Run one point and check its outputs. `corrupt` damages the
/// simulated result before the check, as the self-test does.
fn run_point(p: &Point, i: usize, corrupt: bool, parent: u32, tr: Option<&Tracer>) -> OpOut {
    let bump = u64::from(corrupt);
    let point = i as u32;
    let cfg = match p {
        Point::Stream(c, _) | Point::Chase(c, _) | Point::Spmv(c, ..) | Point::PingPong(c, _) => c,
    };
    // The membench entry points build their engine internally, out of
    // a span's reach, so the traced run builds one on its own to time.
    sweep::time_engine_build(tr, cfg, parent, point);
    let mut out = OpOut::new();
    match p {
        Point::Stream(cfg, sc) => {
            match span(tr, "emu.run", parent, point, || run_stream_emu(cfg, sc)) {
                Err(e) => out.fail(format!("stream: {e:?}")),
                Ok(r) => {
                    let want = stream_checksum(sc.total_elems, sc.kernel);
                    let got = r.checksum.wrapping_add(bump);
                    span(tr, "check", parent, point, || out.ok &= got == want);
                    finish_report(tr, parent, point, cfg, &r.report, &mut out);
                }
            }
        }
        Point::Chase(cfg, cc) => match span(tr, "emu.run", parent, point, || {
            chase::run_chase_emu(cfg, cc)
        }) {
            Err(e) => out.fail(format!("chase: {e:?}")),
            Ok(r) => {
                let got = r.checksum.wrapping_add(bump);
                span(tr, "check", parent, point, || {
                    out.ok &= got == cc.expected_checksum() && r.report.is_some()
                });
                if let Some(report) = &r.report {
                    finish_report(tr, parent, point, cfg, report, &mut out);
                }
            }
        },
        Point::Spmv(cfg, m, want, layout) => {
            let sc = EmuSpmvConfig {
                layout: *layout,
                grain_nnz: 16,
            };
            match span(tr, "emu.run", parent, point, || {
                run_spmv_emu(cfg, Arc::clone(m), &sc)
            }) {
                Err(e) => out.fail(format!("spmv: {e:?}")),
                Ok(mut r) => {
                    if corrupt {
                        r.y[0] += 1.0;
                    }
                    span(tr, "check", parent, point, || {
                        out.ok &= sweep::same_vector(&r.y, want)
                    });
                    finish_report(tr, parent, point, cfg, &r.report, &mut out);
                }
            }
        }
        Point::PingPong(cfg, pc) => {
            match span(tr, "emu.run", parent, point, || run_pingpong(cfg, pc)) {
                Err(e) => out.fail(format!("pingpong: {e:?}")),
                Ok(r) => {
                    let want = pc.nthreads as u64 * u64::from(pc.round_trips) * 2;
                    let got = r.migrations + bump;
                    span(tr, "check", parent, point, || out.ok &= got == want);
                    *out.counts.entry("engine.migrations").or_default() += r.migrations;
                    out.output = format!(
                        "pingpong {} {} {:016x}",
                        r.migrations,
                        r.makespan.ps(),
                        r.mean_latency_ns.to_bits()
                    );
                }
            }
        }
    }
    out
}

impl Workload for EmuSweep {
    fn pass(&mut self, tr: Option<&Tracer>) -> PassOut {
        let corrupt = self.corrupt;
        sweep::run(self.points.len(), tr, |i, parent, tr| {
            run_point(&self.points[i], i, corrupt == Some(i), parent, tr)
        })
    }
}
