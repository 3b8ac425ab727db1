//! Runners that regenerate each figure of the paper.
//!
//! Each function sweeps the same parameters as the corresponding figure
//! and returns a [`Table`] whose rows are the figure's data series.
//! [`ALL`] names every runner for `simctl fig <name>|all`; EXPERIMENTS.md
//! records the paper-vs-measured comparison for every run.
//!
//! Sweep points are independent simulations, so every figure fans its
//! grid across the worker pool in [`crate::sweep`] (`--jobs`) and
//! assembles rows in sweep order — the tables and CSVs are identical at
//! any job count.

use crate::cache;
use crate::output::{fmt_mbs, Table};
use crate::runcfg::{sized, sized_usize};
use crate::sweep;
use emu_core::prelude::*;
use membench::chase::{self, ChaseConfig, ShuffleMode};
use membench::pingpong::{run_pingpong, PingPongConfig};
use membench::spmv_cpu::{run_spmv_cpu, CpuSpmvConfig, CpuStrategy};
use membench::spmv_emu::{run_spmv_emu, x_vector, EmuLayout, EmuSpmvConfig};
use membench::stream::{
    cpu::{run_stream_cpu, CpuStreamConfig},
    run_stream_emu, stream_checksum, EmuStreamConfig, StreamKernel,
};
use spmat::{laplacian, LaplacianSpec};
use std::sync::Arc;

/// Thread counts swept on a single nodelet (Fig 4).
pub const FIG4_THREADS: [usize; 8] = [1, 2, 4, 8, 16, 24, 32, 64];
/// Thread counts swept on eight nodelets (Fig 5).
pub const FIG5_THREADS: [usize; 7] = [8, 16, 32, 64, 128, 256, 512];
/// Block sizes swept by the pointer-chase figures.
pub const CHASE_BLOCKS: [usize; 13] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// A table runner: one figure's full sweep.
pub type FigureFn = fn() -> Result<Table, SimError>;

/// Every table `simctl fig <name>` runs, by name; the name is also the
/// CSV stem. All but the trailing degradation sweep are the paper
/// campaign ([`paper`]).
pub const ALL: &[(&str, FigureFn)] = &[
    ("fig04", fig04),
    ("fig05", fig05),
    ("fig06", fig06),
    ("fig07", fig07),
    ("fig08", fig08),
    ("fig09a", fig09a),
    ("fig09b", fig09b),
    ("fig10", fig10),
    ("fig11", fig11),
    ("headline", headline),
    ("fig_degradation", || {
        Ok(crate::degradation::fig_degradation())
    }),
];

/// The paper's tables in campaign order: what `simctl fig all` runs.
pub fn paper() -> &'static [(&'static str, FigureFn)] {
    &ALL[..ALL.len() - 1]
}

/// Look a table up by name; the error lists every valid name.
pub fn by_name(name: &str) -> Result<FigureFn, String> {
    ALL.iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, f)| f)
        .ok_or_else(|| {
            let names: Vec<&str> = ALL.iter().map(|(n, _)| *n).collect();
            format!("unknown figure {name:?}; one of: {} all", names.join(" "))
        })
}

/// Evaluate a rows × cols grid of independent cells across the worker
/// pool; returns the formatted cells in row-major sweep order (first
/// error in sweep order wins).
fn grid<R: Sync, C: Sync>(
    rows: &[R],
    cols: &[C],
    cell: impl Fn(&R, &C) -> Result<String, SimError> + Sync,
) -> Result<Vec<Vec<String>>, SimError> {
    let nc = cols.len().max(1);
    let cells = sweep::run_indexed(rows.len() * cols.len(), |i| {
        cell(&rows[i / nc], &cols[i % nc])
    });
    let flat: Vec<String> = cells.into_iter().collect::<Result<_, _>>()?;
    Ok(flat.chunks(nc).map(<[String]>::to_vec).collect())
}

/// Run a batch of heterogeneous scalar measurements across the pool;
/// first error in batch order wins.
fn batch(
    thunks: Vec<Box<dyn FnOnce() -> Result<f64, SimError> + Send>>,
) -> Result<Vec<f64>, SimError> {
    sweep::run_thunks(thunks).into_iter().collect()
}

/// Fig 4: STREAM on one nodelet, serial vs recursive local spawn.
pub fn fig04() -> Result<Table, SimError> {
    let cfg = presets::chick_prototype();
    let elems = sized(1 << 16, 1 << 12);
    let mut t = Table::new(
        "Fig 4: STREAM ADD, single nodelet of the Emu Chick",
        &["threads", "serial_spawn (MB/s)", "recursive_spawn (MB/s)"],
    );
    let strategies = [SpawnStrategy::Serial, SpawnStrategy::Recursive];
    let rows = grid(&FIG4_THREADS, &strategies, |&threads, &strategy| {
        let sc = EmuStreamConfig {
            total_elems: elems,
            nthreads: threads,
            strategy,
            single_nodelet: true,
            ..Default::default()
        };
        cache::memo_str(
            "fig04",
            &[
                ("machine", format!("{cfg:?}")),
                ("stream", format!("{sc:?}")),
            ],
            || {
                let r = run_stream_emu(&cfg, &sc)?;
                assert_eq!(r.checksum, stream_checksum(elems, StreamKernel::Add));
                Ok(format!("{:.1}", r.bandwidth.mb_per_sec()))
            },
        )
    })?;
    for (&threads, cells) in FIG4_THREADS.iter().zip(rows) {
        let mut row = vec![threads.to_string()];
        row.extend(cells);
        t.row(row);
    }
    Ok(t)
}

/// Fig 5: STREAM on eight nodelets, all four spawn strategies.
pub fn fig05() -> Result<Table, SimError> {
    let cfg = presets::chick_prototype();
    let elems = sized(1 << 18, 1 << 13);
    let mut t = Table::new(
        "Fig 5: STREAM ADD, eight nodelets of the Emu Chick",
        &[
            "threads",
            "serial (MB/s)",
            "recursive (MB/s)",
            "serial_remote (MB/s)",
            "recursive_remote (MB/s)",
        ],
    );
    let rows = grid(&FIG5_THREADS, &SpawnStrategy::ALL, |&threads, &strategy| {
        let sc = EmuStreamConfig {
            total_elems: elems,
            nthreads: threads,
            strategy,
            single_nodelet: false,
            ..Default::default()
        };
        cache::memo_str(
            "fig05",
            &[
                ("machine", format!("{cfg:?}")),
                ("stream", format!("{sc:?}")),
            ],
            || {
                let r = run_stream_emu(&cfg, &sc)?;
                assert_eq!(r.checksum, stream_checksum(elems, StreamKernel::Add));
                Ok(format!("{:.1}", r.bandwidth.mb_per_sec()))
            },
        )
    })?;
    for (&threads, cells) in FIG5_THREADS.iter().zip(rows) {
        let mut row = vec![threads.to_string()];
        row.extend(cells);
        t.row(row);
    }
    Ok(t)
}

/// The Emu chase sweep shared by Figs 6, 8, 11.
fn chase_emu_sweep(
    cfg: &MachineConfig,
    title: &str,
    thread_counts: &[usize],
    blocks: &[usize],
    elems_per_list: usize,
) -> Result<Table, SimError> {
    let mut cols = vec!["block_elems".to_string()];
    cols.extend(thread_counts.iter().map(|t| format!("{t} threads (MB/s)")));
    let mut t = Table::new(title, &cols.iter().map(String::as_str).collect::<Vec<_>>());
    let blocks: Vec<usize> = blocks
        .iter()
        .copied()
        .filter(|&b| b <= elems_per_list)
        .collect();
    let rows = grid(&blocks, thread_counts, |&block, &threads| {
        let cc = ChaseConfig {
            elems_per_list,
            nlists: threads,
            block_elems: block,
            mode: ShuffleMode::FullBlock,
            seed: desim::rng::DEFAULT_SEED,
        };
        cache::memo_str(
            "chase-emu",
            &[
                ("machine", format!("{cfg:?}")),
                ("chase", format!("{cc:?}")),
            ],
            || {
                let r = chase::run_chase_emu(cfg, &cc)?;
                assert_eq!(r.checksum, cc.expected_checksum());
                Ok(format!("{:.1}", r.bandwidth.mb_per_sec()))
            },
        )
    })?;
    for (&block, cells) in blocks.iter().zip(rows) {
        let mut row = vec![block.to_string()];
        row.extend(cells);
        t.row(row);
    }
    Ok(t)
}

/// Fig 6: pointer chasing on the Emu Chick (8 nodelets).
pub fn fig06() -> Result<Table, SimError> {
    chase_emu_sweep(
        &presets::chick_prototype(),
        "Fig 6: Pointer chasing, Emu Chick (8 nodelets), full_block_shuffle",
        &[64, 128, 256, 512],
        &CHASE_BLOCKS,
        sized_usize(4096, 512),
    )
}

/// Fig 7: pointer chasing on the Sandy Bridge Xeon.
pub fn fig07() -> Result<Table, SimError> {
    let cfg = xeon_sim::config::sandy_bridge();
    // Lists must dwarf the 20 MiB LLC, as in the paper: 4 MiB per list
    // and up to 32 lists = 128 MiB of once-touched data.
    let elems_per_list = sized_usize(1 << 18, 1 << 13);
    let thread_counts = [4usize, 16, 32];
    let mut cols = vec!["block_elems".to_string()];
    cols.extend(thread_counts.iter().map(|t| format!("{t} threads (MB/s)")));
    let mut t = Table::new(
        "Fig 7: Pointer chasing, Sandy Bridge Xeon, full_block_shuffle",
        &cols.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let blocks: Vec<usize> = CHASE_BLOCKS
        .iter()
        .copied()
        .filter(|&b| b <= elems_per_list)
        .collect();
    let rows = grid(&blocks, &thread_counts, |&block, &threads| {
        let cc = ChaseConfig {
            elems_per_list,
            nlists: threads,
            block_elems: block,
            mode: ShuffleMode::FullBlock,
            seed: desim::rng::DEFAULT_SEED,
        };
        cache::memo_str(
            "chase-cpu",
            &[
                ("machine", format!("{cfg:?}")),
                ("chase", format!("{cc:?}")),
            ],
            || {
                let r = chase::cpu::run_chase_cpu(&cfg, &cc);
                assert_eq!(r.checksum, cc.expected_checksum());
                Ok(format!("{:.1}", r.bandwidth.mb_per_sec()))
            },
        )
    })?;
    for (&block, cells) in blocks.iter().zip(rows) {
        let mut row = vec![block.to_string()];
        row.extend(cells);
        t.row(row);
    }
    Ok(t)
}

/// Peak measured STREAM bandwidth of the Emu prototype (denominator of
/// Fig 8's utilization).
pub fn emu_peak_stream_mbs() -> Result<f64, SimError> {
    let cfg = presets::chick_prototype();
    let sc = EmuStreamConfig {
        total_elems: sized(1 << 18, 1 << 13),
        nthreads: 512,
        strategy: SpawnStrategy::RecursiveRemote,
        ..Default::default()
    };
    cache::memo_f64(
        "emu-peak-stream",
        &[
            ("machine", format!("{cfg:?}")),
            ("stream", format!("{sc:?}")),
        ],
        || Ok(run_stream_emu(&cfg, &sc)?.bandwidth.mb_per_sec()),
    )
}

/// Peak measured STREAM bandwidth of the Sandy Bridge (Fig 8 denominator).
pub fn xeon_peak_stream_mbs() -> f64 {
    let cfg = xeon_sim::config::sandy_bridge();
    let sc = CpuStreamConfig {
        total_elems: sized(1 << 20, 1 << 14),
        nthreads: 16,
        kernel: StreamKernel::Add,
        nt_stores: true,
    };
    cache::memo_f64(
        "xeon-peak-stream",
        &[
            ("machine", format!("{cfg:?}")),
            ("stream", format!("{sc:?}")),
        ],
        || Ok(run_stream_cpu(&cfg, &sc).bandwidth.mb_per_sec()),
    )
    .expect("cpu stream cannot fail")
}

/// Fig 8: pointer-chase bandwidth as a fraction of each platform's peak
/// measured STREAM bandwidth.
pub fn fig08() -> Result<Table, SimError> {
    // Stage 1: the two peak-bandwidth denominators, concurrently.
    let peaks = batch(vec![
        Box::new(emu_peak_stream_mbs),
        Box::new(|| Ok(xeon_peak_stream_mbs())),
    ])?;
    let (emu_peak, xeon_peak) = (peaks[0], peaks[1]);
    let emu_cfg = presets::chick_prototype();
    let cpu_cfg = xeon_sim::config::sandy_bridge();
    let mut t = Table::new(
        format!(
            "Fig 8: Bandwidth utilization vs measured peak (Emu peak {} / Xeon peak {})",
            fmt_mbs(emu_peak),
            fmt_mbs(xeon_peak)
        ),
        &["block_elems", "Emu 512thr (%)", "Xeon 32thr (%)"],
    );
    // Stage 2: the block sweep, one cell per (block, platform).
    let rows = grid(&CHASE_BLOCKS, &[true, false], |&block, &is_emu| {
        // The utilization cell depends on the peak denominator too, so
        // the denominator joins the key material.
        if is_emu {
            let cc = ChaseConfig {
                elems_per_list: sized_usize(4096, 512).max(block),
                nlists: 512,
                block_elems: block,
                mode: ShuffleMode::FullBlock,
                seed: desim::rng::DEFAULT_SEED,
            };
            cache::memo_str(
                "fig08-emu",
                &[
                    ("machine", format!("{emu_cfg:?}")),
                    ("chase", format!("{cc:?}")),
                    ("peak", format!("{emu_peak:?}")),
                ],
                || {
                    let emu = chase::run_chase_emu(&emu_cfg, &cc)?;
                    Ok(format!(
                        "{:.1}",
                        100.0 * emu.bandwidth.mb_per_sec() / emu_peak
                    ))
                },
            )
        } else {
            let cc = ChaseConfig {
                elems_per_list: sized_usize(1 << 18, 1 << 13).max(block),
                nlists: 32,
                block_elems: block,
                mode: ShuffleMode::FullBlock,
                seed: desim::rng::DEFAULT_SEED,
            };
            cache::memo_str(
                "fig08-xeon",
                &[
                    ("machine", format!("{cpu_cfg:?}")),
                    ("chase", format!("{cc:?}")),
                    ("peak", format!("{xeon_peak:?}")),
                ],
                || {
                    let xeon = chase::cpu::run_chase_cpu(&cpu_cfg, &cc);
                    Ok(format!(
                        "{:.1}",
                        100.0 * xeon.bandwidth.mb_per_sec() / xeon_peak
                    ))
                },
            )
        }
    })?;
    for (&block, cells) in CHASE_BLOCKS.iter().zip(rows) {
        let mut row = vec![block.to_string()];
        row.extend(cells);
        t.row(row);
    }
    Ok(t)
}

/// Laplacian sizes swept by Fig 9.
pub const FIG9_SIZES: [u32; 6] = [25, 50, 100, 150, 200, 300];

/// Fig 9a: Emu SpMV effective bandwidth for the three layouts.
pub fn fig09a() -> Result<Table, SimError> {
    let cfg = presets::chick_prototype();
    let mut t = Table::new(
        "Fig 9a: SpMV effective bandwidth, Emu Chick (grain 16 nnz)",
        &["laplacian_n", "local (MB/s)", "1D (MB/s)", "2D (MB/s)"],
    );
    // One sweep point per matrix size: the three layouts share the
    // assembled matrix, so the row is the natural parallel unit.
    // Rows are memoized whole (cells newline-joined) so a warm run
    // skips even the shared matrix assembly.
    let rows = sweep::run_indexed(FIG9_SIZES.len(), |i| -> Result<Vec<String>, SimError> {
        let n = FIG9_SIZES[i];
        let spec = LaplacianSpec::paper(n);
        let joined = cache::memo_str(
            "fig09a",
            &[
                ("machine", format!("{cfg:?}")),
                ("laplacian", format!("{spec:?}")),
                ("grain_nnz", "16".to_string()),
            ],
            || {
                let m = Arc::new(laplacian(spec));
                let reference = m.spmv(&x_vector(m.ncols()));
                let mut cells = vec![n.to_string()];
                for layout in EmuLayout::ALL {
                    let r = run_spmv_emu(
                        &cfg,
                        Arc::clone(&m),
                        &EmuSpmvConfig {
                            layout,
                            grain_nnz: 16,
                        },
                    )?;
                    let err = reference
                        .iter()
                        .zip(&r.y)
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0, f64::max);
                    assert!(err < 1e-9, "{} produced a wrong result", layout.name());
                    cells.push(format!("{:.1}", r.bandwidth.mb_per_sec()));
                }
                Ok(cells.join("\n"))
            },
        )?;
        Ok(joined.split('\n').map(str::to_string).collect())
    });
    for row in rows {
        t.row(row?);
    }
    Ok(t)
}

/// Laplacian sizes swept by Fig 9b (the CPU scales further).
pub const FIG9B_SIZES: [u32; 6] = [50, 100, 200, 400, 600, 1000];

/// Fig 9b: Haswell SpMV effective bandwidth for the three strategies
/// (plus the Emu-like tiny grain for the grain-size contrast).
pub fn fig09b() -> Result<Table, SimError> {
    let cfg = xeon_sim::config::haswell();
    let strategies = [
        CpuStrategy::MklLike,
        CpuStrategy::CilkFor,
        CpuStrategy::CilkSpawn { grain: 16384 },
        CpuStrategy::CilkSpawn { grain: 16 },
    ];
    let mut t = Table::new(
        "Fig 9b: SpMV effective bandwidth, Haswell Xeon (56 threads)",
        &[
            "laplacian_n",
            "mkl (MB/s)",
            "cilk_for (MB/s)",
            "cilk_spawn g=16384 (MB/s)",
            "cilk_spawn g=16 (MB/s)",
        ],
    );
    let rows = sweep::run_indexed(FIG9B_SIZES.len(), |i| -> Result<Vec<String>, SimError> {
        let n = FIG9B_SIZES[i];
        let n = if crate::runcfg::quick() {
            n.min(200)
        } else {
            n
        };
        let spec = LaplacianSpec::paper(n);
        let joined = cache::memo_str(
            "fig09b",
            &[
                ("machine", format!("{cfg:?}")),
                ("laplacian", format!("{spec:?}")),
                ("strategies", format!("{strategies:?}")),
            ],
            || {
                let m = Arc::new(laplacian(spec));
                let reference = m.spmv(&x_vector(m.ncols()));
                let mut cells = vec![n.to_string()];
                for &strategy in &strategies {
                    let r = run_spmv_cpu(
                        &cfg,
                        Arc::clone(&m),
                        &CpuSpmvConfig {
                            strategy,
                            nthreads: 56,
                        },
                    );
                    let err = reference
                        .iter()
                        .zip(&r.y)
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0, f64::max);
                    assert!(err < 1e-9, "{} produced a wrong result", strategy.name());
                    cells.push(format!("{:.1}", r.bandwidth.mb_per_sec()));
                }
                Ok(cells.join("\n"))
            },
        )?;
        Ok(joined.split('\n').map(str::to_string).collect())
    });
    for row in rows {
        t.row(row?);
    }
    Ok(t)
}

/// Fig 10: hardware (1.0 firmware) vs Emu toolchain-simulator presets on
/// STREAM, pointer chase, and ping-pong.
pub fn fig10() -> Result<Table, SimError> {
    let hw = presets::chick_prototype();
    let sim = presets::chick_toolchain_sim();
    // Every hardware/simulator measurement is independent: run all
    // twelve as one batch (hw/sim pairs adjacent, in row order).
    let stream_mbs = |cfg: &MachineConfig, sc: &EmuStreamConfig| {
        cache::memo_f64(
            "fig10-stream",
            &[
                ("machine", format!("{cfg:?}")),
                ("stream", format!("{sc:?}")),
            ],
            || Ok(run_stream_emu(cfg, sc)?.bandwidth.mb_per_sec()),
        )
    };
    let stream1 = move |cfg: MachineConfig| -> Box<dyn FnOnce() -> Result<f64, SimError> + Send> {
        Box::new(move || {
            stream_mbs(
                &cfg,
                &EmuStreamConfig {
                    total_elems: sized(1 << 15, 1 << 12),
                    nthreads: 64,
                    strategy: SpawnStrategy::Recursive,
                    single_nodelet: true,
                    ..Default::default()
                },
            )
        })
    };
    let stream8 = move |cfg: MachineConfig| -> Box<dyn FnOnce() -> Result<f64, SimError> + Send> {
        Box::new(move || {
            stream_mbs(
                &cfg,
                &EmuStreamConfig {
                    total_elems: sized(1 << 18, 1 << 13),
                    nthreads: 512,
                    strategy: SpawnStrategy::RecursiveRemote,
                    ..Default::default()
                },
            )
        })
    };
    // Pointer chase: migration-bound at block 1 (where hardware and
    // simulator diverge, as in the paper) and compute-bound at block 64
    // (where they agree, like STREAM).
    let chase_at =
        |cfg: MachineConfig, block: usize| -> Box<dyn FnOnce() -> Result<f64, SimError> + Send> {
            Box::new(move || {
                let cc = ChaseConfig {
                    elems_per_list: sized_usize(2048, 512).max(block),
                    nlists: 512,
                    block_elems: block,
                    mode: ShuffleMode::FullBlock,
                    seed: 1,
                };
                cache::memo_f64(
                    "fig10-chase",
                    &[
                        ("machine", format!("{cfg:?}")),
                        ("chase", format!("{cc:?}")),
                    ],
                    || Ok(chase::run_chase_emu(&cfg, &cc)?.bandwidth.mb_per_sec()),
                )
            })
        };
    // Ping-pong: the migration rate at load, and the latency at light
    // load (the paper's 1-2 us estimate).
    let pp = |cfg: MachineConfig,
              threads: usize,
              latency: bool|
     -> Box<dyn FnOnce() -> Result<f64, SimError> + Send> {
        Box::new(move || {
            let pc = PingPongConfig {
                nthreads: threads,
                round_trips: sized(2000, 200) as u32,
                ..Default::default()
            };
            cache::memo_f64(
                "fig10-pingpong",
                &[
                    ("machine", format!("{cfg:?}")),
                    ("pingpong", format!("{pc:?}")),
                    ("metric", if latency { "latency" } else { "rate" }.into()),
                ],
                || {
                    let r = run_pingpong(&cfg, &pc)?;
                    Ok(if latency {
                        r.mean_latency_ns / 1000.0
                    } else {
                        r.migrations_per_sec / 1e6
                    })
                },
            )
        })
    };
    let v = batch(vec![
        stream1(hw.clone()),
        stream1(sim.clone()),
        stream8(hw.clone()),
        stream8(sim.clone()),
        chase_at(hw.clone(), 1),
        chase_at(sim.clone(), 1),
        chase_at(hw.clone(), 64),
        chase_at(sim.clone(), 64),
        pp(hw.clone(), 64, false),
        pp(sim.clone(), 64, false),
        pp(hw, 8, true),
        pp(sim, 8, true),
    ])?;
    let mut t = Table::new(
        "Fig 10: Emu hardware preset vs toolchain-simulator preset",
        &["benchmark", "hardware", "simulator", "sim/hw"],
    );
    let names = [
        ("STREAM 1 nodelet", "MB/s"),
        ("STREAM 8 nodelets", "MB/s"),
        ("Pointer chase (block 1)", "MB/s"),
        ("Pointer chase (block 64)", "MB/s"),
        ("Ping-pong (M migrations/s)", "M/s"),
        ("Migration latency (us)", "us"),
    ];
    for (i, &(name, unit)) in names.iter().enumerate() {
        let (h, s) = (v[2 * i], v[2 * i + 1]);
        t.row(vec![
            name.to_string(),
            format!("{h:.1} {unit}"),
            format!("{s:.1} {unit}"),
            format!("{:.2}x", s / h),
        ]);
    }
    Ok(t)
}

/// Fig 11: pointer chasing on the full-speed 64-nodelet system.
pub fn fig11() -> Result<Table, SimError> {
    chase_emu_sweep(
        &presets::emu64_full_speed(),
        "Fig 11: Pointer chasing, simulated 64-nodelet Emu at full speed",
        &[256, 1024, 4096],
        &[1, 4, 16, 64, 256, 1024, 4096],
        sized_usize(2048, 512),
    )
}

/// Headline numbers quoted in the paper's text (Section IV-A and
/// conclusions), as one table.
pub fn headline() -> Result<Table, SimError> {
    let emu_cfg = presets::chick_prototype();
    // Stage 1: the scalar measurements, one batch.
    let pp_rate = |cfg: MachineConfig| -> Box<dyn FnOnce() -> Result<f64, SimError> + Send> {
        Box::new(move || {
            let pc = PingPongConfig {
                nthreads: 64,
                round_trips: sized(2000, 200) as u32,
                ..Default::default()
            };
            cache::memo_f64(
                "headline-pp-rate",
                &[
                    ("machine", format!("{cfg:?}")),
                    ("pingpong", format!("{pc:?}")),
                ],
                || Ok(run_pingpong(&cfg, &pc)?.migrations_per_sec / 1e6),
            )
        })
    };
    let scalars = batch(vec![
        Box::new(emu_peak_stream_mbs),
        Box::new(|| {
            let cfg = presets::chick_8node_prototype();
            let sc = EmuStreamConfig {
                total_elems: sized(1 << 20, 1 << 15),
                nthreads: 4096,
                strategy: SpawnStrategy::RecursiveRemote,
                ..Default::default()
            };
            cache::memo_f64(
                "headline-8node-stream",
                &[
                    ("machine", format!("{cfg:?}")),
                    ("stream", format!("{sc:?}")),
                ],
                || Ok(run_stream_emu(&cfg, &sc)?.bandwidth.mb_per_sec()),
            )
        }),
        Box::new(|| Ok(xeon_peak_stream_mbs())),
        {
            let cfg = emu_cfg.clone();
            Box::new(move || {
                let cc = ChaseConfig {
                    elems_per_list: sized_usize(4096, 512),
                    nlists: 512,
                    block_elems: 1,
                    mode: ShuffleMode::FullBlock,
                    seed: 1,
                };
                cache::memo_f64(
                    "headline-chase",
                    &[
                        ("machine", format!("{cfg:?}")),
                        ("chase", format!("{cc:?}")),
                    ],
                    || Ok(chase::run_chase_emu(&cfg, &cc)?.bandwidth.mb_per_sec()),
                )
            })
        },
        pp_rate(emu_cfg.clone()),
        pp_rate(presets::chick_toolchain_sim()),
        {
            let cfg = emu_cfg.clone();
            Box::new(move || {
                let pc = PingPongConfig {
                    nthreads: 8,
                    round_trips: sized(2000, 200) as u32,
                    ..Default::default()
                };
                cache::memo_f64(
                    "headline-pp-latency",
                    &[
                        ("machine", format!("{cfg:?}")),
                        ("pingpong", format!("{pc:?}")),
                    ],
                    || Ok(run_pingpong(&cfg, &pc)?.mean_latency_ns / 1000.0),
                )
            })
        },
    ])?;
    let (emu_peak, eight, xeon_peak, chase_worst, pp_hw, pp_sim, pp_latency_us) = (
        scalars[0], scalars[1], scalars[2], scalars[3], scalars[4], scalars[5], scalars[6],
    );
    // Stage 2: the chase utilization sweeps ("most cases" medians).
    let emu_bws = sweep::run_indexed(CHASE_BLOCKS.len(), |i| -> Result<f64, SimError> {
        let block = CHASE_BLOCKS[i];
        let cc = ChaseConfig {
            elems_per_list: sized_usize(4096, 512).max(block),
            nlists: 512,
            block_elems: block,
            mode: ShuffleMode::FullBlock,
            seed: 1,
        };
        cache::memo_f64(
            "headline-chase",
            &[
                ("machine", format!("{emu_cfg:?}")),
                ("chase", format!("{cc:?}")),
            ],
            || Ok(chase::run_chase_emu(&emu_cfg, &cc)?.bandwidth.mb_per_sec()),
        )
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    let cpu_cfg = xeon_sim::config::sandy_bridge();
    let xeon_bws = sweep::run_indexed(CHASE_BLOCKS.len(), |i| {
        let block = CHASE_BLOCKS[i];
        let cc = ChaseConfig {
            elems_per_list: sized_usize(1 << 18, 1 << 13).max(block),
            nlists: 32,
            block_elems: block,
            mode: ShuffleMode::FullBlock,
            seed: 1,
        };
        cache::memo_f64(
            "headline-chase-cpu",
            &[
                ("machine", format!("{cpu_cfg:?}")),
                ("chase", format!("{cc:?}")),
            ],
            || {
                Ok(chase::cpu::run_chase_cpu(&cpu_cfg, &cc)
                    .bandwidth
                    .mb_per_sec())
            },
        )
        .expect("cpu chase cannot fail")
    });
    let median = |mut xs: Vec<f64>| -> f64 {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let emu_med = median(emu_bws);
    let xeon_med = median(xeon_bws);
    let mut t = Table::new(
        "Headline numbers (paper Section IV / conclusions)",
        &["quantity", "paper", "this reproduction"],
    );
    t.row(vec![
        "Emu Chick STREAM, 1 node".into(),
        "1.2 GB/s".into(),
        fmt_mbs(emu_peak),
    ]);
    t.row(vec![
        "Emu Chick STREAM, 8 nodes (initial test)".into(),
        "6.5 GB/s".into(),
        fmt_mbs(eight),
    ]);
    t.row(vec![
        "Sandy Bridge STREAM (51.2 GB/s nominal)".into(),
        "~51.2 GB/s".into(),
        fmt_mbs(xeon_peak),
    ]);
    t.row(vec![
        "Emu chase utilization (median over blocks)".into(),
        "~80 %".into(),
        format!("{:.0} %", 100.0 * emu_med / emu_peak),
    ]);
    t.row(vec![
        "Emu chase utilization (worst, block=1)".into(),
        "~50 %".into(),
        format!("{:.0} %", 100.0 * chase_worst / emu_peak),
    ]);
    t.row(vec![
        "Xeon chase utilization (median over blocks)".into(),
        "<25 %".into(),
        format!("{:.0} %", 100.0 * xeon_med / xeon_peak),
    ]);
    t.row(vec![
        "Ping-pong, hardware".into(),
        "9 M migrations/s".into(),
        format!("{pp_hw:.1} M migrations/s"),
    ]);
    t.row(vec![
        "Ping-pong, toolchain simulator".into(),
        "16 M migrations/s".into(),
        format!("{pp_sim:.1} M migrations/s"),
    ]);
    t.row(vec![
        "Single-migration latency".into(),
        "1-2 us".into(),
        format!("{pp_latency_us:.2} us"),
    ]);
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Figure functions are exercised end-to-end (quick mode) by the
    // integration tests in tests/harness.rs; here we only check cheap
    // structural properties.

    #[test]
    fn chase_blocks_are_increasing_powers() {
        for w in CHASE_BLOCKS.windows(2) {
            assert_eq!(w[1], w[0] * 2);
        }
    }

    #[test]
    fn registry_names_are_unique_and_the_campaign_is_the_paper_tables() {
        let mut names: Vec<&str> = ALL.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len(), "duplicate figure name");
        let campaign: Vec<&str> = paper().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            campaign,
            [
                "fig04", "fig05", "fig06", "fig07", "fig08", "fig09a", "fig09b", "fig10", "fig11",
                "headline"
            ]
        );
    }

    #[test]
    fn fig4_thread_counts_cover_the_knee() {
        assert!(FIG4_THREADS.contains(&32) && FIG4_THREADS.contains(&64));
    }
}
