//! Extension experiments beyond the paper's figures: the application
//! directions its introduction names (streaming graphs / STINGER, sparse
//! tensors / ParTI), plus cross-platform sweeps of the benchmark
//! dimensions the paper only samples.

use crate::output::Table;
use crate::runcfg::{sized, sized_usize};
use emu_core::prelude::*;
use emu_graph::bfs::{run_bfs_emu, BfsMode};
use emu_graph::gen as graph_gen;
use emu_graph::insert::run_insert_emu;
use emu_graph::stinger::Stinger;
use emu_tensor::coo::{mttkrp_reference, random_tensor};
use emu_tensor::cpu::{run_mttkrp_cpu, CpuMttkrpConfig};
use emu_tensor::emu::{run_mttkrp_emu, EmuMttkrpConfig, TensorLayout};
use membench::chase::{self, ChaseConfig, ShuffleMode};
use membench::stream::{
    cpu::{run_stream_cpu, CpuStreamConfig},
    run_stream_emu, EmuStreamConfig, StreamKernel,
};
use std::sync::Arc;

/// Every extension table `simctl extensions` runs, by CSV stem.
pub const ALL: &[(&str, crate::figures::FigureFn)] = &[
    ("ext_graph", ext_graph),
    ("ext_mttkrp", ext_mttkrp),
    ("ext_shuffle_modes", ext_shuffle_modes),
    ("ext_stream_suite", ext_stream_suite),
    ("ext_multinode", ext_multinode),
];

/// Streaming-graph extension: edge-insertion throughput and BFS with the
/// two migration strategies, on an RMAT graph.
pub fn ext_graph() -> Result<Table, SimError> {
    let cfg = presets::chick_prototype();
    let scale = if crate::runcfg::quick() { 9 } else { 12 };
    let ne = sized_usize(1 << 15, 1 << 11);
    let edges = graph_gen::rmat(scale, ne, 42);
    let mut t = Table::new(
        format!(
            "Extension: streaming graph on the Emu Chick (RMAT scale {scale}, {} edges)",
            edges.len()
        ),
        &["experiment", "threads", "rate", "migrations"],
    );
    for threads in [32usize, 128, 512] {
        let r = run_insert_emu(&cfg, &edges, threads, emu_graph::DEFAULT_BLOCK_CAP)?;
        // Verify the streamed build against a host build.
        let host = Stinger::build_host(&edges, emu_graph::DEFAULT_BLOCK_CAP, 8);
        assert_eq!(
            r.graph.lock().unwrap().canonical_adjacency(),
            host.canonical_adjacency()
        );
        t.row(vec![
            "edge insertion".into(),
            threads.to_string(),
            format!("{:.2} M edges/s", r.edges_per_sec / 1e6),
            r.migrations.to_string(),
        ]);
    }
    let g = Arc::new(Stinger::build_host(&edges, emu_graph::DEFAULT_BLOCK_CAP, 8));
    let reference = g.bfs_reference(0);
    for mode in [BfsMode::Migrating, BfsMode::RemoteFlags] {
        for threads in [64usize, 512] {
            let r = run_bfs_emu(&cfg, Arc::clone(&g), 0, mode, threads)?;
            assert_eq!(r.levels, reference, "BFS diverged");
            t.row(vec![
                format!("BFS ({})", mode.name()),
                threads.to_string(),
                format!("{:.2} M TEPS", r.teps / 1e6),
                r.migrations.to_string(),
            ]);
        }
    }
    Ok(t)
}

/// Sparse-tensor extension: MTTKRP layout x rank on the Emu, plus the
/// Haswell comparison.
pub fn ext_mttkrp() -> Result<Table, SimError> {
    let emu_cfg = presets::chick_prototype();
    let cpu_cfg = xeon_sim::config::haswell();
    let nnz = sized_usize(1 << 15, 1 << 11);
    let t3 = Arc::new(random_tensor([256, 64, 64], nnz, 7));
    let mut t = Table::new(
        format!("Extension: MTTKRP ({} nnz, 256x64x64)", t3.nnz()),
        &[
            "rank",
            "Emu 1D (MB/s)",
            "Emu slice-blocked (MB/s)",
            "Emu 1D migrations",
            "Haswell 56thr (MB/s)",
        ],
    );
    for rank in [1u32, 2, 4, 8, 16] {
        let reference = mttkrp_reference(&t3, rank);
        let mut emu_bw = Vec::new();
        let mut migs = 0;
        for layout in TensorLayout::ALL {
            let r = run_mttkrp_emu(
                &emu_cfg,
                Arc::clone(&t3),
                &EmuMttkrpConfig {
                    layout,
                    rank,
                    nthreads: 512,
                },
            )?;
            let err = reference
                .iter()
                .zip(&r.y)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-6, "{} rank {rank}: err {err}", layout.name());
            if layout == TensorLayout::OneD {
                migs = r.migrations;
            }
            emu_bw.push(r.bandwidth.mb_per_sec());
        }
        let cpu = run_mttkrp_cpu(
            &cpu_cfg,
            Arc::clone(&t3),
            &CpuMttkrpConfig { rank, nthreads: 56 },
        );
        t.row(vec![
            rank.to_string(),
            format!("{:.1}", emu_bw[0]),
            format!("{:.1}", emu_bw[1]),
            migs.to_string(),
            format!("{:.1}", cpu.bandwidth.mb_per_sec()),
        ]);
    }
    Ok(t)
}

/// The full shuffle-mode matrix of Fig 2, on both platforms at one block
/// size (the paper only plots full_block_shuffle).
pub fn ext_shuffle_modes() -> Result<Table, SimError> {
    let emu_cfg = presets::chick_prototype();
    let cpu_cfg = xeon_sim::config::sandy_bridge();
    let mut t = Table::new(
        "Extension: shuffle modes (block 64, Emu 512thr / Xeon 32thr)",
        &["mode", "Emu (MB/s)", "Xeon (MB/s)"],
    );
    for mode in ShuffleMode::ALL {
        let emu = chase::run_chase_emu(
            &emu_cfg,
            &ChaseConfig {
                elems_per_list: sized_usize(4096, 512),
                nlists: 512,
                block_elems: 64,
                mode,
                seed: 11,
            },
        )?;
        let cpu = chase::cpu::run_chase_cpu(
            &cpu_cfg,
            &ChaseConfig {
                elems_per_list: sized_usize(1 << 17, 1 << 13),
                nlists: 32,
                block_elems: 64,
                mode,
                seed: 11,
            },
        );
        t.row(vec![
            mode.name().into(),
            format!("{:.1}", emu.bandwidth.mb_per_sec()),
            format!("{:.1}", cpu.bandwidth.mb_per_sec()),
        ]);
    }
    Ok(t)
}

/// Full STREAM suite (the paper only reports ADD).
pub fn ext_stream_suite() -> Result<Table, SimError> {
    let emu_cfg = presets::chick_prototype();
    let cpu_cfg = xeon_sim::config::sandy_bridge();
    let mut t = Table::new(
        "Extension: full STREAM suite (Emu 512thr recursive_remote / Xeon 16thr NT)",
        &["kernel", "Emu (MB/s)", "Xeon (GB/s)"],
    );
    for kernel in [
        StreamKernel::Copy,
        StreamKernel::Scale,
        StreamKernel::Add,
        StreamKernel::Triad,
    ] {
        let emu = run_stream_emu(
            &emu_cfg,
            &EmuStreamConfig {
                total_elems: sized(1 << 18, 1 << 13),
                nthreads: 512,
                kernel,
                ..Default::default()
            },
        )?;
        let cpu = run_stream_cpu(
            &cpu_cfg,
            &CpuStreamConfig {
                total_elems: sized(1 << 20, 1 << 14),
                nthreads: 16,
                kernel,
                nt_stores: true,
            },
        );
        t.row(vec![
            kernel.name().into(),
            format!("{:.1}", emu.bandwidth.mb_per_sec()),
            format!("{:.2}", cpu.bandwidth.gb_per_sec()),
        ]);
    }
    Ok(t)
}

/// Multi-node scaling of the prototype (the paper managed one stable
/// 8-node STREAM measurement of 6.5 GB/s).
pub fn ext_multinode() -> Result<Table, SimError> {
    let mut t = Table::new(
        "Extension: node scaling, prototype-grade nodes",
        &[
            "nodes",
            "STREAM (MB/s)",
            "chase blk64 (MB/s)",
            "chase blk1 (MB/s)",
        ],
    );
    for nodes in [1u32, 2, 4, 8] {
        let cfg = MachineConfig {
            nodes,
            ..presets::chick_prototype()
        };
        let threads = 512 * nodes as usize;
        let stream = run_stream_emu(
            &cfg,
            &EmuStreamConfig {
                total_elems: sized(1 << 18, 1 << 13) * nodes as u64,
                nthreads: threads,
                ..Default::default()
            },
        )?;
        let chase_at = |block: usize| -> Result<f64, SimError> {
            Ok(chase::run_chase_emu(
                &cfg,
                &ChaseConfig {
                    elems_per_list: sized_usize(1024, 256).max(block),
                    nlists: threads,
                    block_elems: block,
                    mode: ShuffleMode::FullBlock,
                    seed: 12,
                },
            )?
            .bandwidth
            .mb_per_sec())
        };
        t.row(vec![
            nodes.to_string(),
            format!("{:.1}", stream.bandwidth.mb_per_sec()),
            format!("{:.1}", chase_at(64)?),
            format!("{:.1}", chase_at(1)?),
        ]);
    }
    Ok(t)
}
