//! Diagnostics behind `simctl breakdown` and `simctl timeline`: where
//! threadlet time goes, and when each resource is busy.

use crate::output::Table;
use desim::time::Time;
use emu_core::engine::TimeBreakdown;
use emu_core::prelude::*;
use membench::chase::{run_chase_emu, traversal_order, ChaseConfig, ShuffleMode};
use membench::spmv_emu::{run_spmv_emu, EmuLayout, EmuSpmvConfig};
use membench::stream::{run_stream_emu, EmuStreamConfig};
use spmat::{laplacian, LaplacianSpec};
use std::sync::Arc;

fn row(t: &mut Table, name: &str, b: &TimeBreakdown) {
    let pct = |x| format!("{:.1}", 100.0 * b.fraction(x));
    t.row(vec![
        name.to_string(),
        pct(b.compute),
        pct(b.memory),
        pct(b.migration),
        pct(b.store_issue),
        pct(b.spawn),
    ]);
}

/// Where threadlet time goes — the paper's Section III-D asks for
/// metrics that expose "other system overheads, such as thread
/// migration and queuing delays": the fraction of total threadlet
/// wall-time spent computing, waiting on local memory, migrating, and
/// posting stores, for each benchmark and configuration.
pub fn breakdown() -> Result<Table, SimError> {
    let cfg = presets::chick_prototype();
    let mut t = Table::new(
        "Threadlet time breakdown (% of total thread-time)",
        &[
            "workload",
            "compute",
            "memory",
            "migration",
            "stores",
            "spawn",
        ],
    );

    // STREAM: remote vs serial spawn.
    for strategy in [SpawnStrategy::RecursiveRemote, SpawnStrategy::Serial] {
        let r = run_stream_emu(
            &cfg,
            &EmuStreamConfig {
                total_elems: 1 << 16,
                nthreads: 512,
                strategy,
                ..Default::default()
            },
        )?;
        row(
            &mut t,
            &format!("STREAM 512thr {}", strategy.name()),
            &r.report.breakdown,
        );
    }

    // Chase across the locality sweep.
    for block in [1usize, 4, 64, 1024] {
        let r = run_chase_emu(
            &cfg,
            &ChaseConfig {
                elems_per_list: 2048.max(block),
                nlists: 512,
                block_elems: block,
                mode: ShuffleMode::FullBlock,
                seed: 5,
            },
        )?;
        row(&mut t, &format!("chase block={block}"), &r.breakdown);
    }

    // SpMV layouts.
    let m = Arc::new(laplacian(LaplacianSpec::paper(60)));
    for layout in EmuLayout::ALL {
        let r = run_spmv_emu(
            &cfg,
            Arc::clone(&m),
            &EmuSpmvConfig {
                layout,
                grain_nnz: 16,
            },
        )?;
        row(
            &mut t,
            &format!("SpMV {}", layout.name()),
            &r.report.breakdown,
        );
    }

    Ok(t)
}

fn show(title: &str, report: &emu_core::metrics::RunReport, gcs: u32) {
    println!("\n== {title} (makespan {}) ==", report.makespan);
    let tl = report.timelines.as_ref().expect("timeline tracing enabled");
    println!("  Gossamer-core occupancy per nodelet:");
    for (i, t) in tl.core.iter().enumerate() {
        println!("    nodelet {i}: |{}|", t.sparkline(gcs, 64));
    }
    println!("  migration-engine occupancy per nodelet:");
    for (i, t) in tl.migration.iter().enumerate() {
        println!("    nodelet {i}: |{}|", t.sparkline(1, 64));
    }
}

/// A strided STREAM-ADD worker over three striped arrays.
fn stream_worker(arrays: &[ArrayHandle; 3], start: u64, step: u64, n: u64) -> Box<dyn Kernel> {
    let [a, b, c] = arrays.clone();
    let mut i = start;
    let mut phase = 0u8;
    Box::new(move |ctx: &KernelCtx| {
        if i >= n {
            return Op::Quit;
        }
        match phase {
            0 => {
                phase = 1;
                Op::Load {
                    addr: a.addr(i, ctx.here),
                    bytes: 8,
                }
            }
            1 => {
                phase = 2;
                Op::Load {
                    addr: b.addr(i, ctx.here),
                    bytes: 8,
                }
            }
            2 => {
                phase = 3;
                Op::Compute { cycles: 9 }
            }
            _ => {
                phase = 0;
                let addr = c.addr(i, ctx.here);
                i += step;
                Op::Store { addr, bytes: 8 }
            }
        }
    })
}

/// Occupancy timelines: *when* each resource is busy, not just how
/// much. Prints per-nodelet sparklines (one char ≈ 1/64 of the run) for
/// STREAM with serial vs recursive-remote spawn — the Fig 5 contrast
/// shows as nodelet 0's long spawn/migration ramp — and for a block-1
/// pointer chase, where all eight migration engines stay pinned.
pub fn timeline() -> Result<(), SimError> {
    let threads = 512usize;
    let n = 1u64 << 15;

    for strategy in [SpawnStrategy::Serial, SpawnStrategy::RecursiveRemote] {
        let cfg = presets::chick_prototype();
        let mut ms = MemSpace::new(8);
        let arrays: [ArrayHandle; 3] = [ms.striped(n, 8), ms.striped(n, 8), ms.striped(n, 8)];
        let factory: WorkerFactory =
            { std::sync::Arc::new(move |w| stream_worker(&arrays, w as u64, threads as u64, n)) };
        let mut engine = Engine::new(cfg.clone())?;
        engine.enable_timeline(Time::from_us(50))?;
        engine.spawn_at(
            NodeletId(0),
            emu_core::spawn::root_kernel(strategy, threads, 8, factory),
        )?;
        let report = engine.run()?;
        show(
            &format!("STREAM ADD, 512 threads, {}", strategy.name()),
            &report,
            cfg.gcs_per_nodelet,
        );
    }

    // Chase visual: migration engines saturated at block 1.
    let cfg = presets::chick_prototype();
    let mut ms = MemSpace::new(8);
    let mut engine = Engine::new(cfg.clone())?;
    engine.enable_timeline(Time::from_us(20))?;
    for l in 0..threads {
        let elems_per_list = 1024usize;
        let owners: Vec<NodeletId> = (0..elems_per_list)
            .map(|b| NodeletId(((b + l) % 8) as u32))
            .collect();
        let elems = ms.blocked(owners, 1, elems_per_list as u64, 16);
        let order = traversal_order(
            elems_per_list,
            1,
            ShuffleMode::FullBlock,
            desim::rng::trial_seed(1, l as u64),
        );
        let first = elems.owner(order[0] as u64, NodeletId(0));
        let mut pos = 0usize;
        let mut phase = 0u8;
        engine.spawn_at(
            first,
            Box::new(move |ctx: &KernelCtx| {
                if pos >= order.len() {
                    return Op::Quit;
                }
                if phase == 0 {
                    phase = 1;
                    Op::Load {
                        addr: elems.addr(order[pos] as u64, ctx.here),
                        bytes: 16,
                    }
                } else {
                    phase = 0;
                    pos += 1;
                    Op::Compute { cycles: 15 }
                }
            }),
        )?;
    }
    let report = engine.run()?;
    show(
        "pointer chase, block 1, 512 threads (engines pinned)",
        &report,
        cfg.gcs_per_nodelet,
    );
    Ok(())
}
