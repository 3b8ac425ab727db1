//! Ablation studies for the design choices called out in DESIGN.md and
//! the paper's Section V discussion.

use crate::output::Table;
use crate::runcfg::{sized, sized_usize};
use emu_core::prelude::*;
use membench::chase::{self, ChaseConfig, ShuffleMode};
use membench::gups::{self, GupsConfig};
use membench::pingpong::{run_pingpong, PingPongConfig};
use membench::spmv_emu::{run_spmv_emu, EmuLayout, EmuSpmvConfig};
use membench::stream::{run_stream_emu, EmuStreamConfig};
use spmat::{laplacian, LaplacianSpec};
use std::sync::Arc;

/// Every ablation table `simctl ablations` runs, by CSV stem.
pub const ALL: &[(&str, crate::figures::FigureFn)] = &[
    ("ablation_grain", ablation_grain),
    ("ablation_migration_rate", ablation_migration_rate),
    ("ablation_spawn_ramp", ablation_spawn_ramp),
    ("ablation_stack_touch", ablation_stack_touch),
    ("ablation_cpu_features", ablation_cpu_features),
    ("ablation_full_speed_path", ablation_full_speed_path),
    ("gups_compare", gups_compare),
];

/// Grain-size sweep on both platforms: the paper's observation that the
/// Emu prefers tiny grains (16 nnz) while the Xeon prefers huge ones
/// (16384 nnz).
pub fn ablation_grain() -> Result<Table, SimError> {
    let mut t = Table::new(
        "Ablation: SpMV grain size (nnz per task)",
        &["grain", "Emu 2D (MB/s)", "Haswell cilk_spawn (MB/s)"],
    );
    let emu_cfg = presets::chick_prototype();
    let cpu_cfg = xeon_sim::config::haswell();
    let n = if crate::runcfg::quick() { 60 } else { 150 };
    let m = Arc::new(laplacian(LaplacianSpec::paper(n)));
    for grain in [4usize, 16, 64, 256, 1024, 4096, 16384] {
        let emu = run_spmv_emu(
            &emu_cfg,
            Arc::clone(&m),
            &EmuSpmvConfig {
                layout: EmuLayout::TwoD,
                grain_nnz: grain,
            },
        )?;
        let cpu = membench::spmv_cpu::run_spmv_cpu(
            &cpu_cfg,
            Arc::clone(&m),
            &membench::spmv_cpu::CpuSpmvConfig {
                strategy: membench::spmv_cpu::CpuStrategy::CilkSpawn { grain },
                nthreads: 56,
            },
        );
        t.row(vec![
            grain.to_string(),
            format!("{:.1}", emu.bandwidth.mb_per_sec()),
            format!("{:.1}", cpu.bandwidth.mb_per_sec()),
        ]);
    }
    Ok(t)
}

/// Migration-engine rate sweep: how ping-pong and migration-heavy chase
/// scale with the component the 1.0 firmware limited.
pub fn ablation_migration_rate() -> Result<Table, SimError> {
    let mut t = Table::new(
        "Ablation: migration-engine rate per nodelet",
        &[
            "rate (M/s)",
            "pingpong (M mig/s)",
            "chase block=1 (MB/s)",
            "chase block=128 (MB/s)",
        ],
    );
    for rate_m in [1u64, 2, 4, 8, 16, 32] {
        let cfg = MachineConfig {
            migration_rate_per_sec: rate_m * 1_000_000,
            ..presets::chick_prototype()
        };
        let pp = run_pingpong(
            &cfg,
            &PingPongConfig {
                nthreads: 64,
                round_trips: sized(1000, 100) as u32,
                ..Default::default()
            },
        )?;
        let chase_at = |block: usize| -> Result<f64, SimError> {
            Ok(chase::run_chase_emu(
                &cfg,
                &ChaseConfig {
                    elems_per_list: sized_usize(2048, 512),
                    nlists: 256,
                    block_elems: block,
                    mode: ShuffleMode::FullBlock,
                    seed: 2,
                },
            )?
            .bandwidth
            .mb_per_sec())
        };
        t.row(vec![
            rate_m.to_string(),
            format!("{:.1}", pp.migrations_per_sec / 1e6),
            format!("{:.1}", chase_at(1)?),
            format!("{:.1}", chase_at(128)?),
        ]);
    }
    Ok(t)
}

/// Spawn-strategy ramp cost: time to create N no-op workers.
pub fn ablation_spawn_ramp() -> Result<Table, SimError> {
    let cfg = presets::chick_prototype();
    let mut t = Table::new(
        "Ablation: spawn-tree ramp time (no-op workers)",
        &[
            "workers",
            "serial (us)",
            "recursive (us)",
            "serial_remote (us)",
            "recursive_remote (us)",
        ],
    );
    for workers in [64usize, 128, 256, 512] {
        let mut cells = vec![workers.to_string()];
        for strategy in SpawnStrategy::ALL {
            let factory: WorkerFactory = Arc::new(|_| Box::new(ScriptKernel::new(vec![])));
            let mut e = Engine::new(cfg.clone())?;
            e.spawn_at(
                NodeletId(0),
                emu_core::spawn::root_kernel(strategy, workers, 8, factory),
            )?;
            let r = e.run()?;
            cells.push(format!("{:.1}", r.makespan.us_f64()));
        }
        t.row(cells);
    }
    Ok(t)
}

/// The Fig 5 modeling lever: how often workers touch their Cilk frame on
/// the spawn-home nodelet. Period 0 disables the mechanism entirely.
pub fn ablation_stack_touch() -> Result<Table, SimError> {
    let cfg = presets::chick_prototype();
    let mut t = Table::new(
        "Ablation: Cilk-frame (stack) touch period, STREAM 8 nodelets, 512 threads",
        &[
            "touch period",
            "serial_spawn (MB/s)",
            "recursive_remote (MB/s)",
        ],
    );
    for period in [0u32, 1, 2, 4, 8, 16, 64] {
        let mut cells = vec![if period == 0 {
            "off".to_string()
        } else {
            format!("1/{period}")
        }];
        for strategy in [SpawnStrategy::Serial, SpawnStrategy::RecursiveRemote] {
            let r = run_stream_emu(
                &cfg,
                &EmuStreamConfig {
                    total_elems: sized(1 << 17, 1 << 13),
                    nthreads: 512,
                    strategy,
                    stack_touch_period: period,
                    ..Default::default()
                },
            )?;
            cells.push(format!("{:.1}", r.bandwidth.mb_per_sec()));
        }
        t.row(cells);
    }
    Ok(t)
}

/// Prefetcher and NT-store contribution to CPU STREAM and chase.
pub fn ablation_cpu_features() -> Result<Table, SimError> {
    use membench::stream::cpu::{run_stream_cpu, CpuStreamConfig};
    let mut t = Table::new(
        "Ablation: Xeon prefetcher / NT stores",
        &["configuration", "STREAM (GB/s)", "chase block=512 (MB/s)"],
    );
    for (name, prefetch, nt) in [
        ("baseline (pf + NT)", true, true),
        ("no prefetch", false, true),
        ("no NT stores", true, false),
        ("neither", false, false),
    ] {
        let mut cfg = xeon_sim::config::sandy_bridge();
        cfg.prefetch.enabled = prefetch;
        let stream = run_stream_cpu(
            &cfg,
            &CpuStreamConfig {
                total_elems: sized(1 << 19, 1 << 14),
                nthreads: 16,
                nt_stores: nt,
                ..Default::default()
            },
        );
        let chase = chase::cpu::run_chase_cpu(
            &cfg,
            &ChaseConfig {
                elems_per_list: sized_usize(1 << 15, 1 << 12),
                nlists: 16,
                block_elems: 512,
                mode: ShuffleMode::FullBlock,
                seed: 3,
            },
        );
        t.row(vec![
            name.to_string(),
            format!("{:.1}", stream.bandwidth.gb_per_sec()),
            format!("{:.1}", chase.bandwidth.mb_per_sec()),
        ]);
    }
    Ok(t)
}

/// GUPS comparison (extension): Emu memory-side atomics vs Xeon RMW.
pub fn gups_compare() -> Result<Table, SimError> {
    let mut t = Table::new(
        "Extension: GUPS random updates",
        &["platform", "threads", "GUPS", "migrations"],
    );
    let gc = GupsConfig {
        table_words: sized(1 << 20, 1 << 14),
        nthreads: 256,
        updates_per_thread: sized_usize(2048, 256),
        seed: 9,
    };
    let emu = gups::run_gups_emu(&presets::chick_prototype(), &gc)?;
    t.row(vec![
        "Emu Chick (remote atomics)".into(),
        gc.nthreads.to_string(),
        format!("{:.4}", emu.gups),
        emu.migrations.to_string(),
    ]);
    let cpu_gc = GupsConfig {
        nthreads: 32,
        ..gc.clone()
    };
    let cpu = gups::cpu::run_gups_cpu(&xeon_sim::config::sandy_bridge(), &cpu_gc);
    t.row(vec![
        "Sandy Bridge Xeon (RMW)".into(),
        cpu_gc.nthreads.to_string(),
        format!("{:.4}", cpu.gups),
        "0".into(),
    ]);
    Ok(t)
}

/// Scaling the prototype toward the full-speed design point (GC count,
/// clock, DRAM) — the bridge between the Chick and Fig 11's machine.
pub fn ablation_full_speed_path() -> Result<Table, SimError> {
    let mut t = Table::new(
        "Ablation: prototype -> full-speed design point (STREAM, 8 nodelets)",
        &["configuration", "STREAM (MB/s)", "chase 512thr (MB/s)"],
    );
    let steps: [(&str, MachineConfig); 4] = [
        ("prototype (1 GC @150MHz)", presets::chick_prototype()),
        (
            "+300 MHz clock",
            MachineConfig {
                gc_clock: desim::time::Clock::from_mhz(300),
                ..presets::chick_prototype()
            },
        ),
        (
            "+4 GCs",
            MachineConfig {
                gc_clock: desim::time::Clock::from_mhz(300),
                gcs_per_nodelet: 4,
                ..presets::chick_prototype()
            },
        ),
        (
            "full speed (also DDR4-2133, fast engine)",
            presets::chick_full_speed(),
        ),
    ];
    for (name, cfg) in steps {
        let stream = run_stream_emu(
            &cfg,
            &EmuStreamConfig {
                total_elems: sized(1 << 18, 1 << 13),
                nthreads: 512,
                ..Default::default()
            },
        )?;
        let ch = chase::run_chase_emu(
            &cfg,
            &ChaseConfig {
                elems_per_list: sized_usize(2048, 512),
                nlists: 512,
                block_elems: 128,
                mode: ShuffleMode::FullBlock,
                seed: 4,
            },
        )?;
        t.row(vec![
            name.to_string(),
            format!("{:.1}", stream.bandwidth.mb_per_sec()),
            format!("{:.1}", ch.bandwidth.mb_per_sec()),
        ]);
    }
    Ok(t)
}
