//! Executable calibration checks: every "shape criterion" DESIGN.md and
//! EXPERIMENTS.md claim against the paper, as PASS/FAIL assertions with
//! explicit tolerance bands. `simctl validate` exits nonzero if any band
//! is violated — the regression gate for model or calibration changes.

use crate::output::Table;
use crate::runcfg::{sized, sized_usize};
use emu_core::prelude::*;
use membench::chase::{self, ChaseConfig, ShuffleMode};
use membench::pingpong::{run_pingpong, PingPongConfig};
use membench::spmv_emu::{run_spmv_emu, EmuLayout, EmuSpmvConfig};
use membench::stream::{
    cpu::{run_stream_cpu, CpuStreamConfig},
    run_stream_emu, EmuStreamConfig,
};
use spmat::{laplacian, LaplacianSpec};
use std::sync::Arc;

/// One calibration check.
pub struct Check {
    /// What is being checked (paper anchor).
    pub name: String,
    /// Measured value.
    pub measured: f64,
    /// Inclusive acceptance band.
    pub band: (f64, f64),
    /// Display unit.
    pub unit: &'static str,
}

impl Check {
    /// Whether the measurement is inside the band.
    pub fn pass(&self) -> bool {
        self.measured >= self.band.0 && self.measured <= self.band.1
    }
}

fn emu_stream_mbs(threads: usize, strategy: SpawnStrategy, single: bool) -> Result<f64, SimError> {
    Ok(run_stream_emu(
        &presets::chick_prototype(),
        &EmuStreamConfig {
            total_elems: sized(1 << 17, 1 << 13),
            nthreads: threads,
            strategy,
            single_nodelet: single,
            ..Default::default()
        },
    )?
    .bandwidth
    .mb_per_sec())
}

fn emu_chase_mbs(block: usize, threads: usize) -> Result<f64, SimError> {
    Ok(chase::run_chase_emu(
        &presets::chick_prototype(),
        &ChaseConfig {
            elems_per_list: sized_usize(2048, 512).max(block),
            nlists: threads,
            block_elems: block,
            mode: ShuffleMode::FullBlock,
            seed: 17,
        },
    )?
    .bandwidth
    .mb_per_sec())
}

/// Run every calibration check; returns the list (render with
/// [`render`]) — callers decide what failure means. A simulation
/// error (bad config, watchdog trip) aborts the whole suite.
pub fn run_all() -> Result<Vec<Check>, SimError> {
    let mut checks = Vec::new();
    let mut push = |name: &str, measured: f64, lo: f64, hi: f64, unit: &'static str| {
        checks.push(Check {
            name: name.to_string(),
            measured,
            band: (lo, hi),
            unit,
        });
    };

    // §IV-A: single-node STREAM ~1.2 GB/s.
    let stream8 = emu_stream_mbs(512, SpawnStrategy::RecursiveRemote, false)?;
    push(
        "Emu 1-node STREAM (paper 1.2 GB/s)",
        stream8 / 1000.0,
        0.9,
        1.5,
        "GB/s",
    );

    // Fig 4: knee behaviour on one nodelet.
    let s8 = emu_stream_mbs(8, SpawnStrategy::Serial, true)?;
    let s32 = emu_stream_mbs(32, SpawnStrategy::Serial, true)?;
    let s64 = emu_stream_mbs(64, SpawnStrategy::Serial, true)?;
    push("Fig4 scaling 8->32 threads (x)", s32 / s8, 2.5, 4.5, "x");
    push("Fig4 plateau 32->64 threads (x)", s64 / s32, 0.9, 1.15, "x");

    // Fig 5: remote-spawn advantage at 256 threads.
    let serial = emu_stream_mbs(256, SpawnStrategy::Serial, false)?;
    let remote = emu_stream_mbs(256, SpawnStrategy::RecursiveRemote, false)?;
    push(
        "Fig5 remote/serial spawn at 256 thr (x)",
        remote / serial,
        1.7,
        5.0,
        "x",
    );

    // Fig 6: flatness and the block-1 dip.
    let b1 = emu_chase_mbs(1, 512)?;
    let mut blocks = Vec::new();
    for b in [8usize, 32, 128, 512, 1024] {
        blocks.push(emu_chase_mbs(b, 512)?);
    }
    let bmax = blocks.iter().cloned().fold(f64::MIN, f64::max);
    let bmin = blocks.iter().cloned().fold(f64::MAX, f64::min);
    push(
        "Fig6 flatness max/min, blocks 8-1024 (x)",
        bmax / bmin,
        1.0,
        1.35,
        "x",
    );
    push(
        "Fig6 block-1 dip vs block-128 (frac)",
        b1 / emu_chase_mbs(128, 512)?,
        0.5,
        0.95,
        "",
    );

    // Fig 8: utilization bands.
    push(
        "Fig8 Emu utilization at block 64 (%)",
        100.0 * emu_chase_mbs(64, 512)? / stream8,
        65.0,
        95.0,
        "%",
    );
    let xeon_peak = run_stream_cpu(
        &xeon_sim::config::sandy_bridge(),
        &CpuStreamConfig {
            total_elems: sized(1 << 19, 1 << 14),
            nthreads: 16,
            ..Default::default()
        },
    )
    .bandwidth
    .mb_per_sec();
    push(
        "Xeon STREAM (paper ~51.2 GB/s nominal)",
        xeon_peak / 1000.0,
        40.0,
        52.0,
        "GB/s",
    );
    let xeon_chase = chase::cpu::run_chase_cpu(
        &xeon_sim::config::sandy_bridge(),
        &ChaseConfig {
            elems_per_list: sized_usize(1 << 17, 1 << 13),
            nlists: 32,
            block_elems: 64,
            mode: ShuffleMode::FullBlock,
            seed: 17,
        },
    )
    .bandwidth
    .mb_per_sec();
    push(
        "Fig8 Xeon utilization at block 64 (%)",
        100.0 * xeon_chase / xeon_peak,
        10.0,
        40.0,
        "%",
    );

    // Fig 9a: layout ordering and the 2D magnitude.
    let m = Arc::new(laplacian(LaplacianSpec::paper(if crate::runcfg::quick() {
        30
    } else {
        100
    })));
    let spmv = |layout| -> Result<f64, SimError> {
        Ok(run_spmv_emu(
            &presets::chick_prototype(),
            Arc::clone(&m),
            &EmuSpmvConfig {
                layout,
                grain_nnz: 16,
            },
        )?
        .bandwidth
        .mb_per_sec())
    };
    let (local, one_d, two_d) = (
        spmv(EmuLayout::Local)?,
        spmv(EmuLayout::OneD)?,
        spmv(EmuLayout::TwoD)?,
    );
    push(
        "Fig9a local layout (paper ~50 MB/s)",
        local,
        25.0,
        80.0,
        "MB/s",
    );
    push(
        "Fig9a 2D layout (paper ~250 MB/s)",
        two_d,
        150.0,
        600.0,
        "MB/s",
    );
    push("Fig9a ordering 1D/local (x)", one_d / local, 1.5, 10.0, "x");
    push("Fig9a ordering 2D/1D (x)", two_d / one_d, 1.05, 5.0, "x");

    // Fig 10: validation gap.
    let pp = |cfg: &MachineConfig| {
        run_pingpong(
            cfg,
            &PingPongConfig {
                nthreads: 64,
                round_trips: sized(1000, 100) as u32,
                ..Default::default()
            },
        )
    };
    let hw = pp(&presets::chick_prototype())?;
    let sim = pp(&presets::chick_toolchain_sim())?;
    push(
        "Ping-pong hardware (paper 9 M/s)",
        hw.migrations_per_sec / 1e6,
        8.0,
        10.0,
        "M/s",
    );
    push(
        "Ping-pong simulator (paper 16 M/s)",
        sim.migrations_per_sec / 1e6,
        14.0,
        18.0,
        "M/s",
    );
    let lat = run_pingpong(
        &presets::chick_prototype(),
        &PingPongConfig {
            nthreads: 8,
            round_trips: sized(1000, 100) as u32,
            ..Default::default()
        },
    )?;
    push(
        "Migration latency (paper 1-2 us)",
        lat.mean_latency_ns / 1000.0,
        0.3,
        2.5,
        "us",
    );

    let stream_hw = emu_stream_mbs(512, SpawnStrategy::RecursiveRemote, false)?;
    let stream_sim = run_stream_emu(
        &presets::chick_toolchain_sim(),
        &EmuStreamConfig {
            total_elems: sized(1 << 17, 1 << 13),
            nthreads: 512,
            ..Default::default()
        },
    )?
    .bandwidth
    .mb_per_sec();
    push(
        "Fig10 STREAM sim/hw agreement (x)",
        stream_sim / stream_hw,
        0.98,
        1.02,
        "x",
    );
    let chase1_sim = chase::run_chase_emu(
        &presets::chick_toolchain_sim(),
        &ChaseConfig {
            elems_per_list: sized_usize(2048, 512),
            nlists: 512,
            block_elems: 1,
            mode: ShuffleMode::FullBlock,
            seed: 17,
        },
    )?
    .bandwidth
    .mb_per_sec();
    push(
        "Fig10 chase blk1 sim/hw divergence (x)",
        chase1_sim / b1,
        1.15,
        2.5,
        "x",
    );

    Ok(checks)
}

/// Render checks as a table, PASS/FAIL per row.
pub fn render(checks: &[Check]) -> (Table, bool) {
    let mut t = Table::new(
        "Calibration validation against the paper's anchors",
        &["check", "measured", "band", "verdict"],
    );
    let mut all_ok = true;
    for c in checks {
        let ok = c.pass();
        all_ok &= ok;
        t.row(vec![
            c.name.clone(),
            format!("{:.2} {}", c.measured, c.unit),
            format!("[{:.2}, {:.2}]", c.band.0, c.band.1),
            if ok { "PASS".into() } else { "FAIL".into() },
        ]);
    }
    (t, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_band_logic() {
        let c = Check {
            name: "x".into(),
            measured: 1.0,
            band: (0.5, 1.5),
            unit: "",
        };
        assert!(c.pass());
        let c = Check {
            name: "x".into(),
            measured: 2.0,
            band: (0.5, 1.5),
            unit: "",
        };
        assert!(!c.pass());
    }
}
