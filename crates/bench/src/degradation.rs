//! Graceful-degradation sweeps: bandwidth as a function of injected
//! faults — the figure the paper's degraded prototype could not hold
//! still long enough to produce.
//!
//! Three axes, two workloads each (STREAM as the bandwidth-bound probe,
//! block-1 pointer chasing as the migration-bound probe):
//!
//! * **dead** — fraction of nodelets marked dead, their memory and
//!   arrivals redirected to the nearest live neighbor;
//! * **slow** — fraction of nodelets serving all resources 4× slower
//!   (the "one sick FPGA" regime the Chick actually exhibited);
//! * **nack** — migration-engine NACK probability with exponential
//!   backoff (the firmware-limit knob behind the Fig 10 gap).
//!
//! Every point runs under the [`crate::harness`] timeout/retry policy,
//! so a pathological configuration yields a labelled `error`/`timeout`
//! row instead of killing the sweep.

use crate::harness::{run_point, PointOutcome, RunPolicy};
use crate::output::Table;
use crate::runcfg::{sized, sized_usize};
use crate::sweep;
use emu_core::prelude::*;
use membench::chase::{run_chase_emu, ChaseConfig, ShuffleMode};
use membench::stream::{run_stream_emu, EmuStreamConfig};
use std::time::Duration;

/// One measured sweep point: bandwidth plus the fault-recovery counters
/// that explain it.
#[derive(Debug, Clone, Copy)]
pub struct DegSample {
    /// Achieved bandwidth.
    pub mb_per_sec: f64,
    /// Thread migrations over the run.
    pub migrations: u64,
    /// Machine-wide fault-recovery totals.
    pub faults: FaultTotals,
}

fn stream_sample(cfg: &MachineConfig) -> Result<DegSample, SimError> {
    let r = run_stream_emu(
        cfg,
        &EmuStreamConfig {
            total_elems: sized(1 << 16, 1 << 12),
            nthreads: 512,
            strategy: SpawnStrategy::RecursiveRemote,
            ..Default::default()
        },
    )?;
    Ok(DegSample {
        mb_per_sec: r.bandwidth.mb_per_sec(),
        migrations: r.report.total_migrations(),
        faults: r.report.fault_totals(),
    })
}

fn chase_sample(cfg: &MachineConfig) -> Result<DegSample, SimError> {
    let r = run_chase_emu(
        cfg,
        &ChaseConfig {
            elems_per_list: sized_usize(1024, 256),
            nlists: 256,
            block_elems: 1,
            mode: ShuffleMode::FullBlock,
            seed: 17,
        },
    )?;
    Ok(DegSample {
        mb_per_sec: r.bandwidth.mb_per_sec(),
        migrations: r.migrations,
        faults: r.faults,
    })
}

/// A sweep point: axis name, axis value, workload, faulted config.
struct Point {
    axis: &'static str,
    value: f64,
    bench: &'static str,
    cfg: MachineConfig,
}

fn plan_points() -> Vec<Point> {
    let base = presets::chick_prototype();
    let total = base.total_nodelets();
    let mut pts = Vec::new();
    let mut add = |axis: &'static str, value: f64, faults: FaultPlan| {
        for bench in ["stream", "chase1"] {
            pts.push(Point {
                axis,
                value,
                bench,
                cfg: MachineConfig {
                    faults: faults.clone(),
                    ..base.clone()
                },
            });
        }
    };

    for frac in [0.0, 0.125, 0.25, 0.375, 0.5] {
        add(
            "dead",
            frac,
            FaultPlan::none().with_dead_fraction(total, frac),
        );
    }
    for frac in [0.125, 0.25, 0.5] {
        add(
            "slow4x",
            frac,
            FaultPlan::none().with_slow_fraction(total, frac, 4.0),
        );
    }
    for prob in [0.01, 0.05, 0.1, 0.2, 0.4] {
        let mut f = FaultPlan::none();
        f.mig_nack_prob = prob;
        add("nack", prob, f);
    }
    pts
}

/// Run the full degradation sweep on the bounded worker pool in
/// [`crate::sweep`] (`--jobs`), each point isolated by
/// [`run_point`]'s timeout/retry harness; failures and timeouts become
/// labelled rows, never a crash.
pub fn fig_degradation() -> Table {
    let policy = RunPolicy {
        timeout: Duration::from_secs(if crate::runcfg::quick() { 60 } else { 300 }),
        attempts: 2,
    };
    let points = plan_points();
    let rows = sweep::run_indexed(points.len(), |i| {
        let p = &points[i];
        let bench = p.bench;
        let cfg = p.cfg.clone();
        let outcome = run_point(policy, move || match bench {
            "stream" => stream_sample(&cfg),
            _ => chase_sample(&cfg),
        });
        render_row(p.axis, p.value, bench, &outcome)
    });

    let mut t = Table::new(
        "Degradation: bandwidth vs injected faults (Emu Chick preset)",
        &[
            "axis",
            "value",
            "bench",
            "MB/s",
            "migrations",
            "nacks",
            "retries",
            "ecc_retries",
            "link_retx",
            "redirects",
            "status",
        ],
    );
    for r in rows {
        t.row(r);
    }
    t
}

fn render_row(
    axis: &str,
    value: f64,
    bench: &str,
    outcome: &PointOutcome<DegSample>,
) -> Vec<String> {
    let mut row = vec![axis.to_string(), format!("{value:.3}"), bench.to_string()];
    match outcome {
        PointOutcome::Ok(s) => {
            row.extend([
                format!("{:.1}", s.mb_per_sec),
                s.migrations.to_string(),
                s.faults.nacks.to_string(),
                s.faults.retries.to_string(),
                s.faults.ecc_retries.to_string(),
                s.faults.link_retransmits.to_string(),
                s.faults.redirects.to_string(),
            ]);
        }
        _ => row.extend(std::iter::repeat_n("-".to_string(), 7)),
    }
    row.push(outcome.status().to_string());
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_report_fault_counters() {
        let base = presets::chick_prototype();
        let mut faulted = base.clone();
        faulted.faults.mig_nack_prob = 0.2;
        let clean = chase_sample(&base).unwrap();
        let noisy = chase_sample(&faulted).unwrap();
        assert_eq!(clean.faults.nacks, 0);
        assert!(noisy.faults.nacks > 0, "NACKs must be counted");
        assert!(
            noisy.mb_per_sec < clean.mb_per_sec,
            "NACKs must cost bandwidth: {} vs {}",
            noisy.mb_per_sec,
            clean.mb_per_sec
        );
    }

    #[test]
    fn dead_nodelets_redirect_and_degrade_stream() {
        let base = presets::chick_prototype();
        let mut faulted = base.clone();
        faulted.faults = FaultPlan::none().with_dead_fraction(base.total_nodelets(), 0.25);
        let clean = stream_sample(&base).unwrap();
        let degraded = stream_sample(&faulted).unwrap();
        assert!(degraded.faults.redirects > 0, "dead traffic must redirect");
        assert!(degraded.mb_per_sec < clean.mb_per_sec);
    }
}
