//! Fault-path accounting for the streaming-graph workloads: BFS under
//! an active [`FaultPlan`] must stay functionally exact, and every
//! fault-recovery counter must reconcile with the event trace — checked
//! both explicitly ([`RunReport::fault_totals`] vs trace counts) and by
//! the full [`emu_core::audit`] pass.

use emu_core::prelude::*;
use emu_core::trace::{self, RunScope, TelemetryConfig};
use emu_graph::bfs::{run_bfs_emu, BfsMode};
use emu_graph::gen::uniform;
use emu_graph::stinger::Stinger;
use std::sync::Arc;

fn faulty_cfg() -> MachineConfig {
    let mut cfg = presets::chick_prototype();
    cfg.faults = FaultPlan {
        seed: 0xFA017,
        mig_nack_prob: 0.2,
        mig_backoff: desim::time::Time::from_ns(50),
        mig_retry_budget: 64,
        ecc_prob: 0.15,
        ecc_latency: desim::time::Time::from_ns(80),
        ..FaultPlan::none()
    };
    cfg.faults.validate(cfg.total_nodelets()).unwrap();
    cfg
}

/// Collect every engine report of `f` with lossless tracing enabled.
fn traced_reports(f: impl FnOnce()) -> Vec<RunReport> {
    let traced = RunScope::current().with_telemetry(TelemetryConfig {
        event_capacity: 1 << 20,
        timeline_bucket: None,
    });
    traced.enter(|| {
        trace::collect_reports(true);
        f();
        trace::take_reports()
    })
}

#[test]
fn bfs_fault_counters_reconcile_with_trace() {
    let cfg = faulty_cfg();
    let edges = uniform(64, 256, 0xB15);
    let g = Arc::new(Stinger::build_host(&edges, 4, cfg.total_nodelets()));
    let reference = g.bfs_reference(0);

    for mode in [BfsMode::Migrating, BfsMode::RemoteFlags] {
        let g = Arc::clone(&g);
        let cfg2 = cfg.clone();
        let mut levels = Vec::new();
        let reports = traced_reports(|| {
            levels = run_bfs_emu(&cfg2, g, 0, mode, 16).unwrap().levels;
        });
        // Faults perturb timing, never results.
        assert_eq!(levels, reference, "{}", mode.name());

        assert!(!reports.is_empty(), "no reports collected");
        let mut nacks = 0;
        for r in &reports {
            let log = r.trace.as_ref().expect("tracing was armed");
            assert!(log.is_lossless(), "ring too small for reconciliation");
            let totals = r.fault_totals();
            assert_eq!(totals.nacks, log.count_of(TraceKind::MigNack));
            assert_eq!(totals.retries, log.count_of(TraceKind::MigRetry));
            assert_eq!(totals.ecc_retries, log.count_of(TraceKind::EccRetry));
            assert_eq!(
                totals.link_retransmits,
                log.count_of(TraceKind::LinkRetransmit)
            );
            assert_eq!(totals.redirects, log.count_of(TraceKind::Redirect));
            // Completed runs retry every NACK.
            assert_eq!(totals.nacks, totals.retries);
            assert_consistent(&cfg, r);
            nacks += totals.nacks;
        }
        // The plan injects aggressively; a migrating BFS that never saw
        // a single NACK means the fault path did not execute.
        if mode == BfsMode::Migrating {
            assert!(nacks > 0, "fault plan injected nothing");
        }
    }
}

#[test]
fn bfs_fault_runs_are_reproducible() {
    let cfg = faulty_cfg();
    let edges = uniform(48, 160, 0xB16);
    let g = Arc::new(Stinger::build_host(&edges, 4, cfg.total_nodelets()));
    let run = || {
        let r = run_bfs_emu(&cfg, Arc::clone(&g), 0, BfsMode::Migrating, 12).unwrap();
        (r.levels, r.total_time, r.migrations)
    };
    assert_eq!(run(), run(), "seeded faults must replay exactly");
}
