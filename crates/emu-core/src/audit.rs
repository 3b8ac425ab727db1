//! Post-run invariant auditing of a [`RunReport`].
//!
//! The engine's counters, trace, and occupancy figures are redundant by
//! construction: a lossless trace summed by kind must reproduce the
//! per-nodelet counters exactly, every spawned threadlet must quit,
//! every migration that departs must arrive, and no resource can be
//! busy for longer than the run lasted. [`audit`] checks all of that on
//! a finished report and returns the list of violated invariants — an
//! independent referee used by the conformance fuzzer (`simctl fuzz`)
//! and available to any test that wants to assert a run is internally
//! consistent.
//!
//! The checks degrade gracefully: trace-based reconciliation runs only
//! when a trace is attached and lossless (a ring that dropped events
//! cannot be summed), while the counter- and occupancy-level checks
//! always run.

use crate::config::MachineConfig;
use crate::metrics::RunReport;
use crate::trace::TraceKind;
use desim::time::Time;
use std::fmt;

/// One violated invariant found by [`audit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable name of the invariant (e.g. `"trace-counter-reconciliation"`).
    pub invariant: &'static str,
    /// Human-readable description of the discrepancy.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

/// Audit a finished run against `cfg` (the configuration it ran under).
///
/// Returns every violated invariant; an empty vector means the report is
/// internally consistent. The checks are:
///
/// * **threadlet conservation** — spawns recorded == threadlets run, and
///   (with a lossless trace) every threadlet quit exactly once;
/// * **migration conservation** — departures == arrivals, and every
///   arrival left a latency sample;
/// * **counter reconciliation** — with a lossless trace, the per-nodelet
///   event counts of all 14 [`TraceKind`]s equal the matching
///   [`crate::metrics::NodeletCounters`] fields (NACK/retry paths
///   included);
/// * **monotone sim-time** — trace events are in nondecreasing time
///   order and never stamped after the makespan;
/// * **no negative queue residency** — per-nodelet core/channel/
///   migration busy time never exceeds the run's capacity for it, and
///   the threadlet time breakdown fits within `threads x makespan`;
/// * **fault-totals consistency** — fault classes the plan disabled
///   recorded zero events, every NACK of a completed run was retried,
///   and dead nodelets stayed silent;
/// * **sharded-scheduler conservation** — every cross-shard event posted
///   to a mailbox was delivered, no cross-shard event was scheduled
///   below the conservative lookahead horizon, and a zero-lookahead
///   machine never entered epoch mode;
/// * **fused-epoch conservation** — the clean-window count is bounded by
///   the epoch count, agrees with the mailbox totals (an all-local run
///   is all clean, a run that posted mail is not), and every dirty
///   window is backed by at least one posted event;
/// * **shard-merge-map validity** — with a phase profile attached, the
///   adaptive merge planner's shard→worker map is total: one owner per
///   shard, every owner inside the group pool, no empty group.
pub fn audit(cfg: &MachineConfig, report: &RunReport) -> Vec<Violation> {
    fn fail(v: &mut Vec<Violation>, invariant: &'static str, detail: String) {
        v.push(Violation { invariant, detail });
    }
    let mut v = Vec::new();

    // -- Threadlet conservation --------------------------------------
    let spawns = report.total_spawns();
    if spawns != report.threads {
        fail(
            &mut v,
            "threadlet-conservation",
            format!(
                "{} spawns recorded but {} threadlets ran",
                spawns, report.threads
            ),
        );
    }
    if report.threads > 0 && report.events < report.threads {
        fail(
            &mut v,
            "threadlet-conservation",
            format!(
                "{} threadlets ran but only {} events were processed",
                report.threads, report.events
            ),
        );
    }

    // -- Migration conservation --------------------------------------
    let out: u64 = report.nodelets.iter().map(|n| n.migrations_out).sum();
    let inn: u64 = report.nodelets.iter().map(|n| n.migrations_in).sum();
    if out != inn {
        fail(
            &mut v,
            "migration-conservation",
            format!("{out} migrations departed but {inn} arrived"),
        );
    }
    if report.migration_latency.count() != inn {
        fail(
            &mut v,
            "migration-conservation",
            format!(
                "{} arrivals but {} latency samples",
                inn,
                report.migration_latency.count()
            ),
        );
    }

    // -- Queue residency / occupancy bounds --------------------------
    let span = report.makespan;
    for (i, occ) in report.occupancy.iter().enumerate() {
        let core_cap = span.ps() as u128 * report.gcs_per_nodelet as u128;
        if occ.core_busy.ps() as u128 > core_cap {
            fail(
                &mut v,
                "queue-residency",
                format!(
                    "nodelet {i} cores busy {} beyond capacity {} x {}",
                    occ.core_busy, report.gcs_per_nodelet, span
                ),
            );
        }
        for (what, busy) in [
            ("channel", occ.channel_busy),
            ("migration", occ.migration_busy),
        ] {
            if busy > span {
                fail(
                    &mut v,
                    "queue-residency",
                    format!("nodelet {i} {what} busy {busy} beyond makespan {span}"),
                );
            }
        }
    }
    let accounted = report.breakdown.total().ps() as u128;
    if accounted > report.threads as u128 * span.ps() as u128 {
        fail(
            &mut v,
            "queue-residency",
            format!(
                "breakdown accounts {} ps across {} threadlets in a {} run",
                accounted, report.threads, span
            ),
        );
    }

    // -- Fault-totals consistency ------------------------------------
    let plan = &cfg.faults;
    let totals = report.fault_totals();
    for (what, prob, got) in [
        ("mig_nack_prob", plan.mig_nack_prob, totals.nacks),
        ("ecc_prob", plan.ecc_prob, totals.ecc_retries),
        (
            "link_drop_prob",
            plan.link_drop_prob,
            totals.link_retransmits,
        ),
    ] {
        if prob == 0.0 && got != 0 {
            fail(
                &mut v,
                "fault-consistency",
                format!("{what} is 0 but {got} events were recorded"),
            );
        }
    }
    if plan.dead_count() == 0 && totals.redirects != 0 {
        fail(
            &mut v,
            "fault-consistency",
            format!(
                "no dead nodelets but {} redirects recorded",
                totals.redirects
            ),
        );
    }
    // A run that finished never exhausted a retry budget, so every NACK
    // was followed by exactly one scheduled retry.
    if totals.nacks != totals.retries {
        fail(
            &mut v,
            "fault-consistency",
            format!(
                "{} NACKs but {} retries on a completed run",
                totals.nacks, totals.retries
            ),
        );
    }
    for (i, n) in report.nodelets.iter().enumerate() {
        if !plan.is_dead(i) {
            continue;
        }
        let activity = n.spawns
            + n.migrations_out
            + n.migrations_in
            + n.local_loads
            + n.local_stores
            + n.atomics
            + n.remote_packets_in
            + n.bytes_loaded
            + n.bytes_stored
            + n.slot_waits
            + n.mig_nacks
            + n.mig_retries
            + n.ecc_retries
            + n.link_retransmits
            + n.redirects;
        if activity != 0 {
            fail(
                &mut v,
                "fault-consistency",
                format!("dead nodelet {i} recorded activity ({activity} counter units)"),
            );
        }
    }

    // -- Sharded-scheduler conservation ------------------------------
    let pdes = &report.pdes;
    if pdes.mailbox_sent != pdes.mailbox_delivered {
        fail(
            &mut v,
            "pdes-mailbox-conservation",
            format!(
                "{} cross-shard events posted but {} delivered",
                pdes.mailbox_sent, pdes.mailbox_delivered
            ),
        );
    }
    // Conservatism: with epoch barriers active, every cross-shard event
    // must land at or beyond the lookahead horizon from its send time.
    // `min_cross_delay_ps` is u64::MAX when nothing crossed a shard.
    if pdes.epochs > 0 && pdes.min_cross_delay_ps < pdes.lookahead_ps {
        fail(
            &mut v,
            "pdes-lookahead-horizon",
            format!(
                "cross-shard event delayed only {} ps under a {} ps lookahead",
                pdes.min_cross_delay_ps, pdes.lookahead_ps
            ),
        );
    }
    // A machine with zero lookahead cannot run epochs at all — the
    // engine must fall back to the merged (sequential) scheduler.
    if pdes.lookahead_ps == 0 && pdes.epochs != 0 {
        fail(
            &mut v,
            "pdes-epoch-mode",
            format!(
                "{} epochs recorded on a zero-lookahead machine",
                pdes.epochs
            ),
        );
    }
    // The depth high-water mark counts deliveries within one exchange,
    // so it can never exceed the lifetime delivery total — and a run
    // that delivered anything must have a nonzero mark.
    if pdes.mailbox_depth_hwm > pdes.mailbox_delivered
        || (pdes.mailbox_delivered > 0 && pdes.mailbox_depth_hwm == 0)
    {
        fail(
            &mut v,
            "pdes-mailbox-hwm-bound",
            format!(
                "depth high-water mark {} inconsistent with {} total deliveries",
                pdes.mailbox_depth_hwm, pdes.mailbox_delivered
            ),
        );
    }

    // Fused-epoch conservation: a clean window is one that crossed the
    // gate with no cross-shard mail in flight. There can never be more
    // clean windows than windows; a run that never posted mail is all
    // clean; a run that posted any mail has at least one dirty window;
    // and every dirty window carries at least one posted event. All
    // four hold for every scheduler (threaded, inline) because
    // cleanliness depends only on simulated content — the merged
    // fallback (epochs == 0) is exempt from the emptiness checks since
    // it never opens a window at all.
    if pdes.clean_windows > pdes.epochs {
        fail(
            &mut v,
            "pdes-clean-window-bound",
            format!(
                "{} clean windows out of {} epochs",
                pdes.clean_windows, pdes.epochs
            ),
        );
    }
    if pdes.epochs > 0 && pdes.mailbox_sent == 0 && pdes.clean_windows != pdes.epochs {
        fail(
            &mut v,
            "pdes-clean-window-bound",
            format!(
                "no cross-shard mail but only {} of {} windows were clean",
                pdes.clean_windows, pdes.epochs
            ),
        );
    }
    if pdes.epochs > 0 && pdes.mailbox_sent > 0 && pdes.clean_windows == pdes.epochs {
        fail(
            &mut v,
            "pdes-clean-window-bound",
            format!(
                "{} cross-shard events posted yet all {} windows claim to be clean",
                pdes.mailbox_sent, pdes.epochs
            ),
        );
    }
    if pdes.mailbox_sent < pdes.epochs.saturating_sub(pdes.clean_windows) {
        fail(
            &mut v,
            "pdes-clean-window-bound",
            format!(
                "{} dirty windows but only {} events were ever posted",
                pdes.epochs - pdes.clean_windows,
                pdes.mailbox_sent
            ),
        );
    }

    // -- Phase-profile reconciliation --------------------------------
    // Wall-clock phase attribution (present only when profiling was
    // enabled): the four phases partition each worker's loop, so their
    // sum must reconcile with the measured loop time, and no worker
    // can have looped longer than the whole scheduler ran.
    if let Some(phases) = report.phases.as_ref() {
        for w in &phases.workers {
            let sum = w.phase_sum_ns();
            let tolerance = (w.loop_ns / 10).max(2_000_000);
            if sum.abs_diff(w.loop_ns) > tolerance {
                fail(
                    &mut v,
                    "pdes-phase-reconcile",
                    format!(
                        "worker {}: phases sum to {} ns but the loop took {} ns (tolerance {} ns)",
                        w.worker, sum, w.loop_ns, tolerance
                    ),
                );
            }
            if w.loop_ns > phases.wall_ns + tolerance {
                fail(
                    &mut v,
                    "pdes-phase-wall-bound",
                    format!(
                        "worker {}: loop {} ns exceeds scheduler wall time {} ns",
                        w.worker, w.loop_ns, phases.wall_ns
                    ),
                );
            }
        }
        if phases.epochs != pdes.epochs {
            fail(
                &mut v,
                "pdes-phase-epochs",
                format!(
                    "profile counted {} epochs but the summary has {}",
                    phases.epochs, pdes.epochs
                ),
            );
        }
        // Shard-merge-map validity: the adaptive merge planner must
        // have produced a total map — one owning worker per shard,
        // every owner inside the group pool, and no empty group (an
        // empty group would mean a worker spinning on the gate for the
        // whole run, contributing nothing but synchronization cost).
        if phases.merge_groups == 0 {
            fail(
                &mut v,
                "pdes-merge-map",
                "profile records zero merge groups".to_string(),
            );
        } else {
            if phases.shard_owners.len() as u64 != pdes.shards {
                fail(
                    &mut v,
                    "pdes-merge-map",
                    format!(
                        "merge map covers {} shards but the machine has {}",
                        phases.shard_owners.len(),
                        pdes.shards
                    ),
                );
            }
            let groups = phases.merge_groups;
            let mut seen = vec![false; groups as usize];
            for (shard, &owner) in phases.shard_owners.iter().enumerate() {
                if (owner as u64) < groups {
                    seen[owner as usize] = true;
                } else {
                    fail(
                        &mut v,
                        "pdes-merge-map",
                        format!("shard {shard} assigned to worker {owner} outside {groups} groups"),
                    );
                }
            }
            if let Some(empty) = seen.iter().position(|&s| !s) {
                fail(
                    &mut v,
                    "pdes-merge-map",
                    format!("merge group {empty} owns no shards"),
                );
            }
        }
    }

    // -- Trace checks ------------------------------------------------
    let Some(log) = report.trace.as_ref() else {
        return v;
    };
    let mut last = Time::ZERO;
    for (i, ev) in log.events.iter().enumerate() {
        if ev.at < last {
            fail(
                &mut v,
                "monotone-time",
                format!("trace event {i} at {} after one at {last}", ev.at),
            );
            break;
        }
        last = ev.at;
    }
    if let Some(ev) = log.events.last() {
        if ev.at > span {
            fail(
                &mut v,
                "monotone-time",
                format!("trace event at {} beyond makespan {span}", ev.at),
            );
        }
    }
    if !log.is_lossless() {
        // A ring that evicted events cannot be reconciled against the
        // counters; the remaining checks need the full stream.
        return v;
    }

    // Per-(nodelet, kind) event counts, reconciled field by field.
    let n = report.nodelets.len();
    let mut counts = vec![[0u64; TraceKind::ALL.len()]; n];
    for ev in &log.events {
        let nl = ev.nodelet.idx();
        if nl >= n {
            fail(
                &mut v,
                "trace-counter-reconciliation",
                format!("trace event on nodelet {nl} outside machine of {n}"),
            );
            return v;
        }
        counts[nl][ev.kind as usize] += 1;
    }
    let quits: u64 = counts.iter().map(|c| c[TraceKind::Quit as usize]).sum();
    if quits != report.threads {
        fail(
            &mut v,
            "threadlet-conservation",
            format!(
                "{} threadlets ran but {quits} quit events traced",
                report.threads
            ),
        );
    }
    for (i, c) in report.nodelets.iter().enumerate() {
        let expected: [(TraceKind, u64); 13] = [
            (TraceKind::Spawn, c.spawns),
            (TraceKind::MigrateOut, c.migrations_out),
            (TraceKind::MigrateIn, c.migrations_in),
            (TraceKind::LocalLoad, c.local_loads),
            (TraceKind::LocalStore, c.local_stores),
            (TraceKind::Atomic, c.atomics),
            (TraceKind::RemotePacket, c.remote_packets_in),
            (TraceKind::SlotWait, c.slot_waits),
            (TraceKind::MigNack, c.mig_nacks),
            (TraceKind::MigRetry, c.mig_retries),
            (TraceKind::EccRetry, c.ecc_retries),
            (TraceKind::LinkRetransmit, c.link_retransmits),
            (TraceKind::Redirect, c.redirects),
        ];
        for (kind, counter) in expected {
            let traced = counts[i][kind as usize];
            if traced != counter {
                fail(
                    &mut v,
                    "trace-counter-reconciliation",
                    format!(
                        "nodelet {i} {}: {traced} traced vs counter {counter}",
                        kind.name()
                    ),
                );
            }
        }
    }
    v
}

/// Audit and panic with a readable listing on any violation — the
/// one-liner for tests.
///
/// # Panics
/// Panics if [`audit`] reports at least one violation.
pub fn assert_consistent(cfg: &MachineConfig, report: &RunReport) {
    let violations = audit(cfg, report);
    assert!(
        violations.is_empty(),
        "run report violates {} invariant(s):\n{}",
        violations.len(),
        violations
            .iter()
            .map(|v| format!("  - {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{GlobalAddr, NodeletId};
    use crate::engine::Engine;
    use crate::kernel::{Op, ScriptKernel};
    use crate::presets;

    /// A small faulted run touching every counter class: local loads,
    /// remote loads (migrations), stores, atomics, NACKs and ECC retries.
    fn traced_run() -> (MachineConfig, RunReport) {
        let mut cfg = presets::chick_prototype();
        cfg.faults.mig_nack_prob = 0.3;
        cfg.faults.ecc_prob = 0.2;
        cfg.faults.mig_retry_budget = 64;
        let mut engine = Engine::new(cfg.clone()).unwrap();
        engine.enable_trace(1 << 16);
        for t in 0..6u32 {
            let here = NodeletId(t % 4);
            let there = NodeletId((t + 3) % 8);
            engine
                .spawn_at(
                    here,
                    Box::new(ScriptKernel::new(vec![
                        Op::Load {
                            addr: GlobalAddr::new(here, 0x10),
                            bytes: 8,
                        },
                        Op::Load {
                            addr: GlobalAddr::new(there, 0x20),
                            bytes: 16,
                        },
                        Op::Store {
                            addr: GlobalAddr::new(here, 0x30),
                            bytes: 8,
                        },
                        Op::AtomicAdd {
                            addr: GlobalAddr::new(there, 0x40),
                            bytes: 8,
                        },
                        Op::Compute { cycles: 12 },
                    ])),
                )
                .unwrap();
        }
        let report = engine.run().unwrap();
        assert!(report.trace.as_ref().unwrap().is_lossless());
        (cfg, report)
    }

    #[test]
    fn clean_run_audits_clean() {
        let (cfg, report) = traced_run();
        assert!(report.total_migrations() > 0, "workload must migrate");
        assert_consistent(&cfg, &report);
    }

    #[test]
    fn seeded_counter_bug_is_caught() {
        // Simulate an engine that forgets to count a class of loads —
        // the mutation-check required of the invariant checker.
        let (cfg, mut report) = traced_run();
        report.nodelets[0].local_loads += 1;
        let v = audit(&cfg, &report);
        assert!(
            v.iter()
                .any(|v| v.invariant == "trace-counter-reconciliation"),
            "got {v:?}"
        );
    }

    #[test]
    fn seeded_lost_quit_is_caught() {
        let (cfg, mut report) = traced_run();
        // A threadlet that never quit (leaked context).
        report.threads += 1;
        let v = audit(&cfg, &report);
        assert!(
            v.iter().any(|v| v.invariant == "threadlet-conservation"),
            "got {v:?}"
        );
    }

    #[test]
    fn seeded_migration_imbalance_is_caught() {
        let (cfg, mut report) = traced_run();
        report.nodelets[1].migrations_in += 2;
        let v = audit(&cfg, &report);
        assert!(
            v.iter().any(|v| v.invariant == "migration-conservation"),
            "got {v:?}"
        );
    }

    #[test]
    fn seeded_time_travel_is_caught() {
        let (cfg, mut report) = traced_run();
        let log = report.trace.as_mut().unwrap();
        assert!(log.events.len() > 2);
        log.events.swap(0, 1);
        // Make the swap observable: ensure the two differ in time.
        if log.events[0].at == log.events[1].at {
            log.events[0].at = log.events[1].at + Time::from_ns(1);
        }
        let v = audit(&cfg, &report);
        assert!(
            v.iter().any(|v| v.invariant == "monotone-time"),
            "got {v:?}"
        );
    }

    #[test]
    fn seeded_phantom_fault_is_caught() {
        // ECC retries reported under a plan that never injects them.
        let (cfg, report) = traced_run();
        let mut clean_cfg = cfg.clone();
        clean_cfg.faults.ecc_prob = 0.0;
        assert!(report.total_ecc_retries() > 0, "need ECC activity");
        let v = audit(&clean_cfg, &report);
        assert!(
            v.iter().any(|v| v.invariant == "fault-consistency"),
            "got {v:?}"
        );
    }

    #[test]
    fn seeded_overfull_occupancy_is_caught() {
        let (cfg, mut report) = traced_run();
        report.occupancy[0].channel_busy = report.makespan + Time::from_ns(1);
        let v = audit(&cfg, &report);
        assert!(
            v.iter().any(|v| v.invariant == "queue-residency"),
            "got {v:?}"
        );
    }

    #[test]
    fn seeded_mailbox_leak_is_caught() {
        // A cross-shard event that was posted but never delivered.
        let (cfg, mut report) = traced_run();
        report.pdes.mailbox_sent += 1;
        let v = audit(&cfg, &report);
        assert!(
            v.iter().any(|v| v.invariant == "pdes-mailbox-conservation"),
            "got {v:?}"
        );
    }

    #[test]
    fn seeded_lookahead_violation_is_caught() {
        // An event that crossed shards below the conservative horizon.
        let (cfg, mut report) = traced_run();
        assert!(report.pdes.epochs > 0, "workload must run in epoch mode");
        assert!(report.pdes.lookahead_ps > 0);
        report.pdes.min_cross_delay_ps = report.pdes.lookahead_ps - 1;
        let v = audit(&cfg, &report);
        assert!(
            v.iter().any(|v| v.invariant == "pdes-lookahead-horizon"),
            "got {v:?}"
        );
    }

    #[test]
    fn seeded_zero_lookahead_epochs_are_caught() {
        let (cfg, mut report) = traced_run();
        report.pdes.lookahead_ps = 0;
        report.pdes.min_cross_delay_ps = 0;
        assert!(report.pdes.epochs > 0);
        let v = audit(&cfg, &report);
        assert!(
            v.iter().any(|v| v.invariant == "pdes-epoch-mode"),
            "got {v:?}"
        );
    }

    #[test]
    fn seeded_mailbox_hwm_overflow_is_caught() {
        let (cfg, mut report) = traced_run();
        assert!(report.pdes.mailbox_delivered > 0, "need cross-shard mail");
        report.pdes.mailbox_depth_hwm = report.pdes.mailbox_delivered + 1;
        let v = audit(&cfg, &report);
        assert!(
            v.iter().any(|v| v.invariant == "pdes-mailbox-hwm-bound"),
            "got {v:?}"
        );
        // And zeroing the mark while deliveries exist is also a bug.
        report.pdes.mailbox_depth_hwm = 0;
        let v = audit(&cfg, &report);
        assert!(
            v.iter().any(|v| v.invariant == "pdes-mailbox-hwm-bound"),
            "got {v:?}"
        );
    }

    #[test]
    fn seeded_clean_window_overcount_is_caught() {
        // A scheduler bug that flags every window clean (skipping the
        // exchange) on a run that demonstrably posted cross-shard mail.
        let (cfg, mut report) = traced_run();
        assert!(report.pdes.epochs > 0, "workload must run in epoch mode");
        assert!(report.pdes.mailbox_sent > 0, "workload must cross shards");
        report.pdes.clean_windows = report.pdes.epochs;
        let v = audit(&cfg, &report);
        assert!(
            v.iter().any(|v| v.invariant == "pdes-clean-window-bound"),
            "got {v:?}"
        );
        // And more clean windows than windows is nonsense outright.
        report.pdes.clean_windows = report.pdes.epochs + 1;
        let v = audit(&cfg, &report);
        assert!(
            v.iter().any(|v| v.invariant == "pdes-clean-window-bound"),
            "got {v:?}"
        );
    }

    #[test]
    fn seeded_phantom_dirty_windows_are_caught() {
        // The dual bug: a scheduler that marks windows dirty (forcing
        // ring drains) although nothing was ever posted — legal only if
        // the mailbox totals back it up.
        let (cfg, mut report) = traced_run();
        assert!(report.pdes.epochs > 1);
        report.pdes.mailbox_sent = 0;
        report.pdes.mailbox_delivered = 0;
        report.pdes.mailbox_depth_hwm = 0;
        report.pdes.min_cross_delay_ps = u64::MAX;
        report.pdes.clean_windows = report.pdes.epochs - 1;
        let v = audit(&cfg, &report);
        assert!(
            v.iter().any(|v| v.invariant == "pdes-clean-window-bound"),
            "got {v:?}"
        );
    }

    /// Like [`traced_run`] but with wall-clock phase profiling on, so
    /// the report carries a [`crate::metrics::PdesPhaseProfile`].
    fn profiled_run() -> (MachineConfig, RunReport) {
        let cfg = presets::chick_prototype();
        let mut engine = Engine::new(cfg.clone()).unwrap();
        engine.enable_phase_profile(true);
        for t in 0..4u32 {
            let here = NodeletId(t % 4);
            let there = NodeletId((t + 3) % 8);
            engine
                .spawn_at(
                    here,
                    Box::new(ScriptKernel::new(vec![
                        Op::Load {
                            addr: GlobalAddr::new(there, 0x20),
                            bytes: 16,
                        },
                        Op::Store {
                            addr: GlobalAddr::new(here, 0x30),
                            bytes: 8,
                        },
                    ])),
                )
                .unwrap();
        }
        let report = engine.run().unwrap();
        (cfg, report)
    }

    #[test]
    fn profiled_run_reconciles_clean() {
        let (cfg, report) = profiled_run();
        let phases = report.phases.as_ref().expect("profiling was enabled");
        assert!(!phases.workers.is_empty(), "epoch path must profile");
        assert_eq!(phases.epochs, report.pdes.epochs);
        let v = audit(&cfg, &report);
        assert!(v.is_empty(), "clean profiled run must audit clean: {v:?}");
    }

    #[test]
    fn seeded_phase_imbalance_is_caught() {
        // Corrupt one phase by more than the reconciliation tolerance:
        // the phases no longer sum to the measured loop time.
        let (cfg, mut report) = profiled_run();
        let phases = report.phases.as_mut().unwrap();
        let w = &mut phases.workers[0];
        w.drain_ns += w.loop_ns + 1_000_000_000;
        let v = audit(&cfg, &report);
        assert!(
            v.iter().any(|v| v.invariant == "pdes-phase-reconcile"),
            "got {v:?}"
        );
    }

    #[test]
    fn seeded_phase_epoch_mismatch_is_caught() {
        let (cfg, mut report) = profiled_run();
        report.phases.as_mut().unwrap().epochs += 1;
        let v = audit(&cfg, &report);
        assert!(
            v.iter().any(|v| v.invariant == "pdes-phase-epochs"),
            "got {v:?}"
        );
    }

    #[test]
    fn seeded_phase_wall_overrun_is_caught() {
        // A worker claiming to have looped far longer than the whole
        // scheduler ran is measuring nonsense.
        let (cfg, mut report) = profiled_run();
        let phases = report.phases.as_mut().unwrap();
        let wall = phases.wall_ns;
        let w = &mut phases.workers[0];
        w.loop_ns = wall + 10_000_000_000;
        // Keep the phase sum consistent so only the wall bound trips.
        w.drain_ns = w.loop_ns;
        w.barrier_ns = 0;
        w.exchange_ns = 0;
        w.merge_ns = 0;
        let v = audit(&cfg, &report);
        assert!(
            v.iter().any(|v| v.invariant == "pdes-phase-wall-bound"),
            "got {v:?}"
        );
    }

    #[test]
    fn seeded_partial_merge_map_is_caught() {
        // A merge planner that drops a shard from the map.
        let (cfg, mut report) = profiled_run();
        let phases = report.phases.as_mut().unwrap();
        assert!(!phases.shard_owners.is_empty());
        phases.shard_owners.pop();
        let v = audit(&cfg, &report);
        assert!(
            v.iter().any(|v| v.invariant == "pdes-merge-map"),
            "got {v:?}"
        );
    }

    #[test]
    fn seeded_out_of_pool_owner_is_caught() {
        // A shard assigned to a worker id beyond the group pool.
        let (cfg, mut report) = profiled_run();
        let phases = report.phases.as_mut().unwrap();
        let groups = phases.merge_groups as u32;
        phases.shard_owners[0] = groups;
        let v = audit(&cfg, &report);
        assert!(
            v.iter().any(|v| v.invariant == "pdes-merge-map"),
            "got {v:?}"
        );
    }

    #[test]
    fn seeded_empty_merge_group_is_caught() {
        // A group pool wider than the set of workers that actually own
        // shards: the extra worker would spin on the gate all run.
        let (cfg, mut report) = profiled_run();
        let phases = report.phases.as_mut().unwrap();
        phases.merge_groups += 1;
        let v = audit(&cfg, &report);
        assert!(
            v.iter().any(|v| v.invariant == "pdes-merge-map"),
            "got {v:?}"
        );
        // And zero groups with a profile attached is never valid.
        report.phases.as_mut().unwrap().merge_groups = 0;
        let v = audit(&cfg, &report);
        assert!(
            v.iter().any(|v| v.invariant == "pdes-merge-map"),
            "got {v:?}"
        );
    }

    #[test]
    fn lossy_trace_skips_reconciliation_but_keeps_counter_checks() {
        let mut cfg = presets::chick_prototype();
        cfg.faults.mig_nack_prob = 0.2;
        cfg.faults.mig_retry_budget = 64;
        let mut engine = Engine::new(cfg.clone()).unwrap();
        engine.enable_trace(4); // tiny ring: guaranteed eviction
        engine
            .spawn_at(
                NodeletId(0),
                Box::new(ScriptKernel::new(
                    (0..16)
                        .map(|i| Op::Load {
                            addr: GlobalAddr::new(NodeletId(i % 8), 0x8),
                            bytes: 8,
                        })
                        .collect(),
                )),
            )
            .unwrap();
        let report = engine.run().unwrap();
        assert!(!report.trace.as_ref().unwrap().is_lossless());
        assert_consistent(&cfg, &report);
    }
}
