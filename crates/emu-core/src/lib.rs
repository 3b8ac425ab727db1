//! # emu-core — a discrete-event model of the Emu Chick
//!
//! The Emu architecture (Dysart et al., IA³ 2016; characterized by Hein
//! et al. 2018, the paper this workspace reproduces) inverts the usual
//! relationship between threads and memory: instead of caching remote
//! data, a lightweight *Gossamer threadlet* (<200 B of context) **migrates
//! to the nodelet that owns the data** on every remote read. Nodelets
//! pair cache-less multithreaded cores with narrow (8-bit) DRAM channels,
//! so fine-grained accesses never over-fetch.
//!
//! This crate models that machine faithfully enough to reproduce the
//! paper's bandwidth characterization:
//!
//! * [`addr`] / [`alloc`] — the partitioned global address space and the
//!   `mw_localmalloc` / `mw_malloc1dlong` / two-stage-2D / replicated
//!   allocation strategies;
//! * [`kernel`] — the threadlet op model (local loads, migrating remote
//!   loads, posted remote stores, memory-side atomics, spawns);
//! * [`engine`] — the deterministic discrete-event machine: Gossamer
//!   issue, hardware thread slots, NCDRAM channels, migration engines,
//!   RapidIO links;
//! * [`spawn`] — the paper's four spawn-tree strategies;
//! * [`config`] / [`presets`] — the Chick prototype, the Emu toolchain
//!   simulator's idealized machine, and full-speed projections;
//! * [`fault`] — deterministic fault injection (dead/slow nodelets,
//!   migration NACKs, ECC retries, link drops) and the [`fault::SimError`]
//!   type every engine failure surfaces as — the Chick the paper measured
//!   was itself a degraded machine (Fig 10);
//! * [`metrics`] — the per-nodelet counters and bandwidth reductions the
//!   paper reports;
//! * [`obs`] — an always-on process-global metrics registry (counters,
//!   gauges, log-bucketed latency histograms) feeding the `simd`
//!   daemon's live `metrics` op, the Prometheus `/metrics` exporter,
//!   and `simctl top`;
//! * [`trace`] — optional structured event tracing (spawns, migrations,
//!   NACKs, stalls with nodelet/thread/timestamp), zero-cost when off,
//!   and the caller-owned [`trace::RunScope`] every run consults for its
//!   report sink, telemetry, phase profiling, and worker override;
//! * [`json`] — dependency-free JSON serializers for [`metrics::RunReport`]
//!   (report JSON, JSONL event logs, Chrome traces) plus a minimal
//!   syntax validator, shared by the bench harness and the `simd`
//!   daemon;
//! * [`jsonread`] — the workspace's one strict JSON reader (duplicate
//!   keys, lone surrogates, and non-finite numbers rejected), behind
//!   both [`json::json_ok`] and the `simd` protocol parser;
//! * [`audit`] — post-run invariant checking (threadlet/migration
//!   conservation, trace/counter reconciliation, occupancy bounds),
//!   the referee behind the `simctl fuzz` conformance fuzzer.
//!
//! ## Quick example
//!
//! ```
//! use emu_core::prelude::*;
//!
//! # fn main() -> Result<(), SimError> {
//! // One threadlet on nodelet 0 reads a word owned by nodelet 3:
//! // the *thread* moves, not the data.
//! let mut engine = Engine::new(presets::chick_prototype())?;
//! let addr = GlobalAddr::new(NodeletId(3), 0x40);
//! engine.spawn_at(
//!     NodeletId(0),
//!     Box::new(ScriptKernel::new(vec![Op::Load { addr, bytes: 8 }])),
//! )?;
//! let report = engine.run()?;
//! assert_eq!(report.total_migrations(), 1);
//! assert_eq!(report.nodelets[3].local_loads, 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod addr;
pub mod alloc;
pub mod audit;
pub mod config;
pub mod engine;
pub mod fault;
pub mod json;
pub mod jsonread;
pub mod kernel;
pub mod metrics;
pub mod obs;
pub mod presets;
pub mod spawn;
pub mod trace;

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::addr::{GlobalAddr, NodeletId};
    pub use crate::alloc::{ArrayHandle, Layout, MemSpace};
    pub use crate::audit::{assert_consistent, audit, Violation};
    pub use crate::config::{CostModel, MachineConfig};
    pub use crate::engine::Engine;
    pub use crate::fault::{FaultPlan, SimError};
    pub use crate::kernel::{Kernel, KernelCtx, Op, Placement, ScriptKernel, ThreadId};
    pub use crate::metrics::{FaultTotals, NodeletCounters, PdesSummary, RunReport};
    pub use crate::presets;
    pub use crate::spawn::{root_kernel, SpawnStrategy, WorkerFactory};
    pub use crate::trace::{TelemetryConfig, TraceEvent, TraceKind, TraceLog};
}
