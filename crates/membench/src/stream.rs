//! STREAM (McCalpin) ported to both platforms, as in Section III-E.
//!
//! The paper's headline kernel is ADD (`c[i] = a[i] + b[i]` over 8-byte
//! elements, 24 B of traffic per element); COPY/SCALE/TRIAD are provided
//! as extensions. On the Emu the three arrays are striped across
//! nodelets and worker `w` of `W` touches indices `w, w+W, …` — when `W`
//! is a multiple of the nodelet count every index a worker touches lives
//! on one nodelet, so a *remotely spawned* worker never migrates in
//! steady state. Workers created by the non-remote strategies keep their
//! stacks (Cilk frames) on the spawning nodelet and periodically touch
//! them, migrating back and forth — the Fig 5 effect.

use desim::stats::Bandwidth;
use emu_core::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which STREAM kernel to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamKernel {
    /// `c[i] = a[i] + b[i]` — the paper's kernel (24 B/element).
    Add,
    /// `c[i] = a[i]` (16 B/element).
    Copy,
    /// `c[i] = s * a[i]` (16 B/element).
    Scale,
    /// `c[i] = a[i] + s * b[i]` (24 B/element).
    Triad,
}

impl StreamKernel {
    /// Loads per element.
    pub fn loads(self) -> u32 {
        match self {
            StreamKernel::Add | StreamKernel::Triad => 2,
            StreamKernel::Copy | StreamKernel::Scale => 1,
        }
    }

    /// Semantic bytes of traffic per element (8 B words).
    pub fn bytes_per_elem(self) -> u64 {
        (self.loads() as u64 + 1) * 8
    }

    /// Arithmetic cycles charged per element (loop control + adds; the
    /// Gossamer soft core spends several cycles per compiled iteration).
    pub fn compute_cycles(self) -> u32 {
        match self {
            StreamKernel::Copy => 9,
            StreamKernel::Scale => 10,
            StreamKernel::Add => 9,
            StreamKernel::Triad => 11,
        }
    }

    /// Benchmark name as printed in figures.
    pub fn name(self) -> &'static str {
        match self {
            StreamKernel::Add => "ADD",
            StreamKernel::Copy => "COPY",
            StreamKernel::Scale => "SCALE",
            StreamKernel::Triad => "TRIAD",
        }
    }
}

/// Configuration of one Emu STREAM run.
#[derive(Clone, Debug)]
pub struct EmuStreamConfig {
    /// Total elements across the whole machine.
    pub total_elems: u64,
    /// Worker threadlets.
    pub nthreads: usize,
    /// Spawn-tree strategy (Figs 4–5 sweep this).
    pub strategy: SpawnStrategy,
    /// Kernel variant.
    pub kernel: StreamKernel,
    /// Restrict data and workers to a single nodelet (Fig 4) instead of
    /// striping across all nodelets (Fig 5).
    pub single_nodelet: bool,
    /// Every `stack_touch_period` elements a worker touches its Cilk
    /// frame on its spawn-home nodelet (0 disables). Models the frame
    /// bookkeeping that penalizes non-remote spawn strategies.
    pub stack_touch_period: u32,
}

impl Default for EmuStreamConfig {
    fn default() -> Self {
        EmuStreamConfig {
            total_elems: 1 << 20,
            nthreads: 512,
            strategy: SpawnStrategy::RecursiveRemote,
            kernel: StreamKernel::Add,
            single_nodelet: false,
            stack_touch_period: 4,
        }
    }
}

/// Result of one STREAM run.
#[derive(Debug, Clone)]
pub struct StreamResult {
    /// Semantic bytes moved (elements x bytes/element).
    pub semantic_bytes: u64,
    /// Achieved bandwidth (semantic bytes / makespan).
    pub bandwidth: Bandwidth,
    /// Full machine report.
    pub report: RunReport,
    /// Functional checksum (must equal [`stream_checksum`]).
    pub checksum: u64,
}

/// The expected checksum for `n` elements: workers compute
/// `sum over i of (a[i] + b[i])` with `a[i] = i`, `b[i] = 2i`.
pub fn stream_checksum(n: u64, kernel: StreamKernel) -> u64 {
    let sum_i = |n: u64| n.wrapping_mul(n.wrapping_sub(1)) / 2;
    match kernel {
        StreamKernel::Add => 3u64.wrapping_mul(sum_i(n)),
        StreamKernel::Copy => sum_i(n),
        StreamKernel::Scale => 2u64.wrapping_mul(sum_i(n)),
        StreamKernel::Triad => 5u64.wrapping_mul(sum_i(n)),
    }
}

/// The worker threadlet: strided walk over the striped arrays.
struct StreamWorker {
    a: ArrayHandle,
    b: ArrayHandle,
    c: ArrayHandle,
    i: u64,
    step: u64,
    n: u64,
    kernel: StreamKernel,
    stack_touch_period: u32,
    /// Micro-state within the per-element op sequence.
    phase: u8,
    elems_done: u32,
    acc: u64,
    total: Arc<AtomicU64>,
    done: bool,
}

impl Kernel for StreamWorker {
    fn step(&mut self, ctx: &KernelCtx) -> Op {
        loop {
            if self.i >= self.n {
                if !self.done {
                    self.done = true;
                    self.total.fetch_add(self.acc, Ordering::Relaxed);
                }
                return Op::Quit;
            }
            let i = self.i;
            match self.phase {
                0 => {
                    // Periodic Cilk-frame touch on the spawn-home nodelet.
                    self.phase = 1;
                    if self.stack_touch_period > 0
                        && self.elems_done.is_multiple_of(self.stack_touch_period)
                    {
                        return Op::Load {
                            addr: GlobalAddr::new(ctx.home, 0x10),
                            bytes: 8,
                        };
                    }
                }
                1 => {
                    self.phase = 2;
                    self.acc = self.acc.wrapping_add(match self.kernel {
                        StreamKernel::Add | StreamKernel::Triad => i.wrapping_mul(3),
                        StreamKernel::Copy => i,
                        StreamKernel::Scale => i,
                    });
                    return Op::Load {
                        addr: self.a.addr(i, ctx.here),
                        bytes: 8,
                    };
                }
                2 => {
                    self.phase = 3;
                    if self.kernel.loads() == 2 {
                        return Op::Load {
                            addr: self.b.addr(i, ctx.here),
                            bytes: 8,
                        };
                    }
                }
                3 => {
                    self.phase = 4;
                    // Triad/Scale multiply by a scalar: fold it into the
                    // functional checksum.
                    if matches!(self.kernel, StreamKernel::Scale) {
                        self.acc = self.acc.wrapping_add(i);
                    }
                    if matches!(self.kernel, StreamKernel::Triad) {
                        self.acc = self.acc.wrapping_add(i.wrapping_mul(2));
                    }
                    return Op::Compute {
                        cycles: self.kernel.compute_cycles(),
                    };
                }
                4 => {
                    self.phase = 0;
                    self.elems_done += 1;
                    self.i += self.step;
                    return Op::Store {
                        addr: self.c.addr(i, ctx.here),
                        bytes: 8,
                    };
                }
                _ => unreachable!("phase"),
            }
        }
    }
}

/// Run STREAM on the Emu machine described by `cfg`.
pub fn run_stream_emu(cfg: &MachineConfig, sc: &EmuStreamConfig) -> Result<StreamResult, SimError> {
    let mut engine = Engine::new(cfg.clone())?;
    run_stream_on(&mut engine, sc)
}

/// Run STREAM on a caller-provided engine (which must be freshly built
/// or [`Engine::reset`]). This is the warm-reuse entry the `simd` daemon
/// uses: the engine's construction cost is paid once per worker while
/// per-request results stay byte-identical to [`run_stream_emu`], which
/// delegates here. Respects any event cap or cancellation flag armed on
/// the engine before the call.
pub fn run_stream_on(engine: &mut Engine, sc: &EmuStreamConfig) -> Result<StreamResult, SimError> {
    assert!(sc.nthreads > 0 && sc.total_elems > 0);
    let cfg = engine.cfg().clone();
    let nodelets = cfg.total_nodelets();
    let mut ms = MemSpace::new(nodelets);
    let (a, b, c) = if sc.single_nodelet {
        (
            ms.local(NodeletId(0), sc.total_elems, 8),
            ms.local(NodeletId(0), sc.total_elems, 8),
            ms.local(NodeletId(0), sc.total_elems, 8),
        )
    } else {
        (
            ms.striped(sc.total_elems, 8),
            ms.striped(sc.total_elems, 8),
            ms.striped(sc.total_elems, 8),
        )
    };
    let total = Arc::new(AtomicU64::new(0));
    let factory: WorkerFactory = {
        let (a, b, c) = (a.clone(), b.clone(), c.clone());
        let total = Arc::clone(&total);
        let sc2 = sc.clone();
        Arc::new(move |w| {
            Box::new(StreamWorker {
                a: a.clone(),
                b: b.clone(),
                c: c.clone(),
                i: w as u64,
                step: sc2.nthreads as u64,
                n: sc2.total_elems,
                kernel: sc2.kernel,
                stack_touch_period: sc2.stack_touch_period,
                phase: 0,
                elems_done: 0,
                acc: 0,
                total: Arc::clone(&total),
                done: false,
            })
        })
    };
    // The spawn fan-out spans all nodelets unless the run is pinned to one.
    let fanout = if sc.single_nodelet { 1 } else { nodelets };
    let root = emu_core::spawn::root_kernel(sc.strategy, sc.nthreads, fanout, factory);
    engine.spawn_at(NodeletId(0), root)?;
    let report = engine.run_once()?;
    let semantic_bytes = sc.total_elems * sc.kernel.bytes_per_elem();
    Ok(StreamResult {
        semantic_bytes,
        bandwidth: report.bandwidth_for(semantic_bytes),
        checksum: total.load(Ordering::Relaxed),
        report,
    })
}

/// CPU-side STREAM (Section III-C: same Cilk code with x86 mallocs).
pub mod cpu {
    use super::StreamKernel;
    use desim::stats::Bandwidth;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use xeon_sim::prelude::*;

    /// Configuration of one CPU STREAM run.
    #[derive(Clone, Debug)]
    pub struct CpuStreamConfig {
        /// Total elements.
        pub total_elems: u64,
        /// Software threads (each takes a contiguous chunk).
        pub nthreads: usize,
        /// Kernel variant.
        pub kernel: StreamKernel,
        /// Use non-temporal stores for `c` (tuned STREAM does).
        pub nt_stores: bool,
    }

    impl Default for CpuStreamConfig {
        fn default() -> Self {
            CpuStreamConfig {
                total_elems: 1 << 22,
                nthreads: 16,
                kernel: StreamKernel::Add,
                nt_stores: true,
            }
        }
    }

    /// Result of a CPU STREAM run.
    #[derive(Debug, Clone)]
    pub struct CpuStreamResult {
        /// Semantic bytes (elements x bytes/element).
        pub semantic_bytes: u64,
        /// Achieved bandwidth.
        pub bandwidth: Bandwidth,
        /// Full platform report.
        pub report: CpuReport,
        /// Functional checksum (equals [`super::stream_checksum`]).
        pub checksum: u64,
    }

    // Array bases far apart so streams don't alias cache sets unfairly.
    const BASE_A: u64 = 0x1_0000_0000;
    const BASE_B: u64 = 0x2_0000_0000;
    const BASE_C: u64 = 0x3_0000_0000;

    struct Worker {
        i: u64,
        end: u64,
        kernel: StreamKernel,
        nt: bool,
        phase: u8,
        acc: u64,
        total: Arc<AtomicU64>,
        done: bool,
    }

    impl CpuKernel for Worker {
        fn step(&mut self, _ctx: &CpuCtx) -> CpuOp {
            loop {
                if self.i >= self.end {
                    if !self.done {
                        self.done = true;
                        self.total.fetch_add(self.acc, Ordering::Relaxed);
                    }
                    return CpuOp::Quit;
                }
                let i = self.i;
                match self.phase {
                    0 => {
                        self.phase = 1;
                        self.acc = self.acc.wrapping_add(match self.kernel {
                            StreamKernel::Add => i.wrapping_mul(3),
                            StreamKernel::Copy => i,
                            StreamKernel::Scale => i.wrapping_mul(2),
                            StreamKernel::Triad => i.wrapping_mul(5),
                        });
                        return CpuOp::Load {
                            addr: BASE_A + i * 8,
                            bytes: 8,
                        };
                    }
                    1 => {
                        self.phase = 2;
                        if self.kernel.loads() == 2 {
                            return CpuOp::Load {
                                addr: BASE_B + i * 8,
                                bytes: 8,
                            };
                        }
                    }
                    2 => {
                        self.phase = 3;
                        return CpuOp::Compute { cycles: 1 };
                    }
                    3 => {
                        self.phase = 0;
                        self.i += 1;
                        let addr = BASE_C + i * 8;
                        return if self.nt {
                            CpuOp::StoreNt { addr, bytes: 8 }
                        } else {
                            CpuOp::Store { addr, bytes: 8 }
                        };
                    }
                    _ => unreachable!(),
                }
            }
        }
    }

    /// Run STREAM on the CPU platform `cfg`.
    pub fn run_stream_cpu(cfg: &CpuConfig, sc: &CpuStreamConfig) -> CpuStreamResult {
        assert!(sc.nthreads > 0 && sc.total_elems > 0);
        let total = Arc::new(AtomicU64::new(0));
        let mut engine = CpuEngine::new(cfg.clone());
        let chunk = sc.total_elems.div_ceil(sc.nthreads as u64);
        for t in 0..sc.nthreads as u64 {
            let start = t * chunk;
            let end = ((t + 1) * chunk).min(sc.total_elems);
            if start >= end {
                continue;
            }
            engine.add_thread(Box::new(Worker {
                i: start,
                end,
                kernel: sc.kernel,
                nt: sc.nt_stores,
                phase: 0,
                acc: 0,
                total: Arc::clone(&total),
                done: false,
            }));
        }
        let report = engine.run();
        let semantic_bytes = sc.total_elems * sc.kernel.bytes_per_elem();
        CpuStreamResult {
            semantic_bytes,
            bandwidth: report.bandwidth_for(semantic_bytes),
            checksum: total.load(Ordering::Relaxed),
            report,
        }
    }

    pub use super::stream_checksum as checksum;
}

#[cfg(test)]
mod tests {
    use super::*;
    use emu_core::presets;

    fn small(strategy: SpawnStrategy, single: bool, threads: usize) -> EmuStreamConfig {
        EmuStreamConfig {
            total_elems: 4096,
            nthreads: threads,
            strategy,
            single_nodelet: single,
            ..Default::default()
        }
    }

    #[test]
    fn checksum_verifies_every_strategy() {
        let cfg = presets::chick_prototype();
        for s in SpawnStrategy::ALL {
            let r = run_stream_emu(&cfg, &small(s, false, 32)).unwrap();
            assert_eq!(
                r.checksum,
                stream_checksum(4096, StreamKernel::Add),
                "{}",
                s.name()
            );
        }
    }

    #[test]
    fn single_nodelet_runs_only_on_nodelet_zero() {
        let cfg = presets::chick_prototype();
        let r = run_stream_emu(&cfg, &small(SpawnStrategy::Serial, true, 16)).unwrap();
        assert_eq!(r.checksum, stream_checksum(4096, StreamKernel::Add));
        // All memory traffic on nodelet 0.
        for (i, n) in r.report.nodelets.iter().enumerate().skip(1) {
            assert_eq!(n.bytes_total(), 0, "nodelet {i} touched");
        }
        assert_eq!(r.report.total_migrations(), 0);
    }

    #[test]
    fn striped_run_spreads_traffic() {
        let cfg = presets::chick_prototype();
        let r = run_stream_emu(&cfg, &small(SpawnStrategy::RecursiveRemote, false, 64)).unwrap();
        for (i, n) in r.report.nodelets.iter().enumerate() {
            assert!(n.bytes_total() > 0, "nodelet {i} idle");
        }
        // Remote-spawned workers with aligned strides never migrate after
        // arrival (stack touches are local).
        assert!(
            r.report.migrations_per_thread.mean() <= 1.1,
            "mean migrations {}",
            r.report.migrations_per_thread.mean()
        );
    }

    #[test]
    fn serial_spawn_on_striped_arrays_migrates_constantly() {
        let cfg = presets::chick_prototype();
        let r = run_stream_emu(&cfg, &small(SpawnStrategy::Serial, false, 64)).unwrap();
        // Workers live on nodelet 0 stacks: every stack touch drags them
        // back — orders of magnitude more migrations than remote spawn.
        assert!(
            r.report.total_migrations() > 1000,
            "migrations {}",
            r.report.total_migrations()
        );
    }

    #[test]
    fn more_threads_more_bandwidth_single_nodelet() {
        let cfg = presets::chick_prototype();
        let bw = |t: usize| {
            run_stream_emu(
                &cfg,
                &EmuStreamConfig {
                    total_elems: 1 << 14,
                    nthreads: t,
                    strategy: SpawnStrategy::Serial,
                    single_nodelet: true,
                    ..Default::default()
                },
            )
            .unwrap()
            .bandwidth
            .mb_per_sec()
        };
        let b1 = bw(1);
        let b16 = bw(16);
        assert!(b16 > 4.0 * b1, "1thr={b1} 16thr={b16}");
    }

    #[test]
    fn kernels_have_expected_traffic() {
        assert_eq!(StreamKernel::Add.bytes_per_elem(), 24);
        assert_eq!(StreamKernel::Copy.bytes_per_elem(), 16);
        assert_eq!(StreamKernel::Triad.bytes_per_elem(), 24);
    }

    mod cpu_tests {
        use super::super::cpu::*;
        use super::super::{stream_checksum, StreamKernel};
        use xeon_sim::config::sandy_bridge;

        #[test]
        fn cpu_checksum_verifies() {
            let r = run_stream_cpu(
                &sandy_bridge(),
                &CpuStreamConfig {
                    total_elems: 8192,
                    nthreads: 4,
                    kernel: StreamKernel::Add,
                    nt_stores: true,
                },
            );
            assert_eq!(r.checksum, stream_checksum(8192, StreamKernel::Add));
            r.report.audit().unwrap();
        }

        #[test]
        fn cpu_stream_is_fast_thanks_to_prefetch() {
            let mk = |enabled: bool| {
                let mut cfg = sandy_bridge();
                cfg.prefetch.enabled = enabled;
                let r = run_stream_cpu(
                    &cfg,
                    &CpuStreamConfig {
                        total_elems: 1 << 16,
                        nthreads: 8,
                        kernel: StreamKernel::Add,
                        nt_stores: true,
                    },
                );
                r.report.audit().unwrap();
                r.bandwidth.gb_per_sec()
            };
            let with = mk(true);
            let without = mk(false);
            assert!(
                with > 2.0 * without,
                "prefetch {with} GB/s vs none {without} GB/s"
            );
        }

        #[test]
        fn nt_stores_beat_rfo() {
            let mk = |nt: bool| {
                let r = run_stream_cpu(
                    &sandy_bridge(),
                    &CpuStreamConfig {
                        total_elems: 1 << 16,
                        nthreads: 8,
                        kernel: StreamKernel::Add,
                        nt_stores: nt,
                    },
                );
                r.report.audit().unwrap();
                r.bandwidth.gb_per_sec()
            };
            assert!(mk(true) > mk(false));
        }
    }
}
