//! The threadlet programming model.
//!
//! Benchmarks are expressed as [`Kernel`]s: resumable state machines that
//! the engine drives one operation at a time. A kernel both *computes the
//! real answer* (so results are verifiable — e.g. the SpMV kernels
//! produce the actual output vector) and *emits the timed operation
//! stream* that the machine model charges for.
//!
//! The operation vocabulary mirrors what the Emu ISA exposes to a
//! Gossamer threadlet:
//!
//! * local loads/stores through the nodelet's narrow memory channel;
//! * **remote loads, which migrate the thread** (the defining Emu
//!   mechanism — data never moves toward the thread);
//! * posted remote stores and memory-side atomics, which travel to the
//!   target nodelet as small packets *without* migrating the thread;
//! * spawns, local or remote (remote spawn creates the child directly at
//!   the target nodelet — Section IV-A shows this is essential for
//!   bandwidth);
//! * pure compute.

use crate::addr::{GlobalAddr, NodeletId};
use desim::time::Time;

/// Thread identifier within one engine run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ThreadId(pub u32);

impl ThreadId {
    /// Index into the engine's thread table.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Where a spawned threadlet begins execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// On the spawning thread's current nodelet (plain `cilk_spawn`).
    Here,
    /// On an explicit nodelet (a *remote spawn*): the child's context —
    /// and crucially its stack home — is created at the target.
    On(NodeletId),
}

/// One operation emitted by a kernel.
pub enum Op {
    /// Read `bytes` at `addr`. If `addr` is remote, the thread **migrates**
    /// to the owning nodelet and performs the read there.
    Load {
        /// Target address.
        addr: GlobalAddr,
        /// Access width in bytes.
        bytes: u32,
    },
    /// Write `bytes` at `addr`. Local stores are posted to the local
    /// channel; remote stores travel as fire-and-forget packets handled by
    /// the destination's memory-side processor (no migration).
    Store {
        /// Target address.
        addr: GlobalAddr,
        /// Access width in bytes.
        bytes: u32,
    },
    /// Memory-side atomic (e.g. remote add): like a store, but occupies
    /// the destination channel slightly longer. Never migrates.
    AtomicAdd {
        /// Target address.
        addr: GlobalAddr,
        /// Access width in bytes.
        bytes: u32,
    },
    /// Occupy the core for `cycles` of real work; the issuing thread is
    /// blocked for `cycles * compute_latency_factor` (see
    /// [`crate::config::CostModel`]).
    Compute {
        /// Core cycles of real work.
        cycles: u32,
    },
    /// Explicitly migrate to a nodelet without touching memory
    /// (used by the ping-pong microbenchmark).
    MigrateTo {
        /// Destination nodelet.
        nodelet: NodeletId,
    },
    /// Create a new threadlet running `kernel` at `place`.
    Spawn {
        /// The child's program.
        kernel: Box<dyn Kernel>,
        /// Where the child starts (and where its stack lives).
        place: Placement,
    },
    /// Terminate this threadlet, releasing its hardware context.
    Quit,
}

impl std::fmt::Debug for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Op::Load { addr, bytes } => write!(f, "Load({addr:?},{bytes}B)"),
            Op::Store { addr, bytes } => write!(f, "Store({addr:?},{bytes}B)"),
            Op::AtomicAdd { addr, bytes } => write!(f, "AtomicAdd({addr:?},{bytes}B)"),
            Op::Compute { cycles } => write!(f, "Compute({cycles}cyc)"),
            Op::MigrateTo { nodelet } => write!(f, "MigrateTo({nodelet:?})"),
            Op::Spawn { place, .. } => write!(f, "Spawn(@{place:?})"),
            Op::Quit => write!(f, "Quit"),
        }
    }
}

/// Execution context handed to a kernel at each step.
#[derive(Clone, Copy, Debug)]
pub struct KernelCtx {
    /// This thread's id.
    pub tid: ThreadId,
    /// The nodelet the thread currently occupies. Replicated data
    /// resolves against this.
    pub here: NodeletId,
    /// The nodelet the thread was spawned on. Its *stack* lives here; a
    /// kernel that models stack traffic (Cilk frame bookkeeping) reads
    /// from `home`, which drags serially-spawned threads back to the
    /// spawning nodelet — the mechanism behind Fig 5's remote-spawn gap.
    pub home: NodeletId,
    /// Current simulated time.
    pub now: Time,
}

/// A resumable threadlet program.
///
/// `step` is called exactly once per operation; the engine completes the
/// returned operation (including any migration it implies) before calling
/// `step` again, which models the stall-on-use, one-outstanding-op
/// behaviour of a Gossamer threadlet.
pub trait Kernel: Send {
    /// Produce the next operation. Must eventually return [`Op::Quit`].
    fn step(&mut self, ctx: &KernelCtx) -> Op;
}

/// Blanket impl so closures can serve as quick kernels in tests.
impl<F> Kernel for F
where
    F: FnMut(&KernelCtx) -> Op + Send,
{
    fn step(&mut self, ctx: &KernelCtx) -> Op {
        self(ctx)
    }
}

/// A kernel that performs a fixed list of operations, then quits.
/// Useful for tests and microbenchmarks.
pub struct ScriptKernel {
    ops: std::vec::IntoIter<Op>,
}

impl ScriptKernel {
    /// Wrap an explicit op list (a trailing `Quit` is appended implicitly).
    pub fn new(ops: Vec<Op>) -> Self {
        ScriptKernel {
            ops: ops.into_iter(),
        }
    }
}

impl Kernel for ScriptKernel {
    fn step(&mut self, _ctx: &KernelCtx) -> Op {
        self.ops.next().unwrap_or(Op::Quit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_kernel_replays_then_quits() {
        let mut k = ScriptKernel::new(vec![Op::Compute { cycles: 3 }]);
        let ctx = KernelCtx {
            tid: ThreadId(0),
            here: NodeletId(0),
            home: NodeletId(0),
            now: Time::ZERO,
        };
        assert!(matches!(k.step(&ctx), Op::Compute { cycles: 3 }));
        assert!(matches!(k.step(&ctx), Op::Quit));
        assert!(matches!(k.step(&ctx), Op::Quit));
    }

    #[test]
    fn closures_are_kernels() {
        let mut n = 0;
        let mut k = move |_ctx: &KernelCtx| {
            n += 1;
            if n > 2 {
                Op::Quit
            } else {
                Op::Compute { cycles: n }
            }
        };
        let ctx = KernelCtx {
            tid: ThreadId(1),
            here: NodeletId(2),
            home: NodeletId(2),
            now: Time::ZERO,
        };
        assert!(matches!(
            Kernel::step(&mut k, &ctx),
            Op::Compute { cycles: 1 }
        ));
        assert!(matches!(
            Kernel::step(&mut k, &ctx),
            Op::Compute { cycles: 2 }
        ));
        assert!(matches!(Kernel::step(&mut k, &ctx), Op::Quit));
    }

    #[test]
    fn op_debug_strings() {
        let a = GlobalAddr::new(NodeletId(1), 8);
        assert_eq!(
            format!("{:?}", Op::Load { addr: a, bytes: 8 }),
            "Load(nlet1+0x8,8B)"
        );
        assert_eq!(format!("{:?}", Op::Quit), "Quit");
    }
}
