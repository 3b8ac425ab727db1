//! The discrete-event engine that executes threadlet kernels on the
//! machine model.
//!
//! ## Execution model
//!
//! Each threadlet is driven through a sequence of operations (its
//! [`Kernel`]'s op stream). One event pop re-activates one threadlet (or
//! completes one in-flight transaction); the handler routes the operation
//! through the analytic resources of the owning nodelet:
//!
//! * **Gossamer cores** — a [`MultiServer`] per nodelet. Every op occupies
//!   the issue machinery for its issue cycles; the *issuing thread* is
//!   additionally blocked for the op's pipeline latency. The gap between
//!   aggregate issue throughput and single-thread latency is what makes
//!   bandwidth scale with thread count (Figs 4–5).
//! * **NCDRAM channel** — a [`FifoServer`] per nodelet with 8-byte burst
//!   granularity: fine-grained accesses never over-fetch, the core Emu
//!   advantage in the pointer-chasing comparison.
//! * **Migration engine** — a [`FifoServer`] per nodelet with a finite
//!   migration rate; **any remote load migrates the thread** through it.
//! * **Hardware thread slots** — at most `gcs × 64` threadlet contexts per
//!   nodelet; arrivals beyond that wait, which serializes naive
//!   single-nodelet spawn strategies.
//!
//! All state changes happen inside event handlers, so resources see
//! arrivals in nondecreasing time order and FIFO semantics hold.
//!
//! ## Intra-run parallelism
//!
//! The machine is sharded **one nodelet per shard**: every nodelet owns
//! its own calendar queue, servers, counters, and trace ring, and every
//! handler touches only its own shard's state. Events destined for
//! another nodelet are *sent* — buffered into a per-shard outbox and
//! delivered into the destination's queue at a deterministic exchange
//! point.
//!
//! Time advances with a conservative lookahead `L`
//! ([`Engine::lookahead`]): the minimum latency any cross-nodelet
//! interaction can incur (the smaller of the intra-node and inter-node
//! hop latencies). When `L > 0`, the run proceeds in *epochs*: each
//! window spans `[min next event, min next event + L)`, and within it
//! every shard drains its own queue independently — conservatism
//! guarantees no other shard can inject an event below the horizon.
//! A run-start planner places shards on workers (collapsing shards that
//! hold no work onto shared workers); each worker posts cross-shard
//! events on per-worker-pair SPSC rings ([`EdgeRings`]) and all workers
//! agree on the next window through one [`EpochGate`] crossing per
//! epoch. When `L == 0` (degenerate zero-hop configs) the engine falls
//! back to a merged scheduler that interleaves the shards sequentially.
//!
//! The worker count comes from [`Engine::set_sim_threads`], else the
//! running thread's [`RunScope`] override (so concurrent sweeps in one
//! process can differ), else the process default [`set_sim_threads`].
//!
//! Determinism does not depend on the worker count: every event carries
//! an intrinsic `(time, key)` pair — the key namespaces the sending
//! shard above its per-shard send sequence — so the merged event order,
//! every counter, and every trace byte are identical whether the run
//! used one worker or many. The [`PdesSummary`] on the report records
//! how the sharded scheduler ran.

use crate::addr::{GlobalAddr, NodeletId};
use crate::config::MachineConfig;
use crate::fault::{self, SimError};
use crate::kernel::{Kernel, KernelCtx, Op, Placement, ThreadId};
use crate::metrics::{
    NodeletCounters, NodeletOccupancy, PdesPhaseProfile, PdesSummary, PhaseBreakdown, RunReport,
};
use crate::trace::{self, RunScope, TraceEvent, TraceKind, TraceLog, TraceRecorder};
use desim::arena::{Arena, Idx as TRef};
use desim::pdes::{EdgeRings, EpochGate, GATE_DIRTY, GATE_ERROR};
use desim::queue::EventQueue;
use desim::server::{FifoServer, Grant, Link, MultiServer};
use desim::stats::{LogHistogram, Summary};
use desim::time::Time;
use desim::timeline::{Gauge, Timeline};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Process-wide default worker count for [`Engine::run`]; `0` means
/// "not yet resolved" (falls back to `EMU_SIM_THREADS`, then 1).
static SIM_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Set the process-wide default number of simulation workers used by
/// every subsequently-run engine that did not call
/// [`Engine::set_sim_threads`] and runs under no
/// [`RunScope::with_sim_threads`] override. Values are clamped to at
/// least 1.
pub fn set_sim_threads(n: usize) {
    SIM_THREADS.store(n.max(1), Ordering::Relaxed);
}

/// The process-wide default simulation worker count: the last value
/// passed to [`set_sim_threads`], else `EMU_SIM_THREADS` from the
/// environment, else 1 (fully sequential).
pub fn sim_threads() -> usize {
    let v = SIM_THREADS.load(Ordering::Relaxed);
    if v != 0 {
        return v;
    }
    let n = std::env::var("EMU_SIM_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1);
    SIM_THREADS.store(n, Ordering::Relaxed);
    n
}

/// Capacity, in messages, of each per-edge SPSC exchange ring. Overflow
/// spills to a chained segment, so any capacity is correct; this one
/// keeps spills rare on every paper workload.
const RING_CAPACITY: usize = 512;

/// Pending events a shard needs at run start to count as *loaded* for
/// the merge planner (see [`Engine::plan_groups`]).
const MERGE_MIN: u64 = 16;

/// Bit position of the shard namespace within an event key. Runtime keys
/// are `(shard + 1) << KEY_SHIFT | send_seq`; pre-run spawns use bare
/// sequence numbers (namespace 0), which sort before all runtime keys.
const KEY_SHIFT: u32 = 40;

/// Internal engine events. One pop = one state transition. Thread
/// contexts live in their shard's [`Arena`]; events carry only the
/// 8-byte generational handle, so the hot pop loop moves no boxes and
/// chases no per-event heap pointers.
enum Event {
    /// Thread context arrives at a nodelet (spawn or migration); it must
    /// acquire a hardware slot before issuing.
    Arrive(TRef),
    /// Thread holds a slot and may issue its next operation.
    Ready(TRef),
    /// A load issued earlier now reaches the memory channel.
    ChannelRead(TRef, u32),
    /// A (possibly remote) store/atomic packet reaches this nodelet's
    /// channel (the destination is the shard the event is scheduled on).
    ChannelWrite {
        bytes: u32,
        atomic: bool,
        from_remote: bool,
    },
    /// A departing context reaches its migration engine.
    MigrateOut(TRef),
    /// A cross-node migration leaves the migration engine toward the
    /// RapidIO fabric (drop/retransmit decisions happen here, on the
    /// source nodelet).
    LinkSend(TRef),
    /// A cross-node migration enters the node's RapidIO interface, which
    /// lives on the node's head nodelet.
    LinkTransit(TRef),
    /// A hardware slot frees on this nodelet (context departed or quit).
    SlotRelease,
}

/// The cross-shard wire format. Arena handles are meaningless outside
/// their shard, so a departing context is extracted from the source
/// arena, shipped by value, and re-inserted at the destination. Only
/// three event kinds ever cross shards: thread arrivals, link transits
/// toward a remote head nodelet, and posted store/atomic packets.
enum WireEv {
    /// A migrating (or remotely spawned) context arriving at `dest`.
    Arrive(Thread),
    /// A context entering a remote node's RapidIO interface.
    LinkTransit(Thread),
    /// A posted store/atomic packet (no thread context attached).
    ChannelWrite {
        bytes: u32,
        atomic: bool,
        from_remote: bool,
    },
}

struct Thread {
    tid: ThreadId,
    kernel: Option<Box<dyn Kernel>>,
    loc: NodeletId,
    home: NodeletId,
    dest: NodeletId,
    /// Operation to re-execute after a migration completes.
    resume: Option<Op>,
    in_flight_migration: bool,
    mig_issue_at: Time,
    migrations: u64,
    /// Consecutive NACKs of the currently outstanding migration.
    mig_attempts: u32,
    /// Consecutive drops of the currently outstanding link packet.
    link_attempts: u32,
    /// Remote-spawned context that has not yet reached its target; the
    /// spawn is counted (and traced) on arrival so it lands on the shard
    /// that owns the counter.
    newborn: bool,
    /// When the currently outstanding operation began.
    op_started: Time,
    /// What kind of delay the outstanding operation is charged to.
    op_kind: OpKind,
}

/// Where a threadlet's wall time goes — the paper's §III-D "other system
/// overheads" made measurable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpKind {
    None,
    Compute,
    Memory,
    Migration,
    StoreIssue,
    Spawn,
}

/// Aggregate threadlet time by activity, summed over all threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeBreakdown {
    /// Blocked on compute (including core queueing and pipeline latency).
    pub compute: Time,
    /// Blocked on local loads (issue, pipeline, channel queue, DRAM).
    pub memory: Time,
    /// Blocked migrating (issue, engine queue, hops, destination slot
    /// wait, and re-executing the interrupted read locally).
    pub migration: Time,
    /// Blocked posting stores/atomics (issue + pipeline only).
    pub store_issue: Time,
    /// Blocked executing spawn instructions.
    pub spawn: Time,
}

impl TimeBreakdown {
    /// Total accounted thread-time.
    pub fn total(&self) -> Time {
        self.compute + self.memory + self.migration + self.store_issue + self.spawn
    }

    /// Fraction of total thread-time in `part` (helper for reports).
    pub fn fraction(&self, part: Time) -> f64 {
        let t = self.total();
        if t == Time::ZERO {
            0.0
        } else {
            part.ps() as f64 / t.ps() as f64
        }
    }

    fn absorb(&mut self, other: &TimeBreakdown) {
        self.compute += other.compute;
        self.memory += other.memory;
        self.migration += other.migration;
        self.store_issue += other.store_issue;
        self.spawn += other.spawn;
    }
}

struct Nodelet {
    cores: MultiServer,
    channel: FifoServer,
    mig_engine: FifoServer,
    slots_free: u32,
    /// Hardware slots currently held by resident threadlets (the
    /// live-threadlet gauge samples this).
    in_use: u32,
    waiters: VecDeque<TRef>,
    counters: NodeletCounters,
}

/// Optional per-shard time series (enabled via [`Engine::enable_timeline`]).
struct ShardTl {
    core: Timeline,
    channel: Timeline,
    migration: Timeline,
    queue_depth: Gauge,
    live_threads: Gauge,
}

/// One cross-shard event in flight between epoch gate crossings.
struct OutMsg {
    dest: u32,
    at: Time,
    key: u64,
    /// Window the message was posted in, stamped by the scheduler at
    /// post time. The depth high-water mark batches deliveries by this
    /// field rather than by drain round: a fused drain may pick up mail
    /// another worker published moments after the crossing (harmless
    /// for results — the event lies beyond the open window and queues
    /// order by intrinsic key), so only the posting window is a
    /// deterministic batch identity.
    epoch: u64,
    ev: WireEv,
}

/// One nodelet's slice of the machine: its event queue, resources,
/// counters, statistics, and cross-shard outbox. Handlers may touch only
/// their own shard, which is what makes window execution race-free.
struct Shard {
    id: u32,
    q: EventQueue<Event>,
    /// Resident thread contexts, in one flat slab; queued events refer
    /// into it by generational handle.
    arena: Arena<Thread>,
    nl: Nodelet,
    /// The node's RapidIO link; present only on head nodelets
    /// (`id % nodelets_per_node == 0`), which own the node's interface.
    link: Option<Link>,
    mig_latency: LogHistogram,
    /// Lifetime migration counts, recorded as threadlets quit here.
    migs_per_thread: Summary,
    /// Alive-thread delta contributed by this shard (spawns here minus
    /// quits here); the machine-wide sum is the live population.
    live: i64,
    spawned: u64,
    next_tid: u32,
    /// Per-shard event sequence; every schedule (local or remote)
    /// consumes one, so within-shard order equals insertion order.
    send_seq: u64,
    events: u64,
    fault_draws: u64,
    /// Key of the event currently dispatching (error attribution).
    cur_key: u64,
    breakdown: TimeBreakdown,
    recorder: Option<TraceRecorder>,
    tl: Option<ShardTl>,
    outbox: Vec<OutMsg>,
    /// Cross-shard events sent / delivered (conservation-checked).
    sent: u64,
    delivered: u64,
    /// Per-batch delivery counts for the two most recent exchange
    /// batches, as `(mark, count)` slots. Two batches can be live at
    /// once: a drain may pick up the next window's early-published
    /// mail interleaved (per-edge) with the previous window's, so the
    /// count must key on the mark, not on delivery adjacency.
    mail_batch: [(u64, u64); 2],
    /// Most deliveries this shard absorbed in any single exchange
    /// batch — deterministic, so it lives in [`PdesSummary`].
    mail_hwm: u64,
    /// Smallest cross-shard scheduling delay this shard produced.
    min_cross_delay: Time,
    /// Simulated time of this shard's last dispatched event.
    now: Time,
    /// First fatal error raised by a handler, tagged with the `(time,
    /// key)` of the event that raised it so the globally-first error
    /// wins regardless of worker count.
    error: Option<(Time, u64, SimError)>,
}

impl Shard {
    /// Deliver one cross-shard message into this shard's queue,
    /// tracking the per-exchange-batch depth high-water mark. `mark`
    /// identifies the exchange batch — the posting window under the
    /// epoch schedulers, the dispatch count under the merged fallback.
    /// It must be a function of simulated content only (never of drain
    /// timing), or the high-water mark stops being deterministic.
    #[inline]
    fn absorb_mail(&mut self, mark: u64, m: OutMsg) {
        let slot = if self.mail_batch[0].0 == mark {
            0
        } else if self.mail_batch[1].0 == mark {
            1
        } else {
            // Evict the older batch: marks only move forward, so a
            // mark smaller than both live ones can never recur.
            let older = usize::from(self.mail_batch[0].0 > self.mail_batch[1].0);
            self.mail_batch[older] = (mark, 0);
            older
        };
        self.mail_batch[slot].1 += 1;
        if self.mail_batch[slot].1 > self.mail_hwm {
            self.mail_hwm = self.mail_batch[slot].1;
        }
        let ev = match m.ev {
            WireEv::Arrive(t) => Event::Arrive(self.arena.insert(t)),
            WireEv::LinkTransit(t) => Event::LinkTransit(self.arena.insert(t)),
            WireEv::ChannelWrite {
                bytes,
                atomic,
                from_remote,
            } => Event::ChannelWrite {
                bytes,
                atomic,
                from_remote,
            },
        };
        self.q.schedule_keyed(m.at, m.key, ev);
        self.delivered += 1;
    }
}

/// Wall-clock phase attribution for one epoch-loop worker. When
/// disarmed (`on == false`) every call is a predictable branch — the
/// un-profiled scheduler never reads the clock.
struct PhaseClock {
    on: bool,
    start: std::time::Instant,
    last: std::time::Instant,
    drain: u64,
    barrier: u64,
    exchange: u64,
    merge: u64,
}

/// Which phase the time since the previous mark belongs to.
#[derive(Clone, Copy)]
enum Phase {
    Drain,
    Barrier,
    Exchange,
    Merge,
}

impl PhaseClock {
    fn new(on: bool) -> Self {
        let now = std::time::Instant::now();
        PhaseClock {
            on,
            start: now,
            last: now,
            drain: 0,
            barrier: 0,
            exchange: 0,
            merge: 0,
        }
    }

    /// Attribute the time since the previous mark to `phase`.
    #[inline]
    fn mark(&mut self, phase: Phase) {
        if !self.on {
            return;
        }
        let now = std::time::Instant::now();
        let ns = now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        match phase {
            Phase::Drain => self.drain += ns,
            Phase::Barrier => self.barrier += ns,
            Phase::Exchange => self.exchange += ns,
            Phase::Merge => self.merge += ns,
        }
    }

    /// The finished breakdown; `loop_ns` spans first to last mark, so
    /// the four phases partition it exactly.
    fn into_breakdown(self, worker: u32) -> PhaseBreakdown {
        PhaseBreakdown {
            worker,
            drain_ns: self.drain,
            barrier_ns: self.barrier,
            exchange_ns: self.exchange,
            merge_ns: self.merge,
            loop_ns: self.last.duration_since(self.start).as_nanos() as u64,
        }
    }
}

/// What one scheduler run did, beyond the per-shard counters: the epoch
/// count plus the synchronization stats that feed [`PdesSummary`] and
/// [`PdesPhaseProfile`]. `epochs` and `clean` depend only on simulated
/// content, so every scheduler produces the same values for the same
/// workload; `crossings` describes how the run was executed.
#[derive(Default, Clone, Copy)]
struct SchedStats {
    /// Lookahead windows drained.
    epochs: u64,
    /// Windows after which no shard had posted cross-shard mail.
    clean: u64,
    /// Gate crossings the workers performed (0 when inline).
    crossings: u64,
}

/// A cooperative cancellation flag paired with the wall-clock deadline
/// (in milliseconds) it stands for — see [`Engine::set_cancel`].
type Cancel = (Arc<AtomicBool>, u64);

/// The Emu machine simulator. Construct, seed initial threadlets with
/// [`Engine::spawn_at`], then [`Engine::run`] to completion — or keep
/// the engine warm across runs with [`Engine::run_once`] +
/// [`Engine::reset`].
pub struct Engine {
    cfg: MachineConfig,
    shards: Vec<Shard>,
    /// Nearest-live-nodelet map for dead-nodelet redirection (identity
    /// when the fault plan marks nothing dead).
    redirect: Vec<u32>,
    /// Pre-run spawn sequence; bare keys in namespace 0 sort before all
    /// runtime keys, so initial arrivals pop first at time zero.
    init_seq: u64,
    /// Per-engine worker-count override (else the run scope's, else the
    /// process default).
    sim_threads: Option<usize>,
    /// Ring capacity for the merged trace (0 when tracing is off).
    trace_capacity: usize,
    /// Timeline bucket width, remembered so [`Engine::reset`] can re-arm
    /// the per-shard series ([`None`] when timelines are off).
    timeline_bucket: Option<Time>,
    /// Per-run event-cap override (takes precedence over the fault
    /// plan's `max_events`; [`None`] defers to the plan).
    event_cap: Option<u64>,
    /// Cooperative wall-clock cancellation flag for the current run.
    cancel: Option<Cancel>,
    /// Whether the epoch schedulers measure their wall-clock phase
    /// split (see [`Engine::enable_phase_profile`]).
    phase_profile: bool,
    /// Whether the run-start planner may collapse under-loaded shards
    /// onto shared workers (see [`Engine::enable_merge`]).
    merge: bool,
    /// Profile captured by the last run, consumed by the report.
    pending_phases: Option<PdesPhaseProfile>,
    /// Clean-window count of the last run, consumed by the report.
    pending_clean: u64,
}

/// Per-nodelet time series of one run (present when
/// [`Engine::enable_timeline`] was called).
#[derive(Debug, Clone)]
pub struct RunTimelines {
    /// Bucket width used.
    pub bucket: Time,
    /// Gossamer-core occupancy per nodelet.
    pub core: Vec<Timeline>,
    /// Memory-channel occupancy per nodelet.
    pub channel: Vec<Timeline>,
    /// Migration-engine occupancy per nodelet.
    pub migration: Vec<Timeline>,
    /// Slot-wait queue depth per nodelet (threads parked for a context).
    pub queue_depth: Vec<Gauge>,
    /// Resident (slot-holding) threadlets per nodelet.
    pub live_threads: Vec<Gauge>,
}

impl Engine {
    /// Build an engine over `cfg`.
    ///
    /// # Errors
    /// [`SimError::InvalidConfig`] if the configuration fails
    /// [`MachineConfig::validate`] or exceeds the sharded scheduler's
    /// nodelet limit; [`SimError::AllNodeletsDead`] if the fault plan
    /// leaves no live nodelet.
    pub fn new(cfg: MachineConfig) -> Result<Self, SimError> {
        cfg.validate().map_err(SimError::InvalidConfig)?;
        if cfg.total_nodelets() >= (1 << (64 - KEY_SHIFT as u64)) as u32 {
            return Err(SimError::InvalidConfig(format!(
                "total nodelets {} exceeds the sharded scheduler's limit of {}",
                cfg.total_nodelets(),
                (1u64 << (64 - KEY_SHIFT as u64)) - 1
            )));
        }
        let redirect = fault::redirect_map(&cfg.faults, cfg.total_nodelets())?;
        let shards = Self::build_shards(&cfg);
        let scope = RunScope::current();
        let mut engine = Engine {
            cfg,
            shards,
            redirect,
            init_seq: 0,
            sim_threads: None,
            trace_capacity: 0,
            timeline_bucket: None,
            event_cap: None,
            cancel: None,
            phase_profile: scope.phase_profile(),
            merge: true,
            pending_phases: None,
            pending_clean: 0,
        };
        // Benchmark runners build engines internally; the caller's run
        // scope lets the harness trace them without plumbing flags
        // through every runner.
        let telemetry = scope.telemetry();
        if telemetry.event_capacity > 0 {
            engine.enable_trace(telemetry.event_capacity);
        }
        if let Some(bucket) = telemetry.timeline_bucket {
            engine.enable_timeline(bucket)?;
        }
        Ok(engine)
    }

    /// Fresh per-nodelet shards for `cfg` — the zero state every run
    /// starts from, shared by [`Engine::new`] and [`Engine::reset`].
    fn build_shards(cfg: &MachineConfig) -> Vec<Shard> {
        let n = cfg.total_nodelets() as usize;
        // Pending events and live contexts on a shard are both bounded
        // by its slot population (plus in-flight posted stores), so
        // sizing off the per-nodelet slots keeps steady-state scheduling
        // away from reallocation; the cap keeps tiny runs cheap.
        let reserve = (cfg.slots_per_nodelet() as usize).min(4096);
        (0..n as u32)
            .map(|id| Shard {
                id,
                q: EventQueue::with_capacity(reserve),
                arena: Arena::with_capacity(reserve),
                nl: Nodelet {
                    cores: MultiServer::new(cfg.gcs_per_nodelet as usize),
                    channel: FifoServer::new(),
                    mig_engine: FifoServer::new(),
                    slots_free: cfg.slots_per_nodelet(),
                    in_use: 0,
                    waiters: VecDeque::new(),
                    counters: NodeletCounters::default(),
                },
                link: (id % cfg.nodelets_per_node == 0)
                    .then(|| Link::new(cfg.rapidio_bytes_per_sec, Time::ZERO)),
                mig_latency: LogHistogram::new(),
                migs_per_thread: Summary::new(),
                live: 0,
                spawned: 0,
                next_tid: 0,
                send_seq: 0,
                events: 0,
                fault_draws: 0,
                cur_key: 0,
                breakdown: TimeBreakdown::default(),
                recorder: None,
                tl: None,
                outbox: Vec::new(),
                sent: 0,
                delivered: 0,
                // Mark 0 never occurs (batch identifiers start at 1),
                // so zeroed slots are evictable empties.
                mail_batch: [(0, 0), (0, 0)],
                mail_hwm: 0,
                min_cross_delay: Time::MAX,
                now: Time::ZERO,
                error: None,
            })
            .collect()
    }

    /// The machine configuration this engine simulates.
    pub fn cfg(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Return the engine to its just-constructed state so it can run
    /// another workload: every shard is rebuilt from the configuration
    /// (fresh queues, servers, counters, statistics), the pre-run spawn
    /// sequence restarts at zero, and any per-run event cap or
    /// cancellation flag is cleared. Trace/timeline settings and the
    /// worker-count override survive. A reset engine is
    /// indistinguishable from a cold [`Engine::new`] of the same
    /// configuration — reports from warm reuse are byte-identical to
    /// cold runs (the `simd` warm pool's safety invariant).
    pub fn reset(&mut self) {
        self.shards = Self::build_shards(&self.cfg);
        self.init_seq = 0;
        self.event_cap = None;
        self.cancel = None;
        self.pending_phases = None;
        self.pending_clean = 0;
        let cap = self.trace_capacity;
        if cap > 0 {
            for s in &mut self.shards {
                s.recorder = Some(TraceRecorder::new(cap));
            }
        }
        if let Some(bucket) = self.timeline_bucket {
            self.enable_timeline(bucket)
                .expect("bucket was valid when first enabled");
        }
    }

    /// Cap the next run at `cap` dispatched events, overriding the fault
    /// plan's `max_events` watchdog. `Some(0)` and [`None`] both restore
    /// the plan's own setting (0 there means uncapped). The cap trips as
    /// [`SimError::EventCapExceeded`] — deterministic, unlike the
    /// wall-clock deadline of [`Engine::set_cancel`].
    pub fn set_event_cap(&mut self, cap: Option<u64>) {
        self.event_cap = cap.filter(|&n| n > 0);
    }

    /// Arm cooperative wall-clock cancellation: the schedulers poll
    /// `flag` every ~1k events and abort the run with
    /// [`SimError::DeadlineExceeded`] (reporting `deadline_ms`) once it
    /// reads `true`. The flag is typically set by an external timer
    /// thread; the engine itself never measures wall time, so runs that
    /// finish before the flag trips stay byte-identical to uncancelled
    /// runs. Cleared by [`Engine::reset`] or [`Engine::clear_cancel`].
    pub fn set_cancel(&mut self, flag: Arc<AtomicBool>, deadline_ms: u64) {
        self.cancel = Some((flag, deadline_ms));
    }

    /// Disarm [`Engine::set_cancel`]'s cancellation flag.
    pub fn clear_cancel(&mut self) {
        self.cancel = None;
    }

    /// Override the worker count for this engine's run (clamped to at
    /// least 1), independent of the run scope and the process default.
    /// Any count yields byte-identical results; counts above the shard
    /// count are truncated to one shard per worker.
    pub fn set_sim_threads(&mut self, n: usize) {
        self.sim_threads = Some(n.max(1));
    }

    /// Turn wall-clock phase profiling of the epoch scheduler on or
    /// off for this engine (overriding the run scope's
    /// [`RunScope::with_phase_profile`] setting captured at
    /// construction). When
    /// on, [`RunReport::phases`](crate::metrics::RunReport::phases)
    /// carries a [`PdesPhaseProfile`]; when off (the default) it is
    /// `None`, keeping reports byte-identical across worker counts and
    /// repeat runs. Survives [`Engine::reset`] like the trace settings.
    pub fn enable_phase_profile(&mut self, on: bool) {
        self.phase_profile = on;
    }

    /// Turn adaptive shard merging on or off for this engine (on by
    /// default). When on, the run-start planner sizes the worker pool to
    /// the shards that actually hold work and balances shards across it
    /// by pending-event count; placement is deterministic and recorded
    /// in the phase profile. Results are byte-identical either way;
    /// turning it off honors the requested worker count exactly, which
    /// is how tests pin the threaded scheduler on small hosts. Survives
    /// [`Engine::reset`].
    pub fn enable_merge(&mut self, on: bool) {
        self.merge = on;
    }

    /// The conservative lookahead of this machine: the minimum simulated
    /// latency any cross-nodelet interaction can incur. Epoch windows
    /// are exactly this wide. [`Time::MAX`] on a single-nodelet machine
    /// (no cross-shard path exists); [`Time::ZERO`] forces the merged
    /// sequential scheduler.
    pub fn lookahead(&self) -> Time {
        let multi_nodelet = self.cfg.nodelets_per_node > 1;
        let multi_node = self.cfg.nodes > 1;
        match (multi_nodelet, multi_node) {
            (true, true) => self.cfg.intra_node_hop.min(self.cfg.inter_node_hop),
            (true, false) => self.cfg.intra_node_hop,
            (false, true) => self.cfg.inter_node_hop,
            (false, false) => Time::MAX,
        }
    }

    /// Record per-nodelet time series (occupancy timelines plus
    /// queue-depth and live-threadlet gauges) with buckets of `bucket`
    /// width (see [`RunTimelines`] on the report).
    ///
    /// # Errors
    /// [`SimError::InvalidConfig`] if `bucket` is zero.
    pub fn enable_timeline(&mut self, bucket: Time) -> Result<(), SimError> {
        let invalid = |e: desim::timeline::ZeroBucket| {
            SimError::InvalidConfig(format!("timeline bucket: {e}"))
        };
        let tl = Timeline::new(bucket).map_err(invalid)?;
        let gauge = Gauge::new(bucket).map_err(invalid)?;
        self.timeline_bucket = Some(bucket);
        for s in &mut self.shards {
            s.tl = Some(ShardTl {
                core: tl.clone(),
                channel: tl.clone(),
                migration: tl.clone(),
                queue_depth: gauge.clone(),
                live_threads: gauge.clone(),
            });
        }
        Ok(())
    }

    /// Record structured trace events into a ring of at most `capacity`
    /// entries (0 disables). See [`crate::trace`]; the finalized log is
    /// attached to [`RunReport::trace`](crate::metrics::RunReport::trace).
    /// Each shard records into its own ring of the full capacity; the
    /// merged log keeps the globally-last `capacity` events.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace_capacity = capacity;
        for s in &mut self.shards {
            s.recorder = (capacity > 0).then(|| TraceRecorder::new(capacity));
        }
    }

    /// Swap every shard's event scheduler onto the reference binary-heap
    /// backend (see [`EventQueue::heap_backed`]). Already-scheduled
    /// events are carried over in `(time, key)` order, so this may be
    /// called at any point before [`Engine::run`]; a given workload must
    /// pop the exact same event sequence on either backend, which is
    /// what the conformance fuzzer's lockstep comparison checks.
    pub fn use_reference_queue(&mut self) {
        for s in &mut self.shards {
            let mut q = EventQueue::heap_backed();
            while let Some((at, key, ev)) = s.q.pop_keyed() {
                q.schedule_keyed(at, key, ev);
            }
            s.q = q;
        }
    }

    /// Create an initial threadlet on `nodelet` at time zero. May be
    /// called multiple times before [`Engine::run`]. A spawn aimed at a
    /// dead nodelet lands on its nearest live stand-in.
    ///
    /// # Errors
    /// [`SimError::SpawnOutOfRange`] if `nodelet` is outside the machine.
    pub fn spawn_at(
        &mut self,
        nodelet: NodeletId,
        kernel: Box<dyn Kernel>,
    ) -> Result<ThreadId, SimError> {
        if nodelet.0 >= self.cfg.total_nodelets() {
            return Err(SimError::SpawnOutOfRange {
                nodelet,
                total: self.cfg.total_nodelets(),
            });
        }
        let total = self.cfg.total_nodelets();
        let to = NodeletId(self.redirect[nodelet.idx()]);
        if to != nodelet {
            let sh = &mut self.shards[to.idx()];
            sh.nl.counters.redirects += 1;
            if let Some(r) = sh.recorder.as_mut() {
                r.record(TraceEvent {
                    at: Time::ZERO,
                    nodelet: to,
                    thread: None,
                    kind: TraceKind::Redirect,
                });
            }
        }
        let sh = &mut self.shards[to.idx()];
        let tid = ThreadId(sh.next_tid.wrapping_mul(total).wrapping_add(to.0));
        sh.next_tid += 1;
        sh.live += 1;
        sh.spawned += 1;
        sh.nl.counters.spawns += 1;
        if let Some(r) = sh.recorder.as_mut() {
            r.record(TraceEvent {
                at: Time::ZERO,
                nodelet: to,
                thread: Some(tid),
                kind: TraceKind::Spawn,
            });
        }
        let r = sh.arena.insert(Thread {
            tid,
            kernel: Some(kernel),
            loc: to,
            home: to,
            dest: to,
            resume: None,
            in_flight_migration: false,
            mig_issue_at: Time::ZERO,
            migrations: 0,
            mig_attempts: 0,
            link_attempts: 0,
            newborn: false,
            op_started: Time::ZERO,
            op_kind: OpKind::None,
        });
        let key = self.init_seq;
        self.init_seq += 1;
        sh.q.schedule_keyed(Time::ZERO, key, Event::Arrive(r));
        Ok(tid)
    }

    /// Run until every threadlet has quit; returns the measurement report.
    ///
    /// The run is sharded one nodelet per shard and driven by the worker
    /// count from [`Engine::set_sim_threads`] (else the running thread's
    /// [`RunScope::with_sim_threads`] override, else the process default
    /// [`set_sim_threads`], default 1). Results are byte-identical at
    /// every worker count.
    ///
    /// # Errors
    /// A watchdog converts every no-progress condition into a structured
    /// error instead of hanging or panicking:
    /// [`SimError::Stalled`] if the event queues drain while threads are
    /// still alive (a deadlock), [`SimError::EventCapExceeded`] if the
    /// fault plan's wall-event cap trips (a livelock),
    /// [`SimError::RetryBudgetExhausted`] if injected NACKs/drops outlast
    /// their retry budget, and [`SimError::MissingKernel`] on engine-state
    /// corruption.
    pub fn run(mut self) -> Result<RunReport, SimError> {
        self.run_once()
    }

    /// [`Engine::run`] for a borrowed engine: runs the seeded workload to
    /// completion and assembles the report, leaving the engine drained.
    /// Call [`Engine::reset`] before seeding and running it again — this
    /// is the warm-reuse path (a reset engine skips allocation-heavy
    /// construction but reports byte-identically to a cold one).
    ///
    /// # Errors
    /// As [`Engine::run`], plus [`SimError::DeadlineExceeded`] when a
    /// flag armed via [`Engine::set_cancel`] trips mid-run.
    pub fn run_once(&mut self) -> Result<RunReport, SimError> {
        let cap = match self.event_cap {
            Some(n) => n,
            None => match self.cfg.faults.max_events {
                0 => u64::MAX,
                n => n,
            },
        };
        let lookahead = self.lookahead();
        let workers = self
            .sim_threads
            .or_else(|| RunScope::current().sim_threads())
            .unwrap_or_else(sim_threads)
            .max(1);
        let profile = self.phase_profile;
        let t0 = profile.then(std::time::Instant::now);
        let (stats, phase_workers, owners, groups) = if lookahead == Time::ZERO {
            self.run_merged(cap);
            (
                SchedStats::default(),
                Vec::new(),
                vec![0u32; self.shards.len()],
                1,
            )
        } else {
            let (owners, groups) = self.plan_groups(workers);
            if groups <= 1 {
                let (stats, ph) = self.run_epochs_inline(cap, lookahead, profile);
                (stats, ph, owners, 1)
            } else {
                let (stats, ph) =
                    self.run_epochs_threaded(cap, lookahead, &owners, groups, profile);
                (stats, ph, owners, groups)
            }
        };
        self.pending_phases = t0.map(|t0| PdesPhaseProfile {
            workers: phase_workers,
            epochs: stats.epochs,
            wall_ns: t0.elapsed().as_nanos() as u64,
            barrier_crossings: stats.crossings,
            // Every clean window of the threaded scheduler commits on
            // its single gate crossing.
            fused_windows: if groups > 1 { stats.clean } else { 0 },
            merge_groups: groups as u64,
            shard_owners: owners,
        });
        self.pending_clean = stats.clean;
        self.finish(cap, lookahead, stats.epochs)
    }

    /// Run-start placement of shards onto workers. Returns one owning
    /// worker per shard plus the worker-pool size. Deterministic: the
    /// decision reads only shard ids, pending-event counts, and the
    /// host's core count — all fixed for the duration of a run, and
    /// none of which can alter results (grouping decides execution
    /// strategy, never simulated content).
    ///
    /// When merging is enabled, the pool is first capped at the host's
    /// available parallelism — gate workers beyond the core count can
    /// only take turns spinning at the barrier, so an oversubscribed
    /// request (say 4 sim-threads on a 1-core box) collapses toward
    /// the inline scheduler instead of paying synchronization for no
    /// overlap. Then, if some shards are *loaded* (at least
    /// [`MERGE_MIN`] pending events), the pool shrinks to
    /// the loaded-shard count and shards are balanced across it
    /// greedily by pending-event weight — so 64 shards with 4 busy ones
    /// get 4 workers carrying similar load instead of 64÷workers
    /// arbitrary blocks. Otherwise (merging off, one worker, or a run
    /// whose work hasn't fanned out yet) shards are chunked
    /// contiguously, preserving the pre-merge placement. With merging
    /// disabled the requested worker count is honored exactly, which
    /// is how tests pin the threaded scheduler on small hosts.
    fn plan_groups(&self, workers: usize) -> (Vec<u32>, usize) {
        let n = self.shards.len();
        let mut workers = workers.clamp(1, n.max(1));
        if self.merge {
            let host = std::thread::available_parallelism().map_or(1, |c| c.get());
            workers = workers.min(host);
        }
        let loaded = if self.merge && workers > 1 {
            self.shards
                .iter()
                .filter(|s| s.q.len() as u64 >= MERGE_MIN)
                .count()
        } else {
            0
        };
        if loaded == 0 {
            let chunk = n.div_ceil(workers);
            let owners: Vec<u32> = (0..n).map(|i| (i / chunk) as u32).collect();
            let groups = owners.last().map_or(1, |&o| o as usize + 1);
            return (owners, groups);
        }
        let groups = workers.min(loaded);
        let mut owners = vec![0u32; n];
        let mut load = vec![0u64; groups];
        for (i, s) in self.shards.iter().enumerate() {
            // Greedy balance in shard-id order: each shard lands on the
            // currently lightest worker (ties to the lowest id). The +1
            // spreads empty shards instead of piling them on worker 0.
            let g = (0..groups)
                .min_by_key(|&g| (load[g], g))
                .expect("groups >= 1");
            owners[i] = g as u32;
            load[g] += s.q.len() as u64 + 1;
        }
        (owners, groups)
    }

    /// Merged fallback scheduler for zero-lookahead machines: one global
    /// loop popping the minimum `(time, key)` across all shards, with
    /// immediate cross-shard delivery — sequential, but identical
    /// semantics to the epoch schedulers.
    fn run_merged(&mut self, cap: u64) {
        let mut total = 0u64;
        loop {
            let mut best: Option<(Time, u64, usize)> = None;
            for (i, s) in self.shards.iter().enumerate() {
                if let Some((t, k)) = s.q.peek_key() {
                    if best.is_none_or(|(bt, bk, _)| (t, k) < (bt, bk)) {
                        best = Some((t, k, i));
                    }
                }
            }
            let Some((_, _, i)) = best else { break };
            if total & 0x3FF == 0 {
                if let Some((flag, ms)) = &self.cancel {
                    if flag.load(Ordering::Relaxed) {
                        let s = &mut self.shards[i];
                        let e = SimError::DeadlineExceeded { deadline_ms: *ms };
                        s.error = Some((s.now, s.cur_key, e));
                        break;
                    }
                }
            }
            let cfg = &self.cfg;
            let redirect = &self.redirect[..];
            let s = &mut self.shards[i];
            let Some((at, key, ev)) = s.q.pop_keyed() else {
                break;
            };
            s.now = at;
            s.cur_key = key;
            s.events += 1;
            total += 1;
            if total > cap {
                // The popped event is counted but not dispatched,
                // matching the sequential watchdog's trip point.
                s.error = Some((at, key, SimError::EventCapExceeded { cap }));
                break;
            }
            ShardCtx { cfg, redirect, s }.dispatch(ev, at);
            if self.shards[i].error.is_some() {
                break;
            }
            let msgs = std::mem::take(&mut self.shards[i].outbox);
            for m in msgs {
                self.shards[m.dest as usize].absorb_mail(total, m);
            }
        }
    }

    /// Deliver every pending outbox message into its destination queue
    /// (single-worker epoch exchange). `mark` identifies the exchange
    /// batch for mailbox-depth tracking.
    fn deliver_all(&mut self, mark: u64) {
        let mut msgs = Vec::new();
        for s in &mut self.shards {
            msgs.append(&mut s.outbox);
        }
        for m in msgs {
            self.shards[m.dest as usize].absorb_mail(mark, m);
        }
    }

    /// Epoch scheduler, single worker: the identical protocol to the
    /// threaded path (deliver → decide → drain windows) run inline, so
    /// the epoch count and every result byte match any worker count.
    fn run_epochs_inline(
        &mut self,
        cap: u64,
        lookahead: Time,
        profile: bool,
    ) -> (SchedStats, Vec<PhaseBreakdown>) {
        let mut stats = SchedStats::default();
        let mut clk = PhaseClock::new(profile);
        let mut drained = false;
        loop {
            // A window is clean when the drain that just finished posted
            // no cross-shard mail; the first iteration precedes any
            // drain and counts for nobody.
            if drained && self.shards.iter().all(|s| s.outbox.is_empty()) {
                stats.clean += 1;
            }
            self.deliver_all(stats.epochs);
            clk.mark(Phase::Exchange);
            let any_error = self.shards.iter().any(|s| s.error.is_some());
            let total: u64 = self.shards.iter().map(|s| s.events).sum();
            let next = self
                .shards
                .iter()
                .filter_map(|s| s.q.peek_key())
                .map(|(t, _)| t)
                .min();
            clk.mark(Phase::Merge);
            if any_error || total > cap {
                break;
            }
            let Some(next) = next else { break };
            let end = Time::from_ps(next.ps().saturating_add(lookahead.ps()));
            stats.epochs += 1;
            for s in &mut self.shards {
                run_window(&self.cfg, &self.redirect, s, end, cap, self.cancel.as_ref());
            }
            drained = true;
            clk.mark(Phase::Drain);
        }
        let workers = profile.then(|| vec![clk.into_breakdown(0)]);
        (stats, workers.unwrap_or_default())
    }

    /// Epoch scheduler over a scoped worker pool. Each worker owns the
    /// shards [`Engine::plan_groups`] assigned it; cross-shard mail
    /// moves over per-edge SPSC rings and the workers agree on every
    /// window through an [`EpochGate`].
    ///
    /// One gate crossing commits each window (epoch fusion): every
    /// worker's digest carries `min(own queue minima, earliest mail it
    /// just posted)`, whose gate-wide minimum equals the post-delivery
    /// global minimum — so the window decision is correct *before*
    /// delivery, and rings are drained only when somebody's dirty flag
    /// says there is mail at all.
    fn run_epochs_threaded(
        &mut self,
        cap: u64,
        lookahead: Time,
        owners: &[u32],
        groups: usize,
        profile: bool,
    ) -> (SchedStats, Vec<PhaseBreakdown>) {
        // Route table: a message for shard `d` is posted on edge
        // (worker, owners[d]) and delivered to that group's
        // `local_idx[d]`-th shard (groups keep ascending shard order).
        let mut local_idx = vec![0u32; self.shards.len()];
        let mut counts = vec![0u32; groups];
        for (i, &o) in owners.iter().enumerate() {
            local_idx[i] = counts[o as usize];
            counts[o as usize] += 1;
        }
        let mut grouped: Vec<Vec<&mut Shard>> = (0..groups).map(|_| Vec::new()).collect();
        for (s, &o) in self.shards.iter_mut().zip(owners.iter()) {
            grouped[o as usize].push(s);
        }
        let rings: EdgeRings<OutMsg> = EdgeRings::new(groups, RING_CAPACITY);
        let gate = EpochGate::new(groups);
        let stats_out = Mutex::new(SchedStats::default());
        let breakdowns: Vec<Mutex<Option<PhaseBreakdown>>> =
            (0..groups).map(|_| Mutex::new(None)).collect();
        let cfg = &self.cfg;
        let redirect = &self.redirect[..];
        let cancel = self.cancel.as_ref();
        let local_idx = &local_idx[..];
        std::thread::scope(|scope| {
            for (g, mut mine) in grouped.into_iter().enumerate() {
                let (rings, gate, stats_out) = (&rings, &gate, &stats_out);
                let breakdowns = &breakdowns;
                scope.spawn(move || {
                    let mut clk = PhaseClock::new(profile);
                    let mut stats = SchedStats::default();
                    let mut round = 0u64;
                    let mut drained = false;
                    let mut dirty_me = false;
                    let mut out_min: Option<Time> = None;
                    let mut inbox: Vec<OutMsg> = Vec::new();
                    loop {
                        // Digest: events, error flag, dirty flag, and
                        // the earliest time this group could still act
                        // at — its queue minima and the mail it posted
                        // last window, which is not yet in any queue.
                        let local_next = mine
                            .iter()
                            .filter_map(|s| s.q.peek_key())
                            .map(|(t, _)| t)
                            .min();
                        let next = match (local_next, out_min) {
                            (Some(a), Some(b)) => Some(a.min(b)),
                            (a, b) => a.or(b),
                        };
                        let events: u64 = mine.iter().map(|s| s.events).sum();
                        let mut flags = 0u64;
                        if mine.iter().any(|s| s.error.is_some()) {
                            flags |= GATE_ERROR;
                        }
                        if dirty_me {
                            flags |= GATE_DIRTY;
                        }
                        clk.mark(Phase::Exchange);
                        let view = gate.sync(g, round, events, next.map(|t| t.ps()), flags);
                        round += 1;
                        stats.crossings += 1;
                        clk.mark(Phase::Barrier);
                        // Clean accounting: the dirty flags describe the
                        // window drained just before this crossing.
                        if drained && !view.any_dirty() {
                            stats.clean += 1;
                        }
                        if view.any_dirty() {
                            rings.drain_into(g, &mut inbox);
                            for m in inbox.drain(..) {
                                let mark = m.epoch;
                                mine[local_idx[m.dest as usize] as usize].absorb_mail(mark, m);
                            }
                            clk.mark(Phase::Exchange);
                        }
                        clk.mark(Phase::Merge);
                        // Decision: identical on every worker (it reads
                        // only gate views), so all workers break
                        // together and nobody is left at the gate.
                        if view.any_error() || view.events > cap {
                            break;
                        }
                        let Some(next_ps) = view.next_ps else { break };
                        let end = Time::from_ps(next_ps.saturating_add(lookahead.ps()));
                        stats.epochs += 1;
                        for s in mine.iter_mut() {
                            run_window(cfg, redirect, s, end, cap, cancel);
                        }
                        drained = true;
                        clk.mark(Phase::Drain);
                        dirty_me = false;
                        out_min = None;
                        for s in mine.iter_mut() {
                            for mut m in s.outbox.drain(..) {
                                if out_min.is_none_or(|o| m.at < o) {
                                    out_min = Some(m.at);
                                }
                                dirty_me = true;
                                m.epoch = stats.epochs;
                                rings.post(g, owners[m.dest as usize] as usize, [m]);
                            }
                        }
                        rings.publish_from(g);
                        clk.mark(Phase::Exchange);
                    }
                    if profile {
                        *breakdowns[g].lock().expect("breakdown slot poisoned") =
                            Some(clk.into_breakdown(g as u32));
                    }
                    if g == 0 {
                        // Every worker derives the same stats from the
                        // same gate views; one representative reports.
                        *stats_out.lock().expect("stats slot poisoned") = stats;
                    }
                });
            }
        });
        let phases = breakdowns
            .into_iter()
            .filter_map(|m| m.into_inner().expect("breakdown slot poisoned"))
            .collect();
        let stats = *stats_out.lock().expect("stats slot poisoned");
        (stats, phases)
    }

    /// Post-run epilogue shared by all schedulers: surface the globally
    /// first error (by event `(time, key)`), then the watchdog verdicts,
    /// else assemble the report.
    fn finish(&mut self, cap: u64, lookahead: Time, epochs: u64) -> Result<RunReport, SimError> {
        if let Some((_, _, e)) = self
            .shards
            .iter_mut()
            .filter_map(|s| s.error.take())
            .min_by_key(|&(t, k, _)| (t, k))
        {
            record_obs_failure();
            return Err(e);
        }
        let total: u64 = self.shards.iter().map(|s| s.events).sum();
        if total > cap {
            record_obs_failure();
            return Err(SimError::EventCapExceeded { cap });
        }
        let live: i64 = self.shards.iter().map(|s| s.live).sum();
        if live != 0 {
            let at = self
                .shards
                .iter()
                .map(|s| s.now)
                .max()
                .unwrap_or(Time::ZERO);
            record_obs_failure();
            return Err(SimError::Stalled {
                live: live.unsigned_abs(),
                at,
            });
        }
        let report = self.take_report(lookahead, epochs);
        record_obs_run(&report);
        trace::offer_report(&report);
        Ok(report)
    }

    /// Merge per-shard trace rings into one log holding the globally
    /// last `capacity` events in `(time, shard, emission)` order. Exact:
    /// within a shard the ring is nondecreasing in time, so the global
    /// tail is always inside the per-shard retained tails.
    fn take_merged_trace(&mut self) -> Option<TraceLog> {
        if self.trace_capacity == 0 {
            return None;
        }
        let cap = self.trace_capacity;
        let mut emitted = 0u64;
        let mut all: Vec<(Time, u32, usize, TraceEvent)> = Vec::new();
        for s in &mut self.shards {
            if let Some(r) = s.recorder.take() {
                let log = r.into_log();
                emitted += log.emitted();
                for (pos, ev) in log.events.into_iter().enumerate() {
                    all.push((ev.at, s.id, pos, ev));
                }
            }
        }
        all.sort_unstable_by_key(|&(at, shard, pos, _)| (at, shard, pos));
        let drop_n = all.len().saturating_sub(cap);
        let events: Vec<TraceEvent> = all.into_iter().skip(drop_n).map(|e| e.3).collect();
        let dropped = emitted - events.len() as u64;
        Some(TraceLog {
            events,
            dropped,
            capacity: cap,
        })
    }

    fn take_report(&mut self, lookahead: Time, epochs: u64) -> RunReport {
        let trace = self.take_merged_trace();
        // Drain the shards into the report; [`Engine::reset`] rebuilds
        // them before the next warm run.
        let shards = std::mem::take(&mut self.shards);
        let makespan = shards.iter().map(|s| s.now).max().unwrap_or(Time::ZERO);
        let pdes = PdesSummary {
            shards: shards.len() as u64,
            lookahead_ps: lookahead.ps(),
            epochs,
            clean_windows: self.pending_clean,
            mailbox_sent: shards.iter().map(|s| s.sent).sum(),
            mailbox_delivered: shards.iter().map(|s| s.delivered).sum(),
            min_cross_delay_ps: shards
                .iter()
                .map(|s| s.min_cross_delay.ps())
                .min()
                .unwrap_or(u64::MAX),
            mailbox_depth_hwm: shards.iter().map(|s| s.mail_hwm).max().unwrap_or(0),
        };
        let has_tl = shards.first().is_some_and(|s| s.tl.is_some());
        let mut nodelets = Vec::with_capacity(shards.len());
        let mut occupancy = Vec::with_capacity(shards.len());
        let mut mig_latency = LogHistogram::new();
        let mut migs_per_thread = Summary::new();
        let mut breakdown = TimeBreakdown::default();
        let mut threads = 0u64;
        let mut events = 0u64;
        let mut timelines = has_tl.then(|| RunTimelines {
            bucket: Time::from_us(1),
            core: Vec::new(),
            channel: Vec::new(),
            migration: Vec::new(),
            queue_depth: Vec::new(),
            live_threads: Vec::new(),
        });
        for s in shards {
            occupancy.push(NodeletOccupancy {
                core_busy: s.nl.cores.busy_time(),
                channel_busy: s.nl.channel.busy_time(),
                migration_busy: s.nl.mig_engine.busy_time(),
                channel_mean_wait: s.nl.channel.mean_wait(),
                migration_mean_wait: s.nl.mig_engine.mean_wait(),
            });
            nodelets.push(s.nl.counters);
            mig_latency.merge(&s.mig_latency);
            migs_per_thread.merge(&s.migs_per_thread);
            breakdown.absorb(&s.breakdown);
            threads += s.spawned;
            events += s.events;
            if let (Some(out), Some(mut tl)) = (timelines.as_mut(), s.tl) {
                // Account the final plateau of every gauge out to the
                // end of the run, so trailing idle time is not lost.
                tl.queue_depth.finish(makespan);
                tl.live_threads.finish(makespan);
                out.bucket = tl.core.bucket();
                out.core.push(tl.core);
                out.channel.push(tl.channel);
                out.migration.push(tl.migration);
                out.queue_depth.push(tl.queue_depth);
                out.live_threads.push(tl.live_threads);
            }
        }
        RunReport {
            makespan,
            nodelets,
            occupancy,
            gcs_per_nodelet: self.cfg.gcs_per_nodelet,
            threads,
            events,
            migration_latency: mig_latency,
            migrations_per_thread: migs_per_thread,
            timelines,
            breakdown,
            trace,
            pdes,
            phases: self.pending_phases.take(),
        }
    }
}

/// The engine's registered live metrics (see [`crate::obs`]): handles
/// are resolved once and cached so per-run recording is a handful of
/// relaxed atomic adds.
struct EngineObs {
    runs: &'static crate::obs::Counter,
    failed_runs: &'static crate::obs::Counter,
    events: &'static crate::obs::Counter,
    epochs: &'static crate::obs::Counter,
    clean_windows: &'static crate::obs::Counter,
    mailbox_sent: &'static crate::obs::Counter,
    mailbox_delivered: &'static crate::obs::Counter,
    mailbox_depth_hwm: &'static crate::obs::Gauge,
    run_events: &'static crate::obs::Histogram,
    profiled_runs: &'static crate::obs::Counter,
    barrier_crossings: &'static crate::obs::Counter,
    fused_windows: &'static crate::obs::Counter,
    phase_drain: &'static crate::obs::Counter,
    phase_barrier: &'static crate::obs::Counter,
    phase_exchange: &'static crate::obs::Counter,
    phase_merge: &'static crate::obs::Counter,
}

fn engine_obs() -> &'static EngineObs {
    static CELLS: std::sync::OnceLock<EngineObs> = std::sync::OnceLock::new();
    CELLS.get_or_init(|| EngineObs {
        runs: crate::obs::counter("emu_engine_runs_total"),
        failed_runs: crate::obs::counter("emu_engine_failed_runs_total"),
        events: crate::obs::counter("emu_engine_events_total"),
        epochs: crate::obs::counter("emu_pdes_epochs_total"),
        clean_windows: crate::obs::counter("emu_pdes_clean_windows_total"),
        mailbox_sent: crate::obs::counter("emu_pdes_mailbox_sent_total"),
        mailbox_delivered: crate::obs::counter("emu_pdes_mailbox_delivered_total"),
        mailbox_depth_hwm: crate::obs::gauge("emu_pdes_mailbox_depth_hwm"),
        run_events: crate::obs::histogram("emu_engine_run_events"),
        profiled_runs: crate::obs::counter("emu_pdes_profiled_runs_total"),
        barrier_crossings: crate::obs::counter("emu_pdes_barrier_crossings_total"),
        fused_windows: crate::obs::counter("emu_pdes_fused_windows_total"),
        phase_drain: crate::obs::counter("emu_pdes_phase_ns_total{phase=\"drain\"}"),
        phase_barrier: crate::obs::counter("emu_pdes_phase_ns_total{phase=\"barrier\"}"),
        phase_exchange: crate::obs::counter("emu_pdes_phase_ns_total{phase=\"exchange\"}"),
        phase_merge: crate::obs::counter("emu_pdes_phase_ns_total{phase=\"merge\"}"),
    })
}

/// Fold one completed run into the live registry. All values come from
/// the already-assembled report, so this is off the simulation hot
/// path entirely; the [`crate::obs::enabled`] guard makes the quiet
/// path (registry disabled) a single relaxed load.
fn record_obs_run(report: &RunReport) {
    if !crate::obs::enabled() {
        return;
    }
    let m = engine_obs();
    m.runs.inc();
    m.events.add(report.events);
    m.epochs.add(report.pdes.epochs);
    m.clean_windows.add(report.pdes.clean_windows);
    m.mailbox_sent.add(report.pdes.mailbox_sent);
    m.mailbox_delivered.add(report.pdes.mailbox_delivered);
    m.mailbox_depth_hwm
        .record_max(report.pdes.mailbox_depth_hwm.min(i64::MAX as u64) as i64);
    m.run_events.record(report.events);
    if let Some(phases) = &report.phases {
        m.profiled_runs.inc();
        m.barrier_crossings.add(phases.barrier_crossings);
        m.fused_windows.add(phases.fused_windows);
        for w in &phases.workers {
            m.phase_drain.add(w.drain_ns);
            m.phase_barrier.add(w.barrier_ns);
            m.phase_exchange.add(w.exchange_ns);
            m.phase_merge.add(w.merge_ns);
        }
    }
}

/// Count a run that ended in a structured error.
fn record_obs_failure() {
    if crate::obs::enabled() {
        engine_obs().failed_runs.inc();
    }
}

/// Drain one shard's events strictly below `end`. Conservatism
/// guarantees no other shard can deliver an event below `end` while this
/// runs, so the window needs no synchronization.
fn run_window(
    cfg: &MachineConfig,
    redirect: &[u32],
    s: &mut Shard,
    end: Time,
    cap: u64,
    cancel: Option<&Cancel>,
) {
    loop {
        if s.error.is_some() {
            break;
        }
        if let Some((flag, ms)) = cancel {
            if s.events & 0x3FF == 0 && flag.load(Ordering::Relaxed) {
                let e = SimError::DeadlineExceeded { deadline_ms: *ms };
                s.error = Some((s.now, s.cur_key, e));
                break;
            }
        }
        let Some((at, _)) = s.q.peek_key() else { break };
        if at >= end {
            break;
        }
        let Some((at, key, ev)) = s.q.pop_keyed() else {
            break;
        };
        s.now = at;
        s.cur_key = key;
        s.events += 1;
        if s.events > cap {
            // This shard alone blew the cap; the aggregate check at the
            // barrier catches caps split across shards.
            s.error = Some((at, key, SimError::EventCapExceeded { cap }));
            break;
        }
        ShardCtx { cfg, redirect, s }.dispatch(ev, at);
    }
}

/// One event dispatch's view of its shard: all handler state plus the
/// read-only machine configuration and redirect map.
struct ShardCtx<'a> {
    cfg: &'a MachineConfig,
    redirect: &'a [u32],
    s: &'a mut Shard,
}

impl ShardCtx<'_> {
    fn dispatch(&mut self, ev: Event, now: Time) {
        match ev {
            Event::Arrive(t) => self.on_arrive(t, now),
            Event::Ready(t) => self.on_ready(t, now),
            Event::ChannelRead(t, bytes) => self.on_channel_read(t, bytes, now),
            Event::ChannelWrite {
                bytes,
                atomic,
                from_remote,
            } => self.on_channel_write(bytes, atomic, from_remote, now),
            Event::MigrateOut(t) => self.on_migrate_out(t, now),
            Event::LinkSend(t) => self.on_link_send(t, now),
            Event::LinkTransit(t) => self.on_link_transit(t, now),
            Event::SlotRelease => self.on_slot_release(now),
        }
    }

    /// This shard's nodelet identity.
    #[inline]
    fn here(&self) -> NodeletId {
        NodeletId(self.s.id)
    }

    /// Record a fatal error, tagged with the current event's `(time,
    /// key)`; the schedulers stop at the next exchange point and the
    /// globally-first error wins.
    fn fail(&mut self, e: SimError) {
        if self.s.error.is_none() {
            self.s.error = Some((self.s.now, self.s.cur_key, e));
        }
    }

    /// Next deterministic fault draw in `[0, 1)` from this shard's lane.
    #[inline]
    fn fdraw(&mut self) -> f64 {
        let n = self.s.fault_draws;
        self.s.fault_draws += 1;
        fault::unit_draw_for(self.cfg.faults.seed, self.s.id, n)
    }

    /// Scale a service time by this nodelet's slowdown factor (exact
    /// identity at the nominal factor of 1.0).
    #[inline]
    fn scaled(&self, t: Time) -> Time {
        let f = self.cfg.faults.slow_factor(self.s.id as usize);
        if f == 1.0 {
            t
        } else {
            Time::from_ps((t.ps() as f64 * f).round() as u64)
        }
    }

    /// The next intrinsic event key. Every schedule — local or cross —
    /// consumes exactly one, so within-shard order equals issue order
    /// regardless of destination.
    #[inline]
    fn next_key(&mut self) -> u64 {
        let s = &mut *self.s;
        let key = ((s.id as u64 + 1) << KEY_SHIFT) | s.send_seq;
        s.send_seq += 1;
        key
    }

    /// Schedule `ev` on this shard at `at` with the next intrinsic key.
    fn send_local(&mut self, at: Time, ev: Event) {
        let key = self.next_key();
        self.s.q.schedule_keyed(at, key, ev);
    }

    /// Buffer `ev` for delivery to shard `dest` at the next exchange,
    /// consuming the next intrinsic key.
    fn send_cross(&mut self, dest: NodeletId, at: Time, ev: WireEv) {
        let key = self.next_key();
        let s = &mut *self.s;
        let delay = at.saturating_sub(s.now);
        if delay < s.min_cross_delay {
            s.min_cross_delay = delay;
        }
        s.sent += 1;
        s.outbox.push(OutMsg {
            dest: dest.0,
            at,
            key,
            epoch: 0,
            ev,
        });
    }

    /// Ship thread `r` to `dest` as an arrival: it stays in the arena
    /// for a same-shard hop, and is extracted onto the wire (to be
    /// re-inserted at the destination) for a cross-shard one.
    fn send_arrive(&mut self, dest: NodeletId, at: Time, r: TRef) {
        if dest.0 == self.s.id {
            self.send_local(at, Event::Arrive(r));
        } else {
            let t = self
                .s
                .arena
                .remove(r)
                .expect("departing thread context is live");
            self.send_cross(dest, at, WireEv::Arrive(t));
        }
    }

    /// Ship thread `r` to head nodelet `dest` as a link transit.
    fn send_transit(&mut self, dest: NodeletId, at: Time, r: TRef) {
        if dest.0 == self.s.id {
            self.send_local(at, Event::LinkTransit(r));
        } else {
            let t = self
                .s
                .arena
                .remove(r)
                .expect("transiting thread context is live");
            self.send_cross(dest, at, WireEv::LinkTransit(t));
        }
    }

    /// Route a posted store/atomic packet to `dest`'s memory channel.
    fn send_packet(&mut self, dest: NodeletId, at: Time, bytes: u32, atomic: bool, remote: bool) {
        if dest.0 == self.s.id {
            self.send_local(
                at,
                Event::ChannelWrite {
                    bytes,
                    atomic,
                    from_remote: remote,
                },
            );
        } else {
            self.send_cross(
                dest,
                at,
                WireEv::ChannelWrite {
                    bytes,
                    atomic,
                    from_remote: remote,
                },
            );
        }
    }

    /// Record one structured trace event (a single branch when tracing
    /// is off — the zero-cost-when-disabled guarantee).
    #[inline]
    fn emit(&mut self, at: Time, nodelet: NodeletId, thread: Option<ThreadId>, kind: TraceKind) {
        if let Some(r) = self.s.recorder.as_mut() {
            r.record(TraceEvent {
                at,
                nodelet,
                thread,
                kind,
            });
        }
    }

    /// Sample the slot gauges (call after the waiter queue or resident
    /// count changes).
    #[inline]
    fn sample_slots(&mut self, now: Time) {
        let s = &mut *self.s;
        if let Some(tl) = s.tl.as_mut() {
            tl.queue_depth.set(now, s.nl.waiters.len() as u64);
            tl.live_threads.set(now, s.nl.in_use as u64);
        }
    }

    /// Offer scaled service to this nodelet's cores, tracing the grant.
    fn core_offer(&mut self, now: Time, service: Time) -> Grant {
        let service = self.scaled(service);
        let grant = self.s.nl.cores.offer(now, service);
        if let Some(tl) = self.s.tl.as_mut() {
            tl.core.record(grant.start, grant.done - grant.start);
        }
        grant
    }

    #[inline]
    fn trace_channel(&mut self, grant: Grant) {
        if let Some(tl) = self.s.tl.as_mut() {
            tl.channel.record(grant.start, grant.done - grant.start);
        }
    }

    #[inline]
    fn trace_migration(&mut self, grant: Grant) {
        if let Some(tl) = self.s.tl.as_mut() {
            tl.migration.record(grant.start, grant.done - grant.start);
        }
    }

    /// Where traffic aimed at `n` actually lands (dead-nodelet
    /// redirect). Counted on the *requesting* shard — the only state a
    /// window may touch — which also keeps dead nodelets silent in the
    /// counters.
    fn redirected(&mut self, n: NodeletId, now: Time) -> NodeletId {
        let to = NodeletId(self.redirect[n.idx()]);
        if to != n {
            self.s.nl.counters.redirects += 1;
            let here = self.here();
            self.emit(now, here, None, TraceKind::Redirect);
        }
        to
    }

    /// Remap an address owned by a dead nodelet to its live stand-in.
    fn remap_addr(&mut self, addr: GlobalAddr, now: Time) -> GlobalAddr {
        if self.redirect[addr.nodelet.idx()] == addr.nodelet.0 {
            addr
        } else {
            GlobalAddr::new(self.redirected(addr.nodelet, now), addr.offset)
        }
    }

    /// A fresh thread context spawned on this shard. IDs are strided by
    /// the machine width so every shard mints from a disjoint namespace
    /// without coordination.
    fn alloc_thread(&mut self, kernel: Box<dyn Kernel>, loc: NodeletId, home: NodeletId) -> TRef {
        let s = &mut *self.s;
        let tid = ThreadId(
            s.next_tid
                .wrapping_mul(self.cfg.total_nodelets())
                .wrapping_add(s.id),
        );
        s.next_tid += 1;
        s.live += 1;
        s.spawned += 1;
        s.arena.insert(Thread {
            tid,
            kernel: Some(kernel),
            loc,
            home,
            dest: loc,
            resume: None,
            in_flight_migration: false,
            mig_issue_at: Time::ZERO,
            migrations: 0,
            mig_attempts: 0,
            link_attempts: 0,
            newborn: false,
            op_started: Time::ZERO,
            op_kind: OpKind::None,
        })
    }

    fn on_arrive(&mut self, r: TRef, now: Time) {
        let (loc, tid, newborn, migrated, issued) = {
            let t = self
                .s
                .arena
                .get_mut(r)
                .expect("arriving thread context is live");
            let newborn = std::mem::take(&mut t.newborn);
            let migrated = std::mem::take(&mut t.in_flight_migration);
            (t.loc, t.tid, newborn, migrated, t.mig_issue_at)
        };
        if newborn {
            // Remote spawn: the spawn is counted where the child lands,
            // on the shard that owns that counter.
            self.s.nl.counters.spawns += 1;
            self.emit(now, loc, Some(tid), TraceKind::Spawn);
        }
        if migrated {
            self.s.mig_latency.record(now - issued);
            self.s.nl.counters.migrations_in += 1;
            self.emit(now, loc, Some(tid), TraceKind::MigrateIn);
        }
        if self.s.nl.slots_free > 0 {
            self.s.nl.slots_free -= 1;
            self.s.nl.in_use += 1;
            self.send_local(now, Event::Ready(r));
        } else {
            self.s.nl.counters.slot_waits += 1;
            self.emit(now, loc, Some(tid), TraceKind::SlotWait);
            self.s.nl.waiters.push_back(r);
        }
        self.sample_slots(now);
    }

    fn on_slot_release(&mut self, now: Time) {
        if let Some(waiter) = self.s.nl.waiters.pop_front() {
            // Slot transfers directly to the waiter; the departing
            // context's slot is immediately re-occupied, so `in_use`
            // is unchanged.
            self.send_local(now, Event::Ready(waiter));
        } else {
            self.s.nl.slots_free += 1;
            self.s.nl.in_use -= 1;
        }
        self.sample_slots(now);
    }

    fn on_ready(&mut self, r: TRef, now: Time) {
        self.charge(r, now);
        let stepped = {
            let t = self
                .s
                .arena
                .get_mut(r)
                .expect("ready thread context is live");
            match t.resume.take() {
                Some(op) => Ok(op),
                None => {
                    let ctx = KernelCtx {
                        tid: t.tid,
                        here: t.loc,
                        home: t.home,
                        now,
                    };
                    match t.kernel.as_mut() {
                        Some(kernel) => Ok(kernel.step(&ctx)),
                        None => Err(t.tid),
                    }
                }
            }
        };
        match stepped {
            Ok(op) => self.execute(r, op, now),
            Err(thread) => self.fail(SimError::MissingKernel { thread }),
        }
    }

    /// Attribute the elapsed time of the finished operation (if any) to
    /// its activity class.
    fn charge(&mut self, r: TRef, now: Time) {
        let (kind, elapsed) = {
            let t = self
                .s
                .arena
                .get_mut(r)
                .expect("charged thread context is live");
            let kind = t.op_kind;
            t.op_kind = OpKind::None;
            (kind, now.saturating_sub(t.op_started))
        };
        let b = &mut self.s.breakdown;
        match kind {
            OpKind::None => {}
            OpKind::Compute => b.compute += elapsed,
            OpKind::Memory => b.memory += elapsed,
            OpKind::Migration => b.migration += elapsed,
            OpKind::StoreIssue => b.store_issue += elapsed,
            OpKind::Spawn => b.spawn += elapsed,
        }
    }

    fn execute(&mut self, r: TRef, op: Op, now: Time) {
        let loc = self
            .s
            .arena
            .get(r)
            .expect("executing thread context is live")
            .loc;
        let costs = self.cfg.costs;
        let target = match &op {
            Op::Load { addr, .. } | Op::Store { addr, .. } | Op::AtomicAdd { addr, .. } => {
                Some(addr.nodelet)
            }
            Op::MigrateTo { nodelet } => Some(*nodelet),
            Op::Spawn {
                place: Placement::On(t),
                ..
            } => Some(*t),
            _ => None,
        };
        if let Some(tgt) = target {
            if tgt.0 >= self.cfg.total_nodelets() {
                self.fail(SimError::TargetOutOfRange {
                    nodelet: tgt,
                    total: self.cfg.total_nodelets(),
                });
                return;
            }
        }
        // Memory and migration targets on dead nodelets are served by
        // their live stand-ins (see [`crate::fault::FaultPlan::dead`]).
        let op = match op {
            Op::Load { addr, bytes } => Op::Load {
                addr: self.remap_addr(addr, now),
                bytes,
            },
            Op::Store { addr, bytes } => Op::Store {
                addr: self.remap_addr(addr, now),
                bytes,
            },
            Op::AtomicAdd { addr, bytes } => Op::AtomicAdd {
                addr: self.remap_addr(addr, now),
                bytes,
            },
            Op::MigrateTo { nodelet } => Op::MigrateTo {
                nodelet: self.redirected(nodelet, now),
            },
            Op::Spawn { kernel, place } => Op::Spawn {
                kernel,
                place: match place {
                    Placement::Here => Placement::Here,
                    Placement::On(tgt) => Placement::On(self.redirected(tgt, now)),
                },
            },
            other => other,
        };
        match &op {
            Op::Compute { .. } => self.begin(r, OpKind::Compute, now),
            Op::Load { addr, .. } => {
                let kind = if addr.is_local_to(loc) {
                    OpKind::Memory
                } else {
                    OpKind::Migration
                };
                self.begin(r, kind, now);
            }
            Op::Store { .. } | Op::AtomicAdd { .. } => self.begin(r, OpKind::StoreIssue, now),
            Op::MigrateTo { .. } => self.begin(r, OpKind::Migration, now),
            Op::Spawn { .. } => self.begin(r, OpKind::Spawn, now),
            Op::Quit => {}
        }
        match op {
            Op::Compute { cycles } => {
                let occ = self.cfg.cycles(cycles);
                let grant = self.core_offer(now, occ);
                let extra = self
                    .cfg
                    .cycles(cycles.saturating_mul(costs.compute_latency_factor.saturating_sub(1)));
                self.send_local(grant.done + extra, Event::Ready(r));
            }
            Op::Load { addr, bytes } => {
                if addr.is_local_to(loc) {
                    let grant = self.core_offer(now, self.cfg.cycles(costs.mem_issue_cycles));
                    let at_channel = grant.done + self.cfg.cycles(costs.mem_pipeline_cycles);
                    self.send_local(at_channel, Event::ChannelRead(r, bytes));
                } else {
                    self.start_migration(r, addr.nodelet, Some(Op::Load { addr, bytes }), now);
                }
            }
            Op::Store { addr, bytes } | Op::AtomicAdd { addr, bytes } => {
                let atomic = matches!(op, Op::AtomicAdd { .. });
                let grant = self.core_offer(now, self.cfg.cycles(costs.mem_issue_cycles));
                let pipelined = grant.done + self.cfg.cycles(costs.mem_pipeline_cycles);
                let (arrive, remote) = if addr.is_local_to(loc) {
                    (pipelined, false)
                } else {
                    // Posted remote packet: traverses the network, handled
                    // by the destination's memory-side processor. The
                    // issuing thread does NOT migrate or wait.
                    (pipelined + self.cfg.hop_latency(loc, addr.nodelet), true)
                };
                self.send_packet(addr.nodelet, arrive, bytes, atomic, remote);
                // The thread continues once the store clears its pipeline.
                self.send_local(pipelined, Event::Ready(r));
            }
            Op::MigrateTo { nodelet } => {
                if nodelet == loc {
                    // Degenerate self-migration: costs one issue.
                    let grant = self.core_offer(now, self.cfg.cycles(costs.migrate_issue_cycles));
                    self.send_local(grant.done, Event::Ready(r));
                } else {
                    self.start_migration(r, nodelet, None, now);
                }
            }
            Op::Spawn { kernel, place } => {
                let grant = self.core_offer(now, self.cfg.cycles(costs.spawn_issue_cycles));
                match place {
                    Placement::Here => self.spawn_local(kernel, loc, grant.done, now),
                    Placement::On(target) if target == loc => {
                        // "Remote" spawn onto the current nodelet is just
                        // a local spawn — no engine traffic.
                        self.spawn_local(kernel, loc, grant.done, now);
                    }
                    Placement::On(target) => {
                        // A remote spawn ships the newborn context through
                        // the local migration engine, exactly like a
                        // migration; the child's home (stack) is the target.
                        let child = self.alloc_thread(kernel, loc, target);
                        let ctid = {
                            let c = self
                                .s
                                .arena
                                .get_mut(child)
                                .expect("just-allocated child is live");
                            c.newborn = true;
                            c.dest = target;
                            c.in_flight_migration = true;
                            c.mig_issue_at = grant.done;
                            c.migrations = 1;
                            c.tid
                        };
                        self.s.nl.counters.migrations_out += 1;
                        self.emit(now, loc, Some(ctid), TraceKind::MigrateOut);
                        self.send_local(grant.done, Event::MigrateOut(child));
                    }
                }
                // The parent resumes after the spawn clears its pipeline.
                let resume = grant.done + self.cfg.cycles(costs.mem_pipeline_cycles);
                self.send_local(resume, Event::Ready(r));
            }
            Op::Quit => {
                let t = self
                    .s
                    .arena
                    .remove(r)
                    .expect("quitting thread context is live");
                self.s.migs_per_thread.record(t.migrations as f64);
                self.s.live -= 1;
                self.emit(now, loc, Some(t.tid), TraceKind::Quit);
                self.send_local(now, Event::SlotRelease);
            }
        }
    }

    /// Spawn a child on this nodelet; it arrives after the local spawn
    /// latency past the issuing grant.
    fn spawn_local(&mut self, kernel: Box<dyn Kernel>, loc: NodeletId, done: Time, now: Time) {
        let child = self.alloc_thread(kernel, loc, loc);
        let ctid = self
            .s
            .arena
            .get(child)
            .expect("just-allocated child is live")
            .tid;
        self.s.nl.counters.spawns += 1;
        self.emit(now, loc, Some(ctid), TraceKind::Spawn);
        let latency = self.cfg.costs.spawn_local_latency;
        self.send_local(done + latency, Event::Arrive(child));
    }

    fn begin(&mut self, r: TRef, kind: OpKind, now: Time) {
        let t = self
            .s
            .arena
            .get_mut(r)
            .expect("beginning thread context is live");
        t.op_started = now;
        t.op_kind = kind;
    }

    /// Issue a migration of `r` toward `dest`; `resume` (if any) is
    /// re-executed on arrival.
    fn start_migration(&mut self, r: TRef, dest: NodeletId, resume: Option<Op>, now: Time) {
        let grant = self.core_offer(now, self.cfg.cycles(self.cfg.costs.migrate_issue_cycles));
        let (loc, tid) = {
            let t = self
                .s
                .arena
                .get_mut(r)
                .expect("migrating thread context is live");
            t.resume = resume;
            t.dest = dest;
            t.in_flight_migration = true;
            t.mig_issue_at = grant.done;
            t.migrations += 1;
            (t.loc, t.tid)
        };
        debug_assert_ne!(loc, dest, "migration to current nodelet");
        self.s.nl.counters.migrations_out += 1;
        self.emit(now, loc, Some(tid), TraceKind::MigrateOut);
        // The context departs the core at grant.done: its slot frees and
        // it enters the migration engine.
        self.send_local(grant.done, Event::SlotRelease);
        self.send_local(grant.done, Event::MigrateOut(r));
    }

    fn on_migrate_out(&mut self, r: TRef, now: Time) {
        let (loc, dest, tid, attempts) = {
            let t = self
                .s
                .arena
                .get(r)
                .expect("departing thread context is live");
            (t.loc, t.dest, t.tid, t.mig_attempts)
        };
        let faults = &self.cfg.faults;
        if faults.mig_nack_prob > 0.0 {
            let (prob, backoff, budget) = (
                faults.mig_nack_prob,
                faults.mig_backoff,
                faults.mig_retry_budget,
            );
            if self.fdraw() < prob {
                // The engine refuses the context: back off exponentially
                // (capped at 64x) and retry, up to the budget.
                self.s.nl.counters.mig_nacks += 1;
                self.emit(now, loc, Some(tid), TraceKind::MigNack);
                if attempts >= budget {
                    self.fail(SimError::RetryBudgetExhausted {
                        thread: tid,
                        nodelet: loc,
                        retries: attempts,
                    });
                    return;
                }
                self.s
                    .arena
                    .get_mut(r)
                    .expect("departing thread context is live")
                    .mig_attempts = attempts + 1;
                self.s.nl.counters.mig_retries += 1;
                self.emit(now, loc, Some(tid), TraceKind::MigRetry);
                let delay = backoff * (1u64 << attempts.min(6));
                self.send_local(now + delay, Event::MigrateOut(r));
                return;
            }
        }
        self.s
            .arena
            .get_mut(r)
            .expect("departing thread context is live")
            .mig_attempts = 0;
        let service = self.scaled(self.cfg.migration_service());
        let grant = self.s.nl.mig_engine.offer(now, service);
        self.trace_migration(grant);
        if loc.same_node(dest, self.cfg.nodelets_per_node) {
            let arrival = grant.done + self.cfg.hop_latency(loc, dest);
            self.s
                .arena
                .get_mut(r)
                .expect("departing thread context is live")
                .loc = dest;
            self.send_arrive(dest, arrival, r);
        } else {
            // Cross-node: after the engine, the context crosses the
            // RapidIO fabric, a shared per-node link.
            self.send_local(grant.done, Event::LinkSend(r));
        }
    }

    fn on_link_send(&mut self, r: TRef, now: Time) {
        let (loc, tid, attempts) = {
            let t = self.s.arena.get(r).expect("sending thread context is live");
            (t.loc, t.tid, t.link_attempts)
        };
        let faults = &self.cfg.faults;
        if faults.link_drop_prob > 0.0 {
            let (prob, budget) = (faults.link_drop_prob, faults.link_retry_budget);
            if self.fdraw() < prob {
                // Packet lost on the fabric: detected after a round-trip
                // hop and retransmitted, up to the budget. Attributed to
                // the (alive, sending) nodelet.
                self.s.nl.counters.link_retransmits += 1;
                self.emit(now, loc, Some(tid), TraceKind::LinkRetransmit);
                if attempts >= budget {
                    self.fail(SimError::RetryBudgetExhausted {
                        thread: tid,
                        nodelet: loc,
                        retries: attempts,
                    });
                    return;
                }
                self.s
                    .arena
                    .get_mut(r)
                    .expect("sending thread context is live")
                    .link_attempts = attempts + 1;
                let retry = now + self.cfg.inter_node_hop * 2;
                self.send_local(retry, Event::LinkSend(r));
                return;
            }
        }
        self.s
            .arena
            .get_mut(r)
            .expect("sending thread context is live")
            .link_attempts = 0;
        // The node's RapidIO interface lives on its head nodelet; a
        // packet from any other nodelet first hops there on the fabric.
        let head = NodeletId(loc.node(self.cfg.nodelets_per_node) * self.cfg.nodelets_per_node);
        if head == loc {
            self.send_local(now, Event::LinkTransit(r));
        } else {
            let at = now + self.cfg.intra_node_hop;
            self.send_transit(head, at, r);
        }
    }

    fn on_link_transit(&mut self, r: TRef, now: Time) {
        debug_assert!(
            self.s.link.is_some(),
            "LinkTransit routed to a non-head nodelet"
        );
        let dest = self
            .s
            .arena
            .get(r)
            .expect("transiting thread context is live")
            .dest;
        let bytes = self.cfg.context_bytes as u64;
        let delivered = self
            .s
            .link
            .as_mut()
            .map(|l| l.send(now, bytes))
            .unwrap_or(now);
        let arrival = delivered + self.cfg.inter_node_hop;
        self.s
            .arena
            .get_mut(r)
            .expect("transiting thread context is live")
            .loc = dest;
        self.send_arrive(dest, arrival, r);
    }

    fn on_channel_read(&mut self, r: TRef, bytes: u32, now: Time) {
        let (loc, tid) = {
            let t = self.s.arena.get(r).expect("loading thread context is live");
            (t.loc, t.tid)
        };
        let service = self.channel_service_faulted(bytes, Time::ZERO, now);
        let s = &mut *self.s;
        let grant = s.nl.channel.offer(now, service);
        s.nl.counters.local_loads += 1;
        s.nl.counters.bytes_loaded += bytes as u64;
        self.emit(now, loc, Some(tid), TraceKind::LocalLoad);
        self.trace_channel(grant);
        let done = grant.done + self.cfg.dram_latency;
        self.send_local(done, Event::Ready(r));
    }

    /// Channel service time for one access on this nodelet, including
    /// the slowdown factor and (probabilistically) an ECC-style retry.
    fn channel_service_faulted(&mut self, bytes: u32, extra: Time, now: Time) -> Time {
        let mut service = self.scaled(self.cfg.channel_service(bytes) + extra);
        let faults = &self.cfg.faults;
        if faults.ecc_prob > 0.0 {
            let (prob, latency) = (faults.ecc_prob, faults.ecc_latency);
            if self.fdraw() < prob {
                // Correctable error: the access occupies the channel for
                // one extra scrub-and-retry.
                self.s.nl.counters.ecc_retries += 1;
                let here = self.here();
                self.emit(now, here, None, TraceKind::EccRetry);
                service += latency;
            }
        }
        service
    }

    fn on_channel_write(&mut self, bytes: u32, atomic: bool, from_remote: bool, now: Time) {
        let nodelet = self.here();
        let extra = if atomic {
            self.cfg.costs.atomic_extra
        } else {
            Time::ZERO
        };
        let service = self.channel_service_faulted(bytes, extra, now);
        let s = &mut *self.s;
        let grant = s.nl.channel.offer(now, service);
        if atomic {
            s.nl.counters.atomics += 1;
        } else {
            s.nl.counters.local_stores += 1;
        }
        if from_remote {
            s.nl.counters.remote_packets_in += 1;
        }
        s.nl.counters.bytes_stored += bytes as u64;
        // Posted packets are detached from their issuing thread by the
        // time they reach the channel, so these events carry no tid.
        let kind = if atomic {
            TraceKind::Atomic
        } else {
            TraceKind::LocalStore
        };
        self.emit(now, nodelet, None, kind);
        if from_remote {
            self.emit(now, nodelet, None, TraceKind::RemotePacket);
        }
        self.trace_channel(grant);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::GlobalAddr;
    use crate::kernel::ScriptKernel;
    use crate::presets;

    fn nl(n: u32) -> NodeletId {
        NodeletId(n)
    }

    fn run_script_on(cfg: MachineConfig, ops: Vec<Op>) -> RunReport {
        let mut e = Engine::new(cfg).unwrap();
        e.spawn_at(nl(0), Box::new(ScriptKernel::new(ops))).unwrap();
        e.run().unwrap()
    }

    fn run_script(ops: Vec<Op>) -> RunReport {
        run_script_on(presets::chick_prototype(), ops)
    }

    #[test]
    fn empty_kernel_terminates() {
        let r = run_script(vec![]);
        assert_eq!(r.threads, 1);
        assert_eq!(r.total_migrations(), 0);
    }

    #[test]
    fn local_load_counts_bytes_no_migration() {
        let r = run_script(vec![Op::Load {
            addr: GlobalAddr::new(nl(0), 64),
            bytes: 8,
        }]);
        assert_eq!(r.nodelets[0].local_loads, 1);
        assert_eq!(r.nodelets[0].bytes_loaded, 8);
        assert_eq!(r.total_migrations(), 0);
        assert!(r.makespan > Time::ZERO);
    }

    #[test]
    fn remote_load_migrates_thread() {
        let r = run_script(vec![Op::Load {
            addr: GlobalAddr::new(nl(3), 64),
            bytes: 8,
        }]);
        assert_eq!(r.total_migrations(), 1);
        assert_eq!(r.nodelets[0].migrations_out, 1);
        assert_eq!(r.nodelets[3].migrations_in, 1);
        // The load executed at the destination.
        assert_eq!(r.nodelets[3].local_loads, 1);
        assert_eq!(r.nodelets[0].local_loads, 0);
        assert_eq!(r.migration_latency.count(), 1);
    }

    #[test]
    fn remote_store_does_not_migrate() {
        let r = run_script(vec![Op::Store {
            addr: GlobalAddr::new(nl(5), 0),
            bytes: 8,
        }]);
        assert_eq!(r.total_migrations(), 0);
        assert_eq!(r.nodelets[5].local_stores, 1);
        assert_eq!(r.nodelets[5].remote_packets_in, 1);
        assert_eq!(r.nodelets[5].bytes_stored, 8);
    }

    #[test]
    fn remote_atomic_counts_as_atomic() {
        let r = run_script(vec![Op::AtomicAdd {
            addr: GlobalAddr::new(nl(2), 0),
            bytes: 8,
        }]);
        assert_eq!(r.total_migrations(), 0);
        assert_eq!(r.nodelets[2].atomics, 1);
        assert_eq!(r.nodelets[2].remote_packets_in, 1);
    }

    #[test]
    fn migrate_to_bounces() {
        let r = run_script(vec![
            Op::MigrateTo { nodelet: nl(1) },
            Op::MigrateTo { nodelet: nl(0) },
            Op::MigrateTo { nodelet: nl(1) },
        ]);
        assert_eq!(r.total_migrations(), 3);
        assert_eq!(r.nodelets[0].migrations_out, 2);
        assert_eq!(r.nodelets[1].migrations_out, 1);
        assert!((r.migrations_per_thread.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn local_spawn_runs_child() {
        let child = ScriptKernel::new(vec![Op::Compute { cycles: 10 }]);
        let r = run_script(vec![Op::Spawn {
            kernel: Box::new(child),
            place: Placement::Here,
        }]);
        assert_eq!(r.threads, 2);
        assert_eq!(r.total_spawns(), 2); // initial + child
        assert_eq!(r.total_migrations(), 0);
    }

    #[test]
    fn remote_spawn_travels_through_migration_engine() {
        let child = ScriptKernel::new(vec![Op::Load {
            addr: GlobalAddr::new(nl(4), 0),
            bytes: 8,
        }]);
        let r = run_script(vec![Op::Spawn {
            kernel: Box::new(child),
            place: Placement::On(nl(4)),
        }]);
        assert_eq!(r.threads, 2);
        // Child landed on nodelet 4 and its load was local there.
        assert_eq!(r.nodelets[4].local_loads, 1);
        assert_eq!(r.nodelets[4].spawns, 1);
        // The remote spawn consumed the source migration engine once and
        // needed no further migration for the load.
        assert_eq!(r.nodelets[0].migrations_out, 1);
    }

    #[test]
    fn slot_cap_serializes_arrivals() {
        // Spawn 3 children on a machine with 2 slots per nodelet; each
        // child computes. With only 2 slots, at least one child waits.
        let mut cfg = presets::chick_prototype();
        cfg.threadlets_per_gc = 2;
        let mut ops = Vec::new();
        for _ in 0..3 {
            ops.push(Op::Spawn {
                kernel: Box::new(ScriptKernel::new(vec![Op::Compute { cycles: 1000 }])),
                place: Placement::Here,
            });
        }
        let r = run_script_on(cfg, ops);
        assert_eq!(r.threads, 4);
        assert!(r.nodelets[0].slot_waits > 0, "expected slot contention");
    }

    #[test]
    fn cross_node_migration_uses_link() {
        let r = run_script_on(
            presets::emu64_full_speed(),
            vec![Op::Load {
                addr: GlobalAddr::new(nl(12), 0), // node 1
                bytes: 8,
            }],
        );
        assert_eq!(r.total_migrations(), 1);
        assert_eq!(r.nodelets[12].local_loads, 1);
    }

    #[test]
    fn deterministic_repeat() {
        let mk = || {
            run_script(vec![
                Op::Load {
                    addr: GlobalAddr::new(nl(2), 0),
                    bytes: 16,
                },
                Op::Compute { cycles: 7 },
                Op::Store {
                    addr: GlobalAddr::new(nl(1), 8),
                    bytes: 8,
                },
            ])
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.total_bytes(), b.total_bytes());
    }

    #[test]
    fn breakdown_attributes_time_to_the_right_class() {
        // Pure compute.
        let r = run_script(vec![Op::Compute { cycles: 100 }]);
        assert!(r.breakdown.compute > Time::ZERO);
        assert_eq!(r.breakdown.migration, Time::ZERO);
        assert_eq!(r.breakdown.memory, Time::ZERO);
        // Local load.
        let r = run_script(vec![Op::Load {
            addr: GlobalAddr::new(nl(0), 0),
            bytes: 8,
        }]);
        assert!(r.breakdown.memory > Time::ZERO);
        assert_eq!(r.breakdown.migration, Time::ZERO);
        // Remote load: migration plus the re-executed (now local) read.
        let r = run_script(vec![Op::Load {
            addr: GlobalAddr::new(nl(5), 0),
            bytes: 8,
        }]);
        assert!(r.breakdown.migration > Time::ZERO);
        assert!(r.breakdown.memory > Time::ZERO);
        assert!(
            r.breakdown.migration > r.breakdown.store_issue,
            "{:?}",
            r.breakdown
        );
        // Posted store.
        let r = run_script(vec![Op::Store {
            addr: GlobalAddr::new(nl(3), 0),
            bytes: 8,
        }]);
        assert!(r.breakdown.store_issue > Time::ZERO);
        assert_eq!(r.breakdown.migration, Time::ZERO);
    }

    #[test]
    fn breakdown_total_close_to_thread_busy_time() {
        // A single thread's breakdown total equals its makespan minus the
        // initial arrival instant (every op interval is accounted).
        let r = run_script(vec![
            Op::Compute { cycles: 50 },
            Op::Load {
                addr: GlobalAddr::new(nl(2), 0),
                bytes: 8,
            },
            Op::Store {
                addr: GlobalAddr::new(nl(2), 8),
                bytes: 8,
            },
            Op::Compute { cycles: 10 },
        ]);
        let total = r.breakdown.total();
        assert!(
            total <= r.makespan && total >= r.makespan / 2,
            "breakdown {total} vs makespan {}",
            r.makespan
        );
    }

    #[test]
    fn compute_occupancy_vs_latency() {
        // A single thread computing 100 cycles is blocked for
        // 100 * factor cycles, but the core is only busy 100 cycles.
        let cfg = presets::chick_prototype();
        let factor = cfg.costs.compute_latency_factor;
        let r = run_script_on(cfg.clone(), vec![Op::Compute { cycles: 100 }]);
        assert_eq!(r.occupancy[0].core_busy, cfg.cycles(100));
        assert!(r.makespan >= cfg.cycles(100 * factor));
    }

    // ---- tracing and telemetry ----

    #[test]
    fn zero_timeline_bucket_is_an_error_not_a_panic() {
        let mut e = Engine::new(presets::chick_prototype()).unwrap();
        match e.enable_timeline(Time::ZERO) {
            Err(SimError::InvalidConfig(why)) => assert!(why.contains("bucket")),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    fn traced_script(cfg: MachineConfig, ops: Vec<Op>) -> RunReport {
        let mut e = Engine::new(cfg).unwrap();
        e.enable_trace(1 << 16);
        e.enable_timeline(Time::from_us(1)).unwrap();
        e.spawn_at(nl(0), Box::new(ScriptKernel::new(ops))).unwrap();
        e.run().unwrap()
    }

    fn busy_script() -> Vec<Op> {
        let mut ops = Vec::new();
        for i in 0..6u32 {
            ops.push(Op::Spawn {
                kernel: Box::new(ScriptKernel::new(vec![
                    Op::Load {
                        addr: GlobalAddr::new(nl(i % 8), 0),
                        bytes: 8,
                    },
                    Op::Store {
                        addr: GlobalAddr::new(nl((i + 3) % 8), 0),
                        bytes: 8,
                    },
                ])),
                place: Placement::On(nl(i % 8)),
            });
        }
        ops.push(Op::AtomicAdd {
            addr: GlobalAddr::new(nl(7), 0),
            bytes: 8,
        });
        ops
    }

    #[test]
    fn trace_event_counts_reconcile_with_counters() {
        use crate::trace::TraceKind;
        let r = traced_script(presets::chick_prototype(), busy_script());
        let log = r.trace.as_ref().unwrap();
        assert!(log.is_lossless());
        assert_eq!(log.count_of(TraceKind::Spawn), r.total_spawns());
        assert_eq!(log.count_of(TraceKind::MigrateOut), r.total_migrations());
        let sums = |f: fn(&NodeletCounters) -> u64| r.nodelets.iter().map(f).sum::<u64>();
        assert_eq!(
            log.count_of(TraceKind::MigrateIn),
            sums(|n| n.migrations_in)
        );
        assert_eq!(log.count_of(TraceKind::LocalLoad), sums(|n| n.local_loads));
        assert_eq!(
            log.count_of(TraceKind::LocalStore),
            sums(|n| n.local_stores)
        );
        assert_eq!(log.count_of(TraceKind::Atomic), sums(|n| n.atomics));
        assert_eq!(
            log.count_of(TraceKind::RemotePacket),
            sums(|n| n.remote_packets_in)
        );
        assert_eq!(log.count_of(TraceKind::SlotWait), sums(|n| n.slot_waits));
        assert_eq!(log.count_of(TraceKind::Quit), r.threads);
        // Events arrive in nondecreasing simulated-time order.
        assert!(log.events.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn faulted_trace_counts_nacks_and_retries() {
        use crate::trace::TraceKind;
        let mut cfg = presets::chick_prototype();
        cfg.faults.mig_nack_prob = 0.5;
        cfg.faults.mig_retry_budget = 64;
        let mut ops = Vec::new();
        for _ in 0..10 {
            ops.push(Op::MigrateTo { nodelet: nl(1) });
            ops.push(Op::MigrateTo { nodelet: nl(0) });
        }
        let r = traced_script(cfg, ops);
        let log = r.trace.as_ref().unwrap();
        assert!(r.total_nacks() > 0);
        assert_eq!(log.count_of(TraceKind::MigNack), r.total_nacks());
        assert_eq!(log.count_of(TraceKind::MigRetry), r.total_retries());
    }

    #[test]
    fn tracing_does_not_perturb_the_simulation() {
        let base = run_script(busy_script());
        let traced = traced_script(presets::chick_prototype(), busy_script());
        assert_eq!(base.makespan, traced.makespan);
        assert_eq!(
            format!("{:?}", base.nodelets),
            format!("{:?}", traced.nodelets)
        );
        assert_eq!(
            format!("{:?}", base.breakdown),
            format!("{:?}", traced.breakdown)
        );
    }

    #[test]
    fn ring_capacity_bounds_the_log_and_counts_drops() {
        let mut e = Engine::new(presets::chick_prototype()).unwrap();
        e.enable_trace(4);
        e.spawn_at(nl(0), Box::new(ScriptKernel::new(busy_script())))
            .unwrap();
        let r = e.run().unwrap();
        let log = r.trace.unwrap();
        assert_eq!(log.events.len(), 4);
        assert!(log.dropped > 0);
        let full = traced_script(presets::chick_prototype(), busy_script());
        assert_eq!(log.emitted(), full.trace.unwrap().emitted());
    }

    #[test]
    fn slot_gauges_observe_contention() {
        let mut cfg = presets::chick_prototype();
        cfg.threadlets_per_gc = 2;
        let mut ops = Vec::new();
        for _ in 0..4 {
            ops.push(Op::Spawn {
                kernel: Box::new(ScriptKernel::new(vec![Op::Compute { cycles: 5000 }])),
                place: Placement::Here,
            });
        }
        let mut e = Engine::new(cfg.clone()).unwrap();
        e.enable_timeline(Time::from_ns(100)).unwrap();
        e.spawn_at(nl(0), Box::new(ScriptKernel::new(ops))).unwrap();
        let r = e.run().unwrap();
        assert!(r.nodelets[0].slot_waits > 0, "expected slot contention");
        let tl = r.timelines.unwrap();
        let peak_depth = (0..tl.queue_depth[0].len())
            .map(|b| tl.queue_depth[0].peak(b))
            .max()
            .unwrap_or(0);
        let peak_live = (0..tl.live_threads[0].len())
            .map(|b| tl.live_threads[0].peak(b))
            .max()
            .unwrap_or(0);
        assert!(peak_depth > 0, "queue-depth gauge missed the wait");
        assert_eq!(peak_live as u32, cfg.slots_per_nodelet());
        // Gauges on idle nodelets stay flat at zero.
        let idle_peak = (0..tl.live_threads[5].len())
            .map(|b| tl.live_threads[5].peak(b))
            .max()
            .unwrap_or(0);
        assert_eq!(idle_peak, 0);
    }

    // ---- fault injection and watchdog ----

    use crate::fault::FaultPlan;

    /// A kernel that migrates between two nodelets forever — a crafted
    /// livelock for the watchdog's wall-event cap.
    struct PingPongForever {
        a: NodeletId,
        b: NodeletId,
    }

    impl Kernel for PingPongForever {
        fn step(&mut self, ctx: &KernelCtx) -> Op {
            Op::MigrateTo {
                nodelet: if ctx.here == self.a { self.b } else { self.a },
            }
        }
    }

    #[test]
    fn invalid_config_is_an_error_not_a_panic() {
        let mut cfg = presets::chick_prototype();
        cfg.gcs_per_nodelet = 0;
        match Engine::new(cfg) {
            Err(SimError::InvalidConfig(why)) => assert!(why.contains("gcs_per_nodelet")),
            other => panic!("expected InvalidConfig, got {:?}", other.err()),
        }
    }

    #[test]
    fn bad_fault_plan_is_rejected() {
        let mut cfg = presets::chick_prototype();
        cfg.faults.ecc_prob = 2.0;
        assert!(matches!(Engine::new(cfg), Err(SimError::InvalidConfig(_))));
        let mut cfg = presets::chick_prototype();
        cfg.faults.dead = vec![true; 8];
        assert!(matches!(Engine::new(cfg), Err(SimError::AllNodeletsDead)));
    }

    #[test]
    fn spawn_out_of_range_is_an_error() {
        let mut e = Engine::new(presets::chick_prototype()).unwrap();
        let r = e.spawn_at(nl(99), Box::new(ScriptKernel::new(vec![])));
        assert!(matches!(r, Err(SimError::SpawnOutOfRange { .. })));
    }

    #[test]
    fn kernel_target_out_of_range_is_an_error() {
        let mut e = Engine::new(presets::chick_prototype()).unwrap();
        e.spawn_at(
            nl(0),
            Box::new(ScriptKernel::new(vec![Op::Load {
                addr: GlobalAddr::new(nl(64), 0),
                bytes: 8,
            }])),
        )
        .unwrap();
        assert!(matches!(e.run(), Err(SimError::TargetOutOfRange { .. })));
    }

    #[test]
    fn dead_nodelet_traffic_is_redirected() {
        let mut cfg = presets::chick_prototype();
        cfg.faults.dead = vec![false, false, false, true, false, false, false, false];
        let r = run_script_on(
            cfg,
            vec![Op::Load {
                addr: GlobalAddr::new(nl(3), 0),
                bytes: 8,
            }],
        );
        // Nodelet 3's memory is served by its live neighbor, nodelet 4.
        assert_eq!(r.nodelets[3].local_loads, 0);
        assert_eq!(r.nodelets[4].local_loads, 1);
        assert_eq!(r.total_redirects(), 1);
    }

    #[test]
    fn spawn_on_dead_nodelet_lands_on_live_neighbor() {
        let mut cfg = presets::chick_prototype();
        cfg.faults.dead = vec![true];
        let mut e = Engine::new(cfg).unwrap();
        e.spawn_at(nl(0), Box::new(ScriptKernel::new(vec![])))
            .unwrap();
        let r = e.run().unwrap();
        assert_eq!(r.nodelets[0].spawns, 0);
        assert_eq!(r.nodelets[1].spawns, 1);
        assert!(r.total_redirects() >= 1);
    }

    #[test]
    fn slowdown_stretches_the_run() {
        let script = || {
            vec![
                Op::Compute { cycles: 1000 },
                Op::Load {
                    addr: GlobalAddr::new(nl(0), 0),
                    bytes: 64,
                },
            ]
        };
        let base = run_script(script());
        let mut cfg = presets::chick_prototype();
        cfg.faults.slowdown = vec![4.0];
        let slow = run_script_on(cfg, script());
        assert!(
            slow.makespan > base.makespan,
            "slow {} vs base {}",
            slow.makespan,
            base.makespan
        );
    }

    #[test]
    fn nacks_are_counted_and_retried() {
        let mut cfg = presets::chick_prototype();
        cfg.faults.mig_nack_prob = 0.5;
        cfg.faults.mig_retry_budget = 64;
        let mut ops = Vec::new();
        for _ in 0..10 {
            ops.push(Op::MigrateTo { nodelet: nl(1) });
            ops.push(Op::MigrateTo { nodelet: nl(0) });
        }
        let r = run_script_on(cfg, ops);
        assert!(
            r.total_nacks() > 0,
            "expected NACKs at p=0.5 over 20 migrations"
        );
        assert_eq!(r.total_nacks(), r.total_retries());
        assert_eq!(r.total_migrations(), 20);
    }

    #[test]
    fn retry_budget_exhaustion_is_an_error_not_a_hang() {
        let mut cfg = presets::chick_prototype();
        cfg.faults.mig_nack_prob = 1.0;
        cfg.faults.mig_retry_budget = 3;
        let mut e = Engine::new(cfg).unwrap();
        e.spawn_at(
            nl(0),
            Box::new(ScriptKernel::new(vec![Op::MigrateTo { nodelet: nl(1) }])),
        )
        .unwrap();
        match e.run() {
            Err(SimError::RetryBudgetExhausted { retries, .. }) => assert_eq!(retries, 3),
            other => panic!("expected RetryBudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_event_cap_catches_livelock() {
        let mut cfg = presets::chick_prototype();
        cfg.faults.max_events = 10_000;
        let mut e = Engine::new(cfg).unwrap();
        e.spawn_at(nl(0), Box::new(PingPongForever { a: nl(0), b: nl(1) }))
            .unwrap();
        match e.run() {
            Err(SimError::EventCapExceeded { cap }) => assert_eq!(cap, 10_000),
            other => panic!(
                "expected EventCapExceeded, got {:?}",
                other.map(|r| r.makespan)
            ),
        }
    }

    #[test]
    fn ecc_retries_slow_the_channel() {
        let script = || {
            (0..50)
                .map(|i| Op::Load {
                    addr: GlobalAddr::new(nl(0), i * 8),
                    bytes: 8,
                })
                .collect::<Vec<_>>()
        };
        let base = run_script(script());
        let mut cfg = presets::chick_prototype();
        cfg.faults.ecc_prob = 1.0;
        let faulted = run_script_on(cfg, script());
        assert_eq!(faulted.nodelets[0].ecc_retries, 50);
        assert!(faulted.makespan > base.makespan);
    }

    #[test]
    fn link_drops_are_retransmitted() {
        let mut cfg = presets::emu64_full_speed();
        cfg.faults.link_drop_prob = 0.5;
        cfg.faults.link_retry_budget = 64;
        let mut ops = Vec::new();
        for _ in 0..10 {
            ops.push(Op::MigrateTo { nodelet: nl(12) });
            ops.push(Op::MigrateTo { nodelet: nl(0) });
        }
        let r = run_script_on(cfg, ops);
        assert!(r.total_link_retransmits() > 0);
        assert_eq!(r.total_migrations(), 20);
    }

    #[test]
    fn faulted_runs_replay_byte_for_byte() {
        let mk = || {
            let mut cfg = presets::chick_prototype();
            cfg.faults = FaultPlan {
                seed: 77,
                mig_nack_prob: 0.3,
                ecc_prob: 0.2,
                ..FaultPlan::none()
            }
            .with_dead_fraction(8, 0.25)
            .with_slow_fraction(8, 0.25, 3.0);
            let mut ops = Vec::new();
            for i in 0..8u32 {
                ops.push(Op::Load {
                    addr: GlobalAddr::new(nl(i % 8), (i as u64) * 8),
                    bytes: 8,
                });
            }
            run_script_on(cfg, ops)
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(format!("{:?}", a.nodelets), format!("{:?}", b.nodelets));
        assert_eq!(format!("{:?}", a.breakdown), format!("{:?}", b.breakdown));
    }

    #[test]
    fn zero_fault_plan_matches_baseline_exactly() {
        let script = || {
            vec![
                Op::Load {
                    addr: GlobalAddr::new(nl(5), 0),
                    bytes: 16,
                },
                Op::Compute { cycles: 30 },
                Op::Store {
                    addr: GlobalAddr::new(nl(2), 0),
                    bytes: 8,
                },
            ]
        };
        let base = run_script(script());
        let mut cfg = presets::chick_prototype();
        // An explicitly-spelled-out zero plan, plus a (non-injecting)
        // watchdog cap, must not perturb timing at all.
        cfg.faults = FaultPlan {
            seed: 12345,
            max_events: 1_000_000,
            slowdown: vec![1.0; 8],
            dead: vec![false; 8],
            ..FaultPlan::none()
        };
        let zero = run_script_on(cfg, script());
        assert_eq!(base.makespan, zero.makespan);
        assert_eq!(
            format!("{:?}", base.nodelets),
            format!("{:?}", zero.nodelets)
        );
    }

    // ---- sharded scheduler (PDES) ----

    /// A faulted, traced, timelined multi-node workload; the strongest
    /// worker-count-invariance check we can express in one test.
    fn pdes_workload(cfg: MachineConfig, sim_threads: usize) -> RunReport {
        pdes_workload_with(cfg, sim_threads, |_| {})
    }

    /// [`pdes_workload`] with an engine-tweak hook, used to flip the
    /// scheduler knobs (fusion, merging, ring capacity) per run.
    fn pdes_workload_with(
        cfg: MachineConfig,
        sim_threads: usize,
        tweak: impl FnOnce(&mut Engine),
    ) -> RunReport {
        let mut e = Engine::new(cfg).unwrap();
        e.set_sim_threads(sim_threads);
        tweak(&mut e);
        e.enable_trace(1 << 14);
        e.enable_timeline(Time::from_us(1)).unwrap();
        for n in 0..4u32 {
            let mut ops = Vec::new();
            for i in 0..6u32 {
                ops.push(Op::Load {
                    addr: GlobalAddr::new(nl((n * 13 + i * 7) % 64), (i as u64) * 8),
                    bytes: 8,
                });
                ops.push(Op::Store {
                    addr: GlobalAddr::new(nl((n * 5 + i * 11) % 64), 0),
                    bytes: 8,
                });
            }
            ops.push(Op::Spawn {
                kernel: Box::new(ScriptKernel::new(vec![Op::AtomicAdd {
                    addr: GlobalAddr::new(nl(63 - n), 0),
                    bytes: 8,
                }])),
                place: Placement::On(nl((n * 16 + 3) % 64)),
            });
            e.spawn_at(nl(n * 16), Box::new(ScriptKernel::new(ops)))
                .unwrap();
        }
        e.run().unwrap()
    }

    #[test]
    fn worker_counts_produce_identical_reports() {
        let mut cfg = presets::emu64_full_speed();
        cfg.faults.mig_nack_prob = 0.2;
        cfg.faults.mig_retry_budget = 64;
        cfg.faults.ecc_prob = 0.1;
        cfg.faults.seed = 42;
        let one = pdes_workload(cfg.clone(), 1);
        let two = pdes_workload(cfg.clone(), 2);
        let four = pdes_workload(cfg.clone(), 4);
        let many = pdes_workload(cfg, 999);
        let dump = |r: &RunReport| format!("{r:?}");
        assert_eq!(dump(&one), dump(&two));
        assert_eq!(dump(&one), dump(&four));
        assert_eq!(dump(&one), dump(&many));
        // And the run actually crossed shards and epochs.
        assert!(one.pdes.epochs > 0);
        assert!(one.pdes.mailbox_sent > 0);
        assert_eq!(one.pdes.mailbox_sent, one.pdes.mailbox_delivered);
    }

    #[test]
    fn scheduler_knobs_produce_identical_reports() {
        // Adaptive shard merging decides how the scheduler places
        // shards on workers, never what it simulates.
        let mut cfg = presets::emu64_full_speed();
        cfg.faults.mig_nack_prob = 0.2;
        cfg.faults.mig_retry_budget = 64;
        cfg.faults.ecc_prob = 0.1;
        cfg.faults.seed = 42;
        let merged = pdes_workload(cfg.clone(), 4);
        let unmerged = pdes_workload_with(cfg, 4, |e| e.enable_merge(false));
        let dump = |r: &RunReport| format!("{r:?}");
        assert_eq!(dump(&merged), dump(&unmerged), "merging changed the report");
        assert!(merged.pdes.mailbox_sent > 0, "workload must cross shards");
        assert!(
            merged.pdes.clean_windows < merged.pdes.epochs,
            "workload must have dirty windows for placement to matter"
        );
    }

    #[test]
    fn merge_planner_shrinks_the_pool_to_the_loaded_shards() {
        // Two shards start with MERGE_MIN pending arrivals each, the
        // other 62 with none: the planner must size the pool to the two
        // loaded shards (or fewer on a one-core host), not to the
        // requested eight workers.
        let run = |merge: bool| {
            let mut e = Engine::new(presets::emu64_full_speed()).unwrap();
            e.set_sim_threads(8);
            e.enable_merge(merge);
            e.enable_phase_profile(true);
            for home in [5u32, 40] {
                for i in 0..MERGE_MIN as u32 {
                    let ops = vec![
                        Op::Load {
                            addr: GlobalAddr::new(nl((home + i) % 64), 0),
                            bytes: 8,
                        },
                        Op::Compute { cycles: 4 },
                    ];
                    e.spawn_at(nl(home), Box::new(ScriptKernel::new(ops)))
                        .unwrap();
                }
            }
            e.run().unwrap()
        };
        let mut merged = run(true);
        let mut unmerged = run(false);
        let ph = merged.phases.take().expect("profiled");
        let host = std::thread::available_parallelism().map_or(1, |c| c.get());
        assert!(ph.merge_groups < 8, "merge_groups {}", ph.merge_groups);
        assert_eq!(ph.merge_groups, host.min(2) as u64);
        if ph.merge_groups == 2 {
            assert_ne!(
                ph.shard_owners[5], ph.shard_owners[40],
                "the two loaded shards must land on different workers"
            );
        }
        assert_eq!(unmerged.phases.take().expect("profiled").merge_groups, 8);
        assert_eq!(format!("{merged:?}"), format!("{unmerged:?}"));
    }

    #[test]
    fn pdes_summary_reports_conservative_lookahead() {
        let cfg = presets::chick_prototype();
        let intra = cfg.intra_node_hop;
        let r = pdes_workload_chick(cfg);
        assert_eq!(r.pdes.shards, 8);
        assert_eq!(r.pdes.lookahead_ps, intra.ps());
        assert!(r.pdes.epochs >= 1);
        assert_eq!(r.pdes.mailbox_sent, r.pdes.mailbox_delivered);
        assert!(
            r.pdes.min_cross_delay_ps >= r.pdes.lookahead_ps,
            "cross-shard delay {} fell below the lookahead {}",
            r.pdes.min_cross_delay_ps,
            r.pdes.lookahead_ps
        );
    }

    fn pdes_workload_chick(cfg: MachineConfig) -> RunReport {
        let mut e = Engine::new(cfg).unwrap();
        e.set_sim_threads(2);
        e.spawn_at(nl(0), Box::new(ScriptKernel::new(busy_script())))
            .unwrap();
        e.run().unwrap()
    }

    #[test]
    fn single_nodelet_machine_uses_max_lookahead() {
        let mut cfg = presets::chick_prototype();
        cfg.nodes = 1;
        cfg.nodelets_per_node = 1;
        cfg.faults = FaultPlan::none();
        let mut e = Engine::new(cfg).unwrap();
        assert_eq!(e.lookahead(), Time::MAX);
        e.set_sim_threads(4);
        e.spawn_at(
            nl(0),
            Box::new(ScriptKernel::new(vec![
                Op::Compute { cycles: 10 },
                Op::Load {
                    addr: GlobalAddr::new(nl(0), 0),
                    bytes: 8,
                },
            ])),
        )
        .unwrap();
        let r = e.run().unwrap();
        assert_eq!(r.pdes.shards, 1);
        assert_eq!(r.pdes.lookahead_ps, Time::MAX.ps());
        // Everything fits in one (unbounded) window.
        assert_eq!(r.pdes.epochs, 1);
        assert_eq!(r.pdes.mailbox_sent, 0);
        assert_eq!(r.pdes.min_cross_delay_ps, u64::MAX);
    }

    #[test]
    fn errors_are_worker_count_invariant() {
        let run_with = |w: usize| {
            let mut cfg = presets::chick_prototype();
            cfg.faults.mig_nack_prob = 1.0;
            cfg.faults.mig_retry_budget = 3;
            let mut e = Engine::new(cfg).unwrap();
            e.set_sim_threads(w);
            for n in 0..4u32 {
                e.spawn_at(
                    nl(n),
                    Box::new(ScriptKernel::new(vec![Op::MigrateTo {
                        nodelet: nl((n + 1) % 8),
                    }])),
                )
                .unwrap();
            }
            format!("{:?}", e.run().err().unwrap())
        };
        let one = run_with(1);
        assert_eq!(one, run_with(2));
        assert_eq!(one, run_with(4));
    }
}
