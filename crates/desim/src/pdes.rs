//! Primitives for conservative parallel discrete-event simulation.
//!
//! A conservative PDES run shards the simulated machine across a fixed
//! worker pool and advances time in *epochs*: windows of simulated time
//! no wider than the minimum cross-shard latency (the *lookahead*).
//! Within an epoch every worker drains its own event queue without
//! synchronization — conservatism guarantees no other shard can inject
//! an event into the window — and cross-shard events travel through
//! per-edge [`EdgeRings`] that are published at window end and drained
//! after the next synchronization point.
//!
//! Two primitives live here, both engine-agnostic:
//!
//! * [`EdgeRings`] — one fixed-capacity lock-free SPSC ring per
//!   (producer, consumer) worker pair with batched release-publish, so
//!   the exchange path takes zero locks in the common case (a mutexed
//!   spill vector catches overflow without losing messages);
//! * [`EpochGate`] — a phased aggregate-and-decide point that costs a
//!   single atomic round trip per window: every worker publishes its
//!   window digest (event count, next timestamp, flag bits), bumps one
//!   shared commitment counter, and reads back the identical global
//!   digest. One crossing both decides the next window and separates
//!   the last window's ring publishes from their drains, and windows in
//!   which nobody posted cross-shard mail skip the drain entirely —
//!   the common all-local case. Waiters spin briefly and then *park* on
//!   a condvar, so a straggling worker does not cost a burning core on
//!   an oversubscribed host.
//!
//! Determinism still comes from the *engine-side* discipline of keying
//! every event with an intrinsic `(time, key)` pair (see
//! [`EventQueue::schedule_keyed`](crate::EventQueue::schedule_keyed)),
//! so nothing here needs to care about arrival order: ring contents are
//! re-sorted into the destination queue by key on delivery.

use std::cell::{Cell, UnsafeCell};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Spin iterations before a waiter yields the CPU.
const SPIN_FAST: u32 = 64;
/// Total spin+yield iterations before a waiter parks in the kernel.
/// A hot gate crossing completes in well under this budget; only a
/// genuine straggler (preempted worker, oversubscribed host) pushes
/// waiters past it.
const SPIN_PARK: u32 = 4096;

/// Pads a value to a cache line so producer- and consumer-owned atomics
/// never share one (false sharing would serialize the SPSC fast path).
#[repr(align(64))]
#[derive(Debug, Default)]
struct Pad<T>(T);

/// One single-producer single-consumer ring: the edge from one worker
/// to another.
///
/// The producer stages writes with plain stores and *publishes* them in
/// a batch — one `Release` store of the tail — at window end; the
/// consumer observes the batch with one `Acquire` load. Head and tail
/// live on separate cache lines so the two sides never false-share.
/// When the ring is full the producer spills into a mutexed vector
/// instead of blocking or dropping, so a burst larger than the ring
/// capacity costs a lock but never loses a message.
///
/// # Safety contract
/// Exactly one thread may call [`push`](SpscRing::push) /
/// [`publish`](SpscRing::publish) and exactly one thread may call
/// [`drain_into`](SpscRing::drain_into) at any time. [`EdgeRings`]
/// enforces this by construction: worker *s* owns the producer side of
/// every `(s, *)` ring and the consumer side of every `(*, s)` ring.
pub struct SpscRing<M> {
    mask: usize,
    buf: Box<[UnsafeCell<MaybeUninit<M>>]>,
    /// Consumer position: next slot to read. Written by the consumer
    /// (`Release`), read by the producer (`Acquire`) for the full check.
    head: Pad<AtomicUsize>,
    /// Published producer position: slots below it are visible to the
    /// consumer. Written by `publish` (`Release`).
    tail: Pad<AtomicUsize>,
    /// Producer-private staging position (`staged >= tail`); pushes land
    /// here and become visible only at the next `publish`.
    staged: Cell<usize>,
    /// Overflow: messages that arrived while the ring was full.
    spill: Mutex<Vec<M>>,
}

// SAFETY: the single-producer/single-consumer contract documented on
// the type (and enforced by `EdgeRings`' ownership pattern) means
// `staged` is only ever touched by the one producer thread and each
// `buf` slot is written by the producer strictly before the Release
// publish that lets the consumer read it.
unsafe impl<M: Send> Sync for SpscRing<M> {}

impl<M> SpscRing<M> {
    /// A ring holding up to `capacity` unpublished-or-undrained
    /// messages (rounded up to a power of two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        SpscRing {
            mask: cap - 1,
            buf: std::iter::repeat_with(|| UnsafeCell::new(MaybeUninit::uninit()))
                .take(cap)
                .collect(),
            head: Pad(AtomicUsize::new(0)),
            tail: Pad(AtomicUsize::new(0)),
            staged: Cell::new(0),
            spill: Mutex::new(Vec::new()),
        }
    }

    /// Usable capacity.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Producer: stage one message. Falls back to the spill vector when
    /// the ring is full; either way the message is delivered by the
    /// next [`drain_into`](SpscRing::drain_into) that follows a
    /// [`publish`](SpscRing::publish).
    pub fn push(&self, msg: M) {
        let pos = self.staged.get();
        if pos.wrapping_sub(self.head.0.load(Ordering::Acquire)) > self.mask {
            self.spill.lock().expect("ring spill poisoned").push(msg);
            return;
        }
        // SAFETY: `pos` is at most `mask` slots ahead of `head`, so the
        // consumer has retired this slot; only this producer writes it.
        unsafe { (*self.buf[pos & self.mask].get()).write(msg) };
        self.staged.set(pos.wrapping_add(1));
    }

    /// Producer: make every staged message visible to the consumer.
    /// This is the ring's only Release store — the batch boundary.
    pub fn publish(&self) {
        self.tail.0.store(self.staged.get(), Ordering::Release);
    }

    /// Consumer: move every published message (ring, then spill) into
    /// `out`; returns how many were taken. Delivery order within a ring
    /// is FIFO but callers must not rely on cross-ring or spill order —
    /// determinism is re-established downstream by intrinsic-key sort.
    pub fn drain_into(&self, out: &mut Vec<M>) -> usize {
        let tail = self.tail.0.load(Ordering::Acquire);
        let mut head = self.head.0.load(Ordering::Relaxed);
        let mut taken = 0usize;
        while head != tail {
            // SAFETY: slots in `head..tail` were fully written before
            // the Release publish we Acquired above; each is read once.
            let msg = unsafe { (*self.buf[head & self.mask].get()).assume_init_read() };
            out.push(msg);
            taken += 1;
            head = head.wrapping_add(1);
        }
        self.head.0.store(head, Ordering::Release);
        let mut spill = self.spill.lock().expect("ring spill poisoned");
        taken += spill.len();
        out.append(&mut spill);
        taken
    }
}

impl<M> Drop for SpscRing<M> {
    fn drop(&mut self) {
        // Drain staged-but-unpublished slots too: `&mut self` proves
        // exclusive access, so `staged` is the true end of live data.
        let end = self.staged.get();
        let mut head = self.head.0.load(Ordering::Relaxed);
        while head != end {
            // SAFETY: exclusive access; slots in `head..staged` hold
            // initialized messages nobody else will read.
            unsafe { (*self.buf[head & self.mask].get()).assume_init_drop() };
            head = head.wrapping_add(1);
        }
    }
}

impl<M> std::fmt::Debug for SpscRing<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpscRing")
            .field("capacity", &self.capacity())
            .field("head", &self.head.0.load(Ordering::Relaxed))
            .field("tail", &self.tail.0.load(Ordering::Relaxed))
            .finish()
    }
}

/// The full worker-to-worker exchange fabric: one [`SpscRing`] per
/// ordered (src, dst) pair.
///
/// Worker *s* owns the producer side of row *s* (all
/// [`post`](EdgeRings::post)s and the batched
/// [`publish_from`](EdgeRings::publish_from)) and the consumer side of
/// column *s* ([`drain_into`](EdgeRings::drain_into)); as long as each
/// worker index is driven by one thread, every ring sees exactly one
/// producer and one consumer and the whole exchange is lock-free off
/// the spill path. A synchronization point (the [`EpochGate`]) between
/// publish and drain keeps delivery batched per window; the rings' own Release/Acquire pair carries the data.
#[derive(Debug)]
pub struct EdgeRings<M> {
    workers: usize,
    /// Row-major: `rings[src * workers + dst]`.
    rings: Vec<SpscRing<M>>,
}

impl<M> EdgeRings<M> {
    /// Rings for `workers` workers, each holding `capacity` messages
    /// before spilling.
    pub fn new(workers: usize, capacity: usize) -> Self {
        EdgeRings {
            workers,
            rings: std::iter::repeat_with(|| SpscRing::new(capacity))
                .take(workers * workers)
                .collect(),
        }
    }

    /// Number of workers the fabric connects.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether the fabric connects no workers.
    pub fn is_empty(&self) -> bool {
        self.workers == 0
    }

    /// Producer side: stage `msgs` on the `src → dst` edge. Only worker
    /// `src`'s thread may call this.
    ///
    /// # Panics
    /// Panics if `src` or `dst` is out of range.
    pub fn post(&self, src: usize, dst: usize, msgs: impl IntoIterator<Item = M>) {
        assert!(
            src < self.workers && dst < self.workers,
            "edge out of range"
        );
        let ring = &self.rings[src * self.workers + dst];
        for m in msgs {
            ring.push(m);
        }
    }

    /// Producer side: publish everything worker `src` staged this
    /// window, one Release store per outgoing edge.
    pub fn publish_from(&self, src: usize) {
        for dst in 0..self.workers {
            self.rings[src * self.workers + dst].publish();
        }
    }

    /// Consumer side: move every published message addressed to `dst`
    /// into `out` (source rows in ascending order, spill after ring per
    /// row); returns the total taken. Only worker `dst`'s thread may
    /// call this.
    pub fn drain_into(&self, dst: usize, out: &mut Vec<M>) -> usize {
        let mut taken = 0usize;
        for src in 0..self.workers {
            taken += self.rings[src * self.workers + dst].drain_into(out);
        }
        taken
    }
}

/// Flag bit in an [`EpochGate`] digest: the worker hit an error.
pub const GATE_ERROR: u64 = 1;
/// Flag bit in an [`EpochGate`] digest: the worker posted cross-shard
/// mail this window (the window is *dirty* and needs a delivery pass).
pub const GATE_DIRTY: u64 = 2;

/// The aggregated digest every worker reads back from an
/// [`EpochGate::sync`]: identical on all workers for a given round, so
/// each can take the same scheduling decision without a leader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateView {
    /// Sum of all workers' `events` contributions.
    pub events: u64,
    /// Minimum of all workers' `next_ps` proposals (`None` when every
    /// worker reported none — all queues idle).
    pub next_ps: Option<u64>,
    /// OR of all workers' flag words ([`GATE_ERROR`] | [`GATE_DIRTY`]).
    pub flags: u64,
}

impl GateView {
    /// Whether any worker raised [`GATE_ERROR`].
    pub fn any_error(&self) -> bool {
        self.flags & GATE_ERROR != 0
    }

    /// Whether any worker raised [`GATE_DIRTY`].
    pub fn any_dirty(&self) -> bool {
        self.flags & GATE_DIRTY != 0
    }
}

/// Per-worker, per-parity digest slot. Plain relaxed stores; the
/// commitment counter's AcqRel read-modify-write chain is the only
/// happens-before edge readers need.
#[derive(Debug, Default)]
struct GateSlot {
    events: AtomicU64,
    next_ps: AtomicU64,
    flags: AtomicU64,
}

/// A phased publish-and-aggregate point: the one synchronization an
/// epoch window costs.
///
/// Where a barrier would cost two crossings per window (one to separate
/// post from drain, one to agree on the next window), the gate costs a
/// single shared `fetch_add` plus a bounded wait: each worker
/// stores its window digest into its own slot, bumps the commitment
/// counter, waits for the counter to reach `(round + 1) × workers`, and
/// then reads all slots — every worker computes the identical
/// [`GateView`] and can take the identical decision with no leader and
/// no second crossing.
///
/// Slots are double-buffered by round parity: a worker can only write
/// its round-`r + 2` slot after every worker has committed round
/// `r + 1`, which in turn requires every worker to have finished
/// reading round `r` — so a slot is never overwritten while a reader
/// still needs it.
///
/// Waiters spin briefly, yield, then park; the worker whose commit
/// completes a round takes the lock and notifies, so parked waiters
/// always wake.
#[derive(Debug)]
pub struct EpochGate {
    workers: usize,
    /// `slots[worker * 2 + (round & 1)]`.
    slots: Vec<GateSlot>,
    commit: Pad<AtomicU64>,
    lock: Mutex<()>,
    cv: Condvar,
    parks: AtomicU64,
}

impl EpochGate {
    /// A gate for `workers` workers.
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "a gate needs at least one worker");
        EpochGate {
            workers,
            slots: std::iter::repeat_with(GateSlot::default)
                .take(workers * 2)
                .collect(),
            commit: Pad(AtomicU64::new(0)),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            parks: AtomicU64::new(0),
        }
    }

    /// Number of workers the gate synchronizes.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Publish this worker's digest for `round`, wait for every worker
    /// to do the same, and return the aggregate. `round` must advance
    /// by exactly one per call per worker, in lockstep across workers
    /// (every worker's `round` sequence is identical — which the
    /// identical returned [`GateView`]s make self-sustaining).
    pub fn sync(
        &self,
        worker: usize,
        round: u64,
        events: u64,
        next_ps: Option<u64>,
        flags: u64,
    ) -> GateView {
        let parity = (round & 1) as usize;
        let slot = &self.slots[worker * 2 + parity];
        slot.events.store(events, Ordering::Relaxed);
        slot.next_ps
            .store(next_ps.unwrap_or(u64::MAX), Ordering::Relaxed);
        slot.flags.store(flags, Ordering::Relaxed);

        let target = (round + 1) * self.workers as u64;
        let prev = self.commit.0.fetch_add(1, Ordering::AcqRel);
        if prev + 1 == target {
            // This commit completed the round: wake any parked waiter.
            // Taking the lock orders the wake after any waiter's
            // check-then-wait, closing the missed-notify window.
            let guard = self.lock.lock().expect("gate lock poisoned");
            drop(guard);
            self.cv.notify_all();
        } else {
            let mut spins = 0u32;
            while self.commit.0.load(Ordering::Acquire) < target {
                spins += 1;
                if spins < SPIN_FAST {
                    std::hint::spin_loop();
                } else if spins < SPIN_PARK {
                    std::thread::yield_now();
                } else {
                    self.parks.fetch_add(1, Ordering::Relaxed);
                    let mut guard = self.lock.lock().expect("gate lock poisoned");
                    while self.commit.0.load(Ordering::Acquire) < target {
                        guard = self.cv.wait(guard).expect("gate lock poisoned");
                    }
                    break;
                }
            }
        }

        // Every worker has committed `round`; their relaxed slot stores
        // happen-before our Acquire of the commit counter (the AcqRel
        // RMW chain forms one release sequence).
        let mut view = GateView {
            events: 0,
            next_ps: None,
            flags: 0,
        };
        let mut min_next = u64::MAX;
        for w in 0..self.workers {
            let s = &self.slots[w * 2 + parity];
            view.events += s.events.load(Ordering::Relaxed);
            min_next = min_next.min(s.next_ps.load(Ordering::Relaxed));
            view.flags |= s.flags.load(Ordering::Relaxed);
        }
        if min_next != u64::MAX {
            view.next_ps = Some(min_next);
        }
        view
    }

    /// How many syncs fell through the spin budget and parked in the
    /// kernel. Diagnostic only (relaxed counter).
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn ring_round_trips_one_batch() {
        let ring: SpscRing<u32> = SpscRing::new(8);
        for v in 0..5 {
            ring.push(v);
        }
        let mut out = Vec::new();
        // Nothing visible before publish.
        assert_eq!(ring.drain_into(&mut out), 0);
        ring.publish();
        assert_eq!(ring.drain_into(&mut out), 5);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(ring.drain_into(&mut out), 0);
    }

    #[test]
    fn ring_overflow_spills_without_loss() {
        let ring: SpscRing<u32> = SpscRing::new(2);
        assert_eq!(ring.capacity(), 2);
        for v in 0..10 {
            ring.push(v);
        }
        ring.publish();
        let mut out = Vec::new();
        assert_eq!(ring.drain_into(&mut out), 10);
        out.sort_unstable();
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn ring_drop_releases_unpublished_messages() {
        // Leak-checked indirectly: Box contents must be dropped.
        let ring: SpscRing<Box<u64>> = SpscRing::new(4);
        ring.push(Box::new(1));
        ring.push(Box::new(2));
        ring.publish();
        ring.push(Box::new(3)); // staged, never published
        drop(ring); // must not leak any of the three
    }

    #[test]
    fn edge_rings_route_all_pairs_across_threads() {
        let rings: EdgeRings<(usize, u64)> = EdgeRings::new(3, 4);
        let barrier = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            for me in 0..3usize {
                let rings = &rings;
                let barrier = &barrier;
                s.spawn(move || {
                    // Everyone posts one message to everyone else.
                    for dst in 0..3 {
                        if dst != me {
                            rings.post(me, dst, [(me, 100 + me as u64)]);
                        }
                    }
                    rings.publish_from(me);
                    barrier.wait();
                    let mut got = Vec::new();
                    assert_eq!(rings.drain_into(me, &mut got), 2);
                    got.sort_unstable();
                    let expect: Vec<_> = (0..3)
                        .filter(|&o| o != me)
                        .map(|o| (o, 100 + o as u64))
                        .collect();
                    assert_eq!(got, expect);
                });
            }
        });
    }

    #[test]
    fn gate_aggregates_identically_on_every_worker() {
        const W: usize = 4;
        let gate = EpochGate::new(W);
        let views: Vec<Mutex<Vec<GateView>>> = std::iter::repeat_with(|| Mutex::new(Vec::new()))
            .take(W)
            .collect();
        std::thread::scope(|s| {
            for me in 0..W {
                let gate = &gate;
                let views = &views;
                s.spawn(move || {
                    for round in 0..64u64 {
                        let next = if me == (round as usize) % W {
                            None
                        } else {
                            Some(1000 * round + me as u64)
                        };
                        let flags = if me == 0 && round % 3 == 0 {
                            GATE_DIRTY
                        } else {
                            0
                        };
                        let v = gate.sync(me, round, me as u64 + round, next, flags);
                        views[me].lock().unwrap().push(v);
                    }
                });
            }
        });
        let first = views[0].lock().unwrap().clone();
        assert_eq!(first.len(), 64);
        for (round, v) in first.iter().enumerate() {
            let round = round as u64;
            let expect_events: u64 = (0..W as u64).map(|w| w + round).sum();
            assert_eq!(v.events, expect_events);
            let expect_next = (0..W as u64)
                .filter(|&w| w != round % W as u64)
                .map(|w| 1000 * round + w)
                .min();
            assert_eq!(v.next_ps, expect_next);
            assert_eq!(v.any_dirty(), round.is_multiple_of(3));
            assert!(!v.any_error());
        }
        for other in &views[1..] {
            assert_eq!(*other.lock().unwrap(), first, "gate views diverged");
        }
    }

    #[test]
    fn gate_single_worker_is_a_passthrough() {
        let gate = EpochGate::new(1);
        for round in 0..5 {
            let v = gate.sync(0, round, 7, Some(round * 10), GATE_ERROR);
            assert_eq!(v.events, 7);
            assert_eq!(v.next_ps, Some(round * 10));
            assert!(v.any_error());
        }
    }

    #[test]
    fn gate_parked_waiter_wakes_on_straggler_commit() {
        let gate = EpochGate::new(2);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for me in 0..2usize {
                let gate = &gate;
                s.spawn(move || {
                    for round in 0..3u64 {
                        if me == 1 {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        let v = gate.sync(me, round, 1, None, 0);
                        assert_eq!(v.events, 2);
                    }
                });
            }
        });
        assert!(t0.elapsed() >= Duration::from_millis(30));
        assert!(
            gate.parks() >= 1,
            "prompt worker should park while the straggler sleeps (parks = {})",
            gate.parks()
        );
    }
}
