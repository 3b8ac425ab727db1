//! The event queue at the heart of each discrete-event engine.
//!
//! Events are ordered by time, with insertion order (a monotonically
//! increasing sequence number) breaking ties. Deterministic tie-breaking
//! matters: several threadlets frequently become ready at the same
//! picosecond, and FIFO semantics at downstream resources depend on a
//! stable pop order.
//!
//! Two backends implement the same `(time, seq)` contract:
//!
//! * A **calendar queue** (the default): a circular array of time
//!   buckets covering a sliding window of near-future slots, a sorted
//!   spill list for the slot currently being serviced, and a binary-heap
//!   overflow list for events beyond the window. Scheduling into the
//!   window is O(1); popping sorts one slot at a time. Event-dense
//!   simulations (every engine in this workspace) spend most of their
//!   scheduler time here, so this is the hot path the whole harness
//!   rides on.
//! * A **binary heap**, kept as the reference backend for equivalence
//!   tests and as the baseline the perf gate compares against.

use crate::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Number of calendar buckets. Power of two so slot→index is a mask.
const NUM_BUCKETS: usize = 512;
/// log2 of the bucket width in picoseconds. 2^13 ps ≈ 8.2 ns per
/// bucket, so the calendar window spans ~4.2 µs — wide enough that the
/// engines' per-op costs (tens to hundreds of ns) land in the window
/// and only genuinely far-future events (long DMA-style transfers,
/// backoff retries) take the overflow-heap path.
const WIDTH_SHIFT: u32 = 13;

/// A time-ordered queue of events of type `E`.
///
/// `E` carries whatever payload an engine needs (usually a thread id plus
/// a small action tag). Events at equal times pop in insertion order.
#[derive(Debug)]
pub struct EventQueue<E> {
    backend: Backend<E>,
    seq: u64,
    now: Time,
}

#[derive(Debug)]
enum Backend<E> {
    Heap(BinaryHeap<Reverse<Entry<E>>>),
    Calendar(Calendar<E>),
}

#[derive(Debug)]
struct Entry<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Calendar-queue backend state.
///
/// Invariants (with `slot(t) = t.ps() >> WIDTH_SHIFT`):
/// * `sorted` holds only events of slot `cur_slot`, in descending
///   `(at, seq)` order, so the back of the vec is the next event.
/// * `buckets[s & MASK]` holds events of exactly one slot value `s` in
///   the open window `(cur_slot, cur_slot + NUM_BUCKETS)`; events for
///   the current slot go straight to `sorted`.
/// * `overflow` holds events that were beyond the window when they were
///   scheduled. The window only slides forward, so overflow events can
///   *become* near-future; `advance` always consults the overflow top,
///   which keeps them correct without eager re-bucketing.
/// * `cur_slot` never passes the slot of a pending event.
#[derive(Debug)]
struct Calendar<E> {
    buckets: Vec<Vec<Entry<E>>>,
    /// Events of the current slot, descending by `(at, seq)`.
    sorted: Vec<Entry<E>>,
    /// Far-future events, as a min-heap.
    overflow: BinaryHeap<Reverse<Entry<E>>>,
    /// Absolute (non-wrapped) slot index currently being serviced.
    cur_slot: u64,
    /// Events currently resident in `buckets`.
    bucketed: usize,
    /// Total pending events across all three stores.
    len: usize,
}

const MASK: u64 = (NUM_BUCKETS as u64) - 1;

#[inline]
fn slot_of(at: Time) -> u64 {
    at.ps() >> WIDTH_SHIFT
}

impl<E> Calendar<E> {
    fn new() -> Self {
        Calendar {
            buckets: std::iter::repeat_with(Vec::new).take(NUM_BUCKETS).collect(),
            sorted: Vec::new(),
            overflow: BinaryHeap::new(),
            cur_slot: 0,
            bucketed: 0,
            len: 0,
        }
    }

    fn with_capacity(n: usize) -> Self {
        let mut c = Self::new();
        // The steady-state population spreads across the window; giving
        // every store room up front removes the mid-run reallocations
        // that dominate first-run profiles. Events land in one of three
        // places, so all three need pre-sizing: the live-slot spill
        // list, the window buckets (population / slots each), and the
        // far-future overflow heap.
        c.sorted.reserve(n.min(4096));
        c.overflow.reserve(n);
        let per_bucket = n / NUM_BUCKETS;
        if per_bucket > 0 {
            for b in &mut c.buckets {
                b.reserve(per_bucket);
            }
        }
        c
    }

    fn push(&mut self, entry: Entry<E>) {
        let s = slot_of(entry.at);
        if s == self.cur_slot {
            // Insert into the live slot keeping descending (at, seq)
            // order; the new entry has the largest seq so it lands
            // before any equal-time entry (popping after them — FIFO).
            let key = (entry.at, entry.seq);
            let idx = self.sorted.partition_point(|e| (e.at, e.seq) > key);
            self.sorted.insert(idx, entry);
        } else if s < self.cur_slot + NUM_BUCKETS as u64 {
            self.buckets[(s & MASK) as usize].push(entry);
            self.bucketed += 1;
        } else {
            self.overflow.push(Reverse(entry));
        }
        self.len += 1;
    }

    /// Move to the slot of the earliest pending event and load it into
    /// `sorted`. Caller guarantees `sorted` is empty and `len > 0`.
    fn advance(&mut self) {
        debug_assert!(self.sorted.is_empty() && self.len > 0);
        let next_bucket_slot = if self.bucketed > 0 {
            let mut s = self.cur_slot;
            while self.buckets[(s & MASK) as usize].is_empty() {
                s += 1;
            }
            Some(s)
        } else {
            None
        };
        let next_overflow_slot = self.overflow.peek().map(|Reverse(e)| slot_of(e.at));
        self.cur_slot = match (next_bucket_slot, next_overflow_slot) {
            (Some(b), Some(o)) => b.min(o),
            (Some(b), None) => b,
            (None, Some(o)) => o,
            (None, None) => unreachable!("len > 0 with no pending events"),
        };
        let bucket = &mut self.buckets[(self.cur_slot & MASK) as usize];
        // The bucket maps to exactly this slot (see the invariants), so
        // everything in it belongs to the slot we are entering.
        self.bucketed -= bucket.len();
        self.sorted.append(bucket);
        while let Some(Reverse(e)) = self.overflow.peek() {
            if slot_of(e.at) != self.cur_slot {
                break;
            }
            let Reverse(e) = self.overflow.pop().expect("peeked");
            self.sorted.push(e);
        }
        self.sorted
            .sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
    }

    fn pop(&mut self) -> Option<Entry<E>> {
        if self.len == 0 {
            return None;
        }
        if self.sorted.is_empty() {
            self.advance();
        }
        let e = self.sorted.pop().expect("advance loads the next slot");
        self.len -= 1;
        Some(e)
    }

    fn peek_time(&self) -> Option<Time> {
        if self.len == 0 {
            return None;
        }
        if let Some(e) = self.sorted.last() {
            return Some(e.at);
        }
        // Cold path (no event in the live slot): min over the earliest
        // bucketed event and the overflow top. Only tests and idle-time
        // probes land here, so an O(window) scan is fine.
        let mut best: Option<Time> = self.overflow.peek().map(|Reverse(e)| e.at);
        if self.bucketed > 0 {
            let mut s = self.cur_slot;
            loop {
                let b = &self.buckets[(s & MASK) as usize];
                if !b.is_empty() {
                    let t = b.iter().map(|e| e.at).min().expect("non-empty");
                    best = Some(best.map_or(t, |o| o.min(t)));
                    break;
                }
                s += 1;
            }
        }
        best
    }

    /// `(at, seq)` of the earliest pending event without touching any
    /// state. Same store-by-store minimum as `peek_time`, but carrying
    /// the tie-break key: the overflow top is the overflow-wide minimum
    /// and the first non-empty bucket in scan order holds exactly the
    /// smallest pending slot, so comparing the two candidates by
    /// `(at, seq)` yields the global winner.
    fn peek_key(&self) -> Option<(Time, u64)> {
        if self.len == 0 {
            return None;
        }
        if let Some(e) = self.sorted.last() {
            return Some((e.at, e.seq));
        }
        let mut best: Option<(Time, u64)> = self.overflow.peek().map(|Reverse(e)| (e.at, e.seq));
        if self.bucketed > 0 {
            let mut s = self.cur_slot;
            loop {
                let b = &self.buckets[(s & MASK) as usize];
                if !b.is_empty() {
                    let k = b.iter().map(|e| (e.at, e.seq)).min().expect("non-empty");
                    best = Some(best.map_or(k, |o| o.min(k)));
                    break;
                }
                s += 1;
            }
        }
        best
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the simulation clock at time zero.
    pub fn new() -> Self {
        EventQueue {
            backend: Backend::Calendar(Calendar::new()),
            seq: 0,
            now: Time::ZERO,
        }
    }

    /// An empty queue with room for `n` pending events, so the
    /// steady-state population never reallocates mid-run.
    pub fn with_capacity(n: usize) -> Self {
        EventQueue {
            backend: Backend::Calendar(Calendar::with_capacity(n)),
            seq: 0,
            now: Time::ZERO,
        }
    }

    /// An empty queue on the reference binary-heap backend.
    ///
    /// Same contract, simpler structure: used by the equivalence
    /// property tests and as the baseline in the scheduler microbench.
    pub fn heap_backed() -> Self {
        EventQueue {
            backend: Backend::Heap(BinaryHeap::new()),
            seq: 0,
            now: Time::ZERO,
        }
    }

    /// The time of the most recently popped event (the engine's "now").
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics (debug builds) if `at` is in the past — schedule-in-the-past
    /// is always an engine bug.
    pub fn schedule(&mut self, at: Time, event: E) {
        debug_assert!(at >= self.now, "scheduled event in the past");
        let entry = Entry {
            at,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        match &mut self.backend {
            Backend::Heap(h) => h.push(Reverse(entry)),
            Backend::Calendar(c) => c.push(entry),
        }
    }

    /// Schedule `event` `delay` after now.
    pub fn schedule_after(&mut self, delay: Time, event: E) {
        let at = self.now + delay;
        self.schedule(at, event);
    }

    /// Schedule `event` at `at` under a caller-supplied tie-break `key`
    /// instead of the queue's internal insertion counter.
    ///
    /// Sharded engines use this to make pop order a pure function of the
    /// event population: when every event carries an intrinsic key (for
    /// example `source_shard << 40 | per_source_sequence`), the order
    /// `(at, key)` does not depend on which worker inserted first, so a
    /// run merged from several queues reproduces the single-queue order
    /// exactly. Callers are responsible for key uniqueness per time; the
    /// internal counter is left untouched, so `schedule` and
    /// `schedule_keyed` should not be mixed on one queue.
    ///
    /// # Panics
    /// Panics (debug builds) if `at` is in the past.
    pub fn schedule_keyed(&mut self, at: Time, key: u64, event: E) {
        debug_assert!(at >= self.now, "scheduled event in the past");
        let entry = Entry {
            at,
            seq: key,
            event,
        };
        match &mut self.backend {
            Backend::Heap(h) => h.push(Reverse(entry)),
            Backend::Calendar(c) => c.push(entry),
        }
    }

    /// Pop the earliest event together with its tie-break key, advancing
    /// the clock to its time.
    ///
    /// The companion of [`EventQueue::schedule_keyed`]: sharded engines
    /// need the key back to merge several queues into one global
    /// `(time, key)` order.
    pub fn pop_keyed(&mut self) -> Option<(Time, u64, E)> {
        let entry = match &mut self.backend {
            Backend::Heap(h) => h.pop().map(|Reverse(e)| e),
            Backend::Calendar(c) => c.pop(),
        }?;
        debug_assert!(entry.at >= self.now, "time ran backwards");
        self.now = entry.at;
        Some((entry.at, entry.seq, entry.event))
    }

    /// Time and tie-break key of the earliest pending event, if any.
    ///
    /// Deliberately does *not* slide the calendar window: peeking must
    /// leave the queue able to accept events earlier than the peeked
    /// one (a sharded engine peeks past its epoch horizon, then
    /// delivers mailbox events that sort before what it saw). The
    /// common case (live slot non-empty) is O(1); slot boundaries pay
    /// the same window scan a pop would.
    pub fn peek_key(&self) -> Option<(Time, u64)> {
        match &self.backend {
            Backend::Heap(h) => h.peek().map(|Reverse(e)| (e.at, e.seq)),
            Backend::Calendar(c) => c.peek_key(),
        }
    }

    /// Pop the earliest event, advancing the simulation clock to its time.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let entry = match &mut self.backend {
            Backend::Heap(h) => h.pop().map(|Reverse(e)| e),
            Backend::Calendar(c) => c.pop(),
        }?;
        debug_assert!(entry.at >= self.now, "time ran backwards");
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        match &self.backend {
            Backend::Heap(h) => h.peek().map(|Reverse(e)| e.at),
            Backend::Calendar(c) => c.peek_time(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Heap(h) => h.len(),
            Backend::Calendar(c) => c.len,
        }
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backends() -> Vec<EventQueue<i32>> {
        vec![EventQueue::new(), EventQueue::heap_backed()]
    }

    #[test]
    fn pops_in_time_order() {
        for mut q in [
            EventQueue::new(),
            EventQueue::heap_backed(),
            EventQueue::with_capacity(16),
        ] {
            q.schedule(Time::from_ns(5), "c");
            q.schedule(Time::from_ns(1), "a");
            q.schedule(Time::from_ns(3), "b");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec!["a", "b", "c"]);
        }
    }

    #[test]
    fn equal_times_pop_fifo() {
        for mut q in backends() {
            let t = Time::from_ns(7);
            for i in 0..100 {
                q.schedule(t, i);
            }
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>());
        }
    }

    #[test]
    fn equal_times_pop_fifo_when_interleaved_with_pops() {
        // FIFO must hold even when new equal-time events arrive while
        // the slot is being drained (the live-slot insert path).
        for mut q in backends() {
            let t = Time::from_ns(7);
            q.schedule(t, 0);
            q.schedule(t, 1);
            assert_eq!(q.pop().map(|(_, e)| e), Some(0));
            q.schedule(t, 2);
            q.schedule(t, 3);
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec![1, 2, 3]);
        }
    }

    #[test]
    fn far_future_events_round_trip_through_overflow() {
        // Events beyond the calendar window take the overflow-heap path
        // and must still interleave correctly with near events.
        let window_ps = (NUM_BUCKETS as u64) << WIDTH_SHIFT;
        for mut q in backends() {
            q.schedule(Time::from_ps(10 * window_ps), 3);
            q.schedule(Time::from_ps(1), 1);
            q.schedule(Time::from_ps(2 * window_ps), 2);
            q.schedule(Time::from_ps(10 * window_ps), 4);
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec![1, 2, 3, 4]);
        }
    }

    #[test]
    fn clock_advances_with_pop() {
        for mut q in backends() {
            q.schedule(Time::from_ns(10), 0);
            assert_eq!(q.now(), Time::ZERO);
            assert_eq!(q.peek_time(), Some(Time::from_ns(10)));
            q.pop().unwrap();
            assert_eq!(q.now(), Time::from_ns(10));
            assert!(q.is_empty());
        }
    }

    #[test]
    fn peek_time_sees_bucketed_and_overflow_events() {
        let window_ps = (NUM_BUCKETS as u64) << WIDTH_SHIFT;
        let mut q = EventQueue::new();
        q.schedule(Time::from_ps(3 * window_ps), ());
        assert_eq!(q.peek_time(), Some(Time::from_ps(3 * window_ps)));
        q.schedule(Time::from_ps(5 << WIDTH_SHIFT), ());
        assert_eq!(q.peek_time(), Some(Time::from_ps(5 << WIDTH_SHIFT)));
    }

    #[test]
    fn schedule_after_is_relative_to_now() {
        for mut q in backends() {
            q.schedule(Time::from_ns(10), 1);
            q.pop().unwrap();
            q.schedule_after(Time::from_ns(5), 2);
            let (t, e) = q.pop().unwrap();
            assert_eq!(t, Time::from_ns(15));
            assert_eq!(e, 2);
        }
    }

    #[test]
    fn len_tracks_pending() {
        for mut q in backends() {
            assert_eq!(q.len(), 0);
            q.schedule(Time::from_ns(1), 0);
            q.schedule(Time::from_ns(2), 0);
            assert_eq!(q.len(), 2);
            q.pop();
            assert_eq!(q.len(), 1);
        }
    }

    #[test]
    fn with_capacity_presizes_every_store() {
        // Regression: with_capacity used to size only part of the
        // calendar, so a full-window population still reallocated
        // mid-run. Fill every store to its nominal share and check that
        // no store grew past its pre-sized capacity.
        let n = 4096;
        let mut q = EventQueue::with_capacity(n);
        let (bucket_caps, sorted_cap, overflow_cap) = match &q.backend {
            Backend::Calendar(c) => (
                c.buckets.iter().map(|b| b.capacity()).collect::<Vec<_>>(),
                c.sorted.capacity(),
                c.overflow.capacity(),
            ),
            Backend::Heap(_) => unreachable!("with_capacity is calendar-backed"),
        };
        let per_bucket = n / NUM_BUCKETS;
        assert!(bucket_caps.iter().all(|&c| c >= per_bucket));
        assert!(sorted_cap >= n.min(4096));
        assert!(overflow_cap >= n);
        // One window's worth spread evenly over the slots (slot 0 lands
        // in the spill list), plus a full population beyond the window.
        let window_ps = (NUM_BUCKETS as u64) << WIDTH_SHIFT;
        for i in 0..n {
            let slot = (i % NUM_BUCKETS) as u64;
            q.schedule(Time::from_ps(slot << WIDTH_SHIFT), i);
        }
        for i in 0..n {
            q.schedule(Time::from_ps(window_ps + i as u64), i);
        }
        match &q.backend {
            Backend::Calendar(c) => {
                for (b, &cap0) in c.buckets.iter().zip(&bucket_caps) {
                    assert_eq!(b.capacity(), cap0, "bucket reallocated");
                }
                assert_eq!(c.sorted.capacity(), sorted_cap, "spill list reallocated");
                assert_eq!(c.overflow.capacity(), overflow_cap, "overflow reallocated");
            }
            Backend::Heap(_) => unreachable!(),
        }
    }

    #[test]
    fn keyed_pop_order_is_time_then_key_on_both_backends() {
        for mut q in [
            EventQueue::new(),
            EventQueue::heap_backed(),
            EventQueue::with_capacity(8),
        ] {
            // Keys arrive out of order; pops must follow (time, key),
            // not insertion order.
            q.schedule_keyed(Time::from_ns(5), 7, "d");
            q.schedule_keyed(Time::from_ns(5), 2, "c");
            q.schedule_keyed(Time::from_ns(1), 9, "b");
            q.schedule_keyed(Time::from_ns(1), 1, "a");
            assert_eq!(q.peek_key(), Some((Time::from_ns(1), 1)));
            let order: Vec<_> = std::iter::from_fn(|| q.pop_keyed())
                .map(|(_, k, e)| (k, e))
                .collect();
            assert_eq!(
                order,
                vec![(1, "a"), (9, "b"), (2, "c"), (7, "d")],
                "keyed order diverged"
            );
            assert_eq!(q.now(), Time::from_ns(5));
        }
    }

    #[test]
    fn peek_key_sees_bucketed_and_overflow_events() {
        let window_ps = (NUM_BUCKETS as u64) << WIDTH_SHIFT;
        for make in [EventQueue::new, EventQueue::heap_backed] {
            let mut q = make();
            q.schedule_keyed(Time::from_ps(3 * window_ps), 11, ());
            assert_eq!(q.peek_key(), Some((Time::from_ps(3 * window_ps), 11)));
            q.schedule_keyed(Time::from_ps(5 << WIDTH_SHIFT), 4, ());
            assert_eq!(q.peek_key(), Some((Time::from_ps(5 << WIDTH_SHIFT), 4)));
            // Peeking must not disturb the pop order.
            assert_eq!(q.pop_keyed().map(|(_, k, _)| k), Some(4));
            assert_eq!(q.pop_keyed().map(|(_, k, _)| k), Some(11));
            assert!(q.pop_keyed().is_none());
        }
    }

    #[test]
    #[should_panic(expected = "in the past")]
    #[cfg(debug_assertions)]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(10), ());
        q.pop();
        q.schedule(Time::from_ns(5), ());
    }
}
