//! A generational slab arena for engine-owned agent state.
//!
//! Discrete-event engines carry one long-lived context per agent
//! (threadlet, CPU thread) that every event touching that agent must
//! reach. Boxing each context scatters them across the heap — every
//! event dispatch starts with a pointer chase into cold memory, and
//! every agent birth/death round-trips the allocator. An [`Arena`]
//! keeps the contexts in one flat `Vec` slab instead: events carry a
//! small [`Idx`] (slot + generation), lookups are an indexed load into
//! a contiguous slab, and dead slots are recycled through a free list
//! so steady-state churn allocates nothing.
//!
//! Generations catch use-after-free deterministically: removing a slot
//! bumps its generation, so a stale [`Idx`] held by a forgotten event
//! can never silently alias the slot's next tenant — [`Arena::get_mut`]
//! and [`Arena::remove`] return `None` for it instead.

/// Handle to one occupied arena slot: slot index plus the generation it
/// was inserted under. 8 bytes, `Copy` — cheap enough to ride inside
/// every queued event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Idx {
    slot: u32,
    gen: u32,
}

impl Idx {
    /// The raw slot number (stable for the lifetime of the entry).
    pub fn slot(self) -> u32 {
        self.slot
    }
}

#[derive(Debug)]
struct Slot<T> {
    /// Bumped on every removal; an `Idx` is live iff its generation
    /// matches the slot's current one and the value is present.
    gen: u32,
    val: Option<T>,
}

/// A flat generational arena with free-list slot reuse.
#[derive(Debug)]
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    live: usize,
}

impl<T> Arena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// An empty arena pre-sized for `n` live entries, so steady-state
    /// populations never reallocate the slab mid-run.
    pub fn with_capacity(n: usize) -> Self {
        Arena {
            slots: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
            live: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no entries are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Insert `val`, reusing the most recently freed slot if one exists
    /// (LIFO reuse keeps the hot end of the slab hot).
    pub fn insert(&mut self, val: T) -> Idx {
        self.live += 1;
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            debug_assert!(s.val.is_none(), "free list pointed at a live slot");
            s.val = Some(val);
            return Idx { slot, gen: s.gen };
        }
        let slot = self.slots.len() as u32;
        self.slots.push(Slot {
            gen: 0,
            val: Some(val),
        });
        Idx { slot, gen: 0 }
    }

    /// Shared access to the entry behind `idx`, if it is still live.
    pub fn get(&self, idx: Idx) -> Option<&T> {
        let s = self.slots.get(idx.slot as usize)?;
        if s.gen != idx.gen {
            return None;
        }
        s.val.as_ref()
    }

    /// Exclusive access to the entry behind `idx`, if it is still live.
    pub fn get_mut(&mut self, idx: Idx) -> Option<&mut T> {
        let s = self.slots.get_mut(idx.slot as usize)?;
        if s.gen != idx.gen {
            return None;
        }
        s.val.as_mut()
    }

    /// Remove and return the entry behind `idx`. The slot's generation
    /// advances and the slot joins the free list, so `idx` (and any
    /// copy of it) is dead from here on.
    pub fn remove(&mut self, idx: Idx) -> Option<T> {
        let s = self.slots.get_mut(idx.slot as usize)?;
        if s.gen != idx.gen {
            return None;
        }
        let val = s.val.take()?;
        s.gen = s.gen.wrapping_add(1);
        self.free.push(idx.slot);
        self.live -= 1;
        Some(val)
    }
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut a = Arena::new();
        let i = a.insert("x");
        let j = a.insert("y");
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(i), Some(&"x"));
        assert_eq!(a.get_mut(j).map(|v| *v), Some("y"));
        assert_eq!(a.remove(i), Some("x"));
        assert_eq!(a.len(), 1);
        assert_eq!(a.get(i), None);
        assert_eq!(a.remove(i), None);
    }

    #[test]
    fn freed_slots_are_reused_and_generations_fence_stale_handles() {
        let mut a = Arena::with_capacity(4);
        let i = a.insert(1u32);
        a.remove(i).unwrap();
        let j = a.insert(2u32);
        // LIFO reuse: the same slot, a newer generation.
        assert_eq!(j.slot(), i.slot());
        assert_ne!(i, j);
        assert_eq!(a.get(i), None, "stale handle must not alias the reuse");
        assert_eq!(a.get(j), Some(&2));
        assert!(a.slots.len() == 1, "no new slab growth on reuse");
    }

    #[test]
    fn churn_allocates_no_new_slots() {
        let mut a = Arena::new();
        let mut live: Vec<Idx> = (0..16).map(|v| a.insert(v)).collect();
        let peak = a.slots.len();
        for round in 0..100u32 {
            let idx = live.remove((round as usize * 7) % live.len());
            a.remove(idx).unwrap();
            live.push(a.insert(round));
        }
        assert_eq!(a.slots.len(), peak, "steady churn grew the slab");
        assert_eq!(a.len(), 16);
    }
}
