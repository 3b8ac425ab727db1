//! Functional set-associative cache with true-LRU replacement.
//!
//! Tags only — the simulators never hold data. The pointer-chasing
//! comparison depends on *real* capacity/conflict behaviour (blocks that
//! fit in a level get their lines reused; bigger blocks thrash), so the
//! tag arrays are simulated exactly rather than approximated.
//!
//! Each set is a slice of packed entries `line << 2 | dirty << 1 | valid`
//! kept most-recent first: a hit moves its way to the front, an install
//! takes the first invalid way or evicts the last (least recent) one.
//! A way never becomes invalid again, so the valid ways are a prefix of
//! the set and its order is exactly true LRU. An empty cache is all
//! zeroes, so its tag array is allocated zeroed and paged in lazily.

use crate::config::CacheGeometry;

/// Result of a cache lookup+fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Line present.
    Hit,
    /// Line absent; it was installed, evicting nothing.
    Miss,
    /// Line absent; installing it evicted a clean line.
    MissEvictClean,
    /// Line absent; installing it evicted a dirty line (writeback needed).
    MissEvictDirty {
        /// The evicted line's address (line-aligned).
        line: u64,
    },
}

impl Access {
    /// Whether the lookup hit.
    pub fn is_hit(self) -> bool {
        matches!(self, Access::Hit)
    }
}

const VALID: u64 = 1;
const DIRTY: u64 = 2;

/// A set-associative, write-back, write-allocate cache level.
pub struct Cache {
    /// sets x assoc packed entries, row-major by set, each set
    /// most-recent first (see the module doc).
    tags: Vec<u64>,
    assoc: usize,
    sets: u64,
    line_shift: u32,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Build a cache with `geom`etry.
    ///
    /// # Panics
    /// Panics if the geometry has zero sets or a non-power-of-two line
    /// size. Non-power-of-two set counts are fine (indexed by modulo), as
    /// real LLCs like Sandy Bridge's 20 MiB slice-hashed L3 have them.
    pub fn new(geom: CacheGeometry) -> Self {
        let sets = geom.sets();
        assert!(sets > 0, "cache must have at least one set");
        assert!(
            geom.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        Cache {
            tags: vec![0; (sets * geom.assoc as u64) as usize],
            assoc: geom.assoc as usize,
            sets,
            line_shift: geom.line_bytes.trailing_zeros(),
            hits: 0,
            misses: 0,
        }
    }

    /// The line-aligned address containing `addr`.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift << self.line_shift
    }

    /// The set holding `addr`'s line, and the entry it has when valid
    /// and clean.
    #[inline]
    fn locate(&self, addr: u64) -> (std::ops::Range<usize>, u64) {
        let line = addr >> self.line_shift;
        debug_assert!(line < 1 << 62, "line index {line:#x} exceeds 62 bits");
        let set = (line % self.sets) as usize;
        (set * self.assoc..(set + 1) * self.assoc, line << 2 | VALID)
    }

    /// Probe without filling: true if the line holding `addr` is present
    /// (moves it to most recent, sets dirty on writes).
    pub fn probe(&mut self, addr: u64, write: bool) -> bool {
        let (range, key) = self.locate(addr);
        let set = &mut self.tags[range];
        if let Some(way) = set.iter().position(|&e| e | DIRTY == key | DIRTY) {
            let e = set[way] | (u64::from(write) * DIRTY);
            set.copy_within(..way, 1);
            set[0] = e;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        false
    }

    /// Look up `addr`; on miss, install its line (LRU victim). Returns
    /// what happened, including any dirty eviction.
    pub fn access(&mut self, addr: u64, write: bool) -> Access {
        if self.probe(addr, write) {
            return Access::Hit;
        }
        self.install(addr, write)
    }

    /// Install the line holding `addr` (no hit check — caller knows it
    /// missed). Returns the miss flavour.
    pub fn install(&mut self, addr: u64, dirty: bool) -> Access {
        debug_assert!(!self.contains(addr), "install of a resident line");
        let (range, key) = self.locate(addr);
        let set = &mut self.tags[range];
        // The first invalid way, or the least recent one when full.
        let way = set.iter().position(|&e| e == 0).unwrap_or(self.assoc - 1);
        let victim = set[way];
        set.copy_within(..way, 1);
        set[0] = key | (u64::from(dirty) * DIRTY);
        if victim == 0 {
            Access::Miss
        } else if victim & DIRTY != 0 {
            Access::MissEvictDirty {
                line: victim >> 2 << self.line_shift,
            }
        } else {
            Access::MissEvictClean
        }
    }

    /// Whether the line holding `addr` is present (no LRU side effects).
    pub fn contains(&self, addr: u64) -> bool {
        let (range, key) = self.locate(addr);
        self.tags[range].iter().any(|&e| e | DIRTY == key | DIRTY)
    }

    /// (hits, misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheGeometry;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64B lines = 256 B.
        Cache::new(CacheGeometry {
            capacity: 256,
            assoc: 2,
            line_bytes: 64,
            latency_cycles: 1,
        })
    }

    #[test]
    fn hit_after_install() {
        let mut c = tiny();
        assert!(!c.probe(0x100, false));
        c.install(0x100, false);
        assert!(c.probe(0x100, false));
        assert!(c.probe(0x13f, false), "same line, different offset");
        assert!(!c.probe(0x140, false), "next line");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines with (line_addr >> 6) even.
        c.install(0x000, false);
        c.install(0x080, false); // same set (2 sets: set = bit 6.. wait)
                                 // set index = (addr>>6) & 1, so 0x000 -> set 0, 0x080 -> set 0? 0x80>>6 = 2 -> set 0.
        assert!(c.contains(0x000) && c.contains(0x080));
        c.probe(0x000, false); // touch 0x000, making 0x080 LRU
        c.install(0x100, false); // set 0 again (0x100>>6 = 4)
        assert!(c.contains(0x000), "recently touched survives");
        assert!(!c.contains(0x080), "LRU way evicted");
    }

    #[test]
    fn dirty_eviction_reports_line() {
        let mut c = tiny();
        c.install(0x000, true); // dirty
        c.install(0x080, false);
        // Next install in set 0 must evict dirty 0x000.
        match c.install(0x100, false) {
            Access::MissEvictDirty { line } => assert_eq!(line, 0x000),
            other => panic!("expected dirty eviction, got {other:?}"),
        }
    }

    #[test]
    fn write_probe_sets_dirty() {
        let mut c = tiny();
        c.install(0x000, false);
        assert!(c.probe(0x000, true)); // write hit dirties the line
        c.install(0x080, false);
        match c.install(0x100, false) {
            Access::MissEvictDirty { line } => assert_eq!(line, 0x000),
            other => panic!("expected dirty eviction, got {other:?}"),
        }
    }

    #[test]
    fn capacity_behaviour() {
        // A working set equal to capacity hits; 2x capacity thrashes.
        let geom = CacheGeometry {
            capacity: 4096,
            assoc: 4,
            line_bytes: 64,
            latency_cycles: 1,
        };
        let mut c = Cache::new(geom);
        let lines_in_cache = 4096 / 64;
        for pass in 0..3 {
            for i in 0..lines_in_cache {
                let r = c.access(i * 64, false);
                if pass > 0 {
                    assert!(r.is_hit(), "pass {pass} line {i}");
                }
            }
        }
        // Double working set with sequential sweep: LRU thrashes to 0%.
        let mut c = Cache::new(geom);
        for _ in 0..3 {
            for i in 0..2 * lines_in_cache {
                c.access(i * 64, false);
            }
        }
        let (h, m) = c.stats();
        assert_eq!(h, 0, "sequential over-capacity sweep never hits ({h}/{m})");
    }

    #[test]
    fn stats_count() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, false);
        c.access(64, false);
        let (h, m) = c.stats();
        assert_eq!((h, m), (1, 2));
    }
}
