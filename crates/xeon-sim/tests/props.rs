//! Randomized (seeded, deterministic) tests of the CPU model's
//! invariants. Each test sweeps a fixed set of seeds so failures are
//! reproducible without any external property-testing framework.

use test_support::cases;
use xeon_sim::cache::Cache;
use xeon_sim::config::{sandy_bridge, CacheGeometry};
use xeon_sim::prelude::*;

const CASES: u64 = 64;

fn tiny_geom(assoc: u32, sets: u32) -> CacheGeometry {
    CacheGeometry {
        capacity: (assoc * sets * 64) as u64,
        assoc,
        line_bytes: 64,
        latency_cycles: 1,
    }
}

/// A cache never holds more distinct lines than its capacity, and a
/// line just installed is always present.
#[test]
fn cache_capacity_bound() {
    cases(CASES, 0xCAB, |_case, rng| {
        let assoc = rng.gen_range(1..8u32);
        let sets = rng.gen_range(1..16u32);
        let len = rng.gen_range(1..400usize);
        let addrs: Vec<u64> = (0..len).map(|_| rng.gen_range(0..1_000_000u64)).collect();
        let geom = tiny_geom(assoc, sets);
        let mut c = Cache::new(geom);
        for &a in &addrs {
            c.access(a, false);
            assert!(c.contains(a), "just-installed line missing");
        }
        // Count resident lines by probing all distinct lines we touched.
        let mut distinct: Vec<u64> = addrs.iter().map(|a| a / 64 * 64).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let resident = distinct.iter().filter(|&&l| c.contains(l)).count();
        assert!(resident as u64 <= geom.sets() * assoc as u64);
    });
}

/// hits + misses equals the number of accesses, always.
#[test]
fn cache_stats_partition() {
    cases(CASES, 0x57A7, |_case, rng| {
        let len = rng.gen_range(1..300usize);
        let addrs: Vec<u64> = (0..len).map(|_| rng.gen_range(0..100_000u64)).collect();
        let mut c = Cache::new(tiny_geom(4, 8));
        for &a in &addrs {
            c.access(a, a % 3 == 0);
        }
        let (h, m) = c.stats();
        assert_eq!(h + m, addrs.len() as u64);
    });
}

/// Within one set, an access pattern that fits the associativity
/// never misses after the warmup pass (LRU stack property).
#[test]
fn cache_lru_stack_property() {
    for assoc in 2u32..8 {
        for rounds in 2usize..6 {
            let geom = tiny_geom(assoc, 4);
            let mut c = Cache::new(geom);
            // `assoc` distinct lines in set 0 (stride = sets*64).
            let lines: Vec<u64> = (0..assoc as u64).map(|i| i * 4 * 64).collect();
            for round in 0..rounds {
                for &l in &lines {
                    let hit = c.probe(l, false);
                    if !hit {
                        c.install(l, false);
                        assert_eq!(round, 0, "miss after warmup");
                    }
                }
            }
        }
    }
}

/// The tick-stamped true-LRU cache that `Cache` replaced: one `Way`
/// per way with a timestamp of its last touch, victim = first invalid
/// way, else the smallest stamp. Kept here as the reference model.
mod reference {
    use xeon_sim::cache::Access;

    #[derive(Clone, Copy, Default)]
    struct Way {
        tag: u64,
        valid: bool,
        dirty: bool,
        lru: u64,
    }

    pub struct TickCache {
        ways: Vec<Way>,
        assoc: usize,
        sets: u64,
        tick: u64,
        hits: u64,
        misses: u64,
    }

    impl TickCache {
        pub fn new(assoc: u32, sets: u32) -> Self {
            TickCache {
                ways: vec![Way::default(); (assoc * sets) as usize],
                assoc: assoc as usize,
                sets: sets as u64,
                tick: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn set(&mut self, tag: u64) -> &mut [Way] {
            let set = (tag % self.sets) as usize;
            &mut self.ways[set * self.assoc..(set + 1) * self.assoc]
        }

        pub fn probe(&mut self, addr: u64, write: bool) -> bool {
            self.tick += 1;
            let (tag, tick) = (addr >> 6, self.tick);
            if let Some(w) = self.set(tag).iter_mut().find(|w| w.valid && w.tag == tag) {
                w.lru = tick;
                w.dirty |= write;
                self.hits += 1;
                return true;
            }
            self.misses += 1;
            false
        }

        pub fn install(&mut self, addr: u64, dirty: bool) -> Access {
            self.tick += 1;
            let (tag, tick) = (addr >> 6, self.tick);
            let set = self.set(tag);
            let w = set.iter_mut().min_by_key(|w| (w.valid, w.lru)).unwrap();
            let result = match (w.valid, w.dirty) {
                (false, _) => Access::Miss,
                (true, true) => Access::MissEvictDirty { line: w.tag << 6 },
                (true, false) => Access::MissEvictClean,
            };
            *w = Way {
                tag,
                valid: true,
                dirty,
                lru: tick,
            };
            result
        }

        pub fn access(&mut self, addr: u64, write: bool) -> Access {
            if self.probe(addr, write) {
                return Access::Hit;
            }
            self.install(addr, write)
        }

        pub fn contains(&self, addr: u64) -> bool {
            let set = ((addr >> 6) % self.sets) as usize;
            self.ways[set * self.assoc..(set + 1) * self.assoc]
                .iter()
                .any(|w| w.valid && w.tag == addr >> 6)
        }

        pub fn stats(&self) -> (u64, u64) {
            (self.hits, self.misses)
        }
    }
}

/// The recency-ordered packed cache makes exactly the choices of the
/// tick-stamped reference: same hits, same victims, same dirty
/// writebacks, same contents, at every associativity from 1 to 20 and
/// at set counts that are not powers of two. `install` is only called
/// on a line that is absent, as its contract requires.
#[test]
fn cache_matches_tick_lru_reference() {
    cases(CASES, 0xD1FF, |case, rng| {
        let assoc = (case % 20) as u32 + 1;
        let sets = [1u32, 3, 5, 6, 7, 12, 20][rng.gen_range(0..7usize)] * rng.gen_range(1..4u32);
        let mut c = Cache::new(tiny_geom(assoc, sets));
        let mut r = reference::TickCache::new(assoc, sets);
        // A footprint of about twice the capacity: hits, clean and dirty
        // evictions all occur, at byte offsets inside the lines.
        let lines = 2 * (assoc * sets) as u64 + 1;
        for step in 0..rng.gen_range(200..2000usize) {
            let addr = rng.gen_range(0..lines) * 64 + rng.gen_range(0..64u64);
            let write = rng.gen_range(0..3u32) == 0;
            match rng.gen_range(0..3u32) {
                0 => assert_eq!(c.probe(addr, write), r.probe(addr, write), "step {step}"),
                1 if !r.contains(addr) => {
                    assert_eq!(
                        c.install(addr, write),
                        r.install(addr, write),
                        "step {step}"
                    )
                }
                _ => assert_eq!(c.access(addr, write), r.access(addr, write), "step {step}"),
            }
            let probe = rng.gen_range(0..lines) * 64;
            assert_eq!(c.contains(probe), r.contains(probe), "step {step}");
            assert_eq!(c.stats(), r.stats(), "step {step}");
        }
        for line in 0..lines {
            assert_eq!(c.contains(line * 64), r.contains(line * 64), "line {line}");
        }
    });
}

/// The packed entry keeps two flag bits beside the line index, so a
/// line index must fit in 62 bits; only lines under 4 bytes can exceed it.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "exceeds 62 bits")]
fn cache_rejects_line_index_beyond_62_bits() {
    let geom = CacheGeometry {
        capacity: 6,
        assoc: 2,
        line_bytes: 1,
        latency_cycles: 1,
    };
    Cache::new(geom).probe(u64::MAX, false);
}

/// DRAM request completion is monotone when arrivals are monotone,
/// and row stats partition the accesses.
#[test]
fn dram_monotone() {
    use desim::time::Time;
    cases(CASES, 0xD7A8, |_case, rng| {
        let len = rng.gen_range(1..200usize);
        let reqs: Vec<(u64, bool)> = (0..len)
            .map(|_| (rng.gen_range(0..1u64 << 24), rng.next_u64() & 1 == 0))
            .collect();
        let mut d = xeon_sim::dram::Dram::new(sandy_bridge().dram, 64);
        let mut at = Time::ZERO;
        for (i, &(addr, w)) in reqs.iter().enumerate() {
            let addr = addr / 64 * 64;
            let done = d.request(at, addr, w);
            assert!(done > at);
            at += Time::from_ns((i % 7) as u64);
        }
        let s = d.stats();
        assert_eq!(s.reads + s.writes, reqs.len() as u64);
        assert_eq!(s.row_hits + s.row_misses, reqs.len() as u64);
        let r = s.row_hit_rate();
        assert!((0.0..=1.0).contains(&r));
    });
}

/// The engine terminates for arbitrary single-thread programs and
/// counts every load at exactly one level.
#[test]
fn cpu_engine_levels_partition() {
    cases(CASES, 0x1E7E15, |_case, rng| {
        let len = rng.gen_range(1..200usize);
        let ops: Vec<(u64, u8)> = (0..len)
            .map(|_| (rng.gen_range(0..1u64 << 20), rng.gen_range(0..3u32) as u8))
            .collect();
        let mut e = CpuEngine::new(sandy_bridge());
        let script: Vec<CpuOp> = ops
            .iter()
            .map(|&(addr, kind)| {
                let addr = addr / 8 * 8; // aligned, never line-crossing
                match kind {
                    0 => CpuOp::Load { addr, bytes: 8 },
                    1 => CpuOp::Store { addr, bytes: 8 },
                    _ => CpuOp::Compute { cycles: 3 },
                }
            })
            .collect();
        let loads = ops.iter().filter(|&&(_, k)| k == 0).count() as u64;
        e.add_thread(Box::new(CpuScript::new(script)));
        let r = e.run();
        r.audit().unwrap();
        let c = &r.counters;
        assert_eq!(
            c.l1_hits + c.l2_hits + c.l3_hits + c.prefetch_hits + c.dram_loads,
            loads
        );
    });
}

/// Determinism of the CPU engine under arbitrary multi-thread loads.
#[test]
fn cpu_engine_deterministic() {
    cases(16, 0xDE7C, |_case, rng| {
        let nthreads = rng.gen_range(1..4usize);
        let seqs: Vec<Vec<u64>> = (0..nthreads)
            .map(|_| {
                let len = rng.gen_range(1..50usize);
                (0..len).map(|_| rng.gen_range(0..1u64 << 18)).collect()
            })
            .collect();
        let run = || {
            let mut e = CpuEngine::new(sandy_bridge());
            for s in &seqs {
                let script: Vec<CpuOp> = s
                    .iter()
                    .map(|&a| CpuOp::Load {
                        addr: a / 8 * 8,
                        bytes: 8,
                    })
                    .collect();
                e.add_thread(Box::new(CpuScript::new(script)));
            }
            e.run().makespan
        };
        assert_eq!(run(), run());
    });
}
