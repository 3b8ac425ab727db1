//! The CPU discrete-event engine: stall-on-use threads over a functional
//! cache hierarchy, a stream prefetcher, and the banked open-page DRAM.
//!
//! Unlike the Emu engine, there is no thread migration and no slot
//! management: a thread is pinned to core `tid % cores` and every memory
//! access resolves through that core's L1/L2, the shared L3, the
//! in-flight prefetch table, and finally DRAM.

use crate::cache::{Access, Cache};
use crate::config::CpuConfig;
use crate::dram::{Dram, DramStats};
use crate::kernel::{CpuCtx, CpuKernel, CpuOp, CpuThreadId};
use crate::prefetch::Prefetcher;
use desim::queue::EventQueue;
use desim::server::FifoServer;
use desim::time::Time;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for the in-flight map's line-index keys: one folded 64x64-bit
/// multiply, deterministic and far cheaper than SipHash.
#[derive(Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("line keys hash as u64");
    }
    fn write_u64(&mut self, line: u64) {
        let p = u128::from(line) * 0x9E37_79B9_7F4A_7C15;
        self.0 = p as u64 ^ (p >> 64) as u64;
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Aggregate counters for one run.
#[derive(Debug, Clone, Default)]
pub struct CpuCounters {
    /// Demand loads that hit L1 / L2 / L3 / an in-flight prefetch / DRAM.
    pub l1_hits: u64,
    /// See [`CpuCounters::l1_hits`].
    pub l2_hits: u64,
    /// See [`CpuCounters::l1_hits`].
    pub l3_hits: u64,
    /// Demand loads satisfied by an in-flight (or just-landed) prefetch.
    pub prefetch_hits: u64,
    /// Demand loads that went all the way to DRAM.
    pub dram_loads: u64,
    /// Stores executed (cached path).
    pub stores: u64,
    /// Non-temporal stores executed.
    pub nt_stores: u64,
    /// Dirty-line writebacks sent to DRAM.
    pub writebacks: u64,
    /// Prefetch requests the streamers issued; those for lines already
    /// in L3 never reach DRAM.
    pub prefetches: u64,
}

/// Report of one CPU engine run.
#[derive(Debug, Clone)]
pub struct CpuReport {
    /// Time of the final event.
    pub makespan: Time,
    /// Demand/prefetch counters.
    pub counters: CpuCounters,
    /// DRAM subsystem counters.
    pub dram: DramStats,
    /// Aggregate DRAM bus utilization over the run.
    pub dram_bus_utilization: f64,
    /// Number of software threads run.
    pub threads: u64,
}

impl CpuReport {
    /// Bandwidth for an externally accounted (semantic) byte count.
    pub fn bandwidth_for(&self, semantic_bytes: u64) -> desim::stats::Bandwidth {
        desim::stats::Bandwidth::from_bytes(semantic_bytes, self.makespan)
    }

    /// Bytes physically moved to/from DRAM (lines x 64 B).
    pub fn dram_bytes(&self, line_bytes: u64) -> u64 {
        (self.dram.reads + self.dram.writes) * line_bytes
    }

    /// Check the conservation laws between the counters; `Err` names
    /// the first one broken.
    pub fn audit(&self) -> Result<(), String> {
        const LAWS: [&str; 6] = [
            "row hits + row misses = DRAM reads + writes",
            "demand loads <= DRAM reads <= demand loads + prefetches + stores",
            "prefetch hits <= prefetches",
            "writebacks <= DRAM writes",
            "DRAM writes <= writebacks + NT stores",
            "bus utilization in [0, 1]",
        ];
        let (c, d) = (&self.counters, &self.dram);
        let holds = [
            d.row_hits + d.row_misses == d.reads + d.writes,
            (c.dram_loads..=c.dram_loads + c.prefetches + c.stores).contains(&d.reads),
            c.prefetch_hits <= c.prefetches,
            c.writebacks <= d.writes,
            d.writes <= c.writebacks + c.nt_stores,
            (0.0..=1.0).contains(&self.dram_bus_utilization),
        ];
        match holds.iter().position(|ok| !ok) {
            Some(i) => Err(format!("{} broken: {self:?}", LAWS[i])),
            None => Ok(()),
        }
    }
}

enum Event {
    Ready(CpuThreadId),
}

struct Thread {
    kernel: Option<Box<dyn CpuKernel>>,
    core: u32,
    /// Line currently merging in this thread's write-combining buffer.
    nt_line: Option<u64>,
}

/// The CPU machine simulator.
pub struct CpuEngine {
    cfg: CpuConfig,
    q: EventQueue<Event>,
    threads: Vec<Thread>,
    cores: Vec<FifoServer>,
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    l3: Cache,
    dram: Dram,
    prefetchers: Vec<Prefetcher>,
    /// Prefetched lines not yet used by a demand load: line index -> the
    /// time their data arrives (their L3 tags are installed at issue).
    inflight: HashMap<u64, Time, BuildHasherDefault<LineHasher>>,
    counters: CpuCounters,
    live: u64,
}

impl CpuEngine {
    /// Build an engine over `cfg`.
    ///
    /// # Panics
    /// Panics if the configuration fails validation.
    pub fn new(cfg: CpuConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid CpuConfig: {e}");
        }
        let cores = cfg.cores as usize;
        CpuEngine {
            q: EventQueue::new(),
            threads: Vec::new(),
            cores: (0..cores).map(|_| FifoServer::new()).collect(),
            l1: (0..cores).map(|_| Cache::new(cfg.l1)).collect(),
            l2: (0..cores).map(|_| Cache::new(cfg.l2)).collect(),
            l3: Cache::new(cfg.l3),
            dram: Dram::new(cfg.dram, cfg.l1.line_bytes),
            prefetchers: (0..cores).map(|_| Prefetcher::new(cfg.prefetch)).collect(),
            inflight: HashMap::default(),
            counters: CpuCounters::default(),
            live: 0,
            cfg,
        }
    }

    /// The platform configuration.
    pub fn cfg(&self) -> &CpuConfig {
        &self.cfg
    }

    /// Add a software thread (pinned to core `index % cores`).
    pub fn add_thread(&mut self, kernel: Box<dyn CpuKernel>) -> CpuThreadId {
        let tid = CpuThreadId(self.threads.len() as u32);
        let core = tid.0 % self.cfg.cores;
        self.threads.push(Thread {
            kernel: Some(kernel),
            core,
            nt_line: None,
        });
        self.live += 1;
        self.q.schedule(Time::ZERO, Event::Ready(tid));
        tid
    }

    /// Run all threads to completion.
    pub fn run(mut self) -> CpuReport {
        while let Some((now, Event::Ready(tid))) = self.q.pop() {
            self.step_thread(tid, now);
        }
        assert_eq!(self.live, 0, "threads leaked");
        let makespan = self.q.now();
        self.counters.prefetches = self.prefetchers.iter().map(Prefetcher::issued).sum();
        CpuReport {
            makespan,
            counters: self.counters.clone(),
            dram: self.dram.stats(),
            dram_bus_utilization: self.dram.bus_utilization(makespan),
            threads: self.threads.len() as u64,
        }
    }

    fn step_thread(&mut self, tid: CpuThreadId, now: Time) {
        let core = self.threads[tid.0 as usize].core;
        let ctx = CpuCtx { tid, core, now };
        let op = self.threads[tid.0 as usize]
            .kernel
            .as_mut()
            .expect("live thread has a kernel")
            .step(&ctx);
        match op {
            CpuOp::Compute { cycles } => {
                let grant = self.cores[core as usize].offer(now, self.cfg.cycles(cycles));
                self.q.schedule(grant.done, Event::Ready(tid));
            }
            CpuOp::Load { addr, bytes } => {
                self.assert_in_line(addr, bytes);
                let (latency, avail) = self.demand_load(core, addr, now);
                // Issue occupies the core for one cycle; the thread
                // resumes when the data is back.
                let grant = self.cores[core as usize].offer(now, self.cfg.cycles(1));
                let done = avail.max(grant.done) + self.cfg.cycles(latency);
                self.q.schedule(done, Event::Ready(tid));
            }
            CpuOp::Store { addr, bytes } => {
                self.assert_in_line(addr, bytes);
                self.counters.stores += 1;
                let hit = self.store_allocate(core, addr, now);
                let stall = if hit {
                    1
                } else {
                    self.cfg.store_miss_stall_cycles
                };
                let grant = self.cores[core as usize].offer(now, self.cfg.cycles(stall));
                self.q.schedule(grant.done, Event::Ready(tid));
            }
            CpuOp::StoreNt { addr, bytes } => {
                self.assert_in_line(addr, bytes);
                self.counters.nt_stores += 1;
                // Write-combining buffer: consecutive NT stores to one
                // line merge; DRAM is charged once per distinct line.
                let line = self.l3.line_of(addr);
                if self.threads[tid.0 as usize].nt_line != Some(line) {
                    self.threads[tid.0 as usize].nt_line = Some(line);
                    let _ = self.dram.request(now, addr, true);
                }
                let grant = self.cores[core as usize].offer(now, self.cfg.cycles(1));
                self.q.schedule(grant.done, Event::Ready(tid));
            }
            CpuOp::Quit => {
                self.threads[tid.0 as usize].kernel = None;
                self.live -= 1;
            }
        }
    }

    fn assert_in_line(&self, addr: u64, bytes: u32) {
        let line = self.cfg.l1.line_bytes as u64;
        assert!(bytes > 0 && bytes as u64 <= line, "access size {bytes}");
        assert_eq!(
            addr / line,
            (addr + bytes as u64 - 1) / line,
            "access {addr:#x}+{bytes} crosses a cache line"
        );
    }

    /// Resolve a demand load: returns the load-to-use latency in cycles of
    /// the level that answered (L3's for an in-flight prefetch or DRAM)
    /// and the time the line is available at L1.
    fn demand_load(&mut self, core: u32, addr: u64, now: Time) -> (u32, Time) {
        let c = core as usize;
        if self.l1[c].probe(addr, false) {
            self.counters.l1_hits += 1;
            return (self.cfg.l1.latency_cycles, now);
        }
        if self.l2[c].probe(addr, false) {
            self.counters.l2_hits += 1;
            self.fill_l1(c, addr, false);
            return (self.cfg.l2.latency_cycles, now);
        }
        let line_bytes = self.cfg.l1.line_bytes as u64;
        let line_idx = addr / line_bytes;
        if self.l3.probe(addr, false) {
            // Present in L3 — possibly a prefetch still in flight (the
            // tag is installed at prefetch-issue time; the data arrives
            // at its recorded fill time).
            if let Some(fill) = self.inflight.remove(&line_idx) {
                self.counters.prefetch_hits += 1;
                // Prefetch hits keep training the streamer, so confirmed
                // streams run ahead continuously instead of stalling at
                // each horizon.
                self.train_and_prefetch(c, line_idx, now);
                self.fill_l2(c, addr, false);
                self.fill_l1(c, addr, false);
                return (self.cfg.l3.latency_cycles, fill.max(now));
            }
            self.counters.l3_hits += 1;
            self.fill_l2(c, addr, false);
            self.fill_l1(c, addr, false);
            return (self.cfg.l3.latency_cycles, now);
        }
        // Miss everywhere. Any in-flight record for this line is stale
        // (the tag was evicted before the data was ever used).
        self.inflight.remove(&line_idx);
        self.train_and_prefetch(c, line_idx, now);
        self.gc_inflight(now);
        self.counters.dram_loads += 1;
        let fill = self.dram.request(now, addr, false);
        self.install_all(c, addr, false);
        (self.cfg.l3.latency_cycles, fill)
    }

    /// Feed the streamer one access and issue whatever it asks for.
    /// Prefetched lines install their L3 tags immediately — and are
    /// therefore subject to normal capacity eviction, so prefetching far
    /// ahead of use buys nothing once the intervening working set
    /// exceeds the LLC.
    fn train_and_prefetch(&mut self, c: usize, line_idx: u64, now: Time) {
        let line_bytes = self.cfg.l1.line_bytes as u64;
        for pf_line in self.prefetchers[c].on_miss(line_idx) {
            let pf_addr = pf_line * line_bytes;
            if self.l3.contains(pf_addr) {
                continue;
            }
            let fill = self.dram.request(now, pf_addr, false);
            self.fill_l3(pf_addr, false);
            self.inflight.insert(pf_line, fill);
        }
    }

    /// Bound the in-flight map by dropping entries whose fill time has
    /// passed. Forgetting them is not free of effect: a later demand hit
    /// on a dropped line still in L3 counts as an `l3_hits`, not a
    /// `prefetch_hits`, and does not retrain the streamer. Keep it byte
    /// for byte; any change moves counts and timings of large runs.
    fn gc_inflight(&mut self, now: Time) {
        if self.inflight.len() > 1 << 18 {
            self.inflight.retain(|_, &mut fill| fill > now);
        }
    }

    /// Write-allocate store path; returns whether it hit in L1 or L2.
    fn store_allocate(&mut self, core: u32, addr: u64, now: Time) -> bool {
        let c = core as usize;
        if self.l1[c].probe(addr, true) {
            return true;
        }
        if self.l2[c].probe(addr, true) {
            self.fill_l1(c, addr, true);
            return true;
        }
        if self.l3.probe(addr, true) {
            self.fill_l2(c, addr, true);
            self.fill_l1(c, addr, true);
            return false;
        }
        // Read-for-ownership from DRAM (fire and forget for timing; the
        // store buffer hides most of it, modeled by the fixed stall).
        let _ = self.dram.request(now, addr, false);
        self.install_all(c, addr, true);
        false
    }

    fn install_all(&mut self, c: usize, addr: u64, dirty: bool) {
        self.fill_l3(addr, dirty);
        self.fill_l2(c, addr, dirty);
        self.fill_l1(c, addr, dirty);
    }

    fn fill_l1(&mut self, c: usize, addr: u64, dirty: bool) {
        if let Access::MissEvictDirty { line } = self.l1[c].install(addr, dirty) {
            // Dirty L1 victims write back into L2.
            self.l2[c].probe(line, true);
        }
    }

    fn fill_l2(&mut self, c: usize, addr: u64, dirty: bool) {
        if let Access::MissEvictDirty { line } = self.l2[c].install(addr, dirty) {
            self.l3.probe(line, true);
        }
    }

    fn fill_l3(&mut self, addr: u64, dirty: bool) {
        if let Access::MissEvictDirty { line } = self.l3.install(addr, dirty) {
            self.counters.writebacks += 1;
            let _ = self.dram.request(self.q.now(), line, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::sandy_bridge;
    use crate::kernel::CpuScript;

    fn run_ops(ops: Vec<CpuOp>) -> CpuReport {
        let mut e = CpuEngine::new(sandy_bridge());
        e.add_thread(Box::new(CpuScript::new(ops)));
        let r = e.run();
        r.audit().unwrap();
        r
    }

    #[test]
    fn repeat_loads_hit_l1() {
        let r = run_ops(vec![
            CpuOp::Load {
                addr: 0x1000,
                bytes: 8,
            },
            CpuOp::Load {
                addr: 0x1008,
                bytes: 8,
            },
            CpuOp::Load {
                addr: 0x1010,
                bytes: 8,
            },
        ]);
        assert_eq!(r.counters.dram_loads, 1);
        assert_eq!(r.counters.l1_hits, 2);
    }

    #[test]
    fn dram_load_is_slow_l1_hit_is_fast() {
        let miss = run_ops(vec![CpuOp::Load {
            addr: 0x1000,
            bytes: 8,
        }])
        .makespan;
        let hit2 = run_ops(vec![
            CpuOp::Load {
                addr: 0x1000,
                bytes: 8,
            },
            CpuOp::Load {
                addr: 0x1000,
                bytes: 8,
            },
        ])
        .makespan;
        // The second (L1-hit) load adds far less than the first.
        assert!(hit2 - miss < miss / 4, "miss {miss}, +hit {hit2}");
        // A cold DRAM load costs tens of ns.
        assert!(
            miss > Time::from_ns(40) && miss < Time::from_ns(400),
            "{miss}"
        );
    }

    #[test]
    fn sequential_loads_trigger_prefetch() {
        let ops: Vec<CpuOp> = (0..64u64)
            .map(|i| CpuOp::Load {
                addr: i * 64,
                bytes: 8,
            })
            .collect();
        let r = run_ops(ops);
        assert!(r.counters.prefetches > 0, "prefetcher silent");
        assert!(
            r.counters.prefetch_hits > 30,
            "few prefetch hits: {:?}",
            r.counters
        );
        // Far fewer demand DRAM loads than lines.
        assert!(r.counters.dram_loads < 10, "{:?}", r.counters);
    }

    #[test]
    fn random_loads_defeat_prefetcher() {
        let addrs = desim::rng::uniform_indices(256, 1 << 30, 42);
        let ops: Vec<CpuOp> = addrs
            .iter()
            .map(|&a| CpuOp::Load {
                addr: (a / 64) * 64,
                bytes: 8,
            })
            .collect();
        let r = run_ops(ops);
        assert_eq!(r.counters.prefetch_hits, 0);
        assert!(r.counters.dram_loads as usize > 200);
    }

    #[test]
    fn store_then_load_hits() {
        let r = run_ops(vec![
            CpuOp::Store {
                addr: 0x2000,
                bytes: 8,
            },
            CpuOp::Load {
                addr: 0x2000,
                bytes: 8,
            },
        ]);
        assert_eq!(r.counters.l1_hits, 1);
        assert_eq!(r.counters.stores, 1);
    }

    #[test]
    fn nt_stores_bypass_cache() {
        let r = run_ops(vec![
            CpuOp::StoreNt {
                addr: 0x3000,
                bytes: 8,
            },
            CpuOp::Load {
                addr: 0x3000,
                bytes: 8,
            },
        ]);
        // The NT store did not allocate, so the load misses to DRAM.
        assert_eq!(r.counters.dram_loads, 1);
        assert_eq!(r.counters.nt_stores, 1);
        assert!(r.dram.writes >= 1);
    }

    #[test]
    fn capacity_thrash_produces_writebacks() {
        // Dirty a working set far beyond L3 (20 MiB): sweep 40 MiB twice.
        let line = 64u64;
        let lines = (40 << 20) / line;
        let mut ops = Vec::new();
        for pass in 0..2 {
            let _ = pass;
            for i in (0..lines).step_by(64) {
                ops.push(CpuOp::Store {
                    addr: i * line,
                    bytes: 8,
                });
            }
        }
        let r = run_ops(ops);
        assert!(r.counters.writebacks > 0, "{:?}", r.counters);
    }

    #[test]
    fn audit_names_each_broken_law() {
        let good = run_ops(
            (0..256u64)
                .map(|i| CpuOp::Load {
                    addr: i * 64,
                    bytes: 8,
                })
                .collect(),
        );
        type Tamper = (fn(&mut CpuReport), &'static str);
        let tamper: [Tamper; 6] = [
            (|r| r.dram.row_hits += 1, "row hits"),
            (
                |r| r.counters.dram_loads = r.dram.reads + 1,
                "demand loads <=",
            ),
            (
                |r| r.counters.prefetch_hits += r.counters.prefetches + 1,
                "prefetch hits",
            ),
            (
                |r| r.counters.writebacks = r.dram.writes + 1,
                "writebacks <=",
            ),
            (
                |r| {
                    r.dram.writes += 1;
                    r.dram.row_misses += 1;
                },
                "DRAM writes <=",
            ),
            (|r| r.dram_bus_utilization = 1.5, "bus utilization"),
        ];
        for (f, law) in tamper {
            let mut r = good.clone();
            f(&mut r);
            let err = r.audit().unwrap_err();
            assert!(err.starts_with(law), "{law}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "crosses a cache line")]
    fn line_crossing_rejected() {
        run_ops(vec![CpuOp::Load { addr: 60, bytes: 8 }]);
    }

    #[test]
    fn deterministic() {
        let mk = || {
            run_ops(
                (0..128u64)
                    .map(|i| CpuOp::Load {
                        addr: i * 128,
                        bytes: 8,
                    })
                    .collect(),
            )
        };
        assert_eq!(mk().makespan, mk().makespan);
    }
}
