//! `daemon-mixed`: an in-process `simd` server on loopback, a pool of
//! one worker per client connection (2, or 1 on a 1-core host) and the
//! result cache armed on a fresh directory.
//!
//! Load is a closed loop of those client connections, each sending its next
//! request only after the reply. The request list comes from the seed:
//! about half are fresh `stream`, `case` and `scenario_point` specs
//! (cold or warm pool runs, and cache writes for the cacheable ones);
//! the rest repeat an earlier cacheable request of the same connection,
//! so they are served from the cache at admission. This is the only
//! workload on `simd` queueing, protocol, server and `runcache`.

use crate::stats::percentile;
use crate::trace::{span, Tracer};
use crate::{Inputs, PassOut, Workload};
use desim::rng::Rng64;
use emu_core::jsonread::{self, Value};
use emu_core::obs;
use simd::exec::{execute, WarmSlot};
use simd::pool::PoolConfig;
use simd::proto::{report_slice, run_request_line, RunRequest, Spec};
use simd::server::{serve_with, ServeOpts, ServeSummary};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::Instant;

/// Requests in one pass of the closed loop.
const REQUESTS: usize = 64;

pub struct Daemon {
    specs: Vec<Spec>,
    root: PathBuf,
    addr: SocketAddr,
    server: Option<JoinHandle<Result<ServeSummary, String>>>,
    conns: Vec<(BufReader<TcpStream>, TcpStream)>,
    passes: u64,
    /// Report bytes of each request in the first pass, for the check
    /// against a direct execution after the timed window.
    first: Vec<String>,
    corrupt: Option<usize>,
}

fn pick(rng: &mut Rng64, xs: &[&str]) -> String {
    xs[rng.gen_below(xs.len() as u64) as usize].to_string()
}

/// What a request slot in the list holds.
#[derive(Clone, Copy)]
enum Kind {
    Stream,
    Case,
    Point,
    Repeat,
}

/// The seeded request list for `conns` connections. Each connection
/// gets the same mix: half fresh requests (a quarter `stream`, an
/// eighth each `case` and `scenario_point`) and half repeats of its own
/// earlier cacheable ones, in a seeded order that opens with a fresh
/// `stream`. Fixing the mix keeps the work per pass
/// steady across seeds; the seed picks the order and every parameter.
/// `registry` holds `(scenario text, point count)` of the scenarios
/// `scenario_point` requests draw from.
fn requests(seed: u64, conns: usize, registry: &[(String, usize)]) -> Vec<Spec> {
    let mut rng = Rng64::new(seed);
    let per_conn = REQUESTS / conns;
    let mut plans: Vec<Vec<Kind>> = Vec::new();
    for _ in 0..conns {
        let mix = [
            (Kind::Stream, per_conn / 4 - 1),
            (Kind::Case, per_conn / 8),
            (Kind::Point, per_conn / 8),
        ];
        let mut kinds: Vec<Kind> = mix
            .into_iter()
            .flat_map(|(k, n)| std::iter::repeat_n(k, n))
            .collect();
        kinds.resize(per_conn - 1, Kind::Repeat);
        rng.shuffle(&mut kinds);
        kinds.insert(0, Kind::Stream);
        plans.push(kinds);
    }
    let mut specs: Vec<Spec> = Vec::with_capacity(REQUESTS);
    // Cacheable requests already sent, per connection.
    let mut cacheable: Vec<Vec<usize>> = vec![Vec::new(); conns];
    for i in 0..REQUESTS {
        let conn = i % conns;
        let spec = match plans[conn][i / conns] {
            Kind::Repeat => {
                let mine = &cacheable[conn];
                specs.push(specs[mine[rng.gen_below(mine.len() as u64) as usize]].clone());
                continue;
            }
            Kind::Stream => Spec::Stream {
                preset: pick(&mut rng, &["chick", "chick-sim", "full-speed"]),
                // Distinct per request, so a fresh request never hits;
                // sizes and spawn trees kept alike, so the seed moves
                // the mix and not the work per request.
                elems: 4096 + 16 * i as u64,
                threads: 32,
                kernel: pick(&mut rng, &["add", "copy", "scale", "triad"]),
                strategy: pick(&mut rng, &["recursive", "recursive-remote"]),
                single_nodelet: false,
                stack_touch_period: 0,
            },
            Kind::Case => Spec::Case {
                text: conformance::fuzz::encode(&conformance::fuzz::gen_case(&mut rng)),
            },
            Kind::Point => {
                let (text, n) = &registry[rng.gen_below(registry.len() as u64) as usize];
                Spec::ScenarioPoint {
                    text: text.clone(),
                    index: rng.gen_below(*n as u64) as usize,
                }
            }
        };
        if !matches!(spec, Spec::ScenarioPoint { .. }) {
            cacheable[conn].push(i);
        }
        specs.push(spec);
    }
    specs
}

/// Scenarios light enough for a daemon request: STREAM and script
/// workloads on the Chick presets, without sim-thread fingerprints.
fn registry() -> Result<Vec<(String, usize)>, String> {
    let mut out = Vec::new();
    let mut names: Vec<PathBuf> = std::fs::read_dir("scenarios")
        .map_err(|e| format!("scenarios/: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .collect();
    names.sort();
    for path in names {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path:?}: {e}"))?;
        let s = scenario::parse(&text)?;
        let light = matches!(
            s.workload.kind,
            scenario::WorkloadKind::Stream | scenario::WorkloadKind::Script
        ) && s.preset != "emu64"
            && !s
                .expect
                .iter()
                .any(|e| matches!(e, scenario::Expect::ByteIdentical { .. }));
        if light {
            let n = scenario::resolve(&s)?.len();
            out.push((text, n));
        }
    }
    if out.is_empty() {
        return Err("no light scenarios in scenarios/".into());
    }
    Ok(out)
}

static ROOT_SEQ: AtomicU64 = AtomicU64::new(0);

impl Daemon {
    /// Generate the request list, start the server with a pool of
    /// `conns` workers, connect `conns` clients and warm each connection
    /// with a `health` round trip.
    pub fn setup(seed: u64, conns: usize, inputs: &mut Inputs) -> Result<Daemon, String> {
        let specs = inputs.build(|| registry().map(|r| requests(seed, conns, &r)))?;
        for spec in &specs {
            inputs.digest.add(format!("{spec:?}").as_bytes());
        }
        let root = PathBuf::from(".perfbench").join(format!(
            "daemon-{}-{}",
            std::process::id(),
            ROOT_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&root).map_err(|e| format!("{root:?}: {e}"))?;
        runcache::set_enabled(true);
        let opts = ServeOpts {
            addr: "127.0.0.1:0".into(),
            pool: PoolConfig {
                workers: conns,
                queue_cap: 2 * conns + 4,
                default_deadline_ms: 0,
                default_max_events: 0,
                selfcheck: false,
            },
            drain_ms: 10_000,
            max_conns: conns + 1,
            telemetry_path: None,
            handle_signals: false,
            metrics_addr: None,
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let server = std::thread::spawn(move || {
            serve_with(opts, |addr| {
                let _ = tx.send(addr);
            })
        });
        let addr = match rx.recv() {
            Ok(a) => a,
            Err(_) => {
                let why = server.join().map_err(|_| "server panicked".to_string())?;
                return Err(format!("server did not start: {:?}", why.err()));
            }
        };
        let mut d = Daemon {
            specs,
            root,
            addr,
            server: Some(server),
            conns: Vec::new(),
            passes: 0,
            first: Vec::new(),
            corrupt: None,
        };
        for c in 0..conns {
            let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
            d.conns.push((reader, stream));
            let reply = round_trip(
                &mut d.conns[c],
                &format!("{{\"op\":\"health\",\"id\":{c}}}"),
            )?;
            if !reply.contains("\"ok\":true") {
                return Err(format!("health: {reply}"));
            }
        }
        Ok(d)
    }

    /// Self-test hook: damage the report in the reply to request `i`.
    pub fn corrupt_request(&mut self, i: usize) {
        self.corrupt = Some(i);
    }

    fn shutdown(&mut self) -> Result<(), String> {
        self.conns.clear();
        let mut conn = {
            let s = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            (BufReader::new(s.try_clone().map_err(|e| e.to_string())?), s)
        };
        round_trip(&mut conn, "{\"op\":\"shutdown\",\"id\":0}")?;
        let summary = match self.server.take() {
            Some(h) => h.join().map_err(|_| "server panicked".to_string())??,
            None => return Ok(()),
        };
        if !summary.drained || !summary.violations.is_empty() {
            return Err(format!("drain: {}", summary.json()));
        }
        Ok(())
    }
}

fn round_trip(conn: &mut (BufReader<TcpStream>, TcpStream), line: &str) -> Result<String, String> {
    let (reader, writer) = conn;
    writer
        .write_all(format!("{line}\n").as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| format!("send: {e}"))?;
    let mut reply = String::new();
    reader
        .read_line(&mut reply)
        .map_err(|e| format!("recv: {e}"))?;
    if reply.is_empty() {
        return Err("connection closed".into());
    }
    Ok(reply.trim_end().to_string())
}

/// Simulated memory bytes a reply's report records: `totals.bytes` of a
/// run report, or the `bytes` metric of a scenario point outcome.
fn report_bytes(report: &str) -> u64 {
    let Ok(v) = jsonread::parse(report) else {
        return 0;
    };
    let from = |outer: &str| {
        v.get(outer)
            .and_then(|o| o.get("bytes"))
            .and_then(Value::as_f64)
    };
    from("totals").or_else(|| from("metrics")).unwrap_or(0.0) as u64
}

fn delta_quantile_ms(d: &obs::Snapshot, name: &str, q: f64) -> f64 {
    d.hist(name).map_or(0.0, |h| h.quantile(q) as f64 * 1e-6)
}

impl Workload for Daemon {
    fn pass(&mut self, tr: Option<&Tracer>) -> PassOut {
        let dir = self.root.join(format!("pass-{}", self.passes));
        self.passes += 1;
        runcache::set_dir(Some(&dir));
        let before = obs::snapshot();
        let cache_before = runcache::session_stats();
        let lines: Vec<String> = self
            .specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                run_request_line(&RunRequest {
                    id: i as u64 + 1,
                    spec: spec.clone(),
                    deadline_ms: None,
                    max_events: None,
                    chaos: None,
                })
            })
            .collect();
        let t0 = Instant::now();
        let mut replies: Vec<(f64, Result<String, String>)> = Vec::new();
        let conns = self.conns.len();
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    let lines = &lines;
                    scope.spawn(move || {
                        let mut got = Vec::new();
                        for i in (c..lines.len()).step_by(conns) {
                            let start = Instant::now();
                            let reply = match tr {
                                None => round_trip(conn, &lines[i]),
                                Some(t) => {
                                    let root = t.open("request", 0, i as u32);
                                    let r =
                                        span(tr, "simd.round_trip", root.id(), i as u32, || {
                                            round_trip(conn, &lines[i])
                                        });
                                    t.close(root);
                                    r
                                }
                            };
                            got.push((i, start.elapsed().as_secs_f64() * 1e3, reply));
                        }
                        got
                    })
                })
                .collect();
            let mut all: Vec<(usize, f64, Result<String, String>)> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("client threads do not panic"))
                .collect();
            all.sort_by_key(|(i, ..)| *i);
            replies = all.into_iter().map(|(_, ms, r)| (ms, r)).collect();
        });
        let mut pass = PassOut::new(t0.elapsed().as_secs_f64());
        let delta = obs::snapshot().delta(&before);
        let cache = runcache::session_stats();
        let (mut cached_ms, mut fresh_ms) = (Vec::new(), Vec::new());
        let mut reports = Vec::with_capacity(replies.len());
        for (i, (ms, reply)) in replies.into_iter().enumerate() {
            pass.ops_ms.push(ms);
            let mut reply = reply.unwrap_or_else(|e| format!("{{\"ok\":false,\"error\":\"{e}\"}}"));
            if self.corrupt == Some(i) {
                reply = reply.replacen("\"report\":{", "\"report\":{\"corrupted\":1,", 1);
            }
            let report = match report_slice(&reply) {
                Some(r) if reply.contains("\"ok\":true") => r.to_string(),
                _ => {
                    eprintln!("perfbench: request {i} failed: {reply}");
                    pass.failed += 1;
                    String::new()
                }
            };
            if reply.contains("\"cached\":true") {
                cached_ms.push(ms);
            } else {
                fresh_ms.push(ms);
            }
            pass.digest.add(report.as_bytes());
            pass.sim_bytes += report_bytes(&report);
            reports.push(report);
        }
        if self.first.is_empty() {
            self.first = reports;
        }
        let n = self.specs.len() as f64;
        let c = |name: &str| delta.counter(name) as f64;
        let warm = c("simd_pool_warm_hits_total");
        let cold = c("simd_pool_cold_builds_total");
        let lookups = (cache.hits + cache.misses - cache_before.hits - cache_before.misses) as f64;
        for (k, v) in [
            (
                "simd.queue_wait_p50_ms",
                delta_quantile_ms(&delta, "simd_pool_queue_wait_ns", 0.5),
            ),
            (
                "simd.queue_wait_p99_ms",
                delta_quantile_ms(&delta, "simd_pool_queue_wait_ns", 0.99),
            ),
            (
                "simd.execute_p50_ms",
                delta_quantile_ms(&delta, "simd_pool_execute_ns", 0.5),
            ),
            (
                "simd.warm_ratio",
                if warm + cold > 0.0 {
                    warm / (warm + cold)
                } else {
                    0.0
                },
            ),
            ("simd.rejected_busy", c("simd_pool_rejected_busy_total")),
            (
                "simd.bytes_out_per_req",
                c("simd_server_bytes_out_total") / n,
            ),
            (
                "runcache.hit_ratio",
                if lookups > 0.0 {
                    (cache.hits - cache_before.hits) as f64 / lookups
                } else {
                    0.0
                },
            ),
            (
                "runcache.store_kb",
                (cache.bytes_written - cache_before.bytes_written) as f64 / 1024.0,
            ),
            ("daemon.req_cached_p50_ms", percentile(&cached_ms, 0.5)),
            ("daemon.req_fresh_p50_ms", percentile(&fresh_ms, 0.5)),
        ] {
            pass.layer.insert(k, v);
        }
        *pass.counts.entry("daemon.cached_replies").or_default() += cached_ms.len() as u64;
        let _ = std::fs::remove_dir_all(&dir);
        pass
    }

    /// After the timed window: each distinct request's reply must equal
    /// a direct `simd::exec::execute` of the same spec; then drain.
    fn finish(&mut self) -> (u64, u64) {
        let (mut attempted, mut failed) = (0, 0);
        let mut seen = std::collections::HashSet::new();
        for (i, spec) in self.specs.iter().enumerate() {
            if self.first.is_empty() || !seen.insert(format!("{spec:?}")) {
                continue;
            }
            attempted += 1;
            let req = RunRequest {
                id: i as u64 + 1,
                spec: spec.clone(),
                deadline_ms: None,
                max_events: None,
                chaos: None,
            };
            let direct = execute(&mut WarmSlot::new(), &req, None).map(|o| o.report_json);
            if direct.as_deref() != Ok(self.first[i].as_str()) {
                eprintln!("perfbench: request {i} differs from a direct execution");
                failed += 1;
            }
        }
        attempted += 1;
        if let Err(e) = self.shutdown() {
            eprintln!("perfbench: daemon shutdown: {e}");
            failed += 1;
        }
        let _ = std::fs::remove_dir_all(&self.root);
        (attempted, failed)
    }
}
