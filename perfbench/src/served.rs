//! The served workloads, against the real `serve` and `router`
//! binaries ([`Cluster`]): `hot` reads cached Figure 9 cells, `upload`
//! writes freshly generated programs.
//!
//! Both run a closed loop of clients ([`JOBS`] for `hot`, one for
//! `upload`), each on its own connection to the router. Every reply is
//! checked afterwards against the offline rendering of the same cell —
//! the bytes
//! `ok_response(.., json::compact(result.to_json()))` produces — by
//! length and [`digest`].

use crate::cluster::{is_ok, Cluster, Conn, BACKENDS};
use crate::measure::{digest, median, percentile, reset_peak, sample, Report};
use crate::stream::{self, hot_cells, hot_line, HotStream};
use crate::trace::Tracer;
use crate::{more_setup, RunOptions, JOBS};
use polyflow_bench::sweep::run_cell_with_config;
use polyflow_bench::{pool, prepare_all_jobs, PreparedWorkload};
use polyflow_serve::cache::{CacheKey, ResultCache};
use polyflow_serve::json::{self, Json};
use polyflow_serve::protocol::{ok_response, parse_request, Request, SimRequest, SimSource};
use polyflow_serve::router::{routing_key, Ring, RouterConfig};
use polyflow_serve::{Journal, Service, ServiceConfig};
use polyflow_sim::SimScratch;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which served workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Seeded draws from the warmed Figure 9 cells: every request hits.
    Hot,
    /// A fresh generated program per request: every request misses.
    Upload,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Hot => "hot",
            Kind::Upload => "upload",
        }
    }

    /// Closed-loop clients. `upload` runs one: each of its requests
    /// wakes five threads in turn (client, router, reactor, batcher,
    /// pool worker), and with two clients those wake-ups queue for the
    /// two cores. In interleaved trials on a noisy host, two clients
    /// roughly tripled the run-to-run spread of throughput and latency.
    fn clients(self) -> u64 {
        match self {
            Kind::Hot => JOBS as u64,
            Kind::Upload => 1,
        }
    }
}

/// Stream id of the traced run's sampled requests (apart from the load
/// clients).
const SAMPLE_STREAM: u64 = 1 << 16;

/// Distinct hot cells sampled for the breakdown, and rounds over them.
const HOT_SAMPLE_KEYS: usize = 12;
const HOT_SAMPLE_ROUNDS: usize = 3;

/// Uploads sampled for the breakdown.
const UPLOAD_SAMPLES: u64 = 30;

/// One request of the measured loop (or of the sampled breakdown).
#[derive(Debug, Clone)]
struct Record {
    client: u64,
    index: u64,
    /// The upload's name suffix (`""` in the load; see [`stream::upload`]).
    variant: &'static str,
    /// The hot cell's index in [`hot_cells`].
    key: usize,
    reply: Reply,
    /// Completion time, ns since the phase's window opened.
    done_ns: u64,
}

/// What the client saw of one exchange. Only the reply's length and
/// [`digest`] are kept, for the check against the offline rendering.
#[derive(Debug, Clone)]
struct Reply {
    ok: bool,
    /// Round trip; infinite for a failed request.
    latency_ms: f64,
    len: usize,
    digest: u64,
}

/// The requests a load client sends, continued across load phases.
#[derive(Debug)]
struct Client {
    id: u64,
    hot: HotStream,
    next: u64,
}

fn default_max_cycles() -> u64 {
    ServiceConfig::default().default_max_cycles
}

fn parse_sim(line: &str) -> Result<SimRequest, String> {
    match parse_request(line, default_max_cycles()) {
        Ok(Request::Simulate(req)) => Ok(*req),
        Ok(other) => Err(format!("generated a non-simulate request: {other:?}")),
        Err(e) => Err(format!("generated an invalid request: {e}")),
    }
}

/// Sends one request line; a failure comes back with its reason.
fn exchange(conn: &mut Conn, line: &str) -> Result<Reply, String> {
    let t0 = Instant::now();
    let reply = conn.exchange(line);
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    match reply {
        Ok(r) if is_ok(r) => Ok(Reply {
            ok: true,
            latency_ms,
            len: r.len(),
            digest: digest(r),
        }),
        Ok(r) => Err(String::from_utf8_lossy(&r[..r.len().min(200)]).into_owned()),
        Err(e) => Err(e.to_string()),
    }
}

impl Reply {
    const FAILED: Reply = Reply {
        ok: false,
        latency_ms: f64::INFINITY,
        len: 0,
        digest: 0,
    };
}

/// Starts the topology and, for `hot`, warms every Figure 9 cell on
/// the backend that owns it. Returns the cluster and its set-up
/// seconds.
fn set_up(
    kind: Kind,
    opts: &RunOptions,
    dir: &Path,
    hot_lines: &[String],
) -> Result<(Cluster, f64), String> {
    let t0 = Instant::now();
    let cluster = Cluster::start(opts, dir)?;
    let mut conn = Conn::connect(&cluster.router_addr()).map_err(|e| format!("router: {e}"))?;
    // The router's `stats` splices in every backend's: all three answer.
    let stats = conn
        .exchange("stats")
        .map_err(|e| format!("router stats: {e}"))?;
    if !is_ok(stats) {
        return Err("router stats failed".into());
    }
    if kind == Kind::Hot {
        // Each backend computes only its own cells, over one connection
        // of its own, so both stay busy until their share is done.
        let addrs = cluster.backend_addrs();
        let ring = ring_of(&addrs);
        let mut shares = vec![Vec::new(); addrs.len()];
        for line in hot_lines {
            shares[owner(&ring, line)?].push(line);
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = addrs
                .iter()
                .zip(&shares)
                .map(|(addr, share)| {
                    s.spawn(move || -> Result<(), String> {
                        let mut conn = Conn::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
                        for line in share {
                            exchange(&mut conn, line)
                                .map_err(|e| format!("warming {line}: {e}"))?;
                        }
                        Ok(())
                    })
                })
                .collect();
            handles
                .into_iter()
                .try_for_each(|h| h.join().expect("warm client panicked"))
        })?;
    }
    Ok((cluster, t0.elapsed().as_secs_f64()))
}

/// The counters this benchmark reads from each backend's `stats`.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    hits: u64,
    misses: u64,
    batches: u64,
    batched_cells: u64,
}

fn backend_counters(cluster: &Cluster) -> Result<Counters, String> {
    let mut total = Counters::default();
    for addr in cluster.backend_addrs() {
        let mut conn = Conn::connect(&addr).map_err(|e| format!("{addr}: {e}"))?;
        let reply = conn
            .exchange("stats")
            .map_err(|e| format!("{addr} stats: {e}"))?;
        let v: Json = json::parse(&String::from_utf8_lossy(reply)).map_err(|e| e.to_string())?;
        let get = |a: &str, b: &str| {
            v.get("stats")
                .and_then(|s| s.get(a))
                .and_then(|s| s.get(b))
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{addr} stats lacks {a}.{b}"))
        };
        total.hits += get("cache", "hits")?;
        total.misses += get("cache", "misses")?;
        total.batches += get("batches", "count")?;
        total.batched_cells += get("batches", "cells")?;
    }
    Ok(total)
}

/// Length of one slice of the measured window. End-to-end figures are
/// medians over slices, so a burst of host noise moves one slice, not
/// the run.
const SLICE: Duration = Duration::from_secs(1);

/// One slice of the window: its bounds (ns since the window opened) and
/// the CPU time the measured processes spent in it.
#[derive(Debug, Clone, Copy)]
struct Slice {
    start_ns: u64,
    end_ns: u64,
    cpu_ms: f64,
}

/// What one closed-loop phase produced.
#[derive(Debug, Default)]
struct Phase {
    records: Vec<Record>,
    slices: Vec<Slice>,
    wall: Duration,
}

impl Phase {
    fn ok(&self) -> usize {
        self.records.iter().filter(|r| r.reply.ok).count()
    }

    /// Medians over full-length slices of: successful replies per
    /// second, p50 and p90 latency of the requests completing in the
    /// slice, and CPU milliseconds per successful reply.
    fn slice_medians(&self) -> [f64; 4] {
        let mut rate = Vec::new();
        let mut p50 = Vec::new();
        let mut p90 = Vec::new();
        let mut cpu = Vec::new();
        for s in &self.slices {
            let secs = (s.end_ns - s.start_ns) as f64 / 1e9;
            if secs < SLICE.as_secs_f64() / 2.0 {
                continue;
            }
            let mut lat: Vec<f64> = self
                .records
                .iter()
                .filter(|r| (s.start_ns..s.end_ns).contains(&r.done_ns))
                .map(|r| r.reply.latency_ms)
                .collect();
            let ok = lat.iter().filter(|l| l.is_finite()).count();
            rate.push(ok as f64 / secs);
            cpu.push(s.cpu_ms / ok.max(1) as f64);
            p50.push(percentile(&mut lat, 50.0));
            p90.push(percentile(&mut lat, 90.0));
        }
        let rates: Vec<String> = rate.iter().map(|r| format!("{r:.0}")).collect();
        eprintln!("[perfbench] replies/s per slice: {}", rates.join(" "));
        [
            median(&mut rate),
            median(&mut p50),
            median(&mut p90),
            median(&mut cpu),
        ]
    }
}

/// Total CPU milliseconds of `pids` and this process.
fn cpu_now(pids: &[u32]) -> f64 {
    pids.iter()
        .map(|p| p.to_string())
        .chain(["self".to_string()])
        .filter_map(|p| sample(&p).ok())
        .map(|s| s.cpu_ms)
        .sum()
}

/// The closed loop: every client sends its next request as soon as the
/// previous reply arrives, until `window` has passed, while this thread
/// samples the processes' CPU time once per [`SLICE`]. With a tracer,
/// each request also records a `client.request` span.
#[allow(clippy::too_many_arguments)]
fn load(
    kind: Kind,
    seed: u64,
    router: &str,
    pids: &[u32],
    hot_lines: &[String],
    clients: &mut [Client],
    window: Duration,
    tracer: Option<&Tracer>,
) -> Phase {
    let started = Instant::now();
    let deadline = started + window;
    let ns = move |t: Instant| (t - started).as_nanos() as u64;
    let mut ticks = vec![(0, cpu_now(pids))];
    let per_client: Vec<Vec<Record>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                s.spawn(move || {
                    let mut records = Vec::new();
                    let mut conn = Conn::connect(router).ok();
                    while Instant::now() < deadline {
                        let index = client.next;
                        client.next += 1;
                        let (key, line) = match kind {
                            Kind::Hot => {
                                let key = client.hot.next().expect("decks never run out");
                                (key, hot_lines[key].clone())
                            }
                            Kind::Upload => (0, stream::upload(seed, client.id, index, "").line),
                        };
                        let t0 = Instant::now();
                        let outcome = match conn.as_mut() {
                            Some(c) => exchange(c, &line),
                            None => Err("not connected".to_string()),
                        };
                        let done = Instant::now();
                        if let Some(t) = tracer {
                            t.record("client.request", None, client.id << 40 | index, t0, done);
                        }
                        let reply = outcome.unwrap_or_else(|e| {
                            eprintln!(
                                "[perfbench] client {} request {index} failed: {e}",
                                client.id
                            );
                            conn = Conn::connect(router).ok();
                            Reply::FAILED
                        });
                        records.push(Record {
                            client: client.id,
                            index,
                            variant: "",
                            key,
                            reply,
                            done_ns: ns(done),
                        });
                    }
                    records
                })
            })
            .collect();
        let mut next = started + SLICE;
        while next <= deadline {
            std::thread::sleep(next.saturating_duration_since(Instant::now()));
            ticks.push((ns(Instant::now()), cpu_now(pids)));
            next += SLICE;
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("load client panicked"))
            .collect()
    });
    let wall = started.elapsed();
    ticks.push((ns(started + wall), cpu_now(pids)));
    let slices = ticks
        .windows(2)
        .map(|w| Slice {
            start_ns: w[0].0,
            end_ns: w[1].0,
            cpu_ms: w[1].1 - w[0].1,
        })
        .collect();
    Phase {
        records: per_client.into_iter().flatten().collect(),
        slices,
        wall,
    }
}

/// Offline renderings `(length, digest)` of every hot cell, plus the
/// time spent rendering them (`SimResult::to_json` + `json::compact`).
fn hot_expected(hot_lines: &[String]) -> Result<(Vec<(usize, u64)>, Duration), String> {
    let prepared = prepare_all_jobs(&[], JOBS);
    let rendered: Vec<Result<(usize, u64, Duration), String>> =
        pool::parallel_map(hot_lines.to_vec(), JOBS, |_, line| {
            let req = parse_sim(&line)?;
            let w = prepared
                .iter()
                .find(|p| p.name == req.workload_label())
                .ok_or("unknown workload")?;
            let r = run_cell_with_config(w, req.cell, &req.config, &mut SimScratch::default())
                .map_err(|e| format!("{line}: {e}"))?;
            let t0 = Instant::now();
            let body = json::compact(&r.to_json());
            let render = t0.elapsed();
            let reply = ok_response(req.workload_label(), &req.policy_label(), &body);
            Ok((reply.len(), digest(reply.as_bytes()), render))
        });
    let mut out = Vec::new();
    let mut render = Duration::ZERO;
    for r in rendered {
        let (len, d, t) = r?;
        out.push((len, d));
        render += t;
    }
    Ok((out, render))
}

/// The offline rendering `(length, digest)` of one upload.
fn upload_expected(line: &str) -> Result<(usize, u64), String> {
    let req = parse_sim(line)?;
    let SimSource::Uploaded(w) = &req.source else {
        return Err("upload request names a bundled workload".into());
    };
    let w = PreparedWorkload::try_prepare((**w).clone())?;
    let r = run_cell_with_config(&w, req.cell, &req.config, &mut SimScratch::default())
        .map_err(|e| e.to_string())?;
    let reply = ok_response(
        req.workload_label(),
        &req.policy_label(),
        &json::compact(&r.to_json()),
    );
    Ok((reply.len(), digest(reply.as_bytes())))
}

/// Checks every successful reply against its offline rendering.
fn verify(kind: Kind, seed: u64, records: &[Record], hot: &[(usize, u64)], report: &mut Report) {
    let ok: Vec<&Record> = records.iter().filter(|r| r.reply.ok).collect();
    let expected: Vec<Result<(usize, u64), String>> = match kind {
        Kind::Hot => ok.iter().map(|r| Ok(hot[r.key])).collect(),
        Kind::Upload => pool::parallel_map(ok.clone(), JOBS, |_, r| {
            upload_expected(&stream::upload(seed, r.client, r.index, r.variant).line)
        }),
    };
    let mut wrong = 0;
    for (r, e) in ok.iter().zip(expected) {
        let problem = match e {
            Ok(e) if e == (r.reply.len, r.reply.digest) => continue,
            Ok(_) => format!(
                "client {} request {}{}: reply differs from the offline rendering",
                r.client, r.index, r.variant
            ),
            Err(e) => format!("offline rendering failed: {e}"),
        };
        wrong += 1;
        if wrong == 1 {
            report.problem(problem);
        }
    }
    if wrong > 0 {
        report.problem(format!(
            "{wrong} of {} replies differ from offline",
            ok.len()
        ));
    }
}

/// [`percentile`] of an owned sample.
fn pct(mut v: Vec<f64>, q: f64) -> f64 {
    percentile(&mut v, q)
}

/// Runs the `hot` or `upload` workload.
pub fn run(kind: Kind, opts: &RunOptions) -> Result<Report, String> {
    let run_dir = opts.out_dir.join(format!(
        "run-{}-{}-{}",
        kind.name(),
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos())
    ));
    let result = run_in(kind, opts, &run_dir);
    // The scratch state (journals of up to tens of MB) is not evidence.
    let _ = std::fs::remove_dir_all(&run_dir);
    result
}

fn run_in(kind: Kind, opts: &RunOptions, run_dir: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let hot_lines: Vec<String> = hot_cells().iter().map(|(w, c)| hot_line(w, *c)).collect();

    let mut setup = Vec::new();
    let mut cluster = None;
    while more_setup(&setup) {
        let rep = setup.len();
        if let Some(c) = cluster.take() {
            if let Err(e) = Cluster::stop(c) {
                report.problem(e);
            }
        }
        let (c, secs) = set_up(
            kind,
            opts,
            &run_dir.join(format!("setup-{rep}")),
            &hot_lines,
        )?;
        setup.push(secs);
        cluster = Some(c);
    }
    let cluster = cluster.expect("set-up ran");
    let router = cluster.router_addr();

    let mut clients: Vec<Client> = (0..kind.clients())
        .map(|id| Client {
            id,
            hot: HotStream::new(opts.seed, id, hot_lines.len()),
            next: 0,
        })
        .collect();
    let tracer = Tracer::new();
    let window = Duration::from_secs_f64(opts.seconds);
    let pids = cluster.pids();
    for pid in &pids {
        reset_peak(&pid.to_string())?;
    }
    reset_peak("self")?;
    let procs0 = cluster.samples()?;
    let counters0 = backend_counters(&cluster)?;
    // Untraced, the whole window; traced, half without spans and half
    // with, so the difference is the tracing overhead.
    let plain = load(
        kind,
        opts.seed,
        &router,
        &pids,
        &hot_lines,
        &mut clients,
        if opts.trace { window / 2 } else { window },
        None,
    );
    let traced = if opts.trace {
        load(
            kind,
            opts.seed,
            &router,
            &pids,
            &hot_lines,
            &mut clients,
            window / 2,
            Some(&tracer),
        )
    } else {
        Phase::default()
    };
    // Read the processes before anything drains them.
    let procs1 = cluster.samples()?;
    let self1 = sample("self")?;
    let counters1 = backend_counters(&cluster)?;

    let mut samples = Vec::new();
    if opts.trace {
        samples = match kind {
            Kind::Hot => sample_hot(opts, &cluster, &hot_lines, &tracer, run_dir)?,
            Kind::Upload => sample_upload(opts, &cluster, &tracer, run_dir, &mut report)?,
        };
    }
    if let Err(e) = cluster.stop() {
        report.problem(e);
    }

    let mut records: Vec<Record> = plain
        .records
        .iter()
        .chain(&traced.records)
        .cloned()
        .collect();
    report.attempted = records.len() as u64;
    report.failed = records.iter().filter(|r| !r.reply.ok).count() as u64;
    let ok = report.attempted - report.failed;
    let (hot_expect, render) = match kind {
        Kind::Hot => hot_expected(&hot_lines)?,
        Kind::Upload => (Vec::new(), Duration::ZERO),
    };
    records.extend(samples);
    verify(kind, opts.seed, &records, &hot_expect, &mut report);

    if !opts.trace {
        let [rate, p50, p90, cpu] = plain.slice_medians();
        let hwm: u64 = procs1.iter().chain([&self1]).map(|s| s.hwm_kb).sum();
        let bytes: usize = plain
            .records
            .iter()
            .filter(|r| r.reply.ok)
            .map(|r| r.reply.len)
            .sum();
        report.push("ops_per_s", rate, "1/s");
        report.push("latency_p50_ms", p50, "ms");
        report.push("latency_p90_ms", p90, "ms");
        report.push("setup_s", median(&mut setup), "s");
        report.push("peak_rss_mb", hwm as f64 / 1024.0, "MB");
        report.push("cpu_ms_per_op", cpu, "ms");
        report.push(
            "reply_kb_per_op",
            bytes as f64 / ok.max(1) as f64 / 1024.0,
            "KB",
        );
        return Ok(report);
    }

    let spans = tracer.spans();
    match Tracer::check_sums(&spans, "router.hop") {
        Ok(0) => report.problem("no sampled request was traced"),
        Ok(_) => {}
        Err(e) => report.problem(format!("layer self times do not sum: {e}")),
    }
    let self_ms = |name| Tracer::self_of(&spans, name, 1e6);
    let dur_us = |name| Tracer::durations_of(&spans, name, 1e3);
    report.push("router.hop_ms_p50", pct(self_ms("router.hop"), 50.0), "ms");
    report.push(
        "reactor.wire_ms_p50",
        pct(self_ms("reactor.wire"), 50.0),
        "ms",
    );
    let lookups = (counters1.hits + counters1.misses) - (counters0.hits + counters0.misses);
    report.push(
        "cache.hit_ratio",
        (counters1.hits - counters0.hits) as f64 / lookups.max(1) as f64,
        "ratio",
    );
    match kind {
        Kind::Hot => {
            crate::grid::push_prep_metrics(&mut report, &tracer)?;
            report.push("service.hit_us_p50", pct(dur_us("service.hit"), 50.0), "us");
            report.push(
                "protocol.parse_us_p50",
                pct(dur_us("protocol.parse"), 50.0),
                "us",
            );
            let mean =
                hot_expect.iter().map(|(l, _)| *l).sum::<usize>() as f64 / hot_expect.len() as f64;
            report.push("wire.reply_bytes", mean, "bytes");
            report.push("json.render_ms", render.as_secs_f64() * 1e3, "ms");
        }
        Kind::Upload => {
            for (metric, span) in [
                ("protocol.parse_upload_us_p50", "protocol.parse_upload"),
                ("verify.fingerprint_us_p50", "verify.fingerprint"),
                ("bench.prepare_us_p50", "bench.prepare"),
                ("sim.upload_cell_us_p50", "sim.upload_cell"),
                ("json.render_us_p50", "json.render"),
                ("cache.insert_us_p50", "cache.insert"),
                ("journal.append_us_p50", "journal.append"),
            ] {
                report.push(metric, pct(dur_us(span), 50.0), "us");
            }
            report.push(
                "service.submit_ms_p50",
                pct(Tracer::durations_of(&spans, "service.submit", 1e6), 50.0),
                "ms",
            );
            report.push(
                "service.wait_ms_p50",
                pct(self_ms("service.submit"), 50.0),
                "ms",
            );
            report.push(
                "service.cells_per_batch",
                (counters1.batched_cells - counters0.batched_cells) as f64
                    / (counters1.batches - counters0.batches).max(1) as f64,
                "cells",
            );
            let rss: f64 = procs1[..BACKENDS]
                .iter()
                .zip(&procs0)
                .map(|(b, a)| b.rss_kb as f64 - a.rss_kb as f64)
                .sum();
            report.push("serve.rss_kb_per_op", rss / ok.max(1) as f64, "KB");
        }
    }
    let plain_rate = plain.ok() as f64 / plain.wall.as_secs_f64();
    let traced_rate = traced.ok() as f64 / traced.wall.as_secs_f64();
    report.push(
        "trace.overhead_pct",
        (plain_rate - traced_rate) / plain_rate * 100.0,
        "%",
    );
    report.push(
        "error_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    crate::write_trace(opts, kind.name(), &tracer)?;
    Ok(report)
}

/// The ring the router builds over `addrs` (its default replicas).
fn ring_of(addrs: &[String]) -> Ring {
    Ring::new(addrs, RouterConfig::new(addrs.to_vec()).replicas)
}

/// The owner of `line`'s cache key on the router's ring.
fn owner(ring: &Ring, line: &str) -> Result<usize, String> {
    let req = parse_request(line, default_max_cycles()).map_err(|e| e.to_string())?;
    let key = routing_key(&req).ok_or("request has no routing key")?;
    ring.shard_of(&key, &[true; BACKENDS])
        .ok_or_else(|| "empty ring".to_string())
}

/// An in-process service configured like one `serve --jobs 1
/// --cache-dir …` backend.
fn in_process_service(dir: PathBuf) -> Arc<Service> {
    let svc = Service::new(ServiceConfig {
        jobs: 1,
        cache_dir: Some(dir),
        ..ServiceConfig::default()
    });
    svc.start();
    svc
}

/// Connections used by the sampled breakdown: the router, and each
/// backend directly.
struct Paths {
    router: Conn,
    direct: Vec<Conn>,
    ring: Ring,
}

impl Paths {
    fn open(cluster: &Cluster) -> Result<Paths, String> {
        let addrs = cluster.backend_addrs();
        Ok(Paths {
            router: Conn::connect(&cluster.router_addr()).map_err(|e| e.to_string())?,
            direct: addrs
                .iter()
                .map(|a| Conn::connect(a).map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?,
            ring: ring_of(&addrs),
        })
    }

    /// Times `routed` through the router and `direct` straight to the
    /// backend owning it, recording `router.hop` (root) and its child
    /// `reactor.wire`. Returns the wire span's id and the routed
    /// exchange's outcome.
    fn hop_and_wire(
        &mut self,
        tracer: &Tracer,
        request: u64,
        routed: &str,
        direct: &str,
    ) -> Result<(u32, Reply), String> {
        let hop = tracer.reserve();
        let t0 = Instant::now();
        let reply = exchange(&mut self.router, routed);
        let t1 = Instant::now();
        let shard = owner(&self.ring, direct)?;
        let t2 = Instant::now();
        let replay = exchange(&mut self.direct[shard], direct);
        let t3 = Instant::now();
        let reply = reply.map_err(|e| format!("sampled routed request failed: {e}"))?;
        replay.map_err(|e| format!("sampled direct request failed: {e}"))?;
        tracer.record_as(hop, "router.hop", None, request, t0, t1);
        let wire = tracer.record("reactor.wire", Some(hop), request, t2, t3);
        Ok((wire, reply))
    }
}

fn submit(
    svc: &Service,
    tracer: &Tracer,
    name: &'static str,
    parent: u32,
    request: u64,
    req: SimRequest,
) -> Result<u32, String> {
    let t0 = Instant::now();
    let reply = svc.submit(req);
    let t1 = Instant::now();
    reply.map_err(|e| format!("in-process submit: {e}"))?;
    Ok(tracer.record(name, Some(parent), request, t0, t1))
}

/// The `hot` breakdown: for a seeded sample of cells, the routed round
/// trip, the direct round trip to the owning backend, and in process
/// the request parse and a cache-hit `Service::submit`.
fn sample_hot(
    opts: &RunOptions,
    cluster: &Cluster,
    hot_lines: &[String],
    tracer: &Tracer,
    run_dir: &Path,
) -> Result<Vec<Record>, String> {
    let svc = in_process_service(run_dir.join("in-process-cache"));
    let keys: Vec<usize> = HotStream::new(opts.seed, SAMPLE_STREAM, hot_lines.len())
        .take(HOT_SAMPLE_KEYS)
        .collect();
    for &k in &keys {
        svc.submit(parse_sim(&hot_lines[k])?)
            .map_err(|e| format!("warming the in-process service: {e}"))?;
    }
    let mut paths = Paths::open(cluster)?;
    let mut records = Vec::new();
    for round in 0..HOT_SAMPLE_ROUNDS {
        for (i, &k) in keys.iter().enumerate() {
            let index = (round * keys.len() + i) as u64;
            let request = SAMPLE_STREAM << 40 | index;
            let line = &hot_lines[k];
            let (wire, reply) = paths.hop_and_wire(tracer, request, line, line)?;
            let t0 = Instant::now();
            let req = parse_sim(line)?;
            tracer.record("protocol.parse", Some(wire), request, t0, Instant::now());
            submit(&svc, tracer, "service.hit", wire, request, req)?;
            records.push(Record {
                client: SAMPLE_STREAM,
                index,
                variant: "",
                key: k,
                reply,
                done_ns: 0,
            });
        }
    }
    svc.shutdown_and_join();
    Ok(records)
}

/// The `upload` breakdown. Each sample is one generated program sent
/// under four names — identical work, distinct cache keys: `r` routed,
/// `d` direct to its owner, `s` parsed and submitted to an in-process
/// service, and `l` pushed through each layer call the service makes
/// (fingerprint, prepare, simulate, render, cache insert, journal
/// append), on a throwaway cache and journal.
fn sample_upload(
    opts: &RunOptions,
    cluster: &Cluster,
    tracer: &Tracer,
    run_dir: &Path,
    report: &mut Report,
) -> Result<Vec<Record>, String> {
    let svc = in_process_service(run_dir.join("in-process-cache"));
    let cache = ResultCache::new(ServiceConfig::default().cache_capacity);
    let (journal, _, _) = Journal::open(
        &run_dir.join("layer-journal"),
        ServiceConfig::default().journal_rotate_bytes,
    )
    .map_err(|e| format!("throwaway journal: {e}"))?;
    let journal_start = journal.size_bytes();
    let mut paths = Paths::open(cluster)?;
    let mut records = Vec::new();
    let mut scratch = SimScratch::default();
    for index in 0..UPLOAD_SAMPLES {
        let request = SAMPLE_STREAM << 40 | index;
        let up = |v| stream::upload(opts.seed, SAMPLE_STREAM, index, v).line;
        let (wire, reply) = paths.hop_and_wire(tracer, request, &up("r"), &up("d"))?;
        records.push(Record {
            client: SAMPLE_STREAM,
            index,
            variant: "r",
            key: 0,
            reply,
            done_ns: 0,
        });

        let line = up("s");
        let t0 = Instant::now();
        let req = parse_sim(&line)?;
        tracer.record(
            "protocol.parse_upload",
            Some(wire),
            request,
            t0,
            Instant::now(),
        );
        let submit_id = submit(&svc, tracer, "service.submit", wire, request, req)?;

        let req = parse_sim(&up("l"))?;
        let SimSource::Uploaded(w) = &req.source else {
            return Err("upload request names a bundled workload".into());
        };
        let workload = (**w).clone();
        let span = |name, t0: Instant| {
            tracer.record(name, Some(submit_id), request, t0, Instant::now());
        };
        let t0 = Instant::now();
        let fingerprint = polyflow_serve::verify::fingerprint(&workload.program);
        span("verify.fingerprint", t0);
        let t0 = Instant::now();
        let prepared = PreparedWorkload::try_prepare(workload)?;
        span("bench.prepare", t0);
        let t0 = Instant::now();
        let result = run_cell_with_config(&prepared, req.cell, &req.config, &mut scratch)
            .map_err(|e| e.to_string())?;
        span("sim.upload_cell", t0);
        let t0 = Instant::now();
        let reply = ok_response(
            req.workload_label(),
            &req.policy_label(),
            &json::compact(&result.to_json()),
        );
        span("json.render", t0);
        let key = CacheKey {
            workload: fingerprint,
            policy: req.policy_label(),
            config: req.config.fingerprint(),
        };
        let t0 = Instant::now();
        let reply = cache.insert(key.clone(), Arc::from(reply.as_str()));
        span("cache.insert", t0);
        let t0 = Instant::now();
        journal
            .append(&key, &reply)
            .map_err(|e| format!("journal append: {e}"))?;
        span("journal.append", t0);
    }
    let appended = journal.size_bytes() - journal_start;
    report.push(
        "journal.bytes_per_op",
        appended as f64 / UPLOAD_SAMPLES as f64,
        "bytes",
    );
    svc.shutdown_and_join();
    Ok(records)
}
