//! The sharding router: a consistent-hash ring over N serve backends,
//! with health checks, automatic ejection/readmission, failover, and
//! graceful draining.
//!
//! ```text
//!   clients ──► router ──(hash of cache key)──► backend #k
//!                 │                              ▲
//!                 ├── health checker (ping) ─────┘
//!                 └── stats: per-backend health + ring ownership
//! ```
//!
//! # Why hash the cache key
//!
//! Each backend keeps its own result cache keyed by
//! `(program fingerprint, policy, config fingerprint)` — see
//! [`crate::cache::CacheKey`]. The router hashes **exactly that tuple**
//! (rendered canonically by [`routing_key`]) onto the ring, so a given
//! cell always lands on the shard that already has it cached, no matter
//! which client asks, in which order, or through which router process.
//! Cache affinity is a routing concern only: correctness never depends
//! on it, because every backend computes byte-identical results for the
//! same cell (the standing served ≡ offline invariant). That is what
//! makes failover safe — a request re-routed to a non-owner backend
//! gets the same bytes, just colder.
//!
//! # The ring
//!
//! [`Ring`] places [`Ring::replicas`] virtual points per backend at
//! `fnv1a("{addr}#{i}")` on the u64 circle; a key is owned by the first
//! point clockwise from `fnv1a(key)`. Ejecting a backend removes only
//! its points, so keys owned by healthy backends never move (minimal
//! remapping), and readmission restores exactly the old assignment —
//! the map is a pure function of the live backend set.
//!
//! # Health
//!
//! An active checker pings every backend on a fixed cadence; a backend
//! is ejected after [`RouterConfig::eject_after`] consecutive failures
//! and readmitted after [`RouterConfig::readmit_after`] consecutive
//! successes. Forwarding failures also count toward ejection (passive
//! detection), so a SIGKILLed backend stops receiving traffic after at
//! most a couple of failed forwards, not a full check cycle.
//!
//! # Forwarding
//!
//! The router runs on the [`crate::reactor`]: one thread serves its
//! clients and talks to the backends, and never blocks on either.
//! Backend connections are persistent nonblocking sockets in the same
//! poll set, kept on a per-backend idle list. Each carries at most one
//! request at a time, so a cold miss never holds up another client's
//! hit, and the pool grows to the number of concurrent forwards. Health
//! checks and the `stats` fan-out use the same connections.
//!
//! Replies are relayed **verbatim** — moved from the backend socket's
//! buffer onto the client's output queue without a copy, a UTF-8 check
//! or a parse, so the byte-identity invariant survives the extra hop
//! (integrity trailers included). Whether to fail over is read off the
//! envelope: only a reply starting `{"ok":false` is parsed, and only a
//! typed `overloaded`/`shutting_down` fails over (shedding is not
//! sickness, so it does not count toward ejection). A connection error
//! fails over too, and does count — except on a pooled socket that dies
//! before any reply byte: it went stale while idle (say, the backend
//! restarted), so the request is retried once on a fresh connect to the
//! same backend. Only when every live backend has been tried does the
//! client get a router-local typed `overloaded` error, which retrying
//! clients handle.

use crate::journal::fnv1a;
use crate::protocol::{self, ErrorKind, Request, ServeError};
use crate::reactor::{self, Chunk, Handler, Reactor, Step, TransportStats, Waker};
use crate::signal;
use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind as IoKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// The line a health check sends.
const PING: &[u8] = b"{\"verb\":\"ping\"}\n";

/// The line a `stats` fan-out sends each backend.
const STATS: &[u8] = b"{\"verb\":\"stats\"}\n";

/// Tunables for one [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Backend addresses, `host:port` each.
    pub backends: Vec<String>,
    /// Virtual points per backend on the ring.
    pub replicas: usize,
    /// Health-check cadence.
    pub check_interval: Duration,
    /// Consecutive failures (checks or forwards) before ejection.
    pub eject_after: u32,
    /// Consecutive successful checks before readmission.
    pub readmit_after: u32,
    /// How long a backend connection carrying a forward, health check
    /// or `stats` fetch may go without progress (connect, request bytes
    /// written, reply bytes read) before the exchange counts as failed;
    /// also how long a client's socket may refuse reply bytes before
    /// the router drops it.
    pub io_timeout: Duration,
    /// Must match the backends' `--max-cycles` default: the router
    /// parses requests with it to derive the same config fingerprint
    /// the backend will cache under.
    pub default_max_cycles: u64,
    /// Longest accepted request line (mirrors serve's `--max-line`).
    pub max_request_line: usize,
}

impl RouterConfig {
    /// Default policy over `backends`.
    pub fn new(backends: Vec<String>) -> RouterConfig {
        RouterConfig {
            backends,
            replicas: 100,
            check_interval: Duration::from_millis(250),
            eject_after: 2,
            readmit_after: 2,
            io_timeout: Duration::from_secs(30),
            default_max_cycles: 50_000_000,
            max_request_line: 1 << 20,
        }
    }
}

/// A consistent-hash ring: virtual points for each backend on the u64
/// circle. Construction is a pure function of the backend list, so
/// every router process (and every restart) builds the same map.
#[derive(Debug, Clone)]
pub struct Ring {
    /// `(point, backend index)` sorted by point.
    points: Vec<(u64, usize)>,
    backends: usize,
    /// Virtual points per backend.
    pub replicas: usize,
}

/// Disperses an FNV-1a hash across the circle (the SplitMix64
/// finalizer). FNV alone has weak avalanche on near-identical inputs —
/// `host:7199#0` vs `host:7200#0` land close together, which skews
/// ownership badly at small replica counts.
fn spread(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Ring {
    /// Places `replicas` points per backend.
    pub fn new(backends: &[String], replicas: usize) -> Ring {
        let replicas = replicas.max(1);
        let mut points = Vec::with_capacity(backends.len() * replicas);
        for (idx, addr) in backends.iter().enumerate() {
            for r in 0..replicas {
                points.push((spread(fnv1a(format!("{addr}#{r}").as_bytes())), idx));
            }
        }
        points.sort_unstable();
        Ring {
            points,
            backends: backends.len(),
            replicas,
        }
    }

    /// The backend owning `key` among those with `alive[idx]` true:
    /// the first live point clockwise from the key's hash. `None` when
    /// nothing is alive.
    pub fn shard_of(&self, key: &str, alive: &[bool]) -> Option<usize> {
        self.walk(key, alive).next()
    }

    /// Failover order for `key`: every live backend, starting at the
    /// owner and continuing clockwise, each backend once.
    pub fn walk<'a>(&'a self, key: &str, alive: &'a [bool]) -> impl Iterator<Item = usize> + 'a {
        let h = spread(fnv1a(key.as_bytes()));
        let start = self.points.partition_point(|&(p, _)| p < h);
        let n = self.points.len();
        let mut seen = vec![false; self.backends];
        (0..n).filter_map(move |off| {
            let (_, idx) = self.points[(start + off) % n];
            if alive.get(idx).copied().unwrap_or(false) && !seen[idx] {
                seen[idx] = true;
                Some(idx)
            } else {
                None
            }
        })
    }

    /// Share of the hash space each live backend owns, in permille
    /// (sums to ~1000). Ejected backends own zero; their arcs accrue
    /// to their clockwise successors.
    pub fn ownership_permille(&self, alive: &[bool]) -> Vec<u64> {
        let mut owned = vec![0u128; self.backends];
        let live: Vec<&(u64, usize)> = self
            .points
            .iter()
            .filter(|&&(_, idx)| alive.get(idx).copied().unwrap_or(false))
            .collect();
        if live.is_empty() {
            return vec![0; self.backends];
        }
        // Each point owns the arc from its predecessor (exclusive) to
        // itself (inclusive); the first point also owns the wrap.
        for (i, &&(p, idx)) in live.iter().enumerate() {
            let prev = if i == 0 {
                live[live.len() - 1].0
            } else {
                live[i - 1].0
            };
            let arc = p.wrapping_sub(prev);
            // A single live backend owns the whole circle (arc == 0
            // only in the one-point degenerate case).
            let arc = if live.len() == 1 { u64::MAX } else { arc };
            owned[idx] += arc as u128;
        }
        owned
            .into_iter()
            .map(|o| ((o * 1000) / (u64::MAX as u128)) as u64)
            .collect()
    }
}

/// The canonical routing key for a parsed request: exactly the tuple
/// the backend caches under, rendered as
/// `"{workload fingerprint}|{policy}|{config fingerprint}"` (verify
/// requests use the `verify` policy namespace and an empty config,
/// mirroring [`crate::service::Service::verify_program`]).
pub fn routing_key(req: &Request) -> Option<String> {
    match req {
        Request::Simulate(r) => Some(format!(
            "{}|{}|{}",
            r.fingerprint(),
            r.policy_label(),
            r.config.fingerprint()
        )),
        Request::Verify(r) => Some(format!("{}|verify|", r.fingerprint)),
        _ => None,
    }
}

/// Live state the router keeps per backend.
#[derive(Debug, Default)]
struct BackendState {
    healthy: AtomicBool,
    consecutive_failures: AtomicU32,
    consecutive_successes: AtomicU32,
    forwarded: AtomicU64,
    failures: AtomicU64,
}

/// Router-wide counters.
#[derive(Debug, Default)]
struct RouterCounters {
    requests: AtomicU64,
    forwarded: AtomicU64,
    failovers: AtomicU64,
    exhausted: AtomicU64,
    local_errors: AtomicU64,
    ejections: AtomicU64,
    readmissions: AtomicU64,
    backend_connects: AtomicU64,
}

/// The shared routing core: ring, health table, counters. The reactor's
/// handler and the [`Router`] handle both hold an `Arc` of this.
pub struct Core {
    config: RouterConfig,
    ring: Ring,
    backends: Vec<BackendState>,
    counters: RouterCounters,
    started: Instant,
}

impl Core {
    /// Builds the core; all backends start healthy (the first check
    /// cycle corrects optimism within one interval).
    pub fn new(config: RouterConfig) -> Arc<Core> {
        let ring = Ring::new(&config.backends, config.replicas);
        let backends = config
            .backends
            .iter()
            .map(|_| {
                let b = BackendState::default();
                b.healthy.store(true, Ordering::SeqCst);
                b
            })
            .collect();
        Arc::new(Core {
            ring,
            backends,
            counters: RouterCounters::default(),
            started: Instant::now(),
            config,
        })
    }

    fn alive(&self) -> Vec<bool> {
        self.backends
            .iter()
            .map(|b| b.healthy.load(Ordering::SeqCst))
            .collect()
    }

    /// Times the router ejected a backend (CI asserts this moves when
    /// a backend is killed mid-run).
    pub fn ejections(&self) -> u64 {
        self.counters.ejections.load(Ordering::Relaxed)
    }

    fn record_failure(&self, idx: usize) {
        let b = &self.backends[idx];
        b.failures.fetch_add(1, Ordering::Relaxed);
        b.consecutive_successes.store(0, Ordering::SeqCst);
        let fails = b.consecutive_failures.fetch_add(1, Ordering::SeqCst) + 1;
        if fails >= self.config.eject_after && b.healthy.swap(false, Ordering::SeqCst) {
            self.counters.ejections.fetch_add(1, Ordering::Relaxed);
            eprintln!("[router] ejected {}", self.config.backends[idx]);
        }
    }

    fn record_success(&self, idx: usize) {
        let b = &self.backends[idx];
        b.consecutive_failures.store(0, Ordering::SeqCst);
        let okays = b.consecutive_successes.fetch_add(1, Ordering::SeqCst) + 1;
        if !b.healthy.load(Ordering::SeqCst)
            && okays >= self.config.readmit_after
            && !b.healthy.swap(true, Ordering::SeqCst)
        {
            self.counters.readmissions.fetch_add(1, Ordering::Relaxed);
            eprintln!("[router] readmitted {}", self.config.backends[idx]);
        }
    }

    /// The router's `stats` reply: router counters, per-backend
    /// health + ring ownership, each live backend's own `stats`
    /// (`parts`, fetched by the caller) spliced in, and cross-backend
    /// totals.
    fn stats_json(&self, parts: &[Option<String>]) -> String {
        let alive = self.alive();
        let ownership = self.ring.ownership_permille(&alive);
        let c = &self.counters;
        let mut out = String::with_capacity(1024);
        out.push_str(&format!(
            "{{\"ok\":true,\"router\":{{\"uptime_ms\":{},\
             \"requests\":{},\"forwarded\":{},\"failovers\":{},\
             \"exhausted\":{},\"local_errors\":{},\
             \"ejections\":{},\"readmissions\":{},\
             \"backend_connects\":{},\"backends\":[",
            self.started.elapsed().as_millis(),
            c.requests.load(Ordering::Relaxed),
            c.forwarded.load(Ordering::Relaxed),
            c.failovers.load(Ordering::Relaxed),
            c.exhausted.load(Ordering::Relaxed),
            c.local_errors.load(Ordering::Relaxed),
            c.ejections.load(Ordering::Relaxed),
            c.readmissions.load(Ordering::Relaxed),
            c.backend_connects.load(Ordering::Relaxed),
        ));
        let mut total_completed = 0u64;
        let mut total_cache_hits = 0u64;
        let mut healthy_count = 0u64;
        for (idx, addr) in self.config.backends.iter().enumerate() {
            if idx > 0 {
                out.push(',');
            }
            let b = &self.backends[idx];
            let healthy = alive[idx];
            healthy_count += healthy as u64;
            // An ejected or unreachable backend reports null.
            let inner = &parts[idx];
            if let Some(stats) = inner {
                if let Ok(v) = crate::json::parse(stats) {
                    let req = v.get("requests");
                    total_completed += req
                        .and_then(|r| r.get("completed"))
                        .and_then(|x| x.as_u64())
                        .unwrap_or(0);
                    total_cache_hits += v
                        .get("cache")
                        .and_then(|ch| ch.get("hits"))
                        .and_then(|x| x.as_u64())
                        .unwrap_or(0);
                }
            }
            out.push_str(&format!(
                "{{\"addr\":\"{}\",\"healthy\":{},\
                 \"ownership_permille\":{},\"forwarded\":{},\"failures\":{},\
                 \"stats\":{}}}",
                crate::json::escape(addr),
                healthy,
                ownership[idx],
                b.forwarded.load(Ordering::Relaxed),
                b.failures.load(Ordering::Relaxed),
                inner.as_deref().unwrap_or("null"),
            ));
        }
        out.push_str(&format!(
            "],\"totals\":{{\"healthy\":{healthy_count},\
             \"completed\":{total_completed},\"cache_hits\":{total_cache_hits}}}}}}}"
        ));
        out
    }
}

/// Renders a router-local typed error, honoring the request's
/// `integrity` flag best-effort from the raw text (same rule the serve
/// transport applies to unparseable requests).
fn local_error(raw: &str, e: &ServeError) -> String {
    let body = protocol::error_response(e);
    if raw.contains("\"integrity\":true") {
        protocol::with_integrity_trailer(&body)
    } else {
        body
    }
}

/// Extracts the `stats` object from a backend's
/// `{"ok":true,"stats":{...}}` reply (our own renderer's exact shape;
/// anything else reports `None`).
fn extract_stats_object(reply: &str) -> Option<String> {
    let (body, _) = protocol::check_integrity_trailer(reply);
    let inner = body
        .strip_prefix("{\"ok\":true,\"stats\":")?
        .strip_suffix('}')?;
    crate::json::parse(inner).ok()?;
    Some(inner.to_string())
}

/// True when a backend's reply is a typed error another shard can
/// answer instead: the backend is shedding (`overloaded`) or draining
/// (`shutting_down`). Only the envelope decides: a reply is parsed only
/// when it starts with `{"ok":false`, and error replies are small — a
/// success reply (megabytes for a Figure 9 cell) is never scanned,
/// whatever its body holds.
fn is_retryable(reply: &[u8]) -> bool {
    if !reply.starts_with(b"{\"ok\":false") {
        return false;
    }
    let Ok(line) = std::str::from_utf8(reply) else {
        return false;
    };
    // The trailer, when present, is stripped before parsing — our JSON
    // parser rejects trailing bytes by design.
    let (body, _) = protocol::check_integrity_trailer(line.trim_end_matches('\n'));
    let Ok(v) = crate::json::parse(body) else {
        return false;
    };
    matches!(
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|k| k.as_str()),
        Some("overloaded" | "shutting_down")
    )
}

/// What a backend connection carries a request for.
#[derive(Clone, Copy)]
enum Task {
    /// A client request's attempt on this backend (its job id).
    Forward(u64),
    /// This backend's part of a client's `stats` (its job id).
    Stats(u64),
    /// A health check.
    Ping,
}

/// What the router owes one client request.
enum Job {
    /// A request walking the ring: `walk` holds the live backends not
    /// yet tried, in failover order.
    Forward {
        line: String,
        walk: VecDeque<usize>,
        tried: u32,
    },
    /// A `stats` fan-out: each backend's own stats object, once fetched.
    Stats {
        parts: Vec<Option<String>>,
        waiting: usize,
    },
    /// The reply, waiting for the client's connection to take it.
    Done(Chunk),
}

/// A backend connection carrying one request.
struct Link {
    stream: TcpStream,
    backend: usize,
    task: Task,
    /// Taken from the idle list rather than freshly connected.
    reused: bool,
    /// The request line, newline included, and how much is written.
    request: Vec<u8>,
    sent: usize,
    reply: Vec<u8>,
    /// The last time the exchange made progress.
    progress: Instant,
}

/// How a backend exchange ended.
enum Outcome {
    /// The whole reply arrived.
    Reply,
    Failed,
}

impl Link {
    /// Moves the exchange along as far as the socket allows without
    /// blocking; `None` while it is still under way.
    fn advance(&mut self, now: Instant) -> Option<Outcome> {
        while self.sent < self.request.len() {
            match (&self.stream).write(&self.request[self.sent..]) {
                Ok(0) => return Some(Outcome::Failed),
                Ok(n) => {
                    self.sent += n;
                    self.progress = now;
                }
                Err(e) if e.kind() == IoKind::WouldBlock => return None,
                Err(e) if e.kind() == IoKind::Interrupted => {}
                Err(_) => return Some(Outcome::Failed),
            }
        }
        let before = self.reply.len();
        let eof = match (&self.stream).read_to_end(&mut self.reply) {
            Ok(_) => true,
            Err(e) if e.kind() == IoKind::WouldBlock => false,
            Err(_) => return Some(Outcome::Failed),
        };
        if self.reply.len() > before {
            self.progress = now;
        }
        // A reply is one line and nothing follows it (the connection
        // carries one request at a time), so it is complete exactly
        // when its last byte is the newline — no scan of the body. A
        // connection the backend closed after replying goes back to the
        // pool all the same: its next use finds it stale.
        match self.reply.last() {
            Some(b'\n') => Some(Outcome::Reply),
            _ => eof.then_some(Outcome::Failed),
        }
    }
}

/// The router's reactor handler: routes each request to the shard that
/// owns its key over pooled backend connections, fails over around the
/// ring, runs the health checks, and relays replies untouched.
struct Relay {
    core: Arc<Core>,
    stats: Arc<TransportStats>,
    addrs: Vec<SocketAddr>,
    /// Per backend, the connections with no request on them.
    idle: Vec<Vec<TcpStream>>,
    /// The connections carrying a request.
    busy: Vec<Link>,
    jobs: HashMap<u64, Job>,
    next_job: u64,
    /// Per backend, whether a health check is in flight.
    pinging: Vec<bool>,
    next_check: Instant,
}

impl Relay {
    fn new(core: Arc<Core>, stats: Arc<TransportStats>, addrs: Vec<SocketAddr>) -> Relay {
        Relay {
            core,
            stats,
            idle: addrs.iter().map(|_| Vec::new()).collect(),
            busy: Vec::new(),
            jobs: HashMap::new(),
            next_job: 0,
            pinging: vec![false; addrs.len()],
            next_check: Instant::now(),
            addrs,
        }
    }

    fn add_job(&mut self, job: Job) -> u64 {
        self.next_job += 1;
        self.jobs.insert(self.next_job, job);
        self.next_job
    }

    /// Puts `request` on a connection to backend `b`: an idle one, or a
    /// fresh nonblocking connect when none is idle or `fresh` asks.
    fn send(&mut self, task: Task, b: usize, request: Vec<u8>, fresh: bool) -> io::Result<()> {
        let pooled = if fresh { None } else { self.idle[b].pop() };
        let reused = pooled.is_some();
        let stream = match pooled {
            Some(s) => s,
            None => {
                let c = &self.core;
                c.counters.backend_connects.fetch_add(1, Ordering::Relaxed);
                reactor::connect(self.addrs[b], c.config.io_timeout)?
            }
        };
        self.busy.push(Link {
            stream,
            backend: b,
            task,
            reused,
            request,
            sent: 0,
            reply: Vec::new(),
            progress: Instant::now(),
        });
        Ok(())
    }

    /// Sends a forward to the next backend on its walk; once none is
    /// left, answers the client with a typed `overloaded`.
    fn forward(&mut self, id: u64) {
        loop {
            let Some(Job::Forward { line, walk, tried }) = self.jobs.get_mut(&id) else {
                return;
            };
            let Some(b) = walk.pop_front() else {
                self.core.counters.exhausted.fetch_add(1, Ordering::Relaxed);
                let e = ServeError::new(
                    ErrorKind::Overloaded,
                    format!("no backend could answer ({tried} tried); retry"),
                );
                let reply = Chunk::line(local_error(line, &e));
                self.jobs.insert(id, Job::Done(reply));
                return;
            };
            if *tried > 0 {
                self.core.counters.failovers.fetch_add(1, Ordering::Relaxed);
            }
            *tried += 1;
            let request = [line.as_bytes(), b"\n"].concat();
            if self.send(Task::Forward(id), b, request, false).is_ok() {
                return;
            }
            self.core.record_failure(b);
        }
    }

    /// Starts a `stats` fan-out; an ejected backend's part is `null`.
    fn start_stats(&mut self) -> Step<u64> {
        let alive = self.core.alive();
        let id = self.add_job(Job::Stats {
            parts: vec![None; alive.len()],
            waiting: alive.len(),
        });
        for (b, alive) in alive.into_iter().enumerate() {
            if !alive
                || self
                    .send(Task::Stats(id), b, STATS.to_vec(), false)
                    .is_err()
            {
                self.settle(Task::Stats(id), b, None);
            }
        }
        Step::Pending(id)
    }

    /// Acts on a finished backend exchange.
    fn finish(&mut self, link: Link, outcome: Outcome) {
        let b = link.backend;
        match outcome {
            Outcome::Reply => {
                self.idle[b].push(link.stream);
                self.settle(link.task, b, Some(link.reply));
            }
            // A pooled connection that dies before any reply byte went
            // stale while idle; that says nothing about the backend's
            // health, so retry once on a fresh connect.
            Outcome::Failed
                if link.reused
                    && link.reply.is_empty()
                    && self.send(link.task, b, link.request, true).is_ok() => {}
            Outcome::Failed => self.settle(link.task, b, None),
        }
    }

    /// Acts on backend `b`'s reply for `task`; `None` when the exchange
    /// failed.
    fn settle(&mut self, task: Task, b: usize, reply: Option<Vec<u8>>) {
        match (task, reply) {
            (Task::Ping, reply) => {
                self.pinging[b] = false;
                match reply.is_some_and(|r| r.starts_with(b"{\"ok\":true")) {
                    true => self.core.record_success(b),
                    false => self.core.record_failure(b),
                }
            }
            (Task::Stats(id), reply) => {
                let text = reply.and_then(|r| String::from_utf8(r).ok());
                let part = text.and_then(|r| extract_stats_object(r.trim_end()));
                let Some(Job::Stats { parts, waiting }) = self.jobs.get_mut(&id) else {
                    return;
                };
                parts[b] = part;
                *waiting -= 1;
                if *waiting == 0 {
                    let body = self.core.stats_json(parts);
                    let body = reactor::stats_with_transport(&body, self.stats.snapshot());
                    self.jobs.insert(id, Job::Done(Chunk::line(body)));
                }
            }
            // The backend is up but shedding or draining; its health is
            // its own business — try the next shard without marking it.
            (Task::Forward(id), Some(reply)) if is_retryable(&reply) => self.forward(id),
            (Task::Forward(id), Some(reply)) => {
                self.core.record_success(b);
                self.core.counters.forwarded.fetch_add(1, Ordering::Relaxed);
                self.core.backends[b]
                    .forwarded
                    .fetch_add(1, Ordering::Relaxed);
                if let Some(job) = self.jobs.get_mut(&id) {
                    *job = Job::Done(Chunk::Owned(reply));
                }
            }
            (Task::Forward(id), None) => {
                self.core.record_failure(b);
                self.forward(id);
            }
        }
    }
}

impl Handler for Relay {
    type Pending = u64;

    fn execute(&mut self, line: &str) -> Step<u64> {
        let core = Arc::clone(&self.core);
        core.counters.requests.fetch_add(1, Ordering::Relaxed);
        let key = match protocol::parse_request(line, core.config.default_max_cycles) {
            Ok(Request::Ping) => {
                return Step::Reply(Chunk::line("{\"ok\":true,\"pong\":true}".into()))
            }
            Ok(Request::Stats) => return self.start_stats(),
            // `shutdown` drains the router; backends keep serving.
            Ok(Request::Shutdown) => return Step::Drain,
            Ok(req) => routing_key(&req).expect("simulate/verify requests always have a key"),
            Err(e) => {
                core.counters.local_errors.fetch_add(1, Ordering::Relaxed);
                return Step::Reply(Chunk::line(local_error(line, &e)));
            }
        };
        let alive = core.alive();
        let id = self.add_job(Job::Forward {
            line: line.to_string(),
            walk: core.ring.walk(&key, &alive).collect(),
            tried: 0,
        });
        self.forward(id);
        Step::Pending(id)
    }

    fn poll(&mut self, id: &mut u64) -> Option<Chunk> {
        if !matches!(self.jobs.get(id), Some(Job::Done(_))) {
            return None;
        }
        match self.jobs.remove(id) {
            Some(Job::Done(reply)) => Some(reply),
            _ => None,
        }
    }

    fn cancel(&mut self, id: u64) {
        self.jobs.remove(&id);
    }

    fn sockets(&self) -> Vec<(&TcpStream, bool)> {
        self.busy
            .iter()
            .map(|l| (&l.stream, l.sent < l.request.len()))
            .collect()
    }

    fn on_ready(&mut self, ready: &[bool]) {
        let now = Instant::now();
        let timeout = self.core.config.io_timeout;
        let mut done = Vec::new();
        // Descending, so `swap_remove` only moves links already visited.
        for i in (0..self.busy.len()).rev() {
            let link = &mut self.busy[i];
            let outcome = match ready.get(i).copied().unwrap_or(true) {
                true => link.advance(now),
                false => None,
            };
            let stalled = now.duration_since(link.progress) >= timeout;
            if let Some(outcome) = outcome.or(stalled.then_some(Outcome::Failed)) {
                done.push((self.busy.swap_remove(i), outcome));
            }
        }
        for (link, outcome) in done {
            self.finish(link, outcome);
        }
        if now >= self.next_check {
            self.next_check = now + self.core.config.check_interval;
            for b in 0..self.addrs.len() {
                if !self.pinging[b] {
                    self.pinging[b] = true;
                    if self.send(Task::Ping, b, PING.to_vec(), false).is_err() {
                        self.settle(Task::Ping, b, None);
                    }
                }
            }
        }
    }
}

/// A running router: the routing core plus the reactor thread that
/// does all its I/O — client connections, pooled backend connections,
/// health checks and the `stats` fan-out.
pub struct Router {
    core: Arc<Core>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Waker,
    reactor_handle: Option<thread::JoinHandle<()>>,
}

impl Router {
    /// Resolves the backends, binds `addr`, and starts the reactor.
    pub fn spawn(addr: &str, config: RouterConfig) -> io::Result<Router> {
        if config.backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one backend",
            ));
        }
        // Resolved once, here: a name lookup blocks, and the reactor
        // must not.
        let addrs = config
            .backends
            .iter()
            .map(|b| {
                let addr = b.to_socket_addrs()?.next();
                addr.ok_or_else(|| io::Error::other(format!("{b}: no address")))
            })
            .collect::<io::Result<Vec<SocketAddr>>>()?;
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let core = Core::new(config);
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(TransportStats::default());
        let relay = Relay::new(Arc::clone(&core), Arc::clone(&stats), addrs);
        let reactor = Reactor::new(
            listener,
            relay,
            core.config.max_request_line,
            core.config.io_timeout,
            stats,
            Arc::clone(&stop),
        )?;
        let waker = reactor.waker();
        let reactor_handle = thread::Builder::new()
            .name("router-reactor".into())
            .spawn(move || reactor.run())?;
        Ok(Router {
            core,
            addr: bound,
            stop,
            waker,
            reactor_handle: Some(reactor_handle),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The routing core (tests inspect ejection counters directly).
    pub fn core(&self) -> &Arc<Core> {
        &self.core
    }

    /// True once a drain was requested.
    pub fn draining(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || signal::requested()
    }

    /// Graceful drain: stop accepting, let connections deliver their
    /// in-flight requests, hang up on the rest. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        self.wait_for_shutdown();
    }

    /// Blocks until a drain is requested (SIGTERM/SIGINT or the
    /// `shutdown` verb) and has finished. The `router` binary parks
    /// here.
    pub fn wait_for_shutdown(&mut self) {
        if let Some(h) = self.reactor_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{}:7199", i + 1)).collect()
    }

    fn keys(n: usize) -> Vec<String> {
        // Shaped like real routing keys: fingerprint|policy|config.
        (0..n)
            .map(|i| {
                let i = i as u64;
                format!(
                    "prog{:04x}|postdoms|cfg{:02x}",
                    i * 2654435761 % 65536,
                    i % 7
                )
            })
            .collect()
    }

    /// Key→shard share stays bounded across 2, 3, and 8 backends: no
    /// backend owns more than 2× its fair share, none less than a
    /// third of it.
    #[test]
    fn distribution_is_balanced() {
        for n in [2usize, 3, 8] {
            let backends = addrs(n);
            let ring = Ring::new(&backends, 100);
            let alive = vec![true; n];
            let mut counts = vec![0u64; n];
            let keys = keys(4000);
            for k in &keys {
                counts[ring.shard_of(k, &alive).unwrap()] += 1;
            }
            let fair = keys.len() as u64 / n as u64;
            for (i, &c) in counts.iter().enumerate() {
                assert!(
                    c <= fair * 2 && c >= fair / 3,
                    "{n} backends: backend {i} holds {c} of {} keys (fair {fair})",
                    keys.len()
                );
            }
        }
    }

    /// Ejecting one backend moves only that backend's keys; everything
    /// owned by a survivor keeps its shard.
    #[test]
    fn ejection_remaps_minimally() {
        let backends = addrs(5);
        let ring = Ring::new(&backends, 100);
        let all = vec![true; 5];
        let mut without2 = all.clone();
        without2[2] = false;
        let keys = keys(3000);
        let mut moved_from_survivor = 0;
        let mut reassigned = 0;
        for k in &keys {
            let before = ring.shard_of(k, &all).unwrap();
            let after = ring.shard_of(k, &without2).unwrap();
            if before == 2 {
                reassigned += 1;
                assert_ne!(after, 2, "ejected backend must not receive keys");
            } else if before != after {
                moved_from_survivor += 1;
            }
        }
        assert_eq!(
            moved_from_survivor, 0,
            "keys owned by live backends must not move on ejection"
        );
        assert!(reassigned > 0, "the ejected backend owned something");
        // Readmission restores the exact original map.
        for k in &keys {
            assert_eq!(
                ring.shard_of(k, &all),
                Ring::new(&backends, 100).shard_of(k, &all)
            );
        }
    }

    /// The key→shard map is a pure function of the backend list: a
    /// rebuilt ring (a restarted router) assigns every key the same
    /// shard, and an independently built ring from the same list too.
    #[test]
    fn assignment_is_deterministic_across_restarts() {
        let backends = addrs(4);
        let a = Ring::new(&backends, 100);
        let b = Ring::new(&backends, 100);
        let alive = vec![true; 4];
        for k in keys(2000) {
            assert_eq!(a.shard_of(&k, &alive), b.shard_of(&k, &alive), "key {k}");
        }
    }

    /// The failover walk visits every live backend exactly once,
    /// starting at the owner.
    #[test]
    fn walk_covers_all_live_backends_once() {
        let backends = addrs(4);
        let ring = Ring::new(&backends, 50);
        let mut alive = vec![true; 4];
        alive[1] = false;
        let order: Vec<usize> = ring.walk("somekey|postdoms|cfg", &alive).collect();
        assert_eq!(order.len(), 3, "every live backend appears");
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "no backend repeats");
        assert!(!order.contains(&1), "dead backend is skipped");
        assert_eq!(
            order[0],
            ring.shard_of("somekey|postdoms|cfg", &alive).unwrap(),
            "walk starts at the owner"
        );
    }

    /// Ownership shares sum to the whole circle and track liveness.
    #[test]
    fn ownership_shares_are_sane() {
        let backends = addrs(3);
        let ring = Ring::new(&backends, 100);
        let shares = ring.ownership_permille(&[true, true, true]);
        let total: u64 = shares.iter().sum();
        assert!(
            (995..=1001).contains(&total),
            "shares sum to ~1000: {shares:?}"
        );
        for (i, &s) in shares.iter().enumerate() {
            assert!(s > 100, "backend {i} owns a visible share: {shares:?}");
        }
        let one_down = ring.ownership_permille(&[true, false, true]);
        assert_eq!(one_down[1], 0, "ejected backend owns nothing");
        let total: u64 = one_down.iter().sum();
        assert!((995..=1001).contains(&total), "survivors absorb the arc");
    }

    /// Router-local errors honor the request's integrity flag.
    #[test]
    fn local_errors_carry_the_trailer_when_asked() {
        let e = ServeError::new(ErrorKind::Overloaded, "no backend");
        let plain = local_error("{\"workload\":\"gzip\"}", &e);
        assert!(!plain.contains('\t'));
        let trailered = local_error("{\"workload\":\"gzip\",\"integrity\":true}", &e);
        let (_, ok) = protocol::check_integrity_trailer(&trailered);
        assert_eq!(ok, Some(true));
    }

    /// A relay over two backends that are listeners nobody accepts on:
    /// a connect lands in the backlog, which is all the relay needs to
    /// put a request on a socket, and no reply ever comes.
    fn silent_backends(io_timeout: Duration) -> (Vec<TcpListener>, Arc<Core>, Relay) {
        let listeners: Vec<TcpListener> = (0..2)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
            .collect();
        let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let core = Core::new(RouterConfig {
            io_timeout,
            ..RouterConfig::new(addrs.iter().map(SocketAddr::to_string).collect())
        });
        let mut relay = Relay::new(Arc::clone(&core), Arc::default(), addrs);
        relay.next_check = Instant::now() + Duration::from_secs(3600); // no pings
        (listeners, core, relay)
    }

    /// Only the envelope decides failover: typed `overloaded` and
    /// `shutting_down` errors (trailer or not) move on to the next shard
    /// without counting against the backend, and a success reply is
    /// relayed as it came, whatever text its body holds.
    #[test]
    fn failover_is_decided_by_the_envelope_alone() {
        let (_listeners, core, mut relay) = silent_backends(Duration::from_secs(30));
        // Answers the one request in flight with `reply`.
        let answer = |relay: &mut Relay, reply: &str| {
            let mut link = relay.busy.pop().expect("a request is on a backend socket");
            assert!(relay.busy.is_empty());
            link.reply = format!("{reply}\n").into_bytes();
            relay.finish(link, Outcome::Reply);
        };
        let request = "{\"workload\":\"gzip\",\"policy\":\"postdoms\"}";
        let success = "{\"ok\":true,\"workload\":\"gzip\",\"policy\":\"postdoms\",\
                       \"result\":{\"note\":{\"kind\":\"overloaded\"}}}";
        let shed = protocol::error_response(&ServeError::new(ErrorKind::Overloaded, "full"));
        let draining = protocol::with_integrity_trailer(&protocol::error_response(
            &ServeError::new(ErrorKind::ShuttingDown, "draining"),
        ));
        for first in [shed.as_str(), draining.as_str(), success] {
            let Step::Pending(mut id) = relay.execute(request) else {
                panic!("a simulate request is forwarded");
            };
            answer(&mut relay, first);
            if first != success {
                assert!(relay.poll(&mut id).is_none(), "{first}: failed over");
                answer(&mut relay, success);
            }
            match relay.poll(&mut id) {
                Some(Chunk::Owned(bytes)) => assert_eq!(bytes, format!("{success}\n").as_bytes()),
                _ => panic!("{first}: the success reply is relayed as it came"),
            }
        }
        let c = &core.counters;
        assert_eq!(c.failovers.load(Ordering::Relaxed), 2);
        assert_eq!(c.forwarded.load(Ordering::Relaxed), 3);
        assert_eq!(core.ejections(), 0);
        for b in &core.backends {
            assert_eq!(
                b.failures.load(Ordering::Relaxed),
                0,
                "shedding is not sickness"
            );
            assert!(b.healthy.load(Ordering::SeqCst));
        }
    }

    /// A backend that takes the request and never answers costs one
    /// `io_timeout` without progress, then counts as a failure and the
    /// request fails over; with every backend silent, the client gets
    /// the router's own typed `overloaded`.
    #[test]
    fn a_silent_backend_times_out_and_fails_over() {
        let timeout = Duration::from_millis(20);
        let (_listeners, core, mut relay) = silent_backends(timeout);
        let Step::Pending(mut id) = relay.execute("{\"workload\":\"gzip\"}") else {
            panic!("a simulate request is forwarded");
        };
        relay.on_ready(&[true]); // writes the request
        for tried in 1..=2 {
            assert!(relay.poll(&mut id).is_none(), "still waiting");
            std::thread::sleep(timeout * 2);
            relay.on_ready(&[false]);
            let failures: Vec<u64> = core
                .backends
                .iter()
                .map(|b| b.failures.load(Ordering::Relaxed))
                .collect();
            assert_eq!(failures.iter().sum::<u64>(), tried, "{failures:?}");
            relay.on_ready(&[true]); // writes the failover's request
        }
        match relay.poll(&mut id) {
            Some(Chunk::Owned(bytes)) => assert!(
                bytes.starts_with(b"{\"ok\":false,\"error\":{\"kind\":\"overloaded\""),
                "{}",
                String::from_utf8_lossy(&bytes)
            ),
            _ => panic!("exhausted walk answers the client"),
        }
        let c = &core.counters;
        assert_eq!(c.failovers.load(Ordering::Relaxed), 1);
        assert_eq!(c.exhausted.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn stats_object_extraction_round_trips() {
        let svc = crate::service::Service::new(crate::service::ServiceConfig::default());
        let reply = svc.stats().to_json();
        let inner = extract_stats_object(&reply).expect("extracts");
        let v = crate::json::parse(&inner).expect("inner object parses");
        assert!(v.get("queue").is_some());
        assert_eq!(extract_stats_object("{\"ok\":false}"), None);
    }
}
