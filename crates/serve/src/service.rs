//! The service core: admission control, single-flight cell execution on
//! persistent workers, and the result cache, independent of any
//! transport.
//!
//! Connection handlers call [`Service::submit`] (or the non-blocking
//! [`Service::enqueue`]). [`Service::start`] spawns `jobs` persistent
//! worker threads; each pulls the next queued cell the moment it is
//! free and runs it alone through [`sweep::run_batch_with`] at
//! `jobs = 1` — inline on the worker, keeping the sweep's panic
//! isolation, one retry and per-thread scratch arena. The pipeline per
//! unique cell is
//!
//! ```text
//! validate → cache lookup → admission queue → worker → prepare → simulate → render → cache
//! ```
//!
//! # Admission control
//!
//! The queue is bounded ([`ServiceConfig::queue_capacity`]). A request
//! arriving at a full queue is shed *immediately* with a typed
//! [`ErrorKind::Overloaded`] error — it never blocks the connection
//! handler and never hangs the client. Shedding at admission (rather
//! than deep in a worker) keeps the latency of the rejection path
//! constant no matter how far behind the simulator is.
//!
//! A request whose cache key is already queued or running joins that
//! cell's waiters (taking no queue slot); every waiter receives a clone
//! of the same `Arc<str>`.
//!
//! # Program registry
//!
//! Prepared programs are keyed by fingerprint. Preparation runs outside
//! the registry lock, single-flight per program: the first worker
//! prepares, the others wait on its slot. Bundled programs stay resident
//! (the bundle is fixed); an upload's entry is dropped when the last
//! cell that needs it has its reply, so memory does not grow with the
//! upload count — a repeated upload is answered by the result cache.
//!
//! # Determinism
//!
//! Which worker runs a cell, and when, cannot affect results: every cell
//! runs [`sweep::run_cell_with_config`] on its own validated config with
//! a per-worker scratch arena, exactly what an offline caller would run,
//! and the response line is rendered from the result before it is cached
//! — a cache hit replays the very bytes a fresh run would produce.

use crate::cache::{CacheKey, CacheStats, ResultCache};
use crate::journal::Journal;
use crate::json;
use crate::protocol::{ErrorKind, ServeError, SimRequest, SimSource};
use polyflow_bench::sweep::{self, CellOutcome};
use polyflow_bench::{pool, PreparedWorkload};
use polyflow_sim::Bucket;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Tunables for one [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Simulation worker threads (0 = [`pool::resolve_jobs`]).
    pub jobs: usize,
    /// Admission-queue bound: requests beyond this are shed with
    /// [`ErrorKind::Overloaded`].
    pub queue_capacity: usize,
    /// Per-request watchdog: the `max_cycles` budget applied to requests
    /// that do not set their own.
    pub default_max_cycles: u64,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Persistent cache tier: the journal directory (`--cache-dir`).
    /// `None` keeps the cache purely in memory (the pre-journal
    /// behavior).
    pub cache_dir: Option<PathBuf>,
    /// Journal compaction threshold in bytes (see [`Journal`]).
    pub journal_rotate_bytes: u64,
    /// Upper bound on a request's `deadline_ms` — longer asks are
    /// silently capped here (`--max-deadline`).
    pub max_deadline: Duration,
    /// Slow-client write watchdog: a response write that cannot make
    /// progress for this long forfeits the connection, so one stuck
    /// reader cannot wedge a handler (or the drain).
    pub write_timeout: Duration,
    /// Longest accepted request line in bytes; longer lines get a typed
    /// `bad_request` instead of an unbounded buffer.
    pub max_request_line: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            jobs: 0,
            queue_capacity: 64,
            default_max_cycles: 50_000_000,
            cache_capacity: 1024,
            cache_dir: None,
            journal_rotate_bytes: 8 << 20,
            max_deadline: Duration::from_secs(60),
            write_timeout: Duration::from_secs(10),
            max_request_line: 1 << 20,
        }
    }
}

/// A client's reply: the rendered response line (shared, newline-free)
/// or a typed error.
pub type Reply = Result<Arc<str>, ServeError>;

/// What [`Service::enqueue`] hands back.
#[derive(Debug)]
pub enum Ticket {
    /// Served from the cache; no queueing happened.
    Ready(Arc<str>),
    /// Admitted; the reply arrives on `rx` when the cell completes.
    Admitted {
        /// Where the reply lands.
        rx: Receiver<Reply>,
        /// When the waiter gives up and the queue drops the request:
        /// `deadline_ms` from admission, capped by
        /// [`ServiceConfig::max_deadline`].
        deadline: Option<Instant>,
    },
}

/// One client waiting on a queued or running cell.
struct Waiter {
    reply: Sender<Reply>,
    deadline: Option<Instant>,
}

/// A program's preparation slot: filled once, by the first worker that
/// needs it, while the others wait on it.
type Slot = OnceLock<Result<Arc<PreparedWorkload>, ServeError>>;

/// A queued cell.
struct Job {
    key: CacheKey,
    req: SimRequest,
    program: Arc<Slot>,
}

/// The admission queue and the waiters of every queued or running cell
/// (the single-flight table), under one lock.
#[derive(Default)]
struct Core {
    queue: VecDeque<Job>,
    waiters: HashMap<CacheKey, Vec<Waiter>>,
}

/// A registry entry: one program's slot and who holds it.
#[derive(Default)]
struct Entry {
    slot: Arc<Slot>,
    /// Queued or running cells that need this program.
    users: usize,
    /// Bundled programs are never dropped.
    resident: bool,
}

/// Snapshot of the service's observability counters.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Requests currently queued (admitted, not yet picked up by a
    /// worker).
    pub queue_depth: u64,
    /// The admission bound.
    pub queue_capacity: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Simulation requests admitted or cache-served.
    pub submitted: u64,
    /// Requests answered successfully (cache hits included).
    pub completed: u64,
    /// Requests answered with a simulation failure.
    pub failed: u64,
    /// Requests that expired before a result could be delivered
    /// (dropped in the queue or timed out while waiting).
    pub deadline_exceeded: u64,
    /// Typed retry-worthy rejections handed out (`overloaded` +
    /// `shutting_down`) — the server-side mirror of client retries.
    pub retry_after: u64,
    /// Cells dispatched to workers (`batches.count` in `stats`).
    pub batches: u64,
    /// Unique cells simulated (`batches.cells` in `stats`).
    pub batched_cells: u64,
    /// Programs in the registry: the bundled ones touched so far plus
    /// the uploads some queued or running cell still needs.
    pub registry_entries: u64,
    /// Program preparations run.
    pub registry_prepared: u64,
    /// Heap bytes held by the registry's prepared programs
    /// ([`PreparedWorkload::heap_bytes`]).
    pub registry_bytes: u64,
    /// Milliseconds since the service was built.
    pub uptime_ms: u64,
    /// Cache entries replayed from the journal at boot.
    pub warm_start: u64,
    /// Current on-disk size of the cache journal in bytes (0 when the
    /// persistent tier is disabled).
    pub journal_bytes: u64,
    /// Result-cache counters.
    pub cache: CacheStats,
    /// Successful cells contributing to `account_totals`.
    pub account_cells: u64,
    /// Cycle-slot totals summed over every successful cell, by
    /// [`Bucket::ALL`] order — the served counterpart of the figure
    /// binaries' per-run cycle accounts.
    pub account_totals: [u64; Bucket::ALL.len()],
}

impl ServiceStats {
    /// Renders the stats as the single-line `stats` response body.
    pub fn to_json(&self) -> String {
        let mut account = String::new();
        account.push_str(&format!("{{\"cells\":{}", self.account_cells));
        for (b, total) in Bucket::ALL.iter().zip(&self.account_totals) {
            account.push_str(&format!(",\"{}\":{total}", b.label()));
        }
        account.push('}');
        format!(
            "{{\"ok\":true,\"stats\":{{\
             \"uptime_ms\":{},\
             \"queue\":{{\"depth\":{},\"capacity\":{},\"shed\":{}}},\
             \"requests\":{{\"submitted\":{},\"completed\":{},\"failed\":{},\
             \"deadline_exceeded\":{},\"retry_after\":{}}},\
             \"batches\":{{\"count\":{},\"cells\":{}}},\
             \"registry\":{{\"entries\":{},\"prepared\":{},\"bytes\":{}}},\
             \"cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\
             \"inserts\":{},\"entries\":{},\
             \"warm_start\":{},\"journal_bytes\":{}}},\
             \"account\":{account}}}}}",
            self.uptime_ms,
            self.queue_depth,
            self.queue_capacity,
            self.shed,
            self.submitted,
            self.completed,
            self.failed,
            self.deadline_exceeded,
            self.retry_after,
            self.batches,
            self.batched_cells,
            self.registry_entries,
            self.registry_prepared,
            self.registry_bytes,
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.inserts,
            self.cache.entries,
            self.warm_start,
            self.journal_bytes,
        )
    }
}

#[derive(Default)]
struct AccountAgg {
    cells: u64,
    totals: [u64; Bucket::ALL.len()],
}

/// The transport-independent simulation service.
pub struct Service {
    config: ServiceConfig,
    jobs: usize,
    cache: ResultCache,
    /// The persistent tier, when `cache_dir` is set and the journal
    /// opened cleanly. A journal that cannot open degrades the service
    /// to memory-only (logged to stderr) rather than refusing to boot:
    /// losing warmth is survivable, refusing traffic is not.
    journal: Option<Journal>,
    started: Instant,
    warm_start: u64,
    registry: Mutex<HashMap<String, Entry>>,
    prepared: AtomicU64,
    core: Mutex<Core>,
    notify: Condvar,
    shutdown: AtomicBool,
    shed: AtomicU64,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    deadlines: AtomicU64,
    retry_after: AtomicU64,
    batches: AtomicU64,
    batched_cells: AtomicU64,
    account: Mutex<AccountAgg>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Transport completion hook: called after every cell a worker
    /// finishes so a parked reactor wakes and delivers the replies (see
    /// [`crate::reactor::Reactor`]). `None` for transports that block
    /// per-request.
    notifier: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

impl Service {
    /// Builds a service. The workers are **not** running yet — call
    /// [`Service::start`] — so admitted requests queue up but nothing
    /// executes (tests use this to pin down admission behavior).
    pub fn new(config: ServiceConfig) -> Arc<Service> {
        let jobs = if config.jobs == 0 {
            pool::resolve_jobs()
        } else {
            config.jobs
        };
        let cache = ResultCache::new(config.cache_capacity);
        let mut warm_start = 0u64;
        let journal = match &config.cache_dir {
            None => None,
            Some(dir) => match Journal::open(dir, config.journal_rotate_bytes) {
                Ok((journal, entries, report)) => {
                    for (key, value) in entries {
                        cache.insert(key, Arc::from(value.as_str()));
                        warm_start += 1;
                    }
                    if report.torn_tails > 0 || report.incompatible > 0 {
                        eprintln!(
                            "[serve] cache journal recovered with {} torn tail(s), \
                             {} incompatible segment(s) skipped",
                            report.torn_tails, report.incompatible
                        );
                    }
                    Some(journal)
                }
                Err(e) => {
                    eprintln!(
                        "[serve] cache journal disabled: cannot open {}: {e}",
                        dir.display()
                    );
                    None
                }
            },
        };
        Arc::new(Service {
            jobs,
            cache,
            journal,
            started: Instant::now(),
            warm_start,
            config,
            registry: Mutex::new(HashMap::new()),
            prepared: AtomicU64::new(0),
            core: Mutex::new(Core::default()),
            notify: Condvar::new(),
            shutdown: AtomicBool::new(false),
            shed: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            deadlines: AtomicU64::new(0),
            retry_after: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_cells: AtomicU64::new(0),
            account: Mutex::new(AccountAgg::default()),
            workers: Mutex::new(Vec::new()),
            notifier: Mutex::new(None),
        })
    }

    /// Spawns the `jobs` worker threads. Idempotent.
    pub fn start(self: &Arc<Service>) {
        let mut workers = self.workers.lock().unwrap();
        if workers.is_empty() {
            *workers = (0..self.jobs)
                .map(|i| {
                    let svc = Arc::clone(self);
                    std::thread::Builder::new()
                        .name(format!("serve-worker-{i}"))
                        .spawn(move || svc.work())
                        .expect("spawn worker")
                })
                .collect();
        }
    }

    /// Registers the transport completion hook (replacing any previous
    /// one): it runs after every cell a worker finishes and when a
    /// worker exits, so an event-driven transport learns "replies may be
    /// waiting" without polling.
    pub fn set_notifier(&self, f: impl Fn() + Send + Sync + 'static) {
        *self.notifier.lock().unwrap() = Some(Box::new(f));
    }

    fn notify_transport(&self) {
        if let Some(f) = &*self.notifier.lock().unwrap() {
            f();
        }
    }

    /// Counts a request whose deadline expired while its reply was in
    /// flight. `submit` counts its own timeouts; transports that wait
    /// via [`Ticket::Admitted`] report theirs here so the
    /// `deadline_exceeded` stat stays complete.
    pub fn record_deadline_exceeded(&self) {
        self.deadlines.fetch_add(1, Ordering::Relaxed);
    }

    /// The per-request default cycle budget (for request parsing).
    pub fn default_max_cycles(&self) -> u64 {
        self.config.default_max_cycles
    }

    /// The tunables this service was built with (transports read the
    /// line bound and write watchdog from here).
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Validates admission for one request: cache first, then a cell
    /// already in flight, then the bounded queue. Never blocks on
    /// simulation work.
    pub fn enqueue(&self, req: SimRequest) -> Result<Ticket, ServeError> {
        if self.shutdown.load(Ordering::SeqCst) {
            self.retry_after.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::new(
                ErrorKind::ShuttingDown,
                "server is draining; no new work accepted",
            ));
        }
        self.submitted.fetch_add(1, Ordering::Relaxed);
        // The workload component is the program's content fingerprint,
        // not its name: a bundled benchmark requested by name and the
        // same program uploaded as assembly share one cache entry.
        let key = CacheKey {
            workload: req.fingerprint(),
            policy: req.policy_label(),
            config: req.config.fingerprint(),
        };
        let deadline = req
            .deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms).min(self.config.max_deadline));
        let (tx, rx) = channel();
        let waiter = Waiter {
            reply: tx,
            deadline,
        };
        let mut core = self.core.lock().unwrap();
        // Looked up under the core lock: a worker caches its result
        // before it retires the cell's waiters, so a miss here means the
        // cell is either in flight (join it) or not yet queued.
        if let Some(hit) = self.cache.get(&key) {
            self.completed.fetch_add(1, Ordering::Relaxed);
            return Ok(Ticket::Ready(hit));
        }
        if let Some(waiters) = core.waiters.get_mut(&key) {
            waiters.push(waiter);
            return Ok(Ticket::Admitted { rx, deadline });
        }
        if core.queue.len() >= self.config.queue_capacity {
            self.shed.fetch_add(1, Ordering::Relaxed);
            self.retry_after.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::new(
                ErrorKind::Overloaded,
                format!(
                    "admission queue full ({} pending); retry later",
                    core.queue.len()
                ),
            ));
        }
        let program = self.acquire(&key.workload, &req.source);
        core.waiters.insert(key.clone(), vec![waiter]);
        core.queue.push_back(Job { key, req, program });
        drop(core);
        self.notify.notify_one();
        Ok(Ticket::Admitted { rx, deadline })
    }

    /// [`enqueue`](Service::enqueue) and wait for the reply. A request
    /// carrying a deadline waits at most that long: the caller gets a
    /// typed [`ErrorKind::DeadlineExceeded`] the moment the deadline
    /// passes, even if the cell is still running on a worker (the
    /// result, if it ever lands, still populates the cache — only the
    /// waiter gives up).
    pub fn submit(&self, req: SimRequest) -> Reply {
        let (rx, deadline) = match self.enqueue(req)? {
            Ticket::Ready(line) => return Ok(line),
            Ticket::Admitted { rx, deadline } => (rx, deadline),
        };
        let recv = match deadline {
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(d) => rx.recv_timeout(d.saturating_duration_since(Instant::now())),
        };
        match recv {
            Ok(reply) => reply,
            Err(RecvTimeoutError::Timeout) => {
                self.deadlines.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::new(
                    ErrorKind::DeadlineExceeded,
                    "deadline expired before the result was ready",
                ))
            }
            Err(RecvTimeoutError::Disconnected) => Err(ServeError::new(
                ErrorKind::Internal,
                "service stopped before replying",
            )),
        }
    }

    /// Runs (or cache-serves) one `verify` request: the lint pass over
    /// the request's program, answered synchronously on the connection
    /// handler's thread — lint is milliseconds of dataflow solving, not
    /// a simulation, so it neither queues nor batches.
    ///
    /// The rendered report is a pure function of the program bytes, so
    /// it shares the [`ResultCache`] keyed by the program fingerprint
    /// (`policy` pinned to `"verify"` keeps the namespace disjoint from
    /// simulation cells). A panic inside the lint pass — a program the
    /// builder accepts but an analysis chokes on — is caught and
    /// answered as a typed internal error, exactly like a simulation
    /// panic.
    pub fn verify_program(&self, req: crate::verify::VerifyRequest) -> Reply {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(ServeError::new(
                ErrorKind::ShuttingDown,
                "server is draining; no new work accepted",
            ));
        }
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let key = CacheKey {
            workload: req.fingerprint.clone(),
            policy: "verify".to_string(),
            config: String::new(),
        };
        if let Some(hit) = self.cache.get(&key) {
            self.completed.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        let jobs = self.jobs;
        let line = catch_unwind(AssertUnwindSafe(|| {
            crate::verify::run(&req.program, &req.fingerprint, jobs)
        }))
        .map_err(|_| {
            self.failed.fetch_add(1, Ordering::Relaxed);
            ServeError::new(ErrorKind::Internal, "lint pass died on this program")
        })?;
        let line = self.store(key, Arc::from(line.as_str()));
        self.completed.fetch_add(1, Ordering::Relaxed);
        Ok(line)
    }

    /// Inserts a rendered response into the cache and, when the
    /// persistent tier is on, appends it to the journal (compacting when
    /// the journal has grown past its threshold). Journal I/O errors are
    /// counted inside [`Journal`] and never fail the request — the
    /// in-memory cache remains authoritative for this process's
    /// lifetime.
    fn store(&self, key: CacheKey, line: Arc<str>) -> Arc<str> {
        let line = self.cache.insert(key.clone(), line);
        if let Some(j) = &self.journal {
            let _ = j.append(&key, &line);
            if j.wants_compaction() {
                let _ = j.compact(&self.cache.snapshot());
            }
        }
        line
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        let account = self.account.lock().unwrap();
        let (registry_entries, registry_bytes) = {
            let registry = self.registry.lock().unwrap();
            let bytes: usize = registry
                .values()
                .filter_map(|e| e.slot.get()?.as_ref().ok())
                .map(|w| w.heap_bytes())
                .sum();
            (registry.len() as u64, bytes as u64)
        };
        ServiceStats {
            queue_depth: self.core.lock().unwrap().queue.len() as u64,
            queue_capacity: self.config.queue_capacity as u64,
            shed: self.shed.load(Ordering::Relaxed),
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            deadline_exceeded: self.deadlines.load(Ordering::Relaxed),
            retry_after: self.retry_after.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_cells: self.batched_cells.load(Ordering::Relaxed),
            registry_entries,
            registry_prepared: self.prepared.load(Ordering::Relaxed),
            registry_bytes,
            uptime_ms: self.started.elapsed().as_millis() as u64,
            warm_start: self.warm_start,
            journal_bytes: self.journal.as_ref().map_or(0, |j| j.size_bytes()),
            cache: self.cache.stats(),
            account_cells: account.cells,
            account_totals: account.totals,
        }
    }

    /// Stops admitting simulation work. Already-queued requests still
    /// drain; the workers exit once the queue is empty.
    pub fn begin_shutdown(&self) {
        // Flipped under the core lock so a worker cannot check the flag,
        // miss the wake-up, and then sleep forever.
        let core = self.core.lock().unwrap();
        self.shutdown.store(true, Ordering::SeqCst);
        drop(core);
        self.notify.notify_all();
    }

    /// True once [`begin_shutdown`](Service::begin_shutdown) was called.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// [`begin_shutdown`](Service::begin_shutdown), then wait for the
    /// workers to drain the queue and exit.
    pub fn shutdown_and_join(&self) {
        self.begin_shutdown();
        let workers = std::mem::take(&mut *self.workers.lock().unwrap());
        for handle in workers {
            let _ = handle.join();
        }
        // Flush the journal so everything computed during the drain
        // (including the cells in flight when SIGTERM landed) survives
        // the restart.
        if let Some(j) = &self.journal {
            j.sync();
        }
    }

    fn work(&self) {
        while let Some(job) = self.next_job() {
            self.run(job);
            // Replies (expired-drop included) landed on their channels;
            // wake the transport to deliver them.
            self.notify_transport();
        }
        // Drained and no new work: one last notify so a reactor waiting
        // on in-flight replies sees the hangup promptly.
        self.notify_transport();
    }

    /// Blocks for the next queued cell; `None` once the service is
    /// draining and the queue is empty.
    fn next_job(&self) -> Option<Job> {
        let mut core = self.core.lock().unwrap();
        loop {
            if let Some(job) = core.queue.pop_front() {
                return Some(job);
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            core = self.notify.wait(core).unwrap();
        }
    }

    /// Runs one dequeued cell and answers everyone waiting on it.
    fn run(&self, job: Job) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        let answered = self.drop_expired(&job.key).then(|| {
            let reply = self.execute(&job);
            let waiters = self.core.lock().unwrap().waiters.remove(&job.key);
            (waiters.expect("a running cell keeps its waiters"), reply)
        });
        // Let go of the program before replying, so a client holding its
        // reply finds a finished upload already out of the registry.
        self.release(&job.key.workload);
        if let Some((waiters, reply)) = answered {
            let counter = match reply {
                Ok(_) => &self.completed,
                Err(_) => &self.failed,
            };
            counter.fetch_add(waiters.len() as u64, Ordering::Relaxed);
            for w in waiters {
                let _ = w.reply.send(reply.clone()); // receiver may have hung up
            }
        }
    }

    /// Answers the cell's expired waiters with a typed error before any
    /// simulation time is spent on them, and retires the cell when
    /// nobody is left waiting. True when live waiters remain.
    fn drop_expired(&self, key: &CacheKey) -> bool {
        let now = Instant::now();
        let mut core = self.core.lock().unwrap();
        let waiters = core
            .waiters
            .get_mut(key)
            .expect("a queued cell has waiters");
        waiters.retain(|w| match w.deadline {
            Some(d) if now >= d => {
                self.deadlines.fetch_add(1, Ordering::Relaxed);
                let _ = w.reply.send(Err(ServeError::new(
                    ErrorKind::DeadlineExceeded,
                    "deadline expired while queued",
                )));
                false
            }
            _ => true,
        });
        let live = !waiters.is_empty();
        if !live {
            core.waiters.remove(key);
        }
        live
    }

    /// Prepares (or reuses) the cell's program, simulates the cell, and
    /// renders and caches the response line.
    fn execute(&self, job: &Job) -> Reply {
        let w = job
            .program
            .get_or_init(|| self.prepare(&job.req.source))
            .clone()?;
        self.batched_cells.fetch_add(1, Ordering::Relaxed);
        let item = (w, (job.req.cell, &job.req.config));
        let (mut outcomes, _report) = sweep::run_batch_with(
            "serve",
            std::slice::from_ref(&item),
            1,
            |w, (cell, cfg), scratch| sweep::run_cell_with_config(w, *cell, cfg, scratch),
            |(cell, _)| cell.label(),
        );
        match outcomes.pop().expect("one outcome per cell") {
            CellOutcome::Ok(result) => {
                {
                    let mut agg = self.account.lock().unwrap();
                    agg.cells += 1;
                    for b in Bucket::ALL {
                        agg.totals[b.index()] += result.account.bucket(b);
                    }
                }
                let line = crate::protocol::ok_response(
                    job.req.workload_label(),
                    &job.req.policy_label(),
                    &json::compact(&result.to_json()),
                );
                Ok(self.store(job.key.clone(), Arc::from(line.as_str())))
            }
            CellOutcome::Failed { payload, .. } => {
                Err(ServeError::new(ErrorKind::SimFailed, payload))
            }
        }
    }

    /// Takes a hold on the registry slot of the program with
    /// `fingerprint`, creating the (empty) slot on first touch — so an
    /// uploaded copy of a bundled benchmark shares the trace and
    /// analysis prepared for the name, and vice versa.
    fn acquire(&self, fingerprint: &str, source: &SimSource) -> Arc<Slot> {
        let mut registry = self.registry.lock().unwrap();
        let entry = registry.entry(fingerprint.to_string()).or_default();
        entry.users += 1;
        entry.resident |= matches!(source, SimSource::Bundled(_));
        Arc::clone(&entry.slot)
    }

    /// Drops a hold taken by [`acquire`](Service::acquire); an upload's
    /// entry goes with its last hold.
    fn release(&self, fingerprint: &str) {
        let mut registry = self.registry.lock().unwrap();
        if let Some(entry) = registry.get_mut(fingerprint) {
            entry.users -= 1;
            if entry.users == 0 && !entry.resident {
                registry.remove(fingerprint);
            }
        }
    }

    /// Prepares a request's program. An uploaded program that faults or
    /// never halts is the client's mistake ([`ErrorKind::SimFailed`]); a
    /// bundled one that does is ours ([`ErrorKind::Internal`]).
    fn prepare(&self, source: &SimSource) -> Result<Arc<PreparedWorkload>, ServeError> {
        self.prepared.fetch_add(1, Ordering::Relaxed);
        let (workload, fail_kind) = match source {
            SimSource::Bundled(name) => {
                let w = polyflow_workloads::by_name(name).ok_or_else(|| {
                    ServeError::new(
                        ErrorKind::Internal,
                        format!("workload `{name}` vanished from the bundle"),
                    )
                })?;
                (w, ErrorKind::Internal)
            }
            SimSource::Uploaded(w) => ((**w).clone(), ErrorKind::SimFailed),
        };
        catch_unwind(AssertUnwindSafe(|| PreparedWorkload::try_prepare(workload)))
            .unwrap_or_else(|_| Err("workload panicked during preparation".to_string()))
            .map(Arc::new)
            .map_err(|e| ServeError::new(fail_kind, e))
    }
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("jobs", &self.jobs)
            .field("queue_capacity", &self.config.queue_capacity)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_request, Request};

    fn sim_request(workload: &str, policy: &str, max_cycles: u64) -> SimRequest {
        let line = format!(
            "{{\"workload\":\"{workload}\",\"policy\":\"{policy}\",\
             \"config\":{{\"max_cycles\":{max_cycles}}}}}"
        );
        match parse_request(&line, u64::MAX).expect("valid request") {
            Request::Simulate(r) => *r,
            _ => unreachable!(),
        }
    }

    /// The K+1-th concurrent request gets a typed `Overloaded` rejection
    /// — no hang, no panic. The workers are deliberately not started, so
    /// the queue cannot drain under us.
    #[test]
    fn overload_sheds_with_typed_error() {
        let svc = Service::new(ServiceConfig {
            queue_capacity: 3,
            ..ServiceConfig::default()
        });
        for i in 0..3 {
            match svc.enqueue(sim_request("gzip", "postdoms", 1000 + i)) {
                Ok(Ticket::Admitted { .. }) => {}
                other => panic!("request {i} should be admitted, got {:?}", err_of(other)),
            }
        }
        let e = match svc.enqueue(sim_request("gzip", "postdoms", 9999)) {
            Err(e) => e,
            Ok(_) => panic!("queue is full; the 4th request must be shed"),
        };
        assert_eq!(e.kind, ErrorKind::Overloaded);
        let s = svc.stats();
        assert_eq!(s.shed, 1);
        assert_eq!(s.queue_depth, 3);
    }

    fn err_of(t: Result<Ticket, ServeError>) -> Option<ServeError> {
        t.err()
    }

    #[test]
    fn shutdown_rejects_new_work() {
        let svc = Service::new(ServiceConfig::default());
        svc.begin_shutdown();
        let e = svc
            .enqueue(sim_request("gzip", "postdoms", 1000))
            .expect_err("draining service takes no new work");
        assert_eq!(e.kind, ErrorKind::ShuttingDown);
    }

    /// An uploaded program that never halts within its window is the
    /// client's mistake: a typed `sim_failed` reply, not a dead worker.
    /// (The tiny `window` pragma keeps the preparation attempt cheap.)
    #[test]
    fn non_halting_upload_is_a_typed_sim_failure() {
        let asm = "; window: 10_000\nfn main {\nspin:\n    j spin\n}";
        let line = format!(
            "{{\"program\":\"{}\",\"config\":{{\"max_cycles\":1000}}}}",
            crate::json::escape(asm)
        );
        let req = match parse_request(&line, u64::MAX).expect("valid request") {
            Request::Simulate(r) => *r,
            _ => unreachable!(),
        };
        let svc = Service::new(ServiceConfig::default());
        svc.start();
        let e = svc.submit(req).expect_err("spin loop cannot prepare");
        assert_eq!(e.kind, ErrorKind::SimFailed);
        assert!(e.message.contains("did not halt"), "{e}");
        svc.shutdown_and_join();
    }

    fn sim_request_with(workload: &str, policy: &str, max_cycles: u64, extra: &str) -> SimRequest {
        let line = format!(
            "{{\"workload\":\"{workload}\",\"policy\":\"{policy}\",\
             \"config\":{{\"max_cycles\":{max_cycles}}}{extra}}}"
        );
        match parse_request(&line, u64::MAX).expect("valid request") {
            Request::Simulate(r) => *r,
            _ => unreachable!(),
        }
    }

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new(tag: &str) -> TempDir {
            use std::sync::atomic::AtomicU32;
            static NONCE: AtomicU32 = AtomicU32::new(0);
            let dir = std::env::temp_dir().join(format!(
                "polyflow-svc-{tag}-{}-{}",
                std::process::id(),
                NONCE.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A queued request whose deadline passes before a worker gets to
    /// it is answered with a typed `deadline_exceeded`, and the worker
    /// never burns a cell on it. The workers are started only *after* the
    /// deadline has already expired, so the drop-in-queue path (not the
    /// submit timeout) is what fires first on the worker side.
    #[test]
    fn expired_request_is_dropped_before_the_pool() {
        let svc = Service::new(ServiceConfig::default());
        let req = sim_request_with("gzip", "postdoms", 100_000, ",\"deadline_ms\":1");
        let rx = match svc.enqueue(req).expect("admitted") {
            Ticket::Admitted { rx, .. } => rx,
            Ticket::Ready(_) => panic!("cold cache cannot be ready"),
        };
        std::thread::sleep(Duration::from_millis(20));
        svc.start();
        let reply = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("worker answers expired requests");
        let e = reply.expect_err("expired request gets a typed error");
        assert_eq!(e.kind, ErrorKind::DeadlineExceeded);
        svc.shutdown_and_join();
        let s = svc.stats();
        assert_eq!(s.batched_cells, 0, "no pool time for a dead request");
        assert!(s.deadline_exceeded >= 1);
    }

    /// `submit` with a deadline gives up waiting when the deadline
    /// passes — here the workers are simply never started, the bluntest
    /// possible stall.
    #[test]
    fn submit_times_out_at_its_deadline() {
        let svc = Service::new(ServiceConfig::default());
        let req = sim_request_with("gzip", "postdoms", 100_000, ",\"deadline_ms\":30");
        let t0 = Instant::now();
        let e = svc.submit(req).expect_err("no workers, must time out");
        assert_eq!(e.kind, ErrorKind::DeadlineExceeded);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "timed out promptly, not hung"
        );
        assert!(svc.stats().deadline_exceeded >= 1);
    }

    /// Typed retry-worthy rejections are counted: shedding and draining
    /// both bump `retry_after`.
    #[test]
    fn retry_after_counts_shed_and_draining() {
        let svc = Service::new(ServiceConfig {
            queue_capacity: 1,
            ..ServiceConfig::default()
        });
        assert!(svc.enqueue(sim_request("gzip", "postdoms", 1000)).is_ok());
        let _ = svc.enqueue(sim_request("gzip", "postdoms", 2000));
        svc.begin_shutdown();
        let _ = svc.enqueue(sim_request("gzip", "postdoms", 3000));
        assert_eq!(svc.stats().retry_after, 2);
    }

    /// Populate through one service, reopen a second on the same
    /// `cache_dir`: the second boots warm and serves the very same
    /// bytes without batching anything.
    #[test]
    fn warm_start_replays_the_journal() {
        let dir = TempDir::new("warm");
        let config = ServiceConfig {
            cache_dir: Some(dir.0.clone()),
            ..ServiceConfig::default()
        };
        let first = Service::new(config.clone());
        first.start();
        let line = first
            .submit(sim_request("gzip", "postdoms", 200_000))
            .expect("cold run succeeds");
        first.shutdown_and_join();
        drop(first);

        let second = Service::new(config);
        assert_eq!(second.stats().warm_start, 1, "one entry replayed");
        assert!(second.stats().journal_bytes > 0);
        // No workers started: only the cache can answer.
        match second
            .enqueue(sim_request("gzip", "postdoms", 200_000))
            .expect("admitted or ready")
        {
            Ticket::Ready(warm) => assert_eq!(&*warm, &*line, "byte-identical"),
            Ticket::Admitted { .. } => panic!("warm entry must be served from cache"),
        }
        assert_eq!(second.stats().batched_cells, 0);
    }

    fn upload_request(asm: &str, policy: &str, max_cycles: u64) -> SimRequest {
        let line = format!(
            "{{\"program\":\"{}\",\"policy\":\"{policy}\",\
             \"config\":{{\"max_cycles\":{max_cycles}}}}}",
            crate::json::escape(asm)
        );
        match parse_request(&line, u64::MAX).expect("valid request") {
            Request::Simulate(r) => *r,
            _ => unreachable!(),
        }
    }

    const SAXPY: &str = include_str!("../../../workloads/asm/saxpy.asm");

    fn admitted(t: Result<Ticket, ServeError>) -> Receiver<Reply> {
        match t.expect("admitted") {
            Ticket::Admitted { rx, .. } => rx,
            Ticket::Ready(_) => panic!("cold cache cannot be ready"),
        }
    }

    /// Two cells of one upload share one preparation, even on two
    /// workers, and the upload leaves the registry with its last reply.
    #[test]
    fn one_upload_prepares_once_and_leaves_the_registry() {
        let svc = Service::new(ServiceConfig {
            jobs: 2,
            ..ServiceConfig::default()
        });
        let a = admitted(svc.enqueue(upload_request(SAXPY, "postdoms", 1_000_000)));
        let b = admitted(svc.enqueue(upload_request(SAXPY, "loop", 1_000_000)));
        assert_eq!(svc.stats().registry_entries, 1, "one program, one entry");
        svc.start();
        a.recv().unwrap().expect("postdoms cell runs");
        b.recv().unwrap().expect("loop cell runs");
        let s = svc.stats();
        assert_eq!(s.registry_prepared, 1, "single-flight preparation");
        assert_eq!(s.registry_entries, 0, "no reply pending, no upload kept");
        assert_eq!(s.batched_cells, 2);
        svc.shutdown_and_join();
    }

    /// `registry.bytes` counts the prepared bundled programs, and is
    /// back at that figure once an upload's reply is out.
    #[test]
    fn registry_bytes_count_resident_programs_only() {
        let svc = Service::new(ServiceConfig {
            jobs: 1,
            ..ServiceConfig::default()
        });
        svc.start();
        assert_eq!(svc.stats().registry_bytes, 0);
        svc.submit(sim_request("gzip", "postdoms", 50_000_000))
            .expect("cell runs");
        let bundled = svc.stats().registry_bytes;
        assert!(bundled > 0);
        svc.submit(upload_request(SAXPY, "postdoms", 1_000_000))
            .expect("cell runs");
        assert_eq!(svc.stats().registry_bytes, bundled);
        svc.shutdown_and_join();
    }

    /// The trade-off of not keeping uploads: the same cell asked again
    /// is a cache hit, but a new cell of the same upload prepares again.
    #[test]
    fn a_repeated_upload_is_a_cache_hit_and_a_new_cell_prepares_again() {
        let svc = Service::new(ServiceConfig {
            jobs: 1,
            ..ServiceConfig::default()
        });
        svc.start();
        let first = svc
            .submit(upload_request(SAXPY, "postdoms", 1_000_000))
            .expect("cell runs");
        match svc.enqueue(upload_request(SAXPY, "postdoms", 1_000_000)) {
            Ok(Ticket::Ready(again)) => assert!(Arc::ptr_eq(&first, &again)),
            _ => panic!("a repeated cell is answered by the result cache"),
        }
        assert_eq!(svc.stats().registry_prepared, 1);
        svc.submit(upload_request(SAXPY, "loop", 1_000_000))
            .expect("cell runs");
        let s = svc.stats();
        assert_eq!(s.registry_prepared, 2, "the registry did not keep it");
        assert_eq!(s.registry_entries, 0);
        svc.shutdown_and_join();
    }

    /// An upload that cannot prepare fails every waiter — the joiner of
    /// its cell and the other cell sharing its program — with one
    /// attempt, and leaves nothing behind in the registry.
    #[test]
    fn a_failed_preparation_fails_every_waiter_and_leaves_no_entry() {
        let spin = "; window: 10_000\nfn main {\nspin:\n    j spin\n}";
        let svc = Service::new(ServiceConfig {
            jobs: 2,
            ..ServiceConfig::default()
        });
        let rxs = [
            admitted(svc.enqueue(upload_request(spin, "postdoms", 1000))),
            admitted(svc.enqueue(upload_request(spin, "postdoms", 1000))),
            admitted(svc.enqueue(upload_request(spin, "loop", 1000))),
        ];
        assert_eq!(svc.stats().queue_depth, 2, "the duplicate joined");
        svc.start();
        for rx in rxs {
            let e = rx.recv().unwrap().expect_err("spin loop cannot prepare");
            assert_eq!(e.kind, ErrorKind::SimFailed);
        }
        let s = svc.stats();
        assert_eq!(s.failed, 3);
        assert_eq!(s.registry_prepared, 1, "the failure is shared too");
        assert_eq!(s.registry_entries, 0);
        svc.shutdown_and_join();
    }

    /// A request for a cell that is already running joins it: same
    /// bytes, same allocation, one simulation. The test holds the cell
    /// running by preparing its program itself behind a gate, so the
    /// worker waits on the program's slot until the join has happened.
    #[test]
    fn a_request_joining_a_running_cell_shares_its_reply() {
        let svc = Service::new(ServiceConfig {
            jobs: 1,
            ..ServiceConfig::default()
        });
        let req = || sim_request("gzip", "postdoms", 1_000_000_000);
        let slot = svc.acquire(&req().fingerprint(), &req().source);
        let (entered_tx, entered_rx) = channel();
        let (gate_tx, gate_rx) = channel::<()>();
        let preparer = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                slot.get_or_init(|| {
                    entered_tx.send(()).unwrap();
                    gate_rx.recv().unwrap();
                    svc.prepare(&req().source)
                });
            })
        };
        entered_rx.recv().unwrap();
        let first = admitted(svc.enqueue(req()));
        svc.start();
        let deadline = Instant::now() + Duration::from_secs(30);
        while svc.stats().batches == 0 {
            assert!(Instant::now() < deadline, "worker never took the cell");
            std::thread::sleep(Duration::from_millis(1));
        }
        let joined = match svc.enqueue(req()) {
            Ok(Ticket::Admitted { rx, .. }) => rx,
            Ok(Ticket::Ready(_)) => panic!("the cell finished before the join"),
            Err(e) => panic!("join refused: {e}"),
        };
        assert_eq!(svc.stats().queue_depth, 0, "a joiner queues nothing");
        gate_tx.send(()).unwrap();
        preparer.join().unwrap();
        let a = first.recv().unwrap().expect("cell runs");
        let b = joined.recv().unwrap().expect("joiner gets the reply");
        assert!(Arc::ptr_eq(&a, &b), "one rendered line for both");
        assert_eq!(svc.stats().batched_cells, 1);
        svc.release(&req().fingerprint());
        svc.shutdown_and_join();
    }

    #[test]
    fn stats_json_is_single_line_and_parses() {
        let svc = Service::new(ServiceConfig::default());
        let line = svc.stats().to_json();
        assert!(!line.contains('\n'));
        let v = crate::json::parse(&line).expect("stats JSON parses");
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        let stats = v.get("stats").unwrap();
        assert_eq!(
            stats
                .get("queue")
                .unwrap()
                .get("capacity")
                .unwrap()
                .as_u64(),
            Some(64)
        );
        assert!(stats.get("account").unwrap().get("retire").is_some());
        let registry = stats.get("registry").unwrap();
        assert_eq!(registry.get("entries").unwrap().as_u64(), Some(0));
        assert_eq!(registry.get("prepared").unwrap().as_u64(), Some(0));
        assert_eq!(registry.get("bytes").unwrap().as_u64(), Some(0));
    }
}
