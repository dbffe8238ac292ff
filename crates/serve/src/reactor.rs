//! The readiness-based connection core: one thread, `poll(2)`, and a
//! per-connection state machine, shared by `serve` and the `router`.
//!
//! The original transport spawned one thread per connection, which made
//! connection count the service's scaling ceiling: N open connections
//! cost N stacks plus N wakeups per read-timeout tick, and the process
//! thread limit becomes the shed point long before the simulator does.
//! This module replaces that with a single reactor thread driving every
//! connection through nonblocking sockets:
//!
//! ```text
//!              ┌────────────────────────────────────────────┐
//!              │                 reactor loop               │
//!              │  poll(listener, waker, conns…, handler's)  │
//!              │    ├─ handler sockets → Handler::on_ready  │
//!              │    ├─ accept  → new Conn (nonblocking)     │
//!              │    ├─ readable→ read → split lines → inbox │
//!              │    ├─ inbox   → Handler::execute           │
//!              │    │     reply now  → queue it             │
//!              │    │     later      → pending              │
//!              │    ├─ pending → Handler::poll → queue      │
//!              │    └─ writable→ flush out (partial-write   │
//!              │                 aware, stall watchdog)     │
//!              └────────────────────────────────────────────┘
//! ```
//!
//! # The handler
//!
//! What a request *means* is a [`Handler`]'s business; everything about
//! moving bytes is the reactor's. Serve's handler
//! ([`crate::server`]) hands simulations to the `Service`; the
//! router's ([`crate::router`]) forwards them to a backend over pooled
//! connections it registers in the same poll set. Neither ever blocks
//! the loop.
//!
//! # The per-connection state machine
//!
//! Each [`Conn`] moves bytes through four stages. **Read**: nonblocking
//! reads accumulate into a line buffer, bounded by the configured
//! `max_request_line` with the same typed-reject-then-discard behavior
//! the threaded transport had (an oversized line costs one
//! `bad_request`, never the connection). **Execute**: complete lines
//! that are valid UTF-8 and not blank go to [`Handler::execute`].
//! **Pending**: at most one in-flight request per connection —
//! pipelined lines wait in the connection's inbox so replies stay in
//! request order, exactly like the threaded handler. **Write**: a queue
//! of output chunks flushed as far as the socket allows; a cached
//! response is written straight from the shared `Arc<str>` bytes, and a
//! relayed one from the buffer it was read into — no copy either way.
//!
//! # Why the loop can sleep
//!
//! `poll(2)` wakes the loop for socket readiness, but batch completions
//! happen on the batcher thread. The service's completion notifier
//! (see [`crate::service::Service::set_notifier`]) writes one byte into
//! a self-pipe (a `UnixStream` pair) registered with `poll`, so a
//! finished batch wakes the reactor immediately — the loop needs no
//! short tick to deliver replies, and an idle server parks in the
//! kernel.
//!
//! # Bounds
//!
//! A connection may hold at most [`PIPELINE_MAX`] parsed-but-unexecuted
//! lines and [`OUT_HIGH_WATER`] bytes of unflushed output; beyond
//! either, the reactor stops reading from (or executing for) that
//! connection, which backpressures through TCP. A peer that stops
//! reading forfeits the connection after the configured `write_timeout`
//! without write progress — one stuck reader cannot wedge the drain.

use crate::protocol;
use crate::signal;
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most parsed lines a connection may hold waiting for execution; past
/// this the reactor stops reading the socket (TCP backpressure).
const PIPELINE_MAX: usize = 32;

/// Most unflushed output bytes per connection before the reactor stops
/// executing new requests for it.
const OUT_HIGH_WATER: usize = 4 << 20;

/// Poll timeout when nothing else bounds the sleep: the cadence at
/// which the loop re-checks the drain flag and runs the handler's
/// timers.
const IDLE_TICK: Duration = Duration::from_millis(25);

/// Counters the reactor keeps about itself, surfaced as the `transport`
/// object of the `stats` verb.
#[derive(Debug, Default)]
pub struct TransportStats {
    /// Currently open connections (gauge).
    pub open_connections: AtomicU64,
    /// Connections accepted since boot.
    pub accepted: AtomicU64,
    /// Times the poll loop woke (readiness, waker, or tick).
    pub reactor_wakeups: AtomicU64,
    /// Nonblocking reads that found the socket dry (`EWOULDBLOCK`).
    pub read_stalls: AtomicU64,
}

/// Point-in-time copy of [`TransportStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportSnapshot {
    /// Currently open connections.
    pub open_connections: u64,
    /// Connections accepted since boot.
    pub accepted: u64,
    /// Poll-loop wakeups.
    pub reactor_wakeups: u64,
    /// Reads that returned would-block.
    pub read_stalls: u64,
}

impl TransportStats {
    /// Snapshot the counters.
    pub fn snapshot(&self) -> TransportSnapshot {
        TransportSnapshot {
            open_connections: self.open_connections.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            reactor_wakeups: self.reactor_wakeups.load(Ordering::Relaxed),
            read_stalls: self.read_stalls.load(Ordering::Relaxed),
        }
    }
}

/// Splices the reactor's counters into a rendered `stats` response as
/// the `transport` member of the `stats` object (the service renders
/// `{"ok":true,"stats":{...}}`; this rewrites the tail).
pub fn stats_with_transport(service_stats_json: &str, t: TransportSnapshot) -> String {
    let body = service_stats_json
        .strip_suffix("}}")
        .unwrap_or(service_stats_json);
    let mut out = String::with_capacity(body.len() + 96);
    out.push_str(body);
    out.push_str(&format!(
        ",\"transport\":{{\"open_connections\":{},\"accepted\":{},\
         \"reactor_wakeups\":{},\"read_stalls\":{}}}",
        t.open_connections, t.accepted, t.reactor_wakeups, t.read_stalls
    ));
    out.push_str("}}");
    out
}

/// One chunk of queued output.
pub(crate) enum Chunk {
    /// A shared reply line (a cache hit), written without a copy; the
    /// reactor queues its newline after it.
    Shared(Arc<str>),
    /// Owned bytes, written as they are: they end with their newline.
    Owned(Vec<u8>),
    /// The newline after a `Shared` line.
    Newline,
}

impl Chunk {
    /// An owned reply line: `line` and its newline.
    pub(crate) fn line(line: String) -> Chunk {
        let mut bytes = line.into_bytes();
        bytes.push(b'\n');
        Chunk::Owned(bytes)
    }

    fn bytes(&self) -> &[u8] {
        match self {
            Chunk::Shared(s) => s.as_bytes(),
            Chunk::Owned(v) => v,
            Chunk::Newline => b"\n",
        }
    }
}

/// What a [`Handler`] made of one request line.
pub(crate) enum Step<P> {
    /// The reply, ready now.
    Reply(Chunk),
    /// The reply comes later: the reactor polls `P` and parks the
    /// connection's later lines until it lands.
    Pending(P),
    /// The `shutdown` verb: acknowledge, close this connection once the
    /// ack is flushed, and drain the reactor.
    Drain,
}

/// The part of a front end that gives requests their meaning. The
/// reactor owns accept, line framing, the oversized-line reject,
/// one-in-flight-per-connection ordering, flushing, the write-stall
/// watchdog and the drain; a handler answers lines.
pub(crate) trait Handler {
    /// A request whose reply is not ready yet.
    type Pending;

    /// Runs one request line (valid UTF-8, not blank).
    fn execute(&mut self, line: &str) -> Step<Self::Pending>;

    /// The reply to `p` once it exists (a timeout is a reply too).
    fn poll(&mut self, p: &mut Self::Pending) -> Option<Chunk>;

    /// When the reactor must look at `p` again even if nothing wakes it.
    fn deadline(&self, _p: &Self::Pending) -> Option<Instant> {
        None
    }

    /// The client waiting on `p` is gone; its reply is never asked for.
    fn cancel(&mut self, _p: Self::Pending) {}

    /// The handler's own sockets to poll, each with whether it wants to
    /// write (reading, errors and hangups are always watched).
    fn sockets(&self) -> Vec<(&TcpStream, bool)> {
        Vec::new()
    }

    /// Called once per loop pass, before any connection steps, with a
    /// flag per socket from the last [`Handler::sockets`] call (same
    /// order) telling whether it woke. Runs the handler's timers too.
    fn on_ready(&mut self, _ready: &[bool]) {}
}

/// Per-connection state machine.
struct Conn<P> {
    stream: TcpStream,
    /// Partial request line under accumulation.
    buf: Vec<u8>,
    /// Discarding the tail of an already-rejected oversized line.
    skipping: bool,
    /// Complete lines parsed off the socket, waiting for execution
    /// (kept in arrival order — replies must match request order).
    inbox: VecDeque<Vec<u8>>,
    /// Queued output chunks; `out_pos` indexes into the front chunk.
    out: VecDeque<Chunk>,
    out_pos: usize,
    out_bytes: usize,
    /// The in-flight request, if any (at most one per connection).
    pending: Option<P>,
    /// When the current write stall began (output queued, socket full).
    write_stall_since: Option<Instant>,
    /// Peer half-closed its read side (EOF seen).
    read_closed: bool,
    /// Close once the output queue drains (`shutdown` verb ack).
    close_after_flush: bool,
}

impl<P> Conn<P> {
    fn new(stream: TcpStream) -> Conn<P> {
        Conn {
            stream,
            buf: Vec::new(),
            skipping: false,
            inbox: VecDeque::new(),
            out: VecDeque::new(),
            out_pos: 0,
            out_bytes: 0,
            pending: None,
            write_stall_since: None,
            read_closed: false,
            close_after_flush: false,
        }
    }

    fn wants_read(&self) -> bool {
        !self.read_closed
            && !self.close_after_flush
            && self.inbox.len() < PIPELINE_MAX
            && self.out_bytes < OUT_HIGH_WATER
    }

    fn wants_write(&self) -> bool {
        !self.out.is_empty()
    }

    /// True while the connection still owes someone bytes: queued
    /// lines, an in-flight request, or unflushed output. A drain waits
    /// for busy connections and hangs up on the rest (a partial line in
    /// `buf` does not count — the threaded transport dropped those on
    /// drain too).
    fn busy(&self) -> bool {
        !self.inbox.is_empty() || !self.out.is_empty() || self.pending.is_some()
    }

    /// True when the connection has delivered everything it owes.
    fn finished(&self) -> bool {
        (self.close_after_flush && self.out.is_empty())
            || (self.read_closed && !self.busy() && self.buf.is_empty())
    }

    /// Queues one reply line; a shared body is followed by its newline.
    fn push(&mut self, chunk: Chunk) {
        let shared = matches!(chunk, Chunk::Shared(_));
        self.out_bytes += chunk.bytes().len() + shared as usize;
        self.out.push_back(chunk);
        if shared {
            self.out.push_back(Chunk::Newline);
        }
    }
}

/// The handle the reactor leaves behind for wakeups: writing one byte
/// interrupts a parked `poll`. Cheap to clone; safe to call from any
/// thread (the service's batcher calls it on batch completion, the
/// server wrapper calls it to begin a drain).
#[cfg(unix)]
#[derive(Clone)]
pub struct Waker(Arc<std::os::unix::net::UnixStream>);

#[cfg(unix)]
impl Waker {
    /// Wakes the reactor. Best-effort: a full pipe already guarantees a
    /// pending wakeup, so the would-block case needs no handling.
    pub fn wake(&self) {
        let _ = (&*self.0).write(&[1]);
    }
}

/// No-op waker for the portable fallback loop (which ticks on a short
/// sleep instead of parking in `poll`).
#[cfg(not(unix))]
#[derive(Clone)]
pub struct Waker;

#[cfg(not(unix))]
impl Waker {
    /// No-op: the fallback loop wakes itself.
    pub fn wake(&self) {}
}

/// The reactor: owns the listener, the waker pipe, every connection,
/// and the handler.
pub(crate) struct Reactor<H: Handler> {
    listener: TcpListener,
    handler: H,
    /// Longest request line accepted.
    max_line: usize,
    /// A client whose socket takes no bytes this long loses it.
    write_timeout: Duration,
    stats: Arc<TransportStats>,
    stop: Arc<AtomicBool>,
    conns: Vec<Conn<H::Pending>>,
    waker: Waker,
    #[cfg(unix)]
    waker_rx: std::os::unix::net::UnixStream,
}

impl<H: Handler> Reactor<H> {
    /// Builds a reactor on an already-bound listener.
    pub(crate) fn new(
        listener: TcpListener,
        handler: H,
        max_line: usize,
        write_timeout: Duration,
        stats: Arc<TransportStats>,
        stop: Arc<AtomicBool>,
    ) -> io::Result<Reactor<H>> {
        listener.set_nonblocking(true)?;
        #[cfg(unix)]
        let (waker, waker_rx) = {
            let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            (Waker(Arc::new(tx)), rx)
        };
        #[cfg(not(unix))]
        let waker = Waker;
        Ok(Reactor {
            listener,
            handler,
            max_line,
            write_timeout,
            stats,
            stop,
            conns: Vec::new(),
            waker,
            #[cfg(unix)]
            waker_rx,
        })
    }

    /// A handle that wakes the loop from another thread.
    pub(crate) fn waker(&self) -> Waker {
        self.waker.clone()
    }

    fn draining(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || signal::requested()
    }

    /// Runs the loop until a drain completes: stop accepting, let every
    /// connection with queued or in-flight work deliver it, hang up on
    /// the idle rest, then return.
    pub(crate) fn run(mut self) {
        loop {
            let draining = self.draining();
            if draining {
                let before = self.conns.len();
                self.conns.retain(Conn::busy);
                let dropped = (before - self.conns.len()) as u64;
                self.stats
                    .open_connections
                    .fetch_sub(dropped, Ordering::Relaxed);
                if self.conns.is_empty() {
                    return;
                }
            }

            let (ready, handler_ready) = self.wait_for_readiness(draining);
            self.stats.reactor_wakeups.fetch_add(1, Ordering::Relaxed);
            self.handler.on_ready(&handler_ready);

            if !draining {
                self.accept_new();
            }

            // Drive every connection through its stages. Order matters
            // only within a connection, so index order is fine.
            let mut closed: Vec<usize> = Vec::new();
            for i in 0..self.conns.len() {
                // Connections accepted this very pass have no readiness
                // entry yet; probe them optimistically (a dry read is
                // one cheap would-block).
                let readable = ready.get(i).copied().unwrap_or(true);
                if self.step_conn(i, readable).is_err() || self.conns[i].finished() {
                    closed.push(i);
                }
            }
            for &i in closed.iter().rev() {
                if let Some(p) = self.conns.swap_remove(i).pending {
                    self.handler.cancel(p);
                }
                self.stats.open_connections.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Parks in `poll(2)` until a socket is ready, the waker fires, or
    /// the tick elapses. Registers the listener (accepts), the waker
    /// pipe (batch completions), every connection, and the handler's
    /// sockets. Returns a readable flag per connection (index-aligned
    /// with `conns`) and a woke flag per handler socket.
    #[cfg(unix)]
    fn wait_for_readiness(&mut self, draining: bool) -> (Vec<bool>, Vec<bool>) {
        use std::os::unix::io::AsRawFd;

        let mut fds: Vec<sys::PollFd> = Vec::with_capacity(self.conns.len() + 2);
        if !draining {
            fds.push(sys::PollFd::new(self.listener.as_raw_fd(), sys::POLLIN));
        }
        fds.push(sys::PollFd::new(self.waker_rx.as_raw_fd(), sys::POLLIN));
        let base = fds.len();
        for c in &self.conns {
            let mut events = 0i16;
            if c.wants_read() {
                events |= sys::POLLIN;
            }
            if c.wants_write() {
                events |= sys::POLLOUT;
            }
            // Register even with no interest: errors and hangups
            // surface in `revents` regardless of `events`.
            fds.push(sys::PollFd::new(c.stream.as_raw_fd(), events));
        }
        let handler_base = fds.len();
        for (stream, write) in self.handler.sockets() {
            let events = if write {
                sys::POLLIN | sys::POLLOUT
            } else {
                sys::POLLIN
            };
            fds.push(sys::PollFd::new(stream.as_raw_fd(), events));
        }

        // Sleep no longer than the nearest deadline among in-flight
        // requests; a write-stalled connection keeps a short tick so
        // its watchdog fires on time.
        let now = Instant::now();
        let mut timeout = IDLE_TICK;
        for c in &self.conns {
            if let Some(d) = c.pending.as_ref().and_then(|p| self.handler.deadline(p)) {
                timeout = timeout.min(d.saturating_duration_since(now));
            }
            if c.write_stall_since.is_some() {
                timeout = timeout.min(Duration::from_millis(10));
            }
        }
        sys::poll(&mut fds, timeout);

        // Drain the waker pipe (it is level-triggered: leftover bytes
        // would spin the loop).
        let mut sink = [0u8; 64];
        while matches!((&self.waker_rx).read(&mut sink), Ok(n) if n > 0) {}

        (
            fds[base..handler_base]
                .iter()
                .map(|fd| fd.readable())
                .collect(),
            fds[handler_base..].iter().map(|fd| fd.woke()).collect(),
        )
    }

    /// Portable fallback: a short sleep, then optimistic progress on
    /// every socket (a dry read just reports would-block).
    #[cfg(not(unix))]
    fn wait_for_readiness(&mut self, _draining: bool) -> (Vec<bool>, Vec<bool>) {
        std::thread::sleep(Duration::from_millis(2));
        (
            vec![true; self.conns.len()],
            vec![true; self.handler.sockets().len()],
        )
    }

    fn accept_new(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.conns.push(Conn::new(stream));
                    self.stats.accepted.fetch_add(1, Ordering::Relaxed);
                    self.stats.open_connections.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// One pass over a connection's state machine; `Err(())` closes it.
    fn step_conn(&mut self, i: usize, readable: bool) -> Result<(), ()> {
        if readable {
            self.read_conn(i)?;
        }
        self.deliver_pending(i);
        self.execute_inbox(i);
        // Always attempt the flush when output is queued (not just on
        // POLLOUT): fresh output this pass flushes immediately, and the
        // write-stall watchdog re-arms even when the socket never
        // becomes writable again.
        if self.conns[i].wants_write() {
            self.flush_conn(i)?;
        }
        Ok(())
    }

    /// Nonblocking read: accumulate bytes, split complete lines into
    /// the inbox, enforce the line-length bound.
    fn read_conn(&mut self, i: usize) -> Result<(), ()> {
        let max_line = self.max_line;
        let mut scratch = [0u8; 16 * 1024];
        while self.conns[i].wants_read() {
            match self.conns[i].stream.read(&mut scratch) {
                Ok(0) => {
                    let conn = &mut self.conns[i];
                    conn.read_closed = true;
                    // Answer a final unterminated line, as the threaded
                    // transport did.
                    if !conn.buf.is_empty() && !conn.skipping {
                        let line = std::mem::take(&mut conn.buf);
                        conn.inbox.push_back(line);
                    }
                    conn.buf.clear();
                    return Ok(());
                }
                Ok(n) => self.ingest(i, &scratch[..n], max_line),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.stats.read_stalls.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(()),
            }
        }
        Ok(())
    }

    /// Splits freshly read bytes into lines, applying the
    /// oversized-line protocol: one typed `bad_request`, then discard
    /// through the eventual newline, connection intact.
    fn ingest(&mut self, i: usize, mut bytes: &[u8], max_line: usize) {
        while !bytes.is_empty() {
            let conn = &mut self.conns[i];
            match bytes.iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    if conn.skipping {
                        conn.skipping = false; // oversized tail discarded
                    } else {
                        let mut line = std::mem::take(&mut conn.buf);
                        line.extend_from_slice(&bytes[..nl]);
                        if line.len() > max_line {
                            self.reject_oversized(i, max_line, false);
                        } else {
                            self.conns[i].inbox.push_back(line);
                        }
                    }
                    bytes = &bytes[nl + 1..];
                }
                None => {
                    if conn.skipping {
                        return; // keep discarding
                    }
                    conn.buf.extend_from_slice(bytes);
                    if conn.buf.len() > max_line {
                        self.reject_oversized(i, max_line, true);
                    }
                    return;
                }
            }
        }
    }

    fn reject_oversized(&mut self, i: usize, max_line: usize, keep_skipping: bool) {
        let conn = &mut self.conns[i];
        conn.buf.clear();
        conn.skipping = keep_skipping;
        conn.push(bad_request(format!(
            "request line exceeds {max_line} bytes"
        )));
    }

    /// Queues the in-flight request's reply once the handler has it.
    fn deliver_pending(&mut self, i: usize) {
        let conn = &mut self.conns[i];
        let Some(p) = conn.pending.as_mut() else {
            return;
        };
        if let Some(reply) = self.handler.poll(p) {
            conn.pending = None;
            conn.push(reply);
        }
    }

    /// Executes queued lines until one goes in-flight (replies must
    /// stay in request order, so one pending request parks the rest)
    /// or the output queue is over its high-water mark.
    fn execute_inbox(&mut self, i: usize) {
        while self.conns[i].pending.is_none()
            && !self.conns[i].close_after_flush
            && self.conns[i].out_bytes < OUT_HIGH_WATER
        {
            let Some(raw) = self.conns[i].inbox.pop_front() else {
                return;
            };
            let Ok(line) = std::str::from_utf8(&raw) else {
                self.conns[i].push(bad_request("request is not valid UTF-8".into()));
                continue;
            };
            if line.trim().is_empty() {
                continue; // blank keep-alive line
            }
            let conn = &mut self.conns[i];
            match self.handler.execute(line) {
                Step::Reply(reply) => conn.push(reply),
                Step::Pending(p) => conn.pending = Some(p),
                Step::Drain => {
                    // Trip this reactor's stop flag, not the
                    // process-global signal flag: in-process test
                    // servers must not drain each other.
                    conn.push(Chunk::line("{\"ok\":true,\"draining\":true}".into()));
                    conn.close_after_flush = true;
                    self.stop.store(true, Ordering::SeqCst);
                }
            }
        }
    }

    /// Flushes queued output as far as the socket allows; a partial
    /// write leaves `out_pos` mid-chunk. A stall longer than the
    /// configured write timeout forfeits the connection.
    fn flush_conn(&mut self, i: usize) -> Result<(), ()> {
        let write_timeout = self.write_timeout;
        let conn = &mut self.conns[i];
        while let Some(chunk) = conn.out.front() {
            let bytes = chunk.bytes();
            match conn.stream.write(&bytes[conn.out_pos..]) {
                Ok(0) => return Err(()),
                Ok(n) => {
                    conn.out_pos += n;
                    conn.out_bytes -= n;
                    conn.write_stall_since = None;
                    if conn.out_pos == bytes.len() {
                        conn.out.pop_front();
                        conn.out_pos = 0;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    match conn.write_stall_since {
                        None => conn.write_stall_since = Some(Instant::now()),
                        Some(t0) if t0.elapsed() >= write_timeout => return Err(()),
                        Some(_) => {}
                    }
                    return Ok(());
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(()),
            }
        }
        conn.write_stall_since = None;
        Ok(())
    }
}

fn bad_request(message: String) -> Chunk {
    let e = protocol::ServeError::new(protocol::ErrorKind::BadRequest, message);
    Chunk::line(protocol::error_response(&e))
}

/// Opens a nonblocking TCP connection to `addr` without waiting for the
/// handshake: the connect completes (or fails) in the background, and
/// the first write or read on the stream reports which. Off Linux this
/// falls back to a connect bounded by `timeout`.
pub(crate) fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<TcpStream> {
    #[cfg(target_os = "linux")]
    let stream = {
        let _ = timeout;
        sys::connect(addr)?
    };
    #[cfg(not(target_os = "linux"))]
    let stream = {
        let s = TcpStream::connect_timeout(&addr, timeout)?;
        s.set_nonblocking(true)?;
        s
    };
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// Raw `poll(2)` plumbing, declared directly against libc — the
/// workspace takes no external crates, the same approach
/// [`crate::signal`] uses for `signal(2)`.
#[cfg(unix)]
mod sys {
    use std::time::Duration;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    /// POSIX `nfds_t`: `unsigned long` on Linux, `unsigned int` on the
    /// BSDs and macOS.
    #[cfg(any(target_os = "linux", target_os = "android"))]
    type NfdsT = u64;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type NfdsT = u32;

    /// `struct pollfd` from `poll(2)`.
    #[repr(C)]
    pub struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    impl PollFd {
        pub fn new(fd: i32, events: i16) -> PollFd {
            PollFd {
                fd,
                events,
                revents: 0,
            }
        }

        /// Data waiting, or an error/hangup the next read will surface.
        pub fn readable(&self) -> bool {
            self.revents & (POLLIN | POLLERR | POLLHUP) != 0
        }

        /// Any event at all: readable, writable, error or hangup.
        pub fn woke(&self) -> bool {
            self.revents != 0
        }
    }

    extern "C" {
        #[link_name = "poll"]
        fn c_poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
    }

    /// Polls `fds` for at most `timeout` (clamped to i32 millis). The
    /// caller re-derives progress from nonblocking I/O, so an error
    /// return (e.g. `EINTR`) just means "check everything again".
    pub fn poll(fds: &mut [PollFd], timeout: Duration) -> i32 {
        let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        unsafe { c_poll(fds.as_mut_ptr(), fds.len() as NfdsT, ms) }
    }

    /// Starts a nonblocking connect to `addr` (`socket` with
    /// `SOCK_NONBLOCK`, then `connect`, which answers `EINPROGRESS`).
    #[cfg(target_os = "linux")]
    pub fn connect(addr: std::net::SocketAddr) -> std::io::Result<std::net::TcpStream> {
        use std::io::Error;
        use std::net::SocketAddr;
        use std::os::unix::io::FromRawFd;

        const AF_INET: u16 = 2;
        const AF_INET6: u16 = 10;
        const SOCK_STREAM: i32 = 1;
        const SOCK_NONBLOCK: i32 = 0o4000;
        const SOCK_CLOEXEC: i32 = 0o2000000;
        const EINPROGRESS: i32 = 115;
        extern "C" {
            fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
            #[link_name = "connect"]
            fn c_connect(fd: i32, addr: *const u8, len: u32) -> i32;
        }

        // `struct sockaddr_in` (16 bytes) or `struct sockaddr_in6` (28)
        // in Linux's layout: family in host order, port and flow info
        // in network order.
        let mut raw = [0u8; 28];
        let (family, len) = match addr {
            SocketAddr::V4(a) => {
                raw[4..8].copy_from_slice(&a.ip().octets());
                (AF_INET, 16)
            }
            SocketAddr::V6(a) => {
                raw[4..8].copy_from_slice(&a.flowinfo().to_be_bytes());
                raw[8..24].copy_from_slice(&a.ip().octets());
                raw[24..28].copy_from_slice(&a.scope_id().to_ne_bytes());
                (AF_INET6, 28)
            }
        };
        raw[..2].copy_from_slice(&family.to_ne_bytes());
        raw[2..4].copy_from_slice(&addr.port().to_be_bytes());

        // SAFETY: a plain syscall on constant arguments; a negative
        // return is an error, anything else a descriptor nobody owns yet.
        let fd = unsafe { socket(family as i32, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(Error::last_os_error());
        }
        // SAFETY: `fd` is the fresh socket above, owned by nothing else;
        // the stream closes it on drop, on the error path below too.
        let stream = unsafe { std::net::TcpStream::from_raw_fd(fd) };
        // SAFETY: `raw` holds a sockaddr of `len` bytes in the layout the
        // kernel expects for `family`, and outlives the call.
        if unsafe { c_connect(fd, raw.as_ptr(), len) } < 0 {
            let e = Error::last_os_error();
            if e.raw_os_error() != Some(EINPROGRESS) {
                return Err(e);
            }
        }
        Ok(stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_splice_keeps_stats_parseable() {
        let svc = crate::service::Service::new(crate::service::ServiceConfig::default());
        let spliced = stats_with_transport(
            &svc.stats().to_json(),
            TransportSnapshot {
                open_connections: 3,
                accepted: 9,
                reactor_wakeups: 120,
                read_stalls: 7,
            },
        );
        assert!(!spliced.contains('\n'));
        let v = crate::json::parse(&spliced).expect("spliced stats JSON parses");
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        let t = v.get("stats").unwrap().get("transport").unwrap();
        assert_eq!(t.get("open_connections").unwrap().as_u64(), Some(3));
        assert_eq!(t.get("reactor_wakeups").unwrap().as_u64(), Some(120));
        assert_eq!(t.get("read_stalls").unwrap().as_u64(), Some(7));
        // The pre-existing members survived the splice.
        assert!(v.get("stats").unwrap().get("queue").is_some());
        assert!(v.get("stats").unwrap().get("account").is_some());
    }
}
