//! The TCP front end: a thin wrapper that binds, starts the service,
//! and hands the socket to the readiness-based [`Reactor`].
//!
//! Each connection speaks the newline-delimited protocol of
//! [`crate::protocol`]. All connections are driven by one reactor
//! thread (see [`crate::reactor`] for the state machine); simulation
//! work still executes on the pool via the service's micro-batcher, so
//! the reactor never blocks on a cell. Malformed input gets a typed
//! error response — a protocol mistake never costs the client its
//! connection, and never kills the server.
//!
//! Shutdown (a signal, the `shutdown` verb, or [`Server::shutdown`])
//! proceeds in order: stop accepting, let connections with queued or
//! in-flight work deliver it and hang up on the idle rest, then drain
//! the admission queue and join the batcher. Clients that were admitted
//! before the drain began still receive their replies.

use crate::protocol::{self, ErrorKind, Request, ServeError};
use crate::reactor::{
    self, Chunk, Handler, Reactor, Step, TransportSnapshot, TransportStats, Waker,
};
use crate::service::{Reply, Service, ServiceConfig, Ticket};
use crate::signal;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How often [`Server::wait_for_shutdown`] re-checks the drain flag.
const SHUTDOWN_POLL: Duration = Duration::from_millis(10);

/// A running server: the service plus its TCP front end.
pub struct Server {
    service: Arc<Service>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<TransportStats>,
    waker: Waker,
    reactor_handle: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0`), starts the service batcher
    /// and the reactor thread, and returns. Use [`Server::addr`] to
    /// learn the bound port when asking for an ephemeral one.
    pub fn spawn(addr: &str, config: ServiceConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let service = Service::new(config);
        service.start();
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(TransportStats::default());

        let handler = ServeHandler {
            service: Arc::clone(&service),
            stats: Arc::clone(&stats),
        };
        let reactor = Reactor::new(
            listener,
            handler,
            service.config().max_request_line,
            service.config().write_timeout,
            Arc::clone(&stats),
            Arc::clone(&stop),
        )?;
        let waker = reactor.waker();
        // Batch completions wake the loop to deliver their replies.
        let hook = waker.clone();
        service.set_notifier(move || hook.wake());
        let reactor_handle = thread::Builder::new()
            .name("serve-reactor".into())
            .spawn(move || reactor.run())
            .expect("spawn reactor");

        Ok(Server {
            service,
            addr: bound,
            stop,
            stats,
            waker,
            reactor_handle: Some(reactor_handle),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The underlying service (tests inspect its stats directly).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Snapshot of the reactor's transport counters.
    pub fn transport(&self) -> TransportSnapshot {
        self.stats.snapshot()
    }

    /// True once a drain was requested (signal, `shutdown` verb, or
    /// [`Server::shutdown`]).
    pub fn draining(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || signal::requested() || self.service.is_shutting_down()
    }

    /// Graceful drain: stop accepting, let connections finish their
    /// queued and in-flight work and hang up, drain the admission
    /// queue, join the batcher. Idempotent; called by `Drop` as a
    /// backstop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.service.begin_shutdown();
        self.waker.wake();
        if let Some(h) = self.reactor_handle.take() {
            let _ = h.join();
        }
        self.service.shutdown_and_join();
    }

    /// Blocks until a drain is requested, polling the signal flag. The
    /// `serve` binary parks its main thread here.
    pub fn wait_for_shutdown(&mut self) {
        while !self.draining() {
            thread::sleep(SHUTDOWN_POLL);
        }
        self.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve's reactor handler: verbs answer inline, simulations go through
/// [`Service::enqueue`] so the reactor never blocks on the pool.
struct ServeHandler {
    service: Arc<Service>,
    stats: Arc<TransportStats>,
}

/// A simulation whose reply the reactor is waiting on.
struct PendingReply {
    rx: Receiver<Reply>,
    integrity: bool,
    deadline: Option<Instant>,
}

impl Handler for ServeHandler {
    type Pending = PendingReply;

    fn execute(&mut self, line: &str) -> Step<PendingReply> {
        match protocol::parse_request(line, self.service.default_max_cycles()) {
            Ok(Request::Ping) => Step::Reply(Chunk::line("{\"ok\":true,\"pong\":true}".into())),
            Ok(Request::Stats) => Step::Reply(Chunk::line(reactor::stats_with_transport(
                &self.service.stats().to_json(),
                self.stats.snapshot(),
            ))),
            Ok(Request::Shutdown) => {
                self.service.begin_shutdown();
                Step::Drain
            }
            Ok(Request::Simulate(req)) => {
                let integrity = req.integrity;
                // Same clamp `Service::submit` applies to its wait.
                let deadline = req.deadline_ms.map(|ms| {
                    Instant::now()
                        + Duration::from_millis(ms).min(self.service.config().max_deadline)
                });
                match self.service.enqueue(*req) {
                    Ok(Ticket::Ready(hit)) => Step::Reply(reply_chunk(Ok(hit), integrity)),
                    Ok(Ticket::Admitted(rx)) => Step::Pending(PendingReply {
                        rx,
                        integrity,
                        deadline,
                    }),
                    Err(e) => Step::Reply(reply_chunk(Err(e), integrity)),
                }
            }
            // Lint is milliseconds of dataflow solving; running it
            // inline matches the service's synchronous verify path.
            Ok(Request::Verify(req)) => {
                Step::Reply(reply_chunk(self.service.verify_program(*req), false))
            }
            // The parse failed before the `integrity` flag could be
            // decoded, so honor it best-effort from the raw line (the
            // exact token a trailer-checking client injects) — otherwise
            // its typed parse error would look like a stripped-trailer
            // corruption.
            Err(e) => Step::Reply(reply_chunk(Err(e), line.contains("\"integrity\":true"))),
        }
    }

    /// Delivers a landed reply, or times the request out at its
    /// deadline (the reactor-side mirror of `Service::submit`'s
    /// `recv_timeout`).
    fn poll(&mut self, p: &mut PendingReply) -> Option<Chunk> {
        let reply = match p.rx.try_recv() {
            Ok(reply) => reply,
            Err(TryRecvError::Empty) => {
                if !matches!(p.deadline, Some(d) if Instant::now() >= d) {
                    return None;
                }
                self.service.record_deadline_exceeded();
                Err(ServeError::new(
                    ErrorKind::DeadlineExceeded,
                    "deadline expired before the result was ready",
                ))
            }
            Err(TryRecvError::Disconnected) => Err(ServeError::new(
                ErrorKind::Internal,
                "service stopped before replying",
            )),
        };
        Some(reply_chunk(reply, p.integrity))
    }

    fn deadline(&self, p: &PendingReply) -> Option<Instant> {
        p.deadline
    }
}

/// Renders a service reply; a cache hit without a trailer goes out as
/// the shared bytes themselves.
fn reply_chunk(reply: Reply, integrity: bool) -> Chunk {
    match reply {
        Ok(line) if integrity => Chunk::line(protocol::with_integrity_trailer(&line)),
        Ok(line) => Chunk::Shared(line),
        Err(e) => {
            let body = protocol::error_response(&e);
            Chunk::line(if integrity {
                protocol::with_integrity_trailer(&body)
            } else {
                body
            })
        }
    }
}
