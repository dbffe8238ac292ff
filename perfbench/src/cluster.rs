//! The served topology: two `serve` backends behind one `router`, as
//! child processes on ephemeral loopback ports, plus the line client
//! the workloads drive them with.

use crate::measure::{sample, ProcSample};
use crate::RunOptions;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Backends behind the router.
pub const BACKENDS: usize = 2;

/// How long a stopped process may take to drain and exit.
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);

/// Socket read/write timeout: a hung server fails the run instead of
/// hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One child process with the address it printed.
#[derive(Debug)]
struct Proc {
    role: String,
    child: Child,
    addr: String,
    /// Held open so the child's stdout never becomes a broken pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Proc {
    /// Starts `bin args…`, logging stderr to `log`, and reads the
    /// `{key}=HOST:PORT` line it prints once bound.
    fn spawn(
        role: &str,
        bin: &Path,
        args: &[String],
        log: &Path,
        key: &str,
    ) -> Result<Proc, String> {
        let log = File::create(log).map_err(|e| format!("cannot create {}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line.trim().strip_prefix(key).map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Proc {
                role: role.to_string(),
                child,
                addr,
                _stdout: stdout,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "{role} did not print {key}HOST:PORT (got `{}`)",
                    line.trim()
                ))
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for exit; a timeout kills the process and is an error, as
    /// is any exit status other than 0.
    fn wait_exit(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("{} exited with {status}", self.role)),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err(format!(
                        "{} did not exit within {EXIT_TIMEOUT:?}",
                        self.role
                    ));
                }
                Err(e) => return Err(format!("cannot wait for {}: {e}", self.role)),
            }
        }
    }
}

/// Two backends and a router, each with a fresh cache directory.
#[derive(Debug)]
pub struct Cluster {
    backends: Vec<Proc>,
    router: Option<Proc>,
}

impl Cluster {
    /// Starts the topology from the `serve` and `router` binaries in
    /// `opts`, with scratch state under `dir` (which must not exist yet,
    /// so every run starts cold).
    pub fn start(opts: &RunOptions, dir: &Path) -> Result<Cluster, String> {
        if dir.exists() {
            return Err(format!(
                "{} already exists; refusing to reuse state",
                dir.display()
            ));
        }
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let mut cluster = Cluster {
            backends: Vec::new(),
            router: None,
        };
        for i in 0..BACKENDS {
            let cache = dir.join(format!("cache-{i}"));
            let args = vec![
                "--addr".to_string(),
                "127.0.0.1:0".to_string(),
                "--jobs".to_string(),
                "1".to_string(),
                "--cache-dir".to_string(),
                cache.display().to_string(),
            ];
            let log = dir.join(format!("serve-{i}.log"));
            cluster.backends.push(Proc::spawn(
                &format!("serve[{i}]"),
                &opts.serve_bin,
                &args,
                &log,
                "SERVE_ADDR=",
            )?);
        }
        let args = vec![
            "--addr".to_string(),
            "127.0.0.1:0".to_string(),
            "--backends".to_string(),
            cluster.backend_addrs().join(","),
        ];
        cluster.router = Some(Proc::spawn(
            "router",
            &opts.router_bin,
            &args,
            &dir.join("router.log"),
            "ROUTER_ADDR=",
        )?);
        Ok(cluster)
    }

    /// The backends' addresses, in the order the router was given them.
    pub fn backend_addrs(&self) -> Vec<String> {
        self.backends.iter().map(|p| p.addr.clone()).collect()
    }

    /// The router's address.
    pub fn router_addr(&self) -> String {
        self.router
            .as_ref()
            .expect("router is running")
            .addr
            .clone()
    }

    /// Pids of the backends then the router.
    pub fn pids(&self) -> Vec<u32> {
        self.backends
            .iter()
            .chain(self.router.iter())
            .map(Proc::pid)
            .collect()
    }

    /// `/proc` readings of the backends then the router.
    pub fn samples(&self) -> Result<Vec<ProcSample>, String> {
        self.pids().iter().map(|p| sample(&p.to_string())).collect()
    }

    /// Drains and stops every process: `shutdown` to the router, then to
    /// each backend. Fails on a nonzero exit, on a process that does
    /// not exit, or on any child process of the benchmark left behind.
    pub fn stop(mut self) -> Result<(), String> {
        let mut errors = Vec::new();
        let mut procs: Vec<Proc> = self.router.take().into_iter().collect();
        procs.append(&mut self.backends);
        for p in &mut procs {
            if let Err(e) =
                Conn::connect(&p.addr).and_then(|mut c| c.exchange("shutdown").map(|_| ()))
            {
                errors.push(format!("{}: shutdown request failed: {e}", p.role));
                let _ = p.child.kill();
            }
            if let Err(e) = p.wait_exit() {
                errors.push(e);
            }
        }
        let leftovers = children_of(std::process::id());
        if !leftovers.is_empty() {
            errors.push(format!("leftover child processes: {leftovers:?}"));
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors.join("; "))
        }
    }
}

impl Drop for Cluster {
    /// On an error path the processes are killed, never leaked.
    fn drop(&mut self) {
        for p in self.backends.iter_mut().chain(self.router.iter_mut()) {
            let _ = p.child.kill();
            let _ = p.child.wait();
        }
    }
}

/// Pids of live processes whose parent is `pid`.
fn children_of(pid: u32) -> Vec<u32> {
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|child| {
            std::fs::read_to_string(format!("/proc/{child}/stat"))
                .ok()
                .and_then(|s| {
                    let rest = s.rsplit_once(')')?.1.to_string();
                    let mut f = rest.split_whitespace();
                    let state = f.next()?.to_string();
                    let ppid = f.next()?.parse::<u32>().ok()?;
                    // A zombie has exited; std reaps it on the next wait.
                    Some(ppid == pid && state != "Z")
                })
                .unwrap_or(false)
        })
        .collect()
}

/// One persistent newline-delimited JSON connection.
#[derive(Debug)]
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
    reply: Vec<u8>,
}

impl Conn {
    /// Connects to `addr` with Nagle off and I/O timeouts on.
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(IO_TIMEOUT))?;
        writer.set_write_timeout(Some(IO_TIMEOUT))?;
        let reader = BufReader::with_capacity(1 << 16, writer.try_clone()?);
        Ok(Conn {
            writer,
            reader,
            out: Vec::new(),
            reply: Vec::new(),
        })
    }

    /// Sends one request line and returns its reply line (without the
    /// newline). The reply borrows the connection's buffer.
    pub fn exchange(&mut self, line: &str) -> std::io::Result<&[u8]> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out)?;
        self.reply.clear();
        let n = self.reader.read_until(b'\n', &mut self.reply)?;
        if n == 0 || self.reply.last() != Some(&b'\n') {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-reply",
            ));
        }
        self.reply.pop();
        Ok(&self.reply)
    }
}

/// True for a successful simulation reply.
pub fn is_ok(reply: &[u8]) -> bool {
    reply.starts_with(b"{\"ok\":true")
}
