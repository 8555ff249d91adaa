//! # nullrel-serve
//!
//! A multi-session TCP query service over the `nullrel` engine — the
//! network front end the ROADMAP's production story calls for, built on
//! `std` alone (the workspace is offline; no async runtime, no protocol
//! dependencies).
//!
//! * **Snapshot concurrency.** The served state is a
//!   [`nullrel_storage::VersionedDatabase`]: sessions read from pinned
//!   epoch-stamped snapshots and never block writers; `INSERT`/`DELETE`
//!   commands are serialized through the copy-on-write commit path, which
//!   bumps the epoch; old versions retire when their last reader drops.
//! * **Sessions.** Each accepted connection becomes a [`session::Session`]
//!   with its own snapshot-pinning mode (`PIN`/`UNPIN`) and a
//!   prepared-query cache: a repeated `QUEL`/`MAYBE` text is parsed,
//!   resolved, and logically planned once, then replayed against the
//!   session's snapshot until schema evolution invalidates it.
//! * **Protocol.** Newline-delimited requests, line-counted responses —
//!   the grammar lives in [`protocol`]; algebra expressions beyond QUEL's
//!   reach (set operators, division, union-join) come in through the
//!   s-expression surface of [`expr`].
//! * **Observability.** Every request runs under one `nullrel-obs` query
//!   trace (so an armed slow-query log keeps whole requests),
//!   connection/session gauges and per-command latency histograms are
//!   registered in the process metrics registry, and the `METRICS`
//!   command renders the whole registry in Prometheus text format.
//!   The always-on flight recorder is served too: `TOP` (workload log),
//!   `SLOW` (flight ring), `TRACE LAST` (chrome JSON of the latest slow
//!   trace), `HEALTH`, and `RESET STATS` — see [`debug`].
//!
//! Connections are dispatched to a small hand-rolled worker pool
//! ([`ServeConfig::threads`] threads); a session occupies its worker until
//! the client disconnects, so the thread count bounds concurrent sessions
//! the way a classical process-per-connection database bounds backends.
//!
//! The library reads no environment variable: every setting is a value
//! its caller passes. The binary's `NULLREL_*` knobs are read in one
//! place, [`env::Settings::from_env`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod debug;
pub mod env;
pub mod expr;
pub mod metrics;
pub mod protocol;
pub mod session;

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use nullrel_exec::OptimizeOptions;
use nullrel_storage::VersionedDatabase;

use protocol::Request;
use session::Session;

/// Default listen address.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7878";

/// Default worker-thread count.
pub const DEFAULT_THREADS: usize = 8;

/// Ceiling on the worker-thread count any configuration can request.
pub const MAX_SERVE_THREADS: usize = 256;

/// Default staleness bound: how many epochs a `PIN`ned session may fall
/// behind before it is re-pinned forward.
pub const DEFAULT_MAX_STALENESS: u64 = 1024;

/// Query-service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 lets the OS pick, and
    /// [`ServerHandle::addr`] reports the bound port).
    pub addr: String,
    /// Worker threads — the bound on concurrent sessions.
    pub threads: usize,
    /// Epochs a pinned session may lag before forced re-pinning.
    pub max_staleness: u64,
    /// Data directory for durability. `Some` makes the served database
    /// persistent: the binary opens it with WAL + snapshot recovery, and
    /// every wire `INSERT`/`DELETE` commit is logged before it
    /// acknowledges. `None` serves purely in memory.
    pub data_dir: Option<std::path::PathBuf>,
    /// Engine options every session executes with.
    pub options: OptimizeOptions,
}

impl ServeConfig {
    /// A loopback configuration (OS-assigned port, 4 workers, in memory)
    /// over the serial, static engine with no fan-out threshold. Used by
    /// this crate's tests and the golden snapshots.
    pub fn pinned_for_tests() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 4,
            max_staleness: DEFAULT_MAX_STALENESS,
            data_dir: None,
            options: OptimizeOptions {
                parallel_row_threshold: 0,
                ..OptimizeOptions::default()
            },
        }
    }
}

/// Parses a `NULLREL_SERVE_THREADS`-style value, mirroring
/// [`nullrel_par::Parallelism::parse`]: whitespace tolerated, garbage or
/// `0` fall back to [`DEFAULT_THREADS`], absurd values clamp to
/// [`MAX_SERVE_THREADS`].
pub fn parse_threads(value: Option<&str>) -> usize {
    match value.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n.min(MAX_SERVE_THREADS),
        _ => DEFAULT_THREADS,
    }
}

/// Parses a `NULLREL_SERVE_MAX_STALENESS` value, hardened like
/// [`parse_threads`]: whitespace is tolerated, garbage/empty/unset falls
/// back to [`DEFAULT_MAX_STALENESS`]. Unlike the thread count, **`0` is a
/// valid setting** — it means a pinned session is re-pinned forward on
/// every request (zero tolerated staleness), not "use the default".
pub fn parse_max_staleness(value: Option<&str>) -> u64 {
    match value.and_then(|v| v.trim().parse::<u64>().ok()) {
        Some(n) => n,
        None => DEFAULT_MAX_STALENESS,
    }
}

struct Shared {
    vdb: Arc<VersionedDatabase>,
    config: ServeConfig,
    queue: Mutex<VecDeque<TcpStream>>,
    available: Condvar,
    shutdown: AtomicBool,
    /// Slot `i` holds a clone of the connection worker `i` is serving, so
    /// stopping can shut down a read blocked on an idle client.
    open: Mutex<Vec<Option<TcpStream>>>,
}

/// A running query service: the bound address plus shutdown control.
/// Dropping the handle stops the server and joins its threads.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served versioned database — how embedding code (tests, the
    /// load bench) commits writes out-of-band or inspects the epoch.
    pub fn database(&self) -> &Arc<VersionedDatabase> {
        &self.shared.vdb
    }

    /// Stops accepting, drains the workers, and joins every thread.
    /// Sessions in progress are allowed to finish their current request;
    /// every connection's next read, or the one it is blocked in, ends.
    pub fn stop(mut self) {
        self.begin_stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    fn begin_stop(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
        // Shutting down only the read side lets a request in progress
        // still write its response. A worker that registers its
        // connection after this sweep sees the flag before its first read.
        for stream in lock(&self.shared.open).iter().flatten() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.begin_stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Starts the query service over `vdb`: binds the listener, spawns the
/// accept loop and [`ServeConfig::threads`] session workers, registers
/// the serve metrics, and returns immediately.
pub fn start(vdb: Arc<VersionedDatabase>, config: ServeConfig) -> std::io::Result<ServerHandle> {
    metrics::register();
    metrics::mark_started();
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let open = Mutex::new((0..config.threads).map(|_| None).collect());
    let shared = Arc::new(Shared {
        vdb,
        config,
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        shutdown: AtomicBool::new(false),
        open,
    });

    let mut threads = Vec::with_capacity(shared.config.threads + 1);
    {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("serve-accept".to_owned())
                .spawn(move || accept_loop(listener, &shared))?,
        );
    }
    for i in 0..shared.config.threads {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&shared, i))?,
        );
    }
    Ok(ServerHandle {
        addr,
        shared,
        threads,
    })
}

fn accept_loop(listener: TcpListener, shared: &Shared) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Request/response protocols are latency-bound, not
                // bandwidth-bound: leave Nagle off so responses go out
                // immediately instead of waiting on delayed ACKs.
                let _ = stream.set_nodelay(true);
                metrics::CONNECTIONS.inc();
                let mut queue = shared.queue.lock().expect("queue poisoned");
                queue.push_back(stream);
                drop(queue);
                shared.available.notify_one();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
    shared.available.notify_all();
}

fn worker_loop(shared: &Shared, worker: usize) {
    loop {
        let stream = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(stream) = queue.pop_front() {
                    break stream;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.available.wait(queue).expect("queue poisoned");
            }
        };
        handle_connection(stream, shared, worker);
    }
}

/// Locks a mutex that guards no invariant a panic could break.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// A worker's hold on the connection it serves: counted in the
/// active-sessions gauge, and a clone kept in [`Shared::open`]. Both are
/// released on drop (panic-safe).
struct OpenSession<'a> {
    shared: &'a Shared,
    worker: usize,
}

impl<'a> OpenSession<'a> {
    fn new(shared: &'a Shared, worker: usize, stream: &TcpStream) -> Self {
        metrics::ACTIVE_SESSIONS.add(1);
        lock(&shared.open)[worker] = stream.try_clone().ok();
        OpenSession { shared, worker }
    }
}

impl Drop for OpenSession<'_> {
    fn drop(&mut self) {
        lock(&self.shared.open)[self.worker] = None;
        metrics::ACTIVE_SESSIONS.add(-1);
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared, worker: usize) {
    let _open = OpenSession::new(shared, worker, &stream);
    let Ok(mut writer) = stream.try_clone() else {
        metrics::DISCONNECTS.inc();
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut session = Session::new(Arc::clone(&shared.vdb), shared.config.clone());
    let mut line = String::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        line.clear();
        match reader.read_line(&mut line) {
            // The client vanished without QUIT (socket closed or reset
            // mid-stream): count the abrupt end. The session gauge and
            // the prepared cache (owned by `session`) release on return.
            Ok(0) => {
                metrics::DISCONNECTS.inc();
                return;
            }
            Ok(_) => {}
            Err(_) => {
                metrics::DISCONNECTS.inc();
                return;
            }
        }
        if line.trim().is_empty() {
            continue;
        }
        metrics::REQUESTS.inc();
        let started = Instant::now();
        let request = Request::parse(&line);
        let command = request.as_ref().map(Request::command_name).unwrap_or("err");
        let outcome = match &request {
            Ok(Request::Quit) => {
                let _ = writer.write_all(b"BYE\n").and_then(|_| writer.flush());
                return;
            }
            Ok(request) => {
                // One query trace per request, labeled with the raw line —
                // this is what the slow-query log records server-side.
                let trace = nullrel_obs::begin_query(line.trim().to_owned());
                let outcome = session.handle(request);
                drop(trace);
                outcome
            }
            Err(e) => Err(e.clone()),
        };
        metrics::command_latency(command).observe(started.elapsed().as_micros() as u64);
        let written = match outcome {
            Ok(lines) => protocol::write_ok(&mut writer, &lines),
            Err(message) => {
                metrics::ERRORS.inc();
                protocol::write_err(&mut writer, &message)
            }
        };
        if written.is_err() {
            metrics::DISCONNECTS.inc();
            return;
        }
    }
}

/// A minimal blocking client for the wire protocol — used by this crate's
/// integration tests and the `e18_concurrent_serve` load bench.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Latency-bound protocol: don't let Nagle hold the request back.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line and reads the full response: `Ok(lines)`
    /// for `OK`, `Err(message)` for `ERR`. `BYE` returns an empty `Ok`.
    pub fn send(&mut self, request: &str) -> std::io::Result<Result<Vec<String>, String>> {
        self.writer.write_all(format!("{request}\n").as_bytes())?;
        self.writer.flush()?;
        let mut header = String::new();
        if self.reader.read_line(&mut header)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let header = header.trim_end();
        if header == "BYE" {
            return Ok(Ok(Vec::new()));
        }
        if let Some(message) = header.strip_prefix("ERR ") {
            return Ok(Err(message.to_owned()));
        }
        let count: usize = header
            .strip_prefix("OK ")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("malformed response header {header:?}"),
                )
            })?;
        let mut lines = Vec::with_capacity(count);
        for _ in 0..count {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "response truncated",
                ));
            }
            while line.ends_with('\n') || line.ends_with('\r') {
                line.pop();
            }
            lines.push(line);
        }
        Ok(Ok(lines))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_threads_parse_like_parallelism() {
        assert_eq!(parse_threads(None), DEFAULT_THREADS);
        assert_eq!(parse_threads(Some("")), DEFAULT_THREADS);
        assert_eq!(parse_threads(Some("garbage")), DEFAULT_THREADS);
        assert_eq!(parse_threads(Some("0")), DEFAULT_THREADS);
        assert_eq!(parse_threads(Some("1")), 1);
        assert_eq!(parse_threads(Some(" 12 ")), 12);
        assert_eq!(parse_threads(Some("999999")), MAX_SERVE_THREADS);
    }

    /// Garbage falls back to the default, but `0` is a *valid* bound
    /// (re-pin every request) — it must not be coerced to the default the
    /// way `parse_threads` treats zero.
    #[test]
    fn max_staleness_parse_is_hardened_and_zero_is_valid() {
        assert_eq!(parse_max_staleness(None), DEFAULT_MAX_STALENESS);
        assert_eq!(parse_max_staleness(Some("")), DEFAULT_MAX_STALENESS);
        assert_eq!(parse_max_staleness(Some("   ")), DEFAULT_MAX_STALENESS);
        assert_eq!(parse_max_staleness(Some("garbage")), DEFAULT_MAX_STALENESS);
        assert_eq!(parse_max_staleness(Some("-3")), DEFAULT_MAX_STALENESS);
        assert_eq!(parse_max_staleness(Some("12.5")), DEFAULT_MAX_STALENESS);
        assert_eq!(parse_max_staleness(Some("0")), 0);
        assert_eq!(parse_max_staleness(Some(" 77 ")), 77);
    }
}
