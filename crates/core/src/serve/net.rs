//! TCP network intake for the evaluation service.
//!
//! [`EvalServer`] is the socket front door of [`EvalService`]: it binds a
//! [`TcpListener`] and drives every accepted connection through a fixed
//! pool of connection workers. Each connection is protocol-negotiated by
//! its first bytes (see [`super::proto`]): the original **v1** wire
//! format — one EOF-delimited JSON-lines stream, answered through
//! [`EvalService::serve_pipelined`], byte-identical to an offline
//! pipelined run — and the keep-alive, multiplexed **v2** framing,
//! whose per-stream responses are byte-identical to the same lines over
//! their own v1 connection. v1 clients need no changes and see no
//! difference.
//!
//! A connection is one loop on its worker, the same for both
//! protocols: read a chunk (v1: up to [`PipelineOptions::chunk`] lines
//! or EOF; v2: a burst of the frames already sent, up to the same
//! bound), answer it in arrival order with the evaluation fanned out
//! over the service's threads, then read the next. A v1 line longer
//! than [`super::proto::MAX_FRAME_PAYLOAD`] bytes, the v2 frame limit,
//! gets an in-order error response and then the connection closes,
//! as an oversized v2 frame gets `ERR` and a close.
//!
//! The accept path is event-driven (the `serve::reactor` module):
//! the listener blocks in the kernel until a connection is ready, and
//! handing a connection to the worker pool blocks while all
//! [`NetOptions::max_connections`] workers are busy. An idle or at-cap
//! server parks — there is no fixed-interval poll anywhere.
//!
//! Operational guarantees:
//!
//! * **Connection cap** ([`NetOptions::max_connections`]): the pool has
//!   exactly that many workers; when all are busy the server stops
//!   accepting until one frees — pending clients wait in the OS backlog
//!   instead of being dropped.
//! * **Graceful shutdown** ([`ServerHandle::shutdown`]): the accept loop
//!   stops taking new connections (a loopback wake-up unparks a blocked
//!   accept), every in-flight connection drains to completion, then
//!   [`EvalServer::serve`] returns its [`NetStats`].
//! * **Per-connection error isolation**: a connection that fails mid-I/O
//!   (client gone, socket reset) is counted in [`NetStats::io_errors`];
//!   a connection whose worker *panics* is counted separately in
//!   [`NetStats::worker_panics`]. Both are logged to stderr and neither
//!   takes down the accept loop or any sibling connection. Malformed or
//!   over-long request lines are not errors at this layer at all — the
//!   chunk loop answers them in order, per its contract.
//! * **No lost accounting**: if the *listener itself* fails, the error
//!   comes back as an [`AcceptError`] that still carries the
//!   [`NetStats`] of everything served up to that point.
//!
//! # Examples
//!
//! Serve a catalog over loopback and drive one client connection
//! (networked and offline responses are byte-identical):
//!
//! ```
//! use countertrust::grid::WorkloadSpec;
//! use countertrust::methods::MethodOptions;
//! use countertrust::serve::net::{EvalServer, NetOptions};
//! use countertrust::serve::{EvalService, PipelineOptions};
//! use ct_isa::asm::assemble;
//! use ct_sim::{MachineModel, RunConfig};
//! use std::io::{Read, Write};
//!
//! let program = assemble(
//!     "demo",
//!     ".func main\n movi r1, 20000\ntop:\n addi r2, r2, 1\n subi r1, r1, 1\n brnz r1, top\n halt\n.endfunc",
//! )
//! .unwrap();
//! let run_config = RunConfig::default();
//! let workloads = [WorkloadSpec { name: "demo", program: &program, run_config: &run_config }];
//! let machines = [MachineModel::ivy_bridge()];
//! let service = EvalService::new(&machines, &workloads)
//!     .method_options(MethodOptions::fast());
//! let wire = "{\"machine\":\"Ivy Bridge (Xeon E3-1265L)\",\"workload\":\"demo\",\"method\":\"classic\",\"runs\":1,\"seed\":7}\n";
//!
//! let server = EvalServer::listen("127.0.0.1:0", NetOptions::default()).unwrap();
//! let addr = server.local_addr();
//! let handle = server.handle();
//! let served = std::thread::scope(|scope| {
//!     let serving = scope.spawn(|| server.serve(&service));
//!     let mut stream = std::net::TcpStream::connect(addr).unwrap();
//!     stream.write_all(wire.as_bytes()).unwrap();
//!     stream.shutdown(std::net::Shutdown::Write).unwrap();
//!     let mut response = String::new();
//!     stream.read_to_string(&mut response).unwrap();
//!     handle.shutdown();
//!     let stats = serving.join().unwrap().unwrap();
//!     assert_eq!(stats.connections, 1);
//!     response
//! });
//!
//! let offline = EvalService::new(&machines, &workloads)
//!     .method_options(MethodOptions::fast());
//! let mut expected = Vec::new();
//! offline
//!     .serve_pipelined(wire.as_bytes(), &mut expected, &PipelineOptions::default())
//!     .unwrap();
//! assert_eq!(served.as_bytes(), expected.as_slice());
//! ```

use super::proto::{self, Negotiated};
use super::reactor::{run_reactor, AcceptSource, ConnectionRegistry};
use super::{EvalService, PipelineOptions};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default socket read/write timeout of the [`exchange`] /
/// [`super::proto::exchange_v2`] client helpers: generous enough for a
/// full reference build between responses, finite enough that a stalled
/// server cannot hang a bench client forever.
pub const DEFAULT_EXCHANGE_TIMEOUT: Duration = Duration::from_secs(30);

/// How long [`ServerHandle::shutdown`] waits for its loopback wake-up
/// connection; purely best-effort (a server that is not blocked in
/// accept does not need waking).
const WAKE_TIMEOUT: Duration = Duration::from_millis(200);

/// Shape of a network-served evaluation tier.
#[derive(Debug, Clone)]
pub struct NetOptions {
    /// The intake shape (chunk size, latency stamps) every
    /// connection is served with.
    pub pipeline: PipelineOptions,
    /// Maximum concurrently served connections (values below 1 are
    /// served as 1) — the size of the connection worker pool. The
    /// accept loop blocks at the cap; waiting clients queue in the OS
    /// listen backlog.
    pub max_connections: usize,
}

impl Default for NetOptions {
    fn default() -> Self {
        Self {
            pipeline: PipelineOptions::default(),
            max_connections: 8,
        }
    }
}

impl NetOptions {
    /// Default shape: default pipeline, at most 8 concurrent connections.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the per-connection pipeline shape.
    #[must_use]
    pub fn pipeline(mut self, pipeline: PipelineOptions) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Sets the concurrent-connection cap (clamped to at least 1 at
    /// use).
    #[must_use]
    pub fn max_connections(mut self, cap: usize) -> Self {
        self.max_connections = cap;
        self
    }
}

/// Counters of one [`EvalServer::serve`] run. Connection-level I/O
/// failures land in [`NetStats::io_errors`], crashed workers in
/// [`NetStats::worker_panics`]; request-level failures are ordinary
/// error responses inside their stream and are counted by the service's
/// [`super::ServeStats`] as usual.
///
/// The line/request/response counters cover **cleanly completed**
/// connections only: a connection that dies mid-stream contributes just
/// its `io_errors` tick here (its partially served work is still
/// visible in the service's cumulative [`super::ServeStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted.
    pub connections: u64,
    /// Non-empty request lines consumed across cleanly completed
    /// connections.
    pub lines: u64,
    /// Lines that parsed into requests.
    pub requests: u64,
    /// Lines answered with parse-error responses.
    pub parse_errors: u64,
    /// Responses written across cleanly completed connections.
    pub responses: u64,
    /// Connections that ended in an I/O error (client disconnected
    /// mid-stream, socket reset); each was isolated to its own worker.
    pub io_errors: u64,
    /// Connections whose worker panicked. Kept apart from
    /// [`NetStats::io_errors`] so a crashing handler is
    /// distinguishable from a flaky client.
    pub worker_panics: u64,
}

/// A failed [`EvalServer::serve`] run: the listener-level error **plus**
/// the [`NetStats`] accumulated before it — connections drained up to
/// the failure are never silently discarded.
#[derive(Debug)]
pub struct AcceptError {
    /// What the listener failed with.
    pub error: std::io::Error,
    /// Everything served before the failure.
    pub stats: NetStats,
}

impl std::fmt::Display for AcceptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "accept loop failed after {} connections ({} responses): {}",
            self.stats.connections, self.stats.responses, self.error
        )
    }
}

impl std::error::Error for AcceptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// A handle that requests a graceful shutdown of a serving
/// [`EvalServer`] from another thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// Asks the server to stop accepting connections and drain. Safe to
    /// call from any thread, any number of times.
    ///
    /// The accept loop blocks in the kernel when idle, so after raising
    /// the stop flag this opens (and immediately drops) one loopback
    /// connection to unpark it; the server recognizes and discards it.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        let mut addr = self.addr;
        if addr.ip().is_unspecified() {
            // `0.0.0.0`/`::` is a bind address, not a destination.
            addr.set_ip(match addr.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect_timeout(&addr, WAKE_TIMEOUT);
    }
}

/// A bound TCP evaluation server. [`EvalServer::listen`] binds the
/// socket; [`EvalServer::serve`] runs the accept loop against a service
/// until a [`ServerHandle::shutdown`].
pub struct EvalServer {
    listener: TcpListener,
    local_addr: SocketAddr,
    options: NetOptions,
    stop: Arc<AtomicBool>,
    /// Connections accepted across this server's lifetime, observable
    /// while [`EvalServer::serve`] runs (the per-run [`NetStats`] is
    /// only available once it returns) — e.g. to shut down only after
    /// known traffic was taken in.
    accepted: AtomicU64,
    /// Live in-flight connection count, observable while serving.
    registry: ConnectionRegistry,
}

impl EvalServer {
    /// Binds `addr` (use port `0` for an ephemeral port — the resolved
    /// address is [`EvalServer::local_addr`]) without serving yet. The
    /// listener stays in blocking mode: accepting parks in the kernel
    /// until a connection is ready.
    ///
    /// # Errors
    ///
    /// Returns the bind/configuration error when the address is
    /// unavailable.
    pub fn listen(addr: impl ToSocketAddrs, options: NetOptions) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        Ok(Self {
            listener,
            local_addr,
            options,
            stop: Arc::new(AtomicBool::new(false)),
            accepted: AtomicU64::new(0),
            registry: ConnectionRegistry::default(),
        })
    }

    /// Connections accepted so far (live — readable from other threads
    /// while the server runs).
    #[must_use]
    pub fn connections_accepted(&self) -> u64 {
        self.accepted.load(Ordering::Acquire)
    }

    /// Connections being served right now (live).
    #[must_use]
    pub fn active_connections(&self) -> usize {
        self.registry.active()
    }

    /// The address the server actually bound (resolves port `0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A shutdown handle for this server, cloneable across threads.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            stop: self.stop.clone(),
            addr: self.local_addr,
        }
    }

    /// Accepts connections and serves each on one of
    /// [`NetOptions::max_connections`] pooled workers — v1 connections
    /// through [`EvalService::serve_pipelined`], v2 connections through
    /// the framed [`super::proto`] session — until the [`ServerHandle`]
    /// asks for shutdown; in-flight connections drain before this
    /// returns.
    ///
    /// # Errors
    ///
    /// Returns an [`AcceptError`] on the first *listener* error (a
    /// failing `accept`), carrying the stats accumulated so far.
    /// Per-connection I/O errors never surface here — they are counted
    /// in [`NetStats::io_errors`].
    pub fn serve(&self, service: &EvalService) -> Result<NetStats, AcceptError> {
        self.serve_with(service, serve_connection)
    }

    /// [`EvalServer::serve`] with a custom per-connection handler — the
    /// seam for alternative wire protocols and for fault-injection
    /// tests (the panic-isolation regression drives a handler that
    /// panics on purpose).
    ///
    /// The contract the accept loop owes every handler: each connection
    /// runs on a pooled worker; a handler returning `Err` counts one
    /// [`NetStats::io_errors`]; a handler that **panics** is caught,
    /// counted in [`NetStats::worker_panics`], and its worker keeps
    /// serving — the server accepts more connections either way.
    ///
    /// # Errors
    ///
    /// Exactly as [`EvalServer::serve`]: only listener-level errors.
    pub fn serve_with<H>(&self, service: &EvalService, handler: H) -> Result<NetStats, AcceptError>
    where
        H: Fn(&EvalService, &TcpStream, &PipelineOptions) -> std::io::Result<super::PipelineStats>
            + Sync,
    {
        self.serve_on_source(&self.listener, service, handler)
    }

    /// The full serve loop over any [`AcceptSource`] — `serve_with`
    /// against the real listener, fault-injection tests against a
    /// source that fails on command.
    pub(crate) fn serve_on_source<S, H>(
        &self,
        source: &S,
        service: &EvalService,
        handler: H,
    ) -> Result<NetStats, AcceptError>
    where
        S: AcceptSource + ?Sized,
        H: Fn(&EvalService, &TcpStream, &PipelineOptions) -> std::io::Result<super::PipelineStats>
            + Sync,
    {
        let workers = self.options.max_connections.max(1);
        let pipeline = self.options.pipeline;
        let handler = &handler;
        let connections = AtomicU64::new(0);
        let lines = AtomicU64::new(0);
        let requests = AtomicU64::new(0);
        let parse_errors = AtomicU64::new(0);
        let responses = AtomicU64::new(0);
        let io_errors = AtomicU64::new(0);
        let worker_panics = AtomicU64::new(0);

        let accept_error = run_reactor(source, &self.stop, workers, |stream: TcpStream| {
            // Registered before any handler work; the guard deregisters
            // on every exit path, panics included.
            let _slot = self.registry.register();
            connections.fetch_add(1, Ordering::Relaxed);
            self.accepted.fetch_add(1, Ordering::Release);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                handler(service, &stream, &pipeline)
            }));
            let _ = stream.shutdown(Shutdown::Both);
            match outcome {
                Ok(Ok(stats)) => {
                    lines.fetch_add(stats.lines, Ordering::Relaxed);
                    requests.fetch_add(stats.requests, Ordering::Relaxed);
                    parse_errors.fetch_add(stats.parse_errors, Ordering::Relaxed);
                    responses.fetch_add(stats.responses, Ordering::Relaxed);
                }
                Ok(Err(e)) => {
                    // Isolation: this connection's failure stays its
                    // own; the server keeps serving.
                    io_errors.fetch_add(1, Ordering::Relaxed);
                    eprintln!("warning: connection failed: {e}");
                }
                Err(panic) => {
                    // A worker panic is a connection failure, never a
                    // server failure: count it apart from client I/O,
                    // keep the worker serving.
                    worker_panics.fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "warning: connection worker panicked: {}",
                        panic_message(panic.as_ref())
                    );
                }
            }
        });

        let stats = NetStats {
            connections: connections.into_inner(),
            lines: lines.into_inner(),
            requests: requests.into_inner(),
            parse_errors: parse_errors.into_inner(),
            responses: responses.into_inner(),
            io_errors: io_errors.into_inner(),
            worker_panics: worker_panics.into_inner(),
        };
        match accept_error {
            Some(error) => Err(AcceptError { error, stats }),
            None => Ok(stats),
        }
    }
}

/// Renders a caught panic payload for the warning log (panics carry
/// `&str` or `String` payloads from `panic!`; anything else is opaque).
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Drives one accepted connection: sniffs the protocol version from its
/// first bytes, then serves v1 through [`EvalService::serve_pipelined`]
/// or v2 through the framed session. The consumed sniff bytes of a v1
/// connection are replayed in front of the socket, so v1 service is
/// byte-identical to a pre-negotiation server.
fn serve_connection(
    service: &EvalService,
    stream: &TcpStream,
    pipeline: &PipelineOptions,
) -> std::io::Result<super::PipelineStats> {
    // Accepted sockets may inherit listener flags on some platforms;
    // both protocols want plain blocking I/O.
    stream.set_nonblocking(false)?;
    match proto::negotiate_server(stream)? {
        Negotiated::V2 => {
            let stats = proto::serve_v2(service, stream, pipeline)?;
            let _ = stream.shutdown(Shutdown::Write);
            Ok(stats)
        }
        Negotiated::V1 { consumed } => {
            let replay = std::io::Cursor::new(consumed);
            let reader = BufReader::new(replay.chain(stream.try_clone()?));
            let mut writer = BufWriter::new(stream);
            let stats = service.serve_pipelined(reader, &mut writer, pipeline)?;
            writer.flush()?;
            // Half-close tells well-behaved clients the response stream
            // is done even if they keep their write side open.
            let _ = stream.shutdown(Shutdown::Write);
            Ok(stats)
        }
    }
}

/// Client-side convenience: sends a JSON-lines request stream over one
/// v1 TCP connection and returns the full response stream. Used by the
/// bench/client tooling; servers never call this. Socket reads and
/// writes time out after [`DEFAULT_EXCHANGE_TIMEOUT`] — use
/// [`exchange_with`] to change or disable that.
///
/// # Errors
///
/// Returns any connect/write/read error; a stalled server surfaces as
/// the platform's timeout error (`WouldBlock`/`TimedOut`) instead of
/// hanging forever.
pub fn exchange(addr: impl ToSocketAddrs, wire: &str) -> std::io::Result<String> {
    exchange_with(addr, wire, Some(DEFAULT_EXCHANGE_TIMEOUT))
}

/// [`exchange`] with an explicit socket read/write timeout (`None`
/// blocks forever, the pre-timeout behavior).
///
/// # Errors
///
/// As [`exchange`].
pub fn exchange_with(
    addr: impl ToSocketAddrs,
    wire: &str,
    timeout: Option<Duration>,
) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)?;
    stream.write_all(wire.as_bytes())?;
    stream.shutdown(Shutdown::Write)?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_options_clamp_and_build() {
        let options = NetOptions::new()
            .max_connections(0)
            .pipeline(PipelineOptions::new().chunk(5));
        assert_eq!(options.max_connections, 0, "stored raw, clamped at use");
        assert_eq!(options.pipeline.chunk, 5);
        assert_eq!(NetOptions::default().max_connections, 8);
    }

    #[test]
    fn listen_resolves_ephemeral_ports_and_shutdown_is_idempotent() {
        let server = EvalServer::listen("127.0.0.1:0", NetOptions::default()).unwrap();
        assert_ne!(server.local_addr().port(), 0);
        let handle = server.handle();
        handle.shutdown();
        handle.shutdown();
        assert!(server.stop.load(Ordering::Acquire));
    }

    #[test]
    fn exchange_times_out_against_a_server_that_never_responds() {
        // A bound listener that never accepts: the connect succeeds via
        // the OS backlog, the write lands in socket buffers, and the
        // read would previously have hung forever.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let started = std::time::Instant::now();
        let err = exchange_with(addr, "{\"x\":1}\n", Some(Duration::from_millis(100)))
            .expect_err("a never-responding server must time out");
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "unexpected error kind: {err:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "timeout must fire promptly, not hang"
        );
    }

    #[test]
    fn failing_listener_returns_the_stats_it_accumulated() {
        use crate::grid::WorkloadSpec;
        use crate::methods::MethodOptions;
        use ct_isa::asm::assemble;
        use ct_sim::{MachineModel, RunConfig};
        use std::sync::atomic::AtomicUsize;

        /// Accepts `good` real connections, then fails like a listener
        /// whose descriptor went bad.
        struct FailingSource {
            listener: TcpListener,
            good: usize,
            taken: AtomicUsize,
        }
        impl AcceptSource for FailingSource {
            fn accept_stream(&self) -> std::io::Result<TcpStream> {
                if self.taken.fetch_add(1, Ordering::SeqCst) >= self.good {
                    return Err(std::io::Error::other("injected listener failure"));
                }
                self.listener.accept().map(|(s, _)| s)
            }
        }

        let program = assemble(
            "k",
            ".func main\n movi r1, 2000\ntop:\n addi r2, r2, 1\n subi r1, r1, 1\n brnz r1, top\n halt\n.endfunc",
        )
        .unwrap();
        let run_config = RunConfig::default();
        let workloads = [WorkloadSpec {
            name: "k",
            program: &program,
            run_config: &run_config,
        }];
        let machines = [MachineModel::ivy_bridge()];
        let service = EvalService::new(&machines, &workloads)
            .method_options(MethodOptions::fast())
            .threads(1);
        let wire = "{\"machine\":\"Ivy Bridge (Xeon E3-1265L)\",\"workload\":\"k\",\"method\":\"classic\",\"runs\":1,\"seed\":3}\n";

        // The server object still owns a (never-used) real listener; the
        // injected source wraps its own.
        let server = EvalServer::listen("127.0.0.1:0", NetOptions::default()).unwrap();
        let source_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = source_listener.local_addr().unwrap();
        let source = FailingSource {
            listener: source_listener,
            good: 2,
            taken: AtomicUsize::new(0),
        };

        let result = std::thread::scope(|scope| {
            let serving =
                scope.spawn(|| server.serve_on_source(&source, &service, serve_connection));
            for c in 0..2 {
                let response = exchange(addr, wire).expect("exchange");
                assert!(!response.is_empty(), "connection {c} got its response");
            }
            serving.join().expect("server thread")
        });

        // The regression: the listener error used to discard the drained
        // connections' stats entirely.
        let failure = result.expect_err("the injected listener failure must surface");
        assert_eq!(failure.error.to_string(), "injected listener failure");
        assert_eq!(failure.stats.connections, 2, "drained work is not lost");
        assert_eq!(failure.stats.requests, 2);
        assert_eq!(failure.stats.responses, 2);
        assert_eq!(failure.stats.io_errors, 0);
        assert!(failure.to_string().contains("2 connections"));
    }

    #[test]
    fn accept_error_display_names_the_drained_work() {
        let err = AcceptError {
            error: std::io::Error::other("boom"),
            stats: NetStats {
                connections: 3,
                responses: 7,
                ..NetStats::default()
            },
        };
        let text = err.to_string();
        assert!(text.contains("3 connections"), "{text}");
        assert!(text.contains("7 responses"), "{text}");
        assert!(text.contains("boom"), "{text}");
        assert!(std::error::Error::source(&err).is_some());
    }
}
