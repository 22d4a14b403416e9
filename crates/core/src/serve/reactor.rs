//! Event-driven accept loop for [`super::net::EvalServer`].
//!
//! The original accept loop polled a non-blocking listener and napped
//! 1 ms between attempts — an idle server woke a thousand times a
//! second, and an at-cap server burned the same poll waiting for a
//! slot. This reactor inverts that: the listener stays in **blocking**
//! mode, so an idle accept thread parks in the kernel's readiness
//! queue, and a fixed pool of connection workers provides the
//! concurrency cap — handing a connection to the pool *blocks* (a
//! rendezvous channel) when every worker is busy, which is exactly the
//! at-cap backpressure the old loop polled for. There is no
//! fixed-interval `thread::sleep` anywhere on the accept path.
//!
//! Shutdown with a blocking accept needs a wake-up: the shutdown side
//! sets the stop flag and then opens (and immediately drops) a
//! throwaway loopback connection to the listener, which unparks the
//! accept call. The reactor re-checks the flag after every accept, so
//! the wake connection — or any client unlucky enough to race the
//! shutdown — is dropped without being handed to a worker.
//!
//! The [`ConnectionRegistry`] tracks how many connections are in
//! flight (and the high-water mark), observable from other threads
//! while the server runs.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Mutex;

/// Where accepted connections come from. The indirection exists so
/// fault-injection tests can wrap a real listener with one that starts
/// failing on command — `accept(2)` does not fail on demand.
pub(crate) trait AcceptSource: Sync {
    /// Blocks until the next connection (or a listener-level error).
    fn accept_stream(&self) -> io::Result<TcpStream>;
}

impl AcceptSource for TcpListener {
    fn accept_stream(&self) -> io::Result<TcpStream> {
        self.accept().map(|(stream, _peer)| stream)
    }
}

/// Live view of the reactor's in-flight connections.
#[derive(Debug, Default)]
pub(crate) struct ConnectionRegistry {
    active: AtomicUsize,
}

impl ConnectionRegistry {
    /// Registers one connection; the returned guard deregisters it on
    /// drop (also on panic — that is the point of a guard).
    pub(crate) fn register(&self) -> ConnectionGuard<'_> {
        self.active.fetch_add(1, Ordering::AcqRel);
        ConnectionGuard(self)
    }

    /// Connections currently being served.
    pub(crate) fn active(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }
}

/// RAII registration of one in-flight connection.
pub(crate) struct ConnectionGuard<'a>(&'a ConnectionRegistry);

impl Drop for ConnectionGuard<'_> {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Runs the reactor until `stop` is observed or the source fails:
/// accepts on the calling thread, serves each connection on one of
/// `workers` pooled threads via `handle_connection` (which owns all
/// per-connection accounting and panic isolation — it must not
/// unwind). Returns the listener-level error, if that is what ended
/// the loop; the caller still has every counter `handle_connection`
/// recorded, whichever way the loop ended.
pub(crate) fn run_reactor<S, F>(
    source: &S,
    stop: &AtomicBool,
    workers: usize,
    handle_connection: F,
) -> Option<io::Error>
where
    S: AcceptSource + ?Sized,
    F: Fn(TcpStream) + Sync,
{
    let workers = workers.max(1);
    // Rendezvous hand-off: a send completes only when a worker is
    // ready to take the stream, so the accept thread blocks — without
    // polling — exactly while all workers are busy.
    let (conn_tx, conn_rx) = sync_channel::<TcpStream>(0);
    let conn_rx = Mutex::new(conn_rx);
    let mut accept_error: Option<io::Error> = None;

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let conn_rx = &conn_rx;
            let handle_connection = &handle_connection;
            scope.spawn(move || loop {
                // Take the next stream while holding the lock, then
                // release it before serving so siblings keep draining.
                let next = {
                    let receiver = conn_rx.lock().unwrap_or_else(|e| e.into_inner());
                    receiver.recv()
                };
                match next {
                    Ok(stream) => handle_connection(stream),
                    Err(_) => break, // accept loop ended, queue drained
                }
            });
        }

        loop {
            if stop.load(Ordering::Acquire) {
                break;
            }
            match source.accept_stream() {
                Ok(stream) => {
                    if stop.load(Ordering::Acquire) {
                        // The shutdown wake-up (or a client racing it):
                        // dropped, never handed to a worker.
                        break;
                    }
                    if conn_tx.send(stream).is_err() {
                        break; // all workers gone — cannot happen before the scope ends
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    accept_error = Some(e);
                    break;
                }
            }
        }
        // Closing the channel releases every idle worker; leaving the
        // scope joins them all — the graceful drain.
        drop(conn_tx);
    });

    accept_error
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::sync::atomic::AtomicU64;

    /// Delegates to a real listener for the first `good` accepts, then
    /// fails with a synthetic listener error.
    struct FailingSource {
        listener: TcpListener,
        good: usize,
        taken: AtomicUsize,
    }

    impl AcceptSource for FailingSource {
        fn accept_stream(&self) -> io::Result<TcpStream> {
            if self.taken.fetch_add(1, Ordering::SeqCst) >= self.good {
                return Err(io::Error::other("injected listener failure"));
            }
            self.listener.accept_stream()
        }
    }

    #[test]
    fn listener_error_surfaces_after_accepted_work_is_served() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let source = FailingSource {
            listener,
            good: 2,
            taken: AtomicUsize::new(0),
        };
        let stop = AtomicBool::new(false);
        let bytes_served = AtomicU64::new(0);

        let error = std::thread::scope(|scope| {
            let reactor = scope.spawn(|| {
                run_reactor(&source, &stop, 4, |mut stream: TcpStream| {
                    let mut buf = Vec::new();
                    stream.read_to_end(&mut buf).unwrap();
                    bytes_served.fetch_add(buf.len() as u64, Ordering::SeqCst);
                })
            });
            for _ in 0..2 {
                let mut client = TcpStream::connect(addr).unwrap();
                client.write_all(b"ping!").unwrap();
            }
            reactor.join().unwrap()
        });

        let error = error.expect("injected failure must surface");
        assert_eq!(error.to_string(), "injected listener failure");
        assert_eq!(
            bytes_served.load(Ordering::SeqCst),
            10,
            "work accepted before the failure is still served and counted"
        );
    }

    #[test]
    fn registry_tracks_active_and_peak() {
        let registry = ConnectionRegistry::default();
        assert_eq!(registry.active(), 0);
        let a = registry.register();
        let b = registry.register();
        assert_eq!(registry.active(), 2);
        drop(a);
        assert_eq!(registry.active(), 1);
        let c = registry.register();
        assert_eq!(registry.active(), 2);
        drop(b);
        drop(c);
        assert_eq!(registry.active(), 0);
    }

    #[test]
    fn stop_flag_plus_wake_connection_ends_a_parked_accept() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = AtomicBool::new(false);
        let served = AtomicUsize::new(0);
        let error = std::thread::scope(|scope| {
            let reactor = scope.spawn(|| {
                run_reactor(&listener, &stop, 2, |_stream| {
                    served.fetch_add(1, Ordering::SeqCst);
                })
            });
            stop.store(true, Ordering::Release);
            let _wake = TcpStream::connect(addr).unwrap();
            reactor.join().unwrap()
        });
        assert!(error.is_none());
        assert_eq!(
            served.load(Ordering::SeqCst),
            0,
            "the wake connection is dropped, not served"
        );
    }
}
