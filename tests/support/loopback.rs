//! The loopback server the networked tests share. It shuts down from a
//! drop guard, so a failing assertion inside a test body unwinds into
//! the shutdown and the test fails, instead of `std::thread::scope`
//! waiting forever for the serving thread.

// Each test binary includes this module and uses only part of it.
#![allow(dead_code)]

use countertrust::serve::net::{EvalServer, NetOptions, NetStats, ServerHandle};
use countertrust::serve::EvalService;
use std::net::SocketAddr;

/// Shuts a server down when dropped, also while a panic unwinds.
pub struct StopOnDrop<'a>(pub &'a ServerHandle);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Serves `service` on a fresh loopback listener while `body` runs
/// against its address, and returns the body's result and the server's
/// stats after a graceful shutdown. When `body` panics, the server shuts
/// down all the same and the panic reaches the caller.
pub fn with_server<R>(
    service: &EvalService,
    options: NetOptions,
    body: impl FnOnce(SocketAddr) -> R,
) -> (R, NetStats) {
    let server = EvalServer::listen("127.0.0.1:0", options).expect("loopback bind");
    let addr = server.local_addr();
    let handle = server.handle();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(service));
        let stop = StopOnDrop(&handle);
        let result = body(addr);
        drop(stop);
        let stats = serving.join().expect("server thread").expect("accept loop");
        (result, stats)
    })
}
