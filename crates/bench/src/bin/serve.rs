//! Serves the evaluation service over TCP until killed.
//!
//! ```text
//! cargo run --release -p ct-bench --bin serve -- --listen ADDR \
//!     [--scale F] [--capacity N] [--workload-dir DIR] [--snapshot-dir DIR]
//! ```
//!
//! * `--listen ADDR` (required): the bind address; port `0` picks a free
//!   port. The first stderr line is `serve: listening on <addr>`, with
//!   the port resolved.
//! * `--scale F`: size of the built-in catalog's workloads (default 1.0;
//!   positive and finite).
//! * `--capacity N`: profile-cache bound in pairs (default 0, unbounded).
//! * `--workload-dir DIR`: registers a directory of `.ctasm` + manifest
//!   pairs, loaded at `--scale`, as a tenant named after the directory;
//!   requests address it with `"catalog":"<dirname>"`.
//! * `--snapshot-dir DIR`: backs the profile cache with the on-disk
//!   snapshot store, so a restart on the same directory serves the same
//!   bytes without rebuilding a reference.
//!
//! The default catalog is the paper's three machines × the built-in
//! workloads. Each connection negotiates protocol v1 or v2 on its own;
//! clients are `exchange`, `exchange_v2` and `V2Client`. Worker threads,
//! connection cap, chunk size and method options are the library
//! defaults.
//!
//! An unknown flag, a missing value, a missing `--listen`, a bad number
//! or a malformed `--workload-dir` prints one line on stderr and exits
//! with status 2 before anything binds.

use countertrust::serve::net::{EvalServer, NetOptions};
use countertrust::serve::EvalService;
use ct_bench::workload_specs;
use ct_sim::MachineModel;
use std::process::exit;

const USAGE: &str = "usage: serve --listen ADDR [--scale F] [--capacity N] \
                     [--workload-dir DIR] [--snapshot-dir DIR]";

struct Args {
    listen: String,
    scale: f64,
    capacity: usize,
    workload_dir: Option<String>,
    snapshot_dir: Option<String>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut listen = None;
    let mut scale = 1.0;
    let mut capacity = 0;
    let mut workload_dir = None;
    let mut snapshot_dir = None;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--listen" => listen = Some(value?),
            "--scale" => {
                let raw = value?;
                scale = raw
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--scale {raw:?}: expected a positive number"))?;
            }
            "--capacity" => {
                let raw = value?;
                capacity = raw
                    .parse()
                    .map_err(|_| format!("--capacity {raw:?}: expected a whole number"))?;
            }
            "--workload-dir" => workload_dir = Some(value?),
            "--snapshot-dir" => snapshot_dir = Some(value?),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        listen: listen.ok_or("--listen is required")?,
        scale,
        capacity,
        workload_dir,
        snapshot_dir,
    })
}

/// Rejects the command line: one stderr line, exit status 2.
fn reject(message: &str) -> ! {
    eprintln!("serve: {message}");
    exit(2)
}

fn main() {
    let args =
        parse(std::env::args().skip(1)).unwrap_or_else(|e| reject(&format!("{e} ({USAGE})")));
    let workloads = ct_workloads::all(args.scale);
    let mut service =
        EvalService::new(&MachineModel::paper_machines(), &workload_specs(&workloads))
            .cache_capacity(args.capacity);
    if let Some(dir) = &args.workload_dir {
        service = service
            .workload_dir(dir, args.scale)
            .unwrap_or_else(|e| reject(&format!("--workload-dir: {e}")));
    }
    if let Some(dir) = &args.snapshot_dir {
        service = service.snapshot_dir(dir);
    }
    let server =
        EvalServer::listen(args.listen.as_str(), NetOptions::default()).unwrap_or_else(|e| {
            eprintln!("serve: cannot listen on {}: {e}", args.listen);
            exit(1)
        });
    eprintln!("serve: listening on {}", server.local_addr());
    if let Err(e) = server.serve(&service) {
        eprintln!("serve: {e}");
        exit(1);
    }
}
