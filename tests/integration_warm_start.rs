//! Warm-start byte-identity: a service restarted on its snapshot
//! directory must serve the replayed stream **byte-identically** to the
//! cold run while `CollectionAudit` proves it re-ran **zero** reference
//! collections — batched, pipelined, and over TCP.
//!
//! The reference-collection counter is process-global, so the audited
//! tests serialize on [`GUARD`] (this file owns its whole test binary —
//! see `crates/bench/Cargo.toml`).

use countertrust::methods::MethodOptions;
use countertrust::serve::net::{exchange, NetOptions};
use countertrust::serve::{EvalService, PipelineOptions};
use ct_bench::streams::{request_stream, to_wire, StreamConfig, StreamPattern};
use ct_bench::workload_specs;
use ct_instrument::CollectionAudit;
use ct_sim::MachineModel;
use std::path::PathBuf;
use std::sync::Mutex;
use support::with_server;

#[path = "support/loopback.rs"]
mod support;

static GUARD: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("ctstore_warm_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The shared scenario: paper machines × scaled-down kernels, a zipfian
/// 30-request stream — the access pattern the serving tier optimizes
/// for, and small enough that the cold run stays fast under
/// `MethodOptions::fast()`.
fn zipfian_stream(
    machines: &[MachineModel],
    workloads: &[ct_workloads::Workload],
    opts: &MethodOptions,
) -> Vec<countertrust::serve::EvalRequest> {
    request_stream(
        machines,
        workloads,
        opts,
        &StreamConfig {
            pattern: StreamPattern::Zipfian,
            requests: 30,
            seed: 11,
            runs: 1,
        },
    )
}

#[test]
fn warm_restart_is_byte_identical_with_zero_rebuilds_batched_and_pipelined() {
    let _guard = lock();
    let tmp = TempDir::new("local");
    let machines = MachineModel::paper_machines();
    let workloads = ct_workloads::kernel_set(0.01);
    let specs = workload_specs(&workloads);
    let opts = MethodOptions::fast();
    let stream = zipfian_stream(&machines, &workloads, &opts);
    let service = |dir: Option<&TempDir>| {
        let s = EvalService::new(&machines, &specs)
            .method_options(opts)
            .threads(2);
        match dir {
            Some(tmp) => s.snapshot_dir(&tmp.0),
            None => s,
        }
    };

    // Control: the no-store output every run must match.
    let control = service(None).serve_jsonl(&stream);

    // Cold run with the store attached: builds everything, writes
    // snapshots behind, bytes unchanged by the store.
    let cold = service(Some(&tmp));
    let cold_audit = CollectionAudit::begin();
    let cold_out = cold.serve_jsonl(&stream);
    let cold_builds = cold_audit.collections();
    assert_eq!(cold_out, control, "attaching a store must not change bytes");
    assert!(cold_builds > 0, "cold run must actually collect references");
    let cold_stats = cold.cache_stats();
    assert_eq!(
        (cold_stats.snapshot_hits, cold_stats.snapshot_rejects),
        (0, 0),
        "first run on an empty directory neither hits nor rejects"
    );
    drop(cold); // the "restart": all in-memory state dies with the service

    // Warm batched replay on a fresh service: identical bytes, zero
    // instrumented executions.
    let warm = service(Some(&tmp));
    let audit = CollectionAudit::begin();
    let warm_out = warm.serve_jsonl(&stream);
    assert_eq!(
        audit.collections(),
        0,
        "warm restart must not re-run a single reference collection"
    );
    assert_eq!(
        warm_out, control,
        "warm batched replay diverged from cold bytes"
    );
    let warm_stats = warm.cache_stats();
    assert_eq!(warm_stats.snapshot_hits, cold_builds);
    assert_eq!(warm_stats.snapshot_rejects, 0);
    assert_eq!(
        warm_stats.builds, cold_builds,
        "snapshot loads still count as cache builds (residency accounting)"
    );

    // Warm *pipelined* replay — the chunked intake path goes through the
    // same cache seam.
    let piped = service(Some(&tmp));
    let audit = CollectionAudit::begin();
    let mut out = Vec::new();
    piped
        .serve_pipelined(
            to_wire(&stream).as_bytes(),
            &mut out,
            &PipelineOptions::new().chunk(4),
        )
        .expect("in-memory pipeline never hits I/O errors");
    assert_eq!(
        audit.collections(),
        0,
        "warm pipelined replay must be build-free"
    );
    assert_eq!(
        String::from_utf8(out).unwrap(),
        control,
        "warm pipelined replay diverged from cold bytes"
    );
}

#[test]
fn warm_restart_over_tcp_is_byte_identical_and_build_free() {
    let _guard = lock();
    let tmp = TempDir::new("tcp");
    let machines = MachineModel::paper_machines();
    let workloads = ct_workloads::kernel_set(0.01);
    let specs = workload_specs(&workloads);
    let opts = MethodOptions::fast();
    let stream = zipfian_stream(&machines, &workloads, &opts);
    let wire = to_wire(&stream);

    let serve_once = |audited: bool| -> (String, usize) {
        let service = EvalService::new(&machines, &specs)
            .method_options(opts)
            .threads(2)
            .snapshot_dir(&tmp.0);
        let options = NetOptions::new().pipeline(PipelineOptions::new().chunk(4));
        let audit = audited.then(CollectionAudit::begin);
        let (response, net) = with_server(&service, options, |local| {
            exchange(local, &wire).expect("loopback exchange")
        });
        assert_eq!(net.connections, 1);
        (response, audit.map_or(0, |a| a.collections() as usize))
    };

    // Cold server: fills the directory. Its own run is unaudited — the
    // point is what the *restarted* server does.
    let (cold_response, _) = serve_once(false);

    // Restarted server, fresh service, same directory: byte-identical
    // response stream, zero audited collections.
    let (warm_response, warm_builds) = serve_once(true);
    assert_eq!(
        warm_builds, 0,
        "warm TCP restart must be reference-build-free"
    );
    assert_eq!(
        warm_response, cold_response,
        "warm TCP replay diverged from the cold server's bytes"
    );
}
