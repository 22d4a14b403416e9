//! Serving-layer guarantees: the profile-cache contract (capacity-1
//! thrashes by transitions, unbounded builds once per pair, replays are
//! byte-identical), the headline acceptance run — a zipfian
//! 500-request stream served with >80% cache hit rate and byte-identical
//! output for 1 vs 8 worker threads — and the `serve` binary: over v1
//! and v2 it answers like an offline service built from the same flags,
//! warm-restarts from its snapshot directory, and rejects a bad command
//! line with exit status 2.
//!
//! The reference-collection counter is process-global, so the tests that
//! build references in this process serialize on [`GUARD`] (this file
//! owns its whole test binary — see `crates/bench/Cargo.toml`).

use countertrust::methods::MethodOptions;
use countertrust::serve::net::exchange;
use countertrust::serve::proto::exchange_v2;
use countertrust::serve::{EvalRequest, EvalService, PipelineOptions};
use ct_bench::streams::{distinct_pairs, request_stream, to_wire, StreamConfig, StreamPattern};
use ct_bench::workload_specs;
use ct_instrument::CollectionAudit;
use ct_sim::MachineModel;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static GUARD: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn cache_contract_capacity_one_unbounded_and_replay() {
    let _guard = lock();
    let machines = vec![MachineModel::ivy_bridge(), MachineModel::westmere()];
    let workloads = ct_workloads::kernel_set(0.01);
    let workloads = workloads[..2].to_vec();
    let specs = workload_specs(&workloads);
    let opts = MethodOptions::fast();

    // Pair stream A A B A B B C C A over three distinct pairs:
    // A = (machine 0, workload 0), B = (0, 1), C = (1, 0).
    let pair = |m: usize, w: usize, seed: u64| {
        EvalRequest::new(&machines[m].name, &workloads[w].name, "classic", 1, seed)
    };
    let stream = vec![
        pair(0, 0, 1),
        pair(0, 0, 2),
        pair(0, 1, 3),
        pair(0, 0, 4),
        pair(0, 1, 5),
        pair(0, 1, 6),
        pair(1, 0, 7),
        pair(1, 0, 8),
        pair(0, 0, 9),
    ];
    // Distinct-consecutive-pair transitions, counting the first request:
    // A, B, A, B, C, A.
    let transitions = 6;
    let distinct = 3;

    // Capacity 1, one request at a time: every pair change evicts the
    // resident entry, so builds == transitions.
    let tiny = EvalService::new(&machines, &specs)
        .method_options(opts)
        .threads(2)
        .cache_capacity(1);
    let audit = CollectionAudit::begin();
    let mut tiny_out = String::new();
    for request in &stream {
        tiny_out.push_str(&tiny.serve_jsonl(std::slice::from_ref(request)));
    }
    assert_eq!(
        audit.collections(),
        transitions,
        "capacity-1 cache must rebuild on every distinct-pair transition"
    );
    assert_eq!(tiny.stats().builds, transitions);
    assert_eq!(tiny.stats().cache_hits, stream.len() as u64 - transitions);

    // Unbounded cache, same stream one at a time: builds == distinct pairs.
    let unbounded = EvalService::new(&machines, &specs)
        .method_options(opts)
        .threads(2);
    let audit = CollectionAudit::begin();
    let mut first_pass = String::new();
    for request in &stream {
        first_pass.push_str(&unbounded.serve_jsonl(std::slice::from_ref(request)));
    }
    assert_eq!(
        audit.collections(),
        distinct,
        "unbounded cache must build each pair exactly once"
    );

    // Replay: byte-identical responses, zero additional builds — and the
    // thrashing capacity-1 service produced the same bytes too (eviction
    // changes when work happens, not what a response contains).
    let replay_audit = CollectionAudit::begin();
    let mut second_pass = String::new();
    for request in &stream {
        second_pass.push_str(&unbounded.serve_jsonl(std::slice::from_ref(request)));
    }
    assert_eq!(
        first_pass, second_pass,
        "replayed stream must be byte-identical"
    );
    assert_eq!(replay_audit.collections(), 0, "replay must be fully cached");
    assert_eq!(
        tiny_out, first_pass,
        "cache capacity must not change responses"
    );
}

/// The acceptance run: a zipfian 500-request stream over the full
/// kernel catalog, served in batches of 64.
#[test]
fn zipfian_500_stream_hits_cache_and_is_thread_invariant() {
    let _guard = lock();
    let machines = MachineModel::paper_machines();
    let workloads = ct_workloads::kernel_set(0.01);
    let specs = workload_specs(&workloads);
    let opts = MethodOptions::fast();
    let stream = request_stream(
        &machines,
        &workloads,
        &opts,
        &StreamConfig {
            pattern: StreamPattern::Zipfian,
            requests: 500,
            seed: 1_000,
            runs: 1,
        },
    );
    assert_eq!(stream.len(), 500);
    let pairs = distinct_pairs(&stream) as u64;
    assert!(pairs <= (machines.len() * workloads.len()) as u64);

    let drive = |threads: usize| {
        let service = EvalService::new(&machines, &specs)
            .method_options(opts)
            .threads(threads);
        let audit = CollectionAudit::begin();
        let mut jsonl = String::new();
        for chunk in stream.chunks(64) {
            jsonl.push_str(&service.serve_jsonl(chunk));
        }
        (jsonl, service.stats(), audit.collections())
    };

    let (serial_out, serial_stats, serial_builds) = drive(1);
    let (parallel_out, parallel_stats, parallel_builds) = drive(8);

    assert_eq!(
        serial_out, parallel_out,
        "--threads 1 and --threads 8 must produce byte-identical JSONL"
    );
    assert_eq!(serial_out.lines().count(), 500);

    // The chunked intake serves the same 500-request stream off its
    // wire form and must agree byte for byte — at several thread counts
    // and chunk sizes.
    let wire = to_wire(&stream);
    for (threads, chunk) in [(1, 64), (8, 64), (4, 17), (8, 500)] {
        let service = EvalService::new(&machines, &specs)
            .method_options(opts)
            .threads(threads);
        let mut out = Vec::new();
        let pstats = service
            .serve_pipelined(
                wire.as_bytes(),
                &mut out,
                &PipelineOptions::new().chunk(chunk),
            )
            .expect("in-memory pipeline never hits I/O errors");
        assert_eq!(pstats.requests, 500);
        assert_eq!(pstats.parse_errors, 0);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            serial_out,
            "pipelined (threads {threads}, chunk {chunk}) \
             must be byte-identical to batched"
        );
        assert!(
            service.stats().hit_rate() > 0.8,
            "pipelined zipfian hit rate {:.3} must exceed 0.8",
            service.stats().hit_rate()
        );
    }

    for (label, stats, builds) in [
        ("serial", serial_stats, serial_builds),
        ("parallel", parallel_stats, parallel_builds),
    ] {
        assert!(
            stats.hit_rate() > 0.8,
            "{label}: zipfian hit rate {:.3} must exceed 0.8",
            stats.hit_rate()
        );
        assert_eq!(
            stats.errors, 0,
            "{label}: stream names only supported methods"
        );
        assert!(
            builds <= pairs,
            "{label}: {builds} reference builds exceed {pairs} distinct pairs"
        );
        assert_eq!(stats.requests, 500, "{label}");
    }
}

/// A spawned `serve` process, killed and reaped when dropped, so a
/// failing assertion never leaves a listener running. Its stderr pipe
/// stays open for the process's whole life.
struct ServeProcess {
    child: Child,
    stderr: BufReader<ChildStderr>,
}

impl ServeProcess {
    fn spawn(args: &[&str]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn the serve binary");
        let stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        Self { child, stderr }
    }

    /// The address from the first stderr line, `serve: listening on
    /// <addr>`.
    fn listening_addr(&mut self) -> SocketAddr {
        let mut line = String::new();
        self.stderr
            .read_line(&mut line)
            .expect("read serve's stderr");
        line.trim_end()
            .strip_prefix("serve: listening on ")
            .unwrap_or_else(|| panic!("unexpected first stderr line {line:?}"))
            .parse()
            .expect("a socket address")
    }

    /// Waits up to 60 s for the process to exit on its own, returning
    /// its exit code and everything it wrote to stderr.
    fn exit(&mut self) -> (Option<i32>, String) {
        let deadline = Instant::now() + Duration::from_secs(60);
        let status = loop {
            if let Some(status) = self.child.try_wait().expect("poll the serve process") {
                break status;
            }
            assert!(Instant::now() < deadline, "serve did not exit");
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut stderr = String::new();
        self.stderr
            .read_to_string(&mut stderr)
            .expect("read serve's stderr");
        (status.code(), stderr)
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A scratch directory removed when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("ct_serve_bin_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("temp paths are UTF-8")
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes one `.ctasm` + manifest pair: a counted loop of `n` trips
/// whose body adds `adds` instructions.
fn write_program(dir: &Path, file: &str, name: &str, n: u64, adds: usize) {
    std::fs::write(
        dir.join(format!("{file}.json")),
        format!(
            "{{\"name\": \"{name}\", \"class\": \"kernel\", \"source\": \"{file}.ctasm\", \
             \"scaled\": {{ \"N\": {{ \"base\": {n}, \"min\": 100 }} }} }}\n"
        ),
    )
    .unwrap();
    std::fs::write(
        dir.join(format!("{file}.ctasm")),
        format!(
            ".const N = {n}\n.func main\n    movi r1, N\ntop:\n{}    subi r1, r1, 1\n    brnz r1, top\n    halt\n.endfunc\n",
            "    addi r2, r2, 1\n".repeat(adds)
        ),
    )
    .unwrap();
}

#[test]
fn serve_binary_matches_an_offline_service_over_v1_and_v2_and_warm_restarts() {
    let _guard = lock();
    let root = TempDir::new("serve");
    let tenant_dir = root.0.join("lab");
    std::fs::create_dir_all(&tenant_dir).unwrap();
    write_program(&tenant_dir, "00_spin", "spin", 2_000_000, 1);
    write_program(&tenant_dir, "01_wide", "wide", 1_000_000, 5);
    let tenant_dir = tenant_dir.to_str().expect("temp paths are UTF-8");
    let snapshots = root.0.join("snapshots");
    let snapshots = snapshots.to_str().expect("temp paths are UTF-8");
    let args = [
        "--listen",
        "127.0.0.1:0",
        "--scale",
        "0.01",
        "--workload-dir",
        tenant_dir,
        "--snapshot-dir",
        snapshots,
    ];

    // Default-catalog and tenant requests in one stream.
    let ivy = "Ivy Bridge (Xeon E3-1265L)";
    let westmere = "Westmere (Xeon X5650)";
    let amd = "Magny-Cours (Opteron 6164 HE)";
    let requests = [
        EvalRequest::new(ivy, "callchain", "lbr", 1, 1),
        EvalRequest::new(westmere, "spin", "classic", 1, 2).in_catalog("lab"),
        EvalRequest::new(amd, "test40", "precise", 2, 3),
        EvalRequest::new(ivy, "wide", "precise+fix", 1, 4).in_catalog("lab"),
        EvalRequest::new(westmere, "mcf", "classic", 1, 5),
    ];
    let wire = to_wire(&requests);
    let halves = [
        to_wire(&requests.iter().step_by(2).cloned().collect::<Vec<_>>()),
        to_wire(
            &requests
                .iter()
                .skip(1)
                .step_by(2)
                .cloned()
                .collect::<Vec<_>>(),
        ),
    ];

    // The offline service `serve` builds from the same flags.
    let machines = MachineModel::paper_machines();
    let workloads = ct_workloads::all(0.01);
    let offline = EvalService::new(&machines, &workload_specs(&workloads))
        .workload_dir(tenant_dir, 0.01)
        .expect("well-formed tenant directory");
    let expected = |wire: &str| {
        let mut out = Vec::new();
        offline
            .serve_pipelined(wire.as_bytes(), &mut out, &PipelineOptions::default())
            .expect("in-memory pipeline never hits I/O errors");
        String::from_utf8(out).expect("responses are UTF-8")
    };
    let expected_v1 = expected(&wire);
    let expected_v2: Vec<String> = halves.iter().map(|half| expected(half)).collect();
    assert_eq!(expected_v1.lines().count(), requests.len());
    assert!(!expected_v1.contains("\"error\":\""), "{expected_v1}");

    let mut cold = ServeProcess::spawn(&args);
    let addr = cold.listening_addr();
    assert_eq!(exchange(addr, &wire).expect("v1 exchange"), expected_v1);
    assert_eq!(
        exchange_v2(addr, &halves).expect("v2 exchange"),
        expected_v2
    );
    drop(cold);

    let written = std::fs::read_dir(snapshots)
        .expect("the snapshot directory exists")
        .count();
    assert!(written > 0, "cold builds write snapshots behind");

    let mut warm = ServeProcess::spawn(&args);
    let addr = warm.listening_addr();
    assert_eq!(exchange(addr, &wire).expect("v1 exchange"), expected_v1);
    assert_eq!(
        exchange_v2(addr, &halves).expect("v2 exchange"),
        expected_v2
    );
}

#[test]
fn serve_binary_rejects_a_bad_command_line_with_status_2() {
    let root = TempDir::new("reject");
    std::fs::write(root.0.join("00_bad.json"), "{ not json").unwrap();
    for args in [
        &["--listen", "127.0.0.1:0", "--snapshot-dri", "snaps"][..],
        &["--scale", "0.01"],
        &["--listen", "127.0.0.1:0", "--scale", "0"],
        &[
            "--listen",
            "127.0.0.1:0",
            "--scale",
            "0.01",
            "--workload-dir",
            root.path(),
        ],
    ] {
        let (code, stderr) = ServeProcess::spawn(args).exit();
        assert_eq!(code, Some(2), "serve {args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "serve {args:?}: {stderr}");
        assert!(stderr.starts_with("serve: "), "serve {args:?}: {stderr}");
    }
}
