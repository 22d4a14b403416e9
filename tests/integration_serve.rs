//! Serving-layer guarantees: the profile-cache contract (capacity-1
//! thrashes by transitions, unbounded builds once per pair, replays are
//! byte-identical) and the headline acceptance run — a zipfian
//! 500-request stream served with >80% cache hit rate and byte-identical
//! output for 1 vs 8 worker threads.
//!
//! The reference-collection counter is process-global, so the audited
//! tests serialize on [`GUARD`] (this file owns its whole test binary —
//! see `crates/bench/Cargo.toml`).

use countertrust::methods::MethodOptions;
use countertrust::serve::{EvalRequest, EvalService, PipelineOptions};
use ct_bench::streams::{distinct_pairs, request_stream, to_wire, StreamConfig, StreamPattern};
use ct_bench::workload_specs;
use ct_instrument::CollectionAudit;
use ct_sim::MachineModel;
use std::sync::Mutex;

static GUARD: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
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
    assert_eq!(first_pass, second_pass, "replayed stream must be byte-identical");
    assert_eq!(replay_audit.collections(), 0, "replay must be fully cached");
    assert_eq!(tiny_out, first_pass, "cache capacity must not change responses");
}

/// The acceptance run from the issue: a zipfian 500-request stream over
/// the full kernel catalog, batched as `serve_bench` batches it.
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
        assert_eq!(stats.errors, 0, "{label}: stream names only supported methods");
        assert!(
            builds <= pairs,
            "{label}: {builds} reference builds exceed {pairs} distinct pairs"
        );
        assert_eq!(stats.requests, 500, "{label}");
    }
}
