//! Property-based tests for the serving layer: for arbitrary request
//! streams and cache capacities, responses depend only on the requests —
//! never on worker-thread count, batch decomposition, chunk size or
//! cache eviction order — and a served batch never performs more
//! reference collections than the number of distinct
//! `(machine, workload)` pairs it touches.
//!
//! The reference-collection counter is process-global, so the audited
//! properties serialize on [`GUARD`] (this file owns its whole test
//! binary — see `crates/core/Cargo.toml`).

use countertrust::grid::WorkloadSpec;
use countertrust::methods::{MethodKind, MethodOptions};
use countertrust::serve::{EvalRequest, EvalService, PipelineOptions, DEFAULT_CATALOG};
use ct_instrument::CollectionAudit;
use ct_isa::asm::assemble;
use ct_isa::Program;
use ct_sim::{MachineModel, RunConfig};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Mutex;

static GUARD: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn loop_kernel(iters: u64) -> Program {
    assemble(
        "k",
        &format!(
            r#"
            .func main
                movi r1, {iters}
            top:
                addi r2, r2, 1
                subi r1, r1, 1
                brnz r1, top
                halt
            .endfunc
        "#
        ),
    )
    .unwrap()
}

fn call_kernel(iters: u64) -> Program {
    assemble(
        "c",
        &format!(
            r#"
            .func main
                movi r1, {iters}
            top:
                call leaf
                subi r1, r1, 1
                brnz r1, top
                halt
            .endfunc
            .func leaf
                addi r3, r3, 1
                addi r4, r4, 1
                ret
            .endfunc
        "#
        ),
    )
    .unwrap()
}

/// A generated request: catalog indices plus measurement shape, turned
/// into names against the fixed two-machine, two-workload catalog.
type RawRequest = (usize, usize, usize, usize, u64);

fn materialize(raw: &[RawRequest], machines: &[MachineModel], names: [&str; 2]) -> Vec<EvalRequest> {
    raw.iter()
        .map(|&(m, w, k, runs, seed)| EvalRequest {
            machine: machines[m].name.clone(),
            workload: names[w].to_string(),
            method: MethodKind::ALL[k].label().to_string(),
            runs,
            seed,
            // A seed-derived third of the stream names the default
            // catalog explicitly: registry resolution (explicit or
            // implicit default) must be as invariant as everything else.
            catalog: (seed % 3 == 0).then(|| DEFAULT_CATALOG.to_string()),
        })
        .collect()
}

fn distinct_pairs(raw: &[RawRequest]) -> u64 {
    raw.iter()
        .map(|&(m, w, ..)| (m, w))
        .collect::<HashSet<_>>()
        .len() as u64
}

/// The stream's JSON-lines wire form, as pipelined intake reads it
/// (mirrors `ct_bench::streams::to_wire`; this test binary is wired
/// into countertrust, which cannot depend on ct-bench).
fn to_wire(requests: &[EvalRequest]) -> String {
    requests
        .iter()
        .map(|r| serde_json::to_string(r).unwrap() + "\n")
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Identical streams, served as one batch, produce byte-identical
    /// JSONL for every thread count and cache capacity — and no service
    /// collects more references than the stream touches pairs. The
    /// chunked intake agrees byte for byte at any chunk size.
    #[test]
    fn serve_is_invariant_under_threads_and_capacity(
        raw in prop::collection::vec((0usize..2, 0usize..2, 0usize..7, 1usize..=2, 0u64..1_000), 1..8),
        capacity in 1usize..=8,
        chunk in 1usize..=5,
    ) {
        let _guard = lock();
        let program_a = loop_kernel(6_000);
        let program_b = call_kernel(1_500);
        let run_config = RunConfig::default();
        let workloads = [
            WorkloadSpec { name: "loop", program: &program_a, run_config: &run_config },
            WorkloadSpec { name: "call", program: &program_b, run_config: &run_config },
        ];
        // Two Intel machines: every method family resolves on both, so
        // arbitrary method indices stay error-free.
        let machines = [MachineModel::ivy_bridge(), MachineModel::westmere()];
        let requests = materialize(&raw, &machines, ["loop", "call"]);
        let pairs = distinct_pairs(&raw);
        let opts = MethodOptions::fast();

        let mut outputs = Vec::new();
        for (threads, cap) in [(1, capacity), (5, capacity), (3, 0)] {
            let service = EvalService::new(&machines, &workloads)
                .method_options(opts)
                .threads(threads)
                .cache_capacity(cap);
            let audit = CollectionAudit::begin();
            outputs.push(service.serve_jsonl(&requests));
            prop_assert!(
                audit.collections() <= pairs,
                "one batch: {} collections for {} distinct pairs (threads {}, capacity {})",
                audit.collections(), pairs, threads, cap
            );
            prop_assert_eq!(service.stats().errors, 0);
        }
        prop_assert_eq!(&outputs[0], &outputs[1], "thread count changed responses");
        prop_assert_eq!(&outputs[0], &outputs[2], "cache capacity changed responses");

        // The chunked intake reads the same stream off the wire and
        // must emit the very same bytes, whatever its decomposition.
        let pipelined = EvalService::new(&machines, &workloads)
            .method_options(opts)
            .threads(2)
            .cache_capacity(capacity);
        let mut piped = Vec::new();
        let pstats = pipelined
            .serve_pipelined(
                to_wire(&requests).as_bytes(),
                &mut piped,
                &PipelineOptions::new().chunk(chunk),
            )
            .expect("in-memory pipeline never hits I/O errors");
        prop_assert_eq!(pstats.requests as usize, requests.len());
        prop_assert_eq!(pstats.parse_errors, 0);
        prop_assert_eq!(
            &String::from_utf8(piped).unwrap(), &outputs[0],
            "pipelining (chunk {}) changed responses", chunk
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The heavier tier (CI runs it via `--include-ignored`): batch
    /// decomposition — one batch, per-request calls on a thrashing
    /// capacity-1 cache, chunked batches, or the chunked intake on a
    /// capacity-1 cache — never changes responses, and every
    /// batched decomposition respects the per-batch collection bound.
    #[test]
    #[ignore = "heavier property tier, exercised by the CI --include-ignored step"]
    fn serve_is_invariant_under_batch_decomposition(
        raw in prop::collection::vec((0usize..2, 0usize..2, 0usize..7, 1usize..=2, 0u64..1_000), 1..14),
        capacity in 1usize..=8,
        chunk in 1usize..=5,
    ) {
        let _guard = lock();
        let program_a = loop_kernel(6_000);
        let program_b = call_kernel(1_500);
        let run_config = RunConfig::default();
        let workloads = [
            WorkloadSpec { name: "loop", program: &program_a, run_config: &run_config },
            WorkloadSpec { name: "call", program: &program_b, run_config: &run_config },
        ];
        let machines = [MachineModel::ivy_bridge(), MachineModel::westmere()];
        let requests = materialize(&raw, &machines, ["loop", "call"]);
        let pairs = distinct_pairs(&raw);
        let opts = MethodOptions::fast();

        let whole = EvalService::new(&machines, &workloads)
            .method_options(opts)
            .threads(4)
            .cache_capacity(capacity);
        let audit = CollectionAudit::begin();
        let whole_out = whole.serve_jsonl(&requests);
        prop_assert!(audit.collections() <= pairs);

        let one_by_one = EvalService::new(&machines, &workloads)
            .method_options(opts)
            .threads(2)
            .cache_capacity(1);
        let mut single_out = String::new();
        for request in &requests {
            single_out.push_str(&one_by_one.serve_jsonl(std::slice::from_ref(request)));
        }

        let chunked = EvalService::new(&machines, &workloads)
            .method_options(opts)
            .threads(8)
            .cache_capacity(capacity);
        let mut chunked_out = String::new();
        for batch in requests.chunks(chunk) {
            chunked_out.push_str(&chunked.serve_jsonl(batch));
        }

        // A thrashing-prone pipeline: tiny chunks, capacity-1 cache.
        let piped_service = EvalService::new(&machines, &workloads)
            .method_options(opts)
            .threads(4)
            .cache_capacity(1);
        let mut piped = Vec::new();
        piped_service
            .serve_pipelined(
                to_wire(&requests).as_bytes(),
                &mut piped,
                &PipelineOptions::new().chunk(chunk),
            )
            .expect("in-memory pipeline never hits I/O errors");

        prop_assert_eq!(&whole_out, &single_out, "per-request serving changed responses");
        prop_assert_eq!(&whole_out, &chunked_out, "batch chunking changed responses");
        prop_assert_eq!(
            &whole_out, &String::from_utf8(piped).unwrap(),
            "pipelining on a capacity-1 cache changed responses"
        );
        prop_assert_eq!(whole_out.lines().count(), requests.len());
    }
}
