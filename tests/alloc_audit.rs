//! Allocation audit of the hot paths (feature `alloc_audit`).
//!
//! With the counting global allocator installed
//! ([`ct_sim::alloc_audit`]), these tests prove the PR-9 steady-state
//! claims directly:
//!
//! * a retained [`Cpu`] replays a program with **zero** heap
//!   allocations once its scratch tables are warm;
//! * the batched and pipelined serve paths allocate a vanishing amount
//!   per retired instruction (per-response bookkeeping exists, but
//!   nothing scales with the instruction stream);
//! * an untimed reference collection allocates the same at 10 k and at
//!   100 k loop trips: its tables follow the program, not the run;
//! * the assembler, the front end for tenant-supplied `.ctasm`, requests
//!   bytes linear in its source plus the `.init` words it lays out, and
//!   refuses `.init` fills past its bound before allocating them.
//!
//! Each test measures a delta around its own steady-state section. The
//! two exact-zero interpreter audits count the calling thread only:
//! `Cpu::run` spawns no threads, so that count is the whole interpreter,
//! and allocations the test harness makes on other threads stay out of
//! the window. The serve audits run worker threads and count
//! process-wide, so every test also serializes behind one lock.

use countertrust::grid::WorkloadSpec;
use countertrust::methods::MethodOptions;
use countertrust::serve::{EvalRequest, EvalService, PipelineOptions};
use ct_instrument::ReferenceProfile;
use ct_isa::asm::{assemble, MAX_DATA_WORDS};
use ct_isa::{Cfg, IsaError, Program};
use ct_sim::alloc_audit::AllocSnapshot;
use ct_sim::{Cpu, MachineModel, RunConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::Mutex;

#[path = "../crates/isa/tests/support/mutate.rs"]
mod mutate;

/// Serializes every measured section, so a concurrently running test
/// cannot leak its allocations into another test's window.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

/// The session-test kernel: 2 + 30_000 × 5 = 150_002 retired
/// instructions per run.
const KERNEL_INSTRUCTIONS: u64 = 150_002;

fn kernel() -> Program {
    assemble(
        "k",
        r#"
        .func main
            movi r1, 30000
        top:
            addi r2, r2, 1
            addi r3, r3, 1
            addi r4, r4, 1
            subi r1, r1, 1
            brnz r1, top
            halt
        .endfunc
    "#,
    )
    .unwrap()
}

#[test]
fn retained_cpu_replays_without_allocating() {
    let guard = EXCLUSIVE.lock().unwrap();
    let machine = MachineModel::ivy_bridge();
    let program = kernel();
    let config = RunConfig::default();
    let mut cpu = Cpu::new(&machine);
    // Warm-up: the first run sizes every scratch table (decode buffer,
    // data memory, cache ways, predictor tables, call stack).
    let warm = cpu.run(&program, &config, &mut []).unwrap();

    let before = AllocSnapshot::now();
    for _ in 0..10 {
        let replay = cpu.run(&program, &config, &mut []).unwrap();
        assert_eq!(replay, warm, "replays are bit-identical");
    }
    let after = AllocSnapshot::now();
    drop(guard);

    assert_eq!(
        after.thread_allocations_since(&before),
        0,
        "a warm interpreter must not touch the heap ({} retired instructions replayed)",
        10 * KERNEL_INSTRUCTIONS
    );
}

#[test]
fn retained_cpu_swapping_programs_settles_allocation_free() {
    let guard = EXCLUSIVE.lock().unwrap();
    let machine = MachineModel::westmere();
    let a = kernel();
    let b = assemble(
        "b",
        ".func main\n movi r1, 5000\ntop:\n addi r2, r2, 1\n subi r1, r1, 1\n brnz r1, top\n halt\n.endfunc",
    )
    .unwrap();
    let config = RunConfig::default();
    let mut cpu = Cpu::new(&machine);
    // Warm-up on both programs: after one pass each, the scratch
    // tables hold the larger of the two shapes.
    cpu.run(&a, &config, &mut []).unwrap();
    cpu.run(&b, &config, &mut []).unwrap();
    cpu.run(&a, &config, &mut []).unwrap();

    let before = AllocSnapshot::now();
    for _ in 0..5 {
        cpu.run(&a, &config, &mut []).unwrap();
        cpu.run(&b, &config, &mut []).unwrap();
    }
    let after = AllocSnapshot::now();
    drop(guard);

    assert_eq!(
        after.thread_allocations_since(&before),
        0,
        "alternating warm programs must not reallocate scratch"
    );
}

/// Allocations of one reference collection (the untimed pass plus the
/// profile it folds) over a counted loop of `trips` iterations, counted
/// on the calling thread.
fn reference_allocations(trips: u64) -> u64 {
    let program = assemble(
        "trips",
        &format!(
            ".func main\n movi r1, {trips}\ntop:\n addi r2, r2, 1\n subi r1, r1, 1\n brnz r1, top\n halt\n.endfunc"
        ),
    )
    .unwrap();
    let cfg = Cfg::build(&program);
    let config = RunConfig::default();
    let before = AllocSnapshot::now();
    let (reference, _) = ReferenceProfile::collect_with_cfg(&program, &cfg, &config).unwrap();
    let after = AllocSnapshot::now();
    assert_eq!(reference.total_instructions, 2 + 3 * trips);
    after.thread_allocations_since(&before)
}

#[test]
fn untimed_reference_allocation_does_not_grow_with_the_run() {
    let guard = EXCLUSIVE.lock().unwrap();
    let short = reference_allocations(10_000);
    let long = reference_allocations(100_000);
    drop(guard);
    assert_eq!(
        short, long,
        "a reference over 10x the retired instructions must allocate the same"
    );
}

/// Shared serve-path audit: warms the service, then measures the
/// allocation delta of `steady` and bounds it per retired instruction.
fn audit_serve(label: &str, steady: impl FnOnce(&EvalService, &[EvalRequest])) {
    let guard = EXCLUSIVE.lock().unwrap();
    let machines = [MachineModel::ivy_bridge()];
    let program = kernel();
    let run_config = RunConfig::default();
    let specs = [WorkloadSpec {
        name: "k",
        program: &program,
        run_config: &run_config,
    }];
    let service = EvalService::new(&machines, &specs)
        .method_options(MethodOptions::fast())
        .threads(1);
    let requests: Vec<EvalRequest> = (0..16)
        .map(|i| EvalRequest::new(&machines[0].name, "k", "classic", 1, i))
        .collect();
    // Warm-up: builds the reference profile and sizes every reusable
    // buffer on the serve path.
    let _ = service.serve_jsonl(&requests);

    let before = AllocSnapshot::now();
    steady(&service, &requests);
    let after = AllocSnapshot::now();
    drop(guard);

    // Each request evaluates one method run over the kernel; the
    // reference is cached, so the steady-state work is ≥ 16 runs ×
    // 150_002 retired instructions. Per-response bookkeeping (samples,
    // profiles, response JSON trees) allocates, but nothing may scale
    // with the instruction stream.
    let instructions = requests.len() as u64 * KERNEL_INSTRUCTIONS;
    let allocs = after.allocations_since(&before);
    let per_insn = allocs as f64 / instructions as f64;
    assert!(
        per_insn < 0.01,
        "{label}: {allocs} allocations over {instructions} retired instructions \
         ({per_insn:.5} per instruction) — something allocates per instruction"
    );
}

#[test]
fn batched_serve_allocates_nothing_per_retired_instruction() {
    audit_serve("batched", |service, requests| {
        let _ = service.serve_jsonl(requests);
    });
}

#[test]
fn pipelined_serve_allocates_nothing_per_retired_instruction() {
    audit_serve("pipelined", |service, requests| {
        let stream: String = requests
            .iter()
            .map(|r| serde_json::to_string(r).unwrap() + "\n")
            .collect();
        let mut out = Vec::new();
        service
            .serve_pipelined(stream.as_bytes(), &mut out, &PipelineOptions::default())
            .unwrap();
        assert!(!out.is_empty());
    });
}

/// Assembles `source`, returning the bytes requested process-wide while
/// it ran (the caller holds [`EXCLUSIVE`]).
fn assembly_bytes(source: &str) -> (u64, Result<Program, IsaError>) {
    let before = AllocSnapshot::now();
    let result = assemble("audit", source);
    (AllocSnapshot::now().bytes - before.bytes, result)
}

#[test]
fn init_words_are_bounded_across_lines_before_any_fill() {
    let _guard = EXCLUSIVE.lock().unwrap();
    // Each fill alone is within the bound: 2^24 words of 16 bytes.
    let source = |fills| {
        format!(".init 0..{MAX_DATA_WORDS}, 1\n").repeat(fills) + ".func main\n halt\n.endfunc\n"
    };
    let (one_fill, program) = assembly_bytes(&source(1));
    assert_eq!(program.map(|p| p.init_data.len()), Ok(MAX_DATA_WORDS));
    for fills in [2, 4] {
        // Refused at the second fill, before it runs: no more bytes than
        // one fill, plus parsing the extra lines.
        let (bytes, result) = assembly_bytes(&source(fills));
        let error = IsaError::DataTooLarge {
            line: 2,
            words: 2 * MAX_DATA_WORDS,
            limit: MAX_DATA_WORDS,
        };
        assert_eq!(result.map(|p| p.init_data.len()), Err(error));
        assert!(
            bytes <= one_fill + 4096,
            "{fills} fills: {bytes} bytes, one: {one_fill}"
        );
    }
}

#[test]
fn assembling_mutated_catalog_sources_requests_bytes_linear_in_the_source() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../workloads/programs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    paths.retain(|path| path.extension().is_some_and(|e| e == "ctasm"));
    paths.sort();
    assert_eq!(paths.len(), 9, "the nine catalog workloads");
    let mut rng = SmallRng::seed_from_u64(0xC7A5);
    let _guard = EXCLUSIVE.lock().unwrap();
    for path in paths {
        let source = std::fs::read_to_string(path).unwrap();
        for _ in 0..200 {
            let mut r = |n: usize| rng.gen_range(0..n);
            let edits: Vec<mutate::Edit> = (0..1 + r(4))
                .map(|_| (r(5) as u8, r(1 << 16), r(mutate::ALPHABET.len()), 1 + r(31)))
                .collect();
            let mutant = mutate::mutate(&source, &edits);
            let (bytes, result) = assembly_bytes(&mutant);
            let init_words = result.map_or(0, |p| p.init_data.len()) as u64;
            // The unmutated sources request 2.4–7.8 bytes per source
            // byte. A `.init` word takes 16 bytes, and a Vec that doubles
            // requests at most four times its final length in all.
            assert!(
                bytes <= 32 * mutant.len() as u64 + 4 * 16 * init_words + 4096,
                "{bytes} bytes for {init_words} .init words and source:\n{mutant}"
            );
        }
    }
}
