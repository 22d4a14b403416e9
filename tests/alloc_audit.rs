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
//!   nothing scales with the instruction stream).
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
use ct_isa::asm::assemble;
use ct_isa::Program;
use ct_sim::alloc_audit::AllocSnapshot;
use ct_sim::{Cpu, MachineModel, RunConfig};
use std::sync::Mutex;

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
