//! Grid-engine guarantees: parallel evaluation is byte-identical to
//! serial, and the reference profile is collected exactly once per
//! workload no matter how many machines and method cells consume it.

use countertrust::grid::{GridRunner, WorkloadSpec};
use countertrust::methods::MethodOptions;
use countertrust::report;
use ct_sim::MachineModel;
use ct_workloads::Workload;

fn specs(workloads: &[Workload]) -> Vec<WorkloadSpec<'_>> {
    workloads
        .iter()
        .map(|w| WorkloadSpec {
            name: &w.name,
            program: &w.program,
            run_config: &w.run_config,
        })
        .collect()
}

/// The headline determinism-and-sharing contract. Everything runs inside
/// one test function: the reference-collection counter is process-global,
/// so concurrent test functions would race its deltas.
#[test]
fn grid_is_thread_count_invariant_and_shares_references() {
    let workloads = ct_workloads::kernel_set(0.02);
    let workloads = &workloads[..2];
    let machines = MachineModel::paper_machines();
    let opts = MethodOptions::fast();
    let references = workloads.len() as u64;

    let before_serial = ct_instrument::collection_count();
    let serial =
        GridRunner::new()
            .threads(1)
            .run_standard(&machines, &specs(workloads), &opts, 3, 1_000);
    let after_serial = ct_instrument::collection_count();
    assert_eq!(
        after_serial - before_serial,
        references,
        "serial grid must collect one reference per workload"
    );

    let parallel =
        GridRunner::new()
            .threads(8)
            .run_standard(&machines, &specs(workloads), &opts, 3, 1_000);
    let after_parallel = ct_instrument::collection_count();
    assert_eq!(
        after_parallel - after_serial,
        references,
        "parallel grid must collect one reference per workload"
    );

    // Byte-identical JSON: the full evaluation tree (per-run errors,
    // sample counts, skid) agrees exactly, not just summary statistics.
    assert_eq!(
        report::to_json(&serial),
        report::to_json(&parallel),
        "1-thread and 8-thread grids must serialize identically"
    );

    // Different base seeds must still change randomized methods (the
    // derived cell seeds are not constants).
    let reseeded =
        GridRunner::new()
            .threads(8)
            .run_standard(&machines, &specs(workloads), &opts, 3, 2_000);
    assert_ne!(
        report::to_json(&serial),
        report::to_json(&reseeded),
        "base seed must reach the per-cell seeds"
    );

    // Output shape of the standard grid: machine-major rows, AMD with
    // fewer method columns (no LBR-based methods), in registry order.
    let intel_row = serial
        .iter()
        .find(|e| e.machine.contains("Ivy"))
        .expect("Ivy Bridge rows present");
    let amd_row = serial
        .iter()
        .find(|e| e.machine.contains("Magny"))
        .expect("Magny-Cours rows present");
    assert!(amd_row.methods.len() < intel_row.methods.len());
    assert_eq!(serial.len(), machines.len() * workloads.len());
    assert_eq!(serial[0].machine, machines[0].name);
    assert_eq!(serial[0].workload, workloads[0].name);
}
