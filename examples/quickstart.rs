//! Quickstart: profile a small kernel with two sampling methods and
//! compare their accuracy against instrumented ground truth.
//!
//! ```text
//! cargo run --release -p countertrust --example quickstart
//! ```

use countertrust::methods::{MethodKind, MethodOptions};
use countertrust::Session;
use ct_isa::asm::assemble;
use ct_sim::MachineModel;

fn main() {
    // 1. A workload: assemble it from `.ctasm` text, the one way a
    //    program is written (the ct-workloads catalog is such files).
    let program = assemble(
        "quickstart",
        r#"
        .func main
            movi r1, 300000
            movi r4, 3
        top:
            andi r2, r1, 1
            brz r2, even
            div r3, r3, r4      ; long-latency path
            nop
            jmp next
        even:
            add r3, r3, r4
            nop
            nop
        next:
            addi r5, r5, 1
            subi r1, r1, 1
            brnz r1, top
            halt
        .endfunc
        "#,
    )
    .expect("valid assembly");

    // 2. A machine: the paper's Ivy Bridge (PEBS + PDIR + LBR).
    let machine = MachineModel::ivy_bridge();

    // 3. A session binds machine and program, and lazily collects the
    //    exact reference profile (the paper's Pin "REF" run).
    let mut session = Session::new(&machine, &program);
    let total = session
        .reference()
        .expect("reference run")
        .total_instructions();
    println!("workload retired {total} instructions\n");

    // 4. Run sampling methods and compare.
    let opts = MethodOptions::default();
    println!("{:<22} {:>10} {:>9}", "method", "samples", "error");
    for kind in [
        MethodKind::Classic,
        MethodKind::PrecisePrime,
        MethodKind::PreciseFix,
        MethodKind::Lbr,
    ] {
        let inst = kind
            .instantiate(&machine, &opts)
            .expect("supported on Ivy Bridge");
        let run = session.run_method(&inst, 42).expect("profiling run");
        println!(
            "{:<22} {:>10} {:>8.2}%",
            kind.label(),
            run.samples,
            run.accuracy_error * 100.0
        );
    }
    println!(
        "\nLower is better; the error is sum |BB_est - BB_ref| / instructions (§3.3 \
         of the paper). Classic sampling mis-attributes the div's shadow; the \
         LBR stack walk reconstructs basic-block counts almost exactly."
    );
}
