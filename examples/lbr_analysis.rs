//! LBR anatomy: capture one sample's frozen Last Branch Record stack,
//! print its entries, walk the §3.2 segments, and show the reconstructed
//! basic blocks — the machinery behind the paper's most accurate method.
//!
//! ```text
//! cargo run --release -p countertrust --example lbr_analysis
//! ```

use countertrust::lbrwalk::{credit_stack, segments};
use countertrust::methods::{MethodKind, MethodOptions};
use ct_isa::Cfg;
use ct_pmu::Sampler;
use ct_sim::{Cpu, MachineModel, RunConfig};

fn main() {
    let program = ct_workloads::by_name("g4box", 5_000)
        .expect("g4box is a built-in workload")
        .program;
    let machine = MachineModel::ivy_bridge();
    let cfg = Cfg::build(&program);

    let inst = MethodKind::Lbr
        .instantiate(&machine, &MethodOptions::default())
        .expect("LBR available on Ivy Bridge");
    let mut sampler = Sampler::new(&machine, &inst.config).expect("valid config");
    let nominal = sampler.nominal_period();
    Cpu::new(&machine)
        .run(&program, &RunConfig::default(), &mut [&mut sampler])
        .expect("run");
    let batch = sampler.into_batch();
    println!(
        "collected {} LBR samples (taken-branch period {nominal})\n",
        batch.len()
    );

    let sample = &batch.samples[batch.len() / 2];
    let lbr = sample.lbr.as_ref().expect("LBR attached");
    println!("one frozen 16-entry stack (oldest first):");
    println!("{:>4}  {:>8} -> {:<8}", "#", "from", "to");
    for (i, e) in lbr.iter().enumerate() {
        println!("{i:>4}  {:>8} -> {:<8}", e.from, e.to);
    }

    let segs = segments(lbr);
    println!(
        "\n{} straight-line segments between consecutive entries:",
        segs.len()
    );
    for s in &segs {
        let nblocks = cfg.block_of(s.end) - cfg.block_of(s.start) + 1;
        println!(
            "  [{:>5}, {:>5}]  ({} instructions, {} basic blocks, each executed exactly once)",
            s.start,
            s.end,
            s.end - s.start + 1,
            nblocks,
        );
    }

    // Accumulate all stacks into per-block estimated instruction counts.
    let mut bb_mass = vec![0.0; cfg.num_blocks()];
    for s in &batch.samples {
        if let Some(lbr) = &s.lbr {
            credit_stack(lbr, &cfg, nominal, &mut bb_mass);
        }
    }
    let reference = ct_instrument::ReferenceProfile::collect(&program, &RunConfig::default())
        .expect("reference");
    println!("\nhottest blocks, estimated vs exact instruction counts:");
    println!(
        "{:>6} {:>12} {:>12} {:>8}",
        "block", "estimated", "exact", "len"
    );
    let scale: f64 = reference.total_instructions() as f64 / bb_mass.iter().sum::<f64>();
    let mut order: Vec<usize> = (0..bb_mass.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(reference.bb_instructions[i]));
    for &i in order.iter().take(10) {
        println!(
            "{:>6} {:>12.0} {:>12} {:>8}",
            i,
            bb_mass[i] * scale,
            reference.bb_instructions[i],
            cfg.block(i as u32).len(),
        );
    }
}
