//! Property-based tests for the evaluation layer: the LBR stack-walk
//! estimator conserves instruction mass, the accuracy metric is a proper
//! normalized distance, and rank metrics stay in range.

use countertrust::methods::{MethodKind, MethodOptions};
use countertrust::metrics::{accuracy_error, kendall_tau};
use countertrust::Session;
use ct_isa::asm;
use ct_sim::MachineModel;
use proptest::prelude::*;
use std::fmt::Write as _;

/// A branchy, always-terminating program: a counted loop over a chain of
/// conditional skips (so LBR stacks contain varied segments).
fn branchy_program(iters: u32, arms: u8) -> ct_isa::Program {
    let mut arms_src = String::new();
    for k in 0..arms {
        let _ = write!(
            arms_src,
            "    movi r3, {}\n    shr r4, r10, r3\n    andi r4, r4, 1\n    brz r4, skip{k}\n    addi r5, r5, 1\n    addi r6, r6, 1\nskip{k}:\n",
            40 + k
        );
    }
    let source = format!(
        r"
.func main
    movi r1, {iters}
    movi r10, 0x9E3779B9
top:
    ; Cheap LCG for branch variety.
    muli r10, r10, 6364136223846793005
    addi r10, r10, 1442695040888963407
{arms_src}    subi r1, r1, 1
    brnz r1, top
    halt
.endfunc
"
    );
    asm::assemble("prop", &source).expect("valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lbr_walk_conserves_mass_and_bounds_error(
        iters in 2_000u32..8_000,
        arms in 1u8..6,
    ) {
        let program = branchy_program(iters, arms);
        let machine = MachineModel::ivy_bridge();
        let mut session = Session::new(&machine, &program);
        let total = session.reference().unwrap().total_instructions() as f64;
        let inst = MethodKind::Lbr
            .instantiate(&machine, &MethodOptions::fast())
            .unwrap();
        let run = session.run_method(&inst, 17).unwrap();
        prop_assert!(run.samples > 5);
        // Mass conservation in expectation: the walk's total estimated
        // instruction mass lands within 40% of the true total (each stack
        // witnesses ~16 branch intervals of a `period`-branch window).
        let est_total: f64 = run.profile.bb_mass.iter().sum();
        let ratio = est_total / total;
        prop_assert!(
            (0.6..1.4).contains(&ratio),
            "mass ratio {ratio:.3} (est {est_total}, true {total})"
        );
        prop_assert!((0.0..=2.0).contains(&run.accuracy_error));
    }

    #[test]
    fn accuracy_error_is_a_normalized_distance(
        reference in prop::collection::vec(0u64..10_000, 1..40),
        noise in prop::collection::vec(0.0f64..5_000.0, 1..40),
    ) {
        let n = reference.len().min(noise.len());
        let reference = &reference[..n];
        let noise = &noise[..n];
        // Identity: zero distance to itself.
        let exact: Vec<f64> = reference.iter().map(|&x| x as f64).collect();
        prop_assert!(accuracy_error(&exact, reference).abs() < 1e-9);
        // Any estimate stays within [0, 2].
        let e = accuracy_error(noise, reference);
        prop_assert!((0.0..=2.0 + 1e-9).contains(&e));
        // Scale invariance of the estimate.
        let scaled: Vec<f64> = noise.iter().map(|x| x * 3.7).collect();
        let e2 = accuracy_error(&scaled, reference);
        prop_assert!((e - e2).abs() < 1e-6, "scale changed error: {e} vs {e2}");
    }

    #[test]
    fn kendall_tau_is_bounded_and_reflexive(
        items in prop::collection::vec(0u32..1000, 2..20),
    ) {
        let mut unique = items.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assume!(unique.len() >= 2);
        prop_assert!((kendall_tau(&unique, &unique) - 1.0).abs() < 1e-9);
        let reversed: Vec<u32> = unique.iter().rev().copied().collect();
        prop_assert!((kendall_tau(&unique, &reversed) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn ip_fix_recovers_the_exact_trigger_for_pdir(
        iters in 2_000u32..20_000,
        arms in 1u8..6,
    ) {
        // §6.2's fix, applied to PDIR samples, must undo the IP+1 artifact
        // perfectly: the LBR top entry resolves taken-branch boundaries
        // and sequential-minus-one resolves everything else. This is the
        // sample-level guarantee behind the fix column's Table 1/2 wins.
        use countertrust::attrib::corrected_ip;
        use ct_pmu::Sampler;
        use ct_sim::{Cpu, RunConfig};

        let program = branchy_program(iters, arms);
        let machine = MachineModel::ivy_bridge();
        let inst = MethodKind::PreciseFix
            .instantiate(&machine, &MethodOptions::fast())
            .unwrap();
        let mut sampler = Sampler::new(&machine, &inst.config).unwrap();
        Cpu::new(&machine)
            .run(&program, &RunConfig::default(), &mut [&mut sampler])
            .unwrap();
        let batch = sampler.into_batch();
        prop_assert!(!batch.is_empty());
        for s in &batch.samples {
            prop_assert_eq!(
                corrected_ip(s),
                s.trigger_ip,
                "fix failed: reported {} trigger {}",
                s.reported_ip,
                s.trigger_ip
            );
        }
    }
}
