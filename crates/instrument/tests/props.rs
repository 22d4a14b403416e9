//! Property-based tests for instrumentation: conservation laws that the
//! reference profile must satisfy on arbitrary structured programs.

use ct_instrument::ReferenceProfile;
use ct_isa::{asm, Cfg};
use ct_sim::{Cpu, MachineModel, RunConfig};
use proptest::prelude::*;
use std::fmt::Write as _;

/// Nested counted loops with conditional arms and a leaf call.
fn structured_program(outer: u16, inner: u16, arms: u8) -> ct_isa::Program {
    let mut arms_src = String::new();
    for k in 0..arms {
        let _ = write!(
            arms_src,
            "    andi r4, r2, {}\n    brz r4, skip{k}\n    addi r5, r5, 1\nskip{k}:\n",
            1 << (k % 3)
        );
    }
    let source = format!(
        r"
.func main
    movi r1, {outer}
otop:
    movi r2, {inner}
itop:
{arms_src}    call leaf
    subi r2, r2, 1
    brnz r2, itop
    subi r1, r1, 1
    brnz r1, otop
    halt
.endfunc
.func leaf
    addi r6, r6, 1
    ret
.endfunc
"
    );
    asm::assemble("prop", &source).expect("valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn reference_profile_conserves_instructions(
        outer in 1u16..8,
        inner in 1u16..12,
        arms in 0u8..5,
    ) {
        let p = structured_program(outer, inner, arms);
        let r = ReferenceProfile::collect(&p, &RunConfig::default()).unwrap();
        let bb_sum: u64 = r.bb_instructions.iter().sum();
        let fn_sum: u64 = r.function_instructions.iter().sum();
        for machine in MachineModel::paper_machines() {
            // An independent timed run on each machine: the profile must
            // account for exactly what it retires.
            let timed = Cpu::new(&machine)
                .run_silent(&p, &RunConfig::default())
                .unwrap();
            prop_assert_eq!(bb_sum, timed.instructions);
            prop_assert_eq!(fn_sum, timed.instructions);
            prop_assert_eq!(r.total_instructions, timed.instructions);
            prop_assert_eq!(r.taken_branches, timed.taken_branches);
        }
    }

    #[test]
    fn block_instructions_are_entries_times_len_for_full_blocks(
        outer in 1u16..6,
        inner in 1u16..10,
    ) {
        // With no mid-block exits (all blocks run to completion when the
        // program halts cleanly), instruction counts factor exactly.
        let p = structured_program(outer, inner, 2);
        let cfg = Cfg::build(&p);
        let (r, _) = ReferenceProfile::collect_with_cfg(&p, &cfg, &RunConfig::default()).unwrap();
        for blk in cfg.blocks() {
            prop_assert_eq!(
                r.bb_instructions[blk.id as usize],
                r.bb_entries[blk.id as usize] * blk.len() as u64,
                "block {}", blk.id
            );
        }
    }

    #[test]
    fn call_graph_counts_calls_exactly(
        outer in 1u16..6,
        inner in 1u16..10,
    ) {
        // `leaf` is straight-line and entered only by `call`, so the entry
        // count of its first block is its call count.
        let p = structured_program(outer, inner, 1);
        let r = ReferenceProfile::collect(&p, &RunConfig::default()).unwrap();
        let leaf = p.symbols.by_name("leaf").unwrap().entry;
        prop_assert_eq!(
            r.bb_entries[Cfg::build(&p).block_of(leaf) as usize],
            u64::from(outer) * u64::from(inner)
        );
    }
}
