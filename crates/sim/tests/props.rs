//! Property-based tests for the CPU model: conservation laws of the
//! retirement stream on randomly generated (always-terminating) programs.

use ct_isa::reg::names::*;
use ct_isa::{asm, Insn, Opcode, Reg};
use ct_sim::{Cpu, MachineModel, RetireEvent, RetireObserver, RunConfig, StopReason};
use proptest::prelude::*;

fn arb_reg() -> impl Strategy<Value = Reg> {
    (2u8..16).prop_map(Reg::new) // r1 is the loop counter, keep it safe
}

fn arb_linear_op() -> impl Strategy<Value = Opcode> {
    prop_oneof![
        (arb_reg(), arb_reg(), arb_reg()).prop_map(|(a, b, c)| Opcode::Add(a, b, c)),
        (arb_reg(), arb_reg(), arb_reg()).prop_map(|(a, b, c)| Opcode::Div(a, b, c)),
        (arb_reg(), arb_reg(), arb_reg()).prop_map(|(a, b, c)| Opcode::Mul(a, b, c)),
        (arb_reg(), arb_reg(), -50i64..50).prop_map(|(a, b, i)| Opcode::AddI(a, b, i)),
        (arb_reg(), -100i64..100).prop_map(|(a, i)| Opcode::MovI(a, i)),
        Just(Opcode::Nop),
    ]
}

fn loop_program(loop_n: u16, body: &[Opcode]) -> ct_isa::Program {
    let body: String = body
        .iter()
        .map(|op| format!("    {}\n", Insn::new(*op)))
        .collect();
    let source = format!(
        ".func main\n    movi r1, {}\ntop:\n{body}    subi r1, r1, 1\n    brnz r1, top\n    halt\n.endfunc\n",
        u32::from(loop_n) + 1
    );
    asm::assemble("prop", &source).expect("valid")
}

#[derive(Default)]
struct Collector(Vec<RetireEvent>);
impl RetireObserver for Collector {
    fn on_retire(&mut self, ev: &RetireEvent) {
        self.0.push(*ev);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn retire_stream_conservation(
        loop_n in 1u16..50,
        body in prop::collection::vec(arb_linear_op(), 0..20),
    ) {
        let p = loop_program(loop_n, &body);
        for machine in MachineModel::paper_machines() {
            let mut c = Collector::default();
            let s = Cpu::new(&machine)
                .run(&p, &RunConfig::default(), &mut [&mut c])
                .unwrap();
            // Every retired instruction is observed exactly once, in order.
            prop_assert_eq!(c.0.len() as u64, s.instructions);
            let expected =
                2 + u64::from(loop_n + 1) * (body.len() as u64 + 2);
            prop_assert_eq!(s.instructions, expected);
            // Sequence numbers dense; cycles monotone; bursts bounded.
            let mut per_cycle = std::collections::HashMap::new();
            let mut prev_cycle = 0u64;
            for (i, ev) in c.0.iter().enumerate() {
                prop_assert_eq!(ev.seq, i as u64);
                prop_assert!(ev.cycle >= prev_cycle);
                prev_cycle = ev.cycle;
                *per_cycle.entry(ev.cycle).or_insert(0u32) += 1;
            }
            for (&cyc, &n) in &per_cycle {
                prop_assert!(
                    n <= machine.retire_width,
                    "cycle {} retired {} > width {}", cyc, n, machine.retire_width
                );
            }
            // Uop totals match.
            let uops: u64 = c.0.iter().map(|e| u64::from(e.uops)).sum();
            prop_assert_eq!(uops, s.uops);
            prop_assert_eq!(s.stop, StopReason::Halted);
        }
    }

    #[test]
    fn taken_branch_count_matches_events(
        loop_n in 1u16..40,
        body in prop::collection::vec(arb_linear_op(), 0..10),
    ) {
        let p = loop_program(loop_n, &body);
        let machine = MachineModel::ivy_bridge();
        let mut c = Collector::default();
        let s = Cpu::new(&machine)
            .run(&p, &RunConfig::default(), &mut [&mut c])
            .unwrap();
        let taken = c.0.iter().filter(|e| e.is_taken_branch()).count() as u64;
        prop_assert_eq!(taken, s.taken_branches);
        // The loop back edge is taken exactly loop_n times.
        prop_assert_eq!(s.taken_branches, u64::from(loop_n));
        // Every taken target is in range and matches the recorded insn.
        for ev in c.0.iter().filter(|e| e.is_taken_branch()) {
            let t = ev.taken_target.unwrap();
            prop_assert!((t as usize) < p.len());
        }
    }

    #[test]
    fn fuel_truncation_is_exact(
        loop_n in 10u16..50,
        fuel in 1u64..200,
    ) {
        let p = loop_program(loop_n, &[Opcode::Nop, Opcode::Nop]);
        let machine = MachineModel::westmere();
        let mut c = Collector::default();
        let cfg = RunConfig { max_insns: fuel, ..RunConfig::default() };
        let s = Cpu::new(&machine).run(&p, &cfg, &mut [&mut c]).unwrap();
        if s.stop == StopReason::FuelExhausted {
            prop_assert_eq!(s.instructions, fuel);
        }
        prop_assert_eq!(c.0.len() as u64, s.instructions);
    }

    #[test]
    fn long_latency_instructions_stall_retirement(
        pre in 1usize..6,
    ) {
        // A div preceded by `pre` adds: its retire cycle must trail the
        // previous instruction's by at least (div latency - hidden).
        let mut body = vec![Opcode::Add(R3, R4, R5); pre];
        body.push(Opcode::Div(R6, R3, R4));
        let p = loop_program(3, &body);
        let machine = MachineModel::ivy_bridge();
        let mut c = Collector::default();
        Cpu::new(&machine).run(&p, &RunConfig::default(), &mut [&mut c]).unwrap();
        let min_gap = u64::from(machine.latencies.div - machine.hide_latency);
        for w in c.0.windows(2) {
            if w[1].class == ct_isa::InsnClass::Div {
                prop_assert!(
                    w[1].cycle - w[0].cycle >= min_gap,
                    "div gap {} < {}", w[1].cycle - w[0].cycle, min_gap
                );
            }
        }
    }
}
