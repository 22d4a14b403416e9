//! Property-based tests for the ISA layer: assembler round-trips and
//! robustness, CFG invariants on randomly generated structured programs,
//! primality.

use ct_isa::{asm, disasm, prime, BasicBlock, Cfg, Cond, Insn, Opcode, Reg};
use proptest::prelude::*;
use std::fmt::Write as _;

#[path = "support/mutate.rs"]
mod mutate;

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..16).prop_map(Reg::new)
}

/// Straight-line (non-control-flow) opcodes.
fn arb_linear_op() -> impl Strategy<Value = Opcode> {
    prop_oneof![
        (arb_reg(), arb_reg(), arb_reg()).prop_map(|(a, b, c)| Opcode::Add(a, b, c)),
        (arb_reg(), arb_reg(), arb_reg()).prop_map(|(a, b, c)| Opcode::Sub(a, b, c)),
        (arb_reg(), arb_reg(), arb_reg()).prop_map(|(a, b, c)| Opcode::Mul(a, b, c)),
        (arb_reg(), arb_reg(), arb_reg()).prop_map(|(a, b, c)| Opcode::Div(a, b, c)),
        (arb_reg(), arb_reg(), arb_reg()).prop_map(|(a, b, c)| Opcode::Xor(a, b, c)),
        (arb_reg(), arb_reg(), -100i64..100).prop_map(|(a, b, i)| Opcode::AddI(a, b, i)),
        (arb_reg(), arb_reg(), -100i64..100).prop_map(|(a, b, i)| Opcode::SubI(a, b, i)),
        (arb_reg(), -1000i64..1000).prop_map(|(a, i)| Opcode::MovI(a, i)),
        (arb_reg(), arb_reg()).prop_map(|(a, b)| Opcode::Mov(a, b)),
        Just(Opcode::Nop),
    ]
}

/// A structured, always-terminating program: a counted loop whose body is
/// linear code with optional forward skips and calls to linear leaves.
#[derive(Debug, Clone)]
enum BodyOp {
    Linear(Opcode),
    /// Skip the next `n` linear ops when r2 == 0.
    FwdSkip(u8),
    Call(u8),
}

fn arb_body_op() -> impl Strategy<Value = BodyOp> {
    prop_oneof![
        4 => arb_linear_op().prop_map(BodyOp::Linear),
        1 => (1u8..4).prop_map(BodyOp::FwdSkip),
        1 => (0u8..3).prop_map(BodyOp::Call),
    ]
}

/// Renders the structured program as `.ctasm` source. Forward skips
/// branch to `skipN:` labels, calls name their callee, and each leaf is
/// a `.func leafN` ending in `ret`.
fn program_source(loop_n: u16, body: &[BodyOp], leaves: &[Vec<Opcode>]) -> String {
    let mut src = format!(".func main\n    movi r1, {}\ntop:\n", u32::from(loop_n) + 1);
    // The open skip's label number and the linear ops it still covers.
    let mut pending_skip: Option<(usize, u8)> = None;
    let mut skips = 0;
    for op in body {
        match op {
            BodyOp::Linear(op) => {
                let _ = writeln!(src, "    {}", Insn::new(*op));
                if let Some((label, n)) = pending_skip.take() {
                    if n <= 1 {
                        let _ = writeln!(src, "skip{label}:");
                    } else {
                        pending_skip = Some((label, n - 1));
                    }
                }
            }
            BodyOp::FwdSkip(n) => {
                if pending_skip.is_none() {
                    let _ = writeln!(src, "    brz r2, skip{skips}");
                    pending_skip = Some((skips, *n));
                    skips += 1;
                }
            }
            BodyOp::Call(i) => {
                if pending_skip.is_none() && !leaves.is_empty() {
                    let _ = writeln!(src, "    call leaf{}", *i as usize % leaves.len());
                }
            }
        }
    }
    if let Some((label, _)) = pending_skip {
        let _ = writeln!(src, "skip{label}:");
    }
    src.push_str("    subi r1, r1, 1\n    brnz r1, top\n    halt\n.endfunc\n");
    for (i, leaf) in leaves.iter().enumerate() {
        let _ = writeln!(src, ".func leaf{i}");
        for op in leaf {
            let _ = writeln!(src, "    {}", Insn::new(*op));
        }
        src.push_str("    ret\n.endfunc\n");
    }
    src
}

/// `.data`/`.init` directives ahead of a generated program: a segment
/// of `24 + data_extra` words and one `.init` line per `(index, value)`.
fn data_source(data_extra: usize, inits: &[(usize, i64)]) -> String {
    let mut src = format!(".data {}\n", 24 + data_extra);
    for (idx, val) in inits {
        let _ = writeln!(src, ".init {idx}, {val}");
    }
    src
}

fn build_program(loop_n: u16, body: &[BodyOp], leaves: &[Vec<Opcode>]) -> ct_isa::Program {
    asm::assemble("prop", &program_source(loop_n, body, leaves))
        .expect("structured programs are always valid")
}

proptest! {
    #[test]
    fn instruction_display_reassembles(op in arb_linear_op()) {
        let insn = Insn::new(op);
        let text = format!(".func main\n {insn}\n halt\n.endfunc\n");
        let p = asm::assemble("t", &text).expect("rendered instruction parses");
        prop_assert_eq!(p.insns[0].op, op);
    }

    #[test]
    fn branch_display_reassembles(
        cond in prop_oneof![
            Just(Cond::Eq), Just(Cond::Ne), Just(Cond::Lt),
            Just(Cond::Le), Just(Cond::Gt), Just(Cond::Ge)
        ],
        a in arb_reg(),
        b in arb_reg(),
    ) {
        let insn = Insn::new(Opcode::Br(cond, a, b, 0));
        let text = format!(".func main\n {insn}\n halt\n.endfunc\n");
        let p = asm::assemble("t", &text).expect("rendered branch parses");
        prop_assert_eq!(p.insns[0].op, Opcode::Br(cond, a, b, 0));
    }

    #[test]
    fn memory_display_reassembles(r in arb_reg(), base in arb_reg(), off in -64i64..64) {
        let insn = Insn::new(Opcode::Load(r, base, off));
        let text = format!(".data 8\n.func main\n {insn}\n halt\n.endfunc\n");
        let p = asm::assemble("t", &text).expect("rendered load parses");
        prop_assert_eq!(p.insns[0].op, Opcode::Load(r, base, off));
    }

    /// Whole-program round trip: generated `.ctasm` source (control
    /// flow, calls, a data segment and init words) →
    /// [`asm::assemble`] → [`disasm::to_asm`] text → [`asm::assemble`]
    /// → a structurally equal `Program`.
    #[test]
    fn whole_program_roundtrips_through_to_asm(
        loop_n in 1u16..20,
        body in prop::collection::vec(arb_body_op(), 0..30),
        leaves in prop::collection::vec(prop::collection::vec(arb_linear_op(), 0..6), 0..3),
        data_extra in 0usize..32,
        inits in prop::collection::vec((0usize..24, -1000i64..1000), 0..8),
    ) {
        let source = data_source(data_extra, &inits) + &program_source(loop_n, &body, &leaves);
        let p = asm::assemble("prop", &source).expect("generated source assembles");
        prop_assert_eq!(p.data_words, 24 + data_extra);
        prop_assert_eq!(&p.init_data, &inits);
        let text = disasm::to_asm(&p);
        let back = asm::assemble("prop", &text)
            .expect("to_asm output of a valid program re-assembles");
        prop_assert_eq!(p, back, "round trip changed the program; text was:\n{}", text);
    }

    #[test]
    fn cfg_blocks_partition_program(
        loop_n in 1u16..20,
        body in prop::collection::vec(arb_body_op(), 0..30),
        leaves in prop::collection::vec(prop::collection::vec(arb_linear_op(), 0..6), 0..3),
    ) {
        let p = build_program(loop_n, &body, &leaves);
        let cfg = Cfg::build(&p);
        // Contiguous, non-empty, covering.
        let mut prev_end = 0u32;
        for b in cfg.blocks() {
            prop_assert_eq!(b.start, prev_end);
            prop_assert!(!b.is_empty());
            prev_end = b.end;
        }
        prop_assert_eq!(prev_end as usize, p.len());
        let covered: usize = cfg.blocks().iter().map(BasicBlock::len).sum();
        prop_assert_eq!(covered, p.len());
        // block_of is consistent.
        for a in 0..p.len() as u32 {
            prop_assert!(cfg.block(cfg.block_of(a)).contains(a));
        }
        // Terminators only at block ends; leaders at block starts.
        for b in cfg.blocks() {
            for addr in b.start..b.end.saturating_sub(1) {
                prop_assert!(
                    !p.insns[addr as usize].is_terminator(),
                    "terminator mid-block at {}", addr
                );
            }
        }
        // All successors in range.
        for b in cfg.blocks() {
            for &s in cfg.successors(b.id) {
                prop_assert!((s as usize) < cfg.num_blocks());
            }
        }
    }

    #[test]
    fn direct_targets_are_block_leaders(
        loop_n in 1u16..20,
        body in prop::collection::vec(arb_body_op(), 0..30),
    ) {
        let p = build_program(loop_n, &body, &[]);
        let cfg = Cfg::build(&p);
        for insn in &p.insns {
            if let Some(t) = insn.direct_target() {
                let blk = cfg.block(cfg.block_of(t));
                prop_assert_eq!(blk.start, t, "branch target must start a block");
            }
        }
    }

    #[test]
    fn next_prime_is_prime_and_minimal(n in 0u64..2_000_000) {
        let p = prime::next_prime(n);
        prop_assert!(prime::is_prime(p));
        prop_assert!(p >= n.max(2));
        // No prime in (n, p).
        for candidate in n..p {
            prop_assert!(!prime::is_prime(candidate) || candidate < 2);
        }
    }

    #[test]
    fn is_prime_matches_trial_division(n in 0u64..10_000) {
        let trial = n >= 2 && (2..n).take_while(|d| d * d <= n).all(|d| n % d != 0);
        prop_assert_eq!(prime::is_prime(n), trial);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8192))]

    /// The assembler under adversarial input: generated source with one
    /// to four byte-level edits must assemble or fail with a typed
    /// `IsaError`, never panic, and whatever assembles must survive the
    /// `to_asm` round trip unchanged.
    #[test]
    fn mutated_source_assembles_or_errors(
        loop_n in 1u16..20,
        body in prop::collection::vec(arb_body_op(), 0..30),
        leaves in prop::collection::vec(prop::collection::vec(arb_linear_op(), 0..6), 0..3),
        data_extra in 0usize..32,
        inits in prop::collection::vec((0usize..24, -1000i64..1000), 0..8),
        edits in prop::collection::vec(
            (0u8..5, 0usize..1 << 16, 0..mutate::ALPHABET.len(), 1usize..32),
            1..5,
        ),
    ) {
        let source = data_source(data_extra, &inits) + &program_source(loop_n, &body, &leaves);
        let mutant = mutate::mutate(&source, &edits);
        if let Ok(p) = asm::assemble("prop", &mutant) {
            let text = disasm::to_asm(&p);
            let back = asm::assemble("prop", &text);
            prop_assert_eq!(back.as_ref(), Ok(&p), "mutant:\n{}\nas:\n{}", mutant, text);
        }
    }
}
