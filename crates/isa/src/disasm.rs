//! Disassembly: rendering instructions and programs as assembler text.
//!
//! The format round-trips through [`crate::asm::assemble`]; the `props.rs`
//! property tier relies on this.

use crate::insn::{Insn, Opcode};
use crate::program::Program;
use std::fmt;
use std::fmt::Write as _;

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Opcode::*;
        match self.op {
            Add(d, a, b) => write!(f, "add {d}, {a}, {b}"),
            Sub(d, a, b) => write!(f, "sub {d}, {a}, {b}"),
            Mul(d, a, b) => write!(f, "mul {d}, {a}, {b}"),
            Div(d, a, b) => write!(f, "div {d}, {a}, {b}"),
            Rem(d, a, b) => write!(f, "rem {d}, {a}, {b}"),
            And(d, a, b) => write!(f, "and {d}, {a}, {b}"),
            Or(d, a, b) => write!(f, "or {d}, {a}, {b}"),
            Xor(d, a, b) => write!(f, "xor {d}, {a}, {b}"),
            Shl(d, a, b) => write!(f, "shl {d}, {a}, {b}"),
            Shr(d, a, b) => write!(f, "shr {d}, {a}, {b}"),
            AddI(d, a, i) => write!(f, "addi {d}, {a}, {i}"),
            SubI(d, a, i) => write!(f, "subi {d}, {a}, {i}"),
            MulI(d, a, i) => write!(f, "muli {d}, {a}, {i}"),
            AndI(d, a, i) => write!(f, "andi {d}, {a}, {i}"),
            XorI(d, a, i) => write!(f, "xori {d}, {a}, {i}"),
            Mov(d, s) => write!(f, "mov {d}, {s}"),
            MovI(d, i) => write!(f, "movi {d}, {i}"),
            FAdd(d, a, b) => write!(f, "fadd {d}, {a}, {b}"),
            FSub(d, a, b) => write!(f, "fsub {d}, {a}, {b}"),
            FMul(d, a, b) => write!(f, "fmul {d}, {a}, {b}"),
            FDiv(d, a, b) => write!(f, "fdiv {d}, {a}, {b}"),
            FSqrt(d, a) => write!(f, "fsqrt {d}, {a}"),
            FMov(d, a) => write!(f, "fmov {d}, {a}"),
            FMovI(d, v) => write!(f, "fmovi {d}, {v:?}"),
            CvtIF(d, s) => write!(f, "cvtif {d}, {s}"),
            CvtFI(d, s) => write!(f, "cvtfi {d}, {s}"),
            Load(d, b, o) => write!(f, "load {d}, [{b}{o:+}]"),
            Store(v, b, o) => write!(f, "store {v}, [{b}{o:+}]"),
            FLoad(d, b, o) => write!(f, "fload {d}, [{b}{o:+}]"),
            FStore(v, b, o) => write!(f, "fstore {v}, [{b}{o:+}]"),
            Jmp(t) => write!(f, "jmp @{t}"),
            JmpInd(r) => write!(f, "jmpind {r}"),
            Br(c, a, b, t) => write!(f, "br{} {a}, {b}, @{t}", c.mnemonic()),
            Brz(r, t) => write!(f, "brz {r}, @{t}"),
            Brnz(r, t) => write!(f, "brnz {r}, @{t}"),
            Call(t) => write!(f, "call @{t}"),
            CallInd(r) => write!(f, "callind {r}"),
            Ret => write!(f, "ret"),
            Nop => write!(f, "nop"),
            Halt => write!(f, "halt"),
        }
    }
}

/// Renders a program as **re-assemblable** source: `.data`/`.init`
/// directives, `.func`/`.endfunc` blocks in entry order, and one
/// instruction per line with `@addr` numeric branch targets.
///
/// For any validated program whose `init_data` indices lie inside
/// `data_words` (always true of assembler output), feeding the result
/// back through [`crate::asm::assemble`] reproduces a structurally
/// equal [`Program`]: the round trip the `props.rs` property tier pins.
#[must_use]
pub fn to_asm(program: &Program) -> String {
    let mut out = String::new();
    if program.data_words > 0 {
        let _ = writeln!(out, ".data {}", program.data_words);
    }
    for (idx, val) in &program.init_data {
        let _ = writeln!(out, ".init {idx}, {val}");
    }
    let funcs = program.symbols.functions();
    let mut next = 0usize;
    let mut open_end: Option<u32> = None;
    // Walk addresses 0..=len so a function ending at the last
    // instruction still gets its `.endfunc`.
    for a in 0..=program.insns.len() as u32 {
        if open_end == Some(a) {
            let _ = writeln!(out, ".endfunc");
            open_end = None;
        }
        while next < funcs.len() && funcs[next].entry == a && open_end.is_none() {
            let f = &funcs[next];
            let _ = writeln!(out, ".func {}", f.name);
            next += 1;
            if f.end == a {
                let _ = writeln!(out, ".endfunc");
            } else {
                open_end = Some(f.end);
            }
        }
        if let Some(insn) = program.insns.get(a as usize) {
            let _ = writeln!(out, "    {insn}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::names::*;

    #[test]
    fn renders_instructions() {
        assert_eq!(
            Insn::new(Opcode::Add(R1, R2, R3)).to_string(),
            "add r1, r2, r3"
        );
        assert_eq!(
            Insn::new(Opcode::Load(R1, R2, -8)).to_string(),
            "load r1, [r2-8]"
        );
        assert_eq!(
            Insn::new(Opcode::Store(R1, R2, 4)).to_string(),
            "store r1, [r2+4]"
        );
        assert_eq!(
            Insn::new(Opcode::Br(crate::Cond::Lt, R1, R2, 7)).to_string(),
            "brlt r1, r2, @7"
        );
        assert_eq!(
            Insn::new(Opcode::FMovI(F1, 1.5)).to_string(),
            "fmovi f1, 1.5"
        );
    }

    #[test]
    fn to_asm_round_trips_through_assemble() {
        let src = r#"
            .data 16
            .init 3, 7
            .init 4, -1
            .func main
                movi r1, 10
                call helper
                brnz r1, @0
                halt
            .endfunc
            .func helper
                load r2, [r1+4]
                store r2, [r1-8]
                fmovi f1, 1.5
                ret
            .endfunc
        "#;
        let p = crate::asm::assemble("t", src).unwrap();
        let rendered = to_asm(&p);
        let back = crate::asm::assemble("t", &rendered).unwrap();
        assert_eq!(p, back, "to_asm output must re-assemble structurally equal");
    }

    #[test]
    fn to_asm_closes_function_ending_at_last_insn() {
        let p = crate::asm::assemble("t", ".func main\n halt\n.endfunc\n").unwrap();
        let rendered = to_asm(&p);
        assert!(rendered.ends_with(".endfunc\n"));
        assert_eq!(p, crate::asm::assemble("t", &rendered).unwrap());
    }
}
