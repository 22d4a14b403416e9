//! Instruction definitions.
//!
//! Each instruction occupies one address slot. The opcode set is small but
//! covers everything the paper's workloads exercise: cheap ALU work,
//! long-latency divides (the Latency-Biased kernel), floating point (povray
//! and FullCMS proxies), loads/stores through a cache model (mcf proxy),
//! direct and indirect calls (callchain kernel, omnetpp vtable proxy) and
//! conditional branches (every kernel).

use crate::reg::{FReg, Reg};
use serde::{Deserialize, Serialize};

/// An instruction address — an index into [`crate::Program::insns`].
pub type Addr = u32;

/// Comparison condition for conditional branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Cond {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Cond {
    /// Evaluates the condition on two integer values.
    #[must_use]
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Le => a <= b,
            Cond::Gt => a > b,
            Cond::Ge => a >= b,
        }
    }

    /// Returns the assembler mnemonic suffix (`eq`, `ne`, ...).
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Le => "le",
            Cond::Gt => "gt",
            Cond::Ge => "ge",
        }
    }
}

/// Operation plus operands; one per address slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Opcode {
    // --- Integer ALU -----------------------------------------------------
    /// `rd = rs1 + rs2`
    Add(Reg, Reg, Reg),
    /// `rd = rs1 - rs2`
    Sub(Reg, Reg, Reg),
    /// `rd = rs1 * rs2` (medium latency)
    Mul(Reg, Reg, Reg),
    /// `rd = rs1 / rs2` (long latency; division by zero yields 0)
    Div(Reg, Reg, Reg),
    /// `rd = rs1 % rs2` (long latency; modulo by zero yields 0)
    Rem(Reg, Reg, Reg),
    /// `rd = rs1 & rs2`
    And(Reg, Reg, Reg),
    /// `rd = rs1 | rs2`
    Or(Reg, Reg, Reg),
    /// `rd = rs1 ^ rs2`
    Xor(Reg, Reg, Reg),
    /// `rd = rs1 << (rs2 & 63)`
    Shl(Reg, Reg, Reg),
    /// `rd = rs1 >> (rs2 & 63)` (arithmetic)
    Shr(Reg, Reg, Reg),
    /// `rd = rs1 + imm`
    AddI(Reg, Reg, i64),
    /// `rd = rs1 - imm`
    SubI(Reg, Reg, i64),
    /// `rd = rs1 * imm`
    MulI(Reg, Reg, i64),
    /// `rd = rs1 & imm`
    AndI(Reg, Reg, i64),
    /// `rd = rs1 ^ imm`
    XorI(Reg, Reg, i64),
    /// `rd = rs`
    Mov(Reg, Reg),
    /// `rd = imm`
    MovI(Reg, i64),

    // --- Floating point ---------------------------------------------------
    /// `fd = fs1 + fs2`
    FAdd(FReg, FReg, FReg),
    /// `fd = fs1 - fs2`
    FSub(FReg, FReg, FReg),
    /// `fd = fs1 * fs2`
    FMul(FReg, FReg, FReg),
    /// `fd = fs1 / fs2` (long latency)
    FDiv(FReg, FReg, FReg),
    /// `fd = sqrt(fs)` (long latency)
    FSqrt(FReg, FReg),
    /// `fd = fs`
    FMov(FReg, FReg),
    /// `fd = imm`
    FMovI(FReg, f64),
    /// `fd = rs as f64`
    CvtIF(FReg, Reg),
    /// `rd = fs as i64` (truncating; saturates on overflow/NaN)
    CvtFI(Reg, FReg),

    // --- Memory -----------------------------------------------------------
    /// `rd = mem[rs + imm]`
    Load(Reg, Reg, i64),
    /// `mem[rbase + imm] = rval`
    Store(Reg, Reg, i64),
    /// `fd = mem[rs + imm]` reinterpreted as f64 bits
    FLoad(FReg, Reg, i64),
    /// `mem[rbase + imm] = fval` bits
    FStore(FReg, Reg, i64),

    // --- Control flow -----------------------------------------------------
    /// Unconditional jump to `target`.
    Jmp(Addr),
    /// Indirect jump through a register holding an address (jump tables).
    JmpInd(Reg),
    /// Conditional branch: if `cond(rs1, rs2)` jump to `target`.
    Br(Cond, Reg, Reg, Addr),
    /// Branch if `rs == 0`.
    Brz(Reg, Addr),
    /// Branch if `rs != 0`.
    Brnz(Reg, Addr),
    /// Direct call; pushes the return address on the call stack.
    Call(Addr),
    /// Indirect call through a register (virtual dispatch).
    CallInd(Reg),
    /// Return to the address on top of the call stack.
    Ret,

    // --- Misc ---------------------------------------------------------------
    /// No operation.
    Nop,
    /// Stop execution.
    Halt,
}

/// Coarse instruction class used for latency/uop assignment and statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InsnClass {
    /// Single-cycle integer ALU operations (including moves).
    Alu,
    /// Integer multiply.
    Mul,
    /// Integer divide/remainder — the paper's "long latency instruction".
    Div,
    /// Cheap floating point (add/sub/mov/convert).
    FpAdd,
    /// Floating-point multiply.
    FpMul,
    /// Floating-point divide/sqrt — long latency.
    FpDiv,
    /// Memory load (latency depends on the cache model).
    Load,
    /// Memory store.
    Store,
    /// Unconditional direct/indirect jump.
    Jump,
    /// Conditional branch.
    Branch,
    /// Direct or indirect call.
    Call,
    /// Return.
    Ret,
    /// `nop` / `halt`.
    Other,
}

/// An instruction; currently just the opcode, kept as a distinct type so
/// metadata (e.g. debug info) can be added without touching every consumer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Insn {
    pub op: Opcode,
}

impl Insn {
    /// Wraps an opcode into an instruction.
    #[must_use]
    pub const fn new(op: Opcode) -> Self {
        Self { op }
    }

    /// Returns the coarse class of this instruction.
    #[must_use]
    pub fn class(&self) -> InsnClass {
        use Opcode::*;
        match self.op {
            Add(..) | Sub(..) | And(..) | Or(..) | Xor(..) | Shl(..) | Shr(..) | AddI(..)
            | SubI(..) | AndI(..) | XorI(..) | Mov(..) | MovI(..) => InsnClass::Alu,
            Mul(..) | MulI(..) => InsnClass::Mul,
            Div(..) | Rem(..) => InsnClass::Div,
            FAdd(..) | FSub(..) | FMov(..) | FMovI(..) | CvtIF(..) | CvtFI(..) => InsnClass::FpAdd,
            FMul(..) => InsnClass::FpMul,
            FDiv(..) | FSqrt(..) => InsnClass::FpDiv,
            Load(..) | FLoad(..) => InsnClass::Load,
            Store(..) | FStore(..) => InsnClass::Store,
            Jmp(..) | JmpInd(..) => InsnClass::Jump,
            Br(..) | Brz(..) | Brnz(..) => InsnClass::Branch,
            Call(..) | CallInd(..) => InsnClass::Call,
            Ret => InsnClass::Ret,
            Nop | Halt => InsnClass::Other,
        }
    }

    /// Number of micro-operations this instruction decodes into.
    ///
    /// Uop counts matter for AMD IBS modeling: IBS samples *uops*, so
    /// multi-uop instructions are proportionally oversampled relative to an
    /// instruction-count ground truth (§6.2 of the paper: "A precise
    /// instruction event in AMD's IBS is missing, which led us to use
    /// precise uops instead").
    #[must_use]
    pub fn uops(&self) -> u32 {
        match self.class() {
            InsnClass::Alu | InsnClass::Jump | InsnClass::Branch | InsnClass::Other => 1,
            InsnClass::Mul | InsnClass::FpAdd | InsnClass::FpMul | InsnClass::Load => 1,
            InsnClass::Store => 2,
            InsnClass::Call | InsnClass::Ret => 2,
            InsnClass::Div => 8,
            InsnClass::FpDiv => 6,
        }
    }

    /// True when this instruction ends a basic block.
    #[must_use]
    pub fn is_terminator(&self) -> bool {
        matches!(
            self.class(),
            InsnClass::Jump | InsnClass::Branch | InsnClass::Call | InsnClass::Ret
        ) || matches!(self.op, Opcode::Halt)
    }

    /// True when this instruction is a control-flow transfer that, when
    /// taken, is recorded by the LBR facility (taken branches, jumps, calls
    /// and returns).
    #[must_use]
    pub fn is_branch(&self) -> bool {
        matches!(
            self.class(),
            InsnClass::Jump | InsnClass::Branch | InsnClass::Call | InsnClass::Ret
        )
    }

    /// Static direct target, if any (`None` for indirect/ret/fallthrough).
    #[must_use]
    pub fn direct_target(&self) -> Option<Addr> {
        match self.op {
            Opcode::Jmp(t)
            | Opcode::Br(_, _, _, t)
            | Opcode::Brz(_, t)
            | Opcode::Brnz(_, t)
            | Opcode::Call(t) => Some(t),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::names::*;

    #[test]
    fn cond_eval() {
        assert!(Cond::Eq.eval(3, 3));
        assert!(!Cond::Eq.eval(3, 4));
        assert!(Cond::Ne.eval(3, 4));
        assert!(Cond::Lt.eval(-1, 0));
        assert!(Cond::Le.eval(0, 0));
        assert!(Cond::Gt.eval(5, 4));
        assert!(Cond::Ge.eval(4, 4));
    }

    #[test]
    fn classes() {
        assert_eq!(Insn::new(Opcode::Add(R0, R1, R2)).class(), InsnClass::Alu);
        assert_eq!(Insn::new(Opcode::Div(R0, R1, R2)).class(), InsnClass::Div);
        assert_eq!(
            Insn::new(Opcode::FDiv(F0, F1, F2)).class(),
            InsnClass::FpDiv
        );
        assert_eq!(Insn::new(Opcode::Load(R0, R1, 0)).class(), InsnClass::Load);
        assert_eq!(Insn::new(Opcode::Ret).class(), InsnClass::Ret);
    }

    #[test]
    fn terminators() {
        assert!(Insn::new(Opcode::Jmp(0)).is_terminator());
        assert!(Insn::new(Opcode::Brz(R1, 0)).is_terminator());
        assert!(Insn::new(Opcode::Call(0)).is_terminator());
        assert!(Insn::new(Opcode::Ret).is_terminator());
        assert!(Insn::new(Opcode::Halt).is_terminator());
        assert!(!Insn::new(Opcode::Nop).is_terminator());
        assert!(!Insn::new(Opcode::Add(R0, R0, R0)).is_terminator());
    }

    #[test]
    fn halt_is_not_lbr_branch() {
        assert!(!Insn::new(Opcode::Halt).is_branch());
        assert!(Insn::new(Opcode::Ret).is_branch());
    }

    #[test]
    fn direct_targets() {
        assert_eq!(Insn::new(Opcode::Jmp(7)).direct_target(), Some(7));
        assert_eq!(Insn::new(Opcode::Call(9)).direct_target(), Some(9));
        assert_eq!(Insn::new(Opcode::Ret).direct_target(), None);
        assert_eq!(Insn::new(Opcode::JmpInd(R1)).direct_target(), None);
    }

    #[test]
    fn div_is_multi_uop() {
        assert!(Insn::new(Opcode::Div(R0, R1, R2)).uops() > 4);
        assert_eq!(Insn::new(Opcode::Add(R0, R1, R2)).uops(), 1);
    }
}
