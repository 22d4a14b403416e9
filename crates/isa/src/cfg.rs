//! Basic-block identification and control-flow graphs.
//!
//! The accuracy metric of the paper is defined per basic block, so this
//! module is load-bearing for the whole evaluation: both the reference
//! (instrumented) profile and every sampling method attribute costs to the
//! blocks computed here.
//!
//! Leaders follow the classic algorithm: the program entry, every function
//! entry, every direct branch target, and every instruction following a
//! terminator (taken or not) start a block. Blocks never span function
//! boundaries.

use crate::insn::{Addr, Insn, Opcode};
use crate::program::Program;
use serde::{Deserialize, Serialize};

/// Index of a basic block within a [`Cfg`].
pub type BlockId = u32;

/// How a basic block ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Terminator {
    /// Falls through to the next block (block ended by a leader, not by a
    /// control-flow instruction).
    FallThrough,
    /// Unconditional jump (direct or indirect).
    Jump,
    /// Conditional branch: taken edge plus fallthrough edge.
    CondBranch,
    /// Call: control returns to the fallthrough block.
    Call,
    /// Return.
    Ret,
    /// `halt`.
    Halt,
}

/// A basic block covering the half-open instruction range `[start, end)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BasicBlock {
    pub id: BlockId,
    pub start: Addr,
    pub end: Addr,
    pub terminator: Terminator,
}

impl BasicBlock {
    /// Number of instructions in the block.
    #[must_use]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// True when the block covers no instructions (never produced by
    /// [`Cfg::build`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// True when `addr` lies inside the block.
    #[must_use]
    pub fn contains(&self, addr: Addr) -> bool {
        self.start <= addr && addr < self.end
    }

    /// Address of the last instruction in the block.
    #[must_use]
    pub fn last_addr(&self) -> Addr {
        self.end - 1
    }
}

/// The control-flow graph of a program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cfg {
    blocks: Vec<BasicBlock>,
    /// For every instruction address, the id of the block containing it.
    block_of: Vec<BlockId>,
    /// Static successor edges (direct targets and fallthroughs only;
    /// indirect jumps/calls contribute no static edges).
    successors: Vec<Vec<BlockId>>,
}

impl Cfg {
    /// Builds the CFG of `program`.
    #[must_use]
    pub fn build(program: &Program) -> Self {
        let n = program.insns.len();
        let mut leader = vec![false; n];
        if n == 0 {
            return Self {
                blocks: Vec::new(),
                block_of: Vec::new(),
                successors: Vec::new(),
            };
        }
        leader[program.entry as usize] = true;
        leader[0] = true;
        for f in program.symbols.functions() {
            if (f.entry as usize) < n {
                leader[f.entry as usize] = true;
            }
        }
        for (i, insn) in program.insns.iter().enumerate() {
            if let Some(t) = insn.direct_target() {
                leader[t as usize] = true;
            }
            if insn.is_terminator() && i + 1 < n {
                leader[i + 1] = true;
            }
        }

        let mut blocks = Vec::new();
        let mut block_of = vec![0 as BlockId; n];
        let mut start = 0usize;
        for i in 0..n {
            let next_is_leader = i + 1 >= n || leader[i + 1];
            if next_is_leader {
                let id = blocks.len() as BlockId;
                let term = Self::terminator_of(program.insns[i]);
                blocks.push(BasicBlock {
                    id,
                    start: start as Addr,
                    end: (i + 1) as Addr,
                    terminator: term,
                });
                for slot in &mut block_of[start..=i] {
                    *slot = id;
                }
                start = i + 1;
            }
        }

        let mut successors = vec![Vec::new(); blocks.len()];
        for b in &blocks {
            let last = program.insns[b.last_addr() as usize];
            let mut succ = Vec::new();
            match b.terminator {
                Terminator::FallThrough | Terminator::Call => {
                    // A call's fallthrough is where the callee returns to.
                    if (b.end as usize) < n {
                        succ.push(block_of[b.end as usize]);
                    }
                    if let Some(t) = last.direct_target() {
                        if matches!(last.op, Opcode::Call(_)) {
                            succ.push(block_of[t as usize]);
                        }
                    }
                }
                Terminator::Jump => {
                    if let Some(t) = last.direct_target() {
                        succ.push(block_of[t as usize]);
                    }
                }
                Terminator::CondBranch => {
                    if let Some(t) = last.direct_target() {
                        succ.push(block_of[t as usize]);
                    }
                    if (b.end as usize) < n {
                        succ.push(block_of[b.end as usize]);
                    }
                }
                Terminator::Ret | Terminator::Halt => {}
            }
            succ.dedup();
            successors[b.id as usize] = succ;
        }

        Self {
            blocks,
            block_of,
            successors,
        }
    }

    fn terminator_of(insn: Insn) -> Terminator {
        use crate::insn::InsnClass;
        match insn.op {
            Opcode::Halt => Terminator::Halt,
            _ => match insn.class() {
                InsnClass::Jump => Terminator::Jump,
                InsnClass::Branch => Terminator::CondBranch,
                InsnClass::Call => Terminator::Call,
                InsnClass::Ret => Terminator::Ret,
                _ => Terminator::FallThrough,
            },
        }
    }

    /// All basic blocks, ordered by start address.
    #[must_use]
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// The block containing instruction address `addr`.
    ///
    /// # Panics
    ///
    /// Panics when `addr` is out of range.
    #[must_use]
    pub fn block_of(&self, addr: Addr) -> BlockId {
        self.block_of[addr as usize]
    }

    /// The block containing `addr`, or `None` when out of range. Sampling
    /// hardware can report garbage addresses (e.g. skid past the end of the
    /// text segment); attribution code uses this form.
    #[must_use]
    pub fn try_block_of(&self, addr: Addr) -> Option<BlockId> {
        self.block_of.get(addr as usize).copied()
    }

    /// Block lookup by id.
    #[must_use]
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id as usize]
    }

    /// Static successor edges of a block.
    #[must_use]
    pub fn successors(&self, id: BlockId) -> &[BlockId] {
        &self.successors[id as usize]
    }

    /// Number of blocks.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Function, SymbolTable};
    use crate::reg::names::*;

    fn prog(insns: Vec<Opcode>, funcs: Vec<(&str, Addr, Addr)>) -> Program {
        let insns = insns.into_iter().map(Insn::new).collect();
        let sym = SymbolTable::new(
            funcs
                .into_iter()
                .map(|(n, e, x)| Function {
                    name: n.into(),
                    entry: e,
                    end: x,
                })
                .collect(),
        );
        Program::new("t", insns, sym, 0).unwrap()
    }

    #[test]
    fn loop_has_three_blocks() {
        // 0: movi r1, 10      <- block 0
        // 1: subi r1, r1, 1   <- block 1 (branch target)
        // 2: brnz r1, 1
        // 3: halt             <- block 2
        let p = prog(
            vec![
                Opcode::MovI(R1, 10),
                Opcode::SubI(R1, R1, 1),
                Opcode::Brnz(R1, 1),
                Opcode::Halt,
            ],
            vec![("main", 0, 4)],
        );
        let cfg = Cfg::build(&p);
        assert_eq!(cfg.num_blocks(), 3);
        assert_eq!(cfg.block(0).end, 1);
        assert_eq!(cfg.block(1).start, 1);
        assert_eq!(cfg.block(1).terminator, Terminator::CondBranch);
        assert_eq!(cfg.successors(1), &[1, 2]);
        assert_eq!(cfg.block_of(2), 1);
    }

    #[test]
    fn call_ends_block_and_links_fallthrough() {
        // 0: call 3
        // 1: nop
        // 2: halt
        // 3: ret        (function f)
        let p = prog(
            vec![Opcode::Call(3), Opcode::Nop, Opcode::Halt, Opcode::Ret],
            vec![("main", 0, 3), ("f", 3, 4)],
        );
        let cfg = Cfg::build(&p);
        assert_eq!(cfg.num_blocks(), 3);
        let b0 = cfg.block(0);
        assert_eq!(b0.terminator, Terminator::Call);
        // Successors of the call block: fallthrough block and callee entry.
        assert_eq!(cfg.successors(0), &[1, 2]);
        assert_eq!(cfg.block(2).terminator, Terminator::Ret);
    }

    #[test]
    fn function_entry_is_leader_even_without_branch() {
        let p = prog(
            vec![Opcode::Nop, Opcode::Nop, Opcode::Nop, Opcode::Halt],
            vec![("a", 0, 2), ("b", 2, 4)],
        );
        let cfg = Cfg::build(&p);
        assert_eq!(cfg.num_blocks(), 2);
        assert_eq!(cfg.block(1).start, 2);
        assert_eq!(cfg.block(0).terminator, Terminator::FallThrough);
    }

    #[test]
    fn block_of_covers_every_instruction() {
        let p = prog(
            vec![
                Opcode::MovI(R1, 10),
                Opcode::Brz(R1, 4),
                Opcode::AddI(R1, R1, 1),
                Opcode::Jmp(1),
                Opcode::Halt,
            ],
            vec![("main", 0, 5)],
        );
        let cfg = Cfg::build(&p);
        for a in 0..p.len() as Addr {
            let b = cfg.block(cfg.block_of(a));
            assert!(b.contains(a));
        }
        assert!(cfg.try_block_of(99).is_none());
    }

    #[test]
    fn blocks_partition_program() {
        let p = prog(
            vec![
                Opcode::MovI(R1, 3),
                Opcode::SubI(R1, R1, 1),
                Opcode::Brnz(R1, 1),
                Opcode::MovI(R2, 0),
                Opcode::Halt,
            ],
            vec![("main", 0, 5)],
        );
        let cfg = Cfg::build(&p);
        let total: usize = cfg.blocks().iter().map(BasicBlock::len).sum();
        assert_eq!(total, p.len());
        // Blocks are contiguous and ordered.
        let mut prev_end = 0;
        for b in cfg.blocks() {
            assert_eq!(b.start, prev_end);
            assert!(!b.is_empty());
            prev_end = b.end;
        }
    }
}
