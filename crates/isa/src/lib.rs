//! `ct-isa` — a compact register ISA used as the measurement substrate.
//!
//! The paper ("Establishing a Base of Trust with Performance Counters for
//! Enterprise Workloads", Nowak et al., USENIX ATC 2015) evaluates sampling
//! accuracy on x86 binaries. This crate provides the stand-in program
//! representation: a small register machine with integer, floating-point,
//! memory and control-flow instructions, plus the static analyses the
//! profiling pipeline needs (symbol tables, control-flow graphs, basic-block
//! maps), the `.ctasm` text assembler ([`asm`], the one way to write a
//! program) and [`disasm::to_asm`], which renders a program back to
//! assembler text.
//!
//! Addresses are instruction indices: every instruction occupies one address
//! slot, so `Addr` arithmetic (`IP+1` and friends — central to the paper's
//! skid analysis) is plain integer arithmetic.
//!
//! # Examples
//!
//! ```
//! use ct_isa::{asm, Cfg};
//!
//! let program = asm::assemble(
//!     "countdown",
//!     r#"
//!     .data 16
//!     .func main
//!         movi r1, 10
//!     loop:
//!         subi r1, r1, 1
//!         brnz r1, loop
//!         halt
//!     .endfunc
//!     "#,
//! )
//! .unwrap();
//! let cfg = Cfg::build(&program);
//! assert_eq!(cfg.blocks().len(), 3);
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

pub mod asm;
pub mod cfg;
pub mod disasm;
pub mod error;
pub mod insn;
pub mod prime;
pub mod program;
pub mod reg;

pub use cfg::{BasicBlock, BlockId, Cfg, Terminator};
pub use error::IsaError;
pub use insn::{Addr, Cond, Insn, InsnClass, Opcode};
pub use program::{Function, Program, SymbolTable};
pub use reg::{FReg, Reg};
