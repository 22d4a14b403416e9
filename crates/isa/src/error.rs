//! Error types for program construction, validation and assembly.

use crate::insn::Addr;
use std::fmt;

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsaError {
    /// A control-flow target points outside the program.
    TargetOutOfRange { at: Addr, target: Addr },
    /// A `call` target is not a known function entry.
    CallTargetNotFunction { at: Addr, target: Addr },
    /// Function address ranges overlap or are out of order.
    MalformedSymbolTable { detail: String },
    /// The program has no instructions.
    EmptyProgram,
    /// The last instruction can fall off the end of the program.
    FallsOffEnd,
    /// Assembler: syntax error. `col` is the 1-based column of the
    /// offending token (0 when the column could not be recovered).
    Parse {
        line: usize,
        col: usize,
        detail: String,
    },
    /// Assembler: a label was referenced but never defined.
    UndefinedLabel { line: usize, label: String },
    /// Assembler: a label was defined more than once.
    DuplicateLabel { line: usize, label: String },
    /// Assembler: an expression referenced an undefined `.const` name.
    UndefinedConst {
        line: usize,
        col: usize,
        name: String,
    },
    /// Assembler: a `.const` name was defined more than once.
    DuplicateConst { line: usize, name: String },
    /// Assembler: [`crate::asm::assemble_with`] was given an override
    /// for a constant the source never defines — a manifest/source
    /// mismatch.
    UnknownOverride { name: String },
    /// Assembler: a `.data` size or `.init` index would grow the data
    /// segment past the assembler's hard bound
    /// ([`crate::asm::MAX_DATA_WORDS`]), or the `.init` lines so far
    /// would together set more words than that bound. Checked before any
    /// fill runs, so a hostile source cannot make assembly itself
    /// allocate more than the bound's worth of `.init` words.
    DataTooLarge {
        line: usize,
        words: usize,
        limit: usize,
    },
}

impl fmt::Display for IsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaError::TargetOutOfRange { at, target } => {
                write!(f, "instruction {at}: branch target {target} out of range")
            }
            IsaError::CallTargetNotFunction { at, target } => {
                write!(
                    f,
                    "instruction {at}: call target {target} is not a function entry"
                )
            }
            IsaError::MalformedSymbolTable { detail } => {
                write!(f, "malformed symbol table: {detail}")
            }
            IsaError::EmptyProgram => write!(f, "program has no instructions"),
            IsaError::FallsOffEnd => {
                write!(
                    f,
                    "control can fall off the end of the program (missing halt/ret)"
                )
            }
            IsaError::Parse { line, col, detail } => {
                if *col > 0 {
                    write!(f, "line {line}:{col}: {detail}")
                } else {
                    write!(f, "line {line}: {detail}")
                }
            }
            IsaError::UndefinedLabel { line, label } => {
                write!(f, "line {line}: undefined label `{label}`")
            }
            IsaError::DuplicateLabel { line, label } => {
                write!(f, "line {line}: duplicate label `{label}`")
            }
            IsaError::UndefinedConst { line, col, name } => {
                if *col > 0 {
                    write!(f, "line {line}:{col}: undefined constant `{name}`")
                } else {
                    write!(f, "line {line}: undefined constant `{name}`")
                }
            }
            IsaError::DuplicateConst { line, name } => {
                write!(f, "line {line}: duplicate constant `{name}`")
            }
            IsaError::UnknownOverride { name } => {
                write!(f, "override names no `.const` in source: `{name}`")
            }
            IsaError::DataTooLarge { line, words, limit } => {
                write!(
                    f,
                    "line {line}: {words} data words exceed the assembler cap of {limit}"
                )
            }
        }
    }
}

impl std::error::Error for IsaError {}
