//! Programs: instruction streams plus symbols and a data segment.

use crate::error::IsaError;
use crate::insn::{Addr, Insn, Opcode};
use serde::{Deserialize, Serialize};

/// A named function covering the half-open address range `[entry, end)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Function {
    pub name: String,
    pub entry: Addr,
    pub end: Addr,
}

impl Function {
    /// True when `addr` belongs to this function.
    #[must_use]
    pub fn contains(&self, addr: Addr) -> bool {
        self.entry <= addr && addr < self.end
    }

    /// Number of instructions in the function.
    #[must_use]
    pub fn len(&self) -> usize {
        (self.end - self.entry) as usize
    }

    /// True when the function covers no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entry == self.end
    }
}

/// A sorted, non-overlapping table of functions covering the whole program.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SymbolTable {
    functions: Vec<Function>,
}

impl SymbolTable {
    /// Builds a table from functions; sorts them by entry address.
    #[must_use]
    pub fn new(mut functions: Vec<Function>) -> Self {
        functions.sort_by_key(|f| f.entry);
        Self { functions }
    }

    /// All functions, sorted by entry address.
    #[must_use]
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// Looks a function up by name.
    #[must_use]
    pub fn by_name(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Returns the index (into [`SymbolTable::functions`]) of the function
    /// containing `addr`.
    #[must_use]
    pub fn index_containing(&self, addr: Addr) -> Option<usize> {
        let idx = self.functions.partition_point(|f| f.entry <= addr);
        idx.checked_sub(1)
            .filter(|&i| self.functions[i].contains(addr))
    }

    /// True when `addr` is the entry of some function.
    #[must_use]
    pub fn is_entry(&self, addr: Addr) -> bool {
        self.functions
            .binary_search_by_key(&addr, |f| f.entry)
            .is_ok()
    }

    /// Validates the table: ranges must be well-formed, non-overlapping and
    /// within `program_len`.
    pub fn validate(&self, program_len: usize) -> Result<(), IsaError> {
        let mut prev_end = 0u32;
        for f in &self.functions {
            if f.entry > f.end {
                return Err(IsaError::MalformedSymbolTable {
                    detail: format!("function {} has entry {} > end {}", f.name, f.entry, f.end),
                });
            }
            if f.entry < prev_end {
                return Err(IsaError::MalformedSymbolTable {
                    detail: format!("function {} overlaps its predecessor", f.name),
                });
            }
            if f.end as usize > program_len {
                return Err(IsaError::MalformedSymbolTable {
                    detail: format!("function {} extends past program end", f.name),
                });
            }
            prev_end = f.end;
        }
        Ok(())
    }
}

/// A complete program: code, symbols and data-segment description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// Human-readable workload name (used in reports).
    pub name: String,
    /// The instruction stream; `insns[a]` lives at address `a`.
    pub insns: Vec<Insn>,
    /// Function table.
    pub symbols: SymbolTable,
    /// Size of the data segment in 64-bit words.
    pub data_words: usize,
    /// Sparse initial data values `(word_index, value)`.
    pub init_data: Vec<(usize, i64)>,
    /// Entry point (defaults to 0).
    pub entry: Addr,
}

impl Program {
    /// Creates a program and validates it.
    pub fn new(
        name: impl Into<String>,
        insns: Vec<Insn>,
        symbols: SymbolTable,
        data_words: usize,
    ) -> Result<Self, IsaError> {
        let p = Self {
            name: name.into(),
            insns,
            symbols,
            data_words,
            init_data: Vec::new(),
            entry: 0,
        };
        p.validate()?;
        Ok(p)
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// True when the program has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// Fetches the instruction at `addr`.
    ///
    /// # Panics
    ///
    /// Panics when `addr` is out of range; executing an out-of-range address
    /// is a simulator bug, not a recoverable condition.
    #[must_use]
    pub fn fetch(&self, addr: Addr) -> Insn {
        self.insns[addr as usize]
    }

    /// Checks structural invariants: non-empty, in-range control-flow
    /// targets, call targets are function entries, and control cannot fall
    /// off the end.
    pub fn validate(&self) -> Result<(), IsaError> {
        if self.insns.is_empty() {
            return Err(IsaError::EmptyProgram);
        }
        self.symbols.validate(self.insns.len())?;
        let len = self.insns.len() as Addr;
        for (i, insn) in self.insns.iter().enumerate() {
            let at = i as Addr;
            if let Some(t) = insn.direct_target() {
                if t >= len {
                    return Err(IsaError::TargetOutOfRange { at, target: t });
                }
                if matches!(insn.op, Opcode::Call(_)) && !self.symbols.is_entry(t) {
                    return Err(IsaError::CallTargetNotFunction { at, target: t });
                }
            }
        }
        // The final instruction must not permit a fallthrough off the end.
        let last = self.insns[self.insns.len() - 1];
        let ends = matches!(
            last.op,
            Opcode::Halt | Opcode::Ret | Opcode::Jmp(_) | Opcode::JmpInd(_)
        );
        if !ends {
            return Err(IsaError::FallsOffEnd);
        }
        Ok(())
    }

    /// Total static count of instructions per class, useful for workload
    /// characterization reports.
    #[must_use]
    pub fn class_histogram(&self) -> std::collections::BTreeMap<String, usize> {
        let mut h = std::collections::BTreeMap::new();
        for insn in &self.insns {
            *h.entry(format!("{:?}", insn.class())).or_insert(0) += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::names::*;

    fn insn(op: Opcode) -> Insn {
        Insn::new(op)
    }

    fn tiny() -> Program {
        let insns = vec![
            insn(Opcode::MovI(R1, 3)),
            insn(Opcode::SubI(R1, R1, 1)),
            insn(Opcode::Brnz(R1, 1)),
            insn(Opcode::Halt),
        ];
        let sym = SymbolTable::new(vec![Function {
            name: "main".into(),
            entry: 0,
            end: 4,
        }]);
        Program::new("tiny", insns, sym, 0).unwrap()
    }

    #[test]
    fn validates_ok() {
        let p = tiny();
        assert_eq!(p.len(), 4);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn rejects_out_of_range_target() {
        let insns = vec![insn(Opcode::Jmp(9)), insn(Opcode::Halt)];
        let sym = SymbolTable::new(vec![Function {
            name: "main".into(),
            entry: 0,
            end: 2,
        }]);
        let err = Program::new("bad", insns, sym, 0).unwrap_err();
        assert!(matches!(err, IsaError::TargetOutOfRange { .. }));
    }

    #[test]
    fn rejects_call_to_non_function() {
        let insns = vec![insn(Opcode::Call(1)), insn(Opcode::Nop), insn(Opcode::Halt)];
        let sym = SymbolTable::new(vec![Function {
            name: "main".into(),
            entry: 0,
            end: 3,
        }]);
        let err = Program::new("bad", insns, sym, 0).unwrap_err();
        assert!(matches!(err, IsaError::CallTargetNotFunction { .. }));
    }

    #[test]
    fn rejects_fallthrough_off_end() {
        let insns = vec![insn(Opcode::Nop)];
        let sym = SymbolTable::new(vec![Function {
            name: "main".into(),
            entry: 0,
            end: 1,
        }]);
        let err = Program::new("bad", insns, sym, 0).unwrap_err();
        assert_eq!(err, IsaError::FallsOffEnd);
    }

    #[test]
    fn rejects_empty() {
        let err = Program::new("bad", vec![], SymbolTable::default(), 0).unwrap_err();
        assert_eq!(err, IsaError::EmptyProgram);
    }

    #[test]
    fn symbol_lookup() {
        let sym = SymbolTable::new(vec![
            Function {
                name: "b".into(),
                entry: 10,
                end: 20,
            },
            Function {
                name: "a".into(),
                entry: 0,
                end: 10,
            },
        ]);
        // Sorted by entry: `a` is function 0, `b` function 1.
        let containing = |addr| sym.index_containing(addr);
        assert_eq!(
            [0, 9, 10, 19, 20].map(containing),
            [Some(0), Some(0), Some(1), Some(1), None]
        );
        assert!(sym.is_entry(10));
        assert!(!sym.is_entry(11));
        assert_eq!(sym.by_name("b").unwrap().entry, 10);
    }

    #[test]
    fn symbol_gap_lookup_is_none() {
        let sym = SymbolTable::new(vec![
            Function {
                name: "a".into(),
                entry: 0,
                end: 5,
            },
            Function {
                name: "b".into(),
                entry: 8,
                end: 12,
            },
        ]);
        assert_eq!(sym.index_containing(8), Some(1));
        assert_eq!(sym.index_containing(6), None);
    }

    #[test]
    fn symbol_overlap_rejected() {
        let sym = SymbolTable::new(vec![
            Function {
                name: "a".into(),
                entry: 0,
                end: 6,
            },
            Function {
                name: "b".into(),
                entry: 4,
                end: 12,
            },
        ]);
        assert!(sym.validate(12).is_err());
    }

    #[test]
    fn class_histogram_counts() {
        let p = tiny();
        let h = p.class_histogram();
        assert_eq!(h.get("Alu"), Some(&2));
        assert_eq!(h.get("Branch"), Some(&1));
    }
}
