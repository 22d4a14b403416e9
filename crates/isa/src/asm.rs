//! A small two-pass text assembler — the front-end of the
//! workloads-as-data pipeline.
//!
//! The syntax mirrors the disassembler output, with labels instead of
//! numeric targets, plus named constants and constant expressions:
//!
//! ```text
//! .const ROWS = 32            ; named constants, usable in any integer slot
//! .const COLS = ROWS * 2      ; expressions may reference earlier constants
//! .data ROWS * COLS           ; data segment size in words
//! .init 10, 42                ; mem[10] = 42
//! .init 11, 1, 2, 3           ; mem[11..14] = 1, 2, 3 (value list)
//! .init 20..24, -1            ; mem[20..24) = -1      (range fill)
//! .func main
//!     movi r1, ROWS * COLS
//! loop:
//!     subi r1, r1, 1
//!     brnz r1, loop
//!     halt
//! .endfunc
//! ```
//!
//! Integer operands are constant expressions over `+ - * / %`, unary
//! `+`/`-`, parentheses, decimal and `0x` hex literals, and `.const`
//! names (defined before use). Parentheses and unary signs nest at
//! most [`MAX_EXPR_DEPTH`] deep, so a hostile operand is a syntax error
//! rather than a stack overflow. Comments start with `;` or `#`. Branch
//! targets may also be written as `@N` absolute addresses (as produced
//! by the disassembler for round-trip tests).
//!
//! Every diagnostic carries the 1-based source line, and — for syntax
//! errors — the 1-based column of the offending token, so a catalog
//! loader can point at the exact spot in a tenant-supplied file.
//!
//! The data segment is hard-bounded at [`MAX_DATA_WORDS`]: `.data`
//! sizes and `.init` indices past the bound (notably huge `.init
//! LO..HI` range fills), and `.init` lines that together set more words
//! than the bound, are rejected before any memory is laid out, so
//! assembling a hostile file never allocates unboundedly.
//!
//! [`assemble_with`] additionally takes **constant overrides**: the
//! loader's hook for scaling a checked-in program (`.const ITERS =
//! 1900000` in the file, `ITERS = 19000` at load time) without editing
//! the source. Overriding a name the source never defines is a typed
//! error ([`IsaError::UnknownOverride`]) — the manifest/source mismatch
//! guard.

use crate::error::IsaError;
use crate::insn::{Addr, Cond, Insn, Opcode};
use crate::program::{Function, Program, SymbolTable};
use crate::reg::{FReg, Reg};
use std::collections::{HashMap, HashSet};

/// Hard upper bound on the data segment the assembler will lay out: no
/// `.data` size and no `.init` index (including every index implied by
/// a `.init LO..HI` range fill) may reach past this many words, and all
/// `.init` lines together may set at most this many words.
///
/// This is a structural bound of the front-end, enforced *before* any
/// fill loop runs, so a hostile source line like
/// `.init 0..0x4000000000000000, 1` is a typed
/// [`IsaError::DataTooLarge`] instead of an unbounded allocation.
/// Catalog loaders layer their own tighter, configurable caps on top
/// after assembly (see `workloads::loader::LoaderLimits`).
pub const MAX_DATA_WORDS: usize = 1 << 24;

/// How deep parentheses and unary `+`/`-` may nest in one constant
/// expression. The evaluator recurses once per level, so the bound keeps
/// a hostile operand such as 100,000 `(` from overflowing the stack.
pub const MAX_EXPR_DEPTH: usize = 64;

/// Assembles `source` into a validated [`Program`] named `name`.
pub fn assemble(name: &str, source: &str) -> Result<Program, IsaError> {
    assemble_with(name, source, &[])
}

/// Assembles `source` with `.const` overrides: each `(name, value)`
/// pair replaces the value of the `.const name = …` definition in the
/// source (the definition's own expression is still parsed, then
/// discarded). Every override must name a constant the source defines.
pub fn assemble_with(
    name: &str,
    source: &str,
    overrides: &[(&str, i64)],
) -> Result<Program, IsaError> {
    Assembler::new(overrides).run(name, source)
}

/// Per-line parse context: the 1-based line number plus the raw line
/// text, from which token columns are recovered by pointer arithmetic
/// (every operand is a subslice of the raw line).
#[derive(Clone, Copy)]
struct Ctx<'s> {
    line: usize,
    raw: &'s str,
}

impl<'s> Ctx<'s> {
    /// 1-based column of `token` within the raw line (0 when the token
    /// is not a subslice of it — never the case for assembler-produced
    /// slices).
    fn col_of(&self, token: &str) -> usize {
        let raw_start = self.raw.as_ptr() as usize;
        let tok_start = token.as_ptr() as usize;
        if (raw_start..raw_start + self.raw.len() + 1).contains(&tok_start) {
            tok_start - raw_start + 1
        } else {
            0
        }
    }

    /// A syntax error at `token`.
    fn err(&self, token: &str, detail: impl Into<String>) -> IsaError {
        IsaError::Parse {
            line: self.line,
            col: self.col_of(token),
            detail: detail.into(),
        }
    }
}

struct Assembler<'o> {
    insns: Vec<Insn>,
    labels: HashMap<String, Addr>,
    consts: HashMap<String, i64>,
    overrides: &'o [(&'o str, i64)],
    overridden: HashSet<String>,
    funcs: Vec<Function>,
    /// `(name, entry, line of the .func)` — the line makes the
    /// unclosed-function diagnostic point at the opener.
    open_func: Option<(String, Addr, usize)>,
    data_words: usize,
    init_data: Vec<(usize, i64)>,
    // (insn index, label, line, col) patched in pass 2
    fixups: Vec<(usize, String, usize, usize)>,
    // call fixups resolved against function names
    call_fixups: Vec<(usize, String, usize, usize)>,
}

impl<'o> Assembler<'o> {
    fn new(overrides: &'o [(&'o str, i64)]) -> Self {
        Self {
            insns: Vec::new(),
            labels: HashMap::new(),
            consts: HashMap::new(),
            overrides,
            overridden: HashSet::new(),
            funcs: Vec::new(),
            open_func: None,
            data_words: 0,
            init_data: Vec::new(),
            fixups: Vec::new(),
            call_fixups: Vec::new(),
        }
    }

    fn run(mut self, name: &str, source: &str) -> Result<Program, IsaError> {
        for (lineno, raw) in source.lines().enumerate() {
            let ctx = Ctx {
                line: lineno + 1,
                raw,
            };
            let text = strip_comment(raw).trim();
            if text.is_empty() {
                continue;
            }
            self.line(text, ctx)?;
        }
        if let Some((fname, _, line)) = &self.open_func {
            return Err(IsaError::Parse {
                line: *line,
                col: 1,
                detail: format!("function `{fname}` not closed with .endfunc"),
            });
        }
        if let Some((name, _)) = self
            .overrides
            .iter()
            .find(|(n, _)| !self.overridden.contains(*n))
        {
            return Err(IsaError::UnknownOverride {
                name: (*name).to_string(),
            });
        }
        // Pass 2: patch label and call references.
        for (idx, label, line, col) in std::mem::take(&mut self.fixups) {
            let addr = self.resolve(&label, line, col)?;
            self.insns[idx].op = match self.insns[idx].op {
                Opcode::Jmp(_) => Opcode::Jmp(addr),
                Opcode::Br(c, a, b, _) => Opcode::Br(c, a, b, addr),
                Opcode::Brz(r, _) => Opcode::Brz(r, addr),
                Opcode::Brnz(r, _) => Opcode::Brnz(r, addr),
                other => other,
            };
        }
        for (idx, target, line, col) in std::mem::take(&mut self.call_fixups) {
            let addr = if let Some(f) = self.funcs.iter().find(|f| f.name == target) {
                f.entry
            } else {
                self.resolve(&target, line, col)?
            };
            self.insns[idx].op = Opcode::Call(addr);
        }
        let mut p = Program::new(
            name,
            self.insns,
            SymbolTable::new(self.funcs),
            self.data_words,
        )?;
        p.init_data = self.init_data;
        Ok(p)
    }

    fn resolve(&self, label: &str, line: usize, col: usize) -> Result<Addr, IsaError> {
        if let Some(rest) = label.strip_prefix('@') {
            return rest.parse().map_err(|_| IsaError::Parse {
                line,
                col,
                detail: format!("bad absolute target `{label}`"),
            });
        }
        self.labels
            .get(label)
            .copied()
            .ok_or_else(|| IsaError::UndefinedLabel {
                line,
                label: label.to_string(),
            })
    }

    /// Evaluates a constant expression in the current constant scope.
    fn eval(&self, text: &str, ctx: Ctx<'_>) -> Result<i64, IsaError> {
        ExprParser {
            ctx,
            consts: &self.consts,
            rest: text.trim(),
            whole: text.trim(),
            depth: 0,
        }
        .parse()
    }

    /// Evaluates an expression and converts it to a non-negative
    /// `usize` (data indices and sizes).
    fn eval_index(&self, text: &str, ctx: Ctx<'_>, what: &str) -> Result<usize, IsaError> {
        let v = self.eval(text, ctx)?;
        usize::try_from(v).map_err(|_| ctx.err(text, format!("{what} must be >= 0, got {v}")))
    }

    fn line(&mut self, text: &str, ctx: Ctx<'_>) -> Result<(), IsaError> {
        if text.starts_with('.') {
            return self.directive(text, ctx);
        }
        if let Some(label) = text.strip_suffix(':') {
            let label = label.trim();
            if self.labels.contains_key(label) {
                return Err(IsaError::DuplicateLabel {
                    line: ctx.line,
                    label: label.to_string(),
                });
            }
            self.labels
                .insert(label.to_string(), self.insns.len() as Addr);
            return Ok(());
        }
        let insn = self.instruction(text, ctx)?;
        self.insns.push(insn);
        Ok(())
    }

    /// Dispatches a dotted directive line. The directive keyword is the
    /// whole first token, matched exactly — `.database 8` is an unknown
    /// directive, not `.data` with operand `base 8`.
    fn directive(&mut self, text: &str, ctx: Ctx<'_>) -> Result<(), IsaError> {
        let (dir, rest) = match text.split_once(char::is_whitespace) {
            Some((d, r)) => (d, r.trim()),
            None => (text, ""),
        };
        match dir {
            ".const" => {
                let (cname, expr) = rest
                    .split_once('=')
                    .ok_or_else(|| ctx.err(rest, ".const takes `NAME = expression`"))?;
                let cname = cname.trim();
                if !is_const_name(cname) {
                    return Err(ctx.err(
                        cname,
                        format!("bad constant name `{cname}` (want [A-Za-z_][A-Za-z0-9_]*)"),
                    ));
                }
                if self.consts.contains_key(cname) {
                    return Err(IsaError::DuplicateConst {
                        line: ctx.line,
                        name: cname.to_string(),
                    });
                }
                // The declared expression is always parsed (so a broken
                // default cannot hide behind an override), then the
                // override value wins.
                let declared = self.eval(expr, ctx)?;
                let value = match self.overrides.iter().find(|(n, _)| *n == cname) {
                    Some((_, v)) => {
                        self.overridden.insert(cname.to_string());
                        *v
                    }
                    None => declared,
                };
                self.consts.insert(cname.to_string(), value);
                Ok(())
            }
            ".data" => {
                let words = self.eval_index(rest, ctx, ".data size")?;
                self.check_data_bound(words, ctx.line)?;
                self.data_words = words;
                Ok(())
            }
            ".init" => self.init_directive(rest, ctx),
            ".func" => {
                if let Some((open, _, line)) = &self.open_func {
                    return Err(ctx.err(
                        text,
                        format!(
                            "nested .func (function `{open}` opened on line {line} is still open)"
                        ),
                    ));
                }
                if rest.is_empty() {
                    return Err(ctx.err(text, ".func needs a name"));
                }
                self.open_func = Some((rest.to_string(), self.insns.len() as Addr, ctx.line));
                Ok(())
            }
            ".endfunc" => {
                if !rest.is_empty() {
                    return Err(ctx.err(rest, ".endfunc takes no operands"));
                }
                let (fname, entry, _) = self
                    .open_func
                    .take()
                    .ok_or_else(|| ctx.err(text, ".endfunc without .func"))?;
                self.funcs.push(Function {
                    name: fname,
                    entry,
                    end: self.insns.len() as Addr,
                });
                Ok(())
            }
            other => Err(ctx.err(
                text,
                format!("unknown directive `{other}` (expected .const/.data/.init/.func/.endfunc)"),
            )),
        }
    }

    /// The `.init` directive in its three forms:
    ///
    /// * `.init IDX, VALUE` — one word;
    /// * `.init IDX, V0, V1, …` — consecutive words starting at `IDX`;
    /// * `.init LO..HI, VALUE` — fill the half-open range `[LO, HI)`.
    fn init_directive(&mut self, rest: &str, ctx: Ctx<'_>) -> Result<(), IsaError> {
        let parts: Vec<&str> = rest.split(',').map(str::trim).collect();
        if parts.len() < 2 || parts[0].is_empty() {
            return Err(ctx.err(rest, ".init takes `index, value…` or `lo..hi, value`"));
        }
        if let Some((lo_text, hi_text)) = parts[0].split_once("..") {
            if parts.len() != 2 {
                return Err(ctx.err(parts[2], ".init range fill takes exactly one value"));
            }
            let lo = self.eval_index(lo_text, ctx, ".init range start")?;
            let hi = self.eval_index(hi_text, ctx, ".init range end")?;
            if hi < lo {
                return Err(ctx.err(parts[0], format!(".init range {lo}..{hi} is reversed")));
            }
            // Bound the range BEFORE the fill: a huge `hi` must be a
            // diagnostic, not 2^60 pushes, and so must a fill that takes
            // the words set by all `.init` lines past the bound.
            self.check_data_bound(hi, ctx.line)?;
            self.check_data_bound(self.init_data.len() + (hi - lo), ctx.line)?;
            let value = self.eval(parts[1], ctx)?;
            self.init_data.extend((lo..hi).map(|idx| (idx, value)));
            if hi > lo {
                self.data_words = self.data_words.max(hi);
            }
            return Ok(());
        }
        let start = self.eval_index(parts[0], ctx, ".init index")?;
        for (k, part) in parts[1..].iter().enumerate() {
            let value = self.eval(part, ctx)?;
            self.push_init(start.saturating_add(k), value, ctx)?;
        }
        Ok(())
    }

    /// Errors when a data index, size or `.init` word count reaches past
    /// [`MAX_DATA_WORDS`].
    fn check_data_bound(&self, words: usize, line: usize) -> Result<(), IsaError> {
        if words > MAX_DATA_WORDS {
            return Err(IsaError::DataTooLarge {
                line,
                words,
                limit: MAX_DATA_WORDS,
            });
        }
        Ok(())
    }

    fn push_init(&mut self, idx: usize, value: i64, ctx: Ctx<'_>) -> Result<(), IsaError> {
        self.check_data_bound(idx.saturating_add(1), ctx.line)?;
        self.check_data_bound(self.init_data.len() + 1, ctx.line)?;
        self.init_data.push((idx, value));
        if idx >= self.data_words {
            self.data_words = idx + 1;
        }
        Ok(())
    }

    fn instruction(&mut self, text: &str, ctx: Ctx<'_>) -> Result<Insn, IsaError> {
        let (mnemonic, rest) = match text.split_once(char::is_whitespace) {
            Some((m, r)) => (m, r.trim()),
            None => (text, ""),
        };
        let ops: Vec<&str> = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split(',').map(str::trim).collect()
        };
        let idx = self.insns.len();

        macro_rules! rrr {
            ($variant:ident) => {{
                expect_ops(&ops, 3, mnemonic, ctx)?;
                Opcode::$variant(reg(ops[0], ctx)?, reg(ops[1], ctx)?, reg(ops[2], ctx)?)
            }};
        }
        macro_rules! rri {
            ($variant:ident) => {{
                expect_ops(&ops, 3, mnemonic, ctx)?;
                Opcode::$variant(
                    reg(ops[0], ctx)?,
                    reg(ops[1], ctx)?,
                    self.eval(ops[2], ctx)?,
                )
            }};
        }
        macro_rules! fff {
            ($variant:ident) => {{
                expect_ops(&ops, 3, mnemonic, ctx)?;
                Opcode::$variant(freg(ops[0], ctx)?, freg(ops[1], ctx)?, freg(ops[2], ctx)?)
            }};
        }

        let op = match mnemonic {
            "add" => rrr!(Add),
            "sub" => rrr!(Sub),
            "mul" => rrr!(Mul),
            "div" => rrr!(Div),
            "rem" => rrr!(Rem),
            "and" => rrr!(And),
            "or" => rrr!(Or),
            "xor" => rrr!(Xor),
            "shl" => rrr!(Shl),
            "shr" => rrr!(Shr),
            "addi" => rri!(AddI),
            "subi" => rri!(SubI),
            "muli" => rri!(MulI),
            "andi" => rri!(AndI),
            "xori" => rri!(XorI),
            "mov" => {
                expect_ops(&ops, 2, mnemonic, ctx)?;
                Opcode::Mov(reg(ops[0], ctx)?, reg(ops[1], ctx)?)
            }
            "movi" => {
                expect_ops(&ops, 2, mnemonic, ctx)?;
                Opcode::MovI(reg(ops[0], ctx)?, self.eval(ops[1], ctx)?)
            }
            "fadd" => fff!(FAdd),
            "fsub" => fff!(FSub),
            "fmul" => fff!(FMul),
            "fdiv" => fff!(FDiv),
            "fsqrt" => {
                expect_ops(&ops, 2, mnemonic, ctx)?;
                Opcode::FSqrt(freg(ops[0], ctx)?, freg(ops[1], ctx)?)
            }
            "fmov" => {
                expect_ops(&ops, 2, mnemonic, ctx)?;
                Opcode::FMov(freg(ops[0], ctx)?, freg(ops[1], ctx)?)
            }
            "fmovi" => {
                expect_ops(&ops, 2, mnemonic, ctx)?;
                let v: f64 = ops[1]
                    .parse()
                    .map_err(|_| ctx.err(ops[1], format!("bad float `{}`", ops[1])))?;
                Opcode::FMovI(freg(ops[0], ctx)?, v)
            }
            "cvtif" => {
                expect_ops(&ops, 2, mnemonic, ctx)?;
                Opcode::CvtIF(freg(ops[0], ctx)?, reg(ops[1], ctx)?)
            }
            "cvtfi" => {
                expect_ops(&ops, 2, mnemonic, ctx)?;
                Opcode::CvtFI(reg(ops[0], ctx)?, freg(ops[1], ctx)?)
            }
            "load" => {
                expect_ops(&ops, 2, mnemonic, ctx)?;
                let (b, o) = self.mem_operand(ops[1], ctx)?;
                Opcode::Load(reg(ops[0], ctx)?, b, o)
            }
            "store" => {
                expect_ops(&ops, 2, mnemonic, ctx)?;
                let (b, o) = self.mem_operand(ops[1], ctx)?;
                Opcode::Store(reg(ops[0], ctx)?, b, o)
            }
            "fload" => {
                expect_ops(&ops, 2, mnemonic, ctx)?;
                let (b, o) = self.mem_operand(ops[1], ctx)?;
                Opcode::FLoad(freg(ops[0], ctx)?, b, o)
            }
            "fstore" => {
                expect_ops(&ops, 2, mnemonic, ctx)?;
                let (b, o) = self.mem_operand(ops[1], ctx)?;
                Opcode::FStore(freg(ops[0], ctx)?, b, o)
            }
            "jmp" => {
                expect_ops(&ops, 1, mnemonic, ctx)?;
                self.fixups
                    .push((idx, ops[0].to_string(), ctx.line, ctx.col_of(ops[0])));
                Opcode::Jmp(0)
            }
            "jmpind" => {
                expect_ops(&ops, 1, mnemonic, ctx)?;
                Opcode::JmpInd(reg(ops[0], ctx)?)
            }
            "breq" | "brne" | "brlt" | "brle" | "brgt" | "brge" => {
                expect_ops(&ops, 3, mnemonic, ctx)?;
                let cond = match &mnemonic[2..] {
                    "eq" => Cond::Eq,
                    "ne" => Cond::Ne,
                    "lt" => Cond::Lt,
                    "le" => Cond::Le,
                    "gt" => Cond::Gt,
                    _ => Cond::Ge,
                };
                self.fixups
                    .push((idx, ops[2].to_string(), ctx.line, ctx.col_of(ops[2])));
                Opcode::Br(cond, reg(ops[0], ctx)?, reg(ops[1], ctx)?, 0)
            }
            "brz" => {
                expect_ops(&ops, 2, mnemonic, ctx)?;
                self.fixups
                    .push((idx, ops[1].to_string(), ctx.line, ctx.col_of(ops[1])));
                Opcode::Brz(reg(ops[0], ctx)?, 0)
            }
            "brnz" => {
                expect_ops(&ops, 2, mnemonic, ctx)?;
                self.fixups
                    .push((idx, ops[1].to_string(), ctx.line, ctx.col_of(ops[1])));
                Opcode::Brnz(reg(ops[0], ctx)?, 0)
            }
            "call" => {
                expect_ops(&ops, 1, mnemonic, ctx)?;
                self.call_fixups
                    .push((idx, ops[0].to_string(), ctx.line, ctx.col_of(ops[0])));
                Opcode::Call(0)
            }
            "callind" => {
                expect_ops(&ops, 1, mnemonic, ctx)?;
                Opcode::CallInd(reg(ops[0], ctx)?)
            }
            "ret" => Opcode::Ret,
            "nop" => Opcode::Nop,
            "halt" => Opcode::Halt,
            other => return Err(ctx.err(mnemonic, format!("unknown mnemonic `{other}`"))),
        };
        Ok(Insn::new(op))
    }

    /// Parses `[rN]` / `[rN+expr]` / `[rN-expr]`.
    fn mem_operand(&self, s: &str, ctx: Ctx<'_>) -> Result<(Reg, i64), IsaError> {
        let inner = s
            .strip_prefix('[')
            .and_then(|x| x.strip_suffix(']'))
            .ok_or_else(|| ctx.err(s, format!("bad memory operand `{s}`")))?;
        let (base, off) = match inner.find(['+', '-']) {
            Some(i) => {
                let (b, rest) = inner.split_at(i);
                (b.trim(), self.eval(rest, ctx)?)
            }
            None => (inner.trim(), 0),
        };
        Ok((reg(base, ctx)?, off))
    }
}

// --- constant expressions ---------------------------------------------------

/// True when `s` is a valid `.const` name: `[A-Za-z_][A-Za-z0-9_]*`.
fn is_const_name(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Recursive-descent evaluator for integer constant expressions:
///
/// ```text
/// expr  := term  (('+' | '-') term)*
/// term  := unary (('*' | '/' | '%') unary)*
/// unary := ('+' | '-') unary | atom
/// atom  := INT | 0xHEX | NAME | '(' expr ')'
/// ```
///
/// Arithmetic is wrapping two's-complement `i64` except division and
/// remainder by zero, which are diagnostics (a tenant file must never
/// panic the loader).
struct ExprParser<'a, 's> {
    ctx: Ctx<'s>,
    consts: &'a HashMap<String, i64>,
    rest: &'s str,
    whole: &'s str,
    /// Signs and open parentheses enclosing the current position.
    depth: usize,
}

impl ExprParser<'_, '_> {
    fn parse(mut self) -> Result<i64, IsaError> {
        if self.whole.is_empty() {
            return Err(self.ctx.err(self.whole, "empty expression"));
        }
        let v = self.expr()?;
        self.skip_ws();
        if !self.rest.is_empty() {
            return Err(self.ctx.err(
                self.rest,
                format!("trailing `{}` after expression", self.rest),
            ));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start();
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.rest.chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.rest = &self.rest[c.len_utf8()..];
        Some(c)
    }

    fn expr(&mut self) -> Result<i64, IsaError> {
        let mut acc = self.term()?;
        while let Some(op) = self.peek() {
            match op {
                '+' => {
                    self.bump();
                    acc = acc.wrapping_add(self.term()?);
                }
                '-' => {
                    self.bump();
                    acc = acc.wrapping_sub(self.term()?);
                }
                _ => break,
            }
        }
        Ok(acc)
    }

    fn term(&mut self) -> Result<i64, IsaError> {
        let mut acc = self.unary()?;
        while let Some(op) = self.peek() {
            match op {
                '*' => {
                    self.bump();
                    acc = acc.wrapping_mul(self.unary()?);
                }
                '/' | '%' => {
                    let at = self.rest;
                    self.bump();
                    let rhs = self.unary()?;
                    if rhs == 0 {
                        return Err(self.ctx.err(at, "division by zero in expression"));
                    }
                    acc = if op == '/' {
                        acc.wrapping_div(rhs)
                    } else {
                        acc.wrapping_rem(rhs)
                    };
                }
                _ => break,
            }
        }
        Ok(acc)
    }

    fn unary(&mut self) -> Result<i64, IsaError> {
        let Some(op @ ('-' | '+' | '(')) = self.peek() else {
            return self.atom();
        };
        if self.depth == MAX_EXPR_DEPTH {
            return Err(self.ctx.err(
                self.rest,
                format!("expression nests deeper than {MAX_EXPR_DEPTH} levels"),
            ));
        }
        self.depth += 1;
        self.bump();
        let v = match op {
            '-' => self.unary()?.wrapping_neg(),
            '+' => self.unary()?,
            _ => {
                let v = self.expr()?;
                if self.peek() != Some(')') {
                    return Err(self.ctx.err(self.rest, "expected `)`"));
                }
                self.bump();
                v
            }
        };
        self.depth -= 1;
        Ok(v)
    }

    fn atom(&mut self) -> Result<i64, IsaError> {
        self.skip_ws();
        let start = self.rest;
        let Some(first) = start.chars().next() else {
            return Err(self.ctx.err(self.whole, "expression ends unexpectedly"));
        };
        if first.is_ascii_digit() {
            let len = start
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(start.len());
            let (tok, rest) = start.split_at(len);
            self.rest = rest;
            let parsed = if let Some(hex) = tok.strip_prefix("0x") {
                i64::from_str_radix(hex, 16)
            } else {
                tok.parse()
            };
            return parsed.map_err(|_| self.ctx.err(tok, format!("bad integer `{tok}`")));
        }
        if first.is_ascii_alphabetic() || first == '_' {
            let len = start
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(start.len());
            let (tok, rest) = start.split_at(len);
            self.rest = rest;
            return self
                .consts
                .get(tok)
                .copied()
                .ok_or_else(|| IsaError::UndefinedConst {
                    line: self.ctx.line,
                    col: self.ctx.col_of(tok),
                    name: tok.to_string(),
                });
        }
        Err(self
            .ctx
            .err(start, format!("unexpected `{first}` in expression")))
    }
}

// --- token helpers ----------------------------------------------------------

fn strip_comment(line: &str) -> &str {
    match line.find([';', '#']) {
        Some(i) => &line[..i],
        None => line,
    }
}

fn expect_ops(ops: &[&str], n: usize, mnemonic: &str, ctx: Ctx<'_>) -> Result<(), IsaError> {
    if ops.len() != n {
        return Err(ctx.err(
            mnemonic,
            format!("`{mnemonic}` takes {n} operands, got {}", ops.len()),
        ));
    }
    Ok(())
}

fn reg(s: &str, ctx: Ctx<'_>) -> Result<Reg, IsaError> {
    s.strip_prefix('r')
        .and_then(|n| n.parse::<u8>().ok())
        .and_then(Reg::try_new)
        .ok_or_else(|| ctx.err(s, format!("bad register `{s}`")))
}

fn freg(s: &str, ctx: Ctx<'_>) -> Result<FReg, IsaError> {
    s.strip_prefix('f')
        .and_then(|n| n.parse::<u8>().ok())
        .and_then(FReg::try_new)
        .ok_or_else(|| ctx.err(s, format!("bad fp register `{s}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::names::*;

    #[test]
    fn assembles_loop() {
        let p = assemble(
            "t",
            r#"
            .data 8
            .func main
                movi r1, 10
            top:
                subi r1, r1, 1
                brnz r1, top
                halt
            .endfunc
            "#,
        )
        .unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p.insns[2].op, Opcode::Brnz(R1, 1));
        assert_eq!(p.data_words, 8);
    }

    #[test]
    fn memory_operands() {
        let p = assemble(
            "t",
            r#"
            .func main
                movi r2, 0
                load r1, [r2+4]
                store r1, [r2-0]
                fload f1, [r2]
                fstore f1, [r2+8]
                halt
            .endfunc
            "#,
        )
        .unwrap();
        assert_eq!(p.insns[1].op, Opcode::Load(R1, R2, 4));
        assert_eq!(p.insns[3].op, Opcode::FLoad(F1, R2, 0));
    }

    #[test]
    fn call_and_functions() {
        let p = assemble(
            "t",
            r#"
            .func main
                call helper
                halt
            .endfunc
            .func helper
                ret
            .endfunc
            "#,
        )
        .unwrap();
        assert_eq!(p.insns[0].op, Opcode::Call(2));
    }

    #[test]
    fn cond_branches() {
        let p = assemble(
            "t",
            r#"
            .func main
            top:
                breq r1, r2, top
                brlt r1, r2, top
                brge r1, r2, @0
                halt
            .endfunc
            "#,
        )
        .unwrap();
        assert_eq!(p.insns[0].op, Opcode::Br(Cond::Eq, R1, R2, 0));
        assert_eq!(p.insns[2].op, Opcode::Br(Cond::Ge, R1, R2, 0));
    }

    #[test]
    fn undefined_label_errors() {
        let e = assemble("t", ".func main\n jmp nowhere\n halt\n.endfunc\n").unwrap_err();
        assert!(matches!(e, IsaError::UndefinedLabel { line: 2, .. }));
    }

    #[test]
    fn duplicate_label_errors() {
        let e = assemble("t", ".func main\nx:\nx:\n halt\n.endfunc\n").unwrap_err();
        assert!(matches!(e, IsaError::DuplicateLabel { line: 3, .. }));
    }

    #[test]
    fn unknown_mnemonic_errors() {
        let e = assemble("t", ".func main\n frobnicate r1\n.endfunc\n").unwrap_err();
        assert!(matches!(
            e,
            IsaError::Parse {
                line: 2,
                col: 2,
                ..
            }
        ));
    }

    #[test]
    fn unclosed_func_reports_the_opening_line() {
        let e = assemble("t", "; hi\n.func main\n halt\n").unwrap_err();
        match e {
            IsaError::Parse { line, detail, .. } => {
                assert_eq!(line, 2, "points at the .func, not a made-up line 0");
                assert!(detail.contains("main"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn comments_and_hex() {
        let p = assemble(
            "t",
            "; leading comment\n.func main\n movi r1, 0x10 # trailing\n halt\n.endfunc\n",
        )
        .unwrap();
        assert_eq!(p.insns[0].op, Opcode::MovI(R1, 16));
    }

    #[test]
    fn init_directive() {
        let p = assemble("t", ".init 5, -3\n.func main\n halt\n.endfunc\n").unwrap();
        assert_eq!(p.init_data, vec![(5, -3)]);
        assert!(p.data_words >= 6);
    }

    // --- constants and expressions -------------------------------------

    #[test]
    fn consts_fold_in_operands_and_directives() {
        let p = assemble(
            "t",
            r#"
            .const ROWS = 8
            .const COLS = ROWS * 4        ; forward use of earlier const
            .data ROWS * COLS + 2
            .func main
                movi r1, ROWS * COLS
                addi r2, r2, COLS - ROWS
                movi r3, (ROWS + COLS) * 2
                halt
            .endfunc
            "#,
        )
        .unwrap();
        assert_eq!(p.data_words, 8 * 32 + 2);
        assert_eq!(p.insns[0].op, Opcode::MovI(R1, 256));
        assert_eq!(p.insns[1].op, Opcode::AddI(R2, R2, 24));
        assert_eq!(p.insns[2].op, Opcode::MovI(R3, 80));
    }

    #[test]
    fn expressions_support_hex_unary_div_rem() {
        let p = assemble(
            "t",
            ".func main\n movi r1, 0x10 + -6\n movi r2, 7 / 2\n movi r3, 7 % 2\n movi r4, +5\n halt\n.endfunc\n",
        )
        .unwrap();
        assert_eq!(p.insns[0].op, Opcode::MovI(R1, 10));
        assert_eq!(p.insns[1].op, Opcode::MovI(R2, 3));
        assert_eq!(p.insns[2].op, Opcode::MovI(R3, 1));
        assert_eq!(p.insns[3].op, Opcode::MovI(R4, 5));
    }

    #[test]
    fn const_expressions_in_memory_offsets() {
        let p = assemble(
            "t",
            ".const OFF = 6\n.data 16\n.func main\n movi r2, 0\n load r1, [r2+OFF*2]\n halt\n.endfunc\n",
        )
        .unwrap();
        assert_eq!(p.insns[1].op, Opcode::Load(R1, R2, 12));
    }

    #[test]
    fn overrides_replace_const_values() {
        let src = ".const N = 100\n.func main\n movi r1, N\n halt\n.endfunc\n";
        let p = assemble_with("t", src, &[("N", 7)]).unwrap();
        assert_eq!(p.insns[0].op, Opcode::MovI(R1, 7));
        // No override: the declared default holds.
        let p = assemble("t", src).unwrap();
        assert_eq!(p.insns[0].op, Opcode::MovI(R1, 100));
    }

    #[test]
    fn override_of_undefined_const_is_typed_error() {
        let src = ".const N = 100\n.func main\n movi r1, N\n halt\n.endfunc\n";
        let e = assemble_with("t", src, &[("MISSING", 1)]).unwrap_err();
        assert_eq!(
            e,
            IsaError::UnknownOverride {
                name: "MISSING".into()
            }
        );
    }

    #[test]
    fn undefined_const_is_typed_error_with_position() {
        let e = assemble("t", ".func main\n movi r1, NOPE\n halt\n.endfunc\n").unwrap_err();
        match e {
            IsaError::UndefinedConst { line, col, name } => {
                assert_eq!(line, 2);
                assert_eq!(name, "NOPE");
                assert!(col > 0, "column recovered from the operand slice");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn duplicate_const_is_typed_error() {
        let e = assemble(
            "t",
            ".const A = 1\n.const A = 2\n.func main\n halt\n.endfunc\n",
        )
        .unwrap_err();
        assert_eq!(
            e,
            IsaError::DuplicateConst {
                line: 2,
                name: "A".into()
            }
        );
    }

    // --- .init forms ----------------------------------------------------

    #[test]
    fn init_value_list_fills_consecutive_words() {
        let p = assemble("t", ".init 4, 1, 2, 3\n.func main\n halt\n.endfunc\n").unwrap();
        assert_eq!(p.init_data, vec![(4, 1), (5, 2), (6, 3)]);
        assert_eq!(p.data_words, 7);
    }

    #[test]
    fn init_range_fill() {
        let p = assemble("t", ".init 2..5, -1\n.func main\n halt\n.endfunc\n").unwrap();
        assert_eq!(p.init_data, vec![(2, -1), (3, -1), (4, -1)]);
        assert_eq!(p.data_words, 5);
        // Empty range is allowed and fills nothing.
        let p = assemble("t", ".init 3..3, 9\n.data 4\n.func main\n halt\n.endfunc\n").unwrap();
        assert!(p.init_data.is_empty());
    }

    #[test]
    fn huge_init_range_is_rejected_without_allocating() {
        // 2^62 words: must be a typed error, not 2^62 pushes / an OOM.
        let e = assemble(
            "t",
            ".init 0..0x4000000000000000, 1\n.func main\n halt\n.endfunc\n",
        )
        .unwrap_err();
        assert_eq!(
            e,
            IsaError::DataTooLarge {
                line: 1,
                words: 1 << 62,
                limit: MAX_DATA_WORDS
            }
        );
    }

    #[test]
    fn huge_init_index_and_data_size_are_rejected() {
        let e = assemble(
            "t",
            ".init 0x3fffffffffffffff, 1\n.func main\n halt\n.endfunc\n",
        )
        .unwrap_err();
        assert!(matches!(e, IsaError::DataTooLarge { line: 1, .. }), "{e}");
        let e = assemble("t", ".data 0x100000000\n.func main\n halt\n.endfunc\n").unwrap_err();
        assert!(matches!(e, IsaError::DataTooLarge { line: 1, .. }), "{e}");
        // The bound itself is fine for `.data` (no per-word allocation).
        assemble("t", ".data 0x1000000\n.func main\n halt\n.endfunc\n").unwrap();
    }

    #[test]
    fn deeply_nested_expressions_are_parse_errors() {
        let source =
            |operand: String| format!(".func main\n movi r1, {operand}\n halt\n.endfunc\n");
        for (open, close) in [("(", ")"), ("-", "")] {
            let operand = open.repeat(100_000) + "1" + &close.repeat(100_000);
            let (line, col, detail) = parse_err(&source(operand));
            // The operand starts at column 11; the error names the first
            // level past the bound.
            assert_eq!((line, col), (2, 11 + MAX_EXPR_DEPTH), "{detail}");
            assert!(detail.contains("nests deeper than 64"), "{detail}");
        }
        let at_bound = "(".repeat(MAX_EXPR_DEPTH - 1) + "-7" + &")".repeat(MAX_EXPR_DEPTH - 1);
        let p = assemble("t", &source(at_bound)).unwrap();
        assert_eq!(p.insns[0].op, Opcode::MovI(R1, -7));
    }

    #[test]
    fn init_range_with_const_bounds() {
        let p = assemble(
            "t",
            ".const N = 3\n.init N..N*2, 7\n.func main\n halt\n.endfunc\n",
        )
        .unwrap();
        assert_eq!(p.init_data, vec![(3, 7), (4, 7), (5, 7)]);
    }

    // --- malformed forms carry positions --------------------------------

    fn parse_err(src: &str) -> (usize, usize, String) {
        match assemble("t", src).unwrap_err() {
            IsaError::Parse { line, col, detail } => (line, col, detail),
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_const_missing_equals() {
        let (line, col, detail) = parse_err(".const FOO 3\n.func main\n halt\n.endfunc\n");
        assert_eq!(line, 1);
        assert!(col > 0);
        assert!(detail.contains("NAME = expression"));
    }

    #[test]
    fn malformed_const_bad_name() {
        let (line, _, detail) = parse_err(".const 9LIVES = 3\n.func main\n halt\n.endfunc\n");
        assert_eq!(line, 1);
        assert!(detail.contains("bad constant name"));
    }

    #[test]
    fn malformed_init_reversed_range() {
        let (line, _, detail) = parse_err(".init 5..2, 1\n.func main\n halt\n.endfunc\n");
        assert_eq!(line, 1);
        assert!(detail.contains("reversed"));
    }

    #[test]
    fn malformed_init_range_value_list() {
        let (line, _, detail) = parse_err(".init 1..3, 1, 2\n.func main\n halt\n.endfunc\n");
        assert_eq!(line, 1);
        assert!(detail.contains("exactly one value"));
    }

    #[test]
    fn malformed_init_no_value() {
        let (line, _, detail) = parse_err(".init 5\n.func main\n halt\n.endfunc\n");
        assert_eq!(line, 1);
        assert!(detail.contains(".init takes"));
    }

    #[test]
    fn malformed_negative_data_size() {
        let (line, _, detail) = parse_err(".data 2-5\n.func main\n halt\n.endfunc\n");
        assert_eq!(line, 1);
        assert!(detail.contains("must be >= 0"));
    }

    #[test]
    fn malformed_division_by_zero() {
        let (line, _, detail) = parse_err(".func main\n movi r1, 4/0\n halt\n.endfunc\n");
        assert_eq!(line, 2);
        assert!(detail.contains("division by zero"));
    }

    #[test]
    fn malformed_unbalanced_parens() {
        let (line, _, detail) = parse_err(".func main\n movi r1, (3+4\n halt\n.endfunc\n");
        assert_eq!(line, 2);
        assert!(detail.contains("expected `)`"));
    }

    #[test]
    fn malformed_trailing_tokens() {
        let (line, _, detail) = parse_err(".func main\n movi r1, 3 4\n halt\n.endfunc\n");
        assert_eq!(line, 2);
        assert!(detail.contains("trailing"));
    }

    #[test]
    fn malformed_operand_count_points_at_mnemonic() {
        let (line, col, detail) = parse_err(".func main\n add r1, r2\n halt\n.endfunc\n");
        assert_eq!(line, 2);
        assert_eq!(col, 2, "column of the mnemonic on the raw line");
        assert!(detail.contains("takes 3 operands"));
    }

    #[test]
    fn malformed_register_reports_column() {
        let src = ".func main\n add r1, r2, x9\n halt\n.endfunc\n";
        let (line, col, detail) = parse_err(src);
        assert_eq!(line, 2);
        assert!(detail.contains("bad register `x9`"));
        // `x9` starts at column 14 of " add r1, r2, x9".
        assert_eq!(col, 14);
    }

    #[test]
    fn malformed_float_reports_position() {
        let (line, _, detail) = parse_err(".func main\n fmovi f1, abc\n halt\n.endfunc\n");
        assert_eq!(line, 2);
        assert!(detail.contains("bad float"));
    }

    #[test]
    fn malformed_memory_operand() {
        let (line, _, detail) = parse_err(".func main\n load r1, r2+4\n halt\n.endfunc\n");
        assert_eq!(line, 2);
        assert!(detail.contains("bad memory operand"));
    }

    #[test]
    fn malformed_bad_absolute_target() {
        let (line, _, detail) = parse_err(".func main\n jmp @x\n halt\n.endfunc\n");
        assert_eq!(line, 2);
        assert!(detail.contains("bad absolute target"));
    }

    #[test]
    fn malformed_unknown_directive() {
        let (line, _, detail) = parse_err(".dtaa 8\n.func main\n halt\n.endfunc\n");
        assert_eq!(line, 1);
        assert!(detail.contains("unknown directive"));
    }

    #[test]
    fn mistyped_directive_extensions_are_unknown_directives() {
        // Each extends a real directive keyword; bare strip_prefix used
        // to misparse these (`.constN = 5` defined const `N`, …).
        for src in [
            ".constN = 5\n.func main\n halt\n.endfunc\n",
            ".database 8\n.func main\n halt\n.endfunc\n",
            ".funcmain\n halt\n.endfunc\n",
            ".initial 1, 2\n.func main\n halt\n.endfunc\n",
            ".endfunction\n",
        ] {
            let (line, _, detail) = parse_err(src);
            assert_eq!(line, 1, "{src}");
            assert!(detail.contains("unknown directive"), "{src}: {detail}");
        }
    }

    #[test]
    fn endfunc_with_operands_is_rejected() {
        let (line, _, detail) = parse_err(".func main\n halt\n.endfunc main\n");
        assert_eq!(line, 3);
        assert!(detail.contains("takes no operands"));
    }

    #[test]
    fn malformed_nested_func_names_the_open_function() {
        let (line, _, detail) = parse_err(".func main\n.func inner\n halt\n.endfunc\n.endfunc\n");
        assert_eq!(line, 2);
        assert!(detail.contains("`main`"));
    }

    #[test]
    fn malformed_endfunc_without_func() {
        let (line, _, detail) = parse_err(".endfunc\n");
        assert_eq!(line, 1);
        assert!(detail.contains(".endfunc without .func"));
    }
}
