//! The executor: functional semantics plus retirement-timing accounting.
//!
//! Instructions execute in program order. A retirement clock advances
//! according to the machine model:
//!
//! * up to `retire_width` instructions retire per cycle (bursts);
//! * completion latencies up to `hide_latency` are hidden by the
//!   out-of-order engine; anything longer stalls retirement for
//!   `latency - hide_latency` cycles, after which a burst drains;
//! * a mispredicted branch inserts a `mispredict_penalty` bubble after it
//!   retires;
//! * load latency comes from the two-level cache model.
//!
//! The stream of [`RetireEvent`]s, with their cycle stamps, is the single
//! source of truth consumed by the PMU model.
//!
//! One dispatch loop defines the ISA's semantics, in two instances. The
//! timed one ([`Cpu::run`] and its siblings) drives the machine's timing
//! model. The untimed one ([`count_retired`]) drives none: no cache
//! model, branch predictor or retirement clock, so it needs no machine.
//! It counts retirements per address, which is all the instrumentation
//! reference reads; every machine retires the same instructions, and
//! timing only decides when.

use crate::bpred::BranchPredictor;
use crate::cache::CacheModel;
use crate::error::SimError;
use crate::event::{NullObserver, QuietBudget, RetireEvent, RetireObserver, Skipped};
use crate::machine::MachineModel;
use ct_isa::{Addr, InsnClass, Opcode, Program};

/// Run parameters.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Stop after this many retired instructions (safety fuel).
    pub max_insns: u64,
    /// Initial values for `r1..` (workload inputs).
    pub args: Vec<i64>,
    /// Maximum call-stack depth.
    pub call_stack_limit: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            max_insns: 2_000_000_000,
            args: Vec::new(),
            call_stack_limit: 4096,
        }
    }
}

impl RunConfig {
    /// Convenience constructor setting only the fuel limit.
    #[must_use]
    pub fn with_fuel(max_insns: u64) -> Self {
        Self {
            max_insns,
            ..Self::default()
        }
    }
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A `halt` instruction retired.
    Halted,
    /// The instruction budget ran out.
    FuelExhausted,
}

/// Aggregate statistics for a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    pub instructions: u64,
    pub uops: u64,
    pub cycles: u64,
    pub taken_branches: u64,
    pub mispredicts: u64,
    /// Branch-predictor lookups (conditional + indirect resolutions) —
    /// the denominator for `mispredicts`.
    pub bp_lookups: u64,
    pub l1_hits: u64,
    pub l2_hits: u64,
    pub mem_accesses: u64,
    pub stop: StopReason,
    /// Final value of `r0` (workload result, prevents dead-code illusions).
    pub result: i64,
}

impl RunSummary {
    /// Instructions per cycle over the whole run.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// What an untimed pass ([`count_retired`]) defines: the totals the loop
/// keeps and how the run ended. It has no cycles, mispredicts or cache
/// statistics, because an untimed pass drives no timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetireTotals {
    pub instructions: u64,
    pub uops: u64,
    pub taken_branches: u64,
    pub stop: StopReason,
    /// Final value of `r0`.
    pub result: i64,
}

/// The simulated CPU for one machine model.
///
/// A `Cpu` owns reusable run state — its `SimScratch` (the decoded
/// instruction table, the flat data memory, the call stack) plus the
/// branch predictor tables and the cache tag/stamp arrays — allocated
/// once and *reset* at the start of every [`Cpu::run`]. Replaying `runs ×
/// workloads` on a retained `Cpu` therefore performs zero steady-state
/// heap allocations (pinned by the `alloc_audit` test tier); one-shot
/// `Cpu::new(&m).run(..)` callers pay exactly the old per-run cost.
pub struct Cpu<'m> {
    machine: &'m MachineModel,
    scratch: SimScratch,
    /// Built lazily on first run (construction validates the machine's
    /// cache geometry, which can fail); reset on every later run.
    cache: Option<CacheModel>,
    bpred: BranchPredictor,
    /// The fan-out's per-observer gates, refilled each [`Cpu::run_all`].
    gates: Vec<Gate>,
}

/// Run-to-run reusable interpreter state, timed or not. Every container
/// is cleared or refilled — never re-`vec!`'d — between runs; capacities
/// ratchet up to the largest program replayed and stay there.
struct SimScratch {
    /// Flat data memory, resized (within retained capacity) to the
    /// program's data segment each run.
    mem: Vec<i64>,
    call_stack: Vec<Addr>,
    /// Predecoded instruction table, rebuilt in place each run.
    decoded: Vec<Decoded>,
}

/// The timing model a timed pass drives, reset for the pass.
struct Timing<'a> {
    machine: &'a MachineModel,
    cache: &'a mut CacheModel,
    bpred: &'a mut BranchPredictor,
}

/// The retirement clock of a timed pass (see the module docs).
#[derive(Default)]
struct Clock {
    cycle: u64,
    /// Instructions retired so far in `cycle`.
    slot: u32,
    /// Bubble cycles ahead of the next retirement (after a mispredict).
    pending_bubble: u64,
    retire_width: u32,
    hide_latency: u32,
    mispredict_penalty: u64,
}

impl Clock {
    fn new(machine: &MachineModel) -> Self {
        Self {
            retire_width: machine.retire_width,
            hide_latency: machine.hide_latency,
            mispredict_penalty: u64::from(machine.mispredict_penalty),
            ..Self::default()
        }
    }

    /// Advances the clock for one instruction that completes after
    /// `latency` cycles and returns the cycle it retires in. Afterwards
    /// `slot` is 1 exactly when the instruction opened a new retirement
    /// cycle (it is the cycle head).
    #[inline(always)]
    fn retire(&mut self, latency: u32) -> u64 {
        if self.pending_bubble > 0 {
            self.cycle += self.pending_bubble;
            self.slot = 0;
            self.pending_bubble = 0;
        }
        let stall = u64::from(latency.saturating_sub(self.hide_latency));
        if stall > 0 {
            // Long-latency completion: retirement drains, the instruction
            // retires alone at the head of a fresh cycle and a burst forms
            // behind it.
            self.cycle += stall;
            self.slot = 0;
        }
        if self.slot >= self.retire_width {
            self.cycle += 1;
            self.slot = 0;
        }
        self.slot += 1;
        self.cycle
    }
}

/// One statically-decoded instruction: opcode plus every per-step
/// attribute the dispatch loop would otherwise recompute.
///
/// `Insn::class()`, `Insn::uops()` and `MachineModel::class_latency()`
/// are all matches over the opcode/class enums; executed once per
/// *dynamic* instruction they dominate the interpreter's per-step
/// overhead. Decoding once per *static* instruction at run start turns
/// each step into a single sequential table read — integer fields on one
/// cache line, no allocation, no rematching — and the branch predictor
/// keeps the one remaining dispatch match.
#[derive(Clone, Copy)]
struct Decoded {
    op: Opcode,
    class: InsnClass,
    uops: u32,
    /// `class_latency(class)` for this machine in a timed pass, 0 in an
    /// untimed one; loads still override it with the cache model's access
    /// latency.
    latency: u32,
}

/// One observer's side of the quiet-budget contract (see [`QuietBudget`]).
/// Budgets are kept as limits on the totals the loop counts anyway, so
/// an unseen instruction costs a few compares and no call.
#[derive(Clone, Copy, Default)]
struct Gate {
    /// `(instructions, uops, taken branches)` at the last delivered event.
    seen: Totals,
    /// Deliver the event after which a total exceeds its limit.
    limit: Totals,
    deadline: u64,
    taken_hook: bool,
}

/// `(instructions, uops, taken branches)` retired so far.
type Totals = (u64, u64, u64);

/// What `ev` adds to the totals.
#[inline(always)]
fn units(ev: &RetireEvent) -> Totals {
    (1, u64::from(ev.uops), u64::from(ev.is_taken_branch()))
}

impl Gate {
    #[inline(always)]
    fn arm(&mut self, budget: QuietBudget, totals: Totals) {
        self.seen = totals;
        self.limit = (
            totals.0.saturating_add(budget.insns),
            totals.1.saturating_add(budget.uops),
            totals.2.saturating_add(budget.taken_branches),
        );
        self.deadline = budget.deadline;
        self.taken_hook = budget.taken_hook;
    }

    /// Whether the budget names the event retiring at `cycle` that
    /// brings the totals to `totals`.
    #[inline(always)]
    fn names(&self, totals: Totals, cycle: u64) -> bool {
        totals.0 > self.limit.0
            || totals.1 > self.limit.1
            || totals.2 > self.limit.2
            || cycle >= self.deadline
    }

    /// What retired unseen between the last delivered event and `totals`.
    fn unseen(&self, totals: Totals) -> Skipped {
        Skipped {
            insns: totals.0 - self.seen.0,
            uops: totals.1 - self.seen.1,
            taken_branches: totals.2 - self.seen.2,
        }
    }
}

/// The loop's watch over its one observer: the observer's [`Gate`] plus
/// the head of the current retirement cycle.
#[derive(Default)]
struct Watch {
    /// `(addr, seq)` of the first instruction of the current cycle.
    cycle_head: (Addr, u64),
    gate: Gate,
}

impl Watch {
    /// Delivers `ev` when the budget names it; `totals` include it, and
    /// `heads_cycle` says `ev` is the first retirement of its cycle.
    ///
    /// The callbacks get copies of `ev` made inside their branches, which
    /// keeps the event in registers on the quiet path: only a delivery
    /// writes it to memory.
    #[inline(always)]
    fn observe<O: RetireObserver + ?Sized>(
        &mut self,
        observer: &mut O,
        ev: RetireEvent,
        heads_cycle: bool,
        totals: Totals,
    ) {
        if heads_cycle {
            self.cycle_head = (ev.addr, ev.seq);
        }
        if self.gate.names(totals, ev.cycle) {
            let (di, du, dt) = units(&ev);
            let before = (totals.0 - di, totals.1 - du, totals.2 - dt);
            observer.on_skipped(self.gate.unseen(before), self.cycle_head);
            let delivered = ev;
            observer.on_retire(&delivered);
            self.gate.arm(observer.quiet_budget(), totals);
        } else if self.gate.taken_hook && ev.is_taken_branch() {
            let taken = ev;
            observer.on_taken_branch(&taken);
        }
    }
}

/// The observer set of [`Cpu::run`] and [`Cpu::run_all`], driven by one
/// pass. Each member keeps its own [`Gate`], so it sees exactly the
/// events its own [`QuietBudget`] names, as if it ran alone; toward the
/// loop the set declares the tightest member limit of each quantity, the
/// earliest member deadline, and the taken hook when any member sets it.
///
/// An event the loop delivers reaches, through `on_skipped` and
/// `on_retire`, only the members whose limit it crosses or whose
/// deadline it reaches; each gets its own [`Skipped`] and the shared
/// cycle head, then re-arms. For every other member the event retires
/// unseen (a taken branch still reaches a member that sets the hook).
/// A member that declares no budget sees every event.
struct Fanout<'a, O> {
    members: &'a mut [O],
    /// One gate per member, in the `Cpu`'s retained scratch.
    gates: &'a mut Vec<Gate>,
    /// Totals through the last event the set was told about, delivered
    /// or reported unseen.
    totals: Totals,
    cycle_head: (Addr, u64),
}

impl<'a, O: RetireObserver> Fanout<'a, O> {
    fn new(members: &'a mut [O], gates: &'a mut Vec<Gate>) -> Self {
        gates.clear();
        gates.extend(members.iter().map(|m| {
            let mut gate = Gate::default();
            gate.arm(m.quiet_budget(), (0, 0, 0));
            gate
        }));
        Self {
            members,
            gates,
            totals: (0, 0, 0),
            cycle_head: (0, 0),
        }
    }
}

// Deliveries are rare, so they stay out of line: inlining the member
// loop into the dispatch loop would crowd its registers on every
// instruction. An unseen taken branch is not rare, so its hook inlines.
impl<O: RetireObserver> RetireObserver for Fanout<'_, O> {
    #[inline(never)]
    fn quiet_budget(&self) -> QuietBudget {
        let mut limit = (u64::MAX, u64::MAX, u64::MAX);
        let mut budget = QuietBudget::UNLIMITED;
        for gate in self.gates.iter() {
            limit.0 = limit.0.min(gate.limit.0);
            limit.1 = limit.1.min(gate.limit.1);
            limit.2 = limit.2.min(gate.limit.2);
            budget.deadline = budget.deadline.min(gate.deadline);
            budget.taken_hook |= gate.taken_hook;
        }
        // Every limit is at or past the totals: a member either re-armed
        // on the last event or its limit was not crossed.
        budget.insns = limit.0 - self.totals.0;
        budget.uops = limit.1 - self.totals.1;
        budget.taken_branches = limit.2 - self.totals.2;
        budget
    }

    #[inline(never)]
    fn on_skipped(&mut self, skipped: Skipped, cycle_head: (Addr, u64)) {
        self.totals.0 += skipped.insns;
        self.totals.1 += skipped.uops;
        self.totals.2 += skipped.taken_branches;
        self.cycle_head = cycle_head;
    }

    #[inline(never)]
    fn on_retire(&mut self, ev: &RetireEvent) {
        let before = self.totals;
        let (di, du, dt) = units(ev);
        self.totals = (before.0 + di, before.1 + du, before.2 + dt);
        for (member, gate) in self.members.iter_mut().zip(self.gates.iter_mut()) {
            if gate.names(self.totals, ev.cycle) {
                member.on_skipped(gate.unseen(before), self.cycle_head);
                member.on_retire(ev);
                gate.arm(member.quiet_budget(), self.totals);
            } else if gate.taken_hook && ev.is_taken_branch() {
                member.on_taken_branch(ev);
            }
        }
    }

    #[inline]
    fn on_taken_branch(&mut self, ev: &RetireEvent) {
        for (member, gate) in self.members.iter_mut().zip(self.gates.iter()) {
            if gate.taken_hook {
                member.on_taken_branch(ev);
            }
        }
    }

    #[inline(never)]
    fn on_finish(&mut self, final_cycle: u64) {
        for (member, gate) in self.members.iter_mut().zip(self.gates.iter()) {
            if self.totals != gate.seen {
                member.on_skipped(gate.unseen(self.totals), self.cycle_head);
            }
            member.on_finish(final_cycle);
        }
    }
}

impl<'m> Cpu<'m> {
    /// Creates a CPU implementing `machine`.
    #[must_use]
    pub fn new(machine: &'m MachineModel) -> Self {
        Self {
            machine,
            scratch: SimScratch::new(),
            cache: None,
            bpred: BranchPredictor::new(),
            gates: Vec::new(),
        }
    }

    /// The machine model this CPU implements.
    #[must_use]
    pub fn machine(&self) -> &MachineModel {
        self.machine
    }

    /// Runs `program` to completion in one pass for every observer of
    /// `observers`: each sees exactly the events its own [`QuietBudget`]
    /// names, as [`Cpu::run_observed`] would show it alone, so an
    /// observer that declares nothing sees every retired instruction in
    /// order. The observers' bookkeeping lives in the retained scratch.
    ///
    /// Every run starts from the identical architectural cold state
    /// (cleared memory, empty call stack, invalid cache ways,
    /// weakly-not-taken predictor), so results do not depend on what the
    /// retained scratch ran before — a reused `Cpu` is bit-identical to a
    /// fresh one.
    pub fn run(
        &mut self,
        program: &Program,
        config: &RunConfig,
        observers: &mut [&mut dyn RetireObserver],
    ) -> Result<RunSummary, SimError> {
        self.run_all(program, config, observers)
    }

    /// Like [`Cpu::run`] over observers of one concrete type, whose hooks
    /// then inline into the fan-out instead of paying a virtual call.
    pub fn run_all<O: RetireObserver>(
        &mut self,
        program: &Program,
        config: &RunConfig,
        observers: &mut [O],
    ) -> Result<RunSummary, SimError> {
        let mut gates = std::mem::take(&mut self.gates);
        let summary =
            self.run_timed::<_, true>(program, config, &mut Fanout::new(observers, &mut gates));
        self.gates = gates;
        summary
    }

    /// Like [`Cpu::run`] with exactly one observer, monomorphized over
    /// its concrete type: the loop runs silently between the events the
    /// observer's [`QuietBudget`] names, and its hooks inline into the
    /// loop instead of paying a virtual call.
    pub fn run_observed<O: RetireObserver + ?Sized>(
        &mut self,
        program: &Program,
        config: &RunConfig,
        observer: &mut O,
    ) -> Result<RunSummary, SimError> {
        self.run_timed::<_, true>(program, config, observer)
    }

    /// Like [`Cpu::run`] with no observers at all: the event stream is
    /// not materialized for anyone, leaving the pure interpreter +
    /// timing model (the `sim_replay` bench scenario measures this).
    pub fn run_silent(
        &mut self,
        program: &Program,
        config: &RunConfig,
    ) -> Result<RunSummary, SimError> {
        self.run_timed::<_, false>(program, config, &mut NullObserver)
    }

    /// Resets the timing model (building the cache model on first use,
    /// which validates its geometry), runs the timed loop and adds the
    /// timing model's counts to the pass's totals.
    fn run_timed<O: RetireObserver + ?Sized, const OBSERVED: bool>(
        &mut self,
        program: &Program,
        config: &RunConfig,
        observer: &mut O,
    ) -> Result<RunSummary, SimError> {
        let cache_slot = &mut self.cache;
        let cache = match cache_slot {
            Some(c) => {
                c.reset();
                c
            }
            None => cache_slot.insert(CacheModel::new(self.machine.cache)?),
        };
        self.bpred.reset();
        let timing = Timing {
            machine: self.machine,
            cache: &mut *cache,
            bpred: &mut self.bpred,
        };
        let (totals, cycle) =
            self.scratch
                .run_sink::<_, OBSERVED, true>(Some(timing), program, config, observer)?;
        let (l1_hits, l2_hits, mem_accesses) = cache.stats();
        let (bp_lookups, mispredicts) = self.bpred.stats();
        Ok(RunSummary {
            instructions: totals.instructions,
            uops: totals.uops,
            cycles: cycle + 1,
            taken_branches: totals.taken_branches,
            mispredicts,
            bp_lookups,
            l1_hits,
            l2_hits,
            mem_accesses,
            stop: totals.stop,
            result: totals.result,
        })
    }
}

/// Runs `program` with no timing model and adds each retirement of
/// address `a` to `counts[a]`; `counts` holds one count per instruction
/// of `program`.
///
/// This is the untimed instance of the dispatch loop: no cache model,
/// branch predictor or retirement clock runs, so it needs no machine and
/// allocates none of their tables. Every functional check still applies
/// (memory bounds, indirect targets, the call-stack limit and fuel), so
/// it fails exactly where a timed run of the same program fails, except
/// that it never validates a cache geometry. The counts, the totals and
/// the stop equal what a timed run retires on any machine.
///
/// It returns only what an untimed pass defines ([`RetireTotals`]), and
/// it takes no observer: a budget's cycle deadline cannot work against a
/// clock that never moves.
///
/// # Panics
///
/// When `counts` does not hold one entry per instruction of `program`.
pub fn count_retired(
    program: &Program,
    config: &RunConfig,
    counts: &mut [u64],
) -> Result<RetireTotals, SimError> {
    assert_eq!(
        counts.len(),
        program.len(),
        "one count per instruction address"
    );
    let (totals, _) = SimScratch::new().run_sink::<_, true, false>(
        None,
        program,
        config,
        &mut AddrCounts(counts),
    )?;
    Ok(totals)
}

/// The one observer of an untimed pass: each retirement adds one to its
/// address's count.
struct AddrCounts<'a>(&'a mut [u64]);

impl RetireObserver for AddrCounts<'_> {
    #[inline(always)]
    fn on_retire(&mut self, ev: &RetireEvent) {
        self.0[ev.addr as usize] += 1;
    }
}

impl SimScratch {
    fn new() -> Self {
        Self {
            mem: Vec::new(),
            call_stack: Vec::with_capacity(64),
            decoded: Vec::new(),
        }
    }

    /// The dispatch loop, monomorphized over the observer so its budget
    /// and event path compile straight into the interpreter. With
    /// `OBSERVED` false the loop keeps no budget and builds no event.
    ///
    /// With `TIMED` true, `timing` is the reset timing model: loads and
    /// stores probe its cache, branches consult its predictor, and each
    /// retirement advances the clock. With `TIMED` false, `timing` is
    /// `None` and none of that runs: every event retires in cycle 0 and
    /// is delivered to the observer, since no budget deadline can work
    /// against a clock that never moves.
    ///
    /// Returns the pass's totals and its final retirement cycle.
    fn run_sink<O: RetireObserver + ?Sized, const OBSERVED: bool, const TIMED: bool>(
        &mut self,
        timing: Option<Timing<'_>>,
        program: &Program,
        config: &RunConfig,
        observer: &mut O,
    ) -> Result<(RetireTotals, u64), SimError> {
        let Self {
            mem,
            call_stack,
            decoded,
        } = self;
        let (machine, mut cache, mut bpred) = match timing.filter(|_| TIMED) {
            Some(t) => (Some(t.machine), Some(t.cache), Some(t.bpred)),
            None => (None, None, None),
        };
        let mut regs = [0i64; ct_isa::reg::NUM_REGS];
        let mut fregs = [0f64; ct_isa::reg::NUM_FREGS];
        for (i, &a) in config.args.iter().enumerate().take(5) {
            regs[i + 1] = a;
        }
        mem.clear();
        mem.resize(program.data_words, 0);
        for &(idx, v) in &program.init_data {
            if idx < mem.len() {
                mem[idx] = v;
            }
        }
        call_stack.clear();

        // Predecode: amortize the per-step class/uops/latency matches over
        // the whole run (see [`Decoded`]). Indexing parallels the program,
        // so `decoded[pc]` is exactly `fetch(pc)` plus its attributes.
        decoded.clear();
        decoded.extend(program.insns.iter().map(|insn| {
            let class = insn.class();
            Decoded {
                op: insn.op,
                class,
                uops: insn.uops(),
                latency: machine.map_or(0, |m| m.class_latency(class)),
            }
        }));

        let mut pc: Addr = program.entry;
        let mut clock = machine.map_or_else(Clock::default, Clock::new);
        let mut instructions: u64 = 0;
        let mut uops: u64 = 0;
        let mut taken_branches: u64 = 0;
        let mut watch = Watch::default();
        if OBSERVED && TIMED {
            watch.gate.arm(observer.quiet_budget(), (0, 0, 0));
        }

        let stop = loop {
            if instructions >= config.max_insns {
                break StopReason::FuelExhausted;
            }
            let insn = decoded[pc as usize];
            let class = insn.class;
            let mut next_pc = pc + 1;
            let mut taken_target: Option<Addr> = None;
            let mut mispredicted = false;
            let mut latency = insn.latency;

            match insn.op {
                Opcode::Add(d, a, b) => {
                    regs[d.index()] = regs[a.index()].wrapping_add(regs[b.index()]);
                }
                Opcode::Sub(d, a, b) => {
                    regs[d.index()] = regs[a.index()].wrapping_sub(regs[b.index()]);
                }
                Opcode::Mul(d, a, b) => {
                    regs[d.index()] = regs[a.index()].wrapping_mul(regs[b.index()]);
                }
                Opcode::Div(d, a, b) => {
                    let den = regs[b.index()];
                    regs[d.index()] = if den == 0 {
                        0
                    } else {
                        regs[a.index()].wrapping_div(den)
                    };
                }
                Opcode::Rem(d, a, b) => {
                    let den = regs[b.index()];
                    regs[d.index()] = if den == 0 {
                        0
                    } else {
                        regs[a.index()].wrapping_rem(den)
                    };
                }
                Opcode::And(d, a, b) => regs[d.index()] = regs[a.index()] & regs[b.index()],
                Opcode::Or(d, a, b) => regs[d.index()] = regs[a.index()] | regs[b.index()],
                Opcode::Xor(d, a, b) => regs[d.index()] = regs[a.index()] ^ regs[b.index()],
                Opcode::Shl(d, a, b) => {
                    regs[d.index()] = regs[a.index()].wrapping_shl(regs[b.index()] as u32 & 63);
                }
                Opcode::Shr(d, a, b) => {
                    regs[d.index()] = regs[a.index()].wrapping_shr(regs[b.index()] as u32 & 63);
                }
                Opcode::AddI(d, a, i) => regs[d.index()] = regs[a.index()].wrapping_add(i),
                Opcode::SubI(d, a, i) => regs[d.index()] = regs[a.index()].wrapping_sub(i),
                Opcode::MulI(d, a, i) => regs[d.index()] = regs[a.index()].wrapping_mul(i),
                Opcode::AndI(d, a, i) => regs[d.index()] = regs[a.index()] & i,
                Opcode::XorI(d, a, i) => regs[d.index()] = regs[a.index()] ^ i,
                Opcode::Mov(d, s) => regs[d.index()] = regs[s.index()],
                Opcode::MovI(d, i) => regs[d.index()] = i,

                Opcode::FAdd(d, a, b) => fregs[d.index()] = fregs[a.index()] + fregs[b.index()],
                Opcode::FSub(d, a, b) => fregs[d.index()] = fregs[a.index()] - fregs[b.index()],
                Opcode::FMul(d, a, b) => fregs[d.index()] = fregs[a.index()] * fregs[b.index()],
                Opcode::FDiv(d, a, b) => fregs[d.index()] = fregs[a.index()] / fregs[b.index()],
                Opcode::FSqrt(d, a) => fregs[d.index()] = fregs[a.index()].abs().sqrt(),
                Opcode::FMov(d, a) => fregs[d.index()] = fregs[a.index()],
                Opcode::FMovI(d, v) => fregs[d.index()] = v,
                Opcode::CvtIF(d, s) => fregs[d.index()] = regs[s.index()] as f64,
                Opcode::CvtFI(d, s) => {
                    let v = fregs[s.index()];
                    regs[d.index()] = if v.is_nan() { 0 } else { v as i64 };
                }

                Opcode::Load(d, b, off) => {
                    let idx = regs[b.index()].wrapping_add(off);
                    let v = *mem
                        .get(
                            usize::try_from(idx)
                                .ok()
                                .filter(|&i| i < mem.len())
                                .ok_or(SimError::MemOutOfBounds { pc, word_addr: idx })?,
                        )
                        .expect("index checked above");
                    regs[d.index()] = v;
                    if let Some(cache) = cache.as_deref_mut() {
                        latency = cache.access(idx as u64);
                    }
                }
                Opcode::Store(v, b, off) => {
                    let idx = regs[b.index()].wrapping_add(off);
                    let slot_ref = usize::try_from(idx)
                        .ok()
                        .filter(|&i| i < mem.len())
                        .ok_or(SimError::MemOutOfBounds { pc, word_addr: idx })?;
                    mem[slot_ref] = regs[v.index()];
                    if let Some(cache) = cache.as_deref_mut() {
                        cache.access(idx as u64); // write-allocate; latency hidden by the store buffer
                    }
                }
                Opcode::FLoad(d, b, off) => {
                    let idx = regs[b.index()].wrapping_add(off);
                    let raw = *mem
                        .get(
                            usize::try_from(idx)
                                .ok()
                                .filter(|&i| i < mem.len())
                                .ok_or(SimError::MemOutOfBounds { pc, word_addr: idx })?,
                        )
                        .expect("index checked above");
                    fregs[d.index()] = f64::from_bits(raw as u64);
                    if let Some(cache) = cache.as_deref_mut() {
                        latency = cache.access(idx as u64);
                    }
                }
                Opcode::FStore(v, b, off) => {
                    let idx = regs[b.index()].wrapping_add(off);
                    let slot_ref = usize::try_from(idx)
                        .ok()
                        .filter(|&i| i < mem.len())
                        .ok_or(SimError::MemOutOfBounds { pc, word_addr: idx })?;
                    mem[slot_ref] = fregs[v.index()].to_bits() as i64;
                    if let Some(cache) = cache.as_deref_mut() {
                        cache.access(idx as u64);
                    }
                }

                Opcode::Jmp(t) => {
                    next_pc = t;
                    taken_target = Some(t);
                }
                Opcode::JmpInd(r) => {
                    let t = regs[r.index()];
                    let t_addr = u32::try_from(t)
                        .ok()
                        .filter(|&a| (a as usize) < program.len())
                        .ok_or(SimError::BadIndirectTarget { pc, target: t })?;
                    if let Some(bpred) = bpred.as_deref_mut() {
                        mispredicted = bpred.predict_indirect(pc, t_addr);
                    }
                    next_pc = t_addr;
                    taken_target = Some(t_addr);
                }
                Opcode::Br(c, a, b, t) => {
                    let taken = c.eval(regs[a.index()], regs[b.index()]);
                    if let Some(bpred) = bpred.as_deref_mut() {
                        mispredicted = bpred.predict_conditional(pc, taken);
                    }
                    if taken {
                        next_pc = t;
                        taken_target = Some(t);
                    }
                }
                Opcode::Brz(r, t) => {
                    let taken = regs[r.index()] == 0;
                    if let Some(bpred) = bpred.as_deref_mut() {
                        mispredicted = bpred.predict_conditional(pc, taken);
                    }
                    if taken {
                        next_pc = t;
                        taken_target = Some(t);
                    }
                }
                Opcode::Brnz(r, t) => {
                    let taken = regs[r.index()] != 0;
                    if let Some(bpred) = bpred.as_deref_mut() {
                        mispredicted = bpred.predict_conditional(pc, taken);
                    }
                    if taken {
                        next_pc = t;
                        taken_target = Some(t);
                    }
                }
                Opcode::Call(t) => {
                    if call_stack.len() >= config.call_stack_limit {
                        return Err(SimError::CallStackOverflow {
                            pc,
                            depth: config.call_stack_limit,
                        });
                    }
                    call_stack.push(pc + 1);
                    next_pc = t;
                    taken_target = Some(t);
                }
                Opcode::CallInd(r) => {
                    let t = regs[r.index()];
                    let t_addr = u32::try_from(t)
                        .ok()
                        .filter(|&a| (a as usize) < program.len())
                        .ok_or(SimError::BadIndirectTarget { pc, target: t })?;
                    if !program.symbols.is_entry(t_addr) {
                        return Err(SimError::IndirectCallNotFunction { pc, target: t_addr });
                    }
                    if call_stack.len() >= config.call_stack_limit {
                        return Err(SimError::CallStackOverflow {
                            pc,
                            depth: config.call_stack_limit,
                        });
                    }
                    if let Some(bpred) = bpred.as_deref_mut() {
                        mispredicted = bpred.predict_indirect(pc, t_addr);
                    }
                    call_stack.push(pc + 1);
                    next_pc = t_addr;
                    taken_target = Some(t_addr);
                }
                Opcode::Ret => {
                    // Return-address-stack prediction: always correct.
                    let t = call_stack
                        .pop()
                        .ok_or(SimError::CallStackUnderflow { pc })?;
                    next_pc = t;
                    taken_target = Some(t);
                }
                Opcode::Nop => {}
                Opcode::Halt => {
                    // Retire the halt itself, then stop.
                    let cycle = if TIMED { clock.retire(latency) } else { 0 };
                    let ev = RetireEvent {
                        addr: pc,
                        seq: instructions,
                        cycle,
                        uops: insn.uops,
                        class,
                        taken_target: None,
                        mispredicted: false,
                    };
                    instructions += 1;
                    uops += u64::from(insn.uops);
                    if OBSERVED {
                        let totals = (instructions, uops, taken_branches);
                        if TIMED {
                            watch.observe(observer, ev, clock.slot == 1, totals);
                        } else {
                            observer.on_retire(&ev);
                        }
                    }
                    break StopReason::Halted;
                }
            }

            let cycle = if TIMED { clock.retire(latency) } else { 0 };
            let ev = RetireEvent {
                addr: pc,
                seq: instructions,
                cycle,
                uops: insn.uops,
                class,
                taken_target,
                mispredicted,
            };
            instructions += 1;
            uops += u64::from(insn.uops);
            taken_branches += u64::from(taken_target.is_some());
            if OBSERVED {
                let totals = (instructions, uops, taken_branches);
                if TIMED {
                    watch.observe(observer, ev, clock.slot == 1, totals);
                } else {
                    observer.on_retire(&ev);
                }
            }
            if TIMED && mispredicted {
                clock.pending_bubble = clock.mispredict_penalty;
            }
            pc = next_pc;
        };

        if OBSERVED && TIMED {
            let totals = (instructions, uops, taken_branches);
            if totals != watch.gate.seen {
                observer.on_skipped(watch.gate.unseen(totals), watch.cycle_head);
            }
            observer.on_finish(clock.cycle);
        }
        let totals = RetireTotals {
            instructions,
            uops,
            taken_branches,
            stop,
            result: regs[0],
        };
        Ok((totals, clock.cycle))
    }
}

/// Runs with a single observer (convenience wrapper over
/// [`Cpu::run_observed`] — statically typed observers inline into the
/// dispatch loop; `&mut dyn RetireObserver` still works).
pub fn run_with<O: RetireObserver + ?Sized>(
    machine: &MachineModel,
    program: &Program,
    config: &RunConfig,
    observer: &mut O,
) -> Result<RunSummary, SimError> {
    Cpu::new(machine).run_observed(program, config, observer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NullObserver;
    use ct_isa::asm::assemble;

    fn run(src: &str) -> RunSummary {
        run_args(src, &[])
    }

    fn run_args(src: &str, args: &[i64]) -> RunSummary {
        let p = assemble("t", src).unwrap();
        let m = MachineModel::ivy_bridge();
        let cfg = RunConfig {
            args: args.to_vec(),
            ..RunConfig::default()
        };
        run_with(&m, &p, &cfg, &mut NullObserver).unwrap()
    }

    #[test]
    fn arithmetic_result() {
        let s = run(r#"
            .func main
                movi r1, 21
                movi r2, 2
                mul r0, r1, r2
                halt
            .endfunc
        "#);
        assert_eq!(s.result, 42);
        assert_eq!(s.instructions, 4);
        assert_eq!(s.stop, StopReason::Halted);
    }

    #[test]
    fn division_by_zero_is_zero() {
        let s = run(r#"
            .func main
                movi r1, 7
                movi r2, 0
                div r0, r1, r2
                halt
            .endfunc
        "#);
        assert_eq!(s.result, 0);
    }

    #[test]
    fn loop_counts_instructions() {
        // movi + 10 * (subi + brnz) + halt = 22 instructions.
        let s = run(r#"
            .func main
                movi r1, 10
            top:
                subi r1, r1, 1
                brnz r1, top
                halt
            .endfunc
        "#);
        assert_eq!(s.instructions, 22);
        assert_eq!(s.taken_branches, 9);
    }

    #[test]
    fn call_and_ret() {
        let s = run(r#"
            .func main
                movi r1, 5
                call double
                mov r0, r1
                halt
            .endfunc
            .func double
                add r1, r1, r1
                ret
            .endfunc
        "#);
        assert_eq!(s.result, 10);
        // call and ret are both taken transfers.
        assert_eq!(s.taken_branches, 2);
    }

    #[test]
    fn fp_math() {
        let s = run(r#"
            .func main
                fmovi f1, 9.0
                fsqrt f2, f1
                cvtfi r0, f2
                halt
            .endfunc
        "#);
        assert_eq!(s.result, 3);
    }

    #[test]
    fn memory_roundtrip() {
        let s = run(r#"
            .data 16
            .func main
                movi r1, 3
                movi r2, 99
                store r2, [r1+2]
                load r0, [r1+2]
                halt
            .endfunc
        "#);
        assert_eq!(s.result, 99);
        assert!(s.mem_accesses >= 1);
    }

    #[test]
    fn out_of_bounds_load_errors() {
        let p = assemble(
            "t",
            r#"
            .data 4
            .func main
                movi r1, 100
                load r0, [r1]
                halt
            .endfunc
        "#,
        )
        .unwrap();
        let m = MachineModel::ivy_bridge();
        let err = run_with(&m, &p, &RunConfig::default(), &mut NullObserver).unwrap_err();
        assert!(matches!(err, SimError::MemOutOfBounds { .. }));
    }

    #[test]
    fn negative_index_errors() {
        let p = assemble(
            "t",
            r#"
            .data 4
            .func main
                movi r1, 0
                load r0, [r1-1]
                halt
            .endfunc
        "#,
        )
        .unwrap();
        let m = MachineModel::ivy_bridge();
        let err = run_with(&m, &p, &RunConfig::default(), &mut NullObserver).unwrap_err();
        assert!(matches!(
            err,
            SimError::MemOutOfBounds { word_addr: -1, .. }
        ));
    }

    #[test]
    fn ret_underflow_errors() {
        let p = assemble("t", ".func main\n ret\n.endfunc\n").unwrap();
        let m = MachineModel::ivy_bridge();
        let err = run_with(&m, &p, &RunConfig::default(), &mut NullObserver).unwrap_err();
        assert!(matches!(err, SimError::CallStackUnderflow { .. }));
    }

    #[test]
    fn call_overflow_errors() {
        let p = assemble(
            "t",
            r#"
            .func main
                call main
                halt
            .endfunc
        "#,
        )
        .unwrap();
        let m = MachineModel::ivy_bridge();
        let cfg = RunConfig {
            call_stack_limit: 32,
            ..RunConfig::default()
        };
        let err = run_with(&m, &p, &cfg, &mut NullObserver).unwrap_err();
        assert!(matches!(err, SimError::CallStackOverflow { .. }));
    }

    #[test]
    fn fuel_exhaustion_stops() {
        let p = assemble(
            "t",
            r#"
            .func main
            spin:
                jmp spin
            .endfunc
        "#,
        )
        .unwrap();
        let m = MachineModel::ivy_bridge();
        let cfg = RunConfig::with_fuel(1000);
        let s = run_with(&m, &p, &cfg, &mut NullObserver).unwrap();
        assert_eq!(s.stop, StopReason::FuelExhausted);
        assert_eq!(s.instructions, 1000);
    }

    #[test]
    fn indirect_call_dispatch() {
        let s = run(r#"
            .func main
                movi r10, 4          ; address of f (computed below)
                callind r10
                halt
            .endfunc
            .func pad
                ret
            .endfunc
            .func f
                movi r0, 77
                ret
            .endfunc
        "#);
        assert_eq!(s.result, 77);
    }

    #[test]
    fn indirect_call_to_non_entry_errors() {
        let p = assemble(
            "t",
            r#"
            .func main
                movi r10, 1
                callind r10
                halt
            .endfunc
        "#,
        )
        .unwrap();
        let m = MachineModel::ivy_bridge();
        let err = run_with(&m, &p, &RunConfig::default(), &mut NullObserver).unwrap_err();
        assert!(matches!(err, SimError::IndirectCallNotFunction { .. }));
    }

    // --- Timing-model properties -----------------------------------------

    /// Collects events for timing assertions.
    #[derive(Default)]
    struct Collector(Vec<RetireEvent>);
    impl RetireObserver for Collector {
        fn on_retire(&mut self, ev: &RetireEvent) {
            self.0.push(*ev);
        }
    }

    #[test]
    fn cycles_monotone_and_bursts_bounded() {
        let p = assemble(
            "t",
            r#"
            .func main
                movi r1, 200
                movi r2, 3
            top:
                add r3, r1, r2
                add r4, r3, r2
                div r5, r1, r2
                subi r1, r1, 1
                brnz r1, top
                halt
            .endfunc
        "#,
        )
        .unwrap();
        let m = MachineModel::ivy_bridge();
        let mut c = Collector::default();
        Cpu::new(&m)
            .run(&p, &RunConfig::default(), &mut [&mut c])
            .unwrap();
        let evs = &c.0;
        let mut per_cycle = std::collections::HashMap::new();
        let mut prev = 0u64;
        for ev in evs {
            assert!(ev.cycle >= prev, "retirement cycles are monotone");
            prev = ev.cycle;
            *per_cycle.entry(ev.cycle).or_insert(0u32) += 1;
        }
        assert!(per_cycle.values().all(|&n| n <= m.retire_width));
        // Bursts exist: some cycle retires more than one instruction.
        assert!(
            per_cycle.values().any(|&n| n > 1),
            "no retirement bursts observed"
        );
    }

    #[test]
    fn div_stalls_retirement() {
        let p = assemble(
            "t",
            r#"
            .func main
                movi r1, 90
                movi r2, 3
                add r3, r1, r2
                div r4, r1, r2
                add r5, r1, r2
                halt
            .endfunc
        "#,
        )
        .unwrap();
        let m = MachineModel::ivy_bridge();
        let mut c = Collector::default();
        Cpu::new(&m)
            .run(&p, &RunConfig::default(), &mut [&mut c])
            .unwrap();
        let evs = &c.0;
        // Gap before the div retires is at least div latency - hide.
        let div_idx = 3;
        let gap = evs[div_idx].cycle - evs[div_idx - 1].cycle;
        assert!(
            gap >= u64::from(m.latencies.div - m.hide_latency),
            "div retired without a stall (gap {gap})"
        );
        // The instruction after the div retires in the same burst cycle.
        assert_eq!(evs[div_idx + 1].cycle, evs[div_idx].cycle);
    }

    #[test]
    fn taken_branches_report_targets() {
        let p = assemble(
            "t",
            r#"
            .func main
                movi r1, 3
            top:
                subi r1, r1, 1
                brnz r1, top
                halt
            .endfunc
        "#,
        )
        .unwrap();
        let m = MachineModel::ivy_bridge();
        let mut c = Collector::default();
        Cpu::new(&m)
            .run(&p, &RunConfig::default(), &mut [&mut c])
            .unwrap();
        let taken: Vec<_> = c.0.iter().filter(|e| e.is_taken_branch()).collect();
        assert_eq!(taken.len(), 2);
        assert!(taken
            .iter()
            .all(|e| e.addr == 2 && e.taken_target == Some(1)));
    }

    #[test]
    fn observers_see_every_instruction() {
        let p = assemble(
            "t",
            r#"
            .func main
                movi r1, 50
            top:
                subi r1, r1, 1
                brnz r1, top
                halt
            .endfunc
        "#,
        )
        .unwrap();
        let m = MachineModel::westmere();
        let mut c = Collector::default();
        let s = Cpu::new(&m)
            .run(&p, &RunConfig::default(), &mut [&mut c])
            .unwrap();
        assert_eq!(c.0.len() as u64, s.instructions);
        // seq is dense and ordered.
        for (i, ev) in c.0.iter().enumerate() {
            assert_eq!(ev.seq, i as u64);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let src = r#"
            .data 64
            .func main
                movi r1, 1000
                movi r2, 7
            top:
                rem r3, r1, r2
                store r3, [r3+0]
                load r4, [r3+0]
                subi r1, r1, 1
                brnz r1, top
                halt
            .endfunc
        "#;
        let a = run(src);
        let b = run(src);
        assert_eq!(a, b);
    }

    #[test]
    fn reused_cpu_is_bit_identical_to_fresh_runs() {
        // Two programs with different data-segment sizes, call depths and
        // branch patterns, interleaved on ONE retained Cpu: every summary
        // must match a fresh single-use run, proving the scratch reset
        // leaves no state behind (and handles shrinking/growing memory).
        let a = assemble(
            "a",
            r#"
            .data 64
            .func main
                movi r1, 500
                movi r2, 7
            top:
                rem r3, r1, r2
                store r3, [r3+0]
                load r4, [r3+0]
                subi r1, r1, 1
                brnz r1, top
                halt
            .endfunc
        "#,
        )
        .unwrap();
        let b = assemble(
            "b",
            r#"
            .data 8
            .func main
                movi r1, 40
            top:
                call bump
                subi r1, r1, 1
                brnz r1, top
                halt
            .endfunc
            .func bump
                addi r0, r0, 3
                ret
            .endfunc
        "#,
        )
        .unwrap();
        let m = MachineModel::westmere();
        let cfg = RunConfig::default();
        let mut cpu = Cpu::new(&m);
        for _ in 0..3 {
            for p in [&a, &b] {
                let reused = cpu.run(p, &cfg, &mut [&mut NullObserver]).unwrap();
                let fresh = run_with(&m, p, &cfg, &mut NullObserver).unwrap();
                assert_eq!(reused, fresh);
            }
        }
    }

    #[test]
    fn degenerate_cache_geometry_fails_the_run() {
        let p = assemble("t", ".func main\n halt\n.endfunc\n").unwrap();
        let mut m = MachineModel::ivy_bridge();
        m.cache.l1_ways = m.cache.l1_words; // ways > lines
        let err = run_with(&m, &p, &RunConfig::default(), &mut NullObserver).unwrap_err();
        assert!(matches!(
            err,
            SimError::BadCacheGeometry { level: "L1", .. }
        ));
    }

    /// The untimed pass retires what a timed pass retires, on every
    /// paper machine: the same count per address, totals, stop and result.
    #[test]
    fn untimed_counts_equal_timed_counts() {
        let p = assemble(
            "t",
            r#"
            .data 64
            .func main
                movi r1, 300
                movi r2, 7
            top:
                rem r3, r1, r2
                store r3, [r3+0]
                load r4, [r3+0]
                brz r4, skip
                call bump
            skip:
                subi r1, r1, 1
                brnz r1, top
                halt
            .endfunc
            .func bump
                addi r0, r0, 3
                ret
            .endfunc
        "#,
        )
        .unwrap();
        for fuel in [u64::MAX, 1_001] {
            let cfg = RunConfig::with_fuel(fuel);
            let mut counts = vec![0; p.len()];
            let untimed = count_retired(&p, &cfg, &mut counts).unwrap();
            for m in MachineModel::paper_machines() {
                let mut c = Collector::default();
                let timed = Cpu::new(&m).run_observed(&p, &cfg, &mut c).unwrap();
                let mut timed_counts = vec![0; p.len()];
                for ev in &c.0 {
                    timed_counts[ev.addr as usize] += 1;
                }
                assert_eq!(counts, timed_counts, "{}", m.name);
                assert_eq!(
                    (untimed.instructions, untimed.uops, untimed.taken_branches),
                    (timed.instructions, timed.uops, timed.taken_branches)
                );
                assert_eq!((untimed.stop, untimed.result), (timed.stop, timed.result));
            }
        }
    }

    /// Every functional check holds without a timing model, and the
    /// untimed pass fails with the timed pass's error.
    #[test]
    fn untimed_pass_keeps_every_functional_check() {
        let m = MachineModel::ivy_bridge();
        for (src, cfg) in [
            (
                ".data 4\n.func main\n movi r1, 100\n load r0, [r1]\n halt\n.endfunc\n",
                RunConfig::default(),
            ),
            (
                ".func main\n movi r10, 1\n callind r10\n halt\n.endfunc\n",
                RunConfig::default(),
            ),
            (".func main\n ret\n.endfunc\n", RunConfig::default()),
            (
                ".func main\n call main\n halt\n.endfunc\n",
                RunConfig {
                    call_stack_limit: 32,
                    ..RunConfig::default()
                },
            ),
        ] {
            let p = assemble("t", src).unwrap();
            let untimed = count_retired(&p, &cfg, &mut vec![0; p.len()]).unwrap_err();
            let timed = run_with(&m, &p, &cfg, &mut NullObserver).unwrap_err();
            assert_eq!(untimed, timed);
        }
        let spin = assemble("t", ".func main\nspin:\n jmp spin\n.endfunc\n").unwrap();
        let mut counts = vec![0; spin.len()];
        let totals = count_retired(&spin, &RunConfig::with_fuel(1000), &mut counts).unwrap();
        assert_eq!(totals.stop, StopReason::FuelExhausted);
        assert_eq!((totals.instructions, counts[0]), (1000, 1000));
    }

    #[test]
    #[should_panic(expected = "one count per instruction address")]
    fn untimed_pass_needs_one_count_per_address() {
        let p = assemble("t", ".func main\n halt\n.endfunc\n").unwrap();
        let _ = count_retired(&p, &RunConfig::default(), &mut []);
    }

    #[test]
    fn mispredict_inserts_bubble() {
        // A data-dependent branch alternating taken/not-taken defeats the
        // bimodal predictor; cycles must exceed the well-predicted variant.
        let alternating = run_args(
            r#"
            .func main
                movi r1, 2000
            top:
                andi r2, r1, 1
                brz r2, even
                addi r3, r3, 1
            even:
                subi r1, r1, 1
                brnz r1, top
                halt
            .endfunc
        "#,
            &[],
        );
        let steady = run_args(
            r#"
            .func main
                movi r1, 2000
            top:
                movi r2, 1
                brz r2, even
                addi r3, r3, 1
            even:
                subi r1, r1, 1
                brnz r1, top
                halt
            .endfunc
        "#,
            &[],
        );
        assert!(alternating.mispredicts > steady.mispredicts);
        assert!(alternating.cycles > steady.cycles);
    }
}
