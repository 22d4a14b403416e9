//! The quiet-budget contract of `Cpu::run_observed` and `Cpu::run` (see
//! `QuietBudget`).
//!
//! An observer that declares budgets sees exactly the event on which a
//! budget runs out, the first event at or after its cycle deadline and,
//! when it asks, every unseen taken branch through `on_taken_branch`.
//! Before each delivered event, and once before `on_finish` when the run
//! ends on unseen events, `on_skipped` reports what retired unseen and
//! the head of the current cycle. The expected log is derived here from
//! the full event stream, straight from that wording. `Cpu::run` drives
//! many observers through one pass, and each must see exactly what it
//! sees alone.

use ct_isa::asm::assemble;
use ct_isa::{Addr, Program};
use ct_sim::{
    Cpu, MachineModel, QuietBudget, RetireEvent, RetireObserver, RunConfig, RunSummary, Skipped,
    StopReason,
};

/// Calls, taken and untaken branches, multi-uop and long-latency
/// instructions, and loads that miss: every quantity a budget counts
/// moves unevenly.
fn program() -> Program {
    assemble(
        "budget",
        r#"
        .data 64
        .func main
            movi r1, 300
            movi r2, 7
        top:
            rem r3, r1, r2
            andi r4, r1, 1
            brz r4, even
            call leaf
            div r5, r1, r2
        even:
            store r3, [r3+0]
            load r6, [r3+0]
            subi r1, r1, 1
            brnz r1, top
            halt
        .endfunc
        .func leaf
            addi r7, r7, 1
            mul r8, r7, r2
            ret
        .endfunc
    "#,
    )
    .unwrap()
}

/// The quantity a test budget limits.
#[derive(Debug, Clone, Copy)]
enum Unit {
    Insns,
    Uops,
    Taken,
}

/// `(instructions, uops, taken branches)` one event adds.
fn units(ev: &RetireEvent) -> (u64, u64, u64) {
    (1, u64::from(ev.uops), u64::from(ev.is_taken_branch()))
}

/// The budget declared after `k` delivered events, the last of which
/// retired at `last_cycle`: the unit budget cycles through a few sizes
/// (0 asks for the very next event), every third budget adds a deadline
/// a few cycles on, and every other one asks for taken branches.
/// Observers with different `shift`s declare different budgets at once.
fn policy(unit: Unit, shift: usize, delivered: usize, last_cycle: u64) -> QuietBudget {
    let k = delivered + shift;
    const QUIET: [u64; 5] = [0, 1, 5, 17, 60];
    let n = QUIET[k % QUIET.len()];
    let mut budget = QuietBudget::UNLIMITED;
    match unit {
        Unit::Insns => budget.insns = n,
        Unit::Uops => budget.uops = n,
        Unit::Taken => budget.taken_branches = n,
    }
    if k % 3 == 2 {
        budget.deadline = last_cycle + 4;
    }
    budget.taken_hook = k % 2 == 1;
    budget
}

/// One observer callback, as logged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seen {
    Skipped(Skipped, (Addr, u64)),
    Retire(RetireEvent),
    Taken(RetireEvent),
    Finish(u64),
}

/// Declares [`policy`] budgets and logs every callback.
struct Budgeted {
    unit: Unit,
    shift: usize,
    delivered: usize,
    last_cycle: u64,
    log: Vec<Seen>,
}

impl RetireObserver for Budgeted {
    fn quiet_budget(&self) -> QuietBudget {
        policy(self.unit, self.shift, self.delivered, self.last_cycle)
    }
    fn on_skipped(&mut self, skipped: Skipped, cycle_head: (Addr, u64)) {
        self.log.push(Seen::Skipped(skipped, cycle_head));
    }
    fn on_retire(&mut self, ev: &RetireEvent) {
        self.delivered += 1;
        self.last_cycle = ev.cycle;
        self.log.push(Seen::Retire(*ev));
    }
    fn on_taken_branch(&mut self, ev: &RetireEvent) {
        self.log.push(Seen::Taken(*ev));
    }
    fn on_finish(&mut self, final_cycle: u64) {
        self.log.push(Seen::Finish(final_cycle));
    }
}

/// Declares nothing and logs every callback.
#[derive(Default)]
struct Plain(Vec<Seen>);

impl RetireObserver for Plain {
    fn on_skipped(&mut self, skipped: Skipped, cycle_head: (Addr, u64)) {
        self.0.push(Seen::Skipped(skipped, cycle_head));
    }
    fn on_retire(&mut self, ev: &RetireEvent) {
        self.0.push(Seen::Retire(*ev));
    }
    fn on_finish(&mut self, final_cycle: u64) {
        self.0.push(Seen::Finish(final_cycle));
    }
}

fn retired(log: &[Seen]) -> Vec<RetireEvent> {
    log.iter()
        .filter_map(|s| match s {
            Seen::Retire(ev) => Some(*ev),
            _ => None,
        })
        .collect()
}

/// `(addr, seq)` of the first event of `stream[i]`'s cycle.
fn head_of(stream: &[RetireEvent], i: usize) -> (Addr, u64) {
    let cycle = stream[i].cycle;
    let head = stream[..=i]
        .iter()
        .rev()
        .take_while(|e| e.cycle == cycle)
        .last()
        .expect("stream[i] itself");
    (head.addr, head.seq)
}

impl Budgeted {
    fn new(unit: Unit, shift: usize) -> Self {
        Self {
            unit,
            shift,
            delivered: 0,
            last_cycle: 0,
            log: Vec::new(),
        }
    }
}

/// The log the contract prescribes for `unit` and `shift` over the full
/// `stream`.
fn expected(unit: Unit, shift: usize, stream: &[RetireEvent], final_cycle: u64) -> Vec<Seen> {
    let mut log = Vec::new();
    let mut delivered = 0;
    let mut budget = policy(unit, shift, 0, 0);
    let mut unseen = Skipped::default();
    for (i, ev) in stream.iter().enumerate() {
        let (di, du, dt) = units(ev);
        let runs_out = unseen.insns + di > budget.insns
            || unseen.uops + du > budget.uops
            || unseen.taken_branches + dt > budget.taken_branches;
        if runs_out || ev.cycle >= budget.deadline {
            log.push(Seen::Skipped(unseen, head_of(stream, i)));
            log.push(Seen::Retire(*ev));
            delivered += 1;
            budget = policy(unit, shift, delivered, ev.cycle);
            unseen = Skipped::default();
        } else {
            unseen.insns += di;
            unseen.uops += du;
            unseen.taken_branches += dt;
            if budget.taken_hook && ev.is_taken_branch() {
                log.push(Seen::Taken(*ev));
            }
        }
    }
    if unseen != Skipped::default() {
        log.push(Seen::Skipped(unseen, head_of(stream, stream.len() - 1)));
    }
    log.push(Seen::Finish(final_cycle));
    log
}

/// Skipped counts plus delivered increments, per quantity.
fn accounted(log: &[Seen]) -> (u64, u64, u64) {
    let mut total = (0, 0, 0);
    for s in log {
        let (i, u, t) = match s {
            Seen::Skipped(sk, _) => (sk.insns, sk.uops, sk.taken_branches),
            Seen::Retire(ev) => units(ev),
            Seen::Taken(_) | Seen::Finish(_) => (0, 0, 0),
        };
        total = (total.0 + i, total.1 + u, total.2 + t);
    }
    total
}

const UNITS: [Unit; 3] = [Unit::Insns, Unit::Uops, Unit::Taken];

fn full_stream(machine: &MachineModel, p: &Program, config: &RunConfig) -> (Vec<Seen>, RunSummary) {
    let mut all = Plain::default();
    let summary = Cpu::new(machine).run(p, config, &mut [&mut all]).unwrap();
    (all.0, summary)
}

#[test]
fn budgeted_observers_see_exactly_the_events_their_budgets_name() {
    let p = program();
    for machine in MachineModel::paper_machines() {
        for config in [RunConfig::default(), RunConfig::with_fuel(1_019)] {
            let (all, summary) = full_stream(&machine, &p, &config);
            let stream = retired(&all);
            let Some(&Seen::Finish(final_cycle)) = all.last() else {
                panic!("on_finish comes last");
            };
            for unit in UNITS {
                let mut obs = Budgeted::new(unit, 0);
                let s = Cpu::new(&machine)
                    .run_observed(&p, &config, &mut obs)
                    .unwrap();
                assert_eq!(s, summary, "a budget never changes the run");
                let want = expected(unit, 0, &stream, final_cycle);
                assert_eq!(
                    obs.log, want,
                    "{} {unit:?} fuel {}",
                    machine.name, config.max_insns
                );
                assert!(
                    retired(&obs.log).len() < stream.len() / 3,
                    "{unit:?}: budgets skip"
                );
                assert_eq!(
                    accounted(&obs.log),
                    (s.instructions, s.uops, s.taken_branches),
                    "{unit:?}: skipped plus delivered is the whole run"
                );
                if s.stop == StopReason::FuelExhausted {
                    assert!(
                        matches!(obs.log[obs.log.len() - 2], Seen::Skipped(sk, _) if sk.insns > 0),
                        "{unit:?}: the capped run ends on unseen events, reported before on_finish"
                    );
                }
            }
        }
    }
}

#[test]
fn an_observer_that_declares_nothing_sees_every_event_in_order() {
    let p = program();
    let machine = MachineModel::ivy_bridge();
    for config in [RunConfig::default(), RunConfig::with_fuel(1_019)] {
        let (all, summary) = full_stream(&machine, &p, &config);
        let mut obs = Plain::default();
        Cpu::new(&machine)
            .run_observed(&p, &config, &mut obs)
            .unwrap();
        assert_eq!(obs.0, all, "same callbacks through run_observed and run");
        let stream = retired(&obs.0);
        assert_eq!(stream.len() as u64, summary.instructions);
        for (i, ev) in stream.iter().enumerate() {
            assert_eq!(ev.seq, i as u64);
        }
        // Nothing is ever skipped; the head still arrives before each event.
        for (i, pair) in obs.0.chunks(2).take(stream.len()).enumerate() {
            assert_eq!(
                pair[0],
                Seen::Skipped(Skipped::default(), head_of(&stream, i))
            );
            assert_eq!(pair[1], Seen::Retire(stream[i]));
        }
    }
}

#[test]
fn one_pass_gives_each_observer_exactly_its_solo_stream() {
    let p = program();
    for machine in MachineModel::paper_machines() {
        for config in [RunConfig::default(), RunConfig::with_fuel(1_019)] {
            let (all, summary) = full_stream(&machine, &p, &config);
            let stream = retired(&all);
            let Some(&Seen::Finish(final_cycle)) = all.last() else {
                panic!("on_finish comes last");
            };
            // Every unit at three phases of the policy: at any moment the
            // members hold different budgets, deadlines and taken hooks.
            let mut budgeted: Vec<Budgeted> = UNITS
                .into_iter()
                .flat_map(|unit| (0..3).map(move |shift| Budgeted::new(unit, shift)))
                .collect();
            let mut plain = Plain::default();
            let mut members: Vec<&mut dyn RetireObserver> = budgeted
                .iter_mut()
                .map(|b| b as &mut dyn RetireObserver)
                .collect();
            members.push(&mut plain);
            let s = Cpu::new(&machine).run(&p, &config, &mut members).unwrap();
            assert_eq!(s, summary, "one pass runs the same program");
            assert_eq!(plain.0, all, "a member that declares nothing sees it all");
            for obs in &budgeted {
                assert_eq!(
                    obs.log,
                    expected(obs.unit, obs.shift, &stream, final_cycle),
                    "{} {:?} shift {} fuel {}",
                    machine.name,
                    obs.unit,
                    obs.shift,
                    config.max_insns
                );
            }
        }
    }
}
