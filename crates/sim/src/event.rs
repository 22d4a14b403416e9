//! The retirement-event stream: what every measurement tool observes.

use ct_isa::{Addr, InsnClass};

/// One retired instruction, as visible to the PMU and to instrumentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetireEvent {
    /// Address of the retired instruction.
    pub addr: Addr,
    /// Retirement sequence number (0-based instruction count).
    pub seq: u64,
    /// Cycle at which the instruction retired. Multiple instructions may
    /// share a cycle — that is the retirement *burst* the paper's Callchain
    /// analysis blames ("out-of-order clustering of uops ... retired in
    /// bursts").
    pub cycle: u64,
    /// Number of uops the instruction decodes into (IBS samples these).
    pub uops: u32,
    /// Instruction class.
    pub class: InsnClass,
    /// `Some(target)` when the instruction was a *taken* control transfer
    /// (taken conditional branch, jump, call or return) — exactly the
    /// transfers an LBR records.
    pub taken_target: Option<Addr>,
    /// True when this instruction was a mispredicted branch (adds a
    /// retirement bubble after it).
    pub mispredicted: bool,
}

impl RetireEvent {
    /// True when the event is a taken control transfer (LBR-visible).
    #[must_use]
    pub fn is_taken_branch(&self) -> bool {
        self.taken_target.is_some()
    }
}

/// How much of the retirement stream an observer lets pass unseen.
///
/// Each count is a budget for one quantity the dispatch loop already
/// keeps: the event on which the quantity retired since the observer's
/// last delivered event first exceeds its budget is delivered. So a
/// budget of `n` lets `n` instructions (uops, taken branches) retire
/// unseen and delivers the one after; `u64::MAX` never forces a
/// delivery. The first event retiring at or after `deadline` is
/// delivered too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuietBudget {
    pub insns: u64,
    pub uops: u64,
    pub taken_branches: u64,
    /// Cycle deadline; `u64::MAX` for none.
    pub deadline: u64,
    /// Taken branches that retire unseen still reach
    /// [`RetireObserver::on_taken_branch`].
    pub taken_hook: bool,
}

impl QuietBudget {
    /// Every event is delivered: the default.
    pub const EVERY_EVENT: Self = Self {
        insns: 0,
        ..Self::UNLIMITED
    };

    /// Nothing forces a delivery.
    pub const UNLIMITED: Self = Self {
        insns: u64::MAX,
        uops: u64::MAX,
        taken_branches: u64::MAX,
        deadline: u64::MAX,
        taken_hook: false,
    };
}

/// What retired unseen since an observer's last delivered event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Skipped {
    pub insns: u64,
    pub uops: u64,
    pub taken_branches: u64,
}

/// Observer of the retirement stream.
///
/// An observer pays per event it asks for, not per retired instruction:
/// after each delivered event the loop reads [`RetireObserver::quiet_budget`]
/// and runs silently until the budget says the next event must be seen.
/// Before every delivered event, [`RetireObserver::on_skipped`] reports
/// what retired unseen since the last one. The default budget delivers
/// every event, so an observer that declares nothing sees the whole
/// stream in program order.
///
/// [`crate::Cpu::run_observed`] delivers exactly the events the budget
/// names, and so does [`crate::Cpu::run`] for each observer of its
/// slice: one pass drives them all, and each sees what it would see
/// alone.
pub trait RetireObserver {
    /// Called for every delivered event, in program order.
    fn on_retire(&mut self, ev: &RetireEvent);

    /// Called once when execution finishes, with the final cycle count.
    /// Deferred work (e.g. a PMI still in flight) can be resolved here.
    /// When the run ended on unseen events, [`RetireObserver::on_skipped`]
    /// reports them first.
    fn on_finish(&mut self, _final_cycle: u64) {}

    /// How much may retire unseen before the next event this observer
    /// must see. Read before the first event and after every delivered
    /// one.
    fn quiet_budget(&self) -> QuietBudget {
        QuietBudget::EVERY_EVENT
    }

    /// Called before every delivered event with what retired unseen since
    /// the previous one, and with `(addr, seq)` of the first instruction
    /// retiring in the delivered event's cycle (the cycle head).
    fn on_skipped(&mut self, _skipped: Skipped, _cycle_head: (Addr, u64)) {}

    /// Called for every taken branch that retires unseen while the budget
    /// sets [`QuietBudget::taken_hook`]. It still counts as skipped.
    fn on_taken_branch(&mut self, _ev: &RetireEvent) {}
}

/// An observer behind a mutable reference is the observer itself, so
/// [`crate::Cpu::run`] drives a slice of `&mut dyn RetireObserver`
/// through the same fan-out as [`crate::Cpu::run_all`] drives a slice of
/// one concrete type.
impl<O: RetireObserver + ?Sized> RetireObserver for &mut O {
    #[inline]
    fn on_retire(&mut self, ev: &RetireEvent) {
        (**self).on_retire(ev);
    }
    #[inline]
    fn on_finish(&mut self, final_cycle: u64) {
        (**self).on_finish(final_cycle);
    }
    #[inline]
    fn quiet_budget(&self) -> QuietBudget {
        (**self).quiet_budget()
    }
    #[inline]
    fn on_skipped(&mut self, skipped: Skipped, cycle_head: (Addr, u64)) {
        (**self).on_skipped(skipped, cycle_head);
    }
    #[inline]
    fn on_taken_branch(&mut self, ev: &RetireEvent) {
        (**self).on_taken_branch(ev);
    }
}

/// A no-op observer, useful as a placeholder in generic code.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl RetireObserver for NullObserver {
    fn on_retire(&mut self, _ev: &RetireEvent) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taken_branch_flag() {
        let mut ev = RetireEvent {
            addr: 0,
            seq: 0,
            cycle: 0,
            uops: 1,
            class: InsnClass::Branch,
            taken_target: None,
            mispredicted: false,
        };
        assert!(!ev.is_taken_branch());
        ev.taken_target = Some(5);
        assert!(ev.is_taken_branch());
    }
}
