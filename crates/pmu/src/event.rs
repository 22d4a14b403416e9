//! Performance events: what a counter counts.
//!
//! Names follow the Intel/AMD nomenclature used throughout the paper
//! (§4.2, Table 3); the simulation reduces each to an increment rule over
//! [`ct_sim::RetireEvent`]s.

use ct_sim::{QuietBudget, RetireEvent, Skipped};
use serde::{Deserialize, Serialize};

/// A hardware performance event selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PmuEvent {
    /// `INST_RETIRED.ANY` — instructions retired, fixed architectural
    /// counter (Intel; imprecise).
    InstRetiredAny,
    /// `INST_RETIRED.ALL` — instructions retired on a general-purpose
    /// counter with PEBS support (Intel).
    InstRetiredAll,
    /// `INST_RETIRED.PREC_DIST` — the Ivy Bridge precisely-distributed
    /// instructions-retired event (PDIR).
    InstRetiredPrecDist,
    /// `BR_INST_RETIRED.NEAR_TAKEN` — retired taken branches (Ivy Bridge
    /// LBR sampling event).
    BrInstRetiredNearTaken,
    /// `BR_INST_EXEC.TAKEN` — executed taken branches (Westmere LBR
    /// sampling event; identical to retired-taken in this model, which does
    /// not retire wrong-path instructions).
    BrInstExecTaken,
    /// `RETIRED_INSTRUCTIONS` — AMD's standard retired-instructions event
    /// (imprecise).
    AmdRetiredInstructions,
    /// AMD IBS op sampling — counts retired *uops*.
    IbsOp,
}

impl PmuEvent {
    /// How much this event increments for a given retired instruction.
    #[must_use]
    #[inline]
    pub fn increment(self, ev: &RetireEvent) -> u64 {
        self.count(&Skipped {
            insns: 1,
            uops: u64::from(ev.uops),
            taken_branches: u64::from(ev.is_taken_branch()),
        })
    }

    /// How much this event counts over a stretch of retirement, such as
    /// one the sampler did not see.
    #[must_use]
    #[inline]
    pub fn count(self, retired: &Skipped) -> u64 {
        match self {
            PmuEvent::InstRetiredAny
            | PmuEvent::InstRetiredAll
            | PmuEvent::InstRetiredPrecDist
            | PmuEvent::AmdRetiredInstructions => retired.insns,
            PmuEvent::BrInstRetiredNearTaken | PmuEvent::BrInstExecTaken => retired.taken_branches,
            PmuEvent::IbsOp => retired.uops,
        }
    }

    /// A budget that lets `quiet` increments of this event retire unseen
    /// and nothing else force a delivery.
    #[must_use]
    #[inline]
    pub fn quiet_budget(self, quiet: u64) -> QuietBudget {
        let mut budget = QuietBudget::UNLIMITED;
        match self {
            PmuEvent::InstRetiredAny
            | PmuEvent::InstRetiredAll
            | PmuEvent::InstRetiredPrecDist
            | PmuEvent::AmdRetiredInstructions => budget.insns = quiet,
            PmuEvent::BrInstRetiredNearTaken | PmuEvent::BrInstExecTaken => {
                budget.taken_branches = quiet;
            }
            PmuEvent::IbsOp => budget.uops = quiet,
        }
        budget
    }

    /// The vendor event-name string, for reports and Table 3 output.
    #[must_use]
    pub fn vendor_name(self) -> &'static str {
        match self {
            PmuEvent::InstRetiredAny => "INST_RETIRED.ANY",
            PmuEvent::InstRetiredAll => "INST_RETIRED.ALL",
            PmuEvent::InstRetiredPrecDist => "INST_RETIRED.PREC_DIST",
            PmuEvent::BrInstRetiredNearTaken => "BR_INST_RETIRED.NEAR_TAKEN",
            PmuEvent::BrInstExecTaken => "BR_INST_EXEC.TAKEN",
            PmuEvent::AmdRetiredInstructions => "RETIRED_INSTRUCTIONS",
            PmuEvent::IbsOp => "IBS_OP",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_isa::InsnClass;

    fn ev(uops: u32, taken: Option<u32>) -> RetireEvent {
        RetireEvent {
            addr: 10,
            seq: 0,
            cycle: 0,
            uops,
            class: InsnClass::Alu,
            taken_target: taken,
            mispredicted: false,
        }
    }

    #[test]
    fn instruction_events_count_one() {
        assert_eq!(PmuEvent::InstRetiredAny.increment(&ev(3, None)), 1);
        assert_eq!(PmuEvent::InstRetiredAll.increment(&ev(8, Some(5))), 1);
    }

    #[test]
    fn branch_events_count_taken_only() {
        assert_eq!(PmuEvent::BrInstRetiredNearTaken.increment(&ev(1, None)), 0);
        assert_eq!(
            PmuEvent::BrInstRetiredNearTaken.increment(&ev(1, Some(3))),
            1
        );
    }

    #[test]
    fn counts_and_budgets_use_the_events_unit() {
        let skipped = Skipped {
            insns: 10,
            uops: 14,
            taken_branches: 3,
        };
        for (event, count) in [
            (PmuEvent::InstRetiredPrecDist, 10),
            (PmuEvent::BrInstExecTaken, 3),
            (PmuEvent::IbsOp, 14),
        ] {
            assert_eq!(event.count(&skipped), count);
            // The budget limits exactly the unit the event counts.
            let b = event.quiet_budget(7);
            let as_skipped = Skipped {
                insns: b.insns,
                uops: b.uops,
                taken_branches: b.taken_branches,
            };
            assert_eq!(event.count(&as_skipped), 7);
            assert_eq!(b.insns.min(b.uops).min(b.taken_branches), 7);
            assert_eq!(b.insns.max(b.uops).max(b.taken_branches), u64::MAX);
            assert_eq!(b.deadline, u64::MAX);
        }
    }

    #[test]
    fn ibs_counts_uops() {
        assert_eq!(PmuEvent::IbsOp.increment(&ev(8, None)), 8);
        assert_eq!(PmuEvent::IbsOp.increment(&ev(1, None)), 1);
    }
}
