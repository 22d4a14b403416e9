//! The Last Branch Record facility.
//!
//! §3.2 of the paper: "An LBR facility has a number of stacked entries,
//! which represent source-target pairs `<Si, Ti>` of branches executed by
//! the processor. When sampling on the Taken Branches event, branches
//! between a target `Ti` and the next source `Si+1` in the stack are not
//! taken. Thus, all basic blocks between `Ti` and `Si+1` are executed
//! exactly once."
//!
//! The facility is a single shared resource: §6.2 warns about "collisions
//! on LBRs — a valuable single resource — with other filtered collections
//! such as call-stack mode". [`LbrMode::CallStack`] models that competing
//! configuration so the failure-injection tests can demonstrate the
//! collision.

use ct_isa::{Addr, InsnClass};
use ct_sim::RetireEvent;
use serde::{Deserialize, Serialize};

/// One recorded branch: source address and target address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LbrEntry {
    pub from: Addr,
    pub to: Addr,
}

/// Which taken transfers are recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LbrFilter {
    /// All taken transfers (branches, jumps, calls, returns).
    Any,
    /// Calls only.
    CallsOnly,
    /// Conditional branches only.
    CondOnly,
}

impl LbrFilter {
    fn admits(self, ev: &RetireEvent) -> bool {
        match self {
            LbrFilter::Any => true,
            LbrFilter::CallsOnly => ev.class == InsnClass::Call,
            LbrFilter::CondOnly => ev.class == InsnClass::Branch,
        }
    }
}

/// Ring (normal) vs call-stack recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LbrMode {
    /// Classic ring buffer of the most recent taken branches.
    Ring,
    /// Call-stack mode: calls push, returns pop. Useful for unwinding, but
    /// the recorded entries no longer describe consecutive control flow —
    /// basic-block reconstruction from them is invalid.
    CallStack,
}

/// The LBR stack: a fixed ring of `depth` entries.
#[derive(Debug, Clone)]
pub struct LbrStack {
    ring: Box<[LbrEntry]>,
    /// Slot the next recorded branch goes to.
    next: usize,
    len: usize,
    filter: LbrFilter,
    mode: LbrMode,
}

impl LbrStack {
    /// Creates a stack with `depth` entries (0 = facility absent; such a
    /// stack records nothing and snapshots empty).
    #[must_use]
    pub fn new(depth: usize, filter: LbrFilter, mode: LbrMode) -> Self {
        Self {
            ring: vec![LbrEntry { from: 0, to: 0 }; depth].into_boxed_slice(),
            next: 0,
            len: 0,
            filter,
            mode,
        }
    }

    /// A 16-deep any-branch ring — the configuration the paper's LBR
    /// method uses.
    #[must_use]
    pub fn standard(depth: usize) -> Self {
        Self::new(depth, LbrFilter::Any, LbrMode::Ring)
    }

    /// Feeds one retired instruction; records it when it is a taken
    /// transfer admitted by the filter.
    #[inline]
    pub fn observe(&mut self, ev: &RetireEvent) {
        if self.ring.is_empty() {
            return;
        }
        let Some(target) = ev.taken_target else {
            return;
        };
        if !self.filter.admits(ev) {
            return;
        }
        let entry = LbrEntry {
            from: ev.addr,
            to: target,
        };
        match (self.mode, ev.class) {
            (LbrMode::Ring, _) | (LbrMode::CallStack, InsnClass::Call) => self.push(entry),
            (LbrMode::CallStack, InsnClass::Ret) => self.pop(),
            // Other transfers are not recorded in call-stack mode.
            (LbrMode::CallStack, _) => {}
        }
    }

    /// Records `entry` as the newest, evicting the oldest when full.
    #[inline]
    fn push(&mut self, entry: LbrEntry) {
        self.ring[self.next] = entry;
        self.next = if self.next + 1 == self.ring.len() {
            0
        } else {
            self.next + 1
        };
        self.len = (self.len + 1).min(self.ring.len());
    }

    /// Drops the newest entry, if any.
    fn pop(&mut self) {
        if self.len > 0 {
            self.len -= 1;
            self.next = self.next.checked_sub(1).unwrap_or(self.ring.len() - 1);
        }
    }

    /// Snapshot of the stack, oldest entry first (the order the stack-walk
    /// reconstruction consumes).
    #[must_use]
    pub fn snapshot(&self) -> Vec<LbrEntry> {
        let depth = self.ring.len();
        (0..self.len)
            .map(|i| self.ring[(self.next + depth - self.len + i) % depth])
            .collect()
    }

    /// Number of entries currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no branches have been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn branch(from: Addr, to: Addr, class: InsnClass) -> RetireEvent {
        RetireEvent {
            addr: from,
            seq: 0,
            cycle: 0,
            uops: 1,
            class,
            taken_target: Some(to),
            mispredicted: false,
        }
    }

    fn plain(addr: Addr) -> RetireEvent {
        RetireEvent {
            addr,
            seq: 0,
            cycle: 0,
            uops: 1,
            class: InsnClass::Alu,
            taken_target: None,
            mispredicted: false,
        }
    }

    #[test]
    fn records_taken_transfers_only() {
        let mut lbr = LbrStack::standard(4);
        lbr.observe(&plain(1));
        lbr.observe(&branch(2, 10, InsnClass::Branch));
        lbr.observe(&plain(11));
        assert_eq!(lbr.snapshot(), [LbrEntry { from: 2, to: 10 }]);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut lbr = LbrStack::standard(3);
        for i in 0..5u32 {
            lbr.observe(&branch(i * 10, i * 10 + 5, InsnClass::Jump));
        }
        let snap = lbr.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].from, 20, "oldest surviving entry");
        assert_eq!(snap[2].from, 40, "newest entry last");
    }

    #[test]
    fn zero_depth_records_nothing() {
        let mut lbr = LbrStack::standard(0);
        lbr.observe(&branch(1, 2, InsnClass::Branch));
        assert!(lbr.is_empty());
        assert!(lbr.snapshot().is_empty());
    }

    #[test]
    fn calls_only_filter() {
        let mut lbr = LbrStack::new(8, LbrFilter::CallsOnly, LbrMode::Ring);
        lbr.observe(&branch(1, 100, InsnClass::Call));
        lbr.observe(&branch(5, 1, InsnClass::Branch));
        lbr.observe(&branch(101, 2, InsnClass::Ret));
        assert_eq!(lbr.snapshot(), [LbrEntry { from: 1, to: 100 }]);
    }

    #[test]
    fn call_stack_pops_across_the_ring_wrap() {
        let mut lbr = LbrStack::new(3, LbrFilter::Any, LbrMode::CallStack);
        for i in 0..5u32 {
            lbr.observe(&branch(i, 100 + i, InsnClass::Call));
        }
        lbr.observe(&branch(200, 4, InsnClass::Ret));
        assert_eq!(
            lbr.snapshot().iter().map(|e| e.from).collect::<Vec<_>>(),
            [2, 3]
        );
        lbr.observe(&branch(201, 3, InsnClass::Ret));
        lbr.observe(&branch(202, 2, InsnClass::Ret));
        lbr.observe(&branch(203, 1, InsnClass::Ret));
        assert!(lbr.is_empty());
        lbr.observe(&branch(7, 107, InsnClass::Call));
        assert_eq!(lbr.snapshot(), [LbrEntry { from: 7, to: 107 }]);
    }

    #[test]
    fn call_stack_mode_pushes_and_pops() {
        let mut lbr = LbrStack::new(8, LbrFilter::Any, LbrMode::CallStack);
        lbr.observe(&branch(1, 100, InsnClass::Call));
        lbr.observe(&branch(100, 200, InsnClass::Call));
        assert_eq!(lbr.len(), 2);
        lbr.observe(&branch(201, 101, InsnClass::Ret));
        assert_eq!(lbr.len(), 1, "return popped the top frame");
        // Conditional branches are invisible in call-stack mode.
        lbr.observe(&branch(50, 10, InsnClass::Branch));
        assert_eq!(lbr.len(), 1);
    }
}
