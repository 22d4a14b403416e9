//! The complete "REF" profile: the paper's instrumentation ground truth.
//!
//! Like the paper's Pin run (§3.3), a collection counts how often each
//! instruction retires and nothing about when, so it runs the untimed
//! instance of the dispatch loop ([`ct_sim::count_retired`]): no cache
//! model, branch predictor or clock, and no machine. Every machine
//! retires the same instructions, so one profile serves a workload on
//! all of them.

use ct_isa::{Cfg, Program};
use ct_sim::{RetireTotals, RunConfig, SimError};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of reference collections.
static COLLECTIONS: AtomicU64 = AtomicU64::new(0);

/// Number of reference collections (untimed executions) performed by
/// this process so far.
///
/// Reference collection is one full extra execution of a workload;
/// callers that share profiles — the `countertrust` grid engine (one per
/// workload) and its serving cache (one per resident pair) — use this
/// counter to assert the sharing actually happened.
#[must_use]
pub fn collection_count() -> u64 {
    COLLECTIONS.load(Ordering::Relaxed)
}

/// A scoped view over [`collection_count`]: snapshots the counter at
/// construction so cache-aware consumers can audit how many reference
/// collections a region of work actually performed.
///
/// The `countertrust` serving layer's contract — "a reference profile is
/// built at most once per (machine, workload) pair per batch, whatever
/// the cache capacity" — is asserted against this delta by the
/// integration and property suites. The counter is process-global, so
/// audited regions must not run concurrently with unrelated collections
/// (test binaries serialize audited tests or own their whole process).
#[derive(Debug, Clone, Copy)]
pub struct CollectionAudit {
    start: u64,
}

impl CollectionAudit {
    /// Starts an audit at the current counter value.
    #[must_use]
    pub fn begin() -> Self {
        Self {
            start: collection_count(),
        }
    }

    /// Reference collections performed since [`CollectionAudit::begin`].
    #[must_use]
    pub fn collections(&self) -> u64 {
        collection_count() - self.start
    }
}

/// Exact per-block and per-function profile of one execution, used as the
/// denominator of every accuracy comparison (the paper's "REF" method).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReferenceProfile {
    /// Instructions executed per basic block, indexed by block id.
    pub bb_instructions: Vec<u64>,
    /// Block entry counts, indexed by block id.
    pub bb_entries: Vec<u64>,
    /// Exclusive instructions per function, parallel to `function_names`.
    pub function_instructions: Vec<u64>,
    pub function_names: Vec<String>,
    /// Total retired instructions (`net_instruction_count` in §3.3).
    pub total_instructions: u64,
    /// Total taken control transfers (the LBR sampling event count).
    pub taken_branches: u64,
}

impl ReferenceProfile {
    /// Runs `program` once, untimed, with exact instrumentation attached
    /// and returns the reference profile.
    pub fn collect(program: &Program, config: &RunConfig) -> Result<Self, SimError> {
        let cfg = Cfg::build(program);
        Self::collect_with_cfg(program, &cfg, config).map(|(p, _)| p)
    }

    /// As [`ReferenceProfile::collect`] but reuses a prebuilt CFG and also
    /// returns the pass's totals.
    pub fn collect_with_cfg(
        program: &Program,
        cfg: &Cfg,
        config: &RunConfig,
    ) -> Result<(Self, RetireTotals), SimError> {
        COLLECTIONS.fetch_add(1, Ordering::Relaxed);
        // One count per instruction address is all the run keeps; block
        // and function counts fold out of it afterwards.
        let mut hits = vec![0; program.len()];
        let totals = ct_sim::count_retired(program, config, &mut hits)?;
        let sum = |start: u32, end: u32| hits[start as usize..end as usize].iter().sum::<u64>();
        let functions = program.symbols.functions();
        Ok((
            Self {
                bb_instructions: cfg.blocks().iter().map(|b| sum(b.start, b.end)).collect(),
                bb_entries: cfg
                    .blocks()
                    .iter()
                    .map(|b| hits[b.start as usize])
                    .collect(),
                function_instructions: functions.iter().map(|f| sum(f.entry, f.end)).collect(),
                function_names: functions.iter().map(|f| f.name.clone()).collect(),
                total_instructions: totals.instructions,
                taken_branches: totals.taken_branches,
            },
            totals,
        ))
    }

    /// Total retired instructions.
    #[must_use]
    pub fn total_instructions(&self) -> u64 {
        self.total_instructions
    }

    /// Functions ranked by exclusive instruction count, descending.
    #[must_use]
    pub fn function_ranking(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self
            .function_names
            .iter()
            .cloned()
            .zip(self.function_instructions.iter().copied())
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_isa::asm::assemble;

    #[test]
    fn reference_is_internally_consistent() {
        let p = assemble(
            "t",
            r#"
            .func main
                movi r1, 20
            top:
                call leaf
                subi r1, r1, 1
                brnz r1, top
                halt
            .endfunc
            .func leaf
                addi r2, r2, 1
                ret
            .endfunc
        "#,
        )
        .unwrap();
        let r = ReferenceProfile::collect(&p, &RunConfig::default()).unwrap();
        let bb_sum: u64 = r.bb_instructions.iter().sum();
        let fn_sum: u64 = r.function_instructions.iter().sum();
        assert_eq!(bb_sum, r.total_instructions);
        assert_eq!(fn_sum, r.total_instructions);
        assert!(r.taken_branches > 0);
    }

    #[test]
    fn loop_counts_are_exact() {
        let p = assemble(
            "t",
            r#"
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
        let r = ReferenceProfile::collect(&p, &RunConfig::default()).unwrap();
        // Block 0: movi (1 entry, 1 insn). Block 1: subi+brnz (10 entries,
        // 20 insns). Block 2: halt (1 entry, 1 insn).
        assert_eq!(r.bb_entries[0], 1);
        assert_eq!(r.bb_instructions[0], 1);
        assert_eq!(r.bb_entries[1], 10);
        assert_eq!(r.bb_instructions[1], 20);
        assert_eq!(r.bb_entries[2], 1);
        assert_eq!(r.total_instructions(), 22);
    }

    #[test]
    fn totals_match_summary() {
        let p = assemble(
            "t",
            r#"
            .func main
                movi r1, 100
            top:
                andi r2, r1, 3
                brz r2, skip
                addi r3, r3, 1
            skip:
                subi r1, r1, 1
                brnz r1, top
                halt
            .endfunc
        "#,
        )
        .unwrap();
        let (r, s) =
            ReferenceProfile::collect_with_cfg(&p, &Cfg::build(&p), &RunConfig::default()).unwrap();
        assert_eq!(r.total_instructions(), s.instructions);
        let sum: u64 = r.bb_instructions.iter().sum();
        assert_eq!(sum, s.instructions);
    }

    #[test]
    fn counts_per_function() {
        let p = assemble(
            "t",
            r#"
            .func main
                movi r1, 4
            top:
                call work
                subi r1, r1, 1
                brnz r1, top
                halt
            .endfunc
            .func work
                addi r2, r2, 1
                addi r2, r2, 1
                ret
            .endfunc
        "#,
        )
        .unwrap();
        let r = ReferenceProfile::collect(&p, &RunConfig::default()).unwrap();
        let main_idx = r.function_names.iter().position(|n| n == "main").unwrap();
        let work_idx = r.function_names.iter().position(|n| n == "work").unwrap();
        // main: movi + 4*(call+subi+brnz) + halt = 14.
        assert_eq!(r.function_instructions[main_idx], 14);
        // work: 4 * 3 = 12.
        assert_eq!(r.function_instructions[work_idx], 12);
        // `work` is entered only by main's `call`: its first block's entry
        // count is the call count.
        let entry = p.symbols.by_name("work").unwrap().entry;
        assert_eq!(r.bb_entries[Cfg::build(&p).block_of(entry) as usize], 4);
    }

    #[test]
    fn ranking_is_sorted() {
        let p = assemble(
            "t",
            r#"
            .func main
                call hot
                halt
            .endfunc
            .func hot
                movi r1, 100
            t:
                subi r1, r1, 1
                brnz r1, t
                ret
            .endfunc
        "#,
        )
        .unwrap();
        let r = ReferenceProfile::collect(&p, &RunConfig::default()).unwrap();
        let rank = r.function_ranking();
        assert_eq!(rank[0].0, "hot");
        for w in rank.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn ranking_orders_by_count() {
        let p = assemble(
            "t",
            r#"
            .func main
                call hot
                call cold
                halt
            .endfunc
            .func hot
                movi r1, 50
            t:
                subi r1, r1, 1
                brnz r1, t
                ret
            .endfunc
            .func cold
                ret
            .endfunc
        "#,
        )
        .unwrap();
        let r = ReferenceProfile::collect(&p, &RunConfig::default()).unwrap();
        let rank = r.function_ranking();
        assert_eq!(rank[0].0, "hot");
        assert!(rank[0].1 > rank[1].1);
    }

    #[test]
    fn audit_observes_collections() {
        let p = assemble("t", ".func main\n halt\n.endfunc\n").unwrap();
        let audit = CollectionAudit::begin();
        ReferenceProfile::collect(&p, &RunConfig::default()).unwrap();
        // `>=`: sibling tests collect concurrently against the same
        // process-global counter.
        assert!(audit.collections() >= 1);
    }

    #[test]
    fn serializes_to_json() {
        let p = assemble("t", ".func main\n halt\n.endfunc\n").unwrap();
        let r = ReferenceProfile::collect(&p, &RunConfig::default()).unwrap();
        let js = serde_json::to_string(&r).unwrap();
        assert!(js.contains("total_instructions"));
    }
}
