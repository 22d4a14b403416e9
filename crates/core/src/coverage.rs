//! Sampled code coverage and FDO-input quality.
//!
//! §6.1: LBR-based methods "could serve as input to PGO, code coverage or
//! other sensitive optimization techniques" (cf. THeME \[33\], which tests
//! by hardware monitoring). This module evaluates two consumers:
//!
//! * **coverage** — which basic blocks does a sampled profile believe
//!   executed? Precision/recall against the instrumented truth;
//! * **hot-edge recovery** — can the profile name the hottest call edges
//!   (the input an inliner needs)? Measured as the overlap of the top-k
//!   estimated call targets with the true top-k.

use crate::profile::EstimatedProfile;
use ct_instrument::ReferenceProfile;
use serde::{Deserialize, Serialize};

/// Precision/recall of block-level coverage from a sampled profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Coverage {
    /// Blocks the profile claims executed that really executed / claimed.
    pub precision: f64,
    /// Truly executed blocks the profile found / truly executed.
    pub recall: f64,
    pub claimed: usize,
    pub executed: usize,
}

/// Computes block coverage of `estimate` against the reference.
///
/// A block "claims" execution when its estimated mass is positive.
///
/// # Panics
///
/// Panics if the profiles index different CFGs (length mismatch).
#[must_use]
pub fn block_coverage(estimate: &EstimatedProfile, reference: &ReferenceProfile) -> Coverage {
    assert_eq!(estimate.bb_mass.len(), reference.bb_instructions.len());
    let mut tp = 0usize;
    let mut claimed = 0usize;
    let mut executed = 0usize;
    for (&est, &exact) in estimate.bb_mass.iter().zip(&reference.bb_instructions) {
        let c = est > 0.0;
        let e = exact > 0;
        claimed += usize::from(c);
        executed += usize::from(e);
        tp += usize::from(c && e);
    }
    Coverage {
        precision: if claimed == 0 {
            1.0
        } else {
            tp as f64 / claimed as f64
        },
        recall: if executed == 0 {
            1.0
        } else {
            tp as f64 / executed as f64
        },
        claimed,
        executed,
    }
}

/// Overlap of the top-`k` functions by estimated mass with the true
/// top-`k` (order-insensitive; the inliner cares about membership).
#[must_use]
pub fn hot_function_overlap(
    estimate: &EstimatedProfile,
    reference: &ReferenceProfile,
    k: usize,
) -> f64 {
    let est: std::collections::HashSet<String> = estimate.top_functions(k).into_iter().collect();
    let truth: Vec<String> = reference
        .function_ranking()
        .into_iter()
        .take(k)
        .map(|(n, _)| n)
        .collect();
    if truth.is_empty() {
        return 1.0;
    }
    truth.iter().filter(|n| est.contains(*n)).count() as f64 / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{MethodKind, MethodOptions};
    use crate::Session;
    use ct_sim::MachineModel;

    #[test]
    fn lbr_coverage_beats_classic_recall() {
        // Sparse sampling sees few of g4box's many short blocks; each LBR
        // stack witnesses dozens, so its recall must be far higher at the
        // same sample budget.
        let program = ct_workloads::by_name("g4box", 60_000).unwrap().program;
        let machine = MachineModel::ivy_bridge();
        let opts = MethodOptions::default(); // sparse: ~100 samples
        let mut session = Session::new(&machine, &program);
        let reference = session.reference().unwrap().clone();
        let classic = session
            .run_method(
                &MethodKind::Classic.instantiate(&machine, &opts).unwrap(),
                13,
            )
            .unwrap();
        let lbr = session
            .run_method(&MethodKind::Lbr.instantiate(&machine, &opts).unwrap(), 13)
            .unwrap();
        let c = block_coverage(&classic.profile, &reference);
        let l = block_coverage(&lbr.profile, &reference);
        assert!(
            l.recall > c.recall,
            "LBR recall {:.2} vs classic {:.2}",
            l.recall,
            c.recall
        );
        assert!(
            l.recall > 0.9,
            "LBR should see nearly all blocks: {:.2}",
            l.recall
        );
        // Neither method claims blocks that never ran (precision stays
        // high; skid can leak into an unexecuted block at worst rarely).
        assert!(c.precision > 0.8);
        assert!(l.precision > 0.95);
    }

    #[test]
    fn hot_function_overlap_is_high_for_good_methods() {
        let apps = ct_workloads::applications(0.05);
        let w = apps.iter().find(|w| w.name == "fullcms").unwrap();
        let machine = MachineModel::ivy_bridge();
        let mut session = Session::with_run_config(&machine, &w.program, w.run_config.clone());
        let reference = session.reference().unwrap().clone();
        let opts = MethodOptions::fast();
        let lbr = session
            .run_method(&MethodKind::Lbr.instantiate(&machine, &opts).unwrap(), 8)
            .unwrap();
        let overlap = hot_function_overlap(&lbr.profile, &reference, 10);
        // Membership is recoverable even though exact order is not (§5.2).
        assert!(overlap >= 0.8, "top-10 membership overlap {overlap}");
    }

    #[test]
    fn coverage_edge_cases() {
        let est = EstimatedProfile {
            bb_mass: vec![1.0, 0.0, 2.0],
            function_mass: vec![],
            function_names: vec![],
        };
        let reference = ReferenceProfile {
            bb_instructions: vec![5, 0, 0],
            bb_entries: vec![1, 0, 0],
            function_instructions: vec![],
            function_names: vec![],
            total_instructions: 5,
            taken_branches: 0,
            cycles: 1,
        };
        let c = block_coverage(&est, &reference);
        assert_eq!(c.claimed, 2);
        assert_eq!(c.executed, 1);
        assert!((c.precision - 0.5).abs() < 1e-9);
        assert!((c.recall - 1.0).abs() < 1e-9);
    }
}
