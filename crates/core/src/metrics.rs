//! Accuracy metrics.
//!
//! The headline metric is §3.3's accuracy error:
//!
//! ```text
//! err(x) = Σ_i |BB_x[i] − BB_REF[i]|  /  net_instruction_count
//! ```
//!
//! Estimates are first scaled so their total mass equals the reference
//! total — the metric measures *distribution* error, not sampling-rate
//! mismatch (a real tool equally calibrates sample mass against a counting
//! counter or wall-clock rate). An error of 0 is a perfect profile; an
//! error of 2 means the estimate put all mass where none belongs.

use serde::{Deserialize, Serialize};

/// §3.3 accuracy error between an estimated and a reference block profile.
///
/// Returns 2.0 (maximal disagreement) when the estimate is empty but the
/// reference is not — an empty profile is "all mass in the wrong place".
///
/// # Panics
///
/// Panics when the two slices have different lengths (they must index the
/// same CFG).
#[must_use]
pub fn accuracy_error(estimated: &[f64], reference: &[u64]) -> f64 {
    assert_eq!(
        estimated.len(),
        reference.len(),
        "profiles index the same CFG"
    );
    let ref_total: f64 = reference.iter().map(|&x| x as f64).sum();
    if ref_total == 0.0 {
        return 0.0;
    }
    let est_total: f64 = estimated.iter().sum();
    if est_total <= 0.0 {
        return 2.0;
    }
    let scale = ref_total / est_total;
    let abs_dev: f64 = estimated
        .iter()
        .zip(reference.iter())
        .map(|(&e, &r)| (e * scale - r as f64).abs())
        .sum();
    abs_dev / ref_total
}

/// True when the top-`n` entries of both rankings name the same items in
/// the same order (the paper's FullCMS "top 10 functions in the right
/// order" check, §5.2).
#[must_use]
pub fn top_n_exact_match<T: PartialEq>(a: &[T], b: &[T], n: usize) -> bool {
    let n = n.min(a.len()).min(b.len());
    if a.len() < n || b.len() < n {
        return false;
    }
    a[..n] == b[..n]
}

/// Kendall rank-correlation coefficient (tau-a) between two orderings of
/// the same item set, each given as a ranked list of item identifiers.
///
/// Items missing from either list are ignored. Returns 1.0 for identical
/// orderings, -1.0 for reversed, and 0.0 when fewer than two common items
/// exist.
#[must_use]
pub fn kendall_tau<T: PartialEq>(a: &[T], b: &[T]) -> f64 {
    // Positions of common items in both rankings.
    let common: Vec<(usize, usize)> = a
        .iter()
        .enumerate()
        .filter_map(|(ia, item)| b.iter().position(|x| x == item).map(|ib| (ia, ib)))
        .collect();
    let n = common.len();
    if n < 2 {
        return 0.0;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in i + 1..n {
            let da = common[i].0.cmp(&common[j].0);
            let db = common[i].1.cmp(&common[j].1);
            if da == db {
                concordant += 1;
            } else {
                discordant += 1;
            }
        }
    }
    (concordant - discordant) as f64 / (n * (n - 1) / 2) as f64
}

/// Summary statistics over repeated measurements.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Stats {
    pub mean: f64,
    pub std_dev: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Stats {
    /// Computes stats over `values` (population standard deviation).
    #[must_use]
    pub fn from_values(values: &[f64]) -> Self {
        let n = values.len();
        if n == 0 {
            return Self {
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
                n: 0,
            };
        }
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self {
            mean,
            std_dev: var.sqrt(),
            min,
            max,
            n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_profile_has_zero_error() {
        let reference = vec![100u64, 50, 0, 25];
        let est: Vec<f64> = reference.iter().map(|&x| x as f64).collect();
        assert_eq!(accuracy_error(&est, &reference), 0.0);
    }

    #[test]
    fn scaling_is_ignored() {
        let reference = vec![100u64, 50, 25];
        // Same distribution at 3x the mass: still perfect.
        let est = vec![300.0, 150.0, 75.0];
        assert!(accuracy_error(&est, &reference) < 1e-12);
    }

    #[test]
    fn fully_misplaced_mass_errors_at_two() {
        let reference = vec![100u64, 0];
        let est = vec![0.0, 100.0];
        assert_eq!(accuracy_error(&est, &reference), 2.0);
    }

    #[test]
    fn empty_estimate_is_maximal_error() {
        let reference = vec![10u64, 20];
        let est = vec![0.0, 0.0];
        assert_eq!(accuracy_error(&est, &reference), 2.0);
    }

    #[test]
    fn empty_reference_is_zero_error() {
        assert_eq!(accuracy_error(&[0.0, 0.0], &[0, 0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "same CFG")]
    fn length_mismatch_panics() {
        let _ = accuracy_error(&[1.0], &[1, 2]);
    }

    #[test]
    fn partial_error_in_between() {
        let reference = vec![100u64, 100];
        let est = vec![150.0, 50.0];
        // Scaled totals match; |150-100| + |50-100| = 100; /200 = 0.5.
        assert!((accuracy_error(&est, &reference) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn top_n_match() {
        let a = ["f", "g", "h", "i"];
        let b = ["f", "g", "x", "y"];
        assert!(top_n_exact_match(&a, &b, 2));
        assert!(!top_n_exact_match(&a, &b, 3));
    }

    #[test]
    fn kendall_identical_and_reversed() {
        let a = [1, 2, 3, 4, 5];
        let rev = [5, 4, 3, 2, 1];
        assert_eq!(kendall_tau(&a, &a), 1.0);
        assert_eq!(kendall_tau(&a, &rev), -1.0);
    }

    #[test]
    fn kendall_partial_overlap() {
        let a = [1, 2, 3, 4];
        let b = [2, 1, 9, 9];
        // Common items {1,2}: one discordant pair.
        assert_eq!(kendall_tau(&a, &b), -1.0);
        assert_eq!(kendall_tau(&a, &[9, 9]), 0.0);
    }

    #[test]
    fn stats_basics() {
        let s = Stats::from_values(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.n, 3);
        assert!((s.std_dev - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        let empty = Stats::from_values(&[]);
        assert_eq!(empty.n, 0);
    }
}
