//! The benchmark's own arithmetic: nearest-rank percentiles with the
//! minimum-tail rule, medians of rates, and failure accounting.

pub use ct_bench::streams::percentile;

/// A percentile is reported only when at least this many samples lie
/// strictly beyond its nearest rank; below that the tail is one or two
/// unlucky samples, not a distribution.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile of an ascending-sorted slice, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond its rank.
#[must_use]
pub fn reportable(sorted: &[f64], p: f64) -> Option<f64> {
    let value = percentile(sorted, p)?;
    let rank = ((p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    (sorted.len() - rank >= MIN_BEYOND).then_some(value)
}

/// Median of unsorted values (nearest rank), `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// Sorts a sample set ascending for the percentile functions.
#[must_use]
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Operations attempted and failed in one run. A failure is an error
/// response, a response whose bytes differ from the offline reference,
/// a response that never arrived, or a transport-level error.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Counts one response whose bytes must equal `want` and which must
    /// carry no error. Returns whether it passed.
    pub fn check(&mut self, got: &str, want: &str) -> bool {
        if !self.compare(got, want, 1) {
            false
        } else if !is_success(got) {
            self.fail_attempted(1, || format!("error response: {got:?}"));
            false
        } else {
            true
        }
    }

    /// Counts `n` operations whose combined output `got` must equal
    /// `want` byte for byte; a mismatch fails all `n`.
    pub fn compare(&mut self, got: &str, want: &str, n: u64) -> bool {
        self.attempted += n;
        let ok = got == want;
        if !ok {
            self.fail_attempted(n, || {
                format!("output differs from reference:\n  got  {got:?}\n  want {want:?}")
            });
        }
        ok
    }

    /// Counts `n` attempted operations that produced no output to check
    /// (lost to a transport error or a closed connection).
    pub fn lost(&mut self, n: u64, why: impl FnOnce() -> String) {
        self.attempted += n;
        self.fail_attempted(n, why);
    }

    /// Counts `n` failures of operations already counted as attempted
    /// (server-side connection errors and worker panics).
    pub fn fail_attempted(&mut self, n: u64, why: impl FnOnce() -> String) {
        if n == 0 {
            return;
        }
        self.failed += n;
        if self.first_failure.is_none() {
            self.first_failure = Some(why());
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        if other.failed > 0 {
            self.fail_attempted(other.failed, || other.first_failure.unwrap_or_default());
        }
    }

    /// Failed operations ÷ attempted operations (0 when nothing ran).
    #[must_use]
    pub fn error_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Whether a response line reports success: a successful response
/// serializes its `error` field as `null`.
fn is_success(response: &str) -> bool {
    response.contains("\"error\":null")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.99), Some(99.0));
        assert_eq!(percentile(&s, 0.991), Some(100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(
            median(&[4.0, 1.0, 3.0, 2.0]),
            Some(2.0),
            "nearest rank never interpolates"
        );
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples has rank 990: exactly ten beyond it.
        let s = ramp(1000);
        assert_eq!(reportable(&s, 0.99), Some(990.0));
        // One sample fewer puts the rank at 990 of 999: nine beyond.
        let s = ramp(999);
        assert_eq!(reportable(&s, 0.99), None);
        // The median needs 20 samples (rank 10, ten beyond).
        assert_eq!(reportable(&ramp(20), 0.5), Some(10.0));
        assert_eq!(reportable(&ramp(19), 0.5), None);
        assert_eq!(reportable(&[], 0.5), None);
    }

    const OK: &str = "{\"request\":{},\"stats\":{\"mean\":0.1},\"error\":null}\n";

    #[test]
    fn error_frac_counts_a_corrupted_response() {
        let mut tally = Tally::default();
        assert!(tally.check(OK, OK));
        let corrupted = OK.replace("0.1", "0.2");
        assert!(!tally.check(&corrupted, OK));
        assert!(tally.check(OK, OK));
        assert!(
            !tally.check(&OK[..OK.len() - 1], OK),
            "a missing newline is a byte mismatch"
        );
        assert_eq!((tally.attempted, tally.failed), (4, 2));
        assert_eq!(tally.error_frac(), 0.5);
        assert!(tally.first_failure.as_deref().unwrap().contains("0.2"));
    }

    #[test]
    fn error_responses_lost_responses_and_server_errors_all_count() {
        let err = "{\"request\":{},\"stats\":null,\"error\":\"unknown machine\"}\n";
        let mut tally = Tally::default();
        assert!(
            !tally.check(err, err),
            "a matching error response still failed"
        );
        tally.lost(3, || "connection reset".to_string());
        assert_eq!((tally.attempted, tally.failed), (4, 4));
        let mut server = Tally::default();
        server.check(OK, OK);
        server.fail_attempted(1, || "worker panicked".to_string());
        tally.merge(server);
        assert_eq!((tally.attempted, tally.failed), (5, 5));
        assert!(tally
            .first_failure
            .as_deref()
            .unwrap()
            .starts_with("error response"));
        assert_eq!(Tally::default().error_frac(), 0.0);
    }
}
