//! One run's result: named metrics with units, the failure tally, and
//! the lines printed for a reader before the final JSON object.

use crate::stats::{self, Tally};

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// Metrics the run could not produce, with the reason.
    pub missing: Vec<String>,
    /// Free-form lines for the reader (sample counts, first failure).
    pub notes: Vec<String>,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        if value.is_finite() {
            self.metrics.push(Metric {
                name: name.to_string(),
                value,
                unit,
            });
        } else {
            self.missing.push(format!("{name}: not finite ({value})"));
        }
    }

    pub fn add_opt(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(v) => self.add(name, v, unit),
            None => self.missing.push(format!("{name}: no samples")),
        }
    }

    /// `p50_ms` and `p99_ms` of ascending per-operation latencies, each
    /// only when ten samples lie beyond it.
    pub fn latency(&mut self, sorted_ms: &[f64], per: &str) {
        for (name, p) in [("p50_ms", 0.5), ("p99_ms", 0.99)] {
            match stats::reportable(sorted_ms, p) {
                Some(v) => self.add(name, v, "ms"),
                None => self.missing.push(format!(
                    "{name}: {} samples leave fewer than {} beyond it",
                    sorted_ms.len(),
                    stats::MIN_BEYOND
                )),
            }
        }
        self.notes.push(format!(
            "latency samples: {} {per} latencies",
            sorted_ms.len()
        ));
    }

    /// Notes the per-slice rates behind `ops_per_s` and the set-up count.
    pub fn note_rates(&mut self, rates: &[f64], setups: usize) {
        let rates: Vec<String> = rates.iter().map(|r| format!("{r:.1}")).collect();
        self.notes.push(format!(
            "rates (1/s): {}; set-ups: {setups}",
            rates.join(" ")
        ));
    }

    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The final JSON line: `correct`, `attempted`, `failed` and the
    /// metrics named in `keep`, in that order.
    #[must_use]
    pub fn json(&self, keep: &[&str]) -> String {
        let metrics: Vec<String> = keep
            .iter()
            .filter_map(|name| self.metrics.iter().find(|m| m.name == *name))
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    serde_json::to_string(&m.name).expect("names serialize"),
                    m.value,
                    serde_json::to_string(m.unit).expect("units serialize"),
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(keep),
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(",")
        )
    }

    /// Whether every operation passed its check and every kept metric
    /// was produced.
    #[must_use]
    pub fn correct(&self, keep: &[&str]) -> bool {
        self.tally.failed == 0
            && self.tally.attempted > 0
            && keep.iter().all(|name| self.get(name).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_keeps_only_the_named_metrics() {
        let mut r = Report::default();
        r.tally.check("x\"error\":null", "x\"error\":null");
        r.add("ops_per_s", 12.5, "1/s");
        r.add("cache.hit_ns", 40.0, "ns");
        assert_eq!(
            r.json(&["ops_per_s"]),
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"ops_per_s\":{\"value\":12.5,\"unit\":\"1/s\"}}}"
        );
        assert!(
            !r.correct(&["ops_per_s", "setup_s"]),
            "a missing metric is not correct"
        );
    }

    #[test]
    fn latency_is_reported_only_with_enough_tail() {
        let mut r = Report::default();
        r.latency(&(1..=500).map(f64::from).collect::<Vec<_>>(), "request");
        assert_eq!(r.get("p50_ms"), Some(250.0));
        assert_eq!(r.get("p99_ms"), None);
        assert!(r.missing[0].starts_with("p99_ms: 500 samples"));
    }
}
