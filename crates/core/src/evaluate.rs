//! The repeated-measurement harness behind Tables 1 and 2.
//!
//! §4.1: "Each of our kernels ... is measured five times." This module
//! runs a method `repeats` times with distinct seeds and reports the error
//! statistics.

use crate::error::CoreError;
use crate::methods::MethodInstance;
use crate::metrics::Stats;
use crate::session::{MethodRun, Session};
use serde::{Deserialize, Serialize};

/// Error statistics of one method over repeated runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorStats {
    pub method: String,
    pub stats: Stats,
    /// Individual per-run accuracy errors.
    pub runs: Vec<f64>,
    /// Mean samples per run.
    pub mean_samples: f64,
    /// Mean skid (instructions) per run.
    pub mean_skid: f64,
}

/// A full evaluation cell: method × workload × machine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Evaluation {
    pub machine: String,
    pub workload: String,
    pub methods: Vec<ErrorStats>,
}

/// Runs `method` `repeats` times (seeds `base_seed..base_seed+repeats`)
/// and aggregates the accuracy errors.
pub fn evaluate_method(
    session: &mut Session<'_>,
    method: &MethodInstance,
    repeats: usize,
    base_seed: u64,
) -> Result<ErrorStats, CoreError> {
    let seeds: Vec<u64> = (0..repeats as u64).map(|i| base_seed + i).collect();
    evaluate_method_with_seeds(session, method, method.kind.label(), &seeds)
}

/// Runs `method` once per seed in `seeds` and aggregates the accuracy
/// errors under an explicit result label. The runs share passes through
/// [`Session::run_methods`].
///
/// This is the primitive behind [`evaluate_method`]. The grid engine
/// ([`crate::grid`]) and the serving layer fold their runs the same
/// way, with seeds derived from grid coordinates or from the request,
/// never from scheduling order.
pub fn evaluate_method_with_seeds(
    session: &mut Session<'_>,
    method: &MethodInstance,
    label: &str,
    seeds: &[u64],
) -> Result<ErrorStats, CoreError> {
    let runs: Vec<(&MethodInstance, u64)> = seeds.iter().map(|&seed| (method, seed)).collect();
    let mut tally = Tally::default();
    session.run_methods(&runs, |_, run| tally.add(run));
    tally.finish(label)
}

/// Folds one method's runs, in seed order, into its [`ErrorStats`]. The
/// first failed run decides the outcome, as it ends a run-by-run loop.
#[derive(Default)]
pub(crate) struct Tally {
    runs: Vec<f64>,
    samples: usize,
    skid: f64,
    error: Option<CoreError>,
}

impl Tally {
    pub(crate) fn add(&mut self, run: Result<MethodRun, CoreError>) {
        match run {
            _ if self.error.is_some() => {}
            Ok(r) => {
                self.runs.push(r.accuracy_error);
                self.samples += r.samples;
                self.skid += r.mean_skid;
            }
            Err(e) => self.error = Some(e),
        }
    }

    pub(crate) fn finish(self, label: &str) -> Result<ErrorStats, CoreError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let n = self.runs.len().max(1) as f64;
        Ok(ErrorStats {
            method: label.to_string(),
            stats: Stats::from_values(&self.runs),
            mean_samples: self.samples as f64 / n,
            mean_skid: self.skid / n,
            runs: self.runs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{MethodKind, MethodOptions};
    use ct_isa::asm::assemble;
    use ct_sim::MachineModel;

    #[test]
    fn five_repeats_produce_five_runs() {
        let m = MachineModel::ivy_bridge();
        let p = assemble(
            "k",
            r#"
            .func main
                movi r1, 20000
            top:
                addi r2, r2, 1
                subi r1, r1, 1
                brnz r1, top
                halt
            .endfunc
        "#,
        )
        .unwrap();
        let mut s = Session::new(&m, &p);
        let method = MethodKind::PrecisePrime
            .instantiate(&m, &MethodOptions::fast())
            .unwrap();
        let stats = evaluate_method(&mut s, &method, 5, 100).unwrap();
        assert_eq!(stats.runs.len(), 5);
        assert_eq!(stats.stats.n, 5);
        assert!(stats.mean_samples > 0.0);
        assert!(stats.stats.mean >= 0.0);
        assert!(stats.stats.min <= stats.stats.max);
    }
}
