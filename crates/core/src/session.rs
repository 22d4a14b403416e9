//! The profiling session: a perf-record-like driver.
//!
//! A [`Session`] binds a machine and a program, lazily collects the exact
//! reference profile (the "REF" column), and runs sampling methods against
//! the same workload, producing [`MethodRun`]s with estimated profiles and
//! their accuracy errors.
//!
//! The reference profile is held behind an [`Arc`] so sessions over the
//! same `(machine, workload)` pair can share one collection instead of
//! re-driving the instrumented execution: the grid engine
//! ([`crate::grid`]) and the serving layer collect each pair's reference
//! once as a [`crate::cache::PairParts`] and build every per-method
//! session from it via [`Session::with_shared_parts`].

use crate::attrib;
use crate::error::CoreError;
use crate::methods::MethodInstance;
use crate::metrics::accuracy_error;
use crate::profile::EstimatedProfile;
use ct_instrument::ReferenceProfile;
use ct_isa::{Cfg, Program};
use ct_pmu::{Sampler, SamplerStats};
use ct_sim::{Cpu, MachineModel, RunConfig};
use std::sync::Arc;

/// Result of running one sampling method once.
#[derive(Debug, Clone)]
pub struct MethodRun {
    /// The estimated profile.
    pub profile: EstimatedProfile,
    /// §3.3 accuracy error against the session's reference profile.
    pub accuracy_error: f64,
    /// Number of samples collected.
    pub samples: usize,
    /// Sampler bookkeeping (overflows, drops).
    pub stats: SamplerStats,
    /// Mean skid in retired instructions (diagnostic).
    pub mean_skid: f64,
}

/// A profiling session over one `(machine, program)` pair.
pub struct Session<'a> {
    machine: &'a MachineModel,
    program: &'a Program,
    cfg: Arc<Cfg>,
    run_config: RunConfig,
    reference: Option<Arc<ReferenceProfile>>,
    /// Retained interpreter: its scratch tables (decoded program, data
    /// memory, call stack, predictor and cache state) are allocated on the
    /// first [`Session::run_method`] call and reset — not reallocated —
    /// on every subsequent method × seed replay.
    cpu: Cpu<'a>,
}

impl<'a> Session<'a> {
    /// Creates a session with the default run configuration.
    #[must_use]
    pub fn new(machine: &'a MachineModel, program: &'a Program) -> Self {
        Self::with_run_config(machine, program, RunConfig::default())
    }

    /// Creates a session with an explicit run configuration (fuel, args).
    #[must_use]
    pub fn with_run_config(
        machine: &'a MachineModel,
        program: &'a Program,
        run_config: RunConfig,
    ) -> Self {
        Self::with_shared_parts(
            machine,
            program,
            run_config,
            Arc::new(Cfg::build(program)),
            None,
        )
    }

    /// The most general constructor: shares both the program's CFG and
    /// (optionally) the reference profile with other sessions.
    ///
    /// `cfg` must be built from `program` and `reference` (when given)
    /// collected for the same `(machine, program, run_config)` triple.
    /// The grid engine uses this to build one CFG per workload and one
    /// reference per (machine, workload) pair, no matter how many method
    /// cells consume them.
    #[must_use]
    pub fn with_shared_parts(
        machine: &'a MachineModel,
        program: &'a Program,
        run_config: RunConfig,
        cfg: Arc<Cfg>,
        reference: Option<Arc<ReferenceProfile>>,
    ) -> Self {
        Self {
            machine,
            program,
            cfg,
            run_config,
            reference,
            cpu: Cpu::new(machine),
        }
    }

    /// The machine under test.
    #[must_use]
    pub fn machine(&self) -> &MachineModel {
        self.machine
    }

    /// The program's control-flow graph.
    #[must_use]
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// The exact reference profile, collected on first use (one extra
    /// instrumented execution, like the paper's Pin run).
    pub fn reference(&mut self) -> Result<&ReferenceProfile, CoreError> {
        self.ensure_reference()?;
        Ok(self.reference.as_deref().expect("just collected"))
    }

    fn ensure_reference(&mut self) -> Result<(), CoreError> {
        if self.reference.is_none() {
            let (reference, _) = ReferenceProfile::collect_with_cfg(
                self.machine,
                self.program,
                &self.cfg,
                &self.run_config,
            )?;
            self.reference = Some(Arc::new(reference));
        }
        Ok(())
    }

    /// Runs one sampling method with the given seed and evaluates it
    /// against the reference profile.
    pub fn run_method(
        &mut self,
        method: &MethodInstance,
        seed: u64,
    ) -> Result<MethodRun, CoreError> {
        // Ensure the reference exists before the borrow below.
        self.ensure_reference()?;
        let mut config = method.config.clone();
        config.seed = seed;
        let mut sampler = Sampler::new(self.machine, &config)?;
        let nominal = sampler.nominal_period();
        self.cpu
            .run_observed(self.program, &self.run_config, &mut sampler)?;
        let stats = sampler.stats();
        let batch = sampler.into_batch();
        let bb_mass = attrib::attribute(&batch, &self.cfg, method.attribution, nominal);
        let profile = EstimatedProfile::from_bb_mass(bb_mass, self.program, &self.cfg);
        let reference = self.reference.as_deref().expect("collected above");
        let err = accuracy_error(&profile.bb_mass, &reference.bb_instructions);
        Ok(MethodRun {
            profile,
            accuracy_error: err,
            samples: batch.len(),
            stats,
            mean_skid: batch.mean_skid(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{MethodKind, MethodOptions};
    use ct_isa::asm::assemble;

    fn kernel() -> Program {
        assemble(
            "k",
            r#"
            .func main
                movi r1, 30000
            top:
                addi r2, r2, 1
                addi r3, r3, 1
                addi r4, r4, 1
                subi r1, r1, 1
                brnz r1, top
                halt
            .endfunc
        "#,
        )
        .unwrap()
    }

    #[test]
    fn reference_is_cached() {
        let m = MachineModel::ivy_bridge();
        let p = kernel();
        let mut s = Session::new(&m, &p);
        let t1 = s.reference().unwrap().total_instructions();
        let t2 = s.reference().unwrap().total_instructions();
        assert_eq!(t1, t2);
        assert_eq!(t1, 2 + 30_000 * 5);
    }

    #[test]
    fn lbr_method_beats_classic_on_a_kernel() {
        let m = MachineModel::ivy_bridge();
        let p = kernel();
        let mut s = Session::new(&m, &p);
        let opts = MethodOptions::fast();
        let classic = s
            .run_method(&MethodKind::Classic.instantiate(&m, &opts).unwrap(), 7)
            .unwrap();
        let lbr = s
            .run_method(&MethodKind::Lbr.instantiate(&m, &opts).unwrap(), 7)
            .unwrap();
        assert!(classic.samples > 0);
        assert!(lbr.samples > 0);
        assert!(
            lbr.accuracy_error < classic.accuracy_error,
            "LBR {:.4} should beat classic {:.4}",
            lbr.accuracy_error,
            classic.accuracy_error
        );
    }

    #[test]
    fn unavailable_method_is_a_clean_error() {
        let m = MachineModel::magny_cours();
        let p = kernel();
        let mut s = Session::new(&m, &p);
        // Classic on AMD works.
        let opts = MethodOptions::fast();
        let c = MethodKind::Classic.instantiate(&m, &opts).unwrap();
        assert!(s.run_method(&c, 1).is_ok());
        // LBR on AMD cannot even be instantiated.
        assert!(MethodKind::Lbr.instantiate(&m, &opts).is_none());
    }

    #[test]
    fn errors_are_reproducible_for_a_seed() {
        let m = MachineModel::westmere();
        let p = kernel();
        let opts = MethodOptions::fast();
        let method = MethodKind::PrecisePrimeRand.instantiate(&m, &opts).unwrap();
        let mut s1 = Session::new(&m, &p);
        let mut s2 = Session::new(&m, &p);
        let a = s1.run_method(&method, 42).unwrap();
        let b = s2.run_method(&method, 42).unwrap();
        assert_eq!(a.accuracy_error, b.accuracy_error);
        assert_eq!(a.samples, b.samples);
    }
}
