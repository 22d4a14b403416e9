//! The profiling session: a perf-record-like driver.
//!
//! A [`Session`] binds a machine and a program, lazily collects the exact
//! reference profile (the "REF" column), and runs sampling methods against
//! the same workload, producing [`MethodRun`]s with estimated profiles and
//! their accuracy errors. [`Session::run_methods`] runs a list of
//! `(method, seed)` entries through shared simulation passes;
//! [`Session::run_method`] is its one-entry case.
//!
//! The reference profile is held behind an [`Arc`] so sessions can share
//! one collection instead of re-driving the reference execution. It does
//! not depend on the machine: the grid engine ([`crate::grid`]) collects
//! one per workload and the serving layer one per cached pair, each as a
//! [`crate::cache::PairParts`], and every per-method session is built from
//! it via [`Session::with_shared_parts`].

use crate::attrib;
use crate::error::CoreError;
use crate::methods::{Attribution, MethodInstance};
use crate::metrics::accuracy_error;
use crate::profile::EstimatedProfile;
use ct_instrument::ReferenceProfile;
use ct_isa::{Addr, Cfg, Program};
use ct_pmu::{Sampler, SamplerStats};
use ct_sim::{Cpu, MachineModel, QuietBudget, RetireEvent, RetireObserver, RunConfig, Skipped};
use std::sync::Arc;

/// The most samplers one pass of [`Session::run_methods`] drives, so a
/// pass holds a bounded number of live samplers and block-mass vectors
/// however long its list (a request may ask for 1,000 runs). A `tables`
/// pair needs 35: seven methods × five repeats.
const SAMPLERS_PER_PASS: usize = 64;

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
    /// first pass and reset — not reallocated — on every later one.
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
    /// collected for the same `(program, run_config)`; the reference holds
    /// on every machine. The grid engine uses this to build one CFG and
    /// one reference per workload, no matter how many machines and method
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
    /// untimed execution, like the paper's Pin run).
    pub fn reference(&mut self) -> Result<&ReferenceProfile, CoreError> {
        self.ensure_reference()?;
        Ok(self.reference.as_deref().expect("just collected"))
    }

    fn ensure_reference(&mut self) -> Result<(), CoreError> {
        if self.reference.is_none() {
            let (reference, _) =
                ReferenceProfile::collect_with_cfg(self.program, &self.cfg, &self.run_config)?;
            self.reference = Some(Arc::new(reference));
        }
        Ok(())
    }

    /// Runs one sampling method with the given seed and evaluates it
    /// against the reference profile: [`Session::run_methods`] with one
    /// entry.
    pub fn run_method(
        &mut self,
        method: &MethodInstance,
        seed: u64,
    ) -> Result<MethodRun, CoreError> {
        let mut result = None;
        self.run_methods(&[(method, seed)], |_, run| result = Some(run));
        result.expect("one result per entry")
    }

    /// Runs every `(method, seed)` entry of `runs` and evaluates each
    /// against the reference profile, handing `each` the entry's index
    /// and result, in list order.
    ///
    /// The simulator takes no seed and observers cannot change it, so
    /// every entry sees the same retirement stream: one pass of
    /// [`Cpu::run_all`] drives the samplers of up to 64 entries at a time.
    /// Each sampler's samples are attributed as they are recorded, so a
    /// pass holds one block-mass vector per entry, never a sample batch.
    /// Every result equals what [`Session::run_method`] returns for its
    /// entry alone: an entry whose sampler cannot be built gets that
    /// error, and a pass that fails gives each of its entries the
    /// simulation error.
    pub fn run_methods(
        &mut self,
        runs: &[(&MethodInstance, u64)],
        mut each: impl FnMut(usize, Result<MethodRun, CoreError>),
    ) {
        if let Err(e) = self.ensure_reference() {
            for i in 0..runs.len() {
                each(i, Err(e.clone()));
            }
            return;
        }
        let cfg = self.cfg.clone();
        for (pass, entries) in runs.chunks(SAMPLERS_PER_PASS).enumerate() {
            // Each entry's sampler, or why it cannot be built.
            let mut members = Vec::with_capacity(entries.len());
            let built: Vec<Result<(), CoreError>> = entries
                .iter()
                .map(|&(method, seed)| {
                    let mut config = method.config.clone();
                    config.seed = seed;
                    let sampler = Sampler::new(self.machine, &config)?;
                    members.push(Streamed::new(sampler, &cfg, method.attribution));
                    Ok(())
                })
                .collect();
            let outcome = if members.is_empty() {
                Ok(())
            } else {
                self.cpu
                    .run_all(self.program, &self.run_config, &mut members)
                    .map(drop)
            };
            let mut members = members.into_iter();
            for (i, built) in built.into_iter().enumerate() {
                let run = built.and_then(|()| {
                    let streamed = members.next().expect("one member per built sampler");
                    match &outcome {
                        Ok(()) => Ok(self.evaluate(streamed)),
                        Err(e) => Err(CoreError::from(e.clone())),
                    }
                });
                each(pass * SAMPLERS_PER_PASS + i, run);
            }
        }
    }

    /// Scores a finished entry's estimated profile against the reference.
    fn evaluate(&self, streamed: Streamed<'_>) -> MethodRun {
        let profile = EstimatedProfile::from_bb_mass(streamed.bb_mass, self.program, &self.cfg);
        let reference = self
            .reference
            .as_deref()
            .expect("collected before the pass");
        let err = accuracy_error(&profile.bb_mass, &reference.bb_instructions);
        MethodRun {
            profile,
            accuracy_error: err,
            samples: streamed.samples,
            stats: streamed.sampler.stats(),
            mean_skid: if streamed.samples == 0 {
                0.0
            } else {
                streamed.skid as f64 / streamed.samples as f64
            },
        }
    }
}

/// A sampler whose samples are attributed as they are recorded, folding
/// exactly what [`attrib::attribute`] and [`ct_pmu::SampleBatch::mean_skid`]
/// fold over a whole batch, in the same order.
struct Streamed<'c> {
    sampler: Sampler,
    cfg: &'c Cfg,
    attribution: Attribution,
    nominal: u64,
    bb_mass: Vec<f64>,
    samples: usize,
    /// Total skid in instructions.
    skid: u64,
}

impl<'c> Streamed<'c> {
    fn new(sampler: Sampler, cfg: &'c Cfg, attribution: Attribution) -> Self {
        Self {
            nominal: sampler.nominal_period(),
            sampler,
            cfg,
            attribution,
            bb_mass: vec![0.0; cfg.num_blocks()],
            samples: 0,
            skid: 0,
        }
    }

    fn attribute_recorded(&mut self) {
        for sample in self.sampler.take_samples() {
            attrib::credit(
                &sample,
                self.cfg,
                self.attribution,
                self.nominal,
                &mut self.bb_mass,
            );
            self.samples += 1;
            self.skid += sample.skid_instructions();
        }
    }
}

impl RetireObserver for Streamed<'_> {
    fn quiet_budget(&self) -> QuietBudget {
        self.sampler.quiet_budget()
    }

    fn on_skipped(&mut self, skipped: Skipped, cycle_head: (Addr, u64)) {
        self.sampler.on_skipped(skipped, cycle_head);
    }

    fn on_taken_branch(&mut self, ev: &RetireEvent) {
        self.sampler.on_taken_branch(ev);
    }

    fn on_retire(&mut self, ev: &RetireEvent) {
        self.sampler.on_retire(ev);
        self.attribute_recorded();
    }

    fn on_finish(&mut self, final_cycle: u64) {
        self.sampler.on_finish(final_cycle);
        self.attribute_recorded();
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

    /// `(accuracy error, samples, stats, mean skid)` or the error text.
    fn outcome(
        run: Result<MethodRun, CoreError>,
    ) -> Result<(f64, usize, SamplerStats, f64), String> {
        run.map(|r| (r.accuracy_error, r.samples, r.stats, r.mean_skid))
            .map_err(|e| e.to_string())
    }

    /// Every entry of a shared pass gets exactly its solo result: a
    /// sampler that cannot be built fails alone, and a pass that fails
    /// fails each entry with its solo simulation error.
    #[test]
    fn each_entry_of_a_shared_pass_gets_its_solo_result() {
        let m = MachineModel::westmere();
        let opts = MethodOptions::fast();
        let lbr = MethodKind::Lbr.instantiate(&m, &opts).unwrap();
        let classic = MethodKind::Classic.instantiate(&m, &opts).unwrap();
        let mut unbuildable = classic.clone();
        unbuildable.config.period.nominal = 0;
        let entries = [(&lbr, 1), (&unbuildable, 2), (&classic, 3), (&lbr, 4)];
        // The second program reads past its data once its loop ends; its
        // reference stops on fuel before that, so only the pass fails.
        let faulting = assemble(
            "f",
            ".data 4\n.func main\n movi r1, 3000\ntop:\n subi r1, r1, 1\n brnz r1, top\n load r2, [r3+100]\n halt\n.endfunc",
        )
        .unwrap();
        for program in [kernel(), faulting] {
            let cfg = Arc::new(Cfg::build(&program));
            let (reference, _) =
                ReferenceProfile::collect_with_cfg(&program, &cfg, &RunConfig::with_fuel(5_000))
                    .unwrap();
            let reference = Arc::new(reference);
            let session = || {
                Session::with_shared_parts(
                    &m,
                    &program,
                    RunConfig::with_fuel(200_000),
                    cfg.clone(),
                    Some(reference.clone()),
                )
            };
            let mut fused = Vec::new();
            session().run_methods(&entries, |i, run| fused.push((i, outcome(run))));
            let solo: Vec<_> = entries
                .iter()
                .enumerate()
                .map(|(i, &(method, seed))| (i, outcome(session().run_method(method, seed))))
                .collect();
            assert_eq!(fused, solo);
            assert!(fused[1].1.is_err(), "the unbuildable sampler fails");
        }
    }
}
