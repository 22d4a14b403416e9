//! The workload registry: named, sized instances of every kernel and
//! application, as consumed by the evaluation binaries.
//!
//! The checked-in `.ctasm` + manifest pairs under `programs/` are the
//! only definition of the built-in workloads. They are embedded at
//! build time and compiled through [`crate::loader`], the same path a
//! `--workload-dir` tenant catalog takes at runtime. Editing a
//! workload means editing its `.ctasm` file and re-running `cargo test
//! -p ct-bench --test golden_exec_traces`, which pins every retire
//! event of every machine × workload pair. Regenerate those goldens
//! only for a deliberate semantic change, never to absorb an
//! accidental one.

use crate::loader::{self, LoaderLimits};
use ct_isa::Program;
use ct_sim::RunConfig;

/// Kernel vs application (Tables 1 and 2 respectively).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadClass {
    Kernel,
    Application,
}

/// A ready-to-run workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: String,
    pub class: WorkloadClass,
    pub program: Program,
    pub run_config: RunConfig,
}

/// `(label, manifest JSON, .ctasm source)` triples embedded from
/// `programs/`. Array order is catalog order; the `NN_` filename
/// prefixes make a directory scan of the same files agree.
macro_rules! builtin {
    ($stem:literal) => {
        (
            concat!($stem, ".json"),
            include_str!(concat!("../programs/", $stem, ".json")),
            include_str!(concat!("../programs/", $stem, ".ctasm")),
        )
    };
}

const BUILTIN_KERNELS: &[(&str, &str, &str)] = &[
    builtin!("00_latency_biased"),
    builtin!("01_callchain"),
    builtin!("02_g4box"),
    builtin!("03_test40"),
];

const BUILTIN_APPS: &[(&str, &str, &str)] = &[
    builtin!("04_mcf"),
    builtin!("05_povray"),
    builtin!("06_omnetpp"),
    builtin!("07_xalancbmk"),
    builtin!("08_fullcms"),
];

fn load_builtins(pairs: &[(&str, &str, &str)], scale: f64) -> Vec<Workload> {
    loader::load_embedded(pairs, scale, &LoaderLimits::default())
        .expect("embedded built-in catalog is well-formed")
}

/// The four kernels of Table 1 at a given scale. Scale 1.0 sizes every
/// kernel to roughly 1.5×10^7 dynamic instructions so the default sampling
/// periods yield several thousand samples per run (the paper's sampling
/// regime, scaled); tests use much smaller scales.
#[must_use]
pub fn kernels(scale: f64) -> Vec<Workload> {
    load_builtins(BUILTIN_KERNELS, scale)
}

/// The five applications of Table 2 at a given scale (1.0 ≈ 1.5×10^7
/// dynamic instructions each).
#[must_use]
pub fn applications(scale: f64) -> Vec<Workload> {
    load_builtins(BUILTIN_APPS, scale)
}

/// The built-in workload `name` with its size constant `N` set to
/// exactly `n`, bypassing the scale rule — for tests and examples that
/// pin a specific iteration count. `None` for a name the built-in
/// catalog does not define.
#[must_use]
pub fn by_name(name: &str, n: u64) -> Option<Workload> {
    let pairs = [BUILTIN_KERNELS, BUILTIN_APPS].concat();
    loader::load_named(&pairs, name, n).expect("embedded built-in catalog is well-formed")
}

/// Every workload (kernels then applications).
#[must_use]
pub fn all(scale: f64) -> Vec<Workload> {
    let mut v = kernels(scale);
    v.extend(applications(scale));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_sim::{event::NullObserver, exec::run_with, MachineModel, StopReason};

    #[test]
    fn every_workload_runs_on_every_machine() {
        for m in MachineModel::paper_machines() {
            for w in all(0.02) {
                let s = run_with(&m, &w.program, &w.run_config, &mut NullObserver)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", w.name, m.name));
                assert_eq!(s.stop, StopReason::Halted, "{} on {}", w.name, m.name);
                assert!(s.instructions > 1_000, "{} too small", w.name);
            }
        }
    }

    #[test]
    fn registry_names_are_unique() {
        let names: Vec<String> = all(0.01).into_iter().map(|w| w.name).collect();
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }

    #[test]
    fn classes_are_assigned() {
        assert!(kernels(0.01)
            .iter()
            .all(|w| w.class == WorkloadClass::Kernel));
        assert!(applications(0.01)
            .iter()
            .all(|w| w.class == WorkloadClass::Application));
    }

    #[test]
    fn scale_controls_size() {
        let m = MachineModel::ivy_bridge();
        let small = &kernels(0.01)[0];
        let large = &kernels(0.05)[0];
        let si = run_with(&m, &small.program, &small.run_config, &mut NullObserver)
            .unwrap()
            .instructions;
        let li = run_with(&m, &large.program, &large.run_config, &mut NullObserver)
            .unwrap()
            .instructions;
        assert!(li > 3 * si);
    }
}
