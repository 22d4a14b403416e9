//! Fixtures for the shape tests in `kernels` and `apps`: each checks one
//! structural or dynamic property a catalog program exists to reproduce
//! (§4.3), on the checked-in `.ctasm` program compiled through
//! [`crate::by_name`].

use crate::Workload;
use ct_instrument::ReferenceProfile;
use ct_isa::{Cfg, Program};
use ct_sim::{event::NullObserver, exec::run_with, MachineModel, RunSummary};

/// Catalog workload `name` with its size constant `N` set to `n`.
pub(crate) fn workload(name: &str, n: u64) -> Workload {
    crate::by_name(name, n).unwrap_or_else(|| panic!("{name} is not in the catalog"))
}

/// Plain (uninstrumented) run of `w` on `m`.
pub(crate) fn run(w: &Workload, m: &MachineModel) -> RunSummary {
    run_with(m, &w.program, &w.run_config, &mut NullObserver).unwrap()
}

/// Reference profile of `w` (the same on every machine).
pub(crate) fn profile(w: &Workload) -> ReferenceProfile {
    ReferenceProfile::collect(&w.program, &w.run_config).unwrap()
}

/// Instructions `r` attributes to function `name`.
pub(crate) fn insns_in(r: &ReferenceProfile, name: &str) -> u64 {
    let i = r.function_names.iter().position(|n| n == name);
    r.function_instructions[i.unwrap_or_else(|| panic!("no function {name}"))]
}

/// Dynamic instructions per taken branch (§2.3 cites 6–12 for
/// enterprise codes).
pub(crate) fn ipb(r: &ReferenceProfile) -> f64 {
    r.total_instructions as f64 / r.taken_branches as f64
}

/// Mean static basic-block length of `p`.
pub(crate) fn mean_block_len(p: &Program) -> f64 {
    p.len() as f64 / Cfg::build(p).num_blocks() as f64
}
