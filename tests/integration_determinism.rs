//! Reproducibility: the entire pipeline is a pure function of
//! (program, machine, method, seed).

use countertrust::methods::{MethodKind, MethodOptions};
use countertrust::Session;
use ct_sim::{event::NullObserver, exec::run_with, MachineModel, RunConfig};

#[test]
fn workload_generation_is_deterministic() {
    for (a, b) in ct_workloads::all(0.02)
        .iter()
        .zip(ct_workloads::all(0.02).iter())
    {
        assert_eq!(a.name, b.name);
        assert_eq!(
            a.program.insns, b.program.insns,
            "{} program differs",
            a.name
        );
        assert_eq!(a.program.init_data, b.program.init_data);
    }
}

#[test]
fn execution_is_deterministic_per_machine() {
    let w = &ct_workloads::kernel_set(0.02)[3]; // test40 (uses in-program RNG)
    for machine in MachineModel::paper_machines() {
        let a = run_with(
            &machine,
            &w.program,
            &RunConfig::default(),
            &mut NullObserver,
        )
        .unwrap();
        let b = run_with(
            &machine,
            &w.program,
            &RunConfig::default(),
            &mut NullObserver,
        )
        .unwrap();
        assert_eq!(a, b, "nondeterministic run on {}", machine.name);
    }
}

#[test]
fn same_seed_same_profile_all_methods() {
    let program = ct_workloads::by_name("g4box", 20_000).unwrap().program;
    let opts = MethodOptions::fast();
    for machine in MachineModel::paper_machines() {
        for kind in MethodKind::ALL {
            let Some(inst) = kind.instantiate(&machine, &opts) else {
                continue;
            };
            let mut s1 = Session::new(&machine, &program);
            let mut s2 = Session::new(&machine, &program);
            let a = s1.run_method(&inst, 77).unwrap();
            let b = s2.run_method(&inst, 77).unwrap();
            assert_eq!(a.samples, b.samples, "{kind:?} on {}", machine.name);
            assert_eq!(
                a.accuracy_error, b.accuracy_error,
                "{kind:?} on {}",
                machine.name
            );
            assert_eq!(a.profile.bb_mass, b.profile.bb_mass);
        }
    }
}

#[test]
fn different_seed_changes_randomized_methods_only() {
    let program = ct_workloads::by_name("g4box", 20_000).unwrap().program;
    let machine = MachineModel::ivy_bridge();
    let opts = MethodOptions::fast();
    let mut session = Session::new(&machine, &program);

    // Deterministic method: seed must not matter.
    let fixed = MethodKind::PrecisePrime
        .instantiate(&machine, &opts)
        .unwrap();
    let f1 = session.run_method(&fixed, 1).unwrap();
    let f2 = session.run_method(&fixed, 2).unwrap();
    assert_eq!(
        f1.accuracy_error, f2.accuracy_error,
        "fixed-period method varies with seed"
    );

    // Randomized method: seeds must produce different sample placements.
    let rand = MethodKind::PrecisePrimeRand
        .instantiate(&machine, &opts)
        .unwrap();
    let r1 = session.run_method(&rand, 1).unwrap();
    let r2 = session.run_method(&rand, 2).unwrap();
    assert_ne!(
        r1.profile.bb_mass, r2.profile.bb_mass,
        "randomized method ignored the seed"
    );
}

#[test]
fn evaluation_stats_are_reproducible() {
    let program = ct_workloads::by_name("callchain", 10_000).unwrap().program;
    let machine = MachineModel::westmere();
    let inst = MethodKind::PreciseRand
        .instantiate(&machine, &MethodOptions::fast())
        .unwrap();
    let stats = |base_seed| {
        let mut s = Session::new(&machine, &program);
        countertrust::evaluate_method(&mut s, &inst, 3, base_seed).unwrap()
    };
    let a = stats(50);
    let b = stats(50);
    assert_eq!(a.runs, b.runs);
    let c = stats(51);
    assert_ne!(a.runs, c.runs);
}
