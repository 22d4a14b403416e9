//! End-to-end pipeline sanity: CPU → PMU → attribution → metric, on every
//! machine of the paper's matrix.

use countertrust::methods::{Attribution, MethodKind, MethodOptions};
use countertrust::Session;
use ct_sim::MachineModel;

fn kernel() -> ct_isa::Program {
    ct_workloads::by_name("latency_biased", 60_000)
        .unwrap()
        .program
}

#[test]
fn every_available_method_profiles_every_machine() {
    let program = kernel();
    let opts = MethodOptions::fast();
    for machine in MachineModel::paper_machines() {
        let mut session = Session::new(&machine, &program);
        let total = session.reference().unwrap().total_instructions();
        assert!(total > 100_000);
        for kind in MethodKind::ALL {
            let Some(inst) = kind.instantiate(&machine, &opts) else {
                continue;
            };
            let run = session
                .run_method(&inst, 5)
                .unwrap_or_else(|e| panic!("{kind:?} on {}: {e}", machine.name));
            assert!(
                run.samples > 10,
                "{kind:?} on {} got {} samples",
                machine.name,
                run.samples
            );
            assert!(
                (0.0..=2.0).contains(&run.accuracy_error),
                "{kind:?} error {} out of range",
                run.accuracy_error
            );
        }
    }
}

#[test]
fn plain_attribution_conserves_sample_mass() {
    let program = kernel();
    let machine = MachineModel::ivy_bridge();
    let opts = MethodOptions::fast();
    let inst = MethodKind::PrecisePrime
        .instantiate(&machine, &opts)
        .unwrap();
    assert_eq!(inst.attribution, Attribution::Plain);
    let mut session = Session::new(&machine, &program);
    let run = session.run_method(&inst, 1).unwrap();
    let total_mass: f64 = run.profile.bb_mass.iter().sum();
    let expected = run.samples as f64 * inst.config.period.nominal as f64;
    let rel = (total_mass - expected).abs() / expected;
    assert!(rel < 0.01, "mass {total_mass} vs samples*period {expected}");
}

#[test]
fn estimated_function_masses_track_reference_for_good_methods() {
    let apps = ct_workloads::applications(0.05);
    let mcf = apps.into_iter().find(|w| w.name == "mcf").unwrap();
    let machine = MachineModel::ivy_bridge();
    let mut session = Session::with_run_config(&machine, &mcf.program, mcf.run_config.clone());
    let reference = session.reference().unwrap().clone();
    let inst = MethodKind::PreciseFix
        .instantiate(&machine, &MethodOptions::fast())
        .unwrap();
    let run = session.run_method(&inst, 9).unwrap();
    let est_total: f64 = run.profile.function_mass.iter().sum();
    let ref_total = reference.total_instructions() as f64;
    for (i, name) in reference.function_names.iter().enumerate() {
        let exact = reference.function_instructions[i] as f64 / ref_total;
        let est = run.profile.function_mass[i] / est_total;
        assert!(
            (exact - est).abs() < 0.10,
            "{name}: exact {exact:.3} vs estimated {est:.3}"
        );
    }
}

#[test]
fn skid_ordering_matches_mechanism_quality() {
    let program = kernel();
    let machine = MachineModel::westmere();
    let opts = MethodOptions::fast();
    let mut session = Session::new(&machine, &program);
    let classic = session
        .run_method(
            &MethodKind::Classic.instantiate(&machine, &opts).unwrap(),
            2,
        )
        .unwrap();
    let pebs = session
        .run_method(
            &MethodKind::PrecisePrime
                .instantiate(&machine, &opts)
                .unwrap(),
            2,
        )
        .unwrap();
    assert!(
        classic.mean_skid > 10.0 * pebs.mean_skid.max(1.0),
        "imprecise skid {} should dwarf PEBS skid {}",
        classic.mean_skid,
        pebs.mean_skid
    );
}

#[test]
fn method_unavailability_matches_hardware_matrix() {
    let opts = MethodOptions::fast();
    let amd = MachineModel::magny_cours();
    let wsm = MachineModel::westmere();
    let ivb = MachineModel::ivy_bridge();
    // AMD: no LBR-based methods.
    assert!(MethodKind::Lbr.instantiate(&amd, &opts).is_none());
    assert!(MethodKind::PreciseFix.instantiate(&amd, &opts).is_none());
    // Intel parts support everything (Westmere falls back to PEBS for fix).
    for kind in MethodKind::ALL {
        assert!(kind.instantiate(&wsm, &opts).is_some());
        assert!(kind.instantiate(&ivb, &opts).is_some());
    }
}
