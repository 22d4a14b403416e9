//! Failure injection: lost PMIs, hijacked LBRs, capability mismatches and
//! fuel exhaustion must degrade gracefully, never corrupt results.

use countertrust::methods::{MethodKind, MethodOptions};
use countertrust::{CoreError, Session};
use ct_instrument::ReferenceProfile;
use ct_pmu::{LbrMode, PeriodSpec, PmuError, PmuEvent, Precision, Sampler, SamplerConfig};
use ct_sim::{Cpu, MachineModel, RunConfig, StopReason};

#[test]
fn dropped_pmis_degrade_precision_not_correctness() {
    let program = ct_workloads::by_name("g4box", 30_000).unwrap().program;
    let machine = MachineModel::ivy_bridge();
    let opts = MethodOptions::fast();
    let clean = MethodKind::PrecisePrime
        .instantiate(&machine, &opts)
        .unwrap();
    let mut lossy = clean.clone();
    lossy.config.pmi_drop_rate = 0.6;

    let mut session = Session::new(&machine, &program);
    let clean_run = session.run_method(&clean, 4).unwrap();
    let lossy_run = session.run_method(&lossy, 4).unwrap();
    assert!(lossy_run.samples < clean_run.samples * 3 / 4);
    assert!(lossy_run.samples > 0);
    // Error stays bounded and in range — fewer samples, not garbage.
    assert!((0.0..=2.0).contains(&lossy_run.accuracy_error));
    assert!(lossy_run.accuracy_error < 2.5 * clean_run.accuracy_error + 0.2);
}

#[test]
fn call_stack_mode_collision_destroys_lbr_accounting() {
    // §6.2: the LBR is "a valuable single resource"; colliding basic-block
    // accounting with call-stack mode invalidates the reconstruction.
    let program = ct_workloads::by_name("g4box", 30_000).unwrap().program;
    let machine = MachineModel::ivy_bridge();
    let opts = MethodOptions::fast();
    let ring = MethodKind::Lbr.instantiate(&machine, &opts).unwrap();
    let mut collided = ring.clone();
    collided.config.lbr_mode = LbrMode::CallStack;

    let mut session = Session::new(&machine, &program);
    let good = session.run_method(&ring, 4).unwrap();
    let bad = session.run_method(&collided, 4).unwrap();
    assert!(
        bad.accuracy_error > 5.0 * good.accuracy_error,
        "collision should wreck accuracy: {:.3} vs {:.3}",
        bad.accuracy_error,
        good.accuracy_error
    );
}

#[test]
fn capability_mismatches_surface_as_clean_errors() {
    let amd = MachineModel::magny_cours();
    let program = ct_workloads::by_name("callchain", 1_000).unwrap().program;
    // Hand-built config that the method registry would never produce:
    // LBR collection on a machine with no LBR.
    let bad = SamplerConfig::new(
        PmuEvent::AmdRetiredInstructions,
        Precision::Imprecise,
        PeriodSpec::fixed(997),
    )
    .with_lbr();
    assert!(matches!(
        Sampler::new(&amd, &bad).unwrap_err(),
        PmuError::LbrUnsupported { .. }
    ));
    // Through the session the same mistake is a typed CoreError.
    let inst = countertrust::MethodInstance {
        kind: MethodKind::Classic,
        config: bad,
        attribution: countertrust::Attribution::Plain,
    };
    let mut session = Session::new(&amd, &program);
    assert!(matches!(
        session.run_method(&inst, 1),
        Err(CoreError::Pmu(_))
    ));
}

#[test]
fn zero_period_is_rejected() {
    let machine = MachineModel::ivy_bridge();
    let cfg = SamplerConfig::new(
        PmuEvent::InstRetiredAny,
        Precision::Imprecise,
        PeriodSpec::fixed(0),
    );
    assert_eq!(
        Sampler::new(&machine, &cfg).unwrap_err(),
        PmuError::ZeroPeriod
    );
}

#[test]
fn fuel_exhaustion_keeps_counts_consistent() {
    let program = ct_workloads::by_name("omnetpp", 50_000).unwrap().program;
    let machine = MachineModel::westmere();
    let run_config = RunConfig {
        max_insns: 200_000,
        ..RunConfig::default()
    };
    let (reference, summary) =
        ReferenceProfile::collect_with_cfg(&program, &ct_isa::Cfg::build(&program), &run_config)
            .unwrap();
    assert_eq!(summary.stop, StopReason::FuelExhausted);
    assert_eq!(summary.instructions, 200_000);
    // Instrumentation agrees exactly with the truncated timed run.
    let timed = Cpu::new(&machine)
        .run_silent(&program, &run_config)
        .unwrap();
    assert_eq!((timed.stop, timed.instructions), (summary.stop, 200_000));
    assert_eq!(reference.total_instructions(), 200_000);
    let sum: u64 = reference.bb_instructions.iter().sum();
    assert_eq!(sum, 200_000);
}

#[test]
fn saturating_sampler_with_tiny_period_stays_sane() {
    // Periods far below the PMI latency force constant collisions; the
    // sampler must count drops and still deliver valid samples.
    let program = ct_workloads::by_name("latency_biased", 20_000)
        .unwrap()
        .program;
    let machine = MachineModel::magny_cours();
    let cfg = SamplerConfig::new(
        PmuEvent::AmdRetiredInstructions,
        Precision::Imprecise,
        PeriodSpec::fixed(5),
    );
    let mut sampler = Sampler::new(&machine, &cfg).unwrap();
    Cpu::new(&machine)
        .run(&program, &RunConfig::default(), &mut [&mut sampler])
        .unwrap();
    let stats = sampler.stats();
    let batch = sampler.into_batch();
    assert!(batch.dropped_collisions > batch.samples.len() as u64);
    assert!(stats.overflows > 0);
    assert!(!batch.is_empty());
    for s in &batch.samples {
        assert!((s.reported_ip as usize) < program.len());
    }
}
