//! Property-based tests for the PMU model: counter arithmetic, sample
//! rates, LBR bounds and period policies under random configurations.

use ct_isa::asm;
use ct_pmu::{
    PeriodGenerator, PeriodSpec, PmuEvent, Precision, Randomization, Sampler, SamplerConfig,
};
use ct_sim::{Cpu, MachineModel, RunConfig};
use proptest::prelude::*;

fn loop_program(iters: u32, body_len: u8) -> ct_isa::Program {
    let body: String = (0..body_len)
        .map(|i| {
            if i % 5 == 4 {
                "    div r3, r4, r5\n"
            } else {
                "    addi r2, r2, 1\n"
            }
        })
        .collect();
    let source = format!(
        ".func main\n    movi r1, {iters}\ntop:\n{body}    subi r1, r1, 1\n    brnz r1, top\n    halt\n.endfunc\n"
    );
    asm::assemble("prop", &source).expect("valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sample_rate_tracks_period(
        period in 50u64..2_000,
        iters in 2_000u32..6_000,
        precise in prop::bool::ANY,
    ) {
        let machine = MachineModel::ivy_bridge();
        let p = loop_program(iters, 8);
        let (event, precision) = if precise {
            (PmuEvent::InstRetiredPrecDist, Precision::Pdir)
        } else {
            (PmuEvent::InstRetiredAny, Precision::Imprecise)
        };
        let cfg = SamplerConfig::new(event, precision, PeriodSpec::fixed(period));
        let mut sampler = Sampler::new(&machine, &cfg).unwrap();
        let summary = Cpu::new(&machine)
            .run(&p, &RunConfig::default(), &mut [&mut sampler])
            .unwrap();
        let batch = sampler.into_batch();
        let expected = summary.instructions / period;
        // Imprecise sampling loses PMIs to collisions and run tail;
        // overflow count plus drops must add up, and the sample count must
        // be within the expected window.
        let accounted = batch.samples.len() as u64 + batch.dropped_collisions;
        prop_assert!(accounted <= expected + 1);
        prop_assert!(accounted + 1 >= expected.saturating_sub(1));
        prop_assert_eq!(batch.total_events, summary.instructions);
    }

    #[test]
    fn overflow_residual_arithmetic_with_uop_weights(
        // Real IBS enforces a minimum period (0x10); staying above the
        // largest uop count (8) also means each instruction wraps the
        // counter at most once, which the expectation below relies on.
        period in 16u64..64,
        iters in 200u32..1_000,
    ) {
        // IBS counts uops (div = 8 uops): overflow may overshoot by up to
        // uops-1; the counter must absorb the residue without losing
        // events. Expected overflow count = total_uops / period ± 1.
        let machine = MachineModel::magny_cours();
        let p = loop_program(iters, 10);
        let cfg = SamplerConfig::new(PmuEvent::IbsOp, Precision::Ibs, PeriodSpec::fixed(period));
        let mut sampler = Sampler::new(&machine, &cfg).unwrap();
        let summary = Cpu::new(&machine)
            .run(&p, &RunConfig::default(), &mut [&mut sampler])
            .unwrap();
        let stats = sampler.stats();
        let batch = sampler.into_batch();
        prop_assert_eq!(batch.total_events, summary.uops);
        let expected = summary.uops / period;
        prop_assert!(
            stats.overflows >= expected.saturating_sub(1) && stats.overflows <= expected + 1,
            "overflows {} vs expected {}", stats.overflows, expected
        );
    }

    #[test]
    fn lbr_snapshots_never_exceed_depth(
        depth in 1usize..32,
        iters in 100u32..500,
    ) {
        let mut machine = MachineModel::ivy_bridge();
        machine.pmu.lbr_depth = depth;
        let p = loop_program(iters, 4);
        let cfg = SamplerConfig::new(
            PmuEvent::BrInstRetiredNearTaken,
            Precision::Imprecise,
            PeriodSpec::fixed(13),
        )
        .with_lbr();
        let mut sampler = Sampler::new(&machine, &cfg).unwrap();
        Cpu::new(&machine).run(&p, &RunConfig::default(), &mut [&mut sampler]).unwrap();
        for s in sampler.into_batch().samples {
            let lbr = s.lbr.unwrap();
            prop_assert!(lbr.len() <= depth);
            // Entries record genuine control transfers: from != to + huge
            // jumps only within the program.
            for e in &lbr {
                prop_assert!((e.from as usize) < p.len());
                prop_assert!((e.to as usize) < p.len());
            }
        }
    }

    #[test]
    fn period_generator_respects_policy(
        nominal in 100u64..100_000,
        bits in 1u32..12,
        seed in 0u64..1_000,
    ) {
        // Software randomization stays inside the window and averages near
        // the nominal.
        let spec = PeriodSpec { nominal, randomization: Randomization::Software { bits } };
        let mut g = PeriodGenerator::new(spec, seed);
        let window = 1i64 << bits;
        for _ in 0..300 {
            let p = g.next_period() as i64;
            prop_assert!((p - nominal as i64).abs() <= window / 2);
            prop_assert!(p >= 1);
        }
        let drift = (g.mean_period() - nominal as f64).abs();
        prop_assert!(drift <= window as f64 / 2.0);

        // Hardware randomization only rewrites the low bits.
        let hw = PeriodSpec { nominal, randomization: Randomization::HardwareLsb { bits: 4 } };
        let mut g = PeriodGenerator::new(hw, seed);
        for _ in 0..100 {
            let p = g.next_period();
            prop_assert_eq!(p & !15, nominal & !15);
        }
    }

    #[test]
    fn precise_reports_are_always_one_ahead(
        period in 97u64..997,
        iters in 1_000u32..3_000,
    ) {
        let machine = MachineModel::ivy_bridge();
        let p = loop_program(iters, 6);
        let cfg = SamplerConfig::new(
            PmuEvent::InstRetiredPrecDist,
            Precision::Pdir,
            PeriodSpec::fixed(period),
        );
        let mut sampler = Sampler::new(&machine, &cfg).unwrap();
        Cpu::new(&machine).run(&p, &RunConfig::default(), &mut [&mut sampler]).unwrap();
        let batch = sampler.into_batch();
        prop_assert!(!batch.is_empty());
        for s in &batch.samples {
            prop_assert_eq!(s.reported_seq, s.trigger_seq + 1);
        }
    }
}
