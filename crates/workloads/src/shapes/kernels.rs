//! Shape tests of the four kernels.

mod tests {
    use crate::shapes::*;
    use ct_isa::{Cfg, InsnClass};
    use ct_sim::{MachineModel, StopReason};

    #[test]
    fn latency_biased_iteration_is_exactly_eight_instructions() {
        let s = run(
            &workload("latency_biased", 1000),
            &MachineModel::ivy_bridge(),
        );
        assert_eq!(s.stop, StopReason::Halted);
        // 3 setup + 8 * n + 2 tail.
        assert_eq!(s.instructions, 3 + 8 * 1000 + 2);
    }

    #[test]
    fn latency_biased_halves_divide() {
        let w = workload("latency_biased", 10_000);
        let p = &w.program;
        let cfg = Cfg::build(p);
        // The div instruction exists and is in its own short block.
        let div_addr = p
            .insns
            .iter()
            .position(|i| i.class() == InsnClass::Div)
            .unwrap();
        let blk = cfg.block(cfg.block_of(div_addr as u32));
        assert!(blk.len() <= 3);
        let s = run(&w, &MachineModel::ivy_bridge());
        assert_eq!(s.stop, StopReason::Halted);
    }

    #[test]
    fn callchain_functions_do_equal_work() {
        let w = workload("callchain", 2_000);
        assert_eq!(w.program.symbols.functions().len(), 11); // main + f1..f10
        let r = profile(&w);
        let per_fn: Vec<u64> = r
            .function_names
            .iter()
            .zip(&r.function_instructions)
            .filter(|(n, _)| n.starts_with('f'))
            .map(|(_, &c)| c)
            .collect();
        assert_eq!(per_fn.len(), 10);
        // All ten functions retire exactly the same instruction count.
        assert!(per_fn.windows(2).all(|w| w[0] == w[1]), "{per_fn:?}");
        assert_eq!(per_fn[0], 8 * 2_000);
    }

    #[test]
    fn g4box_splits_work_evenly_and_has_short_blocks() {
        let w = workload("g4box", 5_000);
        let r = profile(&w);
        let classify = insns_in(&r, "classify") as f64;
        let surface = insns_in(&r, "surface") as f64;
        let ratio = classify / surface;
        assert!(
            (0.6..=1.6).contains(&ratio),
            "even work split expected, got {classify} vs {surface}"
        );
        // Short-block signature: mean block length under 4 instructions.
        let mean_len = mean_block_len(&w.program);
        assert!(mean_len < 4.0, "mean block length {mean_len}");
    }

    #[test]
    fn test40_exercises_all_processes() {
        let r = profile(&workload("test40", 20_000));
        for proc_name in ["phys_ionize", "phys_brems", "phys_scatter", "phys_absorb"] {
            assert!(insns_in(&r, proc_name) > 0, "{proc_name} never executed");
        }
        // Fragmented methods: taken branches are frequent (enterprise-like
        // instructions-per-taken-branch, §2.3 cites ratios of 6-12).
        let ipb = ipb(&r);
        assert!(ipb < 12.0, "instructions per taken branch {ipb}");
    }
}
