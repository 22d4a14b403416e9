//! Shape tests of the five application proxies.

mod mcf {
    mod tests {
        use crate::shapes::*;
        use ct_sim::{MachineModel, StopReason};

        #[test]
        fn runs_to_completion() {
            let s = run(&workload("mcf", 50), &MachineModel::ivy_bridge());
            assert_eq!(s.stop, StopReason::Halted);
            assert!(s.instructions > 20_000);
        }

        #[test]
        fn large_arena_misses_in_cache() {
            // The catalog arena of 2^16 words = 512 KiB > L2 (256 KiB).
            // Enough pivots that the chase dominates the (sequential,
            // line-friendly) init pass.
            let s = run(&workload("mcf", 1_500), &MachineModel::ivy_bridge());
            let total = s.l1_hits + s.l2_hits + s.mem_accesses;
            // Long-latency loads (L1 misses) are what create retirement-stall
            // shadows; the chase should produce them constantly.
            let l1_miss_rate = (s.l2_hits + s.mem_accesses) as f64 / total as f64;
            assert!(
                l1_miss_rate > 0.2,
                "pointer chase should miss L1 often, got {l1_miss_rate:.3}"
            );
            assert!(s.mem_accesses > 10_000, "memory-level misses expected");
        }
    }
}

mod omnetpp {
    mod tests {
        use crate::shapes::*;
        use ct_sim::{MachineModel, StopReason};

        #[test]
        fn processes_all_events() {
            let s = run(&workload("omnetpp", 5_000), &MachineModel::ivy_bridge());
            assert_eq!(s.stop, StopReason::Halted);
            assert!(s.result > 0, "handlers ran and accumulated stats");
        }

        #[test]
        fn all_handlers_dispatched() {
            let r = profile(&workload("omnetpp", 8_000));
            for h in 0..8 {
                let name = format!("handle_{h}");
                assert!(insns_in(&r, &name) > 0, "{name} never dispatched");
            }
            // Heap machinery dominates (the real omnetpp's event-set hotspot).
            assert!(insns_in(&r, "heap_pop") > r.total_instructions / 20);
        }

        #[test]
        fn enterprise_like_branch_density() {
            let r = profile(&workload("omnetpp", 4_000));
            let ipb = ipb(&r);
            assert!(
                ipb < 12.0,
                "instructions per taken branch should be enterprise-like (6-12), got {ipb:.1}"
            );
        }
    }
}

mod povray {
    mod tests {
        use crate::shapes::*;
        use ct_sim::{MachineModel, StopReason};

        #[test]
        fn runs_and_hits_some_spheres() {
            let s = run(&workload("povray", 2_000), &MachineModel::ivy_bridge());
            assert_eq!(s.stop, StopReason::Halted);
            assert!(s.result > 0, "at least one ray should hit");
        }

        #[test]
        fn fp_dominated_profile() {
            let w = workload("povray", 1_000);
            let hist = w.program.class_histogram();
            let fp: usize = ["FpAdd", "FpMul", "FpDiv"]
                .iter()
                .filter_map(|k| hist.get(*k))
                .sum();
            assert!(fp >= 20, "static FP share too small: {hist:?}");
            let r = profile(&w);
            // All helpers execute.
            for f in ["vdot", "vnormalize", "intersect_sphere", "shade"] {
                assert!(insns_in(&r, f) > 0, "{f} never ran");
            }
        }
    }
}

mod xalanc {
    //! The catalog document is 8192 words at every pass count `N`.

    mod tests {
        use crate::shapes::*;
        use ct_sim::{MachineModel, StopReason};

        #[test]
        fn scans_all_passes() {
            let s = run(&workload("xalancbmk", 20), &MachineModel::ivy_bridge());
            assert_eq!(s.stop, StopReason::Halted);
        }

        #[test]
        fn very_short_blocks_and_dense_branches() {
            let w = workload("xalancbmk", 10);
            let mean_len = mean_block_len(&w.program);
            assert!(
                mean_len < 3.5,
                "xalanc proxy blocks should be tiny, got {mean_len:.2}"
            );
            let ipb = ipb(&profile(&w));
            assert!(ipb < 8.0, "branch density too low: {ipb:.1}");
        }

        #[test]
        fn text_handler_is_hottest() {
            let r = profile(&workload("xalancbmk", 10));
            // Text is ~half of all classes by construction; its handler must
            // dominate the other handlers.
            assert!(insns_in(&r, "h_text") > insns_in(&r, "h_tag_open"));
            assert!(insns_in(&r, "h_text") > insns_in(&r, "h_entity"));
        }
    }
}

mod fullcms {
    mod tests {
        use crate::shapes::*;
        use ct_sim::{MachineModel, StopReason};

        #[test]
        fn runs_to_completion() {
            let s = run(&workload("fullcms", 500), &MachineModel::ivy_bridge());
            assert_eq!(s.stop, StopReason::Halted);
            assert!(s.instructions > 100_000);
        }

        #[test]
        fn long_tail_function_profile() {
            let w = workload("fullcms", 1_000);
            assert!(
                w.program.symbols.functions().len() > 40,
                "dozens of functions expected"
            );
            let r = profile(&w);
            let rank = r.function_ranking();
            // Zipf selection: the hottest function is nowhere near a majority
            // (long tail), yet the top 10 all have real mass.
            let total = r.total_instructions as f64;
            assert!(
                rank[0].1 as f64 / total < 0.5,
                "no single dominating hotspot"
            );
            assert!(rank[9].1 > 0, "top-10 functions all execute");
            // Close-mass tail: the gap between ranks 7 and 10 is small, which
            // is what makes exact top-10 ordering hard for sampled profiles.
            let r7 = rank[6].1 as f64;
            let r10 = rank[9].1 as f64;
            assert!(r10 / r7 > 0.3, "tail masses should be close: {r7} vs {r10}");
        }

        #[test]
        fn callchain_like_depth() {
            // main -> proc -> mod -> helper: call chains are deep and methods
            // short, the §5.2 explanation for pure-LBR not winning here.
            let r = profile(&workload("fullcms", 200));
            let ipb = ipb(&r);
            assert!(ipb < 10.0, "fragmented methods expected, got ipb {ipb:.1}");
        }
    }
}
