//! Sample → basic-block attribution.
//!
//! Converts a [`ct_pmu::SampleBatch`] into estimated per-block instruction
//! counts (`BB_x[i]` in the paper's §3.3 notation), under one of the three
//! attribution rules of [`crate::methods::Attribution`].

use crate::lbrwalk;
use crate::methods::Attribution;
use ct_isa::{Addr, Cfg};
use ct_pmu::{Sample, SampleBatch};

/// Estimated per-block instruction mass from one batch of samples.
///
/// * `Plain`: every sample carries `period` instructions of mass, credited
///   to the block containing the reported IP.
/// * `IpFix`: the reported IP is first corrected for the precise-mechanism
///   IP+1 artifact using the frozen LBR top entry: if the reported address
///   is the target of the most recent taken branch, the true location is
///   that branch's source block; otherwise it is the previous address.
/// * `LbrWalk`: the reported IP is ignored; the frozen stack's segments are
///   credited (`period / n_segments` per witnessed instruction).
#[must_use]
pub fn attribute(
    batch: &SampleBatch,
    cfg: &Cfg,
    attribution: Attribution,
    nominal_period: u64,
) -> Vec<f64> {
    let mut bb_mass = vec![0.0; cfg.num_blocks()];
    for sample in &batch.samples {
        credit(sample, cfg, attribution, nominal_period, &mut bb_mass);
    }
    bb_mass
}

/// Credits one sample's mass to `bb_mass` under `attribution`, so
/// samples can be attributed as they arrive: [`attribute`] is this fold
/// over a batch, in sample order.
pub(crate) fn credit(
    sample: &Sample,
    cfg: &Cfg,
    attribution: Attribution,
    nominal_period: u64,
    bb_mass: &mut [f64],
) {
    let period = nominal_period as f64;
    match attribution {
        Attribution::Plain => {
            credit_ip(sample.reported_ip, cfg, period, bb_mass);
        }
        Attribution::IpFix => {
            let ip = corrected_ip(sample);
            credit_ip(ip, cfg, period, bb_mass);
        }
        Attribution::LbrWalk => {
            if let Some(lbr) = &sample.lbr {
                lbrwalk::credit_stack(lbr, cfg, nominal_period, bb_mass);
            }
        }
    }
}

/// Applies the LBR-based IP+1 offset correction (§6.2) to one sample.
///
/// The precise mechanisms report the address of the instruction *after*
/// the captured one. Two cases:
///
/// * the reported address is the target of the newest LBR entry — the
///   captured instruction was that branch, so the corrected address is the
///   branch source (this repairs the cross-block misattribution that makes
///   plain precise sampling inflate branch-target blocks);
/// * otherwise the captured instruction is simply the sequentially
///   preceding address.
#[must_use]
pub fn corrected_ip(sample: &Sample) -> Addr {
    if let Some(lbr) = &sample.lbr {
        if let Some(top) = lbr.last() {
            if top.to == sample.reported_ip {
                return top.from;
            }
        }
    }
    sample.reported_ip.saturating_sub(1)
}

fn credit_ip(ip: Addr, cfg: &Cfg, mass: f64, bb_mass: &mut [f64]) {
    if let Some(id) = cfg.try_block_of(ip) {
        bb_mass[id as usize] += mass;
    }
    // Samples pointing outside the program (possible after deep skid at
    // the end of execution) are dropped, as a real tool drops samples it
    // cannot symbolize.
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_isa::asm::assemble;
    use ct_pmu::LbrEntry;

    fn sample(reported: Addr, lbr: Option<Vec<LbrEntry>>) -> Sample {
        Sample {
            reported_ip: reported,
            trigger_ip: 0,
            trigger_seq: 0,
            reported_seq: 0,
            cycle: 0,
            lbr,
        }
    }

    fn demo_cfg() -> ct_isa::Cfg {
        let p = assemble(
            "t",
            r#"
            .func main
                movi r1, 3
            top:
                addi r2, r2, 1
                subi r1, r1, 1
                brnz r1, top
                halt
            .endfunc
        "#,
        )
        .unwrap();
        ct_isa::Cfg::build(&p)
        // Blocks: 0=[0,1), 1=[1,4), 2=[4,5).
    }

    #[test]
    fn plain_attribution_credits_reported_block() {
        let cfg = demo_cfg();
        let batch = SampleBatch {
            samples: vec![sample(1, None), sample(2, None), sample(4, None)],
            ..SampleBatch::default()
        };
        let mass = attribute(&batch, &cfg, Attribution::Plain, 100);
        assert_eq!(mass, vec![0.0, 200.0, 100.0]);
    }

    #[test]
    fn out_of_range_samples_are_dropped() {
        let cfg = demo_cfg();
        let batch = SampleBatch {
            samples: vec![sample(999, None)],
            ..SampleBatch::default()
        };
        let mass = attribute(&batch, &cfg, Attribution::Plain, 100);
        assert!(mass.iter().all(|&m| m == 0.0));
    }

    #[test]
    fn ip_fix_uses_lbr_top_for_branch_targets() {
        let cfg = demo_cfg();
        // Reported IP 1 (block 1 start, target of the back edge at 3).
        // LBR top says 3 -> 1, so the true trigger was the branch at 3.
        let s = sample(1, Some(vec![LbrEntry { from: 3, to: 1 }]));
        assert_eq!(corrected_ip(&s), 3);
        let batch = SampleBatch {
            samples: vec![s],
            ..SampleBatch::default()
        };
        let mass = attribute(&batch, &cfg, Attribution::IpFix, 100);
        // Credited to block 1 (which contains address 3), not block 0.
        assert_eq!(mass[1], 100.0);
    }

    #[test]
    fn ip_fix_falls_back_to_minus_one() {
        // Reported IP 2 not an LBR target: corrected to 1.
        let s = sample(2, Some(vec![LbrEntry { from: 3, to: 1 }]));
        assert_eq!(corrected_ip(&s), 1);
        // Reported IP 0 saturates.
        let s0 = sample(0, None);
        assert_eq!(corrected_ip(&s0), 0);
    }

    #[test]
    fn lbr_walk_ignores_reported_ip() {
        let cfg = demo_cfg();
        // Stack with two back-edge entries: one segment over block 1.
        let s = sample(
            4, // reported IP in block 2 — must be ignored
            Some(vec![
                LbrEntry { from: 3, to: 1 },
                LbrEntry { from: 3, to: 1 },
            ]),
        );
        let batch = SampleBatch {
            samples: vec![s],
            ..SampleBatch::default()
        };
        let mass = attribute(&batch, &cfg, Attribution::LbrWalk, 90);
        assert_eq!(mass[2], 0.0, "reported IP not credited");
        assert_eq!(mass[1], 270.0, "3 insns x period 90 / 1 segment");
    }

    #[test]
    fn mass_is_conserved_for_plain() {
        let cfg = demo_cfg();
        let batch = SampleBatch {
            samples: (0..10).map(|i| sample(1 + (i % 3), None)).collect(),
            ..SampleBatch::default()
        };
        let mass = attribute(&batch, &cfg, Attribution::Plain, 50);
        let total: f64 = mass.iter().sum();
        assert_eq!(total, 10.0 * 50.0);
    }
}
