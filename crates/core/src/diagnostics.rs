//! Error-factor decomposition: synchronization, skid and shadow.
//!
//! §3.1 (after Chen et al. and Levinthal) attributes sampling-distribution
//! error to three factors: (1) synchronization of the monitored code with
//! the sampling period, (2) skid between the overflow and the reported
//! address, and (3) the shadow of long-latency instructions. This module
//! measures each factor from a batch's simulation-only ground-truth
//! fields, giving the per-method diagnosis behind the Table 1/2 numbers.

use ct_isa::{Cfg, InsnClass, Program};
use ct_pmu::SampleBatch;
use serde::{Deserialize, Serialize};

/// Decomposed diagnosis of one sample batch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Diagnosis {
    /// Mean |reported − trigger| in retired instructions.
    pub mean_skid: f64,
    /// 95th-percentile skid.
    pub p95_skid: u64,
    /// Fraction of samples whose reported address landed in a different
    /// basic block than the trigger (the damage skid actually does to a
    /// block-level profile).
    pub cross_block_fraction: f64,
    /// Synchronization score in \[0,1\]: 1 − (distinct trigger phases /
    /// min(samples, phase space)) over the dominant loop. 0 means triggers
    /// rotate freely; 1 means every trigger hit the same phase (full
    /// resonance).
    pub synchronization: f64,
    /// Share of samples *reported* at long-latency instructions
    /// (div/fdiv/loads).
    pub reported_long_share: f64,
    /// Share of samples *triggered* at long-latency instructions.
    pub trigger_long_share: f64,
    /// Shadow excess: `reported_long_share - trigger_long_share`. Positive
    /// means long-latency instructions soak up samples beyond the share
    /// the counter actually assigned them — the §3.1 shadow effect.
    pub shadow_excess: f64,
    /// Number of samples diagnosed.
    pub samples: usize,
}

/// Computes the diagnosis of `batch` against `program`.
#[must_use]
pub fn diagnose(batch: &SampleBatch, program: &Program, cfg: &Cfg) -> Diagnosis {
    let n = batch.samples.len();
    if n == 0 {
        return Diagnosis {
            mean_skid: 0.0,
            p95_skid: 0,
            cross_block_fraction: 0.0,
            synchronization: 0.0,
            reported_long_share: 0.0,
            trigger_long_share: 0.0,
            shadow_excess: 0.0,
            samples: 0,
        };
    }
    let mut skids: Vec<u64> = batch
        .samples
        .iter()
        .map(|s| s.skid_instructions())
        .collect();
    skids.sort_unstable();
    let mean_skid = skids.iter().sum::<u64>() as f64 / n as f64;
    let p95_skid = skids[(n * 95 / 100).min(n - 1)];

    let cross = batch
        .samples
        .iter()
        .filter(|s| cfg.try_block_of(s.reported_ip) != cfg.try_block_of(s.trigger_ip))
        .count() as f64
        / n as f64;

    // Synchronization: how few distinct trigger addresses the batch has,
    // relative to how many it could have (bounded by the number of
    // distinct addresses that retire at all — approximated by program
    // length — and by the sample count).
    let distinct: std::collections::HashSet<u32> =
        batch.samples.iter().map(|s| s.trigger_ip).collect();
    let possible = n.min(program.len());
    let synchronization = if possible <= 1 {
        0.0
    } else {
        1.0 - (distinct.len() - 1) as f64 / (possible - 1) as f64
    };

    // Shadow bias: long-latency classes' share of reports vs triggers.
    let is_long = |addr: u32| {
        matches!(
            program.fetch(addr).class(),
            InsnClass::Div | InsnClass::FpDiv | InsnClass::Load
        )
    };
    let in_range = |addr: u32| (addr as usize) < program.len();
    let reported_long = batch
        .samples
        .iter()
        .filter(|s| in_range(s.reported_ip) && is_long(s.reported_ip))
        .count() as f64
        / n as f64;
    let trigger_long = batch
        .samples
        .iter()
        .filter(|s| in_range(s.trigger_ip) && is_long(s.trigger_ip))
        .count() as f64
        / n as f64;

    Diagnosis {
        mean_skid,
        p95_skid,
        cross_block_fraction: cross,
        synchronization,
        reported_long_share: reported_long,
        trigger_long_share: trigger_long,
        shadow_excess: reported_long - trigger_long,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{MethodKind, MethodOptions};
    use ct_pmu::Sampler;
    use ct_sim::{Cpu, MachineModel, RunConfig};

    fn diagnose_method(kind: MethodKind) -> Diagnosis {
        let program = ct_workloads::by_name("latency_biased", 60_000)
            .unwrap()
            .program;
        let cfg = Cfg::build(&program);
        let machine = MachineModel::ivy_bridge();
        let inst = kind.instantiate(&machine, &MethodOptions::fast()).unwrap();
        let mut sampler = Sampler::new(&machine, &inst.config).unwrap();
        Cpu::new(&machine)
            .run(&program, &RunConfig::default(), &mut [&mut sampler])
            .unwrap();
        diagnose(&sampler.into_batch(), &program, &cfg)
    }

    #[test]
    fn classic_shows_skid_and_shadow() {
        let d = diagnose_method(MethodKind::Classic);
        assert!(d.samples > 50);
        assert!(d.mean_skid > 20.0, "classic skid {}", d.mean_skid);
        assert!(d.cross_block_fraction > 0.3, "skid crosses blocks");
        // Shadow: the div soaks up reported samples far beyond the share
        // the counter actually assigned it.
        assert!(
            d.shadow_excess > 0.1,
            "long-latency soak expected, got excess {} (reported {} vs trigger {})",
            d.shadow_excess,
            d.reported_long_share,
            d.trigger_long_share
        );
        // Precise mechanisms do not exhibit the soak.
        let p = diagnose_method(MethodKind::PrecisePrime);
        assert!(p.shadow_excess.abs() < d.shadow_excess);
    }

    #[test]
    fn pdir_shows_resonance_instead() {
        // PDIR with a round period: skid is one instruction, but the
        // trigger phase locks (synchronization ≈ 1).
        let d = diagnose_method(MethodKind::Precise);
        assert!(d.mean_skid <= 3.0);
        assert!(
            d.synchronization > 0.9,
            "round period should resonate, got {}",
            d.synchronization
        );
        // And the prime period releases it.
        let dp = diagnose_method(MethodKind::PrecisePrime);
        assert!(
            dp.synchronization < 0.7,
            "prime period should rotate phases, got {}",
            dp.synchronization
        );
    }

    #[test]
    fn empty_batch_is_all_zeros() {
        let program = ct_workloads::by_name("g4box", 100).unwrap().program;
        let cfg = Cfg::build(&program);
        let d = diagnose(&SampleBatch::default(), &program, &cfg);
        assert_eq!(d.samples, 0);
        assert_eq!(d.mean_skid, 0.0);
    }
}
