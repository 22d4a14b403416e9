//! Machine models: the three processors evaluated in the paper.
//!
//! §4.1/§4.2 of the paper fix the hardware matrix:
//!
//! | | Westmere (Xeon X5650) | Ivy Bridge (E3-1265L) | Magny-Cours (6164 HE) |
//! |---|---|---|---|
//! | fixed architectural counter | yes | yes | **no** |
//! | PEBS precise sampling | yes | yes | — (IBS instead) |
//! | PDIR precisely-distributed event | **no** | yes | no |
//! | LBR | 16 entries | 16 entries | **none** |
//!
//! The numeric latencies below are representative, not die-accurate; the
//! experiments only depend on their *relative* structure (divides are long,
//! ALU is short, misses dominate hits, AMD PMIs skid further than Intel's).

use serde::{Deserialize, Serialize};

/// CPU vendor, which selects the PMU programming model in `ct-pmu`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Vendor {
    Intel,
    Amd,
}

/// Completion latencies (cycles) by instruction class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Latencies {
    pub alu: u32,
    pub mul: u32,
    pub div: u32,
    pub fp_add: u32,
    pub fp_mul: u32,
    pub fp_div: u32,
    pub store: u32,
    pub branch: u32,
    pub jump: u32,
    pub call: u32,
    pub ret: u32,
    pub other: u32,
}

impl Default for Latencies {
    fn default() -> Self {
        Self {
            alu: 1,
            mul: 3,
            div: 25,
            fp_add: 3,
            fp_mul: 5,
            fp_div: 30,
            store: 1,
            branch: 1,
            jump: 1,
            call: 2,
            ret: 2,
            other: 1,
        }
    }
}

/// Two-level data-cache geometry plus access latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// L1 size in 64-bit words.
    pub l1_words: usize,
    pub l1_ways: usize,
    /// L2 size in 64-bit words.
    pub l2_words: usize,
    pub l2_ways: usize,
    /// Cache line size in words.
    pub line_words: usize,
    pub l1_latency: u32,
    pub l2_latency: u32,
    pub mem_latency: u32,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            // 32 KiB L1, 256 KiB L2, 64-byte lines.
            l1_words: 4096,
            l1_ways: 8,
            l2_words: 32768,
            l2_ways: 8,
            line_words: 8,
            l1_latency: 4,
            l2_latency: 12,
            mem_latency: 150,
        }
    }
}

impl CacheConfig {
    /// Checks that both levels describe a modelable geometry: a
    /// power-of-two line size, each level's word count a nonzero multiple
    /// of it, at least one way, no more ways than lines, and a
    /// power-of-two set count (`lines / ways`) so the cache model can
    /// mask set indices instead of dividing. Degenerate geometries used
    /// to be silently clamped (`max(1)`) into a mis-sized set array; now
    /// they are a typed [`SimError`](crate::error::SimError).
    pub fn validate(&self) -> Result<(), crate::error::SimError> {
        for (level, words, ways) in [
            ("L1", self.l1_words, self.l1_ways),
            ("L2", self.l2_words, self.l2_ways),
        ] {
            let bad = || crate::error::SimError::BadCacheGeometry {
                level,
                words,
                ways,
                line_words: self.line_words,
            };
            if self.line_words == 0 || !self.line_words.is_power_of_two() {
                return Err(bad());
            }
            if words == 0 || words % self.line_words != 0 {
                return Err(bad());
            }
            let lines = words / self.line_words;
            if ways == 0 || ways > lines || !lines.is_multiple_of(ways) {
                return Err(bad());
            }
            if !(lines / ways).is_power_of_two() {
                return Err(bad());
            }
        }
        Ok(())
    }
}

/// PMU capabilities of a machine, consumed by `ct-pmu` and the method
/// registry in `countertrust`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PmuCaps {
    /// Fixed architectural `INST_RETIRED.ANY` counter (Intel).
    pub fixed_counter: bool,
    /// PEBS precise sampling (`INST_RETIRED.ALL`, reports IP+1).
    pub pebs: bool,
    /// The Ivy Bridge `INST_RETIRED.PREC_DIST` precisely-distributed event.
    pub pdir: bool,
    /// AMD Instruction Based Sampling (tags uops, exact IP).
    pub ibs: bool,
    /// Last Branch Record depth; 0 means no LBR facility.
    pub lbr_depth: usize,
    /// AMD hardware randomization of the 4 least-significant period bits.
    pub hw_period_randomization_bits: u32,
}

/// A complete machine description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineModel {
    pub name: String,
    pub vendor: Vendor,
    /// Instructions retired per cycle when retirement is unstalled.
    pub retire_width: u32,
    /// Out-of-order execution hides completion latencies up to this many
    /// cycles; anything longer stalls retirement (producing bursts).
    pub hide_latency: u32,
    /// Cycles of retirement bubble after a mispredicted branch.
    pub mispredict_penalty: u32,
    /// Mean PMI delivery latency in cycles — the *skid* source.
    pub pmi_latency: u32,
    /// Uniform jitter added to `pmi_latency` (0..=jitter cycles).
    pub pmi_jitter: u32,
    pub latencies: Latencies,
    pub cache: CacheConfig,
    pub pmu: PmuCaps,
}

impl MachineModel {
    /// Intel Xeon X5650 — 1st-generation Core i7 ("Westmere").
    ///
    /// PEBS but no PDIR: the paper observes that the precisely-distributed
    /// accuracy boosts "are not observed on the Westmere microarchitecture,
    /// where that event is not featured".
    #[must_use]
    pub fn westmere() -> Self {
        Self {
            name: "Westmere (Xeon X5650)".into(),
            vendor: Vendor::Intel,
            retire_width: 4,
            hide_latency: 3,
            mispredict_penalty: 17,
            pmi_latency: 120,
            pmi_jitter: 40,
            latencies: Latencies::default(),
            cache: CacheConfig::default(),
            pmu: PmuCaps {
                fixed_counter: true,
                pebs: true,
                pdir: false,
                ibs: false,
                lbr_depth: 16,
                hw_period_randomization_bits: 0,
            },
        }
    }

    /// Intel Xeon E3-1265L — 3rd-generation Core ("Ivy Bridge").
    ///
    /// Adds the `INST_RETIRED.PREC_DIST` (PDIR) precisely-distributed event
    /// on top of Westmere's PEBS+LBR feature set.
    #[must_use]
    pub fn ivy_bridge() -> Self {
        Self {
            name: "Ivy Bridge (Xeon E3-1265L)".into(),
            vendor: Vendor::Intel,
            retire_width: 4,
            hide_latency: 3,
            mispredict_penalty: 14,
            pmi_latency: 100,
            pmi_jitter: 30,
            latencies: Latencies {
                div: 22,
                fp_div: 24,
                ..Latencies::default()
            },
            cache: CacheConfig::default(),
            pmu: PmuCaps {
                fixed_counter: true,
                pebs: true,
                pdir: true,
                ibs: false,
                lbr_depth: 16,
                hw_period_randomization_bits: 0,
            },
        }
    }

    /// AMD Opteron 6164 HE ("Magny-Cours").
    ///
    /// No fixed counter, no LBR; IBS is the precise mechanism and samples
    /// *uops* rather than instructions. The PMI path skids further than on
    /// the Intel parts, matching the paper's "AMD systems are consistently
    /// burdened with high error rates".
    #[must_use]
    pub fn magny_cours() -> Self {
        Self {
            name: "Magny-Cours (Opteron 6164 HE)".into(),
            vendor: Vendor::Amd,
            retire_width: 3,
            hide_latency: 3,
            mispredict_penalty: 20,
            pmi_latency: 200,
            pmi_jitter: 80,
            latencies: Latencies {
                div: 40,
                fp_div: 33,
                ..Latencies::default()
            },
            cache: CacheConfig {
                l1_words: 8192, // 64 KiB L1
                l2_words: 65536,
                mem_latency: 180,
                ..CacheConfig::default()
            },
            pmu: PmuCaps {
                fixed_counter: false,
                pebs: false,
                pdir: false,
                ibs: true,
                lbr_depth: 0,
                hw_period_randomization_bits: 4,
            },
        }
    }

    /// The paper's full machine matrix, in presentation order.
    #[must_use]
    pub fn paper_machines() -> Vec<Self> {
        vec![Self::magny_cours(), Self::westmere(), Self::ivy_bridge()]
    }

    /// The Intel subset of the matrix (Westmere, Ivy Bridge) — every
    /// method family of the taxonomy resolves on both, which makes this
    /// the natural catalog for tenants that must never see
    /// `method unavailable` holes (the AMD part has no LBR/fix).
    #[must_use]
    pub fn intel_machines() -> Vec<Self> {
        vec![Self::westmere(), Self::ivy_bridge()]
    }

    /// Completion latency for an instruction class, excluding memory (loads
    /// consult the cache model instead).
    #[must_use]
    pub fn class_latency(&self, class: ct_isa::InsnClass) -> u32 {
        use ct_isa::InsnClass::*;
        let l = &self.latencies;
        match class {
            Alu => l.alu,
            Mul => l.mul,
            Div => l.div,
            FpAdd => l.fp_add,
            FpMul => l.fp_mul,
            FpDiv => l.fp_div,
            Load => self.cache.l1_latency, // overridden by the cache model
            Store => l.store,
            Jump => l.jump,
            Branch => l.branch,
            Call => l.call,
            Ret => l.ret,
            Other => l.other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_matrix_capabilities() {
        let wsm = MachineModel::westmere();
        let ivb = MachineModel::ivy_bridge();
        let amd = MachineModel::magny_cours();

        assert!(wsm.pmu.pebs && !wsm.pmu.pdir && wsm.pmu.lbr_depth == 16);
        assert!(ivb.pmu.pebs && ivb.pmu.pdir && ivb.pmu.lbr_depth == 16);
        assert!(!amd.pmu.pebs && !amd.pmu.pdir && amd.pmu.ibs);
        assert_eq!(amd.pmu.lbr_depth, 0);
        assert!(!amd.pmu.fixed_counter);
        assert_eq!(amd.pmu.hw_period_randomization_bits, 4);
    }

    #[test]
    fn intel_machines_are_the_lbr_capable_subset_of_the_matrix() {
        let intel = MachineModel::intel_machines();
        let paper: Vec<String> = MachineModel::paper_machines()
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(intel.len(), 2);
        for m in &intel {
            assert!(
                paper.contains(&m.name),
                "{} not in the paper matrix",
                m.name
            );
            assert!(m.pmu.lbr_depth > 0, "{} must support LBR", m.name);
        }
    }

    #[test]
    fn amd_skids_further_than_intel() {
        assert!(MachineModel::magny_cours().pmi_latency > MachineModel::ivy_bridge().pmi_latency);
    }

    #[test]
    fn div_is_long_latency_everywhere() {
        for m in MachineModel::paper_machines() {
            assert!(m.class_latency(ct_isa::InsnClass::Div) > 4 * m.hide_latency);
        }
    }
}
