//! Sampling-period generation: round, prime, randomized.
//!
//! Table 3 of the paper distinguishes methods purely by period policy:
//! round fixed (2,000,000), prime fixed (2,000,003), and randomized
//! variants. AMD hardware additionally randomizes the 4 least-significant
//! bits of the period whether the user wants it or not ("the hardware
//! randomizes the 4 least significant bits", §4.2).

use crate::error::PmuError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Period randomization policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Randomization {
    /// Fixed period, reloaded exactly.
    None,
    /// Software randomization: a uniform offset in `[-2^(bits-1), 2^(bits-1))`
    /// is added to the nominal period on every reload (Chen et al. style).
    Software { bits: u32 },
    /// AMD-style hardware randomization: the low `bits` bits of the reload
    /// value are replaced with fresh random bits. Note this destroys
    /// primality of a carefully chosen prime period on most reloads.
    HardwareLsb { bits: u32 },
}

/// A period policy: nominal value plus randomization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeriodSpec {
    pub nominal: u64,
    pub randomization: Randomization,
}

impl PeriodSpec {
    /// Fixed round/prime period with no randomization.
    #[must_use]
    pub const fn fixed(nominal: u64) -> Self {
        Self {
            nominal,
            randomization: Randomization::None,
        }
    }

    /// Software-randomized period with the default window used in the
    /// evaluation (plus/minus 2.5% of a 12-bit window around the nominal).
    #[must_use]
    pub const fn randomized(nominal: u64, bits: u32) -> Self {
        Self {
            nominal,
            randomization: Randomization::Software { bits },
        }
    }

    /// Checks that the policy can run: a non-zero period, a randomization
    /// width the generator's shifts support, and reload values that fit
    /// the sampler's signed counter.
    pub fn validate(&self) -> Result<(), PmuError> {
        if self.nominal == 0 {
            return Err(PmuError::ZeroPeriod);
        }
        let (bits, min, max) = match self.randomization {
            Randomization::None => (0, 0, 0),
            Randomization::Software { bits } => (bits, 1, 62),
            Randomization::HardwareLsb { bits } => (bits, 0, 63),
        };
        if !(min..=max).contains(&bits) {
            return Err(PmuError::RandomizationBits { bits, min, max });
        }
        let max_reload = match self.randomization {
            Randomization::None => self.nominal,
            Randomization::Software { bits } => self.nominal.saturating_add((1 << (bits - 1)) - 1),
            Randomization::HardwareLsb { bits } => self.nominal | ((1 << bits) - 1),
        };
        if max_reload > i64::MAX as u64 {
            return Err(PmuError::PeriodTooLarge { max_reload });
        }
        Ok(())
    }
}

/// Stateful period generator (owns the RNG so reloads are reproducible for
/// a given seed). The spec must pass [`PeriodSpec::validate`].
#[derive(Debug, Clone)]
pub struct PeriodGenerator {
    spec: PeriodSpec,
    rng: SmallRng,
    generated: u64,
    sum: u64,
}

impl PeriodGenerator {
    /// Creates a generator for `spec` seeded with `seed`.
    #[must_use]
    pub fn new(spec: PeriodSpec, seed: u64) -> Self {
        Self {
            spec,
            rng: SmallRng::seed_from_u64(seed),
            generated: 0,
            sum: 0,
        }
    }

    /// The nominal period (what a profile analyzer believes the period is).
    #[must_use]
    pub fn nominal(&self) -> u64 {
        self.spec.nominal
    }

    /// Produces the next reload value.
    pub fn next_period(&mut self) -> u64 {
        let p = match self.spec.randomization {
            Randomization::None => self.spec.nominal,
            Randomization::Software { bits } => {
                let window = 1i64 << bits;
                let off = self.rng.gen_range(-(window / 2)..window / 2);
                self.spec.nominal.saturating_add_signed(off).max(1)
            }
            Randomization::HardwareLsb { bits } => {
                let mask = (1u64 << bits) - 1;
                let low: u64 = self.rng.gen_range(0..=mask);
                ((self.spec.nominal & !mask) | low).max(1)
            }
        };
        self.generated += 1;
        self.sum += p;
        p
    }

    /// Mean of all periods generated so far (`nominal` before the first).
    #[must_use]
    pub fn mean_period(&self) -> f64 {
        if self.generated == 0 {
            self.spec.nominal as f64
        } else {
            self.sum as f64 / self.generated as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_period_is_constant() {
        let mut g = PeriodGenerator::new(PeriodSpec::fixed(2_000_003), 1);
        for _ in 0..10 {
            assert_eq!(g.next_period(), 2_000_003);
        }
        assert_eq!(g.mean_period(), 2_000_003.0);
    }

    #[test]
    fn software_randomization_stays_in_window() {
        let spec = PeriodSpec::randomized(10_000, 8);
        let mut g = PeriodGenerator::new(spec, 42);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..200 {
            let p = g.next_period();
            assert!((10_000 - 128..10_000 + 128).contains(&(p as i64)));
            distinct.insert(p);
        }
        assert!(
            distinct.len() > 20,
            "randomization actually varies the period"
        );
    }

    #[test]
    fn hardware_lsb_randomization_keeps_high_bits() {
        let spec = PeriodSpec {
            nominal: 20_011, // prime
            randomization: Randomization::HardwareLsb { bits: 4 },
        };
        let mut g = PeriodGenerator::new(spec, 7);
        let mut saw_non_prime = false;
        for _ in 0..64 {
            let p = g.next_period();
            assert_eq!(p & !15, 20_011 & !15, "high bits preserved");
            if !ct_isa::prime::is_prime(p) {
                saw_non_prime = true;
            }
        }
        assert!(saw_non_prime, "hardware randomization destroys primality");
    }

    #[test]
    fn deterministic_for_seed() {
        let spec = PeriodSpec::randomized(5_000, 6);
        let a: Vec<u64> = {
            let mut g = PeriodGenerator::new(spec, 99);
            (0..50).map(|_| g.next_period()).collect()
        };
        let b: Vec<u64> = {
            let mut g = PeriodGenerator::new(spec, 99);
            (0..50).map(|_| g.next_period()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn period_never_zero() {
        let spec = PeriodSpec::randomized(2, 8);
        let mut g = PeriodGenerator::new(spec, 3);
        for _ in 0..500 {
            assert!(g.next_period() >= 1);
        }
    }
}
