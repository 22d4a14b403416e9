//! `ct-pmu` — the Performance Monitoring Unit model.
//!
//! This crate models the sampling hardware whose accuracy the paper
//! evaluates, as an observer of the `ct-sim` retirement stream:
//!
//! * **counters** with programmable period and overflow (→ PMI);
//! * **imprecise sampling** ("classic"): the PMI is delivered a skid of
//!   `pmi_latency`+jitter cycles after overflow and reports the address of
//!   the instruction retiring at delivery time — so long-latency
//!   instructions at the retirement head soak up samples (the *shadow*
//!   effect) and everything skids by dozens of instructions;
//! * **PEBS**: overflow arms a capture that fires on the first event of a
//!   *later* retirement cycle (burst/cycle-boundary arming bias — "the
//!   distribution of samples is not guaranteed") and reports **IP+1**;
//! * **PDIR** (`INST_RETIRED.PREC_DIST`, Ivy Bridge): captures the exact
//!   overflowing instruction — precisely distributed — still reporting the
//!   IP+1 artifact;
//! * **IBS** (AMD): counts and tags *uops*, reporting the exact IP of the
//!   instruction owning the tagged uop — multi-uop instructions are
//!   proportionally oversampled relative to instruction counts;
//! * **LBR**: a ring of the last N taken branches, frozen and attached to
//!   samples on request, with an optional call-stack mode that collides
//!   with basic-block use (§6.2);
//! * **period control**: round or prime nominal periods, software
//!   randomization, and AMD's built-in 4-LSB hardware randomization.
//!
//! # Examples
//!
//! Period policy is the whole difference between Table 3's method
//! families. A fixed (round or prime) period reloads exactly; a
//! software-randomized one varies per reload but is reproducible for a
//! given seed — which is what makes every sampling run in this workspace
//! replayable:
//!
//! ```
//! use ct_pmu::{PeriodGenerator, PeriodSpec};
//!
//! let mut prime = PeriodGenerator::new(PeriodSpec::fixed(2_000_003), 1);
//! assert_eq!(prime.next_period(), 2_000_003);
//! assert_eq!(prime.next_period(), 2_000_003);
//!
//! let spec = PeriodSpec::randomized(2_000_000, 12);
//! let mut a = PeriodGenerator::new(spec, 7);
//! let mut b = PeriodGenerator::new(spec, 7);
//! let periods: Vec<u64> = (0..4).map(|_| a.next_period()).collect();
//! assert!(periods.iter().any(|&p| p != 2_000_000), "randomization reaches the reload");
//! assert_eq!(periods, (0..4).map(|_| b.next_period()).collect::<Vec<u64>>());
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

pub mod error;
pub mod event;
pub mod lbr;
pub mod period;
pub mod sample;
pub mod sampler;

pub use error::PmuError;
pub use event::PmuEvent;
pub use lbr::{LbrEntry, LbrFilter, LbrMode, LbrStack};
pub use period::{PeriodGenerator, PeriodSpec, Randomization};
pub use sample::{Sample, SampleBatch};
pub use sampler::{Precision, Sampler, SamplerConfig, SamplerStats};
