//! The sampling engine: counter, overflow, PMI and capture mechanisms.
//!
//! One [`Sampler`] models one programmed counter plus its sampling
//! mechanism. It observes the retirement stream and produces a
//! [`SampleBatch`]. The four mechanisms differ only in *which instruction
//! address ends up in the sample*:
//!
//! | mechanism | capture rule | reported address |
//! |---|---|---|
//! | `Imprecise` | PMI delivered `pmi_latency`+jitter cycles after overflow | instruction retiring at delivery time (multi-instruction skid, shadow bias) |
//! | `Pebs` | arms at overflow; captures the first event of a **later** retirement cycle (burst-boundary bias) | IP+1 of the captured instruction |
//! | `Pdir` | captures the overflowing instruction itself (precisely distributed) | IP+1 of the trigger |
//! | `Ibs` | counts uops; captures the instruction owning the overflowing uop | exact IP (but uop-weighted selection) |

use crate::error::PmuError;
use crate::event::PmuEvent;
use crate::lbr::{LbrFilter, LbrMode, LbrStack};
use crate::period::{PeriodGenerator, PeriodSpec};
use crate::sample::{Sample, SampleBatch};
use ct_isa::Addr;
use ct_sim::{MachineModel, QuietBudget, RetireEvent, RetireObserver, Skipped};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The capture mechanism backing a sampling configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Precision {
    /// Classic interrupt-based sampling with skid.
    Imprecise,
    /// Intel Precise Event Based Sampling.
    Pebs,
    /// Intel precisely-distributed PEBS (`INST_RETIRED.PREC_DIST`).
    Pdir,
    /// AMD Instruction Based Sampling (uop granularity).
    Ibs,
}

/// Full sampler configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SamplerConfig {
    pub event: PmuEvent,
    pub precision: Precision,
    pub period: PeriodSpec,
    /// Attach a frozen LBR snapshot to every sample.
    pub collect_lbr: bool,
    pub lbr_filter: LbrFilter,
    pub lbr_mode: LbrMode,
    /// Seed for PMI jitter, period randomization and failure injection.
    pub seed: u64,
    /// Probability of losing a PMI entirely (failure injection; 0 in all
    /// paper experiments).
    pub pmi_drop_rate: f64,
}

impl SamplerConfig {
    /// A plain configuration for `event` with `period` and defaults
    /// everywhere else.
    #[must_use]
    pub fn new(event: PmuEvent, precision: Precision, period: PeriodSpec) -> Self {
        Self {
            event,
            precision,
            period,
            collect_lbr: false,
            lbr_filter: LbrFilter::Any,
            lbr_mode: LbrMode::Ring,
            seed: 0x5EED,
            pmi_drop_rate: 0.0,
        }
    }

    /// Enables LBR collection on every sample.
    #[must_use]
    pub fn with_lbr(mut self) -> Self {
        self.collect_lbr = true;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Checks the configuration against a machine's PMU capabilities,
    /// mirroring a driver rejecting an unsupported event.
    pub fn validate(&self, machine: &MachineModel) -> Result<(), PmuError> {
        let name = machine.name.clone();
        self.period.validate()?;
        match self.precision {
            Precision::Pebs if !machine.pmu.pebs => {
                return Err(PmuError::PebsUnsupported { machine: name });
            }
            Precision::Pdir if !machine.pmu.pdir => {
                return Err(PmuError::PdirUnsupported { machine: name });
            }
            Precision::Ibs if !machine.pmu.ibs => {
                return Err(PmuError::IbsUnsupported { machine: name });
            }
            _ => {}
        }
        if self.collect_lbr && machine.pmu.lbr_depth == 0 {
            return Err(PmuError::LbrUnsupported { machine: name });
        }
        if self.event == PmuEvent::InstRetiredAny && !machine.pmu.fixed_counter {
            return Err(PmuError::FixedCounterUnsupported { machine: name });
        }
        Ok(())
    }
}

/// Aggregate sampler statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SamplerStats {
    pub overflows: u64,
    pub samples: u64,
    pub dropped_collisions: u64,
    pub dropped_injected: u64,
}

/// In-flight capture state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CaptureState {
    Idle,
    /// Imprecise PMI scheduled for `deliver_at`.
    PendingPmi {
        trigger_ip: Addr,
        trigger_seq: u64,
        deliver_at: u64,
    },
    /// PEBS armed at overflow; fires on the first event occurrence in a
    /// cycle strictly after `armed_cycle`.
    PebsArmed {
        trigger_ip: Addr,
        trigger_seq: u64,
        armed_cycle: u64,
    },
    /// Captured instruction `captured_*`; the next retired instruction's
    /// address becomes the reported IP (the IP+1 artifact).
    AwaitNextAddr {
        trigger_ip: Addr,
        trigger_seq: u64,
    },
}

/// The sampling engine. Create per run, feed via [`RetireObserver`], then
/// call [`Sampler::into_batch`].
#[derive(Debug)]
pub struct Sampler {
    event: PmuEvent,
    precision: Precision,
    collect_lbr: bool,
    pmi_drop_rate: f64,
    pmi_latency: u64,
    pmi_jitter: u64,
    counter: i64,
    periods: PeriodGenerator,
    lbr: LbrStack,
    rng: SmallRng,
    state: CaptureState,
    /// `(addr, seq)` of the first instruction retiring in the current
    /// cycle — the dispatch-group head IBS tags resolve to.
    cycle_head: (Addr, u64),
    batch: SampleBatch,
    stats: SamplerStats,
}

impl Sampler {
    /// Builds a sampler for `config` on `machine`.
    ///
    /// AMD machines silently force their built-in 4-LSB hardware period
    /// randomization on top of the configured policy when the configured
    /// policy is `None` *and* the machine declares
    /// `hw_period_randomization_bits > 0` — except that the paper treats
    /// this as an explicitly selectable method, so the caller opts in by
    /// using [`crate::period::Randomization::HardwareLsb`] directly.
    pub fn new(machine: &MachineModel, config: &SamplerConfig) -> Result<Self, PmuError> {
        config.validate(machine)?;
        let mut periods = PeriodGenerator::new(config.period, config.seed ^ 0x9E37_79B9);
        let first = periods.next_period() as i64;
        Ok(Self {
            event: config.event,
            precision: config.precision,
            collect_lbr: config.collect_lbr,
            pmi_drop_rate: config.pmi_drop_rate,
            pmi_latency: u64::from(machine.pmi_latency),
            pmi_jitter: u64::from(machine.pmi_jitter),
            counter: first,
            periods,
            lbr: LbrStack::new(machine.pmu.lbr_depth, config.lbr_filter, config.lbr_mode),
            rng: SmallRng::seed_from_u64(config.seed),
            state: CaptureState::Idle,
            cycle_head: (0, 0),
            batch: SampleBatch::default(),
            stats: SamplerStats::default(),
        })
    }

    /// The nominal sampling period (what an analysis tool would scale
    /// sample counts by).
    #[must_use]
    pub fn nominal_period(&self) -> u64 {
        self.periods.nominal()
    }

    /// Consumes the sampler, returning the collected samples.
    #[must_use]
    pub fn into_batch(self) -> SampleBatch {
        self.batch
    }

    /// Takes the samples recorded so far out of the batch and leaves its
    /// counters, so a caller can attribute samples as they are recorded
    /// instead of holding a whole batch; [`Sampler::into_batch`] then
    /// returns only the samples recorded since the last take.
    pub fn take_samples(&mut self) -> std::vec::Drain<'_, Sample> {
        self.batch.samples.drain(..)
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> SamplerStats {
        self.stats
    }

    /// Records a sample reporting `reported` at `cycle` for the overflow
    /// of `trigger`, each an `(addr, seq)` pair.
    fn record(&mut self, reported: (Addr, u64), cycle: u64, trigger: (Addr, u64)) {
        let lbr = self.collect_lbr.then(|| self.lbr.snapshot());
        self.batch.samples.push(Sample {
            reported_ip: reported.0,
            trigger_ip: trigger.0,
            trigger_seq: trigger.1,
            reported_seq: reported.1,
            cycle,
            lbr,
        });
        self.stats.samples += 1;
    }

    /// Step 1: resolve any in-flight capture against the current event
    /// (before the LBR sees it, so frozen snapshots end at the last branch
    /// *before* the reported instruction — what the IP+1 fix needs).
    #[inline]
    fn resolve_pending(&mut self, ev: &RetireEvent) {
        match self.state {
            CaptureState::Idle => {}
            CaptureState::PendingPmi {
                trigger_ip,
                trigger_seq,
                deliver_at,
            } => {
                if ev.cycle >= deliver_at {
                    self.record((ev.addr, ev.seq), ev.cycle, (trigger_ip, trigger_seq));
                    self.state = CaptureState::Idle;
                }
            }
            CaptureState::PebsArmed {
                trigger_ip,
                trigger_seq,
                armed_cycle,
            } => {
                if ev.cycle > armed_cycle && self.event.increment(ev) > 0 {
                    // PEBS: `ev` is the captured instruction; its
                    // successor's address will be reported (IP+1).
                    self.state = CaptureState::AwaitNextAddr {
                        trigger_ip,
                        trigger_seq,
                    };
                }
            }
            CaptureState::AwaitNextAddr {
                trigger_ip,
                trigger_seq,
            } => {
                self.record((ev.addr, ev.seq), ev.cycle, (trigger_ip, trigger_seq));
                self.state = CaptureState::Idle;
            }
        }
    }

    /// Step 3: count the event and handle overflow.
    #[inline]
    fn count_and_overflow(&mut self, ev: &RetireEvent) {
        let inc = self.event.increment(ev);
        if inc == 0 {
            return;
        }
        self.batch.total_events += inc;
        self.counter -= inc as i64;
        if self.counter > 0 {
            return;
        }
        // Overflow triggered by this instruction.
        self.stats.overflows += 1;
        while self.counter <= 0 {
            self.counter += self.periods.next_period() as i64;
        }
        if self.pmi_drop_rate > 0.0 && self.rng.gen::<f64>() < self.pmi_drop_rate {
            self.stats.dropped_injected += 1;
            self.batch.dropped_injected += 1;
            return;
        }
        if self.state != CaptureState::Idle {
            // A previous PMI/capture is still in flight; hardware drops
            // this overflow.
            self.stats.dropped_collisions += 1;
            self.batch.dropped_collisions += 1;
            return;
        }
        match self.precision {
            Precision::Imprecise => {
                let jitter = if self.pmi_jitter == 0 {
                    0
                } else {
                    self.rng.gen_range(0..=self.pmi_jitter)
                };
                self.state = CaptureState::PendingPmi {
                    trigger_ip: ev.addr,
                    trigger_seq: ev.seq,
                    deliver_at: ev.cycle + self.pmi_latency + jitter,
                };
            }
            Precision::Pebs => {
                self.state = CaptureState::PebsArmed {
                    trigger_ip: ev.addr,
                    trigger_seq: ev.seq,
                    armed_cycle: ev.cycle,
                };
            }
            Precision::Pdir => {
                // Precisely distributed: the trigger itself is captured;
                // report its successor's address (IP+1 artifact remains).
                self.state = CaptureState::AwaitNextAddr {
                    trigger_ip: ev.addr,
                    trigger_seq: ev.seq,
                };
            }
            Precision::Ibs => {
                // IBS tags at dispatch-window granularity: the tag
                // resolves to the head op of the group containing the
                // Nth uop, whose exact IP is reported (IBS has no IP+1
                // artifact). Selection is therefore both uop-weighted
                // and group-head biased — why the paper finds AMD
                // "consistently burdened with high error rates" despite
                // IBS being nominally precise, and why it laments the
                // missing "precise instruction event" in IBS (§6.2).
                self.record(self.cycle_head, ev.cycle, (ev.addr, ev.seq));
            }
        }
    }
}

/// Like the hardware it models, the sampler pays per event: its counter
/// counts down in the dispatch loop's totals, so it sees only the event
/// that overflows it, the events that resolve a capture and, for the
/// LBR, taken branches.
impl RetireObserver for Sampler {
    #[inline]
    fn quiet_budget(&self) -> QuietBudget {
        let deadline = match self.state {
            CaptureState::Idle => u64::MAX,
            CaptureState::PendingPmi { deliver_at, .. } => deliver_at,
            CaptureState::PebsArmed { armed_cycle, .. } => armed_cycle.saturating_add(1),
            CaptureState::AwaitNextAddr { .. } => return QuietBudget::EVERY_EVENT,
        };
        // The counter is at least 1 between events: the event on which it
        // reaches zero is the overflow, which must be seen.
        QuietBudget {
            deadline,
            taken_hook: self.collect_lbr,
            ..self.event.quiet_budget(self.counter as u64 - 1)
        }
    }

    #[inline]
    fn on_skipped(&mut self, skipped: Skipped, cycle_head: (Addr, u64)) {
        let n = self.event.count(&skipped);
        self.batch.total_events += n;
        self.counter -= n as i64;
        self.cycle_head = cycle_head;
    }

    #[inline]
    fn on_taken_branch(&mut self, ev: &RetireEvent) {
        self.lbr.observe(ev);
    }

    #[inline]
    fn on_retire(&mut self, ev: &RetireEvent) {
        self.resolve_pending(ev);
        if self.collect_lbr {
            self.lbr.observe(ev);
        }
        self.count_and_overflow(ev);
    }

    fn on_finish(&mut self, _final_cycle: u64) {
        // An in-flight PMI past the end of the run produces no sample,
        // like a PMI arriving after the process exited.
        self.state = CaptureState::Idle;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::period::Randomization;
    use ct_isa::asm::assemble;
    use ct_sim::{Cpu, RunConfig};

    fn straight_line_workload() -> ct_isa::Program {
        // A long loop of cheap instructions: predictable retirement.
        assemble(
            "w",
            r#"
            .func main
                movi r1, 5000
            top:
                addi r2, r2, 1
                addi r3, r3, 1
                addi r4, r4, 1
                addi r5, r5, 1
                addi r6, r6, 1
                addi r7, r7, 1
                subi r1, r1, 1
                brnz r1, top
                halt
            .endfunc
        "#,
        )
        .unwrap()
    }

    fn run_sampler(
        machine: &MachineModel,
        program: &ct_isa::Program,
        config: &SamplerConfig,
    ) -> (SampleBatch, ct_sim::RunSummary) {
        let mut s = Sampler::new(machine, config).unwrap();
        let summary = Cpu::new(machine)
            .run(program, &RunConfig::default(), &mut [&mut s])
            .unwrap();
        (s.into_batch(), summary)
    }

    #[test]
    fn sample_rate_matches_period() {
        let m = MachineModel::ivy_bridge();
        let p = straight_line_workload();
        let cfg = SamplerConfig::new(
            PmuEvent::InstRetiredPrecDist,
            Precision::Pdir,
            PeriodSpec::fixed(997),
        );
        let (batch, summary) = run_sampler(&m, &p, &cfg);
        let expected = summary.instructions / 997;
        let got = batch.len() as u64;
        assert!(
            got.abs_diff(expected) <= 2,
            "expected ~{expected} samples, got {got}"
        );
    }

    #[test]
    fn imprecise_sampling_skids() {
        let m = MachineModel::westmere();
        let p = straight_line_workload();
        let cfg = SamplerConfig::new(
            PmuEvent::InstRetiredAny,
            Precision::Imprecise,
            PeriodSpec::fixed(1009),
        );
        let (batch, _) = run_sampler(&m, &p, &cfg);
        assert!(!batch.is_empty());
        // The PMI latency is ~120-160 cycles; with ~4 IPC retirement, skid
        // should be large (hundreds of instructions).
        assert!(
            batch.mean_skid() > 50.0,
            "imprecise skid too small: {}",
            batch.mean_skid()
        );
        // Every sample reports a *later* instruction than the trigger.
        for s in &batch.samples {
            assert!(s.reported_seq > s.trigger_seq);
        }
    }

    #[test]
    fn pdir_reports_ip_plus_one() {
        let m = MachineModel::ivy_bridge();
        let p = straight_line_workload();
        let cfg = SamplerConfig::new(
            PmuEvent::InstRetiredPrecDist,
            Precision::Pdir,
            PeriodSpec::fixed(1013),
        );
        let (batch, _) = run_sampler(&m, &p, &cfg);
        assert!(!batch.is_empty());
        for s in &batch.samples {
            assert_eq!(
                s.reported_seq,
                s.trigger_seq + 1,
                "PDIR reports exactly the next retired instruction"
            );
        }
    }

    #[test]
    fn pebs_skids_less_than_imprecise_but_more_than_pdir() {
        let m = MachineModel::ivy_bridge();
        let p = straight_line_workload();
        let mk = |event, precision| SamplerConfig::new(event, precision, PeriodSpec::fixed(1009));
        let (imprecise, _) =
            run_sampler(&m, &p, &mk(PmuEvent::InstRetiredAny, Precision::Imprecise));
        let (pebs, _) = run_sampler(&m, &p, &mk(PmuEvent::InstRetiredAll, Precision::Pebs));
        let (pdir, _) = run_sampler(&m, &p, &mk(PmuEvent::InstRetiredPrecDist, Precision::Pdir));
        assert!(pebs.mean_skid() < imprecise.mean_skid());
        assert!(pdir.mean_skid() <= pebs.mean_skid());
        assert_eq!(pdir.mean_skid(), 1.0);
    }

    #[test]
    fn ibs_reports_exact_ip_weighted_by_uops() {
        let m = MachineModel::magny_cours();
        // Half the loop is a div (8 uops), half is adds (1 uop each).
        let p = assemble(
            "w",
            r#"
            .func main
                movi r1, 4000
                movi r2, 7
            top:
                div r3, r1, r2
                addi r4, r4, 1
                addi r5, r5, 1
                subi r1, r1, 1
                brnz r1, top
                halt
            .endfunc
        "#,
        )
        .unwrap();
        let cfg = SamplerConfig::new(PmuEvent::IbsOp, Precision::Ibs, PeriodSpec::fixed(509));
        let (batch, _) = run_sampler(&m, &p, &cfg);
        assert!(!batch.is_empty());
        // Dispatch-group tagging: the tagged op is within a few
        // instructions of the overflow (nothing like the imprecise-PMI
        // skid of hundreds), and its IP is reported exactly (no +1 trick
        // to unwind, so reported == address of the captured op).
        assert!(
            batch.mean_skid() < 8.0,
            "IBS skid too large: {}",
            batch.mean_skid()
        );
        // The div (addr 2) owns 8 of 12 uops per iteration, and after its
        // retirement stall it also heads the next dispatch group — it must
        // soak up far more than its 1/5 instruction share of samples.
        let div_samples = batch.samples.iter().filter(|s| s.reported_ip == 2).count() as f64;
        let frac = div_samples / batch.len() as f64;
        assert!(frac > 0.4, "uop bias towards div expected, got {frac:.2}");
    }

    #[test]
    fn lbr_snapshots_attached_and_bounded() {
        let m = MachineModel::ivy_bridge();
        let p = straight_line_workload();
        let cfg = SamplerConfig::new(
            PmuEvent::BrInstRetiredNearTaken,
            Precision::Imprecise,
            PeriodSpec::fixed(97),
        )
        .with_lbr();
        let (batch, _) = run_sampler(&m, &p, &cfg);
        assert!(!batch.is_empty());
        for s in &batch.samples {
            let lbr = s.lbr.as_ref().expect("LBR requested");
            assert!(lbr.len() <= 16);
            assert!(!lbr.is_empty());
        }
    }

    #[test]
    fn validation_rejects_capability_mismatches() {
        let wsm = MachineModel::westmere();
        let amd = MachineModel::magny_cours();
        let pdir = SamplerConfig::new(
            PmuEvent::InstRetiredPrecDist,
            Precision::Pdir,
            PeriodSpec::fixed(100),
        );
        assert!(matches!(
            Sampler::new(&wsm, &pdir).unwrap_err(),
            PmuError::PdirUnsupported { .. }
        ));
        let lbr_on_amd = SamplerConfig::new(
            PmuEvent::AmdRetiredInstructions,
            Precision::Imprecise,
            PeriodSpec::fixed(100),
        )
        .with_lbr();
        assert!(matches!(
            Sampler::new(&amd, &lbr_on_amd).unwrap_err(),
            PmuError::LbrUnsupported { .. }
        ));
        let fixed_on_amd = SamplerConfig::new(
            PmuEvent::InstRetiredAny,
            Precision::Imprecise,
            PeriodSpec::fixed(100),
        );
        assert!(matches!(
            Sampler::new(&amd, &fixed_on_amd).unwrap_err(),
            PmuError::FixedCounterUnsupported { .. }
        ));
        let ibs_on_intel =
            SamplerConfig::new(PmuEvent::IbsOp, Precision::Ibs, PeriodSpec::fixed(100));
        assert!(matches!(
            Sampler::new(&MachineModel::ivy_bridge(), &ibs_on_intel).unwrap_err(),
            PmuError::IbsUnsupported { .. }
        ));
        let zero = SamplerConfig::new(
            PmuEvent::InstRetiredAny,
            Precision::Imprecise,
            PeriodSpec::fixed(0),
        );
        assert!(matches!(
            Sampler::new(&MachineModel::ivy_bridge(), &zero).unwrap_err(),
            PmuError::ZeroPeriod
        ));
    }

    #[test]
    fn validation_rejects_periods_the_counter_cannot_run() {
        let m = MachineModel::ivy_bridge();
        let with = |nominal, randomization| {
            SamplerConfig::new(
                PmuEvent::InstRetiredPrecDist,
                Precision::Pdir,
                PeriodSpec {
                    nominal,
                    randomization,
                },
            )
        };
        let rejected = [
            (
                with(1000, Randomization::Software { bits: 0 }),
                PmuError::RandomizationBits {
                    bits: 0,
                    min: 1,
                    max: 62,
                },
            ),
            (
                with(1000, Randomization::Software { bits: 63 }),
                PmuError::RandomizationBits {
                    bits: 63,
                    min: 1,
                    max: 62,
                },
            ),
            (
                with(1000, Randomization::HardwareLsb { bits: 64 }),
                PmuError::RandomizationBits {
                    bits: 64,
                    min: 0,
                    max: 63,
                },
            ),
            (
                with(1 << 63, Randomization::None),
                PmuError::PeriodTooLarge {
                    max_reload: 1 << 63,
                },
            ),
            (
                with(u64::MAX, Randomization::HardwareLsb { bits: 4 }),
                PmuError::PeriodTooLarge {
                    max_reload: u64::MAX,
                },
            ),
            (
                with(i64::MAX as u64, Randomization::Software { bits: 2 }),
                PmuError::PeriodTooLarge {
                    max_reload: i64::MAX as u64 + 1,
                },
            ),
        ];
        for (cfg, err) in rejected {
            assert_eq!(Sampler::new(&m, &cfg).unwrap_err(), err, "{:?}", cfg.period);
        }
        // The widest accepted policies construct and run without overflow.
        let p = straight_line_workload();
        for cfg in [
            with(i64::MAX as u64, Randomization::None),
            with(1 << 40, Randomization::Software { bits: 62 }),
            with(1, Randomization::HardwareLsb { bits: 63 }),
            with(1000, Randomization::HardwareLsb { bits: 0 }),
        ] {
            let (batch, summary) = run_sampler(&m, &p, &cfg);
            assert_eq!(batch.total_events, summary.instructions, "{:?}", cfg.period);
        }
    }

    #[test]
    fn injected_pmi_drops_reduce_samples() {
        let m = MachineModel::ivy_bridge();
        let p = straight_line_workload();
        let mut cfg = SamplerConfig::new(
            PmuEvent::InstRetiredPrecDist,
            Precision::Pdir,
            PeriodSpec::fixed(499),
        );
        let (full, _) = run_sampler(&m, &p, &cfg);
        cfg.pmi_drop_rate = 0.5;
        let (half, _) = run_sampler(&m, &p, &cfg);
        assert!(half.dropped_injected > 0);
        assert!(
            (half.len() as f64) < 0.75 * full.len() as f64,
            "dropping half the PMIs should lose ~half the samples"
        );
    }

    #[test]
    fn tiny_period_collisions_are_counted_not_fatal() {
        let m = MachineModel::westmere();
        let p = straight_line_workload();
        let cfg = SamplerConfig::new(
            PmuEvent::InstRetiredAny,
            Precision::Imprecise,
            PeriodSpec::fixed(7),
        );
        let (batch, _) = run_sampler(&m, &p, &cfg);
        assert!(
            batch.dropped_collisions > 0,
            "period 7 with 120-cycle PMI must collide"
        );
        assert!(!batch.is_empty());
    }

    #[test]
    fn randomized_period_varies_sample_spacing() {
        let m = MachineModel::ivy_bridge();
        let p = straight_line_workload();
        let fixed = SamplerConfig::new(
            PmuEvent::InstRetiredPrecDist,
            Precision::Pdir,
            PeriodSpec::fixed(1000),
        );
        let randomized = SamplerConfig::new(
            PmuEvent::InstRetiredPrecDist,
            Precision::Pdir,
            PeriodSpec {
                nominal: 1000,
                randomization: Randomization::Software { bits: 8 },
            },
        );
        let (bf, _) = run_sampler(&m, &p, &fixed);
        let (br, _) = run_sampler(&m, &p, &randomized);
        let gaps = |b: &SampleBatch| -> std::collections::HashSet<u64> {
            b.samples
                .windows(2)
                .map(|w| w[1].trigger_seq - w[0].trigger_seq)
                .collect()
        };
        assert_eq!(gaps(&bf).len(), 1, "fixed period gives constant gaps");
        assert!(gaps(&br).len() > 5, "randomized period varies gaps");
    }
}
