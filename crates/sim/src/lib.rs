//! `ct-sim` — the CPU substrate: functional execution with cycle accounting.
//!
//! The paper measures sampling-accuracy artifacts that are *timing*
//! phenomena of the retirement stream of an out-of-order x86 core:
//!
//! * **skid** — the address reported by a sample trails the instruction
//!   that overflowed the counter by the PMI delivery latency;
//! * **shadow** — instructions retiring in the shadow of a long-latency
//!   instruction receive few samples, while the long-latency instruction
//!   soaks them up;
//! * **burst ("clustered") retirement** — an out-of-order core retires
//!   several uops per cycle, so event positions inside a retirement cycle
//!   are not observable to imprecise mechanisms.
//!
//! This crate reproduces those phenomena mechanistically without a full
//! out-of-order model: instructions execute functionally in program order
//! while a retirement clock advances using per-class latencies, a two-level
//! cache model for loads, a branch predictor for control flow, and a
//! `retire_width`-wide retirement stage that drains bursts after stalls.
//! The retirement stream is published to [`event::RetireObserver`]s —
//! the PMU model (`ct-pmu`) and the profiling session (`countertrust`)
//! observe this one stream, as PMU and perf observe one execution on
//! real hardware. The reference instrumentation (`ct-instrument`), like
//! Pin, needs no timing: it reads per-address retirement counts from
//! [`count_retired`], the untimed instance of the same dispatch loop,
//! which runs no cache model, predictor or clock and takes no machine.
//!
//! # Examples
//!
//! Run a small loop on a paper machine and observe its retirement
//! stream — an observer that declares no [`QuietBudget`] sees every
//! retired instruction, once, in program order:
//!
//! ```
//! use ct_isa::asm::assemble;
//! use ct_sim::{Cpu, MachineModel, RetireEvent, RetireObserver, RunConfig, StopReason};
//!
//! struct Count(u64);
//! impl RetireObserver for Count {
//!     fn on_retire(&mut self, _ev: &RetireEvent) {
//!         self.0 += 1;
//!     }
//! }
//!
//! let program = assemble(
//!     "demo",
//!     ".func main\n movi r1, 10\ntop:\n addi r2, r2, 1\n subi r1, r1, 1\n brnz r1, top\n halt\n.endfunc",
//! )
//! .unwrap();
//! let mut count = Count(0);
//! let summary = Cpu::new(&MachineModel::ivy_bridge())
//!     .run(&program, &RunConfig::default(), &mut [&mut count])
//!     .unwrap();
//! assert_eq!(summary.stop, StopReason::Halted);
//! assert_eq!(count.0, summary.instructions);
//! assert!(summary.cycles > 0 && summary.ipc() > 0.0);
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

#[cfg(feature = "alloc_audit")]
pub mod alloc_audit;
pub mod bpred;
pub mod cache;
pub mod error;
pub mod event;
pub mod exec;
pub mod machine;

pub use error::SimError;
pub use event::{QuietBudget, RetireEvent, RetireObserver, Skipped};
pub use exec::{count_retired, Cpu, RetireTotals, RunConfig, RunSummary, StopReason};
pub use machine::{CacheConfig, Latencies, MachineModel, PmuCaps, Vendor};
