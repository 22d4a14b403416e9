//! `ct-workloads` — the paper's measurement workloads.
//!
//! Each workload is one checked-in `.ctasm` assembler file plus a JSON
//! manifest under `crates/workloads/programs/`; the file's header says
//! which shape of the original it preserves and why. Two families,
//! mirroring §4.3:
//!
//! * **kernels** — small hand-written codes, each emphasizing one
//!   difficulty for sampling: `latency_biased` (non-uniform basic-block
//!   execution times), `callchain` (10-deep chains of short methods),
//!   `g4box` (chains of tests and branches → very short basic blocks)
//!   and `test40` (fragmented, conditionally executed physics methods);
//! * **applications** — synthetic proxies for the paper's SPEC CPU2006
//!   subset (`mcf`, `povray`, `omnetpp`, `xalancbmk`) and the CERN
//!   FullCMS production workload (`fullcms`). Each proxy reproduces the
//!   *shape* that drives sampling accuracy on the original: hotspot
//!   structure, basic-block size distribution, instructions-per-taken-
//!   branch ratio, memory behaviour and call-chain depth.
//!
//! Every program is deterministic: the same size produces the same
//! program and the same dynamic instruction stream.
//!
//! # Examples
//!
//! The registry hands out ready-to-run workloads at any scale (`1.0` ≈
//! 1.5×10⁷ dynamic instructions each); the same scale always yields the
//! same programs:
//!
//! ```
//! let kernels = ct_workloads::kernel_set(0.01);
//! let names: Vec<&str> = kernels.iter().map(|w| w.name.as_str()).collect();
//! assert_eq!(names, ["latency_biased", "callchain", "g4box", "test40"]);
//!
//! let again = ct_workloads::kernel_set(0.01);
//! assert_eq!(
//!     kernels[0].program.insns.len(),
//!     again[0].program.insns.len(),
//!     "programs are deterministic"
//! );
//! assert_eq!(ct_workloads::all(0.01).len(), kernels.len() + 5);
//! ```
//!
//! [`by_name`] skips the scale rule and sets a workload's size constant
//! `N` exactly, for tests that pin an iteration count:
//!
//! ```
//! let w = ct_workloads::by_name("callchain", 2_000).unwrap();
//! assert_eq!(w.name, "callchain");
//! assert!(ct_workloads::by_name("no_such_workload", 2_000).is_none());
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

pub mod loader;
pub mod registry;

// Shape tests of the catalog programs, one module per family.
#[cfg(test)]
#[path = "shapes/apps.rs"]
mod apps;
#[cfg(test)]
#[path = "shapes/kernels.rs"]
mod kernels;
#[cfg(test)]
mod shapes;

pub use loader::{LoaderError, LoaderLimits};
pub use registry::{all, applications, by_name, kernels as kernel_set, Workload, WorkloadClass};
