//! `countertrust` — sampling-method accuracy evaluation.
//!
//! This crate is the reproduction of the paper's contribution:
//! *"Establishing a Base of Trust with Performance Counters for Enterprise
//! Workloads"* (Nowak, Yasin, Mendelson, Zwaenepoel — USENIX ATC 2015).
//! It evaluates how accurately Event-Based Sampling methods recover
//! per-basic-block instruction counts, cross-referencing each method
//! against exact instrumentation (`ct-instrument`, the Pin stand-in).
//!
//! The pieces map one-to-one onto the paper:
//!
//! * [`methods`] — the method taxonomy of Table 3 (classic, precise,
//!   prime/randomized periods, PDIR + LBR IP+1 fix, full LBR);
//! * [`attrib`] — sample→basic-block attribution, including the LBR-based
//!   IP+1 offset correction of §6.2;
//! * [`lbrwalk`] — the LBR stack-walk reconstruction of §3.2 ("all basic
//!   blocks between `Ti` and `Si+1` are executed exactly once");
//! * [`metrics`] — the accuracy-error metric of §3.3;
//! * [`session`] — a perf-record-like driver wiring CPU + PMU + collectors;
//! * [`evaluate`] — the repeated-measurement harness behind Tables 1 and 2;
//! * [`grid`] — the parallel machine × workload × method evaluation
//!   engine, sharing one reference profile per (machine, workload) pair;
//! * [`cache`] — the bounded reference-profile cache ([`cache::PairParts`]
//!   + [`cache::ProfileCache`], with pluggable [`cache::AdmissionPolicy`])
//!   both the grid and serving layers build sessions from;
//! * [`serve`] — the evaluation service: ad-hoc [`serve::EvalRequest`]
//!   streams sharded by pair across a worker pool and satisfied through
//!   the cache, batched ([`serve::EvalService::serve`]) or through the
//!   chunked JSON-lines intake ([`serve::EvalService::serve_pipelined`]),
//!   with byte-identical responses for any thread count;
//! * [`store`] — versioned, checksummed on-disk snapshots of
//!   [`cache::PairParts`] ([`store::SnapshotStore`]) so a restarted server
//!   warm-starts at full hit rate without re-running a single reference;
//! * [`report`] — table formatting and JSON export for the bench binaries.
//!
//! # Examples
//!
//! ```
//! use countertrust::{Session, methods::{MethodKind, MethodOptions}};
//! use ct_sim::MachineModel;
//! use ct_isa::asm::assemble;
//!
//! let program = assemble(
//!     "demo",
//!     r#"
//!     .func main
//!         movi r1, 20000
//!     top:
//!         addi r2, r2, 1
//!         subi r1, r1, 1
//!         brnz r1, top
//!         halt
//!     .endfunc
//!     "#,
//! )
//! .unwrap();
//! let machine = MachineModel::ivy_bridge();
//! let mut session = Session::new(&machine, &program);
//! let opts = MethodOptions::fast();
//! let run = session
//!     .run_method(&MethodKind::Lbr.instantiate(&machine, &opts).unwrap(), 1)
//!     .unwrap();
//! assert!(run.accuracy_error < 0.5);
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

pub mod attrib;
pub mod cache;
pub mod diagnostics;
pub mod error;
pub mod evaluate;
pub mod grid;
pub mod lbrwalk;
pub mod methods;
pub mod metrics;
pub mod profile;
pub mod report;
pub mod serve;
pub mod session;
pub mod store;

pub use cache::{AdmissionPolicy, CacheStats, PairKey, PairParts, ProfileCache};
pub use error::CoreError;
pub use evaluate::{evaluate_method, evaluate_method_with_seeds, ErrorStats, Evaluation};
pub use grid::{cell_seed, for_each_index, GridMethod, GridRunner, PairCtx, WorkloadSpec};
pub use methods::{Attribution, MethodInstance, MethodKind, MethodOptions};
pub use metrics::{accuracy_error, kendall_tau, top_n_exact_match};
pub use profile::EstimatedProfile;
pub use serve::{
    request_seed, EvalRequest, EvalResponse, EvalService, PipelineOptions, PipelineStats,
    ServeStats,
};
pub use session::{MethodRun, Session};
pub use store::{SnapshotReader, SnapshotStore, SnapshotWriter, StoreError};
