//! `ct-instrument` — the Pin substitute: exact reference profiles.
//!
//! The paper cross-references every sampling method against
//! instrumentation-based basic-block counts obtained through Pin ("REF",
//! §3.3). Here the same ground truth is obtained by counting the simulated
//! retirement stream exactly, with no sampling involved: one untimed run,
//! which needs no machine, counts retirements per instruction address,
//! and block and function counts fold out of that one array afterwards.
//!
//! The headline type is [`ReferenceProfile`], consumed by the accuracy
//! metric in `countertrust`:
//!
//! ```
//! use ct_isa::asm::assemble;
//! use ct_sim::RunConfig;
//! use ct_instrument::ReferenceProfile;
//!
//! let p = assemble(
//!     "t",
//!     ".func main\n movi r1, 5\ntop:\n subi r1, r1, 1\n brnz r1, top\n halt\n.endfunc",
//! )
//! .unwrap();
//! let reference = ReferenceProfile::collect(&p, &RunConfig::default()).unwrap();
//! assert_eq!(reference.total_instructions(), 12);
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

pub mod reference;

pub use reference::{collection_count, CollectionAudit, ReferenceProfile};
